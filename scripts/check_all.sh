#!/usr/bin/env sh
# Run every repository gate in sequence: the whole workspace test suite,
# the benchmark harness's own tests (which compile it against the library,
# so a removed API it imports fails here), the library docs with broken
# intra-doc links denied, then determinism, telemetry, metrics & profiling
# exports, serving, caching, crash safety, the out-of-core backend, and the
# no-panic clippy gate. This is the one entry point CI (or a pre-merge
# human) needs; each step prints its own output and any failure aborts the
# aggregate immediately.
#
# Usage: scripts/check_all.sh

set -eu

cd "$(dirname "$0")/.."

echo "==> cargo test --workspace"
cargo test --quiet --workspace

echo "==> cargo test --manifest-path perfbench/Cargo.toml"
cargo test --quiet --manifest-path perfbench/Cargo.toml

echo "==> cargo doc (broken intra-doc links denied)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --quiet --no-deps --lib \
    -p safe-obs -p safe-data -p safe-stats -p safe-gbm -p safe-ops -p safe-core \
    -p safe-serve -p safe-models -p safe-baselines -p safe-datagen -p safe-bench

for check in \
    check_determinism \
    check_telemetry \
    check_metrics \
    check_selection \
    check_serving \
    check_serve_daemon \
    check_cache \
    check_crash_safety \
    check_oocore \
    check_panics; do
    echo "==> scripts/${check}.sh"
    sh "scripts/${check}.sh"
done

echo "check_all: OK — all gates passed"
