#!/usr/bin/env sh
# Verify the cross-iteration cache contract (DESIGN.md section 12): cached
# runs (bin cache + stats cache + histogram subtraction) must be
# bit-identical to runs resumed with cold caches from each of their
# checkpoints, on every dataset shape and thread budget the differential
# suite covers, the incremental
# `BinnedDataset::extend_with` path must equal a fresh fit of the
# concatenated matrix, and warm iterations must actually reuse cached
# columns (telemetry hit counters).
#
# Usage: scripts/check_cache.sh

set -eu

cd "$(dirname "$0")/.."

echo "check_cache: cached-vs-cold differential suite"
cargo test --quiet --test cache_differential

echo "check_cache: binner + booster cache unit suites"
cargo test --quiet -p safe-gbm binner
cargo test --quiet -p safe-gbm booster::tests::fit_cached_observed_is_bit_identical_to_fit
cargo test --quiet -p safe-core cache

echo "check_cache: OK — cached runs are bit-identical and warm iterations reuse work"
