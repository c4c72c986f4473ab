//! Cached-vs-cold differential suite: the cross-iteration training caches
//! (`safe::core::cache`) and the histogram-subtraction tree grower must be
//! *bit-identical* to a from-scratch run. The caches only change how
//! repeated work is resolved — a bin-cache hit hands back the same
//! quantization a fresh fit would compute, a stats-cache hit returns the
//! same finalized `f64`, and histogram subtraction is performed by both
//! paths — so they must not move a single observable bit: not a plan byte,
//! not a funnel count, not a downstream AUC. These tests pin that contract
//! (see `DESIGN.md` §12).
//!
//! The cold arm is a resume: `Safe::fit_resumed` always starts with empty
//! caches, so resuming from the first k snapshots of a checkpointed run
//! recomputes every iteration after k from scratch, and must land on the
//! run whose caches stayed warm throughout.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use safe::core::{CheckpointStore, Safe, SafeConfig, SafeOutcome};
use safe::data::split::train_test_split;
use safe::data::Dataset;
use safe::datagen::synth::{generate, SyntheticConfig};
use safe::gbm::binner::BinnedDataset;
use safe::models::classifier::{evaluate_auc, ClassifierKind};
use safe::stats::par::Parallelism;

/// Thread budgets under test: the caches must be transparent in serial and
/// parallel runs alike.
const THREADS: [usize; 2] = [1, 4];

/// Iterations per fit: enough for the cached run to reuse two iterations'
/// worth of columns and statistics.
const ITERATIONS: usize = 3;

/// Interaction-heavy synthetic data: the shape SAFE's generation stage is
/// built for, so the pipeline completes with a non-trivial funnel.
fn interaction_dataset() -> Dataset {
    generate(&SyntheticConfig {
        n_rows: 900,
        dim: 6,
        n_signal: 4,
        n_interactions: 3,
        marginal_weight: 0.1,
        noise: 0.2,
        seed: 11,
        ..Default::default()
    })
}

/// NaN-heavy data: a third of the draws in the affected columns are
/// missing, so the missing bin, IV NaN handling, and pairwise-finite
/// Pearson all participate in the cached values.
fn nan_heavy_dataset() -> Dataset {
    generate(&SyntheticConfig {
        n_rows: 700,
        dim: 12,
        n_signal: 5,
        n_interactions: 2,
        noise: 0.3,
        missing_rate: 0.35,
        seed: 23,
        ..Default::default()
    })
}

/// Degenerate data: a small synthetic base plus a constant column and an
/// all-NaN column. Cached and cold runs must agree on which candidates get
/// discarded as degenerate.
fn degenerate_dataset() -> Dataset {
    let base = generate(&SyntheticConfig {
        n_rows: 600,
        dim: 5,
        n_signal: 3,
        n_interactions: 2,
        noise: 0.25,
        seed: 37,
        ..Default::default()
    });
    let mut names: Vec<String> = base.meta().iter().map(|m| m.name.clone()).collect();
    let mut cols: Vec<Vec<f64>> = base.columns().map(<[f64]>::to_vec).collect();
    names.push("konst".to_string());
    cols.push(vec![7.0; base.n_rows()]);
    names.push("void".to_string());
    cols.push(vec![f64::NAN; base.n_rows()]);
    Dataset::from_columns(names, cols, base.labels().map(<[u8]>::to_vec)).unwrap()
}

fn config(threads: usize, dir: &Path) -> SafeConfig {
    SafeConfig {
        seed: 5,
        n_iterations: ITERATIONS,
        checkpoint_dir: Some(dir.to_path_buf()),
        ..SafeConfig::paper()
    }
    .with_threads(threads)
}

/// Fresh per-scenario checkpoint directory under the system temp dir.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("safe_cache_diff")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Per-iteration downstream AUC: apply each iteration's plan snapshot and
/// evaluate a fixed-seed GBM on a held-out split. Computed independently
/// for each run so the comparison is end-to-end, not short-circuited
/// through the (already asserted) plan equality.
fn per_iteration_aucs(data: &Dataset, outcome: &SafeOutcome) -> Vec<u64> {
    let (train, test) = train_test_split(data, 0.3, 1).unwrap();
    outcome
        .plans_per_iteration
        .iter()
        .map(|plan| {
            let tr = plan.apply(&train).unwrap();
            let te = plan.apply(&test).unwrap();
            evaluate_auc(ClassifierKind::Xgb, &tr, &te, 9).unwrap().to_bits()
        })
        .collect()
}

/// The core differential assertion: at every thread budget, a cached run's
/// observable outputs — plan bytes, per-iteration snapshots, funnel
/// history, structural run report, and downstream AUC bits — match a run
/// resumed with cold caches from each of its first k snapshots.
fn assert_cache_differential(name: &str, data: &Dataset) {
    for &threads in &THREADS {
        let warm_dir = temp_dir(&format!("{name}_t{threads}_warm"));
        let warm = Safe::new(config(threads, &warm_dir))
            .fit(data, None)
            .unwrap_or_else(|e| panic!("{name}: fit with threads={threads} failed: {e}"));
        assert!(
            !warm.plan.outputs.is_empty(),
            "{name}: cached run selected nothing — dataset too weak to differentiate"
        );
        let warm_aucs = per_iteration_aucs(data, &warm);
        let snapshots = CheckpointStore::new(warm_dir.clone());
        for k in 1..=warm.history.len() {
            let cold_dir = temp_dir(&format!("{name}_t{threads}_k{k}"));
            let kept = CheckpointStore::new(cold_dir.clone());
            for i in 1..=k {
                std::fs::copy(snapshots.path_for(i), kept.path_for(i)).unwrap();
            }
            let cold = Safe::new(config(threads, &cold_dir))
                .fit_resumed(data, None)
                .unwrap_or_else(|e| panic!("{name}: resume from {k} at threads={threads}: {e}"));
            let at = format!("{name}: resumed from snapshot {k} at threads={threads}");
            assert_eq!(warm.plan.to_text(), cold.plan.to_text(), "{at}: plan differs");
            assert_eq!(
                warm.plans_per_iteration, cold.plans_per_iteration,
                "{at}: per-iteration plans differ"
            );
            assert_eq!(warm.history.len(), cold.history.len(), "{at}");
            for (a, b) in warm.history.iter().zip(&cold.history) {
                assert!(
                    a.structural_eq(b),
                    "{at}: iteration {} history differs:\n{a:?}\nvs\n{b:?}",
                    a.iteration
                );
            }
            assert!(
                warm.report.structural_eq(&cold.report),
                "{at}: run report differs structurally"
            );
            assert_eq!(warm_aucs, per_iteration_aucs(data, &cold), "{at}: AUC bits differ");
            let _ = std::fs::remove_dir_all(&cold_dir);
        }
        let _ = std::fs::remove_dir_all(&warm_dir);
    }
}

#[test]
fn interaction_heavy_cached_runs_are_bit_identical_to_cold() {
    assert_cache_differential("interaction", &interaction_dataset());
}

#[test]
fn nan_heavy_cached_runs_are_bit_identical_to_cold() {
    assert_cache_differential("nan-heavy", &nan_heavy_dataset());
}

#[test]
fn degenerate_cached_runs_are_bit_identical_to_cold() {
    assert_cache_differential("degenerate", &degenerate_dataset());
}

/// The cache must actually *work*, not just be transparent: by the second
/// iteration the miner re-trains on columns that were already quantized, so
/// its stage telemetry must record bin-cache hits.
#[test]
fn warm_iterations_reuse_binned_columns() {
    let data = interaction_dataset();
    let config = SafeConfig { seed: 5, n_iterations: 2, ..SafeConfig::paper() }.with_threads(1);
    let warm = Safe::new(config).fit(&data, None).unwrap();

    let warm_train = warm.report.iterations[1]
        .stage("gbm-train")
        .expect("second iteration has a gbm-train stage");
    let hits = warm_train.counter("cache_bin_hits").expect("cached run records bin-cache hits");
    let misses = warm_train.counter("cache_bin_misses").unwrap_or(0);
    assert!(hits > 0, "second-iteration miner must reuse cached bin columns");

    // Cold re-binning cost for the same stage is its full column count; the
    // warm run re-bins strictly fewer columns than that.
    assert!(
        misses < hits + misses,
        "warm run re-binned every column: hits={hits} misses={misses}"
    );

    // The selection statistics cache participates too: the iv-filter stage
    // of a cached run records its hit/miss split.
    let warm_iv = warm.report.iterations[0].stage("iv-filter").unwrap();
    assert!(
        warm_iv.counter("cache_iv_misses").is_some(),
        "cached run records IV cache telemetry"
    );
}

fn assert_binned_eq(a: &BinnedDataset, b: &BinnedDataset) {
    assert_eq!(a.n_features(), b.n_features());
    assert_eq!(a.n_rows(), b.n_rows());
    for f in 0..a.n_features() {
        assert_eq!(a.bins(f), b.bins(f), "bin column {f} differs");
        assert_eq!(a.mapper(f).n_value_bins(), b.mapper(f).n_value_bins(), "mapper {f} differs");
        for s in 0..a.mapper(f).n_split_candidates() as u16 {
            assert_eq!(
                a.mapper(f).threshold(s).to_bits(),
                b.mapper(f).threshold(s).to_bits(),
                "threshold {s} of feature {f} differs"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Incremental binning contract: for any column values (including NaN),
    /// any base/extension split, and any bin budget, `extend_with` on a
    /// fitted `BinnedDataset` equals a fresh fit of the concatenated matrix
    /// — same bins, same mappers, same thresholds to the bit.
    #[test]
    fn extend_with_matches_fresh_fit_of_concatenation(
        vals in prop::collection::vec(-1e3f64..1e3, 24..160),
        split_at in 1usize..4,
        max_bins in 4usize..64,
    ) {
        const N_COLS: usize = 4;
        let n_rows = vals.len() / N_COLS;
        let columns: Vec<Vec<f64>> = (0..N_COLS)
            .map(|c| {
                vals[c * n_rows..(c + 1) * n_rows]
                    .iter()
                    // Carve a NaN band out of the value range so missing
                    // values participate in most cases.
                    .map(|&v| if v > 900.0 { f64::NAN } else { v })
                    .collect()
            })
            .collect();
        let names: Vec<String> = (0..N_COLS).map(|c| format!("col{c}")).collect();

        let base = Dataset::from_columns(
            names[..split_at].to_vec(),
            columns[..split_at].to_vec(),
            None,
        ).unwrap();
        let extra = Dataset::from_columns(
            names[split_at..].to_vec(),
            columns[split_at..].to_vec(),
            None,
        ).unwrap();
        let concat = Dataset::from_columns(names.clone(), columns.clone(), None).unwrap();

        let mut incremental = BinnedDataset::fit(&base, max_bins, Parallelism::auto());
        incremental.extend_with(&extra, Parallelism::auto()).unwrap();
        let fresh = BinnedDataset::fit(&concat, max_bins, Parallelism::auto());
        assert_binned_eq(&incremental, &fresh);
    }
}
