//! Iteration-ending contract: every way a SAFE iteration can end closes
//! the same way — the last `history` entry records the ending, and the
//! newest durable checkpoint carries the matching [`Terminal`].
//!
//! | ending                     | last status                     | terminal          |
//! |----------------------------|---------------------------------|-------------------|
//! | time budget exhausted      | `Skipped`                       | `Skipped`         |
//! | no candidate clears α      | `Degraded { "iv-filter" }`      | `Degraded`        |
//! | selected set unchanged     | `Completed`                     | `Converged`       |
//! | iteration budget used up   | `Completed`                     | `ItersExhausted`  |
//! | ranking booster fails      | `Degraded { "rank" }`           | `Degraded`        |
//!
//! The last row arms the `select/rank` failpoint and needs
//! `cargo test --features failpoints --test iteration_endings`.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safe_core::{CheckpointStore, IterationStatus, Safe, SafeConfig, SafeOutcome, Terminal};
use safe_data::Dataset;

/// Serializes the fits in this file: the failpoint registry is
/// process-global, so no fit may run while `select/rank` is armed.
static LOCK: Mutex<()> = Mutex::new(());

/// Product-interaction data (label ≈ sign of 3ab + c/2) plus two noise
/// columns: the pipeline completes on it with a non-trivial funnel.
fn interaction_data(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cols = vec![Vec::with_capacity(n); 5];
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let a: f64 = rng.gen_range(-1.0..1.0);
        let b: f64 = rng.gen_range(-1.0..1.0);
        let c: f64 = rng.gen_range(-1.0..1.0);
        cols[0].push(a);
        cols[1].push(b);
        cols[2].push(c);
        cols[3].push(rng.gen_range(-1.0..1.0));
        cols[4].push(rng.gen_range(-1.0..1.0));
        let score = 3.0 * a * b + 0.5 * c + rng.gen_range(-0.2..0.2);
        labels.push((score > 0.0) as u8);
    }
    Dataset::from_columns(
        ["a", "b", "c", "n1", "n2"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        cols,
        Some(labels),
    )
    .unwrap()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("safe_iteration_endings")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Fit with checkpointing into a fresh directory; return the outcome and
/// the newest checkpoint's terminal state.
fn fit_ending(name: &str, config: SafeConfig) -> (SafeOutcome, Terminal) {
    let dir = temp_dir(name);
    let config = SafeConfig {
        checkpoint_dir: Some(dir.clone()),
        ..config
    };
    let outcome = Safe::new(config)
        .fit(&interaction_data(600, 3), None)
        .unwrap_or_else(|e| panic!("{name}: fit must not fail: {e}"));
    let terminal = newest_terminal(&dir, &outcome);
    let _ = std::fs::remove_dir_all(&dir);
    (outcome, terminal)
}

fn newest_terminal(dir: &Path, outcome: &SafeOutcome) -> Terminal {
    let ckpt = CheckpointStore::new(dir.to_path_buf())
        .load_latest()
        .unwrap()
        .checkpoint
        .expect("every ending writes a checkpoint");
    assert_eq!(ckpt.iterations_done, outcome.history.len());
    assert_eq!(outcome.history.len(), outcome.plans_per_iteration.len());
    for (a, b) in ckpt.history.iter().zip(&outcome.history) {
        assert!(
            a.structural_eq(b),
            "checkpointed history diverged: {a:?} vs {b:?}"
        );
    }
    ckpt.terminal
}

fn last_status(outcome: &SafeOutcome) -> &IterationStatus {
    &outcome
        .history
        .last()
        .expect("at least one iteration is recorded")
        .status
}

#[test]
fn every_iteration_ending_records_its_status_and_terminal() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());

    // Budget already spent when iteration 0 starts.
    let (outcome, terminal) = fit_ending(
        "skipped",
        SafeConfig {
            time_budget: Some(Duration::from_nanos(1)),
            ..SafeConfig::paper()
        },
    );
    assert_eq!(outcome.history.len(), 1);
    assert!(matches!(
        last_status(&outcome),
        IterationStatus::Skipped { .. }
    ));
    assert_eq!(terminal, Terminal::Skipped);

    // Nothing clears α: the iteration degrades after the funnel has run
    // through generation, and records the counts it reached.
    let (outcome, terminal) = fit_ending(
        "empty-iv",
        SafeConfig {
            alpha: f64::MAX,
            ..SafeConfig::paper()
        },
    );
    assert!(matches!(
        last_status(&outcome),
        IterationStatus::Degraded {
            stage: "iv-filter",
            ..
        }
    ));
    let last = outcome.history.last().unwrap();
    assert!(last.n_combinations > 0 && last.n_generated > 0, "{last:?}");
    assert_eq!(last.n_candidates, 5 + last.n_generated);
    assert_eq!(last.n_after_iv, 0);
    assert_eq!(terminal, Terminal::Degraded);

    // θ ≈ 0 keeps a single feature, so the next iteration has nothing to
    // combine and selects the same set: the run converges well inside its
    // iteration budget.
    let (outcome, terminal) = fit_ending(
        "converged",
        SafeConfig {
            n_iterations: 10,
            theta: 1e-9,
            ..SafeConfig::paper()
        },
    );
    assert_eq!(outcome.history.len(), 2, "run must converge at iteration 1");
    assert_eq!(last_status(&outcome), &IterationStatus::Completed);
    assert_eq!(terminal, Terminal::Converged);

    // One iteration, completed without converging.
    let (outcome, terminal) = fit_ending(
        "exhausted",
        SafeConfig {
            n_iterations: 1,
            ..SafeConfig::paper()
        },
    );
    assert_eq!(outcome.history.len(), 1);
    assert_eq!(last_status(&outcome), &IterationStatus::Completed);
    assert_eq!(terminal, Terminal::ItersExhausted);
}

#[cfg(feature = "failpoints")]
#[test]
fn a_rank_failure_records_a_degraded_status_and_terminal() {
    use safe_data::failpoints;

    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    failpoints::disarm_all();
    failpoints::arm("select/rank");
    let ended = std::panic::catch_unwind(|| fit_ending("rank", SafeConfig::paper()));
    failpoints::disarm_all();
    let (outcome, terminal) = ended.unwrap_or_else(|p| std::panic::resume_unwind(p));
    assert!(matches!(
        last_status(&outcome),
        IterationStatus::Degraded { stage: "rank", .. }
    ));
    assert_eq!(terminal, Terminal::Degraded);
}
