//! # safe-core — the SAFE automatic feature engineering pipeline
//!
//! Faithful implementation of Algorithm 1 of *SAFE: Scalable Automatic
//! Feature Engineering Framework for Industrial Tasks* (ICDE 2020). Each
//! iteration:
//!
//! 1. train a gradient-boosted miner on the current feature set
//!    ([`safe_gbm`]),
//! 2. harvest feature combinations from the trees' root→leaf-parent paths
//!    ([`combine`], Section IV-B1),
//! 3. rank combinations by information gain ratio and keep the top γ
//!    ([`combine::rank_combinations_observed`], Algorithm 2),
//! 4. apply the operator set to the kept combinations ([`generate`]),
//! 5. filter candidates by Information Value > α
//!    ([`select::iv_filter_cached`], Algorithm 3),
//! 6. drop the lower-IV member of every |ρ| > θ pair
//!    ([`select::redundancy_filter_cached`], Algorithm 4),
//! 7. rank survivors by average split gain and keep the best
//!    ([`select::rank_and_cap_cached`], Section IV-C3).
//!
//! The result is a serializable [`plan::FeaturePlan`] — the learned Ψ — that
//! replays generation on any dataset or single record (the paper's real-time
//! inference requirement).
//!
//! The paper's own ablation baselines **RAND** (random combinations over all
//! features) and **IMP** (random combinations over split features) are
//! selectable via [`config::GenerationStrategy`]; they share the full
//! selection pipeline exactly as in Section V-A1.
//!
//! ## Robustness
//!
//! `Safe::fit` never panics on degenerate data: a configurable pre-fit
//! audit ([`safe_data::audit`](mod@safe_data::audit), wired through [`SafeConfig::audit`])
//! rejects or repairs unusable datasets, and mid-loop stage failures
//! degrade to the last good iteration's plan (recorded per iteration as an
//! [`safe::IterationStatus`]) instead of aborting the run.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod checkpoint;
pub mod combine;
pub mod engineer;
pub mod error;
pub mod explain;
pub mod config;
pub mod generate;
pub mod plan;
pub mod safe;
pub mod selection;

/// Legacy alias — the selection stage lived at `safe_core::select` before
/// the staged pruner arrived; existing imports keep compiling.
pub use selection as select;

pub use cache::{BinCache, StatsCache};
pub use checkpoint::{Checkpoint, CheckpointStore, CkptError, ConfigFingerprint, Terminal};
pub use config::{GenerationStrategy, SafeConfig, SafeConfigBuilder, SelectionMode};
pub use engineer::{FeatureEngineer, Identity};
pub use error::SafeError;
pub use explain::{explain_plan, explanation_report, FeatureExplanation};
pub use plan::{CompiledPlan, FeaturePlan, PlanError, RowScratch};
pub use safe::{IterationReport, IterationStatus, Safe, SafeOutcome};
