//! Algorithm 1: the SAFE iteration loop.
//!
//! # Robustness
//!
//! `fit` separates *rejections* from *mid-loop failures*:
//!
//! - Rejections (invalid config, unusable or audit-fatal data) return `Err`
//!   before any work happens.
//! - Once the loop is running, a failed stage never aborts the run. The
//!   iteration is recorded with [`IterationStatus::Degraded`], the feature
//!   set falls back to the last good iteration's plan, and `fit` returns
//!   `Ok` — feature engineering is an *enhancement*, so a usable plan (in
//!   the worst case the identity plan over the original schema) always
//!   comes back.
//!
//! The pre-fit data audit ([`safe_data::audit`](mod@safe_data::audit)) runs first under
//! [`crate::config::SafeConfig::audit`]; its report is part of the
//! [`SafeOutcome`].

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::{Duration, Instant};

use safe_data::audit::{enforce, AuditReport};
use safe_data::dataset::{Dataset, FeatureMeta};
use safe_gbm::booster::Gbm;
use safe_obs::{stages, ReportBuilder, RunReport, StageGuard, Waterfall};

use crate::cache::{BinCache, StatsCache};
use crate::checkpoint::{Checkpoint, CheckpointStore, ConfigFingerprint, Terminal};
use crate::combine::{mine_combinations, random_combinations, rank_combinations_observed, Combination};
use crate::config::{GenerationStrategy, SafeConfig, SelectionMode};
use crate::generate::generate_features_observed;
use crate::plan::{FeaturePlan, PlanStep};
use crate::selection::staged::{staged_prune, StagedConfig};
use crate::selection::{
    iv_filter_cached, rank_and_cap_cached, redundancy_filter_binned, redundancy_filter_cached,
};

pub use crate::error::SafeError;

/// How one iteration of the SAFE loop ended.
#[derive(Debug, Clone, PartialEq)]
pub enum IterationStatus {
    /// The full generate→select funnel ran to completion.
    Completed,
    /// A stage failed mid-iteration; the feature set fell back to the last
    /// good iteration's plan and the loop stopped.
    Degraded {
        /// Stage that failed: `"mine"`, `"generate"`, `"staged-prune"`,
        /// `"iv-filter"`, `"redundancy"`, `"rank"`, or `"select"`.
        stage: &'static str,
        /// Human-readable failure description.
        reason: String,
    },
    /// The iteration did not run at all (e.g. the time budget was already
    /// exhausted when it started).
    Skipped {
        /// Why the iteration was skipped.
        reason: String,
    },
}

/// Per-iteration funnel counts (how many features each stage kept) — the
/// observability the paper's Fig. 1 flow chart implies — plus how the
/// iteration ended.
#[derive(Debug, Clone)]
pub struct IterationReport {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Combinations mined from paths (or drawn at random).
    pub n_combinations: usize,
    /// Combinations kept after gain-ratio ranking (γ cap).
    pub n_combinations_kept: usize,
    /// Features generated by the operator set.
    pub n_generated: usize,
    /// Candidate set size |X̂| = |X ∪ X̃|.
    pub n_candidates: usize,
    /// Survivors of the IV filter (Algorithm 3).
    pub n_after_iv: usize,
    /// Survivors of redundancy removal (Algorithm 4).
    pub n_after_redundancy: usize,
    /// Final selected count after gain ranking and the 2M cap.
    pub n_selected: usize,
    /// Names of the selected features.
    pub selected: Vec<String>,
    /// Wall-clock time of this iteration in integer microseconds.
    pub elapsed_us: u64,
    /// How the iteration ended.
    pub status: IterationStatus,
}

impl IterationReport {
    /// Equality over everything except `elapsed_us`, which is wall-clock
    /// time and therefore nondeterministic across runs and thread counts.
    /// The serial-vs-parallel differential suite compares histories with
    /// this instead of `==`.
    pub fn structural_eq(&self, other: &IterationReport) -> bool {
        self.iteration == other.iteration
            && self.n_combinations == other.n_combinations
            && self.n_combinations_kept == other.n_combinations_kept
            && self.n_generated == other.n_generated
            && self.n_candidates == other.n_candidates
            && self.n_after_iv == other.n_after_iv
            && self.n_after_redundancy == other.n_after_redundancy
            && self.n_selected == other.n_selected
            && self.selected == other.selected
            && self.status == other.status
    }
}

/// The result of a SAFE run.
#[derive(Debug, Clone)]
pub struct SafeOutcome {
    /// The learned Ψ for the final iteration's feature set.
    pub plan: FeaturePlan,
    /// Funnel counts per iteration.
    pub history: Vec<IterationReport>,
    /// Plan snapshot after each iteration (Fig. 4 evaluates these).
    pub plans_per_iteration: Vec<FeaturePlan>,
    /// What the pre-fit data audit found (and repaired, under
    /// [`safe_data::AuditPolicy::Repair`]).
    pub audit: AuditReport,
    /// Per-iteration, per-stage telemetry: wall-clock timings (integer
    /// microseconds), counters, the feature-count waterfall, and structured
    /// warnings. Always assembled, whatever sink is configured.
    pub report: RunReport,
}

/// The SAFE feature engineering engine.
#[derive(Debug, Clone)]
pub struct Safe {
    config: SafeConfig,
}

impl Safe {
    /// Build with a configuration (validated at fit time).
    pub fn new(config: SafeConfig) -> Safe {
        Safe { config }
    }

    /// Paper-default SAFE.
    pub fn paper() -> Safe {
        Safe::new(SafeConfig::paper())
    }

    /// The configuration this engine runs with.
    pub fn config(&self) -> &SafeConfig {
        &self.config
    }

    /// Run Algorithm 1 on a labeled training set (optionally with a
    /// validation set for the internal boosters).
    ///
    /// Returns `Err` only for rejections: invalid configuration, unlabeled
    /// or empty data, or a fatal/policy-triggered audit finding. Mid-loop
    /// failures degrade (see the module docs) and still return `Ok`.
    ///
    /// With [`SafeConfig::checkpoint_dir`] set, a durable `SAFECKPT`
    /// snapshot is written after each completed iteration (subject to
    /// [`SafeConfig::checkpoint_every`]); see [`Safe::fit_resumed`] and
    /// [`crate::checkpoint`] for crash recovery.
    pub fn fit(&self, train: &Dataset, valid: Option<&Dataset>) -> Result<SafeOutcome, SafeError> {
        self.run(train, valid, None)
    }

    /// Resume an interrupted [`Safe::fit`] from the newest loadable
    /// checkpoint under [`SafeConfig::checkpoint_dir`], then continue
    /// training to the same final plan, history, and report — bit-identical
    /// to an uninterrupted run at any thread count (the crash differential
    /// suite enforces this).
    ///
    /// Recovery ladder: the newest checkpoint is tried first; a torn or
    /// corrupt file is quarantined (renamed to `*.corrupt`, surfaced as a
    /// sink warning) and the previous good checkpoint is tried next. An
    /// empty directory falls back to a cold start. `Err` is reserved for
    /// rejections: no `checkpoint_dir` configured, a missing directory,
    /// every candidate file corrupt, or a checkpoint whose configuration
    /// fingerprint does not match this engine's result-determining
    /// settings.
    pub fn fit_resumed(
        &self,
        train: &Dataset,
        valid: Option<&Dataset>,
    ) -> Result<SafeOutcome, SafeError> {
        self.config.validate().map_err(SafeError::Config)?;
        let dir = self.config.checkpoint_dir.clone().ok_or_else(|| {
            SafeError::Checkpoint(
                "fit_resumed requires SafeConfig::checkpoint_dir to be set".into(),
            )
        })?;
        let store = CheckpointStore::new(dir);
        if !store.dir().is_dir() {
            return Err(SafeError::Checkpoint(format!(
                "checkpoint directory '{}' does not exist",
                store.dir().display()
            )));
        }
        let sink = self.config.sink.as_dyn();
        let loaded = store
            .load_latest()
            .map_err(|e| SafeError::Checkpoint(e.to_string()))?;
        // Quarantine notices are sink-only: the carried report must stay
        // structurally identical to the uninterrupted run's.
        for (path, reason) in &loaded.quarantined {
            sink.warn(
                stages::CHECKPOINT,
                None,
                "ckpt-quarantined",
                &format!("quarantined '{}': {reason}", path.display()),
            );
        }
        match loaded.checkpoint {
            Some(ckpt) => {
                if !ckpt.fingerprint.matches(&ConfigFingerprint::of(&self.config)) {
                    return Err(SafeError::Checkpoint(
                        "checkpoint was written under different result-determining settings \
                         (seed, thresholds, caps, iteration budget, or strategy); refusing to \
                         resume into a run that could not be bit-identical"
                            .into(),
                    ));
                }
                if let Some(from) = &loaded.loaded_from {
                    sink.warn(
                        stages::CHECKPOINT,
                        None,
                        "ckpt-resume",
                        &format!(
                            "resuming from '{}' at iteration {}",
                            from.display(),
                            ckpt.iterations_done
                        ),
                    );
                }
                self.run(train, valid, Some(ckpt))
            }
            None if loaded.candidates > 0 => Err(SafeError::Checkpoint(format!(
                "no loadable checkpoint under '{}': all {} candidate file(s) were corrupt and \
                 have been quarantined",
                store.dir().display(),
                loaded.candidates
            ))),
            None => {
                sink.warn(
                    stages::CHECKPOINT,
                    None,
                    "ckpt-cold-start",
                    &format!(
                        "no checkpoint under '{}'; starting from scratch",
                        store.dir().display()
                    ),
                );
                self.run(train, valid, None)
            }
        }
    }

    /// The shared fit loop behind [`Safe::fit`] (cold start) and
    /// [`Safe::fit_resumed`] (continue from a [`Checkpoint`]): set up or
    /// restore the loop state, then run [`Safe::iterate`] and
    /// [`Safe::close_iteration`] once per iteration until an ending is final.
    fn run(
        &self,
        train: &Dataset,
        valid: Option<&Dataset>,
        resume: Option<Checkpoint>,
    ) -> Result<SafeOutcome, SafeError> {
        self.config.validate().map_err(SafeError::Config)?;
        if train.labels().is_none() {
            return Err(SafeError::Data("training data has no labels".into()));
        }
        if train.is_empty() {
            return Err(SafeError::Data("training data is empty".into()));
        }

        let sink = self.config.sink.as_dyn();
        // On resume the builder is seeded with the checkpointed report so
        // the finished report covers the whole run, not just this segment.
        let mut rb = match &resume {
            Some(ckpt) => ReportBuilder::resume(sink, ckpt.report.clone()),
            None => ReportBuilder::new(sink),
        };
        let (audit_report, repaired) = self.audit(train, resume.is_some(), &mut rb)?;
        let train: &Dataset = repaired.as_ref().unwrap_or(train);
        // Repairs change the schema; replay them on the validation set so
        // train and valid stay column-aligned.
        let valid: Option<Dataset> = match valid {
            Some(v) if !audit_report.actions.is_empty() => Some(
                audit_report
                    .replay(v)
                    .map_err(|e| SafeError::Data(e.to_string()))?,
            ),
            Some(v) => Some(v.clone()),
            None => None,
        };
        let original_names = feature_name_vec(train);

        let (mut state, start_iteration, prior_elapsed_us) = match resume {
            None => (LoopState::new(original_names, train.clone(), valid), 0, 0),
            // A finished run reconstructs its outcome straight from the
            // snapshot — no iterations re-run, resume is idempotent.
            Some(ckpt) if ckpt.terminal.is_final() => {
                return Ok(SafeOutcome {
                    plan: final_plan(&ckpt.plans, &original_names),
                    history: ckpt.history,
                    plans_per_iteration: ckpt.plans,
                    audit: audit_report,
                    report: rb.finish(),
                });
            }
            Some(ckpt) => {
                let (done, elapsed_us) = (ckpt.iterations_done, ckpt.elapsed_us);
                (self.resume_state(original_names, train, valid, ckpt)?, done, elapsed_us)
            }
        };

        let start = Instant::now();
        let prior_elapsed = Duration::from_micros(prior_elapsed_us);
        let max_iters = if self.config.n_iterations > 0 {
            self.config.n_iterations
        } else {
            usize::MAX
        };
        for iteration in start_iteration..max_iters {
            rb.begin_iteration(iteration);
            let iter_start = Instant::now();
            let end = self.iterate(&mut state, iteration, prior_elapsed + start.elapsed(), &mut rb);
            let run_us = prior_elapsed_us + start.elapsed().as_micros() as u64;
            if self.close_iteration(&mut state, end, iteration, iter_start, run_us, &mut rb)? {
                break;
            }
        }

        if train.has_chunked_columns() {
            oocore_summary(train, &mut rb);
        }
        Ok(SafeOutcome {
            plan: final_plan(&state.plans, &state.original_names),
            history: state.history,
            plans_per_iteration: state.plans,
            audit: audit_report,
            report: rb.finish(),
        })
    }

    /// The pre-fit data audit under an `audit` span, with every finding and
    /// repair surfaced as a warning.
    ///
    /// On resume the audit re-runs (its repairs must be reapplied for the
    /// schema to line up) but is NOT re-instrumented: the carried report
    /// already holds the first segment's audit span and warnings, and
    /// `enforce` is deterministic — same data, same findings.
    fn audit(
        &self,
        train: &Dataset,
        resuming: bool,
        rb: &mut ReportBuilder<'_>,
    ) -> Result<(AuditReport, Option<Dataset>), SafeError> {
        if resuming {
            return Ok(enforce(train, &self.config.audit)?);
        }
        let (audit_report, repaired) = {
            let mut g = rb.stage(stages::AUDIT);
            let result = enforce(train, &self.config.audit);
            if let Ok((report, _)) = &result {
                g.counter("findings", report.findings.len() as u64);
                g.counter("repairs", report.actions.len() as u64);
            }
            result
        }?;
        for finding in &audit_report.findings {
            rb.warn(stages::AUDIT, finding.code(), &finding.to_string());
        }
        for action in &audit_report.actions {
            rb.warn(stages::AUDIT, "audit-repair", &action.to_string());
        }
        Ok((audit_report, repaired))
    }

    /// Rebuild the state a non-final checkpoint describes by replaying its
    /// last good plan over the audited originals. Plan replay is
    /// deterministic and equal to the in-loop columns (the plan replay
    /// differential pins this), so the resumed loop sees exactly the state
    /// the crashed run held after its last completed iteration. The catalog
    /// only ever contributes steps reachable from selected outputs, so the
    /// last plan's steps are a sufficient reconstruction. The caches start
    /// empty, which makes resume the cold path the cache differential
    /// suite compares against.
    fn resume_state(
        &self,
        original_names: Vec<String>,
        train: &Dataset,
        valid: Option<Dataset>,
        ckpt: Checkpoint,
    ) -> Result<LoopState, SafeError> {
        let mut state = match ckpt.plans.last() {
            None => LoopState::new(original_names, train.clone(), valid),
            Some(last_plan) => {
                let compiled = last_plan.compile(&self.config.operators).map_err(|e| {
                    SafeError::Checkpoint(format!(
                        "checkpointed plan does not compile against the configured operator \
                         registry: {e}"
                    ))
                })?;
                let current_train = compiled.apply(train).map_err(|e| {
                    SafeError::Checkpoint(format!(
                        "checkpointed plan does not replay on the training data: {e}"
                    ))
                })?;
                let current_valid = match &valid {
                    Some(v) => Some(compiled.apply(v).map_err(|e| {
                        SafeError::Checkpoint(format!(
                            "checkpointed plan does not replay on the validation data: {e}"
                        ))
                    })?),
                    None => None,
                };
                let mut state = LoopState::new(original_names, current_train, current_valid);
                for step in &last_plan.steps {
                    state.catalog.insert(step.name.clone(), step.clone());
                }
                state
            }
        };
        state.history = ckpt.history;
        state.plans = ckpt.plans;
        Ok(state)
    }

    /// One pass of Algorithm 1's funnel: mine → rank combinations →
    /// generate → (staged prune) → IV → redundancy → gain-rank, skipped
    /// when the run has already `spent` its time budget. A completed pass
    /// makes the selection the working feature set in `state`; a failed
    /// stage leaves the working set as it was and names itself in the
    /// returned ending, and the failure also surfaces as a structured
    /// `warn` event when the iteration is closed.
    fn iterate(
        &self,
        state: &mut LoopState,
        iteration: usize,
        spent: Duration,
        rb: &mut ReportBuilder<'_>,
    ) -> IterationEnd {
        if self.config.time_budget.is_some_and(|budget| spent >= budget) {
            return IterationEnd::Skipped;
        }
        let par = self.config.parallelism;
        let cap = self.config.output_multiplier * state.original_names.len();

        // --- feature generation (Section IV-B) -------------------------
        let (n_combinations, ranked) = match self.make_combinations(
            &state.train,
            &state.valid,
            iteration,
            &mut state.bin_cache,
            rb,
        ) {
            Ok(c) => c,
            Err(e) => return degraded("mine", e.chain_string()),
        };
        let n_kept = ranked.len();

        let gen_result = {
            let mut g = rb.stage(stages::GENERATE);
            g.counter("threads", par.resolve() as u64);
            generate_features_observed(
                &state.train,
                state.valid.as_ref(),
                &ranked,
                &self.config.operators,
                par,
            )
            .map(|(generated, stats)| {
                for (op, count) in &stats.per_op {
                    g.counter(&format!("op_{op}"), *count);
                }
                g.counter("degenerate_discarded", stats.degenerate_discarded);
                g.counter("name_collisions", stats.name_collisions);
                g.counter("op_fit_errors", stats.op_fit_errors);
                g.counter("stale_combinations", stats.stale_combinations);
                g.set_flow(n_kept as u64, generated.len() as u64);
                generated
            })
        };
        let generated = match gen_result {
            Ok(g) => g,
            Err(p) => {
                return degraded("generate", SafeError::worker_panic("generate", p).chain_string())
            }
        };
        let n_generated = generated.len();

        // Candidate set X̂ = X ∪ X̃.
        let mut cand_train = state.train.clone();
        let mut cand_valid = state.valid.clone();
        for g in &generated {
            state.catalog.insert(
                g.name.clone(),
                PlanStep {
                    name: g.name.clone(),
                    op: g.op.clone(),
                    parents: g.parents.clone(),
                    params: g.params.clone(),
                },
            );
            let meta = FeatureMeta::generated(g.name.clone(), g.op.clone(), g.parents.clone());
            if let Err(e) = cand_train.push_column(meta.clone(), g.train_values.clone()) {
                return degraded("generate", e.to_string());
            }
            if let (Some(v), Some(values)) = (cand_valid.as_mut(), g.valid_values.as_ref()) {
                if let Err(e) = v.push_column(meta, values.clone()) {
                    return degraded("generate", e.to_string());
                }
            }
        }
        let n_candidates = cand_train.n_cols();

        // --- staged candidate pruning (SelectionMode::Staged only) -----
        // Successive halving whittles the pool down to a finalist set
        // before the exact stages run; exact mode takes the whole pool
        // straight through, bit-identical to the pre-staged pipeline
        // (no extra stage, no extra counters).
        let staged_finalists: Option<Vec<usize>> = match self.config.selection {
            SelectionMode::Exact => None,
            SelectionMode::Staged => {
                let staged_cfg = StagedConfig::for_pool(
                    cap,
                    n_candidates,
                    self.config.beta,
                    self.config
                        .seed
                        .wrapping_add(iteration as u64)
                        .wrapping_mul(0x9E3779B97F4A7C15),
                );
                let all_candidates: Vec<usize> = (0..n_candidates).collect();
                let staged_result = {
                    let mut g = rb.stage(stages::STAGED_PRUNE);
                    g.counter("threads", par.resolve() as u64);
                    g.counter("finalist_target", staged_cfg.finalist_target as u64);
                    staged_prune(&cand_train, &all_candidates, &staged_cfg, par).map(
                        |(finalists, rep)| {
                            g.counter("rungs", rep.rungs.len() as u64);
                            g.counter("rows_scored", rep.rows_scored());
                            g.counter("short_circuited", rep.short_circuited as u64);
                            if let Some(last) = rep.rungs.last() {
                                g.counter("final_sample_rows", last.sample_rows as u64);
                            }
                            g.set_flow(n_candidates as u64, finalists.len() as u64);
                            finalists
                        },
                    )
                };
                match staged_result {
                    Ok(f) => Some(f),
                    Err(p) => {
                        return degraded(
                            "staged-prune",
                            SafeError::worker_panic("staged-prune", p).chain_string(),
                        )
                    }
                }
            }
        };
        // The pool the exact stages see: everything (Exact) or the
        // staged finalists (Staged). Finalist column selection keeps
        // names and values, so the stats/bin caches stay valid.
        let staged_train: Dataset;
        let staged_valid: Option<Dataset>;
        let (sel_train, sel_valid): (&Dataset, Option<&Dataset>) = match &staged_finalists {
            None => (&cand_train, cand_valid.as_ref()),
            Some(finalists) => {
                staged_train = match cand_train.select_columns(finalists) {
                    Ok(ds) => ds,
                    Err(e) => return degraded("staged-prune", e.to_string()),
                };
                staged_valid = match &cand_valid {
                    Some(v) => match v.select_columns(finalists) {
                        Ok(ds) => Some(ds),
                        Err(e) => return degraded("staged-prune", e.to_string()),
                    },
                    None => None,
                };
                (&staged_train, staged_valid.as_ref())
            }
        };
        let n_pool = sel_train.n_cols();

        // --- feature selection (Section IV-C) --------------------------
        let iv_result = {
            let mut g = rb.stage(stages::IV_FILTER);
            g.counter("threads", par.resolve() as u64);
            let cache = &mut state.stats_cache;
            let (h0, m0) = (cache.iv_hits(), cache.iv_misses());
            let (alpha, beta) = (self.config.alpha, self.config.beta);
            iv_filter_cached(sel_train, alpha, beta, par, Some(cache)).map(|survivors| {
                g.counter("cache_iv_hits", state.stats_cache.iv_hits() - h0);
                g.counter("cache_iv_misses", state.stats_cache.iv_misses() - m0);
                g.counter("dropped_alpha", (n_pool - survivors.len()) as u64);
                g.set_flow(n_pool as u64, survivors.len() as u64);
                survivors
            })
        };
        let iv_survivors = match iv_result {
            Ok(s) => s,
            Err(p) => {
                return degraded("iv-filter", SafeError::worker_panic("iv-filter", p).chain_string())
            }
        };
        let n_after_iv = iv_survivors.len();
        if iv_survivors.is_empty() {
            // Nothing clears α: keep the current feature set and stop —
            // models need at least one column.
            return IterationEnd::Degraded {
                stage: "iv-filter",
                reason: "no candidate cleared the IV threshold α".into(),
                funnel: Some(Funnel {
                    n_combinations,
                    n_combinations_kept: n_kept,
                    n_generated,
                    n_candidates,
                    n_after_iv,
                    n_after_redundancy: 0,
                }),
            };
        }
        let kept_result: Result<Vec<usize>, String> = {
            let mut g = rb.stage(stages::REDUNDANCY);
            g.counter("threads", par.resolve() as u64);
            let scanned = match self.config.selection {
                // Exact: f64 Pearson over full columns, through the
                // cross-iteration stats cache.
                SelectionMode::Exact => {
                    let cache = &mut state.stats_cache;
                    let (h0, m0) = (cache.pearson_hits(), cache.pearson_misses());
                    let theta = self.config.theta;
                    redundancy_filter_cached(sel_train, &iv_survivors, theta, par, Some(cache))
                        .map(|res| {
                            let cache = &state.stats_cache;
                            g.counter("cache_pearson_hits", cache.pearson_hits() - h0);
                            g.counter("cache_pearson_misses", cache.pearson_misses() - m0);
                            res
                        })
                        .map_err(|p| SafeError::worker_panic("redundancy", p).chain_string())
                }
                // Staged: integer co-occurrence kernel over u16 bin
                // columns at the ranker's bin budget, shared with the
                // rank-topk booster through the bin cache. Binned ρ is
                // not bitwise-equal to exact ρ, so the f64 stats cache
                // is deliberately not consulted.
                SelectionMode::Staged => {
                    g.counter("binned", 1);
                    redundancy_filter_binned(
                        sel_train,
                        &iv_survivors,
                        self.config.theta,
                        self.config.ranker.max_bins,
                        par,
                        &mut state.bin_cache,
                    )
                    .map_err(|e| e.to_string())
                }
            };
            scanned.map(|(kept, pairs)| {
                g.counter("pairs_compared", pairs);
                g.counter("dropped_theta", (n_after_iv - kept.len()) as u64);
                g.set_flow(n_after_iv as u64, kept.len() as u64);
                kept
            })
        };
        let kept = match kept_result {
            Ok(k) => k,
            Err(reason) => return degraded("redundancy", reason),
        };
        let n_after_redundancy = kept.len();

        let rank_result = {
            let mut g = rb.stage(stages::RANK_TOPK);
            g.counter("threads", self.config.ranker.parallelism.resolve() as u64);
            // Staged fast path: when the cap cannot bind, the ranking
            // booster decides nothing — every survivor is selected
            // regardless of gain order — so staged mode skips the
            // retrain and keeps the redundancy scan's descending-IV
            // order. Exact mode always ranks: its plan (including
            // output order) is pinned bit-identical to the seed
            // pipeline.
            if self.config.selection == SelectionMode::Staged && kept.len() <= cap {
                g.counter("skipped_cap_unbound", 1);
                g.set_flow(n_after_redundancy as u64, kept.len() as u64);
                Ok(kept.clone())
            } else {
                rank_and_cap_cached(
                    sel_train,
                    sel_valid,
                    &kept,
                    &self.config.ranker,
                    cap,
                    Some(&mut state.bin_cache),
                    g.sink(),
                    g.iteration(),
                )
                .map(|(idx, stats)| {
                    absorb_gbm_stats(&mut g, &stats);
                    g.set_flow(n_after_redundancy as u64, idx.len() as u64);
                    idx
                })
            }
        };
        let selected_idx = match rank_result {
            Ok(idx) => idx,
            Err(source) => {
                let e = SafeError::Gbm { iteration, stage: "rank", source };
                return degraded("rank", e.chain_string());
            }
        };
        if selected_idx.is_empty() {
            return degraded("rank", "ranking selected no features".into());
        }
        // Staged rank indices point into the finalist subset; map them
        // back to candidate-pool indices for plan assembly and the
        // next iteration's column selection.
        let selected_idx: Vec<usize> = match &staged_finalists {
            None => selected_idx,
            Some(finalists) => selected_idx.iter().map(|&i| finalists[i]).collect(),
        };
        let selected: Vec<String> = selected_idx
            .iter()
            .filter_map(|&i| cand_train.meta().get(i).map(|m| m.name.clone()))
            .collect();

        // Converged: the selected set did not change.
        let prev_names: HashSet<&str> = state.train.feature_names().into_iter().collect();
        let converged = selected.iter().map(String::as_str).collect::<HashSet<_>>() == prev_names;
        state.train = match cand_train.select_columns(&selected_idx) {
            Ok(ds) => ds,
            Err(e) => return degraded("select", e.to_string()),
        };
        if let Some(v) = cand_valid {
            state.valid = match v.select_columns(&selected_idx) {
                Ok(ds) => Some(ds),
                Err(e) => return degraded("select", e.to_string()),
            };
        }
        IterationEnd::Completed {
            funnel: Funnel {
                n_combinations,
                n_combinations_kept: n_kept,
                n_generated,
                n_candidates,
                n_after_iv,
                n_after_redundancy,
            },
            selected,
            converged,
        }
    }

    /// Close an iteration however it ended, in one place: record its
    /// warning (degraded, skipped) or waterfall (completed), push the
    /// [`IterationReport`] and plan snapshot, end the iteration span,
    /// choose the [`Terminal`], and persist the checkpoint. Returns whether
    /// the loop stops here.
    ///
    /// Terminal snapshots always persist (resume must be able to
    /// reconstruct a finished run); mid-run ones honor the
    /// `checkpoint_every` stride. The two kill failpoints bracket the save
    /// of a completed iteration to simulate a process dying just
    /// before/after durability: the `Err` return stands in for the process
    /// vanishing mid-fit (test-only, feature-gated — a documented exception
    /// to the degradation policy).
    fn close_iteration(
        &self,
        state: &mut LoopState,
        end: IterationEnd,
        iteration: usize,
        iter_start: Instant,
        run_elapsed_us: u64,
        rb: &mut ReportBuilder<'_>,
    ) -> Result<bool, SafeError> {
        // A degraded or skipped iteration keeps the working feature set.
        let carried = Funnel { n_candidates: state.train.n_cols(), ..Funnel::default() };
        let (funnel, selected, status, terminal) = match end {
            IterationEnd::Completed { funnel, selected, converged } => {
                rb.set_waterfall(Waterfall {
                    generated: funnel.n_generated as u64,
                    candidates: funnel.n_candidates as u64,
                    post_iv: funnel.n_after_iv as u64,
                    post_redundancy: funnel.n_after_redundancy as u64,
                    selected: selected.len() as u64,
                });
                let terminal = if converged {
                    Terminal::Converged
                } else if iteration + 1 == self.config.n_iterations {
                    Terminal::ItersExhausted
                } else {
                    Terminal::Running
                };
                (funnel, selected, IterationStatus::Completed, terminal)
            }
            IterationEnd::Degraded { stage, reason, funnel } => {
                rb.warn(stage, "degraded", &reason);
                let status = IterationStatus::Degraded { stage, reason };
                let selected = feature_name_vec(&state.train);
                (funnel.unwrap_or(carried), selected, status, Terminal::Degraded)
            }
            IterationEnd::Skipped => {
                let reason = "time budget exhausted";
                rb.warn(stages::ITERATION, "skipped", reason);
                let status = IterationStatus::Skipped { reason: reason.into() };
                (carried, feature_name_vec(&state.train), status, Terminal::Skipped)
            }
        };
        let iter_us = iter_start.elapsed().as_micros() as u64;
        let (label, elapsed_us) = match status {
            IterationStatus::Completed => ("completed", iter_us),
            IterationStatus::Degraded { .. } => ("degraded", iter_us),
            IterationStatus::Skipped { .. } => ("skipped", 0),
        };
        let completed = status == IterationStatus::Completed;
        state.plans.push(build_plan(&state.original_names, &state.catalog, &selected));
        state.history.push(IterationReport {
            iteration,
            n_combinations: funnel.n_combinations,
            n_combinations_kept: funnel.n_combinations_kept,
            n_generated: funnel.n_generated,
            n_candidates: funnel.n_candidates,
            n_after_iv: funnel.n_after_iv,
            n_after_redundancy: funnel.n_after_redundancy,
            n_selected: selected.len(),
            selected,
            elapsed_us,
            status,
        });
        rb.end_iteration(label);

        if completed {
            safe_data::failpoint!(
                "ckpt/kill-before-save",
                SafeError::Checkpoint("injected: ckpt/kill-before-save (simulated crash)".into())
            );
        }
        let due = terminal.is_final()
            || state.history.len().is_multiple_of(self.config.checkpoint_every);
        if let (Some(dir), true) = (&self.config.checkpoint_dir, due) {
            self.write_checkpoint(dir, state, rb.snapshot(), terminal, run_elapsed_us, iteration);
        }
        if completed {
            safe_data::failpoint!(
                "ckpt/kill-after-save",
                SafeError::Checkpoint("injected: ckpt/kill-after-save (simulated crash)".into())
            );
        }
        Ok(terminal.is_final())
    }

    /// Produce (total mined, ranked-top-γ) combinations per the configured
    /// strategy, instrumenting the miner training (`gbm-train`), path/pool
    /// extraction (`path-extract`), and gain-ratio ranking (`rank-combos`)
    /// stages. The random strategies have no ranking stage; the all-features
    /// strategy has no miner either.
    fn make_combinations(
        &self,
        train: &Dataset,
        valid: &Option<Dataset>,
        iteration: usize,
        bin_cache: &mut BinCache,
        rb: &mut ReportBuilder<'_>,
    ) -> Result<(usize, Vec<Combination>), SafeError> {
        let max_arity = self.config.operators.max_arity().max(1);
        let seed = self
            .config
            .seed
            .wrapping_add(iteration as u64)
            .wrapping_mul(0x9E3779B97F4A7C15);
        let mine_err = |source| SafeError::Gbm { iteration, stage: "mine", source };
        match self.config.strategy {
            GenerationStrategy::Mined => {
                let model = self.fit_miner(train, valid, bin_cache, rb).map_err(mine_err)?;
                let combos = {
                    let mut g = rb.stage(stages::PATH_EXTRACT);
                    let n_paths = model.paths().len();
                    let combos = mine_combinations(&model, max_arity);
                    g.counter("paths_found", n_paths as u64);
                    g.counter("combinations_extracted", combos.len() as u64);
                    g.set_flow(n_paths as u64, combos.len() as u64);
                    combos
                };
                let total = combos.len();
                let rank_result = {
                    let mut g = rb.stage(stages::RANK_COMBOS);
                    g.counter("threads", self.config.parallelism.resolve() as u64);
                    let par = self.config.parallelism;
                    rank_combinations_observed(combos, train, self.config.gamma, par).map(
                        |(ranked, stats)| {
                            g.counter("candidates_in", stats.candidates_in);
                            g.counter("cells_evaluated", stats.cells_evaluated);
                            g.counter("gamma_truncated", stats.gamma_truncated);
                            g.set_flow(stats.candidates_in, ranked.len() as u64);
                            ranked
                        },
                    )
                };
                let ranked =
                    rank_result.map_err(|p| SafeError::worker_panic("rank-combos", p))?;
                Ok((total, ranked))
            }
            GenerationStrategy::RandomSplitFeatures => {
                let model = self.fit_miner(train, valid, bin_cache, rb).map_err(mine_err)?;
                let combos = {
                    let mut g = rb.stage(stages::PATH_EXTRACT);
                    let mut pool = model.split_features();
                    if pool.is_empty() {
                        pool = (0..train.n_cols()).collect();
                    }
                    let combos = random_combinations(&pool, self.config.gamma, max_arity, seed);
                    g.counter("combinations_extracted", combos.len() as u64);
                    g.set_flow(pool.len() as u64, combos.len() as u64);
                    combos
                };
                let total = combos.len();
                Ok((total, combos))
            }
            GenerationStrategy::RandomAllFeatures => {
                let mut g = rb.stage(stages::PATH_EXTRACT);
                let pool: Vec<usize> = (0..train.n_cols()).collect();
                let combos = random_combinations(&pool, self.config.gamma, max_arity, seed);
                g.counter("combinations_extracted", combos.len() as u64);
                g.set_flow(pool.len() as u64, combos.len() as u64);
                let total = combos.len();
                Ok((total, combos))
            }
        }
    }


    /// Train the combination-mining booster under a `gbm-train` span.
    fn fit_miner(
        &self,
        train: &Dataset,
        valid: &Option<Dataset>,
        cache: &mut BinCache,
        rb: &mut ReportBuilder<'_>,
    ) -> Result<safe_gbm::booster::GbmModel, safe_gbm::GbmError> {
        let mut g = rb.stage(stages::GBM_TRAIN);
        g.counter("threads", self.config.miner.parallelism.resolve() as u64);
        let result = Gbm::new(self.config.miner.clone()).fit_cached_observed(
            train,
            valid.as_ref(),
            Some(cache),
            g.sink(),
            stages::GBM_TRAIN,
            g.iteration(),
        );
        result.map(|(model, stats)| {
            absorb_gbm_stats(&mut g, &stats);
            model
        })
    }

    /// Persist a durable checkpoint after a closed iteration under a
    /// sink-only `checkpoint` span with `ckpt_bytes`/`ckpt_iterations`
    /// counters.
    ///
    /// The span is deliberately NOT recorded in the `RunReport`: the report
    /// embedded in the snapshot must match the uninterrupted run's, and a
    /// resumed run replays no checkpoint spans for its first segment. For
    /// the same reason a failed save degrades *durability*, not training —
    /// the error surfaces as a sink warning and the loop carries on.
    fn write_checkpoint(
        &self,
        dir: &Path,
        state: &LoopState,
        report: RunReport,
        terminal: Terminal,
        elapsed_us: u64,
        iteration: usize,
    ) {
        let sink = self.config.sink.as_dyn();
        let t0 = Instant::now();
        sink.stage_start(stages::CHECKPOINT, Some(iteration));
        let ckpt = Checkpoint {
            fingerprint: ConfigFingerprint::of(&self.config),
            iterations_done: state.history.len(),
            terminal,
            elapsed_us,
            history: state.history.clone(),
            plans: state.plans.clone(),
            report,
            bin_keys: state.bin_cache.keys(),
            iv_entries: state.stats_cache.iv_len(),
            pearson_entries: state.stats_cache.pearson_len(),
        };
        let save_t0 = Instant::now();
        let saved = CheckpointStore::new(dir).save(&ckpt);
        let save_us = save_t0.elapsed().as_micros() as u64;
        match saved {
            Ok(bytes) => {
                sink.counter(stages::CHECKPOINT, Some(iteration), "ckpt_bytes", bytes);
                sink.counter(
                    stages::CHECKPOINT,
                    Some(iteration),
                    "ckpt_iterations",
                    ckpt.iterations_done as u64,
                );
                // Sink-only latency observation, same contract as the span:
                // feeds the ckpt_write_us histogram, never the report.
                sink.observe(stages::CHECKPOINT, Some(iteration), "ckpt_write_us", save_us);
            }
            Err(e) => {
                sink.warn(
                    stages::CHECKPOINT,
                    Some(iteration),
                    "ckpt-save-failed",
                    &format!("checkpoint save failed (training continues): {e}"),
                );
            }
        }
        sink.stage_end(
            stages::CHECKPOINT,
            Some(iteration),
            t0.elapsed().as_micros() as u64,
        );
    }
}

/// Funnel counts an iteration reached before it ended (the count fields of
/// its [`IterationReport`]).
#[derive(Debug, Clone, Copy, Default)]
struct Funnel {
    n_combinations: usize,
    n_combinations_kept: usize,
    n_generated: usize,
    n_candidates: usize,
    n_after_iv: usize,
    n_after_redundancy: usize,
}

/// How [`Safe::iterate`] ended an iteration; [`Safe::close_iteration`]
/// turns it into the history entry, plan snapshot, and checkpoint.
enum IterationEnd {
    /// The funnel ran to completion; `converged` when the selection equals
    /// the feature set the iteration started from.
    Completed {
        funnel: Funnel,
        selected: Vec<String>,
        converged: bool,
    },
    /// `stage` failed and the working feature set is kept. `funnel` holds
    /// the counts the iteration reached, or `None` when it failed before
    /// they were recorded (the report then counts only the carried set).
    Degraded {
        stage: &'static str,
        reason: String,
        funnel: Option<Funnel>,
    },
    /// The time budget was spent before the iteration began.
    Skipped,
}

/// A stage failure that happened before the funnel counts were recorded.
fn degraded(stage: &'static str, reason: String) -> IterationEnd {
    IterationEnd::Degraded { stage, reason, funnel: None }
}

/// What one iteration hands to the next.
struct LoopState {
    /// The audited input schema every plan snapshot is assembled over.
    original_names: Vec<String>,
    /// The working feature set X (and its validation twin).
    train: Dataset,
    valid: Option<Dataset>,
    /// Every generated feature ever defined, for transitive plan assembly.
    catalog: BTreeMap<String, PlanStep>,
    /// Cross-iteration caches (see `crate::cache`): binned columns for the
    /// miner/ranker boosters, finalized IV/Pearson values for the selection
    /// stages. Column names are stable provenance, so entries stay valid
    /// for every column that survives an iteration, and results are
    /// bit-identical to recomputation.
    bin_cache: BinCache,
    stats_cache: StatsCache,
    history: Vec<IterationReport>,
    plans: Vec<FeaturePlan>,
}

impl LoopState {
    fn new(original_names: Vec<String>, train: Dataset, valid: Option<Dataset>) -> LoopState {
        LoopState {
            original_names,
            train,
            valid,
            catalog: BTreeMap::new(),
            bin_cache: BinCache::new(),
            stats_cache: StatsCache::new(),
            history: Vec::new(),
            plans: Vec::new(),
        }
    }
}

/// Record the booster counters [`Gbm::fit_cached_observed`] already emitted
/// through the sink into the stage's report entry (in the same order),
/// without re-emitting them.
fn absorb_gbm_stats(g: &mut StageGuard<'_, '_>, stats: &safe_gbm::GbmFitStats) {
    g.absorb("gbm_rounds", stats.rounds_run);
    g.absorb("gbm_trees", stats.trees_kept);
    g.absorb("histogram_builds", stats.grow.histogram_builds);
    g.absorb("histogram_subtractions", stats.grow.histogram_subtractions);
    g.absorb("nodes_grown", stats.grow.total_nodes());
    for (depth, &n) in stats.grow.nodes_per_depth.iter().enumerate() {
        g.absorb(&format!("nodes_depth{depth}"), n);
    }
    g.absorb("cache_bin_hits", stats.cache_bin_hits);
    g.absorb("cache_bin_misses", stats.cache_bin_misses);
}

/// Chunked fits close with a run-level backend summary: chunk-cache
/// traffic and the resident high-water mark against the configured budget.
/// Cache traffic depends on worker interleaving, so every `oocore_*`
/// counter — and the stage itself — is excluded from
/// `RunReport::structural_eq` (a spilled run stays structurally equal to
/// its resident twin).
fn oocore_summary(train: &Dataset, rb: &mut ReportBuilder<'_>) {
    let mut g = rb.stage(stages::OOCORE);
    let stores = train.chunk_stores();
    g.counter("oocore_stores", stores.len() as u64);
    let (mut hits, mut loads, mut evictions, mut peak, mut budget, mut table) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for store in stores {
        let stats = store.stats();
        hits += stats.hits;
        loads += stats.loads;
        evictions += stats.evictions;
        peak += stats.peak_resident_bytes;
        budget += store.budget_bytes().unwrap_or_else(|| store.table_bytes());
        table += store.table_bytes();
    }
    g.counter("oocore_chunk_hits", hits);
    g.counter("oocore_chunk_loads", loads);
    g.counter("oocore_evictions", evictions);
    g.counter("oocore_peak_resident_bytes", peak);
    g.counter("oocore_budget_bytes", budget);
    g.counter("oocore_table_bytes", table);
}

/// Current feature names as owned strings.
fn feature_name_vec(ds: &Dataset) -> Vec<String> {
    ds.feature_names().iter().map(|s| s.to_string()).collect()
}

/// The plan a run returns: the last iteration's snapshot, or the identity
/// plan over the original schema when no iteration was recorded.
fn final_plan(plans: &[FeaturePlan], original_names: &[String]) -> FeaturePlan {
    plans.last().cloned().unwrap_or_else(|| FeaturePlan {
        input_names: original_names.to_vec(),
        steps: Vec::new(),
        outputs: original_names.to_vec(),
    })
}

/// Assemble a plan for the selected feature names: inputs are the original
/// schema; steps are the transitive closure of catalog entries the outputs
/// depend on, in dependency order.
fn build_plan(
    original_names: &[String],
    catalog: &BTreeMap<String, PlanStep>,
    selected: &[String],
) -> FeaturePlan {
    let mut ordered: Vec<PlanStep> = Vec::new();
    let mut visited: HashSet<String> = HashSet::new();

    fn visit(
        name: &str,
        catalog: &BTreeMap<String, PlanStep>,
        visited: &mut HashSet<String>,
        ordered: &mut Vec<PlanStep>,
    ) {
        if visited.contains(name) {
            return;
        }
        visited.insert(name.to_string());
        if let Some(step) = catalog.get(name) {
            for p in &step.parents {
                visit(p, catalog, visited, ordered);
            }
            ordered.push(step.clone());
        }
        // Names absent from the catalog are original inputs: no step needed.
    }

    for name in selected {
        visit(name, catalog, &mut visited, &mut ordered);
    }
    FeaturePlan {
        input_names: original_names.to_vec(),
        steps: ordered,
        outputs: selected.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use std::time::Duration;
    use rand::{Rng, SeedableRng};
    use safe_data::{AuditConfig, AuditPolicy};
    use safe_stats::auc::auc;

    /// Data whose label depends on the *product* of two features plus one
    /// marginally-informative feature and noise columns — the situation
    /// SAFE's generation stage is built for.
    fn interaction_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cols = vec![Vec::with_capacity(n); 5];
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let a: f64 = rng.gen_range(-1.0..1.0);
            let b: f64 = rng.gen_range(-1.0..1.0);
            let c: f64 = rng.gen_range(-1.0..1.0);
            let n1: f64 = rng.gen_range(-1.0..1.0);
            let n2: f64 = rng.gen_range(-1.0..1.0);
            cols[0].push(a);
            cols[1].push(b);
            cols[2].push(c);
            cols[3].push(n1);
            cols[4].push(n2);
            let score = 3.0 * a * b + 0.5 * c + rng.gen_range(-0.2..0.2);
            labels.push((score > 0.0) as u8);
        }
        Dataset::from_columns(
            vec!["a".into(), "b".into(), "c".into(), "n1".into(), "n2".into()],
            cols,
            Some(labels),
        )
        .unwrap()
    }

    #[test]
    fn end_to_end_improves_gbm_auc() {
        let train = interaction_data(1500, 1);
        let test = interaction_data(700, 2);
        let outcome = Safe::paper().fit(&train, None).unwrap();
        assert!(!outcome.history.is_empty());

        let train_new = outcome.plan.apply(&train).unwrap();
        let test_new = outcome.plan.apply(&test).unwrap();

        let cfg = safe_gbm::config::GbmConfig { n_rounds: 40, ..Default::default() };
        let base = Gbm::new(cfg.clone()).fit(&train, None).unwrap();
        let engineered = Gbm::new(cfg).fit(&train_new, None).unwrap();
        let auc_base = auc(&base.predict(&test), test.labels().unwrap());
        let auc_new = auc(&engineered.predict(&test_new), test_new.labels().unwrap());
        // On product-interaction data the mul feature is a direct shortcut;
        // allow a tiny tolerance for unlucky seeds but expect improvement.
        assert!(
            auc_new >= auc_base - 0.005,
            "engineered {auc_new} should not lose to base {auc_base}"
        );
    }

    #[test]
    fn discovers_the_product_feature() {
        let train = interaction_data(1500, 3);
        let outcome = Safe::paper().fit(&train, None).unwrap();
        let has_ab_product = outcome
            .plan
            .outputs
            .iter()
            .any(|n| n == "mul(a,b)" || n == "mul(b,a)" || n == "div(a,b)" || n == "div(b,a)");
        assert!(
            has_ab_product,
            "expected an (a,b) arithmetic feature among {:?}",
            outcome.plan.outputs
        );
    }

    #[test]
    fn output_respects_cap() {
        let train = interaction_data(800, 4);
        let outcome = Safe::paper().fit(&train, None).unwrap();
        assert!(outcome.plan.outputs.len() <= 2 * train.n_cols());
        let last = outcome.history.last().unwrap();
        assert_eq!(last.n_selected, outcome.plan.outputs.len());
        assert_eq!(last.status, IterationStatus::Completed);
    }

    #[test]
    fn funnel_counts_are_monotone() {
        let train = interaction_data(800, 5);
        let outcome = Safe::paper().fit(&train, None).unwrap();
        for r in &outcome.history {
            assert!(r.n_after_iv <= r.n_candidates);
            assert!(r.n_after_redundancy <= r.n_after_iv.max(1));
            assert!(r.n_selected <= r.n_after_redundancy.max(r.n_selected));
            assert!(r.n_combinations_kept <= r.n_combinations.max(r.n_combinations_kept));
        }
    }

    #[test]
    fn plan_replay_reproduces_training_columns() {
        let train = interaction_data(600, 6);
        let outcome = Safe::paper().fit(&train, None).unwrap();
        let replayed = outcome.plan.apply(&train).unwrap();
        // Serialize → parse → apply must agree exactly with direct apply.
        let text = outcome.plan.to_text();
        let reparsed = FeaturePlan::from_text(&text).unwrap();
        let replayed2 = reparsed.apply(&train).unwrap();
        assert_eq!(replayed.n_cols(), replayed2.n_cols());
        for c in 0..replayed.n_cols() {
            let x = replayed.column(c).unwrap();
            let y = replayed2.column(c).unwrap();
            for (a, b) in x.iter().zip(y) {
                assert!(a == b || (a.is_nan() && b.is_nan()));
            }
        }
    }

    #[test]
    fn rand_and_imp_share_the_selection_pipeline() {
        let train = interaction_data(800, 7);
        for config in [SafeConfig::rand_baseline(1), SafeConfig::imp_baseline(1)] {
            let outcome = Safe::new(config).fit(&train, None).unwrap();
            assert!(!outcome.plan.outputs.is_empty());
            assert!(outcome.plan.outputs.len() <= 2 * train.n_cols());
        }
    }

    #[test]
    fn multiple_iterations_accumulate_history() {
        let train = interaction_data(600, 8);
        let config = SafeConfig {
            n_iterations: 3,
            ..SafeConfig::paper()
        };
        let outcome = Safe::new(config).fit(&train, None).unwrap();
        assert!(outcome.history.len() <= 3);
        assert_eq!(outcome.history.len(), outcome.plans_per_iteration.len());
        // Iteration indices are sequential.
        for (i, r) in outcome.history.iter().enumerate() {
            assert_eq!(r.iteration, i);
        }
    }

    #[test]
    fn time_budget_stops_the_loop() {
        let train = interaction_data(600, 9);
        let config = SafeConfig {
            n_iterations: 0,
            time_budget: Some(Duration::from_millis(1)),
            ..SafeConfig::paper()
        };
        // With a 1ms budget the loop must exit almost immediately; the
        // iteration that hits the exhausted budget is recorded as skipped
        // and a usable plan still comes back.
        let outcome = Safe::new(config).fit(&train, None).unwrap();
        assert!(!outcome.history.is_empty());
        let last = outcome.history.last().unwrap();
        assert!(
            matches!(last.status, IterationStatus::Skipped { .. }),
            "budget exhaustion must be recorded: {:?}",
            last.status
        );
        assert_eq!(outcome.history.len(), outcome.plans_per_iteration.len());
        assert!(!outcome.plan.outputs.is_empty(), "identity plan fallback");
    }

    #[test]
    fn unlabeled_data_rejected() {
        let ds = Dataset::from_columns(vec!["x".into()], vec![vec![1.0, 2.0]], None).unwrap();
        assert!(matches!(
            Safe::paper().fit(&ds, None).unwrap_err(),
            SafeError::Data(_)
        ));
    }

    #[test]
    fn deterministic_under_seed() {
        let train = interaction_data(600, 10);
        let a = Safe::new(SafeConfig { seed: 3, ..SafeConfig::paper() })
            .fit(&train, None)
            .unwrap();
        let b = Safe::new(SafeConfig { seed: 3, ..SafeConfig::paper() })
            .fit(&train, None)
            .unwrap();
        assert_eq!(a.plan, b.plan);
    }

    /// Regression: an empty IV survivor set at iteration 0 used to reach
    /// `history.last().unwrap()` with an empty history and panic. It must
    /// now degrade to the identity plan.
    #[test]
    fn empty_iv_survivors_at_iteration_zero_degrades_gracefully() {
        let train = interaction_data(300, 11);
        let config = SafeConfig {
            alpha: f64::MAX, // nothing can clear this threshold
            ..SafeConfig::paper()
        };
        let outcome = Safe::new(config).fit(&train, None).unwrap();
        assert_eq!(outcome.history.len(), 1);
        assert!(matches!(
            outcome.history[0].status,
            IterationStatus::Degraded { stage: "iv-filter", .. }
        ));
        assert_eq!(outcome.history.len(), outcome.plans_per_iteration.len());
        // Fallback = identity over the original schema.
        assert_eq!(outcome.plan.outputs.len(), train.n_cols());
        assert!(outcome.plan.steps.is_empty());
    }

    #[test]
    fn audit_rejects_single_class_labels() {
        let ds = Dataset::from_columns(
            vec!["x".into()],
            vec![(0..100).map(|i| i as f64).collect()],
            Some(vec![0; 100]),
        )
        .unwrap();
        assert!(matches!(
            Safe::paper().fit(&ds, None).unwrap_err(),
            SafeError::Audit(_)
        ));
    }

    #[test]
    fn audit_repair_drops_constant_columns() {
        let mut train = interaction_data(400, 12);
        train
            .push_column(FeatureMeta::original("konst"), vec![7.0; 400])
            .unwrap();
        let config = SafeConfig {
            audit: AuditConfig { policy: AuditPolicy::Repair, ..AuditConfig::default() },
            ..SafeConfig::paper()
        };
        let outcome = Safe::new(config).fit(&train, None).unwrap();
        assert!(!outcome.audit.actions.is_empty(), "repair must be recorded");
        assert!(
            !outcome.plan.input_names.iter().any(|n| n == "konst"),
            "repaired schema excludes the constant column"
        );
    }

    #[test]
    fn audit_warn_policy_records_without_modifying() {
        let mut train = interaction_data(400, 13);
        train
            .push_column(FeatureMeta::original("konst"), vec![7.0; 400])
            .unwrap();
        let outcome = Safe::paper().fit(&train, None).unwrap(); // default: Warn
        assert!(outcome.audit.actions.is_empty());
        assert!(!outcome.audit.findings.is_empty(), "finding must be recorded");
        // Every finding also surfaces as an `audit` warning in the report.
        for finding in &outcome.audit.findings {
            assert!(outcome.report.warnings.iter().any(|w| w.stage == "audit"
                && w.code == finding.code()
                && w.message == finding.to_string()));
        }
        assert!(
            outcome.plan.input_names.iter().any(|n| n == "konst"),
            "warn policy leaves the schema untouched"
        );
    }

    #[test]
    fn build_plan_pulls_transitive_dependencies() {
        let mut catalog = BTreeMap::new();
        catalog.insert(
            "mul(a,b)".to_string(),
            PlanStep {
                name: "mul(a,b)".into(),
                op: "mul".into(),
                parents: vec!["a".into(), "b".into()],
                params: vec![],
            },
        );
        catalog.insert(
            "log(mul(a,b))".to_string(),
            PlanStep {
                name: "log(mul(a,b))".into(),
                op: "log".into(),
                parents: vec!["mul(a,b)".into()],
                params: vec![],
            },
        );
        let plan = build_plan(
            &["a".into(), "b".into()],
            &catalog,
            &["log(mul(a,b))".to_string()],
        );
        // Selecting only the outer feature must still pull in the inner step.
        assert_eq!(plan.steps.len(), 2);
        assert_eq!(plan.steps[0].name, "mul(a,b)");
        assert_eq!(plan.steps[1].name, "log(mul(a,b))");
        assert!(plan.validate().is_ok());
    }

    /// Fresh per-test checkpoint directory under the system temp dir.
    fn temp_ckpt_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("safe_fit_ckpt_tests")
            .join(format!("{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ckpt_config(dir: &std::path::Path) -> SafeConfig {
        SafeConfig {
            seed: 5,
            n_iterations: 2,
            checkpoint_dir: Some(dir.to_path_buf()),
            ..SafeConfig::paper()
        }
    }

    fn assert_same_outcome(a: &SafeOutcome, b: &SafeOutcome) {
        assert_eq!(a.plan.to_text(), b.plan.to_text());
        assert_eq!(a.history.len(), b.history.len());
        for (x, y) in a.history.iter().zip(&b.history) {
            assert!(x.structural_eq(y), "history diverged at iter {}", x.iteration);
        }
        let a_plans: Vec<String> = a.plans_per_iteration.iter().map(|p| p.to_text()).collect();
        let b_plans: Vec<String> = b.plans_per_iteration.iter().map(|p| p.to_text()).collect();
        assert_eq!(a_plans, b_plans);
        assert!(a.report.structural_eq(&b.report), "reports diverged");
    }

    #[test]
    fn checkpointed_fit_persists_and_resume_of_a_finished_run_is_idempotent() {
        let dir = temp_ckpt_dir("finished");
        let train = interaction_data(600, 21);
        let safe = Safe::new(ckpt_config(&dir));
        let done = safe.fit(&train, None).unwrap();

        let store = CheckpointStore::new(dir.clone());
        let files = store.list().unwrap();
        assert!(!files.is_empty(), "fit must leave checkpoints behind");
        let latest = store.load_latest().unwrap().checkpoint.unwrap();
        assert!(latest.terminal.is_final(), "last snapshot must be terminal");
        assert_eq!(latest.iterations_done, done.history.len());

        // Resuming a finished run reconstructs the outcome, no re-training.
        let again = safe.fit_resumed(&train, None).unwrap();
        assert_same_outcome(&done, &again);
    }

    #[test]
    fn resume_after_losing_the_last_checkpoint_matches_the_uninterrupted_run() {
        let train = interaction_data(600, 22);
        let base_dir = temp_ckpt_dir("uninterrupted");
        let baseline = Safe::new(ckpt_config(&base_dir)).fit(&train, None).unwrap();
        assert!(baseline.history.len() >= 2, "need a multi-iteration run");

        // Simulate a crash between iterations 1 and 2: run again into a
        // second directory, then delete everything after the first snapshot.
        let crash_dir = temp_ckpt_dir("crashed");
        let safe = Safe::new(ckpt_config(&crash_dir));
        safe.fit(&train, None).unwrap();
        let store = CheckpointStore::new(crash_dir.clone());
        for path in store.list().unwrap() {
            if path != store.path_for(1) {
                std::fs::remove_file(path).unwrap();
            }
        }
        assert_eq!(store.list().unwrap().len(), 1);

        let resumed = safe.fit_resumed(&train, None).unwrap();
        assert_same_outcome(&baseline, &resumed);
        // The resumed segment writes its own snapshots; the latest is final.
        let latest = store.load_latest().unwrap().checkpoint.unwrap();
        assert!(latest.terminal.is_final());
    }

    #[test]
    fn fit_resumed_rejects_missing_configuration_and_directory() {
        let train = interaction_data(200, 23);
        // No checkpoint_dir configured.
        let err = Safe::new(SafeConfig::paper()).fit_resumed(&train, None).unwrap_err();
        assert!(matches!(err, SafeError::Checkpoint(_)), "{err}");
        // Directory does not exist.
        let gone = std::env::temp_dir().join("safe_fit_ckpt_tests/definitely_absent_xyz");
        let _ = std::fs::remove_dir_all(&gone);
        let err = Safe::new(SafeConfig {
            checkpoint_dir: Some(gone.clone()),
            ..SafeConfig::paper()
        })
        .fit_resumed(&train, None)
        .unwrap_err();
        assert!(matches!(err, SafeError::Checkpoint(_)), "{err}");
    }

    #[test]
    fn fit_resumed_rejects_a_fingerprint_mismatch() {
        let dir = temp_ckpt_dir("fingerprint");
        let train = interaction_data(400, 24);
        Safe::new(ckpt_config(&dir)).fit(&train, None).unwrap();
        // Same directory, different seed: resuming could not be
        // bit-identical, so it must be refused.
        let other = Safe::new(SafeConfig { seed: 6, ..ckpt_config(&dir) });
        let err = other.fit_resumed(&train, None).unwrap_err();
        assert!(matches!(err, SafeError::Checkpoint(_)), "{err}");
    }

    #[test]
    fn checkpoint_every_gates_mid_run_snapshots_but_not_terminal_ones() {
        let dir = temp_ckpt_dir("stride");
        let train = interaction_data(600, 25);
        let config = SafeConfig { checkpoint_every: 5, ..ckpt_config(&dir) };
        let outcome = Safe::new(config).fit(&train, None).unwrap();
        let store = CheckpointStore::new(dir.clone());
        let files = store.list().unwrap();
        // Mid-run snapshots are strided out; only the terminal one persists.
        assert_eq!(files.len(), 1, "{files:?}");
        let latest = store.load_latest().unwrap().checkpoint.unwrap();
        assert!(latest.terminal.is_final());
        assert_eq!(latest.iterations_done, outcome.history.len());
    }

    #[test]
    fn an_empty_checkpoint_directory_cold_starts() {
        let dir = temp_ckpt_dir("cold");
        let train = interaction_data(400, 26);
        let safe = Safe::new(ckpt_config(&dir));
        let resumed = safe.fit_resumed(&train, None).unwrap();
        let fresh_dir = temp_ckpt_dir("cold_fresh");
        let fresh = Safe::new(ckpt_config(&fresh_dir)).fit(&train, None).unwrap();
        assert_same_outcome(&fresh, &resumed);
    }
}
