//! The fit side: timed `Safe::fit` repeats, the downstream test AUC, and a
//! traced replay of Algorithm 1 through the public stage functions.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use safe_core::combine::{mine_combinations, rank_combinations_observed};
use safe_core::generate::generate_features_observed;
use safe_core::plan::{FeaturePlan, PlanStep};
use safe_core::selection::{iv_filter_cached, rank_and_cap_cached, redundancy_filter_cached};
use safe_core::{BinCache, IterationStatus, Safe, SafeConfig, SafeOutcome, StatsCache};
use safe_data::audit::enforce;
use safe_data::dataset::{Dataset, FeatureMeta};
use safe_data::split::DatasetSplit;
use safe_gbm::{BinnedDataset, Gbm, GbmConfig};
use safe_obs::NullSink;
use safe_serve::{SafeArtifact, ScorerHandle};
use safe_stats::auc;

use crate::trace::Tracer;

/// One timed fit.
pub struct TimedFit {
    /// Wall time of `Safe::fit`, seconds.
    pub secs: f64,
    /// What it returned.
    pub outcome: SafeOutcome,
}

/// `Safe::fit` on the training split, timed.
pub fn timed_fit(cfg: &SafeConfig, split: &DatasetSplit) -> Result<TimedFit, String> {
    let safe = Safe::new(cfg.clone());
    let start = Instant::now();
    let outcome = safe
        .fit(&split.train, split.valid.as_ref())
        .map_err(|e| format!("fit failed: {e}"))?;
    Ok(TimedFit {
        secs: start.elapsed().as_secs_f64(),
        outcome,
    })
}

/// The downstream booster for a learned plan: `GbmConfig::classifier`
/// trained on the engineered training split (through
/// `SafeArtifact::train`), and its AUC on the engineered test split.
pub fn classifier_artifact(
    plan: &FeaturePlan,
    cfg: &SafeConfig,
    split: &DatasetSplit,
    booster: &GbmConfig,
    threads: usize,
) -> Result<(SafeArtifact, f64), String> {
    let artifact = SafeArtifact::train(
        plan,
        &cfg.operators,
        &split.train,
        split.valid.as_ref(),
        booster,
    )
    .map_err(|e| format!("artifact training failed: {e}"))?;
    let scorer = ScorerHandle::new(&artifact, &cfg.operators)
        .map_err(|e| format!("scorer rejected the artifact: {e}"))?
        .with_threads(threads);
    let (scores, _) = scorer
        .score_dataset(&split.test)
        .map_err(|e| format!("test scoring failed: {e}"))?;
    let labels = split.test.labels().ok_or("test split has no labels")?;
    Ok((artifact, auc(&scores, labels)))
}

/// Per-layer numbers from one traced replay.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    /// Miner histogram builds, summed over iterations.
    pub histogram_builds: u64,
    /// Miner histogram subtractions.
    pub histogram_subtractions: u64,
    /// Miner nodes grown.
    pub nodes_grown: u64,
    /// Combinations mined from tree paths.
    pub combinations: u64,
    /// Combinations entering gain-ratio ranking.
    pub combos_in: u64,
    /// Combinations kept (top γ).
    pub combos_kept: u64,
    /// Partition cells evaluated while ranking.
    pub cells_evaluated: u64,
    /// Features generated.
    pub generated: u64,
    /// Generated candidates discarded as degenerate.
    pub degenerate: u64,
    /// Candidates entering the IV filter.
    pub iv_in: u64,
    /// Candidates clearing α.
    pub iv_kept: u64,
    /// Pearson pairs compared.
    pub pearson_pairs: u64,
    /// Candidates kept by the redundancy filter.
    pub redundancy_kept: u64,
    /// Bin-cache hits / misses (binning layer and ranker).
    pub bin_hits: u64,
    /// See `bin_hits`.
    pub bin_misses: u64,
    /// IV cache hits / misses.
    pub iv_hits: u64,
    /// See `iv_hits`.
    pub iv_misses: u64,
    /// Pearson cache hits / misses.
    pub pearson_hits: u64,
    /// See `pearson_hits`.
    pub pearson_misses: u64,
}

/// Replay the fit `cfg` performs (Mined strategy, Exact selection, caches
/// on, resident data, no checkpoint, no time budget) through the public
/// stage functions, one span per layer call. The replay must select the
/// same names in every iteration as `reference` and end in the same plan;
/// any difference is returned as an error.
pub fn traced_replay(
    cfg: &SafeConfig,
    split: &DatasetSplit,
    reference: &SafeOutcome,
    tracer: &mut Tracer,
) -> Result<ReplayCounts, String> {
    let mut counts = ReplayCounts::default();
    let par = cfg.parallelism;
    let sink = NullSink;
    let (audit, repaired) = tracer
        .span("data.audit", 0, |_| enforce(&split.train, &cfg.audit))
        .map_err(|e| format!("audit rejected the training split: {e}"))?;
    let train = repaired.unwrap_or_else(|| split.train.clone());
    let valid = match &split.valid {
        Some(v) if !audit.actions.is_empty() => Some(
            audit
                .replay(v)
                .map_err(|e| format!("audit replay failed: {e}"))?,
        ),
        other => other.clone(),
    };
    let original: Vec<String> = names(&train);
    let cap = cfg.output_multiplier * train.n_cols();
    let max_arity = cfg.operators.max_arity().max(1);
    let mut bin_cache = BinCache::new();
    let mut stats_cache = StatsCache::new();
    let mut catalog: BTreeMap<String, PlanStep> = BTreeMap::new();
    let mut current_train = train;
    let mut current_valid = valid;
    let mut plan = identity_plan(&original);

    for iteration in 0..cfg.n_iterations {
        let key = iteration as u64;
        let expected = reference
            .history
            .get(iteration)
            .ok_or_else(|| format!("replay ran iteration {iteration}, the fit did not"))?;
        let selected: Vec<String> = tracer.span("core.iteration", key, |tracer| {
            // Miner: bin through the cross-iteration cache, then train on
            // the pre-warmed bins.
            let (h0, m0) = (bin_cache.hits(), bin_cache.misses());
            tracer.span("gbm.bin", key, |_| {
                BinnedDataset::fit_cached(
                    &current_train,
                    cfg.miner.max_bins,
                    cfg.miner.parallelism,
                    &mut bin_cache,
                )
            });
            counts.bin_hits += bin_cache.hits() - h0;
            counts.bin_misses += bin_cache.misses() - m0;
            let (model, gbm_stats) = tracer
                .span("gbm.miner_fit", key, |_| {
                    Gbm::new(cfg.miner.clone()).fit_cached_observed(
                        &current_train,
                        current_valid.as_ref(),
                        Some(&mut bin_cache),
                        &sink,
                        "gbm-train",
                        Some(iteration),
                    )
                })
                .map_err(|e| format!("miner fit failed: {e}"))?;
            counts.histogram_builds += gbm_stats.grow.histogram_builds;
            counts.histogram_subtractions += gbm_stats.grow.histogram_subtractions;
            counts.nodes_grown += gbm_stats.grow.total_nodes();

            let combos = tracer.span("core.path_extract", key, |_| {
                mine_combinations(&model, max_arity)
            });
            counts.combinations += combos.len() as u64;
            let (ranked, rank_stats) = tracer
                .span("core.rank_combos", key, |_| {
                    rank_combinations_observed(combos, &current_train, cfg.gamma, par)
                })
                .map_err(|p| format!("rank-combos worker panicked: {p}"))?;
            counts.combos_in += rank_stats.candidates_in;
            counts.combos_kept += ranked.len() as u64;
            counts.cells_evaluated += rank_stats.cells_evaluated;

            let (generated, gen_stats) = tracer
                .span("core.generate", key, |_| {
                    generate_features_observed(
                        &current_train,
                        current_valid.as_ref(),
                        &ranked,
                        &cfg.operators,
                        par,
                    )
                })
                .map_err(|p| format!("generate worker panicked: {p}"))?;
            counts.generated += generated.len() as u64;
            counts.degenerate += gen_stats.degenerate_discarded;

            // Candidate set X̂ = X ∪ X̃.
            let (cand_train, cand_valid) = tracer.span("core.assemble", key, |_| {
                let mut cand_train = current_train.clone();
                let mut cand_valid = current_valid.clone();
                for g in generated {
                    catalog.insert(
                        g.name.clone(),
                        PlanStep {
                            name: g.name.clone(),
                            op: g.op.clone(),
                            parents: g.parents.clone(),
                            params: g.params.clone(),
                        },
                    );
                    let meta = FeatureMeta::generated(g.name, g.op, g.parents);
                    if let (Some(v), Some(values)) = (cand_valid.as_mut(), g.valid_values) {
                        v.push_column(meta.clone(), values)
                            .map_err(|e| e.to_string())?;
                    }
                    cand_train
                        .push_column(meta, g.train_values)
                        .map_err(|e| e.to_string())?;
                }
                Ok::<_, String>((cand_train, cand_valid))
            })?;

            let (ih0, im0) = (stats_cache.iv_hits(), stats_cache.iv_misses());
            let survivors = tracer
                .span("stats.iv", key, |_| {
                    iv_filter_cached(
                        &cand_train,
                        cfg.alpha,
                        cfg.beta,
                        par,
                        Some(&mut stats_cache),
                    )
                })
                .map_err(|p| format!("iv worker panicked: {p}"))?;
            counts.iv_hits += stats_cache.iv_hits() - ih0;
            counts.iv_misses += stats_cache.iv_misses() - im0;
            counts.iv_in += cand_train.n_cols() as u64;
            counts.iv_kept += survivors.len() as u64;
            if survivors.is_empty() {
                // The fit degrades here and keeps the current feature set.
                return Ok(names(&current_train));
            }

            let (ph0, pm0) = (stats_cache.pearson_hits(), stats_cache.pearson_misses());
            let (kept, pairs) = tracer
                .span("stats.redundancy", key, |_| {
                    redundancy_filter_cached(
                        &cand_train,
                        &survivors,
                        cfg.theta,
                        par,
                        Some(&mut stats_cache),
                    )
                })
                .map_err(|p| format!("redundancy worker panicked: {p}"))?;
            counts.pearson_hits += stats_cache.pearson_hits() - ph0;
            counts.pearson_misses += stats_cache.pearson_misses() - pm0;
            counts.pearson_pairs += pairs;
            counts.redundancy_kept += kept.len() as u64;

            let (rh0, rm0) = (bin_cache.hits(), bin_cache.misses());
            let (selected_idx, _) = tracer
                .span("gbm.rank_topk", key, |_| {
                    rank_and_cap_cached(
                        &cand_train,
                        cand_valid.as_ref(),
                        &kept,
                        &cfg.ranker,
                        cap,
                        Some(&mut bin_cache),
                        &sink,
                        Some(iteration),
                    )
                })
                .map_err(|e| format!("rank-topk failed: {e}"))?;
            counts.bin_hits += bin_cache.hits() - rh0;
            counts.bin_misses += bin_cache.misses() - rm0;
            if selected_idx.is_empty() {
                return Ok(names(&current_train));
            }

            tracer.span("core.select", key, |_| {
                let selected: Vec<String> = selected_idx
                    .iter()
                    .filter_map(|&i| cand_train.meta().get(i).map(|m| m.name.clone()))
                    .collect();
                current_train = cand_train
                    .select_columns(&selected_idx)
                    .map_err(|e| e.to_string())?;
                if let Some(v) = cand_valid {
                    current_valid =
                        Some(v.select_columns(&selected_idx).map_err(|e| e.to_string())?);
                }
                Ok::<_, String>(selected)
            })
        })?;
        if selected != expected.selected {
            return Err(format!(
                "replay fidelity: iteration {iteration} selected {} names, the fit selected {} (or a different set)",
                selected.len(),
                expected.selected.len()
            ));
        }
        let prev: HashSet<&String> = plan.outputs.iter().collect();
        let converged = selected.iter().collect::<HashSet<_>>() == prev;
        plan = build_plan(&original, &catalog, &selected);
        let stopped = expected.status != IterationStatus::Completed;
        if converged || stopped {
            break;
        }
    }
    if plan != reference.plan {
        return Err(format!(
            "replay fidelity: final plan differs from the fit's ({} vs {} outputs)",
            plan.outputs.len(),
            reference.plan.outputs.len()
        ));
    }
    Ok(counts)
}

fn names(ds: &Dataset) -> Vec<String> {
    ds.feature_names().iter().map(|s| s.to_string()).collect()
}

fn identity_plan(original: &[String]) -> FeaturePlan {
    FeaturePlan {
        input_names: original.to_vec(),
        steps: Vec::new(),
        outputs: original.to_vec(),
    }
}

/// The plan for `selected`: original inputs, the transitive closure of
/// catalog steps the outputs depend on (dependency order), and the
/// selected names as outputs.
fn build_plan(
    original: &[String],
    catalog: &BTreeMap<String, PlanStep>,
    selected: &[String],
) -> FeaturePlan {
    fn visit(
        name: &str,
        catalog: &BTreeMap<String, PlanStep>,
        seen: &mut HashSet<String>,
        out: &mut Vec<PlanStep>,
    ) {
        if !seen.insert(name.to_string()) {
            return;
        }
        if let Some(step) = catalog.get(name) {
            for p in &step.parents {
                visit(p, catalog, seen, out);
            }
            out.push(step.clone());
        }
    }
    let mut steps = Vec::new();
    let mut seen = HashSet::new();
    for name in selected {
        visit(name, catalog, &mut seen, &mut steps);
    }
    FeaturePlan {
        input_names: original.to_vec(),
        steps,
        outputs: selected.to_vec(),
    }
}
