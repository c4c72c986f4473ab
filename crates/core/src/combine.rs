//! Combination mining (Section IV-B1) and gain-ratio ranking (Algorithm 2).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use safe_data::binning::BinEdges;
use safe_data::column::{ColumnRead, ColumnView};
use safe_data::dataset::Dataset;
use safe_gbm::booster::GbmModel;
use safe_stats::entropy::{gain_ratio, joint_cells};
use safe_stats::par::{ParPanic, Parallelism};

/// A candidate feature combination: the distinct split features of (a subset
/// of) one tree path, with the split values observed for each.
#[derive(Debug, Clone, PartialEq)]
pub struct Combination {
    /// Feature column indices, sorted ascending (canonical form).
    pub features: Vec<usize>,
    /// Split values per feature (aligned with `features`).
    pub split_values: Vec<Vec<f64>>,
    /// Information gain ratio, filled by [`rank_combinations_observed`].
    pub gain_ratio: f64,
}

impl Combination {
    /// Arity of the combination.
    pub fn arity(&self) -> usize {
        self.features.len()
    }
}

/// Enumerate all combinations of size `1..=max_arity` from the model's tree
/// paths. Implements the search space S* of Eq. (4): every subset of the
/// distinct split features on one path is a candidate, because the paper's
/// assumption 2 favours same-path feature sets. Identical feature sets from
/// different paths are merged, with their split-value sets unioned.
pub fn mine_combinations(model: &GbmModel, max_arity: usize) -> Vec<Combination> {
    let mut merged: BTreeMap<Vec<usize>, BTreeMap<usize, Vec<f64>>> = BTreeMap::new();
    for path in model.paths() {
        let mut feats: Vec<usize> = path.features.clone();
        feats.sort_unstable();
        let k = feats.len().min(max_arity);
        for size in 1..=k {
            for subset in subsets_of(&feats, size) {
                let entry = merged.entry(subset.clone()).or_default();
                for &f in &subset {
                    let vals = entry.entry(f).or_default();
                    for &v in &path.split_values[&f] {
                        if !vals.contains(&v) {
                            vals.push(v);
                        }
                    }
                }
            }
        }
    }
    merged
        .into_iter()
        .map(|(features, values)| {
            let split_values = features.iter().map(|f| values[f].clone()).collect();
            Combination {
                features,
                split_values,
                gain_ratio: 0.0,
            }
        })
        .collect()
}

/// All `size`-subsets of a sorted, deduplicated slice.
fn subsets_of(items: &[usize], size: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(size);
    fn rec(items: &[usize], size: usize, start: usize, current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if current.len() == size {
            out.push(current.clone());
            return;
        }
        for i in start..items.len() {
            current.push(items[i]);
            rec(items, size, i + 1, current, out);
            current.pop();
        }
    }
    rec(items, size, 0, &mut current, &mut out);
    out
}

/// Scoring telemetry from [`rank_combinations_observed`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankStats {
    /// Combinations that entered the ranking.
    pub candidates_in: u64,
    /// Total joint-partition cells evaluated across all combinations.
    pub cells_evaluated: u64,
    /// Combinations cut by the γ truncation.
    pub gamma_truncated: u64,
}

/// Algorithm 2: score each combination by the information gain ratio of the
/// partition its split values induce, and keep the top γ. Also reports
/// scoring telemetry. Worker panics surface as [`ParPanic`].
///
/// A combination of q features with value sets `V_1..V_q` splits the records
/// into `∏ (|V_i| + 1)` cells; the gain ratio of that partition against the
/// label is the combination's score.
pub fn rank_combinations_observed(
    mut combos: Vec<Combination>,
    train: &Dataset,
    gamma: usize,
    par: Parallelism,
) -> Result<(Vec<Combination>, RankStats), ParPanic> {
    let mut stats = RankStats {
        candidates_in: combos.len() as u64,
        ..RankStats::default()
    };
    let Some(labels) = train.labels() else {
        // No labels: gain ratios are undefined. Keep a deterministic order
        // and the γ cap so callers still get a usable (unscored) list.
        combos.sort_by(|a, b| a.features.cmp(&b.features));
        combos.truncate(gamma);
        stats.gamma_truncated = stats.candidates_in - combos.len() as u64;
        return Ok((combos, stats));
    };
    let views: Vec<ColumnView<'_>> = train.column_views().collect();
    // Score combinations in parallel (each builds its own small binnings).
    let scores = safe_stats::par::try_par_map(par, combos.len(), |i| {
        let combo = &combos[i];
        // Stale feature indices (not from this dataset) score zero.
        if combo.features.iter().any(|&f| f >= views.len()) {
            return (0.0, 0u64);
        }
        // Bin assignment walks the whole column: materialize it per worker
        // (zero-copy when resident, scratch gather when chunked). Spill
        // failures panic and surface as [`ParPanic`].
        let mut scratch = Vec::new();
        let assignments: Vec<(Vec<usize>, usize)> = combo
            .features
            .iter()
            .zip(&combo.split_values)
            .map(|(&f, values)| {
                let edges = BinEdges::from_cuts(values.clone());
                let col = match views[f].materialize(&mut scratch) {
                    Ok(c) => c,
                    Err(e) => panic!("column read failed during combination ranking: {e}"),
                };
                let a = edges.assign_with_missing(col);
                (a.bins, a.n_bins)
            })
            .collect();
        let refs: Vec<(&[usize], usize)> = assignments
            .iter()
            .map(|(bins, n)| (bins.as_slice(), *n))
            .collect();
        let (cells, n_cells) = joint_cells(&refs);
        (gain_ratio(&cells, labels, n_cells), n_cells as u64)
    })?;
    for (combo, (score, n_cells)) in combos.iter_mut().zip(scores) {
        combo.gain_ratio = score;
        stats.cells_evaluated += n_cells;
    }
    combos.sort_by(|a, b| {
        b.gain_ratio
            .partial_cmp(&a.gain_ratio)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.features.cmp(&b.features))
    });
    combos.truncate(gamma);
    stats.gamma_truncated = stats.candidates_in - combos.len() as u64;
    Ok((combos, stats))
}

/// The RAND/IMP generators (Section V-A1): γ random combinations over the
/// given feature pool, sizes drawn uniformly from `1..=max_arity` (capped by
/// the pool size). Split values are empty — random combinations carry no
/// path information, so downstream scoring bins the raw columns instead.
/// An empty pool yields no combinations.
pub fn random_combinations(
    pool: &[usize],
    gamma: usize,
    max_arity: usize,
    seed: u64,
) -> Vec<Combination> {
    if pool.is_empty() {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let max_arity = max_arity.min(pool.len());
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(gamma);
    // Upper bound on attempts so a tiny pool cannot loop forever.
    let mut attempts = 0usize;
    let max_attempts = gamma * 50;
    while out.len() < gamma && attempts < max_attempts {
        attempts += 1;
        let size = 1 + (attempts + out.len()) % max_arity; // cycle sizes deterministically
        let mut picks: Vec<usize> = pool.to_vec();
        picks.shuffle(&mut rng);
        picks.truncate(size);
        picks.sort_unstable();
        if seen.insert(picks.clone()) {
            let split_values = vec![Vec::new(); picks.len()];
            out.push(Combination {
                features: picks,
                split_values,
                gain_ratio: 0.0,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use safe_gbm::booster::Gbm;
    use safe_gbm::config::GbmConfig;

    fn xor_like_dataset(n: usize) -> Dataset {
        // Label = (a > 0) xor (b > 0) with slight imbalance to keep the
        // booster splitting; c is noise.
        let mut cols = vec![Vec::new(); 3];
        let mut labels = Vec::new();
        for i in 0..n {
            let a = ((i * 7919 + 13) % 1000) as f64 / 500.0 - 1.0;
            let b = ((i * 104729 + 7) % 1000) as f64 / 500.0 - 1.0;
            let c = ((i * 31) % 100) as f64;
            cols[0].push(a);
            cols[1].push(b);
            cols[2].push(c);
            labels.push((((a > 0.05) as u8) ^ ((b > 0.0) as u8)) as u8);
        }
        Dataset::from_columns(
            vec!["a".into(), "b".into(), "c".into()],
            cols,
            Some(labels),
        )
        .unwrap()
    }

    #[test]
    fn mining_yields_sorted_deduped_combinations() {
        let ds = xor_like_dataset(600);
        let model = Gbm::new(GbmConfig::miner()).fit(&ds, None).unwrap();
        let combos = mine_combinations(&model, 2);
        assert!(!combos.is_empty());
        let mut seen = std::collections::BTreeSet::new();
        for c in &combos {
            assert!(c.features.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
            assert!(seen.insert(c.features.clone()), "no duplicate feature sets");
            assert!(c.arity() <= 2);
            for (f, vals) in c.features.iter().zip(&c.split_values) {
                assert!(*f < ds.n_cols());
                assert!(!vals.is_empty(), "mined combos carry split values");
            }
        }
    }

    #[test]
    fn xor_pair_ranks_first() {
        let ds = xor_like_dataset(800);
        let model = Gbm::new(GbmConfig::miner()).fit(&ds, None).unwrap();
        let combos = mine_combinations(&model, 2);
        let ranked = rank_combinations_observed(combos, &ds, 5, Parallelism::auto())
            .unwrap()
            .0;
        assert!(!ranked.is_empty());
        // The top combination must be the {a, b} pair — only jointly do the
        // two features explain an XOR label.
        assert_eq!(ranked[0].features, vec![0, 1], "top combo = the XOR pair");
        assert!(ranked[0].gain_ratio > 0.2, "gain ratio {}", ranked[0].gain_ratio);
        // Scores are sorted descending.
        for w in ranked.windows(2) {
            assert!(w[0].gain_ratio >= w[1].gain_ratio);
        }
    }

    #[test]
    fn gamma_truncates() {
        let ds = xor_like_dataset(400);
        let model = Gbm::new(GbmConfig::miner()).fit(&ds, None).unwrap();
        let combos = mine_combinations(&model, 2);
        let total = combos.len();
        let ranked = rank_combinations_observed(combos, &ds, 2, Parallelism::auto())
            .unwrap()
            .0;
        assert!(ranked.len() <= 2);
        assert!(total >= ranked.len());
    }

    #[test]
    fn rank_stats_count_candidates_and_cells() {
        let ds = xor_like_dataset(400);
        let model = Gbm::new(GbmConfig::miner()).fit(&ds, None).unwrap();
        let combos = mine_combinations(&model, 2);
        let total = combos.len() as u64;
        let (ranked, stats) =
            rank_combinations_observed(combos, &ds, 3, Parallelism::auto()).unwrap();
        assert_eq!(stats.candidates_in, total);
        assert_eq!(stats.gamma_truncated, total - ranked.len() as u64);
        // Every combination induces at least 2 cells (one cut ⇒ two sides).
        assert!(stats.cells_evaluated >= 2 * total, "{stats:?}");
    }

    #[test]
    fn subsets_enumeration() {
        let items = vec![1, 4, 9];
        assert_eq!(subsets_of(&items, 1).len(), 3);
        assert_eq!(subsets_of(&items, 2).len(), 3);
        assert_eq!(subsets_of(&items, 3).len(), 1);
        assert_eq!(subsets_of(&items, 2), vec![vec![1, 4], vec![1, 9], vec![4, 9]]);
    }

    #[test]
    fn random_combinations_are_unique_and_in_pool() {
        let pool = vec![0, 3, 5, 8, 11];
        let combos = random_combinations(&pool, 10, 2, 42);
        let mut seen = std::collections::BTreeSet::new();
        for c in &combos {
            assert!(seen.insert(c.features.clone()));
            assert!(c.features.iter().all(|f| pool.contains(f)));
            assert!(c.arity() >= 1 && c.arity() <= 2);
        }
        assert_eq!(combos.len(), 10);
    }

    #[test]
    fn random_combinations_deterministic_by_seed() {
        let pool: Vec<usize> = (0..20).collect();
        let a = random_combinations(&pool, 8, 2, 7);
        let b = random_combinations(&pool, 8, 2, 7);
        let c = random_combinations(&pool, 8, 2, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn tiny_pool_terminates() {
        let pool = vec![0];
        let combos = random_combinations(&pool, 100, 3, 1);
        assert_eq!(combos.len(), 1, "only one distinct combo exists");
    }
}
