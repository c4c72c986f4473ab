//! Feature generation (Section IV-B3): apply the operator set to the ranked
//! feature combinations.
//!
//! An arity-k combination meets every arity-k operator. Commutative
//! operators see each combination once; non-commutative operators (−, ÷,
//! the group-bys, …) see every argument ordering, matching the paper's
//! convention that such operators "will be treated as multiple different
//! operators". γ combinations with the four arithmetic operators therefore
//! yield up to `γ₂ × |O₂|` new features with `−` and `÷` counted twice.

use std::collections::HashSet;

use safe_data::column::{ColumnRead, ColumnView};
use safe_data::dataset::Dataset;
use safe_ops::registry::OperatorRegistry;
use safe_stats::par::{ParPanic, Parallelism};

use crate::combine::Combination;

/// One freshly generated feature: provenance, frozen operator parameters,
/// and materialized train/valid columns.
#[derive(Debug)]
pub struct GeneratedFeature {
    /// Canonical name, e.g. `"div(x3,x7)"`.
    pub name: String,
    /// Operator registry name.
    pub op: String,
    /// Parent feature names in argument order.
    pub parents: Vec<String>,
    /// Frozen operator parameters (for plan serialization).
    pub params: Vec<f64>,
    /// Values on the training set.
    pub train_values: Vec<f64>,
    /// Values on the validation set, when one was supplied.
    pub valid_values: Option<Vec<f64>>,
}

/// Canonical generated-feature name.
pub fn feature_name(op: &str, parents: &[&str]) -> String {
    format!("{op}({})", parents.join(","))
}

/// One materialized parent column: borrowed zero-copy when resident,
/// gathered into owned scratch when chunked, or absent (a validation set
/// narrower than train — schema drift — simply has no such column).
enum ParentCol<'a> {
    Borrowed(&'a [f64]),
    Owned(Vec<f64>),
    Missing,
}

impl ParentCol<'_> {
    fn slice(&self) -> Option<&[f64]> {
        match self {
            ParentCol::Borrowed(s) => Some(s),
            ParentCol::Owned(v) => Some(v.as_slice()),
            ParentCol::Missing => None,
        }
    }
}

/// Materialize the parent columns of one combination. `allow_missing` is
/// set for validation views, where an out-of-range feature index means "no
/// column" rather than a stale combination (the caller screens train
/// indices first). A spill-read failure panics — generation workers run
/// under [`safe_stats::par::try_par_map`], which captures it as a
/// [`ParPanic`] for the pipeline to degrade on.
fn gather_parents<'a>(
    views: &'a [ColumnView<'a>],
    feats: &[usize],
    allow_missing: bool,
) -> Vec<ParentCol<'a>> {
    feats
        .iter()
        .map(|&f| match views.get(f) {
            None if allow_missing => ParentCol::Missing,
            None => panic!("parent column {f} out of range during generation"),
            Some(v) => match v.as_slice() {
                Some(s) => ParentCol::Borrowed(s),
                None => {
                    let mut buf = Vec::new();
                    match v.gather_into(&mut buf) {
                        Ok(()) => ParentCol::Owned(buf),
                        Err(e) => panic!("column read failed during generation: {e}"),
                    }
                }
            },
        })
        .collect()
}

/// All orderings of `items` (k ≤ 3 in practice, so the factorial is tiny).
fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (i, &head) in items.iter().enumerate() {
        let rest: Vec<usize> = items
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, &v)| v)
            .collect();
        for mut tail in permutations(&rest) {
            let mut p = vec![head];
            p.append(&mut tail);
            out.push(p);
        }
    }
    out
}

/// Generation telemetry from [`generate_features_observed`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GenerateStats {
    /// Features generated per operator family, in first-seen order.
    pub per_op: Vec<(String, u64)>,
    /// Candidates discarded because the output column was constant or
    /// all-missing on the training set.
    pub degenerate_discarded: u64,
    /// Candidates skipped because the name already existed.
    pub name_collisions: u64,
    /// Candidates skipped because the operator refused to fit (e.g. a
    /// supervised operator without labels).
    pub op_fit_errors: u64,
    /// Combinations skipped for referencing columns outside the dataset.
    pub stale_combinations: u64,
}

impl GenerateStats {
    fn count_op(&mut self, op: &str) {
        match self.per_op.iter_mut().find(|(name, _)| name == op) {
            Some((_, n)) => *n += 1,
            None => self.per_op.push((op.to_string(), 1)),
        }
    }
}

/// What one (combination, operator, ordering) candidate computed in a worker
/// thread, before the serial merge decides its fate.
enum CandidateOutcome {
    FitError,
    Degenerate,
    Feature {
        params: Vec<f64>,
        train_values: Vec<f64>,
        valid_values: Option<Vec<f64>>,
    },
}

struct Candidate {
    name: String,
    op: String,
    parents: Vec<String>,
    outcome: CandidateOutcome,
}

/// Per-combination worker output.
enum ComboWork {
    Stale,
    Candidates(Vec<Candidate>),
}

/// Apply every applicable operator to every combination. Features whose
/// names collide with existing columns (or earlier generated ones) are
/// skipped; features that come out constant or all-missing on the training
/// set are discarded immediately (they cannot survive the IV filter anyway
/// and would waste selection work). Also reports per-operator counts and
/// how many candidates were skipped (and why). Worker panics surface as
/// [`ParPanic`].
///
/// Operator fitting and application run one combination per work item; the
/// results are then merged serially in combination order, so name-collision
/// bookkeeping, per-operator counts and output ordering are bit-identical
/// to the serial path for any thread count.
pub fn generate_features_observed(
    train: &Dataset,
    valid: Option<&Dataset>,
    combos: &[Combination],
    registry: &OperatorRegistry,
    par: Parallelism,
) -> Result<(Vec<GeneratedFeature>, GenerateStats), ParPanic> {
    let mut stats = GenerateStats::default();
    let labels = train.labels();
    let all_train_views: Vec<ColumnView<'_>> = train.column_views().collect();
    let all_valid_views: Option<Vec<ColumnView<'_>>> =
        valid.map(|v| v.column_views().collect());

    // Phase 1 (parallel): fit + apply every candidate of every combination.
    let per_combo: Vec<ComboWork> = safe_stats::par::try_par_map(par, combos.len(), |ci| {
        let combo = &combos[ci];
        // Combinations referencing columns outside this dataset (stale
        // indices) cannot be generated; skip rather than panic.
        if combo.features.iter().any(|&f| f >= all_train_views.len()) {
            return ComboWork::Stale;
        }
        // Materialize this combination's parent columns once per worker:
        // resident parents borrow zero-copy, chunked parents gather into
        // owned scratch. Operators fit/apply on random-access slices.
        let feats = &combo.features;
        let t_parents = gather_parents(&all_train_views, feats, false);
        let v_parents = all_valid_views
            .as_ref()
            .map(|vv| gather_parents(vv, feats, true));
        let pos = |f: usize| feats.iter().position(|&x| x == f).unwrap_or(0);
        let mut candidates = Vec::new();
        for op in registry.by_arity(combo.arity()) {
            let orders = if op.commutative() {
                vec![combo.features.clone()]
            } else {
                permutations(&combo.features)
            };
            for order in orders {
                let parent_names: Vec<&str> = order
                    .iter()
                    .map(|&f| train.meta()[f].name.as_str())
                    .collect();
                let name = feature_name(op.name(), &parent_names);
                let train_cols: Vec<&[f64]> =
                    order.iter().map(|&f| t_parents[pos(f)].slice().unwrap_or(&[])).collect();
                let outcome = match op.fit(&train_cols, labels) {
                    // e.g. supervised op without labels
                    Err(_) => CandidateOutcome::FitError,
                    Ok(fitted) => {
                        let train_values = fitted.apply(&train_cols);
                        if is_degenerate(&train_values) {
                            CandidateOutcome::Degenerate
                        } else {
                            // A validation set narrower than train (schema
                            // drift) simply gets no generated column for
                            // this feature.
                            let valid_values = v_parents.as_ref().and_then(|vp| {
                                let cols: Option<Vec<&[f64]>> =
                                    order.iter().map(|&f| vp[pos(f)].slice()).collect();
                                cols.map(|cols| fitted.apply(&cols))
                            });
                            CandidateOutcome::Feature {
                                params: fitted.params(),
                                train_values,
                                valid_values,
                            }
                        }
                    }
                };
                candidates.push(Candidate {
                    name,
                    op: op.name().to_string(),
                    parents: parent_names.iter().map(|s| s.to_string()).collect(),
                    outcome,
                });
            }
        }
        ComboWork::Candidates(candidates)
    })?;

    // Phase 2 (serial, fixed order): collision bookkeeping and stats, in
    // exactly the order the serial loop would have visited candidates. A
    // collided candidate is counted before its fit result is examined,
    // matching the serial path, which never fits it at all.
    let mut taken: HashSet<String> =
        train.feature_names().iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    for work in per_combo {
        let candidates = match work {
            ComboWork::Stale => {
                stats.stale_combinations += 1;
                continue;
            }
            ComboWork::Candidates(c) => c,
        };
        for cand in candidates {
            if taken.contains(&cand.name) {
                stats.name_collisions += 1;
                continue;
            }
            match cand.outcome {
                CandidateOutcome::FitError => stats.op_fit_errors += 1,
                CandidateOutcome::Degenerate => stats.degenerate_discarded += 1,
                CandidateOutcome::Feature {
                    params,
                    train_values,
                    valid_values,
                } => {
                    taken.insert(cand.name.clone());
                    stats.count_op(&cand.op);
                    out.push(GeneratedFeature {
                        name: cand.name,
                        op: cand.op,
                        parents: cand.parents,
                        params,
                        train_values,
                        valid_values,
                    });
                }
            }
        }
    }
    Ok((out, stats))
}

/// Constant or all-missing columns carry no signal.
fn is_degenerate(values: &[f64]) -> bool {
    let mut first_finite = None;
    for &v in values {
        if v.is_finite() {
            match first_finite {
                None => first_finite = Some(v),
                Some(f) if f != v => return false,
                Some(_) => {}
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use safe_data::dataset::Dataset;

    fn ds() -> Dataset {
        Dataset::from_columns(
            vec!["a".into(), "b".into()],
            vec![vec![1.0, 2.0, 3.0, 4.0], vec![4.0, 3.0, 2.0, 1.0]],
            Some(vec![0, 0, 1, 1]),
        )
        .unwrap()
    }

    fn generated(
        train: &Dataset,
        valid: Option<&Dataset>,
        combos: &[Combination],
        registry: &OperatorRegistry,
    ) -> Vec<GeneratedFeature> {
        generate_features_observed(train, valid, combos, registry, Parallelism::auto())
            .unwrap()
            .0
    }

    fn pair_combo() -> Combination {
        Combination {
            features: vec![0, 1],
            split_values: vec![vec![2.0], vec![2.0]],
            gain_ratio: 1.0,
        }
    }

    #[test]
    fn arithmetic_pair_generates_expected_features() {
        // add, mul once each; sub, div in both orders → 6 candidates, but
        // add(a,b) is constant (a+b = 5 on this fixture) and is dropped.
        let out = generated(&ds(), None, &[pair_combo()], &OperatorRegistry::arithmetic());
        assert_eq!(out.len(), 5, "{:?}", out.iter().map(|g| &g.name).collect::<Vec<_>>());
        let names: Vec<&str> = out.iter().map(|g| g.name.as_str()).collect();
        assert!(names.contains(&"sub(a,b)"));
        assert!(names.contains(&"sub(b,a)"));
        assert!(names.contains(&"div(a,b)"));
        assert!(names.contains(&"div(b,a)"));
        assert!(names.contains(&"mul(a,b)"));
    }

    #[test]
    fn values_are_correct() {
        let out = generated(&ds(), None, &[pair_combo()], &OperatorRegistry::arithmetic());
        let sub = out.iter().find(|g| g.name == "sub(a,b)").unwrap();
        assert_eq!(sub.train_values, vec![-3.0, -1.0, 1.0, 3.0]);
        let div = out.iter().find(|g| g.name == "div(b,a)").unwrap();
        assert_eq!(div.train_values, vec![4.0, 1.5, 2.0 / 3.0, 0.25]);
    }

    #[test]
    fn degenerate_outputs_are_dropped() {
        // add(a,b) is constant 5 on this data → must be filtered out.
        let out = generated(&ds(), None, &[pair_combo()], &OperatorRegistry::arithmetic());
        assert!(out.iter().all(|g| g.name != "add(a,b)") || {
            let add = out.iter().find(|g| g.name == "add(a,b)").unwrap();
            add.train_values.windows(2).any(|w| w[0] != w[1])
        });
        // Direct check: a + b = 5 everywhere → not in the output.
        assert!(!out.iter().any(|g| g.name == "add(a,b)"));
        // Fixture docstring said 6 in the other test — adjust: with the
        // constant sum dropped it is 5.
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn valid_columns_use_frozen_state() {
        let train = ds();
        let valid = Dataset::from_columns(
            vec!["a".into(), "b".into()],
            vec![vec![10.0], vec![5.0]],
            Some(vec![1]),
        )
        .unwrap();
        let out = generated(&train, Some(&valid), &[pair_combo()], &OperatorRegistry::arithmetic());
        let div = out.iter().find(|g| g.name == "div(a,b)").unwrap();
        assert_eq!(div.valid_values.as_ref().unwrap(), &vec![2.0]);
    }

    #[test]
    fn name_collisions_skipped() {
        let mut train = ds();
        train
            .push_column(
                safe_data::dataset::FeatureMeta::original("mul(a,b)"),
                vec![0.0; 4],
            )
            .unwrap();
        let out = generated(&train, None, &[pair_combo()], &OperatorRegistry::arithmetic());
        assert!(!out.iter().any(|g| g.name == "mul(a,b)"));
    }

    #[test]
    fn unary_combos_meet_unary_operators() {
        let combo = Combination {
            features: vec![0],
            split_values: vec![vec![2.0]],
            gain_ratio: 0.5,
        };
        let out = generated(&ds(), None, &[combo], &OperatorRegistry::standard());
        assert!(out.iter().any(|g| g.name == "square(a)"));
        assert!(out.iter().any(|g| g.name == "log(a)"));
        // No binary ops applied to a unary combo.
        assert!(!out.iter().any(|g| g.op == "add"));
    }

    #[test]
    fn generate_stats_account_for_every_candidate() {
        // add(a,b) is constant on this fixture → one degenerate discard;
        // the five survivors split as add:0, sub:2, mul:1, div:2.
        let (out, stats) = generate_features_observed(
            &ds(),
            None,
            &[pair_combo()],
            &OperatorRegistry::arithmetic(),
            Parallelism::auto(),
        )
        .unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(stats.degenerate_discarded, 1);
        assert_eq!(stats.name_collisions, 0);
        assert_eq!(stats.per_op.iter().map(|&(_, n)| n).sum::<u64>(), 5);
        assert!(stats.per_op.iter().any(|(op, n)| op == "sub" && *n == 2));
        assert!(stats.per_op.iter().any(|(op, n)| op == "div" && *n == 2));
        // A pre-existing column with a generated name counts as a collision.
        let mut train = ds();
        train
            .push_column(
                safe_data::dataset::FeatureMeta::original("mul(a,b)"),
                vec![0.0; 4],
            )
            .unwrap();
        let (_, stats) = generate_features_observed(
            &train,
            None,
            &[pair_combo()],
            &OperatorRegistry::arithmetic(),
            Parallelism::auto(),
        )
        .unwrap();
        assert_eq!(stats.name_collisions, 1);
    }

    #[test]
    fn permutation_count() {
        assert_eq!(permutations(&[1]).len(), 1);
        assert_eq!(permutations(&[1, 2]).len(), 2);
        assert_eq!(permutations(&[1, 2, 3]).len(), 6);
    }

    #[test]
    fn degenerate_detector() {
        assert!(is_degenerate(&[1.0, 1.0, 1.0]));
        assert!(is_degenerate(&[f64::NAN, f64::NAN]));
        assert!(is_degenerate(&[1.0, f64::NAN, 1.0]));
        assert!(!is_degenerate(&[1.0, 2.0]));
        assert!(is_degenerate(&[]));
    }
}
