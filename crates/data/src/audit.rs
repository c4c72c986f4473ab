//! Pre-flight data audit for the SAFE pipeline.
//!
//! Industrial feeds routinely ship degenerate slices — all-missing sensors,
//! constant flags, `±inf` from upstream divisions, single-class label
//! windows. Rather than letting those surface as panics or cryptic errors
//! deep inside binning or boosting, the pipeline runs [`audit`] over the
//! training set before fitting and acts according to an [`AuditPolicy`]:
//!
//! - [`AuditPolicy::Reject`] — refuse to fit, reporting every finding,
//! - [`AuditPolicy::Warn`] — proceed unchanged, surfacing findings in the
//!   outcome (fatal findings still reject),
//! - [`AuditPolicy::Repair`] — drop or impute offending columns, recording
//!   each [`RepairAction`] so the identical transform can be replayed on the
//!   validation set.
//!
//! Findings carry a three-level [`AuditSeverity`]: *fatal* conditions make
//! fitting meaningless under any policy (empty data, single-class labels),
//! *repairable* ones have a mechanical fix (drop a dead column, impute
//! `±inf` to missing), and *advisory* ones are worth knowing but harmless
//! (label imbalance, fewer rows than IV bins).

use std::collections::BTreeSet;
use std::fmt;

use crate::column::ColumnRead;
use crate::dataset::Dataset;
use crate::error::DataError;

/// What the pipeline does when the audit finds problems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuditPolicy {
    /// Abort the fit with an [`AuditError`] listing every finding.
    Reject,
    /// Proceed unchanged; findings are recorded in the fit outcome.
    /// Fatal findings still abort — there is nothing meaningful to fit.
    #[default]
    Warn,
    /// Drop or impute offending columns before fitting, recording each
    /// action. Fatal findings (or repairs that leave no usable columns)
    /// still abort.
    Repair,
}

/// Tunables for the audit pass.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditConfig {
    /// How findings are acted upon.
    pub policy: AuditPolicy,
    /// Minority-class rate below which labels are flagged as imbalanced.
    pub imbalance_threshold: f64,
    /// Bin count the downstream IV stage will request; datasets with fewer
    /// rows than this get an advisory finding.
    pub expected_bins: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            policy: AuditPolicy::Warn,
            imbalance_threshold: 0.01,
            expected_bins: 10,
        }
    }
}

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AuditSeverity {
    /// Worth reporting; fitting proceeds unaffected.
    Advisory,
    /// Has a mechanical fix under [`AuditPolicy::Repair`].
    Repairable,
    /// Fitting is meaningless; rejected under every policy.
    Fatal,
}

/// One degenerate condition detected by [`audit`].
#[derive(Debug, Clone, PartialEq)]
pub enum AuditFinding {
    /// The dataset has no rows or no feature columns.
    EmptyDataset,
    /// Every value in the column is missing (`NaN`).
    AllMissingColumn {
        /// Offending column.
        name: String,
    },
    /// All non-missing values in the column are identical.
    ConstantColumn {
        /// Offending column.
        name: String,
        /// The single value the column takes.
        value: f64,
    },
    /// The column contains `+inf` or `-inf` values.
    NonFiniteColumn {
        /// Offending column.
        name: String,
        /// How many infinite entries were seen.
        count: usize,
    },
    /// Labels are attached but only one class is present.
    SingleClassLabels {
        /// The lone class (0 or 1).
        class: u8,
    },
    /// The minority class rate is below the configured threshold.
    ImbalancedLabels {
        /// Fraction of positive labels.
        positive_rate: f64,
    },
    /// Fewer rows than the bin count the IV stage will request.
    TooFewRows {
        /// Rows available.
        rows: usize,
        /// Bins the pipeline is configured to build.
        bins: usize,
    },
}

impl AuditFinding {
    /// Short machine-readable code for this finding kind, used as the
    /// `name` of telemetry warn events.
    pub fn code(&self) -> &'static str {
        match self {
            AuditFinding::EmptyDataset => "empty-dataset",
            AuditFinding::AllMissingColumn { .. } => "all-missing-column",
            AuditFinding::ConstantColumn { .. } => "constant-column",
            AuditFinding::NonFiniteColumn { .. } => "non-finite-column",
            AuditFinding::SingleClassLabels { .. } => "single-class-labels",
            AuditFinding::ImbalancedLabels { .. } => "imbalanced-labels",
            AuditFinding::TooFewRows { .. } => "too-few-rows",
        }
    }

    /// Severity tier of this finding.
    pub fn severity(&self) -> AuditSeverity {
        match self {
            AuditFinding::EmptyDataset | AuditFinding::SingleClassLabels { .. } => {
                AuditSeverity::Fatal
            }
            AuditFinding::AllMissingColumn { .. }
            | AuditFinding::ConstantColumn { .. }
            | AuditFinding::NonFiniteColumn { .. } => AuditSeverity::Repairable,
            AuditFinding::ImbalancedLabels { .. } | AuditFinding::TooFewRows { .. } => {
                AuditSeverity::Advisory
            }
        }
    }
}

impl fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditFinding::EmptyDataset => write!(f, "dataset has no rows or no columns"),
            AuditFinding::AllMissingColumn { name } => {
                write!(f, "column '{name}' is entirely missing")
            }
            AuditFinding::ConstantColumn { name, value } => {
                write!(f, "column '{name}' is constant (always {value})")
            }
            AuditFinding::NonFiniteColumn { name, count } => {
                write!(f, "column '{name}' has {count} infinite value(s)")
            }
            AuditFinding::SingleClassLabels { class } => {
                write!(f, "labels contain only class {class}")
            }
            AuditFinding::ImbalancedLabels { positive_rate } => {
                write!(f, "labels heavily imbalanced (positive rate {positive_rate:.5})")
            }
            AuditFinding::TooFewRows { rows, bins } => {
                write!(f, "{rows} row(s) is fewer than the {bins} bins the IV stage uses")
            }
        }
    }
}

/// A concrete fix applied by [`AuditReport::repair`].
#[derive(Debug, Clone, PartialEq)]
pub enum RepairAction {
    /// The named column was removed from the dataset.
    DroppedColumn {
        /// Column removed.
        name: String,
        /// Why it was removed (human-readable).
        reason: String,
    },
    /// Infinite values in the named column were replaced with `NaN`
    /// (missing), which every downstream stage handles explicitly.
    ImputedNonFinite {
        /// Column cleaned.
        name: String,
        /// Number of values replaced.
        count: usize,
    },
}

impl fmt::Display for RepairAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairAction::DroppedColumn { name, reason } => {
                write!(f, "dropped column '{name}' ({reason})")
            }
            RepairAction::ImputedNonFinite { name, count } => {
                write!(f, "imputed {count} infinite value(s) in '{name}' to missing")
            }
        }
    }
}

/// Everything the audit pass observed, plus any repairs applied.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AuditReport {
    /// Degenerate conditions detected, in column order.
    pub findings: Vec<AuditFinding>,
    /// Repairs applied (empty unless [`AuditReport::repair`] ran).
    pub actions: Vec<RepairAction>,
}

impl AuditReport {
    /// True when the audit found nothing at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Highest severity among the findings, if any.
    pub fn worst_severity(&self) -> Option<AuditSeverity> {
        self.findings.iter().map(AuditFinding::severity).max()
    }

    /// True when a fatal finding is present.
    pub fn has_fatal(&self) -> bool {
        self.worst_severity() == Some(AuditSeverity::Fatal)
    }

    /// True when any finding is repairable.
    pub fn has_repairable(&self) -> bool {
        self.findings
            .iter()
            .any(|f| f.severity() == AuditSeverity::Repairable)
    }

    /// Apply the repairable findings to `ds`, returning a cleaned copy and
    /// recording each action on `self`.
    ///
    /// All-missing and constant columns are dropped; infinite values are
    /// imputed to `NaN`. Call [`AuditReport::replay`] with the same report
    /// to apply the identical transform to a validation set.
    pub fn repair(&mut self, ds: &Dataset) -> Result<Dataset, DataError> {
        let mut drops: Vec<(String, String)> = Vec::new();
        let mut imputes: BTreeSet<String> = BTreeSet::new();
        for finding in &self.findings {
            match finding {
                AuditFinding::AllMissingColumn { name } => {
                    drops.push((name.clone(), "entirely missing".into()));
                }
                AuditFinding::ConstantColumn { name, .. } => {
                    drops.push((name.clone(), "constant".into()));
                }
                AuditFinding::NonFiniteColumn { name, .. } => {
                    imputes.insert(name.clone());
                }
                _ => {}
            }
        }
        // A dropped column never needs imputation as well.
        for (name, _) in &drops {
            imputes.remove(name);
        }
        for (name, reason) in &drops {
            self.actions.push(RepairAction::DroppedColumn {
                name: name.clone(),
                reason: reason.clone(),
            });
        }
        let drop_set: BTreeSet<&str> = drops.iter().map(|(n, _)| n.as_str()).collect();
        let mut out = Dataset::with_rows(ds.n_rows());
        for (i, meta) in ds.meta().iter().enumerate() {
            if drop_set.contains(meta.name.as_str()) {
                continue;
            }
            if imputes.contains(&meta.name) {
                // Imputation rewrites values, so the column is gathered
                // (one column of scratch — the out-of-core contract).
                let mut cleaned = Vec::new();
                ds.column_view(i)?.gather_into(&mut cleaned)?;
                let mut count = 0usize;
                for v in &mut cleaned {
                    if v.is_infinite() {
                        *v = f64::NAN;
                        count += 1;
                    }
                }
                self.actions.push(RepairAction::ImputedNonFinite {
                    name: meta.name.clone(),
                    count,
                });
                out.push_column(meta.clone(), cleaned)?;
            } else {
                // Untouched columns share storage — chunked stays chunked.
                out.push_column_from(ds, i)?;
            }
        }
        if let Some(labels) = ds.labels() {
            out.set_labels(labels.to_vec())?;
        }
        Ok(out)
    }

    /// Replay the recorded [`RepairAction`]s on another dataset with the
    /// same schema (e.g. the validation set), so train and valid stay
    /// column-aligned. Columns named in the actions but absent from `ds`
    /// are ignored.
    pub fn replay(&self, ds: &Dataset) -> Result<Dataset, DataError> {
        let mut drop_set: BTreeSet<&str> = BTreeSet::new();
        let mut impute_set: BTreeSet<&str> = BTreeSet::new();
        for action in &self.actions {
            match action {
                RepairAction::DroppedColumn { name, .. } => {
                    drop_set.insert(name.as_str());
                }
                RepairAction::ImputedNonFinite { name, .. } => {
                    impute_set.insert(name.as_str());
                }
            }
        }
        if drop_set.is_empty() && impute_set.is_empty() {
            return Ok(ds.clone());
        }
        let mut out = Dataset::with_rows(ds.n_rows());
        for (i, meta) in ds.meta().iter().enumerate() {
            if drop_set.contains(meta.name.as_str()) {
                continue;
            }
            if impute_set.contains(meta.name.as_str()) {
                let mut cleaned = Vec::new();
                ds.column_view(i)?.gather_into(&mut cleaned)?;
                for v in &mut cleaned {
                    if v.is_infinite() {
                        *v = f64::NAN;
                    }
                }
                out.push_column(meta.clone(), cleaned)?;
            } else {
                out.push_column_from(ds, i)?;
            }
        }
        if let Some(labels) = ds.labels() {
            out.set_labels(labels.to_vec())?;
        }
        Ok(out)
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "audit clean");
        }
        write!(f, "{} finding(s):", self.findings.len())?;
        for finding in &self.findings {
            write!(f, "\n  [{:?}] {finding}", finding.severity())?;
        }
        for action in &self.actions {
            write!(f, "\n  repair: {action}")?;
        }
        Ok(())
    }
}

/// The audit rejected the dataset (fatal findings, or any non-advisory
/// finding under [`AuditPolicy::Reject`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AuditError {
    /// The full report behind the rejection.
    pub report: AuditReport,
    /// Policy that was in force.
    pub policy: AuditPolicy,
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "data audit rejected the dataset ({:?} policy): {}", self.policy, self.report)
    }
}

impl std::error::Error for AuditError {}

/// Scan `ds` for degenerate conditions. Pure inspection — no policy is
/// applied and nothing is modified.
pub fn audit(ds: &Dataset, cfg: &AuditConfig) -> AuditReport {
    let mut findings = Vec::new();
    if ds.is_empty() {
        findings.push(AuditFinding::EmptyDataset);
        return AuditReport { findings, actions: Vec::new() };
    }
    for (view, meta) in ds.column_views().zip(ds.meta()) {
        let mut first: Option<f64> = None;
        let mut constant = true;
        let mut n_present = 0usize;
        let mut n_inf = 0usize;
        // One sequential pass in row order — chunk streaming visits the
        // same elements in the same order as the resident slice, so the
        // verdicts are identical on both backends. A spill-read failure
        // aborts the scan of this column early; the same fault then
        // surfaces as a hard error on the first gather path, so nothing is
        // silently misclassified downstream.
        let _ = view.for_each_chunk(0..ds.n_rows(), &mut |chunk| {
            for &v in chunk {
                if v.is_nan() {
                    continue;
                }
                if v.is_infinite() {
                    n_inf += 1;
                }
                n_present += 1;
                match first {
                    None => first = Some(v),
                    Some(head) => {
                        if v != head {
                            constant = false;
                        }
                    }
                }
            }
        });
        if n_present == 0 {
            findings.push(AuditFinding::AllMissingColumn { name: meta.name.clone() });
        } else if constant {
            findings.push(AuditFinding::ConstantColumn {
                name: meta.name.clone(),
                value: first.unwrap_or(f64::NAN),
            });
        } else if n_inf > 0 {
            findings.push(AuditFinding::NonFiniteColumn {
                name: meta.name.clone(),
                count: n_inf,
            });
        }
    }
    if let Some(labels) = ds.labels() {
        let positives = labels.iter().filter(|&&l| l == 1).count();
        if positives == 0 || positives == labels.len() {
            findings.push(AuditFinding::SingleClassLabels {
                class: if positives == 0 { 0 } else { 1 },
            });
        } else {
            let rate = positives as f64 / labels.len() as f64;
            let minority = rate.min(1.0 - rate);
            if minority < cfg.imbalance_threshold {
                findings.push(AuditFinding::ImbalancedLabels { positive_rate: rate });
            }
        }
    }
    if ds.n_rows() < cfg.expected_bins {
        findings.push(AuditFinding::TooFewRows {
            rows: ds.n_rows(),
            bins: cfg.expected_bins,
        });
    }
    AuditReport { findings, actions: Vec::new() }
}

/// Audit `ds` and enforce `cfg.policy`.
///
/// Returns the report plus, under [`AuditPolicy::Repair`], a cleaned copy
/// of the dataset (`None` when no repair was needed or the policy doesn't
/// repair). Fatal findings reject under every policy; repairable findings
/// reject only under [`AuditPolicy::Reject`]. A repair that leaves zero
/// usable columns is escalated to fatal.
pub fn enforce(ds: &Dataset, cfg: &AuditConfig) -> Result<(AuditReport, Option<Dataset>), AuditError> {
    let mut report = audit(ds, cfg);
    if report.has_fatal() {
        return Err(AuditError { report, policy: cfg.policy });
    }
    match cfg.policy {
        AuditPolicy::Reject => {
            if report.has_repairable() {
                return Err(AuditError { report, policy: cfg.policy });
            }
            Ok((report, None))
        }
        AuditPolicy::Warn => Ok((report, None)),
        AuditPolicy::Repair => {
            if !report.has_repairable() {
                return Ok((report, None));
            }
            let repaired = report.repair(ds).map_err(|e| AuditError {
                report: AuditReport {
                    findings: report.findings.clone(),
                    actions: vec![RepairAction::DroppedColumn {
                        name: "<repair failed>".into(),
                        reason: e.to_string(),
                    }],
                },
                policy: cfg.policy,
            })?;
            if repaired.n_cols() == 0 {
                report.findings.push(AuditFinding::EmptyDataset);
                return Err(AuditError { report, policy: cfg.policy });
            }
            Ok((report, Some(repaired)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labelled(cols: Vec<(&str, Vec<f64>)>, labels: Vec<u8>) -> Dataset {
        let names = cols.iter().map(|(n, _)| n.to_string()).collect();
        let values = cols.into_iter().map(|(_, v)| v).collect();
        Dataset::from_columns(names, values, Some(labels)).unwrap()
    }

    #[test]
    fn enforce_warn_policy_reports_findings_and_keeps_the_data() {
        let ds = labelled(
            vec![
                ("sig", (0..10).map(|i| i as f64).collect()),
                ("konst", vec![3.0; 10]),
            ],
            vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
        );
        let (report, repaired) = enforce(&ds, &AuditConfig::default()).unwrap();
        assert!(repaired.is_none(), "warn policy never rewrites the data");
        assert!(report.actions.is_empty());
        assert!(report
            .findings
            .iter()
            .any(|f| f.code() == "constant-column" && f.to_string().contains("konst")));
    }

    #[test]
    fn clean_dataset_has_no_findings() {
        let ds = labelled(
            vec![("a", vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])],
            vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
        );
        let report = audit(&ds, &AuditConfig::default());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn detects_constant_and_all_missing_columns() {
        let ds = labelled(
            vec![
                ("const", vec![7.0; 12]),
                ("dead", vec![f64::NAN; 12]),
                ("ok", (0..12).map(|i| i as f64).collect()),
            ],
            (0..12).map(|i| (i % 2) as u8).collect(),
        );
        let report = audit(&ds, &AuditConfig::default());
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, AuditFinding::ConstantColumn { name, .. } if name == "const")));
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, AuditFinding::AllMissingColumn { name } if name == "dead")));
        assert_eq!(report.worst_severity(), Some(AuditSeverity::Repairable));
    }

    #[test]
    fn detects_infinities_and_single_class() {
        let mut col: Vec<f64> = (0..12).map(|i| i as f64).collect();
        col[3] = f64::INFINITY;
        col[7] = f64::NEG_INFINITY;
        let ds = labelled(vec![("x", col)], vec![1; 12]);
        let report = audit(&ds, &AuditConfig::default());
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, AuditFinding::NonFiniteColumn { count: 2, .. })));
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, AuditFinding::SingleClassLabels { class: 1 })));
        assert!(report.has_fatal());
    }

    #[test]
    fn advisory_findings_for_imbalance_and_small_data() {
        let n = 500;
        let mut labels = vec![0u8; n];
        labels[0] = 1; // 0.2% positive
        let ds = labelled(vec![("x", (0..n).map(|i| i as f64).collect())], labels);
        let report = audit(&ds, &AuditConfig::default());
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, AuditFinding::ImbalancedLabels { .. })));
        assert_eq!(report.worst_severity(), Some(AuditSeverity::Advisory));

        let tiny = labelled(
            vec![("x", vec![1.0, 2.0, 3.0, 4.0])],
            vec![0, 1, 0, 1],
        );
        let report = audit(&tiny, &AuditConfig::default());
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, AuditFinding::TooFewRows { rows: 4, bins: 10 })));
    }

    #[test]
    fn repair_drops_and_imputes_then_replays_on_valid() {
        let mut inf_col: Vec<f64> = (0..12).map(|i| i as f64).collect();
        inf_col[5] = f64::INFINITY;
        let train = labelled(
            vec![
                ("const", vec![3.0; 12]),
                ("inf", inf_col),
                ("ok", (0..12).map(|i| (i * i) as f64).collect()),
            ],
            (0..12).map(|i| (i % 2) as u8).collect(),
        );
        let cfg = AuditConfig { policy: AuditPolicy::Repair, ..AuditConfig::default() };
        let (report, repaired) = enforce(&train, &cfg).unwrap();
        let repaired = repaired.expect("repairs applied");
        assert_eq!(repaired.n_cols(), 2);
        assert!(repaired.column_by_name("const").is_err());
        assert!(repaired.column_by_name("inf").unwrap().iter().all(|v| !v.is_infinite()));
        assert_eq!(repaired.labels(), train.labels());
        assert!(report.actions.iter().any(|a| matches!(
            a,
            RepairAction::DroppedColumn { name, .. } if name == "const"
        )));
        assert!(report.actions.iter().any(|a| matches!(
            a,
            RepairAction::ImputedNonFinite { name, count: 1 } if name == "inf"
        )));

        // Same schema valid set gets the identical treatment.
        let valid = labelled(
            vec![
                ("const", vec![3.0; 4]),
                ("inf", vec![1.0, f64::NEG_INFINITY, 3.0, 4.0]),
                ("ok", vec![9.0, 9.5, 10.0, 10.5]),
            ],
            vec![0, 1, 0, 1],
        );
        let valid_fixed = report.replay(&valid).unwrap();
        assert_eq!(valid_fixed.n_cols(), 2);
        assert_eq!(valid_fixed.feature_names(), repaired.feature_names());
        assert!(valid_fixed.column_by_name("inf").unwrap()[1].is_nan());
    }

    #[test]
    fn reject_policy_refuses_repairable_findings() {
        let ds = labelled(
            vec![("const", vec![1.0; 12]), ("ok", (0..12).map(|i| i as f64).collect())],
            (0..12).map(|i| (i % 2) as u8).collect(),
        );
        let cfg = AuditConfig { policy: AuditPolicy::Reject, ..AuditConfig::default() };
        let err = enforce(&ds, &cfg).unwrap_err();
        assert!(err.to_string().contains("const"));
        // Warn lets the same dataset through.
        let cfg = AuditConfig { policy: AuditPolicy::Warn, ..AuditConfig::default() };
        let (report, repaired) = enforce(&ds, &cfg).unwrap();
        assert!(repaired.is_none());
        assert!(!report.is_clean());
    }

    #[test]
    fn empty_dataset_is_fatal_under_every_policy() {
        let ds = Dataset::with_rows(0);
        for policy in [AuditPolicy::Reject, AuditPolicy::Warn, AuditPolicy::Repair] {
            let cfg = AuditConfig { policy, ..AuditConfig::default() };
            assert!(enforce(&ds, &cfg).is_err());
        }
    }

    #[test]
    fn repair_leaving_no_columns_is_fatal() {
        let ds = labelled(
            vec![("const", vec![2.0; 12])],
            (0..12).map(|i| (i % 2) as u8).collect(),
        );
        let cfg = AuditConfig { policy: AuditPolicy::Repair, ..AuditConfig::default() };
        let err = enforce(&ds, &cfg).unwrap_err();
        assert!(err.report.has_fatal());
    }
}
