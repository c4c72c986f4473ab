//! `safe-cli bench-diff old.json new.json` — the bench regression gate.
//!
//! Compares two `BENCH_pipeline.json` documents section by section and
//! fails (exit code 8) when any timing metric regressed by more than the
//! `--fail-over` percentage. Each known section contributes one timing
//! metric per row, keyed by the row's identity columns:
//!
//! | section      | row key                                  | metric        |
//! |--------------|------------------------------------------|---------------|
//! | `stages`     | dataset, iteration, stage                | `millis`      |
//! | `parallel`   | dataset, threads                         | `secs`        |
//! | `serving`    | dataset, method, threads, batch_size     | `secs`        |
//! | `serving_daemon` | dataset, workers, max_batch          | `secs`        |
//! | `resilience` | dataset, iteration                      | `ckpt_micros` |
//! | `selection`  | dataset, mode                            | `combined_millis` |
//!
//! Rows present in only one document are reported but never fail the gate
//! (benchmarks grow sections over time). Unknown sections are ignored, so
//! the gate keeps working against documents written by a newer harness
//! (`schema_version` forward compatibility). Tiny absolute timings sit
//! below a per-section noise floor and never fail the gate either: a 0.2ms
//! stage doubling to 0.4ms is scheduler jitter, not a regression.

use safe_obs::json::{self, Value};

use crate::error::CliError;

/// Default `--fail-over` threshold: a metric may grow by up to this many
/// percent before the gate trips.
pub const DEFAULT_FAIL_OVER_PCT: f64 = 20.0;

/// One compared metric: the same row key in both documents.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Section the row came from.
    pub section: &'static str,
    /// Rendered row key, e.g. `dataset=toy iteration=0 stage=gbm-train`.
    pub key: String,
    /// Metric field name (`millis`, `secs`, `ckpt_micros`, ...).
    pub metric: &'static str,
    /// Value in the old (baseline) document.
    pub old: f64,
    /// Value in the new (candidate) document.
    pub new: f64,
    /// `100 · (new − old) / old`; `0` when old is zero.
    pub delta_pct: f64,
    /// True when this row trips the gate.
    pub regressed: bool,
}

/// The full comparison: every matched row plus bookkeeping about rows that
/// could not be matched.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Matched rows, in section then key order.
    pub rows: Vec<DiffRow>,
    /// Row keys present only in the old document.
    pub only_old: usize,
    /// Row keys present only in the new document.
    pub only_new: usize,
}

impl DiffReport {
    /// Rows that tripped the gate.
    pub fn regressions(&self) -> impl Iterator<Item = &DiffRow> {
        self.rows.iter().filter(|r| r.regressed)
    }
}

/// Per-section comparison recipe: identity columns, the timing metric, and
/// the absolute noise floor below which growth never counts (in the
/// metric's own unit).
struct SectionSpec {
    section: &'static str,
    key_fields: &'static [&'static str],
    metric: &'static str,
    noise_floor: f64,
}

const SECTIONS: &[SectionSpec] = &[
    SectionSpec {
        section: "stages",
        key_fields: &["dataset", "iteration", "stage"],
        metric: "millis",
        noise_floor: 5.0,
    },
    SectionSpec {
        section: "parallel",
        key_fields: &["dataset", "threads"],
        metric: "secs",
        noise_floor: 0.05,
    },
    SectionSpec {
        section: "serving",
        key_fields: &["dataset", "method", "threads", "batch_size"],
        metric: "secs",
        noise_floor: 0.05,
    },
    SectionSpec {
        // Gated on wall secs: the row also carries log2-bucketed latency
        // quantiles, but bucket upper bounds jump 2x between buckets and
        // would trip (or hide behind) any percentage threshold.
        section: "serving_daemon",
        key_fields: &["dataset", "workers", "max_batch"],
        metric: "secs",
        noise_floor: 0.05,
    },
    SectionSpec {
        section: "resilience",
        key_fields: &["dataset", "iteration"],
        metric: "ckpt_micros",
        noise_floor: 5_000.0,
    },
    SectionSpec {
        section: "selection",
        key_fields: &["dataset", "mode"],
        metric: "combined_millis",
        noise_floor: 5.0,
    },
];

/// Render a row's identity columns as a stable `k=v` key.
fn row_key(row: &Value, fields: &[&str]) -> Option<String> {
    let mut parts = Vec::with_capacity(fields.len());
    for field in fields {
        let v = row.get(field)?;
        let rendered = match v.as_str() {
            Some(s) => s.to_string(),
            None => {
                let n = v.as_f64()?;
                if n.fract() == 0.0 {
                    format!("{}", n as i64)
                } else {
                    format!("{n}")
                }
            }
        };
        parts.push(format!("{field}={rendered}"));
    }
    Some(parts.join(" "))
}

/// Extract `(key, metric)` pairs for one section of one document. A
/// missing or garbled section yields no pairs (the gate only compares what
/// both documents actually carry).
fn section_metrics(doc: &Value, spec: &SectionSpec) -> Vec<(String, f64)> {
    let Some(rows) = doc.get(spec.section).and_then(Value::as_array) else {
        return Vec::new();
    };
    rows.iter()
        .filter_map(|row| {
            let key = row_key(row, spec.key_fields)?;
            let value = row.get(spec.metric)?.as_f64()?;
            Some((key, value))
        })
        .collect()
}

/// Compare two parsed `BENCH_pipeline.json` documents. `fail_over_pct` is
/// the allowed growth; a matched metric regresses when it grows past the
/// threshold AND its new value clears the section's absolute noise floor.
pub fn diff_documents(old: &Value, new: &Value, fail_over_pct: f64) -> DiffReport {
    let mut report = DiffReport::default();
    for spec in SECTIONS {
        let old_rows = section_metrics(old, spec);
        let new_rows = section_metrics(new, spec);
        for (key, old_v) in &old_rows {
            let Some((_, new_v)) = new_rows.iter().find(|(k, _)| k == key) else {
                report.only_old += 1;
                continue;
            };
            let delta_pct = if *old_v > 0.0 {
                100.0 * (new_v - old_v) / old_v
            } else {
                0.0
            };
            let regressed = delta_pct > fail_over_pct && *new_v > spec.noise_floor;
            report.rows.push(DiffRow {
                section: spec.section,
                key: key.clone(),
                metric: spec.metric,
                old: *old_v,
                new: *new_v,
                delta_pct,
                regressed,
            });
        }
        report.only_new += new_rows
            .iter()
            .filter(|(k, _)| !old_rows.iter().any(|(ok, _)| ok == k))
            .count();
    }
    report
}

/// Load, compare, print, and gate. Returns `CliError::BenchRegression`
/// (exit 8) when any metric tripped the gate.
pub fn run(old_path: &str, new_path: &str, fail_over_pct: f64) -> Result<(), CliError> {
    let load = |path: &str| -> Result<Value, CliError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
        json::parse(&text).map_err(|e| CliError::Data(format!("{path}: invalid JSON: {e}")))
    };
    let old = load(old_path)?;
    let new = load(new_path)?;
    let report = diff_documents(&old, &new, fail_over_pct);

    for row in &report.rows {
        let mark = if row.regressed { " REGRESSED" } else { "" };
        println!(
            "{:<10} {:<55} {:>12} {:>12.3} -> {:>12.3} ({:+.1}%){mark}",
            row.section, row.key, row.metric, row.old, row.new, row.delta_pct
        );
    }
    if report.only_old > 0 || report.only_new > 0 {
        eprintln!(
            "note: {} row(s) only in {old_path}, {} only in {new_path} (not compared)",
            report.only_old, report.only_new
        );
    }
    let regressions: Vec<&DiffRow> = report.regressions().collect();
    if regressions.is_empty() {
        println!(
            "bench-diff: {} metric(s) compared, none regressed past {fail_over_pct}%",
            report.rows.len()
        );
        return Ok(());
    }
    let detail: Vec<String> = regressions
        .iter()
        .map(|r| {
            format!(
                "{} [{}] {}: {:.3} -> {:.3} ({:+.1}% > {fail_over_pct}%)",
                r.section, r.key, r.metric, r.old, r.new, r.delta_pct
            )
        })
        .collect();
    Err(CliError::BenchRegression(format!(
        "{} of {} metric(s) regressed past {fail_over_pct}%:\n  {}",
        regressions.len(),
        report.rows.len(),
        detail.join("\n  ")
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Value {
        json::parse(text).unwrap()
    }

    #[test]
    fn identical_documents_have_no_regressions() {
        let text = r#"{"stages":[{"dataset":"toy","iteration":0,"stage":"gbm-train","millis":120.0}],
                       "parallel":[{"dataset":"toy","threads":4,"secs":2.5}]}"#;
        let report = diff_documents(&doc(text), &doc(text), 20.0);
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.regressions().count(), 0);
        assert_eq!(report.only_old + report.only_new, 0);
    }

    #[test]
    fn regression_past_threshold_is_flagged() {
        let old = doc(r#"{"stages":[{"dataset":"toy","iteration":0,"stage":"gbm-train","millis":100.0}]}"#);
        let new = doc(r#"{"stages":[{"dataset":"toy","iteration":0,"stage":"gbm-train","millis":150.0}]}"#);
        let report = diff_documents(&old, &new, 20.0);
        let regs: Vec<&DiffRow> = report.regressions().collect();
        assert_eq!(regs.len(), 1);
        assert!((regs[0].delta_pct - 50.0).abs() < 1e-9);
        // A looser threshold lets the same growth through.
        assert_eq!(diff_documents(&old, &new, 60.0).regressions().count(), 0);
    }

    #[test]
    fn noise_floor_suppresses_tiny_timings() {
        // 0.2ms -> 0.6ms is a 200% jump but far below the 5ms stage floor.
        let old = doc(r#"{"stages":[{"dataset":"toy","iteration":0,"stage":"iv-filter","millis":0.2}]}"#);
        let new = doc(r#"{"stages":[{"dataset":"toy","iteration":0,"stage":"iv-filter","millis":0.6}]}"#);
        assert_eq!(diff_documents(&old, &new, 20.0).regressions().count(), 0);
    }

    #[test]
    fn unmatched_rows_and_unknown_sections_never_fail() {
        let old = doc(r#"{"stages":[{"dataset":"a","iteration":0,"stage":"s","millis":50.0}],
                          "future_section":[{"x":1}]}"#);
        let new = doc(r#"{"stages":[{"dataset":"b","iteration":0,"stage":"s","millis":5000.0}],
                          "other_future":[{"y":2}]}"#);
        let report = diff_documents(&old, &new, 20.0);
        assert_eq!(report.rows.len(), 0);
        assert_eq!(report.only_old, 1);
        assert_eq!(report.only_new, 1);
        assert_eq!(report.regressions().count(), 0);
    }

    #[test]
    fn serving_daemon_section_is_gated_on_secs() {
        // secs regressed 50% -> trips; the p99 column regressing alone
        // would not (quantiles are informational, not gated).
        let old = doc(
            r#"{"serving_daemon":[{"dataset":"synth-daemon","workers":2,"max_batch":256,
                "secs":2.0,"request_p99_us":512}]}"#,
        );
        let new = doc(
            r#"{"serving_daemon":[{"dataset":"synth-daemon","workers":2,"max_batch":256,
                "secs":3.0,"request_p99_us":4096}]}"#,
        );
        let report = diff_documents(&old, &new, 20.0);
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].metric, "secs");
        assert_eq!(report.regressions().count(), 1);
        // Same quantile blow-up with flat secs: nothing trips.
        let flat = doc(
            r#"{"serving_daemon":[{"dataset":"synth-daemon","workers":2,"max_batch":256,
                "secs":2.0,"request_p99_us":4096}]}"#,
        );
        assert_eq!(diff_documents(&old, &flat, 20.0).regressions().count(), 0);
    }

    #[test]
    fn selection_section_is_gated() {
        let old = doc(r#"{"selection":[{"dataset":"gina","mode":"staged","combined_millis":500.0}]}"#);
        let new = doc(r#"{"selection":[{"dataset":"gina","mode":"staged","combined_millis":900.0}]}"#);
        let report = diff_documents(&old, &new, 20.0);
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.regressions().count(), 1);
    }

    #[test]
    fn improvement_never_trips_the_gate() {
        let old = doc(r#"{"parallel":[{"dataset":"toy","threads":1,"secs":10.0}]}"#);
        let new = doc(r#"{"parallel":[{"dataset":"toy","threads":1,"secs":3.0}]}"#);
        let report = diff_documents(&old, &new, 20.0);
        assert_eq!(report.regressions().count(), 0);
        assert!(report.rows[0].delta_pct < 0.0);
    }
}
