//! # safe-bench — the experiment harness
//!
//! One binary per table/figure of the paper (run with
//! `cargo run --release -p safe-bench --bin <name>`):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1_iv_bands` | Table I (IV predictive-power bands) |
//! | `table2_pearson_bands` | Table II (Pearson strength bands) |
//! | `table3_classification` | Table III (AUC: 6 methods × 9 classifiers × 12 datasets) |
//! | `table4_datasets` | Table IV (benchmark dataset info) |
//! | `table5_execution_time` | Table V (FE method wall-clock) |
//! | `table6_stability` | Table VI (feature stability, JSD) |
//! | `table7_business_datasets` | Table VII (business dataset info) |
//! | `table8_business` | Table VIII (business AUC: 4 methods × 3 classifiers) |
//! | `fig3_feature_importance` | Fig. 3 (generated vs original importance) |
//! | `fig4_iterations` | Fig. 4 (AUC over SAFE iterations) |
//! | `complexity_sweep` | §IV-D (SAFE runtime vs N and vs K) |
//!
//! Common flags: `--scale <f>` (fraction of the paper's row counts, default
//! varies per binary), `--seed <u64>`, `--datasets a,b,c`, `--repeats <n>`.
//! This module holds the shared plumbing: method roster, evaluation loops,
//! flag parsing, table formatting.

use std::time::{Duration, Instant};

use safe_baselines::{AutoLearn, FcTree, Tfc};
use safe_core::engineer::{FeatureEngineer, Identity};
use safe_core::{Safe, SafeConfig, SelectionMode};
use safe_data::dataset::Dataset;
use safe_data::split::DatasetSplit;
use safe_datagen::benchmarks::BenchmarkId;
use safe_models::classifier::ClassifierKind;

/// The six feature-engineering methods of Table III, in column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Original features, untouched.
    Orig,
    /// FCTree (Fan et al., 2010).
    Fct,
    /// TFC (Piramuthu & Sikora, 2009).
    Tfc,
    /// Random combinations over all features.
    Rand,
    /// Random combinations over GBM split features.
    Imp,
    /// The paper's method.
    Safe,
    /// AutoLearn (Kaul et al., 2017) — not in the paper's Table III roster,
    /// available via `--methods autolearn` as an extension.
    AutoLearn,
}

impl Method {
    /// Table III column order.
    pub const ALL: [Method; 6] = [
        Method::Orig,
        Method::Fct,
        Method::Tfc,
        Method::Rand,
        Method::Imp,
        Method::Safe,
    ];

    /// Column header as printed in the paper.
    pub fn label(self) -> &'static str {
        match self {
            Method::Orig => "ORIG",
            Method::Fct => "FCT",
            Method::Tfc => "TFC",
            Method::Rand => "RAND",
            Method::Imp => "IMP",
            Method::Safe => "SAFE",
            Method::AutoLearn => "AUTOL",
        }
    }

    /// Parse one method name.
    pub fn parse(s: &str) -> Option<Method> {
        match s.to_ascii_uppercase().as_str() {
            "ORIG" => Some(Method::Orig),
            "FCT" | "FCTREE" => Some(Method::Fct),
            "TFC" => Some(Method::Tfc),
            "RAND" => Some(Method::Rand),
            "IMP" => Some(Method::Imp),
            "SAFE" => Some(Method::Safe),
            "AUTOL" | "AUTOLEARN" => Some(Method::AutoLearn),
            _ => None,
        }
    }

    /// Build the engineer with paper-default settings.
    pub fn build(self, seed: u64) -> Box<dyn FeatureEngineer> {
        match self {
            Method::Orig => Box::new(Identity),
            Method::Fct => Box::new(FcTree { seed, ..FcTree::default() }),
            Method::Tfc => Box::new(Tfc::default()),
            Method::Rand => Box::new(Safe::new(SafeConfig::rand_baseline(seed))),
            Method::Imp => Box::new(Safe::new(SafeConfig::imp_baseline(seed))),
            Method::Safe => Box::new(Safe::new(
                SafeConfig::builder()
                    .seed(seed)
                    .build()
                    .unwrap_or_else(|e| unreachable!("paper defaults validate: {e}")),
            )),
            Method::AutoLearn => Box::new(AutoLearn { seed, ..AutoLearn::default() }),
        }
    }
}

/// One FE method's output on a split, with the fit timed (Table V).
pub struct EngineeredSplit {
    /// Transformed training set.
    pub train: Dataset,
    /// Transformed validation set (when the split had one).
    pub valid: Option<Dataset>,
    /// Transformed test set.
    pub test: Dataset,
    /// Wall-clock time of plan learning (excludes transformation).
    pub fit_time: Duration,
    /// The learned plan.
    pub plan: safe_core::plan::FeaturePlan,
}

/// Run one FE method on a split.
pub fn engineer_split(
    method: Method,
    split: &DatasetSplit,
    seed: u64,
) -> Result<EngineeredSplit, String> {
    let engineer = method.build(seed);
    let start = Instant::now();
    let plan = engineer.engineer(&split.train, split.valid.as_ref())?;
    let fit_time = start.elapsed();
    let train = plan.apply(&split.train).map_err(|e| e.to_string())?;
    let valid = match &split.valid {
        Some(v) => Some(plan.apply(v).map_err(|e| e.to_string())?),
        None => None,
    };
    let test = plan.apply(&split.test).map_err(|e| e.to_string())?;
    Ok(EngineeredSplit {
        train,
        valid,
        test,
        fit_time,
        plan,
    })
}

/// Train a classifier on the engineered train split and report test AUC
/// (× 100, the paper's convention).
pub fn auc100(kind: ClassifierKind, eng: &EngineeredSplit, seed: u64) -> Result<f64, String> {
    safe_models::classifier::evaluate_auc(kind, &eng.train, &eng.test, seed)
        .map(|a| a * 100.0)
        .map_err(|e| e.to_string())
}

/// Tiny flag parser: `--name value` pairs from `std::env::args`.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    args: Vec<(String, String)>,
}

impl Flags {
    /// Parse the process arguments.
    pub fn from_env() -> Flags {
        Flags::from_list(std::env::args().skip(1).collect())
    }

    /// Parse an explicit list (testable).
    pub fn from_list(raw: Vec<String>) -> Flags {
        let mut args = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            if let Some(name) = raw[i].strip_prefix("--") {
                let value = raw.get(i + 1).cloned().unwrap_or_default();
                args.push((name.to_string(), value));
                i += 2;
            } else {
                i += 1;
            }
        }
        Flags { args }
    }

    /// Raw string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.args
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parsed flag with default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Comma-separated dataset selection (default: all 12).
    pub fn datasets(&self) -> Vec<BenchmarkId> {
        match self.get("datasets") {
            None => BenchmarkId::ALL.to_vec(),
            Some(spec) => {
                let wanted: Vec<String> =
                    spec.split(',').map(|s| s.trim().to_lowercase()).collect();
                BenchmarkId::ALL
                    .into_iter()
                    .filter(|b| wanted.iter().any(|w| w == b.spec().name))
                    .collect()
            }
        }
    }

    /// Comma-separated method selection (default: all 6).
    pub fn methods(&self) -> Vec<Method> {
        match self.get("methods") {
            None => Method::ALL.to_vec(),
            Some(spec) => spec.split(',').filter_map(Method::parse).collect(),
        }
    }

    /// Comma-separated classifier selection (default: all 9).
    pub fn classifiers(&self) -> Vec<ClassifierKind> {
        match self.get("classifiers") {
            None => ClassifierKind::ALL.to_vec(),
            Some(spec) => {
                let wanted: Vec<String> =
                    spec.split(',').map(|s| s.trim().to_lowercase()).collect();
                ClassifierKind::ALL
                    .into_iter()
                    .filter(|k| wanted.iter().any(|w| w == &k.abbrev().to_lowercase()))
                    .collect()
            }
        }
    }
}

/// Fixed-width table printer (plain text, paper-style).
pub struct TablePrinter {
    widths: Vec<usize>,
}

impl TablePrinter {
    /// Create with column headers; prints the header row immediately.
    pub fn new(headers: &[&str], widths: &[usize]) -> TablePrinter {
        let p = TablePrinter {
            widths: widths.to_vec(),
        };
        p.row(headers);
        let total: usize = p.widths.iter().sum::<usize>() + p.widths.len();
        println!("{}", "-".repeat(total));
        p
    }

    /// Print one row.
    pub fn row(&self, cells: &[&str]) {
        let line: Vec<String> = cells
            .iter()
            .zip(&self.widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", line.join(" "));
    }
}

/// Format an AUC×100 cell like the paper ("87.16").
pub fn fmt_auc(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a duration in seconds like Table V ("9.80").
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Fit SAFE on a split with the report machinery engaged and return the
/// per-stage run report (telemetry never alters the fit itself).
pub fn traced_safe_report(
    split: &DatasetSplit,
    seed: u64,
) -> Result<safe_obs::RunReport, String> {
    let config = SafeConfig::builder().seed(seed).build()?;
    Safe::new(config)
        .fit(&split.train, split.valid.as_ref())
        .map(|outcome| outcome.report)
        .map_err(|e| e.to_string())
}

/// One row of `BENCH_pipeline.json`: a stage of one SAFE iteration on one
/// dataset.
#[derive(Debug, Clone)]
pub struct PipelineRow {
    /// Benchmark dataset name.
    pub dataset: String,
    /// SAFE iteration index.
    pub iteration: usize,
    /// Stage name from the `safe_obs::stages` vocabulary.
    pub stage: String,
    /// Stage wall time in milliseconds.
    pub millis: f64,
    /// Feature count entering the stage (0 where not applicable).
    pub features_in: u64,
    /// Feature count leaving the stage (0 where not applicable).
    pub features_out: u64,
}

/// Flatten a run report into `BENCH_pipeline.json` rows for one dataset.
pub fn pipeline_rows(dataset: &str, report: &safe_obs::RunReport) -> Vec<PipelineRow> {
    let mut rows = Vec::new();
    for it in &report.iterations {
        for st in &it.stages {
            rows.push(PipelineRow {
                dataset: dataset.to_string(),
                iteration: it.iteration,
                stage: st.stage.clone(),
                millis: st.micros as f64 / 1000.0,
                features_in: st.features_in,
                features_out: st.features_out,
            });
        }
    }
    rows
}

/// One row of the `parallel` section of `BENCH_pipeline.json`: one
/// end-to-end SAFE fit at a fixed worker budget on the sweep dataset.
#[derive(Debug, Clone)]
pub struct ParallelRow {
    /// Sweep dataset name.
    pub dataset: String,
    /// Worker budget for the fit (`1` = the serial path).
    pub threads: usize,
    /// End-to-end fit wall time in seconds.
    pub secs: f64,
    /// `serial secs / this row's secs` (1.0 for the serial row itself).
    pub speedup_vs_serial: f64,
}

/// Time one end-to-end SAFE fit at a fixed worker budget (the `parallel`
/// sweep of Table V). Returns the fit wall time in seconds.
pub fn timed_safe_fit(data: &Dataset, seed: u64, threads: usize) -> Result<f64, String> {
    let config = SafeConfig::builder().seed(seed).threads(threads).build()?;
    let start = Instant::now();
    Safe::new(config)
        .fit(data, None)
        .map_err(|e| e.to_string())?;
    Ok(start.elapsed().as_secs_f64())
}

/// One row of the `resilience` section of `BENCH_pipeline.json`: what the
/// durable checkpoint write after one SAFE iteration cost, against that
/// iteration's total wall time. Checkpoint telemetry is sink-only (it never
/// lands in the `RunReport`), so the rows come from the raw event stream of
/// a checkpointed fit.
#[derive(Debug, Clone)]
pub struct ResilienceRow {
    /// Sweep dataset name.
    pub dataset: String,
    /// SAFE iteration index the snapshot closed.
    pub iteration: usize,
    /// Serialized `SAFECKPT` document size on disk.
    pub ckpt_bytes: u64,
    /// Wall micros of the checkpoint span (serialize + write + fsync +
    /// rename).
    pub ckpt_micros: u64,
    /// Wall micros of the whole iteration the snapshot covers.
    pub iteration_micros: u64,
    /// `100 · ckpt_micros / iteration_micros` — the durability tax.
    pub overhead_pct: f64,
}

/// Fit SAFE with durable checkpoints and a memory sink attached, returning
/// the run report plus the raw event stream (which carries the sink-only
/// checkpoint spans and `ckpt_bytes` counters that [`resilience_rows`]
/// needs).
pub fn traced_checkpointed_report(
    data: &Dataset,
    seed: u64,
    n_iterations: usize,
    checkpoint_dir: &std::path::Path,
) -> Result<(safe_obs::RunReport, Vec<safe_obs::Event>), String> {
    let sink = std::sync::Arc::new(safe_obs::MemorySink::new());
    let config = SafeConfig::builder()
        .seed(seed)
        .n_iterations(n_iterations)
        .checkpoint_dir(checkpoint_dir)
        .sink(safe_obs::SinkHandle::new(sink.clone()))
        .build()?;
    let report = Safe::new(config)
        .fit(data, None)
        .map(|outcome| outcome.report)
        .map_err(|e| e.to_string())?;
    Ok((report, sink.events()))
}

/// Build `resilience` rows from a checkpointed fit's event stream and run
/// report: one row per checkpoint span, paired with the matching
/// `ckpt_bytes` counter and the covered iteration's wall time.
pub fn resilience_rows(
    dataset: &str,
    events: &[safe_obs::Event],
    report: &safe_obs::RunReport,
) -> Vec<ResilienceRow> {
    use safe_obs::EventKind;
    let ckpt = safe_obs::stages::CHECKPOINT;
    events
        .iter()
        .filter(|e| e.kind == EventKind::StageEnd && e.stage == ckpt)
        .filter_map(|e| {
            let iteration = e.iteration?;
            let ckpt_bytes = events
                .iter()
                .find(|b| {
                    b.kind == EventKind::Counter
                        && b.stage == ckpt
                        && b.iteration == Some(iteration)
                        && b.name == "ckpt_bytes"
                })
                .map_or(0, |b| b.value);
            let iteration_micros = report
                .iterations
                .iter()
                .find(|it| it.iteration == iteration)
                .map_or(0, |it| it.micros);
            let overhead_pct = if iteration_micros > 0 {
                100.0 * e.value as f64 / iteration_micros as f64
            } else {
                0.0
            };
            Some(ResilienceRow {
                dataset: dataset.to_string(),
                iteration,
                ckpt_bytes,
                ckpt_micros: e.value,
                iteration_micros,
                overhead_pct,
            })
        })
        .collect()
}

/// One row of the `serving` section of `BENCH_pipeline.json`: one scoring
/// configuration (method × threads × batch size) over the serving dataset.
#[derive(Debug, Clone)]
pub struct ServingRow {
    /// Serving dataset name.
    pub dataset: String,
    /// `"naive-row-loop"` (per-row `apply_row` + `predict_row`, fresh
    /// buffers every call) or `"batch-scorer"` (`safe_serve::Scorer`).
    pub method: String,
    /// Rows scored.
    pub rows: u64,
    /// Worker budget (`1` = serial; only meaningful for the batch scorer).
    pub threads: usize,
    /// Micro-batch size (0 for the naive loop, which has no batching).
    pub batch_size: usize,
    /// Wall time for the full pass in seconds.
    pub secs: f64,
    /// Scoring throughput.
    pub rows_per_sec: f64,
    /// `naive secs / this row's secs` (1.0 for the naive row itself).
    pub speedup_vs_naive: f64,
}

/// One row of the `serving_daemon` section of `BENCH_pipeline.json`: one
/// `ScoreService` configuration (worker count × coalescing cap) driven
/// with a stream of single-row submissions by `safe-cli bench-serve`.
/// Latency quantiles are log2-bucket upper bounds from
/// `safe_obs::LatencyHisto`, so `bench-diff` gates this section on `secs`
/// (quantiles jump 2× between buckets and would be noise-gated anyway).
#[derive(Debug, Clone)]
pub struct ServingDaemonRow {
    /// Serving dataset name.
    pub dataset: String,
    /// Worker threads in the service pool.
    pub workers: usize,
    /// Micro-batch coalescing cap (`max_batch`).
    pub max_batch: usize,
    /// Requests submitted (one row each).
    pub requests: u64,
    /// Wall time from first submission to last response, seconds.
    pub secs: f64,
    /// Completed requests per second over the run.
    pub rows_per_sec: f64,
    /// Median queue wait, microseconds (log2-bucket upper bound).
    pub queue_p50_us: u64,
    /// 99th-percentile queue wait, microseconds.
    pub queue_p99_us: u64,
    /// Median end-to-end request latency, microseconds.
    pub request_p50_us: u64,
    /// 99th-percentile end-to-end request latency, microseconds.
    pub request_p99_us: u64,
}

/// One row of the `selection` section of `BENCH_pipeline.json`: one
/// selection mode (`exact` or `staged`) fit end to end on one dataset, with
/// the wall time of the stages the staged pruner targets broken out. The
/// exact row is the baseline; `speedup_vs_exact` on the staged row is
/// `exact combined_millis / staged combined_millis` (1.0 on the exact row
/// itself).
#[derive(Debug, Clone)]
pub struct SelectionRow {
    /// Sweep dataset name.
    pub dataset: String,
    /// `"exact"` or `"staged"`.
    pub mode: String,
    /// Wall millis of the `staged-prune` stage across all iterations
    /// (0 for exact mode, which never runs it).
    pub staged_millis: f64,
    /// Wall millis of `redundancy-filter` across all iterations.
    pub redundancy_millis: f64,
    /// Wall millis of `rank-topk` across all iterations.
    pub rank_millis: f64,
    /// `staged_millis + redundancy_millis + rank_millis` — the cost of
    /// everything downstream of the IV filter, which is what the staged
    /// pruner exists to shrink.
    pub combined_millis: f64,
    /// Test AUC of an XGB classifier on the engineered features (0..1).
    pub auc: f64,
    /// Features in the final plan's output schema.
    pub n_selected: u64,
    /// Exact-mode combined millis over this row's combined millis.
    pub speedup_vs_exact: f64,
}

/// One row of the out-of-core sweep (`oocore` section): a spill-backed
/// chunked fit against its resident twin, with the chunk cache's byte
/// accounting. `peak_resident_bytes <= budget_bytes` (plus one in-flight
/// chunk per worker) is the contract the `oocore_spill` writer asserts when
/// the table is ≥10× the budget.
#[derive(Debug, Clone)]
pub struct OocoreRow {
    /// Sweep dataset name.
    pub dataset: String,
    /// `"resident"`, `"chunked"` (in-memory chunks), or `"spilled"`.
    pub backend: String,
    /// Table rows.
    pub rows: u64,
    /// Feature columns.
    pub cols: u64,
    /// Rows per chunk (0 for the resident backend).
    pub chunk_rows: u64,
    /// Logical f64 table size in bytes.
    pub table_bytes: u64,
    /// Resident chunk budget in bytes (table_bytes when not spilling).
    pub budget_bytes: u64,
    /// High-water mark of decoded chunk bytes during the fit.
    pub peak_resident_bytes: u64,
    /// Chunk requests served from the resident LRU.
    pub chunk_hits: u64,
    /// Chunk requests that decoded a spill file.
    pub chunk_loads: u64,
    /// Chunks evicted to stay within budget.
    pub evictions: u64,
    /// End-to-end fit wall seconds.
    pub secs: f64,
    /// Downstream test AUC of the engineered features (bit-identical
    /// across backends; recorded so the differential is visible in data).
    pub auc: f64,
}

/// Fit SAFE on `split` under one selection mode with telemetry engaged,
/// returning the run report, the plan's downstream AUC, and the final
/// plan's output-feature count — the raw material of one [`SelectionRow`].
///
/// Timing and quality are deliberately decoupled: the fit (and therefore
/// every stage wall-time in the report) runs on `split`, which the sweep
/// keeps small enough that the candidate pool is large and the pruner has
/// something to cut, while the AUC is scored by applying the plan to
/// `eval` — a larger regeneration of the same dataset — and training the
/// XGB classifier there. Scoring on the timing sliver's few test rows
/// produces chance-level noise that cannot certify the ±0.005 parity
/// contract; the plan itself applies to any row count. The classifier
/// itself is deterministic (full-sample XGB never consumes its RNG), so
/// one evaluation per plan is exact — any AUC delta between modes is a
/// property of the plans, not classifier noise.
pub fn traced_selection_fit(
    split: &DatasetSplit,
    eval: &DatasetSplit,
    seed: u64,
    mode: SelectionMode,
) -> Result<(safe_obs::RunReport, f64, u64), String> {
    let config = SafeConfig::builder().seed(seed).selection(mode).build()?;
    let outcome = Safe::new(config)
        .fit(&split.train, split.valid.as_ref())
        .map_err(|e| e.to_string())?;
    let train = outcome.plan.apply(&eval.train).map_err(|e| e.to_string())?;
    let test = outcome.plan.apply(&eval.test).map_err(|e| e.to_string())?;
    let auc = safe_models::classifier::evaluate_auc(ClassifierKind::Xgb, &train, &test, seed)
        .map_err(|e| e.to_string())?;
    Ok((outcome.report, auc, outcome.plan.outputs.len() as u64))
}

/// Build one `selection` row from a traced fit. `speedup_vs_exact` starts
/// at 1.0; the table5 writer fills it in once both modes have run.
pub fn selection_row(
    dataset: &str,
    mode: &str,
    report: &safe_obs::RunReport,
    auc: f64,
    n_selected: u64,
) -> SelectionRow {
    let sum = |stage: &str| -> f64 {
        report
            .iterations
            .iter()
            .flat_map(|it| it.stages.iter())
            .filter(|s| s.stage == stage)
            .map(|s| s.micros as f64 / 1000.0)
            .sum()
    };
    let staged_millis = sum(safe_obs::stages::STAGED_PRUNE);
    let redundancy_millis = sum(safe_obs::stages::REDUNDANCY);
    let rank_millis = sum(safe_obs::stages::RANK_TOPK);
    SelectionRow {
        dataset: dataset.to_string(),
        mode: mode.to_string(),
        staged_millis,
        redundancy_millis,
        rank_millis,
        combined_millis: staged_millis + redundancy_millis + rank_millis,
        auc,
        n_selected,
        speedup_vs_exact: 1.0,
    }
}

/// Schema version written into `BENCH_pipeline.json` by [`pipeline_json`].
/// Bump when a section's row shape changes incompatibly; readers tolerate
/// (and writers preserve) sections they don't know, so additions never
/// need a bump.
pub const PIPELINE_SCHEMA_VERSION: u64 = 2;

/// Serialize the `BENCH_pipeline.json` document: an object holding the
/// schema version, the per-stage rows (`stages`), the thread-sweep rows
/// (`parallel`), the scoring-throughput rows (`serving`), the
/// checkpoint-overhead rows (`resilience`), the selection-mode sweep rows (`selection`), and —
/// verbatim — any sections a future harness wrote that this build doesn't
/// know ([`PipelineDocument::extra`]).
///
/// Schema:
/// `{"schema_version": 2, "stages": [{dataset, iteration, stage, millis,
/// features_in, features_out}], "parallel": [{dataset, threads, secs,
/// speedup_vs_serial}], "serving": [{dataset, method, rows, threads,
/// batch_size, secs, rows_per_sec, speedup_vs_naive}],
/// "serving_daemon": [{dataset, workers, max_batch, requests, secs,
/// rows_per_sec, queue_p50_us, queue_p99_us, request_p50_us,
/// request_p99_us}], "resilience": [{dataset, iteration, ckpt_bytes,
/// ckpt_micros, iteration_micros, overhead_pct}], "selection": [{dataset,
/// mode, staged_millis, redundancy_millis, rank_millis, combined_millis,
/// auc, n_selected, speedup_vs_exact}], "oocore": [{dataset, backend,
/// rows, cols, chunk_rows, table_bytes, budget_bytes,
/// peak_resident_bytes, chunk_hits, chunk_loads, evictions, secs, auc}]}`
///
/// The writers ([`table5_execution_time`][t5] owns `stages`/`parallel`/
/// `resilience`/`selection`, `serving_throughput` owns `serving`,
/// `oocore_spill` owns `oocore`, `safe-cli bench-serve` owns
/// `serving_daemon`)
/// each re-read
/// the document first via [`read_pipeline_document`] and pass the other
/// sections — known and unknown alike — through, so running either binary
/// never clobbers anyone else's results.
///
/// [t5]: ../safe_bench/index.html
pub fn pipeline_json(doc: &PipelineDocument) -> String {
    let PipelineDocument {
        stages,
        parallel,
        serving,
        serving_daemon,
        resilience,
        selection,
        oocore,
        extra,
        ..
    } = doc;
    let mut out = format!(
        "{{\n\"schema_version\": {PIPELINE_SCHEMA_VERSION},\n\"stages\": [\n"
    );
    for (i, r) in stages.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"dataset\":{},\"iteration\":{},\"stage\":{},\"millis\":{:.3},\"features_in\":{},\"features_out\":{}}}",
            safe_obs::json::escape(&r.dataset),
            r.iteration,
            safe_obs::json::escape(&r.stage),
            r.millis,
            r.features_in,
            r.features_out,
        ));
        if i + 1 < stages.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\n\"parallel\": [\n");
    for (i, r) in parallel.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"dataset\":{},\"threads\":{},\"secs\":{:.3},\"speedup_vs_serial\":{:.3}}}",
            safe_obs::json::escape(&r.dataset),
            r.threads,
            r.secs,
            r.speedup_vs_serial,
        ));
        if i + 1 < parallel.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\n\"serving\": [\n");
    for (i, r) in serving.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"dataset\":{},\"method\":{},\"rows\":{},\"threads\":{},\"batch_size\":{},\"secs\":{:.4},\"rows_per_sec\":{:.0},\"speedup_vs_naive\":{:.3}}}",
            safe_obs::json::escape(&r.dataset),
            safe_obs::json::escape(&r.method),
            r.rows,
            r.threads,
            r.batch_size,
            r.secs,
            r.rows_per_sec,
            r.speedup_vs_naive,
        ));
        if i + 1 < serving.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\n\"serving_daemon\": [\n");
    for (i, r) in serving_daemon.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"dataset\":{},\"workers\":{},\"max_batch\":{},\"requests\":{},\"secs\":{:.4},\"rows_per_sec\":{:.0},\"queue_p50_us\":{},\"queue_p99_us\":{},\"request_p50_us\":{},\"request_p99_us\":{}}}",
            safe_obs::json::escape(&r.dataset),
            r.workers,
            r.max_batch,
            r.requests,
            r.secs,
            r.rows_per_sec,
            r.queue_p50_us,
            r.queue_p99_us,
            r.request_p50_us,
            r.request_p99_us,
        ));
        if i + 1 < serving_daemon.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\n\"resilience\": [\n");
    for (i, r) in resilience.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"dataset\":{},\"iteration\":{},\"ckpt_bytes\":{},\"ckpt_micros\":{},\"iteration_micros\":{},\"overhead_pct\":{:.3}}}",
            safe_obs::json::escape(&r.dataset),
            r.iteration,
            r.ckpt_bytes,
            r.ckpt_micros,
            r.iteration_micros,
            r.overhead_pct,
        ));
        if i + 1 < resilience.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\n\"selection\": [\n");
    for (i, r) in selection.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"dataset\":{},\"mode\":{},\"staged_millis\":{:.3},\"redundancy_millis\":{:.3},\"rank_millis\":{:.3},\"combined_millis\":{:.3},\"auc\":{:.6},\"n_selected\":{},\"speedup_vs_exact\":{:.3}}}",
            safe_obs::json::escape(&r.dataset),
            safe_obs::json::escape(&r.mode),
            r.staged_millis,
            r.redundancy_millis,
            r.rank_millis,
            r.combined_millis,
            r.auc,
            r.n_selected,
            r.speedup_vs_exact,
        ));
        if i + 1 < selection.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\n\"oocore\": [\n");
    for (i, r) in oocore.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"dataset\":{},\"backend\":{},\"rows\":{},\"cols\":{},\"chunk_rows\":{},\"table_bytes\":{},\"budget_bytes\":{},\"peak_resident_bytes\":{},\"chunk_hits\":{},\"chunk_loads\":{},\"evictions\":{},\"secs\":{:.3},\"auc\":{:.6}}}",
            safe_obs::json::escape(&r.dataset),
            safe_obs::json::escape(&r.backend),
            r.rows,
            r.cols,
            r.chunk_rows,
            r.table_bytes,
            r.budget_bytes,
            r.peak_resident_bytes,
            r.chunk_hits,
            r.chunk_loads,
            r.evictions,
            r.secs,
            r.auc,
        ));
        if i + 1 < oocore.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]");
    // Unknown sections a newer harness wrote: preserved verbatim so this
    // build never destroys data it doesn't understand.
    for (name, value) in extra {
        out.push_str(&format!(",\n{}: {}", safe_obs::json::escape(name), value.to_json()));
    }
    out.push_str("\n}\n");
    out
}

/// Parsed `BENCH_pipeline.json`, used by the writer binaries to preserve
/// the sections they don't own (see [`pipeline_json`]).
#[derive(Debug, Default, Clone)]
pub struct PipelineDocument {
    /// `schema_version` the document on disk declared (0 when absent —
    /// pre-versioning files). Writers always emit
    /// [`PIPELINE_SCHEMA_VERSION`].
    pub schema_version: u64,
    /// Per-stage SAFE fit timings.
    pub stages: Vec<PipelineRow>,
    /// End-to-end fit thread sweep.
    pub parallel: Vec<ParallelRow>,
    /// Scoring throughput rows.
    pub serving: Vec<ServingRow>,
    /// Long-lived scoring daemon sweep rows (`safe-cli bench-serve`).
    pub serving_daemon: Vec<ServingDaemonRow>,
    /// Per-iteration checkpoint write overhead rows.
    pub resilience: Vec<ResilienceRow>,
    /// Exact-vs-staged selection-mode sweep rows.
    pub selection: Vec<SelectionRow>,
    /// Out-of-core backend sweep rows.
    pub oocore: Vec<OocoreRow>,
    /// Top-level keys this build doesn't know, kept verbatim (name, value)
    /// so re-writing the document preserves a future harness's sections.
    pub extra: Vec<(String, safe_obs::json::Value)>,
}

/// Re-read an existing `BENCH_pipeline.json`. A missing file, unparsable
/// JSON, or an absent/garbled section yields empty rows for that section —
/// a benchmark writer should never fail because a previous run left a
/// partial document behind.
pub fn read_pipeline_document(path: &str) -> PipelineDocument {
    let Ok(text) = std::fs::read_to_string(path) else {
        return PipelineDocument::default();
    };
    let Ok(v) = safe_obs::json::parse(&text) else {
        return PipelineDocument::default();
    };
    let rows_of = |section: &str| -> Vec<safe_obs::json::Value> {
        v.get(section)
            .and_then(|s| s.as_array().map(<[_]>::to_vec))
            .unwrap_or_default()
    };
    let stages = rows_of("stages")
        .iter()
        .filter_map(|r| {
            Some(PipelineRow {
                dataset: r.get("dataset")?.as_str()?.to_string(),
                iteration: r.get("iteration")?.as_u64()? as usize,
                stage: r.get("stage")?.as_str()?.to_string(),
                millis: r.get("millis")?.as_f64()?,
                features_in: r.get("features_in")?.as_u64()?,
                features_out: r.get("features_out")?.as_u64()?,
            })
        })
        .collect();
    let parallel = rows_of("parallel")
        .iter()
        .filter_map(|r| {
            Some(ParallelRow {
                dataset: r.get("dataset")?.as_str()?.to_string(),
                threads: r.get("threads")?.as_u64()? as usize,
                secs: r.get("secs")?.as_f64()?,
                speedup_vs_serial: r.get("speedup_vs_serial")?.as_f64()?,
            })
        })
        .collect();
    let serving = rows_of("serving")
        .iter()
        .filter_map(|r| {
            Some(ServingRow {
                dataset: r.get("dataset")?.as_str()?.to_string(),
                method: r.get("method")?.as_str()?.to_string(),
                rows: r.get("rows")?.as_u64()?,
                threads: r.get("threads")?.as_u64()? as usize,
                batch_size: r.get("batch_size")?.as_u64()? as usize,
                secs: r.get("secs")?.as_f64()?,
                rows_per_sec: r.get("rows_per_sec")?.as_f64()?,
                speedup_vs_naive: r.get("speedup_vs_naive")?.as_f64()?,
            })
        })
        .collect();
    let serving_daemon = rows_of("serving_daemon")
        .iter()
        .filter_map(|r| {
            Some(ServingDaemonRow {
                dataset: r.get("dataset")?.as_str()?.to_string(),
                workers: r.get("workers")?.as_u64()? as usize,
                max_batch: r.get("max_batch")?.as_u64()? as usize,
                requests: r.get("requests")?.as_u64()?,
                secs: r.get("secs")?.as_f64()?,
                rows_per_sec: r.get("rows_per_sec")?.as_f64()?,
                queue_p50_us: r.get("queue_p50_us")?.as_u64()?,
                queue_p99_us: r.get("queue_p99_us")?.as_u64()?,
                request_p50_us: r.get("request_p50_us")?.as_u64()?,
                request_p99_us: r.get("request_p99_us")?.as_u64()?,
            })
        })
        .collect();
    let resilience = rows_of("resilience")
        .iter()
        .filter_map(|r| {
            Some(ResilienceRow {
                dataset: r.get("dataset")?.as_str()?.to_string(),
                iteration: r.get("iteration")?.as_u64()? as usize,
                ckpt_bytes: r.get("ckpt_bytes")?.as_u64()?,
                ckpt_micros: r.get("ckpt_micros")?.as_u64()?,
                iteration_micros: r.get("iteration_micros")?.as_u64()?,
                overhead_pct: r.get("overhead_pct")?.as_f64()?,
            })
        })
        .collect();
    let selection = rows_of("selection")
        .iter()
        .filter_map(|r| {
            Some(SelectionRow {
                dataset: r.get("dataset")?.as_str()?.to_string(),
                mode: r.get("mode")?.as_str()?.to_string(),
                staged_millis: r.get("staged_millis")?.as_f64()?,
                redundancy_millis: r.get("redundancy_millis")?.as_f64()?,
                rank_millis: r.get("rank_millis")?.as_f64()?,
                combined_millis: r.get("combined_millis")?.as_f64()?,
                auc: r.get("auc")?.as_f64()?,
                n_selected: r.get("n_selected")?.as_u64()?,
                speedup_vs_exact: r.get("speedup_vs_exact")?.as_f64()?,
            })
        })
        .collect();
    let oocore = rows_of("oocore")
        .iter()
        .filter_map(|r| {
            Some(OocoreRow {
                dataset: r.get("dataset")?.as_str()?.to_string(),
                backend: r.get("backend")?.as_str()?.to_string(),
                rows: r.get("rows")?.as_u64()?,
                cols: r.get("cols")?.as_u64()?,
                chunk_rows: r.get("chunk_rows")?.as_u64()?,
                table_bytes: r.get("table_bytes")?.as_u64()?,
                budget_bytes: r.get("budget_bytes")?.as_u64()?,
                peak_resident_bytes: r.get("peak_resident_bytes")?.as_u64()?,
                chunk_hits: r.get("chunk_hits")?.as_u64()?,
                chunk_loads: r.get("chunk_loads")?.as_u64()?,
                evictions: r.get("evictions")?.as_u64()?,
                secs: r.get("secs")?.as_f64()?,
                auc: r.get("auc")?.as_f64()?,
            })
        })
        .collect();
    let schema_version = v.get("schema_version").and_then(|s| s.as_u64()).unwrap_or(0);
    const KNOWN: [&str; 8] = [
        "schema_version",
        "stages",
        "parallel",
        "serving",
        "serving_daemon",
        "resilience",
        "selection",
        "oocore",
    ];
    let extra: Vec<(String, safe_obs::json::Value)> = v
        .as_object()
        .map(|pairs| {
            pairs
                .iter()
                .filter(|(k, _)| !KNOWN.contains(&k.as_str()))
                .cloned()
                .collect()
        })
        .unwrap_or_default();
    PipelineDocument {
        schema_version,
        stages,
        parallel,
        serving,
        serving_daemon,
        resilience,
        selection,
        oocore,
        extra,
    }
}

/// Default output path for `BENCH_pipeline.json`: the repository root.
pub fn bench_pipeline_path() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json").to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use safe_datagen::benchmarks::generate_benchmark_scaled;

    #[test]
    fn method_roster_matches_table3_columns() {
        let labels: Vec<&str> = Method::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels, vec!["ORIG", "FCT", "TFC", "RAND", "IMP", "SAFE"]);
    }

    #[test]
    fn method_parsing() {
        assert_eq!(Method::parse("safe"), Some(Method::Safe));
        assert_eq!(Method::parse("FCTree"), Some(Method::Fct));
        assert_eq!(Method::parse("bogus"), None);
    }

    #[test]
    fn flags_parse_pairs_and_lists() {
        let f = Flags::from_list(vec![
            "--scale".into(),
            "0.25".into(),
            "--datasets".into(),
            "banknote,magic".into(),
            "--methods".into(),
            "safe,orig".into(),
            "--classifiers".into(),
            "xgb,lr".into(),
        ]);
        assert_eq!(f.get_or("scale", 1.0f64), 0.25);
        assert_eq!(f.get_or("missing", 7u32), 7);
        assert_eq!(f.datasets().len(), 2);
        assert_eq!(f.methods(), vec![Method::Safe, Method::Orig]);
        assert_eq!(f.classifiers().len(), 2);
    }

    #[test]
    fn every_method_engineers_a_usable_plan() {
        let split = generate_benchmark_scaled(BenchmarkId::Banknote, 0.2, 1);
        for method in Method::ALL {
            let eng = engineer_split(method, &split, 0).unwrap();
            assert!(eng.train.n_cols() > 0, "{}", method.label());
            assert_eq!(eng.train.n_rows(), split.train.n_rows());
            assert_eq!(eng.test.n_rows(), split.test.n_rows());
            assert_eq!(
                eng.train.n_cols(),
                eng.test.n_cols(),
                "{}: train/test schema must agree",
                method.label()
            );
        }
    }

    #[test]
    fn pipeline_json_document_parses_back() {
        let stages = vec![PipelineRow {
            dataset: "toy".into(),
            iteration: 0,
            stage: "gbm-train".into(),
            millis: 1.25,
            features_in: 4,
            features_out: 4,
        }];
        let parallel = vec![
            ParallelRow { dataset: "toy".into(), threads: 1, secs: 2.0, speedup_vs_serial: 1.0 },
            ParallelRow { dataset: "toy".into(), threads: 4, secs: 1.0, speedup_vs_serial: 2.0 },
        ];
        let serving = vec![ServingRow {
            dataset: "synth-serving".into(),
            method: "batch-scorer".into(),
            rows: 100_000,
            threads: 4,
            batch_size: 1024,
            secs: 0.5,
            rows_per_sec: 200_000.0,
            speedup_vs_naive: 2.5,
        }];
        let resilience = vec![ResilienceRow {
            dataset: "synth-ckpt".into(),
            iteration: 0,
            ckpt_bytes: 2_048,
            ckpt_micros: 150,
            iteration_micros: 30_000,
            overhead_pct: 0.5,
        }];
        let selection = vec![SelectionRow {
            dataset: "gina".into(),
            mode: "staged".into(),
            staged_millis: 40.0,
            redundancy_millis: 90.0,
            rank_millis: 150.0,
            combined_millis: 280.0,
            auc: 0.8912,
            n_selected: 300,
            speedup_vs_exact: 6.3,
        }];
        let serving_daemon = vec![ServingDaemonRow {
            dataset: "synth-daemon".into(),
            workers: 4,
            max_batch: 256,
            requests: 20_000,
            secs: 0.8,
            rows_per_sec: 25_000.0,
            queue_p50_us: 64,
            queue_p99_us: 512,
            request_p50_us: 128,
            request_p99_us: 1024,
        }];
        let text = pipeline_json(&PipelineDocument {
            stages,
            parallel,
            serving,
            serving_daemon,
            resilience,
            selection,
            ..Default::default()
        });
        let v = safe_obs::json::parse(&text).unwrap();
        assert_eq!(
            v.get("schema_version").unwrap().as_u64(),
            Some(PIPELINE_SCHEMA_VERSION)
        );
        let s = v.get("stages").unwrap().as_array().unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].get("stage").unwrap().as_str(), Some("gbm-train"));
        let p = v.get("parallel").unwrap().as_array().unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p[1].get("threads").unwrap().as_u64(), Some(4));
        assert_eq!(p[1].get("speedup_vs_serial").unwrap().as_f64(), Some(2.0));
        let sv = v.get("serving").unwrap().as_array().unwrap();
        assert_eq!(sv[0].get("method").unwrap().as_str(), Some("batch-scorer"));
        assert_eq!(sv[0].get("rows").unwrap().as_u64(), Some(100_000));
        let rs = v.get("resilience").unwrap().as_array().unwrap();
        assert_eq!(rs[0].get("ckpt_bytes").unwrap().as_u64(), Some(2_048));
        assert_eq!(rs[0].get("overhead_pct").unwrap().as_f64(), Some(0.5));
        let sd = v.get("serving_daemon").unwrap().as_array().unwrap();
        assert_eq!(sd[0].get("workers").unwrap().as_u64(), Some(4));
        assert_eq!(sd[0].get("max_batch").unwrap().as_u64(), Some(256));
        assert_eq!(sd[0].get("requests").unwrap().as_u64(), Some(20_000));
        assert_eq!(sd[0].get("request_p99_us").unwrap().as_u64(), Some(1024));
        let sel = v.get("selection").unwrap().as_array().unwrap();
        assert_eq!(sel[0].get("mode").unwrap().as_str(), Some("staged"));
        assert_eq!(sel[0].get("combined_millis").unwrap().as_f64(), Some(280.0));
        assert_eq!(sel[0].get("n_selected").unwrap().as_u64(), Some(300));
        // All sections empty must still be valid JSON.
        assert!(safe_obs::json::parse(&pipeline_json(&PipelineDocument::default())).is_ok());
    }

    #[test]
    fn pipeline_document_read_preserves_other_sections() {
        let dir = std::env::temp_dir().join(format!("safe_bench_doc_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_pipeline.json");
        let path_s = path.to_str().unwrap();

        // Missing file: all sections empty, no error.
        let empty = read_pipeline_document(path_s);
        assert!(empty.stages.is_empty() && empty.parallel.is_empty() && empty.serving.is_empty());

        // Simulate the serving benchmark writing first — and a *future*
        // harness having added a section this build doesn't know.
        let serving = vec![ServingRow {
            dataset: "synth-serving".into(),
            method: "naive-row-loop".into(),
            rows: 5,
            threads: 1,
            batch_size: 0,
            secs: 1.0,
            rows_per_sec: 5.0,
            speedup_vs_naive: 1.0,
        }];
        let mut first = pipeline_json(&PipelineDocument { serving, ..Default::default() });
        // Splice an unknown top-level section in by hand (a future writer).
        first = first.replacen(
            "\"stages\": [",
            "\"gpu_sweep\": [{\"dataset\":\"m\",\"device\":\"mock\",\"secs\":0.25}],\n\"stages\": [",
            1,
        );
        std::fs::write(&path, &first).unwrap();
        // ...then table5 re-reading and writing its own sections.
        let doc = read_pipeline_document(path_s);
        assert_eq!(doc.schema_version, PIPELINE_SCHEMA_VERSION);
        assert_eq!(doc.extra.len(), 1, "unknown section must be captured: {doc:?}");
        assert_eq!(doc.extra[0].0, "gpu_sweep");
        let parallel =
            vec![ParallelRow { dataset: "m".into(), threads: 2, secs: 1.0, speedup_vs_serial: 1.5 }];
        let resilience = vec![ResilienceRow {
            dataset: "m".into(),
            iteration: 0,
            ckpt_bytes: 512,
            ckpt_micros: 90,
            iteration_micros: 9_000,
            overhead_pct: 1.0,
        }];
        let selection = vec![SelectionRow {
            dataset: "m".into(),
            mode: "exact".into(),
            staged_millis: 0.0,
            redundancy_millis: 12.0,
            rank_millis: 30.0,
            combined_millis: 42.0,
            auc: 0.75,
            n_selected: 10,
            speedup_vs_exact: 1.0,
        }];
        std::fs::write(
            &path,
            pipeline_json(&PipelineDocument { parallel, resilience, selection, ..doc }),
        )
        .unwrap();

        // Everything survives: the other binary's section AND the unknown
        // future section.
        let back = read_pipeline_document(path_s);
        assert_eq!(back.serving.len(), 1);
        assert_eq!(back.serving[0].method, "naive-row-loop");
        assert_eq!(back.serving[0].rows, 5);
        assert_eq!(back.parallel.len(), 1);
        assert_eq!(back.parallel[0].threads, 2);
        assert_eq!(back.resilience.len(), 1);
        assert_eq!(back.resilience[0].ckpt_bytes, 512);
        assert_eq!(back.selection.len(), 1);
        assert_eq!(back.selection[0].mode, "exact");
        assert_eq!(back.selection[0].combined_millis, 42.0);
        assert_eq!(back.extra.len(), 1);
        assert_eq!(back.extra[0].0, "gpu_sweep");
        let gpu_rows = back.extra[0].1.as_array().unwrap();
        assert_eq!(gpu_rows[0].get("device").unwrap().as_str(), Some("mock"));
        assert_eq!(gpu_rows[0].get("secs").unwrap().as_f64(), Some(0.25));

        // Garbage never panics the readers.
        std::fs::write(&path, "not json at all").unwrap();
        let garbled = read_pipeline_document(path_s);
        assert!(garbled.serving.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resilience_sweep_measures_checkpoint_overhead() {
        let split = generate_benchmark_scaled(BenchmarkId::Banknote, 0.15, 3);
        let dir = std::env::temp_dir().join(format!("safe_bench_resil_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let (report, events) = traced_checkpointed_report(&split.train, 3, 2, &dir).unwrap();
        let rows = resilience_rows("banknote", &events, &report);
        assert!(!rows.is_empty(), "checkpointed fit must emit checkpoint spans");
        for row in &rows {
            assert!(row.ckpt_bytes > 0, "{row:?}");
            assert!(row.iteration_micros > 0, "{row:?}");
        }
        // The report itself must stay free of checkpoint telemetry (the
        // sink-only invariant the differential suites rely on).
        assert!(report
            .iterations
            .iter()
            .all(|it| it.stages.iter().all(|s| s.stage != safe_obs::stages::CHECKPOINT)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn timed_safe_fit_is_thread_invariant_in_outcome() {
        let split = generate_benchmark_scaled(BenchmarkId::Banknote, 0.15, 3);
        for threads in [1usize, 2] {
            let secs = timed_safe_fit(&split.train, 0, threads).unwrap();
            assert!(secs > 0.0);
        }
    }

    #[test]
    fn auc_evaluation_runs() {
        let split = generate_benchmark_scaled(BenchmarkId::Banknote, 0.2, 2);
        let eng = engineer_split(Method::Orig, &split, 0).unwrap();
        let a = auc100(ClassifierKind::Xgb, &eng, 0).unwrap();
        assert!(a > 50.0 && a <= 100.0, "auc100 = {a}");
    }
}
