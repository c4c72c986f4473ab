//! Repository benchmark for the SAFE workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fit-wide|fit-tall|serve-stream|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is a separate traced run that reports the per-layer
//! metrics. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. `--workload all`
//! runs every workload, untraced and traced, each in its own process, and
//! exits non-zero if any check failed. See `perfbench/NOTES.md`.

mod fit;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use safe_core::{SafeConfig, SafeOutcome};
use safe_data::dataset::Dataset;
use safe_data::split::{shuffled_indices, DatasetSplit};
use safe_datagen::benchmarks::{generate_benchmark_scaled, BenchmarkId};
use safe_gbm::GbmConfig;
use safe_obs::json::escape;
use safe_serve::{SafeArtifact, ScoreService, ScorerHandle, ServiceConfig};
use safe_stats::describe::quantile;

use crate::serve::{bits, Counts, Served, Swapper, LADDER_WINDOW_SECS};
use crate::stats::{highest_supported_percentile, ladder_knee, percentile, window_percentiles};
use crate::trace::{self_time_by_name, Tracer};

/// Fewest timed fits per untraced run.
const MIN_FITS: usize = 4;
/// Geometric step of the rate ladder.
const LADDER_FACTOR: f64 = 1.1;
/// Most ladder steps per run.
const LADDER_MAX_STEPS: usize = 30;
/// Cadence of `swap_artifact` calls, in request due time.
const SWAP_EVERY: Duration = Duration::from_millis(1000);
/// Nominal-rate serving per timed round, seconds.
const NOMINAL_SLICE_SECS: f64 = 1.0;
/// One nominal-rate window, seconds; `serve_p50_us` and `serve_p99_us` are
/// medians across windows.
const NOMINAL_WINDOW_SECS: f64 = 0.25;
/// Rounds that serve a nominal slice (the first ones of a run).
const SERVE_ROUNDS: usize = 6;
/// Untimed open-loop warm-up at the nominal rate before each slice.
const WARMUP_SECS: f64 = 0.25;
/// Nominal-rate serving in the traced run, seconds.
const TRACED_NOMINAL_SECS: f64 = 3.0;
/// Offline scoring passes in the traced run, seconds.
const TRACED_OFFLINE_SECS: f64 = 2.0;

/// Open-loop rate of the nominal phase, requests per second.
const NOMINAL_RPS: f64 = 15_000.0;
/// Open-loop rate of the traced low-rate phase, requests per second: slow
/// enough that the service workers go idle between requests.
const LOW_RPS: f64 = 1_000.0;
/// Duration of the traced low-rate phase, seconds.
const LOW_SECS: f64 = 3.0;
/// First rung of the rate ladder, requests per second.
const LADDER_START_RPS: f64 = 100_000.0;
/// Duration of one ladder rung, seconds.
const LADDER_STEP_SECS: f64 = 0.5;
/// Latency limit on a rung's p99 from due time, microseconds.
const P99_LIMIT_US: u64 = 5_000;

/// One benchmark workload.
struct Workload {
    name: &'static str,
    dataset: BenchmarkId,
    scale: f64,
    iterations: usize,
    /// The SAFE plan is fitted during set-up (the serving workload) rather
    /// than in the timed rounds.
    fit_in_setup: bool,
    /// Set-ups before the timed rounds; the last one is kept.
    setups_up_front: usize,
    /// Extra set-ups per timed round, timed, checked and dropped at once.
    /// Set-up speed drifts with the host's load over seconds, so spreading
    /// the set-ups over the run makes their median steadier.
    setups_per_round: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fit-wide",
        dataset: BenchmarkId::Gina,
        scale: 0.3,
        iterations: 1,
        fit_in_setup: false,
        setups_up_front: 1,
        setups_per_round: 2,
    },
    Workload {
        name: "fit-tall",
        dataset: BenchmarkId::Bank,
        scale: 1.0,
        iterations: 3,
        fit_in_setup: false,
        setups_up_front: 1,
        setups_per_round: 5,
    },
    Workload {
        name: "serve-stream",
        dataset: BenchmarkId::Bank,
        scale: 1.0,
        iterations: 1,
        fit_in_setup: true,
        setups_up_front: 5,
        setups_per_round: 0,
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// A reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What one run measured and checked.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Failed checks, one line each.
    errors: Vec<String>,
    /// Extra provenance: sample counts, rates, phase tallies.
    notes: Vec<(String, String)>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.errors.push(format!("{name} is not finite ({value})"));
        }
        self.metrics.push(Metric { name, value, unit });
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.notes.push((key.into(), value.to_string()));
    }
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn safe_config(w: &Workload, threads: usize) -> SafeConfig {
    SafeConfig {
        n_iterations: w.iterations,
        ..SafeConfig::default()
    }
    .with_threads(threads)
}

/// Booster of artifact `B`: a shorter ensemble than the classifier, so its
/// scores differ from artifact `A`'s on the same plan and schema.
fn booster_b() -> GbmConfig {
    GbmConfig {
        n_rounds: 20,
        ..GbmConfig::classifier()
    }
}

/// FNV-1a over every value and label of the split, to check that repeated
/// set-ups generate the same inputs.
fn fingerprint(split: &DatasetSplit) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x100000001b3);
    };
    for ds in [Some(&split.train), split.valid.as_ref(), Some(&split.test)]
        .into_iter()
        .flatten()
    {
        for col in ds.columns() {
            col.iter().for_each(|v| eat(v.to_bits()));
        }
        ds.labels()
            .unwrap_or(&[])
            .iter()
            .for_each(|&l| eat(u64::from(l)));
    }
    h
}

/// Everything set-up produces.
struct Setup {
    split: DatasetSplit,
    /// The set-up fit and its artifacts (serving workloads only).
    fitted: Option<(fit::TimedFit, SafeArtifact, f64, SafeArtifact)>,
}

/// Seed of each workload's fixed synthetic population.
const POPULATION_SEED: u64 = 2020;

/// The workload's inputs for `seed`: a fixed synthetic population (the
/// dataset's shape at the workload's scale, split once into train, valid
/// and test), with the rows of every split in a `seed`-driven order. The
/// order changes the summation order inside every layer and the order of
/// the serving request stream, but not the task, so each seed asks for
/// the same work and the test AUC stays comparable across seeds.
fn generate_inputs(w: &Workload, seed: u64) -> DatasetSplit {
    let base = generate_benchmark_scaled(w.dataset, w.scale, POPULATION_SEED);
    let shuffle =
        |ds: &Dataset, salt: u64| ds.select_rows(&shuffled_indices(ds.n_rows(), seed ^ salt));
    DatasetSplit {
        train: shuffle(&base.train, 1),
        valid: base.valid.as_ref().map(|v| shuffle(v, 2)),
        test: shuffle(&base.test, 3),
    }
}

fn set_up(w: &Workload, seed: u64, cfg: &SafeConfig, threads: usize) -> Result<Setup, String> {
    let split = generate_inputs(w, seed);
    let fitted = if w.fit_in_setup {
        let timed = fit::timed_fit(cfg, &split)?;
        let (a, auc) = fit::classifier_artifact(
            &timed.outcome.plan,
            cfg,
            &split,
            &GbmConfig::classifier(),
            threads,
        )?;
        let (b, _) =
            fit::classifier_artifact(&timed.outcome.plan, cfg, &split, &booster_b(), threads)?;
        Some((timed, a, auc, b))
    } else {
        None
    };
    Ok(Setup { split, fitted })
}

/// Repeated set-ups: their times, and what the first one produced, which
/// every later one must reproduce.
#[derive(Default)]
struct Setups {
    secs: Vec<f64>,
    print: Option<u64>,
    fit: Option<SafeOutcome>,
}

impl Setups {
    /// Run and time one set-up, and check it against the first.
    fn run(
        &mut self,
        w: &Workload,
        seed: u64,
        cfg: &SafeConfig,
        threads: usize,
        out: &mut Outcome,
    ) -> Result<Setup, String> {
        let t = Instant::now();
        let s = set_up(w, seed, cfg, threads)?;
        self.secs.push(t.elapsed().as_secs_f64());
        let print = fingerprint(&s.split);
        out.check(*self.print.get_or_insert(print) == print, || {
            "repeated set-ups generated different inputs".into()
        });
        if let Some((timed, ..)) = &s.fitted {
            match &self.fit {
                Some(first) => out.check(same_fit(first, &timed.outcome), || {
                    "set-up fits returned different plans".into()
                }),
                None => self.fit = Some(timed.outcome.clone()),
            }
        }
        Ok(s)
    }
}

fn same_fit(a: &SafeOutcome, b: &SafeOutcome) -> bool {
    a.plan == b.plan
        && a.history.len() == b.history.len()
        && a.history
            .iter()
            .zip(&b.history)
            .all(|(x, y)| x.selected == y.selected)
}

/// The untraced run: every end-to-end metric.
fn run_untraced(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let threads = threads();
    let cfg = safe_config(w, threads);
    let mut out = Outcome::new();

    // --- set-up, repeated; setup_s is the median ---------------------------
    // Each set-up is dropped before the next one starts and only the last is
    // kept, so peak_rss_mb sees one set of inputs, as a single set-up would.
    let mut setups = Setups::default();
    let mut fit_secs = Vec::new();
    let mut aucs = Vec::new();
    let mut kept: Option<Setup> = None;
    for _ in 0..w.setups_up_front {
        drop(kept.take());
        let s = setups.run(w, args.seed, &cfg, threads, &mut out)?;
        if let Some((timed, _, auc, _)) = &s.fitted {
            fit_secs.push(timed.secs);
            aucs.push(*auc);
        }
        kept = Some(s);
    }
    let Some(Setup { split, fitted }) = kept else {
        return Err("no set-up ran".into());
    };
    let split = &split;

    // --- the plan, its two artifacts, and the service ----------------------
    let (reference, art_a, art_b) = match fitted {
        Some((timed, a, _, b)) => (timed.outcome, a, b),
        None => {
            let first = fit::timed_fit(&cfg, split)?;
            fit_secs.push(first.secs);
            let (a, auc) = fit::classifier_artifact(
                &first.outcome.plan,
                &cfg,
                split,
                &GbmConfig::classifier(),
                threads,
            )?;
            aucs.push(auc);
            let (b, _) =
                fit::classifier_artifact(&first.outcome.plan, &cfg, split, &booster_b(), threads)?;
            (first.outcome, a, b)
        }
    };
    let served = Served::new([art_a, art_b], &cfg.operators, &split.test, threads)?;
    let svc = start_service(&served, threads)?;
    let mut swapper = Swapper::new(SWAP_EVERY);

    // --- timed rounds ----------------------------------------------------------
    // A round runs a fit and more set-ups (fit workloads) and, in the first
    // SERVE_ROUNDS rounds, a warm-up plus a nominal-rate slice, so every
    // metric samples the whole run and a passing stall of the machine moves
    // few of its samples.
    let (mut p50s, mut p99s, mut late_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut receipt_p99s = Vec::new();
    let mut last_fit: Option<SafeOutcome> = None;
    let mut row = 0;
    for round in 0.. {
        let more = if w.fit_in_setup {
            round < SERVE_ROUNDS
        } else {
            fit_secs.len() < MIN_FITS || fit_secs.iter().sum::<f64>() < args.seconds
        };
        if !more {
            break;
        }
        if !w.fit_in_setup {
            let timed = fit::timed_fit(&cfg, split)?;
            out.check(same_fit(&reference, &timed.outcome), || {
                "timed fits returned different plans".into()
            });
            fit_secs.push(timed.secs);
            last_fit = Some(timed.outcome);
        }
        for _ in 0..w.setups_per_round {
            setups.run(w, args.seed, &cfg, threads, &mut out)?;
        }
        if round < SERVE_ROUNDS {
            for (label, secs) in [("warmup", WARMUP_SECS), ("nominal", NOMINAL_SLICE_SECS)] {
                let phase =
                    serve::open_loop(&svc, &served, &mut swapper, NOMINAL_RPS, secs, row, false);
                row += phase.counts.sent as usize;
                tally(&mut out, &format!("{label}{round}"), &phase.counts);
                if label == "nominal" {
                    let window = phase.window(NOMINAL_WINDOW_SECS);
                    p50s.extend(window_percentiles(&phase.latency_ns, window, 50.0));
                    p99s.extend(window_percentiles(&phase.latency_ns, window, 99.0));
                    receipt_p99s.extend(window_percentiles(&phase.receipt_ns, window, 99.0));
                    late_ns.extend(phase.late_ns);
                }
            }
        }
    }
    out.attempted += (fit_secs.len() + setups.secs.len()) as u64;

    // Equal plans give the classifier identical inputs, so training it on
    // the first and the last repeat's plan checks that test_auc reproduces
    // to the bit.
    if let Some(last) = &last_fit {
        aucs.push(
            fit::classifier_artifact(&last.plan, &cfg, split, &GbmConfig::classifier(), threads)?.1,
        );
    }
    out.check(
        aucs.windows(2).all(|p| p[0].to_bits() == p[1].to_bits()),
        || "test_auc bits differ between repeats".into(),
    );
    out.metric(
        "setup_s",
        quantile(&setups.secs, 0.5).unwrap_or(f64::NAN),
        "s",
    );
    out.metric("fit_s", quantile(&fit_secs, 0.5).unwrap_or(f64::NAN), "s");
    out.metric("test_auc", aucs[0], "auc");
    out.note("fit_repeats", fit_secs.len());
    out.note("fit_secs", format!("{fit_secs:.3?}"));
    out.note("setup_secs", format!("{:.3?}", setups.secs));
    out.note("plan_outputs", reference.plan.outputs.len());

    let window = (NOMINAL_RPS * NOMINAL_WINDOW_SECS).round() as usize;
    out.note("nominal_window_samples", window);
    out.note("nominal_windows", p99s.len());
    out.note(
        "window_highest_percentile",
        highest_supported_percentile(window).map_or("none".into(), |p| p.to_string()),
    );
    out.note(
        "nominal_window_p99_us",
        format!("{:.0?}", p99s.iter().map(|v| v / 1e3).collect::<Vec<_>>()),
    );
    out.note(
        "nominal_receipt_p99_us",
        quantile(&receipt_p99s, 0.5).map_or("none".into(), |ns| (ns / 1e3).to_string()),
    );
    out.note(
        "nominal_late_ns_p99",
        percentile(&late_ns, 99.0).map_or("none".into(), |v| v.to_string()),
    );
    out.check(!p99s.is_empty(), || {
        format!("{window}-sample windows cannot support a p99")
    });
    out.metric(
        "serve_p50_us",
        quantile(&p50s, 0.5).map_or(f64::NAN, |ns| ns / 1e3),
        "us",
    );
    // The p99 is reported by the traced run (see NOTES.md: across seeds it
    // spreads wider than any end-to-end bound allows on a shared host).
    out.note(
        "nominal_p99_us",
        quantile(&p99s, 0.5).map_or("none".into(), |ns| (ns / 1e3).to_string()),
    );

    out.attempted += swapper.swaps.len() as u64;
    out.failed += swapper.failures;
    out.check(swapper.failures == 0, || {
        format!("{} swaps failed or skipped a version", swapper.failures)
    });
    out.note("swaps", swapper.swaps.len());
    let report = svc.shutdown();
    out.note("service_workers", report.workers);
    out.note("service_max_batch", report.max_batch);

    out.metric(
        "peak_rss_mb",
        stats::peak_rss_mb().unwrap_or(f64::NAN),
        "MB",
    );
    Ok(out)
}

/// Run the rate ladder on `svc` and report `serve_max_rps`.
fn run_ladder(out: &mut Outcome, svc: &ScoreService, served: &Served, swapper: &mut Swapper) {
    let steps = serve::ladder(
        svc,
        served,
        swapper,
        LADDER_START_RPS,
        LADDER_FACTOR,
        LADDER_STEP_SECS,
        LADDER_MAX_STEPS,
        P99_LIMIT_US,
    );
    let mut judged = Vec::new();
    for (k, attempts) in steps.iter().enumerate() {
        for (j, a) in attempts.iter().enumerate() {
            tally(out, &format!("ladder{k}.{j}"), &a.counts);
            out.note(
                format!("ladder{k}.{j}"),
                format!(
                    "offered={:.0} achieved={:.1} p99_us={} samples={} backlog_growing={}",
                    a.step.offered_rps,
                    a.step.achieved_rps,
                    a.step.p99_us.map_or("none".into(), |v| v.to_string()),
                    a.counts.ok,
                    a.step.backlog_growing
                ),
            );
        }
        judged.extend(attempts.last().map(|a| a.step.clone()));
    }
    let knee = ladder_knee(&judged, P99_LIMIT_US);
    let bracketed = judged.iter().any(|s| s.passes(P99_LIMIT_US))
        && judged.iter().any(|s| !s.passes(P99_LIMIT_US));
    out.check(knee.is_some() && bracketed, || {
        "the ladder found no knee within its rungs".into()
    });
    out.metric(
        "serve_max_rps",
        knee.map_or(f64::NAN, |k| judged[k].achieved_rps),
        "req/s",
    );
}

fn start_service(served: &Served, threads: usize) -> Result<ScoreService, String> {
    let config = ServiceConfig {
        workers: threads,
        ..ServiceConfig::default()
    };
    ScoreService::start(&served.arts[0], &served.ops, config)
        .map_err(|e| format!("service failed to start: {e}"))
}

/// Count a phase's requests into the run and check it.
fn tally(out: &mut Outcome, label: &str, p: &Counts) {
    out.attempted += p.sent;
    out.failed += p.failed + p.mismatches;
    out.note(
        format!("{label}_sent_ok_failed"),
        format!("{}/{}/{}", p.sent, p.ok, p.failed),
    );
    out.check(p.failed == 0 && p.ok == p.sent, || {
        format!("{label}: {} of {} requests failed", p.sent - p.ok, p.sent)
    });
    out.check(p.mismatches == 0, || {
        format!(
            "{label}: {} responses differ from the offline replay of their version",
            p.mismatches
        )
    });
}

/// The traced run: every per-layer metric.
fn run_traced(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let threads = threads();
    let cfg = safe_config(w, threads);
    let mut out = Outcome::new();
    let split = generate_inputs(w, args.seed);

    // Untraced fit: the reference the replay must reproduce, and the
    // denominator of the tracing overhead.
    let untraced = fit::timed_fit(&cfg, &split)?;
    out.attempted += 1;
    let mut tracer = Tracer::new();
    let start = Instant::now();
    let replay = tracer.span("bench.fit", 0, |t| {
        fit::traced_replay(&cfg, &split, &untraced.outcome, t)
    });
    let traced_secs = start.elapsed().as_secs_f64();
    out.attempted += 1;
    let counts = match replay {
        Ok(c) => c,
        Err(e) => {
            out.errors.push(e);
            fit::ReplayCounts::default()
        }
    };
    let fit_spans = tracer.spans().len();
    let by_name = self_time_by_name(tracer.spans());
    let secs = |name: &str| by_name.get(name).copied().unwrap_or(0) as f64 / 1e9;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    out.metric("data.audit_s", secs("data.audit"), "s");
    out.metric("gbm.bin_s", secs("gbm.bin"), "s");
    out.metric("gbm.miner_fit_s", secs("gbm.miner_fit"), "s");
    out.metric(
        "gbm.histogram_builds",
        counts.histogram_builds as f64,
        "count",
    );
    out.metric(
        "gbm.histogram_subtractions",
        counts.histogram_subtractions as f64,
        "count",
    );
    out.metric("gbm.nodes_grown", counts.nodes_grown as f64, "count");
    out.metric("gbm.rank_topk_s", secs("gbm.rank_topk"), "s");
    out.metric("core.path_extract_s", secs("core.path_extract"), "s");
    out.metric("core.combinations", counts.combinations as f64, "count");
    out.metric("core.rank_combos_s", secs("core.rank_combos"), "s");
    out.metric(
        "core.cells_evaluated",
        counts.cells_evaluated as f64,
        "count",
    );
    out.metric(
        "core.combos_kept_ratio",
        ratio(counts.combos_kept, counts.combos_in),
        "ratio",
    );
    out.metric("core.generate_s", secs("core.generate"), "s");
    out.metric("core.generated", counts.generated as f64, "count");
    out.metric(
        "core.degenerate_ratio",
        ratio(counts.degenerate, counts.degenerate + counts.generated),
        "ratio",
    );
    out.metric("core.assemble_s", secs("core.assemble"), "s");
    out.metric("stats.iv_s", secs("stats.iv"), "s");
    out.metric(
        "core.iv_kept_ratio",
        ratio(counts.iv_kept, counts.iv_in),
        "ratio",
    );
    out.metric("stats.redundancy_s", secs("stats.redundancy"), "s");
    out.metric("stats.pearson_pairs", counts.pearson_pairs as f64, "count");
    out.metric(
        "core.redundancy_kept_ratio",
        ratio(counts.redundancy_kept, counts.iv_kept),
        "ratio",
    );
    out.metric("core.select_s", secs("core.select"), "s");
    out.metric(
        "cache.bin_hit_ratio",
        ratio(counts.bin_hits, counts.bin_hits + counts.bin_misses),
        "ratio",
    );
    out.metric(
        "cache.iv_hit_ratio",
        ratio(counts.iv_hits, counts.iv_hits + counts.iv_misses),
        "ratio",
    );
    out.metric(
        "cache.pearson_hit_ratio",
        ratio(
            counts.pearson_hits,
            counts.pearson_hits + counts.pearson_misses,
        ),
        "ratio",
    );
    let layer_ns: u64 = by_name
        .iter()
        .filter(|(name, _)| !matches!(**name, "bench.fit" | "core.iteration"))
        .map(|(_, ns)| ns)
        .sum();
    out.metric(
        "bench.trace_overhead_ratio",
        traced_secs / untraced.secs,
        "ratio",
    );
    out.metric(
        "bench.layer_coverage",
        layer_ns as f64 / 1e9 / traced_secs,
        "ratio",
    );
    out.note("untraced_fit_s", untraced.secs);
    out.note("traced_fit_s", traced_secs);

    // --- artifacts -----------------------------------------------------------
    let plan = &untraced.outcome.plan;
    let art_a = tracer
        .span("serve.artifact_train", 0, |_| {
            SafeArtifact::train(
                plan,
                &cfg.operators,
                &split.train,
                split.valid.as_ref(),
                &GbmConfig::classifier(),
            )
        })
        .map_err(|e| format!("artifact training failed: {e}"))?;
    let (art_b, _) = fit::classifier_artifact(plan, &cfg, &split, &booster_b(), threads)?;
    let text = art_a.to_text();
    let decoded = tracer
        .span("serve.artifact_decode", 0, |_| {
            SafeArtifact::from_text(&text)
        })
        .map_err(|e| format!("artifact decode failed: {e}"))?;
    out.check(decoded.to_text() == text, || {
        "decoded artifact does not re-encode to the same text".into()
    });
    let train_ns = by_name_ns(&tracer, "serve.artifact_train");
    out.metric("serve.artifact_train_s", train_ns as f64 / 1e9, "s");
    out.metric(
        "serve.artifact_decode_s",
        by_name_ns(&tracer, "serve.artifact_decode") as f64 / 1e9,
        "s",
    );

    // --- offline scoring, layer by layer -----------------------------------
    let served = Served::new([decoded, art_b], &cfg.operators, &split.test, threads)?;
    let n_rows = served.n_rows() as f64;
    let compiled = served.arts[0]
        .plan
        .compile(&cfg.operators)
        .map_err(|e| e.to_string())?;
    let (mut engineered, mut scores) = (Vec::new(), Vec::new());
    tracer
        .span("core.plan_apply", 0, |_| {
            compiled.apply_rows(&served.rows, served.n_cols, &mut engineered)
        })
        .map_err(|e| e.to_string())?;
    tracer.span("gbm.predict", 0, |_| {
        served.arts[0]
            .model
            .predict_rows_into(&engineered, compiled.n_outputs(), &mut scores)
    });
    let handle = ScorerHandle::new(&served.arts[0], &served.ops)
        .map_err(|e| e.to_string())?
        .with_threads(threads);
    let (handle_scores, _) = tracer
        .span("serve.score_rows", 0, |_| {
            handle.score_rows(&served.rows, served.n_cols)
        })
        .map_err(|e| e.to_string())?;
    out.attempted += 2;
    out.check(bits(&scores) == bits(&served.offline[0]), || {
        "plan apply + predict differ from the scorer".into()
    });
    out.check(bits(&handle_scores) == bits(&served.offline[0]), || {
        "score_rows is not reproducible".into()
    });
    out.metric(
        "core.plan_apply_ns_per_row",
        by_name_ns(&tracer, "core.plan_apply") as f64 / n_rows,
        "ns/row",
    );
    out.metric(
        "gbm.predict_ns_per_row",
        by_name_ns(&tracer, "gbm.predict") as f64 / n_rows,
        "ns/row",
    );
    out.metric(
        "serve.score_rows_ns_per_row",
        by_name_ns(&tracer, "serve.score_rows") as f64 / n_rows,
        "ns/row",
    );
    // Offline throughput: the median over many passes. Across seeds it
    // spreads too wide for an end-to-end bound on a shared 2-vCPU host (see
    // NOTES.md).
    let (rates, mismatches) = serve::offline_scoring(&served, threads, TRACED_OFFLINE_SECS)?;
    out.attempted += rates.len() as u64;
    out.failed += mismatches;
    out.check(mismatches == 0, || {
        format!("{mismatches} offline scoring passes differ from the reference bits")
    });
    out.metric(
        "score_rows_per_s",
        quantile(&rates, 0.5).unwrap_or(f64::NAN),
        "rows/s",
    );
    out.note("offline_passes", rates.len());
    out.note("offline_rows_per_pass", served.n_rows());

    // --- the daemon at the nominal rate, traced --------------------------------
    let svc = start_service(&served, threads)?;
    let mut swapper = Swapper::new(SWAP_EVERY);
    let warmup = serve::open_loop(
        &svc,
        &served,
        &mut swapper,
        NOMINAL_RPS,
        WARMUP_SECS,
        0,
        false,
    );
    tally(&mut out, "warmup", &warmup.counts);
    let phase = serve::open_loop(
        &svc,
        &served,
        &mut swapper,
        NOMINAL_RPS,
        TRACED_NOMINAL_SECS,
        0,
        true,
    );
    tally(&mut out, "nominal", &phase.counts);
    let low = serve::open_loop(&svc, &served, &mut swapper, LOW_RPS, LOW_SECS, 0, false);
    tally(&mut out, "low_rate", &low.counts);
    run_ladder(&mut out, &svc, &served, &mut swapper);
    out.attempted += swapper.swaps.len() as u64;
    out.failed += swapper.failures;
    out.check(swapper.failures == 0, || {
        format!("{} swaps failed or skipped a version", swapper.failures)
    });
    svc.shutdown();
    for (i, &(s, e)) in phase.submits.iter().enumerate() {
        tracer.record("serve.submit", i as u64, s, e);
    }
    for (i, &(s, e)) in swapper.swaps.iter().enumerate() {
        tracer.record("serve.swap", i as u64, s, e);
    }
    let pct = |out: &mut Outcome, name: &'static str, v: &[u64], p: f64, scale: f64| {
        let value = percentile(v, p).map_or(f64::NAN, |x| x as f64 * scale);
        out.metric(name, value, "us");
    };
    pct(
        &mut out,
        "serve.submit_us_p50",
        &phase.submit_ns,
        50.0,
        1e-3,
    );
    pct(
        &mut out,
        "serve.submit_us_p99",
        &phase.submit_ns,
        99.0,
        1e-3,
    );
    pct(
        &mut out,
        "serve.queue_wait_us_p50",
        &phase.queue_wait_us,
        50.0,
        1.0,
    );
    pct(
        &mut out,
        "serve.queue_wait_us_p99",
        &phase.queue_wait_us,
        99.0,
        1.0,
    );
    pct(&mut out, "serve.exec_us_p50", &phase.exec_us, 50.0, 1.0);
    pct(&mut out, "serve.wake_us_p50", &phase.wake_ns, 50.0, 1e-3);
    let swap_us: Vec<f64> = swapper
        .swaps
        .iter()
        .map(|(s, e)| e.duration_since(*s).as_secs_f64() * 1e6)
        .collect();
    out.metric(
        "serve.swap_us",
        quantile(&swap_us, 0.5).unwrap_or(f64::NAN),
        "us",
    );
    out.metric(
        "serve.batch_mean",
        ratio(phase.completed, phase.batches),
        "count",
    );
    pct(&mut out, "client.late_us_p99", &phase.late_ns, 99.0, 1e-3);
    out.metric(
        "client.late_us_max",
        phase.late_ns.iter().copied().max().unwrap_or(0) as f64 / 1e3,
        "us",
    );
    let p99s = window_percentiles(&phase.latency_ns, phase.window(NOMINAL_WINDOW_SECS), 99.0);
    out.metric(
        "serve_p99_us",
        quantile(&p99s, 0.5).map_or(f64::NAN, |ns| ns / 1e3),
        "us",
    );
    for (name, p) in [
        ("serve.low_rate_p50_us", 50.0),
        ("serve.low_rate_p99_us", 99.0),
    ] {
        pct(&mut out, name, &low.latency_ns, p, 1e-3);
    }
    out.note("nominal_samples", phase.latency_ns.len());
    out.note("low_rate_samples", low.latency_ns.len());
    out.note("nominal_windows", p99s.len());
    out.note("swaps", swap_us.len());
    out.note("fit_spans", fit_spans);

    let path = std::path::PathBuf::from(format!(
        "perfbench/out/trace-{}-seed{}.jsonl",
        w.name, args.seed
    ));
    match tracer.write_jsonl(&path) {
        Ok(()) => out.note("trace_file", path.display()),
        Err(e) => out
            .errors
            .push(format!("could not write {}: {e}", path.display())),
    }
    Ok(out)
}

fn by_name_ns(tracer: &Tracer, name: &str) -> u64 {
    tracer
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// Commit of the checkout, read from `.git` in the working directory
/// (never from a parent directory); `unknown` outside a git checkout.
fn git_sha() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn print_outcome(w: &Workload, args: &Args, out: &Outcome) {
    let t = threads();
    let mut prov = vec![
        ("workload".to_string(), w.name.to_string()),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), u8::from(args.trace).to_string()),
        ("git_sha".into(), git_sha()),
        ("nproc".into(), t.to_string()),
        ("rustc".into(), env!("PERFBENCH_RUSTC").to_string()),
        ("profile".into(), env!("PERFBENCH_PROFILE").to_string()),
        ("threads".into(), t.to_string()),
        ("workers".into(), t.to_string()),
        ("client_threads".into(), "2".into()),
        ("dataset".into(), format!("{:?}@{}", w.dataset, w.scale)),
        ("iterations".into(), w.iterations.to_string()),
        ("nominal_rps".into(), NOMINAL_RPS.to_string()),
        ("nominal_window_s".into(), NOMINAL_WINDOW_SECS.to_string()),
        ("low_rps".into(), LOW_RPS.to_string()),
        ("ladder".into(), format!("{LADDER_START_RPS}x{LADDER_FACTOR}^k, {LADDER_STEP_SECS}s rungs, p99 over {LADDER_WINDOW_SECS}s windows")),
        ("p99_limit_us".into(), P99_LIMIT_US.to_string()),
        ("swap_every_ms".into(), SWAP_EVERY.as_millis().to_string()),
    ];
    prov.extend(out.notes.iter().cloned());
    let body: Vec<String> = prov
        .iter()
        .map(|(k, v)| format!("{}: {}", escape(k), escape(v)))
        .collect();
    println!("provenance {{{}}}", body.join(", "));
    for m in &out.metrics {
        println!("metric {:<32} {:>16} {}", m.name, m.value, m.unit);
    }
    for e in &out.errors {
        println!("check failed: {e}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                escape(m.name),
                json_num(m.value),
                escape(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.errors.is_empty() && out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Run every workload, untraced and traced, each in a process of its own
/// (so `peak_rss_mb` covers one workload's untraced phase only).
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in &WORKLOADS {
        for trace in ["0", "1"] {
            let output = std::process::Command::new(&exe)
                .args(["--workload", w.name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .stderr(std::process::Stdio::inherit())
                .output();
            let passed = match output {
                Ok(o) => {
                    let text = String::from_utf8_lossy(&o.stdout);
                    print!("{text}");
                    let last = text.lines().last().unwrap_or("");
                    o.status.success() && last.starts_with("{\"correct\": true,")
                }
                Err(e) => {
                    eprintln!("could not run {} --trace {trace}: {e}", w.name);
                    false
                }
            };
            println!(
                "== {} trace={trace}: {}",
                w.name,
                if passed { "ok" } else { "FAILED" }
            );
            ok &= passed;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    // This thread is the open-loop sender.
    serve::tighten_timer_slack();
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let result = if args.trace {
        run_traced(w, &args)
    } else {
        run_untraced(w, &args)
    };
    match result {
        Ok(out) => {
            print_outcome(w, &args, &out);
            if out.errors.is_empty() && out.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            ExitCode::FAILURE
        }
    }
}
