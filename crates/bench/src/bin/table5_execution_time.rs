//! Table V — execution time (seconds) of each feature-engineering method.
//!
//! The paper's finding: SAFE runs at roughly 0.13× FCTree's and 0.08× TFC's
//! wall-clock, and close to RAND/IMP. Shapes reproduce here because TFC's
//! O(N·M²) exhaustive generation and FCTree's per-node construction loops
//! dwarf SAFE's path-bounded search.

use safe_bench::{
    bench_pipeline_path, engineer_split, fmt_secs, pipeline_json, pipeline_rows, resilience_rows,
    selection_row, timed_safe_fit, traced_checkpointed_report, traced_safe_report,
    traced_selection_fit, Flags, Method, ParallelRow, PipelineRow, ResilienceRow, SelectionRow,
    TablePrinter,
};
use safe_core::SelectionMode;
use safe_datagen::benchmarks::{generate_benchmark_scaled, BenchmarkId};
use safe_datagen::synth::{generate, SyntheticConfig};

fn main() {
    let flags = Flags::from_env();
    let scale: f64 = flags.get_or("scale", 0.05);
    let seed: u64 = flags.get_or("seed", 42);
    let datasets = flags.datasets();
    let methods: Vec<Method> = flags
        .methods()
        .into_iter()
        .filter(|m| *m != Method::Orig) // ORIG has no fit cost
        .collect();

    println!("Table V: execution time in seconds (scale={scale}, seed={seed})\n");
    let mut headers = vec!["Dataset"];
    headers.extend(methods.iter().map(|m| m.label()));
    let widths: Vec<usize> = std::iter::once(10).chain(methods.iter().map(|_| 9)).collect();
    let t = TablePrinter::new(&headers, &widths);

    let mut ratio_acc: Vec<(f64, usize)> = vec![(0.0, 0); methods.len()];
    let mut bench_rows: Vec<PipelineRow> = Vec::new();
    for &id in &datasets {
        let split = generate_benchmark_scaled(id, scale, seed);
        // Per-stage SAFE timings for BENCH_pipeline.json (a separate traced
        // fit so the timed runs above stay undisturbed).
        match traced_safe_report(&split, seed) {
            Ok(report) => bench_rows.extend(pipeline_rows(id.spec().name, &report)),
            Err(err) => eprintln!("  traced SAFE failed on {}: {err}", id.spec().name),
        }
        let mut cells: Vec<String> = vec![id.spec().name.to_string()];
        let mut safe_time = None;
        let mut times = Vec::new();
        for &method in &methods {
            match engineer_split(method, &split, seed) {
                Ok(eng) => {
                    if method == Method::Safe {
                        safe_time = Some(eng.fit_time.as_secs_f64());
                    }
                    times.push(Some(eng.fit_time));
                    cells.push(fmt_secs(eng.fit_time));
                }
                Err(err) => {
                    eprintln!("  {} failed on {}: {err}", method.label(), id.spec().name);
                    times.push(None);
                    cells.push("-".into());
                }
            }
        }
        if let Some(st) = safe_time {
            for (mi, t) in times.iter().enumerate() {
                if let Some(t) = t {
                    if methods[mi] != Method::Safe && t.as_secs_f64() > 0.0 {
                        ratio_acc[mi].0 += st / t.as_secs_f64();
                        ratio_acc[mi].1 += 1;
                    }
                }
            }
        }
        let refs: Vec<&str> = cells.iter().map(|s| s.as_str()).collect();
        t.row(&refs);
    }

    println!("\nSAFE time as a fraction of each method (paper: 0.13x FCT, 0.08x TFC):");
    for (mi, &method) in methods.iter().enumerate() {
        if method == Method::Safe || ratio_acc[mi].1 == 0 {
            continue;
        }
        println!(
            "  SAFE / {:>4} = {:.3}",
            method.label(),
            ratio_acc[mi].0 / ratio_acc[mi].1 as f64
        );
    }

    // Thread sweep: end-to-end SAFE fit at 1/2/4 workers on a medium
    // synthetic dataset (`--sweep-rows` to resize). Determinism means the
    // sweep only moves wall-clock, never the outcome; the rows land in the
    // `parallel` section of BENCH_pipeline.json.
    let sweep_rows: usize = flags.get_or("sweep-rows", 4_000);
    let medium = generate(&SyntheticConfig {
        n_rows: sweep_rows,
        dim: 10,
        n_signal: 5,
        n_interactions: 4,
        noise: 0.2,
        seed,
        ..Default::default()
    });
    println!("\nThread sweep on synth-medium ({sweep_rows} rows x 10 features):");
    let mut parallel_rows: Vec<ParallelRow> = Vec::new();
    let mut serial_secs = None;
    for threads in [1usize, 2, 4] {
        match timed_safe_fit(&medium, seed, threads) {
            Ok(secs) => {
                let base = *serial_secs.get_or_insert(secs);
                let speedup = if secs > 0.0 { base / secs } else { 1.0 };
                println!("  threads={threads}: {secs:.2}s ({speedup:.2}x vs serial)");
                parallel_rows.push(ParallelRow {
                    dataset: "synth-medium".into(),
                    threads,
                    secs,
                    speedup_vs_serial: speedup,
                });
            }
            Err(err) => eprintln!("  sweep failed at threads={threads}: {err}"),
        }
    }

    // Resilience sweep: a multi-iteration fit with durable checkpoints on,
    // measuring what each post-iteration snapshot costs (serialize + write
    // + fsync + rename) against the iteration's wall time. Checkpoint
    // telemetry is sink-only, so the rows come from the raw event stream;
    // they land in the `resilience` section of BENCH_pipeline.json under
    // the `synth-cache` dataset key the committed rows already use.
    let ckpt_iters: usize = flags.get_or("resilience-iterations", 3);
    let ckpt_data = generate(&SyntheticConfig {
        n_rows: (sweep_rows / 2).max(500),
        dim: 10,
        n_signal: 5,
        n_interactions: 4,
        noise: 0.2,
        seed,
        ..Default::default()
    });
    println!("\nResilience sweep on synth-cache ({ckpt_iters} iterations, checkpoint on):");
    let mut resilience_sweep: Vec<ResilienceRow> = Vec::new();
    let ckpt_dir = std::env::temp_dir().join(format!("safe_bench_ckpt_{}", std::process::id()));
    std::fs::remove_dir_all(&ckpt_dir).ok();
    if let Err(e) = std::fs::create_dir_all(&ckpt_dir) {
        eprintln!("  could not create checkpoint dir: {e}");
    } else {
        match traced_checkpointed_report(&ckpt_data, seed, ckpt_iters, &ckpt_dir) {
            Ok((report, events)) => {
                resilience_sweep = resilience_rows("synth-cache", &events, &report);
                for r in &resilience_sweep {
                    println!(
                        "  iteration {}: {} bytes in {}us ({:.3}% of the {}us iteration)",
                        r.iteration, r.ckpt_bytes, r.ckpt_micros, r.overhead_pct, r.iteration_micros
                    );
                }
            }
            Err(err) => eprintln!("  resilience sweep failed: {err}"),
        }
        std::fs::remove_dir_all(&ckpt_dir).ok();
    }

    // Selection-mode sweep: one SAFE fit per mode on the candidate-heavy
    // datasets (`--selection-datasets`, default gina — the widest of the
    // roster). The staged row's `speedup_vs_exact` is the combined wall time
    // of the stages the pruner targets (staged-prune + redundancy-filter +
    // rank-topk) in exact mode over staged mode; the AUC column pins the
    // quality contract (±0.005, also held by tests/selection_differential.rs).
    // Rows land in the `selection` section of BENCH_pipeline.json.
    let sel_spec = flags.get("selection-datasets").unwrap_or("gina");
    // The sweep fits at its own scale rather than the table's sliver: large
    // enough that IV estimates are stable and the halving cut is lossless
    // (every α-clearing feature fits inside the finalist set), small enough
    // that the candidate pool stays wide and the exact scan stays the
    // bottleneck. The AUC column is scored on a full-scale regeneration,
    // where the downstream classifier is stable enough to certify the
    // ±0.005 parity contract.
    let sel_fit_scale: f64 = flags.get_or("selection-fit-scale", 0.15);
    let sel_eval_scale: f64 = flags.get_or("selection-eval-scale", 1.0);
    let sel_ids: Vec<BenchmarkId> = BenchmarkId::ALL
        .into_iter()
        .filter(|b| {
            sel_spec
                .split(',')
                .any(|w| w.trim().eq_ignore_ascii_case(b.spec().name))
        })
        .collect();
    println!(
        "\nSelection sweep (exact vs staged, fit scale={sel_fit_scale}, \
         eval scale={sel_eval_scale}) on: {sel_spec}"
    );
    let mut selection_sweep: Vec<SelectionRow> = Vec::new();
    for &id in &sel_ids {
        let name = id.spec().name;
        let split = generate_benchmark_scaled(id, sel_fit_scale, seed);
        let eval = generate_benchmark_scaled(id, sel_eval_scale, seed);
        let exact = traced_selection_fit(&split, &eval, seed, SelectionMode::Exact);
        let staged = traced_selection_fit(&split, &eval, seed, SelectionMode::Staged);
        match (exact, staged) {
            (Ok((er, e_auc, e_sel)), Ok((sr, s_auc, s_sel))) => {
                let exact_row = selection_row(name, "exact", &er, e_auc, e_sel);
                let mut staged_row = selection_row(name, "staged", &sr, s_auc, s_sel);
                if staged_row.combined_millis > 0.0 {
                    staged_row.speedup_vs_exact =
                        exact_row.combined_millis / staged_row.combined_millis;
                }
                println!(
                    "  {name}: exact {:.0}ms auc {:.4} | staged {:.0}ms auc {:.4} | {:.2}x, dAUC {:+.4}",
                    exact_row.combined_millis,
                    exact_row.auc,
                    staged_row.combined_millis,
                    staged_row.auc,
                    staged_row.speedup_vs_exact,
                    staged_row.auc - exact_row.auc,
                );
                selection_sweep.push(exact_row);
                selection_sweep.push(staged_row);
            }
            (Err(err), _) | (_, Err(err)) => {
                eprintln!("  selection sweep failed on {name}: {err}")
            }
        }
    }

    let out_path = flags
        .get("pipeline-out")
        .map(str::to_string)
        .unwrap_or_else(bench_pipeline_path);
    // This binary owns `stages`, `parallel`, `resilience`, and `selection`;
    // carry any existing `serving` rows (written by serving_throughput) and
    // unknown future sections through untouched.
    let existing = safe_bench::read_pipeline_document(&out_path);
    match std::fs::write(
        &out_path,
        pipeline_json(&safe_bench::PipelineDocument {
            stages: bench_rows.clone(),
            parallel: parallel_rows,
            resilience: resilience_sweep,
            selection: selection_sweep,
            ..existing
        }),
    ) {
        Ok(()) => println!(
            "\nper-stage SAFE timings ({} rows) -> {out_path}",
            bench_rows.len()
        ),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
}
