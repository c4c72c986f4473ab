//! The serving side: two artifacts whose scores differ, offline scoring
//! through `ScorerHandle`, and open-loop phases into `ScoreService` with
//! `swap_artifact` alternating between the two artifacts at a fixed
//! cadence.
//!
//! Client threads: the calling thread sends on a fixed schedule and one
//! receiver thread waits for responses, so the client uses two threads.
//! The sender sleeps until each request is due and never spins, which
//! leaves the processors to the service workers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use safe_data::dataset::Dataset;
use safe_ops::registry::OperatorRegistry;
use safe_serve::{SafeArtifact, ScoreService, ScorerHandle, Ticket};

use crate::stats::{backlog_growing, windowed_percentile, LadderStep};

/// Window over which a ladder rung's p99 is taken.
pub const LADDER_WINDOW_SECS: f64 = 0.1;

/// The artifacts under test, the rows they score, and each artifact's
/// offline scores for those rows (the replay every response is checked
/// against).
pub struct Served {
    /// Operator registry the artifacts compile against.
    pub ops: OperatorRegistry,
    /// Artifact `A` (served first) and artifact `B`.
    pub arts: [SafeArtifact; 2],
    /// Test rows, row-major, in the artifacts' input order.
    pub rows: Vec<f64>,
    /// Values per row.
    pub n_cols: usize,
    /// Offline `ScorerHandle` scores of `rows` under each artifact.
    pub offline: [Vec<f64>; 2],
}

impl Served {
    /// Lay out `test` in the artifacts' input order and score it offline
    /// under both artifacts. Fails unless the two artifacts share an input
    /// schema and differ in at least one score.
    pub fn new(
        arts: [SafeArtifact; 2],
        ops: &OperatorRegistry,
        test: &Dataset,
        threads: usize,
    ) -> Result<Served, String> {
        if arts[0].input_schema != arts[1].input_schema {
            return Err("the two artifacts declare different input schemas".into());
        }
        let rows = row_major(test, &arts[0].input_schema)?;
        let n_cols = arts[0].input_schema.len();
        let score = |a: &SafeArtifact| -> Result<Vec<f64>, String> {
            let handle = ScorerHandle::new(a, ops)
                .map_err(|e| e.to_string())?
                .with_threads(threads);
            Ok(handle
                .score_rows(&rows, n_cols)
                .map_err(|e| e.to_string())?
                .0)
        };
        let offline = [score(&arts[0])?, score(&arts[1])?];
        if bits(&offline[0]) == bits(&offline[1]) {
            return Err(
                "artifacts A and B score every row identically; swaps would be invisible".into(),
            );
        }
        Ok(Served {
            ops: ops.clone(),
            arts,
            rows,
            n_cols,
            offline,
        })
    }

    /// Rows available.
    pub fn n_rows(&self) -> usize {
        self.offline[0].len()
    }

    fn row(&self, i: usize) -> &[f64] {
        let r = i % self.n_rows();
        &self.rows[r * self.n_cols..(r + 1) * self.n_cols]
    }

    /// Which artifact a response stamped with `version` was scored by:
    /// version 1 is `A` and every swap alternates.
    fn artifact_of(version: u64) -> usize {
        (version.saturating_sub(1) % 2) as usize
    }
}

/// Row-major copy of `ds` with columns in `names` order.
pub fn row_major(ds: &Dataset, names: &[String]) -> Result<Vec<f64>, String> {
    let cols: Vec<&[f64]> = names
        .iter()
        .map(|n| ds.column_by_name(n).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut out = Vec::with_capacity(ds.n_rows() * cols.len());
    for r in 0..ds.n_rows() {
        out.extend(cols.iter().map(|c| c[r]));
    }
    Ok(out)
}

/// Bit patterns of a score vector, for exact comparison.
pub fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Offline scoring through `ScorerHandle::score_rows`, repeated for
/// `secs`: rows per second of each repeat, and how many repeats returned
/// scores that differ from the reference bits.
pub fn offline_scoring(
    served: &Served,
    threads: usize,
    secs: f64,
) -> Result<(Vec<f64>, u64), String> {
    let handle = ScorerHandle::new(&served.arts[0], &served.ops)
        .map_err(|e| e.to_string())?
        .with_threads(threads);
    let expected = bits(&served.offline[0]);
    let (mut rates, mut mismatches) = (Vec::new(), 0u64);
    let start = Instant::now();
    while rates.len() < 5 || start.elapsed().as_secs_f64() < secs {
        let t = Instant::now();
        let (scores, _) = handle
            .score_rows(std::hint::black_box(&served.rows), served.n_cols)
            .map_err(|e| e.to_string())?;
        rates.push(served.n_rows() as f64 / t.elapsed().as_secs_f64());
        mismatches += u64::from(bits(&scores) != expected);
    }
    Ok((rates, mismatches))
}

/// Ask the kernel to fire this thread's timers on time instead of
/// coalescing them within the default 50 µs slack, so the open-loop sender
/// wakes when a request is due rather than up to the slack later. Best
/// effort: a kernel without the option leaves the slack as it was.
#[cfg(target_os = "linux")]
pub fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument (the slack
    // in nanoseconds), reads no memory through it and only changes the
    // calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
    }
}

/// See the Linux version; other systems keep their default.
#[cfg(not(target_os = "linux"))]
pub fn tighten_timer_slack() {}

/// Hot-swap schedule shared by every phase of one service: which artifact
/// goes in next and which version the service must answer with.
pub struct Swapper {
    cadence: Duration,
    next_due: Option<Instant>,
    version: u64,
    /// Wall time of each `swap_artifact` call, with its start.
    pub swaps: Vec<(Instant, Instant)>,
    /// Swaps that failed or returned an unexpected version.
    pub failures: u64,
}

impl Swapper {
    /// A schedule that swaps every `cadence` of request due time.
    pub fn new(cadence: Duration) -> Swapper {
        Swapper {
            cadence,
            next_due: None,
            version: 1,
            swaps: Vec::new(),
            failures: 0,
        }
    }

    fn maybe_swap(&mut self, svc: &ScoreService, served: &Served, due: Instant) {
        let next = *self.next_due.get_or_insert(due + self.cadence);
        if due < next {
            return;
        }
        // The cadence runs in due time; a gap between phases skips the
        // swaps it would have held rather than bunching them up.
        self.next_due = Some(due + self.cadence);
        // Version v is served by artifact (v - 1) % 2, so the next version
        // takes the other artifact.
        let art = &served.arts[Served::artifact_of(self.version + 1)];
        let start = Instant::now();
        let result = svc.swap_artifact(art, &served.ops);
        self.swaps.push((start, Instant::now()));
        match result {
            Ok(v) if v == self.version + 1 => self.version = v,
            Ok(v) => {
                self.failures += 1;
                self.version = v;
            }
            Err(_) => self.failures += 1,
        }
    }
}

/// Request tallies of one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Requests sent.
    pub sent: u64,
    /// Requests that returned a score.
    pub ok: u64,
    /// Requests that failed (refused at submission or failed in service).
    pub failed: u64,
    /// Responses whose score bits differ from the offline replay of their
    /// stamped version, or whose version lies outside the versions
    /// published between submission and receipt.
    pub mismatches: u64,
}

/// What one open-loop phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Offered rate, requests per second.
    pub offered_rps: f64,
    /// Request tallies.
    pub counts: Counts,
    /// Latency from each request's due time until the service scored it
    /// (sender lateness plus `ScoreResponse::total_us`), nanoseconds.
    pub latency_ns: Vec<u64>,
    /// Latency from each request's due time until the receiver thread
    /// took the response, nanoseconds: `latency_ns` plus the receiver's
    /// wake-up, a client cost.
    pub receipt_ns: Vec<u64>,
    /// How late the sender submitted each request, nanoseconds.
    pub late_ns: Vec<u64>,
    /// Time inside `submit`, nanoseconds.
    pub submit_ns: Vec<u64>,
    /// Submission instants (start, end) per request, for tracing.
    pub submits: Vec<(Instant, Instant)>,
    /// `ScoreResponse::queue_wait_us` per response.
    pub queue_wait_us: Vec<u64>,
    /// `total_us − queue_wait_us` per response.
    pub exec_us: Vec<u64>,
    /// Client latency from submission minus `total_us` per response,
    /// nanoseconds.
    pub wake_ns: Vec<u64>,
    /// Outstanding requests (sent − received), sampled through the phase.
    pub outstanding: Vec<u64>,
    /// From the first due time to the last receipt, seconds.
    pub elapsed_s: f64,
    /// Micro-batches the service ran during the phase.
    pub batches: u64,
    /// Requests the service completed during the phase.
    pub completed: u64,
}

impl Phase {
    /// Completions per second over the phase.
    pub fn achieved_rps(&self) -> f64 {
        self.counts.ok as f64 / self.elapsed_s.max(1e-9)
    }

    /// Requests per window of `secs` at the offered rate.
    pub fn window(&self, secs: f64) -> usize {
        (self.offered_rps * secs).round() as usize
    }

    /// This phase as one step of a rate ladder; its p99 is the median of
    /// the p99s of [`LADDER_WINDOW_SECS`] windows.
    pub fn ladder_step(&self, p99_limit_us: u64) -> LadderStep {
        let slack = (self.offered_rps * p99_limit_us as f64 / 1e6).ceil() as u64;
        let p99 = windowed_percentile(&self.latency_ns, self.window(LADDER_WINDOW_SECS), 99.0);
        LadderStep {
            offered_rps: self.offered_rps,
            achieved_rps: self.achieved_rps(),
            p99_us: p99.map(|ns| (ns / 1000.0) as u64),
            failed: self.counts.failed + self.counts.mismatches,
            backlog_growing: backlog_growing(&self.outstanding, slack),
        }
    }
}

struct Pending {
    ticket: Ticket,
    row: usize,
    due: Instant,
    submitted: Instant,
    version_before: u64,
}

#[derive(Default)]
struct Received {
    ok: u64,
    failed: u64,
    mismatches: u64,
    latency_ns: Vec<u64>,
    receipt_ns: Vec<u64>,
    queue_wait_us: Vec<u64>,
    exec_us: Vec<u64>,
    wake_ns: Vec<u64>,
    last: Option<Instant>,
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Send requests at `rate` per second for `secs` seconds on a fixed
/// schedule (an open loop: nothing waits for a response before sending),
/// starting at row `first_row`, and wait until every response is in.
/// Without `detail` only the latency and lateness samples are kept.
pub fn open_loop(
    svc: &ScoreService,
    served: &Served,
    swapper: &mut Swapper,
    rate: f64,
    secs: f64,
    first_row: usize,
    detail: bool,
) -> Phase {
    let n = (rate * secs).round().max(1.0) as usize;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let sample_every = Duration::from_millis(5);
    let received = AtomicU64::new(0);
    let before = svc.report();
    let (tx, rx) = mpsc::channel::<Pending>();
    let mut phase = Phase {
        offered_rps: rate,
        ..Phase::default()
    };
    let start = Instant::now() + Duration::from_millis(2);
    let got = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive(rx, svc, served, &received, detail));
        let mut next_sample = start;
        for i in 0..n {
            let due = start + interval * i as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            swapper.maybe_swap(svc, served, due);
            if due >= next_sample {
                phase
                    .outstanding
                    .push(phase.counts.sent - received.load(Ordering::Acquire));
                next_sample += sample_every;
            }
            let row = first_row + i;
            let values = served.row(row).to_vec();
            let version_before = svc.version();
            let submitted = Instant::now();
            let result = svc.submit(values);
            let done = Instant::now();
            phase.counts.sent += 1;
            phase
                .late_ns
                .push(nanos(submitted.saturating_duration_since(due)));
            if detail {
                phase.submit_ns.push(nanos(done.duration_since(submitted)));
                phase.submits.push((submitted, done));
            }
            match result {
                Ok(ticket) => {
                    let pending = Pending {
                        ticket,
                        row,
                        due,
                        submitted,
                        version_before,
                    };
                    if tx.send(pending).is_err() {
                        phase.counts.failed += 1;
                    }
                }
                Err(_) => {
                    phase.counts.failed += 1;
                    received.fetch_add(1, Ordering::Release);
                }
            }
        }
        drop(tx);
        receiver.join().unwrap_or_default()
    });
    let after = svc.report();
    phase.counts.ok = got.ok;
    phase.counts.failed += got.failed;
    phase.counts.mismatches = got.mismatches;
    phase.latency_ns = got.latency_ns;
    phase.receipt_ns = got.receipt_ns;
    phase.queue_wait_us = got.queue_wait_us;
    phase.exec_us = got.exec_us;
    phase.wake_ns = got.wake_ns;
    phase.elapsed_s = got
        .last
        .map_or(0.0, |t| t.saturating_duration_since(start).as_secs_f64());
    phase.batches = after.batches - before.batches;
    phase.completed = after.completed - before.completed;
    phase
}

fn receive(
    rx: mpsc::Receiver<Pending>,
    svc: &ScoreService,
    served: &Served,
    received: &AtomicU64,
    detail: bool,
) -> Received {
    let mut out = Received::default();
    for p in rx {
        let result = p.ticket.wait();
        let now = Instant::now();
        let version_after = svc.version();
        received.fetch_add(1, Ordering::Release);
        out.last = Some(now);
        match result {
            Ok(resp) => {
                out.ok += 1;
                let expected =
                    served.offline[Served::artifact_of(resp.version)][p.row % served.n_rows()];
                if resp.score.to_bits() != expected.to_bits()
                    || resp.version < p.version_before
                    || resp.version > version_after
                {
                    out.mismatches += 1;
                }
                let late = nanos(p.submitted.saturating_duration_since(p.due));
                out.latency_ns.push(late + resp.total_us * 1000);
                out.receipt_ns
                    .push(nanos(now.saturating_duration_since(p.due)));
                if !detail {
                    continue;
                }
                out.queue_wait_us.push(resp.queue_wait_us);
                out.exec_us
                    .push(resp.total_us.saturating_sub(resp.queue_wait_us));
                let from_submit = nanos(now.saturating_duration_since(p.submitted));
                out.wake_ns
                    .push(from_submit.saturating_sub(resp.total_us * 1000));
            }
            Err(_) => out.failed += 1,
        }
    }
    out
}

/// One run of a ladder rung, kept as its verdict and tallies once its
/// samples are dropped.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// The rung's verdict inputs.
    pub step: LadderStep,
    /// Request tallies.
    pub counts: Counts,
}

/// A ×`factor` geometric rate ladder from `start_rps`, `step_secs` per
/// rung. A rung that fails the p99 limit or grows a backlog is run once
/// more at the same rate, so a single stall of the machine does not decide
/// it. The ladder climbs until a rung fails; if the first rung fails it
/// descends until one passes (so a slow machine still finds its knee).
/// At most `max_steps` rungs. Returns every attempt, grouped by rung.
#[allow(clippy::too_many_arguments)]
pub fn ladder(
    svc: &ScoreService,
    served: &Served,
    swapper: &mut Swapper,
    start_rps: f64,
    factor: f64,
    step_secs: f64,
    max_steps: usize,
    p99_limit_us: u64,
) -> Vec<Vec<Attempt>> {
    let mut rungs: Vec<Vec<Attempt>> = Vec::new();
    let (mut row, mut k, mut direction) = (0, 0i32, 0i32);
    while rungs.len() < max_steps {
        let rate = start_rps * factor.powi(k);
        let mut attempts = Vec::new();
        for _ in 0..2 {
            let phase = open_loop(svc, served, swapper, rate, step_secs, row, false);
            row += phase.counts.sent as usize;
            attempts.push(Attempt {
                step: phase.ladder_step(p99_limit_us),
                counts: phase.counts,
            });
            if attempts.last().is_some_and(|a| a.step.passes(p99_limit_us)) {
                break;
            }
        }
        let passed = attempts.last().is_some_and(|a| a.step.passes(p99_limit_us));
        rungs.push(attempts);
        if direction == 0 {
            direction = if passed { 1 } else { -1 };
        } else if passed != (direction == 1) {
            break;
        }
        k += direction;
    }
    rungs
}
