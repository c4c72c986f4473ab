//! Summary statistics and detectors used by the benchmark: the
//! percentile rule, ladder knee and backlog detection, and `VmHWM` parsing.

use safe_stats::describe::quantile;

/// Percentiles the benchmark may report, highest first.
const PERCENTILES: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 50.0];

/// Zero-based nearest-rank index of percentile `p` in a sorted sample of
/// `n` values.
fn rank_index(n: usize, p: f64) -> usize {
    // The tolerance keeps products such as 0.999 × 10000 from rounding up
    // past an exact rank.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` values.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank_index(n, p)
}

/// The highest reportable percentile for a sample of `n` values: the
/// highest of 99.99, 99.9, 99, 95, 90 and 50 that leaves at least ten
/// samples beyond it. `None` when not even the median qualifies.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Nearest-rank percentile `p` of a sample; `None` when the sample is too
/// small to leave ten values beyond `p`.
pub fn percentile(values: &[u64], p: f64) -> Option<u64> {
    if samples_beyond(values.len(), p) < 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    Some(v[rank_index(v.len(), p)])
}

/// Percentile `p` of each consecutive window of `window` samples, and the
/// median across windows. Only windows that support `p` count (see
/// [`percentile`]); `None` when none does. A stall of the machine then
/// moves one window rather than the whole sample.
pub fn windowed_percentile(values: &[u64], window: usize, p: f64) -> Option<f64> {
    quantile(&window_percentiles(values, window, p), 0.5)
}

/// Percentile `p` of each consecutive window of `window` samples that
/// supports it.
pub fn window_percentiles(values: &[u64], window: usize, p: f64) -> Vec<f64> {
    values
        .chunks(window.max(1))
        .filter_map(|w| percentile(w, p))
        .map(|v| v as f64)
        .collect()
}

/// One step of an open-loop rate ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderStep {
    /// Offered (scheduled) request rate, requests per second.
    pub offered_rps: f64,
    /// Completions per second over the step, as measured.
    pub achieved_rps: f64,
    /// 99th-percentile latency from due time, microseconds (`None` when the
    /// step has too few samples to support a p99).
    pub p99_us: Option<u64>,
    /// Requests that failed during the step.
    pub failed: u64,
    /// Whether the backlog grew during the step.
    pub backlog_growing: bool,
}

impl LadderStep {
    /// A step passes when nothing failed, the backlog held steady and the
    /// p99 latency stayed within `p99_limit_us`.
    pub fn passes(&self, p99_limit_us: u64) -> bool {
        self.failed == 0 && !self.backlog_growing && self.p99_us.is_some_and(|p| p <= p99_limit_us)
    }
}

/// Index of the ladder's knee among the rungs run, in any order: the
/// passing rung with the highest offered rate below every failing rung.
/// `None` when no rung passed below the lowest failing one.
pub fn ladder_knee(steps: &[LadderStep], p99_limit_us: u64) -> Option<usize> {
    let lowest_fail = steps
        .iter()
        .filter(|s| !s.passes(p99_limit_us))
        .map(|s| s.offered_rps)
        .fold(f64::INFINITY, f64::min);
    steps
        .iter()
        .enumerate()
        .filter(|(_, s)| s.passes(p99_limit_us) && s.offered_rps < lowest_fail)
        .max_by(|a, b| a.1.offered_rps.total_cmp(&b.1.offered_rps))
        .map(|(i, _)| i)
}

/// Whether a series of outstanding-request counts, sampled at even
/// intervals through a step, shows a growing backlog: the second half's
/// mean exceeds the first half's by more than `slack` requests. `slack` is
/// the backlog the service may carry without breaking the latency limit
/// (offered rate × limit), so jitter and batching do not count as growth.
pub fn backlog_growing(outstanding: &[u64], slack: u64) -> bool {
    if outstanding.len() < 4 {
        return false;
    }
    let half = outstanding.len() / 2;
    let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
    mean(&outstanding[half..]) > mean(&outstanding[..half]) + slack as f64
}

/// Parse the `VmHWM` (peak resident set) line of `/proc/<pid>/status`, in
/// kibibytes.
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix("VmHWM:")?;
        let mut parts = rest.split_whitespace();
        let value = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(value)
    })
}

/// Peak resident set of this process, megabytes (MiB).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vmhwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(10), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(percentile(&v, 50.0), Some(500));
        assert_eq!(percentile(&v, 99.0), Some(990));
        assert_eq!(percentile(&v[..999], 99.0), None);
    }

    #[test]
    fn windowed_percentile_takes_the_median_window() {
        // Three windows of 1000; the middle one holds a stall.
        let mut v: Vec<u64> = (0..3000).map(|i| (i % 1000) as u64).collect();
        for x in &mut v[1000..1100] {
            *x = 1_000_000;
        }
        assert_eq!(percentile(&v[..1000], 99.0), Some(989));
        assert_eq!(percentile(&v[1000..2000], 99.0), Some(1_000_000));
        assert_eq!(windowed_percentile(&v, 1000, 99.0), Some(989.0));
        // A trailing window too short for a p99 is left out.
        assert_eq!(windowed_percentile(&v[..1500], 1000, 99.0), Some(989.0));
        assert_eq!(windowed_percentile(&v[..500], 1000, 99.0), None);
    }

    fn step(rps: f64, p99: u64, growing: bool) -> LadderStep {
        LadderStep {
            offered_rps: rps,
            achieved_rps: rps,
            p99_us: Some(p99),
            failed: 0,
            backlog_growing: growing,
        }
    }

    #[test]
    fn knee_is_highest_pass_below_lowest_fail() {
        // Climbing: the knee is the last pass before the first fail.
        let up = vec![
            step(100.0, 200, false),
            step(110.0, 300, false),
            step(121.0, 900, false),
        ];
        assert_eq!(ladder_knee(&up, 500), Some(1));
        // Backlog growth fails a rung even with a low p99.
        let grown = vec![step(100.0, 200, false), step(110.0, 200, true)];
        assert_eq!(ladder_knee(&grown, 500), Some(0));
        // Descending from a failing first rung: the first pass is the knee.
        let down = vec![
            step(100.0, 900, false),
            step(90.9, 700, false),
            step(82.6, 300, false),
        ];
        assert_eq!(ladder_knee(&down, 500), Some(2));
        // A pass above a failing rung does not count.
        let odd = vec![
            step(100.0, 200, false),
            step(110.0, 900, false),
            step(121.0, 100, false),
        ];
        assert_eq!(ladder_knee(&odd, 500), Some(0));
        // No pass below the lowest fail: no knee.
        assert_eq!(ladder_knee(&[step(100.0, 900, false)], 500), None);
        assert_eq!(ladder_knee(&[], 500), None);
        // Failed requests or an unsupported p99 fail a rung.
        let mut failed = step(100.0, 10, false);
        failed.failed = 1;
        assert!(!failed.passes(500));
        let mut thin = step(100.0, 10, false);
        thin.p99_us = None;
        assert!(!thin.passes(500));
    }

    #[test]
    fn backlog_detection_on_synthetic_series() {
        // Steady jitter around a small queue: not growing.
        let flat: Vec<u64> = (0..40).map(|i| 5 + (i * 7 % 4)).collect();
        assert!(!backlog_growing(&flat, 8));
        // A queue that climbs linearly: growing.
        let ramp: Vec<u64> = (0..40).map(|i| i * 50).collect();
        assert!(backlog_growing(&ramp, 8));
        // A burst early that drains: not growing.
        let burst: Vec<u64> = (0..40).map(|i| if i < 5 { 200 } else { 3 }).collect();
        assert!(!backlog_growing(&burst, 8));
        // Growth inside the slack does not count.
        let slow: Vec<u64> = (0..40).map(|i| i / 10).collect();
        assert!(!backlog_growing(&slow, 8));
        // Too few samples to judge.
        assert!(!backlog_growing(&[1, 100, 1000], 0));
    }

    #[test]
    fn vmhwm_parsing() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(123_456));
        assert_eq!(parse_vmhwm_kb("VmRSS:\t 100 kB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t abc kB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t 12 MB\n"), None);
    }
}
