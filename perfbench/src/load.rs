//! Load shaping and latency statistics shared by every workload: the
//! open-loop arrival schedule, lag accounting, and the percentile rule.

use std::time::Duration;

/// Percentiles a latency sample may report, lowest first.
pub const PERCENTILE_LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples that must lie strictly beyond a percentile for it to be
/// reported as measured rather than as the sample's maximum.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `p` percent of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` in a sample of `n`, in exact
/// integer arithmetic on tenths of a percent (`0.999 × 10000` is not exact
/// in floating point).
fn rank(n: usize, p: f64) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// Number of samples strictly beyond percentile `p` in a sample of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest percentile of [`PERCENTILE_LADDER`] with at least
/// [`MIN_SAMPLES_BEYOND`] samples beyond it, or `None` when even the median
/// has too few.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rfind(|&p| n > 0 && samples_beyond(n, p) >= MIN_SAMPLES_BEYOND)
}

/// Median of an unsorted sample (the lower middle for even counts, as
/// nearest rank gives it).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// A latency sample in milliseconds, summarised by the percentile rule.
#[derive(Debug, Clone)]
pub struct Latencies {
    sorted: Vec<f64>,
}

impl Latencies {
    /// Sorts a sample of milliseconds.
    pub fn new(mut ms: Vec<f64>) -> Self {
        ms.sort_by(f64::total_cmp);
        Latencies { sorted: ms }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Percentile `p`, or `NaN` for an empty sample.
    pub fn p(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            f64::NAN
        } else {
            percentile(&self.sorted, p)
        }
    }

    /// Share of the sample at or below `limit_ms`, counted against
    /// `attempted` so that failed requests count as misses.
    pub fn share_within(&self, limit_ms: f64, attempted: usize) -> f64 {
        if attempted == 0 {
            return 0.0;
        }
        let within = self.sorted.partition_point(|&ms| ms <= limit_ms);
        within as f64 / attempted as f64
    }
}

/// A fixed-rate open-loop arrival schedule: request `i` is due
/// `i × interval` after the run starts, for every `i` due before the run's
/// length. The schedule never adapts to how fast responses come back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoop {
    /// Time between consecutive due times.
    pub interval: Duration,
    /// Number of requests due within the run.
    pub count: usize,
}

impl OpenLoop {
    /// The schedule of `rate_per_s` arrivals over `run`.
    pub fn new(rate_per_s: u32, run: Duration) -> Self {
        assert!(rate_per_s > 0, "an open loop needs a positive rate");
        let interval = Duration::from_secs(1) / rate_per_s;
        let count = (run.as_nanos() / interval.as_nanos()) as usize;
        OpenLoop { interval, count }
    }

    /// When request `i` is due, as an offset from the run's start.
    pub fn due(&self, i: usize) -> Duration {
        self.interval * i as u32
    }
}

/// Timing of one open-loop request, all offsets from the run's start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// When the request was due.
    pub due: Duration,
    /// When the generator actually sent it.
    pub sent: Duration,
    /// When the first result frame arrived.
    pub first: Duration,
    /// When the final frame arrived.
    pub done: Duration,
}

impl Timing {
    /// How late the generator sent the request (never negative: a
    /// generator that is early waits for the due time).
    pub fn lag_ms(&self) -> f64 {
        ms(self.sent.saturating_sub(self.due))
    }

    /// Latency as the user sees it: from the due time to completion, so a
    /// stall also charges the requests queued behind it.
    pub fn latency_ms(&self) -> f64 {
        ms(self.done.saturating_sub(self.due))
    }

    /// From the due time to the first result frame.
    pub fn first_ms(&self) -> f64 {
        ms(self.first.saturating_sub(self.due))
    }

    /// From sending to completion: the wire's own share of the latency.
    pub fn service_ms(&self) -> f64 {
        ms(self.done.saturating_sub(self.sent))
    }
}

/// One attempted operation of a measured phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When it was sent (due, in an open loop), from the phase start.
    pub at: Duration,
    /// Whether it was answered, and answered correctly.
    pub ok: bool,
    /// Latency, ms.
    pub latency_ms: f64,
    /// Time to the first result frame, ms.
    pub first_ms: f64,
    /// Candidate pairs compared.
    pub pairs: u64,
    /// Polygon-text bytes compared.
    pub bytes: usize,
}

/// Median latency of the correct answers among `samples`, ms.
pub fn ok_p50(samples: &[Sample]) -> f64 {
    Latencies::new(
        samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.latency_ms)
            .collect(),
    )
    .p(50.0)
}

/// End-to-end figures of a measured phase: each the median over windows.
#[derive(Debug, Clone, PartialEq)]
pub struct Figures {
    /// Candidate pairs of correct answers per second.
    pub pairs_per_s: f64,
    /// Polygon-text MB of correct answers per second.
    pub mb_per_s: f64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 90th-percentile latency, ms.
    pub p90_ms: f64,
    /// Median time to the first result frame, ms.
    pub first_p50_ms: f64,
    /// Share of attempts answered correctly within the latency limit.
    pub goodput_share: f64,
    /// Fewest correct answers in any window: p90 needs 100.
    pub min_window_samples: usize,
    /// Median latency of every window, in time order: a burst of host
    /// contention shows as a run of slow windows.
    pub window_p50_ms: Vec<f64>,
}

/// Cuts a `run` into `windows` equal windows by each sample's send time
/// (a sample sent after the run counts in the last window), computes every
/// figure per window, and takes its median over the windows. A burst of
/// contention from other tenants of the host that slows a few windows then
/// leaves the figure alone, while a change that slows every window moves
/// it.
pub fn figures(samples: &[Sample], run: Duration, windows: usize, limit_ms: f64) -> Figures {
    assert!(windows > 0, "at least one window");
    let window = run / windows as u32;
    let mut groups: Vec<Vec<&Sample>> = vec![Vec::new(); windows];
    for sample in samples {
        let index = (sample.at.as_nanos() / window.as_nanos().max(1)) as usize;
        groups[index.min(windows - 1)].push(sample);
    }
    let seconds = window.as_secs_f64();
    let per_window = |f: &dyn Fn(&[&Sample], &Latencies, &Latencies) -> f64| {
        let values: Vec<f64> = groups
            .iter()
            .map(|group| {
                let ok = || group.iter().filter(|s| s.ok);
                let latency = Latencies::new(ok().map(|s| s.latency_ms).collect());
                let first = Latencies::new(ok().map(|s| s.first_ms).collect());
                f(group, &latency, &first)
            })
            .filter(|v| !v.is_nan())
            .collect();
        if values.is_empty() {
            f64::NAN
        } else {
            median(&values)
        }
    };
    let total = |group: &[&Sample], of: fn(&Sample) -> f64| -> f64 {
        group.iter().filter(|s| s.ok).map(|s| of(s)).sum()
    };
    Figures {
        pairs_per_s: per_window(&|g, _, _| total(g, |s| s.pairs as f64) / seconds),
        mb_per_s: per_window(&|g, _, _| total(g, |s| s.bytes as f64) / 1e6 / seconds),
        p50_ms: per_window(&|_, latency, _| latency.p(50.0)),
        p90_ms: per_window(&|_, latency, _| latency.p(90.0)),
        first_p50_ms: per_window(&|_, _, first| first.p(50.0)),
        goodput_share: per_window(&|g, latency, _| latency.share_within(limit_ms, g.len())),
        min_window_samples: groups
            .iter()
            .map(|g| g.iter().filter(|s| s.ok).count())
            .min()
            .unwrap_or(0),
        window_p50_ms: groups
            .iter()
            .map(|g| {
                Latencies::new(g.iter().filter(|s| s.ok).map(|s| s.latency_ms).collect()).p(50.0)
            })
            .collect(),
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn millis(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    #[test]
    fn nearest_rank_percentiles_on_a_fixed_sample() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 90.0), 90.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn open_loop_due_times_follow_the_rate_not_the_responses() {
        let schedule = OpenLoop::new(50, Duration::from_secs(2));
        assert_eq!(schedule.interval, millis(20));
        assert_eq!(schedule.count, 100);
        assert_eq!(schedule.due(0), Duration::ZERO);
        assert_eq!(schedule.due(1), millis(20));
        assert_eq!(schedule.due(99), millis(1980));
        assert_eq!(OpenLoop::new(3, Duration::from_millis(999)).count, 2);
    }

    #[test]
    fn latency_runs_from_the_due_time_and_lag_counts_late_sends() {
        // Sent 30 ms late behind a stall, answered 5 ms after sending.
        let late = Timing {
            due: millis(100),
            sent: millis(130),
            first: millis(132),
            done: millis(135),
        };
        assert_eq!(late.lag_ms(), 30.0);
        assert_eq!(late.latency_ms(), 35.0);
        assert_eq!(late.first_ms(), 32.0);
        assert_eq!(late.service_ms(), 5.0);
        // A generator that waited for the due time has no lag.
        let on_time = Timing {
            due: millis(100),
            sent: millis(100),
            first: millis(101),
            done: millis(104),
        };
        assert_eq!(on_time.lag_ms(), 0.0);
        assert_eq!(on_time.latency_ms(), 4.0);
    }

    fn sample(at_ms: u64, latency_ms: f64) -> Sample {
        Sample {
            at: millis(at_ms),
            ok: true,
            latency_ms,
            first_ms: latency_ms / 2.0,
            pairs: 100,
            bytes: 1_000_000,
        }
    }

    #[test]
    fn figures_are_medians_over_windows() {
        // Five 1 s windows of ten samples each; the third window is slow
        // and half of its answers failed.
        let mut samples = Vec::new();
        for w in 0..5u64 {
            for i in 0..10u64 {
                let mut s = sample(
                    w * 1000 + i * 100,
                    if w == 2 { 90.0 } else { 10.0 + i as f64 },
                );
                s.ok = w != 2 || i % 2 == 0;
                samples.push(s);
            }
        }
        // A sample sent after the run counts in the last window.
        samples.push(sample(5000, 19.0));
        let f = figures(&samples, Duration::from_secs(5), 5, 15.0);
        assert_eq!(f.pairs_per_s, 1000.0);
        assert_eq!(f.mb_per_s, 10.0);
        assert_eq!(f.p50_ms, 14.0);
        assert_eq!(f.p90_ms, 18.0);
        assert_eq!(f.first_p50_ms, 7.0);
        assert_eq!(f.goodput_share, 0.6);
        assert_eq!(f.min_window_samples, 5);
        assert_eq!(f.window_p50_ms, [14.0, 14.0, 90.0, 14.0, 15.0]);
    }

    #[test]
    fn goodput_counts_failures_as_misses() {
        let sample = Latencies::new(vec![5.0, 50.0, 10.0, 60.0]);
        assert_eq!(sample.len(), 4);
        assert_eq!(sample.share_within(50.0, 4), 0.75);
        // Two more attempts failed outright: they miss the limit.
        assert_eq!(sample.share_within(50.0, 6), 0.5);
        assert_eq!(sample.p(50.0), 10.0);
    }
}
