//! Adaptive CPU/GPU split: a timing-feedback controller for the hybrid
//! backend.
//!
//! The paper's dynamic task-migration mechanism (§4.1, §4.2) moves whole
//! aggregation tasks between the GPU and the CPU based on *observed* runtime
//! signals — buffer occupancy standing in for device congestion — rather
//! than any static assignment, and §5 shows that no fixed split matches it.
//! This module generalizes that heuristic to intra-batch splits: instead of
//! sending a configured constant fraction of every batch to the GPU, a
//! [`SplitController`] watches how long each substrate took on its share of
//! the previous batches and steers the split so both substrates finish at the
//! same time — the same equalization objective the migration threads pursue
//! at task granularity.
//!
//! Mechanism, per batch:
//!
//! 1. The hybrid backend asks [`SplitController::next_fraction`] for the GPU
//!    share of the incoming batch and splits it as before (GPU prefix, CPU
//!    suffix, merged in input order).
//! 2. After the batch, it reports both substrates' pair counts and wall-clock
//!    seconds through [`SplitController::record`].
//! 3. The controller folds the observed throughputs (pairs per second) into
//!    exponentially-weighted moving averages, computes the timing-balanced
//!    target fraction `f* = R_gpu / (R_gpu + R_cpu)` (both sides finish
//!    simultaneously when the GPU gets `f*` of the work), and steps the
//!    current fraction toward `f*` with a clamped step size so one noisy
//!    observation cannot swing the split.
//!
//! The first [`SplitConfig::warmup_batches`] batches run at the configured
//! seed fraction (the legacy `hybrid_gpu_fraction`) while observations
//! accumulate. Under [`SplitPolicy::Static`] the controller never moves off
//! the seed — that is the pre-adaptive behavior, kept for configs and tests
//! that need a deterministic split. Every decision is appended to a bounded
//! [`SplitTrace`] so benches and tests can assert *convergence behavior*, not
//! just final answers.

use crate::sync::lock;
use std::collections::VecDeque;
use std::sync::Mutex;

/// How the hybrid backend chooses each batch's GPU fraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitPolicy {
    /// Feedback control: converge toward the timing-balanced split (default).
    #[default]
    Adaptive,
    /// Always use the configured seed fraction (the legacy static split).
    Static,
}

/// Normalizes a GPU fraction: `NaN` falls back to an even split, everything
/// else is clamped to `[0, 1]`. This is the single normalization policy for
/// every fraction in the system.
pub(crate) fn normalize_fraction(fraction: f64) -> f64 {
    if fraction.is_nan() {
        0.5
    } else {
        fraction.clamp(0.0, 1.0)
    }
}

/// Minimum share the adaptive policy keeps on *each* substrate. Fractions
/// `0.0` and `1.0` are absorbing states for a feedback controller — a
/// substrate that receives no work is never observed, so the controller
/// could never move off the extreme. The adaptive working fraction is
/// therefore confined to `[PROBE_SHARE, 1 − PROBE_SHARE]`; pinning a true
/// extreme requires [`SplitPolicy::Static`].
pub const PROBE_SHARE: f64 = 0.05;

/// Confines an adaptive working fraction to the probe band.
fn probe_clamp(fraction: f64) -> f64 {
    normalize_fraction(fraction).clamp(PROBE_SHARE, 1.0 - PROBE_SHARE)
}

/// Floor applied to observed batch durations, in seconds (one microsecond —
/// the resolution a monotonic clock can realistically be trusted to). A
/// fast batch on a coarse timer can legitimately observe `0.0` (or a few
/// nanoseconds of) elapsed time; dividing pairs by such a duration would
/// produce an absurdly large — or infinite — throughput that poisons the
/// EWMA for many batches (`inf` never decays). Durations are therefore
/// clamped to this floor before a rate is computed, so a degenerate timer
/// reading still contributes a *bounded* "very fast" sample instead of
/// being either discarded or explosive. Negative or NaN durations remain
/// invalid and are ignored.
pub const MIN_OBSERVED_SECONDS: f64 = 1e-6;

/// Validates and clamps an observed duration: `None` for NaN or negative
/// readings, otherwise the duration floored to [`MIN_OBSERVED_SECONDS`].
fn clamp_observed_seconds(seconds: f64) -> Option<f64> {
    if seconds.is_nan() || seconds < 0.0 {
        None
    } else {
        Some(seconds.max(MIN_OBSERVED_SECONDS))
    }
}

/// Configuration of a [`SplitController`].
///
/// Marked `#[non_exhaustive]` so future fields are not breaking changes:
/// construct it with [`SplitConfig::default`], [`SplitConfig::adaptive`] or
/// [`SplitConfig::fixed`] and the `with_*` builder methods rather than a
/// struct literal.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct SplitConfig {
    /// Split policy (adaptive feedback vs the static seed fraction).
    pub policy: SplitPolicy,
    /// Initial GPU fraction; also the permanent fraction under
    /// [`SplitPolicy::Static`] and the fallback while throughput observations
    /// are missing. Clamped to `[0, 1]`.
    pub seed_gpu_fraction: f64,
    /// Number of recorded batches that run at the seed fraction before the
    /// controller starts moving (observations still accumulate during
    /// warm-up).
    pub warmup_batches: u32,
    /// EWMA smoothing factor in `(0, 1]` applied to observed throughputs; `1`
    /// trusts only the latest batch.
    pub ewma_alpha: f64,
    /// Maximum change of the GPU fraction per batch, preventing oscillation
    /// when observations are noisy.
    pub max_step: f64,
    /// Number of most-recent per-batch samples retained in the trace.
    pub trace_capacity: usize,
}

impl SplitConfig {
    /// An adaptive controller seeded at `seed_gpu_fraction`.
    pub fn adaptive(seed_gpu_fraction: f64) -> Self {
        SplitConfig {
            seed_gpu_fraction: normalize_fraction(seed_gpu_fraction),
            ..SplitConfig::default()
        }
    }

    /// A static split pinned at `gpu_fraction` — the pre-adaptive behavior.
    pub fn fixed(gpu_fraction: f64) -> Self {
        SplitConfig {
            policy: SplitPolicy::Static,
            seed_gpu_fraction: normalize_fraction(gpu_fraction),
            ..SplitConfig::default()
        }
    }

    /// Returns a copy with a different split policy.
    pub fn with_policy(mut self, policy: SplitPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns a copy with a different seed GPU fraction.
    pub fn with_seed_gpu_fraction(mut self, fraction: f64) -> Self {
        self.seed_gpu_fraction = normalize_fraction(fraction);
        self
    }

    /// Returns a copy with a different warm-up batch count.
    pub fn with_warmup_batches(mut self, warmup_batches: u32) -> Self {
        self.warmup_batches = warmup_batches;
        self
    }

    /// Returns a copy with a different EWMA smoothing factor.
    pub fn with_ewma_alpha(mut self, ewma_alpha: f64) -> Self {
        self.ewma_alpha = ewma_alpha;
        self
    }

    /// Returns a copy with a different per-batch step clamp.
    pub fn with_max_step(mut self, max_step: f64) -> Self {
        self.max_step = max_step;
        self
    }

    /// Returns a copy with a different trace capacity.
    pub fn with_trace_capacity(mut self, trace_capacity: usize) -> Self {
        self.trace_capacity = trace_capacity;
        self
    }
}

impl Default for SplitConfig {
    fn default() -> Self {
        SplitConfig {
            policy: SplitPolicy::Adaptive,
            seed_gpu_fraction: 0.5,
            warmup_batches: 2,
            ewma_alpha: 0.4,
            max_step: 0.15,
            trace_capacity: 4096,
        }
    }
}

/// One batch's observed substrate timings, reported to the controller after
/// the hybrid backend merged the batch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BatchObservation {
    /// Pairs computed by the GPU share.
    pub gpu_pairs: usize,
    /// Observed seconds of the GPU share — what the balancing must equalize
    /// against the CPU side. The hybrid backend reports the larger of the
    /// host wall-clock spent driving the device and the simulated device
    /// seconds, so a modelled slow device steers the split even though the
    /// functional simulation runs at host speed.
    pub gpu_seconds: f64,
    /// Simulated device seconds of the GPU share (telemetry only).
    pub gpu_simulated_seconds: f64,
    /// Pairs computed by the CPU share.
    pub cpu_pairs: usize,
    /// Wall-clock seconds of the CPU share's thread.
    pub cpu_seconds: f64,
    /// Worker threads the CPU share ran on (normalizes the CPU rate so
    /// observations from differently-sized pools are comparable).
    pub cpu_workers: usize,
    /// The GPU fraction the batch was actually split at. When a controller
    /// is shared between several backends, another backend may move the
    /// fraction between this batch's split and its `record` call, so the
    /// controller cannot assume its current fraction was the one used.
    /// `None` falls back to the controller's current fraction.
    pub fraction_used: Option<f64>,
}

/// One entry of the controller's decision log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitSample {
    /// Zero-based index of the recorded batch.
    pub batch: u64,
    /// GPU fraction the batch ran with.
    pub fraction: f64,
    /// Pairs the GPU share computed.
    pub gpu_pairs: usize,
    /// Pairs the CPU share computed.
    pub cpu_pairs: usize,
    /// Observed wall-clock seconds of the GPU share.
    pub gpu_seconds: f64,
    /// Observed wall-clock seconds of the CPU share.
    pub cpu_seconds: f64,
    /// GPU fraction the controller chose for the *next* batch.
    pub next_fraction: f64,
}

/// Snapshot of the controller's per-batch decision log (bounded to the most
/// recent [`SplitConfig::trace_capacity`] batches).
#[derive(Debug, Clone, Default)]
pub struct SplitTrace {
    samples: Vec<SplitSample>,
}

impl SplitTrace {
    /// The recorded samples, oldest first.
    pub fn samples(&self) -> &[SplitSample] {
        &self.samples
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The most recently chosen GPU fraction, if any batch was recorded.
    pub fn last_fraction(&self) -> Option<f64> {
        self.samples.last().map(|s| s.next_fraction)
    }

    /// Index of the first sample whose chosen fraction is within `tolerance`
    /// of `target` — `None` if the trace never got that close. The canonical
    /// "did it converge, and how fast" assertion for tests.
    pub fn first_within(&self, target: f64, tolerance: f64) -> Option<usize> {
        self.samples
            .iter()
            .position(|s| (s.next_fraction - target).abs() <= tolerance)
    }

    /// Largest absolute fraction change between consecutive batches.
    pub fn max_step_taken(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| (s.next_fraction - s.fraction).abs())
            .fold(0.0, f64::max)
    }
}

/// Mutable controller state behind the mutex.
#[derive(Debug)]
struct ControllerState {
    fraction: f64,
    batches: u64,
    /// EWMA of GPU throughput, pairs per second.
    gpu_rate: Option<f64>,
    /// EWMA of CPU throughput *per worker thread*, pairs per second.
    cpu_rate_per_worker: Option<f64>,
    /// CPU pool size of the hybrid backend feeding this controller (set by
    /// the latest hybrid observation; scales the per-worker rate back up when
    /// balancing).
    cpu_pool_workers: usize,
    trace: VecDeque<SplitSample>,
}

/// The timing-feedback controller steering the hybrid backend's GPU fraction.
///
/// Shared (`Arc`) between the hybrid backend that feeds it observations and
/// any observer — the engine, the pipeline's migration thread, benches and
/// tests reading telemetry. All methods take `&self`; state is mutex-guarded.
#[derive(Debug)]
pub struct SplitController {
    config: SplitConfig,
    state: Mutex<ControllerState>,
}

impl SplitController {
    /// Creates a controller. The seed fraction is normalized to `[0, 1]`;
    /// under [`SplitPolicy::Adaptive`] the *working* fraction is additionally
    /// confined to `[PROBE_SHARE, 1 − PROBE_SHARE]` so both substrates stay
    /// observable (see [`PROBE_SHARE`]).
    pub fn new(config: SplitConfig) -> Self {
        let seed = normalize_fraction(config.seed_gpu_fraction);
        let working_seed = match config.policy {
            SplitPolicy::Adaptive => probe_clamp(seed),
            SplitPolicy::Static => seed,
        };
        SplitController {
            config: SplitConfig {
                seed_gpu_fraction: seed,
                ewma_alpha: if config.ewma_alpha > 0.0 && config.ewma_alpha <= 1.0 {
                    config.ewma_alpha
                } else {
                    SplitConfig::default().ewma_alpha
                },
                max_step: config.max_step.abs().min(1.0),
                ..config
            },
            state: Mutex::new(ControllerState {
                fraction: working_seed,
                batches: 0,
                gpu_rate: None,
                cpu_rate_per_worker: None,
                cpu_pool_workers: 1,
                trace: VecDeque::new(),
            }),
        }
    }

    /// The controller's configuration (normalized).
    pub fn config(&self) -> &SplitConfig {
        &self.config
    }

    /// GPU fraction the next batch should run with.
    pub fn next_fraction(&self) -> f64 {
        lock(&self.state).fraction
    }

    /// Number of batches recorded so far.
    pub fn batches_recorded(&self) -> u64 {
        lock(&self.state).batches
    }

    /// EWMA-smoothed GPU throughput in pairs per second, once observed.
    pub fn observed_gpu_rate(&self) -> Option<f64> {
        lock(&self.state).gpu_rate
    }

    /// EWMA-smoothed CPU throughput in pairs per second *per worker thread*,
    /// once observed. The pipeline's migration thread uses this to size its
    /// single-worker migration batches.
    pub fn observed_cpu_rate_per_worker(&self) -> Option<f64> {
        lock(&self.state).cpu_rate_per_worker
    }

    /// Snapshot of the per-batch decision log.
    pub fn trace(&self) -> SplitTrace {
        SplitTrace {
            samples: lock(&self.state).trace.iter().copied().collect(),
        }
    }

    /// Folds a CPU-only timing sample into the CPU throughput estimate
    /// without advancing the batch counter or the fraction — used by the
    /// pipeline's migration thread, whose single-worker PixelBox-CPU runs are
    /// valid per-worker rate samples but not hybrid batches.
    pub fn record_cpu_sample(&self, pairs: usize, seconds: f64, workers: usize) {
        let Some(seconds) = clamp_observed_seconds(seconds) else {
            return;
        };
        if pairs == 0 {
            return;
        }
        let per_worker = pairs as f64 / seconds / workers.max(1) as f64;
        let mut state = lock(&self.state);
        state.cpu_rate_per_worker = Some(ewma(
            state.cpu_rate_per_worker,
            per_worker,
            self.config.ewma_alpha,
        ));
    }

    /// Records one hybrid batch's observation and advances the controller:
    /// updates the throughput EWMAs, then (outside warm-up, under
    /// [`SplitPolicy::Adaptive`]) steps the fraction toward the
    /// timing-balanced target with at most [`SplitConfig::max_step`] per
    /// batch. Empty observations (no pairs on either side) are ignored.
    pub fn record(&self, obs: BatchObservation) {
        if obs.gpu_pairs == 0 && obs.cpu_pairs == 0 {
            return;
        }
        let mut state = lock(&self.state);
        if obs.gpu_pairs > 0 {
            // Sub-timer-resolution (or exactly-zero) durations are clamped to
            // the floor rather than skipped, so the rate stays finite and the
            // sample is not lost; see [`MIN_OBSERVED_SECONDS`].
            if let Some(seconds) = clamp_observed_seconds(obs.gpu_seconds) {
                state.gpu_rate = Some(ewma(
                    state.gpu_rate,
                    obs.gpu_pairs as f64 / seconds,
                    self.config.ewma_alpha,
                ));
            }
        }
        if obs.cpu_pairs > 0 {
            if let Some(seconds) = clamp_observed_seconds(obs.cpu_seconds) {
                let workers = obs.cpu_workers.max(1);
                state.cpu_pool_workers = workers;
                state.cpu_rate_per_worker = Some(ewma(
                    state.cpu_rate_per_worker,
                    obs.cpu_pairs as f64 / seconds / workers as f64,
                    self.config.ewma_alpha,
                ));
            }
        }

        let used = obs.fraction_used.map_or(state.fraction, normalize_fraction);
        let batch = state.batches;
        state.batches += 1;

        // Warm-up semantics: the first `warmup_batches` recorded batches run
        // at the seed, so the record of batch `warmup_batches − 1` (when
        // `state.batches` reaches the warm-up count) is the first allowed to
        // choose a new fraction — for the batch after it.
        let adapt = self.config.policy == SplitPolicy::Adaptive
            && state.batches >= u64::from(self.config.warmup_batches);
        if adapt {
            if let Some(target) = balanced_fraction(
                state.gpu_rate,
                state.cpu_rate_per_worker,
                state.cpu_pool_workers,
            ) {
                // The step is taken from the controller's own fraction (not
                // `used`, which may be stale under a shared controller) so
                // consecutive controller states never differ by more than
                // `max_step`, and stays inside the probe band.
                let current = state.fraction;
                let step = (target - current).clamp(-self.config.max_step, self.config.max_step);
                state.fraction = probe_clamp(current + step);
            }
        }

        let next = state.fraction;
        if state.trace.len() == self.config.trace_capacity.max(1) {
            state.trace.pop_front();
        }
        state.trace.push_back(SplitSample {
            batch,
            fraction: used,
            gpu_pairs: obs.gpu_pairs,
            cpu_pairs: obs.cpu_pairs,
            gpu_seconds: obs.gpu_seconds,
            cpu_seconds: obs.cpu_seconds,
            next_fraction: next,
        });
    }
}

/// EWMA update; the first observation initializes the average.
fn ewma(previous: Option<f64>, observation: f64, alpha: f64) -> f64 {
    match previous {
        Some(prev) => alpha * observation + (1.0 - alpha) * prev,
        None => observation,
    }
}

/// The GPU fraction at which both substrates finish simultaneously, given
/// their throughputs: `n·f/R_gpu = n·(1−f)/R_cpu ⇒ f = R_gpu/(R_gpu+R_cpu)`.
/// `None` until both substrates have been observed.
fn balanced_fraction(
    gpu_rate: Option<f64>,
    cpu_rate_per_worker: Option<f64>,
    cpu_pool_workers: usize,
) -> Option<f64> {
    let gpu = gpu_rate?;
    let cpu = cpu_rate_per_worker? * cpu_pool_workers.max(1) as f64;
    let total = gpu + cpu;
    // Defense in depth: rates are finite by construction (durations are
    // clamped to `MIN_OBSERVED_SECONDS` before division), but a non-finite
    // total must never produce a NaN target fraction.
    if total > 0.0 && total.is_finite() {
        Some(normalize_fraction(gpu / total))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Feeds `batches` observations derived from fixed per-pair substrate
    /// costs through the controller's real feedback loop: each batch of
    /// `batch_pairs` pairs is split at the controller's current fraction and
    /// the two shares "run" at the given rates.
    fn drive(
        controller: &SplitController,
        batches: usize,
        batch_pairs: usize,
        gpu_pairs_per_sec: f64,
        cpu_pairs_per_sec: f64,
    ) {
        for _ in 0..batches {
            let fraction = controller.next_fraction();
            let gpu_pairs = ((batch_pairs as f64) * fraction).round() as usize;
            let cpu_pairs = batch_pairs - gpu_pairs;
            controller.record(BatchObservation {
                gpu_pairs,
                gpu_seconds: gpu_pairs as f64 / gpu_pairs_per_sec,
                gpu_simulated_seconds: 0.0,
                cpu_pairs,
                cpu_seconds: cpu_pairs as f64 / cpu_pairs_per_sec,
                cpu_workers: 1,
                fraction_used: Some(fraction),
            });
        }
    }

    #[test]
    fn warmup_honors_the_seed_fraction() {
        let controller = SplitController::new(SplitConfig {
            warmup_batches: 3,
            ..SplitConfig::adaptive(0.3)
        });
        // Strongly GPU-favoring observations during warm-up must not move
        // the fraction: exactly `warmup_batches` batches run at the seed.
        for expected_batch in 0..3u64 {
            assert_eq!(controller.next_fraction(), 0.3, "batch {expected_batch}");
            drive(&controller, 1, 100, 1000.0, 10.0);
            let trace = controller.trace();
            let sample = trace.samples().last().copied().unwrap();
            assert_eq!(sample.batch, expected_batch);
            assert_eq!(sample.fraction, 0.3);
        }
        // The record of the last warm-up batch is the first allowed to move
        // the fraction, so batch `warmup_batches` already runs adapted.
        assert!(controller.next_fraction() > 0.3);
        let trace = controller.trace();
        assert!(trace.samples()[..2].iter().all(|s| s.next_fraction == 0.3));
        assert!(trace.samples()[2].next_fraction > 0.3);
    }

    #[test]
    fn adaptive_extreme_seeds_keep_a_probe_share_and_recover() {
        // Fractions 0 and 1 would be absorbing states (the unused substrate
        // is never observed); the adaptive working fraction keeps PROBE_SHARE
        // on each side, so a mis-seeded controller can still escape.
        let all_gpu = SplitController::new(SplitConfig {
            warmup_batches: 0,
            ..SplitConfig::adaptive(1.0)
        });
        assert_eq!(all_gpu.next_fraction(), 1.0 - PROBE_SHARE);
        // The CPU probe share reveals a CPU that is 9x faster than the GPU;
        // the controller walks away from the extreme.
        drive(&all_gpu, 30, 400, 100.0, 900.0);
        let fraction = all_gpu.next_fraction();
        assert!(
            (fraction - 0.1).abs() < 0.03,
            "expected ≈0.1, got {fraction}"
        );
        // The static policy still honors true extremes.
        assert_eq!(
            SplitController::new(SplitConfig::fixed(1.0)).next_fraction(),
            1.0
        );
    }

    #[test]
    fn ewma_converges_to_the_timing_balanced_split() {
        // GPU three times the CPU throughput ⇒ balanced split at 0.75.
        let controller = SplitController::new(SplitConfig::adaptive(0.5));
        drive(&controller, 40, 200, 300.0, 100.0);
        let fraction = controller.next_fraction();
        assert!(
            (fraction - 0.75).abs() < 0.02,
            "expected ≈0.75, got {fraction}"
        );
        // And the trace reached the neighborhood well before the end.
        let trace = controller.trace();
        assert!(trace.first_within(0.75, 0.05).unwrap() < 20);
    }

    #[test]
    fn step_clamping_prevents_oscillation() {
        let config = SplitConfig {
            max_step: 0.1,
            ewma_alpha: 1.0, // trust only the latest (worst case for noise)
            warmup_batches: 0,
            ..SplitConfig::adaptive(0.5)
        };
        let controller = SplitController::new(config);
        // Wildly alternating observations: the GPU looks 100x faster on even
        // batches and 100x slower on odd ones.
        for i in 0..30 {
            let (gpu_rate, cpu_rate) = if i % 2 == 0 {
                (10_000.0, 100.0)
            } else {
                (100.0, 10_000.0)
            };
            drive(&controller, 1, 100, gpu_rate, cpu_rate);
        }
        let trace = controller.trace();
        assert!(trace.max_step_taken() <= 0.1 + 1e-12);
        for pair in trace.samples().windows(2) {
            assert!((pair[1].fraction - pair[0].next_fraction).abs() < 1e-12);
        }
    }

    #[test]
    fn static_policy_never_moves_off_the_seed() {
        let controller = SplitController::new(SplitConfig::fixed(0.4));
        drive(&controller, 20, 100, 1000.0, 1.0);
        assert_eq!(controller.next_fraction(), 0.4);
        assert!(controller
            .trace()
            .samples()
            .iter()
            .all(|s| s.fraction == 0.4 && s.next_fraction == 0.4));
        // Observations are still collected for telemetry.
        assert!(controller.observed_gpu_rate().is_some());
    }

    #[test]
    fn one_sided_batches_update_only_that_substrate() {
        let controller = SplitController::new(SplitConfig::adaptive(0.5));
        controller.record(BatchObservation {
            gpu_pairs: 50,
            gpu_seconds: 0.1,
            ..BatchObservation::default()
        });
        assert!(controller.observed_gpu_rate().is_some());
        assert!(controller.observed_cpu_rate_per_worker().is_none());
        // Without a CPU rate there is no balanced target; the fraction holds.
        controller.record(BatchObservation {
            gpu_pairs: 50,
            gpu_seconds: 0.1,
            ..BatchObservation::default()
        });
        assert_eq!(controller.next_fraction(), 0.5);
    }

    #[test]
    fn empty_and_invalid_duration_observations_are_ignored() {
        let controller = SplitController::new(SplitConfig::adaptive(0.5));
        controller.record(BatchObservation::default());
        assert_eq!(controller.batches_recorded(), 0);
        controller.record(BatchObservation {
            gpu_pairs: 10,
            gpu_seconds: f64::NAN, // invalid timer reading
            cpu_pairs: 10,
            cpu_seconds: -1.0, // negative: also invalid
            cpu_workers: 2,
            ..BatchObservation::default()
        });
        assert_eq!(controller.batches_recorded(), 1);
        assert!(controller.observed_gpu_rate().is_none());
        assert!(controller.observed_cpu_rate_per_worker().is_none());
        // Invalid CPU samples from the migration path are ignored too.
        controller.record_cpu_sample(10, f64::NAN, 1);
        controller.record_cpu_sample(10, -0.5, 1);
        assert!(controller.observed_cpu_rate_per_worker().is_none());
    }

    #[test]
    fn zero_duration_observations_clamp_to_the_timer_floor() {
        // Regression: a batch faster than the timer's resolution used to
        // observe `0.0` seconds and either be discarded (losing the sample)
        // or — via `pairs / 0.0` in an earlier formulation — fold `inf`
        // into the EWMA, which never decays. The duration is now clamped to
        // `MIN_OBSERVED_SECONDS`, yielding a finite "very fast" rate.
        let controller = SplitController::new(SplitConfig {
            warmup_batches: 0,
            ..SplitConfig::adaptive(0.5)
        });
        controller.record(BatchObservation {
            gpu_pairs: 10,
            gpu_seconds: 0.0,
            cpu_pairs: 10,
            cpu_seconds: 1e-12, // below the floor: clamped, not explosive
            cpu_workers: 1,
            ..BatchObservation::default()
        });
        let gpu_rate = controller.observed_gpu_rate().unwrap();
        let cpu_rate = controller.observed_cpu_rate_per_worker().unwrap();
        assert!(gpu_rate.is_finite() && cpu_rate.is_finite());
        assert!((gpu_rate - 10.0 / MIN_OBSERVED_SECONDS).abs() < 1e-6);
        assert!((cpu_rate - 10.0 / MIN_OBSERVED_SECONDS).abs() < 1e-6);
        // The EWMA is not poisoned: subsequent realistic observations pull
        // the rate back down, and every chosen fraction stays in [0, 1].
        drive(&controller, 10, 100, 200.0, 100.0);
        assert!(controller.observed_gpu_rate().unwrap().is_finite());
        assert!(controller
            .trace()
            .samples()
            .iter()
            .all(|s| (0.0..=1.0).contains(&s.next_fraction)));

        // The migration path's single-worker samples clamp the same way.
        let migration = SplitController::new(SplitConfig::adaptive(0.5));
        migration.record_cpu_sample(25, 0.0, 1);
        let rate = migration.observed_cpu_rate_per_worker().unwrap();
        assert!(rate.is_finite());
        assert!((rate - 25.0 / MIN_OBSERVED_SECONDS).abs() < 1e-6);
    }

    #[test]
    fn cpu_rate_is_normalized_per_worker() {
        let controller = SplitController::new(SplitConfig::adaptive(0.5));
        controller.record(BatchObservation {
            cpu_pairs: 800,
            cpu_seconds: 1.0,
            cpu_workers: 4,
            ..BatchObservation::default()
        });
        let per_worker = controller.observed_cpu_rate_per_worker().unwrap();
        assert!((per_worker - 200.0).abs() < 1e-9);
        // A migration-thread sample on one worker folds into the same EWMA.
        controller.record_cpu_sample(100, 1.0, 1);
        let updated = controller.observed_cpu_rate_per_worker().unwrap();
        assert!(updated < per_worker && updated > 100.0);
    }

    #[test]
    fn trace_is_bounded_to_its_capacity() {
        let controller = SplitController::new(SplitConfig {
            trace_capacity: 8,
            ..SplitConfig::adaptive(0.5)
        });
        drive(&controller, 20, 50, 200.0, 100.0);
        let trace = controller.trace();
        assert_eq!(trace.len(), 8);
        assert_eq!(trace.samples().first().unwrap().batch, 12);
        assert_eq!(trace.samples().last().unwrap().batch, 19);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn fraction_always_stays_in_unit_interval(
            seed in -2.0f64..3.0,
            max_step in 0.0f64..2.0,
            alpha in 0.0f64..1.5,
            observations in prop::collection::vec(
                (0usize..500, 1u64..1_000_000, 0usize..500, 1u64..1_000_000, 1usize..16),
                1usize..60,
            ),
        ) {
            let controller = SplitController::new(SplitConfig {
                max_step,
                ewma_alpha: alpha,
                warmup_batches: 1,
                ..SplitConfig::adaptive(seed)
            });
            for (gpu_pairs, gpu_micros, cpu_pairs, cpu_micros, workers) in observations {
                let fraction = controller.next_fraction();
                prop_assert!((0.0..=1.0).contains(&fraction));
                controller.record(BatchObservation {
                    gpu_pairs,
                    gpu_seconds: gpu_micros as f64 * 1e-6,
                    gpu_simulated_seconds: 0.0,
                    cpu_pairs,
                    cpu_seconds: cpu_micros as f64 * 1e-6,
                    cpu_workers: workers,
                    fraction_used: Some(fraction),
                });
            }
            let trace = controller.trace();
            for sample in trace.samples() {
                prop_assert!((0.0..=1.0).contains(&sample.fraction));
                prop_assert!((0.0..=1.0).contains(&sample.next_fraction));
            }
            prop_assert!(trace.max_step_taken() <= controller.config().max_step + 1e-12);
        }
    }
}
