//! Engine supervision: per-engine health, death after repeated failures,
//! and cooldown-based revival.
//!
//! The engine pool used to assume every worker lives forever; a worker that
//! died (or was killed by fault injection) stranded whatever shard it held
//! and left its query's merge barrier counting down forever. The
//! supervisor closes that hole:
//!
//! * Every shard outcome is reported per engine. After
//!   [`crate::ServiceConfig::with_failure_threshold`] *consecutive*
//!   failures (worker panics or injected kills — storage faults are the
//!   tile's fault, not the engine's) the engine is marked **dead**.
//! * A dead engine stops popping work: its worker task parks on the job
//!   queue's waker list like an idle one, so the shards it would have taken
//!   go to surviving eligible engines instead. Merge slots are
//!   position-pinned, so a re-dispatched shard produces a bit-identical
//!   response no matter which engine ends up computing it.
//! * Revival is **cooldown-based and poll-driven**: the executor has no
//!   timers, so a dead engine is re-checked whenever its parked worker is
//!   woken by queue activity (the supervisor's `may_pop` check); once
//!   [`crate::ServiceConfig::with_revival_cooldown`] has elapsed the engine
//!   rejoins the pool with a clean slate.
//!
//! Health is exported per engine as [`EngineHealth`] in
//! [`crate::ServiceStats`], alongside the fleet-wide re-dispatch count.

use sccg::pixelbox::AggregationDevice;
use sccg::sync::lock;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One engine's health, as exported in [`crate::ServiceStats::engines`].
///
/// Exhaustive on purpose: the wire codec builds it field by field, so a new
/// field fails to compile there until it also travels on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineHealth {
    /// Pool index of the engine.
    pub engine: usize,
    /// The engine's aggregation device (e.g. `Cpu`, `Gpu`, `Hybrid`).
    pub device: String,
    /// Whether the supervisor currently considers the engine alive. Dead
    /// engines pop no shards until their revival cooldown elapses.
    pub alive: bool,
    /// Failures since the engine's last successful shard (a success resets
    /// this; reaching the threshold kills the engine).
    pub consecutive_failures: u64,
    /// Lifetime failures charged to this engine.
    pub total_failures: u64,
    /// Shards this engine abandoned that were re-dispatched to survivors.
    pub redispatched_shards: u64,
    /// Times the engine was revived after a cooldown.
    pub revivals: u64,
}

/// Liveness of one engine.
enum Liveness {
    Alive,
    Dead { since: Instant },
}

/// Per-engine supervision state.
struct EngineState {
    device: AggregationDevice,
    consecutive: AtomicU32,
    total: AtomicU64,
    redispatched: AtomicU64,
    revivals: AtomicU64,
    liveness: Mutex<Liveness>,
}

/// Tracks engine health for a [`crate::ComparisonService`]'s pool. See the
/// [module docs](self).
pub(crate) struct Supervisor {
    engines: Vec<EngineState>,
    threshold: u32,
    cooldown: Duration,
    redispatches: AtomicU64,
}

impl Supervisor {
    pub(crate) fn new(devices: &[AggregationDevice], threshold: u32, cooldown: Duration) -> Self {
        Supervisor {
            engines: devices
                .iter()
                .map(|&device| EngineState {
                    device,
                    consecutive: AtomicU32::new(0),
                    total: AtomicU64::new(0),
                    redispatched: AtomicU64::new(0),
                    revivals: AtomicU64::new(0),
                    liveness: Mutex::new(Liveness::Alive),
                })
                .collect(),
            threshold: threshold.max(1),
            cooldown,
            redispatches: AtomicU64::new(0),
        }
    }

    /// Charges a failure (panic or injected kill) to `engine`. Returns
    /// `true` when this failure crossed the threshold and killed the engine.
    pub(crate) fn record_failure(&self, engine: usize) -> bool {
        let Some(state) = self.engines.get(engine) else {
            return false;
        };
        state.total.fetch_add(1, Ordering::Relaxed);
        let consecutive = state.consecutive.fetch_add(1, Ordering::Relaxed) + 1;
        if consecutive < self.threshold {
            return false;
        }
        let mut liveness = lock(&state.liveness);
        match *liveness {
            Liveness::Alive => {
                *liveness = Liveness::Dead {
                    since: Instant::now(),
                };
                true
            }
            Liveness::Dead { .. } => false,
        }
    }

    /// Records a successful shard: the engine's consecutive-failure count
    /// resets, so isolated hiccups never accumulate into a death.
    pub(crate) fn record_success(&self, engine: usize) {
        if let Some(state) = self.engines.get(engine) {
            state.consecutive.store(0, Ordering::Relaxed);
        }
    }

    /// Whether `engine` may pop a shard right now. Checked on every poll of
    /// the worker's pop future — this is where a dead engine whose cooldown
    /// has elapsed is lazily revived (the executor has no timers, so
    /// revival rides on queue activity rather than a clock).
    pub(crate) fn may_pop(&self, engine: usize) -> bool {
        let Some(state) = self.engines.get(engine) else {
            return true;
        };
        let mut liveness = lock(&state.liveness);
        match *liveness {
            Liveness::Alive => true,
            Liveness::Dead { since } => {
                if since.elapsed() < self.cooldown {
                    return false;
                }
                *liveness = Liveness::Alive;
                state.consecutive.store(0, Ordering::Relaxed);
                state.revivals.fetch_add(1, Ordering::Relaxed);
                true
            }
        }
    }

    /// Whether a *live* engine eligible for `device` exists (`None` = any
    /// device). Peeks liveness without triggering revival — this answers
    /// "can someone else take this shard right now", not "poll me".
    pub(crate) fn live_eligible_exists(&self, device: Option<AggregationDevice>) -> bool {
        self.engines.iter().any(|state| {
            device.is_none_or(|d| d == state.device)
                && matches!(*lock(&state.liveness), Liveness::Alive)
        })
    }

    /// Counts a shard abandoned by `engine` and re-dispatched to survivors.
    pub(crate) fn note_redispatch(&self, engine: usize) {
        self.redispatches.fetch_add(1, Ordering::Relaxed);
        if let Some(state) = self.engines.get(engine) {
            state.redispatched.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Fleet-wide count of re-dispatched shards.
    pub(crate) fn redispatches(&self) -> u64 {
        self.redispatches.load(Ordering::Relaxed)
    }

    /// Per-engine health snapshot. Read-only: peeking never revives.
    pub(crate) fn health(&self) -> Vec<EngineHealth> {
        self.engines
            .iter()
            .enumerate()
            .map(|(engine, state)| EngineHealth {
                engine,
                device: format!("{:?}", state.device),
                alive: matches!(*lock(&state.liveness), Liveness::Alive),
                consecutive_failures: state.consecutive.load(Ordering::Relaxed) as u64,
                total_failures: state.total.load(Ordering::Relaxed),
                redispatched_shards: state.redispatched.load(Ordering::Relaxed),
                revivals: state.revivals.load(Ordering::Relaxed),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Supervisor {
        Supervisor::new(
            &[AggregationDevice::Cpu, AggregationDevice::Gpu],
            3,
            Duration::from_secs(3600),
        )
    }

    #[test]
    fn threshold_consecutive_failures_kill_the_engine() {
        let supervisor = pool();
        assert!(!supervisor.record_failure(0));
        assert!(!supervisor.record_failure(0));
        assert!(supervisor.record_failure(0), "third strike kills");
        assert!(!supervisor.may_pop(0), "dead engines pop nothing");
        assert!(supervisor.may_pop(1), "the other engine is unaffected");
        assert!(
            !supervisor.record_failure(0),
            "further failures do not re-kill"
        );
        let health = supervisor.health();
        assert!(!health[0].alive);
        assert_eq!(health[0].total_failures, 4);
        assert!(health[1].alive);
        assert_eq!(health[1].device, "Gpu");
    }

    #[test]
    fn a_success_resets_the_consecutive_count() {
        let supervisor = pool();
        for round in 0..5 {
            assert!(!supervisor.record_failure(0), "round {round}");
            assert!(!supervisor.record_failure(0), "round {round}");
            supervisor.record_success(0);
        }
        assert!(supervisor.may_pop(0), "never two in a row past a success");
        assert_eq!(supervisor.health()[0].total_failures, 10);
    }

    #[test]
    fn eligibility_respects_device_and_liveness() {
        let supervisor = pool();
        assert!(supervisor.live_eligible_exists(None));
        assert!(supervisor.live_eligible_exists(Some(AggregationDevice::Cpu)));
        assert!(!supervisor.live_eligible_exists(Some(AggregationDevice::Hybrid)));
        for _ in 0..3 {
            supervisor.record_failure(0);
        }
        assert!(!supervisor.live_eligible_exists(Some(AggregationDevice::Cpu)));
        assert!(supervisor.live_eligible_exists(None), "engine 1 lives");
        for _ in 0..3 {
            supervisor.record_failure(1);
        }
        assert!(!supervisor.live_eligible_exists(None), "whole pool dead");
    }

    #[test]
    fn revival_after_cooldown_is_poll_driven() {
        let supervisor = Supervisor::new(&[AggregationDevice::Cpu], 1, Duration::ZERO);
        assert!(supervisor.record_failure(0));
        assert!(!matches!(
            *lock(&supervisor.engines[0].liveness),
            Liveness::Alive
        ));
        // Zero cooldown: the next pop check revives with a clean slate.
        assert!(supervisor.may_pop(0));
        let health = supervisor.health();
        assert!(health[0].alive);
        assert_eq!(health[0].consecutive_failures, 0);
        assert_eq!(health[0].revivals, 1);
    }

    #[test]
    fn redispatches_are_counted_fleet_wide_and_per_engine() {
        let supervisor = pool();
        supervisor.note_redispatch(0);
        supervisor.note_redispatch(0);
        supervisor.note_redispatch(1);
        assert_eq!(supervisor.redispatches(), 3);
        let health = supervisor.health();
        assert_eq!(health[0].redispatched_shards, 2);
        assert_eq!(health[1].redispatched_shards, 1);
    }

    #[test]
    fn out_of_range_engines_are_harmless() {
        let supervisor = pool();
        assert!(!supervisor.record_failure(9));
        supervisor.record_success(9);
        supervisor.note_redispatch(9);
        assert!(supervisor.may_pop(9));
        assert_eq!(supervisor.redispatches(), 1);
    }
}
