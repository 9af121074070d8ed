//! The placement layer: which engine runs which shard, and when.
//!
//! [`crate::ComparisonService`] used to pop shards first-come-first-served;
//! this module makes the dispatch decision an explicit, swappable
//! **placement policy**. The (crate-private) `JobQueue` still owns the
//! priority lanes and
//! the worker wakers, but *which* eligible shard a worker takes — and how a
//! query's shards are ordered before they are enqueued — is delegated to
//! the configured [`PlacementPolicy`]:
//!
//! * [`PlacementPolicy::RoundRobin`] — the historical behaviour: the first
//!   eligible shard in the most urgent lane, no reordering.
//! * [`PlacementPolicy::ResidencyAware`] (the default) — places work where
//!   its data already is. A query's shards are ordered so tiles resident in
//!   the store's pagers compute first, and at pop time a worker prefers
//!   shards whose tiles are resident, breaking ties toward tiles *it* last
//!   faulted in ([`crate::SlideStore::tile_affinity`]). An anti-starvation
//!   guard caps how often any eligible shard may be bypassed. Tiles are
//!   only ever faulted in on demand, by the shard that needs them.
//!
//! Placement changes only *where and when* a shard runs — never its
//! position in the response's merge order — so responses are bit-identical
//! across policies by construction (the equivalence proptests in
//! `tests/placement_proptests.rs` pin this).
//!
//! Every decision is exported: [`SchedulerStats`] counts affinity hits and
//! misses and disk faults avoided, surfaced through [`crate::ServiceStats`]
//! and its JSON rendering.

use crate::service::QueryState;
use crate::store::{TileId, TileResidency};
use crate::supervisor::Supervisor;
use sccg::pipeline::exec::register_waker;
use sccg::pixelbox::AggregationDevice;
use sccg::sync::lock;
use serde::Serialize;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

/// How many eligible shards a residency-aware pop inspects before settling:
/// residency probes cost a lock acquisition each, so a very deep queue is
/// scanned only this far (the tail is reached as the queue drains).
const SCAN_LIMIT: usize = 32;

/// How many times one eligible shard may be passed over for a
/// better-placed one before the policy takes it unconditionally — the
/// anti-starvation guard: locality is a preference, never a denial of
/// service.
const BYPASS_LIMIT: u32 = 64;

/// Which placement policy a [`crate::ComparisonService`] dispatches with
/// (see [`crate::ServiceConfig::with_placement`] and the [module
/// docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum PlacementPolicy {
    /// First eligible shard wins; no reordering. The historical dispatch
    /// order.
    RoundRobin,
    /// Resident tiles first, affinity tie-break — the default.
    #[default]
    ResidencyAware,
}

impl PlacementPolicy {
    /// Stable telemetry name of the policy.
    pub fn name(self) -> &'static str {
        match self {
            PlacementPolicy::RoundRobin => "round-robin",
            PlacementPolicy::ResidencyAware => "residency-aware",
        }
    }
}

/// Snapshot of the scheduler's placement counters (all zero under
/// [`PlacementPolicy::RoundRobin`], which makes no placement decisions).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
#[non_exhaustive]
pub struct SchedulerStats {
    /// Telemetry name of the active policy ([`PlacementPolicy::name`]).
    pub policy: String,
    /// Shards dispatched while every disk-backed tile they touch was
    /// already resident — the dispatch paid no disk fault.
    pub affinity_hits: u64,
    /// Shards dispatched that still had to fault at least one tile in.
    pub affinity_misses: u64,
    /// Always 0: the service has no background prefetcher. Kept only
    /// because the end-to-end benchmark still reads it for its
    /// `serve.prefetch_used_share` metric; the next change to the benchmark
    /// removes both this field and that metric.
    pub prefetch_issued: u64,
    /// Always 0, for the same reason as [`SchedulerStats::prefetch_issued`],
    /// and removed together with it.
    pub prefetch_used: u64,
    /// Resident disk-backed tiles encountered at dispatch — demand faults
    /// the placement (ordering, affinity) avoided.
    pub faults_avoided: u64,
}

/// Lock-free counters behind [`SchedulerStats`], shared by the queue and
/// the policy.
#[derive(Debug, Default)]
struct SchedulerCounters {
    affinity_hits: AtomicU64,
    affinity_misses: AtomicU64,
    faults_avoided: AtomicU64,
}

impl SchedulerCounters {
    fn snapshot(&self, policy: PlacementPolicy) -> SchedulerStats {
        SchedulerStats {
            policy: policy.name().to_string(),
            affinity_hits: self.affinity_hits.load(Ordering::Relaxed),
            affinity_misses: self.affinity_misses.load(Ordering::Relaxed),
            prefetch_issued: 0,
            prefetch_used: 0,
            faults_avoided: self.faults_avoided.load(Ordering::Relaxed),
        }
    }
}

/// The worker identity a pop runs as: its device (eligibility) and its pool
/// index (affinity).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Worker {
    pub(crate) device: AggregationDevice,
    pub(crate) index: usize,
}

/// One unit of engine work: a single tile of a query. Carries only the tile
/// *index* — the worker faults both slides' records in through the store
/// (the pager, for disk-backed slides) when the shard actually runs.
pub(crate) struct ShardJob {
    pub(crate) query: Arc<QueryState>,
    /// Index into the query's merge-ordered tile list.
    pub(crate) position: usize,
    /// Original tile index (reported to the caller).
    pub(crate) tile_index: usize,
    /// Device restriction copied from the request.
    pub(crate) device: Option<AggregationDevice>,
    /// How many pops passed this shard over for a better-placed one —
    /// feeds the [`BYPASS_LIMIT`] anti-starvation guard.
    pub(crate) bypassed: u32,
}

impl ShardJob {
    pub(crate) fn eligible(&self, worker_device: AggregationDevice) -> bool {
        self.device.is_none_or(|d| d == worker_device)
    }

    /// Residency of the shard's two tiles (first slide, second slide).
    fn residency(&self) -> (TileResidency, TileResidency) {
        let query = &self.query;
        (
            query.store.tile_residency(TileId {
                slide: query.meta.first,
                index: self.tile_index,
            }),
            query.store.tile_residency(TileId {
                slide: query.meta.second,
                index: self.tile_index,
            }),
        )
    }

    /// Whether either of the shard's tiles was last faulted in by
    /// `worker` — the engine whose past activity pulled this data in.
    fn affine_to(&self, worker: &Worker) -> bool {
        let query = &self.query;
        [query.meta.first, query.meta.second].iter().any(|&slide| {
            query.store.tile_affinity(TileId {
                slide,
                index: self.tile_index,
            }) == Some(worker.index)
        })
    }
}

/// The placement decisions a policy makes, over the crate's internal shard
/// and query types. Object-safe; the queue holds one boxed instance.
trait Placement: Send + Sync {
    /// Reorders a query's `(position, tile_index)` shards before they are
    /// enqueued. Only the *enqueue* order changes — `position` still names
    /// each tile's slot in the merge-ordered response, so placement cannot
    /// alter the fold.
    fn order_shards(&self, query: &QueryState, shards: &mut [(usize, usize)]) {
        let _ = (query, shards);
    }

    /// Picks the index of the shard `worker` should take from `lane`, or
    /// `None` if no shard in the lane is eligible. May mutate bypass
    /// counters on the shards it passes over.
    fn select(&self, lane: &mut VecDeque<ShardJob>, worker: &Worker) -> Option<usize>;

    /// Observes a dispatch (the chosen shard, just removed from its lane)
    /// for the placement counters.
    fn on_dispatch(&self, job: &ShardJob, worker: &Worker, counters: &SchedulerCounters) {
        let _ = (job, worker, counters);
    }
}

/// The historical first-eligible dispatch. Counts nothing and reorders
/// nothing: with this policy the scheduler behaves exactly as before the
/// placement layer existed.
struct RoundRobin;

impl Placement for RoundRobin {
    fn select(&self, lane: &mut VecDeque<ShardJob>, worker: &Worker) -> Option<usize> {
        lane.iter().position(|job| job.eligible(worker.device))
    }
}

/// Resident tiles first, affinity tie-break, bounded bypass.
struct ResidencyAware;

impl ResidencyAware {
    /// Whether both of the shard's tiles can be served without a disk fault
    /// right now (in-memory tiles always can).
    fn available(residency: (TileResidency, TileResidency)) -> bool {
        residency.0 != TileResidency::Absent && residency.1 != TileResidency::Absent
    }
}

impl Placement for ResidencyAware {
    fn order_shards(&self, query: &QueryState, shards: &mut [(usize, usize)]) {
        let first = query.store.residency_snapshot(query.meta.first);
        let second = query.store.residency_snapshot(query.meta.second);
        if first.is_none() && second.is_none() {
            return; // fully in-memory: every order is equally local
        }
        let resident = |tile: usize| {
            first.as_ref().is_none_or(|s| s.is_resident(tile))
                && second.as_ref().is_none_or(|s| s.is_resident(tile))
        };
        // Stable: resident tiles keep their relative order in front,
        // non-resident ones behind.
        shards.sort_by_key(|&(_, tile)| !resident(tile));
    }

    fn select(&self, lane: &mut VecDeque<ShardJob>, worker: &Worker) -> Option<usize> {
        let mut first_eligible = None;
        let mut first_available = None;
        let mut affine = None;
        let mut scanned = 0;
        for (pos, job) in lane.iter().enumerate() {
            if !job.eligible(worker.device) {
                continue;
            }
            if first_eligible.is_none() {
                first_eligible = Some(pos);
                if job.bypassed >= BYPASS_LIMIT {
                    // Anti-starvation: the oldest eligible shard has waited
                    // long enough; locality yields.
                    break;
                }
            }
            scanned += 1;
            if scanned > SCAN_LIMIT {
                break;
            }
            let residency = job.residency();
            if Self::available(residency) {
                if first_available.is_none() {
                    first_available = Some(pos);
                }
                if job.affine_to(worker) {
                    affine = Some(pos);
                    break; // best tier: resident *and* this worker's data
                }
            }
        }
        let choice = if first_eligible
            .and_then(|pos| lane.get(pos))
            .is_some_and(|job| job.bypassed >= BYPASS_LIMIT)
        {
            first_eligible
        } else {
            affine.or(first_available).or(first_eligible)
        };
        if let Some(chosen) = choice {
            for (pos, job) in lane.iter_mut().enumerate() {
                if pos == chosen {
                    break;
                }
                if job.eligible(worker.device) {
                    job.bypassed = job.bypassed.saturating_add(1);
                }
            }
        }
        choice
    }

    fn on_dispatch(&self, job: &ShardJob, _worker: &Worker, counters: &SchedulerCounters) {
        let residency = job.residency();
        let touches_disk =
            residency.0 != TileResidency::Memory || residency.1 != TileResidency::Memory;
        if touches_disk {
            if Self::available(residency) {
                counters.affinity_hits.fetch_add(1, Ordering::Relaxed);
                let resident = [residency.0, residency.1]
                    .iter()
                    .filter(|&&r| r == TileResidency::Resident)
                    .count() as u64;
                counters
                    .faults_avoided
                    .fetch_add(resident, Ordering::Relaxed);
            } else {
                counters.affinity_misses.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Priority-laned job queue shared by every worker task, dispatching
/// through the configured placement policy. Workers await [`JobQueue::pop`]:
/// an idle worker is a suspended future on the waker list — it holds no OS
/// thread and is re-polled when a shard arrives or the queue closes.
pub(crate) struct JobQueue {
    state: Mutex<QueueState>,
    policy: Box<dyn Placement>,
    kind: PlacementPolicy,
    counters: SchedulerCounters,
    /// Engine liveness: a dead engine's pop parks instead of taking work
    /// (and is lazily revived there once its cooldown elapses).
    supervisor: Arc<Supervisor>,
}

struct QueueState {
    /// One FIFO lane per [`crate::QueryPriority`], most urgent first.
    lanes: [VecDeque<ShardJob>; 3],
    closed: bool,
    /// Worker tasks waiting for an eligible shard. Eligibility differs per
    /// worker, so every push wakes all of them to re-scan.
    wakers: Vec<Waker>,
}

impl JobQueue {
    pub(crate) fn new(kind: PlacementPolicy, supervisor: Arc<Supervisor>) -> Self {
        let policy: Box<dyn Placement> = match kind {
            PlacementPolicy::RoundRobin => Box::new(RoundRobin),
            PlacementPolicy::ResidencyAware => Box::new(ResidencyAware),
        };
        JobQueue {
            state: Mutex::new(QueueState {
                lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                closed: false,
                wakers: Vec::new(),
            }),
            policy,
            kind,
            counters: SchedulerCounters::default(),
            supervisor,
        }
    }

    /// Removes and returns every queued shard no live engine is eligible
    /// for. Called after an engine death: shards pinned to a device the
    /// surviving pool cannot serve would otherwise sit in the lanes forever,
    /// leaving their queries' merge barriers waiting — the caller fails each
    /// drained shard with a typed error instead.
    pub(crate) fn drain_ineligible(&self) -> Vec<ShardJob> {
        let mut state = lock(&self.state);
        let mut orphaned = Vec::new();
        for lane in state.lanes.iter_mut() {
            let mut kept = VecDeque::with_capacity(lane.len());
            while let Some(job) = lane.pop_front() {
                if self.supervisor.live_eligible_exists(job.device) {
                    kept.push_back(job);
                } else {
                    orphaned.push(job);
                }
            }
            *lane = kept;
        }
        orphaned
    }

    /// Applies the policy's shard ordering before enqueueing (see
    /// [`Placement::order_shards`]).
    pub(crate) fn place(&self, query: &QueryState, shards: &mut [(usize, usize)]) {
        self.policy.order_shards(query, shards);
    }

    /// Snapshot of the placement counters.
    pub(crate) fn stats(&self) -> SchedulerStats {
        self.counters.snapshot(self.kind)
    }

    pub(crate) fn push(&self, job: ShardJob, lane: usize) {
        let wakers = {
            let mut state = lock(&self.state);
            state.lanes[lane].push_back(job);
            std::mem::take(&mut state.wakers)
        };
        for waker in wakers {
            waker.wake();
        }
    }

    /// Resolves to the shard the policy places on `worker`, suspending
    /// while none is eligible. Resolves to `None` once the queue is closed
    /// and no eligible work remains (pending work is drained before
    /// shutdown).
    pub(crate) fn pop(&self, worker: Worker) -> PopJob<'_> {
        PopJob {
            queue: self,
            worker,
        }
    }

    pub(crate) fn close(&self) {
        let wakers = {
            let mut state = lock(&self.state);
            state.closed = true;
            std::mem::take(&mut state.wakers)
        };
        for waker in wakers {
            waker.wake();
        }
    }
}

/// Future returned by [`JobQueue::pop`].
pub(crate) struct PopJob<'a> {
    queue: &'a JobQueue,
    worker: Worker,
}

impl Future for PopJob<'_> {
    type Output = Option<ShardJob>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // A dead engine parks instead of popping: the shards it would have
        // taken go to survivors. Each poll (the queue wakes all parked
        // workers on every push) re-checks liveness, which is where a
        // cooled-down engine revives.
        if !self.queue.supervisor.may_pop(self.worker.index) {
            let mut state = lock(&self.queue.state);
            if state.closed {
                // Shutdown must terminate dead workers too, or the
                // executor's drain would wait on them forever.
                return Poll::Ready(None);
            }
            register_waker(&mut state.wakers, cx.waker());
            return Poll::Pending;
        }
        let mut state = lock(&self.queue.state);
        for lane in state.lanes.iter_mut() {
            if let Some(pos) = self.queue.policy.select(lane, &self.worker) {
                let job = lane.remove(pos).expect("selected shard is in the lane");
                self.queue
                    .policy
                    .on_dispatch(&job, &self.worker, &self.queue.counters);
                return Poll::Ready(Some(job));
            }
        }
        if state.closed {
            return Poll::Ready(None);
        }
        register_waker(&mut state.wakers, cx.waker());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheKey;
    use crate::request::QueryPriority;
    use crate::service::{QueryMeta, QueryState};
    use crate::store::{SlideId, SlideStore};
    use sccg::pipeline::exec::block_on;
    use sccg::pixelbox::PixelBoxConfig;
    use sccg_geometry::text::{parse_polygon_file, write_polygon_file};
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::task::Wake;

    /// A waker that records whether it was woken.
    struct Flag(AtomicBool);

    impl Wake for Flag {
        fn wake(self: Arc<Self>) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    /// A queue whose supervisor considers every engine alive (large
    /// threshold, irrelevant cooldown) — supervision is exercised in the
    /// service-level fault tests, not here.
    fn open_queue(kind: PlacementPolicy) -> JobQueue {
        let devices = [AggregationDevice::Gpu, AggregationDevice::Cpu];
        JobQueue::new(
            kind,
            Arc::new(Supervisor::new(
                &devices,
                u32::MAX,
                std::time::Duration::from_secs(3600),
            )),
        )
    }

    fn test_query(
        store: SlideStore,
        first: SlideId,
        second: SlideId,
        shards: usize,
    ) -> Arc<QueryState> {
        let (responder, _keepalive) = crossbeam::channel::bounded(1);
        Arc::new(QueryState {
            key: CacheKey {
                first,
                second,
                tiles: Vec::new(),
                config: 0,
                device: None,
            },
            meta: QueryMeta {
                first,
                second,
                priority: QueryPriority::Normal,
                device: None,
            },
            store,
            pixelbox: PixelBoxConfig::paper_default(),
            partials: Mutex::new(Vec::new()),
            remaining: AtomicUsize::new(shards),
            failure: Mutex::new(None),
            responder,
            stream: None,
            deadline: None,
        })
    }

    fn job(query: &Arc<QueryState>, tile: usize, device: Option<AggregationDevice>) -> ShardJob {
        ShardJob {
            query: Arc::clone(query),
            position: tile,
            tile_index: tile,
            device,
            bypassed: 0,
        }
    }

    fn poll_pop(queue: &JobQueue, worker: Worker, flag: &Arc<Flag>) -> Poll<Option<ShardJob>> {
        let waker = Waker::from(Arc::clone(flag));
        let mut cx = Context::from_waker(&waker);
        let mut pop = queue.pop(worker);
        Pin::new(&mut pop).poll(&mut cx)
    }

    /// The fairness satellite: a CPU-only shard queued *behind* GPU-pinned
    /// shards must be handed to a CPU worker immediately — the eligibility
    /// scan skips over ineligible work rather than head-of-line blocking —
    /// and a GPU worker parked before the pushes must have been woken by
    /// them. Checked for both policies.
    #[test]
    fn cpu_job_behind_gpu_jobs_is_not_starved() {
        for kind in [PlacementPolicy::RoundRobin, PlacementPolicy::ResidencyAware] {
            let queue = open_queue(kind);
            let gpu_worker = Worker {
                device: AggregationDevice::Gpu,
                index: 0,
            };
            let cpu_worker = Worker {
                device: AggregationDevice::Cpu,
                index: 1,
            };
            // Park a GPU worker on the empty queue.
            let parked = Arc::new(Flag(AtomicBool::new(false)));
            assert!(poll_pop(&queue, gpu_worker, &parked).is_pending());

            let store = SlideStore::new();
            let first = store.register_slide("a", vec![vec![]; 4]);
            let second = store.register_slide("b", vec![vec![]; 4]);
            let query = test_query(store, first, second, 4);
            for tile in 0..3 {
                queue.push(job(&query, tile, Some(AggregationDevice::Gpu)), 1);
            }
            queue.push(job(&query, 3, Some(AggregationDevice::Cpu)), 1);
            assert!(
                parked.0.load(Ordering::SeqCst),
                "{kind:?}: the parked GPU worker was woken by the pushes"
            );

            // The CPU worker gets its shard on the first poll, despite the
            // three GPU-pinned shards ahead of it in the lane.
            let idle = Arc::new(Flag(AtomicBool::new(false)));
            match poll_pop(&queue, cpu_worker, &idle) {
                Poll::Ready(Some(job)) => assert_eq!(job.tile_index, 3, "{kind:?}"),
                other => panic!(
                    "{kind:?}: CPU worker starved: {other:?}",
                    other = other.is_pending()
                ),
            }
        }
    }

    /// The residency-aware bypass guard: a shard whose tiles are never
    /// resident must still be dispatched after at most [`BYPASS_LIMIT`]
    /// better-placed dispatches.
    #[test]
    fn bypassed_shards_are_eventually_dispatched() {
        let dir = std::env::temp_dir()
            .join("sccg-serve-scheduler-tests")
            .join(format!("bypass-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SlideStore::with_spill(&dir, 1).unwrap();
        let texts: Vec<String> = (0..2)
            .map(|i| {
                let records = parse_polygon_file(&format!("{i} 4 0 0 10 0 10 10 0 10")).unwrap();
                write_polygon_file(&records)
            })
            .collect();
        let first = store.register_slide_streaming("a", texts.clone()).unwrap();
        let second = store.register_slide_streaming("b", texts).unwrap();
        // Make tile 1 resident in both pagers; tile 0 stays absent (bound 1).
        for slide in [first, second] {
            store
                .tile(crate::store::TileId { slide, index: 1 })
                .unwrap();
        }

        let queue = open_queue(PlacementPolicy::ResidencyAware);
        let worker = Worker {
            device: AggregationDevice::Cpu,
            index: 0,
        };
        let query = test_query(store, first, second, 2);
        queue.push(job(&query, 0, None), 1); // absent: gets bypassed
        let mut dispatches = 0u32;
        loop {
            queue.push(job(&query, 1, None), 1); // resident: preferred
            let popped = block_on(queue.pop(worker)).expect("open queue");
            dispatches += 1;
            if popped.tile_index == 0 {
                break;
            }
            assert!(
                dispatches <= BYPASS_LIMIT + 2,
                "absent shard starved past the bypass guard"
            );
        }
        assert!(
            dispatches > 1,
            "the resident shard was preferred at least once"
        );
        let stats = queue.stats();
        assert_eq!(stats.policy, "residency-aware");
        assert!(stats.affinity_hits >= 1, "{stats:?}");
        assert!(stats.affinity_misses >= 1, "{stats:?}");
        drop(query);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Closing the queue wakes parked workers and drains pending work
    /// before reporting `None` — under both policies.
    #[test]
    fn close_drains_then_resolves_none() {
        for kind in [PlacementPolicy::RoundRobin, PlacementPolicy::ResidencyAware] {
            let queue = open_queue(kind);
            let worker = Worker {
                device: AggregationDevice::Cpu,
                index: 0,
            };
            let store = SlideStore::new();
            let first = store.register_slide("a", vec![vec![]]);
            let second = store.register_slide("b", vec![vec![]]);
            let query = test_query(store, first, second, 1);
            queue.push(job(&query, 0, None), 2);
            queue.close();
            assert!(block_on(queue.pop(worker)).is_some(), "{kind:?}: drained");
            assert!(block_on(queue.pop(worker)).is_none(), "{kind:?}: closed");
        }
    }
}
