//! `viewer`: interactive region-of-interest browsing over paged slides.
//!
//! The four largest catalog pairs are registered by streaming into a spill
//! store that keeps at most [`RESIDENCY`] decoded tiles per slide resident,
//! so the walk's working set is several times the bound. The service runs
//! its default configuration, response cache included. Requests arrive
//! open-loop at a fixed rate over two connections; each streams the tiles
//! of a 4–12 tile region that pans along a seeded walk and sometimes jumps
//! to another slide. The store dominates: tile faults and the edge-table
//! rebuilds of re-faulted polygons.

use crate::inputs::{self, matches_reference, Reference};
use crate::layers::{storage_delta, LayerRun, QueryLog};
use crate::load::{ms, ok_p50, OpenLoop, Sample, Timing};
use crate::replay::{fetch_paged, query_messages, wire_round_trip, Compute, ReadCounts, Tracer};
use crate::{timed_setups, Args, Report, Scratch};
use sccg_net::wire::WireRequestSpec;
use sccg_net::{ClientConfig, NetConfig, WireClient, WireResponse, WireServer};
use sccg_serve::{ComparisonService, ServiceConfig, SlideId, SlideStore};
use sccg_store::{SlideFile, TileStorage};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Catalog indices of the four largest pairs.
const PAIRS: [usize; 4] = [14, 15, 16, 17];
/// Decoded tiles each slide may keep resident.
pub const RESIDENCY: usize = 8;
/// Arrivals per second.
const RATE: u32 = 50;
/// Connections, one client thread each.
const CLIENTS: usize = 2;
/// Latency limit of `goodput_share`, ms from the due time.
const LIMIT_MS: f64 = 25.0;
/// Windows the measured run is cut into; figures are medians over them.
const WINDOWS: usize = 10;
/// Traced queries the replay re-runs.
const REPLAY_QUERIES: usize = 100;
/// Region lengths, in tiles.
const MIN_REGION: usize = 4;
const MAX_REGION: usize = 12;
/// Largest pan step, in tiles.
const MAX_PAN: usize = 3;
/// Every this many requests the walk jumps to the next slide. A fixed
/// cadence over the slides in turn gives every seed the same share of
/// requests per slide, so seeds differ in where the regions fall, not in
/// how much of the load each slide carries.
const JUMP_EVERY: usize = 10;
/// Mixed into the workload seed to seed the walk.
const WALK_SALT: u64 = 0x5649_4557_4552_5741;

/// SplitMix64: a small, seedable generator for the walk.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One region request: a pair and a run of contiguous tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Region {
    pair: usize,
    start: usize,
    len: usize,
}

impl Region {
    fn spec(&self) -> WireRequestSpec {
        let mut spec = WireRequestSpec::new(
            SlideId::from_raw(2 * self.pair as u64),
            SlideId::from_raw(2 * self.pair as u64 + 1),
        );
        spec.tiles = Some(
            (self.start..self.start + self.len)
                .map(|t| t as u64)
                .collect(),
        );
        spec
    }
}

/// The seeded pan walk over slides with `tiles[p]` tiles each.
fn walk(seed: u64, tiles: &[usize], count: usize) -> Vec<Region> {
    let mut rng = SplitMix64(seed ^ WALK_SALT);
    let (mut pair, mut start) = (tiles.len() - 1, 0usize);
    (0..count)
        .map(|step| {
            let len = MIN_REGION + rng.below((MAX_REGION - MIN_REGION + 1) as u64) as usize;
            if step % JUMP_EVERY == 0 {
                pair = (pair + 1) % tiles.len();
                start = rng.below(tiles[pair] as u64) as usize;
            } else {
                let step = rng.below(2 * MAX_PAN as u64 + 1) as usize;
                start = (start + step).saturating_sub(MAX_PAN);
            }
            start = start.min(tiles[pair] - len);
            Region { pair, start, len }
        })
        .collect()
}

struct Setup {
    /// The generated inputs, kept for the reference.
    pairs: Vec<inputs::SlidePair>,
    /// Polygon-text bytes per pair and tile.
    tile_bytes: Vec<Vec<usize>>,
    walk: Vec<Region>,
    reference: HashMap<Region, WireResponse>,
    store_dir: PathBuf,
    service: Arc<ComparisonService>,
    server: WireServer,
    // Dropped last: removes the spill files.
    _scratch: Scratch,
}

fn setup(seed: u64, requests: usize) -> Result<Setup, String> {
    let pairs = inputs::generate(seed, &PAIRS);
    let scratch = Scratch::new("viewer")?;
    let store_dir = scratch.path().join("store");
    let store = SlideStore::with_spill(&store_dir, RESIDENCY).map_err(|e| e.to_string())?;
    for pair in &pairs {
        for (side, texts) in [("a", &pair.first_text), ("b", &pair.second_text)] {
            store
                .register_slide_streaming(format!("{}-{side}", pair.name), texts.iter().cloned())
                .map_err(|e| format!("register {}: {e}", pair.name))?;
        }
    }
    let service = Arc::new(
        ComparisonService::new(store, ServiceConfig::default()).map_err(|e| e.to_string())?,
    );
    let server = WireServer::start(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
        .map_err(|e| format!("start wire server: {e}"))?;
    let tiles: Vec<usize> = pairs.iter().map(|p| p.tiles()).collect();
    let tile_bytes = pairs
        .iter()
        .map(|p| (0..p.tiles()).map(|t| p.tile_text_bytes(t)).collect())
        .collect();
    Ok(Setup {
        walk: walk(seed, &tiles, requests),
        reference: HashMap::new(),
        pairs,
        tile_bytes,
        store_dir,
        service,
        server,
        _scratch: scratch,
    })
}

/// One open-loop request as the client saw it.
struct Served {
    region: Region,
    timing: Timing,
    /// Arrival of every tile frame, when traced.
    frames: Vec<Duration>,
    result: Result<WireResponse, String>,
}

/// Sends `regions` open-loop at [`RATE`], each due on its schedule slot.
/// Traced runs also record the arrival of every tile frame.
fn open_loop(
    setup: &Setup,
    regions: &[Region],
    traced: bool,
) -> Result<(Vec<Served>, Duration), String> {
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        let client = WireClient::connect(setup.server.local_addr(), ClientConfig::default())
            .map_err(|e| format!("connect: {e}"))?;
        clients.push(client);
    }
    let schedule = OpenLoop::new(RATE, Duration::from_secs(1));
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut served: Vec<Served> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&region) = regions.get(i) else {
                            break out;
                        };
                        let due = schedule.due(i);
                        if let Some(wait) = due.checked_sub(start.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let sent = start.elapsed();
                        let mut first = None;
                        let mut frames = Vec::new();
                        let result = client
                            .query_streaming(&region.spec(), |_, _| {
                                let now = start.elapsed();
                                first.get_or_insert(now);
                                if traced {
                                    frames.push(now);
                                }
                            })
                            .map(|outcome| outcome.response)
                            .map_err(|e| e.to_string());
                        let done = start.elapsed();
                        out.push(Served {
                            region,
                            timing: Timing {
                                due,
                                sent,
                                first: first.unwrap_or(done),
                                done,
                            },
                            frames,
                            result,
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    served.sort_by_key(|s| s.timing.due);
    let elapsed = served
        .iter()
        .map(|s| s.timing.done)
        .max()
        .unwrap_or_default();
    Ok((served, elapsed))
}

/// Checks every answer against the reference, returning one sample per
/// attempted request, timed from its due time.
fn check(report: &mut Report, setup: &Setup, served: &[Served]) -> Vec<Sample> {
    served
        .iter()
        .map(|s| {
            let answer = s.result.as_ref().ok();
            let ok = answer.is_some_and(|r| matches_reference(r, &setup.reference[&s.region]));
            match answer {
                Some(_) => report.checked(ok),
                None => report.attempt(false),
            }
            let r = s.region;
            Sample {
                at: s.timing.due,
                ok,
                latency_ms: s.timing.latency_ms(),
                first_ms: s.timing.first_ms(),
                pairs: answer.map_or(0, |a| a.summary.candidate_pairs),
                bytes: setup.tile_bytes[r.pair][r.start..r.start + r.len]
                    .iter()
                    .sum(),
            }
        })
        .collect()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let requests = OpenLoop::new(RATE, args.run()).count;
    let (mut setup, setup_s) = timed_setups(|| setup(args.seed, requests))?;
    // The reference is computed once, outside the timed set-up: one
    // in-process query per distinct request of the walk.
    let mut distinct = setup.walk.clone();
    distinct.sort_by_key(|r| (r.pair, r.start, r.len));
    distinct.dedup();
    let specs: Vec<WireRequestSpec> = distinct.iter().map(Region::spec).collect();
    let answers = Reference::new(&setup.pairs).answers(&specs)?;
    setup.reference = distinct.into_iter().zip(answers).collect();
    setup.pairs.clear();
    let mut report = Report::default();
    if args.trace {
        traced(&mut setup, &mut report)?;
    } else {
        let (served, _) = open_loop(&setup, &setup.walk, false)?;
        let samples = check(&mut report, &setup, &served);
        let text: usize = setup.tile_bytes.iter().flatten().sum();
        let stored = setup.service.store().storage_stats().bytes_on_disk as f64 / text as f64;
        report.end_to_end(setup_s, &samples, args.run(), WINDOWS, LIMIT_MS, stored);
        let lags: Vec<f64> = served.iter().map(|s| s.timing.lag_ms()).collect();
        report.note(
            "send_lag_max_ms",
            lags.iter().copied().fold(0.0, f64::max),
            "ms",
        );
        let stats = setup.service.stats();
        report.note("cache_hits", stats.cache_hits as f64, "count");
        report.note("pager_hit_rate", stats.pager_hit_rate, "share");
    }
    setup.server.shutdown();
    Ok(report)
}

fn traced(setup: &mut Setup, report: &mut Report) -> Result<(), String> {
    let (untraced_walk, traced_walk) = setup.walk.split_at(setup.walk.len() / 2);
    let (untraced, _) = open_loop(setup, untraced_walk, false)?;
    let untraced_p50 = ok_p50(&check(report, setup, &untraced));
    let store_before = setup.service.store().storage_stats();
    let stats_before = setup.service.stats();
    let (traced, _) = open_loop(setup, traced_walk, true)?;
    let stats_after = setup.service.stats();
    let storage = storage_delta(&store_before, &setup.service.store().storage_stats());
    let traced_p50 = ok_p50(&check(report, setup, &traced));
    let frame_spans: usize = traced.iter().map(|s| s.frames.len()).sum();
    report.note("trace.tile_frame_spans", frame_spans as f64, "count");

    // The replay pages through pagers of its own over the same slide files,
    // so its faults follow the traced query order alone.
    let pagers = (0..2 * PAIRS.len())
        .map(|k| {
            let path = setup.store_dir.join(format!("slide-{k:06}.sccgt"));
            SlideFile::open(&path).map(|file| TileStorage::new(file, RESIDENCY))
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new();
    let mut compute = Compute::new();
    let mut reads = ReadCounts::default();
    let (mut frames, mut bytes, mut wire_queries) = (0, 0, 0);
    let mut queries = QueryLog::default();
    for (id, s) in traced
        .iter()
        .filter(|s| s.result.is_ok())
        .take(REPLAY_QUERIES)
        .enumerate()
    {
        let response = s.result.as_ref().expect("filtered to answered queries");
        let spec = s.region.spec();
        let service = &setup.service;
        let (outcome, spans) = tracer.query(|t| -> Result<f64, String> {
            let (f, b) = wire_round_trip(t, &query_messages(id as u64 + 1, &spec, true, response))?;
            frames += f;
            bytes += b;
            let (first, second) = (&pagers[2 * s.region.pair], &pagers[2 * s.region.pair + 1]);
            let mut tiles = Vec::with_capacity(s.region.len);
            for index in s.region.start..s.region.start + s.region.len {
                let a = fetch_paged(t, &mut reads, first, index)?;
                let b = fetch_paged(t, &mut reads, second, index)?;
                tiles.push(compute.tile(t, &a, &b)?);
            }
            let total = Compute::merge(t, &tiles);
            let started = Instant::now();
            let answer = t.span("serve.inproc", || {
                service
                    .submit(spec.to_request())
                    .and_then(|handle| handle.wait())
                    .map_err(|e| format!("in-process query failed: {e}"))
            })?;
            let inproc = ms(started.elapsed());
            let replayed = sccg_net::WireSummary::of_summary(&total.summary());
            if replayed != response.summary
                || !matches_reference(&WireResponse::of_response(&answer), response)
            {
                return Err("replayed query disagrees with its wire answer".to_string());
            }
            Ok(inproc)
        });
        wire_queries += 1;
        queries.record(report, outcome, &spans, Some(s.timing.service_ms()));
    }
    LayerRun {
        replayed: tracer.finish(),
        compute,
        reads,
        wire_queries,
        frames,
        bytes,
        queries,
        lag_ms: traced.iter().map(|s| s.timing.lag_ms()).collect(),
        service: Some((stats_before, stats_after)),
        storage,
        load_queries: traced.len() as u64,
        untraced_p50_ms: untraced_p50,
        traced_p50_ms: traced_p50,
    }
    .emit(report);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_pans_within_slides_and_repeats_per_seed() {
        let tiles = [36, 42, 51, 66];
        let regions = walk(5, &tiles, 2000);
        assert_eq!(regions, walk(5, &tiles, 2000));
        assert_ne!(regions, walk(6, &tiles, 2000));
        for (step, pair) in regions.windows(2).enumerate() {
            let (a, b) = (pair[0], pair[1]);
            assert!((MIN_REGION..=MAX_REGION).contains(&b.len));
            assert!(b.start + b.len <= tiles[b.pair]);
            if (step + 1) % JUMP_EVERY == 0 {
                assert_eq!(b.pair, (a.pair + 1) % tiles.len());
            } else {
                assert_eq!(b.pair, a.pair);
                // A pan moves at most MAX_PAN tiles, unless a longer region
                // had to be pulled back from the slide's end.
                let clamped = b.start + b.len == tiles[b.pair];
                assert!(a.start.abs_diff(b.start) <= MAX_PAN || clamped);
            }
        }
        let per_slide = |p: usize| regions.iter().filter(|r| r.pair == p).count();
        assert!((0..tiles.len()).all(|p| per_slide(p) == 2000 / tiles.len()));
    }
}
