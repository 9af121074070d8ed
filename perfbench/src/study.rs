//! `study`: the paper's 18-slide study served over the wire.
//!
//! Every catalog pair sits in an in-memory store behind a service with the
//! default engine pool and no response cache (a study never repeats a
//! comparison). Two closed-loop clients cycle whole-slide queries through
//! the catalog from offset starting points, so the MBR filter, the edge
//! tables, the PixelBox kernels, the merge and serve queueing do the work,
//! not the store.

use crate::inputs::{self, matches_reference};
use crate::layers::{storage_delta, LayerRun, QueryLog};
use crate::load::{ms, ok_p50, Sample};
use crate::replay::{query_messages, wire_round_trip, Compute, ReadCounts, Tracer};
use crate::{timed_setups, Args, Report, Scratch};
use sccg_net::wire::WireRequestSpec;
use sccg_net::{ClientConfig, NetConfig, WireClient, WireResponse, WireServer};
use sccg_serve::{ComparisonService, ServiceConfig, SlideStore, TileId};
use sccg_store::SlideFileWriter;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop clients, one connection each.
const CLIENTS: usize = 2;
/// Latency limit of `goodput_share`, ms.
const LIMIT_MS: f64 = 100.0;
/// Windows the measured run is cut into; figures are medians over them.
const WINDOWS: usize = 10;
/// Traced queries the replay re-runs: two passes over the catalog.
const REPLAY_QUERIES: usize = 36;

struct Setup {
    specs: Vec<WireRequestSpec>,
    text_bytes: Vec<usize>,
    reference: Vec<WireResponse>,
    service: Arc<ComparisonService>,
    server: WireServer,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let pairs = inputs::generate(seed, &inputs::all_indices());
    let text_bytes = pairs.iter().map(|p| p.text_bytes()).collect();
    let store = SlideStore::new();
    let mut specs = Vec::with_capacity(pairs.len());
    for pair in pairs {
        let a = store.register_slide(format!("{}-a", pair.name), pair.first);
        let b = store.register_slide(format!("{}-b", pair.name), pair.second);
        specs.push(WireRequestSpec::new(a, b));
    }
    let config = ServiceConfig::default().with_cache_capacity(0);
    let service = Arc::new(ComparisonService::new(store, config).map_err(|e| e.to_string())?);
    let server = WireServer::start(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
        .map_err(|e| format!("start wire server: {e}"))?;
    // The warm-up pass is the reference: one in-process query per distinct
    // request.
    let reference = specs
        .iter()
        .map(|spec| inproc(&service, spec))
        .collect::<Result<_, _>>()?;
    Ok(Setup {
        specs,
        text_bytes,
        reference,
        service,
        server,
    })
}

fn inproc(service: &ComparisonService, spec: &WireRequestSpec) -> Result<WireResponse, String> {
    let response = service
        .submit(spec.to_request())
        .and_then(|handle| handle.wait())
        .map_err(|e| format!("in-process query failed: {e}"))?;
    Ok(WireResponse::of_response(&response))
}

/// One completed closed-loop query.
struct Done {
    spec: usize,
    /// Offsets from the phase start.
    sent: Duration,
    done: Duration,
    /// Time between the client's previous completion and this send.
    lag: Duration,
    result: Result<WireResponse, String>,
}

/// Runs the closed loop for `run`, returning every query it completed and
/// the time the last one finished.
fn closed_loop(setup: &Setup, run: Duration) -> Result<(Vec<Done>, Duration), String> {
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        let client = WireClient::connect(setup.server.local_addr(), ClientConfig::default())
            .map_err(|e| format!("connect: {e}"))?;
        clients.push(client);
    }
    let n = setup.specs.len();
    let start = Instant::now();
    let mut done: Vec<Done> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut next = c * n / CLIENTS;
                    let mut previous = Duration::ZERO;
                    loop {
                        let sent = start.elapsed();
                        if sent >= run {
                            break out;
                        }
                        let result = client
                            .query_blocking(&setup.specs[next])
                            .map(|outcome| outcome.response)
                            .map_err(|e| e.to_string());
                        let finished = start.elapsed();
                        out.push(Done {
                            spec: next,
                            sent,
                            done: finished,
                            lag: sent.saturating_sub(previous),
                            result,
                        });
                        previous = finished;
                        next = (next + 1) % n;
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    done.sort_by_key(|d| d.sent);
    let elapsed = done.iter().map(|d| d.done).max().unwrap_or(run);
    Ok((done, elapsed))
}

/// Checks every answer against the reference, returning one sample per
/// attempted query.
fn check(report: &mut Report, setup: &Setup, done: &[Done]) -> Vec<Sample> {
    done.iter()
        .map(|d| {
            let answer = d.result.as_ref().ok();
            let ok = answer.is_some_and(|r| matches_reference(r, &setup.reference[d.spec]));
            match answer {
                Some(_) => report.checked(ok),
                None => report.attempt(false),
            }
            let latency_ms = ms(d.done - d.sent);
            Sample {
                at: d.sent,
                ok,
                latency_ms,
                // Whole-slide study queries are not streamed: the first
                // result frame is the summary.
                first_ms: latency_ms,
                pairs: answer.map_or(0, |r| r.summary.candidate_pairs),
                bytes: setup.text_bytes[d.spec],
            }
        })
        .collect()
}

/// Bytes the catalog occupies in the store's file format, per byte of
/// polygon text.
fn stored_ratio(setup: &Setup) -> Result<f64, String> {
    let scratch = Scratch::new("study")?;
    let store = setup.service.store();
    let mut stored = 0u64;
    for (i, spec) in setup.specs.iter().enumerate() {
        for slide in [spec.first, spec.second] {
            let slide = sccg_serve::SlideId::from_raw(slide);
            let path = scratch
                .path()
                .join(format!("slide-{i}-{}.sccgt", slide.value()));
            let mut writer = SlideFileWriter::create(&path).map_err(|e| e.to_string())?;
            for index in 0..store.tile_count(slide).map_err(|e| e.to_string())? {
                let records = store
                    .tile(TileId { slide, index })
                    .map_err(|e| e.to_string())?;
                writer.append_tile(&records).map_err(|e| e.to_string())?;
            }
            stored += writer.finish().map_err(|e| e.to_string())?.bytes_on_disk();
        }
    }
    Ok(stored as f64 / setup.text_bytes.iter().sum::<usize>() as f64)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (mut setup, setup_s) = timed_setups(|| setup(args.seed))?;
    let mut report = Report::default();
    if args.trace {
        traced(args, &mut setup, &mut report)?;
    } else {
        let (done, _) = closed_loop(&setup, args.run())?;
        let samples = check(&mut report, &setup, &done);
        let stored = stored_ratio(&setup)?;
        report.end_to_end(setup_s, &samples, args.run(), WINDOWS, LIMIT_MS, stored);
    }
    setup.server.shutdown();
    Ok(report)
}

fn traced(args: &Args, setup: &mut Setup, report: &mut Report) -> Result<(), String> {
    let half = args.run() / 2;
    let (untraced, _) = closed_loop(setup, half)?;
    let untraced_p50 = ok_p50(&check(report, setup, &untraced));
    let store_before = setup.service.store().storage_stats();
    let stats_before = setup.service.stats();
    let (traced, _) = closed_loop(setup, half)?;
    let stats_after = setup.service.stats();
    let storage = storage_delta(&store_before, &setup.service.store().storage_stats());
    let traced_p50 = ok_p50(&check(report, setup, &traced));

    let mut tracer = Tracer::new();
    let mut compute = Compute::new();
    let (mut frames, mut bytes, mut wire_queries) = (0, 0, 0);
    let mut queries = QueryLog::default();
    let store = setup.service.store().clone();
    for (id, d) in traced
        .iter()
        .filter(|d| d.result.is_ok())
        .take(REPLAY_QUERIES)
        .enumerate()
    {
        let response = d.result.as_ref().expect("filtered to answered queries");
        let spec = &setup.specs[d.spec];
        let service = &setup.service;
        let (outcome, spans) = tracer.query(|t| -> Result<f64, String> {
            let messages = query_messages(id as u64 + 1, spec, false, response);
            let (f, b) = wire_round_trip(t, &messages)?;
            frames += f;
            bytes += b;
            let mut tiles = Vec::with_capacity(response.tiles.len());
            for index in 0..response.tiles.len() {
                let fetch = |slide: u64| {
                    store.tile(TileId {
                        slide: sccg_serve::SlideId::from_raw(slide),
                        index,
                    })
                };
                let first = t.span("store.fetch_hit", || fetch(spec.first));
                let second = t.span("store.fetch_hit", || fetch(spec.second));
                let (first, second) = (
                    first.map_err(|e| e.to_string())?,
                    second.map_err(|e| e.to_string())?,
                );
                tiles.push(compute.tile(t, &first, &second)?);
            }
            let total = Compute::merge(t, &tiles);
            let started = Instant::now();
            let answer = t.span("serve.inproc", || inproc(service, spec))?;
            let inproc = ms(started.elapsed());
            let replayed = sccg_net::WireSummary::of_summary(&total.summary());
            if replayed != response.summary || !matches_reference(&answer, response) {
                return Err("replayed query disagrees with its wire answer".to_string());
            }
            Ok(inproc)
        });
        wire_queries += 1;
        queries.record(report, outcome, &spans, Some(ms(d.done - d.sent)));
    }
    LayerRun {
        replayed: tracer.finish(),
        compute,
        reads: ReadCounts::default(),
        wire_queries,
        frames,
        bytes,
        queries,
        lag_ms: traced.iter().map(|d| ms(d.lag)).collect(),
        service: Some((stats_before, stats_after)),
        storage,
        load_queries: traced.len() as u64,
        untraced_p50_ms: untraced_p50,
        traced_p50_ms: traced_p50,
    }
    .emit(report);
    Ok(())
}
