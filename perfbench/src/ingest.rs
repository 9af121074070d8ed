//! `ingest`: new segmentation results arriving, in process (registration
//! has no wire API).
//!
//! Each round creates a fresh spill store, streams every catalog pair from
//! polygon text into it, and runs one cold whole-slide comparison per pair
//! as soon as the pair is registered. This is the store's write path
//! (parse, encode, checksum, write, rename) beside a cold read path, with no
//! wire and no cache hits.

use crate::inputs::{self, matches_reference, Reference, SlidePair};
use crate::layers::{storage_add, LayerRun, QueryLog};
use crate::load::{ms, ok_p50, Latencies, Sample};
use crate::replay::{fetch_paged, Compute, ReadCounts, Tracer};
use crate::viewer::RESIDENCY;
use crate::{timed_setups, Args, Report, Scratch};
use sccg_geometry::text::parse_polygon_file;
use sccg_net::wire::WireRequestSpec;
use sccg_net::{WireResponse, WireSummary};
use sccg_serve::{ComparisonService, QueryEvent, ServiceConfig, SlideId, SlideStore, StorageStats};
use sccg_store::{encode_tile, SlideFileWriter, TileStorage};
use std::time::{Duration, Instant};

/// Latency limit of `goodput_share`, ms from submission.
const LIMIT_MS: f64 = 100.0;
/// Windows the measured run is cut into; figures are medians over them.
/// A round takes about a second, so 6 s windows hold over 100 comparisons.
const WINDOWS: usize = 5;

struct Setup {
    pairs: Vec<SlidePair>,
    reference: Vec<WireResponse>,
    scratch: Scratch,
}

fn setup(seed: u64) -> Result<Setup, String> {
    Ok(Setup {
        pairs: inputs::generate(seed, &inputs::all_indices()),
        reference: Vec::new(),
        scratch: Scratch::new("ingest")?,
    })
}

/// One in-process reference query per pair, computed once outside the
/// timed set-up. Rounds ingest the text, so the parsed polygons are
/// dropped afterwards.
fn add_reference(setup: &mut Setup) -> Result<(), String> {
    let specs: Vec<WireRequestSpec> = (0..setup.pairs.len() as u64)
        .map(|k| WireRequestSpec::new(SlideId::from_raw(2 * k), SlideId::from_raw(2 * k + 1)))
        .collect();
    setup.reference = Reference::new(&setup.pairs).answers(&specs)?;
    for pair in &mut setup.pairs {
        pair.first = Vec::new();
        pair.second = Vec::new();
    }
    Ok(())
}

/// One pair's cold comparison within a round.
struct Compared {
    pair: usize,
    /// Submission, from the phase start.
    at: Duration,
    /// From submission to the first tile event, and to the response.
    first: Duration,
    done: Duration,
    result: Result<WireResponse, String>,
}

/// What one round ingested and compared.
#[derive(Default)]
struct Round {
    compared: Vec<Compared>,
    registrations: u64,
    failed_registrations: u64,
    bytes: usize,
    /// The round's store counters, spill-file bytes included.
    storage: StorageStats,
    /// Client-side spans of every registration, when traced: start and end
    /// from the round's start.
    spans: Vec<(Duration, Duration)>,
}

/// Registers and compares every pair once, in a fresh spill store.
fn round(
    setup: &Setup,
    number: usize,
    traced: bool,
    phase_start: Instant,
) -> Result<Round, String> {
    let round_start = Instant::now();
    let dir = setup.scratch.path().join(format!("round-{number}"));
    let store = SlideStore::with_spill(&dir, RESIDENCY).map_err(|e| e.to_string())?;
    let service = ComparisonService::new(store.clone(), ServiceConfig::default())
        .map_err(|e| e.to_string())?;
    let mut out = Round::default();
    for (k, pair) in setup.pairs.iter().enumerate() {
        let mut ids = Vec::with_capacity(2);
        for (side, texts) in [("a", &pair.first_text), ("b", &pair.second_text)] {
            out.registrations += 1;
            let began = round_start.elapsed();
            let registered = store
                .register_slide_streaming(format!("{}-{side}", pair.name), texts.iter().cloned());
            if traced {
                out.spans.push((began, round_start.elapsed()));
            }
            match registered {
                Ok(id) => ids.push(id),
                Err(error) => {
                    eprintln!("perfbench: register {}: {error}", pair.name);
                    out.failed_registrations += 1;
                }
            }
        }
        let [a, b] = ids[..] else { continue };
        out.bytes += pair.text_bytes();
        let started = Instant::now();
        let mut first = None;
        let result = service
            .submit_streaming(WireRequestSpec::new(a, b).to_request())
            .and_then(|handle| loop {
                match handle.next_event() {
                    Some(QueryEvent::Tile { .. }) => {
                        first.get_or_insert_with(|| started.elapsed());
                    }
                    Some(QueryEvent::Finished(result)) => break result,
                    None => break Err(sccg::SccgError::ShutDown),
                }
            })
            .map(|response| WireResponse::of_response(&response))
            .map_err(|e| e.to_string());
        let done = started.elapsed();
        out.compared.push(Compared {
            pair: k,
            at: started - phase_start,
            first: first.unwrap_or(done),
            done,
            result,
        });
    }
    out.storage = store.storage_stats();
    drop(service);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

/// Rounds until `run` has elapsed (a round in progress finishes).
fn rounds(
    setup: &Setup,
    run: Duration,
    first_number: usize,
    traced: bool,
) -> Result<(Vec<Round>, Duration), String> {
    let started = Instant::now();
    let mut out = Vec::new();
    while started.elapsed() < run {
        out.push(round(setup, first_number + out.len(), traced, started)?);
    }
    Ok((out, started.elapsed()))
}

/// Counts every registration, and checks every comparison against the
/// reference, returning one sample per attempted comparison.
fn check(report: &mut Report, setup: &Setup, rounds: &[Round]) -> Vec<Sample> {
    let mut samples = Vec::new();
    for round in rounds {
        report.attempted += round.registrations;
        report.failed += round.failed_registrations;
        for c in &round.compared {
            let answer = c.result.as_ref().ok();
            let ok = answer.is_some_and(|r| matches_reference(r, &setup.reference[c.pair]));
            match answer {
                Some(_) => report.checked(ok),
                None => report.attempt(false),
            }
            samples.push(Sample {
                at: c.at,
                ok,
                latency_ms: ms(c.done),
                first_ms: ms(c.first),
                pairs: answer.map_or(0, |r| r.summary.candidate_pairs),
                bytes: setup.pairs[c.pair].text_bytes(),
            });
        }
    }
    samples
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (mut setup, setup_s) = timed_setups(|| setup(args.seed))?;
    add_reference(&mut setup)?;
    let mut report = Report::default();
    if args.trace {
        traced(args, &setup, &mut report)?;
        return Ok(report);
    }
    let (rounds, _) = rounds(&setup, args.run(), 0, false)?;
    let samples = check(&mut report, &setup, &rounds);
    let last = rounds.last().ok_or("no round completed")?;
    let stored = last.storage.bytes_on_disk as f64 / last.bytes as f64;
    report.end_to_end(setup_s, &samples, args.run(), WINDOWS, LIMIT_MS, stored);
    report.note("rounds", rounds.len() as f64, "count");
    Ok(report)
}

fn traced(args: &Args, setup: &Setup, report: &mut Report) -> Result<(), String> {
    let half = args.run() / 2;
    let (untraced, _) = rounds(setup, half, 0, false)?;
    let untraced_p50 = ok_p50(&check(report, setup, &untraced));
    let (traced, _) = rounds(setup, half, untraced.len(), true)?;
    let traced_p50 = ok_p50(&check(report, setup, &traced));
    let spans: Vec<f64> = traced
        .iter()
        .flat_map(|r| &r.spans)
        .map(|&(began, ended)| ms(ended - began))
        .collect();
    report.note("trace.registration_spans", spans.len() as f64, "count");
    report.note(
        "trace.registration_p50_ms",
        Latencies::new(spans).p(50.0),
        "ms",
    );
    let mut storage = StorageStats::default();
    for round in &traced {
        storage_add(&mut storage, &round.storage);
    }
    let last = traced.last().ok_or("no traced round completed")?;

    // Replays one round, pair by pair: parse, write, cold read, compute.
    let dir = setup.scratch.path().join("replay");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new();
    let mut compute = Compute::new();
    let mut reads = ReadCounts::default();
    let mut queries = QueryLog::default();
    for c in &last.compared {
        let pair = &setup.pairs[c.pair];
        let (outcome, spans) = tracer.query(|t| -> Result<(), String> {
            let mut pagers = Vec::with_capacity(2);
            for (side, texts) in [("a", &pair.first_text), ("b", &pair.second_text)] {
                let path = dir.join(format!("{}-{side}.sccgt", pair.name));
                let mut writer = t
                    .span("store.create", || SlideFileWriter::create(&path))
                    .map_err(|e| e.to_string())?;
                for text in texts {
                    let records = t
                        .span("geometry.parse", || parse_polygon_file(text))
                        .map_err(|e| e.to_string())?;
                    t.span("store.encode", || encode_tile(&records));
                    t.span("store.append", || writer.append_tile(&records))
                        .map_err(|e| e.to_string())?;
                }
                let file = t
                    .span("store.finish", || writer.finish())
                    .map_err(|e| e.to_string())?;
                pagers.push(TileStorage::new(file, RESIDENCY));
            }
            let mut tiles = Vec::with_capacity(pair.tiles());
            for index in 0..pair.tiles() {
                let a = fetch_paged(t, &mut reads, &pagers[0], index)?;
                let b = fetch_paged(t, &mut reads, &pagers[1], index)?;
                tiles.push(compute.tile(t, &a, &b)?);
            }
            let total = Compute::merge(t, &tiles);
            if WireSummary::of_summary(&total.summary()) != setup.reference[c.pair].summary {
                return Err(format!(
                    "replayed {} disagrees with its reference",
                    pair.name
                ));
            }
            Ok(())
        });
        // The round's own comparison of this pair is the in-process query;
        // the replay splits it into the read path and compute.
        queries.record(report, outcome.map(|()| ms(c.done)), &spans, None);
    }
    let _ = std::fs::remove_dir_all(&dir);
    LayerRun {
        replayed: tracer.finish(),
        compute,
        reads,
        wire_queries: 0,
        frames: 0,
        bytes: 0,
        queries,
        lag_ms: Vec::new(),
        service: None,
        storage,
        load_queries: traced.iter().map(|r| r.compared.len() as u64).sum(),
        untraced_p50_ms: untraced_p50,
        traced_p50_ms: traced_p50,
    }
    .emit(report);
    Ok(())
}
