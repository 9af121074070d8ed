//! Out-of-core equivalence: a service over disk-backed slides must be
//! indistinguishable — bit-for-bit — from the same service over in-memory
//! slides.
//!
//! Two stores are registered from the same tile texts: one through the
//! classic in-memory path, one through streaming registration onto disk
//! with a residency bound smaller than the slide. Whole-slide queries
//! across CPU/GPU/hybrid device preferences must return bit-identical
//! responses (per-tile areas, engine-agnostic fields, merged `J'`), repeats
//! must replay from each service's cache identically, and the disk service
//! must page within its residency bound the whole time.

use sccg::pixelbox::AggregationDevice;
use sccg::EngineConfig;
use sccg_datagen::{generate_dataset, DatasetSpec};
use sccg_geometry::text::write_polygon_file;
use sccg_serve::prelude::*;
use std::path::PathBuf;

const TILES: u32 = 8;
const RESIDENCY_BOUND: usize = 3;

fn dataset() -> sccg_datagen::Dataset {
    generate_dataset(&DatasetSpec {
        name: "storage-test".into(),
        tiles: TILES,
        polygons_per_tile: 24,
        tile_size: 384,
        seed: 41,
        nucleus_radius: 6,
    })
}

fn tile_texts(dataset: &sccg_datagen::Dataset, second: bool) -> Vec<String> {
    dataset
        .tiles
        .iter()
        .map(|t| write_polygon_file(if second { &t.second } else { &t.first }))
        .collect()
}

fn spill_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("sccg-serve-storage-integration")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn service_over(store: SlideStore) -> ComparisonService {
    // One engine per device preference so pinned queries are satisfiable.
    let config = ServiceConfig::default().with_engines(vec![
        EngineConfig::default().with_device(AggregationDevice::Gpu),
        EngineConfig::default().with_device(AggregationDevice::Cpu),
        EngineConfig::default().with_device(AggregationDevice::Hybrid),
    ]);
    ComparisonService::new(store, config).expect("service starts")
}

/// Strips the engine-assignment fields that legitimately differ between
/// runs (which pool member computed a tile is scheduling, not semantics),
/// keeping everything the paper's determinism argument covers: per-tile
/// areas and summaries, merge order, the merged `J'`.
fn semantic_view(
    response: &QueryResponse,
) -> (
    Vec<(usize, sccg::JaccardSummary, usize)>,
    sccg::JaccardSummary,
    usize,
    bool,
) {
    (
        response
            .tiles
            .iter()
            .map(|t| (t.tile, t.summary, t.candidate_pairs))
            .collect(),
        response.summary,
        response.shards,
        response.cache_hit,
    )
}

#[test]
fn disk_and_memory_paths_answer_bit_identically_across_devices() {
    let data = dataset();
    let first_texts = tile_texts(&data, false);
    let second_texts = tile_texts(&data, true);

    let memory_store = SlideStore::new();
    let mem_first = memory_store
        .register_slide_text("result-a", &first_texts)
        .unwrap();
    let mem_second = memory_store
        .register_slide_text("result-b", &second_texts)
        .unwrap();

    let dir = spill_dir("equivalence");
    let disk_store = SlideStore::with_spill(&dir, RESIDENCY_BOUND).unwrap();
    let disk_first = disk_store
        .register_slide_streaming("result-a", first_texts.clone())
        .unwrap();
    let disk_second = disk_store
        .register_slide_streaming("result-b", second_texts.clone())
        .unwrap();
    assert!(disk_store.slide(disk_first).unwrap().on_disk);
    assert!(disk_store.slide(disk_second).unwrap().on_disk);
    // The dataset is larger than the residency bound, so the pager genuinely
    // pages during the queries below.
    assert!(TILES as usize > RESIDENCY_BOUND);

    let memory_service = service_over(memory_store);
    let disk_service = service_over(disk_store.clone());

    let devices = [
        None,
        Some(AggregationDevice::Cpu),
        Some(AggregationDevice::Gpu),
        Some(AggregationDevice::Hybrid),
    ];
    for device in devices {
        let request = |first, second| {
            let mut r = QueryRequest::new(first, second);
            r.device = device;
            r
        };
        let mem = memory_service
            .submit(request(mem_first, mem_second))
            .unwrap()
            .wait()
            .unwrap();
        let disk = disk_service
            .submit(request(disk_first, disk_second))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(
            semantic_view(&mem),
            semantic_view(&disk),
            "device {device:?}: disk-backed response diverged"
        );
        assert_eq!(mem.similarity(), disk.similarity());
        assert!(!disk.cache_hit);

        // Replay: both services answer the repeat from their caches, still
        // bit-identical to each other and to the first answer.
        let mem_again = memory_service
            .submit(request(mem_first, mem_second))
            .unwrap()
            .wait()
            .unwrap();
        let disk_again = disk_service
            .submit(request(disk_first, disk_second))
            .unwrap()
            .wait()
            .unwrap();
        assert!(mem_again.cache_hit && disk_again.cache_hit);
        assert_eq!(mem_again.summary, mem.summary);
        assert_eq!(disk_again.summary, disk.summary);
        assert_eq!(semantic_view(&mem_again).0, semantic_view(&disk_again).0);

        // Paging stayed within the residency bound throughout.
        let storage = disk_store.storage_stats();
        assert_eq!(storage.disk_slides, 2);
        assert!(
            storage.resident_tiles <= 2 * RESIDENCY_BOUND,
            "resident {} exceeds bound",
            storage.resident_tiles
        );
    }

    // The service surfaces pager telemetry through its stats.
    let stats = disk_service.stats();
    assert!(stats.resident_tiles <= 2 * RESIDENCY_BOUND);
    assert!(stats.bytes_on_disk > 0);
    assert!(stats.pager_hit_rate >= 0.0 && stats.pager_hit_rate <= 1.0);
    let mem_stats = memory_service.stats();
    assert_eq!(mem_stats.resident_tiles, 0);
    assert_eq!(mem_stats.bytes_on_disk, 0);

    drop(disk_service);
    drop(disk_store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Streaming queries over a disk-backed store deliver the same per-tile
/// events and final response as the blocking path — faulting through the
/// pager does not disturb the streaming seam.
#[test]
fn streaming_queries_page_from_disk() {
    let data = dataset();
    let dir = spill_dir("streaming");
    let store = SlideStore::with_spill(&dir, RESIDENCY_BOUND).unwrap();
    let first = store
        .register_slide_streaming("a", tile_texts(&data, false))
        .unwrap();
    let second = store
        .register_slide_streaming("b", tile_texts(&data, true))
        .unwrap();
    let service = service_over(store.clone());

    let mut seen = Vec::new();
    let response = service
        .submit_streaming(QueryRequest::new(first, second))
        .unwrap()
        .wait_with(|position, report| seen.push((position, report.clone())))
        .unwrap();
    assert_eq!(seen.len(), TILES as usize);
    for (position, report) in seen {
        assert_eq!(&response.tiles[position], &report);
    }
    assert!(store.storage_stats().resident_tiles <= 2 * RESIDENCY_BOUND);

    drop(service);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The locality claim, counted rather than timed: one CPU engine on one
/// executor thread makes dispatch order the only degree of freedom, so
/// pager misses are a pure function of the placement policy. Each pager
/// holds `RESIDENCY_BOUND` of a slide's `TILES` tiles. Round-robin walks
/// the slide in tile order every round, so its LRU pager misses on every
/// tile. Residency-aware placement starts each later round with the tiles
/// the last round left resident, and those dispatches pay no fault.
#[test]
fn residency_aware_placement_faults_fewer_tiles_than_round_robin() {
    const ROUNDS: usize = 3;
    let data = dataset();
    let first_texts = tile_texts(&data, false);
    let second_texts = tile_texts(&data, true);
    let config = |policy: PlacementPolicy| {
        ServiceConfig::default()
            .with_engines(vec![
                EngineConfig::default().with_device(AggregationDevice::Cpu)
            ])
            .with_executor_threads(1)
            .with_cache_capacity(0)
            .with_placement(policy)
    };

    let memory_store = SlideStore::new();
    let mem_first = memory_store
        .register_slide_text("locality-a", &first_texts)
        .unwrap();
    let mem_second = memory_store
        .register_slide_text("locality-b", &second_texts)
        .unwrap();
    let twin = ComparisonService::new(memory_store, config(PlacementPolicy::RoundRobin))
        .unwrap()
        .submit(QueryRequest::new(mem_first, mem_second))
        .unwrap()
        .wait()
        .unwrap();

    let run = |policy: PlacementPolicy| {
        let dir = spill_dir(policy.name());
        let store = SlideStore::with_spill(&dir, RESIDENCY_BOUND).unwrap();
        let first = store
            .register_slide_streaming("locality-a", first_texts.clone())
            .unwrap();
        let second = store
            .register_slide_streaming("locality-b", second_texts.clone())
            .unwrap();
        let service = ComparisonService::new(store, config(policy)).unwrap();
        for round in 0..ROUNDS {
            let response = service
                .submit(QueryRequest::new(first, second))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(
                semantic_view(&response),
                semantic_view(&twin),
                "{} round {round} diverged from the in-memory twin",
                policy.name()
            );
            assert_eq!(response.similarity(), twin.similarity());
        }
        let misses = service.store().storage_stats().pager_misses;
        let scheduler = service.stats().scheduler;
        drop(service);
        std::fs::remove_dir_all(&dir).unwrap();
        (misses, scheduler)
    };
    let (rr_misses, rr_scheduler) = run(PlacementPolicy::RoundRobin);
    let (ra_misses, ra_scheduler) = run(PlacementPolicy::ResidencyAware);

    assert!(TILES as usize > RESIDENCY_BOUND);
    let (tiles, bound, rounds) = (TILES as u64, RESIDENCY_BOUND as u64, ROUNDS as u64);
    // Two slides: every tile of both misses in every round-robin round.
    assert_eq!(rr_misses, 2 * tiles * rounds);
    // The first residency-aware round is cold; each later one hits the
    // `bound` tiles per slide left resident by the round before.
    assert_eq!(ra_misses, 2 * (tiles + (rounds - 1) * (tiles - bound)));
    assert!(ra_misses < rr_misses);
    assert!(ra_scheduler.faults_avoided > 0);
    assert_eq!(ra_scheduler.policy, "residency-aware");
    assert_eq!(rr_scheduler.faults_avoided, 0);
}
