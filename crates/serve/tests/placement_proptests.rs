//! Placement equivalence: scheduling policy must never change results.
//!
//! The scheduler's whole contract is that placement decides *where and
//! when* a shard runs, never what it computes: each shard's `position`
//! pins its slot in the merge-ordered response, so any enqueue order and
//! any engine assignment folds to the same bits. These properties pin that
//! contract across the axes that could plausibly break it — placement
//! policy (round-robin vs residency-aware), device preference (including
//! pinned queries the policy must not starve), tile subsets (whose
//! response order follows the *request*, not the placement), and backing
//! (in-memory vs disk-backed with a residency bound smaller than the
//! slide, where the residency-aware policy actually reorders).

// The vendored proptest shim's `proptest!` macro expands bodies token by
// token; these test bodies are long enough to overflow the default limit.
#![recursion_limit = "1024"]

use proptest::prelude::*;
use sccg::pixelbox::AggregationDevice;
use sccg::EngineConfig;
use sccg_datagen::{generate_dataset, DatasetSpec};
use sccg_geometry::text::write_polygon_file;
use sccg_serve::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const TILES: u32 = 6;
const RESIDENCY_BOUND: usize = 2;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tile_texts(second: bool) -> Vec<String> {
    let data = generate_dataset(&DatasetSpec {
        name: "placement-test".into(),
        tiles: TILES,
        polygons_per_tile: 16,
        tile_size: 256,
        seed: 53,
        nucleus_radius: 5,
    });
    data.tiles
        .iter()
        .map(|t| write_polygon_file(if second { &t.second } else { &t.first }))
        .collect()
}

/// One service per (policy, backing) corner. Disk stores get their own
/// spill directory (removed with the returned path) and a residency bound
/// smaller than the slide, so paging genuinely happens.
fn service(
    policy: PlacementPolicy,
    on_disk: bool,
) -> (ComparisonService, SlideId, SlideId, Option<PathBuf>) {
    let (store, first, second, dir) = if on_disk {
        let dir = std::env::temp_dir()
            .join("sccg-serve-placement-proptests")
            .join(format!(
                "{}-{}",
                std::process::id(),
                CASE.fetch_add(1, Ordering::Relaxed)
            ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SlideStore::with_spill(&dir, RESIDENCY_BOUND).unwrap();
        let first = store
            .register_slide_streaming("a", tile_texts(false))
            .unwrap();
        let second = store
            .register_slide_streaming("b", tile_texts(true))
            .unwrap();
        (store, first, second, Some(dir))
    } else {
        let store = SlideStore::new();
        let first = store.register_slide_text("a", &tile_texts(false)).unwrap();
        let second = store.register_slide_text("b", &tile_texts(true)).unwrap();
        (store, first, second, None)
    };
    // One engine per device preference so pinned queries are satisfiable,
    // on two executor threads so engines genuinely run shards concurrently.
    let config = ServiceConfig::default()
        .with_engines(vec![
            EngineConfig::default().with_device(AggregationDevice::Gpu),
            EngineConfig::default().with_device(AggregationDevice::Cpu),
            EngineConfig::default().with_device(AggregationDevice::Hybrid),
        ])
        .with_executor_threads(2)
        .with_placement(policy);
    (
        ComparisonService::new(store, config).unwrap(),
        first,
        second,
        dir,
    )
}

/// Everything the determinism contract covers: per-tile identity, areas
/// and summaries in merge order, the merged summary, and the exact `J'`
/// bits. Engine assignment (`TileReport::engine`/`backend`) is scheduling,
/// not semantics, and is deliberately excluded.
fn semantic_view(
    response: &QueryResponse,
) -> (
    Vec<(usize, sccg::JaccardSummary, usize)>,
    sccg::JaccardSummary,
    usize,
    u64,
) {
    (
        response
            .tiles
            .iter()
            .map(|t| (t.tile, t.summary, t.candidate_pairs))
            .collect(),
        response.summary,
        response.shards,
        response.similarity().to_bits(),
    )
}

fn run_query(
    policy: PlacementPolicy,
    on_disk: bool,
    device: Option<AggregationDevice>,
    tiles: &TileSelection,
) -> (
    Vec<(usize, sccg::JaccardSummary, usize)>,
    sccg::JaccardSummary,
    usize,
    u64,
) {
    let (service, first, second, dir) = service(policy, on_disk);
    let mut request = QueryRequest::new(first, second);
    request.device = device;
    request.tiles = tiles.clone();
    let response = service.submit(request).unwrap().wait().unwrap();
    let view = semantic_view(&response);
    drop(service);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    view
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Across every (device preference × tile subset) point, all four
    // (policy × backing) corners answer bit-identically.
    #[test]
    fn placement_policy_never_changes_response_bits(
        device_pick in 0usize..4,
        mask in prop::collection::vec(0u8..2, TILES as usize),
    ) {
        let device = [
            None,
            Some(AggregationDevice::Cpu),
            Some(AggregationDevice::Gpu),
            Some(AggregationDevice::Hybrid),
        ][device_pick];
        let subset: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &keep)| (keep == 1).then_some(i))
            .collect();
        let tiles = if subset.len() == TILES as usize {
            TileSelection::WholeSlide
        } else {
            TileSelection::Tiles(subset)
        };

        let baseline = run_query(PlacementPolicy::RoundRobin, false, device, &tiles);
        for policy in [PlacementPolicy::RoundRobin, PlacementPolicy::ResidencyAware] {
            for on_disk in [false, true] {
                let view = run_query(policy, on_disk, device, &tiles);
                prop_assert!(
                    view == baseline,
                    "{policy:?} on_disk={on_disk} diverged from the in-memory \
                     round-robin baseline"
                );
            }
        }
    }
}
