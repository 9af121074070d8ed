//! Regenerates every table and figure of the paper's evaluation section,
//! plus demos of the serving layer (`serve`), the out-of-core slide storage
//! (`store`), the locality-aware shard scheduler (`locality`), the
//! fault-injection chaos smoke (`chaos`), the bounded-memory streaming
//! executor (`stream`), and the JSON perf baseline (`bench`, which writes
//! `BENCH_pixelbox.json`).
//!
//! ```text
//! cargo run -p sccg-bench --release --bin reproduce -- all
//! cargo run -p sccg-bench --release --bin reproduce -- fig8 fig10 table1
//! cargo run -p sccg-bench --release --bin reproduce -- serve store stream bench
//! ```
//!
//! Each experiment prints the same rows/series the paper reports. Absolute
//! numbers differ from the paper (the GPU is simulated and the data sets are
//! synthetic); the *shapes* — who wins, by roughly what factor, where the
//! crossovers fall — are the reproduction target (see EXPERIMENTS.md).

use sccg::pipeline::model::{HybridSplitMode, PipelineModel, PlatformConfig, Scheme};
use sccg::pipeline::{ParseTask, Pipeline, PipelineConfig, PipelineReport};
use sccg::pixelbox::{
    AggregationDevice, ComputeBackend, CpuBackend, GpuBackend, HybridBackend, OptimizationFlags,
    PixelBoxConfig, Variant,
};
use sccg::EngineConfig;
use sccg_bench::{dataset_tile_stats, representative_pairs, study_datasets, system_dataset};
use sccg_clip::pair_areas;
use sccg_datagen::generate_tile_pair;
use sccg_gpu_sim::{Device, DeviceConfig};
use sccg_sdbms::{execute_cross_comparison, PolygonTable, QueryPlan};
use sccg_serve::{
    json, ComparisonService, PlacementPolicy, QueryPriority, QueryRequest, QueryResponse,
    ServiceConfig, SlideStore,
};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| all || args.iter().any(|a| a == name);

    println!("SCCG reproduction — regenerating paper tables and figures");
    println!("==========================================================");

    if want("fig2") {
        figure2();
    }
    if want("fig7") {
        figure7();
    }
    if want("fig8") {
        figure8();
    }
    if want("fig9") {
        figure9();
    }
    if want("fig10") {
        figure10();
    }
    if want("table1") {
        table1();
    }
    if want("fig11") {
        figure11();
    }
    if want("fig12") {
        figure12();
    }
    if want("serve") {
        serve();
    }
    if want("store") {
        store_smoke();
    }
    if want("locality") {
        locality();
    }
    if want("chaos") {
        chaos();
    }
    if want("stream") {
        stream();
    }
    if want("bench") {
        // `--rebaseline "<reason>"` marks this run as the start of a new
        // baseline for `trajectory-gate`.
        let rebaseline =
            args.iter()
                .position(|a| a == "--rebaseline")
                .map(|at| match args.get(at + 1) {
                    Some(reason) if !reason.is_empty() => reason.clone(),
                    _ => panic!("--rebaseline needs a reason"),
                });
        bench_baseline(rebaseline);
    }
    // Deliberately not part of `all`: the gate reads what `bench` appended,
    // so CI runs it as a separate step right after the bench step.
    if args.iter().any(|a| a == "trajectory-gate") {
        trajectory_gate();
    }
}

/// Checks the latest `BENCH_trajectory.json` entry against the best recorded
/// rates (see [`sccg_bench::trajectory::check_gate`]) and exits non-zero on a
/// regression.
fn trajectory_gate() {
    use sccg_bench::trajectory::{check_gate, read_trajectory, TRAJECTORY_PATH};

    println!("\n[Gate] perf trajectory ({TRAJECTORY_PATH})");
    let entries = match read_trajectory(std::path::Path::new(TRAJECTORY_PATH)) {
        Ok(entries) => entries,
        Err(err) => {
            eprintln!("  FAIL: {err}");
            std::process::exit(1);
        }
    };
    match check_gate(&entries) {
        Ok(lines) => {
            let latest = entries
                .iter()
                .rev()
                .find(|e| !e.substrates.is_empty())
                .expect("gate passed on a trajectory with bench entries");
            println!(
                "  latest entry \"{}\" vs {} recorded entr{}:",
                latest.label,
                entries.len(),
                if entries.len() == 1 { "y" } else { "ies" }
            );
            for line in lines {
                println!("  {line}");
            }
            println!("  gate passed");
        }
        Err(err) => {
            eprintln!("  FAIL: {err}");
            std::process::exit(1);
        }
    }
}

fn gpu_backend() -> GpuBackend {
    GpuBackend::new(Arc::new(Device::new(DeviceConfig::gtx580())))
}

/// Figure 2: execution-time decomposition of the cross-comparing queries in
/// the SDBMS on a single core.
fn figure2() {
    println!("\n[Figure 2] SDBMS query time decomposition (single core)");
    let tile = generate_tile_pair(&sccg_datagen::TileSpec {
        target_polygons: 400,
        width: 2048,
        height: 2048,
        seed: 2,
        ..Default::default()
    });
    let a = PolygonTable::new("oligoastroiii_1_1", tile.first);
    let b = PolygonTable::new("oligoastroiii_1_2", tile.second);
    let labels = [
        "Index Build",
        "Index Search",
        "ST_Intersects",
        "Area_Of_Intersection",
        "Area_Of_Union",
        "ST_Area",
        "Other",
    ];
    for (name, plan) in [
        ("unoptimized (Fig 1a)", QueryPlan::Unoptimized),
        ("optimized   (Fig 1b)", QueryPlan::Optimized),
    ] {
        let result = execute_cross_comparison(&a, &b, plan);
        println!(
            "  {name}: total {:.3} s, {} candidate pairs, similarity {:.4}",
            result.profile.total(),
            result.candidate_pairs,
            result.similarity
        );
        for (label, pct) in labels.iter().zip(result.profile.percentages()) {
            println!("    {label:<22} {pct:5.1} %");
        }
    }
}

/// Figure 7: GEOS vs PixelBox-CPU-S vs PixelBox.
fn figure7() {
    println!("\n[Figure 7] GEOS vs PixelBox-CPU-S vs PixelBox (simulated GPU)");
    let pairs = representative_pairs(1500, 1);
    println!("  workload: {} MBR-intersecting polygon pairs", pairs.len());
    let config = PixelBoxConfig::paper_default();

    let started = Instant::now();
    let geos: Vec<_> = pairs.iter().map(|p| pair_areas(&p.p, &p.q)).collect();
    let geos_seconds = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let cpu = CpuBackend::new(1).compute_batch(&pairs, &config);
    let cpu_seconds = started.elapsed().as_secs_f64();

    let gpu = gpu_backend().compute_batch(&pairs, &config);
    let gpu_seconds = gpu.total_simulated_seconds();

    let hybrid_backend = HybridBackend::new(Arc::new(Device::new(DeviceConfig::gtx580())), 1, 0.5);
    let hybrid = hybrid_backend.compute_batch(&pairs, &config);
    assert_eq!(
        geos.iter().map(|a| a.intersection).sum::<i64>(),
        cpu.areas.iter().map(|a| a.intersection).sum::<i64>()
    );
    assert_eq!(
        cpu.areas, gpu.areas,
        "PixelBox CPU and GPU must agree exactly"
    );
    assert_eq!(cpu.areas, hybrid.areas, "hybrid split must agree exactly");

    println!("  GEOS (exact overlay, 1 core):   {geos_seconds:10.4} s   speedup 1.0x");
    println!(
        "  PixelBox-CPU-S (1 core):        {cpu_seconds:10.4} s   speedup {:.1}x",
        geos_seconds / cpu_seconds
    );
    println!(
        "  PixelBox (simulated GTX 580):   {gpu_seconds:10.4} s   speedup {:.1}x  (simulated time)",
        geos_seconds / gpu_seconds
    );
    println!(
        "  PixelBox-Hybrid (50/50 split):  {:10.4} s of simulated GPU time for half the batch",
        hybrid.total_simulated_seconds()
    );
}

/// Figure 8: PixelOnly vs PixelBox-NoSep vs PixelBox across scale factors.
fn figure8() {
    println!("\n[Figure 8] Algorithm variants vs polygon scale factor (simulated GPU seconds)");
    let engine = gpu_backend();
    let base = PixelBoxConfig::paper_default();
    println!("  SF   PixelOnly    PixelBox-NoSep    PixelBox");
    for scale in 1..=5 {
        let pairs = representative_pairs(250, scale);
        let mut row = vec![format!("  {scale}  ")];
        for variant in [Variant::PixelOnly, Variant::NoSep, Variant::Full] {
            let result = engine.compute_batch(&pairs, &base.with_variant(variant));
            row.push(format!("{:12.6}", result.kernel_seconds()));
        }
        println!("{}", row.join("  "));
    }
}

/// Figure 9: effect of the implementation optimizations.
fn figure9() {
    println!("\n[Figure 9] Implementation optimizations (speedup over PixelBox-NoOpt)");
    let engine = gpu_backend();
    let base = PixelBoxConfig::paper_default();
    let variants: [(&str, OptimizationFlags); 4] = [
        ("PixelBox-NoOpt", OptimizationFlags::none()),
        (
            "PixelBox-NBC",
            OptimizationFlags {
                avoid_bank_conflicts: true,
                unroll_loops: false,
                shared_memory_vertices: false,
            },
        ),
        (
            "PixelBox-NBC-UR",
            OptimizationFlags {
                avoid_bank_conflicts: true,
                unroll_loops: true,
                shared_memory_vertices: false,
            },
        ),
        ("PixelBox-NBC-UR-SM", OptimizationFlags::all()),
    ];
    println!("  scale factor:      SF1      SF3      SF5");
    let mut rows = vec![vec![0.0f64; 3]; variants.len()];
    for (col, scale) in [1, 3, 5].into_iter().enumerate() {
        let pairs = representative_pairs(250, scale);
        let mut baseline = 0.0;
        for (row, (_, opts)) in variants.iter().enumerate() {
            let result = engine.compute_batch(&pairs, &base.with_opts(*opts));
            if row == 0 {
                baseline = result.kernel_seconds();
            }
            rows[row][col] = baseline / result.kernel_seconds();
        }
    }
    for ((name, _), row) in variants.iter().zip(rows) {
        println!(
            "  {name:<20} {:7.2}x {:7.2}x {:7.2}x",
            row[0], row[1], row[2]
        );
    }
}

/// Figure 10: sensitivity to the pixelization threshold T.
fn figure10() {
    println!(
        "\n[Figure 10] Pixelization threshold sensitivity (block size 64, simulated GPU seconds)"
    );
    let engine = gpu_backend();
    let thresholds = [64u32, 128, 256, 512, 1024, 2048, 4096, 8192, 16384];
    print!("  T:        ");
    for t in thresholds {
        print!("{t:>9}");
    }
    println!();
    for scale in [1, 2, 3, 4, 5] {
        let pairs = representative_pairs(250, scale);
        print!("  SF{scale}      ");
        for t in thresholds {
            let config = PixelBoxConfig::paper_default().with_threshold(t);
            let result = engine.compute_batch(&pairs, &config);
            print!("{:9.5}", result.kernel_seconds());
        }
        println!();
    }
    println!("  (the paper's best region is T in [n^2/8, n^2] = [512, 4096] for 64-thread blocks)");
}

fn scheme_rows(tiles: &[sccg::pipeline::model::TileStats]) -> Vec<(&'static str, f64)> {
    let model = PipelineModel::new(PlatformConfig::config_i());
    let postgis = model.sdbms_single_core(tiles);
    vec![
        ("PostGIS-S", postgis),
        ("NoPipe-S", model.simulate(Scheme::NoPipeS, tiles, false)),
        (
            "NoPipe-M",
            model.simulate(Scheme::NoPipeM { streams: 4 }, tiles, false),
        ),
        ("Pipelined", model.simulate(Scheme::Pipelined, tiles, false)),
    ]
}

/// Table 1: speedups of the execution schemes over PostGIS-S, plus the
/// hybrid-aggregator variants (static fractions vs the adaptive controller).
fn table1() {
    println!("\n[Table 1] Execution schemes, speedup over PostGIS-S (modelled, Config-I)");
    let dataset = system_dataset();
    let tiles = dataset_tile_stats(&dataset);
    let rows = scheme_rows(&tiles);
    let baseline = rows[0].1;
    for (name, seconds) in rows {
        println!(
            "  {name:<10} {:10.3} s   speedup {:7.2}x",
            seconds,
            baseline / seconds
        );
    }

    // The hybrid-aggregator comparison runs over a longer stream (the data
    // set cycled 4x, as when several slides are processed back to back) so
    // the adaptive controller's convergence transient — warm-up at the seed,
    // then clamped steps toward the balanced split — amortizes the way it
    // would in production, instead of dominating a 3-batch run.
    println!("  hybrid aggregator (GPU + spare CPU workers), 4x tile stream, modelled:");
    let model = PipelineModel::new(PlatformConfig::config_i());
    let stream: Vec<_> = std::iter::repeat_n(tiles.iter().copied(), 4)
        .flatten()
        .collect();
    let mut best_static = f64::INFINITY;
    for fraction in [0.25, 0.5, 0.75] {
        let report = model.simulate_pipelined_hybrid(&stream, HybridSplitMode::Static(fraction));
        best_static = best_static.min(report.aggregation_seconds);
        println!(
            "  Hybrid static {fraction:.2}   aggregation {:8.3} s   total {:8.3} s",
            report.aggregation_seconds, report.seconds
        );
    }
    let adaptive = model.simulate_pipelined_hybrid(&stream, HybridSplitMode::Adaptive);
    println!(
        "  Hybrid adaptive    aggregation {:8.3} s   total {:8.3} s   ({:.2}x best static, GPU \
         fraction 0.50 → {:.2} over {} batches)",
        adaptive.aggregation_seconds,
        adaptive.seconds,
        adaptive.aggregation_seconds / best_static,
        adaptive.trace.last_fraction().unwrap_or(0.5),
        adaptive.trace.len()
    );
}

/// Serving-layer demo: a `SlideStore` + `ComparisonService` answering
/// concurrent mixed-device whole-slide queries, with response caching,
/// admission control and pooled hybrid split telemetry exported as JSON —
/// then the same service fronted by the wire protocol: a loopback
/// `WireServer` driven by the load generator (≥4 concurrent clients),
/// streamed responses checked bit-identical to the in-process fold, and the
/// measured qps/p50/p99 appended to `BENCH_trajectory.json`.
fn serve() {
    println!("\n[Serve] SlideStore + ComparisonService (sharded engine pool)");
    let dataset = sccg_datagen::generate_dataset(&sccg_datagen::DatasetSpec {
        name: "serve-demo".into(),
        tiles: 12,
        polygons_per_tile: 80,
        tile_size: 512,
        seed: 12,
        nucleus_radius: 6,
    });
    let store = SlideStore::new();
    let first = store.register_slide(
        "serve-demo-algo-a",
        dataset.tiles.iter().map(|t| t.first.clone()).collect(),
    );
    let second = store.register_slide(
        "serve-demo-algo-b",
        dataset.tiles.iter().map(|t| t.second.clone()).collect(),
    );

    let bound = 2;
    let service = Arc::new(
        ComparisonService::new(
            store,
            ServiceConfig::default()
                .with_engines(vec![
                    EngineConfig::default(),
                    EngineConfig::default().with_device(AggregationDevice::Cpu),
                    EngineConfig::default().with_device(AggregationDevice::Hybrid),
                    EngineConfig::default().with_device(AggregationDevice::Hybrid),
                ])
                .with_max_in_flight(bound),
        )
        .expect("service starts"),
    );
    println!(
        "  engine pool {:?}, admission bound {bound}, {} tiles per slide",
        service.engine_devices(),
        dataset.tiles.len()
    );

    // Concurrent mixed-device queries: unrestricted, CPU-pinned,
    // hybrid-pinned, and a high-priority tile subset.
    let started = Instant::now();
    let responses: Vec<QueryResponse> = std::thread::scope(|scope| {
        let requests = vec![
            ("any-device ", QueryRequest::new(first, second)),
            (
                "cpu-pinned ",
                QueryRequest::new(first, second).on_device(AggregationDevice::Cpu),
            ),
            (
                "hybrid     ",
                QueryRequest::new(first, second).on_device(AggregationDevice::Hybrid),
            ),
            (
                "subset/high",
                QueryRequest::new(first, second)
                    .tiles(vec![0, 1, 2, 3])
                    .priority(QueryPriority::High),
            ),
        ];
        let handles: Vec<_> = requests
            .into_iter()
            .map(|(label, request)| {
                let service = &service;
                scope.spawn(move || (label, service.submit(request).unwrap().wait().unwrap()))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                let (label, response) = handle.join().expect("query thread");
                println!(
                    "  {label}  J' {:.6}  {:>2} shards  backends {:?}",
                    response.similarity(),
                    response.shards,
                    response.backends_used()
                );
                response
            })
            .collect()
    });
    println!(
        "  {} concurrent queries in {:.3} s",
        responses.len(),
        started.elapsed().as_secs_f64()
    );
    assert_eq!(
        responses[0].summary, responses[1].summary,
        "sharding and device choice never change the answer"
    );

    // Resubmission: served from the cache, no backend work.
    let batches_before = service.stats().backend_batches;
    let repeat = service
        .submit(QueryRequest::new(first, second))
        .unwrap()
        .wait()
        .unwrap();
    assert!(repeat.cache_hit && service.stats().backend_batches == batches_before);
    println!("  resubmission: cache hit (backend batches still {batches_before})");

    let stats = service.stats();
    println!("  stats: {}", json::stats_to_json(&stats));
    println!("  response: {}", json::response_to_json(&repeat));
    if let Some(trace) = service.split_trace() {
        println!(
            "  pooled split trace ({} hybrid batches): {}",
            trace.len(),
            json::split_trace_to_json(&trace)
        );
    }

    // The same service fronted by the framed wire protocol over loopback:
    // the load generator drives concurrent streaming clients, and every
    // decoded response must be bit-identical to the in-process fold above
    // (floats travel as IEEE-754 bit patterns, so this is exact equality).
    use sccg_net::{LoadGenConfig, NetConfig, WireRequestSpec, WireResponse, WireServer};
    println!("\n[Serve] Wire front-end: loopback WireServer + load generator");
    let server = WireServer::start(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
        .expect("wire server starts");
    let clients = 4usize;
    let queries_per_client = 6usize;
    let load = LoadGenConfig::new(vec![WireRequestSpec::new(first, second)])
        .with_clients(clients)
        .with_queries_per_client(queries_per_client);
    let report = sccg_net::run_loadgen(server.local_addr(), &load).expect("load run completes");

    let baseline = {
        let mut wire = WireResponse::of_response(&repeat);
        wire.cache_hit = false;
        wire
    };
    for outcome in &report.outcomes {
        let mut over_wire = outcome.outcome.response.clone();
        over_wire.cache_hit = false;
        assert_eq!(
            over_wire, baseline,
            "streamed wire response must be bit-identical to the in-process response"
        );
    }
    println!(
        "  {} clients x {} streaming queries over {}: all {} responses bit-identical \
         ({} tile frames streamed)",
        clients,
        queries_per_client,
        server.local_addr(),
        report.queries,
        report.tile_frames
    );
    println!(
        "  {{\"wire_loadgen\": {{\"clients\": {clients}, \"queries\": {}, \"qps\": {:.1}, \
         \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"mean_ms\": {:.3}, \"max_ms\": {:.3}}}}}",
        report.queries, report.qps, report.p50_ms, report.p99_ms, report.mean_ms, report.max_ms
    );

    // Track the serving-layer numbers alongside the bench trajectory; the
    // perf gate knows to skip serve-only entries when judging substrates.
    use sccg_bench::trajectory::{append_entry, ServeMetrics, TrajectoryEntry, TRAJECTORY_PATH};
    let unix_seconds = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let entries = append_entry(
        std::path::Path::new(TRAJECTORY_PATH),
        TrajectoryEntry {
            label: "serve".to_string(),
            unix_seconds,
            substrates: Vec::new(),
            pixelize_dense_speedup: 0.0,
            serve: Some(ServeMetrics {
                clients: clients as u64,
                queries: report.queries as u64,
                qps: report.qps,
                p50_ms: report.p50_ms,
                p99_ms: report.p99_ms,
            }),
            store: None,
            locality: None,
            chaos: None,
            rebaseline: None,
        },
    )
    .expect("append serve metrics to BENCH_trajectory.json");
    println!(
        "  appended serve metrics to {TRAJECTORY_PATH} ({} entries)",
        entries.len()
    );
}

/// `store`: out-of-core storage smoke. Streams a dataset larger than the
/// pager's residency bound onto disk through `SlideStore::with_spill`, runs
/// a whole-slide query against it and against an in-memory twin of the same
/// tiles, and asserts the answers are bit-identical while peak residency
/// stayed within the bound — the paper's bounded-buffer discipline (§4.1)
/// applied to storage. Then measures cold-read (every fetch decodes its
/// block from disk) and warm-read (working set within the bound) tile rates
/// against a standalone pager and appends them to `BENCH_trajectory.json`;
/// the perf gate skips store-only entries just as it skips serve-only ones.
fn store_smoke() {
    use sccg_bench::trajectory::{append_entry, StoreMetrics, TrajectoryEntry, TRAJECTORY_PATH};
    use sccg_geometry::text::write_polygon_file;
    use sccg_store::{SlideFileWriter, TileStorage};

    println!("\n[Store] Out-of-core slide storage (columnar tile format + demand pager)");
    const TILES: u32 = 24;
    const RESIDENCY_BOUND: usize = 6;
    let dataset = sccg_datagen::generate_dataset(&sccg_datagen::DatasetSpec {
        name: "store-smoke".into(),
        tiles: TILES,
        polygons_per_tile: 64,
        tile_size: 512,
        seed: 77,
        nucleus_radius: 6,
    });
    let first_texts: Vec<String> = dataset
        .tiles
        .iter()
        .map(|t| write_polygon_file(&t.first))
        .collect();
    let second_texts: Vec<String> = dataset
        .tiles
        .iter()
        .map(|t| write_polygon_file(&t.second))
        .collect();

    // The in-memory twin: the classic whole-slide-resident registration.
    let memory_store = SlideStore::new();
    let mem_first = memory_store
        .register_slide_text("store-smoke-a", &first_texts)
        .expect("register in-memory slide");
    let mem_second = memory_store
        .register_slide_text("store-smoke-b", &second_texts)
        .expect("register in-memory slide");

    // The out-of-core path: registration streams tile-by-tile onto disk
    // (never holding the whole slide), queries fault tiles back in through a
    // pager bounded well below the slide size.
    let dir = std::env::temp_dir().join(format!("sccg-store-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk_store = SlideStore::with_spill(&dir, RESIDENCY_BOUND).expect("create spill dir");
    let disk_first = disk_store
        .register_slide_streaming("store-smoke-a", first_texts)
        .expect("stream slide to disk");
    let disk_second = disk_store
        .register_slide_streaming("store-smoke-b", second_texts)
        .expect("stream slide to disk");
    let registered = disk_store.storage_stats();
    println!(
        "  {} tiles/slide streamed to disk ({} bytes across {} files), residency bound \
         {RESIDENCY_BOUND} tiles/slide",
        TILES, registered.bytes_on_disk, registered.disk_slides
    );
    assert!(
        TILES as usize > RESIDENCY_BOUND,
        "the smoke must page: dataset no larger than the residency bound"
    );

    let memory_service =
        ComparisonService::new(memory_store, ServiceConfig::default()).expect("service starts");
    let disk_service = ComparisonService::new(disk_store.clone(), ServiceConfig::default())
        .expect("service starts");
    let mem = memory_service
        .submit(QueryRequest::new(mem_first, mem_second))
        .unwrap()
        .wait()
        .expect("in-memory query");
    let disk = disk_service
        .submit(QueryRequest::new(disk_first, disk_second))
        .unwrap()
        .wait()
        .expect("disk-backed query");
    assert_eq!(
        mem.summary, disk.summary,
        "disk-backed whole-slide query must be bit-identical to the in-memory path"
    );
    assert_eq!(mem.tiles.len(), disk.tiles.len());
    for (m, d) in mem.tiles.iter().zip(&disk.tiles) {
        assert_eq!(m.tile, d.tile);
        assert_eq!(m.summary, d.summary, "tile {} diverged", m.tile);
        assert_eq!(m.candidate_pairs, d.candidate_pairs);
    }
    let storage = disk_service.store().storage_stats();
    assert!(
        storage.peak_resident_tiles <= 2 * RESIDENCY_BOUND,
        "peak residency {} exceeded the bound {}",
        storage.peak_resident_tiles,
        2 * RESIDENCY_BOUND
    );
    println!(
        "  whole-slide query: J' {:.6} — bit-identical to the in-memory path; peak resident \
         {} tiles (bound {} across both slides), pager hit rate {:.3}",
        disk.similarity(),
        storage.peak_resident_tiles,
        2 * RESIDENCY_BOUND,
        storage.pager_hit_rate
    );

    // Cold vs warm read rates against a standalone pager over one slide:
    // a full sequential scan misses every fetch (the scan is longer than the
    // bound), then repeated passes over a bound-sized working set hit.
    let rates_path = dir.join("rates.sccgt");
    let mut writer = SlideFileWriter::create(&rates_path).expect("create rates slide");
    for tile in &dataset.tiles {
        writer.append_tile(&tile.first).expect("append tile");
    }
    let file = writer.finish().expect("finish rates slide");
    let pager = TileStorage::new(file, RESIDENCY_BOUND);

    let started = Instant::now();
    for tile in 0..pager.tile_count() {
        pager.fetch(tile).expect("cold fetch");
    }
    let cold_seconds = started.elapsed().as_secs_f64();
    let cold_tiles_per_sec = pager.tile_count() as f64 / cold_seconds;

    const WARM_PASSES: usize = 64;
    let working_set = RESIDENCY_BOUND.min(pager.tile_count());
    for tile in 0..working_set {
        pager.fetch(tile).expect("prime fetch"); // fault the working set in
    }
    let started = Instant::now();
    for _ in 0..WARM_PASSES {
        for tile in 0..working_set {
            pager.fetch(tile).expect("warm fetch");
        }
    }
    let warm_seconds = started.elapsed().as_secs_f64();
    let warm_tiles_per_sec = (WARM_PASSES * working_set) as f64 / warm_seconds;
    let pager_stats = pager.stats();
    assert!(pager_stats.peak_resident <= RESIDENCY_BOUND);
    println!(
        "  cold read {cold_tiles_per_sec:10.0} tiles/s   warm read {warm_tiles_per_sec:10.0} \
         tiles/s   pager hit rate {:.3} ({} hits / {} misses)",
        pager_stats.hit_rate, pager_stats.hits, pager_stats.misses
    );

    let unix_seconds = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let entries = append_entry(
        std::path::Path::new(TRAJECTORY_PATH),
        TrajectoryEntry {
            label: "store".to_string(),
            unix_seconds,
            substrates: Vec::new(),
            pixelize_dense_speedup: 0.0,
            serve: None,
            store: Some(StoreMetrics {
                cold_tiles_per_sec,
                warm_tiles_per_sec,
                pager_hit_rate: pager_stats.hit_rate,
            }),
            locality: None,
            chaos: None,
            rebaseline: None,
        },
    )
    .expect("append store metrics to BENCH_trajectory.json");
    println!(
        "  appended store metrics to {TRAJECTORY_PATH} ({} entries)",
        entries.len()
    );

    drop(disk_service);
    drop(pager);
    drop(disk_store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `locality`: locality-aware scheduling smoke. Runs the identical
/// disk-backed whole-slide workload under both placement policies — the
/// historical round-robin dispatch and the residency-aware default — for
/// several repeated query rounds, checks every paged response bit-identical
/// to an in-memory twin (placement can reorder work but never change the
/// answer), and asserts the residency-aware run faulted *fewer* tiles from
/// disk: resident-first ordering turns the start of each round into pager
/// hits. The miss gap and the scheduler counters are appended to
/// `BENCH_trajectory.json` as a `locality` entry (empty substrates, so the
/// perf gate skips it just as it skips serve- and store-only entries).
fn locality() {
    use sccg_bench::trajectory::{append_entry, LocalityMetrics, TrajectoryEntry, TRAJECTORY_PATH};
    use sccg_geometry::text::write_polygon_file;

    println!("\n[Locality] Residency-aware shard placement vs the round-robin baseline");
    const TILES: u32 = 12;
    const RESIDENCY_BOUND: usize = 4;
    const ROUNDS: usize = 4;
    let dataset = sccg_datagen::generate_dataset(&sccg_datagen::DatasetSpec {
        name: "locality-smoke".into(),
        tiles: TILES,
        polygons_per_tile: 48,
        tile_size: 512,
        seed: 91,
        nucleus_radius: 6,
    });
    let first_texts: Vec<String> = dataset
        .tiles
        .iter()
        .map(|t| write_polygon_file(&t.first))
        .collect();
    let second_texts: Vec<String> = dataset
        .tiles
        .iter()
        .map(|t| write_polygon_file(&t.second))
        .collect();

    // Both runs share this config: one CPU engine so dispatch order is the
    // only degree of freedom, and no response cache so every round actually
    // recomputes (and therefore re-pages) the slide pair.
    let config = |policy: PlacementPolicy| {
        ServiceConfig::default()
            .with_engines(vec![
                EngineConfig::default().with_device(AggregationDevice::Cpu)
            ])
            .with_cache_capacity(0)
            .with_placement(policy)
    };

    // The in-memory twin: the answer every paged round must reproduce.
    let memory_store = SlideStore::new();
    let mem_first = memory_store
        .register_slide_text("locality-a", &first_texts)
        .expect("register in-memory slide");
    let mem_second = memory_store
        .register_slide_text("locality-b", &second_texts)
        .expect("register in-memory slide");
    let memory_service = ComparisonService::new(memory_store, config(PlacementPolicy::RoundRobin))
        .expect("service starts");
    let baseline = memory_service
        .submit(QueryRequest::new(mem_first, mem_second))
        .unwrap()
        .wait()
        .expect("in-memory query");

    // One disk-backed run per policy: same tiles, same residency bound, same
    // repeated whole-slide query — only the placement differs.
    let run = |policy: PlacementPolicy| {
        let dir =
            std::env::temp_dir().join(format!("sccg-locality-{}-{:?}", std::process::id(), policy));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SlideStore::with_spill(&dir, RESIDENCY_BOUND).expect("create spill dir");
        let first = store
            .register_slide_streaming("locality-a", first_texts.clone())
            .expect("stream slide to disk");
        let second = store
            .register_slide_streaming("locality-b", second_texts.clone())
            .expect("stream slide to disk");
        let service = ComparisonService::new(store, config(policy)).expect("service starts");
        let mut responses = Vec::new();
        for _ in 0..ROUNDS {
            responses.push(
                service
                    .submit(QueryRequest::new(first, second))
                    .unwrap()
                    .wait()
                    .expect("disk-backed query"),
            );
        }
        let stats = service.stats();
        let storage = service.store().storage_stats();
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
        (responses, stats, storage)
    };
    let (rr_responses, rr_stats, rr_storage) = run(PlacementPolicy::RoundRobin);
    let (ra_responses, ra_stats, ra_storage) = run(PlacementPolicy::ResidencyAware);

    for (label, responses) in [
        ("round-robin", &rr_responses),
        ("residency-aware", &ra_responses),
    ] {
        for (round, response) in responses.iter().enumerate() {
            assert_eq!(
                response.summary, baseline.summary,
                "{label} round {round} diverged from the in-memory twin"
            );
            assert_eq!(response.tiles.len(), baseline.tiles.len());
            for (paged, mem) in response.tiles.iter().zip(&baseline.tiles) {
                assert_eq!(paged.tile, mem.tile);
                assert_eq!(paged.summary, mem.summary, "tile {} diverged", mem.tile);
                assert_eq!(paged.candidate_pairs, mem.candidate_pairs);
            }
        }
    }
    println!(
        "  {ROUNDS} whole-slide rounds per policy, {TILES} tiles/slide, residency bound \
         {RESIDENCY_BOUND}: all responses bit-identical to the in-memory twin"
    );
    println!(
        "  round-robin      {:4} pager misses  ({} hits)",
        rr_storage.pager_misses, rr_storage.pager_hits
    );
    println!(
        "  residency-aware  {:4} pager misses  ({} hits, {} faults avoided, {} affinity hits)",
        ra_storage.pager_misses,
        ra_storage.pager_hits,
        ra_stats.scheduler.faults_avoided,
        ra_stats.scheduler.affinity_hits
    );
    println!("  stats: {}", json::stats_to_json(&ra_stats));
    assert!(
        ra_storage.pager_misses < rr_storage.pager_misses,
        "residency-aware placement must fault fewer tiles than round-robin ({} vs {})",
        ra_storage.pager_misses,
        rr_storage.pager_misses
    );
    assert!(
        ra_stats.scheduler.faults_avoided > 0,
        "resident-first ordering must dispatch some shards without touching disk"
    );
    assert!(
        ra_stats.scheduler.affinity_hits > 0,
        "some shards must land on the engine holding their tiles resident"
    );
    assert_eq!(rr_stats.scheduler.policy, "round-robin");
    assert_eq!(ra_stats.scheduler.policy, "residency-aware");

    let unix_seconds = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let entries = append_entry(
        std::path::Path::new(TRAJECTORY_PATH),
        TrajectoryEntry {
            label: "locality".to_string(),
            unix_seconds,
            substrates: Vec::new(),
            pixelize_dense_speedup: 0.0,
            serve: None,
            store: None,
            locality: Some(LocalityMetrics {
                policy: ra_stats.scheduler.policy.clone(),
                affinity_hits: ra_stats.scheduler.affinity_hits,
                residency_aware_pager_misses: ra_storage.pager_misses,
                round_robin_pager_misses: rr_storage.pager_misses,
            }),
            chaos: None,
            rebaseline: None,
        },
    )
    .expect("append locality metrics to BENCH_trajectory.json");
    println!(
        "  appended locality metrics to {TRAJECTORY_PATH} ({} entries)",
        entries.len()
    );
}

/// `chaos`: the fault-injection smoke. Runs a disk-backed multi-client
/// wire workload under a seeded [`sccg::FaultPlan`] that kills an engine
/// worker mid-query, corrupts one tile on disk, charges virtual latency on
/// another, and resets one client's connection mid-stream — and asserts the
/// failure-containment contract end to end: every completed response is
/// bit-identical to a fault-free twin (engine attribution aside — a
/// re-dispatched shard legitimately moves engines), every failure is typed
/// (never a hang past its deadline), at least one shard was re-dispatched to
/// a survivor, and the corrupted tile trips the pager's circuit breaker.
/// The counters are appended to `BENCH_trajectory.json` as a `chaos` entry
/// (empty substrates, so the perf gate skips it).
fn chaos() {
    use sccg::{FaultInjector, FaultPlan, SccgError};
    use sccg_bench::trajectory::{append_entry, ChaosMetrics, TrajectoryEntry, TRAJECTORY_PATH};
    use sccg_geometry::text::write_polygon_file;
    use sccg_net::{ClientConfig, NetConfig, WireClient, WireError, WireRequestSpec, WireResponse};
    use std::time::Duration;

    println!("\n[Chaos] Fault-injection smoke: wire workload under a seeded fault plan");
    const TILES: u32 = 8;
    const RESIDENCY_BOUND: usize = 3;
    const CORRUPT_TILE: u64 = 7;
    const SLOW_TILE: u64 = 2;
    const CLIENTS: usize = 3;
    const QUERIES_PER_CLIENT: usize = 4;
    const HEALTHY_TILE_COUNT: usize = (TILES - 1) as usize;
    let dataset = sccg_datagen::generate_dataset(&sccg_datagen::DatasetSpec {
        name: "chaos-smoke".into(),
        tiles: TILES,
        polygons_per_tile: 48,
        tile_size: 512,
        seed: 1212,
        nucleus_radius: 6,
    });
    let first_texts: Vec<String> = dataset
        .tiles
        .iter()
        .map(|t| write_polygon_file(&t.first))
        .collect();
    let second_texts: Vec<String> = dataset
        .tiles
        .iter()
        .map(|t| write_polygon_file(&t.second))
        .collect();
    // The main workload stays off the corrupted tile; dedicated probes hit it.
    let healthy_tiles: Vec<u64> = (0..u64::from(TILES))
        .filter(|&t| t != CORRUPT_TILE)
        .collect();

    // The fault-free twin: an in-memory service computing the expected
    // response for the healthy-tile subset, bit-for-bit.
    let engines = || {
        vec![
            EngineConfig::default().with_device(AggregationDevice::Cpu),
            EngineConfig::default().with_device(AggregationDevice::Cpu),
        ]
    };
    let twin_store = SlideStore::new();
    let twin_first = twin_store
        .register_slide_text("chaos-a", &first_texts)
        .expect("register twin slide");
    let twin_second = twin_store
        .register_slide_text("chaos-b", &second_texts)
        .expect("register twin slide");
    let twin = ComparisonService::new(twin_store, ServiceConfig::default().with_engines(engines()))
        .expect("twin service starts");
    let expected = twin
        .submit(
            QueryRequest::new(twin_first, twin_second)
                .tiles(healthy_tiles.iter().map(|&t| t as usize).collect()),
        )
        .unwrap()
        .wait()
        .expect("fault-free twin query");
    let expected = WireResponse::of_response(&expected);

    // The seeded plan, shared by storage, serving and wire layers: worker 0
    // dies on its first popped shard, tile 7 corrupts on every disk read,
    // tile 2 charges virtual latency, and the server connection of wire
    // client 3 (one of the workload clients below) drops after two frames —
    // mid-stream of its first streaming query.
    let plan = FaultPlan::new(42)
        .kill_engine(0, 1)
        .corrupt_tile(CORRUPT_TILE)
        .slow_read(SLOW_TILE, 1_500_000)
        .reset_connection(3, 2);
    let injector = Arc::new(FaultInjector::new(plan));
    println!(
        "  plan: {}",
        injector.plan().to_text().trim_end().replace('\n', "; ")
    );

    let dir = std::env::temp_dir().join(format!("sccg-chaos-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store =
        SlideStore::with_spill_and_faults(&dir, RESIDENCY_BOUND, Some(Arc::clone(&injector)))
            .expect("create spill dir");
    let first = store
        .register_slide_streaming("chaos-a", first_texts)
        .expect("stream slide to disk");
    let second = store
        .register_slide_streaming("chaos-b", second_texts)
        .expect("stream slide to disk");
    let service = Arc::new(
        ComparisonService::new(
            store,
            ServiceConfig::default()
                .with_engines(engines())
                .with_failure_threshold(1)
                .with_revival_cooldown(Duration::from_secs(3600))
                .with_cache_capacity(0)
                .with_faults(Arc::clone(&injector)),
        )
        .expect("chaos service starts"),
    );
    let server = sccg_net::WireServer::start(
        Arc::clone(&service),
        "127.0.0.1:0",
        NetConfig::default().with_faults(Arc::clone(&injector)),
    )
    .expect("wire server starts");
    let addr = server.local_addr();

    // Only the engine/backend attribution may differ from the twin: a
    // re-dispatched shard legitimately completes on a different engine.
    let assert_identical = |label: &str, got: &WireResponse| {
        assert_eq!(got.summary, expected.summary, "{label}: summary diverged");
        assert_eq!(got.tiles.len(), expected.tiles.len(), "{label}: tile count");
        for (g, w) in got.tiles.iter().zip(&expected.tiles) {
            assert_eq!(g.tile, w.tile, "{label}: tile order");
            assert_eq!(
                g.candidate_pairs, w.candidate_pairs,
                "{label}: tile {}",
                g.tile
            );
            assert_eq!(g.summary, w.summary, "{label}: tile {} summary", g.tile);
        }
    };
    let healthy_spec = || {
        let mut spec = WireRequestSpec::new(first, second);
        spec.tiles = Some(healthy_tiles.clone());
        spec
    };

    // Probe 1 — deadlines: an already-expired deadline fails typed through
    // the wire (server answers wire code 12), and never hangs.
    let mut probe = WireClient::connect(addr, ClientConfig::default()).expect("probe connects");
    let mut spec = healthy_spec();
    spec.deadline_ms = Some(0);
    let started = Instant::now();
    let err = probe
        .query_blocking(&spec)
        .expect_err("deadline already expired");
    let waited = started.elapsed();
    assert!(
        matches!(err, WireError::DeadlineExceeded { deadline_ms: 0, .. }),
        "expected the typed deadline failure, got {err:?}"
    );
    assert!(
        waited < Duration::from_secs(5),
        "deadline wait took {waited:?}"
    );
    println!(
        "  deadline 0 ms: typed DeadlineExceeded in {:.0} ms, no hang",
        waited.as_secs_f64() * 1e3
    );

    // Probe 2 — corruption: every read of the corrupted tile fails with the
    // typed storage error over the wire, and the third consecutive failure
    // trips the pager's circuit breaker (the tile is quarantined).
    for round in 0..4 {
        let mut spec = WireRequestSpec::new(first, second);
        spec.tiles = Some(vec![CORRUPT_TILE]);
        let err = probe.query_blocking(&spec).expect_err("corrupted tile");
        assert!(
            matches!(&err, WireError::Remote(SccgError::Storage { .. })),
            "round {round}: expected a typed storage error, got {err:?}"
        );
    }
    let quarantined = service.store().storage_stats().quarantined_tiles;
    assert!(quarantined >= 1, "the corrupted tile must be quarantined");
    println!(
        "  corrupted tile {CORRUPT_TILE}: 4 typed storage failures over the wire, {} tile(s) \
         quarantined by the circuit breaker",
        quarantined
    );
    drop(probe);

    // The workload: concurrent streaming clients over the healthy tiles.
    // One of them is scheduled to lose its connection mid-stream; the typed
    // ResetMidStream error is the signal to retry on a fresh connection.
    let started = Instant::now();
    let (completed, retried): (u64, u64) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let assert_identical = &assert_identical;
                let healthy_spec = &healthy_spec;
                scope.spawn(move || {
                    let mut client =
                        WireClient::connect(addr, ClientConfig::default()).expect("connects");
                    let mut completed = 0u64;
                    let mut retried = 0u64;
                    for _ in 0..QUERIES_PER_CLIENT {
                        match client.query_streaming(&healthy_spec(), |_, _| {}) {
                            Ok(outcome) => {
                                assert_identical("workload", &outcome.response);
                                completed += 1;
                            }
                            Err(WireError::ResetMidStream { tiles_received, .. }) => {
                                assert!(tiles_received < HEALTHY_TILE_COUNT);
                                // Retry on a fresh connection: the query is
                                // idempotent, the result must not change.
                                client = WireClient::connect(addr, ClientConfig::default())
                                    .expect("reconnects after reset");
                                let outcome = client
                                    .query_streaming(&healthy_spec(), |_, _| {})
                                    .expect("retry after reset succeeds");
                                assert_identical("retry-after-reset", &outcome.response);
                                completed += 1;
                                retried += 1;
                            }
                            Err(other) => panic!("workload query failed: {other}"),
                        }
                    }
                    (completed, retried)
                })
            })
            .collect();
        handles.into_iter().fold((0, 0), |(c, r), handle| {
            let (hc, hr) = handle.join().expect("workload client thread");
            (c + hc, r + hr)
        })
    });
    let elapsed = started.elapsed().as_secs_f64();
    let total_queries = (CLIENTS * QUERIES_PER_CLIENT) as u64;
    assert_eq!(
        completed, total_queries,
        "every workload query must resolve"
    );
    let qps = completed as f64 / elapsed;

    // The injected engine kill fires on worker 0's first popped shard —
    // virtually always during the workload above. Top up with in-process
    // rounds until it has, so the re-dispatch assertions are deterministic.
    let mut rounds = 0;
    while service.stats().redispatches == 0 {
        rounds += 1;
        assert!(rounds <= 50, "worker 0 never popped a shard");
        let response = service
            .submit(
                QueryRequest::new(first, second)
                    .tiles(healthy_tiles.iter().map(|&t| t as usize).collect()),
            )
            .unwrap()
            .wait()
            .expect("top-up round must survive the kill");
        assert_identical("top-up", &WireResponse::of_response(&response));
    }

    let stats = service.stats();
    let fault_stats = injector.stats();
    assert_eq!(fault_stats.engine_kills, 1, "the scheduled kill fired once");
    assert!(
        stats.redispatches >= 1,
        "the killed shard was re-dispatched"
    );
    assert!(!stats.engines[0].alive, "threshold 1: one kill is death");
    assert!(stats.engines[1].alive, "the survivor carried the workload");
    assert_eq!(
        fault_stats.connection_resets, 1,
        "the scheduled reset fired once"
    );
    assert_eq!(retried, 1, "exactly one client retried after the reset");
    assert!(
        injector.virtual_delay_nanos() > 0,
        "slow reads charge virtual latency (no real sleeps)"
    );
    println!(
        "  {CLIENTS} clients x {QUERIES_PER_CLIENT} streaming queries: all {completed} responses \
         bit-identical to the fault-free twin ({retried} retried after an injected reset)"
    );
    println!(
        "  engine 0 killed mid-shard and marked dead, {} shard(s) re-dispatched to the \
         survivor; {} ns of virtual slow-read latency charged",
        stats.redispatches,
        injector.virtual_delay_nanos()
    );
    println!("  stats: {}", json::stats_to_json(&stats));

    let unix_seconds = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let entries = append_entry(
        std::path::Path::new(TRAJECTORY_PATH),
        TrajectoryEntry {
            label: "chaos".to_string(),
            unix_seconds,
            substrates: Vec::new(),
            pixelize_dense_speedup: 0.0,
            serve: None,
            store: None,
            locality: None,
            chaos: Some(ChaosMetrics {
                queries: total_queries + retried + 5, // probes: 1 deadline + 4 corrupt
                completed,
                redispatches: stats.redispatches,
                engine_kills: fault_stats.engine_kills,
                connection_resets: fault_stats.connection_resets,
                quarantined_tiles: quarantined as u64,
                qps,
            }),
            rebaseline: None,
        },
    )
    .expect("append chaos metrics to BENCH_trajectory.json");
    println!(
        "  appended chaos metrics to {TRAJECTORY_PATH} ({} entries)",
        entries.len()
    );

    drop(server);
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Streaming-executor smoke: a large synthetic slide flows through
/// [`Pipeline::run_streaming`] with a deliberately tiny buffer, tiles
/// generated lazily so the full task list never exists in memory, and the
/// observed in-flight high-water mark is checked against the O(capacity)
/// analytic bound.
fn stream() {
    println!("\n[Stream] Bounded-memory streaming executor (async pipeline)");
    let tiles = 512u32;
    let config = PipelineConfig::default()
        .with_buffer_capacity(4)
        .with_parser_workers(2)
        .with_migration(true);
    let bound = PipelineReport::in_flight_bound(&config);
    let pipeline = Pipeline::new(config);

    let started = Instant::now();
    // The iterator is the "slide reader": each tile pair is synthesized on
    // demand, pulled only when the pipeline's bounded input buffer has room.
    let report = pipeline.run_streaming((0..tiles).map(|tile_id| {
        let tile = generate_tile_pair(&sccg_datagen::TileSpec {
            target_polygons: 48,
            width: 512,
            height: 512,
            seed: 9000 + u64::from(tile_id),
            ..Default::default()
        });
        ParseTask::from_tile_pair(&tile)
    }));
    let seconds = started.elapsed().as_secs_f64();

    println!(
        "  {tiles} tiles streamed in {seconds:.3} s  J' {:.6}  {} candidate pairs",
        report.similarity(),
        report.candidate_pairs
    );
    println!(
        "  peak in-flight tiles {} (bound {bound}, dataset {tiles}) — memory is O(buffer), \
         not O(dataset)",
        report.peak_in_flight_tiles
    );
    println!(
        "  migrated to CPU {}  migrated to GPU parser {}",
        report.migrated_to_cpu, report.migrated_to_gpu
    );
    assert_eq!(report.tiles, tiles as usize, "every tile processed");
    assert!(
        report.peak_in_flight_tiles <= bound,
        "peak {} exceeded the bound {bound}",
        report.peak_in_flight_tiles
    );
}

/// `bench`: the JSON performance baseline. Measures sustained pairs/sec and
/// per-batch wall-clock of every substrate (CPU-S, CPU, simulated GPU,
/// adaptive hybrid) on a fixed seeded dataset, plus the interval-scanline
/// pixelization fast path against the retained per-pixel seed loop, and
/// writes the `BENCH_pixelbox.json` snapshot and appends a timestamped entry
/// to `BENCH_trajectory.json` so the perf trajectory is tracked across PRs
/// (CI runs this as a smoke step, then `trajectory-gate` on the result).
/// With a `rebaseline` reason the entry starts a new baseline: the gate
/// stops comparing against the runs before it.
fn bench_baseline(rebaseline: Option<String>) {
    use sccg::parallel::default_workers;
    use sccg::pixelbox::algorithm::{compute_pair, compute_pair_reference};
    use sccg::pixelbox::SplitConfig;
    use sccg_bench::dense_l_pair;

    println!("\n[Bench] JSON perf baseline (BENCH_pixelbox.json)");
    const POLYGONS: u32 = 400;
    const SCALE: i32 = 2;
    const ITERATIONS: usize = 10;
    let pairs = representative_pairs(POLYGONS, SCALE);
    let config = PixelBoxConfig::paper_default();
    let workers = default_workers();
    println!(
        "  workload: {} MBR-intersecting pairs (seeded, scale factor {SCALE}), {ITERATIONS} \
         timed batches per substrate (best batch reported), {workers} CPU workers",
        pairs.len()
    );

    // One warm-up batch (untimed: pool spawn, per-thread edge-table
    // buffers, adaptive warm-up) followed by `ITERATIONS` timed batches per
    // substrate. Every timed batch builds its pairs' edge tables, as a
    // query does. The reported wall-clock is the *best observed* batch:
    // batches are sub-millisecond, so a single scheduler hiccup poisons a
    // mean, while the minimum converges on the substrate's actual sustained
    // cost.
    let time_substrate = |backend: &dyn ComputeBackend| -> (f64, f64) {
        let warmup = backend.compute_batch(&pairs, &config);
        assert_eq!(warmup.areas.len(), pairs.len());
        let mut simulated = 0.0;
        let mut wall = f64::INFINITY;
        for _ in 0..ITERATIONS {
            let started = Instant::now();
            simulated += backend
                .compute_batch(&pairs, &config)
                .total_simulated_seconds();
            wall = wall.min(started.elapsed().as_secs_f64());
        }
        (wall, simulated / ITERATIONS as f64)
    };

    let device = Arc::new(Device::new(DeviceConfig::gtx580()));
    let substrates: Vec<(&str, usize, Box<dyn ComputeBackend>)> = vec![
        ("cpu-s", 1, Box::new(CpuBackend::new(1))),
        ("cpu", workers, Box::new(CpuBackend::new(workers))),
        ("gpu", 0, Box::new(GpuBackend::new(Arc::clone(&device)))),
        (
            "hybrid-adaptive",
            workers,
            Box::new(HybridBackend::with_split(
                Arc::clone(&device),
                workers,
                SplitConfig::adaptive(0.5),
            )),
        ),
    ];
    let mut rows = String::new();
    let mut rates = Vec::new();
    for (name, cpu_workers, backend) in &substrates {
        let (wall, simulated) = time_substrate(backend.as_ref());
        let pairs_per_sec = pairs.len() as f64 / wall;
        rates.push(sccg_bench::trajectory::SubstrateRate {
            name: (*name).to_string(),
            pairs_per_sec,
        });
        println!(
            "  {name:<16} {wall:10.5} s/batch   {pairs_per_sec:12.0} pairs/s{}",
            if simulated > 0.0 {
                format!("   (simulated GPU {simulated:.5} s/batch)")
            } else {
                String::new()
            }
        );
        if !rows.is_empty() {
            rows.push(',');
        }
        rows.push_str(&format!(
            "\n    {{\"name\": \"{name}\", \"cpu_workers\": {cpu_workers}, \
             \"wall_seconds_per_batch\": {wall}, \"pairs_per_sec\": {pairs_per_sec}, \
             \"simulated_gpu_seconds_per_batch\": {simulated}}}"
        ));
    }

    // Fast-path ablation: dense pixelization (threshold ≫ region) with the
    // interval-scanline kernel vs the retained per-pixel seed loop.
    const DENSE_SIZE: i32 = 384;
    let dense = dense_l_pair(DENSE_SIZE);
    let dense_threshold = 1u32 << 30;
    let time_kernel = |f: &dyn Fn() -> sccg::pixelbox::PairAreas| -> f64 {
        let _ = f(); // warm-up (edge-table buffers for the scanline kernel)
        let started = Instant::now();
        for _ in 0..ITERATIONS {
            let _ = f();
        }
        started.elapsed().as_secs_f64() / ITERATIONS as f64
    };
    let scanline_seconds =
        time_kernel(&|| compute_pair(&dense, dense_threshold, 64, Variant::Full).0);
    let per_pixel_seconds =
        time_kernel(&|| compute_pair_reference(&dense, dense_threshold, 64, Variant::Full).0);
    let speedup = per_pixel_seconds / scanline_seconds;
    println!(
        "  pixelize_dense ({DENSE_SIZE}x{DENSE_SIZE} L-shapes): scanline {scanline_seconds:.6} s, \
         per-pixel seed {per_pixel_seconds:.6} s — {speedup:.1}x"
    );
    assert_eq!(
        compute_pair(&dense, dense_threshold, 64, Variant::Full),
        compute_pair_reference(&dense, dense_threshold, 64, Variant::Full),
        "fast path must stay bit-identical (areas and trace)"
    );
    assert!(
        speedup >= 100.0,
        "interval-scanline fast path must be at least 100x the per-pixel loop, got {speedup:.1}x"
    );

    let json = format!(
        "{{\n  \"schema\": \"sccg-bench-pixelbox/v1\",\n  \"dataset\": {{\"polygons\": \
         {POLYGONS}, \"scale_factor\": {SCALE}, \"pairs\": {pair_count}, \"seed\": \
         \"0x0A110B0C\"}},\n  \"pixelbox\": {{\"block_size\": {block}, \"threshold\": {t}, \
         \"variant\": \"Full\"}},\n  \"iterations_per_substrate\": {ITERATIONS},\n  \
         \"substrates\": [{rows}\n  ],\n  \"pixelize_dense\": {{\"region\": \
         \"{DENSE_SIZE}x{DENSE_SIZE}\", \"threshold\": {dense_threshold}, \
         \"scanline_seconds\": {scanline_seconds}, \"per_pixel_seconds\": {per_pixel_seconds}, \
         \"speedup\": {speedup}}}\n}}\n",
        pair_count = pairs.len(),
        block = config.block_size,
        t = config.threshold,
    );
    let path = "BENCH_pixelbox.json";
    std::fs::write(path, &json).expect("write BENCH_pixelbox.json");
    println!("  wrote {path}");

    // Append this run to the tracked trajectory; `trajectory-gate` (the CI
    // step after this one) fails the build if the run regressed below 0.8x
    // the best recorded rate for any substrate.
    use sccg_bench::trajectory::{append_entry, TrajectoryEntry, TRAJECTORY_PATH};
    let unix_seconds = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let entries = append_entry(
        std::path::Path::new(TRAJECTORY_PATH),
        TrajectoryEntry {
            label: if rebaseline.is_some() {
                "rebaseline"
            } else {
                "bench"
            }
            .to_string(),
            unix_seconds,
            substrates: rates,
            pixelize_dense_speedup: speedup,
            serve: None,
            store: None,
            locality: None,
            chaos: None,
            rebaseline,
        },
    )
    .expect("append to BENCH_trajectory.json");
    println!(
        "  appended to {TRAJECTORY_PATH} ({} entries)",
        entries.len()
    );
}

/// Figure 11: throughput benefit of dynamic task migration.
fn figure11() {
    println!("\n[Figure 11] Dynamic task migration: normalized throughput (modelled)");
    let dataset = system_dataset();
    let tiles = dataset_tile_stats(&dataset);
    for platform in [
        PlatformConfig::config_i(),
        PlatformConfig::config_ii(),
        PlatformConfig::config_iii(),
    ] {
        let model = PipelineModel::new(platform);
        let without = model.pipelined_throughput(&tiles, false);
        let with = model.pipelined_throughput(&tiles, true);
        println!("  {:<45} {:5.2}x", platform.name, with / without);
    }
}

/// Figure 12: SCCG vs PostGIS-M over the 18 data sets.
fn figure12() {
    println!(
        "\n[Figure 12] SCCG (Config-I, migration on) vs PostGIS-M speedup per data set (modelled)"
    );
    let sccg_model = PipelineModel::new(PlatformConfig::config_i());
    let postgis_model = PipelineModel::new(PlatformConfig::postgis_m_platform());
    let mut log_sum = 0.0f64;
    let datasets = study_datasets();
    for dataset in &datasets {
        let tiles = dataset_tile_stats(dataset);
        let sccg_seconds = sccg_model.simulate(Scheme::Pipelined, &tiles, true);
        let postgis_seconds = postgis_model.sdbms_parallel(&tiles);
        let speedup = postgis_seconds / sccg_seconds;
        log_sum += speedup.ln();
        println!(
            "  {:<20} polygons {:>7}  SCCG {:8.3} s  PostGIS-M {:9.3} s  speedup {:6.1}x",
            dataset.spec.name,
            dataset.first_polygon_count() + dataset.second_polygon_count(),
            sccg_seconds,
            postgis_seconds,
            speedup
        );
    }
    let geo_mean = (log_sum / datasets.len() as f64).exp();
    println!("  geometric mean speedup: {geo_mean:.1}x (paper reports >18x)");
}
