//! The traced replay: a single-threaded re-run of traced queries that calls
//! each layer's public functions in shard order and records one span per
//! call, parented to its query.
//!
//! Every span is a leaf under its query's root span, so a layer's self time
//! is the sum of its spans, the root's self time is the glue between calls,
//! and together with the time between queries they add up to the replay's
//! wall time exactly.

use sccg::pixelbox::{
    prewarm_pair_edge_tables, ComputeBackend, CpuBackend, GpuBackend, HybridBackend,
    PixelBoxConfig, SplitConfig,
};
use sccg::{CrossComparison, EngineConfig, JaccardAccumulator};
use sccg_geometry::text::PolygonRecord;
use sccg_gpu_sim::{Device, DeviceConfig};
use sccg_net::frame::{encode_frame, FrameDecoder};
use sccg_net::wire::{Message, WireRequestSpec};
use sccg_net::WireResponse;
use sccg_store::{decode_tile, fnv1a_64, SlideFile, TileStorage};
use std::collections::BTreeMap;
use std::os::unix::fs::FileExt;
use std::sync::Arc;
use std::time::Instant;

/// Residual span names: replay bookkeeping that belongs to no layer.
pub const BLOCK_READ: &str = "replay.block_read";

/// Records spans of a replay.
pub struct Tracer {
    started: Instant,
    /// `(layer, ns)` of every span of the query in progress.
    open: Vec<(&'static str, u64)>,
    /// Total ns and call count per layer, over finished queries.
    layers: BTreeMap<&'static str, (u64, u64)>,
    /// Self time of every query's root span.
    root_self_ns: u64,
    /// Duration of every query's root span.
    root_ns: u64,
    queries: u64,
}

/// Self times of one replay, by layer.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// Total ns and call count per layer span name.
    pub layers: BTreeMap<&'static str, (u64, u64)>,
    /// Wall time from the tracer's creation to [`Tracer::finish`].
    pub wall_ns: u64,
    /// Self time of the query root spans: glue between layer calls.
    pub glue_ns: u64,
    /// Time outside every query root span.
    pub between_ns: u64,
    /// Queries replayed.
    pub queries: u64,
}

impl Tracer {
    /// Starts the replay's wall clock.
    pub fn new() -> Self {
        Tracer {
            started: Instant::now(),
            open: Vec::new(),
            layers: BTreeMap::new(),
            root_self_ns: 0,
            root_ns: 0,
            queries: 0,
        }
    }

    /// Runs one query under a root span. Returns the closure's result and
    /// the query's spans, by layer.
    pub fn query<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> (T, Vec<(&'static str, u64)>) {
        assert!(self.open.is_empty(), "queries do not nest");
        let started = Instant::now();
        let out = f(self);
        let root = started.elapsed().as_nanos() as u64;
        let spans = std::mem::take(&mut self.open);
        let children: u64 = spans.iter().map(|&(_, ns)| ns).sum();
        for &(layer, ns) in &spans {
            let entry = self.layers.entry(layer).or_default();
            entry.0 += ns;
            entry.1 += 1;
        }
        self.root_ns += root;
        self.root_self_ns += root.saturating_sub(children);
        self.queries += 1;
        (out, spans)
    }

    /// Times one layer call as a span of the query in progress.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.open.push((layer, started.elapsed().as_nanos() as u64));
        out
    }

    /// Stops the wall clock.
    pub fn finish(self) -> Replayed {
        let wall_ns = self.started.elapsed().as_nanos() as u64;
        Replayed {
            layers: self.layers,
            wall_ns,
            glue_ns: self.root_self_ns,
            between_ns: wall_ns.saturating_sub(self.root_ns),
            queries: self.queries,
        }
    }
}

impl Replayed {
    /// Total ns of one span name.
    pub fn ns(&self, layer: &str) -> u64 {
        self.layers.get(layer).map_or(0, |&(ns, _)| ns)
    }

    /// Calls of one span name.
    pub fn calls(&self, layer: &str) -> u64 {
        self.layers.get(layer).map_or(0, |&(_, calls)| calls)
    }

    /// Mean µs per call of one span name, 0 when it never ran.
    pub fn us_per_call(&self, layer: &str) -> f64 {
        per(self.ns(layer) as f64 / 1e3, self.calls(layer) as f64)
    }

    /// Self time of every span whose name starts with `prefix`.
    pub fn prefix_ns(&self, prefix: &str) -> u64 {
        self.layers
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, &(ns, _))| ns)
            .sum()
    }

    /// Residual time that belongs to no layer: glue inside queries, the gaps
    /// between them, and the replay's own bookkeeping spans.
    pub fn residual_ns(&self) -> u64 {
        self.glue_ns + self.between_ns + self.prefix_ns("replay.")
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Sum of the spans of one query whose names start with any of `prefixes`.
pub fn sum_spans(spans: &[(&'static str, u64)], prefixes: &[&str]) -> u64 {
    spans
        .iter()
        .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
        .map(|&(_, ns)| ns)
        .sum()
}

/// The compute layers of one shard, on every substrate, with counts.
pub struct Compute {
    engine: CrossComparison,
    cpu: CpuBackend,
    gpu: GpuBackend,
    hybrid: HybridBackend,
    pixelbox: PixelBoxConfig,
    /// Tiles compared.
    pub tiles: u64,
    /// Candidate pairs compared.
    pub pairs: u64,
    /// Edge tables built by the prewarm pass.
    pub edge_tables: u64,
    /// Simulated GPU seconds of the GPU substrate.
    pub gpu_sim_s: f64,
    /// Pairs the hybrid substrate sent to the simulated GPU.
    pub hybrid_gpu_pairs: u64,
}

impl Compute {
    /// One-thread substrates under the service's default PixelBox
    /// configuration and simulated device.
    pub fn new() -> Self {
        let device = Arc::new(Device::new(DeviceConfig::gtx580()));
        Compute {
            engine: CrossComparison::new(EngineConfig::default().with_cpu_workers(1)),
            cpu: CpuBackend::new(1),
            gpu: GpuBackend::new(Arc::clone(&device)),
            hybrid: HybridBackend::with_split(device, 1, SplitConfig::default()),
            pixelbox: PixelBoxConfig::paper_default(),
            tiles: 0,
            pairs: 0,
            edge_tables: 0,
            gpu_sim_s: 0.0,
            hybrid_gpu_pairs: 0,
        }
    }

    /// Filters, prewarms and computes one tile pair on all three
    /// substrates, checks they agree bit for bit, and folds the areas.
    pub fn tile(
        &mut self,
        tracer: &mut Tracer,
        first: &[PolygonRecord],
        second: &[PolygonRecord],
    ) -> Result<JaccardAccumulator, String> {
        let pairs = tracer.span("core.filter", || self.engine.filter_pairs(first, second));
        let built = tracer.span("core.edge_build", || prewarm_pair_edge_tables(&pairs, 1));
        let cpu = tracer.span("core.kernel.cpu", || {
            self.cpu.compute_batch(&pairs, &self.pixelbox)
        });
        let gpu = tracer.span("core.kernel.gpu", || {
            self.gpu.compute_batch(&pairs, &self.pixelbox)
        });
        let split = self.hybrid.split_point(pairs.len());
        let hybrid = tracer.span("core.kernel.hybrid", || {
            self.hybrid.compute_batch(&pairs, &self.pixelbox)
        });
        if gpu.areas != cpu.areas || hybrid.areas != cpu.areas {
            return Err("substrates disagree on a replayed tile".to_string());
        }
        let accumulator = tracer.span("core.merge", || {
            let mut acc = JaccardAccumulator::new();
            for areas in &cpu.areas {
                acc.add_pair(*areas);
            }
            acc
        });
        self.tiles += 1;
        self.pairs += pairs.len() as u64;
        self.edge_tables += built as u64;
        self.gpu_sim_s += gpu.total_simulated_seconds();
        self.hybrid_gpu_pairs += split as u64;
        Ok(accumulator)
    }

    /// Merges tile accumulators in tile order, as the service does.
    pub fn merge(tracer: &mut Tracer, tiles: &[JaccardAccumulator]) -> JaccardAccumulator {
        tracer.span("core.merge", || {
            let mut total = JaccardAccumulator::new();
            for tile in tiles {
                total.merge(tile);
            }
            total
        })
    }
}

/// Read-path counts of a replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReadCounts {
    /// Fetches served from the resident set.
    pub hits: u64,
    /// Fetches that read the tile from its file.
    pub misses: u64,
}

/// Fetches one tile through a pager, timing hits and misses apart; a miss
/// also replays the read path split into its read, checksum and decode.
pub fn fetch_paged(
    tracer: &mut Tracer,
    counts: &mut ReadCounts,
    storage: &TileStorage,
    tile: usize,
) -> Result<Arc<Vec<PolygonRecord>>, String> {
    let resident = storage.is_resident(tile);
    let layer = if resident {
        "store.fetch_hit"
    } else {
        "store.fetch_miss"
    };
    let records = tracer
        .span(layer, || storage.fetch(tile))
        .map_err(|e| format!("replayed fetch failed: {e}"))?;
    if resident {
        counts.hits += 1;
    } else {
        counts.misses += 1;
        read_path(tracer, storage.file(), tile, &records)?;
    }
    Ok(records)
}

/// Replays `SlideFile::read_tile` and then its checksum and decode steps on
/// the same block, so the read splits into I/O, checksum and decode.
fn read_path(
    tracer: &mut Tracer,
    file: &SlideFile,
    tile: usize,
    expected: &[PolygonRecord],
) -> Result<(), String> {
    let read = tracer
        .span("store.read", || file.read_tile(tile))
        .map_err(|e| format!("replayed read failed: {e}"))?;
    let entry = file.index()[tile];
    let block = tracer.span(BLOCK_READ, || -> std::io::Result<Vec<u8>> {
        let mut block = vec![0u8; entry.len as usize];
        std::fs::File::open(file.path())?.read_exact_at(&mut block, entry.offset)?;
        Ok(block)
    });
    let block = block.map_err(|e| format!("replayed block read failed: {e}"))?;
    if tracer.span("store.checksum", || fnv1a_64(&block)) != entry.checksum {
        return Err(format!("tile {tile}: replayed block fails its checksum"));
    }
    let decoded = tracer
        .span("store.decode", || decode_tile(&block))
        .map_err(|e| format!("replayed decode failed: {e}"))?;
    if decoded != read || read != expected {
        return Err(format!(
            "tile {tile}: replayed read path disagrees with the pager"
        ));
    }
    Ok(())
}

/// The messages one query puts on the wire: the query, its ack, any tile
/// frames, and the summary, as the server would send them.
pub fn query_messages(
    request_id: u64,
    spec: &WireRequestSpec,
    streaming: bool,
    response: &WireResponse,
) -> Vec<Message> {
    let mut messages = vec![
        Message::Query {
            request_id,
            streaming,
            spec: spec.clone(),
        },
        Message::Ack { request_id },
    ];
    let mut summary = response.clone();
    if streaming {
        for (position, tile) in response.tiles.iter().enumerate() {
            messages.push(Message::Tile {
                request_id,
                position: position as u64,
                tile: tile.clone(),
            });
        }
        summary.tiles.clear();
    }
    messages.push(Message::Summary {
        request_id,
        tiles_included: !streaming,
        response: summary,
    });
    messages
}

/// Encodes and decodes one query's messages through the framing layer,
/// checking the round trip. Returns `(frames, bytes)`.
pub fn wire_round_trip(tracer: &mut Tracer, messages: &[Message]) -> Result<(u64, u64), String> {
    let bytes = tracer.span("net.encode", || {
        let mut out = Vec::new();
        for message in messages {
            let frame = message.to_frame();
            encode_frame(frame.kind, &frame.body, &mut out);
        }
        out
    });
    let decoded = tracer.span("net.decode", || -> Result<Vec<Message>, String> {
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes);
        let mut out = Vec::with_capacity(messages.len());
        while let Some(frame) = decoder.next_frame().map_err(|e| e.to_string())? {
            out.push(Message::of_frame(&frame).map_err(|e| e.to_string())?);
        }
        Ok(out)
    })?;
    if decoded != messages {
        return Err("wire round trip changed a message".to_string());
    }
    Ok((messages.len() as u64, bytes.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_times_and_residuals_sum_to_the_wall_time() {
        let mut tracer = Tracer::new();
        for _ in 0..3 {
            tracer.query(|t| {
                t.span("core.filter", || {
                    std::thread::sleep(Duration::from_millis(2))
                });
                std::thread::sleep(Duration::from_millis(1));
                t.span(BLOCK_READ, || std::thread::sleep(Duration::from_millis(1)));
            });
            std::thread::sleep(Duration::from_millis(1));
        }
        let replayed = tracer.finish();
        assert_eq!(replayed.queries, 3);
        assert_eq!(replayed.calls("core.filter"), 3);
        let layers = replayed.prefix_ns("core.");
        assert!(layers >= 6_000_000);
        assert!(replayed.glue_ns >= 3_000_000);
        assert!(replayed.between_ns >= 3_000_000);
        assert_eq!(layers + replayed.residual_ns(), replayed.wall_ns);
    }
}
