//! The per-layer metrics of a traced run. Every workload reports the same
//! names; a layer a workload never enters reads 0.

use crate::load::percentile;
use crate::replay::{per, sum_spans, Compute, ReadCounts, Replayed};
use crate::Report;
use sccg_serve::{ServiceStats, StorageStats};

/// Everything a traced run measured, before it becomes metrics.
pub struct LayerRun {
    /// The single-threaded replay's spans.
    pub replayed: Replayed,
    /// Compute-layer counts of the replay.
    pub compute: Compute,
    /// Read-path counts of the replay.
    pub reads: ReadCounts,
    /// Replayed queries that crossed the wire, and their frames and bytes.
    pub wire_queries: u64,
    /// Frames of the replayed wire queries.
    pub frames: u64,
    /// Encoded bytes of the replayed wire queries.
    pub bytes: u64,
    /// Latencies of the replayed queries.
    pub queries: QueryLog,
    /// How late the generator sent each traced request, in ms.
    pub lag_ms: Vec<f64>,
    /// Service counters over the traced load: `(before, after)`.
    pub service: Option<(ServiceStats, ServiceStats)>,
    /// Store counters accumulated over the traced load.
    pub storage: StorageStats,
    /// Queries of the traced load.
    pub load_queries: u64,
    /// Median end-to-end latency of the untraced and the traced load, ms.
    pub untraced_p50_ms: f64,
    /// See `untraced_p50_ms`.
    pub traced_p50_ms: f64,
}

/// Spans of the work a service does for a query, on the CPU substrate:
/// what `serve.residual_ms` subtracts from the in-process latency.
const SERVICE_WORK: [&str; 5] = [
    "store.fetch",
    "core.filter",
    "core.edge_build",
    "core.kernel.cpu",
    "core.merge",
];

/// Per-query latencies of a replay, in ms.
#[derive(Debug, Default)]
pub struct QueryLog {
    /// In-process `submit → wait` latency.
    inproc_ms: Vec<f64>,
    /// In-process latency minus the replayed [`SERVICE_WORK`] self times.
    residual_ms: Vec<f64>,
    /// Wire latency (send to summary) minus in-process latency.
    overhead_ms: Vec<f64>,
}

impl QueryLog {
    /// Records one replayed query: its in-process latency, or why its
    /// replay disagreed with the answer it replays, which counts as a wrong
    /// answer. `wire_ms` is the query's latency on the wire, if it had one.
    pub fn record(
        &mut self,
        report: &mut Report,
        outcome: Result<f64, String>,
        spans: &[(&'static str, u64)],
        wire_ms: Option<f64>,
    ) {
        match outcome {
            Ok(inproc) => {
                report.checked(true);
                let work = sum_spans(spans, &SERVICE_WORK) as f64 / 1e6;
                self.inproc_ms.push(inproc);
                self.residual_ms.push(inproc - work);
                if let Some(wire) = wire_ms {
                    self.overhead_ms.push(wire - inproc);
                }
            }
            Err(error) => {
                eprintln!("perfbench: {error}");
                report.checked(false);
            }
        }
    }
}

fn mean(values: &[f64]) -> f64 {
    per(values.iter().sum(), values.len() as f64)
}

/// Store counters of `after` not yet counted in `before`.
pub fn storage_delta(before: &StorageStats, after: &StorageStats) -> StorageStats {
    let mut out = *after;
    out.pager_hits -= before.pager_hits;
    out.pager_misses -= before.pager_misses;
    out.coalesced_faults -= before.coalesced_faults;
    out
}

/// Adds `more` to the counters of `total`.
pub fn storage_add(total: &mut StorageStats, more: &StorageStats) {
    total.pager_hits += more.pager_hits;
    total.pager_misses += more.pager_misses;
    total.coalesced_faults += more.coalesced_faults;
}

impl LayerRun {
    /// Emits every per-layer metric, and checks the replay's sum.
    pub fn emit(&self, report: &mut Report) {
        let r = &self.replayed;
        let queries = r.queries as f64;
        let wire = self.wire_queries as f64;
        let c = &self.compute;
        let pairs = c.pairs as f64;

        report.metric(
            "net.encode_us_per_query",
            per(r.ns("net.encode") as f64 / 1e3, wire),
            "us",
        );
        report.metric(
            "net.decode_us_per_query",
            per(r.ns("net.decode") as f64 / 1e3, wire),
            "us",
        );
        report.metric(
            "net.frames_per_query",
            per(self.frames as f64, wire),
            "count",
        );
        report.metric("net.bytes_per_query", per(self.bytes as f64, wire), "B");
        report.metric("net.overhead_ms", mean(&self.queries.overhead_ms), "ms");
        let mut lags = self.lag_ms.clone();
        lags.sort_by(f64::total_cmp);
        let lag_p99 = if lags.is_empty() {
            0.0
        } else {
            percentile(&lags, 99.0)
        };
        report.metric("net.send_lag_p99_ms", lag_p99, "ms");

        report.metric("serve.inproc_query_ms", mean(&self.queries.inproc_ms), "ms");
        report.metric("serve.residual_ms", mean(&self.queries.residual_ms), "ms");
        let (mut cache, mut affinity, mut prefetch, mut avoided, mut redispatches) =
            (0.0, 0.0, 0.0, 0.0, 0.0);
        if let Some((before, after)) = &self.service {
            let (b, a) = (&before.scheduler, &after.scheduler);
            cache = per(
                (after.cache_hits - before.cache_hits) as f64,
                (after.submitted - before.submitted) as f64,
            );
            let hits = (a.affinity_hits - b.affinity_hits) as f64;
            affinity = per(hits, hits + (a.affinity_misses - b.affinity_misses) as f64);
            prefetch = per(
                (a.prefetch_used - b.prefetch_used) as f64,
                (a.prefetch_issued - b.prefetch_issued) as f64,
            );
            avoided = (a.faults_avoided - b.faults_avoided) as f64;
            redispatches = (after.redispatches - before.redispatches) as f64;
        }
        report.metric("serve.cache_hit_share", cache, "share");
        report.metric("serve.affinity_hit_share", affinity, "share");
        report.metric("serve.prefetch_used_share", prefetch, "share");
        report.metric("serve.faults_avoided", avoided, "count");
        report.metric("serve.redispatches", redispatches, "count");

        report.metric("store.fetch_hit_us", r.us_per_call("store.fetch_hit"), "us");
        report.metric(
            "store.fetch_miss_us",
            r.us_per_call("store.fetch_miss"),
            "us",
        );
        let reads = r.calls("store.read") as f64;
        let read_us = per(r.ns("store.read") as f64 / 1e3, reads);
        let checksum_us = per(r.ns("store.checksum") as f64 / 1e3, reads);
        let decode_us = per(r.ns("store.decode") as f64 / 1e3, reads);
        report.metric("store.read_us", read_us, "us");
        report.metric("store.checksum_us", checksum_us, "us");
        report.metric("store.decode_us", decode_us, "us");
        report.metric("store.io_us", read_us - checksum_us - decode_us, "us");
        let s = &self.storage;
        let fetches = (s.pager_hits + s.pager_misses) as f64;
        report.metric(
            "store.pager_hit_rate",
            per(s.pager_hits as f64, fetches),
            "share",
        );
        report.metric(
            "store.misses_per_query",
            per(s.pager_misses as f64, self.load_queries as f64),
            "count",
        );
        report.metric("store.coalesced_faults", s.coalesced_faults as f64, "count");
        report.metric(
            "store.encode_us_per_tile",
            r.us_per_call("store.encode"),
            "us",
        );
        report.metric(
            "store.append_us_per_tile",
            r.us_per_call("store.append"),
            "us",
        );
        report.metric("store.finish_ms", r.us_per_call("store.finish") / 1e3, "ms");

        report.metric(
            "geometry.parse_us_per_tile",
            r.us_per_call("geometry.parse"),
            "us",
        );

        report.metric(
            "core.filter_us_per_tile",
            r.us_per_call("core.filter"),
            "us",
        );
        report.metric(
            "core.candidate_pairs_per_query",
            per(pairs, queries),
            "count",
        );
        report.metric(
            "core.edge_build_us",
            per(r.ns("core.edge_build") as f64 / 1e3, queries),
            "us",
        );
        report.metric(
            "core.edge_tables_built",
            per(c.edge_tables as f64, queries),
            "count",
        );
        for substrate in ["cpu", "gpu", "hybrid"] {
            let span = format!("core.kernel.{substrate}");
            let name = format!("core.kernel_ns_per_pair.{substrate}");
            report.metric(&name, per(r.ns(&span) as f64, pairs), "ns");
        }
        report.metric("core.gpu_sim_s_per_query", per(c.gpu_sim_s, queries), "s");
        report.metric(
            "core.hybrid_gpu_share",
            per(c.hybrid_gpu_pairs as f64, pairs),
            "share",
        );
        report.metric(
            "core.merge_us",
            per(r.ns("core.merge") as f64 / 1e3, queries),
            "us",
        );

        report.metric(
            "trace.overhead_ms",
            self.traced_p50_ms - self.untraced_p50_ms,
            "ms",
        );
        let module_ms = |prefix: &str| r.prefix_ns(prefix) as f64 / 1e6;
        let modules = ["net.", "serve.", "store.", "geometry.", "core."];
        let layers_ms: f64 = modules.iter().map(|m| module_ms(m)).sum();
        let residual_ms = r.residual_ns() as f64 / 1e6;
        let wall_ms = r.wall_ns as f64 / 1e6;
        for module in modules {
            let name = format!("replay.self_ms.{}", module.trim_end_matches('.'));
            report.metric(&name, module_ms(module), "ms");
        }
        report.metric("replay.residual_ms", residual_ms, "ms");
        report.metric("replay.wall_ms", wall_ms, "ms");
        report.note("replay.queries", queries, "count");
        report.note("replay.fetch_hits", self.reads.hits as f64, "count");
        report.note("replay.fetch_misses", self.reads.misses as f64, "count");
        report.note(
            "replay.sum_minus_wall_ms",
            layers_ms + residual_ms - wall_ms,
            "ms",
        );
        // Every replay span belongs to one module or to the residual, so
        // the sum is exact up to float rounding.
        let spans: u64 = r.layers.values().map(|&(ns, _)| ns).sum();
        assert_eq!(
            spans - r.prefix_ns("replay.") + r.residual_ns(),
            r.wall_ns,
            "replay self times must sum to its wall time"
        );
    }
}
