//! The tracked performance trajectory: `BENCH_trajectory.json`.
//!
//! `BENCH_pixelbox.json` is a *snapshot* — it is overwritten by every
//! `reproduce -- bench` run, so a slow erosion of throughput across PRs is
//! invisible in review. The trajectory file fixes that: every bench run
//! [appends](append_entry) a timestamped entry (schema
//! [`TRAJECTORY_SCHEMA`]), and the [gate](check_gate) — run by CI right
//! after the bench step — fails the build when the latest entry falls below
//! [`SUBSTRATE_FLOOR_RATIO`] of the *best recorded* pairs/sec for any
//! substrate, or when the `pixelize_dense` scanline-vs-per-pixel speedup
//! drops under [`DENSE_SPEEDUP_GATE`]. "Best recorded" reaches back to the
//! latest *rebaseline* entry: a bench run marked, with a reason, as timing
//! different work than the runs before it (`reproduce -- bench
//! --rebaseline "<reason>"`), so rates the bench no longer measures stop
//! counting while the floor itself stays as it is.
//!
//! The JSON handling is hand-rolled (a small recursive-descent reader and a
//! plain formatter): the workspace's vendored `serde` shim provides no
//! derive-based deserialization, and the format is five fields deep.

use std::fmt::Write as _;
use std::path::Path;

/// Schema identifier stamped into the trajectory file.
pub const TRAJECTORY_SCHEMA: &str = "sccg-bench-trajectory/v1";

/// Default location of the trajectory file, relative to the repo root.
pub const TRAJECTORY_PATH: &str = "BENCH_trajectory.json";

/// The regression floor: the latest entry must reach at least this fraction
/// of the best recorded `pairs_per_sec`, per substrate.
pub const SUBSTRATE_FLOOR_RATIO: f64 = 0.8;

/// Minimum `pixelize_dense` speedup (interval-scanline kernel over the
/// per-pixel seed loop) the latest entry must sustain.
pub const DENSE_SPEEDUP_GATE: f64 = 100.0;

/// Sustained throughput of one substrate in one bench run.
#[derive(Debug, Clone, PartialEq)]
pub struct SubstrateRate {
    /// Substrate name (`cpu-s`, `cpu`, `gpu`, `hybrid-adaptive`).
    pub name: String,
    /// Pairs per wall-clock second over the timed batches.
    pub pairs_per_sec: f64,
}

/// Measured serving-layer load-generator metrics (`reproduce -- serve`):
/// N concurrent loopback wire clients against the `ComparisonService`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeMetrics {
    /// Concurrent loopback clients driven by the load generator.
    pub clients: u64,
    /// Total queries completed across all clients.
    pub queries: u64,
    /// Sustained queries per second over the run.
    pub qps: f64,
    /// Median end-to-end query latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile end-to-end query latency, milliseconds.
    pub p99_ms: f64,
}

/// Measured out-of-core storage metrics (`reproduce -- store`): whole-slide
/// queries paging a disk-backed dataset larger than the residency bound.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreMetrics {
    /// Tiles per wall-clock second with a cold pager (every fetch reads and
    /// decodes its block from disk).
    pub cold_tiles_per_sec: f64,
    /// Tiles per wall-clock second re-reading a working set within the
    /// residency bound (served from the resident set).
    pub warm_tiles_per_sec: f64,
    /// The pager's overall hit rate across the run.
    pub pager_hit_rate: f64,
}

/// Measured locality-scheduling metrics (`reproduce -- locality`): the same
/// disk-backed workload dispatched under both placement policies, so the
/// entry records the pager-miss gap that residency-aware placement opens
/// over the round-robin baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalityMetrics {
    /// The placement policy the headline counters below were measured under.
    pub policy: String,
    /// Shards dispatched to the engine that last faulted their tiles.
    pub affinity_hits: u64,
    /// Pager misses across the run under residency-aware placement.
    pub residency_aware_pager_misses: u64,
    /// Pager misses for the identical workload under round-robin placement.
    pub round_robin_pager_misses: u64,
}

/// Measured chaos-smoke metrics (`reproduce -- chaos`): a disk-backed wire
/// workload run under a seeded fault plan, recording how much went wrong on
/// purpose and that every query still resolved correctly or typed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosMetrics {
    /// Queries driven across all wire clients (including the retried ones).
    pub queries: u64,
    /// Queries that resolved bit-identically to the fault-free twin.
    pub completed: u64,
    /// Shards handed back to survivors after injected engine kills.
    pub redispatches: u64,
    /// Engine kills the injector fired.
    pub engine_kills: u64,
    /// Connection resets the injector fired.
    pub connection_resets: u64,
    /// Tiles quarantined by the pager's circuit breaker.
    pub quarantined_tiles: u64,
    /// Sustained queries per second over the chaos run.
    pub qps: f64,
}

/// One timestamped bench run. A `bench` run carries substrate rates and a
/// dense-pixelization speedup; a `serve` run carries only [`ServeMetrics`],
/// a `store` run only [`StoreMetrics`], a `locality` run only
/// [`LocalityMetrics`], and a `chaos` run only [`ChaosMetrics`] (empty
/// `substrates`, speedup 0) — the [gate](check_gate) knows to skip such
/// entries when looking for the run to check.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryEntry {
    /// Free-form label (`pr5-baseline`, `bench`, `serve`, `store`, …).
    pub label: String,
    /// Unix timestamp (seconds) of the run.
    pub unix_seconds: u64,
    /// Per-substrate sustained throughput.
    pub substrates: Vec<SubstrateRate>,
    /// The `pixelize_dense` scanline-vs-per-pixel speedup of the run.
    pub pixelize_dense_speedup: f64,
    /// Wire serving-layer metrics, when the run measured them.
    pub serve: Option<ServeMetrics>,
    /// Out-of-core storage metrics, when the run measured them.
    pub store: Option<StoreMetrics>,
    /// Locality-scheduling metrics, when the run measured them.
    pub locality: Option<LocalityMetrics>,
    /// Chaos-smoke metrics, when the run measured them.
    pub chaos: Option<ChaosMetrics>,
    /// Why this bench run is not comparable with the runs before it, when
    /// it starts a new baseline: the [gate](check_gate) takes its best
    /// recorded rates from the latest such entry on.
    pub rebaseline: Option<String>,
}

/// Reads the trajectory file. A missing file is an empty trajectory; a
/// present but malformed file (or a wrong schema) is an error, so a gate run
/// can never silently pass on garbage.
pub fn read_trajectory(path: &Path) -> Result<Vec<TrajectoryEntry>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(err) => return Err(format!("read {}: {err}", path.display())),
    };
    let root = Value::parse(&text).map_err(|err| format!("{}: {err}", path.display()))?;
    let schema = root
        .get("schema")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{}: missing \"schema\"", path.display()))?;
    if schema != TRAJECTORY_SCHEMA {
        return Err(format!(
            "{}: schema \"{schema}\" is not \"{TRAJECTORY_SCHEMA}\"",
            path.display()
        ));
    }
    let entries = root
        .get("entries")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: missing \"entries\" array", path.display()))?;
    entries
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            parse_entry(entry).map_err(|err| format!("{}: entry {i}: {err}", path.display()))
        })
        .collect()
}

fn parse_entry(value: &Value) -> Result<TrajectoryEntry, String> {
    let field = |key: &str| value.get(key).ok_or_else(|| format!("missing \"{key}\""));
    let label = field("label")?
        .as_str()
        .ok_or("\"label\" is not a string")?
        .to_string();
    let unix_seconds = field("unix_seconds")?
        .as_f64()
        .ok_or("\"unix_seconds\" is not a number")? as u64;
    let pixelize_dense_speedup = field("pixelize_dense_speedup")?
        .as_f64()
        .ok_or("\"pixelize_dense_speedup\" is not a number")?;
    let substrates = field("substrates")?
        .as_array()
        .ok_or("\"substrates\" is not an array")?
        .iter()
        .map(|s| {
            Ok(SubstrateRate {
                name: s
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("substrate missing \"name\"")?
                    .to_string(),
                pairs_per_sec: s
                    .get("pairs_per_sec")
                    .and_then(Value::as_f64)
                    .ok_or("substrate missing \"pairs_per_sec\"")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let serve = match value.get("serve") {
        None | Some(Value::Null) => None,
        Some(serve) => {
            let num = |key: &str| {
                serve
                    .get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("\"serve\" missing \"{key}\""))
            };
            Some(ServeMetrics {
                clients: num("clients")? as u64,
                queries: num("queries")? as u64,
                qps: num("qps")?,
                p50_ms: num("p50_ms")?,
                p99_ms: num("p99_ms")?,
            })
        }
    };
    let store = match value.get("store") {
        None | Some(Value::Null) => None,
        Some(store) => {
            let num = |key: &str| {
                store
                    .get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("\"store\" missing \"{key}\""))
            };
            Some(StoreMetrics {
                cold_tiles_per_sec: num("cold_tiles_per_sec")?,
                warm_tiles_per_sec: num("warm_tiles_per_sec")?,
                pager_hit_rate: num("pager_hit_rate")?,
            })
        }
    };
    let locality = match value.get("locality") {
        None | Some(Value::Null) => None,
        Some(locality) => {
            let num = |key: &str| {
                locality
                    .get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("\"locality\" missing \"{key}\""))
            };
            Some(LocalityMetrics {
                policy: locality
                    .get("policy")
                    .and_then(Value::as_str)
                    .ok_or("\"locality\" missing \"policy\"")?
                    .to_string(),
                affinity_hits: num("affinity_hits")? as u64,
                residency_aware_pager_misses: num("residency_aware_pager_misses")? as u64,
                round_robin_pager_misses: num("round_robin_pager_misses")? as u64,
            })
        }
    };
    let chaos = match value.get("chaos") {
        None | Some(Value::Null) => None,
        Some(chaos) => {
            let num = |key: &str| {
                chaos
                    .get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("\"chaos\" missing \"{key}\""))
            };
            Some(ChaosMetrics {
                queries: num("queries")? as u64,
                completed: num("completed")? as u64,
                redispatches: num("redispatches")? as u64,
                engine_kills: num("engine_kills")? as u64,
                connection_resets: num("connection_resets")? as u64,
                quarantined_tiles: num("quarantined_tiles")? as u64,
                qps: num("qps")?,
            })
        }
    };
    let rebaseline = match value.get("rebaseline") {
        None | Some(Value::Null) => None,
        Some(reason) => Some(
            reason
                .as_str()
                .ok_or("\"rebaseline\" is not a string")?
                .to_string(),
        ),
    };
    Ok(TrajectoryEntry {
        label,
        unix_seconds,
        substrates,
        pixelize_dense_speedup,
        serve,
        store,
        locality,
        chaos,
        rebaseline,
    })
}

/// Appends `entry` to the trajectory at `path` (creating the file on first
/// use) and returns the full trajectory after the append.
pub fn append_entry(path: &Path, entry: TrajectoryEntry) -> Result<Vec<TrajectoryEntry>, String> {
    let mut entries = read_trajectory(path)?;
    entries.push(entry);
    std::fs::write(path, format_trajectory(&entries))
        .map_err(|err| format!("write {}: {err}", path.display()))?;
    Ok(entries)
}

/// Serializes a trajectory in the `sccg-bench-trajectory/v1` layout.
pub fn format_trajectory(entries: &[TrajectoryEntry]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\n  \"schema\": \"{TRAJECTORY_SCHEMA}\",\n  \"entries\": ["
    );
    for (i, entry) in entries.iter().enumerate() {
        let mut substrates = String::new();
        for (j, s) in entry.substrates.iter().enumerate() {
            let _ = write!(
                substrates,
                "{}\n        {{\"name\": \"{}\", \"pairs_per_sec\": {}}}",
                if j == 0 { "" } else { "," },
                s.name,
                s.pairs_per_sec
            );
        }
        let serve = match &entry.serve {
            None => String::new(),
            Some(s) => format!(
                ",\n      \"serve\": {{\"clients\": {}, \"queries\": {}, \"qps\": {}, \
                 \"p50_ms\": {}, \"p99_ms\": {}}}",
                s.clients, s.queries, s.qps, s.p50_ms, s.p99_ms
            ),
        };
        let store = match &entry.store {
            None => String::new(),
            Some(s) => format!(
                ",\n      \"store\": {{\"cold_tiles_per_sec\": {}, \"warm_tiles_per_sec\": {}, \
                 \"pager_hit_rate\": {}}}",
                s.cold_tiles_per_sec, s.warm_tiles_per_sec, s.pager_hit_rate
            ),
        };
        let locality = match &entry.locality {
            None => String::new(),
            Some(l) => format!(
                ",\n      \"locality\": {{\"policy\": \"{}\", \"affinity_hits\": {}, \
                 \"residency_aware_pager_misses\": {}, \"round_robin_pager_misses\": {}}}",
                l.policy,
                l.affinity_hits,
                l.residency_aware_pager_misses,
                l.round_robin_pager_misses
            ),
        };
        let chaos = match &entry.chaos {
            None => String::new(),
            Some(c) => format!(
                ",\n      \"chaos\": {{\"queries\": {}, \"completed\": {}, \
                 \"redispatches\": {}, \"engine_kills\": {}, \"connection_resets\": {}, \
                 \"quarantined_tiles\": {}, \"qps\": {}}}",
                c.queries,
                c.completed,
                c.redispatches,
                c.engine_kills,
                c.connection_resets,
                c.quarantined_tiles,
                c.qps
            ),
        };
        let rebaseline = match &entry.rebaseline {
            None => String::new(),
            Some(reason) => format!(
                ",\n      \"rebaseline\": \"{}\"",
                reason.replace('\\', "\\\\").replace('"', "\\\"")
            ),
        };
        let _ = write!(
            out,
            "    {{\n      \"label\": \"{}\",\n      \"unix_seconds\": {},\n      \
             \"pixelize_dense_speedup\": {},\n      \"substrates\": [{substrates}\n      \
             ]{serve}{store}{locality}{chaos}{rebaseline}\n    }}{}\n",
            entry.label,
            entry.unix_seconds,
            entry.pixelize_dense_speedup,
            if i + 1 == entries.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The regression gate. Checks the *latest bench* entry — the most recent
/// one with non-empty substrate rates, so a trailing serve-only entry is
/// never judged by gates it carries no data for — against the recorded
/// history since the latest rebaseline entry (the whole trajectory when
/// there is none): every substrate it reports must sustain at least
/// [`SUBSTRATE_FLOOR_RATIO`] of the best `pairs_per_sec` recorded there for
/// that substrate, and its `pixelize_dense` speedup must be at least
/// [`DENSE_SPEEDUP_GATE`]. Returns one human-readable line per passed check,
/// or the first failure.
pub fn check_gate(entries: &[TrajectoryEntry]) -> Result<Vec<String>, String> {
    let latest = entries
        .iter()
        .rev()
        .find(|e| !e.substrates.is_empty())
        .ok_or("trajectory has no entries with substrate rates")?;
    let since = entries
        .iter()
        .rposition(|e| e.rebaseline.is_some())
        .unwrap_or(0);
    let mut lines = Vec::new();
    for rate in &latest.substrates {
        let best = entries[since..]
            .iter()
            .flat_map(|e| &e.substrates)
            .filter(|s| s.name == rate.name)
            .map(|s| s.pairs_per_sec)
            .fold(f64::NEG_INFINITY, f64::max);
        let floor = best * SUBSTRATE_FLOOR_RATIO;
        // A NaN rate must fail, never slip past a comparison.
        if rate.pairs_per_sec.is_nan() || rate.pairs_per_sec < floor {
            return Err(format!(
                "substrate {}: latest {:.0} pairs/s is below {SUBSTRATE_FLOOR_RATIO} x best \
                 recorded {best:.0} (floor {floor:.0})",
                rate.name, rate.pairs_per_sec
            ));
        }
        lines.push(format!(
            "{:<16} {:12.0} pairs/s  (best {best:.0}, floor {floor:.0})",
            rate.name, rate.pairs_per_sec
        ));
    }
    if latest.pixelize_dense_speedup.is_nan() || latest.pixelize_dense_speedup < DENSE_SPEEDUP_GATE
    {
        return Err(format!(
            "pixelize_dense speedup {:.1}x is below the {DENSE_SPEEDUP_GATE}x gate",
            latest.pixelize_dense_speedup
        ));
    }
    lines.push(format!(
        "pixelize_dense   {:11.1}x  (gate {DENSE_SPEEDUP_GATE}x)",
        latest.pixelize_dense_speedup
    ));
    Ok(lines)
}

/// A parsed JSON value — just enough of the grammar for the bench files.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    fn parse(input: &str) -> Result<Value, String> {
        let mut reader = Reader {
            bytes: input.as_bytes(),
            pos: 0,
        };
        let value = reader.value()?;
        reader.skip_ws();
        if reader.pos != reader.bytes.len() {
            return Err(format!("trailing data at byte {}", reader.pos));
        }
        Ok(value)
    }

    fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Recursive-descent JSON reader over raw bytes. Strings support the `\"`,
/// `\\`, `\/`, `\n`, `\t`, `\r` escapes (no `\u`, which the bench files
/// never emit); numbers go through `str::parse::<f64>`.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b" \t\r\n".contains(b))
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let escaped = match self.bytes.get(self.pos + 1) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        _ => return Err(format!("unsupported escape at byte {}", self.pos)),
                    };
                    out.push(escaped);
                    self.pos += 2;
                }
                Some(&b) => {
                    out.push(b as char);
                    self.pos += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(label: &str, rates: &[(&str, f64)], dense: f64) -> TrajectoryEntry {
        TrajectoryEntry {
            label: label.into(),
            unix_seconds: 1_785_059_034,
            substrates: rates
                .iter()
                .map(|&(name, pairs_per_sec)| SubstrateRate {
                    name: name.into(),
                    pairs_per_sec,
                })
                .collect(),
            pixelize_dense_speedup: dense,
            serve: None,
            store: None,
            locality: None,
            chaos: None,
            rebaseline: None,
        }
    }

    fn serve_entry(qps: f64) -> TrajectoryEntry {
        TrajectoryEntry {
            label: "serve".into(),
            unix_seconds: 1_785_059_099,
            substrates: Vec::new(),
            pixelize_dense_speedup: 0.0,
            serve: Some(ServeMetrics {
                clients: 4,
                queries: 32,
                qps,
                p50_ms: 1.25,
                p99_ms: 4.5,
            }),
            store: None,
            locality: None,
            chaos: None,
            rebaseline: None,
        }
    }

    fn store_entry(cold: f64) -> TrajectoryEntry {
        TrajectoryEntry {
            label: "store".into(),
            unix_seconds: 1_785_059_123,
            substrates: Vec::new(),
            pixelize_dense_speedup: 0.0,
            serve: None,
            store: Some(StoreMetrics {
                cold_tiles_per_sec: cold,
                warm_tiles_per_sec: cold * 8.0,
                pager_hit_rate: 0.75,
            }),
            locality: None,
            chaos: None,
            rebaseline: None,
        }
    }

    fn locality_entry(ra_misses: u64, rr_misses: u64) -> TrajectoryEntry {
        TrajectoryEntry {
            label: "locality".into(),
            unix_seconds: 1_785_059_150,
            substrates: Vec::new(),
            pixelize_dense_speedup: 0.0,
            serve: None,
            store: None,
            locality: Some(LocalityMetrics {
                policy: "residency-aware".into(),
                affinity_hits: 17,
                residency_aware_pager_misses: ra_misses,
                round_robin_pager_misses: rr_misses,
            }),
            chaos: None,
            rebaseline: None,
        }
    }

    fn chaos_entry(completed: u64) -> TrajectoryEntry {
        TrajectoryEntry {
            label: "chaos".into(),
            unix_seconds: 1_785_059_180,
            substrates: Vec::new(),
            pixelize_dense_speedup: 0.0,
            serve: None,
            store: None,
            locality: None,
            chaos: Some(ChaosMetrics {
                queries: 24,
                completed,
                redispatches: 2,
                engine_kills: 1,
                connection_resets: 1,
                quarantined_tiles: 1,
                qps: 93.5,
            }),
            rebaseline: None,
        }
    }

    #[test]
    fn round_trips_through_the_formatter_and_reader() {
        let mut rebased = entry("rebaseline", &[("cpu-s", 0.4e6)], 650.0);
        rebased.rebaseline = Some("times the \"build\" too, see C:\\notes".into());
        let entries = vec![
            entry("pr5-baseline", &[("cpu-s", 1.3e6), ("gpu", 1.1e6)], 598.5),
            entry("bench", &[("cpu-s", 2.0e6), ("gpu", 1.5e6)], 700.25),
            rebased,
        ];
        let text = format_trajectory(&entries);
        let root = Value::parse(&text).unwrap();
        assert_eq!(
            root.get("schema").and_then(Value::as_str),
            Some(TRAJECTORY_SCHEMA)
        );
        let parsed: Vec<TrajectoryEntry> = root
            .get("entries")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|e| parse_entry(e).unwrap())
            .collect();
        assert_eq!(parsed, entries);
    }

    #[test]
    fn append_and_read_via_the_filesystem() {
        let dir = std::env::temp_dir().join("sccg-trajectory-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("t-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        assert_eq!(read_trajectory(&path).unwrap(), Vec::new());
        append_entry(&path, entry("first", &[("cpu", 1.0e6)], 400.0)).unwrap();
        let all = append_entry(&path, entry("second", &[("cpu", 1.2e6)], 500.0)).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(read_trajectory(&path).unwrap(), all);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn serve_entries_round_trip_and_never_trip_the_bench_gates() {
        let entries = vec![entry("bench", &[("cpu", 1.0e6)], 600.0), serve_entry(812.5)];
        let text = format_trajectory(&entries);
        let root = Value::parse(&text).unwrap();
        let parsed: Vec<TrajectoryEntry> = root
            .get("entries")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|e| parse_entry(e).unwrap())
            .collect();
        assert_eq!(parsed, entries, "serve metrics survive the round trip");

        // The gate judges the bench entry, not the trailing serve-only entry
        // (whose empty substrates and 0 speedup would otherwise fail it).
        let lines = check_gate(&entries).unwrap();
        assert_eq!(lines.len(), 2);
        assert!(
            check_gate(&[serve_entry(100.0)]).is_err(),
            "a trajectory with only serve entries has nothing to gate"
        );
    }

    #[test]
    fn store_entries_round_trip_and_never_trip_the_bench_gates() {
        let entries = vec![entry("bench", &[("cpu", 1.0e6)], 600.0), store_entry(96.5)];
        let text = format_trajectory(&entries);
        let root = Value::parse(&text).unwrap();
        let parsed: Vec<TrajectoryEntry> = root
            .get("entries")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|e| parse_entry(e).unwrap())
            .collect();
        assert_eq!(parsed, entries, "store metrics survive the round trip");

        // A trailing store-only entry (empty substrates, 0 speedup) must not
        // be the entry the substrate/speedup gates judge.
        let lines = check_gate(&entries).unwrap();
        assert_eq!(lines.len(), 2);
        assert!(
            check_gate(&[store_entry(10.0)]).is_err(),
            "a trajectory with only store entries has nothing to gate"
        );
    }

    #[test]
    fn locality_entries_round_trip_and_never_trip_the_bench_gates() {
        let entries = vec![
            entry("bench", &[("cpu", 1.0e6)], 600.0),
            locality_entry(40, 96),
        ];
        let text = format_trajectory(&entries);
        let root = Value::parse(&text).unwrap();
        let parsed: Vec<TrajectoryEntry> = root
            .get("entries")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|e| parse_entry(e).unwrap())
            .collect();
        assert_eq!(parsed, entries, "locality metrics survive the round trip");

        // A trailing locality-only entry (empty substrates, 0 speedup) must
        // not be the entry the substrate/speedup gates judge: the gate skips
        // it and still checks the bench entry before it.
        let lines = check_gate(&entries).unwrap();
        assert_eq!(lines.len(), 2);
        assert!(
            check_gate(&[locality_entry(40, 96)]).is_err(),
            "a trajectory with only locality entries has nothing to gate"
        );
    }

    #[test]
    fn chaos_entries_round_trip_and_never_trip_the_bench_gates() {
        let entries = vec![entry("bench", &[("cpu", 1.0e6)], 600.0), chaos_entry(24)];
        let text = format_trajectory(&entries);
        let root = Value::parse(&text).unwrap();
        let parsed: Vec<TrajectoryEntry> = root
            .get("entries")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|e| parse_entry(e).unwrap())
            .collect();
        assert_eq!(parsed, entries, "chaos metrics survive the round trip");

        // The regression this pins down: a trailing chaos-only entry (empty
        // substrates, 0 speedup) is skipped by the gate, which still judges
        // the bench entry before it — a chaos run in CI can never fail the
        // throughput gates it carries no data for.
        let lines = check_gate(&entries).unwrap();
        assert_eq!(lines.len(), 2);
        assert!(
            check_gate(&[chaos_entry(24)]).is_err(),
            "a trajectory with only chaos entries has nothing to gate"
        );
    }

    #[test]
    fn gate_passes_at_or_above_the_floor() {
        let entries = vec![
            entry("best", &[("cpu", 1.0e6)], 600.0),
            entry("latest", &[("cpu", 0.85e6)], 150.0),
        ];
        let lines = check_gate(&entries).unwrap();
        assert_eq!(lines.len(), 2);
    }

    #[test]
    fn gate_fails_below_the_substrate_floor() {
        let entries = vec![
            entry("best", &[("cpu", 1.0e6)], 600.0),
            entry("latest", &[("cpu", 0.5e6)], 600.0),
        ];
        let err = check_gate(&entries).unwrap_err();
        assert!(err.contains("cpu"), "{err}");
        assert!(err.contains("below"), "{err}");
    }

    #[test]
    fn gate_takes_its_best_rates_from_the_latest_rebaseline_on() {
        let mut rebased = entry("rebaseline", &[("cpu", 0.5e6)], 600.0);
        rebased.rebaseline = Some("bench batches now include table builds".into());
        let mut entries = vec![
            entry("old-best", &[("cpu", 2.0e6)], 600.0),
            rebased,
            serve_entry(10.0),
            entry("latest", &[("cpu", 0.45e6)], 600.0),
        ];
        // 0.45M is below 0.8 x the pre-rebaseline 2.0M, but the history
        // starts at the rebaseline entry: 0.45M >= 0.8 x 0.5M.
        let lines = check_gate(&entries).unwrap();
        assert!(lines[0].contains("best 500000"), "{}", lines[0]);
        // The floor still applies from the rebaseline on.
        entries.push(entry("slower", &[("cpu", 0.3e6)], 600.0));
        let err = check_gate(&entries).unwrap_err();
        assert!(err.contains("best recorded 500000"), "{err}");
        // A faster run after the rebaseline raises the bar as before.
        entries.push(entry("faster", &[("cpu", 1.0e6)], 600.0));
        entries.push(entry("latest", &[("cpu", 0.7e6)], 600.0));
        assert!(check_gate(&entries).is_err());
    }

    #[test]
    fn gate_fails_below_the_dense_speedup_gate() {
        let entries = vec![entry("latest", &[("cpu", 1.0e6)], 42.0)];
        let err = check_gate(&entries).unwrap_err();
        assert!(err.contains("pixelize_dense"), "{err}");
    }

    #[test]
    fn gate_rejects_an_empty_trajectory_and_nan_rates() {
        assert!(check_gate(&[]).is_err());
        let entries = vec![
            entry("best", &[("cpu", 1.0e6)], 600.0),
            entry("latest", &[("cpu", f64::NAN)], 600.0),
        ];
        assert!(check_gate(&entries).is_err(), "NaN must not pass the gate");
    }

    #[test]
    fn malformed_files_and_wrong_schemas_are_errors() {
        assert!(Value::parse("{\"a\": }").is_err());
        assert!(Value::parse("[1, 2").is_err());
        assert!(Value::parse("{} trailing").is_err());
        let dir = std::env::temp_dir().join("sccg-trajectory-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("bad-{}.json", std::process::id()));
        std::fs::write(&path, "{\"schema\": \"other/v9\", \"entries\": []}").unwrap();
        assert!(read_trajectory(&path).unwrap_err().contains("schema"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reads_the_snapshot_style_numbers_exactly() {
        let text = "{\"schema\": \"sccg-bench-trajectory/v1\", \"entries\": [{\"label\": \"x\", \
                    \"unix_seconds\": 1785059034, \"pixelize_dense_speedup\": 598.5469710272168, \
                    \"substrates\": [{\"name\": \"cpu-s\", \"pairs_per_sec\": \
                    1338154.717169617}]}]}";
        let dir = std::env::temp_dir().join("sccg-trajectory-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("snap-{}.json", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let entries = read_trajectory(&path).unwrap();
        assert_eq!(entries[0].substrates[0].pairs_per_sec, 1338154.717169617);
        assert_eq!(entries[0].pixelize_dense_speedup, 598.5469710272168);
        assert_eq!(entries[0].unix_seconds, 1785059034);
        std::fs::remove_file(&path).unwrap();
    }
}
