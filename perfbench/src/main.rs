//! Benchmark of the SCCG comparison service: end-to-end metrics of three
//! workloads, and a traced run that splits their time across the layers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload study|viewer|ingest|all --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Lines before it
//! record the host and diagnostics. A run whose outputs disagree with the
//! in-process reference exits non-zero.

mod ingest;
mod inputs;
mod layers;
mod load;
mod replay;
mod study;
mod viewer;

use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["study", "viewer", "ingest"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed, XOR-ed into every generated input.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            trace: false,
        };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => out.workload = value.clone(),
                "--seed" => out.seed = number()?,
                "--seconds" => out.seconds = number()?.max(1),
                "--trace" => out.trace = number()? != 0,
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if out.workload != "all" && !WORKLOADS.contains(&out.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?} or all, not {:?}",
                out.workload
            ));
        }
        Ok(out)
    }

    /// The measured run length.
    pub fn run(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: String,
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Failures that are wrong answers rather than refusals.
    pub wrong: u64,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Diagnostics printed before the result line.
    pub notes: Vec<Metric>,
}

impl Report {
    /// Adds a reported metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Adds a diagnostic.
    pub fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.notes.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Reports the end-to-end metrics, in the order `BENCHMARK.json` lists
    /// them, with the diagnostics of the phase's samples.
    pub fn end_to_end(
        &mut self,
        setup_s: f64,
        samples: &[load::Sample],
        run: Duration,
        windows: usize,
        limit_ms: f64,
        stored_per_input: f64,
    ) {
        let f = load::figures(samples, run, windows, limit_ms);
        self.metric("setup_s", setup_s, "s");
        self.metric("pairs_per_s", f.pairs_per_s, "1/s");
        self.metric("query_p50_ms", f.p50_ms, "ms");
        self.metric("query_p90_ms", f.p90_ms, "ms");
        self.metric("first_tile_p50_ms", f.first_p50_ms, "ms");
        self.metric("goodput_share", f.goodput_share, "share");
        self.metric("mb_per_s", f.mb_per_s, "MB/s");
        self.metric("stored_bytes_per_input_byte", stored_per_input, "B/B");
        self.metric("peak_rss_mb", peak_rss_mb(), "MB");
        let pooled = load::Latencies::new(
            samples
                .iter()
                .filter(|s| s.ok)
                .map(|s| s.latency_ms)
                .collect(),
        );
        self.note("query.samples", pooled.len() as f64, "count");
        self.note("query.p99_ms", pooled.p(99.0), "ms");
        let supported = load::highest_supported_percentile(pooled.len());
        self.note(
            "query.highest_supported_percentile",
            supported.unwrap_or(f64::NAN),
            "pct",
        );
        self.note("windows", windows as f64, "count");
        self.note("window_min_samples", f.min_window_samples as f64, "count");
        for (i, p50) in f.window_p50_ms.iter().enumerate() {
            self.note(&format!("window.{i}.query_p50_ms"), *p50, "ms");
        }
        self.note("goodput_limit_ms", limit_ms, "ms");
    }

    /// Counts one attempted operation and whether it failed.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts one answered operation checked against its reference.
    pub fn checked(&mut self, correct: bool) {
        self.attempt(correct);
        if !correct {
            self.wrong += 1;
        }
    }

    fn correct(&self) -> bool {
        self.wrong == 0 && self.attempted > 0
    }
}

/// Times `SETUPS` set-ups, keeps the last, and returns it with the median
/// set-up time in seconds. Earlier set-ups are dropped before the next
/// starts, so at most one is alive at a time.
pub fn timed_setups<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut seconds = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let started = Instant::now();
        kept = Some(setup()?);
        seconds.push(started.elapsed().as_secs_f64());
    }
    Ok((kept.expect("SETUPS > 0"), load::median(&seconds)))
}

/// Peak resident set of this process in MB, from the kernel's high-water
/// mark.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Total and stolen CPU time of the host so far, in clock ticks, from the
/// kernel's `cpu` line: time other guests took from this machine's vCPUs.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// A scratch directory inside the working directory, removed on drop.
pub struct Scratch {
    path: std::path::PathBuf,
}

impl Scratch {
    /// Creates `.perfbench-scratch/<tag>-<pid>` under the working directory.
    pub fn new(tag: &str) -> Result<Self, String> {
        let path = std::path::Path::new(".perfbench-scratch")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    /// The directory.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Removes the parent too once no other run uses it.
        let _ = std::fs::remove_dir(".perfbench-scratch");
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn result_line(report: &Report) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct(),
        report.attempted,
        report.failed,
        json_metrics(&report.metrics)
    )
}

/// The host the numbers were measured on.
fn host_line(args: &Args) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        );
    format!(
        "# host {{\"available_parallelism\": {parallelism}, \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}, \"seed\": {}, \"workload\": {}, \"seconds\": {}, \"trace\": {}}}",
        json_string(&cpu),
        json_string(&rustc),
        json_string(&git_commit()),
        args.seed,
        json_string(&args.workload),
        args.seconds,
        args.trace
    )
}

/// The checked-out commit, read from `.git` without running git; `unknown`
/// outside a git checkout.
fn git_commit() -> String {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(&format!(".git/{reference}")).or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|line| line.ends_with(reference))
                    .and_then(|line| line.split_whitespace().next().map(str::to_string))
            }),
            None => Some(head),
        },
        None => None,
    }
    .unwrap_or_else(|| "unknown".to_string())
}

fn run_workload(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "study" => study::run(args),
        "viewer" => viewer::run(args),
        "ingest" => ingest::run(args),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Runs every workload in a process of its own (so each has its own peak
/// RSS), relaying their output, and prints one combined result line whose
/// metric names are prefixed with the workload.
fn run_all(args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut combined = Report::default();
    for workload in WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("run {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        println!("# {workload} {last}");
        let parsed =
            parse_result_line(last).ok_or_else(|| format!("{workload} printed no result line"))?;
        combined.attempted += parsed.attempted;
        combined.failed += parsed.failed;
        combined.wrong += parsed.wrong;
        for metric in parsed.metrics {
            combined.metrics.push(Metric {
                name: format!("{workload}.{}", metric.name),
                ..metric
            });
        }
        if !output.status.success() {
            combined.wrong += 1;
        }
    }
    Ok(combined)
}

/// Parses a result line this program printed.
fn parse_result_line(line: &str) -> Option<Report> {
    let number_after = |key: &str| -> Option<u64> {
        let rest = &line[line.find(key)? + key.len()..];
        rest.trim_start()
            .split(|c: char| !c.is_ascii_digit())
            .next()?
            .parse()
            .ok()
    };
    let mut report = Report {
        attempted: number_after("\"attempted\":")?,
        failed: number_after("\"failed\":")?,
        ..Report::default()
    };
    if !line.contains("\"correct\": true") {
        report.wrong = 1;
    }
    let metrics = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    for field in metrics.split("}, ") {
        let mut parts = field.splitn(2, ": {\"value\": ");
        let name = parts.next()?.trim().trim_matches('"').to_string();
        let rest = parts.next()?;
        let (value, unit) = rest.split_once(", \"unit\": ")?;
        let unit = unit.trim_end_matches('}').trim_matches('"');
        report.metrics.push(Metric {
            name,
            value: value.parse().unwrap_or(f64::NAN),
            unit: unit.to_string(),
        });
    }
    Some(report)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_line(&args));
    let ticks = cpu_ticks();
    let mut outcome = if args.workload == "all" {
        run_all(&args)
    } else {
        run_workload(&args)
    };
    if let (Ok(report), Some((total0, steal0)), Some((total1, steal1))) =
        (&mut outcome, ticks, cpu_ticks())
    {
        let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        report.note("host.cpu_steal_share", share, "share");
    }
    match outcome {
        Ok(report) => {
            for note in &report.notes {
                println!(
                    "# {} = {} {}",
                    note.name,
                    json_number(note.value),
                    note.unit
                );
            }
            println!("{}", result_line(&report));
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} of {} operations answered wrongly",
                    report.wrong, report.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_round_trip() {
        let mut report = Report::default();
        report.attempt(true);
        report.checked(false);
        report.metric("query_p50_ms", 1.25, "ms");
        report.metric("setup_s", 0.5, "s");
        let parsed = parse_result_line(&result_line(&report)).unwrap();
        assert_eq!(parsed.attempted, 2);
        assert_eq!(parsed.failed, 1);
        assert_eq!(parsed.wrong, 1);
        assert_eq!(parsed.metrics.len(), 2);
        assert_eq!(parsed.metrics[0].name, "query_p50_ms");
        assert_eq!(parsed.metrics[0].value, 1.25);
        assert_eq!(parsed.metrics[1].unit, "s");
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(str::to_string));
        let args = parse("--workload viewer --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload study --seed").is_err());
    }
}
