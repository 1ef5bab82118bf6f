//! The repository benchmark: four workloads timed end to end, and a
//! traced mode that splits each one by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-cold|paper-warm|serve-open|stream-fleet|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. Seed 0 (the default) is the canonical
//! seed, on which the paper renders are also compared with `results/`.
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics untraced, the
//! per-layer metrics with `--trace 1`). A full record with the host
//! envelope, the Chrome trace and the self-time table is written under
//! `.bench_build/perfbench/`. The exit code is non-zero when any
//! correctness check fails.

mod paper;
mod serve;
mod stats;
mod stream;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde_json::{json, Value};

/// Threads for generation, M5' fits and the transfer matrix. One, so
/// a run's peak memory and timing do not depend on how two threads
/// share the two vCPUs of the reference host with everything else.
pub const THREADS: usize = 1;

/// Where runs keep their work directories and write their records,
/// relative to the repository root.
const OUT_DIR: &str = ".bench_build/perfbench";

/// Set-up runs at least this many times, and for at least this many
/// seconds in all, per run; `setup_s` is the median.
const SETUP_REPS: usize = 3;
const SETUP_SECONDS: f64 = 5.0;

/// Fewest timed rounds per run (per side when tracing alternates).
const MIN_ROUNDS: usize = 3;

const WORKLOADS: [&str; 4] = ["paper-cold", "paper-warm", "serve-open", "stream-fleet"];

/// The end-to-end metrics every workload reports untraced.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("throughput", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload reports traced (0 where the
/// workload does not reach the layer).
const LAYERS: [(&str, &str); 48] = [
    ("pipeline.resolve_s", "s"),
    ("pipeline.datasets_generated", "count"),
    ("pipeline.datasets_loaded", "count"),
    ("pipeline.trees_fitted", "count"),
    ("pipeline.trees_loaded", "count"),
    ("pipeline.store_hit_ratio", "ratio"),
    ("pipeline.bytes_read", "bytes"),
    ("pipeline.bytes_written", "bytes"),
    ("pipeline.codec_decode_s", "s"),
    ("pipeline.codec_encode_s", "s"),
    ("pipeline.decode_mb_per_s", "MB/s"),
    ("workloads.generate_s", "s"),
    ("perfcounters.intervals", "count"),
    ("modeltree.fit_s", "s"),
    ("modeltree.fits", "count"),
    ("modeltree.split_evaluations", "count"),
    ("modeltree.nodes_expanded", "count"),
    ("modeltree.predict_s", "s"),
    ("modeltree.rows_per_batch", "rows"),
    ("baselines.ols_fit_s", "s"),
    ("baselines.cart_fit_s", "s"),
    ("baselines.predict_s", "s"),
    ("characterize.profile_s", "s"),
    ("transfer.assess_s", "s"),
    ("transfer.matrix_s", "s"),
    ("transfer.cells", "count"),
    ("artifacts.render_s", "s"),
    ("paper.unattributed_s", "s"),
    ("serve.requests", "count"),
    ("serve.batches", "count"),
    ("serve.rows_per_batch", "rows"),
    ("serve.server_p50_us", "us"),
    ("serve.outside_server_us", "us"),
    ("serve.rejected_429", "count"),
    ("serve.bad_requests", "count"),
    ("serve.client_late_p99_us", "us"),
    ("stream.ingest_s", "s"),
    ("stream.rows_ingested", "count"),
    ("stream.duplicates_dropped", "count"),
    ("stream.retransmits", "count"),
    ("stream.faults_injected", "count"),
    ("stream.chunk_recoveries", "count"),
    ("stream.useful_row_ratio", "ratio"),
    ("stream.refits", "count"),
    ("stream.refit_cache_hits", "count"),
    ("stream.refit_io_s", "s"),
    ("obskit.trace_overhead", "ratio"),
    ("obskit.unattributed_share", "ratio"),
];

/// What one run was asked to do.
pub struct RunCtx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Private work directory, removed when the run ends.
    pub work: PathBuf,
}

/// Everything one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Correctness checks that failed; any entry fails the run.
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    /// `latency_ms`, `throughput`.
    e2e: Option<(f64, f64)>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines naming the workload's own metrics.
    pub human: Vec<String>,
    self_time: BTreeMap<String, f64>,
    self_wall_s: f64,
    trace_json: Option<String>,
    trace_overhead: Option<f64>,
    pub untraced_rounds: usize,
    pub traced_rounds: usize,
}

impl Report {
    /// Runs set-up once, timed, and returns its state. Call it before
    /// the timed phase and [`Report::setup_again`] after it, so the
    /// set-ups behind `setup_s` span the run rather than a few seconds
    /// of it.
    pub fn setup<S>(&mut self, once: &mut impl FnMut() -> S) -> S {
        let started = Instant::now();
        let state = once();
        self.setup_s.push(started.elapsed().as_secs_f64());
        state
    }

    /// Repeats set-up until it has run [`SETUP_REPS`] times and for
    /// [`SETUP_SECONDS`] in all, disposing of each state untimed.
    pub fn setup_again<S>(&mut self, once: &mut impl FnMut() -> S, mut teardown: impl FnMut(S)) {
        while self.setup_s.len() < SETUP_REPS || self.setup_s.iter().sum::<f64>() < SETUP_SECONDS {
            let state = self.setup(once);
            teardown(state);
        }
    }

    /// Folds one traced round's benchmark spans into the self-time table
    /// and keeps its Chrome trace.
    pub fn note_trace(&mut self, records: &[trace::Record], wall_s: f64, trace_json: String) {
        for (name, s) in trace::self_times(records, wall_s) {
            *self.self_time.entry(name).or_default() += s;
        }
        self.self_wall_s += wall_s;
        self.trace_json = Some(trace_json);
    }

    /// Records the workload's primary timing: a human line with its
    /// median, supported tail and sample count, and the tracing
    /// overhead when traced samples exist.
    pub fn primary(&mut self, name: &str, unit: &str, untraced: &[f64], traced: &[f64]) {
        self.untraced_rounds = untraced.len();
        self.traced_rounds = traced.len();
        let mut line = format!(
            "{name}: median {:.6} {unit}, n={}",
            stats::median(untraced),
            untraced.len()
        );
        match stats::supported_tail(untraced) {
            Some((p, v)) => {
                let _ = write!(line, ", p{p} {v:.6} {unit}");
            }
            None => {
                let _ = write!(line, ", max {:.6} {unit}", stats::percentile(untraced, 1.0));
            }
        }
        if !traced.is_empty() {
            let overhead = stats::median(traced) / stats::median(untraced) - 1.0;
            self.trace_overhead = Some(overhead);
            let _ = write!(
                line,
                "; traced median {:.6} {unit} (n={}, overhead {:+.2}%)",
                stats::median(traced),
                traced.len(),
                100.0 * overhead
            );
        }
        self.human.push(line);
        if untraced.len() < 100 {
            let samples: Vec<String> = untraced.iter().map(|v| format!("{v:.4}")).collect();
            self.human
                .push(format!("{name} samples: {}", samples.join(" ")));
        }
    }

    pub fn set_e2e(&mut self, latency_ms: f64, throughput: f64) {
        self.e2e = Some((latency_ms, throughput));
    }

    fn setup_median_s(&self) -> f64 {
        stats::median(&self.setup_s)
    }

    fn metrics(&self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        if traced {
            let mut layers = self.layers.clone();
            layers.insert("obskit.trace_overhead", self.trace_overhead.unwrap_or(0.0));
            layers.insert(
                "obskit.unattributed_share",
                self.self_time.get("unattributed").copied().unwrap_or(0.0)
                    / self.self_wall_s.max(1e-12),
            );
            LAYERS
                .iter()
                .map(|&(name, unit)| (name, unit, layers.get(name).copied().unwrap_or(0.0)))
                .collect()
        } else {
            let (latency, throughput) = self.e2e.unwrap_or_default();
            let values = [self.setup_median_s(), latency, throughput, self.peak_rss_mb];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| (name, unit, v))
                .collect()
        }
    }
}

/// Runs `round(traced)` until the run's seconds are spent: at least
/// [`MIN_ROUNDS`] times, alternating untraced and traced rounds when
/// tracing. Each traced round runs with the benchmark spans and obskit
/// armed from a clean buffer, and must read what it needs before it
/// returns.
pub fn rounds<T>(ctx: &RunCtx, mut round: impl FnMut(bool) -> T) -> Vec<T> {
    let budget = Duration::from_secs_f64(ctx.seconds);
    let min = if ctx.trace {
        2 * MIN_ROUNDS
    } else {
        MIN_ROUNDS
    };
    let started = Instant::now();
    let mut longest = Duration::ZERO;
    let mut out = Vec::new();
    loop {
        let traced = ctx.trace && out.len() % 2 == 1;
        trace::arm(traced);
        let round_started = Instant::now();
        out.push(round(traced));
        longest = longest.max(round_started.elapsed());
        trace::arm(false);
        if out.len() >= min && started.elapsed() + longest > budget {
            return out;
        }
    }
}

/// The median of each per-layer value over traced rounds.
pub fn median_layers(rounds: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut names: Vec<&'static str> = rounds.iter().flat_map(|r| r.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let values: Vec<f64> = rounds
                .iter()
                .map(|r| r.get(name).copied().unwrap_or(0.0))
                .collect();
            (name, stats::median(&values))
        })
        .collect()
}

pub fn obskit_counter(snap: &obskit::metrics::Snapshot, name: &str) -> f64 {
    snap.get(name).unwrap_or(0) as f64
}

pub fn obskit_hist_sum_s(snap: &obskit::metrics::Snapshot, name: &str) -> f64 {
    snap.hists
        .iter()
        .find(|h| h.name == name)
        .map_or(0.0, |h| h.sum as f64 / 1e9)
}

/// The M5' trainer and compiled-engine layers, from obskit counters
/// and the program's own `m5.fit` and `engine.*` spans.
pub fn engine_layers(
    obs: &obskit::metrics::Snapshot,
    spans: &BTreeMap<String, f64>,
) -> BTreeMap<&'static str, f64> {
    let span_s = |name: &str| spans.get(name).copied().unwrap_or(0.0);
    let rows = obskit_counter(obs, "engine.rows_predicted")
        + obskit_counter(obs, "engine.rows_classified");
    let batches = obskit_counter(obs, "engine.batches");
    BTreeMap::from([
        ("modeltree.fit_s", span_s("m5.fit")),
        ("modeltree.fits", obskit_counter(obs, "trainer.fits")),
        (
            "modeltree.split_evaluations",
            obskit_counter(obs, "trainer.split_evaluations"),
        ),
        (
            "modeltree.nodes_expanded",
            obskit_counter(obs, "trainer.nodes_expanded"),
        ),
        (
            "modeltree.predict_s",
            span_s("engine.predict_batch")
                + span_s("engine.predict_indices")
                + span_s("engine.classify_batch"),
        ),
        (
            "modeltree.rows_per_batch",
            if batches > 0.0 { rows / batches } else { 0.0 },
        ),
    ])
}

/// Empties `dir`, creating it if needed.
pub fn fresh_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create benchmark work directory");
}

/// Resets the process's peak resident set size to its current size.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size since the last [`reset_peak_rss`], MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run_workload(name: &str, ctx: &RunCtx) -> Report {
    fresh_dir(&ctx.work);
    let report = match name {
        "paper-cold" => paper::run(ctx, false),
        "paper-warm" => paper::run(ctx, true),
        "serve-open" => serve::run(ctx),
        "stream-fleet" => stream::run(ctx),
        _ => unreachable!("workload names are validated"),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    report
}

/// The host and revision every result record carries, so results are
/// only compared between matching hosts.
fn envelope(args: &Args, workload: &str, report: &Report) -> Value {
    json!({
        "git_rev": git_rev(),
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "cpu_model": cpu_model(),
        "l2": std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size")
            .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned()),
        "rustc": rustc_version(),
        "workload": workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "setup_repetitions": report.setup_s.len(),
        "setup_s": report.setup_s.clone(),
        "untraced_rounds": report.untraced_rounds,
        "traced_rounds": report.traced_rounds,
    })
}

/// The checkout's commit, or `none` outside a git repository.
fn git_rev() -> String {
    command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())
}

/// The trimmed stdout of a command that succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
}

fn print_report(name: &str, args: &Args, report: &Report, env: &Value) {
    println!(
        "== {name} (seed {}, {} s, trace {})",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "   host: {} x {} (L2 {}), {}; rev {}",
        env.get("nproc").and_then(Value::as_u64).unwrap_or(0),
        env.get("cpu_model").and_then(Value::as_str).unwrap_or("?"),
        env.get("l2").and_then(Value::as_str).unwrap_or("?"),
        env.get("rustc").and_then(Value::as_str).unwrap_or("?"),
        env.get("git_rev").and_then(Value::as_str).unwrap_or("?"),
    );
    println!(
        "   setup_s: median {:.6} s over {} set-ups",
        report.setup_median_s(),
        report.setup_s.len()
    );
    if !args.trace {
        println!("   peak_rss_mb: {:.3} MB", report.peak_rss_mb);
    }
    println!(
        "   fail_share: {:.6} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for line in &report.human {
        println!("   {line}");
    }
    for (metric, unit, value) in report.metrics(args.trace) {
        println!("   {metric:<32} {value:>18.6} {unit}");
    }
    if args.trace {
        println!(
            "   self time over {} traced rounds ({:.6} s wall):",
            report.traced_rounds, report.self_wall_s
        );
        let mut rows: Vec<_> = report.self_time.iter().collect();
        rows.sort_by(|a, b| {
            (a.0 == "unattributed")
                .cmp(&(b.0 == "unattributed"))
                .then(b.1.total_cmp(a.1))
        });
        let mut sum = 0.0;
        for (layer, s) in rows {
            sum += s;
            println!(
                "     {layer:<28} {s:>12.6} s {:>7.2}%",
                100.0 * s / report.self_wall_s.max(1e-12)
            );
        }
        println!("     {:<28} {sum:>12.6} s", "total");
    }
    for failure in &report.failures {
        println!("   CHECK FAILED: {failure}");
    }
}

/// Writes the run's record (envelope, metrics, self-time table) and
/// the Chrome trace of its last traced round.
fn write_record(name: &str, args: &Args, report: &Report, env: Value) {
    let dir = Path::new(OUT_DIR);
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let stem = format!("{name}-seed{}-trace{}", args.seed, u8::from(args.trace));
    let metrics: Vec<Value> = report
        .metrics(args.trace)
        .into_iter()
        .map(|(metric, unit, value)| json!({"name": metric, "unit": unit, "value": value}))
        .collect();
    let self_time: Vec<Value> = report
        .self_time
        .iter()
        .map(|(layer, s)| json!({"layer": layer.as_str(), "seconds": *s}))
        .collect();
    let record = json!({
        "envelope": env,
        "correct": report.failures.is_empty(),
        "failures": report.failures.clone(),
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
        "notes": report.human.clone(),
        "self_time": self_time,
        "self_time_wall_s": report.self_wall_s,
    });
    let _ = std::fs::write(
        dir.join(format!("{stem}.json")),
        serde_json::to_string_pretty(&record).unwrap_or_default() + "\n",
    );
    if let Some(trace_json) = &report.trace_json {
        let _ = std::fs::write(dir.join(format!("{stem}.trace.json")), trace_json);
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            obskit::export::json_string(name),
            obskit::export::json_string(unit)
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if !Path::new("results").is_dir() || !Path::new("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (results/ and crates/ not found)");
        std::process::exit(2);
    }
    // Stage logging would interleave with the report on stderr.
    std::env::set_var("SPECREPRO_OBS_LOG", "0");

    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut correct = true;
    let mut attempted = 0;
    let mut failed = 0;
    let mut metrics = Vec::new();
    for name in &names {
        let ctx = RunCtx {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            work: Path::new(OUT_DIR).join(format!("work-{}", std::process::id())),
        };
        let report = run_workload(name, &ctx);
        let env = envelope(&args, name, &report);
        print_report(name, &args, &report, &env);
        write_record(name, &args, &report, env);
        correct &= report.failures.is_empty();
        attempted += report.attempted;
        failed += report.failed;
        for (metric, unit, mut value) in report.metrics(args.trace) {
            if !value.is_finite() {
                correct = false;
                println!("   CHECK FAILED: {metric} is not finite");
                value = 0.0;
            }
            let key = if names.len() == 1 {
                metric.to_owned()
            } else {
                format!("{name}/{metric}")
            };
            metrics.push((key, unit, value));
        }
    }
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(doc: &Value, key: &str, field: &str) -> Vec<(String, String)> {
        let Some(Value::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_owned();
                (text("name"), text(field))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_benchmark_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value =
            serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
                .expect("BENCHMARK.json parses");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end", "unit"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer", "unit"), own(&LAYERS));
        for (name, _) in listed(&doc, "workloads", "name") {
            assert!(
                WORKLOADS.contains(&name.as_str()),
                "unknown workload {name}"
            );
        }
    }

    #[test]
    fn result_line_is_json() {
        let line = result_line(true, 3, 0, &[("latency_ms".into(), "ms", 1.25)]);
        let v: Value = serde_json::from_str(&line).expect("result line parses");
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(3));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("latency_ms"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("ms"));
    }
}
