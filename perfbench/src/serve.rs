//! `serve-open`: single-row users against a self-hosted
//! `serve::Server` running the canonical CPU2006 tree, three
//! `/predict` to one `/classify`.
//!
//! The timed phase alternates two kinds of quarter-second rounds. A
//! base-rate round is an open loop of independent users on one
//! keep-alive connection: each request is due at a fixed time on the
//! arrival schedule whether or not earlier ones were answered, and its
//! latency runs from that due time, so a stall is charged to every
//! request it delays. The client records how late it actually sent
//! each request; 429s, other non-2xx answers and transport errors count
//! as failures. A saturation round is a closed loop on one keep-alive
//! connection that keeps both vCPUs busy. Alternating them gives both
//! measures the same share of the host's slow and fast moments, and
//! the quartiles over rounds ignore stalled rounds. A search of an
//! open-loop rate ladder follows for `serve_max_rps`.
//!
//! This workload is not in `BENCHMARK.json`. Each request crosses
//! between the client, handler and batcher threads, and each crossing
//! waits for a vCPU, so when other tenants load the host its figures
//! move far more than the single-threaded work of the other workloads.
//! It runs by name and under `--workload all`.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use modeltree::CompiledTree;
use perfcounters::events::N_EVENTS;
use perfcounters::Dataset;
use pipeline::{
    suite_tree_config, ArtifactStore, DatasetSpec, PipelineContext, TreeSpec, SEED_CPU2006,
};
use serve::{ModelRegistry, Server, ServerConfig};

use crate::trace::{self, span};
use crate::{fresh_dir, stats, Report, RunCtx, THREADS};

/// The p99 latency limit a ladder rung must meet, microseconds.
const P99_LIMIT_US: f64 = 20_000.0;
/// Arrival rate of the base phase, requests per second.
const BASE_RATE: f64 = 20_000.0;
/// The fixed ladder of rates: `LADDER_START × LADDER_RATIO^k`.
const LADDER_START: f64 = 20_000.0;
const LADDER_RATIO: f64 = 1.05;
const LADDER_STEPS: u32 = 60;
/// The climb starts at rung 28 (about 79k req/s) and strides four rungs
/// (about ×1.22) at a time.
const LADDER_FIRST: u32 = 28;
const LADDER_STRIDE: u32 = 4;
/// Share of the run's seconds spent alternating base-rate and
/// saturation rounds, the length of one round, and the share spent on
/// each ladder rung.
const ROUNDS_SHARE: f64 = 0.7;
const ROUND_SECS: f64 = 0.25;
const STEP_SHARE: f64 = 0.04;
/// Requests a saturation round keeps in flight on its one keep-alive
/// connection. Two connections made the rate flip between two levels
/// from round to round, as their batches fell in or out of step with
/// the coalescer's window; with fewer in flight, that window's timer
/// rather than the work set the rate.
const SATURATE_DEPTH: usize = 1_024;
/// Distinct payload rows cycled through by the load.
const PAYLOAD_ROWS: usize = 1_024;
/// Rows whose served answers are compared with the offline engine.
const PROBE_ROWS: usize = 256;
/// Every fourth request classifies; the rest predict.
const CLASSIFY_EVERY: usize = 4;

/// What one open-loop phase measured.
#[derive(Default)]
struct Load {
    sent: u64,
    ok: u64,
    rejected: u64,
    errors: u64,
    /// 2xx latencies from the scheduled send, microseconds.
    latencies_us: Vec<f64>,
    /// Latencies of the last tenth of the requests.
    last_tenth_us: Vec<f64>,
    /// How late the client sent each request, microseconds.
    late_us: Vec<f64>,
}

impl Load {
    fn failed(&self) -> u64 {
        self.rejected + self.errors
    }

    /// Pools another round's requests into this one.
    fn absorb(&mut self, other: Load) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.rejected += other.rejected;
        self.errors += other.errors;
        self.latencies_us.extend(other.latencies_us);
        self.last_tenth_us.extend(other.last_tenth_us);
        self.late_us.extend(other.late_us);
    }

    /// Latency percentile, counting every failed request as missing
    /// any limit.
    fn p(&self, q: f64) -> f64 {
        if self.failed() as f64 > (1.0 - q) * self.sent as f64 {
            return f64::INFINITY;
        }
        stats::percentile(
            &self.latencies_us,
            q * self.sent as f64 / self.ok.max(1) as f64,
        )
    }
}

fn render_request(path: &str, row: &[f64]) -> Vec<u8> {
    let mut body = String::with_capacity(N_EVENTS * 20);
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(body, "{v}");
    }
    body.push('\n');
    format!(
        "POST {path} HTTP/1.1\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Splits complete HTTP/1.1 responses off a byte stream that may be
/// cut anywhere.
#[derive(Default)]
struct Responses {
    buf: Vec<u8>,
}

impl Responses {
    /// Appends `bytes` and calls `on(status, body)` per complete
    /// response. Errors on a malformed response head.
    fn feed(&mut self, bytes: &[u8], mut on: impl FnMut(u16, &[u8])) -> Result<(), String> {
        self.buf.extend_from_slice(bytes);
        let mut used = 0;
        let result = loop {
            let rest = &self.buf[used..];
            let Some(head_len) = rest.windows(4).position(|w| w == b"\r\n\r\n") else {
                break Ok(());
            };
            let head = String::from_utf8_lossy(&rest[..head_len]);
            let Some(status) = head.split(' ').nth(1).and_then(|s| s.parse::<u16>().ok()) else {
                break Err(format!("bad status line: {head:.60}"));
            };
            let length = head
                .split("\r\n")
                .filter_map(|l| l.split_once(':'))
                .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
                .map_or(Ok(0), |(_, v)| v.trim().parse::<usize>());
            let Ok(length) = length else {
                break Err("bad Content-Length".into());
            };
            let body_start = head_len + 4;
            if rest.len() < body_start + length {
                break Ok(());
            }
            on(status, &rest[body_start..body_start + length]);
            used += body_start + length;
        };
        self.buf.drain(..used);
        result
    }
}

/// Drives `rate` requests per second for `secs` on one keep-alive
/// connection: a writer thread sends request `i` at `start + i / rate`
/// (late sends go out together), and this thread reads the answers,
/// which arrive in request order.
fn open_loop(addr: SocketAddr, blobs: &[Vec<u8>], rate: f64, secs: f64) -> Load {
    let n = ((rate * secs).round() as usize).max(1);
    let start = Instant::now() + Duration::from_millis(2);
    let due = move |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut load = Load {
        sent: n as u64,
        ok: 0,
        rejected: 0,
        errors: 0,
        latencies_us: Vec::with_capacity(n),
        last_tenth_us: Vec::new(),
        late_us: Vec::with_capacity(n),
    };
    let connected = TcpStream::connect(addr).and_then(|stream| {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let reader = stream.try_clone()?;
        Ok((stream, reader))
    });
    let Ok((mut stream, mut reader)) = connected else {
        load.errors = n as u64;
        return load;
    };
    let late_us = &mut load.late_us;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut buf = Vec::with_capacity(64 * 1024);
            let mut i = 0;
            while i < n {
                let now = Instant::now();
                if due(i) > now {
                    std::thread::sleep(due(i) - now);
                    continue;
                }
                buf.clear();
                while i < n && due(i) <= now {
                    buf.extend_from_slice(&blobs[i % blobs.len()]);
                    late_us.push((now - due(i)).as_secs_f64() * 1e6);
                    i += 1;
                }
                if stream.write_all(&buf).is_err() {
                    // Wake the reader; the unanswered rest counts as
                    // transport errors.
                    let _ = stream.shutdown(Shutdown::Both);
                    break;
                }
            }
        });
        let mut responses = Responses::default();
        let mut chunk = vec![0u8; 64 * 1024];
        let mut got = 0usize;
        while got < n {
            let m = match reader.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(m) => m,
            };
            let now = Instant::now();
            let fed = responses.feed(&chunk[..m], |status, _| {
                let latency_us = now.saturating_duration_since(due(got)).as_secs_f64() * 1e6;
                match status {
                    200..=299 => {
                        load.ok += 1;
                        load.latencies_us.push(latency_us);
                        if got * 10 >= n * 9 {
                            load.last_tenth_us.push(latency_us);
                        }
                    }
                    429 => load.rejected += 1,
                    _ => load.errors += 1,
                }
                got += 1;
            });
            if fed.is_err() {
                break;
            }
        }
        load.errors += (n - got.min(n)) as u64;
    });
    load
}

/// A closed loop on one connection: keeps [`SATURATE_DEPTH`] requests
/// pipelined for `secs`, sending one more for each answer. Returns the
/// 2xx answers, the failed requests and the seconds until the last
/// answer arrived.
fn saturate(addr: SocketAddr, blobs: &[Vec<u8>], secs: f64) -> (u64, u64, f64) {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(secs);
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return (0, 1, secs);
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut responses = Responses::default();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut buf = Vec::with_capacity(64 * 1024);
    let (mut ok, mut failed, mut next, mut in_flight) = (0u64, 0u64, 0usize, 0usize);
    loop {
        buf.clear();
        while Instant::now() < deadline && in_flight < SATURATE_DEPTH {
            buf.extend_from_slice(&blobs[next % blobs.len()]);
            next += 1;
            in_flight += 1;
        }
        if in_flight == 0 {
            break;
        }
        if stream.write_all(&buf).is_err() {
            failed += in_flight as u64;
            break;
        }
        let m = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => {
                failed += in_flight as u64;
                break;
            }
            Ok(m) => m,
        };
        let fed = responses.feed(&chunk[..m], |status, _| {
            in_flight -= 1;
            if (200..300).contains(&status) {
                ok += 1;
            } else {
                failed += 1;
            }
        });
        if fed.is_err() {
            failed += in_flight as u64;
            break;
        }
    }
    (ok, failed, started.elapsed().as_secs_f64())
}

/// The served model, its address, and the pre-rendered traffic.
struct Hosted {
    server: Server,
    blobs: Vec<Vec<u8>>,
    probe_requests: Vec<u8>,
    probe_expected: Vec<String>,
}

/// Serves the canonical CPU2006 tree, whatever the workload seed; the
/// seed picks the traffic and the probe rows.
fn host(ctx: &RunCtx, store: &std::path::Path) -> Hosted {
    let at = |canonical: u64| canonical.wrapping_add(ctx.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let spec = DatasetSpec::cpu2006();
    let pctx = PipelineContext::with_store(ArtifactStore::open(store)).with_gen_threads(THREADS);
    let config = suite_tree_config(spec.n_samples).with_n_threads(THREADS);
    let tree = pctx
        .tree(&TreeSpec::new(spec, config))
        .expect("canonical tree fits");
    let registry = Arc::new(ModelRegistry::new());
    registry.register_tree("cpu2006", &tree);
    let server = Server::start(registry, ServerConfig::default()).expect("bind loopback port");

    let traffic = |n: usize, salt: u64| -> Dataset {
        DatasetSpec::cpu2006()
            .with_samples(n)
            .with_seed(at(SEED_CPU2006) ^ salt)
            .compute(1)
            .expect("payload rows generate")
    };
    let payload = traffic(PAYLOAD_ROWS, 0x5e7e);
    let blobs = (0..PAYLOAD_ROWS)
        .map(|i| {
            let path = if i % CLASSIFY_EVERY == CLASSIFY_EVERY - 1 {
                "/classify"
            } else {
                "/predict"
            };
            render_request(path, payload.sample(i).densities())
        })
        .collect();

    let probe = traffic(PROBE_ROWS, 0x9b0e);
    let engine: CompiledTree = tree.compile();
    let mut probe_requests = Vec::new();
    let mut probe_expected = Vec::new();
    for (i, v) in engine.predict_batch(&probe).into_iter().enumerate() {
        probe_requests.extend(render_request("/predict", probe.sample(i).densities()));
        probe_expected.push(format!("{v}\n"));
    }
    for (i, c) in engine.classify_batch(&probe).into_iter().enumerate() {
        probe_requests.extend(render_request("/classify", probe.sample(i).densities()));
        probe_expected.push(format!("{c}\n"));
    }
    Hosted {
        server,
        blobs,
        probe_requests,
        probe_expected,
    }
}

/// Sends the probe set pipelined on one connection and compares every
/// served body with the offline engine's bytes.
fn probe(hosted: &Hosted) -> Result<(), String> {
    let mut stream = TcpStream::connect(hosted.server.addr()).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(&hosted.probe_requests)
        .map_err(|e| e.to_string())?;
    let mut responses = Responses::default();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut got = 0;
    let mut mismatches = 0;
    while got < hosted.probe_expected.len() {
        let m = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if m == 0 {
            break;
        }
        responses.feed(&chunk[..m], |status, body| {
            if status != 200 || body != hosted.probe_expected[got].as_bytes() {
                mismatches += 1;
            }
            got += 1;
        })?;
    }
    if got != hosted.probe_expected.len() || mismatches > 0 {
        return Err(format!(
            "{mismatches} of {} probe answers differ from the offline engine ({got} answered)",
            hosted.probe_expected.len()
        ));
    }
    Ok(())
}

pub fn run(ctx: &RunCtx) -> Report {
    let mut report = Report::default();
    let store = ctx.work.join("store");
    // Set-up: resolve the canonical tree into a fresh store, compile
    // and serve it, render the traffic, and answer one warm-up burst.
    let mut set_up = || {
        fresh_dir(&store);
        let h = host(ctx, &store);
        open_loop(h.server.addr(), &h.blobs, BASE_RATE, 0.1);
        h
    };
    let hosted = report.setup(&mut set_up);
    let addr = hosted.server.addr();
    report.attempted += hosted.probe_expected.len() as u64;
    if let Err(e) = probe(&hosted) {
        report.failed += hosted.probe_expected.len() as u64;
        report.failures.push(format!("served predictions: {e}"));
    }
    crate::reset_peak_rss();

    if ctx.trace {
        traced_run(ctx, &mut report, &hosted);
        hosted.server.shutdown();
        report.setup_again(&mut set_up, |h| h.server.shutdown());
        return report;
    }

    // Alternate base-rate and saturation rounds.
    let mut base = Load::default();
    let mut p50s = Vec::new();
    let mut saturated = Vec::new();
    let started = Instant::now();
    while p50s.len() < 3 || started.elapsed().as_secs_f64() < ROUNDS_SHARE * ctx.seconds {
        let round = open_loop(addr, &hosted.blobs, BASE_RATE, ROUND_SECS);
        p50s.push(round.p(0.5));
        base.absorb(round);
        let (ok, failed, secs) = saturate(addr, &hosted.blobs, ROUND_SECS);
        saturated.push(ok as f64 / secs);
        report.attempted += ok + failed;
        report.failed += failed;
        if failed > 0 {
            report.failures.push(format!(
                "saturation: {failed} of {} requests failed",
                ok + failed
            ));
        }
    }
    // The ladder probes past capacity on purpose; memory is reported
    // for the rounds, whose load is the same on every run.
    report.peak_rss_mb = crate::peak_rss_mb();
    let max_rps = max_rps(addr, &hosted.blobs, STEP_SHARE * ctx.seconds, &mut report);
    hosted.server.shutdown();
    report.setup_again(&mut set_up, |h| h.server.shutdown());

    report.attempted += base.sent;
    report.failed += base.failed();
    if base.failed() > 0 {
        report.failures.push(format!(
            "base rate: {} of {} requests failed ({} rejected with 429)",
            base.failed(),
            base.sent,
            base.rejected
        ));
    }
    // Other tenants of the host only ever slow a round down, so the
    // gated figures are the quartile of the rounds on the fast side:
    // the lower quartile of the rounds' p50s, the upper quartile of
    // their rates.
    let p50 = stats::percentile(&p50s, 0.25);
    let saturated_rps = stats::percentile(&saturated, 0.75);
    report.untraced_rounds = p50s.len();
    report.human.push(format!(
        "serve_p50_us: {p50:.3} us (lower quartile of {} rounds), serve_p90_us: {:.3} us, \
         serve_p99_us: {:.3} us at {BASE_RATE} req/s from scheduled send \
         (n={}, client late p99 {:.1} us)",
        p50s.len(),
        base.p(0.9),
        base.p(0.99),
        base.ok,
        stats::percentile(&base.late_us, 0.99),
    ));
    report.human.push(format!(
        "serve_saturated_rps: {saturated_rps:.1} req/s (upper quartile of {} rounds, \
         {SATURATE_DEPTH} in flight on one connection)",
        saturated.len()
    ));
    for (name, values) in [("serve_p50_us", &p50s), ("serve_saturated_rps", &saturated)] {
        let samples: Vec<String> = values.iter().map(|v| format!("{v:.0}")).collect();
        report
            .human
            .push(format!("{name} samples: {}", samples.join(" ")));
    }
    report.human.push(format!(
        "serve_max_rps: {max_rps:.1} req/s (p99 limit {P99_LIMIT_US} us, \
         ladder {LADDER_START} x {LADDER_RATIO}^k)"
    ));
    report.set_e2e(p50 / 1e3, saturated_rps);
    report
}

/// The highest ladder rate that meets the latency limit, each rung an
/// open loop of `step_secs`. Climbs `LADDER_STRIDE` rungs at a time
/// from `LADDER_FIRST` to the first failing rung, then bisects below
/// it, taking pass/fail as monotone in the rate. Striding keeps every
/// probe within one stride of the knee, so no probe floods the server
/// far past capacity.
fn max_rps(addr: SocketAddr, blobs: &[Vec<u8>], step_secs: f64, report: &mut Report) -> f64 {
    let rate_of = |k: u32| LADDER_START * LADDER_RATIO.powi(k as i32);
    let mut rungs = String::from("ladder:");
    let mut passes = |k: u32| -> bool {
        let load = open_loop(addr, blobs, rate_of(k), step_secs);
        let median_last = stats::median(&load.last_tenth_us);
        let pass =
            load.failed() == 0 && load.p(0.99) <= P99_LIMIT_US && median_last <= P99_LIMIT_US;
        let _ = write!(
            rungs,
            " {:.0}/s p99 {:.0} us{}",
            rate_of(k),
            load.p(0.99),
            if pass { "" } else { " FAIL" }
        );
        pass
    };
    let mut passed: Option<u32> = None;
    let mut high = LADDER_STEPS;
    let mut k = LADDER_FIRST;
    while k < LADDER_STEPS {
        if !passes(k) {
            high = k;
            break;
        }
        passed = Some(k);
        k += LADDER_STRIDE;
    }
    let mut low = passed.map_or(0, |p| p + 1);
    while low < high {
        let mid = (low + high) / 2;
        if passes(mid) {
            passed = Some(mid);
            low = mid + 1;
        } else {
            high = mid;
        }
    }
    report.human.push(rungs);
    passed.map_or(0.0, rate_of)
}

/// The traced run: a base-rate phase untraced, then one traced with
/// the benchmark's span around it and obskit armed, from which the
/// serve and engine layers are read.
fn traced_run(ctx: &RunCtx, report: &mut Report, hosted: &Hosted) {
    let addr = hosted.server.addr();
    let secs = 0.5 * ctx.seconds;
    let base = open_loop(addr, &hosted.blobs, BASE_RATE, secs);
    serve::set_trace_sample(16);
    trace::arm(true);
    let started = Instant::now();
    let load = span("serve.open_loop", || {
        open_loop(addr, &hosted.blobs, BASE_RATE, secs)
    });
    let wall_s = started.elapsed().as_secs_f64();
    let records = trace::records();
    let trace_json = obskit::export::trace_json();
    let spans = trace::program_span_totals(&trace_json);
    let obs = obskit::metrics::snapshot();
    let counter = crate::obskit_counter;
    trace::arm(false);
    report.note_trace(&records, wall_s, trace_json);
    let hist = obs.hists.iter().find(|h| h.name == "serve.request_ns");
    let server_p50_us = hist.map_or(0.0, |h| stats::hist_quantile(&h.buckets, 0.5) / 1e3);
    let batches = counter(&obs, "serve.batches");
    let rows = counter(&obs, "serve.rows_predicted") + counter(&obs, "serve.rows_classified");
    let mut m = crate::engine_layers(&obs, &spans);
    m.extend([
        ("serve.requests", counter(&obs, "serve.requests")),
        ("serve.batches", batches),
        (
            "serve.rows_per_batch",
            if batches > 0.0 { rows / batches } else { 0.0 },
        ),
        ("serve.server_p50_us", server_p50_us),
        ("serve.outside_server_us", load.p(0.5) - server_p50_us),
        ("serve.rejected_429", load.rejected as f64),
        ("serve.bad_requests", counter(&obs, "serve.bad_requests")),
        (
            "serve.client_late_p99_us",
            stats::percentile(&load.late_us, 0.99),
        ),
    ]);
    report.layers = m;
    for l in [&base, &load] {
        report.attempted += l.sent;
        report.failed += l.failed();
        if l.failed() > 0 {
            report.failures.push(format!(
                "base rate: {} of {} requests failed ({} rejected with 429)",
                l.failed(),
                l.sent,
                l.rejected
            ));
        }
    }
    report.primary("serve_p50_us", "us", &[base.p(0.5)], &[load.p(0.5)]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_survive_any_split() {
        let stream = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbody\
                       HTTP/1.1 429 Too Many Requests\r\nContent-Length: 0\r\n\r\n\
                       HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok";
        for split in 0..stream.len() {
            let mut r = Responses::default();
            let mut seen = Vec::new();
            r.feed(&stream[..split], |s, b| seen.push((s, b.to_vec())))
                .unwrap();
            r.feed(&stream[split..], |s, b| seen.push((s, b.to_vec())))
                .unwrap();
            assert_eq!(
                seen,
                vec![
                    (200, b"body".to_vec()),
                    (429, Vec::new()),
                    (200, b"ok".to_vec())
                ],
                "split at {split}"
            );
        }
    }
}
