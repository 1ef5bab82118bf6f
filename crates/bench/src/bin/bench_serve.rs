//! Tail-latency and throughput snapshot for the prediction server.
//!
//! Self-hosts the canonical CPU2006 model behind `serve::Server` twice
//! — once with the coalescing window **disabled** (`window = 0`, every
//! request runs as its own batch: the honest unbatched baseline) and
//! once with the production batching policy (200 µs window, 4096-row
//! batches) — and drives both with the crate's own load generator:
//!
//! * **Saturate** sweeps measure each configuration's sustained
//!   throughput ceiling under an identical drive (closed-loop,
//!   pipelined keep-alive connections).
//! * An **open-loop** run at a fixed 100k req/s arrival rate reports
//!   coordinated-omission-safe p50/p99 latency, measured from each
//!   request's *scheduled* arrival.
//!
//! The JSON snapshot records the acceptance criteria: batched
//! throughput ≥ 100k single-row predict req/s on the 1-vCPU bench
//! container, and the batched/unbatched throughput ratio. The
//! end-to-end ratio on this container is Amdahl-limited: the work
//! batching amortizes (engine dispatch, dataset assembly, batcher
//! wakeups — ~600ns/row unbatched vs ~95ns/row batched, per-row
//! averages from the `serve.*` metrics) is a minority of each
//! request's cost next to the shared HTTP parse/render path and the
//! load generator itself, all of which time-share the single core.
//! `benches/serve_kernel.rs` isolates the kernel-dispatch win
//! (3–4× at batch 1) where the shared path doesn't mask it.
//!
//! `cargo run --release -p spec-bench --bin bench_serve [output.json]`
//! (default output: `results/BENCH_serve.json`).
//!
//! `--smoke [--addr HOST:PORT] [--shutdown]` runs a small mixed
//! predict/classify burst instead — against `--addr` if given (waiting
//! for `/healthz` first), else against a self-hosted throwaway model —
//! asserting every request answers 2xx; `--shutdown` then POSTs
//! `/shutdown` and verifies the drain. CI's serve smoke job uses this
//! against a `specrepro serve` process.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use modeltree::{M5Config, ModelTree};
use pipeline::PipelineContext;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;
use serve::{CoalescerConfig, ModelRegistry, Server, ServerConfig};
use spec_bench::loadgen::{self, LoadgenConfig, LoadgenReport, Mode};
use spec_bench::{cpu2006_artifacts, N_SAMPLES, SEED_CPU2006};
use workloads::generator::{GeneratorConfig, Suite};

const WINDOW_US: u64 = 200;
const MAX_BATCH_ROWS: usize = 4096;

fn start_server(tree: &ModelTree, window_us: u64) -> Server {
    let registry = Arc::new(ModelRegistry::new());
    registry.register_tree("cpu2006", tree);
    Server::start(
        registry,
        ServerConfig {
            coalescer: CoalescerConfig {
                window: Duration::from_micros(window_us),
                max_batch_rows: MAX_BATCH_ROWS,
                queue_rows: 1 << 20,
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral serve port")
}

fn drive(
    addr: &str,
    rows: &[Vec<f64>],
    total: usize,
    connections: usize,
    mode: Mode,
) -> LoadgenReport {
    let report = loadgen::run(
        &LoadgenConfig {
            addr: addr.to_string(),
            connections,
            total_requests: total,
            classify_fraction: 0.0,
            mode,
        },
        rows,
    )
    .expect("load generator runs");
    assert_eq!(
        report.failed, 0,
        "bench traffic must not fail requests: {report:?}"
    );
    report
}

fn report_json(tag: &str, r: &LoadgenReport) -> serde_json::Value {
    json!({
        "mode": tag,
        "requests": r.sent,
        "ok": r.ok,
        "rejected_429": r.rejected,
        "elapsed_secs": r.elapsed.as_secs_f64(),
        "throughput_rps": r.throughput.round(),
        "p50_us": r.p50_us,
        "p99_us": r.p99_us,
        "max_us": r.max_us,
    })
}

/// One raw HTTP exchange on a fresh connection; returns the status.
fn raw_exchange(addr: &str, request: &[u8]) -> std::io::Result<u16> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(request)?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
        if buf.windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    head.split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad response: {head:.80}")))
}

/// Probe rows for request payloads: a stride through the dataset so
/// consecutive requests exercise different leaves.
fn payload_rows(data: &perfcounters::Dataset, n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| data.sample((i * 7) % data.len()).densities().to_vec())
        .collect()
}

fn smoke(args: &[String]) {
    let mut addr = None;
    let mut shutdown = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => {}
            "--addr" => addr = Some(iter.next().expect("--addr needs HOST:PORT").clone()),
            "--shutdown" => shutdown = true,
            other => panic!("unknown smoke flag {other:?}"),
        }
    }

    // A throwaway workload supplies payloads either way; the target
    // server's own model shapes the predictions, not this dataset.
    let mut rng = StdRng::seed_from_u64(7);
    let data = Suite::cpu2006().generate(&mut rng, 4000, &GeneratorConfig::default());
    let rows = payload_rows(&data, 64);

    let hosted;
    let addr = match addr {
        Some(addr) => {
            // Wait for the external server to answer /healthz.
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                match raw_exchange(&addr, b"GET /healthz HTTP/1.1\r\n\r\n") {
                    Ok(200) => break,
                    _ if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(100));
                    }
                    other => panic!("server at {addr} never became healthy: {other:?}"),
                }
            }
            addr
        }
        None => {
            let tree = ModelTree::fit(&data, &M5Config::default()).expect("fit smoke model");
            hosted = start_server(&tree, WINDOW_US);
            hosted.addr().to_string()
        }
    };

    let total = 2000;
    let report = loadgen::run(
        &LoadgenConfig {
            addr: addr.clone(),
            connections: 2,
            total_requests: total,
            classify_fraction: 0.25,
            mode: Mode::Saturate { inflight: 16 },
        },
        &rows,
    )
    .expect("smoke load runs");
    assert_eq!(
        report.ok, total,
        "smoke: every request must answer 2xx: {report:?}"
    );
    println!(
        "serve smoke ok: {} mixed predict/classify requests, all 2xx, {:.0} req/s, p99 {:.0} us",
        report.ok, report.throughput, report.p99_us
    );
    if shutdown {
        let status = raw_exchange(
            &addr,
            b"POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
        )
        .expect("shutdown exchange");
        assert_eq!(status, 200, "shutdown must be acknowledged");
        println!("serve smoke: shutdown acknowledged");
    }
}

fn main() {
    // SPECREPRO_TRACE_OUT / SPECREPRO_METRICS_OUT capture this run's telemetry.
    let _obs = obskit::ObsSession::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke(&args);
        return;
    }
    let path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "results/BENCH_serve.json".into());

    let ctx = PipelineContext::from_env();
    let (data, tree) = cpu2006_artifacts(&ctx);
    let rows = payload_rows(&data, 512);

    // Both saturate runs use an identical drive: 4 pipelined keep-alive
    // connections, 128 requests in flight each.
    let (conns, inflight) = (4, 128);

    // Unbatched baseline: window = 0, every request is its own batch.
    obskit::set_enabled(true, false);
    let before = obskit::metrics::snapshot();
    let server = start_server(&tree, 0);
    let unbatched = drive(
        &server.addr().to_string(),
        &rows,
        100_000,
        conns,
        Mode::Saturate { inflight },
    );
    server.shutdown();
    let after = obskit::metrics::snapshot();
    let unbatched_batches =
        after.get("serve.batches").unwrap_or(0) - before.get("serve.batches").unwrap_or(0);

    // Production batching policy: saturation ceiling, then open-loop
    // tail latency at the 100k req/s acceptance rate.
    let mid = obskit::metrics::snapshot();
    let server = start_server(&tree, WINDOW_US);
    let addr = server.addr().to_string();
    let batched = drive(&addr, &rows, 200_000, conns, Mode::Saturate { inflight });
    let batched_metrics = obskit::metrics::snapshot();
    let batched_batches =
        batched_metrics.get("serve.batches").unwrap_or(0) - mid.get("serve.batches").unwrap_or(0);
    let batched_rows = (batched_metrics.get("serve.rows_predicted").unwrap_or(0)
        - mid.get("serve.rows_predicted").unwrap_or(0)) as f64;
    let open_loop = drive(&addr, &rows, 150_000, 2, Mode::OpenLoop { rate: 100_000.0 });
    server.shutdown();

    let speedup = batched.throughput / unbatched.throughput.max(1e-9);
    let avg_batch_rows = batched_rows / batched_batches.max(1) as f64;
    let report = json!({
        "experiment": "prediction server throughput and tail latency (batched vs unbatched)",
        "dataset": { "suite": "cpu2006", "seed": SEED_CPU2006, "n_samples": N_SAMPLES },
        "tree": { "n_leaves": tree.n_leaves(), "n_nodes": tree.n_nodes() },
        "server": {
            "window_us": WINDOW_US,
            "max_batch_rows": MAX_BATCH_ROWS,
            "request": "single-row POST /predict, text body, keep-alive",
        },
        "drive": {
            "connections": conns,
            "inflight_per_connection": inflight,
            "note": "identical closed-loop drive for both configurations; loadgen shares the single vCPU with the server",
        },
        "unbatched_saturate": report_json("saturate window=0", &unbatched),
        "batched_saturate": report_json("saturate window=200us", &batched),
        "open_loop_100k": report_json("open-loop 100k req/s", &open_loop),
        "coalescing": {
            "unbatched_engine_calls": unbatched_batches,
            "batched_engine_calls": batched_batches,
            "batched_avg_rows_per_engine_call": avg_batch_rows,
        },
        "acceptance": {
            "batched_throughput_rps": batched.throughput.round(),
            "meets_100k_rps": batched.throughput >= 100_000.0,
            "batching_speedup": speedup,
            "meets_3x_over_unbatched": speedup >= 3.0,
            "note": "End-to-end speedup is Amdahl-limited on one vCPU: HTTP parse/render and the in-process load generator (~3.4us/request) are shared by both configurations and dwarf the batch-amortizable engine path (~600ns/row unbatched vs ~95ns/row batched). The engine-call count above shows the coalescer doing its job; benches/serve_kernel.rs isolates the per-call dispatch win (3-4x at batch=1).",
        },
    });
    let body = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&path, body + "\n").expect("write snapshot");

    println!(
        "unbatched (window=0)   {:>10.0} req/s  p99 {:>8.0} us",
        unbatched.throughput, unbatched.p99_us
    );
    println!(
        "batched   (200us/4096) {:>10.0} req/s  p99 {:>8.0} us  ({speedup:.1}x unbatched)",
        batched.throughput, batched.p99_us
    );
    println!(
        "open loop @100k req/s  {:>10.0} req/s  p50 {:>6.0} us  p99 {:>8.0} us",
        open_loop.throughput, open_loop.p50_us, open_loop.p99_us
    );
    println!("wrote {path}");
}
