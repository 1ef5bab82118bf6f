//! End-to-end verification of the prediction server (`crates/serve`).
//!
//! The serving determinism contract: a prediction fetched over HTTP is
//! **byte-identical** to the offline `predict_batch` result for the
//! same model and row — across text and JSON bodies, across batch
//! compositions chosen by the coalescer, and across concurrent hot
//! swaps (a request is served entirely by the model version it captured
//! at submit; the `X-Model-Version` header pins which one that was).
//! Plus the failure-path hardening: bounded-queue backpressure answers
//! 429 and recovers, and no malformed byte stream kills a worker.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use modeltree::{M5Config, ModelTree};
use perfcounters::events::N_EVENTS;
use perfcounters::{Dataset, EventId, Sample};
use pipeline::{ArtifactStore, Fingerprint};
use serve::{CoalescerConfig, ModelRegistry, Server, ServerConfig};
use spec_bench::loadgen::{self, LoadgenConfig, Mode};

/// A two-regime synthetic workload; `flip` swaps the regimes so the two
/// fitted trees are materially different models.
fn synth_dataset(n: usize, flip: bool) -> Dataset {
    let mut ds = Dataset::new();
    let b = ds.add_benchmark("synth");
    for i in 0..n {
        let phase = (i % 97) as f64 / 97.0;
        let dtlb = 4e-4 * phase;
        let load = 0.05 + 0.4 * ((i % 31) as f64 / 31.0);
        let l2 = 1e-3 * ((i % 13) as f64 / 13.0);
        let slow = (dtlb > 2e-4) ^ flip;
        let cpi = if slow {
            1.1 + 900.0 * l2 + 0.2 * load
        } else {
            0.5 + 400.0 * dtlb + 1.5 * load
        };
        let mut s = Sample::zeros(cpi);
        s.set(EventId::DtlbMiss, dtlb);
        s.set(EventId::Load, load);
        s.set(EventId::L2Miss, l2);
        ds.push(s, b);
    }
    ds
}

fn fit(ds: &Dataset) -> ModelTree {
    ModelTree::fit(ds, &M5Config::default()).expect("fit succeeds")
}

/// One HTTP exchange on a fresh connection.
fn exchange(addr: &str, raw: &[u8]) -> (u16, HashMap<String, String>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw).expect("write request");
    read_responses(&mut stream, 1).remove(0)
}

/// Reads `n` pipelined responses off one connection.
fn read_responses(
    stream: &mut TcpStream,
    n: usize,
) -> Vec<(u16, HashMap<String, String>, Vec<u8>)> {
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set timeout");
    let mut buf = Vec::new();
    let mut out = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    while out.len() < n {
        loop {
            if let Some((response, used)) = try_parse_response(&buf) {
                buf.drain(..used);
                out.push(response);
                if out.len() == n {
                    break;
                }
                continue;
            }
            match stream.read(&mut chunk) {
                Ok(0) => panic!("peer closed after {} of {n} responses", out.len()),
                Ok(read) => buf.extend_from_slice(&chunk[..read]),
                Err(e) => panic!("read failed after {} of {n} responses: {e}", out.len()),
            }
        }
    }
    out
}

#[allow(clippy::type_complexity)]
fn try_parse_response(buf: &[u8]) -> Option<((u16, HashMap<String, String>, Vec<u8>), usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end - 4]).expect("UTF-8 head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let mut headers = HashMap::new();
    for line in head.split("\r\n").skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.to_ascii_lowercase(), value.trim().to_string());
        }
    }
    let length: usize = headers
        .get("content-length")
        .and_then(|v| v.parse().ok())
        .expect("content-length");
    let total = head_end + length;
    if buf.len() < total {
        return None;
    }
    Some(((status, headers, buf[head_end..total].to_vec()), total))
}

fn post(path: &str, headers: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n{headers}\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn dense_line(row: &[f64]) -> String {
    row.iter()
        .map(|v| format!("{v}"))
        .collect::<Vec<_>>()
        .join(",")
}

#[test]
fn served_predictions_byte_identical_to_offline() {
    let ds = synth_dataset(600, false);
    let tree = fit(&ds);
    let offline_pred = tree.compile().predict_batch(&ds);
    let offline_cls = tree.compile().classify_batch(&ds);

    let registry = Arc::new(ModelRegistry::new());
    registry.register_tree("cpu2006", &tree);
    let server = Server::start(Arc::clone(&registry), ServerConfig::default()).expect("start");
    let addr = server.addr().to_string();

    // Text-mode predict, several pipelined multi-row requests on one
    // connection (exercising the coalescer's grouping + scatter).
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut raw = Vec::new();
    let per_request = 37; // deliberately not a divisor of 600
    let mut expected_chunks = Vec::new();
    for (start, chunk) in offline_pred
        .chunks(per_request)
        .enumerate()
        .map(|(i, c)| (i * per_request, c))
    {
        let body: String = (start..start + chunk.len())
            .map(|i| {
                let mut line = dense_line(ds.sample(i).densities());
                line.push('\n');
                line
            })
            .collect();
        raw.extend_from_slice(&post("/predict", "Content-Type: text/plain\r\n", &body));
        expected_chunks.push(chunk);
    }
    stream.write_all(&raw).expect("write pipelined requests");
    let responses = read_responses(&mut stream, expected_chunks.len());
    for (response, expect) in responses.iter().zip(&expected_chunks) {
        let (status, headers, body) = response;
        assert_eq!(*status, 200);
        assert!(headers.contains_key("x-model-version"));
        let got: Vec<f64> = std::str::from_utf8(body)
            .unwrap()
            .lines()
            .map(|l| l.parse().unwrap())
            .collect();
        assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(expect.iter()) {
            assert_eq!(g.to_bits(), e.to_bits(), "served f64 differs from offline");
        }
    }

    // JSON-mode predict round-trips bit-identically too.
    let json_rows: Vec<String> = (0..16)
        .map(|i| {
            let cells: Vec<String> = ds
                .sample(i)
                .densities()
                .iter()
                .map(|v| format!("{v}"))
                .collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    let body = format!(
        "{{\"model\":\"cpu2006\",\"rows\":[{}]}}",
        json_rows.join(",")
    );
    let (status, _, body) = exchange(
        &addr,
        &post("/predict", "Content-Type: application/json\r\n", &body),
    );
    assert_eq!(status, 200);
    let value: serde_json::Value = serde_json::from_slice(&body).unwrap();
    let Some(serde_json::Value::Array(preds)) = value.get("predictions") else {
        panic!("missing predictions array");
    };
    for (i, p) in preds.iter().enumerate() {
        assert_eq!(
            p.as_f64().unwrap().to_bits(),
            offline_pred[i].to_bits(),
            "JSON prediction {i} differs"
        );
    }

    // Classify: 1-based linear-model numbers, identical to offline.
    let body: String = (0..64)
        .map(|i| {
            let mut line = dense_line(ds.sample(i).densities());
            line.push('\n');
            line
        })
        .collect();
    let (status, _, body) = exchange(&addr, &post("/classify", "X-Model: cpu2006\r\n", &body));
    assert_eq!(status, 200);
    let got: Vec<u32> = std::str::from_utf8(&body)
        .unwrap()
        .lines()
        .map(|l| l.parse().unwrap())
        .collect();
    assert_eq!(&got[..], &offline_cls[..64]);

    server.shutdown();
}

#[test]
fn hot_swap_under_load_zero_failures_and_per_version_identity() {
    let ds = synth_dataset(400, false);
    let tree_a = fit(&synth_dataset(500, false));
    let tree_b = fit(&synth_dataset(500, true));
    let key_a = Fingerprint(0xaaaa_aaaa_aaaa_aaaa);
    let key_b = Fingerprint(0xbbbb_bbbb_bbbb_bbbb);

    let dir = std::env::temp_dir().join(format!("serve-e2e-swap-{}", std::process::id()));
    let store = ArtifactStore::open(&dir);
    store.store_tree(key_a, &tree_a).unwrap();
    store.store_tree(key_b, &tree_b).unwrap();

    // Per-version oracle: offline predictions for the probe rows.
    let mut oracle: HashMap<String, Vec<f64>> = HashMap::new();
    oracle.insert(key_a.to_hex(), tree_a.compile().predict_batch(&ds));
    oracle.insert(key_b.to_hex(), tree_b.compile().predict_batch(&ds));

    let registry = Arc::new(ModelRegistry::new());
    registry
        .load_from_store(&store, "cpu2006", key_a)
        .expect("initial load");
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            store: Some(ArtifactStore::open(&dir)),
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = server.addr().to_string();

    let n_clients = 4;
    let requests_per_client = 120;
    let failures = std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for c in 0..n_clients {
            let addr = addr.clone();
            let oracle = &oracle;
            let ds = &ds;
            workers.push(scope.spawn(move || {
                let mut stream = TcpStream::connect(&addr).expect("connect");
                let mut failures = 0usize;
                for r in 0..requests_per_client {
                    let row = (c * 131 + r * 7) % ds.len();
                    let mut line = dense_line(ds.sample(row).densities());
                    line.push('\n');
                    let raw = post("/predict", "Content-Type: text/plain\r\n", &line);
                    stream.write_all(&raw).expect("write");
                    let (status, headers, body) = read_responses(&mut stream, 1).remove(0);
                    if status != 200 {
                        failures += 1;
                        continue;
                    }
                    let version = headers.get("x-model-version").expect("version header");
                    let expected = oracle.get(version).expect("known version")[row];
                    let got: f64 = std::str::from_utf8(&body).unwrap().trim().parse().unwrap();
                    assert_eq!(
                        got.to_bits(),
                        expected.to_bits(),
                        "row {row} served by version {version} diverged from that version's offline bits"
                    );
                }
                failures
            }));
        }
        // Swap back and forth while the clients hammer.
        let swapper = scope.spawn(|| {
            let mut swap_failures = 0usize;
            for round in 0..6 {
                std::thread::sleep(Duration::from_millis(15));
                let key = if round % 2 == 0 { key_b } else { key_a };
                let body = format!("{{\"model\":\"cpu2006\",\"key\":\"{}\"}}", key.to_hex());
                let (status, _, _) = exchange(
                    &addr,
                    &post("/swap", "Content-Type: application/json\r\n", &body),
                );
                if status != 200 {
                    swap_failures += 1;
                }
            }
            swap_failures
        });
        let mut failures = swapper.join().unwrap();
        for w in workers {
            failures += w.join().unwrap();
        }
        failures
    });
    assert_eq!(failures, 0, "hot swap must not fail a single request");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn backpressure_answers_429_and_recovers() {
    let tree = fit(&synth_dataset(400, false));
    let registry = Arc::new(ModelRegistry::new());
    registry.register_tree("cpu2006", &tree);
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            coalescer: CoalescerConfig {
                // A long window and a queue bound of 4 rows: the first
                // 4-row request parks for the full window, the
                // pipelined second request must bounce.
                window: Duration::from_millis(150),
                max_batch_rows: 1 << 20,
                queue_rows: 4,
            },
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = server.addr().to_string();

    let ds = synth_dataset(8, false);
    let four: String = (0..4)
        .map(|i| {
            let mut l = dense_line(ds.sample(i).densities());
            l.push('\n');
            l
        })
        .collect();
    let one = {
        let mut l = dense_line(ds.sample(5).densities());
        l.push('\n');
        l
    };
    let mut raw = post("/predict", "", &four);
    raw.extend_from_slice(&post("/predict", "", &one));
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.write_all(&raw).expect("write burst");
    let responses = read_responses(&mut stream, 2);
    assert_eq!(responses[0].0, 200, "queued request completes");
    assert_eq!(responses[1].0, 429, "over-quota request is shed");
    assert_eq!(
        responses[1].1.get("retry-after").map(String::as_str),
        Some("1"),
        "429 carries Retry-After"
    );

    // After the queue drains, the same request is admitted again.
    let (status, _, _) = exchange(&addr, &post("/predict", "", &one));
    assert_eq!(status, 200, "backpressure recovers after drain");

    server.shutdown();
}

#[test]
fn malformed_inputs_harden_but_do_not_kill_workers() {
    let tree = fit(&synth_dataset(400, false));
    let registry = Arc::new(ModelRegistry::new());
    registry.register_tree("cpu2006", &tree);
    let server = Server::start(Arc::clone(&registry), ServerConfig::default()).expect("start");
    let addr = server.addr().to_string();

    let good_line = {
        let mut l = dense_line(synth_dataset(2, false).sample(1).densities());
        l.push('\n');
        l
    };

    // (raw request bytes, expected status)
    let cases: Vec<(Vec<u8>, u16)> = vec![
        // Binary garbage instead of HTTP.
        (b"\x00\xff\x13\x37 garbage\r\n\r\n".to_vec(), 400),
        // Lowercase method token.
        (b"post /predict HTTP/1.1\r\n\r\n".to_vec(), 400),
        // Unsupported HTTP version.
        (b"GET /healthz HTTP/2.0\r\n\r\n".to_vec(), 400),
        // Oversized declared body: rejected before the bytes arrive.
        (
            format!(
                "POST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                64 << 20
            )
            .into_bytes(),
            413,
        ),
        // Head that never terminates within the window.
        (vec![b'A'; 9 * 1024], 431),
        // Unparseable float.
        (
            post(
                "/predict",
                "",
                "1,2,three,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19\n",
            ),
            400,
        ),
        // Wrong column count.
        (post("/predict", "", "1,2,3\n"), 400),
        // Sparse index out of range.
        (post("/predict", "", "99:1.0\n"), 400),
        // Empty body.
        (post("/predict", "", ""), 400),
        // Unknown model.
        (post("/predict", "X-Model: nope\r\n", &good_line), 404),
        // Unknown endpoint and wrong method.
        (b"GET /nope HTTP/1.1\r\n\r\n".to_vec(), 404),
        (b"GET /predict HTTP/1.1\r\n\r\n".to_vec(), 405),
        (post("/healthz", "", "x"), 405),
        // Broken JSON body.
        (
            post(
                "/predict",
                "Content-Type: application/json\r\n",
                "{\"rows\": [[1,2",
            ),
            400,
        ),
        // JSON row of the wrong width.
        (
            post(
                "/predict",
                "Content-Type: application/json\r\n",
                "{\"rows\": [[1,2,3]]}",
            ),
            400,
        ),
        // Swap without a store configured.
        (
            post(
                "/swap",
                "Content-Type: application/json\r\n",
                "{\"model\":\"m\",\"key\":\"ff\"}",
            ),
            503,
        ),
    ];
    for (raw, expect) in &cases {
        let (status, _, body) = exchange(&addr, raw);
        assert_eq!(
            status,
            *expect,
            "case {:?} => {}",
            String::from_utf8_lossy(&raw[..raw.len().min(48)]),
            String::from_utf8_lossy(&body)
        );
    }

    // Non-finite features: 4xx carrying the engine's own error text.
    for bad in ["inf", "-inf", "NaN"] {
        let line = format!("{bad},{}\n", dense_line(&[0.1; N_EVENTS - 1]));
        let (status, _, body) = exchange(&addr, &post("/predict", "", &line));
        assert_eq!(status, 400, "non-finite {bad} must be a 400");
        let text = String::from_utf8(body).unwrap();
        assert!(
            text.contains("non-finite attribute"),
            "body should reuse TreeError::NonFiniteAttribute, got {text:?}"
        );
    }

    // A truncated request followed by a dead connection must not wedge
    // anything.
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .write_all(b"POST /predict HTTP/1.1\r\nContent-Le")
            .expect("write");
        drop(stream);
    }

    // After all of the abuse, the server still serves.
    let (status, _, _) = exchange(&addr, &post("/predict", "", &good_line));
    assert_eq!(status, 200, "workers survived the malformed barrage");
    let (status, _, body) = exchange(&addr, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));

    server.shutdown();
}

#[test]
fn healthz_versions_metrics_negotiation_and_flight_endpoint() {
    let tree = fit(&synth_dataset(400, false));
    let registry = Arc::new(ModelRegistry::new());
    let version = registry.register_tree("cpu2006", &tree);
    let server = Server::start(Arc::clone(&registry), ServerConfig::default()).expect("start");
    let addr = server.addr().to_string();

    // /healthz: liveness body stays exactly "ok\n" with the default
    // (empty) monitor set; the headers carry the operational headline.
    let (status, headers, body) = exchange(&addr, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));
    assert_eq!(
        headers.get("x-models").map(String::as_str),
        Some(format!("cpu2006@{}", version.version).as_str()),
        "X-Models must carry name@version fingerprints"
    );
    assert_eq!(
        headers.get("x-monitors-firing").map(String::as_str),
        Some("0")
    );

    // /metrics default: the JSON document, byte-compatible keys.
    let (status, headers, body) = exchange(&addr, b"GET /metrics HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200);
    assert_eq!(
        headers.get("content-type").map(String::as_str),
        Some("application/json")
    );
    let doc: serde_json::Value = serde_json::from_slice(&body).expect("valid JSON");
    assert!(doc.get("counters").is_some());
    assert!(doc
        .get("obs")
        .and_then(|o| o.get("schema_version"))
        .is_some());

    // ?format=prom and an openmetrics Accept both negotiate the text
    // exposition; ?format=json pins JSON even with that Accept.
    for raw in [
        b"GET /metrics?format=prom HTTP/1.1\r\n\r\n".to_vec(),
        b"GET /metrics HTTP/1.1\r\nAccept: application/openmetrics-text\r\n\r\n".to_vec(),
    ] {
        let (status, headers, body) = exchange(&addr, &raw);
        assert_eq!(status, 200);
        assert_eq!(
            headers.get("content-type").map(String::as_str),
            Some(obskit::prom::CONTENT_TYPE)
        );
        let text = String::from_utf8(body).expect("UTF-8 exposition");
        assert!(text.starts_with("# TYPE "), "{text}");
        assert!(text.ends_with("# EOF\n"), "{text}");
    }
    let (status, headers, _) = exchange(
        &addr,
        b"GET /metrics?format=json HTTP/1.1\r\nAccept: application/openmetrics-text\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert_eq!(
        headers.get("content-type").map(String::as_str),
        Some("application/json")
    );

    // POST /debug/flight dumps the recorder ring; GET is a 405.
    let (status, headers, body) = exchange(&addr, &post("/debug/flight", "", ""));
    assert_eq!(status, 200);
    assert_eq!(
        headers.get("content-type").map(String::as_str),
        Some("application/json")
    );
    let dump: serde_json::Value = serde_json::from_slice(&body).expect("valid dump JSON");
    assert!(matches!(
        dump.get("events"),
        Some(serde_json::Value::Array(_))
    ));
    let (status, _, _) = exchange(&addr, b"GET /debug/flight HTTP/1.1\r\n\r\n");
    assert_eq!(status, 405);

    server.shutdown();
}

/// The tracing acceptance test: one Chrome-trace export reconstructs a
/// single request's whole path — parse, queue wait, batch membership,
/// engine call, respond — by the request id the server echoed in
/// `X-Request-Id`.
#[test]
fn traced_request_lifecycle_reconstructable_from_one_chrome_trace() {
    let tree = fit(&synth_dataset(500, false));
    let registry = Arc::new(ModelRegistry::new());
    registry.register_tree("cpu2006", &tree);
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            coalescer: CoalescerConfig {
                window: Duration::from_micros(100),
                ..CoalescerConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = server.addr().to_string();

    obskit::set_enabled(true, true);
    obskit::set_ring_enabled(true);
    serve::set_trace_sample(1);
    let row = synth_dataset(1, false).sample(0).densities().to_vec();
    let (status, headers, _) = exchange(&addr, &post("/predict", "", &dense_line(&row)));
    obskit::set_enabled(false, false);
    obskit::set_ring_enabled(false);

    assert_eq!(status, 200);
    let req_id = headers
        .get("x-request-id")
        .expect("sampled request echoes X-Request-Id")
        .clone();

    // One trace export; every lifecycle stage is findable by req_id.
    let trace = obskit::export::trace_json();
    let doc: serde_json::Value = serde_json::from_str(&trace).expect("valid trace JSON");
    let Some(serde_json::Value::Array(events)) = doc.get("traceEvents") else {
        panic!("trace has no traceEvents array");
    };
    let arg = |event: &serde_json::Value, key: &str| -> Option<String> {
        event
            .get("args")
            .and_then(|a| a.get(key))
            .and_then(serde_json::Value::as_str)
            .map(str::to_string)
    };
    let names_with_id: Vec<String> = events
        .iter()
        .filter(|e| arg(e, "req_id").as_deref() == Some(req_id.as_str()))
        .filter_map(|e| e.get("name").and_then(serde_json::Value::as_str))
        .map(str::to_string)
        .collect();
    for stage in [
        "serve.parse",
        "serve.queue_wait",
        "serve.respond",
        "serve.request",
    ] {
        assert!(
            names_with_id.iter().any(|n| n == stage),
            "stage {stage} not found for request {req_id}; got {names_with_id:?}"
        );
    }
    // Batch membership: the engine and batch spans list the request in
    // their req_ids roster.
    for stage in ["serve.engine", "serve.batch"] {
        assert!(
            events.iter().any(|e| {
                e.get("name").and_then(serde_json::Value::as_str) == Some(stage)
                    && arg(e, "req_ids").is_some_and(|ids| ids.split(',').any(|id| id == req_id))
            }),
            "stage {stage} does not roster request {req_id}"
        );
    }

    // The flight recorder saw the same request enter and resolve.
    let id: u64 = req_id.parse().expect("numeric request id");
    let (ring_events, _) = obskit::ring::snapshot_events();
    let kinds: Vec<obskit::ring::FlightKind> = ring_events
        .iter()
        .filter(|e| e.a == id)
        .map(|e| e.kind)
        .collect();
    assert!(
        kinds.contains(&obskit::ring::FlightKind::RequestSubmitted),
        "{kinds:?}"
    );
    assert!(
        kinds.contains(&obskit::ring::FlightKind::RequestResolved),
        "{kinds:?}"
    );

    server.shutdown();
}

#[test]
fn loadgen_round_trip_and_shutdown() {
    let tree = fit(&synth_dataset(400, false));
    let registry = Arc::new(ModelRegistry::new());
    registry.register_tree("cpu2006", &tree);
    let server = Server::start(Arc::clone(&registry), ServerConfig::default()).expect("start");
    let addr = server.addr().to_string();

    let ds = synth_dataset(32, false);
    let rows: Vec<Vec<f64>> = (0..ds.len())
        .map(|i| ds.sample(i).densities().to_vec())
        .collect();
    let report = loadgen::run(
        &LoadgenConfig {
            addr: addr.clone(),
            connections: 2,
            total_requests: 400,
            classify_fraction: 0.25,
            mode: Mode::Saturate { inflight: 16 },
        },
        &rows,
    )
    .expect("loadgen runs");
    assert_eq!(
        report.ok, 400,
        "every smoke request answers 2xx: {report:?}"
    );
    assert_eq!(report.failed, 0);
    assert!(report.p99_us >= report.p50_us);

    // Shutdown over HTTP: acknowledged, then the server drains.
    let (status, _, _) = exchange(&addr, &post("/shutdown", "", ""));
    assert_eq!(status, 200);
    server.join();
}
