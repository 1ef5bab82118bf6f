//! Open-loop and saturating load generation against a running
//! `serve::Server`, used by `bench_serve` and the CI smoke job.
//!
//! **Open loop** ([`Mode::OpenLoop`]) models independent users: request
//! `i` of `n` is *scheduled* at `t₀ + i/rate` regardless of how the
//! server is doing, and its latency is measured **from the scheduled
//! arrival to response completion**. A slow server therefore charges
//! queueing delay to itself instead of silently slowing the client down
//! — the coordinated-omission trap closed-loop benchmarks fall into.
//! Requests fan out round-robin over a fixed set of keep-alive
//! connections; each connection pair-runs a writer (fires on schedule,
//! never waits for responses) and a reader (HTTP/1.1 answers in order,
//! so it just counts responses off the front of the schedule queue).
//!
//! **Saturate** ([`Mode::Saturate`]) measures capacity: each connection
//! keeps a fixed number of pipelined requests in flight and replaces
//! each response with a fresh request, yielding the server's sustained
//! throughput ceiling (the number the batching-vs-unbatched comparison
//! uses).
//!
//! Request bodies are pre-rendered byte blobs — the generator spends
//! its cycles on scheduling and socket I/O, not formatting — which
//! matters on the 1-vCPU bench container where client and server share
//! the core.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use perfcounters::events::N_EVENTS;

/// Arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Fixed-rate open-loop arrivals (requests/second across all
    /// connections), coordinated-omission-safe latency.
    OpenLoop {
        /// Aggregate arrival rate, requests per second.
        rate: f64,
    },
    /// Closed-loop saturation: every connection keeps `inflight`
    /// pipelined requests outstanding.
    Saturate {
        /// Outstanding requests per connection.
        inflight: usize,
    },
}

/// Load shape.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:4600`.
    pub addr: String,
    /// Keep-alive connections to spread load over.
    pub connections: usize,
    /// Total requests to send across all connections.
    pub total_requests: usize,
    /// Fraction of requests hitting `/classify` instead of `/predict`
    /// (interleaved deterministically, not sampled).
    pub classify_fraction: f64,
    /// Arrival process.
    pub mode: Mode,
}

/// What came back.
#[derive(Debug, Clone, Default)]
pub struct LoadgenReport {
    /// Requests sent.
    pub sent: usize,
    /// 2xx responses.
    pub ok: usize,
    /// 429 responses (shed by backpressure — expected under overload).
    pub rejected: usize,
    /// Any other status, or transport failures.
    pub failed: usize,
    /// Wall clock from first scheduled send to last response.
    pub elapsed: Duration,
    /// Completed (2xx + 429) responses per second of `elapsed`.
    pub throughput: f64,
    /// Latency percentiles over 2xx responses, microseconds. Open-loop
    /// latencies are measured against the arrival schedule.
    pub p50_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// Worst observed, microseconds.
    pub max_us: f64,
}

/// Renders the pre-built request blob for one row.
fn render_request(path: &str, row: &[f64]) -> Vec<u8> {
    use std::fmt::Write as _;
    assert_eq!(row.len(), N_EVENTS);
    let mut body = String::with_capacity(N_EVENTS * 20);
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(body, "{v}");
    }
    body.push('\n');
    let mut out = Vec::with_capacity(body.len() + 128);
    let _ = write!(
        out,
        "POST {path} HTTP/1.1\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    out
}

/// Incremental HTTP response scanner: counts complete responses in a
/// byte stream and reports each one's status. Tolerates any split of
/// the stream across reads.
struct ResponseScanner {
    buf: Vec<u8>,
}

impl ResponseScanner {
    fn new() -> ResponseScanner {
        ResponseScanner { buf: Vec::new() }
    }

    /// Feeds bytes; invokes `on_response(status)` per completed
    /// response. Consumed bytes are compacted **once per feed**, not
    /// per response — under deep pipelining one read can carry hundreds
    /// of responses, and a per-response drain would memmove the
    /// remaining buffer quadratically (measured as a hard ~170k req/s
    /// generator ceiling before this was hoisted).
    fn feed(&mut self, bytes: &[u8], mut on_response: impl FnMut(u16)) -> Result<(), String> {
        self.buf.extend_from_slice(bytes);
        let mut consumed = 0usize;
        let result = loop {
            let rest = &self.buf[consumed..];
            let Some(head_end) = rest
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .map(|p| p + 4)
            else {
                break Ok(());
            };
            let head = match std::str::from_utf8(&rest[..head_end - 4]) {
                Ok(head) => head,
                Err(_) => break Err("non-UTF-8 response head".to_string()),
            };
            let Some(status) = head.split(' ').nth(1).and_then(|s| s.parse::<u16>().ok()) else {
                break Err(format!("bad status line: {head:.60}"));
            };
            let mut content_length = 0usize;
            let mut bad_length = false;
            for line in head.split("\r\n").skip(1) {
                if let Some((name, value)) = line.split_once(':') {
                    if name.eq_ignore_ascii_case("content-length") {
                        match value.trim().parse() {
                            Ok(length) => content_length = length,
                            Err(_) => bad_length = true,
                        }
                    }
                }
            }
            if bad_length {
                break Err("bad Content-Length".to_string());
            }
            let total = head_end + content_length;
            if rest.len() < total {
                break Ok(());
            }
            consumed += total;
            on_response(status);
        };
        self.buf.drain(..consumed);
        result
    }
}

struct Tally {
    ok: usize,
    rejected: usize,
    failed: usize,
    latencies_us: Vec<u64>,
}

/// Drives the configured load and aggregates the report.
///
/// `rows` supplies request payloads, cycled round-robin; it must be
/// non-empty with `N_EVENTS` densities per row.
pub fn run(cfg: &LoadgenConfig, rows: &[Vec<f64>]) -> std::io::Result<LoadgenReport> {
    assert!(!rows.is_empty(), "loadgen needs at least one payload row");
    assert!(cfg.connections > 0 && cfg.total_requests > 0);
    // Pre-render every distinct request blob (payload × endpoint).
    let predict_blobs: Vec<Vec<u8>> = rows.iter().map(|r| render_request("/predict", r)).collect();
    let classify_blobs: Vec<Vec<u8>> = rows
        .iter()
        .map(|r| render_request("/classify", r))
        .collect();
    let classify_every = if cfg.classify_fraction <= 0.0 {
        usize::MAX
    } else {
        (1.0 / cfg.classify_fraction).round().max(1.0) as usize
    };
    let blob_of = |i: usize| -> &[u8] {
        let pool = if classify_every != usize::MAX && i % classify_every == classify_every - 1 {
            &classify_blobs
        } else {
            &predict_blobs
        };
        &pool[i % pool.len()]
    };

    let started = Instant::now();
    let tallies: Vec<Mutex<Tally>> = (0..cfg.connections)
        .map(|_| {
            Mutex::new(Tally {
                ok: 0,
                rejected: 0,
                failed: 0,
                latencies_us: Vec::new(),
            })
        })
        .collect();
    let tallies = Arc::new(tallies);
    let sent_total = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| -> std::io::Result<()> {
        for conn in 0..cfg.connections {
            // Requests are assigned round-robin: connection c owns the
            // global requests {c, c+C, c+2C, ...}.
            let my_requests: Vec<usize> = (conn..cfg.total_requests)
                .step_by(cfg.connections)
                .collect();
            if my_requests.is_empty() {
                continue;
            }
            let stream = TcpStream::connect(&cfg.addr)?;
            stream.set_nodelay(true)?;
            let tallies = Arc::clone(&tallies);
            let sent_total = Arc::clone(&sent_total);
            let blob_of = &blob_of;
            match cfg.mode {
                Mode::OpenLoop { rate } => {
                    // Writer fires on the arrival schedule; reader
                    // matches responses to scheduled instants in FIFO
                    // order (HTTP/1.1 responses arrive in request
                    // order on one connection).
                    let schedule: Arc<Mutex<std::collections::VecDeque<Instant>>> =
                        Arc::new(Mutex::new(std::collections::VecDeque::new()));
                    let reader_stream = stream.try_clone()?;
                    let reader_schedule = Arc::clone(&schedule);
                    let n_mine = my_requests.len();
                    scope.spawn(move || {
                        read_side(reader_stream, n_mine, &tallies[conn], &reader_schedule)
                    });
                    scope.spawn(move || {
                        let mut stream = stream;
                        for &i in &my_requests {
                            let due = started + Duration::from_secs_f64(i as f64 / rate);
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                            // Record the *scheduled* time: latency
                            // includes any send-side queueing the
                            // server's slowness caused.
                            schedule.lock().expect("schedule lock").push_back(due);
                            if stream.write_all(blob_of(i)).is_err() {
                                break;
                            }
                            sent_total.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
                Mode::Saturate { inflight } => {
                    scope.spawn(move || {
                        let mut stream = stream;
                        let mut scanner = ResponseScanner::new();
                        let mut sends: std::collections::VecDeque<Instant> =
                            std::collections::VecDeque::new();
                        let mut next = 0usize;
                        let mut done = 0usize;
                        let n_mine = my_requests.len();
                        let mut chunk = [0u8; 64 * 1024];
                        let mut write_buf: Vec<u8> = Vec::with_capacity(16 * 1024);
                        while done < n_mine {
                            // Top up the pipeline in one buffered write.
                            write_buf.clear();
                            let mut topped_up = 0usize;
                            while next < n_mine && sends.len() < inflight {
                                write_buf.extend_from_slice(blob_of(my_requests[next]));
                                sends.push_back(Instant::now());
                                next += 1;
                                topped_up += 1;
                            }
                            if !write_buf.is_empty() {
                                if stream.write_all(&write_buf).is_err() {
                                    break;
                                }
                                sent_total.fetch_add(topped_up, Ordering::Relaxed);
                            }
                            let n = match stream.read(&mut chunk) {
                                Ok(0) | Err(_) => break,
                                Ok(n) => n,
                            };
                            let mut tally = tallies[conn].lock().expect("tally lock");
                            let completed = &mut 0usize;
                            let result = scanner.feed(&chunk[..n], |status| {
                                *completed += 1;
                                let sent = sends.pop_front().unwrap_or_else(Instant::now);
                                record(&mut tally, status, sent.elapsed());
                            });
                            done += *completed;
                            if result.is_err() {
                                tally.failed += n_mine - done;
                                break;
                            }
                        }
                    });
                }
            }
        }
        Ok(())
    })?;

    let elapsed = started.elapsed();
    let mut report = LoadgenReport {
        sent: sent_total.load(Ordering::Relaxed),
        elapsed,
        ..LoadgenReport::default()
    };
    let mut latencies: Vec<u64> = Vec::new();
    for tally in tallies.iter() {
        let tally = tally.lock().expect("tally lock");
        report.ok += tally.ok;
        report.rejected += tally.rejected;
        report.failed += tally.failed;
        latencies.extend_from_slice(&tally.latencies_us);
    }
    latencies.sort_unstable();
    let percentile = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let rank = ((latencies.len() as f64 * p).ceil() as usize).clamp(1, latencies.len());
        latencies[rank - 1] as f64
    };
    report.p50_us = percentile(0.50);
    report.p99_us = percentile(0.99);
    report.max_us = latencies.last().copied().unwrap_or(0) as f64;
    report.throughput = (report.ok + report.rejected) as f64 / elapsed.as_secs_f64().max(1e-9);
    Ok(report)
}

fn record(tally: &mut Tally, status: u16, latency: Duration) {
    match status {
        200..=299 => {
            tally.ok += 1;
            tally
                .latencies_us
                .push(u64::try_from(latency.as_micros()).unwrap_or(u64::MAX));
        }
        429 => tally.rejected += 1,
        _ => tally.failed += 1,
    }
}

/// Open-loop reader side: drain responses until `expected` have been
/// seen (or the stream dies), charging each against its scheduled
/// arrival instant.
fn read_side(
    mut stream: TcpStream,
    expected: usize,
    tally: &Mutex<Tally>,
    schedule: &Mutex<std::collections::VecDeque<Instant>>,
) {
    let mut scanner = ResponseScanner::new();
    let mut chunk = [0u8; 64 * 1024];
    let mut seen = 0usize;
    while seen < expected {
        let n = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let mut tally = tally.lock().expect("tally lock");
        let seen_ref = &mut seen;
        let result = scanner.feed(&chunk[..n], |status| {
            *seen_ref += 1;
            let scheduled = schedule
                .lock()
                .expect("schedule lock")
                .pop_front()
                .unwrap_or_else(Instant::now);
            record(&mut tally, status, scheduled.elapsed());
        });
        if result.is_err() {
            break;
        }
    }
    let mut tally = tally.lock().expect("tally lock");
    tally.failed += expected - seen;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanner_handles_arbitrary_splits() {
        let stream = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbody\
                       HTTP/1.1 429 Too Many Requests\r\nContent-Length: 0\r\n\r\n\
                       HTTP/1.1 200 OK\r\nX-Model-Version: ff\r\nContent-Length: 2\r\n\r\nok";
        for split in 0..stream.len() {
            let mut scanner = ResponseScanner::new();
            let mut statuses = Vec::new();
            scanner
                .feed(&stream[..split], |s| statuses.push(s))
                .unwrap();
            scanner
                .feed(&stream[split..], |s| statuses.push(s))
                .unwrap();
            assert_eq!(statuses, vec![200, 429, 200], "split at {split}");
        }
    }

    #[test]
    fn request_blob_is_valid_http() {
        let row = vec![0.5; N_EVENTS];
        let blob = render_request("/predict", &row);
        let parsed = serve::http::parse_request(&blob).unwrap().unwrap();
        assert_eq!(parsed.0.method, "POST");
        assert_eq!(parsed.0.path, "/predict");
        assert_eq!(parsed.1, blob.len());
        let body = String::from_utf8(parsed.0.body.to_vec()).unwrap();
        assert_eq!(body.trim().split(',').count(), N_EVENTS);
    }
}
