//! `stream-fleet`: a simulated fleet ingested under the standard fault
//! schedule into a chunked SPDC container on disk, then a cold windowed
//! out-of-core refit over that container.
//!
//! This is the only workload that drives the sharded aggregator, the
//! chunked writer and reader, and the many-small-fits refit path.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::time::Instant;

use modeltree::M5Config;
use pipeline::{ArtifactStore, ChunkedReader};
use stream::{windowed_refit, FaultConfig, FleetConfig, RefitConfig, StreamConfig, StreamPlan};

use crate::trace::{self, span};
use crate::{fresh_dir, rounds, stats, Report, RunCtx};

/// Fleet shape: 2000 hosts × 60 intervals ≈ 115k surviving rows, seven
/// times the refit's one-window memory budget.
const HOSTS: u64 = 2_000;
const INTERVALS: u32 = 60;
const SHARDS: usize = 8;
const CHUNK_ROWS: usize = 1_024;
const WINDOW_ROWS: u64 = 16_384;
const MIN_LEAF: usize = 300;
/// Timed rounds seal on two worker threads, the reference on one.
const SEAL_THREADS: usize = 2;
const FLEET_SEED: u64 = 20_060_828;
const FAULT_SEED: u64 = 7;

struct Round {
    ingest_s: f64,
    refit_s: f64,
    rows: u64,
    layer: Option<BTreeMap<&'static str, f64>>,
}

pub fn run(ctx: &RunCtx) -> Report {
    let mut report = Report::default();
    let offset = ctx.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let cfg = StreamConfig::new(FleetConfig::cpu2006(
        HOSTS,
        INTERVALS,
        FLEET_SEED.wrapping_add(offset),
    ))
    .with_shards(SHARDS)
    .with_threads(SEAL_THREADS)
    .with_chunk_rows(CHUNK_ROWS)
    .with_faults(FaultConfig::standard(FAULT_SEED.wrapping_add(offset)));
    let refit_cfg = RefitConfig::new(WINDOW_ROWS, M5Config::default().with_min_leaf(MIN_LEAF));

    // Set-up: resolve the plan (its survivor count is what the sealed
    // container must hold) and seal the reference container on one
    // thread; every timed round seals on two and must match it.
    let dir = ctx.work.join("stream");
    let reference_path = ctx.work.join("reference.spdc");
    let mut set_up = || {
        let survivors = StreamPlan::new(&cfg).total_rows();
        stream::run_stream(&cfg.clone().with_threads(1), &reference_path)
            .expect("reference ingest");
        let bytes = std::fs::read(&reference_path).expect("read reference container");
        let _ = std::fs::remove_file(&reference_path);
        (survivors, bytes)
    };
    let (survivors, reference) = report.setup(&mut set_up);
    let n_windows = refit_cfg.windows(survivors).len();
    crate::reset_peak_rss();

    let results = rounds(ctx, |traced| {
        fresh_dir(&dir);
        let container = dir.join("fleet.spdc");
        let started = Instant::now();
        let summary = span("stream.run_stream", || stream::run_stream(&cfg, &container))
            .expect("faulted ingest seals");
        let ingest_s = started.elapsed().as_secs_f64();
        let refit_started = Instant::now();
        let mut reader = span("pipeline.chunked_open", || {
            ChunkedReader::open(BufReader::new(File::open(&container)?))
                .map_err(|e| std::io::Error::other(e.to_string()))
        })
        .expect("sealed container opens");
        let store = ArtifactStore::open(dir.join("store"));
        let fits = span("stream.windowed_refit", || {
            windowed_refit(&mut reader, &store, &refit_cfg)
        });
        let refit_s = refit_started.elapsed().as_secs_f64();
        let wall_s = started.elapsed().as_secs_f64();

        let mut checks = Vec::new();
        if summary.rows != survivors || reader.n_rows() != survivors {
            checks.push(format!(
                "container holds {} rows (reader {}), plan survivors {survivors}",
                summary.rows,
                reader.n_rows()
            ));
        }
        if std::fs::read(&container).ok().as_deref() != Some(reference.as_slice()) {
            checks.push("container bytes differ between 1 and 2 sealing threads".into());
        }
        let (n_fits, cached) = match &fits {
            Ok(fits) => (fits.len(), fits.iter().filter(|f| f.cached).count()),
            Err(e) => {
                checks.push(format!("windowed refit failed: {e}"));
                (0, 0)
            }
        };
        if n_fits != n_windows || cached != 0 {
            checks.push(format!(
                "cold refit fitted {n_fits} of {n_windows} windows with {cached} cache hits"
            ));
        }

        let layer = traced.then(|| {
            let records = trace::records();
            let trace_json = obskit::export::trace_json();
            let spans = trace::program_span_totals(&trace_json);
            let obs = obskit::metrics::snapshot();
            let received = summary.rows + summary.duplicates_dropped;
            let mut m = crate::engine_layers(&obs, &spans);
            m.extend([
                ("stream.ingest_s", ingest_s),
                ("stream.rows_ingested", summary.rows as f64),
                (
                    "stream.duplicates_dropped",
                    summary.duplicates_dropped as f64,
                ),
                ("stream.retransmits", summary.retransmits as f64),
                ("stream.faults_injected", summary.faults_injected as f64),
                (
                    "stream.chunk_recoveries",
                    summary.torn_writes_repaired as f64,
                ),
                (
                    "stream.useful_row_ratio",
                    summary.rows as f64 / received.max(1) as f64,
                ),
                (
                    "stream.refits",
                    crate::obskit_counter(&obs, "stream.refits"),
                ),
                (
                    "stream.refit_cache_hits",
                    crate::obskit_counter(&obs, "stream.refit_cache_hits"),
                ),
                (
                    "stream.refit_io_s",
                    refit_s - spans.get("m5.fit").copied().unwrap_or(0.0),
                ),
            ]);
            report.note_trace(&records, wall_s, trace_json);
            m
        });
        let _ = std::fs::remove_dir_all(&dir);
        (
            Round {
                ingest_s,
                refit_s,
                rows: summary.rows,
                layer,
            },
            n_fits,
            checks,
        )
    });
    report.peak_rss_mb = crate::peak_rss_mb();
    report.setup_again(&mut set_up, drop);

    let mut refit = (Vec::new(), Vec::new());
    let mut rows_per_s = Vec::new();
    let mut layer_rounds = Vec::new();
    for (round, n_fits, checks) in results {
        report.attempted += n_windows as u64;
        report.failed += (n_windows - n_fits.min(n_windows)) as u64;
        report.failures.extend(checks);
        match round.layer {
            Some(l) => {
                refit.1.push(round.refit_s);
                layer_rounds.push(l);
            }
            None => {
                refit.0.push(round.refit_s);
                rows_per_s.push(round.rows as f64 / round.ingest_s);
            }
        }
    }
    report.primary("stream_refit_s", "s", &refit.0, &refit.1);
    report.human.push(format!(
        "stream_rows_per_s: median {:.1} rows/s, n={}",
        stats::median(&rows_per_s),
        rows_per_s.len()
    ));
    report.set_e2e(stats::median(&refit.0) * 1e3, stats::median(&rows_per_s));
    report.layers = crate::median_layers(&layer_rounds);
    report
}
