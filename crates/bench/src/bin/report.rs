//! Machine-readable experiment report: runs the full pipeline on the
//! canonical datasets and writes one JSON document summarizing every
//! headline quantity (tree shapes, similarity pairs, transferability
//! verdicts, baseline comparison) to stdout or a file. The document is
//! rendered by `spec_bench::artifacts::report`.
//!
//! `cargo run --release -p spec-bench --bin report [output.json]`

use pipeline::{output, PipelineContext};
use spec_bench::artifacts;

fn main() {
    // SPECREPRO_TRACE_OUT / SPECREPRO_METRICS_OUT capture this run's telemetry.
    let _obs = obskit::ObsSession::from_env();
    let rendered = artifacts::report(&PipelineContext::from_env());
    match std::env::args().nth(1) {
        Some(path) => {
            std::fs::write(&path, &rendered).expect("writable output path");
            eprintln!("report written to {path}");
        }
        None => {
            output::print(&rendered);
            output::print("\n");
        }
    }
}
