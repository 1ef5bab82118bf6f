//! Experiment E10 — model tree vs baseline regressors (the related-work
//! comparison of the paper's reference \[15\]) on both suites.
//!
//! All rendering lives in [`spec_bench::artifacts::baselines_cmp`] so
//! the testkit golden-snapshot suite can enforce
//! `results/baselines_cmp.txt`. The 50/50 splits and the M5' trees
//! resolve through the pipeline's artifact store.

use pipeline::{output, PipelineContext};
use spec_bench::artifacts;

fn main() {
    // SPECREPRO_TRACE_OUT / SPECREPRO_METRICS_OUT capture this run's telemetry.
    let _obs = obskit::ObsSession::from_env();
    output::print(&artifacts::baselines_cmp(&PipelineContext::from_env()));
}
