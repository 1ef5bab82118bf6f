//! Golden-snapshot enforcement for the E2–E8 and E10 `results/` artifacts and
//! the machine-readable `results/report.json`.
//!
//! Each test renders its experiment through the same pure
//! `spec_bench::artifacts` function the regeneration binary uses and
//! compares the result **byte for byte** against the checked-in golden
//! file, so the shape claims in EXPERIMENTS.md (leaf counts, headline
//! equations, table percentages, transferability metrics) are enforced
//! in CI rather than merely documented.
//!
//! After a reviewed behavior change, regenerate the goldens with:
//!
//! ```text
//! TESTKIT_BLESS=1 cargo test -p testkit --test golden_snapshots
//! ```
//!
//! The artifacts resolve through one shared `PipelineContext` over the
//! environment-selected artifact store — exactly the path the bins use
//! — so a warm store makes this suite fast while the byte-for-byte
//! comparison simultaneously proves cached artifacts replay the cold
//! results exactly.

use std::sync::{Arc, OnceLock};

use modeltree::ModelTree;
use perfcounters::Dataset;
use pipeline::{PipelineContext, TransferSplit};
use spec_bench::{artifacts, cpu2006_artifacts, omp2001_artifacts, transfer_artifacts};
use testkit::golden::check_or_bless;

fn ctx() -> &'static PipelineContext {
    static CTX: OnceLock<PipelineContext> = OnceLock::new();
    CTX.get_or_init(PipelineContext::from_env)
}

fn cpu() -> &'static (Arc<Dataset>, Arc<ModelTree>) {
    static CPU: OnceLock<(Arc<Dataset>, Arc<ModelTree>)> = OnceLock::new();
    CPU.get_or_init(|| cpu2006_artifacts(ctx()))
}

fn omp() -> &'static (Arc<Dataset>, Arc<ModelTree>) {
    static OMP: OnceLock<(Arc<Dataset>, Arc<ModelTree>)> = OnceLock::new();
    OMP.get_or_init(|| omp2001_artifacts(ctx()))
}

fn enforce(name: &str, rendered: &str) {
    if let Err(report) = check_or_bless(name, rendered) {
        panic!("{report}");
    }
}

#[test]
fn figure1_text_and_dot_match_goldens() {
    let (data, tree) = cpu();
    let art = artifacts::figure1(data, tree);
    enforce("figure1.txt", &art.text);
    enforce("figure1.dot", &art.dot);
}

#[test]
fn figure2_text_and_dot_match_goldens() {
    let (data, tree) = omp();
    let art = artifacts::figure2(data, tree);
    enforce("figure2.txt", &art.text);
    enforce("figure2.dot", &art.dot);
}

#[test]
fn table2_matches_golden() {
    let (data, tree) = cpu();
    enforce("table2.txt", &artifacts::table2(data, tree));
}

#[test]
fn table3_matches_golden() {
    let (data, tree) = cpu();
    enforce("table3.txt", &artifacts::table3(data, tree));
}

#[test]
fn table4_matches_golden() {
    let (data, tree) = omp();
    enforce("table4.txt", &artifacts::table4(data, tree));
}

#[test]
fn transferability_matches_golden() {
    static TRANSFER: OnceLock<(TransferSplit, Arc<ModelTree>, Arc<ModelTree>)> = OnceLock::new();
    let (split, cpu_tree, omp_tree) = TRANSFER.get_or_init(|| transfer_artifacts(ctx()));
    enforce(
        "transferability.txt",
        &artifacts::transferability(split, cpu_tree, omp_tree),
    );
}

/// E8 — the cross-generation transfer matrix: byte-identical to the
/// checked-in golden, and (because every assessed cell is a pure
/// function of pipeline artifacts striped deterministically across
/// workers) byte-identical for 1, 2, and 8 worker threads.
#[test]
fn generation_matrix_matches_golden_for_every_thread_count() {
    let rendered = artifacts::generation_matrix(&spec_bench::matrix_artifacts(ctx(), 2));
    enforce("generation_matrix.txt", &rendered);
    for threads in [1, 8] {
        let again = artifacts::generation_matrix(&spec_bench::matrix_artifacts(ctx(), threads));
        assert_eq!(rendered, again, "{threads}-thread matrix diverged");
    }
}

/// The machine-readable `report` document: pins the tree summaries,
/// similarity pairs, transferability statistics and the OLS/CART
/// baseline metrics end to end, every float at full round-trip
/// precision.
#[test]
fn report_matches_golden() {
    enforce("report.json", &artifacts::report(ctx()));
}

/// E10 — the M5' tree against the OLS, CART and k-NN baselines on a
/// 50/50 split of both suites.
#[test]
fn baselines_cmp_matches_golden() {
    enforce("baselines_cmp.txt", &artifacts::baselines_cmp(ctx()));
}
