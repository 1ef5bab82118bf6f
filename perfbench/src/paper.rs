//! `paper-cold` and `paper-warm`: one regeneration pass renders every
//! E2–E8 artifact and the `report` quantities, resolving datasets and
//! M5' trees through a `PipelineContext` over a private artifact store.
//!
//! Cold passes start from an empty store, so PMU simulation,
//! generation, M5' fitting and store writes dominate. Warm passes read
//! a store filled during set-up, so decoding, the baseline fits,
//! characterization and the transfer statistics dominate.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use baselines::{CartConfig, OlsRegressor, RegressionTree, Regressor};
use characterize::{ProfileTable, SimilarityMatrix};
use modeltree::ModelTree;
use perfcounters::Dataset;
use pipeline::{
    suite_tree_config, ArtifactStore, DatasetInput, DatasetSpec, PipelineContext, SplitPart,
    SplitSpec, StageCounters, TransferPart, TransferSplitSpec, TreeSpec, SEED_CPU2006, SEED_MATRIX,
    SEED_OMP2001, SEED_SPLIT,
};
use spec_bench::artifacts;
use spec_stats::PredictionMetrics;
use transfer::{MatrixSpec, TransferConfig, TransferMatrix, TransferabilityReport};

use crate::trace::{self, span};
use crate::{fresh_dir, obskit_counter, obskit_hist_sum_s, rounds, Report, RunCtx, THREADS};

/// The E2–E8 golden files under `results/`, in render order; the pass
/// renders these plus one digest of the `report` quantities.
const GOLDENS: [&str; 9] = [
    "figure1.txt",
    "figure1.dot",
    "figure2.txt",
    "figure2.dot",
    "table2.txt",
    "table3.txt",
    "table4.txt",
    "transferability.txt",
    "generation_matrix.txt",
];

/// Every recipe one pass resolves, derived from the workload seed.
/// Seed 0 gives the canonical recipes behind the `results/` goldens.
struct Specs {
    cpu: DatasetSpec,
    omp: DatasetSpec,
    transfer: TransferSplitSpec,
    baseline: SplitSpec,
    matrix: MatrixSpec,
}

impl Specs {
    fn new(seed: u64) -> Specs {
        let at = |canonical: u64| canonical.wrapping_add(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let cpu = DatasetSpec::cpu2006().with_seed(at(SEED_CPU2006));
        let omp = DatasetSpec::omp2001().with_seed(at(SEED_OMP2001));
        Specs {
            transfer: TransferSplitSpec {
                cpu: cpu.clone(),
                omp: omp.clone(),
                seed: at(SEED_SPLIT),
                fraction: 0.10,
            },
            baseline: SplitSpec::new(cpu.clone(), at(SEED_SPLIT), 0.5),
            matrix: MatrixSpec {
                seed: at(SEED_MATRIX),
                ..MatrixSpec::canonical()
            },
            cpu,
            omp,
        }
    }
}

fn tree(ctx: &PipelineContext, input: DatasetInput, n_train: usize) -> std::sync::Arc<ModelTree> {
    let spec = TreeSpec {
        input,
        config: suite_tree_config(n_train).with_n_threads(THREADS),
    };
    span("pipeline.resolve", || ctx.tree(&spec)).expect("suite recipes fit")
}

fn dataset(ctx: &PipelineContext, spec: &DatasetSpec) -> std::sync::Arc<Dataset> {
    span("pipeline.resolve", || ctx.dataset(spec)).expect("suite recipes generate")
}

/// What one pass produced: the rendered artifacts in [`GOLDENS`] order
/// followed by the report digest, and how the context resolved them.
struct Pass {
    renders: Vec<String>,
    counters: StageCounters,
    wall_s: f64,
}

fn render(f: impl FnOnce() -> String) -> String {
    span("artifacts.render", f)
}

/// One full regeneration pass through a fresh context over `store`.
fn pass(store: &Path, specs: &Specs) -> Pass {
    let started = Instant::now();
    let ctx = PipelineContext::with_store(ArtifactStore::open(store)).with_gen_threads(THREADS);
    let ctx = &ctx;

    let cpu = dataset(ctx, &specs.cpu);
    let cpu_tree = tree(
        ctx,
        DatasetInput::Suite(specs.cpu.clone()),
        specs.cpu.n_samples,
    );
    let omp = dataset(ctx, &specs.omp);
    let omp_tree = tree(
        ctx,
        DatasetInput::Suite(specs.omp.clone()),
        specs.omp.n_samples,
    );
    // Section VI: both 10% trees use the CPU training-set size, as the
    // checked-in transferability artifact does.
    let small = specs.transfer.cpu_train_len();
    let cpu_small = tree(
        ctx,
        DatasetInput::TransferPart(specs.transfer.clone(), TransferPart::CpuTrain),
        small,
    );
    let omp_small = tree(
        ctx,
        DatasetInput::TransferPart(specs.transfer.clone(), TransferPart::OmpTrain),
        small,
    );
    let split =
        span("pipeline.resolve", || ctx.transfer_split(&specs.transfer)).expect("suites generate");

    let mut renders = Vec::with_capacity(GOLDENS.len() + 1);
    let fig1 = render(|| {
        let a = artifacts::figure1(&cpu, &cpu_tree);
        renders.push(a.text);
        a.dot
    });
    renders.push(fig1);
    let fig2 = render(|| {
        let a = artifacts::figure2(&omp, &omp_tree);
        renders.push(a.text);
        a.dot
    });
    renders.push(fig2);
    renders.push(render(|| artifacts::table2(&cpu, &cpu_tree)));
    renders.push(render(|| artifacts::table3(&cpu, &cpu_tree)));
    renders.push(render(|| artifacts::table4(&omp, &omp_tree)));
    renders.push(render(|| {
        artifacts::transferability(&split, &cpu_small, &omp_small)
    }));
    let matrix = span("transfer.matrix", || {
        TransferMatrix::assess_all(ctx, &specs.matrix, THREADS)
    })
    .expect("matrix suites assess");
    renders.push(render(|| artifacts::generation_matrix(&matrix)));

    // The `report` quantities: tree summaries, similarity pairs,
    // transferability verdicts and the OLS/CART baselines.
    let mut report = String::new();
    for (name, data, tree) in [("cpu2006", &cpu, &cpu_tree), ("omp2001", &omp, &omp_tree)] {
        let mae = span("modeltree.predict", || tree.mean_abs_error(data));
        let _ = writeln!(
            report,
            "{name} root={:?} leaves={} nodes={} depth={} mae={mae:?} importance={:?}",
            tree.root_split_event().map(|e| e.short_name()),
            tree.n_leaves(),
            tree.n_nodes(),
            tree.depth(),
            tree.event_importance(),
        );
    }
    span("characterize.profile", || {
        let table = ProfileTable::build(&cpu_tree, &cpu);
        let similarity = SimilarityMatrix::from_table(&table);
        for (a, b) in [
            ("456.hmmer", "444.namd"),
            ("435.gromacs", "444.namd"),
            ("454.calculix", "447.dealII"),
            ("429.mcf", "444.namd"),
            ("429.mcf", "459.GemsFDTD"),
            ("444.namd", "459.GemsFDTD"),
        ] {
            let d = similarity
                .distance_by_name(a, b)
                .expect("benchmarks present");
            let _ = writeln!(report, "pair {a} {b} {d:?}");
        }
    });
    let config = TransferConfig::default();
    for (tree, train, test) in [
        (&cpu_small, &split.cpu_train, &split.cpu_rest),
        (&cpu_small, &split.cpu_train, &split.omp_rest),
        (&omp_small, &split.omp_train, &split.omp_rest),
        (&omp_small, &split.omp_train, &split.cpu_rest),
    ] {
        let r = span("transfer.assess", || {
            TransferabilityReport::assess(tree, train, test, "train", "test", &config)
        })
        .expect("transfer sets are large enough");
        let _ = writeln!(
            report,
            "transfer {} {} {} {:?} {:?} {:?} {:?}",
            r.transferable(),
            r.hypothesis_transferable(),
            r.accuracy_transferable(),
            r.hypothesis.cpi_datasets.statistic,
            r.hypothesis.cpi_predicted.statistic,
            r.metrics.correlation,
            r.metrics.mae,
        );
    }
    let (btrain, btest) =
        span("pipeline.resolve", || ctx.split(&specs.baseline)).expect("suite generates");
    let btree = tree(
        ctx,
        DatasetInput::SplitPart(specs.baseline.clone(), SplitPart::First),
        specs.baseline.first_len(),
    );
    let ols = span("baselines.ols_fit", || OlsRegressor::fit(&btrain)).expect("ols fits");
    let cart = span("baselines.cart_fit", || {
        RegressionTree::fit(&btrain, CartConfig::default())
    })
    .expect("cart fits");
    let actual = btest.cpis();
    let predictions = [
        (
            "m5",
            span("modeltree.predict", || btree.predict_all(&btest)),
        ),
        ("ols", span("baselines.predict", || ols.predict_all(&btest))),
        (
            "cart",
            span("baselines.predict", || cart.predict_all(&btest)),
        ),
    ];
    for (name, predicted) in predictions {
        let m = PredictionMetrics::from_predictions(&predicted, &actual).expect("metrics");
        let _ = writeln!(
            report,
            "baseline {name} {:?} {:?} {:?}",
            m.correlation, m.mae, m.rmse
        );
    }
    renders.push(report);

    Pass {
        renders,
        counters: ctx.counters(),
        wall_s: started.elapsed().as_secs_f64(),
    }
}

/// Checks one pass's renders against the set-up pass and, on the
/// canonical seed, the checked-in goldens: one message per artifact
/// that differs.
fn check(renders: &[String], reference: &[String], goldens: Option<&[String]>) -> Vec<String> {
    let names = GOLDENS.iter().copied().chain(["report quantities"]);
    let mut failures = Vec::new();
    for (i, name) in names.enumerate() {
        let mut differs_from = Vec::new();
        if renders[i] != reference[i] {
            differs_from.push("the set-up pass".to_owned());
        }
        if goldens
            .and_then(|g| g.get(i))
            .is_some_and(|g| g != &renders[i])
        {
            differs_from.push(format!("results/{name}"));
        }
        if !differs_from.is_empty() {
            failures.push(format!(
                "{name}: render differs from {}",
                differs_from.join(" and ")
            ));
        }
    }
    failures
}

fn load_goldens(seed: u64) -> Result<Option<Vec<String>>, String> {
    if seed != 0 {
        return Ok(None);
    }
    GOLDENS
        .iter()
        .map(|name| {
            let path = Path::new("results").join(name);
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Some)
}

/// Per-layer values of one traced pass.
fn layers(
    pass: &Pass,
    records: &[trace::Record],
    trace_json: &str,
    matrix_cells: f64,
) -> BTreeMap<&'static str, f64> {
    let obs = obskit::metrics::snapshot();
    let spans = trace::program_span_totals(trace_json);
    let c = pass.counters;
    let resolves =
        (c.datasets_generated + c.datasets_loaded + c.trees_fitted + c.trees_loaded) as f64;
    let decode_s = obskit_hist_sum_s(&obs, "pipeline.codec_decode_ns");
    let bytes_read = obskit_counter(&obs, "pipeline.bytes_read");
    let top_s: f64 = records
        .iter()
        .filter(|r| r.parent == 0)
        .map(|r| r.dur_ns as f64 / 1e9)
        .sum();
    let mut m = crate::engine_layers(&obs, &spans);
    m.extend([
        (
            "pipeline.resolve_s",
            trace::total_s(records, "pipeline.resolve"),
        ),
        ("pipeline.datasets_generated", c.datasets_generated as f64),
        ("pipeline.datasets_loaded", c.datasets_loaded as f64),
        ("pipeline.trees_fitted", c.trees_fitted as f64),
        ("pipeline.trees_loaded", c.trees_loaded as f64),
        (
            "pipeline.store_hit_ratio",
            (c.datasets_loaded + c.trees_loaded) as f64 / resolves.max(1.0),
        ),
        ("pipeline.bytes_read", bytes_read),
        (
            "pipeline.bytes_written",
            obskit_counter(&obs, "pipeline.bytes_written"),
        ),
        ("pipeline.codec_decode_s", decode_s),
        (
            "pipeline.codec_encode_s",
            obskit_hist_sum_s(&obs, "pipeline.codec_encode_ns"),
        ),
        (
            "pipeline.decode_mb_per_s",
            if decode_s > 0.0 {
                bytes_read / 1e6 / decode_s
            } else {
                0.0
            },
        ),
        (
            "workloads.generate_s",
            spans.get("pipeline.generate").copied().unwrap_or(0.0),
        ),
        (
            "perfcounters.intervals",
            obskit_counter(&obs, "pmu.intervals"),
        ),
        (
            "baselines.ols_fit_s",
            trace::total_s(records, "baselines.ols_fit"),
        ),
        (
            "baselines.cart_fit_s",
            trace::total_s(records, "baselines.cart_fit"),
        ),
        (
            "baselines.predict_s",
            trace::total_s(records, "baselines.predict"),
        ),
        (
            "characterize.profile_s",
            trace::total_s(records, "characterize.profile"),
        ),
        (
            "transfer.assess_s",
            trace::total_s(records, "transfer.assess"),
        ),
        (
            "transfer.matrix_s",
            trace::total_s(records, "transfer.matrix"),
        ),
        ("transfer.cells", matrix_cells),
        (
            "artifacts.render_s",
            trace::total_s(records, "artifacts.render"),
        ),
        ("paper.unattributed_s", pass.wall_s - top_s),
    ]);
    m
}

/// Runs `paper-cold` (`warm == false`) or `paper-warm`.
pub fn run(ctx: &RunCtx, warm: bool) -> Report {
    let mut report = Report::default();
    let specs = Specs::new(ctx.seed);
    let goldens = match load_goldens(ctx.seed) {
        Ok(g) => g,
        Err(e) => {
            report.failures.push(format!("golden file unreadable: {e}"));
            None
        }
    };
    let n_cells = (specs.matrix.suites.len() * specs.matrix.suites.len()) as f64;

    // Set-up: a cold pass into a fresh store. It supplies the
    // reference renders; for paper-warm its store is the one every
    // timed pass reads.
    let store = ctx.work.join("store");
    let mut set_up = || {
        fresh_dir(&store);
        pass(&store, &specs).renders
    };
    let reference = report.setup(&mut set_up);
    crate::reset_peak_rss();

    let results = rounds(ctx, |traced| {
        if !warm {
            fresh_dir(&store);
        }
        let p = pass(&store, &specs);
        let layer = traced.then(|| {
            let records = trace::records();
            let trace_json = obskit::export::trace_json();
            let layer = layers(&p, &records, &trace_json, n_cells);
            report.note_trace(&records, p.wall_s, trace_json);
            layer
        });
        (p, layer)
    });
    report.peak_rss_mb = crate::peak_rss_mb();
    report.setup_again(&mut set_up, drop);
    let _ = std::fs::remove_dir_all(&store);

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut layer_rounds = Vec::new();
    for (p, layer) in results {
        report.attempted += p.renders.len() as u64;
        let mismatches = check(&p.renders, &reference, goldens.as_deref());
        report.failed += mismatches.len() as u64;
        report.failures.extend(mismatches);
        let c = p.counters;
        if warm && (c.datasets_generated != 0 || c.trees_fitted != 0) {
            report.failures.push(format!(
                "warm pass generated {} datasets and fitted {} trees",
                c.datasets_generated, c.trees_fitted
            ));
        }
        if !warm && (c.datasets_loaded != 0 || c.trees_loaded != 0) {
            report
                .failures
                .push("cold pass loaded artifacts from its fresh store".into());
        }
        match layer {
            Some(l) => {
                traced.push(p.wall_s);
                layer_rounds.push(l);
            }
            None => untraced.push(p.wall_s),
        }
    }
    report.primary("paper_s", "s", &untraced, &traced);
    // Every workload reports `throughput`; here it is the pass's
    // artifacts over its median time, so it restates `latency_ms` and
    // adds no independent check.
    let median_s = crate::stats::median(&untraced);
    report.set_e2e(median_s * 1e3, (GOLDENS.len() + 1) as f64 / median_s);
    report.layers = crate::median_layers(&layer_rounds);
    report
}
