//! Prediction-throughput snapshot of the compiled engine.
//!
//! Times `predict_all` over the canonical 60k-sample CPU2006 dataset
//! three ways — interpreted per-sample tree walk, the compiled SIMD f64
//! batch kernel on one thread, and the same kernel under a full thread
//! budget — and verifies exactness on every sample: both batch runs
//! agree with the interpreter within 1e-10 and are **bit-identical**
//! to the engine's per-sample `CompiledTree::predict`.
//!
//! `cargo run --release -p spec-bench --bin bench_predict [output.json]`
//! (default output: `results/BENCH_predict.json`).

use std::time::Instant;

use pipeline::PipelineContext;
use serde_json::json;
use spec_bench::{cpu2006_artifacts, N_SAMPLES, SEED_CPU2006};

/// One timed run of `routine`: folds its wall-clock seconds into
/// `best` and returns the output for verification.
fn timed<O>(best: &mut f64, mut routine: impl FnMut() -> O) -> O {
    let start = Instant::now();
    let out = routine();
    *best = best.min(start.elapsed().as_secs_f64());
    out
}

fn main() {
    // SPECREPRO_TRACE_OUT / SPECREPRO_METRICS_OUT capture this run's telemetry.
    let _obs = obskit::ObsSession::from_env();
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_predict.json".into());
    // The per-run kernels finish in about a millisecond, so single
    // timings are dominated by scheduler noise on small hosts; a high
    // best-of count keeps the snapshot stable run to run.
    let reps = 100;

    let ctx = PipelineContext::from_env();
    let (data, tree) = cpu2006_artifacts(&ctx);
    let simd = tree.compile().with_n_threads(1);
    let threads = std::thread::available_parallelism().map_or(4, usize::from);
    let parallel = tree.compile().with_n_threads(threads);

    // Interleave the engines round-robin and keep each one's best
    // round: on a noisy shared host a contiguous burst per engine
    // hands whichever engine runs during a quiet spell an unearned
    // win, while interleaving exposes every engine to the same noise
    // distribution. The first untimed round is the warm-up.
    let interp_run = || {
        (0..data.len())
            .map(|i| tree.predict(data.sample(i)))
            .collect::<Vec<f64>>()
    };
    let mut interpreted = interp_run();
    let mut p_simd = simd.predict_batch(&data);
    let mut p_par = parallel.predict_batch(&data);
    let (mut t_interp, mut t_simd, mut t_par) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        interpreted = timed(&mut t_interp, interp_run);
        p_simd = timed(&mut t_simd, || simd.predict_batch(&data));
        p_par = timed(&mut t_par, || parallel.predict_batch(&data));
    }

    let max_abs_diff = |a: &[f64], b: &[f64]| {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max)
    };
    let diff_simd = max_abs_diff(&interpreted, &p_simd);
    let diff_par = max_abs_diff(&interpreted, &p_par);
    assert!(
        diff_simd <= 1e-10 && diff_par <= 1e-10,
        "engine/interpreter disagreement: simd {diff_simd:e}, parallel {diff_par:e}"
    );
    let per_sample: Vec<f64> = (0..data.len())
        .map(|i| simd.predict(data.sample(i)))
        .collect();
    let bit_identical = per_sample
        .iter()
        .zip(&p_simd)
        .chain(per_sample.iter().zip(&p_par))
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(
        bit_identical,
        "batch kernel diverged from per-sample CompiledTree::predict"
    );

    let rate = |secs: f64| (data.len() as f64 / secs).round();
    let report = json!({
        "experiment": "engine kernel predict_all throughput (interpreted / SIMD f64 / parallel)",
        "dataset": {
            "suite": "cpu2006",
            "seed": SEED_CPU2006,
            "n_samples": N_SAMPLES,
        },
        "tree": { "n_leaves": tree.n_leaves(), "n_nodes": tree.n_nodes() },
        "n_cpus": threads,
        "timing_best_of": reps,
        "interpreted": { "seconds": t_interp, "samples_per_sec": rate(t_interp) },
        "compiled_simd_f64": {
            "seconds": t_simd,
            "samples_per_sec": rate(t_simd),
            "speedup_vs_interpreted": t_interp / t_simd,
        },
        "compiled_parallel": {
            "n_threads": threads,
            "seconds": t_par,
            "samples_per_sec": rate(t_par),
            "speedup_vs_interpreted": t_interp / t_par,
        },
        "exactness": {
            "tolerance": 1e-10,
            "max_abs_diff_simd": diff_simd,
            "max_abs_diff_parallel": diff_par,
            "bit_identical_to_per_sample": bit_identical,
        },
    });
    let body = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&path, body + "\n").expect("write snapshot");

    let row = |name: &str, secs: f64| {
        println!(
            "{name:<18} {:>11.0} samples/s  ({:.1}x interp)",
            data.len() as f64 / secs,
            t_interp / secs
        );
    };
    row("interpreted", t_interp);
    row("compiled simd", t_simd);
    row(&format!("compiled par{threads}"), t_par);
    println!("max |diff| simd {diff_simd:e}; bit-identical to per-sample: {bit_identical}");
    println!("wrote {path}");
}
