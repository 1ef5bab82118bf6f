//! Criterion bench: prediction throughput (smoothed vs unsmoothed, and
//! compiled engine vs interpreted tree walk at full experiment scale).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use modeltree::{M5Config, ModelTree};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spec_bench::{cpu2006_dataset, fit_suite_tree};
use workloads::generator::{GeneratorConfig, Suite};

fn bench_predict(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let data = Suite::cpu2006().generate(&mut rng, 10_000, &GeneratorConfig::default());
    let smoothed = ModelTree::fit(&data, &M5Config::default().with_min_leaf(100)).unwrap();
    let raw = ModelTree::fit(
        &data,
        &M5Config::default().with_min_leaf(100).with_smoothing(false),
    )
    .unwrap();
    let probe = Suite::cpu2006().generate(&mut rng, 1_000, &GeneratorConfig::default());

    let mut group = c.benchmark_group("predict");
    group.throughput(Throughput::Elements(probe.len() as u64));
    group.bench_function("smoothed", |b| b.iter(|| smoothed.predict_all(&probe)));
    group.bench_function("unsmoothed", |b| b.iter(|| raw.predict_all(&probe)));
    group.finish();
}

/// Compiled batch engine vs the interpreted per-sample tree walk on the
/// canonical 60k-sample CPU2006 dataset. The `bench_predict` binary
/// turns the same comparison into the `results/BENCH_predict.json`
/// snapshot.
fn bench_engines(c: &mut Criterion) {
    let data = cpu2006_dataset();
    let tree = fit_suite_tree(&data);
    let serial = tree.compile().with_n_threads(1);
    let threads = std::thread::available_parallelism().map_or(4, usize::from);
    let parallel = tree.compile().with_n_threads(threads);

    let mut group = c.benchmark_group("predict_engine");
    group.sample_size(10);
    group.throughput(Throughput::Elements(data.len() as u64));
    group.bench_function("interpreted/60k", |b| {
        b.iter(|| {
            (0..data.len())
                .map(|i| tree.predict(data.sample(i)))
                .collect::<Vec<f64>>()
        })
    });
    group.bench_function("compiled_serial/60k", |b| {
        b.iter(|| serial.predict_batch(&data))
    });
    group.bench_function(&format!("compiled_par{threads}/60k"), |b| {
        b.iter(|| parallel.predict_batch(&data))
    });
    group.finish();
}

criterion_group!(benches, bench_predict, bench_engines);
criterion_main!(benches);
