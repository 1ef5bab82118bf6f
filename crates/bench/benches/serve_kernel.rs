//! Criterion bench: per-call batch setup cost on the serving hot path.
//!
//! The model server's coalescer calls `predict_batch` on *small*
//! batches — often 1–64 rows between flush triggers — where the
//! per-call kernel setup (resolving used columns, node → lane and term
//! → lane slot maps) used to rival the arithmetic itself. The engine
//! hoists that resolution into a `KernelPlan` built once per compiled
//! tree and cached; this bench times the small-batch sizes the server
//! sees with the plan cached (`plan_cached`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use perfcounters::Dataset;
use spec_bench::{cpu2006_dataset, fit_suite_tree};

/// The first `n` rows of `data` as a standalone probe dataset — the
/// same shape the server's coalescer builds per flushed batch.
fn probe(data: &Dataset, n: usize) -> Dataset {
    let mut out = Dataset::new();
    let b = out.add_benchmark("serve");
    for i in 0..n {
        out.push(data.sample(i).clone(), b);
    }
    out
}

fn bench_serve_kernel(c: &mut Criterion) {
    let data = cpu2006_dataset();
    let tree = fit_suite_tree(&data);
    let cached = tree.compile().with_n_threads(1);

    let mut group = c.benchmark_group("serve_kernel");
    for &batch in &[1usize, 4, 16, 64] {
        let rows = probe(&data, batch);
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_with_input(BenchmarkId::new("plan_cached", batch), &rows, |b, rows| {
            b.iter(|| cached.predict_batch(rows));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_serve_kernel);
criterion_main!(benches);
