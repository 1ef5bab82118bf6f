//! Criterion bench: per-node split search.
//!
//! Compares the presorted columnar scan (sort once at the root, maintain
//! sorted order by stable partition, prefix-sum threshold scans) against
//! the naive algorithm it replaced, which re-sorted every attribute at
//! every node. The `presorted` timings measure [`find_best_split`] (and
//! with it the vectorized threshold scan) with the [`NodeSet`] built
//! outside the loop — the true per-node cost during tree growth — while
//! `naive` pays the per-node sort each call, as the old implementation
//! did.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use modeltree::split::{find_best_split, Columns, SortArena, Split, TargetStats};
use perfcounters::{Dataset, EventId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use workloads::generator::{GeneratorConfig, Suite};

/// The pre-rewrite algorithm: gather `(value, cpi)` pairs and sort every
/// attribute at every node, then scan thresholds with running sums.
fn naive_best_split(data: &Dataset, min_leaf: usize) -> Option<Split> {
    let n = data.len();
    if n < 2 * min_leaf {
        return None;
    }
    let cpi: Vec<f64> = data.cpis();
    let total_sum: f64 = cpi.iter().sum();
    let total_sum_sq: f64 = cpi.iter().map(|y| y * y).sum();
    let mean = total_sum / n as f64;
    let total_sd = (total_sum_sq / n as f64 - mean * mean).max(0.0).sqrt();
    if total_sd <= 0.0 {
        return None;
    }
    let mut best: Option<Split> = None;
    for event in EventId::ALL {
        let mut pairs: Vec<(f64, f64)> = (0..n)
            .map(|i| (data.sample(i).get(event), cpi[i]))
            .collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        if pairs[0].0 == pairs[n - 1].0 {
            continue;
        }
        let mut left_n = 0.0;
        let mut left_sum = 0.0;
        let mut left_sum_sq = 0.0;
        for i in 0..n - 1 {
            let (value, y) = pairs[i];
            left_n += 1.0;
            left_sum += y;
            left_sum_sq += y * y;
            let next_value = pairs[i + 1].0;
            if value == next_value || i + 1 < min_leaf || n - i - 1 < min_leaf {
                continue;
            }
            let right_n = n as f64 - left_n;
            let sd = |count: f64, sum: f64, sum_sq: f64| -> f64 {
                let m = sum / count;
                (sum_sq / count - m * m).max(0.0).sqrt()
            };
            let left_sd = sd(left_n, left_sum, left_sum_sq);
            let right_sd = sd(right_n, total_sum - left_sum, total_sum_sq - left_sum_sq);
            let sdr = total_sd - (left_n / n as f64) * left_sd - (right_n / n as f64) * right_sd;
            if sdr > best.map_or(1e-12 * total_sd, |b| b.sdr) {
                best = Some(Split {
                    event,
                    threshold: 0.5 * (value + next_value),
                    sdr,
                });
            }
        }
    }
    best
}

fn bench_split_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("split_search");
    group.sample_size(20);
    for &n in &[5_000usize, 20_000, 50_000] {
        let mut rng = StdRng::seed_from_u64(20_080_403);
        let data = Suite::cpu2006().generate(&mut rng, n, &GeneratorConfig::default());
        let min_leaf = (n / 120).max(4);

        let cols = Columns::new(&data);
        let mut arena = SortArena::root(&cols);
        let set = arena.node_set();
        let stats = TargetStats::compute(cols.cpi, &set.indices);

        group.bench_with_input(BenchmarkId::new("presorted", n), &(), |b, ()| {
            b.iter(|| find_best_split(&cols, &set, min_leaf, &stats, 1))
        });
        group.bench_with_input(BenchmarkId::new("presorted_par4", n), &(), |b, ()| {
            b.iter(|| find_best_split(&cols, &set, min_leaf, &stats, 4))
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &data, |b, data| {
            b.iter(|| naive_best_split(data, min_leaf))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_split_search);
criterion_main!(benches);
