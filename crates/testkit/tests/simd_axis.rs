//! SIMD-axis verification: the vectorized batch kernel against its
//! per-sample oracle.
//!
//! The contract of the batch kernel is *bit-identity*: at any block
//! size, including degenerate ones that force scalar lane tails on
//! every block, `predict_batch`, `predict_indices` and `classify_batch`
//! must return exactly the bits of per-sample `CompiledTree::predict` /
//! `CompiledTree::classify`, which share none of the kernel's blocking,
//! partition or lane bookkeeping. These tests sweep that axis across
//! the differential corner lattice, re-run the canonical E2 (CPU2006)
//! experiment predictions both ways byte for byte, and check the
//! engine's row- and block-accounting telemetry.

use std::sync::Mutex;

use modeltree::{CompiledTree, ModelTree};
use perfcounters::Dataset;
use testkit::corner_lattice;
use testkit::generators::differential_dataset;

/// Serializes tests that flip the process-global telemetry switch
/// (same pattern as the observability suite; integration-test files
/// are separate processes, so cross-file interference is impossible).
static TELEMETRY: Mutex<()> = Mutex::new(());

struct Guard;

impl Guard {
    fn acquire() -> (std::sync::MutexGuard<'static, ()>, Guard) {
        let lock = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
        obskit::set_enabled(false, false);
        obskit::metrics::reset();
        obskit::span::reset();
        (lock, Guard)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        obskit::set_enabled(false, false);
        obskit::metrics::reset();
        obskit::span::reset();
    }
}

fn assert_bitwise_equal(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: row {i}: {x} vs {y}");
    }
}

/// Per-sample oracle predictions for every row of `data`.
fn per_sample(engine: &CompiledTree, data: &Dataset) -> Vec<f64> {
    (0..data.len())
        .map(|i| engine.predict(data.sample(i)))
        .collect()
}

/// Per-sample oracle classifications for every row of `data`.
fn per_sample_classes(engine: &CompiledTree, data: &Dataset) -> Vec<u32> {
    (0..data.len())
        .map(|i| engine.classify(data.sample(i)) as u32)
        .collect()
}

/// `data` repeated until it holds at least `rows` rows.
fn tiled(base: &Dataset, rows: usize) -> Dataset {
    let mut data = Dataset::new();
    let label = data.add_benchmark("tiled");
    while data.len() < rows {
        for (sample, _) in base.iter() {
            data.push(sample.clone(), label);
        }
    }
    data
}

/// Batch kernel vs per-sample oracle across the differential corner
/// lattice: predictions, classifications, and subset predictions must
/// agree bit for bit, including at block sizes that leave lane tails
/// on every block.
#[test]
fn simd_engine_is_bit_identical_across_corner_lattice() {
    let corners = corner_lattice();
    for d in 0..12 {
        let data = differential_dataset(d);
        for corner in corners.iter().step_by(5) {
            let tree = ModelTree::fit(&data, &corner.config).unwrap();
            let engine = CompiledTree::new(&tree).with_n_threads(1);
            let oracle = per_sample(&engine, &data);
            assert_bitwise_equal(
                &oracle,
                &engine.predict_batch(&data),
                &format!("dataset {d} [{}]", corner.name),
            );
            assert_eq!(
                per_sample_classes(&engine, &data),
                engine.classify_batch(&data),
                "dataset {d} [{}]: classify diverged",
                corner.name
            );
            // Stride-3 subset exercises the gathered (index-list) path.
            let subset: Vec<u32> = (0..data.len() as u32).step_by(3).collect();
            let oracle_subset: Vec<f64> = subset.iter().map(|&i| oracle[i as usize]).collect();
            assert_bitwise_equal(
                &oracle_subset,
                &engine.predict_indices(&data, &subset),
                &format!("dataset {d} [{}] indices", corner.name),
            );
            // Tiny blocks force lane tails and multi-block descent on
            // every batch; results must not move.
            for rows in [8usize, 64] {
                let small = CompiledTree::new(&tree)
                    .with_n_threads(1)
                    .with_block_rows(rows);
                assert_bitwise_equal(
                    &oracle,
                    &small.predict_batch(&data),
                    &format!("dataset {d} [{}] block_rows={rows}", corner.name),
                );
                assert_bitwise_equal(
                    &oracle_subset,
                    &small.predict_indices(&data, &subset),
                    &format!("dataset {d} [{}] indices block_rows={rows}", corner.name),
                );
            }
        }
    }
}

/// Lane-tail edge shapes: batch sizes around every lane boundary, the
/// single row, and sizes that leave each possible tail length.
#[test]
fn lane_tails_and_tiny_batches_are_bit_identical() {
    let data = differential_dataset(3);
    let config = corner_lattice()[0].config;
    let tree = ModelTree::fit(&data, &config).unwrap();
    let engine = CompiledTree::new(&tree).with_n_threads(1);
    let oracle = per_sample(&engine, &data);
    for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 33, 63, 65] {
        if n > data.len() {
            break;
        }
        let subset: Vec<u32> = (0..n as u32).collect();
        assert_bitwise_equal(
            &oracle[..n],
            &engine.predict_indices(&data, &subset),
            &format!("n={n}"),
        );
    }
}

/// The canonical E2 (CPU2006 60k-sample) experiment predictions: the
/// engine that produced the checked-in `results/` artifacts must emit
/// byte-for-byte the predictions of the per-sample oracle, serial and
/// parallel.
#[test]
fn e2_predictions_are_byte_identical_to_per_sample() {
    let data = spec_bench::cpu2006_dataset();
    let tree = spec_bench::fit_suite_tree(&data);
    let engine = tree.compile().with_n_threads(1);
    let oracle = per_sample(&engine, &data);
    // Byte-for-byte: compare the raw little-endian rendering, the same
    // bytes any serialized artifact of these predictions would contain.
    let bytes = |p: &[f64]| -> Vec<u8> { p.iter().flat_map(|v| v.to_le_bytes()).collect() };
    assert_eq!(
        bytes(&oracle),
        bytes(&engine.predict_batch(&data)),
        "E2 batch predictions differ from the per-sample bytes"
    );
    // And the parallel engine agrees too, regardless of chunking.
    let parallel = tree.compile().with_n_threads(4);
    assert_bitwise_equal(&oracle, &parallel.predict_batch(&data), "parallel E2");
}

/// Engine accounting: over a full batch every row is evaluated at
/// exactly one leaf, so `engine.simd_rows + engine.scalar_tail_rows`
/// must equal the batch size; and `engine.blocks` counts the blocks the
/// kernel actually runs — `ceil(len / r)` per thread chunk at block
/// size `r`.
#[test]
fn simd_counters_account_for_every_row() {
    use obskit::metrics::{value, Metric};
    let (_lock, _guard) = Guard::acquire();
    let base = differential_dataset(1);
    let config = corner_lattice()[0].config;
    let tree = ModelTree::fit(&base, &config).unwrap();
    // Tile the rows so every leaf sees full vector lanes (the base
    // differential datasets are deliberately tiny) and so a 2-thread
    // budget really splits the batch (each worker needs 1024 rows).
    let data = tiled(&base, 4096);
    let n = data.len();

    obskit::metrics::reset();
    obskit::set_enabled(true, false);
    let out = CompiledTree::new(&tree)
        .with_n_threads(1)
        .predict_batch(&data);
    obskit::set_enabled(false, false);
    assert_eq!(out.len(), n);
    let simd_rows = value(Metric::EngineSimdRows);
    let tail_rows = value(Metric::EngineScalarTailRows);
    assert_eq!(
        simd_rows + tail_rows,
        n as u64,
        "simd {simd_rows} + tail {tail_rows} != batch {n}"
    );
    assert!(simd_rows > 0, "no rows took the vector path");

    // The engine hands each of `threads` workers one contiguous
    // `ceil(n / threads)`-row chunk (the last takes the remainder).
    let chunk_lens = |threads: usize| -> Vec<usize> {
        let chunk = n.div_ceil(threads);
        (0..n).step_by(chunk).map(|s| chunk.min(n - s)).collect()
    };
    let blocks = |run: &dyn Fn()| -> u64 {
        obskit::metrics::reset();
        obskit::set_enabled(true, false);
        run();
        obskit::set_enabled(false, false);
        value(Metric::EngineBlocks)
    };
    let indices: Vec<u32> = (0..n as u32).rev().collect();
    for threads in [1usize, 2] {
        for r in [8usize, 100, 1000, 5000] {
            let expect: u64 = chunk_lens(threads)
                .iter()
                .map(|&len| len.div_ceil(r) as u64)
                .sum();
            let engine = CompiledTree::new(&tree)
                .with_n_threads(threads)
                .with_block_rows(r);
            let what = format!("threads={threads} block_rows={r} rows={n}");
            let got = blocks(&|| drop(engine.predict_batch(&data)));
            assert_eq!(got, expect, "predict_batch: {what}");
            let got = blocks(&|| drop(engine.classify_batch(&data)));
            assert_eq!(got, expect, "classify_batch: {what}");
            let got = blocks(&|| drop(engine.predict_indices(&data, &indices)));
            assert_eq!(got, expect, "predict_indices: {what}");
        }
    }
}
