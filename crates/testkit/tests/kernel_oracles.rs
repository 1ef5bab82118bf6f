//! Differential oracles for the statistics and baseline kernels behind
//! the `report` quantities: each fast kernel against the straightforward
//! form it replaced, compared with `to_bits`.
//!
//! * `mae_ci` / `correlation_ci` against the generic `bootstrap_ci`
//!   with the statistics passed as closures;
//! * the presorted CART fit against the sort-per-node oracle in
//!   [`testkit::reference::cart_fit`];
//! * the column-major Householder QR against the row-major oracle in
//!   [`testkit::reference::householder_qr`].

use baselines::{CartConfig, RegressionTree};
use mathkit::describe::correlation;
use mathkit::matrix::Matrix;
use mathkit::qr::{least_squares, qr};
use perfcounters::events::EventId;
use perfcounters::{Dataset, Sample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spec_stats::{bootstrap_ci, correlation_ci, mae_ci, BootstrapCi};
use testkit::generators::differential_dataset;
use testkit::reference::{cart_fit, compare_cart, householder_qr, qr_least_squares};

// ---------------------------------------------------------------------
// Bootstrap confidence intervals
// ---------------------------------------------------------------------

fn mae_statistic(p: &[f64], a: &[f64]) -> f64 {
    p.iter().zip(a).map(|(x, y)| (x - y).abs()).sum::<f64>() / p.len() as f64
}

fn correlation_statistic(p: &[f64], a: &[f64]) -> f64 {
    correlation(p, a).unwrap_or(0.0)
}

fn assert_ci_bits(fast: &BootstrapCi, oracle: &BootstrapCi, what: &str) {
    let fields = [
        ("point", fast.point, oracle.point),
        ("lower", fast.lower, oracle.lower),
        ("upper", fast.upper, oracle.upper),
        ("confidence", fast.confidence, oracle.confidence),
    ];
    for (name, f, o) in fields {
        assert_eq!(
            f.to_bits(),
            o.to_bits(),
            "{what}: {name} {f:?} vs oracle {o:?}"
        );
    }
    assert_eq!(fast.n_resamples, oracle.n_resamples, "{what}");
}

/// Paired columns of one shape: noisy predictions, a constant column
/// (every resample's C is 0), signed zeros, ties and non-finite cells.
fn bootstrap_columns(shape: usize, n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let actual: Vec<f64> = (0..n).map(|_| 0.5 + rng.gen::<f64>()).collect();
    match shape {
        0 => {
            let p = actual
                .iter()
                .map(|a| a + 0.1 * (rng.gen::<f64>() - 0.5))
                .collect();
            (p, actual)
        }
        1 => (vec![1.25; n], actual),
        2 => {
            let a = vec![-0.0; n];
            let p = (0..n)
                .map(|i| if i % 3 == 0 { 0.0 } else { -0.0 })
                .collect();
            (p, a)
        }
        3 => {
            let p = (0..n).map(|_| -0.0).collect();
            let a = (0..n)
                .map(|i| if i % 2 == 0 { -0.0 } else { rng.gen::<f64>() })
                .collect();
            (p, a)
        }
        4 => {
            let p = (0..n).map(|_| f64::from(rng.gen_range(0u32..3))).collect();
            let a = (0..n).map(|_| f64::from(rng.gen_range(0u32..2))).collect();
            (p, a)
        }
        _ => {
            let mut p = actual.clone();
            p[n / 2] = f64::NAN;
            p[n - 1] = f64::INFINITY;
            (p, actual)
        }
    }
}

#[test]
fn bootstrap_kernels_match_the_closure_oracle() {
    let mut checks = 0;
    for &n in &[2usize, 3, 7, 4097, 54_000] {
        // The oracle copies every resample; keep the large case short.
        let (resamples, levels): (&[usize], &[f64]) = if n > 10_000 {
            (&[3], &[0.95])
        } else {
            (&[1, 2, 41], &[0.5, 0.9, 0.95, 0.999])
        };
        for shape in 0..6 {
            for seed in [0u64, 7, 0xdead_beef] {
                let (p, a) = bootstrap_columns(shape, n, seed);
                for &n_resamples in resamples {
                    for &confidence in levels {
                        let what = format!(
                            "n={n} shape={shape} seed={seed} B={n_resamples} conf={confidence}"
                        );
                        let fast = mae_ci(&p, &a, n_resamples, confidence, seed).unwrap();
                        let oracle =
                            bootstrap_ci(&p, &a, mae_statistic, n_resamples, confidence, seed)
                                .unwrap();
                        assert_ci_bits(&fast, &oracle, &format!("mae {what}"));
                        let fast = correlation_ci(&p, &a, n_resamples, confidence, seed).unwrap();
                        let oracle = bootstrap_ci(
                            &p,
                            &a,
                            correlation_statistic,
                            n_resamples,
                            confidence,
                            seed,
                        )
                        .unwrap();
                        assert_ci_bits(&fast, &oracle, &format!("C {what}"));
                        checks += 2;
                    }
                }
            }
        }
    }
    assert!(checks > 1000, "{checks}");
}

#[test]
fn constant_predictions_give_a_degenerate_correlation_ci() {
    let (p, a) = bootstrap_columns(1, 500, 3);
    let ci = correlation_ci(&p, &a, 50, 0.95, 3).unwrap();
    assert_eq!((ci.point, ci.lower, ci.upper), (0.0, 0.0, 0.0));
}

#[test]
fn bootstrap_kernels_validate_like_the_oracle() {
    let a = [1.0, 2.0, 3.0];
    for (p, a, b, conf) in [
        (&a[..], &a[..2], 10, 0.95),
        (&a[..1], &a[..1], 10, 0.95),
        (&a[..], &a[..], 0, 0.95),
        (&a[..], &a[..], 10, 1.0),
        (&a[..], &a[..], 10, f64::NAN),
    ] {
        let oracle = bootstrap_ci(p, a, mae_statistic, b, conf, 0).unwrap_err();
        assert_eq!(mae_ci(p, a, b, conf, 0).unwrap_err(), oracle);
        assert_eq!(correlation_ci(p, a, b, conf, 0).unwrap_err(), oracle);
    }
}

// ---------------------------------------------------------------------
// CART
// ---------------------------------------------------------------------

/// A CART stress dataset: a continuous signal, a column of heavy ties,
/// a two-valued column, a constant column, subnormal-scale values and a
/// column mixing `-0.0` and `+0.0`; the target depends on several of
/// them, with tied runs of its own.
fn cart_dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = Dataset::new();
    let label = ds.add_benchmark("cart");
    for _ in 0..n {
        let mut s = Sample::zeros(0.0);
        let signal = rng.gen::<f64>() * 0.02;
        let tied = f64::from(rng.gen_range(0u32..4)) * 0.25;
        let two = if rng.gen_bool(0.3) { 1e-3 } else { 0.0 };
        let tiny = f64::from(rng.gen_range(0u32..5)) * 1e-310;
        let zero = if rng.gen_bool(0.5) { -0.0 } else { 0.0 };
        s.set(EventId::Load, signal);
        s.set(EventId::L2Miss, tied);
        s.set(EventId::DtlbMiss, two);
        s.set(EventId::Div, 3.5);
        s.set(EventId::Simd, tiny);
        s.set(EventId::Mul, if rng.gen_bool(0.2) { 1e-6 } else { zero });
        let mut cpi = 0.5 + 40.0 * signal + tied + if two > 0.0 { 0.75 } else { 0.0 };
        if tiny > 0.0 {
            cpi += 0.125;
        }
        if rng.gen_bool(0.5) {
            cpi += 0.05 * (rng.gen::<f64>() - 0.5);
        }
        s.set_cpi(cpi);
        ds.push(s, label);
    }
    ds
}

#[test]
fn cart_fit_matches_the_sort_per_node_oracle() {
    let mut datasets: Vec<(String, Dataset)> = [1usize, 2, 3, 17, 120, 900]
        .iter()
        .enumerate()
        .map(|(k, &n)| (format!("cart n={n}"), cart_dataset(n, 100 + k as u64)))
        .collect();
    datasets.extend((0..20).map(|d| (format!("differential {d}"), differential_dataset(d))));
    let mut n_checks = 0;
    for (name, data) in &datasets {
        for min_leaf in [1, 2, 8, 50] {
            for max_depth in [0, 1, 3, 12, 30] {
                let config = CartConfig {
                    min_leaf,
                    max_depth,
                };
                let fast = RegressionTree::fit(data, config).unwrap();
                let oracle = cart_fit(data, config);
                if let Err(e) = compare_cart(fast.nodes(), &oracle) {
                    panic!("{name} min_leaf={min_leaf} max_depth={max_depth}: {e}");
                }
                n_checks += 1;
            }
        }
    }
    assert_eq!(n_checks, datasets.len() * 20);
}

// ---------------------------------------------------------------------
// QR and least squares
// ---------------------------------------------------------------------

fn assert_matrix_bits(fast: &Matrix, oracle: &Matrix, what: &str) {
    assert_eq!(fast.shape(), oracle.shape(), "{what}");
    for (k, (f, o)) in fast.as_slice().iter().zip(oracle.as_slice()).enumerate() {
        assert_eq!(
            f.to_bits(),
            o.to_bits(),
            "{what}: element {k}: {f:?} vs {o:?}"
        );
    }
}

/// A design of one shape: random, with a zero column, with duplicated
/// (rank-deficient) columns, with signed zeros, or an intercept column
/// plus quantized features as the OLS baseline builds it.
fn qr_matrix(shape: usize, m: usize, n: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            a[(i, j)] = match shape {
                0 => rng.gen::<f64>() - 0.5,
                1 if j == n / 2 => 0.0,
                2 if j > 0 && j == n - 1 => a[(i, 0)],
                3 if (i + j) % 3 == 0 => -0.0,
                4 if j == 0 => 1.0,
                4 => f64::from(rng.gen_range(0u32..4)) * 1e-3,
                _ => rng.gen::<f64>() * 2e-3,
            };
        }
    }
    a
}

#[test]
fn qr_matches_the_row_major_oracle() {
    for &(m, n) in &[(1, 1), (3, 1), (4, 2), (10, 3), (50, 7), (300, 20)] {
        for shape in 0..6 {
            let seed = (m * 31 + n + shape) as u64;
            let a = qr_matrix(shape, m, n, seed);
            let what = format!("{m}x{n} shape {shape}");
            let fast = qr(&a).unwrap();
            let (q, r) = householder_qr(&a);
            assert_matrix_bits(fast.q(), &q, &format!("Q {what}"));
            assert_matrix_bits(fast.r(), &r, &format!("R {what}"));

            let y: Vec<f64> = (0..m).map(|i| 0.5 + (i % 7) as f64 * 0.125).collect();
            match (least_squares(&a, &y), qr_least_squares(&a, &y)) {
                (Ok(beta), Some(oracle)) => {
                    for (j, (b, o)) in beta.iter().zip(&oracle).enumerate() {
                        assert_eq!(b.to_bits(), o.to_bits(), "beta[{j}] {what}");
                    }
                }
                (Err(_), None) => {}
                (fast, oracle) => panic!("{what}: {fast:?} vs oracle {oracle:?}"),
            }
        }
    }
}
