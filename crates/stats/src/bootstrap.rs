//! Bootstrap confidence intervals for prediction-accuracy metrics.
//!
//! The paper reports point estimates of `C` and MAE; this module adds
//! percentile-bootstrap confidence intervals so the transferability
//! verdicts can be stated with uncertainty — the "statistically rigorous"
//! treatment its related work (reference 18) advocates.

use crate::{Result, StatsError};
use mathkit::describe::correlation;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

/// A percentile-bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BootstrapCi {
    /// The statistic on the full sample.
    pub point: f64,
    /// Lower percentile bound.
    pub lower: f64,
    /// Upper percentile bound.
    pub upper: f64,
    /// Confidence level (e.g. 0.95).
    pub confidence: f64,
    /// Number of bootstrap resamples drawn.
    pub n_resamples: usize,
}

impl BootstrapCi {
    /// True if the interval contains `value`.
    pub fn contains(&self, value: f64) -> bool {
        (self.lower..=self.upper).contains(&value)
    }

    /// Width of the interval.
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }
}

/// Checks the arguments shared by every bootstrap in this module.
fn validate(predicted: &[f64], actual: &[f64], n_resamples: usize, confidence: f64) -> Result<()> {
    if predicted.len() != actual.len() {
        return Err(StatsError::LengthMismatch(format!(
            "{} vs {}",
            predicted.len(),
            actual.len()
        )));
    }
    let n = predicted.len();
    if n < 2 {
        return Err(StatsError::InsufficientData(format!(
            "need >= 2 pairs, got {n}"
        )));
    }
    if !(confidence > 0.0 && confidence < 1.0) {
        return Err(StatsError::Domain(format!(
            "confidence {confidence} outside (0, 1)"
        )));
    }
    if n_resamples == 0 {
        return Err(StatsError::Domain("n_resamples must be positive".into()));
    }
    Ok(())
}

/// The percentile interval of the resampled statistics `stats`.
fn percentile_ci(point: f64, mut stats: Vec<f64>, confidence: f64) -> BootstrapCi {
    let n_resamples = stats.len();
    stats.sort_by(f64::total_cmp);
    let alpha = 1.0 - confidence;
    let lo_idx = ((alpha / 2.0) * n_resamples as f64) as usize;
    let hi_idx = (((1.0 - alpha / 2.0) * n_resamples as f64) as usize).min(n_resamples - 1);
    BootstrapCi {
        point,
        lower: stats[lo_idx],
        upper: stats[hi_idx],
        confidence,
        n_resamples,
    }
}

/// `rng.gen_range(0..n)` with the per-call work hoisted out of the draw:
/// the rejection zone is computed once, and the remainder comes from a
/// multiply by a precomputed reciprocal instead of a 64-bit division.
/// Each draw consumes the same generator outputs and returns the same
/// index as `gen_range`.
struct IndexDraw {
    span: u64,
    zone: u64,
    reciprocal: u64,
}

impl IndexDraw {
    fn new(n: usize) -> IndexDraw {
        let span = n as u64;
        IndexDraw {
            span,
            zone: u64::MAX - (u64::MAX - span + 1) % span,
            reciprocal: u64::MAX / span,
        }
    }

    #[inline]
    fn draw(&self, rng: &mut StdRng) -> usize {
        loop {
            let v = rng.next_u64();
            if v <= self.zone {
                // `reciprocal` is within one of 2^64 / span, so the
                // estimated quotient is exact or one short and a single
                // correction yields the exact `v % span`.
                let q = ((u128::from(v) * u128::from(self.reciprocal)) >> 64) as u64;
                let r = v - q * self.span;
                return if r >= self.span { r - self.span } else { r } as usize;
            }
        }
    }
}

/// Percentile bootstrap of an arbitrary paired statistic
/// `f(predicted, actual)`.
///
/// This is the reference definition: [`mae_ci`] and [`correlation_ci`]
/// return bit-identical intervals to it with their statistics passed as
/// closures, through fused kernels that skip the resample copies.
///
/// # Errors
///
/// * [`StatsError::LengthMismatch`] if the slices differ in length.
/// * [`StatsError::InsufficientData`] if fewer than 2 pairs.
/// * [`StatsError::Domain`] if `confidence` is not in `(0, 1)` or
///   `n_resamples == 0`.
pub fn bootstrap_ci<F>(
    predicted: &[f64],
    actual: &[f64],
    statistic: F,
    n_resamples: usize,
    confidence: f64,
    seed: u64,
) -> Result<BootstrapCi>
where
    F: Fn(&[f64], &[f64]) -> f64,
{
    validate(predicted, actual, n_resamples, confidence)?;
    let n = predicted.len();
    let point = statistic(predicted, actual);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = Vec::with_capacity(n_resamples);
    let mut p_buf = vec![0.0; n];
    let mut a_buf = vec![0.0; n];
    for _ in 0..n_resamples {
        for slot in 0..n {
            let pick = rng.gen_range(0..n);
            p_buf[slot] = predicted[pick];
            a_buf[slot] = actual[pick];
        }
        stats.push(statistic(&p_buf, &a_buf));
    }
    Ok(percentile_ci(point, stats, confidence))
}

/// Bootstrap CI of the mean absolute error: [`bootstrap_ci`] of
/// `Σ|p − a| / n`.
///
/// Each resample is one running sum over a precomputed `|p − a|`
/// column, taken in draw order — the additions the closure makes over a
/// resampled copy, without the copy.
///
/// # Errors
///
/// See [`bootstrap_ci`].
pub fn mae_ci(
    predicted: &[f64],
    actual: &[f64],
    n_resamples: usize,
    confidence: f64,
    seed: u64,
) -> Result<BootstrapCi> {
    validate(predicted, actual, n_resamples, confidence)?;
    let n = predicted.len();
    let abs_err: Vec<f64> = predicted
        .iter()
        .zip(actual)
        .map(|(p, a)| (p - a).abs())
        .collect();
    let point = abs_err.iter().sum::<f64>() / n as f64;
    let draw = IndexDraw::new(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let stats = (0..n_resamples)
        .map(|_| (0..n).map(|_| abs_err[draw.draw(&mut rng)]).sum::<f64>() / n as f64)
        .collect();
    Ok(percentile_ci(point, stats, confidence))
}

/// Bootstrap CI of the correlation coefficient `C`: [`bootstrap_ci`] of
/// `describe::correlation(p, a)`, with 0 for a degenerate resample.
///
/// The draw loop accumulates both means' sums; one more pass over the
/// resample accumulates the cross and squared deviations.
///
/// # Errors
///
/// See [`bootstrap_ci`].
pub fn correlation_ci(
    predicted: &[f64],
    actual: &[f64],
    n_resamples: usize,
    confidence: f64,
    seed: u64,
) -> Result<BootstrapCi> {
    validate(predicted, actual, n_resamples, confidence)?;
    let n = predicted.len();
    let point = correlation(predicted, actual).unwrap_or(0.0);
    let draw = IndexDraw::new(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut xs = vec![0.0; n];
    let mut ys = vec![0.0; n];
    let stats = (0..n_resamples)
        .map(|_| {
            // -0.0 is the neutral element `Iterator::sum` starts from.
            let (mut sum_x, mut sum_y) = (-0.0, -0.0);
            for (x, y) in xs.iter_mut().zip(ys.iter_mut()) {
                let pick = draw.draw(&mut rng);
                *x = predicted[pick];
                *y = actual[pick];
                sum_x += *x;
                sum_y += *y;
            }
            correlation_from_sums(&xs, &ys, sum_x, sum_y)
        })
        .collect();
    Ok(percentile_ci(point, stats, confidence))
}

/// `describe::correlation(xs, ys).unwrap_or(0.0)` for `xs.len() >= 2`,
/// given `Σx` and `Σy` in element order. The three accumulators take
/// the same terms in the same element order as `describe`'s separate
/// covariance and variance passes, so the result is bit-identical.
fn correlation_from_sums(xs: &[f64], ys: &[f64], sum_x: f64, sum_y: f64) -> f64 {
    let mx = sum_x / xs.len() as f64;
    let my = sum_y / ys.len() as f64;
    let (mut sxy, mut sxx, mut syy) = (-0.0, -0.0, -0.0);
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    let dof = (xs.len() - 1) as f64;
    let sx = (sxx / dof).sqrt();
    let sy = (syy / dof).sqrt();
    if sx <= 0.0 || sy <= 0.0 {
        return 0.0;
    }
    (sxy / dof / (sx * sy)).clamp(-1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathkit::sampling::normal;

    fn noisy_pairs(n: usize, noise: f64, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let actual: Vec<f64> = (0..n).map(|i| 1.0 + (i % 10) as f64 * 0.1).collect();
        let predicted: Vec<f64> = actual
            .iter()
            .map(|a| a + normal(&mut rng, 0.0, noise))
            .collect();
        (predicted, actual)
    }

    #[test]
    fn ci_brackets_point_estimate() {
        let (p, a) = noisy_pairs(500, 0.05, 1);
        let ci = mae_ci(&p, &a, 500, 0.95, 2).unwrap();
        assert!(ci.lower <= ci.point && ci.point <= ci.upper);
        assert!(ci.width() > 0.0);
        // MAE of N(0, 0.05) noise is 0.05 * sqrt(2/pi) ~ 0.0399.
        assert!(ci.contains(0.0399), "{ci:?}");
    }

    #[test]
    fn more_data_tightens_interval() {
        let (p1, a1) = noisy_pairs(100, 0.05, 3);
        let (p2, a2) = noisy_pairs(10_000, 0.05, 4);
        let ci1 = mae_ci(&p1, &a1, 300, 0.95, 5).unwrap();
        let ci2 = mae_ci(&p2, &a2, 300, 0.95, 6).unwrap();
        assert!(
            ci2.width() < 0.5 * ci1.width(),
            "{} vs {}",
            ci2.width(),
            ci1.width()
        );
    }

    #[test]
    fn correlation_ci_near_one_for_good_predictions() {
        let (p, a) = noisy_pairs(1000, 0.01, 7);
        let ci = correlation_ci(&p, &a, 300, 0.95, 8).unwrap();
        assert!(ci.lower > 0.99, "{ci:?}");
        assert!(ci.upper <= 1.0 + 1e-12);
    }

    #[test]
    fn perfect_predictions_have_degenerate_mae_ci() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let ci = mae_ci(&a, &a, 100, 0.9, 9).unwrap();
        assert_eq!(ci.point, 0.0);
        assert_eq!(ci.lower, 0.0);
        assert_eq!(ci.upper, 0.0);
    }

    #[test]
    fn input_validation() {
        let a = vec![1.0, 2.0, 3.0];
        assert!(mae_ci(&a, &a[..2], 100, 0.95, 0).is_err());
        assert!(mae_ci(&a[..1], &a[..1], 100, 0.95, 0).is_err());
        assert!(mae_ci(&a, &a, 0, 0.95, 0).is_err());
        assert!(mae_ci(&a, &a, 100, 1.5, 0).is_err());
    }

    #[test]
    fn index_draw_matches_gen_range() {
        for span in [
            1usize,
            2,
            3,
            7,
            4097,
            54_000,
            1 << 32,
            (1 << 63) + 1,
            usize::MAX,
        ] {
            let draw = IndexDraw::new(span);
            let mut fast = StdRng::seed_from_u64(span as u64);
            let mut reference = fast.clone();
            for _ in 0..10_000 {
                assert_eq!(
                    draw.draw(&mut fast),
                    reference.gen_range(0..span),
                    "span {span}"
                );
            }
            assert_eq!(fast, reference, "span {span}: generator streams diverged");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (p, a) = noisy_pairs(200, 0.1, 10);
        let c1 = mae_ci(&p, &a, 200, 0.95, 11).unwrap();
        let c2 = mae_ci(&p, &a, 200, 0.95, 11).unwrap();
        assert_eq!(c1, c2);
    }
}
