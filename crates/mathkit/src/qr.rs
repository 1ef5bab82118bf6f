//! Householder QR factorization and QR-based least squares.
//!
//! QR is the numerically preferred path for the linear models inside the
//! model tree; the normal-equation + ridge path in [`crate::solve`] is the
//! fallback for degenerate leaves.

use crate::matrix::Matrix;
use crate::{MathError, Result};

/// The result of a Householder QR factorization, `a = q * r`.
#[derive(Debug, Clone)]
pub struct QrDecomposition {
    /// Orthonormal factor, `m x n` (thin form).
    q: Matrix,
    /// Upper-triangular factor, `n x n`.
    r: Matrix,
}

impl QrDecomposition {
    /// Borrow of the thin orthonormal factor.
    pub fn q(&self) -> &Matrix {
        &self.q
    }

    /// Borrow of the upper-triangular factor.
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// Smallest absolute diagonal entry of `R`, a cheap rank-deficiency
    /// indicator.
    pub fn min_diag(&self) -> f64 {
        (0..self.r.rows())
            .map(|i| self.r[(i, i)].abs())
            .fold(f64::INFINITY, f64::min)
    }
}

/// Computes the thin Householder QR factorization of `a` (`m >= n`
/// required).
///
/// Every Householder step walks columns, so the factorization runs on
/// column-major working copies (one for `R`, then one for `Q`) and
/// converts back to row-major at the end. Each column sees the same
/// operations in the same order as a walk over the row-major matrix
/// would make, so the factors are the same bits either way.
///
/// # Errors
///
/// Returns [`MathError::ShapeMismatch`] if `a` has more columns than rows.
pub fn qr(a: &Matrix) -> Result<QrDecomposition> {
    let (m, n) = a.shape();
    if m < n {
        return Err(MathError::ShapeMismatch(format!(
            "QR requires rows >= cols, got {m}x{n}"
        )));
    }
    // Reduce a column-major copy to R, keeping the Householder vectors
    // to build Q afterwards.
    let mut r: Vec<Vec<f64>> = vec![Vec::with_capacity(m); n];
    for i in 0..m {
        for (col, &x) in r.iter_mut().zip(a.row(i)) {
            col.push(x);
        }
    }
    let mut vs: Vec<Vec<f64>> = Vec::with_capacity(n);

    for k in 0..n {
        // Build the Householder vector for column k.
        let norm_x = r[k][k..].iter().map(|x| x * x).sum::<f64>().sqrt();
        let mut v = vec![0.0; m - k];
        if norm_x > 0.0 {
            let alpha = if r[k][k] >= 0.0 { -norm_x } else { norm_x };
            v.copy_from_slice(&r[k][k..]);
            v[0] -= alpha;
            let norm_v = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm_v > 0.0 {
                for vi in v.iter_mut() {
                    *vi /= norm_v;
                }
                // Apply H = I - 2 v vᵀ to the trailing submatrix of r.
                for col in &mut r[k..] {
                    reflect(&v, &mut col[k..]);
                }
            }
        }
        vs.push(v);
    }

    // Keep the upper triangle of the thin R; the working copy is done.
    let mut r_thin = Matrix::zeros(n, n);
    for (j, col) in r.iter().enumerate() {
        for (i, &x) in col[..=j].iter().enumerate() {
            r_thin[(i, j)] = x;
        }
    }
    drop(r);

    // Build thin Q by applying the Householder reflections to the first n
    // columns of the identity, in reverse order.
    let mut q: Vec<Vec<f64>> = (0..n)
        .map(|c| {
            let mut col = vec![0.0; m];
            col[c] = 1.0;
            col
        })
        .collect();
    for (k, v) in vs.iter().enumerate().rev() {
        if v.iter().all(|&x| x == 0.0) {
            continue;
        }
        for col in &mut q {
            reflect(v, &mut col[k..]);
        }
    }
    drop(vs);

    let mut q_rows = Matrix::zeros(m, n);
    for i in 0..m {
        for (x, col) in q_rows.row_mut(i).iter_mut().zip(&q) {
            *x = col[i];
        }
    }
    Ok(QrDecomposition {
        q: q_rows,
        r: r_thin,
    })
}

/// Applies the reflection `I - 2 v vᵀ` to one column segment in place.
#[inline]
fn reflect(v: &[f64], col: &mut [f64]) {
    let dot = v.iter().zip(col.iter()).map(|(vi, x)| vi * x).sum::<f64>();
    for (x, vi) in col.iter_mut().zip(v) {
        *x -= 2.0 * vi * dot;
    }
}

/// Solves the least-squares problem `min ||a x - y||` via Householder QR.
///
/// # Errors
///
/// * [`MathError::ShapeMismatch`] if `y.len() != a.rows()` or `a` is wider
///   than tall.
/// * [`MathError::Singular`] if `R` is numerically rank deficient.
///
/// # Examples
///
/// ```
/// use mathkit::matrix::Matrix;
/// use mathkit::qr::least_squares;
///
/// // Overdetermined fit of y = 2x with noise-free data.
/// let a = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
/// let beta = least_squares(&a, &[2.0, 4.0, 6.0]).unwrap();
/// assert!((beta[0] - 2.0).abs() < 1e-12);
/// ```
pub fn least_squares(a: &Matrix, y: &[f64]) -> Result<Vec<f64>> {
    let (m, n) = a.shape();
    if y.len() != m {
        return Err(MathError::ShapeMismatch(format!(
            "target length {} does not match {m} rows",
            y.len()
        )));
    }
    let decomposition = qr(a)?;
    let scale = decomposition.r.max_abs().max(1.0);
    if decomposition.min_diag() <= 1e-10 * scale {
        return Err(MathError::Singular);
    }
    // beta = R^{-1} Qᵀ y
    let qty = decomposition.q.transpose_matvec(y)?;
    let r = &decomposition.r;
    let mut beta = vec![0.0; n];
    for i in (0..n).rev() {
        let mut acc = qty[i];
        for j in (i + 1)..n {
            acc -= r[(i, j)] * beta[j];
        }
        beta[i] = acc / r[(i, i)];
    }
    Ok(beta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qr_reconstructs_input() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0], &[7.0, 8.5]]);
        let d = qr(&a).unwrap();
        let back = d.q().matmul(d.r()).unwrap();
        for i in 0..4 {
            for j in 0..2 {
                assert!((back[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn q_has_orthonormal_columns() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0], &[0.0, 1.0]]);
        let d = qr(&a).unwrap();
        let qtq = d.q().transpose().matmul(d.q()).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((qtq[(i, j)] - expected).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn least_squares_exact_fit() {
        // y = 1 + 2a + 3b
        let a = Matrix::from_rows(&[
            &[1.0, 0.0, 0.0],
            &[1.0, 1.0, 0.0],
            &[1.0, 0.0, 1.0],
            &[1.0, 2.0, 3.0],
        ]);
        let y = [1.0, 3.0, 4.0, 14.0];
        let beta = least_squares(&a, &y).unwrap();
        assert!((beta[0] - 1.0).abs() < 1e-10);
        assert!((beta[1] - 2.0).abs() < 1e-10);
        assert!((beta[2] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn least_squares_minimizes_residual() {
        // Inconsistent system: residual of LS solution must be orthogonal
        // to the column space.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]]);
        let y = [0.0, 1.0, 1.0];
        let beta = least_squares(&a, &y).unwrap();
        let pred = a.matvec(&beta).unwrap();
        let resid: Vec<f64> = pred.iter().zip(&y).map(|(p, t)| t - p).collect();
        let ortho = a.transpose_matvec(&resid).unwrap();
        assert!(ortho.iter().all(|v| v.abs() < 1e-10));
    }

    #[test]
    fn least_squares_rejects_rank_deficient() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        assert_eq!(
            least_squares(&a, &[1.0, 2.0, 3.0]),
            Err(MathError::Singular)
        );
    }

    #[test]
    fn qr_rejects_wide_matrix() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(qr(&a), Err(MathError::ShapeMismatch(_))));
    }

    #[test]
    fn least_squares_rejects_bad_target_length() {
        let a = Matrix::zeros(3, 2);
        assert!(matches!(
            least_squares(&a, &[1.0]),
            Err(MathError::ShapeMismatch(_))
        ));
    }
}
