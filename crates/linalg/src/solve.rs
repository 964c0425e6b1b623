//! High-level one-shot solvers.
//!
//! Convenience wrappers over the decompositions in [`crate::decomp`] for the
//! common "factor once, solve once" pattern.

use crate::decomp::{Cholesky, Lu};
use crate::{LinalgError, Matrix};

/// Solves the square system `A·x = b` via LU with partial pivoting.
///
/// # Errors
///
/// Propagates factorisation errors ([`LinalgError::Singular`],
/// [`LinalgError::ShapeMismatch`]).
///
/// ```
/// use drcell_linalg::{solve, Matrix};
///
/// # fn main() -> Result<(), drcell_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, -1.0]])?;
/// let x = solve::solve(&a, &[3.0, 1.0])?;
/// assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    Lu::new(a)?.solve(b)
}

/// Solves `A·x = b` for symmetric positive-definite `A` via Cholesky.
///
/// Roughly twice as fast as [`solve`] and the solver of choice for the ALS
/// normal equations in the compressive-sensing engine.
///
/// # Errors
///
/// Propagates [`LinalgError::NotPositiveDefinite`] and shape errors.
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    Cholesky::new(a)?.solve(b)
}

/// Allocation-free [`solve_spd`]: factorises `a` in place (its lower
/// triangle is overwritten with `L`; the strict upper triangle is left
/// untouched) and overwrites `b` with the solution.
///
/// The arithmetic — elimination order, every intermediate product — is
/// exactly [`Cholesky::new`] followed by [`Cholesky::solve`], so the
/// solution is **bit-identical** to `solve_spd(&a, &b)`. This is the
/// per-row kernel of the ALS sweeps, where the caller owns a reusable
/// Gram/rhs scratch and must not allocate per row.
///
/// # Errors
///
/// * [`LinalgError::ShapeMismatch`] if `a` is not square or `b.len()` does
///   not match; `a` and `b` are untouched in this case.
/// * [`LinalgError::NotPositiveDefinite`] on a non-positive pivot; `a` is
///   partially overwritten.
pub fn solve_spd_in_place(a: &mut Matrix, b: &mut [f64]) -> Result<(), LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::ShapeMismatch {
            op: "cholesky",
            lhs: a.shape(),
            rhs: a.shape(),
        });
    }
    let n = a.rows();
    if b.len() != n {
        return Err(LinalgError::ShapeMismatch {
            op: "cholesky_solve",
            lhs: (n, n),
            rhs: (b.len(), 1),
        });
    }
    // In-place Cholesky: column j's entries are read before they are
    // overwritten, and already-final columns k < j are read exactly where
    // `Cholesky::new` reads its `l` — same values, same order.
    for j in 0..n {
        let mut d = a[(j, j)];
        for k in 0..j {
            d -= a[(j, k)] * a[(j, k)];
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { column: j });
        }
        let dj = d.sqrt();
        a[(j, j)] = dj;
        for i in (j + 1)..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= a[(i, k)] * a[(j, k)];
            }
            a[(i, j)] = s / dj;
        }
    }
    // Forward solve L·y = b, then back solve Lᵀ·x = y, in place.
    for i in 0..n {
        for k in 0..i {
            b[i] -= a[(i, k)] * b[k];
        }
        b[i] /= a[(i, i)];
    }
    for i in (0..n).rev() {
        for k in (i + 1)..n {
            b[i] -= a[(k, i)] * b[k];
        }
        b[i] /= a[(i, i)];
    }
    Ok(())
}

/// Solves the ridge-regularised least squares `min ‖A·x − b‖² + λ‖x‖²`
/// through the SPD normal equations `(AᵀA + λI)·x = Aᵀb`.
///
/// # Errors
///
/// * [`LinalgError::ShapeMismatch`] if `b.len() != a.rows()`.
/// * Propagates Cholesky failures when `λ` is zero/negative and `AᵀA` is
///   singular.
pub fn ridge(a: &Matrix, b: &[f64], lambda: f64) -> Result<Vec<f64>, LinalgError> {
    if b.len() != a.rows() {
        return Err(LinalgError::ShapeMismatch {
            op: "ridge",
            lhs: a.shape(),
            rhs: (b.len(), 1),
        });
    }
    let mut gram = a.gram();
    for i in 0..gram.rows() {
        gram[(i, i)] += lambda;
    }
    let atb = a.vecmat(b);
    solve_spd(&gram, &atb)
}

/// Computes the inverse of a square matrix via LU.
///
/// # Errors
///
/// Propagates [`LinalgError::Singular`] and shape errors.
pub fn inverse(a: &Matrix) -> Result<Matrix, LinalgError> {
    Lu::new(a)?.inverse()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_and_solve_spd_agree() {
        let a = Matrix::from_rows(&[vec![5.0, 2.0], vec![2.0, 3.0]]).unwrap();
        let b = [1.0, 4.0];
        let x1 = solve(&a, &b).unwrap();
        let x2 = solve_spd(&a, &b).unwrap();
        for (p, q) in x1.iter().zip(&x2) {
            assert!((p - q).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_spd_in_place_is_bit_identical_to_solve_spd() {
        // Pseudo-random SPD systems across sizes; the in-place kernel must
        // reproduce the allocating path bit for bit (the ALS serial-path
        // refactor depends on it).
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for n in [1usize, 2, 3, 5, 8, 13] {
            let g = Matrix::from_fn(n, n, |_, _| next());
            let mut a = g.gram();
            for i in 0..n {
                a[(i, i)] += n as f64 * 0.5;
            }
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let want = solve_spd(&a, &b).unwrap();
            let mut a_work = a.clone();
            let mut x = b.clone();
            solve_spd_in_place(&mut a_work, &mut x).unwrap();
            assert_eq!(x, want, "n = {n}: in-place SPD solve diverged");
        }
    }

    #[test]
    fn solve_spd_in_place_rejects_bad_shapes_and_pivots() {
        let mut rect = Matrix::zeros(2, 3);
        assert!(solve_spd_in_place(&mut rect, &mut [0.0, 0.0]).is_err());
        let mut ok = Matrix::identity(3);
        assert!(solve_spd_in_place(&mut ok, &mut [1.0]).is_err());
        let mut indef = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        assert!(matches!(
            solve_spd_in_place(&mut indef, &mut [1.0, 1.0]),
            Err(LinalgError::NotPositiveDefinite { column: 1 })
        ));
    }

    #[test]
    fn ridge_shrinks_towards_zero() {
        let a = Matrix::identity(2);
        let b = [2.0, 2.0];
        let x0 = ridge(&a, &b, 0.0).unwrap();
        let x1 = ridge(&a, &b, 1.0).unwrap();
        assert!((x0[0] - 2.0).abs() < 1e-10);
        assert!(
            (x1[0] - 1.0).abs() < 1e-10,
            "λ=1 on identity halves the solution"
        );
    }

    #[test]
    fn ridge_handles_rank_deficiency() {
        // Rank-1 design matrix: plain least squares would fail, ridge succeeds.
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]).unwrap();
        let b = [1.0, 2.0, 3.0];
        let qr = crate::decomp::Qr::new(&a);
        assert!(qr.and_then(|qr| qr.solve_least_squares(&b)).is_err());
        let x = ridge(&a, &b, 1e-6).unwrap();
        // Symmetric problem: both coefficients equal.
        assert!((x[0] - x[1]).abs() < 1e-8);
    }

    #[test]
    fn ridge_shape_mismatch() {
        let a = Matrix::identity(2);
        assert!(ridge(&a, &[1.0], 0.1).is_err());
    }

    #[test]
    fn inverse_of_inverse_is_original() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let inv_inv = inverse(&inverse(&a).unwrap()).unwrap();
        assert!(inv_inv.approx_eq(&a, 1e-9));
    }
}
