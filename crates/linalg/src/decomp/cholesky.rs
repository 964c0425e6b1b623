use crate::{LinalgError, Matrix};

/// Cholesky decomposition of a symmetric positive-definite matrix:
/// `A = L·Lᵀ` with `L` lower triangular.
///
/// This is the solver used by the ALS steps of the compressive-sensing
/// inference engine, where the normal-equation systems are small SPD
/// matrices of size `rank × rank`.
///
/// ```
/// use drcell_linalg::{decomp::Cholesky, Matrix};
///
/// # fn main() -> Result<(), drcell_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]])?;
/// let ch = Cholesky::new(&a)?;
/// let x = ch.solve(&[2.0, 1.0])?;
/// let b = a.matvec(&x);
/// assert!((b[0] - 2.0).abs() < 1e-12 && (b[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor; entries above the diagonal are zero.
    l: Matrix,
}

impl Cholesky {
    /// Factorises a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the input is the
    /// caller's responsibility.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] if `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] if a non-positive diagonal
    ///   pivot is encountered.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky",
                lhs: a.shape(),
                rhs: a.shape(),
            });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { column: j });
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / dj;
            }
        }
        Ok(Cholesky { l })
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrows the lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A·x = b` via two triangular solves.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Forward solve L·y = b.
        let mut y = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                y[i] -= self.l[(i, k)] * y[k];
            }
            y[i] /= self.l[(i, i)];
        }
        // Back solve Lᵀ·x = y.
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                y[i] -= self.l[(k, i)] * y[k];
            }
            y[i] /= self.l[(i, i)];
        }
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[
            vec![6.0, 2.0, 1.0],
            vec![2.0, 5.0, 2.0],
            vec![1.0, 2.0, 4.0],
        ])
        .unwrap()
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let rec = ch.l().matmul(&ch.l().transpose()).unwrap();
        assert!(rec.approx_eq(&a, 1e-10));
    }

    #[test]
    fn solve_matches_lu() {
        let a = spd3();
        let b = [1.0, 2.0, 3.0];
        let x_ch = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        let x_lu = crate::decomp::Lu::new(&a).unwrap().solve(&b).unwrap();
        for (c, l) in x_ch.iter().zip(&x_lu) {
            assert!((c - l).abs() < 1e-10);
        }
    }

    #[test]
    fn not_positive_definite_detected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { column: 1 })
        ));
    }

    #[test]
    fn negative_diagonal_detected_immediately() {
        let a = Matrix::from_rows(&[vec![-1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { column: 0 })
        ));
    }

    #[test]
    fn non_square_rejected() {
        assert!(Cholesky::new(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn identity_factors_to_identity() {
        let ch = Cholesky::new(&Matrix::identity(4)).unwrap();
        assert!(ch.l().approx_eq(&Matrix::identity(4), 0.0));
    }

    #[test]
    fn solve_wrong_length_rejected() {
        let ch = Cholesky::new(&Matrix::identity(3)).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
    }
}
