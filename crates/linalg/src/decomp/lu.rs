use crate::{LinalgError, Matrix};

/// LU decomposition with partial pivoting: `P·A = L·U`.
///
/// ```
/// use drcell_linalg::{decomp::Lu, Matrix};
///
/// # fn main() -> Result<(), drcell_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]])?;
/// let lu = Lu::new(&a)?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12 && (x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed L (unit lower, below diagonal) and U (upper including diagonal).
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
}

const PIVOT_TOL: f64 = 1e-12;

impl Lu {
    /// Factorises a square matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] if `a` is not square.
    /// * [`LinalgError::Singular`] if a pivot smaller than `1e-12` in absolute
    ///   value is encountered.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::ShapeMismatch {
                op: "lu",
                lhs: a.shape(),
                rhs: a.shape(),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivoting: bring the largest |entry| in column k to row k.
            let mut p = k;
            let mut max = lu[(k, k)].abs();
            for r in (k + 1)..n {
                let v = lu[(r, k)].abs();
                if v > max {
                    max = v;
                    p = r;
                }
            }
            if max < PIVOT_TOL {
                return Err(LinalgError::Singular { pivot: k });
            }
            if p != k {
                for c in 0..n {
                    let tmp = lu[(k, c)];
                    lu[(k, c)] = lu[(p, c)];
                    lu[(p, c)] = tmp;
                }
                perm.swap(k, p);
            }
            let pivot = lu[(k, k)];
            for r in (k + 1)..n {
                let factor = lu[(r, k)] / pivot;
                lu[(r, k)] = factor;
                for c in (k + 1)..n {
                    let delta = factor * lu[(k, c)];
                    lu[(r, c)] -= delta;
                }
            }
        }
        Ok(Lu { lu, perm })
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Apply permutation, then forward/back substitution.
        let mut x: Vec<f64> = self.perm.iter().map(|&i| b[i]).collect();
        for r in 1..n {
            for c in 0..r {
                x[r] -= self.lu[(r, c)] * x[c];
            }
        }
        for r in (0..n).rev() {
            for c in (r + 1)..n {
                x[r] -= self.lu[(r, c)] * x[c];
            }
            x[r] /= self.lu[(r, r)];
        }
        Ok(x)
    }

    /// Solves `A·X = B` for a matrix right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `B.rows() != self.dim()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu_solve_matrix",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        for c in 0..b.cols() {
            let col = self.solve(&b.col(c))?;
            out.set_col(c, &col);
        }
        Ok(out)
    }

    /// Inverse of the factorised matrix.
    ///
    /// # Errors
    ///
    /// Propagates solve failures (cannot occur for a successfully factorised
    /// matrix, but the signature stays honest).
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[
            vec![4.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ])
        .unwrap()
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd3();
        let x_true = [1.0, -2.0, 3.0];
        let b = a.matvec(&x_true);
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd3();
        let inv = Lu::new(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(3), 1e-10));
    }

    #[test]
    fn singular_matrix_rejected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert!(matches!(Lu::new(&a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn non_square_rejected() {
        assert!(Lu::new(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_wrong_length_rejected() {
        let lu = Lu::new(&Matrix::identity(3)).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn solve_matrix_right_hand_side() {
        let a = spd3();
        let lu = Lu::new(&a).unwrap();
        let b = Matrix::from_fn(3, 2, |r, c| (r + c) as f64 + 1.0);
        let x = lu.solve_matrix(&b).unwrap();
        assert!(a.matmul(&x).unwrap().approx_eq(&b, 1e-10));
    }
}
