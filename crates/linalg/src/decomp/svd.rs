use crate::decomp::SymmetricEigen;
use crate::{LinalgError, Matrix};

/// Thin singular value decomposition `A = U·diag(σ)·Vᵀ`.
///
/// Computed via the eigendecomposition of the smaller Gram matrix, which is
/// accurate and fast for the small dense matrices produced by the sensing
/// pipeline (at most a few hundred rows). Singular values are returned in
/// descending order.
///
/// ```
/// use drcell_linalg::{decomp::Svd, Matrix};
///
/// # fn main() -> Result<(), drcell_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0], vec![0.0, 0.0]])?;
/// let svd = Svd::new(&a)?;
/// assert!((svd.singular_values()[0] - 4.0).abs() < 1e-9);
/// assert!((svd.singular_values()[1] - 3.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Svd {
    u: Matrix,
    singular_values: Vec<f64>,
    vt: Matrix,
}

impl Svd {
    /// Computes the thin SVD of `a`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] for an empty matrix.
    /// * Propagates [`LinalgError::NoConvergence`] from the Jacobi eigen
    ///   solver (practically unreachable).
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if a.is_empty() {
            return Err(LinalgError::Empty { op: "svd" });
        }
        let (m, n) = a.shape();
        let k = m.min(n);

        // Eigendecompose the smaller Gram matrix.
        if n <= m {
            // AᵀA = V Σ² Vᵀ, then U = A V Σ⁻¹.
            let gram = a.gram();
            let eig = SymmetricEigen::new(&gram)?;
            let sigma: Vec<f64> = eig
                .eigenvalues()
                .iter()
                .take(k)
                .map(|&l| l.max(0.0).sqrt())
                .collect();
            let v = eig.eigenvectors().submatrix(0, n, 0, k);
            let av = a.matmul(&v)?;
            let mut u = Matrix::zeros(m, k);
            for (j, &s) in sigma.iter().enumerate() {
                let col = av.col(j);
                if s > 1e-12 {
                    let scaled: Vec<f64> = col.iter().map(|x| x / s).collect();
                    u.set_col(j, &scaled);
                }
            }
            Ok(Svd {
                u,
                singular_values: sigma,
                vt: v.transpose(),
            })
        } else {
            // AAᵀ = U Σ² Uᵀ, then Vᵀ = Σ⁻¹ Uᵀ A.
            let gram = a.outer_gram();
            let eig = SymmetricEigen::new(&gram)?;
            let sigma: Vec<f64> = eig
                .eigenvalues()
                .iter()
                .take(k)
                .map(|&l| l.max(0.0).sqrt())
                .collect();
            let u = eig.eigenvectors().submatrix(0, m, 0, k);
            let uta = u.transpose().matmul(a)?;
            let mut vt = Matrix::zeros(k, n);
            for (i, &s) in sigma.iter().enumerate() {
                if s > 1e-12 {
                    let row: Vec<f64> = uta.row(i).iter().map(|x| x / s).collect();
                    vt.set_row(i, &row);
                }
            }
            Ok(Svd {
                u,
                singular_values: sigma,
                vt,
            })
        }
    }

    /// Left singular vectors, `m × k`.
    pub fn u(&self) -> &Matrix {
        &self.u
    }

    /// Singular values in descending order, length `k = min(m, n)`.
    pub fn singular_values(&self) -> &[f64] {
        &self.singular_values
    }

    /// Right singular vectors transposed, `k × n`.
    pub fn vt(&self) -> &Matrix {
        &self.vt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn reconstruction_tall_and_wide() {
        for a in [rect(), rect().transpose()] {
            let svd = Svd::new(&a).unwrap();
            let rec = svd
                .u()
                .matmul(&Matrix::diag(svd.singular_values()))
                .unwrap()
                .matmul(svd.vt())
                .unwrap();
            assert!(rec.approx_eq(&a, 1e-9), "failed for shape {:?}", a.shape());
        }
    }

    #[test]
    fn singular_values_descending_nonnegative() {
        let svd = Svd::new(&rect()).unwrap();
        let sv = svd.singular_values();
        assert!(sv.iter().all(|&s| s >= 0.0));
        for w in sv.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn fro_norm_equals_sv_norm() {
        let a = rect();
        let svd = Svd::new(&a).unwrap();
        let sv_norm: f64 = svd
            .singular_values()
            .iter()
            .map(|s| s * s)
            .sum::<f64>()
            .sqrt();
        assert!((sv_norm - a.fro_norm()).abs() < 1e-9);
    }

    #[test]
    fn rank_detects_low_rank() {
        // Outer product has rank 1.
        let u = Matrix::column(&[1.0, 2.0, 3.0]);
        let v = Matrix::row_vector(&[4.0, 5.0]);
        let a = u.matmul(&v).unwrap();
        let svd = Svd::new(&a).unwrap();
        // Tolerance accounts for sqrt amplification of the Jacobi residual.
        let sv = svd.singular_values();
        let tol = 1e-6 * sv[0];
        assert_eq!(sv.iter().filter(|&&s| s > tol).count(), 1);
    }

    #[test]
    fn orthonormal_factors() {
        let svd = Svd::new(&rect()).unwrap();
        let utu = svd.u().transpose().matmul(svd.u()).unwrap();
        assert!(utu.approx_eq(&Matrix::identity(2), 1e-9));
        let vvt = svd.vt().matmul(&svd.vt().transpose()).unwrap();
        assert!(vvt.approx_eq(&Matrix::identity(2), 1e-9));
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(
            Svd::new(&Matrix::default()),
            Err(LinalgError::Empty { .. })
        ));
    }

    #[test]
    fn known_diagonal_singular_values() {
        let a = Matrix::from_rows(&[vec![0.0, -5.0], vec![2.0, 0.0]]).unwrap();
        let svd = Svd::new(&a).unwrap();
        assert!((svd.singular_values()[0] - 5.0).abs() < 1e-9);
        assert!((svd.singular_values()[1] - 2.0).abs() < 1e-9);
    }
}
