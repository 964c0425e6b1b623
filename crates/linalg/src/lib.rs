//! # drcell-linalg — dense linear algebra substrate
//!
//! Self-contained dense linear algebra used throughout the DR-Cell
//! reproduction: the [`Matrix`] type, a few slice helpers, and the
//! decompositions needed by the compressive-sensing inference engine and the
//! neural-network substrate (LU, Cholesky, Householder QR, Jacobi
//! eigendecomposition and SVD).
//!
//! The crate is deliberately small and dependency-free (besides `serde`
//! derives): everything the paper's system needs, nothing more. All numerics
//! are `f64`.
//!
//! ```
//! use drcell_linalg::Matrix;
//!
//! # fn main() -> Result<(), drcell_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]])?;
//! let b = vec![1.0, 2.0];
//! let x = drcell_linalg::solve::solve(&a, &b)?;
//! let r = a.matvec(&x);
//! assert!((r[0] - 1.0).abs() < 1e-12 && (r[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod error;
mod matrix;
mod simd;

pub mod backend;
pub mod decomp;
pub mod gemm;
pub mod kernels;
pub mod solve;
pub mod vector;

pub use backend::BackendKind;
pub use error::LinalgError;
pub use matrix::Matrix;
