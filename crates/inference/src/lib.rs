//! # drcell-inference — data inference for Sparse MCS
//!
//! In Sparse MCS only a few cells are sensed per cycle; the rest are
//! *inferred*. The DR-Cell loop completes with one algorithm; the QBC
//! baseline adds the interpolators its committee votes with:
//!
//! * [`CompressiveSensing`] — low-rank matrix completion via alternating
//!   least squares, "the de facto choice of the inference algorithm" in
//!   Sparse MCS (paper §3, Definition 5; Candès & Recht 2009, Donoho 2006),
//! * [`KnnInference`] — spatial K-nearest-neighbour / inverse-distance
//!   interpolation (a QBC committee member, per Wang et al. SPACE-TA),
//! * [`TemporalInference`] — per-cell temporal interpolation (a QBC
//!   committee member),
//! * [`GlobalMeanInference`] — the trivial baseline,
//! * [`Committee`] — a query-by-committee ensemble that measures per-cell
//!   disagreement, the selection criterion of the QBC baseline (paper §5.2).
//!
//! The leave-one-out hot path of the (ε, p)-quality assessment has two
//! interchangeable backends behind the [`LooSolver`] trait (selected by
//! [`AssessmentBackend`]): the reference [`NaiveLooSolver`] (one
//! from-scratch completion per hidden entry) and the [`BatchedLooEngine`]
//! (shared base factorisation, cached Grams with rank-1 downdates, warm
//! starts across selections — same sweep arithmetic, ~10× faster).
//!
//! All algorithms consume an [`ObservedMatrix`] (values + observation mask)
//! and produce a completed [`drcell_datasets::DataMatrix`].
//!
//! ```
//! use drcell_inference::{
//!     CompressiveSensing, CompressiveSensingConfig, InferenceAlgorithm, ObservedMatrix,
//! };
//!
//! # fn main() -> Result<(), drcell_inference::InferenceError> {
//! // Rank-1 ground truth: d[i][t] = (i+1)·(t+1), ~80% observed.
//! // (A scattered mask matters: structured masks like a checkerboard make
//! // completion non-identifiable.)
//! let mut obs = ObservedMatrix::new(4, 5);
//! for i in 0..4 {
//!     for t in 0..5 {
//!         if (i * 3 + t * 7) % 5 != 0 {
//!             obs.observe(i, t, ((i + 1) * (t + 1)) as f64);
//!         }
//!     }
//! }
//! let cs = CompressiveSensing::new(CompressiveSensingConfig {
//!     rank: 2,
//!     ..Default::default()
//! })?;
//! let filled = cs.complete(&obs)?;
//! assert!((filled.value(1, 2) - 6.0).abs() < 0.5);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod als;
mod committee;
mod compressive;
mod error;
mod knn;
mod loo;
mod observed;
mod temporal;

pub use committee::Committee;
pub use compressive::{CompressiveSensing, CompressiveSensingConfig};
pub use error::InferenceError;
pub use knn::KnnInference;
pub use loo::{AssessmentBackend, BatchedLooEngine, EngineStats, LooSolver, NaiveLooSolver};
pub use observed::ObservedMatrix;
pub use temporal::{GlobalMeanInference, TemporalInference};

use drcell_datasets::DataMatrix;

/// A data-inference algorithm that completes a partially observed
/// cell × cycle matrix.
///
/// Implementations must preserve observed entries exactly and fill every
/// unobserved entry with a finite value.
pub trait InferenceAlgorithm: Send + Sync {
    /// Completes the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`InferenceError::NoObservations`] when the input has no
    /// observed entries at all, or algorithm-specific numerical failures.
    fn complete(&self, obs: &ObservedMatrix) -> Result<DataMatrix, InferenceError>;

    /// Human-readable algorithm name (used in committee diagnostics).
    fn name(&self) -> &'static str;
}
