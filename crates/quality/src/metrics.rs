use serde::{Deserialize, Serialize};

use drcell_datasets::AqiCategory;

use crate::QualityError;

/// The error metric of a sensing task (paper Table 1: "mean absolute error"
/// for Sensor-Scope, "classification error" for U-Air).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorMetric {
    /// Mean absolute error over the evaluated cells (continuous signals).
    MeanAbsolute,
    /// Root mean squared error over the evaluated cells.
    RootMeanSquare,
    /// Fraction of cells whose inferred AQI category differs from the true
    /// AQI category (paper §5.1, U-Air / PM2.5).
    AqiClassification,
}

impl ErrorMetric {
    /// `true` for metrics whose per-cell error is a misclassification flag
    /// rather than a continuous magnitude (drives the choice of Bayesian
    /// model in the assessor).
    pub fn is_classification(self) -> bool {
        matches!(self, ErrorMetric::AqiClassification)
    }

    /// Per-cell error of a single (truth, inferred) pair: absolute error
    /// for continuous metrics, `0.0 / 1.0` misclassification flag for
    /// classification.
    pub fn cell_error(self, truth: f64, inferred: f64) -> f64 {
        match self {
            ErrorMetric::MeanAbsolute | ErrorMetric::RootMeanSquare => (truth - inferred).abs(),
            ErrorMetric::AqiClassification => {
                if AqiCategory::from_pm25(truth) == AqiCategory::from_pm25(inferred) {
                    0.0
                } else {
                    1.0
                }
            }
        }
    }

    /// Cycle-level error over the cells listed in `subset`.
    ///
    /// * `MeanAbsolute` — mean of `|truth − inferred|`;
    /// * `RootMeanSquare` — RMS of the differences;
    /// * `AqiClassification` — fraction misclassified.
    ///
    /// An empty subset yields `0.0` (nothing to get wrong).
    ///
    /// # Errors
    ///
    /// * [`QualityError::LengthMismatch`] if the slices differ in length.
    /// * [`QualityError::IndexOutOfRange`] for a bad subset index.
    pub fn cycle_error(
        self,
        truth: &[f64],
        inferred: &[f64],
        subset: &[usize],
    ) -> Result<f64, QualityError> {
        if truth.len() != inferred.len() {
            return Err(QualityError::LengthMismatch {
                truth: truth.len(),
                inferred: inferred.len(),
            });
        }
        if subset.is_empty() {
            return Ok(0.0);
        }
        let mut acc = 0.0;
        for &i in subset {
            if i >= truth.len() {
                return Err(QualityError::IndexOutOfRange {
                    index: i,
                    cells: truth.len(),
                });
            }
            let e = self.cell_error(truth[i], inferred[i]);
            acc += match self {
                ErrorMetric::RootMeanSquare => e * e,
                _ => e,
            };
        }
        let mean = acc / subset.len() as f64;
        Ok(match self {
            ErrorMetric::RootMeanSquare => mean.sqrt(),
            _ => mean,
        })
    }
}

/// The (ε, p)-quality requirement of a sensing task (paper Definition 6):
/// in at least `p·100%` of cycles the inference error must be ≤ ε.
///
/// ```
/// use drcell_quality::QualityRequirement;
///
/// let req = QualityRequirement::new(0.3, 0.95).unwrap();
/// assert!(QualityRequirement::new(-0.1, 0.9).is_err());
/// assert!(QualityRequirement::new(0.3, 1.5).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QualityRequirement {
    /// Error bound ε (same unit as the metric: °C, %, or a misclassified
    /// fraction in `[0, 1]`).
    pub epsilon: f64,
    /// Confidence level p in `(0, 1]`.
    pub p: f64,
}

impl QualityRequirement {
    /// Creates a requirement, validating the domain.
    ///
    /// # Errors
    ///
    /// Returns [`QualityError::InvalidParameter`] for `epsilon < 0` or
    /// `p ∉ (0, 1]`.
    pub fn new(epsilon: f64, p: f64) -> Result<Self, QualityError> {
        if !epsilon.is_finite() || epsilon < 0.0 {
            return Err(QualityError::InvalidParameter {
                name: "epsilon",
                value: epsilon,
                expected: "finite and >= 0",
            });
        }
        if !p.is_finite() || p <= 0.0 || p > 1.0 {
            return Err(QualityError::InvalidParameter {
                name: "p",
                value: p,
                expected: "in (0, 1]",
            });
        }
        Ok(QualityRequirement { epsilon, p })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mae_known() {
        let m = ErrorMetric::MeanAbsolute;
        let e = m
            .cycle_error(&[1.0, 2.0, 3.0], &[2.0, 2.0, 1.0], &[0, 1, 2])
            .unwrap();
        assert!((e - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rmse_known() {
        let m = ErrorMetric::RootMeanSquare;
        let e = m.cycle_error(&[0.0, 0.0], &[3.0, 4.0], &[0, 1]).unwrap();
        assert!((e - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn classification_error_counts_category_flips() {
        let m = ErrorMetric::AqiClassification;
        // 40 vs 45: both Good. 40 vs 60: Good vs Moderate -> error.
        let e = m
            .cycle_error(&[40.0, 40.0], &[45.0, 60.0], &[0, 1])
            .unwrap();
        assert!((e - 0.5).abs() < 1e-12);
    }

    #[test]
    fn subset_restricts_evaluation() {
        let m = ErrorMetric::MeanAbsolute;
        let e = m.cycle_error(&[1.0, 100.0], &[1.0, 0.0], &[0]).unwrap();
        assert_eq!(e, 0.0);
    }

    #[test]
    fn empty_subset_is_zero_error() {
        let m = ErrorMetric::MeanAbsolute;
        assert_eq!(m.cycle_error(&[1.0], &[9.0], &[]).unwrap(), 0.0);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let m = ErrorMetric::MeanAbsolute;
        assert!(matches!(
            m.cycle_error(&[1.0], &[1.0, 2.0], &[0]),
            Err(QualityError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn out_of_range_subset_rejected() {
        let m = ErrorMetric::MeanAbsolute;
        assert!(matches!(
            m.cycle_error(&[1.0], &[1.0], &[3]),
            Err(QualityError::IndexOutOfRange { .. })
        ));
    }

    #[test]
    fn is_classification_flags() {
        assert!(ErrorMetric::AqiClassification.is_classification());
        assert!(!ErrorMetric::MeanAbsolute.is_classification());
        assert!(!ErrorMetric::RootMeanSquare.is_classification());
    }

    #[test]
    fn requirement_validation() {
        assert!(QualityRequirement::new(0.0, 1.0).is_ok());
        assert!(QualityRequirement::new(0.3, 0.0).is_err());
        assert!(QualityRequirement::new(f64::NAN, 0.5).is_err());
    }
}
