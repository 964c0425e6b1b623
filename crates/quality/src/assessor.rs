use drcell_inference::{InferenceAlgorithm, LooSolver, NaiveLooSolver, ObservedMatrix};
use drcell_stats::bayes::{BetaBernoulli, NormalInverseGamma};

use crate::{ErrorMetric, QualityError, QualityRequirement};

/// The result of one quality assessment: the estimated probability that the
/// current cycle's inference error is within ε, plus diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityAssessment {
    /// Estimated `P(cycle error ≤ ε)` for the unsensed cells.
    pub probability: f64,
    /// Leave-one-out reconstruction errors of the sensed cells (absolute
    /// errors for continuous metrics, 0/1 flags for classification).
    pub loo_errors: Vec<f64>,
    /// Number of unsensed cells whose error the probability refers to.
    pub unsensed: usize,
    /// `true` when `probability >= p` — the cycle may stop collecting.
    pub satisfied: bool,
}

/// Leave-one-out Bayesian (ε, p)-quality assessor (paper §3 Definition 6 and
/// §5.3; methodology from CCS-TA).
///
/// The assessor owns the task's requirement and metric; each call to
/// [`QualityAssessor::assess`] evaluates one cycle of an observation window
/// against an inference algorithm.
#[derive(Debug, Clone)]
pub struct QualityAssessor {
    requirement: QualityRequirement,
    metric: ErrorMetric,
}

/// Floor of the continuous error model's prior scale, which is ε itself
/// (roughly "how large could errors plausibly be before seeing data"); the
/// floor keeps the prior proper when ε is 0.
const MIN_PRIOR_SCALE: f64 = 1e-6;

impl QualityAssessor {
    /// Creates an assessor with a weak prior scaled to ε.
    pub fn new(requirement: QualityRequirement, metric: ErrorMetric) -> Self {
        QualityAssessor {
            requirement,
            metric,
        }
    }

    /// The (ε, p) requirement being enforced.
    pub fn requirement(&self) -> QualityRequirement {
        self.requirement
    }

    /// The task's error metric.
    pub fn metric(&self) -> ErrorMetric {
        self.metric
    }

    /// Assesses the quality of `cycle` within the observation window `obs`.
    ///
    /// For every cell sensed at `cycle`, its observation is hidden, the
    /// matrix re-inferred with `algo`, and the reconstruction error at that
    /// cell recorded; the Bayesian posterior over those errors is then
    /// queried for `P(error of the unsensed cells ≤ ε)`.
    ///
    /// Edge cases: with fewer than 2 sensed cells the probability is `0.0`
    /// (no leave-one-out evidence — keep sensing); with zero unsensed cells
    /// it is `1.0` (everything was measured directly).
    ///
    /// # Errors
    ///
    /// * [`QualityError::IndexOutOfRange`] for a bad cycle index.
    /// * Propagates inference and statistics failures.
    pub fn assess(
        &self,
        obs: &ObservedMatrix,
        cycle: usize,
        algo: &dyn InferenceAlgorithm,
    ) -> Result<QualityAssessment, QualityError> {
        self.assess_with(obs, cycle, &mut NaiveLooSolver::new(algo))
    }

    /// Assesses the quality of `cycle` using an explicit leave-one-out
    /// solver — the entry point backends plug into: pass a
    /// [`NaiveLooSolver`] for the reference from-scratch semantics or a
    /// [`drcell_inference::BatchedLooEngine`] for the batched fast path
    /// (same edge cases and Bayesian model as [`QualityAssessor::assess`]).
    ///
    /// # Errors
    ///
    /// * [`QualityError::IndexOutOfRange`] for a bad cycle index.
    /// * Propagates inference and statistics failures.
    ///
    /// # Panics
    ///
    /// Panics if the solver violates its contract by returning a different
    /// number of predictions than cells it was asked about.
    pub fn assess_with(
        &self,
        obs: &ObservedMatrix,
        cycle: usize,
        solver: &mut dyn LooSolver,
    ) -> Result<QualityAssessment, QualityError> {
        if cycle >= obs.cycles() {
            return Err(QualityError::IndexOutOfRange {
                index: cycle,
                cells: obs.cycles(),
            });
        }
        let sensed = obs.observed_cells_at(cycle);
        let unsensed = obs.cells() - sensed.len();

        if unsensed == 0 {
            return Ok(QualityAssessment {
                probability: 1.0,
                loo_errors: Vec::new(),
                unsensed: 0,
                satisfied: true,
            });
        }
        if sensed.len() < 2 {
            return Ok(QualityAssessment {
                probability: 0.0,
                loo_errors: Vec::new(),
                unsensed,
                satisfied: false,
            });
        }

        // Leave-one-out reconstruction errors.
        let predictions = solver.loo_predict(obs, cycle, &sensed)?;
        assert_eq!(
            predictions.len(),
            sensed.len(),
            "LooSolver `{}` returned {} predictions for {} sensed cells",
            solver.name(),
            predictions.len(),
            sensed.len()
        );
        let loo_errors: Vec<f64> = sensed
            .iter()
            .zip(&predictions)
            .map(|(&cell, &predicted)| {
                let truth = obs.get(cell, cycle).expect("sensed cell has a value");
                self.metric.cell_error(truth, predicted)
            })
            .collect();

        let probability = if self.metric.is_classification() {
            let mut model = BetaBernoulli::uniform_prior();
            for &e in &loo_errors {
                model.observe(e > 0.5);
            }
            model.prob_error_rate_at_most(self.requirement.epsilon.min(1.0), unsensed)?
        } else {
            let prior_scale = self.requirement.epsilon.max(MIN_PRIOR_SCALE);
            let mut model = NormalInverseGamma::weak_prior(prior_scale, prior_scale);
            model.observe_all(&loo_errors);
            model.prob_mean_below(self.requirement.epsilon, unsensed)?
        };

        Ok(QualityAssessment {
            probability,
            loo_errors,
            unsensed,
            satisfied: probability >= self.requirement.p,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcell_datasets::{CellGrid, DataMatrix};
    use drcell_inference::KnnInference;

    /// A smooth linear field over a line of cells.
    fn smooth_world(cells: usize, cycles: usize) -> (CellGrid, DataMatrix) {
        let grid = CellGrid::full_grid(1, cells, 10.0, 10.0);
        let truth = DataMatrix::from_fn(cells, cycles, |i, t| i as f64 * 0.1 + t as f64 * 0.01);
        (grid, truth)
    }

    fn requirement(eps: f64) -> QualityRequirement {
        QualityRequirement::new(eps, 0.9).unwrap()
    }

    #[test]
    fn smooth_field_many_sensors_high_probability() {
        let (grid, truth) = smooth_world(10, 3);
        // Sense every other cell in cycle 2.
        let obs = ObservedMatrix::from_selection(&truth, |i, t| t < 2 || i % 2 == 0);
        let knn = KnnInference::new(grid, 2).unwrap();
        let assessor = QualityAssessor::new(requirement(0.5), ErrorMetric::MeanAbsolute);
        let a = assessor.assess(&obs, 2, &knn).unwrap();
        assert!(
            a.probability > 0.9,
            "smooth field should assess high: {}",
            a.probability
        );
        assert!(a.satisfied);
        assert_eq!(a.loo_errors.len(), 5);
        assert_eq!(a.unsensed, 5);
    }

    #[test]
    fn tight_epsilon_lowers_probability() {
        let (grid, truth) = smooth_world(10, 3);
        let obs = ObservedMatrix::from_selection(&truth, |i, t| t < 2 || i % 3 == 0);
        let knn = KnnInference::new(grid, 2).unwrap();
        let loose = QualityAssessor::new(requirement(0.5), ErrorMetric::MeanAbsolute)
            .assess(&obs, 2, &knn)
            .unwrap();
        let tight = QualityAssessor::new(requirement(1e-4), ErrorMetric::MeanAbsolute)
            .assess(&obs, 2, &knn)
            .unwrap();
        assert!(loose.probability > tight.probability);
    }

    #[test]
    fn fewer_than_two_sensed_not_satisfied() {
        let (grid, truth) = smooth_world(5, 1);
        let obs = ObservedMatrix::from_selection(&truth, |i, _| i == 0);
        let knn = KnnInference::new(grid, 2).unwrap();
        let assessor = QualityAssessor::new(requirement(10.0), ErrorMetric::MeanAbsolute);
        let a = assessor.assess(&obs, 0, &knn).unwrap();
        assert_eq!(a.probability, 0.0);
        assert!(!a.satisfied);
    }

    #[test]
    fn fully_sensed_cycle_trivially_satisfied() {
        let (grid, truth) = smooth_world(4, 1);
        let obs = ObservedMatrix::from_selection(&truth, |_, _| true);
        let knn = KnnInference::new(grid, 2).unwrap();
        let assessor = QualityAssessor::new(requirement(0.0), ErrorMetric::MeanAbsolute);
        let a = assessor.assess(&obs, 0, &knn).unwrap();
        assert_eq!(a.probability, 1.0);
        assert!(a.satisfied);
        assert_eq!(a.unsensed, 0);
    }

    #[test]
    fn probability_bounded() {
        let (grid, truth) = smooth_world(8, 2);
        let obs = ObservedMatrix::from_selection(&truth, |i, t| t == 0 || i < 4);
        let knn = KnnInference::new(grid, 2).unwrap();
        let assessor = QualityAssessor::new(requirement(0.3), ErrorMetric::MeanAbsolute);
        let a = assessor.assess(&obs, 1, &knn).unwrap();
        assert!((0.0..=1.0).contains(&a.probability));
    }

    #[test]
    fn bad_cycle_index_rejected() {
        let (grid, truth) = smooth_world(4, 2);
        let obs = ObservedMatrix::from_selection(&truth, |_, _| true);
        let knn = KnnInference::new(grid, 2).unwrap();
        let assessor = QualityAssessor::new(requirement(0.3), ErrorMetric::MeanAbsolute);
        assert!(matches!(
            assessor.assess(&obs, 5, &knn),
            Err(QualityError::IndexOutOfRange { .. })
        ));
    }

    #[test]
    fn classification_metric_uses_beta_model() {
        // PM2.5-style values all deep inside the same AQI class: LOO never
        // misclassifies, probability should be high.
        let grid = CellGrid::full_grid(1, 8, 10.0, 10.0);
        let truth = DataMatrix::from_fn(8, 1, |i, _| 20.0 + i as f64); // all Good
        let obs = ObservedMatrix::from_selection(&truth, |i, _| i % 2 == 0);
        let knn = KnnInference::new(grid, 2).unwrap();
        let req = QualityRequirement::new(0.25, 0.9).unwrap();
        let assessor = QualityAssessor::new(req, ErrorMetric::AqiClassification);
        let a = assessor.assess(&obs, 0, &knn).unwrap();
        assert!(
            a.probability > 0.8,
            "same-class field should assess high: {}",
            a.probability
        );
        assert!(a.loo_errors.iter().all(|&e| e == 0.0));
    }

    #[test]
    fn loo_restores_observations() {
        let (grid, truth) = smooth_world(6, 2);
        let obs = ObservedMatrix::from_selection(&truth, |i, _| i % 2 == 0);
        let before = obs.clone();
        let knn = KnnInference::new(grid, 2).unwrap();
        let assessor = QualityAssessor::new(requirement(0.3), ErrorMetric::MeanAbsolute);
        let _ = assessor.assess(&obs, 1, &knn).unwrap();
        assert_eq!(obs, before, "assessment must not mutate the input");
    }

    #[test]
    fn assess_with_matches_assess_for_naive_solver() {
        use drcell_inference::NaiveLooSolver;
        let (grid, truth) = smooth_world(10, 3);
        let obs = ObservedMatrix::from_selection(&truth, |i, t| t < 2 || i % 2 == 0);
        let knn = KnnInference::new(grid, 2).unwrap();
        let assessor = QualityAssessor::new(requirement(0.5), ErrorMetric::MeanAbsolute);
        let a = assessor.assess(&obs, 2, &knn).unwrap();
        let b = assessor
            .assess_with(&obs, 2, &mut NaiveLooSolver::new(&knn))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn batched_engine_plugs_into_assessment() {
        use drcell_inference::{BatchedLooEngine, CompressiveSensing, CompressiveSensingConfig};
        let truth = DataMatrix::from_fn(9, 8, |i, t| {
            4.0 + (i as f64 * 0.5).sin() * (t as f64 * 0.4).cos()
        });
        let obs = ObservedMatrix::from_selection(&truth, |i, t| t < 7 || i % 2 == 0);
        // Converged tolerances: both backends sit on the same fixed point,
        // so the Bayesian probabilities agree to high precision.
        let cfg = CompressiveSensingConfig {
            rank: 3,
            max_iters: 1500,
            tol: 0.0,
            ..Default::default()
        };
        let assessor = QualityAssessor::new(requirement(0.4), ErrorMetric::MeanAbsolute);
        let cs = CompressiveSensing::new(cfg.clone()).unwrap();
        let naive = assessor.assess(&obs, 7, &cs).unwrap();
        let mut engine = BatchedLooEngine::new(cfg).unwrap();
        let batched = assessor.assess_with(&obs, 7, &mut engine).unwrap();
        assert_eq!(naive.unsensed, batched.unsensed);
        assert_eq!(naive.satisfied, batched.satisfied);
        assert!((naive.probability - batched.probability).abs() < 1e-9);
        for (a, b) in naive.loo_errors.iter().zip(&batched.loo_errors) {
            assert!((a - b).abs() < 1e-9, "naive {a} vs batched {b}");
        }
    }
}
