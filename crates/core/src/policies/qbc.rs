use drcell_datasets::CellGrid;
use drcell_inference::{
    Committee, CompressiveSensing, CompressiveSensingConfig, KnnInference, ObservedMatrix,
    TemporalInference,
};
use drcell_linalg::vector;
use rand::{Rng, RngCore};

use crate::{CellSelectionPolicy, CoreError};

/// The QBC (Query-By-Committee) baseline (paper §5.2, after Wang et al.
/// SPACE-TA): run a committee of different inference algorithms and sense
/// the unsensed cell on which their predictions disagree the most — the
/// "most uncertain, hard-to-infer" cell.
///
/// The default committee matches the paper's description: compressive
/// sensing plus K-nearest-neighbours (and temporal interpolation as a third
/// member for a meaningful variance).
pub struct QbcPolicy {
    committee: Committee,
    window: usize,
}

impl std::fmt::Debug for QbcPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QbcPolicy")
            .field("committee", &self.committee)
            .field("window", &self.window)
            .finish()
    }
}

impl QbcPolicy {
    /// Creates the standard three-member committee over the given grid,
    /// evaluating disagreement on a trailing `window` of cycles.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a zero window; propagates
    /// committee construction failures.
    pub fn new(grid: &CellGrid, window: usize) -> Result<Self, CoreError> {
        if window == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "window must be positive".to_owned(),
            });
        }
        let committee = Committee::new(vec![
            Box::new(CompressiveSensing::new(CompressiveSensingConfig {
                max_iters: 15,
                ..CompressiveSensingConfig::default()
            })?),
            Box::new(KnnInference::new(grid.clone(), 3)?),
            Box::new(TemporalInference::new()),
        ])?;
        Ok(QbcPolicy { committee, window })
    }
}

impl CellSelectionPolicy for QbcPolicy {
    fn name(&self) -> &str {
        "QBC"
    }

    fn select_next(
        &mut self,
        obs: &ObservedMatrix,
        cycle: usize,
        rng: &mut dyn RngCore,
    ) -> Result<usize, CoreError> {
        let candidates = obs.unobserved_cells_at(cycle);
        if candidates.is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "select_next called with every cell already sensed".to_owned(),
            });
        }
        // Before anything is observed this cycle (and in the very first
        // cycles) the committee cannot run; fall back to random.
        if obs.observed_count() == 0 {
            return Ok(candidates[rng.gen_range(0..candidates.len())]);
        }
        let w = self.window.min(cycle + 1);
        let from = cycle + 1 - w;
        let mut win = ObservedMatrix::new(obs.cells(), w);
        for i in 0..obs.cells() {
            for t in 0..w {
                if let Some(v) = obs.get(i, from + t) {
                    win.observe(i, t, v);
                }
            }
        }
        if win.observed_count() == 0 {
            return Ok(candidates[rng.gen_range(0..candidates.len())]);
        }
        let disagreement = self.committee.disagreement(&win, w - 1)?;
        // Highest-variance unsensed cell; break exact ties randomly.
        let best = vector::argmax(&disagreement).expect("non-empty disagreement");
        if obs.is_observed(best, cycle) {
            // All-zero disagreement (e.g. members agree exactly): random.
            return Ok(candidates[rng.gen_range(0..candidates.len())]);
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcell_datasets::DataMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid() -> CellGrid {
        CellGrid::full_grid(1, 5, 10.0, 10.0)
    }

    #[test]
    fn selects_unobserved_cell() {
        let truth = DataMatrix::from_fn(5, 4, |i, t| (i as f64) + (t as f64) * 0.5);
        let obs = ObservedMatrix::from_selection(&truth, |i, t| t < 3 || i < 2);
        let mut p = QbcPolicy::new(&grid(), 4).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let a = p.select_next(&obs, 3, &mut rng).unwrap();
        assert!(a >= 2, "must pick an unsensed cell, got {a}");
    }

    #[test]
    fn cold_start_falls_back_to_random() {
        let obs = ObservedMatrix::new(5, 2);
        let mut p = QbcPolicy::new(&grid(), 4).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let a = p.select_next(&obs, 0, &mut rng).unwrap();
        assert!(a < 5);
    }

    #[test]
    fn prefers_high_disagreement_cells() {
        // Construct a window where cell 4 (far from all sensed cells, with a
        // trend) is the most uncertain for the committee.
        let truth = DataMatrix::from_fn(
            5,
            6,
            |i, t| {
                if i == 4 {
                    10.0 * (t as f64)
                } else {
                    i as f64
                }
            },
        );
        // Sense everything except cell 4 in all cycles; cell 4 only early.
        let obs = ObservedMatrix::from_selection(&truth, |i, t| i != 4 || t < 2);
        let mut p = QbcPolicy::new(&grid(), 6).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let a = p.select_next(&obs, 5, &mut rng).unwrap();
        assert_eq!(a, 4, "the trending unseen cell should be most disputed");
    }

    #[test]
    fn exhausted_cycle_errors() {
        let truth = DataMatrix::from_fn(5, 1, |i, _| i as f64);
        let obs = ObservedMatrix::from_selection(&truth, |_, _| true);
        let mut p = QbcPolicy::new(&grid(), 2).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        assert!(p.select_next(&obs, 0, &mut rng).is_err());
    }

    #[test]
    fn zero_window_rejected() {
        assert!(QbcPolicy::new(&grid(), 0).is_err());
    }
}
