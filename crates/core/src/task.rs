use drcell_datasets::{CellGrid, DataMatrix};
use drcell_quality::{ErrorMetric, QualityRequirement};

use crate::CoreError;

/// A complete Sparse-MCS sensing task: the ground truth, the area geometry,
/// the error metric and (ε, p)-quality requirement, and the
/// training/testing split (paper §5.3: "the first 2-day data ... to train",
/// the rest for testing).
#[derive(Debug, Clone)]
pub struct SensingTask {
    name: String,
    truth: DataMatrix,
    grid: CellGrid,
    metric: ErrorMetric,
    requirement: QualityRequirement,
    train_cycles: usize,
}

impl SensingTask {
    /// Creates a task.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidTask`] when the grid and matrix disagree
    /// on the cell count, the training split leaves no testing cycles, the
    /// matrix is empty, or fewer than two cells exist.
    pub fn new(
        name: &str,
        truth: DataMatrix,
        grid: CellGrid,
        metric: ErrorMetric,
        requirement: QualityRequirement,
        train_cycles: usize,
    ) -> Result<Self, CoreError> {
        if truth.cells() != grid.cells() {
            return Err(CoreError::InvalidTask {
                reason: format!(
                    "grid has {} cells but data matrix has {}",
                    grid.cells(),
                    truth.cells()
                ),
            });
        }
        if truth.cells() < 2 {
            return Err(CoreError::InvalidTask {
                reason: "a sensing task needs at least 2 cells".to_owned(),
            });
        }
        if truth.cycles() == 0 {
            return Err(CoreError::InvalidTask {
                reason: "a sensing task needs at least 1 cycle".to_owned(),
            });
        }
        if train_cycles >= truth.cycles() {
            return Err(CoreError::InvalidTask {
                reason: format!(
                    "training split {} leaves no testing cycles (total {})",
                    train_cycles,
                    truth.cycles()
                ),
            });
        }
        Ok(SensingTask {
            name: name.to_owned(),
            truth,
            grid,
            metric,
            requirement,
            train_cycles,
        })
    }

    /// Task name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The full ground-truth matrix.
    pub fn truth(&self) -> &DataMatrix {
        &self.truth
    }

    /// The area geometry.
    pub fn grid(&self) -> &CellGrid {
        &self.grid
    }

    /// The task's error metric.
    pub fn metric(&self) -> ErrorMetric {
        self.metric
    }

    /// The (ε, p)-quality requirement.
    pub fn requirement(&self) -> QualityRequirement {
        self.requirement
    }

    /// Number of cells `m`.
    pub fn cells(&self) -> usize {
        self.truth.cells()
    }

    /// Total number of cycles `n`.
    pub fn cycles(&self) -> usize {
        self.truth.cycles()
    }

    /// Number of cycles in the training stage (the preliminary study).
    pub fn train_cycles(&self) -> usize {
        self.train_cycles
    }

    /// Number of cycles in the testing stage.
    pub fn test_cycles(&self) -> usize {
        self.truth.cycles() - self.train_cycles
    }

    /// The training-stage ground truth (`cells × train_cycles`).
    pub fn training_data(&self) -> DataMatrix {
        self.truth.cycle_window(0, self.train_cycles)
    }

    /// Restricts the task to a different (ε, p) requirement — used to sweep
    /// p ∈ {0.9, 0.95} in the Figure 6 reproduction.
    pub fn with_requirement(&self, requirement: QualityRequirement) -> SensingTask {
        SensingTask {
            requirement,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcell_datasets::CellGrid;

    fn task() -> SensingTask {
        let truth = DataMatrix::from_fn(4, 10, |i, t| (i + t) as f64);
        let grid = CellGrid::full_grid(2, 2, 10.0, 10.0);
        SensingTask::new(
            "toy",
            truth,
            grid,
            ErrorMetric::MeanAbsolute,
            QualityRequirement::new(0.5, 0.9).unwrap(),
            4,
        )
        .unwrap()
    }

    #[test]
    fn split_accessors() {
        let t = task();
        assert_eq!(t.cells(), 4);
        assert_eq!(t.cycles(), 10);
        assert_eq!(t.train_cycles(), 4);
        assert_eq!(t.test_cycles(), 6);
        assert_eq!(t.training_data().cycles(), 4);
        assert_eq!(t.training_data().value(1, 3), 4.0);
    }

    #[test]
    fn mismatched_grid_rejected() {
        let truth = DataMatrix::zeros(5, 4);
        let grid = CellGrid::full_grid(2, 2, 1.0, 1.0);
        assert!(SensingTask::new(
            "bad",
            truth,
            grid,
            ErrorMetric::MeanAbsolute,
            QualityRequirement::new(0.5, 0.9).unwrap(),
            1,
        )
        .is_err());
    }

    #[test]
    fn degenerate_split_rejected() {
        let truth = DataMatrix::zeros(4, 4);
        let grid = CellGrid::full_grid(2, 2, 1.0, 1.0);
        assert!(SensingTask::new(
            "bad",
            truth,
            grid,
            ErrorMetric::MeanAbsolute,
            QualityRequirement::new(0.5, 0.9).unwrap(),
            4,
        )
        .is_err());
    }

    #[test]
    fn single_cell_rejected() {
        let truth = DataMatrix::zeros(1, 4);
        let grid = CellGrid::new(vec![(0.0, 0.0)]);
        assert!(SensingTask::new(
            "bad",
            truth,
            grid,
            ErrorMetric::MeanAbsolute,
            QualityRequirement::new(0.5, 0.9).unwrap(),
            1,
        )
        .is_err());
    }

    #[test]
    fn with_requirement_changes_only_requirement() {
        let t = task();
        let t95 = t.with_requirement(QualityRequirement::new(0.5, 0.95).unwrap());
        assert_eq!(t95.requirement().p, 0.95);
        assert_eq!(t95.cells(), t.cells());
        assert_eq!(t95.name(), t.name());
    }
}
