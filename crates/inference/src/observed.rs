use serde::{Deserialize, Serialize};

use drcell_datasets::DataMatrix;

use crate::InferenceError;

/// A partially observed cell × cycle matrix: the sensed values plus an
/// observation mask (the cell-selection matrix `S` of paper Definition 4
/// applied to the ground truth `D`).
///
/// ```
/// use drcell_inference::ObservedMatrix;
///
/// let mut obs = ObservedMatrix::new(3, 2);
/// obs.observe(1, 0, 4.5);
/// assert!(obs.is_observed(1, 0));
/// assert_eq!(obs.get(1, 0), Some(4.5));
/// assert_eq!(obs.get(0, 0), None);
/// assert_eq!(obs.observed_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObservedMatrix {
    cells: usize,
    cycles: usize,
    values: Vec<f64>,
    mask: Vec<bool>,
}

impl ObservedMatrix {
    /// Creates an empty (fully unobserved) matrix.
    pub fn new(cells: usize, cycles: usize) -> Self {
        ObservedMatrix {
            cells,
            cycles,
            values: vec![0.0; cells * cycles],
            mask: vec![false; cells * cycles],
        }
    }

    /// Builds an observed matrix by sampling `truth` where `selected`
    /// returns `true`.
    pub fn from_selection<F: FnMut(usize, usize) -> bool>(
        truth: &DataMatrix,
        mut selected: F,
    ) -> Self {
        let mut obs = ObservedMatrix::new(truth.cells(), truth.cycles());
        for i in 0..truth.cells() {
            for t in 0..truth.cycles() {
                if selected(i, t) {
                    obs.observe(i, t, truth.value(i, t));
                }
            }
        }
        obs
    }

    /// Number of cells (rows).
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Number of cycles (columns).
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// Records an observation.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds or when `value` is not finite.
    pub fn observe(&mut self, cell: usize, cycle: usize, value: f64) {
        assert!(
            cell < self.cells && cycle < self.cycles,
            "observation ({cell},{cycle}) out of bounds"
        );
        assert!(value.is_finite(), "observation must be finite");
        let idx = cell * self.cycles + cycle;
        self.values[idx] = value;
        self.mask[idx] = true;
    }

    /// Removes an observation, returning the removed value (`None` when the
    /// entry was not observed). Leave-one-out callers use the returned value
    /// to restore the entry afterwards without re-scanning the matrix.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn unobserve(&mut self, cell: usize, cycle: usize) -> Option<f64> {
        assert!(
            cell < self.cells && cycle < self.cycles,
            "index ({cell},{cycle}) out of bounds"
        );
        let idx = cell * self.cycles + cycle;
        let removed = self.mask[idx].then_some(self.values[idx]);
        self.mask[idx] = false;
        self.values[idx] = 0.0;
        removed
    }

    /// `true` if the entry is observed.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn is_observed(&self, cell: usize, cycle: usize) -> bool {
        assert!(
            cell < self.cells && cycle < self.cycles,
            "index ({cell},{cycle}) out of bounds"
        );
        self.mask[cell * self.cycles + cycle]
    }

    /// The observed value, or `None` when unobserved.
    pub fn get(&self, cell: usize, cycle: usize) -> Option<f64> {
        if self.is_observed(cell, cycle) {
            Some(self.values[cell * self.cycles + cycle])
        } else {
            None
        }
    }

    /// Total number of observed entries.
    pub fn observed_count(&self) -> usize {
        self.mask.iter().filter(|&&b| b).count()
    }

    /// Indices of cells observed at `cycle`.
    pub fn observed_cells_at(&self, cycle: usize) -> Vec<usize> {
        (0..self.cells)
            .filter(|&i| self.is_observed(i, cycle))
            .collect()
    }

    /// Indices of cells *not* observed at `cycle`.
    pub fn unobserved_cells_at(&self, cycle: usize) -> Vec<usize> {
        (0..self.cells)
            .filter(|&i| !self.is_observed(i, cycle))
            .collect()
    }

    /// Iterates over `(cell, cycle, value)` for every observed entry.
    pub fn observations(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.cells).flat_map(move |i| {
            (0..self.cycles).filter_map(move |t| self.get(i, t).map(|v| (i, t, v)))
        })
    }

    /// Mean of observed values.
    ///
    /// # Errors
    ///
    /// Returns [`InferenceError::NoObservations`] when nothing is observed.
    pub fn observed_mean(&self) -> Result<f64, InferenceError> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (v, &m) in self.values.iter().zip(&self.mask) {
            if m {
                sum += v;
                n += 1;
            }
        }
        if n == 0 {
            Err(InferenceError::NoObservations)
        } else {
            Ok(sum / n as f64)
        }
    }

    /// Completes into a [`DataMatrix`] using `fill(cell, cycle)` for
    /// unobserved entries (helper for inference implementations).
    pub fn fill_with<F: FnMut(usize, usize) -> f64>(&self, mut fill: F) -> DataMatrix {
        DataMatrix::from_fn(self.cells, self.cycles, |i, t| match self.get(i, t) {
            Some(v) => v,
            None => fill(i, t),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_and_unobserve_roundtrip() {
        let mut o = ObservedMatrix::new(2, 2);
        o.observe(0, 1, 3.0);
        assert_eq!(o.get(0, 1), Some(3.0));
        assert_eq!(o.unobserve(0, 1), Some(3.0));
        assert_eq!(o.get(0, 1), None);
        assert_eq!(o.observed_count(), 0);
    }

    #[test]
    fn unobserve_returns_removed_value_once() {
        let mut o = ObservedMatrix::new(3, 2);
        o.observe(2, 0, -7.5);
        // First removal hands back the stored value; repeating it (or
        // removing a never-observed entry) yields `None`.
        assert_eq!(o.unobserve(2, 0), Some(-7.5));
        assert_eq!(o.unobserve(2, 0), None);
        assert_eq!(o.unobserve(1, 1), None);
        // Round-trip: restoring from the returned value reproduces the entry.
        let mut p = ObservedMatrix::new(3, 2);
        p.observe(0, 1, 4.25);
        let removed = p.unobserve(0, 1).unwrap();
        p.observe(0, 1, removed);
        assert_eq!(p.get(0, 1), Some(4.25));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_observation_rejected() {
        ObservedMatrix::new(1, 1).observe(0, 0, f64::NAN);
    }

    #[test]
    fn from_selection_copies_truth() {
        let truth = DataMatrix::from_fn(3, 3, |i, t| (i * 10 + t) as f64);
        let obs = ObservedMatrix::from_selection(&truth, |i, t| i == t);
        assert_eq!(obs.observed_count(), 3);
        assert_eq!(obs.get(1, 1), Some(11.0));
        assert_eq!(obs.get(0, 1), None);
    }

    #[test]
    fn per_cycle_queries() {
        let mut o = ObservedMatrix::new(4, 2);
        o.observe(0, 1, 1.0);
        o.observe(2, 1, 2.0);
        assert_eq!(o.observed_cells_at(1), vec![0, 2]);
        assert_eq!(o.unobserved_cells_at(1), vec![1, 3]);
        assert_eq!(o.observed_cells_at(0), Vec::<usize>::new());
    }

    #[test]
    fn observations_iterator() {
        let mut o = ObservedMatrix::new(2, 2);
        o.observe(1, 0, 5.0);
        o.observe(0, 1, 6.0);
        let all: Vec<_> = o.observations().collect();
        assert_eq!(all, vec![(0, 1, 6.0), (1, 0, 5.0)]);
    }

    #[test]
    fn observed_mean_and_empty_error() {
        let mut o = ObservedMatrix::new(2, 2);
        assert!(matches!(
            o.observed_mean(),
            Err(InferenceError::NoObservations)
        ));
        o.observe(0, 0, 2.0);
        o.observe(1, 1, 4.0);
        assert_eq!(o.observed_mean().unwrap(), 3.0);
    }

    #[test]
    fn fill_with_preserves_observed() {
        let mut o = ObservedMatrix::new(2, 2);
        o.observe(0, 0, 9.0);
        let d = o.fill_with(|_, _| -1.0);
        assert_eq!(d.value(0, 0), 9.0);
        assert_eq!(d.value(1, 1), -1.0);
    }
}
