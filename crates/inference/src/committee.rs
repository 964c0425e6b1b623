use drcell_datasets::DataMatrix;

use crate::{InferenceAlgorithm, InferenceError, ObservedMatrix};

/// A query-by-committee ensemble of inference algorithms.
///
/// QBC (paper §5.2, following Wang et al. SPACE-TA) runs several different
/// inference algorithms and treats the *variance of their predictions* for a
/// cell as a measure of how uncertain — hence how informative to sense —
/// that cell is. The committee exposes exactly that: per-cell disagreement
/// at a cycle.
///
/// ```
/// use drcell_inference::{Committee, GlobalMeanInference, ObservedMatrix, TemporalInference};
///
/// # fn main() -> Result<(), drcell_inference::InferenceError> {
/// let committee = Committee::new(vec![
///     Box::new(TemporalInference::new()),
///     Box::new(GlobalMeanInference::new()),
/// ])?;
/// let mut obs = ObservedMatrix::new(2, 3);
/// obs.observe(0, 0, 1.0);
/// obs.observe(0, 1, 9.0);
/// obs.observe(1, 0, 5.0);
/// let d = committee.disagreement(&obs, 2)?;
/// assert_eq!(d.len(), 2);
/// # Ok(())
/// # }
/// ```
pub struct Committee {
    members: Vec<Box<dyn InferenceAlgorithm>>,
}

impl std::fmt::Debug for Committee {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Committee")
            .field(
                "members",
                &self.members.iter().map(|m| m.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Committee {
    /// Creates a committee from at least two members.
    ///
    /// # Errors
    ///
    /// Returns [`InferenceError::InvalidConfig`] with fewer than two
    /// members (variance of a single prediction is meaningless).
    pub fn new(members: Vec<Box<dyn InferenceAlgorithm>>) -> Result<Self, InferenceError> {
        if members.len() < 2 {
            return Err(InferenceError::InvalidConfig {
                name: "members",
                expected: "at least 2 committee members",
            });
        }
        Ok(Committee { members })
    }

    /// Number of committee members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `false` — a committee always has at least two members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Runs every member on `obs` and returns all completions.
    ///
    /// # Errors
    ///
    /// Propagates the first member failure.
    pub fn complete_all(&self, obs: &ObservedMatrix) -> Result<Vec<DataMatrix>, InferenceError> {
        self.members.iter().map(|m| m.complete(obs)).collect()
    }

    /// Per-cell disagreement (population variance of member predictions) at
    /// `cycle`. Cells already observed at `cycle` get disagreement `0.0`
    /// (sensing them again carries no information).
    ///
    /// # Errors
    ///
    /// Propagates member failures; rejects out-of-range cycles.
    pub fn disagreement(
        &self,
        obs: &ObservedMatrix,
        cycle: usize,
    ) -> Result<Vec<f64>, InferenceError> {
        if cycle >= obs.cycles() {
            return Err(InferenceError::InvalidObservation { cell: 0, cycle });
        }
        let completions = self.complete_all(obs)?;
        let k = completions.len() as f64;
        let mut out = vec![0.0; obs.cells()];
        for (i, slot) in out.iter_mut().enumerate() {
            if obs.is_observed(i, cycle) {
                continue;
            }
            let preds: Vec<f64> = completions.iter().map(|c| c.value(i, cycle)).collect();
            let mean = preds.iter().sum::<f64>() / k;
            *slot = preds.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / k;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GlobalMeanInference, TemporalInference};

    fn committee() -> Committee {
        Committee::new(vec![
            Box::new(TemporalInference::new()),
            Box::new(GlobalMeanInference::new()),
        ])
        .unwrap()
    }

    #[test]
    fn requires_two_members() {
        assert!(Committee::new(vec![Box::new(GlobalMeanInference::new())]).is_err());
        assert_eq!(committee().len(), 2);
    }

    #[test]
    fn observed_cells_have_zero_disagreement() {
        let mut obs = ObservedMatrix::new(3, 2);
        obs.observe(0, 1, 5.0);
        obs.observe(1, 0, 1.0);
        obs.observe(1, 1, 9.0);
        let d = committee().disagreement(&obs, 1).unwrap();
        assert_eq!(d[0], 0.0);
        assert_eq!(d[1], 0.0);
        assert!(d[2] >= 0.0);
    }

    #[test]
    fn disagreement_positive_where_members_differ() {
        // Cell 0 trends upward: temporal extrapolates 9, global mean says 5.
        let mut obs = ObservedMatrix::new(2, 3);
        obs.observe(0, 0, 1.0);
        obs.observe(0, 1, 9.0);
        obs.observe(1, 0, 5.0);
        let d = committee().disagreement(&obs, 2).unwrap();
        assert!(d[0] > 0.0, "members disagree on trending cell: {:?}", d);
    }

    #[test]
    fn out_of_range_cycle_rejected() {
        let obs = ObservedMatrix::new(2, 2);
        assert!(committee().disagreement(&obs, 2).is_err());
    }

    #[test]
    fn debug_lists_member_names() {
        let s = format!("{:?}", committee());
        assert!(s.contains("temporal-interpolation"));
        assert!(s.contains("global-mean"));
    }

    #[test]
    fn complete_all_returns_one_per_member() {
        let mut obs = ObservedMatrix::new(2, 2);
        obs.observe(0, 0, 1.0);
        let all = committee().complete_all(&obs).unwrap();
        assert_eq!(all.len(), 2);
    }
}
