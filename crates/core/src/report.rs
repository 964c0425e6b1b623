//! Post-run analytics over [`crate::RunReport`]s: selection-frequency
//! diagnostics (the paper's Fig. 1 intuition — *where* does a policy
//! sense?).

use crate::RunReport;

/// How often each cell was selected across a run.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionProfile {
    counts: Vec<usize>,
}

impl SelectionProfile {
    /// Builds the profile from a run.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is smaller than the largest selected index.
    pub fn from_report(report: &RunReport, cells: usize) -> Self {
        let mut counts = vec![0usize; cells];
        for c in &report.cycles {
            for &cell in &c.selected {
                counts[cell] += 1;
            }
        }
        SelectionProfile { counts }
    }

    /// Per-cell selection counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CycleRecord;
    use drcell_quality::QualityRequirement;

    fn report(selections: Vec<Vec<usize>>, within: Vec<bool>, probs: Vec<f64>) -> RunReport {
        RunReport {
            policy: "TEST".into(),
            task: "t".into(),
            requirement: QualityRequirement::new(0.3, 0.9).unwrap(),
            cycles: selections
                .into_iter()
                .zip(within)
                .zip(probs)
                .enumerate()
                .map(|(i, ((selected, w), p))| CycleRecord {
                    cycle: i,
                    selected,
                    true_error: if w { 0.1 } else { 0.9 },
                    estimated_probability: p,
                    within_epsilon: w,
                })
                .collect(),
        }
    }

    #[test]
    fn profile_counts_selections_per_cell() {
        let r = report(
            vec![vec![0, 1], vec![0, 2], vec![0]],
            vec![true, true, true],
            vec![0.95, 0.95, 0.95],
        );
        let p = SelectionProfile::from_report(&r, 4);
        assert_eq!(p.counts(), &[3, 1, 1, 0]);
    }
}
