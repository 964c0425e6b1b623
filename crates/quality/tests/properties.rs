//! Property-based tests of the quality-assessment pipeline.

use drcell_datasets::{CellGrid, DataMatrix};
use drcell_inference::{KnnInference, ObservedMatrix};
use drcell_quality::{ErrorMetric, QualityAssessor, QualityRequirement};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    #[test]
    fn cycle_error_nonnegative(
        truth in proptest::collection::vec(-100.0f64..100.0, 1..10),
        noise in proptest::collection::vec(-10.0f64..10.0, 1..10),
    ) {
        let n = truth.len().min(noise.len());
        let truth = &truth[..n];
        let inferred: Vec<f64> = truth.iter().zip(noise.iter()).map(|(t, e)| t + e).collect();
        let subset: Vec<usize> = (0..n).collect();
        for metric in [ErrorMetric::MeanAbsolute, ErrorMetric::RootMeanSquare] {
            let e = metric.cycle_error(truth, &inferred, &subset).unwrap();
            prop_assert!(e >= 0.0);
        }
    }

    #[test]
    fn rmse_dominates_mae(
        truth in proptest::collection::vec(-100.0f64..100.0, 2..10),
        noise in proptest::collection::vec(-10.0f64..10.0, 2..10),
    ) {
        // Root-mean-square >= mean-absolute by Jensen's inequality.
        let n = truth.len().min(noise.len());
        let truth = &truth[..n];
        let inferred: Vec<f64> = truth.iter().zip(noise.iter()).map(|(t, e)| t + e).collect();
        let subset: Vec<usize> = (0..n).collect();
        let mae = ErrorMetric::MeanAbsolute.cycle_error(truth, &inferred, &subset).unwrap();
        let rmse = ErrorMetric::RootMeanSquare.cycle_error(truth, &inferred, &subset).unwrap();
        prop_assert!(rmse >= mae - 1e-12, "rmse {rmse} < mae {mae}");
    }

    #[test]
    fn classification_error_is_a_fraction(
        values in proptest::collection::vec(0.0f64..400.0, 2..12),
        offsets in proptest::collection::vec(-120.0f64..120.0, 2..12),
    ) {
        let n = values.len().min(offsets.len());
        let truth = &values[..n];
        let inferred: Vec<f64> = truth.iter().zip(&offsets[..n]).map(|(v, o)| (v + o).max(0.0)).collect();
        let subset: Vec<usize> = (0..n).collect();
        let e = ErrorMetric::AqiClassification.cycle_error(truth, &inferred, &subset).unwrap();
        prop_assert!((0.0..=1.0).contains(&e));
        // Must be a multiple of 1/n.
        let scaled = e * n as f64;
        prop_assert!((scaled - scaled.round()).abs() < 1e-9);
    }

    #[test]
    fn assessment_probability_always_in_unit_interval(
        eps in 0.01f64..2.0,
        p in 0.5f64..0.99,
        sensed_stride in 2usize..4,
        seed in any::<u64>(),
    ) {
        let cells = 8;
        let truth = DataMatrix::from_fn(cells, 3, |i, t| {
            (seed % 13) as f64 * 0.1 + i as f64 * 0.2 + t as f64 * 0.05
        });
        let obs = ObservedMatrix::from_selection(&truth, |i, t| t < 2 || i % sensed_stride == 0);
        let knn = KnnInference::new(CellGrid::full_grid(2, 4, 10.0, 10.0), 2).unwrap();
        let assessor = QualityAssessor::new(
            QualityRequirement::new(eps, p).unwrap(),
            ErrorMetric::MeanAbsolute,
        );
        let a = assessor.assess(&obs, 2, &knn).unwrap();
        prop_assert!((0.0..=1.0).contains(&a.probability), "p = {}", a.probability);
        prop_assert_eq!(a.satisfied, a.probability >= p);
    }
}
