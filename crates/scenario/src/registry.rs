//! Built-in named scenarios: quick-scale environments covering the paper's
//! three tasks plus the perturbation stress suite, runnable by name from the
//! `drcell-scenario` CLI.

use drcell_datasets::{FieldConfig, Perturbation, PerturbationStack};

use crate::spec::{DatasetSpec, PolicySpec, QualitySpec, RunnerSpec, ScenarioSpec, SweepSpec};

fn quick_temperature() -> DatasetSpec {
    DatasetSpec::SensorScopeTemperature {
        cells: 16,
        grid_rows: 4,
        grid_cols: 4,
        cycles: 3 * 48,
    }
}

fn quick_base(name: &str, dataset: DatasetSpec, epsilon: f64, train_cycles: usize) -> ScenarioSpec {
    ScenarioSpec {
        name: name.to_owned(),
        seed: 20180507,
        dataset,
        perturbations: PerturbationStack::none(),
        policy: PolicySpec::drcell(3, 16),
        quality: QualitySpec { epsilon, p: 0.9 },
        runner: RunnerSpec::default(),
        train_cycles,
    }
}

/// Every built-in scenario, in presentation order.
pub fn registry() -> Vec<ScenarioSpec> {
    let mut out = vec![
        quick_base("temperature-baseline", quick_temperature(), 0.3, 96),
        quick_base(
            "humidity-baseline",
            DatasetSpec::SensorScopeHumidity {
                cells: 16,
                grid_rows: 4,
                grid_cols: 4,
                cycles: 3 * 48,
            },
            1.5,
            96,
        ),
        quick_base(
            "aqi-baseline",
            DatasetSpec::UAirPm25 {
                grid_rows: 4,
                grid_cols: 4,
                cycles: 5 * 24,
            },
            0.25,
            48,
        ),
        quick_base(
            "synthetic-smooth",
            DatasetSpec::Synthetic {
                grid_rows: 4,
                grid_cols: 4,
                cell_w: 50.0,
                cell_h: 30.0,
                cycles: 3 * 24,
                mean: 10.0,
                std: 2.0,
                field: FieldConfig {
                    cycles_per_day: 24,
                    noise_std: 0.05,
                    ..FieldConfig::default()
                },
            },
            0.5,
            36,
        ),
    ];

    let mut dropout = quick_base("temperature-dropout", quick_temperature(), 0.3, 96);
    dropout.perturbations =
        PerturbationStack::new(vec![Perturbation::SensorDropout { rate: 0.25 }]);
    out.push(dropout);

    let mut noisy = quick_base("temperature-noise", quick_temperature(), 0.3, 96);
    noisy.perturbations = PerturbationStack::new(vec![Perturbation::HeteroscedasticNoise {
        std_min: 0.02,
        std_max: 0.3,
    }]);
    out.push(noisy);

    let mut shifted = quick_base("temperature-regime-shift", quick_temperature(), 0.3, 96);
    shifted.perturbations = PerturbationStack::new(vec![Perturbation::RegimeShift {
        // Onset inside the testing stage: the policy trained on the
        // stationary regime must survive the hotspot.
        at_fraction: 0.75,
        amplitude: 2.0,
        radius_fraction: 0.35,
    }]);
    out.push(shifted);

    let mut bursty = quick_base(
        "aqi-outage-bursts",
        DatasetSpec::UAirPm25 {
            grid_rows: 4,
            grid_cols: 4,
            cycles: 5 * 24,
        },
        0.25,
        48,
    );
    bursty.perturbations = PerturbationStack::new(vec![Perturbation::MissingCycleBursts {
        bursts: 4,
        burst_len: 3,
    }]);
    out.push(bursty);

    let mut stress = quick_base("temperature-stress-stack", quick_temperature(), 0.3, 96);
    stress.perturbations = PerturbationStack::new(vec![
        Perturbation::SensorDropout { rate: 0.15 },
        Perturbation::HeteroscedasticNoise {
            std_min: 0.02,
            std_max: 0.15,
        },
        Perturbation::MissingCycleBursts {
            bursts: 2,
            burst_len: 2,
        },
    ]);
    out.push(stress);

    out
}

/// Looks up a built-in scenario by name.
pub fn find(name: &str) -> Option<ScenarioSpec> {
    registry().into_iter().find(|s| s.name == name)
}

/// The default CLI sweep: policies × ε × seeds over the synthetic task —
/// 8 scenarios of training-free policies, small enough to finish in seconds
/// yet wide enough to exercise the whole engine.
pub fn default_sweep() -> SweepSpec {
    let mut base = quick_base(
        "default-sweep",
        DatasetSpec::Synthetic {
            grid_rows: 3,
            grid_cols: 3,
            cell_w: 50.0,
            cell_h: 30.0,
            cycles: 2 * 24,
            mean: 10.0,
            std: 2.0,
            field: FieldConfig {
                cycles_per_day: 24,
                noise_std: 0.05,
                ..FieldConfig::default()
            },
        },
        0.5,
        24,
    );
    base.runner.window = 8;
    SweepSpec {
        base,
        policies: vec![PolicySpec::Random, PolicySpec::Qbc],
        epsilons: vec![0.4, 0.7],
        ps: Vec::new(),
        seeds: vec![1, 2],
        perturbations: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_at_least_eight_unique_scenarios() {
        let all = registry();
        assert!(all.len() >= 8, "registry has {}", all.len());
        let mut names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate scenario names");
    }

    #[test]
    fn every_registry_scenario_builds_its_task() {
        for spec in registry() {
            let task = spec.build_task().unwrap_or_else(|e| {
                panic!("scenario {} failed to build: {e}", spec.name);
            });
            assert!(task.test_cycles() > 0, "{} has no testing stage", spec.name);
        }
    }

    #[test]
    fn find_matches_by_name() {
        assert!(find("temperature-baseline").is_some());
        assert!(find("no-such-scenario").is_none());
    }

    #[test]
    fn default_sweep_expands_to_eight() {
        let specs = default_sweep().expand();
        assert_eq!(specs.len(), 8);
    }
}
