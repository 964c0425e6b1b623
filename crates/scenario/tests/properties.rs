//! Integration properties of the scenario engine: byte-identical results
//! across thread counts, spec-file loading, and sweep/report consistency.

use proptest::prelude::*;
use serde::Deserialize;

use drcell_datasets::{FieldConfig, Perturbation, PerturbationStack};
use drcell_scenario::{
    json, registry, sink, toml_cfg, DatasetSpec, PolicySpec, QualitySpec, RunnerSpec,
    ScenarioResult, ScenarioSpec, SweepEngine, SweepSpec,
};

fn tiny_base(seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: "prop".to_owned(),
        seed,
        dataset: DatasetSpec::Synthetic {
            grid_rows: 3,
            grid_cols: 3,
            cell_w: 40.0,
            cell_h: 40.0,
            cycles: 32,
            mean: 8.0,
            std: 1.5,
            field: FieldConfig {
                cycles_per_day: 16,
                noise_std: 0.05,
                ..FieldConfig::default()
            },
        },
        perturbations: PerturbationStack::none(),
        policy: PolicySpec::Random,
        quality: QualitySpec {
            epsilon: 0.5,
            p: 0.9,
        },
        runner: RunnerSpec {
            window: 8,
            ..RunnerSpec::default()
        },
        train_cycles: 20,
    }
}

fn eight_scenarios(seed: u64) -> Vec<ScenarioSpec> {
    SweepSpec {
        base: tiny_base(seed),
        policies: vec![PolicySpec::Random, PolicySpec::Qbc],
        epsilons: vec![0.4, 0.7],
        ps: Vec::new(),
        seeds: vec![seed, seed + 1],
        perturbations: Vec::new(),
    }
    .expand()
}

fn jsonl_of(results: &[Result<ScenarioResult, drcell_scenario::ScenarioError>]) -> Vec<u8> {
    let refs: Vec<&ScenarioResult> = results
        .iter()
        .map(|r| r.as_ref().expect("scenario ran"))
        .collect();
    let mut buf = Vec::new();
    sink::write_jsonl(&mut buf, &refs).expect("in-memory write");
    buf
}

/// The tentpole acceptance criterion: same spec + seed ⇒ byte-identical
/// JSONL rows regardless of thread count.
#[test]
fn sweep_rows_identical_across_thread_counts() {
    let specs = eight_scenarios(41);
    assert_eq!(specs.len(), 8);
    let serial = jsonl_of(&SweepEngine::new(1).run(&specs));
    let four = jsonl_of(&SweepEngine::new(4).run(&specs));
    let all_cores = jsonl_of(&SweepEngine::new(0).run(&specs));
    assert_eq!(serial, four, "1-thread vs 4-thread rows differ");
    assert_eq!(serial, all_cores, "1-thread vs all-core rows differ");
    assert!(!serial.is_empty());
    // And a second run of the same engine reproduces itself exactly.
    assert_eq!(serial, jsonl_of(&SweepEngine::new(1).run(&specs)));
}

#[test]
fn perturbed_sweeps_are_also_thread_count_invariant() {
    let mut base = tiny_base(7);
    base.perturbations = PerturbationStack::new(vec![
        Perturbation::SensorDropout { rate: 0.2 },
        Perturbation::HeteroscedasticNoise {
            std_min: 0.02,
            std_max: 0.2,
        },
    ]);
    let specs = SweepSpec {
        base,
        policies: vec![PolicySpec::Random],
        epsilons: vec![0.5, 0.8],
        ps: Vec::new(),
        seeds: vec![1, 2],
        perturbations: Vec::new(),
    }
    .expand();
    let serial = jsonl_of(&SweepEngine::new(1).run(&specs));
    let parallel = jsonl_of(&SweepEngine::new(3).run(&specs));
    assert_eq!(serial, parallel);
}

#[test]
fn toml_sweep_spec_loads_and_matches_programmatic() {
    let toml = r#"
policies = ["Random", "Qbc"]
epsilons = [0.4, 0.7]
ps = []
seeds = [41, 42]
perturbations = []

[base]
name = "prop"
seed = 41
train_cycles = 20
perturbations = { layers = [] }
policy = "Random"
quality = { epsilon = 0.5, p = 0.9 }
runner = { window = 8, min_selections = 2, assess_every = 1 }

[base.dataset.Synthetic]
grid_rows = 3
grid_cols = 3
cell_w = 40.0
cell_h = 40.0
cycles = 32
mean = 8.0
std = 1.5
field = { anchors = 6, length_scale = 120.0, ar_coeff = 0.95, spatial_std = 1.0, diurnal_amplitude = 1.0, semidiurnal_amplitude = 0.3, cycles_per_day = 16, noise_std = 0.05 }
"#;
    let value = toml_cfg::parse_toml(toml).expect("parse");
    let sweep = SweepSpec::from_value(&value).expect("deserialise");
    let expected = SweepSpec {
        base: tiny_base(41),
        policies: vec![PolicySpec::Random, PolicySpec::Qbc],
        epsilons: vec![0.4, 0.7],
        ps: Vec::new(),
        seeds: vec![41, 42],
        perturbations: Vec::new(),
    };
    assert_eq!(sweep, expected);
}

#[test]
fn json_round_trip_of_sweep_spec() {
    use serde::Serialize;
    let sweep = SweepSpec {
        base: tiny_base(3),
        policies: vec![PolicySpec::drcell(2, 8)],
        epsilons: vec![0.3],
        ps: vec![0.9, 0.95],
        seeds: Vec::new(),
        perturbations: vec![PerturbationStack::new(vec![Perturbation::RegimeShift {
            at_fraction: 0.5,
            amplitude: 1.5,
            radius_fraction: 0.4,
        }])],
    };
    let text = json::to_json(&sweep.to_value());
    let back = SweepSpec::from_value(&json::parse_json(&text).unwrap()).unwrap();
    assert_eq!(back, sweep);
}

#[test]
fn registry_scenarios_run_under_cheap_policy_swap() {
    // Swapping in the untrained Random policy keeps this fast while still
    // executing every built-in environment end to end.
    let specs: Vec<ScenarioSpec> = registry::registry()
        .into_iter()
        .map(|mut s| {
            s.policy = PolicySpec::Random;
            s
        })
        .collect();
    assert!(specs.len() >= 8);
    let results = SweepEngine::new(0).run(&specs);
    for (spec, result) in specs.iter().zip(&results) {
        let r = result.as_ref().unwrap_or_else(|e| {
            panic!("registry scenario {} failed: {e}", spec.name);
        });
        assert!(!r.report.cycles.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn single_scenarios_reproduce_for_any_seed(seed in any::<u64>()) {
        let spec = tiny_base(seed);
        let a = drcell_scenario::run_scenario(&spec, 0).unwrap();
        let b = drcell_scenario::run_scenario(&spec, 0).unwrap();
        prop_assert_eq!(a.report.cycles, b.report.cycles);
    }

    #[test]
    fn expansion_size_is_product_of_axes(
        n_eps in 1usize..4,
        n_seeds in 1usize..4,
    ) {
        let sweep = SweepSpec {
            base: tiny_base(1),
            policies: vec![PolicySpec::Random],
            epsilons: (0..n_eps).map(|i| 0.3 + 0.1 * i as f64).collect(),
            ps: Vec::new(),
            seeds: (0..n_seeds as u64).collect(),
            perturbations: Vec::new(),
            };
        prop_assert_eq!(sweep.expand().len(), n_eps * n_seeds);
    }
}
