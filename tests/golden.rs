//! Absolute golden pin: the SHA-256 of the rows five fixed paths emit.
//!
//! Every other byte-identity check compares one run against another
//! (thread counts, kernel sets, cold vs warm). A change that shifts every
//! arm equally passes those silently; these digests catch it. They hold
//! with the SIMD kernels and with `DRCELL_BACKEND=scalar` alike
//! (invariant 9). Update a digest only together with a CHANGES.md entry
//! that explains the numeric change.

use drcell::core::experiments::{fig6, fig7};
use drcell::core::{DrCellTrainer, McsEnvConfig, RunnerConfig, SensingTask, TrainerConfig};
use drcell::datasets::{SensorScopeConfig, SensorScopeDataset};
use drcell::quality::{ErrorMetric, QualityRequirement};
use drcell::rl::{DqnConfig, EpsilonSchedule};
use drcell::scenario::{registry, sink, PolicySpec, ScenarioSpec, SweepEngine};
use drcell::store::sha256::{hex, Sha256};

/// `drcell-scenario sweep` with no flags: the built-in 8-scenario grid.
const DEFAULT_SWEEP_SHA256: &str =
    "960fea32cc4d31156b7b440f12042136208bd3f3d1bf2edd519f7035b3b451bd";

/// `drcell-scenario run --name synthetic-smooth`.
const SYNTHETIC_SMOOTH_SHA256: &str =
    "f3c9949f8d7eb81db337bfccd2fa5e801dbc252d8441a49984bb3af1e43c141c";

/// `aqi-baseline` under the RANDOM policy: the classification quality
/// path (Beta-Bernoulli posterior, Beta-Binomial tail), which the two
/// digests above never reach.
const AQI_BASELINE_RANDOM_SHA256: &str =
    "d7c620bec3870188ba91c977ca9ddc24242f85d455f912e1b21c5cb59e3f926b";

/// `experiments::fig6` on a small Sensor-Scope task at p ∈ {0.9, 0.95}.
const FIG6_SHA256: &str = "f1e4132645f93861718c0368489c512ec452b5aa8de613231e84cea96a84eb41";

/// `experiments::fig7` between two small Sensor-Scope tasks, the target
/// limited to 10 training cycles.
const FIG7_SHA256: &str = "b221de2929108b11d53d7d2327bbfd159e8054b44bbfce2171a66596aafa12fb";

fn jsonl_digest(engine: &SweepEngine, specs: &[ScenarioSpec]) -> String {
    let results = engine.run(specs);
    let ok: Vec<_> = results
        .iter()
        .map(|r| r.as_ref().expect("scenario must run"))
        .collect();
    let mut out = Vec::new();
    sink::write_jsonl(&mut out, &ok).expect("in-memory write cannot fail");
    Sha256::hex_digest(&out)
}

#[test]
fn default_sweep_rows_match_the_golden_digest() {
    let specs = registry::default_sweep().expand();
    assert_eq!(
        jsonl_digest(&SweepEngine::new(2), &specs),
        DEFAULT_SWEEP_SHA256
    );
}

#[test]
fn synthetic_smooth_rows_match_the_golden_digest() {
    let spec = registry::find("synthetic-smooth").expect("registry scenario");
    assert_eq!(
        jsonl_digest(&SweepEngine::new(0), &[spec]),
        SYNTHETIC_SMOOTH_SHA256
    );
}

#[test]
fn aqi_baseline_random_rows_match_the_golden_digest() {
    let mut spec = registry::find("aqi-baseline").expect("registry scenario");
    spec.policy = PolicySpec::Random;
    assert_eq!(
        jsonl_digest(&SweepEngine::new(0), &[spec]),
        AQI_BASELINE_RANDOM_SHA256
    );
}

/// A 12-cell Sensor-Scope-like task: 48 training cycles, 12 testing
/// cycles, ε = 0.3 °C. Small enough for a debug build, large enough that
/// the policies select different numbers of cells.
fn small_task(name: &str, seed: u64) -> SensingTask {
    let config = SensorScopeConfig {
        cells: 12,
        grid_rows: 4,
        grid_cols: 3,
        cycles: 60,
        ..SensorScopeConfig::default()
    };
    let ds = SensorScopeDataset::generate(&config, seed);
    SensingTask::new(
        name,
        ds.temperature,
        ds.grid,
        ErrorMetric::MeanAbsolute,
        QualityRequirement::new(0.3, 0.9).unwrap(),
        48,
    )
    .unwrap()
}

fn fast_trainer() -> DrCellTrainer {
    DrCellTrainer::new(TrainerConfig {
        episodes: 2,
        hidden: 8,
        epsilon: EpsilonSchedule::Linear {
            start: 1.0,
            end: 0.2,
            steps: 50,
        },
        dqn: DqnConfig {
            batch_size: 8,
            learning_starts: 8,
            target_update_interval: 20,
            ..Default::default()
        },
        env: McsEnvConfig {
            history_k: 2,
            window: 4,
            ..Default::default()
        },
        ..Default::default()
    })
}

fn fast_runner() -> RunnerConfig {
    RunnerConfig {
        window: 4,
        ..Default::default()
    }
}

/// Digest of figure rows: each row's text plus the exact bits of its two
/// measured values, which the text rounds.
fn rows_digest(rows: impl IntoIterator<Item = (String, f64, f64)>) -> String {
    let mut h = Sha256::new();
    for (text, mean_cells, within_epsilon) in rows {
        h.update(text.as_bytes());
        h.update(&mean_cells.to_bits().to_le_bytes());
        h.update(&within_epsilon.to_bits().to_le_bytes());
    }
    hex(&h.finish())
}

#[test]
fn fig6_rows_match_the_golden_digest() {
    let rows = fig6(
        &small_task("small", 3),
        &[0.9, 0.95],
        &fast_trainer(),
        &fast_runner(),
        1,
    )
    .expect("fig6 runs");
    let digest = rows_digest(
        rows.iter()
            .map(|r| (r.row(), r.mean_cells, r.within_epsilon)),
    );
    assert_eq!(digest, FIG6_SHA256);
}

#[test]
fn fig7_rows_match_the_golden_digest() {
    let rows = fig7(
        &small_task("source", 3),
        &small_task("target", 4),
        10,
        &fast_trainer(),
        &fast_runner(),
        3,
    )
    .expect("fig7 runs");
    let digest = rows_digest(
        rows.iter()
            .map(|r| (r.row(), r.mean_cells, r.within_epsilon)),
    );
    assert_eq!(digest, FIG7_SHA256);
}
