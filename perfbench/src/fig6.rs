//! `fig6-quick`: what `fig6 --quick` runs — `experiments::fig6` on the
//! quick temperature and PM2.5 tasks, 4 training episodes, p ∈ {0.9, 0.95}.
//!
//! The tasks are the figure's own data, generated from the experiment seed
//! the `fig6` binary uses. The workload seed replaces that seed as the
//! `fig6` training and evaluation seed. At the default seed the workload
//! therefore reruns `fig6 --quick` exactly. The datasets stay fixed because
//! one pass takes 20–30 s, too long to average several datasets in a run,
//! and regenerating them per seed moves the pass wall by ±20%.

use std::time::{Duration, Instant};

use drcell_core::experiments::{fig6, Fig6Row};
use drcell_core::{
    CellSelectionPolicy, CoreError, DrCellPolicy, DrCellTrainer, QbcPolicy, RandomPolicy,
    RunnerConfig, SensingTask, SparseMcsRunner, TrainerConfig,
};
use drcell_datasets::{SensorScopeConfig, SensorScopeDataset, UAirConfig, UAirDataset};
use drcell_quality::{ErrorMetric, QualityRequirement};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::probe::{assessments_in_cycle, Family, Phases, Timed};
use crate::report::Checks;
use crate::stats::median;
use crate::{Args, LayerValues, Outcome, PassTotals};

const PS: [f64; 2] = [0.9, 0.95];
/// The seed the `fig6` binary generates its datasets from.
const DATASET_SEED: u64 = crate::DEFAULT_SEED;
const EPISODES: usize = 4;

/// The quick temperature task: 16 cells, 3 days, a 2-day training stage,
/// ε = 0.3 °C.
pub fn temperature_task() -> Result<SensingTask, CoreError> {
    let config = SensorScopeConfig {
        cells: 16,
        grid_rows: 4,
        grid_cols: 4,
        cycles: 3 * 48,
        ..SensorScopeConfig::default()
    };
    let ds = SensorScopeDataset::generate(&config, DATASET_SEED);
    SensingTask::new(
        "temperature",
        ds.temperature,
        ds.grid,
        ErrorMetric::MeanAbsolute,
        QualityRequirement::new(0.3, 0.9).map_err(CoreError::Quality)?,
        2 * config.cycles_per_day,
    )
}

/// The quick PM2.5 task: a 4×4 grid, 5 days, a 2-day training stage,
/// ε = 9/36 AQI misclassification.
pub fn pm25_task() -> Result<SensingTask, CoreError> {
    let config = UAirConfig {
        grid_rows: 4,
        grid_cols: 4,
        cycles: 5 * 24,
        ..UAirConfig::default()
    };
    let ds = UAirDataset::generate(&config, DATASET_SEED);
    SensingTask::new(
        "PM2.5",
        ds.pm25,
        ds.grid,
        ErrorMetric::AqiClassification,
        QualityRequirement::new(0.25, 0.9).map_err(CoreError::Quality)?,
        2 * config.cycles_per_day,
    )
}

fn trainer() -> DrCellTrainer {
    DrCellTrainer::new(TrainerConfig {
        episodes: EPISODES,
        ..TrainerConfig::default()
    })
}

/// The comparable content of a Figure-6 row.
fn key(r: &Fig6Row) -> (String, String, u64, u64, u64) {
    (
        r.task.clone(),
        r.policy.clone(),
        r.p.to_bits(),
        r.mean_cells.to_bits(),
        r.within_epsilon.to_bits(),
    )
}

/// DR-Cell's mean saving in cells per cycle against the better of QBC and
/// RANDOM, over every (task, p) cell, in percent.
pub fn drcell_saving_pct(rows: &[Fig6Row]) -> f64 {
    let mut savings = Vec::new();
    for dr in rows.iter().filter(|r| r.policy == "DR-Cell") {
        let best = rows
            .iter()
            .filter(|r| r.task == dr.task && r.p == dr.p && r.policy != "DR-Cell")
            .map(|r| r.mean_cells)
            .fold(f64::INFINITY, f64::min);
        savings.push(100.0 * (1.0 - dr.mean_cells / best));
    }
    savings.iter().sum::<f64>() / savings.len().max(1) as f64
}

/// One untraced pass: build both tasks, then `experiments::fig6` on each.
/// Returns the per-task walls in seconds, the rows and the pass totals.
fn pass(seed: u64, checks: &mut Checks) -> (Vec<f64>, Vec<Fig6Row>, PassTotals) {
    let trainer = trainer();
    let runner = RunnerConfig::default();
    let mut walls = Vec::new();
    let mut rows = Vec::new();
    let mut totals = PassTotals::default();
    for build in [temperature_task, pm25_task] {
        let t = Instant::now();
        let out = build().and_then(|task| {
            let rows = fig6(&task, &PS, &trainer, &runner, seed)?;
            Ok((task.test_cycles(), rows))
        });
        walls.push(t.elapsed().as_secs_f64());
        checks.op(out.is_ok(), || {
            format!("fig6 failed: {:?}", out.as_ref().err())
        });
        if let Ok((cycles, task_rows)) = out {
            checks.op(task_rows.len() == 3 * PS.len(), || {
                format!("fig6 returned {} rows", task_rows.len())
            });
            for r in &task_rows {
                let c = cycles as u64;
                totals.cycles += c;
                totals.selections += (r.mean_cells * cycles as f64).round() as u64;
                totals.within += (r.within_epsilon * cycles as f64).round() as u64;
            }
            rows.extend(task_rows);
        }
    }
    (walls, rows, totals)
}

/// The exact call sequence of `experiments::fig6`, each call timed.
fn traced_task(
    task: &SensingTask,
    trainer: &DrCellTrainer,
    runner_config: &RunnerConfig,
    seed: u64,
    ph: &mut Phases,
) -> Result<Vec<Fig6Row>, CoreError> {
    let t = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let agent = trainer.train_drqn(task, &mut rng)?;
    let mut drcell = DrCellPolicy::new(agent, trainer.config().env.history_k);
    ph.build_policy += t.elapsed();

    let mut rows = Vec::new();
    for p in PS {
        let t = Instant::now();
        let req = QualityRequirement::new(task.requirement().epsilon, p)?;
        let task_p = task.with_requirement(req);
        let runner = SparseMcsRunner::new(&task_p, runner_config.clone())?;
        ph.run += t.elapsed();

        let t = Instant::now();
        let mut qbc = QbcPolicy::new(task_p.grid(), runner_config.window)?;
        let mut random = RandomPolicy::new();
        ph.build_policy += t.elapsed();

        let policies: [(Family, &mut dyn CellSelectionPolicy); 3] = [
            (Family::DrCell, &mut drcell),
            (Family::Qbc, &mut qbc),
            (Family::Random, &mut random),
        ];
        for (family, policy) in policies {
            let t = Instant::now();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut timed = Timed::new(policy);
            let report = runner.run(&mut timed, &mut rng)?;
            ph.run += t.elapsed();
            ph.add_timed(family, &timed);
            ph.assessments += report
                .cycles
                .iter()
                .map(|c| assessments_in_cycle(c.selected.len(), runner_config))
                .sum::<u64>();
            rows.push(Fig6Row {
                task: report.task.clone(),
                policy: report.policy.clone(),
                p,
                mean_cells: report.mean_cells_per_cycle(),
                within_epsilon: report.fraction_within_epsilon(),
            });
        }
    }
    Ok(rows)
}

/// One traced pass; the inner-share samples are taken at each task start.
fn traced_pass(seed: u64, checks: &mut Checks) -> (Vec<Fig6Row>, Phases) {
    let trainer = trainer();
    let runner = RunnerConfig::default();
    let mut ph = Phases::default();
    let mut rows = Vec::new();
    for build in [temperature_task, pm25_task] {
        crate::probe::sample_inner_share(16, &mut ph.inner_share_us);
        let unit = Instant::now();
        let t = Instant::now();
        let task = build();
        ph.build_task += t.elapsed();
        let out = task.and_then(|task| traced_task(&task, &trainer, &runner, seed, &mut ph));
        ph.unit_wall += unit.elapsed();
        match out {
            Ok(r) => rows.extend(r),
            Err(e) => checks.op(false, || format!("traced fig6 failed: {e}")),
        }
    }
    (rows, ph)
}

/// Set-up: build both tasks and warm the runner with one RANDOM testing
/// stage on the temperature task.
fn setup(seed: u64, checks: &mut Checks) -> Duration {
    let t = Instant::now();
    let warm = temperature_task().and_then(|temperature| {
        pm25_task()?;
        let runner = SparseMcsRunner::new(&temperature, RunnerConfig::default())?;
        runner.run(&mut RandomPolicy::new(), &mut StdRng::seed_from_u64(seed))
    });
    checks.op(warm.is_ok(), || {
        format!("fig6 set-up failed: {:?}", warm.err())
    });
    t.elapsed()
}

pub fn run(args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let setups: Vec<f64> = (0..crate::SETUPS)
        .map(|_| setup(args.seed, &mut checks).as_secs_f64())
        .collect();
    let setup_s = median(&setups);
    let budget = Duration::from_secs(args.seconds);

    let started = Instant::now();
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut totals = PassTotals::default();
    let mut reference: Option<Vec<Fig6Row>> = None;
    let mut passes = 0;
    let mut sys = 0.0;
    while passes == 0 || (!args.trace && started.elapsed() < budget) {
        let before = crate::sys::usage();
        let (w, rows, t) = pass(args.seed, &mut checks);
        rates.push(t.cycles as f64 / w.iter().sum::<f64>());
        sys = crate::sys::sys_frac(&before, &crate::sys::usage());
        walls.extend(w);
        totals.merge(&t);
        match &reference {
            None => reference = Some(rows),
            Some(first) => {
                let same = first.iter().map(key).eq(rows.iter().map(key));
                checks.op(same, || "fig6 rows differ between passes".to_owned());
            }
        }
        passes += 1;
    }
    let reference = reference.unwrap_or_default();
    for r in &reference {
        eprintln!("  {}", r.row());
    }
    let saving = drcell_saving_pct(&reference);
    eprintln!("  DR-Cell saving vs the better baseline: {saving:+.2}%");

    if !args.trace {
        let op_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
        return Outcome::e2e(checks, setup_s, &op_ms, &rates, &totals);
    }

    let plain: f64 = walls.iter().sum();
    let t = Instant::now();
    let (rows, ph) = traced_pass(args.seed, &mut checks);
    let traced = t.elapsed().as_secs_f64();
    let same = reference.iter().map(key).eq(rows.iter().map(key));
    checks.op(same, || {
        "traced fig6 decomposition differs from experiments::fig6".to_owned()
    });
    crate::check_phase_sum(&mut checks, "fig6-quick", &ph);
    let mut layers = LayerValues::from_phases(&ph, 1.0);
    layers.sys_cpu_frac = sys;
    layers.engine_idle_frac = 1.0 - ph.unit_wall.as_secs_f64() / traced;
    layers.drcell_saving_pct = saving;
    layers.overhead_frac = traced / plain - 1.0;
    Outcome::traced(checks, layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(task: &str, policy: &str, p: f64, mean_cells: f64) -> Fig6Row {
        Fig6Row {
            task: task.to_owned(),
            policy: policy.to_owned(),
            p,
            mean_cells,
            within_epsilon: 1.0,
        }
    }

    #[test]
    fn tasks_are_the_fig6_quick_tasks() {
        use drcell_bench::Scale;
        let pairs = [
            (
                temperature_task(),
                drcell_bench::temperature_task(Scale::Quick),
            ),
            (pm25_task(), drcell_bench::pm25_task(Scale::Quick)),
        ];
        for (ours, theirs) in pairs {
            let (ours, theirs) = (ours.unwrap(), theirs.unwrap());
            assert_eq!(ours.name(), theirs.name());
            assert_eq!(ours.truth(), theirs.truth());
            assert_eq!(ours.train_cycles(), theirs.train_cycles());
            assert_eq!(ours.requirement(), theirs.requirement());
        }
        assert_eq!(DATASET_SEED, drcell_bench::EXPERIMENT_SEED);
    }

    #[test]
    fn saving_is_against_the_better_baseline() {
        let rows = [
            row("t", "DR-Cell", 0.9, 9.0),
            row("t", "QBC", 0.9, 10.0),
            row("t", "RANDOM", 0.9, 12.0),
            row("t", "DR-Cell", 0.95, 11.0),
            row("t", "QBC", 0.95, 12.0),
            row("t", "RANDOM", 0.95, 10.0),
        ];
        // +10% at p=0.9, -10% at p=0.95.
        assert!(drcell_saving_pct(&rows).abs() < 1e-12);
    }
}
