//! Experiment harness reproducing the paper's evaluation (§5).
//!
//! Each function regenerates the data behind one table or figure; the
//! `drcell-bench` binaries call these at full paper scale, while tests call
//! them on scaled-down tasks. Rows are plain structs so callers can print,
//! assert, or serialise them.
//!
//! A figure splits into independent units: the stages that share a trained
//! Q-function stay together in one unit, and every stage that never reads
//! it (a baseline, a separately trained variant) is a unit of its own.
//! The units fan out with [`Pool::try_run_units`], which reserves its
//! workers as outer parallelism, so the pools inside each unit resolve to
//! the remaining share. Every unit seeds its own generator exactly as the
//! serial sequence does, and the rows come back in that sequence's order,
//! so they are bit-identical at any worker count.

use rand::rngs::StdRng;
use rand::SeedableRng;

use drcell_linalg::gemm::Pool;
use drcell_neural::Adam;
use drcell_quality::QualityRequirement;
use drcell_rl::{DqnAgent, DrqnQNetwork};

use crate::transfer::{limited_training_task, short_train};
use crate::{
    CellSelectionPolicy, CoreError, DrCellPolicy, DrCellTrainer, QbcPolicy, RandomPolicy,
    RunReport, RunnerConfig, SensingTask, SparseMcsRunner,
};

/// One bar of Figure 6: a policy's average number of selected cells per
/// cycle under an (ε, p) requirement.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Task name.
    pub task: String,
    /// Policy name (DR-Cell / QBC / RANDOM).
    pub policy: String,
    /// The p of the (ε, p)-quality requirement.
    pub p: f64,
    /// Average selected cells per cycle (the bar height).
    pub mean_cells: f64,
    /// Realised fraction of cycles within ε (sanity check of the
    /// guarantee).
    pub within_epsilon: f64,
}

impl Fig6Row {
    fn from_report(report: &RunReport, p: f64) -> Self {
        Fig6Row {
            task: report.task.clone(),
            policy: report.policy.clone(),
            p,
            mean_cells: report.mean_cells_per_cycle(),
            within_epsilon: report.fraction_within_epsilon(),
        }
    }

    /// Formatted output row.
    pub fn row(&self) -> String {
        format!(
            "{:<14} p={:<5} {:<10} {:>6.2} cells/cycle (within-ε {:>5.1}%)",
            self.task,
            self.p,
            self.policy,
            self.mean_cells,
            self.within_epsilon * 100.0
        )
    }
}

/// Reproduces one task's portion of **Figure 6**: DR-Cell vs QBC vs RANDOM
/// at each requested `p`, reporting average selected cells per cycle.
///
/// Rows come in `ps` order, DR-Cell, QBC and RANDOM at each `p`. Unit 0
/// trains the DRQN and runs DR-Cell at every `p`; QBC and RANDOM never
/// read the Q-function, so each (p, baseline) pair runs as a unit of its
/// own, concurrently with training.
///
/// # Errors
///
/// Propagates training, policy and runner failures.
pub fn fig6(
    task: &SensingTask,
    ps: &[f64],
    trainer: &DrCellTrainer,
    runner_config: &RunnerConfig,
    seed: u64,
) -> Result<Vec<Fig6Row>, CoreError> {
    let units = Pool::auto().try_run_units(1 + 2 * ps.len(), |unit| -> Result<_, CoreError> {
        if unit == 0 {
            // The Q-function only depends on ε (the training-stage quality
            // signal), not on p, so train once and reuse the agent for
            // every p.
            let mut rng = StdRng::seed_from_u64(seed);
            let agent = trainer.train_drqn(task, &mut rng)?;
            let mut drcell = DrCellPolicy::new(agent, trainer.config().env.history_k);
            return ps
                .iter()
                .map(|&p| fig6_row(task, p, runner_config, &mut drcell, seed))
                .collect();
        }
        let p = ps[(unit - 1) / 2];
        let row = if unit % 2 == 1 {
            let mut qbc = QbcPolicy::new(task.grid(), runner_config.window)?;
            fig6_row(task, p, runner_config, &mut qbc, seed)?
        } else {
            fig6_row(task, p, runner_config, &mut RandomPolicy::new(), seed)?
        };
        Ok(vec![row])
    })?;

    let mut units = units.into_iter();
    let drcell = units.next().expect("unit 0 ran");
    let mut rows = Vec::with_capacity(3 * ps.len());
    for (dr, baselines) in drcell.into_iter().zip(units.as_slice().chunks(2)) {
        rows.push(dr);
        rows.extend(baselines.iter().flatten().cloned());
    }
    Ok(rows)
}

/// One Figure-6 testing stage: `policy` under the (ε, `p`) requirement,
/// with a generator seeded from `seed`.
fn fig6_row(
    task: &SensingTask,
    p: f64,
    runner_config: &RunnerConfig,
    policy: &mut dyn CellSelectionPolicy,
    seed: u64,
) -> Result<Fig6Row, CoreError> {
    let req = QualityRequirement::new(task.requirement().epsilon, p)?;
    let task_p = task.with_requirement(req);
    let runner = SparseMcsRunner::new(&task_p, runner_config.clone())?;
    let mut rng = StdRng::seed_from_u64(seed);
    Ok(Fig6Row::from_report(&runner.run(policy, &mut rng)?, p))
}

/// One bar of Figure 7: a transfer-learning variant's average number of
/// selected cells per cycle on the target task.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Target task name.
    pub target: String,
    /// Variant (TRANSFER / NO-TRANSFER / SHORT-TRAIN / RANDOM).
    pub variant: String,
    /// Average selected cells per cycle.
    pub mean_cells: f64,
    /// Realised fraction of cycles within ε.
    pub within_epsilon: f64,
}

impl Fig7Row {
    fn from_report(report: &RunReport) -> Self {
        Fig7Row {
            target: report.task.clone(),
            variant: report.policy.clone(),
            mean_cells: report.mean_cells_per_cycle(),
            within_epsilon: report.fraction_within_epsilon(),
        }
    }

    /// Formatted output row.
    pub fn row(&self) -> String {
        format!(
            "{:<14} {:<12} {:>6.2} cells/cycle (within-ε {:>5.1}%)",
            self.target,
            self.variant,
            self.mean_cells,
            self.within_epsilon * 100.0
        )
    }
}

/// Reproduces one direction of **Figure 7**: TRANSFER vs NO-TRANSFER vs
/// SHORT-TRAIN vs RANDOM on the target task, where the target has only
/// `target_cycles` of training data (paper: 10 cycles).
///
/// Three units: the source training with the TRANSFER and NO-TRANSFER
/// runs that share it, SHORT-TRAIN, and RANDOM.
///
/// # Errors
///
/// Propagates training, policy and runner failures.
pub fn fig7(
    source_task: &SensingTask,
    target_task: &SensingTask,
    target_cycles: usize,
    trainer: &DrCellTrainer,
    runner_config: &RunnerConfig,
    seed: u64,
) -> Result<Vec<Fig7Row>, CoreError> {
    let runner = SparseMcsRunner::new(target_task, runner_config.clone())?;
    let k = trainer.config().env.history_k;
    let run = |policy: &mut dyn CellSelectionPolicy, rng: &mut StdRng| {
        Ok::<_, CoreError>(Fig7Row::from_report(&runner.run(policy, rng)?))
    };
    let units = Pool::auto().try_run_units(3, |unit| -> Result<Vec<Fig7Row>, CoreError> {
        match unit {
            0 => {
                // The source Q-function is shared by TRANSFER (as the
                // fine-tuning initialisation) and NO-TRANSFER (used as-is), so
                // train it once.
                let mut rng = StdRng::seed_from_u64(seed);
                let source_agent = trainer.train_drqn(source_task, &mut rng)?;
                let source_params = source_agent.export_params();

                let limited = limited_training_task(target_task, target_cycles)?;
                let mut target_agent = DqnAgent::new(
                    DrqnQNetwork::new(target_task.cells(), trainer.config().hidden, &mut rng)?,
                    Box::new(Adam::new(trainer.config().learning_rate)),
                    trainer.config().dqn,
                )?;
                target_agent.import_params(&source_params);
                let agent = trainer.train_agent(&limited, target_agent, &mut rng)?;
                let mut policy = DrCellPolicy::new(agent, k).with_name("TRANSFER");
                let transfer = run(&mut policy, &mut StdRng::seed_from_u64(seed))?;

                let mut policy = DrCellPolicy::new(source_agent, k).with_name("NO-TRANSFER");
                let no_transfer = run(&mut policy, &mut StdRng::seed_from_u64(seed))?;
                Ok(vec![transfer, no_transfer])
            }
            1 => {
                let mut rng = StdRng::seed_from_u64(seed);
                let agent = short_train(trainer, target_task, target_cycles, &mut rng)?;
                let mut policy = DrCellPolicy::new(agent, k).with_name("SHORT-TRAIN");
                Ok(vec![run(&mut policy, &mut rng)?])
            }
            _ => Ok(vec![run(
                &mut RandomPolicy::new(),
                &mut StdRng::seed_from_u64(seed),
            )?]),
        }
    })?;
    Ok(units.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{McsEnvConfig, TrainerConfig};
    use drcell_datasets::{CellGrid, DataMatrix, SensorScopeConfig, SensorScopeDataset};
    use drcell_quality::{ErrorMetric, QualityRequirement};
    use drcell_rl::{DqnConfig, EpsilonSchedule};

    fn toy_task(name: &str, phase: f64) -> SensingTask {
        let truth = DataMatrix::from_fn(6, 14, |i, t| {
            3.0 + ((i as f64 + phase) * 0.8).sin() * 0.3 + (t as f64 * 0.5).sin() * 0.1
        });
        SensingTask::new(
            name,
            truth,
            CellGrid::full_grid(2, 3, 10.0, 10.0),
            ErrorMetric::MeanAbsolute,
            QualityRequirement::new(0.25, 0.9).unwrap(),
            8,
        )
        .unwrap()
    }

    /// A 12-cell Sensor-Scope-like task (48 training, 12 testing cycles).
    /// On the toy task every policy senses all six cells each cycle, so
    /// its rows cannot show a seeding change; here the policies select
    /// different numbers of cells.
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

    /// The serial Figure-6 sequence the fan-out replaces: train, then
    /// DR-Cell, QBC and RANDOM at each p, each from a fresh generator.
    fn fig6_serial(
        task: &SensingTask,
        ps: &[f64],
        trainer: &DrCellTrainer,
        runner_config: &RunnerConfig,
        seed: u64,
    ) -> Vec<Fig6Row> {
        let mut rng = StdRng::seed_from_u64(seed);
        let agent = trainer.train_drqn(task, &mut rng).unwrap();
        let mut drcell = DrCellPolicy::new(agent, trainer.config().env.history_k);
        let mut rows = Vec::new();
        for &p in ps {
            let req = QualityRequirement::new(task.requirement().epsilon, p).unwrap();
            let task_p = task.with_requirement(req);
            let runner = SparseMcsRunner::new(&task_p, runner_config.clone()).unwrap();
            let mut qbc = QbcPolicy::new(task_p.grid(), runner_config.window).unwrap();
            let policies: [&mut dyn CellSelectionPolicy; 3] =
                [&mut drcell, &mut qbc, &mut RandomPolicy::new()];
            for policy in policies {
                let mut rng = StdRng::seed_from_u64(seed);
                let report = runner.run(policy, &mut rng).unwrap();
                rows.push(Fig6Row::from_report(&report, p));
            }
        }
        rows
    }

    /// The serial Figure-7 sequence the fan-out replaces: one generator
    /// chain through source training and TRANSFER fine-tuning, then a
    /// fresh generator per run and for SHORT-TRAIN.
    fn fig7_serial(
        source_task: &SensingTask,
        target_task: &SensingTask,
        target_cycles: usize,
        trainer: &DrCellTrainer,
        runner_config: &RunnerConfig,
        seed: u64,
    ) -> Vec<Fig7Row> {
        let runner = SparseMcsRunner::new(target_task, runner_config.clone()).unwrap();
        let k = trainer.config().env.history_k;
        let mut rng = StdRng::seed_from_u64(seed);
        let source_agent = trainer.train_drqn(source_task, &mut rng).unwrap();
        let limited = limited_training_task(target_task, target_cycles).unwrap();
        let mut target_agent = DqnAgent::new(
            DrqnQNetwork::new(target_task.cells(), trainer.config().hidden, &mut rng).unwrap(),
            Box::new(Adam::new(trainer.config().learning_rate)),
            trainer.config().dqn,
        )
        .unwrap();
        target_agent.import_params(&source_agent.export_params());
        let agent = trainer
            .train_agent(&limited, target_agent, &mut rng)
            .unwrap();

        let mut rows = Vec::new();
        let mut run = |policy: &mut dyn CellSelectionPolicy, rng: &mut StdRng| {
            rows.push(Fig7Row::from_report(&runner.run(policy, rng).unwrap()));
        };
        let mut transfer = DrCellPolicy::new(agent, k).with_name("TRANSFER");
        run(&mut transfer, &mut StdRng::seed_from_u64(seed));
        let mut no_transfer = DrCellPolicy::new(source_agent, k).with_name("NO-TRANSFER");
        run(&mut no_transfer, &mut StdRng::seed_from_u64(seed));
        let mut rng = StdRng::seed_from_u64(seed);
        let agent = short_train(trainer, target_task, target_cycles, &mut rng).unwrap();
        run(
            &mut DrCellPolicy::new(agent, k).with_name("SHORT-TRAIN"),
            &mut rng,
        );
        run(&mut RandomPolicy::new(), &mut StdRng::seed_from_u64(seed));
        rows
    }

    /// Row text plus the exact bits of the values the text rounds.
    fn fig6_bits(rows: &[Fig6Row]) -> Vec<(String, u64, u64)> {
        let bits = |r: &Fig6Row| (r.row(), r.mean_cells.to_bits(), r.within_epsilon.to_bits());
        rows.iter().map(bits).collect()
    }

    fn fig7_bits(rows: &[Fig7Row]) -> Vec<(String, u64, u64)> {
        let bits = |r: &Fig7Row| (r.row(), r.mean_cells.to_bits(), r.within_epsilon.to_bits());
        rows.iter().map(bits).collect()
    }

    #[test]
    fn fig6_rows_are_identical_at_any_worker_count() {
        use drcell_pool::budget::{reserve_outer, total_budget};
        let (task, trainer, runner) = (small_task("small", 3), fast_trainer(), fast_runner());
        let ps = [0.9, 0.95];
        let fanned = fig6(&task, &ps, &trainer, &runner, 4).unwrap();
        let one_worker = {
            // Claiming every thread resolves the fan-out to one worker.
            let _claim = reserve_outer(total_budget() * 64);
            fig6(&task, &ps, &trainer, &runner, 4).unwrap()
        };
        let serial = fig6_serial(&task, &ps, &trainer, &runner, 4);
        assert_eq!(fig6_bits(&fanned), fig6_bits(&serial));
        assert_eq!(fig6_bits(&one_worker), fig6_bits(&serial));
    }

    #[test]
    fn fig7_rows_are_identical_at_any_worker_count() {
        use drcell_pool::budget::{reserve_outer, total_budget};
        let (src, tgt) = (small_task("source", 3), small_task("target", 4));
        let (trainer, runner) = (fast_trainer(), fast_runner());
        let fanned = fig7(&src, &tgt, 10, &trainer, &runner, 5).unwrap();
        let one_worker = {
            let _claim = reserve_outer(total_budget() * 64);
            fig7(&src, &tgt, 10, &trainer, &runner, 5).unwrap()
        };
        let serial = fig7_serial(&src, &tgt, 10, &trainer, &runner, 5);
        assert_eq!(fig7_bits(&fanned), fig7_bits(&serial));
        assert_eq!(fig7_bits(&one_worker), fig7_bits(&serial));
    }

    #[test]
    fn fig6_produces_three_policies_per_p() {
        let task = toy_task("toy", 0.0);
        let rows = fig6(&task, &[0.9], &fast_trainer(), &fast_runner(), 1).unwrap();
        assert_eq!(rows.len(), 3);
        let names: Vec<&str> = rows.iter().map(|r| r.policy.as_str()).collect();
        assert!(names.contains(&"DR-Cell"));
        assert!(names.contains(&"QBC"));
        assert!(names.contains(&"RANDOM"));
        for r in &rows {
            assert!(r.mean_cells >= 2.0, "{}", r.row());
            assert!(r.mean_cells <= 6.0);
            assert!(!r.row().is_empty());
        }
    }

    #[test]
    fn fig6_multiple_p_values() {
        let task = toy_task("toy", 0.0);
        let rows = fig6(&task, &[0.9, 0.95], &fast_trainer(), &fast_runner(), 2).unwrap();
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().any(|r| r.p == 0.9));
        assert!(rows.iter().any(|r| r.p == 0.95));
    }

    #[test]
    fn fig7_produces_four_variants() {
        let src = toy_task("source", 0.0);
        let tgt = toy_task("target", 0.4);
        let rows = fig7(&src, &tgt, 4, &fast_trainer(), &fast_runner(), 3).unwrap();
        assert_eq!(rows.len(), 4);
        let names: Vec<&str> = rows.iter().map(|r| r.variant.as_str()).collect();
        for expected in ["TRANSFER", "NO-TRANSFER", "SHORT-TRAIN", "RANDOM"] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }
}
