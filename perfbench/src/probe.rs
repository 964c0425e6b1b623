//! Outside-in layer timing: a policy wrapper that times `select_next`, a
//! sampler for the pool budget lookup, and phase accumulators. Nothing here
//! touches the program's internals; every number is the wall time of a
//! call into a crate's public API.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use drcell_core::{CellSelectionPolicy, CoreError, CycleRecord, RunnerConfig};
use drcell_inference::ObservedMatrix;
use drcell_scenario::{ScenarioSpec, SweepEngine};
use rand::RngCore;

/// Which policy family a timed wrapper belongs to (the `core.select_*`
/// metric suffix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    DrCell,
    Qbc,
    Random,
}

impl Family {
    pub const ALL: [Family; 3] = [Family::DrCell, Family::Qbc, Family::Random];

    pub fn key(self) -> &'static str {
        match self {
            Family::DrCell => "drcell",
            Family::Qbc => "qbc",
            Family::Random => "random",
        }
    }

    /// The family of a policy display name.
    pub fn of_label(label: &str) -> Family {
        match label {
            "QBC" => Family::Qbc,
            "RANDOM" => Family::Random,
            _ => Family::DrCell,
        }
    }
}

/// Wraps a policy and accumulates the wall time of its calls. Behaviour is
/// forwarded unchanged, so the wrapped run emits the same records.
pub struct Timed<'p> {
    inner: &'p mut dyn CellSelectionPolicy,
    /// Time inside `select_next`.
    pub select: Duration,
    /// Calls to `select_next`.
    pub calls: u64,
    /// Time inside the cycle start/end notifications.
    pub notify: Duration,
}

impl<'p> Timed<'p> {
    pub fn new(inner: &'p mut dyn CellSelectionPolicy) -> Self {
        Timed {
            inner,
            select: Duration::ZERO,
            calls: 0,
            notify: Duration::ZERO,
        }
    }
}

impl CellSelectionPolicy for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_cycle_start(&mut self, cycle: usize) {
        let t = Instant::now();
        self.inner.on_cycle_start(cycle);
        self.notify += t.elapsed();
    }

    fn on_cycle_end(&mut self, record: &CycleRecord, rng: &mut dyn RngCore) {
        let t = Instant::now();
        self.inner.on_cycle_end(record, rng);
        self.notify += t.elapsed();
    }

    fn select_next(
        &mut self,
        obs: &ObservedMatrix,
        cycle: usize,
        rng: &mut dyn RngCore,
    ) -> Result<usize, CoreError> {
        let t = Instant::now();
        let out = self.inner.select_next(obs, cycle, rng);
        self.select += t.elapsed();
        self.calls += 1;
        out
    }
}

/// Leave-one-out assessments the runner made in a cycle that sensed
/// `sensed` cells: one at every selection count `k` in
/// `min..sensed` with `(k - min) % every == 0`, plus the final one at
/// `sensed` (which either cleared the requirement or was forced by the
/// cell cap).
pub fn assessments_in_cycle(sensed: usize, config: &RunnerConfig) -> u64 {
    let min = config.min_selections_per_cycle;
    let every = config.assess_every.max(1);
    if sensed < min {
        return 1;
    }
    ((sensed - min).div_ceil(every) + 1) as u64
}

/// Samples the cost of one `drcell_pool::budget::inner_share()` call, in
/// microseconds.
pub fn sample_inner_share(samples: usize, out: &mut Vec<f64>) {
    for _ in 0..samples {
        let t = Instant::now();
        std::hint::black_box(drcell_pool::budget::inner_share());
        out.push(t.elapsed().as_secs_f64() * 1e6);
    }
}

/// Runs `f(index, spec)` for every spec on the sweep engine's worker count,
/// under the same outer reservation the engine takes, and returns the
/// results in spec order — the engine's scheduling loop, replayed so each
/// call can be timed.
pub fn fan_out<T: Send>(
    specs: &[ScenarioSpec],
    f: impl Fn(usize, &ScenarioSpec) -> T + Sync,
) -> Vec<T> {
    let workers = SweepEngine::new(0).effective_threads(specs.len());
    let _budget = drcell_pool::budget::reserve_outer(workers);
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<T>>> = Mutex::new((0..specs.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= specs.len() {
                    break;
                }
                let value = f(i, &specs[i]);
                out.lock().expect("results lock")[i] = Some(value);
            });
        }
    });
    out.into_inner()
        .expect("results lock")
        .into_iter()
        .map(|v| v.expect("every spec ran"))
        .collect()
}

/// Per-layer phase totals of one traced pass.
#[derive(Debug, Default, Clone)]
pub struct Phases {
    pub build_task: Duration,
    pub build_policy: Duration,
    pub run: Duration,
    pub select: [Duration; 3],
    pub select_calls: [u64; 3],
    pub notify: Duration,
    pub row_json: Duration,
    pub rows: u64,
    pub assessments: u64,
    /// Wall of the units the phases were measured in (scenarios or runs).
    pub unit_wall: Duration,
    pub inner_share_us: Vec<f64>,
}

impl Phases {
    pub fn add_timed(&mut self, family: Family, timed: &Timed<'_>) {
        let i = Family::ALL.iter().position(|f| *f == family).unwrap_or(0);
        self.select[i] += timed.select;
        self.select_calls[i] += timed.calls;
        self.notify += timed.notify;
    }

    pub fn merge(&mut self, other: Phases) {
        self.build_task += other.build_task;
        self.build_policy += other.build_policy;
        self.run += other.run;
        for i in 0..3 {
            self.select[i] += other.select[i];
            self.select_calls[i] += other.select_calls[i];
        }
        self.notify += other.notify;
        self.row_json += other.row_json;
        self.rows += other.rows;
        self.assessments += other.assessments;
        self.unit_wall += other.unit_wall;
        self.inner_share_us.extend(other.inner_share_us);
    }

    /// Runner wall time spent outside the policy: LOO assessment, CS
    /// completion and window building.
    pub fn runner_self(&self) -> Duration {
        let policy: Duration = self.select.iter().sum::<Duration>() + self.notify;
        self.run.saturating_sub(policy)
    }

    /// The named phases' sum, which must match the measured unit wall.
    pub fn phase_sum(&self) -> Duration {
        self.build_task + self.build_policy + self.run + self.row_json
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assessment_count_follows_the_runner_loop() {
        let paper = RunnerConfig::default(); // min 2, every 1
        assert_eq!(assessments_in_cycle(2, &paper), 1);
        assert_eq!(assessments_in_cycle(5, &paper), 4);
        let sparse = RunnerConfig {
            assess_every: 3,
            ..RunnerConfig::default()
        };
        // Assessed at 2, 5 and the final 6.
        assert_eq!(assessments_in_cycle(6, &sparse), 3);
        // Assessed at 2 and the final 5 (which is also on the cadence).
        assert_eq!(assessments_in_cycle(5, &sparse), 2);
    }

    #[test]
    fn family_of_label() {
        assert_eq!(Family::of_label("QBC"), Family::Qbc);
        assert_eq!(Family::of_label("RANDOM"), Family::Random);
        assert_eq!(Family::of_label("DR-Cell"), Family::DrCell);
    }
}
