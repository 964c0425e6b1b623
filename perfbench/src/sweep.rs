//! `sweep-default`: the zero-flag `drcell-scenario sweep` path — the
//! default grid (RANDOM and QBC × ε {0.4, 0.7} × two seeds) on
//! `SweepEngine::new(0)`, rows written through the JSONL sink.

use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use drcell_core::SparseMcsRunner;
use drcell_scenario::sink::{row_json, write_jsonl, RowContext};
use drcell_scenario::{registry, stream_seed, streams, ScenarioSpec, SweepEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::probe::{assessments_in_cycle, fan_out, sample_inner_share, Family, Phases, Timed};
use crate::report::Checks;
use crate::stats::median;
use crate::{Args, LayerValues, Outcome, PassTotals};

/// The default grid with its two-seed axis drawn from the workload seed
/// and the pass number: every pass of a run senses fresh fields, so one
/// run averages over many seeds.
pub fn grid(seed: u64, pass: usize) -> Vec<ScenarioSpec> {
    let mut sweep = registry::default_sweep();
    let tag = 0x5eed_0000 + 2 * pass as u64;
    sweep.seeds = vec![
        stream_seed(seed, tag) % 1_000_000,
        stream_seed(seed, tag + 1) % 1_000_000,
    ];
    sweep.expand()
}

/// One untraced pass: the engine, then the JSONL sink into memory.
fn pass(specs: &[ScenarioSpec], checks: &mut Checks) -> (Duration, Vec<u8>, PassTotals) {
    let t = Instant::now();
    let results = SweepEngine::new(0).run(specs);
    let ok: Vec<_> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    let mut bytes = Vec::new();
    write_jsonl(&mut bytes, &ok).expect("writing to memory cannot fail");
    let wall = t.elapsed();

    let mut totals = PassTotals::default();
    for (spec, r) in specs.iter().zip(&results) {
        checks.op(r.is_ok(), || format!("scenario {} failed", spec.name));
        if let Ok(r) = r {
            totals.add_report(&r.report);
        }
    }
    (wall, bytes, totals)
}

/// One traced pass: the engine loop replayed under the same outer
/// reservation, with every phase timed from outside. Returns the pass wall,
/// the rows, the phases and the worker count.
fn traced_pass(specs: &[ScenarioSpec], checks: &mut Checks) -> (Duration, Vec<u8>, Phases, usize) {
    let workers = SweepEngine::new(0).effective_threads(specs.len());
    let t = Instant::now();
    let outcomes = fan_out(specs, |index, spec| {
        let mut ph = Phases::default();
        sample_inner_share(4, &mut ph.inner_share_us);
        (traced_scenario(spec, index, &mut ph), ph)
    });
    let wall = t.elapsed();

    let mut bytes = Vec::new();
    let mut phases = Phases::default();
    for (spec, (rows, ph)) in specs.iter().zip(outcomes) {
        match rows {
            Ok(rows) => bytes.extend_from_slice(rows.as_bytes()),
            Err(e) => checks.op(false, || {
                format!("traced scenario {} failed: {e}", spec.name)
            }),
        }
        phases.merge(ph);
    }
    (wall, bytes, phases, workers)
}

/// `run_scenario`'s call sequence with each call timed; returns the
/// scenario's JSONL rows.
pub fn traced_scenario(
    spec: &ScenarioSpec,
    index: usize,
    ph: &mut Phases,
) -> Result<String, String> {
    let unit = Instant::now();
    let t = Instant::now();
    let task = spec.build_task().map_err(|e| e.to_string())?;
    ph.build_task += t.elapsed();

    let t = Instant::now();
    let mut policy = spec.build_policy(&task).map_err(|e| e.to_string())?;
    ph.build_policy += t.elapsed();

    let t = Instant::now();
    let config = spec.runner.config();
    let runner = SparseMcsRunner::new(&task, config.clone()).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(stream_seed(spec.seed, streams::EVAL));
    let mut timed = Timed::new(policy.as_mut());
    let report = runner
        .run_with_control(&mut timed, &mut rng, &mut |_| ControlFlow::Continue(()))
        .map_err(|e| e.to_string())?;
    ph.run += t.elapsed();
    ph.add_timed(Family::of_label(&spec.policy.label()), &timed);
    ph.assessments += report
        .cycles
        .iter()
        .map(|c| assessments_in_cycle(c.selected.len(), &config))
        .sum::<u64>();

    let t = Instant::now();
    let label = spec.policy.label();
    let ctx = RowContext {
        scenario: &spec.name,
        index,
        policy: &label,
        task: &report.task,
    };
    let mut rows = String::new();
    for c in &report.cycles {
        rows.push_str(&row_json(ctx, c));
        rows.push('\n');
    }
    ph.row_json += t.elapsed();
    ph.rows += report.cycles.len() as u64;
    ph.unit_wall += unit.elapsed();
    Ok(rows)
}

/// Set-up: expand the first grid and run it once as the warm-up; its rows
/// are what every set-up must reproduce byte for byte.
fn setup(args: &Args, checks: &mut Checks) -> (Vec<u8>, Duration) {
    let t = Instant::now();
    let (_, bytes, _) = pass(&grid(args.seed, 0), checks);
    (bytes, t.elapsed())
}

pub fn run(args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let mut setups = Vec::new();
    let mut first: Option<Vec<u8>> = None;
    for _ in 0..crate::SETUPS {
        let (bytes, took) = setup(args, &mut checks);
        setups.push(took.as_secs_f64());
        match &first {
            Some(f) => checks.op(*f == bytes, || "set-up passes differ".to_owned()),
            None => first = Some(bytes),
        }
    }
    let setup_s = median(&setups);
    let budget = Duration::from_secs(args.seconds);

    if !args.trace {
        let mut op_ms = Vec::new();
        let mut rates = Vec::new();
        let mut totals = PassTotals::default();
        let started = Instant::now();
        while op_ms.is_empty() || started.elapsed() < budget {
            let specs = grid(args.seed, op_ms.len() + 1);
            let (wall, _, t) = pass(&specs, &mut checks);
            op_ms.push(wall.as_secs_f64() * 1e3);
            rates.push(t.cycles as f64 / wall.as_secs_f64());
            totals.merge(&t);
        }
        return Outcome::e2e(checks, setup_s, &op_ms, &rates, &totals);
    }

    // Traced run: an untraced and a traced pass over each grid.
    let mut overhead = Vec::new();
    let mut sys = Vec::new();
    let mut all = Phases::default();
    let mut idle = Vec::new();
    let started = Instant::now();
    while overhead.is_empty() || started.elapsed() < budget {
        let g = overhead.len() + 1;
        let specs = grid(args.seed, g);
        let before = crate::sys::usage();
        let (plain, bytes, _) = pass(&specs, &mut checks);
        sys.push(crate::sys::sys_frac(&before, &crate::sys::usage()));
        let (wall, traced, phases, workers) = traced_pass(&specs, &mut checks);
        checks.op(traced == bytes, || {
            format!("grid {g}: traced rows differ from the untraced rows")
        });
        overhead.push(wall.as_secs_f64() / plain.as_secs_f64() - 1.0);
        idle.push(1.0 - phases.unit_wall.as_secs_f64() / (workers as f64 * wall.as_secs_f64()));
        crate::check_phase_sum(&mut checks, "sweep-default", &phases);
        all.merge(phases);
    }
    let passes = overhead.len() as f64;
    let mut layers = LayerValues::from_phases(&all, passes);
    layers.sys_cpu_frac = median(&sys);
    layers.engine_idle_frac = median(&idle);
    layers.overhead_frac = median(&overhead);
    Outcome::traced(checks, layers)
}
