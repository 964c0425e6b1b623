//! End-to-end benchmark of the DR-Cell paths users run, with per-layer
//! phase times from a separate traced run. See `perfbench/README.md`.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-default --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of stdout is the result object
//! (`{"correct", "attempted", "failed", "metrics"}`); the line before it is
//! the full record with the host fingerprint, every metric's unit and
//! better-direction, and any failed output check. The exit code is 1 when
//! an output check failed and 2 on a usage error.

mod fig6;
mod probe;
mod report;
mod serve;
mod stats;
mod sweep;
mod sys;

use std::time::Duration;

use drcell_core::RunReport;

use probe::{Family, Phases};
use report::Checks;
use stats::{median, Better, Metrics};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["sweep-default", "fig6-quick", "serve-mix"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The default seed: the paper's arXiv v2 date, which is also the seed the
/// Figure-6 binary uses, so `fig6-quick` at this seed reruns `fig6 --quick`.
pub const DEFAULT_SEED: u64 = 20180507;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10,
            trace: false,
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(bad)?,
                "--seconds" => args.seconds = value.parse().map_err(bad)?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        if args.seconds == 0 {
            return Err("--seconds must be at least 1".to_owned());
        }
        Ok(args)
    }
}

/// Testing-cycle totals of the reports a pass produced.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PassTotals {
    pub cycles: u64,
    pub selections: u64,
    pub within: u64,
}

impl PassTotals {
    pub fn add_report(&mut self, report: &RunReport) {
        self.cycles += report.cycles.len() as u64;
        self.selections += report.total_selections() as u64;
        self.within += report.cycles.iter().filter(|c| c.within_epsilon).count() as u64;
    }

    pub fn merge(&mut self, other: &PassTotals) {
        self.cycles += other.cycles;
        self.selections += other.selections;
        self.within += other.within;
    }
}

/// Per-layer values of a traced run; layers a workload does not reach
/// stay 0.
#[derive(Debug, Default, Clone)]
pub struct LayerValues {
    pub inner_share_us: f64,
    pub sys_cpu_frac: f64,
    pub train_ms: f64,
    pub select_ms: [f64; 3],
    pub select_calls: [f64; 3],
    pub runner_self_ms: f64,
    pub assessments: f64,
    pub ms_per_assessment: f64,
    pub build_task_ms: f64,
    pub row_json_us: f64,
    pub engine_idle_frac: f64,
    pub key_us: f64,
    pub hit_ratio: f64,
    pub store_bytes: f64,
    pub store_entries: f64,
    pub queue_wait_p50_ms: f64,
    pub queue_wait_max_ms: f64,
    pub run_ms_cold: f64,
    pub cold_job_p50_ms: f64,
    pub warm_job_p50_ms: f64,
    pub warm_job_tail: Option<stats::Summary>,
    pub first_row_p50_ms: f64,
    pub jobs_per_s: f64,
    pub busy_refusals: f64,
    pub inflight_after_drain: f64,
    pub drcell_saving_pct: f64,
    pub overhead_frac: f64,
    pub phase_coverage: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl LayerValues {
    /// The compute-layer values of `passes` identical traced passes, as
    /// per-pass figures.
    pub fn from_phases(ph: &Phases, passes: f64) -> LayerValues {
        let mut v = LayerValues {
            inner_share_us: median(&ph.inner_share_us),
            train_ms: ms(ph.build_policy) / passes,
            runner_self_ms: ms(ph.runner_self()) / passes,
            assessments: ph.assessments as f64 / passes,
            ms_per_assessment: ms(ph.runner_self()) / ph.assessments.max(1) as f64,
            build_task_ms: ms(ph.build_task) / passes,
            phase_coverage: ph.phase_sum().as_secs_f64() / ph.unit_wall.as_secs_f64(),
            ..LayerValues::default()
        };
        if ph.rows > 0 {
            v.row_json_us = ph.row_json.as_secs_f64() * 1e6 / ph.rows as f64;
        }
        for i in 0..3 {
            v.select_ms[i] = ms(ph.select[i]) / passes;
            v.select_calls[i] = ph.select_calls[i] as f64 / passes;
        }
        v
    }

    fn metrics(&self) -> Metrics {
        use Better::{Higher, Lower};
        let mut m = Metrics::default();
        m.push("pool.inner_share_us", self.inner_share_us, "us", Lower);
        m.push("os.sys_cpu_frac", self.sys_cpu_frac, "fraction", Lower);
        m.push("rl.train_ms", self.train_ms, "ms", Lower);
        for (i, f) in Family::ALL.iter().enumerate() {
            m.push(
                &format!("core.select_ms.{}", f.key()),
                self.select_ms[i],
                "ms",
                Lower,
            );
        }
        for (i, f) in Family::ALL.iter().enumerate() {
            let name = format!("core.select_calls.{}", f.key());
            m.push(&name, self.select_calls[i], "count", Lower);
        }
        m.push("core.runner_self_ms", self.runner_self_ms, "ms", Lower);
        m.push("inference.assessments", self.assessments, "count", Lower);
        m.push(
            "inference.ms_per_assessment",
            self.ms_per_assessment,
            "ms",
            Lower,
        );
        m.push("datasets.build_task_ms", self.build_task_ms, "ms", Lower);
        m.push("scenario.row_json_us", self.row_json_us, "us", Lower);
        m.push(
            "scenario.engine_idle_frac",
            self.engine_idle_frac,
            "fraction",
            Lower,
        );
        m.push("store.key_us", self.key_us, "us", Lower);
        m.push("store.hit_ratio", self.hit_ratio, "fraction", Higher);
        m.push("store.bytes", self.store_bytes, "bytes", Lower);
        m.push("store.entries", self.store_entries, "count", Lower);
        m.push(
            "serve.queue_wait_ms.p50",
            self.queue_wait_p50_ms,
            "ms",
            Lower,
        );
        m.push(
            "serve.queue_wait_ms.max",
            self.queue_wait_max_ms,
            "ms",
            Lower,
        );
        m.push("serve.run_ms.cold", self.run_ms_cold, "ms", Lower);
        m.push("serve.cold_job_p50_ms", self.cold_job_p50_ms, "ms", Lower);
        m.push("serve.warm_job_p50_ms", self.warm_job_p50_ms, "ms", Lower);
        match &self.warm_job_tail {
            Some(s) => m.push_tail("serve.warm_job_tail_ms", s, "ms"),
            None => m.push("serve.warm_job_tail_ms", 0.0, "ms", Lower),
        }
        m.push("serve.first_row_p50_ms", self.first_row_p50_ms, "ms", Lower);
        m.push("serve.jobs_per_s", self.jobs_per_s, "1/s", Higher);
        m.push("serve.busy_refusals", self.busy_refusals, "count", Lower);
        m.push(
            "serve.inflight_slots_after_drain",
            self.inflight_after_drain,
            "count",
            Lower,
        );
        m.push(
            "quality.drcell_saving_pct",
            self.drcell_saving_pct,
            "%",
            Higher,
        );
        m.push("trace.overhead_frac", self.overhead_frac, "fraction", Lower);
        m.push(
            "trace.phase_coverage",
            self.phase_coverage,
            "fraction",
            Higher,
        );
        m
    }
}

/// Fails the run loudly unless the traced phases sum to the wall time of
/// the units they were measured in, within 5%.
pub fn check_phase_sum(checks: &mut Checks, workload: &str, ph: &Phases) {
    let wall = ph.unit_wall.as_secs_f64();
    let sum = ph.phase_sum().as_secs_f64();
    let off = (sum / wall - 1.0).abs();
    checks.op(wall > 0.0 && off <= 0.05, || {
        format!(
            "{workload}: traced phases sum to {:.1} ms but the measured wall is {:.1} ms ({:.1}% off, bound 5%)",
            sum * 1e3,
            wall * 1e3,
            off * 100.0
        )
    });
}

/// What a run produced: its checks and metrics.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Metrics,
}

impl Outcome {
    /// End-to-end metrics: set-up time, the median rate at which the
    /// run's compute units got through testing cycles, the median operation
    /// latency, the paper's cost and quality figures over the cycles the
    /// run computed, and the process's peak resident set.
    pub fn e2e(
        checks: Checks,
        setup_s: f64,
        op_ms: &[f64],
        cycle_rates: &[f64],
        t: &PassTotals,
    ) -> Outcome {
        use Better::{Higher, Lower};
        let mut m = Metrics::default();
        m.push("setup_s", setup_s, "s", Lower);
        m.push("cycles_per_s", median(cycle_rates), "1/s", Higher);
        m.push("op_p50_ms", median(op_ms), "ms", Lower);
        let cycles = t.cycles.max(1) as f64;
        m.push(
            "cells_per_cycle",
            t.selections as f64 / cycles,
            "cells",
            Lower,
        );
        m.push(
            "within_eps_frac",
            t.within as f64 / cycles,
            "fraction",
            Higher,
        );
        let rss = sys::peak_rss_kib() as f64 / 1024.0;
        m.push("peak_rss_mb", rss, "MiB", Lower);
        Outcome { checks, metrics: m }
    }

    pub fn traced(checks: Checks, layers: LayerValues) -> Outcome {
        Outcome {
            checks,
            metrics: layers.metrics(),
        }
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let outcome = match args.workload.as_str() {
        "sweep-default" => sweep::run(&args),
        "fig6-quick" => fig6::run(&args),
        _ => serve::run(&args),
    };
    let fingerprint = sys::fingerprint();
    for m in &outcome.metrics.0 {
        let note = m
            .note
            .as_deref()
            .map(|n| format!(" ({n})"))
            .unwrap_or_default();
        eprintln!("  {:<34} {:>14.6} {}{note}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        report::record_line(
            &args.workload,
            args.seed,
            args.trace,
            &fingerprint,
            &outcome.checks,
            &outcome.metrics
        )
    );
    println!("{}", report::result_line(&outcome.checks, &outcome.metrics));
    if !outcome.checks.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_run_flags() {
        let a = parse("--workload serve-mix --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-mix", 7, 3, true)
        );
        let d = parse("--workload fig6-quick").unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (DEFAULT_SEED, 10, false));
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload serve-mix --trace 2").is_err());
        assert!(parse("--workload serve-mix --seconds 0").is_err());
        assert!(parse("--workload serve-mix --seed").is_err());
        assert!(parse("--workload serve-mix --bogus 1").is_err());
    }

    /// `(name, unit, better)` of every entry in a `BENCHMARK.json` list.
    fn declared(list: &str) -> Vec<(String, String, String)> {
        use serde::Value;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let root = drcell_scenario::json::parse_json(&text).expect("valid JSON");
        let field = |v: &Value, key: &str| -> Value {
            match v {
                Value::Map(entries) => entries
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.clone())
                    .unwrap_or(Value::Null),
                _ => Value::Null,
            }
        };
        let text = |v: Value| match v {
            Value::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        };
        match field(&root, list) {
            Value::Seq(items) => items
                .iter()
                .map(|m| {
                    (
                        text(field(m, "name")),
                        text(field(m, "unit")),
                        text(field(m, "better")),
                    )
                })
                .collect(),
            other => panic!("{list} is not a list: {other:?}"),
        }
    }

    fn reported(m: &Metrics) -> Vec<(String, String, String)> {
        m.0.iter()
            .map(|m| {
                (
                    m.name.clone(),
                    m.unit.to_owned(),
                    m.better.name().to_owned(),
                )
            })
            .collect()
    }

    #[test]
    fn every_run_reports_exactly_the_declared_metrics() {
        let e2e = Outcome::e2e(
            Checks::default(),
            1.0,
            &[1.0],
            &[1.0],
            &PassTotals::default(),
        );
        assert_eq!(reported(&e2e.metrics), declared("end_to_end"));
        let layers = LayerValues::default().metrics();
        assert_eq!(reported(&layers), declared("per_layer"));
    }
}
