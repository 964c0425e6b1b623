//! `serve-mix`: one in-process daemon with `ServeConfig::default()` and two
//! closed-loop clients. The job list mixes, in every block of ten, two
//! **cold** jobs (a fresh-seed RANDOM `synthetic-smooth` scenario: compute
//! plus a cache write) and eight **warm** replays of specs primed during
//! set-up (store lookup, replay and wire only).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use drcell_scenario::sink::{row_json, RowContext};
use drcell_scenario::{
    registry, run_scenario, stream_seed, PolicySpec, ScenarioResult, ScenarioSpec,
};
use drcell_serve::{Client, Frame, ServeConfig, ServeError, Server, ServerStats};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::probe::{fan_out, sample_inner_share, Phases};
use crate::report::Checks;
use crate::stats::{median, summarize};
use crate::{Args, LayerValues, Outcome, PassTotals};

/// Specs in the warm set.
const WARM_SPECS: usize = 4;
/// Jobs per shuffled block, and the cold jobs among them.
const BLOCK: usize = 10;
const COLD_PER_BLOCK: usize = 2;
/// Concurrent closed-loop client connections.
const CLIENTS: usize = 2;

fn random_spec(name: String, seed: u64) -> ScenarioSpec {
    let mut spec = registry::find("synthetic-smooth").expect("built-in scenario");
    spec.policy = PolicySpec::Random;
    spec.name = name;
    spec.seed = seed;
    spec
}

fn warm_spec(seed: u64, j: usize) -> ScenarioSpec {
    random_spec(
        format!("serve-mix/warm{j}"),
        stream_seed(seed, 0x3a00 + j as u64) % 1_000_000_000,
    )
}

fn cold_spec(seed: u64, tag: u64) -> ScenarioSpec {
    random_spec(
        format!("serve-mix/cold{tag}"),
        stream_seed(seed, 0xc01d_0000 + tag) % 1_000_000_000,
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Cold(usize),
    Warm(usize),
}

/// Job `i` of the seeded list: its block's shuffle decides whether it is
/// cold; warm jobs cycle through the warm set.
fn job(seed: u64, i: usize) -> Kind {
    let block = i / BLOCK;
    let mut slots: Vec<usize> = (0..BLOCK).collect();
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, 0xb10c_0000 + block as u64));
    slots.shuffle(&mut rng);
    let cold = &mut slots[..COLD_PER_BLOCK];
    cold.sort_unstable();
    match cold.iter().position(|&s| s == i % BLOCK) {
        Some(rank) => Kind::Cold(block * COLD_PER_BLOCK + rank),
        None => Kind::Warm(i % WARM_SPECS),
    }
}

/// A daemon on an ephemeral port, served from its own thread.
struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start() -> Daemon {
        let server =
            Server::bind_with("127.0.0.1:0", ServeConfig::default()).expect("bind a local port");
        let addr = server.local_addr().expect("bound address");
        let thread = std::thread::spawn(move || server.run());
        Daemon { addr, thread }
    }

    fn client(&self) -> Client {
        Client::connect(self.addr).expect("connect to the in-process daemon")
    }

    fn stop(self) {
        self.client().shutdown().expect("shutdown");
        self.thread
            .join()
            .expect("daemon thread")
            .expect("daemon exit");
    }
}

/// One finished job as the client saw it.
#[derive(Debug)]
struct JobRec {
    kind: Kind,
    id: u64,
    latency: Duration,
    first_row: Option<Duration>,
    rows: Vec<String>,
    key_us: Option<f64>,
}

/// Submits one spec and drains its stream.
fn submit(
    client: &mut Client,
    spec: &ScenarioSpec,
) -> Result<(u64, Duration, Option<Duration>, Vec<String>), ServeError> {
    let t = Instant::now();
    let mut stream = client.run_spec(spec)?;
    let id = stream.job;
    let mut rows = Vec::new();
    let mut first_row = None;
    let mut ok = false;
    while let Some(frame) = stream.next_frame()? {
        match frame {
            Frame::Row(row) => {
                first_row.get_or_insert_with(|| t.elapsed());
                rows.push(row);
            }
            Frame::Done {
                ok: 1, failed: 0, ..
            } => ok = true,
            Frame::Scenario { error: None, .. } => {}
            other => {
                return Err(ServeError::Protocol(format!(
                    "job {id} ended with {other:?}"
                )))
            }
        }
    }
    if !ok {
        return Err(ServeError::Protocol(format!("job {id} did not complete")));
    }
    Ok((id, t.elapsed(), first_row, rows))
}

/// Set-up: start the daemon, prime the warm set (one cold run per warm
/// spec) and warm up with one cold job per client.
fn setup(seed: u64, checks: &mut Checks) -> (Daemon, Vec<Vec<String>>, Duration) {
    let t = Instant::now();
    let daemon = Daemon::start();
    let warm: Mutex<Vec<Vec<String>>> = Mutex::new(vec![Vec::new(); WARM_SPECS]);
    let failures = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (daemon, warm, failures) = (&daemon, &warm, &failures);
            scope.spawn(move || {
                let mut client = daemon.client();
                for j in (c..WARM_SPECS).step_by(CLIENTS) {
                    match submit(&mut client, &warm_spec(seed, j)) {
                        Ok((_, _, _, rows)) => warm.lock().expect("warm lock")[j] = rows,
                        Err(e) => failures
                            .lock()
                            .expect("lock")
                            .push(format!("priming warm{j}: {e}")),
                    }
                }
                let warmup = cold_spec(seed, u64::MAX - c as u64);
                if let Err(e) = submit(&mut client, &warmup) {
                    failures
                        .lock()
                        .expect("lock")
                        .push(format!("warm-up job: {e}"));
                }
            });
        }
    });
    for f in failures.into_inner().expect("lock") {
        checks.op(false, || f);
    }
    (daemon, warm.into_inner().expect("warm lock"), t.elapsed())
}

/// A measured pass over the job list: until `budget` runs out, or exactly
/// `limit` jobs.
struct Pass {
    jobs: Vec<JobRec>,
    wall: Duration,
    busy: u64,
    before: ServerStats,
    after: ServerStats,
    /// `(job id, started - queued, finished - started)`, the last two in
    /// server milliseconds.
    stamps: Vec<(u64, u64, u64)>,
    inner_share_us: Vec<f64>,
    sys_cpu_frac: f64,
}

fn pass(
    daemon: &Daemon,
    seed: u64,
    budget: Duration,
    limit: Option<usize>,
    traced: bool,
    checks: &mut Checks,
) -> Pass {
    let mut control = daemon.client();
    let before = control.stats().expect("stats");
    let next = AtomicUsize::new(0);
    let jobs = Mutex::new(Vec::new());
    let failures = Mutex::new(Vec::new());
    let samples = Mutex::new(Vec::new());
    let busy = AtomicUsize::new(0);
    let usage = crate::sys::usage();
    let t = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut client = daemon.client();
                let mut local = Vec::new();
                loop {
                    if limit.is_none() && t.elapsed() >= budget {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if limit.is_some_and(|n| i >= n) {
                        break;
                    }
                    let kind = job(seed, i);
                    let spec = match kind {
                        Kind::Cold(c) => cold_spec(seed, c as u64),
                        Kind::Warm(w) => warm_spec(seed, w),
                    };
                    let key_us = traced.then(|| {
                        sample_inner_share(4, &mut local);
                        let k = Instant::now();
                        std::hint::black_box(drcell_store::scenario_key(&spec, 0));
                        k.elapsed().as_secs_f64() * 1e6
                    });
                    match submit(&mut client, &spec) {
                        Ok((id, latency, first_row, rows)) => {
                            jobs.lock().expect("jobs").push(JobRec {
                                kind,
                                id,
                                latency,
                                first_row,
                                rows,
                                key_us,
                            })
                        }
                        Err(ServeError::Busy { .. }) => {
                            busy.fetch_add(1, Ordering::Relaxed);
                            failures
                                .lock()
                                .expect("lock")
                                .push(format!("job {i} refused busy"));
                        }
                        Err(e) => {
                            failures
                                .lock()
                                .expect("lock")
                                .push(format!("job {i} ({}): {e}", spec.name));
                            // The connection may be poisoned; open a new one.
                            client = daemon.client();
                        }
                    }
                }
                samples.lock().expect("samples").extend(local);
            });
        }
    });
    let wall = t.elapsed();
    let sys_cpu_frac = crate::sys::sys_frac(&usage, &crate::sys::usage());
    for f in failures.into_inner().expect("lock") {
        checks.op(false, || f);
    }
    let mut jobs = jobs.into_inner().expect("jobs");
    jobs.sort_by_key(|j| j.id);
    let ours = |id: u64| jobs.binary_search_by_key(&id, |j| j.id).is_ok();
    // The daemon stamps a job finished and releases its admission slot just
    // after the final frame leaves for the client, so poll for the drain.
    let drain_by = Instant::now() + Duration::from_secs(5);
    let (after, snapshot, finished) = loop {
        let after = control.stats().expect("stats");
        let snapshot = control.jobs().expect("jobs");
        let finished = snapshot
            .jobs
            .iter()
            .filter(|info| ours(info.job))
            .all(|info| info.finished_ms.is_some());
        let drained = finished && after.inflight_slots == 0 && after.queue_depth == 0;
        if drained || Instant::now() >= drain_by {
            break (after, snapshot, finished);
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    checks.op(finished, || {
        "a job of the pass never got a finish stamp".to_owned()
    });
    let stamps = snapshot
        .jobs
        .iter()
        .filter(|info| ours(info.job))
        .map(|info| {
            let started = info.started_ms.unwrap_or(info.queued_ms);
            let finished = info.finished_ms.unwrap_or(started);
            (info.job, started - info.queued_ms, finished - started)
        })
        .collect();
    Pass {
        jobs,
        wall,
        busy: busy.into_inner() as u64,
        before,
        after,
        stamps,
        inner_share_us: samples.into_inner().expect("samples"),
        sys_cpu_frac,
    }
}

/// Output checks every pass must pass: warm replays equal their primed
/// rows, the cache saw exactly the mix's hits and misses, and the daemon
/// drained.
fn check_pass(p: &Pass, warm_rows: &[Vec<String>], checks: &mut Checks) {
    let (mut warm, mut cold) = (0u64, 0u64);
    for j in &p.jobs {
        match j.kind {
            Kind::Warm(w) => {
                warm += 1;
                checks.op(j.rows == warm_rows[w], || {
                    format!("warm job {} replayed rows differ from its cold run", j.id)
                });
            }
            Kind::Cold(_) => cold += 1,
        }
    }
    let hits = (p.after.mem_hits + p.after.disk_hits) - (p.before.mem_hits + p.before.disk_hits);
    let misses = p.after.misses - p.before.misses;
    checks.op(hits == warm && misses == cold, || {
        format!("cache saw {hits} hits / {misses} misses for {warm} warm / {cold} cold jobs")
    });
    checks.op(
        p.after.inflight_slots == 0 && p.after.queue_depth == 0,
        || {
            format!(
                "daemon not drained: {} in-flight slots, queue depth {}",
                p.after.inflight_slots, p.after.queue_depth
            )
        },
    );
}

/// The specs of the cold jobs a pass ran, in job order.
fn cold_specs(seed: u64, p: &Pass) -> Vec<(usize, ScenarioSpec)> {
    let mut cold: Vec<usize> = p
        .jobs
        .iter()
        .filter_map(|j| match j.kind {
            Kind::Cold(c) => Some(c),
            Kind::Warm(_) => None,
        })
        .collect();
    cold.sort_unstable();
    cold.into_iter()
        .map(|c| (c, cold_spec(seed, c as u64)))
        .collect()
}

/// The JSONL rows of an executed scenario, as the daemon streams them.
fn rows_of(r: &ScenarioResult) -> Vec<String> {
    r.report
        .cycles
        .iter()
        .map(|c| row_json(RowContext::of(r), c))
        .collect()
}

fn served_rows(p: &Pass, c: usize) -> Option<&Vec<String>> {
    p.jobs
        .iter()
        .find(|j| j.kind == Kind::Cold(c))
        .map(|j| &j.rows)
}

pub fn run(args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let mut setups = Vec::new();
    let mut kept: Option<(Daemon, Vec<Vec<String>>)> = None;
    for _ in 0..crate::SETUPS {
        let (daemon, warm_rows, took) = setup(args.seed, &mut checks);
        setups.push(took.as_secs_f64());
        if let Some((old, first)) = kept.take() {
            old.stop();
            checks.op(warm_rows == first, || {
                "primed warm rows differ between set-ups".to_owned()
            });
        }
        kept = Some((daemon, warm_rows));
    }
    let (daemon, warm_rows) = kept.expect("set up at least once");
    let setup_s = median(&setups);
    let budget = Duration::from_secs(args.seconds);

    let plain = pass(&daemon, args.seed, budget, None, false, &mut checks);
    check_pass(&plain, &warm_rows, &mut checks);
    daemon.stop();

    // Every warm spec must replay what `run_scenario` computes.
    let warm_specs: Vec<ScenarioSpec> = (0..WARM_SPECS).map(|j| warm_spec(args.seed, j)).collect();
    let warm_ref = fan_out(&warm_specs, |_, s| {
        run_scenario(s, 0).map_err(|e| e.to_string())
    });
    let mut warm_cycles = [0; WARM_SPECS];
    for (j, r) in warm_ref.iter().enumerate() {
        match r {
            Ok(r) => {
                checks.op(rows_of(r) == warm_rows[j], || {
                    format!("warm{j} rows differ from run_scenario")
                });
                warm_cycles[j] = r.report.cycles.len() as u64;
            }
            Err(e) => checks.op(false, || format!("run_scenario warm{j}: {e}")),
        }
    }
    let cold = cold_specs(args.seed, &plain);
    let specs: Vec<ScenarioSpec> = cold.iter().map(|(_, s)| s.clone()).collect();

    if !args.trace {
        // Every cold job's rows must equal `run_scenario` on its spec.
        let refs = fan_out(&specs, |_, s| run_scenario(s, 0).map_err(|e| e.to_string()));
        // The data-collection figures cover the cycles this pass computed
        // (the cold jobs); warm jobs replay cycles computed in set-up.
        let mut computed = PassTotals::default();
        for ((c, spec), r) in cold.iter().zip(&refs) {
            match r {
                Ok(r) => {
                    checks.op(served_rows(&plain, *c) == Some(&rows_of(r)), || {
                        format!("served rows of {} differ from run_scenario", spec.name)
                    });
                    computed.add_report(&r.report);
                }
                Err(e) => checks.op(false, || format!("run_scenario {}: {e}", spec.name)),
            }
        }
        let mut expected = computed.cycles;
        for j in &plain.jobs {
            if let Kind::Warm(w) = j.kind {
                expected += warm_cycles[w];
            }
        }
        let delivered = plain.jobs.iter().map(|j| j.rows.len() as u64).sum::<u64>();
        checks.op(delivered == expected, || {
            format!("{delivered} rows delivered for {expected} testing cycles")
        });
        // The two job kinds are the two operations: a warm job is the
        // replay whose latency users wait on, and a cold job streams its
        // testing cycles at the rate the daemon computes them.
        let op_ms: Vec<f64> = plain
            .jobs
            .iter()
            .filter(|j| matches!(j.kind, Kind::Warm(_)))
            .map(|j| j.latency.as_secs_f64() * 1e3)
            .collect();
        let rates: Vec<f64> = plain
            .jobs
            .iter()
            .filter(|j| matches!(j.kind, Kind::Cold(_)))
            .map(|j| j.rows.len() as f64 / j.latency.as_secs_f64())
            .collect();
        return Outcome::e2e(checks, setup_s, &op_ms, &rates, &computed);
    }

    // Traced run: the same jobs on a fresh daemon, with layer probes on,
    // then the cold specs replayed through the engine's call sequence.
    let (daemon, traced_warm, _) = setup(args.seed, &mut checks);
    checks.op(traced_warm == warm_rows, || {
        "primed warm rows differ between daemons".to_owned()
    });
    let traced = pass(
        &daemon,
        args.seed,
        budget,
        Some(plain.jobs.len()),
        true,
        &mut checks,
    );
    check_pass(&traced, &warm_rows, &mut checks);
    daemon.stop();

    let replay = fan_out(&specs, |_, s| {
        let mut ph = Phases::default();
        let rows = crate::sweep::traced_scenario(s, 0, &mut ph);
        (rows, ph)
    });
    let mut ph = Phases::default();
    for ((c, spec), (rows, phases)) in cold.iter().zip(replay) {
        match rows {
            Ok(rows) => {
                let rows: Vec<String> = rows.lines().map(str::to_owned).collect();
                for p in [&plain, &traced] {
                    checks.op(served_rows(p, *c) == Some(&rows), || {
                        format!("served rows of {} differ from the engine replay", spec.name)
                    });
                }
            }
            Err(e) => checks.op(false, || format!("replay {}: {e}", spec.name)),
        }
        ph.merge(phases);
    }
    crate::check_phase_sum(&mut checks, "serve-mix replay", &ph);

    let is_cold = |id: u64| {
        traced
            .jobs
            .iter()
            .any(|j| j.id == id && matches!(j.kind, Kind::Cold(_)))
    };
    let cold_client_ms: f64 = traced
        .jobs
        .iter()
        .filter(|j| matches!(j.kind, Kind::Cold(_)))
        .map(|j| j.latency.as_secs_f64() * 1e3)
        .sum();
    let cold_server_ms: u64 = traced
        .stamps
        .iter()
        .filter(|(id, _, _)| is_cold(*id))
        .map(|(_, wait, run)| wait + run)
        .sum();
    checks.op(
        cold_client_ms > 0.0 && (cold_server_ms as f64 / cold_client_ms - 1.0).abs() <= 0.05,
        || format!("cold jobs: server queue+run {cold_server_ms} ms vs client wall {cold_client_ms:.1} ms (bound 5%)"),
    );

    let latencies = |cold: bool| -> Vec<f64> {
        traced
            .jobs
            .iter()
            .filter(|j| matches!(j.kind, Kind::Cold(_)) == cold)
            .map(|j| j.latency.as_secs_f64() * 1e3)
            .collect()
    };
    let waits: Vec<f64> = traced.stamps.iter().map(|s| s.1 as f64).collect();
    let cold_runs: Vec<f64> = traced
        .stamps
        .iter()
        .filter(|s| is_cold(s.0))
        .map(|s| s.2 as f64)
        .collect();
    let busy_ms: u64 = traced.stamps.iter().map(|s| s.2).sum();
    let workers = drcell_pool::budget::total_budget() as f64;
    let hits = (traced.after.mem_hits + traced.after.disk_hits)
        - (traced.before.mem_hits + traced.before.disk_hits);
    let lookups = hits + traced.after.misses - traced.before.misses;

    let mut layers = LayerValues::from_phases(&ph, 1.0);
    layers.inner_share_us = median(&traced.inner_share_us);
    layers.sys_cpu_frac = plain.sys_cpu_frac;
    layers.engine_idle_frac = 1.0 - busy_ms as f64 / (workers * traced.wall.as_secs_f64() * 1e3);
    let keys: Vec<f64> = traced.jobs.iter().filter_map(|j| j.key_us).collect();
    layers.key_us = median(&keys);
    layers.hit_ratio = hits as f64 / lookups.max(1) as f64;
    layers.store_bytes = traced.after.bytes as f64;
    layers.store_entries = traced.after.entries as f64;
    layers.queue_wait_p50_ms = median(&waits);
    layers.queue_wait_max_ms = waits.iter().copied().fold(0.0, f64::max);
    layers.run_ms_cold = median(&cold_runs);
    layers.cold_job_p50_ms = median(&latencies(true));
    let warm = summarize(&latencies(false));
    layers.warm_job_p50_ms = warm.p50;
    layers.warm_job_tail = Some(warm);
    let first_rows: Vec<f64> = traced
        .jobs
        .iter()
        .filter(|j| matches!(j.kind, Kind::Cold(_)))
        .filter_map(|j| j.first_row.map(|d| d.as_secs_f64() * 1e3))
        .collect();
    layers.first_row_p50_ms = median(&first_rows);
    layers.jobs_per_s = traced.jobs.len() as f64 / traced.wall.as_secs_f64();
    layers.busy_refusals = (plain.busy + traced.busy) as f64;
    layers.inflight_after_drain = traced.after.inflight_slots as f64;
    layers.overhead_frac = traced.wall.as_secs_f64() / plain.wall.as_secs_f64() - 1.0;
    Outcome::traced(checks, layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_has_exactly_two_cold_jobs() {
        for seed in [1, 2, 20180507] {
            let kinds: Vec<Kind> = (0..100).map(|i| job(seed, i)).collect();
            for block in kinds.chunks(BLOCK) {
                let cold = block.iter().filter(|k| matches!(k, Kind::Cold(_))).count();
                assert_eq!(cold, COLD_PER_BLOCK);
            }
            // Cold ids are 0, 1, 2, ... in job order.
            let ids: Vec<usize> = kinds
                .iter()
                .filter_map(|k| match k {
                    Kind::Cold(c) => Some(*c),
                    Kind::Warm(_) => None,
                })
                .collect();
            assert_eq!(ids, (0..20).collect::<Vec<_>>());
        }
    }

    #[test]
    fn the_list_depends_on_the_seed() {
        let a: Vec<Kind> = (0..50).map(|i| job(1, i)).collect();
        let b: Vec<Kind> = (0..50).map(|i| job(2, i)).collect();
        assert_ne!(a, b);
    }
}
