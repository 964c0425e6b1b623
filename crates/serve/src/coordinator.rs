//! Federated sweeps: shard one [`SweepSpec`] matrix across a fleet of
//! daemons and merge the row streams back into the canonical single-host
//! order.
//!
//! The coordinator is a pure client — daemons don't know about each other
//! and need no new protocol beyond `ping`. It leans on two existing
//! guarantees:
//!
//! * **Global indices.** A `sweep` request with a `start`/`end` slice
//!   streams every row, `scenario` frame and cache key under its index in
//!   the *full* matrix, so per-shard outputs concatenated in shard order
//!   are byte-identical to one daemon (or `SweepEngine`) running the
//!   whole matrix.
//! * **Deterministic seeding.** Each scenario's stream is seeded from the
//!   spec alone, so it does not matter *which* daemon runs a shard — or
//!   how often a shard is retried after a daemon dies, or whether it was
//!   checkpointed by a previous coordinator and resumed from disk.
//!
//! Scheduling is work stealing over a shared shard queue: one thread per
//! daemon claims shards until none remain. When a daemon fails mid-shard
//! (its hardened [`Client`] poisons itself on any transport fault, so the
//! failure is loud), the whole shard goes back on the queue with a
//! capped, deterministically jittered exponential backoff
//! ([`RetryConfig`]), and the daemon is *retired* — but not forgotten:
//! its worker health-probes the address (reconnect + `ping`) on a
//! doubling cooldown ([`ProbeConfig`]) and re-admits the daemon to the
//! fleet if it comes back. A shard that keeps failing across the whole
//! fleet aborts the sweep after [`RetryConfig::max_attempts`] claims
//! instead of spinning forever.
//!
//! With [`FleetConfig::manifest`] every finished shard is checkpointed
//! durably through a [`SweepManifest`] (rows first, record second, both
//! content-addressed), so a coordinator killed mid-sweep can be restarted
//! with [`FleetConfig::resume`] and re-runs only the unfinished shards —
//! the merged output stays byte-identical either way.
//!
//! ```no_run
//! use drcell_scenario::registry;
//! use drcell_serve::coordinator::fansweep;
//!
//! let sweep = registry::default_sweep();
//! let fleet = ["10.0.0.1:7070", "10.0.0.2:7070"];
//! let output = fansweep(&fleet, &sweep).unwrap();
//! // `output.rows` == the single-host `drcell-scenario sweep --jsonl` file.
//! ```

use std::collections::VecDeque;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use drcell_scenario::{shard_ranges, SweepSpec};

use crate::client::{Client, ClientConfig, JobOutput};
use crate::manifest::SweepManifest;
use crate::ServeError;

/// How often a probing (or backoff-sleeping) worker re-checks whether the
/// sweep ended, so nobody oversleeps a finished or aborted sweep.
const WATCH_SLICE: Duration = Duration::from_millis(25);

/// Shard retry policy: capped exponential backoff with deterministic
/// jitter.
///
/// The first claim of a shard is immediate; claim `n ≥ 2` waits
/// `min(base · 2^(n-2), cap)` scaled by a factor in `[0.5, 1.5)` drawn
/// from a splitmix64 stream seeded by `(jitter_seed, shard, n)` — the
/// same inputs always yield the same delay, so chaos runs reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Backoff before the second claim of a shard. Default 200 ms.
    pub base: Duration,
    /// Upper bound on the un-jittered backoff. Default 5 s.
    pub cap: Duration,
    /// Seed for the jitter stream. Same seed, same delays.
    pub jitter_seed: u64,
    /// Abort the sweep once any shard has been claimed this many times
    /// without finishing. `0` (the default) means `2 · fleet size + 2` —
    /// enough for every daemon to fail a shard once, recover, and fail
    /// again, before the coordinator concludes the shard itself is
    /// cursed.
    pub max_attempts: usize,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            base: Duration::from_millis(200),
            cap: Duration::from_secs(5),
            jitter_seed: 0xD0C5_EED5,
            max_attempts: 0,
        }
    }
}

impl RetryConfig {
    /// Backoff before claim `attempt` of `shard`: zero for the first claim,
    /// then `min(base · 2^(attempt-2), cap)` jittered into `[0.5×, 1.5×)` by
    /// a splitmix64 stream over `(jitter_seed, shard, attempt)`. Pure —
    /// identical inputs give identical delays, which keeps chaos schedules
    /// reproducible end to end.
    pub fn backoff(&self, shard: usize, attempt: usize) -> Duration {
        if attempt <= 1 {
            return Duration::ZERO;
        }
        let exp = (attempt - 2).min(16) as u32;
        let base = self.base.saturating_mul(1u32 << exp).min(self.cap);
        let draw = splitmix(self.jitter_seed ^ ((shard as u64) << 32) ^ attempt as u64);
        let frac = (draw >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        base.mul_f64(0.5 + frac)
    }
}

/// Health-probe policy for retired daemons.
///
/// A worker whose daemon failed does not exit: it waits `cooldown`
/// (doubling on each miss, capped at 8× the initial value), then probes
/// the address — a fresh connect plus a `ping` round trip, certifying
/// the transport end to end — and re-admits the daemon on success.
/// After `max_probes` consecutive misses the daemon is retired for good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeConfig {
    /// Wait before the first probe of a retired daemon. Default 500 ms.
    pub cooldown: Duration,
    /// Consecutive failed probes before permanent retirement. Default 3.
    /// `0` disables re-admission entirely (first failure is final).
    pub max_probes: usize,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            cooldown: Duration::from_millis(500),
            max_probes: 3,
        }
    }
}

/// Tuning for [`fansweep_with`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetConfig {
    /// Shard count; `None` (the default) means one shard per daemon.
    /// More shards than daemons gives finer-grained work stealing (a
    /// fast daemon picks up slack from a slow one) at the cost of more
    /// jobs; the count is capped at the matrix size either way. Ignored
    /// on resume — the manifest's recorded shard plan wins, since the
    /// checkpoints only make sense under their original ranges.
    pub shards: Option<usize>,
    /// Transport deadlines for every daemon connection. Defaults to
    /// [`ClientConfig::default`] — bounded connect and write, unbounded
    /// read. Set [`ClientConfig::read`] to also treat a *silent* (but
    /// connected) daemon as dead after a known upper bound on its
    /// inter-frame gaps.
    pub client: ClientConfig,
    /// Shard retry backoff; see [`RetryConfig`].
    pub retry: RetryConfig,
    /// Retired-daemon health probing; see [`ProbeConfig`].
    pub probe: ProbeConfig,
    /// Per-shard time budget the daemons enforce server-side (`None` =
    /// unbounded). A shard whose deadline expires comes back as the typed
    /// [`ServeError::Deadline`] and is retried through [`RetryConfig`]
    /// exactly like a daemon failure — bounded by the attempt budget,
    /// never silently dropped — so a successful sweep's merged output
    /// stays byte-identical to the single-host run.
    pub shard_deadline: Option<Duration>,
    /// Directory for the durable sweep manifest. `None` (the default)
    /// runs without checkpointing.
    pub manifest: Option<PathBuf>,
    /// Resume from the manifest in [`FleetConfig::manifest`] instead of
    /// starting fresh: completed shards replay from disk, only the rest
    /// run. Requires `manifest`; fails loudly if the manifest is missing
    /// or belongs to a different sweep.
    pub resume: bool,
}

/// How one shard of the matrix was served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// The contiguous matrix slice this shard covered.
    pub range: Range<usize>,
    /// Address of the daemon that *finished* the shard (for a resumed
    /// shard, the daemon recorded by the original run).
    pub daemon: String,
    /// Claims it took (1 = no retries; each retry means a daemon failed
    /// mid-shard and the shard was re-dispatched after backoff).
    pub attempts: usize,
    /// `true` when the shard was replayed from a sweep manifest instead
    /// of being served this run.
    pub resumed: bool,
}

/// The merged result of a federated sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutput {
    /// Result rows in full-matrix order — byte-identical to the
    /// single-host `--jsonl` file for the same spec.
    pub rows: Vec<String>,
    /// `(global matrix index, error)` of every failed scenario.
    pub scenario_errors: Vec<(usize, String)>,
    /// Scenarios that succeeded, fleet-wide.
    pub ok: usize,
    /// Scenarios that failed, fleet-wide.
    pub failed: usize,
    /// Per-shard provenance, in shard (= matrix) order.
    pub shards: Vec<ShardReport>,
    /// `(address, reason)` of every daemon still retired when the sweep
    /// ended. Non-empty `dead` with an `Ok` result means the sweep
    /// survived failures.
    pub dead: Vec<(String, String)>,
    /// `(address, original retirement reason)` of every daemon that was
    /// retired, passed a health probe, and rejoined the fleet.
    pub readmitted: Vec<(String, String)>,
}

/// Book-keeping shared by the per-daemon worker threads. The invariant
/// `queue.len() + running + finished == shard count` holds whenever the
/// lock is released (resumed shards count as `finished` from the start),
/// so `finished == shard count` — or a set `aborted` — is the one
/// termination condition a waiter needs.
struct FleetState {
    /// Shard indices nobody has claimed (or that a failed dispatch
    /// returned).
    queue: VecDeque<usize>,
    /// Shards currently being streamed by some daemon.
    running: usize,
    /// Shards merged into `results` (including resumed ones).
    finished: usize,
    /// Per-shard output, the daemon that produced it, and whether it was
    /// resumed from a manifest.
    results: Vec<Option<(JobOutput, String, bool)>>,
    /// Per-shard claim counts.
    attempts: Vec<usize>,
    /// Per-shard earliest next dispatch (retry backoff).
    not_before: Vec<Option<Instant>>,
    /// Daemons currently retired by a failure, with the reason.
    dead: Vec<(String, String)>,
    /// Daemons that were retired and later re-admitted, with the original
    /// retirement reason.
    readmitted: Vec<(String, String)>,
    /// Set when a shard exhausted [`RetryConfig::max_attempts`]: every
    /// worker drains and the sweep fails with this reason.
    aborted: Option<String>,
}

impl FleetState {
    fn over(&self) -> bool {
        self.finished == self.results.len() || self.aborted.is_some()
    }
}

/// Runs `spec` across `daemons` with the default [`FleetConfig`].
///
/// # Errors
///
/// [`ServeError::Fleet`] when the daemon list is empty, every daemon was
/// permanently retired before the last shard finished, or a shard
/// exhausted its attempt budget; individual daemon failures are *not*
/// errors while at least one survivor remains (they are reported in
/// [`FleetOutput::dead`] / [`FleetOutput::readmitted`]).
pub fn fansweep<A: AsRef<str> + Sync>(
    daemons: &[A],
    spec: &SweepSpec,
) -> Result<FleetOutput, ServeError> {
    fansweep_with(daemons, spec, &FleetConfig::default())
}

/// [`fansweep`] with explicit shard count, transport deadlines, retry and
/// probe policy, and optional durable checkpointing.
///
/// # Errors
///
/// As [`fansweep`], plus [`ServeError::Io`] for manifest I/O failures
/// (including a missing or mismatched manifest on resume).
pub fn fansweep_with<A: AsRef<str> + Sync>(
    daemons: &[A],
    spec: &SweepSpec,
    config: &FleetConfig,
) -> Result<FleetOutput, ServeError> {
    if daemons.is_empty() {
        return Err(ServeError::Fleet(
            "a federated sweep needs at least one daemon address".to_owned(),
        ));
    }
    if config.resume && config.manifest.is_none() {
        return Err(ServeError::Fleet(
            "resume needs a manifest directory (FleetConfig::manifest)".to_owned(),
        ));
    }
    let total = spec.matrix_len();
    let planned = shard_ranges(total, config.shards.unwrap_or(daemons.len()).max(1));
    let manifest = match &config.manifest {
        Some(dir) if config.resume => Some(SweepManifest::resume(dir, spec)?),
        Some(dir) => Some(SweepManifest::create(dir, spec, &planned)?),
        None => None,
    };
    // On resume the recorded plan replaces the requested one: checkpoints
    // are keyed by their original ranges.
    let ranges: Vec<Range<usize>> = manifest.as_ref().map_or(planned, |m| m.ranges().to_vec());

    let mut initial = FleetState {
        queue: VecDeque::new(),
        running: 0,
        finished: 0,
        results: vec![None; ranges.len()],
        attempts: vec![0; ranges.len()],
        not_before: vec![None; ranges.len()],
        dead: Vec::new(),
        readmitted: Vec::new(),
        aborted: None,
    };
    match &manifest {
        Some(m) => {
            for (shard, done) in m.completed().iter().enumerate() {
                match done {
                    Some(c) => {
                        initial.results[shard] = Some((c.output.clone(), c.daemon.clone(), true));
                        initial.attempts[shard] = c.attempts;
                        initial.finished += 1;
                    }
                    None => initial.queue.push_back(shard),
                }
            }
        }
        None => initial.queue = (0..ranges.len()).collect(),
    }
    let max_attempts = match config.retry.max_attempts {
        0 => 2 * daemons.len() + 2,
        n => n,
    };

    let state = Mutex::new(initial);
    let available = Condvar::new();

    std::thread::scope(|scope| {
        for daemon in daemons {
            let (state, available, ranges, manifest) = (&state, &available, &ranges, &manifest);
            scope.spawn(move || {
                serve_shards(
                    daemon.as_ref(),
                    spec,
                    config,
                    max_attempts,
                    manifest.as_ref(),
                    state,
                    available,
                    ranges,
                );
            });
        }
    });

    let state = state
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    merge(state, &ranges)
}

/// One daemon's worker loop. Lifecycle: claim shards off the queue until
/// the sweep is over; on any failure, retire the daemon (returning the
/// in-flight shard to the queue with backoff) and drop to the probe loop;
/// probe (reconnect + `ping`) on a doubling cooldown; re-admit on
/// success, retire permanently once the probe budget runs out.
#[allow(clippy::too_many_arguments)]
fn serve_shards(
    daemon: &str,
    spec: &SweepSpec,
    config: &FleetConfig,
    max_attempts: usize,
    manifest: Option<&SweepManifest>,
    state: &Mutex<FleetState>,
    available: &Condvar,
    ranges: &[Range<usize>],
) {
    let lock = || {
        state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    };
    // `retired` doubles as this worker's own memory of being off the
    // fleet: `Some(reason)` between retirement and re-admission.
    let mut retired: Option<String> = None;
    let mut probes_left = config.probe.max_probes;
    let mut cooldown = config.probe.cooldown;
    loop {
        // Check for an already-over sweep *before* connecting, so a fully
        // resumed sweep (every shard replayed from the manifest) needs no
        // daemon at all.
        if lock().over() {
            return;
        }
        let connected = Client::connect_with(daemon, &config.client).and_then(|mut client| {
            if retired.is_some() {
                // Re-admission requires more than an accepted TCP
                // connect: a ping round trip certifies the daemon reads
                // and writes frames again.
                client.ping()?;
            }
            Ok(client)
        });
        let mut client = match connected {
            Ok(client) => client,
            Err(e) => {
                let verb = if retired.is_some() {
                    "probe"
                } else {
                    "connect"
                };
                retire(
                    daemon,
                    format!("{verb} failed: {e}"),
                    &mut retired,
                    state,
                    available,
                );
                if cool_off(&mut probes_left, &mut cooldown, config, state) {
                    continue;
                }
                return; // probe budget exhausted: permanently retired
            }
        };
        if let Some(reason) = retired.take() {
            let mut st = lock();
            st.dead.retain(|(addr, _)| addr != daemon);
            st.readmitted.push((daemon.to_owned(), reason));
            probes_left = config.probe.max_probes;
            cooldown = config.probe.cooldown;
            available.notify_all();
        }
        loop {
            // Claim a shard. Waiting while others run matters: if a
            // running daemon fails, its shard lands back on the queue and
            // a waiter must be around to steal it.
            let (shard, attempt, wait) = {
                let mut st = lock();
                loop {
                    if st.over() {
                        return;
                    }
                    if let Some(shard) = st.queue.pop_front() {
                        st.running += 1;
                        st.attempts[shard] += 1;
                        let wait = st.not_before[shard]
                            .map(|t| t.saturating_duration_since(Instant::now()))
                            .unwrap_or(Duration::ZERO);
                        break (shard, st.attempts[shard], wait);
                    }
                    st = available
                        .wait(st)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            if !wait.is_zero() {
                // Honour the shard's retry backoff outside the lock.
                std::thread::sleep(wait);
            }
            let range = &ranges[shard];
            match run_shard(&mut client, spec, range, config.shard_deadline) {
                Ok(output) => {
                    if let Some(m) = manifest {
                        // Best-effort: a failed checkpoint only costs a
                        // re-run of this shard after a crash, never the
                        // current sweep's result.
                        let _ = m.record(shard, daemon, attempt, &output);
                    }
                    let mut st = lock();
                    st.results[shard] = Some((output, daemon.to_owned(), false));
                    st.finished += 1;
                    st.running -= 1;
                    available.notify_all();
                }
                Err(e) => {
                    // The client is poisoned (or the job came back
                    // cancelled): return the whole shard to the queue —
                    // re-running it is free of double-count risk because
                    // results merge by shard, not by append — and retire
                    // this daemon until a probe clears it.
                    let mut st = lock();
                    st.running -= 1;
                    st.queue.push_back(shard);
                    st.not_before[shard] =
                        Some(Instant::now() + config.retry.backoff(shard, attempt + 1));
                    if attempt >= max_attempts {
                        let abort = format!(
                            "shard {}..{} failed {attempt} attempts (limit {max_attempts}), last: {e}",
                            range.start, range.end
                        );
                        st.aborted.get_or_insert(abort);
                    }
                    drop(st);
                    available.notify_all();
                    retire(
                        daemon,
                        format!("shard {}..{} failed: {e}", range.start, range.end),
                        &mut retired,
                        state,
                        available,
                    );
                    break;
                }
            }
        }
        // Fell out of the claim loop on a failure: cool off, then loop
        // back around to probe the daemon.
        if !cool_off(&mut probes_left, &mut cooldown, config, state) {
            return;
        }
    }
}

/// Records a daemon's retirement exactly once per outage (probe misses
/// after the first keep the original reason) and wakes any waiters.
fn retire(
    daemon: &str,
    reason: String,
    retired: &mut Option<String>,
    state: &Mutex<FleetState>,
    available: &Condvar,
) {
    let mut st = state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if retired.is_none() {
        st.dead.push((daemon.to_owned(), reason.clone()));
        *retired = Some(reason);
    }
    available.notify_all();
}

/// Waits out one probe cooldown (in slices, so a finished or aborted
/// sweep is never overslept), doubling the cooldown up to 8× its initial
/// value. Returns `false` when the probe budget is exhausted or the
/// sweep ended — the worker should exit.
fn cool_off(
    probes_left: &mut usize,
    cooldown: &mut Duration,
    config: &FleetConfig,
    state: &Mutex<FleetState>,
) -> bool {
    if *probes_left == 0 {
        return false;
    }
    *probes_left -= 1;
    let deadline = Instant::now() + *cooldown;
    loop {
        let over = state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .over();
        if over {
            return false;
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break;
        }
        std::thread::sleep(remaining.min(WATCH_SLICE));
    }
    *cooldown = (*cooldown * 2).min(config.probe.cooldown * 8);
    true
}

/// SplitMix64 finalizer — one well-mixed draw per distinct input.
fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Streams one shard to completion on `client`.
fn run_shard(
    client: &mut Client,
    spec: &SweepSpec,
    range: &Range<usize>,
    deadline: Option<Duration>,
) -> Result<JobOutput, ServeError> {
    if let Some(fault) = crate::fault_io("coordinator.dispatch") {
        return Err(ServeError::Io(fault));
    }
    let output = client
        .sweep_range_with(spec, range.start, range.end, deadline)?
        .collect()?;
    if output.deadline_exceeded {
        // The shard ran out of its server-enforced time budget. Typed, so
        // the caller's retry policy treats it like any other shard fault:
        // re-dispatched with backoff, bounded by the attempt budget —
        // never silently dropped from the merge.
        return Err(ServeError::Deadline(format!(
            "shard {}..{} exceeded its deadline on the daemon",
            range.start, range.end
        )));
    }
    if output.cancelled {
        // Someone cancelled the job server-side; the shard is incomplete
        // and this connection's job slot may be contended — treat it like
        // a daemon failure so the shard is re-dispatched.
        return Err(ServeError::Fleet(format!(
            "shard {}..{} was cancelled on the daemon",
            range.start, range.end
        )));
    }
    Ok(output)
}

/// Stitches per-shard outputs back into full-matrix order, or reports
/// the unfinished shards when the fleet died (or the attempt budget ran
/// out) first.
fn merge(state: FleetState, ranges: &[Range<usize>]) -> Result<FleetOutput, ServeError> {
    if let Some(fault) = crate::fault_io("coordinator.merge") {
        return Err(ServeError::Io(fault));
    }
    let FleetState {
        results,
        attempts,
        dead,
        readmitted,
        finished,
        aborted,
        ..
    } = state;
    if let Some(reason) = aborted {
        return Err(ServeError::Fleet(format!("sweep aborted: {reason}")));
    }
    if finished != ranges.len() {
        let unfinished: Vec<String> = results
            .iter()
            .zip(ranges)
            .filter(|(r, _)| r.is_none())
            .map(|(_, range)| format!("{}..{}", range.start, range.end))
            .collect();
        let reasons: Vec<String> = dead
            .iter()
            .map(|(daemon, reason)| format!("{daemon}: {reason}"))
            .collect();
        return Err(ServeError::Fleet(format!(
            "every daemon died with shard(s) [{}] unfinished — {}",
            unfinished.join(", "),
            reasons.join("; ")
        )));
    }
    let mut output = FleetOutput {
        rows: Vec::new(),
        scenario_errors: Vec::new(),
        ok: 0,
        failed: 0,
        shards: Vec::with_capacity(ranges.len()),
        dead,
        readmitted,
    };
    // Shards are contiguous slices in matrix order, and every row and
    // scenario frame inside one carries its global index, so plain
    // concatenation in shard order *is* the single-host output — whether
    // a shard was served this run or replayed from a manifest.
    for (shard, (result, range)) in results.into_iter().zip(ranges).enumerate() {
        let (job, daemon, resumed) =
            result.expect("finished == len ensures every shard has a result");
        output.rows.extend(job.rows);
        output.scenario_errors.extend(job.scenario_errors);
        output.ok += job.ok;
        output.failed += job.failed;
        output.shards.push(ShardReport {
            range: range.clone(),
            daemon,
            attempts: attempts[shard],
            resumed,
        });
    }
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_fleet_is_refused() {
        let sweep = drcell_scenario::registry::default_sweep();
        let daemons: [&str; 0] = [];
        match fansweep(&daemons, &sweep) {
            Err(ServeError::Fleet(msg)) => assert!(msg.contains("at least one daemon")),
            other => panic!("expected a fleet error, got {other:?}"),
        }
    }

    #[test]
    fn resume_without_a_manifest_directory_is_refused() {
        let sweep = drcell_scenario::registry::default_sweep();
        let config = FleetConfig {
            resume: true,
            ..FleetConfig::default()
        };
        match fansweep_with(&["192.0.2.1:1"], &sweep, &config) {
            Err(ServeError::Fleet(msg)) => assert!(msg.contains("manifest"), "{msg}"),
            other => panic!("expected a fleet error, got {other:?}"),
        }
    }

    #[test]
    fn an_unreachable_fleet_reports_every_daemon_and_shard() {
        let sweep = drcell_scenario::registry::default_sweep();
        // TEST-NET-1 addresses with a tight connect deadline and probing
        // disabled: both daemons retire at connect, so every shard stays
        // unfinished.
        let daemons = ["192.0.2.1:1", "192.0.2.2:1"];
        let config = FleetConfig {
            client: ClientConfig {
                connect: Some(std::time::Duration::from_millis(200)),
                ..ClientConfig::default()
            },
            probe: ProbeConfig {
                max_probes: 0,
                ..ProbeConfig::default()
            },
            ..FleetConfig::default()
        };
        match fansweep_with(&daemons, &sweep, &config) {
            Err(ServeError::Fleet(msg)) => {
                assert!(msg.contains("unfinished"), "{msg}");
                assert!(msg.contains("192.0.2.1:1"), "{msg}");
                assert!(msg.contains("192.0.2.2:1"), "{msg}");
            }
            other => panic!("expected a fleet error, got {other:?}"),
        }
    }

    #[test]
    fn backoff_is_deterministic_jittered_and_capped() {
        let retry = RetryConfig::default();
        // First claim is immediate.
        assert_eq!(retry.backoff(0, 1), Duration::ZERO);
        // Same inputs, same delay; different shard or attempt, (almost
        // surely) different jitter.
        assert_eq!(retry.backoff(3, 2), retry.backoff(3, 2));
        assert_ne!(retry.backoff(3, 2), retry.backoff(4, 2));
        // Jitter keeps every delay within [0.5, 1.5) of the ideal curve,
        // and the cap bounds the curve itself.
        for attempt in 2..12 {
            let ideal = retry
                .base
                .saturating_mul(1u32 << (attempt - 2).min(16))
                .min(retry.cap);
            let d = retry.backoff(7, attempt as usize);
            assert!(
                d >= ideal.mul_f64(0.5),
                "attempt {attempt}: {d:?} < half of {ideal:?}"
            );
            assert!(
                d < ideal.mul_f64(1.5),
                "attempt {attempt}: {d:?} ≥ 1.5× {ideal:?}"
            );
            assert!(
                d < retry.cap.mul_f64(1.5),
                "attempt {attempt}: {d:?} above jittered cap"
            );
        }
        // Different seeds shift the jitter.
        let reseeded = RetryConfig {
            jitter_seed: 42,
            ..retry
        };
        assert_ne!(retry.backoff(3, 2), reseeded.backoff(3, 2));
    }
}
