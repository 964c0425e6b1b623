//! # drcell-faults — deterministic failpoints
//!
//! A tiny, std-only failpoint registry for fault-injection testing. Code
//! under test declares *named* failpoints at its I/O and dispatch seams;
//! tests (or the environment) attach a **schedule** to a name and the
//! site observes a typed fault exactly where a real disk, socket or
//! daemon would have failed.
//!
//! ## Schedules
//!
//! A schedule is a `->`-separated list of entries, consumed in order:
//!
//! ```text
//! spec  := entry ("->" entry)*
//! entry := [count "*"] [percent "%"] action
//! action := "off" | "error(msg)" | "delay(ms)" | "disconnect"
//! ```
//!
//! * `count*` bounds the entry to the next `count` evaluations; without a
//!   count the entry is terminal and covers every later evaluation.
//! * `percent%` fires the action with that probability, drawn from a
//!   **per-failpoint RNG seeded from the global seed and the name** — the
//!   same seed always yields the same fault sequence.
//! * `off` does nothing (used to skip hits: `2*off->1*error(boom)` fires
//!   on exactly the third hit), `delay(ms)` sleeps and then continues,
//!   `error(msg)` and `disconnect` surface as [`Fault`]s.
//!
//! ## Zero cost when disabled
//!
//! Consuming crates declare their own `failpoints` cargo feature with an
//! *optional* dependency on this crate and wrap call sites in a
//! `#[cfg(feature = "failpoints")]` helper; a default build carries no
//! registry, no branches, no dependency. See `drcell-store` and
//! `drcell-serve` for the pattern.
//!
//! ## Environment configuration
//!
//! Spawned processes (CI daemons, smoke tests) are configured without
//! code: `DRCELL_FAILPOINTS="name=spec;name=spec"` installs schedules on
//! first registry access, and `DRCELL_FAULT_SEED=n` seeds the RNG.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::{Mutex, Once, OnceLock};
use std::time::Duration;

/// A fault observed at a failpoint, to be surfaced as whatever error type
/// the call site's seam uses (usually via [`Fault::into_io`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// A typed error with the schedule's message.
    Error(String),
    /// The peer vanished mid-operation (maps to `ConnectionReset`).
    Disconnect,
}

impl Fault {
    /// Map the fault onto `std::io::Error`, the lingua franca of every
    /// seam this crate instruments (journal, cache, sockets).
    pub fn into_io(self) -> std::io::Error {
        match self {
            Fault::Error(msg) => std::io::Error::other(format!("injected fault: {msg}")),
            Fault::Disconnect => std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "injected fault: disconnect",
            ),
        }
    }
}

/// What an entry does when it fires.
#[derive(Debug, Clone, PartialEq)]
enum Action {
    Off,
    Error(String),
    Delay(u64),
    Disconnect,
}

#[derive(Debug, Clone)]
struct Entry {
    /// Evaluations left for this entry; `None` = terminal (unbounded).
    remaining: Option<u64>,
    /// Fire probability in `[0, 1]`; `None` = always.
    prob: Option<f64>,
    action: Action,
}

struct Point {
    entries: Vec<Entry>,
    hits: u64,
    rng: u64,
}

struct Registry {
    points: HashMap<String, Point>,
    seed: u64,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    static ENV_INIT: Once = Once::new();
    let reg = REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            points: HashMap::new(),
            seed: 0,
        })
    });
    ENV_INIT.call_once(|| {
        let mut r = reg.lock().unwrap_or_else(|p| p.into_inner());
        if let Ok(seed) = std::env::var("DRCELL_FAULT_SEED") {
            if let Ok(seed) = seed.trim().parse::<u64>() {
                r.seed = seed;
            }
        }
        if let Ok(config) = std::env::var("DRCELL_FAILPOINTS") {
            let seed = r.seed;
            for pair in config.split(';') {
                let pair = pair.trim();
                if pair.is_empty() {
                    continue;
                }
                if let Some((name, spec)) = pair.split_once('=') {
                    if let Ok(entries) = parse_spec(spec.trim()) {
                        install(&mut r, name.trim(), entries, seed);
                    }
                }
            }
        }
    });
    reg
}

fn install(r: &mut Registry, name: &str, entries: Vec<Entry>, seed: u64) {
    let rng = seed ^ fnv1a(name.as_bytes()) ^ 0x9E37_79B9_7F4A_7C15;
    r.points.insert(
        name.to_owned(),
        Point {
            entries,
            hits: 0,
            rng,
        },
    );
}

/// FNV-1a over the failpoint name: decorrelates per-point RNG streams
/// that share one global seed.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64 — tiny, high-quality, and exactly reproducible.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn parse_spec(spec: &str) -> Result<Vec<Entry>, String> {
    let spec = spec.trim();
    if spec.is_empty() {
        return Err("empty failpoint spec".into());
    }
    spec.split("->").map(|e| parse_entry(e.trim())).collect()
}

fn parse_entry(entry: &str) -> Result<Entry, String> {
    let mut rest = entry;
    let mut remaining = None;
    if let Some((count, tail)) = rest.split_once('*') {
        let n: u64 = count
            .trim()
            .parse()
            .map_err(|_| format!("bad count in failpoint entry {entry:?}"))?;
        remaining = Some(n);
        rest = tail.trim();
    }
    let mut prob = None;
    if let Some((pct, tail)) = rest.split_once('%') {
        let p: f64 = pct
            .trim()
            .parse()
            .map_err(|_| format!("bad probability in failpoint entry {entry:?}"))?;
        if !(0.0..=100.0).contains(&p) {
            return Err(format!("probability out of range in {entry:?}"));
        }
        prob = Some(p / 100.0);
        rest = tail.trim();
    }
    let action = if rest == "off" {
        Action::Off
    } else if rest == "disconnect" {
        Action::Disconnect
    } else if let Some(msg) = rest
        .strip_prefix("error(")
        .and_then(|s| s.strip_suffix(')'))
    {
        Action::Error(msg.to_owned())
    } else if let Some(ms) = rest
        .strip_prefix("delay(")
        .and_then(|s| s.strip_suffix(')'))
    {
        let ms: u64 = ms
            .trim()
            .parse()
            .map_err(|_| format!("bad delay in failpoint entry {entry:?}"))?;
        Action::Delay(ms)
    } else {
        return Err(format!("unknown failpoint action {rest:?}"));
    };
    Ok(Entry {
        remaining,
        prob,
        action,
    })
}

/// Install (or replace) the schedule for a named failpoint.
///
/// Returns a description of the problem when `spec` does not parse; the
/// registry is left unchanged in that case.
pub fn configure(name: &str, spec: &str) -> Result<(), String> {
    let entries = parse_spec(spec)?;
    let mut r = registry().lock().unwrap_or_else(|p| p.into_inner());
    let seed = r.seed;
    install(&mut r, name, entries, seed);
    Ok(())
}

/// Remove every schedule. Hit counters are discarded too.
pub fn clear() {
    let mut r = registry().lock().unwrap_or_else(|p| p.into_inner());
    r.points.clear();
}

/// Set the global RNG seed used by probabilistic entries.
///
/// Applies to schedules configured *after* the call — set the seed first,
/// then configure, for reproducible sequences.
pub fn set_seed(seed: u64) {
    let mut r = registry().lock().unwrap_or_else(|p| p.into_inner());
    r.seed = seed;
}

/// Number of times a configured failpoint has been evaluated.
///
/// Unconfigured names report 0 (their sites never reach the registry's
/// counters — [`eval`] counts only while a schedule is installed).
pub fn hits(name: &str) -> u64 {
    let r = registry().lock().unwrap_or_else(|p| p.into_inner());
    r.points.get(name).map_or(0, |p| p.hits)
}

/// Evaluate a named failpoint: consume one step of its schedule and
/// return the fault to surface, if any.
///
/// `delay(ms)` entries sleep *inside* this call and then return `None`;
/// `off`, exhausted schedules and unconfigured names return `None`
/// without side effects. Call sites are expected to be cheap when no
/// schedule is installed: one map lookup under a mutex.
pub fn eval(name: &str) -> Option<Fault> {
    let action = {
        let mut r = registry().lock().unwrap_or_else(|p| p.into_inner());
        let point = r.points.get_mut(name)?;
        point.hits += 1;
        let entry = point.entries.iter_mut().find(|e| e.remaining != Some(0))?;
        if let Some(n) = entry.remaining.as_mut() {
            *n -= 1;
        }
        let fires = match entry.prob {
            None => true,
            Some(p) => {
                let draw = (splitmix(&mut point.rng) >> 11) as f64 / (1u64 << 53) as f64;
                draw < p
            }
        };
        if !fires {
            return None;
        }
        entry.action.clone()
    };
    match action {
        Action::Off => None,
        Action::Error(msg) => Some(Fault::Error(msg)),
        Action::Disconnect => Some(Fault::Disconnect),
        Action::Delay(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The registry is process-global; serialise tests that mutate it.
    fn lock() -> MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn bad_specs_are_rejected_and_leave_the_registry_unchanged() {
        let _g = lock();
        clear();
        for bad in ["", "explode", "x*error(a)", "150%error(a)", "delay(abc)"] {
            assert!(configure("t.bad", bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(eval("t.bad"), None);
    }

    #[test]
    fn nth_hit_schedules_fire_exactly_where_declared() {
        let _g = lock();
        clear();
        configure("t.nth", "2*off->1*error(boom)").unwrap();
        assert_eq!(eval("t.nth"), None);
        assert_eq!(eval("t.nth"), None);
        assert_eq!(eval("t.nth"), Some(Fault::Error("boom".into())));
        // Schedule exhausted: later hits are clean.
        assert_eq!(eval("t.nth"), None);
        assert_eq!(hits("t.nth"), 4);
    }

    #[test]
    fn terminal_entries_cover_every_later_evaluation() {
        let _g = lock();
        clear();
        configure("t.term", "1*off->disconnect").unwrap();
        assert_eq!(eval("t.term"), None);
        for _ in 0..5 {
            assert_eq!(eval("t.term"), Some(Fault::Disconnect));
        }
    }

    #[test]
    fn delay_sleeps_then_continues() {
        let _g = lock();
        clear();
        configure("t.delay", "1*delay(20)").unwrap();
        let start = std::time::Instant::now();
        assert_eq!(eval("t.delay"), None);
        assert!(start.elapsed() >= Duration::from_millis(15));
        assert_eq!(eval("t.delay"), None);
    }

    #[test]
    fn probabilistic_entries_are_reproducible_per_seed() {
        let _g = lock();
        clear();
        let pattern = |seed: u64| -> Vec<bool> {
            set_seed(seed);
            configure("t.prob", "50%error(p)").unwrap();
            (0..64).map(|_| eval("t.prob").is_some()).collect()
        };
        let a = pattern(42);
        let b = pattern(42);
        assert_eq!(a, b, "same seed must reproduce the same fault sequence");
        let fired = a.iter().filter(|&&f| f).count();
        assert!(
            0 < fired && fired < 64,
            "50% should be mixed, got {fired}/64"
        );
        set_seed(0);
    }

    #[test]
    fn bounded_probabilistic_entries_stop_after_their_count() {
        let _g = lock();
        clear();
        set_seed(7);
        configure("t.bp", "8*100%error(x)").unwrap();
        let fired = (0..32).filter(|_| eval("t.bp").is_some()).count();
        assert_eq!(fired, 8);
        set_seed(0);
    }

    #[test]
    fn faults_map_onto_io_errors() {
        let io = Fault::Error("disk full".into()).into_io();
        assert!(io.to_string().contains("disk full"));
        let io = Fault::Disconnect.into_io();
        assert_eq!(io.kind(), std::io::ErrorKind::ConnectionReset);
    }
}
