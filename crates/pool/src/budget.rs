//! Process-wide thread-budget coordination.
//!
//! Two layers of parallelism coexist in the workspace: the scenario
//! [`SweepEngine`] fans out across scenarios, and the inner [`Pool`]s fan
//! out inside one scenario (ALS sweeps, leave-one-out cells, GEMM blocks).
//! Left uncoordinated they would multiply — `outer × inner` threads on
//! `budget` cores — and oversubscription would erase both speedups.
//!
//! The contract here is simple: there is one process-wide budget (the
//! hardware threads this process may use), outer engines **reserve** their
//! worker count for the duration of a sweep, and every auto-sized inner
//! pool resolves to the remainder (`budget / outer`, at least 1). So a
//! sweep on 8 cores with 8 scenario workers runs every inner pool
//! serially, a single-scenario run gets all 8 cores inside the assessment
//! loop, and `outer × inner ≤ budget` always holds for auto-sized pools.
//! The budget follows CPU affinity and cgroup quotas, so a machine is
//! partitioned between processes from outside (`taskset -c 0-3 …`).
//! Explicitly sized pools (`Pool::new(n)`, `n ≥ 1`) bypass the budget;
//! engine-level benches and tests use them to pin a size.
//!
//! [`SweepEngine`]: https://docs.rs/drcell-scenario
//! [`Pool`]: crate::Pool

use std::sync::atomic::{AtomicUsize, Ordering};

/// Product of all currently reserved outer worker counts (≥ 1).
static OUTER: AtomicUsize = AtomicUsize::new(1);

/// Hardware parallelism — the single source of truth for "how many threads
/// does this machine have" across the workspace (engines must not carry
/// their own `available_parallelism` fallback logic). It counts the
/// threads this process may run on, honouring CPU affinity and cgroup
/// quotas.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The total thread budget: the hardware threads this process may use.
pub fn total_budget() -> usize {
    hardware_threads()
}

/// The product of currently reserved outer worker counts (1 when no outer
/// engine is running).
pub fn outer_claim() -> usize {
    OUTER.load(Ordering::Relaxed).max(1)
}

/// The thread share an auto-sized inner pool resolves to right now:
/// `total_budget / outer_claim`, at least 1.
pub fn inner_share() -> usize {
    (total_budget() / outer_claim()).max(1)
}

/// RAII reservation of outer-level parallelism: while alive, auto-sized
/// inner pools divide the budget by `workers`. Reservations nest
/// multiplicatively (a sweep inside a sweep divides twice).
#[derive(Debug)]
pub struct OuterReservation {
    workers: usize,
}

/// Reserves `workers` outer workers until the returned guard is dropped.
pub fn reserve_outer(workers: usize) -> OuterReservation {
    let w = workers.max(1);
    let _ = OUTER.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |o| {
        Some(o.max(1).saturating_mul(w))
    });
    OuterReservation { workers: w }
}

impl Drop for OuterReservation {
    fn drop(&mut self) {
        let w = self.workers;
        let _ = OUTER.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |o| {
            Some((o / w).max(1))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The outer claim is process-global; tests that reserve take this
    /// lock so the crate's parallel test runner cannot interleave them.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn hardware_is_at_least_one() {
        assert!(hardware_threads() >= 1);
        assert_eq!(total_budget(), hardware_threads());
    }

    #[test]
    fn reservation_divides_the_share_and_restores_on_drop() {
        let _guard = LOCK.lock().unwrap();
        let budget = total_budget();
        assert_eq!(outer_claim(), 1);
        assert_eq!(inner_share(), budget);
        {
            let _outer = reserve_outer(4);
            assert_eq!(outer_claim(), 4);
            assert_eq!(inner_share(), (budget / 4).max(1));
            {
                // Nested reservations multiply.
                let _inner = reserve_outer(2);
                assert_eq!(outer_claim(), 8);
                assert_eq!(inner_share(), (budget / 8).max(1));
            }
            assert_eq!(outer_claim(), 4);
        }
        assert_eq!(outer_claim(), 1);
        assert_eq!(inner_share(), budget);
    }

    #[test]
    fn units_reserve_their_workers_and_come_back_in_order() {
        let _guard = LOCK.lock().unwrap();
        let budget = total_budget();
        let shares = crate::Pool::new(2)
            .try_run_units(5, |i| Ok::<_, ()>((i, inner_share())))
            .unwrap();
        assert_eq!(
            shares.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
        assert!(shares.iter().all(|&(_, s)| s == (budget / 2).max(1)));
        assert_eq!(outer_claim(), 1, "the reservation ends with the call");

        let failed =
            crate::Pool::new(2).try_run_units(9, |i| if i % 4 == 3 { Err(i) } else { Ok(i) });
        assert_eq!(failed, Err(3));
    }

    #[test]
    fn share_never_hits_zero() {
        let _guard = LOCK.lock().unwrap();
        let _outer = reserve_outer(total_budget() * 64);
        assert_eq!(inner_share(), 1);
        let _zero = reserve_outer(0);
        assert_eq!(outer_claim(), total_budget() * 64, "0 reserves as 1");
        assert_eq!(inner_share(), 1);
    }
}
