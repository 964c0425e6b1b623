//! # drcell-pool — deterministic intra-scenario worker pool
//!
//! A dependency-free scoped worker pool (`std::thread` + atomics) for the
//! embarrassingly parallel inner loops of the workspace: ALS row solves,
//! batched leave-one-out cell evaluations, and GEMM row blocks. Three
//! properties make it safe to drop under numerical hot paths:
//!
//! 1. **Deterministic at any thread count.** Work is an index range
//!    `0..slots`; every slot writes only its own pre-indexed region of the
//!    output buffer, and no reduction order depends on scheduling. The same
//!    inputs produce bit-identical outputs with 1, 2 or 64 workers — the
//!    same guarantee the scenario [`SweepEngine`] gives across scenarios,
//!    extended inside one scenario.
//! 2. **Chunked index-range work-stealing.** Workers claim chunks of the
//!    index range from a shared atomic cursor, so an uneven slot (a
//!    leave-one-out solve that needs extra sweeps, a taller GEMM block)
//!    never serialises the rest of the range behind it.
//! 3. **Serial degeneration.** One worker (or one slot) runs the closure
//!    inline on the calling thread — no spawn, no atomics — so `threads=1`
//!    is exactly the serial code path, not a pool with one thread.
//! 4. **The calling thread is worker 0.** A run with `n > 1` workers
//!    spawns `n − 1` scoped threads and works the index range on the
//!    calling thread too, so a fan-out costs one spawn fewer and worker 0
//!    allocates from the caller's malloc arena.
//!
//! The [`budget`] module coordinates nested parallelism process-wide: an
//! outer scenario sweep reserves its worker count, and every auto-sized
//! ([`Pool::auto`]) inner pool resolves to the remaining share, so
//! `outer × inner` never exceeds the budget (by default, the hardware).
//! [`Pool::try_run_units`] is the pool-shaped outer fan-out: it reserves
//! its own workers, so the pools inside each unit take the remainder.
//!
//! ```
//! use drcell_pool::Pool;
//!
//! let mut out = vec![0.0f64; 8];
//! // Square each index into its slot, with a per-worker scratch counter.
//! let scratches = Pool::new(4).run_slots(
//!     &mut out,
//!     1,
//!     || 0usize,
//!     |i, slot, count| {
//!         slot[0] = (i * i) as f64;
//!         *count += 1;
//!     },
//! );
//! assert_eq!(out[3], 9.0);
//! // Every slot ran exactly once, regardless of how work was stolen.
//! assert_eq!(scratches.iter().sum::<usize>(), 8);
//! ```
//!
//! [`SweepEngine`]: https://docs.rs/drcell-scenario

#![deny(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

pub mod budget;

pub use budget::hardware_threads;

/// A worker pool with a fixed or budget-derived thread count.
///
/// `Pool` is a tiny value type (just the requested count); the threads
/// themselves are scoped to each call, so pools can be created freely and
/// stored inside engines without lifetime or shutdown concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    /// Requested worker count; `0` = resolve from the process budget at
    /// call time (see [`budget::inner_share`]).
    requested: usize,
}

impl Default for Pool {
    /// The default pool is budget-sized ([`Pool::auto`]).
    fn default() -> Self {
        Pool::auto()
    }
}

impl Pool {
    /// Pool with an explicit worker count; `0` means "my share of the
    /// process thread budget, resolved at call time".
    pub const fn new(threads: usize) -> Pool {
        Pool { requested: threads }
    }

    /// The serial pool: always runs inline on the calling thread.
    pub const fn serial() -> Pool {
        Pool::new(1)
    }

    /// A budget-sized pool: resolves to [`budget::inner_share`] at every
    /// call, so it adapts as outer engines reserve and release workers.
    pub const fn auto() -> Pool {
        Pool::new(0)
    }

    /// The raw requested count (`0` = auto).
    pub fn requested(&self) -> usize {
        self.requested
    }

    /// The worker count a call would use right now, before clamping to the
    /// slot count.
    pub fn resolved(&self) -> usize {
        if self.requested == 0 {
            budget::inner_share()
        } else {
            self.requested
        }
    }

    /// Workers for a run over `slots` independent slots: the resolved
    /// count, clamped so no worker can be guaranteed idle.
    pub fn workers_for(&self, slots: usize) -> usize {
        self.resolved().max(1).min(slots.max(1))
    }

    /// Runs `f(i, slot_i, scratch)` for every slot `i`, in parallel, where
    /// `slot_i = &mut out[i·slot_len .. min((i+1)·slot_len, out.len())]`.
    ///
    /// Each worker gets its own scratch from `make_scratch`; the scratches
    /// are returned (in worker order, the calling thread's first) so
    /// callers can merge per-worker accumulators. Outputs are deterministic
    /// at any thread count because every slot is written by exactly one
    /// invocation and nothing else is shared mutably.
    ///
    /// # Panics
    ///
    /// Panics if `slot_len == 0`, and propagates panics from `f`.
    pub fn run_slots<T, S, M, F>(
        &self,
        out: &mut [T],
        slot_len: usize,
        make_scratch: M,
        f: F,
    ) -> Vec<S>
    where
        T: Send,
        S: Send,
        M: Fn() -> S + Sync,
        F: Fn(usize, &mut [T], &mut S) + Sync,
    {
        let result: Result<Vec<S>, NoError> =
            self.try_run_slots(out, slot_len, make_scratch, |i, slot, scratch| {
                f(i, slot, scratch);
                Ok(())
            });
        match result {
            Ok(scratches) => scratches,
            Err(never) => match never {},
        }
    }

    /// Fallible [`Pool::run_slots`]: stops early on the first error and
    /// returns the error of the **lowest-indexed** failing slot, so the
    /// reported failure is deterministic at any thread count. On error the
    /// contents of `out` are unspecified.
    ///
    /// The calling thread is worker 0: with `n` workers, `n − 1` scoped
    /// threads are spawned and the caller claims slots alongside them, so
    /// `f` and `make_scratch` run on the caller's thread at any worker
    /// count. A caller must therefore not hold a thread-local `RefCell`
    /// borrow across the call that `f` could borrow again; it would
    /// panic with `BorrowMutError` instead of seeing a fresh thread's
    /// local. The only such cell in the workspace is GEMM's shared
    /// per-thread workspace, which `gemm_into_pool` holds across its
    /// fan-out: its slot closure packs into the per-worker scratch and
    /// never touches the shared one.
    ///
    /// # Errors
    ///
    /// The lowest-indexed error `f` returned.
    ///
    /// # Panics
    ///
    /// Panics if `slot_len == 0`, and propagates panics from `f`.
    pub fn try_run_slots<T, S, E, M, F>(
        &self,
        out: &mut [T],
        slot_len: usize,
        make_scratch: M,
        f: F,
    ) -> Result<Vec<S>, E>
    where
        T: Send,
        S: Send,
        E: Send,
        M: Fn() -> S + Sync,
        F: Fn(usize, &mut [T], &mut S) -> Result<(), E> + Sync,
    {
        assert!(slot_len > 0, "slot_len must be positive");
        let slots = out.len().div_ceil(slot_len);
        if slots == 0 {
            return Ok(Vec::new());
        }
        let workers = self.workers_for(slots);
        if workers <= 1 {
            // The serial degeneration: inline on the calling thread, no
            // spawn, no atomics — exactly the pre-pool code path.
            let mut scratch = make_scratch();
            for (i, slot) in out.chunks_mut(slot_len).enumerate() {
                f(i, slot, &mut scratch)?;
            }
            return Ok(vec![scratch]);
        }

        // Chunked work-stealing: workers claim `chunk` consecutive slots at
        // a time from the shared cursor. Small chunks keep the tail
        // balanced; the cap keeps cursor contention negligible.
        let chunk = (slots / (workers * 8)).max(1);
        let cursor = AtomicUsize::new(0);
        // Lowest failing slot index seen so far (usize::MAX = none). Workers
        // skip slots above it, so an error aborts the run quickly while the
        // *returned* error stays the deterministic minimum-index one.
        let first_err_at = AtomicUsize::new(usize::MAX);
        let slots_ref = SlotWriter::new(out, slot_len);

        // One worker's loop: its scratch, then chunks until the range (or
        // an error) runs out. Returns the errors it hit, with their slot
        // indices, and its scratch.
        let worker = || {
            let mut scratch = make_scratch();
            let mut errors: Vec<(usize, E)> = Vec::new();
            loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= slots || start > first_err_at.load(Ordering::Relaxed) {
                    break;
                }
                for i in start..(start + chunk).min(slots) {
                    if i > first_err_at.load(Ordering::Relaxed) {
                        break;
                    }
                    // Safety: `i` is claimed by exactly one worker (the
                    // cursor hands out disjoint ranges), so the slot is
                    // exclusively ours.
                    let slot = unsafe { slots_ref.slot(i) };
                    if let Err(e) = f(i, slot, &mut scratch) {
                        errors.push((i, e));
                        first_err_at.fetch_min(i, Ordering::Relaxed);
                        break;
                    }
                }
            }
            (errors, scratch)
        };
        // The calling thread is worker 0; only `workers − 1` threads spawn.
        let outcomes = std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
            let mut outcomes = Vec::with_capacity(workers);
            outcomes.push(worker());
            for handle in spawned {
                match handle.join() {
                    Ok(outcome) => outcomes.push(outcome),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            outcomes
        });

        let mut scratches = Vec::with_capacity(workers);
        let mut first_error: Option<(usize, E)> = None;
        for (errors, scratch) in outcomes {
            for (i, e) in errors {
                if first_error.as_ref().is_none_or(|(j, _)| i < *j) {
                    first_error = Some((i, e));
                }
            }
            scratches.push(scratch);
        }
        match first_error {
            Some((_, e)) => Err(e),
            None => Ok(scratches),
        }
    }

    /// Runs `f(i)` for every unit `i` in `0..units` as **outer**
    /// parallelism and returns the results in index order.
    ///
    /// The worker count resolves as in [`Pool::run_slots`] and is then
    /// reserved with [`budget::reserve_outer`] for the whole call, so every
    /// auto-sized pool inside a unit resolves to the remaining share
    /// (serial when the units take every thread). Units run on the pool's
    /// workers, the calling thread among them. Results are deterministic at
    /// any thread count as long as each unit depends only on its index.
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing unit.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f`.
    pub fn try_run_units<R, E, F>(&self, units: usize, f: F) -> Result<Vec<R>, E>
    where
        R: Send,
        E: Send,
        F: Fn(usize) -> Result<R, E> + Sync,
    {
        let workers = self.workers_for(units);
        let _outer = budget::reserve_outer(workers);
        let mut out: Vec<Option<R>> = (0..units).map(|_| None).collect();
        Pool::new(workers).try_run_slots(
            &mut out,
            1,
            || (),
            |i, slot, _| {
                slot[0] = Some(f(i)?);
                Ok(())
            },
        )?;
        Ok(out
            .into_iter()
            .map(|r| r.expect("every unit ran"))
            .collect())
    }
}

/// An uninhabited error type for routing the infallible entry point through
/// the fallible core.
enum NoError {}

/// Hands out disjoint `&mut` slot views of one output buffer to workers.
///
/// Soundness rests on the pool's scheduling invariant: each slot index is
/// claimed by exactly one worker, so no two `slot(i)` calls alias.
struct SlotWriter<T> {
    ptr: *mut T,
    len: usize,
    slot_len: usize,
}

unsafe impl<T: Send> Sync for SlotWriter<T> {}

impl<T> SlotWriter<T> {
    fn new(out: &mut [T], slot_len: usize) -> SlotWriter<T> {
        SlotWriter {
            ptr: out.as_mut_ptr(),
            len: out.len(),
            slot_len,
        }
    }

    /// # Safety
    ///
    /// Each `i` must be passed at most once across all concurrent callers
    /// (disjointness of the returned slices).
    #[allow(clippy::mut_from_ref)]
    unsafe fn slot(&self, i: usize) -> &mut [T] {
        let start = i * self.slot_len;
        let end = (start + self.slot_len).min(self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), end - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_outputs_are_identical() {
        // A mildly irregular per-slot computation (work depends on i).
        let compute = |i: usize, slot: &mut [f64], _: &mut ()| {
            let mut acc = 0.0f64;
            for k in 0..(i % 7) * 50 + 10 {
                acc += ((i * 31 + k) as f64).sin();
            }
            slot[0] = acc;
        };
        let mut serial = vec![0.0; 129];
        Pool::serial().run_slots(&mut serial, 1, || (), compute);
        for threads in [2, 3, 4, 8] {
            let mut parallel = vec![0.0; 129];
            Pool::new(threads).run_slots(&mut parallel, 1, || (), compute);
            assert_eq!(serial, parallel, "{threads} workers diverged");
        }
    }

    #[test]
    fn every_slot_runs_exactly_once() {
        let mut out = vec![0u32; 1000];
        Pool::new(4).run_slots(&mut out, 1, || (), |_, slot, _| slot[0] += 1);
        assert!(out.iter().all(|&c| c == 1));
    }

    #[test]
    fn ragged_final_slot_is_shorter() {
        let mut out = vec![0usize; 10];
        Pool::new(3).run_slots(
            &mut out,
            4,
            || (),
            |i, slot, _| {
                for v in slot.iter_mut() {
                    *v = i + 1;
                }
            },
        );
        assert_eq!(out, vec![1, 1, 1, 1, 2, 2, 2, 2, 3, 3]);
    }

    #[test]
    fn scratches_come_back_one_per_worker() {
        let mut out = vec![0.0f64; 64];
        let scratches = Pool::new(4).run_slots(&mut out, 1, || 0usize, |_, _, c| *c += 1);
        assert_eq!(scratches.len(), 4);
        assert_eq!(scratches.iter().sum::<usize>(), 64);
        // Serial: exactly one scratch.
        let scratches = Pool::serial().run_slots(&mut out, 1, || 0usize, |_, _, c| *c += 1);
        assert_eq!(scratches.len(), 1);
        assert_eq!(scratches[0], 64);
    }

    #[test]
    fn calling_thread_is_worker_zero() {
        use std::thread;
        use std::time::Duration;
        let caller = thread::current().id();
        let mut ran_on = vec![None; 24];
        let scratches = Pool::new(3).run_slots(
            &mut ran_on,
            1,
            || (thread::current().id(), 0usize),
            |_, slot, (_, count)| {
                // Slow enough slots that no worker drains the range alone.
                thread::sleep(Duration::from_millis(1));
                slot[0] = Some(thread::current().id());
                *count += 1;
            },
        );
        assert!(
            ran_on.contains(&Some(caller)),
            "no slot ran on the calling thread"
        );
        assert_eq!(scratches.len(), 3, "one scratch per worker");
        assert_eq!(scratches[0].0, caller, "the caller's scratch comes first");
        assert!(scratches[1..].iter().all(|(id, _)| *id != caller));
        assert_eq!(scratches.iter().map(|(_, c)| c).sum::<usize>(), 24);
    }

    #[test]
    fn error_is_the_lowest_failing_index_at_any_thread_count() {
        let run = |threads: usize| -> Result<Vec<()>, usize> {
            let mut out = vec![0u8; 500];
            Pool::new(threads).try_run_slots(
                &mut out,
                1,
                || (),
                |i, _, _| {
                    if i % 37 == 5 {
                        Err(i)
                    } else {
                        Ok(())
                    }
                },
            )
        };
        for threads in [1, 2, 4, 8] {
            assert_eq!(run(threads), Err(5), "{threads} workers");
        }
    }

    #[test]
    fn empty_output_is_a_noop() {
        let mut out: Vec<f64> = Vec::new();
        let scratches = Pool::new(4).run_slots(&mut out, 3, || (), |_, _, _| unreachable!());
        assert!(scratches.is_empty());
    }

    #[test]
    #[should_panic(expected = "slot_len must be positive")]
    fn zero_slot_len_panics() {
        let mut out = vec![0.0f64; 4];
        Pool::serial().run_slots(&mut out, 0, || (), |_, _, _| ());
    }

    #[test]
    fn workers_clamp_to_slots() {
        assert_eq!(Pool::new(16).workers_for(3), 3);
        assert_eq!(Pool::new(2).workers_for(100), 2);
        assert!(Pool::auto().workers_for(100) >= 1);
        assert_eq!(Pool::new(16).workers_for(0), 1);
    }
}
