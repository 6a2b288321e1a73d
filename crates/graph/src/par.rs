//! The one data-parallel primitive of the workspace.
//!
//! Every phase of Algorithm 1 (twin keys, the 1-cut and 2-cut sweeps,
//! the domination masks, the residual solves) and both LOCAL engines
//! (the oracle's views, the message-passing rounds) are per-item
//! computations over an index range `0..items`. This module decides, in
//! one place, how such a range is split across scoped worker threads:
//!
//! * [`fill`] — write `out[i] = f(i)` over contiguous, equal ranges;
//! * [`fold`] — fold contiguous, equal ranges into one accumulator per
//!   worker, combined by the caller's merge;
//! * [`fold_mut`] — the same fold, with each worker also updating its
//!   range of a slice in place (the other two are built on it);
//! * [`drain`] — workers claim items off a shared counter (for items of
//!   uneven cost); the results come back in item order.
//!
//! Each primitive builds one state per worker with its `init` closure,
//! on that worker's thread (so thread-local pools warmed there are the
//! worker's own). The caller's thread is always the first worker, so
//! `k` workers spawn `k − 1` threads and one worker spawns nothing:
//! `init` and the loop run inline on the caller's thread, whose
//! thread-local scratch, cut-engine and exact-engine pools therefore
//! stay warm across the many small calls of the LOCAL deciders (and the
//! per-round phases of message passing pay one spawn fewer). A worker
//! panic is re-raised on the caller with its original payload.
//!
//! [`workers`] is the automatic policy: the machine's parallelism capped
//! at 8, and a single worker below the caller's grain
//! ([`BALL_GRAIN`] for per-item ball or exact work, [`SWEEP_GRAIN`] for
//! O(degree) sweeps), where spawning costs more than the work. Tests pin
//! the count with [`with_workers`].

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Grain for items that each cost a ball traversal or an exact solve.
pub const BALL_GRAIN: usize = 640;

/// Grain for O(degree)-per-item sweeps over a whole graph.
pub const SWEEP_GRAIN: usize = 1 << 14;

/// Upper bound on automatic worker counts: the sweeps are memory-bound
/// well before this many threads.
const MAX_WORKERS: usize = 8;

thread_local! {
    static FORCED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The worker count for `items` units of work at `grain`: 1 below the
/// grain, otherwise `available_parallelism` capped at 8.
/// Inside [`with_workers`] on the same thread, the forced count instead.
pub fn workers(items: usize, grain: usize) -> usize {
    if let Some(forced) = FORCED.with(Cell::get) {
        return forced;
    }
    if items < grain {
        return 1;
    }
    std::thread::available_parallelism().map_or(1, |c| c.get()).min(MAX_WORKERS)
}

/// Runs `f` with [`workers`] returning `count` (≥ 1) on this thread,
/// whatever the item count and grain, and restores the previous setting
/// afterwards (also on panic). Spawned workers do not inherit it, so
/// nested phases keep the automatic policy. This exists for tests: it
/// drives the multi-worker paths on inputs and machines where the
/// automatic policy would pick one worker.
pub fn with_workers<R>(count: usize, f: impl FnOnce() -> R) -> R {
    with_forced(Some(count.max(1)), f)
}

/// Runs `f` with the override set to `forced`, restoring the previous
/// setting afterwards (also on panic).
fn with_forced<R>(forced: Option<usize>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(FORCED.with(|c| c.replace(forced)));
    f()
}

/// Sets `out[i] = f(&mut state, i)` for every index, splitting `out`
/// into at most `workers` contiguous, equal ranges.
pub fn fill<T, S>(
    out: &mut [T],
    workers: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
) where
    T: Send,
    S: Send,
{
    fold_mut(out, workers, init, |state, i, slot| *slot = f(state, i), |a, _| a);
}

/// Folds every index of `0..items` into a per-worker accumulator built
/// by `init`, over at most `workers` contiguous, equal ranges, then
/// combines the accumulators left to right with `merge` (never called
/// with one worker).
pub fn fold<A>(
    items: usize,
    workers: usize,
    init: impl Fn() -> A + Sync,
    f: impl Fn(&mut A, usize) + Sync,
    merge: impl FnMut(A, A) -> A,
) -> A
where
    A: Send,
{
    // A slice of unit values allocates nothing: the ranges are all it
    // carries.
    fold_mut(&mut vec![(); items], workers, init, |acc, i, _| f(acc, i), merge)
}

/// The in-place form of [`fill`] and [`fold`]: calls
/// `f(&mut acc, i, &mut items[i])` for every index, over at most
/// `workers` contiguous, equal ranges of `items`, each with its own
/// accumulator built by `init`, then combines the accumulators left to
/// right with `merge` (never called with one worker). Each item is
/// updated by exactly one worker, so `f` may read and rewrite it freely.
pub fn fold_mut<T, A>(
    items: &mut [T],
    workers: usize,
    init: impl Fn() -> A + Sync,
    f: impl Fn(&mut A, usize, &mut T) + Sync,
    merge: impl FnMut(A, A) -> A,
) -> A
where
    T: Send,
    A: Send,
{
    let chunk = chunk_len(items.len(), workers);
    let run = |lo: usize, part: &mut [T]| {
        let mut acc = init();
        for (j, item) in part.iter_mut().enumerate() {
            f(&mut acc, lo + j, item);
        }
        acc
    };
    if chunk >= items.len() {
        return run(0, items);
    }
    let run = &run;
    run_all(items.chunks_mut(chunk).enumerate().map(|(ci, part)| move || run(ci * chunk, part)))
        .into_iter()
        .reduce(merge)
        .expect("at least two ranges")
}

/// Computes `f(&mut state, i)` for every index of `0..items` on at most
/// `workers` workers that claim items one at a time off a shared
/// counter, so uneven item costs balance out. Results are in item
/// order, whatever the schedule.
pub fn drain<R, S>(
    items: usize,
    workers: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<R>
where
    R: Send,
{
    let workers = workers.clamp(1, items.max(1));
    if workers == 1 {
        let mut state = init();
        return (0..items).map(|i| f(&mut state, i)).collect();
    }
    // The counter only hands out indices; results travel back through
    // the join, which synchronizes, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut state = init();
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items {
                return mine;
            }
            mine.push((i, f(&mut state, i)));
        }
    };
    let mut slots: Vec<Option<R>> = (0..items).map(|_| None).collect();
    for (i, r) in run_all((0..workers).map(|_| &worker)).into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots.into_iter().map(|r| r.expect("every item is claimed exactly once")).collect()
}

/// The range length giving at most `workers` contiguous, equal ranges
/// over `items` (`≥ items` means one range: run inline).
fn chunk_len(items: usize, workers: usize) -> usize {
    items.div_ceil(workers.max(1)).max(1)
}

/// Runs the first job on the caller's thread and every other job on its
/// own scoped thread, and returns their results in job order, re-raising
/// the first panic in job order with its payload. The first job runs
/// without the caller's [`with_workers`] override, as if spawned, so
/// nested phases keep the automatic policy on every worker.
fn run_all<R: Send>(mut jobs: impl Iterator<Item = impl FnOnce() -> R + Send>) -> Vec<R> {
    let Some(first) = jobs.next() else { return Vec::new() };
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs.map(|job| scope.spawn(job)).collect();
        let mut out = vec![with_forced(None, first)];
        out.extend(
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload))),
        );
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

    fn here() -> ThreadId {
        std::thread::current().id()
    }

    #[test]
    fn empty_input() {
        let mut out: Vec<usize> = Vec::new();
        for w in [1, 4] {
            fill(&mut out, w, || (), |_, i| i);
            assert!(out.is_empty());
            assert_eq!(fold(0, w, || 5usize, |a, i| *a += i, |a, b| a + b), 5);
            assert!(drain(0, w, || (), |_, i| i).is_empty());
        }
    }

    #[test]
    fn more_workers_than_items() {
        let mut out = vec![0usize; 3];
        fill(&mut out, 7, || (), |_, i| i * 10);
        assert_eq!(out, [0, 10, 20]);
        assert_eq!(fold_ranges(3, 7), [vec![0], vec![1], vec![2]]);
        assert_eq!(drain(3, 7, || (), |_, i| i + 1), [1, 2, 3]);
    }

    /// The index ranges [`fold`] hands its workers, one list per worker.
    fn fold_ranges(items: usize, workers: usize) -> Vec<Vec<usize>> {
        fold(
            items,
            workers,
            || vec![Vec::new()],
            |acc: &mut Vec<Vec<usize>>, i| acc[0].push(i),
            |mut a, b| {
                a.extend(b);
                a
            },
        )
    }

    #[test]
    fn fold_mut_updates_in_place_and_merges_in_order() {
        for w in [1, 2, 3, 8] {
            let mut items: Vec<usize> = (0..10).collect();
            let seen = fold_mut(
                &mut items,
                w,
                Vec::new,
                |acc: &mut Vec<usize>, i, item| {
                    assert_eq!(*item, i);
                    *item *= 3;
                    acc.push(i);
                },
                |mut a, b| {
                    a.extend(b);
                    a
                },
            );
            assert_eq!(items, (0..10).map(|i| i * 3).collect::<Vec<_>>(), "workers={w}");
            assert_eq!(seen, (0..10).collect::<Vec<_>>(), "workers={w}");
        }
    }

    #[test]
    fn ranges_are_contiguous_and_equal() {
        assert_eq!(fold_ranges(10, 3), [vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]]);
    }

    #[test]
    fn the_caller_runs_the_first_range() {
        let caller = here();
        let mut out = vec![None; 4];
        fill(&mut out, 2, || (), |_, _| Some(here()));
        assert_eq!(out[0], Some(caller));
        assert_ne!(out[3], Some(caller));
    }

    #[test]
    fn one_worker_runs_on_the_callers_thread() {
        let caller = here();
        let mut out = vec![None; 5];
        fill(&mut out, 1, here, |init_on, _| Some((*init_on, here())));
        assert!(out.iter().all(|&t| t == Some((caller, caller))));
        let seen = fold(5, 1, || vec![here()], |a, _| a.push(here()), |_, _| unreachable!());
        assert!(seen.iter().all(|&t| t == caller));
        assert!(drain(5, 1, here, |init_on, _| (*init_on, here()))
            .iter()
            .all(|&t| t == (caller, caller)));
    }

    #[test]
    fn drain_returns_item_order_under_any_schedule() {
        for w in [2, 3, 8] {
            // Uneven costs shuffle which worker finishes what first.
            let out = drain(
                200,
                w,
                || (),
                |_, i| {
                    if i % 7 == 0 {
                        std::thread::yield_now();
                    }
                    i * i
                },
            );
            assert_eq!(out, (0..200).map(|i| i * i).collect::<Vec<_>>(), "workers={w}");
        }
    }

    #[test]
    fn worker_panics_reach_the_caller() {
        let payload = |r: std::thread::Result<()>| {
            *r.expect_err("the panic must surface").downcast::<&str>().expect("original payload")
        };
        let mut out = vec![0usize; 64];
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fill(&mut out, 4, || (), |_, i| if i == 40 { panic!("fill boom") } else { i })
        }));
        assert_eq!(payload(r), "fill boom");
        let r = std::panic::catch_unwind(|| {
            fold(64, 4, || (), |_, i| assert!(i != 3, "fold boom"), |_, _| ());
        });
        assert!(r.is_err());
        let r = std::panic::catch_unwind(|| {
            drain(64, 4, || (), |_, i| if i == 63 { panic!("drain boom") } else { i });
        });
        assert_eq!(payload(r), "drain boom");
    }

    #[test]
    fn forced_workers_are_scoped_and_bypass_the_grain() {
        assert_eq!(workers(10, SWEEP_GRAIN), 1);
        let inner = with_workers(4, || {
            let nested = with_workers(7, || workers(0, usize::MAX));
            (workers(1, SWEEP_GRAIN), nested)
        });
        assert_eq!(inner, (4, 7));
        assert_eq!(workers(10, SWEEP_GRAIN), 1, "override restored");
        let restored = std::panic::catch_unwind(|| with_workers(3, || panic!("inside")));
        assert!(restored.is_err());
        assert_eq!(workers(10, SWEEP_GRAIN), 1, "override restored after a panic");
        let auto = workers(BALL_GRAIN, BALL_GRAIN);
        assert!((1..=MAX_WORKERS).contains(&auto));
        // Every range, the one the caller runs itself included, sees the
        // automatic policy; the caller's override survives the call.
        let mut nested = vec![0usize; 6];
        with_workers(3, || {
            fill(&mut nested, workers(6, usize::MAX), || (), |_, _| workers(0, usize::MAX));
            assert_eq!(workers(0, usize::MAX), 3);
        });
        assert_eq!(nested, [1; 6]);
    }
}
