//! Parallel trial executor for the figure/table experiments.
//!
//! Every experiment in this crate is a map over independent, deterministic
//! work items: trials differing only in their seed, sweep points differing
//! only in their parameters. This module fans those maps out over
//! `std::thread::scope` worker threads (no external dependencies) while
//! guaranteeing the three properties the harness relies on:
//!
//! 1. **Deterministic seeding** — the closure receives the item *index*;
//!    every seed is derived from it exactly as the sequential loop did, so
//!    results do not depend on which worker ran the item.
//! 2. **Ordered collection** — results come back in item order, whatever
//!    the completion order was.
//! 3. **Bit-identical fallback** — with one worker (or one item) the
//!    executor degenerates to the plain sequential loop; for deterministic
//!    experiments the outputs are byte-identical at any worker count (see
//!    `tests/parallel_determinism.rs`).
//!
//! Worker count defaults to the machine's available parallelism and is
//! overridable with the `CHM_THREADS` environment variable (`CHM_THREADS=1`
//! forces the sequential path).
//!
//! Each worker runs with its spawner's cores divided among the workers
//! ([`chm_netsim::core_share`]): a trial that builds a `ChameleMon` sizes
//! the deployment's replay engine from that share, so inside a pool that
//! fills the machine every trial replays on a one-shard engine on its own
//! thread, and no trial's engine threads compete with its sibling trials
//! for the same cores.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Worker-thread count: `CHM_THREADS` if set, else available parallelism.
///
/// `CHM_THREADS=0` clamps to one worker (the sequential path); non-numeric
/// values abort with a clear message instead of silently falling back to
/// the machine default — a typo'd `CHM_THREADS=fulL` must not quietly
/// change how many cores a benchmark burns.
pub fn threads() -> usize {
    match threads_from(std::env::var("CHM_THREADS").ok().as_deref()) {
        Ok(n) => n,
        Err(e) => panic!("{e}"),
    }
}

/// [`threads`] with the environment lookup factored out so the parsing
/// rules are unit-testable without racing on the process environment.
///
/// `None` (unset) and whitespace-only values take the machine default;
/// numeric values are clamped to ≥ 1; anything else is an error naming the
/// offending value.
pub fn threads_from(var: Option<&str>) -> Result<usize, String> {
    let available = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    match var {
        None => Ok(available()),
        Some(s) if s.trim().is_empty() => Ok(available()),
        Some(s) => s
            .trim()
            .parse::<usize>()
            .map(|n| n.max(1))
            .map_err(|_| format!("CHM_THREADS must be a non-negative integer, got {s:?}")),
    }
}

/// Maps `f` over `0..n` with the default worker count (see [`threads`]),
/// returning results in index order.
///
/// `f` must be deterministic in its index argument — derive any randomness
/// from a seed computed from the index, never from shared state.
pub fn run_trials<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_trials_with(threads(), n, f)
}

/// Maps `f` over `0..n` on exactly `workers` threads, returning results in
/// index order: the never-failing case of the one work-stealing loop.
pub fn run_trials_with<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    try_map(workers, n, |i| Some(f(i))).expect("an infallible item cannot fail")
}

/// All-or-nothing map: `f` returns `Some(result)` on success and `None` on
/// failure; the whole call returns `Some(results)` in index order iff every
/// item succeeded.
///
/// The first failure raises a flag that makes the remaining workers stop
/// picking up new items, mirroring the sequential loop's early exit — a
/// memory-search probe below the decodable threshold fails fast instead of
/// burning the full trial budget. The outcome (`Some`/`None`) is identical
/// to the sequential loop's: items are deterministic, so a failing set
/// fails regardless of how many items were attempted.
pub fn run_trials_all<T, F>(n: usize, f: F) -> Option<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Option<T> + Sync,
{
    try_map(threads(), n, f)
}

/// The work-stealing loop behind every map in this module: `workers`
/// threads pull indices off one counter until it runs out or an item fails.
/// `workers <= 1` runs inline with no thread machinery.
fn try_map<T, F>(workers: usize, n: usize, f: F) -> Option<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Option<T> + Sync,
{
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let (f, next, failed) = (&f, &next, &failed);
    let spawned = workers.min(n);
    let share = (chm_netsim::core_share() / spawned).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..spawned)
            .map(|_| {
                s.spawn(move || {
                    chm_netsim::with_core_share(share, || {
                        let mut local = Vec::new();
                        while !failed.load(Ordering::Relaxed) {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            match f(i) {
                                Some(v) => local.push((i, v)),
                                None => failed.store(true, Ordering::Relaxed),
                            }
                        }
                        local
                    })
                })
            })
            .collect();
        for h in handles {
            for (i, v) in h.join().expect("trial worker panicked") {
                out[i] = Some(v);
            }
        }
    });
    // A failed run leaves a hole at the failing item; a clean one has none.
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let f = |i: usize| {
            // A deterministic, seed-derived payload.
            let mut acc = chm_common::mix64(i as u64);
            for _ in 0..100 {
                acc = chm_common::mix64(acc);
            }
            (i, acc)
        };
        let seq = run_trials_with(1, 64, f);
        for workers in [2, 3, 8] {
            assert_eq!(run_trials_with(workers, 64, f), seq, "workers={workers}");
        }
        assert_eq!(run_trials(64, f), seq);
    }

    #[test]
    fn workers_split_the_spawners_core_share() {
        let share_of = |cores, workers, n| {
            chm_netsim::with_core_share(cores, || {
                run_trials_with(workers, n, |_| chm_netsim::core_share())
            })
        };
        assert_eq!(share_of(4, 2, 2), vec![2, 2]);
        assert_eq!(share_of(2, 3, 3), vec![1, 1, 1], "a worker keeps one core");
        assert_eq!(share_of(4, 1, 3), vec![4, 4, 4], "inline: the caller's");
    }

    #[test]
    fn results_are_index_ordered() {
        let out = run_trials_with(4, 100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_item_work() {
        assert_eq!(run_trials_with(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_trials_with(8, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn all_or_nothing_detects_failure() {
        assert_eq!(
            run_trials_all(20, |i| (i != 13).then_some(i)),
            None::<Vec<usize>>
        );
        assert_eq!(
            run_trials_all(20, Some),
            Some((0..20).collect::<Vec<_>>())
        );
    }

    #[test]
    fn threads_is_positive() {
        assert!(threads() >= 1);
    }

    #[test]
    fn threads_from_unset_uses_machine_default() {
        assert!(threads_from(None).expect("unset is valid") >= 1);
        assert!(threads_from(Some("")).expect("empty is valid") >= 1);
        assert!(threads_from(Some("  ")).expect("whitespace is valid") >= 1);
    }

    #[test]
    fn threads_from_zero_clamps_to_one() {
        assert_eq!(threads_from(Some("0")), Ok(1));
    }

    #[test]
    fn threads_from_parses_positive_counts() {
        assert_eq!(threads_from(Some("1")), Ok(1));
        assert_eq!(threads_from(Some("8")), Ok(8));
        assert_eq!(threads_from(Some(" 4 ")), Ok(4));
    }

    #[test]
    fn threads_from_rejects_garbage_with_clear_error() {
        for bad in ["full", "-2", "3.5", "1e3"] {
            let err = threads_from(Some(bad)).expect_err("garbage must not fall back");
            assert!(err.contains("CHM_THREADS"), "error names the variable: {err}");
            assert!(err.contains(bad), "error names the offending value: {err}");
        }
    }
}
