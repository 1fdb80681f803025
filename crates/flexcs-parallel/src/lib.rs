//! # flexcs-parallel
//!
//! Deterministic parallel map primitives for the flexcs recovery
//! pipeline, built only on `std::thread::scope` — no external runtime.
//!
//! The pipeline's fan-out points (resample-median rounds, batch frames,
//! per-frame RPCA) all share one shape: `count` independent jobs, each
//! fully determined by its index (the caller derives a per-index RNG
//! seed), whose results must come back **in index order** so parallel
//! execution is bit-identical to the serial loop. [`par_map_indices`]
//! provides exactly that contract: work is distributed dynamically over
//! a small thread pool, but results are reassembled by index, so the
//! output is independent of scheduling. It is built on
//! [`par_for_each_ordered_with`], which hands each result to a sink in
//! index order as soon as it is due, so a fan-out that folds its
//! results away (the megapixel block decode) never holds them all.
//!
//! [`Pool`] is the one bounded, blocking workspace pool the fan-outs
//! draw their per-job scratch arenas from.
//!
//! ## Example
//!
//! ```
//! let squares = flexcs_parallel::par_map_indices(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;
mod tel;

pub use pool::{Pool, Pooled};

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};

/// Number of worker threads used by the `par_map_indices` family: the
/// `FLEXCS_THREADS` environment override when set to a positive
/// integer, otherwise the machine's available parallelism (or 1 when
/// that cannot be determined).
///
/// The override pins the pool size for reproducible scheduler
/// benchmarks and CI determinism — e.g. `FLEXCS_THREADS=2` makes a
/// run on a 64-core builder schedule exactly like a 2-core target.
/// Unparsable or zero values are ignored in favour of the detected
/// count.
///
/// The env read and OS query are made once and cached in a
/// [`OnceLock`] — the fan-out points sit inside per-frame decode
/// loops, and `available_parallelism` is a syscall on most platforms.
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let detected = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        resolve_threads(std::env::var("FLEXCS_THREADS").ok().as_deref(), detected)
    })
}

/// Applies the `FLEXCS_THREADS` override to the detected thread count.
/// Pure so the policy is unit-testable despite the [`OnceLock`] cache.
fn resolve_threads(env_override: Option<&str>, detected: usize) -> usize {
    match env_override.and_then(|s| s.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => detected,
    }
}

/// Maps `f` over `0..count` on a scoped thread pool, returning results
/// in index order.
///
/// Equivalent to `(0..count).map(f).collect()` whenever `f` is a pure
/// function of its index: job scheduling is dynamic, but reassembly is
/// by index, so the output vector is deterministic. Falls back to the
/// serial loop when `count < 2` or only one hardware thread is
/// available.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`.
pub fn par_map_indices<R, F>(count: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_indices_with(default_threads(), count, f)
}

/// [`par_map_indices`] with an explicit worker-thread cap.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`.
pub fn par_map_indices_with<R, F>(threads: usize, count: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut out = Vec::with_capacity(count);
    par_for_each_ordered_with(threads, count, f, |r| out.push(r));
    out
}

/// Maps `f` over `0..count` on a scoped thread pool and hands each
/// result to `sink` on the calling thread, in index order, as soon as
/// every lower index has arrived.
///
/// Only results that finish ahead of a slower lower index are held, so
/// a caller that folds each result away (rather than collecting them)
/// keeps a working set of a few results, not `count`. The sink sees
/// exactly the sequence `(0..count).map(f)`, whatever the scheduling.
/// Falls back to the serial loop when `count < 2` or `threads == 1`.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f` or `sink`.
pub fn par_for_each_ordered_with<R, F, S>(threads: usize, count: usize, f: F, mut sink: S)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    S: FnMut(R),
{
    if count == 0 {
        return;
    }
    let threads = threads.min(count).max(1);
    if threads == 1 {
        tel::counter("parallel.serial_fallbacks", 1);
        (0..count).map(f).for_each(sink);
        return;
    }
    // Per-worker job tallies feed the load-balance telemetry; with
    // telemetry disabled the tracking (and its bookkeeping) is compiled
    // out.
    let track = tel::enabled();
    let worker_tasks: Vec<AtomicUsize> = if track {
        (0..threads).map(|_| AtomicUsize::new(0)).collect()
    } else {
        Vec::new()
    };
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for w in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            let worker_tasks = &worker_tasks;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                if track {
                    worker_tasks[w].fetch_add(1, Ordering::Relaxed);
                }
                let r = f(i);
                if tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Results that arrived ahead of a lower index wait here; slot k
        // holds index `due + k`. If a worker dies mid-job the channel
        // closes early and the scope exit re-raises its panic.
        let mut ahead: VecDeque<Option<R>> = VecDeque::new();
        let mut due = 0;
        for (i, r) in rx {
            let k = i - due;
            if ahead.len() <= k {
                ahead.resize_with(k + 1, || None);
            }
            ahead[k] = Some(r);
            while let Some(slot) = ahead.front_mut() {
                let Some(r) = slot.take() else { break };
                ahead.pop_front();
                sink(r);
                due += 1;
            }
        }
    });
    if track {
        let counts: Vec<u64> = worker_tasks
            .iter()
            .map(|c| c.load(Ordering::Relaxed) as u64)
            .collect();
        tel::counter("parallel.fanouts", 1);
        tel::counter("parallel.jobs", count as u64);
        for &c in &counts {
            tel::histogram("parallel.worker_tasks", c as f64);
        }
        // Imbalance = busiest worker / ideal share (1.0 = perfect).
        let max = counts.iter().copied().max().unwrap_or(0) as f64;
        let mean = count as f64 / threads as f64;
        if mean > 0.0 {
            tel::histogram("parallel.imbalance", max / mean);
        }
    }
}

/// Fallible [`par_map_indices_with`]: maps `f` over `0..count` on a
/// scoped thread pool and returns all results in index order, or the
/// error of the **lowest-index** failing job.
///
/// Every job still runs (workers are not cancelled mid-sweep), so the
/// returned error is deterministic — independent of scheduling and
/// thread count — which lets Monte-Carlo sweeps report the same
/// failing sample whether they run serially or on a full pool.
///
/// # Errors
///
/// Returns the error produced by the smallest failing index.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`.
pub fn try_par_map_indices_with<R, E, F>(
    threads: usize,
    count: usize,
    f: F,
) -> std::result::Result<Vec<R>, E>
where
    R: Send,
    E: Send,
    F: Fn(usize) -> std::result::Result<R, E> + Sync,
{
    let results = par_map_indices_with(threads, count, f);
    let mut out = Vec::with_capacity(count);
    for r in results {
        out.push(r?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        let out: Vec<i32> = par_map_indices(0, |_| unreachable!());
        assert!(out.is_empty());
        let none: Vec<i32> = par_map_indices_with(4, 0, |_| unreachable!());
        assert!(none.is_empty());
    }

    #[test]
    fn results_are_in_index_order() {
        // Force a real pool: on single-core hosts the default would
        // silently take the serial fallback.
        let out = par_map_indices_with(8, 257, |i| i * 3 + 1);
        assert_eq!(out, (0..257).map(|i| i * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn matches_serial_map_on_slices() {
        let items: Vec<f64> = (0..100).map(|i| i as f64 * 0.37).collect();
        let par = par_map_indices_with(4, items.len(), |i| items[i].sin() * 2.0);
        let ser: Vec<f64> = items.iter().map(|x| x.sin() * 2.0).collect();
        assert_eq!(par, ser, "bit-identical to the serial loop");
    }

    #[test]
    fn single_thread_cap_runs_serially() {
        let out = par_map_indices_with(1, 10, |i| i + 5);
        assert_eq!(out, (5..15).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_jobs() {
        let out = par_map_indices_with(64, 3, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn uneven_work_is_still_ordered() {
        // Later indices finish first; reassembly must stay by index.
        let out = par_map_indices(16, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * i
        });
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn ordered_sink_sees_index_order_under_uneven_work() {
        for threads in [1, 4] {
            let mut seen = Vec::new();
            par_for_each_ordered_with(
                threads,
                40,
                |i| {
                    if i % 7 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    i * 2
                },
                |r| seen.push(r),
            );
            assert_eq!(seen, (0..40).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn env_override_wins_when_valid() {
        assert_eq!(resolve_threads(Some("4"), 16), 4);
        assert_eq!(resolve_threads(Some(" 2 "), 16), 2);
        assert_eq!(resolve_threads(Some("1"), 16), 1);
    }

    #[test]
    fn invalid_or_missing_override_falls_back_to_detected() {
        assert_eq!(resolve_threads(None, 8), 8);
        assert_eq!(resolve_threads(Some("0"), 8), 8);
        assert_eq!(resolve_threads(Some("-3"), 8), 8);
        assert_eq!(resolve_threads(Some("lots"), 8), 8);
        assert_eq!(resolve_threads(Some(""), 8), 8);
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            par_map_indices(8, |i| {
                if i == 5 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(r.is_err());
    }
}
