//! A minimal scoped worker pool for embarrassingly parallel sweeps.
//!
//! The figure sweeps of the evaluation (`bench`) are grids of *independent*
//! cycle-accurate simulations — each grid point owns its simulator, its
//! traffic source and its derived seed, and no state is shared between
//! points. That makes them trivially parallel, but the build environment has
//! no access to crates.io (so no rayon); this module is the hand-rolled
//! substitute: [`scope_map`] fans an index range out over
//! [`std::thread::scope`] workers pulling from an atomic work counter and
//! collects the results **ordered by index**, so parallel execution is
//! observationally identical to a serial loop.
//!
//! ```
//! use simkit::pool::scope_map;
//!
//! let squares = scope_map(4, 8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The machine's available parallelism (1 when it cannot be determined) —
/// the default worker count for sweeps that don't specify one.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Evaluates `f(0)`, `f(1)`, …, `f(n - 1)` across at most `jobs` worker
/// threads and returns the results in index order.
///
/// Work is distributed dynamically (an atomic next-index counter), so
/// uneven per-point cost — e.g. low-load simulation points finishing far
/// faster than saturated ones — does not idle workers. With `jobs <= 1`
/// (or `n <= 1`) the closure runs on the calling thread with no
/// synchronization at all; the output is identical either way, which is
/// what lets the `bench` sweeps promise bit-identical figures for any
/// `--jobs` value.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope unwinds once all workers exit).
pub fn scope_map<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.max(1).min(n.max(1));
    if jobs == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(i);
                *slots[i].lock().expect("slot lock never poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock never poisoned")
                .expect("every index was claimed by exactly one worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_index_ordered() {
        for jobs in [1, 2, 3, 8, 64] {
            let out = scope_map(jobs, 100, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        // Same float pipeline serial and parallel: bit-identical results.
        let work = |i: usize| (i as f64 + 0.25).sqrt() * 1.0e9;
        let serial = scope_map(1, 37, work);
        let parallel = scope_map(5, 37, work);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn zero_and_oversubscribed_jobs_are_clamped() {
        assert_eq!(scope_map(0, 3, |i| i), vec![0, 1, 2]);
        assert_eq!(scope_map(100, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn empty_range_yields_empty_vec() {
        let out: Vec<usize> = scope_map(4, 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn every_index_runs_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let out = scope_map(7, 1000, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            scope_map(2, 4, |i| {
                assert!(i != 2, "boom");
                i
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn one_job_runs_on_the_calling_thread() {
        // A serial sweep (`--jobs 1`) spawns no threads at all; more jobs
        // run every point on scoped workers.
        let caller = std::thread::current().id();
        let ids = scope_map(1, 4, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
        let ids = scope_map(2, 4, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id != caller));
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
