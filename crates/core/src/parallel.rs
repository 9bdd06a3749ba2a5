//! The `--workers` fan-out helpers.
//!
//! The harness runs a study's benchmark × technique units on a pool of
//! workers; each unit is an independent, deterministic exploration, and
//! results come back in index order, so the study output is identical at any
//! worker count. This is one of the repository's two parallel mechanisms;
//! the other splits one systematic search across work-stealing threads (see
//! [`crate::steal`]).

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Number of workers to use when the caller does not specify one.
pub fn default_workers() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Evaluate `f(0..n)` on up to `workers` threads and return the results in
/// index order. Work is claimed dynamically (an atomic index dispenser), so
/// uneven item costs balance across the pool, while the output stays
/// deterministic: slot `i` always holds `f(i)`.
pub fn map_indexed<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1).min(n.max(1));
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker pool left a slot unfilled")
        })
        .collect()
}
