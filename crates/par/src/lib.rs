#![warn(missing_docs)]
//! # bmbe-par
//!
//! Minimal data parallelism on `std::thread::scope`, used by the back-end
//! flow to fan synthesis jobs out across cores. The workspace builds with
//! no network access, so `rayon` is unavailable; this crate provides the
//! primitives the flow needs — an order-preserving indexed parallel map
//! with a shared work counter, and a panic-isolating variant
//! ([`par_try_map`]) that converts each worker panic into a per-item
//! [`JobError`] instead of unwinding the whole fan-out — without external
//! dependencies.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Number of worker threads to use by default: the `BMBE_THREADS`
/// environment variable when set, otherwise
/// [`std::thread::available_parallelism`] (1 when unknown).
///
/// The accepted range for `BMBE_THREADS` is a positive integer (`1..`);
/// anything else — `0`, a non-number, or an out-of-range value — is
/// rejected, falls back to the auto-detected parallelism, and emits a
/// one-time warning on stderr naming the fallback (so a typo in a CI
/// environment never silently serializes or explodes a run).
pub fn default_threads() -> usize {
    let auto = || std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Ok(v) = std::env::var("BMBE_THREADS") {
        match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => return n,
            _ => {
                static WARNED: OnceLock<()> = OnceLock::new();
                WARNED.get_or_init(|| {
                    bmbe_obs::vlog!(
                        0,
                        "bmbe-par: ignoring invalid BMBE_THREADS={v:?} (expected a positive \
                         integer); falling back to available parallelism ({})",
                        auto()
                    );
                });
            }
        }
    }
    auto()
}

/// One fan-out item's failure: the worker running it panicked. The payload
/// is the stringified panic message; `label` is whatever the caller chose
/// to identify the item by (often empty — the caller usually has richer
/// context keyed by `index`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// Index of the failed item in the input slice.
    pub index: usize,
    /// Caller-supplied item label (may be empty).
    pub label: String,
    /// The panic payload, stringified (`&str`/`String` payloads verbatim,
    /// anything else a placeholder).
    pub payload: String,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.label.is_empty() {
            write!(f, "job {} panicked: {}", self.index, self.payload)
        } else {
            write!(
                f,
                "job {} ({}) panicked: {}",
                self.index, self.label, self.payload
            )
        }
    }
}

impl std::error::Error for JobError {}

/// Stringifies a panic payload (the `Box<dyn Any>` from `catch_unwind`).
fn payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

thread_local! {
    /// Non-zero while the current thread is inside a [`par_try_map`] item
    /// whose panic will be caught and reported as a [`JobError`]; the
    /// wrapped panic hook stays quiet for these so an isolated job failure
    /// does not spray backtrace noise over every sibling's output.
    static QUIET_PANICS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Installs (once, process-wide) a panic hook that suppresses the default
/// report for panics that [`par_try_map`] is about to catch and convert,
/// and delegates everything else to the previous hook unchanged.
fn install_quiet_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if QUIET_PANICS.with(|q| q.get()) == 0 {
                previous(info);
            }
        }));
    });
}

/// Runs `f`, catching a panic and counting the scope toward the quiet
/// panic hook.
fn run_caught<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    struct Quiet;
    impl Drop for Quiet {
        fn drop(&mut self) {
            QUIET_PANICS.with(|q| q.set(q.get() - 1));
        }
    }
    QUIET_PANICS.with(|q| q.set(q.get() + 1));
    let _guard = Quiet;
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(payload_to_string)
}

/// Runs `f` on the calling thread, converting a panic into
/// `Err(stringified payload)` instead of unwinding — the single-job
/// counterpart of [`par_try_map`], sharing its quiet panic hook (the
/// caught panic does not print the default report). Used by the flow to
/// isolate each shape synthesis, inside or outside a fan-out.
pub fn catch_job<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    install_quiet_hook();
    run_caught(f)
}

/// Applies `f` to every item, using up to `threads` worker threads, and
/// returns the results in item order. Items are handed out through a shared
/// atomic counter, so long jobs don't leave workers idle behind a static
/// partition. With `threads <= 1` (or one item) the map runs inline on the
/// caller's thread — the serial and parallel paths execute the same `f` in
/// a deterministic output order either way.
///
/// # Panics
///
/// Re-raises the first worker panic on the calling thread. Use
/// [`par_try_map`] when one item's failure must not take down the rest of
/// the fan-out.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.min(n).max(1);
    if workers == 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let mut buckets: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
    let worker = || {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return local;
            }
            local.push((i, f(i, &items[i])));
        }
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(&worker)).collect();
        for handle in handles {
            match handle.join() {
                Ok(local) => buckets.push(local),
                Err(payload) => panic::resume_unwind(payload),
            }
        }
    });
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in buckets.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index computed exactly once"))
        .collect()
}

/// Panic-isolating [`par_map`]: applies `f` to every item across up to
/// `threads` workers, catching each item's panic individually. A panicking
/// item yields `Err(JobError)` in its output slot — carrying the item
/// index, the caller's `label(index, item)`, and the stringified panic
/// payload — and every other item still runs to completion. Results come
/// back in item order, and the set of `Err` slots is identical whatever
/// the thread count, because failure is decided per item, not per worker.
///
/// While an item runs, the default panic report is suppressed on that
/// thread (the panic is *handled*, not fatal), so one poisoned job does
/// not spray a backtrace over the siblings' output; panics outside any
/// `par_try_map` item report exactly as before.
pub fn par_try_map<T, R, F, L>(
    items: &[T],
    threads: usize,
    label: L,
    f: F,
) -> Vec<Result<R, JobError>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    L: Fn(usize, &T) -> String + Sync,
{
    install_quiet_hook();
    let run_one = |i: usize, item: &T| {
        run_caught(|| f(i, item)).map_err(|payload| JobError {
            index: i,
            label: label(i, item),
            payload,
        })
    };
    let n = items.len();
    let workers = threads.min(n).max(1);
    if workers == 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| run_one(i, item))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let mut buckets: Vec<Vec<(usize, Result<R, JobError>)>> = Vec::with_capacity(workers);
    let worker = || {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return local;
            }
            local.push((i, run_one(i, &items[i])));
        }
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(&worker)).collect();
        for handle in handles {
            match handle.join() {
                Ok(local) => buckets.push(local),
                // `f` panics are caught inside the worker; reaching here
                // means the scaffolding itself failed — re-raise.
                Err(payload) => panic::resume_unwind(payload),
            }
        }
    });
    let mut slots: Vec<Option<Result<R, JobError>>> = (0..n).map(|_| None).collect();
    for (i, r) in buckets.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index computed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = par_map(&items, 8, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_path_matches_parallel() {
        let items: Vec<u64> = (0..100).collect();
        let serial = par_map(&items, 1, |_, &x| x * x);
        let parallel = par_map(&items, 4, |_, &x| x * x);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = par_map(&[] as &[u32], 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            par_map(&[1u32, 2, 3, 4], 2, |_, &x| {
                if x == 3 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn try_map_isolates_panics_and_completes_siblings() {
        let items: Vec<u32> = (0..64).collect();
        for threads in [1, 4] {
            let out = par_try_map(
                &items,
                threads,
                |_, &x| format!("item-{x}"),
                |_, &x| {
                    if x % 7 == 3 {
                        panic!("poisoned {x}");
                    }
                    x * 10
                },
            );
            assert_eq!(out.len(), items.len());
            for (i, slot) in out.iter().enumerate() {
                if i % 7 == 3 {
                    let e = slot.as_ref().expect_err("item must fail");
                    assert_eq!(e.index, i);
                    assert_eq!(e.label, format!("item-{i}"));
                    assert_eq!(e.payload, format!("poisoned {i}"));
                } else {
                    assert_eq!(*slot.as_ref().expect("item must succeed"), i as u32 * 10);
                }
            }
        }
    }

    #[test]
    fn try_map_failure_set_is_thread_count_independent() {
        let items: Vec<u32> = (0..32).collect();
        let failing = |out: &[Result<u32, JobError>]| -> Vec<usize> {
            out.iter()
                .enumerate()
                .filter_map(|(i, r)| r.is_err().then_some(i))
                .collect()
        };
        let serial = par_try_map(
            &items,
            1,
            |_, _| String::new(),
            |_, &x| {
                if x == 5 || x == 20 {
                    panic!("bad");
                }
                x
            },
        );
        let fanned = par_try_map(
            &items,
            4,
            |_, _| String::new(),
            |_, &x| {
                if x == 5 || x == 20 {
                    panic!("bad");
                }
                x
            },
        );
        assert_eq!(failing(&serial), failing(&fanned));
        assert_eq!(failing(&serial), vec![5, 20]);
    }

    #[test]
    fn try_map_non_string_payload_is_reported() {
        let out = par_try_map(
            &[0u8],
            1,
            |_, _| String::new(),
            |_, _| {
                std::panic::panic_any(42i32);
            },
        );
        assert_eq!(
            out[0].as_ref().unwrap_err().payload,
            "non-string panic payload"
        );
    }

    #[test]
    fn panics_outside_try_map_still_report() {
        // The quiet hook must only silence panics par_try_map catches.
        install_quiet_hook();
        let caught = std::panic::catch_unwind(|| panic!("visible"));
        assert!(caught.is_err());
    }
}
