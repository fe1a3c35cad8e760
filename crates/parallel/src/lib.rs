//! Deterministic order-preserving parallel map on scoped threads.
//!
//! The offline steps fan out over independent work items: one
//! simulated workload trace each in `tdp_bench::capture_all`, one
//! candidate-input subset each in `ModelSelector::search`. [`par_map`]
//! runs such a map on [`std::thread::scope`] with one participant per
//! available core (the calling thread included). Participants claim the
//! next item index from one shared atomic cursor, so a slow item never
//! holds up the rest, and each result goes back tagged with its index.
//!
//! Determinism contract: [`par_map`] returns results **in input
//! order**, and each item is processed exactly once by a
//! pure-by-contract closure, so the output is bit-identical to
//! `items.map(f).collect()` regardless of worker count, scheduling or
//! host core count. This is what lets `tdp-bench` guarantee that
//! parallel trace capture equals a serial capture byte for byte (the
//! golden-trace determinism tests pin it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `items` on up to one thread per available core and
/// returns the results in input order. A panic in `f` is re-raised on
/// the calling thread with its original payload.
///
/// # Example
///
/// ```
/// let squares = tdp_parallel::par_map(0..8u64, |x| x * x);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn par_map<I, T, R, F>(items: I, f: F) -> Vec<R>
where
    I: IntoIterator<Item = T>,
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    par_map_on(workers, items.into_iter().collect(), f)
}

/// [`par_map`] with `workers` participants at most, the calling thread
/// counted as one.
fn par_map_on<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Each slot is emptied exactly once, by the participant whose claim
    // drew its index, so its lock is never contended.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else {
                return done;
            };
            let item = slot.lock().expect("slot lock").take();
            done.push((i, f(item.expect("each index is claimed once"))));
        }
    };

    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(claim)).collect();
        let mut done = claim();
        for h in helpers {
            done.extend(h.join().unwrap_or_else(|payload| resume_unwind(payload)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;

    #[test]
    fn results_are_in_input_order() {
        // Stagger work so later items finish first on a multicore host.
        let out = par_map(0..32u64, |i| {
            std::thread::sleep(std::time::Duration::from_micros((32 - i) * 50));
            i * 10
        });
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u8> = par_map(Vec::<u8>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = par_map(0..100usize, |i| {
            calls.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(calls.load(Ordering::SeqCst), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn matches_serial_map_bit_for_bit() {
        let f = |i: u64| (i as f64).sin().to_bits();
        let serial: Vec<u64> = (0..257).map(f).collect();
        assert_eq!(par_map(0..257u64, f), serial);
    }

    #[test]
    fn explicit_pool_sizes_agree() {
        let f = |i: u64| (i as f64).sqrt().to_bits();
        let serial: Vec<u64> = (0..64).map(f).collect();
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        for workers in [1, 2, 3, host] {
            assert_eq!(
                par_map_on(workers, (0..64u64).collect(), f),
                serial,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn par_map_is_order_preserving_at_any_worker_count() {
        // Worker count must never change the output, on any host.
        let f = |x: u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 42;
        let items: Vec<u64> = (0..997).collect();
        let serial: Vec<u64> = items.iter().copied().map(f).collect();
        for workers in [1, 2, 3, 8] {
            assert_eq!(
                par_map_on(workers, items.clone(), f),
                serial,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn nested_par_map_runs_without_deadlock() {
        let out = par_map(0..4u64, |i| {
            let inner = par_map(0..4u64, move |j| i * 10 + j);
            inner.iter().sum::<u64>()
        });
        assert_eq!(out, vec![6, 46, 86, 126]);
    }

    #[test]
    #[should_panic(expected = "worker panic propagates")]
    fn worker_panics_propagate() {
        let _ = par_map(0..4u32, |i| {
            if i == 2 {
                panic!("worker panic propagates");
            }
            i
        });
    }

    #[test]
    fn helper_thread_panic_keeps_its_payload() {
        // Two participants. The calling thread cannot finish an item
        // until the helper has claimed one, and the helper panics on
        // whatever it claims, so the payload must cross the join.
        let caller = std::thread::current().id();
        let helper_claimed = AtomicBool::new(false);
        let err = catch_unwind(AssertUnwindSafe(|| {
            par_map_on(2, (0..64u32).collect(), |i| {
                if std::thread::current().id() != caller {
                    helper_claimed.store(true, Ordering::SeqCst);
                    std::panic::panic_any(i + 1000);
                }
                while !helper_claimed.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                i
            })
        }))
        .expect_err("the helper's panic reaches the caller");
        let payload = err.downcast::<u32>().expect("payload is the helper's u32");
        assert!((1000..1064).contains(&*payload));
    }
}
