//! Deterministic pooled parallel map on a persistent worker pool.
//!
//! The capture and calibration pipelines fan out over independent work
//! items (one simulated workload trace each, or one candidate-input
//! subset each). The previous design spawned a fresh set of scoped
//! threads per call and drained a `Mutex<VecDeque>` of items; for many
//! small items both the spawn cost and the queue lock dominate. This crate now keeps one persistent, parked worker pool
//! per process and hands out work by **atomic chunk claiming**: items
//! are pre-split into indexed chunks and workers claim the next chunk
//! with a single `AtomicUsize::fetch_add` — no queue, no lock on the
//! claim path.
//!
//! Determinism contract: [`par_map`] and [`par_map_chunks`] return
//! results **in input order**, and each item is processed exactly once
//! by a pure-by-contract closure, so the output is bit-identical to
//! `items.map(f).collect()` regardless of worker count, chunk size,
//! scheduling, or host core count. This is what lets `tdp-bench`
//! guarantee that parallel trace capture equals a serial capture byte
//! for byte (the golden-trace determinism tests pin it).

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

thread_local! {
    /// True while this thread is executing inside a pool job (either as
    /// a pool worker or as a submitting thread helping its own job).
    /// Nested `par_map` calls from such a thread degrade to a serial
    /// loop instead of deadlocking on the single-job-at-a-time pool.
    static IN_POOL_JOB: Cell<bool> = const { Cell::new(false) };
}

/// The lifetime-erased borrow of a job closure that parked workers
/// execute. Confined to this module so the erasure has exactly one
/// construction site with one documented obligation.
mod erased {
    /// A `&'static`-pretending borrow of the submitting thread's job
    /// closure.
    #[derive(Clone, Copy)]
    pub(crate) struct ErasedJob(&'static (dyn Fn() + Sync));

    impl ErasedJob {
        /// Erases the closure's lifetime so persistent worker threads
        /// can hold it.
        ///
        /// # Safety
        ///
        /// The caller must not return from the scope that owns `f`
        /// until every worker holding this handle has finished calling
        /// it and can no longer acquire it. [`WorkerPool::run`] is the
        /// only caller and enforces exactly that: it retracts the job
        /// under the pool lock and then blocks until the running count
        /// reaches zero.
        #[allow(unsafe_code)]
        pub(crate) unsafe fn new(f: &(dyn Fn() + Sync)) -> Self {
            // SAFETY: pure lifetime extension; liveness is guaranteed by
            // the caller per the contract above.
            Self(unsafe {
                std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(f)
            })
        }

        pub(crate) fn call(&self) {
            (self.0)()
        }
    }
}

use erased::ErasedJob;

struct PoolState {
    /// Incremented per submitted job; workers use it to run each job at
    /// most once.
    epoch: u64,
    /// The current job, present only while pickup is allowed.
    job: Option<ErasedJob>,
    /// Workers currently inside `job.call()`.
    running: usize,
    /// First panic payload captured from a worker.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Signalled when a new job is published (or on shutdown).
    work_ready: Condvar,
    /// Signalled when the last running worker finishes the current job.
    job_done: Condvar,
}

/// A persistent pool of parked worker threads executing one parallel
/// job at a time.
///
/// `WorkerPool::new(k)` provides a total concurrency of `k`: the
/// submitting thread always participates in its own job, and
/// `k − 1` persistent threads are spawned to help. A pool of one is a
/// pure serial loop with no threads, no locks and no behavioural
/// difference — which is also why worker count can never change
/// results (see the crate-level determinism contract).
///
/// Most callers want the process-wide [`WorkerPool::global`] pool via
/// the free [`par_map`] / [`par_map_chunks`] functions; explicit pools
/// exist for tests that pin determinism across worker counts.
pub struct WorkerPool {
    shared: std::sync::Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Total concurrency including the submitting thread.
    workers: usize,
    /// Serialises submissions: one job owns the pool at a time.
    submit: Mutex<()>,
}

impl WorkerPool {
    /// Creates a pool with total concurrency `workers` (clamped to at
    /// least 1), spawning `workers − 1` persistent threads.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = std::sync::Arc::new(Shared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                running: 0,
                panic: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
        });
        let handles = (1..workers)
            .map(|i| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tdp-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            handles,
            workers,
            submit: Mutex::new(()),
        }
    }

    /// The process-wide pool, sized to the host on first use
    /// ([`available_workers`]).
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| WorkerPool::new(available_workers()))
    }

    /// Total concurrency of this pool, including the submitting thread.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `job` once on every participant (the submitting thread plus
    /// any parked worker that wakes in time). `job` must partition its
    /// own work internally — [`par_map_chunks`](Self::par_map_chunks)
    /// does so with an atomic chunk cursor, which is why a participant
    /// that arrives late (or never) is harmless: the cursor is simply
    /// drained by whoever is present.
    ///
    /// Blocks until all participants have returned. Panics from any
    /// participant are re-raised here.
    fn run(&self, job: &(dyn Fn() + Sync)) {
        if self.handles.is_empty() || IN_POOL_JOB.with(Cell::get) {
            // Serial pool, or a nested call from inside a pool job:
            // run inline. Results are identical by the determinism
            // contract.
            job();
            return;
        }
        let guard = self.submit.lock().expect("submit lock");
        // SAFETY (ErasedJob contract): this function does not return
        // until `running == 0` with the job retracted, so no worker can
        // touch the borrow after we leave this scope.
        #[allow(unsafe_code)]
        let erased = unsafe { ErasedJob::new(job) };
        {
            let mut st = self.shared.state.lock().expect("pool state");
            st.epoch += 1;
            st.job = Some(erased);
            st.panic = None;
        }
        self.shared.work_ready.notify_all();

        // The submitting thread is a participant too: with all workers
        // busy waking up, the job still completes.
        IN_POOL_JOB.with(|f| f.set(true));
        let mine = catch_unwind(AssertUnwindSafe(job));
        IN_POOL_JOB.with(|f| f.set(false));

        // Retract the job so no further pickups happen, then wait for
        // stragglers already inside it.
        let worker_panic = {
            let mut st = self.shared.state.lock().expect("pool state");
            st.job = None;
            while st.running > 0 {
                st = self.shared.job_done.wait(st).expect("pool state");
            }
            st.panic.take()
        };
        drop(guard);
        if let Err(p) = mine {
            resume_unwind(p);
        }
        if let Some(p) = worker_panic {
            resume_unwind(p);
        }
    }

    /// Maps `f` over `items` on this pool, returning results in input
    /// order. Equivalent to [`par_map_chunks`](Self::par_map_chunks)
    /// with a chunk size of 1.
    pub fn par_map<I, T, R, F>(&self, items: I, f: F) -> Vec<R>
    where
        I: IntoIterator<Item = T>,
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        self.par_map_chunks(items, 1, f)
    }

    /// Maps `f` over `items`, claiming work `chunk_size` items at a
    /// time to amortise cursor traffic, and returns the results in
    /// input order.
    ///
    /// The pool degenerates to a serial loop when it has one worker or
    /// when the items fit in a single chunk, with zero behavioural
    /// difference. Panics in `f` propagate to the caller.
    pub fn par_map_chunks<I, T, R, F>(&self, items: I, chunk_size: usize, f: F) -> Vec<R>
    where
        I: IntoIterator<Item = T>,
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let items: Vec<T> = items.into_iter().collect();
        let n = items.len();
        let chunk = chunk_size.max(1);
        if n == 0 {
            return Vec::new();
        }
        if self.workers <= 1 || n <= chunk || IN_POOL_JOB.with(Cell::get) {
            return items.into_iter().map(f).collect();
        }

        // Pre-split the items into indexed slots. Each slot is claimed
        // exactly once via the atomic cursor; its Mutex is therefore
        // uncontended by construction and exists only to move the items
        // out and the results back in safely.
        struct Slot<T, R> {
            input: Vec<T>,
            output: Vec<R>,
        }
        let mut slots: Vec<Mutex<Slot<T, R>>> = Vec::with_capacity(n.div_ceil(chunk));
        let mut it = items.into_iter();
        loop {
            let batch: Vec<T> = it.by_ref().take(chunk).collect();
            if batch.is_empty() {
                break;
            }
            slots.push(Mutex::new(Slot {
                input: batch,
                output: Vec::new(),
            }));
        }

        let cursor = AtomicUsize::new(0);
        let job = || loop {
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(c) else {
                break;
            };
            let mut slot = slot.lock().expect("slot lock");
            let input = std::mem::take(&mut slot.input);
            slot.output.reserve_exact(input.len());
            for item in input {
                let out = f(item);
                slot.output.push(out);
            }
        };
        self.run(&job);

        slots
            .into_iter()
            .flat_map(|s| s.into_inner().expect("slot poisoned").output)
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool state");
            st.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    IN_POOL_JOB.with(|f| f.set(true));
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool state");
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(job) = st.job {
                    if st.epoch != last_epoch {
                        last_epoch = st.epoch;
                        st.running += 1;
                        break job;
                    }
                }
                st = shared.work_ready.wait(st).expect("pool state");
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| job.call()));
        let mut st = shared.state.lock().expect("pool state");
        if let Err(p) = result {
            if st.panic.is_none() {
                st.panic = Some(p);
            }
        }
        st.running -= 1;
        if st.running == 0 {
            shared.job_done.notify_all();
        }
    }
}

/// Maps `f` over `items` on the process-wide pool, returning the
/// results in input order.
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
    WorkerPool::global().par_map(items, f)
}

/// Maps `f` over `items` on the process-wide pool, claiming work
/// `chunk_size` items at a time, and returns the results in input
/// order. Prefer this over [`par_map`] when items are small and
/// numerous (fleet shards, per-window slices).
pub fn par_map_chunks<I, T, R, F>(items: I, chunk_size: usize, f: F) -> Vec<R>
where
    I: IntoIterator<Item = T>,
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    WorkerPool::global().par_map_chunks(items, chunk_size, f)
}

/// The worker count the global pool uses: `available_parallelism`,
/// overridable with the `TDP_WORKERS` environment variable (useful for
/// pinning CI or determinism experiments).
pub fn available_workers() -> usize {
    if let Some(n) = std::env::var("TDP_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        return n.max(1);
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn chunked_map_matches_serial_for_any_chunk_size() {
        let f = |i: u64| (i as f64).cos().to_bits();
        let serial: Vec<u64> = (0..100).map(f).collect();
        for chunk in [1, 3, 7, 16, 99, 100, 1000] {
            assert_eq!(par_map_chunks(0..100u64, chunk, f), serial, "chunk {chunk}");
        }
    }

    #[test]
    fn explicit_pool_sizes_agree() {
        let f = |i: u64| (i as f64).sqrt().to_bits();
        let serial: Vec<u64> = (0..64).map(f).collect();
        for workers in [1, 2, 3, available_workers()] {
            let pool = WorkerPool::new(workers);
            assert_eq!(pool.par_map(0..64u64, f), serial, "{workers} workers");
            assert_eq!(
                pool.par_map_chunks(0..64u64, 5, f),
                serial,
                "{workers} workers, chunked"
            );
        }
    }

    #[test]
    fn pool_is_reusable_across_many_jobs() {
        let pool = WorkerPool::new(4);
        for round in 0..50u64 {
            let out = pool.par_map(0..16u64, |i| i + round);
            assert_eq!(out, (0..16).map(|i| i + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_par_map_degrades_to_serial_without_deadlock() {
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
    fn pool_survives_a_panicked_job() {
        let pool = WorkerPool::new(4);
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(0..8u32, |i| {
                if i == 3 {
                    panic!("boom");
                }
                i
            })
        }));
        assert!(poisoned.is_err());
        // The pool keeps working after the panic is reported.
        assert_eq!(pool.par_map(0..4u32, |i| i * 2), vec![0, 2, 4, 6]);
    }

    #[test]
    fn at_least_one_worker_reported() {
        assert!(available_workers() >= 1);
    }
}
