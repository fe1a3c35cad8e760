//! Fleet-scale estimation benchmark (`repro --fleet N`).
//!
//! Measures two ways of estimating power for N machines per window on
//! *identical* synthetic counter data:
//!
//! * **naive** — one scalar [`trickledown::SystemPowerEstimator`] per
//!   machine, a `push_sample_set` loop (the obvious pre-`tdp-fleet`
//!   approach);
//! * **batched** — [`tdp_fleet::FleetEstimator`]'s SoA path.
//!
//! Results land in `BENCH_fleet.json`: machines×windows per second for
//! each path, ns per machine-estimate, the batched speedup over naive,
//! and peak RSS.

use crate::pipeline::{peak_rss_kb, StageRate};
use crate::ExperimentConfig;
use serde::Serialize;
use std::time::Instant;
use tdp_counters::{CounterSample, CpuId, InterruptSnapshot, PerfEvent, SampleSet};
use tdp_fleet::FleetEstimator;
use tdp_parallel::WorkerPool;
use trickledown::{SystemPowerEstimator, SystemPowerModel};

/// CPUs per simulated machine (the paper's 4-way Xeon server).
const CPUS_PER_MACHINE: usize = 4;

/// Scalar-estimator history bound for the naive path: enough for a
/// moving average, far below the 3600 default so the comparison is not
/// dominated by ring memory.
const NAIVE_HISTORY: usize = 64;

/// Full fleet benchmark report.
#[derive(Debug, Clone, Serialize)]
pub struct FleetReport {
    /// Machines per window.
    pub n_machines: usize,
    /// Windows processed per path.
    pub windows: u64,
    /// Workers in the host's global pool
    /// ([`tdp_parallel::WorkerPool::global`]); both timed paths run on
    /// one thread.
    pub workers: usize,
    /// Naive path: units are machine-windows.
    pub naive: StageRate,
    /// Batched path.
    pub batched: StageRate,
    /// Nanoseconds per machine-estimate, naive path.
    pub naive_ns_per_estimate: f64,
    /// Nanoseconds per machine-estimate, batched path.
    pub batched_ns_per_estimate: f64,
    /// Batched speedup over naive (machines×windows/sec ratio).
    pub speedup_batched: f64,
    /// Peak resident set (VmHWM), kilobytes; 0 when unavailable.
    pub peak_rss_kb: u64,
    /// Kernel dispatch flavour the run used (`scalar` / `wide` — see
    /// [`tdp_simd::Dispatch::active`]).
    pub simd: &'static str,
}

/// Deterministic synthetic counter read for one machine-window:
/// realistic magnitudes (≈3 GHz × 1 s windows), every event-rate input
/// exercised, varying by machine and window so neither path can
/// special-case repeated values. Shared with the wire codec benchmark
/// (`repro --wire N`) so both report on identical data.
pub fn synthetic_set(machine: usize, window: u64) -> SampleSet {
    let mut set = SampleSet::empty();
    synthetic_set_into(&mut set, machine, window);
    set
}

/// In-place flavour of [`synthetic_set`]: regenerates the same draws
/// into an existing set, reusing its `per_cpu` arena (and each sample's
/// inline count store) instead of reallocating. The timed harness loops
/// regenerate a whole fleet's sets every window; with thousands of
/// machines that is tens of thousands of short-lived heap allocations
/// per window — pure generator overhead that pollutes the allocator and
/// cache state the timed paths then run under, and that a production
/// ingester (fed fresh network buffers, not regenerated sample structs)
/// never pays.
pub fn synthetic_set_into(out: &mut SampleSet, machine: usize, window: u64) {
    let mut state = (machine as u64 + 1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(window.wrapping_mul(0xD1B5_4A32_D192_ED03))
        | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // Machine-wide base draws with small per-CPU jitter: sibling CPUs
    // of one server under one workload track each other closely (the
    // paper's 4-way Xeon), which is also the locality the wire codec's
    // CPU-over-CPU delta encoding is designed around.
    let cycles: u64 = 3_000_000_000;
    // Headroom keeps base + jitter below `cycles`, so active time
    // never goes negative on any CPU.
    let halted = next() % (cycles - cycles / 64);
    let active = cycles - halted;
    let fetched = next() % (2 * active + 1);
    let l3 = next() % 8_000_000;
    let bus = next() % 1_000_000;
    let dma = next() % 100_000_000;
    // Interrupt rates stay inside the paper's operating range (tens
    // per second): Equations 4–5 are downward parabolas and blow up
    // far outside it.
    let ints = 1_000 + next() % 60;
    let disk = next() % 30;
    out.per_cpu.truncate(CPUS_PER_MACHINE);
    for cpu in 0..CPUS_PER_MACHINE {
        let mut jitter = |base: u64| base + next() % (base / 128 + 2);
        let pairs = [
            (PerfEvent::Cycles, cycles),
            (PerfEvent::HaltedCycles, jitter(halted)),
            (PerfEvent::FetchedUops, jitter(fetched)),
            (PerfEvent::L3LoadMisses, jitter(l3)),
            (PerfEvent::BusTransactionsAll, jitter(bus)),
            (PerfEvent::DmaOtherBusTransactions, jitter(dma)),
            (PerfEvent::InterruptsTotal, jitter(ints)),
            (PerfEvent::TimerInterrupts, 1_000),
            (PerfEvent::DiskInterrupts, jitter(disk)),
        ];
        let id = CpuId::new(cpu as u8);
        match out.per_cpu.get_mut(cpu) {
            Some(sample) => sample.refill(id, window, pairs),
            None => out
                .per_cpu
                .push(CounterSample::new(id, window, pairs.to_vec())),
        }
    }
    out.time_ms = window.wrapping_add(1).wrapping_mul(1000);
    out.window_ms = 1000;
    out.seq = window;
    out.interrupts = InterruptSnapshot::default();
}

/// Refills a fleet's worth of sets for `window`, growing the vector on
/// the first call and reusing every allocation afterwards.
pub(crate) fn refill_sets(sets: &mut Vec<SampleSet>, n_machines: usize, window: u64) {
    sets.resize_with(n_machines, SampleSet::empty);
    for (m, set) in sets.iter_mut().enumerate() {
        synthetic_set_into(set, m, window);
    }
}

/// Runs both paths over the same windows and assembles the report.
pub fn run(cfg: &ExperimentConfig, n_machines: usize) -> FleetReport {
    let n_machines = n_machines.max(1);
    // Enough windows that per-window timing noise (scheduler
    // preemption on small shared hosts) averages out, capped so huge
    // fleets still finish promptly.
    let windows: u64 = (1_048_576 / n_machines as u64).clamp(16, 1024);
    let model = SystemPowerModel::paper();

    let mut naive: Vec<SystemPowerEstimator> = (0..n_machines)
        .map(|_| SystemPowerEstimator::with_capacity(model.clone(), NAIVE_HISTORY))
        .collect();
    let mut batched = FleetEstimator::with_capacity(model.clone(), n_machines);

    let mut sets: Vec<SampleSet> = Vec::with_capacity(n_machines);
    let (mut naive_secs, mut batched_secs) = (0.0f64, 0.0);

    // Warm-up window: fault in buffers and reach the allocation-free
    // steady state before timing starts (seeded off the seed so the
    // measured windows never repeat it).
    for warmup in [true, false] {
        let measured_windows = if warmup { 1 } else { windows };
        for w in 0..measured_windows {
            let window = if warmup { u64::MAX } else { w ^ cfg.seed };
            refill_sets(&mut sets, n_machines, window);

            // Alternate the order the two paths run in so cache-warmth
            // position bias (whoever runs right after `sets` is
            // regenerated sees it hottest) averages out over windows.
            let mut naive_total = 0.0;
            let (mut naive_elapsed, mut batched_elapsed) = (0.0f64, 0.0);
            for step in 0..2 {
                match (step + w as usize) % 2 {
                    0 => {
                        let start = Instant::now();
                        naive_total = 0.0;
                        for (est, set) in naive.iter_mut().zip(&sets) {
                            naive_total += est.push_sample_set(set).total();
                        }
                        naive_elapsed = start.elapsed().as_secs_f64();
                        std::hint::black_box(naive_total);
                    }
                    _ => {
                        let start = Instant::now();
                        let est = batched.process_window(&sets);
                        batched_elapsed = start.elapsed().as_secs_f64();
                        std::hint::black_box(est.fleet_total());
                    }
                }
            }

            if warmup {
                // Spot-check on untimed data: batched must be within
                // float noise of the scalar estimators.
                let batched_fleet_total = batched.estimates().fleet_total();
                assert!(
                    (naive_total - batched_fleet_total).abs()
                        < 1e-6 * batched_fleet_total.abs().max(1.0),
                    "batched disagrees with scalar: {naive_total} vs {batched_fleet_total}"
                );
            } else {
                naive_secs += naive_elapsed;
                batched_secs += batched_elapsed;
            }
        }
    }

    let units = windows * n_machines as u64;
    let naive_rate = StageRate::new(units, naive_secs);
    let batched_rate = StageRate::new(units, batched_secs);
    FleetReport {
        n_machines,
        windows,
        workers: WorkerPool::global().workers(),
        naive_ns_per_estimate: naive_secs * 1e9 / units as f64,
        batched_ns_per_estimate: batched_secs * 1e9 / units as f64,
        speedup_batched: batched_rate.per_sec / naive_rate.per_sec,
        naive: naive_rate,
        batched: batched_rate,
        peak_rss_kb: peak_rss_kb(),
        simd: tdp_simd::Dispatch::active().label(),
    }
}

/// Runs the benchmark, writes `BENCH_fleet.json` under the output
/// directory and returns the rendered JSON.
///
/// # Panics
///
/// Panics if the output directory is unwritable (consistent with the
/// rest of the repro harness).
pub fn run_and_write(cfg: &ExperimentConfig, n_machines: usize) -> String {
    let report = run(cfg, n_machines);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::create_dir_all(&cfg.out_dir).expect("create output dir");
    let path = cfg.out_dir.join("BENCH_fleet.json");
    std::fs::write(&path, &json).expect("write BENCH_fleet.json");
    eprintln!("bench: wrote {}", path.display());
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_sets_are_deterministic_and_varied() {
        let a = synthetic_set(3, 7);
        let b = synthetic_set(3, 7);
        assert_eq!(a, b);
        assert_ne!(a, synthetic_set(4, 7), "varies by machine");
        assert_ne!(a, synthetic_set(3, 8), "varies by window");
        assert_eq!(a.per_cpu.len(), CPUS_PER_MACHINE);
    }

    #[test]
    fn refill_matches_fresh_generation() {
        // Reusing a set's allocations must produce the exact sample a
        // fresh build would — the harness's bit-identity asserts across
        // codec paths all assume the generator is state-free.
        let mut reused = synthetic_set(0, 0);
        for (machine, window) in [(5usize, 11u64), (0, 3), (5, 11), (7, u64::MAX)] {
            synthetic_set_into(&mut reused, machine, window);
            assert_eq!(reused, synthetic_set(machine, window));
        }

        let mut sets = Vec::new();
        refill_sets(&mut sets, 3, 9);
        let caps: Vec<_> = sets.iter().map(|s| s.per_cpu.capacity()).collect();
        refill_sets(&mut sets, 3, 10);
        for (m, set) in sets.iter().enumerate() {
            assert_eq!(*set, synthetic_set(m, 10));
            assert_eq!(set.per_cpu.capacity(), caps[m], "arena was reallocated");
        }
    }

    #[test]
    fn small_fleet_report_is_consistent() {
        let cfg = ExperimentConfig {
            out_dir: std::env::temp_dir().join("tdp-fleet-bench-test"),
            ..ExperimentConfig::quick()
        };
        let r = run(&cfg, 8);
        assert_eq!(r.n_machines, 8);
        assert_eq!(r.naive.units, r.windows * 8);
        assert!(r.naive.per_sec > 0.0);
        assert!((r.speedup_batched - r.batched.per_sec / r.naive.per_sec).abs() < 1e-12);
    }
}
