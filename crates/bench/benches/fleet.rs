//! Criterion benches for the fleet-scale batched estimation path.
//!
//! Companion to `repro --fleet N` (which measures the naive-vs-batched
//! comparison and writes `BENCH_fleet.json`): these isolate the
//! per-window costs at a fixed fleet size so regressions show up as
//! per-iteration deltas.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tdp_counters::{CounterSample, CpuId, InterruptSnapshot, PerfEvent, SampleSet};
use tdp_fleet::FleetEstimator;
use trickledown::{SystemPowerEstimator, SystemPowerModel};

const MACHINES: usize = 256;

fn synthetic_fleet() -> Vec<SampleSet> {
    (0..MACHINES)
        .map(|m| {
            let mut state = (m as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let per_cpu = (0..4)
                .map(|cpu| {
                    let cycles: u64 = 3_000_000_000;
                    CounterSample::new(
                        CpuId::new(cpu),
                        0,
                        vec![
                            (PerfEvent::Cycles, cycles),
                            (PerfEvent::HaltedCycles, next() % cycles),
                            (PerfEvent::FetchedUops, next() % cycles),
                            (PerfEvent::L3LoadMisses, next() % 8_000_000),
                            (PerfEvent::BusTransactionsAll, next() % 1_000_000),
                            (PerfEvent::DmaOtherBusTransactions, next() % 100_000_000),
                            (PerfEvent::InterruptsTotal, 1_000 + next() % 60),
                            (PerfEvent::TimerInterrupts, 1_000),
                            (PerfEvent::DiskInterrupts, next() % 30),
                        ],
                    )
                })
                .collect();
            SampleSet {
                time_ms: 1000,
                window_ms: 1000,
                seq: 0,
                per_cpu,
                interrupts: InterruptSnapshot::default(),
            }
        })
        .collect()
}

fn bench_fleet_window(c: &mut Criterion) {
    let sets = synthetic_fleet();
    let model = SystemPowerModel::paper();

    let mut naive: Vec<SystemPowerEstimator> = (0..MACHINES)
        .map(|_| SystemPowerEstimator::with_capacity(model.clone(), 64))
        .collect();
    c.bench_function("fleet/naive_scalar_loop_256", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for (est, set) in naive.iter_mut().zip(&sets) {
                total += est.push_sample_set(set).total();
            }
            black_box(total)
        })
    });

    let mut serial = FleetEstimator::with_capacity(model, MACHINES);
    c.bench_function("fleet/batched_serial_256", |b| {
        b.iter(|| black_box(serial.process_window(&sets).fleet_total()))
    });
}

criterion_group!(benches, bench_fleet_window);
criterion_main!(benches);
