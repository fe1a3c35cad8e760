//! Throughput benches for the allocation-free hot paths.
//!
//! The end-to-end pipeline is measured by perfbench; these isolate the
//! per-call costs the buffer-reuse API removed — `Machine::tick_into`
//! vs the allocating `tick`, counter reads into a reused `SampleSet` —
//! and the parallel 12-workload capture.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tdp_bench::ExperimentConfig;
use tdp_counters::SampleSet;
use tdp_simsys::{Machine, MachineConfig, TickActivity};
use tdp_workloads::{Workload, WorkloadSet};

fn busy_machine() -> Machine {
    let mut machine = Machine::new(MachineConfig::default());
    WorkloadSet::new(Workload::SpecJbb, 8, 0).deploy(&mut machine);
    for _ in 0..2_000 {
        machine.tick();
    }
    machine
}

fn bench_tick(c: &mut Criterion) {
    let mut machine = busy_machine();
    c.bench_function("tick/allocating", |b| b.iter(|| black_box(machine.tick())));

    let mut machine = busy_machine();
    let mut activity = TickActivity::empty();
    c.bench_function("tick/into_reused_buffer", |b| {
        b.iter(|| {
            machine.tick_into(&mut activity);
            black_box(&activity);
        })
    });
}

fn bench_counter_read(c: &mut Criterion) {
    let mut machine = busy_machine();
    let mut set = SampleSet::empty();
    c.bench_function("counters/read_into_reused_set", |b| {
        b.iter(|| {
            machine.tick();
            machine.read_counters_into(&mut set);
            black_box(&set);
        })
    });
}

fn bench_capture(c: &mut Criterion) {
    // A deliberately tiny capture so the bench completes in seconds;
    // perfbench reports the full-size capture time
    // (`trickledown.testbed.capture_s`).
    let cfg = ExperimentConfig {
        seed: 7,
        trace_seconds: 2,
        ramp_seconds: 1,
        out_dir: std::env::temp_dir().join("tdp-bench-throughput"),
    };
    c.bench_function("capture/parallel_12_workloads_2s", |b| {
        b.iter(|| black_box(tdp_bench::capture_all(&cfg)))
    });
}

criterion_group!(benches, bench_tick, bench_counter_read, bench_capture);
criterion_main!(benches);
