//! Quickstart: calibrate the trickle-down models and estimate the power
//! of a workload the models never saw.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use tdp_counters::Subsystem;
use tdp_workloads::{Workload, WorkloadSet};
use trickledown::testbed::capture;
use trickledown::{CalibrationSuite, Calibrator, SystemPowerEstimator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Capture the paper's training recipe on the simulated server:
    //    gcc (CPU), mcf (memory), DiskLoad (disk + I/O). A short ramp
    //    keeps the example quick; use 20-30 s for production quality.
    println!("calibrating (gcc / mcf / DiskLoad training traces)...");
    let suite = CalibrationSuite::capture(/* seed */ 42, /* ramp s */ 4);
    let model = Calibrator::new().calibrate(&suite)?;
    println!(
        "fitted CPU model:    {:5.2} W halted, {:5.2} W active, {:4.2} W per uop/cycle",
        model.cpu.halt_w, model.cpu.active_w, model.cpu.upc_w
    );
    println!(
        "fitted memory model: {:5.2} W background\n",
        model.memory.background_w
    );

    // 2. Capture a validation workload the models never trained on.
    let set = WorkloadSet::new(Workload::SpecJbb, 8, 500);
    let trace = capture(set, 30, 43);

    // 3. Estimate power online from counters alone and compare against
    //    the sense-resistor measurements. The estimator's push path is
    //    allocation-free, and per-CPU attribution reuses one caller-
    //    owned buffer across the whole run (the buffer-reuse contract:
    //    `*_into` methods reset and refill, the caller keeps capacity).
    let mut estimator = SystemPowerEstimator::new(model);
    let mut per_cpu_w: Vec<f64> = Vec::new();
    println!(
        "{:>4} {:>10} {:>10} {:>7}   (specjbb, 8 warehouses)",
        "sec", "measured", "estimated", "error"
    );
    let mut worst: f64 = 0.0;
    let mut busiest_cpu_w: f64 = 0.0;
    for record in &trace.records {
        let est = estimator.push(&record.input);
        estimator.attribute_cpus(&record.input, &mut per_cpu_w);
        busiest_cpu_w = busiest_cpu_w.max(per_cpu_w.iter().cloned().fold(0.0, f64::max));
        let measured = record.measured.watts.total();
        let err = (est.total() - measured).abs() / measured * 100.0;
        worst = worst.max(err);
        if record.input.time_ms % 5000 < 1000 {
            println!(
                "{:>4} {:>8.1} W {:>8.1} W {:>6.2}%",
                record.input.time_ms / 1000,
                measured,
                est.total(),
                err
            );
        }
    }
    println!("\nworst per-second total-power error: {worst:.2}%");
    println!("busiest single CPU (attributed): {busiest_cpu_w:.1} W");

    // 4. The estimator keeps history for policies to consume.
    let cpu_avg = estimator
        .moving_average(Subsystem::Cpu, 10)
        .expect("history is non-empty");
    println!("CPU subsystem, last-10s moving average: {cpu_avg:.1} W");
    Ok(())
}
