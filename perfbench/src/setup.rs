//! Set-up: capture the twelve paper workloads on a simulated server and
//! calibrate the Equation 1–5 model on the paper's 4-way server.
//!
//! Both use a fixed testbed seed, so every run replays the same counter
//! corpus and the same model; the run's `--seed` only shapes the replay
//! (phase offsets, fault schedule).
//!
//! The reference kernel is timed before the captures, after each capture
//! and after the calibration, so that set-up cost can be reported
//! relative to the host's speed while it ran.

use crate::reference::Reference;
use std::time::Instant;
use tdp_workloads::{Workload, WorkloadSet};
use trickledown::testbed::{Testbed, TestbedConfig, Trace};
use trickledown::{CalibrationSuite, Calibrator, SystemPowerModel};

/// Testbed master seed (the repository's calibrated default).
pub const TESTBED_SEED: u64 = 2007;
/// Stagger between workload instance starts, seconds (`repro --quick`).
const RAMP_S: u64 = 4;
/// Post-ramp trace length per workload, seconds (`repro --quick`).
const TRACE_S: u64 = 60;
/// Reference-kernel runs timed at each sampling point.
const REFERENCE_RUNS: usize = 8;

/// What set-up produced, and what it cost.
pub struct Setup {
    /// One trace per workload, in [`Workload::ALL`] order.
    pub traces: Vec<Trace>,
    /// The calibrated model.
    pub model: SystemPowerModel,
    /// Wall seconds spent capturing the twelve traces.
    pub capture_s: f64,
    /// Wall seconds spent on the calibration capture and fit.
    pub calibrate_s: f64,
    /// Simulated machine ticks (1 ms each) the twelve captures ran.
    pub ticks: u64,
    /// Mean run time of the reference kernel through the set-up, ns. The
    /// mean, not the median: set-up time sums the host's slow and fast
    /// stretches, and the mean weighs them alike.
    pub reference_ns: f64,
}

/// Captures one workload's standard deployment on a server with `cpus`
/// CPUs; the power meter measures that same server.
fn capture(w: Workload, cpus: usize) -> Trace {
    let mut set = WorkloadSet::standard(w);
    if set.stagger_ms >= 10_000 {
        set.stagger_ms = RAMP_S * 1000;
    }
    let seed = TESTBED_SEED ^ 0x9e37_79b9u64.wrapping_mul(w as u64 + 1);
    let mut cfg = TestbedConfig::with_seed(seed);
    cfg.machine.cpu.num_cpus = cpus;
    let mut bed = Testbed::new(cfg);
    bed.deploy(set);
    bed.run_seconds(w, set.fully_ramped_ms() / 1000 + TRACE_S)
}

/// Runs the whole set-up once: twelve captures on a `cpus`-CPU server,
/// then calibration on the paper's 4-way server.
pub fn run(cpus: usize) -> Result<Setup, String> {
    let mut reference = Reference::default();
    let mut reference_ns = Vec::new();
    reference.sample(REFERENCE_RUNS, &mut reference_ns);
    let mut capture_s = 0.0;
    let mut traces = Vec::with_capacity(Workload::ALL.len());
    for &w in Workload::ALL {
        let start = Instant::now();
        traces.push(capture(w, cpus));
        capture_s += start.elapsed().as_secs_f64();
        reference.sample(REFERENCE_RUNS, &mut reference_ns);
    }
    if let Some(t) = traces.iter().find(|t| t.is_empty()) {
        return Err(format!(
            "capture of {} produced no records",
            t.workload.name()
        ));
    }
    // Each capture starts a fresh machine at t = 0 and stops right after
    // its last sample, so the last sample's time is the ticks it ran.
    let ticks = traces
        .iter()
        .filter_map(|t| t.records.last())
        .map(|r| r.raw.time_ms)
        .sum();

    let start = Instant::now();
    let suite = CalibrationSuite::capture(TESTBED_SEED, RAMP_S);
    let model = Calibrator::new()
        .calibrate(&suite)
        .map_err(|e| format!("calibration failed: {e}"))?;
    let calibrate_s = start.elapsed().as_secs_f64();
    reference.sample(REFERENCE_RUNS, &mut reference_ns);

    Ok(Setup {
        traces,
        model,
        capture_s,
        calibrate_s,
        ticks,
        reference_ns: reference_ns.iter().sum::<f64>() / reference_ns.len() as f64,
    })
}
