//! The measurement testbed: machine + power meter + sampling discipline.
//!
//! A [`Testbed`] wires together the simulated server, the ground-truth
//! power apparatus and the 1 Hz counter-sampling driver with its sync
//! pulses, reproducing the paper's bench (§3.1): the target samples its
//! own counters once per second (with jitter), the acquisition side
//! averages its 10 kHz power samples into the windows delimited by the
//! sync pulses, and the two streams are paired into [`TraceRecord`]s.

use crate::input::SystemSample;
use serde::{Deserialize, Serialize};
use tdp_counters::{SampleSet, SamplerConfig, SamplingDriver, Subsystem, SyncRecorder};
use tdp_powermeter::{PowerMeter, PowerSample, PowerSpec};
use tdp_simsys::{Machine, MachineConfig};
use tdp_workloads::{Workload, WorkloadSet};

/// Testbed configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct TestbedConfig {
    /// The simulated server.
    pub machine: MachineConfig,
    /// The component power specification.
    pub power: PowerSpec,
    /// Counter-sampling discipline (default: 1 Hz with ±3 ms jitter).
    pub sampler: SamplerConfig,
}

impl TestbedConfig {
    /// Default configuration with a specific master seed.
    pub fn with_seed(seed: u64) -> Self {
        let mut cfg = Self::default();
        cfg.machine.seed = seed;
        cfg
    }
}

/// One paired observation: counter-derived model inputs and measured
/// power for the same (sync-pulse-delimited) window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Per-cycle model inputs.
    pub input: SystemSample,
    /// The raw counter sample (kept for model-selection experiments).
    pub raw: SampleSet,
    /// Measured (noisy, quantized, averaged) subsystem power.
    pub measured: PowerSample,
}

/// A complete captured run of one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// The workload that ran.
    pub workload: Workload,
    /// Paired per-second records, in time order.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Model inputs of every record, borrowed.
    ///
    /// The returned vector holds references into the trace (the
    /// per-sample `per_cpu` vectors are *not* cloned); the model `fit`
    /// functions accept either owned or borrowed sample slices.
    pub fn inputs(&self) -> Vec<&SystemSample> {
        self.records.iter().map(|r| &r.input).collect()
    }

    /// Measured watts of one subsystem across the trace.
    pub fn measured(&self, s: Subsystem) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.measured.watts.get(s))
            .collect()
    }

    /// Measured total power across the trace.
    pub fn measured_total(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.measured.watts.total())
            .collect()
    }

    /// A copy without the first `warmup` records (ramp-up trimming).
    pub fn skip_warmup(&self, warmup: usize) -> Trace {
        Trace {
            workload: self.workload,
            records: self.records.iter().skip(warmup).cloned().collect(),
        }
    }

    /// Serialises the trace to JSON (for archiving captured runs and
    /// sharing calibration data between machines).
    ///
    /// # Errors
    ///
    /// Propagates `serde_json` failures (practically impossible here).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Loads a trace saved with [`to_json`](Trace::to_json).
    ///
    /// # Errors
    ///
    /// Returns the `serde_json` error for malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// The assembled bench.
#[derive(Debug)]
pub struct Testbed {
    machine: Machine,
    meter: PowerMeter,
    driver: SamplingDriver,
    sync: SyncRecorder,
}

impl Testbed {
    /// Builds a testbed.
    pub fn new(cfg: TestbedConfig) -> Self {
        let machine = Machine::new(cfg.machine);
        let meter = PowerMeter::new(cfg.power, cfg.machine.seed);
        Self {
            machine,
            meter,
            driver: SamplingDriver::new(cfg.sampler),
            sync: SyncRecorder::new(),
        }
    }

    /// Deploys a workload set onto the machine's OS.
    pub fn deploy(&mut self, set: WorkloadSet) {
        set.deploy(&mut self.machine);
    }

    /// The machine (e.g. to spawn custom behaviours).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The sync-pulse record accumulated so far.
    pub fn sync_recorder(&self) -> &SyncRecorder {
        &self.sync
    }

    /// Runs until `seconds` sampling windows have been collected
    /// (nominally one per second, so ~`seconds` of simulated time
    /// modulo jitter). `workload` labels the returned trace.
    pub fn run_seconds(&mut self, workload: Workload, seconds: u64) -> Trace {
        let mut records = Vec::with_capacity(seconds as usize);
        let max_jitter = self.driver.config().max_jitter_ms as i64;
        let period = self.driver.config().period_ms;
        // Hard stop well past the nominal end, in case of pathological
        // jitter configurations.
        let end_ms = self.machine.now_ms() + seconds * period + 10 * period;
        // The machine reuses its activity buffer across every tick; the
        // sampling path below (1 Hz) is the only per-window allocation,
        // where the archived raw set is cloned out of the machine.
        while records.len() < seconds as usize && self.machine.now_ms() < end_ms {
            self.meter.observe(self.machine.tick());
            if let Some(seq) = self.driver.poll(self.machine.now_ms()) {
                self.sync.pulse(seq, self.machine.now_ms());
                let raw = self.machine.read_counters().clone();
                let measured = self.meter.cut_window();
                records.push(TraceRecord {
                    input: SystemSample::from_sample_set(&raw),
                    raw,
                    measured,
                });
                let jitter = self.machine.sample_jitter_ms(max_jitter);
                self.driver.set_next_jitter(jitter);
            }
        }
        Trace { workload, records }
    }
}

/// Convenience: capture a fresh trace of `set` for `seconds`, on a
/// default testbed seeded with `seed`.
///
/// # Example
///
/// ```no_run
/// use tdp_workloads::{Workload, WorkloadSet};
/// use trickledown::testbed::capture;
///
/// let trace = capture(WorkloadSet::standard(Workload::Gcc), 300, 42);
/// assert_eq!(trace.len(), 300);
/// ```
pub fn capture(set: WorkloadSet, seconds: u64, seed: u64) -> Trace {
    let mut bed = Testbed::new(TestbedConfig::with_seed(seed));
    bed.deploy(set);
    bed.run_seconds(set.kind, seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_trace_records_once_per_second() {
        let trace = capture(WorkloadSet::standard(Workload::Idle), 5, 1);
        assert_eq!(trace.len(), 5);
        for r in &trace.records {
            // 1 Hz ± 3 ms jitter.
            assert!((997..=1006).contains(&r.measured.window_ms));
            assert_eq!(r.input.num_cpus(), 4);
        }
        let total = trace.measured_total();
        assert!(total.iter().all(|&w| (130.0..150.0).contains(&w)));
    }

    #[test]
    fn counter_and_power_windows_align() {
        let trace = capture(WorkloadSet::standard(Workload::Idle), 4, 2);
        for r in &trace.records {
            assert_eq!(r.raw.time_ms, r.measured.time_ms);
            assert_eq!(r.raw.window_ms, r.measured.window_ms);
        }
    }

    #[test]
    fn traces_are_reproducible() {
        let a = capture(WorkloadSet::new(Workload::Gcc, 2, 1000), 6, 9);
        let b = capture(WorkloadSet::new(Workload::Gcc, 2, 1000), 6, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn skip_warmup_trims_front() {
        let trace = capture(WorkloadSet::standard(Workload::Idle), 5, 3);
        let trimmed = trace.skip_warmup(2);
        assert_eq!(trimmed.len(), 3);
        assert_eq!(trimmed.records[0], trace.records[2]);
    }

    #[test]
    fn trace_json_roundtrip_is_lossless() {
        let trace = capture(WorkloadSet::new(Workload::Mesa, 2, 500), 4, 8);
        let json = trace.to_json().unwrap();
        let back = Trace::from_json(&json).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn sync_pulses_cover_every_record() {
        let mut bed = Testbed::new(TestbedConfig::with_seed(5));
        let trace = bed.run_seconds(Workload::Idle, 3);
        assert_eq!(bed.sync_recorder().pulses().len(), trace.len());
    }
}
