//! Shared harness code for the reproduction binary and the Criterion
//! benches.
//!
//! The experiment index lives in `DESIGN.md`; each `Experiment` here
//! regenerates one of the paper's tables or figures. Traces are captured
//! in parallel and results are written both as human-readable tables on
//! stdout and as CSV files under the output directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod cli;
pub mod experiments;
pub mod figures;
pub mod selection;

use std::path::PathBuf;
use tdp_workloads::{Workload, WorkloadSet};
use trickledown::testbed::{capture, Trace};
use trickledown::{CalibrationSuite, Calibrator, SystemPowerModel};

/// Global configuration for a reproduction run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Master seed; every trace derives from it.
    pub seed: u64,
    /// Post-ramp trace length per workload, seconds.
    pub trace_seconds: u64,
    /// Stagger between instance starts, seconds (paper: 30–60).
    pub ramp_seconds: u64,
    /// Where CSV artefacts are written.
    pub out_dir: PathBuf,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            seed: 2007,
            trace_seconds: 240,
            ramp_seconds: 30,
            out_dir: PathBuf::from("results"),
        }
    }
}

impl ExperimentConfig {
    /// A fast configuration for smoke runs (`repro --quick`).
    pub fn quick() -> Self {
        Self {
            trace_seconds: 60,
            ramp_seconds: 4,
            ..Self::default()
        }
    }

    /// Total seconds captured for one standard workload deployment.
    pub fn seconds_for(&self, set: &WorkloadSet) -> u64 {
        set.fully_ramped_ms() / 1000 + self.trace_seconds
    }

    /// The standard deployment of `workload` under this configuration.
    pub fn standard_set(&self, workload: Workload) -> WorkloadSet {
        let mut set = WorkloadSet::standard(workload);
        // Scale the default staggers to the configured ramp.
        if set.stagger_ms >= 10_000 {
            set.stagger_ms = self.ramp_seconds * 1000;
        }
        set
    }
}

/// Captures the standard trace of one workload.
pub fn capture_workload(cfg: &ExperimentConfig, workload: Workload) -> Trace {
    let set = cfg.standard_set(workload);
    capture(
        set,
        cfg.seconds_for(&set),
        cfg.seed ^ workload_seed(workload),
    )
}

/// Captures all twelve standard traces on a pooled parallel map sized
/// to the host (previously one thread per trace, which oversubscribed
/// small hosts).
///
/// Each trace is seeded independently from the master seed, and
/// [`tdp_parallel::par_map`] returns results in workload order, so the
/// output is bit-identical to capturing the workloads serially —
/// regardless of core count. `tests/golden_determinism.rs` pins this.
pub fn capture_all(cfg: &ExperimentConfig) -> Vec<Trace> {
    tdp_parallel::par_map(Workload::ALL.iter().copied(), |w| capture_workload(cfg, w))
}

/// Runs the paper's calibration recipe and returns the fitted model.
pub fn calibrate(cfg: &ExperimentConfig) -> SystemPowerModel {
    let suite = CalibrationSuite::capture(cfg.seed, cfg.ramp_seconds);
    Calibrator::new()
        .calibrate(&suite)
        .expect("the training recipe provides variation for every subsystem")
}

fn workload_seed(w: Workload) -> u64 {
    0x9e37_79b9u64.wrapping_mul(w as u64 + 1)
}

/// Writes rows of `f64` columns as CSV under the configured directory.
///
/// # Panics
///
/// Panics on I/O errors — the repro harness treats an unwritable output
/// directory as fatal.
pub fn write_csv(
    cfg: &ExperimentConfig,
    name: &str,
    header: &str,
    rows: impl IntoIterator<Item = Vec<f64>>,
) -> PathBuf {
    use std::io::Write as _;
    std::fs::create_dir_all(&cfg.out_dir).expect("create output dir");
    let path = cfg.out_dir.join(name);
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("create CSV file"));
    writeln!(f, "{header}").expect("write header");
    for row in rows {
        let line: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        writeln!(f, "{}", line.join(",")).expect("write row");
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_smaller() {
        let q = ExperimentConfig::quick();
        let d = ExperimentConfig::default();
        assert!(q.trace_seconds < d.trace_seconds);
        assert!(q.ramp_seconds < d.ramp_seconds);
    }

    #[test]
    fn workload_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for &w in Workload::ALL {
            assert!(seen.insert(workload_seed(w)));
        }
    }

    #[test]
    fn csv_writer_roundtrip() {
        let cfg = ExperimentConfig {
            out_dir: std::env::temp_dir().join("tdp-bench-test"),
            ..ExperimentConfig::quick()
        };
        let path = write_csv(&cfg, "t.csv", "a,b", vec![vec![1.0, 2.0], vec![3.0, 4.5]]);
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(text, "a,b\n1,2\n3,4.5\n");
    }
}
