//! Online power estimation.
//!
//! The paper's motivation is *runtime* use: feeding power-management
//! policies without power sensors (§1, §3.3.1). The estimator consumes
//! counter [`SampleSet`]s as they are read and emits per-window
//! [`PowerEstimate`]s, keeping a bounded history for phase analysis and
//! moving averages.

use crate::input::SystemSample;
use crate::models::SystemPowerModel;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use tdp_counters::{SampleSet, Subsystem};
use tdp_powermeter::SubsystemPower;

/// One power estimate for one sampling window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerEstimate {
    /// Simulated/wall time at the end of the window, ms.
    pub time_ms: u64,
    /// Estimated subsystem watts.
    pub watts: SubsystemPower,
}

impl PowerEstimate {
    /// Estimated total system power.
    pub fn total(&self) -> f64 {
        self.watts.total()
    }
}

/// The online estimator.
///
/// # Example
///
/// ```
/// use tdp_simsys::{Machine, MachineConfig};
/// use trickledown::{SystemPowerEstimator, SystemPowerModel};
///
/// let mut machine = Machine::new(MachineConfig::default());
/// let mut estimator = SystemPowerEstimator::new(SystemPowerModel::paper());
///
/// for _ in 0..3 {
///     for _ in 0..1000 { machine.tick(); }
///     let est = estimator.push_sample_set(machine.read_counters());
///     assert!(est.total() > 100.0);
/// }
/// assert_eq!(estimator.history().count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct SystemPowerEstimator {
    model: SystemPowerModel,
    history: VecDeque<PowerEstimate>,
}

/// Estimates the history retains: an hour of windows at 1 Hz.
const HISTORY_WINDOWS: usize = 3600;

impl SystemPowerEstimator {
    /// Creates an estimator retaining the latest 3,600 estimates (an
    /// hour at 1 Hz).
    pub fn new(model: SystemPowerModel) -> Self {
        Self {
            model,
            history: VecDeque::with_capacity(HISTORY_WINDOWS),
        }
    }

    /// The model in use.
    pub fn model(&self) -> &SystemPowerModel {
        &self.model
    }

    /// Processes one raw counter read.
    ///
    /// Eviction rule: the history is a bounded FIFO ring. When it
    /// already holds 3,600 estimates, the **oldest** is evicted
    /// *before* the new one is appended, so the ring holds exactly the
    /// most recent 3,600 estimates and never exceeds its bound —
    /// the returned estimate is always the newest retained entry.
    pub fn push_sample_set(&mut self, set: &SampleSet) -> PowerEstimate {
        self.push(&SystemSample::from_sample_set(set))
    }

    /// Processes one pre-extracted sample. Same eviction rule as
    /// [`push_sample_set`](Self::push_sample_set): evict-oldest-first
    /// at 3,600, then append.
    pub fn push(&mut self, sample: &SystemSample) -> PowerEstimate {
        let est = PowerEstimate {
            time_ms: sample.time_ms,
            watts: self.model.predict(sample),
        };
        if self.history.len() == HISTORY_WINDOWS {
            self.history.pop_front();
        }
        self.history.push_back(est);
        est
    }

    /// The retained estimates, oldest first.
    pub fn history(&self) -> impl Iterator<Item = &PowerEstimate> + '_ {
        self.history.iter()
    }

    /// Latest estimate, if any.
    pub fn latest(&self) -> Option<&PowerEstimate> {
        self.history.back()
    }

    /// Moving average of the last `n` estimates for one subsystem
    /// (fewer if history is shorter; `None` when empty).
    pub fn moving_average(&self, s: Subsystem, n: usize) -> Option<f64> {
        if self.history.is_empty() || n == 0 {
            return None;
        }
        let take = n.min(self.history.len());
        let sum: f64 = self
            .history
            .iter()
            .rev()
            .take(take)
            .map(|e| e.watts.get(s))
            .sum();
        Some(sum / take as f64)
    }

    /// Per-CPU power attribution for the latest sample pushed through
    /// [`push`](Self::push) — the per-processor accounting of §4.2.1.
    /// Refills `out` in place, so per-window attribution loops at
    /// sampling rate reuse one buffer.
    pub fn attribute_cpus(&self, sample: &SystemSample, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            sample
                .per_cpu
                .iter()
                .map(|c| self.model.cpu.predict_single(c)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::CpuRates;

    fn sample(t: u64, upc: f64) -> SystemSample {
        SystemSample {
            time_ms: t,
            window_ms: 1000,
            per_cpu: vec![
                CpuRates {
                    active_frac: 1.0,
                    fetched_upc: upc,
                    ..CpuRates::default()
                };
                4
            ],
        }
    }

    #[test]
    fn history_is_bounded_fifo() {
        let mut e = SystemPowerEstimator::new(SystemPowerModel::paper());
        let pushed = HISTORY_WINDOWS as u64 + 2;
        for t in 0..pushed {
            e.push(&sample(t, 1.0));
        }
        let times: Vec<u64> = e.history().map(|x| x.time_ms).collect();
        assert_eq!(times, (2..pushed).collect::<Vec<_>>());
        assert_eq!(e.latest().unwrap().time_ms, pushed - 1);
    }

    #[test]
    fn moving_average_tracks_recent_windows() {
        let mut e = SystemPowerEstimator::new(SystemPowerModel::paper());
        e.push(&sample(0, 0.0));
        e.push(&sample(1, 3.0));
        let avg1 = e.moving_average(Subsystem::Cpu, 1).unwrap();
        let avg2 = e.moving_average(Subsystem::Cpu, 2).unwrap();
        assert!(avg1 > avg2, "latest window is the hottest");
        assert_eq!(e.moving_average(Subsystem::Cpu, 0), None);
    }

    #[test]
    fn attribution_sums_to_cpu_estimate() {
        let e = SystemPowerEstimator::new(SystemPowerModel::paper());
        let s = sample(0, 2.0);
        let mut per_cpu = Vec::new();
        e.attribute_cpus(&s, &mut per_cpu);
        assert_eq!(per_cpu.len(), 4);
        let total: f64 = per_cpu.iter().sum();
        let est = e.model().predict(&s).get(Subsystem::Cpu);
        assert!((total - est).abs() < 1e-9);
    }

    #[test]
    fn latest_none_when_empty() {
        let e = SystemPowerEstimator::new(SystemPowerModel::paper());
        assert!(e.latest().is_none());
        assert_eq!(e.moving_average(Subsystem::Cpu, 5), None);
    }

    #[test]
    fn push_sample_set_matches_push() {
        use tdp_counters::{PerfEvent, SampleSet};
        let mut set = SampleSet::empty();
        let events = [
            PerfEvent::Cycles,
            PerfEvent::HaltedCycles,
            PerfEvent::FetchedUops,
        ];
        set.reset(events, 1)
            .copy_from_slice(&[2_000_000_000, 0, 4_000_000_000]);
        set.time_ms = 1000;
        set.window_ms = 1000;
        let mut a = SystemPowerEstimator::new(SystemPowerModel::paper());
        let mut b = SystemPowerEstimator::new(SystemPowerModel::paper());
        let via_set = a.push_sample_set(&set);
        let via_sample = b.push(&crate::input::SystemSample::from_sample_set(&set));
        assert_eq!(via_set, via_sample);
    }

    #[test]
    fn history_never_exceeds_capacity_at_the_boundary() {
        let mut e = SystemPowerEstimator::new(SystemPowerModel::paper());
        for t in 0..HISTORY_WINDOWS as u64 + 4 {
            e.push(&sample(t, 0.5));
            // Filling the ring exactly to capacity evicts nothing.
            let expected = (t as usize + 1).min(HISTORY_WINDOWS);
            assert_eq!(e.history().count(), expected);
        }
        let first: Vec<u64> = e.history().take(2).map(|x| x.time_ms).collect();
        assert_eq!(first, vec![4, 5], "oldest evicted first");
    }
}
