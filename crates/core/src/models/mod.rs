//! The five subsystem power models (the paper's Equations 1–5).
//!
//! Every model consumes only CPU-visible event rates ([`SystemSample`])
//! and produces watts for one subsystem. Each offers two constructors:
//!
//! * `paper()` — the coefficients published in the paper, kept verbatim
//!   for reference and for coefficient-comparison experiments. Note that
//!   the paper's typography loses parenthesisation: for the shared
//!   subsystems (memory, disk, I/O) the DC term is a *system* constant,
//!   not summed per CPU — idle memory power is 28 W, not 4 × 28 W. The
//!   constructors implement that reading.
//! * `fit(samples, watts)` — least-squares calibration against measured
//!   traces from *this* testbed, which is what validation uses (our
//!   simulated server is not the authors' hardware, so published
//!   absolute coefficients are not expected to transfer).

mod chipset;
mod cpu;
mod disk;
mod io;
mod memory;

pub use chipset::ChipsetPowerModel;
pub use cpu::CpuPowerModel;
pub use disk::DiskPowerModel;
pub use io::IoPowerModel;
pub use memory::{MemoryInput, MemoryPowerModel};

use crate::input::SystemSample;
use serde::{Deserialize, Serialize};
use tdp_counters::Subsystem;
use tdp_modeling::FitError;
use tdp_powermeter::SubsystemPower;

/// The shared quadratic form of Equations 2–5:
/// `dc + lin·x + quad·x_sq`, with the squared input passed explicitly.
///
/// Every off-CPU subsystem model (memory, disk, I/O) is this one
/// polynomial over machine-aggregated inputs, and `tdp-fleet`'s column
/// kernels evaluate the very same expression over whole fleet columns.
/// Keeping the arithmetic in one `#[inline]` function makes the scalar
/// and batched paths agree **bit for bit**: both compute
/// `(dc + lin·x) + quad·x_sq` in exactly this association, so identical
/// inputs give identical output bits (pinned by
/// `crates/fleet/tests/quad_crosscheck.rs`).
///
/// `x_sq` is a parameter rather than `x * x` so callers that carry the
/// squared aggregate separately (the fleet columns materialise Σx² at
/// ingest) evaluate the same expression as callers that square inline.
#[inline]
pub fn quad_poly(dc: f64, lin: f64, quad: f64, x: f64, x_sq: f64) -> f64 {
    dc + lin * x + quad * x_sq
}

/// Clamps one subsystem prediction to `[0, ceil]` watts.
///
/// The paper's quadratics (Equations 2–5) are fits, valid only inside
/// the calibrated input range — the paper itself documents Equation 2
/// "failing under extreme cases" at high utilization (§4.2.2), and the
/// published disk/IO coefficients have *negative* curvature, so rates
/// past the parabola's vertex drive the raw polynomial below zero. A
/// power estimate below 0 W (or above what the calibrated range can
/// produce) is physically meaningless, so predictions are saturated
/// instead of silently reported.
///
/// The comparison sequence here (`< 0`, then `> ceil`, else identity)
/// is the single definition both the scalar models and `tdp-fleet`'s
/// column kernels apply, keeping the two paths bit-identical.
#[inline]
pub fn clamp_watts(w: f64, ceil: f64) -> f64 {
    if w < 0.0 {
        0.0
    } else if w > ceil {
        ceil
    } else {
        w
    }
}

/// Maximum of the per-CPU dynamic term `lin·x + quad·x²` over the
/// calibrated input range `x ∈ [0, x_max]` (never below 0: `x = 0` is
/// always in range).
///
/// This is the building block of a model's prediction ceiling: with
/// per-CPU inputs confined to `[0, x_max]`, the machine-aggregated
/// dynamic contribution `lin·Σxᵢ + quad·Σxᵢ²` cannot exceed
/// `n · dynamic_peak_per_cpu(...)`, because it decomposes as
/// `Σᵢ (lin·xᵢ + quad·xᵢ²)` — one bounded term per CPU. For an
/// unbounded range (`x_max = ∞`) with negative curvature the peak is
/// the parabola's vertex, so even uncalibrated paper models get a
/// finite ceiling that valid data can never cross; with non-negative
/// curvature the peak is unbounded and the ceiling degenerates to
/// "non-negative floor only".
pub fn dynamic_peak_per_cpu(lin: f64, quad: f64, x_max: f64) -> f64 {
    let f = |x: f64| lin * x + quad * x * x;
    let mut peak = 0.0f64;
    if x_max.is_finite() {
        peak = peak.max(f(x_max));
    } else if quad > 0.0 || (quad == 0.0 && lin > 0.0) {
        return f64::INFINITY;
    }
    if quad < 0.0 {
        let vertex = -lin / (2.0 * quad);
        if vertex > 0.0 && vertex < x_max {
            peak = peak.max(f(vertex));
        }
    }
    peak
}

/// Serde default for validity-range fields: unbounded.
///
/// `serde_json` cannot represent `f64::INFINITY` (it serialises to
/// `null`), so unbounded ranges are *skipped* on write and restored by
/// this default on read — see the `skip_serializing_if` attributes on
/// the model structs.
pub(crate) fn unbounded() -> f64 {
    f64::INFINITY
}

/// Serde skip predicate paired with [`unbounded`].
#[allow(clippy::trivially_copy_pass_by_ref)] // signature fixed by serde
pub(crate) fn is_unbounded(v: &f64) -> bool {
    v.is_infinite()
}

/// A power model for one subsystem, driven purely by CPU performance
/// events.
///
/// This trait is sealed: the five implementations are the paper's five
/// subsystems, and [`SystemPowerModel`] composes them by value.
pub trait SubsystemPowerModel: sealed::Sealed {
    /// Which subsystem this model predicts.
    fn subsystem(&self) -> Subsystem;

    /// Predicted watts for one sampling window.
    fn predict(&self, sample: &SystemSample) -> f64;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::CpuPowerModel {}
    impl Sealed for super::MemoryPowerModel {}
    impl Sealed for super::DiskPowerModel {}
    impl Sealed for super::IoPowerModel {}
    impl Sealed for super::ChipsetPowerModel {}
}

/// The composed complete-system model: one sub-model per subsystem.
///
/// # Example
///
/// ```
/// use trickledown::{SystemPowerModel, SystemSample};
/// use tdp_simsys::{Machine, MachineConfig};
///
/// let model = SystemPowerModel::paper();
/// let mut machine = Machine::new(MachineConfig::default());
/// for _ in 0..1000 { machine.tick(); }
/// let sample = SystemSample::from_sample_set(machine.read_counters());
/// let estimate = model.predict(&sample);
/// // An idle machine: every subsystem near its DC term.
/// assert!(estimate.total() > 100.0 && estimate.total() < 200.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemPowerModel {
    /// Equation 1.
    pub cpu: CpuPowerModel,
    /// Equation 2 or 3 (selectable input).
    pub memory: MemoryPowerModel,
    /// Equation 4.
    pub disk: DiskPowerModel,
    /// Equation 5.
    pub io: IoPowerModel,
    /// The constant chipset model.
    pub chipset: ChipsetPowerModel,
}

impl SystemPowerModel {
    /// The model with the paper's published coefficients.
    pub fn paper() -> Self {
        Self {
            cpu: CpuPowerModel::paper(),
            memory: MemoryPowerModel::paper_bus(),
            disk: DiskPowerModel::paper(),
            io: IoPowerModel::paper(),
            chipset: ChipsetPowerModel::paper(),
        }
    }

    /// Predicts all five subsystems for one window.
    pub fn predict(&self, sample: &SystemSample) -> SubsystemPower {
        let mut p = SubsystemPower::default();
        p.set(Subsystem::Cpu, self.cpu.predict(sample));
        p.set(Subsystem::Memory, self.memory.predict(sample));
        p.set(Subsystem::Disk, self.disk.predict(sample));
        p.set(Subsystem::Io, self.io.predict(sample));
        p.set(Subsystem::Chipset, self.chipset.predict(sample));
        p
    }

    /// Predicted watts for one named subsystem.
    pub fn predict_subsystem(&self, s: Subsystem, sample: &SystemSample) -> f64 {
        match s {
            Subsystem::Cpu => self.cpu.predict(sample),
            Subsystem::Memory => self.memory.predict(sample),
            Subsystem::Disk => self.disk.predict(sample),
            Subsystem::Io => self.io.predict(sample),
            Subsystem::Chipset => self.chipset.predict(sample),
        }
    }

    /// Serialises to pretty JSON (for persistence of calibrated
    /// coefficients).
    ///
    /// # Errors
    ///
    /// Propagates `serde_json` serialisation failures (practically
    /// impossible for this type).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Loads a model previously saved with
    /// [`to_json`](SystemPowerModel::to_json).
    ///
    /// # Errors
    ///
    /// Returns the `serde_json` error if the input is not a valid model.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// Shared fitting plumbing: least-squares on system-level aggregate
/// features with a fixed feature extractor.
///
/// Generic over owned (`&[SystemSample]`) and borrowed
/// (`&[&SystemSample]`) sample slices so callers can fit straight from
/// a captured [`Trace`](crate::testbed::Trace) without cloning records.
pub(crate) fn fit_linear_features<S: std::borrow::Borrow<SystemSample>>(
    samples: &[S],
    watts: &[f64],
    extract: impl Fn(&SystemSample) -> Vec<f64>,
    n_features: usize,
) -> Result<Vec<f64>, FitError> {
    let xs: Vec<Vec<f64>> = samples.iter().map(|s| extract(s.borrow())).collect();
    debug_assert!(xs.iter().all(|r| r.len() == n_features));
    let map = tdp_modeling::FeatureMap::linear(n_features);
    let model = tdp_modeling::fit_least_squares_ridge(&map, &xs, watts, 1e-9)?;
    Ok(model.coefficients().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::CpuRates;

    pub(crate) fn idle_sample(num_cpus: usize) -> SystemSample {
        SystemSample {
            time_ms: 1000,
            window_ms: 1000,
            per_cpu: vec![
                CpuRates {
                    active_frac: 0.01,
                    fetched_upc: 0.01,
                    ..CpuRates::default()
                };
                num_cpus
            ],
        }
    }

    #[test]
    fn paper_model_idle_prediction_matches_table1_scale() {
        let model = SystemPowerModel::paper();
        let p = model.predict(&idle_sample(4));
        assert!((p.get(Subsystem::Cpu) - 38.4).abs() < 3.0);
        assert!((p.get(Subsystem::Chipset) - 19.9).abs() < 0.01);
        assert!((p.get(Subsystem::Memory) - 29.2).abs() < 1.5);
        assert!((p.get(Subsystem::Disk) - 21.6).abs() < 0.1);
        assert!((p.get(Subsystem::Io) - 32.7).abs() < 0.1);
    }

    #[test]
    fn json_roundtrip() {
        let model = SystemPowerModel::paper();
        let json = model.to_json().unwrap();
        let back = SystemPowerModel::from_json(&json).unwrap();
        assert_eq!(model, back);
    }

    #[test]
    fn predict_subsystem_agrees_with_predict() {
        let model = SystemPowerModel::paper();
        let s = idle_sample(4);
        let all = model.predict(&s);
        for &sub in Subsystem::ALL {
            assert_eq!(model.predict_subsystem(sub, &s), all.get(sub));
        }
    }
}
