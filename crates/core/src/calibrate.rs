//! Model calibration from training traces.
//!
//! The paper's discipline (§3.2.2): "For all subsystems, the power
//! models are trained using a single workload trace that offers high
//! utilization and variation. The validation is then performed using the
//! entire set of workloads." The default recipe mirrors the paper's
//! choices:
//!
//! * **CPU** — eight staggered `gcc` instances (Figure 2's trace);
//! * **memory** — staggered `mcf` (for the Equation-3 bus model; `mesa`
//!   trains the Equation-2 cache-miss variant, Figure 3);
//! * **disk and I/O** — the synthetic DiskLoad (Figures 6–7);
//! * **chipset** — the mean over the training traces (a constant).

use crate::models::{
    ChipsetPowerModel, CpuPowerModel, DiskPowerModel, IoPowerModel, MemoryInput, MemoryPowerModel,
    SystemPowerModel,
};
use crate::testbed::{capture, Trace};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use tdp_counters::Subsystem;
use tdp_modeling::FitError;
use tdp_workloads::{Workload, WorkloadSet};

/// The set of training traces the calibrator consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationSuite {
    /// High-variation CPU trace (paper: 8 × gcc, staggered).
    pub cpu: Trace,
    /// High-utilization memory trace (paper: mcf for the bus model,
    /// mesa for the cache-miss model).
    pub memory: Trace,
    /// Disk/I-O trace (paper: synthetic DiskLoad).
    pub disk_io: Trace,
}

impl CalibrationSuite {
    /// Captures the paper's training recipe on a fresh testbed.
    ///
    /// `ramp_seconds` controls the stagger between instance starts
    /// (paper: 30–60 s); total capture time scales with it. Use small
    /// values in tests, ≥20 s for real calibration.
    pub fn capture(seed: u64, ramp_seconds: u64) -> Self {
        let stagger_ms = ramp_seconds * 1000;
        // Idle lead-in anchors each model's DC term: "Without a
        // sufficiently large range of samples, complex quadratic
        // relationships may appear to be linear" (§3.2.1).
        let delay_ms = (stagger_ms / 2).max(3_000);
        let tail = 4 * ramp_seconds + 20;
        let cpu_set = WorkloadSet::new(Workload::Gcc, 8, stagger_ms).with_delay(delay_ms);
        let mem_set = WorkloadSet::new(Workload::Mcf, 8, stagger_ms).with_delay(delay_ms);
        let disk_set = WorkloadSet::new(Workload::DiskLoad, 4, stagger_ms / 2).with_delay(delay_ms);
        Self {
            cpu: capture(
                cpu_set,
                cpu_set.fully_ramped_ms() / 1000 + tail,
                seed ^ 0x01,
            ),
            memory: capture(
                mem_set,
                mem_set.fully_ramped_ms() / 1000 + tail,
                seed ^ 0x02,
            ),
            disk_io: capture(
                disk_set,
                disk_set.fully_ramped_ms() / 1000 + tail.max(40),
                seed ^ 0x03,
            ),
        }
    }
}

/// Error from [`Calibrator::calibrate`]: which subsystem failed, and
/// why.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationError {
    /// The subsystem whose fit failed.
    pub subsystem: Subsystem,
    /// The underlying fit error.
    pub source: FitError,
}

impl fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "calibrating the {} model failed: {}",
            self.subsystem, self.source
        )
    }
}

impl Error for CalibrationError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.source)
    }
}

/// Fits a [`SystemPowerModel`] from a [`CalibrationSuite`], with the
/// paper's final (Equation-3, bus-transaction) memory model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Calibrator;

impl Calibrator {
    /// The paper's calibration recipe.
    pub fn new() -> Self {
        Self
    }

    /// Fits all five subsystem models.
    ///
    /// # Errors
    ///
    /// Returns the first [`CalibrationError`] encountered; a training
    /// trace without variation in its subsystem's input (e.g. an idle
    /// disk trace) cannot be fitted.
    pub fn calibrate(
        &self,
        suite: &CalibrationSuite,
    ) -> Result<SystemPowerModel, CalibrationError> {
        let err =
            |subsystem: Subsystem| move |source: FitError| CalibrationError { subsystem, source };

        let cpu = CpuPowerModel::fit(&suite.cpu.inputs(), &suite.cpu.measured(Subsystem::Cpu))
            .map_err(err(Subsystem::Cpu))?;

        let memory = MemoryPowerModel::fit(
            MemoryInput::BusTransactions,
            &suite.memory.inputs(),
            &suite.memory.measured(Subsystem::Memory),
        )
        .map_err(err(Subsystem::Memory))?;

        let disk = DiskPowerModel::fit(
            &suite.disk_io.inputs(),
            &suite.disk_io.measured(Subsystem::Disk),
        )
        .map_err(err(Subsystem::Disk))?;

        let io = IoPowerModel::fit(
            &suite.disk_io.inputs(),
            &suite.disk_io.measured(Subsystem::Io),
        )
        .map_err(err(Subsystem::Io))?;

        let chipset_watts: Vec<f64> = suite
            .cpu
            .measured(Subsystem::Chipset)
            .into_iter()
            .chain(suite.memory.measured(Subsystem::Chipset))
            .chain(suite.disk_io.measured(Subsystem::Chipset))
            .collect();
        let chipset = ChipsetPowerModel::fit(&chipset_watts).map_err(err(Subsystem::Chipset))?;

        Ok(SystemPowerModel {
            cpu,
            memory,
            disk,
            io,
            chipset,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::SubsystemPowerModel as _;
    use crate::testbed::capture;

    // One small end-to-end calibration shared by the tests below (it is
    // the expensive part).
    fn calibrated() -> (CalibrationSuite, SystemPowerModel) {
        let suite = CalibrationSuite::capture(77, 3);
        let model = Calibrator::new().calibrate(&suite).expect("calibrates");
        (suite, model)
    }

    #[test]
    fn end_to_end_calibration_produces_sane_coefficients() {
        let (suite, model) = calibrated();
        // DC terms land near the physical idle powers.
        assert!(
            (5.0..14.0).contains(&model.cpu.halt_w),
            "halt_w {}",
            model.cpu.halt_w
        );
        assert!(
            (25.0..45.0).contains(&model.cpu.active_w),
            "active_w {}",
            model.cpu.active_w
        );
        assert!(model.cpu.upc_w > 0.5, "upc_w {}", model.cpu.upc_w);
        assert!(
            (24.0..34.0).contains(&model.memory.background_w),
            "memory background {}",
            model.memory.background_w
        );
        assert!(
            (19.0..24.0).contains(&model.disk.dc_w),
            "disk dc {}",
            model.disk.dc_w
        );
        assert!(
            (30.0..36.0).contains(&model.io.dc_w),
            "io dc {}",
            model.io.dc_w
        );
        assert!(
            (19.0..23.0).contains(&model.chipset.constant_w),
            "chipset {}",
            model.chipset.constant_w
        );

        // The fitted model predicts its own training traces decently.
        let cpu_pred: Vec<f64> = suite
            .cpu
            .inputs()
            .into_iter()
            .map(|s| model.cpu.predict(s))
            .collect();
        let err =
            tdp_modeling::metrics::average_error(&cpu_pred, &suite.cpu.measured(Subsystem::Cpu));
        assert!(err < 10.0, "cpu training error {err}%");
    }

    #[test]
    fn calibration_is_deterministic() {
        let a = CalibrationSuite::capture(5, 2);
        let b = CalibrationSuite::capture(5, 2);
        assert_eq!(a, b);
        let ma = Calibrator::new().calibrate(&a).unwrap();
        let mb = Calibrator::new().calibrate(&b).unwrap();
        assert_eq!(ma, mb);
        // Pins every fitted coefficient bit (the JSON round-trips f64
        // exactly): FNV-1a of the serialised model.
        let digest = ma
            .to_json()
            .unwrap()
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
        assert_eq!(
            digest, 0x7ac8_9b89_ae26_4623,
            "calibrated coefficients changed: {digest:#018x}"
        );
    }

    #[test]
    fn idle_only_suite_fails_with_named_subsystem() {
        let idle = capture(tdp_workloads::WorkloadSet::standard(Workload::Idle), 8, 4);
        let suite = CalibrationSuite {
            cpu: idle.clone(),
            memory: idle.clone(),
            disk_io: idle,
        };
        let err = Calibrator::new().calibrate(&suite).unwrap_err();
        // An idle machine offers no disk or memory variation; whichever
        // subsystem trips first, the error names it.
        assert!(err.to_string().contains(err.subsystem.name()));
        assert!(matches!(err.source, FitError::SingularSystem));
    }
}
