//! Streaming calibration: per-window model refresh via recursive least
//! squares.
//!
//! The batch [`trickledown::Calibrator`] re-solves the normal equations
//! over the full training history every time — the right tool offline,
//! but a fleet controller that re-calibrates as measured power arrives
//! wants cost per window independent of history length. The
//! [`StreamingCalibrator`] keeps one
//! [`RecursiveLeastSquares`] estimator per subsystem, fed with exactly
//! the feature vectors the batch `fit` functions use, so the model it
//! produces after N windows matches a batch fit over the same N windows
//! (up to the batch path's vanishing ridge damping).

use crate::batch::{col, extract_sample, extract_set, COLUMNS};
use tdp_counters::{SampleSet, Subsystem};
use tdp_modeling::{FeatureMap, FitError, RecursiveLeastSquares};
use tdp_powermeter::SubsystemPower;
use trickledown::{
    CalibrationError, ChipsetPowerModel, CpuPowerModel, DiskPowerModel, IoPowerModel, MemoryInput,
    MemoryPowerModel, SystemPowerModel, SystemSample,
};

/// Streams `(sample, measured watts)` pairs and keeps an
/// always-current [`SystemPowerModel`].
///
/// # Example
///
/// ```
/// use tdp_fleet::StreamingCalibrator;
/// use trickledown::{CalibrationSuite, MemoryInput, SystemSample};
///
/// let suite = CalibrationSuite::capture(42, 2);
/// let mut cal = StreamingCalibrator::new(MemoryInput::BusTransactions);
/// for trace in [&suite.cpu, &suite.memory, &suite.disk_io] {
///     for record in &trace.records {
///         cal.observe(&record.input, &record.measured.watts)?;
///     }
/// }
/// let model = cal.model()?;
/// let check = &suite.cpu.records[0];
/// let err = (model.predict(&check.input).total()
///     - check.measured.watts.total())
///     .abs();
/// assert!(err < 0.3 * check.measured.watts.total());
/// # Ok::<(), trickledown::CalibrationError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StreamingCalibrator {
    memory_input: MemoryInput,
    /// CPUs per machine, latched from the first observation (the
    /// Equation-1 coefficient mapping needs it).
    num_cpus: Option<f64>,
    cpu: RecursiveLeastSquares,
    memory: RecursiveLeastSquares,
    disk: RecursiveLeastSquares,
    io: RecursiveLeastSquares,
    chipset_sum: f64,
    chipset_n: u64,
    /// Gather scratch for [`observe_set`](Self::observe_set).
    lanes: Vec<f64>,
}

impl StreamingCalibrator {
    /// Creates a calibrator; `memory_input` selects Equation 2 or 3.
    pub fn new(memory_input: MemoryInput) -> Self {
        Self {
            memory_input,
            num_cpus: None,
            cpu: RecursiveLeastSquares::new(FeatureMap::linear(2)),
            memory: RecursiveLeastSquares::new(FeatureMap::linear(2)),
            disk: RecursiveLeastSquares::new(FeatureMap::linear(4)),
            io: RecursiveLeastSquares::new(FeatureMap::linear(2)),
            chipset_sum: 0.0,
            chipset_n: 0,
            lanes: Vec::new(),
        }
    }

    /// Observations folded in so far.
    pub fn observations(&self) -> u64 {
        self.chipset_n
    }

    /// Folds in one machine-window: its extracted sample and the watts
    /// measured over the same window.
    ///
    /// # Errors
    ///
    /// [`CalibrationError`] naming the subsystem whose update rejected
    /// the input (non-finite values, in practice).
    pub fn observe(
        &mut self,
        sample: &SystemSample,
        measured: &SubsystemPower,
    ) -> Result<(), CalibrationError> {
        if self.num_cpus.is_none() {
            self.num_cpus = Some(sample.per_cpu.len() as f64);
        }
        self.observe_row(extract_sample(sample), measured)
    }

    /// Folds in one machine-window from a raw counter read.
    ///
    /// # Errors
    ///
    /// As [`observe`](Self::observe).
    pub fn observe_set(
        &mut self,
        set: &SampleSet,
        measured: &SubsystemPower,
    ) -> Result<(), CalibrationError> {
        if self.num_cpus.is_none() {
            self.num_cpus = Some(set.per_cpu.len() as f64);
        }
        let row = extract_set(set, &mut self.lanes);
        self.observe_row(row, measured)
    }

    fn observe_row(
        &mut self,
        row: [f64; COLUMNS],
        measured: &SubsystemPower,
    ) -> Result<(), CalibrationError> {
        let wrap =
            |subsystem: Subsystem| move |source: FitError| CalibrationError { subsystem, source };
        self.cpu
            .observe(
                &[row[col::ACTIVE], row[col::UPC]],
                measured.get(Subsystem::Cpu),
            )
            .map_err(wrap(Subsystem::Cpu))?;
        let (x, x_sq) = match self.memory_input {
            MemoryInput::L3LoadMisses => (row[col::L3], row[col::L3_SQ]),
            MemoryInput::BusTransactions => (row[col::BUS], row[col::BUS_SQ]),
        };
        self.memory
            .observe(&[x, x_sq], measured.get(Subsystem::Memory))
            .map_err(wrap(Subsystem::Memory))?;
        self.disk
            .observe(
                &[
                    row[col::DISK_INT],
                    row[col::DISK_INT_SQ],
                    row[col::DMA],
                    row[col::DMA_SQ],
                ],
                measured.get(Subsystem::Disk),
            )
            .map_err(wrap(Subsystem::Disk))?;
        self.io
            .observe(
                &[row[col::DEV_INT], row[col::DEV_INT_SQ]],
                measured.get(Subsystem::Io),
            )
            .map_err(wrap(Subsystem::Io))?;
        self.chipset_sum += measured.get(Subsystem::Chipset);
        self.chipset_n += 1;
        Ok(())
    }

    /// The model calibrated over everything observed so far.
    ///
    /// # Errors
    ///
    /// [`CalibrationError`] naming the first subsystem that cannot be
    /// fitted yet — too few windows, or no variation in its input (an
    /// idle-disk trace cannot pin the disk coefficients, exactly as in
    /// the batch calibrator).
    pub fn model(&self) -> Result<SystemPowerModel, CalibrationError> {
        let coeffs = |rls: &RecursiveLeastSquares, subsystem: Subsystem| {
            rls.model()
                .map(|m| m.coefficients().to_vec())
                .map_err(|source| CalibrationError { subsystem, source })
        };

        let c = coeffs(&self.cpu, Subsystem::Cpu)?;
        // total = N·halt + (active − halt)·Σactive + upc·Σupc — the
        // same unpacking as `CpuPowerModel::fit`.
        let halt_w = c[0] / self.num_cpus.unwrap_or(1.0).max(1.0);
        let cpu = CpuPowerModel {
            halt_w,
            active_w: halt_w + c[1],
            upc_w: c[2],
        };

        let m = coeffs(&self.memory, Subsystem::Memory)?;
        let memory = MemoryPowerModel {
            input: self.memory_input,
            background_w: m[0],
            lin: m[1],
            quad: m[2],
            valid_max: f64::INFINITY,
        };

        let d = coeffs(&self.disk, Subsystem::Disk)?;
        let disk = DiskPowerModel {
            dc_w: d[0],
            int_lin: d[1],
            int_quad: d[2],
            dma_lin: d[3],
            dma_quad: d[4],
            int_valid_max: f64::INFINITY,
            dma_valid_max: f64::INFINITY,
        };

        let i = coeffs(&self.io, Subsystem::Io)?;
        let io = IoPowerModel {
            dc_w: i[0],
            int_lin: i[1],
            int_quad: i[2],
            valid_max: f64::INFINITY,
        };

        if self.chipset_n == 0 {
            return Err(CalibrationError {
                subsystem: Subsystem::Chipset,
                source: FitError::NotEnoughSamples {
                    samples: 0,
                    coefficients: 1,
                },
            });
        }
        let chipset = ChipsetPowerModel {
            constant_w: self.chipset_sum / self.chipset_n as f64,
        };

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
    use trickledown::CpuRates;

    fn varied_sample(i: usize) -> SystemSample {
        let m = i as f64;
        SystemSample {
            time_ms: 1000 * i as u64,
            window_ms: 1000,
            per_cpu: (0..4)
                .map(|c| CpuRates {
                    active_frac: ((m * 0.17 + c as f64 * 0.23) % 1.0),
                    fetched_upc: (m * 0.11 + c as f64 * 0.31) % 2.5,
                    bus_tx_per_mcycle: (m * 53.0 + c as f64 * 17.0) % 8000.0,
                    dma_per_cycle: (m * 3e-4 + c as f64 * 1e-4) % 0.03,
                    device_interrupts_per_cycle: (m * 2.3e-9 + c as f64 * 1e-9) % 1.4e-8,
                    disk_interrupts_per_cycle: (m * 1.7e-9 + c as f64 * 0.5e-9) % 0.9e-8,
                    ..CpuRates::default()
                })
                .collect(),
        }
    }

    #[test]
    fn streaming_fit_recovers_the_generating_model() {
        let truth = SystemPowerModel::paper();
        let mut cal = StreamingCalibrator::new(MemoryInput::BusTransactions);
        for i in 0..200 {
            let s = varied_sample(i);
            cal.observe(&s, &truth.predict(&s)).unwrap();
        }
        assert_eq!(cal.observations(), 200);
        let fitted = cal.model().unwrap();
        for i in 200..220 {
            let s = varied_sample(i);
            let a = truth.predict(&s).total();
            let b = fitted.predict(&s).total();
            assert!((a - b).abs() < 1e-6 * a, "window {i}: {a} vs {b}");
        }
    }

    #[test]
    fn streaming_matches_the_batch_model_fits() {
        let truth = SystemPowerModel::paper();
        let samples: Vec<SystemSample> = (0..150).map(varied_sample).collect();
        let mut cal = StreamingCalibrator::new(MemoryInput::BusTransactions);
        for s in &samples {
            cal.observe(s, &truth.predict(s)).unwrap();
        }
        let streamed = cal.model().unwrap();

        let cpu_watts: Vec<f64> = samples
            .iter()
            .map(|s| truth.predict(s).get(Subsystem::Cpu))
            .collect();
        let batch_cpu = CpuPowerModel::fit(&samples, &cpu_watts).unwrap();
        // The batch path adds a 1e-9 relative ridge; agreement is tight
        // but not bit-exact.
        assert!((streamed.cpu.halt_w - batch_cpu.halt_w).abs() < 1e-5);
        assert!((streamed.cpu.active_w - batch_cpu.active_w).abs() < 1e-5);
        assert!((streamed.cpu.upc_w - batch_cpu.upc_w).abs() < 1e-5);
    }

    #[test]
    fn no_variation_is_a_named_calibration_error() {
        let truth = SystemPowerModel::paper();
        let mut cal = StreamingCalibrator::new(MemoryInput::BusTransactions);
        // All-idle windows: disk/io inputs never move.
        let idle = SystemSample {
            time_ms: 1000,
            window_ms: 1000,
            per_cpu: vec![CpuRates::default(); 4],
        };
        for _ in 0..10 {
            cal.observe(&idle, &truth.predict(&idle)).unwrap();
        }
        let err = cal.model().unwrap_err();
        assert!(matches!(err.source, FitError::SingularSystem));
    }

    #[test]
    fn empty_calibrator_reports_not_enough_samples() {
        let cal = StreamingCalibrator::new(MemoryInput::BusTransactions);
        let err = cal.model().unwrap_err();
        assert!(matches!(err.source, FitError::NotEnoughSamples { .. }));
    }
}
