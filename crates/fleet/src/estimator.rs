//! Batched fleet estimation: evaluate one [`SystemPowerModel`] over
//! every machine in a window with column kernels.

use crate::batch::{col, SampleBatch, COLUMNS};
use crate::kernels::{add_assign, axpy, clamp_predictions, fill, quadratic, quadratic_acc};
use tdp_counters::{SampleSet, Subsystem};
use tdp_powermeter::SubsystemPower;
use trickledown::{MemoryInput, SystemPowerModel, SystemSample};

/// Output columns: five subsystems plus the precomputed total.
const OUT_COLUMNS: usize = 6;

const OUT_CPU: usize = 0;
const OUT_MEMORY: usize = 1;
const OUT_DISK: usize = 2;
const OUT_IO: usize = 3;
const OUT_CHIPSET: usize = 4;
const OUT_TOTAL: usize = 5;

/// Per-machine power estimates for one fleet window, stored as one
/// column per subsystem (plus the total) so downstream aggregation —
/// fleet sums, percentile scans, per-subsystem histograms — also runs
/// over contiguous memory.
#[derive(Debug, Clone, Default)]
pub struct FleetEstimates {
    cols: [Vec<f64>; OUT_COLUMNS],
    clamped: u64,
}

impl FleetEstimates {
    /// Machines estimated this window.
    pub fn len(&self) -> usize {
        self.cols[0].len()
    }

    /// Whether the window was empty.
    pub fn is_empty(&self) -> bool {
        self.cols[0].is_empty()
    }

    /// Estimated CPU watts, one entry per machine.
    pub fn cpu(&self) -> &[f64] {
        &self.cols[OUT_CPU]
    }

    /// Estimated memory watts per machine.
    pub fn memory(&self) -> &[f64] {
        &self.cols[OUT_MEMORY]
    }

    /// Estimated disk watts per machine.
    pub fn disk(&self) -> &[f64] {
        &self.cols[OUT_DISK]
    }

    /// Estimated I/O watts per machine.
    pub fn io(&self) -> &[f64] {
        &self.cols[OUT_IO]
    }

    /// Estimated chipset watts per machine.
    pub fn chipset(&self) -> &[f64] {
        &self.cols[OUT_CHIPSET]
    }

    /// Estimated total system watts per machine.
    pub fn total(&self) -> &[f64] {
        &self.cols[OUT_TOTAL]
    }

    /// One machine's estimate in the scalar representation.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is out of range.
    pub fn machine(&self, machine: usize) -> SubsystemPower {
        let mut p = SubsystemPower::default();
        p.set(Subsystem::Cpu, self.cols[OUT_CPU][machine]);
        p.set(Subsystem::Memory, self.cols[OUT_MEMORY][machine]);
        p.set(Subsystem::Disk, self.cols[OUT_DISK][machine]);
        p.set(Subsystem::Io, self.cols[OUT_IO][machine]);
        p.set(Subsystem::Chipset, self.cols[OUT_CHIPSET][machine]);
        p
    }

    /// Total estimated watts across the whole fleet.
    ///
    /// Reduced with [`crate::kernels::sum`]'s fixed four-accumulator
    /// association: identical across dispatch modes, a few ulp from a
    /// sequential sum.
    pub fn fleet_total(&self) -> f64 {
        crate::kernels::sum(&self.cols[OUT_TOTAL])
    }

    /// How many subsystem predictions this window had to be clamped to
    /// their model's valid output range (non-negative floor, calibrated
    /// ceiling). Non-zero means some machine reported event rates
    /// outside what the models were calibrated for — a degradation
    /// signal, not an error.
    pub fn clamped_predictions(&self) -> u64 {
        self.clamped
    }

    fn resize_rows(&mut self, machines: usize) {
        for c in &mut self.cols {
            c.resize(machines, 0.0);
        }
    }

    fn col_slices_mut(&mut self) -> [&mut [f64]; OUT_COLUMNS] {
        let mut it = self.cols.iter_mut();
        std::array::from_fn(|_| it.next().expect("6 columns").as_mut_slice())
    }
}

/// Evaluates the model over whole columns, returning how many
/// subsystem predictions had to be clamped to their valid range (a
/// pipeline-health signal: non-zero means some machine reported rates
/// outside what the models were calibrated for).
fn evaluate(
    model: &SystemPowerModel,
    cols: &[&[f64]; COLUMNS],
    out: &mut [&mut [f64]; OUT_COLUMNS],
) -> u64 {
    // Equation 1: N·halt + (active − halt)·Σactive + upc·Σupc.
    let cpu = &model.cpu;
    fill(out[OUT_CPU], 0.0);
    axpy(out[OUT_CPU], cpu.halt_w, cols[col::NUM_CPUS]);
    axpy(out[OUT_CPU], cpu.active_w - cpu.halt_w, cols[col::ACTIVE]);
    axpy(out[OUT_CPU], cpu.upc_w, cols[col::UPC]);

    // Equations 2/3: background + lin·Σx + quad·Σx², evaluated through
    // the shared `quad_poly` helper — bit-identical to the scalar
    // models on identical aggregates (see `tests/quad_crosscheck.rs`).
    let mem = &model.memory;
    let (x, x_sq) = match mem.input {
        MemoryInput::L3LoadMisses => (cols[col::L3], cols[col::L3_SQ]),
        MemoryInput::BusTransactions => (cols[col::BUS], cols[col::BUS_SQ]),
    };
    quadratic(
        out[OUT_MEMORY],
        mem.background_w,
        mem.lin,
        mem.quad,
        x,
        x_sq,
    );

    // Equation 4: the interrupt quadratic carries the DC term, the DMA
    // quadratic accumulates on top (same order as the scalar model).
    let disk = &model.disk;
    quadratic(
        out[OUT_DISK],
        disk.dc_w,
        disk.int_lin,
        disk.int_quad,
        cols[col::DISK_INT],
        cols[col::DISK_INT_SQ],
    );
    quadratic_acc(
        out[OUT_DISK],
        disk.dma_lin,
        disk.dma_quad,
        cols[col::DMA],
        cols[col::DMA_SQ],
    );

    // Equation 5.
    let io = &model.io;
    quadratic(
        out[OUT_IO],
        io.dc_w,
        io.int_lin,
        io.int_quad,
        cols[col::DEV_INT],
        cols[col::DEV_INT_SQ],
    );

    fill(out[OUT_CHIPSET], model.chipset.constant_w);

    // Saturate every subsystem to its valid range before totalling —
    // the same `clamp_watts(raw, dc + dynamic_peak()·n)` the scalar
    // models apply, so clamped rows stay bit-identical too. CPU and
    // chipset are linear/constant: floor only (infinite ceiling).
    let ncpus = cols[col::NUM_CPUS];
    let mut clamped = 0;
    clamped += clamp_predictions(out[OUT_CPU], f64::INFINITY, 0.0, ncpus);
    clamped += clamp_predictions(out[OUT_MEMORY], mem.background_w, mem.dynamic_peak(), ncpus);
    clamped += clamp_predictions(out[OUT_DISK], disk.dc_w, disk.dynamic_peak(), ncpus);
    clamped += clamp_predictions(out[OUT_IO], io.dc_w, io.dynamic_peak(), ncpus);
    clamped += clamp_predictions(out[OUT_CHIPSET], f64::INFINITY, 0.0, ncpus);

    // Total, accumulated in `Subsystem::ALL` order so it matches
    // `SubsystemPower::total()` on the reassembled scalar estimate.
    fill(out[OUT_TOTAL], 0.0);
    let [cpu_col, mem_col, disk_col, io_col, chipset_col, total] = out;
    add_assign(total, cpu_col);
    add_assign(total, chipset_col);
    add_assign(total, mem_col);
    add_assign(total, io_col);
    add_assign(total, disk_col);
    clamped
}

/// The fleet-scale counterpart of
/// [`trickledown::SystemPowerEstimator`]: one model, N machines per
/// window, allocation-free after the first window.
///
/// Per window the cycle is: [`begin_window`](Self::begin_window), one
/// [`push_sample_set`](Self::push_sample_set) per machine, then
/// [`estimate`](Self::estimate) — or hand the whole window's sets to
/// [`process_window`](Self::process_window).
///
/// # Example
///
/// ```
/// use tdp_fleet::FleetEstimator;
/// use tdp_simsys::{Machine, MachineConfig};
/// use trickledown::SystemPowerModel;
///
/// let mut machine = Machine::new(MachineConfig::default());
/// for _ in 0..1000 {
///     machine.tick();
/// }
/// let set = machine.read_counters();
///
/// let mut fleet = FleetEstimator::with_capacity(SystemPowerModel::paper(), 8);
/// fleet.begin_window();
/// for _ in 0..8 {
///     fleet.push_sample_set(&set);
/// }
/// let est = fleet.estimate();
/// assert_eq!(est.len(), 8);
/// assert!(est.fleet_total() > 8.0 * 100.0, "eight idle servers");
/// ```
#[derive(Debug, Clone)]
pub struct FleetEstimator {
    model: SystemPowerModel,
    batch: SampleBatch,
    estimates: FleetEstimates,
    windows: u64,
}

impl FleetEstimator {
    /// Creates an estimator for `model`.
    pub fn new(model: SystemPowerModel) -> Self {
        Self::with_capacity(model, 0)
    }

    /// Creates an estimator with columns pre-sized for `machines`, so
    /// even the first window allocates nothing on the push path.
    pub fn with_capacity(model: SystemPowerModel, machines: usize) -> Self {
        Self {
            model,
            batch: SampleBatch::with_capacity(machines),
            estimates: FleetEstimates::default(),
            windows: 0,
        }
    }

    /// The model in use.
    pub fn model(&self) -> &SystemPowerModel {
        &self.model
    }

    /// Replaces the model (e.g. with a freshly calibrated one from
    /// [`StreamingCalibrator`](crate::StreamingCalibrator)) without
    /// disturbing the column buffers.
    pub fn set_model(&mut self, model: SystemPowerModel) {
        self.model = model;
    }

    /// Windows estimated so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// The current window's ingested batch.
    pub fn batch(&self) -> &SampleBatch {
        &self.batch
    }

    /// Mutable access to the current window's batch, for external
    /// ingestion paths (`tdp-wire` ingest sizes the batch with
    /// [`SampleBatch::resize_rows`] and writes rows at fixed machine
    /// indices).
    pub fn batch_mut(&mut self) -> &mut SampleBatch {
        &mut self.batch
    }

    /// Estimates from the most recent window.
    pub fn estimates(&self) -> &FleetEstimates {
        &self.estimates
    }

    /// Starts a new window, discarding the previous window's samples
    /// (column buffers are retained).
    pub fn begin_window(&mut self) {
        self.batch.clear();
    }

    /// Ingests one machine's raw counter read into the current window.
    pub fn push_sample_set(&mut self, set: &SampleSet) {
        self.batch.push_sample_set(set);
    }

    /// Ingests one machine's pre-extracted sample.
    pub fn push_sample(&mut self, sample: &SystemSample) {
        self.batch.push_sample(sample);
    }

    /// Evaluates the model over every ingested machine, serially.
    pub fn estimate(&mut self) -> &FleetEstimates {
        self.estimates.resize_rows(self.batch.len());
        self.estimates.clamped = evaluate(
            &self.model,
            &self.batch.col_slices(),
            &mut self.estimates.col_slices_mut(),
        );
        self.windows += 1;
        &self.estimates
    }

    /// One whole window: [`begin_window`](Self::begin_window),
    /// [`push_sample_set`](Self::push_sample_set) for every set, then
    /// [`estimate`](Self::estimate).
    pub fn process_window(&mut self, sets: &[SampleSet]) -> &FleetEstimates {
        self.begin_window();
        for set in sets {
            self.push_sample_set(set);
        }
        self.estimate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trickledown::CpuRates;

    fn sample(machine: usize) -> SystemSample {
        let m = machine as f64;
        SystemSample {
            time_ms: 1000,
            window_ms: 1000,
            per_cpu: (0..4)
                .map(|c| CpuRates {
                    active_frac: ((m * 0.13 + c as f64 * 0.21) % 1.0),
                    fetched_upc: (m * 0.07 + c as f64 * 0.4) % 2.0,
                    l3_load_misses: (m * 1e-5) % 3e-3,
                    bus_tx_per_mcycle: (m * 37.0) % 9000.0,
                    dma_per_cycle: (m * 1e-4) % 0.02,
                    interrupts_per_cycle: (m * 3e-9) % 2e-8,
                    device_interrupts_per_cycle: (m * 2e-9) % 1.5e-8,
                    disk_interrupts_per_cycle: (m * 1e-9) % 0.8e-8,
                    tlb_per_cycle: 0.0,
                    uncacheable_per_cycle: 0.0,
                })
                .collect(),
        }
    }

    #[test]
    fn batched_estimates_match_scalar_model_predictions() {
        let model = SystemPowerModel::paper();
        let mut fleet = FleetEstimator::new(model.clone());
        fleet.begin_window();
        let samples: Vec<SystemSample> = (0..97).map(sample).collect();
        for s in &samples {
            fleet.push_sample(s);
        }
        let est = fleet.estimate();
        assert_eq!(est.len(), 97);
        for (i, s) in samples.iter().enumerate() {
            let scalar = model.predict(s);
            let batched = est.machine(i);
            for &sub in Subsystem::ALL {
                let a = scalar.get(sub);
                let b = batched.get(sub);
                assert!(
                    (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                    "machine {i} {sub:?}: scalar {a} vs batched {b}"
                );
            }
            assert!((scalar.total() - est.total()[i]).abs() < 1e-9 * scalar.total());
        }
    }

    #[test]
    fn fleet_total_is_the_column_sum() {
        let mut fleet = FleetEstimator::new(SystemPowerModel::paper());
        fleet.begin_window();
        for i in 0..10 {
            fleet.push_sample(&sample(i));
        }
        let est = fleet.estimate();
        let by_machines: f64 = (0..10).map(|i| est.machine(i).total()).sum();
        assert!((est.fleet_total() - by_machines).abs() < 1e-9);
    }

    #[test]
    fn empty_window_is_fine() {
        let mut fleet = FleetEstimator::new(SystemPowerModel::paper());
        fleet.begin_window();
        let est = fleet.estimate();
        assert!(est.is_empty());
        assert_eq!(est.fleet_total(), 0.0);
    }

    #[test]
    fn l3_memory_model_reads_the_l3_columns() {
        let mut model = SystemPowerModel::paper();
        model.memory = trickledown::MemoryPowerModel::paper_l3();
        let s = sample(5);
        let mut fleet = FleetEstimator::new(model.clone());
        fleet.begin_window();
        fleet.push_sample(&s);
        let est = fleet.estimate();
        let expect = model.predict(&s).get(Subsystem::Memory);
        assert!((est.memory()[0] - expect).abs() < 1e-9 * expect.abs().max(1.0));
    }
}
