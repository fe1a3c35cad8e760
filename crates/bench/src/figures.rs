//! Figure experiments (the paper's Figures 2–7).
//!
//! Each figure is regenerated as a CSV time series plus a one-line
//! summary of the property the paper's figure demonstrates.

use crate::{write_csv, ExperimentConfig};
use std::path::PathBuf;
use tdp_counters::{PerfEvent, Subsystem};
use tdp_modeling::metrics::{
    average_error, average_error_with_offset, average_error_with_offset_deadband,
};
use tdp_workloads::{Workload, WorkloadSet};
use trickledown::testbed::{capture, Trace};
use trickledown::{MemoryInput, MemoryPowerModel, SubsystemPowerModel, SystemPowerModel};

/// Outcome of one figure regeneration.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Figure id, e.g. `"fig2"`.
    pub name: &'static str,
    /// Where the series CSV was written.
    pub csv_path: PathBuf,
    /// One-line result summary.
    pub summary: String,
}

fn ramped_set(cfg: &ExperimentConfig, w: Workload, instances: usize) -> WorkloadSet {
    WorkloadSet::new(w, instances, cfg.ramp_seconds * 1000)
        .with_delay((cfg.ramp_seconds * 500).max(2_000))
}

fn capture_ramp(cfg: &ExperimentConfig, w: Workload, salt: u64) -> Trace {
    let set = ramped_set(cfg, w, 8);
    capture(set, cfg.seconds_for(&set), cfg.seed ^ salt)
}

fn measured_vs_modeled(
    cfg: &ExperimentConfig,
    name: &'static str,
    trace: &Trace,
    subsystem: Subsystem,
    predict: impl Fn(&trickledown::SystemSample) -> f64,
) -> (PathBuf, Vec<f64>, Vec<f64>) {
    let measured = trace.measured(subsystem);
    let modeled: Vec<f64> = trace.records.iter().map(|r| predict(&r.input)).collect();
    let rows = trace
        .records
        .iter()
        .zip(&measured)
        .zip(&modeled)
        .map(|((r, &m), &p)| vec![r.measured.time_ms as f64 / 1000.0, m, p]);
    let path = write_csv(
        cfg,
        &format!("{name}.csv"),
        "seconds,measured_w,modeled_w",
        rows,
    );
    (path, measured, modeled)
}

/// Figure 2: four-CPU measured vs modeled power under 8 × gcc with
/// staggered starts (the CPU model's training shape; paper: 3.1% error).
pub fn fig2(cfg: &ExperimentConfig, model: &SystemPowerModel) -> FigureResult {
    let trace = capture_ramp(cfg, Workload::Gcc, 0x0f2);
    let (csv_path, measured, modeled) =
        measured_vs_modeled(cfg, "fig2_cpu_gcc", &trace, Subsystem::Cpu, |s| {
            model.cpu.predict(s)
        });
    let err = average_error(&modeled, &measured);
    FigureResult {
        name: "fig2",
        csv_path,
        summary: format!("4-CPU power, 8x gcc staggered: avg error {err:.2}% (paper: 3.1%)"),
    }
}

/// Figure 3: memory power under a mesa instance ramp, modeled from L3
/// misses (Equation 2, trained on the same trace; paper: ~1% error).
pub fn fig3(cfg: &ExperimentConfig) -> FigureResult {
    let trace = capture_ramp(cfg, Workload::Mesa, 0x0f3);
    let model = MemoryPowerModel::fit(
        MemoryInput::L3LoadMisses,
        &trace.inputs(),
        &trace.measured(Subsystem::Memory),
    )
    .expect("mesa ramp provides L3-miss variation");
    let (csv_path, measured, modeled) =
        measured_vs_modeled(cfg, "fig3_memory_l3_mesa", &trace, Subsystem::Memory, |s| {
            model.predict(s)
        });
    let err = average_error(&modeled, &measured);
    FigureResult {
        name: "fig3",
        csv_path,
        summary: format!(
            "memory power via L3 misses on mesa ramp: avg error {err:.2}% (paper: ~1%)"
        ),
    }
}

/// Figures 4 and 5 share one mcf instance-ramp trace.
///
/// * **Figure 4** plots prefetch vs non-prefetch bus transactions and
///   locates where the cache-miss (Equation 2) model starts failing.
/// * **Figure 5** shows the bus-transaction (Equation 3) model holding
///   on the same trace (paper: 2.2% error).
pub fn fig4_fig5(cfg: &ExperimentConfig) -> (FigureResult, FigureResult) {
    let trace = capture_ramp(cfg, Workload::Mcf, 0x0f4);
    let inputs = trace.inputs();
    let measured = trace.measured(Subsystem::Memory);
    let half = trace.records.len() / 2;

    // The paper trains the cache-miss model on mesa's well-behaved
    // traffic (Figure 3) and then watches it fail on mcf, where the
    // prefetcher hides a growing share of the demand misses from the
    // counters while their lines still cross the bus.
    let mesa = capture_ramp(cfg, Workload::Mesa, 0x0f3);
    let l3 = MemoryPowerModel::fit(
        MemoryInput::L3LoadMisses,
        &mesa.inputs(),
        &mesa.measured(Subsystem::Memory),
    )
    .expect("mesa ramp has L3-miss variation");
    let bus = MemoryPowerModel::fit(MemoryInput::BusTransactions, &inputs, &measured)
        .expect("mcf ramp has bus-transaction variation");

    // Figure 4 series: prefetch and non-prefetch bus transactions per
    // second, plus the L3 model's running error.
    let mut fail_at_s = None;
    let fig4_rows: Vec<Vec<f64>> = trace
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let prefetch: u64 = r.raw.total(PerfEvent::PrefetchBusTransactions).unwrap_or(0);
            let all: u64 = r.raw.total(PerfEvent::BusTransactionsAll).unwrap_or(0);
            let modeled = l3.predict(&r.input);
            let err = (modeled - measured[i]).abs() / measured[i] * 100.0;
            if err > 10.0 && fail_at_s.is_none() && i > 5 {
                fail_at_s = Some(r.measured.time_ms / 1000);
            }
            vec![
                r.measured.time_ms as f64 / 1000.0,
                (all - prefetch) as f64,
                prefetch as f64,
                err,
            ]
        })
        .collect();
    let fig4_path = write_csv(
        cfg,
        "fig4_bus_transactions_mcf.csv",
        "seconds,nonprefetch_bus_txns,prefetch_bus_txns,l3_model_error_pct",
        fig4_rows,
    );
    let l3_modeled: Vec<f64> = inputs.iter().map(|&s| l3.predict(s)).collect();
    let l3_err_late = average_error(&l3_modeled[half..], &measured[half..]);
    let fig4 = FigureResult {
        name: "fig4",
        csv_path: fig4_path,
        summary: match fail_at_s {
            Some(t) => format!(
                "cache-miss model fails at t≈{t}s as prefetch traffic grows \
                 (late-ramp error {l3_err_late:.1}%)"
            ),
            None => format!(
                "cache-miss model late-ramp error {l3_err_late:.1}% \
                 (no >10% failure point found)"
            ),
        },
    };

    let (fig5_path, m5, p5) =
        measured_vs_modeled(cfg, "fig5_memory_bus_mcf", &trace, Subsystem::Memory, |s| {
            bus.predict(s)
        });
    let err5 = average_error(&p5, &m5);
    let fig5 = FigureResult {
        name: "fig5",
        csv_path: fig5_path,
        summary: format!(
            "memory power via bus transactions on mcf: avg error {err5:.2}% (paper: 2.2%)"
        ),
    };
    (fig4, fig5)
}

/// Figures 6 and 7 share one DiskLoad trace.
///
/// * **Figure 6**: disk power via the DMA+interrupt model (paper: 1.75%
///   error after subtracting the 21.6 W DC offset).
/// * **Figure 7**: I/O power via the interrupt model (paper: <1% raw,
///   32% DC-adjusted).
pub fn fig6_fig7(cfg: &ExperimentConfig) -> (FigureResult, FigureResult) {
    let set = ramped_set(cfg, Workload::DiskLoad, 4);
    let trace = capture(set, cfg.seconds_for(&set).max(60), cfg.seed ^ 0x0f6);
    let inputs = trace.inputs();

    let disk = trickledown::DiskPowerModel::fit(&inputs, &trace.measured(Subsystem::Disk))
        .expect("DiskLoad exercises the disks");
    let io = trickledown::IoPowerModel::fit(&inputs, &trace.measured(Subsystem::Io))
        .expect("DiskLoad exercises the I/O chips");

    let (p6, m6, mod6) =
        measured_vs_modeled(cfg, "fig6_disk_diskload", &trace, Subsystem::Disk, |s| {
            disk.predict(s)
        });
    // Relative error after removing the 21.6 W DC term, over samples
    // whose dynamic power clears the sensor noise floor (~0.1 W).
    let err6 = average_error_with_offset_deadband(&mod6, &m6, disk.dc_offset(), 0.15);
    let fig6 = FigureResult {
        name: "fig6",
        csv_path: p6,
        summary: format!(
            "disk power via DMA+interrupts on DiskLoad: DC-adjusted avg error \
             {err6:.2}% (paper: 1.75%)"
        ),
    };

    let (p7, m7, mod7) = measured_vs_modeled(cfg, "fig7_io_diskload", &trace, Subsystem::Io, |s| {
        io.predict(s)
    });
    let err7 = average_error(&mod7, &m7);
    let err7_adj = average_error_with_offset(&mod7, &m7, io.dc_offset());
    let fig7 = FigureResult {
        name: "fig7",
        csv_path: p7,
        summary: format!(
            "I/O power via interrupts on DiskLoad: avg error {err7:.2}% raw \
             (paper: <1%), {err7_adj:.1}% DC-adjusted (paper: 32%)"
        ),
    };
    (fig6, fig7)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(tag: &str) -> ExperimentConfig {
        ExperimentConfig {
            seed: 99,
            trace_seconds: 20,
            ramp_seconds: 2,
            out_dir: std::env::temp_dir().join(format!("tdp-bench-fig-{tag}")),
        }
    }

    #[test]
    fn fig2_writes_trace_and_reports() {
        let r = fig2(&tiny_cfg("f2"), &SystemPowerModel::paper());
        assert_eq!(r.name, "fig2");
        assert!(r.csv_path.exists());
        assert!(r.summary.contains("avg error"));
    }

    #[test]
    fn fig3_trains_and_reports() {
        let r = fig3(&tiny_cfg("f3"));
        assert!(r.csv_path.exists());
        assert!(r.summary.contains("avg error"));
    }

    #[test]
    fn fig4_fig5_share_trace_and_report() {
        let (f4, f5) = fig4_fig5(&tiny_cfg("f45"));
        assert_eq!((f4.name, f5.name), ("fig4", "fig5"));
        assert!(f4.csv_path.exists());
        assert!(f5.csv_path.exists());
        assert!(f4.summary.contains("cache-miss model"));
        assert!(f5.summary.contains("avg error"));
    }

    #[test]
    fn fig6_fig7_share_trace_and_report() {
        let (f6, f7) = fig6_fig7(&tiny_cfg("f67"));
        assert!(f6.csv_path.exists());
        assert!(f7.csv_path.exists());
        assert!(f6.summary.contains("DC-adjusted"));
        assert!(f7.summary.contains("raw"));
    }
}
