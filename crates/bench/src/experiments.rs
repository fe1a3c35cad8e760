//! Table experiments (the paper's Tables 1–4) and the coefficient
//! comparison.

use crate::{write_csv, ExperimentConfig};
use tdp_counters::Subsystem;
use trickledown::testbed::Trace;
use trickledown::{PowerCharacterization, SystemPowerModel, ValidationReport};

/// Runs Table 1 (mean subsystem power) and Table 2 (standard
/// deviations), returning the rendered tables and writing CSVs.
pub fn tables_1_and_2(cfg: &ExperimentConfig, traces: &[Trace]) -> (String, String) {
    let c = PowerCharacterization::from_traces(traces);
    let rows = c.rows.iter().map(|r| {
        let mut row = Vec::with_capacity(11);
        row.extend_from_slice(&r.mean_w);
        row.extend_from_slice(&r.std_w);
        row.push(r.total_w);
        row
    });
    write_csv(
        cfg,
        "table1_table2.csv",
        "cpu_mean,chipset_mean,memory_mean,io_mean,disk_mean,\
         cpu_std,chipset_std,memory_std,io_std,disk_std,total_mean",
        rows,
    );
    (c.render_means(), c.render_std_devs())
}

/// Runs Tables 3 and 4 (per-workload model error, split integer vs FP),
/// returning the rendered report.
pub fn tables_3_and_4(
    cfg: &ExperimentConfig,
    model: &SystemPowerModel,
    traces: &[Trace],
) -> (ValidationReport, String) {
    let report = ValidationReport::validate(model, traces);
    let rows = report.rows.iter().map(|r| {
        Subsystem::ALL
            .iter()
            .map(|&s| r.error_pct(s))
            .collect::<Vec<f64>>()
    });
    write_csv(
        cfg,
        "table3_table4.csv",
        "cpu_err_pct,chipset_err_pct,memory_err_pct,io_err_pct,disk_err_pct",
        rows,
    );
    let rendered = report.render();
    (report, rendered)
}

/// Summary line comparing the reproduction's headline number against
/// the paper's: average per-subsystem error across all workloads.
pub fn headline(report: &ValidationReport) -> String {
    let avg = report.class_average(None);
    let worst = avg.iter().cloned().fold(0.0f64, f64::max);
    format!(
        "average error per subsystem: cpu {:.2}%  chipset {:.2}%  memory {:.2}%  \
         io {:.2}%  disk {:.2}%  (paper: <9% per subsystem; worst here {:.2}%)",
        avg[Subsystem::Cpu.index()],
        avg[Subsystem::Chipset.index()],
        avg[Subsystem::Memory.index()],
        avg[Subsystem::Io.index()],
        avg[Subsystem::Disk.index()],
        worst
    )
}

/// Renders fitted-vs-published coefficients (the Equations 1–5
/// comparison).
pub fn coefficients(model: &SystemPowerModel) -> String {
    let paper = SystemPowerModel::paper();
    let mut out = String::new();
    out.push_str("coefficient                 fitted            paper\n");
    let mut row = |name: &str, fitted: f64, published: f64| {
        out.push_str(&format!("{name:<24} {fitted:>12.4e} {published:>14.4e}\n"));
    };
    row("cpu.halt_w", model.cpu.halt_w, paper.cpu.halt_w);
    row("cpu.active_w", model.cpu.active_w, paper.cpu.active_w);
    row("cpu.upc_w", model.cpu.upc_w, paper.cpu.upc_w);
    row(
        "memory.background_w",
        model.memory.background_w,
        paper.memory.background_w,
    );
    row("memory.lin", model.memory.lin, paper.memory.lin);
    row("memory.quad", model.memory.quad, paper.memory.quad);
    row("disk.dc_w", model.disk.dc_w, paper.disk.dc_w);
    row("disk.int_lin", model.disk.int_lin, paper.disk.int_lin);
    row("disk.int_quad", model.disk.int_quad, paper.disk.int_quad);
    row("disk.dma_lin", model.disk.dma_lin, paper.disk.dma_lin);
    row("disk.dma_quad", model.disk.dma_quad, paper.disk.dma_quad);
    row("io.dc_w", model.io.dc_w, paper.io.dc_w);
    row("io.int_lin", model.io.int_lin, paper.io.int_lin);
    row("io.int_quad", model.io.int_quad, paper.io.int_quad);
    row(
        "chipset.constant_w",
        model.chipset.constant_w,
        paper.chipset.constant_w,
    );
    out
}

/// Checks the report for the paper's qualitative claims; returns a list
/// of `(claim, holds)` pairs. Used by `repro verify-shape` and the
/// integration tests.
pub fn shape_checks(
    characterization: &PowerCharacterization,
    report: &ValidationReport,
) -> Vec<(String, bool)> {
    let mut checks = Vec::new();
    let find = |name: &str| {
        characterization
            .rows
            .iter()
            .find(|r| r.workload.name() == name)
    };

    if let (Some(idle), Some(peak)) = (
        find("idle"),
        characterization
            .rows
            .iter()
            .max_by(|a, b| a.total_w.partial_cmp(&b.total_w).unwrap()),
    ) {
        let frac = idle.total_w / peak.total_w;
        checks.push((
            format!(
                "idle is ~46% of peak total power (got {:.0}%)",
                frac * 100.0
            ),
            (0.35..0.60).contains(&frac),
        ));
    }

    // CPU dominates SPEC workloads (>53% of total in the paper).
    for name in ["gcc", "mcf", "vortex", "wupwise"] {
        if let Some(row) = find(name) {
            let frac = row.mean_w[Subsystem::Cpu.index()] / row.total_w;
            checks.push((
                format!("{name}: CPU >45% of total (got {:.0}%)", frac * 100.0),
                frac > 0.45,
            ));
        }
    }

    // Memory ordering: lucas > mesa (46.4 vs 33.9 in the paper).
    if let (Some(lucas), Some(mesa)) = (find("lucas"), find("mesa")) {
        let li = lucas.mean_w[Subsystem::Memory.index()];
        let me = mesa.mean_w[Subsystem::Memory.index()];
        checks.push((
            format!("lucas memory ({li:.1} W) > mesa memory ({me:.1} W)"),
            li > me,
        ));
    }

    // dbt-2 barely above idle CPU.
    if let (Some(dbt2), Some(idle)) = (find("dbt-2"), find("idle")) {
        let d = dbt2.mean_w[Subsystem::Cpu.index()];
        let i = idle.mean_w[Subsystem::Cpu.index()];
        checks.push((
            format!("dbt-2 CPU ({d:.1} W) within 35 W of idle ({i:.1} W)"),
            d - i < 35.0,
        ));
    }

    // DiskLoad leads the I/O and disk columns.
    if let Some(dl) = find("diskload") {
        let io_max = characterization
            .rows
            .iter()
            .map(|r| r.mean_w[Subsystem::Io.index()])
            .fold(0.0f64, f64::max);
        checks.push((
            "diskload has the highest I/O power".to_owned(),
            dl.mean_w[Subsystem::Io.index()] >= io_max - 1e-9,
        ));
    }

    // Disk dynamic range is tiny over a large DC offset.
    if let (Some(dl), Some(idle)) = (find("diskload"), find("idle")) {
        let delta = dl.mean_w[Subsystem::Disk.index()] - idle.mean_w[Subsystem::Disk.index()];
        checks.push((
            format!("diskload disk power only +{delta:.2} W over idle (<20%)"),
            delta > 0.0 && delta < 0.2 * idle.mean_w[Subsystem::Disk.index()],
        ));
    }

    // Model errors: all-workload average <9%-ish per subsystem.
    let avg = report.class_average(None);
    for &s in Subsystem::ALL {
        checks.push((
            format!(
                "{s} all-workload average error {:.2}% < 12%",
                avg[s.index()]
            ),
            avg[s.index()] < 12.0,
        ));
    }

    // The CPU model's worst workload is mcf (speculation power).
    if let Some(worst) = report.rows.iter().max_by(|a, b| {
        a.error_pct(Subsystem::Cpu)
            .partial_cmp(&b.error_pct(Subsystem::Cpu))
            .unwrap()
    }) {
        checks.push((
            format!(
                "CPU model's worst workload is mcf (got {} at {:.1}%)",
                worst.workload.name(),
                worst.error_pct(Subsystem::Cpu)
            ),
            worst.workload.name() == "mcf",
        ));
    }

    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture_workload;
    use tdp_workloads::Workload;

    #[test]
    fn coefficients_table_mentions_all_models() {
        let s = coefficients(&SystemPowerModel::paper());
        for name in ["cpu.halt_w", "memory.lin", "disk.dma_quad", "io.int_lin"] {
            assert!(s.contains(name), "{name} missing");
        }
    }

    #[test]
    fn tables_1_and_2_write_csv_and_render() {
        let cfg = ExperimentConfig {
            trace_seconds: 6,
            ramp_seconds: 1,
            out_dir: std::env::temp_dir().join("tdp-bench-tables"),
            ..ExperimentConfig::quick()
        };
        let traces = vec![
            capture_workload(&cfg, Workload::Idle),
            capture_workload(&cfg, Workload::DiskLoad),
        ];
        let (means, std_devs) = tables_1_and_2(&cfg, &traces);
        for table in [&means, &std_devs] {
            assert!(table.starts_with("workload"), "{table}");
            assert!(table.contains("idle") && table.contains("diskload"));
        }
        let csv = std::fs::read_to_string(cfg.out_dir.join("table1_table2.csv")).unwrap();
        assert_eq!(
            csv.lines().count(),
            1 + traces.len(),
            "header + one row each"
        );
        assert!(csv.starts_with("cpu_mean,"));
    }

    #[test]
    fn shape_checks_produce_verdicts_on_tiny_run() {
        let cfg = ExperimentConfig {
            trace_seconds: 6,
            ramp_seconds: 1,
            out_dir: std::env::temp_dir().join("tdp-bench-shape"),
            ..ExperimentConfig::quick()
        };
        let traces = vec![
            capture_workload(&cfg, Workload::Idle),
            capture_workload(&cfg, Workload::Mesa),
        ];
        let c = PowerCharacterization::from_traces(&traces);
        let model = SystemPowerModel::paper();
        let report = ValidationReport::validate(&model, &traces);
        let checks = shape_checks(&c, &report);
        assert!(!checks.is_empty());
        // lucas/mesa and dbt-2 checks are skipped without their traces.
        assert!(checks.iter().all(|(label, _)| !label.is_empty()));
    }
}
