//! Validation and characterisation reports (the paper's Tables 1–4).

use crate::models::SystemPowerModel;
use crate::testbed::Trace;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use tdp_counters::Subsystem;
use tdp_modeling::metrics::{error_summary, ErrorSummary};
use tdp_modeling::OnlineStats;
use tdp_workloads::{Workload, WorkloadClass};

/// Per-workload, per-subsystem model error (one row of Table 3/4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadErrors {
    /// The workload validated.
    pub workload: Workload,
    /// Error summaries ordered as [`Subsystem::ALL`].
    pub per_subsystem: [ErrorSummary; 5],
}

impl WorkloadErrors {
    /// The Equation-6 average error for one subsystem, percent.
    pub fn error_pct(&self, s: Subsystem) -> f64 {
        self.per_subsystem[s.index()].average_error_pct
    }
}

/// The full validation report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// One row per validated workload.
    pub rows: Vec<WorkloadErrors>,
}

impl ValidationReport {
    /// Validates `model` against every trace, producing one row per
    /// workload.
    ///
    /// All errors are plain Equation-6 relative errors against measured
    /// watts, matching the convention of the paper's Tables 3 and 4
    /// (the disk DC-offset-adjusted error appears only in the Figure-6
    /// discussion; [`error_summary_with_offset`](tdp_modeling::metrics::error_summary_with_offset)
    /// serves that use).
    pub fn validate(model: &SystemPowerModel, traces: &[Trace]) -> Self {
        let rows = traces
            .iter()
            .filter(|t| !t.is_empty())
            .map(|trace| {
                let per_subsystem = Subsystem::ALL
                    .iter()
                    .map(|&s| {
                        let modeled: Vec<f64> = trace
                            .records
                            .iter()
                            .map(|r| model.predict_subsystem(s, &r.input))
                            .collect();
                        let measured = trace.measured(s);
                        error_summary(&modeled, &measured)
                    })
                    .collect::<Vec<_>>()
                    .try_into()
                    .expect("exactly five subsystems");
                WorkloadErrors {
                    workload: trace.workload,
                    per_subsystem,
                }
            })
            .collect();
        Self { rows }
    }

    /// Mean error per subsystem over the workloads of `class`
    /// (the "Integer Average" / "FP Average" rows). `None` selects all
    /// workloads.
    pub fn class_average(&self, class: Option<WorkloadClass>) -> [f64; 5] {
        let mut out = [0.0; 5];
        for (i, &s) in Subsystem::ALL.iter().enumerate() {
            let mut stats = OnlineStats::new();
            for row in &self.rows {
                if class.is_none_or(|c| {
                    row.workload.class() == c
                        || row.workload.class() == WorkloadClass::Idle
                            && c == WorkloadClass::Integer
                }) {
                    stats.push(row.error_pct(s));
                }
            }
            out[i] = stats.mean();
        }
        out
    }

    /// Renders the report as a GitHub-flavoured markdown table (for
    /// EXPERIMENTS.md-style documents).
    pub fn render_markdown(&self) -> String {
        let mut out = String::from(
            "| workload | cpu | chipset | memory | io | disk |\n|---|---|---|---|---|---|\n",
        );
        let order = [
            Subsystem::Cpu,
            Subsystem::Chipset,
            Subsystem::Memory,
            Subsystem::Io,
            Subsystem::Disk,
        ];
        for row in &self.rows {
            let _ = write!(out, "| {} ", row.workload.name());
            for s in order {
                let _ = write!(out, "| {:.2}% ", row.error_pct(s));
            }
            out.push_str("|\n");
        }
        let avg = self.class_average(None);
        let _ = write!(out, "| **avg** ");
        for s in order {
            let _ = write!(out, "| **{:.2}%** ", avg[s.index()]);
        }
        out.push_str("|\n");
        out
    }

    /// Renders the report in the style of the paper's Tables 3 and 4.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "workload", "cpu", "chipset", "memory", "io", "disk"
        );
        let order = [
            Subsystem::Cpu,
            Subsystem::Chipset,
            Subsystem::Memory,
            Subsystem::Io,
            Subsystem::Disk,
        ];
        for row in &self.rows {
            let _ = write!(out, "{:<10}", row.workload.name());
            for s in order {
                let _ = write!(out, " {:>7.2}%", row.error_pct(s));
            }
            out.push('\n');
        }
        for (label, class) in [
            ("int avg", Some(WorkloadClass::Integer)),
            ("fp avg", Some(WorkloadClass::FloatingPoint)),
            ("all avg", None),
        ] {
            let avg = self.class_average(class);
            let _ = write!(out, "{label:<10}");
            for s in order {
                let _ = write!(out, " {:>7.2}%", avg[s.index()]);
            }
            out.push('\n');
        }
        out
    }
}

/// Power characterisation of one workload (one row of Tables 1 and 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadPowerRow {
    /// The workload.
    pub workload: Workload,
    /// Mean watts per subsystem, ordered as [`Subsystem::ALL`].
    pub mean_w: [f64; 5],
    /// Standard deviation per subsystem.
    pub std_w: [f64; 5],
    /// Mean total watts.
    pub total_w: f64,
}

/// The Table-1/Table-2 power characterisation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerCharacterization {
    /// One row per workload.
    pub rows: Vec<WorkloadPowerRow>,
}

impl PowerCharacterization {
    /// Characterises measured power across traces (no model involved).
    pub fn from_traces(traces: &[Trace]) -> Self {
        let rows = traces
            .iter()
            .filter(|t| !t.is_empty())
            .map(|trace| {
                let mut mean_w = [0.0; 5];
                let mut std_w = [0.0; 5];
                for (i, &s) in Subsystem::ALL.iter().enumerate() {
                    let stats: OnlineStats = trace.measured(s).into_iter().collect();
                    mean_w[i] = stats.mean();
                    std_w[i] = stats.population_std_dev();
                }
                let total: OnlineStats = trace.measured_total().into_iter().collect();
                WorkloadPowerRow {
                    workload: trace.workload,
                    mean_w,
                    std_w,
                    total_w: total.mean(),
                }
            })
            .collect();
        Self { rows }
    }

    /// Renders mean watts (Table 1 style).
    pub fn render_means(&self) -> String {
        self.render_inner(false)
    }

    /// Renders standard deviations (Table 2 style).
    pub fn render_std_devs(&self) -> String {
        self.render_inner(true)
    }

    /// Renders mean watts as a GitHub-flavoured markdown table.
    pub fn render_markdown(&self) -> String {
        let mut out = String::from(
            "| workload | cpu | chipset | memory | io | disk | total |\n|---|---|---|---|---|---|---|\n",
        );
        let order = [
            Subsystem::Cpu,
            Subsystem::Chipset,
            Subsystem::Memory,
            Subsystem::Io,
            Subsystem::Disk,
        ];
        for row in &self.rows {
            let _ = write!(out, "| {} ", row.workload.name());
            for s in order {
                let _ = write!(out, "| {:.2} ", row.mean_w[s.index()]);
            }
            let _ = writeln!(out, "| {:.1} |", row.total_w);
        }
        out
    }

    fn render_inner(&self, std: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "workload", "cpu", "chipset", "memory", "io", "disk", "total"
        );
        let order = [
            Subsystem::Cpu,
            Subsystem::Chipset,
            Subsystem::Memory,
            Subsystem::Io,
            Subsystem::Disk,
        ];
        for row in &self.rows {
            let _ = write!(out, "{:<10}", row.workload.name());
            let mut total = 0.0;
            for s in order {
                let v = if std {
                    row.std_w[s.index()]
                } else {
                    row.mean_w[s.index()]
                };
                total += v;
                let _ = write!(out, " {v:>8.2}");
            }
            if std {
                let _ = write!(out, " {:>8}", "-");
            } else {
                let _ = write!(out, " {total:>8.1}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::capture;
    use tdp_workloads::WorkloadSet;

    fn traces() -> Vec<Trace> {
        vec![
            capture(WorkloadSet::standard(Workload::Idle), 6, 11),
            capture(WorkloadSet::new(Workload::Vortex, 4, 500), 8, 12),
        ]
    }

    #[test]
    fn characterization_shapes() {
        let traces = traces();
        let c = PowerCharacterization::from_traces(&traces);
        assert_eq!(c.rows.len(), 2);
        let idle = &c.rows[0];
        assert!(idle.total_w > 120.0 && idle.total_w < 160.0);
        // vortex burns more CPU than idle.
        assert!(c.rows[1].mean_w[0] > idle.mean_w[0] + 20.0);
        let table = c.render_means();
        assert!(table.contains("vortex"));
        assert!(table.contains("total"));
        let t2 = c.render_std_devs();
        assert!(t2.contains("idle"));
    }

    #[test]
    fn validation_report_runs_and_renders() {
        let traces = traces();
        let model = SystemPowerModel::paper();
        let report = ValidationReport::validate(&model, &traces);
        assert_eq!(report.rows.len(), 2);
        let rendered = report.render();
        assert!(rendered.contains("int avg"));
        assert!(rendered.contains("fp avg"));
        for row in &report.rows {
            for &s in Subsystem::ALL {
                assert!(row.error_pct(s).is_finite());
            }
        }
    }

    #[test]
    fn markdown_renderers_emit_valid_tables() {
        let traces = traces();
        let c = PowerCharacterization::from_traces(&traces);
        let md = c.render_markdown();
        assert!(md.starts_with("| workload |"));
        assert_eq!(
            md.lines().count(),
            2 + c.rows.len(),
            "header + separator + one line per workload"
        );
        let model = SystemPowerModel::paper();
        let report = ValidationReport::validate(&model, &traces);
        let md = report.render_markdown();
        assert!(md.contains("**avg**"));
        assert!(md.lines().all(|l| l.starts_with('|')));
    }

    #[test]
    fn class_average_separates_int_and_fp() {
        let traces = vec![
            capture(WorkloadSet::new(Workload::Vortex, 2, 200), 4, 13),
            capture(WorkloadSet::new(Workload::Mesa, 2, 200), 4, 14),
        ];
        let model = SystemPowerModel::paper();
        let report = ValidationReport::validate(&model, &traces);
        let int_avg = report.class_average(Some(WorkloadClass::Integer));
        let fp_avg = report.class_average(Some(WorkloadClass::FloatingPoint));
        let all = report.class_average(None);
        // All averages are averages of the two rows.
        for i in 0..5 {
            let lo = int_avg[i].min(fp_avg[i]);
            let hi = int_avg[i].max(fp_avg[i]);
            assert!(all[i] >= lo - 1e-9 && all[i] <= hi + 1e-9);
        }
    }
}
