//! The event-selection experiment: reproduce how the paper chose its
//! six events.
//!
//! "Though the initial selection of performance events for modeling is
//! dictated by an understanding of subsystem interactions … the final
//! selection of which event type(s) to use is determined by the average
//! error rate" (§3.3). For each subsystem this experiment fits every
//! candidate-event subset (size ≤ 2) under every form, validates on a
//! *different* workload, and reports the ranking — the paper's Equations
//! 1–5 inputs should win their columns.

use crate::{capture_workload, ExperimentConfig};
use std::fmt::Write as _;
use tdp_counters::Subsystem;
use tdp_modeling::ModelSelector;
use tdp_workloads::Workload;
use trickledown::testbed::Trace;
use trickledown::SystemSample;

/// The candidate events offered to the selector, with the scale factors
/// that keep their magnitudes comparable (pure presentation; the OLS
/// solver equilibrates internally anyway).
const CANDIDATES: &[&str] = &[
    "active_frac",
    "fetched_upc",
    "l3_load_misses",
    "bus_transactions",
    "dma_accesses",
    "uncacheable",
    "device_interrupts",
    "disk_interrupts",
    "tlb_misses",
];

fn extract(sample: &SystemSample) -> Vec<f64> {
    vec![
        sample.sum(|c| c.active_frac),
        sample.sum(|c| c.fetched_upc),
        sample.sum(|c| c.l3_load_misses) * 1e3,
        sample.sum(|c| c.bus_tx_per_mcycle),
        sample.sum(|c| c.dma_per_cycle) * 1e6,
        sample.sum(|c| c.uncacheable_per_cycle) * 1e9,
        sample.sum(|c| c.device_interrupts_per_cycle) * 1e9,
        sample.sum(|c| c.disk_interrupts_per_cycle) * 1e9,
        sample.sum(|c| c.tlb_per_cycle) * 1e6,
    ]
}

/// One subsystem's selection outcome.
#[derive(Debug, Clone)]
pub struct SelectionRow {
    /// The subsystem searched.
    pub subsystem: Subsystem,
    /// Winning input names.
    pub winner: Vec<String>,
    /// Winning form.
    pub form: String,
    /// Winner's validation error, %.
    pub error_pct: f64,
    /// The input the paper's final model uses, for comparison.
    pub paper_choice: &'static str,
}

/// Runs the selection search for every subsystem.
pub fn run(cfg: &ExperimentConfig) -> (Vec<SelectionRow>, String) {
    // Training and validation pairs per subsystem (train on the
    // high-variation workload the paper used; validate on a different
    // one so the ranking rewards generalisation).
    let specs: [(Subsystem, Workload, Workload, &str); 4] = [
        (
            Subsystem::Cpu,
            Workload::Gcc,
            Workload::Wupwise,
            "active_frac + fetched_upc (Eq 1)",
        ),
        (
            Subsystem::Memory,
            Workload::Mcf,
            Workload::Lucas,
            "bus_transactions (Eq 3)",
        ),
        (
            Subsystem::Disk,
            Workload::DiskLoad,
            Workload::Dbt2,
            "disk_interrupts + dma (Eq 4)",
        ),
        (
            Subsystem::Io,
            Workload::DiskLoad,
            Workload::Dbt2,
            "device_interrupts (Eq 5)",
        ),
    ];

    let rows_of =
        |t: &Trace| -> (Vec<Vec<f64>>, ()) { (t.inputs().into_iter().map(extract).collect(), ()) };

    let mut rows = Vec::new();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<38} {:>10} {:>10}   paper's choice",
        "subsys", "winning inputs", "form", "val err"
    );
    for (subsystem, train_w, valid_w, paper_choice) in specs {
        let train = capture_workload(cfg, train_w);
        let valid = capture_workload(cfg, valid_w);
        let (train_xs, ()) = rows_of(&train);
        let (valid_xs, ()) = rows_of(&valid);
        let selector = ModelSelector::new(CANDIDATES.iter().map(|s| s.to_string()).collect());
        let ranked = selector.search(
            &train_xs,
            &train.measured(subsystem),
            &valid_xs,
            &valid.measured(subsystem),
        );
        let Some(best) = ranked.first() else {
            let _ = writeln!(out, "{subsystem:<8} (no candidate fitted)");
            continue;
        };
        let _ = writeln!(
            out,
            "{:<8} {:<38} {:>10} {:>9.2}%   {}",
            subsystem.to_string(),
            best.input_names.join(" + "),
            best.form.to_string(),
            best.validation_error_pct,
            paper_choice
        );
        rows.push(SelectionRow {
            subsystem,
            winner: best.input_names.clone(),
            form: best.form.to_string(),
            error_pct: best.validation_error_pct,
            paper_choice,
        });
    }
    (rows, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_runs_and_picks_plausible_winners() {
        let cfg = ExperimentConfig {
            seed: 31,
            trace_seconds: 25,
            ramp_seconds: 2,
            out_dir: std::env::temp_dir().join("tdp-bench-selection"),
        };
        let (rows, rendered) = run(&cfg);
        assert_eq!(rows.len(), 4);
        assert!(rendered.contains("paper's choice"));
        // The CPU winner must involve at least one of Eq 1's inputs.
        let cpu = rows.iter().find(|r| r.subsystem == Subsystem::Cpu).unwrap();
        assert!(
            cpu.winner
                .iter()
                .any(|n| n == "active_frac" || n == "fetched_upc"),
            "cpu winner {:?}",
            cpu.winner
        );
        // The I/O winner must involve an interrupt or I/O-side event.
        let io = rows.iter().find(|r| r.subsystem == Subsystem::Io).unwrap();
        assert!(
            io.winner
                .iter()
                .any(|n| n.contains("interrupt") || n.contains("dma") || n.contains("uncacheable")),
            "io winner {:?}",
            io.winner
        );
    }
}
