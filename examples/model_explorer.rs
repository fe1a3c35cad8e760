//! Reproduce the paper's event-selection process: fit every candidate
//! event/form combination for a subsystem and rank them by validation
//! error.
//!
//! "The final selection of which event type(s) to use is determined by
//! the average error rate" (§3.3). Run this for memory to watch bus
//! transactions beat L3 misses; run it for I/O to watch interrupts beat
//! DMA and uncacheable accesses — the paper's §4.2.2/§4.2.4 findings.
//!
//! ```text
//! cargo run --release --example model_explorer -- [memory|io|disk]
//! ```

use tdp_counters::Subsystem;
use tdp_modeling::ModelSelector;
use tdp_workloads::{Workload, WorkloadSet};
use trickledown::testbed::{capture, Trace};
use trickledown::SystemSample;

/// Candidate inputs visible at the CPU, summed over CPUs per window.
fn candidates(sample: &SystemSample) -> Vec<f64> {
    vec![
        sample.sum(|c| c.l3_load_misses) * 1e3,
        sample.sum(|c| c.bus_tx_per_mcycle),
        sample.sum(|c| c.dma_per_cycle) * 1e6,
        sample.sum(|c| c.uncacheable_per_cycle) * 1e9,
        sample.sum(|c| c.device_interrupts_per_cycle) * 1e9,
        sample.sum(|c| c.tlb_per_cycle) * 1e6,
    ]
}

const CANDIDATE_NAMES: &[&str] = &[
    "l3_load_misses",
    "bus_transactions",
    "dma_accesses",
    "uncacheable",
    "interrupts",
    "tlb_misses",
];

fn rows(trace: &Trace, subsystem: Subsystem) -> (Vec<Vec<f64>>, Vec<f64>) {
    let xs = trace.inputs().into_iter().map(candidates).collect();
    (xs, trace.measured(subsystem))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let target = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "memory".to_owned());
    let (subsystem, train_w, valid_w) = match target.as_str() {
        "memory" => (Subsystem::Memory, Workload::Mcf, Workload::Lucas),
        "io" => (Subsystem::Io, Workload::DiskLoad, Workload::Dbt2),
        "disk" => (Subsystem::Disk, Workload::DiskLoad, Workload::Dbt2),
        other => return Err(format!("unknown subsystem {other}").into()),
    };

    eprintln!("capturing training trace ({train_w}) and validation trace ({valid_w})...");
    let train = capture(
        WorkloadSet::new(train_w, train_w.default_instances().max(1), 4_000).with_delay(3_000),
        60,
        21,
    );
    let valid = capture(
        WorkloadSet::new(valid_w, valid_w.default_instances().max(1), 2_000).with_delay(3_000),
        40,
        22,
    );

    let (train_xs, train_ys) = rows(&train, subsystem);
    let (valid_xs, valid_ys) = rows(&valid, subsystem);

    let selector = ModelSelector::new(CANDIDATE_NAMES.iter().map(|s| s.to_string()).collect());
    let ranked = selector.search(&train_xs, &train_ys, &valid_xs, &valid_ys);

    println!("{subsystem} power model candidates, trained on {train_w}, validated on {valid_w}:");
    println!(
        "{:<40} {:>10} {:>12} {:>12}",
        "inputs", "form", "train err", "valid err"
    );
    for outcome in ranked.iter().take(12) {
        println!(
            "{:<40} {:>10} {:>11.2}% {:>11.2}%",
            outcome.input_names.join(" + "),
            outcome.form.to_string(),
            outcome.training_error_pct,
            outcome.validation_error_pct
        );
    }
    if let Some(best) = ranked.first() {
        println!(
            "\nwinner: {} ({}) — the paper picked {} for this subsystem",
            best.input_names.join(" + "),
            best.form,
            match subsystem {
                Subsystem::Memory => "bus transactions (Eq 3)",
                Subsystem::Io => "interrupts (Eq 5)",
                Subsystem::Disk => "interrupts + DMA (Eq 4)",
                _ => "—",
            }
        );
    }
    Ok(())
}
