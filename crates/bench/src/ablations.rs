//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Each ablation swaps one modeling decision and reports Equation-6
//! error across validation workloads, quantifying *why* the paper's
//! choices are the right ones on this testbed:
//!
//! 1. memory input: L3 misses (Eq 2) vs bus transactions (Eq 3);
//! 2. the halted-cycle term in the CPU model;
//! 3. the I/O model's event: interrupts vs DMA vs uncacheable accesses;
//! 4. linear vs quadratic model forms;
//! 5. counter sampling period.

use crate::{capture_workload, ExperimentConfig};

/// A candidate feature extractor: system sample → feature vector.
type Extract<'a> = &'a dyn Fn(&trickledown::SystemSample) -> Vec<f64>;
use std::fmt::Write as _;
use tdp_counters::{SamplerConfig, Subsystem};
use tdp_modeling::metrics::average_error;
use tdp_modeling::{fit_least_squares_ridge, FeatureMap, RegressionModel};
use tdp_workloads::{Workload, WorkloadSet};
use trickledown::testbed::{Testbed, TestbedConfig, Trace};
use trickledown::{MemoryInput, MemoryPowerModel, SubsystemPowerModel as _};

/// Fits `extract`-derived features against one subsystem's measured
/// power on `train`, then scores Equation-6 error on each validation
/// trace. Returns `(per-trace errors, train error)`.
fn fit_and_score(
    map: &FeatureMap,
    extract: &dyn Fn(&trickledown::SystemSample) -> Vec<f64>,
    subsystem: Subsystem,
    train: &Trace,
    validate: &[&Trace],
) -> Option<(Vec<f64>, f64)> {
    let train_xs: Vec<Vec<f64>> = train.inputs().into_iter().map(extract).collect();
    let train_ys = train.measured(subsystem);
    let model: RegressionModel = fit_least_squares_ridge(map, &train_xs, &train_ys, 1e-9).ok()?;
    let score = |t: &Trace| {
        let xs: Vec<Vec<f64>> = t.inputs().into_iter().map(extract).collect();
        let modeled: Vec<f64> = xs.iter().map(|x| model.predict(x)).collect();
        average_error(&modeled, &t.measured(subsystem))
    };
    let errors = validate.iter().map(|t| score(t)).collect();
    Some((errors, score(train)))
}

/// Ablation 1: Equation 2 vs Equation 3 across the full workload set.
pub fn memory_input(cfg: &ExperimentConfig) -> String {
    let mcf = capture_workload(cfg, Workload::Mcf);
    let mesa = capture_workload(cfg, Workload::Mesa);
    let validation: Vec<Trace> = [Workload::Gcc, Workload::Lucas, Workload::SpecJbb]
        .iter()
        .map(|&w| capture_workload(cfg, w))
        .collect();

    let mut out =
        String::from("ablation: memory model input (Eq 2 cache misses vs Eq 3 bus transactions)\n");
    let _ = writeln!(
        out,
        "{:<22} {:>10} {:>10} {:>10} {:>10}",
        "model", "mcf", "gcc", "lucas", "specjbb"
    );
    for (label, input, train) in [
        ("l3_misses (Eq 2)", MemoryInput::L3LoadMisses, &mesa),
        ("bus_txns  (Eq 3)", MemoryInput::BusTransactions, &mcf),
    ] {
        let Ok(model) =
            MemoryPowerModel::fit(input, &train.inputs(), &train.measured(Subsystem::Memory))
        else {
            let _ = writeln!(out, "{label:<22} (fit failed)");
            continue;
        };
        let score = |t: &Trace| {
            let modeled: Vec<f64> = t.inputs().into_iter().map(|s| model.predict(s)).collect();
            average_error(&modeled, &t.measured(Subsystem::Memory))
        };
        let _ = writeln!(
            out,
            "{label:<22} {:>9.2}% {:>9.2}% {:>9.2}% {:>9.2}%",
            score(&mcf),
            score(&validation[0]),
            score(&validation[1]),
            score(&validation[2]),
        );
    }
    out
}

/// Ablation 2: the CPU model with and without the halted-cycle
/// (`PercentActive`) term, judged on a workload that idles a lot.
pub fn cpu_halt_term(cfg: &ExperimentConfig) -> String {
    let train = capture_workload(cfg, Workload::Gcc);
    let dbt2 = capture_workload(cfg, Workload::Dbt2);
    let idle = capture_workload(cfg, Workload::Idle);
    let validate = [&dbt2, &idle];

    let with_halt: &dyn Fn(&trickledown::SystemSample) -> Vec<f64> =
        &|s| vec![s.sum(|c| c.active_frac), s.sum(|c| c.fetched_upc)];
    let without_halt: &dyn Fn(&trickledown::SystemSample) -> Vec<f64> =
        &|s| vec![s.sum(|c| c.fetched_upc)];

    let mut out = String::from("ablation: halted-cycle term in the CPU model\n");
    let _ = writeln!(
        out,
        "{:<22} {:>10} {:>10} {:>10}",
        "model", "gcc(train)", "dbt-2", "idle"
    );
    for (label, dim, extract) in [
        ("active+uops (Eq 1)", 2usize, with_halt),
        ("uops only", 1, without_halt),
    ] {
        let Some((errors, train_err)) = fit_and_score(
            &FeatureMap::linear(dim),
            extract,
            Subsystem::Cpu,
            &train,
            &validate,
        ) else {
            let _ = writeln!(out, "{label:<22} (fit failed)");
            continue;
        };
        let _ = writeln!(
            out,
            "{label:<22} {:>9.2}% {:>9.2}% {:>9.2}%",
            train_err, errors[0], errors[1]
        );
    }
    out
}

/// Ablation 3: which trickle-down event predicts I/O power.
pub fn io_input(cfg: &ExperimentConfig) -> String {
    let train = capture_workload(cfg, Workload::DiskLoad);
    let dbt2 = capture_workload(cfg, Workload::Dbt2);
    let validate = [&dbt2];

    let candidates: [(&str, Extract<'_>); 3] = [
        ("interrupts (Eq 5)", &|s| {
            vec![s.sum(|c| c.device_interrupts_per_cycle)]
        }),
        ("dma accesses", &|s| vec![s.sum(|c| c.dma_per_cycle)]),
        ("uncacheable", &|s| vec![s.sum(|c| c.uncacheable_per_cycle)]),
    ];

    let mut out = String::from("ablation: I/O model input event\n");
    let _ = writeln!(
        out,
        "{:<22} {:>14} {:>10}",
        "input", "diskload(train)", "dbt-2"
    );
    for (label, extract) in candidates {
        let Some((errors, train_err)) = fit_and_score(
            &FeatureMap::quadratic_single(1, 0),
            extract,
            Subsystem::Io,
            &train,
            &validate,
        ) else {
            let _ = writeln!(out, "{label:<22} (fit failed)");
            continue;
        };
        let _ = writeln!(out, "{label:<22} {:>13.2}% {:>9.2}%", train_err, errors[0]);
    }
    out
}

/// Ablation 4: linear vs quadratic forms for the memory model.
pub fn model_form(cfg: &ExperimentConfig) -> String {
    let train = capture_workload(cfg, Workload::Mcf);
    let lucas = capture_workload(cfg, Workload::Lucas);
    let gcc = capture_workload(cfg, Workload::Gcc);
    let validate = [&lucas, &gcc];
    let extract: &dyn Fn(&trickledown::SystemSample) -> Vec<f64> =
        &|s| vec![s.sum(|c| c.bus_tx_per_mcycle)];

    let mut out = String::from("ablation: model form for the memory subsystem\n");
    let _ = writeln!(
        out,
        "{:<22} {:>10} {:>10} {:>10}",
        "form", "mcf(train)", "lucas", "gcc"
    );
    for (label, map) in [
        ("linear", FeatureMap::linear(1)),
        ("quadratic (paper)", FeatureMap::quadratic_single(1, 0)),
    ] {
        let Some((errors, train_err)) =
            fit_and_score(&map, extract, Subsystem::Memory, &train, &validate)
        else {
            let _ = writeln!(out, "{label:<22} (fit failed)");
            continue;
        };
        let _ = writeln!(
            out,
            "{label:<22} {:>9.2}% {:>9.2}% {:>9.2}%",
            train_err, errors[0], errors[1]
        );
    }
    out
}

/// Ablation 5: counter sampling period. The paper samples at 1 Hz;
/// faster sampling sees more variance (less averaging), slower sampling
/// hides phases.
pub fn sampling_period(cfg: &ExperimentConfig) -> String {
    let mut out = String::from("ablation: counter sampling period (CPU model, gcc ramp)\n");
    let _ = writeln!(out, "{:<12} {:>12} {:>10}", "period", "windows", "error");
    for period_ms in [250u64, 500, 1000, 2000, 4000] {
        let mut tb_cfg = TestbedConfig::with_seed(cfg.seed ^ period_ms);
        tb_cfg.sampler = SamplerConfig {
            period_ms,
            max_jitter_ms: 3,
        };
        let mut bed = Testbed::new(tb_cfg);
        let set = WorkloadSet::new(Workload::Gcc, 8, cfg.ramp_seconds * 1000).with_delay(2_000);
        bed.deploy(set);
        let seconds = cfg.seconds_for(&set);
        let windows = seconds * 1000 / period_ms;
        let trace = bed.run_seconds(Workload::Gcc, windows);
        let Ok(model) =
            trickledown::CpuPowerModel::fit(&trace.inputs(), &trace.measured(Subsystem::Cpu))
        else {
            let _ = writeln!(out, "{period_ms:<12} (fit failed)");
            continue;
        };
        let modeled: Vec<f64> = trace
            .inputs()
            .into_iter()
            .map(|s| model.predict(s))
            .collect();
        let err = average_error(&modeled, &trace.measured(Subsystem::Cpu));
        let _ = writeln!(
            out,
            "{:<12} {:>12} {:>9.2}%",
            format!("{period_ms} ms"),
            trace.len(),
            err
        );
    }
    out
}

/// Runs every ablation and concatenates the reports.
pub fn run_all(cfg: &ExperimentConfig) -> String {
    [
        memory_input(cfg),
        cpu_halt_term(cfg),
        io_input(cfg),
        model_form(cfg),
        sampling_period(cfg),
    ]
    .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_all_reports_every_ablation() {
        let cfg = ExperimentConfig {
            seed: 77,
            trace_seconds: 8,
            ramp_seconds: 1,
            out_dir: std::env::temp_dir().join("tdp-bench-ablate"),
        };
        let report = run_all(&cfg);
        for heading in [
            "memory model input",
            "halted-cycle term",
            "I/O model input",
            "model form",
            "sampling period",
        ] {
            assert!(report.contains(heading), "{heading} missing:\n{report}");
        }
        assert!(!report.contains("fit failed"), "{report}");
        // One row per sampling period, each with its window count.
        for period in ["250 ms", "500 ms", "1000 ms", "2000 ms", "4000 ms"] {
            assert!(report.contains(period), "{period} missing:\n{report}");
        }
    }
}
