//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! Usage: repro [--quick] [--seed N] [--out DIR] <experiment>...
//!
//! Experiments:
//!   table1        mean subsystem power per workload   (Table 1)
//!   table2        subsystem power standard deviation  (Table 2)
//!   table3        model error, integer workloads      (Table 3)
//!   table4        model error, FP workloads           (Table 4)
//!   fig2          4-CPU power trace, 8x gcc           (Figure 2)
//!   fig3          memory via L3 misses, mesa ramp     (Figure 3)
//!   fig4          prefetch vs demand bus txns, mcf    (Figure 4)
//!   fig5          memory via bus txns, mcf            (Figure 5)
//!   fig6          disk via DMA+interrupts, DiskLoad   (Figure 6)
//!   fig7          I/O via interrupts, DiskLoad        (Figure 7)
//!   coefficients  fitted vs published Eq 1-5 constants
//!   shape         qualitative shape checks vs the paper
//!   ablate        ablation studies (DESIGN.md §5)
//!   selection     event-selection search per subsystem (§3.3)
//!   all           everything above (except ablate)
//! ```

use std::process::ExitCode;
use tdp_bench::cli::{self, USAGE};
use tdp_bench::experiments::{
    coefficients, headline, shape_checks, tables_1_and_2, tables_3_and_4,
};
use tdp_bench::figures::{fig2, fig3, fig4_fig5, fig6_fig7};
use tdp_bench::{calibrate, capture_all};
use trickledown::PowerCharacterization;

fn main() -> ExitCode {
    let parsed = match cli::parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if parsed.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if !parsed.requests_something() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let (cfg, wanted, markdown) = (parsed.cfg, parsed.wanted, parsed.markdown);
    if parsed.bench_json {
        eprintln!(
            "repro: benchmarking pipeline throughput (seed {}, {} s traces)…",
            cfg.seed, cfg.trace_seconds
        );
        println!("{}", tdp_bench::pipeline::run_and_write(&cfg));
    }
    if wanted.is_empty() {
        return ExitCode::SUCCESS;
    }

    let needs_traces = ["table1", "table2", "table3", "table4", "shape"]
        .iter()
        .any(|e| wanted.contains(*e));
    let needs_model = ["table3", "table4", "fig2", "coefficients", "shape"]
        .iter()
        .any(|e| wanted.contains(*e));

    eprintln!(
        "repro: seed {}, {} s traces, {} s ramp, writing {}",
        cfg.seed,
        cfg.trace_seconds,
        cfg.ramp_seconds,
        cfg.out_dir.display()
    );

    let model = if needs_model {
        eprintln!("repro: calibrating (gcc / mcf / DiskLoad training traces)…");
        Some(calibrate(&cfg))
    } else {
        None
    };
    let traces = if needs_traces {
        eprintln!("repro: capturing 12 workload traces in parallel…");
        Some(capture_all(&cfg))
    } else {
        None
    };

    let mut report = None;
    let mut characterization = None;
    if let Some(traces) = &traces {
        if wanted.contains("table1") || wanted.contains("table2") || wanted.contains("shape") {
            let (t1, t2) = tables_1_and_2(&cfg, traces);
            let c = PowerCharacterization::from_traces(traces);
            if wanted.contains("table1") {
                println!("\n=== Table 1: subsystem average power (W) ===");
                if markdown {
                    println!("{}", c.render_markdown());
                } else {
                    println!("{t1}");
                }
            }
            characterization = Some(c);
            if wanted.contains("table2") {
                println!("\n=== Table 2: subsystem power standard deviation (W) ===");
                println!("{t2}");
            }
        }
        if wanted.contains("table3") || wanted.contains("table4") || wanted.contains("shape") {
            let model = model.as_ref().expect("model built for tables 3/4");
            let (rep, rendered) = tables_3_and_4(&cfg, model, traces);
            if wanted.contains("table3") || wanted.contains("table4") {
                println!("\n=== Tables 3 & 4: per-workload model error (Eq 6, %) ===");
                if markdown {
                    println!("{}", rep.render_markdown());
                } else {
                    println!("{rendered}");
                }
                println!("{}", headline(&rep));
            }
            report = Some(rep);
        }
    }

    if wanted.contains("fig2") {
        let r = fig2(&cfg, model.as_ref().expect("model built for fig2"));
        println!("fig2: {} -> {}", r.summary, r.csv_path.display());
    }
    if wanted.contains("fig3") {
        let r = fig3(&cfg);
        println!("fig3: {} -> {}", r.summary, r.csv_path.display());
    }
    if wanted.contains("fig4") || wanted.contains("fig5") {
        let (f4, f5) = fig4_fig5(&cfg);
        if wanted.contains("fig4") {
            println!("fig4: {} -> {}", f4.summary, f4.csv_path.display());
        }
        if wanted.contains("fig5") {
            println!("fig5: {} -> {}", f5.summary, f5.csv_path.display());
        }
    }
    if wanted.contains("fig6") || wanted.contains("fig7") {
        let (f6, f7) = fig6_fig7(&cfg);
        if wanted.contains("fig6") {
            println!("fig6: {} -> {}", f6.summary, f6.csv_path.display());
        }
        if wanted.contains("fig7") {
            println!("fig7: {} -> {}", f7.summary, f7.csv_path.display());
        }
    }
    if wanted.contains("ablate") {
        println!("\n=== Ablation studies ===");
        println!("{}", tdp_bench::ablations::run_all(&cfg));
    }
    if wanted.contains("selection") {
        println!("\n=== Event selection per subsystem (§3.3) ===");
        let (_, rendered) = tdp_bench::selection::run(&cfg);
        println!("{rendered}");
    }
    if wanted.contains("coefficients") {
        println!("\n=== Fitted vs published coefficients (Eq 1-5) ===");
        println!("{}", coefficients(model.as_ref().expect("model built")));
    }
    if wanted.contains("shape") {
        let (Some(c), Some(r)) = (&characterization, &report) else {
            eprintln!("shape requires traces and model (internal ordering bug)");
            return ExitCode::FAILURE;
        };
        println!("\n=== Qualitative shape checks vs the paper ===");
        let checks = shape_checks(c, r);
        let mut failed = 0;
        for (label, ok) in &checks {
            println!("  [{}] {}", if *ok { "ok" } else { "FAIL" }, label);
            if !ok {
                failed += 1;
            }
        }
        println!("{} of {} checks hold", checks.len() - failed, checks.len());
        if failed > 0 {
            return ExitCode::FAILURE;
        }
    }

    ExitCode::SUCCESS
}
