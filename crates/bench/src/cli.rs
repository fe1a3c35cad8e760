//! Argument parsing for the `repro` binary.
//!
//! Split out of `src/bin/repro.rs` so validation — flag syntax, count
//! bounds, experiment-name checking and `all` expansion — is unit
//! testable without spawning the process. The binary's `main` reduces
//! to: parse, print on error, dispatch.

use crate::ExperimentConfig;
use std::collections::BTreeSet;

/// One-line usage string, printed with every argument error.
pub const USAGE: &str = "usage: repro [--quick] [--markdown] [--bench-json] [--seed N] [--out DIR] \
    <table1|table2|table3|table4|fig2|fig3|fig4|fig5|fig6|fig7|coefficients|shape|ablate|selection|all>...";

/// Every experiment name the binary knows, excluding `all`.
pub const EXPERIMENTS: [&str; 14] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "coefficients",
    "shape",
    "ablate",
    "selection",
];

/// Experiments `all` expands to (everything except the slow ablation
/// and selection sweeps, which must be requested by name).
const ALL_EXPANSION: [&str; 12] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "coefficients",
    "shape",
];

/// A fully validated command line.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Experiment configuration (seed, trace lengths, output dir).
    pub cfg: ExperimentConfig,
    /// Validated experiment names, `all` already expanded.
    pub wanted: BTreeSet<String>,
    /// Render tables as markdown.
    pub markdown: bool,
    /// Run the pipeline throughput benchmark (`BENCH_pipeline.json`).
    pub bench_json: bool,
    /// `--help` was requested: print usage, exit success.
    pub help: bool,
}

impl Cli {
    /// Whether the invocation asks for any work at all.
    pub fn requests_something(&self) -> bool {
        self.help || self.bench_json || !self.wanted.is_empty()
    }
}

/// A rejected command line; `Display` gives the reason (the caller
/// appends [`USAGE`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// Parses and validates `args` (the process arguments *without* the
/// binary name).
///
/// # Errors
///
/// [`CliError`] on unknown flags, unknown experiment names, missing
/// operands, or a non-numeric `--seed` operand. Nothing is partially
/// applied on error.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, CliError> {
    let mut cli = Cli {
        cfg: ExperimentConfig::default(),
        wanted: BTreeSet::new(),
        markdown: false,
        bench_json: false,
        help: false,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--markdown" => cli.markdown = true,
            "--bench-json" => cli.bench_json = true,
            "--quick" => {
                let out = cli.cfg.out_dir.clone();
                let seed = cli.cfg.seed;
                cli.cfg = ExperimentConfig::quick();
                cli.cfg.out_dir = out;
                cli.cfg.seed = seed;
            }
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(seed) => cli.cfg.seed = seed,
                None => return Err(CliError("--seed needs an integer".into())),
            },
            "--out" => match args.next() {
                Some(dir) => cli.cfg.out_dir = dir.into(),
                None => return Err(CliError("--out needs a directory".into())),
            },
            "--help" | "-h" => cli.help = true,
            other if !other.starts_with('-') => {
                if other == "all" {
                    cli.wanted
                        .extend(ALL_EXPANSION.iter().map(|s| (*s).to_owned()));
                } else if EXPERIMENTS.contains(&other) {
                    cli.wanted.insert(other.to_owned());
                } else {
                    return Err(CliError(format!("unknown experiment {other}")));
                }
            }
            other => return Err(CliError(format!("unknown flag {other}"))),
        }
    }
    Ok(cli)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Cli, CliError> {
        parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn missing_and_garbage_counts_are_rejected() {
        assert!(parse_strs(&["--seed"]).is_err());
        assert!(parse_strs(&["--seed", "many"]).is_err());
        assert!(parse_strs(&["--out"]).is_err());
        // A flag where a seed belongs is a missing operand, not a name.
        assert!(parse_strs(&["--seed", "--quick"]).is_err());
    }

    #[test]
    fn retired_harness_flags_are_rejected() {
        // perfbench measures the fleet pipeline; the old harness flags
        // must fail loudly rather than be silently ignored.
        for args in [
            &["--wire", "8"][..],
            &["--fleet", "8"],
            &["--frame", "varint", "shape"],
            &["--faults", "1234", "shape"],
            &["--anomaly", "shape"],
        ] {
            let err = parse_strs(args).unwrap_err();
            assert!(err.to_string().contains(args[0]), "names the flag: {err}");
        }
    }

    #[test]
    fn unknown_experiments_and_flags_are_rejected() {
        assert!(parse_strs(&["table9"]).is_err());
        assert!(parse_strs(&["--frobnicate"]).is_err());
        assert!(parse_strs(&["table1", "bogus"]).is_err());
    }

    #[test]
    fn all_expands_to_everything_but_slow_sweeps() {
        let cli = parse_strs(&["all"]).unwrap();
        assert!(cli.wanted.contains("table1"));
        assert!(cli.wanted.contains("shape"));
        assert!(!cli.wanted.contains("ablate"));
        assert!(!cli.wanted.contains("selection"));
        assert_eq!(cli.wanted.len(), 12);
    }

    #[test]
    fn quick_keeps_seed_and_out_dir() {
        let cli = parse_strs(&["--seed", "42", "--out", "/tmp/x", "--quick", "shape"]).unwrap();
        assert_eq!(cli.cfg.seed, 42);
        assert_eq!(cli.cfg.out_dir, std::path::PathBuf::from("/tmp/x"));
        assert!(cli.cfg.trace_seconds < ExperimentConfig::default().trace_seconds);
    }

    #[test]
    fn empty_invocation_requests_nothing() {
        let cli = parse_strs(&[]).unwrap();
        assert!(!cli.requests_something());
        assert!(parse_strs(&["-h"]).unwrap().help);
    }
}
