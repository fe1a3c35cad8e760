//! Self-tests of the benchmark binary: a few-window run of every
//! workload prints every metric `BENCHMARK.json` names, with its unit,
//! and two runs with the same seed agree exactly on every metric that
//! does not measure time.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["fleet-full", "fleet-adaptive", "fleet-chaos", "fleet-wide"];

/// Metrics that count or score work rather than time it: a seed fixes
/// them exactly.
const DETERMINISTIC: [&str; 24] = [
    "wire_bytes_per_machine",
    "err_pct.cpu",
    "err_pct.memory",
    "err_pct.disk",
    "err_pct.io",
    "err_pct.chipset",
    "energy_err_pct",
    "estimated_pct",
    "tdp-wire.encode.frames_per_window",
    "tdp-wire.encode.layout_frames_per_window",
    "tdp-wire.encode.bytes_per_frame",
    "tdp-wire.ingest.rows_fresh",
    "tdp-wire.ingest.rows_reconstructed",
    "tdp-wire.ingest.rows_held",
    "tdp-wire.ingest.rows_quarantined",
    "tdp-wire.ingest.machines_stale",
    "tdp-wire.ingest.corrupt_frames",
    "tdp-wire.ingest.resyncs",
    "tdp-wire.ingest.resync_bytes",
    "tdp-wire.ingest.duplicate_windows",
    "tdp-wire.ingest.resets_detected",
    "tdp-wire.ingest.degraded_window_pct",
    "tdp-fleet.estimate.clamped_predictions",
    "tdp-fleet.anomaly.flagged_pct",
];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`
/// (one metric object per line).
fn declared(section: &str) -> Vec<(String, String)> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    let field = |line: &str, key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    let mut current = "";
    let mut out = Vec::new();
    for line in spec.lines() {
        for s in ["\"workloads\"", "\"end_to_end\"", "\"per_layer\""] {
            if line.trim_start().starts_with(s) {
                current = s;
            }
        }
        if current.trim_matches('"') == section {
            if let (Some(name), Some(unit)) = (field(line, "name"), field(line, "unit")) {
                out.push((name, unit));
            }
        }
    }
    out
}

/// One parsed result line: `(name, value, unit)` per metric.
type Metrics = Vec<(String, f64, String)>;

fn parse(line: &str) -> Metrics {
    let head = "{\"correct\": true, ";
    assert!(line.starts_with(head), "unexpected result line: {line}");
    let mut rest = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
    let mut out = Vec::new();
    while let Some(q) = rest.find('"') {
        rest = &rest[q + 1..];
        let end = rest.find('"').expect("closing quote");
        let name = rest[..end].to_string();
        rest = &rest[end..];
        let v = rest.find("\"value\": ").expect("value") + 9;
        rest = &rest[v..];
        let value = rest[..rest.find(',').expect("comma")]
            .parse()
            .expect("number");
        let u = rest.find("\"unit\": \"").expect("unit") + 9;
        rest = &rest[u..];
        let unit = rest[..rest.find('"').expect("unit end")].to_string();
        rest = &rest[rest.find('}').expect("metric end") + 1..];
        out.push((name, value, unit));
    }
    out
}

fn run(workload: &str, trace: u8) -> Metrics {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--windows", "24"])
        .output()
        .expect("perfbench runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    parse(stdout.lines().last().expect("a result line"))
}

fn smoke_and_repeat(workload: &str) {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let first = run(workload, trace);
        let names: Vec<(String, String)> = first
            .iter()
            .map(|(n, _, u)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(
            names,
            declared(section),
            "{workload}: {section} metrics and units"
        );
        for (name, value, _) in &first {
            assert!(value.is_finite(), "{workload}: {name} = {value}");
        }
        let second = run(workload, trace);
        for ((name, a, _), (_, b, _)) in first.iter().zip(&second) {
            if DETERMINISTIC.contains(&name.as_str()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{workload}: {name} {a} vs {b}");
            }
        }
    }
}

#[test]
fn fleet_full() {
    smoke_and_repeat(WORKLOADS[0]);
}

#[test]
fn fleet_adaptive() {
    smoke_and_repeat(WORKLOADS[1]);
}

#[test]
fn fleet_chaos() {
    smoke_and_repeat(WORKLOADS[2]);
}

#[test]
fn fleet_wide() {
    smoke_and_repeat(WORKLOADS[3]);
}

#[test]
fn workload_list_matches_the_spec() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    for w in WORKLOADS {
        assert!(
            spec.contains(&format!("{{\"name\": \"{w}\"")),
            "{w} in BENCHMARK.json"
        );
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("perfbench runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
