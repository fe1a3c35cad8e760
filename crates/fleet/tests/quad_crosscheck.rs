//! Bit-for-bit agreement between the scalar subsystem models and the
//! fleet column kernels on the shared quadratic form.
//!
//! Equations 2–5 are all `dc + lin·Σx + quad·Σx²`. Both evaluation
//! paths — `trickledown`'s per-machine `predict` and `tdp-fleet`'s
//! columnar `quadratic`/`quadratic_acc` kernels — route through the
//! single `trickledown::quad_poly` helper and aggregate `Σx`/`Σx²` in
//! the same CPU order, so their results must agree to the last bit,
//! not within a tolerance. This test pins that contract for every
//! quadratic model against fleet batches whose columns are summed from
//! the same pre-extracted samples, and pins `tdp-simd`'s local copies of
//! `quad_poly` and `clamp_watts` (that crate sits below `trickledown`)
//! against the canonical helpers through the kernels directly.

use tdp_fleet::{col, FleetEstimator};
use tdp_simd::{clamp_predictions, quadratic, quadratic_acc};
use trickledown::{clamp_watts, quad_poly, CpuRates, MemoryInput, SystemPowerModel, SystemSample};

fn sample(machine: usize, cpus: usize) -> SystemSample {
    let m = machine as f64;
    SystemSample {
        time_ms: 1000,
        window_ms: 1000,
        per_cpu: (0..cpus)
            .map(|c| {
                let s = c as f64;
                CpuRates {
                    active_frac: ((m * 0.13 + s * 0.21) % 1.0),
                    fetched_upc: (m * 0.07 + s * 0.4) % 2.0,
                    l3_load_misses: (m * 1.7e-5 + s * 3e-6) % 3e-3,
                    bus_tx_per_mcycle: (m * 41.0 + s * 13.0) % 9000.0,
                    dma_per_cycle: (m * 1.3e-4 + s * 2e-5) % 0.02,
                    interrupts_per_cycle: (m * 3e-9 + s * 5e-10) % 2e-8,
                    device_interrupts_per_cycle: (m * 2e-9 + s * 4e-10) % 1.5e-8,
                    disk_interrupts_per_cycle: (m * 1e-9 + s * 2e-10) % 0.8e-8,
                    tlb_per_cycle: 0.0,
                    uncacheable_per_cycle: 0.0,
                }
            })
            .collect(),
    }
}

/// Odd CPU counts exercise the kernels' remainder paths; machine count
/// 97 exercises the column kernels' lane remainder.
fn fleet_samples() -> Vec<SystemSample> {
    (0..97).map(|m| sample(m, 1 + m % 5)).collect()
}

/// Starts a window whose rows are the samples' per-CPU rates summed in
/// CPU order, each quadratic input followed by the sum of its squares,
/// written through `SampleBatch::columns_mut`: the accumulation the
/// scalar models run.
fn fill(fleet: &mut FleetEstimator, samples: &[SystemSample]) {
    fleet.begin_window();
    let batch = fleet.batch_mut();
    batch.resize_rows(samples.len());
    let mut cols = batch.columns_mut();
    for (m, s) in samples.iter().enumerate() {
        cols[col::NUM_CPUS][m] = s.num_cpus() as f64;
        for c in &s.per_cpu {
            let l3 = c.l3_load_misses * 1_000.0;
            let bus = c.bus_tx_per_mcycle;
            let dma = c.dma_per_cycle;
            let disk = c.disk_interrupts_per_cycle;
            let dev = c.device_interrupts_per_cycle;
            let terms = [
                c.active_frac,
                c.fetched_upc,
                l3,
                l3 * l3,
                bus,
                bus * bus,
                dma,
                dma * dma,
                disk,
                disk * disk,
                dev,
                dev * dev,
            ];
            for (column, v) in cols[col::ACTIVE..].iter_mut().zip(terms) {
                column[m] += v;
            }
        }
    }
}

fn crosscheck(model: SystemPowerModel) {
    let samples = fleet_samples();
    let mut fleet = FleetEstimator::new(model.clone());
    fill(&mut fleet, &samples);
    let est = fleet.estimate();

    for (i, s) in samples.iter().enumerate() {
        let scalar = model.predict(s);
        for (name, batched, scalar_w) in [
            (
                "memory",
                est.memory()[i],
                scalar.get(tdp_counters::Subsystem::Memory),
            ),
            (
                "disk",
                est.disk()[i],
                scalar.get(tdp_counters::Subsystem::Disk),
            ),
            ("io", est.io()[i], scalar.get(tdp_counters::Subsystem::Io)),
        ] {
            assert_eq!(
                batched.to_bits(),
                scalar_w.to_bits(),
                "machine {i} {name}: batched {batched} vs scalar {scalar_w}"
            );
        }
    }
}

#[test]
fn quadratic_models_agree_bit_for_bit_bus_memory() {
    crosscheck(SystemPowerModel::paper());
}

#[test]
fn quadratic_models_agree_bit_for_bit_l3_memory() {
    let mut model = SystemPowerModel::paper();
    model.memory = trickledown::MemoryPowerModel::paper_l3();
    crosscheck(model);
}

#[test]
fn clamped_predictions_agree_bit_for_bit_at_extreme_rates() {
    // Regression for the negative-power bug: rates far outside the
    // calibrated range drive the negative-curvature quadratics (disk
    // int_quad −11.1e15, io int_quad −1.12e9) below zero, and both
    // paths must saturate to the *same* floor/ceiling bits. Scale every
    // input by a huge factor so most machines clamp, while machine 0
    // (all-zero rates) stays on the untouched in-range path.
    let mut model = SystemPowerModel::paper();
    model.memory = trickledown::MemoryPowerModel::paper_l3().with_valid_max(10.0);
    model.disk = model.disk.with_valid_max(4e-9, 1e-3);
    model.io = model.io.with_valid_max(1e-8);

    let samples: Vec<SystemSample> = fleet_samples()
        .into_iter()
        .map(|mut s| {
            for c in &mut s.per_cpu {
                c.l3_load_misses *= 1e4;
                c.dma_per_cycle *= 1e4;
                c.disk_interrupts_per_cycle *= 1e6;
                c.device_interrupts_per_cycle *= 1e8;
            }
            s
        })
        .collect();

    let mut fleet = FleetEstimator::new(model.clone());
    fill(&mut fleet, &samples);
    let est = fleet.estimate();
    assert!(
        est.clamped_predictions() > 0,
        "extreme rates must trip the clamp counter"
    );

    for (i, s) in samples.iter().enumerate() {
        let scalar = model.predict(s);
        for (name, batched, scalar_w) in [
            (
                "memory",
                est.memory()[i],
                scalar.get(tdp_counters::Subsystem::Memory),
            ),
            (
                "disk",
                est.disk()[i],
                scalar.get(tdp_counters::Subsystem::Disk),
            ),
            ("io", est.io()[i], scalar.get(tdp_counters::Subsystem::Io)),
        ] {
            assert!(scalar_w >= 0.0, "machine {i} {name}: negative {scalar_w} W");
            assert_eq!(
                batched.to_bits(),
                scalar_w.to_bits(),
                "machine {i} {name}: batched {batched} vs scalar {scalar_w}"
            );
        }
    }
}

#[test]
fn quadratic_models_agree_bit_for_bit_fitted_coefficients() {
    // Not just the published constants: perturbed coefficients (as a
    // calibration pass would produce) must also agree, since agreement
    // comes from the shared evaluation routine, not from lucky values.
    let mut model = SystemPowerModel::paper();
    model.memory.lin *= 1.000001;
    model.memory.quad *= 0.999998;
    model.disk.int_lin *= 1.000003;
    model.disk.dma_quad *= 1.000007;
    model.io.int_quad *= 0.999991;
    assert!(matches!(model.memory.input, MemoryInput::BusTransactions));
    crosscheck(model);
}

#[test]
fn clamp_predictions_matches_scalar_clamp_and_counts() {
    // One negative entry, one above the 4-CPU ceiling, two already in
    // range (incl. an exact-ceiling value that must not count).
    let dc = 21.6;
    let peak1 = 0.5;
    let ncpus = [4.0, 4.0, 4.0, 2.0];
    let raw = [-3.0, 30.0, dc + peak1 * 4.0, 10.0];
    let mut out = raw;
    assert_eq!(clamp_predictions(&mut out, dc, peak1, &ncpus), 2);
    for (i, ((&o, &r), &nc)) in out.iter().zip(&raw).zip(&ncpus).enumerate() {
        let expect = clamp_watts(r, dc + peak1 * nc);
        assert_eq!(o.to_bits(), expect.to_bits(), "i={i}");
    }
}

#[test]
fn quadratic_kernels_match_quad_poly_bit_for_bit() {
    let x: Vec<f64> = (0..33).map(|i| i as f64 * 0.37 - 4.0).collect();
    let x_sq: Vec<f64> = x.iter().map(|v| v * v).collect();
    let (dc, lin, quad) = (21.6, 10.6e7, -11.1e15);
    let mut out = vec![0.0; x.len()];
    quadratic(&mut out, dc, lin, quad, &x, &x_sq);
    for (i, &o) in out.iter().enumerate() {
        let expect = quad_poly(dc, lin, quad, x[i], x_sq[i]);
        assert_eq!(o.to_bits(), expect.to_bits(), "i={i}");
    }
    quadratic_acc(&mut out, 9.18, -45.4, &x, &x_sq);
    for (i, &o) in out.iter().enumerate() {
        let expect =
            quad_poly(dc, lin, quad, x[i], x_sq[i]) + quad_poly(0.0, 9.18, -45.4, x[i], x_sq[i]);
        assert_eq!(o.to_bits(), expect.to_bits(), "i={i}");
    }
}
