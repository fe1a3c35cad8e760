//! Column kernels: the handful of dense f64 operations batched model
//! evaluation is made of.
//!
//! Equations 1–5 are linear/quadratic forms, so evaluating a model over
//! a whole fleet column reduces to `fill` (the DC term) plus a few
//! `axpy` passes (one per coefficient — the squared inputs are
//! materialised as their own columns at ingest).
//!
//! The arithmetic itself lives in [`tdp_simd`], which compiles each
//! kernel body twice — once with the build's baseline target features,
//! once under AVX2 — and the functions here bind the process-wide
//! [`Dispatch::active`] decision so estimator code stays
//! dispatch-oblivious. Because both flavours compile the *same*
//! expression sequence, the elementwise kernels are bit-identical
//! across dispatch modes, which preserves the two contracts this crate
//! pins:
//!
//! * every kernel is elementwise — `out[i]` depends only on position
//!   `i` of the inputs — so a machine's estimate never depends on its
//!   neighbours or on the fleet size;
//! * the quadratic kernels evaluate `trickledown::quad_poly` /
//!   `trickledown::clamp_watts`'s exact expressions, so batched and
//!   scalar predictions agree bit for bit on identical aggregates (the
//!   tests below pin `tdp_simd`'s copies against the canonical
//!   helpers).
//!
//! The one reduction ([`sum`], used for the fleet total) uses a fixed
//! four-accumulator association — identical across dispatch modes, a
//! few ulp from a naive sequential sum.

use tdp_simd::Dispatch;

/// `out[i] = v`.
pub fn fill(out: &mut [f64], v: f64) {
    tdp_simd::fill(Dispatch::active(), out, v);
}

/// `out[i] += a · x[i]`.
///
/// # Panics
///
/// Panics if the slices disagree in length.
pub fn axpy(out: &mut [f64], a: f64, x: &[f64]) {
    tdp_simd::axpy(Dispatch::active(), out, a, x);
}

/// `out[i] = quad_poly(dc, lin, quad, x[i], x_sq[i])` — one whole
/// Equation-2/3/5 (or the interrupt half of Equation 4) per pass,
/// evaluating the exact expression of the shared
/// [`trickledown::quad_poly`] helper the scalar models call, so batched
/// and scalar predictions agree bit for bit on identical aggregates.
///
/// # Panics
///
/// Panics if the slices disagree in length.
pub fn quadratic(out: &mut [f64], dc: f64, lin: f64, quad: f64, x: &[f64], x_sq: &[f64]) {
    tdp_simd::quadratic(Dispatch::active(), out, dc, lin, quad, x, x_sq);
}

/// `out[i] += quad_poly(0, lin, quad, x[i], x_sq[i])` — the accumulate
/// form for multi-input models (Equation 4 adds its DMA quadratic on
/// top of the interrupt one).
///
/// # Panics
///
/// Panics if the slices disagree in length.
pub fn quadratic_acc(out: &mut [f64], lin: f64, quad: f64, x: &[f64], x_sq: &[f64]) {
    tdp_simd::quadratic_acc(Dispatch::active(), out, lin, quad, x, x_sq);
}

/// `out[i] = clamp_watts(out[i], dc + peak1 · ncpus[i])` — saturates a
/// finished subsystem column to its physically meaningful range (the
/// non-negative floor, and the ceiling the model's calibrated validity
/// range implies per machine). Returns how many entries the clamp
/// changed, for the pipeline-health counters.
///
/// The ceiling expression `dc + peak1 * n` and the clamp itself are the
/// very ones the scalar models evaluate
/// ([`trickledown::clamp_watts`] with `dc + dynamic_peak() * n`), so
/// scalar and batched predictions stay bit-identical — including for
/// out-of-range rows, where both saturate to the same ceiling bits.
///
/// # Panics
///
/// Panics if the slices disagree in length.
pub fn clamp_predictions(out: &mut [f64], dc: f64, peak1: f64, ncpus: &[f64]) -> u64 {
    tdp_simd::clamp_predictions(Dispatch::active(), out, dc, peak1, ncpus)
}

/// `out[i] += x[i]`.
///
/// # Panics
///
/// Panics if the slices disagree in length.
pub fn add_assign(out: &mut [f64], x: &[f64]) {
    tdp_simd::add_assign(Dispatch::active(), out, x);
}

/// `Σ x[i]` in `tdp_simd`'s fixed four-accumulator association
/// (identical across dispatch modes; a few ulp from a sequential sum).
pub fn sum(x: &[f64]) -> f64 {
    tdp_simd::sum(Dispatch::active(), x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trickledown::{clamp_watts, quad_poly};

    #[test]
    fn kernels_match_scalar_loops_across_lengths() {
        // Cover the remainder path on either side of the lane width.
        for n in [0, 1, 7, 8, 9, 16, 33] {
            let x: Vec<f64> = (0..n).map(|i| i as f64 * 0.5 - 3.0).collect();
            let mut out = vec![0.0; n];
            fill(&mut out, 2.5);
            assert!(out.iter().all(|&v| v == 2.5));
            axpy(&mut out, -1.5, &x);
            add_assign(&mut out, &x);
            for (i, &o) in out.iter().enumerate() {
                let expect = 2.5 + -1.5 * x[i] + x[i];
                assert_eq!(o, expect, "n={n} i={i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        axpy(&mut [0.0; 3], 1.0, &[0.0; 4]);
    }

    #[test]
    fn clamp_predictions_matches_scalar_clamp_and_counts() {
        // One negative entry, one above the 4-CPU ceiling, two already
        // in range (incl. an exact-ceiling value that must not count).
        let dc = 21.6;
        let peak1 = 0.5;
        let ncpus = [4.0, 4.0, 4.0, 2.0];
        let mut out = [-3.0, 30.0, dc + peak1 * 4.0, 10.0];
        let n = clamp_predictions(&mut out, dc, peak1, &ncpus);
        assert_eq!(n, 2);
        for (i, (&o, &nc)) in out.iter().zip(&ncpus).enumerate() {
            let expect = clamp_watts(if i == 0 { -3.0 } else { o }, dc + peak1 * nc);
            assert_eq!(o.to_bits(), expect.to_bits(), "i={i}");
        }
        assert_eq!(out[0], 0.0);
        assert_eq!(out[1], dc + peak1 * 4.0);
        // An unbounded ceiling only enforces the floor.
        let mut raw = [f64::MAX, -1.0];
        assert_eq!(
            clamp_predictions(&mut raw, f64::INFINITY, 0.0, &[4.0, 4.0]),
            1
        );
        assert_eq!(raw, [f64::MAX, 0.0]);
    }

    /// Pins `tdp_simd`'s local `quad_poly` copy against the canonical
    /// `trickledown` helper, bit for bit (the simd crate sits below
    /// `trickledown` in the dependency graph, so it carries a copy —
    /// this test is what keeps the copy honest).
    #[test]
    fn quadratic_kernels_match_quad_poly_bit_for_bit() {
        let x: Vec<f64> = (0..33).map(|i| i as f64 * 0.37 - 4.0).collect();
        let x_sq: Vec<f64> = x.iter().map(|v| v * v).collect();
        let (dc, lin, quad) = (21.6, 10.6e7, -11.1e15);
        let mut out = vec![0.0; x.len()];
        quadratic(&mut out, dc, lin, quad, &x, &x_sq);
        for (i, &o) in out.iter().enumerate() {
            assert_eq!(
                o.to_bits(),
                quad_poly(dc, lin, quad, x[i], x_sq[i]).to_bits()
            );
        }
        quadratic_acc(&mut out, 9.18, -45.4, &x, &x_sq);
        for (i, &o) in out.iter().enumerate() {
            let expect = quad_poly(dc, lin, quad, x[i], x_sq[i])
                + quad_poly(0.0, 9.18, -45.4, x[i], x_sq[i]);
            assert_eq!(o.to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn sum_matches_sequential_within_ulps() {
        let x: Vec<f64> = (0..101).map(|i| (i as f64).sin() * 250.0).collect();
        let naive: f64 = x.iter().sum();
        let got = sum(&x);
        assert!(
            (got - naive).abs() <= 1e-12 * naive.abs().max(1.0),
            "{got} vs {naive}"
        );
        assert_eq!(sum(&[]), 0.0);
    }
}
