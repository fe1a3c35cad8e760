//! Scalar ↔ wide dispatch equivalence — the crate's central contract,
//! property-tested over adversarial batches.
//!
//! Two different strengths of claim, matching the crate docs:
//!
//! * **Elementwise kernels** (`fill`, `axpy`, `quadratic`,
//!   `quadratic_acc`, `clamp_predictions`, `add_assign`) are
//!   **bit-identical** across dispatch modes — including NaN, ±inf,
//!   signed zero, and values exactly on the clamp ceiling. Both
//!   flavours compile the same expression sequence and Rust neither
//!   contracts nor reassociates floating point, so equality is asserted
//!   on raw bits, not within a tolerance.
//! * **The reduction** (`sum`) uses a fixed four-accumulator
//!   association written out in the shared kernel body, so it too is
//!   bit-identical *across dispatch modes*. Against a naive sequential
//!   sum it is reassociated; on cancellation-free inputs each of the
//!   four partial sums rounds independently, so the documented bound is
//!   a handful of ulp — asserted here as `n · ε` relative error, the
//!   standard forward bound either association satisfies.
//!
//! A last test forces `Dispatch::Wide` through the kernels directly and
//! pins the fallback policy, so the scalar degradation path is
//! exercised even when CI machines all have AVX2.

use proptest::prelude::*;
use tdp_simd::{
    add_assign, axpy, clamp_predictions, fill, quadratic, quadratic_acc, sum, wide_available,
    Dispatch,
};

const BOTH: [Dispatch; 2] = [Dispatch::Scalar, Dispatch::Wide];

/// Expands class-tagged draws into a column that mixes ordinary values
/// with every special-case row the estimator can meet: NaN (a machine
/// that never sent a counter), ±inf (overflowed rate division), signed
/// zeros, and values sitting exactly on / next to the clamp ceiling.
fn build_column(picks: &[(u8, f64)], ceil: f64) -> Vec<f64> {
    picks
        .iter()
        .map(|&(class, raw)| match class {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 0.0,
            4 => -0.0,
            5 => ceil,                       // exactly at the clamp boundary
            6 => ceil + ceil * f64::EPSILON, // first value past it
            _ => raw,
        })
        .collect()
}

proptest! {
    /// Every elementwise kernel, both dispatch flavours, raw-bit
    /// equality — on batches salted with NaN/inf/clamp-boundary rows.
    #[test]
    fn elementwise_kernels_bit_identical(
        picks in proptest::collection::vec((0u8..8, any::<f64>()), 0..64),
        dc in 10.0f64..40.0,
        lin in -2.0f64..2.0,
        quad in -1e-3f64..1e-3,
    ) {
        let peak1 = 9.5;
        let ncpus = 4.0;
        let ceil = dc + peak1 * ncpus;
        let x = build_column(&picks, ceil);
        let x_sq: Vec<f64> = x.iter().map(|v| v * v).collect();
        let n_col = vec![ncpus; x.len()];

        // One pass per flavour through the full kernel sequence the
        // estimator runs, so equivalence is checked on *composed*
        // state, not just one call.
        let mut outs: Vec<(Vec<f64>, u64)> = Vec::new();
        for d in BOTH {
            let mut out = vec![0.0f64; x.len()];
            fill(d, &mut out, dc);
            axpy(d, &mut out, lin, &x);
            quadratic(d, &mut out, dc, lin, quad, &x, &x_sq);
            quadratic_acc(d, &mut out, lin, quad, &x, &x_sq);
            add_assign(d, &mut out, &x);
            let clamped = clamp_predictions(d, &mut out, dc, peak1, &n_col);
            outs.push((out, clamped));
        }
        let (scalar, wide) = (&outs[0], &outs[1]);
        prop_assert_eq!(scalar.1, wide.1, "clamp counts diverged");
        for (i, (s, w)) in scalar.0.iter().zip(&wide.0).enumerate() {
            prop_assert_eq!(s.to_bits(), w.to_bits(), "lane {} diverged", i);
        }
    }

    /// Reductions: bit-identical across dispatch flavours, and within
    /// the documented forward-error bound of a naive sequential sum on
    /// cancellation-free inputs (`n · ε` relative — "a few ulp" for the
    /// small `n` the estimator uses).
    #[test]
    fn reductions_bit_identical_and_ulp_bounded(
        xs in proptest::collection::vec(0.0f64..1e9, 0..96),
    ) {
        let sum_scalar = sum(Dispatch::Scalar, &xs);
        let sum_wide = sum(Dispatch::Wide, &xs);
        prop_assert_eq!(sum_scalar.to_bits(), sum_wide.to_bits(), "sum diverged");

        let sum_seq: f64 = xs.iter().sum();
        let bound = xs.len() as f64 * f64::EPSILON * sum_seq.abs();
        prop_assert!(
            (sum_scalar - sum_seq).abs() <= bound,
            "sum drifted past the documented reassociation bound"
        );
    }
}

/// Forcing the scalar flavour must be possible regardless of hardware
/// (the CI matrix runs the whole suite under `TDP_SIMD=scalar` and
/// `TDP_SIMD=wide`), and a `Wide` request degrades — not crashes — when
/// AVX2 is absent. The kernel calls below take the in-kernel fallback
/// branch on non-AVX2 machines and the AVX2 branch otherwise; the
/// result contract is the same either way.
#[test]
fn forced_dispatch_and_fallback_policy() {
    assert_eq!(Dispatch::from_env(Some("scalar"), true), Dispatch::Scalar);
    assert_eq!(Dispatch::from_env(Some("scalar"), false), Dispatch::Scalar);
    assert_eq!(
        Dispatch::from_env(Some("wide"), false),
        Dispatch::Scalar,
        "wide without hardware support must degrade to scalar"
    );

    let x: Vec<f64> = (0..19).map(|i| i as f64 * 0.75 - 4.0).collect();
    let mut forced = vec![1.0; x.len()];
    let mut baseline = forced.clone();
    // Dispatch::Wide on any hardware: AVX2 flavour if available,
    // soundly degraded scalar flavour if not — never UB, same bits.
    axpy(Dispatch::Wide, &mut forced, 2.5, &x);
    axpy(Dispatch::Scalar, &mut baseline, 2.5, &x);
    assert_eq!(forced, baseline);
    assert_eq!(
        sum(Dispatch::Wide, &x).to_bits(),
        sum(Dispatch::Scalar, &x).to_bits()
    );
    // On this container the hardware verdict also decides `active()`
    // when TDP_SIMD is unset; pin that the two agree.
    let auto = Dispatch::from_env(None, wide_available());
    assert_eq!(
        auto,
        if wide_available() {
            Dispatch::Wide
        } else {
            Dispatch::Scalar
        }
    );
}
