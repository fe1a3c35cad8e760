//! Runtime-dispatched wide kernels for the estimation hot paths.
//!
//! The trickle-down models (Equations 1–5) are tiny polynomials, so at
//! fleet scale evaluation cost is pure memory-and-arithmetic
//! throughput. This crate holds the dense f64 column kernels in two
//! compiled flavours selected once at startup:
//!
//! * **Scalar** — the kernel body compiled with the build's baseline
//!   target features (SSE2 on `x86_64`);
//! * **Wide** — *the same source body* compiled under
//!   `#[target_feature(enable = "avx2")]`, letting LLVM widen the
//!   unrolled inner loops to 256-bit lanes (4 × f64).
//!
//! # Bit-identity contract
//!
//! Both flavours compile the **identical Rust expression sequence**,
//! and Rust performs no floating-point contraction or reassociation on
//! its own, so for the elementwise kernels ([`fill`], [`axpy`],
//! [`quadratic`], [`quadratic_acc`], [`clamp_predictions`],
//! [`add_assign`], [`mask_in_range`], [`mask_nonneg_le_scaled`]) the
//! two dispatch paths are bit-identical by
//! construction — vector lanes evaluate the same `a·x + b` per element
//! that the scalar loop does, in the same order.
//!
//! The reductions ([`dot`], [`sum`]) cannot be both fast and
//! sequentially associated: they use a fixed four-accumulator
//! association, *written out explicitly in the shared body*, so Scalar
//! and Wide still agree bit for bit with each other. Against a naive
//! left-to-right sum they are reassociated; callers that previously
//! summed sequentially get answers within a few ulp (property-tested in
//! `tests/equivalence.rs`).
//!
//! # Dispatch
//!
//! [`Dispatch::active`] picks the flavour once per process: the
//! `TDP_SIMD` environment variable (`scalar` / `wide`) wins, otherwise
//! AVX2 auto-detection decides. Forcing `wide` on hardware without
//! AVX2 falls back to scalar — [`Dispatch::Wide`] is a *request*, and
//! every kernel re-verifies hardware support before taking the AVX2
//! path, so the unsafe `target_feature` calls stay sound even for a
//! hand-constructed `Dispatch::Wide` on unsupported hardware.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
pub mod kernels;

pub use kernels::{
    add_assign, axpy, clamp_predictions, dot, fill, fold_row_rates, mask_in_range,
    mask_nonneg_le_scaled, quadratic, quadratic_acc, sum, ROW_FOLD_EVENTS,
};

use std::sync::OnceLock;

/// Which compiled flavour of the kernels to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Baseline-target-feature build of the kernel bodies.
    Scalar,
    /// AVX2 build of the same bodies (falls back to scalar per call if
    /// the hardware lacks AVX2 — see the crate-level soundness note).
    Wide,
}

impl Dispatch {
    /// The process-wide dispatch decision, made once on first use:
    /// `TDP_SIMD` (`scalar` / `wide`) overrides, otherwise AVX2
    /// detection decides.
    pub fn active() -> Dispatch {
        static ACTIVE: OnceLock<Dispatch> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            Dispatch::from_env(std::env::var("TDP_SIMD").ok().as_deref(), wide_available())
        })
    }

    /// Pure dispatch policy: `var` is the `TDP_SIMD` value (if set),
    /// `wide_available` the hardware verdict. Separated from
    /// [`Dispatch::active`] so tests can exercise every combination
    /// without touching process environment or the cached decision.
    ///
    /// Unrecognised values fall through to auto-detection, and `wide`
    /// without hardware support degrades to [`Dispatch::Scalar`].
    pub fn from_env(var: Option<&str>, wide_available: bool) -> Dispatch {
        match var {
            Some("scalar") => Dispatch::Scalar,
            Some("wide") => {
                if wide_available {
                    Dispatch::Wide
                } else {
                    Dispatch::Scalar
                }
            }
            _ => {
                if wide_available {
                    Dispatch::Wide
                } else {
                    Dispatch::Scalar
                }
            }
        }
    }
}

/// Whether this machine can run the wide (AVX2) kernel flavour.
///
/// The detection result is cached by the standard library, so kernels
/// may call this per invocation without measurable cost.
pub fn wide_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_env_policy_covers_every_combination() {
        use Dispatch::{Scalar, Wide};
        assert_eq!(Dispatch::from_env(Some("scalar"), true), Scalar);
        assert_eq!(Dispatch::from_env(Some("scalar"), false), Scalar);
        assert_eq!(Dispatch::from_env(Some("wide"), true), Wide);
        // Forced wide without hardware support degrades, not crashes.
        assert_eq!(Dispatch::from_env(Some("wide"), false), Scalar);
        assert_eq!(Dispatch::from_env(None, true), Wide);
        assert_eq!(Dispatch::from_env(None, false), Scalar);
        // Unrecognised values fall back to auto-detection.
        assert_eq!(Dispatch::from_env(Some("avx512"), true), Wide);
        assert_eq!(Dispatch::from_env(Some(""), false), Scalar);
    }

    #[test]
    fn active_respects_process_environment() {
        // `active` caches process-wide; just pin that it agrees with
        // the pure policy applied to the live environment.
        let expect =
            Dispatch::from_env(std::env::var("TDP_SIMD").ok().as_deref(), wide_available());
        assert_eq!(Dispatch::active(), expect);
        assert_eq!(Dispatch::active(), expect, "decision must be stable");
    }
}
