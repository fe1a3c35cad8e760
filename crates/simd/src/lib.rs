//! Wide kernels for the estimation hot paths.
//!
//! The trickle-down models (Equations 1–5) are tiny polynomials, so at
//! fleet scale evaluation cost is pure memory-and-arithmetic
//! throughput. This crate holds the dense f64 column kernels, each
//! compiled in two flavours from one body:
//!
//! * **Scalar** — the kernel body compiled with the build's baseline
//!   target features (SSE2 on `x86_64`);
//! * **Wide** — *the same source body* compiled under
//!   `#[target_feature(enable = "avx2")]`, letting LLVM widen the
//!   unrolled inner loops to 256-bit lanes (4 × f64).
//!
//! Every kernel runs the wide flavour where the hardware has AVX2 and
//! the scalar flavour everywhere else, checking on each call (the
//! standard library caches the detection). There is no switch: the
//! scalar flavour exists for machines without AVX2, and the wide one
//! pays for itself on every workload measured (DESIGN.md §4g).
//!
//! # Bit-identity contract
//!
//! Both flavours compile the **identical Rust expression sequence**,
//! and Rust performs no floating-point contraction or reassociation on
//! its own, so for the elementwise kernels ([`fill`], [`axpy`],
//! [`quadratic`], [`quadratic_acc`], [`clamp_predictions`],
//! [`add_assign`]) and the ordered row fold ([`fold_row_rates`]) the
//! two flavours are bit-identical by construction — vector lanes
//! evaluate the same `a·x + b` per element that the scalar loop does,
//! in the same order. So a result never depends on the machine it ran
//! on.
//!
//! The unit tests call both flavours of every kernel directly (the
//! scalar body and the AVX2 wrapper, where the test machine has AVX2)
//! and property-test them bit for bit on adversarial columns.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
pub mod kernels;

pub use kernels::{
    add_assign, axpy, clamp_predictions, fill, fold_row_rates, quadratic, quadratic_acc,
    ROW_FOLD_EVENTS,
};
