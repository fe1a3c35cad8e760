//! **tdp-fleet** — fleet-scale batched power estimation.
//!
//! The paper's estimator is deliberately cheap — "the model is simple
//! enough to be evaluated at runtime" (§3.3.1) — and PR 1 made a single
//! machine's sample→estimate path allocation-free. This crate scales
//! that path *across machines*: one
//! [`SystemPowerModel`](trickledown::SystemPowerModel) evaluated over
//! thousands of simulated servers per window, the shape a datacenter
//! power-management controller consumes.
//!
//! Two ideas, two modules:
//!
//! * [`SampleBatch`] — structure-of-arrays ingestion. The models only
//!   consume thirteen machine-aggregated event rates, so a fleet window
//!   is thirteen contiguous `f64` columns (squared inputs materialised
//!   at ingest), not N pointer-chasing sample structs. Extraction
//!   mirrors `SystemSample::from_sample_set` through the one row fold
//!   the wire decoder also runs ([`fold_event_lanes`]), with zero
//!   allocation in the steady state.
//! * [`FleetEstimator`] — vectorized evaluation. Equations 1–5 are
//!   linear/quadratic forms, so each model coefficient becomes one
//!   `axpy` pass over a column (the [`tdp_simd`] kernels); output lands in
//!   caller-owned column buffers reused window after window.
//!
//! Models are fitted offline, as in the paper, by
//! [`trickledown::Calibrator`]; the estimator runs them with fixed
//! coefficients.
//!
//! # Quickstart
//!
//! ```
//! use tdp_fleet::FleetEstimator;
//! use tdp_simsys::{Machine, MachineConfig};
//! use trickledown::SystemPowerModel;
//!
//! // A fleet of 64 simulated machines (one here, sampled 64 times).
//! let mut machine = Machine::new(MachineConfig::default());
//! for _ in 0..1000 {
//!     machine.tick();
//! }
//! let set = machine.read_counters();
//!
//! let mut fleet = FleetEstimator::with_capacity(SystemPowerModel::paper(), 64);
//! fleet.begin_window();
//! for _ in 0..64 {
//!     fleet.push_sample_set(&set);
//! }
//! let estimates = fleet.estimate();
//! assert_eq!(estimates.len(), 64);
//! println!("fleet draws {:.0} W", estimates.fleet_total());
//! ```

// The wide kernels live in `tdp-simd`; this crate only calls them, so
// it needs no `unsafe` at all.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anomaly;
mod batch;
mod estimator;

pub use anomaly::{AnomalyDetector, AnomalySummary, Verdict};
pub use batch::{
    col, fold_event_lanes, row_slots, RowAccumulator, SampleBatch, COLUMNS, ROW_EVENTS,
};
pub use estimator::{FleetEstimates, FleetEstimator};
