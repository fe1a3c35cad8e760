//! Regression substrate for the trickledown power models.
//!
//! The paper's methodology (§3.3.1) dictates the shape of this crate:
//! models must be cheap enough for runtime power estimation, so the only
//! forms considered are **linear** and **single- or multiple-input
//! quadratic** regressions. Fitting happens offline against measured
//! traces; prediction is a handful of multiply-adds.
//!
//! Everything here is implemented from scratch on `std`:
//!
//! * [`Matrix`] — small dense row-major matrices with the operations OLS
//!   needs (transpose-products, Gaussian elimination with partial
//!   pivoting);
//! * [`FeatureMap`] — declarative polynomial feature expansion
//!   (intercept, linear, quadratic and cross terms);
//! * [`fit_least_squares`] — ordinary least squares via the normal
//!   equations, with optional ridge damping for near-collinear inputs;
//! * [`RegressionModel`] — a fitted, serialisable model;
//! * [`metrics`] — goodness-of-fit measures, most importantly the paper's
//!   Equation 6 **average error** with optional DC-offset subtraction (the
//!   disk-model convention of §4.2.3);
//! * [`ModelSelector`] — exhaustive search over candidate input subsets
//!   and forms, reproducing how the paper picked "which event type(s) to
//!   use … determined by the average error rate" (§3.3).
//!
//! # Example: fitting a noisy quadratic
//!
//! ```
//! use tdp_modeling::{fit_least_squares, FeatureMap};
//!
//! // y = 3 + 2x + 0.5x²
//! let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 * 0.1]).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x[0] + 0.5 * x[0] * x[0]).collect();
//!
//! let map = FeatureMap::quadratic_single(1, 0);
//! let model = fit_least_squares(&map, &xs, &ys)?;
//! let c = model.coefficients();
//! assert!((c[0] - 3.0).abs() < 1e-6);
//! assert!((c[1] - 2.0).abs() < 1e-6);
//! assert!((c[2] - 0.5).abs() < 1e-6);
//! # Ok::<(), tdp_modeling::FitError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod features;
mod matrix;
pub mod metrics;
mod model;
mod ols;
mod select;
mod stats;

pub use features::{FeatureMap, FeatureTerm};
pub use matrix::Matrix;
pub use metrics::ErrorSummary;
pub use model::RegressionModel;
pub use ols::{fit_least_squares, fit_least_squares_ridge, FitError};
pub use select::{CandidateForm, ModelSelector, SelectionOutcome};
pub use stats::OnlineStats;
