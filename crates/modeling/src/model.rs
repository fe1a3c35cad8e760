//! Fitted regression models.

use crate::features::FeatureMap;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A fitted polynomial regression model: `ŷ = Σ βᵢ · termᵢ(x)`.
///
/// Prediction is a handful of multiply-adds, satisfying the paper's
/// low-computational-cost requirement for runtime power estimation
/// (§3.3.1). Models serialise with `serde` so calibrated coefficients can
/// be shipped and reloaded.
///
/// # Example
///
/// ```
/// use tdp_modeling::{FeatureMap, RegressionModel};
///
/// // Equation 1's per-CPU form: 9.25 + 26.45·active + 4.31·uops_per_cycle
/// let map = FeatureMap::linear(2);
/// let m = RegressionModel::new(map, vec![9.25, 26.45, 4.31]);
/// let idle = m.predict(&[0.0, 0.0]);
/// let busy = m.predict(&[1.0, 3.0]);
/// assert!((idle - 9.25).abs() < 1e-12);
/// assert!((busy - 48.63).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionModel {
    map: FeatureMap,
    coefficients: Vec<f64>,
}

impl RegressionModel {
    /// Creates a model from a feature map and one coefficient per term.
    ///
    /// # Panics
    ///
    /// Panics if `coefficients.len() != map.output_dim()`.
    pub fn new(map: FeatureMap, coefficients: Vec<f64>) -> Self {
        assert_eq!(
            coefficients.len(),
            map.output_dim(),
            "need one coefficient per feature term"
        );
        Self { map, coefficients }
    }

    /// The feature map.
    pub fn feature_map(&self) -> &FeatureMap {
        &self.map
    }

    /// The fitted coefficients, one per feature term.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Predicts the target for an input vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != input_dim` of the feature map.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.map
            .terms()
            .iter()
            .zip(&self.coefficients)
            .map(|(t, &b)| b * t.eval(x))
            .sum()
    }
}

impl fmt::Display for RegressionModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (t, &b) in self.map.terms().iter().zip(&self.coefficients) {
            if first {
                write!(f, "{b:.4}·{t}")?;
                first = false;
            } else if b < 0.0 {
                write!(f, " - {:.4}·{t}", -b)?;
            } else {
                write!(f, " + {b:.4}·{t}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "one coefficient per feature term")]
    fn coefficient_count_checked() {
        let _ = RegressionModel::new(FeatureMap::linear(1), vec![1.0]);
    }

    #[test]
    fn display_formats_signs() {
        let m = RegressionModel::new(
            FeatureMap::quadratic_single(1, 0),
            vec![29.2, -0.00501, 0.00000813],
        );
        let s = m.to_string();
        assert!(s.starts_with("29.2"), "{s}");
        assert!(s.contains('-'), "{s}");
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let m = RegressionModel::new(
            FeatureMap::quadratic_all(2),
            vec![21.6, 1.06, -1.11, 9.18, -4.54],
        );
        let json = serde_json::to_string(&m).unwrap();
        let back: RegressionModel = serde_json::from_str(&json).unwrap();
        let x = [0.3, 0.7];
        assert_eq!(m.predict(&x), back.predict(&x));
        assert_eq!(m, back);
    }
}
