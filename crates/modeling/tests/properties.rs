//! Property-based tests for the regression substrate.

use proptest::prelude::*;
use tdp_modeling::metrics::{error_summary, error_summary_with_offset};
use tdp_modeling::{
    fit_least_squares, fit_least_squares_ridge, FeatureMap, FitError, Matrix, OnlineStats,
};

proptest! {
    /// Solving `A·x = b` and multiplying back must reproduce `b` for
    /// well-conditioned matrices.
    #[test]
    fn solve_then_multiply_roundtrips(
        seed in 0u64..1000,
        n in 2usize..6,
    ) {
        // Build a diagonally dominant (hence invertible) matrix.
        let mut rows = Vec::new();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2000) as f64 / 1000.0 - 1.0
        };
        for i in 0..n {
            let mut row: Vec<f64> = (0..n).map(|_| next()).collect();
            row[i] += n as f64 + 1.0;
            rows.push(row);
        }
        let a = Matrix::from_rows(&rows);
        let b: Vec<f64> = (0..n).map(|_| next() * 10.0).collect();
        let x = a.solve(&b).expect("diagonally dominant is solvable");
        let back = a.matmul(&Matrix::column(&x));
        for i in 0..n {
            prop_assert!((back[(i, 0)] - b[i]).abs() < 1e-8,
                "row {i}: {} vs {}", back[(i, 0)], b[i]);
        }
    }

    /// Gram matrices are symmetric positive semi-definite on the
    /// diagonal.
    #[test]
    fn gram_is_symmetric_with_nonnegative_diagonal(
        vals in prop::collection::vec(-100.0f64..100.0, 12),
    ) {
        let rows: Vec<Vec<f64>> =
            vals.chunks(3).map(|c| c.to_vec()).collect();
        let m = Matrix::from_rows(&rows);
        let g = m.gram();
        for i in 0..3 {
            prop_assert!(g[(i, i)] >= 0.0);
            for j in 0..3 {
                prop_assert!((g[(i, j)] - g[(j, i)]).abs() < 1e-9);
            }
        }
    }

    /// OLS recovers exact linear relationships regardless of the
    /// coefficients' signs and magnitudes (within float headroom).
    #[test]
    fn ols_recovers_exact_linear_fit(
        intercept in -100.0f64..100.0,
        slope in -10.0f64..10.0,
    ) {
        let map = FeatureMap::linear(1);
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> =
            xs.iter().map(|x| intercept + slope * x[0]).collect();
        let m = fit_least_squares(&map, &xs, &ys).unwrap();
        prop_assert!((m.coefficients()[0] - intercept).abs() < 1e-6);
        prop_assert!((m.coefficients()[1] - slope).abs() < 1e-7);
    }

    /// Ridge damping never turns a solvable system unsolvable, and its
    /// predictions stay close to the undamped ones.
    #[test]
    fn ridge_is_a_small_perturbation(lambda in 0.0f64..1e-6) {
        let map = FeatureMap::quadratic_single(1, 0);
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 * 0.1]).collect();
        let ys: Vec<f64> =
            xs.iter().map(|x| 5.0 + x[0] + 0.3 * x[0] * x[0]).collect();
        let plain = fit_least_squares(&map, &xs, &ys).unwrap();
        let damped = fit_least_squares_ridge(&map, &xs, &ys, lambda).unwrap();
        for x in &xs {
            prop_assert!((plain.predict(x) - damped.predict(x)).abs() < 1e-3);
        }
    }

    /// Equation-6 error is shift-sensitive but scale-invariant:
    /// multiplying both series by a positive constant leaves it
    /// unchanged.
    #[test]
    fn equation6_is_scale_invariant(
        scale in 0.1f64..100.0,
        measured in prop::collection::vec(10.0f64..500.0, 1..30),
    ) {
        let modeled: Vec<f64> =
            measured.iter().map(|m| m * 1.07).collect();
        let base = error_summary(&modeled, &measured).average_error_pct;
        let scaled_modeled: Vec<f64> = modeled.iter().map(|m| m * scale).collect();
        let scaled_measured: Vec<f64> = measured.iter().map(|m| m * scale).collect();
        let scaled = error_summary(&scaled_modeled, &scaled_measured).average_error_pct;
        prop_assert!((base - scaled).abs() < 1e-9);
        prop_assert!((base - 7.0).abs() < 1e-9, "7% by construction");
    }

    /// Subtracting a DC offset can only grow (or preserve) relative
    /// error when the offset moves measured values toward zero.
    #[test]
    fn dc_offset_amplifies_error(
        offset in 0.0f64..9.0,
        noise in 0.01f64..0.5,
    ) {
        let measured = vec![10.0, 11.0, 12.0];
        let modeled: Vec<f64> = measured.iter().map(|m| m + noise).collect();
        let plain = error_summary(&modeled, &measured).average_error_pct;
        let adjusted =
            error_summary_with_offset(&modeled, &measured, offset).average_error_pct;
        prop_assert!(adjusted >= plain - 1e-12);
    }

    /// Welford statistics agree with naive two-pass computation.
    #[test]
    fn online_stats_match_two_pass(
        xs in prop::collection::vec(-1e3f64..1e3, 2..50),
    ) {
        let online: OnlineStats = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
            / xs.len() as f64;
        prop_assert!((online.mean() - mean).abs() < 1e-9 * mean.abs().max(1.0));
        prop_assert!((online.population_variance() - var).abs()
            < 1e-7 * var.max(1.0));
    }
}

/// Every `FitError` variant, produced on purpose by the batch fitter.
mod fit_error_variants {
    use super::*;

    fn map() -> FeatureMap {
        FeatureMap::linear(1)
    }

    #[test]
    fn not_enough_samples() {
        let err = fit_least_squares(&map(), &[vec![1.0]], &[1.0]).unwrap_err();
        assert!(matches!(
            err,
            FitError::NotEnoughSamples {
                samples: 1,
                coefficients: 2
            }
        ));
    }

    #[test]
    fn singular_system() {
        // A constant input is collinear with the intercept.
        let xs = vec![vec![3.0]; 8];
        let ys = vec![1.0; 8];
        assert!(matches!(
            fit_least_squares(&map(), &xs, &ys).unwrap_err(),
            FitError::SingularSystem
        ));
    }

    #[test]
    fn length_mismatch() {
        let err = fit_least_squares(&map(), &[vec![1.0], vec![2.0]], &[1.0]).unwrap_err();
        assert!(matches!(err, FitError::LengthMismatch { xs: 2, ys: 1 }));
    }

    #[test]
    fn non_finite_input() {
        let xs = vec![vec![1.0], vec![f64::NAN], vec![3.0]];
        let ys = vec![1.0, 2.0, 3.0];
        assert!(matches!(
            fit_least_squares(&map(), &xs, &ys).unwrap_err(),
            FitError::NonFiniteInput
        ));
        // Non-finite responses are rejected too.
        let bad_y = fit_least_squares(
            &map(),
            &[vec![1.0], vec![2.0], vec![3.0]],
            &[1.0, f64::INFINITY, 3.0],
        );
        assert!(matches!(bad_y.unwrap_err(), FitError::NonFiniteInput));
    }
}
