//! Model-selection search over candidate inputs and forms.
//!
//! The paper's final choice of "which event type(s) to use is determined
//! by the average error rate and a qualitative comparison of the measured
//! and modeled power traces" (§3.3). [`ModelSelector`] mechanises the
//! quantitative half: it fits every combination of a candidate-input
//! subset and a model form on a training trace, evaluates Equation 6
//! error on a validation trace, and ranks the outcomes.

use crate::features::FeatureMap;
use crate::metrics::average_error;
use crate::model::RegressionModel;
use crate::ols::fit_least_squares_ridge;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A model form that can be instantiated for any number of inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CandidateForm {
    /// Intercept + linear terms.
    Linear,
    /// Intercept + linear + quadratic terms for every input.
    Quadratic,
    /// Intercept only (a constant model — the chipset baseline).
    Constant,
}

impl CandidateForm {
    /// All forms the paper considers (§3.3.1).
    pub const ALL: &'static [CandidateForm] = &[
        CandidateForm::Constant,
        CandidateForm::Linear,
        CandidateForm::Quadratic,
    ];

    /// Builds the feature map for `n_inputs` inputs under this form.
    pub fn feature_map(self, n_inputs: usize) -> FeatureMap {
        match self {
            CandidateForm::Linear => FeatureMap::linear(n_inputs),
            CandidateForm::Quadratic => FeatureMap::quadratic_all(n_inputs),
            CandidateForm::Constant => FeatureMap::constant(n_inputs),
        }
    }
}

impl fmt::Display for CandidateForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CandidateForm::Linear => "linear",
            CandidateForm::Quadratic => "quadratic",
            CandidateForm::Constant => "constant",
        })
    }
}

/// One evaluated candidate: which inputs, which form, what error.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelectionOutcome {
    /// Indices (into the candidate input list) used by this model.
    pub input_indices: Vec<usize>,
    /// Human-readable names of those inputs.
    pub input_names: Vec<String>,
    /// The form fitted.
    pub form: CandidateForm,
    /// Validation average error (Equation 6), percent.
    pub validation_error_pct: f64,
    /// Training average error, percent.
    pub training_error_pct: f64,
    /// The fitted model.
    pub model: RegressionModel,
}

/// Exhaustive model-selection search.
///
/// # Example
///
/// ```
/// use tdp_modeling::ModelSelector;
///
/// // Target depends quadratically on input 0; input 1 is noise.
/// let xs: Vec<Vec<f64>> = (0..60)
///     .map(|i| vec![i as f64 * 0.1, ((i * 7919) % 13) as f64])
///     .collect();
/// let ys: Vec<f64> = xs.iter().map(|x| 5.0 + x[0] * x[0]).collect();
///
/// let selector = ModelSelector::new(vec!["signal".into(), "noise".into()]);
/// let ranked = selector.search(&xs, &ys, &xs, &ys);
/// let best = &ranked[0];
/// assert!(best.input_indices.contains(&0), "signal input selected");
/// assert!(best.validation_error_pct < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct ModelSelector {
    input_names: Vec<String>,
}

/// Largest candidate subset searched (the paper's models use at most
/// two inputs).
const MAX_SUBSET_SIZE: usize = 2;

/// Ridge damping of every candidate fit.
const RIDGE_LAMBDA: f64 = 1e-9;

impl ModelSelector {
    /// Creates a selector over named candidate inputs. Subsets of up to
    /// two inputs are searched.
    pub fn new(input_names: Vec<String>) -> Self {
        Self { input_names }
    }

    /// Fits and ranks every candidate. `train_*` fits coefficients;
    /// `valid_*` scores them. Rows of the input matrices are full
    /// candidate vectors; the selector projects out subsets itself.
    ///
    /// Candidate subsets are fitted on `tdp_parallel::par_map` (one work
    /// item per subset); results are flattened in subset order and the
    /// final ranking uses a *stable* sort on validation error, so the
    /// outcome is deterministic and identical to a serial sweep.
    ///
    /// Returns outcomes sorted by ascending validation error. Candidates
    /// whose fit fails (singular, too few samples) are silently dropped.
    pub fn search(
        &self,
        train_xs: &[Vec<f64>],
        train_ys: &[f64],
        valid_xs: &[Vec<f64>],
        valid_ys: &[f64],
    ) -> Vec<SelectionOutcome> {
        let n = self.input_names.len();

        let per_subset = tdp_parallel::par_map(subsets_up_to(n, MAX_SUBSET_SIZE), |subset| {
            self.fit_subset(&subset, train_xs, train_ys, valid_xs, valid_ys)
        });
        let mut outcomes: Vec<SelectionOutcome> = per_subset.into_iter().flatten().collect();

        outcomes.sort_by(|a, b| {
            a.validation_error_pct
                .partial_cmp(&b.validation_error_pct)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        outcomes
    }

    /// Fits every form of one candidate subset (one parallel work item).
    fn fit_subset(
        &self,
        subset: &[usize],
        train_xs: &[Vec<f64>],
        train_ys: &[f64],
        valid_xs: &[Vec<f64>],
        valid_ys: &[f64],
    ) -> Vec<SelectionOutcome> {
        let project = |rows: &[Vec<f64>]| -> Vec<Vec<f64>> {
            rows.iter()
                .map(|r| subset.iter().map(|&i| r[i]).collect())
                .collect()
        };
        let tx = project(train_xs);
        let vx = project(valid_xs);

        let mut outcomes = Vec::new();
        for &form in CandidateForm::ALL {
            if form == CandidateForm::Constant && !subset.is_empty() {
                continue; // constant model is input-independent
            }
            if form != CandidateForm::Constant && subset.is_empty() {
                continue;
            }
            let map = form.feature_map(subset.len());
            let Ok(model) = fit_least_squares_ridge(&map, &tx, train_ys, RIDGE_LAMBDA) else {
                continue;
            };
            let score = |xs: &[Vec<f64>], ys: &[f64]| {
                let modeled: Vec<f64> = xs.iter().map(|x| model.predict(x)).collect();
                average_error(&modeled, ys)
            };
            outcomes.push(SelectionOutcome {
                input_indices: subset.to_vec(),
                input_names: subset
                    .iter()
                    .map(|&i| self.input_names[i].clone())
                    .collect(),
                form,
                validation_error_pct: score(&vx, valid_ys),
                training_error_pct: score(&tx, train_ys),
                model,
            });
        }
        outcomes
    }
}

/// Enumerates subsets of `{0..n}` with size 0..=k, in size-then-lex order.
fn subsets_up_to(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = vec![vec![]];
    let mut current: Vec<Vec<usize>> = vec![vec![]];
    for _ in 0..k {
        let mut next = Vec::new();
        for s in &current {
            let start = s.last().map_or(0, |&l| l + 1);
            for i in start..n {
                let mut t = s.clone();
                t.push(i);
                next.push(t);
            }
        }
        out.extend(next.iter().cloned());
        current = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_enumeration_counts() {
        // C(4,1) + C(4,2) + empty = 4 + 6 + 1
        assert_eq!(subsets_up_to(4, 2).len(), 11);
        assert_eq!(subsets_up_to(3, 3).len(), 8, "full power set");
        assert_eq!(subsets_up_to(0, 2), vec![Vec::<usize>::new()]);
    }

    #[test]
    fn constant_form_included_once() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let ys = vec![5.0; 10];
        let sel = ModelSelector::new(vec!["a".into()]);
        let ranked = sel.search(&xs, &ys, &xs, &ys);
        let constants = ranked
            .iter()
            .filter(|o| o.form == CandidateForm::Constant)
            .count();
        assert_eq!(constants, 1);
        // constant target → constant model wins (ties broken by sort
        // stability don't matter; its error must be ~0)
        let c = ranked
            .iter()
            .find(|o| o.form == CandidateForm::Constant)
            .unwrap();
        // ridge damping biases the intercept by O(lambda/n); allow for it
        assert!(c.validation_error_pct < 1e-6);
    }

    #[test]
    fn selector_prefers_true_input_over_noise() {
        let xs: Vec<Vec<f64>> = (0..80)
            .map(|i| {
                let sig = (i as f64 * 0.13).sin().abs();
                let noise = ((i * 2654435761u64 as usize) % 97) as f64 / 97.0;
                vec![sig, noise]
            })
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 10.0 + 3.0 * x[0]).collect();
        let sel = ModelSelector::new(vec!["sig".into(), "noise".into()]);
        let best = &sel.search(&xs, &ys, &xs, &ys)[0];
        assert_eq!(best.input_indices, vec![0]);
        assert!(best.validation_error_pct < 1e-6);
    }

    #[test]
    fn validation_on_held_out_data_penalises_overfit() {
        // Train region x∈[0,1], validate x∈[2,3]: quadratic fitted to a
        // linear target extrapolates worse than the linear form.
        let train_xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 30.0]).collect();
        let train_ys: Vec<f64> = train_xs
            .iter()
            .enumerate()
            .map(|(i, x)| 1.0 + x[0] + if i % 2 == 0 { 0.01 } else { -0.01 })
            .collect();
        let valid_xs: Vec<Vec<f64>> = (0..30).map(|i| vec![2.0 + i as f64 / 30.0]).collect();
        let valid_ys: Vec<f64> = valid_xs.iter().map(|x| 1.0 + x[0]).collect();

        let sel = ModelSelector::new(vec!["x".into()]);
        let ranked = sel.search(&train_xs, &train_ys, &valid_xs, &valid_ys);
        let lin = ranked
            .iter()
            .find(|o| o.form == CandidateForm::Linear)
            .unwrap();
        assert!(lin.validation_error_pct < 2.0);
    }

    #[test]
    fn search_ranking_is_pinned() {
        // One fixed three-input problem, trained on one range and
        // validated on the next: pins the subset sweep (sizes 0-2), the
        // ridge damping and the Equation 6 scoring bit for bit.
        let row = |i: usize| {
            let t = i as f64;
            vec![
                (t * 0.07).sin().abs(),
                ((i * 37) % 11) as f64 / 11.0,
                t * 0.05,
            ]
        };
        let target = |i: usize, x: &[f64]| {
            let jitter = ((i * 2_654_435_761) % 101) as f64 / 1_000.0;
            4.0 + 2.0 * x[0] + 0.5 * x[0] * x[0] + 0.3 * x[2] + jitter
        };
        let train_xs: Vec<Vec<f64>> = (0..60).map(row).collect();
        let valid_xs: Vec<Vec<f64>> = (60..100).map(row).collect();
        let train_ys: Vec<f64> = train_xs
            .iter()
            .enumerate()
            .map(|(i, x)| target(i, x))
            .collect();
        let valid_ys: Vec<f64> = valid_xs
            .iter()
            .enumerate()
            .map(|(i, x)| target(i + 60, x))
            .collect();
        let sel = ModelSelector::new(vec!["a".into(), "b".into(), "c".into()]);
        let ranked: Vec<(Vec<usize>, CandidateForm, u64)> = sel
            .search(&train_xs, &train_ys, &valid_xs, &valid_ys)
            .into_iter()
            .map(|o| (o.input_indices, o.form, o.validation_error_pct.to_bits()))
            .collect();
        use CandidateForm::{Constant, Linear, Quadratic};
        let expected = vec![
            (vec![0, 2], Quadratic, 4_600_626_788_694_623_238),
            (vec![0, 2], Linear, 4_604_312_107_490_292_986),
            (vec![2], Linear, 4_622_334_926_825_466_599),
            (vec![1, 2], Linear, 4_622_348_112_788_761_707),
            (vec![0, 1], Linear, 4_622_716_070_284_084_794),
            (vec![0], Linear, 4_622_716_657_485_958_589),
            (vec![0], Quadratic, 4_622_739_877_503_965_051),
            (vec![0, 1], Quadratic, 4_622_743_462_264_246_678),
            (vec![1], Linear, 4_623_517_922_614_254_532),
            (vec![1], Quadratic, 4_623_544_031_630_917_809),
            (vec![], Constant, 4_623_557_398_436_977_896),
            (vec![2], Quadratic, 4_632_298_218_565_305_003),
            (vec![1, 2], Quadratic, 4_632_301_330_501_508_311),
        ];
        assert_eq!(ranked, expected);
    }

    #[test]
    fn form_display_names() {
        assert_eq!(CandidateForm::Linear.to_string(), "linear");
        assert_eq!(CandidateForm::Quadratic.to_string(), "quadratic");
        assert_eq!(CandidateForm::Constant.to_string(), "constant");
    }
}
