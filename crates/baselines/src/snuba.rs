//! Snuba (Varma & Ré, PVLDB 2018) re-implementation.
//!
//! Snuba automates labeling-function construction: starting from a set of
//! *primitives* ("analogous to our FGFs" — Section 6.1, and we feed it
//! exactly those similarity features, "to be favorable to Snuba"), it
//! iteratively trains small heuristic models on subsets of primitives,
//! calibrates an abstain threshold for each, selects the best by F1 ×
//! coverage-of-the-still-uncovered, and finally combines the committee
//! with a generative label model.
//!
//! The paper notes Snuba's runtime "is exponential to the number of
//! patterns" because it enumerates primitive subsets; the candidate cap
//! here keeps runs tractable while preserving that scaling behaviour for
//! the benches.

use crate::label_model::{LabelModel, Vote};
use ig_core::labeler::{Labeler, LabelerConfig};
use ig_eval::metrics::task_f1;
use ig_nn::lbfgs::LbfgsConfig;
use ig_nn::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// Snuba hyper-parameters.
#[derive(Debug, Clone)]
pub struct SnubaConfig {
    /// Committee size (synthesis iterations).
    pub max_lfs: usize,
    /// Max primitives per heuristic (the subset-size knob; exponential in
    /// the original system).
    pub max_subset_size: usize,
    /// Candidate heuristics evaluated per iteration.
    pub candidates_per_iter: usize,
    /// Abstain thresholds tried per heuristic.
    pub beta_grid: usize,
    /// EM rounds for the final label model.
    pub em_iterations: usize,
}

impl Default for SnubaConfig {
    fn default() -> Self {
        Self {
            max_lfs: 10,
            max_subset_size: 2,
            candidates_per_iter: 40,
            beta_grid: 8,
            em_iterations: 15,
        }
    }
}

/// One synthesized labeling function: a tiny logistic model over a
/// primitive subset plus an abstain threshold on its confidence.
#[derive(Debug)]
struct HeuristicLf {
    feature_subset: Vec<usize>,
    model: Labeler,
    /// Abstain when max class probability < this.
    confidence_floor: f32,
}

impl HeuristicLf {
    fn vote(&self, full_features: &Matrix, row: usize) -> Vote {
        let sub = self.project_row(full_features, row);
        let proba = self.model.predict_proba(&sub);
        let (best_class, best_p) = (0..proba.cols())
            .map(|c| (c, proba.get(0, c)))
            .max_by(|a, b| a.1.total_cmp(&b.1))?;
        if best_p >= self.confidence_floor {
            Some(best_class)
        } else {
            None
        }
    }

    fn project_row(&self, full: &Matrix, row: usize) -> Matrix {
        Matrix::from_fn(1, self.feature_subset.len(), |_, c| {
            full.get(row, self.feature_subset[c])
        })
    }
}

fn project(full: &Matrix, subset: &[usize]) -> Matrix {
    Matrix::from_fn(full.rows(), subset.len(), |r, c| full.get(r, subset[c]))
}

/// A trained Snuba committee.
#[derive(Debug)]
pub struct Snuba {
    lfs: Vec<HeuristicLf>,
    label_model: LabelModel,
    num_classes: usize,
    /// Per-iteration dev F1 of the selected LF (diagnostic).
    pub selection_scores: Vec<f64>,
}

impl Snuba {
    /// Run the synthesis loop on dev features/labels, then fit the label
    /// model on the unlabeled feature matrix.
    pub fn train(
        dev_features: &Matrix,
        dev_labels: &[usize],
        unlabeled_features: &Matrix,
        num_classes: usize,
        config: &SnubaConfig,
        rng: &mut impl Rng,
    ) -> Self {
        assert_eq!(dev_features.rows(), dev_labels.len(), "label mismatch");
        let d = dev_features.cols();
        let mut lfs: Vec<HeuristicLf> = Vec::new();
        let mut selection_scores = Vec::new();
        // Dev points not yet confidently covered by the committee.
        let mut uncovered: Vec<bool> = vec![true; dev_labels.len()];

        for _iter in 0..config.max_lfs {
            // Candidate subsets: all singletons first, then random pairs
            // and triples up to the cap.
            let mut subsets: Vec<Vec<usize>> = (0..d).map(|f| vec![f]).collect();
            let mut all_features: Vec<usize> = (0..d).collect();
            while subsets.len() < config.candidates_per_iter.max(d) {
                let k = rng.gen_range(2..=config.max_subset_size.max(2)).min(d);
                all_features.shuffle(rng);
                let mut s = all_features[..k].to_vec();
                s.sort_unstable();
                subsets.push(s);
            }
            subsets.truncate(config.candidates_per_iter.max(1));

            let mut best: Option<(f64, HeuristicLf)> = None;
            for subset in &subsets {
                if let Some((score, lf)) = fit_candidate(
                    dev_features,
                    dev_labels,
                    subset,
                    num_classes,
                    config,
                    &uncovered,
                    rng,
                ) {
                    if best.as_ref().is_none_or(|(s, _)| score > *s) {
                        best = Some((score, lf));
                    }
                }
            }
            let Some((score, lf)) = best else { break };
            if score <= 0.0 {
                break;
            }
            // Update coverage.
            for (i, flag) in uncovered.iter_mut().enumerate() {
                if *flag && lf.vote(dev_features, i).is_some() {
                    *flag = false;
                }
            }
            selection_scores.push(score);
            lfs.push(lf);
            if uncovered.iter().all(|&u| !u) && lfs.len() >= 3 {
                break;
            }
        }

        // Generative model fit on the unlabeled votes (Snuba's final step).
        let votes: Vec<Vec<Vote>> = (0..unlabeled_features.rows())
            .map(|r| {
                lfs.iter()
                    .map(|lf| lf.vote(unlabeled_features, r))
                    .collect()
            })
            .collect();
        let label_model = LabelModel::fit(&votes, num_classes, config.em_iterations);
        Self {
            lfs,
            label_model,
            num_classes,
            selection_scores,
        }
    }

    /// Committee size.
    pub fn num_lfs(&self) -> usize {
        self.lfs.len()
    }

    /// Weak labels for a feature matrix.
    pub fn label(&self, features: &Matrix) -> Vec<usize> {
        (0..features.rows())
            .map(|r| {
                let votes: Vec<Vote> = self.lfs.iter().map(|lf| lf.vote(features, r)).collect();
                self.label_model.predict(&votes)
            })
            .collect()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }
}

/// Train one candidate heuristic and calibrate its abstain threshold;
/// returns (selection score, LF).
#[allow(clippy::too_many_arguments)]
fn fit_candidate(
    dev_features: &Matrix,
    dev_labels: &[usize],
    subset: &[usize],
    num_classes: usize,
    config: &SnubaConfig,
    uncovered: &[bool],
    rng: &mut impl Rng,
) -> Option<(f64, HeuristicLf)> {
    let x = project(dev_features, subset);
    let mut model = Labeler::new(
        subset.len(),
        LabelerConfig {
            hidden: vec![],
            num_classes,
            l2: 1e-3,
            lbfgs: LbfgsConfig {
                max_iters: 40,
                ..Default::default()
            },
        },
        rng,
    )
    .ok()?;
    model.fit(&x, dev_labels).ok()?;
    let proba = model.predict_proba(&x);

    // Calibrate the confidence floor over a grid; score candidates by
    // F1-on-covered × fraction-of-uncovered-newly-covered.
    let uniform = 1.0 / num_classes as f32;
    let mut best: Option<(f64, f32)> = None;
    for step in 0..config.beta_grid.max(1) {
        let floor =
            uniform + (1.0 - uniform) * (step as f32 + 0.5) / config.beta_grid.max(1) as f32 * 0.9;
        let mut covered_gold = Vec::new();
        let mut covered_pred = Vec::new();
        let mut newly_covered = 0usize;
        for r in 0..proba.rows() {
            let Some((c, p)) = (0..proba.cols())
                .map(|c| (c, proba.get(r, c)))
                .max_by(|a, b| a.1.total_cmp(&b.1))
            else {
                continue;
            };
            if p >= floor {
                covered_gold.push(dev_labels[r]);
                covered_pred.push(c);
                if uncovered[r] {
                    newly_covered += 1;
                }
            }
        }
        if covered_gold.is_empty() {
            continue;
        }
        let f1 = task_f1(num_classes, &covered_gold, &covered_pred);
        let total_uncovered: usize = uncovered.iter().filter(|&&u| u).count();
        let novelty = if total_uncovered == 0 {
            0.5 // committee already covers everything; score by F1 alone
        } else {
            newly_covered as f64 / total_uncovered as f64
        };
        let score = f1 * (0.25 + 0.75 * novelty);
        if best.as_ref().is_none_or(|(s, _)| score > *s) {
            best = Some((score, floor));
        }
    }
    let (score, floor) = best?;
    Some((
        score,
        HeuristicLf {
            feature_subset: subset.to_vec(),
            model,
            confidence_floor: floor,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Features where feature 0 separates classes; others are noise.
    fn feature_task(n: usize, d: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let y = i % 2;
            let mut row: Vec<f32> = (0..d).map(|_| rng.gen_range(0.8..0.9)).collect();
            row[0] = if y == 1 {
                rng.gen_range(0.93..1.0)
            } else {
                rng.gen_range(0.80..0.87)
            };
            rows.push(row);
            labels.push(y);
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn snuba_learns_separable_task() {
        let mut rng = StdRng::seed_from_u64(0);
        let (dev_x, dev_y) = feature_task(60, 5, 1);
        let (test_x, test_y) = feature_task(80, 5, 2);
        let snuba = Snuba::train(
            &dev_x,
            &dev_y,
            &test_x,
            2,
            &SnubaConfig::default(),
            &mut rng,
        );
        assert!(snuba.num_lfs() >= 1);
        let preds = snuba.label(&test_x);
        let correct = preds.iter().zip(&test_y).filter(|(a, b)| a == b).count();
        assert!(correct >= 64, "{correct}/80 correct");
    }

    #[test]
    fn committee_is_bounded() {
        let mut rng = StdRng::seed_from_u64(3);
        let (dev_x, dev_y) = feature_task(40, 4, 4);
        let config = SnubaConfig {
            max_lfs: 3,
            ..Default::default()
        };
        let snuba = Snuba::train(&dev_x, &dev_y, &dev_x, 2, &config, &mut rng);
        assert!(snuba.num_lfs() <= 3);
    }

    #[test]
    fn selection_scores_are_recorded() {
        let mut rng = StdRng::seed_from_u64(5);
        let (dev_x, dev_y) = feature_task(40, 4, 6);
        let snuba = Snuba::train(&dev_x, &dev_y, &dev_x, 2, &SnubaConfig::default(), &mut rng);
        assert_eq!(snuba.selection_scores.len(), snuba.num_lfs());
        assert!(snuba.selection_scores.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn multiclass_snuba() {
        let mut rng = StdRng::seed_from_u64(7);
        // Three classes, each flagged by its own feature.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..90 {
            let y = i % 3;
            let mut row: Vec<f32> = (0..4).map(|_| rng.gen_range(0.8..0.86)).collect();
            row[y] = rng.gen_range(0.94..1.0);
            rows.push(row);
            labels.push(y);
        }
        let x = Matrix::from_rows(&rows);
        let snuba = Snuba::train(&x, &labels, &x, 3, &SnubaConfig::default(), &mut rng);
        let preds = snuba.label(&x);
        let correct = preds.iter().zip(&labels).filter(|(a, b)| a == b).count();
        assert!(correct >= 70, "{correct}/90 correct");
        assert_eq!(snuba.num_classes(), 3);
    }
}
