//! The weak-label MLP (Section 5.2) trained with L-BFGS (Section 6.1).
//!
//! "The model can have any architecture and be small because there are not
//! as many features as say the number of pixels in an image. We use a
//! multilayer perceptron (MLP) because it is simple, but also has good
//! performance."
//!
//! Features are standardized with statistics from the training set before
//! entering the network — NCC scores on textured industrial images
//! cluster in a narrow high band, and centering them makes L-BFGS
//! converge far more reliably.

use crate::{CoreError, Result};
use ig_faults::{FaultKind, FaultPlan, HealthReport, RecoveryAction, Stage};
use ig_nn::lbfgs::{minimize_robust, LbfgsConfig, RestartConfig};
use ig_nn::mlp::{Loss, Mlp, MlpConfig, Targets};
use ig_nn::{Activation, Matrix};
use rand::Rng;

/// Standardized features are clamped to this magnitude before entering
/// the MLP. Genuine NCC features standardize to a few units at most, so
/// the clamp only ever fires on pathological (hostile) inputs, where it
/// keeps logits — and therefore probabilities — finite.
const STANDARDIZED_CLAMP: f32 = 1e4;

/// Labeler hyper-parameters.
#[derive(Debug, Clone)]
pub struct LabelerConfig {
    /// Hidden layer widths (1–3 layers after tuning).
    pub hidden: Vec<usize>,
    /// Number of classes (2 = binary task with a 1-unit sigmoid head).
    pub num_classes: usize,
    /// L2 weight decay.
    pub l2: f32,
    /// L-BFGS settings (paper: lr 1e-5-style conservative steps, early
    /// stopping — here the iteration cap plays that role).
    pub lbfgs: LbfgsConfig,
}

impl LabelerConfig {
    /// Default: one hidden layer of 8, mild decay.
    pub fn new(num_classes: usize) -> Self {
        Self {
            hidden: vec![8],
            num_classes,
            l2: 1e-3,
            lbfgs: LbfgsConfig {
                max_iters: 150,
                ..Default::default()
            },
        }
    }
}

/// A trained (or trainable) labeler: standardization + MLP.
#[derive(Debug, Clone)]
pub struct Labeler {
    mlp: Mlp,
    config: LabelerConfig,
    feat_mean: Vec<f32>,
    feat_std: Vec<f32>,
}

impl Labeler {
    /// Initialize an untrained labeler for `input_dim` features.
    pub fn new(input_dim: usize, config: LabelerConfig, rng: &mut impl Rng) -> Result<Self> {
        if config.num_classes < 2 {
            return Err(CoreError::BadDevSet(
                "labeler needs at least two classes".into(),
            ));
        }
        let output_dim = if config.num_classes == 2 {
            1
        } else {
            config.num_classes
        };
        let mlp = Mlp::new(
            &MlpConfig {
                input_dim,
                hidden: config.hidden.clone(),
                output_dim,
                activation: Activation::Relu,
                l2: config.l2,
            },
            rng,
        )
        .map_err(|e| CoreError::BadDevSet(e.to_string()))?;
        Ok(Self {
            mlp,
            config,
            feat_mean: vec![0.0; input_dim],
            feat_std: vec![1.0; input_dim],
        })
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.config.num_classes
    }

    /// Fit on a feature matrix and gold labels. Returns the final L-BFGS
    /// loss. Non-finite feature values are sanitized to 0.0 before
    /// standardization, and optimizer divergence triggers jittered
    /// restarts; the fitted parameters are always finite.
    pub fn fit(&mut self, features: &Matrix, labels: &[usize]) -> Result<f32> {
        self.fit_with_health(features, labels, None)
    }

    /// [`Labeler::fit`] recording every fault and recovery on `health`.
    /// Returns `Err` only when the optimizer still diverges after
    /// exhausting its restart budget (the caller's ladder then falls back
    /// to a class-prior labeler).
    pub fn fit_with_health(
        &mut self,
        features: &Matrix,
        labels: &[usize],
        health: Option<&HealthReport>,
    ) -> Result<f32> {
        self.fit_with_plan(features, labels, None, health)
    }

    /// [`Labeler::fit_with_health`] under an optional chaos plan: planned
    /// objective evaluations return a poisoned (NaN) loss, exercising the
    /// optimizer's reject/restart ladder end to end. Every non-finite
    /// evaluation — injected or natural — is recorded on `health`.
    pub fn fit_with_plan(
        &mut self,
        features: &Matrix,
        labels: &[usize],
        plan: Option<&FaultPlan>,
        health: Option<&HealthReport>,
    ) -> Result<f32> {
        if features.rows() != labels.len() {
            return Err(CoreError::BadDevSet(format!(
                "{} feature rows vs {} labels",
                features.rows(),
                labels.len()
            )));
        }
        if features.rows() == 0 {
            return Err(CoreError::BadDevSet("empty training set".into()));
        }
        self.compute_standardization(features);
        let x = self.standardize(features);
        let restart = RestartConfig::default();
        let binary_targets;
        let (targets, loss) = if self.config.num_classes == 2 {
            binary_targets =
                Matrix::from_vec(labels.len(), 1, labels.iter().map(|&l| l as f32).collect());
            (Targets::Binary(&binary_targets), Loss::Bce)
        } else {
            (Targets::Classes(labels), Loss::CrossEntropy)
        };
        let x0 = self.mlp.params();
        // One working copy whose parameters each evaluation overwrites.
        let mut model = self.mlp.clone();
        let mut evals = 0usize;
        let (result, restarts) = minimize_robust(
            |p| {
                model.set_params(p);
                // The target/loss pairing is constructed consistently above,
                // so the Err arm is unreachable; a NaN loss would feed the
                // non-finite recovery path below either way.
                let (mut l, g) = model
                    .loss_and_grad(&x, &targets, loss)
                    .unwrap_or_else(|_| (f32::NAN, vec![f32::NAN; p.len()]));
                let i = evals;
                evals += 1;
                if plan.is_some_and(|pl| pl.poison_loss(i)) {
                    l = f32::NAN;
                }
                if !l.is_finite() || g.iter().any(|v| !v.is_finite()) {
                    if let Some(h) = health {
                        h.record(
                            Stage::Training,
                            FaultKind::LbfgsDivergence,
                            RecoveryAction::NoneRequired,
                            format!("non-finite loss/grad at objective evaluation {i}"),
                        );
                    }
                }
                (l, g)
            },
            x0,
            &self.config.lbfgs,
            &restart,
        );
        self.mlp.set_params(&result.x);
        if restarts > 0 {
            if let Some(h) = health {
                h.record(
                    Stage::Training,
                    FaultKind::LbfgsDivergence,
                    RecoveryAction::RestartedWithJitter,
                    format!("labeler fit needed {restarts} jittered restart(s)"),
                );
            }
        }
        if result.diverged {
            if let Some(h) = health {
                h.record(
                    Stage::Training,
                    FaultKind::TrainingFailure,
                    RecoveryAction::NoneRequired,
                    "labeler fit diverged after exhausting restarts".into(),
                );
            }
            return Err(CoreError::BadDevSet(
                "labeler training diverged after exhausting restarts".into(),
            ));
        }
        Ok(result.loss)
    }

    /// A degenerate labeler that ignores features and always predicts the
    /// class priors observed in `labels` — the last rung of the training
    /// recovery ladder. Implemented as a zero-weight linear head whose
    /// biases encode the priors, so every predict path (and its output
    /// shape) is identical to a trained labeler's.
    pub fn class_prior(
        input_dim: usize,
        config: LabelerConfig,
        labels: &[usize],
        rng: &mut impl Rng,
    ) -> Result<Self> {
        let num_classes = config.num_classes;
        let mut counts = vec![1.0f64; num_classes]; // add-one smoothing
        for &l in labels {
            if l < num_classes {
                counts[l] += 1.0;
            }
        }
        let total: f64 = counts.iter().sum();
        let head_config = LabelerConfig {
            hidden: Vec::new(),
            ..config
        };
        let mut labeler = Self::new(input_dim, head_config, rng)?;
        let mut params = vec![0.0f32; labeler.mlp.num_params()];
        let n_biases = labeler.mlp.output_dim();
        let bias_start = params.len() - n_biases;
        if num_classes == 2 {
            let p1 = counts.get(1).copied().unwrap_or_default() / total;
            params[bias_start] = (p1.ln() - (1.0 - p1).ln()) as f32; // logit
        } else {
            for (i, &c) in counts.iter().enumerate() {
                params[bias_start + i] = (c / total).ln() as f32;
            }
        }
        labeler.mlp.set_params(&params);
        Ok(labeler)
    }

    /// Predicted class per feature row.
    pub fn predict(&self, features: &Matrix) -> Vec<usize> {
        let x = self.standardize(features);
        if self.config.num_classes == 2 {
            self.mlp
                .predict_sigmoid(&x)
                .as_slice()
                .iter()
                .map(|&p| usize::from(p >= 0.5))
                .collect()
        } else {
            self.mlp.predict_class(&x)
        }
    }

    /// Per-class probabilities (binary → column 1 is P(defect)).
    pub fn predict_proba(&self, features: &Matrix) -> Matrix {
        let x = self.standardize(features);
        if self.config.num_classes == 2 {
            let p = self.mlp.predict_sigmoid(&x);
            Matrix::from_fn(p.rows(), 2, |r, c| {
                let pos = p.get(r, 0);
                if c == 1 {
                    pos
                } else {
                    1.0 - pos
                }
            })
        } else {
            self.mlp.predict_softmax(&x)
        }
    }

    fn compute_standardization(&mut self, features: &Matrix) {
        // Non-finite values are treated as 0.0 so one poisoned cell
        // cannot turn a column's statistics (and with them every
        // prediction) into NaN.
        let clean = |v: f32| if v.is_finite() { v } else { 0.0 };
        let n = features.rows().max(1) as f32;
        let d = features.cols();
        let mut mean = vec![0.0f32; d];
        for r in 0..features.rows() {
            for (m, &v) in mean.iter_mut().zip(features.row(r)) {
                *m += clean(v);
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0f32; d];
        for r in 0..features.rows() {
            for ((s, &v), &m) in var.iter_mut().zip(features.row(r)).zip(&mean) {
                let v = clean(v);
                *s += (v - m) * (v - m);
            }
        }
        self.feat_std = var.into_iter().map(|s| (s / n).sqrt().max(1e-4)).collect();
        self.feat_mean = mean;
    }

    fn standardize(&self, features: &Matrix) -> Matrix {
        assert_eq!(features.cols(), self.feat_mean.len(), "feature dim drift");
        Matrix::from_fn(features.rows(), features.cols(), |r, c| {
            let v = features.get(r, c);
            let v = if v.is_finite() { v } else { 0.0 };
            ((v - self.feat_mean[c]) / self.feat_std[c])
                .clamp(-STANDARDIZED_CLAMP, STANDARDIZED_CLAMP)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Toy similarity features: defective rows have one high feature.
    fn toy_data(n_per_class: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n_per_class {
            rows.push(vec![
                rng.gen_range(0.80..0.88f32),
                rng.gen_range(0.78..0.86),
                rng.gen_range(0.80..0.88),
            ]);
            labels.push(0);
            rows.push(vec![
                rng.gen_range(0.93..1.0f32),
                rng.gen_range(0.80..0.90),
                rng.gen_range(0.90..1.0),
            ]);
            labels.push(1);
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn binary_labeler_learns_separation() {
        let mut rng = StdRng::seed_from_u64(0);
        let (x, y) = toy_data(30, 1);
        let mut labeler = Labeler::new(3, LabelerConfig::new(2), &mut rng).unwrap();
        labeler.fit(&x, &y).unwrap();
        let preds = labeler.predict(&x);
        let correct = preds.iter().zip(&y).filter(|(a, b)| a == b).count();
        assert!(correct >= 55, "{correct}/60 correct");
    }

    #[test]
    fn probabilities_are_normalized() {
        let mut rng = StdRng::seed_from_u64(2);
        let (x, y) = toy_data(10, 3);
        let mut labeler = Labeler::new(3, LabelerConfig::new(2), &mut rng).unwrap();
        labeler.fit(&x, &y).unwrap();
        let proba = labeler.predict_proba(&x);
        assert_eq!(proba.cols(), 2);
        for r in 0..proba.rows() {
            let sum: f32 = proba.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn multiclass_labeler() {
        let mut rng = StdRng::seed_from_u64(4);
        // Three classes, each activating one feature strongly.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..3usize {
            for _ in 0..20 {
                let mut row = vec![
                    rng.gen_range(0.8..0.85f32),
                    rng.gen_range(0.8..0.85),
                    rng.gen_range(0.8..0.85),
                ];
                row[c] = rng.gen_range(0.95..1.0);
                rows.push(row);
                labels.push(c);
            }
        }
        let x = Matrix::from_rows(&rows);
        let mut labeler = Labeler::new(3, LabelerConfig::new(3), &mut rng).unwrap();
        labeler.fit(&x, &labels).unwrap();
        let preds = labeler.predict(&x);
        let correct = preds.iter().zip(&labels).filter(|(a, b)| a == b).count();
        assert!(correct >= 54, "{correct}/60 correct");
        let proba = labeler.predict_proba(&x);
        assert_eq!(proba.cols(), 3);
    }

    #[test]
    fn mismatched_rows_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut labeler = Labeler::new(2, LabelerConfig::new(2), &mut rng).unwrap();
        let x = Matrix::zeros(3, 2);
        assert!(labeler.fit(&x, &[0, 1]).is_err());
    }

    #[test]
    fn empty_training_set_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut labeler = Labeler::new(2, LabelerConfig::new(2), &mut rng).unwrap();
        let x = Matrix::zeros(0, 2);
        assert!(labeler.fit(&x, &[]).is_err());
    }

    #[test]
    fn one_class_config_rejected() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(Labeler::new(3, LabelerConfig::new(1), &mut rng).is_err());
    }

    #[test]
    fn non_finite_features_never_poison_predictions() {
        let mut rng = StdRng::seed_from_u64(10);
        let (mut x, y) = toy_data(20, 11);
        // Poison a scattering of training cells.
        x.set(0, 0, f32::NAN);
        x.set(3, 1, f32::INFINITY);
        x.set(7, 2, f32::NEG_INFINITY);
        let mut labeler = Labeler::new(3, LabelerConfig::new(2), &mut rng).unwrap();
        labeler.fit(&x, &y).unwrap();
        // Poison the inference batch too.
        let hostile = Matrix::from_rows(&[
            vec![f32::NAN, f32::INFINITY, 1e30],
            vec![f32::NEG_INFINITY, 0.5, f32::NAN],
        ]);
        let proba = labeler.predict_proba(&hostile);
        for v in proba.as_slice() {
            assert!(v.is_finite(), "probability {v} not finite");
            assert!((0.0..=1.0).contains(v));
        }
        let preds = labeler.predict(&hostile);
        assert!(preds.iter().all(|&p| p < 2));
    }

    #[test]
    fn class_prior_labeler_predicts_majority() {
        let mut rng = StdRng::seed_from_u64(12);
        // 3:1 imbalance toward class 0.
        let labels = vec![0, 0, 0, 1, 0, 0, 0, 1];
        let labeler = Labeler::class_prior(4, LabelerConfig::new(2), &labels, &mut rng).unwrap();
        let x = Matrix::from_rows(&[vec![0.9, 0.1, f32::NAN, 0.5], vec![0.0, 0.0, 0.0, 0.0]]);
        let preds = labeler.predict(&x);
        assert_eq!(preds, vec![0, 0], "majority class regardless of features");
        let proba = labeler.predict_proba(&x);
        for r in 0..proba.rows() {
            // Smoothed prior: (2+1)/(8+2) = 0.3 for class 1.
            assert!((proba.get(r, 1) - 0.3).abs() < 1e-3, "{}", proba.get(r, 1));
            assert!(proba.as_slice().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn class_prior_labeler_multiclass() {
        let mut rng = StdRng::seed_from_u64(13);
        let labels = vec![2, 2, 2, 2, 0, 1];
        let labeler = Labeler::class_prior(3, LabelerConfig::new(3), &labels, &mut rng).unwrap();
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        assert_eq!(labeler.predict(&x), vec![2]);
        let proba = labeler.predict_proba(&x);
        let sum: f32 = proba.row(0).iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn standardization_centers_features() {
        let mut rng = StdRng::seed_from_u64(8);
        let (x, y) = toy_data(15, 9);
        let mut labeler = Labeler::new(3, LabelerConfig::new(2), &mut rng).unwrap();
        labeler.fit(&x, &y).unwrap();
        let z = labeler.standardize(&x);
        for c in 0..3 {
            let mean: f32 = (0..z.rows()).map(|r| z.get(r, c)).sum::<f32>() / z.rows() as f32;
            assert!(mean.abs() < 1e-4, "column {c} mean {mean}");
        }
    }
}
