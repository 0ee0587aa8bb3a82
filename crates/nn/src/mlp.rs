//! Multilayer perceptrons with manual backpropagation.
//!
//! The labeler in Inspector Gadget is "a multilayer perceptron (MLP)
//! because it is simple, but also has good performance" (Section 5.2),
//! trained with L-BFGS on a small development set. The same type powers
//! the RGAN generator/discriminator and the Snuba heuristic models, so the
//! API exposes three levels:
//!
//! * high level: [`Mlp::fit_lbfgs`] / [`Mlp::loss_and_grad`] for standard
//!   classification losses,
//! * mid level: [`Mlp::forward_cache`] + [`Mlp::backward`] for custom
//!   losses (the relativistic GAN objective differentiates through both
//!   networks), or [`Mlp::param_grad`] when the input gradient is unused,
//! * parameter level: [`Mlp::params`] / [`Mlp::set_params`] flatten all
//!   weights for the L-BFGS optimizer.

use crate::activation::{log_sigmoid, sigmoid, softmax_rows, softmax_rows_in_place, Activation};
use crate::lbfgs::{minimize, minimize_robust, LbfgsConfig, LbfgsResult, RestartConfig};
use crate::matrix::Matrix;
use crate::{NnError, Result};
use rand::Rng;

/// Architecture and regularization for an [`Mlp`].
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Input feature dimension.
    pub input_dim: usize,
    /// Hidden layer widths, possibly empty (logistic regression).
    pub hidden: Vec<usize>,
    /// Output dimension (1 for binary, #classes for multi-class).
    pub output_dim: usize,
    /// Hidden activation.
    pub activation: Activation,
    /// L2 weight decay coefficient (biases exempt).
    pub l2: f32,
}

impl MlpConfig {
    /// Convenience constructor with ReLU hidden units and no weight decay.
    pub fn new(input_dim: usize, hidden: Vec<usize>, output_dim: usize) -> Self {
        Self {
            input_dim,
            hidden,
            output_dim,
            activation: Activation::Relu,
            l2: 0.0,
        }
    }
}

/// Classification losses fused with their output nonlinearity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loss {
    /// Sigmoid + binary cross-entropy. Targets are a matrix of 0/1 values
    /// matching the logits' shape.
    Bce,
    /// Softmax + cross-entropy. Targets are class indices, one per row.
    CrossEntropy,
}

/// Targets for [`Mlp::loss_and_grad`].
#[derive(Debug, Clone)]
pub enum Targets<'a> {
    /// Per-output binary targets (same shape as the logits).
    Binary(&'a Matrix),
    /// Per-row class indices.
    Classes(&'a [usize]),
}

/// Forward-pass cache. It borrows the input batch; `pre[i]` and `post[i]`
/// are hidden layer `i`'s pre-activation and activated output, and
/// `logits` is the linear output layer's result.
#[derive(Debug, Clone)]
pub struct MlpCache<'a> {
    input: &'a Matrix,
    pre: Vec<Matrix>,
    post: Vec<Matrix>,
    logits: Matrix,
}

impl MlpCache<'_> {
    /// The output logits.
    pub fn logits(&self) -> &Matrix {
        &self.logits
    }

    /// The input to layer `i`: the batch itself, or hidden layer `i - 1`'s
    /// activated output.
    fn layer_input(&self, i: usize) -> &Matrix {
        match i.checked_sub(1) {
            Some(h) => &self.post[h],
            None => self.input,
        }
    }
}

/// A fully-connected network with a linear output layer.
#[derive(Debug, Clone)]
pub struct Mlp {
    weights: Vec<Matrix>,
    biases: Vec<Vec<f32>>,
    activation: Activation,
    l2: f32,
}

impl Mlp {
    /// Build with He/Xavier initialization matching the hidden activation.
    pub fn new(config: &MlpConfig, rng: &mut impl Rng) -> Result<Self> {
        if config.input_dim == 0 || config.output_dim == 0 {
            return Err(NnError::InvalidConfig(
                "input and output dimensions must be positive".into(),
            ));
        }
        if config.hidden.contains(&0) {
            return Err(NnError::InvalidConfig("zero-width hidden layer".into()));
        }
        let mut dims = vec![config.input_dim];
        dims.extend_from_slice(&config.hidden);
        dims.push(config.output_dim);
        let mut weights = Vec::with_capacity(dims.len() - 1);
        let mut biases = Vec::with_capacity(dims.len() - 1);
        for win in dims.windows(2) {
            let &[fan_in, fan_out] = win else { continue };
            let w = match config.activation {
                Activation::Relu | Activation::LeakyRelu => Matrix::he(fan_in, fan_out, rng),
                _ => Matrix::xavier(fan_in, fan_out, rng),
            };
            weights.push(w);
            biases.push(vec![0.0; fan_out]);
        }
        Ok(Self {
            weights,
            biases,
            activation: config.activation,
            l2: config.l2,
        })
    }

    /// Number of layers (hidden + output).
    pub fn num_layers(&self) -> usize {
        self.weights.len()
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        // `new` always builds at least the output layer.
        self.weights.first().map_or(0, Matrix::rows)
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.weights.last().map_or(0, Matrix::cols)
    }

    /// Immutable access to a layer's weight matrix (for spectral norm).
    pub fn weight(&self, layer: usize) -> &Matrix {
        &self.weights[layer]
    }

    /// Mutable access to a layer's weight matrix (for spectral norm).
    pub fn weight_mut(&mut self, layer: usize) -> &mut Matrix {
        &mut self.weights[layer]
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.weights
            .iter()
            .zip(&self.biases)
            .map(|(w, b)| w.len() + b.len())
            .sum()
    }

    /// Flatten all parameters (layer-by-layer, weights then bias).
    pub fn params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for (w, b) in self.weights.iter().zip(&self.biases) {
            out.extend_from_slice(w.as_slice());
            out.extend_from_slice(b);
        }
        out
    }

    /// Load parameters from a flat vector produced by [`Mlp::params`].
    pub fn set_params(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.num_params(), "parameter count mismatch");
        let mut offset = 0;
        for (w, b) in self.weights.iter_mut().zip(&mut self.biases) {
            let wlen = w.len();
            w.as_mut_slice()
                .copy_from_slice(&flat[offset..offset + wlen]);
            offset += wlen;
            let blen = b.len();
            b.copy_from_slice(&flat[offset..offset + blen]);
            offset += blen;
        }
    }

    /// Forward pass retaining intermediate activations for backprop.
    pub fn forward_cache<'a>(&self, x: &'a Matrix) -> MlpCache<'a> {
        assert_eq!(x.cols(), self.input_dim(), "input dimension mismatch");
        let n_hidden = self.weights.len().saturating_sub(1);
        let mut pre = Vec::with_capacity(n_hidden);
        let mut post: Vec<Matrix> = Vec::with_capacity(n_hidden);
        let mut layers = self.weights.iter().zip(&self.biases);
        let output = layers.next_back();
        for (w, b) in layers {
            let mut z = post.last().unwrap_or(x).matmul(w);
            z.add_row_broadcast(b);
            post.push(self.activation.forward(&z));
            pre.push(z);
        }
        // `new` always builds the output layer; a network without layers
        // would pass its input through.
        let logits = match output {
            Some((w, b)) => {
                let mut z = post.last().unwrap_or(x).matmul(w);
                z.add_row_broadcast(b);
                z
            }
            None => x.clone(),
        };
        MlpCache {
            input: x,
            pre,
            post,
            logits,
        }
    }

    /// Raw logits for a batch.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        self.forward_cache(x).logits
    }

    /// Sigmoid probabilities (binary heads).
    pub fn predict_sigmoid(&self, x: &Matrix) -> Matrix {
        self.forward(x).map(sigmoid)
    }

    /// Softmax probabilities (multi-class heads).
    pub fn predict_softmax(&self, x: &Matrix) -> Matrix {
        softmax_rows(&self.forward(x))
    }

    /// Argmax class per row.
    pub fn predict_class(&self, x: &Matrix) -> Vec<usize> {
        let logits = self.forward(x);
        (0..logits.rows())
            .map(|r| {
                logits
                    .row(r)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Backpropagate an arbitrary gradient w.r.t. the output logits.
    /// Returns `(flat_parameter_gradient, gradient_w.r.t._input)`. The
    /// parameter gradient includes the L2 term.
    pub fn backward(&self, cache: &MlpCache<'_>, d_logits: &Matrix) -> (Vec<f32>, Matrix) {
        let (flat, d_first) = self.backprop(cache, d_logits.clone());
        let dx = match self.weights.first() {
            Some(w) => d_first.matmul_nt(w),
            None => d_first,
        };
        (flat, dx)
    }

    /// The parameter half of [`Mlp::backward`], bit for bit, skipping the
    /// input gradient's `delta · W0ᵀ` product, which training steps never
    /// read.
    pub fn param_grad(&self, cache: &MlpCache<'_>, d_logits: &Matrix) -> Vec<f32> {
        self.backprop(cache, d_logits.clone()).0
    }

    /// Shared backward loop over the output gradient `delta`: the flat
    /// parameter gradient, written layer by layer into place, and the
    /// gradient w.r.t. the first layer's pre-activation output, one `· W0ᵀ`
    /// short of the input gradient.
    fn backprop(&self, cache: &MlpCache<'_>, mut delta: Matrix) -> (Vec<f32>, Matrix) {
        let n_layers = self.weights.len();
        let mut flat = vec![0.0f32; self.num_params()];
        let mut end = flat.len();
        for i in (0..n_layers).rev() {
            if i + 1 != n_layers {
                // Multiply by the activation derivative of layer i.
                let pre = &cache.pre[i];
                let post = &cache.post[i];
                let act = self.activation;
                assert_eq!(delta.shape(), pre.shape());
                for r in 0..delta.rows() {
                    let drow = delta.row_mut(r);
                    let prow = pre.row(r);
                    let orow = post.row(r);
                    for (d, (&p, &o)) in drow.iter_mut().zip(prow.iter().zip(orow)) {
                        *d *= act.derivative(p, o);
                    }
                }
            }
            let mut dw = cache.layer_input(i).matmul_tn(&delta);
            if self.l2 > 0.0 {
                dw.axpy(self.l2, &self.weights[i]);
            }
            let db = delta.col_sums();
            let start = end - dw.len() - db.len();
            let (w_part, b_part) = flat[start..end].split_at_mut(dw.len());
            w_part.copy_from_slice(dw.as_slice());
            b_part.copy_from_slice(&db);
            end = start;
            if i > 0 {
                delta = delta.matmul_nt(&self.weights[i]);
            }
        }
        (flat, delta)
    }

    /// Mean loss and flat parameter gradient for a standard loss.
    ///
    /// Errors with [`NnError::InvalidConfig`] when the loss kind and target
    /// kind disagree (BCE wants binary targets, cross-entropy wants class
    /// indices).
    pub fn loss_and_grad(
        &self,
        x: &Matrix,
        targets: &Targets<'_>,
        loss: Loss,
    ) -> Result<(f32, Vec<f32>)> {
        let mut cache = self.forward_cache(x);
        // Backprop never reads the logits, so the loss turns them into their
        // gradient in place.
        let logits = std::mem::replace(&mut cache.logits, Matrix::zeros(0, 0));
        let (loss_value, d_logits) = pair_loss(logits, targets, loss)?;
        // `backprop` folds the L2 term into the weight gradients; the loss
        // needs the matching 0.5·λ·||W||² penalty added explicitly.
        let grad = self.backprop(&cache, d_logits).0;
        let mut total = loss_value;
        if self.l2 > 0.0 {
            for w in &self.weights {
                let n = w.frobenius_norm();
                total += 0.5 * self.l2 * n * n;
            }
        }
        debug_assert_eq!(grad.len(), self.num_params());
        Ok((total, grad))
    }

    /// Mean loss only (no gradient) — used for early-stopping validation.
    /// Same loss/target compatibility contract as [`Mlp::loss_and_grad`].
    pub fn loss(&self, x: &Matrix, targets: &Targets<'_>, loss: Loss) -> Result<f32> {
        pair_loss(self.forward(x), targets, loss).map(|(l, _)| l)
    }

    /// Fit with L-BFGS (the paper's optimizer for the labeler), returning
    /// the optimizer report.
    pub fn fit_lbfgs(
        &mut self,
        x: &Matrix,
        targets: &Targets<'_>,
        loss: Loss,
        config: &LbfgsConfig,
    ) -> Result<LbfgsResult> {
        // Reject a mismatched loss/target pairing once, up front, so the
        // objective closure below stays infallible.
        check_pair(targets, loss)?;
        let x0 = self.params();
        // One working copy whose parameters each evaluation overwrites.
        let mut model = self.clone();
        let result = minimize(
            |p| {
                model.set_params(p);
                // Pairing was validated above; a NaN loss would trip the
                // optimizer's divergence handling if it somehow failed.
                model
                    .loss_and_grad(x, targets, loss)
                    .unwrap_or_else(|_| (f32::NAN, vec![f32::NAN; p.len()]))
            },
            x0,
            config,
        );
        self.set_params(&result.x);
        Ok(result)
    }

    /// [`Mlp::fit_lbfgs`] with the divergence-recovery ladder of
    /// [`minimize_robust`]: non-finite losses or gradients trigger
    /// deterministic jittered restarts instead of corrupting the model.
    /// The fitted parameters are always finite. Returns the optimizer
    /// report and the number of restarts consumed.
    pub fn fit_lbfgs_robust(
        &mut self,
        x: &Matrix,
        targets: &Targets<'_>,
        loss: Loss,
        config: &LbfgsConfig,
        restart: &RestartConfig,
    ) -> Result<(LbfgsResult, usize)> {
        check_pair(targets, loss)?;
        let x0 = self.params();
        let mut model = self.clone();
        let (result, restarts) = minimize_robust(
            |p| {
                model.set_params(p);
                model
                    .loss_and_grad(x, targets, loss)
                    .unwrap_or_else(|_| (f32::NAN, vec![f32::NAN; p.len()]))
            },
            x0,
            config,
            restart,
        );
        self.set_params(&result.x);
        Ok((result, restarts))
    }
}

/// Check that the loss kind matches the target kind without running the
/// network. BCE pairs with [`Targets::Binary`], cross-entropy with
/// [`Targets::Classes`].
pub fn check_pair(targets: &Targets<'_>, loss: Loss) -> Result<()> {
    match (loss, targets) {
        (Loss::Bce, Targets::Binary(_)) | (Loss::CrossEntropy, Targets::Classes(_)) => Ok(()),
        (Loss::Bce, Targets::Classes(_)) => Err(NnError::InvalidConfig(
            "BCE loss needs binary targets, got class indices".into(),
        )),
        (Loss::CrossEntropy, Targets::Binary(_)) => Err(NnError::InvalidConfig(
            "cross-entropy loss needs class indices, got binary targets".into(),
        )),
    }
}

/// Dispatch to the matching loss implementation, or error on a mismatched
/// pairing. The logits buffer comes back holding their gradient.
fn pair_loss(logits: Matrix, targets: &Targets<'_>, loss: Loss) -> Result<(f32, Matrix)> {
    check_pair(targets, loss)?;
    Ok(match (loss, targets) {
        (Loss::Bce, Targets::Binary(t)) => bce_with_logits(logits, t),
        (Loss::CrossEntropy, Targets::Classes(c)) => ce_with_logits(logits, c),
        // check_pair rejected the cross combinations already; returning a
        // zero loss here is unreachable but panic-free.
        _ => (0.0, Matrix::zeros(logits.rows(), logits.cols())),
    })
}

/// Mean binary cross-entropy with logits, turning `logits` into its
/// gradient in place.
/// `loss = mean( softplus(z) - t*z )`, `dL/dz = (sigmoid(z) - t) / n`.
fn bce_with_logits(mut logits: Matrix, targets: &Matrix) -> (f32, Matrix) {
    assert_eq!(logits.shape(), targets.shape(), "BCE target shape mismatch");
    let n = logits.len().max(1) as f32;
    let mut loss = 0.0f32;
    for (g, &t) in logits.as_mut_slice().iter_mut().zip(targets.as_slice()) {
        let z = *g;
        // BCE = -[t ln σ(z) + (1 - t) ln(1 - σ(z))]
        //     = -t·logσ(z) - (1-t)·logσ(-z)
        loss += -t * log_sigmoid(z) - (1.0 - t) * log_sigmoid(-z);
        *g = (sigmoid(z) - t) / n;
    }
    (loss / n, logits)
}

/// Mean softmax cross-entropy with logits, turning `logits` into its
/// gradient in place.
fn ce_with_logits(mut logits: Matrix, classes: &[usize]) -> (f32, Matrix) {
    assert_eq!(logits.rows(), classes.len(), "CE target length mismatch");
    let n = logits.rows().max(1) as f32;
    let cols = logits.cols();
    softmax_rows_in_place(&mut logits);
    let mut loss = 0.0f32;
    for (r, &cls) in classes.iter().enumerate() {
        assert!(cls < cols, "class index out of range");
        let g = logits.row_mut(r);
        loss += -(g[cls].max(1e-12)).ln();
        g[cls] -= 1.0;
        for v in g.iter_mut() {
            *v /= n;
        }
    }
    (loss / n, logits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn xor_data() -> (Matrix, Matrix) {
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ]);
        let y = Matrix::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]);
        (x, y)
    }

    #[test]
    fn construction_validates() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(Mlp::new(&MlpConfig::new(0, vec![], 1), &mut rng).is_err());
        assert!(Mlp::new(&MlpConfig::new(2, vec![0], 1), &mut rng).is_err());
        let ok = Mlp::new(&MlpConfig::new(3, vec![5, 4], 2), &mut rng).unwrap();
        assert_eq!(ok.num_layers(), 3);
        assert_eq!(ok.input_dim(), 3);
        assert_eq!(ok.output_dim(), 2);
        assert_eq!(ok.num_params(), 3 * 5 + 5 + 5 * 4 + 4 + 4 * 2 + 2);
    }

    #[test]
    fn params_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut mlp = Mlp::new(&MlpConfig::new(4, vec![3], 2), &mut rng).unwrap();
        let p = mlp.params();
        let mut p2 = p.clone();
        for v in &mut p2 {
            *v += 1.0;
        }
        mlp.set_params(&p2);
        assert_eq!(mlp.params(), p2);
    }

    /// Central-difference gradient check — the canonical backprop test.
    #[test]
    fn gradient_check_bce() {
        let mut rng = StdRng::seed_from_u64(2);
        let mlp = Mlp::new(
            &MlpConfig {
                input_dim: 3,
                hidden: vec![4],
                output_dim: 1,
                activation: Activation::Tanh,
                l2: 0.01,
            },
            &mut rng,
        )
        .unwrap();
        let x = Matrix::from_rows(&[vec![0.5, -0.2, 0.8], vec![-1.0, 0.3, 0.1]]);
        let t = Matrix::from_vec(2, 1, vec![1.0, 0.0]);
        let (_, grad) = mlp
            .loss_and_grad(&x, &Targets::Binary(&t), Loss::Bce)
            .unwrap();
        let p0 = mlp.params();
        let eps = 1e-3f32;
        for i in (0..p0.len()).step_by(3) {
            let mut plus = mlp.clone();
            let mut minus = mlp.clone();
            let mut pp = p0.clone();
            pp[i] += eps;
            plus.set_params(&pp);
            pp[i] -= 2.0 * eps;
            minus.set_params(&pp);
            let lp = {
                let (l, _) = plus
                    .loss_and_grad(&x, &Targets::Binary(&t), Loss::Bce)
                    .unwrap();
                l
            };
            let lm = {
                let (l, _) = minus
                    .loss_and_grad(&x, &Targets::Binary(&t), Loss::Bce)
                    .unwrap();
                l
            };
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (grad[i] - numeric).abs() < 2e-2,
                "param {i}: analytic {} vs numeric {}",
                grad[i],
                numeric
            );
        }
    }

    #[test]
    fn gradient_check_cross_entropy() {
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(
            &MlpConfig {
                input_dim: 2,
                hidden: vec![3],
                output_dim: 3,
                activation: Activation::Relu,
                l2: 0.0,
            },
            &mut rng,
        )
        .unwrap();
        let x = Matrix::from_rows(&[vec![0.4, -0.7], vec![1.2, 0.5], vec![-0.3, -0.9]]);
        let classes = vec![0usize, 2, 1];
        let (_, grad) = mlp
            .loss_and_grad(&x, &Targets::Classes(&classes), Loss::CrossEntropy)
            .unwrap();
        let p0 = mlp.params();
        let eps = 1e-3f32;
        for i in (0..p0.len()).step_by(2) {
            let eval = |delta: f32| {
                let mut m = mlp.clone();
                let mut pp = p0.clone();
                pp[i] += delta;
                m.set_params(&pp);
                m.loss_and_grad(&x, &Targets::Classes(&classes), Loss::CrossEntropy)
                    .unwrap()
                    .0
            };
            let numeric = (eval(eps) - eval(-eps)) / (2.0 * eps);
            assert!(
                (grad[i] - numeric).abs() < 2e-2,
                "param {i}: analytic {} vs numeric {}",
                grad[i],
                numeric
            );
        }
    }

    #[test]
    fn lbfgs_solves_xor() {
        let mut rng = StdRng::seed_from_u64(7);
        let (x, y) = xor_data();
        let mut mlp = Mlp::new(
            &MlpConfig {
                input_dim: 2,
                hidden: vec![8],
                output_dim: 1,
                activation: Activation::Tanh,
                l2: 0.0,
            },
            &mut rng,
        )
        .unwrap();
        let result = mlp
            .fit_lbfgs(
                &x,
                &Targets::Binary(&y),
                Loss::Bce,
                &LbfgsConfig {
                    max_iters: 200,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(result.loss < 0.1, "final loss {}", result.loss);
        let p = mlp.predict_sigmoid(&x);
        for (i, &t) in y.as_slice().iter().enumerate() {
            let pred = p.as_slice()[i];
            assert!(
                (pred - t).abs() < 0.4,
                "sample {i}: predicted {pred}, target {t}"
            );
        }
    }

    #[test]
    fn multiclass_fit_separates_three_clusters() {
        let mut rng = StdRng::seed_from_u64(11);
        let centers = [(0.0f32, 0.0f32), (3.0, 3.0), (0.0, 3.0)];
        let mut rows = Vec::new();
        let mut classes = Vec::new();
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..20 {
                rows.push(vec![
                    cx + rng.gen_range(-0.5..0.5),
                    cy + rng.gen_range(-0.5..0.5),
                ]);
                classes.push(c);
            }
        }
        let x = Matrix::from_rows(&rows);
        let mut mlp = Mlp::new(&MlpConfig::new(2, vec![8], 3), &mut rng).unwrap();
        mlp.fit_lbfgs(
            &x,
            &Targets::Classes(&classes),
            Loss::CrossEntropy,
            &LbfgsConfig {
                max_iters: 150,
                ..Default::default()
            },
        )
        .unwrap();
        let preds = mlp.predict_class(&x);
        let correct = preds.iter().zip(&classes).filter(|(a, b)| a == b).count();
        assert!(correct >= 55, "only {correct}/60 correct");
    }

    #[test]
    fn zero_hidden_layers_is_logistic_regression() {
        let mut rng = StdRng::seed_from_u64(13);
        let mlp = Mlp::new(&MlpConfig::new(3, vec![], 1), &mut rng).unwrap();
        assert_eq!(mlp.num_layers(), 1);
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        assert_eq!(mlp.forward(&x).shape(), (1, 1));
    }

    #[test]
    fn bce_loss_matches_hand_computation() {
        // Single linear unit with known weights.
        let mut rng = StdRng::seed_from_u64(17);
        let mut mlp = Mlp::new(&MlpConfig::new(1, vec![], 1), &mut rng).unwrap();
        mlp.set_params(&[1.0, 0.0]); // w=1, b=0 → logit = x
        let x = Matrix::from_vec(1, 1, vec![0.0]);
        let t = Matrix::from_vec(1, 1, vec![1.0]);
        let loss = mlp.loss(&x, &Targets::Binary(&t), Loss::Bce).unwrap();
        // -ln σ(0) = ln 2.
        assert!((loss - std::f32::consts::LN_2).abs() < 1e-5);
    }

    #[test]
    fn predict_softmax_rows_normalized() {
        let mut rng = StdRng::seed_from_u64(19);
        let mlp = Mlp::new(&MlpConfig::new(4, vec![5], 3), &mut rng).unwrap();
        let x = Matrix::from_rows(&[vec![0.1, 0.2, 0.3, 0.4], vec![1.0, -1.0, 0.5, 0.0]]);
        let p = mlp.predict_softmax(&x);
        for r in 0..2 {
            assert!((p.row(r).iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn param_grad_is_bit_equal_to_backward() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(23);
        for case in 0..24 {
            let depth = 1 + case % 3;
            let input_dim = rng.gen_range(1..12);
            let hidden: Vec<usize> = (0..depth).map(|_| rng.gen_range(1..17)).collect();
            let output_dim = rng.gen_range(1..4);
            let activation = [Activation::Relu, Activation::LeakyRelu, Activation::Tanh][case % 3];
            let l2 = if case % 2 == 0 { 1e-3 } else { 0.0 };
            let mlp = Mlp::new(
                &MlpConfig {
                    input_dim,
                    hidden,
                    output_dim,
                    activation,
                    l2,
                },
                &mut rng,
            )
            .unwrap();
            let rows = rng.gen_range(1..20);
            let x = Matrix::from_vec(
                rows,
                input_dim,
                (0..rows * input_dim)
                    .map(|_| rng.gen_range(-2.0..2.0))
                    .collect(),
            );
            let d_logits = Matrix::from_vec(
                rows,
                output_dim,
                (0..rows * output_dim)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect(),
            );
            let cache = mlp.forward_cache(&x);
            let (full, dx) = mlp.backward(&cache, &d_logits);
            let params_only = mlp.param_grad(&cache, &d_logits);
            assert_eq!(dx.shape(), (rows, input_dim));
            assert_eq!(full.len(), params_only.len());
            for (a, b) in full.iter().zip(&params_only) {
                assert_eq!(a.to_bits(), b.to_bits(), "case {case}");
            }
        }
    }
}
