//! Elementwise activation functions with analytic derivatives.

use crate::matrix::Matrix;

/// Supported activations. Derivatives are expressed in terms of the
/// *activated output* where that is cheaper (sigmoid/tanh) and of the
/// *pre-activation* for the rectifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity.
    Linear,
    /// max(0, x).
    Relu,
    /// max(alpha*x, x) with alpha = 0.01 — used in the GAN discriminator.
    LeakyRelu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent — used as the GAN generator output.
    Tanh,
}

impl Activation {
    /// Apply elementwise to a scalar.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Linear => x,
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu => {
                if x >= 0.0 {
                    x
                } else {
                    0.01 * x
                }
            }
            Activation::Sigmoid => sigmoid(x),
            Activation::Tanh => x.tanh(),
        }
    }

    /// Derivative with respect to the pre-activation, given the
    /// pre-activation `x` and the activated output `y = apply(x)`.
    #[inline]
    pub fn derivative(self, x: f32, y: f32) -> f32 {
        match self {
            Activation::Linear => 1.0,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.01
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
        }
    }

    /// Apply to every element of a matrix.
    pub fn forward(self, x: &Matrix) -> Matrix {
        x.map(|v| self.apply(v))
    }
}

/// Numerically-stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Numerically-stable `ln(sigmoid(x))`, used by the relativistic GAN loss.
#[inline]
pub fn log_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        -(1.0 + (-x).exp()).ln()
    } else {
        x - (1.0 + x.exp()).ln()
    }
}

/// Row-wise softmax with the max-subtraction trick.
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    softmax_rows_in_place(&mut out);
    out
}

/// [`softmax_rows`] over the matrix's own buffer.
pub(crate) fn softmax_rows_in_place(m: &mut Matrix) {
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_symmetry_and_range() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        for x in [-30.0f32, -5.0, -0.3, 0.7, 5.0, 30.0] {
            let s = sigmoid(x);
            assert!((0.0..=1.0).contains(&s));
            assert!((s + sigmoid(-x) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn sigmoid_extreme_values_stable() {
        assert_eq!(sigmoid(1000.0), 1.0);
        assert_eq!(sigmoid(-1000.0), 0.0);
        assert!(sigmoid(-1000.0).is_finite());
    }

    #[test]
    fn log_sigmoid_matches_naive_in_safe_range() {
        for x in [-3.0f32, -1.0, 0.0, 1.0, 3.0] {
            let naive = sigmoid(x).ln();
            assert!((log_sigmoid(x) - naive).abs() < 1e-5);
        }
    }

    #[test]
    fn log_sigmoid_stable_at_extremes() {
        assert!(log_sigmoid(-100.0).is_finite());
        assert!((log_sigmoid(-100.0) + 100.0).abs() < 1e-3);
        assert!(log_sigmoid(100.0).abs() < 1e-3);
    }

    #[test]
    fn relu_and_leaky() {
        assert_eq!(Activation::Relu.apply(-2.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
        assert_eq!(Activation::LeakyRelu.apply(-2.0), -0.02);
        assert_eq!(Activation::LeakyRelu.apply(3.0), 3.0);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-3f32;
        for act in [
            Activation::Linear,
            Activation::Relu,
            Activation::LeakyRelu,
            Activation::Sigmoid,
            Activation::Tanh,
        ] {
            for x in [-1.7f32, -0.4, 0.6, 2.3] {
                let y = act.apply(x);
                let analytic = act.derivative(x, y);
                let numeric = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                assert!(
                    (analytic - numeric).abs() < 1e-2,
                    "{act:?} at {x}: {analytic} vs {numeric}"
                );
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let p = softmax_rows(&logits);
        for r in 0..2 {
            let sum: f32 = p.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(p.row(r).iter().all(|&v| v > 0.0));
        }
        // Monotone in the logits.
        assert!(p.get(0, 2) > p.get(0, 1));
    }

    #[test]
    fn softmax_stable_with_large_logits() {
        let logits = Matrix::from_vec(1, 2, vec![1000.0, 999.0]);
        let p = softmax_rows(&logits);
        assert!(p.as_slice().iter().all(|v| v.is_finite()));
        assert!((p.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }
}
