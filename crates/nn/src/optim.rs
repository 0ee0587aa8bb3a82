//! First-order optimizer on flat parameter vectors.
//!
//! Adam drives the RGAN (the paper trains generator and discriminator at
//! learning rate 1e-4) and the CNN baselines. The labeler itself uses
//! L-BFGS (see [`crate::lbfgs`]).

/// Adam (Kingma & Ba, 2015) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical fuzz.
    pub eps: f32,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u32,
}

impl Adam {
    /// Create with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    /// GAN-friendly variant with beta1 = 0.5, conventional for adversarial
    /// training stability.
    pub fn for_gan(lr: f32) -> Self {
        Self {
            beta1: 0.5,
            ..Self::new(lr)
        }
    }

    /// Apply one Adam update in place.
    pub fn step(&mut self, params: &mut [f32], grad: &[f32]) {
        assert_eq!(params.len(), grad.len(), "gradient length mismatch");
        if self.m.len() != params.len() {
            self.m = vec![0.0; params.len()];
            self.v = vec![0.0; params.len()];
            self.t = 0;
        }
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grad[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = self.m[i] / b1t;
            let v_hat = self.v[i] / b2t;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u32 {
        self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quadratic bowl f(x) = 0.5 * sum((x - c)^2); gradient x - c.
    fn quad_grad(x: &[f32], c: &[f32]) -> Vec<f32> {
        x.iter().zip(c).map(|(&a, &b)| a - b).collect()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let target = [0.5f32, -1.5, 2.5, 0.0];
        let mut x = vec![10.0f32; 4];
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let g = quad_grad(&x, &target);
            opt.step(&mut x, &g);
        }
        for (a, b) in x.iter().zip(&target) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn adam_handles_ill_conditioned_scales() {
        // f = 0.5*(1000*x0^2 + x1^2): plain SGD with a stable lr crawls on
        // x1; Adam's per-coordinate scaling handles it.
        let mut x = vec![1.0f32, 1.0];
        let mut opt = Adam::new(0.05);
        for _ in 0..800 {
            let g = vec![1000.0 * x[0], x[1]];
            opt.step(&mut x, &g);
        }
        assert!(x[0].abs() < 1e-2);
        assert!(x[1].abs() < 1e-2);
    }

    #[test]
    fn adam_step_counter_advances() {
        let mut opt = Adam::new(0.01);
        let mut x = vec![1.0f32];
        assert_eq!(opt.steps(), 0);
        opt.step(&mut x, &[0.5]);
        opt.step(&mut x, &[0.5]);
        assert_eq!(opt.steps(), 2);
    }

    #[test]
    fn gan_adam_uses_half_beta1() {
        let opt = Adam::for_gan(1e-4);
        assert_eq!(opt.beta1, 0.5);
        assert_eq!(opt.lr, 1e-4);
    }

    #[test]
    #[should_panic(expected = "gradient length mismatch")]
    fn mismatched_grad_panics() {
        let mut opt = Adam::new(0.1);
        let mut x = vec![0.0f32; 2];
        opt.step(&mut x, &[1.0]);
    }
}
