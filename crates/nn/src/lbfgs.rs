//! Limited-memory BFGS (Liu & Nocedal, 1989) with Armijo backtracking.
//!
//! The paper trains the labeler with "an L-BFGS optimizer, which provides
//! stable training on small data" (Section 6.1). This is the standard
//! two-loop-recursion implementation over a user-supplied
//! loss-and-gradient oracle on flat `f32` parameter vectors.

/// L-BFGS hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct LbfgsConfig {
    /// History size `m` (number of curvature pairs kept).
    pub memory: usize,
    /// Maximum outer iterations.
    pub max_iters: usize,
    /// Stop when the gradient's infinity norm drops below this.
    pub grad_tol: f32,
    /// Stop when the loss improves by less than this between iterations.
    pub loss_tol: f32,
    /// Armijo sufficient-decrease constant.
    pub c1: f32,
    /// Maximum backtracking halvings per line search.
    pub max_line_search: usize,
}

impl Default for LbfgsConfig {
    fn default() -> Self {
        Self {
            memory: 10,
            max_iters: 100,
            grad_tol: 1e-5,
            loss_tol: 1e-9,
            c1: 1e-4,
            max_line_search: 30,
        }
    }
}

/// Restart policy for [`minimize_robust`].
#[derive(Debug, Clone, Copy)]
pub struct RestartConfig {
    /// Maximum restarts after a diverged run (0 = plain [`minimize`]).
    pub max_restarts: usize,
    /// Base magnitude of the uniform jitter added to the start point.
    /// Doubles on every retry, backing the restart away from the
    /// poisoned region a little further each time.
    pub jitter: f32,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RestartConfig {
    fn default() -> Self {
        Self {
            max_restarts: 3,
            jitter: 0.1,
            seed: 0x1bf65,
        }
    }
}

/// Result of an [`minimize`] run.
#[derive(Debug, Clone)]
pub struct LbfgsResult {
    /// Final parameters. Always entirely finite, even on divergence.
    pub x: Vec<f32>,
    /// Final loss. Non-finite only when the very first evaluation was
    /// already poisoned (see [`LbfgsResult::diverged`]).
    pub loss: f32,
    /// Outer iterations performed.
    pub iters: usize,
    /// True when a tolerance (rather than the iteration cap) stopped it.
    pub converged: bool,
    /// True when a non-finite loss or gradient was encountered and the
    /// run had to stop at the last finite iterate.
    pub diverged: bool,
}

fn dot(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
}

fn inf_norm(v: &[f32]) -> f32 {
    v.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
}

fn all_finite(v: &[f32]) -> bool {
    v.iter().all(|x| x.is_finite())
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Minimize `f` starting from `x0`. `f` must return `(loss, gradient)` with
/// the gradient the same length as the input.
pub fn minimize(
    mut f: impl FnMut(&[f32]) -> (f32, Vec<f32>),
    x0: Vec<f32>,
    config: &LbfgsConfig,
) -> LbfgsResult {
    let n = x0.len();
    let mut x = x0;
    let (mut loss, mut grad) = f(&x);
    assert_eq!(grad.len(), n, "gradient length mismatch");

    // A poisoned start point gives the line search nothing to improve on:
    // stop immediately (with finite parameters) and let the caller restart.
    if !loss.is_finite() || !all_finite(&grad) {
        for v in &mut x {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
        return LbfgsResult {
            x,
            loss,
            iters: 0,
            converged: false,
            diverged: true,
        };
    }

    // Curvature history: s_k = x_{k+1} - x_k, y_k = g_{k+1} - g_k.
    let mut s_hist: Vec<Vec<f32>> = Vec::new();
    let mut y_hist: Vec<Vec<f32>> = Vec::new();
    let mut rho_hist: Vec<f64> = Vec::new();

    for iter in 0..config.max_iters {
        if inf_norm(&grad) < config.grad_tol {
            return LbfgsResult {
                x,
                loss,
                iters: iter,
                converged: true,
                diverged: false,
            };
        }

        // Two-loop recursion: direction = -H_k * grad.
        let mut q: Vec<f32> = grad.clone();
        let mut alphas = vec![0.0f64; s_hist.len()];
        for i in (0..s_hist.len()).rev() {
            let alpha = rho_hist[i] * dot(&s_hist[i], &q);
            alphas[i] = alpha;
            for (qv, &yv) in q.iter_mut().zip(&y_hist[i]) {
                *qv -= (alpha * yv as f64) as f32;
            }
        }
        // Initial Hessian scaling gamma = s·y / y·y from the latest pair.
        if let (Some(s), Some(y)) = (s_hist.last(), y_hist.last()) {
            let gamma = dot(s, y) / dot(y, y).max(1e-12);
            for qv in &mut q {
                *qv = (*qv as f64 * gamma) as f32;
            }
        }
        for i in 0..s_hist.len() {
            let beta = rho_hist[i] * dot(&y_hist[i], &q);
            let coeff = (alphas[i] - beta) as f32;
            for (qv, &sv) in q.iter_mut().zip(&s_hist[i]) {
                *qv += coeff * sv;
            }
        }
        let mut direction: Vec<f32> = q.iter().map(|&v| -v).collect();

        // Safeguard: fall back to steepest descent if not a descent dir.
        let mut dir_deriv = dot(&direction, &grad);
        if dir_deriv >= 0.0 {
            direction = grad.iter().map(|&g| -g).collect();
            dir_deriv = -dot(&grad, &grad);
            s_hist.clear();
            y_hist.clear();
            rho_hist.clear();
        }

        // Armijo backtracking line search. Probes with a non-finite loss
        // or gradient are rejected like any insufficient-decrease step;
        // the shrinking step backs the search away from the poisoned
        // region, so a single NaN pocket does not kill the run.
        let mut step = 1.0f32;
        let mut accepted = false;
        let mut saw_poison = false;
        let mut new_x = x.clone();
        let mut new_loss = loss;
        let mut new_grad = grad.clone();
        for _ in 0..config.max_line_search {
            for i in 0..n {
                new_x[i] = x[i] + step * direction[i];
            }
            let (l, g) = f(&new_x);
            let finite = l.is_finite() && all_finite(&g);
            saw_poison |= !finite;
            if finite && l <= loss + config.c1 * step * dir_deriv as f32 {
                new_loss = l;
                new_grad = g;
                accepted = true;
                break;
            }
            step *= 0.5;
        }
        if !accepted {
            // No progress possible along this direction. If the search was
            // blocked by non-finite probes, report divergence so callers
            // can restart; otherwise this is an ordinary stall.
            return LbfgsResult {
                x,
                loss,
                iters: iter,
                converged: !saw_poison,
                diverged: saw_poison,
            };
        }

        // Update curvature history.
        let s: Vec<f32> = new_x.iter().zip(&x).map(|(&a, &b)| a - b).collect();
        let y: Vec<f32> = new_grad.iter().zip(&grad).map(|(&a, &b)| a - b).collect();
        let sy = dot(&s, &y);
        if sy > 1e-10 {
            if s_hist.len() == config.memory {
                s_hist.remove(0);
                y_hist.remove(0);
                rho_hist.remove(0);
            }
            rho_hist.push(1.0 / sy);
            s_hist.push(s);
            y_hist.push(y);
        }

        let improvement = loss - new_loss;
        x = new_x.clone();
        grad = new_grad.clone();
        loss = new_loss;
        if improvement.abs() < config.loss_tol {
            return LbfgsResult {
                x,
                loss,
                iters: iter + 1,
                converged: true,
                diverged: false,
            };
        }
    }

    LbfgsResult {
        x,
        loss,
        iters: config.max_iters,
        converged: false,
        diverged: false,
    }
}

/// [`minimize`] wrapped in a bounded retry ladder: when a run diverges on
/// non-finite losses or gradients, restart from the (sanitized) start
/// point plus deterministic uniform jitter whose magnitude doubles per
/// attempt. Returns the first non-diverged result and the number of
/// restarts consumed; after exhausting `restart.max_restarts` the last
/// (finite-parameter) diverged result is returned.
pub fn minimize_robust(
    mut f: impl FnMut(&[f32]) -> (f32, Vec<f32>),
    x0: Vec<f32>,
    config: &LbfgsConfig,
    restart: &RestartConfig,
) -> (LbfgsResult, usize) {
    let mut base = x0;
    for v in &mut base {
        if !v.is_finite() {
            *v = 0.0;
        }
    }
    let mut result = minimize(&mut f, base.clone(), config);
    let mut attempt = 0;
    while result.diverged && attempt < restart.max_restarts {
        attempt += 1;
        let scale = restart.jitter * (1u32 << (attempt - 1).min(16)) as f32;
        let start = base
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let h = splitmix64(restart.seed ^ (attempt as u64) << 32 ^ i as u64);
                let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                v + (unit as f32 * 2.0 - 1.0) * scale
            })
            .collect();
        result = minimize(&mut f, start, config);
    }
    if result.diverged {
        // Divergence already forces finite parameters; scrub defensively anyway.
        for v in &mut result.x {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
    }
    (result, attempt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_separable_quadratic() {
        let target = [3.0f32, -1.0, 0.5];
        let result = minimize(
            |x| {
                let loss: f32 = x
                    .iter()
                    .zip(&target)
                    .map(|(&a, &b)| 0.5 * (a - b) * (a - b))
                    .sum();
                let grad = x.iter().zip(&target).map(|(&a, &b)| a - b).collect();
                (loss, grad)
            },
            vec![0.0; 3],
            &LbfgsConfig::default(),
        );
        assert!(result.converged);
        for (a, b) in result.x.iter().zip(&target) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn minimizes_rosenbrock() {
        // The classic banana function; slow for gradient descent, fast for
        // quasi-Newton methods.
        let result = minimize(
            |x| {
                let (a, b) = (x[0], x[1]);
                let loss = (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2);
                let grad = vec![
                    -2.0 * (1.0 - a) - 400.0 * a * (b - a * a),
                    200.0 * (b - a * a),
                ];
                (loss, grad)
            },
            vec![-1.2, 1.0],
            &LbfgsConfig {
                // Armijo-only backtracking (no Wolfe curvature condition)
                // tracks Rosenbrock's curved valley slowly; it converges
                // around ~700 iterations.
                max_iters: 2000,
                grad_tol: 1e-6,
                ..Default::default()
            },
        );
        assert!((result.x[0] - 1.0).abs() < 1e-2, "x0 = {}", result.x[0]);
        assert!((result.x[1] - 1.0).abs() < 1e-2, "x1 = {}", result.x[1]);
    }

    #[test]
    fn respects_iteration_cap() {
        let result = minimize(
            |x| {
                let loss = x[0] * x[0];
                (loss, vec![2.0 * x[0]])
            },
            vec![100.0],
            &LbfgsConfig {
                max_iters: 2,
                grad_tol: 0.0,
                loss_tol: 0.0,
                ..Default::default()
            },
        );
        assert_eq!(result.iters, 2);
        assert!(!result.converged);
    }

    #[test]
    fn already_optimal_start_converges_immediately() {
        let result = minimize(
            |x| (x[0] * x[0], vec![2.0 * x[0]]),
            vec![0.0],
            &LbfgsConfig::default(),
        );
        assert!(result.converged);
        assert_eq!(result.iters, 0);
    }

    #[test]
    fn loss_never_increases() {
        let mut losses = Vec::new();
        minimize(
            |x| {
                let loss = (x[0] - 2.0).powi(4) + (x[1] + 1.0).powi(2);
                losses.push(loss);
                (loss, vec![4.0 * (x[0] - 2.0).powi(3), 2.0 * (x[1] + 1.0)])
            },
            vec![5.0, 5.0],
            &LbfgsConfig::default(),
        );
        // Accepted iterates must be monotone; the oracle also sees rejected
        // line-search probes, so compare best-so-far instead of adjacent.
        let mut best = f32::INFINITY;
        let mut monotone_best = Vec::new();
        for &l in &losses {
            best = best.min(l);
            monotone_best.push(best);
        }
        assert!(monotone_best.last().unwrap() < &1e-3);
    }

    #[test]
    fn poisoned_start_flags_divergence() {
        let result = minimize(
            |_| (f32::NAN, vec![f32::NAN]),
            vec![1.0],
            &LbfgsConfig::default(),
        );
        assert!(result.diverged);
        assert!(!result.converged);
        assert_eq!(result.iters, 0);
        assert!(result.x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn nan_pocket_mid_run_keeps_params_finite() {
        // Loss is NaN whenever x drifts below -0.5; the minimum at x = 2
        // is reachable without entering the pocket, and rejected probes
        // that land in it must not leak NaN into the result.
        let result = minimize(
            |x| {
                if x[0] < -0.5 {
                    (f32::NAN, vec![f32::NAN])
                } else {
                    ((x[0] - 2.0).powi(2), vec![2.0 * (x[0] - 2.0)])
                }
            },
            vec![0.0],
            &LbfgsConfig::default(),
        );
        assert!(result.x[0].is_finite());
        assert!((result.x[0] - 2.0).abs() < 1e-3);
        assert!(!result.diverged);
    }

    #[test]
    fn robust_restarts_out_of_poisoned_start() {
        // The oracle is poisoned exactly at the start point, so attempt 0
        // diverges immediately; any jittered restart escapes and solves
        // the quadratic.
        let (result, restarts) = minimize_robust(
            |x| {
                if x[0] == 1.0 {
                    (f32::INFINITY, vec![f32::INFINITY])
                } else {
                    ((x[0] - 3.0).powi(2), vec![2.0 * (x[0] - 3.0)])
                }
            },
            vec![1.0],
            &LbfgsConfig::default(),
            &RestartConfig::default(),
        );
        assert!(!result.diverged);
        assert!(restarts >= 1);
        assert!((result.x[0] - 3.0).abs() < 1e-3);
    }

    #[test]
    fn robust_gives_up_with_finite_params() {
        let (result, restarts) = minimize_robust(
            |_| (f32::NAN, vec![f32::NAN, f32::NAN]),
            vec![f32::NAN, 5.0],
            &LbfgsConfig::default(),
            &RestartConfig::default(),
        );
        assert!(result.diverged);
        assert_eq!(restarts, RestartConfig::default().max_restarts);
        assert!(result.x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn robust_is_deterministic() {
        let oracle = |x: &[f32]| {
            if x[0].abs() < 0.1 {
                (f32::NAN, vec![f32::NAN])
            } else {
                ((x[0] - 1.0).powi(2), vec![2.0 * (x[0] - 1.0)])
            }
        };
        let (a, ra) = minimize_robust(
            oracle,
            vec![0.0],
            &LbfgsConfig::default(),
            &RestartConfig::default(),
        );
        let (b, rb) = minimize_robust(
            oracle,
            vec![0.0],
            &LbfgsConfig::default(),
            &RestartConfig::default(),
        );
        assert_eq!(ra, rb);
        assert_eq!(a.x, b.x);
    }

    #[test]
    fn high_dimensional_quadratic() {
        let n = 200;
        let result = minimize(
            |x| {
                let mut loss = 0.0f32;
                let mut grad = vec![0.0f32; n];
                for i in 0..n {
                    let scale = 1.0 + (i % 10) as f32;
                    let d = x[i] - i as f32 * 0.01;
                    loss += 0.5 * scale * d * d;
                    grad[i] = scale * d;
                }
                (loss, grad)
            },
            vec![1.0; n],
            &LbfgsConfig {
                max_iters: 300,
                ..Default::default()
            },
        );
        assert!(result.loss < 1e-6, "loss {}", result.loss);
    }
}
