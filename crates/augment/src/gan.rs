//! Relativistic GAN (Jolicoeur-Martineau, 2019) with spectral
//! normalization (Section 4.1).
//!
//! The paper's formulation:
//!
//! ```text
//! max_D E[log σ(D(x_r) − D(G(z)))]
//! max_G E[log σ(D(G(z)) − D(x_r))]
//! ```
//!
//! "the discriminator of RGAN not only distinguishes data, but also tries
//! to maximize the difference between two probabilities" — implemented
//! verbatim over paired real/fake batches. Patterns are resized to a
//! fixed square before training and new samples are resized back to
//! original pattern sizes afterwards, following Figure 6.

use ig_faults::{FaultKind, FaultPlan, GanFault, HealthReport, RecoveryAction, Stage};
use ig_imaging::resize::resize_bilinear;
use ig_imaging::GrayImage;
use ig_nn::activation::{log_sigmoid, sigmoid};
use ig_nn::mlp::{Mlp, MlpConfig};
use ig_nn::spectral::SpectralNorm;
use ig_nn::{Activation, Adam, Matrix};
use rand::seq::SliceRandom;
use rand::Rng;

/// Epoch losses past this magnitude count as divergence even when finite.
const LOSS_EXPLOSION: f32 = 1e4;
/// Probe samples drawn per epoch by the mode-collapse monitor.
const COLLAPSE_PROBE: usize = 6;
/// Mean per-pixel pairwise distance below which the probe batch counts as
/// collapsed. Healthy generators (even untrained ones) sit orders of
/// magnitude above this.
const COLLAPSE_EPS: f32 = 1e-4;

/// RGAN hyper-parameters. Paper values: latent dim 100, lr 1e-4 for both
/// networks, ~1K epochs, square side ≤ 100 (here 16 for CPU scale).
#[derive(Debug, Clone)]
pub struct RganConfig {
    /// Random-noise input dimension (paper: 100).
    pub latent_dim: usize,
    /// Square side patterns are resized to (paper: min(100, mean side)).
    pub pattern_side: usize,
    /// Generator/discriminator hidden widths.
    pub hidden: usize,
    /// Training epochs over the pattern set.
    pub epochs: usize,
    /// Minibatch size (clamped to the pattern count).
    pub batch_size: usize,
    /// Learning rate for both networks (paper: 1e-4; a larger default is
    /// used here because the networks are tiny).
    pub lr: f32,
    /// Power iterations per spectral-norm update.
    pub sn_iters: usize,
}

impl Default for RganConfig {
    fn default() -> Self {
        Self {
            latent_dim: 100,
            pattern_side: 16,
            hidden: 64,
            epochs: 300,
            batch_size: 16,
            lr: 2e-3,
            sn_iters: 1,
        }
    }
}

impl RganConfig {
    /// Fast preset for unit tests.
    pub fn quick() -> Self {
        Self {
            latent_dim: 16,
            pattern_side: 8,
            hidden: 32,
            epochs: 60,
            batch_size: 8,
            ..Default::default()
        }
    }

    /// Choose the square side per the paper: "the width and height are set
    /// to 100 or the averaged value of all widths and heights of patterns,
    /// whichever is smaller" — rescaled to this reproduction's default cap.
    pub fn side_for_patterns(patterns: &[GrayImage], cap: usize) -> usize {
        if patterns.is_empty() {
            return cap;
        }
        let total: usize = patterns.iter().map(|p| p.width() + p.height()).sum();
        let avg = total / (2 * patterns.len());
        avg.clamp(4, cap)
    }
}

/// A trained RGAN over fixed-size square patterns.
#[derive(Debug)]
pub struct Rgan {
    generator: Mlp,
    discriminator: Mlp,
    config: RganConfig,
    /// Original pattern sizes, sampled from when resizing fakes back.
    original_sizes: Vec<(usize, usize)>,
    /// Final discriminator loss (diagnostic).
    pub final_disc_loss: f32,
    /// Final generator loss (diagnostic).
    pub final_gen_loss: f32,
    /// Set when training misbehaved before any healthy epoch completed, so
    /// there was no snapshot to roll back to. The parameters are restored
    /// to their (finite) initial values, but samples are untrained noise —
    /// callers should prefer policy-based augmentation instead.
    pub degenerate: Option<FaultKind>,
}

impl Rgan {
    /// Train on the given patterns. Panics on an empty pattern set.
    pub fn train(patterns: &[GrayImage], config: &RganConfig, rng: &mut impl Rng) -> Self {
        Self::train_with_health(patterns, config, rng, None, &HealthReport::new())
    }

    /// [`Rgan::train`] with per-epoch health monitoring and optional fault
    /// injection.
    ///
    /// After every epoch the monitor checks for divergence (non-finite or
    /// exploding losses, non-finite parameters) and mode collapse (probe
    /// samples nearly identical). A healthy epoch snapshots both networks;
    /// a faulty one rolls back to the last snapshot, records the event on
    /// `health`, and stops training. The monitor draws its probe latents
    /// from an internal deterministic stream, so with an empty `plan` this
    /// is bit-for-bit identical to [`Rgan::train`].
    pub fn train_with_health(
        patterns: &[GrayImage],
        config: &RganConfig,
        rng: &mut impl Rng,
        plan: Option<&FaultPlan>,
        health: &HealthReport,
    ) -> Self {
        assert!(!patterns.is_empty(), "cannot train a GAN on zero patterns");
        let side = config.pattern_side;
        let dim = side * side;
        // Resize every pattern to the square and map to [-1, 1].
        let reals: Vec<Vec<f32>> = patterns
            .iter()
            .map(|p| {
                resize_bilinear(p, side, side)
                    // ig-lint: allow(panic) -- patterns are asserted non-empty
                    // above and `side` comes from a positive config
                    .expect("pattern resize")
                    .pixels()
                    .iter()
                    .map(|&v| v * 2.0 - 1.0)
                    .collect()
            })
            .collect();
        let original_sizes: Vec<(usize, usize)> = patterns.iter().map(|p| p.dims()).collect();

        let mut generator = Mlp::new(
            &MlpConfig {
                input_dim: config.latent_dim,
                hidden: vec![config.hidden, config.hidden],
                output_dim: dim,
                activation: Activation::Relu,
                l2: 0.0,
            },
            rng,
        )
        // ig-lint: allow(panic) -- dims are positive literals/config
        // values validated by GanConfig, so Mlp::new cannot reject them
        .expect("generator config is valid");
        let mut discriminator = Mlp::new(
            &MlpConfig {
                input_dim: dim,
                hidden: vec![config.hidden],
                output_dim: 1,
                activation: Activation::LeakyRelu,
                l2: 0.0,
            },
            rng,
        )
        // ig-lint: allow(panic) -- same validated-config argument as the
        // generator above
        .expect("discriminator config is valid");

        let mut g_opt = Adam::for_gan(config.lr);
        let mut d_opt = Adam::for_gan(config.lr);
        let mut sn_states: Vec<SpectralNorm> = (0..discriminator.num_layers())
            .map(|l| {
                let w = discriminator.weight(l);
                SpectralNorm::new(w.rows(), w.cols(), rng)
            })
            .collect();

        let batch = config.batch_size.min(reals.len()).max(1);
        let mut indices: Vec<usize> = (0..reals.len()).collect();
        let mut last_d = 0.0f32;
        let mut last_g = 0.0f32;
        // Initial parameters, restored if training faults before any
        // healthy epoch; (gen, disc, d_loss, g_loss) of the last healthy
        // epoch otherwise.
        let init_params = (generator.params(), discriminator.params());
        let mut snapshot: Option<(Vec<f32>, Vec<f32>, f32, f32)> = None;
        let mut degenerate: Option<FaultKind> = None;
        for epoch in 0..config.epochs {
            if let Some(fault) = plan.and_then(|p| p.gan_fault_at(epoch)) {
                inject_gan_fault(fault, &mut generator, &mut discriminator);
            }
            indices.shuffle(rng);
            for chunk in indices.chunks(batch) {
                let real =
                    Matrix::from_rows(&chunk.iter().map(|&i| reals[i].clone()).collect::<Vec<_>>());
                let n = real.rows();

                // ---- Discriminator step ----
                let z = random_latent(n, config.latent_dim, rng);
                let fake = generate_batch(&generator, &z);
                let real_cache = discriminator.forward_cache(&real);
                let fake_cache = discriminator.forward_cache(&fake);
                let (dr, df) = (real_cache.logits(), fake_cache.logits());
                // L_D = -mean log σ(D(x_r) - D(x_f)).
                let mut d_loss = 0.0f32;
                let mut d_dr = Matrix::zeros(n, 1);
                let mut d_df = Matrix::zeros(n, 1);
                for i in 0..n {
                    let diff = dr.get(i, 0) - df.get(i, 0);
                    d_loss += -log_sigmoid(diff);
                    let g = (sigmoid(diff) - 1.0) / n as f32; // dL/d(diff)
                    d_dr.set(i, 0, g);
                    d_df.set(i, 0, -g);
                }
                d_loss /= n as f32;
                let grad_real = discriminator.param_grad(&real_cache, &d_dr);
                let grad_fake = discriminator.param_grad(&fake_cache, &d_df);
                let total_grad: Vec<f32> = grad_real
                    .iter()
                    .zip(&grad_fake)
                    .map(|(a, b)| a + b)
                    .collect();
                let mut params = discriminator.params();
                d_opt.step(&mut params, &total_grad);
                discriminator.set_params(&params);
                // Spectral normalization after the update.
                for (l, sn) in sn_states.iter_mut().enumerate() {
                    sn.normalize_weight(discriminator.weight_mut(l), config.sn_iters);
                }
                last_d = d_loss;

                // ---- Generator step ----
                let z = random_latent(n, config.latent_dim, rng);
                let gen_cache = generator.forward_cache(&z);
                let fake = gen_cache.logits().map(|v| v.tanh());
                let real_cache = discriminator.forward_cache(&real);
                let fake_cache = discriminator.forward_cache(&fake);
                let (dr, df) = (real_cache.logits(), fake_cache.logits());
                // L_G = -mean log σ(D(x_f) - D(x_r)).
                let mut g_loss = 0.0f32;
                let mut d_df = Matrix::zeros(n, 1);
                for i in 0..n {
                    let diff = df.get(i, 0) - dr.get(i, 0);
                    g_loss += -log_sigmoid(diff);
                    d_df.set(i, 0, (sigmoid(diff) - 1.0) / n as f32);
                }
                g_loss /= n as f32;
                // Backprop through D to its input, then through tanh, then G.
                let (_, d_input) = discriminator.backward(&fake_cache, &d_df);
                let mut d_gen_logits = d_input;
                for r in 0..d_gen_logits.rows() {
                    let frow = fake.row(r);
                    for (g, &t) in d_gen_logits.row_mut(r).iter_mut().zip(frow) {
                        *g *= 1.0 - t * t;
                    }
                }
                let gen_grad = generator.param_grad(&gen_cache, &d_gen_logits);
                let mut params = generator.params();
                g_opt.step(&mut params, &gen_grad);
                generator.set_params(&params);
                last_g = g_loss;
            }

            match detect_gan_fault(
                &generator,
                &discriminator,
                last_d,
                last_g,
                config.latent_dim,
                epoch,
            ) {
                None => {
                    snapshot = Some((generator.params(), discriminator.params(), last_d, last_g));
                }
                Some(kind) => {
                    match snapshot.as_ref() {
                        Some((g, d, dl, gl)) => {
                            generator.set_params(g);
                            discriminator.set_params(d);
                            last_d = *dl;
                            last_g = *gl;
                            health.record(
                                Stage::Augmentation,
                                kind,
                                RecoveryAction::RolledBackSnapshot,
                                format!("epoch {epoch}: rolled back to last healthy snapshot"),
                            );
                        }
                        None => {
                            generator.set_params(&init_params.0);
                            discriminator.set_params(&init_params.1);
                            last_d = 0.0;
                            last_g = 0.0;
                            degenerate = Some(kind);
                            health.record(
                                Stage::Augmentation,
                                kind,
                                RecoveryAction::NoneRequired,
                                format!(
                                    "epoch {epoch}: no healthy snapshot to roll back to; \
                                     initial parameters restored, GAN marked degenerate"
                                ),
                            );
                        }
                    }
                    break;
                }
            }
        }

        Self {
            generator,
            discriminator,
            config: config.clone(),
            original_sizes,
            final_disc_loss: last_d,
            final_gen_loss: last_g,
            degenerate,
        }
    }

    /// The trained generator (latent → square pattern logits).
    pub fn generator(&self) -> &Mlp {
        &self.generator
    }

    /// The trained discriminator (square pattern → realness logit).
    pub fn discriminator(&self) -> &Mlp {
        &self.discriminator
    }

    /// Sample `count` fake patterns, resized back to randomly chosen
    /// original pattern sizes (Figure 6's "re-adjust new patterns into one
    /// of the original sizes").
    pub fn generate(&self, count: usize, rng: &mut impl Rng) -> Vec<GrayImage> {
        let side = self.config.pattern_side;
        let z = random_latent(count, self.config.latent_dim, rng);
        let fake = generate_batch(&self.generator, &z);
        (0..count)
            .map(|i| {
                let pixels: Vec<f32> = fake.row(i).iter().map(|&v| (v + 1.0) * 0.5).collect();
                // The generator's output layer is built with side*side
                // units, so the length always matches; mid-gray fallback
                // rather than a panic ladder in library code.
                let square = GrayImage::from_vec(side, side, pixels)
                    .unwrap_or_else(|_| GrayImage::from_fn(side, side, |_, _| 0.5));
                // train() asserts the pattern set is non-empty and
                // original_sizes mirrors it; fall back to the square side.
                let &(w, h) = self.original_sizes.choose(rng).unwrap_or(&(side, side));
                // (w, h) are dims of a real pattern, so they are positive
                // and the resize cannot fail; keep the square on the
                // unreachable path.
                resize_bilinear(&square, w, h).unwrap_or(square)
            })
            .collect()
    }

    /// Generate fixed-square fakes without the resize-back step (used by
    /// tests and diagnostics).
    pub fn generate_square(&self, count: usize, rng: &mut impl Rng) -> Vec<GrayImage> {
        let side = self.config.pattern_side;
        let z = random_latent(count, self.config.latent_dim, rng);
        let fake = generate_batch(&self.generator, &z);
        (0..count)
            .map(|i| {
                let pixels: Vec<f32> = fake.row(i).iter().map(|&v| (v + 1.0) * 0.5).collect();
                // Generator output length is side*side by construction;
                // mid-gray fallback on the unreachable path.
                GrayImage::from_vec(side, side, pixels)
                    .unwrap_or_else(|_| GrayImage::from_fn(side, side, |_, _| 0.5))
            })
            .collect()
    }

    /// Discriminator logit for a (square-resized) pattern — diagnostic.
    pub fn discriminator_score(&self, pattern: &GrayImage) -> f32 {
        let side = self.config.pattern_side;
        // side is positive by config; score the pattern as-is if the
        // diagnostic resize ever fails.
        let resized = resize_bilinear(pattern, side, side).unwrap_or_else(|_| pattern.clone());
        let row: Vec<f32> = resized.pixels().iter().map(|&v| v * 2.0 - 1.0).collect();
        self.discriminator
            .forward(&Matrix::row_vector(&row))
            .get(0, 0)
    }
}

fn random_latent(n: usize, dim: usize, rng: &mut impl Rng) -> Matrix {
    Matrix::from_fn(n, dim, |_, _| {
        // Approximate standard normal via sum of uniforms.
        let mut acc = 0.0f32;
        for _ in 0..4 {
            acc += rng.gen_range(-1.0..1.0f32);
        }
        acc * (3.0f32 / 4.0).sqrt()
    })
}

fn generate_batch(generator: &Mlp, z: &Matrix) -> Matrix {
    generator.forward(z).map(|v| v.tanh())
}

/// Force the scheduled fault onto the networks (see [`GanFault`]).
fn inject_gan_fault(fault: GanFault, generator: &mut Mlp, discriminator: &mut Mlp) {
    match fault {
        GanFault::Diverge => {
            // NaN parameters poison every forward pass; losses and
            // gradients go non-finite within one batch.
            let poison = |net: &mut Mlp| {
                let mut p = net.params();
                p.iter_mut().for_each(|v| *v = f32::NAN);
                net.set_params(&p);
            };
            poison(generator);
            poison(discriminator);
        }
        GanFault::Collapse => {
            // A zeroed generator emits one constant output for every
            // latent — the textbook collapsed mode.
            let zeros = vec![0.0; generator.params().len()];
            generator.set_params(&zeros);
        }
    }
}

/// End-of-epoch monitor: divergence first (non-finite or exploding state),
/// then mode collapse via a deterministic probe batch.
fn detect_gan_fault(
    generator: &Mlp,
    discriminator: &Mlp,
    d_loss: f32,
    g_loss: f32,
    latent_dim: usize,
    epoch: usize,
) -> Option<FaultKind> {
    let diverged = !d_loss.is_finite()
        || !g_loss.is_finite()
        || d_loss.abs() > LOSS_EXPLOSION
        || g_loss.abs() > LOSS_EXPLOSION
        || !all_finite(&generator.params())
        || !all_finite(&discriminator.params());
    if diverged {
        return Some(FaultKind::GanDivergence);
    }
    let z = probe_latent(COLLAPSE_PROBE, latent_dim, epoch);
    let out = generate_batch(generator, &z);
    let mut total = 0.0f32;
    let mut pairs = 0usize;
    for i in 0..COLLAPSE_PROBE {
        for j in (i + 1)..COLLAPSE_PROBE {
            let diff: f32 = out
                .row(i)
                .iter()
                .zip(out.row(j))
                .map(|(a, b)| (a - b).abs())
                .sum();
            total += diff / out.cols().max(1) as f32;
            pairs += 1;
        }
    }
    if total / (pairs as f32) < COLLAPSE_EPS {
        return Some(FaultKind::GanModeCollapse);
    }
    None
}

fn all_finite(values: &[f32]) -> bool {
    values.iter().all(|v| v.is_finite())
}

/// Probe latents for the collapse monitor. Drawn from an internal
/// SplitMix64 stream so monitoring never consumes the caller's RNG —
/// monitored training stays bit-identical to unmonitored training.
fn probe_latent(n: usize, dim: usize, epoch: usize) -> Matrix {
    Matrix::from_fn(n, dim, |r, c| {
        let h = splitmix64(
            0x6A09_E667_F3BC_C909 ^ ((epoch as u64) << 40) ^ ((r as u64) << 20) ^ c as u64,
        );
        ((((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64)) * 2.0 - 1.0) as f32
    })
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ig_imaging::stats::stats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Simple synthetic pattern family: dark diagonal lines on bright
    /// ground with small shifts.
    fn line_patterns(n: usize, seed: u64) -> Vec<GrayImage> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut img = GrayImage::filled(12, 12, 0.8);
                let offset = rng.gen_range(-2.0..2.0f32);
                img.draw_line(2.0 + offset, 2.0, 9.0 + offset, 9.0, 1.5, 0.15);
                img
            })
            .collect()
    }

    #[test]
    #[should_panic(expected = "zero patterns")]
    fn empty_patterns_panic() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Rgan::train(&[], &RganConfig::quick(), &mut rng);
    }

    #[test]
    fn generates_requested_count_and_sizes() {
        let mut rng = StdRng::seed_from_u64(1);
        let patterns = line_patterns(10, 2);
        let gan = Rgan::train(&patterns, &RganConfig::quick(), &mut rng);
        let fakes = gan.generate(7, &mut rng);
        assert_eq!(fakes.len(), 7);
        for f in &fakes {
            assert_eq!(f.dims(), (12, 12), "resized back to original size");
            for &p in f.pixels() {
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn fakes_move_toward_real_statistics() {
        // After training, fake patterns should be much closer to the real
        // mean brightness than untrained noise (~0.5).
        let mut rng = StdRng::seed_from_u64(3);
        let patterns = line_patterns(12, 4);
        let real_mean: f32 = patterns.iter().map(|p| stats(p).mean).sum::<f32>() / 12.0;
        let cfg = RganConfig {
            epochs: 250,
            ..RganConfig::quick()
        };
        let gan = Rgan::train(&patterns, &cfg, &mut rng);
        let fakes = gan.generate_square(16, &mut rng);
        let fake_mean: f32 = fakes.iter().map(|p| stats(p).mean).sum::<f32>() / fakes.len() as f32;
        assert!(
            (fake_mean - real_mean).abs() < 0.2,
            "fake mean {fake_mean} vs real mean {real_mean}"
        );
    }

    #[test]
    fn fakes_vary_across_samples() {
        let mut rng = StdRng::seed_from_u64(5);
        let patterns = line_patterns(10, 6);
        let gan = Rgan::train(&patterns, &RganConfig::quick(), &mut rng);
        let fakes = gan.generate_square(6, &mut rng);
        let mut distinct_pairs = 0;
        for i in 0..fakes.len() {
            for j in (i + 1)..fakes.len() {
                let diff: f32 = fakes[i]
                    .pixels()
                    .iter()
                    .zip(fakes[j].pixels())
                    .map(|(a, b)| (a - b).abs())
                    .sum();
                if diff > 0.1 {
                    distinct_pairs += 1;
                }
            }
        }
        assert!(distinct_pairs > 0, "generator collapsed to a single output");
    }

    #[test]
    fn losses_are_finite_after_training() {
        let mut rng = StdRng::seed_from_u64(7);
        let patterns = line_patterns(8, 8);
        let gan = Rgan::train(&patterns, &RganConfig::quick(), &mut rng);
        assert!(gan.final_disc_loss.is_finite());
        assert!(gan.final_gen_loss.is_finite());
    }

    #[test]
    fn side_for_patterns_follows_paper_rule() {
        let small = vec![GrayImage::filled(6, 10, 0.5)];
        assert_eq!(RganConfig::side_for_patterns(&small, 16), 8);
        let big = vec![GrayImage::filled(60, 100, 0.5)];
        assert_eq!(RganConfig::side_for_patterns(&big, 16), 16);
        assert_eq!(RganConfig::side_for_patterns(&[], 16), 16);
    }

    #[test]
    fn injected_divergence_rolls_back_to_snapshot() {
        let mut rng = StdRng::seed_from_u64(11);
        let patterns = line_patterns(10, 12);
        let plan = FaultPlan {
            gan_fault_epoch: Some(5),
            gan_fault: GanFault::Diverge,
            ..FaultPlan::default()
        };
        let health = HealthReport::new();
        let gan = Rgan::train_with_health(
            &patterns,
            &RganConfig::quick(),
            &mut rng,
            Some(&plan),
            &health,
        );
        assert_eq!(health.count(FaultKind::GanDivergence), 1);
        assert_eq!(health.count_action(RecoveryAction::RolledBackSnapshot), 1);
        assert!(gan.degenerate.is_none(), "snapshot existed, not degenerate");
        assert!(gan.final_disc_loss.is_finite());
        assert!(gan.final_gen_loss.is_finite());
        for f in gan.generate(4, &mut rng) {
            for &p in f.pixels() {
                assert!(p.is_finite() && (0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn injected_collapse_is_detected_and_rolled_back() {
        let mut rng = StdRng::seed_from_u64(13);
        let patterns = line_patterns(10, 14);
        let plan = FaultPlan {
            gan_fault_epoch: Some(5),
            gan_fault: GanFault::Collapse,
            ..FaultPlan::default()
        };
        let health = HealthReport::new();
        let gan = Rgan::train_with_health(
            &patterns,
            &RganConfig::quick(),
            &mut rng,
            Some(&plan),
            &health,
        );
        assert_eq!(health.count(FaultKind::GanModeCollapse), 1);
        assert_eq!(health.count_action(RecoveryAction::RolledBackSnapshot), 1);
        assert!(gan.degenerate.is_none());
        // Post-rollback samples come from the healthy snapshot and vary.
        let fakes = gan.generate_square(6, &mut rng);
        let max_diff: f32 = (1..fakes.len())
            .map(|i| {
                fakes[0]
                    .pixels()
                    .iter()
                    .zip(fakes[i].pixels())
                    .map(|(a, b)| (a - b).abs())
                    .sum()
            })
            .fold(0.0, f32::max);
        assert!(max_diff > 0.01, "rolled-back generator still collapsed");
    }

    #[test]
    fn fault_before_any_snapshot_marks_degenerate() {
        let mut rng = StdRng::seed_from_u64(15);
        let patterns = line_patterns(10, 16);
        let plan = FaultPlan {
            gan_fault_epoch: Some(0),
            gan_fault: GanFault::Diverge,
            ..FaultPlan::default()
        };
        let health = HealthReport::new();
        let gan = Rgan::train_with_health(
            &patterns,
            &RganConfig::quick(),
            &mut rng,
            Some(&plan),
            &health,
        );
        assert_eq!(gan.degenerate, Some(FaultKind::GanDivergence));
        assert_eq!(health.count(FaultKind::GanDivergence), 1);
        // Initial parameters were restored, so sampling still works.
        for f in gan.generate(3, &mut rng) {
            for &p in f.pixels() {
                assert!(p.is_finite() && (0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn empty_plan_matches_plain_train() {
        let patterns = line_patterns(8, 18);
        let cfg = RganConfig::quick();
        let mut rng_a = StdRng::seed_from_u64(17);
        let plain = Rgan::train(&patterns, &cfg, &mut rng_a);
        let mut rng_b = StdRng::seed_from_u64(17);
        let health = HealthReport::new();
        let monitored = Rgan::train_with_health(
            &patterns,
            &cfg,
            &mut rng_b,
            Some(&FaultPlan::none(99)),
            &health,
        );
        assert!(health.is_clean());
        let a = plain.generate_square(4, &mut rng_a);
        let b = monitored.generate_square(4, &mut rng_b);
        for (fa, fb) in a.iter().zip(&b) {
            assert_eq!(fa.pixels(), fb.pixels(), "empty plan changed training");
        }
    }

    #[test]
    fn discriminator_scores_are_finite() {
        let mut rng = StdRng::seed_from_u64(9);
        let patterns = line_patterns(8, 10);
        let gan = Rgan::train(&patterns, &RganConfig::quick(), &mut rng);
        for p in &patterns {
            assert!(gan.discriminator_score(p).is_finite());
        }
    }
}
