//! Property tests for the labeler's robustness guarantees: no matter how
//! hostile the feature matrix (NaN, +/-Inf, huge, denormal cells from the
//! `ig-faults` adversarial generators), fitting never panics and
//! predictions are always finite, valid probability distributions.
//!
//! Also pins the batched matching engine's contracts: the prepared
//! (cached pyramid/integral) matchers are bit-identical to the per-call
//! matchers over random inputs, the raw and prepared batch arms equal
//! the per-cell matcher under faults at any thread count, and
//! cell-granular panic recovery reconstructs the serial result exactly.

use ig_check::{ensure, ensure_eq, properties};
use ig_core::{
    DevSet, FaultKind, FeatureGenerator, HealthReport, Labeler, LabelerConfig, Pattern,
    RecoveryAction,
};
use ig_faults::inject::{adversarial_labels, adversarial_matrix, corrupt_matrix};
use ig_faults::FaultPlan;
use ig_imaging::ncc::PyramidMatchConfig;
use ig_imaging::{
    match_prepared_exact, match_template, match_template_pyramid, GrayImage, PreparedImage,
    PreparedPattern,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_image(w: usize, h: usize, rng: &mut StdRng) -> GrayImage {
    GrayImage::from_fn(w, h, |_, _| rng.gen_range(0.0f32..1.0))
}

/// Probabilities must be finite, in [0, 1], and sum to 1 per row.
fn assert_valid_distributions(proba: &ig_nn::Matrix) {
    for r in 0..proba.rows() {
        let mut sum = 0.0f32;
        for &v in proba.row(r) {
            assert!(v.is_finite(), "probability {v} not finite");
            assert!(
                (-1e-5..=1.0 + 1e-5).contains(&v),
                "probability {v} out of range"
            );
            sum += v;
        }
        assert!((sum - 1.0).abs() < 1e-4, "row {r} sums to {sum}");
    }
}

properties! {
    cases = 32;

    fn labeler_never_emits_non_finite_probabilities(g) {
        let rows = g.gen_range(4usize..16);
        let cols = g.gen_range(1usize..5);
        let seed = g.gen::<u64>();
        let hostile_rate = g.gen_range(0.0f64..0.5);
        let mut rng = StdRng::seed_from_u64(seed);
        let x = adversarial_matrix(rows, cols, seed, hostile_rate);
        let labels = adversarial_labels(rows, seed ^ 0xabcd);
        let mut labeler = Labeler::new(cols, LabelerConfig::new(2), &mut rng).unwrap();
        // Fitting may legitimately fail (divergence after restarts), but the
        // labeler's parameters stay finite either way, so inference on a
        // second hostile batch must still produce valid distributions.
        let _ = labeler.fit(&x, &labels);
        let hostile = adversarial_matrix(rows, cols, seed ^ 0x77, 0.6);
        assert_valid_distributions(&labeler.predict_proba(&hostile));
        ensure!(labeler.predict(&hostile).iter().all(|&p| p < 2));
    }

    fn multiclass_labeler_survives_adversarial_features(g) {
        let labels = g.vec(6..20, |g| g.gen_range(0usize..3));
        let seed = g.gen::<u64>();
        let hostile_rate = g.gen_range(0.0f64..0.4);
        // Ensure all three classes appear so the fit is well-posed.
        let mut labels = labels;
        labels[0] = 0;
        labels[1] = 1;
        labels[2] = 2;
        let mut rng = StdRng::seed_from_u64(seed);
        let x = adversarial_matrix(labels.len(), 4, seed, hostile_rate);
        let mut labeler = Labeler::new(4, LabelerConfig::new(3), &mut rng).unwrap();
        let _ = labeler.fit(&x, &labels);
        assert_valid_distributions(&labeler.predict_proba(&x));
        ensure!(labeler.predict(&x).iter().all(|&p| p < 3));
    }

    fn poisoned_lbfgs_evaluations_are_recorded_and_survived(g) {
        let seed = g.gen::<u64>();
        let poison_rate = g.gen_range(0.05f64..0.5);
        // Clean, separable data; the only hostility is the plan poisoning
        // a fraction of objective evaluations with NaN losses.
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..20)
            .map(|i| {
                let hi = if i % 2 == 0 { 0.95 } else { 0.82 };
                vec![hi, 0.84, hi - 0.02]
            })
            .collect();
        let labels: Vec<usize> = (0..20).map(|i| i % 2).collect();
        let x = ig_nn::Matrix::from_rows(&rows);
        let plan = FaultPlan {
            seed,
            lbfgs_poison_rate: poison_rate,
            ..FaultPlan::default()
        };
        let health = HealthReport::new();
        let mut labeler = Labeler::new(3, LabelerConfig::new(2), &mut rng).unwrap();
        let outcome = labeler.fit_with_plan(&x, &labels, Some(&plan), Some(&health));
        // Every injected poison shows up as a divergence event, and the
        // parameters survive regardless of the fit outcome.
        if outcome.is_err() {
            ensure!(health.count(FaultKind::TrainingFailure) >= 1);
        }
        ensure!(
            health.count(FaultKind::LbfgsDivergence) >= 1
                || health.count_action(RecoveryAction::RestartedWithJitter) == 0
        );
        assert_valid_distributions(&labeler.predict_proba(&x));
    }

    fn plan_corrupted_features_never_poison_predictions(g) {
        let rows = g.gen_range(4usize..16);
        let cols = g.gen_range(1usize..5);
        let seed = g.gen::<u64>();
        let nan_rate = g.gen_range(0.0f64..0.4);
        let inf_rate = g.gen_range(0.0f64..0.3);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = adversarial_matrix(rows, cols, seed, 0.0); // benign base
        let plan = FaultPlan {
            seed: seed ^ 0x1234,
            nan_feature_rate: nan_rate,
            inf_feature_rate: inf_rate,
            ..FaultPlan::default()
        };
        let cells = corrupt_matrix(&mut x, &plan);
        for &(r, c) in &cells {
            ensure!(!x.get(r, c).is_finite());
        }
        let labels = adversarial_labels(rows, seed ^ 0x9999);
        let mut labeler = Labeler::new(cols, LabelerConfig::new(2), &mut rng).unwrap();
        let _ = labeler.fit(&x, &labels);
        assert_valid_distributions(&labeler.predict_proba(&x));
    }

    /// The exact prepared matcher against the per-call one. The pyramid
    /// matcher is a wrapper over `match_prepared`, so its parity is pinned
    /// in `ig-imaging` against the per-placement reference matcher
    /// (`refine_ladder_bit_identical_to_per_placement_reference`, which
    /// also draws this domain).
    fn prepared_matchers_bit_identical_to_per_call(g) {
        let iw = g.gen_range(10usize..48);
        let ih = g.gen_range(10usize..40);
        let pw = g.gen_range(2usize..10);
        let ph = g.gen_range(2usize..10);
        let seed = g.gen::<u64>();
        let mut rng = StdRng::seed_from_u64(seed);
        let img = random_image(iw, ih, &mut rng);
        let pat = random_image(pw, ph, &mut rng);
        let config = PyramidMatchConfig::default();
        let prep_img = PreparedImage::new(&img, &config);
        let prep_pat = PreparedPattern::new(&pat, &config).unwrap();
        let a = match_template(&img, &pat).unwrap();
        let b = match_prepared_exact(&prep_img, &prep_pat).unwrap();
        ensure_eq!((a.x, a.y), (b.x, b.y));
        ensure_eq!(a.score.to_bits(), b.score.to_bits(), "exact: {} vs {}", a.score, b.score);
    }

    fn cell_granular_panic_recovery_matches_serial_exactly(g) {
        let n_images = g.gen_range(1usize..6);
        let threads = g.gen_range(2usize..6);
        let panic_rate = g.gen_range(0.3f64..=1.0);
        let seed = g.gen::<u64>();
        let mut rng = StdRng::seed_from_u64(seed);
        let images: Vec<GrayImage> = (0..n_images)
            .map(|_| random_image(24, 18, &mut rng))
            .collect();
        let refs: Vec<&GrayImage> = images.iter().collect();
        let patterns = vec![
            Pattern::crowd(random_image(5, 5, &mut rng)),
            Pattern::crowd(random_image(7, 4, &mut rng)),
        ];
        let serial = FeatureGenerator::new(patterns.clone())
            .unwrap()
            .with_threads(1)
            .feature_matrix(&refs);
        let plan = FaultPlan {
            seed: seed ^ 0x50f7,
            worker_panic_rate: panic_rate,
            ..FaultPlan::default()
        };
        let health = HealthReport::new();
        let recovered = FeatureGenerator::new(patterns)
            .unwrap()
            .with_threads(threads)
            .feature_matrix_with_health(DevSet::Raw(&refs), 0, Some(&plan), &health);
        ensure_eq!(serial.shape(), recovered.shape());
        for (a, b) in serial.as_slice().iter().zip(recovered.as_slice()) {
            ensure_eq!(a.to_bits(), b.to_bits(), "recovered {} vs serial {}", b, a);
        }
    }

    /// The three ways to score a batch agree bit for bit under faults:
    /// the raw arm (each image prepared on first use and released after
    /// its last cell), the prepared arm, and `match_template_pyramid` per
    /// cell through the same fault ladder, at 1, 2 and 4 threads. The
    /// sanitized-cell count is a function of the plan alone; which
    /// poisoned workers panic depends on which of them claims a cell, so
    /// panics are bounded by the poisoned count and each one is recovered.
    fn raw_prepared_and_per_cell_features_agree_under_faults(g) {
        let n_images = g.gen_range(1usize..10);
        let n_patterns = g.gen_range(1usize..5);
        let row_offset = g.gen_range(0usize..50);
        let seed = g.gen::<u64>();
        let plan = FaultPlan {
            seed: seed ^ 0x7a11,
            worker_panic_rate: g.gen_range(0.0f64..=1.0),
            nan_feature_rate: g.gen_range(0.0f64..0.3),
            inf_feature_rate: g.gen_range(0.0f64..0.2),
            ..FaultPlan::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let images: Vec<GrayImage> = (0..n_images)
            .map(|_| {
                let (w, h) = (rng.gen_range(16usize..40), rng.gen_range(16usize..40));
                random_image(w, h, &mut rng)
            })
            .collect();
        let patterns: Vec<Pattern> = (0..n_patterns)
            .map(|_| {
                let (w, h) = (rng.gen_range(3usize..10), rng.gen_range(3usize..10));
                Pattern::crowd(random_image(w, h, &mut rng))
            })
            .collect();
        let config = PyramidMatchConfig::default();
        let (mut expected, mut errors, mut sanitized) = (Vec::new(), 0, 0);
        for (i, image) in images.iter().enumerate() {
            for (j, pattern) in patterns.iter().enumerate() {
                let v = match match_template_pyramid(image, &pattern.image, &config) {
                    Ok(m) => m.score,
                    Err(_) => {
                        errors += 1;
                        0.0
                    }
                };
                let v = plan.corrupt_feature(row_offset + i, j, v);
                if !v.is_finite() {
                    sanitized += 1;
                }
                expected.push(if v.is_finite() { v } else { 0.0 });
            }
        }
        let refs: Vec<&GrayImage> = images.iter().collect();
        let cells = n_images * n_patterns;
        for threads in [1, 2, 4] {
            let fg = FeatureGenerator::new(patterns.clone())
                .unwrap()
                .with_threads(threads);
            let prepared = fg.prepare_images(&refs);
            let workers = if threads.min(cells) > 1 { threads.min(cells) } else { 0 };
            let poisoned = (0..workers).filter(|&w| plan.worker_panic(w)).count();
            for (arm, batch) in [("raw", DevSet::Raw(&refs)), ("prepared", DevSet::Prepared(&prepared))] {
                let health = HealthReport::new();
                let m = fg.feature_matrix_with_health(batch, row_offset, Some(&plan), &health);
                ensure_eq!(m.shape(), (n_images, n_patterns));
                for (c, (a, b)) in expected.iter().zip(m.as_slice()).enumerate() {
                    ensure_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{arm} arm, {threads} threads, cell {c}: {b} vs per-cell {a}"
                    );
                }
                let panics = health.count(FaultKind::WorkerPanic);
                ensure_eq!(health.count(FaultKind::MatchError), errors, "{arm}, {threads} threads");
                ensure_eq!(health.count(FaultKind::NonFiniteFeature), sanitized, "{arm}, {threads} threads");
                ensure!(panics <= poisoned, "{arm}, {threads} threads: {panics} panics, {poisoned} poisoned");
                ensure_eq!(health.count_action(RecoveryAction::SerialRecompute), panics);
                ensure_eq!(health.len(), errors + sanitized + panics);
            }
        }
    }

    fn class_prior_labeler_ignores_hostile_features(g) {
        let rows = g.gen_range(2usize..10);
        let seed = g.gen::<u64>();
        let mut rng = StdRng::seed_from_u64(seed);
        let labels = adversarial_labels(rows, seed);
        let labeler = Labeler::class_prior(3, LabelerConfig::new(2), &labels, &mut rng).unwrap();
        let hostile = adversarial_matrix(rows, 3, seed ^ 0x4242, 0.7);
        let proba = labeler.predict_proba(&hostile);
        assert_valid_distributions(&proba);
        // Priors depend only on the labels: every row gets the same P(1).
        for r in 1..proba.rows() {
            ensure!((proba.get(r, 1) - proba.get(0, 1)).abs() < 1e-6);
        }
    }
}

properties! {
    cases = 8;

    /// The recovery contract over both matcher shapes: a GAN-scale
    /// 128x128 pattern on a 256x256 frame runs the full 4-level ladder (a
    /// 16x16 coarse pattern on a 32x32 level, then three refine rungs),
    /// while the small second pattern takes the one-level exact scan.
    /// Recovered cells are recomputed through the same deterministic
    /// kernels, so results stay bit-identical to the serial run.
    fn cell_granular_panic_recovery_matches_serial_on_gan_scale_patterns(g) {
        let threads = g.gen_range(2usize..6);
        let panic_rate = g.gen_range(0.3f64..=1.0);
        let seed = g.gen::<u64>();
        let mut rng = StdRng::seed_from_u64(seed);
        let images: Vec<GrayImage> = (0..2)
            .map(|_| random_image(256, 256, &mut rng))
            .collect();
        let refs: Vec<&GrayImage> = images.iter().collect();
        let patterns = vec![
            Pattern::crowd(random_image(128, 128, &mut rng)),
            Pattern::crowd(random_image(7, 5, &mut rng)),
        ];
        let serial = FeatureGenerator::new(patterns.clone())
            .unwrap()
            .with_threads(1)
            .feature_matrix(&refs);
        let plan = FaultPlan {
            seed: seed ^ 0x50f7,
            worker_panic_rate: panic_rate,
            ..FaultPlan::default()
        };
        let health = HealthReport::new();
        let recovered = FeatureGenerator::new(patterns)
            .unwrap()
            .with_threads(threads)
            .feature_matrix_with_health(DevSet::Raw(&refs), 0, Some(&plan), &health);
        ensure_eq!(serial.shape(), recovered.shape());
        for (a, b) in serial.as_slice().iter().zip(recovered.as_slice()) {
            ensure_eq!(a.to_bits(), b.to_bits(), "recovered {} vs serial {}", b, a);
        }
    }
}
