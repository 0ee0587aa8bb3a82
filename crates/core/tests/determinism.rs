//! Full-run determinism: a complete train → label run through the stage
//! graph is a pure function of the run seed. Two fresh contexts with the
//! same seed (separate artifact stores, so nothing is shared by
//! reference) must produce bit-identical weak labels and probabilities,
//! and memoization must not change the outcome: a warm store serves the
//! same bits a fresh run computes, and models that share a store never
//! read each other's artifacts.

use ig_core::{DevSet, FaultPlan, InspectorGadget, Pattern, PipelineConfig, RunContext};
use ig_imaging::GrayImage;
use ig_nn::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Miniature dark-square detection task (same shape as the unit-test
/// fixture in `pipeline.rs`): 30 images, one crowd pattern.
fn make_task(n: usize, seed: u64) -> (Vec<Pattern>, Vec<GrayImage>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut images = Vec::new();
    let mut labels = Vec::new();
    for i in 0..n {
        let defect = i % 2 == 1;
        let mut img = GrayImage::from_fn(48, 32, |x, y| {
            0.65 + 0.05 * ((x as f32 * 0.4).sin() * (y as f32 * 0.3).cos())
        });
        if defect {
            let x = rng.gen_range(2..38);
            let y = rng.gen_range(2..22);
            img.fill_rect(x, y, 7, 7, 0.15);
        }
        images.push(img);
        labels.push(usize::from(defect));
    }
    let mut pat = GrayImage::filled(7, 7, 0.15);
    pat.fill_rect(0, 0, 7, 1, 0.6);
    (vec![Pattern::crowd(pat)], images, labels)
}

/// One full pipeline run under `ctx`: train on the first 20 images, label
/// the held-out 10. Every random decision derives from the context.
fn run_once(ctx: &RunContext) -> (Vec<usize>, Matrix) {
    run_with(ctx, false, 2)
}

/// [`run_once`] with labeler tuning switched by `tune` and `threads`
/// workers for matching and the tuning fits.
fn run_with(ctx: &RunContext, tune: bool, threads: usize) -> (Vec<usize>, Matrix) {
    let (patterns, images, labels) = make_task(30, 5);
    let refs: Vec<&GrayImage> = images.iter().collect();
    let config = PipelineConfig {
        tune,
        threads,
        ..Default::default()
    };
    let mut rng = ctx.rng(0);
    let ig = InspectorGadget::train_in(
        ctx,
        patterns,
        DevSet::Raw(&refs[..20]),
        &labels[..20],
        2,
        &config,
        &mut rng,
    )
    .expect("training succeeds on the toy task");
    let out = ig.label(&refs[20..]);
    (out.labels, out.probabilities)
}

#[test]
fn same_seed_produces_identical_weak_labels() {
    let (labels_a, proba_a) = run_once(&RunContext::new(11));
    let (labels_b, proba_b) = run_once(&RunContext::new(11));
    assert_eq!(labels_a, labels_b, "weak labels must be seed-deterministic");
    assert_eq!(
        proba_a.as_slice(),
        proba_b.as_slice(),
        "probabilities must be bit-identical across fresh runs"
    );
}

/// A second run on a warm context is served from the store (the bank's
/// generator and the dev features both hit) and is bit-equal to a fresh
/// context's run.
#[test]
fn memoization_does_not_change_the_outcome() {
    let warm = RunContext::new(11);
    run_once(&warm);
    let (hits, misses) = (warm.store().hits(), warm.store().misses());
    let (labels_warm, proba_warm) = run_once(&warm);
    assert_eq!(
        warm.store().hits(),
        hits + 2,
        "generator and dev features hit"
    );
    assert_eq!(warm.store().misses(), misses, "nothing recomputed");
    let (labels_fresh, proba_fresh) = run_once(&RunContext::new(11));
    assert_eq!(labels_warm, labels_fresh);
    assert_eq!(proba_warm.as_slice(), proba_fresh.as_slice());
}

/// Two models trained from one pattern bank under one shared store: one
/// clean, one under a plan that flattens every pattern. Labeling runs
/// without a plan, so only the bank fingerprint tells the two models'
/// feature matrices apart; each model must label with its own generator's
/// features, never with the other model's memoized matrix.
#[test]
fn models_from_one_bank_under_different_plans_keep_their_own_features() {
    let (patterns, images, labels) = make_task(30, 5);
    let refs: Vec<&GrayImage> = images.iter().collect();
    let config = PipelineConfig {
        tune: false,
        threads: 2,
        ..Default::default()
    };
    let clean = RunContext::new(11);
    let degenerate = clean.clone().with_plan(Some(FaultPlan {
        degenerate_pattern_rate: 1.0,
        ..FaultPlan::none(11)
    }));
    let models: Vec<(&RunContext, InspectorGadget)> = [&clean, &degenerate]
        .into_iter()
        .map(|ctx| {
            let ig = InspectorGadget::train_in(
                ctx,
                patterns.clone(),
                DevSet::Raw(&refs[..20]),
                &labels[..20],
                2,
                &config,
                &mut ctx.rng(0),
            )
            .expect("training recovers on the toy task");
            (ctx, ig)
        })
        .collect();
    let test = &refs[20..];
    let own: Vec<Matrix> = models
        .iter()
        .map(|(_, ig)| ig.feature_generator().feature_matrix(test))
        .collect();
    assert_ne!(
        own[0].as_slice(),
        own[1].as_slice(),
        "flattened patterns must change the features"
    );
    for ((ctx, ig), own) in models.iter().zip(&own) {
        let memoized = ig.features_in(ctx, DevSet::Raw(test));
        assert_eq!(memoized.as_slice(), own.as_slice());
        let weak = ig.label_in(ctx, DevSet::Raw(test));
        let direct = ig.label(test);
        assert_eq!(weak.labels, direct.labels);
        assert_eq!(
            weak.probabilities.as_slice(),
            direct.probabilities.as_slice()
        );
    }
}

#[test]
fn tuned_weak_labels_do_not_depend_on_the_thread_count() {
    let (labels_serial, proba_serial) = run_with(&RunContext::new(11), true, 1);
    let (labels_par, proba_par) = run_with(&RunContext::new(11), true, 2);
    assert_eq!(labels_serial, labels_par);
    assert_eq!(proba_serial.as_slice(), proba_par.as_slice());
}
