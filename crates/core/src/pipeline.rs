//! The end-to-end Inspector Gadget pipeline (Figures 2 and 3).
//!
//! Inputs: a pattern bank (crowd patterns, optionally extended by the
//! augmenter) and a labeled development set. Training matches every
//! pattern against every dev image (features), tunes and fits the MLP
//! labeler. Labeling then turns any batch of unlabeled images into weak
//! labels — "after training the Labeler, Inspector Gadget only utilizes
//! [patterns, feature generator, labeler] for generating weak labels".

use std::sync::Arc;

use crate::features::{default_threads, FeatureGenerator, MatchBackend};
use crate::labeler::{Labeler, LabelerConfig};
use crate::stages::{effective_threads, BuildFeatureGen, ComputeFeatureShard, DevSet};
use crate::tuning::{tune_labeler_in, TuningConfig, TuningReport};
use crate::Pattern;
use crate::Result;
use ig_faults::{FaultKind, FaultPlan, HealthReport, RecoveryAction, Stage as FaultStage};
use ig_imaging::GrayImage;
use ig_nn::Matrix;
use ig_runtime::{infallible, Fingerprint, RunContext, ShardPlan};
use rand::Rng;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Matching backend for the FGFs.
    pub backend: MatchBackend,
    /// Worker threads for feature generation and for the labeler-tuning
    /// fold fits (0 = the run context's budget, else hardware default).
    pub threads: usize,
    /// Run architecture tuning (Section 6.5). When `false`,
    /// `fixed_hidden` is used directly — the "Min"/"Max" arms of Figure 11
    /// and speed-sensitive callers use this.
    pub tune: bool,
    /// Architecture when tuning is disabled.
    pub fixed_hidden: Vec<usize>,
    /// Tuning parameters.
    pub tuning: TuningConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            backend: MatchBackend::Pyramid,
            threads: 0,
            tune: true,
            fixed_hidden: vec![8],
            tuning: TuningConfig::default(),
        }
    }
}

/// Weak labels for a batch of images.
#[derive(Debug, Clone)]
pub struct WeakLabelOutput {
    /// Hard weak label per image.
    pub labels: Vec<usize>,
    /// Per-class probabilities (rows sum to 1).
    pub probabilities: Matrix,
    /// Max FGF similarity per image — the error-analysis signal.
    pub max_similarities: Vec<f32>,
}

/// A trained Inspector Gadget instance.
#[derive(Debug)]
pub struct InspectorGadget {
    feature_gen: Arc<FeatureGenerator>,
    /// Fingerprint of the pattern bank + matching config the generator
    /// was built from; keys every downstream feature-computation stage.
    bank_fp: Fingerprint,
    labeler: Labeler,
    /// Development-set feature matrix computed during training, kept so
    /// downstream consumers (experiments, error analysis) reuse it
    /// instead of re-running the matching engine.
    dev_features: Arc<Matrix>,
    /// Tuning report when tuning ran.
    pub tuning_report: Option<TuningReport>,
    /// Every fault detected and recovery taken during training.
    pub health: HealthReport,
}

impl InspectorGadget {
    /// Train from patterns and a labeled development set: [`InspectorGadget::train_in`]
    /// under an ephemeral [`RunContext`] (no fault plan, no shared store).
    pub fn train(
        patterns: Vec<Pattern>,
        dev_images: &[&GrayImage],
        dev_labels: &[usize],
        num_classes: usize,
        config: &PipelineConfig,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        let ctx = RunContext::new(0);
        Self::train_in(
            &ctx,
            patterns,
            DevSet::Raw(dev_images),
            dev_labels,
            num_classes,
            config,
            rng,
        )
    }

    /// The one training path: run the stage graph under `ctx`.
    ///
    /// Stages executed, in order: [`BuildFeatureGen`] (memoized by
    /// pattern-bank fingerprint, which folds in the fault plan) and
    /// [`ComputeFeatureShard`] over the dev set (memoized by bank + image
    /// content + shard + fault plan). The labeler is then tuned and
    /// trained by a plain call that is never memoized, since it consumes
    /// `rng`. The fault plan comes from `ctx`; faults recorded during
    /// this call land both in the returned model's
    /// [`InspectorGadget::health`] and in the context-wide
    /// [`RunContext::health`] aggregate.
    ///
    /// Under a fault plan (`RunContext::with_plan`) the full training
    /// recovery ladder applies:
    ///
    /// 1. degenerate patterns are quarantined, non-finite / errored
    ///    features sanitized, panicked feature workers recomputed serially;
    /// 2. tuning skips failing candidates; if tuning fails outright, the
    ///    fixed `config.fixed_hidden` architecture is trained instead;
    /// 3. if that fit also fails (diverged after restarts), the labeler
    ///    degrades to the class-prior predictor.
    ///
    /// An empty plan changes nothing about training.
    ///
    /// The dev set may be raw or prepared with
    /// [`FeatureGenerator::prepare_images`]; both give bit-identical
    /// features. A raw set keeps only about `threads + 1` images prepared
    /// at once, so its working set does not grow with the set.
    ///
    /// Under a context whose artifact store already holds this pattern
    /// bank's generator or this dev set's features (e.g. a second
    /// experiment arm), those stages are served bit-identically from
    /// cache instead of recomputing. The dev matrix is one
    /// [`ComputeFeatureShard`] over the whole set under any scale plan:
    /// a memory budget shards only the out-of-core stream that callers
    /// drive themselves.
    pub fn train_in(
        ctx: &RunContext,
        patterns: Vec<Pattern>,
        dev: DevSet<'_>,
        dev_labels: &[usize],
        num_classes: usize,
        config: &PipelineConfig,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        let health = HealthReport::new();
        let mut build = BuildFeatureGen::new(patterns, config, &health, ctx);
        let bank_fp = build.bank_fp();
        let feature_gen = ctx.run(&mut build)?;
        let features = batch_features(ctx, bank_fp, &feature_gen, dev, ctx.plan(), &health);
        let (labeler, tuning_report) = train_labeler(
            ctx,
            &features,
            dev_labels,
            num_classes,
            config,
            rng,
            &health,
        )?;
        ctx.health().merge(&health);
        Ok(Self {
            feature_gen,
            bank_fp,
            labeler,
            dev_features: features,
            tuning_report,
            health,
        })
    }

    /// Number of FGFs.
    pub fn num_features(&self) -> usize {
        self.feature_gen.num_features()
    }

    /// Borrow the feature generator (for feature reuse in experiments).
    pub fn feature_generator(&self) -> &FeatureGenerator {
        self.feature_gen.as_ref()
    }

    /// Fingerprint of the pattern bank + matching config this model was
    /// trained with — the key under which feature computations for this
    /// model memoize.
    pub fn bank_fingerprint(&self) -> Fingerprint {
        self.bank_fp
    }

    /// The development-set feature matrix computed during training.
    /// Experiments that previously re-matched the dev set after training
    /// should read this instead — it is exactly what the labeler was
    /// tuned and fit on.
    pub fn dev_features(&self) -> &Matrix {
        self.dev_features.as_ref()
    }

    /// Feature matrix of any batch under this model's generator, memoized
    /// in `ctx`'s artifact store: a second arm (or a second model trained
    /// from the same pattern bank) labeling the same batch reuses the
    /// cached matrix instead of re-running the matching engine. Matcher
    /// errors and non-finite scores found while computing the matrix land
    /// in [`RunContext::health`], as training's do.
    pub fn features_in(&self, ctx: &RunContext, images: DevSet<'_>) -> Arc<Matrix> {
        let health = HealthReport::new();
        let features = batch_features(ctx, self.bank_fp, &self.feature_gen, images, None, &health);
        ctx.health().merge(&health);
        features
    }

    /// Weak labels for a batch under `ctx`, the labeling counterpart of
    /// [`InspectorGadget::train_in`]: the feature matrix memoizes in
    /// `ctx`'s store (see [`InspectorGadget::features_in`]), so several
    /// models trained from one bank label a shared batch with one
    /// matching pass.
    pub fn label_in(&self, ctx: &RunContext, images: DevSet<'_>) -> WeakLabelOutput {
        let features = self.features_in(ctx, images);
        self.label_from_features(&features)
    }

    /// Generate weak labels for a batch of images.
    pub fn label(&self, images: &[&GrayImage]) -> WeakLabelOutput {
        let features = self.feature_gen.feature_matrix(images);
        self.label_from_features(&features)
    }

    /// Generate weak labels from a precomputed feature matrix (images in
    /// the same pattern order). Lets experiments compute features once and
    /// reuse them across ablation arms.
    pub fn label_from_features(&self, features: &Matrix) -> WeakLabelOutput {
        let labels = self.labeler.predict(features);
        let probabilities = self.labeler.predict_proba(features);
        let max_similarities = (0..features.rows())
            .map(|r| FeatureGenerator::max_similarity(features, r))
            .collect();
        WeakLabelOutput {
            labels,
            probabilities,
            max_similarities,
        }
    }
}

/// The feature matrix of `images` under `generator` (built from
/// `bank_fp`): one [`ComputeFeatureShard`] run over the single shard
/// `0..n`, memoized (and, when clean, persisted) in `ctx`'s store, so a
/// second arm or a resumed sweep over the same batch reads it back.
fn batch_features(
    ctx: &RunContext,
    bank_fp: Fingerprint,
    generator: &FeatureGenerator,
    images: DevSet<'_>,
    plan: Option<&FaultPlan>,
    health: &HealthReport,
) -> Arc<Matrix> {
    let whole = ShardPlan::single(images.len()).shard(0);
    infallible(ctx.run(&mut ComputeFeatureShard::over(
        bank_fp, generator, images, whole, plan, health,
    )))
}

/// Tune (or fit fixed) and train the labeler on the dev feature matrix:
/// the training recovery ladder. If tuning fails outright, the fixed
/// `config.fixed_hidden` architecture is fitted instead, and if that fit
/// fails too, the labeler degrades to the class-prior predictor; each
/// fallback is recorded in `health`. This is a plain call, not a stage:
/// it consumes the caller's `rng`, whose position no fingerprint can see.
fn train_labeler(
    ctx: &RunContext,
    features: &Matrix,
    dev_labels: &[usize],
    num_classes: usize,
    config: &PipelineConfig,
    rng: &mut impl Rng,
    health: &HealthReport,
) -> Result<(Labeler, Option<TuningReport>)> {
    let plan = ctx.plan();
    if !config.tune {
        let labeler =
            fit_fixed_or_prior(features, dev_labels, num_classes, config, rng, plan, health)?;
        return Ok((labeler, None));
    }
    let threads = match effective_threads(config, ctx) {
        0 => default_threads(),
        n => n,
    };
    match tune_labeler_in(
        features,
        dev_labels,
        num_classes,
        &config.tuning,
        rng,
        threads,
        plan,
        Some(health),
    ) {
        Ok((labeler, report)) => Ok((labeler, Some(report))),
        Err(e) => {
            health.record(
                FaultStage::Tuning,
                FaultKind::TuningFailure,
                RecoveryAction::FallbackFixedArchitecture,
                format!(
                    "tuning failed ({e}); training fixed {:?}",
                    config.fixed_hidden
                ),
            );
            let labeler =
                fit_fixed_or_prior(features, dev_labels, num_classes, config, rng, plan, health)?;
            Ok((labeler, None))
        }
    }
}

/// Rungs 2 and 3 of the training recovery ladder: fit the fixed fallback
/// architecture; if that fails too, degrade to the class-prior labeler.
#[allow(clippy::too_many_arguments)]
fn fit_fixed_or_prior(
    features: &Matrix,
    dev_labels: &[usize],
    num_classes: usize,
    config: &PipelineConfig,
    rng: &mut impl Rng,
    plan: Option<&FaultPlan>,
    health: &HealthReport,
) -> Result<Labeler> {
    let fixed = Labeler::new(
        features.cols(),
        LabelerConfig {
            hidden: config.fixed_hidden.clone(),
            num_classes,
            l2: config.tuning.l2,
            lbfgs: config.tuning.lbfgs,
        },
        rng,
    )
    .and_then(|mut labeler| {
        labeler.fit_with_plan(features, dev_labels, plan, Some(health))?;
        Ok(labeler)
    });
    match fixed {
        Ok(labeler) => Ok(labeler),
        Err(e) => {
            health.record(
                FaultStage::Training,
                FaultKind::TrainingFailure,
                RecoveryAction::FallbackClassPrior,
                format!("fixed-architecture fit failed ({e}); using class priors"),
            );
            Labeler::class_prior(
                features.cols(),
                LabelerConfig {
                    hidden: Vec::new(),
                    num_classes,
                    l2: config.tuning.l2,
                    lbfgs: config.tuning.lbfgs,
                },
                dev_labels,
                rng,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternSource;
    use ig_faults::FaultKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A miniature fully-synthetic task: images with or without a dark
    /// square; the pattern bank contains a dark-square crop.
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
        pat.fill_rect(0, 0, 7, 1, 0.6); // context edge
        let patterns = vec![
            Pattern::crowd(pat),
            Pattern::augmented(GrayImage::filled(6, 6, 0.15), PatternSource::Policy),
        ];
        (patterns, images, labels)
    }

    #[test]
    fn pipeline_learns_synthetic_task() {
        let mut rng = StdRng::seed_from_u64(0);
        let (patterns, images, labels) = make_task(40, 1);
        let refs: Vec<&GrayImage> = images.iter().collect();
        let config = PipelineConfig {
            tune: false,
            ..Default::default()
        };
        let ig = InspectorGadget::train(patterns, &refs[..30], &labels[..30], 2, &config, &mut rng)
            .unwrap();
        let out = ig.label(&refs[30..]);
        let correct = out
            .labels
            .iter()
            .zip(&labels[30..])
            .filter(|(a, b)| a == b)
            .count();
        assert!(correct >= 8, "{correct}/10 correct");
        assert_eq!(out.probabilities.rows(), 10);
        assert_eq!(out.max_similarities.len(), 10);
    }

    #[test]
    fn pipeline_with_tuning_reports() {
        let mut rng = StdRng::seed_from_u64(2);
        let (patterns, images, labels) = make_task(50, 3);
        let refs: Vec<&GrayImage> = images.iter().collect();
        let config = PipelineConfig {
            tuning: TuningConfig {
                max_hidden_layers: 1,
                lbfgs: ig_nn::LbfgsConfig {
                    max_iters: 40,
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let ig = InspectorGadget::train(patterns, &refs, &labels, 2, &config, &mut rng).unwrap();
        let report = ig.tuning_report.as_ref().expect("tuning ran");
        assert!(!report.candidates.is_empty());
        assert!(!report.best_hidden.is_empty());
    }

    #[test]
    fn label_from_features_matches_label() {
        let mut rng = StdRng::seed_from_u64(4);
        let (patterns, images, labels) = make_task(30, 5);
        let refs: Vec<&GrayImage> = images.iter().collect();
        let config = PipelineConfig {
            tune: false,
            ..Default::default()
        };
        let ig = InspectorGadget::train(patterns, &refs, &labels, 2, &config, &mut rng).unwrap();
        let direct = ig.label(&refs);
        let features = ig.feature_generator().feature_matrix(&refs);
        let via_features = ig.label_from_features(&features);
        assert_eq!(direct.labels, via_features.labels);
    }

    #[test]
    fn prepared_dev_set_matches_raw_dev_set() {
        let (patterns, images, labels) = make_task(40, 21);
        let refs: Vec<&GrayImage> = images.iter().collect();
        let config = PipelineConfig {
            tune: false,
            ..Default::default()
        };
        let mut rng_a = StdRng::seed_from_u64(22);
        let plain = InspectorGadget::train(
            patterns.clone(),
            &refs[..30],
            &labels[..30],
            2,
            &config,
            &mut rng_a,
        )
        .unwrap();
        let prepped = plain.feature_generator().prepare_images(&refs);
        let mut rng_b = StdRng::seed_from_u64(22);
        let ctx = RunContext::new(0);
        let prepared = InspectorGadget::train_in(
            &ctx,
            patterns,
            DevSet::Prepared(&prepped[..30]),
            &labels[..30],
            2,
            &config,
            &mut rng_b,
        )
        .unwrap();
        assert_eq!(
            plain.dev_features().as_slice(),
            prepared.dev_features().as_slice(),
            "prepared training must see bit-identical dev features"
        );
        let out_a = plain.label(&refs[30..]);
        let out_b = prepared.label_in(&ctx, DevSet::Prepared(&prepped[30..]));
        assert_eq!(out_a.labels, out_b.labels);
        assert_eq!(
            out_a.probabilities.as_slice(),
            out_b.probabilities.as_slice()
        );
    }

    #[test]
    fn label_in_reports_matcher_errors_on_the_context() {
        let mut rng = StdRng::seed_from_u64(16);
        let (mut patterns, images, labels) = make_task(30, 17);
        patterns.truncate(1); // drop the constant fixture pattern
        let refs: Vec<&GrayImage> = images.iter().collect();
        let config = PipelineConfig {
            tune: false,
            ..Default::default()
        };
        let ig = InspectorGadget::train(patterns, &refs, &labels, 2, &config, &mut rng).unwrap();
        let ctx = RunContext::new(0);
        let empty = GrayImage::new(0, 0);
        let batch = [refs[0], &empty];
        let out = ig.label_in(&ctx, DevSet::Raw(&batch));
        assert_eq!(out.labels.len(), 2);
        assert!(
            ctx.health().count(FaultKind::MatchError) >= 1,
            "{}",
            ctx.health().render()
        );
    }

    #[test]
    fn clean_run_reports_clean_health() {
        let mut rng = StdRng::seed_from_u64(8);
        let (mut patterns, images, labels) = make_task(40, 9);
        // The second fixture pattern is constant by construction and
        // would (correctly) trigger a quarantine event; drop it to test
        // the genuinely clean path.
        patterns.truncate(1);
        let refs: Vec<&GrayImage> = images.iter().collect();
        let config = PipelineConfig {
            tune: false,
            ..Default::default()
        };
        let ig = InspectorGadget::train(patterns, &refs, &labels, 2, &config, &mut rng).unwrap();
        assert!(ig.health.is_clean(), "{}", ig.health.render());
    }

    #[test]
    fn empty_plan_matches_train_without_plan() {
        let (mut patterns, images, labels) = make_task(40, 11);
        patterns.truncate(1); // drop the constant fixture pattern
        let refs: Vec<&GrayImage> = images.iter().collect();
        let config = PipelineConfig {
            tune: false,
            ..Default::default()
        };
        let mut rng_a = StdRng::seed_from_u64(12);
        let plain = InspectorGadget::train(
            patterns.clone(),
            &refs[..30],
            &labels[..30],
            2,
            &config,
            &mut rng_a,
        )
        .unwrap();
        let mut rng_b = StdRng::seed_from_u64(12);
        let ctx = RunContext::new(0).with_plan(Some(FaultPlan::none(99)));
        let planned = InspectorGadget::train_in(
            &ctx,
            patterns,
            DevSet::Raw(&refs[..30]),
            &labels[..30],
            2,
            &config,
            &mut rng_b,
        )
        .unwrap();
        assert!(planned.health.is_clean());
        let out_a = plain.label(&refs[30..]);
        let out_b = planned.label(&refs[30..]);
        assert_eq!(out_a.labels, out_b.labels);
        assert_eq!(
            out_a.probabilities.as_slice(),
            out_b.probabilities.as_slice()
        );
    }

    #[test]
    fn chaos_plan_survives_and_reports() {
        let mut rng = StdRng::seed_from_u64(14);
        let (patterns, images, labels) = make_task(40, 15);
        let refs: Vec<&GrayImage> = images.iter().collect();
        let config = PipelineConfig {
            tune: false,
            threads: 4,
            ..Default::default()
        };
        let plan = ig_faults::FaultPlan {
            seed: 21,
            nan_feature_rate: 0.05,
            inf_feature_rate: 0.02,
            degenerate_pattern_rate: 0.6,
            worker_panic_rate: 0.5,
            ..ig_faults::FaultPlan::default()
        };
        let ctx = RunContext::new(0).with_plan(Some(plan));
        let ig = InspectorGadget::train_in(
            &ctx,
            patterns,
            DevSet::Raw(&refs),
            &labels,
            2,
            &config,
            &mut rng,
        )
        .unwrap();
        assert!(!ig.health.is_clean());
        let out = ig.label(&refs);
        assert!(out.probabilities.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn empty_pattern_bank_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let (_, images, labels) = make_task(10, 7);
        let refs: Vec<&GrayImage> = images.iter().collect();
        assert!(InspectorGadget::train(
            vec![],
            &refs,
            &labels,
            2,
            &PipelineConfig::default(),
            &mut rng
        )
        .is_err());
    }
}
