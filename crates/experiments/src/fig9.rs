//! Figure 9: weak-label F1 vs development-set size for all six systems —
//! Inspector Gadget, Snuba, GOGGLES, self-learning VGG19 / MobileNetV2,
//! and the transfer-learning baseline.

use crate::common::{run_inspector_gadget, ExpEnv, Prepared, Report};
use crate::json::json_record;
use ig_augment::AugmentMethod;
use ig_baselines::cnn_models::CnnArch;
use ig_baselines::goggles::{Goggles, GogglesConfig};
use ig_baselines::selflearn::{SelfLearnConfig, SelfLearner};
use ig_baselines::snuba::{Snuba, SnubaConfig};
use ig_baselines::transfer::{fine_tune, pretrain};
use ig_core::ScaleTier;
use ig_eval::metrics::task_f1;
use ig_imaging::GrayImage;
use ig_synth::spec::DatasetKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

json_record! {
    struct Point {
        dataset: String,
        dev_size: usize,
        method: String,
        f1: f64,
    }
}

const METHODS: [&str; 6] = [
    "Inspector Gadget",
    "Snuba",
    "GOGGLES",
    "SL (VGG19)",
    "SL (MobileNetV2)",
    "TL (VGG19 + Pre-training)",
];

/// Run the Figure 9 reproduction.
pub fn run(env: &ExpEnv) -> ExitCode {
    let seed = env.seed();
    let scale = *env.scale();
    let mut report = Report::new("fig9", &env.out);
    report.line(format!(
        "Figure 9 (reproduction, scale={}): weak-label F1 vs dev-set size",
        scale.name()
    ));
    let cnn_config = SelfLearnConfig {
        epochs: scale.cnn_epochs,
        ..Default::default()
    };
    let fractions = [0.4f64, 0.6, 0.8, 1.0];
    let mut points: Vec<Point> = Vec::new();

    for kind in DatasetKind::all() {
        let prepared = Prepared::new(&env.ctx, kind);
        let num_classes = prepared.num_classes();
        let test = prepared.test_images();
        let test_imgs: Vec<&GrayImage> = test.iter().map(|l| &l.image).collect();
        let test_labels = prepared.test_labels();
        report.line(format!(
            "\n--- {} (dev pool {}, test {}) ---",
            kind.display_name(),
            prepared.dev_order.len(),
            test.len()
        ));
        report.line(format!(
            "{:>8} {}",
            "dev",
            METHODS
                .iter()
                .map(|m| format!("{m:>26}"))
                .collect::<String>()
        ));

        // GOGGLES: clusters the whole corpus; dev labels only name the
        // clusters, so its score is constant across dev sizes (the flat
        // dotted line in the paper's plots).
        let goggles_f1 = {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x90);
            let all_imgs: Vec<&GrayImage> =
                prepared.dataset.images.iter().map(|l| &l.image).collect();
            let dev_small =
                prepared.dev_prefix(((prepared.dev_order.len() as f64) * fractions[0]) as usize);
            let dev_pairs: Vec<(usize, usize)> = prepared
                .dev_order
                .iter()
                .take(dev_small.len())
                .map(|&i| (i, prepared.dataset.images[i].label))
                .collect();
            let goggles = Goggles::fit(
                &all_imgs,
                &dev_pairs,
                num_classes,
                &GogglesConfig::default(),
                &mut rng,
            );
            let preds = goggles.label(&test_imgs);
            task_f1(num_classes, &test_labels, &preds)
        };

        for &frac in &fractions {
            let k = ((prepared.dev_order.len() as f64) * frac).round() as usize;
            let dev = prepared.dev_prefix(k.max(6));
            let dev_size = dev.len();
            let dev_imgs: Vec<&GrayImage> = dev.iter().map(|l| &l.image).collect();
            let dev_labels: Vec<usize> = dev.iter().map(|l| l.label).collect();
            let dev_classes: std::collections::HashSet<usize> =
                dev_labels.iter().copied().collect();
            if dev_classes.len() < 2 {
                continue;
            }
            let mut scores: Vec<f64> = Vec::with_capacity(METHODS.len());

            // Inspector Gadget (tuning on except at quick scale).
            let ig_run = run_inspector_gadget(
                &env.ctx,
                &prepared,
                &dev,
                AugmentMethod::Both,
                scale.augment_budget,
                !matches!(scale.tier, ScaleTier::Quick),
                kind,
                seed ^ (dev_size as u64),
            );
            scores.push(ig_run.as_ref().map(|r| r.f1).unwrap_or(0.0));

            // Snuba on the same features.
            let snuba_f1 = ig_run
                .as_ref()
                .map(|r| {
                    let mut rng = StdRng::seed_from_u64(seed ^ 0x57 ^ dev_size as u64);
                    let snuba = Snuba::train(
                        &r.dev_features,
                        &dev_labels,
                        &r.test_features,
                        num_classes,
                        &SnubaConfig::default(),
                        &mut rng,
                    );
                    let preds = snuba.label(&r.test_features);
                    task_f1(num_classes, &test_labels, &preds)
                })
                .unwrap_or(0.0);
            scores.push(snuba_f1);

            scores.push(goggles_f1);

            // Self-learning CNNs.
            for arch in [CnnArch::MiniVgg, CnnArch::MiniMobileNet] {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x60 ^ dev_size as u64);
                let learner = SelfLearner::train(
                    arch,
                    &dev_imgs,
                    &dev_labels,
                    num_classes,
                    &cnn_config,
                    &mut rng,
                );
                let preds = learner.label(&test_imgs);
                scores.push(task_f1(num_classes, &test_labels, &preds));
            }

            // Transfer learning: SynthNet pre-training, fine-tune on dev.
            // Pre-training epochs are halved: the trunk features converge
            // quickly on the procedural corpus and this stage dominates
            // the sweep's single-core runtime.
            {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x70 ^ dev_size as u64);
                let corpus_n = match scale.tier {
                    ScaleTier::Quick => 64,
                    ScaleTier::Medium => 200,
                    ScaleTier::Paper | ScaleTier::Ooc => 640,
                };
                let synthnet = ig_synth::synthnet::generate(corpus_n, 32, seed ^ 0x71);
                let src_imgs: Vec<&GrayImage> = synthnet.images.iter().map(|l| &l.image).collect();
                let src_labels = synthnet.labels();
                let pretrain_config = ig_baselines::selflearn::SelfLearnConfig {
                    epochs: (cnn_config.epochs / 2).max(3),
                    ..cnn_config
                };
                let pre = pretrain(
                    CnnArch::MiniVgg,
                    &src_imgs,
                    &src_labels,
                    synthnet.task.num_classes(),
                    &pretrain_config,
                    &mut rng,
                );
                let tuned = fine_tune(
                    pre,
                    &dev_imgs,
                    &dev_labels,
                    num_classes,
                    &cnn_config,
                    &mut rng,
                );
                let preds = tuned.label(&test_imgs);
                scores.push(task_f1(num_classes, &test_labels, &preds));
            }

            report.line(format!(
                "{:>8} {}",
                dev_size,
                scores
                    .iter()
                    .map(|s| format!("{s:>26.3}"))
                    .collect::<String>()
            ));
            for (m, &s) in METHODS.iter().zip(&scores) {
                points.push(Point {
                    dataset: kind.display_name().to_string(),
                    dev_size,
                    method: m.to_string(),
                    f1: s,
                });
            }
        }
    }

    // Shape check: among non-pre-trained methods, IG is best or
    // second-best per dataset at the largest dev size.
    let mut top2 = 0usize;
    let mut total = 0usize;
    for kind in DatasetKind::all() {
        let name = kind.display_name();
        let max_dev = points
            .iter()
            .filter(|p| p.dataset == name)
            .map(|p| p.dev_size)
            .max();
        let Some(max_dev) = max_dev else { continue };
        let mut finals: Vec<(&str, f64)> = METHODS[..5] // exclude TL (pre-trained)
            .iter()
            .filter_map(|m| {
                points
                    .iter()
                    .find(|p| p.dataset == name && p.dev_size == max_dev && p.method == *m)
                    .map(|p| (*m, p.f1))
            })
            .collect();
        finals.sort_by(|a, b| b.1.total_cmp(&a.1));
        let rank = finals
            .iter()
            .position(|(m, _)| *m == "Inspector Gadget")
            .unwrap_or(usize::MAX);
        if rank < 2 {
            top2 += 1;
        }
        total += 1;
    }
    report.line(format!(
        "\nIG is best or second-best among non-pre-trained methods on {top2}/{total} datasets \
         (paper: on all five)"
    ));
    report.finish(&points);
    ExitCode::SUCCESS
}
