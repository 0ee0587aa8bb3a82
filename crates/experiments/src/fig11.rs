//! Figure 11: model-tuning effectiveness — for each dataset, the min and
//! max test-set F1 over the whole MLP architecture grid, and the F1 of
//! the architecture Inspector Gadget's tuner actually picked using only
//! the development set.

use crate::common::{
    crowd_patterns, default_policies, feature_generator, gan_config, ExpEnv, Prepared, Report,
};
use crate::json::json_record;
use ig_augment::{augment, AugmentMethod};
use ig_core::labeler::{Labeler, LabelerConfig};
use ig_core::tuning::{candidate_architectures, tune_labeler_with_health, TuningConfig};
use ig_crowd::CrowdWorkflow;
use ig_eval::metrics::task_f1;
use ig_nn::lbfgs::LbfgsConfig;
use ig_synth::spec::DatasetKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

json_record! {
    struct Row {
        dataset: String,
        min_f1: f64,
        max_f1: f64,
        tuned_f1: f64,
        tuned_hidden: Vec<usize>,
    }
}

/// Run the Figure 11 reproduction.
pub fn run(env: &ExpEnv) -> ExitCode {
    let seed = env.seed();
    let mut report = Report::new("fig11", &env.out);
    report.line(format!(
        "Figure 11 (reproduction, scale={}): F1 range over MLP architectures vs our tuning",
        env.scale().name()
    ));
    report.line(format!(
        "{:<22} {:>8} {:>8} {:>12}  {}",
        "Dataset", "Min", "Max", "Our tuning", "chosen hidden layers"
    ));
    let tuning = TuningConfig {
        lbfgs: LbfgsConfig {
            max_iters: 80,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut rows = Vec::new();
    for kind in DatasetKind::all() {
        let prepared = Prepared::new(&env.ctx, kind);
        let dev = prepared.dev_images();
        let num_classes = prepared.num_classes();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xf11a);
        let base = crowd_patterns(&dev, &CrowdWorkflow::full(), seed ^ 0xf11b);
        if base.is_empty() {
            report.line(format!(
                "{:<22} (skipped: no patterns)",
                kind.display_name()
            ));
            continue;
        }
        let patterns = augment(
            &base,
            AugmentMethod::Both,
            env.scale().augment_budget,
            &default_policies(kind),
            &gan_config(env.scale()),
            &mut rng,
        );
        let Some(fg) = feature_generator(&patterns) else {
            continue;
        };
        let dev_labels: Vec<usize> = dev.iter().map(|l| l.label).collect();
        let dev_images: Vec<&ig_imaging::GrayImage> = dev.iter().map(|l| &l.image).collect();
        let dev_features = fg.feature_matrix(&dev_images);
        let test_labels = prepared.test_labels();
        let test_features = fg.feature_matrix(&prepared.test_batch());

        // Evaluate every candidate architecture directly on the test set
        // (the oracle bounds: "maximum and minimum possible F1 scores").
        let mut min_f1 = f64::INFINITY;
        let mut max_f1 = f64::NEG_INFINITY;
        for hidden in candidate_architectures(dev_features.cols(), tuning.max_hidden_layers) {
            let mut labeler = match Labeler::new(
                dev_features.cols(),
                LabelerConfig {
                    hidden: hidden.clone(),
                    num_classes,
                    l2: tuning.l2,
                    lbfgs: tuning.lbfgs,
                },
                &mut rng,
            ) {
                Ok(l) => l,
                Err(_) => continue,
            };
            if labeler.fit(&dev_features, &dev_labels).is_err() {
                continue;
            }
            let preds = labeler.predict(&test_features);
            let score = task_f1(num_classes, &test_labels, &preds);
            min_f1 = min_f1.min(score);
            max_f1 = max_f1.max(score);
        }

        // Our tuning: choose by dev-set CV only, then score on test.
        let mut rng2 = StdRng::seed_from_u64(seed ^ 0xf11c);
        let (tuned, tuning_report) = match tune_labeler_with_health(
            &dev_features,
            &dev_labels,
            num_classes,
            &tuning,
            &mut rng2,
            None,
        ) {
            Ok(v) => v,
            Err(e) => {
                report.line(format!("{:<22} (tuning failed: {e})", kind.display_name()));
                continue;
            }
        };
        let tuned_f1 = task_f1(num_classes, &test_labels, &tuned.predict(&test_features));

        report.line(format!(
            "{:<22} {:>8.3} {:>8.3} {:>12.3}  {:?}",
            kind.display_name(),
            min_f1,
            max_f1,
            tuned_f1,
            tuning_report.best_hidden
        ));
        rows.push(Row {
            dataset: kind.display_name().to_string(),
            min_f1,
            max_f1,
            tuned_f1,
            tuned_hidden: tuning_report.best_hidden,
        });
    }
    let near_max = rows
        .iter()
        .filter(|r| r.tuned_f1 >= r.max_f1 - 0.5 * (r.max_f1 - r.min_f1).max(1e-9))
        .count();
    report.line(format!(
        "Tuning lands in the upper half of the min–max range on {near_max}/{} datasets \
         (paper: tuning gets close to the maximum)",
        rows.len()
    ));
    report.finish(&rows);
    ExitCode::SUCCESS
}
