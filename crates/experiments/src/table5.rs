//! Table 5: end-model accuracy — a CNN trained on the development set
//! alone vs the development set plus Inspector Gadget's weak labels, with
//! the "tipping point" (how much more gold data dev-only needs to catch
//! up).

use crate::common::{run_inspector_gadget, ExpEnv, Prepared, Report};
use crate::json::json_record;
use ig_augment::AugmentMethod;
use ig_baselines::cnn_models::CnnArch;
use ig_baselines::selflearn::{SelfLearnConfig, SelfLearner};
use ig_eval::metrics::task_f1;
use ig_imaging::GrayImage;
use ig_synth::spec::DatasetKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

json_record! {
    struct Row {
        dataset: String,
        end_model: String,
        dev_only_f1: f64,
        weak_label_f1: f64,
        tipping_point: Option<f64>,
    }
}

/// Run the Table 5 reproduction.
pub fn run(env: &ExpEnv) -> ExitCode {
    let seed = env.seed();
    let mut report = Report::new("table5", &env.out);
    report.line(format!(
        "Table 5 (reproduction, scale={}): end models on dev-only vs dev+weak labels",
        env.scale.name()
    ));
    report.line(format!(
        "{:<22} {:<12} {:>9} {:>9} {:>9}",
        "Dataset", "End Model", "Dev. Set", "WL (IG)", "Tip.Pnt"
    ));
    let config = SelfLearnConfig {
        epochs: env.scale.cnn_epochs(),
        ..Default::default()
    };
    let mut rows = Vec::new();
    for kind in DatasetKind::all() {
        let arch = if matches!(kind, DatasetKind::Neu) {
            CnnArch::MiniResNet
        } else {
            CnnArch::MiniVgg
        };
        let prepared = Prepared::new(&env.ctx, env.scale, kind);
        let dev = prepared.dev_images();
        let num_classes = prepared.num_classes();
        // Split the held-out pool into a weak-label pool and a final test
        // half so the end models are scored on data neither saw.
        let test = prepared.test_images();
        let half = test.len() / 2;
        let (weak_pool, final_test) = test.split_at(half);
        let final_labels: Vec<usize> = prepared.test_labels()[half..].to_vec();
        let final_imgs: Vec<&GrayImage> = final_test.iter().map(|l| &l.image).collect();

        // 1. IG weak labels for the weak pool.
        let ig_run = run_inspector_gadget(
            env,
            &prepared,
            &dev,
            AugmentMethod::Both,
            env.scale.augment_budget(),
            false,
            kind,
            seed,
        );
        let Some(ig_run) = ig_run else {
            report.line(format!(
                "{:<22} (skipped: no patterns)",
                kind.display_name()
            ));
            continue;
        };
        let weak_labels: Vec<usize> = ig_run.weak_labels[..half].to_vec();

        let dev_imgs: Vec<&GrayImage> = dev.iter().map(|l| &l.image).collect();
        let dev_labels: Vec<usize> = dev.iter().map(|l| l.label).collect();

        // 2. Dev-only end model.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x55);
        let dev_only =
            SelfLearner::train(arch, &dev_imgs, &dev_labels, num_classes, &config, &mut rng);
        let dev_only_f1 = task_f1(num_classes, &final_labels, &dev_only.label(&final_imgs));

        // 3. Dev + weak-labels end model.
        let mut train_imgs = dev_imgs.clone();
        let mut train_labels = dev_labels.clone();
        for (img, &wl) in weak_pool.iter().zip(&weak_labels) {
            train_imgs.push(&img.image);
            train_labels.push(wl);
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x66);
        let with_weak = SelfLearner::train(
            arch,
            &train_imgs,
            &train_labels,
            num_classes,
            &config,
            &mut rng,
        );
        let weak_f1 = task_f1(num_classes, &final_labels, &with_weak.label(&final_imgs));

        // 4. Tipping point: grow a *gold*-labeled training set (dev plus
        // gold-labeled samples from the weak pool) until it matches the
        // weak-label model.
        let mut tipping = None;
        for multiplier in [2.0f64, 3.0, 4.0, 6.0, 8.0] {
            let extra = ((multiplier - 1.0) * dev.len() as f64) as usize;
            if extra > weak_pool.len() {
                break;
            }
            let mut gold_imgs = dev_imgs.clone();
            let mut gold_labels = dev_labels.clone();
            for img in weak_pool.iter().take(extra) {
                gold_imgs.push(&img.image);
                gold_labels.push(img.label);
            }
            let mut rng = StdRng::seed_from_u64(seed ^ 0x77 ^ (multiplier as u64));
            let grown = SelfLearner::train(
                arch,
                &gold_imgs,
                &gold_labels,
                num_classes,
                &config,
                &mut rng,
            );
            let grown_f1 = task_f1(num_classes, &final_labels, &grown.label(&final_imgs));
            if grown_f1 >= weak_f1 {
                tipping = Some(multiplier);
                break;
            }
        }

        report.line(format!(
            "{:<22} {:<12} {:>9.3} {:>9.3} {:>9}",
            kind.display_name(),
            arch.display_name(),
            dev_only_f1,
            weak_f1,
            tipping
                .map(|t| format!("x{t:.1}"))
                .unwrap_or_else(|| ">x8".to_string())
        ));
        rows.push(Row {
            dataset: kind.display_name().to_string(),
            end_model: arch.display_name().to_string(),
            dev_only_f1,
            weak_label_f1: weak_f1,
            tipping_point: tipping,
        });
    }
    let improved = rows
        .iter()
        .filter(|r| r.weak_label_f1 >= r.dev_only_f1)
        .count();
    report.line(format!(
        "Weak labels improve the end model on {improved}/{} datasets \
         (paper: improvements of 0.02–0.36 on all five)",
        rows.len()
    ));
    report.finish(&rows);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::ToJson;

    /// A row renders byte for byte as in `results/table5.json`; a
    /// non-finite F1 renders as `null`.
    #[test]
    fn rows_render_in_the_results_layout() {
        let row = |dataset: &str, dev_only_f1, weak_label_f1, tipping_point| Row {
            dataset: dataset.to_string(),
            end_model: "VGG19".to_string(),
            dev_only_f1,
            weak_label_f1,
            tipping_point,
        };
        let rows = [
            row("KSDD", 0.8235294117647058, 0.0, Some(2.0)),
            row("Product (bubble)", 0.0, f64::NAN, None),
        ];
        let want = r#"[
  {
    "dataset": "KSDD",
    "end_model": "VGG19",
    "dev_only_f1": 0.8235294117647058,
    "weak_label_f1": 0.0,
    "tipping_point": 2.0
  },
  {
    "dataset": "Product (bubble)",
    "end_model": "VGG19",
    "dev_only_f1": 0.0,
    "weak_label_f1": null,
    "tipping_point": null
  }
]"#;
        assert_eq!(rows.to_json().pretty(), want);
    }
}
