//! The paper's motivating scenario (Figure 1): a smart factory labels
//! product-quality images at scale. This example runs the *entire* stack —
//! crowd annotation, both augmentation methods, labeler tuning, weak
//! labeling, and an end CNN trained on dev + weak labels — and prints a
//! summary at every stage.
//!
//! ```text
//! cargo run --release --example smart_factory
//! ```

use inspector_gadget::augment::gan::RganConfig;
use inspector_gadget::baselines::cnn_models::CnnArch;
use inspector_gadget::baselines::selflearn::{SelfLearnConfig, SelfLearner};
use inspector_gadget::eval::metrics::task_f1;
use inspector_gadget::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2020);

    // ---- The factory's image stream -------------------------------------
    let spec = DatasetSpec {
        n: 120,
        n_defective: 30,
        ..DatasetSpec::quick(DatasetKind::ProductScratch, 2020)
    };
    let dataset = inspector_gadget::synth::generate(&spec);
    println!(
        "[factory] {} product images / {} defective / {}x{} px",
        dataset.len(),
        dataset.num_defective(),
        dataset.image_dims().0,
        dataset.image_dims().1
    );

    // ---- Crowdsourcing workflow (Section 3) ------------------------------
    let dev_indices = sample_dev_set(&dataset, 10, &mut rng);
    let dev: Vec<&LabeledImage> = dev_indices.iter().map(|&i| &dataset.images[i]).collect();
    println!(
        "[crowd] annotated {} images to reach 10 defective ones",
        dev.len()
    );
    let crowd_out = CrowdWorkflow::full().run(&dev, &mut rng);
    println!(
        "[crowd] {} raw boxes -> {} combined patterns ({} outliers peer-reviewed)",
        crowd_out.raw_box_count,
        crowd_out.patterns.len(),
        crowd_out.outlier_count
    );

    // ---- Pattern augmentation (Section 4) --------------------------------
    let policies = vec![
        Policy {
            op: PolicyOp::Rotate,
            magnitude: 8.0,
        },
        Policy {
            op: PolicyOp::ResizeX,
            magnitude: 1.5,
        },
        Policy {
            op: PolicyOp::Brightness,
            magnitude: 0.9,
        },
    ];
    let all_patterns = augment(
        &crowd_out.patterns,
        AugmentMethod::Both,
        40,
        &policies,
        &RganConfig::quick(),
        &mut rng,
    );
    println!(
        "[augment] {} crowd patterns -> {} after policy + RGAN augmentation",
        crowd_out.patterns.len(),
        all_patterns.len()
    );

    // ---- Weak label generation (Section 5) -------------------------------
    let patterns = Pattern::wrap_all(all_patterns, PatternSource::Crowd);
    let dev_images: Vec<&GrayImage> = dev.iter().map(|l| &l.image).collect();
    let dev_labels: Vec<usize> = dev.iter().map(|l| l.label).collect();
    let ig = InspectorGadget::train(
        patterns,
        &dev_images,
        &dev_labels,
        2,
        &PipelineConfig::default(), // tuning on
        &mut rng,
    )
    .expect("pipeline trains");
    if let Some(report) = &ig.tuning_report {
        println!(
            "[labeler] tuned MLP architecture {:?} (cv F1 {:.3}, {} candidates, {} folds)",
            report.best_hidden,
            report.best_cv_f1,
            report.candidates.len(),
            report.folds
        );
    }

    let rest: Vec<&LabeledImage> = dataset
        .images
        .iter()
        .enumerate()
        .filter(|(i, _)| !dev_indices.contains(i))
        .map(|(_, img)| img)
        .collect();
    let rest_images: Vec<&GrayImage> = rest.iter().map(|l| &l.image).collect();
    let weak = ig.label(&rest_images);
    let gold: Vec<usize> = rest.iter().map(|l| l.label).collect();
    println!(
        "[weak labels] F1 = {:.3} over {} images",
        task_f1(2, &gold, &weak.labels),
        rest.len()
    );

    // ---- End model (Section 6.6) ------------------------------------------
    // Score on the second half; weak labels from the first half join dev.
    let half = rest.len() / 2;
    let cnn_config = SelfLearnConfig {
        epochs: 12,
        ..Default::default()
    };
    let test_imgs: Vec<&GrayImage> = rest_images[half..].to_vec();
    let test_gold: Vec<usize> = gold[half..].to_vec();
    let end_model_f1 = |images: &[&GrayImage], labels: &[usize], rng: &mut StdRng| {
        let model = SelfLearner::train(CnnArch::MiniVgg, images, labels, 2, &cnn_config, rng);
        task_f1(2, &test_gold, &model.label(&test_imgs))
    };

    let dev_only = end_model_f1(&dev_images, &dev_labels, &mut rng);
    let mut train_imgs = dev_images.clone();
    let mut train_labels = dev_labels.clone();
    for (img, &wl) in rest_images[..half].iter().zip(&weak.labels[..half]) {
        train_imgs.push(img);
        train_labels.push(wl);
    }
    let with_weak = end_model_f1(&train_imgs, &train_labels, &mut rng);
    println!(
        "[end model] MiniVGG F1: dev-only {dev_only:.3} vs dev+weak {with_weak:.3} \
         (the Table 5 comparison)"
    );
}
