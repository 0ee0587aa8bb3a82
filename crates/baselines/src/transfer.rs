//! Transfer-learning baseline (Tables 2 and Figure 9's "TL" series).
//!
//! Pre-train a CNN on a source corpus, swap the classification head, then
//! fine-tune everything on the target development set. Table 2 compares
//! pre-training sources: the other defect datasets vs a generic corpus
//! (ImageNet in the paper, SynthNet here).

use crate::cnn_models::CnnArch;
use crate::selflearn::{fit_cnn, SelfLearnConfig, SelfLearner};
use ig_imaging::GrayImage;
use rand::Rng;

/// Pre-train `arch` on a source corpus; returns the trained learner
/// (which can be fine-tuned or used directly).
pub fn pretrain(
    arch: CnnArch,
    source_images: &[&GrayImage],
    source_labels: &[usize],
    source_classes: usize,
    config: &SelfLearnConfig,
    rng: &mut impl Rng,
) -> SelfLearner {
    SelfLearner::train(
        arch,
        source_images,
        source_labels,
        source_classes,
        config,
        rng,
    )
}

/// Fine-tune a pre-trained learner on a target task: reinitialize the
/// dense head for `target_classes` and continue training on the target
/// development set (all layers update — matching the paper's fine-tuning
/// of pre-trained VGG-19).
pub fn fine_tune(
    mut learner: SelfLearner,
    target_images: &[&GrayImage],
    target_labels: &[usize],
    target_classes: usize,
    config: &SelfLearnConfig,
    rng: &mut impl Rng,
) -> SelfLearner {
    let arch = learner.arch();
    let head_in = arch.head_features();
    {
        let cnn = learner.cnn_mut();
        let lr = config.lr;
        cnn.reset_tail(1, || {
            vec![Box::new(ig_nn::conv::DenseLayer::new(
                head_in,
                target_classes,
                lr,
                rng,
            )) as Box<dyn ig_nn::conv::Layer>]
        });
        cnn.set_num_classes(target_classes);
        fit_cnn(cnn, target_images, target_labels, config, rng);
    }
    learner
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn striped_task(n: usize, seed: u64, vertical: bool) -> (Vec<GrayImage>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let has_stripe = i % 2 == 1;
            let img = GrayImage::from_fn(16, 16, |x, y| {
                let coord = if vertical { x } else { y };
                let noise = rng.gen_range(-0.05..0.05f32);
                if has_stripe && (6..10).contains(&coord) {
                    0.9 + noise
                } else {
                    0.4 + noise
                }
            });
            images.push(img);
            labels.push(usize::from(has_stripe));
        }
        (images, labels)
    }

    #[test]
    fn fine_tuned_model_has_target_head() {
        let mut rng = StdRng::seed_from_u64(0);
        let (src_images, src_labels) = striped_task(20, 1, true);
        let src_refs: Vec<&GrayImage> = src_images.iter().collect();
        let config = SelfLearnConfig {
            side: 16,
            epochs: 3,
            ..Default::default()
        };
        let learner = pretrain(
            CnnArch::MiniVgg,
            &src_refs,
            &src_labels,
            2,
            &config,
            &mut rng,
        );
        let (tgt_images, tgt_labels) = striped_task(16, 2, false);
        let tgt_refs: Vec<&GrayImage> = tgt_images.iter().collect();
        // Target task has 3 classes (artificial) to prove head swap works.
        let tgt3: Vec<usize> = tgt_labels.iter().map(|&l| l + 1).collect();
        let tuned = fine_tune(learner, &tgt_refs, &tgt3, 4, &config, &mut rng);
        let preds = tuned.label(&tgt_refs);
        assert!(preds.iter().all(|&p| p < 4));
    }

    #[test]
    fn transfer_helps_on_related_task() {
        // Pre-train on a big vertical-stripe task, fine-tune on a tiny
        // vertical-stripe dev set; compare to training from scratch on
        // the same tiny set. Transfer should be at least as good on
        // average across seeds.
        let config = SelfLearnConfig {
            side: 16,
            epochs: 8,
            ..Default::default()
        };
        let mut transfer_correct = 0usize;
        let mut scratch_correct = 0usize;
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (src_images, src_labels) = striped_task(60, 10 + seed, true);
            let src_refs: Vec<&GrayImage> = src_images.iter().collect();
            let (dev_images, dev_labels) = striped_task(8, 20 + seed, true);
            let dev_refs: Vec<&GrayImage> = dev_images.iter().collect();
            let (test_images, test_labels) = striped_task(30, 30 + seed, true);
            let test_refs: Vec<&GrayImage> = test_images.iter().collect();

            let pre = pretrain(
                CnnArch::MiniVgg,
                &src_refs,
                &src_labels,
                2,
                &config,
                &mut rng,
            );
            let tuned = fine_tune(pre, &dev_refs, &dev_labels, 2, &config, &mut rng);
            transfer_correct += tuned
                .label(&test_refs)
                .iter()
                .zip(&test_labels)
                .filter(|(a, b)| a == b)
                .count();

            let scratch = SelfLearner::train(
                CnnArch::MiniVgg,
                &dev_refs,
                &dev_labels,
                2,
                &config,
                &mut rng,
            );
            scratch_correct += scratch
                .label(&test_refs)
                .iter()
                .zip(&test_labels)
                .filter(|(a, b)| a == b)
                .count();
        }
        assert!(
            transfer_correct + 5 >= scratch_correct,
            "transfer {transfer_correct} vs scratch {scratch_correct}"
        );
    }
}
