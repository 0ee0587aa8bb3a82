//! Self-learning CNN baselines (Section 6.1).
//!
//! "\[W\]e compare Inspector Gadget with self-learning baselines that train
//! CNN models on the development set using cross validation and use them
//! to label the rest of the images." No pre-training.

use crate::cnn_models::{images_to_tensor, CnnArch};
use ig_imaging::GrayImage;
use ig_nn::conv::{Cnn, Tensor4};
use ig_nn::train::EarlyStopping;
use rand::seq::SliceRandom;
use rand::Rng;

/// A self-learning baseline wrapping one CNN architecture.
#[derive(Debug)]
pub struct SelfLearner {
    cnn: Cnn,
    side: usize,
    arch: CnnArch,
}

/// Training hyper-parameters for the CNN baselines.
#[derive(Debug, Clone, Copy)]
pub struct SelfLearnConfig {
    /// Input resolution.
    pub side: usize,
    /// Max epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Early-stopping patience (on a 20% validation split).
    pub patience: usize,
}

impl Default for SelfLearnConfig {
    fn default() -> Self {
        Self {
            side: 24,
            epochs: 30,
            batch: 16,
            lr: 0.01,
            patience: 5,
        }
    }
}

impl SelfLearner {
    /// Train `arch` on the development set.
    pub fn train(
        arch: CnnArch,
        dev_images: &[&GrayImage],
        dev_labels: &[usize],
        num_classes: usize,
        config: &SelfLearnConfig,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(!dev_images.is_empty(), "empty development set");
        let mut cnn = arch.build(num_classes, config.lr, rng);
        fit_cnn(&mut cnn, dev_images, dev_labels, config, rng);
        Self {
            cnn,
            side: config.side,
            arch,
        }
    }

    /// The wrapped architecture.
    pub fn arch(&self) -> CnnArch {
        self.arch
    }

    /// Mutable access to the inner CNN (fine-tuning).
    pub fn cnn_mut(&mut self) -> &mut Cnn {
        &mut self.cnn
    }

    /// The inner CNN, for callers that only run it.
    pub fn cnn(&self) -> &Cnn {
        &self.cnn
    }

    /// Label a batch of images.
    pub fn label(&self, images: &[&GrayImage]) -> Vec<usize> {
        if images.is_empty() {
            return Vec::new();
        }
        // Predict in chunks to bound memory.
        let mut out = Vec::with_capacity(images.len());
        for chunk in images.chunks(64) {
            let tensor = images_to_tensor(chunk, self.side);
            out.extend(self.cnn.predict(&tensor));
        }
        out
    }
}

/// The shared CNN training loop: minibatch Adam with a 20% early-stopping
/// holdout when the set is large enough. Used by both the self-learning
/// and transfer-learning (fine-tune phase) baselines.
pub fn fit_cnn(
    cnn: &mut Cnn,
    images: &[&GrayImage],
    labels: &[usize],
    config: &SelfLearnConfig,
    rng: &mut impl Rng,
) {
    assert_eq!(images.len(), labels.len(), "label count mismatch");
    if images.is_empty() {
        return;
    }
    let tensor = images_to_tensor(images, config.side);
    let n = images.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let n_val = if n >= 10 { n / 5 } else { 0 };
    let (val_idx, train_idx) = order.split_at(n_val);

    // The validation split never changes, so it is copied out once.
    let val = (!val_idx.is_empty()).then(|| {
        let val_labels: Vec<usize> = val_idx.iter().map(|&i| labels[i]).collect();
        (select_tensor(&tensor, val_idx, config.side), val_labels)
    });
    let mut stopper = EarlyStopping::new(config.patience, 1e-4);
    let mut train_order: Vec<usize> = train_idx.to_vec();
    for _epoch in 0..config.epochs {
        train_order.shuffle(rng);
        for chunk in train_order.chunks(config.batch.max(1)) {
            let batch = select_tensor(&tensor, chunk, config.side);
            let batch_labels: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
            cnn.train_batch(&batch, &batch_labels);
        }
        if let Some((val, val_labels)) = &val {
            let loss = validation_loss(cnn, val, val_labels);
            if stopper.observe(loss) {
                break;
            }
        }
    }
}

fn select_tensor(full: &Tensor4, indices: &[usize], side: usize) -> Tensor4 {
    let mut out = Tensor4::zeros(indices.len(), 1, side, side);
    let stride = side * side;
    for (j, &i) in indices.iter().enumerate() {
        out.as_mut_slice()[j * stride..(j + 1) * stride]
            .copy_from_slice(&full.as_slice()[i * stride..(i + 1) * stride]);
    }
    out
}

fn validation_loss(cnn: &Cnn, x: &Tensor4, labels: &[usize]) -> f32 {
    let probs = cnn.predict_proba(x);
    let mut loss = 0.0f32;
    for (r, &c) in labels.iter().enumerate() {
        loss += -(probs.get(r, c).max(1e-12)).ln();
    }
    loss / labels.len().max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use ig_eval::metrics::task_f1;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bright_dark_task(n: usize, seed: u64) -> (Vec<GrayImage>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let bright = i % 2 == 0;
            // Distinguish by *pattern*, not mean (standardization kills
            // mean differences): class 1 has a strong vertical stripe.
            let img = GrayImage::from_fn(20, 20, |x, _| {
                let noise = rng.gen_range(-0.05..0.05f32);
                if bright && (8..12).contains(&x) {
                    0.9 + noise
                } else {
                    0.4 + noise
                }
            });
            images.push(img);
            labels.push(usize::from(bright));
        }
        (images, labels)
    }

    #[test]
    fn self_learner_learns_simple_task() {
        let mut rng = StdRng::seed_from_u64(0);
        let (images, labels) = bright_dark_task(40, 1);
        let refs: Vec<&GrayImage> = images.iter().collect();
        let config = SelfLearnConfig {
            side: 16,
            epochs: 20,
            ..Default::default()
        };
        let learner = SelfLearner::train(
            CnnArch::MiniVgg,
            &refs[..30],
            &labels[..30],
            2,
            &config,
            &mut rng,
        );
        let preds = learner.label(&refs[30..]);
        let correct = preds
            .iter()
            .zip(&labels[30..])
            .filter(|(a, b)| a == b)
            .count();
        assert!(correct >= 8, "{correct}/10 correct");
    }

    #[test]
    fn tiny_dev_set_trains_without_validation_split() {
        let mut rng = StdRng::seed_from_u64(2);
        let (images, labels) = bright_dark_task(6, 3);
        let refs: Vec<&GrayImage> = images.iter().collect();
        let config = SelfLearnConfig {
            side: 12,
            epochs: 3,
            ..Default::default()
        };
        let learner =
            SelfLearner::train(CnnArch::MiniMobileNet, &refs, &labels, 2, &config, &mut rng);
        assert_eq!(learner.label(&refs).len(), 6);
    }

    #[test]
    fn empty_label_batch() {
        let mut rng = StdRng::seed_from_u64(4);
        let (images, labels) = bright_dark_task(8, 5);
        let refs: Vec<&GrayImage> = images.iter().collect();
        let config = SelfLearnConfig {
            side: 12,
            epochs: 2,
            ..Default::default()
        };
        let learner = SelfLearner::train(CnnArch::MiniResNet, &refs, &labels, 2, &config, &mut rng);
        assert!(learner.label(&[]).is_empty());
    }

    #[test]
    fn more_training_data_helps_the_end_model() {
        // The Table 5 mechanism in miniature: a model trained on dev+weak
        // (larger, slightly noisy) beats the tiny-dev model.
        let make = |n: usize, seed: u64| -> (Vec<GrayImage>, Vec<usize>) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut images = Vec::new();
            let mut labels = Vec::new();
            for i in 0..n {
                let pos = i % 2 == 1;
                let img = GrayImage::from_fn(16, 16, |x, _| {
                    let noise = rng.gen_range(-0.08..0.08f32);
                    if pos && (5..11).contains(&x) {
                        0.85 + noise
                    } else {
                        0.4 + noise
                    }
                });
                images.push(img);
                labels.push(usize::from(pos));
            }
            (images, labels)
        };
        let config = SelfLearnConfig {
            side: 16,
            epochs: 10,
            ..Default::default()
        };
        let (test_images, test_labels) = make(40, 99);
        let test_refs: Vec<&GrayImage> = test_images.iter().collect();
        let score = |images: &[&GrayImage], labels: &[usize], rng: &mut StdRng| {
            let learner = SelfLearner::train(CnnArch::MiniVgg, images, labels, 2, &config, rng);
            task_f1(2, &test_labels, &learner.label(&test_refs))
        };

        let mut small_total = 0.0;
        let mut big_total = 0.0;
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (small_images, small_labels) = make(6, 10 + seed);
            let small_refs: Vec<&GrayImage> = small_images.iter().collect();
            small_total += score(&small_refs, &small_labels, &mut rng);
            let (big_images, mut big_labels) = make(60, 20 + seed);
            // Corrupt 10% of the big set's labels to mimic weak labels.
            for l in big_labels.iter_mut().step_by(10) {
                *l = 1 - *l;
            }
            let big_refs: Vec<&GrayImage> = big_images.iter().collect();
            big_total += score(&big_refs, &big_labels, &mut rng);
        }
        assert!(
            big_total >= small_total,
            "dev+weak {big_total:.3} vs dev-only {small_total:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "empty development set")]
    fn empty_dev_set_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let _ = SelfLearner::train(
            CnnArch::MiniVgg,
            &[],
            &[],
            2,
            &SelfLearnConfig::default(),
            &mut rng,
        );
    }
}
