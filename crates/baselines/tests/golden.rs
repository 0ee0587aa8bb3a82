//! Golden fingerprints of the CNN baselines' training.
//!
//! Each fingerprint is an FNV-1a hash over the f32 bits of the trained
//! network's `predict_proba` on held-out images and the caller's next RNG
//! draw, so a change to any convolution, pooling or dense product, any
//! accumulation order, the backward pass, the Adam step or the number of
//! draws the training loop consumes moves it. The CNN's other tests check
//! shapes, finite losses and accuracy, and would not see such a change.
//!
//! Each `CnnArch` is covered under `SelfLearner::train` (with a
//! validation split, so early stopping runs), plus one
//! `transfer::pretrain` + `fine_tune`, which swaps the head through
//! `Cnn::reset_tail`.

use ig_baselines::selflearn::{SelfLearnConfig, SelfLearner};
use ig_baselines::transfer::{fine_tune, pretrain};
use ig_baselines::{images_to_tensor, CnnArch};
use ig_imaging::GrayImage;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f32s(&mut self, values: &[f32]) {
        self.u64(values.len() as u64);
        for &v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// `n` noisy images of `classes` classes: class `k > 0` carries a bright
/// stripe at a class-specific offset, vertical or horizontal. Sizes vary
/// around 20 px so the resize to the network's side does work.
fn task(n: usize, classes: usize, vertical: bool, seed: u64) -> (Vec<GrayImage>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut images = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % classes;
        let (w, h) = (rng.gen_range(18..23usize), rng.gen_range(18..23usize));
        let img = GrayImage::from_fn(w, h, |x, y| {
            let coord = if vertical { x } else { y };
            let noise = rng.gen_range(-0.06..0.06f32);
            let start = 2 + 5 * class;
            if class > 0 && (start..start + 4).contains(&coord) {
                0.9 + noise
            } else {
                0.35 + noise
            }
        });
        images.push(img);
        labels.push(class);
    }
    (images, labels)
}

fn config() -> SelfLearnConfig {
    SelfLearnConfig {
        side: 16,
        epochs: 4,
        batch: 8,
        ..SelfLearnConfig::default()
    }
}

fn fingerprint(learner: &SelfLearner, held_out: &[GrayImage], rng: &mut StdRng) -> u64 {
    let refs: Vec<&GrayImage> = held_out.iter().collect();
    let x = images_to_tensor(&refs, config().side);
    let mut h = Fnv::new();
    h.f32s(learner.cnn().predict_proba(&x).as_slice());
    h.u64(rng.gen::<u64>());
    h.0
}

fn train_fingerprint(arch: CnnArch, classes: usize, seed: u64) -> u64 {
    let (images, labels) = task(30, classes, true, seed);
    let refs: Vec<&GrayImage> = images[..24].iter().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let learner = SelfLearner::train(arch, &refs, &labels[..24], classes, &config(), &mut rng);
    fingerprint(&learner, &images[24..], &mut rng)
}

fn transfer_fingerprint(seed: u64) -> u64 {
    let (source, source_labels) = task(24, 2, true, seed);
    let (target, target_labels) = task(20, 3, false, seed + 1);
    let source_refs: Vec<&GrayImage> = source.iter().collect();
    let target_refs: Vec<&GrayImage> = target[..15].iter().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let pre = pretrain(
        CnnArch::MiniResNet,
        &source_refs,
        &source_labels,
        2,
        &config(),
        &mut rng,
    );
    let tuned = fine_tune(
        pre,
        &target_refs,
        &target_labels[..15],
        3,
        &config(),
        &mut rng,
    );
    fingerprint(&tuned, &target[15..], &mut rng)
}

/// Every fingerprint the test pins, by name, in a fixed order.
fn fingerprints() -> Vec<(&'static str, u64)> {
    vec![
        ("train MiniVgg", train_fingerprint(CnnArch::MiniVgg, 2, 31)),
        (
            "train MiniMobileNet",
            train_fingerprint(CnnArch::MiniMobileNet, 3, 32),
        ),
        (
            "train MiniResNet",
            train_fingerprint(CnnArch::MiniResNet, 2, 33),
        ),
        ("transfer MiniResNet", transfer_fingerprint(34)),
    ]
}

const GOLDEN: &[(&str, u64)] = &[
    ("train MiniVgg", 0x318b9fc087466dc0),
    ("train MiniMobileNet", 0xd103c7737470a03e),
    ("train MiniResNet", 0xf09b4e8a6e016887),
    ("transfer MiniResNet", 0xfa57a08789138ee5),
];

#[test]
fn cnn_training_matches_its_golden_fingerprints() {
    let got = fingerprints();
    let mismatches: Vec<String> = got
        .iter()
        .filter(|(name, fp)| !GOLDEN.contains(&(*name, *fp)))
        .map(|(name, fp)| format!("    (\"{name}\", 0x{fp:016x}),"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} fingerprints differ from the golden table; got:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
    assert_eq!(got.len(), GOLDEN.len(), "fingerprint count");
}
