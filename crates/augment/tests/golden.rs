//! Golden fingerprints of RGAN training and of the combined augmentation
//! arm.
//!
//! Each fingerprint is an FNV-1a hash over the f32 bits of the trained
//! generator's and discriminator's parameters, the two final losses, the
//! patterns `generate` samples afterwards and the caller's next RNG draw,
//! so a change to any product, any accumulation order or the number of
//! draws the training loop consumes moves it. They were recorded before
//! ig-nn's matrix products moved onto the tiled kernel and pin that kernel
//! (and any later one) to the old loops' bits. The GAN's other tests are
//! statistical and would not see such a change.
//!
//! Three configurations are covered: `RganConfig::quick()`, one shaped
//! like the perfbench workloads' GAN (side 12, latent 100, hidden 64,
//! 40 patterns, 120 epochs), and the quick one with a `GanFault::Diverge`
//! injected at epoch 5, which pins the NaN-and-rollback path.

use ig_augment::gan::{Rgan, RganConfig};
use ig_augment::policy::{Policy, PolicyOp};
use ig_augment::{augment_with_health, AugmentMethod};
use ig_faults::{FaultKind, FaultPlan, GanFault, HealthReport};
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

    fn f32(&mut self, v: f32) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    fn f32s(&mut self, values: &[f32]) {
        self.u64(values.len() as u64);
        for &v in values {
            self.f32(v);
        }
    }

    fn images(&mut self, images: &[GrayImage]) {
        self.u64(images.len() as u64);
        for img in images {
            self.u64(img.width() as u64);
            self.u64(img.height() as u64);
            self.f32s(img.pixels());
        }
    }
}

/// Dark strokes on a bright ground, 9–18 px on a side, so the resize to
/// the GAN's square and back both do work.
fn patterns(n: usize, seed: u64) -> Vec<GrayImage> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let w = rng.gen_range(9..19usize);
            let h = rng.gen_range(9..19usize);
            let mut img = GrayImage::filled(w, h, rng.gen_range(0.6..0.9f32));
            let (x0, y0) = (rng.gen_range(0.0..3.0f32), rng.gen_range(0.0..3.0f32));
            let (x1, y1) = (w as f32 - rng.gen_range(1.0..4.0f32), h as f32 - 2.0);
            img.draw_line(x0, y0, x1, y1, rng.gen_range(1.0..2.5f32), 0.15);
            img
        })
        .collect()
}

fn policies() -> Vec<Policy> {
    vec![
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
    ]
}

/// The perfbench workloads' GAN: side 12, latent 100, hidden 64, batch 16.
fn perfbench_shaped() -> RganConfig {
    RganConfig {
        epochs: 120,
        pattern_side: 12,
        ..RganConfig::default()
    }
}

fn diverge_at_5() -> FaultPlan {
    FaultPlan {
        gan_fault_epoch: Some(5),
        gan_fault: GanFault::Diverge,
        ..FaultPlan::default()
    }
}

fn train_fingerprint(
    patterns: &[GrayImage],
    config: &RganConfig,
    seed: u64,
    plan: Option<&FaultPlan>,
) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let health = HealthReport::new();
    let gan = Rgan::train_with_health(patterns, config, &mut rng, plan, &health);
    if plan.is_some() {
        assert_eq!(health.count(FaultKind::GanDivergence), 1);
        assert!(gan.degenerate.is_none(), "epoch 5 has a snapshot");
    }
    let mut h = Fnv::new();
    h.f32s(&gan.generator().params());
    h.f32s(&gan.discriminator().params());
    h.f32(gan.final_disc_loss);
    h.f32(gan.final_gen_loss);
    h.images(&gan.generate(6, &mut rng));
    h.u64(rng.gen::<u64>());
    h.0
}

fn augment_fingerprint(
    patterns: &[GrayImage],
    config: &RganConfig,
    seed: u64,
    plan: Option<&FaultPlan>,
) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let out = augment_with_health(
        patterns,
        AugmentMethod::Both,
        12,
        &policies(),
        config,
        &mut rng,
        plan,
        &HealthReport::new(),
    );
    let mut h = Fnv::new();
    h.images(&out);
    h.u64(rng.gen::<u64>());
    h.0
}

/// Every fingerprint the test pins, by name, in a fixed order.
fn fingerprints() -> Vec<(&'static str, u64)> {
    let few = patterns(10, 3);
    let many = patterns(40, 4);
    let quick = RganConfig::quick();
    let wide = perfbench_shaped();
    let plan = diverge_at_5();
    vec![
        ("train quick", train_fingerprint(&few, &quick, 21, None)),
        ("train perfbench", train_fingerprint(&many, &wide, 22, None)),
        (
            "train quick diverge@5",
            train_fingerprint(&few, &quick, 23, Some(&plan)),
        ),
        ("augment quick", augment_fingerprint(&few, &quick, 24, None)),
        (
            "augment perfbench",
            augment_fingerprint(&many, &wide, 25, None),
        ),
        (
            "augment quick diverge@5",
            augment_fingerprint(&few, &quick, 26, Some(&plan)),
        ),
    ]
}

const GOLDEN: &[(&str, u64)] = &[
    ("train quick", 0xeee5a1eb2f962908),
    ("train perfbench", 0x760a339a43cd36dd),
    ("train quick diverge@5", 0xf474eb22663339ad),
    ("augment quick", 0x298be0d45b9a2727),
    ("augment perfbench", 0x5cccc977f80c65bd),
    ("augment quick diverge@5", 0xbc88402e689fc244),
];

#[test]
fn gan_training_and_augmentation_match_their_golden_fingerprints() {
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
