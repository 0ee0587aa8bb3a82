//! SynthNet: a generic procedural texture corpus standing in for ImageNet.
//!
//! The paper's transfer-learning baseline pre-trains VGG-19 on ImageNet
//! (Table 2 shows generic pre-training beats cross-defect-dataset
//! pre-training). ImageNet is unavailable here, so the TL baseline
//! pre-trains on this corpus instead: eight visually distinct texture
//! families whose classification forces a conv net to learn generic edge /
//! blob / frequency features.

use crate::{Dataset, LabeledImage, TaskType};
use ig_imaging::noise::{fbm_image, white_noise_image};
use ig_imaging::GrayImage;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Number of SynthNet texture classes.
pub const SYNTHNET_CLASSES: usize = 8;

/// Generate `n` images of `side x side` pixels split over the 8 classes.
pub fn generate(n: usize, side: usize, seed: u64) -> Dataset {
    // ig-lint: allow(salt-determinism) -- generator entry point: `seed` is
    // the caller-chosen dataset seed (not the run seed); decorrelating
    // distinct datasets is the caller's contract, and experiments pass each
    // generator a distinct seed
    let mut rng = StdRng::seed_from_u64(seed);
    let per_class = (n / SYNTHNET_CLASSES).max(1);
    let mut images = Vec::with_capacity(per_class * SYNTHNET_CLASSES);
    for class in 0..SYNTHNET_CLASSES {
        for i in 0..per_class {
            let s = seed
                .wrapping_mul(53)
                .wrapping_add((class * per_class + i) as u64);
            let image = texture(class, side, s, &mut rng);
            images.push(LabeledImage {
                image,
                label: class,
                defect_boxes: Vec::new(),
                noisy: false,
                difficult: false,
            });
        }
    }
    images.shuffle(&mut rng);
    Dataset {
        name: "SynthNet".to_string(),
        task: TaskType::MultiClass(SYNTHNET_CLASSES),
        images,
    }
}

/// A random surface-like background (the common canvas of all classes,
/// like the shared natural-image statistics of ImageNet photos).
fn surface_canvas(seed: u64, side: usize, rng: &mut StdRng) -> GrayImage {
    let lo = rng.gen_range(0.25..0.55f32);
    let hi = lo + rng.gen_range(0.1..0.3f32);
    let freq = rng.gen_range(0.02..0.2f32);
    let mut img = fbm_image(seed, side, side, freq, 3, lo, hi);
    let grain = white_noise_image(seed.wrapping_add(1), side, side, -0.03, 0.03);
    for (o, g) in img.pixels_mut().iter_mut().zip(grain.pixels()) {
        *o += g;
    }
    img
}

fn texture(class: usize, side: usize, seed: u64, rng: &mut StdRng) -> GrayImage {
    // Every class sits on a surface-like canvas so a model pre-trained
    // here learns *generic surface + structure* features — the role
    // ImageNet's natural-image diversity plays for the paper's VGG-19.
    let mut img = surface_canvas(seed, side, rng);
    match class {
        // Plain surfaces, smooth vs rough (no overlay).
        0 => {}
        1 => {
            let extra = white_noise_image(seed.wrapping_add(2), side, side, -0.08, 0.08);
            for (o, g) in img.pixels_mut().iter_mut().zip(extra.pixels()) {
                *o += g;
            }
        }
        // Dark line structures (scratch/crack-like).
        2 => {
            for _ in 0..rng.gen_range(2..6) {
                img.draw_line(
                    rng.gen_range(0.0..side as f32),
                    rng.gen_range(0.0..side as f32),
                    rng.gen_range(0.0..side as f32),
                    rng.gen_range(0.0..side as f32),
                    rng.gen_range(1.0..2.0),
                    rng.gen_range(0.05..0.2),
                );
            }
        }
        // Bright line structures.
        3 => {
            for _ in 0..rng.gen_range(2..6) {
                img.draw_line(
                    rng.gen_range(0.0..side as f32),
                    rng.gen_range(0.0..side as f32),
                    rng.gen_range(0.0..side as f32),
                    rng.gen_range(0.0..side as f32),
                    rng.gen_range(1.0..2.0),
                    rng.gen_range(0.8..0.95),
                );
            }
        }
        // Small dark blobs (bubble/pit-like).
        4 => {
            for _ in 0..rng.gen_range(4..12) {
                img.fill_disk(
                    rng.gen_range(0.0..side as f32),
                    rng.gen_range(0.0..side as f32),
                    rng.gen_range(1.0..side as f32 * 0.08),
                    rng.gen_range(0.05..0.25),
                );
            }
        }
        // Large bright patches.
        5 => {
            for _ in 0..rng.gen_range(1..4) {
                let pw = rng.gen_range(side / 4..side / 2);
                let ph = rng.gen_range(side / 4..side / 2);
                let x0 = rng.gen_range(0..side - pw);
                let y0 = rng.gen_range(0..side - ph);
                img.fill_rect(x0, y0, pw, ph, rng.gen_range(0.75..0.95));
            }
        }
        // Periodic machining stripes.
        6 => {
            let angle = rng.gen_range(0.0..std::f32::consts::PI);
            let freq = rng.gen_range(0.3..0.9f32);
            let (s, c) = angle.sin_cos();
            let amp = rng.gen_range(0.1..0.25f32);
            let base = img.clone();
            img = GrayImage::from_fn(side, side, |x, y| {
                base.get(x, y) + amp * ((x as f32 * c + y as f32 * s) * freq).sin()
            });
        }
        // Cellular flake texture (scale-like).
        7 => {
            // One octave of fBm is plain value noise.
            let cells = fbm_image(seed.wrapping_add(3), side, side, 0.15, 1, 0.0, 1.0);
            for (o, &v) in img.pixels_mut().iter_mut().zip(cells.pixels()) {
                *o += if v > 0.55 { -0.2 } else { 0.0 };
            }
        }
        // Class indices are produced modulo SYNTHNET_CLASSES by the
        // generator loop — loud under debug_assertions, a flat texture in
        // release.
        _ => debug_assert!(false, "SynthNet has {SYNTHNET_CLASSES} classes"),
    }
    img.clamp(0.0, 1.0);
    img
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count() {
        let d = generate(64, 32, 1);
        assert_eq!(d.len(), 64);
        assert_eq!(d.task, TaskType::MultiClass(8));
    }

    #[test]
    fn all_classes_present_and_balanced() {
        let d = generate(80, 24, 2);
        let mut counts = [0usize; SYNTHNET_CLASSES];
        for img in &d.images {
            counts[img.label] += 1;
        }
        assert!(counts.iter().all(|&c| c == 10));
    }

    #[test]
    fn pixels_in_unit_range() {
        let d = generate(16, 32, 3);
        for img in &d.images {
            for &p in img.image.pixels() {
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn classes_differ_between_samples() {
        // Two images of the same class from different seeds differ.
        let d = generate(32, 24, 4);
        let same_class: Vec<&LabeledImage> = d.images.iter().filter(|i| i.label == 0).collect();
        assert!(same_class.len() >= 2);
        assert_ne!(same_class[0].image, same_class[1].image);
    }
}
