//! NEU simulacrum: six surface-defect texture classes on hot-rolled steel.
//!
//! Unlike the other datasets, NEU has no defect-free images; the task is
//! multi-class ("which defect is present", Section 6.1) and the defects
//! occupy large portions of the image — the regime where GOGGLES'
//! object-centric prototypes also work well (Section 6.2).

use crate::spec::DatasetSpec;
use crate::surface::{corrupt_with_noise, noise_strength, rolled_steel};
use crate::LabeledImage;
use ig_imaging::filter::gaussian_blur;
use ig_imaging::noise::fbm_image;
use ig_imaging::{BBox, GrayImage};
use rand::rngs::StdRng;
use rand::Rng;

/// Class order used for labels 0..6 (matching Figure 8's panel order).
pub const NEU_CLASSES: [&str; 6] = [
    "rolled-in scale",
    "patches",
    "crazing",
    "pitted surface",
    "inclusion",
    "scratches",
];

/// Images per class: `spec.n` split evenly over the six classes, at
/// least one each. The slot count is six times this, which may differ
/// from `spec.n`.
pub(crate) fn per_class(spec: &DatasetSpec) -> usize {
    (spec.n / 6).max(1)
}

/// Slot `k` of the NEU stand-in, in generation (pre-shuffle) order:
/// class-major, [`per_class`] slots per class.
///
/// `dry: None` renders the slot. `Some(canvas)` runs it draw-only: the
/// same draws in the same order, with the surface and noise pixel work
/// skipped — see [`crate::generate_range`]. Classes 0 and 1 skip their
/// fBm textures too, since their boxes depend only on draws and dims;
/// classes 2–5 paint onto `canvas` (returned as the image). They read
/// surface pixels, but only to pick paint values, never to steer a draw.
pub(crate) fn slot(
    spec: &DatasetSpec,
    k: usize,
    rng: &mut StdRng,
    dry: Option<GrayImage>,
) -> LabeledImage {
    let class = k / per_class(spec);
    let surface_seed = spec.seed.wrapping_mul(41).wrapping_add(k as u64);
    let render = dry.is_none();
    let mut image = dry.unwrap_or_else(|| rolled_steel(surface_seed, spec.width, spec.height));
    let difficult = rng.gen_bool(spec.difficult_fraction);
    let strength = if difficult { 0.35 } else { 1.0 };
    let defect_boxes = paint_class(&mut image, class, strength, surface_seed, render, rng);
    let noisy = rng.gen_bool(spec.noisy_fraction);
    if noisy {
        let strength = noise_strength(rng);
        if render {
            image = corrupt_with_noise(&image, surface_seed.wrapping_add(3), strength);
        }
    }
    LabeledImage {
        image,
        label: class,
        defect_boxes,
        noisy,
        difficult,
    }
}

/// Paint the class-specific texture; returns gold boxes covering the
/// affected regions. `strength` scales contrast (difficult images use a
/// fraction of it). With `render` false the fBm flakes and patches of
/// classes 0 and 1 are not built; every draw is made all the same.
fn paint_class(
    img: &mut GrayImage,
    class: usize,
    strength: f32,
    seed: u64,
    render: bool,
    rng: &mut StdRng,
) -> Vec<BBox> {
    let (w, h) = img.dims();
    let mut boxes = Vec::new();
    match class {
        // Rolled-in scale: horizontally elongated dark flakes.
        0 => {
            for _ in 0..rng.gen_range(3..6) {
                let fw = rng.gen_range(w / 5..w / 2);
                let fh = rng.gen_range(h / 10..h / 4).max(2);
                let x0 = rng.gen_range(0..w - fw);
                let y0 = rng.gen_range(0..h - fh);
                if render {
                    // fBm stretched 2x along y: the even rows of a grid
                    // twice as tall, less its last row.
                    let grid = fbm_image(seed.wrapping_add(17), fw, 2 * fh - 1, 0.15, 3, 0.0, 1.0);
                    let flake = GrayImage::from_fn(fw, fh, |x, y| {
                        if grid.get(x, 2 * y) > 0.45 {
                            -0.25 * strength
                        } else {
                            0.0
                        }
                    });
                    img.blend_add(&gaussian_blur(&flake, 0.6), x0 as isize, y0 as isize, 1.0);
                }
                boxes.push(BBox::new(x0 as f32, y0 as f32, fw as f32, fh as f32));
            }
        }
        // Patches: large irregular bright regions.
        1 => {
            for _ in 0..rng.gen_range(1..3) {
                let fw = rng.gen_range(w / 3..(3 * w) / 4);
                let fh = rng.gen_range(h / 3..(3 * h) / 4);
                let x0 = rng.gen_range(0..w - fw);
                let y0 = rng.gen_range(0..h - fh);
                if render {
                    let noise = fbm_image(seed.wrapping_add(23), fw, fh, 0.08, 3, 0.0, 1.0);
                    let patch = noise.map(|v| if v > 0.4 { 0.3 * strength } else { 0.0 });
                    img.blend_add(&gaussian_blur(&patch, 1.0), x0 as isize, y0 as isize, 1.0);
                }
                boxes.push(BBox::new(x0 as f32, y0 as f32, fw as f32, fh as f32));
            }
        }
        // Crazing: dense network of fine parallel-ish cracks.
        2 => {
            let count = (w / 6).max(6);
            let angle = rng.gen_range(-0.3..0.3f32);
            for k in 0..count {
                let x = (k * w) / count;
                let dx = angle.tan() * h as f32;
                let jitter = rng.gen_range(-2.0..2.0f32);
                img.draw_line(
                    x as f32 + jitter,
                    0.0,
                    x as f32 + dx + jitter,
                    h as f32 - 1.0,
                    0.7,
                    (img.get(x.min(w - 1), h / 2) - 0.18 * strength).clamp(0.0, 1.0),
                );
            }
            boxes.push(BBox::new(0.0, 0.0, w as f32, h as f32));
        }
        // Pitted surface: many small dark pits.
        3 => {
            let count = rng.gen_range(25..45);
            let mut min_x = w as f32;
            let mut min_y = h as f32;
            let mut max_x = 0.0f32;
            let mut max_y = 0.0f32;
            for _ in 0..count {
                let cx = rng.gen_range(2.0..w as f32 - 2.0);
                let cy = rng.gen_range(2.0..h as f32 - 2.0);
                let r = rng.gen_range(0.8..2.0f32);
                let v = (img.get(cx as usize, cy as usize) - 0.3 * strength).clamp(0.0, 1.0);
                img.fill_disk(cx, cy, r, v);
                min_x = min_x.min(cx - r);
                min_y = min_y.min(cy - r);
                max_x = max_x.max(cx + r);
                max_y = max_y.max(cy + r);
            }
            boxes.push(BBox::from_corners(min_x, min_y, max_x, max_y));
        }
        // Inclusion: a few thick dark elongated streaks.
        4 => {
            for _ in 0..rng.gen_range(1..4) {
                let len = rng.gen_range(h as f32 * 0.3..h as f32 * 0.9);
                let x = rng.gen_range(2.0..w as f32 - 2.0);
                let y0 = rng.gen_range(0.0..h as f32 - len);
                let thickness = rng.gen_range(2.0..4.0f32);
                let drift = rng.gen_range(-4.0..4.0f32);
                let v = (img.get(x as usize, y0 as usize) - 0.35 * strength).clamp(0.0, 1.0);
                img.draw_line(x, y0, x + drift, y0 + len, thickness, v);
                boxes.push(BBox::from_corners(
                    (x - thickness).min(x + drift - thickness),
                    y0,
                    (x + thickness).max(x + drift + thickness),
                    y0 + len,
                ));
            }
        }
        // Scratches: bright thin lines.
        5 => {
            for _ in 0..rng.gen_range(1..3) {
                let len = rng.gen_range(h as f32 * 0.4..h as f32 * 0.95);
                let x = rng.gen_range(2.0..w as f32 - 2.0);
                let y0 = rng.gen_range(0.0..(h as f32 - len).max(1.0));
                let drift = rng.gen_range(-6.0..6.0f32);
                let v = (img.get(x as usize, y0 as usize) + 0.35 * strength).clamp(0.0, 1.0);
                img.draw_line(x, y0, x + drift, y0 + len, 1.2, v);
                boxes.push(BBox::from_corners(
                    (x - 1.5).min(x + drift - 1.5),
                    y0,
                    (x + 1.5).max(x + drift + 1.5),
                    y0 + len,
                ));
            }
        }
        // Class indices come from `k / per_class` over the `6 * per_class`
        // slots; an out-of-range class is a programming error — loud under
        // debug_assertions, a defect-free image in release.
        _ => debug_assert!(false, "NEU has 6 classes"),
    }
    img.clamp(0.0, 1.0);
    boxes.into_iter().filter_map(|b| b.clip(w, h)).collect()
}

#[cfg(test)]
mod tests {
    use crate::spec::{DatasetKind, DatasetSpec};
    use crate::{generate, TaskType};
    use ig_imaging::stats::stats;

    #[test]
    fn classes_are_balanced() {
        let spec = DatasetSpec::quick(DatasetKind::Neu, 9);
        let d = generate(&spec);
        let mut counts = [0usize; 6];
        for img in &d.images {
            counts[img.label] += 1;
        }
        assert!(counts.iter().all(|&c| c == counts[0]));
        assert_eq!(d.task, TaskType::MultiClass(6));
    }

    #[test]
    fn every_image_has_defect_boxes() {
        let spec = DatasetSpec::quick(DatasetKind::Neu, 10);
        let d = generate(&spec);
        for img in &d.images {
            assert!(!img.defect_boxes.is_empty(), "class {}", img.label);
        }
    }

    #[test]
    fn neu_defects_are_large_relative_to_image() {
        // Section 6.1: "these defects take larger portions of the images".
        let spec = DatasetSpec::quick(DatasetKind::Neu, 11);
        let d = generate(&spec);
        let mut large = 0;
        for img in &d.images {
            let area: f32 = img.defect_boxes.iter().map(|b| b.area()).sum();
            if area > (img.image.len() as f32) * 0.05 {
                large += 1;
            }
        }
        assert!(
            large * 2 > d.len(),
            "only {large}/{} images have large defects",
            d.len()
        );
    }

    #[test]
    fn classes_are_visually_distinct() {
        // Texture statistics should differ across classes so that a
        // classifier has signal. Compare pitted (many dark dots → lower
        // mean) against scratches (bright lines → higher mean).
        let spec = DatasetSpec {
            n: 60,
            noisy_fraction: 0.0,
            difficult_fraction: 0.0,
            ..DatasetSpec::quick(DatasetKind::Neu, 12)
        };
        let d = generate(&spec);
        let mean_of = |class: usize| {
            let (sum, count) = d
                .images
                .iter()
                .filter(|i| i.label == class)
                .map(|i| stats(&i.image).mean)
                .fold((0.0f32, 0usize), |(s, c), m| (s + m, c + 1));
            sum / count as f32
        };
        assert!(mean_of(5) > mean_of(3), "scratches vs pitted means");
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = DatasetSpec::quick(DatasetKind::Neu, 13);
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.images[3].image, b.images[3].image);
    }
}
