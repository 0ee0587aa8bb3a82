//! # ig-synth
//!
//! Procedural simulacra of the paper's five industrial datasets
//! (Table 1). The real data is proprietary (Product), or an external
//! download (KSDD, NEU); none is available here, so each dataset is
//! replaced by a seeded generator that reproduces the *statistical
//! structure the paper's experiments depend on*:
//!
//! | Dataset | Structure preserved |
//! |---|---|
//! | KSDD | jagged random-walk **cracks** whose shape varies a lot (policy augmentation pays off), strong class imbalance (52/399) |
//! | Product (scratch) | long thin oriented **scratches** anywhere on a strip image, mild imbalance (727/1673), large defects |
//! | Product (bubble) | tiny circular **bubbles**, heavy imbalance (102/1048) — small defects defeat object-centric labeling |
//! | Product (stamping) | small **stampings at fixed positions** (148/1094) — position-sensitive CNNs excel here |
//! | NEU | six **texture classes covering the whole image**, balanced, multi-class |
//!
//! Every image also carries gold defect boxes (standing in for the expert
//! annotations the crowd simulation perturbs), plus `noisy` / `difficult`
//! flags that ground the Table 6 error taxonomy.
//!
//! [`synthnet`] generates a generic texture corpus that plays ImageNet's
//! role for the transfer-learning baseline (Table 2).

#![warn(missing_docs)]

pub mod defects;
pub mod ksdd;
pub mod neu;
pub mod product;
pub mod spec;
pub mod surface;
pub mod synthnet;

use ig_imaging::{BBox, GrayImage};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

pub use spec::DatasetSpec;

/// Classification task shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskType {
    /// Defect vs OK.
    Binary,
    /// One of `k` defect classes (every image has a defect).
    MultiClass(usize),
}

impl TaskType {
    /// Number of label values.
    pub fn num_classes(&self) -> usize {
        match self {
            TaskType::Binary => 2,
            TaskType::MultiClass(k) => *k,
        }
    }
}

/// One generated image with its gold annotations.
#[derive(Debug, Clone)]
pub struct LabeledImage {
    /// Pixels in `[0, 1]`.
    pub image: GrayImage,
    /// Gold label: 0 = OK / class index for multi-class.
    pub label: usize,
    /// Gold defect bounding boxes (empty for OK images).
    pub defect_boxes: Vec<BBox>,
    /// Image was corrupted with acquisition noise (Table 6 "noisy data").
    pub noisy: bool,
    /// Defect drawn at near-invisible contrast (Table 6 "difficult").
    pub difficult: bool,
}

impl LabeledImage {
    /// Binary convenience: does the gold label say "defective"?
    pub fn is_defective(&self) -> bool {
        self.label != 0 || !self.defect_boxes.is_empty()
    }
}

/// A full generated dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable name matching the paper's Table 1 rows.
    pub name: String,
    /// Task shape.
    pub task: TaskType,
    /// All images, shuffled.
    pub images: Vec<LabeledImage>,
}

impl Dataset {
    /// Number of images (Table 1's `N`).
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Number of defective images (Table 1's `N_D`). For multi-class
    /// datasets every image is defective.
    pub fn num_defective(&self) -> usize {
        match self.task {
            TaskType::Binary => self.images.iter().filter(|i| i.label == 1).count(),
            TaskType::MultiClass(_) => self.images.len(),
        }
    }

    /// Gold labels in image order.
    pub fn labels(&self) -> Vec<usize> {
        self.images.iter().map(|i| i.label).collect()
    }

    /// Image dimensions (all images in a dataset share one size).
    pub fn image_dims(&self) -> (usize, usize) {
        self.images
            .first()
            .map(|i| i.image.dims())
            .unwrap_or((0, 0))
    }
}

/// Number of slots (images) `spec` generates: `spec.n`, or NEU's
/// `max(n / 6, 1) * 6`.
fn slot_count(spec: &DatasetSpec) -> usize {
    match spec.kind {
        spec::DatasetKind::Neu => neu::per_class(spec) * 6,
        _ => spec.n,
    }
}

/// Run slot `k` of `spec`'s generator from `rng`: rendered for
/// `dry: None`, draw-only on the given canvas otherwise. Every dataset
/// is its slots drawn in order from one RNG stream seeded by
/// `spec.seed`, then shuffled on the same stream.
fn slot(spec: &DatasetSpec, k: usize, rng: &mut StdRng, dry: Option<GrayImage>) -> LabeledImage {
    match spec.kind {
        spec::DatasetKind::Ksdd => ksdd::slot(spec, k, rng, dry),
        spec::DatasetKind::ProductScratch => product::slot(spec, &product::SCRATCH, k, rng, dry),
        spec::DatasetKind::ProductBubble => product::slot(spec, &product::BUBBLE, k, rng, dry),
        spec::DatasetKind::ProductStamping => product::slot(spec, &product::STAMPING, k, rng, dry),
        spec::DatasetKind::Neu => neu::slot(spec, k, rng, dry),
    }
}

fn dataset(spec: &DatasetSpec, images: Vec<LabeledImage>) -> Dataset {
    let task = match spec.kind {
        spec::DatasetKind::Neu => TaskType::MultiClass(6),
        _ => TaskType::Binary,
    };
    Dataset {
        name: spec.kind.display_name().to_string(),
        task,
        images,
    }
}

/// Generate the dataset matching a [`DatasetSpec`]: render every slot in
/// order, then shuffle.
pub fn generate(spec: &DatasetSpec) -> Dataset {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut images: Vec<LabeledImage> = (0..slot_count(spec))
        .map(|k| slot(spec, k, &mut rng, None))
        .collect();
    images.shuffle(&mut rng);
    dataset(spec, images)
}

/// Generate only images `start..end` of [`generate`]'s output —
/// bit-identical to slicing the full dataset, without materializing it.
///
/// This is the synthesis half of the runtime's out-of-core tier: a
/// sharded run asks each shard for its slice of the *shuffled* dataset,
/// so slices must agree with the monolithic path image-for-image. Ranges
/// past the end are clamped; an inverted range is empty.
///
/// The draws for slot `k` depend on every draw before it, so a slice
/// cannot skip ahead. Instead one **census** runs every slot dry
/// (draw-only: the painters draw onto one reused canvas, the surface and
/// noise pixel work is skipped), keeping a clone of the RNG state at
/// each slot's start, then shuffles an index vector exactly as
/// [`generate`] shuffles the image vector — Fisher–Yates performs
/// identical swaps for any same-length vector under the same RNG state,
/// so `order[j]` is the slot that lands at position `j`. Only the slots
/// in `start..end` are then rendered, each from its own snapshot.
///
/// This is exact because no draw depends on a pixel value: painters
/// draw from image dims only, and the surface and noise images are
/// keyed by their own seeds. Cost: one draw-only pass over all slots
/// plus the rendered range; memory: the range plus one RNG state per
/// slot.
pub fn generate_range(spec: &DatasetSpec, start: usize, end: usize) -> Dataset {
    let n = slot_count(spec);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut starts = Vec::with_capacity(n);
    let mut canvas = GrayImage::new(spec.width, spec.height);
    for k in 0..n {
        starts.push(rng.clone());
        canvas = slot(spec, k, &mut rng, Some(canvas)).image;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let end = end.min(n);
    let start = start.min(end);
    let images = order[start..end]
        .iter()
        .filter_map(|&k| {
            let mut rng = starts.get(k)?.clone();
            Some(slot(spec, k, &mut rng, None))
        })
        .collect();
    dataset(spec, images)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_type_class_counts() {
        assert_eq!(TaskType::Binary.num_classes(), 2);
        assert_eq!(TaskType::MultiClass(6).num_classes(), 6);
    }

    #[test]
    fn generate_dispatches_every_kind() {
        for kind in [
            spec::DatasetKind::Ksdd,
            spec::DatasetKind::ProductScratch,
            spec::DatasetKind::ProductBubble,
            spec::DatasetKind::ProductStamping,
            spec::DatasetKind::Neu,
        ] {
            let s = DatasetSpec::quick(kind, 42);
            let d = generate(&s);
            assert!(!d.is_empty(), "{kind:?} generated nothing");
            assert_eq!(d.len(), s.n);
        }
    }

    fn assert_same_image(a: &LabeledImage, b: &LabeledImage, at: String) {
        assert_eq!(a.label, b.label, "{at}: label");
        assert_eq!(a.noisy, b.noisy, "{at}: noisy");
        assert_eq!(a.difficult, b.difficult, "{at}: difficult");
        assert_eq!(a.defect_boxes.len(), b.defect_boxes.len(), "{at}: boxes");
        assert_eq!(a.image, b.image, "{at}: pixels");
    }

    #[test]
    fn generate_range_is_a_bit_identical_slice_for_every_kind() {
        for kind in [
            spec::DatasetKind::Ksdd,
            spec::DatasetKind::ProductScratch,
            spec::DatasetKind::ProductBubble,
            spec::DatasetKind::ProductStamping,
            spec::DatasetKind::Neu,
        ] {
            let s = DatasetSpec::quick(kind, 17);
            let whole = generate(&s);
            let n = whole.len();
            for (start, end) in [(0, n), (0, n / 2), (n / 3, (2 * n) / 3), (n - 1, n)] {
                let slice = generate_range(&s, start, end);
                assert_eq!(slice.name, whole.name, "{kind:?}");
                assert_eq!(slice.task, whole.task, "{kind:?}");
                assert_eq!(slice.len(), end - start, "{kind:?} [{start}..{end}]");
                for (j, img) in slice.images.iter().enumerate() {
                    assert_same_image(
                        img,
                        &whole.images[start + j],
                        format!("{kind:?} [{start}..{end}] + {j}"),
                    );
                }
            }
        }
    }

    /// The census is exact only if a dry slot makes the same draws as a
    /// rendered one. Checked slot by slot from a shared RNG state, with
    /// noisy and difficult slots common enough to take every branch, for
    /// every kind plus a NEU spec whose `n` is not a multiple of 6.
    #[test]
    fn dry_slots_draw_exactly_like_rendered_slots() {
        use rand::RngCore;
        let odd_neu = DatasetSpec {
            n: 33,
            ..DatasetSpec::quick(spec::DatasetKind::Neu, 5)
        };
        let specs = spec::DatasetKind::all()
            .map(|kind| DatasetSpec::quick(kind, 29))
            .into_iter()
            .chain([odd_neu])
            .map(|s| DatasetSpec {
                noisy_fraction: 0.5,
                difficult_fraction: 0.5,
                ..s
            });
        for s in specs {
            let mut rng = StdRng::seed_from_u64(s.seed);
            let mut canvas = GrayImage::new(s.width, s.height);
            for k in 0..slot_count(&s) {
                let mut dry_rng = rng.clone();
                let dry = slot(&s, k, &mut dry_rng, Some(canvas));
                let rendered = slot(&s, k, &mut rng, None);
                let at = format!("{:?} n={} slot {k}", s.kind, s.n);
                assert_eq!(
                    dry_rng.clone().next_u64(),
                    rng.clone().next_u64(),
                    "{at}: RNG state"
                );
                assert_eq!(dry.label, rendered.label, "{at}: label");
                assert_eq!(dry.noisy, rendered.noisy, "{at}: noisy");
                assert_eq!(dry.difficult, rendered.difficult, "{at}: difficult");
                assert_eq!(dry.defect_boxes, rendered.defect_boxes, "{at}: boxes");
                assert_eq!(dry.image.dims(), (s.width, s.height), "{at}: canvas");
                canvas = dry.image;
            }
        }
    }

    #[test]
    fn generate_range_clamps_out_of_bounds() {
        let s = DatasetSpec::quick(spec::DatasetKind::Ksdd, 21);
        let whole = generate(&s);
        let n = whole.len();
        let past = generate_range(&s, n, n + 10);
        assert!(past.is_empty(), "range past the end is empty");
        let clamped = generate_range(&s, n - 2, n + 10);
        assert_eq!(clamped.len(), 2, "end clamps to n");
        let inverted = generate_range(&s, 5, 3);
        assert!(inverted.is_empty(), "inverted range is empty");
    }

    #[test]
    fn shards_reassemble_the_whole_dataset() {
        let s = DatasetSpec::quick(spec::DatasetKind::ProductBubble, 33);
        let whole = generate(&s);
        let n = whole.len();
        for count in [1usize, 3, n] {
            let mut cursor = 0usize;
            let mut streamed = Vec::new();
            for i in 0..count {
                let end = ((i + 1) * n) / count;
                streamed.extend(generate_range(&s, cursor, end).images);
                cursor = end;
            }
            assert_eq!(streamed.len(), n, "count={count}");
            for (j, img) in streamed.iter().enumerate() {
                assert_same_image(img, &whole.images[j], format!("count={count} image {j}"));
            }
        }
    }
}
