//! Golden fingerprints of the synthetic datasets and their prepared
//! pyramids.
//!
//! Each fingerprint is an FNV-1a hash over the f32 bits of every pixel,
//! the label, the `noisy` and `difficult` flags and the f32 bits of every
//! gold box, in dataset order. They were recorded before the noise and
//! blur kernels were rewritten, and pin those rewrites (and any later
//! one) to the exact bits the experiments, the stores and perfbench's
//! reference labels were built from. A change that moves a bit here
//! changes every downstream number; it is not a refactor.
//!
//! The `paper` rows keep the preset's image size and class fractions but
//! generate fewer images (`n` below), so the test stays fast in a debug
//! build; the `generate_range` rows run the full paper census and render
//! a slice of it. SynthNet, the transfer baseline's pre-training corpus,
//! is pinned too.

use ig_imaging::ncc::PyramidMatchConfig;
use ig_imaging::{GrayImage, PreparedImage};
use ig_synth::spec::DatasetKind;
use ig_synth::{generate, generate_range, Dataset, DatasetSpec};

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

    fn image(&mut self, img: &GrayImage) {
        self.u64(img.width() as u64);
        self.u64(img.height() as u64);
        for &p in img.pixels() {
            self.f32(p);
        }
    }
}

fn dataset_fingerprint(d: &Dataset) -> u64 {
    let mut h = Fnv::new();
    h.u64(d.len() as u64);
    for img in &d.images {
        h.image(&img.image);
        h.u64(img.label as u64);
        h.u64(u64::from(img.noisy));
        h.u64(u64::from(img.difficult));
        h.u64(img.defect_boxes.len() as u64);
        for b in &img.defect_boxes {
            for v in [b.x, b.y, b.w, b.h] {
                h.f32(v);
            }
        }
    }
    h.0
}

fn pyramid_fingerprint(img: &GrayImage) -> u64 {
    let prepared = PreparedImage::new(img, &PyramidMatchConfig::default());
    let mut h = Fnv::new();
    h.u64(prepared.num_levels() as u64);
    for level in prepared.levels() {
        h.image(level);
    }
    h.0
}

/// The paper preset at its image size and fractions, with `n` images.
fn paper_sized(kind: DatasetKind, seed: u64, n: usize) -> DatasetSpec {
    let paper = DatasetSpec::paper(kind, seed);
    DatasetSpec {
        n,
        n_defective: paper.n_defective.min(n / 3),
        ..paper
    }
}

/// Every fingerprint the test pins, by name, in a fixed order.
fn fingerprints() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for kind in DatasetKind::all() {
        let quick = DatasetSpec::quick(kind, 11);
        let paper = paper_sized(kind, 11, 18);
        let quick_data = generate(&quick);
        let paper_data = generate(&paper);
        out.push((format!("{kind:?} quick"), dataset_fingerprint(&quick_data)));
        out.push((
            format!("{kind:?} paper n=18"),
            dataset_fingerprint(&paper_data),
        ));
        let quick_slice = generate_range(&quick, 5, 11);
        out.push((
            format!("{kind:?} quick [5..11]"),
            dataset_fingerprint(&quick_slice),
        ));
        let full_paper = DatasetSpec::paper(kind, 11);
        let paper_slice = generate_range(&full_paper, 100, 104);
        out.push((
            format!("{kind:?} paper [100..104]"),
            dataset_fingerprint(&paper_slice),
        ));
        for (label, d) in [("quick", &quick_data), ("paper", &paper_data)] {
            if let Some(first) = d.images.first() {
                let fp = pyramid_fingerprint(&first.image);
                out.push((format!("{kind:?} {label} pyramid"), fp));
            }
        }
    }
    let synthnet = ig_synth::synthnet::generate(64, 32, 11);
    out.push(("SynthNet 64x32".to_string(), dataset_fingerprint(&synthnet)));
    out
}

const GOLDEN: &[(&str, u64)] = &[
    ("Ksdd quick", 0x495f007593ab0125),
    ("Ksdd paper n=18", 0x3f4e1cca5e7f1abd),
    ("Ksdd quick [5..11]", 0xc5d05e08e4456a94),
    ("Ksdd paper [100..104]", 0x0beb8fe7dd20cb84),
    ("Ksdd quick pyramid", 0xc5e9c52d9007a91e),
    ("Ksdd paper pyramid", 0xde24baba2d601e90),
    ("ProductScratch quick", 0xf37e37df784e7225),
    ("ProductScratch paper n=18", 0xfd130db680246ee4),
    ("ProductScratch quick [5..11]", 0x87818ae80dd5f061),
    ("ProductScratch paper [100..104]", 0xbd0361a3e3a09b47),
    ("ProductScratch quick pyramid", 0xa71de75fa611826b),
    ("ProductScratch paper pyramid", 0x042c8556bb561ecd),
    ("ProductBubble quick", 0x3893b4c5916d463c),
    ("ProductBubble paper n=18", 0xc064720cdbb44235),
    ("ProductBubble quick [5..11]", 0x637429cb6a64925e),
    ("ProductBubble paper [100..104]", 0xbe26831bb0d2ef53),
    ("ProductBubble quick pyramid", 0x42d0d148093dab31),
    ("ProductBubble paper pyramid", 0xcf1395560161a3bd),
    ("ProductStamping quick", 0xb6aff36e2d188021),
    ("ProductStamping paper n=18", 0xadd1ac66f46645ea),
    ("ProductStamping quick [5..11]", 0x62c2b34d952c617e),
    ("ProductStamping paper [100..104]", 0x4c07ca33d0990cd7),
    ("ProductStamping quick pyramid", 0xdeabbfd5d39b5324),
    ("ProductStamping paper pyramid", 0xf72889d222b4fe6d),
    ("Neu quick", 0x2db98719b3817461),
    ("Neu paper n=18", 0xf5c03a375d2f8b51),
    ("Neu quick [5..11]", 0xbb52d5bbeac9d912),
    ("Neu paper [100..104]", 0x8b5bde5876bd87ae),
    ("Neu quick pyramid", 0x0adae83ddef1b10b),
    ("Neu paper pyramid", 0xe8fc9acc04fa0f52),
    ("SynthNet 64x32", 0x5bd8eb5f2868e296),
];

#[test]
fn synthesis_and_pyramids_match_their_golden_fingerprints() {
    let got = fingerprints();
    let mismatches: Vec<String> = got
        .iter()
        .filter(|(name, fp)| !GOLDEN.contains(&(name.as_str(), *fp)))
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
