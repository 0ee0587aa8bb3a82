//! Structural 128-bit fingerprints for memoization keys.
//!
//! A fingerprint is a deterministic hash of a stage's inputs and
//! configuration: same bytes in → same fingerprint, on every run and
//! every platform. Two independent 64-bit SplitMix streams keep the
//! collision probability for a store holding `n` artifacts near
//! `n² / 2^129` — negligible at experiment scale — without pulling in an
//! external hashing crate.
//!
//! Float values are hashed by their IEEE-754 bit patterns, so `-0.0` and
//! `0.0` fingerprint differently; that is the right discipline for a
//! cache whose contract is *bit-identical* replay.

use ig_faults::{FaultPlan, GanFault};
use ig_imaging::prepared::PreparedImage;
use ig_imaging::GrayImage;
use ig_nn::Matrix;
use ig_synth::spec::{DatasetKind, DatasetSpec};

/// A 128-bit content fingerprint. Ordered (lexicographically by `lo`
/// then `hi`) so stores can keep fingerprint-keyed maps with
/// deterministic iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint {
    /// Low 64 bits (stream A).
    pub lo: u64,
    /// High 64 bits (stream B).
    pub hi: u64,
}

impl Fingerprint {
    /// Fold another fingerprint into this one (order-sensitive).
    pub fn mix(self, other: Fingerprint) -> Fingerprint {
        let mut h = FingerprintHasher::new();
        h.write_u64(self.lo);
        h.write_u64(self.hi);
        h.write_u64(other.lo);
        h.write_u64(other.hi);
        h.finish()
    }
}

/// SplitMix64 finalizer: the avalanche core of both streams.
fn splitmix(state: u64, value: u64) -> u64 {
    let mut z = state ^ value.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Incremental two-stream hasher producing a [`Fingerprint`].
#[derive(Debug, Clone)]
pub struct FingerprintHasher {
    a: u64,
    b: u64,
}

impl Default for FingerprintHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl FingerprintHasher {
    /// Fresh hasher with fixed, documented stream seeds.
    pub fn new() -> Self {
        Self {
            // FNV-1a offset basis and the golden-ratio constant: two
            // unrelated starting points so the streams decorrelate.
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x517c_c1b7_2722_0a95,
        }
    }

    /// Hash one 64-bit word into both streams.
    pub fn write_u64(&mut self, v: u64) {
        self.a = splitmix(self.a, v);
        self.b = splitmix(self.b, v.rotate_left(32) ^ 0xd6e8_feb8_6659_fd93);
    }

    /// Hash a `usize` (widened — fingerprints are platform-independent
    /// for any count below 2^64).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Hash a boolean as a full word (keeps adjacent fields separated).
    pub fn write_bool(&mut self, v: bool) {
        self.write_u64(u64::from(v));
    }

    /// Hash an `f32` by bit pattern.
    pub fn write_f32(&mut self, v: f32) {
        self.write_u64(u64::from(v.to_bits()));
    }

    /// Hash an `f64` by bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Hash a byte string (length-prefixed, 8 bytes per word).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        for chunk in bytes.chunks(8) {
            let mut word = 0u64;
            for &byte in chunk {
                word = (word << 8) | u64::from(byte);
            }
            self.write_u64(word);
        }
    }

    /// Hash a UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Hash a slice of `f32` by bit patterns, two lanes per word.
    pub fn write_f32s(&mut self, values: &[f32]) {
        self.write_usize(values.len());
        for pair in values.chunks(2) {
            let mut word = 0u64;
            for &v in pair {
                word = (word << 32) | u64::from(v.to_bits());
            }
            self.write_u64(word);
        }
    }

    /// Finish into a [`Fingerprint`]. The hasher can keep absorbing —
    /// `finish` reads the current state without consuming it.
    pub fn finish(&self) -> Fingerprint {
        // One extra avalanche round so short inputs still diffuse.
        Fingerprint {
            lo: splitmix(self.a, self.b),
            hi: splitmix(self.b, self.a.rotate_left(17)),
        }
    }
}

/// Types that can contribute to a stage fingerprint.
///
/// Implementations must hash *all* semantically relevant state: any field
/// that can change a stage's output must reach the hasher, or the store
/// will serve stale artifacts.
pub trait Fingerprintable {
    /// Feed this value into `h`.
    fn fingerprint_into(&self, h: &mut FingerprintHasher);

    /// Standalone fingerprint of this value.
    fn fingerprint(&self) -> Fingerprint {
        let mut h = FingerprintHasher::new();
        self.fingerprint_into(&mut h);
        h.finish()
    }
}

impl Fingerprintable for u64 {
    fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        h.write_u64(*self);
    }
}

impl Fingerprintable for usize {
    fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        h.write_usize(*self);
    }
}

impl Fingerprintable for f32 {
    fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        h.write_f32(*self);
    }
}

impl Fingerprintable for f64 {
    fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        h.write_f64(*self);
    }
}

impl Fingerprintable for bool {
    fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        h.write_bool(*self);
    }
}

impl Fingerprintable for str {
    fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        h.write_str(self);
    }
}

impl Fingerprintable for String {
    fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        h.write_str(self);
    }
}

impl<T: Fingerprintable> Fingerprintable for [T] {
    fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        h.write_usize(self.len());
        for item in self {
            item.fingerprint_into(h);
        }
    }
}

impl<T: Fingerprintable> Fingerprintable for Vec<T> {
    fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        self.as_slice().fingerprint_into(h);
    }
}

impl<T: Fingerprintable + ?Sized> Fingerprintable for &T {
    fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        (**self).fingerprint_into(h);
    }
}

impl<T: Fingerprintable> Fingerprintable for Option<T> {
    fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        match self {
            None => h.write_bool(false),
            Some(v) => {
                h.write_bool(true);
                v.fingerprint_into(h);
            }
        }
    }
}

impl Fingerprintable for GrayImage {
    fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        h.write_usize(self.width());
        h.write_usize(self.height());
        h.write_f32s(self.pixels());
    }
}

impl Fingerprintable for PreparedImage {
    /// A prepared image is a pure function of its source pixels and the
    /// match config it was built under; hashing the source (plus level
    /// count, which encodes the config's effect) keeps the fingerprint
    /// cheap relative to rebuilding the pyramid.
    fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        self.image().fingerprint_into(h);
        h.write_usize(self.num_levels());
    }
}

impl Fingerprintable for Matrix {
    fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        h.write_usize(self.rows());
        h.write_usize(self.cols());
        h.write_f32s(self.as_slice());
    }
}

impl Fingerprintable for DatasetKind {
    fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        let tag = match self {
            DatasetKind::Ksdd => 0u64,
            DatasetKind::ProductScratch => 1,
            DatasetKind::ProductBubble => 2,
            DatasetKind::ProductStamping => 3,
            DatasetKind::Neu => 4,
        };
        h.write_u64(tag);
    }
}

impl Fingerprintable for DatasetSpec {
    fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        self.kind.fingerprint_into(h);
        h.write_usize(self.n);
        h.write_usize(self.n_defective);
        h.write_usize(self.width);
        h.write_usize(self.height);
        h.write_u64(self.seed);
        h.write_f64(self.noisy_fraction);
        h.write_f64(self.difficult_fraction);
    }
}

impl Fingerprintable for FaultPlan {
    fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        h.write_u64(self.seed);
        h.write_f64(self.nan_feature_rate);
        h.write_f64(self.inf_feature_rate);
        h.write_f64(self.degenerate_pattern_rate);
        h.write_f64(self.crowd_no_show_rate);
        h.write_f64(self.crowd_spammer_rate);
        h.write_f64(self.worker_panic_rate);
        h.write_f64(self.lbfgs_poison_rate);
        h.write_f64(self.torn_write_rate);
        h.write_f64(self.artifact_bitflip_rate);
        match self.gan_fault_epoch {
            None => h.write_bool(false),
            Some(epoch) => {
                h.write_bool(true);
                h.write_usize(epoch);
            }
        }
        h.write_u64(match self.gan_fault {
            GanFault::Diverge => 0,
            GanFault::Collapse => 1,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_inputs_same_fingerprint() {
        let a = DatasetSpec::quick(DatasetKind::Ksdd, 7).fingerprint();
        let b = DatasetSpec::quick(DatasetKind::Ksdd, 7).fingerprint();
        assert_eq!(a, b);
    }

    #[test]
    fn any_field_change_changes_fingerprint() {
        let base = DatasetSpec::quick(DatasetKind::Ksdd, 7);
        let variants = [
            DatasetSpec { seed: 8, ..base },
            DatasetSpec {
                n: base.n + 1,
                ..base
            },
            DatasetSpec {
                noisy_fraction: base.noisy_fraction + 0.01,
                ..base
            },
            DatasetSpec::quick(DatasetKind::Neu, 7),
        ];
        for v in &variants {
            assert_ne!(base.fingerprint(), v.fingerprint(), "{v:?}");
        }
    }

    #[test]
    fn field_order_matters() {
        let mut h1 = FingerprintHasher::new();
        h1.write_u64(1);
        h1.write_u64(2);
        let mut h2 = FingerprintHasher::new();
        h2.write_u64(2);
        h2.write_u64(1);
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn length_prefix_separates_concatenations() {
        // ["ab", "c"] vs ["a", "bc"] must differ.
        let mut h1 = FingerprintHasher::new();
        h1.write_str("ab");
        h1.write_str("c");
        let mut h2 = FingerprintHasher::new();
        h2.write_str("a");
        h2.write_str("bc");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn float_bits_distinguish_negative_zero() {
        let mut h1 = FingerprintHasher::new();
        h1.write_f32(0.0);
        let mut h2 = FingerprintHasher::new();
        h2.write_f32(-0.0);
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn image_fingerprint_tracks_pixels() {
        let img = GrayImage::filled(8, 6, 0.5);
        let mut other = img.clone();
        let fp = img.fingerprint();
        assert_eq!(fp, other.fingerprint());
        if let Some(p) = other.pixels_mut().iter_mut().next() {
            *p += 0.25;
        }
        assert_ne!(fp, other.fingerprint());
    }

    #[test]
    fn mix_is_order_sensitive() {
        let a = 1u64.fingerprint();
        let b = 2u64.fingerprint();
        assert_ne!(a.mix(b), b.mix(a));
        assert_eq!(a.mix(b), a.mix(b));
    }

    #[test]
    fn fault_plan_fingerprint_covers_gan_fields() {
        let base = FaultPlan::none(3);
        let epoch = FaultPlan {
            gan_fault_epoch: Some(2),
            ..base.clone()
        };
        let collapse = FaultPlan {
            gan_fault_epoch: Some(2),
            gan_fault: GanFault::Collapse,
            ..base.clone()
        };
        assert_ne!(base.fingerprint(), epoch.fingerprint());
        assert_ne!(epoch.fingerprint(), collapse.fingerprint());
    }

    #[test]
    fn fault_plan_fingerprint_covers_durability_fields() {
        let base = FaultPlan::none(3);
        let variants = [
            FaultPlan {
                torn_write_rate: 0.1,
                ..base.clone()
            },
            FaultPlan {
                artifact_bitflip_rate: 0.1,
                ..base.clone()
            },
        ];
        for v in &variants {
            assert_ne!(base.fingerprint(), v.fingerprint(), "{v:?}");
        }
        assert_ne!(
            variants[0].fingerprint(),
            variants[1].fingerprint(),
            "rates must land in distinct hash positions"
        );
    }
}
