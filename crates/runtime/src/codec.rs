//! Byte codecs for durable artifacts.
//!
//! The on-disk tier of the artifact store ([`crate::DiskStore`]) holds
//! raw byte payloads; this module defines the little-endian writer/reader
//! pair those payloads are built from and the [`Durable`] trait that
//! maps artifact types onto them. The contract is *bit-identical
//! round-trip*: `decode(encode(x))` must reproduce every bit of `x`
//! (floats travel as IEEE-754 bit patterns, never through text), and
//! decoding must consume the buffer exactly — trailing or missing bytes
//! are a decode failure, not a tolerated fuzz. Decoders are total
//! functions returning `Option`: arbitrary (truncated, bit-flipped)
//! input must produce `None`, never a panic or a wrong value that
//! happens to parse.

use ig_imaging::GrayImage;
use ig_nn::Matrix;
use ig_synth::{Dataset, LabeledImage, TaskType};

/// Little-endian byte writer for durable payloads.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Empty buffer.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Finished payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` widened to `u64` (payloads are
    /// platform-independent for any count below 2^64).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Append an `f32` by bit pattern.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Append a length-prefixed `f32` slice by bit patterns.
    pub fn put_f32s(&mut self, values: &[f32]) {
        self.put_usize(values.len());
        for &v in values {
            self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
}

/// Little-endian byte reader mirroring [`Enc`]. Every getter returns
/// `None` on underrun instead of panicking.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// True when the buffer was consumed exactly.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1)?.first().copied()
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)?.try_into().ok().map(u32::from_le_bytes)
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)?.try_into().ok().map(u64::from_le_bytes)
    }

    /// Read a `usize` (rejects counts above the platform width).
    pub fn usize_(&mut self) -> Option<usize> {
        self.u64()?.try_into().ok()
    }

    /// Read a bool; any byte other than 0/1 is a decode failure.
    pub fn bool_(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Read an `f32` by bit pattern.
    pub fn f32(&mut self) -> Option<f32> {
        self.u32().map(f32::from_bits)
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.usize_()?;
        // Reject lengths that cannot fit in what remains before
        // allocating anything proportional to them.
        if len > self.remaining() {
            return None;
        }
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str_(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.bytes()?).ok()
    }

    /// Read a length-prefixed `f32` slice by bit patterns.
    pub fn f32s(&mut self) -> Option<Vec<f32>> {
        let len = self.usize_()?;
        if len.checked_mul(4)? > self.remaining() {
            return None;
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.f32()?);
        }
        Some(out)
    }
}

/// Artifact types the on-disk store can hold.
///
/// `decode_durable(encode_durable(x))` must be bit-identical to `x`, and
/// decoding must reject malformed buffers with `None` (the disk tier
/// quarantines the file and recomputes). [`Durable::from_bytes`]
/// additionally requires the buffer be consumed exactly.
pub trait Durable: Sized {
    /// Append this value to `enc`.
    fn encode_durable(&self, enc: &mut Enc);

    /// Read one value from `dec`, or `None` on any malformation.
    fn decode_durable(dec: &mut Dec<'_>) -> Option<Self>;

    /// Standalone payload bytes for this value.
    fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        self.encode_durable(&mut enc);
        enc.into_bytes()
    }

    /// Decode a standalone payload; trailing bytes are a failure.
    fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut dec = Dec::new(bytes);
        let value = Self::decode_durable(&mut dec)?;
        dec.done().then_some(value)
    }
}

impl Durable for Matrix {
    fn encode_durable(&self, enc: &mut Enc) {
        enc.put_usize(self.rows());
        enc.put_usize(self.cols());
        enc.put_f32s(self.as_slice());
    }

    fn decode_durable(dec: &mut Dec<'_>) -> Option<Self> {
        let rows = dec.usize_()?;
        let cols = dec.usize_()?;
        let data = dec.f32s()?;
        if data.len() != rows.checked_mul(cols)? {
            return None;
        }
        Some(Matrix::from_vec(rows, cols, data))
    }
}

impl Durable for GrayImage {
    fn encode_durable(&self, enc: &mut Enc) {
        enc.put_usize(self.width());
        enc.put_usize(self.height());
        enc.put_f32s(self.pixels());
    }

    fn decode_durable(dec: &mut Dec<'_>) -> Option<Self> {
        let width = dec.usize_()?;
        let height = dec.usize_()?;
        let pixels = dec.f32s()?;
        if pixels.len() != width.checked_mul(height)? {
            return None;
        }
        GrayImage::from_vec(width, height, pixels).ok()
    }
}

impl Durable for ig_imaging::BBox {
    fn encode_durable(&self, enc: &mut Enc) {
        enc.put_f32(self.x);
        enc.put_f32(self.y);
        enc.put_f32(self.w);
        enc.put_f32(self.h);
    }

    fn decode_durable(dec: &mut Dec<'_>) -> Option<Self> {
        Some(ig_imaging::BBox {
            x: dec.f32()?,
            y: dec.f32()?,
            w: dec.f32()?,
            h: dec.f32()?,
        })
    }
}

impl Durable for TaskType {
    fn encode_durable(&self, enc: &mut Enc) {
        match self {
            TaskType::Binary => enc.put_u8(0),
            TaskType::MultiClass(k) => {
                enc.put_u8(1);
                enc.put_usize(*k);
            }
        }
    }

    fn decode_durable(dec: &mut Dec<'_>) -> Option<Self> {
        match dec.u8()? {
            0 => Some(TaskType::Binary),
            1 => Some(TaskType::MultiClass(dec.usize_()?)),
            _ => None,
        }
    }
}

impl<T: Durable> Durable for Vec<T> {
    fn encode_durable(&self, enc: &mut Enc) {
        enc.put_usize(self.len());
        for item in self {
            item.encode_durable(enc);
        }
    }

    fn decode_durable(dec: &mut Dec<'_>) -> Option<Self> {
        let len = dec.usize_()?;
        // Every element costs at least one byte on the wire; a length
        // prefix larger than the remaining buffer is malformed, and this
        // check keeps allocation bounded by the input size.
        if len > dec.remaining() {
            return None;
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode_durable(dec)?);
        }
        Some(out)
    }
}

impl Durable for LabeledImage {
    fn encode_durable(&self, enc: &mut Enc) {
        self.image.encode_durable(enc);
        enc.put_usize(self.label);
        self.defect_boxes.encode_durable(enc);
        enc.put_bool(self.noisy);
        enc.put_bool(self.difficult);
    }

    fn decode_durable(dec: &mut Dec<'_>) -> Option<Self> {
        Some(LabeledImage {
            image: GrayImage::decode_durable(dec)?,
            label: dec.usize_()?,
            defect_boxes: Vec::decode_durable(dec)?,
            noisy: dec.bool_()?,
            difficult: dec.bool_()?,
        })
    }
}

impl Durable for Dataset {
    fn encode_durable(&self, enc: &mut Enc) {
        enc.put_str(&self.name);
        self.task.encode_durable(enc);
        self.images.encode_durable(enc);
    }

    fn decode_durable(dec: &mut Dec<'_>) -> Option<Self> {
        Some(Dataset {
            name: dec.str_()?.to_string(),
            task: TaskType::decode_durable(dec)?,
            images: Vec::decode_durable(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        let mut enc = Enc::new();
        enc.put_u8(7);
        enc.put_u32(0xdead_beef);
        enc.put_u64(u64::MAX - 3);
        enc.put_usize(12345);
        enc.put_bool(true);
        enc.put_f32(-0.0);
        enc.put_bytes(b"abc");
        enc.put_str("svamp");
        enc.put_f32s(&[1.5, f32::NAN, -2.25]);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.u8(), Some(7));
        assert_eq!(dec.u32(), Some(0xdead_beef));
        assert_eq!(dec.u64(), Some(u64::MAX - 3));
        assert_eq!(dec.usize_(), Some(12345));
        assert_eq!(dec.bool_(), Some(true));
        assert_eq!(dec.f32().map(f32::to_bits), Some((-0.0f32).to_bits()));
        assert_eq!(dec.bytes(), Some(b"abc".as_slice()));
        assert_eq!(dec.str_(), Some("svamp"));
        let f = dec.f32s().unwrap_or_default();
        assert_eq!(f.len(), 3);
        assert!(f[1].is_nan());
        assert!(dec.done());
    }

    #[test]
    fn underrun_returns_none_not_panic() {
        let mut dec = Dec::new(&[1, 2, 3]);
        assert_eq!(dec.u64(), None);
        let mut dec = Dec::new(&[255]);
        assert_eq!(dec.bool_(), None, "non-0/1 bool byte rejected");
        // Length prefix far beyond the buffer: rejected before allocating.
        let mut enc = Enc::new();
        enc.put_usize(usize::MAX / 2);
        let huge = enc.into_bytes();
        assert_eq!(Dec::new(&huge).bytes(), None);
        assert!(Dec::new(&huge).f32s().is_none());
    }

    #[test]
    fn matrix_round_trip_is_bit_identical() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32 * 0.125 - 1.0);
        let bytes = m.to_bytes();
        let back = Matrix::from_bytes(&bytes).unwrap_or_else(|| Matrix::from_vec(0, 0, vec![]));
        assert_eq!((back.rows(), back.cols()), (3, 5));
        for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn matrix_shape_mismatch_rejected() {
        let m = Matrix::from_fn(2, 2, |_, _| 1.0);
        let mut bytes = m.to_bytes();
        // Corrupt the row count: 2 -> 3 (first u64 little-endian).
        if let Some(b) = bytes.first_mut() {
            *b = 3;
        }
        assert!(Matrix::from_bytes(&bytes).is_none());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let m = Matrix::from_fn(1, 1, |_, _| 0.5);
        let mut bytes = m.to_bytes();
        bytes.push(0);
        assert!(Matrix::from_bytes(&bytes).is_none());
    }

    #[test]
    fn dataset_round_trip_is_bit_identical() {
        let spec = ig_synth::spec::DatasetSpec::quick(ig_synth::spec::DatasetKind::Ksdd, 11);
        let dataset = ig_synth::generate(&spec);
        let bytes = dataset.to_bytes();
        let back = match Dataset::from_bytes(&bytes) {
            Some(d) => d,
            None => panic!("dataset payload failed to decode"),
        };
        assert_eq!(back.name, dataset.name);
        assert_eq!(back.task, dataset.task);
        assert_eq!(back.images.len(), dataset.images.len());
        for (a, b) in dataset.images.iter().zip(&back.images) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.noisy, b.noisy);
            assert_eq!(a.difficult, b.difficult);
            assert_eq!(a.defect_boxes.len(), b.defect_boxes.len());
            assert_eq!(a.image.dims(), b.image.dims());
            for (pa, pb) in a.image.pixels().iter().zip(b.image.pixels()) {
                assert_eq!(pa.to_bits(), pb.to_bits());
            }
        }
    }

    #[test]
    fn truncated_dataset_rejected_at_every_length() {
        let spec = ig_synth::spec::DatasetSpec::quick(ig_synth::spec::DatasetKind::Neu, 3);
        let dataset = ig_synth::generate(&spec);
        let bytes = dataset.to_bytes();
        // Cutting the payload anywhere must fail cleanly. Step through a
        // spread of prefixes rather than every byte (the payload is large).
        let step = (bytes.len() / 97).max(1);
        let mut cut = 0;
        while cut < bytes.len() {
            assert!(
                Dataset::from_bytes(&bytes[..cut]).is_none(),
                "truncation at {cut} accepted"
            );
            cut += step;
        }
    }
}
