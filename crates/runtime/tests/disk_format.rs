//! Property tests for the durable tier's serialization surface: the
//! artifact file format must round-trip arbitrary payloads bit for bit
//! through [`DiskStore::save`] and [`DiskStore::load`], and any damage —
//! a truncated (torn) file or a single flipped bit anywhere in the file,
//! header or payload — must be rejected, quarantined and recorded, never
//! mis-decoded. The typed codec ([`Enc`]/[`Dec`]/[`Durable`]) gets the
//! same treatment over [`Matrix`] and [`GrayImage`] artifacts.

use std::sync::atomic::{AtomicUsize, Ordering};

use ig_check::{ensure, ensure_eq, properties};
use ig_faults::{FaultKind, HealthReport, RecoveryAction};
use ig_imaging::GrayImage;
use ig_nn::Matrix;
use ig_runtime::{Dec, DiskStore, Durable, Enc, Fingerprint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fresh store root per property case: pid separates parallel test
/// binaries, the counter separates cases within this one.
fn fresh_store() -> DiskStore {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let root = std::env::temp_dir().join(format!("ig-fmt-{}-{case}", std::process::id()));
    match std::fs::remove_dir_all(&root) {
        // First use of this case number: nothing to clear.
        Ok(()) | Err(_) => {}
    }
    match DiskStore::open(root) {
        Ok(store) => store,
        Err(e) => panic!("store open failed: {e}"),
    }
}

fn read_artifact(store: &DiskStore, id: &str, fp: Fingerprint) -> Vec<u8> {
    match std::fs::read(store.artifact_path(id, fp)) {
        Ok(bytes) => bytes,
        Err(e) => panic!("artifact unreadable: {e}"),
    }
}

fn write_artifact(store: &DiskStore, id: &str, fp: Fingerprint, bytes: &[u8]) {
    match std::fs::write(store.artifact_path(id, fp), bytes) {
        Ok(()) => {}
        Err(e) => panic!("artifact unwritable: {e}"),
    }
}

properties! {
    cases = 48;

    /// Arbitrary payloads (including empty) round-trip bit for bit.
    fn any_payload_round_trips(g) {
        let payload = g.vec(0..2048, |g| g.gen::<u8>());
        let lo = g.gen::<u64>();
        let hi = g.gen::<u64>();
        let store = fresh_store();
        let health = HealthReport::new();
        let fp = Fingerprint { lo, hi };
        ensure!(store.save("prop.payload", fp, &payload, None, &health));
        ensure_eq!(store.load("prop.payload", fp, &health), Some(payload));
        ensure!(health.is_clean());
    }

    /// A file truncated at any prefix length is rejected and quarantined.
    fn truncated_artifact_is_rejected(g) {
        let payload = g.vec(1..512, |g| g.gen::<u8>());
        let store = fresh_store();
        let health = HealthReport::new();
        let fp = Fingerprint { lo: 7, hi: 9 };
        ensure!(store.save("prop.torn", fp, &payload, None, &health));
        let bytes = read_artifact(&store, "prop.torn", fp);
        write_artifact(&store, "prop.torn", fp, &bytes[..g.gen_range(0..bytes.len())]);
        ensure_eq!(store.load("prop.torn", fp, &health), None);
        ensure_eq!(health.count(FaultKind::ArtifactCorruption), 1);
        ensure_eq!(health.count_action(RecoveryAction::QuarantinedArtifact), 1);
        ensure_eq!(store.stats().quarantined, 1);
        // The quarantine emptied the slot: the next load is a plain miss.
        ensure_eq!(store.load("prop.torn", fp, &health), None);
        ensure_eq!(store.stats().quarantined, 1);
    }

    /// One flipped bit anywhere — magic, header fields, length prefixes,
    /// checksum or payload — is rejected, never served.
    fn any_single_bit_flip_is_rejected(g) {
        let payload = g.vec(1..512, |g| g.gen::<u8>());
        let bit = g.gen_range(0u8..8);
        let store = fresh_store();
        let health = HealthReport::new();
        let fp = Fingerprint { lo: 3, hi: 5 };
        ensure!(store.save("prop.flip", fp, &payload, None, &health));
        let mut bytes = read_artifact(&store, "prop.flip", fp);
        let at = g.gen_range(0..bytes.len());
        bytes[at] ^= 1 << bit;
        write_artifact(&store, "prop.flip", fp, &bytes);
        ensure_eq!(store.load("prop.flip", fp, &health), None);
        ensure_eq!(health.count(FaultKind::ArtifactCorruption), 1);
    }

    /// Typed codec: matrices round-trip bit-identically, and truncating
    /// the encoding at any prefix is rejected by [`Durable::from_bytes`].
    fn matrix_codec_round_trips_and_rejects_truncation(g) {
        let rows = g.gen_range(1usize..6);
        let cols = g.gen_range(1usize..6);
        let seed = g.gen::<u64>();
        let mut rng = StdRng::seed_from_u64(seed);
        let m = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-4.0f32..4.0));
        let bytes = m.to_bytes();
        match Matrix::from_bytes(&bytes) {
            Some(back) => ensure_eq!(back.as_slice(), m.as_slice()),
            None => ensure!(false, "encoded matrix failed to decode"),
        }
        let cut_at = g.gen_range(0..bytes.len());
        ensure!(Matrix::from_bytes(&bytes[..cut_at]).is_none());
    }

    /// Typed codec: images round-trip bit-identically; a flipped bit in
    /// the dimensions header cannot smuggle in a misshapen image.
    fn image_codec_round_trips(g) {
        let (w, h, seed) = (g.gen_range(1usize..12), g.gen_range(1usize..12), g.gen::<u64>());
        let mut rng = StdRng::seed_from_u64(seed);
        let img = GrayImage::from_fn(w, h, |_, _| rng.gen_range(0.0f32..1.0));
        let bytes = img.to_bytes();
        match GrayImage::from_bytes(&bytes) {
            Some(back) => {
                ensure_eq!(back.width(), w);
                ensure_eq!(back.height(), h);
                ensure_eq!(back.pixels(), img.pixels());
            }
            None => ensure!(false, "encoded image failed to decode"),
        }
        // Doubling the declared width makes pixel count inconsistent.
        let mut tampered = Enc::new();
        tampered.put_usize(w * 2);
        tampered.put_usize(h);
        tampered.put_f32s(img.pixels());
        ensure!(GrayImage::from_bytes(&tampered.into_bytes()).is_none());
    }

    /// Trailing garbage after a valid encoding is rejected: a durable
    /// payload is exactly one artifact, not a prefix of one.
    fn trailing_bytes_are_rejected(g) {
        let extra = g.gen_range(1usize..16);
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut bytes = m.to_bytes();
        bytes.extend(std::iter::repeat_n(0u8, extra));
        ensure!(Matrix::from_bytes(&bytes).is_none());
    }
}

/// The low-level decoder never reads past its input: every accessor on an
/// exhausted cursor is `None`, not a panic.
#[test]
fn decoder_is_total_on_underrun() {
    let mut enc = Enc::new();
    enc.put_u64(42);
    let bytes = enc.into_bytes();
    for cut in 0..bytes.len() {
        let mut dec = Dec::new(&bytes[..cut]);
        assert!(dec.u64().is_none());
    }
    let mut dec = Dec::new(&bytes);
    assert_eq!(dec.u64(), Some(42));
    assert!(dec.done());
}
