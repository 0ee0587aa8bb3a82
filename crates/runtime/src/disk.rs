//! Crash-safe on-disk tier of the artifact store.
//!
//! A [`DiskStore`] persists encoded stage outputs under a root directory
//! (by convention `results/store/`), one file per artifact at
//! `<root>/<stage-id>/<fingerprint>.art`. The layout is content-addressed
//! by the same `(stage id, fingerprint, seed, plan)` key the in-memory
//! [`crate::ArtifactStore`] uses, so a disk hit is only possible when
//! replaying the exact computation that wrote the file.
//!
//! Durability protocol, in order:
//!
//! 1. writes go to a pid-tagged temp file in the same directory,
//! 2. the temp file is flushed with `sync_all` (data reaches the medium
//!    before the name does),
//! 3. the temp file is atomically renamed onto the final name,
//! 4. the parent directory is fsynced so the rename itself survives a
//!    crash.
//!
//! A crash at any point leaves either the old state or the new state,
//! never a half-written artifact under the final name — and leftover temp
//! files from dead writers are swept on [`DiskStore::open`].
//!
//! Every load re-verifies the full header (magic, version, stage id, key
//! fingerprint) and a 128-bit payload checksum. Anything that fails —
//! torn file, flipped bit, key mismatch — is moved into the
//! `_quarantine/` subdirectory, recorded in the [`HealthReport`] as an
//! [`FaultKind::ArtifactCorruption`], and reported as a miss so the
//! caller transparently recomputes. A corrupt artifact is therefore
//! *evidence*, never served.
//!
//! Writes happen only through [`DiskStore::save`], which takes no lock:
//! the store is read-through, and a durable stage's miss computes the
//! output and saves it. Two processes racing on the same key both compute
//! it, but the store is content-addressed, so they write identical bytes
//! and the last atomic rename wins — a race is a wasted write, never
//! corruption.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ig_faults::{FaultKind, FaultPlan, HealthReport, RecoveryAction, Stage};

use crate::codec::{Dec, Enc};
use crate::fingerprint::{Fingerprint, FingerprintHasher};

/// First 8 bytes of every artifact file ("IGSTORE1" as a big-endian word).
const MAGIC: u64 = 0x4947_5354_4f52_4531;
/// On-disk format version; bumped on any layout change so older readers
/// quarantine rather than misparse.
const VERSION: u32 = 1;
/// Subdirectory corrupt artifacts are moved into.
const QUARANTINE_DIR: &str = "_quarantine";

/// Counters describing one store's disk traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskStats {
    /// Loads served from a verified on-disk artifact.
    pub hits: u64,
    /// Loads that found nothing usable (absent or quarantined).
    pub misses: u64,
    /// Artifacts durably written.
    pub writes: u64,
    /// Artifacts moved to quarantine after failing verification.
    pub quarantined: u64,
}

/// Content-addressed, crash-safe artifact directory (see module docs).
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    quarantined: AtomicU64,
}

impl DiskStore {
    /// Open (creating if needed) a store rooted at `root`, sweeping temp
    /// files left behind by dead writers.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<DiskStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        fs::create_dir_all(root.join(QUARANTINE_DIR))?;
        let store = DiskStore {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        };
        store.sweep_dead_writers()?;
        Ok(store)
    }

    /// Root directory this store persists under.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    /// Final path of the artifact for `(id, fp)`.
    pub fn artifact_path(&self, id: &str, fp: Fingerprint) -> PathBuf {
        let dir: String = id
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        self.root
            .join(dir)
            .join(format!("{:016x}{:016x}.art", fp.lo, fp.hi))
    }

    /// Load and verify the artifact for `(id, fp)`. Returns the payload
    /// bytes on success; on any verification failure the file is
    /// quarantined, the fault recorded in `health`, and `None` returned
    /// so the caller recomputes.
    pub fn load(&self, id: &str, fp: Fingerprint, health: &HealthReport) -> Option<Vec<u8>> {
        let path = self.artifact_path(id, fp);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(e) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                health.record(
                    Stage::Store,
                    FaultKind::StoreIoError,
                    RecoveryAction::NoneRequired,
                    format!("read {}: {e}", path.display()),
                );
                return None;
            }
        };
        match parse_artifact(id, fp, &bytes) {
            Ok(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            Err(reason) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.quarantine(&path, id, fp, reason, health);
                None
            }
        }
    }

    /// Durably write the payload of the artifact for `(id, fp)`. Returns
    /// `true` when the artifact reached disk, `false` on an I/O error
    /// (recorded in `health`). `plan` injects the durability fault classes
    /// — torn writes and payload bit flips — deterministically keyed by
    /// the artifact fingerprint.
    pub fn save(
        &self,
        id: &str,
        fp: Fingerprint,
        payload: &[u8],
        plan: Option<&FaultPlan>,
        health: &HealthReport,
    ) -> bool {
        let path = self.artifact_path(id, fp);
        let mut bytes = compose_artifact(id, fp, payload);
        inject_write_faults(&mut bytes, fp, plan);
        let written = path
            .parent()
            .map_or(Ok(()), fs::create_dir_all)
            .and_then(|()| self.write_atomic(&path, &bytes));
        match written {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(e) => {
                self.record_io(health, &path, "write", &e);
                false
            }
        }
    }

    /// Temp-file + fsync + atomic-rename + directory-fsync write.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = tmp_path(path);
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        // Data must be on the medium before the rename publishes the name;
        // otherwise a crash could expose a name pointing at missing bytes.
        file.sync_all()?;
        drop(file);
        if let Err(e) = fs::rename(&tmp, path) {
            // The temp file is ours (pid-tagged); don't leave it behind.
            match fs::remove_file(&tmp) {
                Ok(()) | Err(_) => {} // already reporting the rename error
            }
            return Err(e);
        }
        // Persist the rename itself.
        if let Some(dir) = path.parent() {
            File::open(dir)?.sync_all()?;
        }
        Ok(())
    }

    /// Quarantine the artifact for `(id, fp)` from outside the verify
    /// path — used by the runtime when a payload passes checksum
    /// verification but cannot be decoded (an incompatible codec is as
    /// unusable as a torn file).
    pub fn quarantine_artifact(
        &self,
        id: &str,
        fp: Fingerprint,
        reason: &'static str,
        health: &HealthReport,
    ) {
        let path = self.artifact_path(id, fp);
        self.quarantine(&path, id, fp, reason, health);
    }

    /// Move a failed artifact aside and record the corruption.
    fn quarantine(
        &self,
        path: &Path,
        id: &str,
        fp: Fingerprint,
        reason: &'static str,
        health: &HealthReport,
    ) {
        // ig-lint: allow(atomic-ordering) -- ticket counter: the returned
        // sequence number only has to be unique per quarantine filename;
        // no memory is published through it
        let seq = self.quarantined.fetch_add(1, Ordering::Relaxed);
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "artifact".to_string());
        let dest = self
            .root
            .join(QUARANTINE_DIR)
            .join(format!("{}-{seq}-{name}", std::process::id()));
        let moved = match fs::rename(path, &dest) {
            Ok(()) => true,
            // Rename across the store root cannot cross filesystems, so a
            // failure means the file vanished or the quarantine dir did;
            // deleting still gets the corrupt bytes out of the serving path.
            Err(_) => matches!(fs::remove_file(path), Ok(())),
        };
        health.record(
            Stage::Store,
            FaultKind::ArtifactCorruption,
            RecoveryAction::QuarantinedArtifact,
            format!(
                "{id} {:016x}{:016x}: {reason}{}",
                fp.lo,
                fp.hi,
                if moved { "" } else { " (file already gone)" },
            ),
        );
    }

    fn record_io(&self, health: &HealthReport, path: &Path, op: &str, e: &io::Error) {
        health.record(
            Stage::Store,
            FaultKind::StoreIoError,
            RecoveryAction::NoneRequired,
            format!("{op} {}: {e}", path.display()),
        );
    }

    /// Remove temp files whose writing pid is dead — leftovers of crashed
    /// writers. Live writers' temp files are left alone.
    fn sweep_dead_writers(&self) -> io::Result<()> {
        for entry in fs::read_dir(&self.root)? {
            let dir = entry?.path();
            if !dir.is_dir() || dir.ends_with(QUARANTINE_DIR) {
                continue;
            }
            for entry in fs::read_dir(&dir)? {
                let path = entry?.path();
                let name = match path.file_name() {
                    Some(n) => n.to_string_lossy().into_owned(),
                    None => continue,
                };
                let Some(rest) = name.strip_suffix(".tmp") else {
                    continue;
                };
                let owner = rest.rsplit('.').next().and_then(|p| p.parse::<u32>().ok());
                if owner.is_some_and(pid_alive) {
                    continue;
                }
                match fs::remove_file(&path) {
                    // A racing sweeper may have removed it already.
                    Ok(()) | Err(_) => {}
                }
            }
        }
        Ok(())
    }
}

/// Temp path in the artifact's directory (same filesystem, so the rename
/// is atomic), tagged with the writing thread and pid: two writers never
/// share a temp file, and the pid tag (last) lets `open` sweep dead
/// writers.
fn tmp_path(path: &Path) -> PathBuf {
    let thread = format!("{:?}", std::thread::current().id());
    let thread: String = thread.chars().filter(char::is_ascii_digit).collect();
    let mut name = path.as_os_str().to_owned();
    name.push(format!(".{thread}.{}.tmp", std::process::id()));
    PathBuf::from(name)
}

/// Is the process alive? Reads `/proc`; when procfs is unavailable the
/// answer is "dead", which at worst sweeps a live writer's temp file —
/// its rename then fails, and that write is lost, never corrupted.
fn pid_alive(pid: u32) -> bool {
    Path::new("/proc").join(pid.to_string()).exists()
}

/// 128-bit payload checksum (both fingerprint streams over the bytes).
fn checksum(payload: &[u8]) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_bytes(payload);
    h.finish()
}

/// Header + checksum + length-prefixed payload.
fn compose_artifact(id: &str, fp: Fingerprint, payload: &[u8]) -> Vec<u8> {
    let sum = checksum(payload);
    let mut enc = Enc::new();
    enc.put_u64(MAGIC);
    enc.put_u32(VERSION);
    enc.put_str(id);
    enc.put_u64(fp.lo);
    enc.put_u64(fp.hi);
    enc.put_u64(sum.lo);
    enc.put_u64(sum.hi);
    enc.put_bytes(payload);
    enc.into_bytes()
}

/// Verify every header field and the payload checksum; `Err` is the
/// human-readable reason recorded with the quarantined file.
fn parse_artifact(id: &str, fp: Fingerprint, bytes: &[u8]) -> Result<Vec<u8>, &'static str> {
    let mut dec = Dec::new(bytes);
    if dec.u64() != Some(MAGIC) {
        return Err("bad magic (not an artifact or torn header)");
    }
    if dec.u32() != Some(VERSION) {
        return Err("unsupported format version");
    }
    if dec.str_() != Some(id) {
        return Err("stage id mismatch");
    }
    if dec.u64() != Some(fp.lo) || dec.u64() != Some(fp.hi) {
        return Err("key fingerprint mismatch");
    }
    let sum = Fingerprint {
        lo: dec.u64().ok_or("truncated checksum")?,
        hi: dec.u64().ok_or("truncated checksum")?,
    };
    let payload = dec.bytes().ok_or("truncated payload")?;
    if !dec.done() {
        return Err("trailing bytes after payload");
    }
    if checksum(payload) != sum {
        return Err("payload checksum mismatch");
    }
    Ok(payload.to_vec())
}

/// Apply the plan's torn-write / bit-flip faults to the composed file
/// bytes (after the checksum was computed, so verification must catch it).
fn inject_write_faults(bytes: &mut Vec<u8>, fp: Fingerprint, plan: Option<&FaultPlan>) {
    let Some(plan) = plan else { return };
    if plan.torn_write(fp.lo) {
        // Lose the tail third, as if the medium dropped the last extents.
        let keep = bytes.len() - bytes.len() / 3;
        bytes.truncate(keep);
    } else if plan.artifact_bitflip(fp.lo) {
        // Flip one deterministic bit somewhere past the magic so the file
        // still parses far enough to reach verification.
        let lo = 12usize; // magic (8) + version (4)
        if bytes.len() > lo {
            let pos = lo + (fp.hi as usize) % (bytes.len() - lo);
            if let Some(byte) = bytes.get_mut(pos) {
                *byte ^= 1 << (fp.hi % 8);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Fingerprintable;

    fn temp_root(tag: &str) -> PathBuf {
        // Pid-tagged so parallel test binaries don't collide; the tag
        // separates tests within one binary.
        let root = std::env::temp_dir().join(format!("ig-disk-{tag}-{}", std::process::id()));
        match fs::remove_dir_all(&root) {
            Ok(()) | Err(_) => {}
        }
        root
    }

    fn open(tag: &str) -> DiskStore {
        match DiskStore::open(temp_root(tag)) {
            Ok(store) => store,
            Err(e) => panic!("open failed: {e}"),
        }
    }

    #[test]
    fn save_then_load_round_trips() {
        let store = open("roundtrip");
        let health = HealthReport::new();
        let fp = 1u64.fingerprint();
        let payload = b"artifact payload bytes".to_vec();
        assert!(store.save("test.stage", fp, &payload, None, &health));
        assert_eq!(store.load("test.stage", fp, &health), Some(payload));
        assert!(health.is_clean());
        let stats = store.stats();
        assert_eq!((stats.hits, stats.writes, stats.quarantined), (1, 1, 0));
    }

    #[test]
    fn absent_artifact_is_a_plain_miss() {
        let store = open("miss");
        let health = HealthReport::new();
        assert_eq!(store.load("test.stage", 2u64.fingerprint(), &health), None);
        assert!(health.is_clean(), "absence is not a fault");
        assert_eq!(store.stats().misses, 1);
    }

    #[test]
    fn flipped_bit_is_quarantined_and_recorded() {
        let store = open("bitflip");
        let health = HealthReport::new();
        let fp = 3u64.fingerprint();
        assert!(store.save("test.stage", fp, b"payload", None, &health));
        let path = store.artifact_path("test.stage", fp);
        let mut bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) => panic!("read back failed: {e}"),
        };
        // Flip one payload bit (last byte is inside the payload).
        if let Some(last) = bytes.last_mut() {
            *last ^= 0x10;
        }
        match fs::write(&path, &bytes) {
            Ok(()) => {}
            Err(e) => panic!("rewrite failed: {e}"),
        }
        assert_eq!(store.load("test.stage", fp, &health), None);
        assert!(!path.exists(), "corrupt file must leave the serving path");
        assert_eq!(health.count(FaultKind::ArtifactCorruption), 1);
        assert_eq!(health.count_action(RecoveryAction::QuarantinedArtifact), 1);
        assert_eq!(store.stats().quarantined, 1);
    }

    #[test]
    fn truncation_at_every_prefix_is_rejected() {
        let store = open("torn");
        let health = HealthReport::new();
        let fp = 4u64.fingerprint();
        assert!(store.save("test.stage", fp, b"0123456789abcdef", None, &health));
        let path = store.artifact_path("test.stage", fp);
        let full = match fs::read(&path) {
            Ok(b) => b,
            Err(e) => panic!("read back failed: {e}"),
        };
        for cut in 0..full.len() {
            assert!(
                parse_artifact("test.stage", fp, &full[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        assert!(parse_artifact("test.stage", fp, &full).is_ok());
    }

    #[test]
    fn key_and_id_mismatches_are_rejected() {
        let fp = 5u64.fingerprint();
        let bytes = compose_artifact("test.stage", fp, b"x");
        assert!(parse_artifact("other.stage", fp, &bytes).is_err());
        assert!(parse_artifact("test.stage", 6u64.fingerprint(), &bytes).is_err());
        assert!(parse_artifact("test.stage", fp, &bytes).is_ok());
    }

    #[test]
    fn torn_write_injector_produces_quarantine_on_load() {
        let store = open("inject-torn");
        let health = HealthReport::new();
        let plan = FaultPlan {
            torn_write_rate: 1.0,
            ..FaultPlan::default()
        };
        let fp = 7u64.fingerprint();
        assert!(store.save("test.stage", fp, b"payload", Some(&plan), &health));
        assert_eq!(store.load("test.stage", fp, &health), None);
        assert_eq!(health.count(FaultKind::ArtifactCorruption), 1);
        // After quarantine a clean rewrite serves again.
        assert!(store.save("test.stage", fp, b"payload", None, &health));
        assert_eq!(
            store.load("test.stage", fp, &health),
            Some(b"payload".to_vec())
        );
    }

    #[test]
    fn bitflip_injector_produces_quarantine_on_load() {
        let store = open("inject-flip");
        let health = HealthReport::new();
        let plan = FaultPlan {
            artifact_bitflip_rate: 1.0,
            ..FaultPlan::default()
        };
        let fp = 8u64.fingerprint();
        assert!(store.save("test.stage", fp, b"payload bytes", Some(&plan), &health));
        assert_eq!(store.load("test.stage", fp, &health), None);
        assert_eq!(health.count(FaultKind::ArtifactCorruption), 1);
    }

    #[test]
    fn open_sweeps_dead_writer_tmp_files() {
        let root = temp_root("sweep");
        let dir = root.join("test-stage");
        match fs::create_dir_all(&dir) {
            Ok(()) => {}
            Err(e) => panic!("setup failed: {e}"),
        }
        let dead = dir.join("0000.art.0.tmp"); // pid 0 is never alive
        let live = dir.join(format!("0001.art.{}.tmp", std::process::id()));
        match fs::write(&dead, b"x").and_then(|()| fs::write(&live, b"y")) {
            Ok(()) => {}
            Err(e) => panic!("setup failed: {e}"),
        }
        match DiskStore::open(&root) {
            Ok(_) => {}
            Err(e) => panic!("open failed: {e}"),
        }
        assert!(!dead.exists(), "dead writer's tmp file must be swept");
        assert!(live.exists(), "live writer's tmp file must survive");
    }

    #[test]
    fn cross_store_sharing_hits_the_same_file() {
        let root = temp_root("share");
        let health = HealthReport::new();
        let fp = 11u64.fingerprint();
        {
            let writer = match DiskStore::open(&root) {
                Ok(s) => s,
                Err(e) => panic!("open failed: {e}"),
            };
            assert!(writer.save("test.stage", fp, b"shared", None, &health));
        }
        let reader = match DiskStore::open(&root) {
            Ok(s) => s,
            Err(e) => panic!("open failed: {e}"),
        };
        assert_eq!(
            reader.load("test.stage", fp, &health),
            Some(b"shared".to_vec())
        );
        assert!(health.is_clean());
    }
}
