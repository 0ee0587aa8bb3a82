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
//! Writes happen only through [`DiskStore::begin_flight`], a
//! *single-flight* claim taken **before** an expensive stage executes.
//! The claim is an advisory pid lock file (`<name>.lock`): the first
//! process to create it becomes the producer ([`Flight::Producer`]) and
//! publishes through [`FlightGuard::publish`]; any other process asking
//! for the same key sleeps in short polls — counted as `flight_waits` —
//! until the producer publishes and unlocks, then reads the verified
//! artifact back ([`Flight::Ready`]) instead of recomputing. A lock whose
//! owning pid is dead is broken and recorded as [`FaultKind::StaleLock`],
//! and the claimant inherits the producer role — so two concurrent sweeps
//! over one store root warm-start from each other and every artifact is
//! computed by exactly one live process. Because the store is
//! content-addressed, two writers racing on the same key would write
//! identical bytes, so lock loss is a wasted write, never corruption.

use std::fs::{self, File, OpenOptions};
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
    /// Loads that found nothing usable (absent or quarantined). A flight
    /// that makes this process the producer of an absent artifact counts
    /// one miss, however many polls it waited.
    pub misses: u64,
    /// Artifacts durably written.
    pub writes: u64,
    /// Artifacts moved to quarantine after failing verification.
    pub quarantined: u64,
    /// Advisory locks broken because their owner was dead.
    pub locks_broken: u64,
    /// Poll sleeps spent waiting for another process's in-flight
    /// production of an artifact this process then read instead of
    /// recomputing (see [`DiskStore::begin_flight`]).
    pub flight_waits: u64,
}

/// Content-addressed, crash-safe artifact directory (see module docs).
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    quarantined: AtomicU64,
    locks_broken: AtomicU64,
    flight_waits: AtomicU64,
}

/// How long a flight waiter sleeps between polls of the producer's lock.
const FLIGHT_POLL: std::time::Duration = std::time::Duration::from_millis(5);
/// Upper bound on polls before a waiter gives up on the producer and
/// recomputes locally (~10 s). A correct-but-slow producer past this bound
/// costs one duplicate computation, never a wrong answer: the store is
/// content-addressed and writes are atomic renames.
const FLIGHT_MAX_POLLS: u64 = 2000;

/// Outcome of [`DiskStore::begin_flight`]: either this process owns
/// production of the artifact, or another process already produced it.
#[derive(Debug)]
pub enum Flight<'a> {
    /// This process holds the claim: compute the output, then
    /// [`FlightGuard::publish`] it (or drop the guard on failure, which
    /// releases the claim so another process can take over).
    Producer(FlightGuard<'a>),
    /// A verified artifact already exists (possibly published moments ago
    /// by another process this one waited on): decode these bytes.
    Ready(Vec<u8>),
}

/// RAII claim on producing one artifact. Holds the advisory lock file;
/// dropping without publishing removes the lock so waiters can claim.
#[derive(Debug)]
pub struct FlightGuard<'a> {
    store: &'a DiskStore,
    id: String,
    fp: Fingerprint,
    path: PathBuf,
    /// Whether this guard actually holds the lock file. An unarmed guard
    /// (claim failed on I/O error or wait timeout) still publishes — the
    /// write is atomic and content-addressed, so racing a live producer is
    /// a wasted write, never corruption — but removes no lock.
    armed: bool,
}

impl FlightGuard<'_> {
    /// Durably write the computed payload, then release the claim.
    /// Returns `true` when the artifact reached disk, `false` on an I/O
    /// error (recorded in `health`). `plan` injects the durability fault
    /// classes — torn writes and payload bit flips — deterministically
    /// keyed by the artifact fingerprint.
    pub fn publish(
        mut self,
        payload: &[u8],
        plan: Option<&FaultPlan>,
        health: &HealthReport,
    ) -> bool {
        let mut bytes = compose_artifact(&self.id, self.fp, payload);
        inject_write_faults(&mut bytes, self.fp, plan);
        let written = match self.store.write_atomic(&self.path, &bytes) {
            Ok(()) => {
                self.store.writes.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(e) => {
                self.store.record_io(health, &self.path, "write", &e);
                false
            }
        };
        self.release(Some(health));
        written
    }

    /// Remove the lock file if this guard holds it.
    fn release(&mut self, health: Option<&HealthReport>) {
        if !self.armed {
            return;
        }
        self.armed = false;
        let lock = lock_path(&self.path);
        match fs::remove_file(&lock) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => {
                if let Some(health) = health {
                    self.store.record_io(health, &lock, "unlock", &e);
                }
            }
        }
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        // Abandoned claim (stage failed or guard dropped unpublished):
        // release so a waiting process can inherit production instead of
        // polling until our pid dies. No health handle here; an unlikely
        // remove error degrades to the ordinary stale-lock ladder.
        self.release(None);
    }
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
            locks_broken: AtomicU64::new(0),
            flight_waits: AtomicU64::new(0),
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
            locks_broken: self.locks_broken.load(Ordering::Relaxed),
            flight_waits: self.flight_waits.load(Ordering::Relaxed),
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

    /// Claim single-flight production of the artifact for `(id, fp)`, or
    /// wait for the process that already claimed it (see module docs).
    ///
    /// The loop, in priority order: a verified artifact on disk wins
    /// immediately ([`Flight::Ready`]); otherwise the first process to
    /// create the lock file becomes the producer ([`Flight::Producer`]);
    /// a lock owned by a dead pid is broken through the ordinary
    /// stale-lock ladder inside `acquire_lock`; a lock owned by a
    /// live pid puts this process to sleep in short polls, counted in
    /// `flight_waits`, re-checking the artifact each round. I/O errors and
    /// wait timeouts degrade to an *unarmed* producer: the caller computes
    /// locally and publishing stays safe because writes are atomic and
    /// content-addressed. `plan` plants a dead-pid lock before the first
    /// claim, once no artifact was found to serve (torn writes and bit
    /// flips are injected at [`FlightGuard::publish`] time). Becoming the
    /// producer counts one miss for the flight.
    pub fn begin_flight(
        &self,
        id: &str,
        fp: Fingerprint,
        plan: Option<&FaultPlan>,
        health: &HealthReport,
    ) -> Flight<'_> {
        let path = self.artifact_path(id, fp);
        let guard = |armed| FlightGuard {
            store: self,
            id: id.to_string(),
            fp,
            path: path.clone(),
            armed,
        };
        if let Some(dir) = path.parent() {
            if let Err(e) = fs::create_dir_all(dir) {
                self.record_io(health, &path, "create dir", &e);
                return self.produce(guard(false), false);
            }
        }
        // Fault injection: plant a lock owned by a dead pid so the claim
        // below must detect and break it before producing. Planted only
        // once the artifact is known to be absent: a `Ready` read takes
        // no lock, so nothing would ever remove it.
        let mut plant = plan.is_some_and(|p| p.stale_lock(fp.lo));
        let lock = lock_path(&path);
        let mut polls = 0u64;
        // Set once a load in this flight quarantined a corrupt file: that
        // load already counted the flight's miss.
        let mut missed = false;
        loop {
            // An existing artifact beats any claim — including one this
            // process could take: a waiter whose producer just published
            // lands here on its re-check. Guard with `exists` so polling
            // does not inflate the miss counter every 5 ms.
            if path.exists() {
                if let Some(bytes) = self.load(id, fp, health) {
                    return Flight::Ready(bytes);
                }
                // Verification failed: the file was quarantined and the
                // serving path is clear again — fall through to claim.
                missed = true;
            }
            if std::mem::take(&mut plant) {
                self.plant_stale_lock(&path);
            }
            match self.acquire_lock(&lock, health) {
                Ok(true) => {
                    // Double-check under the lock: the producer this
                    // process raced may have published between the
                    // exists() probe above and this acquisition. Serving
                    // the fresh artifact beats recomputing it.
                    let mut claimed = guard(true);
                    if path.exists() {
                        if let Some(bytes) = self.load(id, fp, health) {
                            claimed.release(Some(health));
                            return Flight::Ready(bytes);
                        }
                        missed = true;
                    }
                    return self.produce(claimed, missed);
                }
                Ok(false) => {
                    // A live producer holds the claim: wait for it.
                    if polls >= FLIGHT_MAX_POLLS {
                        return self.produce(guard(false), missed);
                    }
                    polls += 1;
                    self.flight_waits.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(FLIGHT_POLL);
                }
                Err(e) => {
                    self.record_io(health, &lock, "flight claim", &e);
                    return self.produce(guard(false), missed);
                }
            }
        }
    }

    /// Hand production to the caller, counting the flight's one miss
    /// unless a quarantining load in this flight already counted it.
    fn produce<'a>(&'a self, claim: FlightGuard<'a>, missed: bool) -> Flight<'a> {
        if !missed {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        Flight::Producer(claim)
    }

    /// Try to take the advisory lock. `Ok(true)` = acquired, `Ok(false)` =
    /// held by a live process (wait for it).
    fn acquire_lock(&self, lock: &Path, health: &HealthReport) -> io::Result<bool> {
        // Two attempts: the second after breaking a stale lock.
        for _ in 0..2 {
            match OpenOptions::new().write(true).create_new(true).open(lock) {
                Ok(mut file) => {
                    // Stamping can fail (disk full, injected fault) after the
                    // lock file already exists. Propagating without removing
                    // it would leave a lock owned by this *live* pid, which
                    // the stale-lock breaker refuses to reclaim — every later
                    // flight for the key from this process would wait on it.
                    let stamped = file
                        .write_all(std::process::id().to_string().as_bytes())
                        .and_then(|()| file.sync_all());
                    match stamped {
                        Ok(()) => return Ok(true),
                        Err(e) => {
                            drop(file);
                            if let Err(rm) = fs::remove_file(lock) {
                                self.record_io(health, lock, "unlock", &rm);
                            }
                            return Err(e);
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let owner = match fs::read_to_string(lock) {
                        Ok(content) => content.trim().parse::<u32>().ok(),
                        // Racing unlock: the file vanished between the
                        // create attempt and the read. Retry the create.
                        Err(_) => continue,
                    };
                    if owner.is_some_and(pid_alive) {
                        return Ok(false);
                    }
                    // Owner is dead (or the lock content is garbage, which
                    // no live writer produces): break it.
                    // On failure a racing breaker got there first; retry
                    // the create.
                    if let Ok(()) = fs::remove_file(lock) {
                        self.locks_broken.fetch_add(1, Ordering::Relaxed);
                        // Store-root-relative name: the event detail
                        // must not depend on where the store lives,
                        // or resumed runs' serialized health events
                        // would differ from the reference run's.
                        let shown = lock.strip_prefix(&self.root).unwrap_or(lock);
                        health.record(
                            Stage::Store,
                            FaultKind::StaleLock,
                            RecoveryAction::BrokeStaleLock,
                            format!(
                                "{} owned by dead pid {}",
                                shown.display(),
                                owner.map_or_else(|| "?".to_string(), |p| p.to_string()),
                            ),
                        );
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(false)
    }

    /// Drop a lock file owned by pid 0 (never alive) next to `path`,
    /// simulating a writer that died without unlocking.
    fn plant_stale_lock(&self, path: &Path) {
        let lock = lock_path(path);
        // A lock already present is itself the condition under test.
        if let Ok(mut file) = OpenOptions::new().write(true).create_new(true).open(&lock) {
            match file.write_all(b"0") {
                Ok(()) | Err(_) => {} // empty lock content also reads as stale
            }
        }
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

/// Advisory lock path for an artifact path.
fn lock_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".lock");
    PathBuf::from(name)
}

/// Pid-tagged temp path in the artifact's directory (same filesystem, so
/// the rename is atomic; the pid tag lets `open` sweep dead writers).
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(format!(".{}.tmp", std::process::id()));
    PathBuf::from(name)
}

/// Is the process alive? Reads `/proc`; when procfs is unavailable the
/// answer is "dead", which at worst breaks a live lock — harmless here,
/// because content-addressed writers racing on one key write identical
/// bytes through an atomic rename.
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

    /// Write `payload` the only way the store writes: claim the flight
    /// and publish. `false` when the artifact was already on disk.
    fn publish(
        store: &DiskStore,
        fp: Fingerprint,
        payload: &[u8],
        plan: Option<&FaultPlan>,
        health: &HealthReport,
    ) -> bool {
        match store.begin_flight("test.stage", fp, plan, health) {
            Flight::Producer(claim) => claim.publish(payload, plan, health),
            Flight::Ready(_) => false,
        }
    }

    #[test]
    fn publish_then_load_round_trips() {
        let store = open("roundtrip");
        let health = HealthReport::new();
        let fp = 1u64.fingerprint();
        let payload = b"artifact payload bytes".to_vec();
        assert!(publish(&store, fp, &payload, None, &health));
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
        assert!(publish(&store, fp, b"payload", None, &health));
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
        assert!(publish(&store, fp, b"0123456789abcdef", None, &health));
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
        assert!(publish(&store, fp, b"payload", Some(&plan), &health));
        assert_eq!(store.load("test.stage", fp, &health), None);
        assert_eq!(health.count(FaultKind::ArtifactCorruption), 1);
        // After quarantine a clean rewrite serves again.
        assert!(publish(&store, fp, b"payload", None, &health));
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
        assert!(publish(&store, fp, b"payload bytes", Some(&plan), &health));
        assert_eq!(store.load("test.stage", fp, &health), None);
        assert_eq!(health.count(FaultKind::ArtifactCorruption), 1);
    }

    #[test]
    fn stale_lock_is_broken_and_recorded() {
        let store = open("stale-lock");
        let health = HealthReport::new();
        let plan = FaultPlan {
            stale_lock_rate: 1.0,
            ..FaultPlan::default()
        };
        let fp = 9u64.fingerprint();
        // The planted dead-pid lock must be detected, broken, and the
        // write must then proceed.
        assert!(publish(&store, fp, b"payload", Some(&plan), &health));
        assert_eq!(health.count(FaultKind::StaleLock), 1);
        assert_eq!(health.count_action(RecoveryAction::BrokeStaleLock), 1);
        assert_eq!(store.stats().locks_broken, 1);
        assert_eq!(
            store.load("test.stage", fp, &health),
            Some(b"payload".to_vec())
        );
    }

    #[test]
    fn stale_lock_over_a_published_artifact_is_not_planted() {
        let store = open("stale-lock-ready");
        let health = HealthReport::new();
        let fp = 10u64.fingerprint();
        assert!(publish(&store, fp, b"payload", None, &health));
        let plan = FaultPlan {
            stale_lock_rate: 1.0,
            ..FaultPlan::default()
        };
        let flight = store.begin_flight("test.stage", fp, Some(&plan), &health);
        assert!(
            matches!(&flight, Flight::Ready(bytes) if bytes == b"payload"),
            "artifact on disk must short-circuit the claim"
        );
        let lock = lock_path(&store.artifact_path("test.stage", fp));
        assert!(!lock.exists(), "a Ready read must leave no lock behind");
        assert_eq!(health.count(FaultKind::StaleLock), 0);
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
    fn flight_over_an_existing_artifact_is_ready_immediately() {
        let store = open("flight-ready");
        let health = HealthReport::new();
        let fp = 12u64.fingerprint();
        assert!(publish(&store, fp, b"already here", None, &health));
        match store.begin_flight("test.stage", fp, None, &health) {
            Flight::Ready(bytes) => assert_eq!(bytes, b"already here"),
            Flight::Producer(_) => panic!("artifact on disk must short-circuit the claim"),
        }
        assert_eq!(store.stats().flight_waits, 0, "no producer to wait on");
    }

    #[test]
    fn flight_producer_publishes_and_releases_the_lock() {
        let store = open("flight-produce");
        let health = HealthReport::new();
        let fp = 13u64.fingerprint();
        let guard = match store.begin_flight("test.stage", fp, None, &health) {
            Flight::Producer(guard) => guard,
            Flight::Ready(_) => panic!("empty store cannot be ready"),
        };
        let lock = lock_path(&store.artifact_path("test.stage", fp));
        assert!(
            lock.exists(),
            "producer must hold the claim while computing"
        );
        assert!(guard.publish(b"produced", None, &health));
        assert!(!lock.exists(), "publish must release the claim");
        assert_eq!(
            store.load("test.stage", fp, &health),
            Some(b"produced".to_vec())
        );
        assert!(health.is_clean());
    }

    #[test]
    fn abandoned_flight_releases_the_claim_for_the_next_caller() {
        let store = open("flight-abandon");
        let health = HealthReport::new();
        let fp = 14u64.fingerprint();
        match store.begin_flight("test.stage", fp, None, &health) {
            Flight::Producer(guard) => drop(guard), // stage failed: publish nothing
            Flight::Ready(_) => panic!("empty store cannot be ready"),
        }
        // The next claimant inherits production instead of waiting.
        match store.begin_flight("test.stage", fp, None, &health) {
            Flight::Producer(_) => {}
            Flight::Ready(_) => panic!("nothing was published"),
        }
        assert_eq!(store.stats().flight_waits, 0, "no live producer to wait on");
    }

    #[test]
    fn flight_breaks_a_dead_producers_lock_and_inherits() {
        let store = open("flight-dead");
        let health = HealthReport::new();
        let fp = 15u64.fingerprint();
        let path = store.artifact_path("test.stage", fp);
        let Some(dir) = path.parent() else {
            panic!("artifact path has no parent");
        };
        match fs::create_dir_all(dir).and_then(|()| fs::write(lock_path(&path), "0")) {
            Ok(()) => {}
            Err(e) => panic!("setup failed: {e}"),
        }
        match store.begin_flight("test.stage", fp, None, &health) {
            Flight::Producer(_) => {}
            Flight::Ready(_) => panic!("nothing was published"),
        }
        assert_eq!(store.stats().locks_broken, 1);
        assert_eq!(health.count(FaultKind::StaleLock), 1);
    }

    #[test]
    fn waiter_sleeps_until_the_producer_publishes_then_reads() {
        let store = open("flight-wait");
        let fp = 16u64.fingerprint();
        std::thread::scope(|scope| {
            let producer = scope.spawn(|| {
                let health = HealthReport::new();
                let guard = match store.begin_flight("test.stage", fp, None, &health) {
                    Flight::Producer(guard) => guard,
                    Flight::Ready(_) => return false,
                };
                // Hold the claim long enough that the waiter provably
                // sleeps at least once before we publish.
                std::thread::sleep(std::time::Duration::from_millis(30));
                guard.publish(b"from producer", None, &health)
            });
            // Let the producer take the lock first.
            std::thread::sleep(std::time::Duration::from_millis(10));
            let health = HealthReport::new();
            match store.begin_flight("test.stage", fp, None, &health) {
                Flight::Ready(bytes) => assert_eq!(bytes, b"from producer"),
                // The waiter must not inherit production from a live
                // producer in this process (same pid, provably alive).
                Flight::Producer(_) => panic!("waiter stole a live claim"),
            }
            match producer.join() {
                Ok(published) => assert!(published, "producer failed to publish"),
                Err(_) => panic!("producer panicked"),
            }
        });
        let stats = store.stats();
        assert!(
            stats.flight_waits > 0,
            "waiter must have slept at least one poll"
        );
        assert_eq!(
            stats.misses, 1,
            "one miss for the producer's flight, none for the waiter's polls"
        );
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
            assert!(publish(&writer, fp, b"shared", None, &health));
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
