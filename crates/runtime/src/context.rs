//! [`RunContext`]: the single carrier of run-wide discipline.

#[cfg(debug_assertions)]
use std::collections::BTreeMap;
use std::sync::Arc;
#[cfg(debug_assertions)]
use std::sync::Mutex;

use ig_faults::{FaultPlan, HealthReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::disk::DiskStore;
use crate::fingerprint::{Fingerprint, FingerprintHasher, Fingerprintable};
use crate::stage::Stage;
use crate::store::ArtifactStore;

/// Debug-build salt ledger: the runtime mirror of ig-lint's static
/// `salt-determinism` rule. Records which stage first drew each
/// `rng(salt)` and trips (debug/test builds only) when a *different*
/// stage draws the same salt — `seed ^ salt` makes their streams
/// bit-identical, and nothing downstream can see it (the fingerprints
/// still differ, memoization stays correct, the outputs are just
/// silently correlated). Draws outside any stage (driver code, tests
/// seeding their own rngs) are not recorded.
#[cfg(debug_assertions)]
#[derive(Debug, Default)]
struct SaltLedger {
    /// Stack of stage ids currently executing under this context tree.
    running: Vec<&'static str>,
    /// First stage to draw each salt.
    seen: BTreeMap<u64, &'static str>,
}

/// Everything a pipeline run shares: the seed, the active fault plan, the
/// thread budget, the health report and the artifact store.
///
/// Cloning is cheap and *scoped*: the clone shares the store and health
/// report but may carry a different fault plan (see
/// [`RunContext::with_plan`]), which is how the chaos experiment runs a
/// clean arm and a faulted arm over the same memoized dataset artifacts
/// without ever serving a faulted artifact to the clean arm — a stage
/// that reads the plan hashes it into its own fingerprint.
#[derive(Debug, Clone)]
pub struct RunContext {
    seed: u64,
    threads: usize,
    plan: Option<FaultPlan>,
    store: Arc<ArtifactStore>,
    health: Arc<HealthReport>,
    #[cfg(debug_assertions)]
    salts: Arc<Mutex<SaltLedger>>,
}

impl RunContext {
    /// Context with the given seed, no fault plan and hardware-default
    /// threads.
    pub fn new(seed: u64) -> RunContext {
        RunContext {
            seed,
            threads: 0,
            plan: None,
            store: Arc::new(ArtifactStore::new()),
            health: Arc::new(HealthReport::new()),
            #[cfg(debug_assertions)]
            salts: Arc::new(Mutex::new(SaltLedger::default())),
        }
    }

    /// Replace the fault plan (shares the store: stages that read the plan
    /// hash it, which keeps the arms apart).
    pub fn with_plan(mut self, plan: Option<FaultPlan>) -> RunContext {
        self.plan = plan;
        self
    }

    /// Set the worker-thread budget (0 = hardware default).
    pub fn with_threads(mut self, threads: usize) -> RunContext {
        self.threads = threads;
        self
    }

    /// Attach a durable on-disk tier beneath the artifact store (shared
    /// by every clone of this context — the store is shared).
    pub fn with_disk(self, disk: Arc<DiskStore>) -> RunContext {
        self.store.attach_disk(disk);
        self
    }

    /// The run seed — the root of all seed discipline.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A deterministic RNG for the given salt: seeded with
    /// `seed() ^ salt`, so `ctx.rng(0)` reproduces the legacy
    /// `StdRng::seed_from_u64(seed)` streams exactly.
    ///
    /// Debug builds additionally record which stage drew each salt and
    /// panic when two *different* stages share one — the runtime mirror
    /// of ig-lint's static `salt-determinism` rule.
    pub fn rng(&self, salt: u64) -> StdRng {
        #[cfg(debug_assertions)]
        self.note_salt(salt);
        StdRng::seed_from_u64(self.seed ^ salt)
    }

    /// Record a salt draw against the currently executing stage; trip on
    /// a cross-stage collision. Debug-only: compiled out of release
    /// builds entirely.
    #[cfg(debug_assertions)]
    fn note_salt(&self, salt: u64) {
        let Ok(mut ledger) = self.salts.lock() else {
            return;
        };
        let Some(&stage) = ledger.running.last() else {
            return;
        };
        let first = *ledger.seen.entry(salt).or_insert(stage);
        debug_assert!(
            first == stage,
            "cross-stage salt collision: `{stage}` drew ctx.rng({salt:#x}), already drawn by \
             `{first}` — `seed ^ salt` makes their random streams bit-identical; give each \
             stage its own salt const (runtime mirror of ig-lint's salt-determinism rule)"
        );
    }

    /// Push/pop the executing stage id around [`Stage::run`] so salt
    /// draws attribute to the innermost stage.
    #[cfg(debug_assertions)]
    fn enter_stage(&self, id: &'static str) {
        if let Ok(mut ledger) = self.salts.lock() {
            ledger.running.push(id);
        }
    }

    #[cfg(debug_assertions)]
    fn exit_stage(&self) {
        if let Ok(mut ledger) = self.salts.lock() {
            ledger.running.pop();
        }
    }

    /// The active fault plan, if any.
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// Worker-thread budget (0 = hardware default).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The shared health report (faults recorded by any stage under this
    /// context or its clones).
    pub fn health(&self) -> &HealthReport {
        &self.health
    }

    /// The shared artifact store.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// The cache key [`RunContext::run`] uses for `stage` under this
    /// context: `H(id, fingerprint, seed)`. Everything else a stage reads,
    /// the fault plan included, is the stage's own to hash. The same key
    /// addresses the artifact in the durable tier, so harnesses can locate
    /// (or deliberately corrupt) a stage's on-disk artifact in crash drills
    /// without duplicating the key derivation.
    pub fn cache_key_for(&self, stage: &impl Stage) -> Fingerprint {
        let mut h = FingerprintHasher::new();
        h.write_str(stage.id());
        stage.fingerprint().fingerprint_into(&mut h);
        h.write_u64(self.seed);
        h.finish()
    }

    /// Execute a stage, serving it from the artifact store when possible.
    ///
    /// The stage is looked up in the in-memory tier first; a hit returns
    /// the original artifact. On a miss, a stage that declares
    /// [`Stage::durable`] under a context with a [`DiskStore`] attached
    /// reads through the disk: a verified artifact is decoded via
    /// [`Stage::decode`] and promoted into memory; otherwise the stage
    /// runs and its output is saved via [`Stage::encode`] and
    /// [`DiskStore::save`]. The durable tier's encode/decode contract plus
    /// checksum verification make a disk hit bit-identical to a
    /// recompute. Every other miss runs the stage once and never touches
    /// the disk. A failed stage's error is returned as is: nothing is
    /// cached, saved or recorded in the health report.
    pub fn run<S: Stage>(&self, stage: &mut S) -> Result<Arc<S::Output>, S::Error> {
        let key = self.cache_key_for(stage);
        if let Some(artifact) = self.store.get(stage.id(), key) {
            // A downcast failure means two stages share an id; fall
            // through and recompute (the insert then repairs the entry).
            if let Ok(typed) = artifact.downcast::<S::Output>() {
                return Ok(typed);
            }
        }
        match self.store.disk().filter(|_| stage.durable()) {
            Some(disk) => self.run_durable(disk, stage, key),
            None => self.compute(stage, key),
        }
    }

    /// Execute a stage on a miss and remember its output.
    fn compute<S: Stage>(
        &self,
        stage: &mut S,
        key: Fingerprint,
    ) -> Result<Arc<S::Output>, S::Error> {
        let output = Arc::new(self.execute(stage)?);
        self.store.insert(stage.id(), key, output.clone());
        Ok(output)
    }

    /// Read-through for a durable stage: decode the saved artifact, or
    /// compute the output and save it.
    fn run_durable<S: Stage>(
        &self,
        disk: &DiskStore,
        stage: &mut S,
        key: Fingerprint,
    ) -> Result<Arc<S::Output>, S::Error> {
        if let Some(bytes) = disk.load(stage.id(), key, &self.health) {
            if let Some(output) = stage.decode(&bytes) {
                let output = Arc::new(output);
                self.store.insert(stage.id(), key, output.clone());
                return Ok(output);
            }
            // A verified payload that fails to decode was written by an
            // incompatible codec: move it aside, then rewrite it below.
            disk.quarantine_artifact(
                stage.id(),
                key,
                "verified payload failed to decode (stale codec?)",
                &self.health,
            );
        }
        let output = self.compute(stage, key)?;
        // `durable()` promised an encode; a refusal just saves nothing.
        if let Some(bytes) = stage.encode(&output) {
            disk.save(stage.id(), key, &bytes, self.plan.as_ref(), &self.health);
        }
        Ok(output)
    }

    /// Run the stage once, attributing its salt draws to its id.
    fn execute<S: Stage>(&self, stage: &mut S) -> Result<S::Output, S::Error> {
        #[cfg(debug_assertions)]
        self.enter_stage(stage.id());
        let result = stage.run(self);
        #[cfg(debug_assertions)]
        self.exit_stage();
        result
    }
}

impl Fingerprintable for Fingerprint {
    fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        h.write_u64(self.lo);
        h.write_u64(self.hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::convert::Infallible;
    use ig_faults::FaultKind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Test stage: doubles every element; counts real executions.
    struct Doubler<'a> {
        input: Vec<u64>,
        calls: &'a AtomicUsize,
    }

    impl Stage for Doubler<'_> {
        type Output = Vec<u64>;
        type Error = Infallible;

        fn id(&self) -> &'static str {
            "test.doubler"
        }

        fn fingerprint(&self) -> Fingerprint {
            self.input.fingerprint()
        }

        fn run(&mut self, _ctx: &RunContext) -> Result<Vec<u64>, Infallible> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            Ok(self.input.iter().map(|v| v * 2).collect())
        }
    }

    #[test]
    fn second_run_is_served_from_cache() {
        let ctx = RunContext::new(1);
        let calls = AtomicUsize::new(0);
        let mut stage = Doubler {
            input: vec![1, 2, 3],
            calls: &calls,
        };
        let a = crate::infallible(ctx.run(&mut stage));
        let b = crate::infallible(ctx.run(&mut stage));
        assert_eq!(*a, vec![2, 4, 6]);
        assert!(Arc::ptr_eq(&a, &b), "hit returns the cached artifact");
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn changed_input_recomputes() {
        let ctx = RunContext::new(1);
        let calls = AtomicUsize::new(0);
        let mut a = Doubler {
            input: vec![1],
            calls: &calls,
        };
        let mut b = Doubler {
            input: vec![2],
            calls: &calls,
        };
        crate::infallible(ctx.run(&mut a));
        crate::infallible(ctx.run(&mut b));
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn different_seed_recomputes() {
        let store_sharing = RunContext::new(1);
        let calls = AtomicUsize::new(0);
        let mut stage = Doubler {
            input: vec![1],
            calls: &calls,
        };
        crate::infallible(store_sharing.run(&mut stage));
        // Same store, different seed: the clone must not hit.
        let mut reseeded = store_sharing.clone();
        reseeded.seed = 2;
        crate::infallible(reseeded.run(&mut stage));
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn rng_salt_matches_legacy_xor_derivation() {
        use rand::RngCore;
        let ctx = RunContext::new(42);
        let mut a = ctx.rng(0x5eed);
        let mut b = StdRng::seed_from_u64(42 ^ 0x5eed);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    /// Stage that draws `ctx.rng` with a fixed salt during `run`.
    struct Salty {
        stage_id: &'static str,
        salt: u64,
    }

    impl Stage for Salty {
        type Output = u64;
        type Error = Infallible;

        fn id(&self) -> &'static str {
            self.stage_id
        }

        fn fingerprint(&self) -> Fingerprint {
            self.salt.fingerprint()
        }

        fn run(&mut self, ctx: &RunContext) -> Result<u64, Infallible> {
            use rand::RngCore;
            Ok(ctx.rng(self.salt).next_u64())
        }
    }

    #[test]
    fn distinct_salts_and_redraws_pass_the_salt_ledger() {
        let ctx = RunContext::new(1);
        let mut a = Salty {
            stage_id: "test.salty-a",
            salt: 0x5a17,
        };
        // The same stage may redraw its own salt (a re-run under another
        // seed shares the ledger but misses the store)...
        crate::infallible(ctx.run(&mut a));
        let mut reseeded = ctx.clone();
        reseeded.seed = 2;
        crate::infallible(reseeded.run(&mut a));
        // ...and a different stage with a different salt is the intended
        // pattern.
        let mut b = Salty {
            stage_id: "test.salty-b",
            salt: 0xb017,
        };
        crate::infallible(ctx.run(&mut b));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "cross-stage salt collision")]
    fn cross_stage_salt_collision_trips_in_debug() {
        let ctx = RunContext::new(1);
        let mut a = Salty {
            stage_id: "test.salty-a",
            salt: 0x5a17,
        };
        let mut b = Salty {
            stage_id: "test.salty-b",
            salt: 0x5a17,
        };
        crate::infallible(ctx.run(&mut a));
        crate::infallible(ctx.run(&mut b));
    }

    /// Durable stage: doubles its input and persists via the
    /// codec, so disk hits can be distinguished from recomputes by the
    /// call counter.
    struct DurableDoubler<'a> {
        input: Vec<u64>,
        calls: &'a AtomicUsize,
    }

    impl Stage for DurableDoubler<'_> {
        type Output = Vec<u64>;
        type Error = core::convert::Infallible;

        fn id(&self) -> &'static str {
            "test.durable-doubler"
        }

        fn fingerprint(&self) -> Fingerprint {
            self.input.fingerprint()
        }

        fn durable(&self) -> bool {
            true
        }

        fn run(&mut self, _ctx: &RunContext) -> Result<Vec<u64>, Self::Error> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            Ok(self.input.iter().map(|v| v * 2).collect())
        }

        fn encode(&self, output: &Vec<u64>) -> Option<Vec<u8>> {
            Some(encode_u64s(output))
        }

        fn decode(&self, bytes: &[u8]) -> Option<Vec<u64>> {
            decode_u64s(bytes)
        }
    }

    fn encode_u64s(values: &[u64]) -> Vec<u8> {
        let mut enc = crate::Enc::new();
        enc.put_usize(values.len());
        for &v in values {
            enc.put_u64(v);
        }
        enc.into_bytes()
    }

    fn decode_u64s(bytes: &[u8]) -> Option<Vec<u64>> {
        let mut dec = crate::Dec::new(bytes);
        let len = dec.usize_()?;
        let mut out = Vec::new();
        for _ in 0..len {
            out.push(dec.u64()?);
        }
        dec.done().then_some(out)
    }

    fn temp_disk(tag: &str) -> Arc<DiskStore> {
        let root = std::env::temp_dir().join(format!("ig-ctx-{tag}-{}", std::process::id()));
        match std::fs::remove_dir_all(&root) {
            Ok(()) | Err(_) => {}
        }
        match DiskStore::open(root) {
            Ok(disk) => Arc::new(disk),
            Err(e) => panic!("open failed: {e}"),
        }
    }

    /// Doubles its input, or fails while `fail` is set. `fail` is not
    /// part of the fingerprint, so a failed run and a later successful
    /// one address the same artifact.
    struct Fallible<'a> {
        input: Vec<u64>,
        calls: &'a AtomicUsize,
        fail: bool,
        durable: bool,
    }

    impl Stage for Fallible<'_> {
        type Output = Vec<u64>;
        type Error = &'static str;

        fn id(&self) -> &'static str {
            "test.fallible"
        }

        fn fingerprint(&self) -> Fingerprint {
            self.input.fingerprint()
        }

        fn durable(&self) -> bool {
            self.durable
        }

        fn run(&mut self, _ctx: &RunContext) -> Result<Vec<u64>, &'static str> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            if self.fail {
                Err("injected failure")
            } else {
                Ok(self.input.iter().map(|v| v * 2).collect())
            }
        }

        fn encode(&self, output: &Vec<u64>) -> Option<Vec<u8>> {
            Some(encode_u64s(output))
        }

        fn decode(&self, bytes: &[u8]) -> Option<Vec<u64>> {
            decode_u64s(bytes)
        }
    }

    #[test]
    fn failing_stage_executes_once_and_returns_its_error() {
        let ctx = RunContext::new(1);
        let calls = AtomicUsize::new(0);
        let mut stage = Fallible {
            input: vec![1],
            calls: &calls,
            fail: true,
            durable: false,
        };
        assert_eq!(
            ctx.run(&mut stage).map(|v| v.to_vec()),
            Err("injected failure")
        );
        assert_eq!(calls.load(Ordering::Relaxed), 1, "no retry");
        assert!(
            ctx.health().is_clean(),
            "a stage error is not a fault event"
        );
    }

    #[test]
    fn failing_stage_caches_nothing() {
        let ctx = RunContext::new(1);
        let calls = AtomicUsize::new(0);
        let mut stage = Fallible {
            input: vec![3],
            calls: &calls,
            fail: true,
            durable: false,
        };
        assert!(ctx.run(&mut stage).is_err());
        assert!(ctx.store().is_empty(), "an error is never memoized");
        // The next run of the same key recomputes, and its success is kept.
        stage.fail = false;
        assert_eq!(ctx.run(&mut stage).map(|v| v.to_vec()), Ok(vec![6]));
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert!(ctx.run(&mut stage).is_ok());
        assert_eq!(calls.load(Ordering::Relaxed), 2, "the success was memoized");
        assert!(ctx.health().is_clean());
    }

    /// Every file under `dir` with extension `ext`, at any depth.
    fn files_with_extension(dir: &std::path::Path, ext: &str) -> Vec<std::path::PathBuf> {
        let mut found = Vec::new();
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                found.extend(files_with_extension(&path, ext));
            } else if path.extension().is_some_and(|e| e == ext) {
                found.push(path);
            }
        }
        found
    }

    #[test]
    fn failing_durable_stage_saves_nothing() {
        let disk = temp_disk("failing");
        let calls = AtomicUsize::new(0);
        let ctx = RunContext::new(3).with_disk(disk.clone());
        let mut stage = Fallible {
            input: vec![4, 5],
            calls: &calls,
            fail: true,
            durable: true,
        };
        assert_eq!(
            ctx.run(&mut stage).map(|v| v.to_vec()),
            Err("injected failure")
        );
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(disk.stats().writes, 0, "a failed stage saves nothing");
        assert!(ctx.store().is_empty());

        // A later successful run computes the same key and saves it...
        stage.fail = false;
        let output = ctx.run(&mut stage).map(|v| v.to_vec());
        assert_eq!(output, Ok(vec![8, 10]));
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(disk.stats().writes, 1);

        // ...and a fresh context reads it back as a disk hit.
        let resumed = RunContext::new(3).with_disk(disk.clone());
        assert_eq!(resumed.run(&mut stage).map(|v| v.to_vec()), Ok(vec![8, 10]));
        assert_eq!(calls.load(Ordering::Relaxed), 2, "no recompute");
        assert_eq!(disk.stats().hits, 1);
        assert!(ctx.health().is_clean());
    }

    #[test]
    fn fresh_context_resumes_from_the_durable_tier() {
        let disk = temp_disk("resume");
        let calls = AtomicUsize::new(0);
        let writer = RunContext::new(7).with_disk(disk.clone());
        let mut stage = DurableDoubler {
            input: vec![1, 2, 3],
            calls: &calls,
        };
        let first = crate::infallible(writer.run(&mut stage));
        assert_eq!(*first, vec![2, 4, 6]);
        assert_eq!(disk.stats().writes, 1);

        // A brand-new context (fresh memory store, same seed) simulates a
        // restarted process: the artifact must come from disk, decoded
        // bit-identically, without re-executing the stage.
        let resumed = RunContext::new(7).with_disk(disk.clone());
        let second = crate::infallible(resumed.run(&mut stage));
        assert_eq!(*second, *first);
        assert_eq!(calls.load(Ordering::Relaxed), 1, "no recompute on resume");
        assert_eq!(disk.stats().hits, 1);

        // A different seed keys differently and must recompute.
        let reseeded = RunContext::new(8).with_disk(disk.clone());
        crate::infallible(reseeded.run(&mut stage));
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn corrupt_durable_artifact_is_quarantined_and_recomputed() {
        let disk = temp_disk("corrupt");
        let calls = AtomicUsize::new(0);
        let writer = RunContext::new(7).with_disk(disk.clone());
        let mut stage = DurableDoubler {
            input: vec![9],
            calls: &calls,
        };
        let first = crate::infallible(writer.run(&mut stage));
        // Corrupt the file on disk behind the store's back.
        let key = writer.cache_key_for(&stage);
        let path = disk.artifact_path(stage.id(), key);
        let mut bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => panic!("read failed: {e}"),
        };
        if let Some(last) = bytes.last_mut() {
            *last ^= 0x40;
        }
        match std::fs::write(&path, &bytes) {
            Ok(()) => {}
            Err(e) => panic!("write failed: {e}"),
        }
        let resumed = RunContext::new(7).with_disk(disk.clone());
        let recomputed = crate::infallible(resumed.run(&mut stage));
        assert_eq!(*recomputed, *first, "recompute, never serve corruption");
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(
            resumed.health().count(FaultKind::ArtifactCorruption),
            1,
            "corruption recorded in the health report"
        );
        assert_eq!(disk.stats().quarantined, 1);
        // The recompute rewrote a clean artifact: a third context hits disk.
        let third = RunContext::new(7).with_disk(disk.clone());
        crate::infallible(third.run(&mut stage));
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn racing_durable_runs_leave_one_verified_artifact() {
        // Three contexts with *separate* memory stores over one disk root
        // stand in for three processes racing on one key. Each may
        // compute and save; content addressing makes every save write the
        // same bytes, so the race wastes work but never corrupts.
        let disk = temp_disk("race");
        let calls = AtomicUsize::new(0);
        let stage = || DurableDoubler {
            input: vec![6, 7],
            calls: &calls,
        };
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        let ctx = RunContext::new(11).with_disk(disk.clone());
                        let out = crate::infallible(ctx.run(&mut stage()));
                        (out.as_ref().clone(), ctx.health().is_clean())
                    })
                })
                .collect();
            for worker in workers {
                match worker.join() {
                    Ok((out, clean)) => {
                        assert_eq!(out, vec![12, 14]);
                        assert!(clean, "a race is never recorded as corruption");
                    }
                    Err(_) => panic!("worker panicked"),
                }
            }
        });
        let root = disk.root();
        assert_eq!(files_with_extension(root, "art").len(), 1);
        assert!(files_with_extension(root, "tmp").is_empty());
        // The artifact that remains verifies and decodes.
        let reader = RunContext::new(11).with_disk(disk.clone());
        let executed = calls.load(Ordering::Relaxed);
        assert_eq!(*crate::infallible(reader.run(&mut stage())), vec![12, 14]);
        assert_eq!(calls.load(Ordering::Relaxed), executed, "served from disk");
        assert_eq!(disk.stats().quarantined, 0);
    }

    #[test]
    fn disk_counts_one_miss_per_cold_durable_stage_and_hits_when_warm() {
        let disk = temp_disk("misses");
        let calls = AtomicUsize::new(0);
        let inputs: Vec<Vec<u64>> = (0..4u64).map(|i| vec![i, i + 1]).collect();
        let sweep = |ctx: &RunContext| {
            for input in &inputs {
                let mut stage = DurableDoubler {
                    input: input.clone(),
                    calls: &calls,
                };
                crate::infallible(ctx.run(&mut stage));
            }
        };
        sweep(&RunContext::new(2).with_disk(disk.clone()));
        let cold = disk.stats();
        assert_eq!((cold.misses, cold.writes, cold.hits), (4, 4, 0));
        // A fresh context (a restarted process) reads every artifact back.
        sweep(&RunContext::new(2).with_disk(disk.clone()));
        let warm = disk.stats();
        assert_eq!((warm.misses, warm.writes, warm.hits), (4, 4, 4));
        assert_eq!(calls.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn memory_only_stage_never_touches_the_disk() {
        let disk = temp_disk("memory-only");
        let ctx = RunContext::new(1).with_disk(disk.clone());
        let calls = AtomicUsize::new(0);
        let mut stage = Doubler {
            input: vec![1, 2],
            calls: &calls,
        };
        crate::infallible(ctx.run(&mut stage));
        crate::infallible(ctx.run(&mut stage));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(disk.stats(), crate::DiskStats::default());
    }

    #[test]
    fn undecodable_artifact_is_quarantined_and_republished() {
        let disk = temp_disk("undecodable");
        let calls = AtomicUsize::new(0);
        let ctx = RunContext::new(4).with_disk(disk.clone());
        let mut stage = DurableDoubler {
            input: vec![5],
            calls: &calls,
        };
        // A checksum-valid artifact whose payload this codec cannot read,
        // as an older build of the stage would have left it.
        let key = ctx.cache_key_for(&stage);
        assert!(disk.save(stage.id(), key, b"old", None, ctx.health()));
        assert_eq!(*crate::infallible(ctx.run(&mut stage)), vec![10]);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(ctx.health().count(FaultKind::ArtifactCorruption), 1);
        assert_eq!(disk.stats().writes, 2, "the recompute was saved again");
        // The rewritten artifact decodes: a restarted process hits it.
        let resumed = RunContext::new(4).with_disk(disk.clone());
        assert_eq!(*crate::infallible(resumed.run(&mut stage)), vec![10]);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn faulted_plan_skips_nothing_but_chaos_arms_stay_apart_on_disk() {
        // A durable stage that does not hash the plan shares its artifact
        // across arms.
        let disk = temp_disk("arms");
        let calls = AtomicUsize::new(0);
        let clean = RunContext::new(5).with_disk(disk.clone());
        let chaotic = clean.clone().with_plan(Some(FaultPlan::chaos(5)));
        let mut stage = DurableDoubler {
            input: vec![4],
            calls: &calls,
        };
        crate::infallible(clean.run(&mut stage));
        crate::infallible(chaotic.run(&mut stage));
        // The chaos arm reuses the clean artifact from the shared memory
        // tier.
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }
}
