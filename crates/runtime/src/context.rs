//! [`RunContext`]: the single carrier of run-wide discipline.

#[cfg(debug_assertions)]
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
#[cfg(debug_assertions)]
use std::sync::Mutex;
use std::time::Duration;

use ig_faults::{FaultKind, FaultPlan, HealthReport, RecoveryAction};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::disk::{DiskStore, Flight};
use crate::fingerprint::{Fingerprint, FingerprintHasher, Fingerprintable};
use crate::scale::ScalePlan;
use crate::stage::Stage;
use crate::store::ArtifactStore;

/// Injected monotonic time source, in milliseconds from an arbitrary
/// origin.
///
/// Library code must not read wall clocks (a clean run is bit-for-bit
/// reproducible from its seed, and ambient time breaks that silently), so
/// the runtime never calls `Instant::now` itself. Drivers that want
/// deadline supervision install a clock — typically built from a
/// monotonic timer in the exempt `experiments`/`bench` crates, or from a
/// deterministic counter in tests. With no clock installed, deadlines are
/// simply not checked; retries and backoff work regardless.
#[derive(Clone)]
pub struct Clock(Arc<dyn Fn() -> u64 + Send + Sync>);

impl Clock {
    /// Wrap a time source returning milliseconds from a fixed origin.
    pub fn new(source: impl Fn() -> u64 + Send + Sync + 'static) -> Clock {
        Clock(Arc::new(source))
    }

    /// Current reading, in milliseconds.
    pub fn now_ms(&self) -> u64 {
        (self.0)()
    }
}

impl fmt::Debug for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Clock(injected)")
    }
}

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
/// thread budget, the scale plan, the health report and the artifact
/// store.
///
/// Cloning is cheap and *scoped*: the clone shares the store and health
/// report but may carry a different fault plan (see
/// [`RunContext::with_plan`]), which is how the chaos experiment runs a
/// clean arm and a faulted arm over the same memoized dataset artifacts
/// without ever serving a faulted artifact to the clean arm — the plan is
/// part of every plan-sensitive cache key.
#[derive(Debug, Clone)]
pub struct RunContext {
    seed: u64,
    threads: usize,
    memoize: bool,
    scale: ScalePlan,
    plan: Option<FaultPlan>,
    store: Arc<ArtifactStore>,
    health: Arc<HealthReport>,
    stage_runs: Arc<AtomicU64>,
    clock: Option<Clock>,
    #[cfg(debug_assertions)]
    salts: Arc<Mutex<SaltLedger>>,
}

impl RunContext {
    /// Context with the given seed, no fault plan, hardware-default
    /// threads, quick scale, memoization on.
    pub fn new(seed: u64) -> RunContext {
        RunContext {
            seed,
            threads: 0,
            memoize: true,
            scale: ScalePlan::quick(),
            plan: None,
            store: Arc::new(ArtifactStore::new()),
            health: Arc::new(HealthReport::new()),
            stage_runs: Arc::new(AtomicU64::new(0)),
            clock: None,
            #[cfg(debug_assertions)]
            salts: Arc::new(Mutex::new(SaltLedger::default())),
        }
    }

    /// Replace the fault plan (shares the store: plan-sensitive cache
    /// keys keep the arms apart).
    pub fn with_plan(mut self, plan: Option<FaultPlan>) -> RunContext {
        self.plan = plan;
        self
    }

    /// Set the worker-thread budget (0 = hardware default).
    pub fn with_threads(mut self, threads: usize) -> RunContext {
        self.threads = threads;
        self
    }

    /// Set the scale plan.
    pub fn with_scale(mut self, scale: ScalePlan) -> RunContext {
        self.scale = scale;
        self
    }

    /// Turn memoization on or off (off: every stage recomputes).
    pub fn with_memoization(mut self, on: bool) -> RunContext {
        self.memoize = on;
        self
    }

    /// Attach a durable on-disk tier beneath the artifact store (shared
    /// by every clone of this context — the store is shared).
    pub fn with_disk(self, disk: Arc<DiskStore>) -> RunContext {
        self.store.attach_disk(disk);
        self
    }

    /// Install a monotonic clock enabling deadline supervision.
    pub fn with_clock(mut self, clock: Clock) -> RunContext {
        self.clock = Some(clock);
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
    /// panic when two *different* stages share one (see [`SaltLedger`]) —
    /// the runtime mirror of ig-lint's static `salt-determinism` rule.
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

    /// The scale plan.
    pub fn scale(&self) -> &ScalePlan {
        &self.scale
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

    /// Stages actually executed (cache misses + non-cacheable runs).
    pub fn stage_runs(&self) -> u64 {
        self.stage_runs.load(Ordering::Relaxed)
    }

    /// The installed clock, if any.
    pub fn clock(&self) -> Option<&Clock> {
        self.clock.as_ref()
    }

    /// The cache key [`RunContext::run`] would use for `stage`. The same
    /// key addresses the artifact in the durable tier, so harnesses can
    /// locate (or deliberately corrupt) a stage's on-disk artifact in
    /// crash drills without duplicating the key derivation.
    pub fn cache_key_for(&self, stage: &impl Stage) -> Fingerprint {
        self.cache_key(stage)
    }

    /// Cache key for a stage under this context: the stage's own
    /// fingerprint, the run seed, and (for plan-sensitive stages) the
    /// fault plan.
    fn cache_key(&self, stage: &impl Stage) -> Fingerprint {
        let mut h = FingerprintHasher::new();
        h.write_str(stage.id());
        stage.fingerprint().fingerprint_into(&mut h);
        h.write_u64(self.seed);
        if stage.plan_sensitive() {
            self.plan.fingerprint_into(&mut h);
        }
        h.finish()
    }

    /// Execute a stage, serving it from the artifact store when possible.
    ///
    /// A cacheable stage is looked up in the in-memory tier first; a hit
    /// returns the original artifact. On a miss, a stage that declares
    /// [`Stage::durable`] under a context with a [`DiskStore`] attached
    /// goes through [`DiskStore::begin_flight`]: a verified artifact on
    /// disk is decoded via [`Stage::decode`] and promoted into memory;
    /// otherwise the first process to claim the key computes and
    /// publishes it via [`Stage::encode`], while concurrent processes wait
    /// and read the published artifact back, so each artifact is computed
    /// once per store root, not once per process. The durable tier's
    /// encode/decode contract plus checksum verification make a disk hit
    /// bit-identical to a recompute. Every other miss (and every
    /// non-cacheable stage) runs under the stage's [`Stage::supervision`]
    /// policy and never touches the disk.
    pub fn run<S: Stage>(&self, stage: &mut S) -> Result<Arc<S::Output>, S::Error> {
        if !(self.memoize && stage.cacheable()) {
            self.stage_runs.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::new(self.execute(stage)?));
        }
        let key = self.cache_key(stage);
        if let Some(artifact) = self.store.get(stage.id(), key) {
            // A downcast failure means two stages share an id; fall
            // through and recompute (the insert then repairs the entry).
            if let Ok(typed) = artifact.downcast::<S::Output>() {
                return Ok(typed);
            }
        }
        match self.store.disk().filter(|_| stage.durable()) {
            Some(disk) => self.run_flight(disk, stage, key),
            None => self.compute(stage, key),
        }
    }

    /// Execute a cacheable stage on a miss and remember its output.
    fn compute<S: Stage>(
        &self,
        stage: &mut S,
        key: Fingerprint,
    ) -> Result<Arc<S::Output>, S::Error> {
        self.stage_runs.fetch_add(1, Ordering::Relaxed);
        let output = Arc::new(self.execute(stage)?);
        self.store.insert(stage.id(), key, output.clone());
        Ok(output)
    }

    /// Single-flight read-through for a durable stage: read the published
    /// artifact, or claim production and publish, or wait for the process
    /// already producing it (see [`DiskStore::begin_flight`]).
    fn run_flight<S: Stage>(
        &self,
        disk: &DiskStore,
        stage: &mut S,
        key: Fingerprint,
    ) -> Result<Arc<S::Output>, S::Error> {
        // A verified payload that fails to decode was written by an
        // incompatible codec. Quarantining it clears the slot, so the
        // second round claims production and rewrites it cleanly.
        for _ in 0..2 {
            match disk.begin_flight(stage.id(), key, self.plan.as_ref(), &self.health) {
                Flight::Ready(bytes) => match stage.decode(&bytes) {
                    Some(output) => {
                        let output = Arc::new(output);
                        self.store.insert(stage.id(), key, output.clone());
                        return Ok(output);
                    }
                    None => disk.quarantine_artifact(
                        stage.id(),
                        key,
                        "verified payload failed to decode (stale codec?)",
                        &self.health,
                    ),
                },
                Flight::Producer(claim) => {
                    // A failed execute drops `claim` unpublished, releasing
                    // the lock so a waiting process inherits production.
                    let output = self.compute(stage, key)?;
                    match stage.encode(&output) {
                        Some(bytes) => {
                            claim.publish(&bytes, self.plan.as_ref(), &self.health);
                        }
                        // `durable()` promised an encode; tolerate a refusal
                        // by releasing the claim unpublished.
                        None => drop(claim),
                    }
                    return Ok(output);
                }
            }
        }
        self.compute(stage, key)
    }

    /// Run the stage under its supervision policy: a bounded
    /// retry-with-backoff ladder, then a post-hoc deadline check against
    /// the installed clock. Every retry and every overrun is recorded in
    /// the shared health report.
    fn execute<S: Stage>(&self, stage: &mut S) -> Result<S::Output, S::Error> {
        let supervision = stage.supervision();
        let started = self.clock.as_ref().map(Clock::now_ms);
        let mut attempt = 0u32;
        let result = loop {
            #[cfg(debug_assertions)]
            self.enter_stage(stage.id());
            let outcome = stage.run(self);
            #[cfg(debug_assertions)]
            self.exit_stage();
            match outcome {
                Ok(output) => break Ok(output),
                Err(_) if attempt < supervision.retries => {
                    attempt += 1;
                    let backoff = supervision.backoff_ms(attempt);
                    self.health.record(
                        ig_faults::Stage::Pipeline,
                        FaultKind::StageFailure,
                        RecoveryAction::RetriedWithBackoff,
                        format!(
                            "{}: attempt {attempt}/{} failed, retrying after {backoff} ms",
                            stage.id(),
                            supervision.retries,
                        ),
                    );
                    if backoff > 0 {
                        std::thread::sleep(Duration::from_millis(backoff));
                    }
                }
                Err(e) => {
                    if supervision.retries > 0 {
                        self.health.record(
                            ig_faults::Stage::Pipeline,
                            FaultKind::StageFailure,
                            RecoveryAction::NoneRequired,
                            format!(
                                "{}: failed after {attempt} retr{}",
                                stage.id(),
                                if attempt == 1 { "y" } else { "ies" },
                            ),
                        );
                    }
                    break Err(e);
                }
            }
        };
        if supervision.deadline_ms > 0 {
            if let (Some(clock), Some(start)) = (self.clock.as_ref(), started) {
                let elapsed = clock.now_ms().saturating_sub(start);
                if elapsed > supervision.deadline_ms {
                    self.health.record(
                        ig_faults::Stage::Pipeline,
                        FaultKind::DeadlineExceeded,
                        RecoveryAction::NoneRequired,
                        format!(
                            "{}: ran {elapsed} ms against a {} ms deadline",
                            stage.id(),
                            supervision.deadline_ms,
                        ),
                    );
                }
            }
        }
        result
    }

    /// Like [`RunContext::run`] but hands back an owned output: moves out
    /// of the `Arc` when this call produced the only reference (always
    /// true for non-cacheable stages), clones otherwise.
    pub fn run_owned<S>(&self, stage: &mut S) -> Result<S::Output, S::Error>
    where
        S: Stage,
        S::Output: Clone,
    {
        let arc = self.run(stage)?;
        match Arc::try_unwrap(arc) {
            Ok(owned) => Ok(owned),
            Err(shared) => Ok((*shared).clone()),
        }
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
    use std::sync::atomic::AtomicUsize;

    /// Test stage: doubles every element; counts real executions.
    struct Doubler<'a> {
        input: Vec<u64>,
        calls: &'a AtomicUsize,
        cacheable: bool,
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

        fn cacheable(&self) -> bool {
            self.cacheable
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
            cacheable: true,
        };
        let a = crate::infallible(ctx.run(&mut stage));
        let b = crate::infallible(ctx.run(&mut stage));
        assert_eq!(*a, vec![2, 4, 6]);
        assert!(Arc::ptr_eq(&a, &b), "hit returns the cached artifact");
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(ctx.stage_runs(), 1);
    }

    #[test]
    fn changed_input_recomputes() {
        let ctx = RunContext::new(1);
        let calls = AtomicUsize::new(0);
        let mut a = Doubler {
            input: vec![1],
            calls: &calls,
            cacheable: true,
        };
        let mut b = Doubler {
            input: vec![2],
            calls: &calls,
            cacheable: true,
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
            cacheable: true,
        };
        crate::infallible(store_sharing.run(&mut stage));
        // Same store, different seed: the clone must not hit.
        let mut reseeded = store_sharing.clone();
        reseeded.seed = 2;
        crate::infallible(reseeded.run(&mut stage));
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn plan_scopes_the_cache() {
        let clean = RunContext::new(1);
        let calls = AtomicUsize::new(0);
        let mut stage = Doubler {
            input: vec![3],
            calls: &calls,
            cacheable: true,
        };
        crate::infallible(clean.run(&mut stage));
        let chaotic = clean.clone().with_plan(Some(FaultPlan::chaos(9)));
        crate::infallible(chaotic.run(&mut stage));
        assert_eq!(
            calls.load(Ordering::Relaxed),
            2,
            "plan-sensitive stage must not cross arms"
        );
    }

    #[test]
    fn non_cacheable_always_runs() {
        let ctx = RunContext::new(1);
        let calls = AtomicUsize::new(0);
        let mut stage = Doubler {
            input: vec![1],
            calls: &calls,
            cacheable: false,
        };
        crate::infallible(ctx.run(&mut stage));
        crate::infallible(ctx.run(&mut stage));
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert!(ctx.store().is_empty());
    }

    #[test]
    fn memoization_off_always_runs() {
        let ctx = RunContext::new(1).with_memoization(false);
        let calls = AtomicUsize::new(0);
        let mut stage = Doubler {
            input: vec![1],
            calls: &calls,
            cacheable: true,
        };
        crate::infallible(ctx.run(&mut stage));
        crate::infallible(ctx.run(&mut stage));
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn run_owned_moves_out_of_unique_arc() {
        let ctx = RunContext::new(1);
        let calls = AtomicUsize::new(0);
        let mut stage = Doubler {
            input: vec![5],
            calls: &calls,
            cacheable: false,
        };
        let owned: Vec<u64> = crate::infallible(ctx.run_owned(&mut stage));
        assert_eq!(owned, vec![10]);
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
            Fingerprint::null()
        }

        fn cacheable(&self) -> bool {
            false
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
        // The same stage may redraw its own salt (re-runs, retries)...
        crate::infallible(ctx.run(&mut a));
        crate::infallible(ctx.run(&mut a));
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

    /// Fails the first `failures` executions, then succeeds.
    struct Flaky<'a> {
        failures: usize,
        calls: &'a AtomicUsize,
        supervision: crate::Supervision,
    }

    impl Stage for Flaky<'_> {
        type Output = u64;
        type Error = &'static str;

        fn id(&self) -> &'static str {
            "test.flaky"
        }

        fn fingerprint(&self) -> Fingerprint {
            Fingerprint::null()
        }

        fn cacheable(&self) -> bool {
            false
        }

        fn supervision(&self) -> crate::Supervision {
            self.supervision
        }

        fn run(&mut self, _ctx: &RunContext) -> Result<u64, &'static str> {
            let call = self.calls.fetch_add(1, Ordering::Relaxed);
            if call < self.failures {
                Err("injected failure")
            } else {
                Ok(call as u64)
            }
        }
    }

    #[test]
    fn retry_ladder_recovers_and_records() {
        let ctx = RunContext::new(1);
        let calls = AtomicUsize::new(0);
        let mut stage = Flaky {
            failures: 2,
            calls: &calls,
            supervision: crate::Supervision::retry(3),
        };
        assert_eq!(ctx.run(&mut stage).map(|v| *v), Ok(2));
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(ctx.health().count(FaultKind::StageFailure), 2);
        assert_eq!(
            ctx.health()
                .count_action(RecoveryAction::RetriedWithBackoff),
            2
        );
    }

    #[test]
    fn exhausted_retries_surface_the_error() {
        let ctx = RunContext::new(1);
        let calls = AtomicUsize::new(0);
        let mut stage = Flaky {
            failures: 10,
            calls: &calls,
            supervision: crate::Supervision::retry(2),
        };
        assert_eq!(ctx.run(&mut stage).map(|v| *v), Err("injected failure"));
        assert_eq!(calls.load(Ordering::Relaxed), 3, "1 try + 2 retries");
        // 2 retry events + 1 exhaustion event.
        assert_eq!(ctx.health().count(FaultKind::StageFailure), 3);
    }

    #[test]
    fn fail_fast_stage_never_retries() {
        let ctx = RunContext::new(1);
        let calls = AtomicUsize::new(0);
        let mut stage = Flaky {
            failures: 10,
            calls: &calls,
            supervision: crate::Supervision::fail_fast(),
        };
        assert!(ctx.run(&mut stage).is_err());
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert!(ctx.health().is_clean());
    }

    #[test]
    fn deadline_overrun_is_recorded_via_injected_clock() {
        // Deterministic clock: advances 100 "ms" per reading.
        let ticks = Arc::new(AtomicU64::new(0));
        let source = Arc::clone(&ticks);
        let clock = Clock::new(move || source.fetch_add(100, Ordering::Relaxed));
        let ctx = RunContext::new(1).with_clock(clock);
        let calls = AtomicUsize::new(0);
        let mut stage = Flaky {
            failures: 0,
            calls: &calls,
            supervision: crate::Supervision::fail_fast().with_deadline_ms(50),
        };
        assert!(ctx.run(&mut stage).is_ok());
        assert_eq!(ctx.health().count(FaultKind::DeadlineExceeded), 1);
        // A generous deadline stays quiet.
        let mut relaxed = Flaky {
            failures: 0,
            calls: &calls,
            supervision: crate::Supervision::fail_fast().with_deadline_ms(10_000),
        };
        assert!(ctx.run(&mut relaxed).is_ok());
        assert_eq!(ctx.health().count(FaultKind::DeadlineExceeded), 1);
    }

    /// Cacheable, durable stage: doubles its input and persists via the
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

        fn plan_sensitive(&self) -> bool {
            false
        }

        fn durable(&self) -> bool {
            true
        }

        fn run(&mut self, _ctx: &RunContext) -> Result<Vec<u64>, Self::Error> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            Ok(self.input.iter().map(|v| v * 2).collect())
        }

        fn encode(&self, output: &Vec<u64>) -> Option<Vec<u8>> {
            let mut enc = crate::Enc::new();
            enc.put_usize(output.len());
            for &v in output {
                enc.put_u64(v);
            }
            Some(enc.into_bytes())
        }

        fn decode(&self, bytes: &[u8]) -> Option<Vec<u64>> {
            let mut dec = crate::Dec::new(bytes);
            let len = dec.usize_()?;
            let mut out = Vec::new();
            for _ in 0..len {
                out.push(dec.u64()?);
            }
            dec.done().then_some(out)
        }
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
        assert_eq!(resumed.stage_runs(), 0);
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
        let key = writer.cache_key(&stage);
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
    fn concurrent_durable_runs_share_one_flight() {
        // Two contexts with *separate* memory stores over one disk root
        // stand in for two processes: the durable stage must execute once
        // — one producer, everyone else waits and decodes.
        let disk = temp_disk("flight");
        let calls = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        let ctx = RunContext::new(11).with_disk(disk.clone());
                        let mut stage = DurableDoubler {
                            input: vec![6, 7],
                            calls: &calls,
                        };
                        crate::infallible(ctx.run(&mut stage)).as_ref().clone()
                    })
                })
                .collect();
            for worker in workers {
                match worker.join() {
                    Ok(out) => assert_eq!(out, vec![12, 14]),
                    Err(_) => panic!("worker panicked"),
                }
            }
        });
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "single-flight: exactly one producer per store root"
        );
        assert_eq!(disk.stats().writes, 1);
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
            cacheable: true,
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
        let key = ctx.cache_key(&stage);
        match disk.begin_flight(stage.id(), key, None, ctx.health()) {
            Flight::Producer(claim) => assert!(claim.publish(b"old", None, ctx.health())),
            Flight::Ready(_) => panic!("fresh store cannot be ready"),
        }
        assert_eq!(*crate::infallible(ctx.run(&mut stage)), vec![10]);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(ctx.health().count(FaultKind::ArtifactCorruption), 1);
        assert_eq!(disk.stats().writes, 2, "the recompute was republished");
        // The rewritten artifact decodes: a restarted process hits it.
        let resumed = RunContext::new(4).with_disk(disk.clone());
        assert_eq!(*crate::infallible(resumed.run(&mut stage)), vec![10]);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn faulted_plan_skips_nothing_but_chaos_arms_stay_apart_on_disk() {
        // A plan-insensitive durable stage shares its artifact across
        // arms; a plan-sensitive one must not collide on disk either.
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
        // Plan-insensitive: the chaos arm reuses the clean artifact from
        // the shared memory tier.
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }
}
