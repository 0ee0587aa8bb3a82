//! Property tests for artifact memoization: the cache must be *sound*
//! (a hit is bit-identical to what a fresh computation would produce —
//! in fact it is the very same `Arc`) and *precise* (any change to a
//! stage's declared inputs or the run seed forces a recompute). The key
//! is `H(id, fingerprint, seed)`: a stage that reads the fault plan hashes
//! it, and one that does not shares its artifact across plans.
//!
//! Two synthetic stage families are exercised: one whose fingerprint
//! covers an input vector plus a config scalar, and one that also reads
//! and hashes the plan. That a single perturbed pixel changes a real
//! stage's key is pinned on `ig-core`'s feature shard
//! (`shard_key_tracks_every_pixel` in `crates/core/tests/sharding.rs`).

use core::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ig_check::{ensure, ensure_eq, properties};
use ig_faults::FaultPlan;
use ig_runtime::{infallible, Fingerprint, FingerprintHasher, Fingerprintable, RunContext, Stage};
use rand::Rng;

/// Synthetic stage: output is a pure function of `input`,
/// `gain` and the run seed; `calls` counts real executions.
struct ScaleAdd<'a> {
    input: Vec<u64>,
    gain: u64,
    calls: &'a AtomicUsize,
}

impl Stage for ScaleAdd<'_> {
    type Output = Vec<u64>;
    type Error = Infallible;

    fn id(&self) -> &'static str {
        "test.scale_add"
    }

    fn fingerprint(&self) -> Fingerprint {
        let mut h = FingerprintHasher::new();
        self.input.fingerprint_into(&mut h);
        h.write_u64(self.gain);
        h.finish()
    }

    fn run(&mut self, ctx: &RunContext) -> Result<Vec<u64>, Infallible> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        Ok(self
            .input
            .iter()
            .map(|v| v.wrapping_mul(self.gain) ^ ctx.seed())
            .collect())
    }
}

/// Synthetic stage that reads the fault plan, and so hashes it: the
/// fingerprint is taken at construction from the context it will run
/// under, as `ig-core`'s pattern-bank fingerprint is.
struct PlanXor<'a> {
    fp: Fingerprint,
    input: Vec<u64>,
    calls: &'a AtomicUsize,
}

impl<'a> PlanXor<'a> {
    fn new(input: Vec<u64>, ctx: &RunContext, calls: &'a AtomicUsize) -> PlanXor<'a> {
        let mut h = FingerprintHasher::new();
        input.fingerprint_into(&mut h);
        ctx.plan().fingerprint_into(&mut h);
        PlanXor {
            fp: h.finish(),
            input,
            calls,
        }
    }
}

impl Stage for PlanXor<'_> {
    type Output = Vec<u64>;
    type Error = Infallible;

    fn id(&self) -> &'static str {
        "test.plan_xor"
    }

    fn fingerprint(&self) -> Fingerprint {
        self.fp
    }

    fn run(&mut self, ctx: &RunContext) -> Result<Vec<u64>, Infallible> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let salt = ctx.plan().map_or(0, |p| p.seed);
        Ok(self.input.iter().map(|v| v ^ salt).collect())
    }
}

properties! {
    cases = 48;

    /// Identical stage + identical context ⇒ the second run is served from
    /// the cache: zero extra executions and literally the same artifact.
    fn identical_inputs_and_seed_hit_the_cache(g) {
        let input = g.vec(0..32, |g| g.gen::<u64>());
        let gain = g.gen::<u64>();
        let seed = g.gen::<u64>();
        let ctx = RunContext::new(seed);
        let calls = AtomicUsize::new(0);
        let mut stage = ScaleAdd { input: input.clone(), gain, calls: &calls };
        let first = infallible(ctx.run(&mut stage));
        let mut again = ScaleAdd { input, gain, calls: &calls };
        let second = infallible(ctx.run(&mut again));
        ensure!(Arc::ptr_eq(&first, &second), "hit must return the stored artifact");
        ensure_eq!(&*first, &*second);
        ensure_eq!(calls.load(Ordering::Relaxed), 1);
    }

    /// Any fingerprint-visible change — a mutated input element, a changed
    /// config scalar, or a different run seed — forces a recompute, and
    /// the recomputed artifact reflects the new inputs.
    fn any_fingerprint_change_recomputes(g) {
        let input = g.vec(1..32, |g| g.gen::<u64>());
        let gain = g.gen::<u64>();
        let seed = g.gen::<u64>();
        let which = g.gen_range(0usize..3);
        let tweak = g.gen_range(1u64..u64::MAX);
        let ctx = RunContext::new(seed);
        let calls = AtomicUsize::new(0);
        let mut stage = ScaleAdd { input: input.clone(), gain, calls: &calls };
        infallible(ctx.run(&mut stage));

        let (mut input2, mut gain2, mut ctx2) = (input.clone(), gain, ctx.clone());
        match which {
            0 => {
                let i = (tweak as usize) % input2.len();
                input2[i] ^= tweak;
            }
            1 => gain2 = gain.wrapping_add(tweak),
            // Same store, different seed: clones share the artifact map,
            // so only the key separates the runs.
            _ => ctx2 = RunContext::new(seed.wrapping_add(tweak)),
        }
        let mut changed = ScaleAdd { input: input2.clone(), gain: gain2, calls: &calls };
        let out = infallible(ctx2.run(&mut changed));
        ensure_eq!(calls.load(Ordering::Relaxed), 2, "changed stage must not hit");
        let expect: Vec<u64> = input2
            .iter()
            .map(|v| v.wrapping_mul(gain2) ^ ctx2.seed())
            .collect();
        ensure_eq!(&*out, &expect);
    }

    /// The incident class ig-lint's F1 (fingerprint-completeness) exists
    /// to prevent, reproduced on purpose: a stage whose fingerprint omits
    /// a field `run()` reads. Two differently-configured stages collide on
    /// one cache key and the second is served the first's (stale, wrong)
    /// artifact — while the correctly-keyed twin from the same inputs
    /// recomputes. F1 flags the `UnderKeyed` shape at lint time; this test
    /// pins the runtime behavior that makes that flag worth failing CI on.
    fn unhashed_field_serves_stale_artifact(g) {
        let input = g.vec(1..32, |g| g.gen::<u64>());
        let gain = g.gen::<u64>();
        let tweak = g.gen_range(1u64..u64::MAX);
        let seed = g.gen::<u64>();
        struct UnderKeyed<'a> {
            input: Vec<u64>,
            gain: u64,
            calls: &'a AtomicUsize,
        }
        impl Stage for UnderKeyed<'_> {
            type Output = Vec<u64>;
            type Error = Infallible;
            fn id(&self) -> &'static str {
                "test.under_keyed"
            }
            // BUG under test: `gain` is read by run() but not hashed.
            fn fingerprint(&self) -> Fingerprint {
                let mut h = FingerprintHasher::new();
                self.input.fingerprint_into(&mut h);
                h.finish()
            }
            fn run(&mut self, _ctx: &RunContext) -> Result<Vec<u64>, Infallible> {
                self.calls.fetch_add(1, Ordering::Relaxed);
                Ok(self.input.iter().map(|v| v.wrapping_mul(self.gain)).collect())
            }
        }
        let ctx = RunContext::new(seed);
        let calls = AtomicUsize::new(0);
        let gain2 = gain.wrapping_add(tweak);
        let first = infallible(ctx.run(&mut UnderKeyed { input: input.clone(), gain, calls: &calls }));
        let stale = infallible(ctx.run(&mut UnderKeyed { input: input.clone(), gain: gain2, calls: &calls }));
        ensure!(
            Arc::ptr_eq(&first, &stale),
            "under-keyed stage collides: the second config is served the first's artifact"
        );
        ensure_eq!(calls.load(Ordering::Relaxed), 1, "the stale hit never executed");
        // The correctly-keyed stage over the same inputs recomputes and
        // yields the artifact the stale hit should have produced.
        let kcalls = AtomicUsize::new(0);
        infallible(ctx.run(&mut ScaleAdd { input: input.clone(), gain, calls: &kcalls }));
        let fresh = infallible(ctx.run(&mut ScaleAdd { input: input.clone(), gain: gain2, calls: &kcalls }));
        ensure_eq!(kcalls.load(Ordering::Relaxed), 2, "keyed stage must not collide");
        let expect: Vec<u64> = input.iter().map(|v| v.wrapping_mul(gain2) ^ ctx.seed()).collect();
        ensure_eq!(&*fresh, &expect);
    }

    /// Two contexts over one store that differ only in the fault plan: a
    /// stage that hashes the plan misses across them and computes the
    /// plan's own output, while a stage that does not hash it is served
    /// the other arm's artifact.
    fn only_stages_that_hash_the_plan_miss_across_plans(g) {
        let input = g.vec(0..32, |g| g.gen::<u64>());
        let gain = g.gen::<u64>();
        let seed = g.gen::<u64>();
        let plan_seed = g.gen::<u64>();
        let clean = RunContext::new(seed);
        let chaotic = clean.clone().with_plan(Some(FaultPlan::chaos(plan_seed)));

        let calls = AtomicUsize::new(0);
        let a = infallible(clean.run(&mut PlanXor::new(input.clone(), &clean, &calls)));
        let b = infallible(chaotic.run(&mut PlanXor::new(input.clone(), &chaotic, &calls)));
        ensure_eq!(calls.load(Ordering::Relaxed), 2, "a plan-hashing stage must not cross plans");
        ensure_eq!(&*a, &input);
        let expect: Vec<u64> = input.iter().map(|v| v ^ plan_seed).collect();
        ensure_eq!(&*b, &expect);

        let kcalls = AtomicUsize::new(0);
        let c = infallible(clean.run(&mut ScaleAdd { input: input.clone(), gain, calls: &kcalls }));
        let d = infallible(chaotic.run(&mut ScaleAdd { input, gain, calls: &kcalls }));
        ensure!(Arc::ptr_eq(&c, &d), "a stage that does not hash the plan is shared");
        ensure_eq!(kcalls.load(Ordering::Relaxed), 1);
    }
}
