//! Property tests for artifact memoization: the cache must be *sound*
//! (a hit is bit-identical to what a fresh computation would produce —
//! in fact it is the very same `Arc`) and *precise* (any change to a
//! stage's declared inputs or the run seed forces a recompute). The key
//! is `H(id, fingerprint, seed)`: a stage that reads the fault plan hashes
//! it, and one that does not shares its artifact across plans.
//!
//! Three stage families are exercised: a synthetic stage whose
//! fingerprint covers an input vector plus a config scalar, one that also
//! reads and hashes the plan, and the real [`PrepareImages`] stage over
//! random images, where a single perturbed pixel must change the
//! fingerprint.

use core::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ig_check::{ensure, ensure_eq, properties};
use ig_faults::FaultPlan;
use ig_imaging::GrayImage;
use ig_runtime::{
    infallible, Fingerprint, FingerprintHasher, Fingerprintable, PrepareImages, RunContext, Stage,
};
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

fn random_image(w: usize, h: usize, seed: u64) -> GrayImage {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    GrayImage::from_fn(w, h, |_, _| rng.gen_range(0.0f32..1.0))
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

    /// The real [`PrepareImages`] stage: same pixels hit, one perturbed
    /// pixel misses. Plan changes must NOT miss — preparation neither
    /// reads nor hashes the plan, so chaos and clean arms share it.
    fn prepare_images_keys_on_pixels_not_plan(g) {
        let w = g.gen_range(4usize..12);
        let h = g.gen_range(4usize..12);
        let img_seed = g.gen::<u64>();
        let px = g.gen::<usize>();
        let plan_seed = g.gen::<u64>();
        let image = random_image(w, h, img_seed);
        let ctx = RunContext::new(1);
        let first = infallible(ctx.run(&mut PrepareImages::new(vec![&image])));
        let chaotic = ctx.clone().with_plan(Some(FaultPlan::chaos(plan_seed)));
        let shared = infallible(chaotic.run(&mut PrepareImages::new(vec![&image])));
        ensure!(
            Arc::ptr_eq(&first, &shared),
            "a stage that does not hash the plan must share artifacts across arms"
        );

        let mut perturbed = image.clone();
        let i = px % (w * h);
        let old = perturbed.pixels()[i];
        perturbed.pixels_mut()[i] = if old > 0.5 { old - 0.5 } else { old + 0.5 };
        let other = infallible(ctx.run(&mut PrepareImages::new(vec![&perturbed])));
        ensure!(
            !Arc::ptr_eq(&first, &other),
            "a changed pixel must change the fingerprint"
        );
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
