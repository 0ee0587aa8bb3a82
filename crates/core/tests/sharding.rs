//! Out-of-core sharded feature computation: the `ooc` driver's central
//! claim is that streaming a batch through [`ComputeFeatureShard`] in
//! budget-sized slices is *bit-identical* to the whole-batch matrix —
//! under any shard count and any fault plan — while each shard memoizes
//! and crash-resumes independently through the durable store.

use std::sync::Arc;

use ig_check::{ensure, ensure_eq, properties};
use ig_core::{
    ComputeFeatureShard, DevSet, FaultPlan, FeatureGenerator, HealthReport, Pattern, RunContext,
    ShardPlan,
};
use ig_imaging::prepared::PreparedImage;
use ig_imaging::GrayImage;
use ig_nn::Matrix;
use ig_runtime::{infallible, DiskStore, Fingerprintable, ShardSpec, Stage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A miniature task: images with or without a dark square, and a pattern
/// bank containing a dark-square crop.
fn make_task(n: usize, seed: u64) -> (Vec<Pattern>, Vec<GrayImage>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut images = Vec::new();
    let mut labels = Vec::new();
    for i in 0..n {
        let defect = i % 2 == 1;
        let mut img = GrayImage::from_fn(48, 32, |x, y| {
            0.65 + 0.05 * ((x as f32 * 0.4).sin() * (y as f32 * 0.3).cos())
        });
        if defect {
            let x = rng.gen_range(2..38);
            let y = rng.gen_range(2..22);
            img.fill_rect(x, y, 7, 7, 0.15);
        }
        images.push(img);
        labels.push(usize::from(defect));
    }
    let mut pat = GrayImage::filled(7, 7, 0.15);
    pat.fill_rect(0, 0, 7, 1, 0.6);
    (vec![Pattern::crowd(pat)], images, labels)
}

fn build_generator(patterns: Vec<Pattern>, health: &HealthReport) -> FeatureGenerator {
    match FeatureGenerator::new_with_health(patterns, None, health) {
        Ok(g) => g,
        Err(e) => panic!("generator build failed: {e}"),
    }
}

/// Stream `prepared` through [`ComputeFeatureShard`] under `ctx` and
/// concatenate the row blocks — the loop the `ooc` driver and perfbench's
/// stream run, here with an arbitrary shard count.
fn sharded_matrix(
    ctx: &RunContext,
    generator: &FeatureGenerator,
    prepared: &[PreparedImage],
    count: usize,
    plan: Option<&FaultPlan>,
    health: &HealthReport,
) -> Matrix {
    let bank = generator.patterns().fingerprint();
    let shard_plan = ShardPlan::with_count(prepared.len(), count);
    let cols = generator.num_features();
    let mut data = Vec::new();
    for shard in shard_plan.shards() {
        let rows = infallible(ctx.run(&mut ComputeFeatureShard::new(
            bank,
            generator,
            &prepared[shard.start..shard.end],
            shard,
            plan,
            health,
        )));
        data.extend_from_slice(rows.as_slice());
    }
    Matrix::from_vec(prepared.len(), cols, data)
}

properties! {
    cases = 12;

    /// Any shard count (including 1 and N), with or without an active
    /// feature-corruption plan, reproduces the monolithic matrix
    /// bit-for-bit: the global row offset keeps every injection site at
    /// the same (image, pattern) coordinate regardless of sharding.
    fn sharded_equals_monolithic_bit_identical(g) {
        let n = g.gen_range(3usize..10);
        let count = g.gen_range(1usize..10);
        let seed = g.gen::<u64>();
        let faulted = g.gen::<bool>();
        let (patterns, images, _) = make_task(n, seed);
        let health = HealthReport::new();
        let generator = build_generator(patterns, &health);
        let refs: Vec<&GrayImage> = images.iter().collect();
        let prepared = generator.prepare_images(&refs);
        let plan = FaultPlan {
            seed: seed ^ 0x5ad,
            nan_feature_rate: 0.25,
            inf_feature_rate: 0.15,
            ..FaultPlan::default()
        };
        let plan = faulted.then_some(&plan);
        let whole =
            generator.feature_matrix_with_health(DevSet::Prepared(&prepared), 0, plan, &health);
        let ctx = RunContext::new(0);
        let streamed = sharded_matrix(&ctx, &generator, &prepared, count, plan, &health);
        ensure_eq!(streamed.as_slice(), whole.as_slice());
        ensure_eq!((streamed.rows(), streamed.cols()), (whole.rows(), whole.cols()));
    }

    /// A feature shard's key covers every pixel of its images: the same
    /// pixels are served from the store, and one changed pixel misses and
    /// recomputes.
    fn shard_key_tracks_every_pixel(g) {
        let w = g.gen_range(8usize..16);
        let h = g.gen_range(8usize..16);
        let px = g.gen::<usize>();
        let mut rng = StdRng::seed_from_u64(g.gen::<u64>());
        let image = GrayImage::from_fn(w, h, |_, _| rng.gen_range(0.0f32..1.0));
        let health = HealthReport::new();
        // The fixture's dark-square bank; no images are needed.
        let generator = build_generator(make_task(0, 0).0, &health);
        let bank = generator.patterns().fingerprint();
        let whole = ShardPlan::single(1).shard(0);
        let ctx = RunContext::new(1);
        let features = |image: &GrayImage| {
            let batch = [image];
            infallible(ctx.run(&mut ComputeFeatureShard::over(
                bank,
                &generator,
                DevSet::Raw(&batch),
                whole,
                None,
                &health,
            )))
        };
        let first = features(&image);
        ensure!(Arc::ptr_eq(&first, &features(&image)), "same pixels must hit");

        let mut perturbed = image.clone();
        let i = px % (w * h);
        let old = perturbed.pixels()[i];
        perturbed.pixels_mut()[i] = if old > 0.5 { old - 0.5 } else { old + 0.5 };
        features(&perturbed);
        ensure_eq!(ctx.store().misses(), 2, "a changed pixel must change the key");
    }
}

/// A stream killed mid-sweep resumes from its completed shards: the
/// artifacts it persisted are loaded back instead of recomputed, only
/// the missing shards run, and the resumed matrix is bit-identical to
/// the whole-batch one.
#[test]
fn crash_resume_reuses_completed_shard_artifacts() {
    let (patterns, images, _) = make_task(24, 11);
    let refs: Vec<&GrayImage> = images.iter().collect();
    let dir = std::env::temp_dir().join(format!("ig-shard-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let health = HealthReport::new();
    let generator = build_generator(patterns, &health);
    let prepared = generator.prepare_images(&refs);
    let count = 6;

    // First process: compute only the first two shards, then "crash".
    let disk_a = Arc::new(DiskStore::open(&dir).expect("open store"));
    let ctx_a = RunContext::new(0).with_disk(disk_a.clone());
    let bank = generator.patterns().fingerprint();
    for shard in &ShardPlan::with_count(prepared.len(), count).shards()[..2] {
        infallible(ctx_a.run(&mut ComputeFeatureShard::new(
            bank,
            &generator,
            &prepared[shard.start..shard.end],
            *shard,
            None,
            &health,
        )));
    }
    assert_eq!(disk_a.stats().writes, 2, "two shard artifacts persisted");
    drop(ctx_a);

    // Second process: the whole stream over the same store root.
    let disk_b = Arc::new(DiskStore::open(&dir).expect("reopen store"));
    let ctx_b = RunContext::new(0).with_disk(disk_b.clone());
    let resumed = sharded_matrix(&ctx_b, &generator, &prepared, count, None, &health);

    let stats = disk_b.stats();
    assert_eq!(
        stats.hits, 2,
        "completed shards load instead of recomputing"
    );
    assert_eq!(
        stats.writes,
        (count - 2) as u64,
        "only the missing shards are computed and persisted"
    );
    assert_eq!(
        resumed.as_slice(),
        generator.feature_matrix(&refs).as_slice(),
        "the resumed stream is bit-identical to the whole batch"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Sweeping one shard plan three times computes each shard once: every
/// sweep after the first is served from the store by the shard's key.
#[test]
fn each_shard_is_computed_once_across_repeated_sweeps() {
    let (patterns, images, _) = make_task(10, 17);
    let health = HealthReport::new();
    let generator = build_generator(patterns, &health);
    let refs: Vec<&GrayImage> = images.iter().collect();
    let prepared = generator.prepare_images(&refs);
    let ctx = RunContext::new(0);
    let count = 4;
    let first = sharded_matrix(&ctx, &generator, &prepared, count, None, &health);
    for _ in 0..2 {
        let again = sharded_matrix(&ctx, &generator, &prepared, count, None, &health);
        assert_eq!(again.as_slice(), first.as_slice());
    }
    assert_eq!(ctx.store().misses(), count as u64, "one miss per shard");
    assert_eq!(ctx.store().hits(), 2 * count as u64);
}

/// A shard's key covers how the dataset was divided and where the shard
/// sits in it, not only the images it holds: the same images under a
/// different shard count, or at a different global row offset, are a
/// different artifact.
#[test]
fn shard_key_tracks_plan_count_and_row_offset() {
    let (patterns, images, _) = make_task(4, 19);
    let health = HealthReport::new();
    let generator = build_generator(patterns, &health);
    let refs: Vec<&GrayImage> = images.iter().collect();
    let prepared = generator.prepare_images(&refs);
    let bank = generator.patterns().fingerprint();
    let key = |shard: ShardSpec| {
        ComputeFeatureShard::new(bank, &generator, &prepared, shard, None, &health).fingerprint()
    };
    let base = ShardSpec {
        index: 0,
        count: 2,
        start: 0,
        end: 4,
    };
    assert_eq!(key(base), key(base), "the key is a pure function");
    assert_ne!(key(base), key(ShardSpec { count: 3, ..base }), "plan count");
    assert_ne!(
        key(base),
        key(ShardSpec {
            start: 1,
            end: 5,
            ..base
        }),
        "row offset"
    );
}
