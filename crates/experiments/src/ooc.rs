//! Out-of-core streaming demo: weak-label an entire corpus while keeping
//! at most one shard of images resident.
//!
//! The paper's datasets fit in memory; an industrial deployment's don't.
//! This driver models that regime honestly: the corpus is never
//! materialized whole during the streaming pass — each shard is
//! regenerated from its spec, prepared, pushed through
//! [`ComputeFeatureShard`] (whose artifact memoizes and persists
//! per-shard), weak-labeled, and dropped before the next shard starts.
//! A monolithic verify pass then recomputes everything in one piece and
//! checks the streamed weak labels and probabilities are bit-identical.
//!
//! The resident-set budget is `--budget BYTES`, which no other driver
//! reads (`--scale paper --budget 268435456` streams the paper-scale
//! corpus in 256 MiB shards). The default budget of `0` yields one
//! shard — the monolithic arm the bench harness compares against. Peak
//! memory is reported twice from `VmHWM`: once right after the streaming
//! pass (the number the bench compares across budgets — the verify pass
//! hasn't inflated it yet) and once at the end.

use crate::common::{ExpEnv, Report};
use crate::json::json_record;
use ig_core::{
    ComputeFeatureShard, DevSet, HealthReport, InspectorGadget, Pattern, PatternSource,
    PipelineConfig, ShardPlan,
};
use ig_crowd::CrowdWorkflow;
use ig_eval::metrics::task_f1;
use ig_imaging::GrayImage;
use ig_runtime::infallible;
use ig_synth::spec::DatasetKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::time::Instant;

json_record! {
    struct OocReport {
        scale: String,
        budget_bytes: u64,
        n: usize,
        dev_n: usize,
        shards: usize,
        per_image_bytes_est: usize,
        f1: f64,
        bit_identical: bool,
        wall_stream_s: f64,
        wall_verify_s: f64,
        vmhwm_stream_kb: Option<u64>,
        vmhwm_end_kb: Option<u64>,
    }
}

/// Peak resident set so far, from `/proc/self/status` (Linux only).
fn vmhwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.split_whitespace().next()?.parse().ok();
        }
    }
    None
}

fn hwm_text(kb: Option<u64>) -> String {
    match kb {
        Some(kb) => format!("{:.1} MiB", kb as f64 / 1024.0),
        None => "n/a".to_string(),
    }
}

pub fn run(env: &ExpEnv) -> ExitCode {
    let ctx = &env.ctx;
    let (scale, budget) = (env.scale, env.budget);
    let kind = DatasetKind::Ksdd;
    let spec = scale.spec(kind, ctx.seed());
    let n = spec.n;
    let mut report = Report::new("ooc", &env.out);
    report.line(format!(
        "Out-of-core streaming over KSDD (N={n}, scale {}, budget {})",
        scale.name(),
        if budget == 0 {
            "unbounded".to_string()
        } else {
            format!("{:.1} MiB", budget as f64 / (1 << 20) as f64)
        },
    ));

    // Development prefix of the (shuffled) corpus, grown until it covers
    // both classes — crowd workers need defectives to crop patterns from.
    let mut dev_n = (scale.dev_defective_target(kind) * 4).clamp(8, n.max(1));
    let mut dev = ig_synth::generate_range(&spec, 0, dev_n);
    loop {
        let mut classes = std::collections::HashSet::new();
        for image in &dev.images {
            classes.insert(image.label);
        }
        if classes.len() >= 2 || dev_n >= n {
            break;
        }
        dev_n = (dev_n * 2).min(n);
        dev = ig_synth::generate_range(&spec, 0, dev_n);
    }
    let num_classes = dev.task.num_classes();
    let dev_refs: Vec<&ig_synth::LabeledImage> = dev.images.iter().collect();
    let dev_labels: Vec<usize> = dev.images.iter().map(|l| l.label).collect();

    let mut rng = StdRng::seed_from_u64(ctx.seed());
    let crowd = CrowdWorkflow::full().run(&dev_refs, &mut rng);
    if crowd.patterns.is_empty() {
        report.line("no crowd patterns extracted; nothing to stream");
        report.finish::<[u64]>(&[]);
        return ExitCode::SUCCESS;
    }
    let patterns = Pattern::wrap_all(crowd.patterns, PatternSource::Crowd);

    let dev_images: Vec<&GrayImage> = dev.images.iter().map(|l| &l.image).collect();
    let config = PipelineConfig {
        tune: false,
        ..Default::default()
    };
    let mut train_rng = StdRng::seed_from_u64(ctx.seed() ^ 0xa5a5);
    let ig = match InspectorGadget::train_in(
        ctx,
        patterns,
        DevSet::Raw(&dev_images),
        &dev_labels,
        num_classes,
        &config,
        &mut train_rng,
    ) {
        Ok(ig) => ig,
        Err(e) => {
            report.line(format!("training failed: {e}"));
            report.finish::<[u64]>(&[]);
            return ExitCode::SUCCESS;
        }
    };
    let generator = ig.feature_generator();
    // One prepared image's footprint: the estimate the shard budgeter
    // divides by.
    let per_image = generator
        .prepare_images(dev_images.get(..1).unwrap_or_default())
        .first()
        .map_or(1, |p| p.approx_bytes())
        .max(1);
    drop(dev);

    let plan = ShardPlan::for_budget(n, (n as u64) * (per_image as u64), budget);
    report.line(format!(
        "{} shard(s) of <= {} images (~{} KiB prepared per image)",
        plan.count,
        plan.shard(0).len(),
        per_image / 1024,
    ));

    // Streaming pass: regenerate, prepare, match, label, drop — shard by
    // shard. Only the feature rows (durable, shard-keyed) and the weak
    // labels survive a shard's iteration.
    let bank = ig.bank_fingerprint();
    let health = HealthReport::new();
    let started = Instant::now();
    let mut weak = Vec::with_capacity(n);
    let mut probs: Vec<f32> = Vec::with_capacity(n * num_classes);
    let mut gold = Vec::with_capacity(n);
    for shard in plan.shards() {
        let slice = ig_synth::generate_range(&spec, shard.start, shard.end);
        let refs: Vec<&GrayImage> = slice.images.iter().map(|l| &l.image).collect();
        let prepared = generator.prepare_images(&refs);
        let rows = infallible(ctx.run(&mut ComputeFeatureShard::new(
            bank, generator, &prepared, shard, None, &health,
        )));
        let out = ig.label_from_features(&rows);
        weak.extend(out.labels);
        probs.extend_from_slice(out.probabilities.as_slice());
        gold.extend(slice.images.iter().map(|l| l.label));
    }
    let wall_stream = started.elapsed().as_secs_f64();
    let hwm_stream = vmhwm_kb();
    let score = task_f1(num_classes, &gold, &weak);
    report.line(format!(
        "streamed {} images in {wall_stream:.1}s, weak-label F1 {score:.3}, peak RSS {}",
        weak.len(),
        hwm_text(hwm_stream),
    ));
    ctx.health().merge(&health);

    // Verify pass: the whole corpus in one piece must weak-label
    // bit-identically to the stream.
    let verify_started = Instant::now();
    let whole = ig_synth::generate(&spec);
    let refs: Vec<&GrayImage> = whole.images.iter().map(|l| &l.image).collect();
    let mono = ig.label(&refs);
    let wall_verify = verify_started.elapsed().as_secs_f64();
    let bit_identical = mono.labels == weak && mono.probabilities.as_slice() == probs.as_slice();
    let hwm_end = vmhwm_kb();
    report.line(format!(
        "monolithic verify in {wall_verify:.1}s: bit-identical {}  (peak RSS now {})",
        if bit_identical { "yes" } else { "NO" },
        hwm_text(hwm_end),
    ));

    report.finish(&OocReport {
        scale: scale.name().to_string(),
        budget_bytes: budget,
        n,
        dev_n,
        shards: plan.count,
        per_image_bytes_est: per_image,
        f1: score,
        bit_identical,
        wall_stream_s: wall_stream,
        wall_verify_s: wall_verify,
        vmhwm_stream_kb: hwm_stream,
        vmhwm_end_kb: hwm_end,
    });
    if !bit_identical {
        eprintln!("error: streamed weak labels diverged from the monolithic pass");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
