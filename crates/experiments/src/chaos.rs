//! Chaos experiment: end-to-end fault injection and recovery.
//!
//! Not a paper table — a robustness harness for this reproduction. Two
//! arms run the full pipeline (crowd → augmentation → features → labeler)
//! on the same data and seeds: a *clean* arm under an empty [`FaultPlan`]
//! and a *chaos* arm under [`FaultPlan::chaos`], which injects every fault
//! class the plan supports (no-show and spamming crowdworkers, degenerate
//! patterns, NaN/Inf features, panicking feature workers, poisoned L-BFGS
//! evaluations, a diverging GAN epoch). The chaos arm must still return a
//! trained model; its [`HealthReport`] enumerates every fault detected and
//! the recovery applied.
//!
//! Each arm is a [`RunContext`] clone carrying its own plan: the arms
//! share the run-wide artifact store (dataset generation happens once),
//! while every plan-sensitive stage keys its cache entries by the plan —
//! the clean arm can never be served a faulted artifact.
//!
//! A third *durability* arm attacks the storage layer instead of the
//! pipeline: every durable-store write runs under
//! [`FaultPlan::durability`]-style injectors (torn writes and flipped
//! bits), and a warm restart over the damaged store must
//! quarantine what the checksums reject, recompute it, and land the cold
//! pass's F1 exactly. See [`run_durability_arm`].

use crate::common::{default_policies, gan_config, ExpEnv, Prepared, Report};
use crate::json::json_record;
use crate::scale::Scale;
use ig_augment::{augment_with_health, AugmentMethod};
use ig_core::{
    DevSet, FaultKind, FaultPlan, HealthEvent, HealthReport, InspectorGadget, MatchBackend,
    Pattern, PatternSource, PipelineConfig, RecoveryAction, RunContext,
};
use ig_crowd::{CrowdWorkflow, WorkerModel};
use ig_eval::metrics::task_f1;
use ig_faults::Stage as FaultStage;
use ig_runtime::{infallible, DiskStats, DiskStore, GenerateDataset};
use ig_synth::spec::{DatasetKind, DatasetSpec};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

json_record! {
    /// One arm's outcome. `f1` is `None` when the arm bailed out before
    /// labeling; its events then say why.
    struct ArmRecord {
        arm: String,
        f1: Option<f64>,
        fault_events: usize,
        events: Vec<HealthEvent>,
    }
}

/// Run the chaos experiment.
pub fn run(env: &ExpEnv) -> ExitCode {
    let mut report = Report::new("chaos", &env.out);
    report.line("Chaos: fault injection and recovery across the full pipeline");
    report.line(format!("{:<8} {:>8} {:>8}", "arm", "F1", "faults"));
    let kind = DatasetKind::ProductScratch;
    let prepared = Prepared::new(&env.ctx, env.scale, kind);
    let seed = env.seed();
    let mut records = Vec::new();
    for (arm, plan) in [
        ("clean", FaultPlan::none(seed)),
        ("chaos", FaultPlan::chaos(seed)),
    ] {
        let arm_ctx = env.ctx.clone().with_plan(Some(plan));
        let health = HealthReport::new();
        let score = run_arm(&arm_ctx, env.scale, &prepared, kind, &health);
        match score {
            Some(score) => {
                report.line(format!("{arm:<8} {score:>8.3} {:>8}", health.len()));
            }
            // Even a failed arm explains itself: the health events up to
            // the bail-out point say why the pipeline fell over.
            None => report.line(format!("{arm:<8} {:>8} (pipeline unavailable)", "-")),
        }
        for line in health.render().lines() {
            report.line(format!("    {line}"));
        }
        records.push(ArmRecord {
            arm: arm.to_string(),
            f1: score,
            fault_events: health.len(),
            events: health.events(),
        });
    }
    // Third arm: durability chaos. The store directory is rebuilt from
    // scratch every run, so the cold/warm sequence — and hence the event
    // log serialized below — is deterministic even when the run itself
    // resumes over a `--store` directory.
    let store_dir = std::path::PathBuf::from(&env.out).join("chaos-store");
    match std::fs::remove_dir_all(&store_dir) {
        // Missing on the first run; nothing to clear either way.
        Ok(()) | Err(_) => {}
    }
    let health = HealthReport::new();
    match run_durability_arm(env.scale, seed, &store_dir, &health) {
        Some((cold, warm, disk)) => {
            report.line(format!("{:<8} {warm:>8.3} {:>8}", "durable", health.len()));
            report.line(format!(
                "    cold F1 {cold:.3} vs warm F1 {warm:.3}: {} \
                 (store: {} hits, {} writes, {} quarantined)",
                if cold == warm {
                    "resume is exact"
                } else {
                    "MISMATCH"
                },
                disk.hits,
                disk.writes,
                disk.quarantined,
            ));
            for line in health.render().lines() {
                report.line(format!("    {line}"));
            }
            records.push(ArmRecord {
                arm: "durability".to_string(),
                f1: Some(warm),
                fault_events: health.len(),
                events: health.events(),
            });
        }
        None => {
            report.line(format!("{:<8} {:>8} (store unavailable)", "durable", "-"));
        }
    }
    report.finish(&records);
    ExitCode::SUCCESS
}

/// Datasets seeding the durable store in the durability arm: small and
/// plentiful, so the plan's per-artifact fault draws cover every store
/// fault class without rigging any single artifact.
fn probe_specs() -> Vec<DatasetSpec> {
    (0..12u64)
        .map(|i| DatasetSpec::quick(DatasetKind::ProductBubble, 1000 + i))
        .collect()
}

/// A durability plan whose deterministic per-artifact draws, over the
/// probe artifacts' durable cache keys, fire every store fault class at
/// least once — and leave at least one artifact intact so the warm pass
/// has something to hit.
fn probe_plan(seed: u64, keys: &[u64]) -> FaultPlan {
    (0..10_000u64)
        .map(|i| FaultPlan::durability(seed.wrapping_add(i)))
        .find(|p| {
            keys.iter().any(|&k| p.torn_write(k))
                && keys.iter().any(|&k| p.artifact_bitflip(k))
                && keys
                    .iter()
                    .any(|&k| !p.torn_write(k) && !p.artifact_bitflip(k))
        })
        .unwrap_or_else(|| FaultPlan::durability(seed))
}

/// The durability arm: the pipeline itself runs fault-free, but every
/// durable-tier write goes through the plan's storage injectors. Two
/// passes share one store directory. The cold pass seeds it — probe
/// datasets plus the pipeline's own artifacts — through the faulted
/// writer; the warm pass starts from a fresh context (as a resumed sweep
/// does after a crash), quarantines every artifact the checksums reject,
/// recomputes, and must reproduce the cold F1 bit for bit. Returns
/// `(cold F1, warm F1, warm-pass disk stats)`; store and pipeline events
/// from both passes accumulate in `health`.
fn run_durability_arm(
    scale: Scale,
    seed: u64,
    store_dir: &Path,
    health: &HealthReport,
) -> Option<(f64, f64, DiskStats)> {
    let specs = probe_specs();
    let keys: Vec<u64> = {
        // Dataset generation does not hash the plan, so a planless
        // context derives the same durable keys the faulted contexts
        // below will write under.
        let keyer = RunContext::new(seed);
        specs
            .iter()
            .map(|&spec| keyer.cache_key_for(&GenerateDataset { spec }).lo)
            .collect()
    };
    let plan = probe_plan(seed, &keys);
    let mut cold = None;
    let mut warm = None;
    let mut stats = DiskStats::default();
    for pass in 0..2 {
        let disk = Arc::new(DiskStore::open(store_dir).ok()?);
        let ctx = RunContext::new(seed)
            .with_plan(Some(plan.clone()))
            .with_disk(Arc::clone(&disk));
        for &spec in &specs {
            // The artifact itself is beside the point; writing it through
            // the faulted store (and re-reading it on the warm pass) is.
            let _probe = infallible(ctx.run(&mut GenerateDataset { spec }));
        }
        let prepared = Prepared::new(&ctx, scale, DatasetKind::ProductScratch);
        let score = run_arm(&ctx, scale, &prepared, DatasetKind::ProductScratch, health)?;
        health.absorb(ctx.health());
        if pass == 0 {
            cold = Some(score);
        } else {
            warm = Some(score);
        }
        stats = disk.stats();
    }
    Some((cold?, warm?, stats))
}

/// A five-worker crew: large enough that an injected no-show plus an
/// injected spammer still leave an honest, mutually-corroborating
/// majority for the screening step to lean on.
fn chaos_crew() -> CrowdWorkflow {
    let mut workflow = CrowdWorkflow::full();
    workflow.workers.push(WorkerModel::typical());
    workflow.workers.push(WorkerModel::careful());
    workflow
}

/// One full pipeline run at `scale` under the context's fault plan.
/// Returns the test-set F1; every stage's fault events are merged into
/// `health` (also on failure, so a bailed-out arm still carries its
/// diagnosis). An arm whose crowd output is empty cannot train at all:
/// that is recorded as an unrecovered event on both `health` and the
/// context's report. Training runs through the stage graph
/// ([`InspectorGadget::train_in`]), so the recovery ladders execute
/// inside the runtime and the test features memoize in the shared
/// artifact store.
fn run_arm(
    ctx: &RunContext,
    scale: Scale,
    prepared: &Prepared,
    kind: DatasetKind,
    health: &HealthReport,
) -> Option<f64> {
    let plan = ctx.plan();
    let dev = prepared.dev_images();
    let mut rng = ctx.rng(0);
    let crew = chaos_crew();
    let crowd_out = crew.run_with_health(&dev, &mut rng, plan, health);
    if crowd_out.patterns.is_empty() {
        let detail = format!(
            "empty crowd output: none of {} workers left a pattern, so the arm cannot train",
            crew.workers.len()
        );
        for report in [health, ctx.health()] {
            report.record(
                FaultStage::Crowd,
                FaultKind::StageFailure,
                RecoveryAction::NoneRequired,
                detail.clone(),
            );
        }
        return None;
    }
    let policies = default_policies(kind);
    let all_patterns = augment_with_health(
        &crowd_out.patterns,
        AugmentMethod::Both,
        scale.augment_budget(),
        &policies,
        &gan_config(scale),
        &mut rng,
        plan,
        health,
    );
    let dev_images: Vec<&ig_imaging::GrayImage> = dev.iter().map(|l| &l.image).collect();
    let dev_labels: Vec<usize> = dev.iter().map(|l| l.label).collect();
    let patterns = Pattern::wrap_all(all_patterns, PatternSource::Crowd);
    // Fixed architecture (tuning has its own ladder, exercised in unit
    // tests) and exactly two feature workers so chunk indices — and hence
    // planned worker panics — are stable across machines.
    let config = PipelineConfig {
        backend: MatchBackend::Pyramid,
        tune: false,
        threads: 2,
        ..Default::default()
    };
    let ig = InspectorGadget::train_in(
        ctx,
        patterns,
        DevSet::Raw(&dev_images),
        &dev_labels,
        prepared.num_classes(),
        &config,
        &mut rng,
    )
    .ok()?;
    health.absorb(&ig.health);
    let out = ig.label_from_features(&ig.features_in(ctx, DevSet::Raw(&prepared.test_batch())));
    let score = task_f1(prepared.num_classes(), &prepared.test_labels(), &out.labels);
    Some(score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ig_faults::GanFault;

    /// The acceptance test for the fault subsystem: every fault class the
    /// plan supports fires in one run, training still returns a model, and
    /// the health report enumerates each fault with its recovery.
    #[test]
    fn chaos_run_survives_every_fault_class() {
        // Probe for a plan seed whose deterministic decisions hit exactly
        // one no-show and one spammer in the five-worker crew (leaving an
        // honest majority) and poison the first L-BFGS evaluation.
        let plan = (0..50_000u64)
            .map(|s| FaultPlan {
                seed: s,
                nan_feature_rate: 0.05,
                inf_feature_rate: 0.02,
                degenerate_pattern_rate: 0.3,
                crowd_no_show_rate: 0.25,
                crowd_spammer_rate: 0.25,
                worker_panic_rate: 0.9,
                lbfgs_poison_rate: 0.02,
                torn_write_rate: 0.0,
                artifact_bitflip_rate: 0.0,
                gan_fault_epoch: Some(1),
                gan_fault: GanFault::Diverge,
            })
            .find(|p| {
                (0..5).filter(|&i| p.crowd_no_show(i)).count() == 1
                    && (0..5).filter(|&i| p.crowd_spammer(i)).count() == 1
                    && p.poison_loss(0)
                    && (0..2).any(|i| p.worker_panic(i))
                    && (0..20).any(|i| p.degenerate_pattern(i))
                    && (0..10).any(|r| (0..10).any(|c| !p.corrupt_feature(r, c, 1.0).is_finite()))
            })
            .expect("some seed hits the target fault pattern");

        let ctx = RunContext::new(7);
        let prepared = Prepared::new(&ctx, Scale::Quick, DatasetKind::ProductScratch);
        let chaos_ctx = ctx.with_plan(Some(plan));
        let health = HealthReport::new();
        let score = run_arm(
            &chaos_ctx,
            Scale::Quick,
            &prepared,
            DatasetKind::ProductScratch,
            &health,
        )
        .expect("chaos run still trains");
        assert!(score.is_finite());

        for kind in [
            FaultKind::CrowdNoShow,
            FaultKind::CrowdSpammer,
            FaultKind::GanDivergence,
            FaultKind::DegeneratePattern,
            FaultKind::NonFiniteFeature,
            FaultKind::WorkerPanic,
            FaultKind::LbfgsDivergence,
        ] {
            assert!(health.count(kind) >= 1, "no {kind} event recorded");
        }
        for action in [
            RecoveryAction::ExcludedWorker,
            RecoveryAction::RolledBackSnapshot,
            RecoveryAction::QuarantinedPattern,
            RecoveryAction::SanitizedValue,
            RecoveryAction::SerialRecompute,
            RecoveryAction::RestartedWithJitter,
        ] {
            assert!(
                health.count_action(action) >= 1,
                "no {action} recovery recorded"
            );
        }
    }

    /// A plan that excludes every crowd worker leaves nothing to train
    /// on: the arm bails out, and the empty crowd output is an unrecovered
    /// event on the arm's report and on the context's.
    #[test]
    fn arm_without_crowd_patterns_reports_an_unrecovered_event() {
        let ctx = RunContext::new(7);
        let prepared = Prepared::new(&ctx, Scale::Quick, DatasetKind::ProductScratch);
        let plan = FaultPlan {
            crowd_no_show_rate: 1.0,
            ..FaultPlan::none(7)
        };
        let arm_ctx = ctx.clone().with_plan(Some(plan));
        let health = HealthReport::new();
        let score = run_arm(
            &arm_ctx,
            Scale::Quick,
            &prepared,
            DatasetKind::ProductScratch,
            &health,
        );
        assert_eq!(score, None, "no patterns, no model");
        assert_eq!(health.summary().unrecovered, 1);
        let run = ctx.health().summary();
        assert_eq!(run.unrecovered, 1, "the run's report names the bail-out");
        assert!(ctx
            .health()
            .events()
            .iter()
            .any(|e| e.detail.contains("empty crowd output")));
    }

    /// Empty plan and no plan must be indistinguishable end to end: same
    /// RNG stream, same weak labels, same F1, clean health. The two runs
    /// share one context store — the plan-keyed cache must not leak
    /// either arm's artifacts into the other in a way that changes the
    /// outcome.
    #[test]
    fn empty_plan_leaves_accuracy_unchanged() {
        let ctx = RunContext::new(9);
        let prepared = Prepared::new(&ctx, Scale::Quick, DatasetKind::ProductScratch);
        let h_none = HealthReport::new();
        let f1_none = run_arm(
            &ctx,
            Scale::Quick,
            &prepared,
            DatasetKind::ProductScratch,
            &h_none,
        )
        .expect("clean run trains");
        let empty_ctx = ctx.clone().with_plan(Some(FaultPlan::none(9)));
        let h_empty = HealthReport::new();
        let f1_empty = run_arm(
            &empty_ctx,
            Scale::Quick,
            &prepared,
            DatasetKind::ProductScratch,
            &h_empty,
        )
        .expect("clean run trains");
        assert_eq!(f1_none, f1_empty, "empty plan changed the outcome");
        assert!(h_none.is_clean() && h_empty.is_clean());
    }

    /// Durability acceptance: with the store under fault injection, every
    /// storage fault class fires, each recovery is recorded, and the warm
    /// (resumed) pass reproduces the cold pass's F1 bit for bit while
    /// actually hitting the durable tier.
    #[test]
    fn durability_arm_survives_store_chaos() {
        let dir = std::env::temp_dir().join(format!("ig-chaos-durable-{}", std::process::id()));
        match std::fs::remove_dir_all(&dir) {
            Ok(()) | Err(_) => {}
        }
        let health = HealthReport::new();
        let (cold, warm, stats) =
            run_durability_arm(Scale::Quick, 7, &dir, &health).expect("durability arm runs");
        assert_eq!(cold, warm, "a resumed sweep must land the identical F1");
        assert!(health.count(FaultKind::ArtifactCorruption) >= 1);
        assert!(health.count_action(RecoveryAction::QuarantinedArtifact) >= 1);
        assert!(stats.hits >= 1, "warm pass must hit the durable tier");
        assert!(stats.quarantined >= 1);
        match std::fs::remove_dir_all(&dir) {
            Ok(()) | Err(_) => {}
        }
    }
}
