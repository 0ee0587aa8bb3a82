//! Figure 10: F1 vs number of augmented patterns (policy-based vs
//! GAN-based) on Product (stamping) — the diminishing-returns curve.

use crate::common::{
    crowd_patterns, default_policies, gan_config, run_ig_with_patterns, ExpEnv, Prepared, Report,
};
use crate::json::json_record;
use ig_augment::gan::Rgan;
use ig_augment::policy::policy_augment;
use ig_core::ScaleTier;
use ig_crowd::CrowdWorkflow;
use ig_synth::spec::DatasetKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

json_record! {
    struct Point {
        dataset: String,
        method: String,
        augmented_patterns: usize,
        f1: f64,
    }
}

/// Run the Figure 10 reproduction. The paper plots Product (stamping);
/// our stamping simulacrum saturates without augmentation, so the sweep
/// also runs KSDD, where the no-augmentation baseline leaves headroom and
/// the paper's rising-then-plateauing shape is visible.
pub fn run(env: &ExpEnv) -> ExitCode {
    let mut report = Report::new("fig10", &env.out);
    let mut all_points = Vec::new();
    for kind in [DatasetKind::ProductStamping, DatasetKind::Ksdd] {
        run_for(env, kind, &mut report, &mut all_points);
    }
    report.finish(&all_points);
    ExitCode::SUCCESS
}

fn run_for(env: &ExpEnv, kind: DatasetKind, report: &mut Report, all_points: &mut Vec<Point>) {
    let seed = env.seed();
    report.line(format!(
        "
Figure 10 (reproduction, scale={}): F1 vs #augmented patterns on {}",
        env.scale().name(),
        kind.display_name()
    ));
    let prepared = Prepared::new(&env.ctx, kind);
    let dev = prepared.dev_images();
    let base_patterns = crowd_patterns(&dev, &CrowdWorkflow::full(), seed ^ 0xf10);
    if base_patterns.is_empty() {
        report.line("(no crowd patterns; skipping)");
        return;
    }
    let counts: Vec<usize> = match env.scale().tier {
        ScaleTier::Quick => vec![0, 10, 20],
        _ => vec![0, 20, 40, 60, 80, 100],
    };
    let policies = default_policies(kind);
    // Train the GAN once; sample increasing counts from it.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf11);
    let gan = Rgan::train(&base_patterns, &gan_config(env.scale()), &mut rng);

    report.line(format!(
        "{:>12} {:>14} {:>14}",
        "#augmented", "Policy-based", "GAN-based"
    ));
    let mut points = Vec::new();
    for &count in &counts {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xf12 ^ count as u64);
        let mut policy_set = base_patterns.clone();
        policy_set.extend(policy_augment(&base_patterns, &policies, count, &mut rng));
        let policy_f1 = run_ig_with_patterns(
            &env.ctx,
            &prepared,
            &dev,
            policy_set,
            false,
            seed + count as u64,
        )
        .map(|r| r.f1)
        .unwrap_or(0.0);

        let mut gan_set = base_patterns.clone();
        gan_set.extend(gan.generate(count, &mut rng));
        let gan_f1 = run_ig_with_patterns(
            &env.ctx,
            &prepared,
            &dev,
            gan_set,
            false,
            seed + 1000 + count as u64,
        )
        .map(|r| r.f1)
        .unwrap_or(0.0);

        report.line(format!("{count:>12} {policy_f1:>14.3} {gan_f1:>14.3}"));
        points.push(Point {
            dataset: kind.display_name().to_string(),
            method: "Policy-based".into(),
            augmented_patterns: count,
            f1: policy_f1,
        });
        points.push(Point {
            dataset: kind.display_name().to_string(),
            method: "GAN-based".into(),
            augmented_patterns: count,
            f1: gan_f1,
        });
    }
    // Shape note: improvement from 0 to the best count, per method.
    for method in ["Policy-based", "GAN-based"] {
        let series: Vec<&Point> = points.iter().filter(|p| p.method == method).collect();
        let at_zero = series
            .iter()
            .find(|p| p.augmented_patterns == 0)
            .map(|p| p.f1)
            .unwrap_or(0.0);
        let best = series
            .iter()
            .map(|p| p.f1)
            .fold(f64::NEG_INFINITY, f64::max);
        report.line(format!(
            "{method}: F1 {at_zero:.3} with no augmentation → best {best:.3} \
             (paper: adding patterns helps, then plateaus)"
        ));
    }
    all_points.extend(points);
}
