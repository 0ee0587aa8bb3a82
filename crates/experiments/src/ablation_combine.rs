//! Extra ablation (Section 3's design argument, not a numbered table):
//! the paper argues coordinate *averaging* beats the *union* strategy
//! ("patterns that are too large") and the *intersection* strategy ("tiny
//! patterns"). This driver runs all three combination strategies through
//! the full pipeline on the Product datasets.

use crate::common::{run_ig_with_patterns, ExpEnv, Prepared, Report};
use crate::json::json_record;
use ig_crowd::{CombineStrategy, CrowdWorkflow};
use ig_synth::spec::DatasetKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

json_record! {
    struct Row {
        dataset: String,
        average: f64,
        union: f64,
        intersection: f64,
        avg_pattern_area: [f64; 3],
    }
}

/// Run the combination-strategy ablation.
pub fn run(env: &ExpEnv) -> ExitCode {
    let seed = env.seed();
    let mut report = Report::new("ablation_combine", &env.out);
    report.line(format!(
        "Combination-strategy ablation (reproduction extra, scale={}): weak-label F1",
        env.scale.name()
    ));
    report.line(format!(
        "{:<22} {:>9} {:>9} {:>13}   mean pattern px (avg/union/inter)",
        "Dataset", "Average", "Union", "Intersection"
    ));
    let strategies = [
        CombineStrategy::Average,
        CombineStrategy::Union,
        CombineStrategy::Intersection,
    ];
    let mut rows = Vec::new();
    for kind in [
        DatasetKind::ProductScratch,
        DatasetKind::ProductBubble,
        DatasetKind::ProductStamping,
    ] {
        let prepared = Prepared::new(&env.ctx, env.scale, kind);
        let dev = prepared.dev_images();
        let mut scores = [0.0f64; 3];
        let mut areas = [0.0f64; 3];
        for (i, strategy) in strategies.into_iter().enumerate() {
            let workflow = CrowdWorkflow {
                combine: Some(strategy),
                ..CrowdWorkflow::full()
            };
            let mut rng = StdRng::seed_from_u64(seed ^ 0xc0 ^ i as u64);
            let patterns = workflow.run(&dev, &mut rng).patterns;
            if patterns.is_empty() {
                continue;
            }
            areas[i] = patterns
                .iter()
                .map(|p| (p.width() * p.height()) as f64)
                .sum::<f64>()
                / patterns.len() as f64;
            scores[i] =
                run_ig_with_patterns(&env.ctx, &prepared, &dev, patterns, false, seed + i as u64)
                    .map(|r| r.f1)
                    .unwrap_or(0.0);
        }
        report.line(format!(
            "{:<22} {:>9.3} {:>9.3} {:>13.3}   {:.0} / {:.0} / {:.0}",
            kind.display_name(),
            scores[0],
            scores[1],
            scores[2],
            areas[0],
            areas[1],
            areas[2]
        ));
        rows.push(Row {
            dataset: kind.display_name().to_string(),
            average: scores[0],
            union: scores[1],
            intersection: scores[2],
            avg_pattern_area: areas,
        });
    }
    let avg_best = rows
        .iter()
        .filter(|r| r.average >= r.union && r.average >= r.intersection)
        .count();
    report.line(format!(
        "Averaging is best-or-tied on {avg_best}/{} datasets \
         (paper: union too large, intersection too tiny; averaging chosen)",
        rows.len()
    ));
    report.finish(&rows);
    ExitCode::SUCCESS
}
