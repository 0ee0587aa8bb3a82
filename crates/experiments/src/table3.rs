//! Table 3: crowdsourcing workflow ablation on the Product datasets —
//! "No avg. (±std/2)" (raw per-worker boxes), "No peer review", and the
//! full workflow. No pattern augmentation, matching the paper.

use crate::common::{run_ig_with_patterns, ExpEnv, Prepared, Report};
use crate::json::json_record;
use ig_crowd::{CrowdWorkflow, WorkerModel};
use ig_synth::spec::DatasetKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

json_record! {
    struct Row {
        dataset: String,
        no_avg_mean: f64,
        no_avg_half_std: f64,
        no_peer_review: f64,
        full_workflow: f64,
    }
}

const DATASETS: [DatasetKind; 3] = [
    DatasetKind::ProductScratch,
    DatasetKind::ProductBubble,
    DatasetKind::ProductStamping,
];

/// Run the Table 3 reproduction.
pub fn run(env: &ExpEnv) -> ExitCode {
    let seed = env.seed();
    let mut report = Report::new("table3", &env.out);
    report.line(format!(
        "Table 3 (reproduction, scale={}): crowdsourcing workflow ablation (F1)",
        env.scale().name()
    ));
    report.line(format!(
        "{:<22} {:>22} {:>16} {:>14}",
        "Dataset", "No avg. (±std/2)", "No peer review", "Full workflow"
    ));
    let mut rows = Vec::new();
    for kind in DATASETS {
        let prepared = Prepared::new(&env.ctx, kind);
        let dev = prepared.dev_images();

        // No avg: one run per worker, report mean ± std/2 across workers.
        let mut per_worker = Vec::new();
        for (wi, worker) in WorkerModel::default_crew().into_iter().enumerate() {
            let workflow = CrowdWorkflow::single_worker(worker);
            let mut rng = StdRng::seed_from_u64(seed ^ (wi as u64 + 1) << 4);
            let patterns = workflow.run(&dev, &mut rng).patterns;
            if patterns.is_empty() {
                per_worker.push(0.0);
                continue;
            }
            let f1 =
                run_ig_with_patterns(&env.ctx, &prepared, &dev, patterns, false, seed + wi as u64)
                    .map(|r| r.f1)
                    .unwrap_or(0.0);
            per_worker.push(f1);
        }
        let mean = per_worker.iter().sum::<f64>() / per_worker.len().max(1) as f64;
        let var = per_worker
            .iter()
            .map(|&v| (v - mean) * (v - mean))
            .sum::<f64>()
            / per_worker.len().max(1) as f64;
        let half_std = var.sqrt() / 2.0;

        // No peer review.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x33);
        let patterns = CrowdWorkflow::no_peer_review().run(&dev, &mut rng).patterns;
        let no_review = run_ig_with_patterns(&env.ctx, &prepared, &dev, patterns, false, seed + 11)
            .map(|r| r.f1)
            .unwrap_or(0.0);

        // Full workflow.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x44);
        let patterns = CrowdWorkflow::full().run(&dev, &mut rng).patterns;
        let full = run_ig_with_patterns(&env.ctx, &prepared, &dev, patterns, false, seed + 13)
            .map(|r| r.f1)
            .unwrap_or(0.0);

        report.line(format!(
            "{:<22} {:>14.3} ±{:.3} {:>16.3} {:>14.3}",
            kind.display_name(),
            mean,
            half_std,
            no_review,
            full
        ));
        rows.push(Row {
            dataset: kind.display_name().to_string(),
            no_avg_mean: mean,
            no_avg_half_std: half_std,
            no_peer_review: no_review,
            full_workflow: full,
        });
    }
    let full_wins = rows
        .iter()
        .filter(|r| r.full_workflow >= r.no_peer_review)
        .count();
    report.line(format!(
        "Full workflow ≥ no-peer-review on {full_wins}/3 datasets \
         (paper: full workflow best on scratch & stamping, competitive on bubble)"
    ));
    report.finish(&rows);
    ExitCode::SUCCESS
}
