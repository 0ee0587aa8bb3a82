//! Table 4: pattern augmentation ablation — crowd patterns only vs
//! policy-based vs GAN-based vs both, per dataset.

use crate::common::{run_inspector_gadget, ExpEnv, Prepared, Report};
use crate::json::json_record;
use ig_augment::AugmentMethod;
use ig_synth::spec::DatasetKind;
use std::process::ExitCode;

json_record! {
    struct Row {
        dataset: String,
        no_aug: f64,
        policy: f64,
        gan: f64,
        both: f64,
    }
}

/// Run the Table 4 reproduction.
pub fn run(env: &ExpEnv) -> ExitCode {
    let seed = env.seed();
    let mut report = Report::new("table4", &env.out);
    report.line(format!(
        "Table 4 (reproduction, scale={}): augmentation impact on weak-label F1",
        env.scale.name()
    ));
    report.line(format!(
        "{:<22} {:>9} {:>13} {:>11} {:>11}",
        "Dataset", "No Aug.", "Policy Based", "GAN Based", "Using Both"
    ));
    let budget = env.scale.augment_budget();
    let mut rows = Vec::new();
    for kind in DatasetKind::all() {
        let prepared = Prepared::new(&env.ctx, env.scale, kind);
        let dev = prepared.dev_images();
        let mut scores = [0.0f64; 4];
        for (i, method) in AugmentMethod::all().into_iter().enumerate() {
            scores[i] =
                run_inspector_gadget(env, &prepared, &dev, method, budget, false, kind, seed)
                    .map(|r| r.f1)
                    .unwrap_or(0.0);
        }
        report.line(format!(
            "{:<22} {:>9.3} {:>13.3} {:>11.3} {:>11.3}",
            kind.display_name(),
            scores[0],
            scores[1],
            scores[2],
            scores[3]
        ));
        rows.push(Row {
            dataset: kind.display_name().to_string(),
            no_aug: scores[0],
            policy: scores[1],
            gan: scores[2],
            both: scores[3],
        });
    }
    let aug_helps = rows
        .iter()
        .filter(|r| r.both.max(r.policy).max(r.gan) >= r.no_aug)
        .count();
    report.line(format!(
        "Augmentation helps (best arm ≥ no-aug) on {aug_helps}/{} datasets \
         (paper: augmentation lifts every dataset; 'both' usually best)",
        rows.len()
    ));
    report.finish(&rows);
    ExitCode::SUCCESS
}
