//! Table 6: error analysis — Inspector Gadget's mistakes classified into
//! matching failure / noisy data / difficult-to-humans, using the
//! generators' gold noise/difficulty flags.

use crate::common::{run_inspector_gadget, ExpEnv, Prepared, Report};
use crate::json::json_record;
use ig_augment::AugmentMethod;
use ig_eval::error_analysis::{categorize_errors, SampleDiagnostics};
use ig_synth::spec::DatasetKind;
use std::process::ExitCode;

json_record! {
    struct Row {
        dataset: String,
        matching_failure: usize,
        noisy_data: usize,
        difficult: usize,
        percentages: [f64; 3],
    }
}

/// Run the Table 6 reproduction.
pub fn run(env: &ExpEnv) -> ExitCode {
    let seed = env.seed();
    let mut report = Report::new("table6", &env.out);
    report.line(format!(
        "Table 6 (reproduction, scale={}): error analysis of Inspector Gadget",
        env.scale().name()
    ));
    report.line(format!(
        "{:<22} {:>22} {:>16} {:>22}",
        "Dataset", "Matching failure", "Noisy data", "Difficult to humans"
    ));
    let mut rows = Vec::new();
    for kind in DatasetKind::all() {
        let prepared = Prepared::new(&env.ctx, kind);
        let dev = prepared.dev_images();
        let Some(run) = run_inspector_gadget(
            &env.ctx,
            &prepared,
            &dev,
            AugmentMethod::Both,
            env.scale().augment_budget,
            false,
            kind,
            seed,
        ) else {
            report.line(format!(
                "{:<22} (skipped: no patterns)",
                kind.display_name()
            ));
            continue;
        };
        let test = prepared.test_images();
        let gold = prepared.test_labels();
        let diagnostics: Vec<SampleDiagnostics> = test
            .iter()
            .zip(&gold)
            .zip(run.weak_labels.iter().zip(&run.max_similarities))
            .map(|((img, &g), (&pred, &sim))| SampleDiagnostics {
                mispredicted: g != pred,
                noisy: img.noisy,
                difficult: img.difficult,
                max_similarity: sim,
            })
            .collect();
        // Threshold: the median max-similarity of *correct* samples minus
        // a margin — matches that a "silent" feature vector is the cause.
        let mut correct_sims: Vec<f32> = diagnostics
            .iter()
            .filter(|d| !d.mispredicted)
            .map(|d| d.max_similarity)
            .collect();
        correct_sims.sort_by(f32::total_cmp);
        let threshold = correct_sims
            .get(correct_sims.len() / 2)
            .copied()
            .unwrap_or(0.5)
            - 0.02;
        let breakdown = categorize_errors(&diagnostics, threshold);
        let p = breakdown.percentages();
        report.line(format!(
            "{:<22} {:>13} ({:>4.1} %) {:>7} ({:>4.1} %) {:>13} ({:>4.1} %)",
            kind.display_name(),
            breakdown.matching_failure,
            p[0],
            breakdown.noisy_data,
            p[1],
            breakdown.difficult,
            p[2]
        ));
        rows.push(Row {
            dataset: kind.display_name().to_string(),
            matching_failure: breakdown.matching_failure,
            noisy_data: breakdown.noisy_data,
            difficult: breakdown.difficult,
            percentages: p,
        });
    }
    let matching_dominant = rows
        .iter()
        .filter(|r| r.matching_failure >= r.noisy_data && r.matching_failure >= r.difficult)
        .count();
    report.line(format!(
        "Matching failure is the most common cause on {matching_dominant}/{} datasets \
         (paper: most common everywhere, 36.7–63.6%)",
        rows.len()
    ));
    report.finish(&rows);
    ExitCode::SUCCESS
}
