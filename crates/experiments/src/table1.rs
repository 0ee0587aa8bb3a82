//! Table 1: dataset statistics — image size, N (N_D), N_V (N_DV), defect
//! and task type — for the generated simulacra.

use crate::common::{task_name, ExpEnv, Prepared, Report};
use crate::json::json_record;
use std::process::ExitCode;

json_record! {
    struct Row {
        dataset: String,
        image_size: String,
        n: usize,
        n_defective: usize,
        n_dev: usize,
        n_dev_defective: usize,
        defect_type: String,
        task_type: String,
    }
}

/// Run the Table 1 reproduction.
pub fn run(env: &ExpEnv) -> ExitCode {
    let mut report = Report::new("table1", &env.out);
    report.line(format!(
        "Table 1 (reproduction, scale={}): dataset statistics",
        env.scale.name()
    ));
    report.line(format!(
        "{:<22} {:>11} {:>12} {:>12}  {:<28} {:<11}",
        "Dataset", "Image size", "N (N_D)", "N_V (N_DV)", "Defect Type", "Task Type"
    ));
    let mut rows = Vec::new();
    for kind in ig_synth::spec::DatasetKind::all() {
        let prepared = Prepared::new(&env.ctx, env.scale, kind);
        let (w, h) = prepared.dataset.image_dims();
        let dev = prepared.dev_images();
        let dev_defective = dev.iter().filter(|i| i.is_defective()).count();
        let defect_type = match kind {
            ig_synth::spec::DatasetKind::Ksdd => "Crack",
            ig_synth::spec::DatasetKind::ProductScratch => "Scratch",
            ig_synth::spec::DatasetKind::ProductBubble => "Bubble",
            ig_synth::spec::DatasetKind::ProductStamping => "Stamping",
            ig_synth::spec::DatasetKind::Neu => "6 steel-surface classes",
        };
        let row = Row {
            dataset: prepared.dataset.name.clone(),
            image_size: format!("{w} x {h}"),
            n: prepared.dataset.len(),
            n_defective: prepared.dataset.num_defective(),
            n_dev: dev.len(),
            n_dev_defective: dev_defective,
            defect_type: defect_type.to_string(),
            task_type: task_name(prepared.dataset.task).to_string(),
        };
        report.line(format!(
            "{:<22} {:>11} {:>12} {:>12}  {:<28} {:<11}",
            row.dataset,
            row.image_size,
            format!("{} ({})", row.n, row.n_defective),
            format!("{} ({})", row.n_dev, row.n_dev_defective),
            row.defect_type,
            row.task_type
        ));
        rows.push(row);
    }
    report.finish(&rows);
    ExitCode::SUCCESS
}
