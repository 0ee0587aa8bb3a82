//! Table 2: transfer-learning source comparison — pre-train VGG (MiniVGG)
//! on each other defect dataset vs a generic corpus (SynthNet standing in
//! for ImageNet), fine-tune on the target dev set, and report target-test
//! F1. The paper's finding: generic pre-training wins everywhere.

use crate::common::{ExpEnv, Prepared, Report};
use crate::json::json_record;
use ig_baselines::cnn_models::CnnArch;
use ig_baselines::selflearn::SelfLearnConfig;
use ig_baselines::transfer::{fine_tune, pretrain};
use ig_core::ScaleTier;
use ig_eval::metrics::task_f1;
use ig_imaging::GrayImage;
use ig_synth::spec::DatasetKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

json_record! {
    struct Cell {
        target: String,
        source: String,
        f1: f64,
    }
}

const TARGETS: [DatasetKind; 4] = [
    DatasetKind::ProductScratch,
    DatasetKind::ProductBubble,
    DatasetKind::ProductStamping,
    DatasetKind::Ksdd,
];

/// Run the Table 2 reproduction.
pub fn run(env: &ExpEnv) -> ExitCode {
    let seed = env.seed();
    let mut report = Report::new("table2", &env.out);
    report.line(format!(
        "Table 2 (reproduction, scale={}): MiniVGG F1 when pre-trained on various sources",
        env.scale().name()
    ));
    let config = SelfLearnConfig {
        epochs: env.scale().cnn_epochs,
        ..Default::default()
    };

    // Source corpora: the four defect datasets (full, gold labels — the
    // paper pre-trains on whole labeled datasets) + SynthNet.
    let source_names: Vec<String> = TARGETS
        .iter()
        .map(|k| k.display_name().to_string())
        .chain(std::iter::once("SynthNet (ImageNet)".to_string()))
        .collect();

    let targets: Vec<Prepared> = TARGETS
        .iter()
        .map(|&k| Prepared::new(&env.ctx, k))
        .collect();
    let synthnet = ig_synth::synthnet::generate(
        match env.scale().tier {
            ScaleTier::Quick => 64,
            ScaleTier::Medium => 320,
            ScaleTier::Paper | ScaleTier::Ooc => 800,
        },
        32,
        seed ^ 0x1111,
    );

    report.line(format!(
        "{:<20} {}",
        "Target \\ Source",
        source_names
            .iter()
            .map(|s| format!("{s:>20}"))
            .collect::<String>()
    ));

    let mut cells = Vec::new();
    for (ti, target) in targets.iter().enumerate() {
        let mut row = format!("{:<20}", TARGETS[ti].display_name());
        let dev = target.dev_images();
        let dev_imgs: Vec<&GrayImage> = dev.iter().map(|l| &l.image).collect();
        let dev_labels: Vec<usize> = dev.iter().map(|l| l.label).collect();
        let test = target.test_images();
        let test_imgs: Vec<&GrayImage> = test.iter().map(|l| &l.image).collect();
        let test_labels = target.test_labels();
        for (si, source_name) in source_names.iter().enumerate() {
            if si == ti {
                row.push_str(&format!("{:>20}", "x"));
                continue;
            }
            let mut rng = StdRng::seed_from_u64(seed ^ ((ti * 16 + si) as u64) << 8);
            let (src_imgs, src_labels, src_classes): (Vec<&GrayImage>, Vec<usize>, usize) =
                if si < TARGETS.len() {
                    let src = &targets[si];
                    (
                        src.dataset.images.iter().map(|l| &l.image).collect(),
                        src.dataset.labels(),
                        src.num_classes(),
                    )
                } else {
                    (
                        synthnet.images.iter().map(|l| &l.image).collect(),
                        synthnet.labels(),
                        synthnet.task.num_classes(),
                    )
                };
            let pre = pretrain(
                CnnArch::MiniVgg,
                &src_imgs,
                &src_labels,
                src_classes,
                &config,
                &mut rng,
            );
            let tuned = fine_tune(
                pre,
                &dev_imgs,
                &dev_labels,
                target.num_classes(),
                &config,
                &mut rng,
            );
            let preds = tuned.label(&test_imgs);
            let score = task_f1(target.num_classes(), &test_labels, &preds);
            row.push_str(&format!("{score:>20.3}"));
            cells.push(Cell {
                target: TARGETS[ti].display_name().to_string(),
                source: source_name.clone(),
                f1: score,
            });
        }
        report.line(row);
    }
    // Shape check: generic pre-training should win per target.
    let mut wins = 0usize;
    for target in TARGETS.iter().map(|k| k.display_name()) {
        let best_defect = cells
            .iter()
            .filter(|c| c.target == target && !c.source.starts_with("SynthNet"))
            .map(|c| c.f1)
            .fold(f64::NEG_INFINITY, f64::max);
        let generic = cells
            .iter()
            .find(|c| c.target == target && c.source.starts_with("SynthNet"))
            .map(|c| c.f1)
            .unwrap_or(0.0);
        if generic >= best_defect {
            wins += 1;
        }
    }
    report.line(format!(
        "Generic (SynthNet) pre-training wins on {wins}/4 targets \
         (paper: ImageNet wins on 4/4)"
    ));
    report.finish(&cells);
    ExitCode::SUCCESS
}
