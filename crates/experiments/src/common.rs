//! Shared plumbing for the per-table/figure experiment drivers.
//!
//! Every driver runs under one [`ExpEnv`]: a [`RunContext`] carrying the
//! seed, the [`ScalePlan`] and the run-wide artifact store, plus the
//! output directory. Dataset generation and feature matrices go through
//! the runtime's stages, so an `all` run (or a multi-arm driver)
//! generates each dataset once and matches a pattern bank against a
//! batch once. Images are passed raw: the matching engine keeps only a
//! few of them prepared at a time.

use crate::json::ToJson;
use ig_augment::policy::{Policy, PolicyOp};
use ig_augment::{augment, AugmentMethod, RganConfig};
use ig_core::{
    DevSet, FeatureGenerator, InspectorGadget, MatchBackend, Pattern, PatternSource,
    PipelineConfig, RunContext, ScalePlan, ScaleTier,
};
use ig_crowd::{sample_dev_set, CrowdWorkflow};
use ig_eval::metrics::task_f1;
use ig_nn::Matrix;
use ig_runtime::{infallible, GenerateDataset};
use ig_synth::spec::DatasetKind;
use ig_synth::{Dataset, LabeledImage, TaskType};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// One experiment invocation's environment: the shared [`RunContext`]
/// (seed, scale, artifact store) and the output directory.
pub struct ExpEnv {
    /// Run-wide context. Drivers clone it to install a fault plan
    /// ([`RunContext::with_plan`]); the clone shares the artifact store.
    pub ctx: RunContext,
    /// Report output directory.
    pub out: String,
}

impl ExpEnv {
    /// Scale plan shorthand.
    pub fn scale(&self) -> &ScalePlan {
        self.ctx.scale()
    }

    /// Seed shorthand.
    pub fn seed(&self) -> u64 {
        self.ctx.seed()
    }
}

/// A dataset with its sampled development order and the held-out rest.
pub struct Prepared {
    /// The generated dataset (shared via the context's artifact store —
    /// two drivers asking for the same kind/scale/seed get one copy).
    pub dataset: Arc<Dataset>,
    /// Dev indices in annotation order (prefixes = smaller dev sets).
    pub dev_order: Vec<usize>,
    /// Everything not in `dev_order` — the test set whose gold labels
    /// score the weak labels.
    pub test_indices: Vec<usize>,
}

impl Prepared {
    /// Generate (through the context's [`GenerateDataset`] stage) and
    /// split. The dev sampling uses `ctx.rng(0x5eed)`, preserving the
    /// legacy `seed ^ 0x5eed` derivation bit for bit.
    pub fn new(ctx: &RunContext, kind: DatasetKind) -> Prepared {
        let dataset = infallible(ctx.run(&mut GenerateDataset {
            spec: ctx.scale().spec(kind, ctx.seed()),
        }));
        let mut rng = ctx.rng(0x5eed);
        let mut dev_order =
            sample_dev_set(&dataset, ctx.scale().dev_defective_target(kind), &mut rng);
        // Keep at least a third of the data as test and make sure the dev
        // set covers all classes (a tiny sample can hit defectives only,
        // which no labeler can be trained on).
        let cap = (dataset.len() * 2) / 3;
        if dev_order.len() > cap.max(4) {
            dev_order.truncate(cap.max(4));
        }
        let mut in_dev: std::collections::HashSet<usize> = dev_order.iter().copied().collect();
        let classes_in = |dev: &[usize]| -> std::collections::HashSet<usize> {
            dev.iter().map(|&i| dataset.images[i].label).collect()
        };
        let num_classes = dataset.task.num_classes();
        let mut pool: Vec<usize> = (0..dataset.len()).filter(|i| !in_dev.contains(i)).collect();
        use rand::seq::SliceRandom;
        pool.shuffle(&mut rng);
        let mut pool_iter = pool.into_iter();
        while classes_in(&dev_order).len() < num_classes.min(2)
            && dev_order.len() < (dataset.len() * 2) / 3
        {
            let Some(next) = pool_iter.next() else { break };
            in_dev.insert(next);
            dev_order.push(next);
        }
        let test_indices: Vec<usize> = (0..dataset.len()).filter(|i| !in_dev.contains(i)).collect();
        Prepared {
            dataset,
            dev_order,
            test_indices,
        }
    }

    /// Number of classes of the task.
    pub fn num_classes(&self) -> usize {
        self.dataset.task.num_classes()
    }

    /// Dev images (full dev set).
    pub fn dev_images(&self) -> Vec<&LabeledImage> {
        self.dev_order
            .iter()
            .map(|&i| &self.dataset.images[i])
            .collect()
    }

    /// A prefix of the dev set of size `k` (clamped).
    pub fn dev_prefix(&self, k: usize) -> Vec<&LabeledImage> {
        self.dev_order
            .iter()
            .take(k.min(self.dev_order.len()))
            .map(|&i| &self.dataset.images[i])
            .collect()
    }

    /// Test images.
    pub fn test_images(&self) -> Vec<&LabeledImage> {
        self.test_indices
            .iter()
            .map(|&i| &self.dataset.images[i])
            .collect()
    }

    /// Test images without their labels: the batch the weak labels score.
    pub fn test_batch(&self) -> Vec<&ig_imaging::GrayImage> {
        self.test_indices
            .iter()
            .map(|&i| &self.dataset.images[i].image)
            .collect()
    }

    /// Gold labels of the test set.
    pub fn test_labels(&self) -> Vec<usize> {
        self.test_indices
            .iter()
            .map(|&i| self.dataset.images[i].label)
            .collect()
    }
}

/// A sensible default policy combination per dataset kind, standing in
/// for the Section 4.2 policy search: no driver runs
/// `ig_augment::search_policies` (the `surface_inspection` example does).
pub fn default_policies(kind: DatasetKind) -> Vec<Policy> {
    match kind {
        // Cracks: stretch + rotate (line-shaped defects).
        DatasetKind::Ksdd => vec![
            Policy {
                op: PolicyOp::Rotate,
                magnitude: 12.0,
            },
            Policy {
                op: PolicyOp::ResizeY,
                magnitude: 1.4,
            },
            Policy {
                op: PolicyOp::Brightness,
                magnitude: 1.15,
            },
        ],
        DatasetKind::ProductScratch => vec![
            Policy {
                op: PolicyOp::Rotate,
                magnitude: 8.0,
            },
            Policy {
                op: PolicyOp::ResizeX,
                magnitude: 1.5,
            },
            Policy {
                op: PolicyOp::Brightness,
                magnitude: 0.9,
            },
        ],
        DatasetKind::ProductBubble => vec![
            Policy {
                op: PolicyOp::ResizeX,
                magnitude: 1.2,
            },
            Policy {
                op: PolicyOp::Brightness,
                magnitude: 0.85,
            },
            Policy {
                op: PolicyOp::Noise,
                magnitude: 0.03,
            },
        ],
        DatasetKind::ProductStamping => vec![
            Policy {
                op: PolicyOp::TranslateX,
                magnitude: 2.0,
            },
            Policy {
                op: PolicyOp::Brightness,
                magnitude: 1.1,
            },
            Policy {
                op: PolicyOp::Contrast,
                magnitude: 1.3,
            },
        ],
        DatasetKind::Neu => vec![
            Policy {
                op: PolicyOp::Rotate,
                magnitude: 15.0,
            },
            Policy {
                op: PolicyOp::Contrast,
                magnitude: 1.3,
            },
            Policy {
                op: PolicyOp::Noise,
                magnitude: 0.04,
            },
        ],
    }
}

/// GAN config scaled for experiments.
pub fn gan_config(scale: &ScalePlan) -> RganConfig {
    match scale.tier {
        ScaleTier::Quick => RganConfig::quick(),
        ScaleTier::Medium => RganConfig {
            epochs: 150,
            pattern_side: 12,
            ..RganConfig::default()
        },
        ScaleTier::Paper | ScaleTier::Ooc => RganConfig {
            epochs: 400,
            ..RganConfig::default()
        },
    }
}

/// Everything produced by one Inspector Gadget run.
pub struct IgRun {
    /// F1 of the weak labels on the test set.
    pub f1: f64,
    /// Per-test-image max FGF similarity (error analysis).
    pub max_similarities: Vec<f32>,
    /// Weak labels on the test set.
    pub weak_labels: Vec<usize>,
    /// Feature matrices so baselines can reuse them.
    pub dev_features: Matrix,
    /// Feature matrices so baselines can reuse them.
    pub test_features: Matrix,
}

/// Run the full Inspector Gadget pipeline on a prepared dataset.
///
/// `dev` is the (possibly prefixed) development set; patterns come from
/// the crowd workflow, get augmented with `method`, then the tuned
/// labeler weak-labels the test set. Every stage memoizes in
/// `ctx`'s artifact store.
#[allow(clippy::too_many_arguments)]
pub fn run_inspector_gadget(
    ctx: &RunContext,
    prepared: &Prepared,
    dev: &[&LabeledImage],
    method: AugmentMethod,
    budget: usize,
    tune: bool,
    kind: DatasetKind,
    seed: u64,
) -> Option<IgRun> {
    let mut rng = StdRng::seed_from_u64(seed);
    let crowd_out = CrowdWorkflow::full().run(dev, &mut rng);
    if crowd_out.patterns.is_empty() {
        return None;
    }
    let policies = default_policies(kind);
    let all_patterns = augment(
        &crowd_out.patterns,
        method,
        budget,
        &policies,
        &gan_config(ctx.scale()),
        &mut rng,
    );
    run_ig_with_patterns(ctx, prepared, dev, all_patterns, tune, seed)
}

/// Run IG given an explicit pattern set (used by ablations).
pub fn run_ig_with_patterns(
    ctx: &RunContext,
    prepared: &Prepared,
    dev: &[&LabeledImage],
    patterns: Vec<ig_imaging::GrayImage>,
    tune: bool,
    seed: u64,
) -> Option<IgRun> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa5a5);
    let patterns = Pattern::wrap_all(patterns, PatternSource::Crowd);
    let dev_images: Vec<&ig_imaging::GrayImage> = dev.iter().map(|l| &l.image).collect();
    let dev_labels: Vec<usize> = dev.iter().map(|l| l.label).collect();
    // Need both classes in dev.
    {
        let mut seen = std::collections::HashSet::new();
        for &l in &dev_labels {
            seen.insert(l);
        }
        if seen.len() < 2 {
            return None;
        }
    }
    let num_classes = prepared.num_classes();
    let config = PipelineConfig {
        backend: MatchBackend::Pyramid,
        tune,
        ..Default::default()
    };
    let ig = InspectorGadget::train_in(
        ctx,
        patterns,
        DevSet::Raw(&dev_images),
        &dev_labels,
        num_classes,
        &config,
        &mut rng,
    )
    .ok()?;
    let test_features = ig.features_in(ctx, DevSet::Raw(&prepared.test_batch()));
    let out = ig.label_from_features(&test_features);
    let gold = prepared.test_labels();
    let score = task_f1(num_classes, &gold, &out.labels);
    // The dev matrix was already computed (and tuned on) during training.
    let dev_features = ig.dev_features().clone();
    Some(IgRun {
        f1: score,
        max_similarities: out.max_similarities,
        weak_labels: out.labels,
        dev_features,
        test_features: (*test_features).clone(),
    })
}

/// Crowd patterns only (no augmentation) — shared by several drivers.
pub fn crowd_patterns(
    dev: &[&LabeledImage],
    workflow: &CrowdWorkflow,
    seed: u64,
) -> Vec<ig_imaging::GrayImage> {
    let mut rng = StdRng::seed_from_u64(seed);
    workflow.run(dev, &mut rng).patterns
}

/// Dispatch: a FeatureGenerator over raw crops.
pub fn feature_generator(patterns: &[ig_imaging::GrayImage]) -> Option<FeatureGenerator> {
    FeatureGenerator::new(Pattern::wrap_all(patterns.to_vec(), PatternSource::Crowd)).ok()
}

/// Report writer: pretty text to stdout, JSON records to `results/`.
pub struct Report {
    name: String,
    out_dir: PathBuf,
    lines: Vec<String>,
}

impl Report {
    /// Create for an experiment id like "table4".
    pub fn new(name: &str, out_dir: &str) -> Report {
        Report {
            name: name.to_string(),
            out_dir: PathBuf::from(out_dir),
            lines: Vec::new(),
        }
    }

    /// Print and remember a line.
    pub fn line(&mut self, text: impl AsRef<str>) {
        println!("{}", text.as_ref());
        self.lines.push(text.as_ref().to_string());
    }

    /// Persist the text and a JSON payload.
    pub fn finish<T: ToJson + ?Sized>(self, payload: &T) {
        if std::fs::create_dir_all(&self.out_dir).is_err() {
            return;
        }
        let txt_path = self.out_dir.join(format!("{}.txt", self.name));
        if let Ok(mut f) = std::fs::File::create(&txt_path) {
            let _ = writeln!(f, "{}", self.lines.join("\n"));
        }
        let json_path = self.out_dir.join(format!("{}.json", self.name));
        let _ = std::fs::write(json_path, payload.to_json().pretty());
    }
}

/// Human-readable task tag used by Table 1.
pub fn task_name(task: TaskType) -> &'static str {
    match task {
        TaskType::Binary => "Binary",
        TaskType::MultiClass(_) => "Multi-class",
    }
}
