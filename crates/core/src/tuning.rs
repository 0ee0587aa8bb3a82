//! Automatic labeler tuning (Sections 5.2 and 6.5).
//!
//! "We use an MLP with 1 to 3 hidden layers and varied the number of nodes
//! per hidden layer to be one of {2^n | n = 1..m and 2^(m−1) ≤ I ≤ 2^m}
//! where I is the number of input nodes." Candidates are scored with
//! stratified k-fold cross-validation on the development set (each fold
//! keeping at least 20 examples per class when possible) and the best
//! architecture is retrained on the full development set.
//!
//! # Parallel tuning and the draw-order contract
//!
//! Tuning runs in three phases so that its result is bit-identical at any
//! thread count:
//!
//! 1. **Serial draws.** For each candidate in [`candidate_architectures`]
//!    order, the caller's RNG draws the candidate's [`stratified_kfold`]
//!    split and then one [`Labeler::new`] initialization per usable fold,
//!    in fold order. A `Labeler::new` error ends that candidate's draws
//!    (and fails the candidate) at the fold where it happens.
//! 2. **Parallel fits.** The fold fits (fit on the training half, predict
//!    the validation half, score F1) share nothing and draw nothing, so
//!    they run on the feature engine's work-stealing workers. Results are
//!    stored by job index and reduced per candidate in fold order, so
//!    every `cv_f1` is the same f64 sum as a serial run. Skipped
//!    candidates are recorded on the health report in candidate order
//!    after the join.
//! 3. **Serial refit.** The winner's initialization is drawn after every
//!    CV draw and its fit on the whole development set runs on the
//!    calling thread: it is one fit, it needs the health ladder, and
//!    nothing else is left to overlap it with.
//!
//! One edge differs from a loop that draws and fits fold by fold: there, a
//! fold whose *fit* fails stops the candidate before its later folds draw
//! their inits; here every init is drawn up front. So after such a
//! failure the RNG stream (and everything drawn from it later) differs.
//! Without a failing fit the stream is the same draw for draw.

use crate::features::{default_threads, work_steal};
use crate::labeler::{Labeler, LabelerConfig};
use crate::{CoreError, Result};
use ig_eval::metrics::task_f1;
use ig_faults::{FaultKind, FaultPlan, HealthReport, RecoveryAction, Stage};
use ig_nn::lbfgs::LbfgsConfig;
use ig_nn::train::{paper_fold_count, stratified_kfold};
use ig_nn::Matrix;
use rand::Rng;

/// Tuning parameters.
#[derive(Debug, Clone)]
pub struct TuningConfig {
    /// Maximum hidden depth (paper: 3).
    pub max_hidden_layers: usize,
    /// Paper rule: each CV fold keeps at least this many examples per
    /// class (paper: 20); fold count derives from it.
    pub min_per_class_per_fold: usize,
    /// L2 decay passed to every candidate.
    pub l2: f32,
    /// L-BFGS settings per candidate fit.
    pub lbfgs: LbfgsConfig,
}

impl Default for TuningConfig {
    fn default() -> Self {
        Self {
            max_hidden_layers: 3,
            min_per_class_per_fold: 20,
            l2: 1e-3,
            lbfgs: LbfgsConfig {
                max_iters: 120,
                ..Default::default()
            },
        }
    }
}

/// One evaluated candidate.
#[derive(Debug, Clone)]
pub struct CandidateScore {
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Mean cross-validated F1.
    pub cv_f1: f64,
}

/// What the tuner tried and chose.
#[derive(Debug, Clone)]
pub struct TuningReport {
    /// Every candidate with its CV score.
    pub candidates: Vec<CandidateScore>,
    /// The chosen architecture.
    pub best_hidden: Vec<usize>,
    /// Its CV F1.
    pub best_cv_f1: f64,
    /// Folds used.
    pub folds: usize,
}

/// The paper's width set: powers of two `2^1 .. 2^m` with
/// `2^(m-1) ≤ I ≤ 2^m` for input dimension `I`.
pub fn width_options(input_dim: usize) -> Vec<usize> {
    let mut m = 1usize;
    while (1usize << m) < input_dim.max(2) {
        m += 1;
    }
    (1..=m).map(|n| 1usize << n).collect()
}

/// All candidate architectures: depth 1..=max_depth, uniform width from
/// [`width_options`].
pub fn candidate_architectures(input_dim: usize, max_depth: usize) -> Vec<Vec<usize>> {
    let widths = width_options(input_dim);
    let mut out = Vec::new();
    for depth in 1..=max_depth.max(1) {
        for &w in &widths {
            out.push(vec![w; depth]);
        }
    }
    out
}

/// One cross-validation fit, drawn in phase 1: a fold's rows and the
/// candidate's initialization for it.
struct FoldJob {
    train: Vec<usize>,
    val: Vec<usize>,
    init: Labeler,
}

/// Phase 1 for one candidate: draw its fold split and one init per usable
/// fold from `rng`, or say why it cannot be scored.
fn draw_folds(
    features: &Matrix,
    labels: &[usize],
    num_classes: usize,
    hidden: &[usize],
    config: &TuningConfig,
    folds: usize,
    rng: &mut impl Rng,
) -> Result<Vec<FoldJob>> {
    let mut drawn = Vec::new();
    for fold in stratified_kfold(labels, folds, rng) {
        if fold.train.is_empty() || fold.val.is_empty() {
            continue;
        }
        // A fold whose training half lost a class entirely cannot be fit.
        let mut seen = vec![false; num_classes];
        for &i in &fold.train {
            seen[labels[i]] = true;
        }
        if !seen.iter().all(|&s| s) {
            continue;
        }
        let init = Labeler::new(
            features.cols(),
            LabelerConfig {
                hidden: hidden.to_vec(),
                num_classes,
                l2: config.l2,
                lbfgs: config.lbfgs,
            },
            rng,
        )?;
        drawn.push(FoldJob {
            train: fold.train,
            val: fold.val,
            init,
        });
    }
    if drawn.is_empty() {
        return Err(CoreError::BadDevSet(
            "no usable cross-validation folds".into(),
        ));
    }
    Ok(drawn)
}

/// Phase 2 for one job: fit a copy of the drawn init on the fold's
/// training rows and score F1 on its validation rows.
fn fold_f1(features: &Matrix, labels: &[usize], num_classes: usize, job: &FoldJob) -> Result<f64> {
    let rows_labels = |rows: &[usize]| -> Vec<usize> { rows.iter().map(|&i| labels[i]).collect() };
    let mut labeler = job.init.clone();
    labeler.fit(&features.select_rows(&job.train), &rows_labels(&job.train))?;
    let preds = labeler.predict(&features.select_rows(&job.val));
    Ok(task_f1(num_classes, &rows_labels(&job.val), &preds))
}

/// Full tuning procedure: score every candidate, retrain the best on the
/// whole development set. The fold fits run on every available core; the
/// result does not depend on how many there are.
///
/// A candidate whose cross-validation fails (diverged fits, unusable
/// folds) is skipped and recorded on `health` (when given) instead of
/// aborting the whole search. Tuning only errors when *no* candidate
/// survives — callers then fall back to a fixed architecture or a
/// class-prior labeler.
pub fn tune_labeler_with_health(
    features: &Matrix,
    labels: &[usize],
    num_classes: usize,
    config: &TuningConfig,
    rng: &mut impl Rng,
    health: Option<&HealthReport>,
) -> Result<(Labeler, TuningReport)> {
    tune_labeler_in(
        features,
        labels,
        num_classes,
        config,
        rng,
        default_threads(),
        None,
        health,
    )
}

/// [`tune_labeler_with_health`] on at most `threads` workers, under an
/// optional chaos plan whose `worker_panic` sites fire on the fit workers.
/// See the module docs for the three phases and the draw-order contract.
#[allow(clippy::too_many_arguments)]
pub(crate) fn tune_labeler_in(
    features: &Matrix,
    labels: &[usize],
    num_classes: usize,
    config: &TuningConfig,
    rng: &mut impl Rng,
    threads: usize,
    plan: Option<&FaultPlan>,
    health: Option<&HealthReport>,
) -> Result<(Labeler, TuningReport)> {
    if features.rows() != labels.len() || features.rows() == 0 {
        return Err(CoreError::BadDevSet("empty or mismatched dev set".into()));
    }
    let distinct = {
        let mut seen = std::collections::HashSet::new();
        labels.iter().for_each(|&l| {
            seen.insert(l);
        });
        seen.len()
    };
    if distinct < 2 {
        return Err(CoreError::BadDevSet(
            "development set has a single class".into(),
        ));
    }
    let folds = paper_fold_count(labels, config.min_per_class_per_fold);
    let archs = candidate_architectures(features.cols(), config.max_hidden_layers);

    // Phase 1: every split and init, in the serial draw order. Each
    // candidate keeps its job count (or its error); the jobs queue up.
    let mut jobs = Vec::new();
    let drawn: Vec<Result<usize>> = archs
        .iter()
        .map(|hidden| {
            let folds = draw_folds(features, labels, num_classes, hidden, config, folds, rng)?;
            let n = folds.len();
            jobs.extend(folds);
            Ok(n)
        })
        .collect();

    // Phase 2: the fold fits, on the feature engine's workers.
    let scores = work_steal(
        jobs.len(),
        threads,
        plan,
        |k| fold_f1(features, labels, num_classes, &jobs[k]),
        |panicked, lost| {
            for w in panicked {
                if let Some(h) = health {
                    h.record(
                        Stage::Tuning,
                        FaultKind::WorkerPanic,
                        RecoveryAction::SerialRecompute,
                        format!("tuning worker {w} panicked; {lost} lost fits recomputed serially"),
                    );
                }
            }
        },
    );
    let mut scores = scores.into_iter();
    let mut candidates = Vec::new();
    let mut best: Option<CandidateScore> = None;
    for (hidden, drawn) in archs.into_iter().zip(drawn) {
        let cv_f1 = drawn.and_then(|n| {
            // Take all of this candidate's scores, even past a failed fold,
            // so the next candidate starts at its own first job.
            let fold_scores: Vec<Result<f64>> = scores.by_ref().take(n).collect();
            let mut total = 0.0f64;
            for f1 in fold_scores {
                total += f1?;
            }
            Ok(total / n as f64)
        });
        let cv_f1 = match cv_f1 {
            Ok(f1) => f1,
            Err(e) => {
                if let Some(h) = health {
                    h.record(
                        Stage::Tuning,
                        FaultKind::TuningFailure,
                        RecoveryAction::NoneRequired,
                        format!("candidate {hidden:?} skipped: {e}"),
                    );
                }
                continue;
            }
        };
        let cand = CandidateScore { hidden, cv_f1 };
        if best.as_ref().is_none_or(|b| cand.cv_f1 > b.cv_f1) {
            best = Some(cand.clone());
        }
        candidates.push(cand);
    }
    let Some(best) = best else {
        return Err(CoreError::BadDevSet(
            "every tuning candidate failed cross-validation".into(),
        ));
    };

    // Phase 3: the winner's refit, drawn after every CV init.
    let mut labeler = Labeler::new(
        features.cols(),
        LabelerConfig {
            hidden: best.hidden.clone(),
            num_classes,
            l2: config.l2,
            lbfgs: config.lbfgs,
        },
        rng,
    )?;
    labeler.fit_with_health(features, labels, health)?;
    Ok((
        labeler,
        TuningReport {
            candidates,
            best_hidden: best.hidden,
            best_cv_f1: best.cv_f1,
            folds,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn width_options_follow_paper_rule() {
        // I = 20 → m = 5 (16 < 20 ≤ 32): widths 2..32.
        assert_eq!(width_options(20), vec![2, 4, 8, 16, 32]);
        // I = 16 → exact power: m = 4.
        assert_eq!(width_options(16), vec![2, 4, 8, 16]);
        assert_eq!(width_options(2), vec![2]);
        assert_eq!(width_options(3), vec![2, 4]);
    }

    #[test]
    fn candidate_count_is_depth_times_widths() {
        let c = candidate_architectures(16, 3);
        assert_eq!(c.len(), 4 * 3);
        assert!(c.contains(&vec![8, 8, 8]));
        assert!(c.contains(&vec![2]));
    }

    fn separable_data(seed: u64, n: usize) -> (Matrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let defect = i % 2 == 1;
            let base: f32 = if defect { 0.95 } else { 0.82 };
            rows.push(vec![
                base + rng.gen_range(-0.02..0.02),
                rng.gen_range(0.8..0.9),
                base + rng.gen_range(-0.02..0.02),
                rng.gen_range(0.8..0.9),
            ]);
            labels.push(usize::from(defect));
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn tuning_picks_a_working_architecture() {
        let mut rng = StdRng::seed_from_u64(0);
        let (x, y) = separable_data(1, 80);
        let config = TuningConfig {
            max_hidden_layers: 2,
            lbfgs: LbfgsConfig {
                max_iters: 60,
                ..Default::default()
            },
            ..Default::default()
        };
        let (labeler, report) =
            tune_labeler_with_health(&x, &y, 2, &config, &mut rng, None).unwrap();
        assert!(report.best_cv_f1 > 0.8, "cv f1 {}", report.best_cv_f1);
        assert!(!report.candidates.is_empty());
        let preds = labeler.predict(&x);
        let correct = preds.iter().zip(&y).filter(|(a, b)| a == b).count();
        assert!(correct >= 70, "{correct}/80");
    }

    #[test]
    fn tuning_report_contains_all_candidates() {
        let mut rng = StdRng::seed_from_u64(2);
        let (x, y) = separable_data(3, 60);
        let config = TuningConfig {
            max_hidden_layers: 3,
            lbfgs: LbfgsConfig {
                max_iters: 30,
                ..Default::default()
            },
            ..Default::default()
        };
        let (_, report) = tune_labeler_with_health(&x, &y, 2, &config, &mut rng, None).unwrap();
        // x has 4 columns → widths {2, 4} → 2 * 3 depths = 6 candidates.
        assert_eq!(report.candidates.len(), 6);
        let best_in_list = report
            .candidates
            .iter()
            .map(|c| c.cv_f1)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((best_in_list - report.best_cv_f1).abs() < 1e-12);
    }

    #[test]
    fn tuning_on_prepared_features_matches_tuning_on_raw_features() {
        use crate::features::FeatureGenerator;
        use crate::pattern::Pattern;
        use ig_imaging::GrayImage;
        let mut pat = GrayImage::filled(7, 7, 0.15);
        pat.fill_rect(0, 0, 7, 1, 0.6);
        let fg = FeatureGenerator::new(vec![Pattern::crowd(pat)]).unwrap();
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let defect = i % 2 == 1;
            let mut img = GrayImage::from_fn(48, 32, |x, y| {
                0.65 + 0.05 * ((x as f32 * 0.4).sin() * (y as f32 * 0.3).cos())
            });
            if defect {
                img.fill_rect(2 + (i % 30), 2 + (i % 20), 7, 7, 0.15);
            }
            images.push(img);
            labels.push(usize::from(defect));
        }
        let refs: Vec<&GrayImage> = images.iter().collect();
        let config = TuningConfig {
            max_hidden_layers: 1,
            lbfgs: LbfgsConfig {
                max_iters: 40,
                ..Default::default()
            },
            ..Default::default()
        };
        let features = fg.feature_matrix(&refs);
        let mut rng_a = StdRng::seed_from_u64(30);
        let (labeler_a, report_a) =
            tune_labeler_with_health(&features, &labels, 2, &config, &mut rng_a, None).unwrap();
        let prepared = fg.feature_matrix_prepared(&fg.prepare_images(&refs));
        let health = HealthReport::new();
        let mut rng_b = StdRng::seed_from_u64(30);
        let (labeler_b, report_b) =
            tune_labeler_with_health(&prepared, &labels, 2, &config, &mut rng_b, Some(&health))
                .unwrap();
        assert_eq!(features.as_slice(), prepared.as_slice());
        assert_eq!(report_a.best_hidden, report_b.best_hidden);
        assert_eq!(labeler_a.predict(&features), labeler_b.predict(&prepared));
    }

    #[test]
    fn single_class_dev_set_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = Matrix::from_rows(&[vec![0.5, 0.5], vec![0.6, 0.4]]);
        let y = vec![0usize, 0];
        assert!(
            tune_labeler_with_health(&x, &y, 2, &TuningConfig::default(), &mut rng, None).is_err()
        );
    }

    #[test]
    fn empty_dev_set_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = Matrix::zeros(0, 3);
        assert!(
            tune_labeler_with_health(&x, &[], 2, &TuningConfig::default(), &mut rng, None).is_err()
        );
    }

    #[test]
    fn fold_count_respects_small_dev_sets() {
        let mut rng = StdRng::seed_from_u64(6);
        let (x, y) = separable_data(7, 20);
        let config = TuningConfig {
            max_hidden_layers: 1,
            lbfgs: LbfgsConfig {
                max_iters: 30,
                ..Default::default()
            },
            ..Default::default()
        };
        // 10 per class, min 20 per fold → clamps to 2 folds and still runs.
        let (_, report) = tune_labeler_with_health(&x, &y, 2, &config, &mut rng, None).unwrap();
        assert_eq!(report.folds, 2);
    }

    /// `classes` noisy clusters over `cols` features: feature `j` is high
    /// for class `j % classes`, plus uniform noise of half-width `noise`.
    /// Fixed by `seed`.
    fn cluster_task(
        seed: u64,
        classes: usize,
        per_class: usize,
        cols: usize,
        noise: f32,
    ) -> (Matrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..classes * per_class {
            let c = i % classes;
            rows.push(
                (0..cols)
                    .map(
                        |j| if j % classes == c { 0.9 } else { 0.7 } + rng.gen_range(-noise..noise),
                    )
                    .collect(),
            );
            labels.push(c);
        }
        (Matrix::from_rows(&rows), labels)
    }

    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Everything a tuning run decides, as bits: best architecture, every
    /// candidate's `cv_f1`, hashes of the tuned labeler's predictions and
    /// probabilities on the dev matrix, and the caller's next RNG draw.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        best_hidden: Vec<usize>,
        cv_f1_bits: Vec<u64>,
        predictions: u64,
        proba: u64,
        next_draw: u64,
    }

    fn outcome(
        x: &Matrix,
        (labeler, report): (Labeler, TuningReport),
        rng: &mut StdRng,
    ) -> Outcome {
        Outcome {
            best_hidden: report.best_hidden,
            cv_f1_bits: report
                .candidates
                .iter()
                .map(|c| c.cv_f1.to_bits())
                .collect(),
            predictions: fnv(labeler.predict(x).into_iter().map(|p| p as u64)),
            proba: fnv(labeler
                .predict_proba(x)
                .as_slice()
                .iter()
                .map(|v| u64::from(v.to_bits()))),
            next_draw: rng.gen(),
        }
    }

    /// A fixed tuning task the goldens pin.
    struct GoldenTask {
        name: &'static str,
        x: Matrix,
        y: Vec<usize>,
        classes: usize,
        config: TuningConfig,
        seed: u64,
    }

    impl GoldenTask {
        /// Tune from a fresh `StdRng` on `threads` workers; `None` goes
        /// through the public [`tune_labeler_with_health`] and its default.
        fn tune(
            &self,
            threads: Option<usize>,
            plan: Option<&FaultPlan>,
            health: &HealthReport,
        ) -> Outcome {
            let mut rng = StdRng::seed_from_u64(self.seed);
            let (x, y, classes, config) = (&self.x, &self.y, self.classes, &self.config);
            let res = match threads {
                Some(t) => tune_labeler_in(x, y, classes, config, &mut rng, t, plan, Some(health)),
                None => tune_labeler_with_health(x, y, classes, config, &mut rng, None),
            };
            outcome(x, res.unwrap(), &mut rng)
        }

        /// What every run must reproduce: the golden captured from the
        /// serial fold-by-fold tuner this module replaced (its public
        /// tuning entry point on this task, release and debug builds
        /// agreeing) when `StdRng` is the capture's generator. Any other
        /// generator draws other tasks and inits, so the reference falls
        /// back to a one-thread run and the tests still pin thread-count
        /// identity.
        fn expected(&self) -> Outcome {
            if StdRng::seed_from_u64(0).gen::<u64>() == GOLDEN_STREAM_PROBE {
                golden(self.name)
            } else {
                self.tune(Some(1), None, &HealthReport::new())
            }
        }
    }

    fn golden_tasks() -> Vec<GoldenTask> {
        let config = |min_per_class_per_fold| TuningConfig {
            max_hidden_layers: 2,
            min_per_class_per_fold,
            lbfgs: LbfgsConfig {
                max_iters: 25,
                ..Default::default()
            },
            ..Default::default()
        };
        let (x6, y6) = cluster_task(60, 6, 24, 12, 0.15);
        let (x2, y2) = cluster_task(20, 2, 40, 6, 0.4);
        vec![
            GoldenTask {
                name: "six-class",
                x: x6,
                y: y6,
                classes: 6,
                config: config(6),
                seed: 61,
            },
            GoldenTask {
                name: "binary",
                x: x2,
                y: y2,
                classes: 2,
                config: config(10),
                seed: 21,
            },
        ]
    }

    /// First `u64` of `StdRng::seed_from_u64(0)` under the generator the
    /// goldens were captured with: the offline `rand` stand-in in
    /// `perfbench/stubs/rand` (xoshiro256** seeded by SplitMix64).
    const GOLDEN_STREAM_PROBE: u64 = 0x99ec5f36cb75f2b4;

    fn golden(name: &str) -> Outcome {
        match name {
            "six-class" => Outcome {
                best_hidden: vec![16, 16],
                cv_f1_bits: vec![
                    0x3fe08e3caedbd014,
                    0x3fe872a72a72a72a,
                    0x3febe70cfc72afe5,
                    0x3feb97139fc59f42,
                    0x3fcd0f4b233dd6c6,
                    0x3fe5e8af50173af3,
                    0x3fe9f4fc670c4239,
                    0x3fec7f5969f3b681,
                ],
                predictions: 0xf8ab75ea4dd6cc95,
                proba: 0x389a199df3a6189c,
                next_draw: 0x8a45a1a3684cd58b,
            },
            _ => Outcome {
                best_hidden: vec![2],
                cv_f1_bits: vec![
                    0x3fe7f3967f3967f4,
                    0x3fe7847847847848,
                    0x3fe628f5c28f5c2a,
                    0x3fe5771a02bceb77,
                    0x3fe57ec7ec7ec7ed,
                    0x3fe7c878dad86541,
                ],
                predictions: 0xebeec1d0106e50a0,
                proba: 0x10972f0cbb7a8f6b,
                next_draw: 0x33279eb7042e45ac,
            },
        }
    }

    #[test]
    fn tuning_is_bit_identical_to_the_serial_golden_at_any_thread_count() {
        for task in golden_tasks() {
            let expected = task.expected();
            for threads in [Some(1), Some(2), Some(4), None] {
                let got = task.tune(threads, None, &HealthReport::new());
                assert_eq!(got, expected, "{} at {threads:?} threads", task.name);
            }
        }
    }

    #[test]
    fn worker_panic_during_tuning_recovers_the_serial_result() {
        let plan = FaultPlan {
            seed: 3,
            worker_panic_rate: 1.0, // every fit worker panics on its first claim
            ..FaultPlan::default()
        };
        for task in golden_tasks() {
            let health = HealthReport::new();
            assert_eq!(
                task.tune(Some(2), Some(&plan), &health),
                task.expected(),
                "{}",
                task.name
            );
            let panics: Vec<_> = health
                .events()
                .into_iter()
                .filter(|e| e.kind == FaultKind::WorkerPanic)
                .collect();
            assert_eq!(panics.len(), 2, "{}: one event per worker", task.name);
            assert!(panics
                .iter()
                .all(|e| e.stage == Stage::Tuning && e.action == RecoveryAction::SerialRecompute));
            assert_eq!(health.count(FaultKind::TuningFailure), 0, "{}", task.name);
        }
    }
}
