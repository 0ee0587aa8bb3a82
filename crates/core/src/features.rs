//! Feature generation functions (Section 5.1).
//!
//! The i-th FGF matches pattern `P_i` against an image `I` and returns
//! the maximum normalized cross-correlation over all placements. The
//! per-image feature vector stacks all FGF outputs — "a vector that
//! consists of all output values of the FGFs on each image is used as the
//! input of the labeler". Matching uses the paper's pyramid method by
//! default; [`MatchBackend::Exact`] selects the exhaustive scan, the
//! reference the pyramid is checked against.
//!
//! This is the pipeline's hot path, so it runs as a **batched matching
//! engine**: the pattern bank is prepared once at construction
//! ([`ig_imaging::prepared::PreparedPattern`] — reduced + mean-centred
//! stacks per pyramid level, plus cached fitted shrinks for oversized
//! patterns), each image is prepared once per batch
//! ([`ig_imaging::prepared::PreparedImage`] — pyramid + integral tables),
//! and the N×M (image × pattern) cell grid is scheduled through a
//! work-stealing atomic cursor so large images or deep-pyramid patterns
//! can't serialize a fixed chunk. Scores are bit-identical to the
//! per-call matchers: the exact scan is pinned by
//! `prepared_matchers_bit_identical_to_per_call` in `crates/core/tests`,
//! the pyramid by ig-imaging's
//! `refine_ladder_bit_identical_to_per_placement_reference`.

use crate::pattern::Pattern;
use crate::stages::DevSet;
use crate::{CoreError, Result};
use ig_faults::{FaultKind, FaultPlan, HealthReport, RecoveryAction, Stage};
use ig_imaging::ncc::PyramidMatchConfig;
use ig_imaging::prepared::{match_prepared, match_prepared_exact, PreparedImage, PreparedPattern};
use ig_imaging::GrayImage;
use ig_nn::Matrix;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Pixel variance below which a pattern is degenerate: NCC normalizes by
/// the pattern's standard deviation, so a (near-)constant pattern can
/// never produce a meaningful score.
const DEGENERATE_VARIANCE: f32 = 1e-10;

fn pixel_variance(img: &GrayImage) -> f32 {
    let px = img.pixels();
    if px.is_empty() {
        return 0.0;
    }
    let n = px.len() as f32;
    let mean = px.iter().sum::<f32>() / n;
    px.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n
}

/// Which matcher the FGFs use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchBackend {
    /// Exhaustive scan (exact; slow on large images).
    Exact,
    /// Coarse-to-fine pyramid search (the paper's choice).
    Pyramid,
}

/// A bank of FGFs over a fixed pattern set.
#[derive(Debug, Clone)]
pub struct FeatureGenerator {
    patterns: Vec<Pattern>,
    /// Per-pattern quarantine mask: `false` = degenerate (zero variance),
    /// its FGF always emits 0.0 without touching the matcher. Feature
    /// dimensionality stays equal to the pattern count either way.
    active: Vec<bool>,
    /// Prepared form of each active pattern, built once at construction
    /// and shared across every image, batch, and clone of this generator.
    /// `None` for quarantined (or unpreparable) patterns.
    prepared: Vec<Option<Arc<PreparedPattern>>>,
    backend: MatchBackend,
    pyramid: PyramidMatchConfig,
    threads: usize,
}

impl FeatureGenerator {
    /// Build with the pyramid backend and hardware parallelism.
    pub fn new(patterns: Vec<Pattern>) -> Result<Self> {
        Self::new_with_health(patterns, None, &HealthReport::new())
    }

    /// [`FeatureGenerator::new`] with chaos-plan injection and health
    /// reporting. Patterns the plan marks degenerate are flattened to
    /// constant gray before detection runs; every quarantined pattern is
    /// recorded on `health`. A quarantined pattern keeps its feature
    /// column (constant 0.0) so feature dimensions never shift — which is
    /// also what a degenerate pattern produced before quarantining
    /// existed, since NCC on zero variance errors out into a 0.0 score.
    pub fn new_with_health(
        mut patterns: Vec<Pattern>,
        plan: Option<&FaultPlan>,
        health: &HealthReport,
    ) -> Result<Self> {
        if patterns.is_empty() {
            return Err(CoreError::NoPatterns);
        }
        if let Some(plan) = plan {
            for (i, p) in patterns.iter_mut().enumerate() {
                if plan.degenerate_pattern(i) {
                    p.image.map_in_place(|_| 0.5);
                }
            }
        }
        let active: Vec<bool> = patterns
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let ok = pixel_variance(&p.image) > DEGENERATE_VARIANCE;
                if !ok {
                    health.record(
                        Stage::Features,
                        FaultKind::DegeneratePattern,
                        RecoveryAction::QuarantinedPattern,
                        format!("pattern {i}: zero pixel variance, FGF pinned to 0.0"),
                    );
                }
                ok
            })
            .collect();
        let pyramid = PyramidMatchConfig::default();
        // Prepare the bank once: reduced + centred stacks per level. Every
        // image this generator ever scores reuses them.
        let prepared: Vec<Option<Arc<PreparedPattern>>> = patterns
            .iter()
            .zip(&active)
            .enumerate()
            .map(|(i, (p, &ok))| {
                if !ok {
                    return None;
                }
                match PreparedPattern::new(&p.image, &pyramid) {
                    Ok(pp) => Some(Arc::new(pp)),
                    Err(e) => {
                        health.record(
                            Stage::Features,
                            FaultKind::MatchError,
                            RecoveryAction::QuarantinedPattern,
                            format!("pattern {i}: preparation failed ({e}); FGF pinned to 0.0"),
                        );
                        None
                    }
                }
            })
            .collect();
        Ok(Self {
            patterns,
            active,
            prepared,
            backend: MatchBackend::Pyramid,
            pyramid,
            threads: default_threads(),
        })
    }

    /// Number of non-quarantined patterns.
    pub fn num_active(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Override the matching backend.
    pub fn with_backend(mut self, backend: MatchBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Override the worker-thread count (1 = serial).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Number of features (= number of patterns).
    pub fn num_features(&self) -> usize {
        self.patterns.len()
    }

    /// Borrow the pattern bank.
    pub fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }

    /// Total fitted-pattern resizes performed so far across the bank.
    /// Each build is one bilinear resize, cached per distinct target
    /// dims — matching one oversized pattern against any number of
    /// same-shaped images costs exactly one.
    pub fn fitted_resize_builds(&self) -> usize {
        self.prepared.iter().flatten().map(|p| p.fit_builds()).sum()
    }

    /// Build the per-image pyramid + integral caches for a batch. The
    /// result is reusable across any number of
    /// [`FeatureGenerator::feature_matrix_prepared`] calls — and across
    /// generators with *different pattern banks*, because the cache
    /// depends only on the image and the default pyramid config.
    pub fn prepare_images(&self, images: &[&GrayImage]) -> Vec<PreparedImage> {
        images
            .iter()
            .map(|img| PreparedImage::new(img, &self.pyramid))
            .collect()
    }

    /// Score one (image, pattern) cell from prepared operands. Quarantined
    /// patterns score 0.0; matcher errors surface as a message for the
    /// caller's health report.
    fn match_cell(&self, image: &PreparedImage, col: usize) -> (f32, Option<String>) {
        let Some(pattern) = self.prepared.get(col).and_then(|p| p.as_deref()) else {
            return (0.0, None);
        };
        let (iw, ih) = image.dims();
        let fitted = match pattern.fitted_for(iw, ih) {
            Ok(f) => f,
            Err(e) => return (0.0, Some(format!("pattern resize failed: {e}"))),
        };
        let pattern = fitted.as_deref().unwrap_or(pattern);
        let result = match self.backend {
            MatchBackend::Exact => match_prepared_exact(image, pattern),
            MatchBackend::Pyramid => match_prepared(image, pattern, &self.pyramid),
        };
        match result {
            Ok(m) => (m.score, None),
            Err(e) => (0.0, Some(format!("template match failed: {e}"))),
        }
    }

    /// [`FeatureGenerator::match_cell`] plus the fault ladder: matcher
    /// errors and non-finite scores are recorded (and sanitized to 0.0)
    /// instead of silently swallowed, and the chaos plan may corrupt the
    /// value first.
    fn finish_cell(
        &self,
        image: &PreparedImage,
        row: usize,
        col: usize,
        plan: Option<&FaultPlan>,
        health: &HealthReport,
    ) -> f32 {
        let (mut v, error) = self.match_cell(image, col);
        if let Some(msg) = error {
            health.record(
                Stage::Features,
                FaultKind::MatchError,
                RecoveryAction::SanitizedValue,
                format!("image {row}, pattern {col}: {msg}"),
            );
        }
        if let Some(plan) = plan {
            v = plan.corrupt_feature(row, col, v);
        }
        if !v.is_finite() {
            health.record(
                Stage::Features,
                FaultKind::NonFiniteFeature,
                RecoveryAction::SanitizedValue,
                format!("image {row}, pattern {col}: {v} replaced with 0.0"),
            );
            v = 0.0;
        }
        v
    }

    /// Feature matrix for a batch of images (rows = images). Each image
    /// is prepared once, the pattern bank was prepared at construction,
    /// and the N×M cell grid is scheduled across worker threads by a
    /// work-stealing cursor. Patterns larger than an image are shrunk to
    /// fit (keeping aspect) before matching, mirroring the paper's
    /// re-adjustment of pattern sizes; quarantined patterns contribute a
    /// constant 0.0.
    pub fn feature_matrix(&self, images: &[&GrayImage]) -> Matrix {
        self.feature_matrix_with_health(DevSet::Raw(images), 0, None, &HealthReport::new())
    }

    /// Feature matrix over images prepared earlier with
    /// [`FeatureGenerator::prepare_images`] — skips even the per-batch
    /// pyramid/integral builds. Rows follow `images` order.
    pub fn feature_matrix_prepared(&self, images: &[PreparedImage]) -> Matrix {
        self.feature_matrix_with_health(DevSet::Prepared(images), 0, None, &HealthReport::new())
    }

    /// The feature matrix with fault injection and health reporting.
    ///
    /// `images` are rows `row_offset..row_offset + images.len()` of the
    /// full matrix (0 unless they are one shard of a larger batch). The
    /// offset keeps the global row coordinate flowing into the fault
    /// ladder — health messages name the dataset-wide image index, and the
    /// chaos plan's `corrupt_feature(row, col, ..)` sites fire on the same
    /// cells whether the matrix is built whole or shard by shard. That
    /// coordinate stability is what makes sharded execution bit-identical
    /// to monolithic under any fault plan.
    ///
    /// Recovery is cell-granular: a worker thread that panics (injected or
    /// real) is joined individually, and only the cells it claimed but
    /// never delivered — plus any left unclaimed — are recomputed serially
    /// on the calling thread, so one bad thread costs a few cells of
    /// latency instead of a whole image chunk.
    pub fn feature_matrix_with_health(
        &self,
        images: DevSet<'_>,
        row_offset: usize,
        plan: Option<&FaultPlan>,
        health: &HealthReport,
    ) -> Matrix {
        match images {
            DevSet::Raw(images) => {
                // Per-image caches fill lazily inside the worker pool, so
                // image preparation itself is parallelized across the batch.
                let slots: Vec<OnceLock<PreparedImage>> =
                    images.iter().map(|_| OnceLock::new()).collect();
                let prep_of = |i: usize| {
                    slots[i].get_or_init(|| PreparedImage::new(images[i], &self.pyramid))
                };
                self.matrix_engine(images.len(), row_offset, &prep_of, plan, health)
            }
            DevSet::Prepared(images) => {
                let prep_of = |i: usize| &images[i];
                self.matrix_engine(images.len(), row_offset, &prep_of, plan, health)
            }
        }
    }

    /// The batched engine: schedule all `n × num_patterns` cells through
    /// [`work_steal`], then assemble the matrix. `prep_of` yields the
    /// prepared form of image `i` (lazily built or supplied by the caller);
    /// `row_offset` translates local image indices into global matrix rows
    /// for the fault ladder when `n` is one shard of a larger batch.
    fn matrix_engine<'a, F>(
        &self,
        n: usize,
        row_offset: usize,
        prep_of: &F,
        plan: Option<&FaultPlan>,
        health: &HealthReport,
    ) -> Matrix
    where
        F: Fn(usize) -> &'a PreparedImage + Sync,
    {
        let m = self.patterns.len();
        if n == 0 {
            return Matrix::zeros(0, m);
        }
        // Pattern-major order: cell c is (image c % n, pattern c / n), so
        // workers start on distinct images and the per-image cache builds
        // run in parallel instead of serializing on image 0.
        let cells = work_steal(
            n * m,
            self.threads,
            plan,
            |c| {
                let (i, j) = (c % n, c / n);
                self.finish_cell(prep_of(i), row_offset + i, j, plan, health)
            },
            |panicked, lost| {
                for w in panicked {
                    health.record(
                        Stage::Features,
                        FaultKind::WorkerPanic,
                        RecoveryAction::SerialRecompute,
                        format!(
                            "feature worker {w} panicked; {lost} lost cells recomputed serially"
                        ),
                    );
                }
            },
        );
        let mut data = vec![0.0f32; n * m];
        for (c, v) in cells.into_iter().enumerate() {
            data[(c % n) * m + c / n] = v;
        }
        Matrix::from_vec(n, m, data)
    }

    /// Per-image maximum over all features — the "did anything match at
    /// all" signal used by the Table 6 error analysis. An image with no
    /// features (empty pattern row) reports 0.0, not `-inf`.
    pub fn max_similarity(features: &Matrix, row: usize) -> f32 {
        let max = features
            .row(row)
            .iter()
            .fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        if max.is_finite() {
            max
        } else {
            0.0
        }
    }
}

/// Worker threads when the caller sets no budget: the hardware's
/// parallelism, or 1 when it cannot be queried.
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The work-stealing engine shared by the feature grid and labeler tuning:
/// run `job(c)` for every cell `c` in `0..total` and return the results
/// indexed by cell, whatever the schedule. Up to `threads` scoped workers
/// claim cells from an atomic cursor, so a few slow cells can't serialize
/// a fixed chunk; `threads <= 1` runs the cells serially in index order.
///
/// Recovery is cell-granular: each worker is joined individually, a
/// worker that panics (a real panic, or one the chaos plan injects via
/// `worker_panic`) loses only the cells it claimed but never delivered,
/// and those are recomputed serially on the calling thread after
/// `on_panic(panicked_workers, lost_cells)` has been told. `job` must be
/// a pure function of its cell for the result to be schedule-independent.
pub(crate) fn work_steal<T, F, P>(
    total: usize,
    threads: usize,
    plan: Option<&FaultPlan>,
    job: F,
    on_panic: P,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    P: FnOnce(&[usize], usize),
{
    let threads = threads.min(total);
    if threads <= 1 {
        return (0..total).map(job).collect();
    }
    let job = &job;
    let mut slots: Vec<Option<T>> = (0..total).map(|_| None).collect();
    let cursor = AtomicUsize::new(0);
    let mut panicked: Vec<usize> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..threads {
            let cursor = &cursor;
            let handle = scope.spawn(move || {
                let poisoned = plan.is_some_and(|p| p.worker_panic(w));
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    // ig-lint: allow(atomic-ordering) -- work-stealing
                    // ticket: each worker only needs a unique cell
                    // index; cell data flows through the per-worker
                    // locals joined under the scope, not the counter
                    let cell = cursor.fetch_add(1, Ordering::Relaxed);
                    if cell >= total {
                        break;
                    }
                    if poisoned {
                        // ig-lint: allow(panic) -- deliberate injected
                        // fault; cell-granular recovery recomputes the
                        // claimed-but-undelivered cells serially
                        panic!("injected fault: feature worker {w} panicked");
                    }
                    local.push((cell, job(cell)));
                }
                local
            });
            handles.push((w, handle));
        }
        // Join each worker individually: a panic surfaces as Err here
        // instead of re-raising when the scope ends.
        for (w, handle) in handles {
            match handle.join() {
                Ok(local) => {
                    for (cell, v) in local {
                        slots[cell] = Some(v);
                    }
                }
                Err(_) => panicked.push(w),
            }
        }
    });
    if !panicked.is_empty() {
        on_panic(&panicked, slots.iter().filter(|s| s.is_none()).count());
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(cell, v)| v.unwrap_or_else(|| job(cell)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternSource;

    fn image_with_defect(at: (usize, usize)) -> GrayImage {
        let mut img = GrayImage::filled(64, 48, 0.7);
        let mut defect = GrayImage::filled(8, 8, 0.7);
        defect.fill_disk(3.5, 3.5, 3.0, 0.15);
        img.paste(&defect, at.0, at.1).unwrap();
        img
    }

    /// One image's feature vector, through the batch engine.
    fn features_of(fg: &FeatureGenerator, image: &GrayImage) -> Vec<f32> {
        fg.feature_matrix(&[image]).row(0).to_vec()
    }

    fn defect_pattern() -> Pattern {
        let mut p = GrayImage::filled(8, 8, 0.7);
        p.fill_disk(3.5, 3.5, 3.0, 0.15);
        Pattern::crowd(p)
    }

    #[test]
    fn empty_pattern_bank_rejected() {
        assert!(matches!(
            FeatureGenerator::new(vec![]),
            Err(CoreError::NoPatterns)
        ));
    }

    #[test]
    fn defective_image_scores_higher_than_clean() {
        let fg = FeatureGenerator::new(vec![defect_pattern()]).unwrap();
        let defective = image_with_defect((20, 20));
        let clean = GrayImage::filled(64, 48, 0.7);
        let f_def = features_of(&fg, &defective)[0];
        let f_clean = features_of(&fg, &clean)[0];
        assert!(
            f_def > f_clean + 0.01,
            "defective {f_def} vs clean {f_clean}"
        );
        assert!(f_def > 0.99, "planted pattern should match ~1.0: {f_def}");
    }

    #[test]
    fn feature_vector_length_matches_pattern_count() {
        let pats = vec![defect_pattern(), defect_pattern(), defect_pattern()];
        let fg = FeatureGenerator::new(pats).unwrap();
        let img = image_with_defect((5, 5));
        assert_eq!(features_of(&fg, &img).len(), 3);
        assert_eq!(fg.num_features(), 3);
    }

    #[test]
    fn exact_and_pyramid_agree_on_planted_defect() {
        let pats = vec![defect_pattern()];
        let img = image_with_defect((33, 17));
        let exact = FeatureGenerator::new(pats.clone())
            .unwrap()
            .with_backend(MatchBackend::Exact);
        let pyramid = FeatureGenerator::new(pats)
            .unwrap()
            .with_backend(MatchBackend::Pyramid);
        let (exact, pyramid) = (features_of(&exact, &img)[0], features_of(&pyramid, &img)[0]);
        assert!((exact - pyramid).abs() < 0.01, "{exact} vs {pyramid}");
    }

    #[test]
    fn oversized_pattern_is_shrunk_not_dropped() {
        // A smooth 100x100 pattern against a 32x24 image with the same
        // large-scale structure: the pattern must be shrunk to fit and
        // still correlate strongly (not error out or score 0).
        let texture = |x: usize, y: usize, scale: f32| {
            0.5 + 0.3 * ((x as f32 * scale).sin() * (y as f32 * scale).cos())
        };
        let big = Pattern::augmented(
            GrayImage::from_fn(100, 100, |x, y| texture(x, y, 0.07)),
            PatternSource::Gan,
        );
        let fg = FeatureGenerator::new(vec![big]).unwrap();
        // ~3.1x smaller image with the matching (downscaled) frequency.
        let img = GrayImage::from_fn(32, 24, |x, y| texture(x, y, 0.07 * 100.0 / 32.0));
        let f = features_of(&fg, &img);
        // The aspect-preserving shrink (to 24x24 here) shifts the texture
        // frequency slightly, so expect a clear but imperfect correlation.
        assert!(f[0] > 0.3, "shrunk pattern should still match: {}", f[0]);
    }

    #[test]
    fn oversized_pattern_resize_runs_once_per_target_dims() {
        // Regression: the fit used to be recomputed for every image. One
        // oversized pattern scored against many same-shaped images must
        // resize exactly once; a second distinct image shape adds one.
        let big = Pattern::augmented(
            GrayImage::from_fn(100, 100, |x, y| {
                0.5 + 0.3 * ((x as f32 * 0.07).sin() * (y as f32 * 0.07).cos())
            }),
            PatternSource::Gan,
        );
        let fg = FeatureGenerator::new(vec![big]).unwrap().with_threads(4);
        let images: Vec<GrayImage> = (0..6)
            .map(|i| {
                GrayImage::from_fn(32, 24, move |x, y| {
                    0.5 + 0.3 * (((x + i) as f32 * 0.2).sin() * (y as f32 * 0.2).cos())
                })
            })
            .collect();
        let refs: Vec<&GrayImage> = images.iter().collect();
        assert_eq!(fg.fitted_resize_builds(), 0);
        fg.feature_matrix(&refs);
        assert_eq!(fg.fitted_resize_builds(), 1, "one resize for 6 images");
        fg.feature_matrix(&refs);
        assert_eq!(fg.fitted_resize_builds(), 1, "second batch is cached");
        let other = GrayImage::from_fn(40, 30, |x, y| 0.4 + 0.01 * ((x * y) % 7) as f32);
        features_of(&fg, &other);
        assert_eq!(fg.fitted_resize_builds(), 2, "new target dims, one more");
    }

    #[test]
    fn parallel_matches_serial() {
        let pats = vec![defect_pattern(), defect_pattern()];
        let images: Vec<GrayImage> = (0..7).map(|i| image_with_defect((i * 5, 10))).collect();
        let refs: Vec<&GrayImage> = images.iter().collect();
        let serial = FeatureGenerator::new(pats.clone())
            .unwrap()
            .with_threads(1)
            .feature_matrix(&refs);
        let parallel = FeatureGenerator::new(pats)
            .unwrap()
            .with_threads(4)
            .feature_matrix(&refs);
        assert_eq!(serial.shape(), parallel.shape());
        for (a, b) in serial.as_slice().iter().zip(parallel.as_slice()) {
            assert_eq!(a, b, "parallel result differs");
        }
    }

    #[test]
    fn prepared_batch_matches_unprepared() {
        let pats = vec![defect_pattern(), defect_pattern(), defect_pattern()];
        let images: Vec<GrayImage> = (0..5).map(|i| image_with_defect((i * 7, 9))).collect();
        let refs: Vec<&GrayImage> = images.iter().collect();
        let fg = FeatureGenerator::new(pats).unwrap().with_threads(3);
        let direct = fg.feature_matrix(&refs);
        let prepped = fg.prepare_images(&refs);
        let via_prepared = fg.feature_matrix_prepared(&prepped);
        assert_eq!(direct.shape(), via_prepared.shape());
        assert_eq!(direct.as_slice(), via_prepared.as_slice());
        // And the same prepared set is reusable by a different generator.
        let fg2 = FeatureGenerator::new(vec![defect_pattern()])
            .unwrap()
            .with_threads(2);
        let m2 = fg2.feature_matrix_prepared(&prepped);
        assert_eq!(m2.shape(), (5, 1));
        assert_eq!(m2.as_slice(), fg2.feature_matrix(&refs).as_slice());
    }

    #[test]
    fn empty_image_batch() {
        let fg = FeatureGenerator::new(vec![defect_pattern()]).unwrap();
        let m = fg.feature_matrix(&[]);
        assert_eq!(m.shape(), (0, 1));
    }

    #[test]
    fn max_similarity_extracts_row_max() {
        let m = Matrix::from_rows(&[vec![0.1, 0.9, 0.4], vec![0.2, 0.1, 0.3]]);
        assert_eq!(FeatureGenerator::max_similarity(&m, 0), 0.9);
        assert_eq!(FeatureGenerator::max_similarity(&m, 1), 0.3);
    }

    #[test]
    fn max_similarity_empty_row_is_zero() {
        // Regression: an empty feature row used to report -inf, which
        // poisoned every downstream threshold comparison.
        let m = Matrix::zeros(2, 0);
        assert_eq!(FeatureGenerator::max_similarity(&m, 0), 0.0);
        assert_eq!(FeatureGenerator::max_similarity(&m, 1), 0.0);
    }

    #[test]
    fn degenerate_pattern_is_quarantined() {
        use ig_faults::{FaultKind, HealthReport, RecoveryAction};
        let health = HealthReport::new();
        let flat = Pattern::crowd(GrayImage::filled(8, 8, 0.5));
        let fg =
            FeatureGenerator::new_with_health(vec![defect_pattern(), flat], None, &health).unwrap();
        assert_eq!(fg.num_features(), 2, "feature dim must not shift");
        assert_eq!(fg.num_active(), 1);
        assert_eq!(health.count(FaultKind::DegeneratePattern), 1);
        assert_eq!(health.count_action(RecoveryAction::QuarantinedPattern), 1);
        let f = features_of(&fg, &image_with_defect((10, 10)));
        assert_eq!(f[1], 0.0, "quarantined FGF pinned to 0.0");
        assert!(f[0] > 0.9, "live FGF unaffected: {}", f[0]);
    }

    #[test]
    fn worker_panic_recovers_to_serial_result() {
        use ig_faults::{FaultKind, FaultPlan, HealthReport, RecoveryAction};
        let pats = vec![defect_pattern(), defect_pattern()];
        let images: Vec<GrayImage> = (0..8).map(|i| image_with_defect((i * 4, 8))).collect();
        let refs: Vec<&GrayImage> = images.iter().collect();
        let serial = FeatureGenerator::new(pats.clone())
            .unwrap()
            .with_threads(1)
            .feature_matrix(&refs);
        let plan = FaultPlan {
            seed: 5,
            worker_panic_rate: 1.0, // every worker panics
            ..FaultPlan::default()
        };
        let health = HealthReport::new();
        let parallel = FeatureGenerator::new(pats)
            .unwrap()
            .with_threads(4)
            .feature_matrix_with_health(DevSet::Raw(&refs), 0, Some(&plan), &health);
        assert_eq!(serial.shape(), parallel.shape());
        for (a, b) in serial.as_slice().iter().zip(parallel.as_slice()) {
            assert_eq!(a, b, "recovered result differs from serial");
        }
        assert!(health.count(FaultKind::WorkerPanic) >= 1);
        assert!(health.count_action(RecoveryAction::SerialRecompute) >= 1);
    }

    #[test]
    fn injected_non_finite_features_are_sanitized() {
        use ig_faults::{FaultKind, FaultPlan, HealthReport};
        let pats = vec![defect_pattern(), defect_pattern(), defect_pattern()];
        let images: Vec<GrayImage> = (0..12).map(|i| image_with_defect((i * 3, 6))).collect();
        let refs: Vec<&GrayImage> = images.iter().collect();
        let plan = FaultPlan {
            seed: 9,
            nan_feature_rate: 0.2,
            inf_feature_rate: 0.1,
            ..FaultPlan::default()
        };
        let health = HealthReport::new();
        let m = FeatureGenerator::new(pats)
            .unwrap()
            .with_threads(2)
            .feature_matrix_with_health(DevSet::Raw(&refs), 0, Some(&plan), &health);
        assert!(m.as_slice().iter().all(|v| v.is_finite()));
        assert!(health.count(FaultKind::NonFiniteFeature) >= 1);
    }

    #[test]
    fn empty_plan_matches_no_plan() {
        use ig_faults::{FaultPlan, HealthReport};
        let pats = vec![defect_pattern()];
        let images: Vec<GrayImage> = (0..5).map(|i| image_with_defect((i * 6, 4))).collect();
        let refs: Vec<&GrayImage> = images.iter().collect();
        let fg = FeatureGenerator::new(pats).unwrap().with_threads(2);
        let plain = fg.feature_matrix(&refs);
        let health = HealthReport::new();
        let with_empty_plan = fg.feature_matrix_with_health(
            DevSet::Raw(&refs),
            0,
            Some(&FaultPlan::none(3)),
            &health,
        );
        assert_eq!(plain.as_slice(), with_empty_plan.as_slice());
        assert!(health.is_clean());
    }
}
