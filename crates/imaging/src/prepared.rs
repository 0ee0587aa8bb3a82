//! Prepared-operand NCC matching: each side's preprocessing, built once.
//!
//! A pyramid match needs the image's Gaussian pyramid and per-level
//! integral tables, and the pattern's reduced + mean-centred stack. Over
//! the N×M (image × pattern) feature grid in `ig-core`, rebuilding them
//! per call is pure redundancy — the pyramid of image `I` is the same for
//! all M patterns, and the level stack of pattern `P` is the same for all
//! N images.
//!
//! [`PreparedImage`] and [`PreparedPattern`] hoist that work to one build
//! per operand; [`match_prepared`] / [`match_prepared_exact`] then match
//! from the cached operands. [`crate::ncc::match_template_pyramid`] is a
//! thin wrapper (prepare, match, drop), and [`match_prepared_exact`] is
//! bit-identical to [`crate::ncc::match_template`]. [`PreparedPattern`]
//! additionally caches the aspect-preserving "fitted" shrinks needed when
//! a pattern overflows an image, keyed by target dimensions, so the
//! resize runs once per distinct image shape instead of once per image.
//!
//! The refine ladder of [`match_prepared`] scores each placement once per
//! level: the union of the candidates' `±refine_radius` windows is walked
//! row by row in merged x-runs through the register-blocked
//! `score_run`, and each candidate then takes its maximum over its own
//! window in the same scan order. Scores and locations are bit-identical
//! to scoring every window on its own with the scalar `pearson_at`
//! (pinned by the parity tests below against the per-placement reference
//! matcher).

use crate::ncc::{
    best_placement, insert_topk, levels_for_pattern, ncc_row_sweep, score_run, validate,
    window_variance_term, CenteredPattern, ImageSums, MatchResult, PyramidMatchConfig,
};
use crate::pyramid::Pyramid;
use crate::resize::resize_bilinear;
use crate::{GrayImage, ImagingError, Result};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A search image preprocessed for repeated matching: the Gaussian
/// pyramid plus value/square integral tables of every level.
#[derive(Debug, Clone)]
pub struct PreparedImage {
    pyramid: Pyramid,
    /// Every level's tables in one buffer, laid out by [`ImageSums::stack`].
    tables: Vec<f64>,
}

impl PreparedImage {
    /// Preprocess `image` under `config`: build the deepest pyramid any
    /// pattern may request (`config.max_levels`) and the integral tables
    /// of every level. A pattern needing fewer levels uses a prefix of
    /// the stack — prefix levels are identical to what the per-call
    /// matcher would rebuild, because each level depends only on the one
    /// above it and the same early-stop dimension rules apply.
    pub fn new(image: &GrayImage, config: &PyramidMatchConfig) -> Self {
        let pyramid = Pyramid::build(image, config.max_levels.max(1), 2);
        let tables = ImageSums::stack(pyramid.levels());
        Self { pyramid, tables }
    }

    /// The integral tables of pyramid level `lvl`.
    fn sums(&self, lvl: usize) -> Option<ImageSums<'_>> {
        ImageSums::in_stack(&self.tables, self.pyramid.levels(), lvl)
    }

    /// The full-resolution image.
    pub fn image(&self) -> &GrayImage {
        self.pyramid.level(0)
    }

    /// Full-resolution dimensions.
    pub fn dims(&self) -> (usize, usize) {
        self.image().dims()
    }

    /// Number of cached pyramid levels (≥ 1).
    pub fn num_levels(&self) -> usize {
        self.pyramid.num_levels()
    }

    /// Every cached pyramid level, full resolution first.
    pub fn levels(&self) -> &[GrayImage] {
        self.pyramid.levels()
    }

    /// Approximate heap footprint, in bytes: every pyramid level and both
    /// integral tables per level. An estimate for the out-of-core shard
    /// budgeter, not an accounting — but it must track the dominant
    /// buffers. Nothing grows after construction.
    pub fn approx_bytes(&self) -> usize {
        self.pyramid.approx_bytes() + self.tables.len() * std::mem::size_of::<f64>()
    }
}

/// One pyramid level of a prepared pattern.
#[derive(Debug, Clone)]
struct PatternLevel {
    reduced: GrayImage,
    centered: CenteredPattern,
}

impl PatternLevel {
    fn of(image: GrayImage) -> PatternLevel {
        let centered = CenteredPattern::new(&image);
        PatternLevel {
            reduced: image,
            centered,
        }
    }
}

/// Fitted-variant cache entries: target image dims → the shrunk pattern.
type FittedEntry = ((usize, usize), Arc<PreparedPattern>);

/// A pattern preprocessed for repeated matching: the reduced +
/// mean-centred stack for every pyramid level, plus a cache of
/// aspect-preserving "fitted" shrinks for images the pattern overflows.
#[derive(Debug)]
pub struct PreparedPattern {
    /// `levels[0]` is the original pattern; level `l` is reduced by `2^l`.
    levels: Vec<PatternLevel>,
    /// Config the stack was built under; fitted variants reuse it so their
    /// level stacks match what the per-call path would derive.
    config: PyramidMatchConfig,
    /// Fitted variants keyed by target dims. A `Vec` linear scan: distinct
    /// image shapes are few and iteration order stays deterministic.
    fitted: Mutex<Vec<FittedEntry>>,
    /// Number of fitted variants ever built (each costs one resize).
    fit_builds: AtomicUsize,
}

impl PreparedPattern {
    /// Preprocess `pattern` under `config`: derive the level count exactly
    /// as the per-call matcher does, then store each level's reduced image
    /// and mean-centred form.
    pub fn new(pattern: &GrayImage, config: &PyramidMatchConfig) -> Result<Self> {
        let count = levels_for_pattern(pattern.width().min(pattern.height()), config);
        let mut levels = Vec::with_capacity(count);
        levels.push(PatternLevel::of(pattern.clone()));
        for lvl in 1..count {
            let scale = 1usize << lvl;
            let pw = (pattern.width() / scale).max(1);
            let ph = (pattern.height() / scale).max(1);
            levels.push(PatternLevel::of(resize_bilinear(pattern, pw, ph)?));
        }
        Ok(Self {
            levels,
            config: *config,
            fitted: Mutex::new(Vec::new()),
            fit_builds: AtomicUsize::new(0),
        })
    }

    /// Full-resolution pattern dimensions.
    pub fn dims(&self) -> (usize, usize) {
        self.levels.first().map_or((0, 0), |l| l.reduced.dims())
    }

    /// Number of pyramid levels in the stack (≥ 1).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The variant of this pattern to match against a `iw × ih` image:
    /// `None` when the pattern already fits, otherwise the same
    /// aspect-preserving shrink the per-call path computes — built once
    /// per distinct target dims and served from the cache afterwards.
    pub fn fitted_for(&self, iw: usize, ih: usize) -> Result<Option<Arc<PreparedPattern>>> {
        let (pw, ph) = self.dims();
        if pw == 0 || ph == 0 || (pw <= iw && ph <= ih) {
            return Ok(None);
        }
        let sx = iw as f32 / pw as f32;
        let sy = ih as f32 / ph as f32;
        let s = sx.min(sy).min(1.0);
        let nw = ((pw as f32 * s).floor() as usize).max(1);
        let nh = ((ph as f32 * s).floor() as usize).max(1);
        let mut cache = self.fitted.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, hit)) = cache.iter().find(|(dims, _)| *dims == (nw, nh)) {
            return Ok(Some(Arc::clone(hit)));
        }
        // Build while holding the lock: oversized patterns are rare, and
        // this guarantees exactly one resize per distinct target dims even
        // when several workers reach the same pattern concurrently.
        let Some(base) = self.levels.first() else {
            return Err(ImagingError::EmptyImage);
        };
        let shrunk = resize_bilinear(&base.reduced, nw, nh)?;
        let prepared = Arc::new(PreparedPattern::new(&shrunk, &self.config)?);
        self.fit_builds.fetch_add(1, Ordering::Relaxed);
        cache.push(((nw, nh), Arc::clone(&prepared)));
        Ok(Some(prepared))
    }

    /// How many fitted variants have been built so far. Regression hook:
    /// matching one oversized pattern against any number of same-sized
    /// images must report exactly one build.
    pub fn fit_builds(&self) -> usize {
        self.fit_builds.load(Ordering::Relaxed)
    }

    /// Approximate heap footprint, in bytes: every level's reduced and
    /// mean-centred plane, and every fitted variant (recursively). The
    /// fitted `Arc`s are cloned out of the lock before recursing so this
    /// estimator never holds two locks at once.
    pub fn approx_bytes(&self) -> usize {
        let own: usize = self
            .levels
            .iter()
            .map(|l| l.reduced.approx_bytes() + l.centered.centered.approx_bytes())
            .sum();
        let variants: Vec<Arc<PreparedPattern>> = {
            let cache = self.fitted.lock().unwrap_or_else(PoisonError::into_inner);
            cache.iter().map(|(_, v)| Arc::clone(v)).collect()
        };
        own + variants.iter().map(|v| v.approx_bytes()).sum::<usize>()
    }
}

/// Exhaustive scan of `level` over the full-resolution image — the shared
/// tail of [`match_prepared_exact`] and the pyramid fallbacks, through the
/// same [`best_placement`] as [`crate::ncc::match_template`].
fn scan_exact(image: &PreparedImage, level: &PatternLevel) -> Result<MatchResult> {
    let Some(sums) = image.sums(0) else {
        return Err(ImagingError::EmptyImage);
    };
    Ok(best_placement(image.image(), &level.centered, &sums))
}

/// Exact brute-force Pearson-NCC match from prepared operands.
/// Bit-identical to [`crate::ncc::match_template`] on the same inputs.
pub fn match_prepared_exact(
    image: &PreparedImage,
    pattern: &PreparedPattern,
) -> Result<MatchResult> {
    let Some(base) = pattern.levels.first() else {
        return Err(ImagingError::EmptyImage);
    };
    validate(image.image(), &base.reduced)?;
    scan_exact(image, base)
}

/// Coarse-to-fine pyramid Pearson-NCC match from prepared operands.
/// Bit-identical to a per-call pyramid match that rebuilds both operands
/// and scores every coarse and refine placement with the scalar
/// `pearson_at`, on every input, when both operands were prepared under
/// the same `config` passed here.
pub fn match_prepared(
    image: &PreparedImage,
    pattern: &PreparedPattern,
    config: &PyramidMatchConfig,
) -> Result<MatchResult> {
    let Some(base) = pattern.levels.first() else {
        return Err(ImagingError::EmptyImage);
    };
    validate(image.image(), &base.reduced)?;
    // The pattern's own level count, clamped by how deep the image could
    // actually be reduced.
    let levels = pattern.levels.len().min(image.num_levels());
    if levels == 1 {
        return scan_exact(image, base);
    }

    let coarse = levels - 1;
    let (Some(coarse_lvl), Some(coarse_sums)) = (pattern.levels.get(coarse), image.sums(coarse))
    else {
        return scan_exact(image, base);
    };
    let coarse_img = image.pyramid.level(coarse);
    let coarse_pat = &coarse_lvl.reduced;
    if coarse_pat.width() > coarse_img.width() || coarse_pat.height() > coarse_img.height() {
        return scan_exact(image, base);
    }

    // Exhaustive scan at the coarsest level, keeping top-k candidates.
    let mut candidates: Vec<MatchResult> = Vec::new();
    ncc_row_sweep(
        coarse_img,
        &coarse_lvl.centered,
        &coarse_sums,
        |x, y, score| {
            insert_topk(&mut candidates, MatchResult { x, y, score }, config.top_k);
        },
    );

    // Refine candidates through finer levels. Scratch for every level,
    // hoisted out of the ladder (H1): one row of scores, as wide as the
    // widest level; the candidates' windows; one row's merged x-runs.
    let mut row_scores = vec![0.0f32; image.dims().0];
    let mut windows: Vec<Window> = Vec::with_capacity(candidates.len());
    let mut runs: Vec<(usize, usize)> = Vec::with_capacity(candidates.len());
    for lvl in (0..coarse).rev() {
        let (Some(pat_lvl), Some(sums)) = (pattern.levels.get(lvl), image.sums(lvl)) else {
            continue;
        };
        let img = image.pyramid.level(lvl);
        let pat = &pat_lvl.reduced;
        if pat.width() > img.width() || pat.height() > img.height() {
            continue;
        }
        let max_x = img.width() - pat.width();
        let max_y = img.height() - pat.height();
        windows.clear();
        windows.extend(candidates.iter().map(|cand| {
            // A coarse coordinate c maps to [2c - r, 2c + r] one level down.
            let (cx, cy, r) = (cand.x * 2, cand.y * 2, config.refine_radius);
            Window {
                x0: cx.saturating_sub(r).min(max_x),
                y0: cy.saturating_sub(r).min(max_y),
                x1: (cx + r).min(max_x),
                y1: (cy + r).min(max_y),
            }
        }));
        let pat = &pat_lvl.centered;
        refine_level(
            img,
            pat,
            &sums,
            &windows,
            &mut row_scores,
            &mut runs,
            &mut candidates,
        );
    }

    candidates
        .into_iter()
        .max_by(|a, b| a.score.total_cmp(&b.score))
        .ok_or(ImagingError::EmptyImage)
}

/// A candidate's refine window at one level: placements
/// `x0..=x1` × `y0..=y1`, already clamped to the valid range.
#[derive(Debug, Clone, Copy)]
struct Window {
    x0: usize,
    y0: usize,
    x1: usize,
    y1: usize,
}

/// One rung of the refine ladder. Every placement in the union of
/// `windows` is scored once: row by row, the windows' x-ranges on that
/// row are merged into disjoint runs and each run goes through
/// [`score_run`]. Then `candidates[i]` becomes the best placement of
/// `windows[i]`, read back from the scored row with the same `y`-outer,
/// `x`-inner order and strict `>` as a per-window scan, so the result is
/// bit-identical to scoring each window on its own with `pearson_at`.
/// The merge is what pays: on the perfbench workloads about half of a
/// level's union lies in two or more windows, and a per-window scan
/// scores 1.7–1.9× as many placements (DESIGN.md, "NCC kernel rungs").
fn refine_level(
    img: &GrayImage,
    pattern: &CenteredPattern,
    sums: &ImageSums<'_>,
    windows: &[Window],
    row: &mut [f32],
    runs: &mut Vec<(usize, usize)>,
    candidates: &mut [MatchResult],
) {
    for (cand, win) in candidates.iter_mut().zip(windows) {
        *cand = MatchResult {
            x: win.x0,
            y: win.y0,
            score: f32::NEG_INFINITY,
        };
    }
    let top = windows.iter().map(|w| w.y0).min();
    let bottom = windows.iter().map(|w| w.y1).max();
    let (Some(top), Some(bottom)) = (top, bottom) else {
        return;
    };
    let (pw, ph) = (pattern.w, pattern.h);
    for y in top..=bottom {
        runs.clear();
        let on_row = windows.iter().filter(|w| (w.y0..=w.y1).contains(&y));
        runs.extend(on_row.map(|w| (w.x0, w.x1)));
        runs.sort_unstable();
        // Merge overlapping and touching runs, so no placement is scored
        // twice and adjacent windows share one longer run.
        runs.dedup_by(|next, kept| {
            let joins = next.0 <= kept.1 + 1;
            if joins {
                kept.1 = kept.1.max(next.1);
            }
            joins
        });
        for &(x0, x1) in runs.iter() {
            score_run(
                img,
                pattern,
                y,
                x0..x1 + 1,
                |x| window_variance_term(sums, x, y, pw, ph),
                |x, s| {
                    if let Some(slot) = row.get_mut(x) {
                        *slot = s;
                    }
                },
            );
        }
        for (cand, win) in candidates.iter_mut().zip(windows) {
            if !(win.y0..=win.y1).contains(&y) {
                continue;
            }
            let Some(scores) = row.get(win.x0..=win.x1) else {
                continue;
            };
            for (x, &s) in (win.x0..).zip(scores) {
                if s > cand.score {
                    *cand = MatchResult { x, y, score: s };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ncc::{match_template, match_template_pyramid_reference, pearson_at};
    use ig_check::{ensure, ensure_eq, properties};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_image(w: usize, h: usize, rng: &mut StdRng) -> GrayImage {
        GrayImage::from_fn(w, h, |_, _| rng.gen_range(0.0f32..1.0))
    }

    fn textured(w: usize, h: usize, phase: f32) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| {
            0.4 + 0.25 * ((x as f32 * 0.31 + phase).sin() * (y as f32 * 0.17).cos())
        })
    }

    #[test]
    fn prepared_pyramid_bit_identical_to_per_call() {
        let cfg = PyramidMatchConfig::default();
        let img = textured(96, 72, 0.0);
        let pi = PreparedImage::new(&img, &cfg);
        for side in [5usize, 9, 16, 33] {
            let pat = img.crop(20, 10, side, side.min(40)).unwrap();
            let pp = PreparedPattern::new(&pat, &cfg).unwrap();
            let per_call = match_template_pyramid_reference(&img, &pat, &cfg).unwrap();
            let prepared = match_prepared(&pi, &pp, &cfg).unwrap();
            assert_eq!(
                (per_call.x, per_call.y, per_call.score),
                (prepared.x, prepared.y, prepared.score),
                "side {side}"
            );
        }
    }

    #[test]
    fn prepared_exact_bit_identical_to_per_call() {
        let cfg = PyramidMatchConfig::default();
        let img = textured(48, 40, 1.3);
        let pat = img.crop(7, 11, 12, 9).unwrap();
        let pi = PreparedImage::new(&img, &cfg);
        let pp = PreparedPattern::new(&pat, &cfg).unwrap();
        let per_call = match_template(&img, &pat).unwrap();
        let prepared = match_prepared_exact(&pi, &pp).unwrap();
        assert_eq!(
            (per_call.x, per_call.y, per_call.score),
            (prepared.x, prepared.y, prepared.score)
        );
    }

    #[test]
    fn one_prepared_image_serves_many_patterns() {
        let cfg = PyramidMatchConfig::default();
        let img = textured(80, 60, 0.7);
        let pi = PreparedImage::new(&img, &cfg);
        for (x, y, w, h) in [(0, 0, 6, 6), (30, 20, 14, 14), (50, 30, 22, 18)] {
            let pat = img.crop(x, y, w, h).unwrap();
            let pp = PreparedPattern::new(&pat, &cfg).unwrap();
            let per_call = match_template_pyramid_reference(&img, &pat, &cfg).unwrap();
            let prepared = match_prepared(&pi, &pp, &cfg).unwrap();
            assert_eq!((per_call.x, per_call.y), (prepared.x, prepared.y));
            assert_eq!(per_call.score, prepared.score);
        }
    }

    #[test]
    fn prepared_validates_dims() {
        let cfg = PyramidMatchConfig::default();
        let img = GrayImage::filled(8, 8, 0.5);
        let pi = PreparedImage::new(&img, &cfg);
        let big = GrayImage::filled(12, 4, 0.5);
        let pp = PreparedPattern::new(&big, &cfg).unwrap();
        assert!(matches!(
            match_prepared(&pi, &pp, &cfg),
            Err(ImagingError::TemplateTooLarge { .. })
        ));
        let empty_img = PreparedImage::new(&GrayImage::new(0, 0), &cfg);
        let small = PreparedPattern::new(&GrayImage::filled(2, 2, 0.1), &cfg).unwrap();
        assert!(match_prepared(&empty_img, &small, &cfg).is_err());
    }

    #[test]
    fn fitted_cache_builds_once_per_target_dims() {
        let cfg = PyramidMatchConfig::default();
        let pat = textured(100, 100, 2.0);
        let pp = PreparedPattern::new(&pat, &cfg).unwrap();
        // Pattern fits: no variant needed, nothing built.
        assert!(pp.fitted_for(120, 120).unwrap().is_none());
        assert_eq!(pp.fit_builds(), 0);
        // Oversized for a 32x24 image: one build, then cache hits.
        let a = pp.fitted_for(32, 24).unwrap().expect("needs a fit");
        let b = pp.fitted_for(32, 24).unwrap().expect("needs a fit");
        assert_eq!(pp.fit_builds(), 1);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.dims(), (24, 24)); // aspect preserved: min scale wins
                                        // A different image shape with a different target: second build.
        let c = pp.fitted_for(64, 20).unwrap().expect("needs a fit");
        assert_eq!(pp.fit_builds(), 2);
        assert_eq!(c.dims(), (20, 20));
    }

    #[test]
    fn fitted_variant_matches_what_per_call_path_computes() {
        let cfg = PyramidMatchConfig::default();
        let texture = |x: usize, y: usize, scale: f32| {
            0.5 + 0.3 * ((x as f32 * scale).sin() * (y as f32 * scale).cos())
        };
        let pat = GrayImage::from_fn(100, 100, |x, y| texture(x, y, 0.07));
        let img = GrayImage::from_fn(32, 24, |x, y| texture(x, y, 0.07 * 100.0 / 32.0));
        let pp = PreparedPattern::new(&pat, &cfg).unwrap();
        let fitted = pp.fitted_for(32, 24).unwrap().expect("oversized");
        // Per-call equivalent: shrink with the same formula, then match.
        let s = (32.0f32 / 100.0).min(24.0 / 100.0).min(1.0);
        let nw = ((100.0 * s).floor() as usize).max(1);
        let nh = ((100.0 * s).floor() as usize).max(1);
        let shrunk = resize_bilinear(&pat, nw, nh).unwrap();
        let per_call = match_template_pyramid_reference(&img, &shrunk, &cfg).unwrap();
        let pi = PreparedImage::new(&img, &cfg);
        let prepared = match_prepared(&pi, &fitted, &cfg).unwrap();
        assert_eq!((per_call.x, per_call.y), (prepared.x, prepared.y));
        assert_eq!(per_call.score, prepared.score);
    }

    #[test]
    fn match_prepared_gan_scale_pattern_bit_identical_to_per_call() {
        // GAN-scale template: 128x128 crop of a 256x256 frame. At the
        // default 4-level stack the coarse scan sees a 16x16 pattern on a
        // 32x32 level, a larger coarse pattern than the property test
        // below draws.
        let cfg = PyramidMatchConfig::default();
        let img = textured(256, 256, 1.7);
        let pat = img.crop(61, 93, 128, 128).unwrap();
        let pi = PreparedImage::new(&img, &cfg);
        let pp = PreparedPattern::new(&pat, &cfg).unwrap();
        assert_eq!(pp.num_levels(), 4);
        let prepared = match_prepared(&pi, &pp, &cfg).unwrap();
        let per_call = match_template_pyramid_reference(&img, &pat, &cfg).unwrap();
        assert_eq!((per_call.x, per_call.y), (prepared.x, prepared.y));
        assert_eq!(per_call.score.to_bits(), prepared.score.to_bits());
        assert!(prepared.score > 0.99, "score {}", prepared.score);
    }

    #[test]
    fn approx_bytes_tracks_the_dominant_buffers() {
        let cfg = PyramidMatchConfig::default();
        let img = textured(64, 64, 0.9);
        let pi = PreparedImage::new(&img, &cfg);
        // At minimum: the base level's pixels plus its two f64 integral
        // tables. 64*64*4 + 2*65*65*8 — use the structural lower bound
        // rather than magic numbers.
        let pixel_floor = img.len() * core::mem::size_of::<f32>();
        let table_floor = 2 * (64 + 1) * (64 + 1) * core::mem::size_of::<f64>();
        let cold = pi.approx_bytes();
        assert!(
            cold >= pixel_floor + table_floor,
            "cold estimate {cold} below structural floor {}",
            pixel_floor + table_floor
        );
        // Reduced and centred planes of every pattern level; matching
        // builds no cache on either side.
        let pat = img.crop(13, 21, 18, 18).unwrap();
        let pp = PreparedPattern::new(&pat, &cfg).unwrap();
        let pp_cold = pp.approx_bytes();
        assert!(pp_cold >= pat.len() * 2 * core::mem::size_of::<f32>());
        match_prepared(&pi, &pp, &cfg).unwrap();
        assert_eq!(pi.approx_bytes(), cold);
        assert_eq!(pp.approx_bytes(), pp_cold);
        // Fitted variants count recursively.
        let big = PreparedPattern::new(&textured(100, 100, 2.0), &cfg).unwrap();
        let before = big.approx_bytes();
        big.fitted_for(32, 24).unwrap().expect("needs a fit");
        assert!(big.approx_bytes() > before, "fitted variant must count");
    }

    #[test]
    fn level_stack_matches_per_call_derivation() {
        let cfg = PyramidMatchConfig::default();
        // 32px shortest side: 32 -> 16 -> 8 -> 4 gives 4 levels at the
        // default min_pattern_side of 4 and max_levels of 4.
        let pp = PreparedPattern::new(&textured(40, 32, 0.1), &cfg).unwrap();
        assert_eq!(pp.num_levels(), 4);
        // Tiny pattern: single level, pyramid path falls back to exact.
        let tiny = PreparedPattern::new(&textured(5, 5, 0.2), &cfg).unwrap();
        assert_eq!(tiny.num_levels(), 1);
    }

    #[test]
    fn wrapper_equals_match_prepared_and_the_reference() {
        let cfg = PyramidMatchConfig::default();
        let img = textured(90, 70, 0.3);
        let pat = img.crop(31, 17, 40, 24).unwrap();
        let wrapped = crate::ncc::match_template_pyramid(&img, &pat, &cfg).unwrap();
        let pi = PreparedImage::new(&img, &cfg);
        let pp = PreparedPattern::new(&pat, &cfg).unwrap();
        let prepared = match_prepared(&pi, &pp, &cfg).unwrap();
        let reference = match_template_pyramid_reference(&img, &pat, &cfg).unwrap();
        for m in [prepared, reference] {
            assert_eq!((wrapped.x, wrapped.y), (m.x, m.y));
            assert_eq!(wrapped.score.to_bits(), m.score.to_bits());
        }
    }

    /// Per-window reference for [`refine_level`]: every window scanned on
    /// its own with `pearson_at`, `y` outer, `x` inner, strict `>`.
    fn refine_by_pearson_at(
        img: &GrayImage,
        pattern: &CenteredPattern,
        sums: &ImageSums<'_>,
        windows: &[Window],
    ) -> Vec<MatchResult> {
        let mut out = Vec::new();
        for w in windows {
            let mut best = MatchResult {
                x: w.x0,
                y: w.y0,
                score: f32::NEG_INFINITY,
            };
            for y in w.y0..=w.y1 {
                for x in w.x0..=w.x1 {
                    let s = pearson_at(img, pattern, x, y, sums);
                    if s > best.score {
                        best = MatchResult { x, y, score: s };
                    }
                }
            }
            out.push(best);
        }
        out
    }

    #[test]
    fn refine_level_scores_the_window_union_like_per_window_scans() {
        // One level, hand-placed windows: nested, overlapping, touching,
        // far apart, clamped at the right and bottom edges, and windows
        // over a flat block; a textured and a flat (degenerate) pattern.
        let mut img = textured(120, 60, 0.9);
        img.fill_rect(70, 30, 30, 20, 0.5);
        let sums = ImageSums::new(&img);
        for pat in [
            img.crop(10, 5, 19, 11).unwrap(),
            GrayImage::filled(19, 11, 0.3),
        ] {
            let pattern = CenteredPattern::new(&pat);
            let (max_x, max_y) = (img.width() - pat.width(), img.height() - pat.height());
            let win = |x0: usize, y0: usize, x1: usize, y1: usize| Window {
                x0,
                y0,
                x1: x1.min(max_x),
                y1: y1.min(max_y),
            };
            let layouts = [
                vec![win(4, 4, 10, 10), win(6, 5, 12, 11), win(5, 4, 11, 10)],
                vec![win(0, 0, 6, 6), win(7, 3, 13, 9)],
                vec![win(2, 2, 8, 8), win(80, 40, 86, 46)],
                vec![
                    win(max_x - 2, max_y - 3, max_x + 3, max_y + 3),
                    win(max_x, 0, max_x, 4),
                ],
                vec![
                    win(70, 30, 76, 36),
                    win(73, 31, 79, 37),
                    win(30, 20, 30, 20),
                ],
            ];
            let mut row = vec![0.0f32; img.width()];
            let mut runs = Vec::new();
            for windows in layouts {
                let mut got = vec![
                    MatchResult {
                        x: 0,
                        y: 0,
                        score: 0.0
                    };
                    windows.len()
                ];
                refine_level(
                    &img, &pattern, &sums, &windows, &mut row, &mut runs, &mut got,
                );
                let want = refine_by_pearson_at(&img, &pattern, &sums, &windows);
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!((g.x, g.y, g.score.to_bits()), (w.x, w.y, w.score.to_bits()));
                }
            }
        }
    }

    properties! {
        cases = 96;

        /// The refine ladder returns the reference matcher's `(x, y,
        /// score)` bits over two domains, drawn about half and half.
        ///
        /// Bench-shaped (`small` false): a long side of 8 to 170 px and a
        /// short side of 8 to 47 px (2 to 4 levels), wide or tall, so
        /// every `pw % 8` tail appears; images from flush with the pattern
        /// (every window clamped) to 47 px larger, and `top_k` /
        /// `refine_radius` varied so windows nest, overlap, touch or sit
        /// far apart. `kind` picks the content: noise against noise
        /// (scattered candidates), a crop of the image (candidates
        /// clustered at the peak), a flat pattern (degenerate), or a crop
        /// over an image with a flat block (flat windows).
        ///
        /// Small (`small` true): noise images of 10-47 x 10-39 px, noise
        /// patterns of 2-9 px a side and the default config, the domain
        /// `ig-core`'s property tests drew, where most matches take the
        /// one-level exact path or a 2-level ladder with `pw < 8`.
        fn refine_ladder_bit_identical_to_per_placement_reference(g) {
            let small = g.gen::<bool>();
            let long = g.gen_range(8usize..171);
            let short = g.gen_range(8usize..48);
            let tall = g.gen::<bool>();
            let extra_w = g.gen_range(0usize..48);
            let extra_h = g.gen_range(0usize..48);
            let kind = g.gen_range(0usize..4);
            let top_k = g.gen_range(1usize..6);
            let refine_radius = g.gen_range(0usize..6);
            let seed = g.gen::<u64>();
            let mut rng = StdRng::seed_from_u64(seed);
            let (img, pat, cfg) = if small {
                let img = random_image(rng.gen_range(10..48), rng.gen_range(10..40), &mut rng);
                let pat = random_image(rng.gen_range(2..10), rng.gen_range(2..10), &mut rng);
                (img, pat, PyramidMatchConfig::default())
            } else {
                let (pw, ph) = if tall { (short, long) } else { (long, short) };
                let (iw, ih) = (pw + extra_w, ph + extra_h);
                let mut img = random_image(iw, ih, &mut rng);
                if kind == 3 {
                    img.fill_rect(iw / 4, ih / 4, iw / 2, ih / 2, 0.6);
                }
                let pat = match kind {
                    0 => random_image(pw, ph, &mut rng),
                    2 => GrayImage::filled(pw, ph, 0.4),
                    _ => img.crop(rng.gen_range(0..=extra_w), rng.gen_range(0..=extra_h), pw, ph).unwrap(),
                };
                (img, pat, PyramidMatchConfig { top_k, refine_radius, ..PyramidMatchConfig::default() })
            };
            let pi = PreparedImage::new(&img, &cfg);
            let pp = PreparedPattern::new(&pat, &cfg).unwrap();
            let got = match_prepared(&pi, &pp, &cfg).unwrap();
            ensure!(small || pp.num_levels() >= 2);
            let want = match_template_pyramid_reference(&img, &pat, &cfg).unwrap();
            ensure_eq!(
                (got.x, got.y, got.score.to_bits()),
                (want.x, want.y, want.score.to_bits()),
                "{:?} in {:?}, small {}, kind {}: {} vs {}",
                pat.dims(), img.dims(), small, kind, got.score, want.score
            );
        }
    }
}
