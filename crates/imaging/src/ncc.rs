//! Normalized cross-correlation (NCC) template matching.
//!
//! This is the feature generation primitive of Inspector Gadget: each
//! pattern `P_i` defines an FGF
//!
//! ```text
//! f_i(I) = max_{x,y}  sum_{x',y'} P_i(x',y') I(x+x', y+y')
//!                     -------------------------------------------------
//!                     sqrt( sum P_i(x',y')^2  *  sum I(x+x', y+y')^2 )
//! ```
//!
//! (Section 5.1, OpenCV's `TM_CCORR_NORMED`). The matcher here uses the
//! **zero-mean** variant of that formula (OpenCV's `TM_CCOEFF_NORMED`
//! from the same cited page): pattern and window are mean-centred before
//! correlating, i.e. a Pearson correlation over the window. On bright,
//! low-contrast industrial surfaces the plain form saturates near 1.0 for
//! *every* placement and *anti*-correlates with dark defects, destroying
//! the feature signal; mean-centring matches defects of either polarity.
//! Scores are in `[-1, 1]`; degenerate (flat) windows or patterns score 0.
//!
//! Two search strategies are provided: an exact brute-force scan whose
//! denominator is accelerated with integral images, and the paper's
//! coarse-to-fine pyramid search that localizes candidates at low
//! resolution and rescores only small neighbourhoods at full resolution.

use crate::integral::{fill, square, table_len, value, TableRef};
use crate::prepared::{match_prepared, PreparedImage, PreparedPattern};
use crate::{GrayImage, ImagingError, Result};
use std::borrow::Cow;
use std::ops::Range;

/// The best-match location and its NCC score in `[-1, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchResult {
    /// Left edge of the best-matching window.
    pub x: usize,
    /// Top edge of the best-matching window.
    pub y: usize,
    /// NCC score at `(x, y)`.
    pub score: f32,
}

/// Tuning for the coarse-to-fine pyramid matcher.
#[derive(Debug, Clone, Copy)]
pub struct PyramidMatchConfig {
    /// Maximum number of pyramid levels (including full resolution).
    pub max_levels: usize,
    /// Stop adding levels when the *pattern* would shrink below this side
    /// length — below ~4 px correlations carry no signal.
    pub min_pattern_side: usize,
    /// Number of coarse candidates to refine at finer levels.
    pub top_k: usize,
    /// Neighbourhood radius (in pixels of the finer level) searched around
    /// each upscaled candidate during refinement.
    pub refine_radius: usize,
}

impl Default for PyramidMatchConfig {
    fn default() -> Self {
        Self {
            max_levels: 4,
            min_pattern_side: 4,
            top_k: 3,
            refine_radius: 3,
        }
    }
}

pub(crate) fn validate(image: &GrayImage, pattern: &GrayImage) -> Result<()> {
    if image.is_empty() || pattern.is_empty() {
        return Err(ImagingError::EmptyImage);
    }
    if pattern.width() > image.width() || pattern.height() > image.height() {
        return Err(ImagingError::TemplateTooLarge {
            template: pattern.dims(),
            image: image.dims(),
        });
    }
    Ok(())
}

/// A pattern preprocessed for Pearson matching: mean-centred pixels and
/// their L2 norm.
#[derive(Debug, Clone)]
pub(crate) struct CenteredPattern {
    pub(crate) centered: GrayImage,
    pub(crate) norm: f64,
    pub(crate) w: usize,
    pub(crate) h: usize,
    /// Flat pattern: per-pixel deviation below the shared cutoff, every
    /// score is pinned to 0.0. Hoisted out of the per-placement path.
    pub(crate) degenerate: bool,
}

impl CenteredPattern {
    pub(crate) fn new(pattern: &GrayImage) -> Self {
        let n = pattern.len().max(1) as f64;
        // Accumulate the mean in f64: an f32 sum over a large (e.g.
        // GAN-sized 256x256) pattern loses enough low bits to shift the
        // centring, which the norm then bakes into every score.
        let mean = (pattern.pixels().iter().map(|&p| p as f64).sum::<f64>() / n) as f32;
        let centered = pattern.map(|p| p - mean);
        let norm = centered
            .pixels()
            .iter()
            .map(|&p| (p as f64) * (p as f64))
            .sum::<f64>()
            .sqrt();
        let area = (pattern.width() * pattern.height()) as f64;
        let degenerate = norm <= FLAT_PATTERN_TOL * area.sqrt();
        Self {
            centered,
            norm,
            w: pattern.width(),
            h: pattern.height(),
            degenerate,
        }
    }
}

/// Tolerances sized for [0, 1] imagery: a "flat" pattern or window whose
/// per-pixel deviation is below ~1e-4 carries only float noise. Shared by
/// the scalar reference, the row sweep and the refine runs so the kernels
/// cannot drift on the cutoff.
pub(crate) const FLAT_WINDOW_TOL: f64 = 1e-8;
/// See [`FLAT_WINDOW_TOL`]; this one gates the pattern's L2 norm.
pub(crate) const FLAT_PATTERN_TOL: f64 = 1e-4;

/// The NCC denominator's window term `sum W² - n·mean(W)²` from raw window
/// moments, or `None` for a degenerate (flat) window. This is the single
/// home of the flat-window cutoff — every kernel path scores a degenerate
/// window as 0.0 by observing `None` here.
#[inline]
pub(crate) fn variance_term(win_sum: f64, win_sq: f64, n: f64) -> Option<f64> {
    let term = win_sq - win_sum * win_sum / n;
    (term > FLAT_WINDOW_TOL * n).then_some(term)
}

/// [`variance_term`] for the window at `(x, y)` of extent `(w, h)`, read
/// from the precomputed integral tables.
#[inline]
pub(crate) fn window_variance_term(
    sums: &ImageSums<'_>,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
) -> Option<f64> {
    let n = (w * h) as f64;
    let (values, squares) = sums.tables();
    variance_term(
        values.window_sum(x, y, w, h),
        squares.window_sum(x, y, w, h),
        n,
    )
}

/// Dot product of a pattern row against an image-row slice, written as
/// exact-chunked iteration (8 explicit f32 lanes over `chunks_exact(8)`,
/// merged in a fixed order, sequential tail). This is the accumulation
/// order every NCC numerator follows; [`numerators_wide`] reproduces it
/// per placement, and the tests pin the two against each other.
#[cfg(test)]
pub(crate) fn dot_rows(pat: &[f32], img: &[f32]) -> f32 {
    let len = pat.len().min(img.len());
    let (pat, img) = (&pat[..len], &img[..len]);
    let mut lanes = [0.0f32; 8];
    for (pc, ic) in pat.chunks_exact(8).zip(img.chunks_exact(8)) {
        for ((lane, p), i) in lanes.iter_mut().zip(pc).zip(ic) {
            *lane += *p * *i;
        }
    }
    let [l0, l1, l2, l3, l4, l5, l6, l7] = lanes;
    let mut acc = ((l0 + l4) + (l1 + l5)) + ((l2 + l6) + (l3 + l7));
    let tail = pat.chunks_exact(8).remainder();
    let itail = img.chunks_exact(8).remainder();
    for (p, i) in tail.iter().zip(itail) {
        acc += *p * *i;
    }
    acc
}

/// Placements one call of [`numerators_wide`] scores together.
const WIDE_BLOCK: usize = 4;

/// Pearson numerators of the `N` adjacent placements `(x + j, y)`,
/// `j < N`, register-blocked for wide patterns: the `N` placements share
/// each pattern chunk load and run `N` independent 8-lane accumulators,
/// where a per-placement `dot_rows` runs one. Each placement keeps that
/// helper's accumulation exactly — 8 f32 lanes over the row's full
/// 8-chunks, the `((l0+l4)+(l1+l5))+((l2+l6)+(l3+l7))` merge, the
/// sequential tail, and rows merged into an f64 in row order — so every
/// numerator is bit-identical to the per-placement one. The wide-pattern
/// counterpart of [`sweep_row_blocked`]. The caller keeps
/// `x + N - 1 + pattern.w <= image.width()` and
/// `y + pattern.h <= image.height()`.
fn numerators_wide<const N: usize>(
    image: &GrayImage,
    pattern: &CenteredPattern,
    x: usize,
    y: usize,
) -> [f64; N] {
    let pw = pattern.w;
    let mut nums = [0.0f64; N];
    for dy in 0..pattern.h {
        let prow = pattern.centered.row(dy);
        // One slice covers the rows of all `N` windows.
        let irow = &image.row(y + dy)[x..x + pw + N - 1];
        let chunks = prow.chunks_exact(8);
        let tail = chunks.remainder();
        let mut lanes = [[0.0f32; 8]; N];
        for (c, pc) in chunks.enumerate() {
            let Ok(pc) = <&[f32; 8]>::try_from(pc) else {
                continue;
            };
            let span = &irow[8 * c..8 * c + 8 + N - 1];
            for (j, lane) in lanes.iter_mut().enumerate() {
                let Some(Ok(ic)) = span.get(j..j + 8).map(<&[f32; 8]>::try_from) else {
                    continue;
                };
                for ((l, p), i) in lane.iter_mut().zip(pc).zip(ic) {
                    *l += *p * *i;
                }
            }
        }
        let body = pw - tail.len();
        for (j, (num, lane)) in nums.iter_mut().zip(&lanes).enumerate() {
            let [l0, l1, l2, l3, l4, l5, l6, l7] = *lane;
            let mut acc = ((l0 + l4) + (l1 + l5)) + ((l2 + l6) + (l3 + l7));
            for (p, i) in tail.iter().zip(&irow[body + j..]) {
                acc += *p * *i;
            }
            *num += acc as f64;
        }
    }
    nums
}

/// Scores of the adjacent placements `(x, y)`, `x` in `xs`, emitted in
/// ascending `x`. Numerators come from [`numerators_wide`] in blocks of
/// [`WIDE_BLOCK`] (one narrower block for the remainder); `term(x)` gives
/// the window's [`variance_term`]. Every score is bit-identical to
/// `pearson_at` at that placement. The caller keeps every placement of
/// `xs` valid for the image.
pub(crate) fn score_run(
    image: &GrayImage,
    pattern: &CenteredPattern,
    y: usize,
    xs: Range<usize>,
    term: impl Fn(usize) -> Option<f64>,
    mut emit: impl FnMut(usize, f32),
) {
    if pattern.degenerate {
        xs.for_each(|x| emit(x, 0.0));
        return;
    }
    let mut x = xs.start;
    while x < xs.end {
        let left = xs.end - x;
        match left {
            1 => score_block::<1>(image, pattern, x, y, &term, &mut emit),
            2 => score_block::<2>(image, pattern, x, y, &term, &mut emit),
            3 => score_block::<3>(image, pattern, x, y, &term, &mut emit),
            _ => score_block::<WIDE_BLOCK>(image, pattern, x, y, &term, &mut emit),
        }
        x += left.min(WIDE_BLOCK);
    }
}

/// One block of [`score_run`]: `N` numerators, then each placement's
/// score from its window term, the same division and clamp as
/// `pearson_at`.
fn score_block<const N: usize>(
    image: &GrayImage,
    pattern: &CenteredPattern,
    x: usize,
    y: usize,
    term: &impl Fn(usize) -> Option<f64>,
    emit: &mut impl FnMut(usize, f32),
) {
    let nums = numerators_wide::<N>(image, pattern, x, y);
    for (px, num) in (x..).zip(nums) {
        let score = match term(px) {
            None => 0.0,
            Some(term) => (num / (pattern.norm * term.sqrt())).clamp(-1.0, 1.0) as f32,
        };
        emit(px, score);
    }
}

/// One-pass dense Pearson sweep over every valid placement, in row-major
/// order (`y` outer ascending, `x` inner ascending — the scan order every
/// dense caller used before this path existed).
///
/// Instead of calling `pearson_at` per placement, each output row reads
/// its window sum/square terms from the integral tables in one batched
/// pass ([`crate::integral::IntegralImage::row_window_sums`]) and scores
/// the row with a register-blocked kernel ([`sweep_row_blocked`] below
/// 8 px of pattern width, [`score_run`] from 8 px up). Both steps
/// preserve the per-placement summation order, so emitted scores are
/// **bit-identical** to `pearson_at` (pinned by the
/// `row_sweep_bit_identical_to_*` tests below).
pub(crate) fn ncc_row_sweep(
    image: &GrayImage,
    pattern: &CenteredPattern,
    sums: &ImageSums<'_>,
    mut emit: impl FnMut(usize, usize, f32),
) {
    let (pw, ph) = (pattern.w, pattern.h);
    let (iw, ih) = image.dims();
    if pw == 0 || ph == 0 || pw > iw || ph > ih {
        return;
    }
    let out_w = iw - pw + 1;
    let out_h = ih - ph + 1;
    if pattern.degenerate {
        for y in 0..out_h {
            for x in 0..out_w {
                emit(x, y, 0.0);
            }
        }
        return;
    }
    let n = (pw * ph) as f64;
    // Row scratch, hoisted out of the scan so no row allocates: one
    // window-sum and one window-square slot per output column, refilled
    // per output row.
    let mut win_sums = vec![0.0f64; out_w];
    let mut win_sqs = vec![0.0f64; out_w];
    let (values, squares) = sums.tables();
    for y in 0..out_h {
        values.row_window_sums(y, pw, ph, &mut win_sums);
        squares.row_window_sums(y, pw, ph, &mut win_sqs);
        if pw < 8 {
            sweep_row_blocked(image, pattern, y, out_w, n, &win_sums, &win_sqs, &mut emit);
            continue;
        }
        score_run(
            image,
            pattern,
            y,
            0..out_w,
            |x| variance_term(*win_sums.get(x)?, *win_sqs.get(x)?, n),
            |x, s| emit(x, y, s),
        );
    }
}

/// One output row of the sweep for narrow patterns (`pw < 8`), register-
/// blocked: `BLOCK` adjacent placements advance together, sharing every
/// image-row load and giving the CPU eight independent accumulator chains
/// instead of one serial f32 chain per placement (the coarse pyramid scan
/// runs 5–6 px patterns, where `dot_rows`' lane trick has no body to
/// chew on). For `pw < 8` that helper is a plain sequential loop, and the
/// blocked form keeps each placement's accumulation order exactly —
/// sequential in-row f32, rows merged into f64 in row-major order — so
/// emitted scores stay bit-identical to `pearson_at`.
#[allow(clippy::too_many_arguments)]
fn sweep_row_blocked(
    image: &GrayImage,
    pattern: &CenteredPattern,
    y: usize,
    out_w: usize,
    n: f64,
    win_sums: &[f64],
    win_sqs: &[f64],
    emit: &mut impl FnMut(usize, usize, f32),
) {
    const BLOCK: usize = 8;
    let (pw, ph) = (pattern.w, pattern.h);
    let mut x = 0;
    // Full blocks: eight placements with their own scalar f32 chains.
    while x + BLOCK <= out_w {
        let mut nums = [0.0f64; BLOCK];
        for dy in 0..ph {
            let prow = pattern.centered.row(dy);
            // One slice covers all eight windows of this pattern row;
            // `windows(BLOCK)` yields exactly `pw` eight-wide views.
            let irow = &image.row(y + dy)[x..x + pw + BLOCK - 1];
            let (mut r0, mut r1, mut r2, mut r3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            let (mut r4, mut r5, mut r6, mut r7) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for (p, win) in prow.iter().zip(irow.windows(BLOCK)) {
                let &[w0, w1, w2, w3, w4, w5, w6, w7] = win else {
                    continue;
                };
                r0 += *p * w0;
                r1 += *p * w1;
                r2 += *p * w2;
                r3 += *p * w3;
                r4 += *p * w4;
                r5 += *p * w5;
                r6 += *p * w6;
                r7 += *p * w7;
            }
            for (num, row) in nums.iter_mut().zip([r0, r1, r2, r3, r4, r5, r6, r7]) {
                *num += row as f64;
            }
        }
        for (j, num) in nums.iter().enumerate() {
            let score = match variance_term(win_sums[x + j], win_sqs[x + j], n) {
                None => 0.0,
                Some(term) => (num / (pattern.norm * term.sqrt())).clamp(-1.0, 1.0) as f32,
            };
            emit(x + j, y, score);
        }
        x += BLOCK;
    }
    // Tail placements, one at a time (same order as the narrow dot).
    while x < out_w {
        let score = match variance_term(win_sums[x], win_sqs[x], n) {
            None => 0.0,
            Some(term) => {
                let mut num = 0.0f64;
                for dy in 0..ph {
                    let prow = pattern.centered.row(dy);
                    let irow = &image.row(y + dy)[x..x + pw];
                    let mut row = 0.0f32;
                    for (p, i) in prow.iter().zip(irow) {
                        row += *p * *i;
                    }
                    num += row as f64;
                }
                (num / (pattern.norm * term.sqrt())).clamp(-1.0, 1.0) as f32
            }
        };
        emit(x, y, score);
        x += 1;
    }
}

/// Value and square summed-area tables of the search image, in one
/// buffer: the value table, then the square table. Owned for a one-off
/// image, borrowed from a [`PreparedImage`]'s buffer of every pyramid
/// level (see [`ImageSums::stack`]).
#[derive(Debug, Clone)]
pub(crate) struct ImageSums<'a> {
    width: usize,
    height: usize,
    table: Cow<'a, [f64]>,
}

impl<'a> ImageSums<'a> {
    /// The tables of one image, owned.
    pub(crate) fn new(image: &GrayImage) -> ImageSums<'static> {
        ImageSums {
            width: image.width(),
            height: image.height(),
            table: Cow::Owned(ImageSums::stack(std::slice::from_ref(image))),
        }
    }

    /// The tables of every image in `images` back to back, in one buffer:
    /// image 0's value table, its square table, then image 1's, and so on.
    /// A [`PreparedImage`] keeps its pyramid's tables this way, so they
    /// are its largest allocation: glibc's malloc keeps up to twice the
    /// largest block it has mapped and freed at the top of a heap before
    /// it gives memory back to the OS. With two blocks per level, a
    /// one-image label call on a 125×314 image gave up to 0.6 MiB back
    /// when it dropped the prepared image, and the next call faulted it
    /// in again.
    pub(crate) fn stack(images: &[GrayImage]) -> Vec<f64> {
        let mut table = Vec::new();
        ImageSums::stack_into(images, &mut table);
        table
    }

    /// [`ImageSums::stack`] written over `table`, whose allocation is
    /// kept when it is large enough.
    pub(crate) fn stack_into(images: &[GrayImage], table: &mut Vec<f64>) {
        let lens: Vec<usize> = images
            .iter()
            .map(|image| table_len(image.width(), image.height()))
            .collect();
        let len = 2 * lens.iter().sum::<usize>();
        if table.capacity() < len {
            // A fresh zeroed allocation: the allocator can hand back pages
            // the OS has already zeroed instead of writing the zeros.
            *table = vec![0.0; len];
        } else {
            table.clear();
            table.resize(len, 0.0);
        }
        let mut rest = table.as_mut_slice();
        for (image, &n) in images.iter().zip(&lens) {
            let (values, tail) = rest.split_at_mut(n);
            let (squares, tail) = tail.split_at_mut(n);
            fill(image, value, values);
            fill(image, square, squares);
            rest = tail;
        }
    }

    /// The tables of `images[i]` in `stack`, a buffer that
    /// [`ImageSums::stack`] built from `images`.
    pub(crate) fn in_stack(stack: &'a [f64], images: &[GrayImage], i: usize) -> Option<Self> {
        let before: usize = images
            .get(..i)?
            .iter()
            .map(|image| 2 * table_len(image.width(), image.height()))
            .sum();
        let image = images.get(i)?;
        let (width, height) = image.dims();
        let table = stack.get(before..before + 2 * table_len(width, height))?;
        Some(ImageSums {
            width,
            height,
            table: Cow::Borrowed(table),
        })
    }

    /// The value table and the square table.
    fn tables(&self) -> (TableRef<'_>, TableRef<'_>) {
        let n = table_len(self.width, self.height);
        let (values, squares) = self.table.split_at_checked(n).unwrap_or_default();
        (
            TableRef::new(self.width, self.height, values),
            TableRef::new(self.width, self.height, squares),
        )
    }
}

/// Pearson NCC at one placement: the scalar reference every kernel path
/// is pinned against.
///
/// With `Pc = P - mean(P)`:
/// `score = dot(Pc, W) / (||Pc|| * sqrt(sum W² - n·mean(W)²))`,
/// using `sum(Pc · W) = sum((P - µP)(W - µW))` since `sum(Pc) = 0`.
#[cfg(test)]
pub(crate) fn pearson_at(
    image: &GrayImage,
    pattern: &CenteredPattern,
    x: usize,
    y: usize,
    sums: &ImageSums<'_>,
) -> f32 {
    let (pw, ph) = (pattern.w, pattern.h);
    if pattern.degenerate {
        return 0.0;
    }
    let Some(win_var_term) = window_variance_term(sums, x, y, pw, ph) else {
        return 0.0;
    };
    let mut num = 0.0f64;
    for dy in 0..ph {
        let prow = pattern.centered.row(dy);
        let irow = &image.row(y + dy)[x..x + pw];
        num += dot_rows(prow, irow) as f64;
    }
    let score = num / (pattern.norm * win_var_term.sqrt());
    score.clamp(-1.0, 1.0) as f32
}

/// The best placement of a dense [`ncc_row_sweep`]: row-major scan,
/// strict `>`, so the first of equal maxima wins. The one argmax loop
/// behind [`match_template`] and every exact scan of
/// [`crate::prepared`].
pub(crate) fn best_placement(
    image: &GrayImage,
    pattern: &CenteredPattern,
    sums: &ImageSums<'_>,
) -> MatchResult {
    let mut best = MatchResult {
        x: 0,
        y: 0,
        score: f32::NEG_INFINITY,
    };
    ncc_row_sweep(image, pattern, sums, |x, y, s| {
        if s > best.score {
            best = MatchResult { x, y, score: s };
        }
    });
    best
}

/// Exact brute-force Pearson-NCC match over every valid placement, driven
/// by the one-pass `ncc_row_sweep` (same scan order and comparison as
/// the historical per-placement loop).
pub fn match_template(image: &GrayImage, pattern: &GrayImage) -> Result<MatchResult> {
    validate(image, pattern)?;
    let prepared = CenteredPattern::new(pattern);
    Ok(best_placement(image, &prepared, &ImageSums::new(image)))
}

/// Dense Pearson-NCC score map: output pixel `(x, y)` is the score of the
/// window whose top-left corner is `(x, y)`. Output size is
/// `(W - w + 1) x (H - h + 1)`.
pub fn score_map(image: &GrayImage, pattern: &GrayImage) -> Result<GrayImage> {
    validate(image, pattern)?;
    let prepared = CenteredPattern::new(pattern);
    let sums = ImageSums::new(image);
    let out_w = image.width() - prepared.w + 1;
    let out_h = image.height() - prepared.h + 1;
    let mut out = GrayImage::new(out_w, out_h);
    ncc_row_sweep(image, &prepared, &sums, |x, y, s| out.set(x, y, s));
    Ok(out)
}

/// Coarse-to-fine pyramid Pearson-NCC match (Section 5.1's "pyramid
/// method").
///
/// Both image and pattern are reduced together; an exhaustive scan runs
/// only at the coarsest level, after which the `top_k` candidate locations
/// are propagated down, each rescored in a `±refine_radius` neighbourhood
/// at every finer level. Falls back to the exact matcher when the pattern
/// is too small to survive even one reduction. A one-off call: both
/// operands are prepared, matched by [`match_prepared`] and dropped.
///
/// Exactness follows [`match_prepared`]: the result is bit-identical to
/// scoring every placement of the coarse scan and the refine windows with
/// the scalar reference.
pub fn match_template_pyramid(
    image: &GrayImage,
    pattern: &GrayImage,
    config: &PyramidMatchConfig,
) -> Result<MatchResult> {
    let prepared_pattern = PreparedPattern::new(pattern, config)?;
    match_prepared(
        &PreparedImage::new(image, config),
        &prepared_pattern,
        config,
    )
}

/// The per-call pyramid matcher as it stood before it became a wrapper
/// over [`match_prepared`]: its own pyramid, a sweep-only coarse scan and
/// a refine ladder that calls `pearson_at` once per window placement,
/// rescoring where windows overlap. The oracle the one-pass refine is
/// pinned against.
#[cfg(test)]
pub(crate) fn match_template_pyramid_reference(
    image: &GrayImage,
    pattern: &GrayImage,
    config: &PyramidMatchConfig,
) -> Result<MatchResult> {
    validate(image, pattern)?;
    let levels = levels_for_pattern(pattern.width().min(pattern.height()), config);
    if levels == 1 {
        return match_template(image, pattern);
    }

    let image_pyr = crate::pyramid::Pyramid::build(image, levels, 2);
    let levels = levels.min(image_pyr.num_levels());
    if levels == 1 {
        return match_template(image, pattern);
    }

    // Reduced patterns per level (level 0 = original).
    let mut patterns: Vec<GrayImage> = Vec::with_capacity(levels);
    patterns.push(pattern.clone());
    for lvl in 1..levels {
        let scale = 1usize << lvl;
        let pw = (pattern.width() / scale).max(1);
        let ph = (pattern.height() / scale).max(1);
        patterns.push(crate::resize::resize_bilinear(pattern, pw, ph)?);
    }

    // Exhaustive scan at the coarsest level, keeping top-k candidates.
    let coarse = levels - 1;
    let coarse_img = image_pyr.level(coarse);
    let coarse_pat = &patterns[coarse];
    if coarse_pat.width() > coarse_img.width() || coarse_pat.height() > coarse_img.height() {
        return match_template(image, pattern);
    }
    let prepared = CenteredPattern::new(coarse_pat);
    let sums = ImageSums::new(coarse_img);
    let mut candidates: Vec<MatchResult> = Vec::new();
    ncc_row_sweep(coarse_img, &prepared, &sums, |x, y, s| {
        insert_topk(
            &mut candidates,
            MatchResult { x, y, score: s },
            config.top_k,
        );
    });

    // Refine candidates through finer levels.
    for lvl in (0..coarse).rev() {
        let img = image_pyr.level(lvl);
        let pat = &patterns[lvl];
        if pat.width() > img.width() || pat.height() > img.height() {
            continue;
        }
        let prepared = CenteredPattern::new(pat);
        let sums = ImageSums::new(img);
        let max_x = img.width() - pat.width();
        let max_y = img.height() - pat.height();
        let mut refined: Vec<MatchResult> = Vec::with_capacity(candidates.len());
        for cand in &candidates {
            // A coarse coordinate c maps to [2c - r, 2c + r] one level down.
            let cx = cand.x * 2;
            let cy = cand.y * 2;
            let x0 = cx.saturating_sub(config.refine_radius).min(max_x);
            let y0 = cy.saturating_sub(config.refine_radius).min(max_y);
            let x1 = (cx + config.refine_radius).min(max_x);
            let y1 = (cy + config.refine_radius).min(max_y);
            let mut best = MatchResult {
                x: x0,
                y: y0,
                score: f32::NEG_INFINITY,
            };
            for y in y0..=y1 {
                for x in x0..=x1 {
                    let s = pearson_at(img, &prepared, x, y, &sums);
                    if s > best.score {
                        best = MatchResult { x, y, score: s };
                    }
                }
            }
            refined.push(best);
        }
        candidates = refined;
    }

    candidates
        .into_iter()
        .max_by(|a, b| a.score.total_cmp(&b.score))
        .ok_or(ImagingError::EmptyImage)
}

/// Number of pyramid levels the coarse-to-fine search uses for a pattern
/// whose shorter side is `min_pat` — how many times it can halve before
/// dropping below `config.min_pattern_side`, capped at `config.max_levels`.
/// Shared with [`crate::prepared::PreparedPattern`] so the prepared and
/// per-call paths derive identical level stacks.
pub(crate) fn levels_for_pattern(min_pat: usize, config: &PyramidMatchConfig) -> usize {
    let mut levels = 1usize;
    let mut side = min_pat;
    while levels < config.max_levels && side / 2 >= config.min_pattern_side {
        side /= 2;
        levels += 1;
    }
    levels
}

/// Keep the top-`k` results, sorted descending by score. Runs once per
/// coarse placement, so insertion is a binary search + `Vec::insert` into
/// the (short, already-sorted) list instead of the old push-then-full-sort.
/// Ordering semantics are unchanged: ties keep insertion order (the stable
/// sort's behavior), and a full list is only disturbed by a strictly
/// greater score (same `>` comparison as before).
pub(crate) fn insert_topk(heap: &mut Vec<MatchResult>, item: MatchResult, k: usize) {
    if k == 0 {
        return;
    }
    if heap.len() >= k {
        let Some(last) = heap.last() else { return };
        if item.score > last.score {
            heap.pop();
        } else {
            return;
        }
    }
    // Descending order: the insertion point is after every entry scoring
    // >= the new item, which is exactly where the stable sort placed it.
    let pos = heap.partition_point(|m| m.score.total_cmp(&item.score) != std::cmp::Ordering::Less);
    heap.insert(pos, item);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ig_check::{assume, ensure_eq, properties};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A structured test image: smooth gradient background with a bright
    /// blob pasted at a known location.
    fn image_with_blob(w: usize, h: usize, bx: usize, by: usize) -> (GrayImage, GrayImage) {
        let mut img = GrayImage::from_fn(w, h, |x, y| 0.2 + 0.001 * (x + y) as f32);
        let blob = GrayImage::from_fn(8, 8, |x, y| {
            let dx = x as f32 - 3.5;
            let dy = y as f32 - 3.5;
            0.2 + 0.8 * (-(dx * dx + dy * dy) / 8.0).exp()
        });
        img.paste(&blob, bx, by).unwrap();
        (img, blob)
    }

    #[test]
    fn exact_match_finds_planted_pattern() {
        let (img, blob) = image_with_blob(64, 48, 23, 17);
        let m = match_template(&img, &blob).unwrap();
        assert_eq!((m.x, m.y), (23, 17));
        assert!(m.score > 0.999, "score {}", m.score);
    }

    #[test]
    fn self_match_score_is_one() {
        let img = GrayImage::from_fn(12, 12, |x, y| 0.1 + ((x * y) % 7) as f32 * 0.1);
        let m = match_template(&img, &img).unwrap();
        assert_eq!((m.x, m.y), (0, 0));
        assert!((m.score - 1.0).abs() < 1e-5);
    }

    #[test]
    fn matching_is_gain_and_offset_invariant() {
        // Pearson NCC is invariant to affine intensity changes of the
        // pattern: a * P + b matches where P matches.
        let (img, blob) = image_with_blob(40, 40, 10, 10);
        let transformed = blob.map(|p| 2.5 * p + 0.3);
        let m = match_template(&img, &transformed).unwrap();
        assert_eq!((m.x, m.y), (10, 10));
        assert!(m.score > 0.999);
    }

    #[test]
    fn dark_defect_on_bright_background_matches() {
        // The regression the Pearson form exists for: a dark line defect
        // on a bright surface must produce its maximum at the defect.
        let mut img = GrayImage::filled(60, 30, 0.8);
        img.draw_line(30.0, 5.0, 40.0, 25.0, 1.5, 0.2);
        let mut pat = GrayImage::filled(14, 24, 0.8);
        pat.draw_line(2.0, 2.0, 12.0, 22.0, 1.5, 0.2);
        let m = match_template(&img, &pat).unwrap();
        assert!(m.score > 0.5, "dark defect score {}", m.score);
        // The match is near the planted defect (x ≈ 28, y ≈ 3).
        assert!((m.x as isize - 28).abs() <= 4, "x = {}", m.x);
    }

    #[test]
    fn anticorrelated_pattern_scores_negative() {
        let img = GrayImage::from_fn(16, 16, |x, _| (x % 2) as f32);
        let inverted = img.map(|p| 1.0 - p);
        let map = score_map(&img, &inverted).unwrap();
        assert!(map.get(0, 0) < -0.9, "inverted score {}", map.get(0, 0));
    }

    #[test]
    fn template_too_large_errors() {
        let img = GrayImage::filled(4, 4, 1.0);
        let pat = GrayImage::filled(5, 2, 1.0);
        assert!(matches!(
            match_template(&img, &pat),
            Err(ImagingError::TemplateTooLarge { .. })
        ));
    }

    #[test]
    fn empty_inputs_error() {
        let img = GrayImage::new(0, 0);
        let pat = GrayImage::filled(2, 2, 1.0);
        assert!(match_template(&img, &pat).is_err());
        let img2 = GrayImage::filled(4, 4, 1.0);
        let pat2 = GrayImage::new(0, 0);
        assert!(match_template(&img2, &pat2).is_err());
    }

    #[test]
    fn flat_image_yields_zero_score() {
        let img = GrayImage::filled(10, 10, 0.5);
        let mut pat = GrayImage::filled(3, 3, 0.2);
        pat.set(1, 1, 0.9);
        let m = match_template(&img, &pat).unwrap();
        assert_eq!(m.score, 0.0);
        // Every placement ties at 0.0: the first in row-major order wins.
        assert_eq!((m.x, m.y), (0, 0));
    }

    #[test]
    fn flat_pattern_yields_zero_score() {
        let img = GrayImage::from_fn(10, 10, |x, y| (x + y) as f32 * 0.05);
        let pat = GrayImage::filled(3, 3, 0.7);
        let m = match_template(&img, &pat).unwrap();
        assert_eq!(m.score, 0.0);
    }

    #[test]
    fn score_map_dimensions() {
        let img = GrayImage::filled(10, 8, 0.5);
        let pat = GrayImage::filled(3, 2, 0.5);
        let map = score_map(&img, &pat).unwrap();
        assert_eq!(map.dims(), (8, 7));
    }

    #[test]
    fn score_map_peak_at_planted_location() {
        let (img, blob) = image_with_blob(32, 32, 5, 9);
        let map = score_map(&img, &blob).unwrap();
        let mut best = (0usize, 0usize, f32::NEG_INFINITY);
        for y in 0..map.height() {
            for x in 0..map.width() {
                if map.get(x, y) > best.2 {
                    best = (x, y, map.get(x, y));
                }
            }
        }
        assert_eq!((best.0, best.1), (5, 9));
    }

    #[test]
    fn scores_bounded_in_unit_interval() {
        let img = GrayImage::from_fn(20, 20, |x, y| ((x * 13 + y * 7) % 9) as f32 * 0.1 + 0.05);
        let pat = img.crop(4, 4, 5, 5).unwrap();
        let map = score_map(&img, &pat).unwrap();
        for &s in map.pixels() {
            assert!((-1.0..=1.0).contains(&s), "score {s}");
        }
        // And the planted crop matches perfectly somewhere.
        let m = match_template(&img, &pat).unwrap();
        assert!(m.score > 0.999);
    }

    #[test]
    fn pyramid_match_agrees_with_exact_on_planted_pattern() {
        let (img, blob) = image_with_blob(96, 80, 51, 33);
        let exact = match_template(&img, &blob).unwrap();
        let fast = match_template_pyramid(&img, &blob, &PyramidMatchConfig::default()).unwrap();
        assert_eq!((fast.x, fast.y), (exact.x, exact.y));
        assert!((fast.score - exact.score).abs() < 1e-3);
    }

    #[test]
    fn pyramid_match_small_pattern_falls_back_to_exact() {
        let mut img = GrayImage::filled(30, 30, 0.1);
        img.fill_rect(12, 14, 3, 3, 0.9);
        let mut pat = GrayImage::filled(3, 3, 0.9);
        pat.set(1, 1, 0.95);
        let m = match_template_pyramid(&img, &pat, &PyramidMatchConfig::default()).unwrap();
        // The bright 3x3 block is the only textured region resembling the
        // pattern; the fallback exact matcher must look there.
        assert!(
            (11..=15).contains(&m.x) && (13..=17).contains(&m.y),
            "found at ({}, {})",
            m.x,
            m.y
        );
    }

    #[test]
    fn pyramid_match_score_close_to_exact_on_textured_image() {
        let img = GrayImage::from_fn(128, 64, |x, y| {
            0.3 + 0.2 * ((x as f32 * 0.3).sin() * (y as f32 * 0.23).cos())
        });
        let pat = img.crop(70, 20, 16, 12).unwrap();
        let exact = match_template(&img, &pat).unwrap();
        let fast = match_template_pyramid(&img, &pat, &PyramidMatchConfig::default()).unwrap();
        assert!(
            fast.score >= exact.score - 0.02,
            "pyramid {} vs exact {}",
            fast.score,
            exact.score
        );
    }

    #[test]
    fn pyramid_config_with_one_level_equals_exact() {
        let (img, blob) = image_with_blob(48, 48, 20, 20);
        let cfg = PyramidMatchConfig {
            max_levels: 1,
            ..Default::default()
        };
        let m = match_template_pyramid(&img, &blob, &cfg).unwrap();
        let exact = match_template(&img, &blob).unwrap();
        assert_eq!((m.x, m.y, m.score), (exact.x, exact.y, exact.score));
    }

    #[test]
    fn centred_mean_survives_large_patterns() {
        // 256x256 (GAN-sized) pattern around 0.7 with a tiny wiggle: an
        // f32 sum over 65536 such pixels drifts the mean by ~1e-5, which
        // decentres every pixel by the same amount. The f64 accumulator
        // keeps the centred pixel sum at f32 rounding level.
        let pat = GrayImage::from_fn(256, 256, |x, y| {
            0.7 + 1e-4 * (((x * 31 + y * 17) % 13) as f32 - 6.0)
        });
        let prepared = CenteredPattern::new(&pat);
        let n = pat.len() as f64;
        let residual = prepared
            .centered
            .pixels()
            .iter()
            .map(|&p| p as f64)
            .sum::<f64>()
            / n;
        assert!(residual.abs() < 2e-7, "mean residual {residual}");
    }

    #[test]
    fn insert_topk_keeps_best() {
        let mut heap = Vec::new();
        for (i, s) in [0.1f32, 0.9, 0.5, 0.7, 0.2].iter().enumerate() {
            insert_topk(
                &mut heap,
                MatchResult {
                    x: i,
                    y: 0,
                    score: *s,
                },
                3,
            );
        }
        let scores: Vec<f32> = heap.iter().map(|m| m.score).collect();
        assert_eq!(scores, vec![0.9, 0.7, 0.5]);
    }

    #[test]
    fn insert_topk_tie_scores_match_push_then_sort() {
        // Ties must keep insertion order and a full list must only be
        // disturbed by a strictly greater score — exactly what the old
        // push-then-stable-sort did. Run both side by side.
        let items = [
            (0usize, 0.5f32),
            (1, 0.7),
            (2, 0.5),
            (3, 0.7),
            (4, 0.4),
            (5, 0.7),
            (6, 0.9),
        ];
        let k = 4;
        let mut heap = Vec::new();
        let mut reference: Vec<MatchResult> = Vec::new();
        for (i, s) in items {
            let item = MatchResult {
                x: i,
                y: 0,
                score: s,
            };
            insert_topk(&mut heap, item, k);
            if reference.len() < k {
                reference.push(item);
                reference.sort_by(|a, b| b.score.total_cmp(&a.score));
            } else if reference.last().is_some_and(|last| item.score > last.score) {
                reference.pop();
                reference.push(item);
                reference.sort_by(|a, b| b.score.total_cmp(&a.score));
            }
        }
        let got: Vec<(usize, f32)> = heap.iter().map(|m| (m.x, m.score)).collect();
        let want: Vec<(usize, f32)> = reference.iter().map(|m| (m.x, m.score)).collect();
        assert_eq!(got, want);
        // Spot-check the tie order: both 0.7s that fit arrived before any
        // displacement, so they sit in arrival order after the 0.9.
        assert_eq!(
            heap.iter().map(|m| m.x).collect::<Vec<_>>(),
            vec![6, 1, 3, 5]
        );
    }

    /// Deterministic texture for the parity tests — a tiny LCG so the
    /// same pixels appear in every environment with no RNG dependency.
    fn lcg_image(w: usize, h: usize, mut state: u64) -> GrayImage {
        GrayImage::from_fn(w, h, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as f32 / 1000.0
        })
    }

    #[test]
    fn row_sweep_bit_identical_to_pearson_at() {
        // The one-pass sweep must reproduce `pearson_at` bit for bit at
        // every placement — same window terms, same dot product, same
        // clamp. Covers odd dims, near-square and skinny patterns.
        for (iw, ih, pw, ph, seed) in [
            (17, 13, 5, 4, 1u64),
            (24, 24, 8, 8, 2),
            (31, 9, 7, 3, 3),
            (12, 29, 3, 11, 4),
            (9, 9, 9, 9, 5),
        ] {
            let img = lcg_image(iw, ih, seed);
            let pat = lcg_image(pw, ph, seed ^ 0xdead_beef);
            let centered = CenteredPattern::new(&pat);
            let sums = ImageSums::new(&img);
            let mut emitted = 0usize;
            ncc_row_sweep(&img, &centered, &sums, |x, y, s| {
                let reference = pearson_at(&img, &centered, x, y, &sums);
                assert!(
                    s.to_bits() == reference.to_bits(),
                    "({iw}x{ih}, {pw}x{ph}) at ({x},{y}): sweep {s} vs pearson {reference}"
                );
                emitted += 1;
            });
            assert_eq!(emitted, (iw - pw + 1) * (ih - ph + 1));
        }
    }

    /// `dot_rows` over every pattern row of the placement `(x, y)`, rows
    /// merged into f64 in row order: the per-placement numerator.
    fn numerator_by_dot_rows(
        img: &GrayImage,
        pattern: &CenteredPattern,
        x: usize,
        y: usize,
    ) -> f64 {
        (0..pattern.h).fold(0.0f64, |num, dy| {
            num + dot_rows(pattern.centered.row(dy), &img.row(y + dy)[x..]) as f64
        })
    }

    fn assert_block_matches_dot_rows<const N: usize>(
        img: &GrayImage,
        pattern: &CenteredPattern,
        y: usize,
    ) {
        for x in 0..=img.width() - pattern.w - (N - 1) {
            let block = numerators_wide::<N>(img, pattern, x, y);
            for (j, num) in block.iter().enumerate() {
                let reference = numerator_by_dot_rows(img, pattern, x + j, y);
                assert_eq!(
                    num.to_bits(),
                    reference.to_bits(),
                    "pw {} block {N} at ({}, {y}): {num} vs {reference}",
                    pattern.w,
                    x + j
                );
            }
        }
    }

    #[test]
    fn wide_kernel_bit_identical_to_dot_rows_for_lengths_1_to_40() {
        // Every row length from 1 to 40 (each `len % 8` tail, zero to five
        // full chunks), every block width, on one and on three rows.
        for pw in 1..=40usize {
            for ph in [1usize, 3] {
                let img = lcg_image(pw + 9, ph + 2, pw as u64);
                let pattern = CenteredPattern::new(&lcg_image(pw, ph, 1000 + pw as u64));
                for y in 0..3 {
                    assert_block_matches_dot_rows::<1>(&img, &pattern, y);
                    assert_block_matches_dot_rows::<2>(&img, &pattern, y);
                    assert_block_matches_dot_rows::<3>(&img, &pattern, y);
                    assert_block_matches_dot_rows::<WIDE_BLOCK>(&img, &pattern, y);
                }
            }
        }
    }

    #[test]
    fn score_run_bit_identical_to_pearson_at_for_every_run_length() {
        // Runs of 1 to 11 placements: full blocks plus each remainder
        // width, from any start column, over flat and textured windows.
        let mut img = lcg_image(60, 14, 3);
        for y in 2..9 {
            for x in 20..44 {
                img.set(x, y, 0.25);
            }
        }
        let sums = ImageSums::new(&img);
        for (pw, ph) in [(8usize, 4usize), (13, 5), (17, 3), (24, 6)] {
            let pattern = CenteredPattern::new(&lcg_image(pw, ph, 77 + pw as u64));
            for y in 0..=img.height() - ph {
                for start in [0usize, 5, 18] {
                    for len in 1..=11usize.min(img.width() - pw + 1 - start) {
                        let mut next = start;
                        let term = |x| window_variance_term(&sums, x, y, pw, ph);
                        score_run(&img, &pattern, y, start..start + len, term, |x, s| {
                            assert_eq!(x, next, "placements come in ascending x");
                            next += 1;
                            let reference = pearson_at(&img, &pattern, x, y, &sums);
                            assert_eq!(s.to_bits(), reference.to_bits(), "{pw}x{ph} at ({x}, {y})");
                        });
                        assert_eq!(next, start + len);
                    }
                }
            }
        }
    }

    fn random_image(w: usize, h: usize, rng: &mut StdRng) -> GrayImage {
        GrayImage::from_fn(w, h, |_, _| rng.gen_range(0.0f32..1.0))
    }

    properties! {
        cases = 24;

        /// Every placement the sweep emits carries `pearson_at`'s exact
        /// bits, over random image and pattern dims on both sides of the
        /// 8-px blocked-row cutoff.
        fn row_sweep_bit_identical_to_scalar_pearson(g) {
            let iw = g.gen_range(8usize..40);
            let ih = g.gen_range(8usize..36);
            let pw = g.gen_range(2usize..10);
            let ph = g.gen_range(2usize..10);
            let seed = g.gen::<u64>();
            assume!(pw <= iw && ph <= ih);
            let mut rng = StdRng::seed_from_u64(seed);
            let img = random_image(iw, ih, &mut rng);
            let pat = random_image(pw, ph, &mut rng);
            let centered = CenteredPattern::new(&pat);
            let sums = ImageSums::new(&img);
            let mut emitted = 0usize;
            let mut mismatch = None;
            ncc_row_sweep(&img, &centered, &sums, |x, y, s| {
                let reference = pearson_at(&img, &centered, x, y, &sums);
                if s.to_bits() != reference.to_bits() && mismatch.is_none() {
                    mismatch = Some((x, y, s, reference));
                }
                emitted += 1;
            });
            ensure_eq!(mismatch, None);
            ensure_eq!(emitted, (iw - pw + 1) * (ih - ph + 1));
        }
    }

    #[test]
    fn row_sweep_flat_regions_score_zero_like_pearson_at() {
        // A flat stripe inside a textured image: the sweep and the scalar
        // path must agree the degenerate windows score exactly 0.0.
        let mut img = lcg_image(20, 16, 7);
        for y in 4..10 {
            for x in 3..15 {
                img.set(x, y, 0.5);
            }
        }
        let pat = lcg_image(4, 4, 11);
        let centered = CenteredPattern::new(&pat);
        let sums = ImageSums::new(&img);
        let mut saw_zero = false;
        ncc_row_sweep(&img, &centered, &sums, |x, y, s| {
            let reference = pearson_at(&img, &centered, x, y, &sums);
            assert_eq!(s.to_bits(), reference.to_bits());
            if x >= 3 && x + 4 <= 15 && y >= 4 && y + 4 <= 10 {
                assert_eq!(s, 0.0, "flat window at ({x},{y})");
                saw_zero = true;
            }
        });
        assert!(saw_zero);
    }
}
