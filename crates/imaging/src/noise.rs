//! Deterministic procedural noise for synthetic industrial textures.
//!
//! `ig-synth` composes these primitives into surface simulacra: value
//! noise for rolled-steel grain, fBm for casting textures, banded patterns
//! for the strip-shaped Product images. Everything is seeded and pure so
//! dataset generation is reproducible across runs and platforms.

use crate::GrayImage;

/// Deterministic integer hash → `[0, 1)` float. SplitMix64 finalizer.
#[inline]
fn hash01(seed: u64, x: i64, y: i64) -> f32 {
    let mut z = seed
        .wrapping_add((x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((y as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 40) as f32 / (1u64 << 24) as f32
}

fn smoothstep(t: f32) -> f32 {
    t * t * (3.0 - 2.0 * t)
}

/// Single-octave value noise at a continuous point with the given lattice
/// `frequency` (lattice cells per pixel). The per-pixel oracle of
/// [`fbm_image`]'s octave pass.
#[cfg(test)]
fn value_noise(seed: u64, x: f32, y: f32, frequency: f32) -> f32 {
    let fx = x * frequency;
    let fy = y * frequency;
    let x0 = fx.floor();
    let y0 = fy.floor();
    let tx = smoothstep(fx - x0);
    let ty = smoothstep(fy - y0);
    let xi = x0 as i64;
    let yi = y0 as i64;
    let v00 = hash01(seed, xi, yi);
    let v10 = hash01(seed, xi + 1, yi);
    let v01 = hash01(seed, xi, yi + 1);
    let v11 = hash01(seed, xi + 1, yi + 1);
    let top = v00 + (v10 - v00) * tx;
    let bot = v01 + (v11 - v01) * tx;
    top + (bot - top) * ty
}

/// Fractional Brownian motion at one point: `octaves` octaves of value
/// noise with per-octave gain 0.5 and lacunarity 2, normalized to
/// `[0, 1]`. The per-pixel oracle of [`fbm_image`].
#[cfg(test)]
fn fbm(seed: u64, x: f32, y: f32, base_frequency: f32, octaves: usize) -> f32 {
    let mut amplitude = 1.0f32;
    let mut frequency = base_frequency;
    let mut total = 0.0f32;
    let mut norm = 0.0f32;
    for octave in 0..octaves.max(1) {
        total += amplitude * value_noise(seed.wrapping_add(octave as u64 * 101), x, y, frequency);
        norm += amplitude;
        amplitude *= 0.5;
        frequency *= 2.0;
    }
    total / norm
}

/// Fill an image with fBm noise mapped to `[lo, hi]`: `octaves` octaves of
/// value noise at pixel centres `(x, y)`, with per-octave gain 0.5 and
/// lacunarity 2, normalized to `[0, 1]` before the mapping.
///
/// Every pixel is bit-identical to evaluating the noise at that pixel
/// alone (the `fbm` oracle in the tests): the same f32 expressions run in
/// the same order, and only the work that does not depend on the pixel is
/// hoisted. Per octave, the column terms (lattice cell and smoothstep
/// weight) are computed once per column, the row terms once per row, and
/// the two lattice rows are hashed and interpolated along x only when the
/// row's lattice cell changes — at the frequencies the generators use
/// that is once every several rows, so a pixel costs a lerp and an add.
/// Octaves accumulate into the image buffer in octave order.
pub fn fbm_image(
    seed: u64,
    width: usize,
    height: usize,
    base_frequency: f32,
    octaves: usize,
    lo: f32,
    hi: f32,
) -> GrayImage {
    let mut img = GrayImage::new(width, height);
    let mut scratch = OctaveScratch::default();
    let mut amplitude = 1.0f32;
    let mut frequency = base_frequency;
    let mut norm = 0.0f32;
    for octave in 0..octaves.max(1) {
        let octave_seed = seed.wrapping_add(octave as u64 * 101);
        scratch.add_octave(&mut img, octave_seed, frequency, amplitude);
        norm += amplitude;
        amplitude *= 0.5;
        frequency *= 2.0;
    }
    img.map_in_place(|total| lo + (hi - lo) * (total / norm));
    img
}

/// Buffers of one value-noise octave, reused across octaves.
#[derive(Debug, Default)]
struct OctaveScratch {
    /// Per column: the lattice cell `xi` and the smoothstep weight `tx`.
    cols: Vec<(i64, f32)>,
    /// The lattice cells the columns read: `xi_min ..` for `cells` cells.
    xi_min: i64,
    cells: usize,
    /// One lattice row's hashes, cell `xi_min` first.
    lattice: Vec<f32>,
    /// Per column: lattice rows `yi` (`top`) and `yi + 1` (`bot`)
    /// interpolated along x.
    top: Vec<f32>,
    bot: Vec<f32>,
}

impl OctaveScratch {
    /// Add `amplitude *` one octave of value noise at `frequency` to every
    /// pixel of `img`.
    fn add_octave(&mut self, img: &mut GrayImage, seed: u64, frequency: f32, amplitude: f32) {
        self.cols.clear();
        self.cols.extend((0..img.width()).map(|x| {
            let fx = x as f32 * frequency;
            let x0 = fx.floor();
            (x0 as i64, smoothstep(fx - x0))
        }));
        self.xi_min = self.cols.iter().map(|c| c.0).min().unwrap_or(0);
        let xi_max = self.cols.iter().map(|c| c.0).max().unwrap_or(0);
        // Cells `xi_min ..= xi_max + 1`: every column reads `xi` and `xi + 1`.
        self.cells = (xi_max - self.xi_min) as usize + 2;
        let mut cached: Option<i64> = None;
        for y in 0..img.height() {
            let fy = y as f32 * frequency;
            let y0 = fy.floor();
            let ty = smoothstep(fy - y0);
            let yi = y0 as i64;
            if cached != Some(yi) {
                if cached == Some(yi.wrapping_sub(1)) {
                    // Row `yi` was the previous cell's bottom row.
                    std::mem::swap(&mut self.top, &mut self.bot);
                } else {
                    self.lerp_row(seed, yi, false);
                }
                self.lerp_row(seed, yi.wrapping_add(1), true);
                cached = Some(yi);
            }
            let lerped = self.top.iter().zip(&self.bot);
            for (px, (&top, &bot)) in img.row_mut(y).iter_mut().zip(lerped) {
                *px += amplitude * (top + (bot - top) * ty);
            }
        }
    }

    /// Hash lattice row `yi` over the cells the columns read, then
    /// interpolate it along x at every column into `bot` or `top`.
    fn lerp_row(&mut self, seed: u64, yi: i64, bottom: bool) {
        let xi_min = self.xi_min;
        self.lattice.clear();
        self.lattice
            .extend((0..self.cells).map(|j| hash01(seed, xi_min + j as i64, yi)));
        let lattice = &self.lattice;
        let out = if bottom { &mut self.bot } else { &mut self.top };
        out.clear();
        out.extend(self.cols.iter().map(|&(xi, tx)| {
            let j = (xi - xi_min) as usize;
            let (v0, v1) = (lattice[j], lattice[j + 1]);
            v0 + (v1 - v0) * tx
        }));
    }
}

/// Per-pixel white noise image in `[lo, hi]`.
pub fn white_noise_image(seed: u64, width: usize, height: usize, lo: f32, hi: f32) -> GrayImage {
    GrayImage::from_fn(width, height, |x, y| {
        lo + (hi - lo) * hash01(seed, x as i64, y as i64)
    })
}

/// Horizontal banding: slowly varying brightness per column, mimicking the
/// strip lighting of industrial line-scan cameras.
pub fn band_image(
    seed: u64,
    width: usize,
    height: usize,
    band_frequency: f32,
    lo: f32,
    hi: f32,
) -> GrayImage {
    // One octave of fBm on a single row is value noise at `y = 0`.
    let band = fbm_image(seed, width, 1, band_frequency, 1, lo, hi);
    GrayImage::from_fn(width, height, |x, _| band.get(x, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ig_check::{ensure, properties};
    use rand::Rng;

    /// The first pixel of `img` whose bits differ from the per-pixel
    /// oracle `lo + (hi - lo) * fbm(..)`, as `(x, y, got, oracle)`.
    fn first_fbm_mismatch(
        img: &GrayImage,
        seed: u64,
        base_frequency: f32,
        octaves: usize,
        (lo, hi): (f32, f32),
    ) -> Option<(usize, usize, f32, f32)> {
        let (w, h) = img.dims();
        (0..h)
            .flat_map(|y| (0..w).map(move |x| (x, y)))
            .map(|(x, y)| {
                let v = fbm(seed, x as f32, y as f32, base_frequency, octaves);
                (x, y, img.get(x, y), lo + (hi - lo) * v)
            })
            .find(|&(_, _, got, oracle)| got.to_bits() != oracle.to_bits())
    }

    /// A side length that is 1 a quarter of the time.
    fn side(g: &mut ig_check::Gen, max: usize) -> usize {
        if g.gen_bool(0.25) {
            1
        } else {
            g.gen_range(1..=max)
        }
    }

    properties! {
        cases = 128;

        /// `fbm_image` carries the per-pixel oracle's exact bits, from
        /// 1x1 images up, at lattice frequencies from one cell per 200 px
        /// to two cells per pixel, for 0 (treated as 1) to 5 octaves.
        fn fbm_image_bit_identical_to_per_pixel_fbm(g) {
            let (w, h) = (side(g, 40), side(g, 40));
            let frequency = g.gen_range(0.005f32.ln()..2.0f32.ln()).exp();
            let octaves = g.gen_range(0usize..=5);
            let seed = g.gen::<u64>();
            let lo = g.gen_range(-1.0f32..1.0);
            let hi = lo + g.gen_range(0.0f32..2.0);
            let img = fbm_image(seed, w, h, frequency, octaves, lo, hi);
            ensure!(img.dims() == (w, h), "dims {:?}", img.dims());
            let mismatch = first_fbm_mismatch(&img, seed, frequency, octaves, (lo, hi));
            ensure!(
                mismatch.is_none(),
                "{w}x{h} f={frequency} octaves={octaves}: {mismatch:?}"
            );
        }
    }

    #[test]
    fn fbm_image_matches_oracle_on_generator_parameters() {
        // The frequency/octave pairs the synthetic generators use, and the
        // band pattern's single octave, on strip- and square-shaped images.
        let params = [
            (0.01, 2),
            (0.015, 2),
            (0.06, 4),
            (0.08, 3),
            (0.15, 3),
            (0.15, 1),
            (0.2, 3),
            (0.8, 1),
        ];
        for (frequency, octaves) in params {
            for (w, h) in [(1, 1), (1, 37), (53, 1), (125, 64), (64, 125), (97, 21)] {
                let img = fbm_image(19, w, h, frequency, octaves, 0.35, 0.55);
                let mismatch = first_fbm_mismatch(&img, 19, frequency, octaves, (0.35, 0.55));
                assert_eq!(mismatch, None, "{w}x{h} f={frequency} octaves={octaves}");
            }
        }
    }

    #[test]
    fn band_image_is_value_noise_along_x() {
        let img = band_image(5, 31, 3, 0.8, -0.04, 0.04);
        for x in 0..31 {
            let oracle = -0.04 + (0.04 - -0.04) * value_noise(5, x as f32, 0.0, 0.8);
            assert_eq!(img.get(x, 2).to_bits(), oracle.to_bits(), "column {x}");
        }
    }

    #[test]
    fn fbm_image_of_empty_dims_is_empty() {
        assert!(fbm_image(1, 0, 5, 0.1, 2, 0.0, 1.0).is_empty());
        assert!(fbm_image(1, 5, 0, 0.1, 2, 0.0, 1.0).is_empty());
    }

    #[test]
    fn noise_is_deterministic() {
        let a = fbm_image(42, 16, 16, 0.2, 3, 0.0, 1.0);
        let b = fbm_image(42, 16, 16, 0.2, 3, 0.0, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = fbm_image(1, 16, 16, 0.2, 3, 0.0, 1.0);
        let b = fbm_image(2, 16, 16, 0.2, 3, 0.0, 1.0);
        assert_ne!(a, b);
    }

    #[test]
    fn values_within_range() {
        let img = fbm_image(7, 32, 32, 0.3, 4, 0.2, 0.8);
        for &p in img.pixels() {
            assert!((0.2..=0.8).contains(&p), "pixel {p}");
        }
        let white = white_noise_image(7, 32, 32, -1.0, 1.0);
        for &p in white.pixels() {
            assert!((-1.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn value_noise_is_continuous() {
        // Neighbouring samples should not jump (smoothstep interpolation).
        let mut max_jump = 0.0f32;
        for i in 0..200 {
            let x = i as f32 * 0.1;
            let a = value_noise(3, x, 5.0, 0.13);
            let b = value_noise(3, x + 0.1, 5.0, 0.13);
            max_jump = max_jump.max((a - b).abs());
        }
        assert!(max_jump < 0.2, "max jump {max_jump}");
    }

    #[test]
    fn white_noise_has_spread() {
        let img = white_noise_image(9, 64, 64, 0.0, 1.0);
        let mean = img.pixels().iter().sum::<f32>() / img.len() as f32;
        let var = img
            .pixels()
            .iter()
            .map(|&p| (p - mean).powi(2))
            .sum::<f32>()
            / img.len() as f32;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
        // Uniform variance is 1/12 ≈ 0.083.
        assert!((var - 1.0 / 12.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn band_image_constant_within_columns() {
        let img = band_image(5, 24, 10, 0.1, 0.0, 1.0);
        for x in 0..24 {
            let first = img.get(x, 0);
            for y in 1..10 {
                assert_eq!(img.get(x, y), first);
            }
        }
    }

    #[test]
    fn fbm_more_octaves_adds_detail() {
        // Higher octave counts increase high-frequency content; compare
        // total variation along a scanline.
        let tv = |oct: usize| {
            let img = fbm_image(11, 128, 1, 0.05, oct, 0.0, 1.0);
            img.row(0)
                .windows(2)
                .map(|w| (w[1] - w[0]).abs())
                .sum::<f32>()
        };
        assert!(tv(5) > tv(1));
    }
}
