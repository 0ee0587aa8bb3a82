//! Gaussian image pyramids (Adelson, Anderson, Bergen, Burt & Ogden, 1984).
//!
//! The paper cites the pyramid method to avoid scanning full-resolution
//! industrial images with every pattern: a match is first localized on a
//! low-resolution level and only the candidate neighbourhoods are rescored
//! at full resolution (Section 5.1).

use crate::filter::{gaussian_blur_with_kernel, gaussian_kernel};
use crate::resize::resize_bilinear;
use crate::GrayImage;

/// Standard deviation of the anti-aliasing blur applied before each
/// decimation step.
const PYRAMID_SIGMA: f32 = 1.0;

/// A Gaussian pyramid: `levels[0]` is the original image, each subsequent
/// level is blurred and downsampled by 2.
#[derive(Debug, Clone)]
pub struct Pyramid {
    levels: Vec<GrayImage>,
}

impl Pyramid {
    /// Build a pyramid with up to `max_levels` levels (including the base).
    /// Construction stops early when a level would drop below
    /// `min_side` pixels on either axis, so every stored level is usable
    /// for matching.
    pub fn build(base: &GrayImage, max_levels: usize, min_side: usize) -> Self {
        let min_side = min_side.max(1);
        let mut levels = vec![base.clone()];
        // Every level is blurred with the same sigma, so the Gaussian taps
        // are computed once and reused across the whole pyramid instead of
        // being reallocated per level (see results/NOTES.md).
        let kernel = gaussian_kernel(PYRAMID_SIGMA);
        while levels.len() < max_levels.max(1) {
            // `levels` starts non-empty and only grows, but the panic-free
            // spelling costs nothing.
            let Some(prev) = levels.last() else { break };
            let (w, h) = prev.dims();
            let (nw, nh) = (w / 2, h / 2);
            if nw < min_side || nh < min_side {
                break;
            }
            let blurred = gaussian_blur_with_kernel(prev, &kernel);
            // Target dims were validated above; if resize still refuses,
            // stop refining instead of tearing the worker down.
            let Ok(down) = resize_bilinear(&blurred, nw, nh) else {
                break;
            };
            levels.push(down);
        }
        Self { levels }
    }

    /// Number of levels, always ≥ 1.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Borrow level `i` (0 = full resolution).
    pub fn level(&self, i: usize) -> &GrayImage {
        &self.levels[i]
    }

    /// Approximate heap footprint of every level's pixel buffer, in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.levels.iter().map(GrayImage::approx_bytes).sum()
    }

    /// Borrow all levels, coarsest last.
    pub fn levels(&self) -> &[GrayImage] {
        &self.levels
    }

    /// Scale factor of level `i` relative to the base (`2^i`).
    pub fn scale(&self, i: usize) -> usize {
        1usize << i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_level_is_original() {
        let img = GrayImage::from_fn(16, 16, |x, y| (x + y) as f32);
        let pyr = Pyramid::build(&img, 3, 4);
        assert_eq!(pyr.level(0), &img);
    }

    #[test]
    fn levels_halve_dimensions() {
        let img = GrayImage::filled(32, 24, 0.5);
        let pyr = Pyramid::build(&img, 4, 2);
        assert_eq!(pyr.num_levels(), 4);
        assert_eq!(pyr.level(1).dims(), (16, 12));
        assert_eq!(pyr.level(2).dims(), (8, 6));
        assert_eq!(pyr.level(3).dims(), (4, 3));
    }

    #[test]
    fn stops_at_min_side() {
        let img = GrayImage::filled(32, 8, 0.5);
        let pyr = Pyramid::build(&img, 10, 4);
        // 8 -> 4 is allowed, 4 -> 2 is below min_side 4.
        assert_eq!(pyr.num_levels(), 2);
        assert_eq!(pyr.level(1).dims(), (16, 4));
    }

    #[test]
    fn single_level_requested() {
        let img = GrayImage::filled(16, 16, 1.0);
        let pyr = Pyramid::build(&img, 1, 1);
        assert_eq!(pyr.num_levels(), 1);
    }

    #[test]
    fn tiny_image_yields_single_level() {
        let img = GrayImage::filled(3, 3, 1.0);
        let pyr = Pyramid::build(&img, 5, 4);
        assert_eq!(pyr.num_levels(), 1);
    }

    #[test]
    fn constant_image_stays_constant_at_every_level() {
        let img = GrayImage::filled(40, 40, 0.3);
        let pyr = Pyramid::build(&img, 4, 2);
        for level in pyr.levels() {
            for &p in level.pixels() {
                assert!((p - 0.3).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn scale_is_power_of_two() {
        let img = GrayImage::filled(64, 64, 0.0);
        let pyr = Pyramid::build(&img, 4, 2);
        assert_eq!(pyr.scale(0), 1);
        assert_eq!(pyr.scale(2), 4);
    }
}
