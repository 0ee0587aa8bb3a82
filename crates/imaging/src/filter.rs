//! Separable blurs and generic 2-D convolution.
//!
//! The Gaussian pyramid low-passes before decimation; the synthetic dataset
//! generators blur defect stamps to soften edges.

use crate::GrayImage;

/// Separable Gaussian blur with standard deviation `sigma`, replicate
/// padding. `sigma <= 0` is the identity.
pub fn gaussian_blur(src: &GrayImage, sigma: f32) -> GrayImage {
    if sigma <= 0.0 || src.is_empty() {
        return src.clone();
    }
    gaussian_blur_with_kernel(src, &gaussian_kernel(sigma))
}

/// Separable Gaussian blur with a precomputed kernel from
/// [`gaussian_kernel`]. Callers that blur many images with the same sigma
/// (the pyramid builder blurs every level) hoist the kernel allocation out
/// of their loop and pass it here, so no level allocates its own taps.
///
/// Each output sums its taps in kernel order, starting from `0.0`, with
/// replicate padding — bit-identical to convolving the rows, transposing,
/// convolving the rows again and transposing back (the oracle in the
/// tests). Both passes run tap by tap over whole rows, so the inner loops
/// are straight multiply-adds over contiguous pixels: the row pass reads
/// each row through a copy padded with its `r` end pixels at each side,
/// and the column pass adds whole clamped source rows into each output
/// row, with no transpose.
pub fn gaussian_blur_with_kernel(src: &GrayImage, kernel: &[f32]) -> GrayImage {
    if kernel.len() <= 1 || src.is_empty() {
        return src.clone();
    }
    let (w, h) = src.dims();
    let r = kernel.len() / 2;
    let mut horizontal = GrayImage::new(w, h);
    let mut padded = Vec::with_capacity(w + kernel.len() - 1);
    for y in 0..h {
        let row = src.row(y);
        let (first, last) = (row.first().copied(), row.last().copied());
        padded.clear();
        padded.extend(std::iter::repeat_n(first.unwrap_or(0.0), r));
        padded.extend_from_slice(row);
        padded.extend(std::iter::repeat_n(
            last.unwrap_or(0.0),
            kernel.len() - 1 - r,
        ));
        let out = horizontal.row_mut(y);
        for (k, &kv) in kernel.iter().enumerate() {
            for (o, &p) in out.iter_mut().zip(&padded[k..]) {
                *o += kv * p;
            }
        }
    }
    let mut out = GrayImage::new(w, h);
    for y in 0..h {
        let acc = out.row_mut(y);
        for (k, &kv) in kernel.iter().enumerate() {
            let sy = (y + k).saturating_sub(r).min(h - 1);
            for (o, &p) in acc.iter_mut().zip(horizontal.row(sy)) {
                *o += kv * p;
            }
        }
    }
    out
}

/// Build a normalized 1-D Gaussian kernel covering ±3 sigma.
pub fn gaussian_kernel(sigma: f32) -> Vec<f32> {
    let radius = (3.0 * sigma).max(1.0).ceil() as usize;
    let mut kernel = Vec::with_capacity(2 * radius + 1);
    let denom = 2.0 * sigma * sigma;
    for i in -(radius as isize)..=(radius as isize) {
        kernel.push((-((i * i) as f32) / denom).exp());
    }
    let sum: f32 = kernel.iter().sum();
    for k in &mut kernel {
        *k /= sum;
    }
    kernel
}

/// Convolve each row with a 1-D kernel (odd length), replicate padding.
/// With a transpose on either side of the second pass, the oracle of
/// [`gaussian_blur_with_kernel`].
#[cfg(test)]
fn convolve_rows(src: &GrayImage, kernel: &[f32]) -> GrayImage {
    let (w, h) = src.dims();
    let radius = kernel.len() / 2;
    let mut out = GrayImage::new(w, h);
    for y in 0..h {
        let row = src.row(y);
        for (x, out_px) in out.row_mut(y).iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for (k, &kv) in kernel.iter().enumerate() {
                let sx = (x as isize + k as isize - radius as isize).clamp(0, w as isize - 1);
                acc += kv * row[sx as usize];
            }
            *out_px = acc;
        }
    }
    out
}

/// Full 2-D convolution with an arbitrary odd-sized kernel, replicate
/// padding. `kernel` is row-major `kw` x `kh`. Used by the GOGGLES filter
/// bank substitute.
pub fn convolve2d(src: &GrayImage, kernel: &[f32], kw: usize, kh: usize) -> GrayImage {
    assert_eq!(kernel.len(), kw * kh, "kernel buffer length mismatch");
    let (w, h) = src.dims();
    let rx = (kw / 2) as isize;
    let ry = (kh / 2) as isize;
    GrayImage::from_fn(w, h, |x, y| {
        let mut acc = 0.0f32;
        for ky in 0..kh {
            for kx in 0..kw {
                let sx = x as isize + kx as isize - rx;
                let sy = y as isize + ky as isize - ry;
                acc += kernel[ky * kw + kx] * src.get_clamped(sx, sy);
            }
        }
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ig_check::{ensure, properties};
    use rand::Rng;

    /// The transpose blur `gaussian_blur_with_kernel` replaced: row pass,
    /// transpose, row pass, transpose back.
    fn transposed_blur(src: &GrayImage, kernel: &[f32]) -> GrayImage {
        let horizontal = convolve_rows(src, kernel);
        convolve_rows(&horizontal.transpose(), kernel).transpose()
    }

    /// The first pixel whose bits differ, as `(x, y, got, oracle)`.
    fn first_bit_mismatch(got: &GrayImage, oracle: &GrayImage) -> Option<(usize, usize, f32, f32)> {
        let (w, h) = oracle.dims();
        (0..h)
            .flat_map(|y| (0..w).map(move |x| (x, y)))
            .map(|(x, y)| (x, y, got.get(x, y), oracle.get(x, y)))
            .find(|&(_, _, a, b)| a.to_bits() != b.to_bits())
    }

    properties! {
        cases = 128;

        /// The row-wise blur carries the transpose oracle's exact bits,
        /// for sigma 0.3 to 2.5 (3- to 17-tap kernels) on images from 1x1
        /// up, including kernels wider and taller than the image.
        fn blur_bit_identical_to_transpose_oracle(g) {
            let side = |g: &mut ig_check::Gen| {
                if g.gen_bool(0.25) { g.gen_range(1usize..4) } else { g.gen_range(1usize..48) }
            };
            let (w, h) = (side(g), side(g));
            let sigma = g.gen_range(0.3f32..=2.5);
            let img = GrayImage::from_fn(w, h, |_, _| g.gen_range(-1.0f32..2.0));
            let kernel = gaussian_kernel(sigma);
            let got = gaussian_blur_with_kernel(&img, &kernel);
            ensure!(got.dims() == (w, h), "dims {:?}", got.dims());
            let mismatch = first_bit_mismatch(&got, &transposed_blur(&img, &kernel));
            ensure!(mismatch.is_none(), "{w}x{h} sigma={sigma}: {mismatch:?}");
        }
    }

    #[test]
    fn blur_matches_transpose_oracle_on_every_small_size() {
        let kernels = [0.3f32, 0.5, 0.6, 1.0, 2.5].map(gaussian_kernel);
        for w in 1..=20 {
            for h in 1..=20 {
                let img = GrayImage::from_fn(w, h, |x, y| ((x * 7 + y * 13) % 11) as f32 / 10.0);
                for kernel in &kernels {
                    let got = gaussian_blur_with_kernel(&img, kernel);
                    let mismatch = first_bit_mismatch(&got, &transposed_blur(&img, kernel));
                    assert_eq!(mismatch, None, "{w}x{h}, {} taps", kernel.len());
                }
            }
        }
    }

    #[test]
    fn gaussian_kernel_normalized_and_symmetric() {
        for sigma in [0.5, 1.0, 2.5] {
            let k = gaussian_kernel(sigma);
            assert_eq!(k.len() % 2, 1);
            let sum: f32 = k.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            for i in 0..k.len() / 2 {
                assert!((k[i] - k[k.len() - 1 - i]).abs() < 1e-6);
            }
            // Peak at the center.
            let mid = k.len() / 2;
            assert!(k.iter().all(|&v| v <= k[mid] + 1e-9));
        }
    }

    #[test]
    fn gaussian_blur_sigma_zero_is_identity() {
        let img = GrayImage::from_fn(4, 4, |x, _| x as f32);
        assert_eq!(gaussian_blur(&img, 0.0), img);
    }

    #[test]
    fn gaussian_blur_preserves_mean() {
        let img = GrayImage::from_fn(16, 16, |x, y| ((x * 7 + y * 13) % 5) as f32);
        let blurred = gaussian_blur(&img, 1.2);
        let mean = |im: &GrayImage| im.pixels().iter().sum::<f32>() / im.len() as f32;
        // Replicate padding keeps mass approximately constant.
        assert!((mean(&img) - mean(&blurred)).abs() < 0.1);
    }

    #[test]
    fn gaussian_blur_reduces_variance() {
        let img = GrayImage::from_fn(32, 32, |x, y| if (x + y) % 2 == 0 { 1.0 } else { 0.0 });
        let blurred = gaussian_blur(&img, 1.5);
        let var = |im: &GrayImage| {
            let m = im.pixels().iter().sum::<f32>() / im.len() as f32;
            im.pixels().iter().map(|&p| (p - m).powi(2)).sum::<f32>() / im.len() as f32
        };
        assert!(var(&blurred) < var(&img) * 0.1);
    }

    #[test]
    fn blur_with_precomputed_kernel_matches_blur() {
        let img = GrayImage::from_fn(17, 11, |x, y| ((x * 3 + y * 5) % 7) as f32);
        let kernel = gaussian_kernel(1.0);
        assert_eq!(
            gaussian_blur_with_kernel(&img, &kernel),
            gaussian_blur(&img, 1.0)
        );
    }

    #[test]
    fn blur_with_trivial_kernel_is_identity() {
        let img = GrayImage::from_fn(4, 4, |x, y| (x + y) as f32);
        assert_eq!(gaussian_blur_with_kernel(&img, &[1.0]), img);
        assert_eq!(gaussian_blur_with_kernel(&img, &[]), img);
    }

    #[test]
    fn convolve2d_identity_kernel() {
        let img = GrayImage::from_fn(6, 5, |x, y| (x * y) as f32);
        let identity = [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0];
        assert_eq!(convolve2d(&img, &identity, 3, 3), img);
    }

    #[test]
    fn convolve2d_sobel_detects_vertical_edge() {
        let img = GrayImage::from_fn(8, 8, |x, _| if x < 4 { 0.0 } else { 1.0 });
        let sobel_x = [-1.0, 0.0, 1.0, -2.0, 0.0, 2.0, -1.0, 0.0, 1.0];
        let edges = convolve2d(&img, &sobel_x, 3, 3);
        // Strong response at the edge column, none far away.
        assert!(edges.get(3, 4).abs() > 1.0 || edges.get(4, 4).abs() > 1.0);
        assert!(edges.get(1, 4).abs() < 1e-6);
        assert!(edges.get(6, 4).abs() < 1e-6);
    }

    #[test]
    fn blur_on_single_pixel_image() {
        let img = GrayImage::filled(1, 1, 0.5);
        assert!((gaussian_blur(&img, 2.0).get(0, 0) - 0.5).abs() < 1e-6);
    }
}
