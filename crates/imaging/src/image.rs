//! Dense `f32` grayscale images and basic raster operations.
//!
//! Pixel values are nominally in `[0, 1]` but nothing enforces it; the
//! augmentation policies (brightness, contrast) intentionally push values
//! outside that range before [`GrayImage::clamp`] brings them back.

use crate::geometry::BBox;
use crate::{ImagingError, Result};

/// A dense grayscale image with `f32` pixels in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl GrayImage {
    /// Creates a `width` x `height` image filled with zeros.
    pub fn new(width: usize, height: usize) -> Self {
        Self {
            width,
            height,
            data: vec![0.0; width * height],
        }
    }

    /// Creates an image filled with a constant value.
    pub fn filled(width: usize, height: usize, value: f32) -> Self {
        Self {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Creates an image from a closure evaluated at every `(x, y)`.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Self {
            width,
            height,
            data,
        }
    }

    /// Wraps an existing row-major buffer. Fails if the length does not
    /// match `width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != width * height {
            return Err(ImagingError::InvalidDimension(format!(
                "buffer length {} != {}x{}",
                data.len(),
                width,
                height
            )));
        }
        Ok(Self {
            width,
            height,
            data,
        })
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// `(width, height)` pair.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Number of pixels.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the image has no pixels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Approximate heap footprint of the pixel buffer, in bytes. Used by
    /// the out-of-core shard budgeter; an estimate, not an accounting.
    #[inline]
    pub fn approx_bytes(&self) -> usize {
        self.data.len() * core::mem::size_of::<f32>()
    }

    /// Borrow the raw row-major pixel buffer.
    #[inline]
    pub fn pixels(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the raw row-major pixel buffer.
    #[inline]
    pub fn pixels_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Pixel at `(x, y)`. Panics when out of bounds (debug-friendly; hot
    /// paths use [`GrayImage::row`] slices instead).
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    /// Pixel at `(x, y)` clamped to the image border (replicate padding).
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> f32 {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Set pixel at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: f32) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x] = value;
    }

    /// Borrow row `y` as a slice.
    #[inline]
    pub fn row(&self, y: usize) -> &[f32] {
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Mutably borrow row `y` as a slice.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [f32] {
        &mut self.data[y * self.width..(y + 1) * self.width]
    }

    /// Bilinearly sample at a continuous coordinate, replicate padding.
    pub fn sample_bilinear(&self, x: f32, y: f32) -> f32 {
        let tx = x - x.floor();
        let ty = y - y.floor();
        let x0 = x.floor() as isize;
        let y0 = y.floor() as isize;
        let p00 = self.get_clamped(x0, y0);
        let p10 = self.get_clamped(x0 + 1, y0);
        let p01 = self.get_clamped(x0, y0 + 1);
        let p11 = self.get_clamped(x0 + 1, y0 + 1);
        let top = p00 + (p10 - p00) * tx;
        let bot = p01 + (p11 - p01) * tx;
        top + (bot - top) * ty
    }

    /// Apply `f` to every pixel in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for p in &mut self.data {
            *p = f(*p);
        }
    }

    /// Return a new image with `f` applied to every pixel.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        let mut out = self.clone();
        out.map_in_place(f);
        out
    }

    /// Clamp every pixel into `[lo, hi]`.
    pub fn clamp(&mut self, lo: f32, hi: f32) {
        self.map_in_place(|p| p.clamp(lo, hi));
    }

    /// Crop the rectangle `(x, y, w, h)` out of the image.
    pub fn crop(&self, x: usize, y: usize, w: usize, h: usize) -> Result<GrayImage> {
        if w == 0 || h == 0 {
            return Err(ImagingError::InvalidDimension(
                "crop with zero dimension".into(),
            ));
        }
        if x + w > self.width || y + h > self.height {
            return Err(ImagingError::OutOfBounds {
                rect: (x, y, w, h),
                image: (self.width, self.height),
            });
        }
        let mut out = GrayImage::new(w, h);
        for dy in 0..h {
            let src = &self.row(y + dy)[x..x + w];
            out.row_mut(dy).copy_from_slice(src);
        }
        Ok(out)
    }

    /// Crop the pixels covered by `bbox` (clipped to the image bounds).
    /// Returns `None` if the clipped box is empty.
    pub fn crop_bbox(&self, bbox: &BBox) -> Option<GrayImage> {
        let clipped = bbox.clip(self.width, self.height)?;
        // `clip` already snapped the box to integral pixel edges.
        self.crop(
            clipped.x.floor() as usize,
            clipped.y.floor() as usize,
            clipped.w.floor() as usize,
            clipped.h.floor() as usize,
        )
        .ok()
    }

    /// Paste `src` with its top-left corner at `(x, y)`, overwriting pixels.
    pub fn paste(&mut self, src: &GrayImage, x: usize, y: usize) -> Result<()> {
        if x + src.width > self.width || y + src.height > self.height {
            return Err(ImagingError::OutOfBounds {
                rect: (x, y, src.width, src.height),
                image: (self.width, self.height),
            });
        }
        for dy in 0..src.height {
            let dst =
                &mut self.data[(y + dy) * self.width + x..(y + dy) * self.width + x + src.width];
            dst.copy_from_slice(src.row(dy));
        }
        Ok(())
    }

    /// Blend `src` onto the image at `(x, y)` with `src` treated as an
    /// additive perturbation weighted by `alpha`, clipping at the borders.
    pub fn blend_add(&mut self, src: &GrayImage, x: isize, y: isize, alpha: f32) {
        for dy in 0..src.height as isize {
            let ty = y + dy;
            if ty < 0 || ty >= self.height as isize {
                continue;
            }
            for dx in 0..src.width as isize {
                let tx = x + dx;
                if tx < 0 || tx >= self.width as isize {
                    continue;
                }
                let idx = ty as usize * self.width + tx as usize;
                self.data[idx] += alpha * src.get(dx as usize, dy as usize);
            }
        }
    }

    /// Draw a filled axis-aligned rectangle.
    pub fn fill_rect(&mut self, x: usize, y: usize, w: usize, h: usize, value: f32) {
        let x1 = (x + w).min(self.width);
        let y1 = (y + h).min(self.height);
        for yy in y.min(self.height)..y1 {
            for p in &mut self.row_mut(yy)[x.min(x1)..x1] {
                *p = value;
            }
        }
    }

    /// Draw a filled disk centred at `(cx, cy)`.
    pub fn fill_disk(&mut self, cx: f32, cy: f32, radius: f32, value: f32) {
        let r2 = radius * radius;
        let x0 = (cx - radius).max(0.0).floor() as usize;
        let y0 = (cy - radius).max(0.0).floor() as usize;
        let x1 = ((cx + radius).ceil() as usize + 1).min(self.width);
        let y1 = ((cy + radius).ceil() as usize + 1).min(self.height);
        for y in y0..y1 {
            for x in x0..x1 {
                let dx = x as f32 - cx;
                let dy = y as f32 - cy;
                if dx * dx + dy * dy <= r2 {
                    self.set(x, y, value);
                }
            }
        }
    }

    /// Draw an anti-aliasing-free thick line segment from `(x0, y0)` to
    /// `(x1, y1)` by stamping disks along the segment.
    pub fn draw_line(&mut self, x0: f32, y0: f32, x1: f32, y1: f32, thickness: f32, value: f32) {
        let dx = x1 - x0;
        let dy = y1 - y0;
        let len = (dx * dx + dy * dy).sqrt().max(1e-6);
        let steps = (len * 2.0).ceil() as usize + 1;
        let radius = (thickness * 0.5).max(0.5);
        for i in 0..steps {
            let t = i as f32 / (steps - 1).max(1) as f32;
            self.fill_disk(x0 + t * dx, y0 + t * dy, radius, value);
        }
    }

    /// Horizontally mirror the image.
    pub fn flip_horizontal(&self) -> GrayImage {
        GrayImage::from_fn(self.width, self.height, |x, y| {
            self.get(self.width - 1 - x, y)
        })
    }

    /// Vertically mirror the image.
    pub fn flip_vertical(&self) -> GrayImage {
        GrayImage::from_fn(self.width, self.height, |x, y| {
            self.get(x, self.height - 1 - y)
        })
    }

    /// Transpose rows and columns.
    pub fn transpose(&self) -> GrayImage {
        GrayImage::from_fn(self.height, self.width, |x, y| self.get(y, x))
    }

    /// Splits the image vertically in half and stacks the two halves,
    /// producing a more square aspect ratio. This mirrors the paper's
    /// preprocessing for the long, thin Product images before feeding CNNs
    /// (Section 6.1). Odd widths drop the middle column.
    pub fn split_and_stack(&self) -> GrayImage {
        let half = self.width / 2;
        if half == 0 {
            return self.clone();
        }
        let mut out = GrayImage::new(half, self.height * 2);
        for y in 0..self.height {
            out.row_mut(y).copy_from_slice(&self.row(y)[..half]);
            out.row_mut(self.height + y)
                .copy_from_slice(&self.row(y)[self.width - half..]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed() {
        let img = GrayImage::new(4, 3);
        assert_eq!(img.dims(), (4, 3));
        assert!(img.pixels().iter().all(|&p| p == 0.0));
    }

    #[test]
    fn from_fn_row_major_layout() {
        let img = GrayImage::from_fn(3, 2, |x, y| (y * 10 + x) as f32);
        assert_eq!(img.pixels(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(img.get(2, 1), 12.0);
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(GrayImage::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(GrayImage::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn get_clamped_replicates_border() {
        let img = GrayImage::from_fn(2, 2, |x, y| (y * 2 + x) as f32);
        assert_eq!(img.get_clamped(-5, -5), 0.0);
        assert_eq!(img.get_clamped(10, 10), 3.0);
        assert_eq!(img.get_clamped(-1, 1), 2.0);
    }

    #[test]
    fn bilinear_sample_interpolates() {
        let img = GrayImage::from_vec(2, 1, vec![0.0, 1.0]).unwrap();
        assert!((img.sample_bilinear(0.5, 0.0) - 0.5).abs() < 1e-6);
        assert!((img.sample_bilinear(0.25, 0.0) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn bilinear_sample_at_integer_is_exact() {
        let img = GrayImage::from_fn(4, 4, |x, y| (x * y) as f32);
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(img.sample_bilinear(x as f32, y as f32), img.get(x, y));
            }
        }
    }

    #[test]
    fn crop_extracts_subimage() {
        let img = GrayImage::from_fn(5, 5, |x, y| (y * 5 + x) as f32);
        let c = img.crop(1, 2, 3, 2).unwrap();
        assert_eq!(c.dims(), (3, 2));
        assert_eq!(c.get(0, 0), 11.0);
        assert_eq!(c.get(2, 1), 18.0);
    }

    #[test]
    fn crop_out_of_bounds_errors() {
        let img = GrayImage::new(4, 4);
        assert!(matches!(
            img.crop(2, 2, 3, 1),
            Err(ImagingError::OutOfBounds { .. })
        ));
        assert!(img.crop(0, 0, 0, 1).is_err());
    }

    #[test]
    fn paste_roundtrips_with_crop() {
        let mut img = GrayImage::new(6, 6);
        let patch = GrayImage::filled(2, 3, 7.0);
        img.paste(&patch, 3, 1).unwrap();
        assert_eq!(img.crop(3, 1, 2, 3).unwrap(), patch);
        assert_eq!(img.get(2, 1), 0.0);
        assert_eq!(img.get(5, 1), 0.0);
    }

    #[test]
    fn paste_out_of_bounds_errors() {
        let mut img = GrayImage::new(4, 4);
        let patch = GrayImage::new(3, 3);
        assert!(img.paste(&patch, 2, 2).is_err());
    }

    #[test]
    fn blend_add_clips_at_border() {
        let mut img = GrayImage::new(3, 3);
        let patch = GrayImage::filled(2, 2, 1.0);
        img.blend_add(&patch, -1, -1, 0.5);
        assert_eq!(img.get(0, 0), 0.5);
        assert_eq!(img.get(1, 1), 0.0);
    }

    #[test]
    fn fill_rect_clips() {
        let mut img = GrayImage::new(4, 4);
        img.fill_rect(2, 2, 10, 10, 1.0);
        assert_eq!(img.get(3, 3), 1.0);
        assert_eq!(img.get(1, 1), 0.0);
    }

    #[test]
    fn fill_disk_covers_center() {
        let mut img = GrayImage::new(9, 9);
        img.fill_disk(4.0, 4.0, 2.0, 1.0);
        assert_eq!(img.get(4, 4), 1.0);
        assert_eq!(img.get(4, 6), 1.0);
        assert_eq!(img.get(0, 0), 0.0);
    }

    #[test]
    fn draw_line_marks_endpoints() {
        let mut img = GrayImage::new(10, 10);
        img.draw_line(1.0, 1.0, 8.0, 8.0, 1.0, 1.0);
        assert_eq!(img.get(1, 1), 1.0);
        assert_eq!(img.get(8, 8), 1.0);
        assert_eq!(img.get(4, 4), 1.0);
        assert_eq!(img.get(9, 0), 0.0);
    }

    #[test]
    fn flips_are_involutions() {
        let img = GrayImage::from_fn(4, 3, |x, y| (y * 4 + x) as f32);
        assert_eq!(img.flip_horizontal().flip_horizontal(), img);
        assert_eq!(img.flip_vertical().flip_vertical(), img);
        assert_eq!(img.transpose().transpose(), img);
    }

    #[test]
    fn split_and_stack_halves_width_doubles_height() {
        let img = GrayImage::from_fn(6, 2, |x, y| (y * 6 + x) as f32);
        let s = img.split_and_stack();
        assert_eq!(s.dims(), (3, 4));
        // Top half is the left half of the original.
        assert_eq!(s.get(0, 0), 0.0);
        assert_eq!(s.get(2, 1), 8.0);
        // Bottom half is the right half.
        assert_eq!(s.get(0, 2), 3.0);
        assert_eq!(s.get(2, 3), 11.0);
    }

    #[test]
    fn split_and_stack_on_width_one_is_identity() {
        let img = GrayImage::filled(1, 5, 0.3);
        assert_eq!(img.split_and_stack(), img);
    }

    #[test]
    fn map_and_clamp() {
        let mut img = GrayImage::from_vec(2, 1, vec![-0.5, 1.5]).unwrap();
        img.clamp(0.0, 1.0);
        assert_eq!(img.pixels(), &[0.0, 1.0]);
        let doubled = img.map(|p| p * 2.0);
        assert_eq!(doubled.pixels(), &[0.0, 2.0]);
    }
}
