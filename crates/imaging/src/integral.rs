//! Integral images (summed-area tables).
//!
//! The NCC denominator needs `sum I(x+x', y+y')^2` over every candidate
//! window; a squared integral image turns that into four lookups per
//! window, which is what makes brute-force matching tolerable and the
//! pyramid refinement cheap.

use crate::GrayImage;

/// A summed-area table over `f64` accumulators (f32 accumulates too much
/// error on megapixel industrial images).
#[derive(Debug, Clone)]
pub struct IntegralImage {
    width: usize,
    height: usize,
    /// `(width + 1) x (height + 1)` table with a zero first row/column.
    table: Vec<f64>,
}

impl IntegralImage {
    /// Approximate heap footprint of the accumulator table, in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.table.len() * core::mem::size_of::<f64>()
    }

    /// Build the integral image of `f(pixel)` for each pixel — pass
    /// `|p| p` for plain sums or `|p| p * p` for squared sums.
    pub fn build(src: &GrayImage, f: impl Fn(f32) -> f64) -> Self {
        let (w, h) = src.dims();
        let mut table = vec![0.0f64; table_len(w, h)];
        fill(src, f, &mut table);
        Self {
            width: w,
            height: h,
            table,
        }
    }

    /// Integral image of raw pixel values.
    pub fn of_values(src: &GrayImage) -> Self {
        Self::build(src, value)
    }

    /// Integral image of squared pixel values.
    pub fn of_squares(src: &GrayImage) -> Self {
        Self::build(src, square)
    }

    /// Source image width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Source image height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Fill `out[x]` with [`IntegralImage::window_sum`]`(x, y, w, h)` for
    /// every valid placement `x` in one pass over the two table rows the
    /// whole output row shares. Bit-identical to the per-placement calls
    /// (same four lookups combined in the same order), but the reads are
    /// two contiguous slices instead of scattered indexing — this is what
    /// lets the dense NCC sweep walk each output row once.
    ///
    /// `out` should hold `width - w + 1` slots; extra slots are left
    /// untouched. Out-of-range `(y, w, h)` writes nothing.
    pub fn row_window_sums(&self, y: usize, w: usize, h: usize, out: &mut [f64]) {
        self.view().row_window_sums(y, w, h, out);
    }

    /// Sum over the window with top-left `(x, y)` and extent `(w, h)`.
    /// The window must fit inside the image.
    #[inline]
    pub fn window_sum(&self, x: usize, y: usize, w: usize, h: usize) -> f64 {
        self.view().window_sum(x, y, w, h)
    }

    fn view(&self) -> TableRef<'_> {
        TableRef::new(self.width, self.height, &self.table)
    }
}

/// The accumulator of a value table.
pub(crate) fn value(p: f32) -> f64 {
    p as f64
}

/// The accumulator of a square table.
pub(crate) fn square(p: f32) -> f64 {
    (p as f64) * (p as f64)
}

/// Slots of the summed-area table of a `w × h` source: `(w + 1) × (h + 1)`,
/// with a zero first row and column.
pub(crate) fn table_len(w: usize, h: usize) -> usize {
    (w + 1) * (h + 1)
}

/// Write the summed-area table of `f(pixel)` into `table`, which holds
/// [`table_len`] zeroed slots for `src`.
pub(crate) fn fill(src: &GrayImage, f: impl Fn(f32) -> f64, table: &mut [f64]) {
    let (w, h) = src.dims();
    let stride = w + 1;
    for y in 0..h {
        let row = src.row(y);
        let mut row_sum = 0.0f64;
        for x in 0..w {
            row_sum += f(row[x]);
            table[(y + 1) * stride + (x + 1)] = table[y * stride + (x + 1)] + row_sum;
        }
    }
}

/// The lookups of [`IntegralImage`] over a summed-area table borrowed from
/// any buffer, such as one that holds a whole pyramid's tables.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TableRef<'a> {
    width: usize,
    height: usize,
    table: &'a [f64],
}

impl<'a> TableRef<'a> {
    /// The table of a `width × height` source; `table` holds
    /// [`table_len`] slots.
    pub(crate) fn new(width: usize, height: usize, table: &'a [f64]) -> Self {
        Self {
            width,
            height,
            table,
        }
    }

    /// See [`IntegralImage::row_window_sums`].
    pub(crate) fn row_window_sums(&self, y: usize, w: usize, h: usize, out: &mut [f64]) {
        let stride = self.width + 1;
        if y + h > self.height || w > self.width {
            debug_assert!(false, "row_window_sums out of range");
            return;
        }
        let (Some(top), Some(bot)) = (
            self.table.get(y * stride..y * stride + stride),
            self.table.get((y + h) * stride..(y + h) * stride + stride),
        ) else {
            return;
        };
        let (Some(top_w), Some(bot_w)) = (top.get(w..), bot.get(w..)) else {
            return;
        };
        // window_sum computes d - b - c + a; keep that exact order.
        for ((((o, a), b), c), d) in out.iter_mut().zip(top).zip(top_w).zip(bot).zip(bot_w) {
            *o = *d - *b - *c + *a;
        }
    }

    /// See [`IntegralImage::window_sum`].
    #[inline]
    pub(crate) fn window_sum(&self, x: usize, y: usize, w: usize, h: usize) -> f64 {
        debug_assert!(x + w <= self.width && y + h <= self.height);
        let stride = self.width + 1;
        let a = self.table[y * stride + x];
        let b = self.table[y * stride + (x + w)];
        let c = self.table[(y + h) * stride + x];
        let d = self.table[(y + h) * stride + (x + w)];
        d - b - c + a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_sum(img: &GrayImage, x: usize, y: usize, w: usize, h: usize) -> f64 {
        let mut acc = 0.0f64;
        for yy in y..y + h {
            for xx in x..x + w {
                acc += img.get(xx, yy) as f64;
            }
        }
        acc
    }

    #[test]
    fn window_sum_matches_naive() {
        let img = GrayImage::from_fn(7, 5, |x, y| ((x * 3 + y * 5) % 11) as f32 * 0.25);
        let integral = IntegralImage::of_values(&img);
        for (x, y, w, h) in [(0, 0, 7, 5), (0, 0, 1, 1), (2, 1, 3, 3), (6, 4, 1, 1)] {
            let fast = integral.window_sum(x, y, w, h);
            let slow = naive_sum(&img, x, y, w, h);
            assert!((fast - slow).abs() < 1e-6, "window ({x},{y},{w},{h})");
        }
    }

    #[test]
    fn squared_integral_matches_naive() {
        let img = GrayImage::from_fn(6, 6, |x, y| (x as f32 - y as f32) * 0.5);
        let integral = IntegralImage::of_squares(&img);
        let mut slow = 0.0f64;
        for y in 1..4 {
            for x in 2..5 {
                let p = img.get(x, y) as f64;
                slow += p * p;
            }
        }
        assert!((integral.window_sum(2, 1, 3, 3) - slow).abs() < 1e-6);
    }

    #[test]
    fn full_window_equals_total() {
        let img = GrayImage::filled(10, 4, 0.5);
        let integral = IntegralImage::of_values(&img);
        assert!((integral.window_sum(0, 0, 10, 4) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn zero_extent_window_is_zero() {
        let img = GrayImage::filled(4, 4, 1.0);
        let integral = IntegralImage::of_values(&img);
        assert_eq!(integral.window_sum(2, 2, 0, 0), 0.0);
    }
}
