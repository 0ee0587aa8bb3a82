//! A minimal dense `f32` matrix. Row-major; shaped as `rows x cols`.
//!
//! Batches are laid out as `batch_size x features`, weights as
//! `in_features x out_features`, so a forward pass is a plain `x.matmul(w)`.
//!
//! The three products, [`Matrix::matmul`], [`Matrix::matmul_tn`] and
//! [`Matrix::matmul_nt`], run one register-tiled kernel over strided views
//! of their factors. It computes one output row at a time, `32` (or, for a
//! short last run, `16`) outputs per tile, held in eight (four) SSE-width
//! accumulator vectors.
//!
//! * **Lane axis.** The tile's lanes run along `j` once the output has at
//!   least 16 columns or is at least as wide as it is tall, and along `i`
//!   otherwise. So a `480 x h` hidden layer with `h < 16` fills its lanes
//!   with rows instead of padding 2–8 columns out to a tile.
//! * **Packing.** The lane operand is read as panels of tile width per
//!   `t`. A run of contiguous lanes that fills the tile is read where it
//!   lies; any other run is packed and zero-padded. A broadcast row is
//!   read where it lies when contiguous, and gathered otherwise.
//! * **Bit contract.** Each output starts at `+0.0` and adds `a(i,t)·b(t,j)`
//!   for ascending `t`, one rounding per product and per sum, exactly as
//!   the plain loops do. A product whose left factor is `±0.0` is skipped
//!   by `matmul` and `matmul_tn`. When the left factor is the broadcast
//!   operand, the row is compacted to its nonzero terms, in order, so ReLU
//!   outputs do less work. When it runs along the lanes, the product is
//!   masked to `+0.0`. That mask moves no bit: adding `+0.0` leaves every
//!   sum but `-0.0` as it is, and a sum that starts at `+0.0` is never
//!   `-0.0` in round-to-nearest. For the same reason a row whose broadcast
//!   factors are all finite skips the mask: there a `±0.0` lane already
//!   yields a `±0.0` product.

use rand::Rng;

/// Dense row-major `f32` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Wrap a row-major buffer. Panics when the length does not match.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix buffer length mismatch");
        Self { rows, cols, data }
    }

    /// A single-row matrix from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Stack row vectors into a matrix. Panics on ragged input.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let Some(first) = rows.first() else {
            return Self::zeros(0, 0);
        };
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Glorot/Xavier-uniform initialization, the paper-era default for
    /// sigmoid/tanh MLPs.
    pub fn xavier(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        Self::from_fn(rows, cols, |_, _| rng.gen_range(-limit..=limit))
    }

    /// He-uniform initialization for ReLU networks.
    pub fn he(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let limit = (6.0 / rows as f32).sqrt();
        Self::from_fn(rows, cols, |_, _| rng.gen_range(-limit..=limit))
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Approximate heap footprint of the element buffer, in bytes. Used
    /// by the out-of-core shard budgeter to size feature-matrix shards.
    #[inline]
    pub fn approx_bytes(&self) -> usize {
        self.data.len() * core::mem::size_of::<f32>()
    }

    /// Element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self * other` (`rows x cols` · `cols x k` → `rows x k`).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        product(
            Operand::new(&self.data, self.cols, 1),
            Operand::new(&other.data, other.cols, 1),
            (self.rows, self.cols, other.cols),
            true,
        )
    }

    /// `self^T * other` without materializing the transpose.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn shape mismatch");
        product(
            Operand::new(&self.data, 1, self.cols),
            Operand::new(&other.data, other.cols, 1),
            (self.cols, self.rows, other.cols),
            true,
        )
    }

    /// `self * other^T` without materializing the transpose.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt shape mismatch");
        product(
            Operand::new(&self.data, self.cols, 1),
            Operand::new(&other.data, 1, other.cols),
            (self.rows, self.cols, other.rows),
            false,
        )
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// In-place elementwise map.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Elementwise `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Elementwise product (Hadamard) into a new matrix.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| a * b)
                .collect(),
        }
    }

    /// Add a row vector to every row (bias broadcast).
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Column sums (used for bias gradients).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
        sums
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum::<f32>().sqrt()
    }

    /// Select a subset of rows by index (clones the data).
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
        out
    }
}

/// Lanes in a full register tile: eight SSE vectors of accumulators.
const WIDE: usize = 32;
/// Lanes in the tile that covers a last run of at most this many lanes,
/// and the output width from which the lanes run along `j`.
const NARROW: usize = 16;

/// A read-only strided view of a row-major buffer: element `(x, y)` sits
/// at `data[x * sx + y * sy]`. For a left factor `(x, y)` is `(i, t)`, for
/// a right factor `(t, j)`.
#[derive(Clone, Copy)]
struct Operand<'a> {
    data: &'a [f32],
    sx: usize,
    sy: usize,
}

impl<'a> Operand<'a> {
    fn new(data: &'a [f32], sx: usize, sy: usize) -> Self {
        Self { data, sx, sy }
    }

    /// The same buffer with its two axes swapped.
    fn swapped(self) -> Self {
        Self::new(self.data, self.sy, self.sx)
    }

    /// Pack lanes `l0 .. l0 + width` of `self(t, l)` into `panel`, `w`
    /// values per `t`, leaving the rest of each `w`-run as it is.
    fn pack(&self, l0: usize, width: usize, panel: &mut [f32], w: usize) {
        if self.sy == 1 {
            for (t, tile) in panel.chunks_exact_mut(w).enumerate() {
                tile[..width].copy_from_slice(&self.data[t * self.sx + l0..][..width]);
            }
        } else {
            for q in 0..width {
                let src = self.data[(l0 + q) * self.sy..].iter().step_by(self.sx);
                for (tile, &v) in panel.chunks_exact_mut(w).zip(src) {
                    tile[q] = v;
                }
            }
        }
    }
}

/// Exactly `+0.0` or `-0.0`: a left factor whose term the products with
/// a zero skip leave out.
#[inline(always)]
fn is_zero(v: f32) -> bool {
    // ig-lint: allow(float-eq) -- exact-zero test by design: a term whose
    // left factor is ±0.0 contributes nothing, whatever the right factor
    v == 0.0
}

/// The one kernel behind [`Matrix::matmul`], [`Matrix::matmul_tn`] and
/// [`Matrix::matmul_nt`] (see the module docs): `out[i][j] = Σ_t
/// a(i,t)·b(t,j)` for an `m x k` left factor `a` and a `k x n` right factor
/// `b`. With `skip_zeros` a term whose left factor is `±0.0` adds nothing,
/// even when its right factor is infinite or NaN.
fn product(
    a: Operand<'_>,
    b: Operand<'_>,
    (m, k, n): (usize, usize, usize),
    skip_zeros: bool,
) -> Matrix {
    let mut out = Matrix::zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        return out;
    }
    // lanes(t, l) and rows(r, t) over the output's lane and broadcast axes.
    let lanes_on_j = n >= m || n >= NARROW;
    let (lanes, rows, n_lanes, n_rows) = if lanes_on_j {
        (b, a, n, m)
    } else {
        (a.swapped(), b.swapped(), m, n)
    };
    // Runs of WIDE lanes, the last one NARROW when it fits. `at` is the
    // run's offset in `packed`, or `None` when it is read in place.
    let mut panels = Vec::with_capacity(n_lanes.div_ceil(NARROW));
    let mut packed_len = 0;
    let mut l0 = 0;
    while l0 < n_lanes {
        let w = if n_lanes - l0 > NARROW { WIDE } else { NARROW };
        let at = if lanes.sy == 1 && l0 + w <= n_lanes {
            None
        } else {
            packed_len += k * w;
            Some(packed_len - k * w)
        };
        panels.push((l0, w, at));
        l0 += w;
    }
    let mut packed = vec![0.0f32; packed_len];
    for &(l0, w, at) in &panels {
        if let Some(at) = at {
            let width = w.min(n_lanes - l0);
            lanes.pack(l0, width, &mut packed[at..at + k * w], w);
        }
    }
    let sparse = skip_zeros && lanes_on_j;
    let mut gathered = vec![0.0f32; if rows.sy == 1 { 0 } else { k }];
    let mut terms = if sparse {
        vec![(0u32, 0.0f32); k]
    } else {
        Vec::new()
    };
    for r in 0..n_rows {
        // A contiguous broadcast row is read where it lies.
        let src = &rows.data[r * rows.sx..];
        let row: &[f32] = if rows.sy == 1 {
            &src[..k]
        } else {
            for (d, &v) in gathered.iter_mut().zip(src.iter().step_by(rows.sy)) {
                *d = v;
            }
            &gathered
        };
        let mut kept = None;
        if sparse && row.iter().any(|&x| is_zero(x)) {
            // Branch-free compaction: every term is written, and only a
            // nonzero one advances the cursor.
            let mut count = 0;
            for (t, &x) in (0u32..).zip(row) {
                terms[count] = (t, x);
                count += usize::from(!is_zero(x));
            }
            kept = Some(&terms[..count]);
        }
        // A lane's masked product differs from the plain one only when
        // its broadcast factor is infinite or NaN: with a finite `x`, a
        // `±0.0` lane value gives a `±0.0` product, which leaves the sum
        // as it is.
        let mask = skip_zeros && !lanes_on_j && !row.iter().all(|x| x.is_finite());
        for &(l0, w, at) in &panels {
            let (data, stride) = match at {
                Some(at) => (&packed[at..], w),
                None => (&lanes.data[l0..], lanes.sx),
            };
            let tile = Tile {
                data,
                stride,
                row,
                kept,
                mask,
            };
            let width = w.min(n_lanes - l0);
            let mut store = |acc: &[f32]| {
                if lanes_on_j {
                    let dst = &mut out.row_mut(r)[l0..l0 + width];
                    // A fixed-length copy for the common full tile.
                    if width == WIDE {
                        dst.copy_from_slice(&acc[..WIDE]);
                    } else {
                        dst.copy_from_slice(&acc[..width]);
                    }
                } else {
                    let column = out.data[l0 * n + r..].iter_mut().step_by(n);
                    for (o, &v) in column.zip(acc) {
                        *o = v;
                    }
                }
            };
            if w == WIDE {
                store(&tile.sum::<WIDE>());
            } else {
                store(&tile.sum::<NARROW>());
            }
        }
    }
    out
}

/// One `1 x W` register tile of outputs: lane `q` sums `x·y_t[q]` for
/// ascending `t`, where `y_t` is the `W` lanes at `data[t * stride..]`.
struct Tile<'a> {
    data: &'a [f32],
    stride: usize,
    /// Every term's broadcast factor `x`, by `t`.
    row: &'a [f32],
    /// Only these `(t, x)` terms, when the row skips its zeros.
    kept: Option<&'a [(u32, f32)]>,
    /// Mask to `+0.0` the term of a lane whose `y_t` is `±0.0`.
    mask: bool,
}

impl Tile<'_> {
    #[inline(always)]
    fn sum<const W: usize>(&self) -> [f32; W] {
        match self.kept {
            Some(kept) => {
                let mut acc = [0.0f32; W];
                for &(t, x) in kept {
                    let at = t as usize * self.stride;
                    for (o, &y) in acc.iter_mut().zip(&self.data[at..at + W]) {
                        *o += x * y;
                    }
                }
                acc
            }
            None if self.mask => self.dense::<W, true>(),
            None => self.dense::<W, false>(),
        }
    }

    /// Every term of `row`; the accumulators stay local so that they live
    /// in registers.
    #[inline(always)]
    fn dense<const W: usize, const MASK: bool>(&self) -> [f32; W] {
        let mut acc = [0.0f32; W];
        for (t, &x) in self.row.iter().enumerate() {
            let at = t * self.stride;
            for (o, &y) in acc.iter_mut().zip(&self.data[at..at + W]) {
                let p = x * y;
                *o += if MASK && is_zero(y) { 0.0 } else { p };
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let eye = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&eye), a);
        assert_eq!(eye.matmul(&a), a);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::xavier(4, 3, &mut rng);
        let b = Matrix::xavier(4, 5, &mut rng);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        assert_eq!(fast.shape(), slow.shape());
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::xavier(3, 4, &mut rng);
        let b = Matrix::xavier(5, 4, &mut rng);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        assert_eq!(fast.shape(), slow.shape());
        // Finite factors: the zero skip `matmul` adds moves no bit.
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn transpose_is_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_row_broadcast() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row_broadcast(&[1.0, 2.0, 3.0]);
        assert_eq!(a.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(a.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn col_sums_known() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.col_sums(), vec![4.0, 6.0]);
    }

    #[test]
    fn hadamard_and_axpy() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[4.0, 10.0, 18.0]);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c.as_slice(), &[9.0, 12.0, 15.0]);
    }

    #[test]
    fn xavier_init_within_limit() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = Matrix::xavier(10, 20, &mut rng);
        let limit = (6.0f32 / 30.0).sqrt();
        for &v in w.as_slice() {
            assert!(v.abs() <= limit + 1e-6);
        }
        // Not all identical.
        assert!(w.as_slice().iter().any(|&v| v != w.get(0, 0)));
    }

    #[test]
    fn select_rows_clones_in_order() {
        let a = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let s = a.select_rows(&[3, 0]);
        assert_eq!(s.row(0), &[6.0, 7.0]);
        assert_eq!(s.row(1), &[0.0, 1.0]);
    }

    #[test]
    fn from_rows_stacks() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn frobenius_norm_known() {
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }
}
