//! Small convolutional networks with manual backpropagation.
//!
//! These power the paper's self-learning and transfer-learning baselines
//! and end models (VGG-19, MobileNetV2, ResNet50 — Section 6.1), scaled to
//! CPU as MiniVGG / MiniMobileNet / MiniResNet in `ig-baselines`. The
//! building blocks here are generic: standard and depthwise convolutions,
//! 2x2 max pooling, global average pooling, residual wrappers and a dense
//! head, each carrying its own Adam state.
//!
//! A layer keeps no state between calls. [`Layer::forward`] takes `&self`
//! and hands back, with its output, a [`Tape`]: the input it was given
//! and, for a [`Residual`] block, its inner layers' tapes.
//! [`Layer::backward`] consumes that tape, recomputing what it needs from
//! the taped input (ReLU's mask, max pooling's argmax), so it can only
//! follow the forward pass that made the tape, and inference
//! ([`Cnn::predict`]) drops each tape as soon as it is made.
//!
//! Tensors are NCHW `f32`. Shapes are validated at layer boundaries with
//! panics (programmer errors), not `Result`s.

use crate::activation::softmax_rows;
use crate::matrix::Matrix;
use crate::optim::Adam;
use rand::Rng;

/// A dense NCHW tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor4 {
    /// Batch size.
    pub n: usize,
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
    data: Vec<f32>,
}

impl Tensor4 {
    /// Zero tensor.
    pub fn zeros(n: usize, c: usize, h: usize, w: usize) -> Self {
        Self {
            n,
            c,
            h,
            w,
            data: vec![0.0; n * c * h * w],
        }
    }

    /// Wrap a buffer; panics when the length mismatches.
    pub fn from_vec(n: usize, c: usize, h: usize, w: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), n * c * h * w, "tensor buffer length mismatch");
        Self { n, c, h, w, data }
    }

    /// Flat element index of `(n, c, y, x)`.
    #[inline]
    pub fn idx(&self, n: usize, c: usize, y: usize, x: usize) -> usize {
        ((n * self.c + c) * self.h + y) * self.w + x
    }

    /// Element access.
    #[inline]
    pub fn get(&self, n: usize, c: usize, y: usize, x: usize) -> f32 {
        self.data[self.idx(n, c, y, x)]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, n: usize, c: usize, y: usize, x: usize, v: f32) {
        let i = self.idx(n, c, y, x);
        self.data[i] = v;
    }

    /// Raw buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Channel-spatial shape `(c, h, w)`.
    pub fn chw(&self) -> (usize, usize, usize) {
        (self.c, self.h, self.w)
    }

    /// View batch as a `(n, c*h*w)` matrix (clones the data).
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_vec(self.n, self.c * self.h * self.w, self.data.clone())
    }
}

/// Parameter block with Adam state shared by all parametric layers.
#[derive(Debug, Clone)]
struct Param {
    value: Vec<f32>,
    grad: Vec<f32>,
    adam: Adam,
}

impl Param {
    fn new(value: Vec<f32>, lr: f32) -> Self {
        let len = value.len();
        Self {
            value,
            grad: vec![0.0; len],
            adam: Adam::new(lr),
        }
    }

    fn step(&mut self) {
        self.adam.step(&mut self.value, &self.grad);
        self.grad.iter_mut().for_each(|g| *g = 0.0);
    }
}

/// What a layer's forward pass hands its backward pass: the layer's input
/// and, for a container such as [`Residual`], the tapes of its inner
/// layers in order.
#[derive(Debug)]
pub struct Tape {
    input: Tensor4,
    inner: Vec<Tape>,
}

impl Tape {
    fn leaf(input: Tensor4) -> Self {
        Self {
            input,
            inner: Vec::new(),
        }
    }
}

/// A network layer with training state.
pub trait Layer: std::fmt::Debug {
    /// Forward pass; returns the output and the tape `backward` consumes.
    fn forward(&self, x: Tensor4) -> (Tensor4, Tape);
    /// Backward pass given the tape of the matching forward pass and the
    /// output gradient; returns the input gradient and accumulates
    /// parameter gradients internally.
    fn backward(&mut self, tape: Tape, dy: &Tensor4) -> Tensor4;
    /// Apply one Adam step to the layer's parameters (if any) and clear
    /// the accumulated gradients.
    fn update(&mut self);
    /// Output `(c, h, w)` for a given input shape.
    fn out_shape(&self, input: (usize, usize, usize)) -> (usize, usize, usize);
}

/// Run `layers` in order on `x`; returns the output and each layer's tape.
fn run_stack(layers: &[Box<dyn Layer>], x: Tensor4) -> (Tensor4, Vec<Tape>) {
    let mut tapes = Vec::with_capacity(layers.len());
    let mut y = x;
    for layer in layers {
        let (out, tape) = layer.forward(y);
        tapes.push(tape);
        y = out;
    }
    (y, tapes)
}

/// Backpropagate `dy` through `layers` in reverse, consuming the tapes
/// [`run_stack`] returned for them.
fn back_stack(layers: &mut [Box<dyn Layer>], tapes: Vec<Tape>, dy: Tensor4) -> Tensor4 {
    let mut g = dy;
    for (layer, tape) in layers.iter_mut().zip(tapes).rev() {
        g = layer.backward(tape, &g);
    }
    g
}

/// Standard 2-D convolution with square kernels.
#[derive(Debug)]
pub struct Conv2d {
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    // Weights laid out [out_c][in_c][k][k].
    weights: Param,
    bias: Param,
}

impl Conv2d {
    /// He-initialized convolution.
    pub fn new(
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        lr: f32,
        rng: &mut impl Rng,
    ) -> Self {
        let fan_in = (in_c * k * k) as f32;
        let limit = (6.0 / fan_in).sqrt();
        let weights: Vec<f32> = (0..out_c * in_c * k * k)
            .map(|_| rng.gen_range(-limit..=limit))
            .collect();
        Self {
            in_c,
            out_c,
            k,
            stride,
            pad,
            weights: Param::new(weights, lr),
            bias: Param::new(vec![0.0; out_c], lr),
        }
    }

    #[inline]
    fn widx(&self, oc: usize, ic: usize, ky: usize, kx: usize) -> usize {
        ((oc * self.in_c + ic) * self.k + ky) * self.k + kx
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h + 2 * self.pad - self.k) / self.stride + 1,
            (w + 2 * self.pad - self.k) / self.stride + 1,
        )
    }
}

impl Layer for Conv2d {
    fn forward(&self, x: Tensor4) -> (Tensor4, Tape) {
        assert_eq!(x.c, self.in_c, "conv input channel mismatch");
        let (oh, ow) = self.out_hw(x.h, x.w);
        let mut out = Tensor4::zeros(x.n, self.out_c, oh, ow);
        for n in 0..x.n {
            for oc in 0..self.out_c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = self.bias.value[oc];
                        for ic in 0..self.in_c {
                            for ky in 0..self.k {
                                let iy = (oy * self.stride + ky) as isize - self.pad as isize;
                                if iy < 0 || iy >= x.h as isize {
                                    continue;
                                }
                                for kx in 0..self.k {
                                    let ix = (ox * self.stride + kx) as isize - self.pad as isize;
                                    if ix < 0 || ix >= x.w as isize {
                                        continue;
                                    }
                                    acc += self.weights.value[self.widx(oc, ic, ky, kx)]
                                        * x.get(n, ic, iy as usize, ix as usize);
                                }
                            }
                        }
                        out.set(n, oc, oy, ox, acc);
                    }
                }
            }
        }
        (out, Tape::leaf(x))
    }

    fn backward(&mut self, tape: Tape, dy: &Tensor4) -> Tensor4 {
        let x = tape.input;
        let mut dx = Tensor4::zeros(x.n, x.c, x.h, x.w);
        for n in 0..x.n {
            for oc in 0..self.out_c {
                for oy in 0..dy.h {
                    for ox in 0..dy.w {
                        let g = dy.get(n, oc, oy, ox);
                        // ig-lint: allow(float-eq) -- sparsity fast path:
                        // skipping exactly-zero gradients is sound for any value
                        if g == 0.0 {
                            continue;
                        }
                        self.bias.grad[oc] += g;
                        for ic in 0..self.in_c {
                            for ky in 0..self.k {
                                let iy = (oy * self.stride + ky) as isize - self.pad as isize;
                                if iy < 0 || iy >= x.h as isize {
                                    continue;
                                }
                                for kx in 0..self.k {
                                    let ix = (ox * self.stride + kx) as isize - self.pad as isize;
                                    if ix < 0 || ix >= x.w as isize {
                                        continue;
                                    }
                                    let xi = x.get(n, ic, iy as usize, ix as usize);
                                    let wi = self.widx(oc, ic, ky, kx);
                                    self.weights.grad[wi] += g * xi;
                                    let di = dx.idx(n, ic, iy as usize, ix as usize);
                                    dx.as_mut_slice()[di] += g * self.weights.value[wi];
                                }
                            }
                        }
                    }
                }
            }
        }
        dx
    }

    fn update(&mut self) {
        self.weights.step();
        self.bias.step();
    }

    fn out_shape(&self, input: (usize, usize, usize)) -> (usize, usize, usize) {
        let (_, h, w) = input;
        let (oh, ow) = self.out_hw(h, w);
        (self.out_c, oh, ow)
    }
}

/// Depthwise 3x3-style convolution: one kernel per channel (the core of
/// MobileNet's depthwise-separable blocks).
#[derive(Debug)]
pub struct DepthwiseConv2d {
    channels: usize,
    k: usize,
    stride: usize,
    pad: usize,
    weights: Param, // [channels][k][k]
    bias: Param,
}

impl DepthwiseConv2d {
    /// He-initialized depthwise convolution.
    pub fn new(
        channels: usize,
        k: usize,
        stride: usize,
        pad: usize,
        lr: f32,
        rng: &mut impl Rng,
    ) -> Self {
        let limit = (6.0 / (k * k) as f32).sqrt();
        let weights: Vec<f32> = (0..channels * k * k)
            .map(|_| rng.gen_range(-limit..=limit))
            .collect();
        Self {
            channels,
            k,
            stride,
            pad,
            weights: Param::new(weights, lr),
            bias: Param::new(vec![0.0; channels], lr),
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h + 2 * self.pad - self.k) / self.stride + 1,
            (w + 2 * self.pad - self.k) / self.stride + 1,
        )
    }
}

impl Layer for DepthwiseConv2d {
    fn forward(&self, x: Tensor4) -> (Tensor4, Tape) {
        assert_eq!(x.c, self.channels, "depthwise channel mismatch");
        let (oh, ow) = self.out_hw(x.h, x.w);
        let mut out = Tensor4::zeros(x.n, x.c, oh, ow);
        for n in 0..x.n {
            for c in 0..x.c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = self.bias.value[c];
                        for ky in 0..self.k {
                            let iy = (oy * self.stride + ky) as isize - self.pad as isize;
                            if iy < 0 || iy >= x.h as isize {
                                continue;
                            }
                            for kx in 0..self.k {
                                let ix = (ox * self.stride + kx) as isize - self.pad as isize;
                                if ix < 0 || ix >= x.w as isize {
                                    continue;
                                }
                                acc += self.weights.value[(c * self.k + ky) * self.k + kx]
                                    * x.get(n, c, iy as usize, ix as usize);
                            }
                        }
                        out.set(n, c, oy, ox, acc);
                    }
                }
            }
        }
        (out, Tape::leaf(x))
    }

    fn backward(&mut self, tape: Tape, dy: &Tensor4) -> Tensor4 {
        let x = tape.input;
        let mut dx = Tensor4::zeros(x.n, x.c, x.h, x.w);
        for n in 0..x.n {
            for c in 0..x.c {
                for oy in 0..dy.h {
                    for ox in 0..dy.w {
                        let g = dy.get(n, c, oy, ox);
                        // ig-lint: allow(float-eq) -- sparsity fast path:
                        // skipping exactly-zero gradients is sound for any value
                        if g == 0.0 {
                            continue;
                        }
                        self.bias.grad[c] += g;
                        for ky in 0..self.k {
                            let iy = (oy * self.stride + ky) as isize - self.pad as isize;
                            if iy < 0 || iy >= x.h as isize {
                                continue;
                            }
                            for kx in 0..self.k {
                                let ix = (ox * self.stride + kx) as isize - self.pad as isize;
                                if ix < 0 || ix >= x.w as isize {
                                    continue;
                                }
                                let wi = (c * self.k + ky) * self.k + kx;
                                self.weights.grad[wi] += g * x.get(n, c, iy as usize, ix as usize);
                                let di = dx.idx(n, c, iy as usize, ix as usize);
                                dx.as_mut_slice()[di] += g * self.weights.value[wi];
                            }
                        }
                    }
                }
            }
        }
        dx
    }

    fn update(&mut self) {
        self.weights.step();
        self.bias.step();
    }

    fn out_shape(&self, input: (usize, usize, usize)) -> (usize, usize, usize) {
        let (c, h, w) = input;
        let (oh, ow) = self.out_hw(h, w);
        (c, oh, ow)
    }
}

/// Elementwise ReLU.
#[derive(Debug, Default)]
pub struct ReluLayer;

impl ReluLayer {
    /// New ReLU layer.
    pub fn new() -> Self {
        Self
    }
}

impl Layer for ReluLayer {
    fn forward(&self, x: Tensor4) -> (Tensor4, Tape) {
        let mut out = x.clone();
        for v in out.as_mut_slice() {
            let pos = *v > 0.0;
            if !pos {
                *v = 0.0;
            }
        }
        (out, Tape::leaf(x))
    }

    fn backward(&mut self, tape: Tape, dy: &Tensor4) -> Tensor4 {
        let mut dx = dy.clone();
        for (v, &x) in dx.as_mut_slice().iter_mut().zip(tape.input.as_slice()) {
            let keep = x > 0.0;
            if !keep {
                *v = 0.0;
            }
        }
        dx
    }

    fn update(&mut self) {}

    fn out_shape(&self, input: (usize, usize, usize)) -> (usize, usize, usize) {
        input
    }
}

/// 2x2 max pooling with stride 2. Odd trailing rows/columns are dropped.
#[derive(Debug, Default)]
pub struct MaxPool2;

impl MaxPool2 {
    /// New pooling layer.
    pub fn new() -> Self {
        Self
    }

    /// The maximum of the window under output cell `(n, c, oy, ox)` and its
    /// flat index in `x`. The scan keeps the first of equal values, and a
    /// window with nothing above `-inf` reports index 0.
    fn window_max(x: &Tensor4, n: usize, c: usize, oy: usize, ox: usize) -> (f32, usize) {
        let mut best = f32::NEG_INFINITY;
        let mut best_idx = 0usize;
        for dy in 0..2 {
            for dx in 0..2 {
                let idx = x.idx(n, c, oy * 2 + dy, ox * 2 + dx);
                let v = x.as_slice()[idx];
                if v > best {
                    best = v;
                    best_idx = idx;
                }
            }
        }
        (best, best_idx)
    }
}

impl Layer for MaxPool2 {
    fn forward(&self, x: Tensor4) -> (Tensor4, Tape) {
        let oh = x.h / 2;
        let ow = x.w / 2;
        assert!(oh > 0 && ow > 0, "max pool on sub-2px map");
        let mut out = Tensor4::zeros(x.n, x.c, oh, ow);
        for n in 0..x.n {
            for c in 0..x.c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        out.set(n, c, oy, ox, Self::window_max(&x, n, c, oy, ox).0);
                    }
                }
            }
        }
        (out, Tape::leaf(x))
    }

    fn backward(&mut self, tape: Tape, dy: &Tensor4) -> Tensor4 {
        let x = tape.input;
        let mut dx = Tensor4::zeros(x.n, x.c, x.h, x.w);
        for n in 0..x.n {
            for c in 0..x.c {
                for oy in 0..x.h / 2 {
                    for ox in 0..x.w / 2 {
                        let idx = Self::window_max(&x, n, c, oy, ox).1;
                        dx.as_mut_slice()[idx] += dy.get(n, c, oy, ox);
                    }
                }
            }
        }
        dx
    }

    fn update(&mut self) {}

    fn out_shape(&self, input: (usize, usize, usize)) -> (usize, usize, usize) {
        let (c, h, w) = input;
        (c, h / 2, w / 2)
    }
}

/// Global average pooling: `(n, c, h, w)` → `(n, c, 1, 1)`.
#[derive(Debug, Default)]
pub struct GlobalAvgPool;

impl GlobalAvgPool {
    /// New GAP layer.
    pub fn new() -> Self {
        Self
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&self, x: Tensor4) -> (Tensor4, Tape) {
        let mut out = Tensor4::zeros(x.n, x.c, 1, 1);
        let area = (x.h * x.w) as f32;
        for n in 0..x.n {
            for c in 0..x.c {
                let mut acc = 0.0f32;
                for y in 0..x.h {
                    for xx in 0..x.w {
                        acc += x.get(n, c, y, xx);
                    }
                }
                out.set(n, c, 0, 0, acc / area);
            }
        }
        (out, Tape::leaf(x))
    }

    fn backward(&mut self, tape: Tape, dy: &Tensor4) -> Tensor4 {
        let (n, c, h, w) = (tape.input.n, tape.input.c, tape.input.h, tape.input.w);
        let mut dx = Tensor4::zeros(n, c, h, w);
        let inv_area = 1.0 / (h * w) as f32;
        for ni in 0..n {
            for ci in 0..c {
                let g = dy.get(ni, ci, 0, 0) * inv_area;
                for y in 0..h {
                    for x in 0..w {
                        dx.set(ni, ci, y, x, g);
                    }
                }
            }
        }
        dx
    }

    fn update(&mut self) {}

    fn out_shape(&self, input: (usize, usize, usize)) -> (usize, usize, usize) {
        (input.0, 1, 1)
    }
}

/// Fully-connected head on a `(n, c, 1, 1)` tensor: channels → features.
#[derive(Debug)]
pub struct DenseLayer {
    in_f: usize,
    out_f: usize,
    weights: Param, // in_f x out_f row-major
    bias: Param,
}

impl DenseLayer {
    /// Xavier-initialized dense layer.
    pub fn new(in_f: usize, out_f: usize, lr: f32, rng: &mut impl Rng) -> Self {
        let limit = (6.0 / (in_f + out_f) as f32).sqrt();
        let weights: Vec<f32> = (0..in_f * out_f)
            .map(|_| rng.gen_range(-limit..=limit))
            .collect();
        Self {
            in_f,
            out_f,
            weights: Param::new(weights, lr),
            bias: Param::new(vec![0.0; out_f], lr),
        }
    }
}

impl Layer for DenseLayer {
    fn forward(&self, x: Tensor4) -> (Tensor4, Tape) {
        let feat = x.c * x.h * x.w;
        assert_eq!(feat, self.in_f, "dense head input size mismatch");
        let mut out = Tensor4::zeros(x.n, self.out_f, 1, 1);
        for n in 0..x.n {
            let xin = &x.as_slice()[n * feat..(n + 1) * feat];
            for o in 0..self.out_f {
                let mut acc = self.bias.value[o];
                for (i, &xv) in xin.iter().enumerate() {
                    acc += self.weights.value[i * self.out_f + o] * xv;
                }
                out.set(n, o, 0, 0, acc);
            }
        }
        (out, Tape::leaf(x))
    }

    fn backward(&mut self, tape: Tape, dy: &Tensor4) -> Tensor4 {
        let x = tape.input;
        let feat = self.in_f;
        let mut dx = Tensor4::zeros(x.n, x.c, x.h, x.w);
        for n in 0..x.n {
            let xin = &x.as_slice()[n * feat..(n + 1) * feat];
            for o in 0..self.out_f {
                let g = dy.get(n, o, 0, 0);
                // ig-lint: allow(float-eq) -- sparsity fast path:
                // skipping exactly-zero gradients is sound for any value
                if g == 0.0 {
                    continue;
                }
                self.bias.grad[o] += g;
                for (i, &xv) in xin.iter().enumerate() {
                    self.weights.grad[i * self.out_f + o] += g * xv;
                    dx.as_mut_slice()[n * feat + i] += g * self.weights.value[i * self.out_f + o];
                }
            }
        }
        dx
    }

    fn update(&mut self) {
        self.weights.step();
        self.bias.step();
    }

    fn out_shape(&self, _input: (usize, usize, usize)) -> (usize, usize, usize) {
        (self.out_f, 1, 1)
    }
}

/// Residual wrapper: `y = inner(x) + x`. Inner layers must preserve shape.
#[derive(Debug)]
pub struct Residual {
    inner: Vec<Box<dyn Layer>>,
}

impl Residual {
    /// Wrap a shape-preserving stack of layers with an identity skip.
    pub fn new(inner: Vec<Box<dyn Layer>>) -> Self {
        Self { inner }
    }
}

impl Layer for Residual {
    fn forward(&self, x: Tensor4) -> (Tensor4, Tape) {
        let (mut y, inner) = run_stack(&self.inner, x.clone());
        assert_eq!(
            (y.c, y.h, y.w),
            (x.c, x.h, x.w),
            "residual inner stack must preserve shape"
        );
        for (o, &i) in y.as_mut_slice().iter_mut().zip(x.as_slice()) {
            *o += i;
        }
        (y, Tape { input: x, inner })
    }

    fn backward(&mut self, tape: Tape, dy: &Tensor4) -> Tensor4 {
        let mut g = back_stack(&mut self.inner, tape.inner, dy.clone());
        for (gi, &dyi) in g.as_mut_slice().iter_mut().zip(dy.as_slice()) {
            *gi += dyi;
        }
        g
    }

    fn update(&mut self) {
        for layer in &mut self.inner {
            layer.update();
        }
    }

    fn out_shape(&self, input: (usize, usize, usize)) -> (usize, usize, usize) {
        input
    }
}

/// A sequential CNN classifier with a softmax cross-entropy objective.
#[derive(Debug)]
pub struct Cnn {
    layers: Vec<Box<dyn Layer>>,
    num_classes: usize,
}

impl Cnn {
    /// Build from a layer stack whose final output is `(n, classes, 1, 1)`.
    pub fn new(layers: Vec<Box<dyn Layer>>, num_classes: usize) -> Self {
        Self {
            layers,
            num_classes,
        }
    }

    /// Number of classes in the head.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The head's output as a `(n, classes)` matrix.
    fn logits(&self, y: &Tensor4) -> Matrix {
        assert_eq!(y.c * y.h * y.w, self.num_classes, "head output mismatch");
        y.to_matrix()
    }

    /// Forward to logits as a `(n, classes)` matrix.
    pub fn forward_logits(&self, x: &Tensor4) -> Matrix {
        let y = self
            .layers
            .iter()
            .fold(x.clone(), |y, layer| layer.forward(y).0);
        self.logits(&y)
    }

    /// Softmax probabilities per row.
    pub fn predict_proba(&self, x: &Tensor4) -> Matrix {
        softmax_rows(&self.forward_logits(x))
    }

    /// Argmax class prediction.
    pub fn predict(&self, x: &Tensor4) -> Vec<usize> {
        let logits = self.forward_logits(x);
        (0..logits.rows())
            .map(|r| {
                logits
                    .row(r)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// One optimization step on a minibatch; returns the batch loss.
    pub fn train_batch(&mut self, x: &Tensor4, classes: &[usize]) -> f32 {
        assert_eq!(x.n, classes.len(), "batch label count mismatch");
        let (y, tapes) = run_stack(&self.layers, x.clone());
        let logits = self.logits(&y);
        let probs = softmax_rows(&logits);
        let n = x.n as f32;
        let mut loss = 0.0f32;
        let mut grad = probs.clone();
        for (r, &cls) in classes.iter().enumerate() {
            assert!(cls < self.num_classes, "class index out of range");
            loss += -(probs.get(r, cls).max(1e-12)).ln();
            let row = grad.row_mut(r);
            row[cls] -= 1.0;
            for v in row.iter_mut() {
                *v /= n;
            }
        }
        let dy = Tensor4::from_vec(x.n, self.num_classes, 1, 1, grad.as_slice().to_vec());
        back_stack(&mut self.layers, tapes, dy);
        for layer in &mut self.layers {
            layer.update();
        }
        loss / n
    }

    /// Replace the last `tail_layers` layers with freshly initialized ones
    /// — the fine-tuning entry point for the transfer-learning baseline
    /// (keep the convolutional trunk, re-learn the head). The caller is
    /// responsible for updating [`Cnn::set_num_classes`] when the new head
    /// changes the output width.
    pub fn reset_tail(&mut self, tail_layers: usize, make: impl FnOnce() -> Vec<Box<dyn Layer>>) {
        let keep = self.layers.len().saturating_sub(tail_layers);
        self.layers.truncate(keep);
        self.layers.extend(make());
    }

    /// Update the class count after swapping the head with
    /// [`Cnn::reset_tail`].
    pub fn set_num_classes(&mut self, classes: usize) {
        self.num_classes = classes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tensor_from(n: usize, c: usize, h: usize, w: usize, f: impl Fn(usize) -> f32) -> Tensor4 {
        let data = (0..n * c * h * w).map(f).collect();
        Tensor4::from_vec(n, c, h, w, data)
    }

    #[test]
    fn tensor_index_roundtrip() {
        let t = tensor_from(2, 3, 4, 5, |i| i as f32);
        for n in 0..2 {
            for c in 0..3 {
                for y in 0..4 {
                    for x in 0..5 {
                        let idx = t.idx(n, c, y, x);
                        assert_eq!(t.get(n, c, y, x), t.as_slice()[idx]);
                    }
                }
            }
        }
    }

    #[test]
    fn tensor_to_matrix_flattens_rows_per_sample() {
        let t = tensor_from(2, 1, 2, 2, |i| i as f32);
        let m = t.to_matrix();
        assert_eq!(m.shape(), (2, 4));
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "tensor buffer length mismatch")]
    fn tensor_from_vec_rejects_bad_length() {
        let _ = Tensor4::from_vec(1, 1, 2, 2, vec![0.0; 3]);
    }

    #[test]
    fn cnn_predict_proba_rows_are_distributions() {
        let mut rng = StdRng::seed_from_u64(40);
        let cnn = mini_smoke_cnn(&mut rng);
        let x = tensor_from(3, 1, 8, 8, |i| (i % 9) as f32 * 0.1);
        let p = cnn.predict_proba(&x);
        assert_eq!(p.shape(), (3, 2));
        for r in 0..3 {
            let sum: f32 = p.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    fn mini_smoke_cnn(rng: &mut StdRng) -> Cnn {
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new(1, 2, 3, 1, 1, 0.01, rng)),
            Box::new(ReluLayer::new()),
            Box::new(GlobalAvgPool::new()),
            Box::new(DenseLayer::new(2, 2, 0.01, rng)),
        ];
        Cnn::new(layers, 2)
    }

    #[test]
    fn conv_identity_kernel_preserves_image() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, 0.01, &mut rng);
        // Set kernel to identity (center = 1).
        conv.weights.value.iter_mut().for_each(|w| *w = 0.0);
        conv.weights.value[4] = 1.0;
        conv.bias.value[0] = 0.0;
        let x = tensor_from(1, 1, 5, 5, |i| i as f32 * 0.1);
        let (y, _) = conv.forward(x.clone());
        assert_eq!(y.chw(), (1, 5, 5));
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn conv_output_shape_with_stride_and_pad() {
        let mut rng = StdRng::seed_from_u64(1);
        let conv = Conv2d::new(3, 8, 3, 2, 1, 0.01, &mut rng);
        assert_eq!(conv.out_shape((3, 32, 32)), (8, 16, 16));
        let conv2 = Conv2d::new(3, 4, 5, 1, 0, 0.01, &mut rng);
        assert_eq!(conv2.out_shape((3, 32, 32)), (4, 28, 28));
    }

    #[test]
    fn conv_gradient_check() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv2d::new(2, 2, 3, 1, 1, 0.01, &mut rng);
        let x = tensor_from(1, 2, 4, 4, |i| ((i * 7) % 5) as f32 * 0.2 - 0.4);
        // Loss = 0.5 * sum(y^2) → dy = y.
        let loss_of = |conv: &Conv2d, x: &Tensor4| {
            let (y, _) = conv.forward(x.clone());
            0.5 * y.as_slice().iter().map(|&v| v * v).sum::<f32>()
        };
        let (y, tape) = conv.forward(x.clone());
        let dx = conv.backward(tape, &y);
        let eps = 1e-3f32;
        // Check a few weight gradients.
        for wi in [0usize, 5, 11, 17, 23, 35] {
            let analytic = conv.weights.grad[wi];
            conv.weights.value[wi] += eps;
            let lp = loss_of(&conv, &x);
            conv.weights.value[wi] -= 2.0 * eps;
            let lm = loss_of(&conv, &x);
            conv.weights.value[wi] += eps;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 2e-2,
                "weight {wi}: {analytic} vs {numeric}"
            );
        }
        // Check a few input gradients.
        for xi in [0usize, 7, 15, 22, 31] {
            let analytic = dx.as_slice()[xi];
            let mut xp = x.clone();
            xp.as_mut_slice()[xi] += eps;
            let lp = loss_of(&conv, &xp);
            xp.as_mut_slice()[xi] -= 2.0 * eps;
            let lm = loss_of(&conv, &xp);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 2e-2,
                "input {xi}: {analytic} vs {numeric}"
            );
        }
    }

    #[test]
    fn depthwise_gradient_check() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = DepthwiseConv2d::new(2, 3, 1, 1, 0.01, &mut rng);
        let x = tensor_from(1, 2, 4, 4, |i| ((i * 3) % 7) as f32 * 0.1 - 0.3);
        let loss_of = |conv: &DepthwiseConv2d, x: &Tensor4| {
            let (y, _) = conv.forward(x.clone());
            0.5 * y.as_slice().iter().map(|&v| v * v).sum::<f32>()
        };
        let (y, tape) = conv.forward(x.clone());
        let _ = conv.backward(tape, &y);
        let eps = 1e-3f32;
        for wi in [0usize, 4, 9, 13, 17] {
            let analytic = conv.weights.grad[wi];
            conv.weights.value[wi] += eps;
            let lp = loss_of(&conv, &x);
            conv.weights.value[wi] -= 2.0 * eps;
            let lm = loss_of(&conv, &x);
            conv.weights.value[wi] += eps;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 2e-2,
                "weight {wi}: {analytic} vs {numeric}"
            );
        }
    }

    #[test]
    fn maxpool_forward_and_routing() {
        let x = Tensor4::from_vec(
            1,
            1,
            4,
            4,
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
        );
        let mut pool = MaxPool2::new();
        let (y, tape) = pool.forward(x);
        assert_eq!(y.as_slice(), &[4.0, 8.0, 12.0, 16.0]);
        let dy = Tensor4::from_vec(1, 1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let dx = pool.backward(tape, &dy);
        // Gradient goes only to the max positions.
        assert_eq!(dx.get(0, 0, 1, 1), 1.0);
        assert_eq!(dx.get(0, 0, 1, 3), 2.0);
        assert_eq!(dx.get(0, 0, 3, 1), 3.0);
        assert_eq!(dx.get(0, 0, 3, 3), 4.0);
        assert_eq!(dx.as_slice().iter().filter(|&&v| v != 0.0).count(), 4);
    }

    #[test]
    fn maxpool_drops_odd_edges() {
        let x = Tensor4::zeros(1, 1, 5, 7);
        let (y, _) = MaxPool2::new().forward(x);
        assert_eq!((y.h, y.w), (2, 3));
    }

    #[test]
    fn gap_averages_and_backprops_uniformly() {
        let x = tensor_from(1, 2, 2, 2, |i| i as f32);
        let mut gap = GlobalAvgPool::new();
        let (y, tape) = gap.forward(x);
        assert!((y.get(0, 0, 0, 0) - 1.5).abs() < 1e-6);
        assert!((y.get(0, 1, 0, 0) - 5.5).abs() < 1e-6);
        let dy = Tensor4::from_vec(1, 2, 1, 1, vec![4.0, 8.0]);
        let dx = gap.backward(tape, &dy);
        assert!(dx.as_slice()[..4].iter().all(|&v| (v - 1.0).abs() < 1e-6));
        assert!(dx.as_slice()[4..].iter().all(|&v| (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn relu_masks_gradient() {
        let x = Tensor4::from_vec(1, 1, 1, 4, vec![-1.0, 2.0, -3.0, 4.0]);
        let mut relu = ReluLayer::new();
        let (y, tape) = relu.forward(x);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
        let dy = Tensor4::from_vec(1, 1, 1, 4, vec![1.0, 1.0, 1.0, 1.0]);
        let dx = relu.backward(tape, &dy);
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn residual_adds_identity() {
        let mut rng = StdRng::seed_from_u64(4);
        // Inner conv initialized to zero → block should be pure identity.
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, 0.01, &mut rng);
        conv.weights.value.iter_mut().for_each(|w| *w = 0.0);
        let mut block = Residual::new(vec![Box::new(conv)]);
        let x = tensor_from(1, 1, 4, 4, |i| i as f32 * 0.1);
        let (y, tape) = block.forward(x.clone());
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
        // Gradient through identity path survives.
        let dy = tensor_from(1, 1, 4, 4, |_| 1.0);
        let dx = block.backward(tape, &dy);
        for &v in dx.as_slice() {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn tiny_cnn_learns_bright_vs_dark() {
        let mut rng = StdRng::seed_from_u64(5);
        let lr = 0.02;
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new(1, 4, 3, 1, 1, lr, &mut rng)),
            Box::new(ReluLayer::new()),
            Box::new(MaxPool2::new()),
            Box::new(GlobalAvgPool::new()),
            Box::new(DenseLayer::new(4, 2, lr, &mut rng)),
        ];
        let mut cnn = Cnn::new(layers, 2);
        // Class 0: dark images; class 1: bright images.
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for i in 0..16 {
            let bright = i % 2 == 1;
            let base = if bright { 0.8 } else { 0.2 };
            let img = tensor_from(1, 1, 8, 8, |j| base + ((j * 31 + i) % 7) as f32 * 0.01);
            images.push(img);
            labels.push(bright as usize);
        }
        for _ in 0..60 {
            for (img, &lbl) in images.iter().zip(&labels) {
                cnn.train_batch(img, &[lbl]);
            }
        }
        let mut correct = 0;
        for (img, &lbl) in images.iter().zip(&labels) {
            if cnn.predict(img)[0] == lbl {
                correct += 1;
            }
        }
        assert!(correct >= 14, "only {correct}/16 correct");
    }

    #[test]
    fn reset_tail_swaps_head() {
        let mut rng = StdRng::seed_from_u64(6);
        let lr = 0.01;
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new(1, 2, 3, 1, 1, lr, &mut rng)),
            Box::new(GlobalAvgPool::new()),
            Box::new(DenseLayer::new(2, 3, lr, &mut rng)),
        ];
        let mut cnn = Cnn::new(layers, 3);
        let x = Tensor4::zeros(1, 1, 6, 6);
        assert_eq!(cnn.forward_logits(&x).cols(), 3);
        let mut rng2 = StdRng::seed_from_u64(7);
        cnn.reset_tail(1, || {
            vec![Box::new(DenseLayer::new(2, 5, 0.01, &mut rng2)) as Box<dyn Layer>]
        });
        cnn.set_num_classes(5);
        assert_eq!(cnn.forward_logits(&x).cols(), 5);
    }
}
