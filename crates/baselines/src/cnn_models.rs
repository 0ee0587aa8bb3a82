//! CPU-scale stand-ins for the paper's CNNs and their preprocessing.
//!
//! The paper uses VGG-19, MobileNetV2 and ResNet50; this reproduction
//! builds architecture-faithful miniatures (plain conv stacks, depthwise-
//! separable blocks, identity-skip residual blocks) sized for CPU
//! training on downscaled images. The preprocessing mirrors Section 6.1:
//! long Product strips are split in half and stacked "to make them more
//! square-like, which is advantageous for CNNs".

use ig_imaging::resize::resize_bilinear;
use ig_imaging::stats::standardize;
use ig_imaging::GrayImage;
use ig_nn::conv::{
    Cnn, Conv2d, DenseLayer, DepthwiseConv2d, GlobalAvgPool, Layer, MaxPool2, ReluLayer, Residual,
    Tensor4,
};
use rand::Rng;

/// Which CNN architecture to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CnnArch {
    /// Plain conv stack (VGG-19 stand-in).
    MiniVgg,
    /// Depthwise-separable blocks (MobileNetV2 stand-in).
    MiniMobileNet,
    /// Identity-skip residual blocks (ResNet50 stand-in).
    MiniResNet,
}

impl CnnArch {
    /// Display name used in experiment tables.
    pub fn display_name(&self) -> &'static str {
        match self {
            CnnArch::MiniVgg => "VGG19",
            CnnArch::MiniMobileNet => "MobileNetV2",
            CnnArch::MiniResNet => "ResNet50",
        }
    }

    /// Build the network for `classes` outputs.
    pub fn build(&self, classes: usize, lr: f32, rng: &mut impl Rng) -> Cnn {
        match self {
            CnnArch::MiniVgg => mini_vgg(classes, lr, rng),
            CnnArch::MiniMobileNet => mini_mobilenet(classes, lr, rng),
            CnnArch::MiniResNet => mini_resnet(classes, lr, rng),
        }
    }

    /// Channel width of the feature vector before the dense head. Needed
    /// when swapping heads for fine-tuning.
    pub fn head_features(&self) -> usize {
        match self {
            CnnArch::MiniVgg => 32,
            CnnArch::MiniMobileNet => 32,
            CnnArch::MiniResNet => 16,
        }
    }
}

/// MiniVGG: three conv-relu-pool stages, widths 8→16→32, GAP head.
pub fn mini_vgg(classes: usize, lr: f32, rng: &mut impl Rng) -> Cnn {
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(1, 8, 3, 1, 1, lr, rng)),
        Box::new(ReluLayer::new()),
        Box::new(MaxPool2::new()),
        Box::new(Conv2d::new(8, 16, 3, 1, 1, lr, rng)),
        Box::new(ReluLayer::new()),
        Box::new(MaxPool2::new()),
        Box::new(Conv2d::new(16, 32, 3, 1, 1, lr, rng)),
        Box::new(ReluLayer::new()),
        Box::new(GlobalAvgPool::new()),
        Box::new(DenseLayer::new(32, classes, lr, rng)),
    ];
    Cnn::new(layers, classes)
}

/// MiniMobileNet: an initial conv then two depthwise-separable blocks.
pub fn mini_mobilenet(classes: usize, lr: f32, rng: &mut impl Rng) -> Cnn {
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(1, 8, 3, 1, 1, lr, rng)),
        Box::new(ReluLayer::new()),
        Box::new(MaxPool2::new()),
        // Depthwise separable block 1: dw 3x3 + pw 1x1 (8 → 16).
        Box::new(DepthwiseConv2d::new(8, 3, 1, 1, lr, rng)),
        Box::new(ReluLayer::new()),
        Box::new(Conv2d::new(8, 16, 1, 1, 0, lr, rng)),
        Box::new(ReluLayer::new()),
        Box::new(MaxPool2::new()),
        // Block 2 (16 → 32).
        Box::new(DepthwiseConv2d::new(16, 3, 1, 1, lr, rng)),
        Box::new(ReluLayer::new()),
        Box::new(Conv2d::new(16, 32, 1, 1, 0, lr, rng)),
        Box::new(ReluLayer::new()),
        Box::new(GlobalAvgPool::new()),
        Box::new(DenseLayer::new(32, classes, lr, rng)),
    ];
    Cnn::new(layers, classes)
}

/// MiniResNet: conv stem then two identity-skip residual blocks.
pub fn mini_resnet(classes: usize, lr: f32, rng: &mut impl Rng) -> Cnn {
    fn block(c: usize, lr: f32, rng: &mut impl Rng) -> Box<dyn Layer> {
        Box::new(Residual::new(vec![
            Box::new(Conv2d::new(c, c, 3, 1, 1, lr, rng)),
            Box::new(ReluLayer::new()),
            Box::new(Conv2d::new(c, c, 3, 1, 1, lr, rng)),
        ]))
    }
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(1, 8, 3, 1, 1, lr, rng)),
        Box::new(ReluLayer::new()),
        Box::new(MaxPool2::new()),
        block(8, lr, rng),
        Box::new(ReluLayer::new()),
        Box::new(Conv2d::new(8, 16, 3, 1, 1, lr, rng)),
        Box::new(ReluLayer::new()),
        Box::new(MaxPool2::new()),
        block(16, lr, rng),
        Box::new(ReluLayer::new()),
        Box::new(GlobalAvgPool::new()),
        Box::new(DenseLayer::new(16, classes, lr, rng)),
    ];
    Cnn::new(layers, classes)
}

/// Preprocess images into an NCHW batch: split-and-stack extreme aspect
/// ratios (Section 6.1), resize to `side x side`, standardize per image.
pub fn images_to_tensor(images: &[&GrayImage], side: usize) -> Tensor4 {
    let n = images.len();
    let mut out = Tensor4::zeros(n, 1, side, side);
    for (i, img) in images.iter().enumerate() {
        let (w, h) = img.dims();
        let squared = if w > 2 * h || h > 2 * w {
            img.split_and_stack()
        } else {
            (*img).clone()
        };
        // ig-lint: allow(panic) -- side is a positive model constant and
        // split_and_stack never produces an empty image from a real input
        let resized = resize_bilinear(&squared, side, side).expect("cnn preprocessing resize");
        let standardized = standardize(&resized);
        let base = i * side * side;
        out.as_mut_slice()[base..base + side * side].copy_from_slice(standardized.pixels());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_architectures_forward_correct_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor4::zeros(2, 1, 16, 16);
        for arch in [
            CnnArch::MiniVgg,
            CnnArch::MiniMobileNet,
            CnnArch::MiniResNet,
        ] {
            let cnn = arch.build(3, 0.01, &mut rng);
            let logits = cnn.forward_logits(&x);
            assert_eq!(logits.shape(), (2, 3), "{arch:?}");
        }
    }

    #[test]
    fn architectures_train_a_step_without_panic() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor4::from_vec(
            2,
            1,
            16,
            16,
            (0..512).map(|i| (i % 7) as f32 * 0.1).collect(),
        );
        for arch in [
            CnnArch::MiniVgg,
            CnnArch::MiniMobileNet,
            CnnArch::MiniResNet,
        ] {
            let mut cnn = arch.build(2, 0.01, &mut rng);
            let loss1 = cnn.train_batch(&x, &[0, 1]);
            let loss2 = cnn.train_batch(&x, &[0, 1]);
            assert!(loss1.is_finite() && loss2.is_finite(), "{arch:?}");
        }
    }

    #[test]
    fn tensor_preprocessing_shapes_and_standardization() {
        let strip = GrayImage::filled(100, 20, 0.5); // extreme aspect → split
        let square = GrayImage::filled(30, 30, 0.5);
        let t = images_to_tensor(&[&strip, &square], 16);
        assert_eq!((t.n, t.c, t.h, t.w), (2, 1, 16, 16));
        // Constant images standardize to zero.
        assert!(t.as_slice().iter().all(|&v| v.abs() < 1e-5));
    }

    #[test]
    fn preprocessing_standardizes_nonconstant_images() {
        let img = GrayImage::from_fn(24, 24, |x, y| ((x + y) % 5) as f32 * 0.2);
        let t = images_to_tensor(&[&img], 16);
        let mean: f32 = t.as_slice().iter().sum::<f32>() / t.as_slice().len() as f32;
        assert!(mean.abs() < 0.05, "standardized mean {mean}");
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(CnnArch::MiniVgg.display_name(), "VGG19");
        assert_eq!(CnnArch::MiniMobileNet.display_name(), "MobileNetV2");
        assert_eq!(CnnArch::MiniResNet.display_name(), "ResNet50");
    }
}
