//! # ig-nn
//!
//! A from-scratch neural-network substrate sized for the Inspector Gadget
//! reproduction. The paper uses PyTorch/TensorFlow/Scikit-learn for four
//! jobs, all rebuilt here in pure Rust:
//!
//! * the **MLP labeler** trained with **L-BFGS** on FGF similarity features
//!   (Section 5.2) — [`mlp::Mlp`] + [`lbfgs`],
//! * the **RGAN generator/discriminator** with **spectral normalization**
//!   (Section 4.1) — [`mlp::Mlp`] + [`spectral`] + [`optim::Adam`],
//! * the **CNN baselines and end models** (VGG-19 / MobileNetV2 / ResNet50
//!   stand-ins, Section 6.1) — [`conv`],
//! * small helpers: k-fold splits and early stopping used by labeler
//!   tuning — [`train`].
//!
//! Everything operates on `f32` with hand-written backpropagation; no
//! autodiff, no BLAS. Sizes in this reproduction (feature vectors of tens
//! of dimensions, images downscaled to ≤64 px) keep that comfortably fast.

#![warn(missing_docs)]

pub mod activation;
pub mod conv;
pub mod lbfgs;
pub mod matrix;
pub mod mlp;
pub mod optim;
pub mod spectral;
pub mod train;

pub use activation::Activation;
pub use lbfgs::{minimize, minimize_robust, LbfgsConfig, LbfgsResult, RestartConfig};
pub use matrix::Matrix;
pub use mlp::{Loss, Mlp, MlpConfig};
pub use optim::Adam;

/// Errors from network construction and training.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// Incompatible matrix or tensor shapes.
    ShapeMismatch(String),
    /// Invalid hyper-parameter (zero layer width, bad fold count, ...).
    InvalidConfig(String),
}

impl std::fmt::Display for NnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NnError::ShapeMismatch(m) => write!(f, "shape mismatch: {m}"),
            NnError::InvalidConfig(m) => write!(f, "invalid config: {m}"),
        }
    }
}

impl std::error::Error for NnError {}

/// Convenience alias for nn results.
pub type Result<T> = std::result::Result<T, NnError>;
