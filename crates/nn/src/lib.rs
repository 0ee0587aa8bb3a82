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
//!
//! ## Dense kernel and its bit contract
//!
//! [`Matrix::matmul`], [`Matrix::matmul_tn`] and [`Matrix::matmul_nt`] share
//! one safe, portable register-tiled kernel (see [`matrix`]): packed
//! panels, a `1 x 32` (or `1 x 16`) tile of accumulators, and the tile's
//! lanes along the wider output dimension. No intrinsics, no `unsafe`, no
//! target-specific build flags. Its results are those of the plain triple
//! loop, bit for bit:
//!
//! * every `out[i][j]` starts at `+0.0` and adds `a(i,t)·b(t,j)` for
//!   ascending `t`, with one rounding per product and per sum (no fused
//!   multiply-add, no reassociation);
//! * in `matmul` and `matmul_tn` a term whose left factor is exactly `±0.0`
//!   contributes nothing, even when the right factor is infinite or NaN.
//!   The kernel drops such a term from a broadcast row, or masks a lane's
//!   product to `+0.0`. The mask is exact because adding `+0.0` changes no
//!   sum except `-0.0`, and a sum that starts at `+0.0` never becomes
//!   `-0.0` under round-to-nearest.
//!
//! So the labeler's L-BFGS fits, the tuning goldens and the RGAN's training
//! do not depend on which loop computes a product. The plain loops are kept
//! as test oracles in `tests/nn_properties.rs`.

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
