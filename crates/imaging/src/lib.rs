//! # ig-imaging
//!
//! From-scratch grayscale image substrate for the Inspector Gadget
//! reproduction (Heo et al., VLDB 2020).
//!
//! The paper's pipeline leans on OpenCV for three things: image I/O and
//! manipulation, normalized cross-correlation template matching
//! (`TM_CCORR_NORMED`), and pyramid-accelerated search. This crate rebuilds
//! those pieces in pure Rust:
//!
//! * [`GrayImage`] — a dense `f32` grayscale image with drawing, cropping
//!   and compositing primitives,
//! * [`resize`] — nearest-neighbour and bilinear resampling,
//! * [`filter`] — separable box / Gaussian blur and generic convolution,
//! * [`pyramid`] — Gaussian pyramids (Adelson et al., 1984),
//! * [`ncc`] — normalized cross-correlation matching, both brute force and
//!   coarse-to-fine over a pyramid,
//! * [`integral`] — integral images used to accelerate the NCC denominator,
//! * [`prepared`] — batched matching: per-image pyramid/integral caches and
//!   per-pattern reduced/centred stacks built once and reused across the
//!   whole (image × pattern) grid,
//! * [`transform`] — affine warps (rotation, shear, anisotropic scaling)
//!   used by the policy-based pattern augmenter,
//! * [`noise`] — value noise / fractional Brownian motion for the synthetic
//!   industrial textures in `ig-synth`,
//! * [`geometry`] — axis-aligned bounding boxes shared by the whole
//!   workspace (gold defect boxes, worker annotations, patterns),
//! * [`io`] — minimal PGM read/write for inspecting generated images.

#![warn(missing_docs)]

pub mod filter;
pub mod geometry;
pub mod image;
pub mod integral;
pub mod io;
pub mod ncc;
pub mod noise;
pub mod prepared;
pub mod pyramid;
pub mod resize;
pub mod stats;
pub mod transform;

pub use geometry::BBox;
pub use image::GrayImage;
pub use ncc::{match_template, match_template_pyramid, MatchResult};
pub use prepared::{match_prepared, match_prepared_exact, PreparedImage, PreparedPattern};

/// Errors produced by imaging operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImagingError {
    /// An operation received an image or pattern with a zero dimension.
    EmptyImage,
    /// The template is larger than the search image in at least one axis.
    TemplateTooLarge {
        /// Template width and height.
        template: (usize, usize),
        /// Image width and height.
        image: (usize, usize),
    },
    /// A crop or paste rectangle does not fit inside the image bounds.
    OutOfBounds {
        /// The offending rectangle `(x, y, w, h)`.
        rect: (usize, usize, usize, usize),
        /// Image width and height.
        image: (usize, usize),
    },
    /// A dimension argument was zero or otherwise invalid.
    InvalidDimension(String),
}

impl std::fmt::Display for ImagingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImagingError::EmptyImage => write!(f, "image has a zero dimension"),
            ImagingError::TemplateTooLarge { template, image } => write!(
                f,
                "template {}x{} larger than image {}x{}",
                template.0, template.1, image.0, image.1
            ),
            ImagingError::OutOfBounds { rect, image } => write!(
                f,
                "rect ({}, {}, {}, {}) out of bounds for {}x{} image",
                rect.0, rect.1, rect.2, rect.3, image.0, image.1
            ),
            ImagingError::InvalidDimension(msg) => write!(f, "invalid dimension: {msg}"),
        }
    }
}

impl std::error::Error for ImagingError {}

/// Convenience alias for imaging results.
pub type Result<T> = std::result::Result<T, ImagingError>;
