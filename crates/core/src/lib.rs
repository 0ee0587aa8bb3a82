//! # ig-core
//!
//! The core of the Inspector Gadget reproduction (Heo et al., VLDB 2020):
//!
//! * [`pattern`] — defect patterns, the unit the whole system revolves
//!   around;
//! * [`features`] — **feature generation functions** (FGFs): each pattern
//!   is slid over an image with pyramid-accelerated normalized
//!   cross-correlation and emits its maximum similarity (Section 5.1);
//!   one image → one similarity vector;
//! * [`labeler`] — the small **MLP labeler** trained with L-BFGS on the
//!   development set's similarity vectors (Section 5.2);
//! * [`tuning`] — automatic **model tuning** over 1–3 hidden layers and
//!   power-of-two widths with stratified k-fold CV (Sections 5.2, 6.5);
//! * [`pipeline`] — [`pipeline::InspectorGadget`], the end-to-end weak
//!   label generator that ties patterns → features → tuned labeler → weak
//!   labels together;
//! * [`novelty`] — the paper's sketched extension: flagging images whose
//!   features match no known pattern as *unknown defect types*.

#![warn(missing_docs)]

pub mod features;
pub mod labeler;
pub mod novelty;
pub mod pattern;
pub mod pipeline;
pub mod stages;
pub mod tuning;

pub use features::{FeatureGenerator, MatchBackend};
pub use labeler::{Labeler, LabelerConfig};
pub use novelty::NoveltyDetector;
pub use pattern::{Pattern, PatternSource};
pub use pipeline::{InspectorGadget, PipelineConfig, WeakLabelOutput};
pub use stages::{BuildFeatureGen, ComputeFeatureShard, DevSet};
pub use tuning::{tune_labeler_with_health, TuningConfig, TuningReport};

// Chaos-plan and health-report types, re-exported so pipeline callers
// don't need a direct `ig-faults` dependency.
pub use ig_faults::{
    FaultCount, FaultKind, FaultPlan, HealthEvent, HealthReport, HealthSummary, RecoveryAction,
    Stage,
};

// Runtime types, re-exported so pipeline callers can build contexts and
// shard plans without a direct `ig-runtime` dependency.
pub use ig_runtime::{DiskStats, DiskStore, RunContext, ShardPlan, ShardSpec};

/// Errors from the core pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The pipeline was run with no patterns.
    NoPatterns,
    /// The development set is empty or single-class.
    BadDevSet(String),
    /// Wrapped imaging error.
    Imaging(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::NoPatterns => write!(f, "no patterns available"),
            CoreError::BadDevSet(m) => write!(f, "bad development set: {m}"),
            CoreError::Imaging(m) => write!(f, "imaging error: {m}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<ig_imaging::ImagingError> for CoreError {
    fn from(e: ig_imaging::ImagingError) -> Self {
        CoreError::Imaging(e.to_string())
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, CoreError>;
