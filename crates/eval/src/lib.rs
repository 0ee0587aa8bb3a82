//! # ig-eval
//!
//! Evaluation machinery for the Inspector Gadget reproduction: confusion
//! matrices, precision/recall/F1 (the paper's headline metric, chosen over
//! ROC-AUC because the industrial datasets are heavily imbalanced —
//! Section 6.1) and the Section 6.7 error-cause taxonomy (matching
//! failure / noisy data / difficult to humans).

#![warn(missing_docs)]

pub mod error_analysis;
pub mod metrics;

pub use error_analysis::{categorize_errors, ErrorBreakdown, ErrorCause, SampleDiagnostics};
pub use metrics::{binary_f1, macro_f1, ConfusionMatrix, PrfScores};
