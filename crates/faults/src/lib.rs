//! Fault injection and health reporting for the Inspector Gadget pipeline.
//!
//! Industrial labeling runs unattended: crowd workers vanish mid-task,
//! template matching emits NaN on degenerate patterns, L-BFGS diverges on
//! poisoned features, and GAN training collapses. This crate provides the
//! two halves needed to make the pipeline survive all of that:
//!
//! * [`FaultPlan`] — a deterministic, seeded chaos plan. Every decision is
//!   a pure function of `(seed, site, index)`, so injection is
//!   reproducible across runs and across parallel workers without any
//!   shared RNG state. An empty plan (the default) injects nothing and
//!   leaves pipeline output bit-identical to a run without the plan.
//! * [`HealthReport`] — a thread-safe sink recording every fault detected
//!   and every recovery action taken, stage by stage. Pipelines return it
//!   alongside their result so operators can audit what degraded and how.
//!
//! The [`inject`] module additionally provides adversarial matrix
//! generators used by property tests in `ig-core` and `ig-nn`.

#![warn(missing_docs)]

mod health;
pub mod inject;
mod plan;

pub use health::{
    FaultCount, FaultKind, HealthEvent, HealthReport, HealthSummary, RecoveryAction, Stage,
};
pub use plan::{FaultPlan, GanFault};
