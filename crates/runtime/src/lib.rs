//! Stage-graph runtime for the Inspector Gadget pipeline.
//!
//! The paper's system is an explicit dataflow — crowdsourced patterns →
//! augmenter → feature generation functions → labeler → end model (Fig. 2)
//! — and every layer of this workspace runs some slice of it. This crate
//! gives those slices one substrate:
//!
//! * [`Stage`]: a typed unit of work with a stable id and a structural
//!   [`Fingerprint`] over its inputs and configuration;
//! * [`RunContext`]: the single carrier of seed discipline, the active
//!   [`ig_faults::FaultPlan`], the thread budget, a shared
//!   [`HealthReport`](ig_faults::HealthReport), and the artifact store;
//! * [`ArtifactStore`]: an in-memory content-addressed cache memoizing
//!   stage outputs by `(stage id, input fingerprint, seed)`,
//!   so e.g. a generated dataset and the dev feature matrix are
//!   computed once per run and shared across experiment arms by
//!   construction;
//! * [`DiskStore`]: a crash-safe on-disk tier beneath the memory store
//!   for stages that declare [`Stage::durable`] (single-flight claims,
//!   temp-file + fsync + atomic rename, checksum-verified loads,
//!   quarantine of corrupt artifacts), which is what makes killed sweeps
//!   resumable and warm starts possible — see the [`disk`] module docs
//!   for the durability protocol;
//! * [`shard`]: deterministic out-of-core streaming — a [`ShardPlan`]
//!   sized to a caller's memory budget splits a dataset into
//!   [`ShardSpec`]s, and a shard stage (`ig-core`'s
//!   `ComputeFeatureShard`, the one feature-matrix stage; a whole batch is
//!   its single shard) runs once per shard with shard-granular
//!   memoization and crash resume.
//!
//! Higher layers implement [`Stage`] for their own steps (`ig-core` ports
//! the training pipeline; dataset generation lives here as
//! [`GenerateDataset`]) and submit them through [`RunContext::run`].

pub mod codec;
pub mod context;
pub mod disk;
pub mod fingerprint;
pub mod shard;
pub mod stage;
pub mod stages;
pub mod store;

pub use codec::{Dec, Durable, Enc};
pub use context::RunContext;
pub use disk::{DiskStats, DiskStore, Flight, FlightGuard};
pub use fingerprint::{Fingerprint, FingerprintHasher, Fingerprintable};
pub use shard::{ShardPlan, ShardSpec};
pub use stage::Stage;
pub use stages::GenerateDataset;
pub use store::ArtifactStore;

/// Collapse a `Result` whose error type is uninhabited.
///
/// Stages that cannot fail use [`core::convert::Infallible`] as their
/// error type; this turns the `Result` that [`RunContext::run`] still
/// returns back into the bare value without a panic path.
pub fn infallible<T>(result: Result<T, core::convert::Infallible>) -> T {
    match result {
        Ok(value) => value,
        Err(never) => match never {},
    }
}
