//! The [`Stage`] trait: one typed unit of pipeline work.

use crate::context::RunContext;
use crate::fingerprint::Fingerprint;

/// A typed pipeline step with declared identity and inputs.
///
/// Stages are plain structs holding (references to) their inputs and
/// configuration; [`RunContext::run`] executes them and memoizes their
/// outputs in the artifact store under `H(id, fingerprint, seed)`.
///
/// `run` takes `&mut self` so a stage can *consume* owned inputs (via
/// `Option::take`).
pub trait Stage {
    /// The artifact this stage produces. `Send + Sync + 'static` so it
    /// can live in the shared store behind an `Arc`.
    type Output: Send + Sync + 'static;
    /// Error produced on failure (use [`core::convert::Infallible`] for
    /// stages that cannot fail).
    type Error;

    /// Stable identifier, namespaced by crate (e.g. `"core.features"`).
    /// Two stages with the same id must produce the same output type.
    fn id(&self) -> &'static str;

    /// Structural fingerprint over every input and configuration field
    /// that can affect the output, including whatever `run` reads from
    /// the context besides the seed: a stage that reads
    /// [`RunContext::plan`] or [`RunContext::threads`] hashes what it
    /// reads.
    fn fingerprint(&self) -> Fingerprint;

    /// Execute the stage. Called at most once per cache miss.
    fn run(&mut self, ctx: &RunContext) -> Result<Self::Output, Self::Error>;

    /// Whether this stage persists to the durable tier *under the current
    /// inputs* — the one switch the runtime reads for persistence. On a
    /// durable stage's memory miss, with a disk attached, the runtime
    /// reads through the disk: a saved artifact is read back through
    /// [`Stage::decode`], otherwise the output is computed and saved
    /// through [`Stage::encode`] and [`crate::disk::DiskStore::save`].
    /// Memory-only stages (the default) never touch the disk.
    /// Stages whose output under an active fault plan differs from clean
    /// output should return `false` under a non-empty plan, so chaos arms
    /// replay their faults instead of reading them back.
    fn durable(&self) -> bool {
        false
    }

    /// Serialize the output for the durable on-disk tier; called only
    /// when [`Stage::durable`] is true. Implementations must pair with
    /// [`Stage::decode`] such that the round trip is bit-identical — the
    /// durable tier's whole contract is that a disk hit equals a
    /// recompute. `None` (the default) publishes nothing and releases the
    /// claim.
    fn encode(&self, _output: &Self::Output) -> Option<Vec<u8>> {
        None
    }

    /// Deserialize bytes written by [`Stage::encode`]. `None` rejects the
    /// payload (the runtime quarantines the file and recomputes); the
    /// default rejects everything, matching the default `encode`.
    fn decode(&self, _bytes: &[u8]) -> Option<Self::Output> {
        None
    }
}
