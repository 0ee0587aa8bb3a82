//! The built-in stage below the core pipeline: dataset generation.

use core::convert::Infallible;

use ig_synth::spec::DatasetSpec;
use ig_synth::Dataset;

use crate::codec::Durable;
use crate::context::RunContext;
use crate::fingerprint::{Fingerprint, Fingerprintable};
use crate::stage::Stage;

/// Generate a synthetic dataset from a [`DatasetSpec`].
///
/// The spec carries its own seed, so the artifact is a pure function of
/// the spec: every driver asking for the same `(kind, scale, seed)`
/// shares one generated dataset. Generation happens before any
/// fault-injection site, so chaos and clean arms share it too.
#[derive(Debug, Clone)]
pub struct GenerateDataset {
    /// Full generation parameters (including the generation seed).
    pub spec: DatasetSpec,
}

impl Stage for GenerateDataset {
    type Output = Dataset;
    type Error = Infallible;

    fn id(&self) -> &'static str {
        "synth.generate"
    }

    fn fingerprint(&self) -> Fingerprint {
        self.spec.fingerprint()
    }

    fn run(&mut self, _ctx: &RunContext) -> Result<Dataset, Infallible> {
        Ok(ig_synth::generate(&self.spec))
    }

    // Generation is the most expensive plan-independent stage, so it
    // persists to the durable tier: a resumed sweep reads the dataset
    // back bit-identically instead of regenerating it.
    fn encode(&self, output: &Dataset) -> Option<Vec<u8>> {
        Some(output.to_bytes())
    }

    fn decode(&self, bytes: &[u8]) -> Option<Dataset> {
        Dataset::from_bytes(bytes)
    }

    fn durable(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infallible;
    use ig_synth::spec::DatasetKind;

    #[test]
    fn dataset_is_generated_once_per_spec() {
        let ctx = RunContext::new(3);
        let spec = DatasetSpec::quick(DatasetKind::Ksdd, 5);
        let a = infallible(ctx.run(&mut GenerateDataset { spec }));
        let b = infallible(ctx.run(&mut GenerateDataset { spec }));
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), spec.n);
        // A different generation seed is a different artifact.
        let other = infallible(ctx.run(&mut GenerateDataset {
            spec: DatasetSpec::quick(DatasetKind::Ksdd, 6),
        }));
        assert!(!std::sync::Arc::ptr_eq(&a, &other));
    }

    #[test]
    fn generate_dataset_survives_the_durable_round_trip() {
        let spec = DatasetSpec::quick(DatasetKind::ProductBubble, 9);
        let stage = GenerateDataset { spec };
        let dataset = ig_synth::generate(&spec);
        let bytes = match stage.encode(&dataset) {
            Some(b) => b,
            None => panic!("GenerateDataset must opt into durability"),
        };
        let back = match stage.decode(&bytes) {
            Some(d) => d,
            None => panic!("encoded dataset must decode"),
        };
        assert_eq!(back.name, dataset.name);
        assert_eq!(back.len(), dataset.len());
        // Truncated payloads are rejected, not mis-decoded.
        assert!(stage.decode(&bytes[..bytes.len() / 2]).is_none());
    }
}
