//! Built-in stages for the dataflow steps below the core pipeline:
//! dataset generation and per-image matching-cache preparation.

use core::convert::Infallible;

use ig_imaging::ncc::PyramidMatchConfig;
use ig_imaging::prepared::PreparedImage;
use ig_imaging::GrayImage;
use ig_synth::spec::DatasetSpec;
use ig_synth::Dataset;

use crate::codec::Durable;
use crate::context::RunContext;
use crate::fingerprint::{Fingerprint, FingerprintHasher, Fingerprintable};
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
        // Expensive + persisted: worth a single-flight claim so
        // concurrent sweeps over one store root generate each dataset
        // exactly once.
        true
    }
}

/// Build the per-image matching caches (pyramid + per-level integral
/// tables) for a batch of images.
///
/// Fingerprinting hashes the raw pixels — cheap next to the pyramid and
/// integral-table construction it saves — so any batch with the same
/// content and match config shares one prepared artifact, under any fault
/// plan (no fault site reads the plan here).
#[derive(Debug)]
pub struct PrepareImages<'a> {
    /// Images to prepare, in output order.
    pub images: Vec<&'a GrayImage>,
    /// Match configuration the caches are built under.
    pub config: PyramidMatchConfig,
}

impl<'a> PrepareImages<'a> {
    /// Prepare `images` under the default match config.
    pub fn new(images: Vec<&'a GrayImage>) -> PrepareImages<'a> {
        PrepareImages {
            images,
            config: PyramidMatchConfig::default(),
        }
    }
}

impl Stage for PrepareImages<'_> {
    type Output = Vec<PreparedImage>;
    type Error = Infallible;

    fn id(&self) -> &'static str {
        "imaging.prepare"
    }

    fn fingerprint(&self) -> Fingerprint {
        let mut h = FingerprintHasher::new();
        self.config.fingerprint_into(&mut h);
        h.write_usize(self.images.len());
        for image in &self.images {
            image.fingerprint_into(&mut h);
        }
        h.finish()
    }

    fn run(&mut self, _ctx: &RunContext) -> Result<Vec<PreparedImage>, Infallible> {
        Ok(self
            .images
            .iter()
            .map(|image| PreparedImage::new(image, &self.config))
            .collect())
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
    fn prepared_images_are_shared_across_plans() {
        let clean = RunContext::new(3);
        let images = [
            GrayImage::filled(16, 12, 0.4),
            GrayImage::filled(16, 12, 0.6),
        ];
        let refs: Vec<&GrayImage> = images.iter().collect();
        let a = infallible(clean.run(&mut PrepareImages::new(refs.clone())));
        let chaotic = clean
            .clone()
            .with_plan(Some(ig_faults::FaultPlan::chaos(7)));
        let b = infallible(chaotic.run(&mut PrepareImages::new(refs)));
        assert!(
            std::sync::Arc::ptr_eq(&a, &b),
            "a stage that does not hash the plan shares artifacts across arms"
        );
        assert_eq!(a.len(), 2);
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

    #[test]
    fn prepare_fingerprint_tracks_pixel_content() {
        let img_a = GrayImage::filled(8, 8, 0.3);
        let mut img_b = img_a.clone();
        if let Some(p) = img_b.pixels_mut().iter_mut().next() {
            *p = 0.9;
        }
        let fp_a = PrepareImages::new(vec![&img_a]).fingerprint();
        let fp_b = PrepareImages::new(vec![&img_b]).fingerprint();
        assert_ne!(fp_a, fp_b);
    }
}
