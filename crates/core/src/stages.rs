//! The training pipeline as [`ig_runtime`] stages.
//!
//! [`crate::InspectorGadget::train_in`] wires these together: pattern
//! bank → [`BuildFeatureGen`] → [`ComputeFeatureShard`] (dev matrix, one
//! or more shards), then trains the labeler on the matrix. Both stages are
//! deterministic functions of their fingerprinted inputs and memoize in
//! the context's artifact store; labeler training consumes the caller's
//! RNG, so it is a plain function call rather than a stage.

use core::convert::Infallible;

use ig_faults::{FaultPlan, HealthReport};
use ig_imaging::prepared::PreparedImage;
use ig_imaging::GrayImage;
use ig_nn::Matrix;
use ig_runtime::{
    Durable, Fingerprint, FingerprintHasher, Fingerprintable, RunContext, ShardSpec, Stage,
};

use crate::features::{FeatureGenerator, MatchBackend};
use crate::pattern::{Pattern, PatternSource};
use crate::pipeline::PipelineConfig;
use crate::{CoreError, Result};

impl Fingerprintable for Pattern {
    fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        self.image.fingerprint_into(h);
        h.write_u64(match self.source {
            PatternSource::Crowd => 0,
            PatternSource::Policy => 1,
            PatternSource::Gan => 2,
        });
    }
}

/// A development (or any labeling) batch in either representation.
///
/// Raw images are prepared on the fly by the matching engine, which keeps
/// only about `threads + 1` of them prepared at once; prepared images
/// carry their pyramid/integral caches, for a caller that streams its
/// own shards and builds each shard's caches itself. The two produce
/// bit-identical feature matrices (pinned by
/// `prepared_dev_set_matches_raw_dev_set`).
#[derive(Debug, Clone, Copy)]
pub enum DevSet<'a> {
    /// Plain images.
    Raw(&'a [&'a GrayImage]),
    /// Images with prebuilt matching caches.
    Prepared(&'a [PreparedImage]),
}

impl DevSet<'_> {
    /// Number of images in the batch.
    pub fn len(&self) -> usize {
        match self {
            DevSet::Raw(images) => images.len(),
            DevSet::Prepared(images) => images.len(),
        }
    }

    /// True when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Fingerprintable for DevSet<'_> {
    fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        match self {
            DevSet::Raw(images) => {
                h.write_usize(images.len());
                for image in *images {
                    image.fingerprint_into(h);
                }
            }
            DevSet::Prepared(images) => {
                h.write_usize(images.len());
                for image in *images {
                    image.fingerprint_into(h);
                }
            }
        }
    }
}

/// Fingerprint of a pattern bank under a pipeline config and a context:
/// everything [`BuildFeatureGen`] reads that can change the generator it
/// builds, the context's thread budget and fault plan included. Every
/// feature matrix computed with the generator is keyed on it, so two
/// models built from one bank under different plans never share one.
pub fn bank_fingerprint(
    patterns: &[Pattern],
    config: &PipelineConfig,
    ctx: &RunContext,
) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    patterns.fingerprint_into(&mut h);
    h.write_u64(match config.backend {
        MatchBackend::Exact => 0,
        MatchBackend::Pyramid => 1,
    });
    h.write_usize(effective_threads(config, ctx));
    ctx.plan().fingerprint_into(&mut h);
    h.finish()
}

/// Worker threads a stage should use: an explicit config wins, then the
/// context budget, then the hardware default (0).
pub(crate) fn effective_threads(config: &PipelineConfig, ctx: &RunContext) -> usize {
    if config.threads > 0 {
        config.threads
    } else {
        ctx.threads()
    }
}

/// Build the [`FeatureGenerator`]: quarantine degenerate patterns and
/// prepare the pattern bank for batched matching.
#[derive(Debug)]
pub struct BuildFeatureGen<'a> {
    fp: Fingerprint,
    patterns: Option<Vec<Pattern>>,
    config: &'a PipelineConfig,
    health: &'a HealthReport,
}

impl<'a> BuildFeatureGen<'a> {
    /// Stage over an owned pattern bank (consumed on the first run).
    pub fn new(
        patterns: Vec<Pattern>,
        config: &'a PipelineConfig,
        health: &'a HealthReport,
        ctx: &RunContext,
    ) -> BuildFeatureGen<'a> {
        BuildFeatureGen {
            fp: bank_fingerprint(&patterns, config, ctx),
            patterns: Some(patterns),
            config,
            health,
        }
    }

    /// The bank fingerprint this stage was keyed with.
    pub fn bank_fp(&self) -> Fingerprint {
        self.fp
    }
}

impl Stage for BuildFeatureGen<'_> {
    type Output = FeatureGenerator;
    type Error = CoreError;

    fn id(&self) -> &'static str {
        "core.feature_gen"
    }

    fn fingerprint(&self) -> Fingerprint {
        self.fp
    }

    fn run(&mut self, ctx: &RunContext) -> Result<FeatureGenerator> {
        let patterns = self.patterns.take().ok_or(CoreError::NoPatterns)?;
        let mut feature_gen = FeatureGenerator::new_with_health(patterns, ctx.plan(), self.health)?
            .with_backend(self.config.backend);
        let threads = effective_threads(self.config, ctx);
        if threads > 0 {
            feature_gen = feature_gen.with_threads(threads);
        }
        Ok(feature_gen)
    }
}

/// Run the matching engine over one shard of a batch: one similarity
/// feature per (image, pattern) for the shard's rows of the matrix.
///
/// This is the one feature-matrix stage. Training and labeling run a
/// whole batch, raw or prepared, as the single shard `0..n`; the
/// out-of-core stream runs it once per budget-sized shard, preparing each
/// shard's images itself and dropping their caches once its rows are
/// written. Row coordinates stay global — the engine's fault ladder is
/// offset by `shard.start` — so concatenating every shard's rows in index
/// order reproduces the whole-batch matrix bit-identically under any
/// fault plan.
///
/// The fault plan is an explicit field rather than being read from the
/// context, because training injects into the dev matrix while labeling
/// never injects; the key folds that field in.
#[derive(Debug)]
pub struct ComputeFeatureShard<'a> {
    fp: Fingerprint,
    generator: &'a FeatureGenerator,
    images: DevSet<'a>,
    row_offset: usize,
    plan: Option<&'a FaultPlan>,
    health: &'a HealthReport,
}

impl<'a> ComputeFeatureShard<'a> {
    /// Stage computing `shard`'s rows of the feature matrix. `images` is
    /// the shard's slice of the prepared batch (`shard.len()` images
    /// whose first global row is `shard.start`), and `generator` must be
    /// the one built from `bank_fp`.
    pub fn new(
        bank_fp: Fingerprint,
        generator: &'a FeatureGenerator,
        images: &'a [PreparedImage],
        shard: ShardSpec,
        plan: Option<&'a FaultPlan>,
        health: &'a HealthReport,
    ) -> ComputeFeatureShard<'a> {
        Self::over(
            bank_fp,
            generator,
            DevSet::Prepared(images),
            shard,
            plan,
            health,
        )
    }

    /// [`ComputeFeatureShard::new`] over a raw or prepared slice; a whole
    /// batch is `ShardPlan::single(n).shard(0)`.
    pub fn over(
        bank_fp: Fingerprint,
        generator: &'a FeatureGenerator,
        images: DevSet<'a>,
        shard: ShardSpec,
        plan: Option<&'a FaultPlan>,
        health: &'a HealthReport,
    ) -> ComputeFeatureShard<'a> {
        // Hashing the generator's arity keeps the key honest if a bank
        // fingerprint were ever paired with a generator of a different
        // width — the artifact's column count is part of its identity.
        // The shard's global row offset is likewise part of the key: two
        // shards of equal content at different positions fault-ladder
        // differently.
        let cols = generator.num_features();
        let row_offset = shard.start;
        let mut h = FingerprintHasher::new();
        bank_fp.fingerprint_into(&mut h);
        h.write_usize(cols);
        h.write_usize(row_offset);
        images.fingerprint_into(&mut h);
        plan.fingerprint_into(&mut h);
        ComputeFeatureShard {
            fp: h.finish().mix(shard.fingerprint()),
            generator,
            images,
            row_offset,
            plan,
            health,
        }
    }
}

impl Stage for ComputeFeatureShard<'_> {
    type Output = Matrix;
    type Error = Infallible;

    fn id(&self) -> &'static str {
        "core.features"
    }

    fn fingerprint(&self) -> Fingerprint {
        self.fp
    }

    // Feature rows are the expensive artifact a resumed sweep most wants
    // back, so they persist to the durable tier. Only clean
    // computations persist: a matrix computed under an active plan embeds
    // injected faults whose *detection* events must replay on every run —
    // reading it back from disk would skip the injection sites and
    // desynchronize the health report.
    fn durable(&self) -> bool {
        self.plan.is_none_or(FaultPlan::is_empty)
    }

    fn run(&mut self, _ctx: &RunContext) -> std::result::Result<Matrix, Infallible> {
        Ok(self.generator.feature_matrix_with_health(
            self.images,
            self.row_offset,
            self.plan,
            self.health,
        ))
    }

    fn encode(&self, output: &Matrix) -> Option<Vec<u8>> {
        Some(output.to_bytes())
    }

    fn decode(&self, bytes: &[u8]) -> Option<Matrix> {
        Matrix::from_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_fingerprint_tracks_source() {
        let img = GrayImage::filled(5, 5, 0.2);
        let crowd = Pattern::crowd(img.clone());
        let policy = Pattern::augmented(img, PatternSource::Policy);
        assert_ne!(crowd.fingerprint(), policy.fingerprint());
    }

    #[test]
    fn bank_fingerprint_tracks_backend_threads_and_plan() {
        let ctx = RunContext::new(0);
        let patterns = vec![Pattern::crowd(GrayImage::filled(4, 4, 0.3))];
        let base = PipelineConfig::default();
        let exact = PipelineConfig {
            backend: MatchBackend::Exact,
            ..base.clone()
        };
        let threaded = PipelineConfig {
            threads: 3,
            ..base.clone()
        };
        let fp = bank_fingerprint(&patterns, &base, &ctx);
        assert_ne!(fp, bank_fingerprint(&patterns, &exact, &ctx));
        assert_ne!(fp, bank_fingerprint(&patterns, &threaded, &ctx));
        let faulted = ctx.clone().with_plan(Some(FaultPlan::chaos(1)));
        assert_ne!(fp, bank_fingerprint(&patterns, &base, &faulted));
        assert_eq!(fp, bank_fingerprint(&patterns, &base, &ctx));
    }

    #[test]
    fn compute_feature_shard_persists_only_clean_runs() {
        let health = HealthReport::new();
        let patterns = vec![Pattern::crowd(GrayImage::filled(4, 4, 0.3))];
        let bank = patterns.fingerprint();
        let generator = match FeatureGenerator::new_with_health(patterns, None, &health) {
            Ok(g) => g,
            Err(e) => panic!("generator build failed: {e}"),
        };
        let images = [GrayImage::filled(6, 6, 0.5)];
        let refs: Vec<&GrayImage> = images.iter().collect();
        let matrix = Matrix::from_vec(1, 1, vec![0.5]);
        let whole = ig_runtime::ShardPlan::single(refs.len()).shard(0);
        let stage = |plan| {
            ComputeFeatureShard::over(bank, &generator, DevSet::Raw(&refs), whole, plan, &health)
        };

        let clean = stage(None);
        assert!(clean.durable(), "clean features persist");
        let bytes = clean.encode(&matrix);
        let decoded = bytes.as_deref().and_then(|b| clean.decode(b));
        assert_eq!(
            decoded.as_ref().map(Matrix::as_slice),
            Some(matrix.as_slice()),
            "round trip is bit-identical"
        );

        let plan = FaultPlan::chaos(1);
        assert!(
            !stage(Some(&plan)).durable(),
            "faulted features must replay their injection sites, not persist"
        );

        let empty_plan = FaultPlan::none(1);
        assert!(
            stage(Some(&empty_plan)).durable(),
            "an empty plan injects nothing and may persist"
        );
    }

    #[test]
    fn dev_set_len_covers_both_representations() {
        let images = [GrayImage::filled(6, 6, 0.5)];
        let refs: Vec<&GrayImage> = images.iter().collect();
        let raw = DevSet::Raw(&refs);
        assert_eq!(raw.len(), 1);
        assert!(!raw.is_empty());
        let prepared: Vec<PreparedImage> = Vec::new();
        assert!(DevSet::Prepared(&prepared).is_empty());
    }
}
