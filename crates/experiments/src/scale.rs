//! Experiment scale: every dataset-size and budget knob in one place.
//!
//! Only the experiment drivers read the scale. The pipeline's stages see
//! its effects (a dataset spec, an augmentation budget) as their own
//! inputs, so no stage hashes the tier itself.

use ig_synth::spec::{DatasetKind, DatasetSpec};

/// Named fidelity tier: how close to Table 1's `N` a run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny: a smoke test in seconds (CI runs it as `tiny`).
    Quick,
    /// Paper class ratios at reduced `N`, the default; a full run takes
    /// CPU-minutes.
    Medium,
    /// Table 1's exact `N`/`N_D` (reduced resolution): slow.
    Paper,
}

impl Scale {
    /// Parse CLI text (`tiny` is an alias of `quick` for CI jobs).
    /// Unknown tiers name the valid set so drivers can surface the
    /// message instead of silently falling back.
    pub fn parse(s: &str) -> Result<Scale, String> {
        match s {
            "tiny" | "quick" => Ok(Scale::Quick),
            "medium" => Ok(Scale::Medium),
            "paper" => Ok(Scale::Paper),
            other => Err(format!(
                "unknown scale tier `{other}` (valid: tiny|quick|medium|paper)"
            )),
        }
    }

    /// Canonical name of the tier.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Medium => "medium",
            Scale::Paper => "paper",
        }
    }

    /// Dataset spec for a kind at this scale.
    pub fn spec(self, kind: DatasetKind, seed: u64) -> DatasetSpec {
        match self {
            Scale::Quick => DatasetSpec::quick(kind, seed),
            Scale::Medium => DatasetSpec::medium(kind, seed),
            Scale::Paper => DatasetSpec::paper(kind, seed),
        }
    }

    /// Target number of defective dev images (Table 1's `N_DV`), scaled.
    pub fn dev_defective_target(self, kind: DatasetKind) -> usize {
        let paper = match kind {
            DatasetKind::Ksdd => 10,
            DatasetKind::ProductScratch => 76,
            DatasetKind::ProductBubble => 10,
            DatasetKind::ProductStamping => 15,
            DatasetKind::Neu => 100, // per class
        };
        match self {
            Scale::Quick => match kind {
                DatasetKind::Neu => 3,
                _ => (paper / 8).max(3),
            },
            Scale::Medium => match kind {
                DatasetKind::Ksdd => 8,
                DatasetKind::ProductScratch => 20,
                DatasetKind::ProductBubble => 8,
                DatasetKind::ProductStamping => 10,
                DatasetKind::Neu => 25,
            },
            Scale::Paper => paper,
        }
    }

    /// Augmented-pattern budget per run.
    pub fn augment_budget(self) -> usize {
        match self {
            Scale::Quick => 16,
            Scale::Medium => 60,
            Scale::Paper => 150,
        }
    }

    /// Epochs for the CNN end-model baselines.
    pub fn cnn_epochs(self) -> usize {
        match self {
            Scale::Quick => 6,
            Scale::Medium => 20,
            Scale::Paper => 30,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_tiny_alias() {
        assert_eq!(Scale::parse("tiny"), Ok(Scale::Quick));
        assert_eq!(Scale::parse("quick"), Ok(Scale::Quick));
        assert_eq!(Scale::parse("medium"), Ok(Scale::Medium));
        assert_eq!(Scale::parse("paper"), Ok(Scale::Paper));
    }

    #[test]
    fn parse_rejection_names_the_valid_tiers() {
        let err = Scale::parse("huge").err().unwrap_or_default();
        assert!(err.contains("huge"), "names the offending input: {err}");
        for tier in ["tiny", "quick", "medium", "paper"] {
            assert!(err.contains(tier), "names `{tier}`: {err}");
        }
    }

    #[test]
    fn budgets_grow_with_tier() {
        assert!(Scale::Quick.augment_budget() < Scale::Medium.augment_budget());
        assert!(Scale::Medium.augment_budget() < Scale::Paper.augment_budget());
        assert!(Scale::Quick.cnn_epochs() < Scale::Paper.cnn_epochs());
    }

    #[test]
    fn specs_follow_tier() {
        let kind = DatasetKind::Ksdd;
        assert_eq!(Scale::Quick.spec(kind, 1), DatasetSpec::quick(kind, 1));
        assert_eq!(Scale::Paper.spec(kind, 1), DatasetSpec::paper(kind, 1));
    }

    #[test]
    fn dev_target_matches_paper_at_paper_tier() {
        assert_eq!(
            Scale::Paper.dev_defective_target(DatasetKind::ProductScratch),
            76
        );
        assert_eq!(Scale::Paper.dev_defective_target(DatasetKind::Neu), 100);
    }
}
