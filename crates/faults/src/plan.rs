//! Deterministic, seeded chaos plans.

use ig_imaging::stats::is_effectively_zero_f64;

/// Fault forced onto a GAN training epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GanFault {
    /// Make the losses explode / go non-finite.
    Diverge,
    /// Collapse the generator onto a single output mode.
    Collapse,
}

/// A deterministic chaos plan.
///
/// Every decision is a pure function of `(seed, site, index)` via a
/// SplitMix64 hash, so a plan injects the *same* faults on every run and
/// on every thread — no shared RNG, no ordering sensitivity. The default
/// plan has every rate at zero and every switch off: it injects nothing,
/// and pipelines treat `Some(&FaultPlan::default())` identically to
/// `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every decision.
    pub seed: u64,
    /// Probability a computed feature value is replaced by NaN.
    pub nan_feature_rate: f64,
    /// Probability a computed feature value is replaced by +/- infinity.
    pub inf_feature_rate: f64,
    /// Probability a crowd pattern is flattened to constant gray
    /// (zero variance — it can never match anything).
    pub degenerate_pattern_rate: f64,
    /// Probability a crowd worker silently produces no annotations.
    pub crowd_no_show_rate: f64,
    /// Probability a crowd worker is a spammer emitting random boxes.
    pub crowd_spammer_rate: f64,
    /// Probability a parallel feature-worker chunk panics mid-compute.
    pub worker_panic_rate: f64,
    /// Probability an L-BFGS evaluation returns a non-finite loss.
    pub lbfgs_poison_rate: f64,
    /// Probability a durable-store write lands truncated (a torn write:
    /// the file exists but its payload stops short of the declared length).
    pub torn_write_rate: f64,
    /// Probability one payload bit of a durable-store write is flipped
    /// after its checksum was computed (silent media corruption).
    pub artifact_bitflip_rate: f64,
    /// Epoch at which GAN training is forced to misbehave, if any.
    pub gan_fault_epoch: Option<usize>,
    /// What the GAN fault looks like when `gan_fault_epoch` fires.
    pub gan_fault: GanFault,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            nan_feature_rate: 0.0,
            inf_feature_rate: 0.0,
            degenerate_pattern_rate: 0.0,
            crowd_no_show_rate: 0.0,
            crowd_spammer_rate: 0.0,
            worker_panic_rate: 0.0,
            lbfgs_poison_rate: 0.0,
            torn_write_rate: 0.0,
            artifact_bitflip_rate: 0.0,
            gan_fault_epoch: None,
            gan_fault: GanFault::Diverge,
        }
    }
}

impl FaultPlan {
    /// Empty plan: injects nothing.
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Preset exercising every fault class at moderate rates.
    pub fn chaos(seed: u64) -> Self {
        Self {
            seed,
            nan_feature_rate: 0.02,
            inf_feature_rate: 0.01,
            degenerate_pattern_rate: 0.15,
            crowd_no_show_rate: 0.25,
            crowd_spammer_rate: 0.25,
            worker_panic_rate: 0.25,
            lbfgs_poison_rate: 0.02,
            gan_fault_epoch: Some(1),
            gan_fault: GanFault::Diverge,
            ..Self::default()
        }
    }

    /// Preset exercising only the durable-store fault classes (torn
    /// writes and bit flips) at rates high enough that a handful of
    /// artifacts hits every class.
    pub fn durability(seed: u64) -> Self {
        Self {
            seed,
            torn_write_rate: 0.3,
            artifact_bitflip_rate: 0.3,
            ..Self::default()
        }
    }

    /// True when the plan can never inject anything. Rates below the
    /// effective-zero threshold count as off: `decide` compares a hash
    /// against `rate`, and a denormal-small rate never wins a draw.
    pub fn is_empty(&self) -> bool {
        [
            self.nan_feature_rate,
            self.inf_feature_rate,
            self.degenerate_pattern_rate,
            self.crowd_no_show_rate,
            self.crowd_spammer_rate,
            self.worker_panic_rate,
            self.lbfgs_poison_rate,
            self.torn_write_rate,
            self.artifact_bitflip_rate,
        ]
        .iter()
        .all(|&r| is_effectively_zero_f64(r))
            && self.gan_fault_epoch.is_none()
    }

    /// Deterministic biased coin for `(site, index)` at probability `rate`.
    pub fn decide(&self, site: &str, index: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let mut h = self.seed ^ 0x9E3779B97F4A7C15;
        for b in site.bytes() {
            h = h.wrapping_mul(0x100000001B3) ^ b as u64;
        }
        h ^= index.wrapping_mul(0xD1B54A32D192ED03);
        let unit = (splitmix64(h) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < rate
    }

    /// Corrupt one feature value per the NaN/Inf rates. Returns the value
    /// unchanged when no fault fires for this `(row, col)` cell.
    pub fn corrupt_feature(&self, row: usize, col: usize, value: f32) -> f32 {
        let index = (row as u64) << 32 | col as u64;
        if self.decide("feature-nan", index, self.nan_feature_rate) {
            f32::NAN
        } else if self.decide("feature-inf", index, self.inf_feature_rate) {
            if index & 1 == 0 {
                f32::INFINITY
            } else {
                f32::NEG_INFINITY
            }
        } else {
            value
        }
    }

    /// Should pattern `idx` be flattened to constant gray?
    pub fn degenerate_pattern(&self, idx: usize) -> bool {
        self.decide(
            "degenerate-pattern",
            idx as u64,
            self.degenerate_pattern_rate,
        )
    }

    /// Should crowd worker `idx` be a no-show?
    pub fn crowd_no_show(&self, idx: usize) -> bool {
        self.decide("crowd-no-show", idx as u64, self.crowd_no_show_rate)
    }

    /// Should crowd worker `idx` be a spammer? (No-show wins when both fire.)
    pub fn crowd_spammer(&self, idx: usize) -> bool {
        !self.crowd_no_show(idx)
            && self.decide("crowd-spammer", idx as u64, self.crowd_spammer_rate)
    }

    /// Should feature-worker chunk `idx` panic?
    pub fn worker_panic(&self, idx: usize) -> bool {
        self.decide("worker-panic", idx as u64, self.worker_panic_rate)
    }

    /// Should L-BFGS evaluation `iter` return a poisoned (NaN) loss?
    pub fn poison_loss(&self, iter: usize) -> bool {
        self.decide("lbfgs-poison", iter as u64, self.lbfgs_poison_rate)
    }

    /// Should the durable write of artifact `key` land truncated?
    /// `key` is the low word of the artifact's content fingerprint, so
    /// the decision is a pure function of *which* artifact is written.
    pub fn torn_write(&self, key: u64) -> bool {
        self.decide("store-torn-write", key, self.torn_write_rate)
    }

    /// Should one payload bit of artifact `key` be flipped after its
    /// checksum was computed? (Torn write wins when both fire.)
    pub fn artifact_bitflip(&self, key: u64) -> bool {
        !self.torn_write(key) && self.decide("store-bitflip", key, self.artifact_bitflip_rate)
    }

    /// GAN fault scheduled for `epoch`, if any.
    pub fn gan_fault_at(&self, epoch: usize) -> Option<GanFault> {
        match self.gan_fault_epoch {
            Some(e) if e == epoch => Some(self.gan_fault),
            _ => None,
        }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        for i in 0..1000 {
            assert!(!plan.degenerate_pattern(i));
            assert!(!plan.worker_panic(i));
            assert!(!plan.poison_loss(i));
            assert!(plan.corrupt_feature(i, i, 0.5).is_finite());
        }
        assert_eq!(plan.gan_fault_at(0), None);
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::chaos(42);
        let b = FaultPlan::chaos(42);
        for i in 0..500 {
            assert_eq!(a.decide("site", i, 0.3), b.decide("site", i, 0.3));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::chaos(1);
        let b = FaultPlan::chaos(2);
        let disagreements = (0..500)
            .filter(|&i| a.decide("site", i, 0.5) != b.decide("site", i, 0.5))
            .count();
        assert!(disagreements > 50, "seeds should decorrelate decisions");
    }

    #[test]
    fn rates_are_roughly_honored() {
        let plan = FaultPlan::chaos(7);
        let hits = (0..10_000)
            .filter(|&i| plan.decide("rate-check", i, 0.2))
            .count();
        assert!(
            (1500..2500).contains(&hits),
            "expected ~2000 hits at rate 0.2, got {hits}"
        );
    }

    #[test]
    fn durability_preset_fires_every_store_fault_class() {
        let plan = FaultPlan::durability(5);
        assert!(!plan.is_empty());
        assert!((0..40).any(|k| plan.torn_write(k)));
        assert!((0..40).any(|k| plan.artifact_bitflip(k)));
        // Clean plans never fire them.
        let none = FaultPlan::none(5);
        assert!((0..1000).all(|k| !none.torn_write(k) && !none.artifact_bitflip(k)));
    }

    #[test]
    fn torn_write_and_bitflip_are_exclusive() {
        let plan = FaultPlan {
            seed: 9,
            torn_write_rate: 0.5,
            artifact_bitflip_rate: 0.5,
            ..FaultPlan::default()
        };
        for k in 0..300 {
            assert!(!(plan.torn_write(k) && plan.artifact_bitflip(k)));
        }
    }

    #[test]
    fn no_show_and_spammer_are_exclusive() {
        let plan = FaultPlan {
            seed: 3,
            crowd_no_show_rate: 0.5,
            crowd_spammer_rate: 0.5,
            ..FaultPlan::default()
        };
        for i in 0..200 {
            assert!(!(plan.crowd_no_show(i) && plan.crowd_spammer(i)));
        }
    }

    #[test]
    fn chaos_preset_fires_every_class() {
        let plan = FaultPlan::chaos(11);
        assert!((0..50).any(|i| plan.degenerate_pattern(i)));
        assert!((0..50).any(|i| plan.crowd_no_show(i)));
        assert!((0..50).any(|i| plan.crowd_spammer(i)));
        assert!((0..50).any(|i| plan.worker_panic(i)));
        assert!((0..500).any(|i| plan.poison_loss(i)));
        assert!((0..2000)
            .flat_map(|r| (0..8).map(move |c| (r, c)))
            .any(|(r, c)| !plan.corrupt_feature(r, c, 0.5).is_finite()));
        assert_eq!(plan.gan_fault_at(1), Some(GanFault::Diverge));
    }
}
