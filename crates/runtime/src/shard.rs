//! Deterministic sharding: stream a dataset through the stage graph in
//! budget-sized slices instead of materializing it whole.
//!
//! The paper's datasets fit in memory at reproduction scale, but the
//! system they describe is an industrial labeling pipeline — the
//! interesting regime is when the image corpus does *not* fit. The
//! experiments' `ooc` driver models that regime honestly: a
//! [`ShardPlan`] divides a dataset's estimated resident bytes by the
//! driver's memory budget to pick a shard count, and a shard stage runs
//! once per [`ShardSpec`] through the ordinary [`crate::Stage`]
//! machinery. The workspace's shard stage is `ig-core`'s
//! `ComputeFeatureShard`, which computes one shard's rows of the feature
//! matrix; `ig_synth::generate_range` materializes one shard's slice of
//! a generated dataset, at the cost of one draw-only census over the
//! dataset's slots plus rendering the slice itself.
//!
//! Because a sharded run is just `count` small stage executions, every
//! existing runtime guarantee applies *per shard* with no new code:
//!
//! * memoization — a shard stage mixes the shard's coordinates into its
//!   fingerprint, so shard `3/8` of a dataset is a distinct artifact from
//!   shard `3/4` of the same dataset;
//! * crash resume — a killed sweep that completed shards `0..k` reloads
//!   them from the durable tier and recomputes only `k..count`;
//! * warm starts — a later sweep over the same store root reads every
//!   shard artifact an earlier one saved.
//!
//! Shard boundaries are pure functions of `(total, count)` — balanced to
//! within one item, never dependent on wall clock, thread count, or
//! arrival order — so the same plan always produces the same shards and
//! the same fingerprints.

use crate::fingerprint::{FingerprintHasher, Fingerprintable};

/// How many shards a dataset streams through, and where each one starts.
///
/// Construction is deliberately simple: `ceil(total_bytes / budget)`,
/// clamped to `[1, total_items]`. A budget of zero (unbounded) always
/// yields one shard covering everything, so callers can
/// route both modes through the same loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of items being sharded.
    pub total: usize,
    /// Number of shards (≥ 1; ≤ `total` unless `total` is 0).
    pub count: usize,
}

impl ShardPlan {
    /// One shard over everything — the monolithic degenerate case.
    pub fn single(total: usize) -> ShardPlan {
        ShardPlan { total, count: 1 }
    }

    /// Exactly `count` shards (clamped to `[1, max(total, 1)]`).
    pub fn with_count(total: usize, count: usize) -> ShardPlan {
        ShardPlan {
            total,
            count: count.clamp(1, total.max(1)),
        }
    }

    /// Shard count from a byte budget: the smallest count whose slices
    /// fit in `budget_bytes`, assuming items contribute uniformly to
    /// `total_bytes`. `budget_bytes == 0` means unbounded (one shard).
    pub fn for_budget(total_items: usize, total_bytes: u64, budget_bytes: u64) -> ShardPlan {
        if budget_bytes == 0 || total_bytes <= budget_bytes {
            return ShardPlan::single(total_items);
        }
        let count = total_bytes.div_ceil(budget_bytes);
        let count = usize::try_from(count).unwrap_or(usize::MAX);
        ShardPlan::with_count(total_items, count)
    }

    /// The `index`-th shard's range. Shards are balanced to within one
    /// item: the first `total % count` shards carry one extra.
    pub fn shard(&self, index: usize) -> ShardSpec {
        debug_assert!(index < self.count, "shard {index} of {}", self.count);
        let base = self.total / self.count;
        let rem = self.total % self.count;
        let start = index * base + index.min(rem);
        let len = base + usize::from(index < rem);
        ShardSpec {
            index,
            count: self.count,
            start,
            end: start + len,
        }
    }

    /// All shards, in order. Concatenating their ranges reproduces
    /// `0..total` exactly.
    pub fn shards(&self) -> Vec<ShardSpec> {
        (0..self.count).map(|i| self.shard(i)).collect()
    }
}

/// One shard's coordinates: which slice of the item space it covers and
/// where it sits in the plan.
///
/// All four fields reach the fingerprint — `start..end` alone is not
/// enough, because invalidation must also track *how* the dataset was
/// divided (shard `0` of 2 and shard `0` of 4 may share a prefix of the
/// range space yet belong to incompatible streaming runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Position in the plan (`0..count`).
    pub index: usize,
    /// Total shards in the plan.
    pub count: usize,
    /// First item covered (inclusive).
    pub start: usize,
    /// One past the last item covered.
    pub end: usize,
}

impl ShardSpec {
    /// Number of items this shard covers.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the shard covers nothing.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

impl Fingerprintable for ShardSpec {
    fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        h.write_usize(self.index);
        h.write_usize(self.count);
        h.write_usize(self.start);
        h.write_usize(self.end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_zero_means_one_shard() {
        assert_eq!(
            ShardPlan::for_budget(100, 1 << 30, 0),
            ShardPlan::single(100)
        );
    }

    #[test]
    fn budget_covering_everything_means_one_shard() {
        assert_eq!(ShardPlan::for_budget(100, 500, 500).count, 1);
        assert_eq!(ShardPlan::for_budget(100, 499, 500).count, 1);
    }

    #[test]
    fn count_is_ceil_of_bytes_over_budget() {
        assert_eq!(ShardPlan::for_budget(100, 1000, 250).count, 4);
        assert_eq!(ShardPlan::for_budget(100, 1001, 250).count, 5);
    }

    #[test]
    fn count_never_exceeds_items() {
        let plan = ShardPlan::for_budget(3, 1 << 40, 1);
        assert_eq!(plan.count, 3, "at most one item per shard");
        let empty = ShardPlan::for_budget(0, 10, 1);
        assert_eq!(empty.count, 1, "zero items still form one empty shard");
        assert!(empty.shard(0).is_empty());
    }

    #[test]
    fn shards_partition_the_range_in_order() {
        for (total, count) in [(10, 3), (7, 7), (9, 1), (100, 8), (5, 4)] {
            let plan = ShardPlan::with_count(total, count);
            let shards = plan.shards();
            assert_eq!(shards.len(), plan.count);
            let mut cursor = 0usize;
            for (i, s) in shards.iter().enumerate() {
                assert_eq!(s.index, i);
                assert_eq!(s.count, plan.count);
                assert_eq!(s.start, cursor, "contiguous at shard {i}");
                assert!(s.end >= s.start);
                cursor = s.end;
            }
            assert_eq!(cursor, total, "covers everything");
            // Balanced to within one item.
            let lens: Vec<usize> = shards.iter().map(ShardSpec::len).collect();
            let (min, max) = (lens.iter().min(), lens.iter().max());
            if let (Some(&min), Some(&max)) = (min, max) {
                assert!(max - min <= 1, "{total}/{count}: {lens:?}");
            }
        }
    }

    #[test]
    fn shard_fingerprints_cover_all_coordinates() {
        let base = ShardSpec {
            index: 0,
            count: 2,
            start: 0,
            end: 5,
        };
        let variants = [
            ShardSpec { index: 1, ..base },
            ShardSpec { count: 4, ..base },
            ShardSpec { start: 1, ..base },
            ShardSpec { end: 6, ..base },
        ];
        for v in &variants {
            assert_ne!(base.fingerprint(), v.fingerprint(), "{v:?}");
        }
    }
}
