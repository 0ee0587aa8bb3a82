//! In-memory content-addressed artifact store (tier 1 of 2).
//!
//! Artifacts are memoized stage outputs keyed by `(stage id, key
//! fingerprint)`; the key fingerprint is derived by [`crate::RunContext`]
//! from the stage's input fingerprint plus the run's seed and fault plan,
//! so a hit is only possible when replaying the exact same computation —
//! and the cached value is then bit-identical to what a recompute would
//! produce.
//!
//! The store is unbounded: artifacts stay resident until
//! [`ArtifactStore::clear`] or the store is dropped. A [`crate::DiskStore`] may be attached beneath
//! ([`ArtifactStore::attach_disk`]); the [`crate::RunContext`] consults it
//! for stages that declare [`crate::Stage::durable`], which is what makes
//! crash resume and cross-process warm starts work.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::disk::DiskStore;
use crate::fingerprint::Fingerprint;

/// Store key: stage identity plus the full input/seed/plan fingerprint.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    id: &'static str,
    fp: Fingerprint,
}

/// Thread-safe artifact cache shared by every stage under one
/// [`crate::RunContext`] (and its plan-scoped clones).
#[derive(Debug, Default)]
pub struct ArtifactStore {
    entries: Mutex<BTreeMap<Key, Arc<dyn Any + Send + Sync>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk: OnceLock<Arc<DiskStore>>,
}

impl ArtifactStore {
    /// Empty store with no disk tier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach the on-disk tier. Idempotent-at-most-once: the first disk
    /// wins and later attempts are ignored (the runtime attaches exactly
    /// one per store; racing attachers would otherwise split the cache).
    pub fn attach_disk(&self, disk: Arc<DiskStore>) {
        match self.disk.set(disk) {
            Ok(()) | Err(_) => {}
        }
    }

    /// The attached disk tier, if any.
    pub fn disk(&self) -> Option<&Arc<DiskStore>> {
        self.disk.get()
    }

    /// Look up an artifact; counts a hit or a miss.
    pub fn get(&self, id: &'static str, fp: Fingerprint) -> Option<Arc<dyn Any + Send + Sync>> {
        let found = self.lock().get(&Key { id, fp }).cloned();
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Insert (or replace) an artifact.
    pub fn insert(&self, id: &'static str, fp: Fingerprint, artifact: Arc<dyn Any + Send + Sync>) {
        self.lock().insert(Key { id, fp }, artifact);
    }

    /// Number of cached artifacts.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Lookups served from cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compute so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Drop every cached artifact (counters are kept).
    pub fn clear(&self) {
        self.lock().clear();
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<Key, Arc<dyn Any + Send + Sync>>> {
        // A poisoned map only means a panic elsewhere while holding the
        // lock; the map itself is always in a consistent state between
        // `get`/`insert` calls, so recover rather than propagate.
        self.entries.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Fingerprintable;

    #[test]
    fn get_after_insert_round_trips() {
        let store = ArtifactStore::new();
        let fp = 1u64.fingerprint();
        assert!(store.get("s", fp).is_none());
        store.insert("s", fp, Arc::new(vec![1u32, 2, 3]));
        let found = store
            .get("s", fp)
            .and_then(|a| a.downcast::<Vec<u32>>().ok());
        assert_eq!(found.as_deref(), Some(&vec![1u32, 2, 3]));
        assert_eq!((store.hits(), store.misses()), (1, 1));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn distinct_ids_do_not_collide() {
        let store = ArtifactStore::new();
        let fp = 7u64.fingerprint();
        store.insert("a", fp, Arc::new(1u32));
        assert!(store.get("b", fp).is_none());
    }

    #[test]
    fn clear_empties_the_store() {
        let store = ArtifactStore::new();
        store.insert("a", 1u64.fingerprint(), Arc::new(1u32));
        store.clear();
        assert!(store.is_empty());
    }

    #[test]
    fn attach_disk_is_first_wins() {
        let store = ArtifactStore::new();
        assert!(store.disk().is_none());
        let root = std::env::temp_dir().join(format!("ig-store-attach-{}", std::process::id()));
        let disk = match DiskStore::open(&root) {
            Ok(d) => Arc::new(d),
            Err(e) => panic!("open failed: {e}"),
        };
        store.attach_disk(disk.clone());
        let second = match DiskStore::open(&root) {
            Ok(d) => Arc::new(d),
            Err(e) => panic!("open failed: {e}"),
        };
        store.attach_disk(second);
        assert!(
            store.disk().is_some_and(|d| Arc::ptr_eq(d, &disk)),
            "first attached disk wins"
        );
    }
}
