//! End-to-end durability drills against the public runtime API: a killed
//! sweep resumes bit-identically from the durable tier, corruption is
//! quarantined and recomputed through, injected storage faults (torn
//! writes, bit flips) are survived and recorded.

use core::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ig_faults::{FaultKind, FaultPlan, RecoveryAction};
use ig_runtime::{
    infallible, Dec, DiskStore, Enc, Fingerprint, Fingerprintable, RunContext, Stage,
};

/// Durable stage: output is a pure function of `input` and the
/// run seed; `calls` counts real executions, so a disk hit (no recompute)
/// is observable. Persists through the read-through path like every
/// durable stage.
struct Summer<'a> {
    input: Vec<u64>,
    calls: &'a AtomicUsize,
}

impl Stage for Summer<'_> {
    type Output = Vec<u64>;
    type Error = Infallible;

    fn id(&self) -> &'static str {
        "it.summer"
    }

    fn fingerprint(&self) -> Fingerprint {
        self.input.fingerprint()
    }

    fn durable(&self) -> bool {
        true
    }

    fn run(&mut self, ctx: &RunContext) -> Result<Vec<u64>, Infallible> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let mut acc = ctx.seed();
        Ok(self
            .input
            .iter()
            .map(|v| {
                acc = acc.wrapping_add(*v);
                acc
            })
            .collect())
    }

    fn encode(&self, output: &Vec<u64>) -> Option<Vec<u8>> {
        let mut enc = Enc::new();
        enc.put_usize(output.len());
        for &v in output {
            enc.put_u64(v);
        }
        Some(enc.into_bytes())
    }

    fn decode(&self, bytes: &[u8]) -> Option<Vec<u64>> {
        let mut dec = Dec::new(bytes);
        let len = dec.usize_()?;
        let mut out = Vec::new();
        for _ in 0..len {
            out.push(dec.u64()?);
        }
        dec.done().then_some(out)
    }
}

fn fresh_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("ig-dur-{tag}-{}", std::process::id()));
    match std::fs::remove_dir_all(&root) {
        // Leftovers from a previous run of this same test, if any.
        Ok(()) | Err(_) => {}
    }
    root
}

fn open_store(root: &std::path::Path) -> Arc<DiskStore> {
    match DiskStore::open(root) {
        Ok(store) => Arc::new(store),
        Err(e) => panic!("store open failed: {e}"),
    }
}

fn stage_inputs() -> Vec<Vec<u64>> {
    (0..16u64).map(|i| vec![i, i * 3 + 1, i ^ 0xff]).collect()
}

/// A "sweep" killed halfway through resumes from the durable store: the
/// finished half comes back without recomputation, the rest computes
/// fresh, and every artifact is bit-identical to an uninterrupted run.
#[test]
fn killed_sweep_resumes_bit_identically() {
    let root = fresh_root("resume");
    let inputs = stage_inputs();

    // Reference: the uninterrupted run.
    let reference: Vec<Vec<u64>> = {
        let calls = AtomicUsize::new(0);
        let ctx = RunContext::new(11);
        inputs
            .iter()
            .map(|input| {
                (*infallible(ctx.run(&mut Summer {
                    input: input.clone(),
                    calls: &calls,
                })))
                .clone()
            })
            .collect()
    };

    // "Crash": a store-backed context that only gets through half the
    // sweep before being dropped.
    let calls = AtomicUsize::new(0);
    {
        let ctx = RunContext::new(11).with_disk(open_store(&root));
        for input in inputs.iter().take(8) {
            let _done = infallible(ctx.run(&mut Summer {
                input: input.clone(),
                calls: &calls,
            }));
        }
    }
    assert_eq!(calls.load(Ordering::Relaxed), 8);

    // Resume: a fresh process (fresh context + reopened store) finishes
    // the sweep. Only the unfinished half runs.
    let disk = open_store(&root);
    let resumed_ctx = RunContext::new(11).with_disk(Arc::clone(&disk));
    let resumed: Vec<Vec<u64>> = inputs
        .iter()
        .map(|input| {
            (*infallible(resumed_ctx.run(&mut Summer {
                input: input.clone(),
                calls: &calls,
            })))
            .clone()
        })
        .collect();
    assert_eq!(resumed, reference, "resume must be bit-identical");
    assert_eq!(calls.load(Ordering::Relaxed), 16, "half hit, half computed");
    assert_eq!(disk.stats().hits, 8);
    assert!(resumed_ctx.health().is_clean());
}

/// Injected storage faults: a plan tearing and bit-flipping writes
/// cannot corrupt results. The faulted cold run and
/// the warm rerun both produce clean outputs, and the health report
/// names every fault class with its recovery.
#[test]
fn injected_store_faults_are_survived_and_recorded() {
    let root = fresh_root("inject");
    let inputs = stage_inputs();
    let keyer = RunContext::new(11);
    let key_calls = AtomicUsize::new(0);
    let keys: Vec<u64> = inputs
        .iter()
        .map(|input| {
            keyer
                .cache_key_for(&Summer {
                    input: input.clone(),
                    calls: &key_calls,
                })
                .lo
        })
        .collect();
    // A plan whose deterministic draws hit every fault class over these
    // sixteen artifacts (and leave at least one intact).
    let plan = (0..10_000u64)
        .map(FaultPlan::durability)
        .find(|p| {
            keys.iter().any(|&k| p.torn_write(k))
                && keys.iter().any(|&k| p.artifact_bitflip(k))
                && keys
                    .iter()
                    .any(|&k| !p.torn_write(k) && !p.artifact_bitflip(k))
        })
        .expect("some durability seed covers every fault class");

    let reference: Vec<Vec<u64>> = inputs
        .iter()
        .map(|input| {
            (*infallible(keyer.run(&mut Summer {
                input: input.clone(),
                calls: &key_calls,
            })))
            .clone()
        })
        .collect();

    // Cold pass: every write goes through the faulted store.
    let calls = AtomicUsize::new(0);
    let cold_ctx = RunContext::new(11)
        .with_plan(Some(plan.clone()))
        .with_disk(open_store(&root));
    let cold: Vec<Vec<u64>> = inputs
        .iter()
        .map(|input| {
            (*infallible(cold_ctx.run(&mut Summer {
                input: input.clone(),
                calls: &calls,
            })))
            .clone()
        })
        .collect();
    assert_eq!(cold, reference, "faulted writes never affect results");

    // Warm pass: a fresh context over the damaged store. Torn and
    // bit-flipped artifacts are quarantined and recomputed; intact ones
    // are served from disk.
    let disk = open_store(&root);
    let warm_ctx = RunContext::new(11)
        .with_plan(Some(plan))
        .with_disk(Arc::clone(&disk));
    let warm: Vec<Vec<u64>> = inputs
        .iter()
        .map(|input| {
            (*infallible(warm_ctx.run(&mut Summer {
                input: input.clone(),
                calls: &calls,
            })))
            .clone()
        })
        .collect();
    assert_eq!(warm, reference, "recovery is transparent");
    assert!(warm_ctx.health().count(FaultKind::ArtifactCorruption) >= 1);
    assert!(
        warm_ctx
            .health()
            .count_action(RecoveryAction::QuarantinedArtifact)
            >= 1
    );
    let stats = disk.stats();
    assert!(stats.hits >= 1, "intact artifacts come back from disk");
    assert!(stats.quarantined >= 1);
    // Quarantined copies are preserved for post-mortems.
    let quarantine = disk.root().join("_quarantine");
    match std::fs::read_dir(quarantine) {
        Ok(entries) => assert!(entries.count() >= 1),
        Err(e) => panic!("quarantine dir missing: {e}"),
    }
}
