//! Health events and the thread-safe report that collects them.

use std::fmt;
use std::sync::Mutex;

/// Pipeline stage where a fault was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Crowd annotation / combination / peer review.
    Crowd,
    /// Pattern augmentation (policies and GAN).
    Augmentation,
    /// Feature generation (template matching).
    Features,
    /// Architecture tuning / cross-validation.
    Tuning,
    /// Labeler training (L-BFGS).
    Training,
    /// Durable artifact store (on-disk persistence tier).
    Store,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Stage::Crowd => "crowd",
            Stage::Augmentation => "augmentation",
            Stage::Features => "features",
            Stage::Tuning => "tuning",
            Stage::Training => "training",
            Stage::Store => "store",
        };
        f.write_str(s)
    }
}

/// Class of fault detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A feature value came back NaN or infinite.
    NonFiniteFeature,
    /// A pattern has (near-)zero variance and can never match anything.
    DegeneratePattern,
    /// A parallel feature worker thread panicked.
    WorkerPanic,
    /// Template matching returned an error for an image/pattern pair.
    MatchError,
    /// A crowd worker produced no annotations at all.
    CrowdNoShow,
    /// A crowd worker produced garbage (spam) annotations.
    CrowdSpammer,
    /// L-BFGS hit a non-finite loss or gradient.
    LbfgsDivergence,
    /// Architecture tuning failed outright.
    TuningFailure,
    /// Labeler training failed even after retries.
    TrainingFailure,
    /// GAN losses diverged (exploded or went non-finite).
    GanDivergence,
    /// GAN generator collapsed to near-identical outputs.
    GanModeCollapse,
    /// An on-disk artifact failed integrity verification (bad magic,
    /// truncated/torn file, checksum or key mismatch, undecodable payload).
    ArtifactCorruption,
    /// The durable store hit an OS-level I/O error (persistence skipped;
    /// the in-memory tier still serves the artifact).
    StoreIoError,
    /// A pipeline step could not produce its output and its arm was
    /// abandoned (the chaos arm records one when every crowd worker was
    /// faulted away and no pattern is left to train on).
    StageFailure,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::NonFiniteFeature => "non-finite feature",
            FaultKind::DegeneratePattern => "degenerate pattern",
            FaultKind::WorkerPanic => "worker panic",
            FaultKind::MatchError => "match error",
            FaultKind::CrowdNoShow => "crowd no-show",
            FaultKind::CrowdSpammer => "crowd spammer",
            FaultKind::LbfgsDivergence => "l-bfgs divergence",
            FaultKind::TuningFailure => "tuning failure",
            FaultKind::TrainingFailure => "training failure",
            FaultKind::GanDivergence => "gan divergence",
            FaultKind::GanModeCollapse => "gan mode collapse",
            FaultKind::ArtifactCorruption => "artifact corruption",
            FaultKind::StoreIoError => "store i/o error",
            FaultKind::StageFailure => "stage failure",
        };
        f.write_str(s)
    }
}

/// Recovery action taken in response to a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryAction {
    /// Replaced the offending value with a safe default.
    SanitizedValue,
    /// Removed the pattern from the working set.
    QuarantinedPattern,
    /// Recomputed the affected chunk serially on the calling thread.
    SerialRecompute,
    /// Dropped the worker's annotations from combination.
    ExcludedWorker,
    /// Restarted optimization from jittered parameters.
    RestartedWithJitter,
    /// Skipped tuning and used the fixed fallback architecture.
    FallbackFixedArchitecture,
    /// Fell back to the class-prior labeler (no trained MLP).
    FallbackClassPrior,
    /// Rolled GAN parameters back to the best recorded snapshot.
    RolledBackSnapshot,
    /// Dropped GAN output and used policy-based augmentation only.
    PolicyOnlyAugmentation,
    /// Moved the corrupt on-disk artifact aside and recomputed it.
    QuarantinedArtifact,
    /// Fault was recorded but needed no intervention.
    NoneRequired,
}

impl fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RecoveryAction::SanitizedValue => "sanitized value",
            RecoveryAction::QuarantinedPattern => "quarantined pattern",
            RecoveryAction::SerialRecompute => "serial recompute",
            RecoveryAction::ExcludedWorker => "excluded worker",
            RecoveryAction::RestartedWithJitter => "restarted with jitter",
            RecoveryAction::FallbackFixedArchitecture => "fallback fixed architecture",
            RecoveryAction::FallbackClassPrior => "fallback class prior",
            RecoveryAction::RolledBackSnapshot => "rolled back snapshot",
            RecoveryAction::PolicyOnlyAugmentation => "policy-only augmentation",
            RecoveryAction::QuarantinedArtifact => "quarantined artifact",
            RecoveryAction::NoneRequired => "none required",
        };
        f.write_str(s)
    }
}

/// One detected fault and the recovery applied to it.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthEvent {
    /// Stage that detected the fault.
    pub stage: Stage,
    /// Fault class.
    pub kind: FaultKind,
    /// Recovery taken.
    pub action: RecoveryAction,
    /// Human-readable context (pattern index, iteration number, ...).
    pub detail: String,
}

impl fmt::Display for HealthEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} -> {} ({})",
            self.stage, self.kind, self.action, self.detail
        )
    }
}

/// Thread-safe sink of [`HealthEvent`]s produced during a pipeline run.
///
/// Recording takes `&self` so the report can be shared across parallel
/// feature workers. A lock poisoned by a panicking worker is recovered
/// rather than propagated — losing a report line is better than losing
/// the run.
#[derive(Debug, Default)]
pub struct HealthReport {
    events: Mutex<Vec<HealthEvent>>,
}

impl HealthReport {
    /// Empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one event.
    pub fn record(&self, stage: Stage, kind: FaultKind, action: RecoveryAction, detail: String) {
        self.lock().push(HealthEvent {
            stage,
            kind,
            action,
            detail,
        });
    }

    /// Snapshot of all events in recording order.
    pub fn events(&self) -> Vec<HealthEvent> {
        self.lock().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no fault has been recorded.
    pub fn is_clean(&self) -> bool {
        self.lock().is_empty()
    }

    /// Alias of [`HealthReport::is_clean`] (pairs with [`HealthReport::len`]).
    pub fn is_empty(&self) -> bool {
        self.is_clean()
    }

    /// Number of events of the given fault class.
    pub fn count(&self, kind: FaultKind) -> usize {
        self.lock().iter().filter(|e| e.kind == kind).count()
    }

    /// Number of events that applied the given recovery.
    pub fn count_action(&self, action: RecoveryAction) -> usize {
        self.lock().iter().filter(|e| e.action == action).count()
    }

    /// Move all events from `other` into `self` (in order).
    pub fn absorb(&self, other: &HealthReport) {
        let mut moved = std::mem::take(&mut *other.lock());
        self.lock().append(&mut moved);
    }

    /// Copy all events from `other` into `self` (in order), leaving
    /// `other` intact — the aggregation used when a run-wide report
    /// mirrors a per-training-call report that the model keeps.
    pub fn merge(&self, other: &HealthReport) {
        let copied = other.events();
        self.lock().extend(copied);
    }

    /// Aggregate the report into a serializable [`HealthSummary`]:
    /// per-kind counts in first-seen order plus the recovered /
    /// unrecovered split that drives driver exit-code policy.
    pub fn summary(&self) -> HealthSummary {
        let events = self.lock();
        let mut by_kind: Vec<FaultCount> = Vec::new();
        let mut recovered = 0usize;
        let mut unrecovered = 0usize;
        for e in events.iter() {
            let kind = e.kind.to_string();
            match by_kind.iter_mut().find(|c| c.kind == kind) {
                Some(c) => c.count += 1,
                None => by_kind.push(FaultCount { kind, count: 1 }),
            }
            if e.action == RecoveryAction::NoneRequired {
                unrecovered += 1;
            } else {
                recovered += 1;
            }
        }
        HealthSummary {
            total_faults: events.len(),
            recovered,
            unrecovered,
            by_kind,
        }
    }

    /// Multi-line human-readable rendering.
    pub fn render(&self) -> String {
        let events = self.lock();
        if events.is_empty() {
            return "health: clean (no faults detected)".to_string();
        }
        let mut out = format!("health: {} fault(s) detected\n", events.len());
        for e in events.iter() {
            out.push_str(&format!("  {e}\n"));
        }
        out
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<HealthEvent>> {
        self.events.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl Clone for HealthReport {
    fn clone(&self) -> Self {
        Self {
            events: Mutex::new(self.events()),
        }
    }
}

/// One fault class and how often it fired (see [`HealthReport::summary`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultCount {
    /// Display name of the fault class.
    pub kind: String,
    /// Events of that class.
    pub count: usize,
}

/// Serializable roll-up of a [`HealthReport`], embedded in driver JSON so
/// a sweep's output distinguishes "clean" from "completed with recovered
/// faults" without replaying the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthSummary {
    /// Total events recorded.
    pub total_faults: usize,
    /// Events where a recovery action was applied.
    pub recovered: usize,
    /// Events recorded with [`RecoveryAction::NoneRequired`] (observed,
    /// nothing to roll back).
    pub unrecovered: usize,
    /// Per-kind counts in first-seen order.
    pub by_kind: Vec<FaultCount>,
}

impl HealthSummary {
    /// True when no fault was recorded at all.
    pub fn is_clean(&self) -> bool {
        self.total_faults == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let report = HealthReport::new();
        assert!(report.is_clean());
        report.record(
            Stage::Features,
            FaultKind::NonFiniteFeature,
            RecoveryAction::SanitizedValue,
            "row 3 col 1".into(),
        );
        report.record(
            Stage::Training,
            FaultKind::LbfgsDivergence,
            RecoveryAction::RestartedWithJitter,
            "iter 7".into(),
        );
        assert!(!report.is_clean());
        assert_eq!(report.len(), 2);
        assert_eq!(report.count(FaultKind::NonFiniteFeature), 1);
        assert_eq!(report.count_action(RecoveryAction::RestartedWithJitter), 1);
        assert_eq!(report.count(FaultKind::GanDivergence), 0);
    }

    #[test]
    fn absorb_moves_events() {
        let a = HealthReport::new();
        let b = HealthReport::new();
        b.record(
            Stage::Crowd,
            FaultKind::CrowdNoShow,
            RecoveryAction::ExcludedWorker,
            "worker 2".into(),
        );
        a.absorb(&b);
        assert_eq!(a.len(), 1);
        assert!(b.is_clean());
    }

    #[test]
    fn render_mentions_every_event() {
        let report = HealthReport::new();
        assert!(report.render().contains("clean"));
        report.record(
            Stage::Augmentation,
            FaultKind::GanModeCollapse,
            RecoveryAction::PolicyOnlyAugmentation,
            "epoch 12".into(),
        );
        let text = report.render();
        assert!(text.contains("gan mode collapse"));
        assert!(text.contains("policy-only augmentation"));
    }

    #[test]
    fn summary_counts_and_recovery_split() {
        let report = HealthReport::new();
        assert!(report.summary().is_clean());
        report.record(
            Stage::Store,
            FaultKind::ArtifactCorruption,
            RecoveryAction::QuarantinedArtifact,
            "checksum mismatch".into(),
        );
        report.record(
            Stage::Store,
            FaultKind::ArtifactCorruption,
            RecoveryAction::QuarantinedArtifact,
            "torn file".into(),
        );
        report.record(
            Stage::Crowd,
            FaultKind::StageFailure,
            RecoveryAction::NoneRequired,
            "empty crowd output".into(),
        );
        let summary = report.summary();
        assert_eq!(summary.total_faults, 3);
        assert_eq!(summary.recovered, 2);
        assert_eq!(summary.unrecovered, 1);
        assert_eq!(
            summary.by_kind,
            vec![
                FaultCount {
                    kind: "artifact corruption".into(),
                    count: 2
                },
                FaultCount {
                    kind: "stage failure".into(),
                    count: 1
                },
            ]
        );
        assert!(!summary.is_clean());
    }

    #[test]
    fn shared_across_threads() {
        let report = std::sync::Arc::new(HealthReport::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let r = std::sync::Arc::clone(&report);
                s.spawn(move || {
                    r.record(
                        Stage::Features,
                        FaultKind::MatchError,
                        RecoveryAction::SanitizedValue,
                        format!("thread {t}"),
                    );
                });
            }
        });
        assert_eq!(report.len(), 4);
    }
}
