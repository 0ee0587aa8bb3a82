//! Confusion matrices and the F1 family.
//!
//! The paper: "We use the F1 score, which is the harmonic mean between
//! precision and recall. [...] F1 is known to be more suitable for data
//! where the labels are imbalanced" (Section 6.1). Binary tasks report
//! positive-class F1; the multi-class NEU task reports macro-F1.

use ig_imaging::stats::is_effectively_zero_f64;

/// Precision / recall / F1 triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrfScores {
    /// |D ∩ P| / |P|.
    pub precision: f64,
    /// |D ∩ P| / |D|.
    pub recall: f64,
    /// Harmonic mean of the two; 0 when both are 0.
    pub f1: f64,
}

impl PrfScores {
    /// Combine raw counts into scores. Empty denominators yield zeros.
    pub fn from_counts(tp: usize, fp: usize, fn_: usize) -> Self {
        let precision = if tp + fp == 0 {
            0.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let recall = if tp + fn_ == 0 {
            0.0
        } else {
            tp as f64 / (tp + fn_) as f64
        };
        // An epsilon guard, not `== 0.0`: precision/recall reach this sum
        // through division, and a denormal-small sum must not survive into
        // the F1 division below and amplify into a garbage score.
        let f1 = if is_effectively_zero_f64(precision + recall) {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Self {
            precision,
            recall,
            f1,
        }
    }
}

/// A `k x k` confusion matrix; rows = gold class, columns = prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<usize>,
}

impl ConfusionMatrix {
    /// Empty matrix over `classes` classes.
    pub fn new(classes: usize) -> Self {
        Self {
            classes: classes.max(1),
            counts: vec![0; classes.max(1) * classes.max(1)],
        }
    }

    /// Build directly from parallel gold/prediction slices.
    pub fn from_pairs(classes: usize, gold: &[usize], pred: &[usize]) -> Self {
        assert_eq!(gold.len(), pred.len(), "gold/pred length mismatch");
        let mut cm = Self::new(classes);
        for (&g, &p) in gold.iter().zip(pred) {
            cm.record(g, p);
        }
        cm
    }

    /// Record one observation.
    pub fn record(&mut self, gold: usize, pred: usize) {
        assert!(gold < self.classes && pred < self.classes, "class overflow");
        self.counts[gold * self.classes + pred] += 1;
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Count for `(gold, pred)`.
    pub fn get(&self, gold: usize, pred: usize) -> usize {
        self.counts[gold * self.classes + pred]
    }

    /// Total observations.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Fraction of observations on the diagonal.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: usize = (0..self.classes).map(|c| self.get(c, c)).sum();
        correct as f64 / total as f64
    }

    /// Precision/recall/F1 treating `class` as the positive label.
    pub fn scores_for(&self, class: usize) -> PrfScores {
        let tp = self.get(class, class);
        let fp: usize = (0..self.classes)
            .filter(|&g| g != class)
            .map(|g| self.get(g, class))
            .sum();
        let fn_: usize = (0..self.classes)
            .filter(|&p| p != class)
            .map(|p| self.get(class, p))
            .sum();
        PrfScores::from_counts(tp, fp, fn_)
    }

    /// Unweighted mean of per-class F1 (the multi-class metric for NEU).
    pub fn macro_f1(&self) -> f64 {
        let sum: f64 = (0..self.classes).map(|c| self.scores_for(c).f1).sum();
        sum / self.classes as f64
    }
}

/// Positive-class F1 for binary gold/pred label slices (`true` = defect).
pub fn binary_f1(gold: &[bool], pred: &[bool]) -> PrfScores {
    assert_eq!(gold.len(), pred.len(), "gold/pred length mismatch");
    let mut tp = 0;
    let mut fp = 0;
    let mut fn_ = 0;
    for (&g, &p) in gold.iter().zip(pred) {
        match (g, p) {
            (true, true) => tp += 1,
            (false, true) => fp += 1,
            (true, false) => fn_ += 1,
            (false, false) => {}
        }
    }
    PrfScores::from_counts(tp, fp, fn_)
}

/// Macro-F1 over class-index slices.
pub fn macro_f1(classes: usize, gold: &[usize], pred: &[usize]) -> f64 {
    ConfusionMatrix::from_pairs(classes, gold, pred).macro_f1()
}

/// The task's F1 over class-index slices: positive-class F1 (class 1 is
/// the defect) when there are 2 classes, macro-F1 otherwise.
pub fn task_f1(classes: usize, gold: &[usize], pred: &[usize]) -> f64 {
    if classes == 2 {
        let g: Vec<bool> = gold.iter().map(|&v| v == 1).collect();
        let p: Vec<bool> = pred.iter().map(|&v| v == 1).collect();
        binary_f1(&g, &p).f1
    } else {
        macro_f1(classes, gold, pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_f1_dispatches_binary_and_macro() {
        let gold = [0usize, 1, 1, 0];
        assert_eq!(task_f1(2, &gold, &gold), 1.0);
        let gold3 = [0usize, 1, 2, 0];
        assert_eq!(task_f1(3, &gold3, &gold3), 1.0);
        let wrong = [1usize, 0, 0, 1];
        assert_eq!(task_f1(2, &gold, &wrong), 0.0);
    }

    #[test]
    fn perfect_binary_prediction() {
        let gold = [true, false, true, false];
        let s = binary_f1(&gold, &gold);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
        assert_eq!(s.f1, 1.0);
    }

    #[test]
    fn all_wrong_is_zero() {
        let gold = [true, false];
        let pred = [false, true];
        let s = binary_f1(&gold, &pred);
        assert_eq!(s.f1, 0.0);
    }

    #[test]
    fn known_binary_counts() {
        // tp=2, fp=1, fn=1 → P=2/3, R=2/3, F1=2/3.
        let gold = [true, true, true, false, false];
        let pred = [true, true, false, true, false];
        let s = binary_f1(&gold, &pred);
        assert!((s.precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.recall - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.f1 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_predictions_zero_precision() {
        let s = PrfScores::from_counts(0, 0, 5);
        assert_eq!(s.precision, 0.0);
        assert_eq!(s.recall, 0.0);
        assert_eq!(s.f1, 0.0);
    }

    #[test]
    fn f1_is_harmonic_mean() {
        let s = PrfScores::from_counts(1, 0, 1); // P=1, R=0.5
        assert!((s.f1 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn confusion_matrix_accuracy() {
        let gold = [0usize, 1, 2, 0, 1, 2];
        let pred = [0usize, 1, 2, 1, 1, 0];
        let cm = ConfusionMatrix::from_pairs(3, &gold, &pred);
        assert_eq!(cm.total(), 6);
        assert!((cm.accuracy() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(cm.get(0, 1), 1);
        assert_eq!(cm.get(2, 0), 1);
    }

    #[test]
    fn per_class_scores_match_binary_reduction() {
        let gold = [0usize, 0, 1, 1, 1];
        let pred = [0usize, 1, 1, 1, 0];
        let cm = ConfusionMatrix::from_pairs(2, &gold, &pred);
        let s = cm.scores_for(1);
        let gold_b: Vec<bool> = gold.iter().map(|&g| g == 1).collect();
        let pred_b: Vec<bool> = pred.iter().map(|&p| p == 1).collect();
        let b = binary_f1(&gold_b, &pred_b);
        assert!((s.f1 - b.f1).abs() < 1e-12);
        assert!((s.precision - b.precision).abs() < 1e-12);
    }

    #[test]
    fn macro_f1_perfect_multi_class() {
        let gold = [0usize, 1, 2, 0, 1, 2];
        assert_eq!(macro_f1(3, &gold, &gold), 1.0);
    }

    #[test]
    fn macro_f1_penalizes_minority_errors() {
        // Majority class right, minority class always wrong: macro-F1 is
        // dragged down even though accuracy is high.
        let gold: Vec<usize> = (0..100).map(|i| usize::from(i >= 95)).collect();
        let pred = vec![0usize; 100];
        let cm = ConfusionMatrix::from_pairs(2, &gold, &pred);
        assert!(cm.accuracy() > 0.9);
        assert!(cm.macro_f1() < 0.55);
    }

    #[test]
    fn empty_matrix_behaves() {
        let cm = ConfusionMatrix::new(3);
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.macro_f1(), 0.0);
    }

    #[test]
    #[should_panic(expected = "class overflow")]
    fn record_out_of_range_panics() {
        let mut cm = ConfusionMatrix::new(2);
        cm.record(2, 0);
    }
}
