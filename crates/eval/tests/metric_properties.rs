//! Property tests for metric invariants.

use ig_check::{assume, ensure, ensure_eq, properties};
use ig_eval::metrics::{binary_f1, macro_f1, ConfusionMatrix, PrfScores};
use rand::Rng;

properties! {
    cases = 128;

    fn f1_family_bounded(g) {
        let tp = g.gen_range(0usize..100);
        let fp = g.gen_range(0usize..100);
        let fn_ = g.gen_range(0usize..100);
        let s = PrfScores::from_counts(tp, fp, fn_);
        ensure!((0.0..=1.0).contains(&s.precision));
        ensure!((0.0..=1.0).contains(&s.recall));
        ensure!((0.0..=1.0).contains(&s.f1));
        // F1 is at most min(P, R) * 2 / (1 + min/max) ≤ max(P, R) and at
        // least min(P, R) when both positive — use the loose envelope.
        ensure!(s.f1 <= s.precision.max(s.recall) + 1e-12);
        if s.precision > 0.0 && s.recall > 0.0 {
            ensure!(s.f1 >= s.precision.min(s.recall) - 1e-12);
        }
    }

    fn binary_f1_agrees_with_counts(g) {
        let pairs = g.vec(1..60, |g| (g.gen::<bool>(), g.gen::<bool>()));
        let gold: Vec<bool> = pairs.iter().map(|p| p.0).collect();
        let pred: Vec<bool> = pairs.iter().map(|p| p.1).collect();
        let s = binary_f1(&gold, &pred);
        let tp = pairs.iter().filter(|(g, p)| *g && *p).count();
        let fp = pairs.iter().filter(|(g, p)| !*g && *p).count();
        let fn_ = pairs.iter().filter(|(g, p)| *g && !*p).count();
        let expected = PrfScores::from_counts(tp, fp, fn_);
        ensure!((s.f1 - expected.f1).abs() < 1e-12);
    }

    fn perfect_prediction_scores_one(g) {
        let labels = g.vec(1..50, |g| g.gen_range(0usize..4));
        let classes = labels.iter().copied().max().unwrap_or(0) + 1;
        if classes >= 2 {
            // Macro-F1 of a perfect prediction is 1 only when every class
            // appears; restrict to that case.
            let mut present = vec![false; classes];
            for &l in &labels {
                present[l] = true;
            }
            assume!(present.iter().all(|&p| p));
            ensure!((macro_f1(classes, &labels, &labels) - 1.0).abs() < 1e-12);
        }
    }

    fn confusion_matrix_total_and_accuracy_consistent(g) {
        let pairs = g.vec(1..80, |g| (g.gen_range(0usize..3), g.gen_range(0usize..3)));
        let gold: Vec<usize> = pairs.iter().map(|p| p.0).collect();
        let pred: Vec<usize> = pairs.iter().map(|p| p.1).collect();
        let cm = ConfusionMatrix::from_pairs(3, &gold, &pred);
        ensure_eq!(cm.total(), pairs.len());
        let correct = pairs.iter().filter(|(g, p)| g == p).count();
        ensure!((cm.accuracy() - correct as f64 / pairs.len() as f64).abs() < 1e-12);
        ensure!((0.0..=1.0).contains(&cm.macro_f1()));
    }
}
