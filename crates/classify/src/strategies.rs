//! Training over time (paper §III-E, §V).
//!
//! Who carries out activity and how they act changes over time, so a
//! classifier trained once decays. The paper compares four strategies:
//!
//! * **train-once** — curate and train at the start, never again
//!   (accuracy decays immediately, §V-B);
//! * **retrain-daily** — keep the labeled *identities* fixed but refit
//!   on each window's fresh feature values (holds up while enough
//!   labeled examples remain active, §V-C);
//! * **auto-grow** — feed each window's classifier output back in as
//!   the next window's labels (classification error compounds and the
//!   boundary collapses, §V-D);
//! * **recurring manual curation** — re-curate from expert knowledge on
//!   a schedule, retraining daily in between (the gold standard, §V-E).
//!
//! [`evaluate_strategy`] replays any of these over a window sequence
//! and scores each window on the re-appearing labeled examples, exactly
//! how Fig. 7 is drawn.

use crate::labels::{ranked_by_footprint, LabeledExample, LabeledSet};
use crate::pipeline::{ClassifierPipeline, FeatureMap};
use bs_activity::ApplicationClass;
use bs_ml::ConfusionMatrix;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// One observation window's extracted data.
#[derive(Debug, Clone, Default)]
pub struct WindowData {
    /// Feature vectors for this window's analyzable originators.
    pub features: FeatureMap,
    /// Ground truth for originators active in this window (available to
    /// the *evaluator* always, and to the *strategy* only at curation
    /// points).
    pub truth: BTreeMap<Ipv4Addr, ApplicationClass>,
    /// Observed footprints (unique queriers), for curation ranking.
    pub querier_counts: BTreeMap<Ipv4Addr, usize>,
}

/// A training-over-time strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainingStrategy {
    /// Train on window 0, reuse the model forever.
    TrainOnce,
    /// Fixed label set, refit on each window's fresh features.
    RetrainDaily,
    /// Yesterday's classifications become today's labels.
    AutoGrow,
    /// Re-curate from ground truth every `every` windows, refit daily.
    ManualRecurring {
        /// Curation period in windows.
        every: usize,
        /// Per-class cap at each curation.
        per_class_cap: usize,
    },
}

impl TrainingStrategy {
    /// Short name for tables and plots.
    pub fn name(&self) -> &'static str {
        match self {
            TrainingStrategy::TrainOnce => "train-once",
            TrainingStrategy::RetrainDaily => "train-daily",
            TrainingStrategy::AutoGrow => "auto-grow",
            TrainingStrategy::ManualRecurring { .. } => "manual-recurring",
        }
    }
}

/// Per-window evaluation result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowScore {
    /// Window index.
    pub window: usize,
    /// Macro F1 on the re-appearing evaluation examples, `None` when
    /// training failed (not enough active labeled examples) or nothing
    /// re-appeared to evaluate.
    pub f1: Option<f64>,
    /// How many evaluation examples re-appeared.
    pub(crate) evaluated: usize,
    /// Size of the label set used for this window's model.
    pub label_set_size: usize,
}

/// A full strategy replay.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyEvaluation {
    /// The strategy evaluated.
    pub(crate) strategy: TrainingStrategy,
    /// One score per window.
    pub scores: Vec<WindowScore>,
}

impl StrategyEvaluation {
    /// Mean F1 over windows where evaluation was possible.
    pub fn mean_f1(&self) -> f64 {
        let v: Vec<f64> = self.scores.iter().filter_map(|s| s.f1).collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }

    /// Number of windows with a usable model.
    pub fn usable_windows(&self) -> usize {
        self.scores.iter().filter(|s| s.f1.is_some()).count()
    }
}

/// Replay `strategy` over `windows`. Window 0 always curates an initial
/// label set from its ground truth (the expert's first pass);
/// evaluation in every window scores the *current reference labels* on
/// the examples that re-appear.
pub fn evaluate_strategy(
    strategy: TrainingStrategy,
    windows: &[WindowData],
    pipeline: &ClassifierPipeline,
    per_class_cap: usize,
    seed: u64,
) -> StrategyEvaluation {
    assert!(!windows.is_empty());
    // Initial curation from window 0 (the paper's curation days).
    let initial = curate_from_window(&windows[0], per_class_cap);
    // The evaluation reference is the initial expert set (the paper
    // validates against "re-appearing labeled examples" from curation).
    let reference = initial.clone();

    let mut labels = initial;
    let mut model = pipeline.train(&labels, &windows[0].features, seed);
    let mut scores = Vec::with_capacity(windows.len());

    for (w, data) in windows.iter().enumerate() {
        // Strategy-specific label/model maintenance.
        match strategy {
            TrainingStrategy::TrainOnce => {
                // Model from window 0 is kept as-is.
            }
            TrainingStrategy::RetrainDaily => {
                if w > 0 {
                    model = pipeline.train(&labels, &data.features, seed ^ (w as u64) << 8);
                }
            }
            TrainingStrategy::AutoGrow => {
                if w > 0 {
                    // Previous window's classifications become labels.
                    if let Some(m) = &model {
                        let prev = &windows[w - 1];
                        let classified = m.classify_all(&prev.features);
                        labels = cap_labels(&classified, &prev.querier_counts, per_class_cap);
                    }
                    model = pipeline.train(&labels, &data.features, seed ^ (w as u64) << 8);
                }
            }
            TrainingStrategy::ManualRecurring { every, per_class_cap: cap } => {
                if w > 0 && every > 0 && w % every == 0 {
                    let fresh = curate_from_window(data, cap);
                    labels = fresh;
                }
                if w > 0 {
                    model = pipeline.train(&labels, &data.features, seed ^ (w as u64) << 8);
                }
            }
        }

        // Evaluate on re-appearing reference examples.
        let eval: Vec<&LabeledExample> = reference.reappearing(&data.features);
        let f1 = match (&model, eval.is_empty()) {
            (Some(m), false) => {
                let truth: Vec<usize> = eval.iter().map(|e| e.class.index()).collect();
                let shown: FeatureMap = eval
                    .iter()
                    .map(|e| (e.originator, data.features[&e.originator].clone()))
                    .collect();
                let verdicts = m.classify_all(&shown);
                let predicted: Vec<usize> =
                    eval.iter().map(|e| verdicts[&e.originator].index()).collect();
                let cm = ConfusionMatrix::from_predictions(12, &truth, &predicted);
                Some(cm.metrics().f1)
            }
            _ => None,
        };
        scores.push(WindowScore {
            window: w,
            f1,
            evaluated: eval.len(),
            label_set_size: labels.len(),
        });
    }
    StrategyEvaluation { strategy, scores }
}

fn curate_from_window(data: &WindowData, per_class_cap: usize) -> LabeledSet {
    ranked_by_footprint(
        data.truth
            .iter()
            .filter(|(ip, _)| data.features.contains_key(*ip))
            .map(|(ip, class)| (*class, data.querier_counts.get(ip).copied().unwrap_or(0), *ip)),
        per_class_cap,
    )
}

fn cap_labels(
    classified: &BTreeMap<Ipv4Addr, ApplicationClass>,
    querier_counts: &BTreeMap<Ipv4Addr, usize>,
    per_class_cap: usize,
) -> LabeledSet {
    ranked_by_footprint(
        classified
            .iter()
            .map(|(ip, class)| (*class, querier_counts.get(ip).copied().unwrap_or(0), *ip)),
        per_class_cap,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_ml::{Algorithm, CartParams};
    use bs_sensor::{DynamicFeatures, FeatureVector};

    /// Synthetic world: two classes, spam features drift over windows,
    /// and spam originators churn (new IPs) while mail stays put.
    fn make_windows(n: usize, churn_spam: bool) -> Vec<WindowData> {
        let fv = |mail: f64, nx: f64| {
            let mut s = [0.0; 14];
            s[1] = mail;
            s[13] = nx;
            s[11] = (1.0 - mail - nx).max(0.0);
            FeatureVector { static_fractions: s, dynamic: DynamicFeatures::default() }
        };
        (0..n)
            .map(|w| {
                let mut features = FeatureMap::new();
                let mut truth = BTreeMap::new();
                let mut querier_counts = BTreeMap::new();
                // Mail: stable identities and features.
                for i in 0..10u8 {
                    let ip: Ipv4Addr = format!("10.0.0.{i}").parse().unwrap();
                    features.insert(ip, fv(0.9, 0.0));
                    truth.insert(ip, ApplicationClass::Mail);
                    querier_counts.insert(ip, 50);
                }
                // Spam: churns to new addresses each window when asked.
                let spam_octet = if churn_spam { w as u8 } else { 0 };
                for i in 0..10u8 {
                    let ip: Ipv4Addr = format!("10.1.{spam_octet}.{i}").parse().unwrap();
                    features.insert(ip, fv(0.1, 0.7));
                    truth.insert(ip, ApplicationClass::Spam);
                    querier_counts.insert(ip, 40);
                }
                WindowData { features, truth, querier_counts }
            })
            .collect()
    }

    fn cart() -> ClassifierPipeline {
        ClassifierPipeline { algorithm: Algorithm::Cart(CartParams::default()), runs: 1 }
    }

    #[test]
    fn stable_world_keeps_all_strategies_high() {
        let windows = make_windows(5, false);
        for strat in [
            TrainingStrategy::TrainOnce,
            TrainingStrategy::RetrainDaily,
            TrainingStrategy::ManualRecurring { every: 2, per_class_cap: 10 },
        ] {
            let eval = evaluate_strategy(strat, &windows, &cart(), 10, 1);
            assert!(eval.mean_f1() > 0.95, "{} f1 {}", strat.name(), eval.mean_f1());
            assert_eq!(eval.usable_windows(), 5);
        }
    }

    #[test]
    fn churn_shrinks_reappearing_evaluation_set() {
        let windows = make_windows(4, true);
        let eval = evaluate_strategy(TrainingStrategy::RetrainDaily, &windows, &cart(), 10, 1);
        // Window 0 evaluates all 20 reference examples; later windows
        // only the stable mail half.
        assert_eq!(eval.scores[0].evaluated, 20);
        for s in &eval.scores[1..] {
            assert_eq!(s.evaluated, 10, "only mail persists");
        }
    }

    #[test]
    fn manual_recuration_refreshes_label_set() {
        let windows = make_windows(6, true);
        let eval = evaluate_strategy(
            TrainingStrategy::ManualRecurring { every: 2, per_class_cap: 10 },
            &windows,
            &cart(),
            10,
            1,
        );
        // After each curation the label set regains both classes (20
        // examples); train-once/retrain-daily would hold the initial set.
        assert!(eval.scores[2].label_set_size == 20);
        assert!(eval.scores[4].label_set_size == 20);
    }

    #[test]
    fn auto_grow_tracks_previous_window_output() {
        let windows = make_windows(4, false);
        let eval = evaluate_strategy(TrainingStrategy::AutoGrow, &windows, &cart(), 10, 1);
        // With a separable, stable world auto-grow stays usable; label
        // sets come from classifier output (both classes, capped).
        for s in &eval.scores[1..] {
            assert!(s.label_set_size >= 10, "labels {}", s.label_set_size);
        }
        assert!(eval.mean_f1() > 0.9);
    }

    #[test]
    fn single_window_sequence_works() {
        let windows = make_windows(1, false);
        let eval = evaluate_strategy(TrainingStrategy::TrainOnce, &windows, &cart(), 10, 1);
        assert_eq!(eval.scores.len(), 1);
        assert!(eval.scores[0].f1.is_some());
    }
}
