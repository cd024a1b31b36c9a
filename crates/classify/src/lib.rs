//! Originator classification (paper §III-D, §III-E, §V).
//!
//! Glue between the sensor's feature vectors and the ML crate, plus the
//! paper's operational machinery:
//!
//! * [`labels`] — curated labeled sets: building ground truth from
//!   external knowledge intersected with the top originators, with
//!   per-class size targets ("typically we require about 20 examples in
//!   each class, and about 200 or more total examples");
//! * [`pipeline`] — training and applying a classifier over feature
//!   maps, including the 10-run majority vote for randomized learners;
//! * [`strategies`] — training over time: train-once, retrain-daily on
//!   fresh feature values, automatically grown label sets, and
//!   recurring manual curation, evaluated window-by-window the way
//!   Fig. 7 is;
//! * [`consistency`] — the vote-consistency ratio *r* of §V-E and its
//!   distribution across querier thresholds (Fig. 8).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
pub mod consistency;
pub mod labels;
pub mod pipeline;
pub mod strategies;

pub use advisor::{advise, advise_series, AdvisorConfig, CurationAdvice, LabelHealth};
pub use consistency::{consistency_cdf, consistency_ratios, vote_entropy, WeeklyVote};
pub use labels::{LabeledExample, LabeledSet, PER_CLASS_CAP};
pub use pipeline::{ClassifierPipeline, FeatureMap, TrainedClassifier};
pub use strategies::{
    evaluate_strategy, StrategyEvaluation, TrainingStrategy, WindowData, WindowScore,
};
