//! Learn-to-Explore (LTE): meta-learning-bootstrapped interactive data
//! exploration — the core of the ICDE 2023 paper reproduction.
//!
//! # The problem
//!
//! Explore-by-example IDE systems discover a **user interest region** (UIR)
//! through rounds of tuple labelling. The exploration is a classifier
//! training process, and with neural classifiers the label appetite
//! ("slow convergence") is the bottleneck. LTE treats exploration as
//! **few-shot learning**: classifiers are *meta-trained offline* on
//! automatically generated, unsupervised meta-tasks, so that online a
//! handful of labels and a few gradient steps suffice.
//!
//! # Offline phase (one-time, unsupervised)
//!
//! 1. The data space is decomposed into low-dimensional *meta-subspaces*
//!    ([`context::SubspaceContext`]), each summarized by three k-means
//!    center sets `Cu`, `Cs`, `Cq` and proximity matrices `Pu`, `Ps` (§V-B).
//! 2. Meta-tasks are generated per subspace ([`meta_task`]): a simulated
//!    UIS (union of `α` convex hulls over `ψ`-nearest-center sets, §V-C)
//!    plus support/query sets labeled against it (§V-D).
//! 3. A [`classifier::UisClassifier`] (UIS-feature embedding + tuple
//!    embedding + classification blocks, §VI-A) is meta-trained with
//!    memory-augmented first-order MAML ([`meta_learner::MetaLearner`],
//!    Algorithm 2): local updates on support sets, one-step global updates
//!    on query sets, and attentive memory reads/writes (§VI-B).
//!
//! # Online phase (per user, few-shot)
//!
//! The user labels the `ks + Δ` initial tuples of each subspace (the same
//! cluster centers used during training); labels become the UIS feature
//! vector ([`feature`]); the pre-trained meta-learner fast-adapts with a few
//! local steps ([`explore`]); optionally the few-shot optimizer
//! ([`refine`], §VII-B) clips false positives/negatives with outer/inner
//! circumscribed regions. Per-subspace predictions conjoin into the UIR
//! ([`pipeline::LtePipeline`]).

pub mod classifier;
pub mod config;
pub mod context;
pub mod drift;
pub mod explore;
pub mod feature;
pub mod iterative;
pub mod memory;
pub mod meta_features;
pub mod meta_learner;
pub mod meta_task;
pub mod metrics;
pub mod oracle;
pub mod parallel;
pub mod persist;
pub mod pipeline;
pub mod refine;
pub mod routing;
pub mod scenario;
pub mod scorer;
pub mod uis;

pub use classifier::{ClassifierConfig, UisClassifier};
pub use config::LteConfig;
pub use context::SubspaceContext;
pub use explore::{ExploreOutcome, Variant};
pub use meta_features::{FeatureDelta, MetaFeatures};
pub use meta_learner::MetaLearner;
pub use meta_task::{MetaTask, TaskGenError};
pub use metrics::ConfusionMatrix;
pub use oracle::{
    BehaviorOracle, Cadence, ConjunctiveOracle, NoisyOracle, RegionOracle, SubspaceOracle,
};
pub use pipeline::LtePipeline;
pub use routing::{PipelineRegistry, Router, RoutingDecision};
pub use scenario::{BehaviorConfig, BehavioralOutcome, DriftSpec, DriftTrigger};
pub use scorer::{FusedRequest, ScoreRequest, Scorer};
pub use uis::UisMode;
