//! # LTE — Learn to Explore
//!
//! A complete Rust implementation of *"Learn to Explore: on Bootstrapping
//! Interactive Data Exploration with Meta-learning"* (ICDE 2023): an
//! explore-by-example IDE system whose per-subspace neural classifiers are
//! meta-trained offline on automatically generated tasks, so that a
//! handful of user labels suffices online.
//!
//! This crate is an umbrella re-exporting the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`data`] | `lte-data` | columnar tables, synthetic SDSS/CAR datasets, subspaces |
//! | [`geom`] | `lte-geom` | convex hulls, region unions, DSM polytopes |
//! | [`cluster`] | `lte-cluster` | k-means, proximity matrices |
//! | [`nn`] | `lte-nn` | dense networks with manual backprop, flat params |
//! | [`preprocess`] | `lte-preprocess` | GMM / Jenks multi-modal attribute encoding |
//! | [`baselines`] | `lte-baselines` | SMO SVM, AL-SVM, factorized DSM |
//! | [`core`] | `lte-core` | meta-tasks, memory-augmented meta-learning, pipeline |
//! | [`serve`] | `lte-serve` | concurrent multi-session exploration engine |
//!
//! ## Quickstart
//!
//! ```no_run
//! use lte::prelude::*;
//!
//! // A database to explore (synthetic SDSS-like sky survey).
//! let dataset = Dataset::sdss(20_000, 42);
//!
//! // Offline: decompose into 2D subspaces and meta-train (unsupervised).
//! let subspaces = decompose_sequential(4, 2);
//! let (pipeline, report) =
//!     LtePipeline::offline(&dataset.table, subspaces, LteConfig::reduced(), 42);
//! println!("meta-trained in {:.1}s", report.train_seconds);
//!
//! // Online: a simulated user with an unknown interest region.
//! let truth = pipeline.generate_truth(UisMode::new(4, 8), 7, 0.2, 0.9);
//! let pool: Vec<Vec<f64>> = (0..1000).map(|i| dataset.table.row(i).unwrap()).collect();
//! let outcome = pipeline.explore(&truth, &pool, Variant::MetaStar, 1);
//! println!("F1 after {} labels: {:.3}", outcome.labels_used, outcome.f1());
//! ```

pub use lte_baselines as baselines;
pub use lte_cluster as cluster;
pub use lte_core as core;
pub use lte_data as data;
pub use lte_geom as geom;
pub use lte_nn as nn;
pub use lte_preprocess as preprocess;
pub use lte_serve as serve;

/// Everything needed for the common exploration workflow.
pub mod prelude {
    pub use lte_core::config::{LteConfig, ScoringPrecision};
    pub use lte_core::explore::Variant;
    pub use lte_core::metrics::ConfusionMatrix;
    pub use lte_core::oracle::{
        BehaviorOracle, Cadence, ConjunctiveOracle, RegionOracle, SubspaceOracle,
    };
    pub use lte_core::persist::{load_pipeline, save_pipeline};
    pub use lte_core::pipeline::{LtePipeline, UirOutcome};
    pub use lte_core::scenario::{BehaviorConfig, BehavioralOutcome, DriftSpec, DriftTrigger};
    pub use lte_core::scorer::{ScoreRequest, Scorer};
    pub use lte_core::uis::UisMode;
    pub use lte_data::csv::{read_csv, write_csv};
    pub use lte_data::subspace::{decompose_random, decompose_sequential, Subspace};
    pub use lte_data::{Dataset, Table};
    pub use lte_geom::{Region, RegionUnion};
    pub use lte_nn::{cpu_features, Epilogue, KernelKind};
    pub use lte_serve::{
        AdmissionState, Cohort, ScenarioConfig, ScenarioReport, ScoringService,
        ScoringServiceBuilder, ServiceOutcome, SessionEngine, SessionOutcome, SessionRequest,
        SwapCell, ThroughputStats,
    };
}
