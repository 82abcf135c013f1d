//! Multi-session serving for LTE: many concurrent online explorations
//! against one shared, immutable set of meta-trained models.
//!
//! The paper's economics (§III) put all the expensive work *offline*: the
//! meta-learners are trained once per dataset, and each online session is a
//! handful of local gradient steps plus one pool prediction. That shape is
//! exactly what interactive serving needs — AIDE-style workloads where many
//! analysts issue labelling rounds at once against the same models — but
//! the core crate only exposes one-session-at-a-time entry points.
//!
//! This crate adds the serving layer. One loop serves every session:
//!
//! * [`ScoringService`] — the tick-driven batched path: sessions from all
//!   shards advance one subspace round per tick, every tick's
//!   pool-scoring requests fuse into one wide
//!   [`lte_core::scorer::score_fused_with`] call, and each shard's encoded
//!   pool is cached per pipeline epoch instead of rebuilt per session per
//!   round. Admission is asynchronous ([`AdmissionQueue`]: submit never
//!   occupies a worker) and the served pipeline hot-swaps under load
//!   through a [`SwapCell`] without torn reads (see `docs/SERVING.md`),
//! * [`SessionEngine`] — a facade over one long-lived service whose one
//!   shard is an `Arc<LtePipeline>` (the shared read-only meta-trained
//!   state) over the caller's pool; the pool is encoded once per engine,
//!   not once per session,
//! * [`SessionRequest`] / [`SessionOutcome`] — one user's exploration in
//!   and out,
//! * [`ThroughputStats`] — sessions/sec and p50/p95 round latency for
//!   capacity planning,
//! * [`ScenarioConfig`] / [`SessionEngine::run_scenario`] — mixed-traffic
//!   workload simulation: cohorts of simulated analysts (steady, drifting,
//!   churning; see [`lte_core::scenario`]) composed into one reproducible
//!   batch that rides the same tick, reported per cohort by
//!   [`ScenarioReport`].
//!
//! **Determinism guarantee:** session results depend only on each request's
//! seed and truth, never on the worker count or scheduling — outputs come
//! back in request order with bit-identical contents at 1 worker or at
//! [`lte_core::parallel::default_threads`] workers (wall-clock timing
//! fields aside). The integration tests pin this down.
//!
//! # Example
//!
//! Train once, then serve many concurrent sessions (this is the README's
//! "Serving" example, compiled here so it cannot drift from the API):
//!
//! ```no_run
//! use lte_core::config::LteConfig;
//! use lte_core::explore::Variant;
//! use lte_core::pipeline::LtePipeline;
//! use lte_core::uis::UisMode;
//! use lte_data::generator::generate_sdss;
//! use lte_data::subspace::decompose_sequential;
//! use lte_serve::SessionEngine;
//! use std::sync::Arc;
//!
//! let table = generate_sdss(20_000, 42);
//! let (pipeline, _) =
//!     LtePipeline::offline(&table, decompose_sequential(4, 2), LteConfig::reduced(), 42);
//!
//! // Share the trained pipeline; one engine serves every analyst.
//! let engine = SessionEngine::new(Arc::new(pipeline));
//! let pool: Vec<Vec<f64>> = (0..1000).map(|i| table.row(i).unwrap()).collect();
//!
//! // 16 concurrent sessions (simulated users here; real sessions would
//! // build `SessionRequest`s from live labelling oracles).
//! let requests =
//!     engine.simulate_requests(16, UisMode::new(1, 20), 0.2, 0.9, Variant::MetaStar, 7);
//! let (outcomes, stats) = engine.run_with_stats(requests, &pool);
//! println!("{}", stats.summary());
//! println!("first session F1: {:.3}", outcomes[0].outcome.f1());
//! ```

pub mod admission;
pub mod engine;
pub mod scenario;
pub mod service;
pub mod stats;
pub mod swap;

pub use admission::{AdmissionQueue, AdmissionState};
pub use engine::{SessionEngine, SessionOutcome, SessionRequest};
pub use scenario::{Cohort, ScenarioConfig, ScenarioOutcome, ScenarioRequest};
pub use service::{
    RoutedSession, ScoringService, ScoringServiceBuilder, ServiceOutcome, ServiceStats, TickReport,
};
pub use stats::{percentile, CohortStats, ScenarioReport, ThroughputStats};
pub use swap::{DecompositionMismatch, SwapCell};
