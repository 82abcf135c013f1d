//! The session engine: N concurrent online explorations over one shared
//! pipeline, served by one long-lived [`ScoringService`].

use crate::service::{ScoringService, ServiceOutcome};
use crate::stats::ThroughputStats;
use lte_core::explore::Variant;
use lte_core::oracle::ConjunctiveOracle;
use lte_core::parallel::default_threads;
use lte_core::pipeline::{LtePipeline, UirOutcome};
use lte_core::uis::UisMode;
use lte_data::rng::derive_seed;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The name of an engine's one shard.
pub(crate) const ENGINE_SHARD: &str = "engine";

/// One user's exploration session: who answers the labelling rounds (the
/// oracle), which LTE variant runs, and the seed driving the session's
/// random choices (the Δ initial tuples).
#[derive(Debug, Clone)]
pub struct SessionRequest {
    /// Caller-chosen session identifier, echoed into the outcome.
    pub id: u64,
    /// The (simulated) user's ground-truth interest region.
    pub truth: ConjunctiveOracle,
    /// Which LTE variant to serve.
    pub variant: Variant,
    /// Session seed; two requests with equal seed, truth, and variant
    /// produce bit-identical outcomes.
    pub seed: u64,
}

/// The completed session: the full per-round exploration outcome.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The request's identifier.
    pub id: u64,
    /// The conjunctive exploration result (per-subspace rounds inside).
    pub outcome: UirOutcome,
}

/// A serving engine over one shared, immutable, meta-trained pipeline.
///
/// The pipeline sits behind an [`Arc`]: meta-trained parameters and
/// memories are read-only at serving time (online adaptation clones the
/// initialization per session; see [`lte_core::meta_learner::MetaLearner::adapt`]),
/// so any number of sessions can share them without locks.
///
/// Every call runs its sessions on one [`ScoringService`] whose one shard
/// is this pipeline over the call's pool. The engine keeps that service
/// between calls: a call over the same rows, bit for bit, reuses the
/// shard's encoded pool and its `Meta*` anchor masks, and a call over
/// other rows replaces the service.
/// Calls on one engine take turns; a clone starts without a service.
#[derive(Debug)]
pub struct SessionEngine {
    pipeline: Arc<LtePipeline>,
    workers: usize,
    service: Mutex<Option<ScoringService>>,
}

impl Clone for SessionEngine {
    fn clone(&self) -> Self {
        Self::with_workers(Arc::clone(&self.pipeline), self.workers)
    }
}

impl SessionEngine {
    /// Engine over a shared pipeline with one worker per available core.
    pub fn new(pipeline: Arc<LtePipeline>) -> Self {
        Self::with_workers(pipeline, default_threads())
    }

    /// Engine with an explicit worker count (clamped to at least 1).
    pub fn with_workers(pipeline: Arc<LtePipeline>, workers: usize) -> Self {
        Self {
            pipeline,
            workers: workers.max(1),
            service: Mutex::new(None),
        }
    }

    /// The worker count in force.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The shared pipeline.
    pub fn pipeline(&self) -> &LtePipeline {
        &self.pipeline
    }

    /// A clone of the shared pipeline handle — for building a
    /// [`crate::service::ScoringService`] (or a retrainer's
    /// [`crate::swap::SwapCell`]) over the same model.
    pub fn shared_pipeline(&self) -> Arc<LtePipeline> {
        Arc::clone(&self.pipeline)
    }

    /// Generate `n` simulated session requests: one ground-truth UIR each
    /// (selectivity-guarded like [`LtePipeline::generate_truth`]) with
    /// seeds derived from `base_seed`. Request `i` is identical across
    /// calls with the same arguments — the determinism tests rely on this.
    pub fn simulate_requests(
        &self,
        n: usize,
        mode: UisMode,
        min_sel: f64,
        max_sel: f64,
        variant: Variant,
        base_seed: u64,
    ) -> Vec<SessionRequest> {
        (0..n)
            .map(|i| SessionRequest {
                id: i as u64,
                truth: self.pipeline.generate_truth(
                    mode,
                    derive_seed(base_seed, 5_000 + i as u64),
                    min_sel,
                    max_sel,
                ),
                variant,
                seed: derive_seed(base_seed, 9_000 + i as u64),
            })
            .collect()
    }

    /// Run every session to completion on the engine's service. Outcomes
    /// come back **in request order** and their contents (predictions,
    /// scores, confusion, labels) are bit-identical to
    /// [`LtePipeline::explore`] at any worker count; only the timing
    /// fields vary run to run.
    ///
    /// # Panics
    /// Panics when a request's ground truth is not over the pipeline's
    /// subspaces, as [`ScoringService::submit`] does. The engine is
    /// then left with no session of the call.
    pub fn run_sessions(
        &self,
        requests: Vec<SessionRequest>,
        eval_rows: &[Vec<f64>],
    ) -> Vec<SessionOutcome> {
        self.serve(eval_rows, |service| {
            for req in requests {
                service.submit(ENGINE_SHARD, req);
            }
        })
        .into_iter()
        .map(|o| SessionOutcome {
            id: o.id,
            outcome: o.outcome,
        })
        .collect()
    }

    /// [`SessionEngine::run_sessions`] plus aggregate throughput/latency
    /// statistics for the batch.
    pub fn run_with_stats(
        &self,
        requests: Vec<SessionRequest>,
        eval_rows: &[Vec<f64>],
    ) -> (Vec<SessionOutcome>, ThroughputStats) {
        let t0 = Instant::now();
        let outcomes = self.run_sessions(requests, eval_rows);
        let wall = t0.elapsed().as_secs_f64();
        let stats = ThroughputStats::collect(&outcomes, wall, self.workers);
        (outcomes, stats)
    }

    /// Submit one call's sessions through `submit` to the engine's service
    /// over `eval_rows`, tick until idle, and return their outcomes in
    /// submission order.
    pub(crate) fn serve(
        &self,
        eval_rows: &[Vec<f64>],
        submit: impl FnOnce(&mut ScoringService),
    ) -> Vec<ServiceOutcome> {
        let mut slot = self
            .service
            .lock()
            .expect("the engine's lock is never held while a call unwinds");
        let mut service = match slot.take() {
            Some(service) if same_bits(service.shard_rows(0), eval_rows) => service,
            _ => ScoringService::builder()
                .workers(self.workers)
                .shard(ENGINE_SHARD, Arc::clone(&self.pipeline), eval_rows.to_vec())
                .build(),
        };
        // A call that panics drops its service, and with it every session
        // the call parked; the lock is released before the panic resumes,
        // so it is not poisoned.
        let run = panic::catch_unwind(AssertUnwindSafe(|| {
            submit(&mut service);
            service.run_until_idle();
            let mut done = service.take_completed();
            done.sort_by_key(|o| o.submit_seq);
            done
        }));
        match run {
            Ok(done) => {
                *slot = Some(service);
                done
            }
            Err(payload) => {
                drop(slot);
                panic::resume_unwind(payload)
            }
        }
    }
}

/// True when both pools hold the same rows, bit for bit.
fn same_bits(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lte_core::config::LteConfig;
    use lte_data::generator::generate_sdss;
    use lte_data::subspace::decompose_sequential;

    fn tiny_pipeline() -> (Arc<LtePipeline>, Vec<Vec<f64>>) {
        let table = generate_sdss(3000, 0);
        let mut cfg = LteConfig::reduced();
        cfg.train.n_tasks = 60;
        cfg.train.epochs = 1;
        let (p, _) = LtePipeline::offline(&table, decompose_sequential(4, 2), cfg, 5);
        let pool: Vec<Vec<f64>> = (0..250).map(|i| table.row(i).unwrap()).collect();
        (Arc::new(p), pool)
    }

    #[test]
    fn eight_concurrent_sessions_match_single_session_runs() {
        let (pipeline, pool) = tiny_pipeline();
        let engine = SessionEngine::with_workers(Arc::clone(&pipeline), 4);
        let requests =
            engine.simulate_requests(8, UisMode::new(1, 10), 0.2, 0.9, Variant::Meta, 77);
        assert_eq!(requests.len(), 8);

        let outcomes = engine.run_sessions(requests.clone(), &pool);
        assert_eq!(outcomes.len(), 8);
        for (req, got) in requests.into_iter().zip(&outcomes) {
            assert_eq!(req.id, got.id, "outcomes must keep request order");
            // The single-session reference path.
            let solo = pipeline.explore(&req.truth, &pool, req.variant, req.seed);
            assert_eq!(solo.confusion, got.outcome.confusion);
            assert_eq!(solo.labels_used, got.outcome.labels_used);
            for (a, b) in solo
                .subspace_outcomes
                .iter()
                .zip(&got.outcome.subspace_outcomes)
            {
                assert_eq!(a.predictions, b.predictions);
                assert_eq!(a.cs_labels, b.cs_labels);
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&a.scores),
                    bits(&b.scores),
                    "scores must be bitwise equal"
                );
            }
        }
    }

    #[test]
    fn stats_cover_every_round() {
        let (pipeline, pool) = tiny_pipeline();
        let engine = SessionEngine::with_workers(Arc::clone(&pipeline), 2);
        let requests =
            engine.simulate_requests(5, UisMode::new(1, 10), 0.2, 0.9, Variant::MetaStar, 3);
        let (outcomes, stats) = engine.run_with_stats(requests, &pool);
        assert_eq!(stats.sessions, 5);
        // One round per subspace per session.
        assert_eq!(stats.rounds, 5 * pipeline.subspaces().len());
        assert_eq!(stats.workers, 2);
        assert!(stats.wall_seconds > 0.0);
        assert!(stats.sessions_per_sec > 0.0);
        assert!(stats.round_p95_seconds >= stats.round_p50_seconds);
        assert!(stats.round_p50_seconds > 0.0);
        assert_eq!(outcomes.len(), 5);
    }

    #[test]
    fn the_service_is_kept_for_equal_rows_only() {
        let (pipeline, pool) = tiny_pipeline();
        let engine = SessionEngine::with_workers(pipeline, 1);
        let requests = engine.simulate_requests(2, UisMode::new(1, 10), 0.2, 0.9, Variant::Meta, 5);
        let completed = |engine: &SessionEngine| {
            let slot = engine.service.lock().expect("not poisoned");
            slot.as_ref().map(|s| s.stats().sessions_completed)
        };
        engine.run_sessions(requests.clone(), &pool);
        engine.run_sessions(requests.clone(), &pool);
        assert_eq!(completed(&engine), Some(4), "equal rows reuse the service");
        let mut other = pool.clone();
        other[0][0] = -other[0][0];
        engine.run_sessions(requests.clone(), &other);
        assert_eq!(completed(&engine), Some(2), "other rows replace it");
        assert_eq!(
            completed(&engine.clone()),
            None,
            "a clone starts without one"
        );

        let mut foreign = requests[0].clone();
        foreign.truth = ConjunctiveOracle::new(Vec::new());
        let call = panic::catch_unwind(AssertUnwindSafe(|| {
            engine.run_sessions(vec![requests[1].clone(), foreign], &other)
        }));
        assert!(call.is_err(), "submit rejects a truth over other subspaces");
        assert!(!engine.service.is_poisoned());
        assert_eq!(
            completed(&engine),
            None,
            "a panicking call drops its service"
        );
        assert_eq!(engine.run_sessions(requests, &other).len(), 2);
    }

    #[test]
    fn workers_clamp_to_one() {
        let (pipeline, _) = tiny_pipeline();
        assert_eq!(SessionEngine::with_workers(pipeline, 0).workers(), 1);
    }
}
