//! The cross-session batched scoring service must be *invisible* to
//! outcomes: fusing every session's pool-scoring into one wide call per
//! tick, parking sessions behind the admission queue, splitting traffic
//! across dataset shards, or keeping an engine's service between calls may
//! change scheduling and timing — never a single output bit. These tests
//! pin the contracts: fused == the single-session reference
//! `LtePipeline::explore`, 1 worker == N workers, bounded capacity ==
//! unbounded, sharded == each shard solo, and a reused service == a fresh
//! one. The service and the reference share one evaluation helper, so the
//! `Fast` sweep also pins each outcome's confusion and per-subspace F1 to
//! a recomputation straight from the ground truth.

use lte_core::config::{LteConfig, ScoringPrecision};
use lte_core::explore::Variant;
use lte_core::metrics::ConfusionMatrix;
use lte_core::oracle::ConjunctiveOracle;
use lte_core::parallel::default_threads;
use lte_core::pipeline::{LtePipeline, UirOutcome};
use lte_core::scorer::PARALLEL_MIN_ROWS;
use lte_core::uis::UisMode;
use lte_data::generator::{generate_car, generate_sdss};
use lte_data::subspace::{decompose_sequential, Subspace};
use lte_data::table::Table;
use lte_serve::{ScoringService, ServiceOutcome, SessionEngine};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

fn train(table: &Table, seed: u64) -> Arc<LtePipeline> {
    let mut cfg = LteConfig::reduced();
    cfg.train.n_tasks = 60;
    cfg.train.epochs = 1;
    let (p, _) = LtePipeline::offline(table, decompose_sequential(4, 2), cfg, seed);
    Arc::new(p)
}

fn sdss_setup() -> (Arc<LtePipeline>, Vec<Vec<f64>>) {
    let table = generate_sdss(3000, 0);
    let pool: Vec<Vec<f64>> = (0..300).map(|i| table.row(i).unwrap()).collect();
    (train(&table, 11), pool)
}

/// Everything deterministic in a `UirOutcome`, floats as raw bits, timing
/// fields excluded.
fn outcome_bytes(o: &UirOutcome) -> Vec<u64> {
    let mut bytes = vec![
        o.confusion.tp as u64,
        o.confusion.fp as u64,
        o.confusion.tn as u64,
        o.confusion.fn_ as u64,
        o.labels_used as u64,
    ];
    bytes.extend(o.per_subspace_f1.iter().map(|f| f.to_bits()));
    for sub in &o.subspace_outcomes {
        bytes.extend(sub.scores.iter().map(|s| s.to_bits()));
        bytes.extend(sub.predictions.iter().map(|&p| p as u64));
        bytes.extend(sub.cs_labels.iter().map(|&l| l as u64));
        bytes.push(sub.labels_used as u64);
    }
    bytes
}

/// Asserts that an outcome's evaluation equals one recomputed from the
/// ground truth: the UIR confusion from `ConjunctiveOracle::label` on each
/// full pool row, and each subspace's F1 from `region.contains` on each
/// row's projection.
fn assert_evaluation_matches_truth(
    o: &UirOutcome,
    truth: &ConjunctiveOracle,
    pool: &[Vec<f64>],
    what: &str,
) {
    let confusion = ConfusionMatrix::from_pairs(
        o.uir_predictions()
            .into_iter()
            .zip(pool)
            .map(|(pred, row)| (pred, truth.label(row))),
    );
    assert_eq!(o.confusion, confusion, "{what}: UIR confusion");
    let f1: Vec<u64> = truth
        .parts()
        .iter()
        .zip(&o.subspace_outcomes)
        .map(|((sub, region), round)| {
            ConfusionMatrix::from_pairs(
                round
                    .predictions
                    .iter()
                    .zip(pool)
                    .map(|(&pred, row)| (pred, region.contains(&sub.project_row(row)))),
            )
            .f1()
            .to_bits()
        })
        .collect();
    let got: Vec<u64> = o.per_subspace_f1.iter().map(|f| f.to_bits()).collect();
    assert_eq!(got, f1, "{what}: per-subspace F1");
}

/// The service-side provenance plus the outcome — the full byte identity a
/// worker-count sweep must preserve.
fn service_bytes(o: &ServiceOutcome) -> Vec<u64> {
    let mut bytes = vec![
        o.id,
        o.shard as u64,
        o.submit_seq,
        o.submit_tick,
        o.admitted_tick,
        o.completed_tick,
    ];
    bytes.extend(&o.epochs);
    bytes.extend(outcome_bytes(&o.outcome));
    bytes
}

#[test]
fn fused_service_matches_per_session_engine_for_every_variant() {
    let (pipeline, pool) = sdss_setup();
    for workers in [1, default_threads().max(2)] {
        for variant in [Variant::Basic, Variant::Meta, Variant::MetaStar] {
            let engine = SessionEngine::with_workers(Arc::clone(&pipeline), workers);
            let requests = engine.simulate_requests(6, UisMode::new(1, 10), 0.2, 0.9, variant, 42);
            let fused = engine.run_sessions(requests.clone(), &pool);
            assert_eq!(requests.len(), fused.len());
            for (req, b) in requests.iter().zip(&fused) {
                assert_eq!(req.id, b.id, "{variant:?}: ordering diverged");
                let solo = pipeline.explore(&req.truth, &pool, req.variant, req.seed);
                assert_eq!(
                    outcome_bytes(&solo),
                    outcome_bytes(&b.outcome),
                    "{variant:?}: session {} diverged between per-session and {workers}-worker fused",
                    b.id
                );
            }
        }
    }
}

/// One engine keeps its service between calls and replaces it when the
/// pool changes, even by one bit, or when a call panics. Every call must
/// still return exactly its own requests' outcomes, each equal to the
/// single-session reference on that call's pool.
#[test]
fn engine_service_cache_is_invisible_to_outcomes() {
    let (pipeline, pool_a) = sdss_setup();
    let table = generate_sdss(3000, 0);
    let pool_b: Vec<Vec<f64>> = (300..500).map(|i| table.row(i).unwrap()).collect();
    // Pool A with the last bit of one value flipped, in an attribute that
    // the first subspace projects.
    let mut pool_a_bit = pool_a.clone();
    let value = &mut pool_a_bit.last_mut().unwrap()[0];
    *value = f64::from_bits(value.to_bits() ^ 1);

    for workers in [1, default_threads().max(2)] {
        let engine = SessionEngine::with_workers(Arc::clone(&pipeline), workers);
        let requests =
            engine.simulate_requests(4, UisMode::new(1, 10), 0.2, 0.9, Variant::MetaStar, 31);
        let check = |pool: &[Vec<f64>], what: &str| {
            let done = engine.run_sessions(requests.clone(), pool);
            assert_eq!(
                done.len(),
                requests.len(),
                "{workers}w {what}: outcome count"
            );
            for (req, got) in requests.iter().zip(&done) {
                assert_eq!(req.id, got.id, "{workers}w {what}: ordering diverged");
                let solo = pipeline.explore(&req.truth, pool, req.variant, req.seed);
                assert_eq!(
                    outcome_bytes(&solo),
                    outcome_bytes(&got.outcome),
                    "{workers}w {what}: session {} diverged from its solo run",
                    req.id
                );
            }
        };
        check(&pool_a, "pool A");
        check(&pool_b, "pool B");
        check(&pool_a, "pool A again");
        check(&pool_a_bit, "pool A with one bit flipped");

        // A call that panics part-way through submitting leaves nothing
        // behind: the next call sees only its own sessions. The second
        // truth is over as many subspaces of the same width, other
        // attributes.
        let mut foreign = requests[1].clone();
        let other = [Subspace::new(vec![0, 2]), Subspace::new(vec![1, 3])];
        let parts = foreign.truth.parts().iter().zip(other);
        let parts = parts.map(|((_, region), sub)| (sub, region.clone()));
        foreign.truth = ConjunctiveOracle::new(parts.collect());
        let poisoned = vec![requests[0].clone(), foreign];
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            engine.run_sessions(poisoned, &pool_a);
        }));
        assert!(caught.is_err(), "a foreign truth must panic");
        check(&pool_a, "pool A after a panic");
    }
}

#[test]
fn service_outcomes_are_identical_at_one_and_four_workers() {
    let (pipeline, pool) = sdss_setup();
    let engine = SessionEngine::with_workers(Arc::clone(&pipeline), 1);
    let requests = engine.simulate_requests(8, UisMode::new(1, 10), 0.2, 0.9, Variant::MetaStar, 7);

    let run = |workers: usize| {
        let mut service = ScoringService::builder()
            .workers(workers)
            .capacity(3)
            .build();
        service.add_shard("sdss", Arc::clone(&pipeline), pool.clone());
        for req in requests.clone() {
            service.submit("sdss", req);
        }
        let reports = service.run_until_idle();
        (reports, service.take_completed())
    };
    let (reports_1, done_1) = run(1);
    let (reports_4, done_4) = run(4);

    // Tick composition is counter-based, so even the per-tick reports
    // agree exactly — admission waves, fused widths, completions.
    assert_eq!(reports_1, reports_4, "tick schedules diverged");
    assert_eq!(done_1.len(), 8);
    for (a, b) in done_1.iter().zip(&done_4) {
        assert_eq!(
            service_bytes(a),
            service_bytes(b),
            "session {} diverged between 1 and 4 workers",
            a.id
        );
    }
}

#[test]
fn fast_precision_serves_deterministically_across_worker_counts() {
    // `ScoringPrecision::Fast` (the precision serving deployments run)
    // flows from the pipeline config straight through the service's fused
    // scoring path (no serve-side switch), so the worker-sweep determinism
    // contract must hold for it too. 8 sessions × 300 rows fuse to 2 400
    // rows per tick, past the parallel threshold, so 4 workers really
    // score the `f32` blocks in parallel. Every variant runs: `Basic`
    // scores through the concatenation path, the meta variants through
    // the conversion, and `Meta*` revises the predictions.
    let table = generate_sdss(3000, 0);
    let pool: Vec<Vec<f64>> = (0..300).map(|i| table.row(i).unwrap()).collect();
    let mut cfg = LteConfig::reduced();
    cfg.train.n_tasks = 60;
    cfg.train.epochs = 1;
    cfg.online.precision = ScoringPrecision::Fast;
    let (pipeline, _) = LtePipeline::offline(&table, decompose_sequential(4, 2), cfg, 11);
    let pipeline = Arc::new(pipeline);

    let engine = SessionEngine::with_workers(Arc::clone(&pipeline), 1);
    for variant in [Variant::Basic, Variant::Meta, Variant::MetaStar] {
        let requests = engine.simulate_requests(8, UisMode::new(1, 10), 0.2, 0.9, variant, 23);

        let run = |workers: usize| {
            let mut service = ScoringService::builder().workers(workers).build();
            service.add_shard("sdss", Arc::clone(&pipeline), pool.clone());
            for req in requests.clone() {
                service.submit("sdss", req);
            }
            let reports = service.run_until_idle();
            (reports, service.take_completed())
        };
        let (reports_1, done_1) = run(1);
        let (reports_4, done_4) = run(4);
        assert_eq!(reports_1, reports_4, "{variant:?}: tick schedules diverged");
        assert!(reports_4[0].fused_rows >= PARALLEL_MIN_ROWS);
        assert_eq!(done_1.len(), 8);
        for (a, b) in done_1.iter().zip(&done_4) {
            assert_eq!(
                service_bytes(a),
                service_bytes(b),
                "{variant:?}: fast session {} diverged between 1 and 4 workers",
                a.id
            );
        }
        // Fused `Fast` scoring is bit-identical to the single-session
        // reference too, and every evaluation is the ground truth's.
        let solo: Vec<(u64, UirOutcome)> = requests
            .iter()
            .map(|r| (r.id, pipeline.explore(&r.truth, &pool, r.variant, r.seed)))
            .collect();
        for (o, (id, s)) in done_4.iter().zip(&solo) {
            assert_eq!(o.id, *id);
            assert_eq!(
                outcome_bytes(s),
                outcome_bytes(&o.outcome),
                "{variant:?}: fast session {} diverged from its solo run",
                o.id
            );
        }
        let outcomes = solo
            .iter()
            .map(|(id, s)| ("per-session", *id, s))
            .chain(done_1.iter().map(|o| ("1-worker", o.id, &o.outcome)))
            .chain(done_4.iter().map(|o| ("4-worker", o.id, &o.outcome)));
        for (engine_run, id, outcome) in outcomes {
            let req = requests.iter().find(|r| r.id == id).unwrap();
            let what = format!("{variant:?} {engine_run} session {id}");
            assert_evaluation_matches_truth(outcome, &req.truth, &pool, &what);
        }
    }
}

#[test]
fn admission_capacity_never_changes_outcomes() {
    let (pipeline, pool) = sdss_setup();
    let engine = SessionEngine::with_workers(Arc::clone(&pipeline), 1);
    let requests = engine.simulate_requests(7, UisMode::new(1, 10), 0.2, 0.9, Variant::Meta, 19);

    let run = |max_active: usize| {
        let mut service = ScoringService::builder()
            .workers(1)
            .capacity(max_active)
            .build();
        service.add_shard("sdss", Arc::clone(&pipeline), pool.clone());
        for req in requests.clone() {
            service.submit("sdss", req);
        }
        service.run_until_idle();
        let mut done = service.take_completed();
        done.sort_by_key(|o| o.id);
        done
    };
    let unbounded = run(usize::MAX);
    let squeezed = run(2);

    // Squeezing capacity to 2 stretches the schedule (more ticks, parked
    // sessions) but every session's *result* is untouched.
    assert!(squeezed.iter().any(|o| o.admitted_tick > o.submit_tick));
    assert!(unbounded.iter().all(|o| o.admitted_tick == o.submit_tick));
    for (a, b) in unbounded.iter().zip(&squeezed) {
        assert_eq!(a.id, b.id);
        assert_eq!(
            outcome_bytes(&a.outcome),
            outcome_bytes(&b.outcome),
            "session {} diverged under admission pressure",
            a.id
        );
    }
}

#[test]
fn sharded_service_matches_each_pipeline_solo() {
    let sdss_table = generate_sdss(3000, 0);
    let car_table = generate_car(3000, 1);
    let sdss = train(&sdss_table, 11);
    let car = train(&car_table, 13);
    let sdss_pool: Vec<Vec<f64>> = (0..250).map(|i| sdss_table.row(i).unwrap()).collect();
    let car_pool: Vec<Vec<f64>> = (0..250).map(|i| car_table.row(i).unwrap()).collect();

    let sdss_engine = SessionEngine::with_workers(Arc::clone(&sdss), 1);
    let car_engine = SessionEngine::with_workers(Arc::clone(&car), 1);
    let mode = UisMode::new(1, 10);
    let sdss_reqs = sdss_engine.simulate_requests(4, mode, 0.2, 0.9, Variant::Meta, 5);
    let car_reqs = car_engine.simulate_requests(4, mode, 0.2, 0.9, Variant::Meta, 6);

    // One service, both datasets, submissions interleaved — each tick's
    // fused call spans both shards.
    let mut service = ScoringService::builder().workers(2).build();
    service.add_shard("sdss", Arc::clone(&sdss), sdss_pool.clone());
    service.add_shard("car", Arc::clone(&car), car_pool.clone());
    for (s, c) in sdss_reqs.iter().zip(&car_reqs) {
        service.submit("sdss", s.clone());
        service.submit("car", c.clone());
    }
    let reports = service.run_until_idle();
    // Both shards really were fused into one call: 8 requests per tick.
    assert_eq!(reports[0].fused_requests, 8);
    assert_eq!(reports[0].fused_rows, 8 * 250);

    let done = service.take_completed();
    assert_eq!(done.len(), 8);
    for o in &done {
        let (pipeline, pool, reqs, ids_base) = if service.shard_name(o.shard) == "sdss" {
            (&sdss, &sdss_pool, &sdss_reqs, "sdss")
        } else {
            (&car, &car_pool, &car_reqs, "car")
        };
        let req = reqs.iter().find(|r| r.id == o.id).unwrap();
        let solo = pipeline.explore(&req.truth, pool, req.variant, req.seed);
        assert_eq!(
            outcome_bytes(&solo),
            outcome_bytes(&o.outcome),
            "{ids_base} session {} diverged from its solo run",
            o.id
        );
    }
}
