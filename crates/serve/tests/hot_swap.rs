//! Hot-swap under load (serving bugfix sweep, satellite 5): a retrainer
//! replaces the served pipeline through the shard's [`lte_serve::SwapCell`]
//! while 64 sessions are mid-flight. The service loads each shard's cell
//! once per tick, so the contract is: **every round of every session runs
//! against exactly one pipeline epoch** (no torn reads — a round can never
//! mix epoch-N adaptation with epoch-M scoring), each round's outputs are
//! bitwise those of a solo run on that epoch's pipeline, and the whole
//! swapped schedule is deterministic at 1 worker vs N.

use lte_core::config::LteConfig;
use lte_core::explore::{ExploreOutcome, Variant};
use lte_core::pipeline::LtePipeline;
use lte_core::uis::UisMode;
use lte_data::generator::generate_sdss;
use lte_data::subspace::decompose_sequential;
use lte_serve::{ScoringService, ServiceOutcome, SessionEngine, SessionRequest};
use std::sync::Arc;

fn train(seed: u64) -> Arc<LtePipeline> {
    let table = generate_sdss(3000, 0);
    let mut cfg = LteConfig::reduced();
    cfg.train.n_tasks = 60;
    cfg.train.epochs = 1;
    let (p, _) = LtePipeline::offline(&table, decompose_sequential(4, 2), cfg, seed);
    Arc::new(p)
}

fn pool() -> Vec<Vec<f64>> {
    let table = generate_sdss(3000, 0);
    (0..250).map(|i| table.row(i).unwrap()).collect()
}

fn round_bytes(o: &ExploreOutcome) -> Vec<u64> {
    let mut bytes: Vec<u64> = o.scores.iter().map(|s| s.to_bits()).collect();
    bytes.extend(o.predictions.iter().map(|&p| p as u64));
    bytes.extend(o.cs_labels.iter().map(|&l| l as u64));
    bytes.push(o.labels_used as u64);
    bytes
}

/// Run 64 sessions with a swap from `a` to `b` between the first and
/// second tick; returns outcomes sorted by id.
fn run_swapped(
    a: &Arc<LtePipeline>,
    b: &Arc<LtePipeline>,
    requests: &[SessionRequest],
    eval_rows: &[Vec<f64>],
    workers: usize,
) -> Vec<ServiceOutcome> {
    let mut service = ScoringService::builder().workers(workers).build();
    let shard = service.add_shard("sdss", Arc::clone(a), eval_rows.to_vec());
    let handle = service.swap_handle(shard);
    for req in requests {
        service.submit("sdss", req.clone());
    }
    // Tick 0: all 64 sessions run subspace round 0 against epoch 0.
    let r0 = service.tick();
    assert_eq!(r0.rounds, requests.len());
    assert_eq!(r0.fused_rows, requests.len() * eval_rows.len());
    // The retrainer swaps while every session is mid-flight.
    assert_eq!(handle.swap(Arc::clone(b)), Ok(1));
    // Tick 1: round 1 runs against epoch 1 — picked up at the boundary.
    let r1 = service.tick();
    assert_eq!(r1.completed, requests.len());
    assert!(service.is_idle());
    let mut done = service.take_completed();
    done.sort_by_key(|o| o.id);
    done
}

#[test]
fn swap_under_64_sessions_has_no_torn_rounds_and_is_deterministic() {
    let a = train(21);
    let b = train(22);
    let eval_rows = pool();
    let engine = SessionEngine::with_workers(Arc::clone(&a), 1);
    let requests =
        engine.simulate_requests(64, UisMode::new(1, 10), 0.2, 0.9, Variant::MetaStar, 99);

    let done = run_swapped(&a, &b, &requests, &eval_rows, 1);
    assert_eq!(done.len(), 64);

    for (req, got) in requests.iter().zip(&done) {
        assert_eq!(req.id, got.id);
        // Exactly one epoch per round, and exactly the swap schedule: no
        // round ever saw a half-installed pipeline.
        assert_eq!(got.epochs, vec![0, 1], "session {} tore an epoch", req.id);

        // Round 0 is bitwise the solo run on pipeline `a`; round 1 on `b`.
        // (Solo subspace `i` uses the same per-round seed stream
        // `derive_seed(seed, 2000 + i)` the service uses.)
        let solo_a = a.explore(&req.truth, &eval_rows, req.variant, req.seed);
        let solo_b = b.explore(&req.truth, &eval_rows, req.variant, req.seed);
        assert_eq!(
            round_bytes(&solo_a.subspace_outcomes[0]),
            round_bytes(&got.outcome.subspace_outcomes[0]),
            "session {} round 0 diverged from epoch-0 pipeline",
            req.id
        );
        assert_eq!(
            round_bytes(&solo_b.subspace_outcomes[1]),
            round_bytes(&got.outcome.subspace_outcomes[1]),
            "session {} round 1 diverged from epoch-1 pipeline",
            req.id
        );
    }

    // The same swapped schedule at 4 workers is byte-identical.
    let done_4 = run_swapped(&a, &b, &requests, &eval_rows, 4);
    for (x, y) in done.iter().zip(&done_4) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.epochs, y.epochs);
        assert_eq!(x.outcome.confusion, y.outcome.confusion);
        for (sx, sy) in x
            .outcome
            .subspace_outcomes
            .iter()
            .zip(&y.outcome.subspace_outcomes)
        {
            assert_eq!(round_bytes(sx), round_bytes(sy));
        }
    }
}

/// A shard's `Meta*` anchor masks belong to the epoch whose pool they were
/// built over. A wave of `Meta*` sessions completes on `a`, building masks
/// for its positive anchors; the shard then swaps to `b`, and the same
/// requests run again. Every second-wave round must be bitwise `b`'s solo
/// run, so no mask of `a`'s hulls may survive the refresh.
#[test]
fn anchor_masks_do_not_outlive_their_epoch() {
    let a = train(41);
    let b = train(42);
    let eval_rows = pool();
    let engine = SessionEngine::with_workers(Arc::clone(&a), 1);
    let requests =
        engine.simulate_requests(16, UisMode::new(1, 10), 0.2, 0.9, Variant::MetaStar, 77);

    let mut service = ScoringService::builder().workers(2).build();
    let shard = service.add_shard("sdss", Arc::clone(&a), eval_rows.clone());
    let wave = |service: &mut ScoringService| {
        for req in &requests {
            service.submit("sdss", req.clone());
        }
        service.run_until_idle();
        let mut done = service.take_completed();
        done.sort_by_key(|o| o.id);
        done
    };
    let first = wave(&mut service);
    assert!(first.iter().all(|o| o.epochs == [0, 0]));
    assert_eq!(service.swap_handle(shard).swap(Arc::clone(&b)), Ok(1));
    let second = wave(&mut service);

    for (req, got) in requests.iter().zip(&second) {
        assert_eq!(req.id, got.id);
        assert_eq!(got.epochs, vec![1, 1]);
        let solo = b.explore(&req.truth, &eval_rows, req.variant, req.seed);
        assert_eq!(solo.confusion, got.outcome.confusion);
        for (round, (x, y)) in solo
            .subspace_outcomes
            .iter()
            .zip(&got.outcome.subspace_outcomes)
            .enumerate()
        {
            assert_eq!(
                round_bytes(x),
                round_bytes(y),
                "session {} round {round} revised with another epoch's masks",
                req.id
            );
        }
    }
}

/// A swapper thread racing the tick loop: epoch pickup is then
/// timing-dependent, but the invariants are not — every round still gets
/// exactly one epoch, epochs never decrease within a session, and each
/// round's outputs are bitwise those of whichever pipeline its recorded
/// epoch names (even epochs are `a`, odd are `b`).
#[test]
fn concurrent_swapper_never_tears_a_round() {
    let a = train(31);
    let b = train(32);
    let eval_rows = pool();
    let engine = SessionEngine::with_workers(Arc::clone(&a), 1);
    let requests = engine.simulate_requests(8, UisMode::new(1, 10), 0.2, 0.9, Variant::Meta, 55);

    let mut service = ScoringService::builder().workers(2).build();
    let shard = service.add_shard("sdss", Arc::clone(&a), eval_rows.clone());
    let handle = service.swap_handle(shard);
    for req in requests.clone() {
        service.submit("sdss", req);
    }

    let done = std::thread::scope(|scope| {
        let swapper = scope.spawn(|| {
            for i in 0..6 {
                let next = if i % 2 == 0 { &b } else { &a };
                handle.swap(Arc::clone(next)).expect("same decomposition");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        });
        service.run_until_idle();
        swapper.join().expect("swapper panicked");
        service.take_completed()
    });
    assert_eq!(done.len(), 8);

    for o in &done {
        let req = requests.iter().find(|r| r.id == o.id).unwrap();
        assert_eq!(o.epochs.len(), o.outcome.subspace_outcomes.len());
        for w in o.epochs.windows(2) {
            assert!(w[0] <= w[1], "epochs went backwards within a session");
        }
        for (round, (&epoch, got)) in o
            .epochs
            .iter()
            .zip(&o.outcome.subspace_outcomes)
            .enumerate()
        {
            let pipeline = if epoch % 2 == 0 { &a } else { &b };
            let solo = pipeline.explore(&req.truth, &eval_rows, req.variant, req.seed);
            assert_eq!(
                round_bytes(&solo.subspace_outcomes[round]),
                round_bytes(got),
                "session {} round {round} does not match its recorded epoch {epoch}",
                o.id
            );
        }
    }
}
