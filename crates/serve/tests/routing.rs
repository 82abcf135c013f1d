//! Routed serving must keep every contract the unrouted service already
//! holds: decisions and their explanations are pure functions of the
//! request (identical at any worker count), a registry survives the LTER
//! persistence round trip without perturbing a single routing bit, and a
//! degenerate single-entry registry is *bitwise invisible* — routing over
//! it produces exactly the unrouted fused path's outputs.

use lte_core::config::LteConfig;
use lte_core::explore::Variant;
use lte_core::persist::{registry_from_bytes, registry_to_bytes};
use lte_core::pipeline::{LtePipeline, UirOutcome};
use lte_core::routing::{PipelineRegistry, Router};
use lte_core::uis::UisMode;
use lte_data::generator::generate_sdss;
use lte_data::rng::derive_seed;
use lte_data::subspace::decompose_sequential;
use lte_serve::{ScoringService, SessionEngine, SessionRequest};
use std::sync::Arc;

fn specialist(mode: UisMode, seed: u64) -> Arc<LtePipeline> {
    let table = generate_sdss(2000, 0);
    let mut cfg = LteConfig::reduced();
    cfg.task.mode = mode;
    cfg.train.n_tasks = 40;
    cfg.train.epochs = 1;
    let (p, _) = LtePipeline::offline(&table, decompose_sequential(4, 2), cfg, seed);
    Arc::new(p)
}

/// A two-specialist registry (broad convex truths vs fragmented narrow
/// ones), the shared retrieval pool, and a mixed request stream drawn from
/// both truth families.
fn setup() -> (Arc<PipelineRegistry>, Vec<Vec<f64>>, Vec<SessionRequest>) {
    let broad = specialist(UisMode::new(1, 12), 5);
    let narrow = specialist(UisMode::new(4, 3), 6);
    let table = generate_sdss(2000, 0);
    let pool: Vec<Vec<f64>> = (0..300).map(|i| table.row(i).unwrap()).collect();

    let mut requests = Vec::new();
    for i in 0..6u64 {
        let mode = if i % 2 == 0 {
            UisMode::new(1, 12)
        } else {
            UisMode::new(4, 3)
        };
        requests.push(SessionRequest {
            id: i,
            truth: broad.generate_truth(mode, derive_seed(33, i), 0.15, 0.9),
            variant: Variant::Meta,
            seed: derive_seed(44, i),
        });
    }

    let mut registry = PipelineRegistry::new();
    registry.register("broad", broad, 8, 100);
    registry.register("narrow", narrow, 8, 100);
    (Arc::new(registry), pool, requests)
}

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

#[test]
fn routed_decisions_and_outcomes_are_identical_at_one_and_four_workers() {
    let (registry, pool, requests) = setup();
    let run = |workers: usize| {
        let engine = SessionEngine::with_workers(Arc::clone(registry.get(0).pipeline()), workers);
        engine.run_sessions_routed(
            requests.clone(),
            &pool,
            Arc::clone(&registry),
            Router::new(42),
        )
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.len(), 6);
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(a.outcome.id, b.outcome.id);
        assert_eq!(a.decision, b.decision, "decision diverged across workers");
        assert_eq!(a.decision.explanation(), b.decision.explanation());
        assert_eq!(
            outcome_bytes(&a.outcome.outcome),
            outcome_bytes(&b.outcome.outcome),
            "session {} outcome diverged across workers",
            a.outcome.id
        );
    }
}

#[test]
fn explanations_are_non_empty_and_pinned() {
    let (registry, pool, requests) = setup();
    let engine = SessionEngine::with_workers(Arc::clone(registry.get(0).pipeline()), 2);
    let routed =
        engine.run_sessions_routed(requests, &pool, Arc::clone(&registry), Router::new(42));

    let mut chosen = std::collections::BTreeSet::new();
    for r in &routed {
        let text = r.decision.explanation();
        assert!(!text.is_empty());
        assert!(
            text.starts_with(&format!(
                "routed to '{}' (entry {}) at distance ",
                r.decision.chosen_name, r.decision.chosen
            )),
            "unexpected explanation shape: {text}"
        );
        assert!(text.contains("nearest meta-tasks:"), "{text}");
        assert!(text.contains("top feature deltas:"), "{text}");
        chosen.insert(r.decision.chosen);
    }
    // The mixed broad/narrow stream really exercises both specialists.
    assert_eq!(chosen.len(), 2, "expected both registry entries to serve");
}

#[test]
fn registry_persist_round_trip_preserves_routing_bitwise() {
    let (registry, pool, requests) = setup();
    let reloaded =
        Arc::new(registry_from_bytes(&registry_to_bytes(&registry)).expect("registry round trip"));

    let engine = SessionEngine::with_workers(Arc::clone(registry.get(0).pipeline()), 2);
    let mem = engine.run_sessions_routed(
        requests.clone(),
        &pool,
        Arc::clone(&registry),
        Router::new(7),
    );
    let disk = engine.run_sessions_routed(requests, &pool, reloaded, Router::new(7));
    for (a, b) in mem.iter().zip(&disk) {
        assert_eq!(a.decision, b.decision, "decision diverged after reload");
        assert_eq!(
            outcome_bytes(&a.outcome.outcome),
            outcome_bytes(&b.outcome.outcome),
            "session {} diverged after registry reload",
            a.outcome.id
        );
    }
}

#[test]
fn single_entry_registry_matches_unrouted_path_bitwise() {
    let (_, pool, requests) = setup();
    let only = specialist(UisMode::new(1, 12), 5);
    let mut registry = PipelineRegistry::new();
    registry.register("only", Arc::clone(&only), 8, 100);
    let registry = Arc::new(registry);

    let engine = SessionEngine::with_workers(only, 2);
    let unrouted = engine.run_sessions(requests.clone(), &pool);
    let routed = engine.run_sessions_routed(requests, &pool, registry, Router::new(42));

    assert_eq!(unrouted.len(), routed.len());
    for (a, b) in unrouted.iter().zip(&routed) {
        assert_eq!(a.id, b.outcome.id);
        assert_eq!(b.decision.chosen, 0);
        assert_eq!(
            outcome_bytes(&a.outcome),
            outcome_bytes(&b.outcome.outcome),
            "session {} diverged between unrouted and single-entry routed",
            a.id
        );
    }
}

#[test]
fn routed_group_composes_with_plain_shards_and_builder() {
    let (registry, pool, requests) = setup();
    let plain = specialist(UisMode::new(1, 12), 5);

    let mut service = ScoringService::builder()
        .workers(2)
        .capacity(16)
        .shard("plain", Arc::clone(&plain), pool.clone())
        .routed_shard(
            "mixed",
            Arc::clone(&registry),
            Router::new(42),
            pool.clone(),
        )
        .build();
    assert!(service.shard_index("plain").is_some());
    assert!(service.shard_index("mixed/broad").is_some());
    assert!(service.shard_index("mixed/narrow").is_some());
    assert!(service.group_index("mixed").is_some());

    for req in requests.iter().take(2).cloned() {
        service.submit("plain", req);
    }
    let mut decisions = Vec::new();
    for req in requests.iter().cloned() {
        let (_, d) = service.submit_routed("mixed", req);
        decisions.push(d);
    }
    service.run_until_idle();
    let done = service.take_completed();
    assert_eq!(done.len(), 8);

    for o in &done {
        if service.shard_name(o.shard) == "plain" {
            assert!(o.routing.is_none());
        } else {
            let d = o.routing.as_ref().expect("routed outcome keeps decision");
            // The outcome's decision is the one returned at submit time.
            assert_eq!(d, &decisions[o.id as usize]);
            assert_eq!(
                service.shard_name(o.shard),
                format!("mixed/{}", d.chosen_name)
            );
        }
    }
}

#[test]
#[should_panic(expected = "unknown routed shard")]
fn submitting_to_an_unknown_group_panics() {
    let (registry, pool, requests) = setup();
    let mut service = ScoringService::builder()
        .workers(1)
        .routed_shard("mixed", registry, Router::new(1), pool)
        .build();
    service.submit_routed("nope", requests[0].clone());
}
