//! Routed serving sends each session to the registry entry over its
//! truth's subspace decomposition and keeps every contract the unrouted
//! service holds: a routed session completes bit-identical to
//! `LtePipeline::explore` on that entry's pipeline at any worker count, a
//! registry survives the LTER persistence round trip without moving a
//! bit, and a truth no entry covers is refused at submission.

use lte_core::config::LteConfig;
use lte_core::explore::Variant;
use lte_core::oracle::ConjunctiveOracle;
use lte_core::persist::{registry_from_bytes, registry_to_bytes};
use lte_core::pipeline::{LtePipeline, UirOutcome};
use lte_core::routing::PipelineRegistry;
use lte_core::uis::UisMode;
use lte_data::generator::generate_sdss;
use lte_data::rng::derive_seed;
use lte_data::subspace::{decompose_sequential, Subspace};
use lte_serve::{AdmissionState, ScoringService, SessionEngine, SessionRequest};
use std::sync::Arc;

/// A pipeline over `decompose_sequential(4, dim)`.
fn pipeline_over(dim: usize, seed: u64) -> Arc<LtePipeline> {
    let table = generate_sdss(2000, 0);
    let mut cfg = LteConfig::reduced();
    cfg.train.n_tasks = 40;
    cfg.train.epochs = 1;
    let (p, _) = LtePipeline::offline(&table, decompose_sequential(4, dim), cfg, seed);
    Arc::new(p)
}

/// A registry of one pipeline over `{0,1} {2,3}` (`wide`) and one over
/// each attribute alone (`fine`), the shared retrieval pool, and requests
/// alternating between truths over the two decompositions.
fn setup() -> (Arc<PipelineRegistry>, Vec<Vec<f64>>, Vec<SessionRequest>) {
    let wide = pipeline_over(2, 5);
    let fine = pipeline_over(1, 6);
    let table = generate_sdss(2000, 0);
    let pool: Vec<Vec<f64>> = (0..300).map(|i| table.row(i).unwrap()).collect();

    let requests = (0..6u64)
        .map(|i| {
            let over = if i % 2 == 0 { &wide } else { &fine };
            SessionRequest {
                id: i,
                truth: over.generate_truth(UisMode::new(1, 12), derive_seed(33, i), 0.15, 0.9),
                variant: Variant::Meta,
                seed: derive_seed(44, i),
            }
        })
        .collect();

    let mut registry = PipelineRegistry::new();
    registry.register("wide", wide);
    registry.register("fine", fine);
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

/// Serve `requests` through a routed group over `registry` at `workers`
/// and return, in submission order, each session's shard name and
/// outcome.
fn serve_routed(
    registry: &Arc<PipelineRegistry>,
    pool: &[Vec<f64>],
    requests: &[SessionRequest],
    workers: usize,
) -> Vec<(String, UirOutcome)> {
    let mut service = ScoringService::builder()
        .workers(workers)
        .routed_shard("mixed", Arc::clone(registry), pool.to_vec())
        .build();
    for req in requests {
        let state = service.submit_routed("mixed", req.clone());
        assert_eq!(state, AdmissionState::Admitted);
    }
    service.run_until_idle();
    let mut done = service.take_completed();
    done.sort_by_key(|o| o.submit_seq);
    done.into_iter()
        .map(|o| (service.shard_name(o.shard).to_string(), o.outcome))
        .collect()
}

/// Every routed session ran on the entry over its truth's decomposition
/// and equals `explore` on that entry's pipeline, bit for bit.
fn assert_matches_explore(
    registry: &PipelineRegistry,
    pool: &[Vec<f64>],
    requests: &[SessionRequest],
    served: &[(String, UirOutcome)],
) {
    assert_eq!(served.len(), requests.len());
    for (req, (shard, outcome)) in requests.iter().zip(served) {
        let entry = registry.route(&req.truth).expect("covered");
        assert_eq!(shard, &format!("mixed/{}", registry.get(entry).name()));
        let solo = registry
            .get(entry)
            .pipeline()
            .explore(&req.truth, pool, req.variant, req.seed);
        assert_eq!(
            outcome_bytes(outcome),
            outcome_bytes(&solo),
            "session {} diverged from explore on {shard}",
            req.id
        );
    }
}

#[test]
fn routed_decisions_and_outcomes_are_identical_at_one_and_four_workers() {
    let (registry, pool, requests) = setup();
    for workers in [1, 4] {
        let served = serve_routed(&registry, &pool, &requests, workers);
        assert_matches_explore(&registry, &pool, &requests, &served);
        // The alternating stream really exercises both entries.
        assert_eq!(served[0].0, "mixed/wide");
        assert_eq!(served[1].0, "mixed/fine");
    }
}

#[test]
fn registry_persist_round_trip_preserves_routing_bitwise() {
    let (registry, pool, requests) = setup();
    let reloaded =
        Arc::new(registry_from_bytes(&registry_to_bytes(&registry)).expect("registry round trip"));
    for workers in [1, 4] {
        let served = serve_routed(&reloaded, &pool, &requests, workers);
        assert_matches_explore(&registry, &pool, &requests, &served);
    }
}

#[test]
fn single_entry_registry_matches_unrouted_path_bitwise() {
    let (registry, pool, requests) = setup();
    let wide = Arc::clone(registry.get(0).pipeline());
    let requests: Vec<SessionRequest> = requests.into_iter().step_by(2).collect();
    let mut only = PipelineRegistry::new();
    only.register("wide", Arc::clone(&wide));

    let unrouted = SessionEngine::with_workers(wide, 2).run_sessions(requests.clone(), &pool);
    let routed = serve_routed(&Arc::new(only), &pool, &requests, 2);
    assert_eq!(unrouted.len(), routed.len());
    for (a, (shard, b)) in unrouted.iter().zip(&routed) {
        assert_eq!(shard, "mixed/wide");
        assert_eq!(
            outcome_bytes(&a.outcome),
            outcome_bytes(b),
            "session {} diverged between unrouted and single-entry routed",
            a.id
        );
    }
}

#[test]
fn routed_group_composes_with_plain_shards_and_builder() {
    let (registry, pool, requests) = setup();
    let plain = Arc::clone(registry.get(0).pipeline());

    let mut service = ScoringService::builder()
        .workers(2)
        .capacity(16)
        .shard("plain", plain, pool.clone())
        .routed_shard("mixed", Arc::clone(&registry), pool.clone())
        .build();
    assert!(service.shard_index("plain").is_some());
    assert!(service.shard_index("mixed/wide").is_some());
    assert!(service.shard_index("mixed/fine").is_some());
    assert!(service.group_index("mixed").is_some());

    for req in requests.iter().step_by(2).cloned() {
        service.submit("plain", req);
    }
    for req in requests.iter().cloned() {
        service.submit_routed("mixed", req);
    }
    service.run_until_idle();
    let done = service.take_completed();
    assert_eq!(done.len(), 9);

    let mut per_shard = std::collections::BTreeMap::new();
    for o in &done {
        *per_shard.entry(service.shard_name(o.shard)).or_insert(0) += 1;
        let req = &requests[o.id as usize];
        if service.shard_name(o.shard) != "plain" {
            let entry = registry.route(&req.truth).expect("covered");
            assert_eq!(
                service.shard_name(o.shard),
                format!("mixed/{}", registry.get(entry).name())
            );
        }
    }
    let expected = [("mixed/fine", 3), ("mixed/wide", 3), ("plain", 3)];
    assert_eq!(per_shard.into_iter().collect::<Vec<_>>(), expected);
}

#[test]
#[should_panic(expected = "unknown routed shard")]
fn submitting_to_an_unknown_group_panics() {
    let (registry, pool, requests) = setup();
    let mut service = ScoringService::builder()
        .workers(1)
        .routed_shard("mixed", registry, pool)
        .build();
    service.submit_routed("nope", requests[0].clone());
}

#[test]
#[should_panic(
    expected = "no entry of routed shard \"mixed\" covers the session's subspace decomposition"
)]
fn a_truth_no_entry_covers_panics_in_submit_routed() {
    let (registry, pool, requests) = setup();
    // The wide truth's regions over `{0,2} {1,3}`: a third decomposition.
    let other = [Subspace::new(vec![0, 2]), Subspace::new(vec![1, 3])];
    let parts = requests[0]
        .truth
        .parts()
        .iter()
        .zip(other)
        .map(|((_, region), sub)| (sub, region.clone()))
        .collect();
    let mut req = requests[0].clone();
    req.truth = ConjunctiveOracle::new(parts);
    let mut service = ScoringService::builder()
        .workers(1)
        .routed_shard("mixed", registry, pool)
        .build();
    service.submit_routed("mixed", req);
}
