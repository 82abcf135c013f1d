//! Mixed-traffic determinism: a fixed-seed scenario (3 cohorts, 32
//! sessions) must produce byte-identical per-cohort reports at 1 worker
//! and at `default_threads()` workers. Extends `service_determinism.rs` to
//! drifting/noisy/abandoning sessions — the acceptance gate of the
//! simulated-analyst workload layer — including its check of every
//! evaluation against a recomputation from the ground truth in force.

use lte_core::config::LteConfig;
use lte_core::metrics::ConfusionMatrix;
use lte_core::oracle::BehaviorOracle;
use lte_core::parallel::default_threads;
use lte_core::pipeline::LtePipeline;
use lte_core::scenario::BehavioralOutcome;
use lte_data::generator::generate_sdss;
use lte_data::subspace::decompose_sequential;
use lte_serve::{ScenarioConfig, ScenarioOutcome, SessionEngine};
use std::sync::Arc;

fn trained_pipeline() -> (Arc<LtePipeline>, Vec<Vec<f64>>) {
    let table = generate_sdss(3000, 0);
    let mut cfg = LteConfig::reduced();
    cfg.train.n_tasks = 60;
    cfg.train.epochs = 1;
    let (p, _) = LtePipeline::offline(&table, decompose_sequential(4, 2), cfg, 11);
    let pool: Vec<Vec<f64>> = (0..300).map(|i| table.row(i).unwrap()).collect();
    (Arc::new(p), pool)
}

/// Everything deterministic in a `BehavioralOutcome`, floats as raw bits.
fn outcome_bytes(o: &BehavioralOutcome) -> Vec<u64> {
    let mut bytes = vec![
        o.confusion.tp as u64,
        o.confusion.fp as u64,
        o.confusion.tn as u64,
        o.confusion.fn_ as u64,
        o.labels_used as u64,
        o.rounds_run as u64,
        o.abandoned as u64,
        o.drifted as u64,
        o.think_seconds.to_bits(),
    ];
    bytes.extend(o.per_subspace_f1.iter().map(|f| f.to_bits()));
    bytes.extend(o.f1_by_round.iter().map(|f| f.to_bits()));
    for sub in &o.subspace_outcomes {
        bytes.extend(sub.scores.iter().map(|s| s.to_bits()));
        bytes.extend(sub.predictions.iter().map(|&p| p as u64));
        bytes.extend(sub.cs_labels.iter().map(|&l| l as u64));
        bytes.push(sub.labels_used as u64);
    }
    bytes
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Asserts that a session's evaluation equals one recomputed from its
/// analyst's ground truth: the confusion from the final truth's `label` on
/// every full pool row, each round's F1 from that round's truth region on
/// the row's projection, and each round's running F1 from that round's
/// truth's `label`.
fn assert_evaluation_matches_truth(
    o: &BehavioralOutcome,
    analyst: &BehaviorOracle,
    pool: &[Vec<f64>],
    what: &str,
) {
    let mut pred = vec![true; pool.len()];
    let mut f1_by_round = Vec::new();
    let mut per_subspace_f1 = Vec::new();
    for (i, round) in o.subspace_outcomes.iter().enumerate() {
        let truth = analyst.truth_at(i);
        let (sub, region) = &truth.parts()[i];
        let round_confusion = ConfusionMatrix::from_pairs(
            round
                .predictions
                .iter()
                .zip(pool)
                .map(|(&p, row)| (p, region.contains(&sub.project_row(row)))),
        );
        per_subspace_f1.push(round_confusion.f1());
        for (p, &q) in pred.iter_mut().zip(&round.predictions) {
            *p &= q;
        }
        let running =
            ConfusionMatrix::from_pairs(pred.iter().zip(pool).map(|(&p, r)| (p, truth.label(r))));
        f1_by_round.push(running.f1());
    }
    let final_truth = analyst.final_truth(o.rounds_run.max(1));
    let confusion = ConfusionMatrix::from_pairs(
        pred.iter()
            .zip(pool)
            .map(|(&p, row)| (p, final_truth.label(row))),
    );
    assert_eq!(o.confusion, confusion, "{what}: UIR confusion");
    assert_eq!(
        bits(&o.per_subspace_f1),
        bits(&per_subspace_f1),
        "{what}: per-subspace F1"
    );
    assert_eq!(
        bits(&o.f1_by_round),
        bits(&f1_by_round),
        "{what}: F1 by round"
    );
}

#[test]
fn worker_count_never_changes_scenario_outcomes() {
    let (pipeline, pool) = trained_pipeline();
    let n_workers = default_threads();
    let cfg = ScenarioConfig::standard_mix(32, 42);
    assert!(cfg.cohorts.len() >= 3, "mixed traffic needs ≥ 3 cohorts");

    let serial = SessionEngine::with_workers(Arc::clone(&pipeline), 1);
    let parallel = SessionEngine::with_workers(Arc::clone(&pipeline), n_workers);

    let (out_a, report_a) = serial.run_scenario(&cfg, &pool);
    let (out_b, report_b) = parallel.run_scenario(&cfg, &pool);

    assert_eq!(out_a.len(), 32);
    assert_eq!(out_b.len(), 32);
    for (a, b) in out_a.iter().zip(&out_b) {
        assert_eq!(a.id, b.id, "ordering diverged");
        assert_eq!(a.cohort, b.cohort, "cohort assignment diverged");
        assert_eq!(
            outcome_bytes(&a.outcome),
            outcome_bytes(&b.outcome),
            "session {} diverged between 1 and {n_workers} workers",
            a.id
        );
    }

    // The per-cohort report renders byte-identically once measured timing
    // is excluded — the scenario acceptance criterion.
    assert_eq!(report_a.deterministic_json(), report_b.deterministic_json());

    // Every evaluation is the ground truth's, drifters and churners too.
    let requests = serial.scenario_requests(&cfg);
    let runs: [(&str, &[ScenarioOutcome]); 2] = [("1-worker", &out_a), ("N-worker", &out_b)];
    for (run, outcomes) in runs {
        for (req, o) in requests.iter().zip(outcomes) {
            let analyst = cfg.cohorts[req.cohort].behavior.instantiate(
                req.truth.clone(),
                pipeline.subspaces().len(),
                req.seed,
            );
            let what = format!("{run} session {} ({})", o.id, cfg.cohorts[o.cohort].name);
            assert_evaluation_matches_truth(&o.outcome, &analyst, &pool, &what);
        }
    }
}

#[test]
fn scenario_report_covers_cohorts_f1_and_latency() {
    let (pipeline, pool) = trained_pipeline();
    let engine = SessionEngine::with_workers(Arc::clone(&pipeline), default_threads());
    let cfg = ScenarioConfig::standard_mix(32, 7);
    let (outcomes, report) = engine.run_scenario(&cfg, &pool);

    assert_eq!(report.sessions, 32);
    assert_eq!(report.cohorts.len(), 3);
    assert_eq!(report.cohorts.iter().map(|c| c.sessions).sum::<usize>(), 32);

    // The mix must actually exercise every behavior: churners abandon,
    // drifters drift, steady analysts do neither.
    let by_name = |n: &str| report.cohorts.iter().find(|c| c.name == n).unwrap();
    assert_eq!(by_name("steady").abandoned, 0);
    assert_eq!(by_name("steady").drifted, 0);
    assert_eq!(by_name("churners").abandoned, by_name("churners").sessions);
    assert_eq!(by_name("drifters").drifted, by_name("drifters").sessions);
    assert!(by_name("drifters").mean_think_seconds > 0.0);

    // F1 and latency are reported per cohort, and appear in the JSON.
    for c in &report.cohorts {
        assert!(c.sessions > 0, "{} cohort got no sessions", c.name);
        assert!(
            (0.0..=1.0).contains(&c.mean_f1),
            "{}: {}",
            c.name,
            c.mean_f1
        );
        assert!(c.round_p95_seconds >= c.round_p50_seconds);
        assert!(c.round_p50_seconds > 0.0);
    }
    let json = report.to_json();
    for key in [
        "\"scenario\"",
        "\"cohorts\"",
        "\"mean_f1\"",
        "\"round_p50_seconds\"",
        "\"round_p95_seconds\"",
        "\"steady\"",
        "\"drifters\"",
        "\"churners\"",
    ] {
        assert!(json.contains(key), "JSON missing {key}");
    }

    // Labels stop at abandonment: churners label one round, steady two.
    let cohort_idx = |n: &str| cfg.cohorts.iter().position(|c| c.name == n).unwrap();
    let churner = cohort_idx("churners");
    let steady = cohort_idx("steady");
    let mean_labels = |c: usize| {
        let xs: Vec<usize> = outcomes
            .iter()
            .filter(|o| o.cohort == c)
            .map(|o| o.outcome.labels_used)
            .collect();
        xs.iter().sum::<usize>() as f64 / xs.len() as f64
    };
    assert!(mean_labels(churner) < mean_labels(steady));
}

#[test]
fn repeated_scenario_runs_are_reproducible() {
    let (pipeline, pool) = trained_pipeline();
    let engine = SessionEngine::with_workers(Arc::clone(&pipeline), default_threads());
    let cfg = ScenarioConfig::standard_mix(12, 99);
    let (first, report_1) = engine.run_scenario(&cfg, &pool);
    let (second, report_2) = engine.run_scenario(&cfg, &pool);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(outcome_bytes(&a.outcome), outcome_bytes(&b.outcome));
    }
    assert_eq!(report_1.deterministic_json(), report_2.deterministic_json());
}
