//! Mixed-traffic scenarios: cohorts of simulated analysts over the engine.
//!
//! A scenario composes [`Cohort`]s — named analyst populations with a
//! [`BehaviorConfig`] and a traffic share — into one reproducible batch of
//! sessions. Cohort assignment is largest-remainder apportionment followed
//! by a seeded Fisher–Yates shuffle, so the exact cohort of every session
//! slot is a pure function of the scenario config. The sessions ride the
//! engine's [`crate::ScoringService`] tick like any other, each with its
//! cohort's analyst, so running the batch on 1 worker or 32 yields
//! byte-identical per-cohort reports (timing fields aside), pinned by
//! `tests/scenario_determinism.rs`.

use crate::engine::{SessionEngine, SessionRequest, ENGINE_SHARD};
use crate::service::ServiceOutcome;
use crate::stats::ScenarioReport;
use lte_core::explore::Variant;
use lte_core::oracle::ConjunctiveOracle;
use lte_core::scenario::{BehaviorConfig, BehavioralOutcome};
use lte_core::uis::UisMode;
use lte_data::rng::{derive_seed, seeded};
use rand::Rng;
use std::time::Instant;

/// One analyst population: a name, a behavior, and its share of traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct Cohort {
    /// Cohort name (appears in reports and JSON).
    pub name: String,
    /// How these analysts behave.
    pub behavior: BehaviorConfig,
    /// Relative traffic share (weights need not sum to 1).
    pub weight: f64,
}

/// A reproducible traffic mix over one serving engine.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Scenario name (appears in reports and JSON).
    pub name: String,
    /// The analyst populations in the mix.
    pub cohorts: Vec<Cohort>,
    /// Total sessions across all cohorts.
    pub sessions: usize,
    /// Simulated-UIS shape for the ground truths.
    pub mode: UisMode,
    /// Ground-truth selectivity guard (lower bound).
    pub min_sel: f64,
    /// Ground-truth selectivity guard (upper bound).
    pub max_sel: f64,
    /// LTE variant every session runs.
    pub variant: Variant,
    /// Master seed; everything in the scenario derives from it.
    pub seed: u64,
    /// F1 threshold for rounds-to-convergence reporting.
    pub convergence_f1: f64,
}

impl ScenarioConfig {
    /// The default mix: 80% steady analysts, 15% drifters, 5% churners —
    /// the shape AIDE-style serving literature assumes (see PAPERS.md).
    pub fn standard_mix(sessions: usize, seed: u64) -> Self {
        Self {
            name: "standard_mix".to_string(),
            cohorts: vec![
                Cohort {
                    name: "steady".to_string(),
                    behavior: BehaviorConfig::steady(),
                    weight: 0.80,
                },
                Cohort {
                    name: "drifters".to_string(),
                    behavior: BehaviorConfig::drifter(),
                    weight: 0.15,
                },
                Cohort {
                    name: "churners".to_string(),
                    behavior: BehaviorConfig::churner(),
                    weight: 0.05,
                },
            ],
            sessions,
            mode: UisMode::new(1, 10),
            min_sel: 0.2,
            max_sel: 0.9,
            variant: Variant::Meta,
            seed,
            convergence_f1: 0.6,
        }
    }

    /// Cohort index per session slot: largest-remainder apportionment of
    /// `sessions` across cohort weights, then a seeded Fisher–Yates
    /// shuffle. Deterministic in the config alone.
    pub fn assignments(&self) -> Vec<usize> {
        assert!(!self.cohorts.is_empty(), "at least one cohort required");
        let total_w: f64 = self.cohorts.iter().map(|c| c.weight.max(0.0)).sum();
        let mut counts = vec![0usize; self.cohorts.len()];
        if total_w > 0.0 {
            let quotas: Vec<f64> = self
                .cohorts
                .iter()
                .map(|c| c.weight.max(0.0) / total_w * self.sessions as f64)
                .collect();
            let mut assigned = 0usize;
            for (count, quota) in counts.iter_mut().zip(&quotas) {
                *count = quota.floor() as usize;
                assigned += *count;
            }
            // Hand leftover slots to the largest fractional remainders,
            // ties broken by the *smaller cohort index* — an explicit
            // total order (`total_cmp` + index), so the layout can never
            // depend on float-comparison quirks (NaN remainders collapsing
            // to `Equal` made the old comparator inconsistent) or on the
            // incidental stability of the sort.
            let mut order: Vec<usize> = (0..self.cohorts.len()).collect();
            order.sort_by(|&a, &b| {
                let ra = quotas[a] - quotas[a].floor();
                let rb = quotas[b] - quotas[b].floor();
                rb.total_cmp(&ra).then(a.cmp(&b))
            });
            // `saturating_sub`: float quotas can floor-sum to `sessions`
            // already (leftover 0) — or, with adversarial weights, a hair
            // above it; never underflow into a giant `take`.
            for &c in order
                .iter()
                .cycle()
                .take(self.sessions.saturating_sub(assigned))
            {
                counts[c] += 1;
            }
        } else {
            counts[0] = self.sessions;
        }

        let mut slots: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(c, &n)| std::iter::repeat_n(c, n))
            .collect();
        let mut rng = seeded(derive_seed(self.seed, 17));
        for i in (1..slots.len()).rev() {
            let j = rng.random_range(0..=i);
            slots.swap(i, j);
        }
        slots
    }
}

/// One scenario session: a ground truth plus the cohort it was drawn for.
#[derive(Debug, Clone)]
pub struct ScenarioRequest {
    /// Session identifier (slot index).
    pub id: u64,
    /// Index into the scenario's cohort list.
    pub cohort: usize,
    /// The analyst's initial ground-truth interest region.
    pub truth: ConjunctiveOracle,
    /// Session seed (drives initial tuples, noise, and think-time jitter).
    pub seed: u64,
}

/// A completed scenario session.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The request's identifier.
    pub id: u64,
    /// Index into the scenario's cohort list.
    pub cohort: usize,
    /// The behavioral session result.
    pub outcome: BehavioralOutcome,
}

impl SessionEngine {
    /// Materialize a scenario's session requests: one selectivity-guarded
    /// ground truth per slot, cohorts assigned per
    /// [`ScenarioConfig::assignments`]. Request `i` is identical across
    /// calls with the same config.
    pub fn scenario_requests(&self, cfg: &ScenarioConfig) -> Vec<ScenarioRequest> {
        let cohorts = cfg.assignments();
        (0..cfg.sessions)
            .map(|i| ScenarioRequest {
                id: i as u64,
                cohort: cohorts[i],
                truth: self.pipeline().generate_truth(
                    cfg.mode,
                    derive_seed(cfg.seed, 6_000 + i as u64),
                    cfg.min_sel,
                    cfg.max_sel,
                ),
                seed: derive_seed(cfg.seed, 8_000 + i as u64),
            })
            .collect()
    }

    /// Run a full mixed-traffic scenario on the engine's service and
    /// aggregate per-cohort statistics. Outcomes come back in request
    /// order; their contents are independent of the worker count, and
    /// only measured timing varies.
    pub fn run_scenario(
        &self,
        cfg: &ScenarioConfig,
        eval_rows: &[Vec<f64>],
    ) -> (Vec<ScenarioOutcome>, ScenarioReport) {
        let requests = self.scenario_requests(cfg);
        let cohorts: Vec<usize> = requests.iter().map(|r| r.cohort).collect();
        let t0 = Instant::now();
        let done = self.serve(eval_rows, |service| {
            for req in requests {
                let request = SessionRequest {
                    id: req.id,
                    truth: req.truth,
                    variant: cfg.variant,
                    seed: req.seed,
                };
                service.submit_analyst(ENGINE_SHARD, request, &cfg.cohorts[req.cohort].behavior);
            }
        });
        let outcomes: Vec<ScenarioOutcome> = done
            .into_iter()
            .zip(cohorts)
            .map(|(o, cohort)| ScenarioOutcome {
                id: o.id,
                cohort,
                outcome: behavioral(o),
            })
            .collect();
        let wall = t0.elapsed().as_secs_f64();
        let report = ScenarioReport::collect(cfg, &outcomes, wall, self.workers());
        (outcomes, report)
    }
}

/// A scenario session's outcome, from the service's.
fn behavioral(o: ServiceOutcome) -> BehavioralOutcome {
    let analyst = o
        .analyst
        .expect("scenario sessions are submitted with an analyst");
    BehavioralOutcome {
        confusion: o.outcome.confusion,
        per_subspace_f1: o.outcome.per_subspace_f1,
        f1_by_round: analyst.f1_by_round,
        online_seconds: o.outcome.online_seconds,
        think_seconds: analyst.think_seconds,
        labels_used: o.outcome.labels_used,
        rounds_run: analyst.rounds_run,
        abandoned: analyst.abandoned,
        drifted: analyst.drifted,
        subspace_outcomes: o.outcome.subspace_outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lte_core::config::LteConfig;
    use lte_core::metrics::ConfusionMatrix;
    use lte_core::oracle::Cadence;
    use lte_core::pipeline::LtePipeline;
    use lte_core::scenario::{DriftSpec, DriftTrigger};
    use lte_data::generator::generate_sdss;
    use lte_data::subspace::decompose_sequential;
    use std::sync::Arc;

    fn mix(sessions: usize) -> ScenarioConfig {
        ScenarioConfig::standard_mix(sessions, 42)
    }

    fn tiny_engine() -> (SessionEngine, Vec<Vec<f64>>) {
        let table = generate_sdss(3000, 0);
        let mut cfg = LteConfig::reduced();
        cfg.train.n_tasks = 60;
        cfg.train.epochs = 1;
        let (p, _) = LtePipeline::offline(&table, decompose_sequential(4, 2), cfg, 11);
        let eval: Vec<Vec<f64>> = (0..250).map(|i| table.row(i).unwrap()).collect();
        (SessionEngine::with_workers(Arc::new(p), 2), eval)
    }

    fn truth(engine: &SessionEngine) -> ConjunctiveOracle {
        engine
            .pipeline()
            .generate_truth(UisMode::new(4, 10), 6, 0.25, 0.9)
    }

    /// One analyst's Meta session, seed 9, on the engine's service.
    fn run_analyst(
        engine: &SessionEngine,
        behavior: &BehaviorConfig,
        eval: &[Vec<f64>],
    ) -> BehavioralOutcome {
        let request = SessionRequest {
            id: 0,
            truth: truth(engine),
            variant: Variant::Meta,
            seed: 9,
        };
        let mut done = engine.serve(eval, |service| {
            service.submit_analyst(ENGINE_SHARD, request, behavior);
        });
        assert_eq!(done.len(), 1);
        behavioral(done.pop().expect("one session"))
    }

    #[test]
    fn behavioral_steady_matches_pipeline_explore() {
        let (engine, eval) = tiny_engine();
        let reference = engine
            .pipeline()
            .explore(&truth(&engine), &eval, Variant::Meta, 9);
        let behavioral = run_analyst(&engine, &BehaviorConfig::steady(), &eval);

        // Same seed stream + transparent oracle ⇒ identical predictions,
        // scores, and metrics (timing aside).
        assert!(!behavioral.abandoned);
        assert!(!behavioral.drifted);
        assert_eq!(behavioral.think_seconds, 0.0);
        assert_eq!(behavioral.rounds_run, 2);
        assert_eq!(behavioral.labels_used, 2 * reference.labels_used);
        assert_eq!(behavioral.confusion, reference.confusion);
        assert_eq!(behavioral.per_subspace_f1, reference.per_subspace_f1);
        for (b, r) in behavioral
            .subspace_outcomes
            .iter()
            .zip(&reference.subspace_outcomes)
        {
            assert_eq!(b.predictions, r.predictions);
            let same_scores = b
                .scores
                .iter()
                .zip(&r.scores)
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same_scores, "score streams diverged");
        }
    }

    #[test]
    fn behavioral_abandonment_truncates_the_session() {
        let (engine, eval) = tiny_engine();
        let mut cfg = BehaviorConfig::steady();
        cfg.abandon_after = Some(1);
        let outcome = run_analyst(&engine, &cfg, &eval);
        assert!(outcome.abandoned);
        assert_eq!(outcome.rounds_run, 1);
        assert_eq!(outcome.subspace_outcomes.len(), 1);
        assert_eq!(outcome.f1_by_round.len(), 1);

        // The one round it did run is identical to the steady session's.
        let full = run_analyst(&engine, &BehaviorConfig::steady(), &eval);
        assert_eq!(
            outcome.subspace_outcomes[0].predictions,
            full.subspace_outcomes[0].predictions
        );

        // Abandoning before round 0 runs no round: every pool row stays
        // predicted interesting, judged against the initial truth.
        cfg.abandon_after = Some(0);
        let outcome = run_analyst(&engine, &cfg, &eval);
        assert!(outcome.abandoned);
        assert_eq!(outcome.rounds_run, 0);
        assert_eq!(outcome.labels_used, 0);
        assert!(outcome.subspace_outcomes.is_empty());
        assert!(outcome.f1_by_round.is_empty());
        let truth = truth(&engine);
        let expected = ConfusionMatrix::from_pairs(eval.iter().map(|r| (true, truth.label(r))));
        assert_eq!(outcome.confusion, expected);
    }

    #[test]
    fn behavioral_drift_is_flagged_and_changes_the_target() {
        let (engine, eval) = tiny_engine();
        let cfg = BehaviorConfig {
            noise: 0.0,
            drift: Some(DriftSpec {
                trigger: DriftTrigger::AtRound(1),
                translate_frac: 0.5,
                scale: 1.0,
            }),
            abandon_after: None,
            cadence: Cadence::instant(),
        };
        let outcome = run_analyst(&engine, &cfg, &eval);
        assert!(outcome.drifted);
        assert_eq!(outcome.rounds_run, 2);

        // Round 0 ran before the shift, so it matches the steady session;
        // the shifted truth differs from the original on some eval row.
        let steady = run_analyst(&engine, &BehaviorConfig::steady(), &eval);
        assert_eq!(
            outcome.subspace_outcomes[0].predictions,
            steady.subspace_outcomes[0].predictions
        );
        assert_eq!(outcome.per_subspace_f1[0], steady.per_subspace_f1[0]);
        let truth = truth(&engine);
        let shifted = cfg.drift.unwrap().shift_truth(&truth);
        let differs = eval.iter().any(|r| shifted.label(r) != truth.label(r));
        assert!(differs, "a half-extent shift must move some labels");
    }

    #[test]
    fn assignments_apportion_and_cover_every_cohort() {
        let cfg = mix(40);
        let slots = cfg.assignments();
        assert_eq!(slots.len(), 40);
        let count = |c: usize| slots.iter().filter(|&&s| s == c).count();
        assert_eq!(count(0), 32, "80% of 40");
        assert_eq!(count(1), 6, "15% of 40");
        assert_eq!(count(2), 2, "5% of 40");
    }

    #[test]
    fn assignments_are_deterministic_and_shuffled() {
        let cfg = mix(64);
        let a = cfg.assignments();
        assert_eq!(a, cfg.assignments());
        // Shuffled: the tail is not all-churners as the unshuffled
        // repeat-layout would make it.
        assert_ne!(
            &a[..],
            &{
                let mut sorted = a.clone();
                sorted.sort_unstable();
                sorted
            }[..],
            "assignment order must be shuffled"
        );
        // A different seed shuffles differently.
        let mut other = mix(64);
        other.seed = 43;
        assert_ne!(a, other.assignments());
    }

    #[test]
    fn zero_weight_mass_falls_back_to_the_first_cohort() {
        let mut cfg = mix(10);
        for c in &mut cfg.cohorts {
            c.weight = 0.0;
        }
        let slots = cfg.assignments();
        assert_eq!(slots, vec![0; 10]);
    }

    /// Regression (serving bugfix sweep): a mix engineered so every cohort
    /// has the *same* fractional remainder. The leftover slots must go to
    /// the smallest cohort indices — a documented total order — not to
    /// whatever the float comparator or sort stability happened to yield.
    #[test]
    fn apportionment_breaks_remainder_ties_by_cohort_index() {
        let mut cfg = mix(6);
        cfg.cohorts = (0..4)
            .map(|i| Cohort {
                name: format!("c{i}"),
                behavior: BehaviorConfig::steady(),
                weight: 1.0,
            })
            .collect();
        // Quotas are 1.5 each: floors assign 4, the 2 leftover slots must
        // land on cohorts 0 and 1 (index tie-break).
        let slots = cfg.assignments();
        let count = |c: usize| slots.iter().filter(|&&s| s == c).count();
        assert_eq!(
            [count(0), count(1), count(2), count(3)],
            [2, 2, 1, 1],
            "ties must resolve by cohort index"
        );
        // Byte-identical across calls (and trivially across worker counts:
        // assignment happens before any worker is involved).
        assert_eq!(slots, cfg.assignments());
        // A NaN weight must not poison the ordering for the others.
        cfg.cohorts[3].weight = f64::NAN;
        let slots = cfg.assignments();
        assert_eq!(slots.len(), 6);
        assert_eq!(slots.iter().filter(|&&s| s == 3).count(), 0);
    }

    #[test]
    fn tiny_session_counts_still_cover_the_big_cohorts() {
        let cfg = mix(3);
        let slots = cfg.assignments();
        assert_eq!(slots.len(), 3);
        assert!(slots.contains(&0), "steady cohort must appear");
    }
}
