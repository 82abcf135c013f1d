//! Iterative exploration: active learning on top of meta-learners
//! (§III-B, "Other IDE Modules" 1).
//!
//! The LTE framework plugs into existing IDE loops: "if a user wants to
//! continue exploring after the initial exploration phase, active learning
//! can be employed to feed more labelled tuples to the meta-learner for
//! further training." This module implements that continuation:
//!
//! 1. run the standard initial exploration (Cs centers + Δ random tuples),
//! 2. per round, pick the pool tuple the adapted classifier is *least sure*
//!    about (|logit| minimal — uncertainty sampling), ask the user,
//! 3. re-adapt from the meta-initialization on the grown label set,
//! 4. stop at the extended budget or when the convergence indicator
//!    ([`crate::refine::Subregions::three_set_bound`]) crosses a threshold.

use crate::classifier::{Example, UisClassifier};
use crate::config::LteConfig;
use crate::context::SubspaceContext;
use crate::explore::initial_support;
use crate::meta_learner::MetaLearner;
use crate::oracle::SubspaceOracle;
use crate::scorer::{ScoreRequest, Scorer};
use lte_data::rng::{derive_seed, seeded};
use rand::Rng;
use std::cmp::Ordering;

/// Outcome of an iterative exploration session.
#[derive(Debug, Clone)]
pub struct IterativeOutcome {
    /// Predictions for the evaluation pool after the final round.
    pub predictions: Vec<bool>,
    /// Total labels consumed (initial + iterative rounds).
    pub labels_used: usize,
    /// Number of active-learning rounds executed.
    pub rounds: usize,
    /// Convergence-bound trajectory (one value per round), when tracked.
    pub bound_history: Vec<f64>,
}

/// Configuration of the iterative continuation.
#[derive(Debug, Clone)]
pub struct IterativeConfig {
    /// Additional labels beyond the initial `B`.
    pub extra_budget: usize,
    /// Uncertainty-sampling candidates per round.
    pub candidates_per_round: usize,
    /// Stop early when the three-set F1 lower bound reaches this value
    /// (`None` disables convergence stopping).
    pub stop_at_bound: Option<f64>,
}

impl Default for IterativeConfig {
    fn default() -> Self {
        Self {
            extra_budget: 20,
            candidates_per_round: 100,
            stop_at_bound: None,
        }
    }
}

/// Run initial exploration plus iterative active-learning rounds on one
/// subspace. Returns the final predictions over `pool`.
pub fn explore_iteratively(
    ctx: &SubspaceContext,
    learner: &MetaLearner,
    oracle: &dyn SubspaceOracle,
    pool: &[Vec<f64>],
    cfg: &LteConfig,
    iter_cfg: &IterativeConfig,
    seed: u64,
) -> IterativeOutcome {
    // Initial exploration: the support set `prepare_round` builds, from
    // the same seed.
    let (cs_labels, mut examples, v_r) = initial_support(ctx, oracle, cfg, &mut seeded(seed));

    let encoded_pool: Vec<Vec<f64>> = pool.iter().map(|r| ctx.encode(r)).collect();
    let mut labeled_pool: Vec<bool> = vec![false; pool.len()];
    let score = |classifier: &UisClassifier, rows: &[Vec<f64>]| {
        classifier.score(&ScoreRequest::new(&v_r, rows, cfg.online.precision))
    };

    let adapt = |examples: &[Example]| -> UisClassifier {
        let w = UisClassifier::balance_weight(examples);
        learner
            .adapt_weighted(&v_r, examples, cfg.online.adapt_steps, cfg.online.lr, w)
            .classifier
    };
    let mut classifier = adapt(&examples);

    let mut rounds = 0;
    let mut bound_history = Vec::new();
    let mut extra_positives: Vec<Vec<f64>> = Vec::new();

    for round in 0..iter_cfg.extra_budget {
        // Convergence check on the current model: the subregions absorb
        // every positive label collected so far, so the bound moves as the
        // session progresses.
        if let Some(target) = iter_cfg.stop_at_bound {
            let regions = crate::refine::build_subregions_with_anchors(
                ctx,
                &cs_labels,
                &extra_positives,
                &cfg.refine,
            );
            let bound = regions.three_set_bound(pool);
            bound_history.push(bound);
            if bound >= target {
                break;
            }
        }

        // Uncertainty sampling over unlabeled candidates.
        let mut round_rng = seeded(derive_seed(seed, 10_000 + round as u64));
        let candidates: Vec<usize> = sample_candidates(
            &mut round_rng,
            pool.len(),
            &labeled_pool,
            iter_cfg.candidates_per_round,
        );
        let rows: Vec<Vec<f64>> = candidates
            .iter()
            .map(|&i| encoded_pool[i].clone())
            .collect();
        let logits = score(&classifier, &rows);
        // The least |logit|; `min_by` keeps the first candidate on a tie.
        let Some((&next, _)) = candidates
            .iter()
            .zip(&logits)
            .min_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap_or(Ordering::Equal))
        else {
            break;
        };

        labeled_pool[next] = true;
        let label = oracle.label(&pool[next]);
        if label {
            extra_positives.push(pool[next].clone());
        }
        examples.push((encoded_pool[next].clone(), label));
        classifier = adapt(&examples);
        rounds += 1;
    }

    let predictions = score(&classifier, &encoded_pool)
        .into_iter()
        .map(|logit| logit > 0.0)
        .collect();
    IterativeOutcome {
        predictions,
        labels_used: examples.len(),
        rounds,
        bound_history,
    }
}

fn sample_candidates<R: Rng + ?Sized>(
    rng: &mut R,
    pool_len: usize,
    labeled: &[bool],
    count: usize,
) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..pool_len).filter(|&i| !labeled[i]).collect();
    let take = count.min(idx.len());
    for i in 0..take {
        let j = rng.random_range(i..idx.len());
        idx.swap(i, j);
    }
    idx.truncate(take);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LteConfig;
    use crate::feature::expansion_degree;
    use crate::meta_task::generate_task_set;
    use crate::metrics::ConfusionMatrix;
    use crate::oracle::RegionOracle;
    use crate::uis::generate_uis;
    use lte_data::generator::generate_sdss;
    use lte_data::subspace::Subspace;

    fn setup() -> (SubspaceContext, MetaLearner, LteConfig) {
        let table = generate_sdss(3000, 0);
        let mut cfg = LteConfig::reduced();
        cfg.train.n_tasks = 120;
        cfg.train.epochs = 3;
        let ctx = SubspaceContext::build(
            &table,
            Subspace::new(vec![0, 1]),
            &cfg.task,
            &cfg.encoder,
            51,
        );
        let l = expansion_degree(cfg.task.ku, cfg.net.expansion_frac);
        let tasks = generate_task_set(&ctx, &cfg.task, l, cfg.train.n_tasks, &mut seeded(52));
        let mut learner = MetaLearner::new(
            cfg.task.ku,
            ctx.feature_width(),
            &cfg.net,
            cfg.train.clone(),
            53,
        );
        learner.train(&tasks);
        (ctx, learner, cfg)
    }

    #[test]
    fn iterative_rounds_consume_extra_budget() {
        let (ctx, learner, cfg) = setup();
        let uis = generate_uis(ctx.cu(), ctx.pu(), cfg.task.mode, &mut seeded(99));
        let oracle = RegionOracle::new(uis);
        let pool: Vec<Vec<f64>> = ctx.sample_rows()[..300].to_vec();
        let iter_cfg = IterativeConfig {
            extra_budget: 10,
            ..IterativeConfig::default()
        };
        let outcome = explore_iteratively(&ctx, &learner, &oracle, &pool, &cfg, &iter_cfg, 1);
        assert_eq!(outcome.rounds, 10);
        assert_eq!(outcome.labels_used, cfg.budget() + 10);
        assert_eq!(outcome.predictions.len(), 300);
    }

    #[test]
    fn more_rounds_do_not_hurt_on_average() {
        let (ctx, learner, cfg) = setup();
        let pool: Vec<Vec<f64>> = ctx.sample_rows().to_vec();
        let mut f1_short = 0.0;
        let mut f1_long = 0.0;
        let mut n = 0;
        for rep in 0..4u64 {
            let uis = generate_uis(ctx.cu(), ctx.pu(), cfg.task.mode, &mut seeded(200 + rep));
            let sel = uis.selectivity(&pool);
            if !(0.1..=0.9).contains(&sel) {
                continue;
            }
            let oracle = RegionOracle::new(uis);
            let f1 = |extra: usize| {
                let iter_cfg = IterativeConfig {
                    extra_budget: extra,
                    ..IterativeConfig::default()
                };
                let o =
                    explore_iteratively(&ctx, &learner, &oracle, &pool, &cfg, &iter_cfg, 300 + rep);
                ConfusionMatrix::from_pairs(
                    o.predictions
                        .iter()
                        .zip(&pool)
                        .map(|(&p, row)| (p, oracle.label(row))),
                )
                .f1()
            };
            f1_short += f1(0);
            f1_long += f1(15);
            n += 1;
        }
        assert!(n > 0, "need at least one valid test UIS");
        // Active continuation shouldn't hurt much on average.
        assert!(
            f1_long >= f1_short - 0.05 * n as f64,
            "15 extra labels degraded: {f1_short} -> {f1_long} over {n} reps"
        );
    }

    #[test]
    fn convergence_stopping_halts_early() {
        let (ctx, learner, cfg) = setup();
        let uis = generate_uis(ctx.cu(), ctx.pu(), cfg.task.mode, &mut seeded(400));
        let oracle = RegionOracle::new(uis);
        let pool: Vec<Vec<f64>> = ctx.sample_rows()[..200].to_vec();
        let iter_cfg = IterativeConfig {
            extra_budget: 10,
            stop_at_bound: Some(0.0), // trivially satisfied at once
            ..IterativeConfig::default()
        };
        let outcome = explore_iteratively(&ctx, &learner, &oracle, &pool, &cfg, &iter_cfg, 2);
        assert_eq!(outcome.rounds, 0, "bound 0.0 must stop immediately");
        assert_eq!(outcome.bound_history.len(), 1);
    }
}
