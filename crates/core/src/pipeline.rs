//! The end-to-end LTE pipeline over a multi-attribute user-interest space.
//!
//! Offline (§III-B left half): decompose the space into meta-subspaces,
//! build a [`SubspaceContext`] per subspace, generate its meta-task set, and
//! meta-train one [`MetaLearner`] per subspace.
//!
//! Online (§III-B right half): for a user whose interest is a conjunction of
//! per-subspace regions, run [`crate::explore::explore_subspace`] per subspace and
//! conjoin the predictions into the UIR, `Ru = ∧ Ri`.
//!
//! Budget accounting: `B = ks + Δ` is the per-subspace-group labelling
//! budget, matching the paper's "support-set size reflects the budget"
//! convention; conjunctive subspaces form one group (§V-D footnote 8).

use crate::config::LteConfig;
use crate::context::SubspaceContext;
use crate::explore::{finish_round, prepare_round, ExploreOutcome, Variant};
use crate::feature::expansion_degree;
use crate::meta_learner::MetaLearner;
use crate::meta_task::generate_task_set;
use crate::metrics::ConfusionMatrix;
use crate::oracle::{ConjunctiveOracle, RegionOracle};
use crate::scorer::{ScoreRequest, Scorer};
use crate::uis::{generate_uis, UisMode};
use lte_data::rng::{derive_seed, seeded};
use lte_data::subspace::Subspace;
use lte_data::table::Table;
use lte_geom::RegionUnion;
use std::collections::BTreeMap;
use std::time::Instant;

/// Timing and quality report of the offline phase.
#[derive(Debug, Clone)]
pub struct OfflineReport {
    /// Seconds spent generating meta-tasks (all subspaces).
    pub task_gen_seconds: f64,
    /// Seconds spent meta-training (all subspaces).
    pub train_seconds: f64,
    /// Meta-tasks generated per subspace (`|TM|`).
    pub tasks_per_subspace: usize,
    /// Final per-subspace mean query loss after training.
    pub final_query_loss: Vec<f64>,
}

/// Result of one online UIR exploration.
#[derive(Debug, Clone)]
pub struct UirOutcome {
    /// Confusion matrix of conjunctive UIR prediction over the pool.
    pub confusion: ConfusionMatrix,
    /// Per-subspace UIS F1 scores.
    pub per_subspace_f1: Vec<f64>,
    /// Total online seconds (adaptation + prediction, all subspaces).
    pub online_seconds: f64,
    /// Per-subspace-group labels consumed (`B = ks + Δ`).
    pub labels_used: usize,
    /// Per-subspace exploration outcomes (scores, labels, timing).
    pub subspace_outcomes: Vec<ExploreOutcome>,
}

impl UirOutcome {
    /// Conjunctive UIR F1.
    pub fn f1(&self) -> f64 {
        self.confusion.f1()
    }

    /// Conjunctive prediction per pool row (AND over subspaces, after any
    /// Meta* revision).
    pub fn uir_predictions(&self) -> Vec<bool> {
        let n = self
            .subspace_outcomes
            .first()
            .map_or(0, |o| o.predictions.len());
        let mut pred = vec![true; n];
        for sub in &self.subspace_outcomes {
            for (p, &s) in pred.iter_mut().zip(&sub.predictions) {
                *p &= s;
            }
        }
        pred
    }

    /// Final retrieval (§III-B "Other IDE Modules" 3): pool indices ranked
    /// by conjunctive confidence — the *minimum* subspace probability, the
    /// natural conjunction of per-subspace beliefs. `k = None` returns the
    /// full ranking.
    pub fn ranked_retrieval(&self, k: Option<usize>) -> Vec<(usize, f64)> {
        let n = self.subspace_outcomes.first().map_or(0, |o| o.scores.len());
        let mut scored: Vec<(usize, f64)> = (0..n)
            .map(|i| {
                let conf = self
                    .subspace_outcomes
                    .iter()
                    .map(|o| sigmoid(o.scores[i]))
                    .fold(1.0f64, f64::min);
                (i, conf)
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        if let Some(k) = k {
            scored.truncate(k);
        }
        scored
    }
}

/// One round's ground truth over the pool: which projected pool rows the
/// round's ground-truth region contains, and the round's per-subspace F1
/// against them. A pure function of its inputs, so the serving engine
/// computes it inside each round's parallel finish job.
#[derive(Debug, Clone)]
pub struct RoundTruth {
    mask: Vec<bool>,
    f1: f64,
}

impl RoundTruth {
    /// Test each projected pool row against `region` once and score the
    /// round's `predictions` (one per row) against the result.
    pub fn evaluate(region: &RegionUnion, proj: &[Vec<f64>], predictions: &[bool]) -> Self {
        let mask = pool_mask(region, proj);
        let f1 =
            ConfusionMatrix::from_pairs(predictions.iter().copied().zip(mask.iter().copied())).f1();
        Self { mask, f1 }
    }
}

/// Which projected pool rows `region` contains.
fn pool_mask(region: &RegionUnion, proj: &[Vec<f64>]) -> Vec<bool> {
    proj.iter().map(|row| region.contains(row)).collect()
}

/// Folds an exploration's rounds into its [`UirOutcome`], keeping one
/// pool mask per (truth version, subspace). A truth version is the
/// caller's number for each ground truth a session holds: 0 throughout
/// when the truth never changes, another one after an analyst's interest
/// drifts. One version's masks AND-ed over every subspace equal
/// [`ConjunctiveOracle::label`] on the full rows, because the truth's
/// subspaces are the pipeline's, which [`LtePipeline::explore_with_pool`]
/// and the serving engine both require.
#[derive(Debug, Clone)]
pub struct UirTally {
    rows: usize,
    masks: BTreeMap<(usize, usize), Vec<bool>>,
    versions: Vec<usize>,
    per_subspace_f1: Vec<f64>,
    online_seconds: f64,
    subspace_outcomes: Vec<ExploreOutcome>,
}

impl UirTally {
    /// An empty tally over a pool of `rows` rows.
    pub fn new(rows: usize) -> Self {
        Self {
            rows,
            masks: BTreeMap::new(),
            versions: Vec::new(),
            per_subspace_f1: Vec::new(),
            online_seconds: 0.0,
            subspace_outcomes: Vec::new(),
        }
    }

    /// Fold in one finished round and its ground truth, under truth
    /// version 0.
    pub fn push(&mut self, outcome: ExploreOutcome, truth: RoundTruth) {
        self.push_under(0, outcome, truth);
    }

    /// Fold in one finished round whose ground truth is truth version
    /// `version`. Round `i` explores subspace `i`.
    pub fn push_under(&mut self, version: usize, outcome: ExploreOutcome, truth: RoundTruth) {
        let subspace = self.subspace_outcomes.len();
        self.masks.insert((version, subspace), truth.mask);
        self.versions.push(version);
        self.per_subspace_f1.push(truth.f1);
        self.online_seconds += outcome.online_seconds;
        self.subspace_outcomes.push(outcome);
    }

    /// Test every mask that scoring against each of `versions` over
    /// `subspaces` subspaces needs and no round tested. `truth(version,
    /// subspace)` names that truth's region and the projected pool rows.
    pub fn test_missing<'a>(
        &mut self,
        versions: &[usize],
        subspaces: usize,
        truth: impl Fn(usize, usize) -> (&'a RegionUnion, &'a [Vec<f64>]),
    ) {
        for &version in versions {
            for subspace in 0..subspaces {
                self.masks.entry((version, subspace)).or_insert_with(|| {
                    let (region, proj) = truth(version, subspace);
                    pool_mask(region, proj)
                });
            }
        }
    }

    /// The conjunctive F1 after each round against the truth version that
    /// round ran under, over every subspace (see [`UirTally::test_missing`]).
    pub fn f1_by_round(&self) -> Vec<f64> {
        let mut pred = vec![true; self.rows];
        self.subspace_outcomes
            .iter()
            .zip(&self.versions)
            .map(|(outcome, &version)| {
                and_into(&mut pred, &outcome.predictions);
                self.confusion(&pred, version).f1()
            })
            .collect()
    }

    /// The exploration's outcome, with `labels_used` labels consumed,
    /// scored against truth version 0.
    pub fn finish(self, labels_used: usize) -> UirOutcome {
        self.finish_under(0, labels_used)
    }

    /// The exploration's outcome, with `labels_used` labels consumed,
    /// scored against the truth the session ends with, `version`.
    pub fn finish_under(self, version: usize, labels_used: usize) -> UirOutcome {
        let mut pred = vec![true; self.rows];
        for outcome in &self.subspace_outcomes {
            and_into(&mut pred, &outcome.predictions);
        }
        UirOutcome {
            confusion: self.confusion(&pred, version),
            per_subspace_f1: self.per_subspace_f1,
            online_seconds: self.online_seconds,
            labels_used,
            subspace_outcomes: self.subspace_outcomes,
        }
    }

    /// `pred` against truth version `version`'s masks AND-ed.
    fn confusion(&self, pred: &[bool], version: usize) -> ConfusionMatrix {
        let mut truth = vec![true; self.rows];
        for mask in self
            .masks
            .range((version, 0)..(version + 1, 0))
            .map(|(_, m)| m)
        {
            and_into(&mut truth, mask);
        }
        ConfusionMatrix::from_pairs(pred.iter().copied().zip(truth))
    }
}

fn and_into(acc: &mut [bool], flags: &[bool]) {
    for (a, &f) in acc.iter_mut().zip(flags) {
        *a &= f;
    }
}

fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// A retrieval pool preprocessed once per pipeline: for every subspace, the
/// projected raw rows (what `Meta*`'s geometric revision reads) and their
/// encoded feature vectors (what the classifier scores).
///
/// Projection and encoding are pure functions of the pipeline's contexts,
/// so one `EncodedPool` can be shared by any number of sessions exploring
/// the same pool — the serving engine caches one per (dataset shard,
/// pipeline epoch) and stops re-encoding the pool per session per round,
/// which is where most of the per-session online cost goes.
#[derive(Debug, Clone)]
pub struct EncodedPool {
    proj: Vec<Vec<Vec<f64>>>,
    encoded: Vec<Vec<Vec<f64>>>,
    rows: usize,
}

impl EncodedPool {
    /// Number of pool rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Projected raw rows of one subspace.
    pub fn proj(&self, subspace: usize) -> &[Vec<f64>] {
        &self.proj[subspace]
    }

    /// Encoded feature rows of one subspace.
    pub fn encoded(&self, subspace: usize) -> &[Vec<f64>] {
        &self.encoded[subspace]
    }
}

/// The trained LTE system: one context + meta-learner per subspace.
#[derive(Debug, Clone)]
pub struct LtePipeline {
    config: LteConfig,
    subspaces: Vec<Subspace>,
    contexts: Vec<SubspaceContext>,
    learners: Vec<MetaLearner>,
}

impl LtePipeline {
    /// Reassemble a pipeline from persisted parts (see
    /// [`crate::persist`]).
    ///
    /// # Panics
    /// Panics when the part counts disagree.
    pub fn from_parts(
        config: LteConfig,
        subspaces: Vec<Subspace>,
        contexts: Vec<SubspaceContext>,
        learners: Vec<MetaLearner>,
    ) -> Self {
        assert_eq!(subspaces.len(), contexts.len(), "context count mismatch");
        assert_eq!(subspaces.len(), learners.len(), "learner count mismatch");
        Self {
            config,
            subspaces,
            contexts,
            learners,
        }
    }

    /// Run the full offline phase on `table` over the given subspace
    /// decomposition.
    pub fn offline(
        table: &Table,
        subspaces: Vec<Subspace>,
        config: LteConfig,
        seed: u64,
    ) -> (Self, OfflineReport) {
        assert!(!subspaces.is_empty(), "at least one subspace required");
        let mut contexts = Vec::with_capacity(subspaces.len());
        let mut learners = Vec::with_capacity(subspaces.len());
        let mut task_gen_seconds = 0.0;
        let mut train_seconds = 0.0;
        let mut final_query_loss = Vec::with_capacity(subspaces.len());

        for (i, sub) in subspaces.iter().enumerate() {
            let sub_seed = derive_seed(seed, i as u64);
            let ctx =
                SubspaceContext::build(table, sub.clone(), &config.task, &config.encoder, sub_seed);

            let l = expansion_degree(config.task.ku, config.net.expansion_frac);
            let t0 = Instant::now();
            let tasks = generate_task_set(
                &ctx,
                &config.task,
                l,
                config.train.n_tasks,
                &mut seeded(derive_seed(sub_seed, 1)),
            );
            task_gen_seconds += t0.elapsed().as_secs_f64();

            let mut learner = MetaLearner::new(
                config.task.ku.min(ctx.cu().len()),
                ctx.feature_width(),
                &config.net,
                config.train.clone(),
                derive_seed(sub_seed, 2),
            );
            let t0 = Instant::now();
            let report = learner.train(&tasks);
            train_seconds += t0.elapsed().as_secs_f64();
            final_query_loss.push(report.epoch_query_loss.last().copied().unwrap_or(f64::NAN));

            contexts.push(ctx);
            learners.push(learner);
        }

        let report = OfflineReport {
            task_gen_seconds,
            train_seconds,
            tasks_per_subspace: config.train.n_tasks,
            final_query_loss,
        };
        (
            Self {
                config,
                subspaces,
                contexts,
                learners,
            },
            report,
        )
    }

    /// The configuration in force.
    pub fn config(&self) -> &LteConfig {
        &self.config
    }

    /// Override the online-exploration parameters (adaptation steps /
    /// learning rate) without retraining — used by the Fig. 8(d) online
    /// learning-rate sweep.
    pub fn set_online(&mut self, online: crate::config::OnlineConfig) {
        self.config.online = online;
    }

    /// The subspace decomposition.
    pub fn subspaces(&self) -> &[Subspace] {
        &self.subspaces
    }

    /// Per-subspace offline contexts.
    pub fn contexts(&self) -> &[SubspaceContext] {
        &self.contexts
    }

    /// Per-subspace meta-learners.
    pub fn learners(&self) -> &[MetaLearner] {
        &self.learners
    }

    /// Generate a ground-truth UIR: one simulated UIS per subspace, in the
    /// given mode, rejected until its selectivity over the subspace sample
    /// lies within `(min_sel, max_sel)` — degenerate test regions make F1
    /// meaningless. Returns the conjunctive oracle.
    pub fn generate_truth(
        &self,
        mode: UisMode,
        seed: u64,
        min_sel: f64,
        max_sel: f64,
    ) -> ConjunctiveOracle {
        let mut parts = Vec::with_capacity(self.contexts.len());
        for (i, ctx) in self.contexts.iter().enumerate() {
            let mut rng = seeded(derive_seed(seed, 1000 + i as u64));
            let mut region = generate_uis(ctx.cu(), ctx.pu(), mode, &mut rng);
            let mut tries = 0;
            while tries < 100 {
                let sel = region.selectivity(ctx.sample_rows());
                if sel > min_sel && sel < max_sel {
                    break;
                }
                region = generate_uis(ctx.cu(), ctx.pu(), mode, &mut rng);
                tries += 1;
            }
            parts.push((self.subspaces[i].clone(), region));
        }
        ConjunctiveOracle::new(parts)
    }

    /// Project and encode a retrieval pool once for every subspace, so the
    /// result can be shared across sessions (see [`EncodedPool`]).
    pub fn encode_pool(&self, eval_rows: &[Vec<f64>]) -> EncodedPool {
        let mut proj = Vec::with_capacity(self.subspaces.len());
        let mut encoded = Vec::with_capacity(self.subspaces.len());
        for (sub, ctx) in self.subspaces.iter().zip(&self.contexts) {
            let p: Vec<Vec<f64>> = eval_rows.iter().map(|r| sub.project_row(r)).collect();
            let e: Vec<Vec<f64>> = p.iter().map(|row| ctx.encode(row)).collect();
            proj.push(p);
            encoded.push(e);
        }
        EncodedPool {
            proj,
            encoded,
            rows: eval_rows.len(),
        }
    }

    /// Online exploration of a UIR defined by per-subspace ground-truth
    /// regions (in pipeline subspace order), evaluated on `eval_rows`
    /// (full-space tuples).
    pub fn explore(
        &self,
        truth: &ConjunctiveOracle,
        eval_rows: &[Vec<f64>],
        variant: Variant,
        seed: u64,
    ) -> UirOutcome {
        self.explore_with_pool(
            truth,
            eval_rows,
            &self.encode_pool(eval_rows),
            variant,
            seed,
        )
    }

    /// [`LtePipeline::explore`] against a pre-encoded pool — callers that
    /// run many sessions over the same `eval_rows` (the serving engine)
    /// build the [`EncodedPool`] once and skip the per-session projection
    /// and encoding passes. Outcomes are bit-identical to
    /// [`LtePipeline::explore`]: projection and encoding are pure, and the
    /// per-round seed stream (`derive_seed(seed, 2000 + i)`) is unchanged.
    ///
    /// # Panics
    /// Panics when `pool` was built from different rows than `eval_rows`
    /// (length check) or the truth's subspaces disagree with the pipeline.
    pub fn explore_with_pool(
        &self,
        truth: &ConjunctiveOracle,
        eval_rows: &[Vec<f64>],
        pool: &EncodedPool,
        variant: Variant,
        seed: u64,
    ) -> UirOutcome {
        assert_eq!(
            truth.parts().len(),
            self.subspaces.len(),
            "one ground-truth region per subspace required"
        );
        assert!(
            truth.parts().iter().map(|(sub, _)| sub).eq(&self.subspaces),
            "ground-truth subspaces must match the pipeline's decomposition"
        );
        assert_eq!(pool.rows(), eval_rows.len(), "pool/eval row count mismatch");
        let mut tally = UirTally::new(eval_rows.len());

        for (i, ctx) in self.contexts.iter().enumerate() {
            let (_, region) = &truth.parts()[i];
            let oracle = RegionOracle::new(region.clone());

            let learner = match variant {
                Variant::Basic => None,
                _ => Some(&self.learners[i]),
            };
            let prepared = prepare_round(
                ctx,
                learner,
                &oracle,
                &self.config,
                variant,
                derive_seed(seed, 2000 + i as u64),
            );
            let t0 = Instant::now();
            let scores = prepared.classifier.score(&ScoreRequest::new(
                &prepared.v_r,
                pool.encoded(i),
                self.config.online.precision,
            ));
            let score_seconds = t0.elapsed().as_secs_f64();
            let outcome = finish_round(
                ctx,
                prepared,
                pool.proj(i),
                scores,
                &self.config,
                variant,
                score_seconds,
            );
            let round_truth = RoundTruth::evaluate(region, pool.proj(i), &outcome.predictions);
            tally.push(outcome, round_truth);
        }
        tally.finish(self.config.budget())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lte_data::generator::generate_sdss;
    use lte_data::subspace::decompose_sequential;

    fn small_pipeline() -> (LtePipeline, OfflineReport, Table) {
        let table = generate_sdss(3000, 0);
        let mut cfg = LteConfig::reduced();
        cfg.train.n_tasks = 100;
        let subspaces = decompose_sequential(4, 2);
        let (p, r) = LtePipeline::offline(&table, subspaces, cfg, 77);
        (p, r, table)
    }

    #[test]
    fn offline_builds_one_learner_per_subspace() {
        let (p, report, _) = small_pipeline();
        assert_eq!(p.contexts().len(), 2);
        assert_eq!(p.learners().len(), 2);
        assert_eq!(report.final_query_loss.len(), 2);
        assert!(report.task_gen_seconds > 0.0);
        assert!(report.train_seconds > 0.0);
        assert!(report.final_query_loss.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn truth_generation_respects_selectivity_bounds() {
        let (p, _, _) = small_pipeline();
        let truth = p.generate_truth(UisMode::new(4, 10), 5, 0.2, 0.9);
        assert_eq!(truth.parts().len(), 2);
        for (i, (_, region)) in truth.parts().iter().enumerate() {
            let sel = region.selectivity(p.contexts()[i].sample_rows());
            assert!(sel > 0.15 && sel < 0.95, "subspace {i} selectivity {sel}");
        }
    }

    #[test]
    fn explore_produces_conjunctive_predictions() {
        let (p, _, table) = small_pipeline();
        let truth = p.generate_truth(UisMode::new(4, 10), 6, 0.25, 0.9);
        let eval: Vec<Vec<f64>> = (0..600).map(|i| table.row(i).unwrap()).collect();
        let outcome = p.explore(&truth, &eval, Variant::Meta, 9);
        assert_eq!(outcome.per_subspace_f1.len(), 2);
        assert_eq!(outcome.confusion.total(), 600);
        assert_eq!(outcome.labels_used, p.config().budget());
        assert!(outcome.online_seconds > 0.0);
        // Conjunctive prediction can never exceed any single subspace's
        // positive count.
        let conj_pos = outcome.confusion.tp + outcome.confusion.fp;
        for sub in &outcome.subspace_outcomes {
            let sub_pos = sub.predictions.iter().filter(|&&b| b).count();
            assert!(conj_pos <= sub_pos);
        }
    }

    #[test]
    fn ranked_retrieval_orders_by_conjunctive_confidence() {
        let (p, _, table) = small_pipeline();
        let truth = p.generate_truth(UisMode::new(4, 10), 8, 0.25, 0.9);
        let eval: Vec<Vec<f64>> = (0..200).map(|i| table.row(i).unwrap()).collect();
        let outcome = p.explore(&truth, &eval, Variant::Meta, 12);

        let ranked = outcome.ranked_retrieval(None);
        assert_eq!(ranked.len(), 200);
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1, "ranking must be non-increasing");
        }
        for (_, conf) in &ranked {
            assert!((0.0..=1.0).contains(conf));
        }
        let top5 = outcome.ranked_retrieval(Some(5));
        assert_eq!(top5.len(), 5);
        assert_eq!(top5[0], ranked[0]);

        // Conjunctive predictions match the confusion matrix totals.
        let preds = outcome.uir_predictions();
        let positives = preds.iter().filter(|&&b| b).count();
        assert_eq!(positives, outcome.confusion.tp + outcome.confusion.fp);
    }

    #[test]
    fn meta_star_runs_end_to_end() {
        let (p, _, table) = small_pipeline();
        let truth = p.generate_truth(UisMode::new(4, 10), 7, 0.25, 0.9);
        let eval: Vec<Vec<f64>> = (0..300).map(|i| table.row(i).unwrap()).collect();
        let outcome = p.explore(&truth, &eval, Variant::MetaStar, 10);
        assert!(outcome.f1().is_finite());
    }

    #[test]
    #[should_panic(expected = "ground-truth subspaces must match the pipeline's decomposition")]
    fn explore_with_pool_rejects_a_truth_over_other_subspaces() {
        let (p, _, table) = small_pipeline();
        let truth = p.generate_truth(UisMode::new(4, 10), 6, 0.25, 0.9);
        // As many subspaces of the same width as `{0,1} {2,3}`, over other
        // attributes.
        let other = [Subspace::new(vec![0, 2]), Subspace::new(vec![1, 3])];
        let truth = ConjunctiveOracle::new(
            truth
                .parts()
                .iter()
                .zip(other)
                .map(|((_, region), sub)| (sub, region.clone()))
                .collect(),
        );
        let eval: Vec<Vec<f64>> = (0..100).map(|i| table.row(i).unwrap()).collect();
        let pool = p.encode_pool(&eval);
        p.explore_with_pool(&truth, &eval, &pool, Variant::Meta, 9);
    }

    #[test]
    #[should_panic(expected = "at least one subspace")]
    fn empty_subspaces_panics() {
        let table = generate_sdss(500, 0);
        LtePipeline::offline(&table, vec![], LteConfig::reduced(), 0);
    }
}
