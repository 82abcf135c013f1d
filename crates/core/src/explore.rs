//! Online exploration of one subspace (§III-B, initial exploration module).
//!
//! The flow for a fresh user: (1) present the `ks` initial tuples (= the
//! `Cs` cluster centers, exactly the support-set construction of §V-D) plus
//! `Δ` random tuples; (2) collect labels from the (simulated) user;
//! (3) build the UIS feature vector from the `Cs` labels; (4) fast-adapt the
//! pre-trained meta-learner with a few local steps — or train a classifier
//! from scratch for the `Basic` ablation; (5) predict the UIS over an
//! evaluation pool; (6) for `Meta*`, revise predictions with the few-shot
//! optimizer (§VII-B).

use crate::classifier::{ClassifierConfig, Example, UisClassifier};
use crate::config::{LteConfig, RefineConfig};
use crate::context::SubspaceContext;
use crate::feature::{expansion_degree, uis_feature_vector};
use crate::meta_learner::MetaLearner;
use crate::oracle::SubspaceOracle;
use crate::refine::{build_subregions, AnchorMasks};
use crate::scorer::{ScoreRequest, Scorer};
use lte_data::rng::seeded;
use rand::Rng;
use std::time::Instant;

/// Which LTE variant to run (§VIII-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Basic UIS classifier, trained from scratch on the initial labels.
    Basic,
    /// Meta-learner fast-adapted from the learned initialization.
    Meta,
    /// `Meta` plus the few-shot prediction optimizer.
    MetaStar,
}

impl Variant {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Variant::Basic => "Basic",
            Variant::Meta => "Meta",
            Variant::MetaStar => "Meta*",
        }
    }
}

/// Result of exploring one subspace.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Predicted interestingness per evaluation row.
    pub predictions: Vec<bool>,
    /// Classifier logits per evaluation row (before geometric revision).
    pub scores: Vec<f64>,
    /// Labels consumed (`ks + Δ`).
    pub labels_used: usize,
    /// Wall-clock seconds spent on online adaptation + prediction.
    pub online_seconds: f64,
    /// The labels the user gave to the `Cs` initial tuples.
    pub cs_labels: Vec<bool>,
}

/// The label-and-adapt half of one exploration round, stopped right before
/// pool scoring — so a serving layer can collect many sessions' prepared
/// rounds and score their pools as one fused batch (see
/// [`crate::scorer::score_fused_with`]).
#[derive(Debug, Clone)]
pub struct PreparedRound {
    /// The adapted (or from-scratch-trained) classifier for this round.
    pub classifier: UisClassifier,
    /// The session's expanded UIS feature vector `vR`.
    pub v_r: Vec<f64>,
    /// The labels the user gave to the `Cs` initial tuples.
    pub cs_labels: Vec<bool>,
    /// Labels consumed (`ks + Δ`).
    pub labels_used: usize,
    /// Wall-clock seconds spent on adaptation/training.
    pub prep_seconds: f64,
}

/// Steps (1)–(4) of one round: collect the initial labels, build the UIS
/// feature vector, and adapt/train the classifier — everything up to (but
/// excluding) pool scoring. [`explore_subspace`] is exactly
/// `prepare_round` → [`Scorer::score`] → [`finish_round`]; the cross-session
/// scoring service runs the same three stages with the middle one fused
/// across sessions.
///
/// Consumes the same RNG stream as [`explore_subspace`] (Δ sampling, then
/// `Basic`'s initialization), so for equal inputs the two paths produce
/// bit-identical classifiers.
///
/// # Panics
/// Panics when `learner` is `None` for the meta variants.
pub fn prepare_round(
    ctx: &SubspaceContext,
    learner: Option<&MetaLearner>,
    oracle: &dyn SubspaceOracle,
    cfg: &LteConfig,
    variant: Variant,
    seed: u64,
) -> PreparedRound {
    let mut rng = seeded(seed);
    let (cs_labels, examples, v_r) = initial_support(ctx, oracle, cfg, &mut rng);
    let labels_used = examples.len();

    // (4) Adapt / train. Online label sets are imbalanced when the
    // interest region is small, so positive examples are re-weighted
    // (identically for every variant).
    let pos_weight = UisClassifier::balance_weight(&examples);
    let start = Instant::now();
    let classifier = match variant {
        Variant::Basic => {
            let arch = ClassifierConfig {
                ku: ctx.cu().len(),
                nr: ctx.feature_width(),
                ne: cfg.net.ne,
                clf_hidden: cfg.net.clf_hidden,
                use_conversion: false,
            };
            let mut c = UisClassifier::new(arch, &mut rng);
            c.train_local_weighted(
                &v_r,
                &examples,
                cfg.online.basic_steps,
                cfg.online.lr,
                pos_weight,
            );
            c
        }
        Variant::Meta | Variant::MetaStar => {
            // `MetaLearner::adapt_weighted` without the θR gradient it
            // keeps for meta-training's memory write.
            let learner = learner.expect("meta variants require a trained meta-learner");
            let (mut c, _) = learner.initialize(&v_r);
            c.train_epochs(
                &v_r,
                &examples,
                cfg.online.adapt_steps,
                cfg.online.lr,
                pos_weight,
                None,
            );
            c
        }
    };
    let prep_seconds = start.elapsed().as_secs_f64();

    PreparedRound {
        classifier,
        v_r,
        cs_labels,
        labels_used,
        prep_seconds,
    }
}

/// Steps (1)–(3) of a round, the §V-D support construction: the `Cs`
/// centers with their user labels (which define the UIS feature vector),
/// then `Δ` tuples drawn from the context's sample with `rng`, and `vR`
/// built from the `Cs` labels. Returns `(cs_labels, examples, v_r)`.
pub(crate) fn initial_support<R: Rng + ?Sized>(
    ctx: &SubspaceContext,
    oracle: &dyn SubspaceOracle,
    cfg: &LteConfig,
    rng: &mut R,
) -> (Vec<bool>, Vec<Example>, Vec<f64>) {
    let cs_labels: Vec<bool> = ctx.cs().iter().map(|c| oracle.label(c)).collect();
    let mut examples: Vec<Example> = ctx
        .cs()
        .iter()
        .zip(&cs_labels)
        .map(|(row, &y)| (ctx.encode(row), y))
        .collect();
    let sample = ctx.sample_rows();
    for _ in 0..cfg.task.delta {
        let row = &sample[rng.random_range(0..sample.len())];
        examples.push((ctx.encode(row), oracle.label(row)));
    }
    let l = expansion_degree(ctx.cu().len(), cfg.net.expansion_frac);
    let v_r = uis_feature_vector(&cs_labels, ctx.ps(), l);
    (cs_labels, examples, v_r)
}

/// Step (6) of one round: turn pool logits into predictions and apply
/// `Meta*`'s geometric revision, assembling the final [`ExploreOutcome`].
///
/// * `eval_rows` — the **raw** (projected, un-encoded) pool rows the
///   `scores` were computed over, needed by the geometric revision,
/// * `scores` — the pool logits from scoring `prepared.classifier` on the
///   encoded pool (per session or fused — bit-identical either way),
/// * `score_seconds` — the caller-measured scoring wall-clock, folded into
///   `online_seconds` next to adaptation and revision time.
pub fn finish_round(
    ctx: &SubspaceContext,
    prepared: PreparedRound,
    eval_rows: &[Vec<f64>],
    scores: Vec<f64>,
    cfg: &LteConfig,
    variant: Variant,
    score_seconds: f64,
) -> ExploreOutcome {
    let revision = Revision::PerRow(&cfg.refine);
    finish(
        ctx,
        prepared,
        eval_rows,
        revision,
        scores,
        variant,
        score_seconds,
    )
}

/// [`finish_round`] revising through `masks`, a store of `Meta*`'s anchor
/// masks over `eval_rows` (see [`AnchorMasks`]) that many rounds share.
/// The outcome is bit-identical to [`finish_round`]'s with the
/// configuration the masks were made with.
pub fn finish_round_with_masks(
    ctx: &SubspaceContext,
    prepared: PreparedRound,
    eval_rows: &[Vec<f64>],
    masks: &AnchorMasks,
    scores: Vec<f64>,
    variant: Variant,
    score_seconds: f64,
) -> ExploreOutcome {
    let revision = Revision::Masks(masks);
    finish(
        ctx,
        prepared,
        eval_rows,
        revision,
        scores,
        variant,
        score_seconds,
    )
}

/// How a `Meta*` round is revised: each row against the subregions built
/// for it, or through a pool's shared anchor masks.
enum Revision<'a> {
    PerRow(&'a RefineConfig),
    Masks(&'a AnchorMasks),
}

/// The body of [`finish_round`] and [`finish_round_with_masks`].
fn finish(
    ctx: &SubspaceContext,
    prepared: PreparedRound,
    eval_rows: &[Vec<f64>],
    revision: Revision<'_>,
    scores: Vec<f64>,
    variant: Variant,
    score_seconds: f64,
) -> ExploreOutcome {
    assert_eq!(scores.len(), eval_rows.len(), "one score per pool row");
    let start = Instant::now();
    let mut predictions: Vec<bool> = scores.iter().map(|&logit| logit > 0.0).collect();

    // (6) Few-shot optimizer for Meta*.
    if variant == Variant::MetaStar {
        match revision {
            Revision::PerRow(refine) => {
                let regions = build_subregions(ctx, &prepared.cs_labels, refine);
                for (row, pred) in eval_rows.iter().zip(predictions.iter_mut()) {
                    *pred = regions.revise(row, *pred);
                }
            }
            Revision::Masks(masks) => {
                masks.revise(ctx, eval_rows, &prepared.cs_labels, &mut predictions);
            }
        }
    }
    let online_seconds = prepared.prep_seconds + score_seconds + start.elapsed().as_secs_f64();

    ExploreOutcome {
        predictions,
        scores,
        labels_used: prepared.labels_used,
        online_seconds,
        cs_labels: prepared.cs_labels,
    }
}

/// Run the online exploration of one subspace.
///
/// * `ctx` — the offline-precomputed subspace state,
/// * `learner` — the pre-trained meta-learner (required for
///   `Meta`/`MetaStar`; ignored by `Basic`),
/// * `oracle` — the simulated user,
/// * `eval_rows` — raw subspace rows to predict (the retrieval pool),
/// * `seed` — drives the Δ random initial tuples and `Basic`'s
///   initialization.
///
/// Composed from [`prepare_round`] and [`finish_round`] around one
/// (5) batched pool-scoring call: encode the pool, then one
/// `forward_batch` pass per block instead of a per-point dispatch loop,
/// with the precision knob picking the f64 reference kernels or the f32
/// ranking fast path.
///
/// # Panics
/// Panics when `learner` is `None` for the meta variants.
pub fn explore_subspace(
    ctx: &SubspaceContext,
    learner: Option<&MetaLearner>,
    oracle: &dyn SubspaceOracle,
    eval_rows: &[Vec<f64>],
    cfg: &LteConfig,
    variant: Variant,
    seed: u64,
) -> ExploreOutcome {
    let prepared = prepare_round(ctx, learner, oracle, cfg, variant, seed);
    let start = Instant::now();
    let encoded: Vec<Vec<f64>> = eval_rows.iter().map(|row| ctx.encode(row)).collect();
    let scores = prepared.classifier.score(&ScoreRequest::new(
        &prepared.v_r,
        &encoded,
        cfg.online.precision,
    ));
    let score_seconds = start.elapsed().as_secs_f64();
    finish_round(
        ctx,
        prepared,
        eval_rows,
        scores,
        cfg,
        variant,
        score_seconds,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LteConfig;
    use crate::meta_task::generate_task_set;
    use crate::metrics::ConfusionMatrix;
    use crate::oracle::RegionOracle;
    use crate::uis::generate_uis;
    use lte_data::generator::generate_sdss;
    use lte_data::subspace::Subspace;

    struct Setup {
        ctx: SubspaceContext,
        learner: MetaLearner,
        cfg: LteConfig,
    }

    fn setup() -> Setup {
        let table = generate_sdss(3000, 0);
        let mut cfg = LteConfig::reduced();
        cfg.train.n_tasks = 120;
        let ctx = SubspaceContext::build(
            &table,
            Subspace::new(vec![0, 1]),
            &cfg.task,
            &cfg.encoder,
            21,
        );
        let l = expansion_degree(cfg.task.ku, cfg.net.expansion_frac);
        let tasks = generate_task_set(&ctx, &cfg.task, l, cfg.train.n_tasks, &mut seeded(22));
        let mut learner = MetaLearner::new(
            cfg.task.ku,
            ctx.feature_width(),
            &cfg.net,
            cfg.train.clone(),
            23,
        );
        learner.train(&tasks);
        Setup { ctx, learner, cfg }
    }

    fn f1_of(outcome: &ExploreOutcome, oracle: &RegionOracle, rows: &[Vec<f64>]) -> f64 {
        ConfusionMatrix::from_pairs(
            outcome
                .predictions
                .iter()
                .zip(rows)
                .map(|(&pred, row)| (pred, oracle.label(row))),
        )
        .f1()
    }

    #[test]
    fn meta_explores_unseen_uis_reasonably() {
        let s = setup();
        // A *test* UIS generated from a held-out seed.
        let uis = generate_uis(s.ctx.cu(), s.ctx.pu(), s.cfg.task.mode, &mut seeded(1000));
        let oracle = RegionOracle::new(uis);
        let eval: Vec<Vec<f64>> = s.ctx.sample_rows().to_vec();
        let outcome = explore_subspace(
            &s.ctx,
            Some(&s.learner),
            &oracle,
            &eval,
            &s.cfg,
            Variant::Meta,
            31,
        );
        assert_eq!(outcome.labels_used, s.cfg.budget());
        assert_eq!(outcome.predictions.len(), eval.len());
        let f1 = f1_of(&outcome, &oracle, &eval);
        assert!(f1 > 0.3, "meta F1 too low: {f1}");
    }

    #[test]
    fn meta_star_revision_changes_far_points_only_to_negative() {
        let s = setup();
        let uis = generate_uis(s.ctx.cu(), s.ctx.pu(), s.cfg.task.mode, &mut seeded(1001));
        let oracle = RegionOracle::new(uis);
        let eval: Vec<Vec<f64>> = s.ctx.sample_rows()[..200].to_vec();
        let meta = explore_subspace(
            &s.ctx,
            Some(&s.learner),
            &oracle,
            &eval,
            &s.cfg,
            Variant::Meta,
            32,
        );
        let star = explore_subspace(
            &s.ctx,
            Some(&s.learner),
            &oracle,
            &eval,
            &s.cfg,
            Variant::MetaStar,
            32,
        );
        // Same scores (revision is post-hoc), possibly different labels.
        assert_eq!(meta.scores, star.scores);
        assert_eq!(meta.cs_labels, star.cs_labels);
    }

    #[test]
    fn basic_variant_runs_without_learner() {
        let s = setup();
        let uis = generate_uis(s.ctx.cu(), s.ctx.pu(), s.cfg.task.mode, &mut seeded(1002));
        let oracle = RegionOracle::new(uis);
        let eval: Vec<Vec<f64>> = s.ctx.sample_rows()[..100].to_vec();
        let outcome = explore_subspace(&s.ctx, None, &oracle, &eval, &s.cfg, Variant::Basic, 33);
        assert_eq!(outcome.predictions.len(), 100);
        assert!(outcome.online_seconds >= 0.0);
    }

    #[test]
    #[should_panic(expected = "meta variants require")]
    fn meta_without_learner_panics() {
        let s = setup();
        let uis = generate_uis(s.ctx.cu(), s.ctx.pu(), s.cfg.task.mode, &mut seeded(1003));
        let oracle = RegionOracle::new(uis);
        explore_subspace(&s.ctx, None, &oracle, &[], &s.cfg, Variant::Meta, 34);
    }

    #[test]
    fn variant_names_match_paper() {
        assert_eq!(Variant::Basic.name(), "Basic");
        assert_eq!(Variant::Meta.name(), "Meta");
        assert_eq!(Variant::MetaStar.name(), "Meta*");
    }

    /// Raw bit patterns of every classifier parameter, `Mcp` last.
    fn classifier_bits(c: &UisClassifier) -> Vec<u64> {
        let mut flat = c.r_block.params();
        flat.extend(c.t_block.params());
        flat.extend(c.clf_block.params());
        if let Some(mcp) = &c.conversion {
            flat.extend_from_slice(mcp.data());
        }
        flat.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn prepare_round_adapts_as_adapt_weighted_does() {
        let table = generate_sdss(3000, 0);
        let mut cfg = LteConfig::reduced();
        let ctx = SubspaceContext::build(
            &table,
            Subspace::new(vec![0, 1]),
            &cfg.task,
            &cfg.encoder,
            21,
        );
        for use_memories in [true, false] {
            cfg.train.use_memories = use_memories;
            let learner = MetaLearner::new(
                ctx.cu().len(),
                ctx.feature_width(),
                &cfg.net,
                cfg.train.clone(),
                23,
            );
            for seed in 0..4 {
                let uis = generate_uis(ctx.cu(), ctx.pu(), cfg.task.mode, &mut seeded(40 + seed));
                let oracle = RegionOracle::new(uis);
                let prepared =
                    prepare_round(&ctx, Some(&learner), &oracle, &cfg, Variant::MetaStar, seed);
                let (_, examples, v_r) = initial_support(&ctx, &oracle, &cfg, &mut seeded(seed));
                let adapted = learner.adapt_weighted(
                    &v_r,
                    &examples,
                    cfg.online.adapt_steps,
                    cfg.online.lr,
                    UisClassifier::balance_weight(&examples),
                );
                assert_eq!(
                    adapted.classifier.conversion.is_some(),
                    use_memories,
                    "Mcp exists iff memories do"
                );
                assert_eq!(
                    classifier_bits(&prepared.classifier),
                    classifier_bits(&adapted.classifier),
                    "memories {use_memories}, seed {seed}"
                );
            }
        }
    }
}
