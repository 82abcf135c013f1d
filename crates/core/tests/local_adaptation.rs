//! Pins local adaptation's fused per-sample step to the two-pass reference
//! bit for bit. `UisClassifier::train_step` must leave the classifier
//! where `loss_backward_weighted` into zeroed `Grads` followed by
//! `sgd_step` does, and `MetaLearner::adapt_weighted` and
//! `UisClassifier::train_local_weighted` must equal a copy of the loop
//! they ran before the step existed: classifier parameters, `Mcp`,
//! `avg_grad_r` and `support_loss`, all compared as bits.

use lte_core::classifier::{ClassifierConfig, Example, ForwardCache, Grads, UisClassifier};
use lte_core::config::{LteConfig, NetConfig, TrainConfig};
use lte_core::context::SubspaceContext;
use lte_core::feature::expansion_degree;
use lte_core::meta_learner::MetaLearner;
use lte_core::meta_task::generate_task_set;
use lte_data::generator::generate_sdss;
use lte_data::rng::seeded;
use lte_data::subspace::Subspace;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Raw bit patterns of every classifier parameter: the three blocks'
/// flat vectors, then `Mcp` when present.
fn classifier_bits(c: &UisClassifier) -> Vec<u64> {
    let mut flat = c.r_block.params();
    flat.extend(c.t_block.params());
    flat.extend(c.clf_block.params());
    if let Some(mcp) = &c.conversion {
        flat.extend_from_slice(mcp.data());
    }
    bits(&flat)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Random examples: tuple features in `[-1, 1]`, labels as given.
fn examples(rng: &mut StdRng, nr: usize, labels: &[bool]) -> Vec<Example> {
    labels
        .iter()
        .map(|&y| ((0..nr).map(|_| rng.random_range(-1.0..1.0)).collect(), y))
        .collect()
}

/// `adapt_weighted`'s local phase as it ran before the fused step: a fresh
/// zeroed `Grads` per example, `loss_backward_weighted`, the θR gradient
/// summed, then `sgd_step`. Returns the classifier, the averaged θR
/// gradient and the support loss.
fn reference_adapt(
    init: &UisClassifier,
    v_r: &[f64],
    support: &[Example],
    steps: usize,
    rho: f64,
    pos_weight: f64,
) -> (UisClassifier, Vec<f64>, f64) {
    let mut c = init.clone();
    let mut grad_r_acc = vec![0.0; c.r_block.param_count()];
    let mut n_grads = 0usize;
    let mut support_loss = 0.0;
    for _ in 0..steps {
        support_loss = 0.0;
        for ex in support {
            let mut grads = Grads::zeros_like(&c);
            support_loss += c.loss_backward_weighted(v_r, ex, &mut grads, pos_weight);
            for (acc, g) in grad_r_acc.iter_mut().zip(&grads.g_r) {
                *acc += g;
            }
            n_grads += 1;
            c.sgd_step(&grads, rho);
        }
        support_loss /= support.len().max(1) as f64;
    }
    if n_grads > 0 {
        let inv = 1.0 / n_grads as f64;
        for g in grad_r_acc.iter_mut() {
            *g *= inv;
        }
    }
    (c, grad_r_acc, support_loss)
}

/// `adapt_weighted` and `train_local_weighted` against `reference_adapt`,
/// starting from the learner's initialization for this task (its
/// zero-step adaptation).
fn assert_adapt_matches_reference(
    learner: &MetaLearner,
    v_r: &[f64],
    support: &[Example],
    steps: usize,
    rho: f64,
    pos_weight: f64,
) -> Result<(), TestCaseError> {
    let init = learner
        .adapt_weighted(v_r, support, 0, rho, pos_weight)
        .classifier;
    let (ref_c, ref_grad_r, ref_loss) =
        reference_adapt(&init, v_r, support, steps, rho, pos_weight);

    prop_assert!(ref_loss.is_finite(), "reference support loss {}", ref_loss);
    let adapted = learner.adapt_weighted(v_r, support, steps, rho, pos_weight);
    prop_assert_eq!(
        classifier_bits(&adapted.classifier),
        classifier_bits(&ref_c)
    );
    prop_assert_eq!(bits(&adapted.avg_grad_r), bits(&ref_grad_r));
    prop_assert_eq!(adapted.support_loss.to_bits(), ref_loss.to_bits());

    let mut local = init;
    let loss = local.train_local_weighted(v_r, support, steps, rho, pos_weight);
    prop_assert_eq!(classifier_bits(&local), classifier_bits(&ref_c));
    prop_assert_eq!(loss.to_bits(), ref_loss.to_bits());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Each step's loss, every parameter and `Mcp`, and the θR gradient
    /// added into the tap equal the reference's, step after step on one
    /// reused cache, with and without conversion, for `pos_weight` 1 and
    /// above, over both labels.
    #[test]
    fn train_step_matches_loss_backward_then_sgd_step_bitwise(
        shape in (1usize..10, 1usize..10, 1usize..9, 1usize..9),
        use_conversion in proptest::bool::ANY,
        weighted in proptest::bool::ANY,
        seed in 0u64..100_000,
        lr in 0.0f64..0.5,
    ) {
        let (ku, nr, ne, clf_hidden) = shape;
        let cfg = ClassifierConfig { ku, nr, ne, clf_hidden, use_conversion };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fused = UisClassifier::new(cfg, &mut rng);
        let mut reference = fused.clone();
        let pos_weight = if weighted { rng.random_range(1.0..5.0) } else { 1.0 };
        let v_r: Vec<f64> = (0..ku).map(|_| rng.random_range(0.0..1.0)).collect();
        let labels: Vec<bool> = [true, false].into_iter().chain((0..4).map(|_| rng.random())).collect();
        let support = examples(&mut rng, nr, &labels);

        let mut tap = vec![0.0; fused.r_block.param_count()];
        let mut ref_tap = tap.clone();
        let mut cache = ForwardCache::default();
        for (i, ex) in support.iter().enumerate() {
            let mut grads = Grads::zeros_like(&reference);
            let ref_loss = reference.loss_backward_weighted(&v_r, ex, &mut grads, pos_weight);
            reference.sgd_step(&grads, lr);
            for (t, g) in ref_tap.iter_mut().zip(&grads.g_r) {
                *t += g;
            }

            let loss = fused.train_step(&v_r, ex, lr, pos_weight, &mut cache, Some(&mut tap));
            prop_assert_eq!(loss.to_bits(), ref_loss.to_bits(), "loss, example {}", i);
            prop_assert_eq!(classifier_bits(&fused), classifier_bits(&reference), "example {}", i);
            prop_assert_eq!(bits(&tap), bits(&ref_tap), "θR gradient, example {}", i);
        }
    }

    /// `adapt_weighted` (with and without memories) and
    /// `train_local_weighted` equal the pre-fusion loop for 0, 1 and 3
    /// local steps.
    #[test]
    fn adapt_weighted_matches_the_reference_loop_bitwise(
        shape in (2usize..12, 2usize..10, 2usize..9),
        use_memories in proptest::bool::ANY,
        steps in 0usize..3,
        n_support in 0usize..12,
        seed in 0u64..100_000,
    ) {
        let (ku, nr, ne) = shape;
        let steps = [0, 1, 3][steps];
        let net = NetConfig { ne, clf_hidden: ne + 1, expansion_frac: 0.1 };
        let train = TrainConfig { use_memories, ..TrainConfig::reduced() };
        let learner = MetaLearner::new(ku, nr, &net, train, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let v_r: Vec<f64> = (0..ku).map(|_| f64::from(rng.random_range(0u8..2))).collect();
        let labels: Vec<bool> = (0..n_support).map(|_| rng.random()).collect();
        let support = examples(&mut rng, nr, &labels);
        let pos_weight = UisClassifier::balance_weight(&support);
        assert_adapt_matches_reference(&learner, &v_r, &support, steps, 0.05, pos_weight)?;
    }
}

/// The same comparison on meta-trained learners and real meta-tasks from
/// the synthetic SDSS table, at the online phase's settings: 5 local steps
/// at `lr = 0.05` with the balance weight.
#[test]
fn adapt_weighted_matches_the_reference_loop_on_trained_tasks() {
    let table = generate_sdss(3000, 0);
    let mut cfg = LteConfig::reduced();
    cfg.train.n_tasks = 40;
    cfg.train.epochs = 1;
    let ctx = SubspaceContext::build(
        &table,
        Subspace::new(vec![0, 1]),
        &cfg.task,
        &cfg.encoder,
        5,
    );
    let l = expansion_degree(cfg.task.ku, cfg.net.expansion_frac);
    let tasks = generate_task_set(&ctx, &cfg.task, l, cfg.train.n_tasks, &mut seeded(6));
    for use_memories in [true, false] {
        cfg.train.use_memories = use_memories;
        let mut learner = MetaLearner::new(
            cfg.task.ku,
            ctx.feature_width(),
            &cfg.net,
            cfg.train.clone(),
            7,
        );
        learner.train(&tasks);
        for task in &tasks {
            let w = UisClassifier::balance_weight(&task.support);
            let (steps, lr) = (cfg.online.adapt_steps, cfg.online.lr);
            assert_adapt_matches_reference(&learner, &task.v_r, &task.support, steps, lr, w)
                .unwrap_or_else(|e| panic!("memories {use_memories}: {e:?}"));
        }
    }
}
