//! Pins meta-training's batched query pass to the per-example loop bit for
//! bit. `UisClassifier::query_gradients` must return the loss sum and every
//! gradient entry that `loss_backward` of each example in turn into
//! `Grads::zeros_like` produces, and `MetaLearner::train` must leave φ, the
//! three memories and the per-epoch query losses where a copy of the loop
//! it ran before the batched pass leaves them, all compared as bits.

use lte_core::classifier::{ClassifierConfig, Example, Grads, UisClassifier};
use lte_core::config::LteConfig;
use lte_core::context::SubspaceContext;
use lte_core::feature::expansion_degree;
use lte_core::meta_learner::MetaLearner;
use lte_core::meta_task::{generate_task_set, MetaTask};
use lte_data::generator::generate_sdss;
use lte_data::rng::seeded;
use lte_data::subspace::Subspace;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Raw bit patterns of every gradient entry: the three blocks' flat
/// gradients, then `Mcp`'s when present.
fn grads_bits(g: &Grads) -> Vec<u64> {
    let mut flat = g.g_r.clone();
    flat.extend_from_slice(&g.g_t);
    flat.extend_from_slice(&g.g_clf);
    if let Some(m) = &g.g_conv {
        flat.extend_from_slice(m.data());
    }
    bits(&flat)
}

/// The per-example query pass `MetaLearner::train` ran before the batched
/// one: `loss_backward` of each example in turn into one zeroed `Grads`,
/// the losses summed from `0.0` in example order.
fn reference_query_gradients(c: &UisClassifier, v_r: &[f64], examples: &[Example]) -> (f64, Grads) {
    let mut g = Grads::zeros_like(c);
    let mut loss = 0.0;
    for ex in examples {
        loss += c.loss_backward(v_r, ex, &mut g);
    }
    (loss, g)
}

/// Silence the first `k` units of a single-bias layer block's output by
/// driving their biases far below any pre-activation the inputs reach:
/// the last `out` entries of a one-layer block's flat parameters.
fn kill_units(flat: &mut [f64], out: usize, k: usize) {
    let b0 = flat.len() - out;
    for b in &mut flat[b0..b0 + k.min(out)] {
        *b = -1e3;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every gradient entry and the loss sum equal the per-example loop's,
    /// with and without conversion, over set sizes that straddle the
    /// kernels' 4-row tiles and the 65-example query sets of the reduced
    /// configuration, both labels, exactly-zero features, and ReLU units
    /// that never fire in either embedding or the classifier's hidden
    /// layer.
    #[test]
    fn query_gradients_match_per_example_loss_backward_bitwise(
        shape in (1usize..41, 1usize..17, 1usize..34, 1usize..34),
        use_conversion in proptest::bool::ANY,
        n_idx in 0usize..5,
        dead in 0usize..3,
        seed in 0u64..100_000,
    ) {
        let (ku, nr, ne, clf_hidden) = shape;
        let n = [0, 1, 2, 7, 65][n_idx];
        let cfg = ClassifierConfig { ku, nr, ne, clf_hidden, use_conversion };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = UisClassifier::new(cfg.clone(), &mut rng);
        if dead > 0 {
            let mut r = c.r_block.params();
            kill_units(&mut r, ne, dead);
            c.r_block.read_params(&r);
            let mut t = c.t_block.params();
            kill_units(&mut t, ne, dead);
            c.t_block.read_params(&t);
            // The hidden biases sit just before the head's `clf_hidden`
            // weights and its one bias.
            let mut clf = c.clf_block.params();
            let end = clf.len() - clf_hidden - 1;
            kill_units(&mut clf[..end], clf_hidden, dead);
            c.clf_block.read_params(&clf);
        }
        let v_r: Vec<f64> = (0..ku).map(|_| f64::from(rng.random_range(0u8..2))).collect();
        let examples: Vec<Example> = (0..n)
            .map(|i| {
                let x = (0..nr)
                    .map(|_| if rng.random_range(0u8..4) == 0 { 0.0 } else { rng.random_range(-1.0..1.0) })
                    .collect();
                // Both labels in every set of two or more.
                let y = match i {
                    0 => true,
                    1 => false,
                    _ => rng.random(),
                };
                (x, y)
            })
            .collect();

        let (ref_loss, ref_g) = reference_query_gradients(&c, &v_r, &examples);
        prop_assert!(ref_loss.is_finite(), "reference loss {}", ref_loss);
        prop_assert!(grads_bits(&ref_g).iter().all(|&b| f64::from_bits(b).is_finite()));
        let (loss, g) = c.query_gradients(&v_r, &examples);
        prop_assert_eq!(loss.to_bits(), ref_loss.to_bits(), "loss {} vs {}", loss, ref_loss);
        prop_assert_eq!(g.g_conv.is_some(), use_conversion);
        prop_assert_eq!(grads_bits(&g), grads_bits(&ref_g));
    }
}

/// `MetaLearner::train` as it ran before the batched query pass, through
/// the learner's public surface: per task, local adaptation, the
/// per-example query loop at the adapted parameters and (with a direct
/// weight) at the initialization, the memory writes; per batch, one global
/// step on φ. Returns the per-epoch mean query losses.
fn reference_train(learner: &mut MetaLearner, tasks: &[MetaTask]) -> Vec<f64> {
    let cfg = learner.train_config().clone();
    let mut epoch_query_loss = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        let mut epoch_loss = 0.0;
        let mut n_query = 0usize;
        for batch in tasks.chunks(cfg.batch_size.max(1)) {
            let shape = learner.adapt(&batch[0].v_r, &[], 0, 0.0).classifier;
            let mut acc = Grads::zeros_like(&shape);
            for task in batch {
                let adapted = learner.adapt(&task.v_r, &task.support, cfg.local_steps, cfg.rho);
                let mut qg = Grads::zeros_like(&adapted.classifier);
                let mut qloss = 0.0;
                for ex in &task.query {
                    qloss += adapted.classifier.loss_backward(&task.v_r, ex, &mut qg);
                }
                let q_len = task.query.len().max(1);
                let w = cfg.direct_weight.clamp(0.0, 1.0);
                qg.scale((1.0 - w) / q_len as f64);
                epoch_loss += qloss;
                n_query += task.query.len();
                acc.add(&qg);
                if w > 0.0 {
                    let zero = learner.adapt(&task.v_r, &task.support, 0, 0.0);
                    let mut dg = Grads::zeros_like(&zero.classifier);
                    for ex in &task.query {
                        zero.classifier.loss_backward(&task.v_r, ex, &mut dg);
                    }
                    dg.scale(w / q_len as f64);
                    acc.add(&dg);
                }
                if let Some(mem) = learner.memories() {
                    let mut mem = mem.clone();
                    let a = adapted.attention.as_ref().expect("attention with memories");
                    mem.update_mvr(a, &task.v_r, cfg.eta);
                    mem.update_mr(a, &adapted.avg_grad_r, cfg.beta);
                    let mcp_local = adapted.classifier.conversion.as_ref().expect("conversion");
                    mem.update_mcp(a, mcp_local, cfg.gamma);
                    learner.set_memories(mem);
                }
            }
            let scale = cfg.lambda / batch.len() as f64;
            let (r, t, c) = learner.phi();
            let step = |phi: &[f64], g: &[f64]| -> Vec<f64> {
                let mut phi = phi.to_vec();
                for (p, g) in phi.iter_mut().zip(g) {
                    *p -= scale * g;
                }
                phi
            };
            let (r, t, c) = (step(r, &acc.g_r), step(t, &acc.g_t), step(c, &acc.g_clf));
            learner.set_phi(r, t, c);
        }
        epoch_query_loss.push(epoch_loss / n_query.max(1) as f64);
    }
    epoch_query_loss
}

/// Raw bit patterns of φ and every memory.
fn learner_bits(l: &MetaLearner) -> Vec<u64> {
    let (r, t, c) = l.phi();
    let mut flat = r.to_vec();
    flat.extend_from_slice(t);
    flat.extend_from_slice(c);
    if let Some(mem) = l.memories() {
        flat.extend_from_slice(mem.mvr.data());
        flat.extend_from_slice(mem.mr.data());
        for slice in &mem.mcp {
            flat.extend_from_slice(slice.data());
        }
    }
    bits(&flat)
}

/// Meta-training on real meta-tasks from the synthetic SDSS table equals
/// the per-example loop, with memories on and off, without and with the
/// direct term, over two epochs (so the second epoch starts from trained
/// φ and memories). NaN bits compare equal, so every compared value is
/// also checked to be finite.
#[test]
fn train_matches_the_per_example_loop_bitwise() {
    let table = generate_sdss(3000, 0);
    let mut cfg = LteConfig::reduced();
    cfg.train.n_tasks = 24;
    cfg.train.epochs = 2;
    let ctx = SubspaceContext::build(
        &table,
        Subspace::new(vec![0, 1]),
        &cfg.task,
        &cfg.encoder,
        5,
    );
    let l = expansion_degree(cfg.task.ku, cfg.net.expansion_frac);
    let tasks = generate_task_set(&ctx, &cfg.task, l, cfg.train.n_tasks, &mut seeded(6));
    assert!(tasks.iter().all(|t| !t.query.is_empty()));
    for use_memories in [true, false] {
        for direct_weight in [0.0, 0.7] {
            cfg.train.use_memories = use_memories;
            cfg.train.direct_weight = direct_weight;
            let new = || {
                MetaLearner::new(
                    cfg.task.ku,
                    ctx.feature_width(),
                    &cfg.net,
                    cfg.train.clone(),
                    7,
                )
            };
            let mut batched = new();
            let mut reference = new();
            let report = batched.train(&tasks);
            let ref_losses = reference_train(&mut reference, &tasks);

            let what = format!("memories {use_memories}, direct weight {direct_weight}");
            let learner = learner_bits(&batched);
            assert!(
                learner.iter().all(|&b| f64::from_bits(b).is_finite()),
                "{what}: non-finite φ or memory"
            );
            assert!(
                report.epoch_query_loss.iter().all(|l| l.is_finite()),
                "{what}: non-finite query loss"
            );
            assert_eq!(report.epoch_query_loss.len(), 2, "{what}");
            assert_eq!(learner, learner_bits(&reference), "{what}: φ or memories");
            assert_eq!(
                bits(&report.epoch_query_loss),
                bits(&ref_losses),
                "{what}: epoch query losses"
            );
        }
    }
}
