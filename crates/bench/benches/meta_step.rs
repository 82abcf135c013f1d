//! Micro-benchmark: one local adaptation (Eq. 6, 10–12) — the entire
//! *online* cost of LTE's initial exploration, and the inner loop of
//! meta-training. This is the number behind Fig. 6's two-orders-of-magnitude
//! claim. `meta_training/query_gradients` times the other half of a
//! meta-training task: its query-set gradients at the adapted parameters,
//! per example and in one batched pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lte_core::classifier::Grads;
use lte_core::config::LteConfig;
use lte_core::context::SubspaceContext;
use lte_core::feature::expansion_degree;
use lte_core::meta_learner::MetaLearner;
use lte_core::meta_task::generate_task;
use lte_data::generator::generate_sdss;
use lte_data::rng::seeded;
use lte_data::subspace::Subspace;
use std::hint::black_box;

fn bench_meta_step(c: &mut Criterion) {
    let table = generate_sdss(20_000, 0);
    let cfg = LteConfig::reduced();
    let ctx = SubspaceContext::build(
        &table,
        Subspace::new(vec![0, 1]),
        &cfg.task,
        &cfg.encoder,
        1,
    );
    let l = expansion_degree(cfg.task.ku, cfg.net.expansion_frac);
    let task = generate_task(&ctx, cfg.task.mode, cfg.task.delta, l, &mut seeded(2));
    let learner = MetaLearner::new(
        cfg.task.ku,
        ctx.feature_width(),
        &cfg.net,
        cfg.train.clone(),
        3,
    );

    let mut group = c.benchmark_group("local_adaptation");
    for steps in [1usize, 5, 10] {
        group.bench_with_input(BenchmarkId::new("steps", steps), &steps, |b, &steps| {
            b.iter(|| learner.adapt(black_box(&task.v_r), black_box(&task.support), steps, 0.05));
        });
    }
    group.finish();

    let adapted = learner
        .adapt(
            &task.v_r,
            &task.support,
            cfg.train.local_steps,
            cfg.train.rho,
        )
        .classifier;
    let mut group = c.benchmark_group("meta_training/query_gradients");
    group.bench_function("per_example", |b| {
        b.iter(|| {
            let mut g = Grads::zeros_like(&adapted);
            let mut loss = 0.0;
            for ex in black_box(&task.query) {
                loss += adapted.loss_backward(&task.v_r, ex, &mut g);
            }
            (loss, g)
        });
    });
    group.bench_function("batched", |b| {
        b.iter(|| adapted.query_gradients(black_box(&task.v_r), black_box(&task.query)));
    });
    group.finish();

    c.bench_function("meta_task_generation", |b| {
        let mut rng = seeded(9);
        b.iter(|| generate_task(&ctx, cfg.task.mode, cfg.task.delta, l, &mut rng));
    });
}

criterion_group!(benches, bench_meta_step);
criterion_main!(benches);
