//! Micro-benchmark: the `lte-serve` session engine driving a batch of
//! concurrent Meta* sessions over one shared meta-trained pipeline, through
//! the scoring-service tick the engine runs on. The engine keeps its
//! service between iterations, so the pool is encoded once per engine.

use criterion::{criterion_group, criterion_main, Criterion};
use lte_core::config::LteConfig;
use lte_core::explore::Variant;
use lte_core::pipeline::LtePipeline;
use lte_core::uis::UisMode;
use lte_data::generator::generate_sdss;
use lte_data::subspace::decompose_sequential;
use lte_serve::SessionEngine;
use std::sync::Arc;

fn bench_engine(c: &mut Criterion) {
    let table = generate_sdss(3000, 0);
    let mut cfg = LteConfig::reduced();
    cfg.train.n_tasks = 60;
    cfg.train.epochs = 1;
    let (pipeline, _) = LtePipeline::offline(&table, decompose_sequential(4, 2), cfg, 5);
    let pipeline = Arc::new(pipeline);
    let pool: Vec<Vec<f64>> = (0..500).map(|i| table.row(i).unwrap()).collect();

    for workers in [1usize, 4] {
        let engine = SessionEngine::with_workers(Arc::clone(&pipeline), workers);
        let requests =
            engine.simulate_requests(8, UisMode::new(1, 10), 0.2, 0.9, Variant::MetaStar, 77);
        c.bench_function(&format!("engine_8_sessions_{workers}w"), |b| {
            b.iter(|| engine.run_sessions(requests.clone(), &pool).len());
        });
    }
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
