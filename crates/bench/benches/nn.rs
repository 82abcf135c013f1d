//! Micro-benchmark: the UIS classifier's forward/backward passes (§VI-A) at
//! paper-scale widths (ku=100, Ne=100), pool scoring at serving scale
//! across the precision ladder, and the raw matmul kernels under it.
//!
//! For machine-readable numbers (the committed `BENCH_pool_scoring.json`
//! snapshot), use `cargo run --release -p lte-bench --bin pool_scoring`
//! instead — vendored criterion has no JSON output.

use criterion::{criterion_group, criterion_main, Criterion};
use lte_core::classifier::{ClassifierConfig, Grads, UisClassifier};
use lte_core::config::ScoringPrecision;
use lte_core::scorer::{ScoreRequest, Scorer};
use lte_data::rng::seeded;
use lte_nn::{Activation, Epilogue, Matrix, Matrix32};
use std::hint::black_box;

fn bench_nn(c: &mut Criterion) {
    let cfg = ClassifierConfig {
        ku: 100,
        nr: 24,
        ne: 100,
        clf_hidden: 64,
        use_conversion: true,
    };
    let mut rng = seeded(0);
    let clf = UisClassifier::new(cfg, &mut rng);
    let v_r: Vec<f64> = (0..100).map(|i| (i % 3 == 0) as u8 as f64).collect();
    let v_t: Vec<f64> = (0..24).map(|i| 0.05 * i as f64).collect();

    c.bench_function("classifier_forward_ku100_ne100", |b| {
        b.iter(|| clf.forward(black_box(&v_r), black_box(&v_t)).logit);
    });

    c.bench_function("classifier_forward_backward", |b| {
        b.iter(|| {
            let mut grads = Grads::zeros_like(&clf);
            clf.loss_backward(black_box(&v_r), black_box(&(v_t.clone(), true)), &mut grads);
            grads.g_clf[0]
        });
    });
}

/// Pool scoring at serving scale: 4096 tuples × 64 features through one
/// shared classifier. The per-point loop is the pre-batching online path
/// (one `logit` call per tuple, with its forward-cache allocations); the
/// batched pass is what `explore_subspace` now runs. The batch form must be
/// at least ~2× faster here — it agrees with the per-point logits to within
/// rounding (the conversion split regroups one sum; see
/// `Scorer::score`), so the win is overhead removal plus the
/// 8-column matmul kernel, never different predictions.
fn bench_pool_scoring(c: &mut Criterion) {
    let cfg = ClassifierConfig {
        ku: 40,
        nr: 64,
        ne: 64,
        clf_hidden: 64,
        use_conversion: true,
    };
    let mut rng = seeded(1);
    let clf = UisClassifier::new(cfg, &mut rng);
    let v_r: Vec<f64> = (0..40).map(|i| (i % 2) as f64).collect();
    let pool: Vec<Vec<f64>> = (0..4096)
        .map(|i| {
            (0..64)
                .map(|j| ((i * 64 + j) as f64 * 0.013).sin())
                .collect()
        })
        .collect();

    c.bench_function("pool_scoring_per_point_4096x64", |b| {
        b.iter(|| {
            let scores: Vec<f64> = pool
                .iter()
                .map(|row| clf.logit(black_box(&v_r), black_box(row)))
                .collect();
            scores[0]
        });
    });

    for (name, precision) in [
        ("pool_scoring_batched_4096x64", ScoringPrecision::Exact),
        ("pool_scoring_f32_4096x64", ScoringPrecision::Fast),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let req = ScoreRequest::new(black_box(&v_r), black_box(&pool), precision);
                clf.score(&req)[0]
            });
        });
    }
}

/// The raw matmul kernels under pool scoring, isolated from the classifier:
/// a naive triple loop as the pre-tiling baseline, the tiled f64 kernel
/// (`Matrix::matmul_nt`, bit-identical to per-row matvec by contract), and
/// the 8-lane f32 kernel (`Matrix32::matmul_nt`, tolerance contract). The
/// 512×64·64×64 shape is one classifier layer at pool-block scale.
fn bench_matmul_kernels(c: &mut Criterion) {
    let (n, m, k) = (512, 64, 64);
    let a = Matrix::from_fn(n, k, |i, j| ((i * k + j) as f64 * 0.017).sin());
    let b_mat = Matrix::from_fn(m, k, |i, j| ((i * k + j) as f64 * 0.029).cos());
    let a32 = Matrix32::from_f64(&a);
    let b32 = Matrix32::from_f64(&b_mat);

    c.bench_function("matmul_nt_naive_512x64x64", |bench| {
        bench.iter(|| {
            let (a, b_mat) = (black_box(&a), black_box(&b_mat));
            let mut out = Matrix::zeros(n, m);
            for i in 0..n {
                for j in 0..m {
                    let mut s = 0.0;
                    for kk in 0..k {
                        s += a.row(i)[kk] * b_mat.row(j)[kk];
                    }
                    out.row_mut(i)[j] = s;
                }
            }
            out.row(0)[0]
        });
    });

    c.bench_function("matmul_nt_tiled_f64_512x64x64", |bench| {
        bench.iter(|| black_box(&a).matmul_nt(black_box(&b_mat)).row(0)[0]);
    });

    c.bench_function("matmul_nt_f32_512x64x64", |bench| {
        bench.iter(|| black_box(&a32).matmul_nt(black_box(&b32)).row(0)[0]);
    });

    // One dense layer with bias + ReLU: the old three-pass pipeline vs the
    // fused epilogue (bias add and ReLU in-register before the store).
    let bias: Vec<f32> = (0..m).map(|j| (j as f32 * 0.07).sin()).collect();
    c.bench_function("layer_f32_unfused_512x64x64", |bench| {
        bench.iter(|| {
            let mut out = black_box(&a32).matmul_nt(black_box(&b32));
            out.add_row_bias(black_box(&bias));
            Activation::Relu.apply_slice_f32(out.data_mut());
            out.row(0)[0]
        });
    });

    c.bench_function("layer_f32_fused_512x64x64", |bench| {
        bench.iter(|| {
            black_box(&a32)
                .matmul_nt_ep(black_box(&b32), Epilogue::new(&bias, Activation::Relu))
                .row(0)[0]
        });
    });
}

criterion_group!(benches, bench_nn, bench_pool_scoring, bench_matmul_kernels);
criterion_main!(benches);
