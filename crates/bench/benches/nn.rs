//! Micro-benchmark: the UIS classifier's forward/backward passes (§VI-A) at
//! paper-scale widths (ku=100, Ne=100), the per-sample SGD step of local
//! adaptation on each SIMD kernel, pool scoring at serving scale across
//! the precision ladder, the raw matmul kernels under it, and each kernel
//! at both precisions on the layers of one scoring tile.
//!
//! For machine-readable numbers (the committed `BENCH_pool_scoring.json`
//! snapshot), use `cargo run --release -p lte-bench --bin pool_scoring`
//! instead — vendored criterion has no JSON output.

use criterion::{criterion_group, criterion_main, Criterion};
use lte_core::classifier::{ClassifierConfig, Grads, UisClassifier};
use lte_core::config::ScoringPrecision;
use lte_core::scorer::{ScoreRequest, Scorer};
use lte_data::rng::seeded;
use lte_nn::{Activation, Epilogue, KernelKind, Matrix, Matrix32, Mlp, MlpCache, MlpStep};
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

/// The per-sample SGD step of local adaptation (`lte_nn::step`) on every
/// kernel, at the reduced classifier's block shapes: the UIS block 40→32
/// with the θR tap, the tuple block 12→32, the conversion 64→32 and the
/// classification block 32→32→1, the last two with their input gradients.
/// Each iteration is one forward pass and one step on a layout built once,
/// as `UisClassifier::train_epochs` runs them. Kernels the CPU lacks are
/// skipped.
fn bench_train_step(c: &mut Criterion) {
    let relu = Activation::Relu;
    let blocks: [(&str, &[usize], Activation, bool, bool); 4] = [
        ("uis_40x32", &[40, 32], relu, false, true),
        ("tuple_12x32", &[12, 32], relu, false, false),
        (
            "conversion_64x32",
            &[64, 32],
            Activation::Identity,
            true,
            false,
        ),
        (
            "clf_32x32x1",
            &[32, 32, 1],
            Activation::Identity,
            true,
            false,
        ),
    ];
    for kernel in [
        KernelKind::Avx512f,
        KernelKind::Avx2Fma,
        KernelKind::Portable,
    ] {
        if !kernel.supported() {
            println!("train_step/{kernel}: not supported on this CPU, skipped");
            continue;
        }
        for (name, dims, out_act, input_grad, tap) in blocks {
            let mut rng = seeded(5);
            let mlp = Mlp::new(dims, relu, out_act, &mut rng);
            let tap = tap.then(|| vec![0.0; mlp.param_count()]);
            let mut step = MlpStep::new(&mlp, input_grad, tap.as_deref(), kernel);
            let x: Vec<f64> = (0..dims[0]).map(|i| (i as f64 * 0.37).sin()).collect();
            let grad_out: Vec<f64> = (0..mlp.out_dim()).map(|i| 0.5 - i as f64 * 0.1).collect();
            let mut cache = MlpCache::default();
            let mut dx = vec![0.0; dims[0]];
            c.bench_function(&format!("train_step/{kernel}/{name}"), |b| {
                b.iter(|| {
                    step.forward_into(black_box(&x), &mut cache);
                    let dx = input_grad.then_some(dx.as_mut_slice());
                    step.step(&cache, black_box(&grad_out), 1e-9, dx);
                    cache.output()[0]
                });
            });
        }
    }
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
/// a naive triple loop as the pre-tiling baseline, the f64 kernel
/// (`Matrix::matmul_nt` on the detected SIMD kernel, bit-identical to
/// per-row matvec by contract), and
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

/// The matmul kernel at both precisions on every kernel, at the layers of
/// one pool-scoring tile of the reduced classifier (`nr = 12`, `ne = 32`,
/// hidden width 32): the tuple block 12→32 with ReLU, the conversion's
/// right half 32→32 with its pool-constant bias, the classifier's hidden
/// layer 32→32 with ReLU and its single-output head 32→1. `Fast` (`f32`)
/// tiles hold 256 rows, `Exact` (`f64`) tiles 128. Kernels the CPU lacks
/// are skipped.
fn bench_matmul_tiles(c: &mut Criterion) {
    let relu = Activation::Relu;
    let layers = [
        ("t_block_12x32_relu", 12, 32, relu),
        ("conversion_32x32_bias", 32, 32, Activation::Identity),
        ("clf_hidden_32x32_relu", 32, 32, relu),
        ("clf_head_32x1", 32, 1, Activation::Identity),
    ];
    for kernel in [
        KernelKind::Avx512f,
        KernelKind::Avx2Fma,
        KernelKind::Portable,
    ] {
        if !kernel.supported() {
            println!("matmul/<f32|f64>/{kernel}: not supported on this CPU, skipped");
            continue;
        }
        for (name, k, m, act) in layers {
            let a = |rows| Matrix::from_fn(rows, k, |i, j| ((i * k + j) as f64 * 0.017).sin());
            let w = Matrix::from_fn(m, k, |i, j| ((i * k + j) as f64 * 0.029).cos());
            let bias: Vec<f64> = (0..m).map(|j| (j as f64 * 0.07).sin()).collect();
            let (a64, a32) = (a(128), Matrix32::from_f64(&a(256)));
            let w32 = Matrix32::from_f64(&w);
            let bias32: Vec<f32> = bias.iter().map(|&v| v as f32).collect();
            c.bench_function(&format!("matmul/f32/{kernel}/{name}"), |b| {
                b.iter(|| {
                    let ep = Epilogue::new(black_box(&bias32), act);
                    black_box(&a32).matmul_nt_ep_with(&w32, ep, kernel).row(0)[0]
                });
            });
            c.bench_function(&format!("matmul/f64/{kernel}/{name}"), |b| {
                b.iter(|| {
                    let ep = Epilogue::new(black_box(&bias), act);
                    black_box(&a64).matmul_nt_ep_with(&w, ep, kernel).row(0)[0]
                });
            });
        }
    }
}

criterion_group!(
    benches,
    bench_nn,
    bench_train_step,
    bench_pool_scoring,
    bench_matmul_kernels,
    bench_matmul_tiles
);
criterion_main!(benches);
