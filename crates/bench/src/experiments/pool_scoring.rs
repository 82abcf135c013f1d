//! Pool-scoring latency ladder with a machine-readable snapshot.
//!
//! Measures the serving-scale pool prediction (4096 tuples × 64 features
//! through one UIS classifier) across the three scoring modes, worst to
//! best:
//!
//! 1. **per_point** — one `UisClassifier::logit` call per tuple, the
//!    original online path (per-call forward-cache allocations),
//! 2. **batched_f64** — `Scorer::score` at `ScoringPrecision::Exact`: one
//!    `forward_batch` pass per block on the tiled f64 kernel,
//!    bit-compatible with per-point logits,
//! 3. **fast_f32** — `Scorer::score` at `ScoringPrecision::Fast`: the SIMD
//!    f32 kernels with the fused bias+activation epilogue, rank-stable
//!    within the documented noise floor.
//!
//! The raw kernels under those paths are timed alongside at one
//! classifier-layer shape so kernel-level and end-to-end wins can be told
//! apart: naive/tiled f64, the f32 path unfused (matmul → bias pass →
//! ReLU pass) vs fused (one epilogue kernel), and each SIMD microkernel
//! pinned individually (AVX-512F, AVX2+FMA — emitted with an
//! `unsupported` marker when the host lacks the feature).
//!
//! Unlike the criterion benches (vendored criterion has no JSON output),
//! this experiment writes `BENCH_pool_scoring.json` — a committed snapshot
//! future PRs regenerate on comparable hardware to track the perf
//! trajectory. The snapshot records `threads` and `cpu_features` so the
//! numbers carry their hardware context. See `docs/PERFORMANCE.md` for how
//! to produce and compare snapshots. Numbers move with the machine;
//! speedup *ratios* are the stable signal.

use crate::env::BenchEnv;
use crate::report::Report;
use lte_core::classifier::{ClassifierConfig, UisClassifier};
use lte_core::config::ScoringPrecision;
use lte_core::parallel::default_threads;
use lte_core::scorer::{ScoreRequest, Scorer};
use lte_data::rng::seeded;
use lte_nn::{cpu_features, Activation, Epilogue, KernelKind, Matrix, Matrix32};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// One snapshot row: median + mean wall time over the run's iteration
/// count, or an explicit `unsupported` marker for a SIMD kernel the host
/// cannot execute (so its absence is recorded, not silent).
struct Timing {
    name: &'static str,
    median_ns: u128,
    mean_ns: u128,
    unsupported: bool,
}

/// Median/mean wall time of `f` over `iters` timed runs (after one warmup).
fn time_ns(iters: usize, mut f: impl FnMut()) -> (u128, u128) {
    f(); // warmup: touch caches, fault pages
    let mut samples: Vec<u128> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    let mean = samples.iter().sum::<u128>() / samples.len() as u128;
    (median, mean)
}

fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.1} µs", ns as f64 / 1e3)
    }
}

/// Run the ladder and write the snapshot. `smoke` shrinks the pool and the
/// iteration count so CI can exercise the full code path in seconds.
pub fn run(env: &BenchEnv, out: Option<&Path>, smoke: bool) {
    let (pool_rows, iters) = if smoke { (512, 3) } else { (4096, 30) };
    let (nr, ku, ne) = (64, 40, 64);

    let cfg = ClassifierConfig {
        ku,
        nr,
        ne,
        clf_hidden: ne,
        use_conversion: true,
    };
    let clf = UisClassifier::new(cfg, &mut seeded(env.seed));
    let v_r: Vec<f64> = (0..ku).map(|i| (i % 2) as f64).collect();
    let pool: Vec<Vec<f64>> = (0..pool_rows)
        .map(|i| {
            (0..nr)
                .map(|j| ((i * nr + j) as f64 * 0.013).sin())
                .collect()
        })
        .collect();

    let mut timings: Vec<Timing> = Vec::new();
    // `None` marks a SIMD kernel the host cannot run.
    let mut push = |name, timed: Option<(u128, u128)>| {
        let (median_ns, mean_ns) = timed.unwrap_or((0, 0));
        timings.push(Timing {
            name,
            median_ns,
            mean_ns,
            unsupported: timed.is_none(),
        })
    };

    push(
        "per_point",
        Some(time_ns(iters, || {
            let scores: Vec<f64> = pool
                .iter()
                .map(|row| clf.logit(black_box(&v_r), black_box(row)))
                .collect();
            black_box(scores[0]);
        })),
    );
    for (name, precision) in [
        ("batched_f64", ScoringPrecision::Exact),
        ("fast_f32", ScoringPrecision::Fast),
    ] {
        push(
            name,
            Some(time_ns(iters, || {
                let req = ScoreRequest::new(black_box(&v_r), black_box(&pool), precision);
                black_box(clf.score(&req));
            })),
        );
    }

    // Raw kernels at one classifier-layer shape (pool-block × Ne · Ne × Ne).
    let (kn, km, kk) = (if smoke { 128 } else { 512 }, ne, ne);
    let a = Matrix::from_fn(kn, kk, |i, j| ((i * kk + j) as f64 * 0.017).sin());
    let b = Matrix::from_fn(km, kk, |i, j| ((i * kk + j) as f64 * 0.029).cos());
    let (a32, b32) = (Matrix32::from_f64(&a), Matrix32::from_f64(&b));
    let bias: Vec<f32> = (0..km).map(|j| (j as f32 * 0.07).sin()).collect();
    push(
        "kernel_naive_f64",
        Some(time_ns(iters, || {
            let mut out = Matrix::zeros(kn, km);
            for i in 0..kn {
                for j in 0..km {
                    let mut s = 0.0;
                    for l in 0..kk {
                        s += a.row(i)[l] * b.row(j)[l];
                    }
                    out.row_mut(i)[j] = s;
                }
            }
            black_box(out.row(0)[0]);
        })),
    );
    push(
        "kernel_tiled_f64",
        Some(time_ns(iters, || {
            black_box(black_box(&a).matmul_nt(black_box(&b)).row(0)[0]);
        })),
    );
    // Bare matmul on the auto-detected kernel — the row committed
    // snapshots have tracked since the f32 path landed.
    push(
        "kernel_f32",
        Some(time_ns(iters, || {
            black_box(black_box(&a32).matmul_nt(black_box(&b32)).row(0)[0]);
        })),
    );
    // One dense layer, old pipeline: matmul, then a full bias pass, then a
    // full ReLU pass over the output.
    push(
        "kernel_f32_unfused",
        Some(time_ns(iters, || {
            let mut out = black_box(&a32).matmul_nt(black_box(&b32));
            out.add_row_bias(black_box(&bias));
            Activation::Relu.apply_slice_f32(out.data_mut());
            black_box(out.row(0)[0]);
        })),
    );
    // Same layer, fused epilogue: bias + ReLU in-register before store.
    push(
        "kernel_f32_fused",
        Some(time_ns(iters, || {
            let out = black_box(&a32)
                .matmul_nt_ep(black_box(&b32), Epilogue::new(&bias, Activation::Relu));
            black_box(out.row(0)[0]);
        })),
    );
    // Each SIMD microkernel pinned explicitly (same fused layer). Hosts
    // without the feature record the row as unsupported rather than
    // silently dropping it.
    for (name, kind) in [
        ("kernel_f32_avx512", KernelKind::Avx512f),
        ("kernel_f32_avx2", KernelKind::Avx2Fma),
    ] {
        if kind.supported() {
            push(
                name,
                Some(time_ns(iters, || {
                    let out = black_box(&a32).matmul_nt_ep_with(
                        black_box(&b32),
                        Epilogue::new(&bias, Activation::Relu),
                        kind,
                    );
                    black_box(out.row(0)[0]);
                })),
            );
        } else {
            push(name, None);
        }
    }

    let per_point_ns = timings[0].median_ns;
    let mut report = Report::new(
        format!("Pool scoring ladder ({pool_rows}×{nr} pool, median of {iters})"),
        &["mode", "median", "mean", "vs per_point"],
    );
    for t in &timings {
        if t.unsupported {
            report.push_row(vec![
                t.name.to_string(),
                "n/a".to_string(),
                "n/a".to_string(),
                "unsupported".to_string(),
            ]);
            continue;
        }
        let speedup = if t.name.starts_with("kernel") {
            "-".to_string()
        } else {
            format!("{:.1}×", per_point_ns as f64 / t.median_ns as f64)
        };
        report.push_row(vec![
            t.name.to_string(),
            fmt_ns(t.median_ns),
            fmt_ns(t.mean_ns),
            speedup,
        ]);
    }
    report.print();
    if let Some(dir) = out {
        let _ = report.write_csv(dir);
    }

    let json = snapshot_json(pool_rows, nr, iters, &timings);
    let path = out
        .map(|d| d.join("BENCH_pool_scoring.json"))
        .unwrap_or_else(|| Path::new("BENCH_pool_scoring.json").to_path_buf());
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    match std::fs::write(&path, json) {
        Ok(()) => println!("snapshot written to {}", path.display()),
        Err(e) => eprintln!("could not write snapshot {}: {e}", path.display()),
    }
}

/// Hand-rolled JSON (the workspace deliberately has no serde): a flat
/// object keyed by mode with median/mean nanoseconds plus run metadata.
/// Kernels the host cannot run appear as `{ "unsupported": true }`.
fn snapshot_json(pool_rows: usize, nr: usize, iters: usize, timings: &[Timing]) -> String {
    let per_point_ns = timings[0].median_ns;
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"bench\": \"pool_scoring\",");
    let _ = writeln!(s, "  \"pool_rows\": {pool_rows},");
    let _ = writeln!(s, "  \"features\": {nr},");
    let _ = writeln!(s, "  \"iters\": {iters},");
    let _ = writeln!(s, "  \"threads\": {},", default_threads());
    let _ = writeln!(s, "  \"cpu_features\": \"{}\",", cpu_features());
    let _ = writeln!(s, "  \"kernel\": \"{}\",", KernelKind::detect());
    let _ = writeln!(s, "  \"modes\": {{");
    for (i, t) in timings.iter().enumerate() {
        let comma = if i + 1 < timings.len() { "," } else { "" };
        if t.unsupported {
            let _ = writeln!(
                s,
                "    \"{}\": {{ \"unsupported\": true }}{}",
                t.name, comma
            );
            continue;
        }
        // Speedup only makes sense within the scoring modes; the kernel
        // rows time a different (single-matmul) workload.
        let speedup = if t.name.starts_with("kernel") {
            String::new()
        } else {
            format!(
                ", \"speedup_vs_per_point\": {:.2}",
                per_point_ns as f64 / t.median_ns as f64
            )
        };
        let _ = writeln!(
            s,
            "    \"{}\": {{ \"median_ns\": {}, \"mean_ns\": {}{} }}{}",
            t.name, t.median_ns, t.mean_ns, speedup, comma
        );
    }
    let _ = writeln!(s, "  }}");
    s.push_str("}\n");
    s
}

/// Dispatch a CLI subcommand; unknown names list the options and exit.
pub fn subcommand(env: &BenchEnv, out: Option<&Path>, smoke: bool, sub: &str) {
    match sub {
        "all" => run(env, out, smoke),
        other => {
            eprintln!("unknown subcommand `{other}`; available: all");
            std::process::exit(2);
        }
    }
}
