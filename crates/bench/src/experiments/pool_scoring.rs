//! Pool-scoring latency ladder with a machine-readable snapshot.
//!
//! Measures the serving-scale pool prediction (4096 tuples × 64 features
//! through one UIS classifier) across the three scoring modes, worst to
//! best:
//!
//! 1. **per_point** — one `UisClassifier::logit` call per tuple, the
//!    original online path (per-call forward-cache allocations),
//! 2. **batched_f64** — `Scorer::score` at `ScoringPrecision::Exact`: one
//!    `forward_batch` pass per row tile on the SIMD f64 kernels with the
//!    fused bias+activation epilogue, bit-compatible with per-point logits,
//! 3. **fast_f32** — `Scorer::score` at `ScoringPrecision::Fast`: the SIMD
//!    f32 kernels with the fused bias+activation epilogue, rank-stable
//!    within the documented noise floor.
//!
//! The raw kernels under those paths are timed alongside at one
//! classifier-layer shape so kernel-level and end-to-end wins can be told
//! apart: naive/auto-kernel f64, the fused f64 layer, the f32 path unfused
//! (matmul → bias pass → ReLU pass) vs fused (one epilogue kernel), and
//! each SIMD microkernel of both precisions pinned individually (AVX-512F,
//! AVX2 — emitted with an `unsupported` marker when the host lacks the
//! feature).
//!
//! Unlike the criterion benches (vendored criterion has no JSON output),
//! this experiment writes `BENCH_pool_scoring.json` — a committed snapshot
//! future PRs regenerate on comparable hardware to track the perf
//! trajectory. The snapshot records `threads` and `cpu_features` so the
//! numbers carry their hardware context. See `docs/PERFORMANCE.md` for how
//! to produce and compare snapshots. Numbers move with the machine;
//! speedup *ratios* are the stable signal.
//!
//! Before it writes a snapshot, [`run`] holds its timings to
//! [`check_modes`]; the committed snapshot is held to the same rules by
//! [`read_snapshot`] in the `pool_scoring_snapshot` test.

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

/// The modes every snapshot carries.
pub const MODES: [&str; 13] = [
    "per_point",
    "batched_f64",
    "fast_f32",
    "kernel_naive_f64",
    "kernel_tiled_f64",
    "kernel_f64_fused",
    "kernel_f32",
    "kernel_f32_unfused",
    "kernel_f32_fused",
    "kernel_f32_avx512",
    "kernel_f32_avx2",
    "kernel_f64_avx512",
    "kernel_f64_avx2",
];

/// The SIMD kernels timed one by one: the only modes a host without the
/// feature may mark unsupported.
pub const PINNED: [&str; 4] = [
    "kernel_f32_avx512",
    "kernel_f32_avx2",
    "kernel_f64_avx512",
    "kernel_f64_avx2",
];

/// How much slower than the unfused three passes the fused `f32` layer may
/// time in a full run.
pub const FUSED_SLACK: f64 = 1.05;

/// [`FUSED_SLACK`] for a `--smoke` run, whose few iterations are noisier.
pub const SMOKE_FUSED_SLACK: f64 = 1.25;

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

/// Run the ladder, check its timings with [`check_modes`] and write the
/// snapshot. `smoke` shrinks the pool and the iteration count so CI can
/// exercise the full code path in seconds, and checks at
/// [`SMOKE_FUSED_SLACK`].
///
/// # Errors
/// Returns the rules the timings break, and writes no snapshot then.
pub fn run(env: &BenchEnv, out: Option<&Path>, smoke: bool) -> Result<(), String> {
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
    let bias64: Vec<f64> = bias.iter().map(|&v| f64::from(v)).collect();
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
    // Bare matmul on the auto-detected f64 kernel (the row keeps its
    // name from when the f64 kernel was the scalar tiled loop).
    push(
        "kernel_tiled_f64",
        Some(time_ns(iters, || {
            black_box(black_box(&a).matmul_nt(black_box(&b)).row(0)[0]);
        })),
    );
    // One dense f64 layer, bias + ReLU fused into the epilogue.
    push(
        "kernel_f64_fused",
        Some(time_ns(iters, || {
            let out =
                black_box(&a).matmul_nt_ep(black_box(&b), Epilogue::new(&bias64, Activation::Relu));
            black_box(out.row(0)[0]);
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
    // Each SIMD microkernel pinned explicitly (same fused layer, at each
    // precision). Hosts without the feature record the row as unsupported
    // rather than silently dropping it.
    for (name, kind) in [
        ("kernel_f32_avx512", KernelKind::Avx512f),
        ("kernel_f32_avx2", KernelKind::Avx2Fma),
    ] {
        let timed = kind.supported().then(|| {
            time_ns(iters, || {
                let out = black_box(&a32).matmul_nt_ep_with(
                    black_box(&b32),
                    Epilogue::new(&bias, Activation::Relu),
                    kind,
                );
                black_box(out.row(0)[0]);
            })
        });
        push(name, timed);
    }
    for (name, kind) in [
        ("kernel_f64_avx512", KernelKind::Avx512f),
        ("kernel_f64_avx2", KernelKind::Avx2Fma),
    ] {
        let timed = kind.supported().then(|| {
            time_ns(iters, || {
                let out = black_box(&a).matmul_nt_ep_with(
                    black_box(&b),
                    Epilogue::new(&bias64, Activation::Relu),
                    kind,
                );
                black_box(out.row(0)[0]);
            })
        });
        push(name, timed);
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

    let modes: Vec<(&str, Option<f64>)> = timings
        .iter()
        .map(|t| (t.name, (!t.unsupported).then_some(t.median_ns as f64)))
        .collect();
    let slack = if smoke {
        SMOKE_FUSED_SLACK
    } else {
        FUSED_SLACK
    };
    let violations = check_modes(&modes, slack);
    if !violations.is_empty() {
        return Err(format!(
            "pool_scoring: no snapshot written, the timings break the rules: {}",
            violations.join("; ")
        ));
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
    Ok(())
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

/// The rules every snapshot meets, over its modes (`name`, median ns, or
/// `None` for a kernel the host cannot run): every mode of [`MODES`] is
/// present; only the [`PINNED`] kernels may be unsupported, and every
/// other mode is timed above zero; the fused `f32` layer
/// (`kernel_f32_fused`) is no slower than `slack` times the three-pass
/// pipeline it replaced (`kernel_f32_unfused`), nor than the end-to-end
/// `fast_f32` path. Returns every rule broken.
pub fn check_modes<S: AsRef<str>>(modes: &[(S, Option<f64>)], slack: f64) -> Vec<String> {
    let find = |name: &str| modes.iter().find(|(n, _)| n.as_ref() == name);
    let mut broken: Vec<String> = MODES
        .iter()
        .filter(|name| find(name).is_none())
        .map(|name| format!("missing mode {name}"))
        .collect();
    for (name, median) in modes {
        let name = name.as_ref();
        match median {
            None if !PINNED.contains(&name) => {
                broken.push(format!("{name} may not be unsupported"))
            }
            Some(ns) if *ns <= 0.0 => broken.push(format!("{name} has no timing")),
            _ => {}
        }
    }
    let median = |name| find(name).and_then(|&(_, ns)| ns);
    if let (Some(fused), Some(unfused), Some(fast)) = (
        median("kernel_f32_fused"),
        median("kernel_f32_unfused"),
        median("fast_f32"),
    ) {
        if fused > unfused * slack {
            broken.push(format!(
                "fused epilogue slower than unfused passes ({fused} vs {unfused} ns, slack {slack})"
            ));
        }
        if fused > fast {
            broken.push(format!(
                "fused kernel slower than the end-to-end fast path ({fused} vs {fast} ns)"
            ));
        }
    }
    broken
}

/// The modes of a snapshot [`run`] wrote, for [`check_modes`]: each
/// mode's median in ns, or `None` where it is marked unsupported.
///
/// # Errors
/// Fails when the text is not such a snapshot: not JSON, or missing a run
/// field, the modes, or a mode's timing.
pub fn read_snapshot(json: &str) -> Result<Vec<(String, Option<f64>)>, String> {
    let Json::Obj(top) = Json::parse(json)? else {
        return Err("snapshot is not a JSON object".to_string());
    };
    let run_fields = [
        "bench",
        "pool_rows",
        "features",
        "iters",
        "threads",
        "cpu_features",
        "kernel",
    ];
    if let Some(key) = run_fields
        .iter()
        .find(|&&key| Json::field(&top, key).is_none())
    {
        return Err(format!("missing {key}"));
    }
    let Some(Json::Obj(modes)) = Json::field(&top, "modes") else {
        return Err("missing modes".to_string());
    };
    modes
        .iter()
        .map(|(name, row)| {
            let Json::Obj(row) = row else {
                return Err(format!("mode {name} is not an object"));
            };
            match (
                Json::field(row, "unsupported"),
                Json::field(row, "median_ns"),
            ) {
                (Some(Json::Bool(true)), _) => Ok((name.clone(), None)),
                (_, Some(&Json::Num(ns))) => Ok((name.clone(), Some(ns))),
                _ => Err(format!("mode {name} has no median_ns")),
            }
        })
        .collect()
}

/// The JSON the snapshots are written in: objects, strings without
/// escapes, numbers and booleans.
#[derive(Debug)]
enum Json {
    Obj(Vec<(String, Json)>),
    Str(String),
    Num(f64),
    Bool(bool),
}

impl Json {
    /// Parse one value that spans all of `text`.
    fn parse(text: &str) -> Result<Json, String> {
        let mut cursor = Cursor {
            b: text.as_bytes(),
            at: 0,
        };
        let value = cursor.value()?;
        match cursor.peek() {
            None => Ok(value),
            Some(_) => Err(format!("trailing text at byte {}", cursor.at)),
        }
    }

    /// The field `key` of an object's fields.
    fn field<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// A position in JSON text.
struct Cursor<'a> {
    b: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    /// The next byte after whitespace, not consumed.
    fn peek(&mut self) -> Option<u8> {
        while self.b.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
        self.b.get(self.at).copied()
    }

    /// Consume `c` as the next byte after whitespace.
    fn expect(&mut self, c: u8) -> Result<(), String> {
        match self.peek() {
            Some(next) if next == c => {
                self.at += 1;
                Ok(())
            }
            _ => Err(format!("expected `{}` at byte {}", c as char, self.at)),
        }
    }

    /// The value at the cursor, consumed.
    fn value(&mut self) -> Result<Json, String> {
        let next = self.peek();
        let (start, rest) = (self.at, &self.b[self.at..]);
        match next {
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                if self.peek() != Some(b'}') {
                    loop {
                        let Json::Str(key) = self.value()? else {
                            return Err(format!("expected a key in the object at byte {start}"));
                        };
                        self.expect(b':')?;
                        fields.push((key, self.value()?));
                        if self.peek() != Some(b',') {
                            break;
                        }
                        self.at += 1;
                    }
                }
                self.expect(b'}')?;
                Ok(Json::Obj(fields))
            }
            Some(b'"') => {
                let len = rest[1..]
                    .iter()
                    .position(|&c| c == b'"')
                    .ok_or("unterminated string")?;
                self.at += len + 2;
                Ok(Json::Str(
                    String::from_utf8_lossy(&rest[1..=len]).into_owned(),
                ))
            }
            _ if rest.starts_with(b"true") => {
                self.at += 4;
                Ok(Json::Bool(true))
            }
            _ if rest.starts_with(b"false") => {
                self.at += 5;
                Ok(Json::Bool(false))
            }
            _ => {
                let len = rest
                    .iter()
                    .position(|c| !(c.is_ascii_digit() || b"+-.eE".contains(c)))
                    .unwrap_or(rest.len());
                self.at += len;
                std::str::from_utf8(&rest[..len])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("expected a value at byte {start}"))
            }
        }
    }
}

/// Dispatch a CLI subcommand; unknown names list the options and exit.
///
/// # Errors
/// As [`run`].
pub fn subcommand(
    env: &BenchEnv,
    out: Option<&Path>,
    smoke: bool,
    sub: &str,
) -> Result<(), String> {
    match sub {
        "all" => run(env, out, smoke),
        other => {
            eprintln!("unknown subcommand `{other}`; available: all");
            std::process::exit(2);
        }
    }
}
