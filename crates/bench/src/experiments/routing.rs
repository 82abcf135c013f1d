//! Meta-feature task routing: a pipeline library vs any fixed pipeline.
//!
//! Not a paper figure — this measures the ROADMAP's routing item. The
//! paper trains one meta-learner per dataset and serves every session with
//! it, but a deployment rarely has one task population: region scale
//! varies (the §VIII-C modes), and different analysts explore different
//! conjunctive decompositions — and a pipeline trained on one
//! decomposition *cannot serve* a session over another (its contexts,
//! k-means centers, and meta-learners are all per-subspace). This bench
//! builds a three-pipeline SDSS library
//!
//! * `wide` — 2D decomposition, meta-trained on large convex tasks,
//! * `small` — 2D decomposition, meta-trained on small convex tasks,
//! * `fine` — 1D (per-attribute) decomposition, convex tasks,
//!
//! and serves a held-out mix drawn from all three task families:
//!
//! 1. **fixed_&ast;** — every session served by one pipeline (the status
//!    quo: whichever pipeline you happened to deploy). Sessions whose
//!    conjunctive decomposition the pipeline cannot serve score F1 = 0 —
//!    that deployment simply cannot answer them.
//! 2. **routed** — [`lte_core::routing::Router`] filters by decomposition
//!    compatibility, then matches each session's meta-features
//!    (selectivity, modality, dispersion, …) against the registry
//!    centroids, explaining every decision.
//!
//! The committed snapshot (`BENCH_routing.json`) reports mean F1 per path
//! plus `routed_minus_best_fixed` — the routed path must not lose to the
//! best fixed pipeline — and `routing_accuracy`, the fraction of sessions
//! sent to their own family's pipeline. `--smoke` shrinks training and the
//! session mix so CI can drive the full path in seconds.

use crate::env::BenchEnv;
use crate::report::{fmt_secs, Report};
use crate::runner::{default_threads, eval_pool};
use lte_core::explore::Variant;
use lte_core::pipeline::LtePipeline;
use lte_core::routing::{PipelineRegistry, Router};
use lte_core::uis::UisMode;
use lte_data::rng::derive_seed;
use lte_data::subspace::decompose_sequential;
use lte_serve::{RoutedSession, SessionEngine, SessionRequest};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Registry entries / truth families, in registry order.
const FAMILIES: [&str; 3] = ["wide", "small", "fine"];
/// Held-out sessions in the full-scale run (a third per family).
const SESSIONS: usize = 24;
/// Held-out sessions under `--smoke`.
const SMOKE_SESSIONS: usize = 6;

/// Per-path scores: mean F1 over the full mix (unservable sessions count
/// 0.0), per-family means, and the fraction of sessions served at all.
struct PathResult {
    mean_f1: f64,
    family_f1: [f64; 3],
    served_fraction: f64,
    wall_seconds: f64,
}

/// Fold `(f1, served)` per session (request order) into per-family means.
fn summarize(scores: &[(f64, bool)], families: &[usize], wall_seconds: f64) -> PathResult {
    let mut sums = [0.0f64; 3];
    let mut counts = [0usize; 3];
    let mut served = 0usize;
    for (&(f1, ok), &fam) in scores.iter().zip(families) {
        sums[fam] += f1;
        counts[fam] += 1;
        served += ok as usize;
    }
    let mut family_f1 = [0.0; 3];
    for (f, (&s, &c)) in family_f1.iter_mut().zip(sums.iter().zip(&counts)) {
        *f = s / c.max(1) as f64;
    }
    PathResult {
        mean_f1: sums.iter().sum::<f64>() / scores.len().max(1) as f64,
        family_f1,
        served_fraction: served as f64 / scores.len().max(1) as f64,
        wall_seconds,
    }
}

/// Build the three-pipeline library, route the held-out mix, and write the
/// snapshot.
pub fn run(env: &BenchEnv, out: Option<&Path>, smoke: bool) {
    let workers = default_threads();
    let sessions = if smoke { SMOKE_SESSIONS } else { SESSIONS };
    let pool_rows = if smoke { 400 } else { env.eval_size };
    let tag_tasks = if smoke { 6 } else { 12 };

    // Per family: training mode, per-subspace selectivity window for
    // held-out truths, and subspace dimensionality.
    let family_params = [
        (UisMode::new(1, env.scale_psi(75)), 0.55, 0.9, 2usize),
        (UisMode::new(1, env.scale_psi(25)), 0.12, 0.4, 2),
        (env.convex_mode(), 0.2, 0.9, 1),
    ];

    let table = env.table("sdss");
    let mut cfg = env.lte_config(30);
    if smoke {
        cfg.train.n_tasks = 60;
        cfg.train.epochs = 1;
    }

    let pipelines: Vec<Arc<LtePipeline>> = family_params
        .iter()
        .enumerate()
        .map(|(i, (mode, _, _, dim))| {
            let mut cfg = cfg.clone();
            cfg.task.mode = *mode;
            let subspaces = decompose_sequential(4, *dim);
            let (p, _) =
                LtePipeline::offline(table, subspaces, cfg, derive_seed(env.seed, 920 + i as u64));
            Arc::new(p)
        })
        .collect();
    let pool = eval_pool(table, pool_rows, derive_seed(env.seed, 922));

    // Held-out mix: session i belongs to family i % 3 — seeds disjoint
    // from training and tagging. Per-subspace guards don't bound the
    // *conjunctive* selectivity (correlated attributes can make the
    // intersection empty), so retry until the UIR keeps enough positives
    // on the pool for F1 and the routing features to be meaningful.
    let uir_min = 0.04;
    let gen_truth = |i: u64, fam: usize| {
        let (mode, lo, hi, _) = family_params[fam];
        let mut truth = None;
        for attempt in 0..50u64 {
            let t = pipelines[fam].generate_truth(
                mode,
                derive_seed(env.seed, 10_000 + i * 64 + attempt),
                lo,
                hi,
            );
            if t.selectivity(&pool) >= uir_min {
                return t;
            }
            truth = Some(t);
        }
        truth.expect("at least one attempt")
    };
    let families: Vec<usize> = (0..sessions).map(|i| i % 3).collect();
    let requests: Vec<SessionRequest> = families
        .iter()
        .enumerate()
        .map(|(i, &fam)| SessionRequest {
            id: i as u64,
            truth: gen_truth(i as u64, fam),
            variant: Variant::Meta,
            seed: derive_seed(env.seed, 960 + i as u64),
        })
        .collect();

    let mut registry = PipelineRegistry::new();
    for (i, name) in FAMILIES.iter().enumerate() {
        registry.register(
            name,
            Arc::clone(&pipelines[i]),
            tag_tasks,
            derive_seed(env.seed, 940 + i as u64),
        );
    }
    let registry = Arc::new(registry);

    // Fixed baselines: one pipeline serves what it can; sessions over a
    // different decomposition are unanswerable and score 0.
    let fixed = |pipeline: &Arc<LtePipeline>| -> PathResult {
        let servable: Vec<SessionRequest> = requests
            .iter()
            .filter(|r| {
                let subs: Vec<_> = r.truth.parts().iter().map(|(s, _)| s.clone()).collect();
                pipeline.subspaces() == subs.as_slice()
            })
            .cloned()
            .collect();
        let engine = SessionEngine::with_workers(Arc::clone(pipeline), workers);
        let t0 = Instant::now();
        let outcomes = engine.run_sessions(servable, &pool);
        let wall = t0.elapsed().as_secs_f64();
        let mut scores = vec![(0.0, false); sessions];
        for o in &outcomes {
            scores[o.id as usize] = (o.outcome.f1(), true);
        }
        summarize(&scores, &families, wall)
    };
    let fixed_results: Vec<PathResult> = pipelines.iter().map(fixed).collect();

    let engine = SessionEngine::with_workers(Arc::clone(&pipelines[0]), workers);
    let t0 = Instant::now();
    let routed: Vec<RoutedSession> = engine.run_sessions_routed(
        requests,
        &pool,
        Arc::clone(&registry),
        Router::new(derive_seed(env.seed, 950)),
    );
    let routed_wall = t0.elapsed().as_secs_f64();
    let routed_scores: Vec<(f64, bool)> = routed
        .iter()
        .map(|r| (r.outcome.outcome.f1(), true))
        .collect();
    let routed_result = summarize(&routed_scores, &families, routed_wall);

    // Routing accuracy: each family belongs on its own registry entry.
    let correct = routed
        .iter()
        .zip(&families)
        .filter(|(r, &fam)| r.decision.chosen == fam)
        .count();
    let routing_accuracy = correct as f64 / sessions as f64;
    let mut chosen_counts = vec![0usize; registry.len()];
    for r in &routed {
        chosen_counts[r.decision.chosen] += 1;
    }
    let mean_distance = routed
        .iter()
        .map(|r| r.decision.candidates[r.decision.chosen].distance)
        .sum::<f64>()
        / sessions as f64;

    let best_fixed = fixed_results
        .iter()
        .map(|r| r.mean_f1)
        .fold(f64::NEG_INFINITY, f64::max);
    let margin = routed_result.mean_f1 - best_fixed;

    let mut report = Report::new(
        format!(
            "Meta-feature routing ({sessions} Meta sessions, wide/small/fine SDSS mix, {workers} worker(s){})",
            if smoke { ", smoke" } else { "" }
        ),
        &["path", "mean F1", "wide F1", "small F1", "fine F1", "served", "wall"],
    );
    let rows: Vec<(String, &PathResult)> = FAMILIES
        .iter()
        .zip(&fixed_results)
        .map(|(name, r)| (format!("fixed_{name}"), r))
        .chain(std::iter::once(("routed".to_string(), &routed_result)))
        .collect();
    for (name, r) in rows {
        report.push_row(vec![
            name,
            format!("{:.3}", r.mean_f1),
            format!("{:.3}", r.family_f1[0]),
            format!("{:.3}", r.family_f1[1]),
            format!("{:.3}", r.family_f1[2]),
            format!("{:.0}%", r.served_fraction * 100.0),
            fmt_secs(r.wall_seconds),
        ]);
    }
    report.print();
    println!("routed vs best fixed: {margin:+.3} F1, routing accuracy {routing_accuracy:.2}");
    println!("example decision:\n{}", routed[0].decision.explanation());
    if let Some(dir) = out {
        let _ = report.write_csv(dir);
    }

    let json = snapshot_json(
        smoke,
        sessions,
        workers,
        pool_rows,
        tag_tasks,
        &family_params,
        &fixed_results,
        &routed_result,
        margin,
        routing_accuracy,
        &chosen_counts,
        mean_distance,
        &routed[0].decision.explanation(),
    );
    let path = out
        .map(|d| d.join("BENCH_routing.json"))
        .unwrap_or_else(|| Path::new("BENCH_routing.json").to_path_buf());
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

fn path_json(s: &mut String, indent: &str, r: &PathResult) {
    let _ = writeln!(s, "{indent}\"mean_f1\": {:.4},", r.mean_f1);
    let fams: Vec<String> = r.family_f1.iter().map(|f| format!("{f:.4}")).collect();
    let _ = writeln!(s, "{indent}\"family_f1\": [{}],", fams.join(", "));
    let _ = writeln!(s, "{indent}\"served_fraction\": {:.4},", r.served_fraction);
    let _ = writeln!(s, "{indent}\"wall_seconds\": {:.4}", r.wall_seconds);
}

/// Hand-rolled JSON (the workspace deliberately has no serde). Keys are
/// schema-checked by CI against the committed `BENCH_routing.json`.
#[allow(clippy::too_many_arguments)]
fn snapshot_json(
    smoke: bool,
    sessions: usize,
    workers: usize,
    pool_rows: usize,
    tag_tasks: usize,
    family_params: &[(UisMode, f64, f64, usize); 3],
    fixed_results: &[PathResult],
    routed: &PathResult,
    margin: f64,
    routing_accuracy: f64,
    chosen_counts: &[usize],
    mean_distance: f64,
    example_explanation: &str,
) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"bench\": \"routing\",");
    let _ = writeln!(s, "  \"smoke\": {smoke},");
    let _ = writeln!(s, "  \"sessions\": {sessions},");
    let _ = writeln!(s, "  \"workers\": {workers},");
    let _ = writeln!(s, "  \"threads\": {},", default_threads());
    let _ = writeln!(s, "  \"cpu_features\": \"{}\",", lte_nn::cpu_features());
    let _ = writeln!(s, "  \"pool_rows\": {pool_rows},");
    let _ = writeln!(s, "  \"variant\": \"Meta\",");
    let _ = writeln!(s, "  \"registry\": {{");
    let names: Vec<String> = FAMILIES.iter().map(|n| format!("\"{n}\"")).collect();
    let _ = writeln!(s, "    \"entries\": [{}],", names.join(", "));
    let modes: Vec<String> = family_params
        .iter()
        .map(|(m, _, _, _)| format!("\"{m}\""))
        .collect();
    let _ = writeln!(s, "    \"modes\": [{}],", modes.join(", "));
    let dims: Vec<String> = family_params
        .iter()
        .map(|(_, _, _, d)| d.to_string())
        .collect();
    let _ = writeln!(s, "    \"subspace_dims\": [{}],", dims.join(", "));
    let _ = writeln!(s, "    \"tag_tasks_per_subspace\": {tag_tasks}");
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"fixed\": {{");
    for (i, (name, r)) in FAMILIES.iter().zip(fixed_results).enumerate() {
        let _ = writeln!(s, "    \"{name}\": {{");
        path_json(&mut s, "      ", r);
        let _ = writeln!(s, "    }}{}", if i + 1 < FAMILIES.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"routed\": {{");
    path_json(&mut s, "    ", routed);
    let trimmed = s.trim_end().len();
    s.truncate(trimmed);
    s.push_str(",\n");
    let _ = writeln!(s, "    \"routing_accuracy\": {routing_accuracy:.4},");
    let counts: Vec<String> = chosen_counts.iter().map(|c| c.to_string()).collect();
    let _ = writeln!(s, "    \"chosen_counts\": [{}],", counts.join(", "));
    let _ = writeln!(s, "    \"mean_distance\": {mean_distance:.4}");
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"routed_minus_best_fixed\": {margin:.4},");
    let _ = writeln!(
        s,
        "  \"example_explanation\": \"{}\"",
        example_explanation
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
    );
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
