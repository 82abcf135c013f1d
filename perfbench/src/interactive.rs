//! `interactive`: one analyst in a closed loop. Each session starts when
//! the previous outcome returns, and runs Meta* through the per-session
//! `SessionEngine` (one worker) over a 1 500-row pool at `Exact`. Session
//! latency is the engine call, which is what the analyst waits for, at the
//! reference speed.

use crate::common::{
    bits, digest, mean_f1, mean_loss, replay_offline, replay_session, Args, Latencies, Ledger,
    OnlineSetup, Run, Setups, Speed, Trace, OFFLINE_SEED,
};
use lte_core::config::ScoringPrecision;
use lte_serve::SessionEngine;
use std::sync::Arc;
use std::time::Instant;

/// Run the workload.
pub fn run(args: &Args) -> Run {
    let scale = args.scale();
    let build = || {
        OnlineSetup::build(
            &scale,
            args.seed,
            scale.interactive_pool,
            ScoringPrecision::Exact,
        )
    };
    let settings = vec![
        ("engine", "SessionEngine".to_string()),
        ("analysts", "1".to_string()),
        ("workers", "1".to_string()),
        ("precision", "Exact".to_string()),
        ("pool_rows", scale.interactive_pool.to_string()),
        ("distinct_requests", scale.distinct.to_string()),
    ];
    let mut ledger = Ledger::default();
    if args.trace {
        return traced(args, build(), ledger, settings);
    }

    let mut speed = Speed::default();
    let mut setups = Setups::new();
    let setup = setups.online(&mut ledger, speed.scale(), build, |s| s);
    let engine = SessionEngine::with_workers(Arc::clone(&setup.pipeline), 1);
    let budget = setup.pipeline.config().budget();
    let mut firsts = vec![None; setup.requests.len()];
    let mut latencies = Latencies::default();
    let start = Instant::now();
    let mut k = 0u64;
    while !setup.minimum_done(k as usize) || start.elapsed().as_secs_f64() < args.seconds {
        if setups.due() {
            drop(setups.online(&mut ledger, speed.scale(), build, |s| s));
        }
        let req = setup.request(k);
        let t0 = Instant::now();
        let done = engine.run_sessions(vec![req], &setup.pool);
        let latency = t0.elapsed().as_secs_f64();
        speed.sample();
        ledger.check_session(&mut firsts, setup.index(k), k, &done[0].outcome, budget);
        if setup.timed(k) {
            let scaled = latency * speed.scale();
            latencies.secs.push(scaled);
            latencies.wall += scaled;
            latencies.raw.push(latency);
        }
        k += 1;
    }
    Run::end_to_end(
        ledger,
        &latencies,
        &speed,
        mean_f1(&firsts),
        &setups,
        mean_loss(&setup.report),
        settings,
    )
}

/// The traced run: replay the set-up's offline phase, then alternate each
/// session between the engine (untraced) and its replay through the
/// layers, checking the two agree bit for bit.
fn traced(
    args: &Args,
    setup: OnlineSetup,
    mut ledger: Ledger,
    settings: Vec<(&'static str, String)>,
) -> Run {
    let mut trace = Trace::default();
    let cfg = setup.pipeline.config().clone();
    let t0 = Instant::now();
    let (replayed, losses) = replay_offline(&setup.table, &cfg, OFFLINE_SEED, &mut trace);
    trace.replay_wall += t0.elapsed().as_secs_f64();
    trace.untraced_wall += setup.offline_s;
    ledger.check(
        bits(&losses) == bits(&setup.report.final_query_loss),
        || "offline replay changed the final query loss".into(),
    );

    let engine = SessionEngine::with_workers(Arc::clone(&setup.pipeline), 1);
    let start = Instant::now();
    let mut k = 0u64;
    while k == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let req = setup.request(k);
        let t0 = Instant::now();
        let done = engine.run_sessions(vec![req.clone()], &setup.pool);
        trace.untraced_wall += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let replay = replay_session(&replayed, &req, &setup.pool, &mut trace);
        trace.replay_wall += t0.elapsed().as_secs_f64();
        ledger.check(digest(&done[0].outcome) == digest(&replay), || {
            format!("session {k}: replay differs from the engine")
        });
        k += 1;
    }
    trace.single_worker();
    Run::traced(ledger, &trace, settings)
}
