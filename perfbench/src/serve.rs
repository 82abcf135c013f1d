//! `serve`: 64 analysts in a closed loop against one `ScoringService`
//! (capacity 64, one worker per core) over a 20 000-row shared pool at
//! `Fast`. Each analyst submits its next session when the previous one
//! completes. Session latency runs from submission to the end of the tick
//! that completes the session, which is when the analyst sees the result.

use crate::common::{
    bits, digest, mean_f1, mean_loss, replay_offline, Args, Latencies, Ledger, OnlineSetup, Run,
    Setups, Speed, Trace, OFFLINE_SEED,
};
use lte_core::config::ScoringPrecision;
use lte_core::explore::{finish_round, prepare_round, ExploreOutcome, PreparedRound, Variant};
use lte_core::metrics::ConfusionMatrix;
use lte_core::oracle::RegionOracle;
use lte_core::parallel::{default_threads, parallel_map};
use lte_core::pipeline::{EncodedPool, LtePipeline, UirOutcome};
use lte_core::scorer::{score_fused_with, FusedRequest, ScoreRequest};
use lte_data::rng::derive_seed;
use lte_serve::{AdmissionQueue, ScoringService, SessionRequest};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The service's one shard.
const SHARD: &str = "sdss";

/// Run the workload.
pub fn run(args: &Args) -> Run {
    let scale = args.scale();
    let workers = default_threads();
    let build = || {
        let setup = OnlineSetup::build(&scale, args.seed, scale.serve_pool, ScoringPrecision::Fast);
        let service = Service::warm(&setup, workers, scale.analysts);
        (setup, service)
    };
    let settings = vec![
        ("engine", "ScoringService".to_string()),
        ("analysts", scale.analysts.to_string()),
        ("capacity", scale.analysts.to_string()),
        ("workers", workers.to_string()),
        ("precision", "Fast".to_string()),
        ("pool_rows", scale.serve_pool.to_string()),
        ("distinct_requests", scale.distinct.to_string()),
    ];
    let mut ledger = Ledger::default();
    if args.trace {
        let (setup, service) = build();
        return traced(args, setup, service, ledger, settings);
    }

    let mut speed = Speed::default();
    let mut setups = Setups::new();
    let (setup, mut service) = setups.online(&mut ledger, speed.scale(), build, |built| &built.0);
    let budget = setup.pipeline.config().budget();
    let distinct = setup.requests.len();
    let mut firsts = vec![None; distinct];
    // Between ticks, set up again when due; the checks of the set-up
    // go to their own ledger, merged after the closed loop.
    let mut setup_ledger = Ledger::default();
    let drove = drive(
        &mut [&mut service],
        &setup,
        scale.analysts,
        args.seconds,
        &mut speed,
        |_, k, o| ledger.check_session(&mut firsts, setup.index(k), k, o, budget),
        |scale| {
            if setups.due() {
                drop(setups.online(&mut setup_ledger, scale, build, |built| &built.0));
            }
        },
    );
    ledger.merge(setup_ledger);

    // Sampled sessions against the per-session reference path.
    let pool = setup.pipeline.encode_pool(&setup.pool);
    for r in (0..distinct).step_by((distinct / 8).max(1)) {
        let req = &setup.requests[r];
        let solo =
            setup
                .pipeline
                .explore_with_pool(&req.truth, &setup.pool, &pool, req.variant, req.seed);
        let served = firsts[r].expect("every distinct request ran").0;
        ledger.check(digest(&solo) == served, || {
            format!("request {r}: served outcome differs from explore_with_pool")
        });
    }

    Run::end_to_end(
        ledger,
        &drove.latencies,
        &speed,
        mean_f1(&firsts),
        &setups,
        mean_loss(&setup.report),
        settings,
    )
}

/// The traced run: replay the offline phase and the pool encoding through
/// the layers' public calls, then tick the service (untraced) and its
/// replay in lock step on the same submissions, checking that every
/// session completes in the same tick with the same outputs. The
/// untraced wall time counts the set-up's offline phase, one untraced
/// encoding of the pool (the service encodes it in its warm-up) and the
/// service's ticks.
fn traced(
    args: &Args,
    setup: OnlineSetup,
    mut service: Service,
    mut ledger: Ledger,
    settings: Vec<(&'static str, String)>,
) -> Run {
    let cfg = setup.pipeline.config().clone();
    let mut trace = Trace::default();
    let t0 = Instant::now();
    let (replayed, losses) = replay_offline(&setup.table, &cfg, OFFLINE_SEED, &mut trace);
    let rows = setup.pool.len() * replayed.subspaces().len();
    let pool = trace
        .encode
        .time(rows, || replayed.encode_pool(&setup.pool));
    let setup_replay = t0.elapsed().as_secs_f64();
    ledger.check(
        bits(&losses) == bits(&setup.report.final_query_loss),
        || "offline replay changed the final query loss".into(),
    );
    let t0 = Instant::now();
    drop(setup.pipeline.encode_pool(&setup.pool));
    let untraced_encode = t0.elapsed().as_secs_f64();

    let analysts = args.scale().analysts;
    let workers = service.inner.workers();
    let mut replay = Replay::new(&replayed, pool, &setup.pool, workers, analysts, trace);
    let mut done: [Vec<(u64, u64)>; 2] = Default::default();
    let drove = drive(
        &mut [&mut service, &mut replay],
        &setup,
        analysts,
        args.seconds,
        &mut Speed::default(),
        |e, k, o| done[e].push((k, digest(o))),
        |_| {},
    );
    ledger.check(done[0].len() == done[1].len(), || {
        format!(
            "{} sessions served, {} replayed",
            done[0].len(),
            done[1].len()
        )
    });
    for (a, b) in done[0].iter().zip(&done[1]) {
        ledger.check(a == b, || {
            format!("session {}: replay differs from the service", a.0)
        });
    }

    let mut trace = replay.trace;
    let [served, replayed_ticks] = drove.ticks;
    trace.replay_wall = setup_replay + replayed_ticks.iter().sum::<f64>();
    trace.untraced_wall = setup.offline_s + untraced_encode + served.iter().sum::<f64>();
    trace.ticks = served;
    trace.admission_wait = drove.waits;
    trace.peak_parked = service.inner.peak_parked();
    Run::traced(ledger, &trace, settings)
}

/// A session completed by a tick.
struct Done {
    id: u64,
    outcome: UirOutcome,
    /// Index, among this driver's ticks, of the tick that admitted it.
    admitted_tick: u64,
}

/// Anything that runs sessions tick by tick: the service, or its replay.
trait TickEngine {
    fn submit(&mut self, req: SessionRequest);
    fn tick(&mut self) -> Vec<Done>;
}

/// The service, with its shard's encoded pool already cached.
struct Service {
    inner: ScoringService,
    /// Ticks the warm-up took, so admission ticks count from the driver's
    /// first tick.
    base_tick: u64,
}

impl Service {
    /// Build the service and run one session through it, so encoding the
    /// shard's pool for epoch 0 happens in set-up, as it would when a
    /// shard is registered ahead of traffic.
    fn warm(setup: &OnlineSetup, workers: usize, capacity: usize) -> Self {
        let mut inner = ScoringService::builder()
            .workers(workers)
            .capacity(capacity)
            .shard(SHARD, Arc::clone(&setup.pipeline), setup.pool.clone())
            .build();
        inner.submit(SHARD, setup.requests[0].clone());
        inner.run_until_idle();
        inner.take_completed();
        let base_tick = inner.stats().ticks;
        Self { inner, base_tick }
    }
}

impl TickEngine for Service {
    fn submit(&mut self, req: SessionRequest) {
        self.inner.submit(SHARD, req);
    }

    fn tick(&mut self) -> Vec<Done> {
        self.inner.tick();
        self.inner
            .take_completed()
            .into_iter()
            .map(|o| Done {
                id: o.id,
                outcome: o.outcome,
                admitted_tick: o.admitted_tick - self.base_tick,
            })
            .collect()
    }
}

/// What a drive measured.
struct Drive<const N: usize> {
    /// Wall seconds of each tick, per engine.
    ticks: [Vec<f64>; N],
    /// Submission to start of the admitting tick, per session of the
    /// first engine (seconds).
    waits: Vec<f64>,
    /// The first engine's sessions completed after the first pass, and
    /// the wall time from the end of the tick that completed that pass.
    latencies: Latencies,
}

/// The closed loop: `analysts` sessions in flight, each completion
/// followed by that analyst's next submission, until `seconds` have
/// passed and two passes over the distinct requests have completed.
/// Several engines run in lock step on the same submissions, each ticking
/// in turn; the first engine's completions drive the loop, and those after
/// the first pass are timed. `on_done` sees each engine's completed
/// sessions (engine, request number, outcome) in completion order. Between
/// ticks, `speed` is sampled and `pause` runs with its scale; their time is
/// left out of every latency and of the timed wall time, which are given
/// at the reference speed.
fn drive<const N: usize>(
    engines: &mut [&mut dyn TickEngine; N],
    setup: &OnlineSetup,
    analysts: usize,
    seconds: f64,
    speed: &mut Speed,
    mut on_done: impl FnMut(usize, u64, &UirOutcome),
    mut pause: impl FnMut(f64),
) -> Drive<N> {
    let mut scale = speed.scale();
    // Request `k` is the `k`-th submission; `submitted[k]` is when, and
    // how long the loop had paused by then.
    let mut submitted: Vec<(Instant, Duration)> = Vec::new();
    let mut paused = Duration::ZERO;
    let submit = |engines: &mut [&mut dyn TickEngine; N],
                  submitted: &mut Vec<(Instant, Duration)>,
                  paused: Duration| {
        let req = setup.request(submitted.len() as u64);
        submitted.push((Instant::now(), paused));
        for engine in engines.iter_mut() {
            engine.submit(req.clone());
        }
    };
    // Half the analysts start one tick late, so every tick carries first
    // and second rounds alike and completions spread over every tick.
    for _ in 0..analysts / 2 {
        submit(engines, &mut submitted, paused);
    }
    let mut ticks: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
    let (mut waits, mut starts, mut completed) = (Vec::new(), Vec::new(), 0);
    let mut latencies = Latencies::default();
    // When the timed part began, and how long the loop had paused by then.
    let mut window: Option<(Instant, Duration)> = None;
    let start = Instant::now();
    while !setup.minimum_done(completed) || start.elapsed().as_secs_f64() < seconds {
        let mut first = (start, Vec::new());
        for (e, engine) in engines.iter_mut().enumerate() {
            let t0 = Instant::now();
            let done = engine.tick();
            let t1 = Instant::now();
            ticks[e].push((t1 - t0).as_secs_f64());
            if e == 0 {
                starts.push(t0);
                first = (t1, done.iter().map(|d| (d.id, d.admitted_tick)).collect());
            }
            for d in &done {
                on_done(e, d.id, &d.outcome);
            }
        }
        if starts.len() == 1 {
            for _ in analysts / 2..analysts {
                submit(engines, &mut submitted, paused);
            }
        }
        let (end, done) = first;
        completed += done.len();
        for (id, admitted_tick) in done {
            let (at, paused_then) = submitted[id as usize];
            if window.is_some() {
                let latency = (end - at - (paused - paused_then)).as_secs_f64();
                latencies.secs.push(latency * scale);
                latencies.raw.push(latency);
            }
            waits.push(
                starts[admitted_tick as usize]
                    .saturating_duration_since(at)
                    .as_secs_f64(),
            );
            submit(engines, &mut submitted, paused);
        }
        // The timed wall time grows tick by tick, each stretch at the
        // speed of its time.
        match &mut window {
            Some((from, paused_then)) => {
                latencies.wall += (end - *from - (paused - *paused_then)).as_secs_f64() * scale;
                (*from, *paused_then) = (end, paused);
            }
            None if completed >= setup.requests.len() => window = Some((end, paused)),
            None => {}
        }
        let t0 = Instant::now();
        speed.sample();
        scale = speed.scale();
        pause(scale);
        paused += t0.elapsed();
    }
    Drive {
        ticks,
        waits,
        latencies,
    }
}

/// A session in flight in the replay.
struct Active {
    req: SessionRequest,
    admitted_tick: u64,
    round: usize,
    uir_pred: Vec<bool>,
    per_subspace_f1: Vec<f64>,
    outcomes: Vec<ExploreOutcome>,
    online_seconds: f64,
}

/// `ScoringService::tick` replayed through the layers' public calls, in
/// the service's order and at its worker count: admit, prepare every
/// round across the pool, score them in one fused call, finish across
/// the pool, fold, drain.
struct Replay<'a> {
    pipeline: &'a LtePipeline,
    pool: EncodedPool,
    rows: &'a [Vec<f64>],
    workers: usize,
    queue: AdmissionQueue<SessionRequest>,
    active: Vec<Active>,
    tick: u64,
    trace: Trace,
}

impl<'a> Replay<'a> {
    fn new(
        pipeline: &'a LtePipeline,
        pool: EncodedPool,
        rows: &'a [Vec<f64>],
        workers: usize,
        capacity: usize,
        trace: Trace,
    ) -> Self {
        Self {
            pipeline,
            pool,
            rows,
            workers,
            queue: AdmissionQueue::bounded(capacity),
            active: Vec::new(),
            tick: 0,
            trace,
        }
    }
}

impl TickEngine for Replay<'_> {
    fn submit(&mut self, req: SessionRequest) {
        self.queue.submit(req);
    }

    fn tick(&mut self) -> Vec<Done> {
        let tick = self.tick;
        self.tick += 1;
        for req in self.queue.admit() {
            self.active.push(Active {
                req,
                admitted_tick: tick,
                round: 0,
                uir_pred: vec![true; self.rows.len()],
                per_subspace_f1: Vec::new(),
                outcomes: Vec::new(),
                online_seconds: 0.0,
            });
        }
        let (pipeline, workers, pool) = (self.pipeline, self.workers, &self.pool);
        let cfg = pipeline.config();
        let precision = cfg.online.precision;
        let active = &self.active;

        let t0 = Instant::now();
        let prepared: Vec<(PreparedRound, f64)> =
            parallel_map((0..active.len()).collect(), workers, |idx: usize| {
                let t = Instant::now();
                let s = &active[idx];
                let (_, region) = &s.req.truth.parts()[s.round];
                let oracle = RegionOracle::new(region.clone());
                let learner =
                    Some(&pipeline.learners()[s.round]).filter(|_| s.req.variant != Variant::Basic);
                let seed = derive_seed(s.req.seed, 2000 + s.round as u64);
                let ctx = &pipeline.contexts()[s.round];
                let p = prepare_round(ctx, learner, &oracle, cfg, s.req.variant, seed);
                (p, t.elapsed().as_secs_f64())
            });
        let wall = t0.elapsed().as_secs_f64();
        let jobs: Vec<f64> = prepared.iter().map(|p| p.1).collect();
        self.trace.prepare.phase(wall, &jobs, 0);
        self.trace.fan_out(wall, &jobs, workers);

        let requests: Vec<FusedRequest<'_>> = prepared
            .iter()
            .zip(active)
            .map(|((p, _), s)| FusedRequest {
                scorer: &p.classifier,
                request: ScoreRequest::new(&p.v_r, pool.encoded(s.round), precision),
            })
            .collect();
        let fused_rows: usize = requests.iter().map(|r| r.request.rows.len()).sum();
        let t0 = Instant::now();
        let scores = score_fused_with(&requests, workers);
        let score_s = t0.elapsed().as_secs_f64();
        drop(requests);
        self.trace.score.add(score_s, fused_rows);
        for (p, _) in &prepared {
            self.trace
                .score_shape(p.classifier.config(), precision, self.rows.len());
        }

        let finish_jobs: Vec<(usize, PreparedRound, Vec<f64>, f64)> = prepared
            .into_iter()
            .zip(scores)
            .enumerate()
            .map(|(idx, ((p, _), s))| {
                let share = score_s * s.len() as f64 / fused_rows.max(1) as f64;
                (idx, p, s, share)
            })
            .collect();
        let t0 = Instant::now();
        let finished: Vec<(ExploreOutcome, f64)> =
            parallel_map(finish_jobs, workers, |(idx, p, scores, share)| {
                let t = Instant::now();
                let s = &active[idx];
                let ctx = &pipeline.contexts()[s.round];
                let o = finish_round(
                    ctx,
                    p,
                    pool.proj(s.round),
                    scores,
                    cfg,
                    s.req.variant,
                    share,
                );
                (o, t.elapsed().as_secs_f64())
            });
        let wall = t0.elapsed().as_secs_f64();
        let jobs: Vec<f64> = finished.iter().map(|f| f.1).collect();
        self.trace.finish.phase(wall, &jobs, fused_rows);
        self.trace.fan_out(wall, &jobs, workers);

        for (s, (outcome, _)) in self.active.iter_mut().zip(finished) {
            let (_, region) = &s.req.truth.parts()[s.round];
            let sub = ConfusionMatrix::from_pairs(
                outcome
                    .predictions
                    .iter()
                    .zip(pool.proj(s.round))
                    .map(|(&p, row)| (p, region.contains(row))),
            );
            s.per_subspace_f1.push(sub.f1());
            for (p, &q) in s.uir_pred.iter_mut().zip(&outcome.predictions) {
                *p &= q;
            }
            s.online_seconds += outcome.online_seconds;
            s.outcomes.push(outcome);
            s.round += 1;
        }

        let n_sub = pipeline.subspaces().len();
        let (mut done, mut still) = (Vec::new(), Vec::new());
        for s in std::mem::take(&mut self.active) {
            if s.round < n_sub {
                still.push(s);
                continue;
            }
            let confusion = ConfusionMatrix::from_pairs(
                s.uir_pred
                    .iter()
                    .zip(self.rows)
                    .map(|(&p, row)| (p, s.req.truth.label(row))),
            );
            done.push(Done {
                id: s.req.id,
                admitted_tick: s.admitted_tick,
                outcome: UirOutcome {
                    confusion,
                    per_subspace_f1: s.per_subspace_f1,
                    online_seconds: s.online_seconds,
                    labels_used: cfg.budget(),
                    subspace_outcomes: s.outcomes,
                },
            });
        }
        self.active = still;
        self.queue.release(done.len());
        done
    }
}
