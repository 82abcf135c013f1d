//! What every workload shares: the command line, the scale, set-up of an
//! online pipeline, the correctness ledger, the per-layer trace, the
//! replays through each layer's public calls, host facts, and the output.

use lte_core::classifier::ClassifierConfig;
use lte_core::config::{LteConfig, ScoringPrecision};
use lte_core::context::SubspaceContext;
use lte_core::explore::{finish_round, prepare_round, Variant};
use lte_core::feature::expansion_degree;
use lte_core::meta_learner::MetaLearner;
use lte_core::meta_task::generate_task_set;
use lte_core::metrics::ConfusionMatrix;
use lte_core::oracle::RegionOracle;
use lte_core::pipeline::{LtePipeline, OfflineReport, UirOutcome};
use lte_core::scorer::{ScoreRequest, Scorer};
use lte_core::uis::UisMode;
use lte_data::generator::generate_sdss;
use lte_data::rng::{derive_seed, seeded};
use lte_data::subspace::decompose_sequential;
use lte_data::table::Table;
use lte_serve::{percentile, SessionEngine, SessionRequest};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// SDSS attributes explored, cut into 2-D meta-subspaces (two subspaces).
pub const N_ATTRS: usize = 4;
/// Ground-truth regions: one convex hull over 20 nearest `Cu` centers
/// (the paper's convex mode at the reduced `ku`).
pub const MODE: UisMode = UisMode { alpha: 1, psi: 20 };
/// Per-subspace selectivity window of accepted ground-truth regions.
pub const MIN_SEL: f64 = 0.2;
/// See [`MIN_SEL`].
pub const MAX_SEL: f64 = 0.9;
/// Every session runs Meta*: adaptation, scoring and the geometric revision.
pub const VARIANT: Variant = Variant::MetaStar;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One analyst, closed loop, per-session engine.
    Interactive,
    /// 64 analysts in flight, closed loop, tick-fused service.
    Serve,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Replay through the layers and print per-layer metrics.
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own test.
    pub smoke: bool,
}

impl Args {
    /// One-line usage.
    pub const USAGE: &'static str = "usage: perfbench --workload <interactive|serve> \
                                     --seed <n> --seconds <s> --trace <0|1> [--smoke]";

    /// Parse the arguments after the program name.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
            (None, None, None, None, false);
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "interactive" => Workload::Interactive,
                        "serve" => Workload::Serve,
                        other => return Err(format!("unknown workload {other:?}")),
                    })
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            smoke,
        })
    }

    /// Input sizes for this run.
    pub fn scale(&self) -> Scale {
        if self.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        }
    }
}

/// Input sizes. The per-round shapes (`ku`, `ks`, `kq`, `Ne`, budget) are
/// always `LteConfig::reduced()`; only counts shrink under `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// SDSS rows generated.
    pub table_rows: usize,
    /// Retrieval-pool rows of `interactive`.
    pub interactive_pool: usize,
    /// Shared retrieval-pool rows of `serve`.
    pub serve_pool: usize,
    /// Analysts in flight on `serve` (also the admission capacity).
    pub analysts: usize,
    /// Distinct session requests, submitted in turn; `mean_f1` averages
    /// over them.
    pub distinct: usize,
    /// Meta-tasks and epochs of the light pipeline the workloads train in
    /// set-up (per-round cost depends on the shapes, not the training).
    pub light_train: (usize, usize),
}

impl Scale {
    /// The benchmark's scale.
    pub const FULL: Scale = Scale {
        table_rows: 20_000,
        interactive_pool: 1_500,
        serve_pool: 20_000,
        analysts: 64,
        distinct: 256,
        light_train: (30, 1),
    };

    /// A scale that runs every path in about a second.
    pub const SMOKE: Scale = Scale {
        table_rows: 3_000,
        interactive_pool: 300,
        serve_pool: 2_000,
        analysts: 8,
        distinct: 8,
        light_train: (20, 1),
    };
}

/// `LteConfig::reduced()` with a given training size and scoring precision.
pub fn config(train: (usize, usize), precision: ScoringPrecision) -> LteConfig {
    let mut cfg = LteConfig::reduced();
    cfg.task.mode = MODE;
    cfg.train.n_tasks = train.0;
    cfg.train.epochs = train.1;
    cfg.online.precision = precision;
    cfg
}

/// Seed of the data and of every pipeline. It is fixed, so pipeline
/// quality, `final_query_loss` and the work per round are the same in every
/// run; `--seed` draws what the analysts ask (see [`requests`]).
const DATA_SEED: u64 = 2023;

/// The SDSS table every workload draws from.
pub fn table(scale: &Scale) -> Table {
    generate_sdss(scale.table_rows, derive_seed(DATA_SEED, 1))
}

/// Seed of the offline phase.
pub const OFFLINE_SEED: u64 = DATA_SEED + 2;

/// A retrieval pool of full-space rows sampled from the table.
pub fn pool(table: &Table, rows: usize) -> Vec<Vec<f64>> {
    table
        .sample(&mut seeded(derive_seed(DATA_SEED, 3)), rows)
        .to_rows()
}

/// `n` session requests against a pipeline's subspaces: ground-truth
/// regions and session seeds drawn from the run's `seed`.
pub fn requests(pipeline: &Arc<LtePipeline>, n: usize, seed: u64) -> Vec<SessionRequest> {
    SessionEngine::with_workers(Arc::clone(pipeline), 1).simulate_requests(
        n,
        MODE,
        MIN_SEL,
        MAX_SEL,
        VARIANT,
        derive_seed(seed, 4),
    )
}

/// Everything an online workload sets up before it measures.
pub struct OnlineSetup {
    /// The SDSS table.
    pub table: Table,
    /// The light meta-trained pipeline.
    pub pipeline: Arc<LtePipeline>,
    /// Its offline report.
    pub report: OfflineReport,
    /// Seconds `LtePipeline::offline` took.
    pub offline_s: f64,
    /// The retrieval pool.
    pub pool: Vec<Vec<f64>>,
    /// The distinct session requests.
    pub requests: Vec<SessionRequest>,
}

impl OnlineSetup {
    /// Generate the table, meta-train the light pipeline, sample the pool
    /// and draw the requests from `seed`.
    pub fn build(scale: &Scale, seed: u64, pool_rows: usize, precision: ScoringPrecision) -> Self {
        let table = table(scale);
        let t0 = Instant::now();
        let (pipeline, report) = LtePipeline::offline(
            &table,
            decompose_sequential(N_ATTRS, 2),
            config(scale.light_train, precision),
            OFFLINE_SEED,
        );
        let offline_s = t0.elapsed().as_secs_f64();
        let pipeline = Arc::new(pipeline);
        let pool = pool(&table, pool_rows);
        let requests = requests(&pipeline, scale.distinct, seed);
        Self {
            table,
            pipeline,
            report,
            offline_s,
            pool,
            requests,
        }
    }

    /// The request submitted as the `k`-th session overall, tagged with
    /// `k`: the distinct requests in turn.
    pub fn request(&self, k: u64) -> SessionRequest {
        let mut req = self.requests[self.index(k)].clone();
        req.id = k;
        req
    }

    /// Which distinct request session `k` runs.
    pub fn index(&self, k: u64) -> usize {
        (k % self.requests.len() as u64) as usize
    }

    /// Whether session `k` is timed: it runs after the first pass over
    /// every distinct request, which warms up the loop.
    pub fn timed(&self, k: u64) -> bool {
        k >= self.requests.len() as u64
    }

    /// Whether a run that has completed `sessions` sessions has done its
    /// minimum: one untimed and one timed pass over the distinct requests.
    pub fn minimum_done(&self, sessions: usize) -> bool {
        sessions >= 2 * self.requests.len()
    }
}

/// Seconds measured between two set-ups: about 20 set-ups in a run, at
/// an eighth of its time or less.
const SETUP_EVERY: f64 = 2.0;

/// Set-ups repeated across a run: one before measuring, then one every
/// [`SETUP_EVERY`] seconds, while the first is still in use. Spread over
/// the run, they see the host as the sessions do; their median is
/// reported.
#[derive(Debug)]
pub struct Setups {
    /// Whole set-up, per repetition.
    pub setup_s: Vec<f64>,
    /// Its `LtePipeline::offline` call, per repetition.
    pub offline_s: Vec<f64>,
    losses: Option<Vec<u64>>,
    last: Instant,
    /// Peak RSS (MB) just before the first repeated set-up, which would
    /// otherwise add a second pipeline and pool to the figure.
    peak_rss_mb: Option<f64>,
}

impl Setups {
    /// No set-up yet.
    pub fn new() -> Self {
        Self {
            setup_s: Vec::new(),
            offline_s: Vec::new(),
            losses: None,
            last: Instant::now(),
            peak_rss_mb: None,
        }
    }

    /// Whether the next set-up is due.
    pub fn due(&self) -> bool {
        self.last.elapsed().as_secs_f64() >= SETUP_EVERY
    }

    /// Peak RSS (MB) of one set-up and the measured work on it: read
    /// before the first repetition, or now if none has run.
    pub fn peak_rss_mb(&self) -> f64 {
        self.peak_rss_mb.unwrap_or_else(peak_rss_mb)
    }

    /// Time one set-up.
    pub fn time<T>(&mut self, build: impl FnOnce() -> T) -> T {
        if !self.setup_s.is_empty() && self.peak_rss_mb.is_none() {
            self.peak_rss_mb = Some(peak_rss_mb());
        }
        let t0 = Instant::now();
        let built = build();
        self.setup_s.push(t0.elapsed().as_secs_f64());
        self.last = Instant::now();
        built
    }

    /// Time one online set-up, and check that it reproduces the first
    /// one's offline losses bit for bit. `scale` turns its times into
    /// times at the reference speed (see [`Speed`]).
    pub fn online<T>(
        &mut self,
        ledger: &mut Ledger,
        scale: f64,
        build: impl FnOnce() -> T,
        online: impl Fn(&T) -> &OnlineSetup,
    ) -> T {
        let built = self.time(build);
        if let Some(last) = self.setup_s.last_mut() {
            *last *= scale;
        }
        let s = online(&built);
        self.offline_s.push(s.offline_s * scale);
        let losses = bits(&s.report.final_query_loss);
        let want = self.losses.get_or_insert_with(|| losses.clone());
        ledger.check(losses == *want, || "set-up is not reproducible".into());
        built
    }
}

/// The timed sessions: every one's latency, and the wall time in which
/// they completed, set-ups left out, both at the reference speed (see
/// [`Speed`]).
#[derive(Debug, Default)]
pub struct Latencies {
    /// Latency of each timed session, in seconds.
    pub secs: Vec<f64>,
    /// Wall seconds of the timed part of the run.
    pub wall: f64,
    /// Latency of each timed session as the wall clock read it, unscaled.
    pub raw: Vec<f64>,
}

/// Seconds [`reference_work`] takes at the reference speed.
pub const REFERENCE_S: f64 = 5e-4;

/// Samples of [`reference_work`] that [`Speed::scale`] takes the median of.
const SPEED_WINDOW: usize = 16;

/// The speed the host gives the benchmark now. A shared host runs the
/// benchmark's vCPUs slower for seconds to minutes at a time (other guests
/// on the same cores, clock frequency), with no steal time to show for it,
/// and every wall-clock timing follows. Timing a fixed piece of the
/// benchmark's own arithmetic between sessions tracks that speed; a timing
/// times [`REFERENCE_S`] over the work's recent median is the time at the
/// reference speed. The work is in the benchmark, not in the program, so a
/// change to the program does not move it.
#[derive(Debug, Default)]
pub struct Speed {
    recent: Vec<f64>,
    next: usize,
    /// Every scale handed out, for the settings line.
    scales: Vec<f64>,
}

impl Speed {
    /// Time the reference work once.
    pub fn sample(&mut self) {
        let s = reference_work();
        if self.recent.len() < SPEED_WINDOW {
            self.recent.push(s);
        } else {
            self.recent[self.next] = s;
        }
        self.next = (self.next + 1) % SPEED_WINDOW;
    }

    /// The factor that turns seconds measured now into seconds at the
    /// reference speed.
    pub fn scale(&mut self) -> f64 {
        while self.recent.len() < SPEED_WINDOW {
            self.sample();
        }
        let scale = REFERENCE_S / median(&self.recent);
        self.scales.push(scale);
        scale
    }

    /// The median scale of the run.
    pub fn median_scale(&self) -> f64 {
        median(&self.scales)
    }
}

/// A fixed `f64` matrix product, timed: the host-speed probe of [`Speed`].
/// Its three 32×32 matrices stay in L1.
pub fn reference_work() -> f64 {
    const N: usize = 32;
    const REPS: usize = 10;
    let a: Vec<f64> = (0..N * N).map(|i| (i % 7) as f64 * 0.25 - 0.75).collect();
    let mut c = vec![0.0; N * N];
    let t0 = Instant::now();
    for _ in 0..REPS {
        let b = std::hint::black_box(&a);
        c.iter_mut().for_each(|x| *x = 0.0);
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
        std::hint::black_box(&mut c);
    }
    t0.elapsed().as_secs_f64()
}

/// Mean of a pipeline's per-subspace final query losses.
pub fn mean_loss(report: &OfflineReport) -> f64 {
    mean(&report.final_query_loss)
}

/// Bit patterns of a float slice, for exact comparison.
pub fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// A hash of every output of a session that must not change: the
/// confusion matrix, labels used, and per subspace every logit's bits,
/// every prediction and the `Cs` labels. Timing fields are left out.
pub fn digest(o: &UirOutcome) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    let c = o.confusion;
    for x in [c.tp, c.fp, c.fn_, c.tn, o.labels_used] {
        mix(x as u64);
    }
    for sub in &o.subspace_outcomes {
        sub.scores.iter().for_each(|s| mix(s.to_bits()));
        sub.predictions.iter().for_each(|&p| mix(p as u64));
        sub.cs_labels.iter().for_each(|&l| mix(l as u64 + 2));
        mix(sub.labels_used as u64);
    }
    h
}

/// Counts checked outputs and mismatches; a mismatch fails the run.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that did not match their reference.
    pub failed: u64,
}

impl Ledger {
    /// Record one check; report a failure on standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: mismatch: {}", what());
        }
    }

    /// Add another ledger's checks.
    pub fn merge(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Check session `id`, a run of distinct request `index`: it used its
    /// budget and its outputs equal the first run of that request, whose
    /// digest and F1 `firsts[index]` keeps.
    pub fn check_session(
        &mut self,
        firsts: &mut [Option<(u64, f64)>],
        index: usize,
        id: u64,
        o: &UirOutcome,
        budget: usize,
    ) {
        let d = digest(o);
        let slot = &mut firsts[index];
        let reference = *slot.get_or_insert((d, o.f1()));
        self.check(o.labels_used == budget && reference.0 == d, || {
            format!(
                "session {id}: labels {} (budget {budget}), digest {d:x} vs {:x}",
                o.labels_used, reference.0
            )
        });
    }
}

/// Mean F1 over the first run of every distinct request.
pub fn mean_f1(firsts: &[Option<(u64, f64)>]) -> f64 {
    let f1s: Vec<f64> = firsts.iter().flatten().map(|&(_, f1)| f1).collect();
    assert_eq!(f1s.len(), firsts.len(), "every distinct request ran");
    mean(&f1s)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median (nearest rank, 0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The highest percentile of a fixed ladder with at least ten samples
/// beyond it, and its value; the median when no rung has ten.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in [99.9, 99.0, 95.0, 90.0, 75.0] {
        let rank = ((p * n as f64) / 100.0).ceil() as usize;
        if n >= rank + 10 {
            return (p, percentile(&v, p));
        }
    }
    (50.0, percentile(&v, 50.0))
}

/// One layer's account in a traced replay.
#[derive(Debug, Default)]
pub struct Layer {
    /// Wall seconds inside the layer's calls (the fan-out's wall for a
    /// parallel phase).
    pub busy: f64,
    /// Calls (jobs, for a parallel phase).
    pub calls: u64,
    /// Rows (or tasks) the calls processed.
    pub rows: u64,
    /// Seconds of each call or job.
    pub each: Vec<f64>,
}

impl Layer {
    /// Time one serial call.
    pub fn time<T>(&mut self, rows: usize, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(t0.elapsed().as_secs_f64(), rows);
        out
    }

    /// Account one serial call.
    pub fn add(&mut self, secs: f64, rows: usize) {
        self.busy += secs;
        self.calls += 1;
        self.rows += rows as u64;
        self.each.push(secs);
    }

    /// Account one parallel phase: its wall time and each job's time.
    pub fn phase(&mut self, wall: f64, jobs: &[f64], rows: usize) {
        self.busy += wall;
        self.calls += jobs.len() as u64;
        self.rows += rows as u64;
        self.each.extend_from_slice(jobs);
    }
}

/// The per-layer account of a traced run.
#[derive(Debug, Default)]
pub struct Trace {
    /// `LtePipeline::encode_pool`.
    pub encode: Layer,
    /// `explore::prepare_round`.
    pub prepare: Layer,
    /// `Scorer::score` / `scorer::score_fused_with`.
    pub score: Layer,
    /// `explore::finish_round`.
    pub finish: Layer,
    /// `SubspaceContext::build`.
    pub context: Layer,
    /// `meta_task::generate_task_set` (rows = tasks).
    pub task_gen: Layer,
    /// `MetaLearner::new` + `MetaLearner::train` (rows = task visits, one
    /// task in one epoch).
    pub meta_train: Layer,
    /// Scoring floating-point operations, computed from the shapes.
    pub score_flops: f64,
    /// Scoring bytes moved, computed from the shapes.
    pub score_bytes: f64,
    /// Job seconds inside `parallel::parallel_map` fan-outs.
    pub parallel_busy: f64,
    /// Wall seconds × workers of those fan-outs.
    pub parallel_capacity: f64,
    /// Wall seconds of each `ScoringService::tick` in the untraced pass.
    pub ticks: Vec<f64>,
    /// Seconds from submission to the start of the admitting tick.
    pub admission_wait: Vec<f64>,
    /// High-water mark of the parked queue.
    pub peak_parked: usize,
    /// Wall seconds of the traced replay.
    pub replay_wall: f64,
    /// Wall seconds of the same work untraced.
    pub untraced_wall: f64,
}

impl Trace {
    /// Account one scoring call of `rows` rows on a classifier shape.
    pub fn score_shape(
        &mut self,
        arch: &ClassifierConfig,
        precision: ScoringPrecision,
        rows: usize,
    ) {
        let (flops, bytes) = score_cost(arch, precision);
        self.score_flops += flops * rows as f64;
        self.score_bytes += bytes * rows as f64;
    }

    /// Account one `parallel_map` fan-out: its wall time and each job's.
    pub fn fan_out(&mut self, wall: f64, jobs: &[f64], workers: usize) {
        self.parallel_busy += jobs.iter().sum::<f64>();
        self.parallel_capacity += wall * workers.clamp(1, jobs.len().max(1)) as f64;
    }

    /// For a replay on one worker: its capacity is the replay's wall time,
    /// of which the layers' calls are the busy part.
    pub fn single_worker(&mut self) {
        self.parallel_busy = self.layers().iter().map(|l| l.busy).sum();
        self.parallel_capacity = self.replay_wall;
    }

    fn layers(&self) -> [&Layer; 7] {
        [
            &self.encode,
            &self.prepare,
            &self.score,
            &self.finish,
            &self.context,
            &self.task_gen,
            &self.meta_train,
        ]
    }

    /// Every per-layer metric.
    pub fn metrics(&self) -> Vec<Metric> {
        let ms = |s: f64| s * 1e3;
        let per = |a: f64, b: u64| if b == 0 { 0.0 } else { a / b as f64 };
        let covered: f64 = self.layers().iter().map(|l| l.busy).sum();
        let tick_layers = self.prepare.busy + self.score.busy + self.finish.busy;
        let (tick_p50, tick_self) = if self.ticks.is_empty() {
            (0.0, 0.0)
        } else {
            let total: f64 = self.ticks.iter().sum();
            (
                median(&self.ticks),
                (total - tick_layers) / self.ticks.len() as f64,
            )
        };
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("encode.rows", self.encode.rows as f64, "count"),
            m("encode.busy_ms", ms(self.encode.busy), "ms"),
            m("prepare.calls", self.prepare.calls as f64, "count"),
            m("prepare.busy_ms", ms(self.prepare.busy), "ms"),
            m("prepare.p50_us", median(&self.prepare.each) * 1e6, "us"),
            m("score.rows", self.score.rows as f64, "count"),
            m("score.busy_ms", ms(self.score.busy), "ms"),
            m(
                "score.ns_per_row",
                per(self.score.busy * 1e9, self.score.rows),
                "ns",
            ),
            m(
                "score.gflops",
                self.score_flops / self.score.busy.max(1e-12) / 1e9,
                "GFLOP/s",
            ),
            m(
                "score.bytes_per_row",
                per(self.score_bytes, self.score.rows),
                "B",
            ),
            m(
                "score.fused_rows_mean",
                per(self.score.rows as f64, self.score.calls),
                "count",
            ),
            m("finish.rows", self.finish.rows as f64, "count"),
            m("finish.busy_ms", ms(self.finish.busy), "ms"),
            m("tick.count", self.ticks.len() as f64, "count"),
            m("tick.p50_ms", ms(tick_p50), "ms"),
            m("tick.self_ms", ms(tick_self), "ms"),
            m("admission.wait_ms", ms(mean(&self.admission_wait)), "ms"),
            m("admission.peak_parked", self.peak_parked as f64, "count"),
            m(
                "parallel.utilization",
                self.parallel_busy / self.parallel_capacity.max(1e-12),
                "ratio",
            ),
            m("context.busy_ms", ms(self.context.busy), "ms"),
            m("task_gen.busy_ms", ms(self.task_gen.busy), "ms"),
            m("task_gen.tasks", self.task_gen.rows as f64, "count"),
            m("meta_train.busy_ms", ms(self.meta_train.busy), "ms"),
            m(
                "meta_train.us_per_task_step",
                per(self.meta_train.busy * 1e6, self.meta_train.rows),
                "us",
            ),
            m("other.busy_ms", ms(self.replay_wall - covered), "ms"),
            m(
                "trace.overhead_frac",
                self.replay_wall / self.untraced_wall - 1.0,
                "ratio",
            ),
        ]
    }
}

/// Floating-point operations and bytes moved to score one pool row,
/// **computed** from the classifier shapes (not measured): the tuple
/// embedding (`nr × Ne`), the conversion's pool-dependent half (`Ne × Ne`)
/// when present, and the classification block (`clf_in × hidden × 1`).
/// Bytes count reading the encoded `f64` row (plus writing and reading its
/// `f32` copy under `Fast`), writing and reading each intermediate
/// activation once, and writing the `f64` logit; weights are amortized
/// over a block and left out.
pub fn score_cost(arch: &ClassifierConfig, precision: ScoringPrecision) -> (f64, f64) {
    let (nr, ne, hidden) = (arch.nr as f64, arch.ne as f64, arch.clf_hidden as f64);
    let clf_in = arch.clf_input() as f64;
    let conversion = if arch.use_conversion { ne * ne } else { 0.0 };
    let flops = 2.0 * (nr * ne + conversion + clf_in * hidden + hidden);
    let (elem, demote) = match precision {
        ScoringPrecision::Exact => (8.0, 0.0),
        _ => (4.0, 8.0 * nr),
    };
    let bytes = 8.0 * nr + demote + 2.0 * elem * (ne + clf_in + hidden) + elem + 8.0;
    (flops, bytes)
}

/// Replay `LtePipeline::offline` through its layers' public calls, in its
/// order and with its seeds. Returns the pipeline and the per-subspace
/// final query losses.
pub fn replay_offline(
    table: &Table,
    cfg: &LteConfig,
    seed: u64,
    trace: &mut Trace,
) -> (LtePipeline, Vec<f64>) {
    let subspaces = decompose_sequential(N_ATTRS, 2);
    let (mut contexts, mut learners, mut losses) = (Vec::new(), Vec::new(), Vec::new());
    for (i, sub) in subspaces.iter().enumerate() {
        let sub_seed = derive_seed(seed, i as u64);
        let ctx = trace.context.time(0, || {
            SubspaceContext::build(table, sub.clone(), &cfg.task, &cfg.encoder, sub_seed)
        });
        let l = expansion_degree(cfg.task.ku, cfg.net.expansion_frac);
        let n = cfg.train.n_tasks;
        let tasks = trace.task_gen.time(n, || {
            generate_task_set(&ctx, &cfg.task, l, n, &mut seeded(derive_seed(sub_seed, 1)))
        });
        let (learner, report) = trace.meta_train.time(tasks.len() * cfg.train.epochs, || {
            let mut learner = MetaLearner::new(
                cfg.task.ku.min(ctx.cu().len()),
                ctx.feature_width(),
                &cfg.net,
                cfg.train.clone(),
                derive_seed(sub_seed, 2),
            );
            let report = learner.train(&tasks);
            (learner, report)
        });
        losses.push(report.epoch_query_loss.last().copied().unwrap_or(f64::NAN));
        contexts.push(ctx);
        learners.push(learner);
    }
    (
        LtePipeline::from_parts(cfg.clone(), subspaces, contexts, learners),
        losses,
    )
}

/// Replay one session of the per-session engine (`LtePipeline::explore`)
/// through its layers' public calls: encode the pool, then per subspace
/// prepare, score and finish, then conjoin.
pub fn replay_session(
    pipeline: &LtePipeline,
    req: &SessionRequest,
    rows: &[Vec<f64>],
    trace: &mut Trace,
) -> UirOutcome {
    let cfg = pipeline.config();
    let precision = cfg.online.precision;
    let n_sub = pipeline.subspaces().len();
    let pool = trace
        .encode
        .time(rows.len() * n_sub, || pipeline.encode_pool(rows));
    let mut uir_pred = vec![true; rows.len()];
    let (mut per_subspace_f1, mut outcomes, mut online_seconds) = (Vec::new(), Vec::new(), 0.0);
    for (i, ctx) in pipeline.contexts().iter().enumerate() {
        let (_, region) = &req.truth.parts()[i];
        let oracle = RegionOracle::new(region.clone());
        let learner = Some(&pipeline.learners()[i]).filter(|_| req.variant != Variant::Basic);
        let seed = derive_seed(req.seed, 2000 + i as u64);
        let prepared = trace.prepare.time(0, || {
            prepare_round(ctx, learner, &oracle, cfg, req.variant, seed)
        });
        let t0 = Instant::now();
        let scores = prepared.classifier.score(&ScoreRequest::new(
            &prepared.v_r,
            pool.encoded(i),
            precision,
        ));
        let score_s = t0.elapsed().as_secs_f64();
        trace.score.add(score_s, rows.len());
        trace.score_shape(prepared.classifier.config(), precision, rows.len());
        let outcome = trace.finish.time(rows.len(), || {
            finish_round(
                ctx,
                prepared,
                pool.proj(i),
                scores,
                cfg,
                req.variant,
                score_s,
            )
        });
        per_subspace_f1.push(
            ConfusionMatrix::from_pairs(
                outcome
                    .predictions
                    .iter()
                    .zip(pool.proj(i))
                    .map(|(&p, row)| (p, region.contains(row))),
            )
            .f1(),
        );
        for (p, &s) in uir_pred.iter_mut().zip(&outcome.predictions) {
            *p &= s;
        }
        online_seconds += outcome.online_seconds;
        outcomes.push(outcome);
    }
    UirOutcome {
        confusion: ConfusionMatrix::from_pairs(
            uir_pred
                .iter()
                .zip(rows)
                .map(|(&p, row)| (p, req.truth.label(row))),
        ),
        per_subspace_f1,
        online_seconds,
        labels_used: cfg.budget(),
        subspace_outcomes: outcomes,
    }
}

/// One metric as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug)]
pub struct Run {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that did not match.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Workload settings recorded with the result.
    pub settings: Vec<(&'static str, String)>,
}

impl Run {
    /// The end-to-end metrics shared by every workload. The session
    /// metrics cover every timed session: `sessions_per_s` is how many
    /// completed over the timed wall time. `offline_s` and `setup_s` report
    /// the median repetition.
    pub fn end_to_end(
        ledger: Ledger,
        latencies: &Latencies,
        speed: &Speed,
        mean_f1: f64,
        setups: &Setups,
        final_query_loss: f64,
        mut settings: Vec<(&'static str, String)>,
    ) -> Self {
        let sessions = &latencies.secs;
        let (tail_p, tail_v) = tail(sessions);
        settings.extend([
            ("reference_s", REFERENCE_S.to_string()),
            ("speed_scale_median", speed.median_scale().to_string()),
            (
                "session_p50_unscaled_ms",
                (median(&latencies.raw) * 1e3).to_string(),
            ),
            ("timed_sessions", sessions.len().to_string()),
            ("timed_wall_s", latencies.wall.to_string()),
            ("session_tail_percentile", format!("p{tail_p}")),
            ("setup_reps", setups.setup_s.len().to_string()),
        ]);
        let m = |name, value, unit| Metric { name, value, unit };
        Self {
            attempted: ledger.attempted,
            failed: ledger.failed,
            metrics: vec![
                m(
                    "sessions_per_s",
                    sessions.len() as f64 / latencies.wall,
                    "1/s",
                ),
                m("session_p50_ms", median(sessions) * 1e3, "ms"),
                m("session_tail_ms", tail_v * 1e3, "ms"),
                m("mean_f1", mean_f1, "ratio"),
                m("offline_s", median(&setups.offline_s), "s"),
                m("final_query_loss", final_query_loss, "nats"),
                m("setup_s", median(&setups.setup_s), "s"),
                m("peak_rss_mb", setups.peak_rss_mb(), "MB"),
            ],
            settings,
        }
    }

    /// A traced run's result.
    pub fn traced(ledger: Ledger, trace: &Trace, settings: Vec<(&'static str, String)>) -> Self {
        Self {
            attempted: ledger.attempted,
            failed: ledger.failed,
            metrics: trace.metrics(),
            settings,
        }
    }

    /// The result line.
    pub fn result_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// The host and settings line printed before the result.
    pub fn settings_json(&self, args: &Args) -> String {
        let mut fields: Vec<(&str, String)> = vec![
            ("workload", format!("{:?}", args.workload).to_lowercase()),
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("trace", args.trace.to_string()),
            ("smoke", args.smoke.to_string()),
            ("nproc", lte_core::parallel::default_threads().to_string()),
            ("cpu_features", lte_nn::cpu_features()),
            ("kernel", lte_nn::matrix32::KernelKind::detect().to_string()),
            ("cpuid_flags", cpuid_flags()),
            (
                "failed_frac",
                (self.failed as f64 / self.attempted.max(1) as f64).to_string(),
            ),
        ];
        fields.extend(self.settings.iter().map(|(k, v)| (*k, v.clone())));
        let body: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
            .collect();
        format!("{{\"settings\": {{{}}}}}", body.join(", "))
    }
}

/// Peak resident set size of this program in MB: `VmHWM` of
/// `/proc/self/status`. Unlike `ru_maxrss`, it starts afresh at `exec`,
/// so it leaves out `cargo run`, which execs into the benchmark. Reads 0
/// where the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Matrix extensions the scoring kernels do not probe for
/// (`lte_nn::cpu_features` misses them), read from CPUID leaf 7.
pub fn cpuid_flags() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{__cpuid, __cpuid_count};
        // SAFETY: CPUID exists on every x86-64 CPU, and leaf 7 is read
        // only when leaf 0 reports it.
        #[allow(unused_unsafe)]
        let (l7, l7s1) = unsafe {
            if __cpuid(0).eax < 7 {
                return String::new();
            }
            (__cpuid_count(7, 0), __cpuid_count(7, 1))
        };
        let mut flags = Vec::new();
        for (set, bit, name) in [
            (l7.ecx, 11, "avx512_vnni"),
            (l7s1.eax, 4, "avx_vnni"),
            (l7.edx, 22, "amx_bf16"),
            (l7.edx, 24, "amx_tile"),
            (l7.edx, 25, "amx_int8"),
        ] {
            if set >> bit & 1 == 1 {
                flags.push(name);
            }
        }
        flags.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        String::new()
    }
}
