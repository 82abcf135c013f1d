//! Simulated-analyst sessions: behavior configs and their outcomes.
//!
//! The paper evaluates against perfectly steady oracles; real analysts
//! shift focus, mislabel, and abandon mid-session (Saha et al., see
//! PAPERS.md). [`BehaviorConfig`] says *how* an analyst behaves and
//! builds the session's [`crate::oracle::BehaviorOracle`], [`DriftSpec`]
//! says how their interest region moves, and [`BehavioralOutcome`] is
//! what a session reports. The serving engine (`lte-serve`) runs these
//! sessions round by round on the same tick as every other session.
//!
//! Determinism contract: with [`BehaviorConfig::steady`], a behavioral
//! session reproduces [`LtePipeline::explore`] exactly (same per-subspace
//! seed stream `derive_seed(seed, 2000 + i)`), so scenario results are
//! comparable to the static-oracle figures.

use crate::drift::DriftReport;
use crate::explore::ExploreOutcome;
use crate::metrics::ConfusionMatrix;
use crate::oracle::{BehaviorOracle, Cadence, ConjunctiveOracle};
use crate::pipeline::LtePipeline;
use lte_data::rng::{derive_seed, seeded};
use lte_data::table::Table;
use lte_geom::RegionUnion;

/// When a mid-session interest shift takes effect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftTrigger {
    /// At a fixed round index (0-based).
    AtRound(usize),
    /// At the given fraction of the session's total rounds (clamped to
    /// `[0, 1]`; e.g. `0.5` shifts halfway through).
    AtFraction(f64),
}

impl DriftTrigger {
    /// The concrete round the shift takes effect for a session of
    /// `total_rounds` rounds.
    pub fn resolve(&self, total_rounds: usize) -> usize {
        match self {
            DriftTrigger::AtRound(r) => *r,
            DriftTrigger::AtFraction(f) => {
                (f.clamp(0.0, 1.0) * total_rounds as f64).floor() as usize
            }
        }
    }
}

/// A mid-session interest-region shift: every per-subspace region is scaled
/// about its bounding-box center and translated by a fraction of its extent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSpec {
    /// When the shift takes effect.
    pub trigger: DriftTrigger,
    /// Translation per dimension as a fraction of the region's extent
    /// (`0.5` moves the region by half its own width).
    pub translate_frac: f64,
    /// Scale factor about the region center (`1.0` = unchanged shape).
    pub scale: f64,
}

impl DriftSpec {
    /// True when the transform is the identity. Noop specs short-circuit to
    /// a clone so shift magnitude `0.0` degenerates to the original truth
    /// *bitwise* (floating-point transforms would not round-trip exactly).
    pub fn is_noop(&self) -> bool {
        self.translate_frac == 0.0 && self.scale == 1.0
    }

    /// Apply the shift to one region.
    pub fn apply(&self, region: &RegionUnion) -> RegionUnion {
        if self.is_noop() {
            return region.clone();
        }
        let Some(bb) = region.aabb() else {
            return region.clone();
        };
        let offset: Vec<f64> = bb
            .lo()
            .iter()
            .zip(bb.hi())
            .map(|(lo, hi)| (hi - lo) * self.translate_frac)
            .collect();
        region
            .scale_about(&bb.center(), self.scale)
            .translate(&offset)
    }

    /// Apply the shift to every part of a conjunctive ground truth.
    pub fn shift_truth(&self, truth: &ConjunctiveOracle) -> ConjunctiveOracle {
        ConjunctiveOracle::new(
            truth
                .parts()
                .iter()
                .map(|(sub, region)| (sub.clone(), self.apply(region)))
                .collect(),
        )
    }
}

/// How one simulated analyst behaves across a session.
#[derive(Debug, Clone, PartialEq)]
pub struct BehaviorConfig {
    /// Per-label flip probability.
    pub noise: f64,
    /// Optional mid-session interest shift.
    pub drift: Option<DriftSpec>,
    /// Abandon before round `k` (0-based); `None` = finishes the session.
    pub abandon_after: Option<usize>,
    /// Round cadence (simulated think time).
    pub cadence: Cadence,
}

impl BehaviorConfig {
    /// The ideal analyst the static figures assume: no noise, no drift,
    /// finishes every round instantly. Behaviorally identical to
    /// [`LtePipeline::explore`].
    pub fn steady() -> Self {
        Self {
            noise: 0.0,
            drift: None,
            abandon_after: None,
            cadence: Cadence::instant(),
        }
    }

    /// An analyst whose interest shifts halfway through the session
    /// (moderate translation + slight widening) with light label noise.
    pub fn drifter() -> Self {
        Self {
            noise: 0.05,
            drift: Some(DriftSpec {
                trigger: DriftTrigger::AtFraction(0.5),
                translate_frac: 0.35,
                scale: 1.25,
            }),
            abandon_after: None,
            cadence: Cadence::Steady { think_seconds: 2.0 },
        }
    }

    /// A noisy analyst who abandons after the first round, labelling in
    /// fast bursts with long pauses.
    pub fn churner() -> Self {
        Self {
            noise: 0.15,
            drift: None,
            abandon_after: Some(1),
            cadence: Cadence::Bursty {
                burst_len: 2,
                within_seconds: 0.5,
                pause_seconds: 20.0,
            },
        }
    }

    /// Build the session's [`BehaviorOracle`] for a ground truth and
    /// session length.
    pub fn instantiate(
        &self,
        truth: ConjunctiveOracle,
        total_rounds: usize,
        seed: u64,
    ) -> BehaviorOracle {
        let mut analyst = BehaviorOracle::new(truth, seed)
            .with_noise(self.noise)
            .with_cadence(self.cadence.clone());
        if let Some(spec) = &self.drift {
            let at = spec.trigger.resolve(total_rounds);
            let shifted = spec.shift_truth(analyst.truth_at(0));
            analyst = analyst.with_shift(at, shifted);
        }
        if let Some(k) = self.abandon_after {
            analyst = analyst.with_abandonment(k);
        }
        analyst
    }
}

/// Result of one behavioral exploration session.
#[derive(Debug, Clone)]
pub struct BehavioralOutcome {
    /// Confusion of the conjunctive prediction (over the subspaces actually
    /// explored) against the truth the analyst *ended* the session with.
    pub confusion: ConfusionMatrix,
    /// Per-explored-subspace F1 against the truth in force that round.
    pub per_subspace_f1: Vec<f64>,
    /// Running conjunctive F1 after each round, against that round's truth.
    pub f1_by_round: Vec<f64>,
    /// Measured compute seconds (adaptation + prediction).
    pub online_seconds: f64,
    /// Simulated analyst think seconds (deterministic; never slept on).
    pub think_seconds: f64,
    /// Labels actually drawn from the analyst across all rounds.
    pub labels_used: usize,
    /// Rounds completed (`< total` when the analyst abandoned).
    pub rounds_run: usize,
    /// True when the analyst quit before exploring every subspace.
    pub abandoned: bool,
    /// True when the interest region shifted during an executed round.
    pub drifted: bool,
    /// Per-round exploration outcomes.
    pub subspace_outcomes: Vec<ExploreOutcome>,
}

impl BehavioralOutcome {
    /// Final conjunctive F1.
    pub fn f1(&self) -> f64 {
        self.confusion.f1()
    }

    /// First round (1-based count) after which the running F1 reached
    /// `threshold`, if any — the scenario layer's rounds-to-convergence.
    pub fn rounds_to_convergence(&self, threshold: f64) -> Option<usize> {
        self.f1_by_round
            .iter()
            .position(|&f| f >= threshold)
            .map(|i| i + 1)
    }
}

/// Probe every subspace context of a pipeline against (possibly updated)
/// table data — the `probe_drift`-triggered seam: a serving layer can run
/// this between rounds and rebuild whichever contexts report stale.
pub fn probe_session_drift(
    pipeline: &LtePipeline,
    table: &Table,
    fresh_n: usize,
    seed: u64,
) -> Vec<DriftReport> {
    pipeline
        .contexts()
        .iter()
        .enumerate()
        .map(|(i, ctx)| {
            crate::drift::probe_drift(
                ctx,
                table,
                fresh_n,
                &mut seeded(derive_seed(seed, i as u64)),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LteConfig;
    use lte_data::generator::generate_sdss;
    use lte_data::subspace::decompose_sequential;
    use lte_geom::Region;

    fn tiny_pipeline() -> (LtePipeline, Table) {
        let table = generate_sdss(3000, 0);
        let mut cfg = LteConfig::reduced();
        cfg.train.n_tasks = 60;
        cfg.train.epochs = 1;
        let subspaces = decompose_sequential(4, 2);
        let (p, _) = LtePipeline::offline(&table, subspaces, cfg, 11);
        (p, table)
    }

    fn square_union(x0: f64, y0: f64, x1: f64, y1: f64) -> RegionUnion {
        RegionUnion::new(vec![Region::Box(lte_geom::Aabb::new(
            vec![x0, y0],
            vec![x1, y1],
        ))])
    }

    #[test]
    fn trigger_resolution() {
        assert_eq!(DriftTrigger::AtRound(3).resolve(10), 3);
        assert_eq!(DriftTrigger::AtFraction(0.5).resolve(10), 5);
        assert_eq!(DriftTrigger::AtFraction(0.0).resolve(10), 0);
        assert_eq!(DriftTrigger::AtFraction(1.0).resolve(10), 10);
        assert_eq!(DriftTrigger::AtFraction(2.0).resolve(10), 10, "clamped");
    }

    #[test]
    fn noop_drift_is_bitwise_identity() {
        let region = square_union(0.25, 0.25, 0.75, 0.75);
        let spec = DriftSpec {
            trigger: DriftTrigger::AtRound(0),
            translate_frac: 0.0,
            scale: 1.0,
        };
        assert!(spec.is_noop());
        assert_eq!(spec.apply(&region), region);
    }

    #[test]
    fn drift_translates_by_extent_fraction() {
        let region = square_union(0.0, 0.0, 2.0, 2.0);
        let spec = DriftSpec {
            trigger: DriftTrigger::AtRound(0),
            translate_frac: 0.5,
            scale: 1.0,
        };
        let moved = spec.apply(&region);
        // Extent 2, half-extent translation: [1,3]×[1,3].
        assert!(moved.contains(&[1.5, 1.5]));
        assert!(moved.contains(&[2.9, 2.9]));
        assert!(!moved.contains(&[0.5, 0.5]));
    }

    #[test]
    fn rounds_to_convergence_reads_the_f1_trace() {
        let outcome = BehavioralOutcome {
            confusion: ConfusionMatrix::from_pairs(std::iter::empty::<(bool, bool)>()),
            per_subspace_f1: vec![],
            f1_by_round: vec![0.3, 0.6, 0.9],
            online_seconds: 0.0,
            think_seconds: 0.0,
            labels_used: 0,
            rounds_run: 3,
            abandoned: false,
            drifted: false,
            subspace_outcomes: vec![],
        };
        assert_eq!(outcome.rounds_to_convergence(0.5), Some(2));
        assert_eq!(outcome.rounds_to_convergence(0.95), None);
    }

    #[test]
    fn probe_session_drift_covers_every_subspace() {
        let (p, table) = tiny_pipeline();
        let reports = probe_session_drift(&p, &table, 300, 4);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(
                !r.is_stale(
                    crate::drift::DEFAULT_MAX_SHIFT,
                    crate::drift::DEFAULT_MAX_RATIO
                ),
                "unchanged data must not look stale: {r:?}"
            );
        }
    }
}
