//! Simulated users: ground-truth labelling oracles.
//!
//! Collecting real labelling feedback is human-computer interaction and out
//! of the paper's scope (§III footnote 5); its evaluation labels tuples
//! against synthetic ground-truth regions generated the same way as
//! meta-task UISs (§VIII-B/C). [`RegionOracle`] wraps one such region for a
//! subspace; [`ConjunctiveOracle`] combines per-subspace regions into the
//! full-space UIR, `Ru = ∧ Ri`.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use lte_data::rng::{derive_seed, unit_from};
use lte_data::subspace::Subspace;
use lte_geom::RegionUnion;

/// Labels subspace rows as interesting / not interesting.
pub trait SubspaceOracle {
    /// True when the (raw, un-encoded) subspace row is interesting.
    fn label(&self, row: &[f64]) -> bool;
}

/// Ground-truth oracle backed by a region union.
#[derive(Debug, Clone)]
pub struct RegionOracle {
    region: RegionUnion,
}

impl RegionOracle {
    /// Wrap a ground-truth region.
    pub fn new(region: RegionUnion) -> Self {
        Self { region }
    }

    /// The wrapped region.
    pub fn region(&self) -> &RegionUnion {
        &self.region
    }
}

impl SubspaceOracle for RegionOracle {
    fn label(&self, row: &[f64]) -> bool {
        self.region.contains(row)
    }
}

/// Closure-backed oracle for tests and custom ground truths.
pub struct FnOracle<F: Fn(&[f64]) -> bool>(pub F);

impl<F: Fn(&[f64]) -> bool> SubspaceOracle for FnOracle<F> {
    fn label(&self, row: &[f64]) -> bool {
        (self.0)(row)
    }
}

/// Full-space oracle: a tuple is interesting iff *every* subspace projection
/// falls inside its ground-truth region (the conjunctivity of §III-A).
#[derive(Debug, Clone)]
pub struct ConjunctiveOracle {
    parts: Vec<(Subspace, RegionUnion)>,
}

impl ConjunctiveOracle {
    /// Combine per-subspace ground-truth regions.
    pub fn new(parts: Vec<(Subspace, RegionUnion)>) -> Self {
        Self { parts }
    }

    /// The per-subspace parts.
    pub fn parts(&self) -> &[(Subspace, RegionUnion)] {
        &self.parts
    }

    /// Label a full-space row.
    pub fn label(&self, row: &[f64]) -> bool {
        self.parts
            .iter()
            .all(|(sub, region)| region.contains(&sub.project_row(row)))
    }

    /// Fraction of interesting rows in a pool (UIR selectivity). Accepts
    /// any row representation (`Vec<f64>`, `&[f64]`, …) so callers can
    /// score borrowed pool rows without cloning.
    pub fn selectivity<R: AsRef<[f64]>>(&self, rows: &[R]) -> f64 {
        if rows.is_empty() {
            return 0.0;
        }
        rows.iter().filter(|r| self.label(r.as_ref())).count() as f64 / rows.len() as f64
    }
}

/// A [`SubspaceOracle`] that flips each answer independently with
/// probability `noise` — the paper's noisy-analyst ablation surface.
///
/// Noise is **counter-based**: the n-th label drawn from this oracle flips
/// iff `unit_from(derive_seed(seed, n)) < noise`, so a given (seed, noise)
/// pair produces one reproducible mislabel pattern regardless of thread
/// count, and `noise == 0.0` is *exactly* the wrapped oracle.
pub struct NoisyOracle<O: SubspaceOracle> {
    inner: O,
    noise: f64,
    seed: u64,
    count: Cell<u64>,
}

impl<O: SubspaceOracle> NoisyOracle<O> {
    /// Wrap `inner`, flipping each label with probability `noise`
    /// (clamped to `[0, 1]`).
    pub fn new(inner: O, noise: f64, seed: u64) -> Self {
        Self {
            inner,
            noise: noise.clamp(0.0, 1.0),
            seed,
            count: Cell::new(0),
        }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Number of labels drawn so far.
    pub fn labels_emitted(&self) -> u64 {
        self.count.get()
    }
}

impl<O: SubspaceOracle> SubspaceOracle for NoisyOracle<O> {
    fn label(&self, row: &[f64]) -> bool {
        let n = self.count.get();
        self.count.set(n + 1);
        let truth = self.inner.label(row);
        if self.noise > 0.0 && unit_from(derive_seed(self.seed, n)) < self.noise {
            !truth
        } else {
            truth
        }
    }
}

/// How fast a simulated analyst answers labelling rounds.
///
/// Produces *simulated* think time — the scenario layer reports it
/// separately from measured compute latency and never sleeps on it.
#[derive(Debug, Clone, PartialEq)]
pub enum Cadence {
    /// Same mean pause before every round.
    Steady {
        /// Mean seconds between rounds.
        think_seconds: f64,
    },
    /// Fast bursts separated by long pauses (Saha et al.'s punctuated
    /// exploration pattern).
    Bursty {
        /// Rounds answered per burst.
        burst_len: usize,
        /// Mean seconds between rounds inside a burst.
        within_seconds: f64,
        /// Mean seconds of the pause that precedes each new burst.
        pause_seconds: f64,
    },
}

impl Cadence {
    /// Instant responses (no think time at all).
    pub fn instant() -> Self {
        Cadence::Steady { think_seconds: 0.0 }
    }

    /// Simulated seconds the analyst thinks before `round` (0-based).
    ///
    /// Deterministic in `(self, round, seed)`: the mean is jittered by a
    /// ±25% factor drawn counter-style from the seed. A zero mean stays
    /// exactly `0.0`.
    pub fn think_before_round(&self, round: usize, seed: u64) -> f64 {
        let mean = match self {
            Cadence::Steady { think_seconds } => *think_seconds,
            Cadence::Bursty {
                burst_len,
                within_seconds,
                pause_seconds,
            } => {
                if *burst_len > 0 && round > 0 && round.is_multiple_of(*burst_len) {
                    *pause_seconds
                } else {
                    *within_seconds
                }
            }
        };
        if mean == 0.0 {
            0.0
        } else {
            mean * (0.75 + 0.5 * unit_from(derive_seed(seed, round as u64)))
        }
    }
}

/// A simulated analyst wrapped around a [`ConjunctiveOracle`] ground truth.
///
/// Composes the behaviors the scenario layer mixes into traffic: an
/// interest-region **shift** (the truth is swapped for a transformed one
/// from a given round onward), per-label **noise**, **abandonment** (the
/// session truncates before round `k`), and a round **cadence**. All
/// stochastic choices are counter-based off `seed`, so a session replays
/// bit-identically on any worker count.
///
/// Round bookkeeping uses interior mutability (atomics) so the oracle can
/// be driven through the `&self`-based [`SubspaceOracle`] seam; construct
/// one per session. It is `Sync`, so a serving engine can run a session's
/// round on any worker, but its label stream is deterministic only while
/// one thread at a time draws labels from it.
pub struct BehaviorOracle {
    initial: ConjunctiveOracle,
    shifted: Option<(usize, ConjunctiveOracle)>,
    noise: f64,
    abandon_after: Option<usize>,
    cadence: Cadence,
    seed: u64,
    // `Relaxed` suffices: both counters publish no other data, and the
    // threads that take turns driving a session synchronise through the
    // engine's own joins.
    round: AtomicUsize,
    labels: AtomicU64,
}

impl BehaviorOracle {
    /// A perfectly steady analyst for `truth` (no shift / noise /
    /// abandonment, instant cadence).
    pub fn new(truth: ConjunctiveOracle, seed: u64) -> Self {
        Self {
            initial: truth,
            shifted: None,
            noise: 0.0,
            abandon_after: None,
            cadence: Cadence::instant(),
            seed,
            round: AtomicUsize::new(0),
            labels: AtomicU64::new(0),
        }
    }

    /// Swap the ground truth for `shifted` from round `at_round` onward
    /// (0-based): the analyst's interest moves mid-session.
    pub fn with_shift(mut self, at_round: usize, shifted: ConjunctiveOracle) -> Self {
        self.shifted = Some((at_round, shifted));
        self
    }

    /// Flip each emitted label with probability `noise` (clamped to
    /// `[0, 1]`).
    pub fn with_noise(mut self, noise: f64) -> Self {
        self.noise = noise.clamp(0.0, 1.0);
        self
    }

    /// Abandon the session before round `k` (0-based): rounds `0..k` run,
    /// round `k` and later refuse to start.
    pub fn with_abandonment(mut self, k: usize) -> Self {
        self.abandon_after = Some(k);
        self
    }

    /// Set the round cadence.
    pub fn with_cadence(mut self, cadence: Cadence) -> Self {
        self.cadence = cadence;
        self
    }

    /// Start round `round` (0-based). Returns `false` when the analyst has
    /// abandoned the session — no labels may be drawn for this round.
    pub fn begin_round(&self, round: usize) -> bool {
        self.round.store(round, Ordering::Relaxed);
        self.abandon_after.is_none_or(|k| round < k)
    }

    /// Ground truth in effect at `round`.
    pub fn truth_at(&self, round: usize) -> &ConjunctiveOracle {
        match &self.shifted {
            Some((at, truth)) if round >= *at => truth,
            _ => &self.initial,
        }
    }

    /// Ground truth in effect for the round last passed to
    /// [`Self::begin_round`].
    pub fn current_truth(&self) -> &ConjunctiveOracle {
        self.truth_at(self.round.load(Ordering::Relaxed))
    }

    /// Ground truth the analyst ends the session with (what final accuracy
    /// should be measured against).
    pub fn final_truth(&self, total_rounds: usize) -> &ConjunctiveOracle {
        self.truth_at(total_rounds.saturating_sub(1))
    }

    /// True when a shift is configured and the current round has reached it.
    pub fn has_drifted(&self) -> bool {
        matches!(&self.shifted, Some((at, _)) if self.round.load(Ordering::Relaxed) >= *at)
    }

    /// True when a shift is configured at all.
    pub fn shift_configured(&self) -> bool {
        self.shifted.is_some()
    }

    /// The round the configured shift takes effect, if any.
    pub fn shift_round(&self) -> Option<usize> {
        self.shifted.as_ref().map(|(at, _)| *at)
    }

    /// Round the analyst abandons before, if any.
    pub fn abandon_after(&self) -> Option<usize> {
        self.abandon_after
    }

    /// Total labels emitted across all rounds so far.
    pub fn labels_emitted(&self) -> u64 {
        self.labels.load(Ordering::Relaxed)
    }

    /// Simulated think time before `round` (see
    /// [`Cadence::think_before_round`]).
    pub fn think_before_round(&self, round: usize) -> f64 {
        self.cadence
            .think_before_round(round, derive_seed(self.seed, 500))
    }

    /// Label a full-space row against the current truth (with noise).
    pub fn label_full(&self, row: &[f64]) -> bool {
        let truth = self.current_truth().label(row);
        self.apply_noise(truth)
    }

    /// A [`SubspaceOracle`] view onto part `part` of the conjunction, for
    /// feeding one subspace's exploration round. Labels drawn through the
    /// view share this oracle's noise stream and label counter.
    pub fn subspace_view(&self, part: usize) -> BehaviorSubspaceView<'_> {
        BehaviorSubspaceView { oracle: self, part }
    }

    fn apply_noise(&self, truth: bool) -> bool {
        let n = self.labels.fetch_add(1, Ordering::Relaxed);
        if self.noise > 0.0 && unit_from(derive_seed(derive_seed(self.seed, 777), n)) < self.noise {
            !truth
        } else {
            truth
        }
    }
}

/// One-subspace view of a [`BehaviorOracle`] (see
/// [`BehaviorOracle::subspace_view`]).
pub struct BehaviorSubspaceView<'a> {
    oracle: &'a BehaviorOracle,
    part: usize,
}

impl SubspaceOracle for BehaviorSubspaceView<'_> {
    fn label(&self, row: &[f64]) -> bool {
        let truth = self.oracle.current_truth().parts()[self.part]
            .1
            .contains(row);
        self.oracle.apply_noise(truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lte_geom::Region;

    fn box_region(x0: f64, y0: f64, x1: f64, y1: f64) -> RegionUnion {
        RegionUnion::new(vec![Region::Box(lte_geom::Aabb::new(
            vec![x0, y0],
            vec![x1, y1],
        ))])
    }

    #[test]
    fn region_oracle_delegates_to_region() {
        let oracle = RegionOracle::new(box_region(0.0, 0.0, 1.0, 1.0));
        assert!(oracle.label(&[0.5, 0.5]));
        assert!(!oracle.label(&[2.0, 2.0]));
    }

    #[test]
    fn fn_oracle_wraps_closures() {
        let oracle = FnOracle(|row: &[f64]| row[0] > 0.0);
        assert!(oracle.label(&[1.0]));
        assert!(!oracle.label(&[-1.0]));
    }

    #[test]
    fn conjunctive_oracle_requires_all_subspaces() {
        let oracle = ConjunctiveOracle::new(vec![
            (Subspace::new(vec![0, 1]), box_region(0.0, 0.0, 1.0, 1.0)),
            (Subspace::new(vec![2, 3]), box_region(5.0, 5.0, 6.0, 6.0)),
        ]);
        assert!(oracle.label(&[0.5, 0.5, 5.5, 5.5]));
        assert!(
            !oracle.label(&[0.5, 0.5, 0.0, 0.0]),
            "second subspace fails"
        );
        assert!(!oracle.label(&[9.0, 9.0, 5.5, 5.5]), "first subspace fails");
    }

    #[test]
    fn selectivity_counts_conjunctive_members() {
        let oracle = ConjunctiveOracle::new(vec![(
            Subspace::new(vec![0]),
            RegionUnion::new(vec![Region::interval(0.0, 1.0)]),
        )]);
        let rows = vec![vec![0.5, 9.0], vec![2.0, 9.0]];
        assert_eq!(oracle.selectivity(&rows), 0.5);
        // Borrowed rows work too, without cloning.
        let borrowed: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        assert_eq!(oracle.selectivity(&borrowed), 0.5);
        assert_eq!(oracle.selectivity::<Vec<f64>>(&[]), 0.0);
    }

    #[test]
    fn noisy_oracle_at_zero_noise_is_transparent() {
        let inner = RegionOracle::new(box_region(0.0, 0.0, 1.0, 1.0));
        let noisy = NoisyOracle::new(RegionOracle::new(box_region(0.0, 0.0, 1.0, 1.0)), 0.0, 42);
        for i in 0..100 {
            let row = [i as f64 / 50.0, 0.5];
            assert_eq!(noisy.label(&row), inner.label(&row));
        }
        assert_eq!(noisy.labels_emitted(), 100);
    }

    #[test]
    fn noisy_oracle_flip_rate_tracks_noise() {
        let inner = RegionOracle::new(box_region(0.0, 0.0, 1.0, 1.0));
        let noisy = NoisyOracle::new(RegionOracle::new(box_region(0.0, 0.0, 1.0, 1.0)), 0.3, 42);
        let n = 10_000;
        let flips = (0..n)
            .filter(|&i| {
                let row = [i as f64 / 5_000.0, 0.5];
                noisy.label(&row) != inner.label(&row)
            })
            .count();
        let rate = flips as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.03, "flip rate {rate}");
        // Full noise inverts everything.
        let inverted = NoisyOracle::new(FnOracle(|_: &[f64]| true), 1.0, 7);
        for _ in 0..50 {
            assert!(!inverted.label(&[0.0]));
        }
    }

    #[test]
    fn noisy_oracle_replays_the_same_mislabels() {
        let mk = || NoisyOracle::new(FnOracle(|_: &[f64]| true), 0.5, 123);
        let a: Vec<bool> = {
            let o = mk();
            (0..200).map(|_| o.label(&[0.0])).collect()
        };
        let b: Vec<bool> = {
            let o = mk();
            (0..200).map(|_| o.label(&[0.0])).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn cadence_is_deterministic_and_zero_stays_zero() {
        let c = Cadence::Steady { think_seconds: 2.0 };
        let t = c.think_before_round(3, 9);
        assert_eq!(t, c.think_before_round(3, 9));
        assert!((1.5..2.5).contains(&t), "jitter stays within ±25%: {t}");
        assert_eq!(Cadence::instant().think_before_round(3, 9), 0.0);

        let b = Cadence::Bursty {
            burst_len: 3,
            within_seconds: 1.0,
            pause_seconds: 30.0,
        };
        assert!(b.think_before_round(0, 9) < 2.0, "burst rounds are fast");
        assert!(b.think_before_round(3, 9) > 20.0, "pause precedes a burst");
        assert!(b.think_before_round(4, 9) < 2.0);
    }

    #[test]
    fn behavior_oracle_swaps_truth_at_the_shift_round() {
        let before = ConjunctiveOracle::new(vec![(
            Subspace::new(vec![0, 1]),
            box_region(0.0, 0.0, 1.0, 1.0),
        )]);
        let after = ConjunctiveOracle::new(vec![(
            Subspace::new(vec![0, 1]),
            box_region(5.0, 5.0, 6.0, 6.0),
        )]);
        let analyst = BehaviorOracle::new(before, 1).with_shift(2, after);

        assert!(analyst.begin_round(0));
        assert!(analyst.label_full(&[0.5, 0.5]));
        assert!(!analyst.has_drifted());

        assert!(analyst.begin_round(2));
        assert!(!analyst.label_full(&[0.5, 0.5]), "interest moved away");
        assert!(analyst.label_full(&[5.5, 5.5]));
        assert!(analyst.has_drifted());
        assert_eq!(analyst.labels_emitted(), 3);

        // The subspace view labels against the same shifted region.
        let view = analyst.subspace_view(0);
        assert!(view.label(&[5.5, 5.5]));
        assert!(!view.label(&[0.5, 0.5]));
        assert_eq!(analyst.labels_emitted(), 5);
    }

    #[test]
    fn behavior_oracle_abandons_at_round_k() {
        let truth = ConjunctiveOracle::new(vec![(
            Subspace::new(vec![0, 1]),
            box_region(0.0, 0.0, 1.0, 1.0),
        )]);
        let analyst = BehaviorOracle::new(truth, 5).with_abandonment(2);
        assert!(analyst.begin_round(0));
        assert!(analyst.begin_round(1));
        assert!(!analyst.begin_round(2), "round k refuses to start");
        assert!(!analyst.begin_round(7));
        assert_eq!(analyst.abandon_after(), Some(2));
    }
}
