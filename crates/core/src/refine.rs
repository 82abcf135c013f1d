//! Few-shot prediction optimization (§VII-B) — the `Meta*` layer.
//!
//! Few-shot classifiers make two characteristic error types that geometry
//! can cheaply bound:
//!
//! * **False positives** far from any labelled evidence: fix with the
//!   **outer-subregion**, a generous superset of the UIS. For every `Cs`
//!   center the user labelled positive ("anchor point"), expand to its
//!   `Nsup` nearest `Cu` centers via `Ps` and take the convex hull; the
//!   union of hulls circumscribes the real UIS. Predictions *outside* it
//!   are revised to negative.
//! * **False negatives** as small spurious holes inside the UIS: fix with
//!   the **inner-subregion**, built the same way but with a conservative
//!   expansion `Nsub ≪ Nsup`; predictions *inside* it are revised to
//!   positive.
//!
//! The optimizer depends entirely on the labelled initial tuples — it
//! cannot run standalone (§VIII-A note on Meta*).
//!
//! Each `Cs` anchor's two hulls depend on the subspace context and the
//! anchor alone, not on the session, so a pool served to many sessions can
//! test its rows against them once: [`AnchorMasks`] keeps that membership
//! as row bitsets and revises a round by ORing its positive anchors' bits,
//! bit-identical to [`Subregions::revise`] row by row.

use crate::config::RefineConfig;
use crate::context::SubspaceContext;
use crate::uis::hull_region;
use lte_geom::{Region, RegionUnion};
use std::sync::OnceLock;

/// The outer/inner circumscribed regions built from positive anchors.
#[derive(Debug, Clone)]
pub struct Subregions {
    /// Superset of the UIS (Nsup expansion).
    pub outer: RegionUnion,
    /// Subset of the UIS (Nsub conservative expansion).
    pub inner: RegionUnion,
}

impl Subregions {
    /// Revise a classifier prediction for `row`:
    /// outside the outer-subregion → negative; inside the inner-subregion →
    /// positive; otherwise keep the classifier's verdict.
    ///
    /// With no positive anchors at all, both regions are empty and the
    /// classifier's prediction passes through unchanged.
    pub fn revise(&self, row: &[f64], prediction: bool) -> bool {
        if self.outer.is_empty() {
            return prediction;
        }
        if !self.outer.contains(row) {
            return false;
        }
        if self.inner.contains(row) {
            return true;
        }
        prediction
    }

    /// Three-set-style convergence indicator (§III-B "Convergence"):
    /// tuples inside the inner-subregion are certainly interesting, tuples
    /// outside the outer-subregion certainly not, the band in between is
    /// uncertain. Returns the worst-case F1 lower bound
    /// `|certain⁺| / (|certain⁺| + |uncertain|)` over `rows`, mirroring
    /// DSM's metric so LTE sessions can reuse existing stop criteria.
    pub fn three_set_bound(&self, rows: &[Vec<f64>]) -> f64 {
        if self.outer.is_empty() {
            return 0.0;
        }
        let mut certain_pos = 0usize;
        let mut uncertain = 0usize;
        for row in rows {
            if self.inner.contains(row) {
                certain_pos += 1;
            } else if self.outer.contains(row) {
                uncertain += 1;
            }
        }
        if certain_pos + uncertain == 0 {
            0.0
        } else {
            certain_pos as f64 / (certain_pos + uncertain) as f64
        }
    }
}

/// Build outer/inner subregions from the labels of the `Cs` initial tuples.
pub fn build_subregions(
    ctx: &SubspaceContext,
    cs_labels: &[bool],
    cfg: &RefineConfig,
) -> Subregions {
    build_subregions_with_anchors(ctx, cs_labels, &[], cfg)
}

/// [`build_subregions`] extended with additional positive anchor tuples —
/// positively labeled rows collected *after* the initial exploration
/// (iterative rounds, §III-B). Extra anchors expand through their nearest
/// `Cu` centers by direct distance, since they are not `Cs` rows and hence
/// have no `Ps` entry.
pub fn build_subregions_with_anchors(
    ctx: &SubspaceContext,
    cs_labels: &[bool],
    extra_positive_anchors: &[Vec<f64>],
    cfg: &RefineConfig,
) -> Subregions {
    assert_eq!(
        cs_labels.len(),
        ctx.cs().len(),
        "one label per Cs center required"
    );
    let (nsup, nsub) = expansions(ctx, cfg);

    let mut outer = RegionUnion::empty();
    let mut inner = RegionUnion::empty();
    for (i, &positive) in cs_labels.iter().enumerate() {
        if !positive {
            continue;
        }
        let (o, n) = anchor_hulls(ctx, i, nsup, nsub);
        outer.push(o);
        inner.push(n);
    }
    for anchor in extra_positive_anchors {
        outer.push(hull_region(&point_neighbourhood(ctx, anchor, nsup)));
        inner.push(hull_region(&point_neighbourhood(ctx, anchor, nsub)));
    }
    Subregions { outer, inner }
}

/// Meta*'s hull membership over one subspace's projected pool: for every
/// `Cs` anchor, which rows its outer (`Nsup`) hull contains and which rows
/// its inner (`Nsub`) hull contains, one bit per row.
///
/// An anchor's hulls depend only on the context, the anchor and the
/// [`RefineConfig`], so one store serves every session that revises over
/// the same pool under the same pipeline. Each anchor's bitsets are built
/// the first time a label set marks it positive ([`OnceLock`]), so a pool
/// that serves one session builds only that session's positive anchors.
/// A built anchor costs `2 · ⌈rows/64⌉` words.
#[derive(Debug)]
pub struct AnchorMasks {
    rows: usize,
    nsup: usize,
    nsub: usize,
    anchors: Vec<OnceLock<AnchorMask>>,
}

/// One anchor's hull membership: bit `r % 64` of word `r / 64` is row `r`.
#[derive(Debug)]
struct AnchorMask {
    outer: Vec<u64>,
    inner: Vec<u64>,
}

impl AnchorMasks {
    /// An empty store for a pool of `rows` projected rows of `ctx`'s
    /// subspace, expanding anchors as `cfg` says.
    pub fn new(ctx: &SubspaceContext, rows: usize, cfg: &RefineConfig) -> Self {
        let (nsup, nsub) = expansions(ctx, cfg);
        Self {
            rows,
            nsup,
            nsub,
            anchors: ctx.cs().iter().map(|_| OnceLock::new()).collect(),
        }
    }

    /// Revise `predictions` over `rows` as [`Subregions::revise`] does with
    /// the subregions of `cs_labels`, row for row: a row outside every
    /// positive anchor's outer hull turns negative, a row inside an inner
    /// hull turns positive. With no positive label the predictions pass
    /// through unchanged. `ctx` and `rows` must be the ones the store was
    /// made for; a positive anchor whose bitsets are missing is built here.
    ///
    /// # Panics
    /// Panics when `cs_labels` has not one label per `Cs` center, or
    /// `rows` or `predictions` differ in length from the store's pool.
    pub fn revise(
        &self,
        ctx: &SubspaceContext,
        rows: &[Vec<f64>],
        cs_labels: &[bool],
        predictions: &mut [bool],
    ) {
        assert_eq!(
            cs_labels.len(),
            self.anchors.len(),
            "one label per Cs center required"
        );
        assert_eq!(rows.len(), self.rows, "rows are not the masks' pool");
        assert_eq!(predictions.len(), self.rows, "one prediction per pool row");
        let positive: Vec<&AnchorMask> = cs_labels
            .iter()
            .zip(&self.anchors)
            .enumerate()
            .filter(|(_, (&label, _))| label)
            .map(|(i, (_, mask))| mask.get_or_init(|| self.build(ctx, rows, i)))
            .collect();
        if positive.is_empty() {
            return;
        }
        for (w, chunk) in predictions.chunks_mut(64).enumerate() {
            let (outer, inner) = positive
                .iter()
                .fold((0, 0), |(o, n), m| (o | m.outer[w], n | m.inner[w]));
            for (bit, pred) in chunk.iter_mut().enumerate() {
                let (o, n) = ((outer >> bit) & 1 != 0, (inner >> bit) & 1 != 0);
                *pred = o & (n | *pred);
            }
        }
    }

    /// Test every row against anchor `anchor`'s two hulls.
    fn build(&self, ctx: &SubspaceContext, rows: &[Vec<f64>], anchor: usize) -> AnchorMask {
        let (outer, inner) = anchor_hulls(ctx, anchor, self.nsup, self.nsub);
        AnchorMask {
            outer: row_bits(&outer, rows),
            inner: row_bits(&inner, rows),
        }
    }
}

/// Which of `rows` `region` contains, 64 rows to a word.
fn row_bits(region: &Region, rows: &[Vec<f64>]) -> Vec<u64> {
    rows.chunks(64)
        .map(|chunk| {
            chunk.iter().enumerate().fold(0, |word, (bit, row)| {
                word | (u64::from(region.contains(row)) << bit)
            })
        })
        .collect()
}

/// The outer and inner expansion sizes `(Nsup, Nsub)`: the configured
/// fractions of `ku`, at least one center and at most all of them.
fn expansions(ctx: &SubspaceContext, cfg: &RefineConfig) -> (usize, usize) {
    let ku = ctx.cu().len();
    let n = |frac: f64| ((ku as f64 * frac).round() as usize).clamp(1, ku);
    (n(cfg.nsup_frac), n(cfg.nsub_frac))
}

/// `Cs` anchor `anchor`'s outer and inner hulls: over the anchor and its
/// `nsup`, respectively `nsub`, nearest `Cu` centers.
fn anchor_hulls(
    ctx: &SubspaceContext,
    anchor: usize,
    nsup: usize,
    nsub: usize,
) -> (Region, Region) {
    (
        hull_region(&anchor_neighbourhood(ctx, anchor, nsup)),
        hull_region(&anchor_neighbourhood(ctx, anchor, nsub)),
    )
}

/// The anchor `Cs` center plus its `n` nearest `Cu` centers (via `Ps`).
fn anchor_neighbourhood(ctx: &SubspaceContext, anchor: usize, n: usize) -> Vec<Vec<f64>> {
    let mut rows = Vec::with_capacity(n + 1);
    rows.push(ctx.cs()[anchor].clone());
    for j in ctx.ps().k_nearest(anchor, n, true) {
        rows.push(ctx.cu()[j].clone());
    }
    rows
}

/// An arbitrary anchor row plus its `n` nearest `Cu` centers (brute-force
/// distances; `ku` is small).
fn point_neighbourhood(ctx: &SubspaceContext, anchor: &[f64], n: usize) -> Vec<Vec<f64>> {
    let mut by_dist: Vec<(f64, usize)> = ctx
        .cu()
        .iter()
        .enumerate()
        .map(|(j, c)| (lte_geom::dist2(anchor, c), j))
        .collect();
    by_dist.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut rows = Vec::with_capacity(n + 1);
    rows.push(anchor.to_vec());
    for &(_, j) in by_dist.iter().take(n) {
        rows.push(ctx.cu()[j].clone());
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LteConfig;
    use lte_data::generator::generate_sdss;
    use lte_data::subspace::Subspace;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Barrier;

    fn ctx() -> SubspaceContext {
        ctx_over(&[0, 1])
    }

    fn ctx_over(attrs: &[usize]) -> SubspaceContext {
        let table = generate_sdss(3000, 0);
        let cfg = LteConfig::reduced();
        SubspaceContext::build(
            &table,
            Subspace::new(attrs.to_vec()),
            &cfg.task,
            &cfg.encoder,
            3,
        )
    }

    /// A projected pool of `n` rows: the `Cs` and `Cu` centers (hull
    /// vertices, where `EPS` decides), rows far outside the data, then
    /// the table's rows, cycled.
    fn pool(ctx: &SubspaceContext, attrs: &[usize], n: usize) -> Vec<Vec<f64>> {
        let dim = attrs.len();
        let table = generate_sdss(3000, 1);
        let sub = Subspace::new(attrs.to_vec());
        let mut base: Vec<Vec<f64>> = ctx.cs().iter().chain(ctx.cu()).cloned().collect();
        base.extend([vec![1e9; dim], vec![-1e9; dim], vec![f64::MAX; dim]]);
        base.extend((0..table.n_rows()).map(|i| sub.project_row(&table.row(i).unwrap())));
        base.into_iter().cycle().take(n).collect()
    }

    /// `revise` through `masks` against `build_subregions` +
    /// `Subregions::revise` row by row, from random classifier verdicts.
    fn assert_masks_match(
        ctx: &SubspaceContext,
        rows: &[Vec<f64>],
        masks: &AnchorMasks,
        labels: &[bool],
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let before: Vec<bool> = rows.iter().map(|_| rng.random_bool(0.5)).collect();
        let regions = build_subregions(ctx, labels, &RefineConfig::default());
        let mut got = before.clone();
        masks.revise(ctx, rows, labels, &mut got);
        for (r, (row, &pred)) in rows.iter().zip(&before).enumerate() {
            assert_eq!(
                got[r],
                regions.revise(row, pred),
                "row {r} {row:?} (labels {labels:?})"
            );
        }
    }

    /// No, one, some and all anchors positive.
    fn label_sets(ks: usize, rng: &mut StdRng) -> Vec<Vec<bool>> {
        let mut sets = vec![vec![false; ks], vec![true; ks]];
        for anchor in [0, ks / 2, ks - 1] {
            let mut one = vec![false; ks];
            one[anchor] = true;
            sets.push(one);
        }
        for _ in 0..8 {
            sets.push((0..ks).map(|_| rng.random_bool(0.3)).collect());
        }
        sets
    }

    fn labels_with_one_positive(ctx: &SubspaceContext, idx: usize) -> Vec<bool> {
        let mut labels = vec![false; ctx.cs().len()];
        labels[idx] = true;
        labels
    }

    #[test]
    fn inner_is_subset_of_outer() {
        let c = ctx();
        let labels = labels_with_one_positive(&c, 0);
        let regions = build_subregions(&c, &labels, &RefineConfig::default());
        // Every sample row inside the inner region must be inside the outer.
        for row in c.sample_rows() {
            if regions.inner.contains(row) {
                assert!(regions.outer.contains(row), "inner ⊄ outer at {row:?}");
            }
        }
    }

    #[test]
    fn revise_clips_far_false_positives() {
        let c = ctx();
        let labels = labels_with_one_positive(&c, 0);
        let regions = build_subregions(&c, &labels, &RefineConfig::default());
        // A point far outside the data range must be revised to negative
        // even if the classifier says positive.
        let far = vec![1e9, 1e9];
        assert!(!regions.revise(&far, true));
    }

    #[test]
    fn revise_rescues_false_negatives_near_anchor() {
        let c = ctx();
        let labels = labels_with_one_positive(&c, 2);
        let regions = build_subregions(&c, &labels, &RefineConfig::default());
        // The anchor itself sits inside the inner region.
        let anchor = c.cs()[2].clone();
        assert!(regions.revise(&anchor, false), "anchor must be positive");
    }

    #[test]
    fn uncertain_band_keeps_classifier_verdict() {
        let c = ctx();
        let labels = labels_with_one_positive(&c, 1);
        let regions = build_subregions(&c, &labels, &RefineConfig::default());
        // Find a sample row between inner and outer.
        let row = c
            .sample_rows()
            .iter()
            .find(|r| regions.outer.contains(r) && !regions.inner.contains(r));
        if let Some(row) = row {
            assert!(regions.revise(row, true));
            assert!(!regions.revise(row, false));
        }
    }

    #[test]
    fn no_positive_labels_passes_through() {
        let c = ctx();
        let labels = vec![false; c.cs().len()];
        let regions = build_subregions(&c, &labels, &RefineConfig::default());
        assert!(regions.outer.is_empty());
        assert!(regions.revise(&[0.0, 0.0], true));
        assert!(!regions.revise(&[0.0, 0.0], false));
    }

    #[test]
    fn more_positives_grow_regions() {
        let c = ctx();
        let one = build_subregions(
            &c,
            &labels_with_one_positive(&c, 0),
            &RefineConfig::default(),
        );
        let mut labels = labels_with_one_positive(&c, 0);
        labels[c.cs().len() - 1] = true;
        let two = build_subregions(&c, &labels, &RefineConfig::default());
        assert_eq!(one.outer.len() + 1, two.outer.len());
        assert_eq!(one.inner.len() + 1, two.inner.len());
    }

    #[test]
    #[should_panic(expected = "one label per Cs center")]
    fn label_count_mismatch_panics() {
        let c = ctx();
        build_subregions(&c, &[true], &RefineConfig::default());
    }

    #[test]
    fn three_set_bound_in_unit_interval_and_zero_without_anchors() {
        let c = ctx();
        let regions = build_subregions(
            &c,
            &labels_with_one_positive(&c, 0),
            &RefineConfig::default(),
        );
        let bound = regions.three_set_bound(c.sample_rows());
        assert!((0.0..=1.0).contains(&bound));

        let empty = build_subregions(&c, &vec![false; c.cs().len()], &RefineConfig::default());
        assert_eq!(empty.three_set_bound(c.sample_rows()), 0.0);
    }

    #[test]
    fn three_set_bound_grows_with_more_anchors() {
        // More positive anchors grow the inner region (certain positives)
        // relative to the uncertain band, so the bound shouldn't collapse.
        let c = ctx();
        let half = c.cs().len() / 2;
        let mut many = vec![false; c.cs().len()];
        many[..half].fill(true);
        let regions = build_subregions(&c, &many, &RefineConfig::default());
        assert!(regions.three_set_bound(c.sample_rows()) > 0.0);
    }

    #[test]
    fn masks_match_per_row_revision_over_1d_and_2d_pools() {
        for attrs in [vec![0], vec![0, 1]] {
            let c = ctx_over(&attrs);
            let mut rng = StdRng::seed_from_u64(attrs.len() as u64);
            let sets = label_sets(c.cs().len(), &mut rng);
            for n in [0, 1, 63, 64, 65, 1000, 1300] {
                let rows = pool(&c, &attrs, n);
                // One store for every label set: later sets read the
                // anchors earlier ones built.
                let masks = AnchorMasks::new(&c, n, &RefineConfig::default());
                for (k, labels) in sets.iter().enumerate() {
                    assert_masks_match(&c, &rows, &masks, labels, k as u64);
                }
            }
        }
    }

    #[test]
    fn masks_built_by_racing_threads_match_per_row_revision() {
        let c = ctx();
        let rows = pool(&c, &[0, 1], 1500);
        let masks = AnchorMasks::new(&c, rows.len(), &RefineConfig::default());
        let sets = label_sets(c.cs().len(), &mut StdRng::seed_from_u64(9));
        let start = Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (c, rows, masks, sets, start) = (&c, &rows, &masks, &sets, &start);
                scope.spawn(move || {
                    start.wait();
                    for k in (t..sets.len()).step_by(4).chain(0..sets.len()) {
                        assert_masks_match(c, rows, masks, &sets[k], (t * 100 + k) as u64);
                    }
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "rows are not the masks' pool")]
    fn masks_refuse_another_pool() {
        let c = ctx();
        let masks = AnchorMasks::new(&c, 10, &RefineConfig::default());
        let mut labels = vec![false; c.cs().len()];
        labels[0] = true;
        masks.revise(&c, &pool(&c, &[0, 1], 11), &labels, &mut [false; 11]);
    }
}
