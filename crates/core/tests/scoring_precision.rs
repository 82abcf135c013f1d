//! Property tests pinning the reduced-precision scoring contracts against
//! the `f64` reference (see `ScoringPrecision`): Fast logits must track
//! Exact logits within the accumulated-round-off tolerance, pool *ranking*
//! must agree exactly for every pair separated by more than the `f32`
//! noise floor, the fused kernel epilogue must be **bitwise** identical to
//! the unfused bias/activation passes, the row-block parallel dispatch
//! must be bit-identical to the serial pass at any worker count, and an
//! `Exact` pool must score bit-identical to its rows scored one at a time.

use lte_core::classifier::{ClassifierConfig, UisClassifier};
use lte_core::config::ScoringPrecision;
use lte_core::parallel::parallel_flat_map_groups;
use lte_core::scorer::{
    score_fused_with, FusedRequest, ScoreRequest, Scorer, PARALLEL_BLOCK_ROWS, PARALLEL_MIN_ROWS,
};
use lte_data::rng::seeded;
use lte_nn::matrix::l1_block_rows_sized;
use lte_nn::{Activation, Epilogue, Matrix, Matrix32};
use proptest::prelude::*;

/// Build a deterministic classifier plus a pool of encoded tuples from a
/// handful of generator knobs. Inputs stay O(1) in magnitude so the
/// tolerance bound below is meaningful.
fn setup(
    seed: u64,
    ku: usize,
    nr: usize,
    ne: usize,
    use_conversion: bool,
    pool: usize,
) -> (UisClassifier, Vec<f64>, Vec<Vec<f64>>) {
    let cfg = ClassifierConfig {
        ku,
        nr,
        ne,
        clf_hidden: ne,
        use_conversion,
    };
    let clf = UisClassifier::new(cfg, &mut seeded(seed));
    let v_r: Vec<f64> = (0..ku)
        .map(|i| ((i as f64) * 0.37 + seed as f64).sin())
        .collect();
    let tuples: Vec<Vec<f64>> = (0..pool)
        .map(|i| {
            (0..nr)
                .map(|j| (((i * nr + j) as f64) * 0.013 + seed as f64 * 0.1).sin())
                .collect()
        })
        .collect();
    (clf, v_r, tuples)
}

/// Score a whole pool through the public single-session entry point.
fn score(clf: &UisClassifier, v_r: &[f64], tuples: &[Vec<f64>], p: ScoringPrecision) -> Vec<f64> {
    clf.score(&ScoreRequest::new(v_r, tuples, p))
}

/// Raw bit patterns, so equality checks are bitwise.
fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Indices of `scores` sorted best-first, ties broken by index so the
/// order is total.
fn ranking(scores: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .expect("finite logits")
            .then(a.cmp(&b))
    });
    idx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fast (f32) logits track Exact (f64) logits within f32 round-off
    /// accumulated over the network depth, for both classifier variants.
    #[test]
    fn fast_logits_track_exact_within_tolerance(
        seed in 0u64..500,
        ku in 2usize..12,
        nr in 2usize..12,
        ne in 4usize..24,
        use_conversion in proptest::bool::ANY,
        pool in 1usize..96,
    ) {
        let (clf, v_r, tuples) = setup(seed, ku, nr, ne, use_conversion, pool);
        let exact = score(&clf, &v_r, &tuples, ScoringPrecision::Exact);
        let fast = score(&clf, &v_r, &tuples, ScoringPrecision::Fast);
        prop_assert_eq!(exact.len(), fast.len());
        // Per-layer error is ~eps_f32 * k * |activations|; inputs and
        // weights here are O(1), so a generous linear-in-width bound
        // catches real kernel bugs while tolerating round-off.
        let width = ne.max(nr).max(ku) as f64;
        let tol = 1e-5 * width;
        for (i, (&e, &f)) in exact.iter().zip(&fast).enumerate() {
            let scale = e.abs().max(1.0);
            prop_assert!(
                (e - f).abs() <= tol * scale,
                "logit {} diverged: exact {} vs fast {} (tol {})",
                i, e, f, tol * scale
            );
        }
    }

    /// Pool ranking agrees between Exact and Fast for every pair of points
    /// separated by more than the f32 noise floor. Pairs inside the noise
    /// floor may swap — that is the documented contract — so the assertion
    /// only fires when a swapped pair's Exact gap exceeds the tolerance.
    #[test]
    fn fast_ranking_matches_exact_above_noise_floor(
        seed in 0u64..500,
        ne in 4usize..20,
        use_conversion in proptest::bool::ANY,
        pool in 2usize..128,
    ) {
        let (clf, v_r, tuples) = setup(seed, 6, 5, ne, use_conversion, pool);
        let exact = score(&clf, &v_r, &tuples, ScoringPrecision::Exact);
        let fast = score(&clf, &v_r, &tuples, ScoringPrecision::Fast);
        let noise_floor = 1e-5 * (ne as f64)
            * exact.iter().fold(1.0f64, |m, &v| m.max(v.abs()));
        let exact_rank = ranking(&exact);
        let fast_rank = ranking(&fast);
        // Walk the two orders; any inversion between points whose Exact
        // logits differ by more than the noise floor is a real bug.
        let mut fast_pos = vec![0usize; pool];
        for (pos, &i) in fast_rank.iter().enumerate() {
            fast_pos[i] = pos;
        }
        for w in exact_rank.windows(2) {
            let (hi, lo) = (w[0], w[1]);
            let gap = exact[hi] - exact[lo];
            if gap > noise_floor {
                prop_assert!(
                    fast_pos[hi] < fast_pos[lo],
                    "rank inversion beyond noise floor: point {} (logit {}) \
                     ranked below point {} (logit {}), gap {} > floor {}",
                    hi, exact[hi], lo, exact[lo], gap, noise_floor
                );
            }
        }
    }

    /// Row-block chunked scoring is bit-identical to the serial pass at
    /// every block size and worker count, for both precisions. The public
    /// `Scorer::score` only parallelizes beyond `PARALLEL_MIN_ROWS`, so
    /// this drives the `score_block` kernel directly through
    /// `parallel_flat_map_groups` over one group, the dispatch
    /// `Scorer::score` runs, with forced thread counts (the CI container
    /// may expose one core). A block runs in row tiles that keep
    /// its widest layer within 32 KiB of `f32`s (`Fast`) or `f64`s
    /// (`Exact`), at most 512 rows (256 and 128 at `ne = 32`), so the
    /// pools reach past two of the largest tiles plus a ragged tail.
    #[test]
    fn chunked_scoring_is_bitwise_serial(
        seed in 0u64..200,
        ne in 4usize..40,
        use_conversion in proptest::bool::ANY,
        pool in 1usize..1200,
        block in 1usize..64,
        threads in 1usize..5,
    ) {
        let (clf, v_r, tuples) = setup(seed, 5, 4, ne, use_conversion, pool);
        for precision in [ScoringPrecision::Exact, ScoringPrecision::Fast] {
            let serial = clf.score_block(&v_r, &tuples, precision);
            let chunked = parallel_flat_map_groups(&[tuples.as_slice()], block, threads, |_, chunk| {
                clf.score_block(&v_r, chunk, precision)
            });
            prop_assert_eq!(chunked.len(), 1);
            prop_assert_eq!(bits(&serial), bits(&chunked[0]));
        }
    }

    /// An `Exact` pool scores bit-identical to each of its rows scored
    /// alone through `Scorer::score`. The pool spans at least two row
    /// tiles plus a ragged tail: a tile keeps the widest layer within
    /// 32 KiB of `f64`s (128 rows at `ne = 32` with conversion, 64
    /// without), so every row position in a tile, and the SIMD kernels'
    /// ragged row and column tails, meet the one-row path.
    #[test]
    fn exact_pool_scoring_is_bitwise_per_row(
        seed in 0u64..200,
        ne in 4usize..40,
        use_conversion in proptest::bool::ANY,
        tail_frac in 0.01f64..0.99,
    ) {
        let widest = if use_conversion { ne.max(4) } else { 2 * ne };
        let tile = l1_block_rows_sized(widest, 8, std::mem::size_of::<f64>());
        let pool = 2 * tile + ((tile as f64 * tail_frac) as usize).max(1);
        let (clf, v_r, tuples) = setup(seed, 5, 4, ne, use_conversion, pool);
        let whole = score(&clf, &v_r, &tuples, ScoringPrecision::Exact);
        let alone: Vec<f64> = tuples
            .iter()
            .flat_map(|row| score(&clf, &v_r, std::slice::from_ref(row), ScoringPrecision::Exact))
            .collect();
        prop_assert_eq!(bits(&whole), bits(&alone));
    }

    /// The fused kernel epilogue (`matmul_nt_ep` with bias + activation)
    /// must equal the unfused composition `matmul_nt` → `add_row_bias` →
    /// `apply_slice_f32` **bitwise** on every shape and activation — the
    /// fusion is a scheduling change, never a numeric one.
    #[test]
    fn fused_epilogue_is_bitwise_equal_to_unfused_passes(
        seed in 0u64..500,
        n in 1usize..48,
        m in 1usize..48,
        k in 1usize..48,
        act_pick in 0usize..4,
    ) {
        let act = [
            Activation::Identity,
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Tanh,
        ][act_pick];
        let s = seed as f64;
        let a = Matrix32::from_f64(&Matrix::from_fn(n, k, |r, c| {
            ((r * 31 + c * 17) as f64 * 0.11 + s).sin()
        }));
        let b = Matrix32::from_f64(&Matrix::from_fn(m, k, |r, c| {
            ((r * 13 + c * 7) as f64 * 0.23 + s).cos()
        }));
        let bias: Vec<f32> = (0..m).map(|j| ((j as f64 + s) * 0.31).sin() as f32).collect();
        let fused = a.matmul_nt_ep(&b, Epilogue::new(&bias, act));
        let mut unfused = a.matmul_nt(&b);
        unfused.add_row_bias(&bias);
        act.apply_slice_f32(unfused.data_mut());
        for (i, (x, y)) in fused.data().iter().zip(unfused.data()).enumerate() {
            prop_assert_eq!(
                x.to_bits(), y.to_bits(),
                "{}x{}x{} {:?} elem {}: fused {} vs unfused {}",
                n, m, k, act, i, x, y
            );
        }
    }
}

/// Regression (serving bugfix sweep): the parallel-dispatch threshold of a
/// fused call must be checked against the **fused** row total, not any
/// single request's rows. Three sessions of ~680 rows each sit far below
/// `PARALLEL_MIN_ROWS` individually but straddle it together; at every
/// boundary total (2047/2048/2049 for the shipped constant) the fused
/// scores must be bitwise identical to each request's own serial
/// `Scorer::score` — i.e. crossing the threshold changes scheduling only.
#[test]
fn fused_threshold_counts_fused_rows_at_the_boundary() {
    let min = PARALLEL_MIN_ROWS;
    for total in [min - 1, min, min + 1] {
        let sizes = [total / 3, total / 3, total - 2 * (total / 3)];
        let precisions = [
            ScoringPrecision::Exact,
            ScoringPrecision::Fast,
            ScoringPrecision::Exact,
        ];
        let setups: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| setup(300 + i as u64, 5, 4, 8, i % 2 == 0, n))
            .collect();
        let requests: Vec<FusedRequest<'_>> = setups
            .iter()
            .zip(&precisions)
            .map(|((clf, v_r, tuples), &precision)| FusedRequest {
                scorer: clf,
                request: ScoreRequest::new(v_r, tuples, precision),
            })
            .collect();
        // Forced threads > 1: on a single-core CI box `default_threads()`
        // is 1 and the parallel path above the threshold would never run.
        let fused = score_fused_with(&requests, 4);
        assert_eq!(fused.len(), 3);
        for (((clf, v_r, tuples), &precision), got) in setups.iter().zip(&precisions).zip(&fused) {
            let solo = score(clf, v_r, tuples, precision);
            assert_eq!(
                bits(&solo),
                bits(got),
                "fused scores diverged from serial at fused total {total}"
            );
        }
    }
}

/// A pool large enough to cross `PARALLEL_MIN_ROWS` scores the same
/// through `Scorer::score` (parallel on a multi-core host), through a
/// forced 4-worker `score_fused_with`, and through a serial pass of the
/// `score_block` kernel over `PARALLEL_BLOCK_ROWS` chunks, proving the
/// public dispatch threshold changes nothing but scheduling.
#[test]
fn large_pool_parallel_dispatch_is_bitwise_serial() {
    let (clf, v_r, tuples) = setup(7, 6, 5, 8, true, PARALLEL_MIN_ROWS + 123);
    for precision in [ScoringPrecision::Exact, ScoringPrecision::Fast] {
        let reference: Vec<f64> = tuples
            .chunks(PARALLEL_BLOCK_ROWS)
            .flat_map(|chunk| clf.score_block(&v_r, chunk, precision))
            .collect();
        let whole = score(&clf, &v_r, &tuples, precision);
        assert_eq!(bits(&whole), bits(&reference), "{precision:?}");
        let request = FusedRequest {
            scorer: &clf,
            request: ScoreRequest::new(&v_r, &tuples, precision),
        };
        let fused = score_fused_with(&[request], 4);
        assert_eq!(bits(&fused[0]), bits(&reference), "{precision:?}");
    }
}
