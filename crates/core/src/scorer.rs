//! The unified scoring surface: one trait, one request type, one fused
//! dispatcher.
//!
//! Pool scoring has exactly two entry points: [`Scorer::score`] for one
//! session's pool and [`score_fused_with`] for a cross-session batch. The
//! first is the second over one request, so one rule cuts rows into
//! blocks and runs the implementor's serial [`Scorer::score_block`] kernel
//! on each. The per-point
//! [`UisClassifier::logit`](crate::classifier::UisClassifier::logit) stays
//! the training and gradcheck reference.
//!
//! Determinism contract: every method here maps each pool row independently
//! of its block, so outputs are **bit-identical at any worker count** — the
//! invariant the serving determinism suite pins.

use crate::config::ScoringPrecision;
use crate::parallel;

/// Minimum pool rows before scoring fans out over row blocks; smaller
/// pools are dominated by per-thread overhead and stay serial. For fused
/// batches the threshold applies to the **combined** row total.
pub const PARALLEL_MIN_ROWS: usize = 2048;

/// Rows per parallel block: large enough that each block's matmuls
/// amortize dispatch, small enough to split a serving-scale pool across
/// every worker.
pub const PARALLEL_BLOCK_ROWS: usize = 1024;

/// One pool-scoring request: the session's expanded UIS feature vector
/// `vR`, the encoded pool rows, and the precision knob.
#[derive(Clone, Copy)]
pub struct ScoreRequest<'a> {
    /// The session's expanded UIS feature vector `vR`.
    pub v_r: &'a [f64],
    /// Encoded pool rows to score.
    pub rows: &'a [Vec<f64>],
    /// Scoring precision (see [`ScoringPrecision`]).
    pub precision: ScoringPrecision,
}

impl<'a> ScoreRequest<'a> {
    /// Bundle a `vR`, pool rows and precision into a request.
    pub fn new(v_r: &'a [f64], rows: &'a [Vec<f64>], precision: ScoringPrecision) -> Self {
        Self {
            v_r,
            rows,
            precision,
        }
    }
}

/// Anything that scores encoded pool rows against a UIS feature vector.
///
/// Implementors provide the serial per-block kernel
/// ([`Scorer::score_block`]); [`score_fused_with`] layers the
/// block-cutting / parallel-threshold policy on top for many requests over
/// one worker pool, and the provided [`Scorer::score`] method runs it over
/// one. `Fast` precision must promote its `f32` logits exactly, so every
/// path returns `f64`.
pub trait Scorer: Sync {
    /// Width of the `vR` vector this scorer expects (`ku`).
    fn vr_width(&self) -> usize;

    /// Serial scoring of one row block at the requested precision. Each
    /// row's logit must depend only on that row — the invariant that makes
    /// block-parallel dispatch bit-identical to the serial pass.
    fn score_block(&self, v_r: &[f64], rows: &[Vec<f64>], precision: ScoringPrecision) -> Vec<f64>;

    /// Score a whole pool: [`score_fused_with`] over this one request at
    /// [`default_threads`](parallel::default_threads), so serial below
    /// [`PARALLEL_MIN_ROWS`] and otherwise fanned over the shared worker
    /// pool in [`PARALLEL_BLOCK_ROWS`] blocks. Bit-identical to the serial
    /// pass at any worker count.
    ///
    /// ```
    /// use lte_core::classifier::{ClassifierConfig, UisClassifier};
    /// use lte_core::config::ScoringPrecision;
    /// use lte_core::scorer::{ScoreRequest, Scorer};
    /// use lte_data::rng::seeded;
    ///
    /// let cfg = ClassifierConfig { ku: 4, nr: 3, ne: 8, clf_hidden: 8, use_conversion: true };
    /// let clf = UisClassifier::new(cfg, &mut seeded(0));
    /// let v_r = vec![1.0, 0.0, 1.0, 0.0];
    /// let pool = vec![vec![0.1, 0.2, 0.3], vec![0.4, 0.5, 0.6]];
    /// let logits = clf.score(&ScoreRequest::new(&v_r, &pool, ScoringPrecision::Exact));
    /// assert_eq!(logits.len(), 2);
    /// // Exact logits agree with the per-point path on every tuple.
    /// assert!((logits[0] - clf.logit(&v_r, &pool[0])).abs() < 1e-12);
    /// ```
    ///
    /// # Panics
    /// Panics when `req.v_r.len() != self.vr_width()`.
    fn score(&self, req: &ScoreRequest<'_>) -> Vec<f64>
    where
        Self: Sized,
    {
        let request = FusedRequest {
            scorer: self,
            request: *req,
        };
        let mut scores = score_fused_with(&[request], parallel::default_threads());
        scores.pop().expect("one request, one score vector")
    }
}

/// One session's entry in a fused cross-session batch: which scorer runs
/// it, plus its [`ScoreRequest`].
#[derive(Clone, Copy)]
pub struct FusedRequest<'a> {
    /// The (adapted) scorer that scores this request's rows.
    pub scorer: &'a dyn Scorer,
    /// The session's pool-scoring request.
    pub request: ScoreRequest<'a>,
}

/// Score many sessions' pools as **one fused batch** over the shared
/// worker pool, returning one logit vector per request (in request order).
///
/// Each request keeps its own scorer, `vR`, and precision — fusion happens
/// at the dispatch level: every request's rows are cut into contiguous
/// [`PARALLEL_BLOCK_ROWS`] blocks and all blocks from all requests are
/// fanned across one pool via
/// [`parallel_flat_map_groups`](crate::parallel::parallel_flat_map_groups).
/// Crucially, the [`PARALLEL_MIN_ROWS`] cutoff is checked against the
/// **fused** row total, not each request's pool, so many small per-session
/// pools still get parallel dispatch once their sum is large enough.
///
/// Every output vector is bit-identical to [`Scorer::score`] of its
/// request alone at any worker count, because [`Scorer::score_block`]
/// maps each row independently of its block (the invariant the serving
/// determinism suite pins).
///
/// # Panics
/// Panics when any request's `vR` width disagrees with its scorer.
pub fn score_fused_with(requests: &[FusedRequest<'_>], threads: usize) -> Vec<Vec<f64>> {
    for req in requests {
        assert_eq!(
            req.request.v_r.len(),
            req.scorer.vr_width(),
            "vR width mismatch"
        );
    }
    let fused_rows: usize = requests.iter().map(|r| r.request.rows.len()).sum();
    let threads = if fused_rows >= PARALLEL_MIN_ROWS {
        threads
    } else {
        1
    };
    let groups: Vec<&[Vec<f64>]> = requests.iter().map(|r| r.request.rows).collect();
    parallel::parallel_flat_map_groups(&groups, PARALLEL_BLOCK_ROWS, threads, |g, chunk| {
        let req = &requests[g];
        req.scorer
            .score_block(req.request.v_r, chunk, req.request.precision)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{ClassifierConfig, UisClassifier};
    use lte_data::rng::seeded;

    fn classifier(seed: u64) -> UisClassifier {
        let cfg = ClassifierConfig {
            ku: 6,
            nr: 4,
            ne: 8,
            clf_hidden: 8,
            use_conversion: true,
        };
        UisClassifier::new(cfg, &mut seeded(seed))
    }

    fn pool(n: usize, salt: u64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..4)
                    .map(|j| (((i as u64 * 4 + j + salt * 131) as f64) * 0.37).sin())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn fused_matches_per_request_bitwise_at_any_worker_count() {
        let c1 = classifier(1);
        let c2 = classifier(2);
        let v1 = vec![1.0, 1.0, 0.0, 0.0, 1.0, 0.0];
        let v2 = vec![0.0, 1.0, 1.0, 0.0, 0.0, 1.0];
        let p1 = pool(61, 3);
        let p2 = pool(17, 4);
        let requests = [
            FusedRequest {
                scorer: &c1,
                request: ScoreRequest::new(&v1, &p1, ScoringPrecision::Exact),
            },
            FusedRequest {
                scorer: &c2,
                request: ScoreRequest::new(&v2, &p2, ScoringPrecision::Fast),
            },
        ];
        let reference = [
            c1.score(&requests[0].request),
            c2.score(&requests[1].request),
        ];
        for threads in [1, 2, 4] {
            let fused = score_fused_with(&requests, threads);
            assert_eq!(fused.len(), reference.len());
            for (f, r) in fused.iter().zip(&reference) {
                assert_eq!(f.len(), r.len());
                for (a, b) in f.iter().zip(r) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{threads} workers diverged");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "vR width mismatch")]
    fn fused_rejects_wrong_vr_width() {
        let c = classifier(3);
        let v_r = vec![0.0; 3];
        let rows = pool(4, 5);
        let requests = [FusedRequest {
            scorer: &c,
            request: ScoreRequest::new(&v_r, &rows, ScoringPrecision::Exact),
        }];
        score_fused_with(&requests, 1);
    }
}
