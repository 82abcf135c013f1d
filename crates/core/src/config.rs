//! Configuration for every stage of the LTE framework.
//!
//! Two presets are provided: [`LteConfig::paper`] mirrors §VIII-A's bolded
//! defaults (ku=100, kq=200, B=30, α=4/ψ=20, |TM|=5000, Ne=100), and
//! [`LteConfig::reduced`] is a proportionally scaled-down configuration for
//! tests and default benchmark runs. `Default` is the reduced preset.

use crate::uis::UisMode;

/// Meta-task generation parameters (§V, Algorithm 1).
#[derive(Debug, Clone)]
pub struct MetaTaskConfig {
    /// `ku`: cluster count summarizing the subspace for UIS construction.
    pub ku: usize,
    /// `ks`: cluster count for the support set = initial labelled tuples.
    /// The exploration budget is `B = ks + delta`.
    pub ks: usize,
    /// `kq`: cluster count for the query set.
    pub kq: usize,
    /// `Δ`: extra random tuples appended to each support/query set (§V-D).
    pub delta: usize,
    /// UIS mode (α convex parts of ψ-nearest-center hulls) used to *train*
    /// meta-learners.
    pub mode: UisMode,
    /// Clustering-sample fraction of the subspace (§V footnote 6: 1%).
    pub sample_fraction: f64,
    /// Lower bound on the clustering sample (keeps small tables usable).
    pub min_sample: usize,
    /// Upper bound on the clustering sample (keeps huge tables cheap).
    pub max_sample: usize,
    /// Regenerate a simulated UIS if its support labels are single-class
    /// (degenerate for training); give up after this many attempts.
    pub max_uis_retries: usize,
}

impl MetaTaskConfig {
    /// Paper defaults (§VIII-A).
    pub fn paper() -> Self {
        Self {
            ku: 100,
            ks: 25,
            kq: 200,
            delta: 5,
            mode: UisMode::new(4, 20),
            sample_fraction: 0.01,
            min_sample: 800,
            max_sample: 4000,
            max_uis_retries: 20,
        }
    }

    /// Reduced defaults for tests/CI.
    pub fn reduced() -> Self {
        Self {
            ku: 40,
            ks: 25,
            kq: 60,
            delta: 5,
            mode: UisMode::new(4, 10),
            sample_fraction: 0.01,
            min_sample: 500,
            max_sample: 1500,
            max_uis_retries: 20,
        }
    }

    /// The exploration budget `B = ks + Δ` this configuration corresponds to.
    pub fn budget(&self) -> usize {
        self.ks + self.delta
    }

    /// Set `ks` from a target budget `B` (`ks = B − Δ`).
    pub fn with_budget(mut self, budget: usize) -> Self {
        assert!(budget > self.delta, "budget must exceed delta");
        self.ks = budget - self.delta;
        self
    }
}

/// Classifier architecture (§VI-A).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Embedding size `Ne` shared by both embedding blocks.
    pub ne: usize,
    /// Hidden width of the classification block.
    pub clf_hidden: usize,
    /// Heuristic UIS-feature expansion degree `l` as a fraction of `ku`
    /// (§VI-A: default `l = 0.1·ku`).
    pub expansion_frac: f64,
}

impl NetConfig {
    /// Paper defaults.
    pub fn paper() -> Self {
        Self {
            ne: 100,
            clf_hidden: 64,
            expansion_frac: 0.1,
        }
    }

    /// Reduced defaults.
    pub fn reduced() -> Self {
        Self {
            ne: 32,
            clf_hidden: 32,
            expansion_frac: 0.1,
        }
    }
}

/// Meta-training hyper-parameters (§VI-B/C, Algorithm 2).
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of meta-tasks `|TM|`.
    pub n_tasks: usize,
    /// Training epochs over the task set.
    pub epochs: usize,
    /// Tasks per global update batch.
    pub batch_size: usize,
    /// Local update steps (passes over the support set).
    pub local_steps: usize,
    /// Local learning rate ρ.
    pub rho: f64,
    /// Global (meta) learning rate λ.
    pub lambda: f64,
    /// Memory modes `m`.
    pub m: usize,
    /// Memory write rates: η (UIS-feature matrix), β (parameter matrix),
    /// γ (conversion tensor).
    pub eta: f64,
    /// See [`TrainConfig::eta`].
    pub beta: f64,
    /// See [`TrainConfig::eta`].
    pub gamma: f64,
    /// Initialization blend σ of Eq. 6 (`θR ⇐ φR − σ·ωR`).
    pub sigma: f64,
    /// Enable the memory-augmented optimization of §VI-B. Disabling it
    /// yields the plain-MAML ablation.
    pub use_memories: bool,
    /// Weight of the *direct* (pre-adaptation) query gradient mixed into
    /// the global update: `0` = pure FOMAML (post-adaptation residuals
    /// only), `1` = plain multi-task supervision. A balanced mix teaches
    /// the initialization both to classify from `(vR, vτ)` outright —
    /// which Fig. 8(d) shows the paper's meta-learner can do even at tiny
    /// online rates — and to adapt quickly.
    pub direct_weight: f64,
}

impl TrainConfig {
    /// Paper-scale defaults. Learning rates follow Fig. 8(d): small offline
    /// (deliberate meta-knowledge capture), large online. The global rate λ
    /// was re-calibrated for this from-scratch NN substrate: held-out
    /// adapted query loss decreases monotonically and the Meta*>Meta>Basic
    /// ordering of §VIII holds.
    pub fn paper() -> Self {
        Self {
            n_tasks: 5000,
            epochs: 6,
            batch_size: 10,
            local_steps: 3,
            rho: 0.05,
            lambda: 0.05,
            m: 4,
            eta: 0.01,
            beta: 0.01,
            gamma: 0.01,
            sigma: 0.1,
            use_memories: true,
            direct_weight: 0.7,
        }
    }

    /// Reduced defaults for tests/CI (calibrated: meta-training visibly
    /// reduces held-out adapted loss within seconds).
    pub fn reduced() -> Self {
        Self {
            n_tasks: 1000,
            epochs: 6,
            batch_size: 10,
            local_steps: 2,
            rho: 0.05,
            lambda: 0.05,
            m: 4,
            eta: 0.01,
            beta: 0.01,
            gamma: 0.01,
            sigma: 0.1,
            use_memories: true,
            direct_weight: 0.7,
        }
    }
}

/// Few-shot prediction optimizer (§VII-B).
#[derive(Debug, Clone)]
pub struct RefineConfig {
    /// Outer-subregion expansion `Nsup` as a fraction of `ku`
    /// (paper searches {20%, 30%, 40%}).
    pub nsup_frac: f64,
    /// Inner-subregion expansion `Nsub` as a fraction of `ku`
    /// (paper searches {5%, 10%, 15%}; must be ≪ `nsup_frac`).
    pub nsub_frac: f64,
}

impl Default for RefineConfig {
    fn default() -> Self {
        Self {
            nsup_frac: 0.3,
            nsub_frac: 0.1,
        }
    }
}

/// Numeric precision of batched pool scoring (see
/// [`Scorer::score`](crate::scorer::Scorer::score)).
///
/// The online loop re-scores the whole candidate pool through the
/// classifier every round, but only ever *ranks* the results (argmax /
/// threshold at 0) — so the scoring matmuls can run in `f32`, which the
/// compiler vectorizes to twice the SIMD width at half the memory
/// traffic. The `f64` path stays the reference: training, gradient
/// checks, and any consumer that compares raw score values use it.
///
/// **Accuracy contract:** `Fast` logits track `Exact` logits to within
/// `f32` round-off accumulated over the network's layers (empirically
/// ~`1e-4` at reduced scale), and the resulting *ranking* agrees with
/// `Exact` for every pair of candidates whose `f64` scores differ by more
/// than that noise floor — pinned by proptests in
/// `crates/core/tests/scoring_precision.rs`. Candidates inside the noise
/// floor may swap; predictions may differ only for logits within the
/// noise floor of 0.
///
/// ```
/// use lte_core::config::{LteConfig, ScoringPrecision};
///
/// let mut cfg = LteConfig::reduced();
/// assert_eq!(cfg.online.precision, ScoringPrecision::Exact); // default
/// cfg.online.precision = ScoringPrecision::Fast; // opt in to f32 ranking
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoringPrecision {
    /// Full `f64` scoring — bit-stable, the gradcheck/training reference.
    #[default]
    Exact,
    /// `f32` scoring for pool ranking — faster, rank-accurate outside the
    /// `f32` noise floor.
    Fast,
}

/// Online exploration parameters.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Local adaptation steps during online exploration.
    pub adapt_steps: usize,
    /// Online learning rate (Fig. 8(d): larger than the offline rate).
    pub lr: f64,
    /// Training epochs for the `Basic` (from-scratch) variant. Basic gets
    /// the same step budget as Meta for a fair online-compute comparison.
    pub basic_steps: usize,
    /// Pool-scoring precision (see [`ScoringPrecision`]).
    pub precision: ScoringPrecision,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            adapt_steps: 5,
            lr: 0.05,
            basic_steps: 5,
            precision: ScoringPrecision::Exact,
        }
    }
}

/// Aggregate configuration for the whole framework.
#[derive(Debug, Clone)]
pub struct LteConfig {
    /// Meta-task generation (§V).
    pub task: MetaTaskConfig,
    /// Classifier architecture (§VI-A).
    pub net: NetConfig,
    /// Meta-training (§VI-B/C).
    pub train: TrainConfig,
    /// Few-shot optimizer (§VII-B).
    pub refine: RefineConfig,
    /// Online exploration.
    pub online: OnlineConfig,
    /// Encoder settings (§VII-A) forwarded to `lte-preprocess`.
    pub encoder: lte_preprocess::EncoderConfig,
}

impl LteConfig {
    /// §VIII-A parameters at full scale.
    pub fn paper() -> Self {
        Self {
            task: MetaTaskConfig::paper(),
            net: NetConfig::paper(),
            train: TrainConfig::paper(),
            refine: RefineConfig::default(),
            online: OnlineConfig::default(),
            encoder: lte_preprocess::EncoderConfig::default(),
        }
    }

    /// Proportionally scaled-down parameters for tests and default bench
    /// runs; preserves every structural relationship (ks < ku < kq, Δ,
    /// expansion fraction, memory shape).
    pub fn reduced() -> Self {
        Self {
            task: MetaTaskConfig::reduced(),
            net: NetConfig::reduced(),
            train: TrainConfig::reduced(),
            refine: RefineConfig::default(),
            online: OnlineConfig::default(),
            encoder: lte_preprocess::EncoderConfig::default(),
        }
    }

    /// The labelling budget `B = ks + Δ` of this configuration.
    pub fn budget(&self) -> usize {
        self.task.budget()
    }

    /// Re-target the configuration at a different budget `B`.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.task = self.task.with_budget(budget);
        self
    }
}

impl Default for LteConfig {
    fn default() -> Self {
        Self::reduced()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_viii() {
        let c = LteConfig::paper();
        assert_eq!(c.task.ku, 100);
        assert_eq!(c.task.kq, 200);
        assert_eq!(c.task.delta, 5);
        assert_eq!(c.budget(), 30); // B = ks + Δ = 25 + 5
        assert_eq!(c.net.ne, 100);
        assert_eq!(c.train.n_tasks, 5000);
        assert_eq!(c.task.mode.alpha, 4);
        assert_eq!(c.task.mode.psi, 20);
    }

    #[test]
    fn with_budget_adjusts_ks() {
        let c = LteConfig::reduced().with_budget(50);
        assert_eq!(c.budget(), 50);
        assert_eq!(c.task.ks, 45);
    }

    #[test]
    #[should_panic(expected = "budget must exceed delta")]
    fn budget_below_delta_panics() {
        LteConfig::reduced().with_budget(3);
    }

    #[test]
    fn reduced_preserves_structure() {
        let c = LteConfig::reduced();
        assert!(c.task.ks < c.task.ku);
        assert!(c.task.ku < c.task.kq + c.task.ks);
        assert!(c.refine.nsub_frac < c.refine.nsup_frac);
    }
}
