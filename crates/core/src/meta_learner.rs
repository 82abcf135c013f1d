//! Memory-augmented meta-training (§VI-B/C, Algorithm 2).
//!
//! The meta-learner holds the *learned initialization parameters*
//! `φ = {φR, φτ, φclf}` plus the two memories. Training iterates meta-tasks
//! in batches:
//!
//! 1. **Local phase** (per task, Eqs. 6, 10–12): initialize task parameters
//!    `θR ⇐ φR − σ·ωR`, `θτ ⇐ φτ`, `θclf ⇐ φclf`, read the task-wise
//!    conversion matrix, and run a few SGD steps on the support set.
//! 2. **Global phase** (per batch, Eqs. 13–16): take one aggregated gradient
//!    step on the query-set loss *evaluated at the adapted parameters* and
//!    write the memories attentively.
//!
//! Following the paper (which adopts MAMO's one-step global update "to save
//! the cost of training"), the global update is **first-order**: the
//! gradient of the query loss at `θ̂` is applied to `φ` directly, without
//! differentiating through the local steps. This is the standard FOMAML
//! approximation.

use crate::classifier::{ClassifierConfig, Example, Grads, UisClassifier};
use crate::config::{NetConfig, TrainConfig};
use crate::memory::Memories;
use crate::meta_task::MetaTask;
use lte_data::rng::{derive_seed, seeded};

/// A classifier adapted to one task, plus the by-products the global phase
/// needs.
pub struct Adapted {
    /// The locally fine-tuned classifier (task parameters θ̂ and local Mcp).
    pub classifier: UisClassifier,
    /// Attention `aR` over memory modes (present iff memories are active).
    pub attention: Option<Vec<f64>>,
    /// Average support-loss gradient w.r.t. θR across local steps —
    /// the `∇θR LossFunc` written into `MR` (Eq. 15).
    pub avg_grad_r: Vec<f64>,
    /// Mean over the support set of each example's loss just before its
    /// own update, in the last local step (0 with no steps). It is not the
    /// loss of the adapted classifier.
    pub support_loss: f64,
}

/// Training progress report.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean query loss per epoch.
    pub epoch_query_loss: Vec<f64>,
    /// Number of tasks trained on.
    pub n_tasks: usize,
}

/// The meta-learner: learned initialization + memories.
#[derive(Debug, Clone)]
pub struct MetaLearner {
    arch: ClassifierConfig,
    host: UisClassifier,
    phi_r: Vec<f64>,
    phi_t: Vec<f64>,
    phi_clf: Vec<f64>,
    memories: Option<Memories>,
    cfg: TrainConfig,
}

impl MetaLearner {
    /// Create a randomly initialized meta-learner for a subspace whose
    /// UIS-feature width is `ku` and tuple-feature width is `nr`.
    pub fn new(ku: usize, nr: usize, net: &NetConfig, cfg: TrainConfig, seed: u64) -> Self {
        let arch = ClassifierConfig {
            ku,
            nr,
            ne: net.ne,
            clf_hidden: net.clf_hidden,
            use_conversion: cfg.use_memories,
        };
        let mut rng = seeded(derive_seed(seed, 100));
        let host = UisClassifier::new(arch.clone(), &mut rng);
        let phi_r = host.r_block.params();
        let phi_t = host.t_block.params();
        let phi_clf = host.clf_block.params();
        let memories = if cfg.use_memories {
            Some(Memories::init(cfg.m, ku, phi_r.len(), net.ne, &mut rng))
        } else {
            None
        };
        Self {
            arch,
            host,
            phi_r,
            phi_t,
            phi_clf,
            memories,
            cfg,
        }
    }

    /// The classifier architecture.
    pub fn arch(&self) -> &ClassifierConfig {
        &self.arch
    }

    /// The training configuration.
    pub fn train_config(&self) -> &TrainConfig {
        &self.cfg
    }

    /// Whether memory augmentation is active.
    pub fn has_memories(&self) -> bool {
        self.memories.is_some()
    }

    /// The learned initialization parameters `(φR, φτ, φclf)`.
    pub fn phi(&self) -> (&[f64], &[f64], &[f64]) {
        (&self.phi_r, &self.phi_t, &self.phi_clf)
    }

    /// The memories, when memory augmentation is active.
    pub fn memories(&self) -> Option<&Memories> {
        self.memories.as_ref()
    }

    /// Overwrite the learned initialization (model persistence).
    ///
    /// # Panics
    /// Panics on length mismatches with the architecture.
    pub fn set_phi(&mut self, phi_r: Vec<f64>, phi_t: Vec<f64>, phi_clf: Vec<f64>) {
        assert_eq!(phi_r.len(), self.phi_r.len(), "φR length mismatch");
        assert_eq!(phi_t.len(), self.phi_t.len(), "φτ length mismatch");
        assert_eq!(phi_clf.len(), self.phi_clf.len(), "φclf length mismatch");
        self.phi_r = phi_r;
        self.phi_t = phi_t;
        self.phi_clf = phi_clf;
    }

    /// Overwrite the memories (model persistence). Only valid when memory
    /// augmentation is active.
    ///
    /// # Panics
    /// Panics when called on a memory-less learner or with mismatched
    /// shapes.
    pub fn set_memories(&mut self, memories: Memories) {
        let current = self
            .memories
            .as_ref()
            .expect("learner was built without memories");
        assert_eq!(current.mvr.rows(), memories.mvr.rows(), "m mismatch");
        assert_eq!(current.mvr.cols(), memories.mvr.cols(), "ku mismatch");
        assert_eq!(current.mr.cols(), memories.mr.cols(), "|θR| mismatch");
        self.memories = Some(memories);
    }

    /// Local phase: adapt the learned initialization to a task defined by
    /// its UIS feature vector and support set (Eqs. 6, 10–12). Also the
    /// online fast-adaptation path ("the steps to train the meta-learners by
    /// user-labeled tuples are similar to the local update", §VI-C).
    pub fn adapt(&self, v_r: &[f64], support: &[Example], steps: usize, rho: f64) -> Adapted {
        self.adapt_weighted(v_r, support, steps, rho, 1.0)
    }

    /// [`MetaLearner::adapt`] with a positive-class weight for the local
    /// loss (used online, where label sets can be heavily imbalanced; see
    /// [`UisClassifier::balance_weight`]).
    pub fn adapt_weighted(
        &self,
        v_r: &[f64],
        support: &[Example],
        steps: usize,
        rho: f64,
        pos_weight: f64,
    ) -> Adapted {
        let (mut c, attention) = self.initialize(v_r);

        // Eq. 12: local SGD on the support set (Mcp updated by backprop too),
        // summing every step's θR gradient for the memory write (Eq. 15).
        let mut grad_r_acc = vec![0.0; self.phi_r.len()];
        let support_loss =
            c.train_epochs(v_r, support, steps, rho, pos_weight, Some(&mut grad_r_acc));
        let n_grads = steps * support.len();
        if n_grads > 0 {
            let inv = 1.0 / n_grads as f64;
            for g in grad_r_acc.iter_mut() {
                *g *= inv;
            }
        }
        Adapted {
            classifier: c,
            attention,
            avg_grad_r: grad_r_acc,
            support_loss,
        }
    }

    /// The task's classifier before its local steps (Eqs. 6, 10, 11), and
    /// the attention `aR` over memory modes when memories are active:
    /// `θR ⇐ φR − σ·ωR` and the task-wise `Mcp` read from the memories, the
    /// other blocks at their learned initialization.
    pub(crate) fn initialize(&self, v_r: &[f64]) -> (UisClassifier, Option<Vec<f64>>) {
        let mut c = self.host.clone();
        let attention = match &self.memories {
            Some(mem) => {
                let a = mem.attention(v_r);
                // Eq. 6: θR ⇐ φR − σ·ωR.
                let omega = mem.omega_r(&a);
                let mut theta_r = self.phi_r.clone();
                for (t, o) in theta_r.iter_mut().zip(&omega) {
                    *t -= self.cfg.sigma * o;
                }
                c.r_block.read_params(&theta_r);
                // Eq. 10: task-wise conversion matrix.
                c.conversion = Some(mem.read_mcp(&a));
                Some(a)
            }
            None => {
                c.r_block.read_params(&self.phi_r);
                None
            }
        };
        // Eq. 11: plain MAML initialization for the other blocks.
        c.t_block.read_params(&self.phi_t);
        c.clf_block.read_params(&self.phi_clf);
        (c, attention)
    }

    /// Algorithm 2: full meta-training over a task set.
    pub fn train(&mut self, tasks: &[MetaTask]) -> TrainReport {
        let mut report = TrainReport {
            epoch_query_loss: Vec::with_capacity(self.cfg.epochs),
            n_tasks: tasks.len(),
        };
        for _ in 0..self.cfg.epochs {
            let mut epoch_loss = 0.0;
            let mut n_query = 0usize;
            for batch in tasks.chunks(self.cfg.batch_size.max(1)) {
                let mut acc = Grads::zeros_like(&self.host);
                for task in batch {
                    let adapted =
                        self.adapt(&task.v_r, &task.support, self.cfg.local_steps, self.cfg.rho);

                    // Query-set gradients at the adapted parameters (the
                    // FOMAML term), the whole set in one batched pass.
                    let (qloss, mut qg) =
                        adapted.classifier.query_gradients(&task.v_r, &task.query);
                    let q_len = task.query.len().max(1);
                    let w = self.cfg.direct_weight.clamp(0.0, 1.0);
                    qg.scale((1.0 - w) / q_len as f64);
                    epoch_loss += qloss;
                    n_query += task.query.len();
                    acc.add(&qg);

                    // Direct term: query gradients at the *initialization*
                    // (zero-step adaptation), teaching φ to classify from
                    // (vR, vτ) without any labels.
                    if w > 0.0 {
                        let zero = self.adapt(&task.v_r, &task.support, 0, 0.0);
                        let (_, mut dg) = zero.classifier.query_gradients(&task.v_r, &task.query);
                        dg.scale(w / q_len as f64);
                        acc.add(&dg);
                    }

                    // Global memory writes (Eqs. 14–16), per task as in
                    // Algorithm 2 line 11.
                    if let Some(mem) = &mut self.memories {
                        let a = adapted
                            .attention
                            .as_ref()
                            .expect("attention exists when memories are active");
                        mem.update_mvr(a, &task.v_r, self.cfg.eta);
                        mem.update_mr(a, &adapted.avg_grad_r, self.cfg.beta);
                        let mcp_local = adapted
                            .classifier
                            .conversion
                            .as_ref()
                            .expect("conversion exists when memories are active");
                        mem.update_mcp(a, mcp_local, self.cfg.gamma);
                    }
                }
                // Eq. 13: one aggregated global step on φ.
                let scale = self.cfg.lambda / batch.len() as f64;
                for (p, g) in self.phi_r.iter_mut().zip(&acc.g_r) {
                    *p -= scale * g;
                }
                for (p, g) in self.phi_t.iter_mut().zip(&acc.g_t) {
                    *p -= scale * g;
                }
                for (p, g) in self.phi_clf.iter_mut().zip(&acc.g_clf) {
                    *p -= scale * g;
                }
            }
            report
                .epoch_query_loss
                .push(epoch_loss / n_query.max(1) as f64);
        }
        report
    }

    /// Mean query loss over tasks after local adaptation — the meta-learning
    /// generalization measure used by tests and the |TM| sweep (Fig. 8(c)).
    pub fn evaluate(&self, tasks: &[MetaTask]) -> f64 {
        if tasks.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        let mut n = 0usize;
        for task in tasks {
            let adapted = self.adapt(&task.v_r, &task.support, self.cfg.local_steps, self.cfg.rho);
            total += adapted.classifier.loss_on(&task.v_r, &task.query) * task.query.len() as f64;
            n += task.query.len();
        }
        total / n.max(1) as f64
    }

    /// Mean query *accuracy* over tasks after local adaptation.
    pub fn evaluate_accuracy(&self, tasks: &[MetaTask]) -> f64 {
        if tasks.is_empty() {
            return 0.0;
        }
        let mut correct = 0usize;
        let mut n = 0usize;
        for task in tasks {
            let adapted = self.adapt(&task.v_r, &task.support, self.cfg.local_steps, self.cfg.rho);
            for (x, y) in &task.query {
                if adapted.classifier.predict(&task.v_r, x) == *y {
                    correct += 1;
                }
            }
            n += task.query.len();
        }
        correct as f64 / n.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LteConfig;
    use crate::context::SubspaceContext;
    use crate::feature::expansion_degree;
    use crate::meta_task::generate_task_set;
    use lte_data::generator::generate_sdss;
    use lte_data::rng::seeded;
    use lte_data::subspace::Subspace;

    fn setup() -> (SubspaceContext, Vec<MetaTask>, LteConfig) {
        let table = generate_sdss(3000, 0);
        let mut cfg = LteConfig::reduced();
        cfg.train.n_tasks = 60;
        cfg.train.epochs = 2;
        let ctx = SubspaceContext::build(
            &table,
            Subspace::new(vec![0, 1]),
            &cfg.task,
            &cfg.encoder,
            5,
        );
        let l = expansion_degree(cfg.task.ku, cfg.net.expansion_frac);
        let tasks = generate_task_set(&ctx, &cfg.task, l, cfg.train.n_tasks, &mut seeded(6));
        (ctx, tasks, cfg)
    }

    #[test]
    fn training_reduces_query_loss() {
        let (ctx, tasks, cfg) = setup();
        let mut learner = MetaLearner::new(
            cfg.task.ku,
            ctx.feature_width(),
            &cfg.net,
            cfg.train.clone(),
            7,
        );
        let before = learner.evaluate(&tasks[..20]);
        learner.train(&tasks);
        let after = learner.evaluate(&tasks[..20]);
        assert!(
            after < before,
            "meta-training should reduce adapted query loss: {before} -> {after}"
        );
    }

    #[test]
    fn adaptation_improves_over_initialization() {
        let (ctx, tasks, cfg) = setup();
        let mut learner = MetaLearner::new(
            cfg.task.ku,
            ctx.feature_width(),
            &cfg.net,
            cfg.train.clone(),
            8,
        );
        learner.train(&tasks);
        // Zero-step "adaptation" vs the configured local steps.
        let task = tasks.iter().find(|t| t.is_balanced()).unwrap();
        let zero = learner.adapt(&task.v_r, &task.support, 0, 0.0);
        let adapted = learner.adapt(
            &task.v_r,
            &task.support,
            cfg.train.local_steps * 3,
            cfg.train.rho,
        );
        let loss_zero = zero.classifier.loss_on(&task.v_r, &task.support);
        let loss_adapted = adapted.classifier.loss_on(&task.v_r, &task.support);
        assert!(
            loss_adapted < loss_zero,
            "local steps must fit the support set: {loss_zero} -> {loss_adapted}"
        );
    }

    #[test]
    fn memories_can_be_disabled_for_plain_maml() {
        let (ctx, tasks, mut cfg) = setup();
        cfg.train.use_memories = false;
        let mut learner = MetaLearner::new(
            cfg.task.ku,
            ctx.feature_width(),
            &cfg.net,
            cfg.train.clone(),
            9,
        );
        assert!(!learner.has_memories());
        assert!(!learner.arch().use_conversion);
        let report = learner.train(&tasks[..30]);
        assert_eq!(report.epoch_query_loss.len(), cfg.train.epochs);
        // Adaptation still works without memories.
        let adapted = learner.adapt(&tasks[0].v_r, &tasks[0].support, 2, 0.05);
        assert!(adapted.attention.is_none());
        assert!(adapted.classifier.conversion.is_none());
    }

    #[test]
    fn avg_grad_r_has_theta_r_shape() {
        let (ctx, tasks, cfg) = setup();
        let learner = MetaLearner::new(
            cfg.task.ku,
            ctx.feature_width(),
            &cfg.net,
            cfg.train.clone(),
            10,
        );
        let adapted = learner.adapt(&tasks[0].v_r, &tasks[0].support, 1, 0.05);
        assert_eq!(
            adapted.avg_grad_r.len(),
            cfg.task.ku * cfg.net.ne + cfg.net.ne
        );
        assert!(adapted.avg_grad_r.iter().any(|&g| g != 0.0));
    }

    #[test]
    fn report_tracks_epochs() {
        let (ctx, tasks, cfg) = setup();
        let mut learner = MetaLearner::new(
            cfg.task.ku,
            ctx.feature_width(),
            &cfg.net,
            cfg.train.clone(),
            11,
        );
        let report = learner.train(&tasks[..20]);
        assert_eq!(report.n_tasks, 20);
        assert_eq!(report.epoch_query_loss.len(), cfg.train.epochs);
        assert!(report.epoch_query_loss.iter().all(|l| l.is_finite()));
    }
}
