//! The basic UIS classifier (§VI-A) with optional embedding conversion.
//!
//! Three building blocks, all fully connected:
//!
//! * **UIS feature embedding** `f_θR : R^ku → R^Ne` over the expanded
//!   interest vector `vR` (Eq. 3),
//! * **data tuple embedding** `f_θτ : R^Nr → R^Ne` over the preprocessed
//!   tuple vector `vτ` (Eq. 4),
//! * **classification block** `f_θclf` over the concatenation
//!   `[embR, embτ]` producing the interestingness logit (Eq. 5).
//!
//! When memory augmentation is active, a task-wise conversion matrix
//! `Mcp ∈ R^{Ne×2Ne}` transforms the concatenation before classification
//! (Eq. 9); `Mcp` is read from the global conversion memory per task and
//! locally fine-tuned by backpropagation together with θ (§VI-B).

use lte_nn::loss::bce_with_logits;
use lte_nn::matrix::l1_block_rows_sized;
use lte_nn::{Activation, Epilogue, Matrix, Matrix32, Mlp, MlpBatchCache, MlpCache};
use rand::Rng;

/// Architecture of the UIS classifier.
#[derive(Debug, Clone)]
pub struct ClassifierConfig {
    /// UIS-feature input width (`ku`).
    pub ku: usize,
    /// Tuple-feature input width (`Nr`, encoder dependent).
    pub nr: usize,
    /// Embedding size `Ne`.
    pub ne: usize,
    /// Hidden width of the classification block.
    pub clf_hidden: usize,
    /// Insert the `Ne × 2Ne` conversion matrix before classification
    /// (the memory-augmented variant).
    pub use_conversion: bool,
}

impl ClassifierConfig {
    /// Classification-block input width: `Ne` with conversion, `2Ne` without.
    pub fn clf_input(&self) -> usize {
        if self.use_conversion {
            self.ne
        } else {
            2 * self.ne
        }
    }
}

/// One labeled training example: encoded tuple features plus label.
pub type Example = (Vec<f64>, bool);

/// Forward-pass cache for backprop. [`UisClassifier::train_step`] reuses
/// its buffers, so one cache serves a whole training loop without
/// allocating.
#[derive(Default)]
pub struct ForwardCache {
    r_cache: MlpCache,
    t_cache: MlpCache,
    concat: Vec<f64>,
    /// `Mcp·concat` with conversion; unused without.
    converted: Vec<f64>,
    clf_cache: MlpCache,
    /// [`UisClassifier::train_step`]'s backward scratch: the gradients of
    /// the classification block's input and of the concatenation.
    d_clf_in: Vec<f64>,
    d_concat: Vec<f64>,
    /// The produced logit.
    pub logit: f64,
}

/// Parameter gradients of one backward pass, grouped per block.
pub struct Grads {
    /// Flat gradient of the UIS-feature embedding block.
    pub g_r: Vec<f64>,
    /// Flat gradient of the tuple embedding block.
    pub g_t: Vec<f64>,
    /// Flat gradient of the classification block.
    pub g_clf: Vec<f64>,
    /// Gradient of the conversion matrix (present iff conversion is used).
    pub g_conv: Option<Matrix>,
}

impl Grads {
    /// Zeroed gradients matching a classifier's shapes.
    pub fn zeros_like(c: &UisClassifier) -> Self {
        Self {
            g_r: vec![0.0; c.r_block.param_count()],
            g_t: vec![0.0; c.t_block.param_count()],
            g_clf: vec![0.0; c.clf_block.param_count()],
            g_conv: c
                .conversion
                .as_ref()
                .map(|m| Matrix::zeros(m.rows(), m.cols())),
        }
    }

    /// Scale all gradients in place.
    pub fn scale(&mut self, s: f64) {
        for g in self.g_r.iter_mut() {
            *g *= s;
        }
        for g in self.g_t.iter_mut() {
            *g *= s;
        }
        for g in self.g_clf.iter_mut() {
            *g *= s;
        }
        if let Some(m) = &mut self.g_conv {
            m.scale(s);
        }
    }

    /// Accumulate another gradient set (shapes must match).
    pub fn add(&mut self, other: &Grads) {
        for (a, b) in self.g_r.iter_mut().zip(&other.g_r) {
            *a += b;
        }
        for (a, b) in self.g_t.iter_mut().zip(&other.g_t) {
            *a += b;
        }
        for (a, b) in self.g_clf.iter_mut().zip(&other.g_clf) {
            *a += b;
        }
        if let (Some(a), Some(b)) = (&mut self.g_conv, &other.g_conv) {
            a.add_scaled(b, 1.0);
        }
    }
}

/// The three-block UIS classifier.
#[derive(Debug, Clone)]
pub struct UisClassifier {
    /// UIS-feature embedding block (`f_θR`).
    pub r_block: Mlp,
    /// Tuple embedding block (`f_θτ`).
    pub t_block: Mlp,
    /// Classification block (`f_θclf`), outputs a logit.
    pub clf_block: Mlp,
    /// Task-wise conversion matrix `Mcp` (memory-augmented variant only).
    pub conversion: Option<Matrix>,
    cfg: ClassifierConfig,
}

impl UisClassifier {
    /// Randomly initialized classifier with the given architecture.
    pub fn new<R: Rng + ?Sized>(cfg: ClassifierConfig, rng: &mut R) -> Self {
        let r_block = Mlp::new(&[cfg.ku, cfg.ne], Activation::Relu, Activation::Relu, rng);
        let t_block = Mlp::new(&[cfg.nr, cfg.ne], Activation::Relu, Activation::Relu, rng);
        let clf_block = Mlp::new(
            &[cfg.clf_input(), cfg.clf_hidden, 1],
            Activation::Relu,
            Activation::Identity,
            rng,
        );
        let conversion = if cfg.use_conversion {
            // Near-identity initialization: [I | I] / 2 plus noise, so the
            // conversion starts as an average of the two embeddings rather
            // than scrambling them.
            let ne = cfg.ne;
            let mut m = Matrix::uniform(ne, 2 * ne, 0.02, rng);
            for i in 0..ne {
                m.set(i, i, m.get(i, i) + 0.5);
                m.set(i, ne + i, m.get(i, ne + i) + 0.5);
            }
            Some(m)
        } else {
            None
        };
        Self {
            r_block,
            t_block,
            clf_block,
            conversion,
            cfg,
        }
    }

    /// The architecture this classifier was built with.
    pub fn config(&self) -> &ClassifierConfig {
        &self.cfg
    }

    /// Forward pass producing the interestingness logit.
    ///
    /// # Panics
    /// Panics when input widths disagree with the architecture.
    pub fn forward(&self, v_r: &[f64], v_t: &[f64]) -> ForwardCache {
        let mut cache = ForwardCache::default();
        self.forward_into(v_r, v_t, &mut cache);
        cache
    }

    /// [`UisClassifier::forward`] into a reused cache: the single-example
    /// forward pass every other one wraps.
    fn forward_into(&self, v_r: &[f64], v_t: &[f64], cache: &mut ForwardCache) {
        assert_eq!(v_r.len(), self.cfg.ku, "vR width mismatch");
        assert_eq!(v_t.len(), self.cfg.nr, "vτ width mismatch");
        self.r_block.forward_into(v_r, &mut cache.r_cache);
        self.t_block.forward_into(v_t, &mut cache.t_cache);
        cache.concat.clear();
        cache.concat.extend_from_slice(cache.r_cache.output());
        cache.concat.extend_from_slice(cache.t_cache.output());

        let clf_in = match &self.conversion {
            Some(mcp) => {
                cache.converted.resize(mcp.rows(), 0.0);
                mcp.matvec_into(&cache.concat, &mut cache.converted);
                &cache.converted
            }
            None => &cache.concat,
        };
        self.clf_block.forward_into(clf_in, &mut cache.clf_cache);
        cache.logit = cache.clf_cache.output()[0];
    }

    /// Convenience: logit only.
    pub fn logit(&self, v_r: &[f64], v_t: &[f64]) -> f64 {
        self.forward(v_r, v_t).logit
    }

    /// Serial `f64` scoring of one row block: logits for many tuples
    /// sharing one UIS feature vector — the pool-scoring shape of the
    /// online phase, where a whole retrieval pool is predicted against a
    /// single user's `vR`.
    ///
    /// The UIS embedding is computed once, and the conversion (when
    /// present) splits into a pool-constant left half plus one batched
    /// product: `Mcp·[embR | embτ] = Mcp_L·embR + Mcp_R·embτ`, where
    /// `r_const = Mcp_L·embR` is shared by every tuple and rides the
    /// product's kernel epilogue as its bias. The tuple embeddings and
    /// classification then run as one [`Mlp::forward_batch`] pass per
    /// block, one row tile at a time ([`UisClassifier::tile_rows`]), which
    /// keeps every temporary in L1 and well under the allocator's mmap
    /// threshold. Every logit agrees with [`UisClassifier::logit`] on the
    /// same tuple to within rounding (the split regroups the conversion
    /// sum), depends only on its own tuple, and is deterministic — neither
    /// batch composition nor tiling changes a tuple's logit.
    fn logits_block(&self, v_r: &[f64], tuples: &[Vec<f64>]) -> Vec<f64> {
        let r_emb = self.r_block.forward(v_r);
        let ne = self.cfg.ne;
        // `r_const` beside `Mcp_R` with conversion, otherwise `embR`, which
        // heads every concatenated row.
        let (row_const, mcp_right) = match &self.conversion {
            Some(mcp) => {
                let (r_const, mcp_right) = self.split_conversion(mcp, &r_emb);
                (r_const, Some(mcp_right))
            }
            None => (r_emb, None),
        };

        let mut logits = Vec::with_capacity(tuples.len());
        for tile in tuples.chunks(self.tile_rows(std::mem::size_of::<f64>())) {
            let t_emb = self
                .t_block
                .forward_batch(&Matrix::from_rows(tile, self.cfg.nr));
            let clf_in = match &mcp_right {
                Some(mcp_right) => t_emb.matmul_nt_ep(mcp_right, Epilogue::bias_only(&row_const)),
                None => {
                    let mut concat = Matrix::zeros(tile.len(), 2 * ne);
                    for r in 0..tile.len() {
                        let row = concat.row_mut(r);
                        row[..ne].copy_from_slice(&row_const);
                        row[ne..].copy_from_slice(t_emb.row(r));
                    }
                    concat
                }
            };
            logits.extend_from_slice(self.clf_block.forward_batch(&clf_in).data());
        }
        logits
    }

    /// Serial `f32` scoring of one row block: same algebra and row tiles as
    /// [`UisClassifier::logits_block`], with the pool-constant pieces
    /// (UIS embedding, conversion split, every layer's demoted weights)
    /// computed once per block and the per-tuple matmuls run on the `f32`
    /// kernels.
    fn logits_block_f32(&self, v_r: &[f64], tuples: &[Vec<f64>]) -> Vec<f32> {
        let r_emb = self.r_block.forward(v_r);
        let t_block = self.t_block.to_f32();
        let clf_block = self.clf_block.to_f32();
        let ne = self.cfg.ne;
        // The demoted pool constant: `r_const = Mcp_L·embR` beside `Mcp_R`
        // with conversion, otherwise `embR`, which heads every
        // concatenated row.
        let (row_const, mcp_right) = match &self.conversion {
            Some(mcp) => {
                let (r_const, mcp_right) = self.split_conversion(mcp, &r_emb);
                (r_const, Some(Matrix32::from_f64(&mcp_right)))
            }
            None => (r_emb, None),
        };
        let row_const: Vec<f32> = row_const.iter().map(|&v| v as f32).collect();

        let mut logits = Vec::with_capacity(tuples.len());
        for tile in tuples.chunks(self.tile_rows(std::mem::size_of::<f32>())) {
            let t_emb = t_block.forward_batch(&Matrix32::from_rows(tile, self.cfg.nr));
            let clf_in = match &mcp_right {
                // The pool-constant `r_const` rides the kernel epilogue
                // instead of a second full pass over the product.
                Some(mcp_right) => t_emb.matmul_nt_ep(mcp_right, Epilogue::bias_only(&row_const)),
                None => {
                    let mut concat = Matrix32::zeros(tile.len(), 2 * ne);
                    for r in 0..tile.len() {
                        let row = concat.row_mut(r);
                        row[..ne].copy_from_slice(&row_const);
                        row[ne..].copy_from_slice(t_emb.row(r));
                    }
                    concat
                }
            };
            logits.extend_from_slice(clf_block.forward_batch(&clf_in).data());
        }
        logits
    }

    /// Rows per scoring tile at `elem_size` bytes per value: as many as
    /// keep the widest per-tile temporary (input, embedding, classifier
    /// input or hidden layer) within the 32 KiB L1 budget the kernels tile
    /// by. At `ne = 32` with conversion that is 256 rows of `f32` (`Fast`)
    /// or 128 of `f64` (`Exact`).
    fn tile_rows(&self, elem_size: usize) -> usize {
        let cfg = &self.cfg;
        let widest = cfg.nr.max(cfg.ne).max(cfg.clf_input()).max(cfg.clf_hidden);
        l1_block_rows_sized(widest, 8, elem_size)
    }

    /// Split the conversion `Mcp·[embR | embτ]` into the pool-constant
    /// left product `Mcp_L·embR` and the right half `Mcp_R` as its own
    /// matrix (so the batch product is `embτ·Mcp_Rᵀ`).
    fn split_conversion(&self, mcp: &Matrix, r_emb: &[f64]) -> (Vec<f64>, Matrix) {
        let ne = self.cfg.ne;
        let mut r_const = vec![0.0; ne];
        let mut mcp_right = Matrix::zeros(ne, ne);
        for (i, rc) in r_const.iter_mut().enumerate() {
            let row = mcp.row(i);
            *rc = lte_nn::matrix::dot(&row[..ne], r_emb);
            mcp_right.row_mut(i).copy_from_slice(&row[ne..]);
        }
        (r_const, mcp_right)
    }

    /// Convenience: hard prediction (`logit > 0`).
    pub fn predict(&self, v_r: &[f64], v_t: &[f64]) -> bool {
        self.logit(v_r, v_t) > 0.0
    }

    /// Backward pass from `dL/dlogit`, accumulating into `grads`.
    pub fn backward(&self, cache: &ForwardCache, dlogit: f64, grads: &mut Grads) {
        let d_clf_in = self
            .clf_block
            .backward(&cache.clf_cache, &[dlogit], &mut grads.g_clf);

        let d_concat = match &self.conversion {
            Some(mcp) => {
                // z = Mcp·cat: dMcp = d_z ⊗ cat, dcat = Mcpᵀ·d_z.
                if let Some(gm) = &mut grads.g_conv {
                    gm.add_outer(&d_clf_in, &cache.concat, 1.0);
                }
                mcp.matvec_t(&d_clf_in)
            }
            None => d_clf_in,
        };

        let ne = self.cfg.ne;
        self.r_block
            .backward(&cache.r_cache, &d_concat[..ne], &mut grads.g_r);
        self.t_block
            .backward(&cache.t_cache, &d_concat[ne..], &mut grads.g_t);
    }

    /// BCE loss and gradient of one example; accumulates into `grads` and
    /// returns the loss.
    pub fn loss_backward(&self, v_r: &[f64], example: &Example, grads: &mut Grads) -> f64 {
        self.loss_backward_weighted(v_r, example, grads, 1.0)
    }

    /// [`UisClassifier::loss_backward`] with a positive-class weight.
    ///
    /// Few-shot exploration labels are heavily imbalanced when the interest
    /// region is small (a handful of positives among `B` labels); weighting
    /// positive examples by `pos_weight > 1` keeps the adapted classifier
    /// from collapsing to the all-negative prediction.
    pub fn loss_backward_weighted(
        &self,
        v_r: &[f64],
        example: &Example,
        grads: &mut Grads,
        pos_weight: f64,
    ) -> f64 {
        let cache = self.forward(v_r, &example.0);
        let (loss, dlogit) = weighted_bce(cache.logit, example.1, pos_weight);
        self.backward(&cache, dlogit, grads);
        loss
    }

    /// The summed BCE loss and summed parameter gradients of a labeled set
    /// that shares one UIS vector `v_r`, such as a meta-task's query set,
    /// in one batched pass. The gradients are fresh; nothing is added into
    /// a caller's buffer.
    ///
    /// The UIS embedding runs once. The tuple embedding, the full
    /// conversion `Mcp·[embR | embτ]` and the classification block run as
    /// one [`Mlp::forward_batch_cache`] pass each over the whole set. The
    /// backward pass is batch products on the same kernels
    /// ([`Mlp::backward_batch`]), and it skips the input gradients of the
    /// two embedding blocks, which no parameter needs.
    ///
    /// For finite operands the result equals, **bit for bit**,
    /// [`UisClassifier::loss_backward`] of each example in turn into
    /// [`Grads::zeros_like`], with the losses summed from `0.0` in example
    /// order: every gradient entry is summed from `+0.0` in example order,
    /// as the loop sums it (see [`Dense::backward_batch`](lte_nn::Dense::backward_batch)
    /// for the `±0` products this adds where the loop skips a zero row).
    ///
    /// # Panics
    /// Panics when input widths disagree with the architecture.
    pub fn query_gradients(&self, v_r: &[f64], examples: &[Example]) -> (f64, Grads) {
        assert_eq!(v_r.len(), self.cfg.ku, "vR width mismatch");
        let (n, ne, nr) = (examples.len(), self.cfg.ne, self.cfg.nr);
        let r_cache = self.r_block.forward_cache(v_r);
        let mut x_t = Matrix::zeros(n, nr);
        for (e, (x, _)) in examples.iter().enumerate() {
            assert_eq!(x.len(), nr, "vτ width mismatch");
            x_t.row_mut(e).copy_from_slice(x);
        }
        let t_cache = self.t_block.forward_batch_cache(x_t);
        let mut concat = Matrix::zeros(n, 2 * ne);
        for e in 0..n {
            let row = concat.row_mut(e);
            row[..ne].copy_from_slice(r_cache.output());
            row[ne..].copy_from_slice(t_cache.output().row(e));
        }
        // With conversion the concatenation is kept for `Mcp`'s gradient.
        let (clf_cache, concat) = match &self.conversion {
            Some(mcp) => (
                self.clf_block.forward_batch_cache(concat.matmul_nt(mcp)),
                Some(concat),
            ),
            None => (self.clf_block.forward_batch_cache(concat), None),
        };

        let mut loss = 0.0;
        let mut dlogit = Matrix::zeros(n, 1);
        for ((logit, d), (_, label)) in clf_cache
            .output()
            .data()
            .iter()
            .zip(dlogit.data_mut())
            .zip(examples)
        {
            let (l, dl) = weighted_bce(*logit, *label, 1.0);
            loss += l;
            *d = dl;
        }

        let mut g_clf = vec![0.0; self.clf_block.param_count()];
        let d_clf_in = self
            .clf_block
            .backward_batch(&clf_cache, dlogit, &mut g_clf, true)
            .expect("input gradient requested");
        // z = Mcp·cat: dMcp = dZᵀ·Cat, dCat = dZ·Mcp.
        let (d_concat, g_conv) = match (&self.conversion, concat) {
            (Some(mcp), Some(concat)) => {
                (d_clf_in.matmul_nn(mcp), Some(d_clf_in.matmul_tn(&concat)))
            }
            _ => (d_clf_in, None),
        };
        let (mut d_r, mut d_t) = (Matrix::zeros(n, ne), Matrix::zeros(n, ne));
        for e in 0..n {
            let (r, t) = d_concat.row(e).split_at(ne);
            d_r.row_mut(e).copy_from_slice(r);
            d_t.row_mut(e).copy_from_slice(t);
        }
        let mut g_r = vec![0.0; self.r_block.param_count()];
        let mut g_t = vec![0.0; self.t_block.param_count()];
        let r_batch = MlpBatchCache::repeat(&r_cache, n);
        self.r_block.backward_batch(&r_batch, d_r, &mut g_r, false);
        self.t_block.backward_batch(&t_cache, d_t, &mut g_t, false);
        let grads = Grads {
            g_r,
            g_t,
            g_clf,
            g_conv,
        };
        (loss, grads)
    }

    /// One per-sample SGD step on `example`, the step
    /// [`UisClassifier::train_local_weighted`] and
    /// [`MetaLearner::adapt_weighted`](crate::meta_learner::MetaLearner::adapt_weighted)
    /// run: forward into `cache`, then backpropagate and apply `p -= lr·g`
    /// to every block and to `Mcp` as each gradient is formed, with no
    /// gradient buffer. Returns the example's loss before the update.
    ///
    /// For any finite `lr ≥ 0` the classifier ends **bit for bit** where
    /// [`UisClassifier::loss_backward_weighted`] into zeroed [`Grads`]
    /// followed by [`UisClassifier::sgd_step`] leaves it, and the loss is
    /// the same: every input gradient, and the conversion's `Mcpᵀ·d`, is
    /// taken from the weights before their update (see
    /// [`Mlp::train_step`]). `tap_r`, when given, receives `+=` each entry
    /// of the θR gradient (`Grads::g_r`), as `adapt_weighted` sums it for
    /// the memory write.
    ///
    /// # Panics
    /// Panics when input widths disagree with the architecture or `tap_r`
    /// is not `|θR|` long.
    pub fn train_step(
        &mut self,
        v_r: &[f64],
        example: &Example,
        lr: f64,
        pos_weight: f64,
        cache: &mut ForwardCache,
        tap_r: Option<&mut [f64]>,
    ) -> f64 {
        self.forward_into(v_r, &example.0, cache);
        let (loss, dlogit) = weighted_bce(cache.logit, example.1, pos_weight);
        let ForwardCache {
            r_cache,
            t_cache,
            concat,
            clf_cache,
            d_clf_in,
            d_concat,
            ..
        } = cache;
        d_clf_in.resize(self.cfg.clf_input(), 0.0);
        self.clf_block
            .train_step(clf_cache, &[dlogit], lr, None, Some(d_clf_in));
        let d_concat = match &mut self.conversion {
            Some(mcp) => {
                d_concat.clear();
                d_concat.resize(concat.len(), 0.0);
                step_conversion(mcp, d_clf_in, concat, lr, d_concat);
                d_concat
            }
            None => d_clf_in,
        };
        let ne = self.cfg.ne;
        self.r_block
            .train_step(r_cache, &d_concat[..ne], lr, tap_r, None);
        self.t_block
            .train_step(t_cache, &d_concat[ne..], lr, None, None);
        loss
    }

    /// Positive-class weight for a labeled set: `sqrt(n_neg / n_pos)`,
    /// clamped to `[1, 5]` — a gentle re-balancing that never *downweights*
    /// positives and caps the correction for extreme imbalance.
    pub fn balance_weight(examples: &[Example]) -> f64 {
        let pos = examples.iter().filter(|(_, y)| *y).count();
        let neg = examples.len() - pos;
        if pos == 0 || neg == 0 {
            1.0
        } else {
            (neg as f64 / pos as f64).sqrt().clamp(1.0, 5.0)
        }
    }

    /// Apply an SGD step to all blocks (and `Mcp` if present).
    pub fn sgd_step(&mut self, grads: &Grads, lr: f64) {
        self.r_block.sgd_step(&grads.g_r, lr);
        self.t_block.sgd_step(&grads.g_t, lr);
        self.clf_block.sgd_step(&grads.g_clf, lr);
        if let (Some(m), Some(g)) = (&mut self.conversion, &grads.g_conv) {
            m.add_scaled(g, -lr);
        }
    }

    /// Train on labeled examples with per-sample SGD — used for local
    /// adaptation (Eq. 12) and for the from-scratch `Basic` variant.
    /// Returns the average loss of the *final* pass.
    pub fn train_local(&mut self, v_r: &[f64], examples: &[Example], steps: usize, lr: f64) -> f64 {
        self.train_local_weighted(v_r, examples, steps, lr, 1.0)
    }

    /// [`UisClassifier::train_local`] with a positive-class weight (see
    /// [`UisClassifier::balance_weight`]).
    pub fn train_local_weighted(
        &mut self,
        v_r: &[f64],
        examples: &[Example],
        steps: usize,
        lr: f64,
        pos_weight: f64,
    ) -> f64 {
        self.train_epochs(v_r, examples, steps, lr, pos_weight, None)
    }

    /// The per-sample SGD loop behind [`UisClassifier::train_local_weighted`]
    /// and [`MetaLearner::adapt_weighted`](crate::meta_learner::MetaLearner::adapt_weighted):
    /// `steps` passes of [`UisClassifier::train_step`] over `examples`, on
    /// one reused cache. Returns the mean of each example's loss before its
    /// update, over the last pass (0 when `steps == 0`).
    pub(crate) fn train_epochs(
        &mut self,
        v_r: &[f64],
        examples: &[Example],
        steps: usize,
        lr: f64,
        pos_weight: f64,
        mut tap_r: Option<&mut [f64]>,
    ) -> f64 {
        let mut cache = ForwardCache::default();
        let mut last_avg = 0.0;
        for _ in 0..steps {
            let mut total = 0.0;
            for ex in examples {
                total += self.train_step(v_r, ex, lr, pos_weight, &mut cache, tap_r.as_deref_mut());
            }
            last_avg = total / examples.len().max(1) as f64;
        }
        last_avg
    }

    /// Average BCE loss over examples (no updates).
    pub fn loss_on(&self, v_r: &[f64], examples: &[Example]) -> f64 {
        if examples.is_empty() {
            return 0.0;
        }
        examples
            .iter()
            .map(|(x, y)| {
                let logit = self.logit(v_r, x);
                bce_with_logits(logit, if *y { 1.0 } else { 0.0 }).0
            })
            .sum::<f64>()
            / examples.len() as f64
    }

    /// Classification accuracy over examples.
    pub fn accuracy_on(&self, v_r: &[f64], examples: &[Example]) -> f64 {
        if examples.is_empty() {
            return 0.0;
        }
        let correct = examples
            .iter()
            .filter(|(x, y)| self.predict(v_r, x) == *y)
            .count();
        correct as f64 / examples.len() as f64
    }
}

/// Weighted BCE of one logit: `(loss, dloss/dlogit)`, both scaled by
/// `pos_weight` for a positive label.
fn weighted_bce(logit: f64, label: bool, pos_weight: f64) -> (f64, f64) {
    let target = if label { 1.0 } else { 0.0 };
    let (mut loss, mut dlogit) = bce_with_logits(logit, target);
    if label && pos_weight != 1.0 {
        loss *= pos_weight;
        dlogit *= pos_weight;
    }
    (loss, dlogit)
}

/// The conversion's share of [`UisClassifier::train_step`]: `d_concat`
/// (zeroed on entry) receives `Mcpᵀ·d` of the rows before their update,
/// and each row with `d[r] != 0` then moves by the reference's
/// `Mcp + (−lr)·(0.0 + d[r]·concat)` (`Matrix::add_outer` into a zeroed
/// gradient, then `Matrix::add_scaled`). Rows with `d[r] == 0` are skipped
/// by both.
fn step_conversion(mcp: &mut Matrix, d: &[f64], concat: &[f64], lr: f64, d_concat: &mut [f64]) {
    let neg_lr = -lr;
    for (r, &dr) in d.iter().enumerate() {
        if dr == 0.0 {
            continue;
        }
        let row = mcp.row_mut(r);
        for (acc, &m) in d_concat.iter_mut().zip(row.iter()) {
            *acc += dr * m;
        }
        for (m, &c) in row.iter_mut().zip(concat) {
            *m += neg_lr * (0.0 + dr * c);
        }
    }
}

/// The unified scoring surface (see [`crate::scorer`]): the classifier's
/// serial block kernels plugged into the shared block-cutting policy.
impl crate::scorer::Scorer for UisClassifier {
    fn vr_width(&self) -> usize {
        self.cfg.ku
    }

    fn score_block(
        &self,
        v_r: &[f64],
        rows: &[Vec<f64>],
        precision: crate::config::ScoringPrecision,
    ) -> Vec<f64> {
        match precision {
            crate::config::ScoringPrecision::Exact => self.logits_block(v_r, rows),
            crate::config::ScoringPrecision::Fast => self
                .logits_block_f32(v_r, rows)
                .into_iter()
                .map(f64::from)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lte_data::rng::seeded;

    fn cfg(use_conversion: bool) -> ClassifierConfig {
        ClassifierConfig {
            ku: 8,
            nr: 6,
            ne: 10,
            clf_hidden: 12,
            use_conversion,
        }
    }

    /// Toy task: tuple interesting iff feature 0 > 0.5 (vR held constant).
    fn toy_examples() -> Vec<Example> {
        let mut ex = Vec::new();
        for i in 0..40 {
            let v = i as f64 / 40.0;
            let x = vec![v, 1.0 - v, 0.3, v * v, 0.5, 0.1];
            ex.push((x, v > 0.5));
        }
        ex
    }

    #[test]
    fn forward_shapes_and_clf_input() {
        assert_eq!(cfg(true).clf_input(), 10);
        assert_eq!(cfg(false).clf_input(), 20);
        let mut rng = seeded(0);
        let c = UisClassifier::new(cfg(true), &mut rng);
        let cache = c.forward(&[0.0; 8], &[0.0; 6]);
        assert!(cache.logit.is_finite());
        assert!(c.conversion.is_some());
        let c = UisClassifier::new(cfg(false), &mut rng);
        assert!(c.conversion.is_none());
    }

    #[test]
    fn training_fits_toy_task_with_and_without_conversion() {
        for use_conv in [false, true] {
            let mut rng = seeded(1);
            let mut c = UisClassifier::new(cfg(use_conv), &mut rng);
            let v_r = vec![1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0];
            let examples = toy_examples();
            let before = c.accuracy_on(&v_r, &examples);
            c.train_local(&v_r, &examples, 60, 0.05);
            let after = c.accuracy_on(&v_r, &examples);
            assert!(
                after >= 0.9,
                "conversion={use_conv}: accuracy {before} -> {after}"
            );
        }
    }

    #[test]
    fn loss_decreases_during_training() {
        let mut rng = seeded(2);
        let mut c = UisClassifier::new(cfg(true), &mut rng);
        let v_r = vec![0.0; 8];
        let examples = toy_examples();
        let before = c.loss_on(&v_r, &examples);
        c.train_local(&v_r, &examples, 30, 0.05);
        let after = c.loss_on(&v_r, &examples);
        assert!(after < before, "loss {before} -> {after}");
    }

    #[test]
    fn gradients_match_finite_differences_through_all_blocks() {
        let mut rng = seeded(3);
        let c = UisClassifier::new(cfg(true), &mut rng);
        let v_r: Vec<f64> = (0..8).map(|i| (i % 2) as f64).collect();
        let x: Vec<f64> = (0..6).map(|i| 0.1 * i as f64).collect();
        let example = (x, true);

        let mut grads = Grads::zeros_like(&c);
        c.loss_backward(&v_r, &example, &mut grads);

        // Check the conversion-matrix gradient numerically (the most
        // hand-written part of the backward pass).
        let h = 1e-6;
        let mcp = c.conversion.clone().unwrap();
        let g = grads.g_conv.as_ref().unwrap();
        for idx in [0usize, 5, 37, mcp.rows() * mcp.cols() - 1] {
            let mut plus = c.clone();
            let mut m = mcp.clone();
            m.data_mut()[idx] += h;
            plus.conversion = Some(m);
            let mut minus = c.clone();
            let mut m = mcp.clone();
            m.data_mut()[idx] -= h;
            minus.conversion = Some(m);
            let loss = |cl: &UisClassifier| cl.loss_on(&v_r, std::slice::from_ref(&example));
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * h);
            let analytic = g.data()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-5,
                "Mcp[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn exact_score_matches_per_point() {
        use crate::config::ScoringPrecision::Exact;
        use crate::scorer::{ScoreRequest, Scorer};
        for use_conv in [false, true] {
            let mut rng = seeded(6);
            let c = UisClassifier::new(cfg(use_conv), &mut rng);
            let v_r: Vec<f64> = (0..8).map(|i| ((i * i) % 3) as f64 * 0.5).collect();
            let tuples: Vec<Vec<f64>> = (0..23)
                .map(|i| (0..6).map(|j| ((i * 6 + j) as f64 * 0.17).sin()).collect())
                .collect();
            let batch = c.score(&ScoreRequest::new(&v_r, &tuples, Exact));
            assert_eq!(batch.len(), tuples.len());
            for (i, t) in tuples.iter().enumerate() {
                let solo = c.logit(&v_r, t);
                assert!(
                    (batch[i] - solo).abs() <= 1e-12,
                    "conversion={use_conv}, tuple {i}: {} vs {solo}",
                    batch[i]
                );
            }
            assert!(c.score(&ScoreRequest::new(&v_r, &[], Exact)).is_empty());
            // Batch composition never changes a tuple's logit.
            let half = c.score(&ScoreRequest::new(&v_r, &tuples[..11], Exact));
            for (a, b) in half.iter().zip(&batch) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn grads_scale_and_add() {
        let mut rng = seeded(4);
        let c = UisClassifier::new(cfg(true), &mut rng);
        let v_r = vec![1.0; 8];
        let ex = (vec![0.5; 6], false);
        let mut a = Grads::zeros_like(&c);
        c.loss_backward(&v_r, &ex, &mut a);
        let mut b = Grads::zeros_like(&c);
        b.add(&a);
        b.add(&a);
        b.scale(0.5);
        for (x, y) in a.g_r.iter().zip(&b.g_r) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "vR width mismatch")]
    fn wrong_vr_width_panics() {
        let mut rng = seeded(5);
        let c = UisClassifier::new(cfg(false), &mut rng);
        c.forward(&[0.0; 3], &[0.0; 6]);
    }
}
