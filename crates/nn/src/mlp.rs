//! Multi-layer perceptrons with flat-parameter access.
//!
//! Every block of the LTE classifier (UIS-feature embedding `f_θR`, tuple
//! embedding `f_θτ`, classification `f_θclf`; §VI-A) is an [`Mlp`]. The
//! meta-learner manipulates block parameters as flat vectors:
//! `|θR|`-length slices are stored per-row in the UIS-feature memory `MR`
//! (Eq. 8) and blended into initializations (Eq. 6), so [`Mlp::write_params`]
//! / [`Mlp::read_params`] define a stable flat layout (per layer: weights
//! row-major, then biases).

use crate::activation::Activation;
use crate::dense::Dense;
use crate::matrix::Matrix;
use crate::matrix32::{Epilogue, Matrix32};
use rand::Rng;

/// A sequential stack of dense layers with per-layer activations.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Dense>,
    acts: Vec<Activation>,
}

/// Cached intermediate state of one forward pass, needed for backprop.
/// [`Mlp::forward_into`] reuses its buffers, so one cache serves a whole
/// training loop without allocating.
#[derive(Debug, Clone, Default)]
pub struct MlpCache {
    /// `acts[0]` is the network input, `acts[i + 1]` the post-activation
    /// output of layer `i` (so `acts[i]` is the input to layer `i`).
    acts: Vec<Vec<f64>>,
    /// Pre-activation output of each layer.
    pre_acts: Vec<Vec<f64>>,
    /// [`Mlp::train_step`]'s backward scratch: `dL/dz` of the layer being
    /// stepped, and `dL/dx` of its input.
    delta: Vec<f64>,
    delta_in: Vec<f64>,
}

impl MlpCache {
    /// The forward output this cache corresponds to (empty before the
    /// first forward pass).
    pub fn output(&self) -> &[f64] {
        self.acts.last().map_or(&[], Vec::as_slice)
    }
}

/// The batch form of [`MlpCache`]: every layer's inputs and
/// pre-activations for one example per row, from
/// [`Mlp::forward_batch_cache`] or [`MlpBatchCache::repeat`], needed by
/// [`Mlp::backward_batch`].
#[derive(Debug, Clone)]
pub struct MlpBatchCache {
    /// `acts[0]` is the input batch, `acts[i + 1]` the post-activation
    /// output of layer `i`.
    acts: Vec<Matrix>,
    /// Pre-activation output of each layer.
    pre_acts: Vec<Matrix>,
}

impl MlpBatchCache {
    /// The batch's forward output, one row per example.
    pub fn output(&self) -> &Matrix {
        self.acts.last().expect("an MLP has at least one layer")
    }

    /// The cache of `n` examples that all have the input of `cache`: its
    /// rows repeated `n` times, so a block whose input a whole batch
    /// shares runs its forward pass once.
    ///
    /// # Panics
    /// Panics when `cache` holds no forward pass.
    pub fn repeat(cache: &MlpCache, n: usize) -> Self {
        assert!(!cache.acts.is_empty(), "cache holds no forward pass");
        let rows = |v: &Vec<f64>| Matrix::from_vec(n, v.len(), v.repeat(n));
        Self {
            acts: cache.acts.iter().map(rows).collect(),
            pre_acts: cache.pre_acts.iter().map(rows).collect(),
        }
    }
}

/// An [`Mlp`] with its parameters demoted to `f32` ([`Mlp::to_f32`]), the
/// pool-scoring fast path. Demoting once lets a pool be scored in many row
/// tiles without demoting the weights again for each tile.
#[derive(Debug, Clone)]
pub struct Mlp32 {
    layers: Vec<(Matrix32, Vec<f32>, Activation)>,
}

impl Mlp32 {
    /// Single-precision batched forward pass: [`Mlp::forward_batch`] on
    /// the SIMD `f32` kernels with each layer's bias add and activation
    /// **fused into the kernel epilogue** ([`Matrix32::matmul_nt_ep`]) —
    /// one sweep per layer output instead of three (matmul, bias pass,
    /// activation pass). Use for pool *ranking*, where only the order of
    /// outputs matters: outputs track the `f64` path to within `f32`
    /// round-off accumulated over the layers (see
    /// [`lte_nn::matrix32`](crate::matrix32) for the contract), but are
    /// not bit-comparable to it, and the `f64` path remains the reference
    /// for gradcheck and training. Each output row depends only on its
    /// input row, so a pool scored tile by tile equals the pool scored in
    /// one call, bit for bit.
    ///
    /// # Panics
    /// Panics when `x.cols()` differs from the first layer's input width.
    pub fn forward_batch(&self, x: &Matrix32) -> Matrix32 {
        let mut cur: Option<Matrix32> = None;
        for (w, b, act) in &self.layers {
            let input = cur.as_ref().unwrap_or(x);
            assert_eq!(input.cols(), w.cols(), "batch input width mismatch");
            cur = Some(input.matmul_nt_ep(w, Epilogue::new(b, *act)));
        }
        cur.expect("an MLP has at least one layer")
    }
}

impl Mlp {
    /// Build an MLP with the given layer dimensions and hidden activation.
    ///
    /// `dims = [in, h1, ..., out]` produces `dims.len() - 1` layers; all but
    /// the last use `hidden_act`, the last uses `out_act`. Weights are
    /// He-uniform initialized.
    ///
    /// # Panics
    /// Panics when `dims` has fewer than two entries.
    pub fn new<R: Rng + ?Sized>(
        dims: &[usize],
        hidden_act: Activation,
        out_act: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "an MLP needs at least one layer");
        let mut layers = Vec::with_capacity(dims.len() - 1);
        let mut acts = Vec::with_capacity(dims.len() - 1);
        for w in dims.windows(2) {
            layers.push(Dense::he_init(w[0], w[1], rng));
        }
        for i in 0..layers.len() {
            acts.push(if i + 1 == layers.len() {
                out_act
            } else {
                hidden_act
            });
        }
        Self { layers, acts }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Copy all parameters into a flat vector.
    pub fn params(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.param_count()];
        self.write_params(&mut out);
        out
    }

    /// Copy all parameters into a flat slice.
    ///
    /// # Panics
    /// Panics when `out.len() != param_count()`.
    pub fn write_params(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.param_count(), "flat size mismatch");
        let mut off = 0;
        for layer in &self.layers {
            let n = layer.param_count();
            layer.write_params(&mut out[off..off + n]);
            off += n;
        }
    }

    /// Load all parameters from a flat slice.
    ///
    /// # Panics
    /// Panics when `src.len() != param_count()`.
    pub fn read_params(&mut self, src: &[f64]) {
        assert_eq!(src.len(), self.param_count(), "flat size mismatch");
        let mut off = 0;
        for layer in &mut self.layers {
            let n = layer.param_count();
            layer.read_params(&src[off..off + n]);
            off += n;
        }
    }

    /// Plain forward pass.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut cache = self.forward_cache(x);
        cache.acts.pop().expect("an MLP has at least one layer")
    }

    /// Batched forward pass: one input tuple per row of `x`
    /// (`batch × in_dim`), one output per row of the result
    /// (`batch × out_dim`). The batch form is the serving hot path: pool
    /// scoring does one matrix product per layer, with the layer's bias and
    /// ReLU/identity activation fused into the kernel epilogue, instead of
    /// a per-point `dot` loop. Each output row agrees with [`Mlp::forward`]
    /// on the corresponding input row bitwise (see
    /// [`Matrix::matmul_nt_ep`]: every kernel preserves per-output
    /// summation order, then adds the bias, then applies the activation)
    /// and depends only on that row — batch composition never changes a
    /// row's result.
    ///
    /// ```
    /// use lte_nn::{Activation, Matrix, Mlp};
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// let mut rng = StdRng::seed_from_u64(7);
    /// let mlp = Mlp::new(&[4, 8, 1], Activation::Relu, Activation::Identity, &mut rng);
    /// let rows = vec![vec![0.1, 0.2, 0.3, 0.4], vec![0.5, 0.6, 0.7, 0.8]];
    /// let batch = mlp.forward_batch(&Matrix::from_rows(&rows, 4));
    /// assert_eq!(batch.row(1), mlp.forward(&rows[1]).as_slice());
    /// ```
    ///
    /// # Panics
    /// Panics when `x.cols() != in_dim()`.
    pub fn forward_batch(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.in_dim(), "batch input width mismatch");
        let mut cur = None;
        for (layer, act) in self.layers.iter().zip(&self.acts) {
            cur = Some(layer.forward_batch_act(cur.as_ref().unwrap_or(x), *act));
        }
        cur.expect("an MLP has at least one layer")
    }

    /// Demote every layer's weights and biases to `f32` (each rounded to
    /// nearest) for the single-precision [`Mlp32::forward_batch`].
    pub fn to_f32(&self) -> Mlp32 {
        let layers = self.layers.iter().zip(&self.acts);
        Mlp32 {
            layers: layers
                .map(|(layer, &act)| {
                    let b = layer.b.iter().map(|&v| v as f32).collect();
                    (Matrix32::from_f64(&layer.w), b, act)
                })
                .collect(),
        }
    }

    /// Forward pass retaining the per-layer state needed by
    /// [`Mlp::backward`].
    pub fn forward_cache(&self, x: &[f64]) -> MlpCache {
        let mut cache = MlpCache::default();
        self.forward_into(x, &mut cache);
        cache
    }

    /// [`Mlp::forward_cache`] into a reused cache: the single-example
    /// forward pass every other one wraps. Each layer computes
    /// `z = W·x + b` and then its activation.
    ///
    /// # Panics
    /// Panics when `x.len() != in_dim()`.
    pub fn forward_into(&self, x: &[f64], cache: &mut MlpCache) {
        let n = self.layers.len();
        cache.acts.resize_with(n + 1, Vec::new);
        cache.pre_acts.resize_with(n, Vec::new);
        cache.acts[0].clear();
        cache.acts[0].extend_from_slice(x);
        for (i, (layer, act)) in self.layers.iter().zip(&self.acts).enumerate() {
            let (inputs, outputs) = cache.acts.split_at_mut(i + 1);
            let z = &mut cache.pre_acts[i];
            layer.forward_into(&inputs[i], z);
            let a = &mut outputs[0];
            a.clear();
            a.extend(z.iter().map(|&v| act.apply(v)));
        }
    }

    /// Backward pass. `grad_out` is `dL/d(output)`; gradients are
    /// *accumulated* into `grad` (flat layout, same as [`Mlp::write_params`])
    /// and `dL/d(input)` is returned.
    ///
    /// # Panics
    /// Panics when `grad.len() != param_count()`.
    pub fn backward(&self, cache: &MlpCache, grad_out: &[f64], grad: &mut [f64]) -> Vec<f64> {
        assert_eq!(grad.len(), self.param_count(), "flat size mismatch");
        // Per-layer flat offsets.
        let mut offsets = Vec::with_capacity(self.layers.len());
        let mut off = 0;
        for layer in &self.layers {
            offsets.push(off);
            off += layer.param_count();
        }

        let mut dcur = grad_out.to_vec();
        for i in (0..self.layers.len()).rev() {
            // Through the activation: dz = da * act'(z).
            let act = self.acts[i];
            let pre = &cache.pre_acts[i];
            let mut dz = dcur;
            for (d, &z) in dz.iter_mut().zip(pre) {
                *d *= act.derivative(z);
            }
            let layer = &self.layers[i];
            let n = layer.param_count();
            let g = &mut grad[offsets[i]..offsets[i] + n];
            dcur = layer.backward(&cache.acts[i], &dz, g);
        }
        dcur
    }

    /// Batched forward pass retaining the per-layer state needed by
    /// [`Mlp::backward_batch`]: one input tuple per row of `x`. Each layer
    /// computes `Z = X·Wᵀ + b` with the bias in the kernel epilogue, then
    /// its activation, so every row's state equals
    /// [`Mlp::forward_cache`] of that row **bitwise** (see
    /// [`Mlp::forward_batch`]).
    ///
    /// # Panics
    /// Panics when `x.cols() != in_dim()`.
    pub fn forward_batch_cache(&self, x: Matrix) -> MlpBatchCache {
        assert_eq!(x.cols(), self.in_dim(), "batch input width mismatch");
        let n = self.layers.len();
        let mut acts = Vec::with_capacity(n + 1);
        let mut pre_acts = Vec::with_capacity(n);
        acts.push(x);
        for (layer, act) in self.layers.iter().zip(&self.acts) {
            let input = acts.last().expect("input pushed first");
            let z = input.matmul_nt_ep(&layer.w, Epilogue::bias_only(&layer.b));
            let mut a = z.clone();
            act.apply_slice(a.data_mut());
            pre_acts.push(z);
            acts.push(a);
        }
        MlpBatchCache { acts, pre_acts }
    }

    /// Batched [`Mlp::backward`]: `grad_out` holds each example's
    /// `dL/d(output)`, one per row. **Overwrites** `grad` (flat layout, as
    /// [`Mlp::write_params`]) with the gradient summed over the batch, each
    /// layer's as one [`Dense::backward_batch`]. When `want_input`, returns
    /// `dL/d(input)`, one example per row; the first layer's input gradient
    /// is computed only then.
    ///
    /// For finite operands, `grad` and the input gradient equal
    /// [`Mlp::backward`] of each example in turn into zeroed gradients,
    /// **bit for bit** (see [`Dense::backward_batch`] for why).
    ///
    /// # Panics
    /// Panics when `grad.len() != param_count()` or on shape mismatches.
    pub fn backward_batch(
        &self,
        cache: &MlpBatchCache,
        grad_out: Matrix,
        grad: &mut [f64],
        want_input: bool,
    ) -> Option<Matrix> {
        assert_eq!(grad.len(), self.param_count(), "flat size mismatch");
        let out = cache.output();
        assert_eq!(
            (grad_out.rows(), grad_out.cols()),
            (out.rows(), out.cols()),
            "output gradient shape mismatch"
        );
        let mut delta = grad_out;
        let mut end = grad.len();
        for (i, layer) in self.layers.iter().enumerate().rev() {
            // Through the activation: dz = da * act'(z).
            let act = self.acts[i];
            for (d, &z) in delta.data_mut().iter_mut().zip(cache.pre_acts[i].data()) {
                *d *= act.derivative(z);
            }
            let start = end - layer.param_count();
            let want_dx = i > 0 || want_input;
            let dx = layer.backward_batch(&cache.acts[i], &delta, &mut grad[start..end], want_dx);
            end = start;
            match dx {
                Some(dx) => delta = dx,
                None => return None,
            }
        }
        Some(delta)
    }

    /// In-place SGD step: `params -= lr · grad`.
    pub fn sgd_step(&mut self, grad: &[f64], lr: f64) {
        let mut flat = self.params();
        for (p, g) in flat.iter_mut().zip(grad) {
            *p -= lr * g;
        }
        self.read_params(&flat);
    }

    /// One SGD step on the example whose forward pass `cache` holds
    /// ([`Mlp::forward_into`]): backpropagate `grad_out = dL/d(output)` and
    /// apply `p -= lr·g` to every parameter as soon as its gradient `g` is
    /// formed, so no gradient vector is stored.
    ///
    /// For any finite `lr ≥ 0` the parameters end **bit for bit** where
    /// [`Mlp::backward`] into zeroed gradients followed by
    /// [`Mlp::sgd_step`] leaves them: each layer's input gradient uses its
    /// weights from before their update, and each update repeats the
    /// reference's arithmetic. When given, `tap` (flat layout, as
    /// [`Mlp::write_params`]) has the gradient added into it entry by
    /// entry. Rows whose `dz` is zero are skipped there too; their
    /// gradient is `+0.0`, so only a `-0.0` tap entry could tell. When
    /// given, `input_grad` receives `dL/d(input)`; the first layer's input
    /// gradient is computed only for it. The cache's activations are left
    /// as they were; its backward scratch is overwritten.
    ///
    /// # Panics
    /// Panics when `grad_out`, `tap` or `input_grad` has the wrong length.
    pub fn train_step(
        &mut self,
        cache: &mut MlpCache,
        grad_out: &[f64],
        lr: f64,
        mut tap: Option<&mut [f64]>,
        input_grad: Option<&mut [f64]>,
    ) {
        assert_eq!(
            grad_out.len(),
            self.out_dim(),
            "output gradient width mismatch"
        );
        if let Some(tap) = &tap {
            assert_eq!(tap.len(), self.param_count(), "flat size mismatch");
        }
        let want_input = input_grad.is_some();
        let MlpCache {
            acts,
            pre_acts,
            delta,
            delta_in,
        } = cache;
        delta.clear();
        delta.extend_from_slice(grad_out);
        let mut end = self.param_count();
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            // Through the activation: dz = da * act'(z).
            let act = self.acts[i];
            for (d, &z) in delta.iter_mut().zip(&pre_acts[i]) {
                *d *= act.derivative(z);
            }
            let start = end - layer.param_count();
            let tap = tap.as_deref_mut().map(|t| &mut t[start..end]);
            if i > 0 || want_input {
                delta_in.clear();
                delta_in.resize(layer.in_dim(), 0.0);
                layer.train_step(&acts[i], delta, lr, tap, Some(delta_in));
                std::mem::swap(delta, delta_in);
            } else {
                layer.train_step(&acts[i], delta, lr, tap, None);
            }
            end = start;
        }
        if let Some(out) = input_grad {
            out.copy_from_slice(delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_and_counts() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&[4, 8, 2], Activation::Relu, Activation::Identity, &mut rng);
        assert_eq!(mlp.in_dim(), 4);
        assert_eq!(mlp.out_dim(), 2);
        assert_eq!(mlp.n_layers(), 2);
        assert_eq!(mlp.param_count(), (4 * 8 + 8) + (8 * 2 + 2));
        assert_eq!(mlp.forward(&[0.1, 0.2, 0.3, 0.4]).len(), 2);
    }

    #[test]
    fn param_round_trip_preserves_behavior() {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(&[3, 5, 1], Activation::Tanh, Activation::Identity, &mut rng);
        let flat = mlp.params();
        let mut other = Mlp::new(&[3, 5, 1], Activation::Tanh, Activation::Identity, &mut rng);
        other.read_params(&flat);
        let x = [0.5, -0.5, 0.25];
        assert_eq!(mlp.forward(&x), other.forward(&x));
    }

    #[test]
    fn forward_cache_output_matches_forward() {
        let mut rng = StdRng::seed_from_u64(2);
        let mlp = Mlp::new(&[2, 4, 3], Activation::Relu, Activation::Sigmoid, &mut rng);
        let x = [0.3, -1.2];
        assert_eq!(mlp.forward(&x), mlp.forward_cache(&x).output());
    }

    #[test]
    fn forward_batch_rows_match_forward() {
        let mut rng = StdRng::seed_from_u64(7);
        let mlp = Mlp::new(
            &[6, 10, 4, 2],
            Activation::Relu,
            Activation::Sigmoid,
            &mut rng,
        );
        let rows: Vec<Vec<f64>> = (0..17)
            .map(|i| (0..6).map(|j| ((i * 6 + j) as f64 * 0.21).cos()).collect())
            .collect();
        let batch = mlp.forward_batch(&Matrix::from_rows(&rows, 6));
        assert_eq!(batch.rows(), 17);
        assert_eq!(batch.cols(), 2);
        for (i, row) in rows.iter().enumerate() {
            let single = mlp.forward(row);
            for (a, b) in batch.row(i).iter().zip(&single) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i}: {a} vs {b}");
            }
        }
        let empty = mlp.forward_batch(&Matrix::from_rows(&[], 6));
        assert_eq!(empty.rows(), 0);
        assert_eq!(empty.cols(), 2);
    }

    #[test]
    fn f32_forward_tracks_f64_and_ignores_tiling() {
        let mut rng = StdRng::seed_from_u64(8);
        let mlp = Mlp::new(
            &[6, 10, 4, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        let rows: Vec<Vec<f64>> = (0..37)
            .map(|i| (0..6).map(|j| ((i * 6 + j) as f64 * 0.29).sin()).collect())
            .collect();
        let fast = mlp.to_f32();
        let whole = fast.forward_batch(&Matrix32::from_rows(&rows, 6));
        let exact = mlp.forward_batch(&Matrix::from_rows(&rows, 6));
        for (a, b) in whole.data().iter().zip(exact.data()) {
            assert!((f64::from(*a) - b).abs() <= 1e-4, "{a} vs {b}");
        }
        // Row tiles of any size reproduce the one-call output bit for bit.
        for tile in [1, 8, 13] {
            let tiled: Vec<u32> = rows
                .chunks(tile)
                .flat_map(|t| {
                    fast.forward_batch(&Matrix32::from_rows(t, 6))
                        .data()
                        .to_vec()
                })
                .map(f32::to_bits)
                .collect();
            let bits: Vec<u32> = whole.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(tiled, bits, "tile {tile}");
        }
    }

    #[test]
    fn backward_matches_finite_differences() {
        // Smooth activations only: ReLU kinks break finite differences.
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(
            &[3, 6, 4, 1],
            Activation::Tanh,
            Activation::Identity,
            &mut rng,
        );
        let x = [0.7, -0.2, 0.4];
        let max_err = gradcheck::max_param_grad_error(&mlp, &x);
        assert!(max_err < 1e-5, "max grad error {max_err}");
    }

    #[test]
    fn backward_input_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(4);
        let mlp = Mlp::new(
            &[3, 5, 1],
            Activation::Sigmoid,
            Activation::Identity,
            &mut rng,
        );
        let x = [0.1, 0.9, -0.4];
        let err = gradcheck::max_input_grad_error(&mlp, &x);
        assert!(err < 1e-5, "max input grad error {err}");
    }

    #[test]
    fn sgd_step_reduces_simple_loss() {
        // Minimize ||f(x)||² for a fixed input: loss must go down.
        let mut rng = StdRng::seed_from_u64(5);
        let mut mlp = Mlp::new(&[2, 8, 1], Activation::Tanh, Activation::Identity, &mut rng);
        let x = [0.5, -0.25];
        let loss = |m: &Mlp| -> f64 { m.forward(&x)[0].powi(2) };
        let before = loss(&mlp);
        for _ in 0..50 {
            let cache = mlp.forward_cache(&x);
            let dout = vec![2.0 * cache.output()[0]];
            let mut grad = vec![0.0; mlp.param_count()];
            mlp.backward(&cache, &dout, &mut grad);
            mlp.sgd_step(&grad, 0.1);
        }
        let after = loss(&mlp);
        assert!(after < before * 0.1, "before {before}, after {after}");
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn single_dim_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        Mlp::new(&[3], Activation::Relu, Activation::Identity, &mut rng);
    }
}
