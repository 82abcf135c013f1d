//! The per-sample SGD step at vector width: local adaptation's hot loop.
//!
//! Local adaptation (Eq. 12) runs hundreds of single-example steps on one
//! small network, so a step is a handful of matrix-vector products and
//! rank-1 updates. For the length of one adaptation, [`MlpStep`] (and a
//! bare [`StepLayer`], such as the conversion `Mcp`) holds each layer's
//! weights in the layouts the step reads at vector width, and writes them
//! back once at the end:
//!
//! * **Transposed** (`in × out`, outputs contiguous), for the forward pass
//!   and the weight update, with the SIMD lanes over outputs. Every layer
//!   with more than one output keeps it.
//! * **Row-major** (`out × in`), with the lanes over inputs, for a layer
//!   whose input gradient is taken: row `r` adds `d[r]·W[r]` into the
//!   input gradient, held in registers across rows, and updates `W[r]` in
//!   the same pass. A single-output layer (the classifier head) keeps only
//!   this one, and its forward pass is one scalar sum.
//!
//! Every copy is updated, and the result is **bit for bit** that of
//! [`Mlp::backward`] into zeroed gradients followed by
//! [`Mlp::sgd_step`], on every [`KernelKind`]:
//!
//! * each output sums its products from `+0.0` in input order, one
//!   rounded multiply then one rounded add, never a fused multiply-add,
//!   then adds its bias: the bits of [`Matrix::matvec_into`]. Lanes hold
//!   different outputs, never parts of one sum;
//! * an input gradient sums `d[r]·W[r]` in row order from `+0.0`, as
//!   [`Matrix::matvec_t`] does, with the weights from before the update;
//! * every parameter moves by `p − lr·(0.0 + d·x)` (`0.0 + d` for a
//!   bias): `0.0 +` is the zeroed gradient's first accumulation, which
//!   turns a `−0.0` product into `+0.0`;
//! * a row with `d == 0` is skipped, as the reference skips it. In the
//!   transposed layout that is a lane mask on `d != 0` (unordered, so a
//!   NaN `d` updates as the scalar `!=` does), which keeps a skipped row
//!   untouched even when an input is non-finite and `0·∞` would be NaN;
//! * a gradient tap accumulates `+= g` under the same mask, in the
//!   layout of the weights it mirrors, and is transposed back once.
//!
//! The kernels are written once over the `f64` lanes that the batched
//! matmul kernel also runs on, and run at AVX-512F (8 lanes), AVX2 (4
//! lanes) or two portable lanes, whichever [`KernelKind::detect`] picks,
//! with no FMA on any of them; [`Mlp::train_step_with`] pins one for tests
//! and benches.
//!
//! [`Matrix::matvec_into`]: crate::Matrix::matvec_into
//! [`Matrix::matvec_t`]: crate::Matrix::matvec_t
//! [`Mlp::backward`]: crate::Mlp::backward
//! [`Mlp::sgd_step`]: crate::Mlp::sgd_step
//! [`Mlp::train_step_with`]: crate::Mlp::train_step_with

use crate::activation::Activation;
use crate::kernel::KernelKind;
use crate::lanes::{Lanes, PortableF64, StepLanes};
use crate::matrix::{dot, Matrix};
use crate::mlp::{Mlp, MlpCache};

/// Vectors per register block: the forward pass and the transposed update
/// sweep up to this many vectors of outputs per pass over the inputs, and
/// the row-major pass holds this many vectors of the input gradient.
const BLOCK: usize = 4;

/// One dense layer `z = W·x (+ b)` in the step's layouts (see the module
/// docs), built once per adaptation by [`StepLayer::new`] and copied
/// back by [`StepLayer::write_back`].
#[derive(Debug)]
pub struct StepLayer {
    in_dim: usize,
    out_dim: usize,
    kernel: KernelKind,
    /// `W` transposed, `in_dim × cols_stride`, zero-padded: every layer
    /// with more than one output.
    cols: Option<Lines>,
    cols_stride: usize,
    /// `W` row-major, `out_dim × rows_stride`, zero-padded: layers whose
    /// input gradient is taken, and single-output layers.
    rows: Option<Lines>,
    rows_stride: usize,
    /// The bias, zero-padded to whole vectors; `None` for a bias-free
    /// layer.
    bias: Option<Lines>,
    /// The gradient tap: the weights' part in the primary layout
    /// (transposed when present, else row-major), then the padded bias
    /// part.
    tap: Option<(Lines, Lines)>,
}

impl StepLayer {
    /// The layer with weights `w` (`out × in`, row-major) and an optional
    /// bias, laid out for the step on `kernel`. `input_grad` keeps the
    /// row-major copy that [`StepLayer::step`] needs to return `dL/dx`.
    ///
    /// # Panics
    /// Panics when `kernel` is not supported on the running CPU, or the
    /// bias width differs from `w.rows()`.
    pub fn new(w: &Matrix, bias: Option<&[f64]>, input_grad: bool, kernel: KernelKind) -> Self {
        Self::with_tap(w, bias, input_grad, None, kernel)
    }

    /// [`StepLayer::new`] with a gradient tap starting at `tap` (flat:
    /// `w` row-major, then the bias).
    fn with_tap(
        w: &Matrix,
        bias: Option<&[f64]>,
        input_grad: bool,
        tap: Option<&[f64]>,
        kernel: KernelKind,
    ) -> Self {
        assert!(
            kernel.supported(),
            "kernel {kernel} is not supported on this CPU"
        );
        let (m, k) = (w.rows(), w.cols());
        if let Some(b) = bias {
            assert_eq!(b.len(), m, "bias width mismatch");
        }
        let lanes = kernel.lanes::<f64>();
        let (cols_stride, rows_stride) = (m.next_multiple_of(lanes), k.next_multiple_of(lanes));
        let has_cols = m > 1;
        let cols = has_cols.then(|| to_cols(w.data(), m, k, cols_stride));
        let rows = (input_grad || !has_cols).then(|| to_rows(w.data(), m, k, rows_stride));
        let pad = |b: &[f64]| {
            let mut padded = Lines::zeros(cols_stride);
            padded[..b.len()].copy_from_slice(b);
            padded
        };
        let tap = tap.map(|t| {
            assert_eq!(
                t.len(),
                m * k + bias.map_or(0, <[f64]>::len),
                "tap size mismatch"
            );
            let (tw, tb) = t.split_at(m * k);
            let tw = if has_cols {
                to_cols(tw, m, k, cols_stride)
            } else {
                to_rows(tw, m, k, rows_stride)
            };
            (tw, pad(tb))
        });
        Self {
            in_dim: k,
            out_dim: m,
            kernel,
            cols,
            cols_stride,
            rows,
            rows_stride,
            bias: bias.map(pad),
            tap,
        }
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// `z = W·x (+ b)`, the bits of [`Matrix::matvec_into`] followed by
    /// the bias add.
    ///
    /// # Panics
    /// Panics when `x` or `z` has the wrong length.
    pub fn forward(&self, x: &[f64], z: &mut [f64]) {
        assert_eq!(x.len(), self.in_dim, "layer input width mismatch");
        assert_eq!(z.len(), self.out_dim, "layer output width mismatch");
        match self.kernel {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `new` asserted that the CPU supports the kernel.
            KernelKind::Avx512f => unsafe { x86::forward_avx512(self, x, z) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above; `Avx2Fma` support implies AVX2.
            KernelKind::Avx2Fma => unsafe { x86::forward_avx2(self, x, z) },
            // SAFETY: the portable lanes need no CPU feature.
            _ => unsafe { self.forward_on::<PortableF64>(x, z) },
        }
    }

    /// One SGD step on the example whose layer input is `x` and whose
    /// `dL/dz` is `d`: every weight and bias moves by `p − lr·(0.0 + d·x)`
    /// (rows with `d == 0` skipped), and `dx`, when given, receives
    /// `dL/dx = Wᵀ·d` of the weights before the update. Bit for bit the
    /// reference (see the module docs) for any finite `lr ≥ 0`.
    ///
    /// # Panics
    /// Panics on a length mismatch, or when `dx` is given to a layer built
    /// without `input_grad`.
    pub fn step(&mut self, x: &[f64], d: &[f64], lr: f64, dx: Option<&mut [f64]>) {
        assert_eq!(x.len(), self.in_dim, "layer input width mismatch");
        assert_eq!(d.len(), self.out_dim, "output gradient width mismatch");
        if let Some(dx) = &dx {
            assert_eq!(dx.len(), self.in_dim, "input gradient width mismatch");
            assert!(self.rows.is_some(), "layer built without input_grad");
        }
        match self.kernel {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `new` asserted that the CPU supports the kernel.
            KernelKind::Avx512f => unsafe { x86::step_avx512(self, x, d, lr, dx) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above; `Avx2Fma` support implies AVX2.
            KernelKind::Avx2Fma => unsafe { x86::step_avx2(self, x, d, lr, dx) },
            // SAFETY: the portable lanes need no CPU feature.
            _ => unsafe { self.step_on::<PortableF64>(x, d, lr, dx) },
        }
    }

    /// Copy the weights (`out × in`, row-major) and the bias back out.
    ///
    /// # Panics
    /// Panics when `w`'s shape or the bias width differs from the layer's.
    pub fn write_back(&self, w: &mut Matrix, bias: Option<&mut [f64]>) {
        let (m, k) = (self.out_dim, self.in_dim);
        assert_eq!((w.rows(), w.cols()), (m, k), "weight shape mismatch");
        match (&self.rows, &self.cols) {
            (Some(rows), _) => from_rows(rows, self.rows_stride, w.data_mut(), m, k),
            (None, Some(cols)) => from_cols(cols, self.cols_stride, w.data_mut(), m, k),
            (None, None) => unreachable!("a layer keeps at least one layout"),
        }
        if let (Some(b), Some(out)) = (&self.bias, bias) {
            out.copy_from_slice(&b[..m]);
        }
    }

    /// Copy the tap back into `tap` (flat: `w` row-major, then the bias).
    fn write_tap(&self, tap: &mut [f64]) {
        let (m, k) = (self.out_dim, self.in_dim);
        let (tw, tb) = self.tap.as_ref().expect("layer built with a tap");
        let (out_w, out_b) = tap.split_at_mut(m * k);
        if self.cols.is_some() {
            from_cols(tw, self.cols_stride, out_w, m, k);
        } else {
            from_rows(tw, self.rows_stride, out_w, m, k);
        }
        out_b.copy_from_slice(&tb[..out_b.len()]);
    }

    /// [`StepLayer::forward`] on `L`'s lanes.
    ///
    /// # Safety
    /// The CPU must support `L`'s instructions.
    #[inline(always)]
    unsafe fn forward_on<L: Lanes<Elem = f64>>(&self, x: &[f64], z: &mut [f64]) {
        let bias = self.bias.as_deref();
        match (&self.cols, &self.rows) {
            (Some(cols), _) => forward_cols::<L>(cols, self.cols_stride, x, bias, z),
            (None, Some(rows)) => {
                // A single output: one scalar sum.
                for (r, zr) in z.iter_mut().enumerate() {
                    let o = r * self.rows_stride;
                    *zr = dot(&rows[o..o + x.len()], x);
                    if let Some(b) = bias {
                        *zr += b[r];
                    }
                }
            }
            (None, None) => unreachable!("a layer keeps at least one layout"),
        }
    }

    /// [`StepLayer::step`] on `L`'s lanes.
    ///
    /// # Safety
    /// The CPU must support `L`'s instructions.
    #[inline(always)]
    unsafe fn step_on<L: StepLanes>(
        &mut self,
        x: &[f64],
        d: &[f64],
        lr: f64,
        dx: Option<&mut [f64]>,
    ) {
        let (mut tap_w, tap_b) = match &mut self.tap {
            Some((w, b)) => (Some(&mut w[..]), Some(&mut b[..])),
            None => (None, None),
        };
        let has_cols = self.cols.is_some();
        if let Some(rows) = &mut self.rows {
            let tap = if has_cols { None } else { tap_w.as_deref_mut() };
            rows_step::<L>(rows, self.rows_stride, x, d, lr, dx, tap);
        }
        if let Some(cols) = &mut self.cols {
            cols_step::<L>(cols, self.cols_stride, x, d, lr, tap_w);
        }
        if let Some(b) = &mut self.bias {
            bias_step::<L>(b, d, lr, tap_b);
        }
    }
}

/// An [`Mlp`] in the step's layouts, one [`StepLayer`] per layer, with
/// the backward scratch: built once per adaptation, stepped once per
/// example, written back once.
#[derive(Debug)]
pub struct MlpStep {
    layers: Vec<StepLayer>,
    acts: Vec<Activation>,
    delta: Vec<f64>,
    delta_in: Vec<f64>,
}

impl MlpStep {
    /// `mlp` laid out for [`MlpStep::step`] on `kernel` (every supported
    /// kernel produces the same bits). `input_grad` lets the step return
    /// `dL/d(input)`; `tap`, when given, is the starting value (flat, as
    /// [`Mlp::write_params`]) of a gradient tap that every step adds
    /// into, returned by [`MlpStep::write_back`].
    ///
    /// # Panics
    /// Panics when `kernel` is not supported on the running CPU, or `tap`
    /// is not `mlp.param_count()` long.
    pub fn new(mlp: &Mlp, input_grad: bool, tap: Option<&[f64]>, kernel: KernelKind) -> Self {
        if let Some(tap) = tap {
            assert_eq!(tap.len(), mlp.param_count(), "flat size mismatch");
        }
        let mut off = 0;
        let layers = mlp
            .layers()
            .iter()
            .enumerate()
            .map(|(i, layer)| {
                let n = layer.param_count();
                let tap = tap.map(|t| &t[off..off + n]);
                off += n;
                let want_dx = i > 0 || input_grad;
                StepLayer::with_tap(&layer.w, Some(&layer.b), want_dx, tap, kernel)
            })
            .collect();
        Self {
            layers,
            acts: mlp.activations().to_vec(),
            delta: Vec::new(),
            delta_in: Vec::new(),
        }
    }

    /// The forward pass on `x` into `cache`, bit for bit what
    /// [`Mlp::forward_into`] writes there.
    ///
    /// # Panics
    /// Panics when `x` has the wrong width.
    pub fn forward_into(&self, x: &[f64], cache: &mut MlpCache) {
        cache.acts.resize_with(self.layers.len() + 1, Vec::new);
        cache.acts[0].clear();
        cache.acts[0].extend_from_slice(x);
        self.forward_cached(cache);
    }

    /// The forward pass from the input `cache` already holds.
    pub(crate) fn forward_cached(&self, cache: &mut MlpCache) {
        let n = self.layers.len();
        cache.acts.resize_with(n + 1, Vec::new);
        cache.pre_acts.resize_with(n, Vec::new);
        for (i, (layer, act)) in self.layers.iter().zip(&self.acts).enumerate() {
            let (inputs, outputs) = cache.acts.split_at_mut(i + 1);
            let z = &mut cache.pre_acts[i];
            z.resize(layer.out_dim, 0.0);
            layer.forward(&inputs[i], z);
            let a = &mut outputs[0];
            a.clear();
            a.extend_from_slice(z);
            act.apply_slice(a);
        }
    }

    /// One SGD step on the example whose forward pass `cache` holds
    /// ([`MlpStep::forward_into`]): backpropagate `grad_out =
    /// dL/d(output)` and move every parameter by `p − lr·g`, layer by layer
    /// from the output. When given, `input_grad` receives `dL/d(input)`.
    ///
    /// # Panics
    /// Panics when `grad_out` or `input_grad` has the wrong length, or
    /// `input_grad` is given to a step built without it.
    pub fn step(
        &mut self,
        cache: &MlpCache,
        grad_out: &[f64],
        lr: f64,
        input_grad: Option<&mut [f64]>,
    ) {
        let Self {
            layers,
            acts,
            delta,
            delta_in,
        } = self;
        assert_eq!(
            grad_out.len(),
            layers
                .last()
                .expect("an MLP has at least one layer")
                .out_dim,
            "output gradient width mismatch"
        );
        let want_input = input_grad.is_some();
        delta.clear();
        delta.extend_from_slice(grad_out);
        for (i, layer) in layers.iter_mut().enumerate().rev() {
            // Through the activation: dz = da * act'(z).
            acts[i].mul_derivative(delta, &cache.pre_acts[i]);
            if i > 0 || want_input {
                delta_in.resize(layer.in_dim, 0.0);
                layer.step(&cache.acts[i], delta, lr, Some(delta_in));
                std::mem::swap(delta, delta_in);
            } else {
                layer.step(&cache.acts[i], delta, lr, None);
            }
        }
        if let Some(out) = input_grad {
            out.copy_from_slice(delta);
        }
    }

    /// Copy the parameters back into `mlp` and, when given, the tap into
    /// `tap` (flat, as [`Mlp::write_params`]).
    ///
    /// # Panics
    /// Panics when `mlp`'s shape differs from the one laid out, or `tap`
    /// is given to a step built without one.
    pub fn write_back(&self, mlp: &mut Mlp, tap: Option<&mut [f64]>) {
        assert_eq!(mlp.n_layers(), self.layers.len(), "layer count mismatch");
        for (layer, dense) in self.layers.iter().zip(mlp.layers_mut()) {
            layer.write_back(&mut dense.w, Some(&mut dense.b));
        }
        if let Some(tap) = tap {
            let mut off = 0;
            for layer in &self.layers {
                let n = layer.out_dim * (layer.in_dim + 1);
                layer.write_tap(&mut tap[off..off + n]);
                off += n;
            }
        }
    }
}

/// A zeroed `f64` buffer whose slice starts on a cache line where the
/// allocation allows, so that no vector of a padded row straddles two
/// lines. It over-allocates by seven values instead of asking the
/// allocator for the alignment, which fragments the heap.
#[derive(Debug)]
struct Lines {
    buf: Vec<f64>,
    start: usize,
}

impl Lines {
    /// At least `n` zeros.
    fn zeros(n: usize) -> Self {
        let buf = vec![0.0; n + 7];
        let start = match buf.as_ptr().align_offset(64) {
            at if at < 8 => at,
            _ => 0,
        };
        Self { buf, start }
    }
}

impl std::ops::Deref for Lines {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.buf[self.start..]
    }
}

impl std::ops::DerefMut for Lines {
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.buf[self.start..]
    }
}

/// `src` (`m × k`, row-major) transposed into `k × stride`, zero-padded.
fn to_cols(src: &[f64], m: usize, k: usize, stride: usize) -> Lines {
    let mut out = Lines::zeros(k * stride);
    for r in 0..m {
        for c in 0..k {
            out[c * stride + r] = src[r * k + c];
        }
    }
    out
}

/// `src` (`m × k`, row-major) into `m × stride`, zero-padded.
fn to_rows(src: &[f64], m: usize, k: usize, stride: usize) -> Lines {
    let mut out = Lines::zeros(m * stride);
    for r in 0..m {
        out[r * stride..r * stride + k].copy_from_slice(&src[r * k..(r + 1) * k]);
    }
    out
}

/// The inverse of [`to_cols`] into `dst` (`m × k`).
fn from_cols(src: &[f64], stride: usize, dst: &mut [f64], m: usize, k: usize) {
    for r in 0..m {
        for c in 0..k {
            dst[r * k + c] = src[c * stride + r];
        }
    }
}

/// The inverse of [`to_rows`] into `dst` (`m × k`).
fn from_rows(src: &[f64], stride: usize, dst: &mut [f64], m: usize, k: usize) {
    for r in 0..m {
        dst[r * k..(r + 1) * k].copy_from_slice(&src[r * stride..r * stride + k]);
    }
}

/// `z[j] = Σₖ wt[k·stride + j]·x[k] (+ b[j])`, lanes over outputs, up to
/// [`BLOCK`] vectors per pass over `x`.
///
/// # Safety
/// The CPU must support `L`'s instructions.
#[inline(always)]
unsafe fn forward_cols<L: Lanes<Elem = f64>>(
    wt: &[f64],
    stride: usize,
    x: &[f64],
    b: Option<&[f64]>,
    z: &mut [f64],
) {
    let mut j = 0;
    while j < z.len() {
        let width = (z.len() - j).min(BLOCK * L::N);
        match width.div_ceil(L::N) {
            1 => forward_block::<L, 1>(wt, stride, x, b, z, j, width),
            2 => forward_block::<L, 2>(wt, stride, x, b, z, j, width),
            3 => forward_block::<L, 3>(wt, stride, x, b, z, j, width),
            _ => forward_block::<L, BLOCK>(wt, stride, x, b, z, j, width),
        }
        j += width;
    }
}

/// Outputs `j..j + width` of [`forward_cols`] in `V` vectors.
///
/// # Safety
/// The CPU must support `L`'s instructions.
#[inline(always)]
unsafe fn forward_block<L: Lanes<Elem = f64>, const V: usize>(
    wt: &[f64],
    stride: usize,
    x: &[f64],
    b: Option<&[f64]>,
    z: &mut [f64],
    j: usize,
    width: usize,
) {
    let mut acc = [L::zero(); V];
    for (&xk, row) in x.iter().zip(wt.chunks_exact(stride)) {
        let xv = L::splat(xk);
        let row = &row[j..j + V * L::N];
        for (v, acc) in acc.iter_mut().enumerate() {
            *acc = acc.add(L::load(&row[v * L::N..]).mul(xv));
        }
    }
    for (v, &acc) in acc.iter().enumerate() {
        let o = j + v * L::N;
        let s = match b {
            Some(b) => acc.add(L::load(&b[o..])),
            None => acc,
        };
        s.store_part(&mut z[o..], (width - v * L::N).min(L::N));
    }
}

/// The transposed copy's update: `wt[k][j] ← wt[k][j] − lr·(0.0 + d[j]·x[k])`
/// where `d[j] != 0`, and `tap[k][j] += 0.0 + d[j]·x[k]` under the same
/// mask, lanes over outputs.
///
/// # Safety
/// The CPU must support `L`'s instructions.
#[inline(always)]
unsafe fn cols_step<L: StepLanes>(
    wt: &mut [f64],
    stride: usize,
    x: &[f64],
    d: &[f64],
    lr: f64,
    mut tap: Option<&mut [f64]>,
) {
    let mut j = 0;
    while j < d.len() {
        let width = (d.len() - j).min(BLOCK * L::N);
        let tap = tap.as_deref_mut();
        match width.div_ceil(L::N) {
            1 => cols_block::<L, 1>(wt, stride, x, d, lr, tap, j, width),
            2 => cols_block::<L, 2>(wt, stride, x, d, lr, tap, j, width),
            3 => cols_block::<L, 3>(wt, stride, x, d, lr, tap, j, width),
            _ => cols_block::<L, BLOCK>(wt, stride, x, d, lr, tap, j, width),
        }
        j += width;
    }
}

/// Outputs `j..j + width` of [`cols_step`] in `V` vectors, with their
/// deltas and masks held in registers across the inputs.
///
/// # Safety
/// The CPU must support `L`'s instructions.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn cols_block<L: StepLanes, const V: usize>(
    wt: &mut [f64],
    stride: usize,
    x: &[f64],
    d: &[f64],
    lr: f64,
    mut tap: Option<&mut [f64]>,
    j: usize,
    width: usize,
) {
    let dv: [L; V] = std::array::from_fn(|v| {
        let o = j + v * L::N;
        L::load_part(&d[o..], (width - v * L::N).min(L::N))
    });
    let (zero, lrv) = (L::zero(), L::splat(lr));
    for (kk, (&xk, row)) in x.iter().zip(wt.chunks_exact_mut(stride)).enumerate() {
        let xv = L::splat(xk);
        let row = &mut row[j..j + V * L::N];
        let o = kk * stride + j;
        let mut tap = tap.as_deref_mut().map(|t| &mut t[o..o + V * L::N]);
        for (v, &dv) in dv.iter().enumerate() {
            let at = v * L::N;
            let g = zero.add(dv.mul(xv));
            let p = L::load(&row[at..]);
            L::select_nonzero(dv, p.sub(lrv.mul(g)), p).store(&mut row[at..]);
            if let Some(tap) = tap.as_deref_mut() {
                let t = L::load(&tap[at..]);
                L::select_nonzero(dv, t.add(g), t).store(&mut tap[at..]);
            }
        }
    }
}

/// The row-major copy's update, fused with the input gradient: for each
/// row with `d[r] != 0`, in row order, `dx += d[r]·W[r]` with the row
/// before its update, then `W[r] ← W[r] − lr·(0.0 + d[r]·x)` (and
/// `tap[r] += 0.0 + d[r]·x`), lanes over inputs. `dx`, when given, is
/// overwritten; each block of it is summed from `+0.0` in registers.
///
/// # Safety
/// The CPU must support `L`'s instructions.
#[inline(always)]
unsafe fn rows_step<L: StepLanes>(
    w: &mut [f64],
    stride: usize,
    x: &[f64],
    d: &[f64],
    lr: f64,
    mut dx: Option<&mut [f64]>,
    mut tap: Option<&mut [f64]>,
) {
    let mut c = 0;
    while c < x.len() {
        let width = (x.len() - c).min(BLOCK * L::N);
        let (dx, tap) = (dx.as_deref_mut(), tap.as_deref_mut());
        match width.div_ceil(L::N) {
            1 => rows_block::<L, 1>(w, stride, x, d, lr, dx, tap, c, width),
            2 => rows_block::<L, 2>(w, stride, x, d, lr, dx, tap, c, width),
            3 => rows_block::<L, 3>(w, stride, x, d, lr, dx, tap, c, width),
            _ => rows_block::<L, BLOCK>(w, stride, x, d, lr, dx, tap, c, width),
        }
        c += width;
    }
}

/// Inputs `c..c + width` of [`rows_step`] in `V` vectors, with `x` and
/// the input gradient held in registers across the rows.
///
/// # Safety
/// The CPU must support `L`'s instructions.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn rows_block<L: StepLanes, const V: usize>(
    w: &mut [f64],
    stride: usize,
    x: &[f64],
    d: &[f64],
    lr: f64,
    dx: Option<&mut [f64]>,
    mut tap: Option<&mut [f64]>,
    c: usize,
    width: usize,
) {
    let live = |v: usize| (width - v * L::N).min(L::N);
    let xv: [L; V] = std::array::from_fn(|v| L::load_part(&x[c + v * L::N..], live(v)));
    let (zero, lrv) = (L::zero(), L::splat(lr));
    let mut acc = [zero; V];
    for (r, (&dr, row)) in d.iter().zip(w.chunks_exact_mut(stride)).enumerate() {
        if dr == 0.0 {
            continue;
        }
        let dv = L::splat(dr);
        let row = &mut row[c..c + V * L::N];
        let o = r * stride + c;
        let mut tap = tap.as_deref_mut().map(|t| &mut t[o..o + V * L::N]);
        for (v, acc) in acc.iter_mut().enumerate() {
            let at = v * L::N;
            let p = L::load(&row[at..]);
            *acc = acc.add(dv.mul(p));
            let g = zero.add(dv.mul(xv[v]));
            p.sub(lrv.mul(g)).store(&mut row[at..]);
            if let Some(tap) = tap.as_deref_mut() {
                L::load(&tap[at..]).add(g).store(&mut tap[at..]);
            }
        }
    }
    if let Some(dx) = dx {
        for (v, acc) in acc.iter().enumerate() {
            acc.store_part(&mut dx[c + v * L::N..], live(v));
        }
    }
}

/// The bias update `b[j] ← b[j] − lr·(0.0 + d[j])` where `d[j] != 0`, and
/// `tap[j] += 0.0 + d[j]` under the same mask, lanes over outputs. `b`
/// and `tap` are padded to whole vectors.
///
/// # Safety
/// The CPU must support `L`'s instructions.
#[inline(always)]
unsafe fn bias_step<L: StepLanes>(b: &mut [f64], d: &[f64], lr: f64, mut tap: Option<&mut [f64]>) {
    let (zero, lrv) = (L::zero(), L::splat(lr));
    for j in (0..d.len()).step_by(L::N) {
        let dv = L::load_part(&d[j..], (d.len() - j).min(L::N));
        let g = zero.add(dv);
        let p = L::load(&b[j..]);
        L::select_nonzero(dv, p.sub(lrv.mul(g)), p).store(&mut b[j..]);
        if let Some(tap) = tap.as_deref_mut() {
            let t = L::load(&tap[j..]);
            L::select_nonzero(dv, t.add(g), t).store(&mut tap[j..]);
        }
    }
}

/// The `#[target_feature]` entry points the generic kernels are inlined
/// into.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::StepLayer;
    use crate::lanes::{Avx2F64, Avx512F64};

    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn forward_avx512(layer: &StepLayer, x: &[f64], z: &mut [f64]) {
        layer.forward_on::<Avx512F64>(x, z)
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn forward_avx2(layer: &StepLayer, x: &[f64], z: &mut [f64]) {
        layer.forward_on::<Avx2F64>(x, z)
    }

    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn step_avx512(
        layer: &mut StepLayer,
        x: &[f64],
        d: &[f64],
        lr: f64,
        dx: Option<&mut [f64]>,
    ) {
        layer.step_on::<Avx512F64>(x, d, lr, dx)
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn step_avx2(
        layer: &mut StepLayer,
        x: &[f64],
        d: &[f64],
        lr: f64,
        dx: Option<&mut [f64]>,
    ) {
        layer.step_on::<Avx2F64>(x, d, lr, dx)
    }
}
