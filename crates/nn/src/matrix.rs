//! Dense row-major matrices — the exact (`f64`) compute path.
//!
//! Sized for LTE's workloads: layer weights are at most a few hundred by a
//! few hundred, the memory modules are `m × ku` / `m × |θR|` with small
//! `m` (2–6), and batched pool scoring multiplies a `pool × features`
//! operand against layer weights. No BLAS needed.
//!
//! The one genuinely hot kernel, [`Matrix::matmul_nt_ep`] (`A·Bᵀ` with a
//! fused bias + activation epilogue), runs at vector width: [`KernelKind`]
//! picks an AVX-512F 4-row × 16-column register tile, an AVX2 4 × 8 tile,
//! or the portable 2-row × 8-column loop. Unlike the reassociating `f32`
//! kernels in [`crate::matrix32`], every `f64` kernel keeps a strict
//! per-output order, so batched results are **bit-identical** to per-row
//! evaluation ([`Matrix::matvec`], then the bias, then the activation) on
//! every kernel:
//!
//! * SIMD lanes hold different outputs, never parts of one sum, and there
//!   are no horizontal reductions;
//! * each output starts from `+0.0` and adds its products in `k` order,
//!   one rounded multiply and one rounded add per step — never a fused
//!   multiply-add;
//! * the bias is added after the full sum, then the activation is applied,
//!   then the value is stored. The vector ReLU `max(x, 0)` returns `0` for
//!   a NaN `x` and `+0.0` for `-0.0`, as `f64::max(x, 0.0)` does.

use crate::activation::Activation;
use crate::matrix32::{Epilogue, KernelKind};
use rand::Rng;

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Self { rows, cols, data }
    }

    /// Build element-wise from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Fill with independent uniform values in `[-a, a]`.
    pub fn uniform<R: Rng + ?Sized>(rows: usize, cols: usize, a: f64, rng: &mut R) -> Self {
        Self::from_fn(rows, cols, |_, _| crate::init::uniform_sym(rng, a))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix-vector product `y = A·x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// [`Matrix::matvec`] into a caller-owned output, overwriting it.
    ///
    /// Rows go four at a time: one sequential sum per row is bound by the
    /// latency of its adds, and four independent sums hide it. Each output
    /// still starts from `0.0` and adds its products in column order, so
    /// the result is the same, bit for bit, as one row at a time.
    ///
    /// # Panics
    /// Panics when `x.len() != cols` or `y.len() != rows`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output mismatch");
        let n = self.cols;
        if n == 0 {
            y.fill(0.0);
            return;
        }
        let mut quads = self.data.chunks_exact(4 * n);
        let mut outs = y.chunks_exact_mut(4);
        for (w, out) in (&mut quads).zip(&mut outs) {
            let (w0, w1, w2, w3) = (&w[..n], &w[n..2 * n], &w[2 * n..3 * n], &w[3 * n..]);
            let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
            for c in 0..n {
                let xv = x[c];
                a0 += w0[c] * xv;
                a1 += w1[c] * xv;
                a2 += w2[c] * xv;
                a3 += w3[c] * xv;
            }
            out.copy_from_slice(&[a0, a1, a2, a3]);
        }
        for (row, yr) in quads.remainder().chunks_exact(n).zip(outs.into_remainder()) {
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *yr = acc;
        }
    }

    /// Transposed matrix-vector product `y = Aᵀ·x` (x has `rows` entries,
    /// result has `cols`). This is the attention read `ωR = aRᵀ·MR` (Eq. 8).
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_t dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for (r, &xv) in x.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            let row = self.row(r);
            for (yi, a) in y.iter_mut().zip(row) {
                *yi += xv * a;
            }
        }
        y
    }

    /// In-place scale: `A *= s`.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// In-place axpy: `A += s·B`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Matrix, s: f64) {
        assert_eq!(self.rows, other.rows, "row mismatch");
        assert_eq!(self.cols, other.cols, "col mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// Accumulate a scaled outer product: `A += s·(u ⊗ v)` where `u` has
    /// `rows` entries and `v` has `cols`. This is the attentive memory write
    /// `M ⇐ η(aR × vᵀ) + (1−η)M` (Eq. 14) after a prior [`Matrix::scale`].
    pub fn add_outer(&mut self, u: &[f64], v: &[f64], s: f64) {
        assert_eq!(u.len(), self.rows, "outer row mismatch");
        assert_eq!(v.len(), self.cols, "outer col mismatch");
        for (r, &uv) in u.iter().enumerate() {
            let ur = s * uv;
            if ur == 0.0 {
                continue;
            }
            let row = self.row_mut(r);
            for (a, b) in row.iter_mut().zip(v) {
                *a += ur * b;
            }
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Build from a slice of equally sized rows. `cols` must be passed
    /// explicitly so the empty batch keeps its width.
    ///
    /// # Panics
    /// Panics when any row's length differs from `cols`.
    pub fn from_rows(rows: &[Vec<f64>], cols: usize) -> Self {
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "row width mismatch");
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Matrix product with a transposed right operand:
    /// `C = A·Bᵀ` where `A` is `n × k` and `B` is `m × k`, so
    /// `C[i][j] = ⟨A.row(i), B.row(j)⟩`.
    ///
    /// This is the batched-inference workhorse: a dense layer over a batch
    /// is `X·Wᵀ` with both operands row-major, so no transposition of `A`
    /// is ever materialized. [`Matrix::matmul_nt_ep`] with no epilogue;
    /// see it for the kernels and the bitwise contract: every output is
    /// the same, bit for bit, as [`Matrix::matvec`] of its row, whatever
    /// the shape, the tiling or the kernel, and each output row depends
    /// only on its own input row. This is the exact (`f64`) reference path;
    /// the [`Matrix32`](crate::matrix32::Matrix32) fast path trades this
    /// guarantee for fused multiply-adds at twice the lane count.
    ///
    /// ```
    /// use lte_nn::Matrix;
    ///
    /// // A: 2×3 batch, B: weight matrix stored row-major (2 outputs × 3 in).
    /// let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    /// let b = Matrix::from_vec(2, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0]);
    /// let c = a.matmul_nt(&b);
    /// assert_eq!(c.row(0), &[1.0, 2.0]); // ⟨row0, b_j⟩ picks components
    /// assert_eq!(c.row(1), &[4.0, 5.0]);
    /// ```
    ///
    /// # Panics
    /// Panics when the inner dimensions (`cols`) disagree.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        self.matmul_nt_ep(other, Epilogue::none())
    }

    /// The transpose `Aᵀ` (`cols × rows`).
    pub fn transpose(&self) -> Matrix {
        let (rows, cols) = (self.rows, self.cols);
        let mut data = vec![0.0; rows * cols];
        for (r, row) in self.data.chunks_exact(cols.max(1)).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                data[c * rows + r] = v;
            }
        }
        Matrix::from_vec(cols, rows, data)
    }

    /// `C = Aᵀ·B` where `A` is `k × n` and `B` is `k × m`, so
    /// `C[i][j] = Σₖ A[k][i]·B[k][j]`: [`Matrix::matmul_nt`] of the two
    /// transposes, so each output is summed from `+0.0` in `k` order with
    /// a multiply then an add. With one example per row, this is a layer's
    /// batch-summed weight gradient `dZᵀ·X`. `B` is packed into the
    /// kernel's column panels straight from its rows; only `A` is
    /// transposed.
    ///
    /// # Panics
    /// Panics when the row counts disagree.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        self.matmul_tn_with(other, KernelKind::detect())
    }

    /// [`Matrix::matmul_tn`] on `kernel`.
    fn matmul_tn_with(&self, other: &Matrix, kernel: KernelKind) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn inner dimension mismatch");
        self.transpose().matmul_nn_with(other, kernel)
    }

    /// `C = A·B` where `A` is `n × k` and `B` is `k × m`:
    /// [`Matrix::matmul_nt`] against `Bᵀ`, with the same per-output order,
    /// `B` packed into the kernel's column panels straight from its rows.
    /// With one example per row, this is a layer's input gradient `dZ·W`.
    ///
    /// # Panics
    /// Panics when `A.cols != B.rows`.
    pub fn matmul_nn(&self, other: &Matrix) -> Matrix {
        self.matmul_nn_with(other, KernelKind::detect())
    }

    /// [`Matrix::matmul_nn`] on `kernel`.
    fn matmul_nn_with(&self, other: &Matrix, kernel: KernelKind) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul_nn inner dimension mismatch");
        self.matmul_packed(other.cols, kernel, false, |w| Packed::from_kn(other, w))
    }

    /// [`Matrix::matmul_nt`] with a fused [`Epilogue`]:
    /// `C[i][j] = act(⟨A.row(i), B.row(j)⟩ + bias[j])`, on the kernel
    /// [`KernelKind::detect`] picks.
    ///
    /// Each kernel packs `Bᵀ` once per call into zero-padded column
    /// panels, then sweeps register tiles of rows of `A` against
    /// L1-resident slabs of panels: 4 rows × 16 columns (two 8-lane
    /// vectors) on AVX-512F, 4 × 8 (two 4-lane vectors) on AVX2, 2 × 8
    /// scalars on the portable kernel. A ragged panel narrower than one
    /// vector runs on a single vector, so the classifier head (`m = 1`)
    /// stays on the same path. The bias add and a
    /// ReLU/identity activation are applied in-register before each store;
    /// Sigmoid and Tanh run as a post-store pass. The result equals, bit
    /// for bit, `matvec` of each row followed by `+ bias` and
    /// [`Activation::apply`] (see the module docs for the rules that make
    /// it so), which is also [`Dense::forward`](crate::Dense::forward)'s
    /// arithmetic.
    ///
    /// ```
    /// use lte_nn::{Activation, Epilogue, Matrix};
    ///
    /// let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
    /// let w = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, -1.0]);
    /// let bias = [0.5, -0.5];
    /// let z = a.matmul_nt_ep(&w, Epilogue::new(&bias, Activation::Relu));
    /// assert_eq!(z.row(0), &[1.5, 0.0]); // relu(1 + 0.5), relu(-2 - 0.5)
    /// ```
    ///
    /// # Panics
    /// Panics when the inner dimensions (`cols`) disagree or the epilogue
    /// bias width differs from `other.rows`.
    pub fn matmul_nt_ep(&self, other: &Matrix, ep: Epilogue<'_, f64>) -> Matrix {
        self.matmul_nt_ep_with(other, ep, KernelKind::detect())
    }

    /// [`Matrix::matmul_nt_ep`] pinned to a specific kernel instead of the
    /// auto-detected best one. Every supported kernel produces the same
    /// bits; this entry point exists so tests and benchmarks can compare
    /// or time them individually.
    ///
    /// # Panics
    /// Panics when `kernel` is not supported on the running CPU (check
    /// [`KernelKind::supported`] first), and on the same dimension
    /// mismatches as [`Matrix::matmul_nt_ep`].
    pub fn matmul_nt_ep_with(
        &self,
        other: &Matrix,
        ep: Epilogue<'_, f64>,
        kernel: KernelKind,
    ) -> Matrix {
        assert!(
            kernel.supported(),
            "kernel {kernel} is not supported on this CPU"
        );
        assert_eq!(self.cols, other.cols, "matmul_nt inner dimension mismatch");
        if let Some(b) = ep.bias {
            assert_eq!(b.len(), other.rows, "epilogue bias width mismatch");
        }
        let (fused, post) = ep.split_post();
        let relu = matches!(fused.activation, Activation::Relu);
        let mut out = self.matmul_packed(other.rows, kernel, relu, |w| {
            Packed::from_rows(other, fused.bias, w)
        });
        if let Some(act) = post {
            act.apply_slice(&mut out.data);
        }
        out
    }

    /// `act(A·B + bias)` on `kernel`, where `pack(w)` packs the `k × m`
    /// right operand `B` and the bias into panels of width `w`, and `act`
    /// is ReLU when `relu`, else the identity. The shared back end of the
    /// products; the caller checks the shapes and the kernel.
    fn matmul_packed(
        &self,
        m: usize,
        kernel: KernelKind,
        relu: bool,
        pack: impl FnOnce(usize) -> Packed,
    ) -> Matrix {
        let mut out = Matrix::zeros(self.rows, m);
        if self.rows == 0 || m == 0 {
            return out;
        }
        match kernel {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: every caller asserted `kernel.supported()`, so the
            // CPU has AVX-512F; the panels are packed at the kernel's width.
            KernelKind::Avx512f => unsafe {
                avx512::matmul(self, &pack(avx512::COLS), relu, &mut out)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above; `Avx2Fma` support implies AVX2.
            KernelKind::Avx2Fma => unsafe { avx2::matmul(self, &pack(avx2::COLS), relu, &mut out) },
            _ => matmul_portable(self, &pack(PORTABLE_COLS), relu, &mut out),
        }
        out
    }
}

/// Columns per panel of the portable kernel.
const PORTABLE_COLS: usize = 8;

/// The portable kernel behind [`Matrix::matmul_nt_ep`], for CPUs without
/// a SIMD kernel: the SIMD kernels' loop nest with eight scalar columns
/// per panel, two `A` rows per pass sharing every load of the panel, and
/// eight independent accumulator chains per row.
fn matmul_portable(a: &Matrix, packed: &Packed, relu: bool, out: &mut Matrix) {
    let n = a.rows;
    let slab = Packed::slab(a.cols, PORTABLE_COLS);
    for p0 in (0..packed.panels).step_by(slab) {
        let panels = p0..(p0 + slab).min(packed.panels);
        let mut i = 0;
        while i + 2 <= n {
            portable_rows::<2>(a, packed, relu, out, i, panels.clone());
            i += 2;
        }
        if i < n {
            portable_rows::<1>(a, packed, relu, out, i, panels);
        }
    }
}

/// Rows `i..i + R` of [`matmul_portable`] against the panels `panels`.
fn portable_rows<const R: usize>(
    a: &Matrix,
    packed: &Packed,
    relu: bool,
    out: &mut Matrix,
    i: usize,
    panels: std::ops::Range<usize>,
) {
    const W: usize = PORTABLE_COLS;
    let (k, m) = (a.cols, out.cols);
    for p in panels {
        let panel = &packed.bt[p * k * W..(p + 1) * k * W];
        let mut s = [[0.0f64; W]; R];
        for (kk, step) in panel.chunks_exact(W).enumerate() {
            for (r, s) in s.iter_mut().enumerate() {
                let av = a.data[(i + r) * k + kk];
                for (sc, &bv) in s.iter_mut().zip(step) {
                    *sc += av * bv;
                }
            }
        }
        let j = p * W;
        let width = (m - j).min(W);
        for (r, s) in s.iter().enumerate() {
            let orow = &mut out.data[(i + r) * m + j..(i + r) * m + j + width];
            for (c, (o, &v)) in orow.iter_mut().zip(s).enumerate() {
                let x = match &packed.bias {
                    Some(b) => v + b[j + c],
                    None => v,
                };
                *o = if relu { x.max(0.0) } else { x };
            }
        }
    }
}

/// The right operand of `A·Bᵀ` (`B` is `m × k`) and the epilogue bias
/// packed for the kernels, in `⌈m / w⌉` column panels of width `w`: panel
/// `p` holds `B[p·w + c][kk]` at `bt[(p·k + kk)·w + c]`, so one
/// aligned-width load reads `w` consecutive output columns. Both are
/// zero-padded past `m`; the padded lanes are computed but never stored.
struct Packed {
    panels: usize,
    bt: Vec<f64>,
    bias: Option<Vec<f64>>,
}

impl Packed {
    /// The panels of `B` (`m × k`, one output per row), and the bias.
    fn from_rows(b: &Matrix, bias: Option<&[f64]>, w: usize) -> Self {
        let (m, k) = (b.rows, b.cols);
        let panels = m.div_ceil(w);
        let mut bt = vec![0.0; panels * k * w];
        for j in 0..m {
            let (p, c) = (j / w, j % w);
            for (kk, &v) in b.row(j).iter().enumerate() {
                bt[(p * k + kk) * w + c] = v;
            }
        }
        let bias = bias.map(|b| {
            let mut padded = vec![0.0; panels * w];
            padded[..m].copy_from_slice(b);
            padded
        });
        Self { panels, bt, bias }
    }

    /// The panels of `Bᵀ` for `A·B` (`B` is `k × m`, one output per
    /// column), straight from `B`'s rows: panel `p` at step `kk` is the
    /// slice `B[kk][p·w .. p·w + w]`, zero-padded.
    fn from_kn(b: &Matrix, w: usize) -> Self {
        let (k, m) = (b.rows, b.cols);
        let panels = m.div_ceil(w);
        let mut bt = vec![0.0; panels * k * w];
        for (kk, row) in b.data.chunks_exact(m.max(1)).enumerate() {
            for (p, cols) in row.chunks(w).enumerate() {
                let at = (p * k + kk) * w;
                bt[at..at + cols.len()].copy_from_slice(cols);
            }
        }
        Self {
            panels,
            bt,
            bias: None,
        }
    }

    /// Panels per L1-resident slab: as many `k × w` panels as
    /// [`l1_block_rows`] allows rows of `B` (at least `w`, so one panel).
    fn slab(k: usize, w: usize) -> usize {
        l1_block_rows(k, w) / w
    }
}

/// AVX-512F `f64` kernel for [`Matrix::matmul_nt_ep`]: 4-row × 16-column
/// register tiles, each row's 16 outputs held in two 8-lane vectors. For
/// each `k` step a tile loads two vectors of the packed panel, broadcasts
/// one value of each of its 4 rows, and does one `_mm512_mul_pd` then one
/// `_mm512_add_pd` per accumulator — lanes are different outputs, so each
/// output's sum keeps the scalar order and rounding.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{Matrix, Packed};
    use std::arch::x86_64::*;

    /// Rows per register tile.
    const ROWS: usize = 4;
    /// `f64` lanes per vector.
    const LANES: usize = 8;
    /// Columns per panel: two vectors.
    pub(super) const COLS: usize = 2 * LANES;

    /// `act(x + bias)` on one vector. `_mm512_max_pd(x, 0)` returns its
    /// second operand when `x` is NaN or both are zero, so it equals
    /// `f64::max(x, 0.0)` lane for lane, `-0.0` included.
    ///
    /// # Safety
    /// The CPU must support AVX-512F.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn apply_ep(x: __m512d, bias: Option<__m512d>, relu: bool) -> __m512d {
        let mut x = x;
        if let Some(b) = bias {
            x = _mm512_add_pd(x, b);
        }
        if relu {
            x = _mm512_max_pd(x, _mm512_setzero_pd());
        }
        x
    }

    /// Rows `i..i + R` of `out`, columns `j..j + min(V·LANES, m − j)`,
    /// from one packed panel (`k × COLS`) and its padded bias.
    ///
    /// # Safety
    /// The CPU must support AVX-512F. `bias`, when given, must hold at least
    /// `V·LANES` values, and `V` may be 2 only when `m − j > LANES`, so
    /// every unmasked store stays inside row `i + r`'s live columns.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn row_tile<const R: usize, const V: usize>(
        arows: &[&[f64]; R],
        panel: &[f64],
        bias: Option<&[f64]>,
        relu: bool,
        out: &mut [f64],
        m: usize,
        i: usize,
        j: usize,
    ) {
        let mut acc = [[_mm512_setzero_pd(); V]; R];
        for (kk, step) in panel.chunks_exact(COLS).enumerate() {
            let mut vb = [_mm512_setzero_pd(); V];
            for (v, b) in vb.iter_mut().enumerate() {
                *b = _mm512_loadu_pd(step.as_ptr().add(v * LANES));
            }
            for r in 0..R {
                let va = _mm512_set1_pd(arows[r][kk]);
                for v in 0..V {
                    acc[r][v] = _mm512_add_pd(acc[r][v], _mm512_mul_pd(va, vb[v]));
                }
            }
        }
        let mut vbias = [None; V];
        if let Some(b) = bias {
            for (v, vb) in vbias.iter_mut().enumerate() {
                *vb = Some(_mm512_loadu_pd(b.as_ptr().add(v * LANES)));
            }
        }
        // Live lanes of the last vector: all of them except in a ragged
        // panel, where the masked store leaves the padded lanes unwritten.
        let width = (m - j).min(V * LANES);
        let last: __mmask8 = 0xFF >> (V * LANES - width);
        for (r, acc) in acc.iter().enumerate() {
            let o = (i + r) * m + j;
            let dst = out[o..o + width].as_mut_ptr();
            for v in 0..V - 1 {
                _mm512_storeu_pd(dst.add(v * LANES), apply_ep(acc[v], vbias[v], relu));
            }
            let x = apply_ep(acc[V - 1], vbias[V - 1], relu);
            _mm512_mask_storeu_pd(dst.add((V - 1) * LANES), last, x);
        }
    }

    /// Rows `i..i + R` against the panels `panels` of `packed`.
    ///
    /// # Safety
    /// The CPU must support AVX-512F, and `packed` must be packed with
    /// width `COLS` from a matrix with `out.cols` rows and `a.cols`
    /// columns.
    #[target_feature(enable = "avx512f")]
    unsafe fn rows<const R: usize>(
        a: &Matrix,
        packed: &Packed,
        relu: bool,
        out: &mut Matrix,
        i: usize,
        panels: std::ops::Range<usize>,
    ) {
        let (k, m) = (a.cols, out.cols);
        let arows: [&[f64]; R] = std::array::from_fn(|r| a.row(i + r));
        for p in panels {
            let j = p * COLS;
            let panel = &packed.bt[p * k * COLS..(p + 1) * k * COLS];
            let bias = packed.bias.as_deref().map(|b| &b[j..j + COLS]);
            if m - j > LANES {
                row_tile::<R, 2>(&arows, panel, bias, relu, &mut out.data, m, i, j);
            } else {
                row_tile::<R, 1>(&arows, panel, bias, relu, &mut out.data, m, i, j);
            }
        }
    }

    /// `out = act(A·Bᵀ + bias)` from `B` and the bias packed at width
    /// `COLS`, bit-identical to the per-row reference. `out` must already
    /// be `A.rows × m` for the `m` columns packed; shapes and the bias
    /// width are the caller's contract ([`Matrix::matmul_nt_ep_with`] and
    /// [`Matrix::matmul_nn`] check them).
    ///
    /// # Safety
    /// The CPU must support AVX-512F (`is_x86_feature_detected!`).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn matmul(a: &Matrix, packed: &Packed, relu: bool, out: &mut Matrix) {
        let n = a.rows;
        let slab = Packed::slab(a.cols, COLS);
        for p0 in (0..packed.panels).step_by(slab) {
            let panels = p0..(p0 + slab).min(packed.panels);
            let mut i = 0;
            while i + ROWS <= n {
                rows::<ROWS>(a, packed, relu, out, i, panels.clone());
                i += ROWS;
            }
            while i < n {
                rows::<1>(a, packed, relu, out, i, panels.clone());
                i += 1;
            }
        }
    }
}

/// AVX2 `f64` kernel for [`Matrix::matmul_nt_ep`]: the AVX-512F kernel's
/// structure at half the width — 4-row × 8-column register tiles, each
/// row's 8 outputs in two 4-lane vectors, one `_mm256_mul_pd` then one
/// `_mm256_add_pd` per accumulator and `k` step. It uses no FMA, so it
/// needs only AVX2 (dispatched as [`KernelKind::Avx2Fma`]).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Matrix, Packed};
    use std::arch::x86_64::*;

    /// Rows per register tile.
    const ROWS: usize = 4;
    /// `f64` lanes per vector.
    const LANES: usize = 4;
    /// Columns per panel: two vectors.
    pub(super) const COLS: usize = 2 * LANES;

    /// `act(x + bias)` on one vector; `_mm256_max_pd(x, 0)` equals
    /// `f64::max(x, 0.0)` lane for lane, as in the AVX-512F kernel.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn apply_ep(x: __m256d, bias: Option<__m256d>, relu: bool) -> __m256d {
        let mut x = x;
        if let Some(b) = bias {
            x = _mm256_add_pd(x, b);
        }
        if relu {
            x = _mm256_max_pd(x, _mm256_setzero_pd());
        }
        x
    }

    /// Rows `i..i + R` of `out`, columns `j..j + min(V·LANES, m − j)`,
    /// from one packed panel (`k × COLS`) and its padded bias.
    ///
    /// # Safety
    /// The CPU must support AVX2. `bias`, when given, must hold at least
    /// `V·LANES` values, and `V` may be 2 only when `m − j > LANES`, so
    /// every unmasked store stays inside row `i + r`'s live columns.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn row_tile<const R: usize, const V: usize>(
        arows: &[&[f64]; R],
        panel: &[f64],
        bias: Option<&[f64]>,
        relu: bool,
        out: &mut [f64],
        m: usize,
        i: usize,
        j: usize,
    ) {
        let mut acc = [[_mm256_setzero_pd(); V]; R];
        for (kk, step) in panel.chunks_exact(COLS).enumerate() {
            let mut vb = [_mm256_setzero_pd(); V];
            for (v, b) in vb.iter_mut().enumerate() {
                *b = _mm256_loadu_pd(step.as_ptr().add(v * LANES));
            }
            for r in 0..R {
                let va = _mm256_set1_pd(arows[r][kk]);
                for v in 0..V {
                    acc[r][v] = _mm256_add_pd(acc[r][v], _mm256_mul_pd(va, vb[v]));
                }
            }
        }
        let mut vbias = [None; V];
        if let Some(b) = bias {
            for (v, vb) in vbias.iter_mut().enumerate() {
                *vb = Some(_mm256_loadu_pd(b.as_ptr().add(v * LANES)));
            }
        }
        // Live lanes of the last vector, as in the AVX-512F kernel: the
        // sign bit of each 64-bit mask lane enables its store.
        let width = (m - j).min(V * LANES);
        let live = width - (V - 1) * LANES;
        let last = _mm256_setr_epi64x(
            -1,
            if live > 1 { -1 } else { 0 },
            if live > 2 { -1 } else { 0 },
            if live > 3 { -1 } else { 0 },
        );
        for (r, acc) in acc.iter().enumerate() {
            let o = (i + r) * m + j;
            let dst = out[o..o + width].as_mut_ptr();
            for v in 0..V - 1 {
                _mm256_storeu_pd(dst.add(v * LANES), apply_ep(acc[v], vbias[v], relu));
            }
            let x = apply_ep(acc[V - 1], vbias[V - 1], relu);
            _mm256_maskstore_pd(dst.add((V - 1) * LANES), last, x);
        }
    }

    /// Rows `i..i + R` against the panels `panels` of `packed`.
    ///
    /// # Safety
    /// The CPU must support AVX2, and `packed` must be packed with width
    /// `COLS` from a matrix with `out.cols` rows and `a.cols` columns.
    #[target_feature(enable = "avx2")]
    unsafe fn rows<const R: usize>(
        a: &Matrix,
        packed: &Packed,
        relu: bool,
        out: &mut Matrix,
        i: usize,
        panels: std::ops::Range<usize>,
    ) {
        let (k, m) = (a.cols, out.cols);
        let arows: [&[f64]; R] = std::array::from_fn(|r| a.row(i + r));
        for p in panels {
            let j = p * COLS;
            let panel = &packed.bt[p * k * COLS..(p + 1) * k * COLS];
            let bias = packed.bias.as_deref().map(|b| &b[j..j + COLS]);
            if m - j > LANES {
                row_tile::<R, 2>(&arows, panel, bias, relu, &mut out.data, m, i, j);
            } else {
                row_tile::<R, 1>(&arows, panel, bias, relu, &mut out.data, m, i, j);
            }
        }
    }

    /// `out = act(A·Bᵀ + bias)` from `B` and the bias packed at width
    /// `COLS`, bit-identical to the per-row reference; the caller's
    /// contract is that of `avx512::matmul`.
    ///
    /// # Safety
    /// The CPU must support AVX2 (`is_x86_feature_detected!`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn matmul(a: &Matrix, packed: &Packed, relu: bool, out: &mut Matrix) {
        let n = a.rows;
        let slab = Packed::slab(a.cols, COLS);
        for p0 in (0..packed.panels).step_by(slab) {
            let panels = p0..(p0 + slab).min(packed.panels);
            let mut i = 0;
            while i + ROWS <= n {
                rows::<ROWS>(a, packed, relu, out, i, panels.clone());
                i += ROWS;
            }
            while i < n {
                rows::<1>(a, packed, relu, out, i, panels.clone());
                i += 1;
            }
        }
    }
}

/// Dot product of equal-length slices, summed from `+0.0` in index order
/// as [`Matrix::matvec`] sums each row (`Iterator::sum` would start from
/// `-0.0`, so an all-`-0.0` sum would keep the sign).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).fold(0.0, |acc, (x, y)| acc + x * y)
}

/// Rows of a `rows × k` operand that fit a conservative L1 budget
/// (~32 KiB), floored at `min_rows` so tiny inner dimensions never
/// degenerate the tile below the kernel width and capped at 512.
/// `elem_size` is the scalar width in bytes (8 for `f64`, 4 for `f32`).
/// The kernels size their right-operand slabs with it, and `f32` pool
/// scoring sizes its row tiles.
pub fn l1_block_rows_sized(k: usize, min_rows: usize, elem_size: usize) -> usize {
    const L1_BUDGET_BYTES: usize = 32 * 1024;
    (L1_BUDGET_BYTES / (elem_size * k.max(1))).clamp(min_rows, 512)
}

/// [`Matrix::matmul_nt`]'s cache tile: how many rows of the `f64` right
/// operand are processed per slab. Exposed for the kernel benches.
pub fn l1_block_rows(k: usize, min_rows: usize) -> usize {
    l1_block_rows_sized(k, min_rows, std::mem::size_of::<f64>())
}

/// Cosine similarity; zero vectors yield 0.
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let na = dot(a, a).sqrt();
    let nb = dot(b, b).sqrt();
    if na <= f64::EPSILON || nb <= f64::EPSILON {
        0.0
    } else {
        dot(a, b) / (na * nb)
    }
}

/// In-place numerically stable softmax.
pub fn softmax_inplace(x: &mut [f64]) {
    if x.is_empty() {
        return;
    }
    let max = x.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in x.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in x.iter_mut() {
            *v /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    #[should_panic(expected = "data length mismatch")]
    fn from_vec_checks_length() {
        Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_t_matches_hand_computation() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        // Aᵀ·[1, -1] = [1-4, 2-5, 3-6]
        assert_eq!(m.matvec_t(&[1.0, -1.0]), vec![-3.0, -3.0, -3.0]);
    }

    #[test]
    fn add_outer_accumulates() {
        let mut m = Matrix::zeros(2, 2);
        m.add_outer(&[1.0, 2.0], &[3.0, 4.0], 0.5);
        assert_eq!(m.data(), &[1.5, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn scale_and_add_scaled() {
        let mut a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(1, 2, vec![10.0, 10.0]);
        a.scale(2.0);
        a.add_scaled(&b, 0.1);
        assert_eq!(a.data(), &[3.0, 5.0]);
    }

    #[test]
    fn cosine_properties() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-12);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let mut x = vec![1000.0, 1000.0, 999.0];
        softmax_inplace(&mut x);
        let sum: f64 = x.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(x[0] > x[2]);
        assert!((x[0] - x[1]).abs() < 1e-12);
        // Empty input is a no-op.
        softmax_inplace(&mut []);
    }

    #[test]
    fn frobenius_norm() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn from_rows_round_trips() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]], 2);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        let empty = Matrix::from_rows(&[], 5);
        assert_eq!(empty.rows(), 0);
        assert_eq!(empty.cols(), 5);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn from_rows_checks_widths() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]], 1);
    }

    /// Every kernel the running CPU supports.
    fn kernels() -> Vec<KernelKind> {
        [
            KernelKind::Avx512f,
            KernelKind::Avx2Fma,
            KernelKind::Portable,
        ]
        .into_iter()
        .filter(|k| k.supported())
        .collect()
    }

    /// `A` with special rows: row 0 is all zeros, so its products with
    /// `B`'s all-`-1` rows (every eighth: the classifier head's `m = 1`,
    /// and the first column past each 8-column block) are all `-0.0`; row 1
    /// starts with `+inf` (`±inf` sums, and NaN against `B`'s zero at
    /// `[1][0]`); row 2 holds one NaN. Each row has at most one NaN
    /// source, so every NaN is bit-stable.
    fn special_operands(n: usize, m: usize, k: usize) -> (Matrix, Matrix, Vec<f64>) {
        let a = Matrix::from_fn(n, k, |r, c| match (r, c) {
            (0, _) => 0.0,
            (1, 0) => f64::INFINITY,
            (2, c) if c == k / 2 => f64::NAN,
            _ => ((r * 31 + c * 17) as f64).sin(),
        });
        let b = Matrix::from_fn(m, k, |r, c| match (r, c) {
            (r, _) if r % 8 == 0 => -1.0,
            (1, 0) => 0.0,
            _ => ((r * 13 + c * 7) as f64).cos(),
        });
        // `±0.0` biases, one `-inf` (NaN against a `+inf` sum), the rest
        // finite.
        let bias = (0..m)
            .map(|j| match j % 4 {
                0 => -0.0,
                1 => 0.0,
                _ if j == 2 => f64::NEG_INFINITY,
                _ => (j as f64 * 0.37).sin(),
            })
            .collect();
        (a, b, bias)
    }

    /// The grid straddles the 4-row tiles, the 4-, 8- and 16-column
    /// vectors and panels, and an empty inner dimension; the extra shapes
    /// cross the L1 slab boundary (512 rows at small k) and the portable
    /// kernel's 2-row × 8-column blocks.
    fn special_shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = Vec::new();
        for n in [1, 3, 4, 5, 13] {
            for m in [1, 7, 8, 9, 15, 16, 17, 33] {
                for k in [0, 1, 12, 32] {
                    shapes.push((n, m, k));
                }
            }
        }
        shapes.extend([(8, 8, 8), (2, 513, 3), (5, 520, 9), (1, 16, 1000)]);
        shapes
    }

    #[test]
    fn matmul_nt_matches_per_row_matvec_bitwise() {
        // Every output over `special_shapes`, the all-`-0.0` sums
        // included, must equal `matvec`'s, which sums from `+0.0`; Sigmoid
        // and Tanh run after the store.
        let shapes = special_shapes();
        for kernel in kernels() {
            for &(n, m, k) in &shapes {
                let (a, b, bias) = special_operands(n, m, k);
                for bias in [None, Some(bias.as_slice())] {
                    for activation in [
                        Activation::Identity,
                        Activation::Relu,
                        Activation::Sigmoid,
                        Activation::Tanh,
                    ] {
                        let ep = Epilogue { bias, activation };
                        let c = a.matmul_nt_ep_with(&b, ep, kernel);
                        assert_eq!((c.rows(), c.cols()), (n, m));
                        for i in 0..n {
                            let mut reference = b.matvec(a.row(i));
                            if let Some(bias) = bias {
                                for (z, bj) in reference.iter_mut().zip(bias) {
                                    *z += bj;
                                }
                            }
                            activation.apply_slice(&mut reference);
                            for (j, r) in reference.iter().enumerate() {
                                assert_eq!(
                                    c.get(i, j).to_bits(),
                                    r.to_bits(),
                                    "{kernel} ({i},{j}) of {n}x{m}x{k}, {ep:?}: {} vs {r}",
                                    c.get(i, j)
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_tn_and_nn_match_transpose_then_matmul_nt_bitwise() {
        // Both products pack `B` into panels straight from its rows; they
        // must equal `matmul_nt` against the materialized transposes, bit
        // for bit, on every kernel over `special_shapes`, with the special
        // operands' zeros, infinities and NaN in either factor.
        for kernel in kernels() {
            for (n, m, k) in special_shapes() {
                let (a, bt, _) = special_operands(n, m, k);
                let (at, b) = (a.transpose(), bt.transpose());
                let want: Vec<u64> = a
                    .matmul_nt_ep_with(&bt, Epilogue::none(), kernel)
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                for (name, c) in [
                    ("matmul_nn", a.matmul_nn_with(&b, kernel)),
                    ("matmul_tn", at.matmul_tn_with(&b, kernel)),
                ] {
                    assert_eq!((c.rows(), c.cols()), (n, m), "{name} {kernel}");
                    let got: Vec<u64> = c.data().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "{name} {kernel} of {n}x{m}x{k}");
                }
            }
        }
    }

    /// The vector ReLU equals `f64::max(x, 0.0)` on NaN and on `-0.0`,
    /// which no kernel output can reach (a sum from `+0.0` is never
    /// `-0.0`), so the epilogue is pinned on its own.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn simd_relu_matches_scalar_max() {
        use std::arch::x86_64::*;
        let xs = [
            f64::NAN,
            -0.0,
            0.0,
            f64::NEG_INFINITY,
            f64::INFINITY,
            -1.5,
            2.5,
            -f64::NAN,
        ];
        let want: Vec<u64> = xs
            .iter()
            .map(|&x| Activation::Relu.apply(x).to_bits())
            .collect();
        if KernelKind::Avx512f.supported() {
            let mut got = [0.0f64; 8];
            // SAFETY: AVX-512F support was just checked; both arrays hold
            // the 8 lanes one vector loads and stores.
            unsafe {
                let x = avx512::apply_ep(_mm512_loadu_pd(xs.as_ptr()), None, true);
                _mm512_storeu_pd(got.as_mut_ptr(), x);
            }
            assert_eq!(got.map(f64::to_bits).to_vec(), want);
        }
        if KernelKind::Avx2Fma.supported() {
            let mut got = [0.0f64; 8];
            for (src, dst) in xs.chunks_exact(4).zip(got.chunks_exact_mut(4)) {
                // SAFETY: AVX2 support was just checked; each chunk holds
                // the 4 lanes one vector loads and stores.
                unsafe {
                    let x = avx2::apply_ep(_mm256_loadu_pd(src.as_ptr()), None, true);
                    _mm256_storeu_pd(dst.as_mut_ptr(), x);
                }
            }
            assert_eq!(got.map(f64::to_bits).to_vec(), want);
        }
    }

    #[test]
    #[should_panic(expected = "epilogue bias width mismatch")]
    fn epilogue_bias_width_is_checked() {
        Matrix::zeros(2, 3).matmul_nt_ep(&Matrix::zeros(4, 3), Epilogue::bias_only(&[0.0; 3]));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_nt_checks_inner_dims() {
        Matrix::zeros(2, 3).matmul_nt(&Matrix::zeros(2, 4));
    }

    #[test]
    fn matmul_nt_degenerate_shapes() {
        // Empty left operand.
        let c = Matrix::zeros(0, 4).matmul_nt(&Matrix::zeros(3, 4));
        assert_eq!((c.rows(), c.cols()), (0, 3));
        // Empty right operand.
        let c = Matrix::zeros(3, 4).matmul_nt(&Matrix::zeros(0, 4));
        assert_eq!((c.rows(), c.cols()), (3, 0));
        // Zero inner dimension: well-defined all-zeros output.
        let c = Matrix::zeros(2, 0).matmul_nt(&Matrix::zeros(5, 0));
        assert_eq!((c.rows(), c.cols()), (2, 5));
        assert!(c.data().iter().all(|&v| v == 0.0));
        // Single row × single column.
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(a.matmul_nt(&b).data(), &[32.0]);
    }

    #[test]
    fn l1_block_rows_respects_bounds() {
        // Tiny k: capped at 512 rows; huge k: floored at the kernel width.
        assert_eq!(l1_block_rows(1, 8), 512);
        assert_eq!(l1_block_rows(1_000_000, 8), 8);
        // At k=64 the slab is 32 KiB / (8·64) = 64 rows.
        assert_eq!(l1_block_rows(64, 8), 64);
    }
}
