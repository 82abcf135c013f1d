//! Dense row-major matrices — the exact (`f64`) compute path.
//!
//! Sized for LTE's workloads: layer weights are at most a few hundred by a
//! few hundred, the memory modules are `m × ku` / `m × |θR|` with small
//! `m` (2–6), and batched pool scoring multiplies a `pool × features`
//! operand against layer weights. No BLAS needed.
//!
//! The one genuinely hot kernel, [`Matrix::matmul_nt_ep`] (`A·Bᵀ` with a
//! fused bias + activation epilogue), runs at vector width on the lanes
//! [`KernelKind`] picks: AVX-512F (8 lanes), AVX2 (4) or portable (2). It
//! is the same kernel as the `f32` [`Matrix32`](crate::Matrix32) path,
//! written once over both precisions, but on `f64` lanes every output
//! keeps a strict order, so batched results are **bit-identical** to
//! per-row evaluation ([`Matrix::matvec`], then the bias, then the
//! activation) on every kernel:
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
use crate::kernel::{self, Epilogue, KernelKind, Packed};
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
        let data = kernel::matmul(&self.data, self.rows, kernel, false, |lanes| {
            Packed::from_kn(&other.data, other.rows, other.cols, lanes)
        });
        Matrix::from_vec(self.rows, other.cols, data)
    }

    /// [`Matrix::matmul_nt`] with a fused [`Epilogue`]:
    /// `C[i][j] = act(⟨A.row(i), B.row(j)⟩ + bias[j])`, on the kernel
    /// [`KernelKind::detect`] picks.
    ///
    /// The kernel packs `Bᵀ` once per call into zero-padded column panels,
    /// then sweeps register tiles of eight accumulator chains against
    /// L1-resident slabs of panels: 4 rows × 2 vectors, or 8 rows × 1
    /// vector (on panels one vector wide) when one vector holds every
    /// output (the classifier head, `m = 1`). A ragged panel whose live
    /// columns fit one vector runs on a single vector. The bias add and a
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
        assert_eq!(self.cols, other.cols, "matmul_nt inner dimension mismatch");
        if let Some(b) = ep.bias {
            assert_eq!(b.len(), other.rows, "epilogue bias width mismatch");
        }
        let (fused, post) = ep.split_post();
        let relu = matches!(fused.activation, Activation::Relu);
        let mut data = kernel::matmul(&self.data, self.rows, kernel, relu, |lanes| {
            Packed::from_rows(&other.data, other.rows, other.cols, fused.bias, lanes)
        });
        if let Some(act) = post {
            act.apply_slice(&mut data);
        }
        Matrix::from_vec(self.rows, other.rows, data)
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
/// The kernel sizes its right-operand slabs with it, and pool scoring
/// sizes its row tiles.
pub fn l1_block_rows_sized(k: usize, min_rows: usize, elem_size: usize) -> usize {
    const L1_BUDGET_BYTES: usize = 32 * 1024;
    (L1_BUDGET_BYTES / (elem_size * k.max(1))).clamp(min_rows, 512)
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
pub(crate) mod tests {
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
    pub(crate) fn kernels() -> Vec<KernelKind> {
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
    pub(crate) fn special_operands(n: usize, m: usize, k: usize) -> (Matrix, Matrix, Vec<f64>) {
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

    /// The grid straddles the 4- and 8-row tiles, the vectors and panels
    /// of every lane width (2 to 16 lanes, panels of 4 to 32 columns), and
    /// an empty inner dimension; the extra shapes cross the L1 slab
    /// boundary (512 rows at small k).
    pub(crate) fn special_shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = Vec::new();
        for n in [1, 3, 4, 5, 7, 8, 9, 13] {
            for m in [1, 7, 8, 9, 15, 16, 17, 31, 32, 33] {
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
        use crate::lanes::{Avx2F64, Avx512F64, Lanes};
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
        /// `max0` of `xs` on `L`'s lanes.
        ///
        /// # Safety
        /// The CPU must support `L`'s instructions.
        unsafe fn relu<L: Lanes<Elem = f64>>(xs: &[f64; 8]) -> Vec<u64> {
            let mut got = [0.0f64; 8];
            for (src, dst) in xs.chunks_exact(L::N).zip(got.chunks_exact_mut(L::N)) {
                L::load(src).max0().store(dst);
            }
            got.map(f64::to_bits).to_vec()
        }
        if KernelKind::Avx512f.supported() {
            // SAFETY: AVX-512F support was just checked.
            assert_eq!(unsafe { relu::<Avx512F64>(&xs) }, want);
        }
        if KernelKind::Avx2Fma.supported() {
            // SAFETY: AVX2 support was just checked.
            assert_eq!(unsafe { relu::<Avx2F64>(&xs) }, want);
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
        assert_eq!(l1_block_rows_sized(1, 8, 8), 512);
        assert_eq!(l1_block_rows_sized(1_000_000, 8, 8), 8);
        // At k=64 the slab is 32 KiB / (8·64) = 64 rows of f64, and twice
        // as many of f32.
        assert_eq!(l1_block_rows_sized(64, 8, 8), 64);
        assert_eq!(l1_block_rows_sized(64, 8, 4), 128);
    }
}
