//! Dense row-major matrices — the exact (`f64`) compute path.
//!
//! Sized for LTE's workloads: layer weights are at most a few hundred by a
//! few hundred, the memory modules are `m × ku` / `m × |θR|` with small
//! `m` (2–6), and batched pool scoring multiplies a `pool × features`
//! operand against layer weights. The one genuinely hot kernel,
//! [`Matrix::matmul_nt`], is cache-tiled and register-blocked but keeps a
//! strict per-output summation order so batched results stay bit-identical
//! to per-row evaluation; the reassociating SIMD fast path lives in
//! [`crate::matrix32`]. No BLAS needed.

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

    /// Tiled matrix product with a transposed right operand:
    /// `C = A·Bᵀ` where `A` is `n × k` and `B` is `m × k`, so
    /// `C[i][j] = ⟨A.row(i), B.row(j)⟩`.
    ///
    /// This is the batched-inference workhorse: a dense layer over a batch
    /// is `X·Wᵀ` with both operands row-major, so no transposition is ever
    /// materialized. Three layers of blocking:
    ///
    /// * **cache tiling** — `B`'s rows are processed in slabs sized to stay
    ///   L1-resident (see [`l1_block_rows`]) while every row of `A` streams
    ///   over the slab, so large `B` operands are loaded from memory once
    ///   per slab instead of once per output row;
    /// * **register tiling** — two `A` rows are computed per pass, sharing
    ///   every load of the `B` slab between two output rows;
    /// * **8-wide column unroll** — each pass keeps eight *independent*
    ///   accumulator chains per `A` row, hiding the floating-point add
    ///   latency that serializes a single running dot product.
    ///
    /// Every accumulator still sums its output's products over `k` in index
    /// order — the same additions in the same order as the per-row
    /// [`Matrix::matvec`] path — so outputs are **bit-identical** to per-row
    /// evaluation regardless of shape or tiling, and each output row depends
    /// only on its own input row. This is the exact (`f64`) reference path;
    /// the [`Matrix32`](crate::matrix32::Matrix32) fast path trades this
    /// guarantee for SIMD throughput.
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
        assert_eq!(self.cols, other.cols, "matmul_nt inner dimension mismatch");
        const COLS: usize = 8;
        let (n, m, k) = (self.rows, other.rows, self.cols);
        let mut out = Matrix::zeros(n, m);
        if n == 0 || m == 0 {
            return out;
        }
        let slab = l1_block_rows(k, 8);
        let mut j0 = 0;
        while j0 < m {
            let j1 = (j0 + slab).min(m);
            // Two A rows per pass share every load of the B slab.
            let mut i = 0;
            while i + 2 <= n {
                let (a0, a1) = {
                    let rows = &self.data[i * k..(i + 2) * k];
                    rows.split_at(k)
                };
                let (o0, o1) = {
                    let rows = &mut out.data[i * m..(i + 2) * m];
                    rows.split_at_mut(m)
                };
                let mut j = j0;
                while j + COLS <= j1 {
                    let cols: [&[f64]; COLS] =
                        std::array::from_fn(|c| &other.data[(j + c) * k..(j + c + 1) * k]);
                    let mut s0 = [0.0f64; COLS];
                    let mut s1 = [0.0f64; COLS];
                    for (kk, (&av0, &av1)) in a0.iter().zip(a1).enumerate() {
                        for c in 0..COLS {
                            let bv = cols[c][kk];
                            s0[c] += av0 * bv;
                            s1[c] += av1 * bv;
                        }
                    }
                    o0[j..j + COLS].copy_from_slice(&s0);
                    o1[j..j + COLS].copy_from_slice(&s1);
                    j += COLS;
                }
                while j < j1 {
                    let b = &other.data[j * k..(j + 1) * k];
                    o0[j] = dot(a0, b);
                    o1[j] = dot(a1, b);
                    j += 1;
                }
                i += 2;
            }
            if i < n {
                let a = &self.data[i * k..(i + 1) * k];
                let orow = &mut out.data[i * m..(i + 1) * m];
                let mut j = j0;
                while j + COLS <= j1 {
                    let cols: [&[f64]; COLS] =
                        std::array::from_fn(|c| &other.data[(j + c) * k..(j + c + 1) * k]);
                    let mut s = [0.0f64; COLS];
                    for (kk, &av) in a.iter().enumerate() {
                        for c in 0..COLS {
                            s[c] += av * cols[c][kk];
                        }
                    }
                    orow[j..j + COLS].copy_from_slice(&s);
                    j += COLS;
                }
                while j < j1 {
                    orow[j] = dot(a, &other.data[j * k..(j + 1) * k]);
                    j += 1;
                }
            }
            j0 = j1;
        }
        out
    }

    /// Add a bias vector to every row in place (`A.row(i) += b` for all i).
    ///
    /// # Panics
    /// Panics when `b.len() != cols`.
    pub fn add_row_bias(&mut self, b: &[f64]) {
        assert_eq!(b.len(), self.cols, "bias width mismatch");
        for r in 0..self.rows {
            for (v, bi) in self.row_mut(r).iter_mut().zip(b) {
                *v += bi;
            }
        }
    }
}

/// Dot product of equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
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

    #[test]
    fn matmul_nt_matches_per_row_matvec_bitwise() {
        // Shapes straddling the 8-column kernel width, the 2-row unroll,
        // and the L1 slab boundary (512 rows at small k) to exercise every
        // remainder path.
        for (n, m, k) in [
            (1, 1, 1),
            (3, 5, 7),
            (8, 8, 8),
            (13, 9, 21),
            (4, 3, 64),
            (2, 513, 3),
            (5, 520, 9),
            (1, 16, 1000),
        ] {
            let a = Matrix::from_fn(n, k, |r, c| ((r * 31 + c * 17) as f64).sin());
            let b = Matrix::from_fn(m, k, |r, c| ((r * 13 + c * 7) as f64).cos());
            let c = a.matmul_nt(&b);
            assert_eq!(c.rows(), n);
            assert_eq!(c.cols(), m);
            for i in 0..n {
                let reference = b.matvec(a.row(i));
                for (j, r) in reference.iter().enumerate() {
                    assert_eq!(
                        c.get(i, j).to_bits(),
                        r.to_bits(),
                        "({i},{j}) of {n}x{m}x{k}"
                    );
                }
            }
        }
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

    #[test]
    fn add_row_bias_broadcasts() {
        let mut m = Matrix::zeros(2, 3);
        m.add_row_bias(&[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
    }
}
