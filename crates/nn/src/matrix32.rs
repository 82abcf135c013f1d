//! Single-precision matrices for the pool-scoring fast path.
//!
//! Pool ranking only needs the *order* of logits, not their 16th decimal:
//! [`Matrix32`] stores `f32`, and its [`Matrix32::matmul_nt`] runs the same
//! `A·Bᵀ` kernel as the `f64` [`Matrix::matmul_nt`], on `f32` lanes — twice
//! the SIMD width and half the memory traffic of the `f64` path — picked at
//! runtime by [`KernelKind::detect`] (`is_x86_feature_detected!`, so the
//! portable build baseline stays SSE2): 16 lanes on AVX-512F, 8 on AVX2 +
//! FMA, 4 portable.
//!
//! ## Fused epilogue
//!
//! [`Matrix32::matmul_nt_ep`] takes an [`Epilogue`] and applies the bias
//! add and a ReLU/identity activation **in-register on each output tile
//! before it is stored**, instead of as two more full sweeps over every
//! layer output. The fused result is **bitwise identical** to the unfused
//! three-pass composition on the same kernel (the epilogue performs exactly
//! the same `f32` add and max, just before the store instead of in a later
//! pass) — pinned by `fused_epilogue_matches_unfused_passes_bitwise` here
//! and by proptests in `lte-core`. Sigmoid/Tanh epilogues are honored too,
//! but run as a post-store pass (only the ReLU/identity family is
//! register-friendly).
//!
//! ## Precision contract
//!
//! Each output is one chain from `+0.0` in `k` order, then `+ bias`, then
//! the activation. On the AVX-512F and AVX2 kernels the chain is one fused
//! multiply-add per step, so their outputs equal the scalar `f32::mul_add`
//! chain, and each other, bit for bit. The portable kernel, which dispatch
//! picks only on CPUs without AVX2 + FMA, rounds the multiply and the add
//! separately, so it agrees with the SIMD kernels within `f32` round-off,
//! never bitwise.
//!
//! Against the `f64` reference the results agree to within a few units of
//! `f32` round-off, i.e. a relative error on the order of `1e-6` scaled by
//! the dot-product magnitude (`k · max|a| · max|b|`), and must never feed
//! gradient checks or parameter updates: training and gradcheck stay on
//! the `f64` path. What the fast path *does* guarantee (pinned by
//! proptests in `lte-core`) is that pool-scoring ranks agree with the
//! `f64` path for every pair of candidates whose `f64` scores are
//! separated by more than the `f32` noise floor.

use crate::activation::Activation;
use crate::kernel::{self, Epilogue, Packed};
use crate::matrix::Matrix;

/// The kernel choice, kept at this path for callers that name it here.
pub use crate::kernel::KernelKind;

/// A dense row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix32 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix32 {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Demote an `f64` matrix (each element rounded to nearest `f32`).
    pub fn from_f64(m: &Matrix) -> Self {
        Self {
            rows: m.rows(),
            cols: m.cols(),
            data: m.data().iter().map(|&v| v as f32).collect(),
        }
    }

    /// Build from a slice of equally sized `f64` rows, demoting each value.
    /// `cols` must be passed explicitly so the empty batch keeps its width.
    ///
    /// # Panics
    /// Panics when any row's length differs from `cols`.
    pub fn from_rows(rows: &[Vec<f64>], cols: usize) -> Self {
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "row width mismatch");
            data.extend(row.iter().map(|&v| v as f32));
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Promote back to `f64` (exact: every `f32` is representable).
    pub fn to_f64(&self) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&v| v as f64).collect(),
        )
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
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Tiled `f32` matrix product with a transposed right operand:
    /// `C = A·Bᵀ` (`A` is `n × k`, `B` is `m × k`,
    /// `C[i][j] = ⟨A.row(i), B.row(j)⟩`).
    ///
    /// Runs [`Matrix::matmul_nt`]'s kernel (column panels of `B`,
    /// L1-resident slabs, register tiles of eight accumulator chains) on
    /// `f32` lanes. Each output is one chain in `k` order, fused on the
    /// SIMD kernels, so results differ from the `f64` sum — and between
    /// the SIMD and portable kernels — by normal `f32` round-off (see the
    /// module docs for the precision contract). Each output row depends
    /// only on its own input row.
    ///
    /// ```
    /// use lte_nn::{Matrix, Matrix32};
    ///
    /// let a = Matrix::from_fn(3, 40, |r, c| ((r * 40 + c) as f64 * 0.1).sin());
    /// let b = Matrix::from_fn(5, 40, |r, c| ((r * 40 + c) as f64 * 0.2).cos());
    /// let exact = a.matmul_nt(&b);
    /// let fast = Matrix32::from_f64(&a).matmul_nt(&Matrix32::from_f64(&b));
    /// for (x, y) in exact.data().iter().zip(fast.data()) {
    ///     assert!((x - *y as f64).abs() < 1e-4); // f32 round-off, not drift
    /// }
    /// ```
    ///
    /// # Panics
    /// Panics when the inner dimensions (`cols`) disagree.
    pub fn matmul_nt(&self, other: &Matrix32) -> Matrix32 {
        self.matmul_nt_ep(other, Epilogue::none())
    }

    /// [`Matrix32::matmul_nt`] with a fused [`Epilogue`]:
    /// `C[i][j] = act(⟨A.row(i), B.row(j)⟩ + bias[j])`, with the bias add
    /// and a ReLU/identity activation applied in-register on each output
    /// tile before it is stored. Bitwise identical to the unfused
    /// composition `matmul_nt` → [`Matrix32::add_row_bias`] →
    /// [`Activation::apply_slice_f32`] on the same kernel.
    ///
    /// ```
    /// use lte_nn::{Activation, Epilogue, Matrix32};
    ///
    /// let a = Matrix32::from_rows(&[vec![1.0, 2.0]], 2);
    /// let w = Matrix32::from_rows(&[vec![1.0, 0.0], vec![0.0, -1.0]], 2);
    /// let bias = [0.5f32, -0.5];
    /// let z = a.matmul_nt_ep(&w, Epilogue::new(&bias, Activation::Relu));
    /// assert_eq!(z.row(0), &[1.5f32, 0.0]); // relu(1 + 0.5), relu(-2 - 0.5)
    /// ```
    ///
    /// # Panics
    /// Panics when the inner dimensions (`cols`) disagree or the epilogue
    /// bias width differs from `other.rows`.
    pub fn matmul_nt_ep(&self, other: &Matrix32, ep: Epilogue<'_>) -> Matrix32 {
        self.matmul_nt_ep_with(other, ep, KernelKind::detect())
    }

    /// [`Matrix32::matmul_nt_ep`] pinned to a specific kernel instead of the
    /// auto-detected best one, so benchmarks and tests can time or compare
    /// them individually. The AVX-512F and AVX2 kernels produce the same
    /// bits, those of the scalar `f32::mul_add` chain; the portable kernel
    /// multiplies, then adds, within `f32` round-off of them (see the
    /// module docs).
    ///
    /// # Panics
    /// Panics when `kernel` is not supported on the running CPU (check
    /// [`KernelKind::supported`] first), and on the same dimension
    /// mismatches as [`Matrix32::matmul_nt_ep`].
    pub fn matmul_nt_ep_with(
        &self,
        other: &Matrix32,
        ep: Epilogue<'_>,
        kernel: KernelKind,
    ) -> Matrix32 {
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
            act.apply_slice_f32(&mut data);
        }
        Matrix32 {
            rows: self.rows,
            cols: other.rows,
            data,
        }
    }

    /// Add a bias vector to every row in place (`A.row(i) += b` for all i).
    ///
    /// This is the *unfused* bias pass — the hot path fuses it into the
    /// kernel epilogue via [`Matrix32::matmul_nt_ep`]; this method remains
    /// for cold paths and as the reference the fusion tests pin against.
    ///
    /// # Panics
    /// Panics when `b.len() != cols`.
    pub fn add_row_bias(&mut self, b: &[f32]) {
        assert_eq!(b.len(), self.cols, "bias width mismatch");
        for r in 0..self.rows {
            for (v, bi) in self.row_mut(r).iter_mut().zip(b) {
                *v += bi;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu_features;
    use crate::matrix::tests::{special_operands, special_shapes};

    #[test]
    fn construction_and_round_trip() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.5, -3.0, 0.0, 4.0, 5.5]);
        let m32 = Matrix32::from_f64(&m);
        assert_eq!(m32.rows(), 2);
        assert_eq!(m32.cols(), 3);
        assert_eq!(m32.row(1), &[0.0f32, 4.0, 5.5]);
        // These values are exactly representable, so the round trip is exact.
        assert_eq!(m32.to_f64(), m);
    }

    #[test]
    fn from_rows_demotes_and_keeps_width() {
        let m = Matrix32::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]], 2);
        assert_eq!(m.data(), &[1.0f32, 2.0, 3.0, 4.0]);
        let empty = Matrix32::from_rows(&[], 5);
        assert_eq!(empty.rows(), 0);
        assert_eq!(empty.cols(), 5);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn from_rows_checks_widths() {
        Matrix32::from_rows(&[vec![1.0], vec![1.0, 2.0]], 1);
    }

    #[test]
    fn matmul_nt_matches_f64_reference_within_tolerance() {
        // Shapes straddling the tiles, the panels and the L1 slab
        // boundary.
        for (n, m, k) in [
            (1, 1, 1),
            (3, 5, 7),
            (8, 8, 8),
            (13, 9, 21),
            (4, 3, 64),
            (2, 513, 3),
            (7, 70, 33),
            (1, 16, 1000),
        ] {
            let a = Matrix::from_fn(n, k, |r, c| ((r * 31 + c * 17) as f64).sin());
            let b = Matrix::from_fn(m, k, |r, c| ((r * 13 + c * 7) as f64).cos());
            let exact = a.matmul_nt(&b);
            let fast = Matrix32::from_f64(&a).matmul_nt(&Matrix32::from_f64(&b));
            assert_eq!(fast.rows(), n);
            assert_eq!(fast.cols(), m);
            let tol = 1e-6 * (k as f64).max(1.0) * 4.0;
            for (x, y) in exact.data().iter().zip(fast.data()) {
                assert!(
                    (x - *y as f64).abs() <= tol,
                    "{n}x{m}x{k}: {x} vs {y} (tol {tol})"
                );
            }
        }
    }

    #[test]
    fn matmul_nt_degenerate_shapes() {
        let c = Matrix32::zeros(0, 4).matmul_nt(&Matrix32::zeros(3, 4));
        assert_eq!((c.rows(), c.cols()), (0, 3));
        let c = Matrix32::zeros(3, 4).matmul_nt(&Matrix32::zeros(0, 4));
        assert_eq!((c.rows(), c.cols()), (3, 0));
        let c = Matrix32::zeros(2, 0).matmul_nt(&Matrix32::zeros(5, 0));
        assert_eq!((c.rows(), c.cols()), (2, 5));
        assert!(c.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_nt_checks_inner_dims() {
        Matrix32::zeros(2, 3).matmul_nt(&Matrix32::zeros(2, 4));
    }

    /// A shape `(n, m, k)`, `A`, `B` and the bias.
    type Case = ((usize, usize, usize), Matrix32, Matrix32, Vec<f32>);

    /// The `f64` suite's special operands over its shape grid, demoted to
    /// `f32`: all-`-0.0` products, `±inf` sums, one NaN source per row,
    /// and `±0.0` and `-inf` biases, on shapes that straddle every tile,
    /// vector and panel width and the L1 slab.
    fn special_cases() -> Vec<Case> {
        special_shapes()
            .into_iter()
            .map(|(n, m, k)| {
                let (a, b, bias) = special_operands(n, m, k);
                let bias = bias.iter().map(|&v| v as f32).collect();
                let (a, b) = (Matrix32::from_f64(&a), Matrix32::from_f64(&b));
                ((n, m, k), a, b, bias)
            })
            .collect()
    }

    const ACTIVATIONS: [Activation; 4] = [
        Activation::Identity,
        Activation::Relu,
        Activation::Sigmoid,
        Activation::Tanh,
    ];

    /// Every output of each SIMD kernel is the scalar `f32::mul_add` chain
    /// from `+0.0` in `k` order, then `+ bias`, then the activation, bit
    /// for bit: a kernel that split the sum or dropped the FMA would fail.
    #[test]
    fn simd_kernels_match_scalar_mul_add_chain_bitwise() {
        let cases = special_cases();
        for kernel in [KernelKind::Avx512f, KernelKind::Avx2Fma] {
            if !kernel.supported() {
                continue;
            }
            for ((n, m, k), a, b, bias) in &cases {
                for bias in [None, Some(bias.as_slice())] {
                    for activation in ACTIVATIONS {
                        let ep = Epilogue { bias, activation };
                        let c = a.matmul_nt_ep_with(b, ep, kernel);
                        for i in 0..*n {
                            for j in 0..*m {
                                let chain = a.row(i).iter().zip(b.row(j));
                                let mut z = chain.fold(0.0f32, |acc, (&x, &y)| x.mul_add(y, acc));
                                if let Some(bias) = bias {
                                    z += bias[j];
                                }
                                let z = activation.apply_f32(z);
                                let got = c.row(i)[j];
                                assert_eq!(
                                    got.to_bits(),
                                    z.to_bits(),
                                    "{kernel} ({i},{j}) of {n}x{m}x{k}, {ep:?}: {got} vs {z}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The fused AVX2 kernel and the portable multiply-then-add kernel
    /// must agree within the accuracy contract on every tile shape (they
    /// are not bit-comparable: fused vs unfused rounding); infinities and
    /// NaNs must match exactly. No-op on CPUs without AVX2+FMA, where
    /// dispatch already takes the portable path.
    #[test]
    fn avx_and_portable_kernels_agree() {
        if !KernelKind::Avx2Fma.supported() {
            return;
        }
        for ((n, m, k), a, b, _) in special_cases() {
            let fused = a.matmul_nt_ep_with(&b, Epilogue::none(), KernelKind::Avx2Fma);
            let portable = a.matmul_nt_ep_with(&b, Epilogue::none(), KernelKind::Portable);
            let tol = 1e-6 * (k as f32).max(1.0) * 4.0;
            for (x, y) in fused.data().iter().zip(portable.data()) {
                assert!(
                    x.to_bits() == y.to_bits() || (x - y).abs() <= tol,
                    "{n}x{m}x{k}: {x} vs {y} (tol {tol})"
                );
            }
        }
    }

    /// The AVX-512F and AVX2 tiles accumulate each output as the same
    /// strictly ordered fused chain — only the lane width and the tiling
    /// differ — so on a CPU with both, they must agree **bitwise**,
    /// epilogue included. No-op without avx512f.
    #[test]
    fn avx512_and_avx2_agree_bitwise() {
        if !KernelKind::Avx512f.supported() || !KernelKind::Avx2Fma.supported() {
            return;
        }
        for ((n, m, k), a, b, bias) in special_cases() {
            for ep in [
                Epilogue::none(),
                Epilogue::bias_only(&bias),
                Epilogue::new(&bias, Activation::Relu),
            ] {
                let wide = a.matmul_nt_ep_with(&b, ep, KernelKind::Avx512f);
                let narrow = a.matmul_nt_ep_with(&b, ep, KernelKind::Avx2Fma);
                for (x, y) in wide.data().iter().zip(narrow.data()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{n}x{m}x{k}: {x} vs {y}");
                }
            }
        }
    }

    /// Fused epilogue == unfused `matmul → add_row_bias → activation`
    /// composition, bitwise, on the kernel the dispatcher picks on this
    /// machine (exercised through the public entry points) and for the
    /// post-pass (sigmoid, tanh) epilogue family too.
    #[test]
    fn fused_epilogue_matches_unfused_passes_bitwise() {
        for ((n, m, k), a, b, bias) in special_cases() {
            for act in ACTIVATIONS {
                let fused = a.matmul_nt_ep(&b, Epilogue::new(&bias, act));
                let mut unfused = a.matmul_nt(&b);
                unfused.add_row_bias(&bias);
                act.apply_slice_f32(unfused.data_mut());
                for (x, y) in fused.data().iter().zip(unfused.data()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{n}x{m}x{k} {act:?}: {x} vs {y}");
                }
            }
        }
    }

    /// The portable kernel's fused epilogue must match the unfused passes
    /// bitwise as well — dispatch never picks it on a SIMD host, so pin it
    /// directly (this is the kernel every non-x86 target runs).
    #[test]
    fn portable_fused_epilogue_matches_unfused_bitwise() {
        let portable = KernelKind::Portable;
        for ((n, m, k), a, b, bias) in special_cases() {
            let relu = Epilogue::new(&bias, Activation::Relu);
            let fused = a.matmul_nt_ep_with(&b, relu, portable);
            let mut unfused = a.matmul_nt_ep_with(&b, Epilogue::none(), portable);
            unfused.add_row_bias(&bias);
            Activation::Relu.apply_slice_f32(unfused.data_mut());
            for (x, y) in fused.data().iter().zip(unfused.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{n}x{m}x{k}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn epilogue_bias_width_is_checked() {
        let a = Matrix32::zeros(2, 3);
        let b = Matrix32::zeros(4, 3);
        let bias = vec![0.0f32; 3]; // should be 4 (= b.rows)
        let err = std::panic::catch_unwind(|| a.matmul_nt_ep(&b, Epilogue::bias_only(&bias)));
        assert!(err.is_err());
    }

    #[test]
    fn kernel_kind_detect_is_coherent() {
        let kind = KernelKind::detect();
        let features = cpu_features();
        match kind {
            KernelKind::Avx512f => assert!(features.contains("avx512f")),
            KernelKind::Avx2Fma => {
                assert!(features.contains("avx2") && features.contains("fma"));
                assert!(!features.contains("avx512f"));
            }
            KernelKind::Portable => assert!(!features.contains("avx2")),
        }
        assert_eq!(kind.to_string(), kind.as_str());
    }

    #[test]
    fn add_row_bias_broadcasts() {
        let mut m = Matrix32::zeros(2, 3);
        m.add_row_bias(&[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[1.0f32, 2.0, 3.0]);
        assert_eq!(m.row(1), &[1.0f32, 2.0, 3.0]);
    }
}
