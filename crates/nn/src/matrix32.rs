//! Single-precision matrices for the pool-scoring fast path.
//!
//! Pool ranking only needs the *order* of logits, not their 16th decimal:
//! [`Matrix32`] stores `f32` and its [`Matrix32::matmul_nt`] kernel
//! accumulates in lane-parallel partial sums, which (unlike the strictly
//! ordered `f64` kernel in [`Matrix::matmul_nt`]) can run as packed FMAs —
//! twice the SIMD width and half the memory traffic of the `f64` path.
//!
//! Three kernels sit behind [`Matrix32::matmul_nt`] /
//! [`Matrix32::matmul_nt_ep`], picked at runtime by [`KernelKind::detect`]
//! (`is_x86_feature_detected!`, so the portable build baseline stays SSE2):
//!
//! * an explicit AVX-512F microkernel processing an 8-row × 16-column
//!   register tile of fused 16-lane multiply-adds,
//! * an explicit AVX2+FMA microkernel processing an 8-row × 8-column
//!   register tile of fused 8-lane multiply-adds,
//! * a portable lane-parallel fallback the autovectorizer can turn into
//!   packed (unfused) multiplies and adds on any target.
//!
//! ## Fused epilogue
//!
//! The classifier's per-layer pipeline used to be `matmul → bias pass →
//! activation pass` — two extra full sweeps over every layer output.
//! [`Matrix32::matmul_nt_ep`] takes an [`Epilogue`] instead and applies the
//! bias add and a ReLU/identity activation **in-register on each output
//! tile before it is stored**, eliminating both sweeps. The fused result is
//! **bitwise identical** to the unfused three-pass composition on the same
//! machine (the epilogue performs exactly the same `f32` add and max, just
//! before the store instead of in a later pass) — pinned by
//! `fused_epilogue_matches_unfused_passes_bitwise` here and by proptests in
//! `lte-core`. Sigmoid/Tanh epilogues are honored too, but run as a
//! post-store pass (only the ReLU/identity family is register-friendly).
//!
//! ## Accuracy contract
//!
//! `f32` results agree with the `f64` reference to within a few units of
//! `f32` round-off, i.e. a relative error on the order of `1e-6` scaled by
//! the dot-product magnitude (`k · max|a| · max|b|`). They are **not**
//! bit-comparable across kernel *families* — the fused paths round once per
//! multiply-add, the portable path twice, so the same machine-level result
//! is only guaranteed *within* one kernel family, not across CPU
//! generations (the AVX-512F and AVX2+FMA tiles do agree bitwise with each
//! other: both accumulate each output as one strictly ordered fused chain)
//! — and must never feed gradient checks or parameter updates: training and
//! gradcheck stay on the `f64` path. What the fast path *does* guarantee
//! (pinned by proptests in `lte-core`) is that pool-scoring ranks agree
//! with the `f64` path for every pair of candidates whose `f64` scores are
//! separated by more than the `f32` noise floor.

use crate::activation::Activation;
use crate::matrix::{l1_block_rows_sized, Matrix};

/// SIMD lanes per accumulator chain: 8 × `f32` is one AVX2 register.
const LANES: usize = 8;

/// Which microkernel [`Matrix32::matmul_nt`] and the `f64`
/// [`Matrix::matmul_nt`] dispatch to on the running CPU — detected once per
/// call via `is_x86_feature_detected!` (a cached CPUID probe, so detection
/// is a load + branch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// AVX-512F register tiles (x86-64 with `avx512f`): 16 `f32` lanes,
    /// or two 8-lane `f64` vectors per row.
    Avx512f,
    /// AVX2 register tiles (x86-64 with `avx2` + `fma`): 8 `f32` lanes
    /// with fused multiply-adds, or two 4-lane `f64` vectors per row with
    /// separate multiplies and adds.
    Avx2Fma,
    /// The autovectorized lane-parallel fallback (any target; SSE2 on the
    /// x86-64 build baseline).
    Portable,
}

impl KernelKind {
    /// The best kernel the running CPU supports, in preference order
    /// AVX-512F → AVX2+FMA → portable.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                return KernelKind::Avx512f;
            }
            if avx::available() {
                return KernelKind::Avx2Fma;
            }
        }
        KernelKind::Portable
    }

    /// Whether the running CPU can execute this kernel —
    /// [`KernelKind::detect`] picks the best supported one, but benchmarks
    /// force specific kernels via [`Matrix32::matmul_nt_ep_with`] and must
    /// check support first.
    pub fn supported(self) -> bool {
        match self {
            KernelKind::Portable => true,
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx512f => is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2Fma => avx::available(),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Stable snake-case name, used by benchmark snapshots.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelKind::Avx512f => "avx512f",
            KernelKind::Avx2Fma => "avx2_fma",
            KernelKind::Portable => "portable",
        }
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Comma-separated list of the SIMD features the scoring kernels probe
/// for on the running CPU — recorded in `BENCH_*.json` snapshots so
/// committed numbers carry their hardware context.
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut features: Vec<&str> = vec!["sse2"];
        if is_x86_feature_detected!("avx2") {
            features.push("avx2");
        }
        if is_x86_feature_detected!("fma") {
            features.push("fma");
        }
        if is_x86_feature_detected!("avx512f") {
            features.push("avx512f");
        }
        features.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "portable".to_string()
    }
}

/// A fused kernel epilogue: the per-output operations
/// (`out[i][j] = act(sum + bias[j])`) that [`Matrix32::matmul_nt_ep`]
/// (`T = f32`) and [`Matrix::matmul_nt_ep`] (`T = f64`) apply to each
/// output tile in-register before storing it, instead of as separate full
/// passes over the output.
///
/// The fused result is bitwise identical to the unfused composition
/// `matmul_nt` → bias add → activation on the same machine; see the module
/// docs for the contract.
#[derive(Debug, Clone, Copy)]
pub struct Epilogue<'a, T = f32> {
    /// Per-output-column bias added to every row (`None` = no bias).
    pub bias: Option<&'a [T]>,
    /// Activation applied after the bias add. ReLU and identity run
    /// in-register; other activations run as a post-store pass.
    pub activation: Activation,
}

impl<'a, T> Epilogue<'a, T> {
    /// The no-op epilogue: no bias, identity activation.
    pub fn none() -> Epilogue<'static, T> {
        Epilogue {
            bias: None,
            activation: Activation::Identity,
        }
    }

    /// Bias add followed by an activation.
    pub fn new(bias: &'a [T], activation: Activation) -> Self {
        Self {
            bias: Some(bias),
            activation,
        }
    }

    /// Bias add only (identity activation).
    pub fn bias_only(bias: &'a [T]) -> Self {
        Self::new(bias, Activation::Identity)
    }

    /// Split into the part the kernels fuse in-register and the activation
    /// left for a post-store pass: only the ReLU/identity family fuses, so a
    /// transcendental activation keeps the fused bias and runs afterwards.
    pub(crate) fn split_post(self) -> (Self, Option<Activation>) {
        match self.activation {
            Activation::Relu | Activation::Identity => (self, None),
            act => (
                Epilogue {
                    bias: self.bias,
                    activation: Activation::Identity,
                },
                Some(act),
            ),
        }
    }
}

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
    /// Dispatches at runtime to an explicit AVX2+FMA register-tile
    /// microkernel when the CPU supports it, and otherwise to a portable
    /// kernel with the same cache tiling as [`Matrix::matmul_nt`]
    /// (L1-resident slabs of `B`) whose inner loop keeps eight
    /// *lane-parallel* partial sums per output. Both kernels reassociate
    /// the `k`-sum, so results differ from a strictly ordered scalar sum —
    /// and between the two kernels — by normal `f32` round-off (see the
    /// module docs for the accuracy contract). Each output row still
    /// depends only on its own input row.
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
    /// [`Activation::apply_slice_f32`] on the same machine.
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

    /// [`Matrix32::matmul_nt_ep`] pinned to a specific microkernel instead
    /// of the auto-detected best one. All supported kernels produce
    /// bitwise-identical output; this entry point exists so benchmarks and
    /// tests can time or compare them individually.
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
        assert!(
            kernel.supported(),
            "kernel {kernel} is not supported on this CPU"
        );
        assert_eq!(self.cols, other.cols, "matmul_nt inner dimension mismatch");
        if let Some(b) = ep.bias {
            assert_eq!(b.len(), other.rows, "epilogue bias width mismatch");
        }
        let (n, m) = (self.rows, other.rows);
        let mut out = Matrix32::zeros(n, m);
        if n == 0 || m == 0 {
            return out;
        }
        let (fused, post) = ep.split_post();
        match kernel {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the matching CPU features were just verified at runtime.
            KernelKind::Avx512f => unsafe { avx512::matmul_nt(self, other, &mut out, fused) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            KernelKind::Avx2Fma => unsafe { avx::matmul_nt(self, other, &mut out, fused) },
            _ => self.matmul_nt_portable(other, &mut out, fused),
        }
        if let Some(act) = post {
            act.apply_slice_f32(&mut out.data);
        }
        out
    }

    /// Portable lane-parallel kernel behind [`Matrix32::matmul_nt_ep`] —
    /// the fallback when no SIMD microkernel is available; the test suite
    /// also pins it against the microkernels directly. `out` must already
    /// be `n × m`; `ep.activation` must be ReLU or identity (the dispatcher
    /// strips anything else into a post-pass).
    fn matmul_nt_portable(&self, other: &Matrix32, out: &mut Matrix32, ep: Epilogue<'_>) {
        const COLS: usize = 8;
        let (n, m, k) = (self.rows, other.rows, self.cols);
        let k_main = k - k % LANES;
        let slab = l1_block_rows_sized(k, COLS, std::mem::size_of::<f32>());
        let mut j0 = 0;
        while j0 < m {
            let j1 = (j0 + slab).min(m);
            for i in 0..n {
                let a = &self.data[i * k..(i + 1) * k];
                let orow = &mut out.data[i * m..(i + 1) * m];
                let mut j = j0;
                while j + COLS <= j1 {
                    let cols: [&[f32]; COLS] =
                        std::array::from_fn(|c| &other.data[(j + c) * k..(j + c + 1) * k]);
                    // Eight lane-parallel partial sums per column; the
                    // innermost loop is a packed FMA after vectorization.
                    let mut acc = [[0.0f32; LANES]; COLS];
                    let mut kk = 0;
                    while kk < k_main {
                        let ca: &[f32; LANES] = a[kk..kk + LANES].try_into().expect("lane chunk");
                        for c in 0..COLS {
                            let cb: &[f32; LANES] =
                                cols[c][kk..kk + LANES].try_into().expect("lane chunk");
                            let s = &mut acc[c];
                            for l in 0..LANES {
                                s[l] += ca[l] * cb[l];
                            }
                        }
                        kk += LANES;
                    }
                    let mut vals = [0.0f32; COLS];
                    for c in 0..COLS {
                        let mut s = 0.0f32;
                        for lane in acc[c] {
                            s += lane;
                        }
                        for kk in k_main..k {
                            s += a[kk] * cols[c][kk];
                        }
                        vals[c] = s;
                    }
                    store_cols_ep(orow, j, &vals, ep);
                    j += COLS;
                }
                if j < j1 {
                    // Ragged column tail: same per-column dot, stored
                    // through the same helper as the full blocks.
                    let tail = j1 - j;
                    let mut vals = [0.0f32; COLS];
                    for (c, v) in vals[..tail].iter_mut().enumerate() {
                        *v = dot_f32(a, &other.data[(j + c) * k..(j + c + 1) * k]);
                    }
                    store_cols_ep(orow, j, &vals[..tail], ep);
                }
            }
            j0 = j1;
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

/// The portable kernel's single store helper, shared by the full-block and
/// ragged-tail column paths: applies the epilogue (`act(v + bias[j + c])`)
/// to each accumulated value and stores it at `orow[j..j + vals.len()]`.
/// Mirrors the masked epilogue-store in the SIMD kernels so both tails run
/// the exact same per-element ops as full blocks.
#[inline]
fn store_cols_ep(orow: &mut [f32], j: usize, vals: &[f32], ep: Epilogue<'_>) {
    for (c, &v) in vals.iter().enumerate() {
        let mut x = v;
        if let Some(b) = ep.bias {
            x += b[j + c];
        }
        orow[j + c] = ep.activation.apply_f32(x);
    }
}

/// Explicit AVX2+FMA microkernel for [`Matrix32::matmul_nt`].
///
/// The build baseline is plain SSE2 so the workspace stays portable; this
/// module upgrades the hot kernel at *runtime* when the CPU reports AVX2
/// and FMA (`is_x86_feature_detected!` caches the CPUID probe, so the
/// check is a load + branch per matmul).
///
/// The classifier's matmuls are tall and skinny (thousands of pool rows,
/// `k = m = Ne ≈ 64`), where a dot-product kernel drowns in horizontal
/// reductions: at `k = 64` each output is only eight 8-lane FMAs, against
/// a ~6-op `hsum` + scalar store epilogue. This kernel is *broadcast*
/// -structured instead: `B` is transposed once per call (`k × m`,
/// L1-resident at classifier shapes, amortized over the row sweep), and
/// each 8-row × 8-column register tile accumulates
/// `acc[r] += broadcast(A[i+r][kk]) · Bᵀ[kk][j..j+8]` over the full `k`
/// before eight plain vector stores — no horizontal reduction anywhere.
/// Eight independent chains cover the FMA latency, and each `Bᵀ` load is
/// shared by all eight rows. Ragged column tails use masked loads/stores,
/// so any `m` (including the classifier head's `m = 1`) stays on the same
/// path.
///
/// Each output's `k`-sum is strictly ordered but *fused* (one rounding
/// per multiply-add, where the portable kernel rounds twice and
/// reassociates into lanes), so the two kernels agree only within the
/// module-level accuracy contract, never bitwise — pinned by
/// `avx_and_portable_kernels_agree`.
#[cfg(target_arch = "x86_64")]
mod avx {
    use super::{Activation, Epilogue, Matrix32};
    use std::arch::x86_64::*;

    /// True when the running CPU supports the fused 8-lane path.
    #[inline]
    pub fn available() -> bool {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }

    /// Rows per register tile: 8 accumulators is enough independent FMA
    /// chains to saturate both FMA ports past the instruction latency,
    /// while leaving registers for the shared `Bᵀ` load.
    const ROWS: usize = 8;

    /// Lane mask with the low `tail` of 8 lanes active (for ragged `m`).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tail_mask(tail: usize) -> __m256i {
        let lanes: [i32; 8] = std::array::from_fn(|l| if l < tail { -1 } else { 0 });
        _mm256_loadu_si256(lanes.as_ptr() as *const __m256i)
    }

    /// Apply the fused epilogue to one accumulated output vector:
    /// `act(v + bias)`. `_mm256_max_ps(x, 0)` returns `0` for a NaN `x`,
    /// matching scalar `f32::max(x, 0.0)` lane for lane, so fused ReLU is
    /// bitwise-identical to the unfused pass.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn apply_ep(v: __m256, vbias: Option<__m256>, relu: bool) -> __m256 {
        let mut x = v;
        if let Some(b) = vbias {
            x = _mm256_add_ps(x, b);
        }
        if relu {
            x = _mm256_max_ps(x, _mm256_setzero_ps());
        }
        x
    }

    /// Score `R` consecutive `A` rows starting at `i` against every column
    /// block of `bt` (the `k × m` transpose of `B`), applying the fused
    /// epilogue in-register before each store.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn row_tile<const R: usize>(
        a: &Matrix32,
        bt: &[f32],
        out: &mut Matrix32,
        i: usize,
        m: usize,
        mask: __m256i,
        ep: Epilogue<'_>,
    ) {
        let k = a.cols;
        let arows: [&[f32]; R] = std::array::from_fn(|r| &a.data[(i + r) * k..(i + r + 1) * k]);
        let relu = matches!(ep.activation, Activation::Relu);
        let m_main = m - m % 8;
        let mut jb = 0;
        while jb < m_main {
            let mut acc = [_mm256_setzero_ps(); R];
            for kk in 0..k {
                let vb = _mm256_loadu_ps(bt.as_ptr().add(kk * m + jb));
                for r in 0..R {
                    let va = _mm256_set1_ps(*arows[r].get_unchecked(kk));
                    acc[r] = _mm256_fmadd_ps(va, vb, acc[r]);
                }
            }
            let vbias = ep.bias.map(|b| _mm256_loadu_ps(b.as_ptr().add(jb)));
            for (r, &v) in acc.iter().enumerate() {
                let v = apply_ep(v, vbias, relu);
                _mm256_storeu_ps(out.data.as_mut_ptr().add((i + r) * m + jb), v);
            }
            jb += 8;
        }
        if jb < m {
            // Ragged column tail: inactive mask lanes neither fault on
            // load nor write on store, and the epilogue runs on the same
            // masked vector as the full blocks.
            let mut acc = [_mm256_setzero_ps(); R];
            for kk in 0..k {
                let vb = _mm256_maskload_ps(bt.as_ptr().add(kk * m + jb), mask);
                for r in 0..R {
                    let va = _mm256_set1_ps(*arows[r].get_unchecked(kk));
                    acc[r] = _mm256_fmadd_ps(va, vb, acc[r]);
                }
            }
            let vbias = ep
                .bias
                .map(|b| _mm256_maskload_ps(b.as_ptr().add(jb), mask));
            for (r, &v) in acc.iter().enumerate() {
                let v = apply_ep(v, vbias, relu);
                _mm256_maskstore_ps(out.data.as_mut_ptr().add((i + r) * m + jb), mask, v);
            }
        }
    }

    /// `out = act(A·Bᵀ + bias)` with fused 8-lane multiply-adds and the
    /// epilogue applied in-register. `out` must already be
    /// `A.rows × B.rows`; shapes and the ReLU/identity-only epilogue are
    /// the caller's contract ([`Matrix32::matmul_nt_ep`] checks them).
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA (check [`available`] first).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn matmul_nt(a: &Matrix32, b: &Matrix32, out: &mut Matrix32, ep: Epilogue<'_>) {
        let (n, m, k) = (a.rows, b.rows, a.cols);
        // Transpose B once so the inner loop reads 8 consecutive output
        // columns per load; O(m·k) against the O(n·m·k) sweep below.
        let mut bt = vec![0.0f32; k * m];
        for j in 0..m {
            for kk in 0..k {
                bt[kk * m + j] = b.data[j * k + kk];
            }
        }
        let mask = tail_mask(m % 8);
        let mut i = 0;
        while i + ROWS <= n {
            row_tile::<ROWS>(a, &bt, out, i, m, mask, ep);
            i += ROWS;
        }
        while i < n {
            row_tile::<1>(a, &bt, out, i, m, mask, ep);
            i += 1;
        }
    }
}

/// Explicit AVX-512F microkernel for [`Matrix32::matmul_nt_ep`].
///
/// Same broadcast structure as the AVX2 kernel — `B` transposed once per
/// call, 8-row register tiles, fused epilogue before every store — but each
/// tile covers **16** output columns per `zmm` register instead of 8, so
/// the inner loop issues half the loads and stores per output. Ragged
/// column tails use `__mmask16` masked loads/stores instead of a separate
/// scalar path.
///
/// Per output, the `k`-accumulation is the *same* strictly ordered fused
/// chain as the AVX2 kernel (one FMA per `k` step; only the column blocking
/// differs, and blocking never touches the `k`-sum order), so the two SIMD
/// kernels agree **bitwise** — pinned by `avx512_and_avx2_agree_bitwise`.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{Activation, Epilogue, Matrix32};
    use std::arch::x86_64::*;

    /// Rows per register tile; see the AVX2 kernel's rationale. AVX-512
    /// doubles the architectural register count, so 8 accumulators + the
    /// shared `Bᵀ` load leave plenty of headroom.
    const ROWS: usize = 8;

    /// Apply the fused epilogue to one accumulated output vector; see
    /// `avx::apply_ep` for the NaN contract of `max(x, 0)`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn apply_ep(v: __m512, vbias: Option<__m512>, relu: bool) -> __m512 {
        let mut x = v;
        if let Some(b) = vbias {
            x = _mm512_add_ps(x, b);
        }
        if relu {
            x = _mm512_max_ps(x, _mm512_setzero_ps());
        }
        x
    }

    /// Score `R` consecutive `A` rows starting at `i` against every
    /// 16-column block of `bt` (the `k × m` transpose of `B`), applying
    /// the fused epilogue in-register before each store.
    #[target_feature(enable = "avx512f")]
    unsafe fn row_tile<const R: usize>(
        a: &Matrix32,
        bt: &[f32],
        out: &mut Matrix32,
        i: usize,
        m: usize,
        mask: __mmask16,
        ep: Epilogue<'_>,
    ) {
        let k = a.cols;
        let arows: [&[f32]; R] = std::array::from_fn(|r| &a.data[(i + r) * k..(i + r + 1) * k]);
        let relu = matches!(ep.activation, Activation::Relu);
        let m_main = m - m % 16;
        let mut jb = 0;
        while jb < m_main {
            let mut acc = [_mm512_setzero_ps(); R];
            for kk in 0..k {
                let vb = _mm512_loadu_ps(bt.as_ptr().add(kk * m + jb));
                for r in 0..R {
                    let va = _mm512_set1_ps(*arows[r].get_unchecked(kk));
                    acc[r] = _mm512_fmadd_ps(va, vb, acc[r]);
                }
            }
            let vbias = ep.bias.map(|b| _mm512_loadu_ps(b.as_ptr().add(jb)));
            for (r, &v) in acc.iter().enumerate() {
                let v = apply_ep(v, vbias, relu);
                _mm512_storeu_ps(out.data.as_mut_ptr().add((i + r) * m + jb), v);
            }
            jb += 16;
        }
        if jb < m {
            // Ragged column tail: `maskz` loads zero the inactive lanes
            // (they never reach memory) and the masked store writes only
            // the active ones.
            let mut acc = [_mm512_setzero_ps(); R];
            for kk in 0..k {
                let vb = _mm512_maskz_loadu_ps(mask, bt.as_ptr().add(kk * m + jb));
                for r in 0..R {
                    let va = _mm512_set1_ps(*arows[r].get_unchecked(kk));
                    acc[r] = _mm512_fmadd_ps(va, vb, acc[r]);
                }
            }
            let vbias = ep
                .bias
                .map(|b| _mm512_maskz_loadu_ps(mask, b.as_ptr().add(jb)));
            for (r, &v) in acc.iter().enumerate() {
                let v = apply_ep(v, vbias, relu);
                _mm512_mask_storeu_ps(out.data.as_mut_ptr().add((i + r) * m + jb), mask, v);
            }
        }
    }

    /// `out = act(A·Bᵀ + bias)` with fused 16-lane multiply-adds and the
    /// epilogue applied in-register. `out` must already be
    /// `A.rows × B.rows`; shapes and the ReLU/identity-only epilogue are
    /// the caller's contract ([`Matrix32::matmul_nt_ep`] checks them).
    ///
    /// # Safety
    /// The CPU must support AVX-512F (`is_x86_feature_detected!`).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn matmul_nt(a: &Matrix32, b: &Matrix32, out: &mut Matrix32, ep: Epilogue<'_>) {
        let (n, m, k) = (a.rows, b.rows, a.cols);
        let mut bt = vec![0.0f32; k * m];
        for j in 0..m {
            for kk in 0..k {
                bt[kk * m + j] = b.data[j * k + kk];
            }
        }
        let tail = m % 16;
        let mask: __mmask16 = if tail == 0 { 0 } else { 0xFFFF >> (16 - tail) };
        let mut i = 0;
        while i + ROWS <= n {
            row_tile::<ROWS>(a, &bt, out, i, m, mask, ep);
            i += ROWS;
        }
        while i < n {
            row_tile::<1>(a, &bt, out, i, m, mask, ep);
            i += 1;
        }
    }
}

/// Lane-parallel `f32` dot product (eight partial sums, reduced at the
/// end); vectorizes to packed FMAs. Same reassociation caveat as
/// [`Matrix32::matmul_nt`].
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let mut ach = a.chunks_exact(LANES);
    let mut bch = b.chunks_exact(LANES);
    for (ca, cb) in (&mut ach).zip(&mut bch) {
        for l in 0..LANES {
            acc[l] += ca[l] * cb[l];
        }
    }
    let mut s = 0.0f32;
    for lane in acc {
        s += lane;
    }
    for (x, y) in ach.remainder().iter().zip(bch.remainder()) {
        s += x * y;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Shapes straddling the 8-column tile, the 8-lane k chunking, and
        // the L1 slab boundary.
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

    /// Shapes straddling the 8- and 16-column tiles, the 8-lane k
    /// chunking, and the L1 slab boundary.
    const SHAPES: [(usize, usize, usize); 9] = [
        (1, 1, 1),
        (2, 4, 8),
        (3, 5, 7),
        (13, 9, 21),
        (5, 6, 64),
        (2, 513, 3),
        (7, 70, 33),
        (9, 17, 40),
        (1, 16, 1000),
    ];

    fn test_pair(n: usize, m: usize, k: usize) -> (Matrix32, Matrix32) {
        let a = Matrix32::from_f64(&Matrix::from_fn(n, k, |r, c| {
            ((r * 31 + c * 17) as f64).sin()
        }));
        let b = Matrix32::from_f64(&Matrix::from_fn(m, k, |r, c| {
            ((r * 13 + c * 7) as f64).cos()
        }));
        (a, b)
    }

    fn test_bias(m: usize) -> Vec<f32> {
        (0..m).map(|j| ((j as f32) * 0.21).sin() - 0.3).collect()
    }

    /// The runtime-dispatched microkernel and the portable fallback must
    /// agree within the accuracy contract on every tile shape (they are
    /// not bit-comparable: fused vs unfused rounding). No-op off x86_64 or
    /// on CPUs without AVX2+FMA, where dispatch already takes the portable
    /// path.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx_and_portable_kernels_agree() {
        if !avx::available() {
            return;
        }
        for (n, m, k) in SHAPES {
            let (a, b) = test_pair(n, m, k);
            let mut fused = Matrix32::zeros(n, m);
            // SAFETY: guarded by the `avx::available()` check above.
            unsafe { avx::matmul_nt(&a, &b, &mut fused, Epilogue::none()) };
            let mut portable = Matrix32::zeros(n, m);
            a.matmul_nt_portable(&b, &mut portable, Epilogue::none());
            let tol = 1e-6 * (k as f32).max(1.0) * 4.0;
            for (x, y) in fused.data().iter().zip(portable.data()) {
                assert!((x - y).abs() <= tol, "{n}x{m}x{k}: {x} vs {y} (tol {tol})");
            }
        }
    }

    /// The AVX-512F and AVX2 tiles accumulate each output as the same
    /// strictly ordered fused chain — only the column blocking differs —
    /// so on a CPU with both, they must agree **bitwise**, epilogue
    /// included. No-op without avx512f.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx512_and_avx2_agree_bitwise() {
        if !is_x86_feature_detected!("avx512f") || !avx::available() {
            return;
        }
        for (n, m, k) in SHAPES {
            let (a, b) = test_pair(n, m, k);
            let bias = test_bias(m);
            for ep in [
                Epilogue::none(),
                Epilogue::bias_only(&bias),
                Epilogue::new(&bias, Activation::Relu),
            ] {
                let mut wide = Matrix32::zeros(n, m);
                // SAFETY: guarded by the feature checks above.
                unsafe { avx512::matmul_nt(&a, &b, &mut wide, ep) };
                let mut narrow = Matrix32::zeros(n, m);
                // SAFETY: as above.
                unsafe { avx::matmul_nt(&a, &b, &mut narrow, ep) };
                for (x, y) in wide.data().iter().zip(narrow.data()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{n}x{m}x{k}: {x} vs {y}");
                }
            }
        }
    }

    /// Fused epilogue == unfused `matmul → add_row_bias → activation`
    /// composition, bitwise, for every kernel the dispatcher can pick on
    /// this machine (exercised through the public entry points, so this
    /// covers whichever kernel `KernelKind::detect()` selects) and for the
    /// post-pass (sigmoid) epilogue family too.
    #[test]
    fn fused_epilogue_matches_unfused_passes_bitwise() {
        for (n, m, k) in SHAPES {
            let (a, b) = test_pair(n, m, k);
            let bias = test_bias(m);
            for act in [
                Activation::Identity,
                Activation::Relu,
                Activation::Sigmoid,
                Activation::Tanh,
            ] {
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
        for (n, m, k) in SHAPES {
            let (a, b) = test_pair(n, m, k);
            let bias = test_bias(m);
            let mut fused = Matrix32::zeros(n, m);
            a.matmul_nt_portable(&b, &mut fused, Epilogue::new(&bias, Activation::Relu));
            let mut unfused = Matrix32::zeros(n, m);
            a.matmul_nt_portable(&b, &mut unfused, Epilogue::none());
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
    fn dot_f32_matches_scalar() {
        for len in [0, 1, 7, 8, 9, 31, 64] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32 * 0.3).sin()).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32 * 0.7).cos()).collect();
            let scalar: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot_f32(&a, &b) - scalar).abs() < 1e-4, "len {len}");
        }
    }

    #[test]
    fn add_row_bias_broadcasts() {
        let mut m = Matrix32::zeros(2, 3);
        m.add_row_bias(&[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[1.0f32, 2.0, 3.0]);
        assert_eq!(m.row(1), &[1.0f32, 2.0, 3.0]);
    }
}
