//! The `A·B` kernel behind every batched product of [`Matrix`] (`f64`,
//! the exact path) and [`Matrix32`] (`f32`, the fast path), written once
//! over the [`Lanes`] trait and run on the lanes [`KernelKind::detect`]
//! picks: AVX-512F, AVX2 + FMA or portable.
//!
//! The kernel packs `B` once per call into zero-padded column panels, then
//! sweeps register tiles of rows of `A` against L1-resident slabs of
//! panels. Every tile holds eight accumulator chains: 4 rows × 2 vectors
//! against panels two vectors wide, or 8 rows × 1 vector against one
//! panel one vector wide when that vector holds every output (the
//! classifier head, `m = 1`). A ragged panel whose live columns fit one
//! vector runs on a single vector, and the last vector of a row is stored
//! through a mask. For each `k` step a
//! tile loads its vectors of the panel, broadcasts one value of each row
//! of `A`, and accumulates with [`Lanes::mul_acc`]. Lanes hold different
//! outputs, never parts of one sum, and there are no horizontal
//! reductions, so each output is one chain from `+0.0` in `k` order. The
//! bias add and a ReLU/identity activation are applied in-register before
//! each store.
//!
//! What that chain rounds like is the lanes' contract: a multiply then an
//! add on the `f64` lanes, so every `f64` output has the bits of the
//! scalar per-row sum on every kernel; one fused multiply-add on the `f32`
//! AVX-512F and AVX2 lanes, so those outputs are the scalar
//! `f32::mul_add` chain on both; and a multiply then an add on the
//! portable `f32` lanes, within `f32` round-off of the other two.

use crate::activation::Activation;
use crate::lanes::{Element, Lanes};
use crate::matrix::l1_block_rows_sized;
#[cfg(doc)]
use crate::{Matrix, Matrix32};

/// Which lanes the kernels of [`Matrix::matmul_nt_ep`],
/// [`Matrix32::matmul_nt_ep`] and the per-sample SGD step
/// ([`crate::MlpStep`]) run on — detected once per call via
/// `is_x86_feature_detected!` (a cached CPUID probe, so detection is a
/// load + branch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// AVX-512F (x86-64 with `avx512f`): 8 `f64` or 16 `f32` lanes per
    /// vector.
    Avx512f,
    /// AVX2 + FMA (x86-64 with `avx2` and `fma`): 4 `f64` or 8 `f32`
    /// lanes per vector. Only the `f32` sums fuse.
    Avx2Fma,
    /// The portable lanes, left to the autovectorizer (any target; SSE2 on
    /// the x86-64 build baseline): 2 `f64` or 4 `f32` lanes per vector.
    Portable,
}

impl KernelKind {
    /// The best kernel the running CPU supports, in preference order
    /// AVX-512F → AVX2+FMA → portable.
    pub fn detect() -> Self {
        [KernelKind::Avx512f, KernelKind::Avx2Fma]
            .into_iter()
            .find(|k| k.supported())
            .unwrap_or(KernelKind::Portable)
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
            KernelKind::Avx2Fma => {
                is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
            }
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

    /// `T` lanes per vector on this kernel.
    pub(crate) fn lanes<T: Element>(self) -> usize {
        match self {
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx512f => <T::Avx512 as Lanes>::N,
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2Fma => <T::Avx2 as Lanes>::N,
            _ => <T::Portable as Lanes>::N,
        }
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Comma-separated list of the SIMD features the kernels probe for on the
/// running CPU — recorded in `BENCH_*.json` snapshots so committed numbers
/// carry their hardware context.
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
/// `matmul_nt` → bias add → activation on the same kernel: the epilogue
/// performs the same add and max, just before the store.
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

/// The right operand `B` of `A·B` (`k × m`) and the epilogue bias, packed
/// for vectors of `lanes` lanes in `⌈m / w⌉` column panels of width `w`:
/// one vector when it holds every output, else two. Panel `p` holds
/// `B[kk][p·w + c]` at `bt[(p·k + kk)·w + c]`, so one vector load reads
/// consecutive output columns. Both are zero-padded past `m`; the padded
/// lanes are computed but never stored.
pub(crate) struct Packed<T> {
    k: usize,
    m: usize,
    w: usize,
    panels: usize,
    bt: Vec<T>,
    bias: Option<Vec<T>>,
}

impl<T: Element> Packed<T> {
    /// The panel width and count for `m` outputs on vectors of `lanes`.
    fn panels(m: usize, lanes: usize) -> (usize, usize) {
        let w = if m <= lanes { lanes } else { 2 * lanes };
        (w, m.div_ceil(w))
    }

    /// `B` as the transpose of the `m × k` row-major `b` (one output per
    /// row, for `A·bᵀ`), and the bias.
    pub(crate) fn from_rows(b: &[T], m: usize, k: usize, bias: Option<&[T]>, lanes: usize) -> Self {
        let (w, panels) = Self::panels(m, lanes);
        let mut bt = vec![T::ZERO; panels * k * w];
        for j in 0..m {
            let (p, c) = (j / w, j % w);
            for (kk, &v) in b[j * k..(j + 1) * k].iter().enumerate() {
                bt[(p * k + kk) * w + c] = v;
            }
        }
        let bias = bias.map(|b| {
            let mut padded = vec![T::ZERO; panels * w];
            padded[..m].copy_from_slice(b);
            padded
        });
        Self {
            k,
            m,
            w,
            panels,
            bt,
            bias,
        }
    }

    /// `B` from the `k × m` row-major `b` (one output per column),
    /// straight from its rows: panel `p` at step `kk` is the slice
    /// `b[kk][p·w .. p·w + w]`, zero-padded.
    pub(crate) fn from_kn(b: &[T], k: usize, m: usize, lanes: usize) -> Self {
        let (w, panels) = Self::panels(m, lanes);
        let mut bt = vec![T::ZERO; panels * k * w];
        for (kk, row) in b.chunks_exact(m.max(1)).enumerate() {
            for (p, cols) in row.chunks(w).enumerate() {
                let at = (p * k + kk) * w;
                bt[at..at + cols.len()].copy_from_slice(cols);
            }
        }
        Self {
            k,
            m,
            w,
            panels,
            bt,
            bias: None,
        }
    }
}

/// `act(A·B + bias)` on `kernel`, row-major `n × m`, for the row-major
/// `n × k` operand `a`, where `pack(lanes)` packs `B` and the bias for the
/// kernel's vectors of `lanes` lanes, and `act` is ReLU when `relu`, else
/// the identity. The back end of every product of [`Matrix`] and
/// [`Matrix32`]; the caller checks the shapes.
///
/// # Panics
/// Panics when `kernel` is not supported on the running CPU.
pub(crate) fn matmul<T: Element>(
    a: &[T],
    n: usize,
    kernel: KernelKind,
    relu: bool,
    pack: impl FnOnce(usize) -> Packed<T>,
) -> Vec<T> {
    assert!(
        kernel.supported(),
        "kernel {kernel} is not supported on this CPU"
    );
    let packed = pack(kernel.lanes::<T>());
    let mut out = vec![T::ZERO; n * packed.m];
    if out.is_empty() {
        return out;
    }
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `kernel.supported()` was asserted, so the CPU has
        // AVX-512F.
        KernelKind::Avx512f => unsafe { avx512::<T::Avx512>(a, &packed, relu, &mut out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above; `Avx2Fma` support is AVX2 and FMA.
        KernelKind::Avx2Fma => unsafe { avx2::<T::Avx2>(a, &packed, relu, &mut out) },
        // SAFETY: the portable lanes need no CPU feature.
        _ => unsafe { tiles::<T::Portable>(a, &packed, relu, &mut out) },
    }
    out
}

/// [`tiles`] on AVX-512F lanes.
///
/// # Safety
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn avx512<L: Lanes>(
    a: &[L::Elem],
    packed: &Packed<L::Elem>,
    relu: bool,
    out: &mut [L::Elem],
) {
    tiles::<L>(a, packed, relu, out)
}

/// [`tiles`] on AVX2 lanes; the `f32` lanes fuse with FMA, and rustc never
/// fuses the `f64` lanes' separate multiply and add.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2<L: Lanes>(a: &[L::Elem], packed: &Packed<L::Elem>, relu: bool, out: &mut [L::Elem]) {
    tiles::<L>(a, packed, relu, out)
}

/// `out = act(A·B + bias)` on `L`'s lanes from `packed` (packed for
/// `L::N` lanes), L1 slab by slab of panels, register tile by tile.
///
/// # Safety
/// The CPU must support `L`'s instructions.
#[inline(always)]
unsafe fn tiles<L: Lanes>(
    a: &[L::Elem],
    packed: &Packed<L::Elem>,
    relu: bool,
    out: &mut [L::Elem],
) {
    let n = out.len() / packed.m;
    if packed.w == L::N {
        // One vector holds every output: one panel, 8 rows per tile.
        row_tiles::<L, 8, 1>(a, packed, relu, out, n, 0..1);
        return;
    }
    let w = 2 * L::N;
    assert_eq!(packed.w, w, "panels packed for other lanes");
    let slab = l1_block_rows_sized(packed.k, w, std::mem::size_of::<L::Elem>()) / w;
    for p0 in (0..packed.panels).step_by(slab) {
        let panels = p0..(p0 + slab).min(packed.panels);
        row_tiles::<L, 4, 2>(a, packed, relu, out, n, panels);
    }
}

/// Rows `0..n` against the panels `panels` (`P` vectors wide), `R` rows at
/// a time, then one at a time.
///
/// # Safety
/// The CPU must support `L`'s instructions.
#[inline(always)]
unsafe fn row_tiles<L: Lanes, const R: usize, const P: usize>(
    a: &[L::Elem],
    packed: &Packed<L::Elem>,
    relu: bool,
    out: &mut [L::Elem],
    n: usize,
    panels: std::ops::Range<usize>,
) {
    let mut i = 0;
    while i + R <= n {
        rows::<L, R, P>(a, packed, relu, out, i, panels.clone());
        i += R;
    }
    while i < n {
        rows::<L, 1, P>(a, packed, relu, out, i, panels.clone());
        i += 1;
    }
}

/// Rows `i..i + R` against the panels `panels` (`P` vectors wide), one
/// tile per panel: `P` vectors, or one for a panel whose live columns fit
/// one vector.
///
/// # Safety
/// The CPU must support `L`'s instructions.
#[inline(always)]
unsafe fn rows<L: Lanes, const R: usize, const P: usize>(
    a: &[L::Elem],
    packed: &Packed<L::Elem>,
    relu: bool,
    out: &mut [L::Elem],
    i: usize,
    panels: std::ops::Range<usize>,
) {
    let (k, m, w) = (packed.k, packed.m, P * L::N);
    let arows: [&[L::Elem]; R] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
    for p in panels {
        let j = p * w;
        let panel = &packed.bt[p * k * w..(p + 1) * k * w];
        let bias = packed.bias.as_deref().map(|b| &b[j..j + w]);
        let live = (m - j).min(w);
        let dst = &mut out[i * m + j..];
        if P == 1 || live <= L::N {
            tile::<L, R, 1, P>(&arows, panel, bias, relu, dst, m, live);
        } else {
            tile::<L, R, P, P>(&arows, panel, bias, relu, dst, m, live);
        }
    }
}

/// One register tile: the rows `arows` against one `k × P·L::N` panel,
/// `act(sum + bias)` of its first `V` vectors stored into the first
/// `live ≤ V·L::N` columns of rows `0..R` of `dst` (row stride `m`).
///
/// # Safety
/// The CPU must support `L`'s instructions, and every row of `arows` must
/// hold at least `k = panel.len() / (P·L::N)` values.
#[inline(always)]
unsafe fn tile<L: Lanes, const R: usize, const V: usize, const P: usize>(
    arows: &[&[L::Elem]; R],
    panel: &[L::Elem],
    bias: Option<&[L::Elem]>,
    relu: bool,
    dst: &mut [L::Elem],
    m: usize,
    live: usize,
) {
    let mut acc = [[L::zero(); V]; R];
    for (kk, step) in panel.chunks_exact(P * L::N).enumerate() {
        let b: [L; V] = std::array::from_fn(|v| L::load(&step[v * L::N..]));
        for (acc, arow) in acc.iter_mut().zip(arows) {
            // SAFETY: `kk < k`, and the caller guarantees `arow` holds at
            // least `k` values.
            let x = L::splat(*arow.get_unchecked(kk));
            for (acc, &b) in acc.iter_mut().zip(&b) {
                *acc = L::mul_acc(*acc, x, b);
            }
        }
    }
    let bias: Option<[L; V]> = bias.map(|b| std::array::from_fn(|v| L::load(&b[v * L::N..])));
    for (r, acc) in acc.iter().enumerate() {
        let row = &mut dst[r * m..r * m + live];
        for (v, &x) in acc.iter().enumerate() {
            let x = match bias {
                Some(b) => x.add(b[v]),
                None => x,
            };
            let x = if relu { x.max0() } else { x };
            let at = v * L::N;
            if live - at >= L::N {
                x.store(&mut row[at..]);
            } else {
                x.store_part(&mut row[at..], live - at);
            }
        }
    }
}
