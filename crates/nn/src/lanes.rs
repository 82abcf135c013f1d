//! The vector lanes the SIMD kernels are written in: one trait, [`Lanes`],
//! with an AVX-512F, an AVX2 and a portable implementation for each
//! [`Element`] (`f64` and `f32`). The `A·B` kernel ([`crate::kernel`]) and
//! the per-sample SGD step ([`crate::step`]) are each written once over it
//! and inlined into one `#[target_feature]` entry point per instruction
//! set, so every `std::arch` intrinsic of the crate sits in this module.
//!
//! Each operation is one IEEE operation per lane, with one exception:
//! [`Lanes::mul_acc`] is one fused multiply-add on the `f32` AVX-512F and
//! AVX2 lanes, and a rounded multiply then a rounded add on every other
//! lane type. That is the whole precision contract of the kernels:
//! `f64` sums keep the scalar order and rounding on every kernel, and the
//! `f32` SIMD sums are the scalar `f32::mul_add` chain.

use std::ops::{Add, Mul};

/// A scalar the kernels run on, with its lanes on each kernel.
pub(crate) trait Element: Copy + Add<Output = Self> + Mul<Output = Self> {
    /// `+0.0`.
    const ZERO: Self;
    /// `max(x, 0)`, as `f64::max(x, 0.0)`: `0` for a NaN `x`.
    fn max0(self) -> Self;
    /// The portable lanes.
    type Portable: Lanes<Elem = Self>;
    /// The AVX-512F lanes.
    #[cfg(target_arch = "x86_64")]
    type Avx512: Lanes<Elem = Self>;
    /// The AVX2 lanes.
    #[cfg(target_arch = "x86_64")]
    type Avx2: Lanes<Elem = Self>;
}

/// The `f64` portable lanes: two scalars, one SSE2 register.
pub(crate) type PortableF64 = Portable<f64, 2>;

impl Element for f64 {
    const ZERO: f64 = 0.0;
    #[inline(always)]
    fn max0(self) -> f64 {
        self.max(0.0)
    }
    type Portable = PortableF64;
    #[cfg(target_arch = "x86_64")]
    type Avx512 = Avx512F64;
    #[cfg(target_arch = "x86_64")]
    type Avx2 = Avx2F64;
}

impl Element for f32 {
    const ZERO: f32 = 0.0;
    #[inline(always)]
    fn max0(self) -> f32 {
        self.max(0.0)
    }
    /// Four scalars, one SSE2 register.
    type Portable = Portable<f32, 4>;
    #[cfg(target_arch = "x86_64")]
    type Avx512 = Avx512F32;
    #[cfg(target_arch = "x86_64")]
    type Avx2 = Avx2F32;
}

/// A vector of [`Lanes::N`] values of one [`Element`], and the operations
/// the kernels are written in.
///
/// # Safety
/// Every method requires a CPU that supports the implementation's
/// instructions; slices are bounds-checked as usual.
pub(crate) trait Lanes: Copy {
    /// The scalar in each lane.
    type Elem: Element;
    /// Lanes per vector.
    const N: usize;
    unsafe fn zero() -> Self;
    unsafe fn splat(x: Self::Elem) -> Self;
    /// The first `N` values of `s`.
    unsafe fn load(s: &[Self::Elem]) -> Self;
    /// Store all `N` lanes into the front of `s`.
    unsafe fn store(self, s: &mut [Self::Elem]);
    /// Store the first `n ≤ N` lanes into the front of `s`.
    unsafe fn store_part(self, s: &mut [Self::Elem], n: usize);
    unsafe fn add(self, o: Self) -> Self;
    unsafe fn mul(self, o: Self) -> Self;
    /// [`Element::max0`] lane by lane; the SIMD `max(x, 0)` returns its
    /// second operand for a NaN `x` and for `±0.0`, as the scalar does.
    unsafe fn max0(self) -> Self;
    /// `acc + a·b`: a multiply, then an add. The `f32` SIMD lanes override
    /// it with one fused multiply-add.
    #[inline(always)]
    unsafe fn mul_acc(acc: Self, a: Self, b: Self) -> Self {
        acc.add(a.mul(b))
    }
}

/// The step's own operations, on `f64` lanes only.
pub(crate) trait StepLanes: Lanes<Elem = f64> {
    /// The first `n ≤ N` values of `s`, zeros in the other lanes.
    unsafe fn load_part(s: &[f64], n: usize) -> Self;
    unsafe fn sub(self, o: Self) -> Self;
    /// Lane by lane, `new` where `d != 0.0` (true for NaN, as the scalar
    /// `!=`), else `old`.
    unsafe fn select_nonzero(d: Self, new: Self, old: Self) -> Self;
}

/// The portable lanes: `N` scalars, left to the compiler to vectorize.
#[derive(Clone, Copy)]
pub(crate) struct Portable<T, const N: usize>([T; N]);

impl<T: Element, const N: usize> Portable<T, N> {
    #[inline(always)]
    fn zip(self, o: Self, f: impl Fn(T, T) -> T) -> Self {
        Self(std::array::from_fn(|i| f(self.0[i], o.0[i])))
    }
}

impl<T: Element, const N: usize> Lanes for Portable<T, N> {
    type Elem = T;
    const N: usize = N;
    #[inline(always)]
    unsafe fn zero() -> Self {
        Self([T::ZERO; N])
    }
    #[inline(always)]
    unsafe fn splat(x: T) -> Self {
        Self([x; N])
    }
    #[inline(always)]
    unsafe fn load(s: &[T]) -> Self {
        let s = &s[..N];
        Self(std::array::from_fn(|i| s[i]))
    }
    #[inline(always)]
    unsafe fn store(self, s: &mut [T]) {
        s[..N].copy_from_slice(&self.0);
    }
    #[inline(always)]
    unsafe fn store_part(self, s: &mut [T], n: usize) {
        s[..n].copy_from_slice(&self.0[..n]);
    }
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        self.zip(o, |a, b| a + b)
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        self.zip(o, |a, b| a * b)
    }
    #[inline(always)]
    unsafe fn max0(self) -> Self {
        Self(self.0.map(T::max0))
    }
}

impl<const N: usize> StepLanes for Portable<f64, N> {
    #[inline(always)]
    unsafe fn load_part(s: &[f64], n: usize) -> Self {
        let s = &s[..n];
        Self(std::array::from_fn(|i| if i < n { s[i] } else { 0.0 }))
    }
    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        self.zip(o, |a, b| a - b)
    }
    #[inline(always)]
    unsafe fn select_nonzero(d: Self, new: Self, old: Self) -> Self {
        Self(std::array::from_fn(|i| {
            if d.0[i] != 0.0 {
                new.0[i]
            } else {
                old.0[i]
            }
        }))
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::{Avx2F32, Avx2F64, Avx512F32, Avx512F64};

/// The AVX-512F and AVX2 lanes.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Lanes, StepLanes};
    use std::arch::x86_64::*;

    /// Eight `f64` lanes in one AVX-512F register.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx512F64(__m512d);

    /// Sixteen `f32` lanes in one AVX-512F register.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx512F32(__m512);

    /// Four `f64` lanes in one AVX2 register.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx2F64(__m256d);

    /// Eight `f32` lanes in one AVX2 register.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx2F32(__m256);

    /// The mask of the first `n ≤ 16` lanes.
    #[inline(always)]
    fn mask16(n: usize) -> __mmask16 {
        (0xFFFF_u32 >> (16 - n)) as __mmask16
    }

    /// The AVX2 load/store mask of the first `n ≤ 4` 64-bit lanes: the
    /// sign bit of each lane enables it.
    #[inline(always)]
    unsafe fn mask4(n: usize) -> __m256i {
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(n as i64), _mm256_setr_epi64x(0, 1, 2, 3))
    }

    /// The AVX2 store mask of the first `n ≤ 8` 32-bit lanes.
    #[inline(always)]
    unsafe fn mask8(n: usize) -> __m256i {
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), lanes)
    }

    impl Lanes for Avx512F64 {
        type Elem = f64;
        const N: usize = 8;
        #[inline(always)]
        unsafe fn zero() -> Self {
            Self(_mm512_setzero_pd())
        }
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            Self(_mm512_set1_pd(x))
        }
        #[inline(always)]
        unsafe fn load(s: &[f64]) -> Self {
            Self(_mm512_loadu_pd(s[..8].as_ptr()))
        }
        #[inline(always)]
        unsafe fn store(self, s: &mut [f64]) {
            _mm512_storeu_pd(s[..8].as_mut_ptr(), self.0)
        }
        #[inline(always)]
        unsafe fn store_part(self, s: &mut [f64], n: usize) {
            _mm512_mask_storeu_pd(s[..n].as_mut_ptr(), mask16(n) as __mmask8, self.0)
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            Self(_mm512_add_pd(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            Self(_mm512_mul_pd(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn max0(self) -> Self {
            Self(_mm512_max_pd(self.0, _mm512_setzero_pd()))
        }
    }

    impl StepLanes for Avx512F64 {
        #[inline(always)]
        unsafe fn load_part(s: &[f64], n: usize) -> Self {
            Self(_mm512_maskz_loadu_pd(
                mask16(n) as __mmask8,
                s[..n].as_ptr(),
            ))
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            Self(_mm512_sub_pd(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn select_nonzero(d: Self, new: Self, old: Self) -> Self {
            let live = _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(d.0, _mm512_setzero_pd());
            Self(_mm512_mask_blend_pd(live, old.0, new.0))
        }
    }

    impl Lanes for Avx512F32 {
        type Elem = f32;
        const N: usize = 16;
        #[inline(always)]
        unsafe fn zero() -> Self {
            Self(_mm512_setzero_ps())
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            Self(_mm512_set1_ps(x))
        }
        #[inline(always)]
        unsafe fn load(s: &[f32]) -> Self {
            Self(_mm512_loadu_ps(s[..16].as_ptr()))
        }
        #[inline(always)]
        unsafe fn store(self, s: &mut [f32]) {
            _mm512_storeu_ps(s[..16].as_mut_ptr(), self.0)
        }
        #[inline(always)]
        unsafe fn store_part(self, s: &mut [f32], n: usize) {
            _mm512_mask_storeu_ps(s[..n].as_mut_ptr(), mask16(n), self.0)
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            Self(_mm512_add_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            Self(_mm512_mul_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn max0(self) -> Self {
            Self(_mm512_max_ps(self.0, _mm512_setzero_ps()))
        }
        #[inline(always)]
        unsafe fn mul_acc(acc: Self, a: Self, b: Self) -> Self {
            Self(_mm512_fmadd_ps(a.0, b.0, acc.0))
        }
    }

    impl Lanes for Avx2F64 {
        type Elem = f64;
        const N: usize = 4;
        #[inline(always)]
        unsafe fn zero() -> Self {
            Self(_mm256_setzero_pd())
        }
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            Self(_mm256_set1_pd(x))
        }
        #[inline(always)]
        unsafe fn load(s: &[f64]) -> Self {
            Self(_mm256_loadu_pd(s[..4].as_ptr()))
        }
        #[inline(always)]
        unsafe fn store(self, s: &mut [f64]) {
            _mm256_storeu_pd(s[..4].as_mut_ptr(), self.0)
        }
        #[inline(always)]
        unsafe fn store_part(self, s: &mut [f64], n: usize) {
            _mm256_maskstore_pd(s[..n].as_mut_ptr(), mask4(n), self.0)
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            Self(_mm256_add_pd(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            Self(_mm256_mul_pd(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn max0(self) -> Self {
            Self(_mm256_max_pd(self.0, _mm256_setzero_pd()))
        }
    }

    impl StepLanes for Avx2F64 {
        #[inline(always)]
        unsafe fn load_part(s: &[f64], n: usize) -> Self {
            Self(_mm256_maskload_pd(s[..n].as_ptr(), mask4(n)))
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            Self(_mm256_sub_pd(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn select_nonzero(d: Self, new: Self, old: Self) -> Self {
            let live = _mm256_cmp_pd::<_CMP_NEQ_UQ>(d.0, _mm256_setzero_pd());
            Self(_mm256_blendv_pd(old.0, new.0, live))
        }
    }

    impl Lanes for Avx2F32 {
        type Elem = f32;
        const N: usize = 8;
        #[inline(always)]
        unsafe fn zero() -> Self {
            Self(_mm256_setzero_ps())
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            Self(_mm256_set1_ps(x))
        }
        #[inline(always)]
        unsafe fn load(s: &[f32]) -> Self {
            Self(_mm256_loadu_ps(s[..8].as_ptr()))
        }
        #[inline(always)]
        unsafe fn store(self, s: &mut [f32]) {
            _mm256_storeu_ps(s[..8].as_mut_ptr(), self.0)
        }
        #[inline(always)]
        unsafe fn store_part(self, s: &mut [f32], n: usize) {
            _mm256_maskstore_ps(s[..n].as_mut_ptr(), mask8(n), self.0)
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            Self(_mm256_add_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            Self(_mm256_mul_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn max0(self) -> Self {
            Self(_mm256_max_ps(self.0, _mm256_setzero_ps()))
        }
        #[inline(always)]
        unsafe fn mul_acc(acc: Self, a: Self, b: Self) -> Self {
            Self(_mm256_fmadd_ps(a.0, b.0, acc.0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelKind;
    use std::fmt::Debug;

    /// `acc + a·b` on every lane of `L`, and `store_part` of `1`s into a
    /// buffer of `fill`s for every live count: exactly the first `n`
    /// values change.
    ///
    /// # Safety
    /// The CPU must support `L`'s instructions.
    unsafe fn check<L: Lanes>(
        acc: L::Elem,
        a: L::Elem,
        b: L::Elem,
        one: L::Elem,
        fill: L::Elem,
    ) -> L::Elem
    where
        L::Elem: PartialEq + Debug,
    {
        for n in 0..=L::N {
            let mut buf = vec![fill; L::N + 1];
            L::splat(one).store_part(&mut buf, n);
            let want: Vec<_> = (0..=L::N).map(|i| if i < n { one } else { fill }).collect();
            assert_eq!(buf, want, "store_part of {n}");
        }
        let mut out = vec![fill; L::N];
        L::mul_acc(L::splat(acc), L::splat(a), L::splat(b)).store(&mut out);
        assert!(out.iter().all(|&x| x == out[0]), "lanes disagree: {out:?}");
        out[0]
    }

    /// On every lane type the CPU supports, `store_part` stops at `n`, and
    /// `mul_acc` is one fused multiply-add on the `f32` AVX-512F and AVX2
    /// lanes and a multiply then an add on the others: `a·b = 1 − ε²`
    /// exactly but rounds to `1`, so `−1 + a·b` is `−ε²` fused and `0`
    /// unfused.
    #[test]
    fn lane_contract_holds_on_every_lane_type() {
        let (a32, b32) = (1.0 + f32::EPSILON, 1.0 - f32::EPSILON);
        let (a64, b64) = (1.0 + f64::EPSILON, 1.0 - f64::EPSILON);
        let fused = a32.mul_add(b32, -1.0);
        assert_ne!(fused, 0.0);
        // SAFETY: the portable lanes need no CPU feature.
        unsafe {
            assert_eq!(check::<Portable<f32, 4>>(-1.0, a32, b32, 1.0, 2.0), 0.0);
            assert_eq!(check::<PortableF64>(-1.0, a64, b64, 1.0, 2.0), 0.0);
        }
        #[cfg(target_arch = "x86_64")]
        {
            if KernelKind::Avx512f.supported() {
                // SAFETY: AVX-512F support was just checked.
                unsafe {
                    assert_eq!(check::<Avx512F32>(-1.0, a32, b32, 1.0, 2.0), fused);
                    assert_eq!(check::<Avx512F64>(-1.0, a64, b64, 1.0, 2.0), 0.0);
                }
            }
            if KernelKind::Avx2Fma.supported() {
                // SAFETY: AVX2 and FMA support was just checked.
                unsafe {
                    assert_eq!(check::<Avx2F32>(-1.0, a32, b32, 1.0, 2.0), fused);
                    assert_eq!(check::<Avx2F64>(-1.0, a64, b64, 1.0, 2.0), 0.0);
                }
            }
        }
    }
}
