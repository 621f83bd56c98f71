//! The span kernel of the binned sweep and the owner classifiers, each one
//! generic body over `Lanes` (**lane per particle**).
//!
//! The sqrt/divide chain in [`coulomb`] dominates the sweep's critical
//! path, and the baseline x86-64 target only licenses 2-lane SSE2
//! autovectorization, so the kernel is vectorized by hand: four particles
//! per iteration (eight on AVX-512), with the widest instruction set the
//! host actually has — selected once at engine construction, not at
//! compile time, so one binary serves every deployment target. The same
//! bodies run at one lane (`f64` implements `Lanes` and `OwnerLanes`)
//! for the `Scalar` backend and for the `len mod WIDTH` tail of every
//! vector call.
//!
//! ## Backends
//!
//! * [`SimdBackend::Avx512`] — eight f64 lanes in one 512-bit register
//!   (x86-64, runtime-detected via `is_x86_feature_detected!("avx512f")`).
//!   Bit-identity is a **per-lane** property, so the exact kernel runs
//!   unchanged at twice the width — only the grouping of particles into
//!   registers differs, never any lane's arithmetic.
//! * [`SimdBackend::Avx2`] — one 256-bit register per quartet (x86-64,
//!   runtime-detected via `is_x86_feature_detected!`). AVX2 only: the
//!   backend deliberately does **not** enable FMA, because a fused
//!   multiply-add rounds once where the oracle rounds twice and
//!   would break bit-identity.
//! * [`SimdBackend::Sse2`] — two 128-bit registers per quartet; SSE2 is
//!   part of the x86-64 baseline, so this backend needs no detection.
//! * [`SimdBackend::Scalar`] — the generic bodies at one lane. Always
//!   available, the only backend off x86-64, and forcible at runtime with
//!   `PIC_NO_SIMD=1` for A/B measurements and for keeping the fallback
//!   path under test on vector-capable hosts.
//!
//! ## Why the vector path is bit-identical (DESIGN.md §10)
//!
//! Lane-wise `+ − × ÷ sqrt` are IEEE-754 **correctly rounded** on every
//! supported backend, i.e. each lane computes exactly what the scalar
//! instruction computes on that lane's operands. The kernel assigns one
//! particle per lane and performs, per lane, the *same operation sequence
//! in the same order* as the AoS oracle (`total_force` and
//! [`crate::motion::advance_particle`]) — the four corner evaluations in
//! its pairing and summation order, nothing reassociated across a
//! particle's own arithmetic, and no FMA contraction is permitted. The one licensed
//! shortcut reuses a value instead of recomputing it (the folds, see
//! `force_groups`): a group whose lanes all sit at exact cell mid-height
//! takes each column's top-corner `f/r` from the bottom corner, and one
//! whose lanes all sit at exact mid-width takes the right column's `f/r`
//! from the left column's, negated — values whose bits it provably
//! shares; a group centred on both axes whose every lane carries the
//! span's first charge takes its whole force from four constants of the
//! call, evaluated once by the same operations on the same bits. Span tails
//! (`len mod WIDTH`) run the same body at one lane, folds included, and the
//! wrap pass takes each lane through the exact scalar [`Grid::wrap_coord`]
//! whenever any lane left the domain.
//! Particles are independent within a step, so processing them four at a
//! time changes *where* arithmetic happens, never *what* arithmetic
//! happens — asserted against the oracle, per particle, across every
//! backend the host can run.
//!
//! [`coulomb`]: crate::charge::coulomb

use crate::charge::{f_over_r_lanes, mid_cell_lanes, SimConstants};
use crate::geometry::Grid;
use crate::owner::{OwnerMap, OwnerTable};

/// Number of f64 lanes in the narrowest vector backend (the historical
/// fixed width; AVX-512 runs `Lanes::WIDTH` = 8).
pub const LANES: usize = 4;

/// The instruction-set backend driving the span kernel and the owner
/// classifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdBackend {
    /// 8 × f64 in one 512-bit register (x86-64, runtime-detected).
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// 4 × f64 in one 256-bit register (x86-64, runtime-detected; FMA
    /// deliberately unused).
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// 4 × f64 in two 128-bit registers (x86-64 baseline).
    #[cfg(target_arch = "x86_64")]
    Sse2,
    /// The generic bodies at one lane (any arch; forced by `PIC_NO_SIMD=1`).
    Scalar,
}

impl SimdBackend {
    /// Pick the widest backend the host supports, honouring the
    /// `PIC_NO_SIMD` escape hatch. Called once per engine construction;
    /// the choice is recorded so benchmarks and logs can report it.
    pub fn detect() -> SimdBackend {
        if scalar_forced_by(std::env::var("PIC_NO_SIMD").ok().as_deref()) {
            return SimdBackend::Scalar;
        }
        Self::widest_available()
    }

    /// The widest backend the host supports, ignoring `PIC_NO_SIMD`.
    pub fn widest_available() -> SimdBackend {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return SimdBackend::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdBackend::Avx2;
            }
            SimdBackend::Sse2
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            SimdBackend::Scalar
        }
    }

    /// Every backend the host can execute, scalar last — the test grid
    /// iterates this so vector-vs-scalar identity is proven on whatever
    /// hardware runs the suite.
    pub fn available() -> Vec<SimdBackend> {
        let mut v = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                v.push(SimdBackend::Avx512);
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                v.push(SimdBackend::Avx2);
            }
            v.push(SimdBackend::Sse2);
        }
        v.push(SimdBackend::Scalar);
        v
    }

    /// Stable lower-case name for logs and benchmark metadata.
    pub fn name(self) -> &'static str {
        match self {
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx512 => "avx512",
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Sse2 => "sse2",
            SimdBackend::Scalar => "scalar",
        }
    }

    /// f64 lanes per kernel iteration on this backend (1 for scalar).
    pub fn lanes(self) -> usize {
        match self {
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx512 => 8,
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 | SimdBackend::Sse2 => LANES,
            SimdBackend::Scalar => 1,
        }
    }
}

/// `PIC_NO_SIMD` semantics, factored out so the parse is testable without
/// mutating the process environment: any value other than empty/`0` forces
/// the scalar backend.
fn scalar_forced_by(val: Option<&str>) -> bool {
    match val {
        None => false,
        Some(v) => {
            let v = v.trim();
            !v.is_empty() && v != "0"
        }
    }
}

/// A group of f64 lanes ([`Lanes::WIDTH`] of them) with correctly-rounded
/// lane-wise arithmetic. Every operation maps to one (or two, for the
/// split-register backends) machine instruction whose per-lane result is
/// bit-identical to the corresponding scalar instruction — the property
/// the whole module rests on. Implementations are `#[inline(always)]` so
/// they fuse into the per-backend kernel instantiations below.
pub(crate) trait Lanes: Copy {
    /// f64 lanes per group (4 on the 256-bit and split-register backends,
    /// 8 on AVX-512).
    const WIDTH: usize;
    /// Load `WIDTH` lanes from `p` (unaligned).
    ///
    /// # Safety
    /// `p` must be valid for reading `WIDTH` consecutive f64 values.
    unsafe fn load(p: *const f64) -> Self;
    /// Store `WIDTH` lanes to `p` (unaligned).
    ///
    /// # Safety
    /// `p` must be valid for writing `WIDTH` consecutive f64 values.
    unsafe fn store(self, p: *mut f64);
    fn splat(v: f64) -> Self;
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    fn div(self, o: Self) -> Self;
    fn sqrt(self) -> Self;
    /// Truncate toward zero through the arch's f64→int→f64 round trip —
    /// exactly the column [`Grid::cell_of`] gives an in-domain coordinate:
    /// the narrowest intermediate, the vector backends' `i32`, holds every
    /// column [`Grid::new`] accepts.
    fn trunc(self) -> Self;
    /// Zero every lane of `self` whose lane in `r2` equals `0.0` — the
    /// vector form of [`coulomb`]'s value-select zero-distance guard.
    ///
    /// [`coulomb`]: crate::charge::coulomb
    fn zero_where_zero(self, r2: Self) -> Self;
    /// Whether every lane lies in `[0.0, hi)` — the wrap pass's fast-path
    /// test.
    fn all_in_range(self, hi: f64) -> bool;
    /// Whether every lane of `self` equals its lane in `o` — the exact
    /// IEEE `==` per lane (so `-0.0 == 0.0`, and a NaN on either side is
    /// `false`). The corner folds' premise test, and the force fold's
    /// charge test.
    fn all_eq(self, o: Self) -> bool;
}

/// The ops of the owner classifiers ([`crate::owner::OwnerMap`]): the
/// saturating cell index of [`Grid::cell_of`] per lane, and `u32` table
/// lanes beside the `f64` ones. Implemented by the two backends with a
/// gather (AVX-512 and AVX2) and by one lane, which classifies for the
/// others and for every tail.
pub(crate) trait OwnerLanes: Lanes {
    /// [`Lanes::WIDTH`] `u32` lanes.
    type Index: Copy;
    /// `min(max(x, 0), last)` per lane, NaN → 0: the value whose
    /// truncation is `Grid::cell_of(x)` for every `f64`, `last` the last
    /// cell index. A kept interval `lo..hi` of columns is then
    /// `lo <= v < hi` on the clamped value, with no conversion.
    fn clamp_cell(self, last: Self) -> Self;
    /// Bit `j` set where lane `j` lies in `[lo, hi)`.
    fn within(self, lo: Self, hi: Self) -> u64;
    /// Truncate clamped lanes (each in `[0, 2³¹)`: [`Grid::new`] caps the
    /// last cell index at `i32::MAX`) to `u32`.
    fn index(self) -> Self::Index;
    /// `tab[i]` per lane, the index zero-extended (so it never reads
    /// below `tab`, whatever its top bit).
    ///
    /// # Safety
    /// Every lane of `i` must index inside the table at `tab`.
    unsafe fn gather(tab: *const u32, i: Self::Index) -> Self::Index;
    /// Lane-wise wrapping `a + b`.
    fn add_index(a: Self::Index, b: Self::Index) -> Self::Index;
    /// Bit `j` set where lane `j` of `i` equals `v`.
    fn index_eq(i: Self::Index, v: u32) -> u64;
    /// Store the lanes to `out` (unaligned).
    ///
    /// # Safety
    /// `out` must be valid for writing `WIDTH` `u32` values.
    unsafe fn store_index(i: Self::Index, out: *mut u32);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Lanes, OwnerLanes};
    use std::arch::x86_64::*;

    /// 8 × f64 in one zmm register, bit-identical to scalar (bit-identity
    /// is per-lane; only the grouping widens).
    #[derive(Clone, Copy)]
    pub struct Avx512(__m512d);

    impl Lanes for Avx512 {
        const WIDTH: usize = 8;

        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            Avx512(_mm512_loadu_pd(p))
        }

        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm512_storeu_pd(p, self.0)
        }

        #[inline(always)]
        fn splat(v: f64) -> Self {
            Avx512(unsafe { _mm512_set1_pd(v) })
        }

        #[inline(always)]
        fn add(self, o: Self) -> Self {
            Avx512(unsafe { _mm512_add_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            Avx512(unsafe { _mm512_sub_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            Avx512(unsafe { _mm512_mul_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn div(self, o: Self) -> Self {
            Avx512(unsafe { _mm512_div_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn sqrt(self) -> Self {
            Avx512(unsafe { _mm512_sqrt_pd(self.0) })
        }

        #[inline(always)]
        fn trunc(self) -> Self {
            Avx512(unsafe { _mm512_cvtepi32_pd(_mm512_cvttpd_epi32(self.0)) })
        }

        #[inline(always)]
        fn zero_where_zero(self, r2: Self) -> Self {
            unsafe {
                let zero = _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(r2.0, _mm512_setzero_pd());
                Avx512(_mm512_maskz_mov_pd(!zero, self.0))
            }
        }

        #[inline(always)]
        fn all_in_range(self, hi: f64) -> bool {
            unsafe {
                let ge = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(self.0, _mm512_setzero_pd());
                let lt = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(self.0, _mm512_set1_pd(hi));
                ge & lt == 0xff
            }
        }

        #[inline(always)]
        fn all_eq(self, o: Self) -> bool {
            unsafe { _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(self.0, o.0) == 0xff }
        }
    }

    impl OwnerLanes for Avx512 {
        type Index = __m256i;

        #[inline(always)]
        fn clamp_cell(self, last: Self) -> Self {
            // `max` answers its second operand when either is NaN.
            unsafe {
                Avx512(_mm512_min_pd(
                    _mm512_max_pd(self.0, _mm512_setzero_pd()),
                    last.0,
                ))
            }
        }

        #[inline(always)]
        fn within(self, lo: Self, hi: Self) -> u64 {
            unsafe {
                let ge = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(self.0, lo.0);
                (ge & _mm512_cmp_pd_mask::<_CMP_LT_OQ>(self.0, hi.0)) as u64
            }
        }

        #[inline(always)]
        fn index(self) -> __m256i {
            unsafe { _mm512_cvttpd_epu32(self.0) }
        }

        #[inline(always)]
        unsafe fn gather(tab: *const u32, i: __m256i) -> __m256i {
            _mm512_i64gather_epi32::<4>(_mm512_cvtepu32_epi64(i), tab.cast())
        }

        #[inline(always)]
        fn add_index(a: __m256i, b: __m256i) -> __m256i {
            unsafe { _mm256_add_epi32(a, b) }
        }

        #[inline(always)]
        fn index_eq(i: __m256i, v: u32) -> u64 {
            unsafe {
                let eq = _mm256_cmpeq_epi32(i, _mm256_set1_epi32(v as i32));
                _mm256_movemask_ps(_mm256_castsi256_ps(eq)) as u64
            }
        }

        #[inline(always)]
        unsafe fn store_index(i: __m256i, out: *mut u32) {
            _mm256_storeu_si256(out.cast(), i)
        }
    }

    /// 4 × f64 in one ymm register.
    #[derive(Clone, Copy)]
    pub struct Avx2(__m256d);

    impl Lanes for Avx2 {
        const WIDTH: usize = 4;

        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            Avx2(_mm256_loadu_pd(p))
        }

        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm256_storeu_pd(p, self.0)
        }

        #[inline(always)]
        fn splat(v: f64) -> Self {
            Avx2(unsafe { _mm256_set1_pd(v) })
        }

        #[inline(always)]
        fn add(self, o: Self) -> Self {
            Avx2(unsafe { _mm256_add_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            Avx2(unsafe { _mm256_sub_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            Avx2(unsafe { _mm256_mul_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn div(self, o: Self) -> Self {
            Avx2(unsafe { _mm256_div_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn sqrt(self) -> Self {
            Avx2(unsafe { _mm256_sqrt_pd(self.0) })
        }

        #[inline(always)]
        fn trunc(self) -> Self {
            Avx2(unsafe { _mm256_cvtepi32_pd(_mm256_cvttpd_epi32(self.0)) })
        }

        #[inline(always)]
        fn zero_where_zero(self, r2: Self) -> Self {
            unsafe {
                let zero_mask = _mm256_cmp_pd::<_CMP_EQ_OQ>(r2.0, _mm256_setzero_pd());
                Avx2(_mm256_andnot_pd(zero_mask, self.0))
            }
        }

        #[inline(always)]
        fn all_in_range(self, hi: f64) -> bool {
            unsafe {
                let ge = _mm256_cmp_pd::<_CMP_GE_OQ>(self.0, _mm256_setzero_pd());
                let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(self.0, _mm256_set1_pd(hi));
                _mm256_movemask_pd(_mm256_and_pd(ge, lt)) == 0b1111
            }
        }

        #[inline(always)]
        fn all_eq(self, o: Self) -> bool {
            unsafe { _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(self.0, o.0)) == 0b1111 }
        }
    }

    impl OwnerLanes for Avx2 {
        type Index = __m128i;

        #[inline(always)]
        fn clamp_cell(self, last: Self) -> Self {
            // `max` answers its second operand when either is NaN.
            unsafe {
                Avx2(_mm256_min_pd(
                    _mm256_max_pd(self.0, _mm256_setzero_pd()),
                    last.0,
                ))
            }
        }

        #[inline(always)]
        fn within(self, lo: Self, hi: Self) -> u64 {
            unsafe {
                let ge = _mm256_cmp_pd::<_CMP_GE_OQ>(self.0, lo.0);
                let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(self.0, hi.0);
                _mm256_movemask_pd(_mm256_and_pd(ge, lt)) as u64
            }
        }

        #[inline(always)]
        fn index(self) -> __m128i {
            unsafe { _mm256_cvttpd_epi32(self.0) }
        }

        #[inline(always)]
        unsafe fn gather(tab: *const u32, i: __m128i) -> __m128i {
            _mm256_i64gather_epi32::<4>(tab.cast(), _mm256_cvtepu32_epi64(i))
        }

        #[inline(always)]
        fn add_index(a: __m128i, b: __m128i) -> __m128i {
            unsafe { _mm_add_epi32(a, b) }
        }

        #[inline(always)]
        fn index_eq(i: __m128i, v: u32) -> u64 {
            unsafe {
                let eq = _mm_cmpeq_epi32(i, _mm_set1_epi32(v as i32));
                _mm_movemask_ps(_mm_castsi128_ps(eq)) as u64
            }
        }

        #[inline(always)]
        unsafe fn store_index(i: __m128i, out: *mut u32) {
            _mm_storeu_si128(out.cast(), i)
        }
    }

    /// 4 × f64 in two xmm registers (x86-64 baseline: no detection needed).
    #[derive(Clone, Copy)]
    pub struct Sse2(__m128d, __m128d);

    impl Lanes for Sse2 {
        const WIDTH: usize = 4;

        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            Sse2(_mm_loadu_pd(p), _mm_loadu_pd(p.add(2)))
        }

        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm_storeu_pd(p, self.0);
            _mm_storeu_pd(p.add(2), self.1);
        }

        #[inline(always)]
        fn splat(v: f64) -> Self {
            unsafe { Sse2(_mm_set1_pd(v), _mm_set1_pd(v)) }
        }

        #[inline(always)]
        fn add(self, o: Self) -> Self {
            unsafe { Sse2(_mm_add_pd(self.0, o.0), _mm_add_pd(self.1, o.1)) }
        }

        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            unsafe { Sse2(_mm_sub_pd(self.0, o.0), _mm_sub_pd(self.1, o.1)) }
        }

        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            unsafe { Sse2(_mm_mul_pd(self.0, o.0), _mm_mul_pd(self.1, o.1)) }
        }

        #[inline(always)]
        fn div(self, o: Self) -> Self {
            unsafe { Sse2(_mm_div_pd(self.0, o.0), _mm_div_pd(self.1, o.1)) }
        }

        #[inline(always)]
        fn sqrt(self) -> Self {
            unsafe { Sse2(_mm_sqrt_pd(self.0), _mm_sqrt_pd(self.1)) }
        }

        #[inline(always)]
        fn trunc(self) -> Self {
            unsafe {
                Sse2(
                    _mm_cvtepi32_pd(_mm_cvttpd_epi32(self.0)),
                    _mm_cvtepi32_pd(_mm_cvttpd_epi32(self.1)),
                )
            }
        }

        #[inline(always)]
        fn zero_where_zero(self, r2: Self) -> Self {
            unsafe {
                let z = _mm_setzero_pd();
                Sse2(
                    _mm_andnot_pd(_mm_cmpeq_pd(r2.0, z), self.0),
                    _mm_andnot_pd(_mm_cmpeq_pd(r2.1, z), self.1),
                )
            }
        }

        #[inline(always)]
        fn all_in_range(self, hi: f64) -> bool {
            unsafe {
                let z = _mm_setzero_pd();
                let h = _mm_set1_pd(hi);
                let lo = _mm_and_pd(_mm_cmpge_pd(self.0, z), _mm_cmplt_pd(self.0, h));
                let hi_half = _mm_and_pd(_mm_cmpge_pd(self.1, z), _mm_cmplt_pd(self.1, h));
                _mm_movemask_pd(lo) == 0b11 && _mm_movemask_pd(hi_half) == 0b11
            }
        }

        #[inline(always)]
        fn all_eq(self, o: Self) -> bool {
            unsafe {
                let eq = _mm_and_pd(_mm_cmpeq_pd(self.0, o.0), _mm_cmpeq_pd(self.1, o.1));
                _mm_movemask_pd(eq) == 0b11
            }
        }
    }
}

/// One lane: the `Scalar` backend, and the `len mod WIDTH` tail of every
/// vector call. Each op is the scalar instruction itself; the truncation
/// is [`Grid::cell_of`]'s narrow cast, exact over the whole domain.
impl Lanes for f64 {
    const WIDTH: usize = 1;

    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        *p
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        *p = self
    }

    #[inline(always)]
    fn splat(v: f64) -> Self {
        v
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self + o
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self - o
    }

    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        self * o
    }

    #[inline(always)]
    fn div(self, o: Self) -> Self {
        self / o
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }

    #[inline(always)]
    fn trunc(self) -> Self {
        self as u32 as f64
    }

    #[inline(always)]
    fn zero_where_zero(self, r2: Self) -> Self {
        if r2 == 0.0 {
            0.0
        } else {
            self
        }
    }

    #[inline(always)]
    fn all_in_range(self, hi: f64) -> bool {
        (0.0..hi).contains(&self)
    }

    #[inline(always)]
    fn all_eq(self, o: Self) -> bool {
        self == o
    }
}

impl OwnerLanes for f64 {
    type Index = u32;

    #[inline(always)]
    fn clamp_cell(self, last: Self) -> Self {
        // `max` answers the number when either operand is NaN.
        self.max(0.0).min(last)
    }

    #[inline(always)]
    fn within(self, lo: Self, hi: Self) -> u64 {
        u64::from(lo <= self && self < hi)
    }

    #[inline(always)]
    fn index(self) -> u32 {
        self as u32
    }

    #[inline(always)]
    unsafe fn gather(tab: *const u32, i: u32) -> u32 {
        *tab.add(i as usize)
    }

    #[inline(always)]
    fn add_index(a: u32, b: u32) -> u32 {
        a.wrapping_add(b)
    }

    #[inline(always)]
    fn index_eq(i: u32, v: u32) -> u64 {
        u64::from(i == v)
    }

    #[inline(always)]
    unsafe fn store_index(i: u32, out: *mut u32) {
        *out = i
    }
}

/// Force-and-integrate over `groups` groups starting at the span base —
/// eqs. 1–2 lane per particle, the four corner evaluations in the
/// oracle's pairing and summation order ([`group_force`]). The corner
/// charges `q_left` and `−q_left` are hoisted: every particle of a span
/// shares one column parity (the store's phase contract, [`crate::bin`]),
/// so both splat once outside the loop.
///
/// **The force fold.** A group whose lanes all sit exactly at the cell
/// centre on both axes ([`mid_cell_lanes`], tested on the `rx`, `ry`,
/// `rxh`, `ryh` the kernel itself computed) has `rx = ry = h/2` in every
/// lane; if every lane's charge also equals the charge of the call's first
/// particle (the span charge, tested on the loaded `q` lanes), every lane
/// feels one force. [`group_force`] evaluates it once per call, on splatted
/// centre operands `(h/2, h/2, h/2 − h)` and the span charge, and
/// [`Kick`] turns it into the four constants `½·ax·dt`, `½·ay·dt`, `ax·dt`,
/// `ay·dt`; such a group runs only the integration adds and multiplies and
/// the wrap. The constants are the loop's own operations on the same bits,
/// so the result is bit-identical by construction (DESIGN.md §10).
/// `Lanes::all_eq` is exact bit equality only for a non-zero, non-NaN span
/// charge (`−0.0 == +0.0`), so a span whose first charge is `±0.0` or NaN
/// never force-folds.
///
/// Any other group runs [`group_force`] itself, with the corner folds that
/// hold — as a whole, on the axes where all its lanes are centred. At one
/// lane (span tails, the `Scalar` backend) a group is one particle, and
/// the folds apply to it alone.
///
/// # Safety
/// The pointers must each be valid for `groups * V::WIDTH` elements and
/// the x/y/vx/vy regions must be disjoint (they are distinct SoA columns).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn force_groups<V: Lanes>(
    consts: &SimConstants,
    q_left: f64,
    x: *mut f64,
    y: *mut f64,
    vx: *mut f64,
    vy: *mut f64,
    q: *const f64,
    groups: usize,
) {
    if groups == 0 {
        return;
    }
    let dt = V::splat(consts.dt);
    let h = V::splat(consts.h);
    let (ql, qr) = (V::splat(q_left), V::splat(-q_left));
    // A NaN span charge fails every `all_eq`, so a `±0.0` one folds nothing.
    let q_span = V::splat(if *q == 0.0 { f64::NAN } else { *q });
    let folded = centre_kick(consts, ql, qr, q_span);
    for g in 0..groups {
        let o = g * V::WIDTH;
        let xi = V::load(x.add(o));
        let yi = V::load(y.add(o));
        // `cell_of` minus the defensive clamp: wrapped coordinates lie in
        // [0, L), where truncation alone yields the identical column/row
        // index.
        let col = xi.trunc();
        let row = yi.trunc();
        let rx = xi.sub(col);
        let ry = yi.sub(row);
        let (rxh, ryh) = (rx.sub(h), ry.sub(h));
        let r = [rx, ry, rxh, ryh];
        let qp = V::load(q.add(o));
        let mid_height = mid_cell_lanes(ry, ryh);
        let mid_width = mid_cell_lanes(rx, rxh);
        let kick = if mid_height && mid_width && qp.all_eq(q_span) {
            debug_assert_force_fold(folded, r, [ql, qr, qp], dt);
            folded
        } else {
            Kick::of(group_force(r, [ql, qr, qp], [mid_height, mid_width]), dt)
        };
        let vxi = V::load(vx.add(o));
        let vyi = V::load(vy.add(o));
        // x += (vx + 0.5·ax·dt)·dt — same association as the oracle.
        xi.add(vxi.add(kick.x).mul(dt)).store(x.add(o));
        yi.add(vyi.add(kick.y).mul(dt)).store(y.add(o));
        vxi.add(kick.vx).store(vx.add(o));
        vyi.add(kick.vy).store(vy.add(o));
    }
}

/// What one step's acceleration `(ax, ay)` adds per lane: `½·a·dt` to the
/// velocity that moves the position, `a·dt` to the velocity itself — the
/// oracle's `(0.5·a)·dt` and `a·dt`, in its association.
#[derive(Clone, Copy)]
struct Kick<V> {
    x: V,
    y: V,
    vx: V,
    vy: V,
}

impl<V: Lanes> Kick<V> {
    #[inline(always)]
    fn of((ax, ay): (V, V), dt: V) -> Self {
        let half = V::splat(0.5);
        Kick {
            x: half.mul(ax).mul(dt),
            y: half.mul(ay).mul(dt),
            vx: ax.mul(dt),
            vy: ay.mul(dt),
        }
    }

    #[inline(always)]
    fn lanes(self) -> [[f64; 8]; 4] {
        [self.x, self.y, self.vx, self.vy].map(lanes_of)
    }
}

/// The force fold's constants: [`group_force`] at the exact cell centre,
/// `r = (h/2, h/2, h/2 − h, h/2 − h)` in every lane (`h/2` is `h·0.5`:
/// where that rounds, no lane can pass the premise), with both corner
/// folds and the span charge, turned into a [`Kick`].
#[inline(always)]
fn centre_kick<V: Lanes>(consts: &SimConstants, ql: V, qr: V, q_span: V) -> Kick<V> {
    let (c, h) = (V::splat(consts.h * 0.5), V::splat(consts.h));
    let r = [c, c, c.sub(h), c.sub(h)];
    Kick::of(
        group_force(r, [ql, qr, q_span], [true, true]),
        V::splat(consts.dt),
    )
}

/// The force on one group, `r = [rx, ry, rxh, ryh]` the displacements from
/// the bottom-left and top-right corners, `[q_left, q_right, q_p]` the
/// charges: the four corner `f/r` times their displacements, in the
/// oracle's pairing `(f0 + f1) + (f2 + f3)`.
///
/// **The corner folds.** The four corner forces on a particle at the cell
/// centre are pairwise mirror images, so `f/r` — the `sqrt` and the `div`
/// — is evaluated once per mirror pair on whichever axes `folds =
/// [mid_height, mid_width]` claims every lane sits exactly at the centre.
/// At mid-height the top corner of each column has the bottom corner's
/// `r²` bit for bit, so it reuses that `f/r`. At mid-width the right column
/// has the left column's `r²` and the negated charge, so it takes the left
/// column's `f/r` times `−1`. Every multiply and add downstream still runs,
/// on identical operands, so the result is bit-identical by construction
/// (DESIGN.md §10).
#[inline(always)]
fn group_force<V: Lanes>(
    r: [V; 4],
    [ql, qr, qp]: [V; 3],
    [mid_height, mid_width]: [bool; 2],
) -> (V, V) {
    let [rx, ry, rxh, ryh] = r;
    let f0 = f_over_r_lanes(rx, ry, ql, qp); // bottom-left
    let f1 = if mid_height {
        debug_assert_same_r2("top", [[(rx, ry), (rx, ryh)], [(rxh, ry), (rxh, ryh)]]);
        f0
    } else {
        f_over_r_lanes(rx, ryh, ql, qp) // top-left
    };
    let (f2, f3) = if mid_width {
        debug_assert_same_r2("right", [[(rx, ry), (rxh, ry)], [(rx, ryh), (rxh, ryh)]]);
        // `qr = −ql` and `×`, `÷` are sign-symmetric. Negating by a
        // multiply keeps the sign of a zero `f/r` (`0 − f` would not).
        let neg = V::splat(-1.0);
        (f0.mul(neg), f1.mul(neg))
    } else {
        let f2 = f_over_r_lanes(rxh, ry, qr, qp); // bottom-right
        let f3 = if mid_height {
            f2
        } else {
            f_over_r_lanes(rxh, ryh, qr, qp) // top-right
        };
        (f2, f3)
    };
    let ax = (f0.mul(rx).add(f1.mul(rx))).add(f2.mul(rxh).add(f3.mul(rxh)));
    let ay = (f0.mul(ry).add(f1.mul(ryh))).add(f2.mul(ry).add(f3.mul(ryh)));
    (ax, ay)
}

/// Debug builds check a fold's claim on every folded group: in each pair
/// `[kept, reused]` of corner displacements `(dx, dy)`, the `r²` of the
/// corner whose `f/r` is not evaluated carries the bits of the `r²` whose
/// `f/r` it takes (a NaN lane makes both NaN, which also agrees).
#[inline(always)]
fn debug_assert_same_r2<V: Lanes>(corner: &str, pairs: [[(V, V); 2]; 2]) {
    if !cfg!(debug_assertions) {
        return;
    }
    for [kept, reused] in pairs {
        let (a, b) = (r2_lanes(kept), r2_lanes(reused));
        for (a, b) in a.iter().zip(&b).take(V::WIDTH) {
            assert!(
                same_bits(*a, *b),
                "corner fold: {corner} r² {b:e} is not the reused r² {a:e}"
            );
        }
    }
}

/// Debug builds check the force fold's claim on every force-folded group:
/// the unfolded evaluation of the loaded lanes — four corner `f/r`, no
/// fold — gives the constants' bits in every lane.
#[inline(always)]
fn debug_assert_force_fold<V: Lanes>(folded: Kick<V>, r: [V; 4], q: [V; 3], dt: V) {
    if !cfg!(debug_assertions) {
        return;
    }
    let unfolded = Kick::of(group_force(r, q, [false, false]), dt);
    for (name, (a, b)) in ["x", "y", "vx", "vy"]
        .iter()
        .zip(folded.lanes().into_iter().zip(unfolded.lanes()))
    {
        for (a, b) in a.iter().zip(&b).take(V::WIDTH) {
            assert!(
                same_bits(*a, *b),
                "force fold: the {name} kick {b:e} is not the constant {a:e}"
            );
        }
    }
}

/// Equal bits, or both NaN.
fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// `dx·dx + dy·dy` per lane, as the kernel computes it, for the debug
/// checks (the first `V::WIDTH` entries).
#[inline(always)]
fn r2_lanes<V: Lanes>((dx, dy): (V, V)) -> [f64; 8] {
    lanes_of(dx.mul(dx).add(dy.mul(dy)))
}

/// The lanes of `v` (the first `V::WIDTH` entries), for the debug checks.
#[inline(always)]
fn lanes_of<V: Lanes>(v: V) -> [f64; 8] {
    let mut out = [0.0; 8];
    // SAFETY: the array holds the widest backend's eight lanes.
    unsafe { v.store(out.as_mut_ptr()) };
    out
}

/// Periodic wrap over `groups` groups: a vector range test selects the
/// (overwhelmingly common) all-in-domain fast path; any group with an
/// escaped lane goes through the exact scalar [`Grid::wrap_coord`], so the
/// pass is bit-identical to the oracle's wrap by construction.
///
/// # Safety
/// `c` must be valid for `groups * V::WIDTH` elements.
#[inline(always)]
unsafe fn wrap_groups<V: Lanes>(grid: &Grid, c: *mut f64, groups: usize) {
    let l = grid.extent();
    for g in 0..groups {
        let p = c.add(g * V::WIDTH);
        if V::load(p).all_in_range(l) {
            continue;
        }
        for k in 0..V::WIDTH {
            *p.add(k) = grid.wrap_coord(*p.add(k));
        }
    }
}

/// The span kernel at the width of `V`: the whole groups of the span
/// through [`force_groups`], then the wrap pass (vector fast-path test,
/// scalar wrap for escaped lanes). Returns how many particles it advanced,
/// `len − len mod WIDTH`; [`advance_bin_span_simd`] runs the rest through
/// this body at one lane.
///
/// # Safety
/// Vector ops of `V` must be executable on the current CPU; the caller
/// guarantees this via [`SimdBackend`] dispatch.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn advance_span_lanes<V: Lanes>(
    grid: &Grid,
    consts: &SimConstants,
    q_left: f64,
    x: &mut [f64],
    y: &mut [f64],
    vx: &mut [f64],
    vy: &mut [f64],
    q: &[f64],
) -> usize {
    let groups = x.len() / V::WIDTH;
    let n = groups * V::WIDTH;
    // Per-particle invariant checks, hoisted out of the loop (debug
    // builds only).
    #[cfg(debug_assertions)]
    for i in 0..n {
        let (col, row) = grid.cell_of_point(x[i], y[i]);
        debug_assert_eq!((col, row), (x[i] as usize, y[i] as usize));
        debug_assert_eq!(
            crate::charge::mesh_charge(col, consts.q),
            q_left,
            "parity drift at x={}",
            x[i]
        );
    }
    force_groups::<V>(
        consts,
        q_left,
        x.as_mut_ptr(),
        y.as_mut_ptr(),
        vx.as_mut_ptr(),
        vy.as_mut_ptr(),
        q.as_ptr(),
        groups,
    );
    wrap_groups::<V>(grid, x.as_mut_ptr(), groups);
    wrap_groups::<V>(grid, y.as_mut_ptr(), groups);
    n
}

/// AVX2 instantiation. `#[target_feature]` licenses 256-bit codegen for
/// everything inlined beneath it — but not FMA contraction, which stays
/// disabled to preserve bit-identity.
///
/// # Safety
/// The CPU must support AVX2 (guaranteed by [`SimdBackend::detect`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn advance_span_avx2(
    grid: &Grid,
    consts: &SimConstants,
    q_left: f64,
    x: &mut [f64],
    y: &mut [f64],
    vx: &mut [f64],
    vy: &mut [f64],
    q: &[f64],
) -> usize {
    advance_span_lanes::<x86::Avx2>(grid, consts, q_left, x, y, vx, vy, q)
}

/// AVX-512 instantiation: 8 lanes per group, still
/// bit-identical (per-lane ops only; no FMA, no reassociation).
///
/// # Safety
/// The CPU must support AVX-512F (guaranteed by [`SimdBackend::detect`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn advance_span_avx512(
    grid: &Grid,
    consts: &SimConstants,
    q_left: f64,
    x: &mut [f64],
    y: &mut [f64],
    vx: &mut [f64],
    vy: &mut [f64],
    q: &[f64],
) -> usize {
    advance_span_lanes::<x86::Avx512>(grid, consts, q_left, x, y, vx, vy, q)
}

/// Advance one span with the selected backend: its whole groups at the
/// backend's width, the rest (all of it on `Scalar`) through the same body
/// at one lane — bit-identical to the AoS oracle on every backend, for a
/// span whose particles all sit in columns of `q_left`'s parity.
#[allow(clippy::too_many_arguments)]
pub(crate) fn advance_bin_span_simd(
    backend: SimdBackend,
    grid: &Grid,
    consts: &SimConstants,
    q_left: f64,
    x: &mut [f64],
    y: &mut [f64],
    vx: &mut [f64],
    vy: &mut [f64],
    q: &[f64],
) {
    let n = x.len();
    debug_assert!(y.len() == n && vx.len() == n && vy.len() == n && q.len() == n);
    // SAFETY: a vector backend is only ever one the CPU was detected to
    // run (`SimdBackend::detect` / `available`; SSE2 is unconditionally
    // present on x86-64), and one lane needs no extension at all.
    unsafe {
        let done = match backend {
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx512 => advance_span_avx512(grid, consts, q_left, x, y, vx, vy, q),
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => advance_span_avx2(grid, consts, q_left, x, y, vx, vy, q),
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Sse2 => {
                advance_span_lanes::<x86::Sse2>(grid, consts, q_left, x, y, vx, vy, q)
            }
            SimdBackend::Scalar => 0,
        };
        advance_span_lanes::<f64>(
            grid,
            consts,
            q_left,
            &mut x[done..],
            &mut y[done..],
            &mut vx[done..],
            &mut vy[done..],
            &q[done..],
        );
    }
}

/// The unit `col[c] + row[r]` of each lane's cell, for one group.
///
/// # Safety
/// `x` and `y` must be valid for `V::WIDTH` reads, and `t` must span the
/// grid whose last cell index `last` is (`OwnerTable::count_into` and the
/// map's classifier assert it).
#[inline(always)]
unsafe fn cell_index<V: OwnerLanes>(
    t: &OwnerTable,
    last: V,
    x: *const f64,
    y: *const f64,
) -> V::Index {
    let (col, row, _) = t.tables();
    let c = V::load(x).clamp_cell(last).index();
    let r = V::load(y).clamp_cell(last).index();
    // SAFETY: `c` and `r` are at most `last`, and a table spanning the
    // grid has a side's worth of cells in both `col` and `row`.
    V::add_index(V::gather(col.as_ptr(), c), V::gather(row.as_ptr(), r))
}

/// The owner classifier at the width of `V`, over the whole groups of
/// `x`/`y`: sets bit `j % 64` of `leave[j / 64]`, `j = from + i`, for each
/// lane `i` that leaves. Returns how many lanes it classified; `from` is
/// where `x` starts in the span `leave` covers, a multiple of `WIDTH`.
///
/// # Safety
/// Vector ops of `V` must be executable on the current CPU, and a
/// [`OwnerMap::Cells`] table must span `grid`.
#[inline(always)]
unsafe fn owner_leavers_lanes<V: OwnerLanes>(
    grid: &Grid,
    map: &OwnerMap,
    x: &[f64],
    y: &[f64],
    leave: &mut [u64],
    from: usize,
) -> usize {
    let groups = x.len() / V::WIDTH;
    let last = V::splat((grid.ncells() - 1) as f64);
    let (xp, yp) = (x.as_ptr(), y.as_ptr());
    let lanes = u64::MAX >> (64 - V::WIDTH);
    // `WIDTH` divides 64, so a group's lanes share one word.
    let mut put = |o: usize, keep: u64| {
        let j = from + o;
        leave[j / 64] |= (!keep & lanes) << (j % 64)
    };
    match map {
        OwnerMap::Columns { lo, hi } => {
            let (lo, hi) = (V::splat(*lo as f64), V::splat(*hi as f64));
            for o in (0..groups).map(|g| g * V::WIDTH) {
                // SAFETY: whole groups lie inside `x`.
                put(o, V::load(xp.add(o)).clamp_cell(last).within(lo, hi));
            }
        }
        OwnerMap::Cells { table, me } => {
            let (_, _, core) = table.tables();
            for o in (0..groups).map(|g| g * V::WIDTH) {
                // SAFETY: whole groups lie inside `x` and `y` (equal
                // lengths, asserted by the caller).
                let i = cell_index::<V>(table, last, xp.add(o), yp.add(o));
                // SAFETY: every `col[c] + row[r]` of a table indexes its
                // `core` (`OwnerTable` builds it so).
                put(o, V::index_eq(V::gather(core.as_ptr(), i), *me));
            }
        }
    }
    groups * V::WIDTH
}

/// `counts[col[c] + row[r]] += 1` for each point's cell, over the whole
/// groups of `x`/`y` at the width of `V`. Returns how many points it
/// counted.
///
/// # Safety
/// Vector ops of `V` must be executable on the current CPU, and `t` must
/// span `grid`.
#[inline(always)]
unsafe fn count_cells_lanes<V: OwnerLanes>(
    grid: &Grid,
    t: &OwnerTable,
    x: &[f64],
    y: &[f64],
    counts: &mut [u64],
) -> usize {
    let groups = x.len() / V::WIDTH;
    let last = V::splat((grid.ncells() - 1) as f64);
    let mut idx = [0u32; 8];
    for o in (0..groups).map(|g| g * V::WIDTH) {
        let i = cell_index::<V>(t, last, x.as_ptr().add(o), y.as_ptr().add(o));
        V::store_index(i, idx.as_mut_ptr());
        for &i in &idx[..V::WIDTH] {
            counts[i as usize] += 1;
        }
    }
    groups * V::WIDTH
}

/// AVX-512 instantiations of the owner classifier and the cell count.
///
/// # Safety
/// The CPU must support AVX-512F (guaranteed by [`SimdBackend::detect`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn owner_leavers_avx512(
    grid: &Grid,
    map: &OwnerMap,
    x: &[f64],
    y: &[f64],
    leave: &mut [u64],
) -> usize {
    owner_leavers_lanes::<x86::Avx512>(grid, map, x, y, leave, 0)
}

/// See [`owner_leavers_avx512`].
///
/// # Safety
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn count_cells_avx512(
    grid: &Grid,
    t: &OwnerTable,
    x: &[f64],
    y: &[f64],
    c: &mut [u64],
) -> usize {
    count_cells_lanes::<x86::Avx512>(grid, t, x, y, c)
}

/// AVX2 instantiations of the owner classifier and the cell count.
///
/// # Safety
/// The CPU must support AVX2 (guaranteed by [`SimdBackend::detect`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn owner_leavers_avx2(
    grid: &Grid,
    map: &OwnerMap,
    x: &[f64],
    y: &[f64],
    leave: &mut [u64],
) -> usize {
    owner_leavers_lanes::<x86::Avx2>(grid, map, x, y, leave, 0)
}

/// See [`owner_leavers_avx2`].
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn count_cells_avx2(
    grid: &Grid,
    t: &OwnerTable,
    x: &[f64],
    y: &[f64],
    c: &mut [u64],
) -> usize {
    count_cells_lanes::<x86::Avx2>(grid, t, x, y, c)
}

/// Classify `x`/`y` against `map` with the selected backend: the whole
/// groups on a backend with a gather (AVX-512, AVX2), the rest (all of it
/// on SSE2 and `Scalar`) through the same body at one lane.
pub(crate) fn owner_leavers(
    backend: SimdBackend,
    grid: &Grid,
    map: &OwnerMap,
    x: &[f64],
    y: &[f64],
    leave: &mut [u64],
) {
    // SAFETY: a vector backend is only ever one the CPU was detected to
    // run (`SimdBackend::detect` / `available`); the map's
    // `Classifier::leavers` asserted equal lengths and the table's span.
    unsafe {
        let done = match backend {
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx512 => owner_leavers_avx512(grid, map, x, y, leave),
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => owner_leavers_avx2(grid, map, x, y, leave),
            _ => 0,
        };
        owner_leavers_lanes::<f64>(grid, map, &x[done..], &y[done..], leave, done);
    }
}

/// Count the points per unit with the selected backend
/// ([`OwnerTable::count_into`]), split as in [`owner_leavers`].
pub(crate) fn count_cells(
    backend: SimdBackend,
    grid: &Grid,
    t: &OwnerTable,
    x: &[f64],
    y: &[f64],
    counts: &mut [u64],
) {
    // SAFETY: as in `owner_leavers`; `OwnerTable::count_into` asserted
    // equal `x` and `y` lengths and a table spanning `grid`.
    unsafe {
        let done = match backend {
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx512 => count_cells_avx512(grid, t, x, y, counts),
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => count_cells_avx2(grid, t, x, y, counts),
            _ => 0,
        };
        count_cells_lanes::<f64>(grid, t, &x[done..], &y[done..], counts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charge::{mesh_charge, particle_charge, sign_for_direction};
    use crate::particle::Particle;
    use crate::soa::ParticleBatch;

    /// `n` spec-conforming particles, all in cell column `col` (distinct
    /// rows, jittered x within the column so corner distances differ).
    fn column_population(grid: &Grid, col: usize, n: usize, k: u32) -> ParticleBatch {
        let consts = SimConstants::CANONICAL;
        let mut b = ParticleBatch::new();
        for i in 0..n {
            let row = i % grid.ncells();
            let x = col as f64 + 0.5;
            let y = row as f64 + 0.5;
            b.push(Particle {
                id: i as u64 + 1,
                x,
                y,
                vx: 0.0,
                vy: 1.0,
                q: particle_charge(&consts, 0.5, k, sign_for_direction(col, 1)),
                x0: x,
                y0: y,
                k,
                m: 1,
                born_at: 0,
            });
        }
        b
    }

    /// Every available backend advances each particle bit for bit as
    /// [`crate::motion::advance_particle`] does, for every span length
    /// 0..=16 (the empty span, every remainder tail of both the 4-lane and
    /// the 8-lane group widths, and full groups plus each tail) and two
    /// larger spans, over steps where the particles wrap the boundary.
    #[test]
    fn every_backend_matches_advance_particle_at_every_tail_length() {
        use crate::motion::advance_particle;
        let grid = Grid::new(8).unwrap();
        let consts = SimConstants::CANONICAL;
        for backend in SimdBackend::available() {
            for len in (0..=16).chain([17, 37]) {
                // Column 6 with stride 1: wraps off the right edge within
                // a few steps, exercising the escaped-lane wrap path.
                let mut b = column_population(&grid, 6, len, 0);
                let mut want = b.to_particles();
                for step in 0..5 {
                    want.iter_mut()
                        .for_each(|p| advance_particle(&grid, &consts, p));
                    let ql =
                        b.x.first()
                            .map_or(1.0, |&x| mesh_charge(x as usize, consts.q));
                    let (x, y, vx, vy) = (&mut b.x[..], &mut b.y[..], &mut b.vx[..], &mut b.vy[..]);
                    advance_bin_span_simd(backend, &grid, &consts, ql, x, y, vx, vy, &b.q);
                    assert_eq!(
                        b.to_particles(),
                        want,
                        "backend {} span length {len} step {step}",
                        backend.name()
                    );
                }
            }
        }
    }

    /// The widest grid [`Grid::new`] accepts: a span in column 2³¹ − 3,
    /// the top of the range every backend's `i32` truncation covers,
    /// advances one step as [`crate::motion::advance_particle`] does —
    /// with stride 1, and with stride 3, which wraps it past the last
    /// column to 0.
    #[test]
    fn every_backend_matches_advance_particle_on_the_widest_grid() {
        use crate::motion::advance_particle;
        let grid = Grid::new(1 << 31).unwrap();
        let consts = SimConstants::CANONICAL;
        let col = (1 << 31) - 3;
        for backend in SimdBackend::available() {
            for k in [0, 1] {
                let mut b = column_population(&grid, col, 9, k);
                let mut want = b.to_particles();
                want.iter_mut()
                    .for_each(|p| advance_particle(&grid, &consts, p));
                let ql = mesh_charge(col, consts.q);
                let (x, y, vx, vy) = (&mut b.x[..], &mut b.y[..], &mut b.vx[..], &mut b.vy[..]);
                advance_bin_span_simd(backend, &grid, &consts, ql, x, y, vx, vy, &b.q);
                assert_eq!(b.to_particles(), want, "backend {} k {k}", backend.name());
            }
        }
    }

    /// How the corner-fold test perturbs one lane per group: off the cell
    /// centre, or off the span charge (`None`: every lane stays
    /// spec-conforming, and every full group takes the force fold).
    #[derive(Debug, Clone, Copy)]
    enum OffCentre {
        /// `ry` = this fraction of the cell.
        Y(f64),
        /// `rx` = this fraction of the cell.
        X(f64),
        /// `rx` = this fraction of the cell, and `ry` in a neighbour lane.
        Xy(f64),
        /// `y = NaN` (release builds only: the kernel's and the reference's
        /// debug range checks reject NaN before any arithmetic).
        NanY,
        /// `x = NaN` (release builds only).
        NanX,
        /// Every lane centred, one with charge `−0.0` and `vx = −0.0`: both
        /// corner folds fire on a signed-zero `f/r`.
        ZeroCharge,
        /// Every lane centred, one with the opposite-sign charge, as an
        /// injection on an odd step leaves in a phase half: the group takes
        /// both corner folds, not the force fold.
        OppositeCharge,
        /// Every lane centred and uncharged: the span charge `+0.0`, one
        /// lane `−0.0` with `vx = −0.0`, which `all_eq` cannot tell apart —
        /// so the span must not force-fold.
        SignedZeroSpan,
    }

    /// The corner fold never changes a bit: for every backend, span length
    /// (empty, every tail of both group widths, two groups plus one),
    /// column pattern, vertical stride `m` (rows wrap in both directions,
    /// the column-7 lanes wrap in x) and off-centre variant, the span
    /// kernel equals the **unfolded** scalar reference — `total_force` and
    /// the eqs. 1–2 integration of [`crate::motion::advance_particle`] —
    /// per particle, bitwise. Groups whose lanes all sit at the cell
    /// centre with the span charge take the force fold; one lane of the
    /// opposite charge (or `−0.0` against a `+0.0` span charge) sends its
    /// group to both corner folds; one lane at `0.5 ± 1 ulp`, `0.25`, on a
    /// mesh line (`0.0`) or NaN along one axis must send its whole group
    /// down that axis's unfolded path (along both, when the group is off
    /// on both) while its neighbours' results stay untouched.
    #[test]
    fn corner_fold_bitwise_matches_unfolded_reference() {
        use crate::motion::advance_particle;
        let grid = Grid::new(8).unwrap();
        let consts = SimConstants::CANONICAL;
        let off = [0.5f64.next_up(), 0.5f64.next_down(), 0.25, 0.0];
        let mut variants = vec![
            None,
            Some(OffCentre::ZeroCharge),
            Some(OffCentre::OppositeCharge),
            Some(OffCentre::SignedZeroSpan),
        ];
        for r in off {
            variants.extend([OffCentre::Y(r), OffCentre::X(r), OffCentre::Xy(r)].map(Some));
        }
        if !cfg!(debug_assertions) {
            variants.extend([Some(OffCentre::NanY), Some(OffCentre::NanX)]);
        }
        for backend in SimdBackend::available() {
            let width = backend.lanes();
            for len in 0..=2 * width + 1 {
                for (source, m, variant) in product3(&[0, 1], &[-2, 0, 3], &variants) {
                    let mut b = ParticleBatch::new();
                    for i in 0..len {
                        // One hoisted charge needs one column parity: one
                        // odd column, or odd columns mixed within a group.
                        let col = if source == 0 { 7 } else { [5, 7, 1, 3][i % 4] };
                        let mut p = column_population(&grid, col, i + 1, 0).get(i);
                        (p.m, p.vy) = (m, m as f64);
                        b.push(p);
                    }
                    if let Some(OffCentre::SignedZeroSpan) = variant {
                        b.q.fill(0.0);
                    }
                    // One lane per group, at a lane position that moves
                    // from group to group (span tails included).
                    for g in 0..len.div_ceil(width) {
                        let i = g * width + (3 * g + 1) % width;
                        if i >= len {
                            continue;
                        }
                        match variant {
                            Some(OffCentre::Y(r)) => b.y[i] = b.y[i].floor() + r,
                            Some(OffCentre::X(r)) => b.x[i] = b.x[i].floor() + r,
                            Some(OffCentre::Xy(r)) => {
                                b.x[i] = b.x[i].floor() + r;
                                // The lane's pair partner, in the same group.
                                let j = if i ^ 1 < len { i ^ 1 } else { i };
                                b.y[j] = b.y[j].floor() + r;
                            }
                            Some(OffCentre::NanY) => b.y[i] = f64::NAN,
                            Some(OffCentre::NanX) => b.x[i] = f64::NAN,
                            Some(OffCentre::ZeroCharge | OffCentre::SignedZeroSpan) => {
                                (b.q[i], b.vx[i]) = (-0.0, -0.0)
                            }
                            Some(OffCentre::OppositeCharge) => b.q[i] = -b.q[i],
                            None => {}
                        }
                    }
                    // An off-centre or uncharged particle leaves the column
                    // lattice, so only the conforming populations run on
                    // (and wrap).
                    let steps = match variant {
                        None | Some(OffCentre::OppositeCharge) => 3,
                        _ => 1,
                    };
                    let mut want = b.to_particles();
                    for step in 0..steps {
                        want.iter_mut()
                            .for_each(|p| advance_particle(&grid, &consts, p));
                        let (x, y, vx, vy) =
                            (&mut b.x[..], &mut b.y[..], &mut b.vx[..], &mut b.vy[..]);
                        let ql = x
                            .first()
                            .map_or(1.0, |&x| mesh_charge(x as usize, consts.q));
                        advance_bin_span_simd(backend, &grid, &consts, ql, x, y, vx, vy, &b.q);
                        for (i, w) in want.iter().enumerate() {
                            assert!(
                                same_bits(w.x, b.x[i]) && same_bits(w.y, b.y[i]) && same_bits(w.vx, b.vx[i]) && same_bits(w.vy, b.vy[i]),
                                "backend {} len {len} source {source} m {m} {variant:?} step {step}: \
                                 particle {i} is {:?}, reference {w:?}",
                                backend.name(),
                                b.get(i),
                            );
                        }
                    }
                }
            }
        }
    }

    /// Cartesian product of three small test axes.
    fn product3<'a, A: Copy, B: Copy, C: Copy>(
        a: &'a [A],
        b: &'a [B],
        c: &'a [C],
    ) -> impl Iterator<Item = (A, B, C)> + 'a {
        a.iter().flat_map(move |&a| {
            b.iter()
                .flat_map(move |&b| c.iter().map(move |&c| (a, b, c)))
        })
    }

    /// The fold premise on eight `ry` values through one backend's lanes.
    #[inline(always)]
    unsafe fn premise<V: Lanes>(ry: &[f64; 8]) -> bool {
        let ry = V::load(ry.as_ptr());
        mid_cell_lanes(ry, ry.sub(V::splat(1.0)))
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn premise_avx2(ry: &[f64; 8]) -> bool {
        premise::<x86::Avx2>(ry)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn premise_avx512(ry: &[f64; 8]) -> bool {
        premise::<x86::Avx512>(ry)
    }

    /// The premise helper is exact: true at `ry = h/2` in every lane,
    /// false as soon as any single lane is one ulp either side, elsewhere
    /// in the cell, or NaN — on every backend, one lane included.
    #[test]
    fn fold_premise_is_exact_in_every_lane() {
        let off = [0.5f64.next_up(), 0.5f64.next_down(), 0.25, 0.0, f64::NAN];
        for backend in SimdBackend::available() {
            let holds = |ry: &[f64; 8]| unsafe {
                match backend {
                    #[cfg(target_arch = "x86_64")]
                    SimdBackend::Avx512 => premise_avx512(ry),
                    #[cfg(target_arch = "x86_64")]
                    SimdBackend::Avx2 => premise_avx2(ry),
                    #[cfg(target_arch = "x86_64")]
                    SimdBackend::Sse2 => premise::<x86::Sse2>(ry),
                    SimdBackend::Scalar => premise::<f64>(ry),
                }
            };
            assert!(holds(&[0.5; 8]), "backend {}", backend.name());
            for lane in 0..backend.lanes() {
                for ry in off {
                    let mut lanes = [0.5; 8];
                    lanes[lane] = ry;
                    assert!(
                        !holds(&lanes),
                        "backend {} lane {lane} ry {ry:e}",
                        backend.name()
                    );
                }
            }
        }
    }

    /// The force fold's constants through one backend: [`centre_kick`]
    /// for corner charge `q_left` and span charge `q_span`, as the lanes
    /// of `½·ax·dt`, `½·ay·dt`, `ax·dt`, `ay·dt`.
    #[inline(always)]
    unsafe fn centre_kick_lanes<V: Lanes>(
        consts: &SimConstants,
        q_left: f64,
        q_span: f64,
    ) -> [[f64; 8]; 4] {
        let (ql, qr) = (V::splat(q_left), V::splat(-q_left));
        centre_kick(consts, ql, qr, V::splat(q_span)).lanes()
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn centre_kick_avx2(c: &SimConstants, q_left: f64, q_span: f64) -> [[f64; 8]; 4] {
        centre_kick_lanes::<x86::Avx2>(c, q_left, q_span)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn centre_kick_avx512(c: &SimConstants, q_left: f64, q_span: f64) -> [[f64; 8]; 4] {
        centre_kick_lanes::<x86::Avx512>(c, q_left, q_span)
    }

    /// The force fold never changes a bit. Its constants are the unfolded
    /// force: on every executable backend, one lane included, every lane of
    /// [`centre_kick`] carries the bits of the four [`coulomb`] corners at
    /// `(h/2, h/2)`, paired and integrated as `total_force` and the eqs.
    /// 1–2 step do, for `h ∈ {0.5, 1, 3}`, `dt ∈ {1, 0.7}`, both corner
    /// charges and span charges `±1e−300`, `±1`, `±1e300`. And one
    /// span-kernel step equals [`crate::motion::advance_particle`] per
    /// particle, bitwise, on every backend: for a span of centred
    /// particles of one such charge (two full 8-lane groups and a tail;
    /// at `h = 3` the centre lies outside the unit cell, so nothing
    /// folds), and for spans whose first charge is `+0.0`, `−0.0` or NaN,
    /// which must not fold. The zero spans carry the other signed zero in
    /// every other lane and `vx = −0.0`, so a force folded from the wrong
    /// zero shows in the sign of `vx`.
    ///
    /// [`coulomb`]: crate::charge::coulomb
    #[test]
    fn force_fold_is_the_unfolded_force() {
        use crate::charge::coulomb;
        use crate::motion::advance_particle;
        let charges = [1e-300, -1e-300, 1.0, -1.0, 1e300, -1e300];
        for (h, dt, q_left) in product3(&[0.5, 1.0, 3.0], &[1.0, 0.7], &[1.0, -1.0]) {
            let consts = SimConstants { h, dt, q: 1.0 };
            for q_span in charges {
                let c = h * 0.5;
                let (fx0, fy0) = coulomb(c, c, q_left, q_span);
                let (fx1, fy1) = coulomb(c, c - h, q_left, q_span);
                let (fx2, fy2) = coulomb(c - h, c, -q_left, q_span);
                let (fx3, fy3) = coulomb(c - h, c - h, -q_left, q_span);
                let (ax, ay) = ((fx0 + fx1) + (fx2 + fx3), (fy0 + fy1) + (fy2 + fy3));
                let want = [0.5 * ax * dt, 0.5 * ay * dt, ax * dt, ay * dt];
                for backend in SimdBackend::available() {
                    let got = unsafe {
                        match backend {
                            #[cfg(target_arch = "x86_64")]
                            SimdBackend::Avx512 => centre_kick_avx512(&consts, q_left, q_span),
                            #[cfg(target_arch = "x86_64")]
                            SimdBackend::Avx2 => centre_kick_avx2(&consts, q_left, q_span),
                            #[cfg(target_arch = "x86_64")]
                            SimdBackend::Sse2 => {
                                centre_kick_lanes::<x86::Sse2>(&consts, q_left, q_span)
                            }
                            SimdBackend::Scalar => {
                                centre_kick_lanes::<f64>(&consts, q_left, q_span)
                            }
                        }
                    };
                    for (lanes, want) in got.iter().zip(want) {
                        for got in &lanes[..backend.lanes()] {
                            assert!(
                                same_bits(*got, want),
                                "backend {} h {h} dt {dt} q_left {q_left} q_span {q_span:e}: \
                                 {got:e} vs {want:e}",
                                backend.name()
                            );
                        }
                    }
                }
            }
        }
        let grid = Grid::new(32).unwrap();
        let mut spans: Vec<Vec<f64>> = charges.iter().map(|&q| vec![q; 19]).collect();
        for (first, rest) in [(0.0, -0.0), (-0.0, 0.0), (f64::NAN, 1.0)] {
            let mut span = vec![rest; 19];
            span[0] = first;
            spans.push(span);
        }
        for backend in SimdBackend::available() {
            for (h, dt, col) in product3(&[0.5, 1.0, 3.0], &[1.0, 0.7], &[2, 3]) {
                let consts = SimConstants { h, dt, q: 1.0 };
                let c = if h < 2.0 { h * 0.5 } else { 0.5 };
                for span in &spans {
                    let mut b = column_population(&grid, col, span.len(), 0);
                    for (i, &q) in span.iter().enumerate() {
                        b.x[i] = col as f64 + c;
                        b.y[i] = i as f64 + c;
                        b.q[i] = q;
                        b.vx[i] = if q == 0.0 { -0.0 } else { 0.0 };
                    }
                    let mut want = b.to_particles();
                    want.iter_mut()
                        .for_each(|p| advance_particle(&grid, &consts, p));
                    let (x, y, vx, vy) = (&mut b.x[..], &mut b.y[..], &mut b.vx[..], &mut b.vy[..]);
                    let ql = mesh_charge(col, consts.q);
                    advance_bin_span_simd(backend, &grid, &consts, ql, x, y, vx, vy, &b.q);
                    for (i, w) in want.iter().enumerate() {
                        let got = b.get(i);
                        assert!(
                            [(got.x, w.x), (got.y, w.y), (got.vx, w.vx), (got.vy, w.vy)]
                                .iter()
                                .all(|&(a, b)| same_bits(a, b)),
                            "backend {} h {h} dt {dt} column {col} span charge {:e}: \
                             particle {i} is {got:?}, reference {w:?}",
                            backend.name(),
                            span[0],
                        );
                    }
                }
            }
        }
    }

    /// Eight coordinates through one backend's clamp and `u32` convert.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn lane_cells<V: OwnerLanes>(x: &[f64; 8], last: f64) -> [u32; 8] {
        let mut out = [0u32; 8];
        for o in (0..8).step_by(V::WIDTH) {
            let i = V::load(x.as_ptr().add(o))
                .clamp_cell(V::splat(last))
                .index();
            V::store_index(i, out.as_mut_ptr().add(o));
        }
        out
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn lane_cells_avx2(x: &[f64; 8], last: f64) -> [u32; 8] {
        lane_cells::<x86::Avx2>(x, last)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn lane_cells_avx512(x: &[f64; 8], last: f64) -> [u32; 8] {
        lane_cells::<x86::Avx512>(x, last)
    }

    /// The owner classifiers' cell index is `Grid::cell_of`'s,
    /// `(x as usize).min(last)`, in every lane of every backend with the
    /// ops (one lane included), up to the widest grid ([`Grid::new`] caps
    /// the last index at `i32::MAX`, 2³¹ − 1), and for NaN, ±∞ and
    /// negatives.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn cell_index_lanes_cover_every_grid_side() {
        let (_, edges) = crate::geometry::cell_index_cases(2);
        for last in [1usize, 1023, i32::MAX as usize] {
            let mut values = edges.clone();
            let top = last as f64;
            values.extend([top - 0.5, top, top + 0.5, (top / 2.0).floor() + 0.5]);
            for chunk in values.chunks(8) {
                let mut x = [0.0; 8];
                x[..chunk.len()].copy_from_slice(chunk);
                let want = x.map(|x| (x as usize).min(last) as u32);
                for backend in SimdBackend::available() {
                    let got = match backend {
                        SimdBackend::Avx512 => unsafe { lane_cells_avx512(&x, top) },
                        SimdBackend::Avx2 => unsafe { lane_cells_avx2(&x, top) },
                        SimdBackend::Sse2 => continue,
                        SimdBackend::Scalar => unsafe { lane_cells::<f64>(&x, top) },
                    };
                    assert_eq!(got, want, "{} last {last}: {x:?}", backend.name());
                }
            }
        }
    }

    /// The zero-distance guard survives vectorization: a particle sitting
    /// exactly on a mesh corner gets zero force from that corner in every
    /// lane position.
    #[test]
    fn corner_particle_is_finite_in_every_lane() {
        let grid = Grid::new(8).unwrap();
        let consts = SimConstants::CANONICAL;
        for backend in SimdBackend::available() {
            let width = backend.lanes().max(LANES);
            for lane in 0..width {
                let mut b = column_population(&grid, 2, width, 0);
                b.x[lane] = 2.0; // exactly on the bottom-left corner
                b.y[lane] = 3.0;
                let q = b.q.clone();
                let n = b.len();
                advance_bin_span_simd(
                    backend,
                    &grid,
                    &consts,
                    mesh_charge(2, consts.q),
                    &mut b.x[..n],
                    &mut b.y[..n],
                    &mut b.vx[..n],
                    &mut b.vy[..n],
                    &q,
                );
                for i in 0..n {
                    assert!(
                        b.x[i].is_finite() && b.y[i].is_finite(),
                        "backend {} lane {lane}: non-finite state",
                        backend.name(),
                    );
                }
            }
        }
    }

    #[test]
    fn env_parse_semantics() {
        assert!(!scalar_forced_by(None));
        assert!(!scalar_forced_by(Some("")));
        assert!(!scalar_forced_by(Some("0")));
        assert!(!scalar_forced_by(Some("  0  ")));
        assert!(scalar_forced_by(Some("1")));
        assert!(scalar_forced_by(Some("true")));
        assert!(scalar_forced_by(Some(" yes ")));
    }

    #[test]
    fn available_ends_with_scalar_and_contains_widest() {
        let avail = SimdBackend::available();
        assert_eq!(*avail.last().unwrap(), SimdBackend::Scalar);
        assert!(avail.contains(&SimdBackend::widest_available()));
        // Names are unique and stable.
        let names: std::collections::HashSet<_> = avail.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), avail.len());
    }
}
