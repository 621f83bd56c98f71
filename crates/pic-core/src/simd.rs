//! Explicit SIMD backends for the binned sweep kernel.
//!
//! The binned kernel (`advance_bin_span`, see [`crate::bin`]) was shaped
//! branch-free so the compiler *could* vectorize it, but the baseline
//! x86-64 target only licenses 2-lane SSE2 autovectorization and the
//! sqrt/divide chain in [`coulomb`] dominates the critical path. This
//! module vectorizes the kernel by hand, four particles per iteration (eight on AVX-512)
//! (**lane-per-particle**), with the widest instruction set the host
//! actually has — selected once at engine construction, not at compile
//! time, so one binary serves every deployment target.
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
//!   multiply-add rounds once where the scalar kernel rounds twice and
//!   would break bit-identity.
//! * [`SimdBackend::Sse2`] — two 128-bit registers per quartet; SSE2 is
//!   part of the x86-64 baseline, so this backend needs no detection.
//! * [`SimdBackend::Scalar`] — the scalar reference kernel itself. Always
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
//! in the same order* as the scalar kernel — the four corner evaluations
//! are unrolled across the lane group in the scalar kernel's pairing and
//! summation order, nothing is reassociated across a particle's own
//! arithmetic, and no FMA contraction is permitted. The one licensed
//! shortcut reuses a value instead of recomputing it (the corner fold,
//! see `force_groups`): a group whose lanes all sit at exact cell
//! mid-height takes each column's top-corner `f/r` from the bottom
//! corner, and one whose lanes all sit at exact mid-width takes the right
//! column's `f/r` from the left column's, negated — values whose bits it
//! provably shares. Span tails (`len mod WIDTH`) run the scalar
//! kernel unchanged, and the wrap pass takes each lane through the exact
//! scalar [`Grid::wrap_coord`] whenever any lane left the domain.
//! Particles are independent within a step, so processing them four at a
//! time changes *where* arithmetic happens, never *what* arithmetic
//! happens — asserted by the SIMD-vs-scalar property-test family across
//! every backend the host can run.
//!
//! [`coulomb`]: crate::charge::coulomb

use crate::bin::{CellTable, OwnerMap};
use crate::charge::{f_over_r_lanes, mid_cell_lanes, SimConstants};
use crate::geometry::Grid;

/// Number of f64 lanes in the narrowest vector backend (the historical
/// fixed width; AVX-512 runs `Lanes::WIDTH` = 8).
pub const LANES: usize = 4;

/// The instruction-set backend driving `advance_bin_span_simd`.
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
    /// The scalar reference kernel (any arch; forced by `PIC_NO_SIMD=1`).
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

    /// Whether this backend uses vector registers (false only for the
    /// scalar fallback).
    pub fn is_vector(self) -> bool {
        self != SimdBackend::Scalar
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
    /// exactly the scalar kernel's `x as usize as f64` for in-domain
    /// coordinates (which fit comfortably in the narrowest intermediate,
    /// i32).
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
    /// `false`). The corner fold's premise test.
    fn all_eq(self, o: Self) -> bool;
}

/// The ops of the owner classifiers ([`crate::bin::OwnerMap`]): the
/// saturating cell index of [`Grid::cell_of`] per lane, and `u32` table
/// lanes beside the `f64` ones. Implemented by the two backends with a
/// gather (AVX-512 and AVX2); the others classify through the scalar rule.
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
    /// Truncate clamped lanes (each in `[0, 2³²)`) to `u32`, over the
    /// whole range: a signed 32-bit convert breaks from 2³¹ up.
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
            // No unsigned convert below AVX-512: floor, move the range down
            // by 2³¹ (exact), convert signed, and flip the top bit back.
            unsafe {
                let floor = _mm256_floor_pd(self.0);
                let low = _mm256_sub_pd(floor, _mm256_set1_pd(2_147_483_648.0));
                _mm_xor_si128(_mm256_cvttpd_epi32(low), _mm_set1_epi32(i32::MIN))
            }
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

/// Force-and-integrate over `groups` quartets starting at the span base —
/// the vector transcription of the scalar kernel's first loop, lane per
/// particle, four corner evaluations unrolled in the scalar pairing and
/// summation order. The corner charges `q_left` and `−q_left` are
/// hoisted: every particle of a span shares one column parity (the
/// store's phase contract, [`crate::bin`]), so both splat once outside
/// the loop.
///
/// **The corner fold.** The four corner forces on a particle at the cell
/// centre are pairwise mirror images, so the kernel evaluates `f/r` — the
/// `sqrt` and the `div` — once per mirror pair, on whichever axes the
/// group's lanes all sit exactly at the centre ([`mid_cell_lanes`],
/// tested on the `ryh` and `rxh` the kernel itself computed). At
/// mid-height the top corner of each column has the bottom corner's `r²`
/// bit for bit, so it reuses that `f/r`. At mid-width the right column
/// has the left column's `r²` and the negated charge, so it takes the left
/// column's `f/r` times `−1`. A centred group runs one divider chain per
/// particle, not four. Every multiply and add downstream still runs, on
/// identical operands, so the result is bit-identical by construction
/// (DESIGN.md §10). A group with any lane off-centre along an axis
/// evaluates that axis's corners, as a whole — as the scalar kernel
/// ([`crate::bin::force_span`]: span tails, the `Scalar` backend) always
/// does: it is not divider-bound, and a premise test there costs more
/// than the fold saves.
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
    let dt = V::splat(consts.dt);
    let h = V::splat(consts.h);
    let half = V::splat(0.5);
    let neg = V::splat(-1.0);
    let (ql, qr) = (V::splat(q_left), V::splat(-q_left));
    for g in 0..groups {
        let o = g * V::WIDTH;
        let xi = V::load(x.add(o));
        let yi = V::load(y.add(o));
        // `cell_of` minus the defensive clamp, as in the scalar kernel:
        // wrapped coordinates lie in [0, L) where truncation alone yields
        // the identical column/row index.
        let col = xi.trunc();
        let row = yi.trunc();
        let rx = xi.sub(col);
        let ry = yi.sub(row);
        let rxh = rx.sub(h);
        let ryh = ry.sub(h);
        let qp = V::load(q.add(o));
        let mid_height = mid_cell_lanes(ry, ryh);
        let f0 = f_over_r_lanes(rx, ry, ql, qp); // bottom-left
        let f1 = if mid_height {
            debug_assert_same_r2("top", [[(rx, ry), (rx, ryh)], [(rxh, ry), (rxh, ryh)]]);
            f0
        } else {
            f_over_r_lanes(rx, ryh, ql, qp) // top-left
        };
        let (f2, f3) = if mid_cell_lanes(rx, rxh) {
            debug_assert_same_r2("right", [[(rx, ry), (rxh, ry)], [(rx, ryh), (rxh, ryh)]]);
            // `qr = −ql` and `×`, `÷` are sign-symmetric. Negating by a
            // multiply keeps the sign of a zero `f/r` (`0 − f` would not).
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
        let vxi = V::load(vx.add(o));
        let vyi = V::load(vy.add(o));
        // x += (vx + 0.5·ax·dt)·dt — same association as the scalar kernel.
        xi.add(vxi.add(half.mul(ax).mul(dt)).mul(dt))
            .store(x.add(o));
        yi.add(vyi.add(half.mul(ay).mul(dt)).mul(dt))
            .store(y.add(o));
        vxi.add(ax.mul(dt)).store(vx.add(o));
        vyi.add(ay.mul(dt)).store(vy.add(o));
    }
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
    let r2 = |(dx, dy): (V, V)| {
        let mut out = [0.0; 8];
        // SAFETY: the array holds the widest backend's eight lanes.
        unsafe { dx.mul(dx).add(dy.mul(dy)).store(out.as_mut_ptr()) };
        out
    };
    for [kept, reused] in pairs {
        let (a, b) = (r2(kept), r2(reused));
        for (a, b) in a.iter().zip(&b).take(V::WIDTH) {
            assert!(
                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                "corner fold: {corner} r² {b:e} is not the reused r² {a:e}"
            );
        }
    }
}

/// Periodic wrap over `groups` quartets: a vector range test selects the
/// (overwhelmingly common) all-in-domain fast path; any quartet with an
/// escaped lane goes through the exact scalar [`Grid::wrap_coord`], so the
/// pass is bit-identical to the scalar wrap loop by construction.
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

/// The full span kernel for one vector backend: quartets through
/// [`force_groups`], the `len mod 4` tail through the scalar kernel, then
/// the wrap pass (vector fast-path test, scalar wrap for escaped lanes).
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
) {
    let n = x.len();
    debug_assert!(y.len() == n && vx.len() == n && vy.len() == n && q.len() == n);
    // The scalar kernel's per-particle invariant checks, hoisted out of
    // the vector loop (debug builds only).
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
    let groups = n / V::WIDTH;
    let tail = groups * V::WIDTH;
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
    crate::bin::force_span(
        consts,
        q_left,
        &mut x[tail..],
        &mut y[tail..],
        &mut vx[tail..],
        &mut vy[tail..],
        &q[tail..],
    );
    wrap_groups::<V>(grid, x.as_mut_ptr(), groups);
    wrap_groups::<V>(grid, y.as_mut_ptr(), groups);
    for i in tail..n {
        x[i] = grid.wrap_coord(x[i]);
        y[i] = grid.wrap_coord(y[i]);
    }
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
) {
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
) {
    advance_span_lanes::<x86::Avx512>(grid, consts, q_left, x, y, vx, vy, q)
}

/// Advance one span with the selected backend — the SIMD counterpart of
/// [`crate::bin::advance_bin_span`], bit-identical to it (and therefore to
/// the AoS oracle) on every backend, for a span whose particles all sit
/// in columns of `q_left`'s parity.
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
    match backend {
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx512 => unsafe {
            advance_span_avx512(grid, consts, q_left, x, y, vx, vy, q)
        },
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx2 => unsafe { advance_span_avx2(grid, consts, q_left, x, y, vx, vy, q) },
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Sse2 => unsafe {
            // SSE2 is unconditionally present on x86-64.
            advance_span_lanes::<x86::Sse2>(grid, consts, q_left, x, y, vx, vy, q)
        },
        SimdBackend::Scalar => crate::bin::advance_bin_span(grid, consts, q_left, x, y, vx, vy, q),
    }
}

/// The table index `col[c] + row[r]` of each lane's cell, for one group.
///
/// # Safety
/// `x` and `y` must be valid for `V::WIDTH` reads.
#[inline(always)]
unsafe fn cell_index<V: OwnerLanes>(
    t: &CellTable,
    last: V,
    x: *const f64,
    y: *const f64,
) -> V::Index {
    let (col, row, _, _) = t.parts();
    let c = V::load(x).clamp_cell(last).index();
    let r = V::load(y).clamp_cell(last).index();
    // SAFETY: `c` and `r` are at most `last`, and `CellTable::new` checked
    // that both tables have a side's worth of cells.
    V::add_index(V::gather(col.as_ptr(), c), V::gather(row.as_ptr(), r))
}

/// The owner classifier on one vector backend: whole groups through the
/// lane ops, the `len mod WIDTH` tail through the scalar rule. Sets bit
/// `j % 64` of `leave[j / 64]` for each lane `j` that leaves.
///
/// # Safety
/// Vector ops of `V` must be executable on the current CPU.
#[inline(always)]
unsafe fn owner_leavers_lanes<V: OwnerLanes>(
    grid: &Grid,
    map: &OwnerMap,
    x: &[f64],
    y: &[f64],
    leave: &mut [u64],
) {
    let groups = x.len() / V::WIDTH;
    let last = V::splat((grid.ncells() - 1) as f64);
    let (xp, yp) = (x.as_ptr(), y.as_ptr());
    let lanes = u64::MAX >> (64 - V::WIDTH);
    // `WIDTH` divides 64, so a group's lanes share one word.
    let mut put = |o: usize, keep: u64| leave[o / 64] |= (!keep & lanes) << (o % 64);
    match map {
        OwnerMap::Columns { lo, hi } => {
            let (lo, hi) = (V::splat(*lo as f64), V::splat(*hi as f64));
            for o in (0..groups).map(|g| g * V::WIDTH) {
                // SAFETY: whole groups lie inside `x`.
                put(o, V::load(xp.add(o)).clamp_cell(last).within(lo, hi));
            }
        }
        OwnerMap::Cells(t) => {
            let (_, _, owner, me) = t.parts();
            for o in (0..groups).map(|g| g * V::WIDTH) {
                // SAFETY: whole groups lie inside `x` and `y` (equal
                // lengths, asserted by the caller).
                let i = cell_index::<V>(t, last, xp.add(o), yp.add(o));
                // SAFETY: `CellTable::new` checked every `col[c] + row[r]`
                // against the owner table.
                put(o, V::index_eq(V::gather(owner.as_ptr(), i), me));
            }
        }
    }
    let tail = groups * V::WIDTH;
    map.mark_leavers(grid, &x[tail..], &y[tail..], leave, tail);
}

/// `counts[col[c] + row[r]] += 1` for each point's cell on one vector
/// backend (the scalar rule for the tail).
///
/// # Safety
/// Vector ops of `V` must be executable on the current CPU.
#[inline(always)]
unsafe fn count_cells_lanes<V: OwnerLanes>(
    grid: &Grid,
    t: &CellTable,
    x: &[f64],
    y: &[f64],
    counts: &mut [u64],
) {
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
    let tail = groups * V::WIDTH;
    t.count_scalar(grid, &x[tail..], &y[tail..], counts);
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
) {
    owner_leavers_lanes::<x86::Avx512>(grid, map, x, y, leave)
}

/// See [`owner_leavers_avx512`].
///
/// # Safety
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn count_cells_avx512(grid: &Grid, t: &CellTable, x: &[f64], y: &[f64], c: &mut [u64]) {
    count_cells_lanes::<x86::Avx512>(grid, t, x, y, c)
}

/// AVX2 instantiations of the owner classifier and the cell count.
///
/// # Safety
/// The CPU must support AVX2 (guaranteed by [`SimdBackend::detect`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn owner_leavers_avx2(grid: &Grid, map: &OwnerMap, x: &[f64], y: &[f64], leave: &mut [u64]) {
    owner_leavers_lanes::<x86::Avx2>(grid, map, x, y, leave)
}

/// See [`owner_leavers_avx2`].
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn count_cells_avx2(grid: &Grid, t: &CellTable, x: &[f64], y: &[f64], c: &mut [u64]) {
    count_cells_lanes::<x86::Avx2>(grid, t, x, y, c)
}

/// Classify `x`/`y` against `map` with the selected backend — bit for bit
/// the scalar rule on every backend; the backends without a gather (SSE2
/// and scalar) run that rule itself.
pub(crate) fn owner_leavers(
    backend: SimdBackend,
    grid: &Grid,
    map: &OwnerMap,
    x: &[f64],
    y: &[f64],
    leave: &mut [u64],
) {
    // SAFETY: a vector backend is only ever one the CPU was detected to
    // run (`SimdBackend::detect` / `available`).
    match backend {
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx512 => unsafe { owner_leavers_avx512(grid, map, x, y, leave) },
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx2 => unsafe { owner_leavers_avx2(grid, map, x, y, leave) },
        _ => map.mark_leavers(grid, x, y, leave, 0),
    }
}

/// Count the points per table index with the selected backend
/// ([`CellTable::count_into`]).
pub(crate) fn count_cells(
    backend: SimdBackend,
    grid: &Grid,
    t: &CellTable,
    x: &[f64],
    y: &[f64],
    counts: &mut [u64],
) {
    // SAFETY: as in `owner_leavers`; `CellTable::count_into` asserted
    // equal `x` and `y` lengths.
    match backend {
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx512 => unsafe { count_cells_avx512(grid, t, x, y, counts) },
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx2 => unsafe { count_cells_avx2(grid, t, x, y, counts) },
        _ => t.count_scalar(grid, x, y, counts),
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

    /// Advance `steps` steps through the raw span kernel, recomputing the
    /// hoisted corner charge from the (column-coherent) population each
    /// step. Returns the final batch.
    fn run_kernel(
        mut b: ParticleBatch,
        grid: &Grid,
        steps: u32,
        advance: &mut dyn FnMut(&Grid, f64, &mut ParticleBatch),
    ) -> ParticleBatch {
        let consts = SimConstants::CANONICAL;
        for _ in 0..steps {
            let q_left = if b.is_empty() {
                consts.q
            } else {
                mesh_charge(b.x[0] as usize, consts.q)
            };
            advance(grid, q_left, &mut b);
        }
        b
    }

    /// Every available backend is bit-identical to the scalar kernel for
    /// every span length 0..=16 (covers the empty span, every remainder
    /// tail of both the 4-lane and the 8-lane group widths, and full
    /// groups plus each tail) and a couple of larger spans, including
    /// steps where the particles wrap the boundary.
    #[test]
    fn all_backends_bitwise_match_scalar_for_all_tail_lengths() {
        let grid = Grid::new(8).unwrap();
        let consts = SimConstants::CANONICAL;
        for backend in SimdBackend::available() {
            for len in (0..=16).chain([17, 37]) {
                // Column 6 with stride 1: wraps off the right edge within
                // a few steps, exercising the escaped-lane wrap path.
                let seed = column_population(&grid, 6, len, 0);
                let scalar = run_kernel(seed.clone(), &grid, 5, &mut |g, ql, b| {
                    let n = b.len();
                    crate::bin::advance_bin_span(
                        g,
                        &consts,
                        ql,
                        &mut b.x[..n],
                        &mut b.y[..n],
                        &mut b.vx[..n],
                        &mut b.vy[..n],
                        &b.q[..n],
                    );
                });
                let simd = run_kernel(seed, &grid, 5, &mut |g, ql, b| {
                    let n = b.len();
                    advance_bin_span_simd(
                        backend,
                        g,
                        &consts,
                        ql,
                        &mut b.x[..n],
                        &mut b.y[..n],
                        &mut b.vx[..n],
                        &mut b.vy[..n],
                        &b.q[..n],
                    );
                });
                assert_eq!(
                    scalar,
                    simd,
                    "backend {} diverged at span length {len}",
                    backend.name()
                );
            }
        }
    }

    /// How the corner-fold test displaces one lane per group off the cell
    /// centre (`None`: every lane stays spec-conforming).
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
        /// folds fire on a signed-zero `f/r`.
        ZeroCharge,
    }

    /// The corner fold never changes a bit: for every backend, span length
    /// (empty, every tail of both group widths, two groups plus one),
    /// column pattern, vertical stride `m` (rows wrap in both directions,
    /// the column-7 lanes wrap in x) and off-centre variant, the span
    /// kernel equals the **unfolded** scalar reference — `total_force` and
    /// the eqs. 1–2 integration of [`crate::motion::advance_particle`] —
    /// per particle, bitwise. Groups whose lanes all sit at the cell
    /// centre take both folds; one lane at `0.5 ± 1 ulp`, `0.25`, on a
    /// mesh line (`0.0`) or NaN along one axis must send its whole group
    /// down that axis's unfolded path (along both, when the group is off
    /// on both) while its neighbours' results stay untouched.
    #[test]
    fn corner_fold_bitwise_matches_unfolded_reference() {
        use crate::motion::advance_particle;
        let grid = Grid::new(8).unwrap();
        let consts = SimConstants::CANONICAL;
        let off = [0.5f64.next_up(), 0.5f64.next_down(), 0.25, 0.0];
        let mut variants = vec![None, Some(OffCentre::ZeroCharge)];
        for r in off {
            variants.extend([OffCentre::Y(r), OffCentre::X(r), OffCentre::Xy(r)].map(Some));
        }
        if !cfg!(debug_assertions) {
            variants.extend([Some(OffCentre::NanY), Some(OffCentre::NanX)]);
        }
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
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
                            Some(OffCentre::ZeroCharge) => (b.q[i], b.vx[i]) = (-0.0, -0.0),
                            None => {}
                        }
                    }
                    // An off-centre or uncharged particle leaves the column
                    // lattice, so only the conforming population runs on
                    // (and wraps).
                    let steps = if variant.is_none() { 3 } else { 1 };
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
                                same(w.x, b.x[i]) && same(w.y, b.y[i]) && same(w.vx, b.vx[i]) && same(w.vy, b.vy[i]),
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
    /// in the cell, or NaN — on every vector backend.
    #[test]
    fn fold_premise_is_exact_in_every_lane() {
        let off = [0.5f64.next_up(), 0.5f64.next_down(), 0.25, 0.0, f64::NAN];
        // The scalar kernel evaluates all four corners: no premise there.
        for backend in SimdBackend::available()
            .into_iter()
            .filter(|b| b.is_vector())
        {
            let holds = |ry: &[f64; 8]| unsafe {
                match backend {
                    #[cfg(target_arch = "x86_64")]
                    SimdBackend::Avx512 => premise_avx512(ry),
                    #[cfg(target_arch = "x86_64")]
                    SimdBackend::Avx2 => premise_avx2(ry),
                    #[cfg(target_arch = "x86_64")]
                    SimdBackend::Sse2 => premise::<x86::Sse2>(ry),
                    SimdBackend::Scalar => unreachable!(),
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
    /// ops, up to the widest grid ([`Grid::new`] caps the last index at
    /// `u32::MAX`) — past 2³¹, where a signed 32-bit convert breaks — and
    /// for NaN, ±∞ and negatives.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn cell_index_lanes_cover_the_whole_u32_range() {
        let (_, edges) = crate::geometry::cell_index_cases(2);
        for last in [1usize, 1023, (1 << 31) + 1, u32::MAX as usize] {
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
                        _ => continue,
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
