//! The span kernel of the binned sweep and the owner classifiers, each one
//! generic body (**lane per particle**).
//!
//! The sqrt/divide chain in `coulomb` dominates the sweep's critical
//! path, and the baseline x86-64 target only licenses 2-lane SSE2
//! autovectorization, so the kernel is vectorized by hand: four particles
//! per iteration (eight on AVX-512), with the widest instruction set the
//! host actually has — selected once at engine construction, not at
//! compile time, so one binary serves every deployment target.
//!
//! ## One dispatch
//!
//! Each body is written once, as the method of a small body type: the
//! span sweep over `Lanes` ops (`LanesBody`), the owner classifier and the
//! unit count over `OwnerLanes` ops (`OwnerBody`). The only `match` on the
//! backend and the only `#[target_feature]` functions sit in the two
//! dispatchers, `SimdBackend::run` and `SimdBackend::run_owner`, which
//! first refuse, with a panic naming it, a backend this CPU does not run:
//! the variants are public, so safe code can name any of them. The same
//! bodies run at one lane (`f64` implements `Lanes` and `OwnerLanes`) for
//! the `Scalar` backend and for the `len mod WIDTH` tail of every call.
//!
//! ## Backends
//!
//! * [`SimdBackend::Avx512`] — eight f64 lanes in one 512-bit register
//!   (x86-64, runtime-detected). Bit-identity is a **per-lane** property,
//!   so the exact kernel runs unchanged at twice the width.
//! * [`SimdBackend::Avx2`] — one 256-bit register per quartet (x86-64,
//!   runtime-detected). AVX2 only: the backend deliberately does **not**
//!   enable FMA, because a fused multiply-add rounds once where the
//!   oracle rounds twice and would break bit-identity.
//! * [`SimdBackend::Sse2`] — two 128-bit registers per quartet (the
//!   x86-64 baseline). It has no gather, so it classifies at one lane.
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
//! the span body): a group whose lanes all sit at exact cell mid-height
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
//! The kernel runs in the reference units of [`crate::charge`]: a cell's
//! far corners sit at `r − 1` and eqs. 1–2 carry no `dt` factor.

use crate::charge::{f_over_r_lanes, mid_cell_lanes};
use crate::geometry::Grid;
use crate::owner::{OwnerMap, OwnerTable};

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
    /// Every backend, widest first.
    const ALL: &'static [SimdBackend] = &[
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx512,
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx2,
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Sse2,
        SimdBackend::Scalar,
    ];

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
    fn widest_available() -> SimdBackend {
        Self::available()[0]
    }

    /// Every backend the host can execute, scalar last — the test grid
    /// iterates this so vector-vs-scalar identity is proven on whatever
    /// hardware runs the suite.
    pub fn available() -> Vec<SimdBackend> {
        Self::ALL
            .iter()
            .copied()
            .filter(|b| b.runs_here())
            .collect()
    }

    /// Whether this CPU executes the backend's instructions: the one
    /// feature test behind [`SimdBackend::available`], [`SimdBackend::detect`]
    /// and the dispatchers' refusal. SSE2 is part of the x86-64 baseline.
    fn runs_here(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            _ => true,
        }
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
    #[cfg(test)]
    pub(crate) fn lanes(self) -> usize {
        self.run(&mut tests::Width)
    }

    /// Panic, naming the backend, unless this CPU runs it: the variants
    /// are public, so safe code can ask for a backend the host lacks.
    #[inline]
    fn assert_runs_here(self) {
        assert!(
            self.runs_here(),
            "SIMD backend {} is not supported by this CPU",
            self.name()
        );
    }

    /// Run `body` at this backend's width: the one place that picks the
    /// instantiation of a [`LanesBody`] and the target feature it runs
    /// under. `#[target_feature]` licenses the wider codegen for
    /// everything inlined beneath it — but not FMA contraction, which
    /// stays off to keep bit-identity.
    ///
    /// # Panics
    /// If this CPU does not run the backend.
    #[inline]
    pub(crate) fn run<B: LanesBody>(self, body: &mut B) -> B::Out {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        unsafe fn avx512<B: LanesBody>(body: &mut B) -> B::Out {
            body.run::<x86::Avx512>()
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn avx2<B: LanesBody>(body: &mut B) -> B::Out {
            body.run::<x86::Avx2>()
        }
        self.assert_runs_here();
        // SAFETY: the CPU runs this backend (asserted above); SSE2 is in
        // the x86-64 baseline and one lane needs no extension.
        unsafe {
            match self {
                #[cfg(target_arch = "x86_64")]
                SimdBackend::Avx512 => avx512(body),
                #[cfg(target_arch = "x86_64")]
                SimdBackend::Avx2 => avx2(body),
                #[cfg(target_arch = "x86_64")]
                SimdBackend::Sse2 => body.run::<x86::Sse2>(),
                SimdBackend::Scalar => body.run::<f64>(),
            }
        }
    }

    /// Run `body` at this backend's width, as [`SimdBackend::run`] does:
    /// the backends with a gather (AVX-512, AVX2) at theirs, SSE2 and
    /// `Scalar` at one lane.
    ///
    /// # Panics
    /// If this CPU does not run the backend.
    #[inline]
    pub(crate) fn run_owner<B: OwnerBody>(self, body: &mut B) -> B::Out {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        unsafe fn avx512<B: OwnerBody>(body: &mut B) -> B::Out {
            body.run::<x86::Avx512>()
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn avx2<B: OwnerBody>(body: &mut B) -> B::Out {
            body.run::<x86::Avx2>()
        }
        self.assert_runs_here();
        // SAFETY: as in `run`.
        unsafe {
            match self {
                #[cfg(target_arch = "x86_64")]
                SimdBackend::Avx512 => avx512(body),
                #[cfg(target_arch = "x86_64")]
                SimdBackend::Avx2 => avx2(body),
                _ => body.run::<f64>(),
            }
        }
    }
}

/// A kernel body over [`Lanes`] ops, written once and run at a backend's
/// width by [`SimdBackend::run`].
pub(crate) trait LanesBody {
    type Out;
    /// # Safety
    /// The ops of `V` must be executable on this CPU.
    unsafe fn run<V: Lanes>(&mut self) -> Self::Out;
}

/// A kernel body over [`OwnerLanes`] ops, run by [`SimdBackend::run_owner`].
pub(crate) trait OwnerBody {
    type Out;
    /// # Safety
    /// The ops of `V` must be executable on this CPU.
    unsafe fn run<V: OwnerLanes>(&mut self) -> Self::Out;
}

/// `PIC_NO_SIMD` semantics, factored out so the parse is testable without
/// mutating the process environment: any value other than empty/`0` forces
/// the scalar backend.
fn scalar_forced_by(val: Option<&str>) -> bool {
    val.is_some_and(|v| !matches!(v.trim(), "" | "0"))
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
    /// vector form of `coulomb`'s value-select zero-distance guard.
    fn zero_where_zero(self, r2: Self) -> Self;
    /// Whether every lane lies in `[0.0, hi)` — the wrap pass's fast-path
    /// test.
    fn all_in_range(self, hi: f64) -> bool;
    /// Whether every lane of `self` equals its lane in `o` — the exact
    /// IEEE `==` per lane (so `-0.0 == 0.0`, and a NaN on either side is
    /// `false`). The corner folds' premise test, and the force fold's
    /// charge test.
    fn all_eq(self, o: Self) -> bool;
    /// `min(max(x, 0), last)` per lane, NaN → 0: the value whose
    /// truncation is `Grid::cell_of(x)` for every `f64`, `last` the last
    /// cell index. A kept interval `lo..hi` of columns is then
    /// `lo <= v < hi` on the clamped value, with no conversion.
    fn clamp_cell(self, last: Self) -> Self;
    /// Bit `j` set where lane `j` does not lie in `[lo, hi)` (a NaN lane
    /// included): `!(lo <= v && v < hi)` per lane.
    fn outside(self, lo: Self, hi: Self) -> u64;
}

/// The table ops of the owner classifiers ([`crate::owner::OwnerMap`]):
/// `u32` table lanes beside the `f64` ones, indexed by the clamped cell of
/// [`Lanes::clamp_cell`]. Implemented by the two backends with a gather
/// (AVX-512 and AVX2) and by one lane, which classifies for the others and
/// for every tail.
pub(crate) trait OwnerLanes: Lanes {
    /// [`Lanes::WIDTH`] `u32` lanes.
    type Index: Copy;
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
        fn outside(self, lo: Self, hi: Self) -> u64 {
            unsafe {
                let below = _mm512_cmp_pd_mask::<_CMP_NGE_UQ>(self.0, lo.0);
                (below | _mm512_cmp_pd_mask::<_CMP_NLT_UQ>(self.0, hi.0)) as u64
            }
        }
    }

    impl OwnerLanes for Avx512 {
        type Index = __m256i;

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
        fn outside(self, lo: Self, hi: Self) -> u64 {
            unsafe {
                let below = _mm256_cmp_pd::<_CMP_NGE_UQ>(self.0, lo.0);
                let above = _mm256_cmp_pd::<_CMP_NLT_UQ>(self.0, hi.0);
                _mm256_movemask_pd(_mm256_or_pd(below, above)) as u64
            }
        }
    }

    impl OwnerLanes for Avx2 {
        type Index = __m128i;

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

        #[inline(always)]
        fn clamp_cell(self, last: Self) -> Self {
            // `max` answers its second operand when either is NaN.
            unsafe {
                let z = _mm_setzero_pd();
                Sse2(
                    _mm_min_pd(_mm_max_pd(self.0, z), last.0),
                    _mm_min_pd(_mm_max_pd(self.1, z), last.1),
                )
            }
        }

        #[inline(always)]
        fn outside(self, lo: Self, hi: Self) -> u64 {
            unsafe {
                let a = _mm_or_pd(_mm_cmpnge_pd(self.0, lo.0), _mm_cmpnlt_pd(self.0, hi.0));
                let b = _mm_or_pd(_mm_cmpnge_pd(self.1, lo.1), _mm_cmpnlt_pd(self.1, hi.1));
                (_mm_movemask_pd(a) | _mm_movemask_pd(b) << 2) as u64
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

    #[inline(always)]
    fn clamp_cell(self, last: Self) -> Self {
        // `max` answers the number when either operand is NaN.
        self.max(0.0).min(last)
    }

    #[inline(always)]
    fn outside(self, lo: Self, hi: Self) -> u64 {
        u64::from(!(lo <= self && self < hi))
    }
}

impl OwnerLanes for f64 {
    type Index = u32;

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

/// What the span body's wrap pass does with each group's final `x`:
/// nothing ([`NoMark`], the serial pool sweep), or set the group's leave
/// bits against a column interval ([`ColumnMarks`], the rank sweep).
pub(crate) trait Mark {
    /// `false` for [`NoMark`]: the span body then wraps `x` as the sweep
    /// without a mask always has, and asks nothing of the mark.
    const MARKS: bool;
    /// The group test at width `V`, built once per run of the body so its
    /// operands sit in registers: bit `j` set where lane `j` of the final
    /// `x` leaves.
    fn test<V: Lanes>(&self) -> impl Fn(V) -> u64 + Copy + use<Self, V>;
    /// OR `bits` into mask word `word`.
    fn put(&mut self, word: usize, bits: u64);
}

/// The mark that does nothing: its instantiation of the span body is the
/// sweep without a mask.
pub(crate) struct NoMark;

impl Mark for NoMark {
    const MARKS: bool = false;

    #[inline(always)]
    fn test<V: Lanes>(&self) -> impl Fn(V) -> u64 + Copy + use<V> {
        |_| 0
    }

    #[inline(always)]
    fn put(&mut self, _: usize, _: u64) {}
}

/// The leave bits of [`OwnerMap::Columns`] `{ lo, hi }` in `leave`: bit
/// `j % 64` of word `j / 64` set for each point `j` whose cell column
/// lies outside `lo..hi`.
pub(crate) struct ColumnMarks<'a> {
    last: f64,
    lo: f64,
    hi: f64,
    leave: &'a mut [u64],
}

impl<'a> ColumnMarks<'a> {
    pub(crate) fn new(grid: &Grid, lo: usize, hi: usize, leave: &'a mut [u64]) -> Self {
        ColumnMarks {
            last: (grid.ncells() - 1) as f64,
            lo: lo as f64,
            hi: hi as f64,
            leave,
        }
    }
}

impl<'a> Mark for ColumnMarks<'a> {
    const MARKS: bool = true;

    /// [`Lanes::clamp_cell`] then [`Lanes::outside`]: the one rule of
    /// the classifier's scan and of the sweep's wrap pass.
    #[inline(always)]
    fn test<V: Lanes>(&self) -> impl Fn(V) -> u64 + Copy + use<'a, V> {
        let (last, lo, hi) = (V::splat(self.last), V::splat(self.lo), V::splat(self.hi));
        move |x: V| x.clamp_cell(last).outside(lo, hi)
    }

    #[inline(always)]
    fn put(&mut self, word: usize, bits: u64) {
        self.leave[word] |= bits;
    }
}

/// The span kernel: one span of a store's columns, all in columns of
/// `q_left`'s parity, advanced in place from particle `from` on, each
/// group's final `x` handed to `mark` — the span's particle `j` at bit
/// `bit + j`.
struct Span<'a, M> {
    grid: &'a Grid,
    q_left: f64,
    x: &'a mut [f64],
    y: &'a mut [f64],
    vx: &'a mut [f64],
    vy: &'a mut [f64],
    q: &'a [f64],
    from: usize,
    mark: &'a mut M,
    bit: usize,
}

impl<M: Mark> LanesBody for Span<'_, M> {
    type Out = usize;

    /// Force-and-integrate over the whole groups of the span from `from`
    /// on, then the wrap pass; returns where it stopped. Eqs. 1–2 run lane
    /// per particle, the four corner evaluations in the oracle's pairing
    /// and summation order ([`group_force`]). The corner charges `q_left`
    /// and `−q_left` are hoisted: every particle of a span shares one
    /// column parity (the store's phase contract, [`crate::bin`]), so both
    /// splat once outside the loop.
    ///
    /// **The force fold.** A group whose lanes all sit exactly at the cell
    /// centre on both axes ([`mid_cell_lanes`], tested on the `rx`, `ry`,
    /// `rxh`, `ryh` the kernel itself computed) has `rx = ry = ½` in every
    /// lane; if every lane's charge also equals the charge of the run's
    /// first particle (the span charge, tested on the loaded `q` lanes),
    /// every lane feels one force. [`group_force`] evaluates it once per
    /// run, on splatted centre operands `(½, ½, ½ − 1)` and the span
    /// charge, and [`Kick`] turns it into the four constants `½·ax`,
    /// `½·ay`, `ax`, `ay`; such a group runs only the integration adds and
    /// the wrap. The constants are the loop's own operations on the same
    /// bits, so the result is bit-identical by construction (DESIGN.md
    /// §10). `Lanes::all_eq` is exact bit equality only for a non-zero,
    /// non-NaN span charge (`−0.0 == +0.0`), so a span whose first charge
    /// is `±0.0` or NaN never force-folds.
    ///
    /// Any other group runs [`group_force`] itself, with the corner folds
    /// that hold — as a whole, on the axes where all its lanes are
    /// centred. At one lane (span tails, the `Scalar` backend) a group is
    /// one particle, and the folds apply to it alone.
    ///
    /// **The wrap pass** takes each group's final `x`, then `y`, through
    /// [`wrap_group`] and hands the wrapped `x` vector to the mark: under
    /// [`ColumnMarks`] two compares on a clamp set the group's leave bits
    /// while `x` is in a register, so the drain need not load it again.
    #[inline(always)]
    unsafe fn run<V: Lanes>(&mut self) -> usize {
        let from = self.from;
        let groups = (self.x.len() - from) / V::WIDTH;
        if groups == 0 {
            return from;
        }
        // Per-particle invariant checks, hoisted out of the loop (debug
        // builds only).
        #[cfg(debug_assertions)]
        for i in from..from + groups * V::WIDTH {
            let (col, row) = self.grid.cell_of_point(self.x[i], self.y[i]);
            debug_assert_eq!((col, row), (self.x[i] as usize, self.y[i] as usize));
            let q_left = crate::charge::mesh_charge(col);
            debug_assert_eq!(q_left, self.q_left, "parity drift at x={}", self.x[i]);
        }
        // SAFETY: the five columns have one length (asserted by
        // `advance_bin_span_simd`), and the whole groups from `from` lie
        // inside it; x, y, vx and vy are distinct columns.
        let [x, y, vx, vy] = [&mut self.x, &mut self.y, &mut self.vx, &mut self.vy]
            .map(|c| c.as_mut_ptr().add(from));
        let q = self.q.as_ptr().add(from);
        let one = V::splat(1.0);
        let (ql, qr) = (V::splat(self.q_left), V::splat(-self.q_left));
        // A NaN span charge fails every `all_eq`, so a `±0.0` one folds nothing.
        let q_span = V::splat(if *q == 0.0 { f64::NAN } else { *q });
        let folded = centre_kick(ql, qr, q_span);
        for o in (0..groups).map(|g| g * V::WIDTH) {
            let xi = V::load(x.add(o));
            let yi = V::load(y.add(o));
            // `cell_of` minus the defensive clamp: wrapped coordinates lie
            // in [0, L), where truncation alone yields the identical
            // column/row index.
            let col = xi.trunc();
            let row = yi.trunc();
            let rx = xi.sub(col);
            let ry = yi.sub(row);
            let (rxh, ryh) = (rx.sub(one), ry.sub(one));
            let r = [rx, ry, rxh, ryh];
            let qp = V::load(q.add(o));
            let mid_height = mid_cell_lanes(ry, ryh);
            let mid_width = mid_cell_lanes(rx, rxh);
            let kick = if mid_height && mid_width && qp.all_eq(q_span) {
                debug_assert_force_fold(folded, r, [ql, qr, qp]);
                folded
            } else {
                Kick::of(group_force(r, [ql, qr, qp], [mid_height, mid_width]))
            };
            let vxi = V::load(vx.add(o));
            let vyi = V::load(vy.add(o));
            // x += vx + 0.5·ax — same association as the oracle.
            xi.add(vxi.add(kick.x)).store(x.add(o));
            yi.add(vyi.add(kick.y)).store(y.add(o));
            vxi.add(kick.vx).store(vx.add(o));
            vyi.add(kick.vy).store(vy.add(o));
        }
        let (grid, l) = (self.grid, self.grid.extent());
        if M::MARKS {
            wrap_marking::<V, M>(grid, l, x, groups, self.bit + from, self.mark);
        } else {
            for o in (0..groups).map(|g| g * V::WIDTH) {
                wrap_group::<V>(grid, l, x.add(o));
            }
        }
        for o in (0..groups).map(|g| g * V::WIDTH) {
            wrap_group::<V>(grid, l, y.add(o));
        }
        from + groups * V::WIDTH
    }
}

/// The wrap pass over `groups` groups of `x` that also hands each group's
/// wrapped lanes to `mark`'s test, the first group at mask bit `bit`. Whole
/// mask words gather in a register, one group after another at constant
/// shifts, and are stored once; the groups of a part word (a span's last
/// few, or a one-lane tail that starts inside a word) are stored one by
/// one. `bit` is a multiple of `WIDTH`, which divides 64, so no group
/// straddles a word.
///
/// # Safety
/// `x` must be valid for reading and writing `groups · V::WIDTH` f64
/// values.
#[inline(always)]
unsafe fn wrap_marking<V: Lanes, M: Mark>(
    grid: &Grid,
    l: f64,
    x: *mut f64,
    groups: usize,
    bit: usize,
    mark: &mut M,
) {
    debug_assert_eq!(bit % V::WIDTH, 0, "a group straddles a mask word");
    let leaves = mark.test::<V>();
    let n = groups * V::WIDTH;
    let mut o = 0;
    if bit.is_multiple_of(64) {
        while o + 64 <= n {
            let mut word = 0;
            for g in 0..64 / V::WIDTH {
                let xi = wrap_group::<V>(grid, l, x.add(o + g * V::WIDTH));
                word |= leaves(xi) << (g * V::WIDTH);
            }
            mark.put((bit + o) / 64, word);
            o += 64;
        }
    }
    while o < n {
        let j = bit + o;
        mark.put(
            j / 64,
            leaves(wrap_group::<V>(grid, l, x.add(o))) << (j % 64),
        );
        o += V::WIDTH;
    }
}

/// The periodic wrap of one group in place, returning its wrapped lanes: a
/// vector range test against `[0, l)`, `l` the grid's extent, selects the
/// (overwhelmingly common) all-in-domain fast path; a group with an
/// escaped lane goes through the exact scalar [`Grid::wrap_coord`], so the
/// pass is bit-identical to the oracle's wrap by construction.
///
/// # Safety
/// `p` must be valid for reading and writing `V::WIDTH` f64 values.
#[inline(always)]
unsafe fn wrap_group<V: Lanes>(grid: &Grid, l: f64, p: *mut f64) -> V {
    let v = V::load(p);
    if v.all_in_range(l) {
        return v;
    }
    wrap_lanes(grid, p, V::WIDTH);
    V::load(p)
}

/// [`Grid::wrap_coord`] on `n` values in place: the rare escaped group,
/// kept out of line so the wrap loops stay small enough to unroll.
///
/// # Safety
/// `p` must be valid for reading and writing `n` f64 values.
#[cold]
#[inline(never)]
unsafe fn wrap_lanes(grid: &Grid, p: *mut f64, n: usize) {
    for k in 0..n {
        *p.add(k) = grid.wrap_coord(*p.add(k));
    }
}

/// What one step's acceleration `(ax, ay)` adds per lane: `½·a` to the
/// velocity that moves the position, `a` to the velocity itself — the
/// oracle's `0.5·a` and `a`.
#[derive(Clone, Copy)]
struct Kick<V> {
    x: V,
    y: V,
    vx: V,
    vy: V,
}

impl<V: Lanes> Kick<V> {
    #[inline(always)]
    fn of((ax, ay): (V, V)) -> Self {
        let half = V::splat(0.5);
        Kick {
            x: half.mul(ax),
            y: half.mul(ay),
            vx: ax,
            vy: ay,
        }
    }

    #[inline(always)]
    fn lanes(self) -> [[f64; 8]; 4] {
        [self.x, self.y, self.vx, self.vy].map(lanes_of)
    }
}

/// The force fold's constants: [`group_force`] at the exact cell centre,
/// `r = (½, ½, ½ − 1, ½ − 1)` in every lane, with both corner folds and
/// the span charge, turned into a [`Kick`].
#[inline(always)]
fn centre_kick<V: Lanes>(ql: V, qr: V, q_span: V) -> Kick<V> {
    let (c, one) = (V::splat(0.5), V::splat(1.0));
    let r = [c, c, c.sub(one), c.sub(one)];
    Kick::of(group_force(r, [ql, qr, q_span], [true, true]))
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
        // `dx·dx + dy·dy` per lane, as the kernel computes it.
        let [a, b] = [kept, reused].map(|(dx, dy)| lanes_of(dx.mul(dx).add(dy.mul(dy))));
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
fn debug_assert_force_fold<V: Lanes>(folded: Kick<V>, r: [V; 4], q: [V; 3]) {
    if !cfg!(debug_assertions) {
        return;
    }
    let unfolded = Kick::of(group_force(r, q, [false, false]));
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

/// The lanes of `v` (the first `V::WIDTH` entries), for the debug checks.
#[inline(always)]
fn lanes_of<V: Lanes>(v: V) -> [f64; 8] {
    let mut out = [0.0; 8];
    // SAFETY: the array holds the widest backend's eight lanes.
    unsafe { v.store(out.as_mut_ptr()) };
    out
}

/// Advance one span with the selected backend: its whole groups at the
/// backend's width, the rest (all of it on `Scalar`) through the same body
/// at one lane — bit-identical to the AoS oracle on every backend, for a
/// span whose particles all sit in columns of `q_left`'s parity. Every
/// particle's final `x` goes to `mark`, the span's particle `j` at bit
/// `bit + j` (a multiple of the widest group, so each group's bits share
/// one mask word).
///
/// # Panics
/// If the columns differ in length, or this CPU does not run `backend`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn advance_bin_span_simd<M: Mark>(
    backend: SimdBackend,
    grid: &Grid,
    q_left: f64,
    x: &mut [f64],
    y: &mut [f64],
    vx: &mut [f64],
    vy: &mut [f64],
    q: &[f64],
    mark: &mut M,
    bit: usize,
) {
    let n = x.len();
    assert!(y.len() == n && vx.len() == n && vy.len() == n && q.len() == n);
    let mut span = Span {
        grid,
        q_left,
        x,
        y,
        vx,
        vy,
        q,
        from: 0,
        mark,
        bit,
    };
    span.from = backend.run(&mut span);
    SimdBackend::Scalar.run(&mut span);
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

/// The owner classifier: sets bit `j % 64` of `leave[j / 64]` for each
/// point `j` of `x`/`y`, from `from` on, that leaves `map`.
struct Leavers<'a> {
    grid: &'a Grid,
    map: &'a OwnerMap<'a>,
    x: &'a [f64],
    y: &'a [f64],
    leave: &'a mut [u64],
    from: usize,
}

impl OwnerBody for Leavers<'_> {
    type Out = usize;

    /// The whole groups from `from` (a multiple of `WIDTH`) on, at the
    /// width of `V`. Returns where it stopped.
    #[inline(always)]
    unsafe fn run<V: OwnerLanes>(&mut self) -> usize {
        let from = self.from;
        let end = from + (self.x.len() - from) / V::WIDTH * V::WIDTH;
        let (xp, yp) = (self.x.as_ptr(), self.y.as_ptr());
        // `WIDTH` divides 64 and `from`, so a group's lanes share one word.
        match *self.map {
            OwnerMap::Columns { lo, hi } => {
                let leaves = ColumnMarks::new(self.grid, lo, hi, &mut []).test::<V>();
                for o in (from..end).step_by(V::WIDTH) {
                    // SAFETY: whole groups lie inside `x`.
                    self.leave[o / 64] |= leaves(V::load(xp.add(o))) << (o % 64);
                }
            }
            OwnerMap::Cells { table, me } => {
                let last = V::splat((self.grid.ncells() - 1) as f64);
                let lanes = u64::MAX >> (64 - V::WIDTH);
                let (_, _, core) = table.tables();
                for o in (from..end).step_by(V::WIDTH) {
                    // SAFETY: whole groups lie inside `x` and `y` (equal
                    // lengths, asserted by the caller).
                    let i = cell_index::<V>(table, last, xp.add(o), yp.add(o));
                    // SAFETY: every `col[c] + row[r]` of a table indexes its
                    // `core` (`OwnerTable` builds it so).
                    let keep = V::index_eq(V::gather(core.as_ptr(), i), me);
                    self.leave[o / 64] |= (!keep & lanes) << (o % 64);
                }
            }
        }
        end
    }
}

/// The unit count: `counts[col[c] + row[r]] += 1` for each point's cell,
/// from `from` on.
struct Count<'a> {
    grid: &'a Grid,
    table: &'a OwnerTable,
    x: &'a [f64],
    y: &'a [f64],
    counts: &'a mut [u64],
    from: usize,
}

impl OwnerBody for Count<'_> {
    type Out = usize;

    /// The whole groups from `from` on, at the width of `V`. Returns where
    /// it stopped.
    #[inline(always)]
    unsafe fn run<V: OwnerLanes>(&mut self) -> usize {
        let (x, y, from, counts) = (self.x, self.y, self.from, &mut *self.counts);
        let end = from + (x.len() - from) / V::WIDTH * V::WIDTH;
        let last = V::splat((self.grid.ncells() - 1) as f64);
        let mut idx = [0u32; 8];
        for o in (from..end).step_by(V::WIDTH) {
            // SAFETY: whole groups lie inside `x` and `y` (equal lengths,
            // asserted by the caller), and the table spans the grid.
            let i = cell_index::<V>(self.table, last, x.as_ptr().add(o), y.as_ptr().add(o));
            V::store_index(i, idx.as_mut_ptr());
            for &i in &idx[..V::WIDTH] {
                counts[i as usize] += 1;
            }
        }
        end
    }
}

/// Classify `x`/`y` against `map` with the selected backend: the whole
/// groups on a backend with a gather (AVX-512, AVX2), the rest (all of it
/// on SSE2 and `Scalar`) through the same body at one lane. The map's
/// `Classifier::leavers` asserts equal lengths and the table's span.
pub(crate) fn owner_leavers(
    backend: SimdBackend,
    grid: &Grid,
    map: &OwnerMap,
    x: &[f64],
    y: &[f64],
    leave: &mut [u64],
) {
    let mut body = Leavers {
        grid,
        map,
        x,
        y,
        leave,
        from: 0,
    };
    body.from = backend.run_owner(&mut body);
    SimdBackend::Scalar.run_owner(&mut body);
}

/// Count the points per unit with the selected backend
/// ([`OwnerTable::count_into`], which asserts equal lengths and the
/// table's span), split as in [`owner_leavers`].
pub(crate) fn count_cells(
    backend: SimdBackend,
    grid: &Grid,
    table: &OwnerTable,
    x: &[f64],
    y: &[f64],
    counts: &mut [u64],
) {
    let mut body = Count {
        grid,
        table,
        x,
        y,
        counts,
        from: 0,
    };
    body.from = backend.run_owner(&mut body);
    SimdBackend::Scalar.run_owner(&mut body);
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
                q: particle_charge(k, sign_for_direction(col, 1)),
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
        for backend in SimdBackend::available() {
            for len in (0..=16).chain([17, 37]) {
                // Column 6 with stride 1: wraps off the right edge within
                // a few steps, exercising the escaped-lane wrap path.
                let mut b = column_population(&grid, 6, len, 0);
                let mut want = b.to_particles();
                for step in 0..5 {
                    want.iter_mut().for_each(|p| advance_particle(&grid, p));
                    let ql = b.x.first().map_or(1.0, |&x| mesh_charge(x as usize));
                    let (x, y, vx, vy) = (&mut b.x[..], &mut b.y[..], &mut b.vx[..], &mut b.vy[..]);
                    advance_bin_span_simd(backend, &grid, ql, x, y, vx, vy, &b.q, &mut NoMark, 0);
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
        let col = (1 << 31) - 3;
        for backend in SimdBackend::available() {
            for k in [0, 1] {
                let mut b = column_population(&grid, col, 9, k);
                let mut want = b.to_particles();
                want.iter_mut().for_each(|p| advance_particle(&grid, p));
                let ql = mesh_charge(col);
                let (x, y, vx, vy) = (&mut b.x[..], &mut b.y[..], &mut b.vx[..], &mut b.vy[..]);
                advance_bin_span_simd(backend, &grid, ql, x, y, vx, vy, &b.q, &mut NoMark, 0);
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
                        want.iter_mut().for_each(|p| advance_particle(&grid, p));
                        let (x, y, vx, vy) =
                            (&mut b.x[..], &mut b.y[..], &mut b.vx[..], &mut b.vy[..]);
                        let ql = x.first().map_or(1.0, |&x| mesh_charge(x as usize));
                        advance_bin_span_simd(
                            backend,
                            &grid,
                            ql,
                            x,
                            y,
                            vx,
                            vy,
                            &b.q,
                            &mut NoMark,
                            0,
                        );
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

    /// The fold premise on eight `ry` values, through one backend's lanes.
    struct Premise([f64; 8]);

    impl LanesBody for Premise {
        type Out = bool;
        unsafe fn run<V: Lanes>(&mut self) -> bool {
            let ry = V::load(self.0.as_ptr());
            mid_cell_lanes(ry, ry.sub(V::splat(1.0)))
        }
    }

    /// [`Lanes::WIDTH`] on each backend.
    pub(super) struct Width;

    impl LanesBody for Width {
        type Out = usize;
        unsafe fn run<V: Lanes>(&mut self) -> usize {
            V::WIDTH
        }
    }

    /// The premise helper is exact: true at `ry = ½` in every lane,
    /// false as soon as any single lane is one ulp either side, elsewhere
    /// in the cell, or NaN — on every backend, one lane included.
    #[test]
    fn fold_premise_is_exact_in_every_lane() {
        let off = [0.5f64.next_up(), 0.5f64.next_down(), 0.25, 0.0, f64::NAN];
        for backend in SimdBackend::available() {
            let holds = |ry: [f64; 8]| backend.run(&mut Premise(ry));
            assert!(holds([0.5; 8]), "backend {}", backend.name());
            for lane in 0..backend.lanes() {
                for ry in off {
                    let mut lanes = [0.5; 8];
                    lanes[lane] = ry;
                    assert!(
                        !holds(lanes),
                        "backend {} lane {lane} ry {ry:e}",
                        backend.name()
                    );
                }
            }
        }
    }

    /// The force fold's constants through one backend: [`centre_kick`]
    /// for corner charge `q_left` and span charge `q_span`, as the lanes
    /// of `½·ax`, `½·ay`, `ax`, `ay`.
    struct CentreKick(f64, f64);

    impl LanesBody for CentreKick {
        type Out = [[f64; 8]; 4];
        unsafe fn run<V: Lanes>(&mut self) -> [[f64; 8]; 4] {
            let (ql, qr) = (V::splat(self.0), V::splat(-self.0));
            centre_kick(ql, qr, V::splat(self.1)).lanes()
        }
    }

    /// The force fold never changes a bit. Its constants are the unfolded
    /// force: on every executable backend, one lane included, every lane of
    /// [`centre_kick`] carries the bits of the four `coulomb` corners at
    /// `(½, ½)`, paired and integrated as `total_force` and the eqs. 1–2
    /// step do, for both corner charges and span charges `±1e−300`, `±1`,
    /// `±1e300`. And one span-kernel step equals
    /// [`crate::motion::advance_particle`] per particle, bitwise, on every
    /// backend: for a span of particles of one such charge (two full 8-lane
    /// groups and a tail) at the cell centre, and at offset `0.25` in the
    /// cell, where nothing folds; and for spans whose first charge is
    /// `+0.0`, `−0.0` or NaN, which must not fold. The zero spans carry the
    /// other signed zero in every other lane and `vx = −0.0`, so a force
    /// folded from the wrong zero shows in the sign of `vx`.
    #[test]
    fn force_fold_is_the_unfolded_force() {
        use crate::charge::coulomb;
        use crate::motion::advance_particle;
        let charges = [1e-300, -1e-300, 1.0, -1.0, 1e300, -1e300];
        for q_left in [1.0, -1.0] {
            for q_span in charges {
                let c = 0.5;
                let (fx0, fy0) = coulomb(c, c, q_left, q_span);
                let (fx1, fy1) = coulomb(c, c - 1.0, q_left, q_span);
                let (fx2, fy2) = coulomb(c - 1.0, c, -q_left, q_span);
                let (fx3, fy3) = coulomb(c - 1.0, c - 1.0, -q_left, q_span);
                let (ax, ay) = ((fx0 + fx1) + (fx2 + fx3), (fy0 + fy1) + (fy2 + fy3));
                let want = [0.5 * ax, 0.5 * ay, ax, ay];
                for backend in SimdBackend::available() {
                    let got = backend.run(&mut CentreKick(q_left, q_span));
                    for (lanes, want) in got.iter().zip(want) {
                        for got in &lanes[..backend.lanes()] {
                            assert!(
                                same_bits(*got, want),
                                "backend {} q_left {q_left} q_span {q_span:e}: \
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
        let spans: Vec<&Vec<f64>> = spans.iter().collect();
        for backend in SimdBackend::available() {
            for (c, col, span) in product3(&[0.5, 0.25], &[2, 3], &spans) {
                let mut b = column_population(&grid, col, span.len(), 0);
                for (i, &q) in span.iter().enumerate() {
                    b.x[i] = col as f64 + c;
                    b.y[i] = i as f64 + c;
                    b.q[i] = q;
                    b.vx[i] = if q == 0.0 { -0.0 } else { 0.0 };
                }
                let mut want = b.to_particles();
                want.iter_mut().for_each(|p| advance_particle(&grid, p));
                let (x, y, vx, vy) = (&mut b.x[..], &mut b.y[..], &mut b.vx[..], &mut b.vy[..]);
                advance_bin_span_simd(
                    backend,
                    &grid,
                    mesh_charge(col),
                    x,
                    y,
                    vx,
                    vy,
                    &b.q,
                    &mut NoMark,
                    0,
                );
                for (i, w) in want.iter().enumerate() {
                    let got = b.get(i);
                    assert!(
                        [(got.x, w.x), (got.y, w.y), (got.vx, w.vx), (got.vy, w.vy)]
                            .iter()
                            .all(|&(a, b)| same_bits(a, b)),
                        "backend {} offset {c} column {col} span charge {:e}: \
                         particle {i} is {got:?}, reference {w:?}",
                        backend.name(),
                        span[0],
                    );
                }
            }
        }
    }

    /// Eight coordinates through one backend's clamp and `u32` convert,
    /// `last` the last cell index.
    struct LaneCells([f64; 8], f64);

    impl OwnerBody for LaneCells {
        type Out = [u32; 8];
        unsafe fn run<V: OwnerLanes>(&mut self) -> [u32; 8] {
            let mut out = [0u32; 8];
            for o in (0..8).step_by(V::WIDTH) {
                let x = V::load(self.0.as_ptr().add(o));
                V::store_index(
                    x.clamp_cell(V::splat(self.1)).index(),
                    out.as_mut_ptr().add(o),
                );
            }
            out
        }
    }

    /// The owner classifiers' cell index is `Grid::cell_of`'s,
    /// `(x as usize).min(last)`, in every lane of every backend with the
    /// ops (one lane included), up to the widest grid ([`Grid::new`] caps
    /// the last index at `i32::MAX`, 2³¹ − 1), and for NaN, ±∞ and
    /// negatives.
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
                    let got = backend.run_owner(&mut LaneCells(x, top));
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
        for backend in SimdBackend::available() {
            let width = backend.lanes().max(4);
            for lane in 0..width {
                let mut b = column_population(&grid, 2, width, 0);
                b.x[lane] = 2.0; // exactly on the bottom-left corner
                b.y[lane] = 3.0;
                let (x, y, vx, vy) = (&mut b.x[..], &mut b.y[..], &mut b.vx[..], &mut b.vy[..]);
                advance_bin_span_simd(
                    backend,
                    &grid,
                    mesh_charge(2),
                    x,
                    y,
                    vx,
                    vy,
                    &b.q,
                    &mut NoMark,
                    0,
                );
                for i in 0..width {
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

    /// Safe code can name any variant, so the dispatchers run a body only
    /// on a CPU that runs its backend: every variant either runs through
    /// both or panics naming itself, and `available` lists exactly the
    /// variants the CPU runs.
    #[test]
    fn dispatch_refuses_a_backend_the_cpu_lacks() {
        for &backend in SimdBackend::ALL {
            let (name, listed) = (backend.name(), SimdBackend::available().contains(&backend));
            assert_eq!(listed, backend.runs_here(), "{name}");
            let ran = std::panic::catch_unwind(|| {
                backend.run(&mut Width);
                backend.run_owner(&mut LaneCells([0.5; 8], 1.0))
            });
            let refusal = format!("SIMD backend {name} is not supported by this CPU");
            match ran {
                Ok(cells) => assert_eq!((cells, backend.runs_here()), ([0; 8], true)),
                Err(panic) => {
                    let msg = panic.downcast_ref::<String>().unwrap();
                    assert!(*msg == refusal && !backend.runs_here(), "{msg}");
                }
            }
        }
    }
}
