//! SIMD fragment pipeline for the packed executors.
//!
//! The scalar fast path in [`super`] walks one `BufferEntry` pair at a
//! time: per element-chunk it multiplies up to nine 24-bit half-product
//! mantissas and reduces them in a 128-bit window. This module replaces
//! that inner loop with a vectorized pipeline that processes a whole
//! fragment row (8 output columns) per step, built on two observations:
//!
//! 1. **The hi/lo split is exact reassociation.** For finite operands the
//!    four half-products of one FP32 element pair sum to exactly
//!    `a·b = (a_hi + a_lo)(b_hi + b_lo)` — and the full product of two
//!    `f32` values (at most 24-bit significands) is *exactly*
//!    representable in `f64` (48 < 53 bits, exponents in ±298 ⊂ f64
//!    range). The same holds per quantised element in the narrow modes
//!    (≤ 12-bit mantissas) and per component product in FP32C. So the
//!    exact pre-rounding chunk value `seed + Σ_k a_k·b_k` can be formed
//!    from a handful of exact `f64` products instead of 2–4x as many
//!    split-mantissa integer products.
//! 2. **Rounding is per fragment, not per lane.** The bit-exactness
//!    contract fixes *what* each fragment drain must round — the exact
//!    real value above — not *how* the products are produced. Any
//!    pipeline that reduces the same exact value through the shared
//!    `fast_round_f32` is bit-identical by construction.
//!
//! The row products (`row_products`, `row_products_c32`) are portable
//! 8-column loops of exact `f64` products out of the planar `f32` value
//! planes built at pack time ([`super::PackedOperand`] stores the `B`
//! side k-major so one row touches 8 consecutive columns). `dispatch`
//! compiles each panel body once per level: at `Avx2` inside one
//! `#[target_feature(enable = "avx2,fma")]` frame, where the loops
//! become `vcvtps2pd` + `vmulpd` four lanes per instruction; at `Avx512`
//! inside an x86-64-v4 frame, eight lanes, a whole fragment row per
//! zmm register; and below them in the baseline build, two lanes at
//! `Sse2`. Each column's products are then decoded and reduced exactly
//! in the same 128-bit window / rounder as the scalar path. At the two
//! x86 levels above SSE2 both halves run in the kernels no compiler
//! derives from scalar code: `x86::accumulate_chunk_avx2` builds the
//! windows four columns per register and `x86::round_chunk_avx2` drains
//! them to FP32 straight into the row's decoded accumulators
//! (`RowSeeds`); `x86::accumulate_chunk_avx512` and
//! `x86::round_chunk_avx512` do the same eight columns per register,
//! with k-masks, masked min/max and stores, unsigned compares and
//! `vplzcntq` in place of AVX2's compare-selects, sign-bias carries and
//! magic-constant leading bit. The decoded accumulators stay in vector
//! form for a whole `K`-panel at every level; the row's f32 values are
//! assembled once, at panel end.
//!
//! Anything the window cannot prove exact falls back **per
//! element-chunk** to the scalar executor, which remains the
//! differential oracle: a non-finite product (which subsumes every
//! special-operand case), or contributions whose bits span more than the
//! `i128` can sum — the admission test charges the seed its real 24 bits
//! and each product 53 (`WINDOW_POW_SPAN`), so a running sum beside a
//! product some 2^-54 smaller, as in the GEMM-FFT's DFT matrices, stays
//! on the vector path. The kill switch
//! `M3XU_SIMD=0` (or [`set_level`]`(SimdLevel::Scalar)`) routes every
//! element through that oracle path.
//!
//! Two modes need one more identity each:
//!
//! * **Fast FP32** issues only `hi_a·hi_b + hi_a·lo_b + lo_a·hi_b` of the
//!   12|12 slice split. That equals `a·b − lo_a·lo_b`, and with `lo(x) =
//!   x − (x & HI_MASK)` computed in-register (exact for every finite
//!   `f32`) both products are exact in `f64`, and so is their difference,
//!   which spans at most 37 bits. So the truncated row product costs,
//!   per four columns, one `vandps`, `vsubps`, `vcvtps2pd`, `vmulpd` and
//!   `vsubpd` more; the window and both drains apply unchanged. A
//!   non-finite operand makes `lo` a NaN, so the product still aborts.
//! * **Emulated FP64** runs at `frag_k = 1` with lossless slices, so each
//!   chunk is `round_f64(seed + a·b)`: one IEEE fused multiply-add.
//!   `fma_row` does it eight columns at a time out of the `f64` value
//!   planes, on `vfmadd` at `Avx2` (which therefore requires FMA), on one
//!   zmm `vfmadd` at `Avx512` and on `f64::mul_add` below them. A zero or
//!   non-finite result goes to the slice oracle, which rounds an
//!   exact-zero sum to `+0` and owns NaN payloads and overflow.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Once;

/// Vector width class the packed executors dispatch to, resolved once per
/// process from `M3XU_SIMD` and runtime CPU feature detection. Levels are
/// ordered by width: a host that runs one runs every level below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// The original entry-at-a-time executors (the differential oracle).
    Scalar,
    /// The panel bodies in the baseline build: 2-lane `f64` products
    /// (baseline on every `x86_64`).
    Sse2,
    /// The panel bodies built with AVX2 and FMA: 4-lane `f64` products,
    /// the vector window kernels and the `vfmadd` emulated-FP64 row
    /// (runtime-detected: the host must have both AVX2 and FMA).
    Avx2,
    /// The panel bodies built for x86-64-v4: a fragment row's 8 columns
    /// in one zmm register, for the products, the k-mask window kernels
    /// and the emulated-FP64 row (runtime-detected: AVX-512 F, CD, DQ, BW
    /// and VL beside AVX2 and FMA).
    Avx512,
}

impl SimdLevel {
    fn from_u8(v: u8) -> SimdLevel {
        match v {
            3 => SimdLevel::Avx512,
            2 => SimdLevel::Avx2,
            1 => SimdLevel::Sse2,
            _ => SimdLevel::Scalar,
        }
    }
}

/// Unresolved sentinel for the process-wide level cell.
const LEVEL_UNSET: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

/// The widest level this build/host can execute.
fn detected() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        // SSE2 is architecturally guaranteed on x86_64. The Avx2 level
        // also runs the emulated-FP64 row kernel on `vfmadd`, so it needs
        // FMA beside AVX2; the Avx512 frame enables all of x86-64-v4.
        use std::is_x86_feature_detected as has;
        if !(has!("avx2") && has!("fma")) {
            SimdLevel::Sse2
        } else if has!("avx512f")
            && has!("avx512cd")
            && has!("avx512dq")
            && has!("avx512bw")
            && has!("avx512vl")
        {
            SimdLevel::Avx512
        } else {
            SimdLevel::Avx2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::Scalar
    }
}

/// The level an `M3XU_SIMD` value asks for, trimmed and case-folded:
/// `0`/`scalar`/`off` kill the vector path, `sse2`/`avx2`/`avx512` force a
/// width, and `1` asks for `cap`, the detected level. `None` for anything
/// else.
fn parse_level(v: &str, cap: SimdLevel) -> Option<SimdLevel> {
    match v.trim().to_ascii_lowercase().as_str() {
        "0" | "scalar" | "off" => Some(SimdLevel::Scalar),
        "sse2" => Some(SimdLevel::Sse2),
        "avx2" => Some(SimdLevel::Avx2),
        "avx512" => Some(SimdLevel::Avx512),
        "1" => Some(cap),
        _ => None,
    }
}

/// Resolve the level from `M3XU_SIMD` (see [`parse_level`]), clamped to
/// what the host supports. Unset auto-detects; a value the parser does
/// not know, or a non-unicode one, auto-detects after a one-time `stderr`
/// warning (a mistyped kill switch must not leave the vector path on
/// silently).
fn resolve() -> SimdLevel {
    static WARN: Once = Once::new();
    let cap = detected();
    let req = match std::env::var_os("M3XU_SIMD") {
        None => cap,
        Some(v) => v
            .to_str()
            .and_then(|s| parse_level(s, cap))
            .unwrap_or_else(|| {
                WARN.call_once(|| {
                    eprintln!(
                        "m3xu: ignoring unrecognised M3XU_SIMD={v:?}; using the detected level"
                    );
                });
                cap
            }),
    };
    clamp(req, cap)
}

/// The requested level, lowered to `cap` when the host cannot run it.
fn clamp(req: SimdLevel, cap: SimdLevel) -> SimdLevel {
    req.min(cap)
}

/// The active dispatch level (resolved on first use).
pub fn level() -> SimdLevel {
    match LEVEL.load(Ordering::Relaxed) {
        LEVEL_UNSET => {
            let l = resolve();
            LEVEL.store(l as u8, Ordering::Relaxed);
            l
        }
        v => SimdLevel::from_u8(v),
    }
}

/// Override the dispatch level (clamped to the host's capability) — for
/// benchmarks and tests that compare the paths within one process. Every
/// level produces bit-identical results; only the instruction mix
/// changes.
pub fn set_level(l: SimdLevel) {
    LEVEL.store(clamp(l, detected()) as u8, Ordering::Relaxed);
}

/// Serializes the unit tests that move the process-wide level.
#[cfg(test)]
pub(crate) static TEST_LEVEL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The vector levels this host can run.
#[cfg(test)]
pub(crate) fn vector_levels() -> Vec<SimdLevel> {
    [SimdLevel::Sse2, SimdLevel::Avx2, SimdLevel::Avx512]
        .into_iter()
        .filter(|&l| clamp(l, detected()) == l)
        .collect()
}

/// Output columns each row kernel covers — one fragment row.
pub(crate) const COLS: usize = 8;

/// Largest `frag.k` any mode's fragment shape reaches (FP16/BF16).
pub(crate) const MAX_KLEN: usize = 4;

/// Significand width of a chunk seed: an f32 significand, or the
/// fraction a rounder keeps (renormalised after its carry), so always
/// below `2^24`.
const SEED_BITS: i32 = 24;

/// Significand width of an `f64` product, implicit bit included.
const PRODUCT_BITS: i32 = 53;

/// The bits of an `f32` its high 12-bit slice keeps — sign, exponent and
/// the fraction bits above [`crate::buffer::decode_fp32`]'s split — so
/// `hi(x) = from_bits(x.to_bits() & HI_MASK)` and `lo(x) = x − hi(x)`,
/// both exact for every finite `x`, subnormals included.
const HI_MASK: u32 = !((1 << m3xu_fp::split::FP32_SLICES_EXACT.bits_below(0)) - 1);

/// The low slice `x − hi(x)` of an `f32` (see [`HI_MASK`]). A non-finite
/// `x` gives NaN (`∞ − ∞`), which keeps the truncated product non-finite.
#[inline(always)]
fn lo_f32(x: f32) -> f32 {
    x - f32::from_bits(x.to_bits() & HI_MASK)
}

/// Largest power spread `pmax − pmin` the 128-bit window admits. `pmin`
/// is the lowest power among the nonzero contributions — the window's
/// anchor `base` — and `pmax` the highest, except that the seed's power
/// enters `pmax` lowered by `PRODUCT_BITS − SEED_BITS`.
///
/// Why it is safe: a contribution of width `w` whose least bit weighs
/// `2^p` is below `2^(p + w)`, so once shifted into the window it is
/// below `2^D`, where `D` is the highest `p + w` over the nonzero
/// contributions minus `base`. With the seed charged `SEED_BITS` and
/// each product `PRODUCT_BITS`, `D = pmax + PRODUCT_BITS − pmin`. The
/// window sums at most `1 + MAX_KLEN = 5` contributions, so every
/// partial sum is below `5·2^D < 2^(D + 3)`, and the `i128` cannot
/// overflow while `D + 3 ≤ 127`. Hence `D ≤ 124`, i.e. `pmax − pmin ≤
/// 124 − 53 = 71`. The sum's leading bit then sits at 126 or below,
/// which every drain (`fast_round_parts`, `x86::round_chunk_avx2`,
/// `x86::round_chunk_avx512`) handles.
const WINDOW_POW_SPAN: i32 = {
    // Bits a sum of `1 + MAX_KLEN` contributions can carry past the
    // widest one: ⌈log2 5⌉ = 3.
    let carry = (1 + MAX_KLEN).next_power_of_two().trailing_zeros() as i32;
    i128::BITS as i32 - 1 - carry - PRODUCT_BITS
};

// The proof above, checked: `1 + MAX_KLEN` contributions just below
// `2^D` fit the `i128`, one bit more would not, and the seed is the
// narrower contribution.
const _: () = {
    let d = (PRODUCT_BITS + WINDOW_POW_SPAN) as u32;
    let terms = (1 + MAX_KLEN) as u128;
    assert!(terms * ((1 << d) - 1) <= i128::MAX as u128);
    assert!(terms * ((1 << (d + 1)) - 1) > i128::MAX as u128);
    assert!(SEED_BITS <= PRODUCT_BITS);
};

/// A fragment accumulator element in decoded form: the exact value is
/// `±mant · 2^pow` (`mant` is below `2^SEED_BITS` — an f32 significand
/// or a rounder's kept fraction). Panel kernels thread this through the
/// per-column chunk chain so consecutive chunks hand off
/// mantissa/power/sign directly instead of assembling an f32 and
/// re-decoding it — the assemble/decode pair sits on the loop-carried
/// dependency path and costs more than the whole shift-and-add window.
#[derive(Clone, Copy, Default)]
pub(crate) struct ChunkSeed {
    /// Significand of the seed value (0 for a signed zero).
    pub(crate) mant: u64,
    /// Weight of the significand's least bit: value = mant * 2^pow.
    pub(crate) pow: i32,
    /// Sign of the seed value.
    pub(crate) neg: bool,
    /// False once the accumulator has hit a NaN or infinity — the next
    /// accumulate aborts to the scalar oracle, like a non-finite f32
    /// seed would.
    pub(crate) finite: bool,
}

impl ChunkSeed {
    /// Decode an f32 accumulator element (same value decomposition as
    /// the f64 decode below, 29 powers higher on a 24-bit significand).
    #[inline(always)]
    pub(crate) fn decode(v: f32) -> Self {
        let bits = v.to_bits();
        let exp = ((bits >> 23) & 0xff) as i32;
        let mant = ((bits & 0x007f_ffff) | (((exp != 0) as u32) << 23)) as u64;
        Self {
            mant,
            pow: exp.max(1) - 150,
            neg: bits >> 31 == 1,
            finite: exp != 0xff,
        }
    }
}

/// One fragment row's accumulator seeds in structure-of-arrays form —
/// the layout the x86 accumulate kernels load and the x86 drain kernels
/// write back directly (64-bit lanes: significand, power, sign mask).
/// `finite` is a per-column bitset kept scalar-side; a non-finite column
/// stores a zero contribution and its cleared bit forces the fallback
/// regardless of what the vector window computes.
pub(crate) struct RowSeeds {
    /// Significand per column (0 for signed zeros and non-finite seeds).
    pub(crate) mant: [u64; COLS],
    /// Weight of the significand's least bit per column.
    pub(crate) pow: [i64; COLS],
    /// Sign as a full 64-bit lane mask (0 or all-ones) per column.
    pub(crate) neg: [u64; COLS],
    /// Bit j set = column j's seed is finite.
    pub(crate) finite: u32,
}

impl RowSeeds {
    /// Decode a fragment row of f32 accumulator elements.
    #[inline(always)]
    pub(crate) fn load(acc: &[f32; COLS]) -> Self {
        let mut s = RowSeeds {
            mant: [0; COLS],
            pow: [0; COLS],
            neg: [0; COLS],
            finite: 0,
        };
        for (j, &v) in acc.iter().enumerate() {
            s.set(j, ChunkSeed::decode(v));
        }
        s
    }

    /// Install column `j`'s seed.
    #[inline(always)]
    pub(crate) fn set(&mut self, j: usize, c: ChunkSeed) {
        self.mant[j] = if c.finite { c.mant } else { 0 };
        self.pow[j] = c.pow as i64;
        self.neg[j] = if c.neg { u64::MAX } else { 0 };
        self.finite = (self.finite & !(1 << j)) | ((c.finite as u32) << j);
    }

    /// Column `j`'s seed for the scalar accumulate path.
    #[inline(always)]
    pub(crate) fn get(&self, j: usize) -> ChunkSeed {
        ChunkSeed {
            mant: self.mant[j],
            pow: self.pow[j] as i32,
            neg: self.neg[j] != 0,
            finite: self.finite >> j & 1 == 1,
        }
    }

    /// Column `j`'s accumulator as f32. The decoded form is authoritative
    /// for a finite column (its f32 is only assembled on demand); a
    /// non-finite column cannot carry a NaN payload here, so its value is
    /// `stored`, the f32 the row last wrote for it.
    #[inline(always)]
    pub(crate) fn value(&self, j: usize, stored: f32) -> f32 {
        if self.finite >> j & 1 == 1 {
            let sign = (self.neg[j] as u32) & (1 << 31);
            super::fast_round_assemble(sign, self.mant[j], self.pow[j] as i32, true)
        } else {
            stored
        }
    }

    /// Assemble the row's f32 accumulators — once per panel row, not once
    /// per chunk.
    #[inline(always)]
    pub(crate) fn store(&self, acc: &mut [f32; COLS]) {
        for (j, d) in acc.iter_mut().enumerate() {
            *d = self.value(j, *d);
        }
    }
}

/// Decode `seed + Σ terms`, where `seed` is the fragment's accumulator
/// element and every term is an *exact* product in `f64`, into an exact
/// `i128` window anchored at `pmin`, without rounding. Returns `(sum,
/// pmin, ok)`; when `ok` is false — a non-finite input (which covers
/// every special-operand case: a NaN/Inf operand always surfaces as a
/// NaN/Inf product) or a power spread beyond [`WINDOW_POW_SPAN`] —
/// `sum`/`pmin` are meaningless and the caller must take the scalar
/// oracle path. The spread test charges the seed its real width,
/// [`SEED_BITS`], and each product [`PRODUCT_BITS`].
///
/// Rounding the window through the shared [`super::fast_round_f32`] is
/// bit-identical to the scalar fast path / Kulisch drain: the decoded
/// contribution list denotes exactly the same real number (the
/// half-products of one element pair sum exactly to its full product).
/// Rounding is left to the caller: the AVX2 and AVX-512 panels round a
/// whole row of windows in a second vector pass, and the scalar window
/// rounds each column as soon as it is accumulated.
#[inline(always)]
pub(crate) fn exact_chunk_accumulate_seeded<const T: usize>(
    seed: ChunkSeed,
    terms: &[f64; T],
) -> (i128, i32, bool) {
    const M52: u64 = (1u64 << 52) - 1;
    // Decode all contributions branchlessly: a subnormal keeps its raw
    // mantissa at the fixed power -1074 (`exp.max(1) - 1075`), a normal
    // gains the implicit bit, and a ±0.0 decodes to mantissa 0. Zero
    // contributions stay in the arrays (they add nothing to the window)
    // but are masked out of the pmin/pmax reduction with sentinels so
    // they cannot widen the spread — the only data-dependent branches
    // left are the two rare aborts. `T` is a compile-time constant at
    // every call site, so these loops fully unroll.
    let mut mants = [0u64; 1 + MAX_KLEN];
    let mut pows = [0i32; 1 + MAX_KLEN];
    let mut negs = [false; 1 + MAX_KLEN];
    mants[0] = seed.mant;
    pows[0] = seed.pow;
    negs[0] = seed.neg;
    let seed_nz = seed.mant != 0;
    let mut nonfinite = !seed.finite;
    let mut pmin = if seed_nz { seed.pow } else { i32::MAX };
    let mut pmax = if seed_nz {
        seed.pow - (PRODUCT_BITS - SEED_BITS)
    } else {
        i32::MIN
    };
    for (t, &v) in terms.iter().enumerate() {
        let bits = v.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i32;
        nonfinite |= exp == 0x7ff;
        let mant = (bits & M52) | (((exp != 0) as u64) << 52);
        let pow = exp.max(1) - 1075;
        let nz = mant != 0;
        pmin = pmin.min(if nz { pow } else { i32::MAX });
        pmax = pmax.max(if nz { pow } else { i32::MIN });
        mants[1 + t] = mant;
        pows[1 + t] = pow;
        negs[1 + t] = bits >> 63 == 1;
    }
    // `empty` (every contribution a signed zero) short-circuits the
    // spread test — the sentinels would overflow `pmax - pmin` — and
    // yields sum 0, which rounds to +0.0 like the scalar zero-skip.
    let empty = pmin == i32::MAX;
    let ok = !nonfinite && (empty || pmax - pmin <= WINDOW_POW_SPAN);
    let base = if empty { 0 } else { pmin };
    // An invalid window is never read — skip the reduction entirely
    // rather than sum clamped-shift garbage (whose magnitudes could
    // overflow the i128 in debug builds).
    if !ok {
        return (0, base, false);
    }
    // Accumulate the exact window. Zero entries shift garbage distances
    // (their -1074 power can sit below the base) — clamp into [0, 127]
    // so the shift is always defined; a zero mantissa contributes
    // nothing at any distance. The conditional negation is xor/add, not
    // a branch.
    let mut sum = 0i128;
    for t in 0..1 + T {
        let v = (mants[t] as i128) << (pows[t] - base).clamp(0, 127) as u32;
        let s = -(negs[t] as i128);
        sum += (v ^ s) - s;
    }
    (sum, base, ok)
}

/// The AVX2 and AVX-512 levels' own code: per level, the frame
/// `dispatch` compiles the panel bodies in (`avx2`, `avx512`); the two
/// integer window kernels, which no compiler derives from the scalar
/// window; and the FP64 FMA row.
///
/// Every function here is `unsafe`: the caller guarantees the CPU has
/// the features the function's level needs (AVX2 and FMA; AVX-512 F, CD,
/// DQ, BW and VL beside them at `Avx512`).
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use core::arch::x86_64::*;

    use super::{RowSeeds, SimdLevel, COLS, MAX_KLEN, PRODUCT_BITS, SEED_BITS, WINDOW_POW_SPAN};

    /// The `Avx2` arm of [`super::dispatch`]: `body` inlines into this
    /// frame, so it and everything it inlines — the portable row
    /// products, the window kernels, [`super::fma_row`] — are compiled
    /// with AVX2 and FMA enabled.
    ///
    /// # Safety
    /// Caller guarantees AVX2 and FMA are available.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub unsafe fn avx2<R>(body: impl FnOnce(SimdLevel) -> R) -> R {
        body(SimdLevel::Avx2)
    }

    /// The `Avx512` arm of [`super::dispatch`]: [`avx2`]'s frame with
    /// x86-64-v4 enabled, so the portable row products widen to eight
    /// lanes and the window kernels and FMA row inlined here are the zmm
    /// ones.
    ///
    /// # Safety
    /// Caller guarantees AVX-512 F, CD, DQ, BW and VL, AVX2 and FMA are
    /// available.
    #[target_feature(enable = "avx512f,avx512cd,avx512dq,avx512bw,avx512vl,avx2,fma")]
    #[inline]
    pub unsafe fn avx512<R>(body: impl FnOnce(SimdLevel) -> R) -> R {
        body(SimdLevel::Avx512)
    }

    /// Out-of-window power sentinel for the vector min/max reductions.
    /// Far outside any real f64/seed power (|pow| ≤ ~1100) yet small
    /// enough that sentinel arithmetic can't wrap an i64 lane.
    const POW_CAP: i64 = 1 << 40;

    /// Per-lane select: `b` where `mask`'s sign bit is set, else `a`.
    /// Masks are full-lane 0/−1 compare results, so the sign bit carries
    /// the whole lane's verdict.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn blendv64(a: __m256i, b: __m256i, mask: __m256i) -> __m256i {
        _mm256_castpd_si256(_mm256_blendv_pd(
            _mm256_castsi256_pd(a),
            _mm256_castsi256_pd(b),
            _mm256_castsi256_pd(mask),
        ))
    }

    /// Vectorised [`super::exact_chunk_accumulate_seeded`] across all 8
    /// columns of a fragment row: decode `seed[j] + Σ_t prods[t][j]` into
    /// exact 128-bit windows (`hi`/`lo` 64-bit halves, two's complement)
    /// anchored at per-column `base` powers.
    ///
    /// Returns a bitmask with bit `j` set when column `j`'s window is
    /// valid — all inputs finite and the power spread within
    /// [`WINDOW_POW_SPAN`], the seed charged its own width as in the
    /// scalar test. Lanes with a cleared bit hold garbage and the
    /// caller must take the scalar fallback for them. The caller also
    /// ANDs in `seeds.finite`, which this kernel does not see (non-finite
    /// seeds are stored as zero contributions).
    ///
    /// For valid lanes the result is bit-for-bit the scalar reduction:
    /// the shift split `lo = mant << s`, `hi = (mant >> (64-s)) |
    /// (mant << (s-64))` is branchless because `vpsllvq`/`vpsrlvq` yield
    /// zero for any count ≥ 64 (including negative counts viewed as
    /// unsigned), and the 128-bit add carries via the sign-bias unsigned
    /// compare.
    ///
    /// It is `#[inline(always)]`, with no `#[target_feature]` of its own
    /// (the two attributes cannot be combined): it runs inlined into
    /// [`avx2`], which enables AVX2. Left to its heuristics, LLVM kept the
    /// three- and four-deep chunks' accumulate out of line there, a call
    /// per chunk.
    ///
    /// # Safety
    /// Caller guarantees AVX2 is available and `prods.len() >= klen`
    /// (with `klen <= MAX_KLEN`).
    #[inline(always)]
    pub unsafe fn accumulate_chunk_avx2(
        klen: usize,
        prods: &[[f64; COLS]],
        seeds: &RowSeeds,
        lo: &mut [u64; COLS],
        hi: &mut [u64; COLS],
        base: &mut [i64; COLS],
    ) -> u32 {
        debug_assert!(klen <= MAX_KLEN && prods.len() >= klen);
        let zero = _mm256_setzero_si256();
        let ones = _mm256_set1_epi64x(-1);
        let m52 = _mm256_set1_epi64x((1i64 << 52) - 1);
        let bit52 = _mm256_set1_epi64x(1i64 << 52);
        let emask = _mm256_set1_epi64x(0x7ff);
        let c1075 = _mm256_set1_epi64x(1075);
        let onev = _mm256_set1_epi64x(1);
        let bigv = _mm256_set1_epi64x(POW_CAP);
        let smallv = _mm256_set1_epi64x(-POW_CAP);
        let c64 = _mm256_set1_epi64x(64);
        let range = _mm256_set1_epi64x(WINDOW_POW_SPAN as i64);
        let narrow = _mm256_set1_epi64x((PRODUCT_BITS - SEED_BITS) as i64);
        let topbit = _mm256_set1_epi64x(i64::MIN);
        let mut okbits = 0u32;
        for g in 0..COLS / 4 {
            let o = 4 * g;
            let smant = _mm256_loadu_si256(seeds.mant.as_ptr().add(o) as *const __m256i);
            let spow = _mm256_loadu_si256(seeds.pow.as_ptr().add(o) as *const __m256i);
            let sneg = _mm256_loadu_si256(seeds.neg.as_ptr().add(o) as *const __m256i);
            // Zero contributions must not anchor the window: substitute
            // sentinels so min/max skip them (same rule as the scalar
            // `if nz` guards). The narrower seed enters `pmax` lowered.
            let sz = _mm256_cmpeq_epi64(smant, zero);
            let mut pmin = blendv64(spow, bigv, sz);
            let mut pmax = blendv64(_mm256_sub_epi64(spow, narrow), smallv, sz);
            let mut nonfin = zero;
            let mut tmant = [zero; MAX_KLEN];
            let mut tpow = [zero; MAX_KLEN];
            let mut tneg = [zero; MAX_KLEN];
            for t in 0..klen {
                let bits =
                    _mm256_loadu_si256(prods.get_unchecked(t).as_ptr().add(o) as *const __m256i);
                let exp = _mm256_and_si256(_mm256_srli_epi64::<52>(bits), emask);
                nonfin = _mm256_or_si256(nonfin, _mm256_cmpeq_epi64(exp, emask));
                let ez = _mm256_cmpeq_epi64(exp, zero);
                let mant =
                    _mm256_or_si256(_mm256_and_si256(bits, m52), _mm256_andnot_si256(ez, bit52));
                // pow = exp.max(1) - 1075 (subnormals share the min
                // exponent's weight).
                let pow = _mm256_sub_epi64(_mm256_or_si256(exp, _mm256_and_si256(ez, onev)), c1075);
                let mz = _mm256_cmpeq_epi64(mant, zero);
                let cmin = blendv64(pow, bigv, mz);
                let cmax = blendv64(pow, smallv, mz);
                pmin = blendv64(pmin, cmin, _mm256_cmpgt_epi64(pmin, cmin));
                pmax = blendv64(pmax, cmax, _mm256_cmpgt_epi64(cmax, pmax));
                tmant[t] = mant;
                tpow[t] = pow;
                tneg[t] = _mm256_cmpgt_epi64(zero, bits);
            }
            let empty = _mm256_cmpeq_epi64(pmin, bigv);
            let basev = _mm256_andnot_si256(empty, pmin);
            let spreadbad = _mm256_cmpgt_epi64(_mm256_sub_epi64(pmax, pmin), range);
            let okv = _mm256_andnot_si256(
                nonfin,
                _mm256_or_si256(_mm256_andnot_si256(spreadbad, ones), empty),
            );
            let mut slo = zero;
            let mut shi = zero;
            let (mut cm, mut cp, mut cn) = (smant, spow, sneg);
            let mut t = 0usize;
            loop {
                let s = _mm256_sub_epi64(cp, basev);
                let l = _mm256_sllv_epi64(cm, s);
                let h = _mm256_or_si256(
                    _mm256_srlv_epi64(cm, _mm256_sub_epi64(c64, s)),
                    _mm256_sllv_epi64(cm, _mm256_sub_epi64(s, c64)),
                );
                // Two's-complement negate of (h,l) where cn is set:
                // low half -l, high half ~h + (l == 0).
                let nl = _mm256_sub_epi64(zero, l);
                let lz = _mm256_cmpeq_epi64(l, zero);
                let nh = _mm256_sub_epi64(_mm256_xor_si256(h, ones), lz);
                let cl = blendv64(l, nl, cn);
                let ch = blendv64(h, nh, cn);
                // 128-bit add: unsigned carry out of the low half via the
                // sign-bias compare (new_lo <u addend ⇔ carry).
                let nlo = _mm256_add_epi64(slo, cl);
                let carry =
                    _mm256_cmpgt_epi64(_mm256_xor_si256(cl, topbit), _mm256_xor_si256(nlo, topbit));
                shi = _mm256_sub_epi64(_mm256_add_epi64(shi, ch), carry);
                slo = nlo;
                if t == klen {
                    break;
                }
                cm = tmant[t];
                cp = tpow[t];
                cn = tneg[t];
                t += 1;
            }
            _mm256_storeu_si256(lo.as_mut_ptr().add(o) as *mut __m256i, slo);
            _mm256_storeu_si256(hi.as_mut_ptr().add(o) as *mut __m256i, shi);
            _mm256_storeu_si256(base.as_mut_ptr().add(o) as *mut __m256i, basev);
            okbits |= (_mm256_movemask_pd(_mm256_castsi256_pd(okv)) as u32) << (4 * g);
        }
        okbits
    }

    /// Vectorised normal-range branch of [`super::super::fast_round_parts`]
    /// over the windows [`accumulate_chunk_avx2`] produced, four columns
    /// per register: the rounded significand, power and sign go straight
    /// back into `seeds`, so a column's accumulator never leaves decoded
    /// form between chunks.
    ///
    /// Only columns in `mask` are considered. Returns the subset rounded
    /// here: a nonzero sum whose leading bit sits at position 25 or above
    /// and whose result exponent lies in (-127, 127), so no subnormal,
    /// overflow or below-window round probe can arise. Every other column
    /// of `seeds` — masked out, or left to the scalar rounder — is left
    /// untouched.
    ///
    /// Per lane: two's-complement absolute value; the leading-bit
    /// position read exactly from the top nonzero 32-bit half, which the
    /// `2^52` magic constant turns into an `f64` whose exponent field is
    /// that half's `floor(log2)`; frac/round/sticky extraction with
    /// variable shifts (`vpsrlvq`/`vpsllvq` yield zero for any count of
    /// 64 or more, negative counts included, which covers both sides of
    /// `lowbit == 64` without a branch); round-to-nearest-even and its
    /// renormalising carry.
    ///
    /// # Safety
    /// Caller guarantees AVX2 is available and that `lo`/`hi`/`base` hold
    /// valid windows for every column in `mask`.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn round_chunk_avx2(
        lo: &[u64; COLS],
        hi: &[u64; COLS],
        base: &[i64; COLS],
        mask: u32,
        seeds: &mut RowSeeds,
    ) -> u32 {
        let zero = _mm256_setzero_si256();
        let onev = _mm256_set1_epi64x(1);
        let low32 = _mm256_set1_epi64x(0xffff_ffff);
        let c32 = _mm256_set1_epi64x(32);
        let c64 = _mm256_set1_epi64x(64);
        let c128 = _mm256_set1_epi64x(128);
        let c24 = _mm256_set1_epi64x(24);
        let c23 = _mm256_set1_epi64x(23);
        let emin = _mm256_set1_epi64x(-127);
        let emax = _mm256_set1_epi64x(127);
        // 2^52 + w for a 32-bit w, exactly; its exponent field minus the
        // bias is floor(log2(w)) once 2^52 is subtracted back off.
        let magic = _mm256_set1_epi64x(0x4330_0000_0000_0000);
        let bias = _mm256_set1_epi64x(1023);
        let lanebits = _mm256_setr_epi64x(1, 2, 4, 8);
        let mut done = 0u32;
        for g in 0..COLS / 4 {
            let o = 4 * g;
            let m4 = (mask >> o) & 0xf;
            if m4 == 0 {
                continue;
            }
            let l = _mm256_loadu_si256(lo.as_ptr().add(o) as *const __m256i);
            let h = _mm256_loadu_si256(hi.as_ptr().add(o) as *const __m256i);
            let b = _mm256_loadu_si256(base.as_ptr().add(o) as *const __m256i);
            // |sum|: low half -l, high half ~h + (l == 0) where negative.
            let neg = _mm256_cmpgt_epi64(zero, h);
            let lz = _mm256_cmpeq_epi64(l, zero);
            let al = _mm256_sub_epi64(_mm256_xor_si256(l, neg), neg);
            let ah = _mm256_sub_epi64(_mm256_xor_si256(h, neg), _mm256_and_si256(neg, lz));
            // Leading-bit position from the top nonzero 32-bit half. A
            // zero sum decodes to a large negative position and fails the
            // range test below.
            let hz = _mm256_cmpeq_epi64(ah, zero);
            let x = blendv64(ah, al, hz);
            let x_hi = _mm256_srli_epi64::<32>(x);
            let xhz = _mm256_cmpeq_epi64(x_hi, zero);
            let w = blendv64(x_hi, _mm256_and_si256(x, low32), xhz);
            let off = _mm256_add_epi64(_mm256_andnot_si256(hz, c64), _mm256_andnot_si256(xhz, c32));
            let wf = _mm256_sub_pd(
                _mm256_castsi256_pd(_mm256_or_si256(w, magic)),
                _mm256_castsi256_pd(magic),
            );
            let lead = _mm256_add_epi64(
                _mm256_sub_epi64(_mm256_srli_epi64::<52>(_mm256_castpd_si256(wf)), bias),
                off,
            );
            let e = _mm256_add_epi64(lead, b);
            let inmask = _mm256_cmpeq_epi64(
                _mm256_and_si256(_mm256_set1_epi64x(m4 as i64), lanebits),
                lanebits,
            );
            let ok = _mm256_and_si256(
                _mm256_and_si256(inmask, _mm256_cmpgt_epi64(lead, c24)),
                _mm256_and_si256(_mm256_cmpgt_epi64(e, emin), _mm256_cmpgt_epi64(emax, e)),
            );
            let okbits = _mm256_movemask_pd(_mm256_castsi256_pd(ok)) as u32;
            if okbits == 0 {
                continue;
            }
            // lowbit = lead - 24 in [1, 102]: r2 = m >> lowbit (frac:24 |
            // round:1), sticky = any bit of m below lowbit.
            let lowbit = _mm256_sub_epi64(lead, c24);
            let r2 = _mm256_or_si256(
                _mm256_or_si256(
                    _mm256_srlv_epi64(al, lowbit),
                    _mm256_sllv_epi64(ah, _mm256_sub_epi64(c64, lowbit)),
                ),
                _mm256_srlv_epi64(ah, _mm256_sub_epi64(lowbit, c64)),
            );
            // max(64 - lowbit, 0) via the 32-bit max: the small signed
            // count's upper half is its sign extension, which max zeroes.
            let lo_shift = _mm256_max_epi32(_mm256_sub_epi64(c64, lowbit), zero);
            let below = _mm256_or_si256(
                _mm256_sllv_epi64(al, lo_shift),
                _mm256_sllv_epi64(ah, _mm256_sub_epi64(c128, lowbit)),
            );
            let sticky = _mm256_andnot_si256(_mm256_cmpeq_epi64(below, zero), onev);
            let frac = _mm256_srli_epi64::<1>(r2);
            let round = _mm256_and_si256(r2, onev);
            let inc =
                _mm256_and_si256(round, _mm256_or_si256(sticky, _mm256_and_si256(frac, onev)));
            let frac = _mm256_add_epi64(frac, inc);
            let carry = _mm256_srli_epi64::<24>(frac);
            let frac = _mm256_srlv_epi64(frac, carry);
            let pow = _mm256_add_epi64(_mm256_sub_epi64(e, c23), carry);
            let mp = seeds.mant.as_mut_ptr().add(o) as *mut __m256i;
            let pp = seeds.pow.as_mut_ptr().add(o) as *mut __m256i;
            let np = seeds.neg.as_mut_ptr().add(o) as *mut __m256i;
            _mm256_storeu_si256(mp, blendv64(_mm256_loadu_si256(mp), frac, ok));
            _mm256_storeu_si256(pp, blendv64(_mm256_loadu_si256(pp), pow, ok));
            _mm256_storeu_si256(np, blendv64(_mm256_loadu_si256(np), neg, ok));
            done |= okbits << o;
        }
        done
    }

    /// [`accumulate_chunk_avx2`] with the whole fragment row in one zmm
    /// register: the same windows and the same valid-lane mask, bit for
    /// bit. k-masks replace the compare-select pairs: zero contributions
    /// leave masked `vpminsq`/`vpmaxsq` at their sentinels, each
    /// contribution's sign is a mask that drives a masked two's-complement
    /// negate, and the low half's carry is an unsigned compare (`vpcmpuq`)
    /// into a mask.
    ///
    /// `#[inline(always)]` with no `#[target_feature]`, as
    /// [`accumulate_chunk_avx2`]: it runs inlined into [`avx512`].
    ///
    /// # Safety
    /// Caller guarantees AVX-512 F and DQ are available and `prods.len()
    /// >= klen` (with `klen <= MAX_KLEN`).
    #[inline(always)]
    pub unsafe fn accumulate_chunk_avx512(
        klen: usize,
        prods: &[[f64; COLS]],
        seeds: &RowSeeds,
        lo: &mut [u64; COLS],
        hi: &mut [u64; COLS],
        base: &mut [i64; COLS],
    ) -> u32 {
        debug_assert!(klen <= MAX_KLEN && prods.len() >= klen);
        let zero = _mm512_setzero_si512();
        let ones = _mm512_set1_epi64(-1);
        let onev = _mm512_set1_epi64(1);
        let m52 = _mm512_set1_epi64((1i64 << 52) - 1);
        let bit52 = _mm512_set1_epi64(1i64 << 52);
        let emask = _mm512_set1_epi64(0x7ff);
        let c1075 = _mm512_set1_epi64(1075);
        let bigv = _mm512_set1_epi64(POW_CAP);
        let smallv = _mm512_set1_epi64(-POW_CAP);
        let c64 = _mm512_set1_epi64(64);
        let range = _mm512_set1_epi64(WINDOW_POW_SPAN as i64);
        let narrow = _mm512_set1_epi64((PRODUCT_BITS - SEED_BITS) as i64);
        let smant = _mm512_loadu_si512(seeds.mant.as_ptr().cast());
        let spow = _mm512_loadu_si512(seeds.pow.as_ptr().cast());
        let sneg = _mm512_movepi64_mask(_mm512_loadu_si512(seeds.neg.as_ptr().cast()));
        // Zero contributions must not anchor the window: the reductions
        // skip their lanes (the scalar `if nz` guards). The narrower seed
        // enters `pmax` lowered.
        let snz = _mm512_test_epi64_mask(smant, smant);
        let mut pmin = _mm512_mask_mov_epi64(bigv, snz, spow);
        let mut pmax = _mm512_mask_sub_epi64(smallv, snz, spow, narrow);
        let mut nonfin: __mmask8 = 0;
        let mut tmant = [zero; MAX_KLEN];
        let mut tpow = [zero; MAX_KLEN];
        let mut tneg: [__mmask8; MAX_KLEN] = [0; MAX_KLEN];
        for t in 0..klen {
            let bits = _mm512_loadu_si512(prods.get_unchecked(t).as_ptr().cast());
            let exp = _mm512_and_si512(_mm512_srli_epi64::<52>(bits), emask);
            nonfin |= _mm512_cmpeq_epi64_mask(exp, emask);
            let frac = _mm512_and_si512(bits, m52);
            let mant = _mm512_mask_or_epi64(frac, _mm512_test_epi64_mask(exp, exp), frac, bit52);
            // pow = exp.max(1) - 1075.
            let pow = _mm512_sub_epi64(_mm512_max_epi64(exp, onev), c1075);
            let nz = _mm512_test_epi64_mask(mant, mant);
            pmin = _mm512_mask_min_epi64(pmin, nz, pmin, pow);
            pmax = _mm512_mask_max_epi64(pmax, nz, pmax, pow);
            tmant[t] = mant;
            tpow[t] = pow;
            tneg[t] = _mm512_movepi64_mask(bits);
        }
        let empty = _mm512_cmpeq_epi64_mask(pmin, bigv);
        let basev = _mm512_maskz_mov_epi64(!empty, pmin);
        let spread_ok = _mm512_cmple_epi64_mask(_mm512_sub_epi64(pmax, pmin), range);
        let ok = !nonfin & (spread_ok | empty);
        let mut slo = zero;
        let mut shi = zero;
        let (mut cm, mut cp, mut cn) = (smant, spow, sneg);
        let mut t = 0usize;
        loop {
            let s = _mm512_sub_epi64(cp, basev);
            let l = _mm512_sllv_epi64(cm, s);
            let h = _mm512_or_si512(
                _mm512_srlv_epi64(cm, _mm512_sub_epi64(c64, s)),
                _mm512_sllv_epi64(cm, _mm512_sub_epi64(s, c64)),
            );
            // Two's-complement negate of (h,l) in the lanes of `cn`: low
            // half -l, high half ~h + (l == 0).
            let cl = _mm512_mask_sub_epi64(l, cn, zero, l);
            let ch = _mm512_mask_xor_epi64(h, cn, h, ones);
            let ch = _mm512_mask_add_epi64(ch, _mm512_mask_cmpeq_epi64_mask(cn, l, zero), ch, onev);
            // 128-bit add: the low half carries where it wraps below its
            // addend.
            let nlo = _mm512_add_epi64(slo, cl);
            let nhi = _mm512_add_epi64(shi, ch);
            shi = _mm512_mask_add_epi64(nhi, _mm512_cmplt_epu64_mask(nlo, cl), nhi, onev);
            slo = nlo;
            if t == klen {
                break;
            }
            cm = tmant[t];
            cp = tpow[t];
            cn = tneg[t];
            t += 1;
        }
        _mm512_storeu_si512(lo.as_mut_ptr().cast(), slo);
        _mm512_storeu_si512(hi.as_mut_ptr().cast(), shi);
        _mm512_storeu_si512(base.as_mut_ptr().cast(), basev);
        ok as u32
    }

    /// [`round_chunk_avx2`] with the whole fragment row in one zmm
    /// register, and the same contract: it rounds, and returns, exactly
    /// the columns of `mask` whose sum takes [`super::super::fast_round_parts`]'
    /// normal-range branch, and leaves every other column of `seeds`
    /// untouched. The leading bit is `vplzcntq` of the top nonzero 64-bit
    /// half, the round-to-nearest-even increment a masked add, and
    /// masked stores write the rounded columns straight into `seeds`.
    ///
    /// # Safety
    /// Caller guarantees AVX-512 F, CD and DQ are available and that
    /// `lo`/`hi`/`base` hold valid windows for every column in `mask`.
    #[target_feature(enable = "avx512f,avx512cd,avx512dq")]
    #[inline]
    pub unsafe fn round_chunk_avx512(
        lo: &[u64; COLS],
        hi: &[u64; COLS],
        base: &[i64; COLS],
        mask: u32,
        seeds: &mut RowSeeds,
    ) -> u32 {
        let zero = _mm512_setzero_si512();
        let ones = _mm512_set1_epi64(-1);
        let onev = _mm512_set1_epi64(1);
        let c24 = _mm512_set1_epi64(24);
        let c64 = _mm512_set1_epi64(64);
        let l = _mm512_loadu_si512(lo.as_ptr().cast());
        let h = _mm512_loadu_si512(hi.as_ptr().cast());
        let b = _mm512_loadu_si512(base.as_ptr().cast());
        // |sum|: low half -l, high half ~h + (l == 0) where negative.
        let neg = _mm512_movepi64_mask(h);
        let al = _mm512_mask_sub_epi64(l, neg, zero, l);
        let ah = _mm512_mask_xor_epi64(h, neg, h, ones);
        let ah = _mm512_mask_add_epi64(ah, _mm512_mask_cmpeq_epi64_mask(neg, l, zero), ah, onev);
        // Leading-bit position: 127 − lzcnt(ah), or 63 − lzcnt(al) where
        // the high half is zero. A zero sum gives −1 and fails the range
        // test below.
        let lead = _mm512_mask_sub_epi64(
            _mm512_sub_epi64(_mm512_set1_epi64(127), _mm512_lzcnt_epi64(ah)),
            _mm512_cmpeq_epi64_mask(ah, zero),
            _mm512_set1_epi64(63),
            _mm512_lzcnt_epi64(al),
        );
        let e = _mm512_add_epi64(lead, b);
        let ok = _mm512_mask_cmpgt_epi64_mask(mask as __mmask8, lead, c24)
            & _mm512_cmpgt_epi64_mask(e, _mm512_set1_epi64(-127))
            & _mm512_cmplt_epi64_mask(e, _mm512_set1_epi64(127));
        if ok == 0 {
            return 0;
        }
        // lowbit = lead - 24 in [1, 102]: r2 = m >> lowbit (frac:24 |
        // round:1), sticky = any bit of m below lowbit; `vpsrlvq` and
        // `vpsllvq` yield zero for any count of 64 or more, as at AVX2.
        let lowbit = _mm512_sub_epi64(lead, c24);
        let r2 = _mm512_or_si512(
            _mm512_or_si512(
                _mm512_srlv_epi64(al, lowbit),
                _mm512_sllv_epi64(ah, _mm512_sub_epi64(c64, lowbit)),
            ),
            _mm512_srlv_epi64(ah, _mm512_sub_epi64(lowbit, c64)),
        );
        let below = _mm512_or_si512(
            _mm512_sllv_epi64(al, _mm512_max_epi64(_mm512_sub_epi64(c64, lowbit), zero)),
            _mm512_sllv_epi64(ah, _mm512_sub_epi64(_mm512_set1_epi64(128), lowbit)),
        );
        let frac = _mm512_srli_epi64::<1>(r2);
        let round_up = _mm512_test_epi64_mask(r2, onev)
            & (_mm512_test_epi64_mask(below, below) | _mm512_test_epi64_mask(frac, onev));
        let frac = _mm512_mask_add_epi64(frac, round_up, frac, onev);
        let carry = _mm512_srli_epi64::<24>(frac);
        let frac = _mm512_srlv_epi64(frac, carry);
        let pow = _mm512_add_epi64(_mm512_sub_epi64(e, _mm512_set1_epi64(23)), carry);
        _mm512_mask_storeu_epi64(seeds.mant.as_mut_ptr().cast(), ok, frac);
        _mm512_mask_storeu_epi64(seeds.pow.as_mut_ptr().cast(), ok, pow);
        _mm512_mask_storeu_epi64(seeds.neg.as_mut_ptr().cast(), ok, _mm512_movm_epi64(neg));
        ok as u32
    }

    /// [`super::fma_row`] on `vfmadd`, four columns per register.
    ///
    /// # Safety
    /// Caller guarantees AVX2 and FMA are available.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub unsafe fn fma_row_avx2(a: f64, b: &[f64; COLS], acc: &[f64; COLS]) -> ([f64; COLS], u32) {
        let av = _mm256_set1_pd(a);
        let inf = _mm256_set1_pd(f64::INFINITY);
        let zero = _mm256_setzero_pd();
        let sign = _mm256_set1_pd(-0.0);
        let mut out = [0f64; COLS];
        let mut oracle = 0u32;
        for g in 0..COLS / 4 {
            let o = 4 * g;
            let r = _mm256_fmadd_pd(
                av,
                _mm256_loadu_pd(b.as_ptr().add(o)),
                _mm256_loadu_pd(acc.as_ptr().add(o)),
            );
            // 0 < |r| < ∞ (ordered, so a NaN fails it too).
            let mag = _mm256_andnot_pd(sign, r);
            let ok = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_GT_OQ>(mag, zero),
                _mm256_cmp_pd::<_CMP_LT_OQ>(mag, inf),
            );
            oracle |= ((!_mm256_movemask_pd(ok) & 0xf) as u32) << o;
            _mm256_storeu_pd(out.as_mut_ptr().add(o), r);
        }
        (out, oracle)
    }

    /// [`super::fma_row`] on one zmm `vfmadd`; `vfpclasspd` builds the
    /// oracle mask from the classes ±0, ±∞ and NaN. Inside [`avx512`] the
    /// panel's loop-carried row must come from here, not from
    /// [`fma_row_avx2`]: two ymm stores reloaded as one zmm stall store
    /// forwarding on every `k`.
    ///
    /// # Safety
    /// Caller guarantees AVX-512 F and DQ are available.
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    pub unsafe fn fma_row_avx512(a: f64, b: &[f64; COLS], acc: &[f64; COLS]) -> ([f64; COLS], u32) {
        let r = _mm512_fmadd_pd(
            _mm512_set1_pd(a),
            _mm512_loadu_pd(b.as_ptr()),
            _mm512_loadu_pd(acc.as_ptr()),
        );
        // QNaN 0x01, +0 0x02, -0 0x04, +∞ 0x08, -∞ 0x10, SNaN 0x80.
        let oracle = _mm512_fpclass_pd_mask::<0x9f>(r);
        let mut out = [0f64; COLS];
        _mm512_storeu_pd(out.as_mut_ptr(), r);
        (out, oracle as u32)
    }
}

/// Run `body` compiled for `level`, handing the level back so the body's
/// own level switches fold to constants. At `Avx2` the body runs inside
/// [`x86::avx2`], a `#[target_feature(enable = "avx2,fma")]` frame, and
/// at `Avx512` inside [`x86::avx512`], which enables x86-64-v4, so one
/// panel source becomes each level's build; the lower levels call it
/// directly, in the baseline build. Rust never contracts `a * b + c`
/// into an FMA unless the code calls `mul_add`, so enabling `fma` moves
/// no rounding: every level computes the same bits.
///
/// Pass an `#[inline(always)]` closure. It is called from both arms, and
/// LLVM does not copy a panel-sized body into two frames on its own: left
/// out of line, the body is compiled once, for the baseline, at every
/// level. A panel body's closure is also `move`, so the frame holds the
/// captured scalars by value; captured by reference, they were reloaded
/// after every store the panel makes, about 7% on the FP32 panel.
#[inline(always)]
pub(crate) fn dispatch<R>(level: SimdLevel, body: impl FnOnce(SimdLevel) -> R) -> R {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 | SimdLevel::Avx512 => {
            // Every level handed out is clamped to the host's (`level`,
            // `set_level`, `vector_levels`), so this holds; it is checked
            // because the frames and the kernels they reach need it. The
            // host may run more than `level`: `M3XU_SIMD=avx2` on an
            // AVX-512 host.
            let cap = detected();
            assert!(level <= cap, "{level:?} on a host that runs {cap:?}");
            // SAFETY: `detected` reports `Avx2` or above only when the host
            // has AVX2 and FMA, and `Avx512` only when it also has AVX-512
            // F, CD, DQ, BW and VL.
            unsafe {
                if level == SimdLevel::Avx512 {
                    x86::avx512(body)
                } else {
                    x86::avx2(body)
                }
            }
        }
        _ => body(level),
    }
}

/// One chunk's row products for a real-mode fragment row: `out[t][j] =
/// a[t] · b_t[c0 + j]` as exact `f64`, for each of the chunk's `a.len()
/// <= MAX_KLEN` elements and `j < 8`, where `b_t` is the `t`-th row
/// `b_rows` yields — the `B` value plane is k-major, one row per
/// reduction index, and the caller keeps one iterator across a panel
/// row's chunks. With `TRUNC` (the fast FP32 mode, chosen once per
/// panel) each product is the truncated schedule's `hi_a·hi_b +
/// hi_a·lo_b + lo_a·hi_b`, formed as `a·b − lo_a·lo_b`: both products
/// are exact in `f64`, and so is their difference, which spans at most
/// 37 bits. In the `Avx2` build each four columns are one `vcvtps2pd` +
/// `vmulpd`, and `TRUNC` adds one `vandps`, `vsubps`, `vcvtps2pd`,
/// `vmulpd` and `vsubpd`; the `Avx512` build does the same eight columns
/// per instruction.
///
/// Every row `b_rows` yields is exactly one `B` row long, so once the
/// caller has checked the column window against that length (the two
/// comparisons `brow[c0..][..COLS]` makes), no check is left per `k`.
#[inline(always)]
pub(crate) fn row_products<const TRUNC: bool>(
    a: &[f32],
    b_rows: &mut std::slice::ChunksExact<'_, f32>,
    c0: usize,
    out: &mut [[f64; COLS]; MAX_KLEN],
) {
    debug_assert!(a.len() <= MAX_KLEN);
    for ((&ak, brow), row) in a.iter().zip(b_rows).zip(out) {
        let b: &[f32; COLS] = brow[c0..][..COLS].try_into().expect("COLS columns");
        let (av, alo) = (ak as f64, lo_f32(ak) as f64);
        *row = b.map(|bj| {
            let p = av * bj as f64;
            if TRUNC {
                p - alo * lo_f32(bj) as f64
            } else {
                p
            }
        });
    }
}

/// One FP32C element's four component product rows for a fragment row:
/// `a_R·b_R`, `-a_I·b_I`, `a_R·b_I` and `a_I·b_R` across 8 columns, each
/// an exact `f64` product. The second row carries the real component's
/// subtraction sign, so rows `0..2` and `2..4` are directly the re/im
/// term rows.
#[inline(always)]
pub(crate) fn row_products_c32(
    ar: f32,
    ai: f32,
    bre: &[f32; COLS],
    bim: &[f32; COLS],
) -> [[f64; COLS]; 4] {
    let (ar, ai) = (ar as f64, ai as f64);
    let (br, bi) = (bre.map(f64::from), bim.map(f64::from));
    [
        br.map(|b| ar * b),
        bi.map(|b| -ai * b),
        bi.map(|b| ar * b),
        br.map(|b| ai * b),
    ]
}

/// One emulated-FP64 chunk across a fragment row: `out[j] = fma(a, b[j],
/// acc[j])`, the exact `acc[j] + a·b[j]` rounded once to `f64` — what the
/// slice schedule's Kulisch drain computes at `frag_k = 1`. Also returns
/// the columns whose result is zero or non-finite, as a bitmask: the
/// caller reruns those through the slice oracle (an exact-zero sum is `+0`
/// there, and NaN payloads and overflow follow its special-value state
/// machine). A non-finite operand or seed always gives a non-finite
/// result, so it lands in the mask too.
///
/// `Avx2` runs `vfmadd` four columns per register and `Avx512` eight;
/// below them `f64::mul_add`, a fused multiply-add with one rounding on
/// every target, so the bits never depend on the level. `level` must not
/// be `Scalar`.
#[inline(always)]
pub(crate) fn fma_row(
    level: SimdLevel,
    a: f64,
    b: &[f64; COLS],
    acc: &[f64; COLS],
) -> ([f64; COLS], u32) {
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the level is clamped to detected capability, and the
        // Avx2 level requires FMA (see `detected`).
        SimdLevel::Avx2 => unsafe { x86::fma_row_avx2(a, b, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above; the Avx512 level requires AVX-512 F and DQ.
        SimdLevel::Avx512 => unsafe { x86::fma_row_avx512(a, b, acc) },
        _ => {
            let out: [f64; COLS] = std::array::from_fn(|j| a.mul_add(b[j], acc[j]));
            let mut oracle = 0u32;
            for (j, r) in out.iter().enumerate() {
                oracle |= ((*r == 0.0 || !r.is_finite()) as u32) << j;
            }
            (out, oracle)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The chunk value `seed + Σ terms` rounded to FP32, as the panels
    /// compute it from an f32 seed; `None` when the window aborts.
    fn round_chunk<const T: usize>(seed: f32, terms: &[f64; T]) -> Option<f32> {
        let (sum, pmin, ok) = exact_chunk_accumulate_seeded(ChunkSeed::decode(seed), terms);
        ok.then(|| super::super::fast_round_f32(sum, pmin))
    }

    #[test]
    fn level_parsing_clamps_to_capability() {
        use SimdLevel::{Avx2, Avx512, Scalar, Sse2};
        let all = [Scalar, Sse2, Avx2, Avx512];
        // Every spelling `M3XU_SIMD` accepts, trimmed and case-folded;
        // `1` is the detected level; anything else is refused (and
        // `resolve` then warns and auto-detects).
        for cap in all {
            let cases = [
                ("0", Some(Scalar)),
                ("scalar", Some(Scalar)),
                ("off", Some(Scalar)),
                ("sse2", Some(Sse2)),
                ("avx2", Some(Avx2)),
                ("avx512", Some(Avx512)),
                ("1", Some(cap)),
                (" avx2\n", Some(Avx2)),
                ("\tOff ", Some(Scalar)),
                ("Scalar", Some(Scalar)),
                ("SSE2", Some(Sse2)),
                ("AVX512 ", Some(Avx512)),
                ("sclar", None),
                ("avx512f", None),
                ("2", None),
                ("", None),
            ];
            for (v, want) in cases {
                assert_eq!(parse_level(v, cap), want, "{v:?} with {cap:?} detected");
            }
            // The clamp honours any level the host runs and lowers the
            // rest to the host's own.
            for req in all {
                let want = if req <= cap { req } else { cap };
                assert_eq!(clamp(req, cap), want, "{req:?} with {cap:?} detected");
            }
        }
        let _guard = TEST_LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Whatever the host supports, Scalar is always honoured and the
        // clamp never exceeds the detected capability.
        assert_eq!(clamp(SimdLevel::Scalar, detected()), SimdLevel::Scalar);
        assert_eq!(clamp(SimdLevel::Avx512, detected()), detected());
        // set_level round-trips through the atomic cell.
        let prev = level();
        set_level(SimdLevel::Scalar);
        assert_eq!(level(), SimdLevel::Scalar);
        set_level(prev);
        assert_eq!(level(), prev);
    }

    #[test]
    fn exact_chunk_round_matches_kulisch_on_f64_products() {
        // The f64-product reduction must round exactly like the Kulisch
        // register: random f32 pairs (normals, subnormals, huge/tiny
        // magnitudes) as exact products plus a seed, versus a Kulisch
        // drain of the same values.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut accepted = [0u32; 5];
        for case in 0..7500 {
            let klen = 1 + (next() % 4) as usize;
            // Sweep pair magnitudes across normal, tiny, huge, and
            // subnormal-result regimes so pmin crosses every rounding
            // regime. Each class centres the seed on the product
            // magnitude (per-class seed shift) so a case's exponent
            // spread reflects its operands, not an artificial
            // seed/product gap.
            let rf32 = |r: u64, shift: i32| -> f32 {
                let mant = (r & 0x7f_ffff) as u32;
                let exp = ((100 + (r >> 40) % 24) as i32 + shift).clamp(0, 254) as u32;
                let sign = ((r >> 63) as u32) << 31;
                f32::from_bits(sign | (exp << 23) | mant)
            };
            // `y` takes the first shift on even terms and the second on
            // odd ones. The fourth class seeds +0.0 and lands its sums
            // astride the f32 subnormal boundary (gradual underflow
            // rounding). The last is the GEMM-FFT's shape: a running sum
            // beside x·w for a unit twiddle w and for one about 2^-54
            // (f32 cos(pi/2)).
            let classes: [(i32, [i32; 2], Option<i32>); 5] = [
                (0, [0, 0], Some(-15)),
                (-40, [0, 0], Some(-55)),
                (60, [60, 60], Some(105)),
                (-60, [-55, -55], None),
                (0, [0, -54], Some(-15)),
            ];
            let class = case % classes.len();
            let (s0, s1, ss) = classes[class];
            let seed = match ss {
                Some(ss) => rf32(next(), ss),
                None => 0.0,
            };
            let mut terms = [0f64; 4];
            let mut kul = m3xu_fp::Kulisch::new();
            kul.add_f64(seed as f64);
            for (t, term) in terms.iter_mut().enumerate().take(klen) {
                let (x, y) = (rf32(next(), s0), rf32(next(), s1[t % 2]));
                *term = x as f64 * y as f64; // exact: 24+24 bits
                kul.add_product_f32(x, y);
            }
            let fast = match klen {
                1 => round_chunk(seed, &[terms[0]]),
                2 => round_chunk(seed, &[terms[0], terms[1]]),
                3 => round_chunk(seed, &[terms[0], terms[1], terms[2]]),
                _ => round_chunk(seed, &terms),
            };
            if let Some(fast) = fast {
                accepted[class] += 1;
                assert_eq!(
                    fast.to_bits(),
                    kul.to_f32().to_bits(),
                    "case {case}: fast {fast:e} vs kulisch {:e}",
                    kul.to_f32()
                );
            }
        }
        // The window must actually cover the bulk of every class, the
        // GEMM-FFT's included, not vacuously abort it.
        assert!(
            accepted.iter().all(|&a| a > 1000),
            "cases accepted per class (of 1500): {accepted:?}"
        );
    }

    #[test]
    fn exact_chunk_round_aborts_on_specials_and_wide_spreads() {
        assert_eq!(round_chunk(f32::NAN, &[1.0]), None);
        assert_eq!(round_chunk(1.0, &[f64::INFINITY]), None);
        assert_eq!(round_chunk(1.0, &[f64::NAN]), None);
        // Spread beyond the window: 2^100 vs 2^-100.
        assert_eq!(round_chunk(1.0, &[1e30f64.powi(2), 1e-60]), None);
        // All-zero contributions collapse to +0.0 like the scalar path.
        assert_eq!(round_chunk(0.0, &[0.0, -0.0]).unwrap().to_bits(), 0);
        assert_eq!(round_chunk(-0.0, &[0.0]).unwrap().to_bits(), 0);
        // A finite exact sum beyond the f32 range overflows to ±Inf in
        // the rounder itself (the exponent guard, not a special input).
        let huge = f32::MAX as f64 * f32::MAX as f64;
        assert_eq!(round_chunk(0.0, &[huge]), Some(f32::INFINITY));
        assert_eq!(round_chunk(0.0, &[-huge]), Some(f32::NEG_INFINITY));
        assert_eq!(
            round_chunk(f32::MAX, &[f32::MAX as f64 * 16.0]),
            Some(f32::INFINITY)
        );
    }

    #[test]
    fn row_products_match_scalar_on_every_level() {
        // Each level's build of the product loop (through `dispatch`),
        // whole and truncated, against plain scalar products; `a` and
        // `bt` have bits below the 12-bit slice split, so `lo` is nonzero.
        let a: Vec<f32> = (0..16).map(|i| (i as f32 - 7.5) * 1.25e-3).collect();
        let bt: Vec<f32> = (0..160).map(|i| (i as f32 * 0.37).sin()).collect();
        let (bstride, c0, k0, klen) = (10, 1, 3, 4);
        let mut want = [[0f64; COLS]; MAX_KLEN];
        let mut want_trunc = [[0f64; COLS]; MAX_KLEN];
        for t in 0..klen {
            for j in 0..COLS {
                let (x, y) = (a[k0 + t], bt[(k0 + t) * bstride + c0 + j]);
                want[t][j] = x as f64 * y as f64;
                want_trunc[t][j] = want[t][j] - lo_f32(x) as f64 * lo_f32(y) as f64;
                assert_ne!(want_trunc[t][j], want[t][j], "lo·lo vanished at ({t}, {j})");
            }
        }
        for lvl in vector_levels() {
            let (got, got_trunc) = dispatch(
                lvl,
                #[inline(always)]
                |_| {
                    let mut got = [[0f64; COLS]; MAX_KLEN];
                    let mut got_trunc = [[0f64; COLS]; MAX_KLEN];
                    let (a, rows) = (&a[k0..k0 + klen], &bt[k0 * bstride..]);
                    row_products::<false>(a, &mut rows.chunks_exact(bstride), c0, &mut got);
                    row_products::<true>(a, &mut rows.chunks_exact(bstride), c0, &mut got_trunc);
                    (got, got_trunc)
                },
            );
            assert_eq!(got, want, "{lvl:?}");
            assert_eq!(got_trunc, want_trunc, "{lvl:?} truncated");
        }
    }

    #[test]
    #[ignore = "micro-profile; run with --release -- --ignored --nocapture"]
    fn micro_profile_panel_components() {
        use crate::matrix::Matrix;
        use crate::modes::MxuMode;
        use crate::packed::PackedOperand;
        use std::time::Instant;
        let k = 4096usize;
        let a = Matrix::<f32>::random(8, k, 1);
        let b = Matrix::<f32>::random(k, 8, 2);
        let pa = PackedOperand::pack_rows_f32(&a, MxuMode::M3xuFp32);
        let pb = PackedOperand::pack_cols_f32(&b, MxuMode::M3xuFp32);
        let lvl = level();
        let reps = 64;
        let chunks = k / 2;
        let elems = (8 * chunks * 8 * reps) as f64;

        // The host's clock drifts run to run; report the best of several
        // timed blocks so comparisons across builds are noise-resistant.
        let mut dpu = crate::dpu::DotProductUnit::new();
        let mut acc = [0f32; 64];
        let mut best = f64::MAX;
        for _ in 0..8 {
            let t = Instant::now();
            for _ in 0..reps {
                dpu.mma_f32_panel_into(&pa, &pb, 0, 8, 0, 8, 0, k, 2, &mut acc);
            }
            best = best.min(t.elapsed().as_nanos() as f64 / elems);
        }
        println!("panel total: {best:.1} ns/element-chunk ({lvl:?})");

        let mut out = [[0f64; COLS]; MAX_KLEN];
        let av: Vec<f32> = (0..k).map(|i| (i as f32).sin()).collect();
        let bt: Vec<f32> = (0..k * 8).map(|i| (i as f32).cos()).collect();
        let t = Instant::now();
        dispatch(
            lvl,
            #[inline(always)]
            |_| {
                for _ in 0..reps * 8 {
                    for c in 0..chunks {
                        row_products::<false>(
                            &av[c * 2..c * 2 + 2],
                            &mut bt[c * 16..].chunks_exact(8),
                            0,
                            &mut out,
                        );
                    }
                }
            },
        );
        println!(
            "row_products: {:.1} ns/element-chunk",
            t.elapsed().as_nanos() as f64 / elems
        );
        std::hint::black_box(&out);

        let terms = [0.37f64, -0.11];
        let t = Instant::now();
        let mut s = 0f32;
        for _ in 0..(elems as usize) {
            s = round_chunk(std::hint::black_box(s) * 1e-3, &terms).unwrap_or(0.0);
        }
        println!(
            "round_chunk: {:.1} ns/element-chunk",
            t.elapsed().as_nanos() as f64 / elems
        );
        std::hint::black_box(s);

        let mut sum = 0x001f_3a5c_9b71_0042_i128 << 9;
        let mut best = f64::MAX;
        for _ in 0..8 {
            let t = Instant::now();
            for _ in 0..(elems as usize) / 8 {
                let r = super::super::fast_round_f32(std::hint::black_box(sum), -80);
                sum ^= (r.to_bits() & 1) as i128;
            }
            best = best.min(t.elapsed().as_nanos() as f64 / (elems / 8.0));
        }
        println!("fast_round_f32: {best:.1} ns/call (latency-chained)");
        std::hint::black_box(sum);

        // Throughput (8 independent streams) of the two halves of the
        // exact path — where the panel budget actually goes.
        let mut seeds = [0.1f32, -0.2, 0.3, -0.4, 0.5, -0.6, 0.7, -0.8];
        let term_pool: Vec<[f64; 2]> = (0..64)
            .map(|i| [(i as f64 * 0.37).sin(), -(i as f64 * 0.11).cos()])
            .collect();
        let mut best = f64::MAX;
        for _ in 0..8 {
            let t = Instant::now();
            for r in 0..(elems as usize) / 8 {
                let terms2 = std::hint::black_box(&term_pool[r & 63]);
                for s in &mut seeds {
                    let seed = ChunkSeed::decode(std::hint::black_box(*s));
                    let (sum, pmin, ok) = exact_chunk_accumulate_seeded(seed, terms2);
                    *s = f32::from_bits(s.to_bits() ^ ((sum as u32 ^ pmin as u32 ^ ok as u32) & 1));
                }
            }
            best = best.min(t.elapsed().as_nanos() as f64 / elems);
        }
        println!("accumulate throughput: {best:.1} ns/element-chunk");
        std::hint::black_box(&seeds);

        // The full per-chunk composition (products + accumulate + round)
        // over bare local state — isolates the algorithmic cost from the
        // panel's operand/dispatch plumbing.
        let mut out = [[0f64; COLS]; MAX_KLEN];
        let mut accs = [0f32; COLS];
        let mut best = f64::MAX;
        for _ in 0..8 {
            let t = Instant::now();
            dispatch(
                lvl,
                #[inline(always)]
                |_| {
                    for _ in 0..reps * 8 {
                        let mut cs = [ChunkSeed::decode(0.0); COLS];
                        for (c, a) in cs.iter_mut().zip(accs.iter()) {
                            *c = ChunkSeed::decode(*a);
                        }
                        for c in 0..chunks {
                            row_products::<false>(
                                &av[c * 2..c * 2 + 2],
                                &mut bt[c * 16..].chunks_exact(8),
                                0,
                                &mut out,
                            );
                            for j in 0..COLS {
                                let terms = [out[0][j], out[1][j]];
                                let (sum, pmin, ok) = exact_chunk_accumulate_seeded(cs[j], &terms);
                                if ok {
                                    let (sign, frac, weight, finite) =
                                        super::super::fast_round_parts(sum, pmin);
                                    accs[j] = super::super::fast_round_assemble(
                                        sign, frac, weight, finite,
                                    );
                                    cs[j] = ChunkSeed {
                                        mant: frac,
                                        pow: weight,
                                        neg: sign != 0,
                                        finite,
                                    };
                                } else {
                                    accs[j] = 0.0;
                                    cs[j] = ChunkSeed::decode(0.0);
                                }
                            }
                        }
                    }
                },
            );
            best = best.min(t.elapsed().as_nanos() as f64 / elems);
        }
        println!("mini-panel (no plumbing): {best:.1} ns/element-chunk");
        std::hint::black_box(&accs);

        let mut sums = [
            0x001f_3a5c_9b71_0042_i128 << 9,
            0x000a_1111_2222_3333_i128 << 11,
            0x001c_4444_5555_6666_i128 << 7,
            0x0013_7777_8888_9999_i128 << 13,
            0x001e_aaaa_bbbb_cccc_i128 << 5,
            0x0009_dddd_eeee_ffff_i128 << 15,
            0x0016_1234_5678_9abc_i128 << 3,
            0x001b_def0_1234_5678_i128 << 17,
        ];
        let mut best = f64::MAX;
        for _ in 0..8 {
            let t = Instant::now();
            for _ in 0..(elems as usize) / 8 {
                for s in &mut sums {
                    let r = super::super::fast_round_f32(std::hint::black_box(*s), -80);
                    *s ^= (r.to_bits() & 1) as i128;
                }
            }
            best = best.min(t.elapsed().as_nanos() as f64 / elems);
        }
        println!("fast_round_f32 throughput: {best:.1} ns/call");
        std::hint::black_box(&sums);
    }

    /// The x86 levels this host runs, each with window kernels of its own.
    #[cfg(target_arch = "x86_64")]
    fn kernel_levels() -> Vec<SimdLevel> {
        let mut levels = vector_levels();
        levels.retain(|&l| l >= SimdLevel::Avx2);
        levels
    }

    /// Run every x86 drain kernel the host has ([`x86::round_chunk_avx2`],
    /// [`x86::round_chunk_avx512`]) on one row of windows and check every
    /// lane against the scalar [`super::super::fast_round_parts`]: a lane
    /// is rounded by the kernel exactly when it is in `mask` and the
    /// scalar rounder takes its normal-range branch, the rounded lanes
    /// carry the scalar result, and every other lane keeps its seed.
    #[cfg(target_arch = "x86_64")]
    fn check_round_chunk(sums: &[i128; COLS], base: &[i64; COLS], mask: u32, fill: u64) {
        let lo = sums.map(|s| s as u64);
        let hi = sums.map(|s| (s >> 64) as u64);
        for level in kernel_levels() {
            let mut seeds = RowSeeds {
                mant: [fill; COLS],
                pow: [fill as i64 ^ 0x55; COLS],
                neg: [fill.rotate_left(7); COLS],
                finite: 0xa5,
            };
            let before = (seeds.mant, seeds.pow, seeds.neg);
            // SAFETY: `kernel_levels` holds only levels the host runs.
            let done = unsafe {
                match level {
                    SimdLevel::Avx512 => x86::round_chunk_avx512(&lo, &hi, base, mask, &mut seeds),
                    _ => x86::round_chunk_avx2(&lo, &hi, base, mask, &mut seeds),
                }
            };
            assert_eq!(
                seeds.finite, 0xa5,
                "{level:?}: the kernel never touches the finite bits"
            );
            for j in 0..COLS {
                let (sum, pmin) = (sums[j], base[j] as i32);
                let lead = 127 - sum.unsigned_abs().leading_zeros() as i32;
                let fast = sum != 0 && lead >= 25 && (-126..127).contains(&(lead + pmin));
                let want_done = mask >> j & 1 == 1 && fast;
                assert_eq!(
                    done >> j & 1 == 1,
                    want_done,
                    "{level:?} lane {j}: sum {sum:#x} pmin {pmin}"
                );
                if want_done {
                    let (sign, frac, weight, finite) = super::super::fast_round_parts(sum, pmin);
                    assert!(finite);
                    assert_eq!(
                        (seeds.mant[j], seeds.pow[j], seeds.neg[j] != 0),
                        (frac, weight as i64, sign != 0),
                        "{level:?} lane {j}: sum {sum:#x} pmin {pmin}"
                    );
                    assert!(seeds.neg[j] == 0 || seeds.neg[j] == u64::MAX);
                } else {
                    assert_eq!(
                        (seeds.mant[j], seeds.pow[j], seeds.neg[j]),
                        (before.0[j], before.1[j], before.2[j]),
                        "{level:?} lane {j} must be left untouched"
                    );
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn round_chunk_avx2_matches_scalar_rounder_lane_by_lane() {
        if kernel_levels().is_empty() {
            return;
        }
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // A magnitude with its leading bit at `lead` (0..=126), `below`
        // giving the bits under it.
        let at = |lead: u32, below: u128| -> i128 {
            let m = (1u128 << lead) | (below & ((1u128 << lead) - 1));
            m as i128
        };
        // Random windows: every leading-bit position, both signs, and
        // anchors that put the result exponent across (-140, 140).
        for _ in 0..20_000 {
            let mut sums = [0i128; COLS];
            let mut base = [0i64; COLS];
            for j in 0..COLS {
                let lead = (next() % 127) as u32;
                // Random bits under the leading one, half the time with a
                // run of low zeros so the sticky probe must look into the
                // high half.
                let mut bits = ((next() as u128) << 64) | next() as u128;
                if next() & 1 == 1 {
                    bits &= u128::MAX << (next() % 128);
                }
                let mut m = at(lead, bits);
                if next() % 16 == 0 {
                    m = 0;
                }
                sums[j] = if next() & 1 == 1 { -m } else { m };
                base[j] = (next() % 281) as i64 - 140 - lead as i64;
            }
            check_round_chunk(&sums, &base, (next() & 0xff) as u32, next());
        }
        // Edges, each at every lane position under a full mask. `sticky`
        // is the one bit set below the round bit, if any: the lowest
        // (bit 0) or the highest (just under the round bit).
        let frac_tie = |frac: u128, lead: u32, round: bool, sticky: Option<bool>| -> i128 {
            let lowbit = lead - 24;
            let mut m = (frac | 1 << 23) << lowbit;
            if round {
                m |= 1 << (lowbit - 1);
            }
            match sticky {
                Some(lowest) if lowbit > 1 => m |= 1 << if lowest { 0 } else { lowbit - 2 },
                _ => {}
            }
            m as i128
        };
        let mut edges: Vec<(i128, i64)> = Vec::new();
        for lead in [25u32, 26, 40, 63, 64, 65, 87, 88, 89, 90, 100, 126] {
            for frac in [0u128, 1, 2, 0x7f_fffe, 0x7f_ffff, 0x12_3457] {
                for round in [false, true] {
                    for sticky in [None, Some(true), Some(false)] {
                        let m = frac_tie(frac, lead, round, sticky);
                        for e in [-127i64, -126, -125, 0, 125, 126, 127] {
                            let pmin = e - lead as i64;
                            edges.push((m, pmin));
                            edges.push((-m, pmin));
                        }
                    }
                }
            }
        }
        // Leading bit at 24 (scalar rounder) and 25 (vector), below the
        // round probe; zero sums of either anchor.
        for lead in [0u32, 1, 23, 24, 25] {
            edges.push((at(lead, 0x00ab_cdef), -(lead as i64)));
            edges.push((-at(lead, 0x0012_3457), 3));
        }
        edges.push((0, 0));
        edges.push((0, -150));
        for (n, &(sum, pmin)) in edges.iter().enumerate() {
            let mut sums = [0i128; COLS];
            let mut base = [0i64; COLS];
            for j in 0..COLS {
                let (s, p) = edges[(n + j) % edges.len()];
                sums[j] = s;
                base[j] = p;
            }
            sums[n % COLS] = sum;
            base[n % COLS] = pmin;
            check_round_chunk(&sums, &base, 0xff, n as u64);
            check_round_chunk(&sums, &base, (n as u32 * 37) & 0xff, !(n as u64));
        }
    }

    /// What the valid lanes of [`check_accumulate_chunk`]'s rows covered,
    /// for the window residue: negative and zero sums, and anchors far
    /// below 0 and above 61 (where the rotation wraps).
    #[cfg(target_arch = "x86_64")]
    #[derive(Default)]
    struct ResidueCover {
        negative: u32,
        zero: u32,
        base_below: u32,
        base_above: u32,
    }

    /// Run the tapped window phase (`RowWindow::accumulate`) at every
    /// vector level the host has — every x86 accumulate kernel
    /// ([`x86::accumulate_chunk_avx2`], [`x86::accumulate_chunk_avx512`])
    /// and `Sse2`'s scalar window — on one row of `T`-deep chunks, and
    /// check every lane against the scalar
    /// [`exact_chunk_accumulate_seeded`]: the valid-lane mask (with the
    /// `finite` bits ANDed in, as the panels do) matches exactly, and
    /// every valid lane carries the same `(sum, base)` and so the residue
    /// `residue_i128(sum, base)`. Returns the mask and the scalar
    /// windows.
    #[cfg(target_arch = "x86_64")]
    fn check_accumulate_chunk<const T: usize>(
        prods: &[[f64; COLS]],
        seeds: &RowSeeds,
        cover: &mut ResidueCover,
    ) -> (u32, [i128; COLS], [i64; COLS]) {
        let (mut want, mut sums, mut bases) = (0u32, [0i128; COLS], [0i64; COLS]);
        for j in 0..COLS {
            let terms: [f64; T] = std::array::from_fn(|t| prods[t][j]);
            let (sum, pmin, valid) = exact_chunk_accumulate_seeded(seeds.get(j), &terms);
            want |= (valid as u32) << j;
            (sums[j], bases[j]) = (sum, pmin as i64);
        }
        for level in vector_levels() {
            let mut window = super::super::RowWindow::default();
            let ok = window.accumulate::<T, true>(level, prods, seeds);
            assert_eq!(ok, want, "{level:?} valid-lane mask");
            for j in (0..COLS).filter(|j| want >> j & 1 == 1) {
                let (sum, base) = (sums[j], bases[j]);
                assert_eq!(
                    (window.sum(j), window.base[j]),
                    (sum, base),
                    "{level:?} lane {j}: seed {}·2^{} terms {:?}",
                    seeds.mant[j],
                    seeds.pow[j],
                    prods.iter().take(T).map(|row| row[j]).collect::<Vec<_>>()
                );
                assert_eq!(
                    window.residue(j),
                    m3xu_fp::residue::residue_i128(sum, base),
                    "{level:?} lane {j}: {sum:#x} · 2^{base}"
                );
            }
        }
        for j in (0..COLS).filter(|j| want >> j & 1 == 1) {
            cover.negative += (sums[j] < 0) as u32;
            cover.zero += (sums[j] == 0) as u32;
            cover.base_below += (bases[j] < -61) as u32;
            cover.base_above += (bases[j] > 61) as u32;
        }
        (want, sums, bases)
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn accumulate_chunk_avx2_matches_scalar_window_lane_by_lane() {
        if kernel_levels().is_empty() {
            return;
        }
        let mut state = 0x6a09_e667_f3bc_c909u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        const M52: u64 = (1 << 52) - 1;
        let mut cover = ResidueCover::default();
        let mut check = |klen: usize, prods: &[[f64; COLS]], seeds: &RowSeeds| match klen {
            0 => check_accumulate_chunk::<0>(prods, seeds, &mut cover),
            1 => check_accumulate_chunk::<1>(prods, seeds, &mut cover),
            2 => check_accumulate_chunk::<2>(prods, seeds, &mut cover),
            3 => check_accumulate_chunk::<3>(prods, seeds, &mut cover),
            _ => check_accumulate_chunk::<4>(prods, seeds, &mut cover),
        };
        // Random rows: every contribution's top bit lies within ±64 of its
        // lane's centre, so the spread lands on both sides of the bound;
        // some seeds are zero or non-finite, some products signed zeros,
        // subnormals, infinities or NaNs.
        let mut accepted = 0u32;
        for case in 0..20_000 {
            let klen = case % (MAX_KLEN + 1);
            let mut prods = [[0f64; COLS]; MAX_KLEN];
            let mut seeds = RowSeeds::load(&[0.0; COLS]);
            for j in 0..COLS {
                let centre = (next() % 1801) as i32 - 900;
                let top = |r: u64| centre + (r % 129) as i32 - 64;
                let mant = match next() % 8 {
                    0 => 0,
                    1 => 1 << 23,
                    2 => (1 << 24) - 1,
                    _ => next() & 0xff_ffff,
                };
                let pow = top(next()) - SEED_BITS;
                let r = next();
                seeds.set(
                    j,
                    ChunkSeed {
                        mant,
                        pow,
                        neg: r & 1 == 1,
                        finite: r % 29 != 0,
                    },
                );
                for row in prods.iter_mut().take(klen) {
                    let sign = next() >> 63 << 63;
                    let frac = next() & M52;
                    let exp = match next() % 64 {
                        0 => 0x7ff,
                        1 | 2 => 0,
                        3 => {
                            row[j] = f64::from_bits(sign);
                            continue;
                        }
                        _ => (top(next()) + 1022) as u64,
                    };
                    row[j] = f64::from_bits(sign | exp << 52 | frac);
                }
            }
            accepted += check(klen, &prods, &seeds).0.count_ones();
        }
        // Both verdicts must be common, not one of them vacuous.
        assert!(
            (40_000..120_000).contains(&accepted),
            "{accepted}/160000 lanes accepted"
        );

        // The largest sum: all-ones product significands at the top of
        // the span and at `bottom`, a `2^24 − 1` seed whose least bit
        // weighs `2^seed_pow`, one sign throughout. `f64_at` is the value
        // of a significand whose least bit weighs `2^pow`.
        let f64_at = |neg: bool, mant: u64, pow: i32| -> f64 {
            (if neg { -1.0 } else { 1.0 }) * mant as f64 * 2f64.powi(pow)
        };
        let pmin = -200;
        let all_ones = (1u64 << 53) - 1;
        let largest = |neg: bool, seed_pow: i32, bottom: i32| -> (f32, [f64; 4]) {
            let top = f64_at(neg, all_ones, pmin + WINDOW_POW_SPAN);
            let seed = f64_at(neg, (1 << SEED_BITS) - 1, seed_pow) as f32;
            (seed, [top, top, top, f64_at(neg, all_ones, bottom)])
        };
        // The FFT shape: the running sum, x·1 and x·f32(cos(pi/2)).
        let x = 0.712_345_6f32;
        let tiny = (std::f64::consts::FRAC_PI_2.cos() as f32) as f64;
        let fft = [x as f64, x as f64 * tiny, 0.0, 0.0];
        // Edges, each at every lane position of a row of four-deep chunks.
        // `Some(v)` is the verdict a lane must get; every lane must match
        // the scalar window either way.
        let edges: Vec<(f32, [f64; 4], Option<bool>)> = vec![
            // D = 124: the largest sum the bound admits, either sign.
            {
                let (s, t) = largest(false, pmin + 100, pmin);
                (s, t, Some(true))
            },
            {
                let (s, t) = largest(true, pmin + 100, pmin);
                (s, t, Some(true))
            },
            // D = 125 from the bottom product one lower, or from the seed
            // one higher.
            {
                let (s, t) = largest(false, pmin + 100, pmin - 1);
                (s, t, Some(false))
            },
            {
                let (s, t) = largest(true, pmin + 101, pmin);
                (s, t, Some(false))
            },
            // A zero sum, a seed alone, an empty lane.
            (0.75, [-0.75, 0.0, -0.0, 0.0], Some(true)),
            (-1.5, [0.0, -0.0, 0.0, -0.0], Some(true)),
            (-0.0, [0.0, -0.0, -0.0, 0.0], Some(true)),
            // The GEMM-FFT's shape, the seed at |x| and 2^17·|x| (the
            // widest it admits), then 2^18·|x|.
            (1.25 * x, fft, Some(true)),
            (-(x * 2f32.powi(17)), fft, Some(true)),
            (x * 2f32.powi(18), fft, Some(false)),
        ];
        for n in 0..edges.len() * COLS {
            let mut prods = [[0f64; COLS]; MAX_KLEN];
            let mut seeds = RowSeeds::load(&[0.0; COLS]);
            for j in 0..COLS {
                let (seed, terms, _) = edges[(n + j) % edges.len()];
                seeds.set(j, ChunkSeed::decode(seed));
                for (t, &v) in terms.iter().enumerate() {
                    prods[t][j] = v;
                }
            }
            let (ok, sums, base) = check(4, &prods, &seeds);
            for j in 0..COLS {
                let (seed, terms, verdict) = edges[(n + j) % edges.len()];
                if let Some(v) = verdict {
                    assert_eq!(ok >> j & 1 == 1, v, "edge {}", (n + j) % edges.len());
                }
                if ok >> j & 1 == 1 {
                    // The window's rounding is the Kulisch drain's.
                    let mut kul = m3xu_fp::Kulisch::new();
                    kul.add_f64(seed as f64);
                    for &t in &terms {
                        kul.add_f64(t);
                    }
                    let r = super::super::fast_round_f32(sums[j], base[j] as i32);
                    assert_eq!(
                        r.to_bits(),
                        kul.to_f32().to_bits(),
                        "edge {}",
                        (n + j) % edges.len()
                    );
                }
            }
        }
        // Seed-only and empty lanes with no products at all.
        let mut seeds = RowSeeds::load(&[1.5, -0.0, 0.0, -2.0e-40, 3.0e38, -1.0, 0.0, 7.0]);
        seeds.set(6, ChunkSeed::decode(f32::NAN));
        let (ok, _, _) = check(0, &[], &seeds);
        assert_eq!(ok, 0xff & !(1 << 6));
        // The residues above met negative and zero sums and anchors on
        // both sides of the rotation's range, beside the edges at the
        // admission bound.
        let ResidueCover {
            negative,
            zero,
            base_below,
            base_above,
        } = cover;
        assert!(
            negative > 1000 && zero >= 10 && base_below > 1000 && base_above > 1000,
            "{negative} negative, {zero} zero, {base_below} below -61, {base_above} above 61"
        );
    }

    #[test]
    fn row_products_c32_match_scalar_on_every_level() {
        let (ar, ai) = (0.713f32, -1.375e-2f32);
        let bre: Vec<f32> = (0..8).map(|i| (i as f32 * 0.61).cos()).collect();
        let bim: Vec<f32> = (0..8).map(|i| (i as f32 * 0.23 - 1.0).tan()).collect();
        let mut want = [[0f64; COLS]; 4];
        for j in 0..COLS {
            want[0][j] = ar as f64 * bre[j] as f64;
            want[1][j] = -ai as f64 * bim[j] as f64;
            want[2][j] = ar as f64 * bim[j] as f64;
            want[3][j] = ai as f64 * bre[j] as f64;
        }
        let (bre, bim) = (bre.try_into().unwrap(), bim.try_into().unwrap());
        for lvl in vector_levels() {
            let got = dispatch(
                lvl,
                #[inline(always)]
                |_| row_products_c32(ar, ai, &bre, &bim),
            );
            assert_eq!(got, want, "{lvl:?}");
        }
    }
}
