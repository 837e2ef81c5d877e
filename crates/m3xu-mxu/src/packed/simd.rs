//! SIMD fragment pipeline for the packed executors.
//!
//! The scalar fast path in [`super`] walks one `BufferEntry` pair at a
//! time: per element-chunk it multiplies up to nine 24-bit half-product
//! mantissas and reduces them in a 128-bit window. This module replaces
//! that inner loop with a pipeline that runs whole fragment rows (8 output
//! columns each) per step in `f64` arithmetic alone, built on two
//! observations:
//!
//! 1. **Every product is exact in `f64`.** The full product of two `f32`
//!    values (at most 24-bit significands) is *exactly* representable in
//!    `f64` (48 < 53 bits, exponents in ±298 ⊂ f64 range), and for finite
//!    operands the four half-products of the hi/lo split sum to exactly
//!    that product. The same holds per quantised element in the narrow
//!    modes (≤ 12-bit mantissas), per component product in FP32C and for
//!    the fast mode's truncated product (below). So the exact chunk value
//!    `X = seed + Σ_k a_k·b_k` is a sum of at most `1 + MAX_KLEN` exact
//!    `f64` terms.
//! 2. **Rounding is per fragment, and `f64` can do it.** The bit-exactness
//!    contract fixes *what* each fragment drain must round — the exact
//!    real value `X` — not *how*. `round_chunk` reduces `X` to an exact
//!    pair of `f64`s with error-free transformations, rounds it to odd at
//!    53 bits, and converts to `f32`: rounding to odd at 53 ≥ 24 + 2 bits
//!    and then to nearest at 24 is rounding to nearest once (Boldo and
//!    Melquiond, IEEE TC 2008), so the result is the Kulisch drain's bits.
//!
//! ## The rounder
//!
//! Per column of a `T`-deep chunk of exact products `p_t`:
//!
//! * A TwoSum cascade sums the products, `u = fl(Σ p_t)`, keeping each
//!   error `e_t`, so `u + Σ e_t = Σ p_t` exactly. Then `(th, tl) =
//!   TwoSum(seed, u)`.
//! * The residual `r = tl + Σ e_t` is summed through TwoSums too. When
//!   every one of their errors is zero — the *certificate* — `r` is exact,
//!   so `(h, l) = TwoSum(th, r)` holds `X = h + l` exactly, and `h =
//!   RN_53(X)`.
//! * Round to odd: when `l ≠ 0` and `h`'s last bit is 0, step `h`'s bits
//!   by one toward `l` (+1 when `l` has `h`'s sign, −1 otherwise). That is
//!   `RO_53(X)`, and `as f32` rounds it to `RN_24(X)`, subnormal results
//!   and overflow to ±Inf included.
//! * `h` is zero exactly when `X` is. The result is then `+0`, the scalar
//!   path's signed-zero rule: the rounder adds `+0.0` before converting.
//!
//! Every TwoSum here is exact and nothing underflows: every value is a
//! multiple of `2^-298` below `2^260`. A column whose certificate fails
//! (its residual terms span more than 53 bits, as in a running sum beside
//! two products at two much smaller scales) or whose pair is not finite
//! (TwoSum's error of an infinite or NaN operand is NaN, and every error
//! flows into `l`, so any special input leaves `l` NaN) falls back **per
//! element-chunk** to the scalar executor, which remains the differential
//! oracle. The GEMM-FFT's running sum beside `x·w` for `w` some 2^-54
//! (f32 cos(pi/2)) is a two-scale chunk and stays on the vector path. The
//! pair is also the ABFT tap: a checked chunk's residue is `residue(h) +
//! residue(l)`. The kill switch `M3XU_SIMD=0` (or
//! [`set_level`]`(SimdLevel::Scalar)`) routes every element through the
//! oracle path.
//!
//! ## The quick tier
//!
//! Nearly every chunk needs no exact pair. `round_chunk_quick` (Ziv's
//! rounding test) sums a one- or two-deep chunk in plain `f64`, `u = p_0 +
//! p_1` and `s = seed + u`, bounds that sum's error by `e = 2^-50·(|u| +
//! |s|)`, eight times the two additions' worst case, and accepts a row
//! when every column's `s − e` and `s + e` convert to the same `f32` bits:
//! `as f32` is monotone, so those bits are `RN_24(X)`. It refuses an
//! interval astride an FP32 midpoint or astride zero, and every special
//! input. The unchecked FP32, fast-FP32 and FP32C panels run it on every
//! row of a chunk step, then the pair on the rows it refused, then the
//! oracle on the columns the pair refuses, so every output keeps the
//! oracle's bits.
//! FP16 and BF16 chunks are four deep, past its depths. TF32 chunks are
//! two deep but stay on the pair: their quantised products are short, so
//! their chunk sums often land exactly on FP32 midpoints, which the test
//! must refuse, and most rows hold one. Checked chunks stay on it too:
//! their tap reads the pair.
//!
//! ## The panels
//!
//! The row products (`ChunkB`, `row_products_c32`) are portable
//! 8-column loops of exact `f64` products out of the planar `f32` value
//! planes built at pack time ([`super::PackedOperand`] stores the `B`
//! side k-major so one row touches 8 consecutive columns), and the
//! rounder is a portable 8-column loop of `f64` additions. `dispatch`
//! compiles each panel body once per level: at `Avx2` inside one
//! `#[target_feature(enable = "avx2,fma")]` frame, four lanes per
//! instruction; at `Avx512` inside an x86-64-v4 frame, a whole fragment
//! row per zmm register; and below them in the baseline build, two lanes
//! at `Sse2`. The row accumulators stay plain `f32` rows. Each chunk's
//! rounding seeds the next, so the FP32-family panel rounds `F32_ROWS`
//! fragment rows per chunk step and FP32C `C32_ROWS` rows of two
//! components each: their seed chains are independent and overlap, and
//! every row of a step shares the chunk's `B` row loads.
//!
//! Two modes need one more identity each:
//!
//! * **Fast FP32** issues only `hi_a·hi_b + hi_a·lo_b + lo_a·hi_b` of the
//!   12|12 slice split. That equals `a·b − lo_a·lo_b`, and with `lo(x) =
//!   x − (x & HI_MASK)` computed in-register (exact for every finite
//!   `f32`) both products are exact in `f64`, and so is their difference,
//!   which spans at most 37 bits. So the truncated row product costs,
//!   per four columns, one `vmulpd` and `vsubpd` more, and one `vandps`,
//!   `vsubps` and `vcvtps2pd` per chunk step; the rounder applies
//!   unchanged. A non-finite operand makes `lo` a NaN, so the product
//!   still falls back.
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
    /// The panel bodies in the baseline build: 2-lane `f64` products and
    /// rounder (baseline on every `x86_64`).
    Sse2,
    /// The panel bodies built with AVX2 and FMA: 4-lane `f64` products and
    /// rounder, and the `vfmadd` emulated-FP64 row (runtime-detected: the
    /// host must have both AVX2 and FMA).
    Avx2,
    /// The panel bodies built for x86-64-v4: a fragment row's 8 columns
    /// in one zmm register, for the products, the rounder and the
    /// emulated-FP64 row (runtime-detected: AVX-512 F, CD, DQ, BW and VL
    /// beside AVX2 and FMA).
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

/// Fragment rows the FP32-family panel rounds per chunk step: four
/// independent seed chains in flight, sharing the chunk's `B` rows.
pub(crate) const F32_ROWS: usize = 4;

/// Fragment rows the FP32C panel rounds per chunk step, two components
/// each: four seed chains in flight, as in the FP32-family panel.
pub(crate) const C32_ROWS: usize = 2;

/// A fragment row of `f64` values, one per column.
pub(crate) type Row = [f64; COLS];

/// `a + b` rounded to `f64` per column, and its rounding error: Knuth's
/// TwoSum, six additions with no branch and no ordering of `|a|` and
/// `|b|` assumed. The error is exact whenever the sum does not overflow;
/// it is NaN when either operand is infinite or NaN. The rounder is
/// written as such whole-row steps, which the compiler turns into one
/// vector instruction each, not as a loop over columns with the rounder
/// inside, which it leaves scalar.
#[inline(always)]
fn two_sum(a: &Row, b: &Row) -> (Row, Row) {
    let (mut s, mut e) = ([0.0; COLS], [0.0; COLS]);
    for j in 0..COLS {
        s[j] = a[j] + b[j];
        let bb = s[j] - a[j];
        e[j] = (a[j] - (s[j] - bb)) + (b[j] - bb);
    }
    (s, e)
}

/// Charge a certified sum's errors to `refusal`: `|c|` adds zero to a
/// column exactly when its error is zero, and NaN stays NaN.
#[inline(always)]
fn refuse_unless_zero(refusal: &mut Row, c: &Row) {
    for (r, c) in refusal.iter_mut().zip(c) {
        *r += c.abs();
    }
}

/// One fragment row's chunk, rounded by [`round_chunk`].
#[derive(Clone, Copy)]
pub(crate) struct RoundedRow {
    /// Each column's chunk value correctly rounded to FP32. Only the
    /// columns of [`RoundedRow::ok`] are meaningful.
    pub(crate) out: [f32; COLS],
    /// Each column's pair `(h, l)`: the chunk value is exactly `h + l`,
    /// and `h` is its `f64` rounding. The residue tap reads it.
    pub(crate) pair: [Row; 2],
    /// Zero for a column whose pair is certified exact and is finite;
    /// positive or NaN for a refused one.
    refusal: Row,
}

impl RoundedRow {
    /// A row before rounding.
    pub(crate) const NONE: RoundedRow = RoundedRow {
        out: [0.0; COLS],
        pair: [[0.0; COLS]; 2],
        refusal: [0.0; COLS],
    };

    /// The accepted columns, as a bitmask. Every `refusal` entry is `+0`
    /// or has bits set, so one OR over their bits settles the common case,
    /// a whole row accepted; only a row with a refused column builds its
    /// mask column by column.
    #[inline(always)]
    pub(crate) fn ok(&self) -> u32 {
        if self.refusal.iter().fold(0, |bits, r| bits | r.to_bits()) == 0 {
            (1 << COLS) - 1
        } else {
            accepted(self.refusal)
        }
    }
}

/// [`RoundedRow::ok`] column by column, out of the panel loop.
#[cold]
#[inline(never)]
fn accepted(refusal: Row) -> u32 {
    let mut ok = 0;
    for (j, r) in refusal.iter().enumerate() {
        ok |= ((*r == 0.0) as u32) << j;
    }
    ok
}

/// Round each column's chunk value `seed[j] + Σ_t prods[t][j]` to FP32,
/// where every `prods[t][j]` is an exact product (see the module docs for
/// the algorithm and why it is the Kulisch drain's rounding). The columns
/// [`RoundedRow::ok`] leaves out are refused: a failed certificate or a
/// non-finite input, which the caller reruns on the scalar oracle.
///
/// The products' cascade errors are summed apart from the seed, so the
/// seed's dependency chain — each chunk's result seeds the next — is
/// three TwoSums, the round-to-odd step and two conversions. It is one
/// portable function that `dispatch` compiles per level with its callers.
#[inline(always)]
pub(crate) fn round_chunk<const T: usize>(seed: &[f32; COLS], prods: &[Row; T]) -> RoundedRow {
    // `u + err` is the products' sum while `refusal` stays zero.
    let (mut u, mut err, mut refusal) = (prods[0], [0.0; COLS], [0.0; COLS]);
    for (t, p) in prods.iter().enumerate().skip(1) {
        let (s, e) = two_sum(&u, p);
        u = s;
        if t == 1 {
            err = e;
        } else {
            let c;
            (err, c) = two_sum(&err, &e);
            refuse_unless_zero(&mut refusal, &c);
        }
    }
    let (th, tl) = two_sum(&seed.map(f64::from), &u);
    // One product leaves no cascade error: `(th, tl)` is already the
    // pair. Otherwise `r = tl + err` is the last certified sum.
    let (h, l) = if T == 1 {
        (th, tl)
    } else {
        let (r, c) = two_sum(&tl, &err);
        refuse_unless_zero(&mut refusal, &c);
        two_sum(&th, &r)
    };
    let mut row = RoundedRow::NONE;
    for j in 0..COLS {
        // Round to odd: an inexact `h` with an even last bit steps one
        // unit toward `l`, up in magnitude (`| 1`) when `l` has `h`'s
        // sign, down (`- 1`, which leaves the last bit set) otherwise.
        let (hb, lb) = (h[j].to_bits(), l[j].to_bits());
        let inexact = (l[j] != 0.0) as u64;
        let down = (hb ^ lb) >> 63 & inexact & !hb & 1;
        let odd = hb.wrapping_sub(down) | inexact;
        // `+ 0.0` makes an exact-zero sum `+0` whatever `h`'s sign; a
        // nonzero `h` that underflows in `as f32` keeps its sign.
        row.out[j] = (f64::from_bits(odd) + 0.0) as f32;
        // `l · 0` is a zero for a finite `l` and NaN otherwise; either
        // zero leaves a `+0` refusal `+0`.
        row.refusal[j] = refusal[j] + l[j] * 0.0;
    }
    row.pair = [h, l];
    row
}

/// The quick tier's error scale, `2^-50`: eight times the `2^-53` bound on
/// the relative error of each rounded addition (see [`round_chunk_quick`]).
const QUICK_SCALE: f64 = 1.0 / (1u64 << 50) as f64;

/// One fragment row's chunk, rounded by [`round_chunk_quick`].
pub(crate) struct QuickRow {
    /// Each column's chunk value correctly rounded to FP32, when the row
    /// passed.
    pub(crate) out: [f32; COLS],
    /// Zero for a column whose interval's two ends round alike.
    miss: [u32; COLS],
}

impl QuickRow {
    /// Whether every column passed: one OR over the row, one `vptest`.
    #[inline(always)]
    pub(crate) fn passed(&self) -> bool {
        self.miss.iter().fold(0, |m, x| m | x) == 0
    }
}

/// Round each column's chunk value `X = seed[j] + Σ_t prods[t][j]`, one or
/// two exact products deep, to FP32 from a plain `f64` sum, or refuse the
/// row: Ziv's rounding test (ACM TOMS 1991). A row it refuses
/// ([`QuickRow::passed`] false) goes to [`round_chunk`] on the same
/// products; its values are then meaningless.
///
/// Per column, `u = fl(p_0 + p_1)` and `s = fl(seed + u)`. Each rounded
/// addition is off by at most `2^-53` times its result, so `|X − s| ≤
/// 2^-53·(|u| + |s|)`. `e = fl(|u| + |s|)·2^-50` bounds that eight times
/// over (the power-of-two scale is exact), enough for `lo = fl(s − e) ≤ X
/// ≤ fl(s + e) = hi` to survive the two roundings. `as f32` is monotone,
/// so `lo` and `hi` converting to the same bits makes those bits
/// `RN_24(X)`: subnormal results, overflow to ±Inf and a nonzero `X` that
/// underflows to a signed zero included. Comparing bits refuses an
/// interval astride zero (`−0` against `+0`), so an exact-zero sum of
/// `−0` addends is left to the pair, which makes it `+0`. A special input
/// makes `lo` or `hi` NaN (`Inf − Inf` in `s ∓ e`, or a NaN sum): a NaN
/// `lo` is refused outright, a NaN `hi` by its bits. Nothing underflows:
/// every value is zero or at least `2^-348`. See DESIGN §4, "The quick
/// tier".
///
/// The seed's chain is one conversion in, one addition, the bound and one
/// conversion out. Like [`round_chunk`], it is whole-row steps, one
/// vector instruction each.
#[inline(always)]
pub(crate) fn round_chunk_quick<const T: usize>(seed: &[f32; COLS], prods: &[Row; T]) -> QuickRow {
    // A constant test: it costs nothing at the depths that pass it.
    assert!(
        T == 1 || T == 2,
        "the quick tier's bound covers depths 1 and 2"
    );
    let mut u = prods[0];
    for p in &prods[1..] {
        for (u, p) in u.iter_mut().zip(p) {
            *u += p;
        }
    }
    let mut s = [0.0; COLS];
    for j in 0..COLS {
        s[j] = seed[j] as f64 + u[j];
    }
    let mut e = [0.0; COLS];
    for j in 0..COLS {
        e[j] = (u[j].abs() + s[j].abs()) * QUICK_SCALE;
    }
    let (mut lo, mut hi) = ([0f32; COLS], [0f32; COLS]);
    for j in 0..COLS {
        lo[j] = (s[j] - e[j]) as f32;
        hi[j] = (s[j] + e[j]) as f32;
    }
    let mut miss = [0; COLS];
    for j in 0..COLS {
        miss[j] = (lo[j].to_bits() ^ hi[j].to_bits()) | lo[j].is_nan() as u32;
    }
    QuickRow { out: lo, miss }
}

/// The AVX2 and AVX-512 levels' own code: per level, the frame
/// `dispatch` compiles the panel bodies in (`avx2`, `avx512`), and the
/// FP64 FMA row.
///
/// Every function here is `unsafe`: the caller guarantees the CPU has
/// the features the function's level needs (AVX2 and FMA; AVX-512 F, CD,
/// DQ, BW and VL beside them at `Avx512`).
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use core::arch::x86_64::*;

    use super::{SimdLevel, COLS};

    /// The `Avx2` arm of [`super::dispatch`]: `body` inlines into this
    /// frame, so it and everything it inlines — the portable row
    /// products and rounder, [`super::fma_row`] — are compiled with AVX2
    /// and FMA enabled.
    ///
    /// # Safety
    /// Caller guarantees AVX2 and FMA are available.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub unsafe fn avx2<R>(body: impl FnOnce(SimdLevel) -> R) -> R {
        body(SimdLevel::Avx2)
    }

    /// The `Avx512` arm of [`super::dispatch`]: [`avx2`]'s frame with
    /// x86-64-v4 enabled, so the portable row products and rounder widen
    /// to eight lanes and the FMA row inlined here is the zmm one.
    ///
    /// # Safety
    /// Caller guarantees AVX-512 F, CD, DQ, BW and VL, AVX2 and FMA are
    /// available.
    #[target_feature(enable = "avx512f,avx512cd,avx512dq,avx512bw,avx512vl,avx2,fma")]
    #[inline]
    pub unsafe fn avx512<R>(body: impl FnOnce(SimdLevel) -> R) -> R {
        body(SimdLevel::Avx512)
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

/// Run `body` compiled for `level`, handing the level back so a level
/// switch in the body (the emulated-FP64 panel's FMA row) folds to a
/// constant. At `Avx2` the body runs inside [`x86::avx2`], a
/// `#[target_feature(enable = "avx2,fma")]` frame, and at `Avx512` inside
/// [`x86::avx512`], which enables x86-64-v4, so one panel source becomes
/// each level's build; the lower levels call it directly, in the baseline
/// build. Rust never contracts `a * b + c` into an FMA unless the code
/// calls `mul_add`, so enabling `fma` moves no rounding: every level
/// computes the same bits.
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
            // because the frames and the FMA rows they reach need it. The
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

/// One chunk's `B` values at a fragment row's 8 columns, widened to `f64`
/// once for every fragment row of a panel step: `b[t][j] = b_t[c0 + j]`
/// for the `T` rows `b_rows` yields next, and with `TRUNC` (the fast FP32
/// mode) each value's low slice `lo(b_t[c0 + j])`. The `B` value plane is
/// k-major, one row per reduction index, and the caller keeps one
/// iterator across a row group's chunks.
pub(crate) struct ChunkB<const T: usize> {
    b: [[f64; COLS]; T],
    lo: [[f64; COLS]; T],
}

impl<const T: usize> ChunkB<T> {
    /// Take the chunk's `T` rows from `b_rows`. Every row it yields is
    /// exactly one `B` row long, so once the caller has checked the column
    /// window against that length (the two comparisons `brow[c0..][..COLS]`
    /// makes), no check is left per `k`.
    #[inline(always)]
    pub(crate) fn load<const TRUNC: bool>(
        b_rows: &mut std::slice::ChunksExact<'_, f32>,
        c0: usize,
    ) -> Self {
        let mut chunk = ChunkB {
            b: [[0.0; COLS]; T],
            lo: [[0.0; COLS]; T],
        };
        for ((b, lo), brow) in chunk.b.iter_mut().zip(&mut chunk.lo).zip(b_rows) {
            let row: &[f32; COLS] = brow[c0..][..COLS].try_into().expect("COLS columns");
            *b = row.map(f64::from);
            if TRUNC {
                *lo = row.map(|x| lo_f32(x) as f64);
            }
        }
        chunk
    }

    /// One fragment row's products: `a[t] · b[t][j]` as exact `f64`, or
    /// with `TRUNC` (the fast FP32 mode, chosen once per panel) the
    /// truncated schedule's `hi_a·hi_b + hi_a·lo_b + lo_a·hi_b`, formed as
    /// `a·b − lo_a·lo_b`: both products are exact in `f64`, and so is
    /// their difference, which spans at most 37 bits. In the `Avx2` build
    /// each four columns are one `vmulpd`, and `TRUNC` adds one `vmulpd`
    /// and `vsubpd`; the `Avx512` build does the same eight columns per
    /// instruction.
    #[inline(always)]
    pub(crate) fn products<const TRUNC: bool>(&self, a: &[f32; T]) -> [Row; T] {
        let mut out = [[0.0; COLS]; T];
        for (t, row) in out.iter_mut().enumerate() {
            let (av, alo) = (a[t] as f64, lo_f32(a[t]) as f64);
            for (j, p) in row.iter_mut().enumerate() {
                *p = av * self.b[t][j];
                if TRUNC {
                    *p -= alo * self.lo[t][j];
                }
            }
        }
        out
    }
}

/// One FP32C element's four component product rows for a fragment row:
/// `a_R·b_R`, `-a_I·b_I`, `a_R·b_I` and `a_I·b_R` across 8 columns, each
/// an exact `f64` product. The second row carries the real component's
/// subtraction sign, so rows `0..2` and `2..4` are directly the re/im
/// term rows. The rows of a panel step pass the same `B` values, whose
/// widening the compiler computes once.
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
    use super::super::for_each_bit;
    use super::*;

    /// One row of the rounder's result: the accepted columns, the rounded
    /// values and the pairs.
    struct Rounded {
        ok: u32,
        out: [f32; COLS],
        pair: [Row; 2],
    }

    /// What the tests read of a rounded row.
    fn read(row: &RoundedRow) -> Rounded {
        Rounded {
            ok: row.ok(),
            out: row.out,
            pair: row.pair,
        }
    }

    /// The chunk values `seed[j] + Σ_t prods[t][j]` rounded by the rounder
    /// at every level this host runs, which must agree bit for bit on the
    /// accepted columns and on which columns those are: the baseline
    /// build's result.
    fn round_row<const T: usize>(seed: &[f32; COLS], prods: &[Row; T]) -> Rounded {
        let want = read(&round_chunk(seed, prods));
        for lvl in vector_levels() {
            let got = read(&dispatch(
                lvl,
                #[inline(always)]
                |_| round_chunk(seed, prods),
            ));
            assert_eq!(got.ok, want.ok, "{lvl:?}: seeds {seed:?} prods {prods:?}");
            for_each_bit(want.ok, |j| {
                assert_eq!(
                    (got.out[j].to_bits(), got.pair[0][j], got.pair[1][j]),
                    (want.out[j].to_bits(), want.pair[0][j], want.pair[1][j]),
                    "{lvl:?} column {j}"
                );
            });
        }
        want
    }

    /// One chunk value `seed + Σ terms` through the rounder (in every
    /// column of a row), `None` when refused.
    fn round_one<const T: usize>(seed: f32, terms: &[f64; T]) -> Option<f32> {
        let r = round_row(&[seed; COLS], &terms.map(|t| [t; COLS]));
        let ok = r.ok;
        assert!(ok == 0 || ok == 0xff, "columns disagree: {ok:#x}");
        (ok != 0).then_some(r.out[0])
    }

    /// One chunk value `seed + Σ terms` (one or two terms) through the
    /// quick tier in every column of a row, at every level this host runs,
    /// which must agree on the verdict and the bits: `None` when refused.
    fn quick_one<const T: usize>(seed: f32, terms: &[f64; T]) -> Option<f32> {
        let (seeds, prods) = ([seed; COLS], terms.map(|t| [t; COLS]));
        let want = round_chunk_quick(&seeds, &prods);
        for lvl in vector_levels() {
            let got = dispatch(
                lvl,
                #[inline(always)]
                |_| round_chunk_quick(&seeds, &prods),
            );
            assert_eq!(got.passed(), want.passed(), "{lvl:?}: {seed:e} + {terms:?}");
            if want.passed() {
                assert_eq!(
                    got.out.map(f32::to_bits),
                    want.out.map(f32::to_bits),
                    "{lvl:?}: {seed:e} + {terms:?}"
                );
            }
        }
        want.passed().then_some(want.out[0])
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
        // The rounder must round exactly like the Kulisch register: random
        // f32 pairs (normals, subnormals, huge/tiny magnitudes) as exact
        // products plus a seed, eight cases to a row at every level, versus
        // a Kulisch drain of the same values.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Sweep pair magnitudes across normal, tiny, huge, and
        // subnormal-result regimes so the sums cross every rounding
        // regime. Each class centres the seed on the product magnitude
        // (per-class seed shift) so a case's exponent spread reflects its
        // operands, not an artificial seed/product gap.
        let rf32 = |r: u64, shift: i32| -> f32 {
            let mant = (r & 0x7f_ffff) as u32;
            let exp = ((100 + (r >> 40) % 24) as i32 + shift).clamp(0, 254) as u32;
            let sign = ((r >> 63) as u32) << 31;
            f32::from_bits(sign | (exp << 23) | mant)
        };
        // `y` takes the first shift on even terms and the second on odd
        // ones. The fourth class seeds +0.0 and lands its sums astride the
        // f32 subnormal boundary (gradual underflow rounding). The fifth is
        // the GEMM-FFT's shape: a running sum beside x·w for a unit twiddle
        // w and for one about 2^-54 (f32 cos(pi/2)). The sixth, below, is
        // the ties.
        let classes: [(i32, [i32; 2], Option<i32>); 5] = [
            (0, [0, 0], Some(-15)),
            (-40, [0, 0], Some(-55)),
            (60, [60, 60], Some(105)),
            (-60, [-55, -55], None),
            (0, [0, -54], Some(-15)),
        ];
        let mut accepted = [0u32; 6];
        // The quick tier, over the same cases of depth 1 and 2 (the only
        // depths it covers): tried and accepted per class.
        let (mut quick_tried, mut quick_accepted) = ([0u32; 6], [0u32; 6]);
        for row in 0..9000 / COLS {
            let klen = 1 + (next() % 4) as usize;
            let mut seeds = [0f32; COLS];
            let mut terms = [[0f64; COLS]; 4];
            let mut want = [0f32; COLS];
            for (j, (seed, want)) in seeds.iter_mut().zip(&mut want).enumerate() {
                let mut kul = m3xu_fp::Kulisch::new();
                if let Some(&(s0, s1, ss)) = classes.get((row * COLS + j) % 6) {
                    *seed = ss.map_or(0.0, |ss| rf32(next(), ss));
                    for (t, term) in terms.iter_mut().enumerate().take(klen) {
                        let (x, y) = (rf32(next(), s0), rf32(next(), s1[t % 2]));
                        term[j] = x as f64 * y as f64; // exact: 24+24 bits
                        kul.add_product_f32(x, y);
                    }
                } else {
                    // A tie: the seed beside exactly half its ulp, either
                    // sign, then (deeper than one) a tiny term of either
                    // sign, zero one time in four, which breaks the tie.
                    *seed = rf32(next(), 0);
                    let exp = (seed.to_bits() >> 23 & 0xff) as i32;
                    let sign = |r: u64| if r & 1 == 1 { -1.0 } else { 1.0 };
                    let half = sign(next()) * 2f64.powi(exp - 151);
                    let r = next();
                    let tiny = if r % 4 == 0 {
                        0.0
                    } else {
                        let m = 1.0 + (r >> 8 & 0xfff) as f64 / 4096.0;
                        sign(r >> 2) * half.abs() * m * 2f64.powi(-1 - ((r >> 20) % 40) as i32)
                    };
                    terms[0][j] = half;
                    kul.add_f64(half);
                    if klen > 1 {
                        terms[klen - 1][j] = tiny;
                        kul.add_f64(tiny);
                    }
                }
                kul.add_f64(*seed as f64);
                *want = kul.to_f32();
                let class = (row * COLS + j) % 6;
                let quick = match klen {
                    1 => quick_one(*seed, &[terms[0][j]]),
                    2 => quick_one(*seed, &[terms[0][j], terms[1][j]]),
                    _ => continue,
                };
                quick_tried[class] += 1;
                if let Some(got) = quick {
                    quick_accepted[class] += 1;
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "row {row} column {j}: quick tier {got:e} vs kulisch {want:e}"
                    );
                }
            }
            let r = match klen {
                1 => round_row(&seeds, &[terms[0]]),
                2 => round_row(&seeds, &[terms[0], terms[1]]),
                3 => round_row(&seeds, &[terms[0], terms[1], terms[2]]),
                _ => round_row(&seeds, &terms),
            };
            for_each_bit(r.ok, |j| {
                accepted[(row * COLS + j) % 6] += 1;
                assert_eq!(
                    r.out[j].to_bits(),
                    want[j].to_bits(),
                    "row {row} column {j}: rounder {:e} vs kulisch {:e}",
                    r.out[j],
                    want[j]
                );
            });
        }
        // The certificate must actually cover the bulk of every class, the
        // GEMM-FFT's and the ties included, not vacuously refuse it.
        assert!(
            accepted.iter().all(|&a| a > 1000),
            "cases accepted per class (of 1500): {accepted:?}"
        );
        // The quick tier must accept nearly every random case, so a bound
        // that refused everything would fail here; only the ties, which
        // sit on or beside an FP32 midpoint by construction, may go to
        // the pair in bulk.
        assert!(
            (0..5).all(|c| quick_tried[c] > 500 && quick_accepted[c] * 100 > quick_tried[c] * 99),
            "quick tier: accepted {quick_accepted:?} of {quick_tried:?} per class"
        );
    }

    #[test]
    fn exact_chunk_round_aborts_on_specials_and_wide_spreads() {
        // Non-finite seeds and products leave `l` NaN: refused.
        assert_eq!(round_one(f32::NAN, &[1.0]), None);
        assert_eq!(round_one(f32::INFINITY, &[1.0]), None);
        assert_eq!(round_one(f32::NEG_INFINITY, &[1.0, -2.0]), None);
        assert_eq!(round_one(1.0, &[f64::INFINITY]), None);
        assert_eq!(round_one(1.0, &[f64::NAN]), None);
        assert_eq!(round_one(1.0, &[2.0, f64::NEG_INFINITY, 0.0]), None);
        assert_eq!(round_one(0.0, &[f64::INFINITY, f64::NEG_INFINITY]), None);
        // A three-scale chunk: 1 beside products near 2^-60 and 2^-130.
        // The second drops out of the products' sum whole, the first out
        // of the seed's, and the residual the two leave spans some 93 bits.
        let three = [
            1.234_567_8f32 as f64 * 2f64.powi(-60),
            -1.765_432_1f32 as f64 * 2f64.powi(-130),
        ];
        assert_eq!(round_one(1.0, &three), None);
        assert_eq!(round_one(1.0, &[three[1], three[0], 0.0]), None);
        // Either two of its scales alone are certified.
        assert_eq!(round_one(1.0, &[three[0]]), Some(1.0));
        assert_eq!(round_one(0.0, &three), Some(three[0] as f32));
        // All-zero contributions, and an exact cancellation, collapse to
        // +0.0 like the scalar path.
        assert_eq!(round_one(0.0, &[0.0, -0.0]).unwrap().to_bits(), 0);
        assert_eq!(round_one(-0.0, &[0.0]).unwrap().to_bits(), 0);
        assert_eq!(round_one(-0.0, &[-0.0, -0.0]).unwrap().to_bits(), 0);
        assert_eq!(round_one(1.5, &[-1.0, -0.5]).unwrap().to_bits(), 0);
        // A finite exact sum beyond the f32 range overflows to ±Inf in
        // the conversion (a finite pair, not a special input).
        let huge = f32::MAX as f64 * f32::MAX as f64;
        assert_eq!(round_one(0.0, &[huge]), Some(f32::INFINITY));
        assert_eq!(round_one(0.0, &[-huge]), Some(f32::NEG_INFINITY));
        assert_eq!(
            round_one(f32::MAX, &[f32::MAX as f64 * 16.0]),
            Some(f32::INFINITY)
        );

        // The quick tier refuses every special input: `lo` or `hi` is NaN.
        assert_eq!(quick_one(f32::NAN, &[1.0]), None);
        assert_eq!(quick_one(f32::INFINITY, &[1.0]), None);
        assert_eq!(quick_one(f32::NEG_INFINITY, &[1.0, -2.0]), None);
        assert_eq!(quick_one(1.0, &[f64::INFINITY]), None);
        assert_eq!(quick_one(1.0, &[f64::NEG_INFINITY, 2.0]), None);
        assert_eq!(quick_one(1.0, &[f64::NAN]), None);
        assert_eq!(quick_one(0.0, &[f64::INFINITY, f64::NEG_INFINITY]), None);
        // An exact-zero sum of `−0` addends: its interval is `[−0, +0]`,
        // which it refuses; the pair makes it `+0` (above).
        assert_eq!(quick_one(-0.0, &[-0.0, -0.0]), None);
        // An exact midpoint: 1 + 2^-24 lies halfway between 1 and its f32
        // successor, and the pair rounds it to even.
        let half_ulp = 2f64.powi(-24);
        assert_eq!(quick_one(1.0, &[half_ulp]), None);
        assert_eq!(round_one(1.0, &[half_ulp]), Some(1.0));
        // It accepts overflow to ±Inf, a tiny negative sum underflowing
        // to −0, and the three-scale chunk the pair refuses: its interval
        // is 2^-49 wide around a value far from any FP32 midpoint.
        assert_eq!(quick_one(0.0, &[huge]), Some(f32::INFINITY));
        assert_eq!(quick_one(0.0, &[-huge]), Some(f32::NEG_INFINITY));
        assert_eq!(
            quick_one(f32::MAX, &[f32::MAX as f64 * 16.0]),
            Some(f32::INFINITY)
        );
        let tiny = -2f64.powi(-160);
        assert_eq!(quick_one(0.0, &[tiny]).map(f32::to_bits), Some(0x8000_0000));
        assert_eq!(round_one(0.0, &[tiny]).map(f32::to_bits), Some(0x8000_0000));
        assert_eq!(quick_one(1.0, &three), Some(1.0));
        // An all-`+0` sum passes as `+0`; an exact cancellation does not,
        // since its bound scales with `|u|`, so its interval straddles zero.
        assert_eq!(quick_one(0.0, &[0.0, -0.0]).map(f32::to_bits), Some(0));
        assert_eq!(quick_one(1.5, &[-1.0, -0.5]), None);
        assert_eq!(quick_one(0.0, &three), Some(three[0] as f32));
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
                    let a: [f32; MAX_KLEN] = a[k0..k0 + klen].try_into().unwrap();
                    let rows = &bt[k0 * bstride..];
                    let b = ChunkB::load::<false>(&mut rows.chunks_exact(bstride), c0);
                    let b_trunc = ChunkB::load::<true>(&mut rows.chunks_exact(bstride), c0);
                    (b.products::<false>(&a), b_trunc.products::<true>(&a))
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
        use std::hint::black_box;
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
        let best_of = |f: &mut dyn FnMut()| {
            (0..8)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_nanos() as f64 / elems
                })
                .fold(f64::MAX, f64::min)
        };

        let mut dpu = crate::dpu::DotProductUnit::new();
        let mut acc = [0f32; 64];
        let panel = best_of(&mut || {
            for _ in 0..reps {
                dpu.mma_f32_panel_into(&pa, &pb, 0, 8, 0, 8, 0, k, 2, &mut acc);
            }
        });
        println!("panel total: {panel:.2} ns/element-chunk ({lvl:?})");
        let ca = Matrix::random_c32(8, k / 2, 3);
        let cb = Matrix::random_c32(k / 2, 8, 4);
        let (pca, pcb) = (
            PackedOperand::pack_rows_c32(&ca),
            PackedOperand::pack_cols_c32(&cb),
        );
        let mut cacc = [m3xu_fp::complex::Complex::new(0f32, 0.0); 64];
        let complex = best_of(&mut || {
            for _ in 0..reps {
                dpu.mma_c32_panel_into(&pca, &pcb, 0, 8, 0, 8, 0, k / 2, 1, &mut cacc);
            }
        });
        println!("FP32C panel total: {complex:.2} ns/element-chunk");

        // One two-deep chunk's products for a fragment row, from its `B`
        // rows (loaded once per chunk for every row of a step).
        let av: Vec<f32> = (0..k).map(|i| (i as f32).sin()).collect();
        let bt: Vec<f32> = (0..k * 8).map(|i| (i as f32).cos()).collect();
        let mut out = [[0f64; COLS]; 2];
        let products = best_of(&mut || {
            dispatch(
                lvl,
                #[inline(always)]
                |_| {
                    for _ in 0..reps * 8 {
                        let mut rows = bt.chunks_exact(8);
                        for a in av.chunks_exact(2) {
                            let b = ChunkB::<2>::load::<false>(&mut rows, 0);
                            out = b.products::<false>(a.try_into().unwrap());
                            black_box(&out);
                        }
                    }
                },
            )
        });
        println!("row products: {products:.2} ns/element-chunk");

        // Each rounder on a two-deep chunk per step, each result seeding
        // the next: one row's chain alone, then `F32_ROWS` chains at once,
        // as the panel runs them. The quick tier's rows all pass here.
        let terms: [[f64; COLS]; 2] = [
            std::array::from_fn(|j| (j as f64 * 0.37).sin()),
            std::array::from_fn(|j| -(j as f64 * 0.11).cos() * 1e-3),
        ];
        let chained = |rows: usize, quick: bool| {
            best_of(&mut || {
                dispatch(
                    lvl,
                    #[inline(always)]
                    |_| {
                        let mut seeds = [[0.1f32; COLS]; F32_ROWS];
                        for _ in 0..reps * 8 * chunks / rows {
                            let prods = black_box(&terms);
                            for seed in seeds.iter_mut().take(rows) {
                                *seed = if quick {
                                    round_chunk_quick(seed, prods).out
                                } else {
                                    round_chunk(seed, prods).out
                                };
                            }
                        }
                        black_box(&seeds);
                    },
                )
            })
        };
        for (name, quick) in [("pair", false), ("quick tier", true)] {
            let (one, rows) = (chained(1, quick), chained(F32_ROWS, quick));
            println!(
                "rounder, {name}: {one:.2} ns/element-chunk on one row, {rows:.2} on {F32_ROWS} rows"
            );
        }
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
