//! Error-free precision splitting — the mathematical core of M3XU.
//!
//! Observation 1 of the paper rests on splitting each FP32 significand into
//! a *high* part (the hidden 1 plus the top 11 explicit mantissa bits) and a
//! *low* part (the bottom 12 explicit mantissa bits), so that
//! `x = x_hi + x_lo` holds **exactly** and each part fits a 12-bit
//! multiplier. The Ozaki/Ootomo generalisation of the same trick cuts the
//! significand into **N** slices instead of two: each slice is still exact,
//! the slices still sum back to the input bit-for-bit, and an N-slice
//! operand pair multiplies via N² exact cross products. [`SliceConfig`]
//! carries that N as *data*; the classic 2-slice FP32 split ([`split_fp32`])
//! is the `N = 2` instance and is cross-checked against it below.
//!
//! This module provides the splits as pure value-level operations;
//! `m3xu-mxu::buffer` holds the matching structural (bit-field-level) form
//! used by the data-assignment stage, and the two are cross-checked by
//! tests.

/// Maximum slice count a [`SliceConfig`] may carry (bounds the fixed-size
/// storage of [`MantissaSlices`] and the packed-operand entry planes).
pub const MAX_SLICES: usize = 8;

/// An N-slice decomposition of a `precision`-bit significand.
///
/// Slice `0` is the most significant; every slice except possibly the last
/// is [`SliceConfig::max_slice_bits`] wide (`ceil(precision / slices)`), and
/// the last takes the remainder. All derived constants — slice widths, the
/// number of bits below each slice, the cross-product term count — are
/// functions of this struct, so the classic `12`/[`FP32_LOW_BITS`] numbers
/// cannot silently drift from the generalized path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceConfig {
    slices: u32,
    precision: u32,
}

impl SliceConfig {
    /// A split of a `precision`-bit significand (hidden bit included) into
    /// `slices` exact pieces. Panics (at compile time for `const` uses) on
    /// a degenerate configuration.
    pub const fn new(slices: u32, precision: u32) -> Self {
        assert!(slices >= 1, "at least one slice");
        assert!(slices as usize <= MAX_SLICES, "too many slices");
        assert!(precision >= slices, "every slice needs at least one bit");
        SliceConfig { slices, precision }
    }

    /// An N-slice split of the 24-bit FP32 significand.
    pub const fn for_f32(slices: u32) -> Self {
        SliceConfig::new(slices, 24)
    }

    /// An N-slice split of the 53-bit FP64 significand.
    pub const fn for_f64(slices: u32) -> Self {
        SliceConfig::new(slices, 53)
    }

    /// Number of slices `N`.
    pub const fn slices(&self) -> u32 {
        self.slices
    }

    /// Total significand precision in bits (hidden bit included).
    pub const fn precision(&self) -> u32 {
        self.precision
    }

    /// Width of the widest slice: `ceil(precision / slices)`. This is the
    /// multiplier width the slice family requires of the MXU datapath.
    pub const fn max_slice_bits(&self) -> u32 {
        self.precision.div_ceil(self.slices)
    }

    /// Width in bits of slice `i` (slice `0` is most significant).
    pub const fn slice_bits(&self, i: u32) -> u32 {
        assert!(i < self.slices);
        let w = self.max_slice_bits();
        let top = w * i;
        let rest = self.precision - top;
        if rest < w {
            rest
        } else {
            w
        }
    }

    /// Number of significand bits strictly below slice `i` — the shift
    /// between slice `i`'s LSB and the full significand's LSB. For the
    /// 2-slice FP32 split, `bits_below(0)` is the classic
    /// [`FP32_LOW_BITS`] `= 12`.
    pub const fn bits_below(&self, i: u32) -> u32 {
        assert!(i < self.slices);
        let w = self.max_slice_bits();
        let covered = w * (i + 1);
        self.precision.saturating_sub(covered)
    }

    /// Split an FP32 value into N exact slices. Non-finite inputs place the
    /// input in slice 0 and zero the rest, mirroring [`split_fp32`].
    pub fn split_f32(&self, x: f32) -> MantissaSlices {
        assert!(self.precision == 24, "FP32 carries a 24-bit significand");
        let mut out = MantissaSlices::zeroed(self.slices as usize);
        if !x.is_finite() {
            out.vals[0] = x as f64;
            return out;
        }
        let bits = x.to_bits();
        let sign = if bits >> 31 != 0 { -1.0 } else { 1.0 };
        let frac = bits & 0x7f_ffff;
        let biased = (bits >> 23) & 0xff;
        // (m, e): x = sign * m * 2^e with m the full 24-bit significand
        // field (subnormals keep m < 2^23).
        let (m, e) = if biased == 0 {
            (frac, -149i32)
        } else {
            (frac | 0x80_0000, biased as i32 - 127 - 23)
        };
        for i in 0..self.slices {
            let below = self.bits_below(i);
            let width = self.slice_bits(i);
            let mant = (m >> below) & ((1u32 << width) - 1);
            // Zero slices are +0.0 except slice 0, which keeps the input's
            // sign — matching `x - hi` in the classic split, where the
            // difference of equal values is +0.0 but `hi` keeps the sign
            // bit of `x` (so -0.0 splits as (-0.0, +0.0)).
            out.vals[i as usize] = if mant == 0 {
                if i == 0 {
                    sign * 0.0
                } else {
                    0.0
                }
            } else {
                sign * mant as f64 * pow2_f64(e + below as i32)
            };
        }
        out
    }

    /// Split an FP64 value into N exact slices. Each slice is an integer
    /// multiple of a power of two with at most [`SliceConfig::max_slice_bits`]
    /// significant bits, so every slice is exactly representable in `f64`
    /// and the slices sum back to `x` bit-for-bit.
    pub fn split_f64(&self, x: f64) -> MantissaSlices {
        assert!(self.precision == 53, "FP64 carries a 53-bit significand");
        let mut out = MantissaSlices::zeroed(self.slices as usize);
        if !x.is_finite() {
            out.vals[0] = x;
            return out;
        }
        let bits = x.to_bits();
        let sign = if bits >> 63 != 0 { -1.0 } else { 1.0 };
        let frac = bits & 0xf_ffff_ffff_ffff;
        let biased = ((bits >> 52) & 0x7ff) as i32;
        let (m, e) = if biased == 0 {
            (frac, -1074i32)
        } else {
            (frac | (1u64 << 52), biased - 1023 - 52)
        };
        for i in 0..self.slices {
            let below = self.bits_below(i);
            let width = self.slice_bits(i);
            let mant = (m >> below) & ((1u64 << width) - 1);
            out.vals[i as usize] = if mant == 0 {
                if i == 0 {
                    sign * 0.0
                } else {
                    0.0
                }
            } else {
                sign * mant as f64 * pow2_f64(e + below as i32)
            };
        }
        out
    }
}

/// `2^k` as an exact `f64` for any `k` a slice exponent can take (down to
/// the subnormal range, where a single `powi` would flush to zero).
fn pow2_f64(k: i32) -> f64 {
    debug_assert!((-1074..=1023).contains(&k));
    if k >= -1022 {
        f64::from_bits(((k + 1023) as u64) << 52)
    } else {
        // Deep-subnormal weights encode directly in the subnormal mantissa.
        f64::from_bits(1u64 << (k + 1074))
    }
}

/// The exact slices of one value under a [`SliceConfig`]: slice `0` is most
/// significant, and the ascending-order sum reconstructs the input exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MantissaSlices {
    vals: [f64; MAX_SLICES],
    n: usize,
}

impl MantissaSlices {
    fn zeroed(n: usize) -> Self {
        MantissaSlices {
            vals: [0.0; MAX_SLICES],
            n,
        }
    }

    /// The slice values, most significant first.
    #[inline]
    pub fn slices(&self) -> &[f64] {
        &self.vals[..self.n]
    }

    /// Slice `i`'s exact value.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.vals[i]
    }

    /// Exact reconstruction of the input: sum in ascending weight so every
    /// partial sum is exact (the full significand fits `f64`).
    pub fn total(&self) -> f64 {
        if !self.vals[0].is_finite() {
            return self.vals[0];
        }
        let mut acc = 0.0;
        for v in self.vals[..self.n].iter().rev() {
            acc += v;
        }
        // An all-zero sum loses the sign of -0.0 (IEEE +0 + -0 = +0);
        // slice 0 carries the input's signed zero. Nonzero inputs cannot
        // sum to zero — the slices are exact.
        if acc == 0.0 {
            self.vals[0]
        } else {
            acc
        }
    }

    /// [`MantissaSlices::total`] rounded to `f32` — bit-identical to the
    /// original input for slices produced by [`SliceConfig::split_f32`]
    /// (the sum is exact, so the rounding is the identity).
    pub fn total_f32(&self) -> f32 {
        self.total() as f32
    }
}

/// The exact 2-slice FP32 configuration — the paper's 12+12 split.
pub const FP32_SLICES_EXACT: SliceConfig = SliceConfig::for_f32(2);

/// The default emulated-FP64 configuration: 5 slices of the 53-bit
/// significand (widths 11·4 + 9), every slice within the 12-bit multiplier.
pub const FP64_SLICES_EMULATED: SliceConfig = SliceConfig::for_f64(5);

/// Number of explicit mantissa bits assigned to the *low* half of an FP32
/// split (the high half receives the hidden bit + the remaining 11).
/// Derived from [`FP32_SLICES_EXACT`] so it cannot drift from the
/// generalized N-slice path.
pub const FP32_LOW_BITS: u32 = FP32_SLICES_EXACT.bits_below(0);

/// Split an FP32 value into `(hi, lo)` with `hi + lo == x` **exactly**.
///
/// `hi` carries the hidden bit plus the 11 most-significant explicit
/// mantissa bits (a 12-bit significand); `lo` carries the
/// [`FP32_LOW_BITS`] least-significant mantissa bits. Both halves are
/// exactly representable as FP32 (`lo` may be subnormal). NaN and infinity
/// split as `(x, 0)`. This is the `N = 2` instance of
/// [`SliceConfig::split_f32`], kept as a direct bit-mask fast path.
///
/// ```
/// use m3xu_fp::split::split_fp32;
/// let x = std::f32::consts::PI;
/// let (hi, lo) = split_fp32(x);
/// assert_eq!(hi + lo, x);           // error-free
/// assert!(lo.abs() < hi.abs() * 2.0_f32.powi(-11));
/// ```
#[inline]
pub fn split_fp32(x: f32) -> (f32, f32) {
    if !x.is_finite() {
        return (x, 0.0);
    }
    // Clear the low FP32_LOW_BITS mantissa bits: the remaining value is the
    // "high" 12-bit-significand number the data-assignment stage
    // materialises.
    let hi = f32::from_bits(x.to_bits() & !((1u32 << FP32_LOW_BITS) - 1));
    // The difference has at most FP32_LOW_BITS significant bits and is
    // representable exactly, so this subtraction is exact.
    let lo = x - hi;
    (hi, lo)
}

/// Reconstruct the original value from a split pair. Exact by construction.
#[inline]
pub fn join_fp32(hi: f32, lo: f32) -> f32 {
    hi + lo
}

/// Split an FP64 value into `(hi, lo)` halves with `low_bits` explicit
/// mantissa bits in the low half (error-free, like [`split_fp32`]).
///
/// Used by the §IV-C FP64 extension: with `low_bits = 26`, each half fits a
/// 27-bit significand multiplier and FP64 GEMM becomes a 4-step operation
/// mirroring FP32C. (The 12-bit-multiplier emulation path instead uses
/// [`SliceConfig::split_f64`] with [`FP64_SLICES_EMULATED`].)
#[inline]
pub fn split_f64(x: f64, low_bits: u32) -> (f64, f64) {
    assert!(low_bits < 52, "low half must leave at least one high bit");
    if !x.is_finite() {
        return (x, 0.0);
    }
    let hi = f64::from_bits(x.to_bits() & !((1u64 << low_bits) - 1));
    let lo = x - hi;
    (hi, lo)
}

/// The four cross products of a split multiplication, in descending weight:
/// `hh` (hi·hi), `hl` (hi·lo), `lh` (lo·hi), `ll` (lo·lo).
///
/// `a * b == hh + hl + lh + ll` exactly when each product is computed
/// exactly — which is what the M3XU multiplier array does (12×12-bit exact
/// products accumulated into 48-bit registers, Eq. 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitProducts {
    /// hi(a) · hi(b): weight `2^0` relative — shifted left 24 bits in hardware.
    pub hh: f64,
    /// hi(a) · lo(b): weight `2^-12` relative — shifted left 12 bits.
    pub hl: f64,
    /// lo(a) · hi(b): weight `2^-12` relative — shifted left 12 bits.
    pub lh: f64,
    /// lo(a) · lo(b): weight `2^-24` relative — unshifted.
    pub ll: f64,
}

impl SplitProducts {
    /// Compute the four exact partial products of `a * b` under the FP32
    /// split. Each 12-bit × 12-bit significand product is exact in `f64`.
    pub fn of_fp32(a: f32, b: f32) -> Self {
        let (ah, al) = split_fp32(a);
        let (bh, bl) = split_fp32(b);
        SplitProducts {
            hh: ah as f64 * bh as f64,
            hl: ah as f64 * bl as f64,
            lh: al as f64 * bh as f64,
            ll: al as f64 * bl as f64,
        }
    }

    /// Step-1 partial sum of the M3XU FP32 dataflow: `hh + ll`
    /// (Eq. 6 — the products a 2-step MXU computes in its first pass).
    #[inline]
    pub fn step1(&self) -> f64 {
        self.hh + self.ll
    }

    /// Step-2 partial sum: `hl + lh` (Eq. 8 — the cross products computed
    /// after the data-assignment stage flips the B-input halves).
    #[inline]
    pub fn step2(&self) -> f64 {
        self.hl + self.lh
    }

    /// The truncated fast-schedule sum `hh + hl + lh`: the full product
    /// minus the deepest (`lo·lo`) term — the `N = 2` instance of the
    /// `i + j < N` fast schedule.
    #[inline]
    pub fn fast_total(&self) -> f64 {
        (self.hl + self.lh) + self.hh
    }

    /// The exact full product `a * b`.
    #[inline]
    pub fn total(&self) -> f64 {
        // Sum in ascending weight so each addition is exact in f64
        // (total significand spread is 48 bits <= 53).
        (self.ll + self.hl + self.lh) + self.hh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_error_free() {
        for &x in &[
            1.0f32,
            std::f32::consts::PI,
            -1.2345678e-3,
            6.5536e4,
            f32::MIN_POSITIVE,
            1.0e-44, // subnormal
            -f32::MAX,
            1.0 + f32::EPSILON, // all-ones low bits region
        ] {
            let (hi, lo) = split_fp32(x);
            assert_eq!(hi + lo, x, "split not exact for {x:e}");
            // hi's significant bits stop FP32_LOW_BITS above the mantissa
            // LSB — derived from the slice config, not a literal 12.
            assert_eq!(hi.to_bits() & ((1u32 << FP32_LOW_BITS) - 1), 0);
        }
    }

    #[test]
    fn split_special_values() {
        let (hi, lo) = split_fp32(f32::INFINITY);
        assert_eq!(hi, f32::INFINITY);
        assert_eq!(lo, 0.0);
        let (hi, lo) = split_fp32(f32::NAN);
        assert!(hi.is_nan());
        assert_eq!(lo, 0.0);
        let (hi, lo) = split_fp32(0.0);
        assert_eq!(hi, 0.0);
        assert_eq!(lo, 0.0);
        let (hi, lo) = split_fp32(-0.0);
        assert!(hi == 0.0 && hi.is_sign_negative());
        assert_eq!(lo, 0.0);
    }

    #[test]
    fn low_part_magnitude_bound() {
        let x = 1.9999999f32; // dense mantissa
        let (hi, lo) = split_fp32(x);
        // |lo| < 2^-11 * |hi| is the weight relationship the shifters encode.
        assert!(lo.abs() < hi.abs() * 2.0f32.powi(-11));
    }

    #[test]
    fn products_reconstruct_exact_multiplication() {
        let cases = [
            (std::f32::consts::PI, std::f32::consts::E),
            (1.0000001, 0.9999999),
            (-3.5e10, 2.7e-10),
            (1.0e-30, 1.0e-8),
        ];
        for (a, b) in cases {
            let p = SplitProducts::of_fp32(a, b);
            let exact = a as f64 * b as f64;
            assert_eq!(
                p.total(),
                exact,
                "products don't sum to exact a*b for ({a},{b})"
            );
            assert_eq!(p.step1() + p.step2(), exact);
            // The truncated schedule drops exactly the ll term.
            assert_eq!(p.fast_total() + p.ll, exact);
        }
    }

    #[test]
    fn step_decomposition_matches_observation_1() {
        // Observation 1: step 1 computes HH+LL, step 2 computes HL+LH, and
        // together they cover all four partial products.
        fn check(a: f32, b: f32) {
            let p = SplitProducts::of_fp32(a, b);
            let (ah, al) = split_fp32(a);
            let (bh, bl) = split_fp32(b);
            assert_eq!(p.step1(), ah as f64 * bh as f64 + al as f64 * bl as f64);
            assert_eq!(p.step2(), ah as f64 * bl as f64 + al as f64 * bh as f64);
        }
        check(7.25, -0.1);
        check(1.5e-5, 3.25e7);
    }

    #[test]
    fn f64_split_error_free() {
        for &x in &[std::f64::consts::PI, -1.0e300, 2.2250738585072014e-308] {
            let (hi, lo) = split_f64(x, 26);
            assert_eq!(hi + lo, x);
            assert_eq!(hi.to_bits() & ((1 << 26) - 1), 0);
        }
    }

    #[test]
    fn f64_four_way_products_are_exact_in_wider_arithmetic() {
        // With a 26-bit low split, each half has <= 27 significant bits, so
        // half-products have <= 54 bits — NOT exact in f64. The hardware
        // accumulates them exactly in wide registers; here we verify the
        // split identity only.
        let a = std::f64::consts::LN_2;
        let (ah, al) = split_f64(a, 26);
        assert_eq!(ah + al, a);
    }

    #[test]
    fn slice_config_widths_cover_the_significand() {
        for n in 1..=MAX_SLICES as u32 {
            for &p in &[24u32, 53] {
                if p < n {
                    continue;
                }
                let cfg = SliceConfig::new(n, p);
                let sum: u32 = (0..n).map(|i| cfg.slice_bits(i)).sum();
                assert_eq!(sum, p, "widths must tile the significand (n={n}, p={p})");
                for i in 0..n {
                    assert!(cfg.slice_bits(i) <= cfg.max_slice_bits());
                    if i + 1 < n {
                        assert_eq!(
                            cfg.bits_below(i),
                            cfg.bits_below(i + 1) + cfg.slice_bits(i + 1)
                        );
                    } else {
                        assert_eq!(cfg.bits_below(i), 0);
                    }
                }
            }
        }
    }

    #[test]
    fn two_slice_config_matches_classic_split_bitwise() {
        // The generalized N=2 path and the legacy bit-mask split must agree
        // bit-for-bit (the tentpole's "N=2 stays bit-identical" contract).
        assert_eq!(FP32_LOW_BITS, 12);
        assert_eq!(FP32_SLICES_EXACT.max_slice_bits(), 12);
        let cases = [
            1.0f32,
            std::f32::consts::PI,
            -1.2345678e-3,
            f32::MIN_POSITIVE,
            1.0e-44,
            -f32::MAX,
            1.0 + f32::EPSILON,
            0.0,
            -0.0,
        ];
        for &x in &cases {
            let (hi, lo) = split_fp32(x);
            let s = FP32_SLICES_EXACT.split_f32(x);
            assert_eq!((s.get(0) as f32).to_bits(), hi.to_bits(), "hi for {x:e}");
            assert_eq!((s.get(1) as f32).to_bits(), lo.to_bits(), "lo for {x:e}");
            assert_eq!(s.total_f32().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn n_slice_f32_reconstruction_is_exact() {
        let cases = [
            std::f32::consts::PI,
            1.9999999f32,
            -1.0e-40,
            f32::MIN_POSITIVE,
            6.5536e4,
            -0.0,
        ];
        for n in 1..=4u32 {
            let cfg = SliceConfig::for_f32(n);
            for &x in &cases {
                let s = cfg.split_f32(x);
                assert_eq!(s.total_f32().to_bits(), x.to_bits(), "n={n}, x={x:e}");
                // Slices are ordered by weight: a deeper slice never
                // exceeds the span a shallower one leaves open.
                for i in 1..s.slices().len() {
                    let shallower = s.get(i - 1).abs();
                    if shallower > 0.0 {
                        assert!(s.get(i).abs() < shallower);
                    }
                }
            }
        }
    }

    #[test]
    fn n_slice_f64_reconstruction_is_exact() {
        let cases = [
            std::f64::consts::PI,
            -1.0e300,
            2.2250738585072014e-308, // smallest normal
            5.0e-324,                // smallest subnormal
            1.0 + f64::EPSILON,
            -0.0,
        ];
        for n in [2u32, 4, 5, 6] {
            let cfg = SliceConfig::for_f64(n);
            for &x in &cases {
                let s = cfg.split_f64(x);
                assert_eq!(s.total().to_bits(), x.to_bits(), "n={n}, x={x:e}");
            }
        }
    }

    #[test]
    fn emulated_fp64_slices_fit_the_12_bit_multiplier() {
        assert_eq!(FP64_SLICES_EMULATED.slices(), 5);
        assert!(FP64_SLICES_EMULATED.max_slice_bits() <= 12);
    }
}
