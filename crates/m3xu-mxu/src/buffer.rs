//! Input-buffer entries of the M3XU data-assignment stage.
//!
//! Each buffer entry holds what Fig. 3(a) of the paper draws: a 1-bit sign,
//! an 8-bit exponent, and a **12-bit mantissa field with no implicit bit**
//! (the stage materialises the hidden 1 explicitly for high halves; low
//! halves carry raw fraction bits). For each dot-product unit performing
//! `s` steps over two `m`-element vectors, the stage provisions
//! `2 * m * s` such entries.
//!
//! The numeric semantics of an entry are
//! `value = (-1)^sign * mant * 2^pow` with `mant < 2^12`; `pow` encodes both
//! the operand's exponent and the half's weight (the high half of an FP32
//! sits 12 binary places above the low half), which is exactly the
//! information the post-multiplication shifters of Observation 2 consume.

use m3xu_fp::format::{FloatFormat, FP32};
use m3xu_fp::softfloat::encode;
use m3xu_fp::split::{SliceConfig, FP32_SLICES_EXACT};

/// Width of the mantissa field in a buffer entry (and of the extended
/// multiplier): the paper's key "1-bit extension" over the 11-bit
/// significands of FP16/BF16/TF32 Tensor Cores. Derived from the exact
/// 2-slice FP32 configuration (`ceil(24 / 2) = 12`) so the multiplier
/// width and the slice family cannot silently drift apart.
pub const MANT_BITS: u32 = FP32_SLICES_EXACT.max_slice_bits();

/// Non-finite payloads the decode stage flags before data reaches the
/// multiplier array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Special {
    /// Not-a-number (any input NaN poisons the output element).
    Nan,
    /// Infinity with the given sign.
    Inf(bool),
}

/// One input-buffer entry of the data-assignment stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferEntry {
    /// Sign bit (true = negative). The FP32C path flips this to implement
    /// the subtraction of imaginary-imaginary products.
    pub sign: bool,
    /// Mantissa field, right-aligned, **no** implicit bit: 12 bits wide in
    /// the FP16/FP32 modes, 27 bits in the FP64 extension mode (§IV-C
    /// allows wider multipliers for higher-bitwidth composition).
    pub mant: u32,
    /// Unbiased exponent of the entry's least-significant mantissa bit:
    /// `value = ±mant * 2^pow`.
    pub pow: i32,
    /// Set when the decoded operand was NaN/Inf; the arithmetic pipeline
    /// bypasses the multiplier array for such lanes.
    pub special: Option<Special>,
    /// True iff the *original operand* (not just this half) is exactly
    /// zero — needed so Inf x 0 resolves to NaN per IEEE while Inf times a
    /// finite operand whose low half happens to be zero stays Inf.
    pub operand_zero: bool,
}

impl BufferEntry {
    /// An all-zero entry (value +0).
    pub const ZERO: BufferEntry = BufferEntry {
        sign: false,
        mant: 0,
        pow: 0,
        special: None,
        operand_zero: true,
    };

    /// The represented value, exact (`mant` has <= 12 bits, so the `f64`
    /// product below is exact).
    pub fn value(&self) -> f64 {
        match self.special {
            Some(Special::Nan) => f64::NAN,
            Some(Special::Inf(neg)) => {
                if neg {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                }
            }
            None => {
                let mag = self.mant as f64 * pow2(self.pow);
                if self.sign {
                    -mag
                } else {
                    mag
                }
            }
        }
    }

    /// Flip the sign bit — the data-assignment stage's mechanism for the
    /// FP32C imaginary-imaginary subtraction (§IV-B).
    #[must_use]
    pub fn negated(mut self) -> Self {
        self.sign = !self.sign;
        if let Some(Special::Inf(neg)) = self.special {
            self.special = Some(Special::Inf(!neg));
        }
        self
    }
}

/// `2^k` as an exact `f64`, valid down to the subnormal range.
#[inline]
fn pow2(k: i32) -> f64 {
    if k >= -1022 {
        2.0f64.powi(k)
    } else {
        2.0f64.powi(-1000) * 2.0f64.powi(k + 1000)
    }
}

/// Decode an FP32 operand into its **high** and **low** buffer entries —
/// the Fig. 3(a) wiring. The sign and 8-bit exponent route to *both*
/// entries; the hidden 1 and top 11 explicit mantissa bits form the high
/// entry's 12-bit field; the low 12 explicit bits form the low entry's.
///
/// Returns `(high, low)`. `high.value() + low.value() == x` exactly for all
/// finite `x` (including subnormals).
#[inline]
pub fn decode_fp32(x: f32) -> (BufferEntry, BufferEntry) {
    let bits = x.to_bits();
    let sign = bits >> 31 == 1;
    let biased = ((bits >> 23) & 0xff) as i32;
    let frac = bits & 0x7f_ffff;

    if biased == 0xff {
        let s = if frac != 0 {
            Special::Nan
        } else {
            Special::Inf(sign)
        };
        let e = BufferEntry {
            sign,
            mant: 0,
            pow: 0,
            special: Some(s),
            operand_zero: false,
        };
        return (e, e);
    }

    // 24-bit significand M (hidden bit for normals; subnormals use e=-126).
    let (m24, e) = if biased == 0 {
        (frac, -126)
    } else {
        (frac | 0x80_0000, biased - 127)
    };
    let zero = m24 == 0;
    // value = ±M * 2^(e - 23); split M = mH*2^LOW + mL with LOW =
    // bits_below(0) of the exact 2-slice config (the classic 12).
    let low = FP32_SLICES_EXACT.bits_below(0);
    let m_hi = m24 >> low; // hidden 1 + top explicit bits
    let m_lo = m24 & ((1 << low) - 1); // bottom explicit bits
    let hi = BufferEntry {
        sign,
        mant: m_hi,
        pow: e - 23 + low as i32,
        special: None,
        operand_zero: zero,
    };
    let lo = BufferEntry {
        sign,
        mant: m_lo,
        pow: e - 23,
        special: None,
        operand_zero: zero,
    };
    (hi, lo)
}

/// Decode an FP32 operand into `cfg.slices()` buffer entries — the N-slice
/// generalisation of [`decode_fp32`]. Entry `i` carries slice `i` of the
/// 24-bit significand (slice 0 most significant), each within the
/// [`MANT_BITS`]-wide multiplier field; the entries' exact values sum to
/// `x`. Writes into `out[..cfg.slices()]` (no allocation on the packing
/// path) and returns the slice count. Non-finite operands flag every entry.
pub fn decode_fp32_slices(x: f32, cfg: SliceConfig, out: &mut [BufferEntry]) -> usize {
    let n = cfg.slices() as usize;
    assert!(cfg.precision() == 24, "FP32 slices need a 24-bit config");
    assert!(
        cfg.max_slice_bits() <= MANT_BITS,
        "slice width exceeds the {MANT_BITS}-bit multiplier field"
    );
    assert!(out.len() >= n, "output buffer too short");
    let bits = x.to_bits();
    let sign = bits >> 31 == 1;
    let biased = ((bits >> 23) & 0xff) as i32;
    let frac = bits & 0x7f_ffff;

    if biased == 0xff {
        let s = if frac != 0 {
            Special::Nan
        } else {
            Special::Inf(sign)
        };
        let e = BufferEntry {
            sign,
            mant: 0,
            pow: 0,
            special: Some(s),
            operand_zero: false,
        };
        out[..n].fill(e);
        return n;
    }
    let (m24, e) = if biased == 0 {
        (frac, -126)
    } else {
        (frac | 0x80_0000, biased - 127)
    };
    let zero = m24 == 0;
    for i in 0..cfg.slices() {
        let below = cfg.bits_below(i);
        let width = cfg.slice_bits(i);
        out[i as usize] = BufferEntry {
            sign,
            mant: (m24 >> below) & ((1u32 << width) - 1),
            pow: e - 23 + below as i32,
            special: None,
            operand_zero: zero,
        };
    }
    n
}

/// Decode an FP64 operand into `cfg.slices()` buffer entries for the
/// emulated-FP64 mode: N slices of the 53-bit significand, each within the
/// 12-bit multiplier field (unlike the §IV-C [`decode_fp64`] halves, which
/// need 27-bit multipliers). The entries' exact values sum to `x`.
#[inline]
pub fn decode_fp64_slices(x: f64, cfg: SliceConfig, out: &mut [BufferEntry]) -> usize {
    let n = cfg.slices() as usize;
    assert!(cfg.precision() == 53, "FP64 slices need a 53-bit config");
    assert!(
        cfg.max_slice_bits() <= MANT_BITS,
        "slice width exceeds the {MANT_BITS}-bit multiplier field"
    );
    assert!(out.len() >= n, "output buffer too short");
    if x.is_nan() || x.is_infinite() {
        let s = if x.is_nan() {
            Special::Nan
        } else {
            Special::Inf(x.is_sign_negative())
        };
        let e = BufferEntry {
            sign: x.is_sign_negative(),
            mant: 0,
            pow: 0,
            special: Some(s),
            operand_zero: false,
        };
        out[..n].fill(e);
        return n;
    }
    let bits = x.to_bits();
    let sign = bits >> 63 == 1;
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let frac = bits & ((1u64 << 52) - 1);
    let (m53, e) = if biased == 0 {
        (frac, -1022)
    } else {
        (frac | (1u64 << 52), biased - 1023)
    };
    let zero = m53 == 0;
    for i in 0..cfg.slices() {
        let below = cfg.bits_below(i);
        let width = cfg.slice_bits(i);
        out[i as usize] = BufferEntry {
            sign,
            mant: ((m53 >> below) & ((1u64 << width) - 1)) as u32,
            pow: e - 52 + below as i32,
            special: None,
            operand_zero: zero,
        };
    }
    n
}

/// Decode a narrow-format operand (FP16/BF16/TF32) into a single buffer
/// entry — the default Tensor-Core mode where "the data-assignment stage
/// directly feeds each input value into the pairs of input buffers",
/// materialising the hidden 1 and zero-filling the unused bits.
///
/// `x` must be exactly representable in `fmt` (callers obtain it from
/// `SoftFloat`). Panics (debug) otherwise.
#[inline]
pub fn decode_narrow(x: f64, fmt: FloatFormat) -> BufferEntry {
    debug_assert!(
        fmt.precision() <= MANT_BITS,
        "{fmt} exceeds the 12-bit buffer field"
    );
    if x.is_nan() {
        return BufferEntry {
            sign: false,
            mant: 0,
            pow: 0,
            special: Some(Special::Nan),
            operand_zero: false,
        };
    }
    if x.is_infinite() {
        let neg = x.is_sign_negative();
        return BufferEntry {
            sign: neg,
            mant: 0,
            pow: 0,
            special: Some(Special::Inf(neg)),
            operand_zero: false,
        };
    }
    let bits = encode(x, fmt);
    let sign = (bits >> (fmt.exp_bits + fmt.mantissa_bits)) & 1 == 1;
    let biased = ((bits >> fmt.mantissa_bits) & fmt.exp_field_max() as u64) as i32;
    let frac = (bits & ((1u64 << fmt.mantissa_bits) - 1)) as u32;
    let (m, e) = if biased == 0 {
        (frac, fmt.min_normal_exp())
    } else {
        (frac | (1 << fmt.mantissa_bits), biased - fmt.bias())
    };
    BufferEntry {
        sign,
        mant: m,
        pow: e - fmt.mantissa_bits as i32,
        special: None,
        operand_zero: m == 0,
    }
}

/// Mantissa-field width of the FP64 extension mode (§IV-C): each FP64
/// significand (53 bits incl. hidden) splits into a 27-bit high half and a
/// 26-bit low half, so the composing multipliers must be 27 bits wide.
pub const FP64_HALF_BITS: u32 = 27;

/// Decode an FP64 operand into its high and low buffer entries for the
/// §IV-C extension mode. `high.value() + low.value() == x` exactly.
pub fn decode_fp64(x: f64) -> (BufferEntry, BufferEntry) {
    if x.is_nan() {
        let e = BufferEntry {
            sign: false,
            mant: 0,
            pow: 0,
            special: Some(Special::Nan),
            operand_zero: false,
        };
        return (e, e);
    }
    if x.is_infinite() {
        let neg = x.is_sign_negative();
        let e = BufferEntry {
            sign: neg,
            mant: 0,
            pow: 0,
            special: Some(Special::Inf(neg)),
            operand_zero: false,
        };
        return (e, e);
    }
    let bits = x.to_bits();
    let sign = bits >> 63 == 1;
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let frac = bits & ((1u64 << 52) - 1);
    let (m53, e) = if biased == 0 {
        (frac, -1022)
    } else {
        (frac | (1u64 << 52), biased - 1023)
    };
    // value = ±M * 2^(e - 52); split M = mH*2^26 + mL.
    let zero = m53 == 0;
    let m_hi = (m53 >> 26) as u32; // 27 bits incl. hidden
    let m_lo = (m53 & ((1 << 26) - 1)) as u32; // 26 bits
    let hi = BufferEntry {
        sign,
        mant: m_hi,
        pow: e - 26,
        special: None,
        operand_zero: zero,
    };
    let lo = BufferEntry {
        sign,
        mant: m_lo,
        pow: e - 52,
        special: None,
        operand_zero: zero,
    };
    (hi, lo)
}

/// Decode an FP32 operand into a single TF32 buffer entry (the Tensor-Core
/// TF32 mode: FP32 in, rounded to nearest-even at 11 significand bits, so
/// the low 13 are lost — the "illusion of higher-precision support" M3XU
/// replaces).
#[inline]
pub fn decode_tf32(x: f32) -> BufferEntry {
    let rounded = m3xu_fp::softfloat::round_to_format(x as f64, m3xu_fp::format::TF32);
    decode_narrow(rounded, m3xu_fp::format::TF32)
}

/// A finite `f32` as `(m, lsb, lead)`: its value is `±m · 2^lsb` with
/// `m < 2^24`, and `lead` is the exponent of `m`'s leading bit (below
/// every format's range when `m == 0`).
#[inline(always)]
fn f32_significand(bits: u32) -> (u32, i32, i32) {
    let biased = ((bits >> 23) & 0xff) as i32;
    let m = (bits & 0x7f_ffff) | (((biased != 0) as u32) << 23);
    let lsb = biased.max(1) - 150;
    (m, lsb, lsb + 31 - m.leading_zeros() as i32)
}

/// Weight of the least significand bit `fmt` keeps for a value whose
/// leading bit has exponent `lead`: `mantissa_bits` places below it, or
/// the least subnormal's weight below the normal range.
#[inline(always)]
fn narrow_quantum(lead: i32, fmt: FloatFormat) -> i32 {
    lead.max(fmt.min_normal_exp()) - fmt.mantissa_bits as i32
}

/// Round an `f32` to the narrow format `fmt` (FP16, BF16 or TF32), as an
/// `f32`, with no branch: bit-identical to `round_to_format(x as f64, fmt)
/// as f32` for every finite `x`; a NaN or an infinity comes back as
/// itself. Every such value is exactly an `f32`.
///
/// BF16 and TF32 share `f32`'s exponent field, so round-to-nearest-even is
/// an integer add on the magnitude's bits, half an ulp less one plus the
/// kept lsb, and a mask that drops the `23 − mantissa_bits` low bits. A
/// carry into the exponent field is the next binade: past the largest
/// finite value it lands on +Inf's bits, and `f32` subnormals, linear in
/// their bits, round to the format's own (gradual underflow). FP16 takes
/// the same add in its normal range, becomes ±Inf from `2^16` on (`|x| ≥
/// 65520` rounds there), and below `2^-14` rounds to its subnormal quantum
/// `2^-24` as `(|x| + 0.5) − 0.5`: `0.5`'s ulp is `2^-24`, so the IEEE
/// addition rounds `|x|` to that quantum, ties to even, and the
/// subtraction is exact. Selects keep NaN and ±Inf, and the sign is put
/// back last, so a negative value that rounds to zero is `−0`.
///
/// Written as plain integer and `f32` operations with selects, so a loop
/// over a plane of values ([`narrow_plane`]) vectorises.
#[inline(always)]
pub(crate) fn narrow_f32(x: f32, fmt: FloatFormat) -> f32 {
    debug_assert!(
        fmt.exp_bits <= 8 && fmt.mantissa_bits < 23,
        "{fmt} is not narrow"
    );
    const INF: u32 = 0x7f80_0000;
    // The `f32` bits of `2^e`, for `e` in the normal range.
    let pow2 = |e: i32| ((e + 127) as u32) << 23;
    let drop = 23 - fmt.mantissa_bits;
    let bits = x.to_bits();
    let (sign, mag) = (bits & 0x8000_0000, bits & !0x8000_0000);
    let lsb = mag >> drop & 1;
    let mut r = (mag + (1 << (drop - 1)) - 1 + lsb) & !((1 << drop) - 1);
    if fmt.exp_bits < 8 {
        // A narrower range: overflow past the largest finite value, and
        // the subnormal quantum `2^(min_normal_exp − mantissa_bits)`, the
        // ulp of `2^(min_normal_exp − mantissa_bits + 23)` in `f32`.
        let c = f32::from_bits(pow2(fmt.min_normal_exp() - fmt.mantissa_bits as i32 + 23));
        let tiny = ((f32::from_bits(mag) + c) - c).to_bits();
        r = if r >= pow2(fmt.max_exp() + 1) { INF } else { r };
        r = if mag < pow2(fmt.min_normal_exp()) {
            tiny
        } else {
            r
        };
    }
    let mag = if mag >= INF { mag } else { r };
    f32::from_bits(sign | mag)
}

/// Round every value of a plane to the narrow format `fmt` in place, one
/// [`narrow_f32`] each: the packing stage's single pass over a narrow
/// operand's value plane, after the same copy the FP32 pack makes. Inlined
/// with a constant `fmt`, the loop vectorises at every level, the
/// baseline's included.
#[inline(always)]
pub(crate) fn narrow_plane(vals: &mut [f32], fmt: FloatFormat) {
    for x in vals {
        *x = narrow_f32(*x, fmt);
    }
}

/// Decode an `f32` that is exactly representable in the narrow format
/// `fmt` (a [`narrow_f32`] result) into its buffer entry —
/// field for field what [`decode_narrow`] returns for the same value,
/// with no rounding and no softfloat re-encode. NaN and ±Inf are flagged
/// as there.
#[inline]
pub(crate) fn decode_narrow_f32(v: f32, fmt: FloatFormat) -> BufferEntry {
    let bits = v.to_bits();
    let sign = bits >> 31 == 1;
    if (bits >> 23) & 0xff == 0xff {
        let (sign, special) = if bits & 0x7f_ffff != 0 {
            (false, Special::Nan)
        } else {
            (sign, Special::Inf(sign))
        };
        return BufferEntry {
            sign,
            mant: 0,
            pow: 0,
            special: Some(special),
            operand_zero: false,
        };
    }
    let (m, lsb, lead) = f32_significand(bits);
    let q = narrow_quantum(lead, fmt);
    let d = (q - lsb).min(31) as u32;
    debug_assert_eq!(m & ((1 << d) - 1), 0, "{v:e} is not a {fmt} value");
    BufferEntry {
        sign,
        mant: m >> d,
        pow: q,
        special: None,
        operand_zero: m == 0,
    }
}

/// Sanity check used by tests and the synth crate: storage cost of one
/// entry in bits (1 sign + 8 exponent + 12 mantissa).
pub const ENTRY_BITS: u32 = 1 + FP32.exp_bits + MANT_BITS;

#[cfg(test)]
mod tests {
    use super::*;
    use m3xu_fp::split::split_fp32;

    #[test]
    fn fp32_decode_reconstructs_exactly() {
        for &x in &[
            1.0f32,
            std::f32::consts::PI,
            -0.1,
            6.5504e4,
            f32::MIN_POSITIVE,
            1.0e-44, // subnormal
            -f32::MAX,
            0.0,
            -0.0,
        ] {
            let (hi, lo) = decode_fp32(x);
            assert_eq!(
                hi.value() + lo.value(),
                x as f64,
                "decode not exact for {x:e}"
            );
        }
    }

    #[test]
    fn fp32_decode_matches_numeric_split() {
        // The structural (bit-field) split must agree with the numeric
        // error-free split from m3xu-fp.
        for &x in &[std::f32::consts::PI, -1.5e-40, 2.5e37, 1.0 + f32::EPSILON] {
            let (hi, lo) = decode_fp32(x);
            let (nh, nl) = split_fp32(x);
            assert_eq!(hi.value(), nh as f64, "high half mismatch for {x}");
            assert_eq!(lo.value(), nl as f64, "low half mismatch for {x}");
        }
    }

    #[test]
    fn fp32_high_entry_has_hidden_one() {
        let (hi, _) = decode_fp32(1.5);
        // Normal input: bit 11 of the high mantissa field is the hidden 1.
        assert_eq!(hi.mant >> 11, 1);
        // Subnormal input: no hidden bit.
        let (hi, _) = decode_fp32(1.0e-44);
        assert_eq!(hi.mant >> 11, 0);
    }

    #[test]
    fn weight_relationship_between_halves() {
        // Observation 2: HH products sit 24 binary places above LL, cross
        // products 12 above — encoded in the pow fields.
        let (ah, al) = decode_fp32(3.75);
        let (bh, bl) = decode_fp32(-12.5);
        let hh = ah.pow + bh.pow;
        let hl = ah.pow + bl.pow;
        let lh = al.pow + bh.pow;
        let ll = al.pow + bl.pow;
        assert_eq!(hh - ll, 24);
        assert_eq!(hl - ll, 12);
        assert_eq!(lh - ll, 12);
    }

    #[test]
    fn specials_flagged() {
        let (hi, lo) = decode_fp32(f32::NAN);
        assert_eq!(hi.special, Some(Special::Nan));
        assert_eq!(lo.special, Some(Special::Nan));
        let (hi, _) = decode_fp32(f32::NEG_INFINITY);
        assert_eq!(hi.special, Some(Special::Inf(true)));
        assert!(hi.value().is_infinite() && hi.value() < 0.0);
    }

    #[test]
    fn negation_flips_sign() {
        let (hi, _) = decode_fp32(2.5);
        let n = hi.negated();
        assert_eq!(n.value(), -hi.value());
        let (inf, _) = decode_fp32(f32::INFINITY);
        assert_eq!(inf.negated().value(), f64::NEG_INFINITY);
    }

    #[test]
    fn narrow_decode_fp16() {
        use m3xu_fp::format::FP16;
        for &x in &[1.0f64, -0.5, 65504.0, 2.0f64.powi(-24), 0.333251953125] {
            let e = decode_narrow(x, FP16);
            assert_eq!(e.value(), x, "narrow decode mismatch for {x}");
            assert!(e.mant < 1 << MANT_BITS);
        }
    }

    #[test]
    fn narrow_decode_bf16_and_tf32() {
        use m3xu_fp::format::{BF16, TF32};
        let e = decode_narrow(1.0 + 2.0f64.powi(-7), BF16);
        assert_eq!(e.value(), 1.0 + 2.0f64.powi(-7));
        let e = decode_narrow(1.0 + 2.0f64.powi(-10), TF32);
        assert_eq!(e.value(), 1.0 + 2.0f64.powi(-10));
    }

    #[test]
    fn tf32_decode_rounds_to_nearest_even() {
        let x = 1.0f32 + f32::EPSILON; // needs 24 significand bits
        let e = decode_tf32(x);
        assert_eq!(e.value(), 1.0); // below half an ulp: rounded away
        let (hi, lo) = decode_fp32(x);
        assert_eq!(hi.value() + lo.value(), x as f64); // M3XU keeps them

        // Above half an ulp of TF32 the decode rounds up, where truncation
        // would keep 1.0.
        let x = 1.0f32 + 2.0f32.powi(-11) + f32::EPSILON;
        assert_eq!(decode_tf32(x).value(), 1.0 + 2.0f64.powi(-10));
    }

    #[test]
    fn entry_width_matches_paper() {
        assert_eq!(ENTRY_BITS, 21); // 1 + 8 + 12
    }

    #[test]
    fn fp64_decode_reconstructs_exactly() {
        for &x in &[std::f64::consts::PI, -1e300, 2.5e-308, 5e-324, 0.1] {
            let (hi, lo) = decode_fp64(x);
            // The halves have <= 27 significant bits each; summing their
            // exact values in f64 is exact because they are disjoint bit
            // ranges of the original significand.
            assert_eq!(
                hi.value() + lo.value(),
                x,
                "fp64 decode not exact for {x:e}"
            );
            assert!(hi.mant < 1 << FP64_HALF_BITS);
            assert!(lo.mant < 1 << (FP64_HALF_BITS - 1));
        }
    }

    #[test]
    fn fp64_weight_relationship() {
        let (hi, lo) = decode_fp64(3.75);
        assert_eq!(hi.pow - lo.pow, 26);
    }

    #[test]
    fn fp32_slice_decode_n2_matches_classic_decode() {
        // The generalized decode at N=2 is the classic hi/lo decode,
        // field for field.
        let mut out = [BufferEntry::ZERO; 8];
        for &x in &[
            std::f32::consts::PI,
            -1.5e-40,
            2.5e37,
            1.0 + f32::EPSILON,
            0.0,
            -0.0,
            f32::NAN,
            f32::NEG_INFINITY,
        ] {
            let n = decode_fp32_slices(x, FP32_SLICES_EXACT, &mut out);
            assert_eq!(n, 2);
            let (hi, lo) = decode_fp32(x);
            assert_eq!(out[0], hi, "hi mismatch for {x}");
            assert_eq!(out[1], lo, "lo mismatch for {x}");
        }
    }

    #[test]
    fn fp32_slice_decode_reconstructs_and_matches_numeric_split() {
        let mut out = [BufferEntry::ZERO; 8];
        for n in [2u32, 3, 4] {
            let cfg = SliceConfig::for_f32(n);
            for &x in &[std::f32::consts::PI, -1.5e-40, 6.5504e4, 1.0e-44] {
                let k = decode_fp32_slices(x, cfg, &mut out);
                let numeric = cfg.split_f32(x);
                let mut sum = 0.0f64;
                for i in (0..k).rev() {
                    assert_eq!(out[i].value(), numeric.get(i), "slice {i} of {x} (n={n})");
                    assert!(out[i].mant < 1 << cfg.slice_bits(i as u32));
                    sum += out[i].value();
                }
                assert_eq!(sum, x as f64, "structural sum for {x} (n={n})");
            }
        }
    }

    #[test]
    fn fp64_slice_decode_reconstructs_exactly() {
        use m3xu_fp::split::FP64_SLICES_EMULATED;
        let mut out = [BufferEntry::ZERO; 8];
        for &x in &[std::f64::consts::PI, -1e300, 2.5e-308, 5e-324, 0.1, -0.0] {
            let k = decode_fp64_slices(x, FP64_SLICES_EMULATED, &mut out);
            assert_eq!(k, 5);
            let mut sum = 0.0f64;
            for i in (0..k).rev() {
                assert!(out[i].mant < 1 << MANT_BITS, "slice fits the multiplier");
                sum += out[i].value();
            }
            assert_eq!(sum, x, "fp64 slice sum for {x:e}");
            let numeric = FP64_SLICES_EMULATED.split_f64(x);
            for (i, entry) in out.iter().enumerate().take(k) {
                assert_eq!(entry.value(), numeric.get(i), "slice {i} of {x:e}");
            }
        }
    }

    #[test]
    fn fp64_slice_decode_specials() {
        use m3xu_fp::split::FP64_SLICES_EMULATED;
        let mut out = [BufferEntry::ZERO; 8];
        decode_fp64_slices(f64::NAN, FP64_SLICES_EMULATED, &mut out);
        assert!(out[..5].iter().all(|e| e.special == Some(Special::Nan)));
        decode_fp64_slices(f64::NEG_INFINITY, FP64_SLICES_EMULATED, &mut out);
        assert!(out[..5]
            .iter()
            .all(|e| e.special == Some(Special::Inf(true))));
    }
}
