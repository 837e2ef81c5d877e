//! The dot-product unit (DPU) — the arithmetic core of the MXU.
//!
//! Each Tensor-Core-style MXU consists of multiple four-element dot-product
//! units (Fig. 1 of the paper). M3XU extends each unit with (§IV-A):
//!
//! * 12-bit mantissa multipliers (a 1-bit extension over the 11-bit units
//!   of FP16/BF16/TF32 Tensor Cores),
//! * shifters that weight partial products by `2^24` / `2^12` / `2^0`
//!   according to which halves they combine (Observation 2), and
//! * widened two's-complement accumulation registers.
//!
//! The model below executes the *integer* datapath faithfully: every lane
//! computes an exact integer product of two mantissa fields, and the
//! shifted partial products accumulate exactly into a wide register
//! ([`m3xu_fp::fixed::Kulisch`]); the result is rounded to the output
//! format exactly once per drain. Special values (NaN/Inf) bypass the
//! multiplier array, as a hardware decode stage would flag them.

use crate::buffer::{BufferEntry, Special};
use m3xu_fp::fixed::{Kulisch, RoundFlags};

/// Which accumulator a lane's product feeds: complex modes keep separate
/// real and imaginary accumulation registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// The real (or only) accumulator.
    Real,
    /// The imaginary accumulator (FP32C/FP64C modes).
    Imag,
}

/// One multiplier lane's work item for one step: two buffer entries, an
/// optional sign flip (the FP32C imaginary-imaginary subtraction), and the
/// destination accumulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneOp {
    /// The `a`-side buffer entry.
    pub a: BufferEntry,
    /// The `b`-side buffer entry.
    pub b: BufferEntry,
    /// Flip the product's sign (wired into the data-assignment stage).
    pub negate: bool,
    /// Destination accumulator.
    pub target: Target,
}

/// IEEE 754 exception flags one output element raised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MxuExceptions {
    /// Invalid operation: Inf x 0 or Inf - Inf inside the dot product.
    pub invalid: bool,
    /// The final rounding discarded bits.
    pub inexact: bool,
    /// The exact result overflowed FP32.
    pub overflow: bool,
    /// The result is tiny and inexact.
    pub underflow: bool,
}

impl MxuExceptions {
    fn from_rounding(f: RoundFlags) -> Self {
        MxuExceptions {
            invalid: false,
            inexact: f.inexact,
            overflow: f.overflow,
            underflow: f.underflow,
        }
    }
}

/// IEEE-style special-value state of one accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum AccState {
    /// All contributions finite so far.
    #[default]
    Finite,
    /// An infinite contribution of the given sign dominates.
    Inf(bool),
    /// Poisoned (NaN input, Inf * 0, or Inf - Inf).
    Nan,
}

impl AccState {
    /// Returns true when the absorb raised an *invalid operation*
    /// (Inf - Inf).
    fn absorb_inf(&mut self, negative: bool) -> bool {
        let (next, invalid) = match *self {
            AccState::Finite => (AccState::Inf(negative), false),
            AccState::Inf(n) if n == negative => (AccState::Inf(n), false),
            AccState::Inf(_) => (AccState::Nan, true),
            AccState::Nan => (AccState::Nan, false),
        };
        *self = next;
        invalid
    }
}

/// One accumulator: an exact wide register plus special-value tracking.
#[derive(Default)]
struct Accumulator {
    acc: Kulisch,
    state: AccState,
    /// An invalid operation (Inf x 0, Inf - Inf) occurred.
    invalid: bool,
}

impl Accumulator {
    fn clear(&mut self) {
        self.acc.clear();
        self.state = AccState::Finite;
        self.invalid = false;
    }

    fn seed_f64(&mut self, c: f64) {
        if c.is_nan() {
            self.state = AccState::Nan;
        } else if c.is_infinite() {
            self.invalid |= self.state.absorb_inf(c.is_sign_negative());
        } else {
            self.acc.add_f64(c);
        }
    }

    /// Read as FP32 with the IEEE exception flags this element raised.
    fn read_f32_flagged(&self) -> (f32, MxuExceptions) {
        match self.state {
            AccState::Nan => (
                f32::NAN,
                MxuExceptions {
                    invalid: self.invalid,
                    ..Default::default()
                },
            ),
            AccState::Inf(neg) => {
                let v = if neg {
                    f32::NEG_INFINITY
                } else {
                    f32::INFINITY
                };
                (
                    v,
                    MxuExceptions {
                        invalid: self.invalid,
                        ..Default::default()
                    },
                )
            }
            AccState::Finite => {
                let (v, f) = self.acc.round_to_flagged(m3xu_fp::format::FP32);
                (v as f32, MxuExceptions::from_rounding(f))
            }
        }
    }

    fn read_f32(&self) -> f32 {
        match self.state {
            AccState::Nan => f32::NAN,
            AccState::Inf(neg) => {
                if neg {
                    f32::NEG_INFINITY
                } else {
                    f32::INFINITY
                }
            }
            AccState::Finite => self.acc.to_f32(),
        }
    }

    fn read_f64(&self) -> f64 {
        match self.state {
            AccState::Nan => f64::NAN,
            AccState::Inf(neg) => {
                if neg {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                }
            }
            AccState::Finite => self.acc.to_f64(),
        }
    }
}

/// A dot-product unit with real and imaginary accumulation registers.
///
/// The unit is *step-oriented*: the data-assignment stage hands it one
/// `&[LaneOp]` per step (4 lanes in the baseline four-element unit; the
/// plans in [`crate::assign`] use one lane per partial product).
#[derive(Default)]
pub struct DotProductUnit {
    real: Accumulator,
    imag: Accumulator,
    /// Number of lane products executed since the last `clear` (telemetry
    /// for the cycle/energy models).
    pub lane_ops: u64,
    /// Number of steps executed since the last `clear`.
    pub steps: u64,
    /// Element-chunks the SIMD panels rounded on the vector path, by the
    /// quick tier or the certified pair (never reset: callers meter a
    /// region by its delta).
    pub simd_chunks: u64,
    /// Element-chunks the SIMD panels sent to the scalar oracle — a
    /// special operand, or a chunk whose exact pair the certificate
    /// refuses (a residual spanning more than 53 bits).
    pub simd_fallbacks: u64,
    /// Element-chunks in fragment rows the quick tier refused, each then
    /// rounded by the certified pair (counted in `simd_chunks`) or by the
    /// oracle (in `simd_fallbacks`).
    pub quick_refusals: u64,
    /// Element-chunks in fragment rows the exact tier refused (FP16, BF16
    /// and TF32), each then rounded as after a quick-tier refusal.
    pub exact_refusals: u64,
    /// Buffer entries the packed per-chunk executors decode into, reused.
    pub(crate) decoded: Vec<BufferEntry>,
}

impl DotProductUnit {
    /// A fresh unit with zeroed accumulators.
    pub fn new() -> Self {
        Self::default()
    }

    /// Zero both accumulators (start of a new output element).
    pub fn clear(&mut self) {
        self.real.clear();
        self.imag.clear();
    }

    /// Zero only the real accumulator — the packed real-mode pipeline never
    /// touches the imaginary register, so clearing it too would waste a
    /// wide-register wipe per output element.
    pub fn clear_real(&mut self) {
        self.real.clear();
    }

    /// Execute a single lane — the entry point the packed fragment
    /// pipeline uses to stream lanes without materialising per-step
    /// `Vec<LaneOp>` schedules.
    #[inline]
    pub fn execute_lane_op(&mut self, op: &LaneOp) {
        self.lane_ops += 1;
        self.execute_lane(op);
    }

    /// Seed the real accumulator with the GEMM `C` input.
    pub fn seed_real(&mut self, c: f64) {
        self.real.seed_f64(c);
    }

    /// Seed the imaginary accumulator with the imaginary part of `C`.
    pub fn seed_imag(&mut self, c: f64) {
        self.imag.seed_f64(c);
    }

    /// Execute one step: every lane multiplies its two mantissa fields in
    /// the (extended) integer multiplier and accumulates the shifted
    /// partial product.
    pub fn execute_step(&mut self, lanes: &[LaneOp]) {
        self.steps += 1;
        for op in lanes {
            self.lane_ops += 1;
            self.execute_lane(op);
        }
    }

    fn execute_lane(&mut self, op: &LaneOp) {
        let dst = match op.target {
            Target::Real => &mut self.real,
            Target::Imag => &mut self.imag,
        };
        // Special-value resolution happens at decode, before the
        // multiplier array.
        match (op.a.special, op.b.special) {
            (Some(Special::Nan), _) | (_, Some(Special::Nan)) => {
                dst.state = AccState::Nan;
                return;
            }
            (Some(Special::Inf(na)), other) => {
                // Inf * 0 = NaN; Inf * finite = Inf with combined sign.
                let b_zero = other.is_none() && op.b.operand_zero;
                if b_zero {
                    dst.state = AccState::Nan;
                    dst.invalid = true;
                } else {
                    let nb = match other {
                        Some(Special::Inf(nb)) => nb,
                        _ => op.b.sign,
                    };
                    dst.invalid |= dst.state.absorb_inf(na ^ nb ^ op.negate);
                }
                return;
            }
            (other, Some(Special::Inf(nb))) => {
                let a_zero = other.is_none() && op.a.operand_zero;
                if a_zero {
                    dst.state = AccState::Nan;
                    dst.invalid = true;
                } else {
                    dst.invalid |= dst.state.absorb_inf(op.a.sign ^ nb ^ op.negate);
                }
                return;
            }
            (None, None) => {}
        }
        // The integer datapath: an exact mantissa product (at most
        // 27 + 27 = 54 bits in the FP64 mode, 24 in FP32 mode) lands in the
        // wide accumulator at its weight exponent. No floating-point
        // arithmetic is involved.
        let product = op.a.mant as u64 * op.b.mant as u64;
        if product == 0 {
            return;
        }
        let negative = op.a.sign ^ op.b.sign ^ op.negate;
        dst.acc.add_scaled(product, op.a.pow + op.b.pow, negative);
    }

    /// Drain the real accumulator as FP32 (one rounding).
    pub fn read_real_f32(&self) -> f32 {
        self.real.read_f32()
    }

    /// Drain the real accumulator as FP32 together with the IEEE exception
    /// flags this output element raised — the observability lossy MXUs
    /// cannot offer (§II-C2).
    pub fn read_real_f32_flagged(&self) -> (f32, MxuExceptions) {
        self.real.read_f32_flagged()
    }

    /// Drain the imaginary accumulator as FP32 with exception flags.
    pub fn read_imag_f32_flagged(&self) -> (f32, MxuExceptions) {
        self.imag.read_f32_flagged()
    }

    /// Drain the imaginary accumulator as FP32.
    pub fn read_imag_f32(&self) -> f32 {
        self.imag.read_f32()
    }

    /// Drain the real accumulator as FP64 (the §IV-C extension's output).
    pub fn read_real_f64(&self) -> f64 {
        self.real.read_f64()
    }

    /// Drain the imaginary accumulator as FP64.
    pub fn read_imag_f64(&self) -> f64 {
        self.imag.read_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{decode_fp32, decode_narrow};
    use m3xu_fp::format::FP16;

    fn lane(a: BufferEntry, b: BufferEntry) -> LaneOp {
        LaneOp {
            a,
            b,
            negate: false,
            target: Target::Real,
        }
    }

    #[test]
    fn single_fp16_product() {
        let a = decode_narrow(1.5, FP16);
        let b = decode_narrow(-2.0, FP16);
        let mut dpu = DotProductUnit::new();
        dpu.execute_step(&[lane(a, b)]);
        assert_eq!(dpu.read_real_f32(), -3.0);
        assert_eq!(dpu.lane_ops, 1);
        assert_eq!(dpu.steps, 1);
    }

    #[test]
    fn fp32_two_step_product_is_exact() {
        // The full 2-step M3XU dataflow for a single product: step 1 does
        // HH and LL, step 2 does the crosses. The drained result must be
        // the correctly rounded FP32 product.
        let x = 1.9999999f32;
        let y = 0.333_333_34_f32;
        let (xh, xl) = decode_fp32(x);
        let (yh, yl) = decode_fp32(y);
        let mut dpu = DotProductUnit::new();
        dpu.execute_step(&[lane(xh, yh), lane(xl, yl)]); // step 1: HH + LL
        dpu.execute_step(&[lane(xh, yl), lane(xl, yh)]); // step 2: crosses
        let expect = ((x as f64) * (y as f64)) as f32;
        assert_eq!(dpu.read_real_f32().to_bits(), expect.to_bits());
    }

    #[test]
    fn seed_then_accumulate() {
        let mut dpu = DotProductUnit::new();
        dpu.seed_real(10.0);
        let a = decode_narrow(2.0, FP16);
        let b = decode_narrow(3.0, FP16);
        dpu.execute_step(&[lane(a, b)]);
        assert_eq!(dpu.read_real_f32(), 16.0);
        dpu.clear();
        assert_eq!(dpu.read_real_f32(), 0.0);
    }

    #[test]
    fn negate_flag_subtracts() {
        let a = decode_narrow(2.0, FP16);
        let b = decode_narrow(3.0, FP16);
        let mut dpu = DotProductUnit::new();
        dpu.execute_step(&[LaneOp {
            a,
            b,
            negate: true,
            target: Target::Real,
        }]);
        assert_eq!(dpu.read_real_f32(), -6.0);
    }

    #[test]
    fn separate_real_imag_targets() {
        let a = decode_narrow(2.0, FP16);
        let b = decode_narrow(3.0, FP16);
        let mut dpu = DotProductUnit::new();
        dpu.execute_step(&[
            LaneOp {
                a,
                b,
                negate: false,
                target: Target::Real,
            },
            LaneOp {
                a,
                b,
                negate: true,
                target: Target::Imag,
            },
        ]);
        assert_eq!(dpu.read_real_f32(), 6.0);
        assert_eq!(dpu.read_imag_f32(), -6.0);
    }

    #[test]
    fn nan_poisons_output() {
        let (nh, nl) = decode_fp32(f32::NAN);
        let (bh, _) = decode_fp32(1.0);
        let mut dpu = DotProductUnit::new();
        dpu.execute_step(&[lane(nh, bh), lane(nl, bh)]);
        assert!(dpu.read_real_f32().is_nan());
    }

    #[test]
    fn inf_times_zero_is_nan() {
        let (ih, _) = decode_fp32(f32::INFINITY);
        let (zh, _) = decode_fp32(0.0);
        let mut dpu = DotProductUnit::new();
        dpu.execute_step(&[lane(ih, zh)]);
        assert!(dpu.read_real_f32().is_nan());
    }

    #[test]
    fn inf_propagates_with_sign() {
        let (ih, il) = decode_fp32(f32::INFINITY);
        let (bh, bl) = decode_fp32(-2.0);
        let mut dpu = DotProductUnit::new();
        dpu.execute_step(&[lane(ih, bh), lane(il, bl)]);
        dpu.execute_step(&[lane(ih, bl), lane(il, bh)]);
        assert_eq!(dpu.read_real_f32(), f32::NEG_INFINITY);
    }

    #[test]
    fn opposing_infs_are_nan() {
        let (ih, _) = decode_fp32(f32::INFINITY);
        let (jh, _) = decode_fp32(f32::NEG_INFINITY);
        let (bh, _) = decode_fp32(1.0);
        let mut dpu = DotProductUnit::new();
        dpu.execute_step(&[lane(ih, bh), lane(jh, bh)]);
        assert!(dpu.read_real_f32().is_nan());
    }

    #[test]
    fn overflow_rounds_to_infinity() {
        let (ah, al) = decode_fp32(f32::MAX);
        let mut dpu = DotProductUnit::new();
        dpu.execute_step(&[lane(ah, ah), lane(al, al)]);
        dpu.execute_step(&[lane(ah, al), lane(al, ah)]);
        assert_eq!(dpu.read_real_f32(), f32::INFINITY); // MAX^2 overflows FP32
        assert!(dpu.read_real_f64().is_finite()); // ... but not FP64
    }

    #[test]
    fn exception_flags_surface_correctly() {
        // Exact computation: no flags.
        let a = decode_narrow(1.5, FP16);
        let b = decode_narrow(2.0, FP16);
        let mut dpu = DotProductUnit::new();
        dpu.execute_step(&[lane(a, b)]);
        let (v, f) = dpu.read_real_f32_flagged();
        assert_eq!(v, 3.0);
        assert_eq!(f, MxuExceptions::default());

        // Inexact: a 2-step FP32 product whose exact value needs 48 bits.
        let (xh, xl) = decode_fp32(1.9999999);
        let mut dpu = DotProductUnit::new();
        dpu.execute_step(&[lane(xh, xh), lane(xl, xl)]);
        dpu.execute_step(&[lane(xh, xl), lane(xl, xh)]);
        let (_, f) = dpu.read_real_f32_flagged();
        assert!(f.inexact && !f.invalid);

        // Overflow: MAX^2.
        let (mh, ml) = decode_fp32(f32::MAX);
        let mut dpu = DotProductUnit::new();
        dpu.execute_step(&[lane(mh, mh), lane(ml, ml)]);
        dpu.execute_step(&[lane(mh, ml), lane(ml, mh)]);
        let (v, f) = dpu.read_real_f32_flagged();
        assert!(v.is_infinite());
        assert!(f.overflow);

        // Invalid: Inf x 0.
        let (ih, _) = decode_fp32(f32::INFINITY);
        let (zh, _) = decode_fp32(0.0);
        let mut dpu = DotProductUnit::new();
        dpu.execute_step(&[lane(ih, zh)]);
        let (v, f) = dpu.read_real_f32_flagged();
        assert!(v.is_nan());
        assert!(f.invalid);

        // Propagated NaN input is NOT a new invalid operation.
        let (nh, _) = decode_fp32(f32::NAN);
        let (bh, _) = decode_fp32(1.0);
        let mut dpu = DotProductUnit::new();
        dpu.execute_step(&[lane(nh, bh)]);
        let (v, f) = dpu.read_real_f32_flagged();
        assert!(v.is_nan());
        assert!(!f.invalid);

        // Underflow: product of two tiny values vanishing below FP32.
        let (th, tl) = decode_fp32(1.0e-38);
        let mut dpu = DotProductUnit::new();
        dpu.execute_step(&[lane(th, th), lane(tl, tl)]);
        dpu.execute_step(&[lane(th, tl), lane(tl, th)]);
        let (v, f) = dpu.read_real_f32_flagged();
        assert_eq!(v, 0.0);
        assert!(f.underflow && f.inexact);
    }

    #[test]
    fn accumulator_width_insight() {
        // The paper's 48-bit accumulator claim in miniature: the exact sum
        // of step-1 partials (HH << 24 plus LL) fits 49 bits; verify the
        // integer path reproduces it against direct integer math.
        let x = f32::from_bits(0x3fff_ffff); // dense mantissa ~1.9999999
        let (xh, xl) = decode_fp32(x);
        let hh = xh.mant as u64 * xh.mant as u64;
        let ll = xl.mant as u64 * xl.mant as u64;
        let step1 = (hh << 24) + ll;
        assert!(step1 < 1u64 << 49);
        let mut dpu = DotProductUnit::new();
        dpu.execute_step(&[lane(xh, xh), lane(xl, xl)]);
        let got = dpu.read_real_f64();
        let expect = step1 as f64 * 2.0f64.powi(xl.pow * 2);
        assert_eq!(got, expect);
    }
}
