//! Generalised multi-way splitting — the §IV-C design space.
//!
//! "The original arithmetic unit requirements remain flexible,
//! accommodating options like 8-bit or 32-bit multipliers for composing
//! higher bitwidth datatypes, thereby broadening the design exploration
//! space." This module implements that exploration: an FP32 significand
//! splits into `p = ceil(24 / w)` parts for `w`-bit multipliers, and a
//! `p`-way M3XU needs `p` steps of `p` lanes per element to cover all
//! `p²` partial products (the 2-way case is the paper's 12-bit design).
//!
//! The step schedule is [`assign::cyclic_lane`], the rule behind
//! [`assign::SPLIT`] and [`assign::SLICES5`], at `n = p`: in step `s`,
//! lane `l` of an element multiplies part `l` of `a` with part
//! `(l + s) mod p` of `b` — a cyclic shift per step, which covers every
//! `(i, j)` pair exactly once and keeps the `a`-side assignments fixed
//! across steps (only the `b` multiplexers rotate).

use crate::assign::{self, Lane, Schedule, StepPlan};
use crate::buffer::{BufferEntry, Special};
use crate::dpu::DotProductUnit;
use m3xu_fp::fixed::Kulisch;

/// Split an FP32 operand into `parts` buffer entries of `width`-bit
/// mantissa fields each (`parts * width >= 24`). Part 0 is the most
/// significant. The sum of part values equals the operand exactly.
pub fn decode_fp32_parts(x: f32, width: u32) -> Vec<BufferEntry> {
    assert!((6..=24).contains(&width), "part width {width} out of range");
    let parts = 24u32.div_ceil(width) as usize;
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
        return vec![
            BufferEntry {
                sign,
                mant: 0,
                pow: 0,
                special: Some(s),
                operand_zero: false
            };
            parts
        ];
    }
    let (m24, e) = if biased == 0 {
        (frac, -126)
    } else {
        (frac | 0x80_0000, biased - 127)
    };
    let zero = m24 == 0;
    // Pad the 24-bit significand at the bottom so it divides evenly.
    let total = parts as u32 * width;
    let padded = (m24 as u64) << (total - 24);
    (0..parts)
        .map(|i| {
            let shift = total - width * (i as u32 + 1);
            let mant = ((padded >> shift) & ((1u64 << width) - 1)) as u32;
            // Part i's LSB has weight 2^(e - 23 - (total - 24) + shift).
            let pow = e - 23 - (total as i32 - 24) + shift as i32;
            BufferEntry {
                sign,
                mant,
                pow,
                special: None,
                operand_zero: zero,
            }
        })
        .collect()
}

/// The `p`-way cyclic schedule ([`assign::cyclic_lane`] at `n = p`): step
/// `s` pairs `a` part `l` with `b` part `(l + s) % p`.
fn cyclic_lanes(parts: usize) -> Vec<Lane> {
    (0..parts * parts)
        .map(|i| assign::cyclic_lane(parts, i / parts, i % parts))
        .collect()
}

/// Build the `p`-step plan for an FP32 dot product on `width`-bit
/// multipliers.
pub fn plan_fp32_generic(a: &[f32], b: &[f32], width: u32) -> StepPlan {
    let lanes = cyclic_lanes(24usize.div_ceil(width as usize));
    let decode = |v: &[f32]| -> Vec<BufferEntry> {
        v.iter()
            .flat_map(|&x| decode_fp32_parts(x, width))
            .collect()
    };
    assign::plan(&Schedule::new(&lanes), &decode(a), &decode(b))
}

/// Execute a generic-width FP32 dot product and read the FP32 result.
pub fn dot_fp32_generic(a: &[f32], b: &[f32], c: f32, width: u32) -> f32 {
    let mut dpu = DotProductUnit::new();
    dpu.seed_real(c as f64);
    for step in &plan_fp32_generic(a, b, width) {
        dpu.execute_step(step);
    }
    dpu.read_real_f32()
}

/// One row of the §IV-C design-space table: multiplier width vs. the step
/// count and lane products needed per FP32 element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitCost {
    /// Multiplier mantissa width in bits.
    pub width: u32,
    /// Parts per FP32 significand.
    pub parts: u32,
    /// Steps per MMA (equal to `parts`).
    pub steps: u32,
    /// Partial products per scalar product (`parts²`).
    pub products: u32,
    /// Relative throughput vs a 1-step full-width design with the same
    /// lane count: `1 / (steps * parts)` — the generalised Corollary 2.
    pub relative_throughput: f64,
}

/// The design-space sweep of §IV-C for FP32 composition.
pub fn split_cost_sweep() -> Vec<SplitCost> {
    [6u32, 8, 12, 16, 24]
        .iter()
        .map(|&width| {
            let parts = 24u32.div_ceil(width);
            SplitCost {
                width,
                parts,
                steps: parts,
                products: parts * parts,
                relative_throughput: 1.0 / (parts as f64 * parts as f64),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Windowed (finite-width) accumulation — pricing the 48-bit register claim
// ---------------------------------------------------------------------------

/// A hardware-style accumulator keeping only `width` bits below its
/// current most-significant bit (two's-complement, truncating alignment)
/// — the knob behind the paper's "48-bit registers for the accumulation
/// results".
#[derive(Debug, Clone)]
pub struct WindowedAccumulator {
    /// Window width in bits.
    pub width: u32,
    /// Signed significand, `|mant| < 2^width`.
    mant: i128,
    /// Exponent of the significand's LSB: value = `mant * 2^exp`.
    exp: i32,
}

impl WindowedAccumulator {
    /// A zeroed accumulator with the given window width.
    pub fn new(width: u32) -> Self {
        assert!((8..=120).contains(&width));
        WindowedAccumulator {
            width,
            mant: 0,
            exp: i32::MIN / 2,
        }
    }

    fn renormalise(&mut self) {
        // Keep |mant| < 2^width by dropping low bits (truncation toward
        // negative infinity, as a two's-complement right shift does).
        while self.mant.unsigned_abs() >= 1u128 << self.width {
            self.mant >>= 1;
            self.exp += 1;
        }
    }

    /// Add `±m * 2^e` with hardware alignment: bits of the addend below
    /// the accumulator window are discarded.
    pub fn add_scaled(&mut self, m: u64, e: i32, negative: bool) {
        if m == 0 {
            return;
        }
        let signed = if negative { -(m as i128) } else { m as i128 };
        if self.mant == 0 {
            self.mant = signed;
            self.exp = e;
            self.renormalise();
            return;
        }
        if e >= self.exp {
            let shift = (e - self.exp) as u32;
            if shift < 127 - self.width {
                self.mant += signed << shift;
            } else {
                // Addend dwarfs the window: it becomes the new value.
                self.mant = signed;
                self.exp = e;
            }
        } else {
            let shift = (self.exp - e) as u32;
            // Truncate the addend's low bits (arithmetic shift).
            let aligned = if shift >= 127 { 0 } else { signed >> shift };
            self.mant += aligned;
        }
        self.renormalise();
    }

    /// Add the exact product of two f32s.
    pub fn add_product_f32(&mut self, a: f32, b: f32) {
        let p = a as f64 * b as f64; // exact
        if p == 0.0 {
            return;
        }
        let (sign, e, m) = m3xu_fp::softfloat::decompose_f64(p);
        self.add_scaled(m, e - 52, sign);
    }

    /// Read out as f32 (round-to-nearest from the window).
    pub fn to_f32(&self) -> f32 {
        (self.mant as f64 * 2.0f64.powi(self.exp.max(-1000))) as f32
    }
}

/// Ablation: maximum ULP error of length-`k` FP32 dot products under a
/// `width`-bit accumulation window, over `trials` deterministic random
/// vectors. Width 48+ reproduces the paper's exact behaviour on per-MMA
/// dot products; narrower windows leak error.
pub fn accumulator_width_error(width: u32, k: usize, trials: u64) -> u64 {
    use crate::matrix::Matrix;
    let mut worst = 0u64;
    for t in 0..trials {
        let a = Matrix::<f32>::random(1, k, 1000 + t);
        let b = Matrix::<f32>::random(1, k, 2000 + t);
        let mut win = WindowedAccumulator::new(width);
        let mut exact = Kulisch::new();
        // A near-cancelling pair of large products: the running sum
        // transiently reaches ~2^10, so bits below the window's reach are
        // lost exactly when cancellation later exposes them.
        let big = 1024.0f32 * (1.0 + a.get(0, 0).abs());
        let pairs: [(f32, f32); 2] = [(big, 1.0), (-big, 1.0 + 2.0f32.powi(-20))];
        for (x, y) in pairs {
            win.add_product_f32(x, y);
            exact.add_product_f32(x, y);
        }
        for i in 0..k {
            // Plus ordinary terms with spread exponents.
            let scale = 2.0f32.powi(((t as i32 * 7 + i as i32 * 5) % 21) - 10);
            let (x, y) = (a.get(0, i) * scale, b.get(0, i));
            win.add_product_f32(x, y);
            exact.add_product_f32(x, y);
        }
        let err = m3xu_fp::ulp::ulp_distance_f32(win.to_f32(), exact.to_f32());
        worst = worst.max(err);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_reconstruct_operand_exactly() {
        for width in [6u32, 8, 12, 24] {
            for &x in &[std::f32::consts::PI, -1.5e-40, 2.5e37, 1.0 + f32::EPSILON] {
                let parts = decode_fp32_parts(x, width);
                let sum: f64 = parts.iter().map(|p| p.value()).sum();
                assert_eq!(sum, x as f64, "width {width}, x {x}");
                assert!(parts.iter().all(|p| p.mant < 1 << width));
            }
        }
    }

    #[test]
    fn generic_dot_is_exact_for_all_widths() {
        let a = [1.9999999f32, -3.25e-5, 7.0, 0.333_333_34];
        let b = [0.333_333_34_f32, 2.75e4, -0.125, 1.9999999];
        let mut exact = Kulisch::new();
        for i in 0..4 {
            exact.add_product_f32(a[i], b[i]);
        }
        let expect = exact.to_f32();
        for width in [6u32, 8, 12, 24] {
            let got = dot_fp32_generic(&a, &b, 0.0, width);
            assert_eq!(got.to_bits(), expect.to_bits(), "width {width}");
        }
    }

    #[test]
    fn width_12_matches_standard_plan() {
        // At width 12 the generic machinery is the paper's 2-way schedule,
        // lane for lane, and agrees with it bit for bit.
        assert_eq!(cyclic_lanes(2), assign::SPLIT.lanes);
        let a = [std::f32::consts::E, -1.25e-3];
        let b = [std::f32::consts::PI, 8.5e2];
        let generic = dot_fp32_generic(&a, &b, 0.5, 12);
        let halves = |v: &[f32]| -> Vec<BufferEntry> {
            v.iter()
                .flat_map(|&x| <[_; 2]>::from(crate::buffer::decode_fp32(x)))
                .collect()
        };
        let mut dpu = DotProductUnit::new();
        dpu.seed_real(0.5);
        for step in &assign::plan(&assign::SPLIT, &halves(&a), &halves(&b)) {
            dpu.execute_step(step);
        }
        assert_eq!(generic.to_bits(), dpu.read_real_f32().to_bits());
    }

    #[test]
    fn cyclic_schedule_covers_all_pairs() {
        let plan = plan_fp32_generic(&[1.5], &[2.5], 8); // 3 parts
        assert_eq!(plan.len(), 3);
        let mut seen = std::collections::HashSet::new();
        for step in &plan {
            assert_eq!(step.len(), 3);
            for op in step {
                // Identify parts by their pow (unique per part).
                seen.insert((op.a.pow, op.b.pow));
            }
        }
        assert_eq!(seen.len(), 9, "all 9 partial products covered once");
    }

    #[test]
    fn split_cost_table_matches_corollaries() {
        let sweep = split_cost_sweep();
        let w12 = sweep.iter().find(|s| s.width == 12).unwrap();
        assert_eq!((w12.parts, w12.steps, w12.products), (2, 2, 4));
        assert_eq!(w12.relative_throughput, 0.25); // Corollary 2
        let w8 = sweep.iter().find(|s| s.width == 8).unwrap();
        assert_eq!((w8.parts, w8.products), (3, 9));
        let w24 = sweep.iter().find(|s| s.width == 24).unwrap();
        assert_eq!(w24.relative_throughput, 1.0); // native FP32
    }

    #[test]
    fn wide_window_is_exact_narrow_window_leaks() {
        let exact_width = accumulator_width_error(56, 8, 30);
        assert_eq!(
            exact_width, 0,
            "56-bit window must be ulp-exact on k=8 dots"
        );
        let narrow = accumulator_width_error(24, 8, 30);
        assert!(narrow > 0, "a 24-bit window should show error");
        // Monotone-ish: spot-check that wider is never dramatically worse.
        let e32 = accumulator_width_error(32, 8, 30);
        let e48 = accumulator_width_error(48, 8, 30);
        assert!(
            e48 <= e32.max(1),
            "48-bit ({e48}) should beat 32-bit ({e32})"
        );
    }

    #[test]
    fn windowed_accumulator_basics() {
        let mut w = WindowedAccumulator::new(48);
        w.add_product_f32(3.0, 4.0);
        assert_eq!(w.to_f32(), 12.0);
        w.add_product_f32(-3.0, 4.0);
        assert_eq!(w.to_f32(), 0.0);
        w.add_product_f32(1.5, 2.0);
        w.add_product_f32(0.25, 0.5);
        assert_eq!(w.to_f32(), 3.125);
    }
}
