//! The data-assignment stage — Fig. 3 of the paper.
//!
//! M3XU "controls the dataflow of each step of an operation via multiplexers
//! and buffers that store the inputs of each step". This module is that
//! stage: given one dot product's operand vectors, it produces the per-step
//! lane schedules ([`LaneOp`] lists) the dot-product unit executes.
//!
//! * **Native mode** (FP16/BF16/TF32): one step, one lane per `k` element.
//! * **M3XU FP32** (§IV-A): two steps. Step 1 pairs high-with-high and
//!   low-with-low halves (Eq. 6: `A'_H·B'_H + A'_L·B'_L`); step 2 flips the
//!   `b` halves (Eq. 7/8: the cross products). Two lanes per `k` element per
//!   step — which is why a `M x N x K` FP16 unit covers `M x N x K/2` in
//!   FP32 (Observation 1).
//! * **M3XU FP32C** (§IV-B): four steps. Steps 1–2 compute the real part
//!   (`A_R·B_R - A_I·B_I`, the subtraction realised by flipping the sign
//!   bit of imaginary-imaginary lanes); steps 3–4 compute the imaginary
//!   part (`A_R·B_I + A_I·B_R`). Four lanes per complex `k` element per
//!   step — `K/4` relative to the FP16 shape.
//! * **FP64 / FP64C** (§IV-C): same swapping policy on 27-bit halves.

use crate::buffer::{decode_fp32, decode_fp64, decode_narrow, BufferEntry};
use crate::dpu::{LaneOp, Target};
use m3xu_fp::complex::Complex;
use m3xu_fp::format::FloatFormat;

/// A per-dot-product schedule: one `Vec<LaneOp>` per step.
pub type StepPlan = Vec<Vec<LaneOp>>;

#[inline]
fn lane(a: BufferEntry, b: BufferEntry, negate: bool, target: Target) -> LaneOp {
    LaneOp {
        a,
        b,
        negate,
        target,
    }
}

/// Native low-precision mode: a single step with one lane per element.
/// Values must be exactly representable in `fmt` (the memory system
/// delivered them in that format).
pub fn plan_native(a: &[f64], b: &[f64], fmt: FloatFormat) -> StepPlan {
    assert_eq!(a.len(), b.len());
    let step = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| {
            lane(
                decode_narrow(x, fmt),
                decode_narrow(y, fmt),
                false,
                Target::Real,
            )
        })
        .collect();
    vec![step]
}

/// M3XU FP32 mode: the two-step schedule of Fig. 3(a).
///
/// Each original element occupies two adjacent lanes (the `A''` interleaving
/// of Eq. 4). In step 1 the `b` multiplexers select matching halves
/// (`B''`, Eq. 5); in step 2 they flip (`B'''`, Eq. 7).
pub fn plan_fp32(a: &[f32], b: &[f32]) -> StepPlan {
    assert_eq!(a.len(), b.len());
    let mut step1 = Vec::with_capacity(2 * a.len());
    let mut step2 = Vec::with_capacity(2 * a.len());
    for (&x, &y) in a.iter().zip(b) {
        let (xh, xl) = decode_fp32(x);
        let (yh, yl) = decode_fp32(y);
        // Step 1: A'_H·B'_H (weight 2^24) and A'_L·B'_L (weight 2^0).
        step1.push(lane(xh, yh, false, Target::Real));
        step1.push(lane(xl, yl, false, Target::Real));
        // Step 2: A'_H·B'_L and A'_L·B'_H (both weight 2^12).
        step2.push(lane(xh, yl, false, Target::Real));
        step2.push(lane(xl, yh, false, Target::Real));
    }
    vec![step1, step2]
}

/// M3XU FP32C mode: the four-step schedule of Fig. 3(c).
///
/// Each complex element occupies four adjacent lanes
/// (`[a_R^H, a_R^L, a_I^H, a_I^L]`). Steps 1–2 produce the real output
/// (imaginary-imaginary lanes carry a flipped sign bit); steps 3–4 swap the
/// real/imaginary parts of the `b` input across the four lanes to produce
/// the imaginary output.
pub fn plan_fp32c(a: &[Complex<f32>], b: &[Complex<f32>]) -> StepPlan {
    assert_eq!(a.len(), b.len());
    let mut steps: [Vec<LaneOp>; 4] = Default::default();
    for (&x, &y) in a.iter().zip(b) {
        let (xrh, xrl) = decode_fp32(x.re);
        let (xih, xil) = decode_fp32(x.im);
        let (yrh, yrl) = decode_fp32(y.re);
        let (yih, yil) = decode_fp32(y.im);
        // Step 1 (real): a_R·b_R high/low pairs, minus a_I·b_I pairs.
        steps[0].push(lane(xrh, yrh, false, Target::Real));
        steps[0].push(lane(xrl, yrl, false, Target::Real));
        steps[0].push(lane(xih, yih, true, Target::Real));
        steps[0].push(lane(xil, yil, true, Target::Real));
        // Step 2 (real): cross halves, same subtraction pattern.
        steps[1].push(lane(xrh, yrl, false, Target::Real));
        steps[1].push(lane(xrl, yrh, false, Target::Real));
        steps[1].push(lane(xih, yil, true, Target::Real));
        steps[1].push(lane(xil, yih, true, Target::Real));
        // Step 3 (imag): a_R·b_I + a_I·b_R, matching halves; the sign flip
        // is reversed ("M3XU reverses the flip signed bit back").
        steps[2].push(lane(xrh, yih, false, Target::Imag));
        steps[2].push(lane(xrl, yil, false, Target::Imag));
        steps[2].push(lane(xih, yrh, false, Target::Imag));
        steps[2].push(lane(xil, yrl, false, Target::Imag));
        // Step 4 (imag): cross halves.
        steps[3].push(lane(xrh, yil, false, Target::Imag));
        steps[3].push(lane(xrl, yih, false, Target::Imag));
        steps[3].push(lane(xih, yrl, false, Target::Imag));
        steps[3].push(lane(xil, yrh, false, Target::Imag));
    }
    steps.into_iter().collect()
}

/// FP64 extension mode (§IV-C): the FP32 swapping policy on 27-bit halves.
pub fn plan_fp64(a: &[f64], b: &[f64]) -> StepPlan {
    assert_eq!(a.len(), b.len());
    let mut step1 = Vec::with_capacity(2 * a.len());
    let mut step2 = Vec::with_capacity(2 * a.len());
    for (&x, &y) in a.iter().zip(b) {
        let (xh, xl) = decode_fp64(x);
        let (yh, yl) = decode_fp64(y);
        step1.push(lane(xh, yh, false, Target::Real));
        step1.push(lane(xl, yl, false, Target::Real));
        step2.push(lane(xh, yl, false, Target::Real));
        step2.push(lane(xl, yh, false, Target::Real));
    }
    vec![step1, step2]
}

/// FP64C extension mode: the FP32C schedule on 27-bit halves
/// ("without sign bit flipping" applies to the plain FP64 case; the complex
/// variant keeps the imaginary-imaginary subtraction).
pub fn plan_fp64c(a: &[Complex<f64>], b: &[Complex<f64>]) -> StepPlan {
    assert_eq!(a.len(), b.len());
    let mut steps: [Vec<LaneOp>; 4] = Default::default();
    for (&x, &y) in a.iter().zip(b) {
        let (xrh, xrl) = decode_fp64(x.re);
        let (xih, xil) = decode_fp64(x.im);
        let (yrh, yrl) = decode_fp64(y.re);
        let (yih, yil) = decode_fp64(y.im);
        steps[0].push(lane(xrh, yrh, false, Target::Real));
        steps[0].push(lane(xrl, yrl, false, Target::Real));
        steps[0].push(lane(xih, yih, true, Target::Real));
        steps[0].push(lane(xil, yil, true, Target::Real));
        steps[1].push(lane(xrh, yrl, false, Target::Real));
        steps[1].push(lane(xrl, yrh, false, Target::Real));
        steps[1].push(lane(xih, yil, true, Target::Real));
        steps[1].push(lane(xil, yih, true, Target::Real));
        steps[2].push(lane(xrh, yih, false, Target::Imag));
        steps[2].push(lane(xrl, yil, false, Target::Imag));
        steps[2].push(lane(xih, yrh, false, Target::Imag));
        steps[2].push(lane(xil, yrl, false, Target::Imag));
        steps[3].push(lane(xrh, yil, false, Target::Imag));
        steps[3].push(lane(xrl, yih, false, Target::Imag));
        steps[3].push(lane(xih, yrl, false, Target::Imag));
        steps[3].push(lane(xil, yrh, false, Target::Imag));
    }
    steps.into_iter().collect()
}

/// TF32 Tensor-Core mode: FP32 operands rounded to TF32 at the buffer
/// (the baseline behaviour M3XU improves on) — one step.
pub fn plan_tf32(a: &[f32], b: &[f32]) -> StepPlan {
    assert_eq!(a.len(), b.len());
    let step = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| {
            lane(
                crate::buffer::decode_tf32(x),
                crate::buffer::decode_tf32(y),
                false,
                Target::Real,
            )
        })
        .collect();
    vec![step]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpu::DotProductUnit;
    use m3xu_fp::format::FP16;

    fn run_plan(plan: &StepPlan, c_re: f64, c_im: f64) -> (f32, f32) {
        let mut dpu = DotProductUnit::new();
        dpu.seed_real(c_re);
        dpu.seed_imag(c_im);
        for step in plan {
            dpu.execute_step(step);
        }
        (dpu.read_real_f32(), dpu.read_imag_f32())
    }

    #[test]
    fn native_plan_shape() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [0.5, 0.5, 0.5, 0.5];
        let plan = plan_native(&a, &b, FP16);
        assert_eq!(plan.len(), 1); // one step
        assert_eq!(plan[0].len(), 4); // one lane per element
        let (re, _) = run_plan(&plan, 0.0, 0.0);
        assert_eq!(re, 5.0);
    }

    #[test]
    fn fp32_plan_shape_and_result() {
        let a = [std::f32::consts::PI, -1.5e-3, 7.25, 0.0];
        let b = [std::f32::consts::E, 2.75e3, -0.125, 9.0];
        let plan = plan_fp32(&a, &b);
        assert_eq!(plan.len(), 2); // two steps (Observation 1)
        assert_eq!(plan[0].len(), 8); // 2 lanes per element
        assert_eq!(plan[1].len(), 8);
        let (re, _) = run_plan(&plan, 0.0, 0.0);
        // Exact-dot-product reference.
        let expect: f64 = a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
        assert_eq!(re, expect as f32);
    }

    #[test]
    fn fp32_step1_lanes_use_matching_halves() {
        let plan = plan_fp32(&[3.0], &[5.0]);
        // Step 1 lane 0 multiplies the two high halves: both mantissa
        // fields have their hidden-1 (bit 11) set.
        assert_eq!(plan[0][0].a.mant >> 11, 1);
        assert_eq!(plan[0][0].b.mant >> 11, 1);
        // Step 2 lane 0 pairs high with low.
        assert_eq!(plan[1][0].a.mant >> 11, 1);
        assert_eq!(plan[1][0].b.mant >> 11, 0);
    }

    #[test]
    fn fp32c_plan_shape_and_result() {
        let a = [Complex::new(1.5f32, -2.5), Complex::new(0.25, 0.75)];
        let b = [Complex::new(-3.0f32, 1.0), Complex::new(2.0, -4.0)];
        let plan = plan_fp32c(&a, &b);
        assert_eq!(plan.len(), 4); // four steps (Observation 3 + FP32)
        for step in &plan {
            assert_eq!(step.len(), 8); // 4 lanes per complex element
        }
        let (re, im) = run_plan(&plan, 0.0, 0.0);
        let mut ere = 0.0f64;
        let mut eim = 0.0f64;
        for (x, y) in a.iter().zip(&b) {
            ere += x.re as f64 * y.re as f64 - x.im as f64 * y.im as f64;
            eim += x.re as f64 * y.im as f64 + x.im as f64 * y.re as f64;
        }
        assert_eq!(re, ere as f32);
        assert_eq!(im, eim as f32);
    }

    #[test]
    fn fp32c_imag_imag_lanes_are_negated() {
        let plan = plan_fp32c(&[Complex::new(1.0f32, 2.0)], &[Complex::new(3.0f32, 4.0)]);
        // Real steps: exactly 2 of 4 lanes negated (the a_I·b_I pairs).
        for step in &plan[..2] {
            assert_eq!(step.iter().filter(|l| l.negate).count(), 2);
            assert!(step.iter().all(|l| l.target == Target::Real));
        }
        // Imag steps: no negation.
        for step in &plan[2..] {
            assert!(step.iter().all(|l| !l.negate));
            assert!(step.iter().all(|l| l.target == Target::Imag));
        }
    }

    #[test]
    fn fp32_with_accumulate_input() {
        let plan = plan_fp32(&[2.0f32], &[3.0f32]);
        let (re, _) = run_plan(&plan, 100.0, 0.0);
        assert_eq!(re, 106.0);
    }

    #[test]
    fn fp64_plan_exact_single_product() {
        let x = std::f64::consts::LN_2;
        let y = std::f64::consts::SQRT_2;
        let plan = plan_fp64(&[x], &[y]);
        assert_eq!(plan.len(), 2);
        let mut dpu = DotProductUnit::new();
        for step in &plan {
            dpu.execute_step(step);
        }
        // The exact product rounded once must equal the IEEE f64 product
        // (which is the correctly rounded exact product by definition).
        assert_eq!(dpu.read_real_f64(), x * y);
    }

    #[test]
    fn fp64c_plan_matches_complex_reference() {
        let a = [Complex::new(std::f64::consts::PI, -0.1)];
        let b = [Complex::new(1.0 / 3.0, 7.0)];
        let plan = plan_fp64c(&a, &b);
        assert_eq!(plan.len(), 4);
        let mut dpu = DotProductUnit::new();
        for step in &plan {
            dpu.execute_step(step);
        }
        // Exact-accumulation reference via Kulisch.
        let mut re = m3xu_fp::Kulisch::new();
        re.add_product_f64(a[0].re, b[0].re);
        let mut racc = re;
        racc.add_product_f64(-a[0].im, b[0].im);
        let mut iacc = m3xu_fp::Kulisch::new();
        iacc.add_product_f64(a[0].re, b[0].im);
        iacc.add_product_f64(a[0].im, b[0].re);
        assert_eq!(dpu.read_real_f64(), racc.to_f64());
        assert_eq!(dpu.read_imag_f64(), iacc.to_f64());
    }

    #[test]
    fn tf32_plan_loses_precision() {
        let a = [1.0f32 + f32::EPSILON];
        let b = [1.0f32];
        let plan = plan_tf32(&a, &b);
        let (re, _) = run_plan(&plan, 0.0, 0.0);
        assert_eq!(re, 1.0); // the EPSILON was rounded away at the buffer
        let plan32 = plan_fp32(&a, &b);
        let (re32, _) = run_plan(&plan32, 0.0, 0.0);
        assert_eq!(re32, 1.0 + f32::EPSILON); // M3XU keeps it
    }
}
