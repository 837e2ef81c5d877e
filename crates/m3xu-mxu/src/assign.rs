//! The data-assignment stage — Fig. 3 of the paper.
//!
//! M3XU "controls the dataflow of each step of an operation via multiplexers
//! and buffers that store the inputs of each step". This module is that
//! stage, written once: one `const` table per schedule, listing per step
//! and per multiplier lane of one element the `a` buffer entry, the `b`
//! buffer entry, the negate bit and the target accumulator ([`Lane`]).
//! Every engine runs these tables — the tile MMAs of [`crate::mma`], the
//! packed scalar element bodies, [`crate::generic`]'s `p`-way plan — and
//! `m3xu-synth` sizes the assignment multiplexers from them
//! ([`Schedule::b_fan_in`]).
//!
//! * [`NATIVE`] (FP16/BF16/TF32): one step, one lane per element.
//! * [`SPLIT`] (M3XU FP32, §IV-A; FP64 on 27-bit halves, §IV-C): two steps
//!   over the hi/lo halves. Step 1 pairs high with high and low with low
//!   (Eq. 6: `A'_H·B'_H + A'_L·B'_L`); step 2 flips the `b` halves (Eq. 7/8:
//!   the cross products). Two lanes per element — which is why a
//!   `M x N x K` FP16 unit covers `M x N x K/2` in FP32 (Observation 1).
//! * [`SPLIT_FAST`]: [`SPLIT`] without lo·lo, the fast FP32 mode.
//! * [`SLICES5`]: emulated FP64, the same cyclic rule over five 12-bit
//!   slices, 25 lanes.
//! * [`COMPLEX`] (FP32C, §IV-B; FP64C): four steps over
//!   `[re_hi, re_lo, im_hi, im_lo]`. Steps 1–2 compute the real part
//!   (`A_R·B_R - A_I·B_I`, the subtraction realised by flipping the sign
//!   bit of the imaginary-imaginary lanes); steps 3–4 swap re/im on the `b`
//!   side to compute the imaginary part (`A_R·B_I + A_I·B_R`). Four lanes
//!   per complex element — `K/4` relative to the FP16 shape.
//!
//! In every table lane `l` multiplies `a` entry `l` in every step: only the
//! `b` multiplexers switch between steps, so the `a` operands stay resident
//! and a lane's steps can be laid out in time.

use crate::buffer::BufferEntry;
use crate::dpu::{LaneOp, Target};
use crate::modes::MxuMode;
use m3xu_fp::split::FP64_SLICES_EMULATED;

/// One multiplier lane of one step of an element's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lane {
    /// The step the lane issues in (0-based).
    pub step: usize,
    /// The `a` buffer entry the lane multiplies — its lane index.
    pub a: usize,
    /// The `b` buffer entry its multiplexer selects.
    pub b: usize,
    /// Flip the product's sign bit (FP32C's imaginary-imaginary lanes).
    pub negate: bool,
    /// The accumulator the product feeds.
    pub target: Target,
}

impl Lane {
    /// This lane's work item over one element's decoded `a` and `b`
    /// entries.
    #[inline]
    pub fn op(&self, a: &[BufferEntry], b: &[BufferEntry]) -> LaneOp {
        LaneOp {
            a: a[self.a],
            b: b[self.b],
            negate: self.negate,
            target: self.target,
        }
    }
}

/// A data-assignment schedule: the lanes of one element, in step order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule<'a> {
    /// Buffer entries per element (one more than the highest `a` entry).
    pub entries: usize,
    /// Every lane of every step, step by step.
    pub lanes: &'a [Lane],
}

impl<'a> Schedule<'a> {
    /// The schedule of `lanes` (listed in step order).
    pub const fn new(lanes: &'a [Lane]) -> Self {
        let mut entries = 0;
        let mut i = 0;
        while i < lanes.len() {
            if lanes[i].a >= entries {
                entries = lanes[i].a + 1;
            }
            i += 1;
        }
        Schedule { entries, lanes }
    }

    /// Steps per element.
    pub fn steps(&self) -> usize {
        self.lanes.last().map_or(0, |l| l.step + 1)
    }

    /// The fan-in of each lane's `b` multiplexer: the most distinct `b`
    /// entries one lane selects over the steps.
    pub fn b_fan_in(&self) -> usize {
        let mask = |a| {
            self.lanes
                .iter()
                .filter(|l| l.a == a)
                .fold(0u64, |m, l| m | 1 << l.b)
        };
        (0..self.entries)
            .map(|a| mask(a).count_ones() as usize)
            .max()
            .unwrap_or(0)
    }
}

/// The cyclic rule of Fig. 3(a) over `n` entries: in step `step`, lane
/// `lane` multiplies `a` entry `lane` by `b` entry `(lane + step) mod n`.
/// Over `n` steps it covers every `(a, b)` pair once; at `n = 2` it is the
/// paper's flip.
pub const fn cyclic_lane(n: usize, step: usize, lane: usize) -> Lane {
    Lane {
        step,
        a: lane,
        b: (lane + step) % n,
        negate: false,
        target: Target::Real,
    }
}

/// All `n` steps of [`cyclic_lane`]; with `truncated`, only the lanes whose
/// entry indices sum below `n` (at `n = 2`, all but lo·lo).
const fn cyclic<const L: usize>(n: usize, truncated: bool) -> [Lane; L] {
    let mut out = [cyclic_lane(1, 0, 0); L];
    let mut i = 0;
    let mut step = 0;
    while step < n {
        let mut lane = 0;
        while lane < n {
            let l = cyclic_lane(n, step, lane);
            if !truncated || l.a + l.b < n {
                out[i] = l;
                i += 1;
            }
            lane += 1;
        }
        step += 1;
    }
    assert!(i == L, "table length disagrees with the rule");
    out
}

/// The Fig. 3(c) rule over `[re_hi, re_lo, im_hi, im_lo]`: in step `s`,
/// lane `l` reads `b` entry `l XOR s`. Steps 1–2 feed the real accumulator
/// and negate the imaginary-imaginary lanes; steps 3–4 feed the imaginary
/// one ("M3XU reverses the flip signed bit back").
const fn complex() -> [Lane; 16] {
    let mut out = [cyclic_lane(1, 0, 0); 16];
    let mut i = 0;
    while i < 16 {
        let (step, lane) = (i / 4, i % 4);
        let real = step < 2;
        out[i] = Lane {
            step,
            a: lane,
            b: lane ^ step,
            negate: real && lane >= 2,
            target: if real { Target::Real } else { Target::Imag },
        };
        i += 1;
    }
    out
}

const SLICES: usize = FP64_SLICES_EMULATED.slices() as usize;
const NATIVE_LANES: [Lane; 1] = cyclic(1, false);
const SPLIT_LANES: [Lane; 4] = cyclic(2, false);
const SPLIT_FAST_LANES: [Lane; 3] = cyclic(2, true);
const SLICES5_LANES: [Lane; SLICES * SLICES] = cyclic(SLICES, false);
const COMPLEX_LANES: [Lane; 16] = complex();

/// FP16, BF16 and TF32: one step, lane `(0, 0)`.
pub const NATIVE: Schedule<'static> = Schedule::new(&NATIVE_LANES);
/// M3XU FP32 and FP64 (Fig. 3a): step 1 `(0,0) (1,1)`, step 2 `(0,1) (1,0)`.
pub const SPLIT: Schedule<'static> = Schedule::new(&SPLIT_LANES);
/// Fast FP32: [`SPLIT`] without lo·lo — step 1 `(0,0)`, step 2 `(0,1) (1,0)`.
pub const SPLIT_FAST: Schedule<'static> = Schedule::new(&SPLIT_FAST_LANES);
/// Emulated FP64: the cyclic rule over the five slices, 25 lanes.
pub const SLICES5: Schedule<'static> = Schedule::new(&SLICES5_LANES);
/// FP32C and FP64C (Fig. 3c): 16 lanes over four steps.
pub const COMPLEX: Schedule<'static> = Schedule::new(&COMPLEX_LANES);

/// The schedule `mode` runs.
pub const fn schedule(mode: MxuMode) -> Schedule<'static> {
    match mode {
        MxuMode::Fp16 | MxuMode::Bf16 | MxuMode::Tf32 => NATIVE,
        MxuMode::M3xuFp32 | MxuMode::M3xuFp64 => SPLIT,
        MxuMode::M3xuFp32Fast => SPLIT_FAST,
        MxuMode::M3xuFp64Emu => SLICES5,
        MxuMode::M3xuFp32c | MxuMode::M3xuFp64c => COMPLEX,
    }
}

/// A per-dot-product plan: one `Vec<LaneOp>` per step.
pub type StepPlan = Vec<Vec<LaneOp>>;

/// Lay `schedule` over a dot product's decoded operands (`a` and `b` hold
/// [`Schedule::entries`] entries per element): each step lists every
/// element's lanes in turn.
pub fn plan(schedule: &Schedule, a: &[BufferEntry], b: &[BufferEntry]) -> StepPlan {
    assert_eq!(a.len(), b.len());
    let n = schedule.entries;
    let mut steps = vec![Vec::new(); schedule.steps()];
    for (x, y) in a.chunks_exact(n).zip(b.chunks_exact(n)) {
        for l in schedule.lanes {
            steps[l.step].push(l.op(x, y));
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{decode_fp32, decode_fp64, decode_narrow, decode_tf32};
    use crate::dpu::DotProductUnit;
    use m3xu_fp::complex::Complex;
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

    fn halves<T: Copy>(
        v: &[T],
        decode: impl Fn(T) -> (BufferEntry, BufferEntry),
    ) -> Vec<BufferEntry> {
        v.iter().flat_map(|&x| <[_; 2]>::from(decode(x))).collect()
    }

    fn fp32(v: &[f32]) -> Vec<BufferEntry> {
        halves(v, decode_fp32)
    }

    fn c32(v: &[Complex<f32>]) -> Vec<BufferEntry> {
        v.iter().flat_map(|x| fp32(&[x.re, x.im])).collect()
    }

    #[test]
    fn tables_pin_the_figure_3_schedules() {
        for mode in MxuMode::ALL {
            let s = schedule(mode);
            // Lane `l` keeps `a` entry `l` in every step: only the `b`
            // multiplexers switch.
            for step in 0..s.steps() {
                let a: Vec<usize> = s
                    .lanes
                    .iter()
                    .filter(|l| l.step == step)
                    .map(|l| l.a)
                    .collect();
                assert_eq!(a, (0..a.len()).collect::<Vec<_>>(), "{mode} step {step}");
            }
            let mut pairs: Vec<_> = s.lanes.iter().map(|l| (l.a, l.b)).collect();
            pairs.sort();
            pairs.dedup();
            assert_eq!(pairs.len(), s.lanes.len(), "{mode}: a repeated (a, b) pair");
            // Lanes per element against closed forms: `terms_per_mac`
            // is derived from the table.
            let n = s.entries as u64;
            let lanes = match mode {
                MxuMode::M3xuFp32Fast => n * (n + 1) / 2,
                _ if mode.is_complex() => 4 * 2 * 2,
                _ => n * n,
            };
            assert_eq!(mode.terms_per_mac(), lanes, "{mode}");
        }
        assert_eq!(
            MxuMode::ALL.map(|m| schedule(m).entries),
            [1, 1, 1, 2, 2, 4, 2, 5, 4]
        );
        // SPLIT_FAST is SPLIT without lo·lo.
        let fast: Vec<Lane> = SPLIT
            .lanes
            .iter()
            .filter(|l| (l.a, l.b) != (1, 1))
            .copied()
            .collect();
        assert_eq!(SPLIT_FAST.lanes, fast);
        // COMPLEX: steps 1-2 into Real with the im·im lanes negated,
        // steps 3-4 into Imag with none.
        for l in COMPLEX.lanes {
            let real = l.step < 2;
            assert_eq!(l.target == Target::Real, real, "{l:?}");
            assert_eq!(l.negate, real && l.a >= 2 && l.b >= 2, "{l:?}");
        }
        assert_eq!(COMPLEX.lanes.iter().filter(|l| l.negate).count(), 4);
        // The assignment multiplexers: 2-way for FP32, 4-way with FP32C.
        assert_eq!((SPLIT.b_fan_in(), COMPLEX.b_fan_in()), (2, 4));
        assert_eq!((NATIVE.b_fan_in(), SPLIT_FAST.b_fan_in()), (1, 2));
        assert_eq!(
            (SPLIT.steps(), SPLIT_FAST.steps(), COMPLEX.steps()),
            (2, 2, 4)
        );
    }

    #[test]
    fn native_plan_shape() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [0.5, 0.5, 0.5, 0.5];
        let narrow = |v: &[f64]| {
            v.iter()
                .map(|&x| decode_narrow(x, FP16))
                .collect::<Vec<_>>()
        };
        let plan = plan(&NATIVE, &narrow(&a), &narrow(&b));
        assert_eq!(plan.len(), 1); // one step
        assert_eq!(plan[0].len(), 4); // one lane per element
        let (re, _) = run_plan(&plan, 0.0, 0.0);
        assert_eq!(re, 5.0);
    }

    #[test]
    fn fp32_plan_shape_and_result() {
        let a = [std::f32::consts::PI, -1.5e-3, 7.25, 0.0];
        let b = [std::f32::consts::E, 2.75e3, -0.125, 9.0];
        let plan = plan(&SPLIT, &fp32(&a), &fp32(&b));
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
        let plan = plan(&SPLIT, &fp32(&[3.0]), &fp32(&[5.0]));
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
        let plan = plan(&COMPLEX, &c32(&a), &c32(&b));
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
    fn fp32_with_accumulate_input() {
        let plan = plan(&SPLIT, &fp32(&[2.0]), &fp32(&[3.0]));
        let (re, _) = run_plan(&plan, 100.0, 0.0);
        assert_eq!(re, 106.0);
    }

    #[test]
    fn fp64_plan_exact_single_product() {
        let x = std::f64::consts::LN_2;
        let y = std::f64::consts::SQRT_2;
        let plan = plan(
            &SPLIT,
            &halves(&[x], decode_fp64),
            &halves(&[y], decode_fp64),
        );
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
        let (x, y) = (
            Complex::new(std::f64::consts::PI, -0.1),
            Complex::new(1.0 / 3.0, 7.0),
        );
        let plan = plan(
            &COMPLEX,
            &halves(&[x.re, x.im], decode_fp64),
            &halves(&[y.re, y.im], decode_fp64),
        );
        assert_eq!(plan.len(), 4);
        let mut dpu = DotProductUnit::new();
        for step in &plan {
            dpu.execute_step(step);
        }
        // Exact-accumulation reference via Kulisch.
        let mut racc = m3xu_fp::Kulisch::new();
        racc.add_product_f64(x.re, y.re);
        racc.add_product_f64(-x.im, y.im);
        let mut iacc = m3xu_fp::Kulisch::new();
        iacc.add_product_f64(x.re, y.im);
        iacc.add_product_f64(x.im, y.re);
        assert_eq!(dpu.read_real_f64(), racc.to_f64());
        assert_eq!(dpu.read_imag_f64(), iacc.to_f64());
    }

    #[test]
    fn tf32_plan_loses_precision() {
        let a = [1.0f32 + f32::EPSILON];
        let b = [1.0f32];
        let tf32 = |v: &[f32]| v.iter().map(|&x| decode_tf32(x)).collect::<Vec<_>>();
        let (re, _) = run_plan(&plan(&NATIVE, &tf32(&a), &tf32(&b)), 0.0, 0.0);
        assert_eq!(re, 1.0); // the EPSILON was rounded away at the buffer
        let (re32, _) = run_plan(&plan(&SPLIT, &fp32(&a), &fp32(&b)), 0.0, 0.0);
        assert_eq!(re32, 1.0 + f32::EPSILON); // M3XU keeps it
    }
}
