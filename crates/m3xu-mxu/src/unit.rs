//! The MXU device: fragment-shaped MMA execution with cycle accounting.
//!
//! [`Mxu`] models one multi-mode matrix unit (one Tensor Core's worth of
//! dot-product units) executing a stream of MMA instructions. It tracks
//! per-mode instruction/step/cycle counters that the GPU-level performance
//! model consumes, and enforces the fragment shapes each mode supports.
//!
//! [`NativeFp32Mxu`] is the *reference-expensive* design the paper
//! synthesises for comparison: full 24-bit multipliers, single-step FP32,
//! no FP32C support, 3.55x the area (Table III).

use crate::matrix::Matrix;
use crate::mma::{self, Element, MmaShape, MmaStats};
use crate::modes::{MxuMode, PipelineVariant};
use m3xu_fp::complex::Complex;

/// Static configuration of one MXU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MxuConfig {
    /// Native FP16 fragment shape (Ampere baseline: 8 x 8 x 4).
    pub fp16_shape: MmaShape,
    /// Pipeline organisation of the data-assignment stage.
    pub pipeline: PipelineVariant,
}

impl Default for MxuConfig {
    fn default() -> Self {
        MxuConfig {
            fp16_shape: MmaShape::BASELINE_FP16,
            pipeline: PipelineVariant::Pipelined,
        }
    }
}

/// Per-mode execution counters.
#[derive(Debug, Clone, Default)]
pub struct MxuCounters {
    per_mode: Vec<(MxuMode, MmaStats)>,
    /// Issue-slot cycles consumed (one per step; the pipelined variant
    /// overlaps data assignment with compute, so assignment adds latency
    /// but not issue cycles).
    pub issue_cycles: u64,
}

impl MxuCounters {
    /// Counters for `mode` (zeros if never used).
    pub fn for_mode(&self, mode: MxuMode) -> MmaStats {
        self.per_mode
            .iter()
            .find(|(m, _)| *m == mode)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }

    pub(crate) fn record(&mut self, mode: MxuMode, stats: &MmaStats) {
        if let Some((_, s)) = self.per_mode.iter_mut().find(|(m, _)| *m == mode) {
            s.merge(stats);
        } else {
            let mut s = MmaStats::default();
            s.merge(stats);
            self.per_mode.push((mode, s));
        }
        self.issue_cycles += stats.steps;
    }

    /// Total MMA instructions across all modes.
    pub fn total_instructions(&self) -> u64 {
        self.per_mode.iter().map(|(_, s)| s.instructions).sum()
    }
}

/// One multi-mode matrix unit.
#[derive(Debug, Clone, Default)]
pub struct Mxu {
    /// Static configuration.
    pub config: MxuConfig,
    /// Execution counters.
    pub counters: MxuCounters,
}

impl Mxu {
    /// A unit with the given configuration.
    pub fn new(config: MxuConfig) -> Self {
        Mxu {
            config,
            counters: MxuCounters::default(),
        }
    }

    /// The fragment shape this unit executes in `mode`.
    pub fn shape(&self, mode: MxuMode) -> MmaShape {
        self.config.fp16_shape.for_mode(mode)
    }

    /// One MMA in `mode`, checked against the unit's fragment shape and
    /// recorded in its counters.
    fn issue<T: Element>(
        &mut self,
        mode: MxuMode,
        a: &Matrix<T>,
        b: &Matrix<T>,
        c: &Matrix<T>,
    ) -> Matrix<T> {
        let s = self.shape(mode);
        assert_eq!(
            (a.rows(), a.cols(), b.cols()),
            (s.m, s.k, s.n),
            "fragment shape mismatch for {mode}: unit expects {s}"
        );
        let mut stats = MmaStats::default();
        let d = mma::mma(mode, a, b, c, &mut stats);
        self.counters.record(mode, &stats);
        d
    }

    /// One FP16-mode MMA (values must be FP16-representable).
    pub fn mma_fp16(&mut self, a: &Matrix<f32>, b: &Matrix<f32>, c: &Matrix<f32>) -> Matrix<f32> {
        self.issue(MxuMode::Fp16, a, b, c)
    }

    /// One BF16-mode MMA.
    pub fn mma_bf16(&mut self, a: &Matrix<f32>, b: &Matrix<f32>, c: &Matrix<f32>) -> Matrix<f32> {
        self.issue(MxuMode::Bf16, a, b, c)
    }

    /// One TF32-mode MMA (FP32 operands, rounded to TF32 at the buffers).
    pub fn mma_tf32(&mut self, a: &Matrix<f32>, b: &Matrix<f32>, c: &Matrix<f32>) -> Matrix<f32> {
        self.issue(MxuMode::Tf32, a, b, c)
    }

    /// One M3XU FP32 MMA — the paper's contribution, bit-exact.
    pub fn mma_fp32(&mut self, a: &Matrix<f32>, b: &Matrix<f32>, c: &Matrix<f32>) -> Matrix<f32> {
        self.issue(MxuMode::M3xuFp32, a, b, c)
    }

    /// One M3XU FP32C MMA.
    pub fn mma_fp32c(
        &mut self,
        a: &Matrix<Complex<f32>>,
        b: &Matrix<Complex<f32>>,
        c: &Matrix<Complex<f32>>,
    ) -> Matrix<Complex<f32>> {
        self.issue(MxuMode::M3xuFp32c, a, b, c)
    }

    /// One M3XU FP64 MMA (§IV-C extension).
    pub fn mma_fp64(&mut self, a: &Matrix<f64>, b: &Matrix<f64>, c: &Matrix<f64>) -> Matrix<f64> {
        self.issue(MxuMode::M3xuFp64, a, b, c)
    }

    /// One M3XU FP64C MMA (§IV-C extension).
    pub fn mma_fp64c(
        &mut self,
        a: &Matrix<Complex<f64>>,
        b: &Matrix<Complex<f64>>,
        c: &Matrix<Complex<f64>>,
    ) -> Matrix<Complex<f64>> {
        self.issue(MxuMode::M3xuFp64c, a, b, c)
    }

    /// Wall-clock time the recorded instruction stream would take on this
    /// unit at `base_freq_ghz` (the *baseline MXU's* frequency — the
    /// pipeline variant's cycle-time ratio is applied on top), in
    /// nanoseconds, assuming full issue-rate utilisation.
    pub fn elapsed_ns(&self, base_freq_ghz: f64) -> f64 {
        let cycle_ns = self.config.pipeline.cycle_time_ratio() / base_freq_ghz;
        self.counters.issue_cycles as f64 * cycle_ns
    }
}

/// The naively extended FP32 MXU of Table III: full 24-bit multipliers,
/// one step per FP32 MMA, no FP32C support. Functionally it produces the
/// same bit-exact FP32 results as M3XU (both round once per element per
/// MMA); it exists as the cost/energy reference.
#[derive(Debug, Clone, Default)]
pub struct NativeFp32Mxu {
    /// MMA instructions executed.
    pub instructions: u64,
    /// Issue cycles (1 per instruction: single-step).
    pub issue_cycles: u64,
}

impl NativeFp32Mxu {
    /// A fresh unit.
    pub fn new() -> Self {
        Self::default()
    }

    /// One single-step FP32 MMA with full-width multipliers.
    pub fn mma_fp32(&mut self, a: &Matrix<f32>, b: &Matrix<f32>, c: &Matrix<f32>) -> Matrix<f32> {
        self.instructions += 1;
        self.issue_cycles += 1;
        let bt = b.transpose();
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            let mut acc = m3xu_fp::Kulisch::new();
            acc.add_f64(c.get(i, j) as f64);
            for (x, y) in a.row(i).iter().zip(bt.row(j)) {
                if x.is_nan()
                    || y.is_nan()
                    || (x.is_infinite() && *y == 0.0)
                    || (y.is_infinite() && *x == 0.0)
                {
                    return f32::NAN;
                }
                if x.is_infinite() || y.is_infinite() {
                    // Delegate the inf bookkeeping to f64 arithmetic.
                    let mut s = 0.0f64;
                    for (x, y) in a.row(i).iter().zip(bt.row(j)) {
                        s += *x as f64 * *y as f64;
                    }
                    return (s + c.get(i, j) as f64) as f32;
                }
                acc.add_product_f32(*x, *y);
            }
            acc.to_f32()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_per_mode() {
        let u = Mxu::new(MxuConfig::default());
        assert_eq!(u.shape(MxuMode::Fp16), MmaShape::new(8, 8, 4));
        assert_eq!(u.shape(MxuMode::M3xuFp32), MmaShape::new(8, 8, 2));
        assert_eq!(u.shape(MxuMode::M3xuFp32c), MmaShape::new(8, 8, 1));
    }

    #[test]
    fn counters_accumulate() {
        let mut u = Mxu::new(MxuConfig::default());
        let a = Matrix::<f32>::random(8, 2, 1);
        let b = Matrix::<f32>::random(2, 8, 2);
        let c = Matrix::<f32>::zeros(8, 8);
        let _ = u.mma_fp32(&a, &b, &c);
        let _ = u.mma_fp32(&a, &b, &c);
        let s = u.counters.for_mode(MxuMode::M3xuFp32);
        assert_eq!(s.instructions, 2);
        assert_eq!(s.steps, 4);
        assert_eq!(u.counters.issue_cycles, 4);
        assert_eq!(u.counters.total_instructions(), 2);
    }

    #[test]
    #[should_panic(expected = "fragment shape mismatch")]
    fn rejects_wrong_fragment_shape() {
        let mut u = Mxu::new(MxuConfig::default());
        let a = Matrix::<f32>::random(8, 4, 1); // k=4 is the FP16 shape
        let b = Matrix::<f32>::random(4, 8, 2);
        let c = Matrix::<f32>::zeros(8, 8);
        let _ = u.mma_fp32(&a, &b, &c);
    }

    #[test]
    fn native_fp32_matches_m3xu_bit_exactly() {
        // The key equivalence: the cheap 2-step M3XU and the expensive
        // native FP32 MXU produce identical bits.
        let mut m3xu = Mxu::new(MxuConfig::default());
        let mut native = NativeFp32Mxu::new();
        let a = Matrix::<f32>::random(8, 2, 77);
        let b = Matrix::<f32>::random(2, 8, 88);
        let c = Matrix::<f32>::random(8, 8, 99);
        let d1 = m3xu.mma_fp32(&a, &b, &c);
        let d2 = native.mma_fp32(&a, &b, &c);
        assert_eq!(d1, d2);
        // ... but M3XU takes 2 issue cycles to native's 1.
        assert_eq!(m3xu.counters.issue_cycles, 2);
        assert_eq!(native.issue_cycles, 1);
    }

    #[test]
    fn elapsed_time_reflects_pipeline_variant() {
        let mk = |p| {
            let mut u = Mxu::new(MxuConfig {
                pipeline: p,
                ..Default::default()
            });
            let a = Matrix::<f32>::random(8, 2, 1);
            let b = Matrix::<f32>::random(2, 8, 2);
            let c = Matrix::<f32>::zeros(8, 8);
            for _ in 0..10 {
                let _ = u.mma_fp32(&a, &b, &c);
            }
            u.elapsed_ns(1.0)
        };
        let piped = mk(PipelineVariant::Pipelined);
        let nonpiped = mk(PipelineVariant::NonPipelined);
        assert!((nonpiped / piped - 1.21).abs() < 1e-12);
    }
}
