//! MMA (matrix-multiply-accumulate) instruction execution.
//!
//! One MMA multiplies an `M x K` fragment by a `K x N` fragment and
//! accumulates into an `M x N` fragment — the only operation a Tensor Core
//! supports. The baseline unit performs `8 x 8 x 4` on FP16/BF16 inputs
//! (the Ampere / Accel-Sim configuration of §V-A); the mode's
//! `k_divisor` shrinks `K` for wider operand types, so the *same* unit
//! covers `8 x 8 x 2` in FP32 (two steps) and `8 x 8 x 1` in FP32C (four
//! steps).
//!
//! Accumulation contract: within one MMA, each output element's partial
//! products and its `C` input accumulate **exactly** in the widened
//! registers and round once at drain. Across MMAs (the `K`-loop of a tiled
//! GEMM) each instruction rounds once — identical to how real tensor-core
//! GEMMs chain `D = A·B + C` fragments.

use crate::assign;
use crate::dpu::DotProductUnit;
use crate::matrix::Matrix;
use crate::modes::MxuMode;
use m3xu_fp::complex::Complex;
use m3xu_fp::format::FloatFormat;

/// An MMA fragment shape `M x N x K` (multiply `M x K` by `K x N`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MmaShape {
    /// Output rows.
    pub m: usize,
    /// Output columns.
    pub n: usize,
    /// Reduction depth.
    pub k: usize,
}

impl MmaShape {
    /// The baseline FP16 Tensor-Core shape of §V-A: `8 x 8 x 4`.
    pub const BASELINE_FP16: MmaShape = MmaShape { m: 8, n: 8, k: 4 };

    /// Construct a shape.
    pub const fn new(m: usize, n: usize, k: usize) -> Self {
        MmaShape { m, n, k }
    }

    /// The shape this mode supports on hardware whose native FP16 shape is
    /// `self`: `K` shrinks by the mode's divisor (minimum 1).
    pub fn for_mode(self, mode: MxuMode) -> MmaShape {
        MmaShape {
            m: self.m,
            n: self.n,
            k: (self.k / mode.k_divisor()).max(1),
        }
    }

    /// Multiply-accumulate operations in one MMA of this shape.
    pub const fn macs(self) -> u64 {
        (self.m * self.n * self.k) as u64
    }

    /// Fragment grid an `m x n x k` GEMM decomposes into with this
    /// fragment shape: `(tiles_m, tiles_n, k_chunks)`, each a ceiling
    /// division (edge fragments are zero-padded, not dropped).
    pub const fn grid(self, m: usize, n: usize, k: usize) -> (usize, usize, usize) {
        (m.div_ceil(self.m), n.div_ceil(self.n), k.div_ceil(self.k))
    }
}

impl std::fmt::Display for MmaShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.m, self.n, self.k)
    }
}

/// Execution statistics of one or more MMA instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MmaStats {
    /// MMA instructions issued.
    pub instructions: u64,
    /// Sequencing steps executed (instructions x steps-per-mode).
    pub steps: u64,
    /// Individual multiplier-lane products.
    pub lane_products: u64,
}

impl MmaStats {
    /// Merge counters.
    pub fn merge(&mut self, other: &MmaStats) {
        self.instructions += other.instructions;
        self.steps += other.steps;
        self.lane_products += other.lane_products;
    }

    /// The stats of `n` identical executions (this value per execution) —
    /// how a tiled driver turns per-fragment accounting into a whole-GEMM
    /// total without per-fragment atomics.
    pub const fn scaled(&self, n: u64) -> MmaStats {
        MmaStats {
            instructions: self.instructions * n,
            steps: self.steps * n,
            lane_products: self.lane_products * n,
        }
    }

    /// Saturating element-wise difference `self - earlier` — for turning
    /// two monotone counter snapshots into a per-interval delta.
    pub const fn delta_since(&self, earlier: &MmaStats) -> MmaStats {
        MmaStats {
            instructions: self.instructions.saturating_sub(earlier.instructions),
            steps: self.steps.saturating_sub(earlier.steps),
            lane_products: self.lane_products.saturating_sub(earlier.lane_products),
        }
    }
}

/// Execute one FP32 MMA (`M3xuFp32` mode): `D = A·B + C` bit-exactly.
///
/// `a` is `m x k`, `b` is `k x n`, `c` and the result are `m x n`.
pub fn mma_fp32(
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    c: &Matrix<f32>,
    stats: &mut MmaStats,
) -> Matrix<f32> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(b.rows(), k);
    assert_eq!((c.rows(), c.cols()), (m, n));
    let bt = b.transpose(); // column access
    let mut dpu = DotProductUnit::new();
    let mut lanes = 0;
    let out = Matrix::from_fn(m, n, |i, j| {
        dpu.clear();
        dpu.seed_real(c.get(i, j) as f64);
        let plan = assign::plan_fp32(a.row(i), bt.row(j));
        for step in &plan {
            dpu.execute_step(step);
            lanes += step.len() as u64;
        }
        dpu.read_real_f32()
    });
    stats.instructions += 1;
    stats.steps += MxuMode::M3xuFp32.steps() as u64;
    stats.lane_products += lanes;
    out
}

/// Execute one narrow-format MMA (FP16/BF16 native mode). Operands are
/// quantised to `fmt` at the input buffers (the load-path conversion real
/// hardware performs).
pub fn mma_narrow(
    fmt: FloatFormat,
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    c: &Matrix<f32>,
    stats: &mut MmaStats,
) -> Matrix<f32> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(b.rows(), k);
    let bt = b.transpose();
    let mut dpu = DotProductUnit::new();
    let mut lanes = 0;
    let out = Matrix::from_fn(m, n, |i, j| {
        dpu.clear();
        dpu.seed_real(c.get(i, j) as f64);
        let av: Vec<f64> = a
            .row(i)
            .iter()
            .map(|&x| m3xu_fp::softfloat::round_to_format(x as f64, fmt))
            .collect();
        let bv: Vec<f64> = bt
            .row(j)
            .iter()
            .map(|&x| m3xu_fp::softfloat::round_to_format(x as f64, fmt))
            .collect();
        let plan = assign::plan_native(&av, &bv, fmt);
        for step in &plan {
            dpu.execute_step(step);
            lanes += step.len() as u64;
        }
        dpu.read_real_f32()
    });
    stats.instructions += 1;
    stats.steps += 1;
    stats.lane_products += lanes;
    out
}

/// Execute one TF32 MMA: FP32 operands rounded to TF32 at the input
/// buffers (the lossy Tensor-Core path M3XU replaces).
pub fn mma_tf32(
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    c: &Matrix<f32>,
    stats: &mut MmaStats,
) -> Matrix<f32> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(b.rows(), k);
    let bt = b.transpose();
    let mut dpu = DotProductUnit::new();
    let mut lanes = 0;
    let out = Matrix::from_fn(m, n, |i, j| {
        dpu.clear();
        dpu.seed_real(c.get(i, j) as f64);
        let plan = assign::plan_tf32(a.row(i), bt.row(j));
        for step in &plan {
            dpu.execute_step(step);
            lanes += step.len() as u64;
        }
        dpu.read_real_f32()
    });
    stats.instructions += 1;
    stats.steps += 1;
    stats.lane_products += lanes;
    out
}

/// Execute one FP32C MMA (`M3xuFp32c` mode): complex `D = A·B + C` with
/// both components bit-exact.
pub fn mma_fp32c(
    a: &Matrix<Complex<f32>>,
    b: &Matrix<Complex<f32>>,
    c: &Matrix<Complex<f32>>,
    stats: &mut MmaStats,
) -> Matrix<Complex<f32>> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(b.rows(), k);
    assert_eq!((c.rows(), c.cols()), (m, n));
    let bt = b.transpose();
    let mut dpu = DotProductUnit::new();
    let mut lanes = 0;
    let out = Matrix::from_fn(m, n, |i, j| {
        dpu.clear();
        let cij = c.get(i, j);
        dpu.seed_real(cij.re as f64);
        dpu.seed_imag(cij.im as f64);
        let plan = assign::plan_fp32c(a.row(i), bt.row(j));
        for step in &plan {
            dpu.execute_step(step);
            lanes += step.len() as u64;
        }
        Complex::new(dpu.read_real_f32(), dpu.read_imag_f32())
    });
    stats.instructions += 1;
    stats.steps += MxuMode::M3xuFp32c.steps() as u64;
    stats.lane_products += lanes;
    out
}

/// Execute one FP64 MMA (§IV-C extension).
pub fn mma_fp64(
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    c: &Matrix<f64>,
    stats: &mut MmaStats,
) -> Matrix<f64> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(b.rows(), k);
    let bt = b.transpose();
    let mut dpu = DotProductUnit::new();
    let mut lanes = 0;
    let out = Matrix::from_fn(m, n, |i, j| {
        dpu.clear();
        dpu.seed_real(c.get(i, j));
        let plan = assign::plan_fp64(a.row(i), bt.row(j));
        for step in &plan {
            dpu.execute_step(step);
            lanes += step.len() as u64;
        }
        dpu.read_real_f64()
    });
    stats.instructions += 1;
    stats.steps += MxuMode::M3xuFp64.steps() as u64;
    stats.lane_products += lanes;
    out
}

/// Execute one FP64C MMA (§IV-C extension).
pub fn mma_fp64c(
    a: &Matrix<Complex<f64>>,
    b: &Matrix<Complex<f64>>,
    c: &Matrix<Complex<f64>>,
    stats: &mut MmaStats,
) -> Matrix<Complex<f64>> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(b.rows(), k);
    let bt = b.transpose();
    let mut dpu = DotProductUnit::new();
    let mut lanes = 0;
    let out = Matrix::from_fn(m, n, |i, j| {
        dpu.clear();
        let cij = c.get(i, j);
        dpu.seed_real(cij.re);
        dpu.seed_imag(cij.im);
        let plan = assign::plan_fp64c(a.row(i), bt.row(j));
        for step in &plan {
            dpu.execute_step(step);
            lanes += step.len() as u64;
        }
        Complex::new(dpu.read_real_f64(), dpu.read_imag_f64())
    });
    stats.instructions += 1;
    stats.steps += MxuMode::M3xuFp64c.steps() as u64;
    stats.lane_products += lanes;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3xu_fp::format::FP16;
    use m3xu_fp::softfloat::round_to_format;

    fn exact_ref(a: &Matrix<f32>, b: &Matrix<f32>, c: &Matrix<f32>) -> Matrix<f32> {
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            let mut acc = m3xu_fp::Kulisch::new();
            acc.add_f64(c.get(i, j) as f64);
            for k in 0..a.cols() {
                acc.add_product_f32(a.get(i, k), b.get(k, j));
            }
            acc.to_f32()
        })
    }

    #[test]
    fn shape_for_mode() {
        let s = MmaShape::BASELINE_FP16;
        assert_eq!(s.for_mode(MxuMode::Fp16), MmaShape::new(8, 8, 4));
        assert_eq!(s.for_mode(MxuMode::M3xuFp32), MmaShape::new(8, 8, 2));
        assert_eq!(s.for_mode(MxuMode::M3xuFp32c), MmaShape::new(8, 8, 1));
        assert_eq!(s.macs(), 256);
        assert_eq!(s.to_string(), "8x8x4");
    }

    #[test]
    fn fp32_mma_bit_exact_vs_exact_reference() {
        let a = Matrix::<f32>::random(8, 2, 11);
        let b = Matrix::<f32>::random(2, 8, 22);
        let c = Matrix::<f32>::random(8, 8, 33);
        let mut stats = MmaStats::default();
        let d = mma_fp32(&a, &b, &c, &mut stats);
        let r = exact_ref(&a, &b, &c);
        assert_eq!(d, r);
        assert_eq!(stats.instructions, 1);
        assert_eq!(stats.steps, 2);
        // 2 lanes per element per step * k=2 * 2 steps * 64 outputs.
        assert_eq!(stats.lane_products, 2 * 2 * 2 * 64);
    }

    #[test]
    fn fp16_mma_matches_reference() {
        // Quantise inputs to FP16 first.
        let q = |m: &Matrix<f32>| {
            Matrix::from_fn(m.rows(), m.cols(), |i, j| {
                round_to_format(m.get(i, j) as f64, FP16) as f32
            })
        };
        let a = q(&Matrix::<f32>::random(8, 4, 1));
        let b = q(&Matrix::<f32>::random(4, 8, 2));
        let c = Matrix::<f32>::random(8, 8, 3);
        let mut stats = MmaStats::default();
        let d = mma_narrow(FP16, &a, &b, &c, &mut stats);
        let r = exact_ref(&a, &b, &c);
        assert_eq!(d, r);
        assert_eq!(stats.steps, 1);
    }

    #[test]
    fn tf32_mma_differs_from_fp32_on_dense_mantissas() {
        let a = Matrix::from_fn(4, 4, |i, j| 1.0 + (1 + i * 4 + j) as f32 * f32::EPSILON);
        let b = Matrix::from_fn(4, 4, |i, j| 1.0 - (1 + i + j * 4) as f32 * f32::EPSILON);
        let c = Matrix::<f32>::zeros(4, 4);
        let mut s = MmaStats::default();
        let d32 = mma_fp32(&a, &b, &c, &mut s);
        let dtf = mma_tf32(&a, &b, &c, &mut s);
        assert_ne!(d32, dtf, "TF32 should lose the low mantissa bits");
        let r = exact_ref(&a, &b, &c);
        assert_eq!(d32, r, "M3XU FP32 must stay exact");
    }

    #[test]
    fn fp32c_mma_bit_exact() {
        let a = Matrix::random_c32(4, 1, 5);
        let b = Matrix::random_c32(1, 4, 6);
        let c = Matrix::random_c32(4, 4, 7);
        let mut s = MmaStats::default();
        let d = mma_fp32c(&a, &b, &c, &mut s);
        // Exact reference with Kulisch accumulators per component.
        for i in 0..4 {
            for j in 0..4 {
                let mut re = m3xu_fp::Kulisch::new();
                let mut im = m3xu_fp::Kulisch::new();
                re.add_f64(c.get(i, j).re as f64);
                im.add_f64(c.get(i, j).im as f64);
                let (x, y) = (a.get(i, 0), b.get(0, j));
                re.add_product_f32(x.re, y.re);
                re.add_product_f32(-x.im, y.im);
                im.add_product_f32(x.re, y.im);
                im.add_product_f32(x.im, y.re);
                assert_eq!(d.get(i, j).re.to_bits(), re.to_f32().to_bits());
                assert_eq!(d.get(i, j).im.to_bits(), im.to_f32().to_bits());
            }
        }
        assert_eq!(s.steps, 4);
    }

    #[test]
    fn fp64_mma_exact_single_k() {
        let a = Matrix::from_fn(2, 1, |i, _| 1.0f64 / (3 + i) as f64);
        let b = Matrix::from_fn(1, 2, |_, j| std::f64::consts::PI * (j + 1) as f64);
        let c = Matrix::<f64>::zeros(2, 2);
        let mut s = MmaStats::default();
        let d = mma_fp64(&a, &b, &c, &mut s);
        for i in 0..2 {
            for j in 0..2 {
                // Single product + zero: must equal the correctly rounded
                // f64 product.
                assert_eq!(d.get(i, j), a.get(i, 0) * b.get(0, j));
            }
        }
    }

    #[test]
    fn grid_is_ceiling_division() {
        let frag = MmaShape::BASELINE_FP16.for_mode(MxuMode::M3xuFp32); // 8x8x2
        assert_eq!(frag.grid(16, 16, 8), (2, 2, 4));
        assert_eq!(frag.grid(9, 7, 17), (2, 1, 9));
        assert_eq!(frag.grid(1, 1, 1), (1, 1, 1));
        assert_eq!(frag.grid(8, 0, 4), (1, 0, 2));
    }

    #[test]
    fn stats_scaled_and_delta() {
        let per = MmaStats {
            instructions: 1,
            steps: 2,
            lane_products: 3,
        };
        let total = per.scaled(5);
        assert_eq!(
            total,
            MmaStats {
                instructions: 5,
                steps: 10,
                lane_products: 15
            }
        );
        assert_eq!(total.delta_since(&per).instructions, 4);
        assert_eq!(per.delta_since(&total), MmaStats::default());
    }

    #[test]
    fn stats_merge() {
        let mut a = MmaStats {
            instructions: 1,
            steps: 2,
            lane_products: 3,
        };
        let b = MmaStats {
            instructions: 10,
            steps: 20,
            lane_products: 30,
        };
        a.merge(&b);
        assert_eq!(
            a,
            MmaStats {
                instructions: 11,
                steps: 22,
                lane_products: 33
            }
        );
    }
}
