//! Property-style verification of the M3XU datapath.
//!
//! The paper's central correctness claim (§V-B): "the computation result of
//! M3XU is exactly the same as FP32 … computation results using M3XU
//! instructions introduce no additional error compared to conventional FP32
//! ALUs." These tests pin that down over deterministic pseudo-random
//! inputs, including subnormals, cancellation, and huge exponent spread,
//! and additionally check the packed fragment pipeline against the
//! tile-based execution path bit for bit.

use m3xu_fp::complex::Complex;
use m3xu_fp::Kulisch;
use m3xu_mxu::assign;
use m3xu_mxu::dpu::{DotProductUnit, LaneOp};
use m3xu_mxu::matrix::Matrix;
use m3xu_mxu::mma::{self, MmaStats};
use m3xu_mxu::modes::MxuMode;
use m3xu_mxu::packed::PackedOperand;

const CASES: usize = 400;

/// Deterministic xorshift64 bit-pattern generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Finite f32 across the entire range (subnormals included).
    fn finite_f32(&mut self) -> f32 {
        loop {
            let x = f32::from_bits((self.next_u64() >> 32) as u32);
            if x.is_finite() {
                return x;
            }
        }
    }

    fn finite_f64(&mut self) -> f64 {
        loop {
            let x = f64::from_bits(self.next_u64());
            if x.is_finite() {
                return x;
            }
        }
    }

    fn vec_f32(&mut self, len: usize) -> Vec<f32> {
        (0..len).map(|_| self.finite_f32()).collect()
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo)
    }
}

/// Exact dot product + seed, rounded once — the M3XU accumulation contract.
fn exact_dot_f32(a: &[f32], b: &[f32], c: f32) -> f32 {
    let mut acc = Kulisch::new();
    acc.add_f64(c as f64);
    for (&x, &y) in a.iter().zip(b) {
        acc.add_product_f32(x, y);
    }
    acc.to_f32()
}

/// The 2-step FP32 plan executed on the DPU equals the exact dot
/// product rounded once, for any k and any finite data.
#[test]
fn fp32_two_step_dot_is_exact() {
    let mut rng = Rng::new(1);
    for _ in 0..CASES {
        let k = rng.range(1, 9);
        let (a, b) = (rng.vec_f32(k), rng.vec_f32(k));
        let c = rng.finite_f32();
        let expect = exact_dot_f32(&a, &b, c);
        let mut dpu = DotProductUnit::new();
        dpu.seed_real(c as f64);
        for step in &assign::plan_fp32(&a, &b) {
            dpu.execute_step(step);
        }
        assert_eq!(
            dpu.read_real_f32().to_bits(),
            expect.to_bits(),
            "k={k} a={a:?} b={b:?}"
        );
    }
}

/// Step decomposition: executing ONLY step 1 yields HH+LL; only step 2
/// yields the cross terms; together they equal the full product
/// (Observation 1 at the datapath level).
#[test]
fn step_partition_matches_observation_1() {
    let mut rng = Rng::new(2);
    for _ in 0..CASES {
        let (a, b) = (rng.finite_f32(), rng.finite_f32());
        let plan = assign::plan_fp32(&[a], &[b]);
        let run = |steps: &[Vec<LaneOp>]| {
            let mut dpu = DotProductUnit::new();
            for s in steps {
                dpu.execute_step(s);
            }
            dpu.read_real_f64()
        };
        let p = m3xu_fp::split::SplitProducts::of_fp32(a, b);
        // Step sums need <= 49 bits, so the f64 readout is exact.
        assert_eq!(run(&plan[..1]), p.step1(), "{a:e} * {b:e}");
        assert_eq!(run(&plan[1..]), p.step2(), "{a:e} * {b:e}");
    }
}

/// FP32C four-step CGEMM dot: both components bit-exact against the
/// exact complex dot product rounded once per component.
#[test]
fn fp32c_four_step_dot_is_exact() {
    let mut rng = Rng::new(3);
    for _ in 0..CASES {
        let k = rng.range(1, 5);
        let a: Vec<Complex<f32>> = (0..k)
            .map(|_| Complex::new(rng.finite_f32(), rng.finite_f32()))
            .collect();
        let b: Vec<Complex<f32>> = (0..k)
            .map(|_| Complex::new(rng.finite_f32(), rng.finite_f32()))
            .collect();
        let mut re = Kulisch::new();
        let mut im = Kulisch::new();
        for (x, y) in a.iter().zip(&b) {
            re.add_product_f32(x.re, y.re);
            re.add_product_f32(-x.im, y.im);
            im.add_product_f32(x.re, y.im);
            im.add_product_f32(x.im, y.re);
        }
        let mut dpu = DotProductUnit::new();
        for step in &assign::plan_fp32c(&a, &b) {
            dpu.execute_step(step);
        }
        assert_eq!(dpu.read_real_f32().to_bits(), re.to_f32().to_bits());
        assert_eq!(dpu.read_imag_f32().to_bits(), im.to_f32().to_bits());
    }
}

/// M3XU FP32 MMA == native (expensive) FP32 MXU MMA, bit for bit —
/// the hardware-equivalence claim that justifies the cheap design.
#[test]
fn m3xu_equals_native_fp32_mxu() {
    let mut rng = Rng::new(4);
    for _ in 0..64 {
        let seed = rng.next_u64();
        let a = Matrix::<f32>::random(8, 2, seed);
        let b = Matrix::<f32>::random(2, 8, seed ^ 0xABCD);
        let c = Matrix::<f32>::random(8, 8, seed ^ 0x1234);
        let mut s = MmaStats::default();
        let d_m3xu = mma::mma_fp32(&a, &b, &c, &mut s);
        let mut native = m3xu_mxu::NativeFp32Mxu::new();
        let d_native = native.mma_fp32(&a, &b, &c);
        assert_eq!(d_m3xu, d_native);
    }
}

/// The M3XU result never loses accuracy relative to the SIMT FMA chain:
/// measured against the f64 reference, M3XU's error is <= the FMA
/// chain's error on every element (single-MMA granularity).
#[test]
fn m3xu_at_least_as_accurate_as_simt() {
    let mut rng = Rng::new(5);
    for _ in 0..64 {
        let seed = rng.next_u64();
        let a = Matrix::<f32>::random(8, 2, seed.wrapping_add(1));
        let b = Matrix::<f32>::random(2, 8, seed.wrapping_add(2));
        let c = Matrix::<f32>::random(8, 8, seed.wrapping_add(3));
        let mut s = MmaStats::default();
        let m3xu = mma::mma_fp32(&a, &b, &c, &mut s);
        let simt = Matrix::reference_gemm(&a, &b, &c);
        let gold = Matrix::reference_gemm_f64(&a, &b, &c);
        for i in 0..8 {
            for j in 0..8 {
                let g = gold.get(i, j) as f64;
                let em = (m3xu.get(i, j) as f64 - g).abs();
                let es = (simt.get(i, j) as f64 - g).abs();
                // One rounding (M3XU) vs k+1 roundings (SIMT): M3XU can
                // differ from gold only by the final-rounding disagreement.
                assert!(
                    em <= es + f32::EPSILON as f64 * g.abs(),
                    "element ({i},{j}): m3xu err {em:e} vs simt err {es:e}"
                );
            }
        }
    }
}

/// TF32-mode MMA equals rounding the inputs to TF32 first and then
/// doing the exact computation (the rounding happens at the buffer, no
/// hidden extra error).
#[test]
fn tf32_mode_is_input_rounding() {
    let mut rng = Rng::new(6);
    for _ in 0..64 {
        let seed = rng.next_u64();
        let a = Matrix::<f32>::random(8, 4, seed ^ 0x11);
        let b = Matrix::<f32>::random(4, 8, seed ^ 0x22);
        let c = Matrix::<f32>::random(8, 8, seed ^ 0x33);
        let mut s = MmaStats::default();
        let d = mma::mma_tf32(&a, &b, &c, &mut s);
        let q = |m: &Matrix<f32>| {
            Matrix::from_fn(m.rows(), m.cols(), |i, j| {
                m3xu_fp::softfloat::round_to_format(m.get(i, j) as f64, m3xu_fp::format::TF32)
                    as f32
            })
        };
        let d_ref = {
            let (aq, bq) = (q(&a), q(&b));
            Matrix::from_fn(8, 8, |i, j| {
                let mut acc = Kulisch::new();
                acc.add_f64(c.get(i, j) as f64);
                for k in 0..4 {
                    acc.add_product_f32(aq.get(i, k), bq.get(k, j));
                }
                acc.to_f32()
            })
        };
        assert_eq!(d, d_ref);
    }
}

/// FP64 two-step products: single-k MMA equals the IEEE f64 product
/// (correct rounding of the exact product).
#[test]
fn fp64_single_product_correctly_rounded() {
    let mut rng = Rng::new(7);
    for _ in 0..CASES {
        let (a, b) = (rng.finite_f64(), rng.finite_f64());
        let p = a * b;
        if !p.is_finite() || p == 0.0 {
            continue;
        }
        let am = Matrix::from_vec(1, 1, vec![a]);
        let bm = Matrix::from_vec(1, 1, vec![b]);
        let cm = Matrix::<f64>::zeros(1, 1);
        let mut s = MmaStats::default();
        let d = mma::mma_fp64(&am, &bm, &cm, &mut s);
        assert_eq!(d.get(0, 0).to_bits(), p.to_bits(), "{a:e} * {b:e}");
    }
}

/// NaN anywhere in the inputs poisons exactly the affected outputs.
#[test]
fn nan_containment() {
    let mut rng = Rng::new(8);
    for _ in 0..64 {
        let seed = rng.next_u64();
        let row = rng.range(0, 8);
        let col = rng.range(0, 2);
        let mut a = Matrix::<f32>::random(8, 2, seed);
        a.set(row, col, f32::NAN);
        let b = Matrix::<f32>::random(2, 8, seed ^ 0x77);
        let c = Matrix::<f32>::zeros(8, 8);
        let mut s = MmaStats::default();
        let d = mma::mma_fp32(&a, &b, &c, &mut s);
        for i in 0..8 {
            for j in 0..8 {
                if i == row {
                    assert!(d.get(i, j).is_nan(), "({i},{j}) should be NaN");
                } else {
                    assert!(!d.get(i, j).is_nan(), "({i},{j}) should be finite");
                }
            }
        }
    }
}

/// The packed fragment pipeline is bit-identical to the tile-based MMA
/// path on fully random finite data, every mode, including clipped edges.
#[test]
fn packed_pipeline_equals_tile_path() {
    let mut rng = Rng::new(9);
    for _ in 0..48 {
        // Random fragment-sized problem with raw bit-pattern data (the
        // Matrix::random generator only emits [0, 1) values; here we want
        // subnormals and wild exponents too).
        let k = rng.range(1, 3);
        let a = Matrix::from_fn(8, k, |_, _| rng.finite_f32());
        let b = Matrix::from_fn(k, 8, |_, _| rng.finite_f32());
        let c = Matrix::from_fn(8, 8, |_, _| rng.finite_f32());
        // Tile path needs the exact fragment shape: pad k to 2.
        let at = a.tile(0, 0, 8, 2);
        let bt = b.tile(0, 0, 2, 8);
        let mut s = MmaStats::default();
        let want = mma::mma_fp32(&at, &bt, &c, &mut s);
        let pa = PackedOperand::pack_rows_f32(&a, MxuMode::M3xuFp32);
        let pb = PackedOperand::pack_cols_f32(&b, MxuMode::M3xuFp32);
        let mut acc: Vec<f32> = c.as_slice().to_vec();
        let mut dpu = DotProductUnit::new();
        dpu.mma_f32_into(&pa, &pb, 0, 8, 0, 8, 0, 2, &mut acc, None);
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(
                    acc[i * 8 + j].to_bits(),
                    want.get(i, j).to_bits(),
                    "packed/tile divergence at ({i},{j}), k={k}"
                );
            }
        }
    }
}
