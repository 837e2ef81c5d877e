//! Property-style tests over the application substrates: algebraic laws
//! the kernels must satisfy for arbitrary (deterministically sampled)
//! inputs.

use m3xu_fp::complex::Complex;
use m3xu_kernels::fft;
use m3xu_kernels::gemm::GemmPrecision;
use m3xu_kernels::poly;
use m3xu_kernels::{default_context, GemmExecutor};
use m3xu_mxu::matrix::Matrix;

type C32 = Complex<f32>;

const CASES: usize = 24;

/// Deterministic xorshift64 generator.
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

    /// Well-scaled values: the algebraic properties are about structure,
    /// not overflow.
    fn small_f32(&mut self) -> f32 {
        ((self.next_u64() % 2000) as i64 - 1000) as f32 / 64.0
    }

    fn matrix(&mut self, rows: usize, cols: usize) -> Matrix<f32> {
        Matrix::from_fn(rows, cols, |_, _| self.small_f32())
    }

    fn signal(&mut self, n: usize) -> Vec<C32> {
        (0..n)
            .map(|_| Complex::new(self.small_f32(), self.small_f32()))
            .collect()
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo)
    }

    fn int_vec(&mut self, len: usize, bound: i64) -> Vec<i64> {
        (0..len)
            .map(|_| (self.next_u64() % (2 * bound) as u64) as i64 - bound)
            .collect()
    }
}

/// GEMM bias linearity: the fragment seeds C exactly, so for a single
/// k-fragment the result is the exact dot + C rounded once.
#[test]
fn gemm_bias_is_seeded_exactly_for_single_fragment() {
    let mut rng = Rng::new(1);
    for _ in 0..CASES {
        let a = rng.matrix(8, 2);
        let b = rng.matrix(2, 8);
        let c = rng.matrix(8, 8);
        let with_c = default_context()
            .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
            .unwrap()
            .d;
        // Reference: exact dot + c, rounded once.
        for i in 0..8 {
            for j in 0..8 {
                let mut acc = m3xu_fp::Kulisch::new();
                acc.add_f64(c.get(i, j) as f64);
                for k in 0..2 {
                    acc.add_product_f32(a.get(i, k), b.get(k, j));
                }
                assert_eq!(with_c.get(i, j).to_bits(), acc.to_f32().to_bits());
            }
        }
    }
}

/// Transpose identity: (A·B)ᵀ == Bᵀ·Aᵀ, bit-for-bit (the driver's
/// accumulation order is symmetric under transposition for equal k
/// chunking).
#[test]
fn gemm_transpose_identity() {
    let mut rng = Rng::new(2);
    for _ in 0..CASES {
        let a = rng.matrix(12, 6);
        let b = rng.matrix(6, 10);
        let ab_t = default_context()
            .try_matmul_f32(GemmPrecision::M3xuFp32, &a, &b)
            .unwrap()
            .transpose();
        let bt_at = default_context()
            .try_matmul_f32(GemmPrecision::M3xuFp32, &b.transpose(), &a.transpose())
            .unwrap();
        assert_eq!(ab_t, bt_at);
    }
}

/// Scaling covariance: (sA)·B == s(A·B) exactly when s is a power of
/// two (exponent shifts commute with every rounding).
#[test]
fn gemm_power_of_two_scaling() {
    let mut rng = Rng::new(3);
    for _ in 0..CASES {
        let a = rng.matrix(8, 4);
        let b = rng.matrix(4, 8);
        let base = default_context()
            .try_matmul_f32(GemmPrecision::M3xuFp32, &a, &b)
            .unwrap();
        let sa = Matrix::from_fn(8, 4, |i, j| a.get(i, j) * 4.0);
        let scaled = default_context()
            .try_matmul_f32(GemmPrecision::M3xuFp32, &sa, &b)
            .unwrap();
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(scaled.get(i, j).to_bits(), (base.get(i, j) * 4.0).to_bits());
            }
        }
    }
}

/// FFT linearity: fft(x + y) ~= fft(x) + fft(y).
#[test]
fn fft_is_linear() {
    let mut rng = Rng::new(4);
    for _ in 0..CASES {
        let x = rng.signal(64);
        let y = rng.signal(64);
        let sum: Vec<C32> = x.iter().zip(&y).map(|(a, b)| *a + *b).collect();
        let (f_sum, _) = fft::gemm_fft(&sum);
        let (fx, _) = fft::gemm_fft(&x);
        let (fy, _) = fft::gemm_fft(&y);
        let combined: Vec<C32> = fx.iter().zip(&fy).map(|(a, b)| *a + *b).collect();
        let err = fft::spectrum_rel_error(&f_sum, &combined);
        assert!(err < 1e-4, "linearity error {err}");
    }
}

/// FFT time shift <-> phase ramp: fft(shift(x, 1))[k] = fft(x)[k] * w^k.
#[test]
fn fft_shift_theorem() {
    let mut rng = Rng::new(5);
    for _ in 0..CASES {
        let n = 32;
        let x = rng.signal(n);
        let shifted: Vec<C32> = (0..n).map(|i| x[(i + 1) % n]).collect();
        let (fs, _) = fft::gemm_fft(&shifted);
        let (fx, _) = fft::gemm_fft(&x);
        let expect: Vec<C32> = (0..n)
            .map(|k| {
                let w = Complex::<f64>::cis(2.0 * std::f64::consts::PI * k as f64 / n as f64);
                fx[k] * Complex::new(w.re as f32, w.im as f32)
            })
            .collect();
        let err = fft::spectrum_rel_error(&fs, &expect);
        assert!(err < 1e-4, "shift theorem error {err}");
    }
}

/// Parseval for arbitrary signals.
#[test]
fn fft_parseval() {
    let mut rng = Rng::new(6);
    for _ in 0..CASES {
        let x = rng.signal(128);
        let time: f64 = x.iter().map(|z| z.norm_sqr() as f64).sum();
        if time <= 1e-6 {
            continue;
        }
        let (f, _) = fft::gemm_fft(&x);
        let freq: f64 = f.iter().map(|z| z.norm_sqr() as f64).sum::<f64>() / 128.0;
        assert!((time - freq).abs() / time < 1e-4);
    }
}

/// Polynomial multiplication is commutative and matches schoolbook.
#[test]
fn poly_mul_commutes() {
    let mut rng = Rng::new(7);
    for _ in 0..CASES {
        let la = rng.range(1, 40);
        let lb = rng.range(1, 40);
        let a = rng.int_vec(la, 50);
        let b = rng.int_vec(lb, 50);
        let (ab, _) = poly::poly_mul_int(&a, &b);
        let (ba, _) = poly::poly_mul_int(&b, &a);
        assert_eq!(&ab, &ba);
        assert_eq!(ab, poly::poly_mul_reference(&a, &b));
    }
}

/// KNN is invariant under translation of the whole space.
#[test]
fn knn_translation_invariant() {
    let mut rng = Rng::new(8);
    for _ in 0..CASES {
        let seed = rng.next_u64() % 500;
        let refs = Matrix::<f32>::random(24, 5, seed);
        let queries = Matrix::<f32>::random(4, 5, seed ^ 0xAA);
        let base = m3xu_kernels::knn::knn_gemm(GemmPrecision::M3xuFp32, &refs, &queries, 3);
        let shift = 0.625f32; // exactly representable: distances shift exactly
        let refs_t = Matrix::from_fn(24, 5, |i, j| refs.get(i, j) + shift);
        let queries_t = Matrix::from_fn(4, 5, |i, j| queries.get(i, j) + shift);
        let moved = m3xu_kernels::knn::knn_gemm(GemmPrecision::M3xuFp32, &refs_t, &queries_t, 3);
        assert_eq!(base.indices, moved.indices);
    }
}

/// Conv2d distributes over filter addition.
#[test]
fn conv2d_filter_linearity() {
    use m3xu_kernels::conv2d::{conv2d, ConvSpec, Tensor3};
    let mut rng = Rng::new(9);
    for _ in 0..CASES {
        let seed = rng.next_u64() % 200;
        let x = Tensor3::random(2, 6, 6, seed);
        let spec = ConvSpec {
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let f1 = Matrix::<f32>::random(2, 2 * 9, seed ^ 1);
        let f2 = Matrix::<f32>::random(2, 2 * 9, seed ^ 2);
        let fsum = Matrix::from_fn(2, 18, |i, j| f1.get(i, j) + f2.get(i, j));
        let (y1, _) = conv2d(GemmPrecision::M3xuFp32, &x, &f1, &[0.0, 0.0], spec);
        let (y2, _) = conv2d(GemmPrecision::M3xuFp32, &x, &f2, &[0.0, 0.0], spec);
        let (ys, _) = conv2d(GemmPrecision::M3xuFp32, &x, &fsum, &[0.0, 0.0], spec);
        for (s, (a, b)) in ys
            .as_slice()
            .iter()
            .zip(y1.as_slice().iter().zip(y2.as_slice()))
        {
            assert!((s - (a + b)).abs() <= 1e-4 * (a + b).abs().max(1.0));
        }
    }
}
