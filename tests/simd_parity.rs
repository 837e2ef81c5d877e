//! SIMD ≡ scalar differential parity: the packed pipeline must produce
//! **bit-identical** output at every dispatch level the host supports —
//! `Scalar` (the oracle path), `Sse2`, `Avx2` and `Avx512` — across awkward
//! shapes, every precision, and operand payloads full of specials
//! (NaN, ±Inf, ±0, subnormals) that force the per-element-chunk
//! fallback. The fast-FP32 and emulated-FP64 modes, which `gemm::baseline`
//! does not run, are held to the `Scalar` level's bits, and at a vector
//! level their dense cases must run on the vector path.
//!
//! The dispatch level is a process-wide atomic, so every test that
//! flips it serializes on [`LEVEL_LOCK`] and restores the entry level
//! before releasing it.

use std::sync::Mutex;

use m3xu::default_context;
use m3xu::kernels::fft;
use m3xu::kernels::gemm::{baseline, GemmPrecision};
use m3xu::mxu::packed::simd::{self, SimdLevel};
use m3xu::{Matrix, C32};

/// Serializes tests that override the process-wide dispatch level.
static LEVEL_LOCK: Mutex<()> = Mutex::new(());

/// Every level the host can actually run (always includes `Scalar`).
fn host_levels() -> Vec<SimdLevel> {
    let mut levels = vec![SimdLevel::Scalar];
    for lvl in [SimdLevel::Sse2, SimdLevel::Avx2, SimdLevel::Avx512] {
        simd::set_level(lvl);
        if simd::level() == lvl {
            levels.push(lvl);
        }
    }
    levels
}

fn assert_bits_f32(got: &Matrix<f32>, want: &Matrix<f32>, what: &str) {
    for i in 0..want.rows() {
        for j in 0..want.cols() {
            assert_eq!(
                got.get(i, j).to_bits(),
                want.get(i, j).to_bits(),
                "{what}: ({i},{j}) {} vs {}",
                got.get(i, j),
                want.get(i, j),
            );
        }
    }
}

fn assert_bits_f64(got: &Matrix<f64>, want: &Matrix<f64>, what: &str) {
    for i in 0..want.rows() {
        for j in 0..want.cols() {
            assert_eq!(
                got.get(i, j).to_bits(),
                want.get(i, j).to_bits(),
                "{what}: ({i},{j}) {} vs {}",
                got.get(i, j),
                want.get(i, j),
            );
        }
    }
}

/// An f32 GEMM at every host level against the Scalar level's bits; see
/// [`levels_match_scalar`].
fn f32_levels_match_scalar(
    levels: &[SimdLevel],
    precision: GemmPrecision,
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    c: &Matrix<f32>,
    dense: bool,
    what: &str,
) {
    let run = || {
        default_context()
            .try_gemm_f32(precision, a, b, c)
            .unwrap()
            .d
    };
    let what = format!("{precision:?} {what}");
    levels_match_scalar(levels, run, assert_bits_f32, dense, &what);
}

/// [`f32_levels_match_scalar`] for an emulated-FP64 GEMM.
fn f64_levels_match_scalar(
    levels: &[SimdLevel],
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    c: &Matrix<f64>,
    dense: bool,
    what: &str,
) {
    let run = || {
        default_context()
            .try_gemm_f64(GemmPrecision::Fp64Emulated, a, b, c)
            .unwrap()
            .d
    };
    let what = format!("Fp64Emulated {what}");
    levels_match_scalar(levels, run, assert_bits_f64, dense, &what);
}

/// `run` (a GEMM on the default context) at every host level against the
/// bits of the Scalar level, `levels[0]`. When `dense`, each vector level
/// must have reduced element-chunks on the vector path: a mode that
/// silently drops back to the oracle fails here.
fn levels_match_scalar<T>(
    levels: &[SimdLevel],
    run: impl Fn() -> Matrix<T>,
    assert_bits: fn(&Matrix<T>, &Matrix<T>, &str),
    dense: bool,
    what: &str,
) {
    assert_eq!(levels[0], SimdLevel::Scalar);
    simd::set_level(SimdLevel::Scalar);
    let want = run();
    for &lvl in &levels[1..] {
        simd::set_level(lvl);
        let before = default_context().stats();
        let got = run();
        let chunks = default_context().stats().delta_since(&before).simd_chunks;
        assert_bits(&got, &want, &format!("{what} at {lvl:?}"));
        assert!(
            !dense || chunks > 0,
            "{what} at {lvl:?} never reached the vector path"
        );
    }
}

fn assert_bits_c32(got: &Matrix<C32>, want: &Matrix<C32>, what: &str) {
    for i in 0..want.rows() {
        for j in 0..want.cols() {
            let (g, w) = (got.get(i, j), want.get(i, j));
            assert_eq!(
                (g.re.to_bits(), g.im.to_bits()),
                (w.re.to_bits(), w.im.to_bits()),
                "{what}: ({i},{j})"
            );
        }
    }
}

/// Shapes chosen against the kernel's geometry: unit and zero edges,
/// primes, k below/straddling the fragment depth, and n off the 8-wide
/// row kernel.
const SHAPES: [(usize, usize, usize); 10] = [
    (1, 1, 1),
    (0, 5, 3),
    (3, 0, 4),
    (5, 7, 0),
    (1, 9, 2),
    (7, 11, 13),
    (8, 8, 3),
    (13, 17, 19),
    (9, 23, 31),
    (16, 15, 129),
];

/// Whether a shape holds a full 8-column fragment row of real work, the
/// unit the vector panels run on.
fn dense(m: usize, n: usize, k: usize) -> bool {
    m > 0 && n >= 8 && k > 0
}

/// Special payloads that must trip the fallback without breaking parity.
const SPECIALS: [f32; 10] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.0,
    -0.0,
    1.0e-44, // subnormal
    -f32::MIN_POSITIVE,
    f32::MAX,
    -1.0e-38,
    2.5,
];

/// The f64 counterpart of [`SPECIALS`]: signed zeros, subnormals,
/// `(1 + u)·2^±900` (whose products overflow or underflow), NaN, ±Inf and
/// values in [−1, 1).
const SPECIALS_F64: [f64; 12] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    5.0e-324,
    -2.5e-310,
    f64::from_bits(0x7830_0000_0000_0001),
    -f64::from_bits(0x07b0_0000_0000_0001),
    0.75,
    -0.3125,
    2.5,
];

#[test]
fn gemm_bitwise_identical_across_levels_and_shapes() {
    let _guard = LEVEL_LOCK.lock().unwrap();
    let entry = simd::level();
    let levels = host_levels();
    for (case, &(m, n, k)) in SHAPES.iter().enumerate() {
        let a = Matrix::<f32>::random(m, k, 0x5EED + case as u64);
        let b = Matrix::<f32>::random(k, n, 0xB0B + case as u64);
        let c = Matrix::<f32>::random(m, n, 0xACC + case as u64);
        for precision in [
            GemmPrecision::M3xuFp32,
            GemmPrecision::Tf32,
            GemmPrecision::Fp16,
            GemmPrecision::Bf16,
        ] {
            let want = baseline::gemm_f32(precision, &a, &b, &c);
            for &lvl in &levels {
                simd::set_level(lvl);
                let got = default_context()
                    .try_gemm_f32(precision, &a, &b, &c)
                    .unwrap();
                assert_bits_f32(
                    &got.d,
                    &want.d,
                    &format!("{precision:?} {m}x{n}x{k} at {lvl:?}"),
                );
            }
        }
        let what = format!("{m}x{n}x{k}");
        let dense = dense(m, n, k);
        f32_levels_match_scalar(&levels, GemmPrecision::Fp32Fast, &a, &b, &c, dense, &what);
        let a = Matrix::<f64>::random_f64(m, k, 0xD5EED + case as u64);
        let b = Matrix::<f64>::random_f64(k, n, 0xDB0B + case as u64);
        let c = Matrix::<f64>::random_f64(m, n, 0xDACC + case as u64);
        f64_levels_match_scalar(&levels, &a, &b, &c, dense, &what);
    }
    simd::set_level(entry);
}

#[test]
fn cgemm_bitwise_identical_across_levels_and_shapes() {
    let _guard = LEVEL_LOCK.lock().unwrap();
    let entry = simd::level();
    let levels = host_levels();
    for (case, &(m, n, k)) in SHAPES.iter().enumerate() {
        let a = Matrix::random_c32(m, k, 0xC5EED + case as u64);
        let b = Matrix::random_c32(k, n, 0xCB0B + case as u64);
        let c = Matrix::random_c32(m, n, 0xCACC + case as u64);
        let want = baseline::cgemm_c32(&a, &b, &c);
        for &lvl in &levels {
            simd::set_level(lvl);
            let got = default_context().try_cgemm_c32(&a, &b, &c).unwrap();
            assert_bits_c32(&got.d, &want.d, &format!("c32 {m}x{n}x{k} at {lvl:?}"));
        }
    }
    simd::set_level(entry);
}

#[test]
fn specials_and_subnormals_force_identical_fallbacks() {
    let _guard = LEVEL_LOCK.lock().unwrap();
    let entry = simd::level();
    let levels = host_levels();
    let a = Matrix::from_fn(13, 9, |i, j| SPECIALS[(i * 7 + j) % SPECIALS.len()]);
    let b = Matrix::from_fn(9, 17, |i, j| SPECIALS[(i + j * 3) % SPECIALS.len()]);
    let c = Matrix::from_fn(13, 17, |i, j| SPECIALS[(i + j) % SPECIALS.len()]);
    for precision in [GemmPrecision::M3xuFp32, GemmPrecision::Tf32] {
        let want = baseline::gemm_f32(precision, &a, &b, &c);
        for &lvl in &levels {
            simd::set_level(lvl);
            let got = default_context()
                .try_gemm_f32(precision, &a, &b, &c)
                .unwrap();
            assert_bits_f32(
                &got.d,
                &want.d,
                &format!("{precision:?} specials at {lvl:?}"),
            );
        }
    }
    f32_levels_match_scalar(
        &levels,
        GemmPrecision::Fp32Fast,
        &a,
        &b,
        &c,
        false,
        "specials",
    );
    let n = SPECIALS_F64.len();
    let a64 = Matrix::from_fn(13, 9, |i, j| SPECIALS_F64[(i * 7 + j) % n]);
    let b64 = Matrix::from_fn(9, 17, |i, j| SPECIALS_F64[(i + j * 3) % n]);
    let c64 = Matrix::from_fn(13, 17, |i, j| SPECIALS_F64[(i + j) % n]);
    f64_levels_match_scalar(&levels, &a64, &b64, &c64, false, "specials");
    let ca = Matrix::from_fn(9, 6, |i, j| {
        C32::new(
            SPECIALS[(i + j) % SPECIALS.len()],
            SPECIALS[(i * 3 + j) % SPECIALS.len()],
        )
    });
    let cb = Matrix::from_fn(6, 11, |i, j| {
        C32::new(
            SPECIALS[(i * 5 + j) % SPECIALS.len()],
            SPECIALS[(i + 2 * j) % SPECIALS.len()],
        )
    });
    let cc = Matrix::<C32>::zeros(9, 11);
    let want = baseline::cgemm_c32(&ca, &cb, &cc);
    for &lvl in &levels {
        simd::set_level(lvl);
        let got = default_context().try_cgemm_c32(&ca, &cb, &cc).unwrap();
        assert_bits_c32(&got.d, &want.d, &format!("c32 specials at {lvl:?}"));
    }
    simd::set_level(entry);
}

/// Chunks whose bits span more than the SIMD window sums (124 bits
/// above the lowest contribution's least bit) must abort to the scalar
/// oracle per element-chunk — mix tiny and huge magnitudes so both the
/// spread abort and the in-window path occur within one GEMM. The
/// emulated-FP64 mode meets the same mix at f64 range, where products
/// overflow and underflow.
#[test]
fn wide_exponent_spreads_stay_bitwise_identical() {
    let _guard = LEVEL_LOCK.lock().unwrap();
    let entry = simd::level();
    let levels = host_levels();
    let mags = [1.0e30f32, 1.0e-30, 3.0, 1.0e20, 5.0e-39, -2.0e25, 1.0e-10];
    let a = Matrix::from_fn(11, 14, |i, j| mags[(i * 5 + j) % mags.len()]);
    let b = Matrix::from_fn(14, 10, |i, j| mags[(i + j * 7) % mags.len()]);
    let c = Matrix::<f32>::zeros(11, 10);
    let want = baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
    for &lvl in &levels {
        simd::set_level(lvl);
        let got = default_context()
            .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
            .unwrap();
        assert_bits_f32(&got.d, &want.d, &format!("wide spread at {lvl:?}"));
    }
    f32_levels_match_scalar(
        &levels,
        GemmPrecision::Fp32Fast,
        &a,
        &b,
        &c,
        true,
        "wide spread",
    );
    let mags = [
        1.0e300f64, 1.0e-300, 3.0, 1.0e200, 5.0e-320, -2.0e250, 1.0e-100,
    ];
    let a = Matrix::from_fn(11, 14, |i, j| mags[(i * 5 + j) % mags.len()]);
    let b = Matrix::from_fn(14, 10, |i, j| mags[(i + j * 7) % mags.len()]);
    let c = Matrix::<f64>::zeros(11, 10);
    f64_levels_match_scalar(&levels, &a, &b, &c, true, "wide spread");
    simd::set_level(entry);
}

/// The GEMM-FFT puts its DFT matrices' tiny components (f32 cos(pi/2)
/// ~ 6e-17) beside the running sums, some 2^-54 below them: at every
/// level the spectrum must equal the per-fragment oracle driver's bit
/// for bit.
#[test]
fn gemm_fft_bitwise_identical_across_levels_and_the_oracle() {
    let _guard = LEVEL_LOCK.lock().unwrap();
    let entry = simd::level();
    let levels = host_levels();
    for n in [16, 64, 256, 4096] {
        let x = Matrix::random_c32(n, 1, 0xFF7 + n as u64);
        let (want, _) = fft::try_gemm_fft_with(x.as_slice(), baseline::cgemm_c32).unwrap();
        for &lvl in &levels {
            simd::set_level(lvl);
            let (got, _) = default_context().try_gemm_fft(x.as_slice()).unwrap();
            assert_eq!(got.len(), n);
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    (g.re.to_bits(), g.im.to_bits()),
                    (w.re.to_bits(), w.im.to_bits()),
                    "{n}-point GEMM-FFT bin {k} at {lvl:?}"
                );
            }
        }
    }
    simd::set_level(entry);
}

/// Reduction depth of the long-K cases: past the L1 panel depth of both
/// value widths on common hosts, so each tile's chain crosses panel edges.
const LONG_K: usize = 1200;

/// The triggers that knock one column off the vector path at depth `k`:
/// what `B[k][j]` becomes, and whether `A`'s column `k` is set to 2 so a
/// `±f32::MAX` entry overflows the sum.
#[derive(Clone, Copy)]
enum Trigger {
    /// A NaN product; the column then stays on the oracle.
    Nan,
    /// A ±Inf product; the column then stays on the oracle.
    Inf(f32),
    /// A tiny product whose exponent spread from the running sum is far
    /// beyond the vector window — one chunk on the oracle, then back.
    Spread,
    /// A ±`f32::MAX` entry times 2: a finite exact sum that rounds to ±Inf.
    Overflow(f32),
}

const TRIGGERS: [Trigger; 7] = [
    Trigger::Nan,
    Trigger::Inf(1.0),
    Trigger::Inf(-1.0),
    Trigger::Spread,
    Trigger::Overflow(1.0),
    Trigger::Overflow(-1.0),
    Trigger::Spread,
];

/// Column `j`'s trigger depth: deep in `K`, on both sides of a panel edge.
fn trigger_depth(j: usize) -> usize {
    LONG_K / 2 + 17 * j
}

/// The value `B[k][j]` takes for `t`, and whether `A[.][k]` must be 2.
fn trigger_value(t: Trigger) -> (f32, bool) {
    match t {
        Trigger::Nan => (f32::NAN, false),
        Trigger::Inf(s) => (s * f32::INFINITY, false),
        Trigger::Spread => (1.0e-30, false),
        Trigger::Overflow(s) => (s * f32::MAX, true),
    }
}

#[test]
fn long_k_gemm_columns_leave_the_vector_chain_deep_and_carry_on() {
    let _guard = LEVEL_LOCK.lock().unwrap();
    let entry = simd::level();
    let levels = host_levels();
    let (m, n) = (9, 32);
    let mut a = Matrix::<f32>::random(m, LONG_K, 0x10A);
    let mut b = Matrix::<f32>::random(LONG_K, n, 0x10B);
    let c = Matrix::<f32>::random(m, n, 0x10C);
    for j in 0..n {
        let k = trigger_depth(j);
        let (v, double_a) = trigger_value(TRIGGERS[j % TRIGGERS.len()]);
        b.set(k, j, v);
        if double_a {
            for i in 0..m {
                a.set(i, k, 2.0);
            }
        }
    }
    let want = baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
    // Each trigger left its mark on the oracle's column.
    for j in 0..n {
        for i in 0..m {
            let v = want.d.get(i, j);
            match TRIGGERS[j % TRIGGERS.len()] {
                Trigger::Nan => assert!(v.is_nan()),
                Trigger::Inf(_) => assert!(v.is_infinite()),
                Trigger::Spread => assert!(v.is_finite()),
                Trigger::Overflow(s) => assert_eq!(v, s * f32::INFINITY),
            }
        }
    }
    for &lvl in &levels {
        simd::set_level(lvl);
        let got = default_context()
            .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
            .unwrap();
        assert_bits_f32(&got.d, &want.d, &format!("long-K gemm at {lvl:?}"));
    }
    simd::set_level(entry);
}

#[test]
fn long_k_cgemm_columns_leave_the_vector_chain_deep_and_carry_on() {
    let _guard = LEVEL_LOCK.lock().unwrap();
    let entry = simd::level();
    let levels = host_levels();
    let (m, n) = (9, 32);
    let mut a = Matrix::random_c32(m, LONG_K, 0x20A);
    let mut b = Matrix::random_c32(LONG_K, n, 0x20B);
    let c = Matrix::random_c32(m, n, 0x20C);
    for j in 0..n {
        let k = trigger_depth(j);
        let (v, double_a) = trigger_value(TRIGGERS[j % TRIGGERS.len()]);
        // Alternate the component the trigger lands in.
        b.set(
            k,
            j,
            if j % 2 == 0 {
                C32::new(v, 0.0)
            } else {
                C32::new(0.0, v)
            },
        );
        if double_a {
            for i in 0..m {
                a.set(i, k, C32::new(2.0, 0.0));
            }
        }
    }
    let want = baseline::cgemm_c32(&a, &b, &c);
    for &lvl in &levels {
        simd::set_level(lvl);
        let got = default_context().try_cgemm_c32(&a, &b, &c).unwrap();
        assert_bits_c32(&got.d, &want.d, &format!("long-K cgemm at {lvl:?}"));
    }
    simd::set_level(entry);
}
