//! Differential property suite: every execution path the workspace offers
//! for a GEMM — the process-wide `default_context()`, a private
//! [`M3xuContext`] at several thread counts, and the `m3xu-serve`
//! scheduler (both its batched and sharded paths) — must produce output
//! **bit-identical** to the unfused `gemm::baseline` oracle, across all
//! five baseline engines (FP16, BF16, TF32, M3XU FP32, M3XU FP32C).
//!
//! The precision family extends the sweep: `Fp32Fast` (the truncated
//! 3-term slice schedule) and `Fp64Emulated` (5-slice Ozaki FP64) have
//! no baseline tile executor, so their oracle is a single-thread
//! context; every other path — thread counts, SIMD dispatch levels, the
//! serve scheduler — must reproduce it bit for bit. `Fp64Emulated` is
//! additionally pinned bit for bit against an independent
//! `m3xu_fp::softfloat` correctly-rounded sequential-FMA reference, over
//! dense and adversarial operands. The f32 modes of the dial are pinned
//! to their accuracy tiers against an `f64` reference.
//!
//! Shapes come from a deterministic xorshift generator seeded per run
//! plus a fixed edge-case set: zero and unit dimensions, primes, and
//! sizes that are not multiples of any fragment edge. `M3XU_PROP_CASES`
//! scales the random-case count (default 10; the soak mode of
//! `scripts/check.sh` raises it).

use m3xu::fp::format::FP64;
use m3xu::fp::softfloat::SoftFloat;
use m3xu::kernels::gemm::{self, GemmPrecision};
use m3xu::kernels::{default_context, M3xuContext};
use m3xu::mxu::packed::simd::{self, SimdLevel};
use m3xu::serve::{BatchPolicy, M3xuServe, ServeConfig, SubmitOpts};
use m3xu::{Matrix, C32};
use std::sync::Mutex;

/// Deterministic xorshift64* shape generator.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// A dimension biased toward awkward values: mostly small non-round
    /// numbers, occasionally 0 or 1.
    fn dim(&mut self) -> usize {
        match self.next() % 8 {
            0 => 0,
            1 => 1,
            _ => 2 + (self.next() % 46) as usize,
        }
    }
}

/// Fixed edge shapes: degenerate, unit, prime, and non-multiple-of-8/4.
const EDGE_SHAPES: [(usize, usize, usize); 8] = [
    (0, 8, 8),
    (8, 0, 8),
    (8, 8, 0),
    (1, 1, 1),
    (7, 11, 13),
    (23, 29, 31),
    (9, 15, 33),
    (41, 2, 5),
];

fn prop_cases() -> usize {
    std::env::var("M3XU_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10)
}

fn shapes() -> Vec<(usize, usize, usize)> {
    let mut rng = XorShift(0x9E3779B97F4A7C15);
    let mut v: Vec<(usize, usize, usize)> = EDGE_SHAPES.to_vec();
    v.extend((0..prop_cases()).map(|_| (rng.dim(), rng.dim(), rng.dim())));
    v
}

const ENGINES: [GemmPrecision; 4] = [
    GemmPrecision::Fp16,
    GemmPrecision::Bf16,
    GemmPrecision::Tf32,
    GemmPrecision::M3xuFp32,
];

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn assert_bits_f32(got: &Matrix<f32>, want: &Matrix<f32>, what: &str) {
    assert_eq!(
        (got.rows(), got.cols()),
        (want.rows(), want.cols()),
        "{what}"
    );
    for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}");
    }
}

fn assert_bits_c32(got: &Matrix<C32>, want: &Matrix<C32>, what: &str) {
    assert_eq!(
        (got.rows(), got.cols()),
        (want.rows(), want.cols()),
        "{what}"
    );
    for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}: element {i} (re)");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}: element {i} (im)");
    }
}

#[test]
fn real_gemm_all_engines_all_paths_match_baseline_bits() {
    // One service per (thread count, scheduler path), reused across
    // shapes: BatchPolicy::Always + shard_tiles=MAX forces the pooled
    // epoch path, BatchPolicy::Never + shard_tiles=1 forces the
    // per-request tile-sharded path, and an Adaptive 2-shard service
    // exercises the production routing/stealing configuration.
    let serves: Vec<(String, M3xuServe)> = THREAD_COUNTS
        .iter()
        .flat_map(|&t| {
            [
                (BatchPolicy::Always, usize::MAX, 1usize),
                (BatchPolicy::Never, 1, 1),
                (BatchPolicy::Adaptive, 4096, 2),
            ]
            .map(|(batching, shard_tiles, shards)| {
                (
                    format!(
                        "workers={t},batching={batching:?},shard_tiles={shard_tiles},shards={shards}"
                    ),
                    M3xuServe::new(ServeConfig {
                        workers: t,
                        batching,
                        shard_tiles,
                        shards,
                        ..ServeConfig::default()
                    }),
                )
            })
        })
        .collect();
    for (case, &(m, k, n)) in shapes().iter().enumerate() {
        let a = Matrix::<f32>::random(m, k, case as u64 * 3 + 1);
        let b = Matrix::<f32>::random(k, n, case as u64 * 3 + 2);
        let c = Matrix::<f32>::random(m, n, case as u64 * 3 + 3);
        for precision in ENGINES {
            let want = gemm::baseline::gemm_f32(precision, &a, &b, &c);
            let tag = |path: &str| format!("case {case} {m}x{k}x{n} {precision:?} via {path}");

            // Path 1: the process-wide default context (and pool).
            let dflt = default_context()
                .try_gemm_f32(precision, &a, &b, &c)
                .unwrap();
            assert_bits_f32(&dflt.d, &want.d, &tag("default ctx"));
            assert_eq!(dflt.stats, want.stats, "{}", tag("default ctx"));

            // Path 2: private contexts across thread counts.
            for &t in &THREAD_COUNTS {
                let ctx = M3xuContext::with_threads(t);
                let r = ctx.try_gemm_f32(precision, &a, &b, &c).unwrap();
                assert_bits_f32(&r.d, &want.d, &tag(&format!("ctx[{t}]")));
                assert_eq!(r.stats, want.stats, "{}", tag(&format!("ctx[{t}]")));
            }

            // Path 3: the serving layer, every scheduler path.
            for (label, serve) in &serves {
                let r = serve
                    .submit_gemm_f32(
                        "prop",
                        precision,
                        a.clone(),
                        b.clone(),
                        c.clone(),
                        SubmitOpts::default(),
                    )
                    .and_then(|t| t.wait())
                    .unwrap();
                let path = format!("serve[{label}]");
                assert_bits_f32(&r.d, &want.d, &tag(&path));
                assert_eq!(r.stats, want.stats, "{}", tag(&path));
            }
        }
    }
}

#[test]
fn complex_gemm_all_paths_match_baseline_bits() {
    let serves: Vec<(usize, M3xuServe)> = THREAD_COUNTS
        .iter()
        .map(|&t| (t, M3xuServe::with_workers(t)))
        .collect();
    for (case, &(m, k, n)) in shapes().iter().enumerate() {
        let a = Matrix::random_c32(m, k, case as u64 * 5 + 1);
        let b = Matrix::random_c32(k, n, case as u64 * 5 + 2);
        let c = Matrix::random_c32(m, n, case as u64 * 5 + 3);
        let want = gemm::baseline::cgemm_c32(&a, &b, &c);
        let tag = |path: &str| format!("case {case} {m}x{k}x{n} FP32C via {path}");

        let dflt = default_context().try_cgemm_c32(&a, &b, &c).unwrap();
        assert_bits_c32(&dflt.d, &want.d, &tag("default ctx"));
        assert_eq!(dflt.stats, want.stats, "{}", tag("default ctx"));

        for &t in &THREAD_COUNTS {
            let ctx = M3xuContext::with_threads(t);
            let r = ctx.try_cgemm_c32(&a, &b, &c).unwrap();
            assert_bits_c32(&r.d, &want.d, &tag(&format!("ctx[{t}]")));
            assert_eq!(r.stats, want.stats, "{}", tag(&format!("ctx[{t}]")));
        }

        for (t, serve) in &serves {
            let r = serve
                .submit_cgemm_c32(
                    "prop",
                    a.clone(),
                    b.clone(),
                    c.clone(),
                    SubmitOpts::default(),
                )
                .and_then(|t| t.wait())
                .unwrap();
            assert_bits_c32(&r.d, &want.d, &tag(&format!("serve[workers={t}]")));
            assert_eq!(
                r.stats,
                want.stats,
                "{}",
                tag(&format!("serve[workers={t}]"))
            );
        }
    }
}

fn assert_bits_f64(got: &Matrix<f64>, want: &Matrix<f64>, what: &str) {
    assert_eq!(
        (got.rows(), got.cols()),
        (want.rows(), want.cols()),
        "{what}"
    );
    for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}");
    }
}

#[test]
fn fp32_fast_all_paths_match_single_thread_bits() {
    // Fp32Fast has no baseline tile executor (the truncated schedule
    // exists only in the packed driver), so the oracle is a
    // single-thread private context; every other path must agree bit for
    // bit and report identical stats.
    let serves: Vec<(usize, M3xuServe)> = THREAD_COUNTS
        .iter()
        .map(|&t| (t, M3xuServe::with_workers(t)))
        .collect();
    for (case, &(m, k, n)) in shapes().iter().enumerate() {
        let a = Matrix::<f32>::random(m, k, case as u64 * 7 + 1);
        let b = Matrix::<f32>::random(k, n, case as u64 * 7 + 2);
        let c = Matrix::<f32>::random(m, n, case as u64 * 7 + 3);
        let want = M3xuContext::with_threads(1)
            .try_gemm_f32(GemmPrecision::Fp32Fast, &a, &b, &c)
            .unwrap();
        let tag = |path: &str| format!("case {case} {m}x{k}x{n} Fp32Fast via {path}");

        let dflt = default_context()
            .try_gemm_f32(GemmPrecision::Fp32Fast, &a, &b, &c)
            .unwrap();
        assert_bits_f32(&dflt.d, &want.d, &tag("default ctx"));
        assert_eq!(dflt.stats, want.stats, "{}", tag("default ctx"));

        for &t in &THREAD_COUNTS {
            let ctx = M3xuContext::with_threads(t);
            let r = ctx
                .try_gemm_f32(GemmPrecision::Fp32Fast, &a, &b, &c)
                .unwrap();
            assert_bits_f32(&r.d, &want.d, &tag(&format!("ctx[{t}]")));
            assert_eq!(r.stats, want.stats, "{}", tag(&format!("ctx[{t}]")));
        }

        for (t, serve) in &serves {
            let r = serve
                .submit_gemm_f32(
                    "prop",
                    GemmPrecision::Fp32Fast,
                    a.clone(),
                    b.clone(),
                    c.clone(),
                    SubmitOpts::default(),
                )
                .and_then(|t| t.wait())
                .unwrap();
            let path = format!("serve[workers={t}]");
            assert_bits_f32(&r.d, &want.d, &tag(&path));
            assert_eq!(r.stats, want.stats, "{}", tag(&path));
        }
    }
}

#[test]
fn fp64_emulated_all_paths_match_single_thread_bits() {
    // Same structure for the top of the dial: a single-thread context is
    // the oracle; the default context, every thread count, and both serve
    // scheduler paths must reproduce it bit for bit.
    let serves: Vec<(String, M3xuServe)> = THREAD_COUNTS
        .iter()
        .flat_map(|&t| {
            [
                (BatchPolicy::Always, usize::MAX, 1usize),
                (BatchPolicy::Never, 1, 2),
            ]
            .map(|(batching, shard_tiles, shards)| {
                (
                    format!("workers={t},batching={batching:?},shards={shards}"),
                    M3xuServe::new(ServeConfig {
                        workers: t,
                        batching,
                        shard_tiles,
                        shards,
                        ..ServeConfig::default()
                    }),
                )
            })
        })
        .collect();
    for (case, &(m, k, n)) in shapes().iter().enumerate() {
        let a = Matrix::<f64>::random_f64(m, k, case as u64 * 11 + 1);
        let b = Matrix::<f64>::random_f64(k, n, case as u64 * 11 + 2);
        let c = Matrix::<f64>::random_f64(m, n, case as u64 * 11 + 3);
        let want = M3xuContext::with_threads(1)
            .try_gemm_f64(GemmPrecision::Fp64Emulated, &a, &b, &c)
            .unwrap();
        let tag = |path: &str| format!("case {case} {m}x{k}x{n} Fp64Emulated via {path}");

        let dflt = default_context()
            .try_gemm_f64(GemmPrecision::Fp64Emulated, &a, &b, &c)
            .unwrap();
        assert_bits_f64(&dflt.d, &want.d, &tag("default ctx"));
        assert_eq!(dflt.stats, want.stats, "{}", tag("default ctx"));

        for &t in &THREAD_COUNTS {
            let ctx = M3xuContext::with_threads(t);
            let r = ctx
                .try_gemm_f64(GemmPrecision::Fp64Emulated, &a, &b, &c)
                .unwrap();
            assert_bits_f64(&r.d, &want.d, &tag(&format!("ctx[{t}]")));
            assert_eq!(r.stats, want.stats, "{}", tag(&format!("ctx[{t}]")));
        }

        for (label, serve) in &serves {
            let r = serve
                .submit_gemm_f64(
                    "prop",
                    a.clone(),
                    b.clone(),
                    c.clone(),
                    SubmitOpts::default(),
                )
                .and_then(|t| t.wait())
                .unwrap();
            let path = format!("serve[{label}]");
            assert_bits_f64(&r.d, &want.d, &tag(&path));
            assert_eq!(r.stats, want.stats, "{}", tag(&path));
        }
    }
}

/// Operands the dense `[−1, 1)` draws never produce: signed zeros,
/// subnormals and `(1 + u)·2^±900` (whose products overflow to ±∞,
/// underflow to a signed zero, or meet ∞ − ∞ and make NaN), mixed with
/// dense `[−1, 1)` values.
fn adversarial_f64(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    let mut rng = XorShift(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
    Matrix::from_fn(rows, cols, |_, _| {
        let pick = rng.next();
        let bits = rng.next();
        let unit = (bits >> 12) as f64 / (1u64 << 52) as f64; // [0, 1)
        let sign = if pick & 1 == 0 { 1.0 } else { -1.0 };
        sign * match (pick >> 1) % 5 {
            0 => 0.0,
            1 => f64::from_bits(bits >> 12), // subnormal (or zero)
            2 => (1.0 + unit) * 2f64.powi(900),
            3 => (1.0 + unit) * 2f64.powi(-900),
            _ => 2.0 * unit - 1.0,
        }
    })
}

#[test]
fn fp64_emulated_matches_softfloat_fma_reference_within_envelope() {
    // The independent oracle: m3xu_fp::softfloat, sequential
    // correctly-rounded FMA over k in ascending order — the IEEE answer
    // a hardware FP64 MAC pipeline would produce. The emulated engine
    // must return its bits on every element of every shape, dense and
    // adversarial, with one documented exception: an exact-zero sum
    // rounds to +0 where IEEE keeps −0 (DESIGN.md, "Signed zero"). A NaN
    // must meet a NaN; payloads may differ. `scripts/check.sh` gates
    // releases on this test.
    let ctx = M3xuContext::with_threads(2);
    let (mut nonfinite, mut signed_zero) = (0usize, 0usize);
    let dense: fn(usize, usize, u64) -> Matrix<f64> = Matrix::random_f64;
    for (case, &(m, k, n)) in shapes().iter().enumerate() {
        let seed = case as u64 * 13;
        for (kind, draw) in [("dense", dense), ("adversarial", adversarial_f64)] {
            let (a, b, c) = (
                draw(m, k, seed + 1),
                draw(k, n, seed + 2),
                draw(m, n, seed + 3),
            );
            let got = ctx
                .try_gemm_f64(GemmPrecision::Fp64Emulated, &a, &b, &c)
                .unwrap();
            for i in 0..m {
                for j in 0..n {
                    let mut acc = SoftFloat::new(c.get(i, j), FP64);
                    for l in 0..k {
                        acc = SoftFloat::new(a.get(i, l), FP64)
                            .fma(SoftFloat::new(b.get(l, j), FP64), acc);
                    }
                    let (g, w) = (got.d.get(i, j), acc.value());
                    let positive_for_negative_zero = g.to_bits() == 0 && w.to_bits() == 1 << 63;
                    nonfinite += usize::from(!w.is_finite());
                    signed_zero += usize::from(positive_for_negative_zero);
                    assert!(
                        g.to_bits() == w.to_bits()
                            || (g.is_nan() && w.is_nan())
                            || positive_for_negative_zero,
                        "case {case} {m}x{k}x{n} {kind} ({i},{j}): emulated {g:e} ({:#018x}) vs \
                         softfloat {w:e} ({:#018x})",
                        g.to_bits(),
                        w.to_bits(),
                    );
                }
            }
        }
    }
    // The adversarial operands reach the special-value paths.
    assert!(
        nonfinite > 0 && signed_zero > 0,
        "{nonfinite} non-finite, {signed_zero} ±0"
    );
}

#[test]
fn exact_zero_sum_rounds_to_positive_zero_on_every_engine() {
    // 0·(−1) + (−0): every addend is −0, so IEEE 754 returns −0. Every
    // engine rounds the exact sum from an integer datapath with no
    // negative zero and returns +0 (DESIGN.md, "Signed zero").
    let ctx = M3xuContext::with_threads(1);
    let one = |x: f32| Matrix::from_vec(1, 1, vec![x]);
    let (a, b, c) = (one(0.0), one(-1.0), one(-0.0));
    assert_eq!(0.0f32.mul_add(-1.0, -0.0).to_bits(), (-0.0f32).to_bits());
    for p in ENGINES.into_iter().chain([GemmPrecision::Fp32Fast]) {
        let d = ctx.try_gemm_f32(p, &a, &b, &c).unwrap().d;
        assert_eq!(d.get(0, 0).to_bits(), 0, "{p:?} context");
        if p != GemmPrecision::Fp32Fast {
            let d = gemm::baseline::gemm_f32(p, &a, &b, &c).d;
            assert_eq!(d.get(0, 0).to_bits(), 0, "{p:?} gemm::baseline");
        }
    }
    let one = |re, im| Matrix::from_vec(1, 1, vec![C32::new(re, im)]);
    let (a, b, c) = (one(0.0, 0.0), one(-1.0, -0.0), one(-0.0, -0.0));
    for (path, d) in [
        ("context", ctx.try_cgemm_c32(&a, &b, &c).unwrap().d),
        ("gemm::baseline", gemm::baseline::cgemm_c32(&a, &b, &c).d),
    ] {
        let z = d.get(0, 0);
        assert_eq!((z.re.to_bits(), z.im.to_bits()), (0, 0), "FP32C {path}");
    }
    let one = |x: f64| Matrix::from_vec(1, 1, vec![x]);
    let fp64_emulated = |a, b, c| {
        let r = ctx.try_gemm_f64(GemmPrecision::Fp64Emulated, &one(a), &one(b), &one(c));
        r.unwrap().d.get(0, 0).to_bits()
    };
    assert_eq!(fp64_emulated(0.0, -1.0, -0.0), 0, "Fp64Emulated");
    // A nonzero sum that underflows keeps its sign, as in IEEE.
    assert_eq!(fp64_emulated(-1e-200, 1e-200, 0.0), 1 << 63, "underflow");
}

/// Frobenius relative error of an f32 GEMM result against an `f64`
/// `mul_add` chain over the same operands.
fn frobenius_rel_error(d: &Matrix<f32>, a: &Matrix<f32>, b: &Matrix<f32>) -> f64 {
    let (mut err, mut norm) = (0.0f64, 0.0f64);
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let exact = (0..a.cols()).fold(0.0f64, |acc, l| {
                (a.get(i, l) as f64).mul_add(b.get(l, j) as f64, acc)
            });
            err += (d.get(i, j) as f64 - exact).powi(2);
            norm += exact * exact;
        }
    }
    (err / norm).sqrt()
}

#[test]
fn precision_dial_orders_into_three_accuracy_tiers() {
    // The f32 half of the dial falls into three tiers, each at least 4x
    // more accurate than the one above: BF16 (8-bit significands), then
    // FP16 and TF32 (11-bit), then fast and exact M3XU FP32. Within a
    // tier there is no order: at 256³ the fast schedule beat the exact
    // one on max error. Emulated FP64 is pinned by the softfloat test.
    let ctx = M3xuContext::with_threads(2);
    for (n, seed) in [(64usize, 0x71u64), (128, 0x72)] {
        let a = Matrix::<f32>::random(n, n, seed);
        let b = Matrix::<f32>::random(n, n, seed + 0x100);
        let c = Matrix::<f32>::zeros(n, n);
        let err = |p| {
            let d = ctx.try_gemm_f32(p, &a, &b, &c).unwrap().d;
            frobenius_rel_error(&d, &a, &b)
        };
        let tiers = [
            vec![err(GemmPrecision::Bf16)],
            vec![err(GemmPrecision::Fp16), err(GemmPrecision::Tf32)],
            vec![err(GemmPrecision::Fp32Fast), err(GemmPrecision::M3xuFp32)],
        ];
        for pair in tiers.windows(2) {
            let coarse = pair[0].iter().copied().fold(f64::INFINITY, f64::min);
            let fine = pair[1].iter().copied().fold(0.0, f64::max);
            assert!(
                fine > 0.0 && 4.0 * fine <= coarse,
                "{n}³: tiers {tiers:?} are not 4x apart"
            );
        }
    }
}

/// Serializes the tests that override the process-wide SIMD dispatch
/// level (the level is a global atomic; parity means concurrent tests
/// still see identical bits, but restore discipline keeps the suite
/// order-independent).
static LEVEL_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn exact_fp32_matches_baseline_at_every_simd_level_and_thread_count() {
    // The exact-FP32 contract (paper §III: 2-slice Ozaki covers the full
    // FP32 mantissa) must hold bit-for-bit against the unfused baseline
    // under every SIMD dispatch level the host supports crossed with
    // every thread count — no vectorization width or sharding choice may
    // leak into the result.
    let _guard = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let entry = simd::level();
    let mut levels = vec![SimdLevel::Scalar];
    for lvl in [SimdLevel::Sse2, SimdLevel::Avx2, SimdLevel::Avx512] {
        simd::set_level(lvl);
        if simd::level() == lvl {
            levels.push(lvl);
        }
    }
    for (case, &(m, k, n)) in shapes().iter().enumerate() {
        let a = Matrix::<f32>::random(m, k, case as u64 * 17 + 1);
        let b = Matrix::<f32>::random(k, n, case as u64 * 17 + 2);
        let c = Matrix::<f32>::random(m, n, case as u64 * 17 + 3);
        let want = gemm::baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
        for &lvl in &levels {
            simd::set_level(lvl);
            for &t in &THREAD_COUNTS {
                let ctx = M3xuContext::with_threads(t);
                let r = ctx
                    .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
                    .unwrap();
                assert_bits_f32(
                    &r.d,
                    &want.d,
                    &format!("case {case} {m}x{k}x{n} M3xuFp32 at {lvl:?} x {t} threads"),
                );
            }
        }
    }
    simd::set_level(entry);
}

#[test]
fn shape_generator_is_deterministic_and_covers_edges() {
    // The suite's coverage claims hold per construction; pin them so a
    // refactor of the generator can't silently drop them.
    let s1 = shapes();
    let s2 = shapes();
    assert_eq!(s1, s2, "shape stream must be deterministic");
    assert!(s1.iter().any(|&(m, _, _)| m == 0));
    assert!(s1.iter().any(|&(_, k, _)| k == 0));
    assert!(s1.iter().any(|&(_, _, n)| n == 0));
    assert!(s1.contains(&(1, 1, 1)));
    assert!(s1.contains(&(23, 29, 31)), "prime shape present");
    assert!(
        s1.iter()
            .any(|&(m, k, n)| m % 8 != 0 && n % 8 != 0 && k % 4 != 0),
        "non-multiple-of-fragment shape present"
    );
}
