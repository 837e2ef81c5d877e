//! `bench_gemm` — throughput of the packed fragment pipeline against the
//! seed per-fragment driver, on the same inputs, with bit-identical
//! outputs asserted inline. The packed pipeline is timed twice — once at
//! the host's detected SIMD level and once forced scalar (`M3XU_SIMD=0`
//! equivalent) — so every row carries its own before/after pair. Emits
//! `results/BENCH_gemm.json`.
//!
//! A second sweep walks the whole precision dial —
//! [`GemmPrecision::ALL`], `Fp16` through `Fp64Emulated` — at 256^3 and
//! 512^3, recording wall time, per-mode MMA instruction/step/lane
//! counts, and the max-ULP error of every element against a sequential
//! correctly-rounded FP64 FMA reference. Emits
//! `results/BENCH_precision.json`.
//!
//! Default sizes: 256^3 and 512^3 M3XU-FP32 GEMM, and 512 / 4096 / 65536
//! point GEMM-formulated FFTs. Set `M3XU_BENCH_LARGE=1` to add the
//! 1024^3 GEMM.

use m3xu_bench::{dump_json, timing::fmt_duration};
use m3xu_json::impl_to_json;
use m3xu_kernels::fft;
use m3xu_kernels::gemm::{self, baseline, GemmPrecision};
use m3xu_kernels::{default_context, M3xuContext};
use m3xu_mxu::matrix::{MatOp, Matrix, Triangle};
use m3xu_mxu::modes::MxuMode;
use m3xu_mxu::packed::simd::{self, SimdLevel};
use std::time::{Duration, Instant};

/// One GEMM size: wall-clock of both drivers plus derived throughput.
struct GemmRow {
    /// Problem size `n` of the `n^3` GEMM.
    n: u64,
    /// Seed (per-fragment) driver wall-clock, seconds.
    seed_s: f64,
    /// Packed-pipeline wall-clock at the active SIMD level, seconds.
    packed_s: f64,
    /// `seed_s / packed_s`.
    speedup: f64,
    /// Packed-pipeline wall-clock with SIMD forced off (the scalar
    /// oracle path), seconds.
    packed_scalar_s: f64,
    /// `packed_scalar_s / packed_s` — what the vector pipeline buys over
    /// the scalar packed path on identical inputs.
    simd_speedup: f64,
    /// MMA fragments the GEMM issued.
    fragments: u64,
    /// MMA instructions recorded by the context's `ExecStats` sink
    /// (equals `fragments`: one instruction per fragment).
    mma_instructions: u64,
    /// MXU-occupying steps (2x `mma_instructions` in M3XU FP32 mode —
    /// §V-B1 rule (a)).
    mma_steps: u64,
    /// A/B operand bytes at the mode's storage width — rule (c).
    operand_bytes: u64,
    /// Packed-pipeline fragment throughput (active SIMD level).
    packed_fragments_per_s: f64,
    /// Effective `2 n^3` GFLOP/s of the packed pipeline (active level).
    packed_gflops: f64,
}
impl_to_json!(GemmRow {
    n,
    seed_s,
    packed_s,
    speedup,
    packed_scalar_s,
    simd_speedup,
    fragments,
    mma_instructions,
    mma_steps,
    operand_bytes,
    packed_fragments_per_s,
    packed_gflops
});

/// One FFT size: wall-clock of the identical decomposition over both
/// CGEMM drivers.
struct FftRow {
    /// Transform length in points.
    points: u64,
    /// Seed-driver wall-clock, seconds.
    seed_s: f64,
    /// Packed-pipeline wall-clock at the active SIMD level, seconds.
    packed_s: f64,
    /// `seed_s / packed_s`.
    speedup: f64,
    /// Packed-pipeline wall-clock with SIMD forced off, seconds.
    packed_scalar_s: f64,
    /// `packed_scalar_s / packed_s`.
    simd_speedup: f64,
}
impl_to_json!(FftRow {
    points,
    seed_s,
    packed_s,
    speedup,
    packed_scalar_s,
    simd_speedup
});

/// The full report written to `results/BENCH_gemm.json`.
struct Report {
    /// Worker threads both drivers were allowed to use.
    threads: u64,
    /// The SIMD level `packed_s` ran at (`packed_scalar_s` is always
    /// `Scalar`).
    simd_level: String,
    /// M3XU-FP32 GEMM rows.
    gemm_fp32: Vec<GemmRow>,
    /// FP32C GEMM-FFT rows.
    fft_fp32c: Vec<FftRow>,
}
impl_to_json!(Report {
    threads,
    simd_level,
    gemm_fp32,
    fft_fp32c
});

/// One row of the precision-dial sweep: a single `n^3` GEMM at one
/// [`GemmPrecision`], with its cost and accuracy columns.
struct PrecisionRow {
    /// Problem size `n` of the `n^3` GEMM.
    n: u64,
    /// The [`GemmPrecision`] variant.
    precision: String,
    /// The [`MxuMode`] it executes in.
    mode: String,
    /// Packed-pipeline wall-clock, seconds (best of a few reps).
    wall_s: f64,
    /// MMA instructions recorded in this mode's `ExecStats` slot.
    mma_instructions: u64,
    /// MXU-occupying steps — where `Fp64Emulated`'s 7x shows up.
    mma_steps: u64,
    /// Active lane products — where `Fp32Fast`'s truncation shows up.
    mma_lane_products: u64,
    /// A/B operand bytes at the mode's storage width.
    operand_bytes: u64,
    /// Max per-element ULP distance from a sequential correctly-rounded
    /// FP64 FMA reference (measured in the result's own element width:
    /// f32 ULPs for the f32 family, f64 ULPs for `Fp64Emulated`).
    max_ulp: u64,
}
impl_to_json!(PrecisionRow {
    n,
    precision,
    mode,
    wall_s,
    mma_instructions,
    mma_steps,
    mma_lane_products,
    operand_bytes,
    max_ulp
});

/// The precision-sweep report written to `results/BENCH_precision.json`.
struct PrecisionReport {
    /// Worker threads the sweep ran on.
    threads: u64,
    /// Active SIMD dispatch level.
    simd_level: String,
    /// One row per (size, precision).
    rows: Vec<PrecisionRow>,
}
impl_to_json!(PrecisionReport {
    threads,
    simd_level,
    rows
});

/// One rank-k row of the BLAS-3 sweep: SYRK writing one triangle against
/// the equivalent full `op(A)·op(A)^T` GEMM on the same operands, with
/// the in-triangle bits asserted identical between the two paths.
struct Blas3Row {
    /// Output dimension `n` of the `n x n` update.
    n: u64,
    /// Contraction depth `k`.
    k: u64,
    /// SYRK (one-triangle) wall-clock, seconds.
    syrk_s: f64,
    /// Full `op(A)·op(A)^T` GEMM wall-clock, seconds.
    full_s: f64,
    /// `full_s / syrk_s` — the wall-clock the triangle scheduler saves.
    speedup: f64,
    /// MMA instructions the SYRK issued.
    syrk_instructions: u64,
    /// MMA instructions the full GEMM issued.
    full_instructions: u64,
    /// `full_instructions / syrk_instructions` — approaches 2x as the
    /// tile grid grows (T^2 vs T(T+1)/2 tiles).
    instruction_ratio: f64,
    /// Output tiles the SYRK scheduled (the triangle).
    syrk_tiles: u64,
    /// Output tiles the full GEMM scheduled (the square).
    full_tiles: u64,
}
impl_to_json!(Blas3Row {
    n,
    k,
    syrk_s,
    full_s,
    speedup,
    syrk_instructions,
    full_instructions,
    instruction_ratio,
    syrk_tiles,
    full_tiles
});

/// The BLAS-3 rank-k report written to `results/BENCH_blas3.json`.
struct Blas3Report {
    /// Worker threads the sweep ran on.
    threads: u64,
    /// Active SIMD dispatch level.
    simd_level: String,
    /// One row per (n, k) size.
    syrk_fp32: Vec<Blas3Row>,
}
impl_to_json!(Blas3Report {
    threads,
    simd_level,
    syrk_fp32
});

/// Monotone integer key over f64 bit patterns (negatives reversed), so
/// ULP distance is a plain integer difference.
fn key64(v: f64) -> i64 {
    let b = v.to_bits() as i64;
    if b < 0 {
        i64::MIN.wrapping_add(b.wrapping_neg())
    } else {
        b
    }
}

fn ulp64(x: f64, y: f64) -> u64 {
    if x == y {
        return 0; // covers -0.0 vs +0.0
    }
    key64(x).abs_diff(key64(y))
}

fn key32(v: f32) -> i64 {
    let b = v.to_bits() as i32;
    (if b < 0 {
        i32::MIN.wrapping_add(b.wrapping_neg())
    } else {
        b
    }) as i64
}

fn ulp32(x: f32, y: f32) -> u64 {
    if x == y {
        return 0;
    }
    key32(x).abs_diff(key32(y))
}

/// Sequential correctly-rounded FP64 FMA reference for f32 operands:
/// the answer a native FP64 MAC pipeline would produce, before the
/// final narrowing to f32.
fn reference_f64_of_f32(a: &Matrix<f32>, b: &Matrix<f32>, c: &Matrix<f32>) -> Vec<f64> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0f64; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = c.get(i, j) as f64;
            for l in 0..k {
                acc = (a.get(i, l) as f64).mul_add(b.get(l, j) as f64, acc);
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// One precision-dial row: run the GEMM in `precision` through a private
/// context, meter its per-mode counters, and measure max-ULP against the
/// FP64 FMA reference.
fn bench_precision(
    n: usize,
    reps: usize,
    precision: GemmPrecision,
    a32: &Matrix<f32>,
    b32: &Matrix<f32>,
    c32: &Matrix<f32>,
    reference: &[f64],
) -> PrecisionRow {
    let mode = precision.mode();
    let ctx = M3xuContext::new();
    // One metered correctness pass first — its ExecStats snapshot is the
    // row's cost column (the timing reps below would multiply it).
    let (exec, wall_s, max_ulp) = if precision == GemmPrecision::Fp64Emulated {
        // The f64 entry point: widen the same operand values, so the
        // reference (exact in f64 for f32-valued inputs) is shared.
        let a = Matrix::from_fn(n, n, |i, j| a32.get(i, j) as f64);
        let b = Matrix::from_fn(n, n, |i, j| b32.get(i, j) as f64);
        let c = Matrix::from_fn(n, n, |i, j| c32.get(i, j) as f64);
        let r = ctx.try_gemm_f64(precision, &a, &b, &c).unwrap();
        let exec = ctx.stats();
        let max_ulp =
            r.d.as_slice()
                .iter()
                .zip(reference)
                .map(|(x, y)| ulp64(*x, *y))
                .max()
                .unwrap_or(0);
        let wall_s = best_of(reps, || {
            std::hint::black_box(ctx.try_gemm_f64(precision, &a, &b, &c).unwrap());
        });
        (exec, wall_s, max_ulp)
    } else {
        let r = ctx.try_gemm_f32(precision, a32, b32, c32).unwrap();
        let exec = ctx.stats();
        let max_ulp =
            r.d.as_slice()
                .iter()
                .zip(reference)
                .map(|(x, y)| ulp32(*x, *y as f32))
                .max()
                .unwrap_or(0);
        let wall_s = best_of(reps, || {
            std::hint::black_box(ctx.try_gemm_f32(precision, a32, b32, c32).unwrap());
        });
        (exec, wall_s, max_ulp)
    };
    let slot = exec.mode(mode);
    PrecisionRow {
        n: n as u64,
        precision: format!("{precision:?}"),
        mode: format!("{mode:?}"),
        wall_s,
        mma_instructions: slot.instructions,
        mma_steps: slot.steps,
        mma_lane_products: slot.lane_products,
        operand_bytes: exec.operand_bytes,
        max_ulp,
    }
}

/// Best-of-`reps` wall time of `f`.
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed());
    }
    best.as_secs_f64()
}

fn bench_gemm(n: usize, reps: usize, active: SimdLevel) -> GemmRow {
    let a = Matrix::<f32>::random(n, n, 0xA + n as u64);
    let b = Matrix::<f32>::random(n, n, 0xB + n as u64);
    let c = Matrix::<f32>::zeros(n, n);
    let seed_r = baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
    // Run the correctness pass through a private context so its ExecStats
    // (instructions, steps, operand bytes) land in the JSON row.
    let ctx = M3xuContext::new();
    let packed_r = ctx
        .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
        .unwrap();
    let exec = ctx.stats();
    assert_eq!(
        seed_r.d, packed_r.d,
        "packed GEMM diverged from the seed driver at n={n}"
    );
    assert_eq!(seed_r.stats, packed_r.stats, "stats diverged at n={n}");
    let seed_s = best_of(reps, || {
        std::hint::black_box(baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c));
    });
    let packed_s = best_of(reps, || {
        std::hint::black_box(
            default_context()
                .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
                .unwrap(),
        );
    });
    // The same pipeline through the scalar oracle path — bit-identity
    // asserted here too, so the before/after pair is provably the same
    // computation.
    simd::set_level(SimdLevel::Scalar);
    let scalar_r = default_context()
        .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
        .unwrap();
    assert_eq!(
        scalar_r.d, packed_r.d,
        "scalar packed GEMM diverged from the SIMD path at n={n}"
    );
    let packed_scalar_s = best_of(reps, || {
        std::hint::black_box(
            default_context()
                .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
                .unwrap(),
        );
    });
    simd::set_level(active);
    let flops = 2.0 * (n as f64).powi(3);
    GemmRow {
        n: n as u64,
        seed_s,
        packed_s,
        speedup: seed_s / packed_s,
        packed_scalar_s,
        simd_speedup: packed_scalar_s / packed_s,
        fragments: packed_r.stats.instructions,
        mma_instructions: exec.mode(MxuMode::M3xuFp32).instructions,
        mma_steps: exec.mode(MxuMode::M3xuFp32).steps,
        operand_bytes: exec.operand_bytes,
        packed_fragments_per_s: packed_r.stats.instructions as f64 / packed_s,
        packed_gflops: flops / packed_s / 1e9,
    }
}

/// One BLAS-3 rank-k row: a Lower-triangle SYRK against the equivalent
/// full `A·A^T` op-GEMM, bit-compared inside the stored triangle.
fn bench_syrk(n: usize, k: usize, reps: usize) -> Blas3Row {
    let a = Matrix::<f32>::random(n, k, 0x51 + n as u64);
    let c = Matrix::<f32>::random(n, n, 0x52 + n as u64);
    let p = GemmPrecision::M3xuFp32;
    let tri_ctx = M3xuContext::new();
    let tri_r = tri_ctx
        .try_syrk_f32(p, Triangle::Lower, MatOp::N, &a, 1.0, 0.0, &c)
        .unwrap();
    let tri_exec = tri_ctx.stats();
    let full_ctx = M3xuContext::new();
    let full_r = full_ctx
        .try_gemm_op_f32(p, MatOp::N, &a, MatOp::T, &a, 1.0, 0.0, &c)
        .unwrap();
    let full_exec = full_ctx.stats();
    for i in 0..n {
        for j in 0..=i {
            assert_eq!(
                tri_r.d.get(i, j).to_bits(),
                full_r.d.get(i, j).to_bits(),
                "syrk diverged from the full rank-k GEMM at n={n} ({i},{j})"
            );
        }
    }
    let syrk_s = best_of(reps, || {
        std::hint::black_box(
            tri_ctx
                .try_syrk_f32(p, Triangle::Lower, MatOp::N, &a, 1.0, 0.0, &c)
                .unwrap(),
        );
    });
    let full_s = best_of(reps, || {
        std::hint::black_box(
            full_ctx
                .try_gemm_op_f32(p, MatOp::N, &a, MatOp::T, &a, 1.0, 0.0, &c)
                .unwrap(),
        );
    });
    Blas3Row {
        n: n as u64,
        k: k as u64,
        syrk_s,
        full_s,
        speedup: full_s / syrk_s,
        syrk_instructions: tri_r.stats.instructions,
        full_instructions: full_r.stats.instructions,
        instruction_ratio: full_r.stats.instructions as f64 / tri_r.stats.instructions as f64,
        syrk_tiles: tri_exec.tiles,
        full_tiles: full_exec.tiles,
    }
}

fn bench_fft(points: usize, reps: usize, active: SimdLevel) -> FftRow {
    let m = Matrix::random_c32(points, 1, 0xF0 + points as u64);
    let x: Vec<m3xu_fp::C32> = (0..points).map(|i| m.get(i, 0)).collect();
    let (seed_out, _) = fft::gemm_fft_with(&x, baseline::cgemm_c32);
    let (packed_out, _) = fft::gemm_fft(&x);
    for (s, p) in seed_out.iter().zip(&packed_out) {
        assert_eq!(
            (s.re.to_bits(), s.im.to_bits()),
            (p.re.to_bits(), p.im.to_bits()),
            "packed FFT diverged from the seed driver at {points} points"
        );
    }
    let seed_s = best_of(reps, || {
        std::hint::black_box(fft::gemm_fft_with(&x, |f, v, c| {
            baseline::cgemm_c32(f, v, c)
        }));
    });
    let packed_s = best_of(reps, || {
        std::hint::black_box(fft::gemm_fft(&x));
    });
    simd::set_level(SimdLevel::Scalar);
    let (scalar_out, _) = fft::gemm_fft(&x);
    for (s, p) in scalar_out.iter().zip(&packed_out) {
        assert_eq!(
            (s.re.to_bits(), s.im.to_bits()),
            (p.re.to_bits(), p.im.to_bits()),
            "scalar packed FFT diverged from the SIMD path at {points} points"
        );
    }
    let packed_scalar_s = best_of(reps, || {
        std::hint::black_box(fft::gemm_fft(&x));
    });
    simd::set_level(active);
    FftRow {
        points: points as u64,
        seed_s,
        packed_s,
        speedup: seed_s / packed_s,
        packed_scalar_s,
        simd_speedup: packed_scalar_s / packed_s,
    }
}

fn main() {
    let large = std::env::var("M3XU_BENCH_LARGE")
        .map(|v| v == "1")
        .unwrap_or(false);
    let active = simd::level();
    println!(
        "packed vs seed GEMM/CGEMM drivers ({} worker threads, SIMD {:?})\n",
        gemm::workers(),
        active
    );

    let mut gemm_rows = vec![bench_gemm(256, 2, active), bench_gemm(512, 1, active)];
    if large {
        gemm_rows.push(bench_gemm(1024, 1, active));
    }
    for r in &gemm_rows {
        println!(
            "gemm {0}^3: seed {1:>10}  scalar {2:>10}  simd {3:>10}  simd speedup {4:.2}x  ({5:.1} Mfrag/s, {6:.2} eff GFLOP/s)",
            r.n,
            fmt_duration(Duration::from_secs_f64(r.seed_s)),
            fmt_duration(Duration::from_secs_f64(r.packed_scalar_s)),
            fmt_duration(Duration::from_secs_f64(r.packed_s)),
            r.simd_speedup,
            r.packed_fragments_per_s / 1e6,
            r.packed_gflops,
        );
    }

    let fft_rows = vec![
        bench_fft(512, 5, active),
        bench_fft(4096, 3, active),
        bench_fft(65536, 1, active),
    ];
    for r in &fft_rows {
        println!(
            "fft {0:>6} pts: seed {1:>10}  scalar {2:>10}  simd {3:>10}  simd speedup {4:.2}x",
            r.points,
            fmt_duration(Duration::from_secs_f64(r.seed_s)),
            fmt_duration(Duration::from_secs_f64(r.packed_scalar_s)),
            fmt_duration(Duration::from_secs_f64(r.packed_s)),
            r.simd_speedup,
        );
    }

    let report = Report {
        threads: gemm::workers() as u64,
        simd_level: format!("{active:?}"),
        gemm_fp32: gemm_rows,
        fft_fp32c: fft_rows,
    };
    dump_json("BENCH_gemm", &report).expect("write results/BENCH_gemm.json");
    println!("\nwrote results/BENCH_gemm.json");

    println!("\nBLAS-3 rank-k sweep (SYRK triangle vs full op-GEMM)\n");
    let mut blas3_rows = vec![bench_syrk(128, 128, 3), bench_syrk(256, 256, 2)];
    if large {
        blas3_rows.push(bench_syrk(512, 512, 1));
    }
    for r in &blas3_rows {
        println!(
            "syrk {0}x{0} k={1}: full {2:>10}  tri {3:>10}  speedup {4:.2}x  instr ratio {5:.2}x  tiles {6}/{7}",
            r.n,
            r.k,
            fmt_duration(Duration::from_secs_f64(r.full_s)),
            fmt_duration(Duration::from_secs_f64(r.syrk_s)),
            r.speedup,
            r.instruction_ratio,
            r.syrk_tiles,
            r.full_tiles,
        );
    }
    let blas3_report = Blas3Report {
        threads: gemm::workers() as u64,
        simd_level: format!("{active:?}"),
        syrk_fp32: blas3_rows,
    };
    dump_json("BENCH_blas3", &blas3_report).expect("write results/BENCH_blas3.json");
    println!("\nwrote results/BENCH_blas3.json");

    println!("\nprecision dial sweep (error vs an exact-in-f64 reference)\n");
    let mut precision_rows = Vec::new();
    for &(n, reps) in &[(256usize, 2usize), (512, 1)] {
        let a32 = Matrix::<f32>::random(n, n, 0xA + n as u64);
        let b32 = Matrix::<f32>::random(n, n, 0xB + n as u64);
        let c32 = Matrix::<f32>::zeros(n, n);
        let reference = reference_f64_of_f32(&a32, &b32, &c32);
        for precision in GemmPrecision::ALL {
            let row = bench_precision(n, reps, precision, &a32, &b32, &c32, &reference);
            println!(
                "gemm {0}^3 {1:>12}: {2:>10}  {3:>9} mma  {4:>12} lanes  max ulp {5}",
                row.n,
                row.precision,
                fmt_duration(Duration::from_secs_f64(row.wall_s)),
                row.mma_instructions,
                row.mma_lane_products,
                row.max_ulp,
            );
            precision_rows.push(row);
        }
    }
    let precision_report = PrecisionReport {
        threads: gemm::workers() as u64,
        simd_level: format!("{active:?}"),
        rows: precision_rows,
    };
    dump_json("BENCH_precision", &precision_report).expect("write results/BENCH_precision.json");
    println!("\nwrote results/BENCH_precision.json");
}
