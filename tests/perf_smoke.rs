//! Release-build performance smoke gate for the SIMD fragment pipeline.
//!
//! Opt-in: runs only with `M3XU_PERF_GATE=1` (and never in debug builds,
//! where the floors are meaningless). The floors are set far below the
//! measured release numbers — 256³ M3XU-FP32 and 128³ M3XU-FP32C both run
//! ~10x faster than the forced-scalar packed path on a 2-vCPU AVX2 Xeon,
//! the 4,096-point GEMM-FFT ~7.8x — so only a real regression (or a
//! Scalar-only host, which the gate skips) trips them. The FFT's floor
//! guards the vector window's admission bound: when its chunks fell back
//! to the scalar oracle it reached only ~1.9x.

use std::time::Instant;

use m3xu::default_context;
use m3xu::kernels::gemm::GemmPrecision;
use m3xu::mxu::packed::simd::{self, SimdLevel};
use m3xu::Matrix;

#[test]
fn simd_pipeline_beats_scalar_floor() {
    if std::env::var("M3XU_PERF_GATE").map(|v| v == "1") != Ok(true) {
        eprintln!("skipped: set M3XU_PERF_GATE=1 to run the perf smoke gate");
        return;
    }
    if cfg!(debug_assertions) {
        eprintln!("skipped: perf smoke gate only measures release builds");
        return;
    }
    let entry = simd::level();
    if entry == SimdLevel::Scalar {
        eprintln!("skipped: host resolves to the scalar path; nothing to gate");
        return;
    }

    let n = 256;
    let a = Matrix::<f32>::random(n, n, 0x51);
    let b = Matrix::<f32>::random(n, n, 0x52);
    let c = Matrix::<f32>::zeros(n, n);
    let fp32 = speedup(entry, &format!("FP32 {n}^3"), &|| {
        std::hint::black_box(
            default_context()
                .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
                .unwrap(),
        );
    });
    let n = 128;
    let ca = Matrix::random_c32(n, n, 0x53);
    let cb = Matrix::random_c32(n, n, 0x54);
    let cc = Matrix::random_c32(n, n, 0x55);
    let fp32c = speedup(entry, &format!("FP32C {n}^3"), &|| {
        std::hint::black_box(default_context().try_cgemm_c32(&ca, &cb, &cc).unwrap());
    });
    let n = 4096;
    let x = Matrix::random_c32(n, 1, 0x56);
    let fft = speedup(entry, &format!("GEMM-FFT {n}-point"), &|| {
        std::hint::black_box(default_context().try_gemm_fft(x.as_slice()).unwrap());
    });
    // Floor at 3x for both GEMM modes (measured ~10x): anything under 3x
    // means the vector pipeline effectively stopped working. The FFT's 4x
    // floor (measured ~7.8x) trips when its chunks leave the window.
    for (what, s, floor) in [
        ("FP32", fp32, 3.0),
        ("FP32C", fp32c, 3.0),
        ("GEMM-FFT", fft, 4.0),
    ] {
        assert!(
            s >= floor,
            "{what} SIMD pipeline speedup {s:.2}x fell below the {floor}x floor at {entry:?}"
        );
    }
}

/// Best-of-2 wall time of `f` at the forced-scalar level over the same
/// at the entry level (each path warmed once first), printed as one row.
fn speedup(entry: SimdLevel, what: &str, f: &dyn Fn()) -> f64 {
    let best = || {
        f();
        let mut best = f64::MAX;
        for _ in 0..2 {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    };
    let simd_s = best();
    simd::set_level(SimdLevel::Scalar);
    let scalar_s = best();
    simd::set_level(entry);
    let speedup = scalar_s / simd_s;
    eprintln!(
        "perf smoke: {what} scalar {:.0} ms, simd {:.0} ms, speedup {speedup:.2}x at {entry:?}",
        scalar_s * 1e3,
        simd_s * 1e3
    );
    speedup
}
