//! `M3XU_SIMD=0` kill switch: setting the variable before the first
//! dispatch resolves must pin the process to the scalar oracle path and
//! still produce baseline-identical GEMM output.
//!
//! This lives in its own integration-test binary so the env var is set
//! before *any* code touches the process-wide level cell; keep it to a
//! single `#[test]` so no parallel test races the first resolution.

use m3xu::default_context;
use m3xu::kernels::gemm::{baseline, GemmPrecision};
use m3xu::mxu::packed::simd::{self, SimdLevel};
use m3xu::Matrix;

#[test]
fn kill_switch_pins_scalar_and_preserves_bits() {
    std::env::set_var("M3XU_SIMD", "0");
    assert_eq!(
        simd::level(),
        SimdLevel::Scalar,
        "M3XU_SIMD=0 must resolve to the scalar path"
    );

    let a = Matrix::<f32>::random(33, 29, 0xDEAD);
    let b = Matrix::<f32>::random(29, 41, 0xBEEF);
    let c = Matrix::<f32>::random(33, 41, 0xF00D);
    for precision in [GemmPrecision::M3xuFp32, GemmPrecision::Tf32] {
        let want = baseline::gemm_f32(precision, &a, &b, &c);
        let got = default_context()
            .try_gemm_f32(precision, &a, &b, &c)
            .unwrap();
        for i in 0..want.d.rows() {
            for j in 0..want.d.cols() {
                assert_eq!(
                    got.d.get(i, j).to_bits(),
                    want.d.get(i, j).to_bits(),
                    "{precision:?} ({i},{j}) under the kill switch"
                );
            }
        }
    }
    // The level stays pinned: later set_level calls still clamp to what
    // the host supports, but the resolved default must not have moved.
    assert_eq!(simd::level(), SimdLevel::Scalar);
}
