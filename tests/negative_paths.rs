//! Negative-path coverage for the fallible (`try_*`) API: every public
//! entry point must report invalid input as a typed [`M3xuError`] — never
//! a panic — and must do so identically whatever the worker-pool size.

use m3xu::kernels::conv2d::{try_conv2d, ConvSpec, Tensor3};
use m3xu::kernels::conv_grad::{try_conv2d_dgrad, try_conv2d_wgrad};
use m3xu::kernels::fft::fft2d::try_fft2d;
use m3xu::kernels::fft::{try_gemm_fft, try_inverse_radix2, try_radix2, C32};
use m3xu::kernels::knn::try_knn_gemm;
use m3xu::kernels::poly::{try_cyclic_convolution, try_poly_mul_int};
use m3xu::kernels::quantum::{Gate, QuantumRegister, MAX_QUBITS};
use m3xu::kernels::solver::try_conjugate_gradient;
use m3xu::kernels::M3xuContext;
use m3xu::{Complex, GemmPrecision, M3xuError, Matrix};

/// The pool sizes every GEMM-backed negative path is exercised under:
/// inline, the smallest parallel pool, and a deliberately oversubscribed
/// one.
const POOL_SIZES: [usize; 3] = [1, 2, 8];

#[test]
fn gemm_rejects_mismatched_inner_dimensions_under_all_pool_sizes() {
    let a = Matrix::<f32>::random(8, 5, 1);
    let b = Matrix::<f32>::random(6, 8, 2); // inner dim 5 != 6
    let c = Matrix::<f32>::zeros(8, 8);
    for threads in POOL_SIZES {
        let ctx = M3xuContext::with_threads(threads);
        let err = ctx
            .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
            .unwrap_err();
        assert!(
            matches!(err, M3xuError::ShapeMismatch { .. }),
            "pool size {threads}: {err}"
        );
    }
}

#[test]
fn gemm_rejects_wrong_c_shape_under_all_pool_sizes() {
    let a = Matrix::<f32>::random(8, 4, 3);
    let b = Matrix::<f32>::random(4, 8, 4);
    let c = Matrix::<f32>::zeros(8, 7); // must be 8 x 8
    for threads in POOL_SIZES {
        let ctx = M3xuContext::with_threads(threads);
        let err = ctx
            .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
            .unwrap_err();
        assert!(
            matches!(
                err,
                M3xuError::ShapeMismatch {
                    expected: (8, 8),
                    got: (8, 7),
                    ..
                }
            ),
            "pool size {threads}: {err}"
        );
    }
}

#[test]
fn cgemm_rejects_mismatched_shapes_under_all_pool_sizes() {
    let a = Matrix::random_c32(4, 4, 5);
    let b = Matrix::random_c32(3, 4, 6);
    let c = Matrix::<Complex<f32>>::zeros(4, 4);
    for threads in POOL_SIZES {
        let ctx = M3xuContext::with_threads(threads);
        let err = ctx.try_cgemm_c32(&a, &b, &c).unwrap_err();
        assert!(
            matches!(err, M3xuError::ShapeMismatch { .. }),
            "pool size {threads}: {err}"
        );
    }
}

#[test]
fn fft_entry_points_reject_non_power_of_two_lengths() {
    let x = vec![C32::ZERO; 10];
    for err in [
        try_radix2(&x).unwrap_err(),
        try_inverse_radix2(&x).unwrap_err(),
        try_gemm_fft(&x).map(|_| ()).unwrap_err(),
    ] {
        assert!(matches!(
            err,
            M3xuError::NonPowerOfTwoLength { len: 10, .. }
        ));
    }
    // Non-power-of-two extents in either image dimension.
    let img = Matrix::random_c32(8, 10, 7);
    assert!(matches!(
        try_fft2d(&img).map(|_| ()).unwrap_err(),
        M3xuError::NonPowerOfTwoLength { len: 10, .. }
    ));
}

#[test]
fn fft_zero_and_one_point_transforms_are_identity() {
    // Edge sizes: both are powers of two (1) or trivially empty (0) and
    // must not panic in the bit-reversal shift.
    assert_eq!(try_radix2(&[]).unwrap(), Vec::<C32>::new());
    let one = [Complex::new(3.0f32, -2.0)];
    assert_eq!(try_radix2(&one).unwrap(), one.to_vec());
    let (spec, _) = try_gemm_fft(&one).unwrap();
    assert_eq!(spec, one.to_vec());
}

#[test]
fn knn_rejects_invalid_k_and_dimension_mismatch() {
    let refs = Matrix::<f32>::random(12, 6, 8);
    let wrong_dim = Matrix::<f32>::random(4, 5, 9);
    assert!(matches!(
        try_knn_gemm(GemmPrecision::M3xuFp32, &refs, &wrong_dim, 3).unwrap_err(),
        M3xuError::ShapeMismatch { .. }
    ));
    let queries = Matrix::<f32>::random(4, 6, 10);
    assert!(matches!(
        try_knn_gemm(GemmPrecision::M3xuFp32, &refs, &queries, 13).unwrap_err(),
        M3xuError::InvalidK { k: 13, max: 12 }
    ));
    // k == 0 is a graceful empty result, not an error.
    let r = try_knn_gemm(GemmPrecision::M3xuFp32, &refs, &queries, 0).unwrap();
    assert!(r.indices.iter().all(Vec::is_empty));
}

#[test]
fn conv_rejects_degenerate_specs_and_shapes() {
    let x = Tensor3::random(2, 6, 6, 11);
    let f = Matrix::<f32>::random(3, 2 * 9, 12);
    let good = ConvSpec {
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    for bad in [
        ConvSpec { kernel: 0, ..good },
        ConvSpec { stride: 0, ..good },
        ConvSpec {
            kernel: 9,
            stride: 1,
            padding: 0,
        },
    ] {
        assert!(try_conv2d(GemmPrecision::M3xuFp32, &x, &f, &[0.0; 3], bad).is_err());
    }
    // Bias length mismatch.
    assert!(matches!(
        try_conv2d(GemmPrecision::M3xuFp32, &x, &f, &[0.0; 2], good).unwrap_err(),
        M3xuError::ShapeMismatch { .. }
    ));
    // Gradient passes reject a dy that disagrees with the forward output.
    let bad_dy = Tensor3::zeros(3, 2, 2);
    assert!(try_conv2d_wgrad(GemmPrecision::M3xuFp32, &x, &bad_dy, good).is_err());
    assert!(try_conv2d_dgrad(GemmPrecision::M3xuFp32, &f, &bad_dy, (2, 6, 6), good).is_err());
}

#[test]
fn solver_rejects_inconsistent_systems() {
    let a = Matrix::<f32>::random(6, 4, 13);
    let b = vec![0.5f32; 6];
    assert!(matches!(
        try_conjugate_gradient(GemmPrecision::M3xuFp32, &a, &b, 1e-6, 10).unwrap_err(),
        M3xuError::ShapeMismatch { .. }
    ));
}

#[test]
fn poly_rejects_unrepresentable_coefficients_and_bad_lengths() {
    assert!(matches!(
        try_poly_mul_int(&[(1i64 << 25) + 1], &[1]).unwrap_err(),
        M3xuError::PrecisionLoss { .. }
    ));
    assert!(matches!(
        try_cyclic_convolution(&[0.0; 3], &[0.0; 3]).unwrap_err(),
        M3xuError::NonPowerOfTwoLength { len: 3, .. }
    ));
    assert!(matches!(
        try_cyclic_convolution(&[0.0; 4], &[0.0; 8]).unwrap_err(),
        M3xuError::ShapeMismatch { .. }
    ));
}

#[test]
fn quantum_register_reports_out_of_range_arguments() {
    assert!(matches!(
        QuantumRegister::try_new(0).unwrap_err(),
        M3xuError::OutOfRange { value: 0, .. }
    ));
    assert!(QuantumRegister::try_new(MAX_QUBITS + 1).is_err());
    let mut reg = QuantumRegister::try_new(3).unwrap();
    assert!(matches!(
        reg.try_apply(Gate::X, 3).unwrap_err(),
        M3xuError::OutOfRange { value: 3, .. }
    ));
    assert!(matches!(
        reg.try_cnot(2, 2).unwrap_err(),
        M3xuError::InvalidArgument { .. }
    ));
}

#[test]
fn zero_sized_gemm_edges_are_graceful() {
    // Degenerate-but-consistent shapes must succeed (empty result), not
    // error or panic.
    let a = Matrix::<f32>::zeros(0, 4);
    let b = Matrix::<f32>::zeros(4, 0);
    let c = Matrix::<f32>::zeros(0, 0);
    for threads in POOL_SIZES {
        let ctx = M3xuContext::with_threads(threads);
        let r = ctx
            .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
            .unwrap();
        assert_eq!((r.d.rows(), r.d.cols()), (0, 0));
    }
}

#[test]
fn errors_format_and_compare_cleanly() {
    let dev = m3xu::M3xu::new();
    let e = dev.try_fft(&[C32::ZERO; 6]).unwrap_err();
    let msg = format!("{e}");
    assert!(msg.contains('6'), "message should name the length: {msg}");
    assert_eq!(e.clone(), e);
    // It is a real std error, usable with `Box<dyn Error>` plumbing.
    let boxed: Box<dyn std::error::Error> = Box::new(e);
    assert!(!boxed.to_string().is_empty());
}
