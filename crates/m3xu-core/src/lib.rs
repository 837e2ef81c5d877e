//! # m3xu-core — the public API of the M3XU reproduction
//!
//! A downstream user's entry point: construct an [`M3xu`] device and call
//! [`gemm`](M3xu::gemm) / [`cgemm`](M3xu::cgemm) / [`fft`](M3xu::fft) on
//! plain FP32 / FP32C data. No data-format changes, no precision loss —
//! the paper's deployment story ("M3XU does not require any modification
//! to existing programs").
//!
//! Every GEMM-family op comes here as a pair: a fallible `try_*` method
//! that runs on the process-wide [`default_context`], and the panicking
//! form over it. This facade is the only layer with panicking GEMM-family
//! forms; below it, [`M3xuContext`] has one fallible method per op.
//!
//! ```
//! use m3xu_core::{M3xu, Matrix};
//!
//! let dev = M3xu::new();
//! let a = Matrix::<f32>::random(32, 32, 1);
//! let b = Matrix::<f32>::random(32, 32, 2);
//! let d = dev.gemm(&a, &b);
//! assert_eq!(d.rows(), 32);
//! ```

#![warn(missing_docs)]

pub use m3xu_fp::complex::{Complex, C32, C64};
pub use m3xu_gpu::config::GpuConfig;
pub use m3xu_kernels::blas3::Side;
pub use m3xu_kernels::context::{default_context, ExecStats, GemmExecutor, M3xuContext};
pub use m3xu_kernels::gemm::GemmPrecision;
pub use m3xu_mxu::error::M3xuError;
pub use m3xu_mxu::matrix::{MatOp, Matrix, MirrorView, OpView, Triangle};
pub use m3xu_mxu::mma::MmaStats;
pub use m3xu_mxu::modes::{MxuMode, PipelineVariant};

use m3xu_kernels::{fft, knn};

/// Unwrap a fallible facade call, panicking with the typed error's message
/// — the one place the GEMM-family panicking forms live.
fn or_panic<T>(r: Result<T, M3xuError>) -> T {
    r.unwrap_or_else(|e| panic!("{e}"))
}

/// An M3XU device handle: the pipeline variant to model and the GPU the
/// performance estimates assume.
#[derive(Debug, Clone)]
pub struct M3xu {
    /// Pipelined vs non-pipelined data-assignment stage (affects the
    /// performance estimates; results are identical).
    pub pipeline: PipelineVariant,
    /// The GPU configuration performance estimates use.
    pub gpu: GpuConfig,
}

impl Default for M3xu {
    fn default() -> Self {
        Self::new()
    }
}

/// A result paired with a modelled A100-class execution-time estimate.
#[derive(Debug, Clone)]
pub struct Timed<T> {
    /// The computed value (bit-exact, from the functional simulator).
    pub value: T,
    /// Modelled execution time on the configured GPU, seconds.
    pub estimated_time_s: f64,
    /// Modelled speedup over the SIMT (CUDA-core) baseline.
    pub estimated_speedup: f64,
}

impl M3xu {
    /// A device with the pipelined data-assignment stage (the
    /// recommended Table III variant) on an A100-class GPU.
    pub fn new() -> Self {
        M3xu {
            pipeline: PipelineVariant::Pipelined,
            gpu: GpuConfig::a100_40gb(),
        }
    }

    /// Use the non-pipelined variant (lower power, 21% longer cycles).
    pub fn non_pipelined(mut self) -> Self {
        self.pipeline = PipelineVariant::NonPipelined;
        self
    }

    fn sgemm_kernel(&self) -> m3xu_gpu::KernelSpec {
        let ks = m3xu_gpu::kernel::sgemm_kernels();
        let name = match self.pipeline {
            PipelineVariant::Pipelined => "M3XU_sgemm_pipelined",
            PipelineVariant::NonPipelined => "M3XU_sgemm",
        };
        ks.into_iter().find(|k| k.name == name).unwrap()
    }

    fn cgemm_kernel(&self) -> m3xu_gpu::KernelSpec {
        let ks = m3xu_gpu::kernel::cgemm_kernels();
        let name = match self.pipeline {
            PipelineVariant::Pipelined => "M3XU_cgemm_pipelined",
            PipelineVariant::NonPipelined => "M3XU_cgemm",
        };
        ks.into_iter().find(|k| k.name == name).unwrap()
    }

    /// True-FP32 matrix multiply `A·B` (bit-exact IEEE-754 FP32).
    /// Panics on a shape mismatch; see [`M3xu::try_gemm`].
    pub fn gemm(&self, a: &Matrix<f32>, b: &Matrix<f32>) -> Matrix<f32> {
        or_panic(self.try_gemm(a, b))
    }

    /// Fallible [`M3xu::gemm`]: reports a shape mismatch as
    /// [`M3xuError::ShapeMismatch`] instead of panicking.
    pub fn try_gemm(&self, a: &Matrix<f32>, b: &Matrix<f32>) -> Result<Matrix<f32>, M3xuError> {
        default_context().try_matmul_f32(GemmPrecision::M3xuFp32, a, b)
    }

    /// True-FP32 GEMM `D = A·B + C`. Panics on a shape mismatch; see
    /// [`M3xu::try_gemm_bias`].
    pub fn gemm_bias(&self, a: &Matrix<f32>, b: &Matrix<f32>, c: &Matrix<f32>) -> Matrix<f32> {
        or_panic(self.try_gemm_bias(a, b, c))
    }

    /// Fallible [`M3xu::gemm_bias`].
    pub fn try_gemm_bias(
        &self,
        a: &Matrix<f32>,
        b: &Matrix<f32>,
        c: &Matrix<f32>,
    ) -> Result<Matrix<f32>, M3xuError> {
        Ok(default_context()
            .try_gemm_f32(GemmPrecision::M3xuFp32, a, b, c)?
            .d)
    }

    /// FP32 GEMM with a modelled execution-time estimate attached.
    pub fn gemm_timed(&self, a: &Matrix<f32>, b: &Matrix<f32>) -> Timed<Matrix<f32>> {
        let value = self.gemm(a, b);
        let p = m3xu_gpu::Problem {
            m: a.rows(),
            n: b.cols(),
            k: a.cols(),
            complex: false,
        };
        let t = self.sgemm_kernel().run(p, &self.gpu);
        let simt = m3xu_gpu::kernel::sgemm_kernels()[0].run(p, &self.gpu);
        Timed {
            value,
            estimated_time_s: t.time_s,
            estimated_speedup: simt.time_s / t.time_s,
        }
    }

    /// FP32C complex matrix multiply `A·B`. Panics on a shape mismatch;
    /// see [`M3xu::try_cgemm`].
    pub fn cgemm(&self, a: &Matrix<C32>, b: &Matrix<C32>) -> Matrix<C32> {
        or_panic(self.try_cgemm(a, b))
    }

    /// Fallible [`M3xu::cgemm`].
    pub fn try_cgemm(&self, a: &Matrix<C32>, b: &Matrix<C32>) -> Result<Matrix<C32>, M3xuError> {
        default_context().try_cmatmul_c32(a, b)
    }

    /// FP32C GEMM `D = A·B + C`. Panics on a shape mismatch; see
    /// [`M3xu::try_cgemm_bias`].
    pub fn cgemm_bias(&self, a: &Matrix<C32>, b: &Matrix<C32>, c: &Matrix<C32>) -> Matrix<C32> {
        or_panic(self.try_cgemm_bias(a, b, c))
    }

    /// Fallible [`M3xu::cgemm_bias`].
    pub fn try_cgemm_bias(
        &self,
        a: &Matrix<C32>,
        b: &Matrix<C32>,
        c: &Matrix<C32>,
    ) -> Result<Matrix<C32>, M3xuError> {
        Ok(default_context().try_cgemm_c32(a, b, c)?.d)
    }

    /// FP32C GEMM with a modelled execution-time estimate attached.
    pub fn cgemm_timed(&self, a: &Matrix<C32>, b: &Matrix<C32>) -> Timed<Matrix<C32>> {
        let value = self.cgemm(a, b);
        let p = m3xu_gpu::Problem {
            m: a.rows(),
            n: b.cols(),
            k: a.cols(),
            complex: true,
        };
        let t = self.cgemm_kernel().run(p, &self.gpu);
        let simt = m3xu_gpu::kernel::cgemm_kernels()[0].run(p, &self.gpu);
        Timed {
            value,
            estimated_time_s: t.time_s,
            estimated_speedup: simt.time_s / t.time_s,
        }
    }

    /// True-FP32 op-GEMM `D = alpha·op(A)·op(B) + beta·C`, where
    /// [`MatOp`] selects `X`, `X^T`, or `X^H` per operand without
    /// materializing a transposed copy. Panics on a shape mismatch; see
    /// [`M3xu::try_gemm_op`].
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_op(
        &self,
        op_a: MatOp,
        a: &Matrix<f32>,
        op_b: MatOp,
        b: &Matrix<f32>,
        alpha: f32,
        beta: f32,
        c: &Matrix<f32>,
    ) -> Matrix<f32> {
        or_panic(self.try_gemm_op(op_a, a, op_b, b, alpha, beta, c))
    }

    /// Fallible [`M3xu::gemm_op`].
    #[allow(clippy::too_many_arguments)]
    pub fn try_gemm_op(
        &self,
        op_a: MatOp,
        a: &Matrix<f32>,
        op_b: MatOp,
        b: &Matrix<f32>,
        alpha: f32,
        beta: f32,
        c: &Matrix<f32>,
    ) -> Result<Matrix<f32>, M3xuError> {
        let p = GemmPrecision::M3xuFp32;
        Ok(default_context()
            .try_gemm_op_f32(p, op_a, a, op_b, b, alpha, beta, c)?
            .d)
    }

    /// FP32C complex op-GEMM `D = alpha·op(A)·op(B) + beta·C`, where
    /// `op` may transpose and/or conjugate. Panics on a shape mismatch;
    /// see [`M3xu::try_cgemm_op`].
    #[allow(clippy::too_many_arguments)]
    pub fn cgemm_op(
        &self,
        op_a: MatOp,
        a: &Matrix<C32>,
        op_b: MatOp,
        b: &Matrix<C32>,
        alpha: C32,
        beta: C32,
        c: &Matrix<C32>,
    ) -> Matrix<C32> {
        or_panic(self.try_cgemm_op(op_a, a, op_b, b, alpha, beta, c))
    }

    /// Fallible [`M3xu::cgemm_op`].
    #[allow(clippy::too_many_arguments)]
    pub fn try_cgemm_op(
        &self,
        op_a: MatOp,
        a: &Matrix<C32>,
        op_b: MatOp,
        b: &Matrix<C32>,
        alpha: C32,
        beta: C32,
        c: &Matrix<C32>,
    ) -> Result<Matrix<C32>, M3xuError> {
        Ok(default_context()
            .try_cgemm_op_c32(op_a, a, op_b, b, alpha, beta, c)?
            .d)
    }

    /// Symmetric rank-k update `C := alpha·op(A)·op(A)^T + beta·C` at
    /// full FP32 fidelity, writing only the `tri` triangle of `C` (the
    /// other triangle is returned byte-for-byte untouched, and the
    /// kernel schedules roughly half the tiles of the equivalent GEMM).
    /// Panics on a shape mismatch; see [`M3xu::try_syrk`].
    pub fn syrk(
        &self,
        tri: Triangle,
        op_a: MatOp,
        a: &Matrix<f32>,
        alpha: f32,
        beta: f32,
        c: &Matrix<f32>,
    ) -> Matrix<f32> {
        or_panic(self.try_syrk(tri, op_a, a, alpha, beta, c))
    }

    /// Fallible [`M3xu::syrk`].
    pub fn try_syrk(
        &self,
        tri: Triangle,
        op_a: MatOp,
        a: &Matrix<f32>,
        alpha: f32,
        beta: f32,
        c: &Matrix<f32>,
    ) -> Result<Matrix<f32>, M3xuError> {
        let p = GemmPrecision::M3xuFp32;
        Ok(default_context()
            .try_syrk_f32(p, tri, op_a, a, alpha, beta, c)?
            .d)
    }

    /// Hermitian rank-k update `C := alpha·op(A)·op(A)^H + beta·C` on
    /// FP32C (real `alpha`/`beta`, `op_a` either `N` or `H`), writing
    /// only `tri` with an exactly real diagonal. Panics on a shape or
    /// mode mismatch; see [`M3xu::try_herk`].
    pub fn herk(
        &self,
        tri: Triangle,
        op_a: MatOp,
        a: &Matrix<C32>,
        alpha: f32,
        beta: f32,
        c: &Matrix<C32>,
    ) -> Matrix<C32> {
        or_panic(self.try_herk(tri, op_a, a, alpha, beta, c))
    }

    /// Fallible [`M3xu::herk`].
    pub fn try_herk(
        &self,
        tri: Triangle,
        op_a: MatOp,
        a: &Matrix<C32>,
        alpha: f32,
        beta: f32,
        c: &Matrix<C32>,
    ) -> Result<Matrix<C32>, M3xuError> {
        Ok(default_context()
            .try_herk_c32(tri, op_a, a, alpha, beta, c)?
            .d)
    }

    /// Symmetric multiply `C := alpha·sym(A)·B + beta·C` (or
    /// `B·sym(A)` for [`Side::Right`]), reading `sym(A)` from the `tri`
    /// triangle of the square `A`. Panics on a shape mismatch; see
    /// [`M3xu::try_symm`].
    #[allow(clippy::too_many_arguments)]
    pub fn symm(
        &self,
        side: Side,
        tri: Triangle,
        a: &Matrix<f32>,
        b: &Matrix<f32>,
        alpha: f32,
        beta: f32,
        c: &Matrix<f32>,
    ) -> Matrix<f32> {
        or_panic(self.try_symm(side, tri, a, b, alpha, beta, c))
    }

    /// Fallible [`M3xu::symm`].
    #[allow(clippy::too_many_arguments)]
    pub fn try_symm(
        &self,
        side: Side,
        tri: Triangle,
        a: &Matrix<f32>,
        b: &Matrix<f32>,
        alpha: f32,
        beta: f32,
        c: &Matrix<f32>,
    ) -> Result<Matrix<f32>, M3xuError> {
        let p = GemmPrecision::M3xuFp32;
        Ok(default_context()
            .try_symm_f32(p, side, tri, a, b, alpha, beta, c)?
            .d)
    }

    /// Hermitian multiply `C := alpha·herm(A)·B + beta·C` (or
    /// `B·herm(A)` for [`Side::Right`]) on FP32C, reconstructing
    /// `herm(A)` from the `tri` triangle of the square `A`. Panics on a
    /// shape mismatch; see [`M3xu::try_hemm`].
    #[allow(clippy::too_many_arguments)]
    pub fn hemm(
        &self,
        side: Side,
        tri: Triangle,
        a: &Matrix<C32>,
        b: &Matrix<C32>,
        alpha: C32,
        beta: C32,
        c: &Matrix<C32>,
    ) -> Matrix<C32> {
        or_panic(self.try_hemm(side, tri, a, b, alpha, beta, c))
    }

    /// Fallible [`M3xu::hemm`].
    #[allow(clippy::too_many_arguments)]
    pub fn try_hemm(
        &self,
        side: Side,
        tri: Triangle,
        a: &Matrix<C32>,
        b: &Matrix<C32>,
        alpha: C32,
        beta: C32,
        c: &Matrix<C32>,
    ) -> Result<Matrix<C32>, M3xuError> {
        Ok(default_context()
            .try_hemm_c32(side, tri, a, b, alpha, beta, c)?
            .d)
    }

    /// Forward FFT of a power-of-two-length complex signal, computed with
    /// the GEMM formulation on the M3XU's FP32C mode. Panics on an
    /// invalid length; see [`M3xu::try_fft`].
    pub fn fft(&self, signal: &[C32]) -> Vec<C32> {
        fft::gemm_fft(signal).0
    }

    /// Fallible [`M3xu::fft`]: rejects a non-power-of-two length with
    /// [`M3xuError::NonPowerOfTwoLength`] instead of panicking.
    pub fn try_fft(&self, signal: &[C32]) -> Result<Vec<C32>, M3xuError> {
        Ok(fft::try_gemm_fft(signal)?.0)
    }

    /// Inverse FFT (scaled by `1/N`). Panics on an invalid length; see
    /// [`M3xu::try_ifft`].
    pub fn ifft(&self, spectrum: &[C32]) -> Vec<C32> {
        self.try_ifft(spectrum).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`M3xu::ifft`].
    pub fn try_ifft(&self, spectrum: &[C32]) -> Result<Vec<C32>, M3xuError> {
        let n = spectrum.len() as f32;
        let conj: Vec<C32> = spectrum.iter().map(|z| z.conj()).collect();
        Ok(self
            .try_fft(&conj)?
            .iter()
            .map(|z| z.conj().scale(1.0 / n))
            .collect())
    }

    /// GEMM-based K-nearest-neighbour search at full FP32 fidelity.
    /// Panics on invalid arguments; see [`M3xu::try_knn`].
    pub fn knn(&self, refs: &Matrix<f32>, queries: &Matrix<f32>, k: usize) -> knn::KnnResult {
        knn::knn_gemm(GemmPrecision::M3xuFp32, refs, queries, k)
    }

    /// Fallible [`M3xu::knn`]: reports a feature-dimension mismatch as
    /// [`M3xuError::ShapeMismatch`] and an oversized `k` as
    /// [`M3xuError::InvalidK`].
    pub fn try_knn(
        &self,
        refs: &Matrix<f32>,
        queries: &Matrix<f32>,
        k: usize,
    ) -> Result<knn::KnnResult, M3xuError> {
        knn::try_knn_gemm(GemmPrecision::M3xuFp32, refs, queries, k)
    }

    /// Cumulative [`ExecStats`] of the process-wide default context the
    /// device's kernels execute on: MMA instructions and steps per mode,
    /// fragments, tiles, operand bytes, and per-phase wall time.
    pub fn exec_stats(&self) -> ExecStats {
        default_context().stats()
    }

    /// Zero the default context's execution counters.
    pub fn reset_exec_stats(&self) {
        default_context().reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_identity() {
        let dev = M3xu::new();
        let a = Matrix::<f32>::random(16, 16, 1);
        let i = Matrix::<f32>::identity(16);
        assert_eq!(dev.gemm(&a, &i), a);
    }

    #[test]
    fn gemm_bias_adds_c() {
        let dev = M3xu::new();
        let a = Matrix::<f32>::zeros(8, 8);
        let b = Matrix::<f32>::zeros(8, 8);
        let c = Matrix::<f32>::random(8, 8, 2);
        assert_eq!(dev.gemm_bias(&a, &b, &c), c);
    }

    #[test]
    fn timed_gemm_reports_speedup() {
        let dev = M3xu::new();
        let a = Matrix::<f32>::random(64, 64, 3);
        let b = Matrix::<f32>::random(64, 64, 4);
        let t = dev.gemm_timed(&a, &b);
        assert!(t.estimated_time_s > 0.0);
        // Tiny problems are launch-bound; the estimate must still be sane.
        assert!(t.estimated_speedup > 0.1);
        assert_eq!(t.value.rows(), 64);
        // At realistic sizes the estimate shows the ~4x advantage.
        let p = m3xu_gpu::Problem {
            m: 4096,
            n: 4096,
            k: 4096,
            complex: false,
        };
        let m3xu_t = dev.sgemm_kernel().run(p, &dev.gpu).time_s;
        let simt_t = m3xu_gpu::kernel::sgemm_kernels()[0].run(p, &dev.gpu).time_s;
        assert!(simt_t / m3xu_t > 3.0);
    }

    #[test]
    fn nonpipelined_is_slower_same_result() {
        let a = Matrix::<f32>::random(512, 512, 5);
        let b = Matrix::<f32>::random(512, 512, 6);
        // Compare estimates only (functional result identical by
        // construction; skip recomputing it twice).
        let p = m3xu_gpu::Problem {
            m: 512,
            n: 512,
            k: 512,
            complex: false,
        };
        let piped = M3xu::new();
        let nonpiped = M3xu::new().non_pipelined();
        let tp = piped.sgemm_kernel().run(p, &piped.gpu).time_s;
        let tn = nonpiped.sgemm_kernel().run(p, &nonpiped.gpu).time_s;
        assert!(tn > tp);
        let _ = (a, b);
    }

    #[test]
    fn fft_roundtrip_through_device() {
        let dev = M3xu::new();
        let m = Matrix::random_c32(64, 1, 7);
        let x: Vec<C32> = (0..64).map(|i| m.get(i, 0)).collect();
        let back = dev.ifft(&dev.fft(&x));
        for (a, b) in back.iter().zip(&x) {
            assert!((a.re - b.re).abs() < 1e-4 && (a.im - b.im).abs() < 1e-4);
        }
    }

    #[test]
    fn knn_through_device() {
        let dev = M3xu::new();
        let refs = Matrix::<f32>::random(32, 4, 8);
        let r = dev.knn(&refs, &refs, 1);
        // Every point's nearest neighbour is itself.
        for (qi, idx) in r.indices.iter().enumerate() {
            assert_eq!(idx[0], qi);
        }
    }

    #[test]
    fn try_api_reports_errors_and_matches_panicking_api() {
        let dev = M3xu::new();
        // Error paths surface as typed errors, not panics.
        let a = Matrix::<f32>::random(4, 3, 10);
        let b = Matrix::<f32>::random(5, 4, 11);
        assert!(matches!(
            dev.try_gemm(&a, &b).unwrap_err(),
            M3xuError::ShapeMismatch { .. }
        ));
        assert!(matches!(
            dev.try_fft(&[C32::ZERO; 12]).unwrap_err(),
            M3xuError::NonPowerOfTwoLength { len: 12, .. }
        ));
        let refs = Matrix::<f32>::random(8, 4, 12);
        assert!(matches!(
            dev.try_knn(&refs, &refs, 9).unwrap_err(),
            M3xuError::InvalidK { k: 9, max: 8 }
        ));
        // Happy path is bit-identical to the panicking API.
        let a = Matrix::<f32>::random(16, 12, 13);
        let b = Matrix::<f32>::random(12, 16, 14);
        assert_eq!(dev.try_gemm(&a, &b).unwrap(), dev.gemm(&a, &b));
        let m = Matrix::random_c32(32, 1, 15);
        let x: Vec<C32> = (0..32).map(|i| m.get(i, 0)).collect();
        assert_eq!(dev.try_fft(&x).unwrap(), dev.fft(&x));
        assert_eq!(dev.try_ifft(&x).unwrap(), dev.ifft(&x));
    }

    #[test]
    fn blas3_surface_through_device() {
        let dev = M3xu::new();
        let a = Matrix::<f32>::random(12, 7, 20);
        let b = Matrix::<f32>::random(12, 9, 21);
        let c = Matrix::<f32>::random(7, 9, 22);
        // op-GEMM with transposes matches the plain GEMM on
        // materialized operands at unit scalars.
        let d = dev.gemm_op(MatOp::T, &a, MatOp::N, &b, 1.0, 1.0, &c);
        let at = Matrix::from_fn(7, 12, |i, j| a.get(j, i));
        assert_eq!(d, dev.gemm_bias(&at, &b, &c));
        // SYRK writes one triangle; the other is untouched.
        let c2 = Matrix::<f32>::random(12, 12, 23);
        let s = dev.syrk(Triangle::Lower, MatOp::N, &a, 1.0, 1.0, &c2);
        for i in 0..12 {
            for j in (i + 1)..12 {
                assert_eq!(s.get(i, j).to_bits(), c2.get(i, j).to_bits());
            }
        }
        // HERK's diagonal is exactly real.
        let za = Matrix::random_c32(6, 4, 24);
        let zc = Matrix::random_c32(6, 6, 25);
        let h = dev.herk(Triangle::Upper, MatOp::N, &za, 1.0, 0.0, &zc);
        for i in 0..6 {
            assert_eq!(h.get(i, i).im, 0.0);
        }
        // Typed errors, not panics, on the fallible surface.
        assert!(matches!(
            dev.try_syrk(Triangle::Lower, MatOp::N, &a, 1.0, 1.0, &c),
            Err(M3xuError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn cgemm_identity() {
        let dev = M3xu::new();
        let a = Matrix::random_c32(8, 8, 9);
        let i = Matrix::identity_c32(8);
        assert_eq!(dev.cgemm(&a, &i), a);
    }
}
