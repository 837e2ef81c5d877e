//! 2-D FFT on the M3XU — row FFTs then column FFTs, each one batch of
//! GEMM-formulated 1-D transforms (the image/signal-processing workloads
//! the paper's introduction motivates).

use super::{gemm_fft_batch, C32};
use crate::context::{default_context, GemmExecutor};
use m3xu_fp::complex::Complex;
use m3xu_mxu::error::M3xuError;
use m3xu_mxu::matrix::Matrix;
use m3xu_mxu::mma::MmaStats;

/// Forward 2-D FFT (unnormalised) of a `rows x cols` complex image.
/// Both dimensions must be powers of two. Panics on invalid dimensions;
/// see [`try_fft2d`] for the fallible form.
pub fn fft2d(image: &Matrix<C32>) -> (Matrix<C32>, MmaStats) {
    try_fft2d(image).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`fft2d`]: rejects a non-power-of-two row or column count
/// with [`M3xuError::NonPowerOfTwoLength`] instead of panicking.
/// Executes on the process-wide default context.
pub fn try_fft2d(image: &Matrix<C32>) -> Result<(Matrix<C32>, MmaStats), M3xuError> {
    try_fft2d_on(default_context(), image)
}

/// [`try_fft2d`] on an explicit [`GemmExecutor`]: the row and the column
/// transforms each run as one batch, one CGEMM per level, through `exec`.
pub fn try_fft2d_on<X: GemmExecutor>(
    exec: &X,
    image: &Matrix<C32>,
) -> Result<(Matrix<C32>, MmaStats), M3xuError> {
    let (r, c) = (image.rows(), image.cols());
    // Validate both extents up front so a bad column count is reported
    // before any row work is spent.
    for (context, len) in [("fft2d(rows)", r), ("fft2d(cols)", c)] {
        if !len.is_power_of_two() {
            return Err(M3xuError::NonPowerOfTwoLength { context, len });
        }
    }
    let mut stats = MmaStats::default();
    // All row transforms as one batch (the image is row-major), then all
    // column transforms as one batch of the transposed rows.
    let rows = gemm_fft_batch(exec, image.as_slice(), c, &mut stats)?;
    let tt = Matrix::from_vec(r, c, rows).transpose();
    let cols = gemm_fft_batch(exec, tt.as_slice(), r, &mut stats)?;
    Ok((Matrix::from_vec(c, r, cols).transpose(), stats))
}

/// Inverse 2-D FFT (scaled by `1/(rows*cols)`). Panics on invalid
/// dimensions; see [`try_ifft2d`].
pub fn ifft2d(spectrum: &Matrix<C32>) -> Matrix<C32> {
    try_ifft2d(spectrum).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`ifft2d`]. Executes on the process-wide default context.
pub fn try_ifft2d(spectrum: &Matrix<C32>) -> Result<Matrix<C32>, M3xuError> {
    try_ifft2d_on(default_context(), spectrum)
}

/// [`try_ifft2d`] on an explicit [`GemmExecutor`].
pub fn try_ifft2d_on<X: GemmExecutor>(
    exec: &X,
    spectrum: &Matrix<C32>,
) -> Result<Matrix<C32>, M3xuError> {
    let (r, c) = (spectrum.rows(), spectrum.cols());
    let conj = Matrix::from_fn(r, c, |i, j| spectrum.get(i, j).conj());
    let (f, _) = try_fft2d_on(exec, &conj)?;
    let scale = 1.0 / (r * c) as f32;
    Ok(Matrix::from_fn(r, c, |i, j| {
        f.get(i, j).conj().scale(scale)
    }))
}

/// Reference 2-D DFT in f64 (for tests; O(N⁴) — keep it small).
pub fn dft2d_reference(image: &Matrix<C32>) -> Matrix<C32> {
    let (r, c) = (image.rows(), image.cols());
    Matrix::from_fn(r, c, |ki, kj| {
        let mut re = 0.0f64;
        let mut im = 0.0f64;
        for i in 0..r {
            for j in 0..c {
                let ang = -2.0
                    * std::f64::consts::PI
                    * (ki as f64 * i as f64 / r as f64 + kj as f64 * j as f64 / c as f64);
                let (s, co) = ang.sin_cos();
                let v = image.get(i, j);
                re += v.re as f64 * co - v.im as f64 * s;
                im += v.re as f64 * s + v.im as f64 * co;
            }
        }
        Complex::new(re as f32, im as f32)
    })
}

/// Frequency-domain low-pass filter: zero every bin whose (wrapped)
/// frequency index exceeds `cutoff` in either dimension, then invert.
pub fn lowpass(image: &Matrix<C32>, cutoff: usize) -> Matrix<C32> {
    let (r, c) = (image.rows(), image.cols());
    let (mut f, _) = fft2d(image);
    for i in 0..r {
        for j in 0..c {
            let fi = i.min(r - i);
            let fj = j.min(c - j);
            if fi > cutoff || fj > cutoff {
                f.set(i, j, C32::ZERO);
            }
        }
    }
    ifft2d(&f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(r: usize, c: usize, seed: u64) -> Matrix<C32> {
        Matrix::random_c32(r, c, seed)
    }

    #[test]
    fn matches_reference_dft2d() {
        let img = image(8, 16, 1);
        let (got, stats) = fft2d(&img);
        let gold = dft2d_reference(&img);
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for i in 0..8 {
            for j in 0..16 {
                let d = got.get(i, j) - gold.get(i, j);
                num += d.norm_sqr() as f64;
                den += gold.get(i, j).norm_sqr() as f64;
            }
        }
        assert!((num / den).sqrt() < 1e-5);
        assert!(stats.instructions > 0);
    }

    #[test]
    fn roundtrip() {
        let img = image(16, 16, 2);
        let (f, _) = fft2d(&img);
        let back = ifft2d(&f);
        for i in 0..16 {
            for j in 0..16 {
                let d = back.get(i, j) - img.get(i, j);
                assert!(d.abs() < 1e-4, "({i},{j}): {d}");
            }
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut img = Matrix::<C32>::zeros(8, 8);
        img.set(0, 0, Complex::new(1.0, 0.0));
        let (f, _) = fft2d(&img);
        for i in 0..8 {
            for j in 0..8 {
                assert!((f.get(i, j).re - 1.0).abs() < 1e-5);
                assert!(f.get(i, j).im.abs() < 1e-5);
            }
        }
    }

    #[test]
    fn try_fft2d_rejects_non_power_of_two_extents() {
        let bad_rows = image(6, 8, 4);
        assert!(matches!(
            try_fft2d(&bad_rows).map(|_| ()).unwrap_err(),
            M3xuError::NonPowerOfTwoLength { len: 6, .. }
        ));
        let bad_cols = image(8, 12, 5);
        assert!(matches!(
            try_fft2d(&bad_cols).map(|_| ()).unwrap_err(),
            M3xuError::NonPowerOfTwoLength { len: 12, .. }
        ));
        assert!(matches!(
            try_ifft2d(&bad_cols).map(|_| ()).unwrap_err(),
            M3xuError::NonPowerOfTwoLength { len: 12, .. }
        ));
    }

    #[test]
    fn lowpass_preserves_dc_and_removes_checkerboard() {
        // DC + Nyquist checkerboard; a tight low-pass keeps only DC.
        let img = Matrix::from_fn(8, 8, |i, j| {
            let checker = if (i + j) % 2 == 0 { 1.0f32 } else { -1.0 };
            Complex::new(2.0 + checker, 0.0)
        });
        let filtered = lowpass(&img, 1);
        for i in 0..8 {
            for j in 0..8 {
                assert!((filtered.get(i, j).re - 2.0).abs() < 1e-4, "({i},{j})");
            }
        }
    }
}
