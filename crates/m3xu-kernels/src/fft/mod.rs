//! FFT substrate — the paper's first case study (§VI-C1, Fig. 6).
//!
//! Three implementations:
//!
//! * [`dft`] — the O(N²) reference DFT (ground truth for tests);
//! * [`radix2`] — a classic iterative radix-2 Cooley–Tukey FFT (the shape
//!   of a SIMT / cuFFT implementation);
//! * [`gemm_fft`] — the tcFFT formulation: four-step Cooley–Tukey whose
//!   inner small DFTs are **complex GEMMs** against the DFT matrix,
//!   executed on the M3XU's FP32C mode, one GEMM per level. This is what
//!   M3XU accelerates "directly … without approximations".
//!
//! [`perf`] holds the Fig. 6 performance model (cuFFT baseline, the
//! TF32-extended tcFFT, and M3XU).

pub mod fft2d;
pub mod perf;

use crate::context::{default_context, ClosureExecutor, GemmExecutor};
use m3xu_fp::complex::Complex;
use m3xu_mxu::error::M3xuError;
use m3xu_mxu::matrix::Matrix;
use m3xu_mxu::mma::MmaStats;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Complex single-precision sample.
pub type C32 = Complex<f32>;

/// The O(N²) reference DFT (forward, unnormalised):
/// `X[k] = sum_j x[j] e^{-2πi jk / N}`, evaluated in f64 and rounded.
pub fn dft(x: &[C32]) -> Vec<C32> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut re = 0.0f64;
            let mut im = 0.0f64;
            for (j, &v) in x.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (j as f64) * (k as f64) / n as f64;
                let (s, c) = ang.sin_cos();
                re += v.re as f64 * c - v.im as f64 * s;
                im += v.re as f64 * s + v.im as f64 * c;
            }
            Complex::new(re as f32, im as f32)
        })
        .collect()
}

/// Fallible [`radix2`]: rejects non-power-of-two lengths with
/// [`M3xuError::NonPowerOfTwoLength`] instead of panicking.
pub fn try_radix2(x: &[C32]) -> Result<Vec<C32>, M3xuError> {
    if x.is_empty() {
        // The 0-point transform is the (empty) identity.
        return Ok(Vec::new());
    }
    if !x.len().is_power_of_two() {
        return Err(M3xuError::NonPowerOfTwoLength {
            context: "radix2",
            len: x.len(),
        });
    }
    Ok(radix2_unchecked(x))
}

/// Iterative radix-2 Cooley–Tukey FFT (forward, unnormalised). `x.len()`
/// must be a power of two. This is the "CUDA-core" shaped implementation.
/// Panics on an invalid length; see [`try_radix2`] for the fallible form.
pub fn radix2(x: &[C32]) -> Vec<C32> {
    try_radix2(x).unwrap_or_else(|e| panic!("{e}"))
}

fn radix2_unchecked(x: &[C32]) -> Vec<C32> {
    let n = x.len();
    debug_assert!(n.is_power_of_two());
    if n <= 1 {
        // A 0- or 1-point transform is the identity (and the bit-reversal
        // shift below would overflow for n == 1).
        return x.to_vec();
    }
    let mut a: Vec<C32> = x.to_vec();
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if i < j {
            a.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        for start in (0..n).step_by(len) {
            for t in 0..len / 2 {
                let w64 = Complex::<f64>::cis(ang * t as f64);
                let w = Complex::new(w64.re as f32, w64.im as f32);
                let u = a[start + t];
                let v = a[start + t + len / 2] * w;
                a[start + t] = u + v;
                a[start + t + len / 2] = u - v;
            }
        }
        len <<= 1;
    }
    a
}

/// Fallible [`inverse_radix2`].
pub fn try_inverse_radix2(x: &[C32]) -> Result<Vec<C32>, M3xuError> {
    let n = x.len() as f32;
    let conj: Vec<C32> = x.iter().map(|z| z.conj()).collect();
    Ok(try_radix2(&conj)?
        .iter()
        .map(|z| z.conj().scale(1.0 / n))
        .collect())
}

/// Inverse FFT via conjugation: `ifft(x) = conj(fft(conj(x))) / N`.
/// Panics on an invalid length; see [`try_inverse_radix2`].
pub fn inverse_radix2(x: &[C32]) -> Vec<C32> {
    try_inverse_radix2(x).unwrap_or_else(|e| panic!("{e}"))
}

/// The `n x n` DFT matrix `F[k][j] = e^{-2πi jk / n}` (twiddles computed
/// in f64, rounded to FP32C once).
pub fn dft_matrix(n: usize) -> Matrix<C32> {
    Matrix::from_fn(n, n, |k, j| {
        let ang = -2.0 * std::f64::consts::PI * (j as f64) * (k as f64) / n as f64;
        let w = Complex::<f64>::cis(ang);
        Complex::new(w.re as f32, w.im as f32)
    })
}

/// A per-length memo shared across FFT calls and threads.
type Memo<T> = Mutex<Option<HashMap<usize, T>>>;

/// Cached DFT matrices.
static DFT_CACHE: Memo<Matrix<C32>> = Mutex::new(None);

/// Cached level twiddle tables ([`twiddle_table`]): a table costs one
/// `cis` per entry, about a tenth of a 4,096-point transform. A
/// transform's levels keep about one entry per point of its length.
static TWIDDLE_CACHE: Memo<Arc<[C32]>> = Mutex::new(None);

/// `cache`'s value for `n`, made by `make` on first use.
fn memo<T: Clone>(cache: &Memo<T>, n: usize, make: impl FnOnce() -> T) -> T {
    // Recover from lock poisoning: a panicking FFT call (e.g. through an
    // injected CGEMM driver) must not condemn every later caller in the
    // process to a `PoisonError` unwrap. A cache is a pure memo of its
    // `make` — at worst a poisoned entry was never inserted, so the data
    // behind the lock is always valid.
    let mut guard = cache.lock().unwrap_or_else(|e| e.into_inner());
    let cache = guard.get_or_insert_with(HashMap::new);
    cache.entry(n).or_insert_with(make).clone()
}

fn cached_dft_matrix(n: usize) -> Matrix<C32> {
    memo(&DFT_CACHE, n, || dft_matrix(n))
}

/// The twiddles `w_n^{k1·j2}` of an `n`-point level, `k1 < GEMM_RADIX`
/// and `j2 < n / GEMM_RADIX`, at `k1 · n / GEMM_RADIX + j2` (computed in
/// f64, rounded to FP32C once).
fn twiddle_table(n: usize) -> Arc<[C32]> {
    let n2 = n / GEMM_RADIX;
    (0..GEMM_RADIX * n2)
        .map(|i| {
            let (k1, j2) = (i / n2, i % n2);
            let ang = -2.0 * std::f64::consts::PI * (k1 as f64) * (j2 as f64) / n as f64;
            let w64 = Complex::<f64>::cis(ang);
            Complex::new(w64.re as f32, w64.im as f32)
        })
        .collect()
}

/// The tcFFT-style radix used for the GEMM stages (a 16-point DFT maps
/// onto the MXU fragment shapes).
pub const GEMM_RADIX: usize = 16;

/// GEMM-formulated FFT (forward, unnormalised) on the M3XU FP32C mode.
///
/// Four-step Cooley–Tukey: with `N = N1 * N2`,
/// 1. the `N1`-point column DFTs are **one complex GEMM**
///    `F_{N1} (N1 x N1) x M (N1 x N2)` where `M[j1][j2] = x[j1*N2 + j2]`;
/// 2. twiddle `T[k1][j2] *= w_N^{k1 j2}`;
/// 3. each row is an `N2`-point FFT (the next level);
/// 4. output interleaves as `X[k1 + N1*k2]`.
///
/// All rows of a level are transformed together, so a level costs one
/// complex GEMM however many sub-transforms it holds: `⌈log16 N⌉`
/// CGEMMs in all (one up to 16 points, 4 at 65,536).
///
/// Returns the spectrum and the accumulated M3XU MMA statistics.
/// Panics on an invalid length; see [`try_gemm_fft`] for the fallible
/// form.
pub fn gemm_fft(x: &[C32]) -> (Vec<C32>, MmaStats) {
    try_gemm_fft(x).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`gemm_fft`]: rejects non-power-of-two lengths with
/// [`M3xuError::NonPowerOfTwoLength`] instead of panicking. Executes on
/// the process-wide default context.
pub fn try_gemm_fft(x: &[C32]) -> Result<(Vec<C32>, MmaStats), M3xuError> {
    try_gemm_fft_on(default_context(), x)
}

/// [`gemm_fft`] on an explicit [`GemmExecutor`] — thread a metered
/// [`M3xuContext`](crate::context::M3xuContext) (or any custom driver)
/// through every Cooley–Tukey level.
pub fn try_gemm_fft_on<X: GemmExecutor>(
    exec: &X,
    x: &[C32],
) -> Result<(Vec<C32>, MmaStats), M3xuError> {
    if x.is_empty() {
        // The 0-point transform is the (empty) identity.
        return Ok((Vec::new(), MmaStats::default()));
    }
    if !x.len().is_power_of_two() {
        return Err(M3xuError::NonPowerOfTwoLength {
            context: "gemm_fft",
            len: x.len(),
        });
    }
    let mut stats = MmaStats::default();
    let out = gemm_fft_batch(exec, x, x.len(), &mut stats)?;
    Ok((out, stats))
}

/// [`gemm_fft`] with a caller-supplied CGEMM driver. The benchmark
/// harness uses this to run the identical FFT decomposition over the
/// original per-fragment driver (`gemm::baseline::cgemm_c32`) and the
/// packed driver side by side. Panics on an invalid length; see
/// [`try_gemm_fft_with`].
pub fn gemm_fft_with<F>(x: &[C32], cgemm: F) -> (Vec<C32>, MmaStats)
where
    F: Fn(&Matrix<C32>, &Matrix<C32>, &Matrix<C32>) -> crate::gemm::GemmResult<C32>,
{
    try_gemm_fft_with(x, cgemm).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`gemm_fft_with`] — a compatibility wrapper that adapts the
/// bare closure into a [`ClosureExecutor`] and runs [`try_gemm_fft_on`].
pub fn try_gemm_fft_with<F>(x: &[C32], cgemm: F) -> Result<(Vec<C32>, MmaStats), M3xuError>
where
    F: Fn(&Matrix<C32>, &Matrix<C32>, &Matrix<C32>) -> crate::gemm::GemmResult<C32>,
{
    try_gemm_fft_on(&ClosureExecutor::new(cgemm), x)
}

/// Transform `x.len() / len` independent `len`-point signals stored back
/// to back (signal `c` at `x[c * len..(c + 1) * len]`), issuing **one**
/// complex GEMM per Cooley–Tukey level for the whole batch.
///
/// Every level splits each of its `b` signals of length `n = 16 · n2`
/// exactly as the four-step recursion would, but side by side:
/// 1. all `b · n2` column DFTs are one `F_16 × [16 × b·n2]` CGEMM, whose
///    column `c·n2 + j2` holds signal `c`'s samples `j1·n2 + j2`;
/// 2. the level's twiddle table `w_n^{k1·j2}`, built once per length
///    and cached across calls, is applied to every signal;
/// 3. row `k1` of signal `c`'s block becomes sub-signal `16c + k1` of the
///    next level;
/// 4. on the way back, sub-spectra interleave as `X_c[k1 + 16·k2]`.
///
/// Signals of at most [`GEMM_RADIX`] points end the descent as one
/// `F_n × [n × b]` CGEMM. Each CGEMM output column depends only on its
/// own input column (same `K` order, zero seed), so the spectra are
/// bit-identical to transforming each signal on its own.
pub(crate) fn gemm_fft_batch<X: GemmExecutor>(
    exec: &X,
    x: &[C32],
    len: usize,
    stats: &mut MmaStats,
) -> Result<Vec<C32>, M3xuError> {
    // Validated at the public boundaries: `len` is a power of two, so
    // every level splits it into `GEMM_RADIX * (n / GEMM_RADIX)`.
    debug_assert!(len.is_power_of_two() && x.len().is_multiple_of(len));
    let mut buf = x.to_vec();
    let mut splits = Vec::new();
    let mut n = len;
    while n > GEMM_RADIX {
        let n2 = n / GEMM_RADIX;
        let cols = buf.len() / GEMM_RADIX;
        // Row `j1`, column `c·n2 + j2` is signal `c`'s sample `j1·n2 + j2`.
        // Whole runs are copied: no index divides.
        let mut m = Matrix::zeros(GEMM_RADIX, cols);
        for (j1, row) in m.as_mut_slice().chunks_exact_mut(cols).enumerate() {
            for (dst, sig) in row.chunks_exact_mut(n2).zip(buf.chunks_exact(n)) {
                dst.copy_from_slice(&sig[j1 * n2..(j1 + 1) * n2]);
            }
        }
        let t = exec.try_cgemm_c32(
            &cached_dft_matrix(GEMM_RADIX),
            &m,
            &Matrix::zeros(GEMM_RADIX, cols),
        )?;
        stats.merge(&t.stats);
        let twiddle = memo(&TWIDDLE_CACHE, n, || twiddle_table(n));
        // Sub-signal (c, k1) lands at `(16c + k1) · n2 = c·n + k1·n2`.
        for (c, sig) in buf.chunks_exact_mut(n).enumerate() {
            let subs = sig.chunks_exact_mut(n2).zip(twiddle.chunks_exact(n2));
            for (k1, (sub, w)) in subs.enumerate() {
                let y = &t.d.row(k1)[c * n2..(c + 1) * n2];
                for ((v, &y), &w) in sub.iter_mut().zip(y).zip(w) {
                    *v = y * w;
                }
            }
        }
        splits.push(n);
        n = n2;
    }
    let cols = buf.len() / n;
    let v = Matrix::from_fn(n, cols, |j, c| buf[c * n + j]);
    let r = exec.try_cgemm_c32(&cached_dft_matrix(n), &v, &Matrix::zeros(n, cols))?;
    stats.merge(&r.stats);
    for (c, sig) in buf.chunks_exact_mut(n).enumerate() {
        for (j, y) in sig.iter_mut().enumerate() {
            *y = r.d.get(j, c);
        }
    }
    let mut out = vec![C32::ZERO; buf.len()];
    for &n in splits.iter().rev() {
        let n2 = n / GEMM_RADIX;
        // Sub-spectrum `k1`'s bin `k2` is its signal's bin `k1 + 16·k2`.
        for (sig, dst) in buf.chunks_exact(n).zip(out.chunks_exact_mut(n)) {
            for (k1, sub) in sig.chunks_exact(n2).enumerate() {
                for (k2, &y) in sub.iter().enumerate() {
                    dst[k1 + GEMM_RADIX * k2] = y;
                }
            }
        }
        std::mem::swap(&mut buf, &mut out);
    }
    Ok(buf)
}

/// Maximum relative L2 error between two spectra (for accuracy tests).
pub fn spectrum_rel_error(got: &[C32], reference: &[C32]) -> f64 {
    assert_eq!(got.len(), reference.len());
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (g, r) in got.iter().zip(reference) {
        let dr = g.re as f64 - r.re as f64;
        let di = g.im as f64 - r.im as f64;
        num += dr * dr + di * di;
        den += (r.re as f64).powi(2) + (r.im as f64).powi(2);
    }
    (num / den.max(1e-300)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::M3xuContext;

    fn signal(n: usize, seed: u64) -> Vec<C32> {
        let m = Matrix::random_c32(n, 1, seed);
        (0..n).map(|i| m.get(i, 0)).collect()
    }

    /// The four-step recursion the level-batched transform replaced, kept
    /// as its oracle: one CGEMM per sub-transform, each row of a level
    /// recursed into separately.
    fn recursive_gemm_fft<X: GemmExecutor>(exec: &X, x: &[C32]) -> Vec<C32> {
        let n = x.len();
        if n <= GEMM_RADIX {
            let v = Matrix::from_fn(n, 1, |j, _| x[j]);
            let r = exec
                .try_cgemm_c32(&cached_dft_matrix(n), &v, &Matrix::zeros(n, 1))
                .unwrap();
            return (0..n).map(|k| r.d.get(k, 0)).collect();
        }
        let (n1, n2) = (GEMM_RADIX, n / GEMM_RADIX);
        let m = Matrix::from_fn(n1, n2, |j1, j2| x[j1 * n2 + j2]);
        let t = exec
            .try_cgemm_c32(&cached_dft_matrix(n1), &m, &Matrix::zeros(n1, n2))
            .unwrap();
        let mut out = vec![C32::ZERO; n];
        for k1 in 0..n1 {
            let row: Vec<C32> = (0..n2)
                .map(|j2| {
                    let ang = -2.0 * std::f64::consts::PI * (k1 as f64) * (j2 as f64) / n as f64;
                    let w64 = Complex::<f64>::cis(ang);
                    t.d.get(k1, j2) * Complex::new(w64.re as f32, w64.im as f32)
                })
                .collect();
            for (k2, v) in recursive_gemm_fft(exec, &row).into_iter().enumerate() {
                out[k1 + n1 * k2] = v;
            }
        }
        out
    }

    fn bits(v: &[C32]) -> Vec<(u32, u32)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    #[test]
    fn batched_levels_match_the_recursive_oracle_bit_for_bit() {
        let ctx = M3xuContext::with_threads(2);
        for p in 0..=16u32 {
            let n = 1usize << p;
            let x = signal(n, 40 + p as u64);
            let want = recursive_gemm_fft(&ctx, &x);
            let before = ctx.stats();
            let (got, _) = try_gemm_fft_on(&ctx, &x).unwrap();
            assert_eq!(bits(&got), bits(&want), "n = {n}");
            // One CGEMM per level: ceil(log16 n), at least one.
            let calls = ctx.stats().delta_since(&before).gemm_calls;
            assert_eq!(calls, p.div_ceil(4).max(1) as u64, "n = {n}");
        }
    }

    #[test]
    fn batched_fft2d_matches_per_row_and_column_oracle_bits() {
        let ctx = M3xuContext::with_threads(2);
        for (r, c) in [(1, 1), (1, 32), (32, 1), (8, 16), (64, 32), (16, 256)] {
            let img = Matrix::random_c32(r, c, (r * 1000 + c) as u64);
            let mut tmp = Matrix::<C32>::zeros(r, c);
            for i in 0..r {
                for (j, v) in recursive_gemm_fft(&ctx, img.row(i)).into_iter().enumerate() {
                    tmp.set(i, j, v);
                }
            }
            let tt = tmp.transpose();
            let mut want = Matrix::<C32>::zeros(r, c);
            for j in 0..c {
                for (i, v) in recursive_gemm_fft(&ctx, tt.row(j)).into_iter().enumerate() {
                    want.set(i, j, v);
                }
            }
            let (got, _) = fft2d::try_fft2d_on(&ctx, &img).unwrap();
            assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{r}x{c}");
        }
    }

    #[test]
    fn dft_of_impulse_is_flat() {
        let mut x = vec![C32::ZERO; 8];
        x[0] = Complex::new(1.0, 0.0);
        for v in dft(&x) {
            assert!((v.re - 1.0).abs() < 1e-6 && v.im.abs() < 1e-6);
        }
    }

    #[test]
    fn dft_of_pure_tone_is_a_spike() {
        let n = 16;
        let x: Vec<C32> = (0..n)
            .map(|j| {
                let w = Complex::<f64>::cis(2.0 * std::f64::consts::PI * 3.0 * j as f64 / n as f64);
                Complex::new(w.re as f32, w.im as f32)
            })
            .collect();
        let s = dft(&x);
        assert!((s[3].re - n as f32).abs() < 1e-3);
        for (k, v) in s.iter().enumerate() {
            if k != 3 {
                assert!(v.abs() < 1e-3, "leak at bin {k}: {v}");
            }
        }
    }

    #[test]
    fn radix2_matches_dft() {
        for n in [2usize, 8, 64, 256] {
            let x = signal(n, n as u64);
            let err = spectrum_rel_error(&radix2(&x), &dft(&x));
            assert!(err < 1e-5, "n={n}: err={err}");
        }
    }

    #[test]
    fn radix2_inverse_roundtrip() {
        let x = signal(128, 7);
        let back = inverse_radix2(&radix2(&x));
        for (a, b) in back.iter().zip(&x) {
            assert!((a.re - b.re).abs() < 1e-4 && (a.im - b.im).abs() < 1e-4);
        }
    }

    #[test]
    fn gemm_fft_matches_dft_at_base_case() {
        let x = signal(16, 9);
        let (got, stats) = gemm_fft(&x);
        let err = spectrum_rel_error(&got, &dft(&x));
        assert!(err < 1e-6, "err={err}");
        assert!(stats.instructions > 0, "must have used the MXU");
    }

    #[test]
    fn gemm_fft_matches_dft_multi_level() {
        for n in [64usize, 256, 1024] {
            let x = signal(n, n as u64 + 1);
            let (got, _) = gemm_fft(&x);
            let err = spectrum_rel_error(&got, &dft(&x));
            assert!(err < 1e-5, "n={n}: err={err}");
        }
    }

    #[test]
    fn gemm_fft_accuracy_comparable_to_radix2() {
        // M3XU computes FP32C exactly per MMA, so the GEMM formulation
        // should be at least as accurate as the scalar radix-2 chain.
        let n = 4096;
        let x = signal(n, 33);
        let gold = dft(&x);
        let e_gemm = spectrum_rel_error(&gemm_fft(&x).0, &gold);
        let e_radix = spectrum_rel_error(&radix2(&x), &gold);
        assert!(e_gemm < e_radix * 4.0, "gemm {e_gemm} vs radix2 {e_radix}");
        assert!(e_gemm < 1e-5);
    }

    #[test]
    fn parsevals_theorem_holds() {
        let n = 256;
        let x = signal(n, 5);
        let (s, _) = gemm_fft(&x);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr() as f64).sum();
        let freq_energy: f64 = s.iter().map(|z| z.norm_sqr() as f64).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-5);
    }

    #[test]
    fn try_fft_entry_points_reject_non_power_of_two() {
        let x = signal(12, 3);
        for err in [
            try_radix2(&x).unwrap_err(),
            try_inverse_radix2(&x).unwrap_err(),
            try_gemm_fft(&x).map(|_| ()).unwrap_err(),
        ] {
            assert!(matches!(
                err,
                M3xuError::NonPowerOfTwoLength { len: 12, .. }
            ));
        }
    }

    #[test]
    fn dft_cache_recovers_from_lock_poisoning() {
        // Poison the cache mutex by panicking while holding its guard …
        let poisoner = std::thread::spawn(|| {
            let _guard = DFT_CACHE.lock().unwrap_or_else(|e| e.into_inner());
            panic!("poison the DFT cache on purpose");
        });
        assert!(poisoner.join().is_err());
        // … and the very next FFT must still succeed with a correct result.
        let x = signal(64, 21);
        let (got, _) = try_gemm_fft(&x).expect("gemm_fft after cache poisoning");
        let err = spectrum_rel_error(&got, &dft(&x));
        assert!(err < 1e-5, "err={err}");
    }

    #[test]
    fn dft_matrix_is_symmetric_unitary_scaled() {
        let f = dft_matrix(8);
        // F is symmetric: F[k][j] == F[j][k].
        for k in 0..8 {
            for j in 0..8 {
                let a = f.get(k, j);
                let b = f.get(j, k);
                assert!((a.re - b.re).abs() < 1e-7 && (a.im - b.im).abs() < 1e-7);
            }
        }
    }
}
