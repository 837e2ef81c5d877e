//! Runtime-hardening regressions: worker-pool reentrancy, recovery from
//! panicking FFT drivers, and the `M3XU_THREADS` environment contract.
//! These run in both debug and release profiles (`scripts/check.sh` runs
//! the release pass) — the original reentrancy hole was a `debug_assert!`
//! that release builds silently skipped.

use m3xu_kernels::context::{default_context, M3xuContext};
use m3xu_kernels::fft::{gemm_fft, gemm_fft_with, spectrum_rel_error, try_gemm_fft_with, C32};
use m3xu_kernels::gemm::{self, GemmPrecision, GemmResult};
use m3xu_kernels::pool;
use m3xu_kernels::M3xuError;
use m3xu_mxu::matrix::Matrix;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A GEMM nested inside a task of the same pool must complete (inline)
/// and produce output bit-identical to the same GEMM run at top level.
#[test]
fn nested_gemm_inside_pool_run_is_bit_identical() {
    let ctx = M3xuContext::with_threads(4);
    let a = Matrix::<f32>::random(48, 32, 1);
    let b = Matrix::<f32>::random(32, 48, 2);
    let c = Matrix::<f32>::zeros(48, 48);

    let top_level = ctx
        .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
        .unwrap();

    let results: Vec<std::sync::Mutex<Option<GemmResult<f32>>>> =
        (0..3).map(|_| std::sync::Mutex::new(None)).collect();
    ctx.run_tasks(3, |t| {
        // Re-enter the SAME pool from inside one of its tasks.
        let r = ctx
            .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
            .unwrap();
        *results[t].lock().unwrap() = Some(r);
    });

    for cell in &results {
        let nested = cell.lock().unwrap().take().expect("task ran");
        assert_eq!(nested.d, top_level.d, "nested result must be bit-identical");
    }
}

/// The global pool must also tolerate re-entry: an FFT (whose CGEMM
/// driver uses the global pool) issued from inside a global-pool task.
#[test]
fn nested_fft_on_global_pool_completes() {
    let m = Matrix::random_c32(64, 1, 3);
    let x: Vec<C32> = (0..64).map(|i| m.get(i, 0)).collect();
    let (expect, _) = gemm_fft(&x);

    let done = AtomicUsize::new(0);
    pool::global().run(2, |_| {
        let (got, _) = gemm_fft(&x);
        assert_eq!(got, expect);
        done.fetch_add(1, Ordering::SeqCst);
    });
    assert_eq!(done.load(Ordering::SeqCst), 2);
}

/// A CGEMM driver that panics mid-FFT must not poison shared state: the
/// panic propagates to the caller, and the very next FFT — through the
/// same DFT-matrix cache and the same global pool — succeeds.
#[test]
fn fft_survives_a_panicking_injected_driver() {
    let m = Matrix::random_c32(256, 1, 4);
    let x: Vec<C32> = (0..256).map(|i| m.get(i, 0)).collect();

    // First FFT panics part-way through the decomposition: its second
    // (base-case) CGEMM, after the first level has warmed/touched the DFT
    // cache.
    let calls = AtomicUsize::new(0);
    let exploding = |a: &Matrix<C32>, b: &Matrix<C32>, c: &Matrix<C32>| -> GemmResult<C32> {
        if calls.fetch_add(1, Ordering::SeqCst) == 1 {
            panic!("injected driver failure");
        }
        default_context().try_cgemm_c32(a, b, c).unwrap()
    };
    let unwound = catch_unwind(AssertUnwindSafe(|| gemm_fft_with(&x, exploding)));
    assert!(unwound.is_err(), "the injected panic must propagate");
    assert!(calls.load(Ordering::SeqCst) >= 2, "driver was exercised");

    // The next FFT must succeed and stay accurate.
    let (got, stats) = gemm_fft(&x);
    let gold = m3xu_kernels::fft::dft(&x);
    assert!(spectrum_rel_error(&got, &gold) < 1e-5);
    assert!(stats.instructions > 0);

    // And the fallible form still validates input after the panic.
    let err = try_gemm_fft_with(&x[..100], gemm::baseline::cgemm_c32).unwrap_err();
    assert!(matches!(
        err,
        M3xuError::NonPowerOfTwoLength { len: 100, .. }
    ));
}

/// `M3XU_THREADS` contract: `0` means inline execution (a 1-thread
/// pool), a positive integer is taken literally, and garbage falls back
/// to auto-detection with at least one thread. The variable is read at
/// pool construction, so fresh `WorkerPool`s see each setting.
#[test]
fn m3xu_threads_env_semantics() {
    let key = "M3XU_THREADS";
    let prior = std::env::var_os(key);

    std::env::set_var(key, "0");
    assert_eq!(pool::configured_threads(), 1, "0 must mean inline");

    std::env::set_var(key, "3");
    assert_eq!(pool::configured_threads(), 3);

    std::env::set_var(key, "not-a-number");
    let n = pool::configured_threads();
    assert!(n >= 1, "garbage must fall back to >= 1 threads, got {n}");

    // A pool built under the inline setting still computes correctly.
    std::env::set_var(key, "0");
    let inline_ctx = M3xuContext::with_threads(pool::configured_threads());
    assert_eq!(inline_ctx.threads(), 1);
    let a = Matrix::<f32>::random(16, 16, 5);
    let b = Matrix::<f32>::random(16, 16, 6);
    let c = Matrix::<f32>::zeros(16, 16);
    let inline = inline_ctx
        .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
        .unwrap();
    let wide = M3xuContext::with_threads(4)
        .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
        .unwrap();
    assert_eq!(inline.d, wide.d);

    match prior {
        Some(v) => std::env::set_var(key, v),
        None => std::env::remove_var(key),
    }
}
