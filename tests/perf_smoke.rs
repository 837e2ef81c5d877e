//! Release-build performance smoke gates.
//!
//! Opt-in: runs only with `M3XU_PERF_GATE=1` (and never in debug builds,
//! where the floors are meaningless). Two gates:
//!
//! * `simd_pipeline_beats_scalar_floor` — the SIMD fragment pipeline
//!   against the forced-scalar packed path. The floors are set far below
//!   the measured release numbers — 256³ M3XU-FP32 and 128³ M3XU-FP32C
//!   both run ~10x faster than the forced-scalar packed path on a 2-vCPU
//!   AVX2 Xeon, the 4,096-point GEMM-FFT ~7.8x — so only a real
//!   regression (or a Scalar-only host, which the gate skips) trips them.
//!   The FFT's floor guards its chunks' place on the vector path: when
//!   they fell back to the scalar oracle it reached only ~1.9x. Two
//!   rows guard the modes that once never left the oracle: 128³ fast
//!   FP32 (the truncated product on the f32 panels, floor 3x) and 128³
//!   emulated FP64 (the FMA row kernel, floor 20x). Per fragment, the
//!   benchmark's layer probe reads ~7x and several hundred x for them.
//!   Two more rows gate the ABFT-checked body: 128³ FP32 and FP32C on a
//!   context armed with a rate-0 fault plan, at the vector level against
//!   forced `Scalar`, floor 3x each. A checked chunk that drops back to
//!   the scalar element body reads ~1x there. On a host that resolves to
//!   `Avx512`, three rows time the FP32, FP32C and GEMM-FFT runs above
//!   at forced `Avx2` against `Avx512`, floor 1.1x each (measured
//!   1.1–1.4x on a 2-vCPU host): a body compiled for a lower level reads
//!   under 1x.
//! * `serve_batching_pools_resident_batches_only` — the serve layer's
//!   adaptive batching decision, read from the shard scheduler's batch
//!   counts: 16 identical 128³ M3XU-FP32 GEMMs submitted one at a time
//!   drain no batch, submitted all at once every drained batch of two or
//!   more pools into one epoch (and at least one such batch forms), and
//!   a batch holding a 256³ request runs inline — the regression
//!   unconditional pooling of big GEMMs on a saturated host once caused.
//!   Every 128³ result is bit-identical to a single-thread context. The
//!   ratio of the one-at-a-time over the batched best-of-3 wall is
//!   printed as a reading only: on a 2-vCPU host pooled and sharded
//!   128³ GEMMs retire at the same rate, so it sits near 1.0 and which
//!   side wins is a race.
//!
//! Both hold one lock while they measure: the SIMD gate switches the
//! process-wide level to `Scalar`, and neither may time while the other
//! runs, whatever `--test-threads` is.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use m3xu::kernels::gemm::{GemmPrecision, GemmResult};
use m3xu::kernels::FaultPlan;
use m3xu::mxu::packed::simd::{self, SimdLevel};
use m3xu::{default_context, M3xuContext, M3xuServe, Matrix, ServeConfig, SubmitOpts, Ticket};

/// Held by each gate for the whole of its measurement.
static TIMING: Mutex<()> = Mutex::new(());

/// Whether the gates run: `M3XU_PERF_GATE=1` in a release build.
fn gate_enabled() -> bool {
    if std::env::var("M3XU_PERF_GATE").map(|v| v == "1") != Ok(true) {
        eprintln!("skipped: set M3XU_PERF_GATE=1 to run the perf smoke gate");
        return false;
    }
    if cfg!(debug_assertions) {
        eprintln!("skipped: perf smoke gate only measures release builds");
        return false;
    }
    true
}

#[test]
fn simd_pipeline_beats_scalar_floor() {
    if !gate_enabled() {
        return;
    }
    let _timing = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let entry = simd::level();
    if entry == SimdLevel::Scalar {
        eprintln!("skipped: host resolves to the scalar path; nothing to gate");
        return;
    }

    let over_scalar = |what: &str, f: &dyn Fn()| speedup(entry, SimdLevel::Scalar, what, f);
    let n = 256;
    let a = Matrix::<f32>::random(n, n, 0x51);
    let b = Matrix::<f32>::random(n, n, 0x52);
    let c = Matrix::<f32>::zeros(n, n);
    let fp32_what = format!("FP32 {n}^3");
    let fp32_run = || {
        std::hint::black_box(
            default_context()
                .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
                .unwrap(),
        );
    };
    let fp32 = over_scalar(&fp32_what, &fp32_run);
    let n = 128;
    let ca = Matrix::random_c32(n, n, 0x53);
    let cb = Matrix::random_c32(n, n, 0x54);
    let cc = Matrix::random_c32(n, n, 0x55);
    let fp32c_what = format!("FP32C {n}^3");
    let fp32c_run = || {
        std::hint::black_box(default_context().try_cgemm_c32(&ca, &cb, &cc).unwrap());
    };
    let fp32c = over_scalar(&fp32c_what, &fp32c_run);
    let n = 4096;
    let x = Matrix::random_c32(n, 1, 0x56);
    let fft_what = format!("GEMM-FFT {n}-point");
    let fft_run = || {
        std::hint::black_box(default_context().try_gemm_fft(x.as_slice()).unwrap());
    };
    let fft = over_scalar(&fft_what, &fft_run);
    let n = 128;
    let fa = Matrix::<f32>::random(n, n, 0x57);
    let fb = Matrix::<f32>::random(n, n, 0x58);
    let fc = Matrix::<f32>::zeros(n, n);
    let fast = over_scalar(&format!("FP32-fast {n}^3"), &|| {
        std::hint::black_box(
            default_context()
                .try_gemm_f32(GemmPrecision::Fp32Fast, &fa, &fb, &fc)
                .unwrap(),
        );
    });
    let da = Matrix::<f64>::random_f64(n, n, 0x59);
    let db = Matrix::<f64>::random_f64(n, n, 0x5A);
    let dc = Matrix::<f64>::zeros(n, n);
    let fp64 = over_scalar(&format!("FP64-emulated {n}^3"), &|| {
        std::hint::black_box(
            default_context()
                .try_gemm_f64(GemmPrecision::Fp64Emulated, &da, &db, &dc)
                .unwrap(),
        );
    });
    // The checked body: a rate-0 plan arms the context (sized like the
    // default one), so every chunk runs checked and nothing is injected.
    let armed = M3xuContext::with_threads(default_context().threads())
        .with_fault_plan(Arc::new(FaultPlan::new(0, 0.0)));
    let checked = over_scalar(&format!("checked FP32 {n}^3"), &|| {
        std::hint::black_box(
            armed
                .try_gemm_f32(GemmPrecision::M3xuFp32, &fa, &fb, &fc)
                .unwrap(),
        );
    });
    let checked_c = over_scalar(&format!("checked FP32C {n}^3"), &|| {
        std::hint::black_box(armed.try_cgemm_c32(&ca, &cb, &cc).unwrap());
    });
    // Floor at 3x for both GEMM modes (measured ~10x): anything under 3x
    // means the vector pipeline effectively stopped working. The FFT's 4x
    // floor (measured ~7.8x) trips when its chunks leave the vector path. The
    // fast-FP32 floor (3x) and the emulated-FP64 one (20x) trip when
    // either mode drops back to the scalar oracle, where both read ~1x,
    // and the checked rows' (3x) when checked chunks do.
    let mut rows = vec![
        ("FP32", fp32, 3.0),
        ("FP32C", fp32c, 3.0),
        ("GEMM-FFT", fft, 4.0),
        ("FP32-fast", fast, 3.0),
        ("FP64-emulated", fp64, 20.0),
        ("checked FP32", checked, 3.0),
        ("checked FP32C", checked_c, 3.0),
    ];
    // On an AVX-512 host, the x86-64-v4 build against the forced AVX2
    // one, floor 1.1x (measured over 12 runs 1.11–1.35x, 1.17–1.35x and
    // 1.09–1.26x; the GEMM-FFT row fell under it in 2 of them): a panel
    // body silently compiled for a lower level reads under 1x.
    if entry == SimdLevel::Avx512 {
        let over_avx2 = |what: &str, f: &dyn Fn()| speedup(entry, SimdLevel::Avx2, what, f);
        rows.push(("FP32 over AVX2", over_avx2(&fp32_what, &fp32_run), 1.1));
        rows.push(("FP32C over AVX2", over_avx2(&fp32c_what, &fp32c_run), 1.1));
        rows.push(("GEMM-FFT over AVX2", over_avx2(&fft_what, &fft_run), 1.1));
    }
    for (what, s, floor) in rows {
        assert!(
            s >= floor,
            "{what} SIMD pipeline speedup {s:.2}x fell below the {floor}x floor at {entry:?}"
        );
    }
}

/// Timed rounds behind each speedup, after one warm-up per level.
const ROUNDS: usize = 5;

/// The least wall time of `f` at the `base` level over the least at the
/// `entry` level, printed as one row. Each round times both levels in
/// turn, so an episode of host interference lands on both sides.
fn speedup(entry: SimdLevel, base: SimdLevel, what: &str, f: &dyn Fn()) -> f64 {
    let time = |level| {
        simd::set_level(level);
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    time(entry);
    time(base);
    let (mut entry_s, mut base_s) = (f64::MAX, f64::MAX);
    for _ in 0..ROUNDS {
        entry_s = entry_s.min(time(entry));
        base_s = base_s.min(time(base));
    }
    simd::set_level(entry);
    let speedup = base_s / entry_s;
    eprintln!(
        "perf smoke: {what} {base:?} {:.1} ms, {entry:?} {:.2} ms, speedup {speedup:.2}x",
        base_s * 1e3,
        entry_s * 1e3
    );
    speedup
}

#[test]
fn serve_batching_pools_resident_batches_only() {
    if !gate_enabled() {
        return;
    }
    let _timing = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let (n, requests, workers, trials) = (128, 16, 8, 3);
    let a = Matrix::<f32>::random(n, n, 0x5E + n as u64);
    let b = Matrix::<f32>::random(n, n, 0x5F + n as u64);
    let c = Matrix::<f32>::zeros(n, n);
    let want = M3xuContext::with_threads(1)
        .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
        .unwrap()
        .d;
    // The default batching policy, `Adaptive`, is what the gate pins.
    let serve = M3xuServe::new(ServeConfig {
        shards: 1,
        workers,
        queue_capacity: requests,
        max_batch: requests,
        ..ServeConfig::default()
    });
    let counts = || serve.batch_counts(0).expect("one shard");
    let check = |ticket: Ticket<GemmResult<f32>>| {
        let d = ticket.wait().expect("served GEMM").d;
        assert!(
            d.as_slice()
                .iter()
                .zip(want.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "served result differs from the single-thread context"
        );
    };
    let submit = |a: &Matrix<f32>, b: &Matrix<f32>, c: &Matrix<f32>| {
        serve
            .submit_gemm_f32(
                "gate",
                GemmPrecision::M3xuFp32,
                a.clone(),
                b.clone(),
                c.clone(),
                SubmitOpts::default(),
            )
            .expect("submit")
    };
    // Wall seconds for `count` GEMMs with at most `in_flight` outstanding,
    // every result checked bit for bit as it resolves.
    let run = |count: usize, in_flight: usize| {
        let mut window = VecDeque::new();
        let start = Instant::now();
        for _ in 0..count {
            if window.len() == in_flight {
                check(window.pop_front().unwrap());
            }
            window.push_back(submit(&a, &b, &c));
        }
        window.into_iter().for_each(check);
        start.elapsed().as_secs_f64()
    };
    // Warm-up off the clock: pool and arena setup.
    run(8, 8);
    // Interleaved trials; the minimum wall strips scheduler noise.
    let (mut one_s, mut batched_s, mut pooled) = (f64::INFINITY, f64::INFINITY, 0);
    for _ in 0..trials {
        let before = counts();
        one_s = one_s.min(run(requests, 1));
        let alone = counts();
        assert_eq!(alone, before, "one request in flight, yet a batch drained");
        batched_s = batched_s.min(run(requests, requests));
        let after = counts();
        assert_eq!(
            after.inline, alone.inline,
            "a batch of {n}^3 requests, cache-resident, ran inline"
        );
        pooled += after.pooled - alone.pooled;
    }
    assert!(
        pooled > 0,
        "no batch of {n}^3 requests formed in {trials} trials"
    );
    // A batch holding a 256³ request is past the residency bound. The
    // first request is drained alone; the next three queue while it runs
    // and drain together.
    let big = 256;
    let (ba, bb, bc) = (
        Matrix::<f32>::random(big, big, 0x60),
        Matrix::<f32>::random(big, big, 0x61),
        Matrix::<f32>::zeros(big, big),
    );
    let before = counts();
    let mut tickets = vec![submit(&ba, &bb, &bc)];
    while serve.queue_len() > 0 {
        std::thread::yield_now();
    }
    tickets.push(submit(&ba, &bb, &bc));
    tickets.push(submit(&ba, &bb, &bc));
    tickets.push(submit(&a, &b, &c));
    for t in tickets {
        t.wait().expect("served GEMM");
    }
    let after = counts();
    assert_eq!(
        after.pooled, before.pooled,
        "a batch holding a {big}^3 request pooled"
    );
    assert!(
        after.inline > before.inline,
        "no batch holding a {big}^3 request ran inline"
    );
    eprintln!(
        "perf smoke: serve {requests} x {n}^3 on {workers} workers, 1 shard: one-at-a-time \
         {:.1} ms, batched {:.1} ms, ratio {:.3} (a reading, not gated); {pooled} batches \
         pooled, then {} of {big}^3 inline",
        one_s * 1e3,
        batched_s * 1e3,
        one_s / batched_s,
        after.inline - before.inline
    );
}
