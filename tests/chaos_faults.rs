//! Chaos suite: fault injection, ABFT detection/recovery, and the serve
//! layer's retry / breaker machinery, asserted end to end.
//!
//! The contract under test has three clauses:
//!
//! * **zero-fault gate** — an unarmed [`FaultyExecutor`] (and a context
//!   with no plan) is pure production: bit-identical results, identical
//!   `MmaStats`, zero fault counters, across the differential shape grid;
//! * **recoverable runs are invisible** — under an armed plan, every run
//!   the checked driver reports as recovered is bit-identical to the
//!   unfaulted `gemm::baseline` oracle, with `detected == corrected`;
//! * **unrecoverable runs are typed** — a run the driver cannot repair
//!   returns [`M3xuError::FaultDetected`]; it never panics, never hangs,
//!   and never silently returns corrupt data the checksums can see.
//!
//! `M3XU_FAULT_SEED` / `M3XU_FAULT_RATE` env arming is exercised by
//! `tests/chaos_env.rs` (its own process, so the env mutation cannot leak
//! into concurrently constructed contexts here) and by the seed grid
//! `scripts/check.sh` runs this whole suite under.

use m3xu::kernels::gemm::{self, GemmPrecision, GemmResult};
use m3xu::kernels::{FaultPlan, FaultSummary, FaultyExecutor, GemmExecutor, M3xuContext};
use m3xu::serve::{BatchPolicy, ChaosKind, M3xuServe, ServeConfig, SubmitOpts};
use m3xu::{M3xuError, MatOp, Matrix, ServeError, Side, Triangle, C32};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The differential suite's fixed edge shapes plus one awkward dense one:
/// degenerate, unit, prime, and non-multiple-of-fragment dimensions.
const SHAPES: [(usize, usize, usize); 9] = [
    (0, 8, 8),
    (8, 0, 8),
    (8, 8, 0),
    (1, 1, 1),
    (7, 11, 13),
    (23, 29, 31),
    (9, 15, 33),
    (41, 2, 5),
    (33, 17, 29),
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

// ---- zero-fault gate ----------------------------------------------------

#[test]
fn unarmed_executor_is_bit_identical_with_zero_fault_counters() {
    // Under the check.sh env grid every context is armed at construction;
    // the executor is still pure delegation (and recoverable runs stay
    // bit-identical), and it returns the context's own result — so the
    // summaries it reports are the context's checked body's, and they sum
    // to the context's fault counters exactly.
    let env_armed = std::env::var_os("M3XU_FAULT_SEED").is_some();
    for &t in &THREAD_COUNTS {
        let ctx = M3xuContext::with_threads(t);
        let exec = FaultyExecutor::unarmed(&ctx);
        let mut reported = FaultSummary::default();
        for (case, &(m, k, n)) in SHAPES.iter().enumerate() {
            let a = Matrix::<f32>::random(m, k, case as u64 * 3 + 1);
            let b = Matrix::<f32>::random(k, n, case as u64 * 3 + 2);
            let c = Matrix::<f32>::random(m, n, case as u64 * 3 + 3);
            for precision in [
                GemmPrecision::Fp16,
                GemmPrecision::Bf16,
                GemmPrecision::Tf32,
                GemmPrecision::M3xuFp32,
            ] {
                let want = gemm::baseline::gemm_f32(precision, &a, &b, &c);
                let tag = format!("unarmed {m}x{k}x{n} {precision:?} t={t}");
                let r = exec.try_gemm_f32(precision, &a, &b, &c).unwrap();
                assert_bits_f32(&r.d, &want.d, &tag);
                assert_eq!(r.stats, want.stats, "{tag}");
                if !env_armed {
                    assert_eq!(r.faults, Default::default(), "{tag}: summary must be zero");
                }
                reported.absorb(r.faults);
            }
            let ca = Matrix::random_c32(m, k, case as u64 * 5 + 1);
            let cb = Matrix::random_c32(k, n, case as u64 * 5 + 2);
            let cc = Matrix::random_c32(m, n, case as u64 * 5 + 3);
            let want = gemm::baseline::cgemm_c32(&ca, &cb, &cc);
            let tag = format!("unarmed {m}x{k}x{n} FP32C t={t}");
            let r = exec.try_cgemm_c32(&ca, &cb, &cc).unwrap();
            assert_bits_c32(&r.d, &want.d, &tag);
            assert_eq!(r.stats, want.stats, "{tag}");
            if !env_armed {
                assert_eq!(r.faults, Default::default(), "{tag}: summary must be zero");
            }
            reported.absorb(r.faults);
        }
        let stats = ctx.stats();
        let counters = FaultSummary {
            detected: stats.faults_detected,
            corrected: stats.faults_corrected,
            retries: stats.fault_retries,
        };
        // Unarmed, both sides are zero; env-armed, the executor reports
        // exactly what the context's checked body recorded.
        assert_eq!(reported, counters, "t={t}");
        if env_armed {
            // Env-armed contexts repair whatever they detect.
            assert_eq!(stats.faults_detected, stats.faults_corrected, "t={t}");
        }
    }
}

// ---- recoverable sweeps -------------------------------------------------

/// Run one armed real GEMM; recovered ⇒ bit-identical, unrecoverable ⇒
/// typed `FaultDetected` with sane fields. Returns faults detected.
fn armed_gemm_case(
    ctx: &M3xuContext,
    seed: u64,
    rate: f64,
    (m, k, n): (usize, usize, usize),
    case: usize,
) -> u64 {
    let plan = Arc::new(FaultPlan::new(seed, rate));
    let exec = FaultyExecutor::armed(ctx, plan);
    let a = Matrix::<f32>::random(m, k, case as u64 * 3 + 1);
    let b = Matrix::<f32>::random(k, n, case as u64 * 3 + 2);
    let c = Matrix::<f32>::random(m, n, case as u64 * 3 + 3);
    let tag = format!("armed seed={seed} rate={rate} {m}x{k}x{n}");
    match exec.try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c) {
        Ok(r) => {
            let summary = r.faults;
            let want = gemm::baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
            assert_bits_f32(&r.d, &want.d, &tag);
            assert_eq!(r.stats, want.stats, "{tag}");
            assert_eq!(
                summary.detected, summary.corrected,
                "{tag}: a recovered run repaired everything it detected"
            );
            summary.detected
        }
        Err(M3xuError::FaultDetected {
            tiles,
            detected,
            corrected,
            ..
        }) => {
            assert!(tiles > 0, "{tag}: a fault error names the failed tiles");
            assert!(corrected < detected, "{tag}: something stayed uncorrected");
            detected
        }
        Err(e) => panic!("{tag}: unexpected error {e}"),
    }
}

#[test]
fn armed_real_gemm_sweep_recovers_bit_identically() {
    let ctx = M3xuContext::with_threads(2);
    let mut faults_seen = 0u64;
    for &seed in &[1u64, 7, 23] {
        for &rate in &[1e-3, 0.05] {
            for (case, &shape) in SHAPES.iter().enumerate() {
                faults_seen += armed_gemm_case(&ctx, seed, rate, shape, case);
            }
        }
    }
    assert!(
        faults_seen > 0,
        "the 5% sweep must actually inject something"
    );
}

#[test]
fn armed_sweep_holds_across_thread_counts() {
    for &t in &THREAD_COUNTS {
        let ctx = M3xuContext::with_threads(t);
        let mut faults_seen = 0u64;
        for (case, &shape) in SHAPES.iter().enumerate() {
            faults_seen += armed_gemm_case(&ctx, 11 + t as u64, 0.05, shape, case);
        }
        assert!(faults_seen > 0, "t={t}: the 5% sweep must inject something");
    }
}

#[test]
fn armed_complex_gemm_sweep_recovers_bit_identically() {
    let ctx = M3xuContext::with_threads(2);
    let mut faults_seen = 0u64;
    for &rate in &[1e-3, 0.05] {
        for (case, &(m, k, n)) in SHAPES.iter().enumerate() {
            let plan = Arc::new(FaultPlan::new(7, rate));
            let exec = FaultyExecutor::armed(&ctx, plan);
            let a = Matrix::random_c32(m, k, case as u64 * 5 + 1);
            let b = Matrix::random_c32(k, n, case as u64 * 5 + 2);
            let c = Matrix::random_c32(m, n, case as u64 * 5 + 3);
            let tag = format!("armed rate={rate} {m}x{k}x{n} FP32C");
            match exec.try_cgemm_c32(&a, &b, &c) {
                Ok(r) => {
                    let summary = r.faults;
                    let want = gemm::baseline::cgemm_c32(&a, &b, &c);
                    assert_bits_c32(&r.d, &want.d, &tag);
                    assert_eq!(r.stats, want.stats, "{tag}");
                    assert_eq!(summary.detected, summary.corrected, "{tag}");
                    faults_seen += summary.detected;
                }
                Err(M3xuError::FaultDetected { tiles, .. }) => {
                    assert!(tiles > 0, "{tag}");
                }
                Err(e) => panic!("{tag}: unexpected error {e}"),
            }
        }
    }
    assert!(faults_seen > 0, "the 5% sweep must inject something");
}

// ---- unrecoverable ------------------------------------------------------

#[test]
fn saturated_plan_is_a_typed_error_and_leaves_the_context_usable() {
    let ctx = M3xuContext::with_threads(2);
    let plan = Arc::new(FaultPlan::new(3, 1.0));
    let exec = FaultyExecutor::armed(&ctx, plan);
    let a = Matrix::<f32>::random(9, 7, 61);
    let b = Matrix::<f32>::random(7, 5, 62);
    let c = Matrix::<f32>::random(9, 5, 63);
    match exec.try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c) {
        Err(M3xuError::FaultDetected {
            op,
            mode,
            tiles,
            detected,
            corrected,
            retries,
        }) => {
            assert_eq!(op, "gemm", "the error names the failing op");
            assert_eq!(
                mode,
                m3xu::mxu::modes::MxuMode::M3xuFp32,
                "and its execution mode"
            );
            assert!(tiles > 0);
            assert!(detected > 0);
            assert!(corrected < detected);
            assert!(retries > 0);
        }
        other => panic!("rate-1.0 must fail detectably, got {other:?}"),
    }
    // The pool and context survive a saturated run intact.
    let r = ctx
        .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
        .unwrap();
    let want = gemm::baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
    assert_bits_f32(&r.d, &want.d, "post-saturation production GEMM");
}

// ---- pool panic regression (satellite) ----------------------------------

#[test]
fn pool_survives_panicking_tasks_bit_identically() {
    for &t in &THREAD_COUNTS {
        let ctx = M3xuContext::with_threads(t);
        let blown = catch_unwind(AssertUnwindSafe(|| {
            ctx.run_tasks(8, |i| {
                if i % 3 == 1 {
                    panic!("chaos: task {i} dies");
                }
            });
        }));
        // Whether the epoch's panic propagates or is absorbed, the pool
        // must come back: the same context computes correct GEMMs after.
        let _ = blown;
        let a = Matrix::<f32>::random(23, 29, 71);
        let b = Matrix::<f32>::random(29, 31, 72);
        let c = Matrix::<f32>::random(23, 31, 73);
        let want = gemm::baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
        for round in 0..2 {
            let r = ctx
                .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
                .unwrap();
            assert_bits_f32(&r.d, &want.d, &format!("t={t} round={round} after panic"));
        }
    }
}

// ---- the serving layer under chaos --------------------------------------

/// Submit a GEMM+CGEMM workload from two tenants to an armed service and
/// check (a) every completed result is bit-identical to baseline, (b) the
/// per-tenant conservation law, (c) tenant fault/instruction counters
/// reconcile exactly with the shared context's `ExecStats`.
fn serve_chaos_round(batching: BatchPolicy, shard_tiles: usize, shards: usize) {
    let serve = M3xuServe::new(ServeConfig {
        workers: 2,
        batching,
        shard_tiles,
        shards,
        fault_plan: Some(Arc::new(FaultPlan::new(9, 0.02))),
        ..ServeConfig::default()
    });
    let tenants = ["alice", "bob"];
    let mut gemm_tickets = Vec::new();
    let mut cgemm_tickets = Vec::new();
    for (case, &(m, k, n)) in SHAPES.iter().enumerate() {
        let tenant = tenants[case % tenants.len()];
        let a = Matrix::<f32>::random(m, k, case as u64 * 3 + 1);
        let b = Matrix::<f32>::random(k, n, case as u64 * 3 + 2);
        let c = Matrix::<f32>::random(m, n, case as u64 * 3 + 3);
        let want = gemm::baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
        let ticket = serve
            .submit_gemm_f32(
                tenant,
                GemmPrecision::M3xuFp32,
                a,
                b,
                c,
                SubmitOpts::default(),
            )
            .unwrap();
        gemm_tickets.push((case, ticket, want));

        let ca = Matrix::random_c32(m, k, case as u64 * 5 + 1);
        let cb = Matrix::random_c32(k, n, case as u64 * 5 + 2);
        let cc = Matrix::random_c32(m, n, case as u64 * 5 + 3);
        let cwant = gemm::baseline::cgemm_c32(&ca, &cb, &cc);
        let ticket = serve
            .submit_cgemm_c32(tenant, ca, cb, cc, SubmitOpts::default())
            .unwrap();
        cgemm_tickets.push((case, ticket, cwant));
    }
    for (case, ticket, want) in gemm_tickets {
        let r = ticket
            .wait()
            .unwrap_or_else(|e| panic!("case {case}: served GEMM failed under 2% chaos: {e}"));
        assert_bits_f32(&r.d, &want.d, &format!("served GEMM case {case}"));
    }
    for (case, ticket, want) in cgemm_tickets {
        let r = ticket
            .wait()
            .unwrap_or_else(|e| panic!("case {case}: served CGEMM failed under 2% chaos: {e}"));
        assert_bits_c32(&r.d, &want.d, &format!("served CGEMM case {case}"));
    }

    let totals = serve.total_stats();
    for tenant in serve.tenants() {
        let s = serve.tenant_stats(&tenant).unwrap();
        assert_eq!(
            s.submitted,
            s.completed + s.rejected + s.deadline_missed + s.exec_errors,
            "tenant {tenant}: conservation law"
        );
    }
    assert_eq!(totals.submitted, 2 * SHAPES.len() as u64);
    assert_eq!(totals.completed, totals.submitted);

    // Exact reconciliation against the summed shard stats (GEMM/CGEMM-only
    // workload, so tenant fault counters mirror ExecStats verbatim).
    let exec = serve.exec_stats();
    assert_eq!(totals.faults_detected, exec.faults_detected, "detected");
    assert_eq!(totals.faults_corrected, exec.faults_corrected, "corrected");
    assert_eq!(totals.retries, exec.fault_retries, "retries");
    assert_eq!(
        totals.faults_detected, totals.faults_corrected,
        "everything completed, so everything detected was corrected"
    );
    let mma = exec.total();
    assert_eq!(totals.mma_instructions, mma.instructions, "instructions");
    assert_eq!(totals.mma_steps, mma.steps, "steps");
    assert_eq!(totals.operand_bytes, exec.operand_bytes, "operand bytes");
}

#[test]
fn serve_chaos_batched_path_reconciles() {
    serve_chaos_round(BatchPolicy::Always, usize::MAX, 1);
}

#[test]
fn serve_chaos_sharded_path_reconciles() {
    serve_chaos_round(BatchPolicy::Never, 1, 1);
}

#[test]
fn serve_chaos_two_shards_reconcile() {
    serve_chaos_round(BatchPolicy::Adaptive, 4096, 2);
}

#[test]
fn serve_breaker_trips_per_tenant_and_counts_as_rejection() {
    let serve = M3xuServe::new(ServeConfig {
        workers: 1,
        fault_plan: Some(Arc::new(FaultPlan::new(5, 1.0))),
        max_retries: 0,
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_secs(30),
        degraded_after: 0,
        ..ServeConfig::default()
    });
    let submit = |tenant: &str| {
        serve
            .submit_gemm_f32(
                tenant,
                GemmPrecision::M3xuFp32,
                Matrix::<f32>::random(9, 7, 81),
                Matrix::<f32>::random(7, 5, 82),
                Matrix::<f32>::random(9, 5, 83),
                SubmitOpts::default(),
            )
            .and_then(|t| t.wait())
    };
    for attempt in 0..2 {
        match submit("hot") {
            Err(ServeError::Exec(M3xuError::FaultDetected { .. })) => {}
            other => panic!("attempt {attempt}: expected FaultDetected, got {other:?}"),
        }
    }
    // Streak of 2 tripped the breaker: the next submission sheds at
    // admission, before touching the queue.
    match submit("hot") {
        Err(ServeError::BreakerOpen { retry_after_ns }) => assert!(retry_after_ns > 0),
        other => panic!("expected BreakerOpen, got {other:?}"),
    }
    // The breaker is per-tenant: another tenant is still admitted (and
    // fails at execution, not admission).
    match submit("cold") {
        Err(ServeError::Exec(M3xuError::FaultDetected { .. })) => {}
        other => panic!("expected FaultDetected for cold tenant, got {other:?}"),
    }
    let hot = serve.tenant_stats("hot").unwrap();
    assert_eq!(hot.submitted, 3);
    assert_eq!(hot.exec_errors, 2);
    assert_eq!(hot.rejected, 1);
    assert_eq!(hot.completed, 0);
    assert_eq!(hot.breaker_trips, 1);
    assert_eq!(
        hot.submitted,
        hot.completed + hot.rejected + hot.deadline_missed + hot.exec_errors
    );
    let cold = serve.tenant_stats("cold").unwrap();
    assert_eq!(cold.breaker_trips, 0);
    assert_eq!(cold.exec_errors, 1);
}

#[test]
fn serve_degraded_mode_still_serves_correctly() {
    // Saturated tenant drives the service-wide fault streak past the
    // degraded threshold; a healthy submission afterwards must still be
    // served bit-identically (on the degraded serial path) and reset the
    // streak.
    let serve = M3xuServe::new(ServeConfig {
        workers: 2,
        fault_plan: Some(Arc::new(FaultPlan::new(13, 1.0))),
        max_retries: 0,
        breaker_threshold: 0,
        degraded_after: 1,
        ..ServeConfig::default()
    });
    let bad = serve
        .submit_gemm_f32(
            "t",
            GemmPrecision::M3xuFp32,
            Matrix::<f32>::random(9, 7, 91),
            Matrix::<f32>::random(7, 5, 92),
            Matrix::<f32>::random(9, 5, 93),
            SubmitOpts::default(),
        )
        .and_then(|t| t.wait());
    assert!(
        matches!(bad, Err(ServeError::Exec(M3xuError::FaultDetected { .. }))),
        "saturated request must fail detectably, got {bad:?}"
    );
    // Under universal ABFT every engine routes through the checked
    // driver, so no precision dodges the saturated plan — but a
    // degenerate-K GEMM schedules zero MMA chunks, leaving the plan
    // nothing to corrupt. It succeeds, and it arrives while the fault
    // streak (1 >= degraded_after) has the scheduler in degraded serial
    // mode.
    let a = Matrix::<f32>::random(23, 0, 94);
    let b = Matrix::<f32>::random(0, 31, 95);
    let c = Matrix::<f32>::random(23, 31, 96);
    let want = gemm::baseline::gemm_f32(GemmPrecision::Bf16, &a, &b, &c);
    let r = serve
        .submit_gemm_f32("t", GemmPrecision::Bf16, a, b, c, SubmitOpts::default())
        .and_then(|t| t.wait())
        .expect("degraded-mode request must still be served");
    assert_bits_f32(&r.d, &want.d, "degraded-mode BF16 GEMM");
    let s = serve.tenant_stats("t").unwrap();
    assert_eq!(s.completed, 1);
    assert_eq!(s.exec_errors, 1);
}

#[test]
fn serve_fft_recovers_under_chaos() {
    // The FFT's internal CGEMMs run the checked driver when the context
    // is armed; a recoverable plan must leave the spectrum bit-identical
    // to the unarmed path.
    let n = 64usize;
    let x: Vec<C32> = (0..n)
        .map(|i| C32::new((i as f32 * 0.37).sin(), (i as f32 * 0.11).cos()))
        .collect();
    let want = M3xuContext::with_threads(2).try_gemm_fft(&x).unwrap().0;
    let serve = M3xuServe::new(ServeConfig {
        workers: 2,
        fault_plan: Some(Arc::new(FaultPlan::new(21, 0.02))),
        ..ServeConfig::default()
    });
    let (y, _) = serve
        .submit_fft("fft", x, SubmitOpts::default())
        .and_then(|t| t.wait())
        .expect("served FFT under 2% chaos");
    assert_eq!(y.len(), want.len());
    for (i, (a, b)) in y.iter().zip(&want).enumerate() {
        assert_eq!(a.re.to_bits(), b.re.to_bits(), "fft bin {i} (re)");
        assert_eq!(a.im.to_bits(), b.im.to_bits(), "fft bin {i} (im)");
    }
    // FFT fault telemetry is context-level by design.
    assert!(serve.exec_stats().faults_detected >= serve.total_stats().faults_detected);
}

// ---- universal ABFT: the BLAS-3 surface and the f64 family --------------

/// Shared verdict for one armed checked run against its unfaulted oracle:
/// recovered ⇒ bit-identical output and identical `MmaStats` with
/// `detected == corrected`; unrecoverable ⇒ a typed `FaultDetected` that
/// names the op. Returns the run's fault telemetry either way — the
/// result's own summary, or the error's counts.
fn check_armed_run<T>(
    res: Result<GemmResult<T>, M3xuError>,
    want: &GemmResult<T>,
    opname: &str,
    tag: &str,
    bits: impl Fn(&Matrix<T>, &Matrix<T>, &str),
) -> FaultSummary {
    match res {
        Ok(r) => {
            bits(&r.d, &want.d, tag);
            assert_eq!(r.stats, want.stats, "{tag}: stats");
            assert_eq!(r.mode, want.mode, "{tag}: mode");
            assert_eq!(r.operand_bytes, want.operand_bytes, "{tag}: operand bytes");
            assert_eq!(
                r.faults.detected, r.faults.corrected,
                "{tag}: a recovered run repaired everything it detected"
            );
            r.faults
        }
        Err(M3xuError::FaultDetected {
            op,
            tiles,
            detected,
            corrected,
            retries,
            ..
        }) => {
            assert_eq!(op, opname, "{tag}: the error names the failing op");
            assert!(tiles > 0, "{tag}: a fault error names the failed tiles");
            assert!(corrected < detected, "{tag}: something stayed uncorrected");
            FaultSummary {
                detected,
                corrected,
                retries,
            }
        }
        Err(e) => panic!("{tag}: unexpected error {e}"),
    }
}

/// Seed x rate sweep over every BLAS-3 driver plus the plain and
/// op-taking f64 GEMMs. No `baseline` module exists for BLAS-3, so the
/// oracle is the same op on an *unarmed* context — bit-determinism
/// across contexts and thread counts is pinned by the differential
/// suites, which makes that a sound reference.
#[test]
fn armed_blas3_and_f64_sweep_recovers_bit_identically() {
    let oracle = M3xuContext::with_threads(2);
    let p = GemmPrecision::M3xuFp32;
    let mut faults_seen = 0u64;
    for &seed in &[3u64, 17] {
        for &rate in &[1e-3, 0.05] {
            let ctx =
                M3xuContext::with_threads(2).with_fault_plan(Arc::new(FaultPlan::new(seed, rate)));
            // Σ of every run's reported faults; must equal the counters
            // the armed context recorded, field for field.
            let mut reported = FaultSummary::default();
            let mut seen = |s: FaultSummary| reported.absorb(s);
            for (case, &(m, k, n)) in [(7, 11, 13), (23, 29, 31), (9, 15, 33)].iter().enumerate() {
                let salt = case as u64 * 101 + seed * 7;
                let tag = format!("seed={seed} rate={rate} {m}x{k}x{n}");

                // gemm_op: D = 0.75·A^T·B − 1.25·C (A stored K x M).
                let a = Matrix::<f32>::random(k, m, salt + 1);
                let b = Matrix::<f32>::random(k, n, salt + 2);
                let c = Matrix::<f32>::random(m, n, salt + 3);
                let want = oracle
                    .try_gemm_op_f32(p, MatOp::T, &a, MatOp::N, &b, 0.75, -1.25, &c)
                    .unwrap();
                seen(check_armed_run(
                    ctx.try_gemm_op_f32(p, MatOp::T, &a, MatOp::N, &b, 0.75, -1.25, &c),
                    &want,
                    "gemm_op",
                    &format!("{tag} gemm_op"),
                    assert_bits_f32,
                ));

                // Plain emulated-FP64 GEMM.
                let a = Matrix::<f64>::random_f64(m, k, salt + 4);
                let b = Matrix::<f64>::random_f64(k, n, salt + 5);
                let c = Matrix::<f64>::random_f64(m, n, salt + 6);
                let want = oracle
                    .try_gemm_f64(GemmPrecision::Fp64Emulated, &a, &b, &c)
                    .unwrap();
                seen(check_armed_run(
                    ctx.try_gemm_f64(GemmPrecision::Fp64Emulated, &a, &b, &c),
                    &want,
                    "gemm_f64",
                    &format!("{tag} gemm_f64"),
                    assert_bits_f64,
                ));

                // f64 gemm_op: D = 1.5·A·B^T + 0.5·C (B stored N x K).
                let bt = Matrix::<f64>::random_f64(n, k, salt + 7);
                let c = Matrix::<f64>::random_f64(m, n, salt + 8);
                let want = oracle
                    .try_gemm_op_f64(
                        GemmPrecision::Fp64Emulated,
                        MatOp::N,
                        &a,
                        MatOp::T,
                        &bt,
                        1.5,
                        0.5,
                        &c,
                    )
                    .unwrap();
                seen(check_armed_run(
                    ctx.try_gemm_op_f64(
                        GemmPrecision::Fp64Emulated,
                        MatOp::N,
                        &a,
                        MatOp::T,
                        &bt,
                        1.5,
                        0.5,
                        &c,
                    ),
                    &want,
                    "gemm_op_f64",
                    &format!("{tag} gemm_op_f64"),
                    assert_bits_f64,
                ));

                // SYRK (Lower, N): C = 0.5·A·A^T + 2·C, C is M x M.
                let a = Matrix::<f32>::random(m, k, salt + 9);
                let c = Matrix::<f32>::random(m, m, salt + 10);
                let want = oracle
                    .try_syrk_f32(p, Triangle::Lower, MatOp::N, &a, 0.5, 2.0, &c)
                    .unwrap();
                seen(check_armed_run(
                    ctx.try_syrk_f32(p, Triangle::Lower, MatOp::N, &a, 0.5, 2.0, &c),
                    &want,
                    "syrk",
                    &format!("{tag} syrk"),
                    assert_bits_f32,
                ));

                // HERK (Upper, N): C = 0.75·A·A^H − 0.5·C, C is M x M.
                let a = Matrix::random_c32(m, k, salt + 11);
                let c = Matrix::random_c32(m, m, salt + 12);
                let want = oracle
                    .try_herk_c32(Triangle::Upper, MatOp::N, &a, 0.75, -0.5, &c)
                    .unwrap();
                seen(check_armed_run(
                    ctx.try_herk_c32(Triangle::Upper, MatOp::N, &a, 0.75, -0.5, &c),
                    &want,
                    "herk",
                    &format!("{tag} herk"),
                    assert_bits_c32,
                ));

                // SYMM (Left, Upper): C = −0.5·A·B + 1.25·C, A is M x M.
                let a = Matrix::<f32>::random(m, m, salt + 13);
                let b = Matrix::<f32>::random(m, n, salt + 14);
                let c = Matrix::<f32>::random(m, n, salt + 15);
                let want = oracle
                    .try_symm_f32(p, Side::Left, Triangle::Upper, &a, &b, -0.5, 1.25, &c)
                    .unwrap();
                seen(check_armed_run(
                    ctx.try_symm_f32(p, Side::Left, Triangle::Upper, &a, &b, -0.5, 1.25, &c),
                    &want,
                    "symm",
                    &format!("{tag} symm"),
                    assert_bits_f32,
                ));

                // HEMM (Right, Lower): C = α·B·A + β·C, A is N x N.
                let a = Matrix::random_c32(n, n, salt + 16);
                let b = Matrix::random_c32(m, n, salt + 17);
                let c = Matrix::random_c32(m, n, salt + 18);
                let (alpha, beta) = (C32::new(0.5, -0.25), C32::new(1.0, 0.5));
                let want = oracle
                    .try_hemm_c32(Side::Right, Triangle::Lower, &a, &b, alpha, beta, &c)
                    .unwrap();
                seen(check_armed_run(
                    ctx.try_hemm_c32(Side::Right, Triangle::Lower, &a, &b, alpha, beta, &c),
                    &want,
                    "hemm",
                    &format!("{tag} hemm"),
                    assert_bits_c32,
                ));
            }
            let stats = ctx.stats();
            let counters = FaultSummary {
                detected: stats.faults_detected,
                corrected: stats.faults_corrected,
                retries: stats.fault_retries,
            };
            assert_eq!(reported, counters, "seed={seed} rate={rate}");
            faults_seen += reported.detected;
        }
    }
    assert!(faults_seen > 0, "the 5% sweeps must actually inject faults");
}

/// One armed serve round over the whole BLAS-3 + f64 surface: submit a
/// mixed workload from two tenants, check every result bit-identical to
/// the unarmed oracle, and reconcile tenant fault counters exactly with
/// the summed per-shard `ExecStats`. Returns faults detected.
fn serve_blas3_round(shards: usize, seed: u64, rate: f64) -> u64 {
    let oracle = M3xuContext::with_threads(2);
    let p = GemmPrecision::M3xuFp32;
    let serve = M3xuServe::new(ServeConfig {
        workers: 2,
        shards,
        fault_plan: Some(Arc::new(FaultPlan::new(seed, rate))),
        ..ServeConfig::default()
    });
    let tenants = ["alice", "bob"];
    let shapes = [
        (7usize, 11usize, 13usize),
        (23, 29, 31),
        (9, 15, 33),
        (33, 17, 29),
    ];
    let mut f32_waits = Vec::new();
    let mut c32_waits = Vec::new();
    let mut f64_waits = Vec::new();
    let opts = SubmitOpts::default;
    for (case, &(m, k, n)) in shapes.iter().enumerate() {
        let tenant = tenants[case % tenants.len()];
        let salt = case as u64 * 211 + seed * 13;

        let a = Matrix::<f32>::random(k, m, salt + 1);
        let b = Matrix::<f32>::random(k, n, salt + 2);
        let c = Matrix::<f32>::random(m, n, salt + 3);
        let want = oracle
            .try_gemm_op_f32(p, MatOp::T, &a, MatOp::N, &b, 0.75, -1.25, &c)
            .unwrap();
        let t = serve
            .submit_gemm_op_f32(tenant, p, MatOp::T, a, MatOp::N, b, 0.75, -1.25, c, opts())
            .unwrap();
        f32_waits.push((format!("case {case} gemm_op"), t, want));

        let a = Matrix::<f32>::random(m, k, salt + 4);
        let c = Matrix::<f32>::random(m, m, salt + 5);
        let want = oracle
            .try_syrk_f32(p, Triangle::Lower, MatOp::N, &a, 0.5, 2.0, &c)
            .unwrap();
        let t = serve
            .submit_syrk_f32(tenant, p, Triangle::Lower, MatOp::N, a, 0.5, 2.0, c, opts())
            .unwrap();
        f32_waits.push((format!("case {case} syrk"), t, want));

        let a = Matrix::<f32>::random(m, m, salt + 6);
        let b = Matrix::<f32>::random(m, n, salt + 7);
        let c = Matrix::<f32>::random(m, n, salt + 8);
        let want = oracle
            .try_symm_f32(p, Side::Left, Triangle::Upper, &a, &b, -0.5, 1.25, &c)
            .unwrap();
        let t = serve
            .submit_symm_f32(
                tenant,
                p,
                Side::Left,
                Triangle::Upper,
                a,
                b,
                -0.5,
                1.25,
                c,
                opts(),
            )
            .unwrap();
        f32_waits.push((format!("case {case} symm"), t, want));

        let a = Matrix::random_c32(m, k, salt + 9);
        let c = Matrix::random_c32(m, m, salt + 10);
        let want = oracle
            .try_herk_c32(Triangle::Upper, MatOp::N, &a, 0.75, -0.5, &c)
            .unwrap();
        let t = serve
            .submit_herk_c32(tenant, Triangle::Upper, MatOp::N, a, 0.75, -0.5, c, opts())
            .unwrap();
        c32_waits.push((format!("case {case} herk"), t, want));

        let a = Matrix::random_c32(n, n, salt + 11);
        let b = Matrix::random_c32(m, n, salt + 12);
        let c = Matrix::random_c32(m, n, salt + 13);
        let (alpha, beta) = (C32::new(0.5, -0.25), C32::new(1.0, 0.5));
        let want = oracle
            .try_hemm_c32(Side::Right, Triangle::Lower, &a, &b, alpha, beta, &c)
            .unwrap();
        let t = serve
            .submit_hemm_c32(
                tenant,
                Side::Right,
                Triangle::Lower,
                a,
                b,
                alpha,
                beta,
                c,
                opts(),
            )
            .unwrap();
        c32_waits.push((format!("case {case} hemm"), t, want));

        let a = Matrix::<f64>::random_f64(m, k, salt + 14);
        let b = Matrix::<f64>::random_f64(k, n, salt + 15);
        let c = Matrix::<f64>::random_f64(m, n, salt + 16);
        let want = oracle
            .try_gemm_f64(GemmPrecision::Fp64Emulated, &a, &b, &c)
            .unwrap();
        let t = serve.submit_gemm_f64(tenant, a, b, c, opts()).unwrap();
        f64_waits.push((format!("case {case} gemm_f64"), t, want));
    }
    let round = format!("shards={shards} seed={seed} rate={rate}");
    for (tag, ticket, want) in f32_waits {
        let r = ticket
            .wait()
            .unwrap_or_else(|e| panic!("{round} {tag}: failed under chaos: {e}"));
        assert_bits_f32(&r.d, &want.d, &format!("{round} {tag}"));
    }
    for (tag, ticket, want) in c32_waits {
        let r = ticket
            .wait()
            .unwrap_or_else(|e| panic!("{round} {tag}: failed under chaos: {e}"));
        assert_bits_c32(&r.d, &want.d, &format!("{round} {tag}"));
    }
    for (tag, ticket, want) in f64_waits {
        let r = ticket
            .wait()
            .unwrap_or_else(|e| panic!("{round} {tag}: failed under chaos: {e}"));
        assert_bits_f64(&r.d, &want.d, &format!("{round} {tag}"));
    }

    let totals = serve.total_stats();
    for tenant in serve.tenants() {
        let s = serve.tenant_stats(&tenant).unwrap();
        assert_eq!(
            s.submitted,
            s.completed + s.rejected + s.deadline_missed + s.exec_errors,
            "{round} tenant {tenant}: conservation law"
        );
    }
    assert_eq!(totals.submitted, 6 * shapes.len() as u64, "{round}");
    assert_eq!(totals.completed, totals.submitted, "{round}");

    // Σ tenant fault counters == Σ per-shard ExecStats, exactly — the
    // workload is all GEMM/BLAS-3, so nothing is context-level-only.
    let exec = serve.exec_stats();
    assert_eq!(
        totals.faults_detected, exec.faults_detected,
        "{round}: detected"
    );
    assert_eq!(
        totals.faults_corrected, exec.faults_corrected,
        "{round}: corrected"
    );
    assert_eq!(totals.retries, exec.fault_retries, "{round}: retries");
    assert_eq!(
        totals.faults_detected, totals.faults_corrected,
        "{round}: everything completed, so everything detected was corrected"
    );
    let mma = exec.total();
    assert_eq!(
        totals.mma_instructions, mma.instructions,
        "{round}: instructions"
    );
    assert_eq!(totals.mma_steps, mma.steps, "{round}: steps");
    assert_eq!(
        totals.operand_bytes, exec.operand_bytes,
        "{round}: operand bytes"
    );
    exec.faults_detected
}

#[test]
fn serve_blas3_chaos_single_shard_reconciles() {
    let faults = serve_blas3_round(1, 9, 1e-3) + serve_blas3_round(1, 42, 0.02);
    assert!(faults > 0, "the 2% round must actually inject faults");
}

#[test]
fn serve_blas3_chaos_four_shards_reconcile() {
    let faults = serve_blas3_round(4, 9, 1e-3) + serve_blas3_round(4, 42, 0.02);
    assert!(faults > 0, "the 2% round must actually inject faults");
}

// ---- shard self-healing --------------------------------------------------

#[test]
fn watchdog_respawns_a_killed_shard_and_conserves_accounting() {
    let serve = M3xuServe::new(ServeConfig {
        workers: 1,
        shards: 1,
        ..ServeConfig::default()
    });
    let gemm_inputs = |salt: u64| {
        (
            Matrix::<f32>::random(23, 29, salt),
            Matrix::<f32>::random(29, 31, salt + 1),
            Matrix::<f32>::random(23, 31, salt + 2),
        )
    };
    // A healthy request before the kill.
    let (a, b, c) = gemm_inputs(301);
    let want = gemm::baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
    let r = serve
        .submit_gemm_f32("w", GemmPrecision::M3xuFp32, a, b, c, SubmitOpts::default())
        .and_then(|t| t.wait())
        .expect("pre-kill GEMM");
    assert_bits_f32(&r.d, &want.d, "pre-kill GEMM");

    // Kill the only scheduler thread. The chaos request settles as
    // completed *before* throwing, so its ticket resolves Ok and the
    // conservation law is unharmed by the thread death.
    serve
        .inject_chaos("w", ChaosKind::KillShard, SubmitOpts::default())
        .expect("chaos admission")
        .wait()
        .expect("kill-shard ticket settles before the thread dies");

    // The watchdog notices the dead scheduler and respawns it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while serve.respawn_count() == 0 {
        assert!(
            Instant::now() < deadline,
            "watchdog never respawned the killed shard"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // The respawned scheduler serves new work on the same shard queue.
    let (a, b, c) = gemm_inputs(311);
    let want = gemm::baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
    let r = serve
        .submit_gemm_f32("w", GemmPrecision::M3xuFp32, a, b, c, SubmitOpts::default())
        .and_then(|t| t.wait())
        .expect("post-respawn GEMM must be served");
    assert_bits_f32(&r.d, &want.d, "post-respawn GEMM");

    assert!(serve.respawn_count() >= 1);
    let s = serve.tenant_stats("w").unwrap();
    assert_eq!(s.submitted, 3, "two GEMMs plus the chaos request");
    assert_eq!(s.completed, 3, "the kill settled as completed");
    assert_eq!(
        s.submitted,
        s.completed + s.rejected + s.deadline_missed + s.exec_errors,
        "conservation law survives the scheduler-thread kill"
    );
}

#[test]
fn poison_request_quarantines_alone_without_tripping_the_breaker() {
    // A hair-trigger breaker: a single *settled* failure would open it.
    // Quarantine must not, because poison says nothing about hardware
    // fault health.
    let serve = M3xuServe::new(ServeConfig {
        workers: 2,
        breaker_threshold: 1,
        breaker_cooldown: Duration::from_secs(30),
        ..ServeConfig::default()
    });
    match serve
        .inject_chaos("p", ChaosKind::Panic, SubmitOpts::default())
        .expect("chaos admission")
        .wait()
    {
        Err(ServeError::Quarantined { attempts }) => {
            assert_eq!(attempts, 3, "quarantined after the configured attempts");
        }
        other => panic!("expected Quarantined, got {other:?}"),
    }
    // The same tenant is still admitted — the breaker never opened — and
    // its healthy requests are served bit-identically.
    for round in 0..2u64 {
        let a = Matrix::<f32>::random(9, 7, 401 + round * 3);
        let b = Matrix::<f32>::random(7, 5, 402 + round * 3);
        let c = Matrix::<f32>::random(9, 5, 403 + round * 3);
        let want = gemm::baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
        let r = serve
            .submit_gemm_f32("p", GemmPrecision::M3xuFp32, a, b, c, SubmitOpts::default())
            .and_then(|t| t.wait())
            .expect("healthy request after quarantine must be admitted and served");
        assert_bits_f32(&r.d, &want.d, &format!("post-quarantine GEMM {round}"));
    }
    let s = serve.tenant_stats("p").unwrap();
    assert_eq!(s.submitted, 3);
    assert_eq!(s.exec_errors, 1, "the quarantine counts as one exec error");
    assert_eq!(s.completed, 2);
    assert_eq!(s.rejected, 0, "nothing was shed at admission");
    assert_eq!(s.breaker_trips, 0, "poison must not advance the breaker");
    assert_eq!(
        s.submitted,
        s.completed + s.rejected + s.deadline_missed + s.exec_errors,
        "conservation law"
    );
}

// ---- golden fault telemetry ---------------------------------------------

/// FNV-1a over a result's output bits, one `u64` per element.
fn digest(bits: impl IntoIterator<Item = u64>) -> u64 {
    bits.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One armed call's outcome as a golden-table cell: the result's
/// `(detected, corrected, retries)` and a digest of `D`, or the
/// `FaultDetected` error's fields.
fn golden_cell<T: Copy + Default>(
    res: Result<GemmResult<T>, M3xuError>,
    bits: impl Fn(&T) -> u64,
) -> String {
    match res {
        Ok(r) => {
            let f = r.faults;
            let d = digest(r.d.as_slice().iter().map(bits));
            format!("ok {}/{}/{} {d:016x}", f.detected, f.corrected, f.retries)
        }
        Err(M3xuError::FaultDetected {
            op,
            tiles,
            detected,
            corrected,
            retries,
            ..
        }) => format!("{op} fault tiles={tiles} {detected}/{corrected}/{retries}"),
        Err(e) => panic!("unexpected error {e}"),
    }
}

/// The checked calls of one golden grid point, in a fixed order on one
/// freshly armed context (so each call's salt is its index): FP32, fast
/// FP32 and FP16 GEMMs, an FP32C CGEMM, a HERK and an emulated-FP64 GEMM.
fn golden_calls(ctx: &M3xuContext, (m, k, n): (usize, usize, usize)) -> Vec<String> {
    let c32_bits = |z: &C32| (z.re.to_bits() as u64) << 32 | z.im.to_bits() as u64;
    let (a, b, c) = (
        Matrix::<f32>::random(m, k, 901),
        Matrix::<f32>::random(k, n, 902),
        Matrix::<f32>::random(m, n, 903),
    );
    let mut cells = Vec::new();
    for p in [
        GemmPrecision::M3xuFp32,
        GemmPrecision::Fp32Fast,
        GemmPrecision::Fp16,
    ] {
        let cell = golden_cell(ctx.try_gemm_f32(p, &a, &b, &c), |x| x.to_bits() as u64);
        cells.push(format!("{p:?} {cell}"));
    }
    let (ca, cb, cc) = (
        Matrix::random_c32(m, k, 904),
        Matrix::random_c32(k, n, 905),
        Matrix::random_c32(m, n, 906),
    );
    cells.push(format!(
        "Fp32c {}",
        golden_cell(ctx.try_cgemm_c32(&ca, &cb, &cc), c32_bits)
    ));
    let hc = Matrix::random_c32(m, m, 907);
    let herk = ctx.try_herk_c32(Triangle::Upper, MatOp::N, &ca, 0.75, -0.5, &hc);
    cells.push(format!("Herk {}", golden_cell(herk, c32_bits)));
    let (da, db, dc) = (
        Matrix::<f64>::random_f64(m, k, 908),
        Matrix::<f64>::random_f64(k, n, 909),
        Matrix::<f64>::random_f64(m, n, 910),
    );
    let f64 = ctx.try_gemm_f64(GemmPrecision::Fp64Emulated, &da, &db, &dc);
    cells.push(format!("Fp64 {}", golden_cell(f64, |x| x.to_bits())));
    cells
}

/// The fault telemetry of every checked call in the grid below, one line
/// per call: `shape seed rate op outcome`, where an outcome is `ok
/// detected/corrected/retries digest` or the error's `op fault
/// tiles=... detected/corrected/retries`. It was produced by this test on
/// the code before checked tiles verified whole blocks of chunks, and
/// must not move with how a tile is scheduled. Regenerate it by running
/// this test with `--nocapture` and copying the table it prints on a
/// mismatch, after reviewing why the telemetry moved.
const GOLDEN_FAULTS: &str = "
64x64x64 seed=1 rate=0.001 M3xuFp32 ok 2/2/2 48f68a4da5e58647
64x64x64 seed=1 rate=0.001 Fp32Fast ok 1/1/1 2de25eaad5bc840a
64x64x64 seed=1 rate=0.001 Fp16 ok 1/1/1 52c2ec55928b4984
64x64x64 seed=1 rate=0.001 Fp32c ok 6/6/6 33a75c48969ba802
64x64x64 seed=1 rate=0.001 Herk ok 3/3/3 8c82f93c874589ff
64x64x64 seed=1 rate=0.001 Fp64 ok 6/6/6 b54df542f1465c88
64x64x64 seed=1 rate=0.02 M3xuFp32 ok 42/42/42 48f68a4da5e58647
64x64x64 seed=1 rate=0.02 Fp32Fast ok 39/39/39 2de25eaad5bc840a
64x64x64 seed=1 rate=0.02 Fp16 ok 25/25/25 52c2ec55928b4984
64x64x64 seed=1 rate=0.02 Fp32c ok 88/88/88 33a75c48969ba802
64x64x64 seed=1 rate=0.02 Herk ok 50/50/50 8c82f93c874589ff
64x64x64 seed=1 rate=0.02 Fp64 ok 91/91/91 b54df542f1465c88
64x64x64 seed=1 rate=0.25 M3xuFp32 gemm fault tiles=11 1378/1334/1362
64x64x64 seed=1 rate=0.25 Fp32Fast gemm fault tiles=6 655/631/649
64x64x64 seed=1 rate=0.25 Fp16 gemm fault tiles=5 674/654/662
64x64x64 seed=1 rate=0.25 Fp32c cgemm fault tiles=9 2361/2325/2340
64x64x64 seed=1 rate=0.25 Herk herk fault tiles=8 653/621/645
64x64x64 seed=1 rate=0.25 Fp64 gemm_f64 fault tiles=11 2414/2370/2386
64x64x64 seed=7 rate=0.001 M3xuFp32 ok 1/1/1 48f68a4da5e58647
64x64x64 seed=7 rate=0.001 Fp32Fast ok 0/0/0 2de25eaad5bc840a
64x64x64 seed=7 rate=0.001 Fp16 ok 2/2/2 52c2ec55928b4984
64x64x64 seed=7 rate=0.001 Fp32c ok 5/5/5 33a75c48969ba802
64x64x64 seed=7 rate=0.001 Herk ok 4/4/4 8c82f93c874589ff
64x64x64 seed=7 rate=0.001 Fp64 ok 5/5/5 b54df542f1465c88
64x64x64 seed=7 rate=0.02 M3xuFp32 ok 49/49/49 48f68a4da5e58647
64x64x64 seed=7 rate=0.02 Fp32Fast ok 50/50/50 2de25eaad5bc840a
64x64x64 seed=7 rate=0.02 Fp16 ok 26/26/26 52c2ec55928b4984
64x64x64 seed=7 rate=0.02 Fp32c ok 92/92/92 33a75c48969ba802
64x64x64 seed=7 rate=0.02 Herk ok 50/50/50 8c82f93c874589ff
64x64x64 seed=7 rate=0.02 Fp64 ok 82/82/82 b54df542f1465c88
64x64x64 seed=7 rate=0.25 M3xuFp32 gemm fault tiles=6 655/631/649
64x64x64 seed=7 rate=0.25 Fp32Fast gemm fault tiles=10 729/689/719
64x64x64 seed=7 rate=0.25 Fp16 gemm fault tiles=4 349/333/345
64x64x64 seed=7 rate=0.25 Fp32c cgemm fault tiles=9 1218/1182/1209
64x64x64 seed=7 rate=0.25 Herk herk fault tiles=7 680/652/673
64x64x64 seed=7 rate=0.25 Fp64 gemm_f64 fault tiles=12 1184/1136/1172
64x64x64 seed=23 rate=0.001 M3xuFp32 ok 1/1/1 48f68a4da5e58647
64x64x64 seed=23 rate=0.001 Fp32Fast ok 3/3/3 2de25eaad5bc840a
64x64x64 seed=23 rate=0.001 Fp16 ok 0/0/0 52c2ec55928b4984
64x64x64 seed=23 rate=0.001 Fp32c ok 6/6/6 33a75c48969ba802
64x64x64 seed=23 rate=0.001 Herk ok 0/0/0 8c82f93c874589ff
64x64x64 seed=23 rate=0.001 Fp64 ok 2/2/2 b54df542f1465c88
64x64x64 seed=23 rate=0.02 M3xuFp32 ok 37/37/37 48f68a4da5e58647
64x64x64 seed=23 rate=0.02 Fp32Fast ok 37/37/37 2de25eaad5bc840a
64x64x64 seed=23 rate=0.02 Fp16 ok 26/26/26 52c2ec55928b4984
64x64x64 seed=23 rate=0.02 Fp32c ok 100/100/100 33a75c48969ba802
64x64x64 seed=23 rate=0.02 Herk ok 41/41/41 8c82f93c874589ff
64x64x64 seed=23 rate=0.02 Fp64 ok 74/74/74 b54df542f1465c88
64x64x64 seed=23 rate=0.25 M3xuFp32 gemm fault tiles=6 653/629/647
64x64x64 seed=23 rate=0.25 Fp32Fast gemm fault tiles=5 657/637/652
64x64x64 seed=23 rate=0.25 Fp16 gemm fault tiles=5 936/916/922
64x64x64 seed=23 rate=0.25 Fp32c cgemm fault tiles=16 1189/1125/1173
64x64x64 seed=23 rate=0.25 Herk herk fault tiles=5 721/701/716
64x64x64 seed=23 rate=0.25 Fp64 gemm_f64 fault tiles=9 2395/2359/2370
37x29x53 seed=1 rate=0.001 M3xuFp32 ok 0/0/0 f7c7d36797a801f0
37x29x53 seed=1 rate=0.001 Fp32Fast ok 0/0/0 cfebd9aec4e686d4
37x29x53 seed=1 rate=0.001 Fp16 ok 0/0/0 3d84448faa9d96a2
37x29x53 seed=1 rate=0.001 Fp32c ok 2/2/2 f609e4a82679fc6e
37x29x53 seed=1 rate=0.001 Herk ok 2/2/2 5dec47e34946c3e2
37x29x53 seed=1 rate=0.001 Fp64 ok 3/3/3 3649221c735b5fb7
37x29x53 seed=1 rate=0.02 M3xuFp32 ok 7/7/7 f7c7d36797a801f0
37x29x53 seed=1 rate=0.02 Fp32Fast ok 9/9/9 cfebd9aec4e686d4
37x29x53 seed=1 rate=0.02 Fp16 ok 6/6/6 3d84448faa9d96a2
37x29x53 seed=1 rate=0.02 Fp32c ok 20/20/20 f609e4a82679fc6e
37x29x53 seed=1 rate=0.02 Herk ok 8/8/8 5dec47e34946c3e2
37x29x53 seed=1 rate=0.02 Fp64 ok 36/36/36 3649221c735b5fb7
37x29x53 seed=1 rate=0.25 M3xuFp32 gemm fault tiles=3 360/348/356
37x29x53 seed=1 rate=0.25 Fp32Fast gemm fault tiles=2 176/168/174
37x29x53 seed=1 rate=0.25 Fp16 gemm fault tiles=2 191/183/188
37x29x53 seed=1 rate=0.25 Fp32c cgemm fault tiles=3 581/569/575
37x29x53 seed=1 rate=0.25 Herk herk fault tiles=1 120/116/119
37x29x53 seed=1 rate=0.25 Fp64 gemm_f64 fault tiles=7 316/288/309
37x29x53 seed=7 rate=0.001 M3xuFp32 ok 0/0/0 f7c7d36797a801f0
37x29x53 seed=7 rate=0.001 Fp32Fast ok 0/0/0 cfebd9aec4e686d4
37x29x53 seed=7 rate=0.001 Fp16 ok 2/2/2 3d84448faa9d96a2
37x29x53 seed=7 rate=0.001 Fp32c ok 2/2/2 f609e4a82679fc6e
37x29x53 seed=7 rate=0.001 Herk ok 0/0/0 5dec47e34946c3e2
37x29x53 seed=7 rate=0.001 Fp64 ok 2/2/2 3649221c735b5fb7
37x29x53 seed=7 rate=0.02 M3xuFp32 ok 14/14/14 f7c7d36797a801f0
37x29x53 seed=7 rate=0.02 Fp32Fast ok 19/19/19 cfebd9aec4e686d4
37x29x53 seed=7 rate=0.02 Fp16 ok 7/7/7 3d84448faa9d96a2
37x29x53 seed=7 rate=0.02 Fp32c ok 19/19/19 f609e4a82679fc6e
37x29x53 seed=7 rate=0.02 Herk ok 5/5/5 5dec47e34946c3e2
37x29x53 seed=7 rate=0.02 Fp64 ok 22/22/22 3649221c735b5fb7
37x29x53 seed=7 rate=0.25 M3xuFp32 gemm fault tiles=4 169/153/165
37x29x53 seed=7 rate=0.25 Fp32Fast gemm fault tiles=3 205/193/202
37x29x53 seed=7 rate=0.25 Fp16 gemm fault tiles=1 105/101/104
37x29x53 seed=7 rate=0.25 Fp32c cgemm fault tiles=2 326/318/324
37x29x53 seed=7 rate=0.25 Herk herk fault tiles=2 125/117/123
37x29x53 seed=7 rate=0.25 Fp64 gemm_f64 fault tiles=5 300/280/295
37x29x53 seed=23 rate=0.001 M3xuFp32 ok 0/0/0 f7c7d36797a801f0
37x29x53 seed=23 rate=0.001 Fp32Fast ok 0/0/0 cfebd9aec4e686d4
37x29x53 seed=23 rate=0.001 Fp16 ok 0/0/0 3d84448faa9d96a2
37x29x53 seed=23 rate=0.001 Fp32c ok 2/2/2 f609e4a82679fc6e
37x29x53 seed=23 rate=0.001 Herk ok 0/0/0 5dec47e34946c3e2
37x29x53 seed=23 rate=0.001 Fp64 ok 0/0/0 3649221c735b5fb7
37x29x53 seed=23 rate=0.02 M3xuFp32 ok 7/7/7 f7c7d36797a801f0
37x29x53 seed=23 rate=0.02 Fp32Fast ok 3/3/3 cfebd9aec4e686d4
37x29x53 seed=23 rate=0.02 Fp16 ok 6/6/6 3d84448faa9d96a2
37x29x53 seed=23 rate=0.02 Fp32c ok 26/26/26 f609e4a82679fc6e
37x29x53 seed=23 rate=0.02 Herk ok 11/11/11 5dec47e34946c3e2
37x29x53 seed=23 rate=0.02 Fp64 ok 21/21/21 3649221c735b5fb7
37x29x53 seed=23 rate=0.25 M3xuFp32 ok 147/147/147 f7c7d36797a801f0
37x29x53 seed=23 rate=0.25 Fp32Fast gemm fault tiles=3 152/140/149
37x29x53 seed=23 rate=0.25 Fp16 gemm fault tiles=1 245/241/242
37x29x53 seed=23 rate=0.25 Fp32c cgemm fault tiles=3 332/320/329
37x29x53 seed=23 rate=0.25 Herk herk fault tiles=1 144/140/143
37x29x53 seed=23 rate=0.25 Fp64 gemm_f64 fault tiles=1 639/635/634
";

#[test]
fn golden_fault_summaries_match_the_committed_table() {
    // Every chunk's match decision, and with it each call's detected,
    // corrected and retried counts (or its `FaultDetected` error), is a
    // pure function of the plan, the operands and the checksum algebra,
    // the same at every thread count and SIMD level.
    let mut got = Vec::new();
    for shape in [(64, 64, 64), (37, 29, 53)] {
        for seed in [1u64, 7, 23] {
            for rate in [1e-3, 2e-2, 0.25] {
                let mut rows: Option<Vec<String>> = None;
                for threads in [1, 2] {
                    let plan = Arc::new(FaultPlan::new(seed, rate));
                    let ctx = M3xuContext::with_threads(threads).with_fault_plan(plan);
                    let (m, k, n) = shape;
                    let cells: Vec<String> = golden_calls(&ctx, shape)
                        .into_iter()
                        .map(|cell| format!("{m}x{k}x{n} seed={seed} rate={rate} {cell}"))
                        .collect();
                    match &rows {
                        None => rows = Some(cells),
                        Some(r) => assert_eq!(r, &cells, "threads 1 and {threads} disagree"),
                    }
                }
                got.extend(rows.unwrap());
            }
        }
    }
    let want: Vec<&str> = GOLDEN_FAULTS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    if got != want {
        println!("GOLDEN_FAULTS table:");
        for row in &got {
            println!("{row}");
        }
    }
    assert_eq!(got.len(), want.len(), "golden table length");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "golden fault telemetry moved");
    }
    assert!(
        got.iter().any(|row| row.contains(" fault tiles=")),
        "the grid must reach an unrecoverable call"
    );
}

#[test]
fn mismatched_blocks_rerun_chunk_by_chunk_to_the_unchecked_bits() {
    // A checked tile verifies its chunks a block at a time; a block whose
    // checksums disagree reruns chunk by chunk from its entry state. The
    // seam marks every block mismatched at rate 0: each chunk then
    // verifies on the per-chunk path, the output is the unchecked call's,
    // nothing counts as detected, and every element-chunk runs twice,
    // against a rate-0 checked context without the seam, which counts
    // what an unchecked call does (an explicit plan overrides any the
    // environment arms). K = 200 puts 100 two-deep FP32 chunks in two
    // blocks, one partial.
    let reference = M3xuContext::with_threads(2).with_fault_plan(Arc::new(FaultPlan::new(5, 0.0)));
    let plan = FaultPlan::new(5, 0.0).with_block_mismatches();
    let armed = M3xuContext::with_threads(2).with_fault_plan(Arc::new(plan));
    let (a, b, c) = (
        Matrix::<f32>::random(40, 200, 71),
        Matrix::<f32>::random(200, 24, 72),
        Matrix::<f32>::random(40, 24, 73),
    );
    let p = GemmPrecision::M3xuFp32;
    let plain = reference.try_gemm_f32(p, &a, &b, &c).unwrap();
    let checked = armed.try_gemm_f32(p, &a, &b, &c).unwrap();
    let want = gemm::baseline::gemm_f32(p, &a, &b, &c);
    assert_bits_f32(&plain.d, &want.d, "FP32 on the block path");
    assert_bits_f32(&checked.d, &want.d, "FP32 through the per-chunk path");
    assert_eq!(checked.faults, FaultSummary::default());
    let (ca, cb, cc) = (
        Matrix::random_c32(24, 100, 74),
        Matrix::random_c32(100, 16, 75),
        Matrix::random_c32(24, 16, 76),
    );
    let plain_c = reference.try_cgemm_c32(&ca, &cb, &cc).unwrap();
    let checked_c = armed.try_cgemm_c32(&ca, &cb, &cc).unwrap();
    let want_c = gemm::baseline::cgemm_c32(&ca, &cb, &cc);
    assert_bits_c32(&plain_c.d, &want_c.d, "FP32C on the block path");
    assert_bits_c32(&checked_c.d, &want_c.d, "FP32C through the per-chunk path");
    assert_eq!(checked_c.faults, FaultSummary::default());
    let (u, s) = (reference.stats(), armed.stats());
    assert_eq!(
        (s.simd_chunks, s.simd_fallbacks, s.quick_refusals),
        (
            2 * u.simd_chunks,
            2 * u.simd_fallbacks,
            2 * u.quick_refusals
        )
    );
    assert_eq!((s.faults_detected, s.fault_retries), (0, 0));
}
