//! Serve-layer edge cases: deadline expiry must reject *before* any
//! kernel work happens, shutdown must unblock clients parked in the
//! blocking `submit_*` backpressure path — never leave them hanging —
//! and the BLAS-3 surface (op(X) GEMM / SYRK / HERK / SYMM / HEMM) must
//! ride the exact same admission controls (deadline, rate limit,
//! breaker) and accounting reconciliation as plain GEMM.

use m3xu::kernels::FaultPlan;
use m3xu::mxu::modes::MxuMode;
use m3xu::serve::{M3xuServe, ServeConfig, SubmitOpts};
use m3xu::{
    ExecStats, GemmPrecision, MatOp, Matrix, RateLimit, ServeError, Side, TenantStats, Triangle,
    C32,
};
use std::sync::Arc;
use std::time::Duration;

/// Shard count under test: `M3XU_SERVE_SHARDS` overrides (the check.sh
/// serve gate runs this suite at 1 and 4), defaulting to 1.
fn shards_from_env() -> usize {
    std::env::var("M3XU_SERVE_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// A service whose schedulers are easy to keep busy: one worker, one
/// request drained per batch. All tests use a single tenant per
/// pipeline, so requests serialize on that tenant's affine shard at any
/// shard count (stealing aside, which the assertions tolerate).
fn slow_serve(queue_capacity: usize) -> M3xuServe {
    M3xuServe::new(ServeConfig {
        shards: shards_from_env(),
        workers: 1,
        max_batch: 1,
        queue_capacity,
        ..ServeConfig::default()
    })
}

/// A request big enough to occupy the single worker for many
/// milliseconds (the window the tests below race against).
fn big(seed: u64) -> (Matrix<f32>, Matrix<f32>, Matrix<f32>) {
    (
        Matrix::<f32>::random(96, 96, seed),
        Matrix::<f32>::random(96, 96, seed + 1),
        Matrix::<f32>::zeros(96, 96),
    )
}

#[test]
fn expired_deadline_rejects_before_execution() {
    let serve = slow_serve(8);
    // Occupy the scheduler so the victim stays queued past its deadline.
    let (a, b, c) = big(1);
    let blocker = serve
        .submit_gemm_f32(
            "blocker",
            GemmPrecision::M3xuFp32,
            a,
            b,
            c,
            SubmitOpts::default(),
        )
        .unwrap();
    // The victim's deadline is already expired at submission time.
    let victim = serve
        .submit_gemm_f32(
            "victim",
            GemmPrecision::M3xuFp32,
            Matrix::<f32>::random(32, 32, 5),
            Matrix::<f32>::random(32, 32, 6),
            Matrix::<f32>::zeros(32, 32),
            SubmitOpts {
                deadline: Some(Duration::ZERO),
                ..SubmitOpts::default()
            },
        )
        .unwrap();
    match victim.wait() {
        Err(ServeError::Deadline { .. }) => {}
        other => panic!("expected Deadline, got {other:?}"),
    }
    blocker.wait().unwrap();
    let v = serve.tenant_stats("victim").unwrap();
    assert_eq!(v.deadline_missed, 1);
    assert_eq!(v.completed, 0);
    assert_eq!(
        v.mma_instructions, 0,
        "an expired request must never reach the kernels"
    );
    assert_eq!(
        v.submitted,
        v.completed + v.rejected + v.deadline_missed + v.exec_errors
    );
}

#[test]
fn shutdown_unblocks_client_parked_in_backpressure() {
    let serve = slow_serve(1);
    // Fill the pipeline: one request executing (drained), one filling the
    // queue to capacity.
    let (a, b, c) = big(11);
    let executing = serve
        .submit_gemm_f32("t", GemmPrecision::M3xuFp32, a, b, c, SubmitOpts::default())
        .unwrap();
    let (a, b, c) = big(13);
    let queued = serve
        .submit_gemm_f32("t", GemmPrecision::M3xuFp32, a, b, c, SubmitOpts::default())
        .unwrap();
    // A third blocking submit parks in the backpressure wait (queue
    // full). Shutting down must wake it with ShuttingDown — not leave it
    // hanging (the test harness timeout is the hang detector).
    let outcome = std::thread::scope(|scope| {
        let parked = scope.spawn(|| {
            let (a, b, c) = big(17);
            serve.submit_gemm_f32("t", GemmPrecision::M3xuFp32, a, b, c, SubmitOpts::default())
        });
        // Give the thread time to actually park in the full queue.
        std::thread::sleep(Duration::from_millis(50));
        serve.shutdown();
        parked.join().expect("parked submitter must not panic")
    });
    match outcome {
        Err(ServeError::ShuttingDown) => {}
        Ok(ticket) => {
            // Benign race on a fast host: the queue freed a slot before
            // the shutdown flag was raised. The ticket must still
            // resolve (served, or swept with ShuttingDown).
            let _ = ticket.wait();
        }
        Err(e) => panic!("expected ShuttingDown, got {e:?}"),
    }
    // The in-flight and queued requests resolve too — executed or swept;
    // neither wait may hang.
    let _ = executing.wait();
    let _ = queued.wait();
    // Conservation holds after the dust settles.
    let s = serve.tenant_stats("t").unwrap();
    assert_eq!(
        s.submitted,
        s.completed + s.rejected + s.deadline_missed + s.exec_errors
    );
}

/// A `SubmitOpts` whose deadline is already expired at submission time.
fn expired() -> SubmitOpts {
    SubmitOpts {
        deadline: Some(Duration::ZERO),
        ..SubmitOpts::default()
    }
}

/// One tenant's stats obey `submitted == completed + rejected +
/// deadline_missed + exec_errors`.
fn assert_conserved(s: &TenantStats) {
    assert_eq!(
        s.submitted,
        s.completed + s.rejected + s.deadline_missed + s.exec_errors
    );
}

#[test]
fn expired_deadline_sheds_blas3_requests_before_execution() {
    let serve = slow_serve(8);
    // Keep the scheduler busy so queue-side shedding is the likely path;
    // the drain-time deadline check makes the outcome deterministic even
    // if a victim lands on an idle shard.
    let (a, b, c) = big(21);
    let blocker = serve
        .submit_gemm_f32(
            "blocker",
            GemmPrecision::M3xuFp32,
            a,
            b,
            c,
            SubmitOpts::default(),
        )
        .unwrap();
    // One victim per BLAS-3 entry point, each with an expired deadline.
    let syrk = serve
        .submit_syrk_f32(
            "late-syrk",
            GemmPrecision::M3xuFp32,
            Triangle::Lower,
            MatOp::T,
            Matrix::<f32>::random(24, 16, 31),
            0.5,
            -1.0,
            Matrix::<f32>::random(16, 16, 32),
            expired(),
        )
        .unwrap();
    let hemm = serve
        .submit_hemm_c32(
            "late-hemm",
            Side::Left,
            Triangle::Upper,
            Matrix::random_c32(16, 16, 33),
            Matrix::random_c32(16, 12, 34),
            C32::new(0.5, -0.25),
            C32::new(1.0, 0.0),
            Matrix::random_c32(16, 12, 35),
            expired(),
        )
        .unwrap();
    let op = serve
        .submit_gemm_op_f32(
            "late-op",
            GemmPrecision::M3xuFp32,
            MatOp::T,
            Matrix::<f32>::random(20, 16, 36),
            MatOp::N,
            Matrix::<f32>::random(20, 12, 37),
            1.0,
            0.0,
            Matrix::<f32>::zeros(16, 12),
            expired(),
        )
        .unwrap();
    for (name, outcome) in [
        ("syrk", syrk.wait().map(drop)),
        ("hemm", hemm.wait().map(drop)),
        ("gemm_op", op.wait().map(drop)),
    ] {
        match outcome {
            Err(ServeError::Deadline { .. }) => {}
            other => panic!("{name}: expected Deadline, got {other:?}"),
        }
    }
    blocker.wait().unwrap();
    for tenant in ["late-syrk", "late-hemm", "late-op"] {
        let s = serve.tenant_stats(tenant).unwrap();
        assert_eq!(s.deadline_missed, 1, "{tenant}");
        assert_eq!(s.completed, 0, "{tenant}");
        assert_eq!(
            s.mma_instructions, 0,
            "{tenant}: an expired BLAS-3 request must never reach the kernels"
        );
        assert_conserved(&s);
    }
}

#[test]
fn rate_limit_sheds_blas3_submissions_at_admission() {
    let serve = slow_serve(16);
    // A non-positive rate admits nothing for this tenant only.
    serve.set_rate_limit(
        "throttled",
        Some(RateLimit {
            rps: 0.0,
            burst: 0.0,
        }),
    );
    // Every BLAS-3 entry point is shed by the same token bucket as GEMM.
    let n = 12;
    let af = Matrix::<f32>::random(n, n, 51);
    let bf = Matrix::<f32>::random(n, n, 52);
    let cf = Matrix::<f32>::zeros(n, n);
    let ac = Matrix::random_c32(n, n, 53);
    let bc = Matrix::random_c32(n, n, 54);
    let cc = Matrix::random_c32(n, n, 55);
    let p = GemmPrecision::M3xuFp32;
    let opts = SubmitOpts::default;
    let sheds: [(&str, Result<(), ServeError>); 6] = [
        (
            "gemm_op",
            serve
                .try_submit_gemm_op_f32(
                    "throttled",
                    p,
                    MatOp::T,
                    af.clone(),
                    MatOp::N,
                    bf.clone(),
                    0.5,
                    0.0,
                    cf.clone(),
                    opts(),
                )
                .map(drop),
        ),
        (
            "cgemm_op",
            serve
                .try_submit_cgemm_op_c32(
                    "throttled",
                    MatOp::H,
                    ac.clone(),
                    MatOp::N,
                    bc.clone(),
                    C32::new(1.0, 0.0),
                    C32::ZERO,
                    cc.clone(),
                    opts(),
                )
                .map(drop),
        ),
        (
            "syrk",
            serve
                .try_submit_syrk_f32(
                    "throttled",
                    p,
                    Triangle::Lower,
                    MatOp::N,
                    af.clone(),
                    1.0,
                    0.0,
                    cf.clone(),
                    opts(),
                )
                .map(drop),
        ),
        (
            "herk",
            serve
                .try_submit_herk_c32(
                    "throttled",
                    Triangle::Upper,
                    MatOp::N,
                    ac.clone(),
                    1.0,
                    0.0,
                    cc.clone(),
                    opts(),
                )
                .map(drop),
        ),
        (
            "symm",
            serve
                .try_submit_symm_f32(
                    "throttled",
                    p,
                    Side::Left,
                    Triangle::Lower,
                    af.clone(),
                    bf.clone(),
                    1.0,
                    0.0,
                    cf,
                    opts(),
                )
                .map(drop),
        ),
        (
            "hemm",
            serve
                .try_submit_hemm_c32(
                    "throttled",
                    Side::Right,
                    Triangle::Upper,
                    ac,
                    bc,
                    C32::new(1.0, 0.0),
                    C32::ZERO,
                    cc,
                    opts(),
                )
                .map(drop),
        ),
    ];
    for (name, outcome) in sheds {
        match outcome {
            Err(ServeError::RateLimited { .. }) => {}
            other => panic!("{name}: expected RateLimited, got {other:?}"),
        }
    }
    let s = serve.tenant_stats("throttled").unwrap();
    assert_eq!(s.submitted, 6);
    assert_eq!(s.rejected, 6);
    assert_eq!(s.mma_instructions, 0);
    assert_conserved(&s);
    // Other tenants are unaffected: the same SYRK goes through and runs.
    serve
        .submit_syrk_f32(
            "unthrottled",
            p,
            Triangle::Lower,
            MatOp::N,
            af,
            1.0,
            0.0,
            Matrix::<f32>::zeros(n, n),
            SubmitOpts::default(),
        )
        .and_then(|t| t.wait())
        .unwrap();
    let u = serve.tenant_stats("unthrottled").unwrap();
    assert_eq!(u.completed, 1);
    assert!(u.mma_instructions > 0);
}

#[test]
fn tripped_breaker_sheds_blas3_at_admission() {
    // A saturated fault plan fails every checked FP32 GEMM, and a
    // threshold of one trips the tenant's breaker on the first failure.
    let serve = M3xuServe::new(ServeConfig {
        shards: shards_from_env(),
        workers: 1,
        max_batch: 1,
        queue_capacity: 16,
        fault_plan: Some(Arc::new(FaultPlan::new(3, 1.0))),
        max_retries: 0,
        breaker_threshold: 1,
        breaker_cooldown: Duration::from_secs(3600),
        ..ServeConfig::default()
    });
    let outcome = serve
        .submit_gemm_f32(
            "flaky",
            GemmPrecision::M3xuFp32,
            Matrix::<f32>::random(16, 16, 41),
            Matrix::<f32>::random(16, 16, 42),
            Matrix::<f32>::zeros(16, 16),
            SubmitOpts::default(),
        )
        .and_then(|t| t.wait());
    match outcome {
        Err(ServeError::Exec(_)) => {}
        other => panic!("expected Exec(FaultDetected), got {other:?}"),
    }
    // The breaker guards *admission*, so the tripped tenant's SYRK and
    // HEMM are shed at the door without touching the queue.
    let syrk = serve.try_submit_syrk_f32(
        "flaky",
        GemmPrecision::M3xuFp32,
        Triangle::Lower,
        MatOp::N,
        Matrix::<f32>::random(16, 16, 43),
        1.0,
        0.0,
        Matrix::<f32>::zeros(16, 16),
        SubmitOpts::default(),
    );
    match syrk.map(drop) {
        Err(ServeError::BreakerOpen { retry_after_ns }) => assert!(retry_after_ns > 0),
        other => panic!("syrk: expected BreakerOpen, got {other:?}"),
    }
    let hemm = serve.try_submit_hemm_c32(
        "flaky",
        Side::Left,
        Triangle::Lower,
        Matrix::random_c32(12, 12, 44),
        Matrix::random_c32(12, 12, 45),
        C32::new(1.0, 0.0),
        C32::ZERO,
        Matrix::random_c32(12, 12, 46),
        SubmitOpts::default(),
    );
    let hemm = hemm.map(drop);
    assert!(
        matches!(hemm, Err(ServeError::BreakerOpen { .. })),
        "hemm: expected BreakerOpen, got {hemm:?}"
    );
    let s = serve.tenant_stats("flaky").unwrap();
    assert_eq!(s.breaker_trips, 1);
    assert_eq!(s.exec_errors, 1);
    assert_eq!(s.rejected, 2);
    assert_conserved(&s);
    // Universal ABFT routes the FP32C HEMM through the checked driver
    // too, so under the saturated plan an untouched tenant is *admitted*
    // (its own breaker is closed — per-tenant isolation) and fails at
    // execution, not at the door.
    let healthy = serve
        .submit_hemm_c32(
            "healthy",
            Side::Left,
            Triangle::Lower,
            Matrix::random_c32(12, 12, 47),
            Matrix::random_c32(12, 12, 48),
            C32::new(1.0, 0.0),
            C32::ZERO,
            Matrix::random_c32(12, 12, 49),
            SubmitOpts::default(),
        )
        .and_then(|t| t.wait());
    match healthy {
        Err(ServeError::Exec(m3xu::M3xuError::FaultDetected { op, .. })) => {
            assert_eq!(op, "hemm", "the typed error names the failing op");
        }
        other => panic!("healthy hemm: expected Exec(FaultDetected), got {other:?}"),
    }
    let h = serve.tenant_stats("healthy").unwrap();
    assert_eq!(h.rejected, 0, "the healthy tenant was admitted");
    assert_eq!(h.exec_errors, 1);
    assert_conserved(&h);
}

#[test]
fn mixed_blas3_traffic_conserves_stats_across_shards() {
    let serve = M3xuServe::new(ServeConfig {
        shards: shards_from_env(),
        workers: 1,
        max_batch: 4,
        queue_capacity: 64,
        ..ServeConfig::default()
    });
    // Five tenants (spread across shards by the affine router) each drive
    // the full BLAS-3 surface concurrently: three FP32-mode requests and
    // three FP32C-mode requests per round.
    let tenants = ["alice", "bob", "carol", "dave", "erin"];
    const ROUNDS: u64 = 2;
    std::thread::scope(|scope| {
        for (ti, tenant) in tenants.iter().enumerate() {
            let serve = &serve;
            scope.spawn(move || {
                let n = 12 + 4 * ti; // distinct shapes per tenant
                let k = n + 5;
                let p = GemmPrecision::M3xuFp32;
                for round in 0..ROUNDS {
                    let seed = ti as u64 * 1000 + round * 100;
                    let af = Matrix::<f32>::random(n, k, seed);
                    let bf = Matrix::<f32>::random(k, n, seed + 1);
                    let sq = Matrix::<f32>::random(n, n, seed + 2);
                    let ac = Matrix::random_c32(n, k, seed + 3);
                    let bc = Matrix::random_c32(k, n, seed + 4);
                    let csq = Matrix::random_c32(n, n, seed + 5);
                    serve
                        .submit_gemm_f32(
                            tenant,
                            p,
                            af.clone(),
                            bf.clone(),
                            Matrix::<f32>::zeros(n, n),
                            SubmitOpts::default(),
                        )
                        .and_then(|t| t.wait())
                        .unwrap();
                    serve
                        .submit_gemm_op_f32(
                            tenant,
                            p,
                            MatOp::T,
                            bf,
                            MatOp::T,
                            af.clone(),
                            0.5,
                            -1.0,
                            Matrix::<f32>::random(n, n, seed + 6),
                            SubmitOpts::default(),
                        )
                        .and_then(|t| t.wait())
                        .unwrap();
                    serve
                        .submit_syrk_f32(
                            tenant,
                            p,
                            Triangle::Lower,
                            MatOp::N,
                            af,
                            1.0,
                            0.25,
                            sq,
                            SubmitOpts::default(),
                        )
                        .and_then(|t| t.wait())
                        .unwrap();
                    serve
                        .submit_hemm_c32(
                            tenant,
                            Side::Right,
                            Triangle::Upper,
                            csq.clone(),
                            Matrix::random_c32(k, n, seed + 7),
                            C32::new(0.5, -0.25),
                            C32::new(1.0, 0.0),
                            Matrix::random_c32(k, n, seed + 8),
                            SubmitOpts::default(),
                        )
                        .and_then(|t| t.wait())
                        .unwrap();
                    serve
                        .submit_cgemm_op_c32(
                            tenant,
                            MatOp::H,
                            ac.clone(),
                            MatOp::N,
                            Matrix::random_c32(n, n, seed + 9),
                            C32::new(1.0, 0.0),
                            C32::ZERO,
                            Matrix::random_c32(k, n, seed + 10),
                            SubmitOpts::default(),
                        )
                        .and_then(|t| t.wait())
                        .unwrap();
                    serve
                        .submit_herk_c32(
                            tenant,
                            Triangle::Upper,
                            MatOp::H,
                            bc,
                            0.5,
                            0.25,
                            csq,
                            SubmitOpts::default(),
                        )
                        .and_then(|t| t.wait())
                        .unwrap();
                }
            });
        }
    });
    let requests = tenants.len() as u64 * ROUNDS * 6;
    // Tenant-side ledger: per-tenant snapshots sum exactly to the totals.
    let total = serve.total_stats();
    let folded = serve
        .tenants()
        .iter()
        .fold(TenantStats::default(), |acc, t| {
            acc.merged(&serve.tenant_stats(t).unwrap())
        });
    assert_eq!(folded, total);
    assert_eq!(total.submitted, requests);
    assert_eq!(total.completed, requests);
    assert_conserved(&total);
    // Shard-side ledger: per-shard `ExecStats` sum exactly to the fold.
    let exec = serve.exec_stats();
    let shard_fold = (0..serve.shard_count()).fold(ExecStats::default(), |acc, s| {
        acc.merged(&serve.shard_stats(s).unwrap())
    });
    assert_eq!(shard_fold, exec);
    // Every request above is exactly one top-level driver invocation.
    assert_eq!(exec.gemm_calls, requests);
    // The two ledgers reconcile: flat and per-mode, instruction for
    // instruction, byte for byte — mixed BLAS-3 traffic leaks nothing.
    assert_eq!(total.operand_bytes, exec.operand_bytes);
    let mut instr = 0u64;
    let mut steps = 0u64;
    for mode in MxuMode::ALL {
        let t = total.mode(mode);
        let e = exec.mode(mode);
        assert_eq!(t.mma_instructions, e.instructions, "{mode:?}");
        assert_eq!(t.mma_steps, e.steps, "{mode:?}");
        assert_eq!(t.mma_lane_products, e.lane_products, "{mode:?}");
        instr += e.instructions;
        steps += e.steps;
    }
    assert_eq!(total.mma_instructions, instr);
    assert_eq!(total.mma_steps, steps);
    // The precision split lands where it should: three requests per
    // tenant-round in FP32 mode, three in FP32C.
    assert_eq!(total.mode(MxuMode::M3xuFp32).requests, requests / 2);
    assert_eq!(total.mode(MxuMode::M3xuFp32c).requests, requests / 2);
    assert!(total.mode(MxuMode::M3xuFp32).mma_instructions > 0);
    assert!(total.mode(MxuMode::M3xuFp32c).mma_instructions > 0);
}
