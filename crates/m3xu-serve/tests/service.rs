//! End-to-end tests of the serving layer: bit-identity of both scheduler
//! paths against the baseline oracle, typed admission control (queue-full,
//! deadline, shutdown), backpressure, execution-error passthrough, and the
//! per-tenant accounting conservation laws.

use m3xu_kernels::gemm::{self, GemmPrecision};
use m3xu_mxu::matrix::Matrix;
use m3xu_serve::{M3xuServe, ServeConfig, ServeError, SubmitOpts, C32};
use std::time::Duration;

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

/// Spin until the scheduler has drained the queue (it is then either idle
/// or executing), so subsequent pushes observe deterministic queue state.
fn wait_drained(serve: &M3xuServe) {
    for _ in 0..10_000 {
        if serve.queue_len() == 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("scheduler never drained the queue");
}

#[test]
fn served_gemm_bit_identical_on_both_scheduler_paths() {
    // shard_tiles = usize::MAX forces every request down the batched
    // (one-pool-task) path; shard_tiles = 1 forces the sharded path.
    let shapes = [(16, 16, 16), (33, 5, 12), (9, 7, 17), (64, 64, 64)];
    for shard_tiles in [usize::MAX, 1] {
        let serve = M3xuServe::new(ServeConfig {
            workers: 2,
            shard_tiles,
            ..ServeConfig::default()
        });
        for &(m, k, n) in &shapes {
            let a = Matrix::<f32>::random(m, k, 1);
            let b = Matrix::<f32>::random(k, n, 2);
            let c = Matrix::<f32>::random(m, n, 3);
            for precision in [
                GemmPrecision::M3xuFp32,
                GemmPrecision::Tf32,
                GemmPrecision::Fp16,
                GemmPrecision::Bf16,
            ] {
                let got = serve
                    .submit_gemm_f32(
                        "t",
                        precision,
                        a.clone(),
                        b.clone(),
                        c.clone(),
                        SubmitOpts::default(),
                    )
                    .and_then(|t| t.wait())
                    .unwrap();
                let want = gemm::baseline::gemm_f32(precision, &a, &b, &c);
                assert_bits_f32(
                    &got.d,
                    &want.d,
                    &format!("{m}x{k}x{n} {precision:?} shard_tiles={shard_tiles}"),
                );
                assert_eq!(got.stats, want.stats);
            }
        }
    }
}

#[test]
fn served_cgemm_bit_identical_to_baseline() {
    let serve = M3xuServe::with_workers(2);
    for &(m, k, n) in &[(8, 8, 8), (17, 3, 9), (32, 16, 32)] {
        let a = Matrix::random_c32(m, k, 4);
        let b = Matrix::random_c32(k, n, 5);
        let c = Matrix::random_c32(m, n, 6);
        let got = serve
            .submit_cgemm_c32("t", a.clone(), b.clone(), c.clone(), SubmitOpts::default())
            .and_then(|t| t.wait())
            .unwrap();
        let want = gemm::baseline::cgemm_c32(&a, &b, &c);
        assert_bits_c32(&got.d, &want.d, &format!("{m}x{k}x{n} FP32C"));
        assert_eq!(got.stats, want.stats);
    }
}

#[test]
fn served_fft_matches_direct_context() {
    use m3xu_kernels::context::M3xuContext;
    let serve = M3xuServe::with_workers(2);
    let x: Vec<C32> = (0..64)
        .map(|i| C32 {
            re: (i as f32 * 0.37).sin(),
            im: (i as f32 * 0.11).cos(),
        })
        .collect();
    let (got, got_stats) = serve
        .submit_fft("t", x.clone(), SubmitOpts::default())
        .and_then(|t| t.wait())
        .unwrap();
    let (want, want_stats) = M3xuContext::with_threads(2).try_gemm_fft(&x).unwrap();
    assert_eq!(got_stats, want_stats);
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.re.to_bits(), w.re.to_bits(), "fft element {i} (re)");
        assert_eq!(g.im.to_bits(), w.im.to_bits(), "fft element {i} (im)");
    }
}

#[test]
fn queue_full_rejects_with_typed_error_and_counts() {
    let serve = M3xuServe::new(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    let n = 128; // slow enough in debug to keep the scheduler busy
    let blocker = serve
        .try_submit_gemm_f32(
            "full",
            GemmPrecision::M3xuFp32,
            Matrix::random(n, n, 1),
            Matrix::random(n, n, 2),
            Matrix::zeros(n, n),
            SubmitOpts::default(),
        )
        .unwrap();
    wait_drained(&serve); // scheduler now executing the blocker
    let queued = serve
        .try_submit_gemm_f32(
            "full",
            GemmPrecision::M3xuFp32,
            Matrix::random(8, 8, 3),
            Matrix::random(8, 8, 4),
            Matrix::zeros(8, 8),
            SubmitOpts::default(),
        )
        .unwrap();
    let rejected = serve.try_submit_gemm_f32(
        "full",
        GemmPrecision::M3xuFp32,
        Matrix::random(8, 8, 5),
        Matrix::random(8, 8, 6),
        Matrix::zeros(8, 8),
        SubmitOpts::default(),
    );
    match rejected {
        Err(ServeError::QueueFull { capacity }) => assert_eq!(capacity, 1),
        other => panic!(
            "expected QueueFull, got {other:?}",
            other = other.map(|_| ())
        ),
    }
    blocker.wait().unwrap();
    queued.wait().unwrap();
    let t = serve.tenant_stats("full").unwrap();
    assert_eq!(t.submitted, 3);
    assert_eq!(t.completed, 2);
    assert_eq!(t.rejected, 1);
}

#[test]
fn expired_deadline_rejects_without_executing() {
    let serve = M3xuServe::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let before = serve.exec_stats();
    let late = serve
        .try_submit_gemm_f32(
            "dl",
            GemmPrecision::M3xuFp32,
            Matrix::random(16, 16, 1),
            Matrix::random(16, 16, 2),
            Matrix::zeros(16, 16),
            SubmitOpts {
                deadline: Some(Duration::ZERO),
                ..SubmitOpts::default()
            },
        )
        .unwrap();
    match late.wait() {
        Err(ServeError::Deadline { .. }) => {}
        other => panic!(
            "expected Deadline, got {other:?}",
            other = other.map(|_| ())
        ),
    }
    // Nothing executed on its behalf.
    let after = serve.exec_stats();
    assert_eq!(after.delta_since(&before).gemm_calls, 0);
    let t = serve.tenant_stats("dl").unwrap();
    assert_eq!(t.deadline_missed, 1);
    assert_eq!(t.completed, 0);
    // A generous deadline sails through.
    let ok = serve
        .submit_gemm_f32(
            "dl",
            GemmPrecision::M3xuFp32,
            Matrix::random(16, 16, 1),
            Matrix::random(16, 16, 2),
            Matrix::zeros(16, 16),
            SubmitOpts {
                deadline: Some(Duration::from_secs(300)),
                ..SubmitOpts::default()
            },
        )
        .and_then(|t| t.wait())
        .unwrap();
    assert_eq!(ok.d.rows(), 16);
}

#[test]
fn blocking_submit_applies_backpressure_then_completes() {
    let serve = M3xuServe::new(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    let n = 128;
    let blocker = serve
        .try_submit_gemm_f32(
            "bp",
            GemmPrecision::M3xuFp32,
            Matrix::random(n, n, 1),
            Matrix::random(n, n, 2),
            Matrix::zeros(n, n),
            SubmitOpts::default(),
        )
        .unwrap();
    wait_drained(&serve);
    let filler = serve
        .try_submit_gemm_f32(
            "bp",
            GemmPrecision::M3xuFp32,
            Matrix::random(8, 8, 3),
            Matrix::random(8, 8, 4),
            Matrix::zeros(8, 8),
            SubmitOpts::default(),
        )
        .unwrap();
    // The queue is full: submit_gemm_f32 must wait for space, then land.
    let a = Matrix::<f32>::random(9, 7, 5);
    let b = Matrix::<f32>::random(7, 11, 6);
    let c = Matrix::<f32>::random(9, 11, 7);
    let want = gemm::baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
    let got = std::thread::scope(|s| {
        s.spawn(|| {
            serve
                .submit_gemm_f32(
                    "bp",
                    GemmPrecision::M3xuFp32,
                    a.clone(),
                    b.clone(),
                    c.clone(),
                    SubmitOpts::default(),
                )
                .and_then(|t| t.wait())
                .unwrap()
        })
        .join()
        .unwrap()
    });
    assert_bits_f32(&got.d, &want.d, "backpressured submit");
    blocker.wait().unwrap();
    filler.wait().unwrap();
    assert_eq!(serve.tenant_stats("bp").unwrap().completed, 3);
}

#[test]
fn kernel_errors_pass_through_typed() {
    let serve = M3xuServe::with_workers(1);
    let err = serve
        .submit_gemm_f32(
            "oops",
            GemmPrecision::M3xuFp32,
            Matrix::random(4, 4, 1),
            Matrix::random(5, 4, 2), // k mismatch
            Matrix::zeros(4, 4),
            SubmitOpts::default(),
        )
        .and_then(|t| t.wait())
        .unwrap_err();
    assert!(matches!(err, ServeError::Exec(_)), "got {err:?}");
    let t = serve.tenant_stats("oops").unwrap();
    assert_eq!(t.exec_errors, 1);
    assert_eq!(t.completed, 0);
}

#[test]
fn drop_rejects_queued_requests_with_shutting_down() {
    let serve = M3xuServe::new(ServeConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServeConfig::default()
    });
    let n = 128;
    let blocker = serve
        .try_submit_gemm_f32(
            "sd",
            GemmPrecision::M3xuFp32,
            Matrix::random(n, n, 1),
            Matrix::random(n, n, 2),
            Matrix::zeros(n, n),
            SubmitOpts::default(),
        )
        .unwrap();
    wait_drained(&serve);
    let queued: Vec<_> = (0..3)
        .map(|i| {
            serve
                .try_submit_gemm_f32(
                    "sd",
                    GemmPrecision::M3xuFp32,
                    Matrix::random(8, 8, 10 + i),
                    Matrix::random(8, 8, 20 + i),
                    Matrix::zeros(8, 8),
                    SubmitOpts::default(),
                )
                .unwrap()
        })
        .collect();
    drop(serve);
    // The in-flight request finishes; the queued ones are swept.
    blocker.wait().unwrap();
    for t in queued {
        match t.wait() {
            Err(ServeError::ShuttingDown) => {}
            other => panic!(
                "expected ShuttingDown, got {other:?}",
                other = other.map(|_| ())
            ),
        }
    }
}

#[test]
fn tenant_accounting_reconciles_with_context_stats() {
    use m3xu_mxu::modes::MxuMode;
    let serve = M3xuServe::with_workers(2);
    let plans = [
        ("alice", GemmPrecision::M3xuFp32, 24usize, 16usize, 8usize),
        ("alice", GemmPrecision::Fp16, 9, 7, 17),
        ("bob", GemmPrecision::Tf32, 16, 16, 16),
        ("bob", GemmPrecision::M3xuFp32, 0, 8, 8), // degenerate: zero traffic
        ("carol", GemmPrecision::Bf16, 33, 5, 12),
    ];
    for &(tenant, precision, m, k, n) in &plans {
        serve
            .submit_gemm_f32(
                tenant,
                precision,
                Matrix::random(m, k, 1),
                Matrix::random(k, n, 2),
                Matrix::zeros(m, n),
                SubmitOpts::default(),
            )
            .and_then(|t| t.wait())
            .unwrap();
    }
    serve
        .submit_cgemm_c32(
            "carol",
            Matrix::random_c32(8, 4, 3),
            Matrix::random_c32(4, 8, 4),
            Matrix::random_c32(8, 8, 5),
            SubmitOpts::default(),
        )
        .and_then(|t| t.wait())
        .unwrap();
    // Quiesced: tenant totals must reproduce the shared context's counters.
    let totals = serve.total_stats();
    let ctx = serve.exec_stats();
    assert_eq!(totals.completed, ctx.gemm_calls);
    assert_eq!(totals.mma_instructions, ctx.total().instructions);
    assert_eq!(totals.mma_steps, ctx.total().steps);
    assert_eq!(totals.operand_bytes, ctx.operand_bytes);
    assert_eq!(totals.submitted, totals.completed);
    // Per-tenant spot checks against the analytical counts.
    let alice = serve.tenant_stats("alice").unwrap();
    assert_eq!(alice.completed, 2);
    assert_eq!(
        serve.tenant_stats("carol").unwrap().mma_instructions,
        ctx.mode(MxuMode::Bf16).instructions + ctx.mode(MxuMode::M3xuFp32c).instructions
    );
    assert_eq!(serve.tenants(), vec!["alice", "bob", "carol"]);
    // Wall-time accounting moved for completed work.
    assert!(totals.exec_ns > 0);
}

#[test]
fn concurrent_clients_share_one_service_bit_identically() {
    let serve = M3xuServe::new(ServeConfig {
        workers: 2,
        queue_capacity: 128,
        ..ServeConfig::default()
    });
    std::thread::scope(|s| {
        for client in 0..4u64 {
            let serve = &serve;
            s.spawn(move || {
                for round in 0..6u64 {
                    let seed = client * 100 + round;
                    let (m, k, n) = (8 + (seed % 17) as usize, 1 + (seed % 9) as usize, 8);
                    let a = Matrix::<f32>::random(m, k, seed);
                    let b = Matrix::<f32>::random(k, n, seed + 1);
                    let c = Matrix::<f32>::random(m, n, seed + 2);
                    let got = serve
                        .submit_gemm_f32(
                            &format!("client-{client}"),
                            GemmPrecision::M3xuFp32,
                            a.clone(),
                            b.clone(),
                            c.clone(),
                            SubmitOpts::default(),
                        )
                        .and_then(|t| t.wait())
                        .unwrap();
                    let want = gemm::baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
                    assert_bits_f32(&got.d, &want.d, &format!("client {client} round {round}"));
                }
            });
        }
    });
    let totals = serve.total_stats();
    assert_eq!(totals.completed, 4 * 6);
    assert_eq!(totals.completed, serve.exec_stats().gemm_calls);
    assert_eq!(serve.tenants().len(), 4);
}
