//! Regression tests for the PR-7 serve fixes: the panic-free
//! construction path, the retry-timer accounting split, the
//! executed-past-deadline classification, per-tenant rate limits,
//! priority-class drain order, open-loop determinism across shard
//! counts, and the sharded reconciliation law — plus the PR-8 precision
//! dial: the per-request precision argument, the `*_gemm_f64` pair,
//! and the per-tenant per-mode usage split reconciling against the
//! shards' per-mode `ExecStats` at shard counts 1 and 4.

use m3xu::mxu::modes::MxuMode;
use m3xu::serve::openloop::{generate, Arrival, OpKind, OpenLoopSpec};
use m3xu::serve::{FaultPlan, M3xuServe, Priority, RateLimit, ServeConfig, ServeError, SubmitOpts};
use m3xu::{kernels::gemm, GemmPrecision, M3xuContext, M3xuError, Matrix, C32};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tiny_inputs(seed: u64) -> (Matrix<f32>, Matrix<f32>, Matrix<f32>) {
    (
        Matrix::<f32>::random(9, 7, seed),
        Matrix::<f32>::random(7, 5, seed + 1),
        Matrix::<f32>::zeros(9, 5),
    )
}

/// FNV-1a over a result's bit pattern — the cross-shard-count identity
/// fingerprint.
fn fnv(bytes: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in bytes {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn try_new_returns_a_working_service_instead_of_panicking() {
    // The panic-free construction contract: try_new is the fallible
    // entry point (SpawnFailed instead of the old `.expect`), and the
    // service it returns is fully functional.
    let serve = M3xuServe::try_new(ServeConfig {
        shards: 2,
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("spawning two shard threads must succeed");
    assert_eq!(serve.shard_count(), 2);
    let (a, b, c) = tiny_inputs(1);
    let want = gemm::baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
    let got = serve
        .submit_gemm_f32("t", GemmPrecision::M3xuFp32, a, b, c, SubmitOpts::default())
        .and_then(|t| t.wait())
        .unwrap();
    for (x, y) in got.d.as_slice().iter().zip(want.d.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn retry_time_is_split_out_of_exec_ns() {
    // A saturated fault plan makes every attempt fail: with 2 retries at
    // 25 ms base backoff, the request burns >= 25 + 50 ms in backoff
    // (plus two failed attempts) before the terminal attempt. The old
    // scheduler charged all of it to exec_ns; the split contract says
    // exec_ns covers only the final attempt (a sub-25 ms tiny GEMM) and
    // retry_ns carries the rest.
    let backoff = Duration::from_millis(25);
    let serve = M3xuServe::new(ServeConfig {
        workers: 1,
        fault_plan: Some(Arc::new(FaultPlan::new(5, 1.0))),
        max_retries: 2,
        retry_backoff: backoff,
        breaker_threshold: 0,
        degraded_after: 0,
        ..ServeConfig::default()
    });
    let (a, b, c) = tiny_inputs(81);
    let err = serve
        .submit_gemm_f32("t", GemmPrecision::M3xuFp32, a, b, c, SubmitOpts::default())
        .and_then(|t| t.wait())
        .unwrap_err();
    assert!(
        matches!(err, ServeError::Exec(M3xuError::FaultDetected { .. })),
        "saturated plan must fail detectably, got {err:?}"
    );
    let s = serve.tenant_stats("t").unwrap();
    assert_eq!(s.exec_errors, 1);
    // Backoffs alone are 25 + 50 ms; both failed attempts add more.
    let min_retry_ns = (backoff + backoff * 2).as_nanos() as u64;
    assert!(
        s.retry_ns >= min_retry_ns,
        "retry_ns {} must cover the backoffs (>= {min_retry_ns})",
        s.retry_ns
    );
    // The final attempt is a tiny debug GEMM — far under one backoff.
    // Under the old accounting exec_ns would include the 75 ms of
    // backoff and trip this bound.
    assert!(
        s.exec_ns < backoff.as_nanos() as u64,
        "exec_ns {} must charge only the final attempt",
        s.exec_ns
    );
}

#[test]
fn unretried_requests_have_zero_retry_ns() {
    let serve = M3xuServe::with_workers(1);
    let (a, b, c) = tiny_inputs(5);
    serve
        .submit_gemm_f32("t", GemmPrecision::M3xuFp32, a, b, c, SubmitOpts::default())
        .and_then(|t| t.wait())
        .unwrap();
    let s = serve.tenant_stats("t").unwrap();
    assert_eq!(s.completed, 1);
    assert_eq!(s.retry_ns, 0);
    assert!(s.exec_ns > 0);
}

#[test]
fn deadline_blown_inside_execution_counts_as_missed_not_completed() {
    // Calibrate a problem size whose execution comfortably exceeds the
    // deadline we hand it, so the pre-execution check passes (the
    // request is admitted and runs) but completion lands late — the
    // in-batch miss the old scheduler misclassified as `completed`.
    let ctx = M3xuContext::with_threads(1);
    let mut n = 96usize;
    let mut exec = Duration::ZERO;
    while n <= 768 {
        let a = Matrix::<f32>::random(n, n, 1);
        let b = Matrix::<f32>::random(n, n, 2);
        let c = Matrix::<f32>::zeros(n, n);
        let t0 = Instant::now();
        ctx.try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
            .unwrap();
        exec = t0.elapsed();
        if exec >= Duration::from_millis(60) {
            break;
        }
        n *= 2;
    }
    assert!(
        exec >= Duration::from_millis(60),
        "could not find a slow enough problem (n={n}, exec={exec:?})"
    );
    // A third of the execution time: generous headroom for the request
    // to *start* in time (the scheduler is idle), impossible to finish
    // in time.
    let deadline = exec / 3;

    let serve = M3xuServe::with_workers(1);
    let a = Matrix::<f32>::random(n, n, 1);
    let b = Matrix::<f32>::random(n, n, 2);
    let c = Matrix::<f32>::zeros(n, n);
    let ticket = serve
        .submit_gemm_f32(
            "late",
            GemmPrecision::M3xuFp32,
            a,
            b,
            c,
            SubmitOpts {
                deadline: Some(deadline),
                ..SubmitOpts::default()
            },
        )
        .unwrap();
    match ticket.wait() {
        Err(ServeError::Deadline { late_ns }) => {
            assert!(late_ns > 0, "late_ns must measure post-completion lateness");
        }
        other => panic!(
            "expected a post-execution Deadline, got {other:?}",
            other = other.map(|_| ())
        ),
    }
    let s = serve.tenant_stats("late").unwrap();
    assert_eq!(s.deadline_missed, 1, "classified as a miss");
    assert_eq!(s.completed, 0, "never as completed");
    // ... but the work really executed and must stay attributed, or the
    // tenant/shard reconciliation law would break.
    assert!(s.mma_instructions > 0, "executed work is attributed");
    let exec_stats = serve.exec_stats();
    assert_eq!(exec_stats.gemm_calls, 1);
    assert_eq!(s.mma_instructions, exec_stats.total().instructions);
    assert_eq!(s.mma_steps, exec_stats.total().steps);
    assert_eq!(s.operand_bytes, exec_stats.operand_bytes);
    assert_eq!(
        s.submitted,
        s.completed + s.rejected + s.deadline_missed + s.exec_errors
    );
}

#[test]
fn rate_limit_sheds_over_burst_and_counts_as_rejected() {
    // 2-token burst at a negligible refill rate: of 5 back-to-back
    // submissions, exactly 2 admit and 3 shed with RateLimited.
    let serve = M3xuServe::new(ServeConfig {
        workers: 1,
        rate_limit: Some(RateLimit {
            rps: 0.001,
            burst: 2.0,
        }),
        ..ServeConfig::default()
    });
    let mut tickets = Vec::new();
    let mut limited = 0u64;
    for i in 0..5u64 {
        let (a, b, c) = tiny_inputs(100 + i);
        match serve.try_submit_gemm_f32(
            "burst",
            GemmPrecision::M3xuFp32,
            a,
            b,
            c,
            SubmitOpts::default(),
        ) {
            Ok(t) => tickets.push(t),
            Err(ServeError::RateLimited { retry_after_ns }) => {
                assert!(retry_after_ns > 0);
                limited += 1;
            }
            Err(e) => panic!("expected RateLimited, got {e:?}"),
        }
    }
    assert_eq!(tickets.len(), 2);
    assert_eq!(limited, 3);
    for t in tickets {
        t.wait().unwrap();
    }
    let s = serve.tenant_stats("burst").unwrap();
    assert_eq!(s.submitted, 5);
    assert_eq!(s.completed, 2);
    assert_eq!(s.rejected, 3, "rate-limit sheds count as rejections");
    assert_eq!(
        s.submitted,
        s.completed + s.rejected + s.deadline_missed + s.exec_errors
    );
    // A per-tenant override lifts the default for that tenant alone.
    serve.set_rate_limit("vip", None);
    for i in 0..5u64 {
        let (a, b, c) = tiny_inputs(200 + i);
        serve
            .submit_gemm_f32(
                "vip",
                GemmPrecision::M3xuFp32,
                a,
                b,
                c,
                SubmitOpts::default(),
            )
            .and_then(|t| t.wait())
            .unwrap();
    }
    assert_eq!(serve.tenant_stats("vip").unwrap().completed, 5);
}

#[test]
fn high_priority_overtakes_low_in_the_queue() {
    // One shard, one-request drains: occupy the scheduler, queue a big
    // Low request then a tiny High one. Priority drain order means the
    // High request must *complete* before the Low one does. Both must be
    // queued while the blocker runs: it takes a few ms in either build
    // (a 128^3 blocker finishes within about 0.5 ms in release), and the
    // wait below spins, where a 1 ms sleep let the blocker finish first
    // and Low reach an idle shard before High was queued. Low is as big
    // as the blocker, so it outlasts the wake-up of the thread that
    // stamps High's completion.
    let serve = M3xuServe::new(ServeConfig {
        workers: 1,
        max_batch: 1,
        ..ServeConfig::default()
    });
    let n = if cfg!(debug_assertions) { 128 } else { 256 };
    let blocker = serve
        .submit_gemm_f32(
            "t",
            GemmPrecision::M3xuFp32,
            Matrix::<f32>::random(n, n, 1),
            Matrix::<f32>::random(n, n, 2),
            Matrix::<f32>::zeros(n, n),
            SubmitOpts::default(),
        )
        .unwrap();
    // Wait until the blocker is off the queue (executing).
    let waited = Instant::now();
    while serve.queue_len() > 0 {
        assert!(
            waited.elapsed() < Duration::from_secs(10),
            "the blocker was never drained"
        );
        std::thread::yield_now();
    }
    let low = serve
        .submit_gemm_f32(
            "t",
            GemmPrecision::M3xuFp32,
            Matrix::<f32>::random(n, n, 3),
            Matrix::<f32>::random(n, n, 4),
            Matrix::<f32>::zeros(n, n),
            SubmitOpts {
                priority: Priority::Low,
                ..SubmitOpts::default()
            },
        )
        .unwrap();
    let high = serve
        .submit_gemm_f32(
            "t",
            GemmPrecision::M3xuFp32,
            Matrix::<f32>::random(8, 8, 5),
            Matrix::<f32>::random(8, 8, 6),
            Matrix::<f32>::zeros(8, 8),
            SubmitOpts {
                priority: Priority::High,
                ..SubmitOpts::default()
            },
        )
        .unwrap();
    let (high_done, low_done) = std::thread::scope(|s| {
        let h = s.spawn(|| {
            high.wait().unwrap();
            Instant::now()
        });
        let l = s.spawn(|| {
            low.wait().unwrap();
            Instant::now()
        });
        (h.join().unwrap(), l.join().unwrap())
    });
    blocker.wait().unwrap();
    assert!(
        high_done < low_done,
        "the High request (submitted after) must complete before the Low one"
    );
}

/// Drive one full open-loop schedule through a service (blocking
/// submits, so every arrival executes) and fingerprint each result.
fn run_schedule(serve: &M3xuServe, arrivals: &[Arrival]) -> Vec<u64> {
    let mut out = Vec::with_capacity(arrivals.len());
    for (i, arr) in arrivals.iter().enumerate() {
        let tenant = format!("tenant-{}", arr.tenant);
        let seed = i as u64 * 7 + 1;
        let fp = match arr.op {
            OpKind::Gemm { n } => {
                let a = Matrix::<f32>::random(n, n, seed);
                let b = Matrix::<f32>::random(n, n, seed + 1);
                let c = Matrix::<f32>::zeros(n, n);
                let r = serve
                    .submit_gemm_f32(
                        &tenant,
                        GemmPrecision::M3xuFp32,
                        a,
                        b,
                        c,
                        SubmitOpts::default(),
                    )
                    .and_then(|t| t.wait())
                    .unwrap();
                fnv(r.d.as_slice().iter().map(|x| x.to_bits() as u64))
            }
            OpKind::Cgemm { n } => {
                let a = Matrix::random_c32(n, n, seed);
                let b = Matrix::random_c32(n, n, seed + 1);
                let c = Matrix::random_c32(n, n, seed + 2);
                let r = serve
                    .submit_cgemm_c32(&tenant, a, b, c, SubmitOpts::default())
                    .and_then(|t| t.wait())
                    .unwrap();
                fnv(r
                    .d
                    .as_slice()
                    .iter()
                    .flat_map(|x| [x.re.to_bits() as u64, x.im.to_bits() as u64]))
            }
            OpKind::Fft { len } => {
                let x: Vec<C32> = (0..len)
                    .map(|j| {
                        C32::new(
                            ((j as u64 + seed) as f32 * 0.37).sin(),
                            ((j as u64 + seed) as f32 * 0.11).cos(),
                        )
                    })
                    .collect();
                let (y, _) = serve
                    .submit_fft(&tenant, x, SubmitOpts::default())
                    .and_then(|t| t.wait())
                    .unwrap();
                fnv(y
                    .iter()
                    .flat_map(|x| [x.re.to_bits() as u64, x.im.to_bits() as u64]))
            }
        };
        out.push(fp);
    }
    out
}

#[test]
fn open_loop_schedule_and_dispositions_identical_across_shard_counts() {
    let spec = OpenLoopSpec {
        requests: 48,
        tenants: 8,
        ..OpenLoopSpec::default()
    };
    // The schedule itself is a pure function of the spec — byte-identical
    // however many shards will consume it.
    let arrivals = generate(&spec);
    assert_eq!(arrivals, generate(&spec));

    // Same seed, shard counts 1 / 2 / 8: every request must land with
    // the same disposition (completed — blocking submits shed nothing)
    // and the same result bits, and the conservation law must hold at
    // every shard count.
    let mut fingerprints: Vec<Vec<u64>> = Vec::new();
    for shards in [1usize, 2, 8] {
        let serve = M3xuServe::new(ServeConfig {
            shards,
            workers: 1,
            queue_capacity: 128,
            ..ServeConfig::default()
        });
        fingerprints.push(run_schedule(&serve, &arrivals));
        let totals = serve.total_stats();
        assert_eq!(totals.submitted, spec.requests as u64, "shards={shards}");
        assert_eq!(totals.completed, spec.requests as u64, "shards={shards}");
        assert_eq!(
            totals.submitted,
            totals.completed + totals.rejected + totals.deadline_missed + totals.exec_errors,
            "conservation at shards={shards}"
        );
        // FFT arrivals decompose into many internal CGEMM calls, so
        // gemm_calls exceeds completions here; it must never fall short.
        assert!(serve.exec_stats().gemm_calls >= totals.completed);
    }
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "results must be bit-identical at 1 vs 2 shards"
    );
    assert_eq!(
        fingerprints[0], fingerprints[2],
        "results must be bit-identical at 1 vs 8 shards"
    );
}

#[test]
fn eight_concurrent_clients_reconcile_across_four_shards() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 4;
    let serve = M3xuServe::new(ServeConfig {
        shards: 4,
        workers: 1,
        queue_capacity: 64,
        ..ServeConfig::default()
    });
    std::thread::scope(|s| {
        for client in 0..CLIENTS as u64 {
            let serve = &serve;
            s.spawn(move || {
                for round in 0..ROUNDS as u64 {
                    let seed = client * 100 + round;
                    let (m, k, n) = (8 + (seed % 13) as usize, 1 + (seed % 7) as usize, 9);
                    let a = Matrix::<f32>::random(m, k, seed + 1);
                    let b = Matrix::<f32>::random(k, n, seed + 2);
                    let c = Matrix::<f32>::random(m, n, seed + 3);
                    let want = gemm::baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
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
                    for (x, y) in got.d.as_slice().iter().zip(want.d.as_slice()) {
                        assert_eq!(x.to_bits(), y.to_bits(), "client {client} round {round}");
                    }
                }
            });
        }
    });
    // Quiesced: Σ per-tenant == Σ per-shard ExecStats, exactly.
    let totals = serve.total_stats();
    let mut shard_sum_calls = 0u64;
    let mut shard_sum_instructions = 0u64;
    let mut shard_sum_steps = 0u64;
    let mut shard_sum_bytes = 0u64;
    for shard in 0..serve.shard_count() {
        let s = serve.shard_stats(shard).unwrap();
        shard_sum_calls += s.gemm_calls;
        shard_sum_instructions += s.total().instructions;
        shard_sum_steps += s.total().steps;
        shard_sum_bytes += s.operand_bytes;
    }
    assert_eq!(totals.completed, (CLIENTS * ROUNDS) as u64);
    assert_eq!(totals.completed, shard_sum_calls);
    assert_eq!(totals.mma_instructions, shard_sum_instructions);
    assert_eq!(totals.mma_steps, shard_sum_steps);
    assert_eq!(totals.operand_bytes, shard_sum_bytes);
    assert_eq!(totals.retry_ns, 0);
    assert_eq!(
        totals.submitted,
        totals.completed + totals.rejected + totals.deadline_missed + totals.exec_errors
    );
    // The fold exec_stats() reports must equal the hand sum.
    let folded = serve.exec_stats();
    assert_eq!(folded.gemm_calls, shard_sum_calls);
    assert_eq!(folded.total().instructions, shard_sum_instructions);
}

#[test]
fn served_fp64_gemm_is_bit_identical_to_direct_context_execution() {
    let serve = M3xuServe::with_workers(1);
    let ctx = M3xuContext::with_threads(1);
    let a = Matrix::<f64>::random_f64(33, 17, 11);
    let b = Matrix::<f64>::random_f64(17, 21, 12);
    let c = Matrix::<f64>::random_f64(33, 21, 13);
    let want = ctx
        .try_gemm_f64(GemmPrecision::Fp64Emulated, &a, &b, &c)
        .unwrap();
    let got = serve
        .submit_gemm_f64("t", a, b, c, SubmitOpts::default())
        .and_then(|t| t.wait())
        .unwrap();
    for (x, y) in got.d.as_slice().iter().zip(want.d.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(got.stats, want.stats, "served stats match direct stats");
    let s = serve.tenant_stats("t").unwrap();
    assert_eq!(s.completed, 1);
    let slot = s.mode(MxuMode::M3xuFp64Emu);
    assert_eq!(slot.requests, 1);
    assert_eq!(slot.mma_instructions, want.stats.instructions);
    assert_eq!(slot.mma_steps, want.stats.steps);
    assert_eq!(slot.mma_lane_products, want.stats.lane_products);
    assert_eq!(slot.operand_bytes, ((33 * 17 + 17 * 21) * 8) as u64);
}

#[test]
fn mismatched_precision_is_a_typed_exec_error_not_a_panic() {
    // Fp64Emulated on an f32 submission cannot execute; the guard must
    // resolve the ticket with a typed ModeMismatch and the disposition
    // must land in exec_errors, keeping the conservation law intact.
    let serve = M3xuServe::with_workers(1);
    let (a, b, c) = tiny_inputs(47);
    let err = serve
        .submit_gemm_f32(
            "bad",
            GemmPrecision::Fp64Emulated,
            a,
            b,
            c,
            SubmitOpts::default(),
        )
        .and_then(|t| t.wait())
        .unwrap_err();
    assert!(
        matches!(err, ServeError::Exec(M3xuError::ModeMismatch { .. })),
        "expected a typed mode mismatch, got {err:?}"
    );
    let s = serve.tenant_stats("bad").unwrap();
    assert_eq!(s.exec_errors, 1);
    assert_eq!(s.mma_instructions, 0, "nothing executed");
    assert_eq!(
        s.submitted,
        s.completed + s.rejected + s.deadline_missed + s.exec_errors
    );
}

/// Drive a mixed-precision workload (every f32 precision through the
/// dial plus the f64 family) from several concurrent clients, then
/// reconcile the per-tenant per-mode usage against the summed per-shard
/// `ExecStats` — mode by mode, exactly.
fn run_precision_mix_and_reconcile(shards: usize) {
    const CLIENTS: usize = 6;
    const ROUNDS: usize = 3;
    let f32_dial = [
        GemmPrecision::Fp16,
        GemmPrecision::Bf16,
        GemmPrecision::Tf32,
        GemmPrecision::Fp32Fast,
        GemmPrecision::M3xuFp32,
    ];
    let serve = M3xuServe::new(ServeConfig {
        shards,
        workers: 1,
        queue_capacity: 64,
        ..ServeConfig::default()
    });
    std::thread::scope(|s| {
        for client in 0..CLIENTS as u64 {
            let serve = &serve;
            let f32_dial = &f32_dial;
            s.spawn(move || {
                for round in 0..ROUNDS as u64 {
                    let seed = client * 100 + round;
                    let (m, k, n) = (5 + (seed % 11) as usize, 1 + (seed % 6) as usize, 7);
                    let tenant = format!("client-{client}");
                    // One f32 request per round, cycling the dial.
                    let precision = f32_dial[(seed as usize) % f32_dial.len()];
                    serve
                        .submit_gemm_f32(
                            &tenant,
                            precision,
                            Matrix::<f32>::random(m, k, seed + 1),
                            Matrix::<f32>::random(k, n, seed + 2),
                            Matrix::<f32>::random(m, n, seed + 3),
                            SubmitOpts::default(),
                        )
                        .and_then(|t| t.wait())
                        .unwrap();
                    // And one emulated-FP64 request per round.
                    serve
                        .submit_gemm_f64(
                            &tenant,
                            Matrix::<f64>::random_f64(m, k, seed + 4),
                            Matrix::<f64>::random_f64(k, n, seed + 5),
                            Matrix::<f64>::random_f64(m, n, seed + 6),
                            SubmitOpts::default(),
                        )
                        .and_then(|t| t.wait())
                        .unwrap();
                }
            });
        }
    });
    // Quiesced: Σ per-tenant per-mode == Σ per-shard per-mode ExecStats.
    let totals = serve.total_stats();
    assert_eq!(totals.completed, (CLIENTS * ROUNDS * 2) as u64);
    let mut folded = m3xu::ExecStats::default();
    for shard in 0..serve.shard_count() {
        folded = folded.merged(&serve.shard_stats(shard).unwrap());
    }
    let mut flat_instructions = 0u64;
    let mut flat_steps = 0u64;
    let mut flat_bytes = 0u64;
    for mode in MxuMode::ALL {
        let tenant_side = totals.mode(mode);
        let shard_side = folded.mode(mode);
        assert_eq!(
            tenant_side.mma_instructions, shard_side.instructions,
            "instructions for {mode:?} at shards={shards}"
        );
        assert_eq!(
            tenant_side.mma_steps, shard_side.steps,
            "steps for {mode:?} at shards={shards}"
        );
        assert_eq!(
            tenant_side.mma_lane_products, shard_side.lane_products,
            "lane products for {mode:?} at shards={shards}"
        );
        flat_instructions += tenant_side.mma_instructions;
        flat_steps += tenant_side.mma_steps;
        flat_bytes += tenant_side.operand_bytes;
    }
    // The per-mode slots must also sum back to the flat counters, and
    // the flat counters to the shards' flat counters.
    assert_eq!(flat_instructions, totals.mma_instructions);
    assert_eq!(flat_steps, totals.mma_steps);
    assert_eq!(flat_bytes, totals.operand_bytes);
    assert_eq!(totals.operand_bytes, folded.operand_bytes);
    // The FP64 slot saw exactly the f64 requests, nothing else.
    assert_eq!(
        totals.mode(MxuMode::M3xuFp64Emu).requests,
        (CLIENTS * ROUNDS) as u64
    );
    assert_eq!(
        totals.submitted,
        totals.completed + totals.rejected + totals.deadline_missed + totals.exec_errors
    );
}

#[test]
fn precision_mix_reconciles_per_mode_at_one_shard() {
    run_precision_mix_and_reconcile(1);
}

#[test]
fn precision_mix_reconciles_per_mode_at_four_shards() {
    run_precision_mix_and_reconcile(4);
}
