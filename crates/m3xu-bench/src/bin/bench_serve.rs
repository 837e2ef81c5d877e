//! `bench_serve` — throughput and latency of the `m3xu-serve` scheduler
//! under offered load, with bit-identity against the direct context path
//! asserted on every served result. Emits `results/BENCH_serve.json`.
//!
//! Five experiments:
//!
//! 1. **Headline** — `requests` identical `n^3` M3XU-FP32 GEMMs on an
//!    8-worker service, submit-one-wait-one vs submit-all-then-wait.
//!    Both paths run `TRIALS` interleaved trials and report the minimum
//!    wall (best-of-N strips scheduler noise, leaving the systematic
//!    difference). A third cell repeats the batched run under
//!    `BatchPolicy::Always` — the old unconditional pooling whose
//!    oversubscription produced the historical 0.89x regression on
//!    few-core hosts; `policy_speedup` is the recovery the adaptive
//!    policy delivers over it. The modelled columns list-schedule the
//!    calibrated serial cost over the workers: the machine-independent
//!    speedup an actually-parallel `workers`-way MXU realises.
//!    A `regression` row repeats the comparison at the historical
//!    regression size (`256^3`) — the adaptive policy holds parity
//!    there instead of the recorded 0.89x loss.
//! 2. **Headline by shard count** — the same comparison at shards
//!    1/2/4: the adaptive fix must hold, and stay bit-identical, when
//!    routing and work stealing are in play.
//! 3. **Tiny-request workload** — 512 requests of an 8^3 GEMM, where
//!    per-request scheduling overhead dominates compute; the batched
//!    win here is structural (amortised wakeups) and survives any host.
//! 4. **Offered-load sweep** — closed-loop clients with a bounded
//!    in-flight window over 1/2/8-worker services; per-request p50/p99
//!    latency and throughput per cell.
//! 5. **Open-loop overload** — a seeded Poisson arrival schedule
//!    (`m3xu_serve::openloop`: Zipf tenant skew, mixed GEMM/CGEMM/FFT
//!    sizes) replayed against shards 1 and 4 with non-blocking submits
//!    and per-request deadlines. Arrivals do not slow down with the
//!    server, so the row exposes shed rate, deadline misses, goodput,
//!    and p50/p99/p999 latency under overload — plus the conservation
//!    law (`submitted == completed + rejected + deadline_missed +
//!    exec_errors`) and bit-identity of every completed result.
//!
//! A **fault sweep** (armed fault plans at increasing injection rates)
//! additionally emits `results/BENCH_fault.json`.
//!
//! `M3XU_BENCH_SERVE_SMALL=1` shrinks every experiment for a quick smoke
//! run (the JSON records the sizes actually used).

use m3xu_bench::{dump_json, timing::fmt_duration};
use m3xu_json::impl_to_json;
use m3xu_kernels::M3xuContext;
use m3xu_mxu::matrix::Matrix;
use m3xu_serve::openloop::{self, Arrival, OpKind, OpenLoopSpec};
use m3xu_serve::{
    BatchPolicy, FaultPlan, GemmPrecision, GemmResult, M3xuServe, MatOp, MmaStats, Priority,
    ServeConfig, ServeError, Side, SubmitOpts, Ticket, Triangle, C32,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Interleaved trials per headline path; the minimum wall is reported.
const TRIALS: usize = 3;

/// Inputs reused by every request of one workload (identical requests, so
/// one reference result checks them all).
struct Workload {
    n: usize,
    a: Matrix<f32>,
    b: Matrix<f32>,
    c: Matrix<f32>,
    reference: Matrix<f32>,
}

impl Workload {
    fn new(n: usize) -> Workload {
        let a = Matrix::<f32>::random(n, n, 0x5E + n as u64);
        let b = Matrix::<f32>::random(n, n, 0x5F + n as u64);
        let c = Matrix::<f32>::zeros(n, n);
        let reference = M3xuContext::with_threads(1)
            .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
            .expect("reference GEMM")
            .d;
        Workload {
            n,
            a,
            b,
            c,
            reference,
        }
    }

    fn check(&self, got: &GemmResult<f32>) -> bool {
        got.d
            .as_slice()
            .iter()
            .zip(self.reference.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
    }
}

/// One closed-loop run: `requests` identical GEMMs with at most
/// `in_flight` outstanding. Returns (wall seconds, per-request submit→
/// resolve latencies, all results bit-identical).
fn run_closed_loop(
    serve: &M3xuServe,
    w: &Workload,
    requests: usize,
    in_flight: usize,
) -> (f64, Vec<Duration>, bool) {
    let mut window = std::collections::VecDeque::new();
    let mut latencies = Vec::with_capacity(requests);
    let mut identical = true;
    let start = Instant::now();
    for _ in 0..requests {
        if window.len() >= in_flight.max(1) {
            let (t0, ticket): (Instant, Ticket<GemmResult<f32>>) = window.pop_front().unwrap();
            let res = ticket.wait().expect("served GEMM");
            latencies.push(t0.elapsed());
            identical &= w.check(&res);
        }
        let t0 = Instant::now();
        let ticket = serve
            .submit_gemm_f32(
                "bench",
                GemmPrecision::M3xuFp32,
                w.a.clone(),
                w.b.clone(),
                w.c.clone(),
                SubmitOpts::default(),
            )
            .expect("submit");
        window.push_back((t0, ticket));
    }
    while let Some((t0, ticket)) = window.pop_front() {
        let res = ticket.wait().expect("served GEMM");
        latencies.push(t0.elapsed());
        identical &= w.check(&res);
    }
    (start.elapsed().as_secs_f64(), latencies, identical)
}

fn percentile(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)].as_secs_f64() * 1e3
}

/// The headline comparison row.
struct HeadlineRow {
    /// Problem size `n` of each `n^3` request.
    n: u64,
    /// Requests issued.
    requests: u64,
    /// Service worker threads (per shard).
    workers: u64,
    /// Shard count of the service under test.
    shards: u64,
    /// Interleaved trials per path (minimum wall reported).
    trials: u64,
    /// Measured serial cost of one request on one worker, seconds.
    serial_cost_s: f64,
    /// Wall seconds, submit-one-wait-one (adaptive service).
    one_at_a_time_s: f64,
    /// Wall seconds, submit-all-then-wait on the adaptive service.
    batched_s: f64,
    /// `one_at_a_time_s / batched_s` — the gated figure. Adaptive
    /// batching only pools when its cost model predicts a win, so
    /// batched submission never loses to serial submission (the 0.89x
    /// regression this row guards against).
    wall_speedup: f64,
    /// Wall seconds, submit-all-then-wait under `BatchPolicy::Always`
    /// (the pre-adaptive unconditional pooling).
    unconditional_batched_s: f64,
    /// `unconditional_batched_s / batched_s` — what the adaptive policy
    /// recovers over unconditional pooling on this host (over 1x on a
    /// 1-core host, about 1x when the pool is actually parallel).
    policy_speedup: f64,
    /// Modelled makespan with one request in flight: `requests x cost`.
    modelled_one_at_a_time_s: f64,
    /// Modelled batched makespan: equal-cost list schedule over the
    /// workers, `ceil(requests / workers) x cost`.
    modelled_batched_s: f64,
    /// `modelled_one_at_a_time_s / modelled_batched_s` — the batching
    /// speedup an actually-parallel `workers`-way MXU realises.
    modelled_speedup: f64,
    /// Every served result was bit-identical to the direct context path.
    bit_identical: bool,
}
impl_to_json!(HeadlineRow {
    n,
    requests,
    workers,
    shards,
    trials,
    serial_cost_s,
    one_at_a_time_s,
    batched_s,
    wall_speedup,
    unconditional_batched_s,
    policy_speedup,
    modelled_one_at_a_time_s,
    modelled_batched_s,
    modelled_speedup,
    bit_identical
});

/// The tiny-request (overhead-dominated) comparison row.
struct TinyRow {
    /// Problem size `n` of each `n^3` request.
    n: u64,
    /// Requests issued.
    requests: u64,
    /// Service worker threads.
    workers: u64,
    /// Wall seconds, submit-one-wait-one.
    one_at_a_time_s: f64,
    /// Wall seconds, batched.
    batched_s: f64,
    /// Measured wall speedup (genuine even on one core: the win is
    /// amortised scheduling overhead, not parallel compute).
    wall_speedup: f64,
    /// Every served result was bit-identical to the direct context path.
    bit_identical: bool,
}
impl_to_json!(TinyRow {
    n,
    requests,
    workers,
    one_at_a_time_s,
    batched_s,
    wall_speedup,
    bit_identical
});

/// One offered-load sweep cell.
struct SweepRow {
    /// Service worker threads.
    workers: u64,
    /// Closed-loop in-flight window.
    in_flight: u64,
    /// Requests issued.
    requests: u64,
    /// Problem size `n` of each `n^3` request.
    n: u64,
    /// Wall seconds for the whole run.
    wall_s: f64,
    /// Requests per second.
    throughput_rps: f64,
    /// Median submit→resolve latency, milliseconds.
    p50_ms: f64,
    /// 99th-percentile submit→resolve latency, milliseconds.
    p99_ms: f64,
    /// Every served result was bit-identical to the direct context path.
    bit_identical: bool,
}
impl_to_json!(SweepRow {
    workers,
    in_flight,
    requests,
    n,
    wall_s,
    throughput_rps,
    p50_ms,
    p99_ms,
    bit_identical
});

/// One open-loop overload cell.
struct OpenLoopRow {
    /// Shard count of the service under test.
    shards: u64,
    /// Worker threads per shard.
    workers: u64,
    /// Arrivals in the schedule.
    requests: u64,
    /// Mean offered arrival rate of the schedule, requests/second.
    offered_rps: f64,
    /// Per-request deadline, milliseconds.
    deadline_ms: f64,
    /// Wall seconds from first arrival to last resolution.
    wall_s: f64,
    /// Requests that completed in time.
    completed: u64,
    /// Requests shed at admission (queue full / rate limit / breaker).
    rejected: u64,
    /// Requests dropped past deadline (queued or executed-but-late).
    deadline_missed: u64,
    /// Requests that failed in execution.
    exec_errors: u64,
    /// Completed requests per wall second.
    goodput_rps: f64,
    /// Median submit→resolve latency over completed requests, ms.
    p50_ms: f64,
    /// 99th-percentile latency over completed requests, ms.
    p99_ms: f64,
    /// 99.9th-percentile latency over completed requests, ms.
    p999_ms: f64,
    /// Every *completed* result was bit-identical to the direct path.
    bit_identical: bool,
    /// `submitted == completed + rejected + deadline_missed +
    /// exec_errors` held over the tenant totals.
    conservation_ok: bool,
}
impl_to_json!(OpenLoopRow {
    shards,
    workers,
    requests,
    offered_rps,
    deadline_ms,
    wall_s,
    completed,
    rejected,
    deadline_missed,
    exec_errors,
    goodput_rps,
    p50_ms,
    p99_ms,
    p999_ms,
    bit_identical,
    conservation_ok
});

/// The full report written to `results/BENCH_serve.json`.
struct Report {
    /// Physical parallelism of the measuring host (contextualises the
    /// wall vs modelled headline numbers).
    host_parallelism: u64,
    /// Experiment 1 (the gated row: `scripts/check.sh` regenerates this
    /// report and fails if `headline.wall_speedup < 1.0`).
    headline: HeadlineRow,
    /// The historical-regression size (`n = 256`), where the recorded
    /// 0.89x loss originally manifested. Post k-blocking the pooled
    /// working set no longer thrashes at this size, so unconditional
    /// pooling edges out serial here; the adaptive policy conservatively
    /// serializes (the batch is neither cache-resident nor parallel on a
    /// 1-core host), so `wall_speedup` documents parity-recovery (~1.0 ±
    /// noise, vs the old 0.89x) and `policy_speedup` the ~few-% premium
    /// that conservatism costs on hosts where the thrash is gone.
    regression: HeadlineRow,
    /// Experiment 2: the same comparison per shard count.
    headline_by_shards: Vec<HeadlineRow>,
    /// Experiment 3.
    tiny: TinyRow,
    /// Experiment 4.
    sweep: Vec<SweepRow>,
    /// Experiment 5.
    open_loop: Vec<OpenLoopRow>,
}
impl_to_json!(Report {
    host_parallelism,
    headline,
    regression,
    headline_by_shards,
    tiny,
    sweep,
    open_loop
});

/// One fault-sweep cell: a served GEMM workload under an armed plan.
struct FaultRow {
    /// Injection rate the plan was armed with (`0` = unarmed baseline).
    rate: f64,
    /// Plan seed.
    seed: u64,
    /// Service worker threads.
    workers: u64,
    /// Requests issued.
    requests: u64,
    /// Problem size `n` of each `n^3` request.
    n: u64,
    /// Requests that completed (after driver recovery and serve retries).
    completed: u64,
    /// Requests that exhausted every attempt (`FaultDetected` and
    /// friends surfaced to the client).
    exec_errors: u64,
    /// ABFT checksum mismatches detected across the run.
    faults_detected: u64,
    /// Detected faults repaired by re-execution.
    faults_corrected: u64,
    /// Chunk re-executions plus epoch re-submissions the drivers spent.
    driver_retries: u64,
    /// Tenant circuit-breaker trips observed.
    breaker_trips: u64,
    /// Wall seconds for the whole run.
    wall_s: f64,
    /// Completed requests per second.
    throughput_rps: f64,
    /// Every *completed* result was bit-identical to the fault-free
    /// reference (the recovery contract).
    bit_identical: bool,
}
impl_to_json!(FaultRow {
    rate,
    seed,
    workers,
    requests,
    n,
    completed,
    exec_errors,
    faults_detected,
    faults_corrected,
    driver_retries,
    breaker_trips,
    wall_s,
    throughput_rps,
    bit_identical
});

/// The fault-sweep report written to `results/BENCH_fault.json`.
struct FaultReport {
    /// Physical parallelism of the measuring host.
    host_parallelism: u64,
    /// One row per injection rate.
    sweep: Vec<FaultRow>,
    /// Per-op price of verification: checked vs unchecked at zero rate.
    abft_overhead: Vec<OverheadRow>,
}
impl_to_json!(FaultReport {
    host_parallelism,
    sweep,
    abft_overhead
});

/// One per-op ABFT overhead row. "Checked" arms a plan at rate 0: every
/// chunk runs the full checksum algebra and nothing is ever injected, so
/// the wall-time ratio against the unchecked production driver is the
/// pure price of verification for that op.
struct OverheadRow {
    /// Driver op label (matches `FaultDetected.op`).
    op: &'static str,
    /// Square problem size.
    n: u64,
    /// Repetitions per cell (minimum wall reported).
    reps: u64,
    /// Unchecked production driver, seconds.
    unchecked_wall_s: f64,
    /// Checked driver at zero fault rate, seconds.
    checked_wall_s: f64,
    /// `checked / unchecked`.
    overhead: f64,
}
impl_to_json!(OverheadRow {
    op,
    n,
    reps,
    unchecked_wall_s,
    checked_wall_s,
    overhead
});

/// Minimum wall seconds over `reps` runs of `f`.
fn min_wall(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Measure every checked driver against its unchecked twin at zero fault
/// rate. Both contexts share a thread count so the ratio isolates the
/// checksum work; the same `try_*` entry points run on both sides (on
/// the unarmed context they take the production body).
fn abft_overhead(n: usize, reps: usize, workers: usize) -> Vec<OverheadRow> {
    let unchecked = M3xuContext::with_threads(workers);
    let checked =
        M3xuContext::with_threads(workers).with_fault_plan(Arc::new(FaultPlan::new(1, 0.0)));
    let p = GemmPrecision::M3xuFp32;
    let mut rows = Vec::new();
    let mut cell = |op: &'static str, run: &dyn Fn(&M3xuContext)| {
        let unchecked_wall_s = min_wall(reps, || run(&unchecked));
        let checked_wall_s = min_wall(reps, || run(&checked));
        rows.push(OverheadRow {
            op,
            n: n as u64,
            reps: reps as u64,
            unchecked_wall_s,
            checked_wall_s,
            overhead: checked_wall_s / unchecked_wall_s,
        });
    };

    let a = Matrix::<f32>::random(n, n, 1);
    let b = Matrix::<f32>::random(n, n, 2);
    let c = Matrix::<f32>::random(n, n, 3);
    cell("gemm", &|ctx| {
        ctx.try_gemm_f32(p, &a, &b, &c).unwrap();
    });
    cell("gemm_op", &|ctx| {
        ctx.try_gemm_op_f32(p, MatOp::T, &a, MatOp::N, &b, 0.75, -1.25, &c)
            .unwrap();
    });
    cell("syrk", &|ctx| {
        ctx.try_syrk_f32(p, Triangle::Lower, MatOp::N, &a, 0.5, 2.0, &c)
            .unwrap();
    });
    cell("symm", &|ctx| {
        ctx.try_symm_f32(p, Side::Left, Triangle::Upper, &a, &b, -0.5, 1.25, &c)
            .unwrap();
    });

    let fa = Matrix::<f64>::random_f64(n, n, 4);
    let fb = Matrix::<f64>::random_f64(n, n, 5);
    let fc = Matrix::<f64>::random_f64(n, n, 6);
    cell("gemm_f64", &|ctx| {
        ctx.try_gemm_f64(GemmPrecision::Fp64Emulated, &fa, &fb, &fc)
            .unwrap();
    });

    let ca = Matrix::random_c32(n, n, 7);
    let cb = Matrix::random_c32(n, n, 8);
    let cc = Matrix::random_c32(n, n, 9);
    cell("cgemm", &|ctx| {
        ctx.try_cgemm_c32(&ca, &cb, &cc).unwrap();
    });
    cell("herk", &|ctx| {
        ctx.try_herk_c32(Triangle::Upper, MatOp::N, &ca, 0.75, -0.5, &cc)
            .unwrap();
    });
    cell("hemm", &|ctx| {
        ctx.try_hemm_c32(
            Side::Right,
            Triangle::Lower,
            &ca,
            &cb,
            C32::new(0.5, -0.25),
            C32::new(1.0, 0.5),
            &cc,
        )
        .unwrap();
    });
    rows
}

fn fault_cell(w: &Workload, seed: u64, rate: f64, workers: usize, requests: usize) -> FaultRow {
    let serve = M3xuServe::new(ServeConfig {
        workers,
        queue_capacity: requests.max(64),
        max_batch: 32,
        fault_plan: (rate > 0.0).then(|| Arc::new(FaultPlan::new(seed, rate))),
        ..ServeConfig::default()
    });
    let mut identical = true;
    let start = Instant::now();
    let tickets: Vec<_> = (0..requests)
        .map(|_| {
            serve
                .submit_gemm_f32(
                    "fault-bench",
                    GemmPrecision::M3xuFp32,
                    w.a.clone(),
                    w.b.clone(),
                    w.c.clone(),
                    SubmitOpts::default(),
                )
                .expect("submit")
        })
        .collect();
    let mut completed = 0u64;
    let mut errors = 0u64;
    for ticket in tickets {
        match ticket.wait() {
            Ok(res) => {
                completed += 1;
                identical &= w.check(&res);
            }
            Err(_) => errors += 1,
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let stats = serve.total_stats();
    FaultRow {
        rate,
        seed,
        workers: workers as u64,
        requests: requests as u64,
        n: w.n as u64,
        completed,
        exec_errors: errors,
        faults_detected: stats.faults_detected,
        faults_corrected: stats.faults_corrected,
        driver_retries: stats.retries,
        breaker_trips: stats.breaker_trips,
        wall_s,
        throughput_rps: completed as f64 / wall_s,
        bit_identical: identical,
    }
}

fn serve_with(workers: usize, queue_capacity: usize, max_batch: usize) -> M3xuServe {
    M3xuServe::new(ServeConfig {
        workers,
        queue_capacity,
        max_batch,
        ..ServeConfig::default()
    })
}

/// The headline comparison at one shard count. Warm-up runs train each
/// shard's adaptive cost model off the clock; then `trials` interleaved
/// measurements per path, minimum wall reported.
fn headline(
    n: usize,
    requests: usize,
    workers: usize,
    shards: usize,
    trials: usize,
) -> HeadlineRow {
    let w = Workload::new(n);
    // Calibrate the per-request serial cost on a single-worker context.
    let calib = M3xuContext::with_threads(1);
    let t = Instant::now();
    let _ = calib
        .try_gemm_f32(GemmPrecision::M3xuFp32, &w.a, &w.b, &w.c)
        .unwrap();
    let serial_cost_s = t.elapsed().as_secs_f64();

    let adaptive = M3xuServe::new(ServeConfig {
        shards,
        workers,
        queue_capacity: requests,
        max_batch: requests,
        ..ServeConfig::default()
    });
    let always = M3xuServe::new(ServeConfig {
        shards,
        workers,
        queue_capacity: requests,
        max_batch: requests,
        batching: BatchPolicy::Always,
        ..ServeConfig::default()
    });
    // Warm-up: pool/arena setup and the adaptive cost model's first
    // samples happen off the clock.
    let warm = requests.clamp(2, 8);
    let (_, _, w1) = run_closed_loop(&adaptive, &w, warm, warm);
    let (_, _, w2) = run_closed_loop(&always, &w, warm, warm);
    assert!(w1 && w2, "warm-up diverged");

    let mut identical = true;
    let (mut one_s, mut bat_s, mut always_s) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..trials.max(1) {
        let (s, _, id) = run_closed_loop(&adaptive, &w, requests, 1);
        one_s = one_s.min(s);
        identical &= id;
        let (s, _, id) = run_closed_loop(&adaptive, &w, requests, requests);
        bat_s = bat_s.min(s);
        identical &= id;
        let (s, _, id) = run_closed_loop(&always, &w, requests, requests);
        always_s = always_s.min(s);
        identical &= id;
    }
    let modelled_one = requests as f64 * serial_cost_s;
    let modelled_bat = requests.div_ceil(workers) as f64 * serial_cost_s;
    HeadlineRow {
        n: n as u64,
        requests: requests as u64,
        workers: workers as u64,
        shards: shards as u64,
        trials: trials as u64,
        serial_cost_s,
        one_at_a_time_s: one_s,
        batched_s: bat_s,
        wall_speedup: one_s / bat_s,
        unconditional_batched_s: always_s,
        policy_speedup: always_s / bat_s,
        modelled_one_at_a_time_s: modelled_one,
        modelled_batched_s: modelled_bat,
        modelled_speedup: modelled_one / modelled_bat,
        bit_identical: identical,
    }
}

fn tiny(n: usize, requests: usize, workers: usize) -> TinyRow {
    let w = Workload::new(n);
    let serve = serve_with(workers, requests, 64);
    // Warm both paths once so pool/arena setup is off the clock.
    let (_, _, warm) = run_closed_loop(&serve, &w, workers * 4, workers * 4);
    assert!(warm, "warm-up diverged");
    let (one_s, _, id1) = run_closed_loop(&serve, &w, requests, 1);
    let (bat_s, _, id2) = run_closed_loop(&serve, &w, requests, requests);
    TinyRow {
        n: n as u64,
        requests: requests as u64,
        workers: workers as u64,
        one_at_a_time_s: one_s,
        batched_s: bat_s,
        wall_speedup: one_s / bat_s,
        bit_identical: id1 && id2,
    }
}

fn sweep_cell(w: &Workload, requests: usize, workers: usize, in_flight: usize) -> SweepRow {
    let serve = serve_with(workers, requests.max(64), 32);
    let (wall_s, mut lat, identical) = run_closed_loop(&serve, w, requests, in_flight);
    lat.sort();
    SweepRow {
        workers: workers as u64,
        in_flight: in_flight as u64,
        requests: requests as u64,
        n: w.n as u64,
        wall_s,
        throughput_rps: requests as f64 / wall_s,
        p50_ms: percentile(&lat, 0.50),
        p99_ms: percentile(&lat, 0.99),
        bit_identical: identical,
    }
}

// ---- open-loop overload -------------------------------------------------

/// Deterministic inputs and reference bits for every (op, size) the
/// open-loop mix can draw. All arrivals of the same (op, size) share
/// inputs, so one reference checks them all.
struct OpRefs {
    gemm: HashMap<usize, GemmRef<f32>>,
    cgemm: HashMap<usize, GemmRef<C32>>,
    fft: HashMap<usize, (Vec<C32>, Vec<u32>)>,
}

/// Shared (a, b, c) inputs plus the reference output bits for one size.
type GemmRef<T> = (Matrix<T>, Matrix<T>, Matrix<T>, Vec<u32>);

fn c32_bits(xs: &[C32]) -> Vec<u32> {
    xs.iter()
        .flat_map(|x| [x.re.to_bits(), x.im.to_bits()])
        .collect()
}

impl OpRefs {
    fn new(schedule: &[Arrival]) -> OpRefs {
        let ctx = M3xuContext::with_threads(1);
        let mut refs = OpRefs {
            gemm: HashMap::new(),
            cgemm: HashMap::new(),
            fft: HashMap::new(),
        };
        for arr in schedule {
            match arr.op {
                OpKind::Gemm { n } => {
                    refs.gemm.entry(n).or_insert_with(|| {
                        let a = Matrix::<f32>::random(n, n, 0xA0 + n as u64);
                        let b = Matrix::<f32>::random(n, n, 0xB0 + n as u64);
                        let c = Matrix::<f32>::zeros(n, n);
                        let d = ctx
                            .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
                            .expect("reference GEMM")
                            .d;
                        let bits = d.as_slice().iter().map(|x| x.to_bits()).collect();
                        (a, b, c, bits)
                    });
                }
                OpKind::Cgemm { n } => {
                    refs.cgemm.entry(n).or_insert_with(|| {
                        let a = Matrix::random_c32(n, n, 0xC0 + n as u64);
                        let b = Matrix::random_c32(n, n, 0xD0 + n as u64);
                        let c = Matrix::random_c32(n, n, 0xE0 + n as u64);
                        let d = ctx.try_cgemm_c32(&a, &b, &c).unwrap().d;
                        let bits = c32_bits(d.as_slice());
                        (a, b, c, bits)
                    });
                }
                OpKind::Fft { len } => {
                    refs.fft.entry(len).or_insert_with(|| {
                        let x: Vec<C32> = (0..len)
                            .map(|j| C32::new((j as f32 * 0.37).sin(), (j as f32 * 0.11).cos()))
                            .collect();
                        let (y, _) = ctx.try_gemm_fft(&x).expect("reference FFT");
                        let bits = c32_bits(&y);
                        (x, bits)
                    });
                }
            }
        }
        refs
    }
}

/// An in-flight open-loop request: its ticket plus the key back to its
/// reference bits.
enum Pending {
    Gemm(usize, Ticket<GemmResult<f32>>),
    Cgemm(usize, Ticket<GemmResult<C32>>),
    Fft(usize, Ticket<(Vec<C32>, MmaStats)>),
}

impl Pending {
    /// `None` while in flight; `Some(Ok(identical))` on completion,
    /// `Some(Err(e))` on a typed rejection.
    fn poll(&self, refs: &OpRefs) -> Option<Result<bool, ServeError>> {
        match self {
            Pending::Gemm(n, t) => t.try_wait().map(|r| {
                r.map(|res| {
                    let want = &refs.gemm[n].3;
                    res.d
                        .as_slice()
                        .iter()
                        .zip(want)
                        .all(|(x, y)| x.to_bits() == *y)
                })
            }),
            Pending::Cgemm(n, t) => t
                .try_wait()
                .map(|r| r.map(|res| c32_bits(res.d.as_slice()) == refs.cgemm[n].3)),
            Pending::Fft(len, t) => t
                .try_wait()
                .map(|r| r.map(|(y, _)| c32_bits(&y) == refs.fft[len].1)),
        }
    }
}

/// Replay one open-loop schedule against a fresh service: non-blocking
/// submits paced by the arrival times (a rejection is a shed, never a
/// wait), a deadline on every request, and a polling collector for
/// completion-time latency.
fn open_loop_cell(
    spec: &OpenLoopSpec,
    schedule: &[Arrival],
    refs: &OpRefs,
    shards: usize,
    workers: usize,
    deadline: Duration,
) -> OpenLoopRow {
    let serve = M3xuServe::new(ServeConfig {
        shards,
        workers,
        queue_capacity: 32,
        max_batch: 16,
        ..ServeConfig::default()
    });
    let opts = SubmitOpts {
        deadline: Some(deadline),
        priority: Priority::Normal,
    };
    let mut pending: Vec<(Instant, Pending)> = Vec::new();
    let mut latencies: Vec<Duration> = Vec::new();
    let mut identical = true;
    let mut next = 0usize;
    let start = Instant::now();
    loop {
        // Submit every arrival that is due.
        while next < schedule.len() {
            let arr = &schedule[next];
            if start.elapsed() < Duration::from_nanos(arr.at_ns) {
                break;
            }
            let tenant = format!("tenant-{}", arr.tenant);
            let t0 = Instant::now();
            let submitted = match arr.op {
                OpKind::Gemm { n } => {
                    let (a, b, c, _) = &refs.gemm[&n];
                    serve
                        .try_submit_gemm_f32(
                            &tenant,
                            GemmPrecision::M3xuFp32,
                            a.clone(),
                            b.clone(),
                            c.clone(),
                            opts,
                        )
                        .map(|t| Pending::Gemm(n, t))
                }
                OpKind::Cgemm { n } => {
                    let (a, b, c, _) = &refs.cgemm[&n];
                    serve
                        .try_submit_cgemm_c32(&tenant, a.clone(), b.clone(), c.clone(), opts)
                        .map(|t| Pending::Cgemm(n, t))
                }
                OpKind::Fft { len } => {
                    let (x, _) = &refs.fft[&len];
                    serve
                        .try_submit_fft(&tenant, x.clone(), opts)
                        .map(|t| Pending::Fft(len, t))
                }
            };
            // A shed (queue full) is already accounted as `rejected`.
            if let Ok(p) = submitted {
                pending.push((t0, p));
            }
            next += 1;
        }
        // Poll the in-flight set; latency is measured at the observed
        // completion, not at a serialized wait.
        pending.retain(|(t0, p)| match p.poll(refs) {
            None => true,
            Some(Ok(id)) => {
                latencies.push(t0.elapsed());
                identical &= id;
                false
            }
            // Deadline miss / exec error: counted from tenant stats.
            Some(Err(_)) => false,
        });
        if next >= schedule.len() && pending.is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    let wall_s = start.elapsed().as_secs_f64();
    let totals = serve.total_stats();
    let offered_rps = if schedule.is_empty() {
        0.0
    } else {
        schedule.len() as f64 / (schedule.last().unwrap().at_ns as f64 / 1e9).max(1e-9)
    };
    latencies.sort();
    OpenLoopRow {
        shards: shards as u64,
        workers: workers as u64,
        requests: spec.requests as u64,
        offered_rps,
        deadline_ms: deadline.as_secs_f64() * 1e3,
        wall_s,
        completed: totals.completed,
        rejected: totals.rejected,
        deadline_missed: totals.deadline_missed,
        exec_errors: totals.exec_errors,
        goodput_rps: totals.completed as f64 / wall_s,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        p999_ms: percentile(&latencies, 0.999),
        bit_identical: identical,
        conservation_ok: totals.submitted
            == totals.completed + totals.rejected + totals.deadline_missed + totals.exec_errors,
    }
}

fn main() {
    let small = std::env::var("M3XU_BENCH_SERVE_SMALL")
        .map(|v| v == "1")
        .unwrap_or(false);
    let host = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!("m3xu-serve scheduler benchmark (host parallelism {host})\n");

    let (hn, hreq) = if small { (128, 16) } else { (128, 64) };
    let head = headline(hn, hreq, 8, 1, TRIALS);
    println!(
        "headline {req} x {n}^3 on {wk} workers: one-at-a-time {one}, batched {bat}, \
         unconditional {unc}\n  wall {ws:.3}x  policy-recovery {ps:.3}x  \
         modelled {ms:.2}x on a {wk}-way MXU  bit-identical: {bi}",
        req = head.requests,
        n = head.n,
        wk = head.workers,
        one = fmt_duration(Duration::from_secs_f64(head.one_at_a_time_s)),
        bat = fmt_duration(Duration::from_secs_f64(head.batched_s)),
        unc = fmt_duration(Duration::from_secs_f64(head.unconditional_batched_s)),
        ws = head.wall_speedup,
        ps = head.policy_speedup,
        ms = head.modelled_speedup,
        bi = head.bit_identical,
    );

    // The small cell is brief enough to afford interleaved trials (and
    // too noisy without them); the full cell runs ~9 s per pass, and a
    // single interleaved pass per path already resolves parity there.
    let (rn, rreq, rtrials) = if small {
        (256, 8, TRIALS)
    } else {
        (256, 64, 1)
    };
    let regression = headline(rn, rreq, 8, 1, rtrials);
    println!(
        "regression size {req} x {n}^3 (historical 0.89x): wall {ws:.3}x  \
         policy-recovery {ps:.3}x  bit-identical: {bi}",
        req = regression.requests,
        n = regression.n,
        ws = regression.wall_speedup,
        ps = regression.policy_speedup,
        bi = regression.bit_identical,
    );

    let (sn, sreq) = if small { (64, 16) } else { (128, 32) };
    let mut by_shards = Vec::new();
    println!("\nheadline by shard count ({sreq} x {sn}^3, 8 workers/shard):");
    for &shards in &[1usize, 2, 4] {
        let row = headline(sn, sreq, 8, shards, 3);
        println!(
            "  shards {shards}: one-at-a-time {one}, batched {bat} (wall {ws:.3}x, \
             policy-recovery {ps:.3}x, bit-identical: {bi})",
            one = fmt_duration(Duration::from_secs_f64(row.one_at_a_time_s)),
            bat = fmt_duration(Duration::from_secs_f64(row.batched_s)),
            ws = row.wall_speedup,
            ps = row.policy_speedup,
            bi = row.bit_identical,
        );
        by_shards.push(row);
    }

    let tiny_row = tiny(8, 512, 8);
    println!(
        "\ntiny {req} x {n}^3 on {wk} workers: one-at-a-time {one}, batched {bat} \
         (wall {ws:.2}x; bit-identical: {bi})",
        req = tiny_row.requests,
        n = tiny_row.n,
        wk = tiny_row.workers,
        one = fmt_duration(Duration::from_secs_f64(tiny_row.one_at_a_time_s)),
        bat = fmt_duration(Duration::from_secs_f64(tiny_row.batched_s)),
        ws = tiny_row.wall_speedup,
        bi = tiny_row.bit_identical,
    );

    let sweep_n = if small { 32 } else { 64 };
    let sweep_req = if small { 16 } else { 64 };
    let w = Workload::new(sweep_n);
    let mut sweep = Vec::new();
    println!("\noffered-load sweep ({sweep_req} x {sweep_n}^3 per cell):");
    for &workers in &[1usize, 2, 8] {
        for &in_flight in &[1usize, 4, 16, 64] {
            let row = sweep_cell(&w, sweep_req, workers, in_flight);
            println!(
                "  workers {:>2} in-flight {:>3}: {:>8.1} req/s  p50 {:>8.2} ms  p99 {:>8.2} ms",
                row.workers, row.in_flight, row.throughput_rps, row.p50_ms, row.p99_ms
            );
            sweep.push(row);
        }
    }

    let spec = OpenLoopSpec {
        requests: if small { 96 } else { 384 },
        mean_rps: if small { 300.0 } else { 400.0 },
        ..OpenLoopSpec::default()
    };
    let schedule = openloop::generate(&spec);
    let refs = OpRefs::new(&schedule);
    let deadline = Duration::from_millis(250);
    let mut open_loop = Vec::new();
    println!(
        "\nopen-loop overload ({} Poisson arrivals @ {:.0} rps, Zipf({}) over {} tenants, \
         {} ms deadline):",
        spec.requests,
        spec.mean_rps,
        spec.zipf_s,
        spec.tenants,
        deadline.as_millis()
    );
    for &shards in &[1usize, 4] {
        let row = open_loop_cell(&spec, &schedule, &refs, shards, 1, deadline);
        println!(
            "  shards {sh}: goodput {gp:>7.1} req/s  completed {c} shed {r} missed {m} \
             errors {e}  p50 {p50:.2} ms p99 {p99:.2} ms p999 {p999:.2} ms  \
             bit-identical: {bi}  conservation: {co}",
            sh = row.shards,
            gp = row.goodput_rps,
            c = row.completed,
            r = row.rejected,
            m = row.deadline_missed,
            e = row.exec_errors,
            p50 = row.p50_ms,
            p99 = row.p99_ms,
            p999 = row.p999_ms,
            bi = row.bit_identical,
            co = row.conservation_ok,
        );
        open_loop.push(row);
    }

    assert!(
        head.bit_identical
            && by_shards.iter().all(|r| r.bit_identical)
            && tiny_row.bit_identical
            && sweep.iter().all(|r| r.bit_identical)
            && open_loop.iter().all(|r| r.bit_identical),
        "served results diverged from the direct context path"
    );
    assert!(
        open_loop.iter().all(|r| r.conservation_ok),
        "the request conservation law broke under open-loop load"
    );
    let report = Report {
        host_parallelism: host as u64,
        headline: head,
        regression,
        headline_by_shards: by_shards,
        tiny: tiny_row,
        sweep,
        open_loop,
    };
    dump_json("BENCH_serve", &report).expect("write results/BENCH_serve.json");
    println!("\nwrote results/BENCH_serve.json");

    let (fault_n, fault_req) = if small { (32, 8) } else { (48, 32) };
    let fw = Workload::new(fault_n);
    let mut fault_sweep = Vec::new();
    println!("\nfault sweep ({fault_req} x {fault_n}^3 per cell, 4 workers):");
    for &rate in &[0.0, 1e-4, 1e-3, 5e-3] {
        let row = fault_cell(&fw, 17, rate, 4, fault_req);
        println!(
            "  rate {:>7}: {:>3}/{:<3} completed  {:>5} detected {:>5} corrected \
             {:>5} retries  {:>7.1} req/s  bit-identical: {}",
            row.rate,
            row.completed,
            row.requests,
            row.faults_detected,
            row.faults_corrected,
            row.driver_retries,
            row.throughput_rps,
            row.bit_identical
        );
        fault_sweep.push(row);
    }
    assert!(
        fault_sweep.iter().all(|r| r.bit_identical),
        "a completed request diverged from the fault-free reference"
    );
    assert!(
        fault_sweep
            .iter()
            .any(|r| r.rate > 0.0 && r.faults_detected > 0),
        "the armed cells never injected anything"
    );
    let (ov_n, ov_reps) = if small { (48, 2) } else { (96, 3) };
    println!("\nper-op ABFT overhead ({ov_n}^3, zero fault rate, min of {ov_reps}):");
    let overhead_rows = abft_overhead(ov_n, ov_reps, 4);
    for r in &overhead_rows {
        println!(
            "  {:<9} unchecked {:>10}  checked {:>10}  overhead {:.2}x",
            r.op,
            fmt_duration(Duration::from_secs_f64(r.unchecked_wall_s)),
            fmt_duration(Duration::from_secs_f64(r.checked_wall_s)),
            r.overhead
        );
    }
    let fault_report = FaultReport {
        host_parallelism: host as u64,
        sweep: fault_sweep,
        abft_overhead: overhead_rows,
    };
    dump_json("BENCH_fault", &fault_report).expect("write results/BENCH_fault.json");
    println!("wrote results/BENCH_fault.json");
}
