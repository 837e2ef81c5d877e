//! The per-shard schedulers: one thread per shard that drains its own
//! queue (stealing from siblings when idle) and decides *how* each
//! request reaches its shard's worker pool.
//!
//! # Dispatch paths
//!
//! Requests classify by output-tile count against the configured shard
//! threshold:
//!
//! * **small** — when the batching policy pools the batch (see below), the
//!   whole batch becomes a single worker-pool epoch via
//!   [`M3xuContext::run_tasks`], one request per task. A GEMM issued from
//!   inside a pool task executes inline on that worker (the pool's
//!   reentrancy contract), so `w` workers retire `w` small requests
//!   concurrently with *one* epoch's worth of synchronisation instead of
//!   one epoch per request. Otherwise the batch runs serially inline on
//!   the shard thread — no epoch at all;
//! * **large** — executed one at a time on the shard thread, so the
//!   kernel's own tile-wise sharding spreads a single big problem across
//!   every worker.
//!
//! Both paths end in the same typed `M3xuContext::try_*` call a
//! direct-context caller would make (the boxed call of a GEMM-family
//! job, or `try_gemm_fft`), which is why served results are
//! bit-identical to unserved ones.
//!
//! # Adaptive batching
//!
//! Unconditional epoch batching once made batched submission slower
//! than one-at-a-time: fanning a batch of *large* GEMMs into a
//! multi-worker epoch runs many cache-hungry problems concurrently —
//! they evict each other's working sets and lose to running back to
//! back, each spread across the pool by the kernel's own tile sharding.
//! But serial inline dispatch is not free either: each non-trivial
//! request's kernel pays its own worker-pool epoch for tile sharding, so
//! a batch of *small* requests run inline pays one epoch per request
//! where a pooled batch pays one epoch total. Under
//! [`BatchPolicy::Adaptive`] a drained batch of two or more requests is
//! therefore pooled when it is **cache-resident**: every request is at
//! or under [`POOL_RESIDENT_TILES`] output tiles. Working sets that
//! small cannot thrash each other, so the single shared epoch costs no
//! cache and saves the per-request epochs. Where the kernel's own tile
//! sharding already keeps every core busy, that saving is small: at
//! 128^3 on two cores, pooled and sharded GEMMs retire at the same rate
//! and batching gains only the per-request epochs and hand-offs, a few
//! percent. `tests/perf_smoke.rs` gates the decision at that size, from
//! the shard's [`BatchCounts`], and prints the batched-over-one-at-a-time
//! wall ratio without gating it. Any larger batch runs inline.
//!
//! [`BatchPolicy::Always`] / [`BatchPolicy::Never`] force either path
//! (the differential suites use them to pin both).
//!
//! # Fault handling
//!
//! When a shard's context carries an armed fault plan, every submittable
//! operation — GEMM at every precision of the dial (including emulated
//! FP64), CGEMM, the op-GEMMs, and the triangular BLAS-3 surface
//! (SYRK/HERK/SYMM/HEMM) — routes through its ABFT-checked driver, and
//! execution can fail with [`M3xuError::FaultDetected`] (now carrying
//! the failing op and mode): the driver detected corruption it could not
//! repair within its per-chunk retry budget. The scheduler owns the next
//! lines of defence:
//!
//! * **bounded retry** — each request is re-executed up to
//!   [`ExecPolicy::max_retries`] more times with exponential backoff
//!   (`retry_backoff * 2^attempt`). The checked driver re-salts every
//!   invocation, so a retry re-rolls the fault schedule rather than
//!   replaying it. Time burned on failed attempts and backoff sleeps is
//!   kept out of the tenant's `exec_ns` (which charges only the final
//!   attempt) and surfaced as `retry_ns`.
//! * **hedged re-dispatch** — a request that is still ABFT-unrecoverable
//!   after its home shard's retry budget is executed once more on a
//!   *sibling* shard's context (a different pool, different fault salt)
//!   before `FaultDetected` is surfaced to the client. The hedged work
//!   lands in the sibling's `ExecStats` and the tenant's counters alike,
//!   so reconciliation still holds.
//! * **circuit breaker** — a tenant whose requests keep failing with
//!   `FaultDetected` (a streak of [`ExecPolicy::breaker_threshold`])
//!   trips its breaker: subsequent submissions are shed at admission with
//!   [`ServeError::BreakerOpen`] until the cooldown elapses. Sheds count
//!   as rejections, so the per-tenant conservation law still holds.
//! * **degraded mode** — a service-wide streak of
//!   [`ExecPolicy::degraded_after`] consecutive fault-failed requests
//!   switches every shard to serial inline execution (no epoch batching)
//!   until any request succeeds. A fault storm thus quiesces the pools
//!   instead of churning them.
//!
//! Every invocation's [`FaultSummary`] — the successful attempt's from
//! its [`GemmResult::faults`], each failed attempt's recovered from the
//! error's fields — is absorbed into the tenant account verbatim, so
//! summed tenant fault counters reproduce the summed shard `ExecStats`
//! fault counters exactly for GEMM/CGEMM and BLAS-3 traffic. The same
//! holds for the rest of the bill: a GEMM-family request is charged the
//! result's mode, MMA statistics and operand bytes, exactly what the
//! driver recorded into the shard's counters. (FFT-internal faults are
//! visible in the context's counters only: the FFT's CGEMM decomposition
//! is checked and retried, but its per-call summaries are not surfaced
//! through the FFT return type.)
//!
//! # Poison quarantine and the shard watchdog
//!
//! Two failure modes live *above* the checksum algebra:
//!
//! * A **poison request** panics the worker executing it. Every
//!   execution runs under a quarantine guard ([`catch_unwind`]); a caught
//!   panic marks the request suspect, and suspects re-run *alone* —
//!   serially on the scheduler thread, never pooled with batch-mates.
//!   After [`QUARANTINE_ATTEMPTS`] panicking executions the request fails
//!   with [`ServeError::Quarantined`], recorded as an `exec_error` so the
//!   conservation law holds — and the tenant's circuit breaker is *not*
//!   advanced (it tracks hardware fault health, not request toxicity).
//! * A **dead shard scheduler** (a defect, or the chaos suite's
//!   deliberate kill) is detected by the service's watchdog thread, which
//!   respawns the scheduler on the same context. The shard's queue lives
//!   in the shared [`ShardSet`], so queued requests survive the death; a
//!   dying scheduler re-enqueues the drained-but-undispatched remainder
//!   of its batch on the way down (see [`Undispatched`]), so nothing is
//!   silently dropped and `submitted == completed + rejected +
//!   deadline_missed + exec_errors` survives the kill.
//!
//! # Deadlines
//!
//! A request's deadline is checked three times: at drain (shed without
//! executing), immediately pre-execution on the worker (shed without
//! executing — it may have aged in a batch behind peers), and *after*
//! execution. The last one is the subtle case: a request admitted to a
//! batch can blow its deadline inside the batch behind larger peers. It
//! executed — the MXU work is real and is attributed to the tenant so
//! reconciliation stays exact — but it is classified `deadline_missed`,
//! never `completed`, and its ticket resolves to
//! [`ServeError::Deadline`] with `late_ns` measured from actual
//! completion time.

use crate::error::ServeError;
use crate::queue::{ChaosKind, GemmJob, GemmWork, Request, ShardSet, Wake, Work};
use crate::{BatchCounts, BatchPolicy};
use m3xu_kernels::context::M3xuContext;
use m3xu_kernels::gemm::GemmResult;
use m3xu_kernels::FaultSummary;
use m3xu_mxu::error::M3xuError;
use m3xu_mxu::modes::MxuMode;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fault-recovery policy the scheduler executes under (a plain-data
/// projection of the `ServeConfig` fields).
pub(crate) struct ExecPolicy {
    /// Additional executions granted per request after a
    /// `FaultDetected` failure.
    pub max_retries: u32,
    /// Base backoff before the first retry; doubles per attempt.
    pub retry_backoff: Duration,
    /// Consecutive `FaultDetected` failures that trip a tenant's breaker
    /// (`0` disables the breaker).
    pub breaker_threshold: u32,
    /// How long a tripped breaker sheds that tenant's submissions.
    pub breaker_cooldown: Duration,
    /// Service-wide consecutive fault failures that switch scheduling to
    /// serial degraded mode (`0` disables degraded mode).
    pub degraded_after: u32,
}

/// State shared by every shard scheduler and the service handle.
pub(crate) struct SharedSched {
    pub set: Arc<ShardSet>,
    /// Every shard's execution context, indexed by shard — the hedged
    /// re-dispatch path executes an ABFT-unrecoverable request on a
    /// sibling's context, and the watchdog respawns a dead scheduler on
    /// its original one.
    pub contexts: Vec<Arc<M3xuContext>>,
    pub policy: ExecPolicy,
    pub batching: BatchPolicy,
    pub max_batch: usize,
    pub shard_tiles: usize,
    /// Consecutive requests (service-wide) whose every attempt failed
    /// with `FaultDetected`; any success resets it.
    pub fault_streak: AtomicU32,
    /// Every shard's batching decisions, indexed by shard.
    pub batches: Vec<BatchCounters>,
}

/// One shard scheduler's batching decisions, counted as
/// [`BatchCounts`] reports them.
#[derive(Default)]
pub(crate) struct BatchCounters {
    pooled: AtomicU64,
    inline: AtomicU64,
}

impl BatchCounters {
    /// The counts so far.
    pub(crate) fn snapshot(&self) -> BatchCounts {
        BatchCounts {
            pooled: self.pooled.load(Ordering::Relaxed),
            inline: self.inline.load(Ordering::Relaxed),
        }
    }
}

/// Panicking executions a poison request is granted (the first plus
/// quarantined re-runs) before it is failed alone with
/// [`ServeError::Quarantined`].
pub(crate) const QUARANTINE_ATTEMPTS: u32 = 3;

/// Panic payload of [`ChaosKind::KillShard`]: the quarantine guard lets
/// it pass through ([`resume_unwind`]) so it kills the scheduler thread
/// instead of marking the request poison — the watchdog test's stand-in
/// for a scheduler-thread defect.
struct ShardKill;

/// Output-tile bound for the cache-residency pooling rule. A request at
/// or under this many output tiles (a 128x128 FP32 output is 256; its
/// GEMM touches ~192 KiB of operands) is small enough that a batch of
/// them executing concurrently cannot evict each other's working sets,
/// so pooling the batch trades one shared epoch for one kernel-internal
/// epoch *per request* — never a loss to thrashing, though only a few
/// percent where the sharded kernel already fills every core. A 256^3
/// request (1024 tiles, ~768 KiB) is past it: several of those running
/// concurrently on an oversubscribed host thrash — the regression this
/// policy exists to prevent.
const POOL_RESIDENT_TILES: usize = 256;

/// Whether [`BatchPolicy::Adaptive`] pools `batch` into one epoch: two
/// or more requests, each at or under [`POOL_RESIDENT_TILES`] output
/// tiles.
fn batch_is_resident(batch: &[Request]) -> bool {
    batch.len() >= 2
        && batch
            .iter()
            .all(|r| r.work.output_tiles() <= POOL_RESIDENT_TILES)
}

/// One shard scheduler: its queue index, its own context (pool + scratch
/// + stats sink), and the shared policy/signal state.
pub(crate) struct ShardCore {
    pub index: usize,
    pub ctx: Arc<M3xuContext>,
    pub shared: Arc<SharedSched>,
}

impl ShardCore {
    /// The shard thread body: drain own queue → steal from siblings →
    /// sleep on the work signal, until shutdown; then sweep the own queue
    /// with [`ServeError::ShuttingDown`].
    pub(crate) fn run_loop(&self) {
        let set = &self.shared.set;
        let max_batch = self.shared.max_batch;
        let mut seen = set.generation();
        loop {
            // Capture the generation *before* scanning: a push racing the
            // scan moves it, so wait_for_work returns immediately.
            let batch = set.shard(self.index).try_drain(max_batch);
            if !batch.is_empty() {
                self.schedule(batch);
                continue;
            }
            let mut stole = false;
            for victim in 0..set.shard_count() {
                if victim == self.index {
                    continue;
                }
                let batch = set.shard(victim).steal(max_batch);
                if !batch.is_empty() {
                    stole = true;
                    self.schedule(batch);
                    break;
                }
            }
            if stole {
                continue;
            }
            match set.wait_for_work(seen) {
                Wake::Work(gen) => seen = gen,
                Wake::Shutdown => break,
            }
        }
        for req in set.shard(self.index).take_all() {
            req.tenant.record_rejected();
            req.work.reject(ServeError::ShuttingDown);
        }
    }

    /// Dispatch one drained batch: shed expired deadlines, then run the
    /// small requests either as one pool epoch (when the batching policy
    /// says it wins) or serially inline, and the large ones one at a time
    /// sharded across the pool. In degraded mode (fault streak at or past
    /// the threshold) everything runs serially. Poison suspects
    /// (`poison_attempts > 0`) are never pooled: they join the serial
    /// list so a re-panic cannot take a batch epoch down with it.
    fn schedule(&self, batch: Vec<Request>) {
        let shared = &*self.shared;
        let mut small = Vec::new();
        let mut large = Vec::new();
        let now = Instant::now();
        for req in batch {
            if let Some(deadline) = req.deadline {
                if now > deadline {
                    let late_ns = ns(deadline, now);
                    req.tenant.record_deadline_missed(ns(req.enqueued, now));
                    req.work.reject(ServeError::Deadline { late_ns });
                    continue;
                }
            }
            if req.poison_attempts == 0 && req.work.output_tiles() <= shared.shard_tiles {
                small.push(req);
            } else {
                large.push(req);
            }
        }
        let degraded = shared.policy.degraded_after > 0
            && shared.fault_streak.load(Ordering::Relaxed) >= shared.policy.degraded_after;
        let pool_small = !degraded
            && match shared.batching {
                BatchPolicy::Always => !small.is_empty(),
                BatchPolicy::Never => false,
                BatchPolicy::Adaptive => batch_is_resident(&small),
            };
        if small.len() + large.len() >= 2 {
            let counters = &shared.batches[self.index];
            let count = if pool_small {
                &counters.pooled
            } else {
                &counters.inline
            };
            count.fetch_add(1, Ordering::Relaxed);
        }
        if pool_small {
            // Each pool task runs under its own quarantine guard, so a
            // poison batch-mate marks only itself (a flag per index) and
            // never unwinds a pool worker.
            let poisoned: Vec<AtomicBool> = small.iter().map(|_| AtomicBool::new(false)).collect();
            self.ctx.run_tasks(small.len(), |i| {
                if matches!(execute(self, &small[i]), Disposition::Poisoned) {
                    poisoned[i].store(true, Ordering::Relaxed);
                }
            });
            for (req, flag) in small.into_iter().zip(&poisoned) {
                if flag.load(Ordering::Relaxed) {
                    self.handle_poison(req);
                }
            }
        } else {
            self.run_serial(small);
        }
        self.run_serial(large);
    }

    /// Run `reqs` one at a time on this scheduler thread. The pending
    /// remainder is held in an [`Undispatched`] guard: if a chaos kill
    /// (or any future defect) unwinds this thread mid-batch, the guard's
    /// drop re-enqueues what was drained but not yet executed, so the
    /// respawned scheduler picks it up and no request is silently lost.
    fn run_serial(&self, reqs: Vec<Request>) {
        let mut pending = Undispatched {
            core: self,
            reqs: VecDeque::from(reqs),
        };
        while let Some(req) = pending.reqs.pop_front() {
            if matches!(execute(self, &req), Disposition::Poisoned) {
                self.handle_poison(req);
            }
        }
    }

    /// One execution of `req` panicked (and was caught). Requeue the
    /// suspect for an isolated re-run, or — at the quarantine threshold,
    /// or if its shard queue has no space — fail it alone with
    /// [`ServeError::Quarantined`]. Deliberately *not*
    /// [`settle_failure`]: a poison request says nothing about hardware
    /// fault health, so the tenant's breaker and the degraded-mode streak
    /// are left untouched. The failure is an `exec_error`, keeping the
    /// tenant's conservation law exact.
    fn handle_poison(&self, mut req: Request) {
        req.poison_attempts += 1;
        let attempts = req.poison_attempts;
        let quarantine = |req: Request| {
            req.tenant
                .record_exec_error(ns(req.enqueued, Instant::now()), 0, 0);
            req.work.reject(ServeError::Quarantined { attempts });
        };
        if attempts >= QUARANTINE_ATTEMPTS {
            quarantine(req);
        } else if let Err((req, _)) = self.shared.set.push(self.index, req, false) {
            quarantine(req);
        }
    }
}

/// Holds the drained-but-not-yet-executed tail of a serial batch; its
/// drop re-enqueues the remainder if the scheduler thread unwinds. On
/// the normal path the deque is empty by drop time and this is a no-op.
struct Undispatched<'a> {
    core: &'a ShardCore,
    reqs: VecDeque<Request>,
}

impl Drop for Undispatched<'_> {
    fn drop(&mut self) {
        while let Some(req) = self.reqs.pop_front() {
            // `record_submitted` already ran at admission; a plain
            // re-push keeps the accounting untouched. If the queue has
            // no space (or shutdown raced us), settle as a rejection so
            // the ticket resolves and the conservation law holds.
            if let Err((req, e)) = self.core.shared.set.push(self.core.index, req, false) {
                req.tenant.record_rejected();
                req.work.reject(e);
            }
        }
    }
}

/// Saturating elapsed nanoseconds from `from` to `to`.
fn ns(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

/// How one request's in-service time splits across attempts.
#[derive(Default, Clone, Copy)]
struct AttemptTimes {
    /// Wall time of the final attempt only (successful or not), ns.
    exec_ns: u64,
    /// Wall time of every earlier failed attempt plus the backoff sleeps
    /// between attempts, ns.
    retry_ns: u64,
}

/// The fault telemetry a failed attempt carries in its error — exactly
/// what the driver recorded into the context counters for it.
fn failed_faults(e: &M3xuError) -> Option<FaultSummary> {
    match *e {
        M3xuError::FaultDetected {
            detected,
            corrected,
            retries,
            ..
        } => Some(FaultSummary {
            detected,
            corrected,
            retries,
        }),
        _ => None,
    }
}

/// Run `call` under the retry policy: re-execute on
/// [`M3xuError::FaultDetected`] (with exponential backoff) up to
/// `max_retries` extra times, absorbing each failed attempt's fault
/// telemetry (a successful attempt reports its own, in its result). Each
/// attempt is timed individually: only the final attempt lands in
/// `exec_ns`, everything before it (failed attempts and backoffs) in
/// `retry_ns`.
fn run_with_retries<T>(
    policy: &ExecPolicy,
    mut call: impl FnMut() -> Result<T, M3xuError>,
) -> (Result<T, M3xuError>, FaultSummary, AttemptTimes) {
    let mut failed = FaultSummary::default();
    let mut times = AttemptTimes::default();
    let mut attempt = 0u32;
    loop {
        let t0 = Instant::now();
        let out = call();
        let attempt_ns = ns(t0, Instant::now());
        if let Err(e) = &out {
            if let Some(s) = failed_faults(e) {
                failed.absorb(s);
                if attempt < policy.max_retries {
                    // This attempt failed and will be retried: its time
                    // (and the backoff) is retry overhead.
                    times.retry_ns += attempt_ns;
                    let backoff = policy.retry_backoff * 2u32.saturating_pow(attempt);
                    if !backoff.is_zero() {
                        let b0 = Instant::now();
                        std::thread::sleep(backoff);
                        times.retry_ns += ns(b0, Instant::now());
                    }
                    attempt += 1;
                    continue;
                }
            }
        }
        // Terminal attempt: it is the request's execution time.
        times.exec_ns = attempt_ns;
        return (out, failed, times);
    }
}

/// Run `call` against the home shard's context under the retry policy,
/// then — if the terminal error is still [`M3xuError::FaultDetected`] —
/// hedge once on a sibling shard's context before giving up. A different
/// shard means a different worker pool and a different fault-plan salt,
/// so a fault pattern that is somehow sticky on the home shard gets one
/// independent roll elsewhere. With a single shard there is no sibling
/// and the retry result stands. The hedged attempt's telemetry is
/// absorbed like any retry: its work lands in the *sibling's*
/// `ExecStats` and the tenant's counters, so cross-shard reconciliation
/// still balances.
fn run_hedged<T>(
    shard: &ShardCore,
    mut call: impl FnMut(&M3xuContext) -> Result<T, M3xuError>,
) -> (Result<T, M3xuError>, FaultSummary, AttemptTimes) {
    let (out, mut failed, mut times) = run_with_retries(&shard.shared.policy, || call(&shard.ctx));
    let n = shard.shared.contexts.len();
    if n < 2 || !matches!(out, Err(M3xuError::FaultDetected { .. })) {
        return (out, failed, times);
    }
    let sibling = &shard.shared.contexts[(shard.index + 1) % n];
    // The home shard's terminal attempt becomes retry overhead; the
    // hedged attempt is now the request's final execution.
    times.retry_ns += times.exec_ns;
    let t0 = Instant::now();
    let hedged = call(sibling);
    times.exec_ns = ns(t0, Instant::now());
    if let Some(s) = hedged.as_ref().err().and_then(failed_faults) {
        failed.absorb(s);
    }
    (hedged, failed, times)
}

/// A request executed successfully but past its deadline: classify it
/// `deadline_missed` while still attributing the executed work, then
/// resolve the ticket with the post-completion lateness. Returns `true`
/// if the deadline was missed (the caller then skips the completion
/// path).
fn settle_post_deadline(
    req: &Request,
    reject: impl FnOnce(ServeError),
    mode: MxuMode,
    stats: &m3xu_mxu::mma::MmaStats,
    operand_bytes: u64,
    wait_ns: u64,
    times: AttemptTimes,
) -> bool {
    let done = Instant::now();
    match req.deadline {
        Some(deadline) if done > deadline => {
            let late_ns = ns(deadline, done);
            req.tenant.record_deadline_missed_executed(
                mode,
                stats,
                operand_bytes,
                wait_ns,
                times.exec_ns,
                times.retry_ns,
            );
            reject(ServeError::Deadline { late_ns });
            true
        }
        _ => false,
    }
}

/// How one guarded execution of a request ended, as seen by the
/// dispatch loop.
pub(crate) enum Disposition {
    /// The request settled: its ticket was resolved and its tenant
    /// account recorded an outcome (success, typed error, or deadline).
    Settled,
    /// The execution panicked and the quarantine guard caught it; the
    /// ticket is still unresolved and the caller owns the next step
    /// ([`ShardCore::handle_poison`]).
    Poisoned,
}

/// Execute one request on the shard's context under the quarantine
/// guard, record the outcome into its tenant account, and resolve its
/// ticket. Runs either inside a pool task (pooled small path) or on the
/// shard thread (serial small path, large path, degraded mode). A panic
/// inside the execution is caught and reported as
/// [`Disposition::Poisoned`] — except the chaos suite's deliberate
/// [`ShardKill`], which is re-thrown so it takes the scheduler thread
/// down (the watchdog's job to heal).
pub(crate) fn execute(shard: &ShardCore, req: &Request) -> Disposition {
    match catch_unwind(AssertUnwindSafe(|| execute_inner(shard, req))) {
        Ok(()) => Disposition::Settled,
        Err(payload) => {
            if payload.downcast_ref::<ShardKill>().is_some() {
                resume_unwind(payload);
            }
            Disposition::Poisoned
        }
    }
}

/// The unguarded execution body: one arm for the GEMM family, one for the
/// FFT and the chaos hook.
fn execute_inner(shard: &ShardCore, req: &Request) {
    let core = &*shard.shared;
    let started = Instant::now();
    let wait_ns = ns(req.enqueued, started);
    // Pre-execution deadline check: the batch-level shed happens at drain
    // time, but a deadline can expire between drain and this task's turn
    // on a worker. An expired request must never reach the kernels.
    if let Some(deadline) = req.deadline {
        if started > deadline {
            req.tenant.record_deadline_missed(wait_ns);
            req.work.reject(ServeError::Deadline {
                late_ns: ns(deadline, started),
            });
            return;
        }
    }
    match &req.work {
        Work::Gemm(job) => job.execute(shard, req, wait_ns),
        Work::Fft { x, reply } => {
            // The FFT's internal CGEMMs run checked (and are retried and
            // hedged here on FaultDetected), but their summaries stay
            // context-level: the tenant-facing summary of an FFT is zero
            // by design.
            let (out, _, times) = run_hedged(shard, |ctx| ctx.try_gemm_fft(x));
            match out {
                Ok((y, stats)) => {
                    settle_success(core, req);
                    // FFT operand traffic is internal to its CGEMM
                    // decomposition; it is visible in the context's
                    // ExecStats but not attributed per tenant.
                    if settle_post_deadline(
                        req,
                        |e| drop(reply.try_send(Err(e))),
                        MxuMode::M3xuFp32c,
                        &stats,
                        0,
                        wait_ns,
                        times,
                    ) {
                        return;
                    }
                    req.tenant.record_completed(
                        MxuMode::M3xuFp32c,
                        &stats,
                        0,
                        wait_ns,
                        times.exec_ns,
                        times.retry_ns,
                    );
                    drop(reply.try_send(Ok((y, stats))));
                }
                Err(e) => {
                    req.tenant
                        .record_exec_error(wait_ns, times.exec_ns, times.retry_ns);
                    settle_failure(core, req, &e);
                    drop(reply.try_send(Err(e.into())));
                }
            }
        }
        Work::Chaos { kind, reply } => match kind {
            ChaosKind::Panic => panic!("chaos: poison request"),
            ChaosKind::KillShard => {
                // Settle the request *before* dying — completed, zero MXU
                // work — so the tenant's conservation law survives the
                // kill; then throw the marker the quarantine guard lets
                // through, taking the scheduler thread down.
                settle_success(core, req);
                req.tenant.record_completed(
                    MxuMode::M3xuFp32,
                    &m3xu_mxu::mma::MmaStats::default(),
                    0,
                    wait_ns,
                    0,
                    0,
                );
                drop(reply.try_send(Ok(())));
                std::panic::panic_any(ShardKill);
            }
        },
    }
}

impl<T: Send + 'static> GemmWork for GemmJob<T> {
    fn tiles(&self) -> usize {
        self.tiles
    }

    fn reject(&self, err: ServeError) {
        drop(self.reply.try_send(Err(err)));
    }

    fn execute(&self, shard: &ShardCore, req: &Request, wait_ns: u64) {
        let (out, failed, times) = run_hedged(shard, &self.run);
        settle_gemm_outcome(shard, req, &self.reply, wait_ns, out, failed, times);
    }
}

/// The one settlement path of the GEMM family: absorb fault telemetry,
/// classify completed vs post-deadline, bill the
/// tenant the result's mode, statistics and operand bytes — what the
/// driver recorded — and resolve the ticket. `failed` holds the faults of
/// the failed attempts; a successful one brings its own in `r.faults`.
fn settle_gemm_outcome<T>(
    shard: &ShardCore,
    req: &Request,
    reply: &SyncSender<Result<GemmResult<T>, ServeError>>,
    wait_ns: u64,
    out: Result<GemmResult<T>, M3xuError>,
    mut faults: FaultSummary,
    times: AttemptTimes,
) {
    let core = &*shard.shared;
    if let Ok(r) = &out {
        faults.absorb(r.faults);
    }
    req.tenant.record_faults(&faults);
    match out {
        Ok(r) => {
            settle_success(core, req);
            if settle_post_deadline(
                req,
                |e| drop(reply.try_send(Err(e))),
                r.mode,
                &r.stats,
                r.operand_bytes,
                wait_ns,
                times,
            ) {
                return;
            }
            req.tenant.record_completed(
                r.mode,
                &r.stats,
                r.operand_bytes,
                wait_ns,
                times.exec_ns,
                times.retry_ns,
            );
            drop(reply.try_send(Ok(r)));
        }
        Err(e) => {
            req.tenant
                .record_exec_error(wait_ns, times.exec_ns, times.retry_ns);
            settle_failure(core, req, &e);
            drop(reply.try_send(Err(e.into())));
        }
    }
}

/// A request retired successfully: reset the tenant's breaker streak and
/// the service-wide degraded-mode streak. (A post-deadline miss still
/// counts as an execution success for fault-health purposes — the
/// hardware did its job.)
fn settle_success(core: &SharedSched, req: &Request) {
    req.tenant.breaker_success();
    core.fault_streak.store(0, Ordering::Relaxed);
}

/// A request exhausted its attempts: advance the fault streaks if (and
/// only if) the terminal error was a fault detection — shape errors and
/// the like say nothing about hardware health.
fn settle_failure(core: &SharedSched, req: &Request, e: &M3xuError) {
    if matches!(e, M3xuError::FaultDetected { .. }) {
        core.fault_streak.fetch_add(1, Ordering::Relaxed);
        req.tenant.breaker_failure(
            core.policy.breaker_threshold,
            core.policy.breaker_cooldown,
            Instant::now(),
        );
    }
}
