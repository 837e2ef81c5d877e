//! A multi-tenant serving layer over sharded M3XU execution contexts.
//!
//! The kernels crate answers "how do we compute an FP32/FP32C GEMM on a
//! low-precision MXU"; this crate answers "how do many clients share the
//! emulated MXUs". [`M3xuServe`] owns N shards — each an [`M3xuContext`]
//! (worker pool + counter sink), a bounded priority queue, and a
//! scheduler thread — plus tenant-affine routing between them:
//!
//! * **admission** — each op has one submission pair:
//!   [`M3xuServe::try_submit_gemm_f32`] and friends reject with typed
//!   [`ServeError::QueueFull`] when the routed shard's queue is at
//!   capacity; the `submit_*` forms block for space instead. Either
//!   returns a [`Ticket`]: `submit_*(..)?.wait()` is the
//!   submit-and-wait call.
//!   Admission layers three sheds: a per-tenant circuit breaker
//!   ([`ServeError::BreakerOpen`]), a per-tenant token-bucket
//!   [`RateLimit`] ([`ServeError::RateLimited`]), and queue
//!   backpressure. Requests may carry a deadline and a [`Priority`]
//!   class; the scheduler drops expired requests with
//!   [`ServeError::Deadline`] — including ones that finished executing
//!   past their deadline, which are classified `deadline_missed`, never
//!   `completed`.
//! * **routing** — a tenant hashes (FNV-1a) to one shard, so a tenant's
//!   requests drain FIFO within their priority class on one context. An
//!   idle shard *steals* queued work from loaded siblings, so hot-tenant
//!   skew cannot strand capacity.
//! * **scheduling** — each shard batches *adaptively*
//!   ([`BatchPolicy::Adaptive`]): drained small requests are folded into
//!   a single worker-pool epoch only when the batch is cache-resident
//!   (pooling then amortises per-request scheduling overhead at any
//!   parallelism) — a batch of big GEMMs never pools, the exact
//!   regression unconditional batching produced. Large requests run one
//!   at a time so the kernel's tile-wise sharding spreads each across
//!   the whole pool. Every path
//!   makes exactly the calls a direct [`M3xuContext`] user would, so
//!   served results are **bit-identical** to unserved ones — a property
//!   the workspace's differential tests assert.
//! * **precision dial** — every real GEMM request carries a
//!   [`GemmPrecision`] argument, spanning the emulated family from
//!   `Fp16` through the truncated `Fp32Fast` schedule to true FP32. The
//!   `*_gemm_f64` submission pair serves `Fp64Emulated` problems (5-slice
//!   Ozaki FP64 on the same low-precision MXU) through the same queues,
//!   batching, and stealing as everything else.
//! * **accounting** — every outcome is recorded into the submitting
//!   tenant's [`TenantStats`]: request counts by disposition, MMA
//!   instructions and steps, rule-(c) operand bytes (for the GEMM
//!   family, exactly the mode, statistics, bytes and faults its
//!   [`GemmResult`] reports), queue wait,
//!   execution wall time (final attempt only), and retry time — plus a
//!   per-mode [`ModeUsage`] split ([`TenantStats::mode`]) so each
//!   tenant's bill shows *which* precision burned the MXU. Summed over
//!   tenants these reproduce the summed per-shard [`ExecStats`] totals —
//!   flat and per mode — at every shard count.
//! * **fault tolerance** — arming [`ServeConfig::fault_plan`] routes
//!   *every* submittable operation — GEMM across the whole precision
//!   dial (`Fp16` through `Fp64Emulated`), CGEMM, the op-GEMMs, and the
//!   triangular BLAS-3 surface (SYRK/HERK/SYMM/HEMM) — through its
//!   ABFT-checked self-healing driver. Requests that still fail with
//!   `FaultDetected` are retried with exponential backoff
//!   ([`ServeConfig::max_retries`]), then *hedged* once on a sibling
//!   shard's context before the error (which names the failing op and
//!   mode) reaches the client; tenants with a failure streak trip a
//!   per-tenant circuit breaker ([`ServeError::BreakerOpen`] at
//!   admission); a service-wide streak switches scheduling into a
//!   degraded serial mode until a request succeeds. Fault telemetry
//!   lands in both [`TenantStats`] and the shards' [`ExecStats`].
//! * **self-healing shards** — a watchdog thread detects a shard
//!   scheduler that died outside shutdown and respawns it on the same
//!   context; the shard's queue lives in shared state, so queued
//!   requests survive and the per-tenant conservation law (`submitted ==
//!   completed + rejected + deadline_missed + exec_errors`) holds across
//!   the death. A *poison* request — one that panics its worker — is
//!   caught, re-run alone, and after a bounded number of attempts failed
//!   with [`ServeError::Quarantined`] without tripping its tenant's
//!   breaker.
//!
//! ```
//! use m3xu_serve::{M3xuServe, ServeConfig, SubmitOpts};
//! use m3xu_kernels::gemm::GemmPrecision;
//! use m3xu_mxu::matrix::Matrix;
//!
//! let serve = M3xuServe::new(ServeConfig { workers: 2, ..ServeConfig::default() });
//! let a = Matrix::<f32>::random(32, 32, 1);
//! let b = Matrix::<f32>::random(32, 32, 2);
//! let c = Matrix::<f32>::zeros(32, 32);
//! let ticket = serve
//!     .try_submit_gemm_f32("alice", GemmPrecision::M3xuFp32, a, b, c, SubmitOpts::default())
//!     .unwrap();
//! let result = ticket.wait().unwrap();
//! assert_eq!(result.d.rows(), 32);
//! assert_eq!(serve.tenant_stats("alice").unwrap().completed, 1);
//!
//! // The precision dial: the same service serves emulated-FP64 GEMMs,
//! // and the result reports the mode and operand bytes it was billed.
//! let a64 = Matrix::<f64>::random_f64(16, 16, 3);
//! let b64 = Matrix::<f64>::random_f64(16, 16, 4);
//! let c64 = Matrix::<f64>::zeros(16, 16);
//! let d = serve
//!     .submit_gemm_f64("alice", a64, b64, c64, SubmitOpts::default())
//!     .and_then(|t| t.wait())
//!     .unwrap();
//! assert_eq!(d.d.rows(), 16);
//! assert_eq!(d.mode, m3xu_mxu::modes::MxuMode::M3xuFp64Emu);
//! ```

#![deny(missing_docs)]

mod error;
pub mod openloop;
mod queue;
mod scheduler;
mod tenant;

pub use error::ServeError;
pub use queue::Priority;
pub use tenant::{ModeUsage, RateLimit, TenantStats};

// The types that cross the service boundary, re-exported so clients can
// depend on `m3xu-serve` alone.
pub use m3xu_fp::C32;
pub use m3xu_kernels::blas3::Side;
pub use m3xu_kernels::context::{ExecStats, M3xuContext};
pub use m3xu_kernels::gemm::{GemmPrecision, GemmResult};
pub use m3xu_kernels::{FaultPlan, FaultSummary};
pub use m3xu_mxu::matrix::{MatOp, Triangle};
pub use m3xu_mxu::mma::MmaStats;

use crate::queue::{grid_tiles, triangle_tiles, GemmJob, Request, ShardSet, Work};
use crate::scheduler::{BatchCounters, ExecPolicy, ShardCore, SharedSched};
use crate::tenant::TenantRegistry;
use m3xu_mxu::error::M3xuError;
use m3xu_mxu::matrix::Matrix;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[doc(hidden)]
pub use queue::ChaosKind;

/// When does a shard fold a drained batch of small requests into one
/// worker-pool epoch instead of running them back to back on its own
/// thread?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchPolicy {
    /// Batch when the drained batch holds two or more requests and is
    /// cache-resident, every request at most 256 output tiles (one
    /// pooled epoch amortises the per-request scheduling overhead serial
    /// dispatch pays; a batch of big GEMMs would thrash and runs
    /// inline). The production default.
    #[default]
    Adaptive,
    /// Always pool drained batches — the pre-adaptive behaviour; the
    /// differential tests use it to pin the pooled path.
    Always,
    /// Never pool; every request runs inline on its shard thread (the
    /// kernel still spreads *large* requests across the pool).
    Never,
}

/// How one shard scheduler dispatched the batches it drained
/// ([`M3xuServe::batch_counts`]). A batch is two or more requests drained
/// together, counted once deadline-expired ones are shed; a lone request
/// has nothing to batch and counts in neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchCounts {
    /// Batches whose small requests ran as one worker-pool epoch.
    pub pooled: u64,
    /// Batches run inline, one request after another on the scheduler
    /// thread (each kernel still sharded across the pool).
    pub inline: u64,
}

/// Construction-time policy for [`M3xuServe`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shard count: independent contexts + queues + scheduler threads
    /// with tenant-affine routing between them. `0` is treated as `1`.
    pub shards: usize,
    /// Worker threads for *each shard's* private pool; `0` shares the
    /// process-wide pool (whose size `M3XU_THREADS` fixes at first use)
    /// across all shards.
    pub workers: usize,
    /// Bounded queue capacity *per shard*; `try_submit_*` rejects past
    /// it.
    pub queue_capacity: usize,
    /// Most requests a shard drains (or steals) per batch.
    pub max_batch: usize,
    /// Output-tile threshold between the small path (`<=`, whole request
    /// as one unit, pooled or inline per [`BatchPolicy`]) and the sharded
    /// path (`>`, kernel spreads its tiles across the pool). The default,
    /// 4096 tiles, classes anything up to a 512x512 output as small.
    pub shard_tiles: usize,
    /// Small-batch dispatch policy; see [`BatchPolicy`].
    pub batching: BatchPolicy,
    /// Default per-tenant admission rate limit; `None` (the default)
    /// admits freely. Individual tenants can be overridden with
    /// [`M3xuServe::set_rate_limit`].
    pub rate_limit: Option<RateLimit>,
    /// Fault-injection plan armed on every shard's context. `None` (the
    /// default) keeps the production drivers: zero checksum work,
    /// bit-identical results. Arming a plan routes every GEMM precision
    /// and the whole BLAS-3 surface through the ABFT-checked
    /// self-healing drivers and activates the retry / hedging / breaker
    /// / degraded-mode machinery below.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Extra executions a request is granted after failing with
    /// `FaultDetected` (exponential backoff between attempts).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub retry_backoff: Duration,
    /// Consecutive fault-failed requests that trip a tenant's circuit
    /// breaker; `0` disables the breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker sheds that tenant's submissions with
    /// [`ServeError::BreakerOpen`].
    pub breaker_cooldown: Duration,
    /// Service-wide consecutive fault-failed requests that switch
    /// scheduling to degraded serial execution; `0` disables it.
    pub degraded_after: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 1,
            workers: 0,
            queue_capacity: 64,
            max_batch: 32,
            shard_tiles: 4096,
            batching: BatchPolicy::Adaptive,
            rate_limit: None,
            fault_plan: None,
            max_retries: 2,
            retry_backoff: Duration::from_micros(100),
            breaker_threshold: 4,
            breaker_cooldown: Duration::from_millis(250),
            degraded_after: 3,
        }
    }
}

/// Per-request submission options.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitOpts {
    /// Drop the request (with [`ServeError::Deadline`]) if it is still
    /// queued this long after submission — or if it *completes* later
    /// than this (an executed-but-late request counts as
    /// `deadline_missed`, with `late_ns` measured from completion).
    pub deadline: Option<Duration>,
    /// Queue-ordering class; see [`Priority`].
    pub priority: Priority,
}

/// A handle to one in-flight request's eventual result.
pub struct Ticket<T> {
    rx: Receiver<Result<T, ServeError>>,
}

impl<T> Ticket<T> {
    /// Block until the request resolves — with its result, a typed
    /// rejection, or [`ServeError::ShuttingDown`] if the service died
    /// without answering.
    pub fn wait(self) -> Result<T, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Non-blocking poll: `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<Result<T, ServeError>> {
        self.rx.try_recv().ok()
    }
}

/// The serving front end: submission API, shard scheduler threads,
/// execution contexts, and per-tenant accounting. Share it across client
/// threads by reference (or `Arc`); dropping it shuts the shards down,
/// rejecting anything still queued.
pub struct M3xuServe {
    contexts: Vec<Arc<M3xuContext>>,
    set: Arc<ShardSet>,
    registry: TenantRegistry,
    default_limit: Option<RateLimit>,
    /// One handle per shard, shared with the watchdog (which replaces a
    /// dead shard's handle with its respawn's).
    schedulers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    watchdog: Option<JoinHandle<()>>,
    /// Shard scheduler threads the watchdog has respawned so far.
    respawns: Arc<AtomicU64>,
    /// The schedulers' shared state, read for their batching counts.
    shared: Arc<SharedSched>,
}

/// How often the watchdog polls shard-scheduler liveness. Short enough
/// that a killed shard's queued requests stall only momentarily; long
/// enough that an idle service costs nothing measurable.
const WATCHDOG_PERIOD: Duration = Duration::from_millis(2);

/// Spawn (or respawn) the scheduler thread for shard `index`.
fn spawn_shard(
    index: usize,
    ctx: Arc<M3xuContext>,
    shared: Arc<SharedSched>,
) -> std::io::Result<JoinHandle<()>> {
    let core = ShardCore { index, ctx, shared };
    std::thread::Builder::new()
        .name(format!("m3xu-serve-shard{index}"))
        .spawn(move || core.run_loop())
}

/// The watchdog thread body: poll every shard scheduler's liveness and
/// respawn any that died outside shutdown. The shard's queue lives in
/// the shared [`ShardSet`], untouched by the death, so the respawned
/// scheduler resumes exactly where its predecessor stopped — including
/// any requests the dying thread re-enqueued on its way down.
fn watchdog_loop(
    set: Arc<ShardSet>,
    shared: Arc<SharedSched>,
    contexts: Vec<Arc<M3xuContext>>,
    handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
    respawns: Arc<AtomicU64>,
) {
    loop {
        std::thread::sleep(WATCHDOG_PERIOD);
        if set.is_shutdown() {
            return;
        }
        let mut hs = handles.lock().unwrap_or_else(|e| e.into_inner());
        for index in 0..hs.len() {
            if !hs[index].is_finished() || set.is_shutdown() {
                continue;
            }
            // On spawn failure (resource pressure) the dead handle stays
            // in place and the next tick retries.
            if let Ok(fresh) = spawn_shard(index, Arc::clone(&contexts[index]), Arc::clone(&shared))
            {
                // Reap the dead thread (dropping its panic payload) only
                // after its replacement is running.
                let dead = std::mem::replace(&mut hs[index], fresh);
                let _ = dead.join();
                respawns.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// FNV-1a over the tenant name — the shard router. Stable across runs,
/// so a tenant's affinity is deterministic.
fn tenant_shard(tenant: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tenant.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

impl M3xuServe {
    /// Build a service with `config` and start one scheduler thread per
    /// shard. Fails with [`ServeError::SpawnFailed`] — tearing down
    /// anything already started — if the OS refuses a thread.
    pub fn try_new(config: ServeConfig) -> Result<Self, ServeError> {
        let shards = config.shards.max(1);
        let mut contexts = Vec::with_capacity(shards);
        for _ in 0..shards {
            let mut ctx = if config.workers == 0 {
                M3xuContext::new()
            } else {
                M3xuContext::with_threads(config.workers)
            };
            if let Some(plan) = &config.fault_plan {
                ctx = ctx.with_fault_plan(Arc::clone(plan));
            }
            contexts.push(Arc::new(ctx));
        }
        let set = Arc::new(ShardSet::new(shards, config.queue_capacity));
        let shared = Arc::new(SharedSched {
            set: Arc::clone(&set),
            contexts: contexts.clone(),
            policy: ExecPolicy {
                max_retries: config.max_retries,
                retry_backoff: config.retry_backoff,
                breaker_threshold: config.breaker_threshold,
                breaker_cooldown: config.breaker_cooldown,
                degraded_after: config.degraded_after,
            },
            batching: config.batching,
            max_batch: config.max_batch.max(1),
            shard_tiles: config.shard_tiles.max(1),
            fault_streak: AtomicU32::new(0),
            batches: (0..shards).map(|_| BatchCounters::default()).collect(),
        });
        let mut schedulers = Vec::with_capacity(shards);
        // Tear down cleanly on any spawn failure: wake and join whatever
        // already started.
        let teardown = |set: &ShardSet, schedulers: Vec<JoinHandle<()>>, e: std::io::Error| {
            set.shutdown();
            for h in schedulers {
                let _ = h.join();
            }
            ServeError::SpawnFailed {
                reason: e.to_string(),
            }
        };
        for (index, ctx) in contexts.iter().enumerate() {
            match spawn_shard(index, Arc::clone(ctx), Arc::clone(&shared)) {
                Ok(h) => schedulers.push(h),
                Err(e) => return Err(teardown(&set, schedulers, e)),
            }
        }
        let schedulers = Arc::new(Mutex::new(schedulers));
        let respawns = Arc::new(AtomicU64::new(0));
        let watchdog = {
            let set2 = Arc::clone(&set);
            let shared2 = Arc::clone(&shared);
            let contexts2 = contexts.clone();
            let handles2 = Arc::clone(&schedulers);
            let respawns2 = Arc::clone(&respawns);
            std::thread::Builder::new()
                .name("m3xu-serve-watchdog".into())
                .spawn(move || watchdog_loop(set2, shared2, contexts2, handles2, respawns2))
        };
        let watchdog = match watchdog {
            Ok(h) => h,
            Err(e) => {
                let hs = std::mem::take(&mut *schedulers.lock().unwrap_or_else(|e| e.into_inner()));
                return Err(teardown(&set, hs, e));
            }
        };
        Ok(M3xuServe {
            contexts,
            set,
            registry: TenantRegistry::default(),
            default_limit: config.rate_limit,
            schedulers,
            watchdog: Some(watchdog),
            respawns,
            shared,
        })
    }

    /// [`M3xuServe::try_new`], panicking on the (construction-only)
    /// [`ServeError::SpawnFailed`].
    pub fn new(config: ServeConfig) -> Self {
        M3xuServe::try_new(config).unwrap_or_else(|e| panic!("M3xuServe::new: {e}"))
    }

    /// [`M3xuServe::new`] with a private `workers`-thread pool and default
    /// shard/queue/batch policy.
    pub fn with_workers(workers: usize) -> Self {
        M3xuServe::new(ServeConfig {
            workers,
            ..ServeConfig::default()
        })
    }

    // ---- submission ----------------------------------------------------

    fn push(
        &self,
        tenant: &str,
        opts: SubmitOpts,
        work: Work,
        blocking: bool,
    ) -> Result<(), ServeError> {
        let account = self.registry.account(tenant);
        account.record_submitted();
        let now = Instant::now();
        // Load shedding, cheapest check first: an open breaker rejects at
        // admission, before the request can occupy queue space; then the
        // token bucket. Both count as rejections, so the tenant's
        // conservation law is unaffected.
        if let Some(wait) = account.breaker_blocked(now) {
            account.record_rejected();
            return Err(ServeError::BreakerOpen {
                retry_after_ns: wait.as_nanos() as u64,
            });
        }
        if let Some(wait) = account.rate_check(now, self.default_limit) {
            account.record_rejected();
            return Err(ServeError::RateLimited {
                retry_after_ns: wait.as_nanos() as u64,
            });
        }
        let shard = tenant_shard(tenant, self.set.shard_count());
        let req = Request {
            tenant: account,
            enqueued: now,
            deadline: opts.deadline.map(|d| now + d),
            priority: opts.priority,
            poison_attempts: 0,
            work,
        };
        match self.set.push(shard, req, blocking) {
            Ok(()) => Ok(()),
            Err((req, e)) => {
                req.tenant.record_rejected();
                Err(e)
            }
        }
    }

    /// Enqueue a GEMM-family op writing `tiles` output tiles: `run` calls
    /// its typed [`M3xuContext`] method on whichever shard context
    /// executes it, and the [`GemmResult`] that call returns is what the
    /// tenant is billed.
    fn enqueue<T: Send + 'static>(
        &self,
        tenant: &str,
        opts: SubmitOpts,
        blocking: bool,
        tiles: usize,
        run: impl Fn(&M3xuContext) -> Result<GemmResult<T>, M3xuError> + Send + Sync + 'static,
    ) -> Result<Ticket<GemmResult<T>>, ServeError> {
        let (reply, rx) = sync_channel(1);
        let run = Box::new(run);
        let work = Work::Gemm(Box::new(GemmJob { tiles, run, reply }));
        self.push(tenant, opts, work, blocking)?;
        Ok(Ticket { rx })
    }

    /// Non-blocking submission of a real GEMM `D = A·B + C` in
    /// `precision`. Rejects with [`ServeError::QueueFull`] under
    /// backpressure; a precision whose element type does not match
    /// (`Fp64Emulated` here) resolves the ticket with a typed
    /// mode-mismatch [`ServeError::Exec`].
    pub fn try_submit_gemm_f32(
        &self,
        tenant: &str,
        precision: GemmPrecision,
        a: Matrix<f32>,
        b: Matrix<f32>,
        c: Matrix<f32>,
        opts: SubmitOpts,
    ) -> Result<Ticket<GemmResult<f32>>, ServeError> {
        self.enqueue(tenant, opts, false, grid_tiles(&c), move |ctx| {
            ctx.try_gemm_f32(precision, &a, &b, &c)
        })
    }

    /// [`M3xuServe::try_submit_gemm_f32`], but blocks for queue space
    /// instead of rejecting (fails only on shutdown).
    pub fn submit_gemm_f32(
        &self,
        tenant: &str,
        precision: GemmPrecision,
        a: Matrix<f32>,
        b: Matrix<f32>,
        c: Matrix<f32>,
        opts: SubmitOpts,
    ) -> Result<Ticket<GemmResult<f32>>, ServeError> {
        self.enqueue(tenant, opts, true, grid_tiles(&c), move |ctx| {
            ctx.try_gemm_f32(precision, &a, &b, &c)
        })
    }

    /// Non-blocking submission of an emulated-FP64 GEMM `D = A·B + C` in
    /// [`GemmPrecision::Fp64Emulated`] — the top of the precision dial.
    /// Rejects with [`ServeError::QueueFull`] under backpressure.
    pub fn try_submit_gemm_f64(
        &self,
        tenant: &str,
        a: Matrix<f64>,
        b: Matrix<f64>,
        c: Matrix<f64>,
        opts: SubmitOpts,
    ) -> Result<Ticket<GemmResult<f64>>, ServeError> {
        self.enqueue(tenant, opts, false, grid_tiles(&c), move |ctx| {
            ctx.try_gemm_f64(GemmPrecision::Fp64Emulated, &a, &b, &c)
        })
    }

    /// [`M3xuServe::try_submit_gemm_f64`], but blocks for queue space
    /// instead of rejecting (fails only on shutdown).
    pub fn submit_gemm_f64(
        &self,
        tenant: &str,
        a: Matrix<f64>,
        b: Matrix<f64>,
        c: Matrix<f64>,
        opts: SubmitOpts,
    ) -> Result<Ticket<GemmResult<f64>>, ServeError> {
        self.enqueue(tenant, opts, true, grid_tiles(&c), move |ctx| {
            ctx.try_gemm_f64(GemmPrecision::Fp64Emulated, &a, &b, &c)
        })
    }

    /// Non-blocking submission of a complex FP32C GEMM `D = A·B + C`.
    pub fn try_submit_cgemm_c32(
        &self,
        tenant: &str,
        a: Matrix<C32>,
        b: Matrix<C32>,
        c: Matrix<C32>,
        opts: SubmitOpts,
    ) -> Result<Ticket<GemmResult<C32>>, ServeError> {
        self.enqueue(tenant, opts, false, grid_tiles(&c), move |ctx| {
            ctx.try_cgemm_c32(&a, &b, &c)
        })
    }

    /// [`M3xuServe::try_submit_cgemm_c32`], blocking for queue space.
    pub fn submit_cgemm_c32(
        &self,
        tenant: &str,
        a: Matrix<C32>,
        b: Matrix<C32>,
        c: Matrix<C32>,
        opts: SubmitOpts,
    ) -> Result<Ticket<GemmResult<C32>>, ServeError> {
        self.enqueue(tenant, opts, true, grid_tiles(&c), move |ctx| {
            ctx.try_cgemm_c32(&a, &b, &c)
        })
    }

    // ---- BLAS-3 submission ---------------------------------------------

    /// Non-blocking submission of the general real op-GEMM
    /// `D = alpha·op(A)·op(B) + beta·C` in `precision`. Rejects with
    /// [`ServeError::QueueFull`] under backpressure.
    #[allow(clippy::too_many_arguments)]
    pub fn try_submit_gemm_op_f32(
        &self,
        tenant: &str,
        precision: GemmPrecision,
        op_a: MatOp,
        a: Matrix<f32>,
        op_b: MatOp,
        b: Matrix<f32>,
        alpha: f32,
        beta: f32,
        c: Matrix<f32>,
        opts: SubmitOpts,
    ) -> Result<Ticket<GemmResult<f32>>, ServeError> {
        self.enqueue(tenant, opts, false, grid_tiles(&c), move |ctx| {
            ctx.try_gemm_op_f32(precision, op_a, &a, op_b, &b, alpha, beta, &c)
        })
    }

    /// [`M3xuServe::try_submit_gemm_op_f32`], but blocks for queue space
    /// instead of rejecting (fails only on shutdown).
    #[allow(clippy::too_many_arguments)]
    pub fn submit_gemm_op_f32(
        &self,
        tenant: &str,
        precision: GemmPrecision,
        op_a: MatOp,
        a: Matrix<f32>,
        op_b: MatOp,
        b: Matrix<f32>,
        alpha: f32,
        beta: f32,
        c: Matrix<f32>,
        opts: SubmitOpts,
    ) -> Result<Ticket<GemmResult<f32>>, ServeError> {
        self.enqueue(tenant, opts, true, grid_tiles(&c), move |ctx| {
            ctx.try_gemm_op_f32(precision, op_a, &a, op_b, &b, alpha, beta, &c)
        })
    }

    /// Non-blocking submission of the complex op-GEMM
    /// `D = alpha·op(A)·op(B) + beta·C` on FP32C, where `op` may
    /// transpose and/or conjugate.
    #[allow(clippy::too_many_arguments)]
    pub fn try_submit_cgemm_op_c32(
        &self,
        tenant: &str,
        op_a: MatOp,
        a: Matrix<C32>,
        op_b: MatOp,
        b: Matrix<C32>,
        alpha: C32,
        beta: C32,
        c: Matrix<C32>,
        opts: SubmitOpts,
    ) -> Result<Ticket<GemmResult<C32>>, ServeError> {
        self.enqueue(tenant, opts, false, grid_tiles(&c), move |ctx| {
            ctx.try_cgemm_op_c32(op_a, &a, op_b, &b, alpha, beta, &c)
        })
    }

    /// [`M3xuServe::try_submit_cgemm_op_c32`], blocking for queue space.
    #[allow(clippy::too_many_arguments)]
    pub fn submit_cgemm_op_c32(
        &self,
        tenant: &str,
        op_a: MatOp,
        a: Matrix<C32>,
        op_b: MatOp,
        b: Matrix<C32>,
        alpha: C32,
        beta: C32,
        c: Matrix<C32>,
        opts: SubmitOpts,
    ) -> Result<Ticket<GemmResult<C32>>, ServeError> {
        self.enqueue(tenant, opts, true, grid_tiles(&c), move |ctx| {
            ctx.try_cgemm_op_c32(op_a, &a, op_b, &b, alpha, beta, &c)
        })
    }

    /// Non-blocking submission of the symmetric rank-k update
    /// `C := alpha·op(A)·op(A)^T + beta·C`, writing only `tri` — the
    /// kernel schedules roughly half the output tiles of the equivalent
    /// full GEMM.
    #[allow(clippy::too_many_arguments)]
    pub fn try_submit_syrk_f32(
        &self,
        tenant: &str,
        precision: GemmPrecision,
        tri: Triangle,
        op_a: MatOp,
        a: Matrix<f32>,
        alpha: f32,
        beta: f32,
        c: Matrix<f32>,
        opts: SubmitOpts,
    ) -> Result<Ticket<GemmResult<f32>>, ServeError> {
        self.enqueue(tenant, opts, false, triangle_tiles(&c), move |ctx| {
            ctx.try_syrk_f32(precision, tri, op_a, &a, alpha, beta, &c)
        })
    }

    /// [`M3xuServe::try_submit_syrk_f32`], blocking for queue space.
    #[allow(clippy::too_many_arguments)]
    pub fn submit_syrk_f32(
        &self,
        tenant: &str,
        precision: GemmPrecision,
        tri: Triangle,
        op_a: MatOp,
        a: Matrix<f32>,
        alpha: f32,
        beta: f32,
        c: Matrix<f32>,
        opts: SubmitOpts,
    ) -> Result<Ticket<GemmResult<f32>>, ServeError> {
        self.enqueue(tenant, opts, true, triangle_tiles(&c), move |ctx| {
            ctx.try_syrk_f32(precision, tri, op_a, &a, alpha, beta, &c)
        })
    }

    /// Non-blocking submission of the Hermitian rank-k update
    /// `C := alpha·op(A)·op(A)^H + beta·C` (real `alpha`/`beta`, `op`
    /// either `N` or `H`) on FP32C, writing only `tri` with an exactly
    /// real diagonal.
    #[allow(clippy::too_many_arguments)]
    pub fn try_submit_herk_c32(
        &self,
        tenant: &str,
        tri: Triangle,
        op_a: MatOp,
        a: Matrix<C32>,
        alpha: f32,
        beta: f32,
        c: Matrix<C32>,
        opts: SubmitOpts,
    ) -> Result<Ticket<GemmResult<C32>>, ServeError> {
        self.enqueue(tenant, opts, false, triangle_tiles(&c), move |ctx| {
            ctx.try_herk_c32(tri, op_a, &a, alpha, beta, &c)
        })
    }

    /// [`M3xuServe::try_submit_herk_c32`], blocking for queue space.
    #[allow(clippy::too_many_arguments)]
    pub fn submit_herk_c32(
        &self,
        tenant: &str,
        tri: Triangle,
        op_a: MatOp,
        a: Matrix<C32>,
        alpha: f32,
        beta: f32,
        c: Matrix<C32>,
        opts: SubmitOpts,
    ) -> Result<Ticket<GemmResult<C32>>, ServeError> {
        self.enqueue(tenant, opts, true, triangle_tiles(&c), move |ctx| {
            ctx.try_herk_c32(tri, op_a, &a, alpha, beta, &c)
        })
    }

    /// Non-blocking submission of the symmetric multiply
    /// `C := alpha·sym(A)·B + beta·C` (or `B·sym(A)` for
    /// [`Side::Right`]), with `sym(A)` read from the `tri` triangle of
    /// the square `A`.
    #[allow(clippy::too_many_arguments)]
    pub fn try_submit_symm_f32(
        &self,
        tenant: &str,
        precision: GemmPrecision,
        side: Side,
        tri: Triangle,
        a: Matrix<f32>,
        b: Matrix<f32>,
        alpha: f32,
        beta: f32,
        c: Matrix<f32>,
        opts: SubmitOpts,
    ) -> Result<Ticket<GemmResult<f32>>, ServeError> {
        self.enqueue(tenant, opts, false, grid_tiles(&c), move |ctx| {
            ctx.try_symm_f32(precision, side, tri, &a, &b, alpha, beta, &c)
        })
    }

    /// [`M3xuServe::try_submit_symm_f32`], blocking for queue space.
    #[allow(clippy::too_many_arguments)]
    pub fn submit_symm_f32(
        &self,
        tenant: &str,
        precision: GemmPrecision,
        side: Side,
        tri: Triangle,
        a: Matrix<f32>,
        b: Matrix<f32>,
        alpha: f32,
        beta: f32,
        c: Matrix<f32>,
        opts: SubmitOpts,
    ) -> Result<Ticket<GemmResult<f32>>, ServeError> {
        self.enqueue(tenant, opts, true, grid_tiles(&c), move |ctx| {
            ctx.try_symm_f32(precision, side, tri, &a, &b, alpha, beta, &c)
        })
    }

    /// Non-blocking submission of the Hermitian multiply
    /// `C := alpha·herm(A)·B + beta·C` (or `B·herm(A)` for
    /// [`Side::Right`]) on FP32C, with `herm(A)` reconstructed from the
    /// `tri` triangle of the square `A`.
    #[allow(clippy::too_many_arguments)]
    pub fn try_submit_hemm_c32(
        &self,
        tenant: &str,
        side: Side,
        tri: Triangle,
        a: Matrix<C32>,
        b: Matrix<C32>,
        alpha: C32,
        beta: C32,
        c: Matrix<C32>,
        opts: SubmitOpts,
    ) -> Result<Ticket<GemmResult<C32>>, ServeError> {
        self.enqueue(tenant, opts, false, grid_tiles(&c), move |ctx| {
            ctx.try_hemm_c32(side, tri, &a, &b, alpha, beta, &c)
        })
    }

    /// [`M3xuServe::try_submit_hemm_c32`], blocking for queue space.
    #[allow(clippy::too_many_arguments)]
    pub fn submit_hemm_c32(
        &self,
        tenant: &str,
        side: Side,
        tri: Triangle,
        a: Matrix<C32>,
        b: Matrix<C32>,
        alpha: C32,
        beta: C32,
        c: Matrix<C32>,
        opts: SubmitOpts,
    ) -> Result<Ticket<GemmResult<C32>>, ServeError> {
        self.enqueue(tenant, opts, true, grid_tiles(&c), move |ctx| {
            ctx.try_hemm_c32(side, tri, &a, &b, alpha, beta, &c)
        })
    }

    /// Non-blocking submission of a GEMM-formulated FFT of `x` (length
    /// must satisfy the kernel's power-of-two contract).
    pub fn try_submit_fft(
        &self,
        tenant: &str,
        x: Vec<C32>,
        opts: SubmitOpts,
    ) -> Result<Ticket<(Vec<C32>, MmaStats)>, ServeError> {
        let (reply, rx) = sync_channel(1);
        self.push(tenant, opts, Work::Fft { x, reply }, false)?;
        Ok(Ticket { rx })
    }

    /// [`M3xuServe::try_submit_fft`], blocking for queue space.
    pub fn submit_fft(
        &self,
        tenant: &str,
        x: Vec<C32>,
        opts: SubmitOpts,
    ) -> Result<Ticket<(Vec<C32>, MmaStats)>, ServeError> {
        let (reply, rx) = sync_channel(1);
        self.push(tenant, opts, Work::Fft { x, reply }, true)?;
        Ok(Ticket { rx })
    }

    /// Test-only chaos hook: submit a request that misbehaves on the
    /// shard executing it ([`ChaosKind::Panic`] exercises the poison
    /// quarantine, [`ChaosKind::KillShard`] the watchdog respawn). The
    /// chaos suites are the only intended caller.
    #[doc(hidden)]
    pub fn inject_chaos(
        &self,
        tenant: &str,
        kind: ChaosKind,
        opts: SubmitOpts,
    ) -> Result<Ticket<()>, ServeError> {
        let (reply, rx) = sync_channel(1);
        self.push(tenant, opts, Work::Chaos { kind, reply }, false)?;
        Ok(Ticket { rx })
    }

    /// Stop the service: flags shutdown, wakes every submitter parked in
    /// a blocking `submit_*` call (they fail with
    /// [`ServeError::ShuttingDown`]), and lets each shard sweep its
    /// still-queued requests with the same error. Idempotent; dropping
    /// the service calls this implicitly and then joins the shards.
    pub fn shutdown(&self) {
        self.set.shutdown();
    }

    // ---- tenant policy -------------------------------------------------

    /// Override one tenant's admission rate limit: `Some(l)` enforces
    /// `l`, `None` makes the tenant explicitly unlimited — either way the
    /// service-wide [`ServeConfig::rate_limit`] default no longer applies
    /// to it.
    pub fn set_rate_limit(&self, tenant: &str, limit: Option<RateLimit>) {
        self.registry.account(tenant).set_rate_limit(limit);
    }

    // ---- observability -------------------------------------------------

    /// Cumulative [`ExecStats`] summed over every shard's context (see
    /// the relaxed-ordering caveat for snapshots under concurrency).
    pub fn exec_stats(&self) -> ExecStats {
        let mut total = ExecStats::default();
        for ctx in &self.contexts {
            total = total.merged(&ctx.stats());
        }
        total
    }

    /// Number of shards (contexts / queues / scheduler threads).
    pub fn shard_count(&self) -> usize {
        self.contexts.len()
    }

    /// Shard scheduler threads the watchdog has respawned after dying
    /// outside shutdown. `0` on a healthy service; the self-healing
    /// suites use it to confirm a deliberate kill was repaired.
    pub fn respawn_count(&self) -> u64 {
        self.respawns.load(Ordering::Relaxed)
    }

    /// One shard's cumulative [`ExecStats`]; `None` past the shard count.
    pub fn shard_stats(&self, shard: usize) -> Option<ExecStats> {
        self.contexts.get(shard).map(|c| c.stats())
    }

    /// How shard `shard`'s scheduler has dispatched the batches it
    /// drained so far: pooled into one epoch, or run inline; `None` past
    /// the shard count.
    pub fn batch_counts(&self, shard: usize) -> Option<BatchCounts> {
        self.shared.batches.get(shard).map(BatchCounters::snapshot)
    }

    /// The shard `tenant` routes to.
    pub fn shard_of(&self, tenant: &str) -> usize {
        tenant_shard(tenant, self.contexts.len())
    }

    /// One tenant's accounting; `None` if it has never submitted.
    pub fn tenant_stats(&self, tenant: &str) -> Option<TenantStats> {
        self.registry.snapshot(tenant)
    }

    /// Every tenant name seen so far, sorted.
    pub fn tenants(&self) -> Vec<String> {
        self.registry.names()
    }

    /// Accounting summed over every tenant.
    pub fn total_stats(&self) -> TenantStats {
        self.registry.totals()
    }

    /// Requests currently queued across all shards (not yet drained by a
    /// scheduler).
    pub fn queue_len(&self) -> usize {
        self.set.len()
    }

    /// The bounded per-shard queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.set.shard(0).capacity()
    }

    /// Worker threads each shard's execution context runs on.
    pub fn workers(&self) -> usize {
        self.contexts[0].threads()
    }

    /// Shard 0's execution context — for metering (`delta_since`
    /// regions) or for direct calls that bypass queueing and per-tenant
    /// accounting (that shard's counters still record them). With
    /// multiple shards, prefer [`M3xuServe::shard_stats`] /
    /// [`M3xuServe::exec_stats`] for observability.
    pub fn context(&self) -> &M3xuContext {
        &self.contexts[0]
    }
}

impl Drop for M3xuServe {
    fn drop(&mut self) {
        self.set.shutdown();
        // Join the watchdog first so no respawn races the final joins.
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
        let mut hs = self.schedulers.lock().unwrap_or_else(|e| e.into_inner());
        for h in hs.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod router_tests {
    use super::tenant_shard;

    #[test]
    fn routing_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 8] {
            for t in ["alice", "bob", "tenant-00017", ""] {
                let s = tenant_shard(t, shards);
                assert!(s < shards);
                assert_eq!(s, tenant_shard(t, shards), "deterministic");
            }
        }
        // With one shard everything routes to it.
        assert_eq!(tenant_shard("anyone", 1), 0);
        // FNV actually spreads distinct tenants at 8 shards.
        let spread: std::collections::HashSet<usize> = (0..64)
            .map(|i| tenant_shard(&format!("tenant-{i}"), 8))
            .collect();
        assert!(spread.len() >= 4, "expected spread, got {spread:?}");
    }
}
