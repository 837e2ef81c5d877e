//! The execution context: one object that owns the worker-pool policy,
//! the reusable packed-operand scratch arena, and an always-on counter
//! sink for every kernel in this crate.
//!
//! The paper's evaluation (§V-B1) is instruction-count arithmetic — M3XU
//! FP32 issues exactly 2x, and FP32C exactly 4x, the MMAs of the FP16
//! kernel of the same shape. [`M3xuContext`] makes those counts an
//! observable artifact of *functional* execution: every GEMM routed
//! through a context records its MMA instructions and steps per mode,
//! fragment and tile counts, operand traffic bytes, and per-phase wall
//! time into [`ExecStats`], which `m3xu_gpu`'s `validate` module can then
//! check against the analytical kernel model for the same problem.
//!
//! Each GEMM-family op — GEMM at every precision, CGEMM, the op-GEMMs,
//! SYRK/HERK and SYMM/HEMM — has exactly one entry point here, a fallible
//! `try_*` method whose [`GemmResult`] reports the call's mode, operand
//! bytes and fault summary. Callers without a context of their own use
//! the process-wide [`default_context`], which resolves `M3XU_THREADS`
//! exactly once; panicking forms exist only at the `m3xu` facade.
//!
//! Every kernel module lowers to the two GEMM flavours of the
//! [`GemmExecutor`] trait, so a context (or any custom executor) can be
//! threaded through the FFT levels, the convolution lowerings, the CG
//! solver, and the rest via the `*_on` entry points.

use crate::blas3::Side;
use crate::gemm::{self, Call, GemmPrecision, GemmResult, OutRegion};
use crate::pool::{self, WorkerPool};
use crate::{conv2d, conv_grad, fft, knn, poly, solver};
use m3xu_fp::complex::Complex;
use m3xu_mxu::dpu::DotProductUnit;
use m3xu_mxu::error::M3xuError;
use m3xu_mxu::fault::{FaultPlan, FaultSummary};
use m3xu_mxu::matrix::{MatOp, Matrix, MirrorView, OpView, Triangle};
use m3xu_mxu::mma::MmaStats;
use m3xu_mxu::modes::MxuMode;
use m3xu_mxu::packed::PackedStorage;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

type C32 = Complex<f32>;

/// Number of execution modes the per-mode counter arrays cover.
pub(crate) const MODE_COUNT: usize = MxuMode::ALL.len();

/// Index of `mode` into per-mode counter arrays — the declaration order
/// of [`MxuMode::ALL`].
fn mode_index(mode: MxuMode) -> usize {
    match mode {
        MxuMode::Fp16 => 0,
        MxuMode::Bf16 => 1,
        MxuMode::Tf32 => 2,
        MxuMode::M3xuFp32 => 3,
        MxuMode::M3xuFp32Fast => 4,
        MxuMode::M3xuFp32c => 5,
        MxuMode::M3xuFp64 => 6,
        MxuMode::M3xuFp64Emu => 7,
        MxuMode::M3xuFp64c => 8,
    }
}

/// One GEMM's worth of accounting, recorded in a single sink visit.
pub(crate) struct GemmSample {
    /// Mode the GEMM executed in.
    pub mode: MxuMode,
    /// Whole-GEMM MMA statistics (instructions, steps, lane products).
    pub stats: MmaStats,
    /// Output tiles sharded across the pool.
    pub tiles: u64,
    /// Fragments issued (one MMA instruction each).
    pub fragments: u64,
    /// A/B operand bytes at the mode's storage width.
    pub operand_bytes: u64,
    /// Wall time packing operands into their value planes, ns.
    pub pack_ns: u64,
    /// Wall time executing fragments across the pool, ns.
    pub exec_ns: u64,
    /// SIMD counters of the call (see [`SimdChunks`]).
    pub simd: SimdChunks,
}

/// Element-chunks a call's SIMD panels reduced on the vector path and
/// sent to the scalar oracle, and those in rows the quick or the exact
/// tier refused:
/// the per-tile deltas of each worker's [`DotProductUnit`] counters,
/// summed into one per-call total.
#[derive(Default)]
pub(crate) struct SimdChunks {
    /// Element-chunks reduced on the vector path.
    pub chunks: AtomicU64,
    /// Element-chunks sent to the scalar oracle.
    pub fallbacks: AtomicU64,
    /// Element-chunks in rows the quick tier refused.
    pub quick_refusals: AtomicU64,
    /// Element-chunks in rows the exact tier refused.
    pub exact_refusals: AtomicU64,
}

impl SimdChunks {
    /// Run `f` on `dpu` and add the element-chunks it moved to the total.
    pub(crate) fn meter<R>(
        &self,
        dpu: &mut DotProductUnit,
        f: impl FnOnce(&mut DotProductUnit) -> R,
    ) -> R {
        let (chunks, fallbacks) = (dpu.simd_chunks, dpu.simd_fallbacks);
        let (quick, exact) = (dpu.quick_refusals, dpu.exact_refusals);
        let r = f(dpu);
        self.chunks
            .fetch_add(dpu.simd_chunks - chunks, Ordering::Relaxed);
        self.fallbacks
            .fetch_add(dpu.simd_fallbacks - fallbacks, Ordering::Relaxed);
        self.quick_refusals
            .fetch_add(dpu.quick_refusals - quick, Ordering::Relaxed);
        self.exact_refusals
            .fetch_add(dpu.exact_refusals - exact, Ordering::Relaxed);
        r
    }
}

#[derive(Default)]
struct ModeCounters {
    instructions: AtomicU64,
    steps: AtomicU64,
    lane_products: AtomicU64,
}

/// The live counter sink: relaxed atomic adds, visited once per GEMM (not
/// per fragment), so instrumentation stays near-zero-cost on the hot path.
#[derive(Default)]
pub(crate) struct ExecCounters {
    gemm_calls: AtomicU64,
    tiles: AtomicU64,
    fragments: AtomicU64,
    operand_bytes: AtomicU64,
    pack_ns: AtomicU64,
    exec_ns: AtomicU64,
    faults_detected: AtomicU64,
    faults_corrected: AtomicU64,
    fault_retries: AtomicU64,
    simd_chunks: AtomicU64,
    simd_fallbacks: AtomicU64,
    quick_refusals: AtomicU64,
    exact_refusals: AtomicU64,
    per_mode: [ModeCounters; MODE_COUNT],
}

impl ExecCounters {
    pub(crate) fn record(&self, s: &GemmSample) {
        self.gemm_calls.fetch_add(1, Ordering::Relaxed);
        self.tiles.fetch_add(s.tiles, Ordering::Relaxed);
        self.fragments.fetch_add(s.fragments, Ordering::Relaxed);
        self.operand_bytes
            .fetch_add(s.operand_bytes, Ordering::Relaxed);
        self.pack_ns.fetch_add(s.pack_ns, Ordering::Relaxed);
        self.exec_ns.fetch_add(s.exec_ns, Ordering::Relaxed);
        self.simd_chunks
            .fetch_add(s.simd.chunks.load(Ordering::Relaxed), Ordering::Relaxed);
        self.simd_fallbacks
            .fetch_add(s.simd.fallbacks.load(Ordering::Relaxed), Ordering::Relaxed);
        self.quick_refusals.fetch_add(
            s.simd.quick_refusals.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        self.exact_refusals.fetch_add(
            s.simd.exact_refusals.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        let m = &self.per_mode[mode_index(s.mode)];
        m.instructions
            .fetch_add(s.stats.instructions, Ordering::Relaxed);
        m.steps.fetch_add(s.stats.steps, Ordering::Relaxed);
        m.lane_products
            .fetch_add(s.stats.lane_products, Ordering::Relaxed);
    }

    /// Record one checked-driver invocation's fault telemetry.
    pub(crate) fn record_faults(&self, s: &FaultSummary) {
        self.faults_detected
            .fetch_add(s.detected, Ordering::Relaxed);
        self.faults_corrected
            .fetch_add(s.corrected, Ordering::Relaxed);
        self.fault_retries.fetch_add(s.retries, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ExecStats {
        let mut per_mode = [MmaStats::default(); MODE_COUNT];
        for (i, m) in self.per_mode.iter().enumerate() {
            per_mode[i] = MmaStats {
                instructions: m.instructions.load(Ordering::Relaxed),
                steps: m.steps.load(Ordering::Relaxed),
                lane_products: m.lane_products.load(Ordering::Relaxed),
            };
        }
        ExecStats {
            gemm_calls: self.gemm_calls.load(Ordering::Relaxed),
            tiles: self.tiles.load(Ordering::Relaxed),
            fragments: self.fragments.load(Ordering::Relaxed),
            operand_bytes: self.operand_bytes.load(Ordering::Relaxed),
            pack_ns: self.pack_ns.load(Ordering::Relaxed),
            exec_ns: self.exec_ns.load(Ordering::Relaxed),
            faults_detected: self.faults_detected.load(Ordering::Relaxed),
            faults_corrected: self.faults_corrected.load(Ordering::Relaxed),
            fault_retries: self.fault_retries.load(Ordering::Relaxed),
            simd_chunks: self.simd_chunks.load(Ordering::Relaxed),
            simd_fallbacks: self.simd_fallbacks.load(Ordering::Relaxed),
            quick_refusals: self.quick_refusals.load(Ordering::Relaxed),
            exact_refusals: self.exact_refusals.load(Ordering::Relaxed),
            per_mode,
        }
    }

    fn reset(&self) {
        self.gemm_calls.store(0, Ordering::Relaxed);
        self.tiles.store(0, Ordering::Relaxed);
        self.fragments.store(0, Ordering::Relaxed);
        self.operand_bytes.store(0, Ordering::Relaxed);
        self.pack_ns.store(0, Ordering::Relaxed);
        self.exec_ns.store(0, Ordering::Relaxed);
        self.faults_detected.store(0, Ordering::Relaxed);
        self.faults_corrected.store(0, Ordering::Relaxed);
        self.fault_retries.store(0, Ordering::Relaxed);
        self.simd_chunks.store(0, Ordering::Relaxed);
        self.simd_fallbacks.store(0, Ordering::Relaxed);
        self.quick_refusals.store(0, Ordering::Relaxed);
        self.exact_refusals.store(0, Ordering::Relaxed);
        for m in &self.per_mode {
            m.instructions.store(0, Ordering::Relaxed);
            m.steps.store(0, Ordering::Relaxed);
            m.lane_products.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time snapshot of a context's execution counters.
///
/// All counters are cumulative since the context's construction (or its
/// last [`M3xuContext::reset_stats`]); subtract two snapshots with
/// [`ExecStats::delta_since`] to meter one region of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Top-level GEMM driver invocations recorded.
    pub gemm_calls: u64,
    /// Output tiles sharded across the worker pool.
    pub tiles: u64,
    /// MMA fragments issued (one MMA instruction each).
    pub fragments: u64,
    /// Bytes of A/B operand traffic at each mode's storage width — the
    /// quantity behind the paper's rule (c) 2x / 4x traffic ratios.
    pub operand_bytes: u64,
    /// Wall time spent packing operands into their value planes, ns.
    pub pack_ns: u64,
    /// Wall time spent executing fragments across the pool, ns.
    pub exec_ns: u64,
    /// ABFT checksum mismatches (plus lost pool epochs) detected by the
    /// checked drivers ([`m3xu_mxu::fault::FaultSummary::detected`]).
    pub faults_detected: u64,
    /// Detected faults subsequently repaired by re-execution.
    pub faults_corrected: u64,
    /// Tile re-executions plus epoch re-submissions the checked drivers
    /// performed.
    pub fault_retries: u64,
    /// Element-chunks (one output element × one fragment chunk) the SIMD
    /// panels rounded on the vector path, by the quick or the exact tier
    /// or by the certified pair.
    pub simd_chunks: u64,
    /// Element-chunks the SIMD panels sent to the scalar oracle instead —
    /// a special operand, or a chunk whose exact pair the certificate
    /// refuses (its residual spans more than the 53 bits one `f64`
    /// holds, as in a running sum beside products at two much smaller
    /// scales).
    /// `simd_fallbacks / (simd_chunks + simd_fallbacks)` is the share of
    /// the vector path's work that fell off it.
    pub simd_fallbacks: u64,
    /// Element-chunks in fragment rows the quick tier refused (its
    /// interval around a plain `f64` sum held an FP32 rounding boundary,
    /// or an input was special), each then rounded by the certified pair
    /// or by the oracle. Narrow modes start on the exact tier instead, so
    /// they never add to it. Checked calls run the same tiers and count
    /// alike; a chunk re-executed on the recovery path counts again.
    pub quick_refusals: u64,
    /// Element-chunks in fragment rows the exact tier refused (an
    /// addition of a column's plain `f64` sum was inexact, or an input
    /// was special), each then rounded by the certified pair or by the
    /// oracle. Only FP16, BF16 and TF32 chunks, checked or not, run that
    /// tier.
    pub exact_refusals: u64,
    per_mode: [MmaStats; MODE_COUNT],
}

impl ExecStats {
    /// MMA statistics recorded for one mode.
    pub fn mode(&self, mode: MxuMode) -> MmaStats {
        self.per_mode[mode_index(mode)]
    }

    /// MMA statistics summed over every mode.
    pub fn total(&self) -> MmaStats {
        let mut t = MmaStats::default();
        for m in &self.per_mode {
            t.merge(m);
        }
        t
    }

    /// Element-wise sum of two snapshots — the aggregation a sharded
    /// service uses to present N per-shard contexts as one counter set
    /// (Σ shard `ExecStats` is what per-tenant accounting reconciles
    /// against).
    pub fn merged(&self, other: &ExecStats) -> ExecStats {
        let mut per_mode = [MmaStats::default(); MODE_COUNT];
        for (i, d) in per_mode.iter_mut().enumerate() {
            *d = self.per_mode[i];
            d.merge(&other.per_mode[i]);
        }
        ExecStats {
            gemm_calls: self.gemm_calls + other.gemm_calls,
            tiles: self.tiles + other.tiles,
            fragments: self.fragments + other.fragments,
            operand_bytes: self.operand_bytes + other.operand_bytes,
            pack_ns: self.pack_ns + other.pack_ns,
            exec_ns: self.exec_ns + other.exec_ns,
            faults_detected: self.faults_detected + other.faults_detected,
            faults_corrected: self.faults_corrected + other.faults_corrected,
            fault_retries: self.fault_retries + other.fault_retries,
            simd_chunks: self.simd_chunks + other.simd_chunks,
            simd_fallbacks: self.simd_fallbacks + other.simd_fallbacks,
            quick_refusals: self.quick_refusals + other.quick_refusals,
            exact_refusals: self.exact_refusals + other.exact_refusals,
            per_mode,
        }
    }

    /// Element-wise saturating difference `self - earlier`: the activity
    /// between two snapshots of the same (monotone) counter set.
    pub fn delta_since(&self, earlier: &ExecStats) -> ExecStats {
        let mut per_mode = [MmaStats::default(); MODE_COUNT];
        for (i, d) in per_mode.iter_mut().enumerate() {
            *d = self.per_mode[i].delta_since(&earlier.per_mode[i]);
        }
        ExecStats {
            gemm_calls: self.gemm_calls.saturating_sub(earlier.gemm_calls),
            tiles: self.tiles.saturating_sub(earlier.tiles),
            fragments: self.fragments.saturating_sub(earlier.fragments),
            operand_bytes: self.operand_bytes.saturating_sub(earlier.operand_bytes),
            pack_ns: self.pack_ns.saturating_sub(earlier.pack_ns),
            exec_ns: self.exec_ns.saturating_sub(earlier.exec_ns),
            faults_detected: self.faults_detected.saturating_sub(earlier.faults_detected),
            faults_corrected: self
                .faults_corrected
                .saturating_sub(earlier.faults_corrected),
            fault_retries: self.fault_retries.saturating_sub(earlier.fault_retries),
            simd_chunks: self.simd_chunks.saturating_sub(earlier.simd_chunks),
            simd_fallbacks: self.simd_fallbacks.saturating_sub(earlier.simd_fallbacks),
            quick_refusals: self.quick_refusals.saturating_sub(earlier.quick_refusals),
            exact_refusals: self.exact_refusals.saturating_sub(earlier.exact_refusals),
            per_mode,
        }
    }
}

/// Reusable packed-operand storage: capacity survives across GEMMs so
/// repeated runs through one context stop visiting the allocator for
/// their value planes (the `f32` and `f64` planes every executor reads).
#[derive(Default)]
struct OperandArena {
    a: PackedStorage,
    b: PackedStorage,
}

enum ContextPool {
    /// Share the lazily-built process-wide pool.
    Global,
    /// A pool owned by (and sized for) this context alone.
    Owned(WorkerPool),
}

/// A single execution object for the functional kernels: worker pool,
/// thread-count policy, packed-operand scratch arena, and the always-on
/// [`ExecStats`] counter sink.
///
/// `M3XU_THREADS` is resolved exactly once — at pool construction — so
/// the parallelism of a context cannot change mid-run. The process-wide
/// [`default_context`] serves callers without a context of their own;
/// build a private context (e.g. [`M3xuContext::with_threads`]) to meter
/// one workload in isolation.
///
/// ```
/// use m3xu_kernels::context::M3xuContext;
/// use m3xu_kernels::gemm::GemmPrecision;
/// use m3xu_mxu::matrix::Matrix;
/// use m3xu_mxu::modes::MxuMode;
///
/// let ctx = M3xuContext::with_threads(2);
/// let a = Matrix::<f32>::random(64, 64, 1);
/// let b = Matrix::<f32>::random(64, 64, 2);
/// let c = Matrix::<f32>::zeros(64, 64);
/// let r = ctx.try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c).unwrap();
/// let stats = ctx.stats();
/// // The result reports what the context recorded for it.
/// assert_eq!((r.mode, r.operand_bytes), (MxuMode::M3xuFp32, stats.operand_bytes));
/// // 8x8 tiles, k/2 chunks: (64/8) * (64/8) * (64/2) fragments.
/// assert_eq!(stats.mode(MxuMode::M3xuFp32).instructions, 8 * 8 * 32);
/// assert_eq!(stats.fragments, 8 * 8 * 32);
/// ```
pub struct M3xuContext {
    pool: ContextPool,
    threads: usize,
    counters: ExecCounters,
    arena: Mutex<OperandArena>,
    /// Armed fault-injection plan. `None` (the production default when
    /// `M3XU_FAULT_SEED` is unset) keeps the driver's unchecked body on
    /// the hot path — no checksum work, bit-identical to a plan-free
    /// build.
    fault: Option<Arc<FaultPlan>>,
}

impl M3xuContext {
    /// A context sharing the process-wide worker pool (whose size is
    /// `M3XU_THREADS` when set, resolved once at first use). The fault
    /// plan, if any, resolves from `M3XU_FAULT_SEED` / `M3XU_FAULT_RATE`
    /// — once, here, mirroring the thread policy.
    pub fn new() -> Self {
        M3xuContext {
            threads: pool::global().size(),
            pool: ContextPool::Global,
            counters: ExecCounters::default(),
            arena: Mutex::new(OperandArena::default()),
            fault: FaultPlan::from_env().map(Arc::new),
        }
    }

    /// A context with its own worker pool of `threads` threads (minimum
    /// 1), independent of `M3XU_THREADS` and the process-wide pool.
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        M3xuContext {
            pool: ContextPool::Owned(WorkerPool::new(threads)),
            threads,
            counters: ExecCounters::default(),
            arena: Mutex::new(OperandArena::default()),
            fault: FaultPlan::from_env().map(Arc::new),
        }
    }

    /// Arm this context with an explicit fault-injection plan, overriding
    /// whatever the environment resolved. Every GEMM and BLAS-3 call on
    /// this context — every precision, FP32C and emulated FP64 included —
    /// then runs the driver's ABFT-checked self-healing body.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// The armed fault-injection plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault.as_ref()
    }

    /// Worker threads this context executes on — fixed at construction.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The pool GEMMs sharded through this context run on.
    pub(crate) fn pool(&self) -> &WorkerPool {
        match &self.pool {
            ContextPool::Global => pool::global(),
            ContextPool::Owned(p) => p,
        }
    }

    pub(crate) fn counters(&self) -> &ExecCounters {
        &self.counters
    }

    /// Borrow the packed-operand scratch buffers. A contended arena (two
    /// GEMMs in flight on one context) falls back to fresh allocations
    /// rather than serialising the callers.
    pub(crate) fn take_scratch(&self) -> (PackedStorage, PackedStorage) {
        match self.arena.try_lock() {
            Ok(mut g) => (std::mem::take(&mut g.a), std::mem::take(&mut g.b)),
            Err(_) => (PackedStorage::default(), PackedStorage::default()),
        }
    }

    /// Return scratch to the arena, keeping the larger capacity (keyed on
    /// the bytes both value planes hold).
    pub(crate) fn put_scratch(&self, a: PackedStorage, b: PackedStorage) {
        let bytes = |s: &PackedStorage| s.vals.capacity() * 4 + s.vals64.capacity() * 8;
        if let Ok(mut g) = self.arena.try_lock() {
            if bytes(&a) > bytes(&g.a) {
                g.a = a;
            }
            if bytes(&b) > bytes(&g.b) {
                g.b = b;
            }
        }
    }

    /// Execute `f(0), f(1), ..., f(tasks - 1)` on this context's worker
    /// pool — the batching seam service layers build on: a scheduler can
    /// fold many *small* requests into one pool epoch by making each task
    /// execute a whole request inline. A GEMM issued from inside a task
    /// (e.g. [`M3xuContext::try_gemm_f32`]) runs inline on that worker by
    /// the pool's reentrancy contract, bit-identical to a direct call.
    pub fn run_tasks<F: Fn(usize) + Sync>(&self, tasks: usize, f: F) {
        self.pool().run(tasks, f);
    }

    /// Snapshot the cumulative execution counters.
    ///
    /// # Relaxed-ordering caveat
    ///
    /// All counters — including the [`ExecStats::pack_ns`] /
    /// [`ExecStats::exec_ns`] wall-time sums — are maintained with
    /// `Relaxed` atomic adds and loaded field-by-field here. Each counter
    /// is individually monotone, but a snapshot taken while other threads
    /// are recording may mix fields from different in-flight GEMMs (e.g.
    /// observe a call's `pack_ns` before its `exec_ns` lands). Snapshot
    /// deltas over a quiesced context are exact; under concurrency treat a
    /// single snapshot as a consistent *lower bound* per field, not a
    /// cross-field transaction. Note also that the wall-time sums add up
    /// *per-call* elapsed times: concurrent GEMMs overlap in real time, so
    /// `pack_ns + exec_ns` can exceed the wall-clock span of the workload.
    pub fn stats(&self) -> ExecStats {
        self.counters.snapshot()
    }

    /// Zero the execution counters.
    pub fn reset_stats(&self) {
        self.counters.reset();
    }

    // ---- GEMM family ---------------------------------------------------
    //
    // One fallible method per op, each building its call of the one
    // driver. The result reports what ran: its mode, MMA statistics,
    // rule-(c) operand bytes and — under an armed plan, which runs every
    // precision through the ABFT-checked body — the call's fault summary.
    // Panicking forms live at the `m3xu` facade only.

    /// Fallible tiled real GEMM `D = A·B + C` in `precision`, counted
    /// into this context's [`ExecStats`]. Every f32 precision verifies
    /// under an armed plan: the expected checksums read the packed buffer
    /// entries, so quantising narrow modes verify exactly.
    pub fn try_gemm_f32(
        &self,
        precision: GemmPrecision,
        a: &Matrix<f32>,
        b: &Matrix<f32>,
        c: &Matrix<f32>,
    ) -> Result<GemmResult<f32>, M3xuError> {
        gemm::check_precision(precision, true, "gemm_f32")?;
        let call = Call::new("gemm", precision.mode(), 1.0, 1.0);
        gemm::drive(self, &call, a, b, c, self.fault.as_deref())
    }

    /// Fallible tiled FP32C GEMM `D = A·B + C`, counted into this
    /// context's [`ExecStats`].
    pub fn try_cgemm_c32(
        &self,
        a: &Matrix<C32>,
        b: &Matrix<C32>,
        c: &Matrix<C32>,
    ) -> Result<GemmResult<C32>, M3xuError> {
        let call = Call::new("cgemm", MxuMode::M3xuFp32c, C32::ONE, C32::ONE);
        gemm::drive(self, &call, a, b, c, self.fault.as_deref())
    }

    /// [`M3xuContext::try_gemm_f32`] with the result's fault summary
    /// projected beside it — kept for callers written against the pair,
    /// such as the repository benchmark's adapter.
    pub fn try_gemm_f32_faulted(
        &self,
        precision: GemmPrecision,
        a: &Matrix<f32>,
        b: &Matrix<f32>,
        c: &Matrix<f32>,
    ) -> Result<(GemmResult<f32>, FaultSummary), M3xuError> {
        self.try_gemm_f32(precision, a, b, c).map(with_faults)
    }

    /// [`M3xuContext::try_cgemm_c32`] with its fault summary; see
    /// [`M3xuContext::try_gemm_f32_faulted`].
    pub fn try_cgemm_c32_faulted(
        &self,
        a: &Matrix<C32>,
        b: &Matrix<C32>,
        c: &Matrix<C32>,
    ) -> Result<(GemmResult<C32>, FaultSummary), M3xuError> {
        self.try_cgemm_c32(a, b, c).map(with_faults)
    }

    /// Fallible tiled emulated-FP64 GEMM `D = A·B + C`, counted into this
    /// context's [`ExecStats`]. Only [`GemmPrecision::Fp64Emulated`] is
    /// accepted; every other precision returns
    /// [`M3xuError::ModeMismatch`]. The residue homomorphism extends to
    /// every f64 dyadic rational, so the checked body's expected side
    /// reads the packed `f64` values, whose five mantissa slices sum to
    /// them exactly.
    pub fn try_gemm_f64(
        &self,
        precision: GemmPrecision,
        a: &Matrix<f64>,
        b: &Matrix<f64>,
        c: &Matrix<f64>,
    ) -> Result<GemmResult<f64>, M3xuError> {
        gemm::check_precision(precision, false, "gemm_f64")?;
        let call = Call::new("gemm_f64", precision.mode(), 1.0, 1.0);
        gemm::drive(self, &call, a, b, c, self.fault.as_deref())
    }

    // ---- BLAS-3 family -------------------------------------------------

    /// Fallible op-GEMM `D = alpha·op(A)·op(B) + beta·C` on an f32
    /// engine; `op = N`, `alpha = 1`, `beta = 1` is bit-identical to
    /// [`M3xuContext::try_gemm_f32`]. Counted into this context's
    /// [`ExecStats`].
    #[allow(clippy::too_many_arguments)]
    pub fn try_gemm_op_f32(
        &self,
        precision: GemmPrecision,
        op_a: MatOp,
        a: &Matrix<f32>,
        op_b: MatOp,
        b: &Matrix<f32>,
        alpha: f32,
        beta: f32,
        c: &Matrix<f32>,
    ) -> Result<GemmResult<f32>, M3xuError> {
        gemm::check_precision(precision, true, "gemm_op_f32")?;
        let call = Call::new("gemm_op", precision.mode(), alpha, beta);
        let (a, b) = (OpView::new(a, op_a), OpView::new(b, op_b));
        gemm::drive(self, &call, &a, &b, c, self.fault.as_deref())
    }

    /// Fallible complex op-GEMM `D = alpha·op(A)·op(B) + beta·C` on the
    /// FP32C engine (`op` may conjugate); counted into this context's
    /// [`ExecStats`].
    #[allow(clippy::too_many_arguments)]
    pub fn try_cgemm_op_c32(
        &self,
        op_a: MatOp,
        a: &Matrix<C32>,
        op_b: MatOp,
        b: &Matrix<C32>,
        alpha: C32,
        beta: C32,
        c: &Matrix<C32>,
    ) -> Result<GemmResult<C32>, M3xuError> {
        let call = Call::new("cgemm_op", MxuMode::M3xuFp32c, alpha, beta);
        let (a, b) = (OpView::new(a, op_a), OpView::new(b, op_b));
        gemm::drive(self, &call, &a, &b, c, self.fault.as_deref())
    }

    /// Fallible emulated-FP64 op-GEMM; only
    /// [`GemmPrecision::Fp64Emulated`] is accepted.
    #[allow(clippy::too_many_arguments)]
    pub fn try_gemm_op_f64(
        &self,
        precision: GemmPrecision,
        op_a: MatOp,
        a: &Matrix<f64>,
        op_b: MatOp,
        b: &Matrix<f64>,
        alpha: f64,
        beta: f64,
        c: &Matrix<f64>,
    ) -> Result<GemmResult<f64>, M3xuError> {
        gemm::check_precision(precision, false, "gemm_op_f64")?;
        let call = Call::new("gemm_op_f64", precision.mode(), alpha, beta);
        let (a, b) = (OpView::new(a, op_a), OpView::new(b, op_b));
        gemm::drive(self, &call, &a, &b, c, self.fault.as_deref())
    }

    /// Fallible SYRK `C := alpha·op(A)·op(A)^T + beta·C`, scheduling (and
    /// writing) only the output tiles intersecting `tri` — the other
    /// triangle of `C` passes through byte-for-byte untouched, and the
    /// recorded [`ExecStats`] reflect the ~2x tile saving (verification,
    /// under an armed plan, prices only the `T(T+1)/2` scheduled tiles).
    #[allow(clippy::too_many_arguments)]
    pub fn try_syrk_f32(
        &self,
        precision: GemmPrecision,
        tri: Triangle,
        op_a: MatOp,
        a: &Matrix<f32>,
        alpha: f32,
        beta: f32,
        c: &Matrix<f32>,
    ) -> Result<GemmResult<f32>, M3xuError> {
        gemm::check_precision(precision, true, "syrk_f32")?;
        // The second operand is op(A)'s transpose (`H` collapses to `T`
        // on real elements).
        let op_b = match op_a {
            MatOp::N => MatOp::T,
            MatOp::T | MatOp::H => MatOp::N,
        };
        let call = Call {
            region: OutRegion::Tri(tri),
            ..Call::new("syrk", precision.mode(), alpha, beta)
        };
        let (a, b) = (OpView::new(a, op_a), OpView::new(a, op_b));
        gemm::drive(self, &call, &a, &b, c, self.fault.as_deref())
    }

    /// Fallible HERK `C := alpha·op(A)·op(A)^H + beta·C` with real
    /// `alpha`/`beta` on the FP32C engine, writing only the `tri`
    /// triangle; diagonal entries are exactly real on output. `op_a` must
    /// be [`MatOp::N`] or [`MatOp::H`].
    pub fn try_herk_c32(
        &self,
        tri: Triangle,
        op_a: MatOp,
        a: &Matrix<C32>,
        alpha: f32,
        beta: f32,
        c: &Matrix<C32>,
    ) -> Result<GemmResult<C32>, M3xuError> {
        let op_b = match op_a {
            MatOp::N => MatOp::H,
            MatOp::H => MatOp::N,
            // `T` has no Hermitian-rank-k meaning.
            MatOp::T => {
                return Err(M3xuError::ModeMismatch {
                    context: "herk(op): op(A) must be N or H",
                    got: MxuMode::M3xuFp32c,
                })
            }
        };
        let (alpha, beta) = (C32::new(alpha, 0.0), C32::new(beta, 0.0));
        let call = Call {
            region: OutRegion::Tri(tri),
            real_diag: true,
            ..Call::new("herk", MxuMode::M3xuFp32c, alpha, beta)
        };
        let (a, b) = (OpView::new(a, op_a), OpView::new(a, op_b));
        gemm::drive(self, &call, &a, &b, c, self.fault.as_deref())
    }

    /// Fallible SYMM `C := alpha·sym(A)·B + beta·C` (or `B·sym(A)` on
    /// [`Side::Right`]), expanding the `tri`-stored triangle of the
    /// square matrix `A` on the fly — the opposite triangle of `A` is
    /// never read.
    #[allow(clippy::too_many_arguments)]
    pub fn try_symm_f32(
        &self,
        precision: GemmPrecision,
        side: Side,
        tri: Triangle,
        a: &Matrix<f32>,
        b: &Matrix<f32>,
        alpha: f32,
        beta: f32,
        c: &Matrix<f32>,
    ) -> Result<GemmResult<f32>, M3xuError> {
        gemm::check_precision(precision, true, "symm_f32")?;
        check_square(a, "symm(A): A must be square")?;
        let call = Call::new("symm", precision.mode(), alpha, beta);
        let sym = MirrorView::new(a, tri, false);
        let plan = self.fault.as_deref();
        match side {
            Side::Left => gemm::drive(self, &call, &sym, b, c, plan),
            Side::Right => gemm::drive(self, &call, b, &sym, c, plan),
        }
    }

    /// Fallible HEMM: the Hermitian counterpart of
    /// [`M3xuContext::try_symm_f32`] on the FP32C engine (the mirror
    /// conjugates across the diagonal and reads diagonal entries as
    /// real).
    #[allow(clippy::too_many_arguments)]
    pub fn try_hemm_c32(
        &self,
        side: Side,
        tri: Triangle,
        a: &Matrix<C32>,
        b: &Matrix<C32>,
        alpha: C32,
        beta: C32,
        c: &Matrix<C32>,
    ) -> Result<GemmResult<C32>, M3xuError> {
        check_square(a, "hemm(A): A must be square")?;
        let call = Call::new("hemm", MxuMode::M3xuFp32c, alpha, beta);
        let herm = MirrorView::new(a, tri, true);
        let plan = self.fault.as_deref();
        match side {
            Side::Left => gemm::drive(self, &call, &herm, b, c, plan),
            Side::Right => gemm::drive(self, &call, b, &herm, c, plan),
        }
    }

    // ---- Kernel conveniences -------------------------------------------

    /// GEMM-formulated FFT on this context (see [`fft::try_gemm_fft`]).
    pub fn try_gemm_fft(&self, x: &[C32]) -> Result<(Vec<C32>, MmaStats), M3xuError> {
        fft::try_gemm_fft_on(self, x)
    }

    /// 2-D FFT on this context (see [`fft::fft2d::try_fft2d`]).
    pub fn try_fft2d(&self, image: &Matrix<C32>) -> Result<(Matrix<C32>, MmaStats), M3xuError> {
        fft::fft2d::try_fft2d_on(self, image)
    }

    /// im2col convolution on this context (see [`conv2d::try_conv2d`]).
    pub fn try_conv2d(
        &self,
        precision: GemmPrecision,
        x: &conv2d::Tensor3,
        filters: &Matrix<f32>,
        bias: &[f32],
        spec: conv2d::ConvSpec,
    ) -> Result<(conv2d::Tensor3, MmaStats), M3xuError> {
        conv2d::try_conv2d_on(self, precision, x, filters, bias, spec)
    }

    /// Convolution weight gradient (see [`conv_grad::try_conv2d_wgrad`]).
    pub fn try_conv2d_wgrad(
        &self,
        precision: GemmPrecision,
        x: &conv2d::Tensor3,
        dy: &conv2d::Tensor3,
        spec: conv2d::ConvSpec,
    ) -> Result<(Matrix<f32>, MmaStats), M3xuError> {
        conv_grad::try_conv2d_wgrad_on(self, precision, x, dy, spec)
    }

    /// Convolution data gradient (see [`conv_grad::try_conv2d_dgrad`]).
    pub fn try_conv2d_dgrad(
        &self,
        precision: GemmPrecision,
        filters: &Matrix<f32>,
        dy: &conv2d::Tensor3,
        in_shape: (usize, usize, usize),
        spec: conv2d::ConvSpec,
    ) -> Result<(conv2d::Tensor3, MmaStats), M3xuError> {
        conv_grad::try_conv2d_dgrad_on(self, precision, filters, dy, in_shape, spec)
    }

    /// GEMM-formulated k-NN search (see [`knn::try_knn_gemm`]).
    pub fn try_knn_gemm(
        &self,
        precision: GemmPrecision,
        refs: &Matrix<f32>,
        queries: &Matrix<f32>,
        k: usize,
    ) -> Result<knn::KnnResult, M3xuError> {
        knn::try_knn_gemm_on(self, precision, refs, queries, k)
    }

    /// FFT-based integer polynomial product (see [`poly::try_poly_mul_int`]).
    pub fn try_poly_mul_int(
        &self,
        a: &[i64],
        b: &[i64],
    ) -> Result<(Vec<i64>, MmaStats), M3xuError> {
        poly::try_poly_mul_int_on(self, a, b)
    }

    /// FFT-based cyclic convolution (see [`poly::try_cyclic_convolution`]).
    pub fn try_cyclic_convolution(&self, a: &[f32], b: &[f32]) -> Result<Vec<f32>, M3xuError> {
        poly::try_cyclic_convolution_on(self, a, b)
    }

    /// Conjugate-gradient solve (see [`solver::try_conjugate_gradient`]).
    pub fn try_conjugate_gradient(
        &self,
        precision: GemmPrecision,
        a: &Matrix<f32>,
        b: &[f32],
        tol: f64,
        max_iter: usize,
    ) -> Result<solver::CgResult, M3xuError> {
        solver::try_conjugate_gradient_on(self, precision, a, b, tol, max_iter)
    }
}

impl Default for M3xuContext {
    fn default() -> Self {
        M3xuContext::new()
    }
}

/// The process-wide default context, built lazily on first use — the
/// execution object for callers without one of their own (the `m3xu`
/// facade, the module-level kernel conveniences). Resolving it once means
/// `M3XU_THREADS` is parsed a single time per process.
pub fn default_context() -> &'static M3xuContext {
    static CTX: OnceLock<M3xuContext> = OnceLock::new();
    CTX.get_or_init(M3xuContext::new)
}

/// A driver for the two GEMM flavours every kernel in this crate lowers
/// to. [`M3xuContext`] is the canonical implementation; the trait exists
/// so higher-level kernels (FFT, conv, CG, …) can be threaded over any
/// execution strategy — a metered context, the baseline driver via
/// [`ClosureExecutor`], or a test double.
pub trait GemmExecutor {
    /// Fallible tiled real GEMM `D = A·B + C` in `precision`.
    fn try_gemm_f32(
        &self,
        precision: GemmPrecision,
        a: &Matrix<f32>,
        b: &Matrix<f32>,
        c: &Matrix<f32>,
    ) -> Result<GemmResult<f32>, M3xuError>;

    /// Fallible tiled FP32C GEMM `D = A·B + C`.
    fn try_cgemm_c32(
        &self,
        a: &Matrix<C32>,
        b: &Matrix<C32>,
        c: &Matrix<C32>,
    ) -> Result<GemmResult<C32>, M3xuError>;

    /// Fallible `A·B` with a zero `C`.
    fn try_matmul_f32(
        &self,
        precision: GemmPrecision,
        a: &Matrix<f32>,
        b: &Matrix<f32>,
    ) -> Result<Matrix<f32>, M3xuError> {
        let c = Matrix::zeros(a.rows(), b.cols());
        Ok(self.try_gemm_f32(precision, a, b, &c)?.d)
    }

    /// Fallible complex `A·B` with a zero `C`.
    fn try_cmatmul_c32(&self, a: &Matrix<C32>, b: &Matrix<C32>) -> Result<Matrix<C32>, M3xuError> {
        let c = Matrix::zeros(a.rows(), b.cols());
        Ok(self.try_cgemm_c32(a, b, &c)?.d)
    }
}

/// Reject a SYMM/HEMM operand that is not square.
fn check_square<T>(a: &Matrix<T>, context: &'static str) -> Result<(), M3xuError> {
    if a.rows() != a.cols() {
        return Err(M3xuError::ShapeMismatch {
            context,
            expected: (a.rows(), a.rows()),
            got: (a.rows(), a.cols()),
        });
    }
    Ok(())
}

/// A result paired with its own fault summary (the `_faulted` shape).
fn with_faults<T>(r: GemmResult<T>) -> (GemmResult<T>, FaultSummary) {
    let faults = r.faults;
    (r, faults)
}

impl GemmExecutor for M3xuContext {
    fn try_gemm_f32(
        &self,
        precision: GemmPrecision,
        a: &Matrix<f32>,
        b: &Matrix<f32>,
        c: &Matrix<f32>,
    ) -> Result<GemmResult<f32>, M3xuError> {
        M3xuContext::try_gemm_f32(self, precision, a, b, c)
    }

    fn try_cgemm_c32(
        &self,
        a: &Matrix<C32>,
        b: &Matrix<C32>,
        c: &Matrix<C32>,
    ) -> Result<GemmResult<C32>, M3xuError> {
        M3xuContext::try_cgemm_c32(self, a, b, c)
    }
}

/// Adapts a bare CGEMM closure to [`GemmExecutor`] — the compatibility
/// shim behind [`fft::gemm_fft_with`], which benchmarks use to run the
/// identical FFT decomposition over alternative complex-GEMM drivers
/// (e.g. [`gemm::baseline::cgemm_c32`]). Real-GEMM requests delegate to
/// the [`default_context`]; only the complex path is customised.
pub struct ClosureExecutor<F> {
    cgemm: F,
}

impl<F> ClosureExecutor<F>
where
    F: Fn(&Matrix<C32>, &Matrix<C32>, &Matrix<C32>) -> GemmResult<C32>,
{
    /// Wrap a CGEMM closure.
    pub fn new(cgemm: F) -> Self {
        ClosureExecutor { cgemm }
    }
}

impl<F> GemmExecutor for ClosureExecutor<F>
where
    F: Fn(&Matrix<C32>, &Matrix<C32>, &Matrix<C32>) -> GemmResult<C32>,
{
    fn try_gemm_f32(
        &self,
        precision: GemmPrecision,
        a: &Matrix<f32>,
        b: &Matrix<f32>,
        c: &Matrix<f32>,
    ) -> Result<GemmResult<f32>, M3xuError> {
        default_context().try_gemm_f32(precision, a, b, c)
    }

    fn try_cgemm_c32(
        &self,
        a: &Matrix<C32>,
        b: &Matrix<C32>,
        c: &Matrix<C32>,
    ) -> Result<GemmResult<C32>, M3xuError> {
        Ok((self.cgemm)(a, b, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_record_per_mode_and_reset() {
        let ctx = M3xuContext::with_threads(2);
        let a = Matrix::<f32>::random(16, 8, 1);
        let b = Matrix::<f32>::random(8, 16, 2);
        let c = Matrix::<f32>::zeros(16, 16);
        let r = ctx
            .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
            .unwrap();
        let s = ctx.stats();
        assert_eq!(s.gemm_calls, 1);
        assert_eq!(s.mode(MxuMode::M3xuFp32), r.stats);
        assert_eq!(s.total(), r.stats);
        assert_eq!(s.mode(MxuMode::Fp16), MmaStats::default());
        // 16x16 output in 8x8 tiles, k=8 in 2-wide chunks.
        assert_eq!(s.tiles, 4);
        assert_eq!(s.fragments, 4 * 4);
        // Rule (c) traffic: (m*k + k*n) elements at 4 bytes in FP32.
        assert_eq!(s.operand_bytes, ((16 * 8 + 8 * 16) * 4) as u64);
        assert_eq!(r.operand_bytes, s.operand_bytes);
        assert_eq!(r.mode, MxuMode::M3xuFp32);
        assert_eq!(r.faults.detected, s.faults_detected);
        ctx.reset_stats();
        assert_eq!(ctx.stats(), ExecStats::default());
    }

    #[test]
    fn delta_since_meters_an_interval() {
        let ctx = M3xuContext::with_threads(1);
        let a = Matrix::random_c32(8, 4, 3);
        let b = Matrix::random_c32(4, 8, 4);
        let c = Matrix::random_c32(8, 8, 5);
        ctx.try_cgemm_c32(&a, &b, &c).unwrap();
        let mid = ctx.stats();
        ctx.try_cgemm_c32(&a, &b, &c).unwrap();
        let end = ctx.stats();
        let delta = end.delta_since(&mid);
        assert_eq!(delta.gemm_calls, 1);
        assert_eq!(delta.mode(MxuMode::M3xuFp32c), mid.mode(MxuMode::M3xuFp32c));
    }

    #[test]
    fn private_context_gemm_bit_identical_to_default_context() {
        let ctx = M3xuContext::with_threads(3);
        let a = Matrix::<f32>::random(37, 19, 7);
        let b = Matrix::<f32>::random(19, 23, 8);
        let c = Matrix::<f32>::random(37, 23, 9);
        let p = GemmPrecision::M3xuFp32;
        let via_ctx = ctx.try_gemm_f32(p, &a, &b, &c).unwrap();
        let via_default = default_context().try_gemm_f32(p, &a, &b, &c).unwrap();
        assert_eq!(via_ctx.d, via_default.d);
        assert_eq!(via_ctx.stats, via_default.stats);
    }

    #[test]
    fn arena_reuse_stays_bit_identical() {
        // Repeated GEMMs of different shapes through one context reuse the
        // packed-operand arena; results must not depend on that.
        let ctx = M3xuContext::with_threads(2);
        for &(m, k, n) in &[(16, 16, 16), (9, 7, 17), (33, 5, 12), (16, 16, 16)] {
            let a = Matrix::<f32>::random(m, k, (m + k) as u64);
            let b = Matrix::<f32>::random(k, n, (k + n) as u64);
            let c = Matrix::<f32>::random(m, n, (m + n) as u64);
            let got = ctx
                .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
                .unwrap();
            let want = gemm::baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
            for (x, y) in got.d.as_slice().iter().zip(want.d.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn closure_executor_customises_only_the_complex_path() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = AtomicUsize::new(0);
        let exec = ClosureExecutor::new(|a: &Matrix<C32>, b: &Matrix<C32>, c: &Matrix<C32>| {
            calls.fetch_add(1, Ordering::Relaxed);
            gemm::baseline::cgemm_c32(a, b, c)
        });
        let a = Matrix::random_c32(4, 4, 11);
        let b = Matrix::random_c32(4, 4, 12);
        let c = Matrix::random_c32(4, 4, 13);
        let r = exec.try_cgemm_c32(&a, &b, &c).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(r.d, gemm::baseline::cgemm_c32(&a, &b, &c).d);
    }

    #[test]
    fn default_context_threads_fixed_once() {
        let t1 = default_context().threads();
        let t2 = default_context().threads();
        assert!(t1 >= 1);
        assert_eq!(t1, t2);
    }
}
