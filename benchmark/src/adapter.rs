//! The only module that calls into the library. When the library's API
//! changes, this file changes and the workloads do not.

use crate::gen::{input_seed, Rng};
use crate::stats::Fnv;
use m3xu_fp::complex::Complex;
use m3xu_kernels::blas3::Side;
use m3xu_kernels::context::{ExecStats, M3xuContext};
use m3xu_kernels::gemm::GemmPrecision;
use m3xu_mxu::dpu::DotProductUnit;
use m3xu_mxu::fault::FaultPlan;
use m3xu_mxu::matrix::{MatOp, Matrix, Triangle};
use m3xu_mxu::mma::{MmaShape, MmaStats};
use m3xu_mxu::modes::MxuMode;
use m3xu_mxu::packed::simd::{self, SimdLevel};
use m3xu_mxu::packed::PackedOperand;
use m3xu_serve::{M3xuServe, ServeConfig, ServeError, SubmitOpts, Ticket};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

type C32 = Complex<f32>;

/// Compute threads every workload runs on: two, or fewer on a smaller
/// host.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(2)
}

/// The real-FP32-operand precisions of the dial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Prec {
    /// FP16 inputs.
    Fp16,
    /// BF16 inputs.
    Bf16,
    /// TF32 inputs.
    Tf32,
    /// M3XU FP32 with the truncated 3-term schedule.
    Fp32Fast,
    /// M3XU exact FP32 (2 MMA steps per fragment).
    Fp32,
}

impl Prec {
    fn name(self) -> &'static str {
        match self {
            Prec::Fp16 => "fp16",
            Prec::Bf16 => "bf16",
            Prec::Tf32 => "tf32",
            Prec::Fp32Fast => "fp32fast",
            Prec::Fp32 => "fp32",
        }
    }

    fn dial(self) -> GemmPrecision {
        match self {
            Prec::Fp16 => GemmPrecision::Fp16,
            Prec::Bf16 => GemmPrecision::Bf16,
            Prec::Tf32 => GemmPrecision::Tf32,
            Prec::Fp32Fast => GemmPrecision::Fp32Fast,
            Prec::Fp32 => GemmPrecision::M3xuFp32,
        }
    }
}

/// One operation at one size. Every BLAS-3 op is square, `n x n x n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    /// `D = A·B + C` in a real precision.
    Gemm(Prec, usize),
    /// Emulated-FP64 GEMM.
    Dgemm(usize),
    /// FP32C complex GEMM (4 MMA steps per fragment).
    Cgemm(usize),
    /// GEMM-formulated FFT of this many points.
    Fft(usize),
    /// `D = 0.75·Aᵀ·B − 1.25·C` in FP32.
    GemmOp(usize),
    /// SYRK into the lower triangle, FP32.
    Syrk(usize),
    /// SYMM with A on the left, upper triangle stored, FP32.
    Symm(usize),
    /// HERK into the upper triangle, FP32C.
    Herk(usize),
    /// HEMM with A on the right, lower triangle stored, FP32C.
    Hemm(usize),
    /// ABFT-checked FP32 GEMM on a context armed with a rate-0 fault plan.
    CheckedGemm(usize),
    /// ABFT-checked FP32C GEMM, likewise.
    CheckedCgemm(usize),
}

impl Op {
    /// Stable name, used in spans and the digest file.
    pub fn name(self) -> String {
        match self {
            Op::Gemm(p, n) => format!("gemm_{}_{n}", p.name()),
            Op::Dgemm(n) => format!("gemm_fp64emu_{n}"),
            Op::Cgemm(n) => format!("cgemm_fp32c_{n}"),
            Op::Fft(n) => format!("fft_{n}"),
            Op::GemmOp(n) => format!("gemm_op_tn_{n}"),
            Op::Syrk(n) => format!("syrk_lower_{n}"),
            Op::Symm(n) => format!("symm_left_upper_{n}"),
            Op::Herk(n) => format!("herk_upper_{n}"),
            Op::Hemm(n) => format!("hemm_right_lower_{n}"),
            Op::CheckedGemm(n) => format!("checked_gemm_fp32_{n}"),
            Op::CheckedCgemm(n) => format!("checked_cgemm_fp32c_{n}"),
        }
    }

    /// Useful floating-point operations: `2mnk` real, `8mnk` complex,
    /// `n(n+1)k` SYRK, `4n(n+1)k` HERK, `5 N log2 N` FFT.
    pub fn flops(self) -> f64 {
        match self {
            Op::Gemm(_, n) | Op::Dgemm(n) | Op::GemmOp(n) | Op::Symm(n) | Op::CheckedGemm(n) => {
                2.0 * (n as f64).powi(3)
            }
            Op::Cgemm(n) | Op::Hemm(n) | Op::CheckedCgemm(n) => 8.0 * (n as f64).powi(3),
            Op::Syrk(n) => (n * (n + 1) * n) as f64,
            Op::Herk(n) => 4.0 * (n * (n + 1) * n) as f64,
            Op::Fft(n) => 5.0 * n as f64 * (n as f64).log2(),
        }
    }

    /// The unchecked twin whose output a checked op must reproduce.
    pub fn unchecked(self) -> Op {
        match self {
            Op::CheckedGemm(n) => Op::Gemm(Prec::Fp32, n),
            Op::CheckedCgemm(n) => Op::Cgemm(n),
            op => op,
        }
    }

    fn is_checked(self) -> bool {
        self != self.unchecked()
    }
}

/// The operands of one call.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// Real FP32 operands (`b` is empty for SYRK).
    Real(Matrix<f32>, Matrix<f32>, Matrix<f32>),
    /// FP64 operands.
    Double(Matrix<f64>, Matrix<f64>, Matrix<f64>),
    /// FP32C operands (`b` is empty for HERK).
    Complex(Matrix<C32>, Matrix<C32>, Matrix<C32>),
    /// An FFT input signal.
    Signal(Vec<C32>),
}

impl Inputs {
    /// The operands of `op`'s input set `variant` under run seed `seed`,
    /// uniform in `[-1, 1)` from the benchmark's own generator.
    pub fn generate(op: Op, seed: u64, variant: u32) -> Inputs {
        let mut rng = Rng::new(input_seed(seed, op, variant));
        let mut real = |n: usize| Matrix::from_vec(n, n, (0..n * n).map(|_| rng.f32()).collect());
        match op {
            Op::Gemm(_, n) | Op::GemmOp(n) | Op::Symm(n) | Op::CheckedGemm(n) => {
                Inputs::Real(real(n), real(n), real(n))
            }
            Op::Syrk(n) => Inputs::Real(real(n), Matrix::zeros(0, 0), real(n)),
            Op::Dgemm(n) => {
                let mut m = || Matrix::from_vec(n, n, (0..n * n).map(|_| rng.f64()).collect());
                Inputs::Double(m(), m(), m())
            }
            Op::Cgemm(n) | Op::Hemm(n) | Op::CheckedCgemm(n) => {
                let mut m = || complex(&mut rng, n);
                Inputs::Complex(m(), m(), m())
            }
            Op::Herk(n) => Inputs::Complex(
                complex(&mut rng, n),
                Matrix::zeros(0, 0),
                complex(&mut rng, n),
            ),
            Op::Fft(n) => Inputs::Signal((0..n).map(|_| C32::new(rng.f32(), rng.f32())).collect()),
        }
    }
}

fn complex(rng: &mut Rng, n: usize) -> Matrix<C32> {
    Matrix::from_vec(
        n,
        n,
        (0..n * n).map(|_| C32::new(rng.f32(), rng.f32())).collect(),
    )
}

/// The result of one call.
#[derive(Debug, Clone)]
pub enum Output {
    /// A real FP32 matrix.
    F32(Matrix<f32>),
    /// An FP64 matrix.
    F64(Matrix<f64>),
    /// A complex matrix.
    C32(Matrix<C32>),
    /// An FFT spectrum.
    Spectrum(Vec<C32>),
}

impl Output {
    /// Digest of every output bit.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        match self {
            Output::F32(m) => m.as_slice().iter().for_each(|x| h.word(x.to_bits() as u64)),
            Output::F64(m) => m.as_slice().iter().for_each(|x| h.word(x.to_bits())),
            Output::C32(m) => c32_words(&mut h, m.as_slice()),
            Output::Spectrum(v) => c32_words(&mut h, v),
        }
        h.finish()
    }
}

fn c32_words(h: &mut Fnv, xs: &[C32]) {
    for x in xs {
        h.word(((x.re.to_bits() as u64) << 32) | x.im.to_bits() as u64);
    }
}

/// Work counters of the kernel layer (a view of `ExecStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Top-level GEMM driver invocations.
    pub gemm_calls: u64,
    /// Output tiles scheduled.
    pub tiles: u64,
    /// MMA fragments issued.
    pub fragments: u64,
    /// MMA sequencing steps over every mode.
    pub mma_steps: u64,
    /// A/B operand bytes at each mode's storage width.
    pub operand_bytes: u64,
    /// Wall time packing operands, ns.
    pub pack_ns: u64,
    /// Wall time executing fragments, ns.
    pub exec_ns: u64,
}

impl Counters {
    fn of(s: &ExecStats) -> Counters {
        Counters {
            gemm_calls: s.gemm_calls,
            tiles: s.tiles,
            fragments: s.fragments,
            mma_steps: s.total().steps,
            operand_bytes: s.operand_bytes,
            pack_ns: s.pack_ns,
            exec_ns: s.exec_ns,
        }
    }

    /// The activity between `earlier` and `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            gemm_calls: self.gemm_calls - earlier.gemm_calls,
            tiles: self.tiles - earlier.tiles,
            fragments: self.fragments - earlier.fragments,
            mma_steps: self.mma_steps - earlier.mma_steps,
            operand_bytes: self.operand_bytes - earlier.operand_bytes,
            pack_ns: self.pack_ns - earlier.pack_ns,
            exec_ns: self.exec_ns - earlier.exec_ns,
        }
    }

    /// Field-wise sum.
    pub fn plus(&self, o: &Counters) -> Counters {
        Counters {
            gemm_calls: self.gemm_calls + o.gemm_calls,
            tiles: self.tiles + o.tiles,
            fragments: self.fragments + o.fragments,
            mma_steps: self.mma_steps + o.mma_steps,
            operand_bytes: self.operand_bytes + o.operand_bytes,
            pack_ns: self.pack_ns + o.pack_ns,
            exec_ns: self.exec_ns + o.exec_ns,
        }
    }
}

/// Execution contexts for direct calls: a plain one, and one armed with
/// a rate-0 fault plan for the checked ops.
pub struct Engine {
    plain: M3xuContext,
    armed: Option<M3xuContext>,
}

impl Engine {
    /// Contexts with `threads` workers; the armed one only if `checked`.
    pub fn new(threads: usize, checked: bool) -> Engine {
        Engine {
            plain: M3xuContext::with_threads(threads),
            armed: checked.then(|| {
                M3xuContext::with_threads(threads).with_fault_plan(Arc::new(FaultPlan::new(0, 0.0)))
            }),
        }
    }

    /// Run `op` on `inputs`.
    pub fn run(&self, op: Op, inputs: &Inputs) -> Result<Output, String> {
        let ctx = if op.is_checked() {
            self.armed
                .as_ref()
                .ok_or("checked op on an engine without an armed context")?
        } else {
            &self.plain
        };
        let one = C32::new(1.0, 0.0);
        let r = match (op, inputs) {
            (Op::Gemm(p, _), Inputs::Real(a, b, c)) => ctx
                .try_gemm_f32(p.dial(), a, b, c)
                .map(|r| Output::F32(r.d)),
            (Op::Dgemm(_), Inputs::Double(a, b, c)) => ctx
                .try_gemm_f64(GemmPrecision::Fp64Emulated, a, b, c)
                .map(|r| Output::F64(r.d)),
            (Op::Cgemm(_), Inputs::Complex(a, b, c)) => {
                ctx.try_cgemm_c32(a, b, c).map(|r| Output::C32(r.d))
            }
            (Op::Fft(_), Inputs::Signal(x)) => {
                ctx.try_gemm_fft(x).map(|(y, _)| Output::Spectrum(y))
            }
            (Op::GemmOp(_), Inputs::Real(a, b, c)) => ctx
                .try_gemm_op_f32(
                    GemmPrecision::M3xuFp32,
                    MatOp::T,
                    a,
                    MatOp::N,
                    b,
                    0.75,
                    -1.25,
                    c,
                )
                .map(|r| Output::F32(r.d)),
            (Op::Syrk(_), Inputs::Real(a, _, c)) => ctx
                .try_syrk_f32(
                    GemmPrecision::M3xuFp32,
                    Triangle::Lower,
                    MatOp::N,
                    a,
                    1.0,
                    1.0,
                    c,
                )
                .map(|r| Output::F32(r.d)),
            (Op::Symm(_), Inputs::Real(a, b, c)) => ctx
                .try_symm_f32(
                    GemmPrecision::M3xuFp32,
                    Side::Left,
                    Triangle::Upper,
                    a,
                    b,
                    1.0,
                    1.0,
                    c,
                )
                .map(|r| Output::F32(r.d)),
            (Op::Herk(_), Inputs::Complex(a, _, c)) => ctx
                .try_herk_c32(Triangle::Upper, MatOp::N, a, 1.0, 1.0, c)
                .map(|r| Output::C32(r.d)),
            (Op::Hemm(_), Inputs::Complex(a, b, c)) => ctx
                .try_hemm_c32(Side::Right, Triangle::Lower, a, b, one, one, c)
                .map(|r| Output::C32(r.d)),
            (Op::CheckedGemm(_), Inputs::Real(a, b, c)) => ctx
                .try_gemm_f32_faulted(GemmPrecision::M3xuFp32, a, b, c)
                .map(|(r, _)| Output::F32(r.d)),
            (Op::CheckedCgemm(_), Inputs::Complex(a, b, c)) => ctx
                .try_cgemm_c32_faulted(a, b, c)
                .map(|(r, _)| Output::C32(r.d)),
            (op, _) => return Err(format!("inputs do not match {}", op.name())),
        };
        r.map_err(|e| format!("{}: {e}", op.name()))
    }

    /// Cumulative counters of every context in the engine.
    pub fn counters(&self) -> Counters {
        let plain = Counters::of(&self.plain.stats());
        match &self.armed {
            Some(a) => plain.plus(&Counters::of(&a.stats())),
            None => plain,
        }
    }
}

/// Which fragment pipeline the packed executors dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// The widest level the host supports (AVX2 or SSE2 on x86-64).
    Active,
    /// The scalar oracle path.
    Scalar,
}

impl Level {
    /// Name used in span and metric names.
    pub fn name(self) -> &'static str {
        match self {
            Level::Active => "active",
            Level::Scalar => "scalar",
        }
    }
}

/// Run `f` with the packed executors at `level`, restoring the level
/// that was active before, even if `f` panics. The level is
/// process-wide: nothing else may run kernels meanwhile.
pub fn at_level<R>(level: Level, f: impl FnOnce() -> R) -> R {
    struct Restore(SimdLevel);
    impl Drop for Restore {
        fn drop(&mut self) {
            simd::set_level(self.0);
        }
    }
    let _restore = Restore(simd::level());
    if level == Level::Scalar {
        simd::set_level(SimdLevel::Scalar);
    }
    f()
}

/// Name of the active SIMD level.
pub fn active_level_name() -> String {
    format!("{:?}", simd::level()).to_ascii_lowercase()
}

// ---- the serving layer --------------------------------------------------

/// Per-shard queue capacity of the served workload.
const QUEUE_CAPACITY: usize = 64;
/// Most requests a shard drains per batch.
const MAX_BATCH: usize = 16;

/// Why a served request produced no output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refusal {
    /// Shed at admission (queue full, rate limit, breaker), or dropped or
    /// finished past its deadline.
    Missed,
    /// Failed in execution, or the service went away.
    Error(String),
}

fn refusal(e: ServeError) -> Refusal {
    match e {
        ServeError::QueueFull { .. }
        | ServeError::RateLimited { .. }
        | ServeError::BreakerOpen { .. }
        | ServeError::Deadline { .. } => Refusal::Missed,
        e => Refusal::Error(e.to_string()),
    }
}

/// The service's counters, summed over tenants and shards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Requests completed.
    pub completed: u64,
    /// Requests shed at admission.
    pub rejected: u64,
    /// Requests that missed their deadline.
    pub deadline_missed: u64,
    /// Requests that failed in execution.
    pub exec_errors: u64,
    /// Time requests waited in a queue, ns.
    pub queue_wait_ns: u64,
    /// Time executing the final attempt, ns.
    pub exec_ns: u64,
    /// Time in failed attempts and backoff, ns.
    pub retry_ns: u64,
    /// Shard schedulers respawned.
    pub respawns: u64,
    /// Kernel counters over every shard.
    pub ctx: Counters,
    /// Fragments each shard executed.
    pub shard_fragments: Vec<u64>,
}

impl ServeCounters {
    /// The activity between `earlier` and `self`.
    pub fn since(&self, e: &ServeCounters) -> ServeCounters {
        ServeCounters {
            completed: self.completed - e.completed,
            rejected: self.rejected - e.rejected,
            deadline_missed: self.deadline_missed - e.deadline_missed,
            exec_errors: self.exec_errors - e.exec_errors,
            queue_wait_ns: self.queue_wait_ns - e.queue_wait_ns,
            exec_ns: self.exec_ns - e.exec_ns,
            retry_ns: self.retry_ns - e.retry_ns,
            respawns: self.respawns - e.respawns,
            ctx: self.ctx.since(&e.ctx),
            shard_fragments: self
                .shard_fragments
                .iter()
                .zip(&e.shard_fragments)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

/// A sharded serving front end.
pub struct Service {
    serve: M3xuServe,
    tenants: Vec<String>,
}

/// A request in flight.
pub enum Pending {
    /// A real GEMM.
    Real(Ticket<m3xu_kernels::gemm::GemmResult<f32>>),
    /// A complex GEMM.
    Complex(Ticket<m3xu_kernels::gemm::GemmResult<C32>>),
    /// An FFT.
    Fft(Ticket<(Vec<C32>, MmaStats)>),
}

impl Pending {
    /// Block until the request resolves: its output, or why there is
    /// none.
    pub fn wait(self) -> Result<Output, Refusal> {
        let r = match self {
            Pending::Real(t) => t.wait().map(|r| Output::F32(r.d)),
            Pending::Complex(t) => t.wait().map(|r| Output::C32(r.d)),
            Pending::Fft(t) => t.wait().map(|(y, _)| Output::Spectrum(y)),
        };
        r.map_err(refusal)
    }
}

impl Service {
    /// `shards` shards of one worker each, with the benchmark's queue and
    /// batch limits.
    pub fn new(shards: usize, tenants: usize) -> Result<Service, String> {
        let serve = M3xuServe::try_new(ServeConfig {
            shards,
            workers: 1,
            queue_capacity: QUEUE_CAPACITY,
            max_batch: MAX_BATCH,
            ..ServeConfig::default()
        })
        .map_err(|e| e.to_string())?;
        Ok(Service {
            serve,
            tenants: (0..tenants).map(|t| format!("tenant-{t}")).collect(),
        })
    }

    /// Submit `op` for `tenant`, handing over its operands. Without
    /// `block` a full queue sheds the request; with it the call waits for
    /// space.
    pub fn submit(
        &self,
        tenant: usize,
        op: Op,
        inputs: Inputs,
        deadline: Duration,
        block: bool,
    ) -> Result<Pending, Refusal> {
        let t = &self.tenants[tenant];
        let opts = SubmitOpts {
            deadline: Some(deadline),
            ..SubmitOpts::default()
        };
        let s = &self.serve;
        let r = match (op, inputs) {
            (Op::Gemm(p, _), Inputs::Real(a, b, c)) => if block {
                s.submit_gemm_f32(t, p.dial(), a, b, c, opts)
            } else {
                s.try_submit_gemm_f32(t, p.dial(), a, b, c, opts)
            }
            .map(Pending::Real),
            (Op::Cgemm(_), Inputs::Complex(a, b, c)) => if block {
                s.submit_cgemm_c32(t, a, b, c, opts)
            } else {
                s.try_submit_cgemm_c32(t, a, b, c, opts)
            }
            .map(Pending::Complex),
            (Op::Fft(_), Inputs::Signal(x)) => if block {
                s.submit_fft(t, x, opts)
            } else {
                s.try_submit_fft(t, x, opts)
            }
            .map(Pending::Fft),
            (op, _) => return Err(Refusal::Error(format!("{} is not served", op.name()))),
        };
        r.map_err(refusal)
    }

    /// Counters since the service started.
    pub fn counters(&self) -> ServeCounters {
        let t = self.serve.total_stats();
        ServeCounters {
            completed: t.completed,
            rejected: t.rejected,
            deadline_missed: t.deadline_missed,
            exec_errors: t.exec_errors,
            queue_wait_ns: t.queue_wait_ns,
            exec_ns: t.exec_ns,
            retry_ns: t.retry_ns,
            respawns: self.serve.respawn_count(),
            ctx: Counters::of(&self.serve.exec_stats()),
            shard_fragments: (0..self.serve.shard_count())
                .filter_map(|s| self.serve.shard_stats(s))
                .map(|s| s.fragments)
                .collect(),
        }
    }
}

// ---- the packed fragment pipeline ---------------------------------------

/// The precision modes the layer probe covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// M3XU exact FP32.
    Fp32,
    /// M3XU FP32C.
    Fp32c,
    /// FP16.
    Fp16,
    /// BF16.
    Bf16,
    /// TF32.
    Tf32,
    /// M3XU truncated FP32.
    Fp32Fast,
    /// Emulated FP64.
    Fp64Emu,
}

impl Mode {
    /// Every probed mode.
    pub const ALL: [Mode; 7] = [
        Mode::Fp32,
        Mode::Fp32c,
        Mode::Fp16,
        Mode::Bf16,
        Mode::Tf32,
        Mode::Fp32Fast,
        Mode::Fp64Emu,
    ];

    /// Name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Fp32 => "fp32",
            Mode::Fp32c => "fp32c",
            Mode::Fp16 => "fp16",
            Mode::Bf16 => "bf16",
            Mode::Tf32 => "tf32",
            Mode::Fp32Fast => "fp32fast",
            Mode::Fp64Emu => "fp64emu",
        }
    }

    /// The context-level GEMM that runs in this mode.
    pub fn op(self, n: usize) -> Op {
        match self {
            Mode::Fp32 => Op::Gemm(Prec::Fp32, n),
            Mode::Fp32c => Op::Cgemm(n),
            Mode::Fp16 => Op::Gemm(Prec::Fp16, n),
            Mode::Bf16 => Op::Gemm(Prec::Bf16, n),
            Mode::Tf32 => Op::Gemm(Prec::Tf32, n),
            Mode::Fp32Fast => Op::Gemm(Prec::Fp32Fast, n),
            Mode::Fp64Emu => Op::Dgemm(n),
        }
    }

    fn mxu(self) -> MxuMode {
        match self {
            Mode::Fp32 => MxuMode::M3xuFp32,
            Mode::Fp32c => MxuMode::M3xuFp32c,
            Mode::Fp16 => MxuMode::Fp16,
            Mode::Bf16 => MxuMode::Bf16,
            Mode::Tf32 => MxuMode::Tf32,
            Mode::Fp32Fast => MxuMode::M3xuFp32Fast,
            Mode::Fp64Emu => MxuMode::M3xuFp64Emu,
        }
    }
}

/// Both operands of one GEMM, decoded into packed planes.
pub struct Packed {
    mode: Mode,
    a: PackedOperand,
    b: PackedOperand,
    m: usize,
    n: usize,
    k: usize,
}

/// Pack the `A` (by rows) and `B` (by columns) operands of `inputs` for
/// `mode`.
pub fn pack(mode: Mode, inputs: &Inputs) -> Result<Packed, String> {
    let mx = mode.mxu();
    let (a, b, m, k, n) = match inputs {
        Inputs::Real(a, b, _) => (
            PackedOperand::try_pack_rows_f32(a, mx),
            PackedOperand::try_pack_cols_f32(b, mx),
            a.rows(),
            a.cols(),
            b.cols(),
        ),
        Inputs::Complex(a, b, _) => (
            Ok(PackedOperand::pack_rows_c32(a)),
            Ok(PackedOperand::pack_cols_c32(b)),
            a.rows(),
            a.cols(),
            b.cols(),
        ),
        Inputs::Double(a, b, _) => (
            PackedOperand::try_pack_rows_f64(a, mx),
            PackedOperand::try_pack_cols_f64(b, mx),
            a.rows(),
            a.cols(),
            b.cols(),
        ),
        Inputs::Signal(_) => return Err("a signal has no GEMM operands".into()),
    };
    Ok(Packed {
        mode,
        a: a.map_err(|e| e.to_string())?,
        b: b.map_err(|e| e.to_string())?,
        m,
        n,
        k,
    })
}

impl Packed {
    /// Operand elements packed (`A` and `B`).
    pub fn elements(&self) -> usize {
        self.m * self.k + self.k * self.n
    }

    fn shape(&self) -> MmaShape {
        MmaShape::BASELINE_FP16.for_mode(self.mode.mxu())
    }

    /// Output tiles of the GEMM.
    pub fn tiles(&self) -> usize {
        let (tm, tn, _) = self.shape().grid(self.m, self.n, self.k);
        tm * tn
    }

    /// Execute the whole `K` panel of tiles `first .. first + count`
    /// (wrapping) on this thread from a zero accumulator, at the current
    /// level. Returns the fragments executed.
    pub fn run_tiles(&self, first: usize, count: usize) -> u64 {
        let f = self.shape();
        let (tiles_m, tiles_n, k_chunks) = f.grid(self.m, self.n, self.k);
        let mut dpu = DotProductUnit::new();
        for t in first..first + count {
            let t = t % (tiles_m * tiles_n);
            let (i0, j0) = ((t / tiles_n) * f.m, (t % tiles_n) * f.n);
            let (rows, cols) = (f.m.min(self.m - i0), f.n.min(self.n - j0));
            let (a, b) = (&self.a, &self.b);
            match self.mode {
                Mode::Fp32c => {
                    let mut acc = vec![C32::new(0.0, 0.0); rows * cols];
                    dpu.mma_c32_panel_into(a, b, i0, rows, j0, cols, 0, self.k, f.k, &mut acc);
                    black_box(&acc);
                }
                Mode::Fp64Emu => {
                    let mut acc = vec![0.0f64; rows * cols];
                    dpu.mma_f64_panel_into(a, b, i0, rows, j0, cols, 0, self.k, f.k, &mut acc);
                    black_box(&acc);
                }
                _ => {
                    let mut acc = vec![0.0f32; rows * cols];
                    dpu.mma_f32_panel_into(a, b, i0, rows, j0, cols, 0, self.k, f.k, &mut acc);
                    black_box(&acc);
                }
            }
        }
        (count * k_chunks) as u64
    }
}
