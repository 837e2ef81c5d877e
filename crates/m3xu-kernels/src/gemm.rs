//! The one tiled GEMM driver over the functional M3XU, and the
//! [`GemmResult`] every GEMM-family call returns.
//!
//! A CUTLASS-style hierarchical GEMM: the output splits into fragment
//! tiles, each tile's `K` loop issues fragment-shaped MMA executions, and
//! the epilogue writes back. Real and complex precisions share one generic
//! driver — exactly the paper's point that "the programming model …
//! remain\[s\] the same as the existing Tensor Cores".
//!
//! ## One driver, configured per call
//!
//! Like the M3XU's multiplier array, the driver is reconfigured per call
//! rather than duplicated per operation: the crate-private `drive` runs
//! `D = alpha·a·b + beta·C` over *logical* sources (a plain [`Matrix`],
//! an `op(X)` [`OpView`](m3xu_mxu::matrix::OpView) or a triangle-stored
//! [`MirrorView`](m3xu_mxu::matrix::MirrorView)) under a `Call`: the
//! mode, the scalars, the full or triangular output region and HERK's
//! real diagonal. Plain GEMM is the call `(N, N, 1, 1, full)` on
//! `&Matrix` sources; every BLAS-3 operation of [`crate::blas3`] is
//! another call of the same driver, built by its [`M3xuContext`] method.
//! Those `try_*` methods are the only entry points: a caller without a
//! context of its own uses [`context::default_context`].
//!
//! Validation, beta seeding, the tile schedule, packing into the
//! context's scratch arena and the single per-call accounting sample
//! exist once. An optional [`FaultPlan`] picks the tile body: unarmed, the
//! production body runs `kc2` epochs of `kc1` SIMD panels; armed, the
//! ABFT-checked body verifies every k-chunk and heals what it can. The
//! [`GemmResult`] carries the sample's mode, MMA statistics and rule-(c)
//! operand bytes plus the call's [`FaultSummary`], so callers bill what
//! the driver recorded instead of re-deriving it.
//!
//! ## The packed fragment pipeline
//!
//! The driver packs both operands into [`PackedOperand`] value planes
//! **once per GEMM**, then executes every fragment in place out of those
//! planes ([`m3xu_mxu::packed`]): no tile copies, no per-fragment
//! `StepPlan` allocation, no re-quantising of `A` per column tile. Work
//! distributes over the output-tile schedule through the context's
//! persistent [`WorkerPool`] (the FFT issues thousands of small CGEMMs,
//! where per-call thread spawn used to dominate). Results are
//! bit-identical to the original per-tile path, kept alive in
//! [`baseline`] as the differential-test and benchmark reference.

use crate::blocking::KPlan;
use crate::context::{self, GemmSample, M3xuContext, SimdChunks};
use crate::pool::WorkerPool;
use m3xu_fp::complex::Complex;
use m3xu_mxu::abft::{self, BandSums, Checksum};
use m3xu_mxu::dpu::DotProductUnit;
use m3xu_mxu::error::M3xuError;
use m3xu_mxu::fault::{FaultPlan, FaultSummary, MmaFault, TaskFault};
use m3xu_mxu::matrix::{MatSource, Matrix, Triangle};
use m3xu_mxu::mma::{MmaShape, MmaStats};
use m3xu_mxu::modes::MxuMode;
use m3xu_mxu::packed::{fragment_stats, ChunkCheck, PackedOperand, PackedStorage};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Fixed per-tile accumulator scratch the driver provisions (one full
/// fragment, `frag.m * frag.n` elements). Validated against each mode's
/// fragment shape at entry so a future shape cannot silently truncate a
/// tile or panic mid-epoch inside a pooled task.
const ACC_SCRATCH: usize = 64;

/// Validate the `D = a·b + C` operand shapes shared by the driver and
/// the [`baseline`]: `a` is `m x k`, `b` must be `k x n`, `c` `m x n`.
fn validate_shapes<E, SA, SB>(a: &SA, b: &SB, c: &Matrix<E>) -> Result<(), M3xuError>
where
    SA: MatSource<E>,
    SB: MatSource<E>,
{
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if b.rows() != k {
        return Err(M3xuError::ShapeMismatch {
            context: "gemm(B): inner dimensions must agree",
            expected: (k, n),
            got: (b.rows(), n),
        });
    }
    if (c.rows(), c.cols()) != (m, n) {
        return Err(M3xuError::ShapeMismatch {
            context: "gemm(C): C must be m x n",
            expected: (m, n),
            got: (c.rows(), c.cols()),
        });
    }
    Ok(())
}

/// Which GEMM engine/precision the driver runs — the serve API's
/// per-request **precision dial**, from the fastest lossy narrow modes up
/// to emulated FP64.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GemmPrecision {
    /// M3XU true FP32 (bit-exact, 2-step MMAs).
    M3xuFp32,
    /// M3XU fast FP32: the truncated 3-term slice schedule (drops the
    /// lo·lo cross term, 3xTF32-style). Same 2-step issue shape as
    /// [`GemmPrecision::M3xuFp32`] with 25% fewer lane products; the
    /// result is no longer the exactly-rounded dot product.
    Fp32Fast,
    /// Emulated FP64: `f64` operands sliced into five ≤12-bit mantissa
    /// slices, all 25 cross products accumulated exactly, rounded to
    /// `f64` once per fragment chunk. Runs on
    /// [`M3xuContext::try_gemm_f64`] (the operands are `Matrix<f64>`).
    Fp64Emulated,
    /// TF32 Tensor-Core mode (precision-lossy baseline).
    Tf32,
    /// FP16 inputs (values quantised at the buffers).
    Fp16,
    /// BF16 inputs.
    Bf16,
}

impl GemmPrecision {
    /// Every precision the dial exposes, fastest-narrow to widest.
    pub const ALL: [GemmPrecision; 6] = [
        GemmPrecision::Fp16,
        GemmPrecision::Bf16,
        GemmPrecision::Tf32,
        GemmPrecision::Fp32Fast,
        GemmPrecision::M3xuFp32,
        GemmPrecision::Fp64Emulated,
    ];

    /// The [`MxuMode`] this engine executes in — the key into per-mode
    /// [`ExecStats`](crate::context::ExecStats) counters and the element
    /// width behind the rule-(c) operand-traffic formula.
    pub fn mode(self) -> MxuMode {
        match self {
            GemmPrecision::M3xuFp32 => MxuMode::M3xuFp32,
            GemmPrecision::Fp32Fast => MxuMode::M3xuFp32Fast,
            GemmPrecision::Fp64Emulated => MxuMode::M3xuFp64Emu,
            GemmPrecision::Tf32 => MxuMode::Tf32,
            GemmPrecision::Fp16 => MxuMode::Fp16,
            GemmPrecision::Bf16 => MxuMode::Bf16,
        }
    }

    /// True for the precisions the `f32` GEMM entry points accept; only
    /// [`GemmPrecision::Fp64Emulated`] takes `Matrix<f64>` operands.
    pub fn is_f32(self) -> bool {
        !matches!(self, GemmPrecision::Fp64Emulated)
    }
}

/// Reject an `f32` entry point called with the FP64 precision (or vice
/// versa) with a typed error instead of a packing panic.
pub(crate) fn check_precision(
    precision: GemmPrecision,
    want_f32: bool,
    context: &'static str,
) -> Result<(), M3xuError> {
    if precision.is_f32() != want_f32 {
        return Err(M3xuError::ModeMismatch {
            context,
            got: precision.mode(),
        });
    }
    Ok(())
}

/// Result of a tiled GEMM: the output matrix plus the call's own
/// accounting — what the driver recorded into the context's
/// [`ExecStats`](crate::context::ExecStats) for it, so a caller (the serve
/// layer's per-tenant bill, say) never re-derives it from the shapes.
#[derive(Debug, Clone)]
pub struct GemmResult<T> {
    /// `D = A·B + C`.
    pub d: Matrix<T>,
    /// Aggregated MMA statistics across all tiles and threads.
    pub stats: MmaStats,
    /// The mode the call executed in.
    pub mode: MxuMode,
    /// Rule-(c) A/B operand bytes at the mode's storage width and the
    /// call's logical dimensions.
    pub operand_bytes: u64,
    /// Fault telemetry of this one call: zero unless an armed plan ran the
    /// ABFT-checked body.
    pub faults: FaultSummary,
}

/// Rule (c) operand traffic of an `m x k` by `k x n` call: A/B elements
/// at logical dimensions and the mode's storage width (2 bytes FP16/BF16,
/// 4 bytes TF32/FP32, 8 bytes FP32C and FP64), not at the host element
/// size. A rank-k update reads op(A) once each way (`m = n`), a SYMM the
/// expanded square operand; a degenerate call moves nothing.
fn operand_bytes(mode: MxuMode, m: usize, k: usize, n: usize) -> u64 {
    if m == 0 || k == 0 || n == 0 {
        return 0;
    }
    ((m * k + k * n) * mode.element_bytes()) as u64
}

/// Number of worker threads the drivers use: `M3XU_THREADS` when set,
/// otherwise the machine's available parallelism — resolved exactly once,
/// at the default context's construction (see
/// [`context::default_context`]).
pub fn workers() -> usize {
    context::default_context().threads()
}

/// An element type the driver can multiply: the source-generic packers,
/// the alpha/beta scalar algebra, the SIMD-eligible panel executor, and
/// the per-k-chunk ABFT checksum pair of the checked body.
pub(crate) trait GemmElem: Copy + Default + Send + Sync + 'static {
    /// Bytes per reduction element in the packed value plane (`B` side) —
    /// what the cache-blocking plan sizes its panels around.
    const VAL_BYTES: usize;
    /// The alpha/beta scalar type (`f32`, [`Complex<f32>`], `f64`).
    type Scalar: Copy + Send + Sync + 'static;
    /// Bitwise `== 1` — the multiplication skip the bit-exactness
    /// contract of plain GEMM hangs on.
    fn is_unit(s: Self::Scalar) -> bool;
    /// Bitwise `== +0.0` — the "never read C" overwrite fast path.
    fn is_zero(s: Self::Scalar) -> bool;
    /// `s * x` (the plain IEEE multiply the reference oracle mirrors).
    fn scale(s: Self::Scalar, x: Self) -> Self;
    /// The HERK diagonal seed `beta·Re(c)` — imaginary parts of a
    /// Hermitian diagonal are never referenced (BLAS convention).
    fn real_diag_seed(beta: Self::Scalar, c: Self) -> Self;
    /// The value with any imaginary component forced to `+0.0`.
    fn force_real(x: Self) -> Self;
    /// Pack rows (the first operand) from any logical source, folding
    /// `alpha` before quantisation, reusing `storage`'s capacity.
    fn pack_rows<S: MatSource<Self>>(
        src: &S,
        alpha: Self::Scalar,
        mode: MxuMode,
        storage: PackedStorage,
    ) -> PackedOperand;
    /// Pack columns (the second operand) from any logical source.
    fn pack_cols<S: MatSource<Self>>(
        src: &S,
        mode: MxuMode,
        storage: PackedStorage,
    ) -> PackedOperand;
    /// Execute a whole `[k0, kend)` reduction panel on one tile in place
    /// on `acc` (row-major `rows x cols`), chunked at `frag_k` — one exact
    /// accumulate and rounding per chunk, eligible for the SIMD row
    /// pipeline.
    #[allow(clippy::too_many_arguments)]
    fn execute_panel(
        dpu: &mut DotProductUnit,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        k0: usize,
        kend: usize,
        frag_k: usize,
        acc: &mut [Self],
    );
    /// Expected checksum of k-chunk `[k0, kend)` of output tile `(ti,
    /// tj)`, from the call's [`BandSums`] of the **packed** operands and
    /// the tile's pre-chunk accumulator (`seeds`, row-major `rows ×
    /// cols`). Reading the packed planes (not the source matrices) is
    /// what makes every precision checkable: quantisation, alpha folding,
    /// and op views all happen at pack time, so the expected side
    /// predicts exactly what the MMA multiplies.
    fn expected_chunk(
        a: &BandSums,
        b: &BandSums,
        seeds: &[Self],
        ti: usize,
        tj: usize,
        k0: usize,
        kend: usize,
    ) -> Checksum;
    /// Execute one fragment chunk in place on `acc` through the same body
    /// as an unchecked chunk — the SIMD panel body where the unchecked
    /// panel runs it (FP32 family, FP32C), else the per-chunk element
    /// body — with the residue tap on: returns the computed checksum,
    /// after `fault` (if any) corrupted one output component on its way
    /// out of the datapath.
    #[allow(clippy::too_many_arguments)]
    fn execute_checked(
        dpu: &mut DotProductUnit,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        k0: usize,
        klen: usize,
        acc: &mut [Self],
        fault: Option<&MmaFault>,
    ) -> Checksum;
}

impl GemmElem for f32 {
    const VAL_BYTES: usize = std::mem::size_of::<f32>();
    type Scalar = f32;
    #[inline]
    fn is_unit(s: f32) -> bool {
        s.to_bits() == 1.0f32.to_bits()
    }
    #[inline]
    fn is_zero(s: f32) -> bool {
        s.to_bits() == 0.0f32.to_bits()
    }
    #[inline]
    fn scale(s: f32, x: f32) -> f32 {
        s * x
    }
    #[inline]
    fn real_diag_seed(beta: f32, c: f32) -> f32 {
        if Self::is_zero(beta) {
            0.0
        } else if Self::is_unit(beta) {
            c
        } else {
            beta * c
        }
    }
    #[inline]
    fn force_real(x: f32) -> f32 {
        x
    }
    fn pack_rows<S: MatSource<f32>>(
        src: &S,
        alpha: f32,
        mode: MxuMode,
        storage: PackedStorage,
    ) -> PackedOperand {
        PackedOperand::try_pack_rows_f32_src_in(src, alpha, mode, storage)
            .unwrap_or_else(|e| panic!("{e}"))
    }
    fn pack_cols<S: MatSource<f32>>(
        src: &S,
        mode: MxuMode,
        storage: PackedStorage,
    ) -> PackedOperand {
        PackedOperand::try_pack_cols_f32_src_in(src, mode, storage)
            .unwrap_or_else(|e| panic!("{e}"))
    }
    fn execute_panel(
        dpu: &mut DotProductUnit,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        k0: usize,
        kend: usize,
        frag_k: usize,
        acc: &mut [f32],
    ) {
        dpu.mma_f32_panel_into(a, b, r0, rows, c0, cols, k0, kend, frag_k, acc);
    }
    fn expected_chunk(
        a: &BandSums,
        b: &BandSums,
        seeds: &[f32],
        ti: usize,
        tj: usize,
        k0: usize,
        kend: usize,
    ) -> Checksum {
        abft::expected_chunk_f32(a, b, seeds, ti, tj, k0, kend)
    }
    fn execute_checked(
        dpu: &mut DotProductUnit,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        k0: usize,
        klen: usize,
        acc: &mut [f32],
        fault: Option<&MmaFault>,
    ) -> Checksum {
        let mut check = ChunkCheck::new(fault.copied());
        dpu.mma_f32_checked_into(a, b, r0, rows, c0, cols, k0, klen, acc, &mut check);
        check.computed
    }
}

impl GemmElem for Complex<f32> {
    const VAL_BYTES: usize = std::mem::size_of::<Complex<f32>>();
    type Scalar = Complex<f32>;
    #[inline]
    fn is_unit(s: Complex<f32>) -> bool {
        s.re.to_bits() == 1.0f32.to_bits() && s.im.to_bits() == 0.0f32.to_bits()
    }
    #[inline]
    fn is_zero(s: Complex<f32>) -> bool {
        s.re.to_bits() == 0.0f32.to_bits() && s.im.to_bits() == 0.0f32.to_bits()
    }
    #[inline]
    fn scale(s: Complex<f32>, x: Complex<f32>) -> Complex<f32> {
        s * x
    }
    #[inline]
    fn real_diag_seed(beta: Complex<f32>, c: Complex<f32>) -> Complex<f32> {
        // HERK's beta is real by signature; only its real part and C's
        // real part participate on the diagonal.
        if Self::is_zero(beta) {
            Complex::<f32>::ZERO
        } else if Self::is_unit(beta) {
            Complex::new(c.re, 0.0)
        } else {
            Complex::new(beta.re * c.re, 0.0)
        }
    }
    #[inline]
    fn force_real(x: Complex<f32>) -> Complex<f32> {
        Complex::new(x.re, 0.0)
    }
    fn pack_rows<S: MatSource<Complex<f32>>>(
        src: &S,
        alpha: Complex<f32>,
        _mode: MxuMode,
        storage: PackedStorage,
    ) -> PackedOperand {
        PackedOperand::pack_rows_c32_src_in(src, alpha, storage)
    }
    fn pack_cols<S: MatSource<Complex<f32>>>(
        src: &S,
        _mode: MxuMode,
        storage: PackedStorage,
    ) -> PackedOperand {
        PackedOperand::pack_cols_c32_src_in(src, storage)
    }
    fn execute_panel(
        dpu: &mut DotProductUnit,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        k0: usize,
        kend: usize,
        frag_k: usize,
        acc: &mut [Complex<f32>],
    ) {
        dpu.mma_c32_panel_into(a, b, r0, rows, c0, cols, k0, kend, frag_k, acc);
    }
    fn expected_chunk(
        a: &BandSums,
        b: &BandSums,
        seeds: &[Complex<f32>],
        ti: usize,
        tj: usize,
        k0: usize,
        kend: usize,
    ) -> Checksum {
        abft::expected_chunk_c32(a, b, seeds, ti, tj, k0, kend)
    }
    fn execute_checked(
        dpu: &mut DotProductUnit,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        k0: usize,
        klen: usize,
        acc: &mut [Complex<f32>],
        fault: Option<&MmaFault>,
    ) -> Checksum {
        let mut check = ChunkCheck::new(fault.copied());
        dpu.mma_c32_checked_into(a, b, r0, rows, c0, cols, k0, klen, acc, &mut check);
        check.computed
    }
}

impl GemmElem for f64 {
    const VAL_BYTES: usize = std::mem::size_of::<f64>();
    type Scalar = f64;
    #[inline]
    fn is_unit(s: f64) -> bool {
        s.to_bits() == 1.0f64.to_bits()
    }
    #[inline]
    fn is_zero(s: f64) -> bool {
        s.to_bits() == 0.0f64.to_bits()
    }
    #[inline]
    fn scale(s: f64, x: f64) -> f64 {
        s * x
    }
    #[inline]
    fn real_diag_seed(beta: f64, c: f64) -> f64 {
        if Self::is_zero(beta) {
            0.0
        } else if Self::is_unit(beta) {
            c
        } else {
            beta * c
        }
    }
    #[inline]
    fn force_real(x: f64) -> f64 {
        x
    }
    fn pack_rows<S: MatSource<f64>>(
        src: &S,
        alpha: f64,
        mode: MxuMode,
        storage: PackedStorage,
    ) -> PackedOperand {
        PackedOperand::try_pack_rows_f64_src_in(src, alpha, mode, storage)
            .unwrap_or_else(|e| panic!("{e}"))
    }
    fn pack_cols<S: MatSource<f64>>(
        src: &S,
        mode: MxuMode,
        storage: PackedStorage,
    ) -> PackedOperand {
        PackedOperand::try_pack_cols_f64_src_in(src, mode, storage)
            .unwrap_or_else(|e| panic!("{e}"))
    }
    fn execute_panel(
        dpu: &mut DotProductUnit,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        k0: usize,
        kend: usize,
        frag_k: usize,
        acc: &mut [f64],
    ) {
        dpu.mma_f64_panel_into(a, b, r0, rows, c0, cols, k0, kend, frag_k, acc);
    }
    fn expected_chunk(
        a: &BandSums,
        b: &BandSums,
        seeds: &[f64],
        ti: usize,
        tj: usize,
        k0: usize,
        kend: usize,
    ) -> Checksum {
        abft::expected_chunk_f64(a, b, seeds, ti, tj, k0, kend)
    }
    fn execute_checked(
        dpu: &mut DotProductUnit,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        k0: usize,
        klen: usize,
        acc: &mut [f64],
        fault: Option<&MmaFault>,
    ) -> Checksum {
        // The FMA row rounds in one instruction and keeps no exact
        // pre-rounding value to take a residue from: checked emulated-FP64
        // chunks run the slice/Kulisch body.
        let mut check = ChunkCheck::new(fault.copied());
        dpu.mma_f64_into(a, b, r0, rows, c0, cols, k0, klen, acc, Some(&mut check));
        check.computed
    }
}

/// A raw output pointer the tile tasks write through. Tiles are disjoint
/// regions of the output, so concurrent writes never alias.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper, not the bare raw pointer.
    fn get(&self) -> *mut T {
        self.0
    }
}

thread_local! {
    /// One dot-product unit per thread, reused across every fragment of
    /// every GEMM — its wide Kulisch registers never hit the allocator on
    /// the hot path.
    static DPU: RefCell<DotProductUnit> = RefCell::new(DotProductUnit::new());
}

/// Executions the checked body grants one k-chunk before declaring its
/// tile unrecoverable. Sites include the attempt number, so a fault plan
/// with rate < 1 usually clears within a retry or two (the residual
/// failure probability is `rate^4` per chunk); a plan with rate 1.0
/// exhausts them and exercises the error path.
const MAX_TILE_ATTEMPTS: u64 = 4;

/// Pool-epoch re-submissions the checked body performs when an injected
/// task panic (or an abruptly-killed worker) loses a whole epoch.
const MAX_EPOCH_ATTEMPTS: u64 = 4;

/// The output region a driver call writes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OutRegion {
    /// Every output tile (GEMM/SYMM/HEMM).
    Full,
    /// Only tiles intersecting the triangle (SYRK/HERK).
    Tri(Triangle),
}

impl OutRegion {
    /// True if logical output element `(i, j)` is written by this region.
    #[inline]
    fn writes(self, i: usize, j: usize) -> bool {
        match self {
            OutRegion::Full => true,
            OutRegion::Tri(t) => t.contains(i, j),
        }
    }
}

/// One driver call's parameters: `D = alpha·a·b + beta·C` in `mode` over
/// `region`. The operand views (`op`, mirrors, SYRK's second operand)
/// are the sources handed to [`drive`]; everything else an operation
/// needs is here.
pub(crate) struct Call<S> {
    /// Operation name reported by [`M3xuError::FaultDetected`].
    pub op: &'static str,
    /// The engine every fragment executes in.
    pub mode: MxuMode,
    /// Folded into the first operand's elements before quantisation
    /// (bitwise-skipped at 1).
    pub alpha: S,
    /// Folded into the tile seeds: 1 reads `C` as is, `+0.0` never reads
    /// its values.
    pub beta: S,
    /// The output region written; the rest of `C` passes through.
    pub region: OutRegion,
    /// HERK: diagonal seeds and results are forced exactly real.
    pub real_diag: bool,
}

impl<S: Copy> Call<S> {
    /// A full-output call; plain GEMM is `Call::new(op, mode, 1, 1)`.
    pub(crate) fn new(op: &'static str, mode: MxuMode, alpha: S, beta: S) -> Self {
        Call {
            op,
            mode,
            alpha,
            beta,
            region: OutRegion::Full,
            real_diag: false,
        }
    }

    /// The beta-folded seed of output element `(i, j)`: a pure function
    /// of `C`, shared by the up-front fold of `D` and the checked body's
    /// in-task seeding, so an epoch rerun starts from identical state.
    #[inline]
    fn seed<E: GemmElem<Scalar = S>>(&self, c: &Matrix<E>, i: usize, j: usize) -> E {
        if !self.region.writes(i, j) {
            c.get(i, j)
        } else if self.real_diag && i == j {
            E::real_diag_seed(self.beta, c.get(i, j))
        } else if E::is_zero(self.beta) {
            E::default()
        } else if E::is_unit(self.beta) {
            c.get(i, j)
        } else {
            E::scale(self.beta, c.get(i, j))
        }
    }
}

/// One scheduled output tile: its grid coordinates and clipped extent.
struct Tile {
    ti: usize,
    tj: usize,
    i0: usize,
    j0: usize,
    rows: usize,
    cols: usize,
}

/// What both tile bodies share: the packed operands, the tile schedule,
/// and the output `D` they write through.
struct Job<'a, E: GemmElem> {
    call: &'a Call<E::Scalar>,
    c: &'a Matrix<E>,
    pa: &'a PackedOperand,
    pb: &'a PackedOperand,
    frag: MmaShape,
    m: usize,
    n: usize,
    k: usize,
    tiles: Vec<(usize, usize)>,
    d: SendPtr<E>,
}

impl<E: GemmElem> Job<'_, E> {
    fn tile(&self, tid: usize) -> Tile {
        let (ti, tj) = self.tiles[tid];
        let (i0, j0) = (ti * self.frag.m, tj * self.frag.n);
        Tile {
            ti,
            tj,
            i0,
            j0,
            rows: self.frag.m.min(self.m - i0),
            cols: self.frag.n.min(self.n - j0),
        }
    }

    /// The epilogue: write one finished tile into `D`. Full-region tiles
    /// and off-diagonal triangular tiles (which lie entirely inside the
    /// triangle) bulk-store; only the diagonal tiles of a triangular
    /// region store element-predicated, so the unreferenced triangle of
    /// `C` stays byte-identical in `D`.
    fn store(&self, t: &Tile, acc: &[E]) {
        let n = self.n;
        if matches!(self.call.region, OutRegion::Full) || t.ti != t.tj {
            for (i, row) in acc.chunks_exact(t.cols).enumerate() {
                // SAFETY: this tile owns its disjoint region of D; no
                // other task touches it, the pointer outlives the pool
                // run, and epochs (and epoch reruns) run sequentially.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        row.as_ptr(),
                        self.d.get().add((t.i0 + i) * n + t.j0),
                        t.cols,
                    );
                }
            }
            return;
        }
        for i in 0..t.rows {
            for j in 0..t.cols {
                let (gi, gj) = (t.i0 + i, t.j0 + j);
                if !self.call.region.writes(gi, gj) {
                    continue;
                }
                let mut v = acc[i * t.cols + j];
                if self.call.real_diag && gi == gj {
                    v = E::force_real(v);
                }
                // SAFETY: as above — a predicated store into this tile's
                // disjoint region.
                unsafe {
                    *self.d.get().add(gi * n + gj) = v;
                }
            }
        }
    }

    /// The production body. L2 epochs: one pool dispatch per `kc2`-deep
    /// reduction slice, so the whole tile schedule consumes one
    /// L2-resident band of `B`'s planes before the next band is touched.
    /// Epoch boundaries are fragment boundaries, so each tile's chunk
    /// sequence is identical to the unblocked loop. Tiles seed from `D`:
    /// the beta-folded base on the first epoch, the previous epoch's
    /// partials afterwards (on a diagonal tile the out-of-triangle lanes
    /// seed the untouched `C` bytes, and the predicated store discards
    /// them).
    fn run_unchecked(&self, pool: &WorkerPool, simd: &SimdChunks) {
        let plan = KPlan::new(self.frag.k, self.k, self.n, E::VAL_BYTES);
        let mut ke0 = 0usize;
        while ke0 < self.k {
            let ke1 = (ke0 + plan.kc2).min(self.k);
            pool.run(self.tiles.len(), |tid| {
                let t = self.tile(tid);
                let mut acc = [E::default(); ACC_SCRATCH]; // >= frag.m * frag.n, checked at entry
                let acc = &mut acc[..t.rows * t.cols];
                for (i, row) in acc.chunks_exact_mut(t.cols).enumerate() {
                    // SAFETY: as in `store` — this tile's disjoint region;
                    // the read sees exactly what the previous epoch stored.
                    unsafe {
                        std::ptr::copy_nonoverlapping(
                            self.d.get().add((t.i0 + i) * self.n + t.j0) as *const E,
                            row.as_mut_ptr(),
                            t.cols,
                        );
                    }
                }
                DPU.with(|dpu| {
                    // L1 panels inside the epoch: each keeps one 8-column
                    // slice of `B` resident across the tile's output rows.
                    simd.meter(&mut dpu.borrow_mut(), |dpu| {
                        let mut kb = ke0;
                        while kb < ke1 {
                            let kbend = (kb + plan.kc1).min(ke1);
                            E::execute_panel(
                                dpu,
                                self.pa,
                                self.pb,
                                t.i0,
                                t.rows,
                                t.j0,
                                t.cols,
                                kb,
                                kbend,
                                self.frag.k,
                                acc,
                            );
                            kb = kbend;
                        }
                    })
                });
                self.store(&t, acc);
            });
            ke0 = ke1;
        }
    }

    /// The ABFT-checked, self-healing body: every fragment chunk executes
    /// checked against the expected checksum of its packed operand bands,
    /// with the fault-injection hooks of `plan`. Returns the invocation's
    /// [`FaultSummary`] and the number of tiles left unrepaired. The
    /// operands' [`BandSums`] are built once, up front, and every tile of
    /// a band reads them; each execution's element-chunks are metered
    /// into `simd` as in the production body (a re-executed chunk counts
    /// again).
    ///
    /// Recovery is hierarchical, mirroring the blast radius of each fault
    /// class:
    ///
    /// * a **checksum mismatch** restores the chunk's seeds and re-executes
    ///   only the corrupted k-chunk (each attempt is a fresh fault site, so
    ///   injected corruption usually clears) — up to `MAX_TILE_ATTEMPTS`
    ///   executions per chunk;
    /// * a **lost pool epoch** (injected task panic, killed worker) is caught
    ///   with `catch_unwind` and the whole tile schedule re-submitted — up
    ///   to `MAX_EPOCH_ATTEMPTS`. Tiles seed **in-task** from `C` (a pure
    ///   function), never from a partly written `D`, so every rerun is
    ///   exactly idempotent.
    fn run_checked(
        &self,
        pool: &WorkerPool,
        plan: &FaultPlan,
        simd: &SimdChunks,
    ) -> (FaultSummary, u64) {
        // One salt per driver invocation: a serve-layer retry of this whole
        // call draws an independent fault schedule.
        let salt = plan.next_call();
        let (sa, sb) = (
            BandSums::new(self.pa, self.frag.m),
            BandSums::new(self.pb, self.frag.n),
        );
        // Cumulative telemetry across every epoch attempt.
        let detected = AtomicU64::new(0);
        let retries = AtomicU64::new(0);
        // Per-epoch outcome: tiles that exhausted their attempts, and the
        // mismatches those tiles could not repair. Reset before each epoch —
        // a lost epoch's failures get fresh attempts on the rerun, so only
        // the final epoch's failures count as uncorrected.
        let failed_tiles = AtomicU64::new(0);
        let epoch_uncorrected = AtomicU64::new(0);
        let mut epoch_ok = false;
        for epoch_attempt in 0..MAX_EPOCH_ATTEMPTS {
            failed_tiles.store(0, Ordering::Relaxed);
            epoch_uncorrected.store(0, Ordering::Relaxed);
            let task = |tid: usize| {
                match plan.task_fault(salt, epoch_attempt, tid as u64) {
                    Some(TaskFault::Stall { millis }) => {
                        std::thread::sleep(std::time::Duration::from_millis(millis));
                    }
                    Some(TaskFault::Panic) => {
                        panic!("m3xu fault injection: task panic (tile {tid})");
                    }
                    None => {}
                }
                let t = self.tile(tid);
                let mut acc = [E::default(); ACC_SCRATCH]; // >= frag.m * frag.n, checked at entry
                let acc = &mut acc[..t.rows * t.cols];
                // Snapshot of the accumulator at each chunk's entry: restoring
                // it makes a chunk re-execution exactly idempotent, so a
                // mismatch re-runs only the corrupted chunk, never the tile's
                // whole K loop.
                let mut seeds = [E::default(); ACC_SCRATCH];
                let seeds = &mut seeds[..t.rows * t.cols];
                for (i, row) in acc.chunks_exact_mut(t.cols).enumerate() {
                    for (j, v) in row.iter_mut().enumerate() {
                        *v = self.call.seed(self.c, t.i0 + i, t.j0 + j);
                    }
                }
                let mut tile_detected = 0u64;
                let mut tile_retries = 0u64;
                let mut tile_uncorrected = 0u64;
                let mut tile_failed = false;
                DPU.with(|dpu| {
                    simd.meter(&mut dpu.borrow_mut(), |dpu| {
                        for (ci, k0) in (0..self.k).step_by(self.frag.k).enumerate() {
                            let kend = (k0 + self.frag.k).min(self.k);
                            seeds.copy_from_slice(acc);
                            // The expected side reads the chunk's seeds once; the
                            // retries below restore them bit-exactly.
                            let expected = E::expected_chunk(&sa, &sb, seeds, t.ti, t.tj, k0, kend);
                            let mut chunk_fails = 0u64;
                            let mut chunk_ok = false;
                            for attempt in 0..MAX_TILE_ATTEMPTS {
                                if attempt > 0 {
                                    acc.copy_from_slice(seeds);
                                }
                                // Specials bypass the multiplier array: an
                                // unverifiable chunk is not a fault target.
                                let fault = if expected.ok {
                                    plan.mma_fault(
                                        salt,
                                        epoch_attempt,
                                        tid as u64,
                                        ci as u64,
                                        attempt,
                                    )
                                } else {
                                    None
                                };
                                let computed = E::execute_checked(
                                    dpu,
                                    self.pa,
                                    self.pb,
                                    t.i0,
                                    t.rows,
                                    t.j0,
                                    t.cols,
                                    k0,
                                    self.frag.k,
                                    acc,
                                    fault.as_ref(),
                                );
                                if expected.matches(&computed) {
                                    chunk_ok = true;
                                    break;
                                }
                                chunk_fails += 1;
                            }
                            tile_detected += chunk_fails;
                            if chunk_ok {
                                // Every detection triggered one repairing rerun.
                                tile_retries += chunk_fails;
                            } else {
                                tile_retries += chunk_fails.saturating_sub(1);
                                tile_uncorrected += chunk_fails;
                                tile_failed = true;
                                break;
                            }
                        }
                    })
                });
                detected.fetch_add(tile_detected, Ordering::Relaxed);
                retries.fetch_add(tile_retries, Ordering::Relaxed);
                if tile_failed {
                    epoch_uncorrected.fetch_add(tile_uncorrected, Ordering::Relaxed);
                    failed_tiles.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.store(&t, acc);
                }
            };
            // An injected task panic (or a worker killed mid-epoch) surfaces
            // as a panic out of `run` once the epoch has drained; catch it
            // and re-submit rather than unwinding through the caller.
            match catch_unwind(AssertUnwindSafe(|| pool.run(self.tiles.len(), task))) {
                Ok(()) => {
                    epoch_ok = true;
                    break;
                }
                Err(_) => {
                    detected.fetch_add(1, Ordering::Relaxed);
                    if epoch_attempt + 1 < MAX_EPOCH_ATTEMPTS {
                        retries.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        let detected = detected.load(Ordering::Relaxed);
        let (failed, uncorrected) = if epoch_ok {
            (
                failed_tiles.load(Ordering::Relaxed),
                epoch_uncorrected.load(Ordering::Relaxed),
            )
        } else {
            // Epochs exhausted: the whole schedule is suspect, and the final
            // lost epoch is the one detection nothing repaired.
            (self.tiles.len() as u64, 1)
        };
        let summary = FaultSummary {
            detected,
            corrected: detected - uncorrected,
            retries: retries.load(Ordering::Relaxed),
        };
        (summary, failed)
    }
}

/// The GEMM and BLAS-3 driver: `D = alpha·a·b + beta·C` under `call` on
/// `ctx`'s pool, where `a` and `b` are logical sources (plain matrices,
/// op views or mirror views) and alpha folds into `a`.
///
/// The pipeline: validate shapes, fold beta into the written region of
/// `D`, schedule the output tiles (a triangular region keeps only the
/// `T(T+1)/2` tiles that intersect it), pack each operand once into the
/// context's scratch arena, then run one tile body — the production body
/// when `plan` is `None`, the ABFT-checked self-healing body under an
/// armed plan. Anything the checked body cannot repair surfaces as
/// [`M3xuError::FaultDetected`] carrying the telemetry counts: the driver
/// never panics and never returns silently-corrupt data the checksums
/// can see.
///
/// Either way the call records one [`GemmSample`] into the context: a
/// pure function of the fragment grid (never inflated by retries), so
/// instruction-count cross-validation holds unchanged; verification work
/// and re-executions go to the result's [`FaultSummary`] and the
/// context's fault counters instead. The result carries the sample's
/// mode, statistics and operand bytes too: it reports what the context
/// recorded.
pub(crate) fn drive<E, SA, SB>(
    ctx: &M3xuContext,
    call: &Call<E::Scalar>,
    a: &SA,
    b: &SB,
    c: &Matrix<E>,
    plan: Option<&FaultPlan>,
) -> Result<GemmResult<E>, M3xuError>
where
    E: GemmElem,
    SA: MatSource<E>,
    SB: MatSource<E>,
{
    validate_shapes(a, b, c)?;
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mode = call.mode;
    let frag = MmaShape::BASELINE_FP16.for_mode(mode);
    if frag.m * frag.n > ACC_SCRATCH {
        // The per-tile accumulator is a fixed stack array; a fragment
        // shape that outgrows it must be rejected up front, not trusted
        // to a slice-bounds panic inside a pooled task.
        return Err(M3xuError::FragmentOverflow {
            needed: frag.m * frag.n,
            capacity: ACC_SCRATCH,
        });
    }
    let (tiles_m, tiles_n, k_chunks) = frag.grid(m, n, k);

    // Fold beta into the written region of D up front: the production
    // body's first-epoch seed and the final value of the degenerate
    // k = 0 path. beta == 1 leaves the clone untouched (plain GEMM pays
    // nothing); beta == +0.0 never reads C's values.
    let mut d = c.clone();
    if !E::is_unit(call.beta) || call.real_diag {
        for i in 0..m {
            for j in 0..n {
                if call.region.writes(i, j) {
                    d.set(i, j, call.seed(c, i, j));
                }
            }
        }
    }

    // A degenerate call still counts as a call; it moves no operand
    // bytes and issues no fragments.
    let mut sample = GemmSample {
        mode,
        stats: MmaStats::default(),
        tiles: 0,
        fragments: 0,
        operand_bytes: 0,
        pack_ns: 0,
        exec_ns: 0,
        simd: SimdChunks::default(),
    };
    let mut summary = FaultSummary::default();
    if k_chunks > 0 && m > 0 && n > 0 {
        let tiles: Vec<(usize, usize)> = (0..tiles_m)
            .flat_map(|ti| (0..tiles_n).map(move |tj| (ti, tj)))
            .filter(|&(ti, tj)| match call.region {
                OutRegion::Full => true,
                OutRegion::Tri(Triangle::Lower) => tj <= ti,
                OutRegion::Tri(Triangle::Upper) => ti <= tj,
            })
            .collect();
        let scheduled = tiles.len();

        // Decode each operand exactly once for the whole call — entry
        // planes *and* the f32 value mirrors the SIMD row kernels read —
        // reusing the context's packed-operand arena.
        let (sa, sb) = ctx.take_scratch();
        let t_pack = Instant::now();
        let pa = E::pack_rows(a, call.alpha, mode, sa);
        let pb = E::pack_cols(b, mode, sb);
        sample.pack_ns = t_pack.elapsed().as_nanos() as u64;

        let job = Job {
            call,
            c,
            pa: &pa,
            pb: &pb,
            frag,
            m,
            n,
            k,
            tiles,
            d: SendPtr(d.as_mut_slice().as_mut_ptr()),
        };
        let t_exec = Instant::now();
        let failed = match plan {
            None => {
                job.run_unchecked(ctx.pool(), &sample.simd);
                0
            }
            Some(plan) => {
                let (s, failed) = job.run_checked(ctx.pool(), plan, &sample.simd);
                ctx.counters().record_faults(&s);
                summary = s;
                failed
            }
        };
        sample.exec_ns = t_exec.elapsed().as_nanos() as u64;
        ctx.put_scratch(pa.into_storage(), pb.into_storage());
        if failed > 0 {
            return Err(M3xuError::FaultDetected {
                op: call.op,
                mode,
                tiles: failed as usize,
                detected: summary.detected,
                corrected: summary.corrected,
                retries: summary.retries,
            });
        }

        // Statistics are a pure function of the fragment grid — identical
        // to what per-fragment counters would sum to, without atomics.
        let frags = (scheduled * k_chunks) as u64;
        sample.stats = fragment_stats(mode, frag).scaled(frags);
        sample.tiles = scheduled as u64;
        sample.fragments = frags;
        sample.operand_bytes = operand_bytes(mode, m, k, n);
    }
    ctx.counters().record(&sample);
    Ok(GemmResult {
        d,
        stats: sample.stats,
        mode,
        operand_bytes: sample.operand_bytes,
        faults: summary,
    })
}

/// The original per-tile drivers: copy each fragment tile, re-decode it
/// through the [`Mxu`](m3xu_mxu::unit::Mxu) entry points, spawn a scoped
/// thread team per call. Kept as the differential-test oracle and the
/// benchmark baseline; the packed drivers above are bit-identical to it.
pub mod baseline {
    use super::{operand_bytes, GemmPrecision, GemmResult};
    use m3xu_fp::complex::Complex;
    use m3xu_mxu::fault::FaultSummary;
    use m3xu_mxu::matrix::Matrix;
    use m3xu_mxu::mma::{MmaShape, MmaStats};
    use m3xu_mxu::modes::MxuMode;
    use m3xu_mxu::unit::{Mxu, MxuConfig};

    /// Per-thread partial result: owned output row-stripes plus counters.
    type StripeResult<T> = (Vec<(usize, Matrix<T>)>, MmaStats);

    fn workers() -> usize {
        super::workers().min(8)
    }

    /// The one generic row-stripe driver behind both baseline entry
    /// points: shard output row-stripes over scoped threads, accumulate
    /// each tile's `K` loop through the per-fragment `mma` dispatch.
    /// Real and complex GEMM differ only in that closure.
    fn stripe_gemm<T, F>(
        mode: MxuMode,
        a: &Matrix<T>,
        b: &Matrix<T>,
        c: &Matrix<T>,
        mma: F,
    ) -> GemmResult<T>
    where
        T: Copy + Default + Send + Sync,
        F: Fn(&mut Mxu, &Matrix<T>, &Matrix<T>, &Matrix<T>) -> Matrix<T> + Sync,
    {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        super::validate_shapes(a, b, c).unwrap_or_else(|e| panic!("{e}"));

        let frag = MmaShape::BASELINE_FP16.for_mode(mode);
        let row_tiles: Vec<usize> = (0..m).step_by(frag.m).collect();
        let mut d = Matrix::<T>::zeros(m, n);
        let mut total = MmaStats::default();

        // Shard output row-stripes across threads; each thread owns a
        // disjoint set of output rows, so the writes below never alias.
        let nw = workers().min(row_tiles.len().max(1));
        let chunks: Vec<&[usize]> = row_tiles
            .chunks(row_tiles.len().div_ceil(nw.max(1)).max(1))
            .collect();

        let mma = &mma;
        let results: Vec<StripeResult<T>> = std::thread::scope(|s| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|chunk| {
                    s.spawn(move || {
                        let mut mxu = Mxu::new(MxuConfig::default());
                        let mut out = Vec::new();
                        for &i0 in chunk.iter() {
                            let mut stripe = Matrix::<T>::zeros(frag.m, n);
                            for j0 in (0..n).step_by(frag.n) {
                                // Accumulate over K in fragment steps.
                                let mut acc = c.tile(i0, j0, frag.m, frag.n);
                                for k0 in (0..k).step_by(frag.k) {
                                    let at = a.tile(i0, k0, frag.m, frag.k);
                                    let bt = b.tile(k0, j0, frag.k, frag.n);
                                    acc = mma(&mut mxu, &at, &bt, &acc);
                                }
                                stripe.store_tile(0, j0, &acc);
                            }
                            out.push((i0, stripe));
                        }
                        let stats = mxu.counters.for_mode(mode);
                        (out, stats)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for (stripes, stats) in results {
            total.merge(&stats);
            for (i0, stripe) in stripes {
                d.store_tile(i0, 0, &stripe);
            }
        }
        GemmResult {
            d,
            stats: total,
            mode,
            operand_bytes: operand_bytes(mode, m, k, n),
            faults: FaultSummary::default(),
        }
    }

    /// The seed tiled FP32 GEMM: row-stripe sharding over scoped threads.
    pub fn gemm_f32(
        precision: GemmPrecision,
        a: &Matrix<f32>,
        b: &Matrix<f32>,
        c: &Matrix<f32>,
    ) -> GemmResult<f32> {
        stripe_gemm(
            precision.mode(),
            a,
            b,
            c,
            move |mxu, at, bt, acc| match precision {
                GemmPrecision::M3xuFp32 => mxu.mma_fp32(at, bt, acc),
                GemmPrecision::Tf32 => mxu.mma_tf32(at, bt, acc),
                GemmPrecision::Fp16 => mxu.mma_fp16(at, bt, acc),
                GemmPrecision::Bf16 => mxu.mma_bf16(at, bt, acc),
                GemmPrecision::Fp32Fast | GemmPrecision::Fp64Emulated => panic!(
                    "no baseline tile executor for {:?}; the packed driver is \
                     the only engine for this precision",
                    precision
                ),
            },
        )
    }

    /// The seed tiled FP32C CGEMM.
    pub fn cgemm_c32(
        a: &Matrix<Complex<f32>>,
        b: &Matrix<Complex<f32>>,
        c: &Matrix<Complex<f32>>,
    ) -> GemmResult<Complex<f32>> {
        stripe_gemm(MxuMode::M3xuFp32c, a, b, c, |mxu, at, bt, acc| {
            mxu.mma_fp32c(at, bt, acc)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::default_context;
    use m3xu_fp::ulp::ErrorStats;

    /// Real GEMM on the process-wide default context.
    fn gemm_f32(
        precision: GemmPrecision,
        a: &Matrix<f32>,
        b: &Matrix<f32>,
        c: &Matrix<f32>,
    ) -> GemmResult<f32> {
        default_context().try_gemm_f32(precision, a, b, c).unwrap()
    }

    /// Complex GEMM on the process-wide default context.
    fn cgemm_c32(
        a: &Matrix<Complex<f32>>,
        b: &Matrix<Complex<f32>>,
        c: &Matrix<Complex<f32>>,
    ) -> GemmResult<Complex<f32>> {
        default_context().try_cgemm_c32(a, b, c).unwrap()
    }

    /// Per-fragment exact-accumulation reference with the same K-chunking
    /// order as the driver (round once per fragment).
    fn fragment_reference(
        a: &Matrix<f32>,
        b: &Matrix<f32>,
        c: &Matrix<f32>,
        frag_k: usize,
    ) -> Matrix<f32> {
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            let mut acc = c.get(i, j);
            for k0 in (0..a.cols()).step_by(frag_k) {
                let mut kul = m3xu_fp::Kulisch::new();
                kul.add_f64(acc as f64);
                for kk in k0..(k0 + frag_k).min(a.cols()) {
                    kul.add_product_f32(a.get(i, kk), b.get(kk, j));
                }
                acc = kul.to_f32();
            }
            acc
        })
    }

    /// Per-fragment truncated-schedule reference for
    /// [`GemmPrecision::Fp32Fast`]: the 12+12 slice split with the lo·lo
    /// cross term dropped, accumulated exactly per K-chunk.
    fn fast_fragment_reference(
        a: &Matrix<f32>,
        b: &Matrix<f32>,
        c: &Matrix<f32>,
        frag_k: usize,
    ) -> Matrix<f32> {
        let cfg = m3xu_fp::split::FP32_SLICES_EXACT;
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            let mut acc = c.get(i, j);
            for k0 in (0..a.cols()).step_by(frag_k) {
                let mut kul = m3xu_fp::Kulisch::new();
                kul.add_f64(acc as f64);
                for kk in k0..(k0 + frag_k).min(a.cols()) {
                    let sa = cfg.split_f32(a.get(i, kk));
                    let sb = cfg.split_f32(b.get(kk, j));
                    kul.add_product_f64(sa.get(0), sb.get(0));
                    kul.add_product_f64(sa.get(0), sb.get(1));
                    kul.add_product_f64(sa.get(1), sb.get(0));
                }
                acc = kul.to_f32();
            }
            acc
        })
    }

    /// Per-fragment exact reference for [`GemmPrecision::Fp64Emulated`]:
    /// all 25 slice cross products of the 5-slice `f64` split, rounded to
    /// `f64` once per K-chunk.
    fn f64_fragment_reference(
        a: &Matrix<f64>,
        b: &Matrix<f64>,
        c: &Matrix<f64>,
        frag_k: usize,
    ) -> Matrix<f64> {
        let cfg = m3xu_fp::split::FP64_SLICES_EMULATED;
        let n = cfg.slices() as usize;
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            let mut acc = c.get(i, j);
            for k0 in (0..a.cols()).step_by(frag_k) {
                let mut kul = m3xu_fp::Kulisch::new();
                kul.add_f64(acc);
                for kk in k0..(k0 + frag_k).min(a.cols()) {
                    let sa = cfg.split_f64(a.get(i, kk));
                    let sb = cfg.split_f64(b.get(kk, j));
                    for si in 0..n {
                        for sj in 0..n {
                            kul.add_product_f64(sa.get(si), sb.get(sj));
                        }
                    }
                }
                acc = kul.to_f64();
            }
            acc
        })
    }

    #[test]
    fn fp32_fast_gemm_bit_exact_vs_truncated_fragment_reference() {
        let a = Matrix::<f32>::random(37, 19, 11);
        let b = Matrix::<f32>::random(19, 23, 12);
        let c = Matrix::<f32>::random(37, 23, 13);
        let r = gemm_f32(GemmPrecision::Fp32Fast, &a, &b, &c);
        let expect = fast_fragment_reference(&a, &b, &c, 2);
        assert_eq!(r.d, expect);
        // The truncation is real: the fast engine must not silently run
        // the full 4-term schedule.
        let exact = gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
        assert_ne!(r.d, exact.d);
    }

    #[test]
    fn fp64_emulated_gemm_bit_exact_vs_fragment_reference() {
        let a = Matrix::<f64>::random_f64(37, 19, 21);
        let b = Matrix::<f64>::random_f64(19, 23, 22);
        let c = Matrix::<f64>::random_f64(37, 23, 23);
        let r = default_context()
            .try_gemm_f64(GemmPrecision::Fp64Emulated, &a, &b, &c)
            .unwrap();
        let expect = f64_fragment_reference(&a, &b, &c, 1);
        assert_eq!(r.d, expect);
    }

    #[test]
    fn fp64_emulated_identity_passthrough() {
        let a = Matrix::<f64>::random_f64(16, 16, 31);
        let i = Matrix::<f64>::identity_f64(16);
        let z = Matrix::<f64>::zeros(16, 16);
        let r = default_context()
            .try_gemm_f64(GemmPrecision::Fp64Emulated, &a, &i, &z)
            .unwrap();
        assert_eq!(r.d, a);
    }

    #[test]
    fn precision_guards_reject_mismatched_element_types() {
        let a32 = Matrix::<f32>::random(4, 4, 1);
        let c32 = Matrix::<f32>::zeros(4, 4);
        let ctx = default_context();
        let err = ctx
            .try_gemm_f32(GemmPrecision::Fp64Emulated, &a32, &a32, &c32)
            .unwrap_err();
        assert!(matches!(
            err,
            M3xuError::ModeMismatch {
                got: MxuMode::M3xuFp64Emu,
                ..
            }
        ));

        let a64 = Matrix::<f64>::random_f64(4, 4, 1);
        let c64 = Matrix::<f64>::zeros(4, 4);
        for precision in GemmPrecision::ALL {
            if precision == GemmPrecision::Fp64Emulated {
                assert!(ctx.try_gemm_f64(precision, &a64, &a64, &c64).is_ok());
            } else {
                let err = ctx.try_gemm_f64(precision, &a64, &a64, &c64).unwrap_err();
                assert!(
                    matches!(err, M3xuError::ModeMismatch { got, .. } if got == precision.mode())
                );
            }
        }
    }

    #[test]
    fn fp64_emulated_stats_follow_the_lane_law() {
        let ctx = crate::context::M3xuContext::with_threads(2);
        let a = Matrix::<f64>::random_f64(64, 64, 41);
        let b = Matrix::<f64>::random_f64(64, 64, 42);
        let c = Matrix::<f64>::zeros(64, 64);
        let r = ctx
            .try_gemm_f64(GemmPrecision::Fp64Emulated, &a, &b, &c)
            .unwrap();
        let stats = ctx.stats();
        assert_eq!(r.mode, MxuMode::M3xuFp64Emu);
        assert_eq!(r.operand_bytes, stats.operand_bytes);
        let per = stats.mode(MxuMode::M3xuFp64Emu);
        // 8x8 tiles, frag_k = 1: (64/8) * (64/8) * 64 fragments.
        assert_eq!(per.instructions, 8 * 8 * 64);
        assert_eq!(
            per.steps,
            per.instructions * MxuMode::M3xuFp64Emu.steps() as u64
        );
        // 25 slice products per scalar MAC; 8*8*1 MACs per fragment.
        assert_eq!(per.lane_products, per.instructions * 8 * 8 * 25);
        // Operand traffic at the f64 storage width.
        assert_eq!(stats.operand_bytes, (64 * 64 + 64 * 64) * 8);
    }

    #[test]
    fn m3xu_gemm_bit_exact_vs_fragment_reference() {
        let a = Matrix::<f32>::random(37, 19, 1); // awkward sizes: padding paths
        let b = Matrix::<f32>::random(19, 23, 2);
        let c = Matrix::<f32>::random(37, 23, 3);
        let r = gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
        let expect = fragment_reference(&a, &b, &c, 2);
        assert_eq!(r.d, expect);
    }

    #[test]
    fn m3xu_gemm_matches_simt_within_rounding() {
        let a = Matrix::<f32>::random(64, 64, 4);
        let b = Matrix::<f32>::random(64, 64, 5);
        let c = Matrix::<f32>::zeros(64, 64);
        let m3xu = gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c).d;
        let gold = Matrix::reference_gemm_f64(&a, &b, &c);
        // One rounding per 2-wide fragment: the absolute error stays within
        // a few units of the dot product's own rounding scale. (Raw ULP
        // distance is meaningless near cancellation-induced zeros.)
        let scale = 64.0f32.sqrt() * f32::EPSILON; // ~||row|| * eps
        for (x, g) in m3xu.as_slice().iter().zip(gold.as_slice()) {
            assert!((x - g).abs() <= 8.0 * scale, "{x} vs {g}");
        }
        let stats = ErrorStats::compare_f32(m3xu.as_slice(), gold.as_slice());
        assert!(stats.mean_ulp < 16.0, "mean ulp = {}", stats.mean_ulp);
    }

    #[test]
    fn tf32_gemm_is_visibly_less_accurate() {
        let a = Matrix::<f32>::random(48, 48, 6);
        let b = Matrix::<f32>::random(48, 48, 7);
        let c = Matrix::<f32>::zeros(48, 48);
        let gold = Matrix::reference_gemm_f64(&a, &b, &c);
        let m3xu = ErrorStats::compare_f32(
            gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c).d.as_slice(),
            gold.as_slice(),
        );
        let tf32 = ErrorStats::compare_f32(
            gemm_f32(GemmPrecision::Tf32, &a, &b, &c).d.as_slice(),
            gold.as_slice(),
        );
        assert!(
            tf32.mean_ulp > 50.0 * (m3xu.mean_ulp + 1.0),
            "tf32 mean ulp {} vs m3xu {}",
            tf32.mean_ulp,
            m3xu.mean_ulp
        );
    }

    #[test]
    fn instruction_count_follows_rule_b() {
        // §V-B1(b): FP32 GEMM of the same shape issues 2x the MMA count of
        // ... in our model: (m/8)(n/8)(k/2) fragments, each a 2-step MMA.
        let a = Matrix::<f32>::random(16, 8, 8);
        let b = Matrix::<f32>::random(8, 16, 9);
        let c = Matrix::<f32>::zeros(16, 16);
        let r = gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
        assert_eq!(r.stats.instructions, (16 / 8) * (16 / 8) * (8 / 2));
        assert_eq!(r.stats.steps, r.stats.instructions * 2);
    }

    #[test]
    fn cgemm_matches_f64_reference_closely() {
        let a = Matrix::random_c32(24, 16, 10);
        let b = Matrix::random_c32(16, 24, 11);
        let c = Matrix::random_c32(24, 24, 12);
        let r = cgemm_c32(&a, &b, &c);
        let gold = Matrix::reference_cgemm_f64(&a, &b, &c);
        for i in 0..24 {
            for j in 0..24 {
                let d = r.d.get(i, j);
                let g = gold.get(i, j);
                assert!((d.re - g.re).abs() <= 4.0 * f32::EPSILON * g.re.abs().max(1.0));
                assert!((d.im - g.im).abs() <= 4.0 * f32::EPSILON * g.im.abs().max(1.0));
            }
        }
    }

    #[test]
    fn cgemm_identity_roundtrip() {
        let a = Matrix::random_c32(16, 16, 13);
        let i = Matrix::identity_c32(16);
        let d = cgemm_c32(&a, &i, &Matrix::zeros(16, 16)).d;
        assert_eq!(d, a);
    }

    #[test]
    fn gemm_identity_roundtrip() {
        let a = Matrix::<f32>::random(32, 32, 14);
        let i = Matrix::<f32>::identity(32);
        let z = Matrix::<f32>::zeros(32, 32);
        assert_eq!(gemm_f32(GemmPrecision::M3xuFp32, &a, &i, &z).d, a);
    }

    #[test]
    fn parallel_and_serial_agree() {
        // Determinism across thread counts: tiles are independent, so the
        // result cannot depend on scheduling.
        let a = Matrix::<f32>::random(96, 40, 15);
        let b = Matrix::<f32>::random(40, 72, 16);
        let c = Matrix::<f32>::random(96, 72, 17);
        let r1 = gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c).d;
        let r2 = gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c).d;
        assert_eq!(r1, r2);
    }

    #[test]
    fn empty_k_returns_c() {
        let a = Matrix::<f32>::zeros(8, 0);
        let b = Matrix::<f32>::zeros(0, 8);
        let c = Matrix::<f32>::random(8, 8, 18);
        let r = gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
        assert_eq!(r.d, c);
    }

    // ---- packed-vs-baseline differential coverage ----------------------

    /// Byte-level equality, distinguishing NaN payloads and signed zeros.
    fn assert_bits_f32(got: &Matrix<f32>, want: &Matrix<f32>, ctx: &str) {
        for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: element {i}: {x} vs {y}");
        }
    }

    fn assert_bits_c32(got: &Matrix<Complex<f32>>, want: &Matrix<Complex<f32>>, ctx: &str) {
        for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "{ctx}: element {i} (re)");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "{ctx}: element {i} (im)");
        }
    }

    #[test]
    fn packed_matches_baseline_all_modes_awkward_shapes() {
        let shapes = [
            (1, 1, 1),
            (8, 8, 8),
            (37, 19, 23),
            (5, 64, 3),
            (64, 1, 64),
            (9, 7, 17),
        ];
        for &(m, k, n) in &shapes {
            for (si, precision) in [
                GemmPrecision::M3xuFp32,
                GemmPrecision::Tf32,
                GemmPrecision::Fp16,
                GemmPrecision::Bf16,
            ]
            .into_iter()
            .enumerate()
            {
                let seed = (100 * m + 10 * k + n + si) as u64;
                let a = Matrix::<f32>::random(m, k, seed);
                let b = Matrix::<f32>::random(k, n, seed + 1);
                let c = Matrix::<f32>::random(m, n, seed + 2);
                let packed = gemm_f32(precision, &a, &b, &c);
                let base = baseline::gemm_f32(precision, &a, &b, &c);
                assert_bits_f32(&packed.d, &base.d, &format!("{precision:?} {m}x{k}x{n}"));
                assert_eq!(packed.stats, base.stats, "{precision:?} {m}x{k}x{n} stats");
            }
        }
    }

    #[test]
    fn packed_cgemm_matches_baseline_bitwise() {
        for &(m, k, n) in &[(1, 1, 1), (8, 4, 8), (13, 9, 21), (24, 16, 24)] {
            let seed = (1000 + m * 31 + k * 7 + n) as u64;
            let a = Matrix::random_c32(m, k, seed);
            let b = Matrix::random_c32(k, n, seed + 1);
            let c = Matrix::random_c32(m, n, seed + 2);
            let packed = cgemm_c32(&a, &b, &c);
            let base = baseline::cgemm_c32(&a, &b, &c);
            assert_bits_c32(&packed.d, &base.d, &format!("cgemm {m}x{k}x{n}"));
            assert_eq!(packed.stats, base.stats, "cgemm {m}x{k}x{n} stats");
        }
    }

    #[test]
    fn packed_matches_baseline_on_specials_and_subnormals() {
        let vals = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1.0e-44, // subnormal
            -f32::MIN_POSITIVE,
            f32::MAX,
            -1.5,
            3.0e-39, // subnormal-adjacent
        ];
        let a = Matrix::from_fn(11, 6, |i, j| vals[(i * 7 + j) % vals.len()]);
        let b = Matrix::from_fn(6, 13, |i, j| vals[(i + j * 3) % vals.len()]);
        let c = Matrix::from_fn(11, 13, |i, j| vals[(i + j) % vals.len()]);
        for precision in [GemmPrecision::M3xuFp32, GemmPrecision::Tf32] {
            let packed = gemm_f32(precision, &a, &b, &c);
            let base = baseline::gemm_f32(precision, &a, &b, &c);
            assert_bits_f32(&packed.d, &base.d, &format!("{precision:?} specials"));
        }
        let ca = Matrix::from_fn(9, 5, |i, j| {
            Complex::new(vals[(i + j) % vals.len()], vals[(i * 3 + j) % vals.len()])
        });
        let cb = Matrix::from_fn(5, 9, |i, j| {
            Complex::new(
                vals[(i * 5 + j) % vals.len()],
                vals[(i + 2 * j) % vals.len()],
            )
        });
        let cc = Matrix::<Complex<f32>>::zeros(9, 9);
        let packed = cgemm_c32(&ca, &cb, &cc);
        let base = baseline::cgemm_c32(&ca, &cb, &cc);
        assert_bits_c32(&packed.d, &base.d, "cgemm specials");
    }

    #[test]
    fn deterministic_across_pool_sizes() {
        let a = Matrix::<f32>::random(41, 27, 90);
        let b = Matrix::<f32>::random(27, 33, 91);
        let c = Matrix::<f32>::random(41, 33, 92);
        let ca = Matrix::random_c32(17, 9, 93);
        let cb = Matrix::random_c32(9, 19, 94);
        let cc = Matrix::random_c32(17, 19, 95);
        let mut real: Vec<Matrix<f32>> = Vec::new();
        let mut cplx: Vec<Matrix<Complex<f32>>> = Vec::new();
        for threads in [1, 2, 8] {
            let ctx = M3xuContext::with_threads(threads);
            real.push(
                ctx.try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
                    .unwrap()
                    .d,
            );
            cplx.push(ctx.try_cgemm_c32(&ca, &cb, &cc).unwrap().d);
        }
        for r in &real[1..] {
            assert_bits_f32(r, &real[0], "pool-size determinism (real)");
        }
        for r in &cplx[1..] {
            assert_bits_c32(r, &cplx[0], "pool-size determinism (complex)");
        }
    }

    #[test]
    fn workers_respects_env_contract() {
        // `workers()` delegates to the pool sizing; it must be positive.
        assert!(workers() >= 1);
    }

    // ---- ABFT-checked body ---------------------------------------------

    /// Plain FP32 GEMM through the driver's checked body under `plan`.
    fn checked_gemm(
        ctx: &M3xuContext,
        a: &Matrix<f32>,
        b: &Matrix<f32>,
        c: &Matrix<f32>,
        plan: &FaultPlan,
    ) -> Result<GemmResult<f32>, M3xuError> {
        let call = Call::new("gemm", MxuMode::M3xuFp32, 1.0, 1.0);
        drive(ctx, &call, a, b, c, Some(plan))
    }

    #[test]
    fn abft_zero_rate_verifies_and_stays_bit_identical() {
        // A rate-0 plan runs the full checksum machinery with no
        // injection: every chunk verifies and the result is bit-identical
        // to the oracle, summary all-zero.
        let ctx = M3xuContext::with_threads(2);
        let plan = FaultPlan::new(1, 0.0);
        let a = Matrix::<f32>::random(23, 11, 40);
        let b = Matrix::<f32>::random(11, 19, 41);
        let c = Matrix::<f32>::random(23, 19, 42);
        let r = checked_gemm(&ctx, &a, &b, &c, &plan).unwrap();
        let oracle = baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
        assert_bits_f32(&r.d, &oracle.d, "abft zero-rate");
        assert_eq!(r.stats, oracle.stats);
        assert_eq!(r.faults, FaultSummary::default());
    }

    #[test]
    fn abft_recovers_injected_faults_bit_identically() {
        let ctx = M3xuContext::with_threads(2);
        let a = Matrix::<f32>::random(33, 17, 50);
        let b = Matrix::<f32>::random(17, 29, 51);
        let c = Matrix::<f32>::random(33, 29, 52);
        let oracle = baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
        let mut saw_faults = false;
        for seed in 0..8u64 {
            let plan = FaultPlan::new(seed, 0.05);
            let r = checked_gemm(&ctx, &a, &b, &c, &plan).unwrap();
            let s = r.faults;
            assert_bits_f32(&r.d, &oracle.d, &format!("abft recovery seed {seed}"));
            assert_eq!(s.detected, s.corrected, "seed {seed}: {s:?}");
            saw_faults |= s.detected > 0;
        }
        assert!(saw_faults, "rate 0.05 across 8 seeds must inject something");
    }

    #[test]
    fn abft_complex_recovery_matches_oracle() {
        let ctx = M3xuContext::with_threads(2);
        let a = Matrix::random_c32(17, 9, 60);
        let b = Matrix::random_c32(9, 13, 61);
        let c = Matrix::random_c32(17, 13, 62);
        let oracle = baseline::cgemm_c32(&a, &b, &c);
        let plan = FaultPlan::new(3, 0.05);
        let one = Complex::<f32>::ONE;
        let call = Call::new("cgemm", MxuMode::M3xuFp32c, one, one);
        let r = drive(&ctx, &call, &a, &b, &c, Some(&plan)).unwrap();
        assert_bits_c32(&r.d, &oracle.d, "abft complex recovery");
        assert_eq!(r.faults.detected, r.faults.corrected);
    }

    #[test]
    fn abft_rate_one_is_a_typed_error_not_a_panic() {
        let ctx = M3xuContext::with_threads(2);
        let plan = FaultPlan::new(9, 1.0);
        let a = Matrix::<f32>::random(16, 8, 70);
        let b = Matrix::<f32>::random(8, 16, 71);
        let c = Matrix::<f32>::zeros(16, 16);
        match checked_gemm(&ctx, &a, &b, &c, &plan) {
            Err(M3xuError::FaultDetected {
                op,
                mode,
                tiles,
                detected,
                corrected,
                retries,
            }) => {
                assert_eq!(op, "gemm");
                assert_eq!(mode, MxuMode::M3xuFp32);
                assert!(tiles > 0);
                assert!(detected > corrected);
                assert!(retries > 0);
            }
            other => panic!("expected FaultDetected, got {other:?}"),
        }
        // The pool (and its supervisor) must stay usable afterwards.
        let clean = ctx
            .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
            .unwrap();
        let oracle = baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
        assert_bits_f32(&clean.d, &oracle.d, "pool reuse after rate-1.0 abft");
    }

    #[test]
    fn abft_specials_fall_back_to_unverified_execution() {
        // Chunks poisoned by NaN/Inf are unverifiable: the checked driver
        // must execute them un-checked (and un-faulted) and still match
        // the oracle bit-for-bit.
        let ctx = M3xuContext::with_threads(2);
        let mut a = Matrix::<f32>::random(19, 7, 80);
        a.set(0, 0, f32::NAN);
        a.set(5, 3, f32::INFINITY);
        let b = Matrix::<f32>::random(7, 11, 81);
        let c = Matrix::<f32>::random(19, 11, 82);
        let oracle = baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
        let plan = FaultPlan::new(4, 0.2);
        let r = checked_gemm(&ctx, &a, &b, &c, &plan).unwrap();
        assert_bits_f32(&r.d, &oracle.d, "abft specials");
    }
}
