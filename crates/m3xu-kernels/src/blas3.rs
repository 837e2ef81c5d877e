//! The full BLAS-3 surface over the packed fragment pipeline.
//!
//! [`gemm`](crate::gemm) ships the plain `D = A·B + C` drivers; this
//! module generalizes them to the surface real workloads sit on:
//!
//! * **`op(X)` operands** — `X`, `X^T`, `X^H` iterate straight out of the
//!   stored buffer through [`OpView`] (no transposed or conjugated copy is
//!   ever materialized; see [`m3xu_mxu::matrix`]);
//! * **alpha/beta accumulate** — `D = alpha·op(A)·op(B) + beta·C`. Alpha
//!   folds into `op(A)`'s elements *before* buffer quantisation (one
//!   multiply per element, bitwise-skipped when `alpha == 1`); beta folds
//!   into the tile seeds (`beta == 1` reads `C` directly — today's
//!   accumulate path bit-for-bit; `beta == +0.0` seeds zeros without
//!   reading `C`, so an uninitialised/NaN `C` never leaks — today's
//!   overwrite path bit-for-bit);
//! * **SYMM/HEMM** — a triangle-stored symmetric/Hermitian operand
//!   expands on the fly through [`MirrorView`];
//! * **SYRK/HERK** — rank-k updates schedule **only the output tiles that
//!   intersect the requested triangle**: `T(T+1)/2` of the full `T²` tile
//!   grid (`T = n/8` tiles per side), an asymptotic 2x saving in MMA
//!   instructions, steps, and wall time that
//!   [`m3xu_gpu::validate`] predicts exactly. Off-diagonal tiles store
//!   their full 8x8 block (it lies entirely inside the triangle);
//!   diagonal tiles store element-predicated, so the unreferenced
//!   triangle of `C` passes through **byte-for-byte untouched**.
//!
//! All drivers run the same packed epoch/panel pipeline as plain GEMM
//! (same fragment grid, same K-chunk rounding boundaries), so an op-GEMM
//! with `op = N`, `alpha = 1`, `beta = 1` is bit-identical — and
//! stats-identical — to [`crate::gemm::try_gemm_f32`].
//!
//! Every entry point here is covered by the checked (ABFT) driver: the
//! expected checksums are computed from the **packed** operand planes —
//! after alpha folding, op views, mirrors, and quantisation — so an armed
//! fault plan reroutes the whole surface through the checked
//! `try_blas3_abft` driver, including the triangular SYRK/HERK schedules
//! (verification prices only the `T(T+1)/2` scheduled tiles).

use crate::blocking::KPlan;
use crate::context::{self, GemmSample, M3xuContext, SimdChunks};
use crate::gemm::{
    check_precision, AbftElem, GemmPrecision, GemmResult, PackedElem, SendPtr, ACC_SCRATCH, DPU,
    MAX_EPOCH_ATTEMPTS, MAX_TILE_ATTEMPTS,
};
use crate::pool::WorkerPool;
use m3xu_fp::complex::Complex;
use m3xu_mxu::error::M3xuError;
use m3xu_mxu::fault::{FaultPlan, FaultSummary, TaskFault};
use m3xu_mxu::matrix::{MatOp, MatSource, Matrix, MirrorView, OpView, Triangle};
use m3xu_mxu::mma::{MmaShape, MmaStats};
use m3xu_mxu::modes::MxuMode;
use m3xu_mxu::packed::{fragment_stats, PackedOperand, PackedStorage};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Which side a SYMM/HEMM's symmetric operand multiplies from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// `C = alpha·A·B + beta·C` (A is the symmetric/Hermitian operand).
    Left,
    /// `C = alpha·B·A + beta·C`.
    Right,
}

/// The output region a BLAS-3 driver writes.
#[derive(Debug, Clone, Copy)]
enum OutRegion {
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

/// An element type the BLAS-3 drivers can run: [`PackedElem`] plus the
/// alpha/beta scalar algebra and the source-generic (op/alpha-aware)
/// packers.
pub(crate) trait Blas3Elem: PackedElem {
    /// The alpha/beta scalar type (`f32`, [`Complex<f32>`], `f64`).
    type Scalar: Copy + Send + Sync + 'static;
    /// Bitwise `== 1` — the multiplication skip the bit-exactness
    /// contract with the plain drivers hangs on.
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
    /// `alpha` before quantisation.
    fn pack_rows_src<S: MatSource<Self>>(
        src: &S,
        alpha: Self::Scalar,
        mode: MxuMode,
        storage: PackedStorage,
    ) -> PackedOperand;
    /// Pack columns (the second operand) from any logical source.
    fn pack_cols_src<S: MatSource<Self>>(
        src: &S,
        mode: MxuMode,
        storage: PackedStorage,
    ) -> PackedOperand;
}

impl Blas3Elem for f32 {
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
    fn pack_rows_src<S: MatSource<f32>>(
        src: &S,
        alpha: f32,
        mode: MxuMode,
        storage: PackedStorage,
    ) -> PackedOperand {
        PackedOperand::try_pack_rows_f32_src_in(src, alpha, mode, storage)
            .unwrap_or_else(|e| panic!("{e}"))
    }
    fn pack_cols_src<S: MatSource<f32>>(
        src: &S,
        mode: MxuMode,
        storage: PackedStorage,
    ) -> PackedOperand {
        PackedOperand::try_pack_cols_f32_src_in(src, 1.0, mode, storage)
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

impl Blas3Elem for Complex<f32> {
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
    fn pack_rows_src<S: MatSource<Complex<f32>>>(
        src: &S,
        alpha: Complex<f32>,
        _mode: MxuMode,
        storage: PackedStorage,
    ) -> PackedOperand {
        PackedOperand::pack_rows_c32_src_in(src, alpha, storage)
    }
    fn pack_cols_src<S: MatSource<Complex<f32>>>(
        src: &S,
        _mode: MxuMode,
        storage: PackedStorage,
    ) -> PackedOperand {
        PackedOperand::pack_cols_c32_src_in(src, Complex::<f32>::ONE, storage)
    }
}

impl Blas3Elem for f64 {
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
    fn pack_rows_src<S: MatSource<f64>>(
        src: &S,
        alpha: f64,
        mode: MxuMode,
        storage: PackedStorage,
    ) -> PackedOperand {
        PackedOperand::try_pack_rows_f64_src_in(src, alpha, mode, storage)
            .unwrap_or_else(|e| panic!("{e}"))
    }
    fn pack_cols_src<S: MatSource<f64>>(
        src: &S,
        mode: MxuMode,
        storage: PackedStorage,
    ) -> PackedOperand {
        PackedOperand::try_pack_cols_f64_src_in(src, 1.0, mode, storage)
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The generic BLAS-3 driver: `D = alpha·a·b + beta·C` over `region`,
/// where `a` and `b` are *logical* sources (op views, mirror views, or
/// plain matrices) and alpha has already been assigned to fold into `a`.
///
/// Same pipeline as the plain packed driver — pack once, L2 epochs over
/// `kc2` reduction slices, L1 panels inside, one exact accumulate +
/// rounding per fragment K-chunk — with three generalizations: the tile
/// list may cover only a triangle, tile seeds come from the beta-folded
/// base (written into `D` up front), and diagonal tiles of a triangular
/// region store element-predicated (leaving the unreferenced triangle of
/// `C` byte-identical in `D`).
#[allow(clippy::too_many_arguments)]
fn try_blas3_packed<E, SA, SB>(
    pool: &WorkerPool,
    mode: MxuMode,
    a: &SA,
    b: &SB,
    alpha: E::Scalar,
    beta: E::Scalar,
    c: &Matrix<E>,
    region: OutRegion,
    force_real_diag: bool,
    ctx: Option<&M3xuContext>,
) -> Result<GemmResult<E>, M3xuError>
where
    E: Blas3Elem,
    SA: MatSource<E>,
    SB: MatSource<E>,
{
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if b.rows() != k {
        return Err(M3xuError::ShapeMismatch {
            context: "blas3(B): inner dimensions must agree",
            expected: (k, n),
            got: (b.rows(), n),
        });
    }
    if (c.rows(), c.cols()) != (m, n) {
        return Err(M3xuError::ShapeMismatch {
            context: "blas3(C): C must be m x n",
            expected: (m, n),
            got: (c.rows(), c.cols()),
        });
    }

    let frag = MmaShape::BASELINE_FP16.for_mode(mode);
    if frag.m * frag.n > ACC_SCRATCH {
        return Err(M3xuError::FragmentOverflow {
            needed: frag.m * frag.n,
            capacity: ACC_SCRATCH,
        });
    }
    let (tiles_m, tiles_n, k_chunks) = frag.grid(m, n, k);

    let mut d = c.clone();
    // Fold beta into the written region of D up front: this is both the
    // first epoch's seed and the final value of the degenerate k = 0
    // path. beta == 1 leaves the clone untouched (zero extra work, the
    // plain accumulate path); beta == +0.0 never reads C's values.
    let beta_unit = E::is_unit(beta);
    let beta_zero = E::is_zero(beta);
    if !beta_unit || force_real_diag {
        for i in 0..m {
            for j in 0..n {
                if !region.writes(i, j) {
                    continue;
                }
                let seed = if force_real_diag && i == j {
                    E::real_diag_seed(beta, c.get(i, j))
                } else if beta_zero {
                    E::default()
                } else if beta_unit {
                    continue;
                } else {
                    E::scale(beta, c.get(i, j))
                };
                d.set(i, j, seed);
            }
        }
    }

    if k_chunks == 0 || m == 0 || n == 0 {
        if let Some(cx) = ctx {
            cx.counters().record(&GemmSample {
                mode,
                stats: MmaStats::default(),
                tiles: 0,
                fragments: 0,
                operand_bytes: 0,
                pack_ns: 0,
                exec_ns: 0,
                simd: SimdChunks::default(),
            });
        }
        return Ok(GemmResult {
            d,
            stats: MmaStats::default(),
        });
    }

    // The output-tile schedule. A triangular region keeps only the tiles
    // that intersect the triangle: T(T+1)/2 of the T x T grid — the
    // near-2x saving the analytical model predicts exactly.
    let tiles: Vec<(usize, usize)> = match region {
        OutRegion::Full => (0..tiles_m)
            .flat_map(|ti| (0..tiles_n).map(move |tj| (ti, tj)))
            .collect(),
        OutRegion::Tri(tri) => (0..tiles_m)
            .flat_map(|ti| (0..tiles_n).map(move |tj| (ti, tj)))
            .filter(|&(ti, tj)| match tri {
                Triangle::Lower => tj <= ti,
                Triangle::Upper => ti <= tj,
            })
            .collect(),
    };

    let (sa, sb) = match ctx {
        Some(cx) => cx.take_scratch(),
        None => (PackedStorage::default(), PackedStorage::default()),
    };
    let t_pack = Instant::now();
    let pa = E::pack_rows_src(a, alpha, mode, sa);
    let pb = E::pack_cols_src(b, mode, sb);
    let pack_ns = t_pack.elapsed().as_nanos() as u64;

    let plan = KPlan::new(frag.k, k, n, E::VAL_BYTES);
    let dptr = SendPtr(d.as_mut_slice().as_mut_ptr());
    let simd = SimdChunks::default();
    let t_exec = Instant::now();
    let mut ke0 = 0usize;
    while ke0 < k {
        let ke1 = (ke0 + plan.kc2).min(k);
        pool.run(tiles.len(), |tid| {
            let (ti, tj) = tiles[tid];
            let (i0, j0) = (ti * frag.m, tj * frag.n);
            let rows = frag.m.min(m - i0);
            let cols = frag.n.min(n - j0);
            let mut acc = [E::default(); ACC_SCRATCH]; // >= frag.m * frag.n, checked at entry
            let acc = &mut acc[..rows * cols];
            // Seed from D: the beta-folded base on the first epoch, the
            // previous epoch's partials afterwards. On a triangular
            // region's diagonal tiles the out-of-triangle positions seed
            // whatever D holds there (the untouched canary bytes) — their
            // accumulations are discarded by the predicated store below.
            for (i, row) in acc.chunks_exact_mut(cols).enumerate() {
                // SAFETY: this tile owns its disjoint output region,
                // epochs run sequentially, and the pointer outlives the
                // pool run.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        dptr.get().add((i0 + i) * n + j0) as *const E,
                        row.as_mut_ptr(),
                        cols,
                    );
                }
            }
            DPU.with(|dpu| {
                simd.meter(&mut dpu.borrow_mut(), |dpu| {
                    let mut kb = ke0;
                    while kb < ke1 {
                        let kbend = (kb + plan.kc1).min(ke1);
                        E::execute_panel(dpu, &pa, &pb, i0, rows, j0, cols, kb, kbend, frag.k, acc);
                        kb = kbend;
                    }
                })
            });
            // Epilogue. Off-diagonal triangular tiles lie entirely inside
            // the triangle, so they (like full-region tiles) bulk-store;
            // only diagonal tiles pay per-element predication.
            let bulk = match region {
                OutRegion::Full => true,
                OutRegion::Tri(_) => ti != tj,
            };
            if bulk {
                for (i, row) in acc.chunks_exact(cols).enumerate() {
                    // SAFETY: as above — this tile's disjoint region.
                    unsafe {
                        std::ptr::copy_nonoverlapping(
                            row.as_ptr(),
                            dptr.get().add((i0 + i) * n + j0),
                            cols,
                        );
                    }
                }
            } else {
                for i in 0..rows {
                    for j in 0..cols {
                        let (gi, gj) = (i0 + i, j0 + j);
                        if !region.writes(gi, gj) {
                            continue;
                        }
                        let mut v = acc[i * cols + j];
                        if force_real_diag && gi == gj {
                            v = E::force_real(v);
                        }
                        // SAFETY: as above — disjoint predicated store.
                        unsafe {
                            *dptr.get().add(gi * n + gj) = v;
                        }
                    }
                }
            }
        });
        ke0 = ke1;
    }
    let exec_ns = t_exec.elapsed().as_nanos() as u64;

    let frags = (tiles.len() * k_chunks) as u64;
    let stats = fragment_stats(mode, frag).scaled(frags);
    if let Some(cx) = ctx {
        cx.counters().record(&GemmSample {
            mode,
            stats,
            tiles: tiles.len() as u64,
            fragments: frags,
            // Rule (c) operand traffic at logical dimensions: a rank-k
            // update reads op(A) twice (n·k each way), a SYMM reads the
            // expanded square operand — the same formula the serve layer
            // and the analytical model mirror.
            operand_bytes: ((m * k + k * n) * mode.element_bytes()) as u64,
            pack_ns,
            exec_ns,
            simd,
        });
        cx.put_scratch(pa.into_storage(), pb.into_storage());
    }
    Ok(GemmResult { d, stats })
}

/// The ABFT-checked BLAS-3 driver: [`try_blas3_packed`]'s surface with
/// the per-k-chunk checksum verification and hierarchical recovery of
/// [`crate::gemm::try_gemm_abft`] (chunk-level rollback/re-execution up
/// to [`MAX_TILE_ATTEMPTS`], epoch re-submission up to
/// [`MAX_EPOCH_ATTEMPTS`], typed [`M3xuError::FaultDetected`] beyond).
///
/// The expected checksums read the **packed** planes, so alpha folding,
/// op/mirror views, and quantisation are already on both sides of the
/// comparison; a triangular region verifies only its `T(T+1)/2`
/// scheduled tiles. Tile seeds are recomputed **in-task** from `beta`
/// and `C` (a pure function), so a lost pool epoch re-submits the whole
/// grid without any partially-written `D` state leaking into the rerun —
/// every rerun is exactly idempotent. Out-of-region positions of a
/// diagonal tile seed the untouched `C` canary values; they participate
/// in the chunk checksum like any other accumulator lane but are
/// discarded by the predicated store.
#[allow(clippy::too_many_arguments)]
fn try_blas3_abft<E, SA, SB>(
    pool: &WorkerPool,
    op_name: &'static str,
    mode: MxuMode,
    a: &SA,
    b: &SB,
    alpha: E::Scalar,
    beta: E::Scalar,
    c: &Matrix<E>,
    region: OutRegion,
    force_real_diag: bool,
    ctx: Option<&M3xuContext>,
    plan: &FaultPlan,
) -> Result<(GemmResult<E>, FaultSummary), M3xuError>
where
    E: Blas3Elem + AbftElem,
    SA: MatSource<E>,
    SB: MatSource<E>,
{
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if b.rows() != k {
        return Err(M3xuError::ShapeMismatch {
            context: "blas3(B): inner dimensions must agree",
            expected: (k, n),
            got: (b.rows(), n),
        });
    }
    if (c.rows(), c.cols()) != (m, n) {
        return Err(M3xuError::ShapeMismatch {
            context: "blas3(C): C must be m x n",
            expected: (m, n),
            got: (c.rows(), c.cols()),
        });
    }

    let frag = MmaShape::BASELINE_FP16.for_mode(mode);
    if frag.m * frag.n > ACC_SCRATCH {
        return Err(M3xuError::FragmentOverflow {
            needed: frag.m * frag.n,
            capacity: ACC_SCRATCH,
        });
    }
    let (tiles_m, tiles_n, k_chunks) = frag.grid(m, n, k);

    let beta_unit = E::is_unit(beta);
    let beta_zero = E::is_zero(beta);
    // The beta-folded seed of output element (gi, gj): a pure function of
    // the inputs, shared by the degenerate k = 0 path and the in-task
    // tile seeding, so epoch reruns always start from identical state.
    let seed_at = |gi: usize, gj: usize| -> E {
        if !region.writes(gi, gj) {
            c.get(gi, gj)
        } else if force_real_diag && gi == gj {
            E::real_diag_seed(beta, c.get(gi, gj))
        } else if beta_zero {
            E::default()
        } else if beta_unit {
            c.get(gi, gj)
        } else {
            E::scale(beta, c.get(gi, gj))
        }
    };

    let mut d = c.clone();
    if k_chunks == 0 || m == 0 || n == 0 {
        if !beta_unit || force_real_diag {
            for i in 0..m {
                for j in 0..n {
                    if region.writes(i, j) {
                        d.set(i, j, seed_at(i, j));
                    }
                }
            }
        }
        if let Some(cx) = ctx {
            cx.counters().record(&GemmSample {
                mode,
                stats: MmaStats::default(),
                tiles: 0,
                fragments: 0,
                operand_bytes: 0,
                pack_ns: 0,
                exec_ns: 0,
                simd: SimdChunks::default(),
            });
        }
        return Ok((
            GemmResult {
                d,
                stats: MmaStats::default(),
            },
            FaultSummary::default(),
        ));
    }

    let tiles: Vec<(usize, usize)> = match region {
        OutRegion::Full => (0..tiles_m)
            .flat_map(|ti| (0..tiles_n).map(move |tj| (ti, tj)))
            .collect(),
        OutRegion::Tri(tri) => (0..tiles_m)
            .flat_map(|ti| (0..tiles_n).map(move |tj| (ti, tj)))
            .filter(|&(ti, tj)| match tri {
                Triangle::Lower => tj <= ti,
                Triangle::Upper => ti <= tj,
            })
            .collect(),
    };

    let (sa, sb) = match ctx {
        Some(cx) => cx.take_scratch(),
        None => (PackedStorage::default(), PackedStorage::default()),
    };
    let t_pack = Instant::now();
    let pa = E::pack_rows_src(a, alpha, mode, sa);
    let pb = E::pack_cols_src(b, mode, sb);
    let pack_ns = t_pack.elapsed().as_nanos() as u64;

    // One salt per driver invocation: a serve-layer retry of this whole
    // call draws an independent fault schedule.
    let salt = plan.next_call();

    let detected = AtomicU64::new(0);
    let retries = AtomicU64::new(0);
    let failed_tiles = AtomicU64::new(0);
    let epoch_uncorrected = AtomicU64::new(0);

    let dptr = SendPtr(d.as_mut_slice().as_mut_ptr());
    let t_exec = Instant::now();
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
            let (ti, tj) = tiles[tid];
            let (i0, j0) = (ti * frag.m, tj * frag.n);
            let rows = frag.m.min(m - i0);
            let cols = frag.n.min(n - j0);
            let mut acc = [E::default(); ACC_SCRATCH]; // >= frag.m * frag.n, checked at entry
            let acc = &mut acc[..rows * cols];
            let mut seeds = [E::default(); ACC_SCRATCH];
            let seeds = &mut seeds[..rows * cols];
            for i in 0..rows {
                for j in 0..cols {
                    acc[i * cols + j] = seed_at(i0 + i, j0 + j);
                }
            }
            let mut tile_detected = 0u64;
            let mut tile_retries = 0u64;
            let mut tile_uncorrected = 0u64;
            let mut tile_failed = false;
            DPU.with(|dpu| {
                let mut dpu = dpu.borrow_mut();
                for (ci, k0) in (0..k).step_by(frag.k).enumerate() {
                    let kend = (k0 + frag.k).min(k);
                    seeds.copy_from_slice(acc);
                    let expected = E::expected_chunk(&pa, &pb, seeds, i0, rows, j0, cols, k0, kend);
                    let mut chunk_fails = 0u64;
                    let mut chunk_ok = false;
                    for attempt in 0..MAX_TILE_ATTEMPTS {
                        if attempt > 0 {
                            acc.copy_from_slice(seeds);
                        }
                        // Specials bypass the multiplier array: an
                        // unverifiable chunk is not a fault target.
                        let fault = if expected.ok {
                            plan.mma_fault(salt, epoch_attempt, tid as u64, ci as u64, attempt)
                        } else {
                            None
                        };
                        let computed = E::execute_checked(
                            &mut dpu,
                            &pa,
                            &pb,
                            i0,
                            rows,
                            j0,
                            cols,
                            k0,
                            frag.k,
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
                        tile_retries += chunk_fails;
                    } else {
                        tile_retries += chunk_fails.saturating_sub(1);
                        tile_uncorrected += chunk_fails;
                        tile_failed = true;
                        break;
                    }
                }
            });
            detected.fetch_add(tile_detected, Ordering::Relaxed);
            retries.fetch_add(tile_retries, Ordering::Relaxed);
            if tile_failed {
                epoch_uncorrected.fetch_add(tile_uncorrected, Ordering::Relaxed);
                failed_tiles.fetch_add(1, Ordering::Relaxed);
                return;
            }
            let bulk = match region {
                OutRegion::Full => true,
                OutRegion::Tri(_) => ti != tj,
            };
            if bulk {
                for (i, row) in acc.chunks_exact(cols).enumerate() {
                    // SAFETY: this tile owns its disjoint output region,
                    // the pointer outlives the pool run, and epoch reruns
                    // rewrite the same bytes.
                    unsafe {
                        std::ptr::copy_nonoverlapping(
                            row.as_ptr(),
                            dptr.get().add((i0 + i) * n + j0),
                            cols,
                        );
                    }
                }
            } else {
                for i in 0..rows {
                    for j in 0..cols {
                        let (gi, gj) = (i0 + i, j0 + j);
                        if !region.writes(gi, gj) {
                            continue;
                        }
                        let mut v = acc[i * cols + j];
                        if force_real_diag && gi == gj {
                            v = E::force_real(v);
                        }
                        // SAFETY: as above — disjoint predicated store.
                        unsafe {
                            *dptr.get().add(gi * n + gj) = v;
                        }
                    }
                }
            }
        };
        // An injected task panic (or a worker killed mid-epoch) surfaces
        // as a panic out of `run` once the epoch has drained; catch it
        // and re-submit rather than unwinding through the caller.
        match catch_unwind(AssertUnwindSafe(|| pool.run(tiles.len(), task))) {
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
    let exec_ns = t_exec.elapsed().as_nanos() as u64;

    let detected = detected.load(Ordering::Relaxed);
    let retries = retries.load(Ordering::Relaxed);
    let (failed, uncorrected) = if epoch_ok {
        (
            failed_tiles.load(Ordering::Relaxed),
            epoch_uncorrected.load(Ordering::Relaxed),
        )
    } else {
        (tiles.len() as u64, 1)
    };
    let summary = FaultSummary {
        detected,
        corrected: detected - uncorrected,
        retries,
    };

    if let Some(cx) = ctx {
        cx.counters().record_faults(&summary);
    }
    if failed > 0 {
        if let Some(cx) = ctx {
            cx.put_scratch(pa.into_storage(), pb.into_storage());
        }
        return Err(M3xuError::FaultDetected {
            op: op_name,
            mode,
            tiles: failed as usize,
            detected,
            corrected: summary.corrected,
            retries,
        });
    }

    // The production sample: a pure function of the fragment grid,
    // bit-identical accounting to the unchecked BLAS-3 driver.
    let frags = (tiles.len() * k_chunks) as u64;
    let stats = fragment_stats(mode, frag).scaled(frags);
    if let Some(cx) = ctx {
        cx.counters().record(&GemmSample {
            mode,
            stats,
            tiles: tiles.len() as u64,
            fragments: frags,
            operand_bytes: ((m * k + k * n) * mode.element_bytes()) as u64,
            pack_ns,
            exec_ns,
            simd: SimdChunks::default(),
        });
        cx.put_scratch(pa.into_storage(), pb.into_storage());
    }
    Ok((GemmResult { d, stats }, summary))
}

/// Route a BLAS-3 call through the checked driver when the context has an
/// armed fault plan, the production driver otherwise — the single policy
/// seam every `*_faulted_ctx` body below goes through.
#[allow(clippy::too_many_arguments)]
fn try_blas3_routed<E, SA, SB>(
    ctx: &M3xuContext,
    op_name: &'static str,
    mode: MxuMode,
    a: &SA,
    b: &SB,
    alpha: E::Scalar,
    beta: E::Scalar,
    c: &Matrix<E>,
    region: OutRegion,
    force_real_diag: bool,
) -> Result<(GemmResult<E>, FaultSummary), M3xuError>
where
    E: Blas3Elem + AbftElem,
    SA: MatSource<E>,
    SB: MatSource<E>,
{
    match ctx.fault_plan() {
        Some(plan) => try_blas3_abft(
            ctx.pool(),
            op_name,
            mode,
            a,
            b,
            alpha,
            beta,
            c,
            region,
            force_real_diag,
            Some(ctx),
            plan,
        ),
        None => try_blas3_packed(
            ctx.pool(),
            mode,
            a,
            b,
            alpha,
            beta,
            c,
            region,
            force_real_diag,
            Some(ctx),
        )
        .map(|r| (r, FaultSummary::default())),
    }
}

/// The transpose of `op(A)` for a real rank-k update's second operand
/// (`H` collapses to `T` on real elements).
fn syrk_b_op(op: MatOp) -> MatOp {
    match op {
        MatOp::N => MatOp::T,
        MatOp::T | MatOp::H => MatOp::N,
    }
}

// ---------------------------------------------------------------------------
// Context-attached bodies (the `M3xuContext` methods delegate here).
// ---------------------------------------------------------------------------

/// Context-attached op-GEMM: `D = alpha·op(A)·op(B) + beta·C` on an f32
/// engine.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_gemm_op_f32_ctx(
    ctx: &M3xuContext,
    precision: GemmPrecision,
    op_a: MatOp,
    a: &Matrix<f32>,
    op_b: MatOp,
    b: &Matrix<f32>,
    alpha: f32,
    beta: f32,
    c: &Matrix<f32>,
) -> Result<GemmResult<f32>, M3xuError> {
    try_gemm_op_f32_faulted_ctx(ctx, precision, op_a, a, op_b, b, alpha, beta, c).map(|(r, _)| r)
}

/// [`try_gemm_op_f32_ctx`] with the invocation's [`FaultSummary`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_gemm_op_f32_faulted_ctx(
    ctx: &M3xuContext,
    precision: GemmPrecision,
    op_a: MatOp,
    a: &Matrix<f32>,
    op_b: MatOp,
    b: &Matrix<f32>,
    alpha: f32,
    beta: f32,
    c: &Matrix<f32>,
) -> Result<(GemmResult<f32>, FaultSummary), M3xuError> {
    check_precision(precision, true, "gemm_op_f32")?;
    try_blas3_routed(
        ctx,
        "gemm_op",
        precision.mode(),
        &OpView::new(a, op_a),
        &OpView::new(b, op_b),
        alpha,
        beta,
        c,
        OutRegion::Full,
        false,
    )
}

/// Context-attached complex op-GEMM on the FP32C engine.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_cgemm_op_c32_ctx(
    ctx: &M3xuContext,
    op_a: MatOp,
    a: &Matrix<Complex<f32>>,
    op_b: MatOp,
    b: &Matrix<Complex<f32>>,
    alpha: Complex<f32>,
    beta: Complex<f32>,
    c: &Matrix<Complex<f32>>,
) -> Result<GemmResult<Complex<f32>>, M3xuError> {
    try_cgemm_op_c32_faulted_ctx(ctx, op_a, a, op_b, b, alpha, beta, c).map(|(r, _)| r)
}

/// [`try_cgemm_op_c32_ctx`] with the invocation's [`FaultSummary`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_cgemm_op_c32_faulted_ctx(
    ctx: &M3xuContext,
    op_a: MatOp,
    a: &Matrix<Complex<f32>>,
    op_b: MatOp,
    b: &Matrix<Complex<f32>>,
    alpha: Complex<f32>,
    beta: Complex<f32>,
    c: &Matrix<Complex<f32>>,
) -> Result<(GemmResult<Complex<f32>>, FaultSummary), M3xuError> {
    try_blas3_routed(
        ctx,
        "cgemm_op",
        MxuMode::M3xuFp32c,
        &OpView::new(a, op_a),
        &OpView::new(b, op_b),
        alpha,
        beta,
        c,
        OutRegion::Full,
        false,
    )
}

/// Context-attached emulated-FP64 op-GEMM.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_gemm_op_f64_ctx(
    ctx: &M3xuContext,
    precision: GemmPrecision,
    op_a: MatOp,
    a: &Matrix<f64>,
    op_b: MatOp,
    b: &Matrix<f64>,
    alpha: f64,
    beta: f64,
    c: &Matrix<f64>,
) -> Result<GemmResult<f64>, M3xuError> {
    try_gemm_op_f64_faulted_ctx(ctx, precision, op_a, a, op_b, b, alpha, beta, c).map(|(r, _)| r)
}

/// [`try_gemm_op_f64_ctx`] with the invocation's [`FaultSummary`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_gemm_op_f64_faulted_ctx(
    ctx: &M3xuContext,
    precision: GemmPrecision,
    op_a: MatOp,
    a: &Matrix<f64>,
    op_b: MatOp,
    b: &Matrix<f64>,
    alpha: f64,
    beta: f64,
    c: &Matrix<f64>,
) -> Result<(GemmResult<f64>, FaultSummary), M3xuError> {
    check_precision(precision, false, "gemm_op_f64")?;
    try_blas3_routed(
        ctx,
        "gemm_op_f64",
        precision.mode(),
        &OpView::new(a, op_a),
        &OpView::new(b, op_b),
        alpha,
        beta,
        c,
        OutRegion::Full,
        false,
    )
}

/// Context-attached SYRK: `C := alpha·op(A)·op(A)^T + beta·C`, writing
/// only the `tri` triangle of `C`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_syrk_f32_ctx(
    ctx: &M3xuContext,
    precision: GemmPrecision,
    tri: Triangle,
    op_a: MatOp,
    a: &Matrix<f32>,
    alpha: f32,
    beta: f32,
    c: &Matrix<f32>,
) -> Result<GemmResult<f32>, M3xuError> {
    try_syrk_f32_faulted_ctx(ctx, precision, tri, op_a, a, alpha, beta, c).map(|(r, _)| r)
}

/// [`try_syrk_f32_ctx`] with the invocation's [`FaultSummary`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_syrk_f32_faulted_ctx(
    ctx: &M3xuContext,
    precision: GemmPrecision,
    tri: Triangle,
    op_a: MatOp,
    a: &Matrix<f32>,
    alpha: f32,
    beta: f32,
    c: &Matrix<f32>,
) -> Result<(GemmResult<f32>, FaultSummary), M3xuError> {
    check_precision(precision, true, "syrk_f32")?;
    try_blas3_routed(
        ctx,
        "syrk",
        precision.mode(),
        &OpView::new(a, op_a),
        &OpView::new(a, syrk_b_op(op_a)),
        alpha,
        beta,
        c,
        OutRegion::Tri(tri),
        false,
    )
}

/// Context-attached HERK: `C := alpha·op(A)·op(A)^H + beta·C` with real
/// `alpha`/`beta`, writing only the `tri` triangle; diagonal entries are
/// exactly real on output (BLAS convention). `op_a` must be `N` or `H` —
/// `T` has no Hermitian-rank-k meaning and is rejected.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_herk_c32_ctx(
    ctx: &M3xuContext,
    tri: Triangle,
    op_a: MatOp,
    a: &Matrix<Complex<f32>>,
    alpha: f32,
    beta: f32,
    c: &Matrix<Complex<f32>>,
) -> Result<GemmResult<Complex<f32>>, M3xuError> {
    try_herk_c32_faulted_ctx(ctx, tri, op_a, a, alpha, beta, c).map(|(r, _)| r)
}

/// [`try_herk_c32_ctx`] with the invocation's [`FaultSummary`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_herk_c32_faulted_ctx(
    ctx: &M3xuContext,
    tri: Triangle,
    op_a: MatOp,
    a: &Matrix<Complex<f32>>,
    alpha: f32,
    beta: f32,
    c: &Matrix<Complex<f32>>,
) -> Result<(GemmResult<Complex<f32>>, FaultSummary), M3xuError> {
    let b_op = match op_a {
        MatOp::N => MatOp::H,
        MatOp::H => MatOp::N,
        MatOp::T => {
            return Err(M3xuError::ModeMismatch {
                context: "herk(op): op(A) must be N or H",
                got: MxuMode::M3xuFp32c,
            })
        }
    };
    try_blas3_routed(
        ctx,
        "herk",
        MxuMode::M3xuFp32c,
        &OpView::new(a, op_a),
        &OpView::new(a, b_op),
        Complex::new(alpha, 0.0),
        Complex::new(beta, 0.0),
        c,
        OutRegion::Tri(tri),
        true,
    )
}

/// Context-attached SYMM: `C := alpha·sym(A)·B + beta·C` (Left) or
/// `C := alpha·B·sym(A) + beta·C` (Right), where `sym(A)` expands the
/// `tri`-stored triangle of the square matrix `A` on the fly.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_symm_f32_ctx(
    ctx: &M3xuContext,
    precision: GemmPrecision,
    side: Side,
    tri: Triangle,
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    alpha: f32,
    beta: f32,
    c: &Matrix<f32>,
) -> Result<GemmResult<f32>, M3xuError> {
    try_symm_f32_faulted_ctx(ctx, precision, side, tri, a, b, alpha, beta, c).map(|(r, _)| r)
}

/// [`try_symm_f32_ctx`] with the invocation's [`FaultSummary`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_symm_f32_faulted_ctx(
    ctx: &M3xuContext,
    precision: GemmPrecision,
    side: Side,
    tri: Triangle,
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    alpha: f32,
    beta: f32,
    c: &Matrix<f32>,
) -> Result<(GemmResult<f32>, FaultSummary), M3xuError> {
    check_precision(precision, true, "symm_f32")?;
    if a.rows() != a.cols() {
        return Err(M3xuError::ShapeMismatch {
            context: "symm(A): A must be square",
            expected: (a.rows(), a.rows()),
            got: (a.rows(), a.cols()),
        });
    }
    let sym = MirrorView::new(a, tri, false);
    match side {
        Side::Left => try_blas3_routed(
            ctx,
            "symm",
            precision.mode(),
            &sym,
            b,
            alpha,
            beta,
            c,
            OutRegion::Full,
            false,
        ),
        Side::Right => try_blas3_routed(
            ctx,
            "symm",
            precision.mode(),
            b,
            &sym,
            alpha,
            beta,
            c,
            OutRegion::Full,
            false,
        ),
    }
}

/// Context-attached HEMM: the Hermitian counterpart of
/// [`try_symm_f32_ctx`] on the FP32C engine. The mirror conjugates across
/// the diagonal and reads diagonal entries as real (BLAS convention).
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_hemm_c32_ctx(
    ctx: &M3xuContext,
    side: Side,
    tri: Triangle,
    a: &Matrix<Complex<f32>>,
    b: &Matrix<Complex<f32>>,
    alpha: Complex<f32>,
    beta: Complex<f32>,
    c: &Matrix<Complex<f32>>,
) -> Result<GemmResult<Complex<f32>>, M3xuError> {
    try_hemm_c32_faulted_ctx(ctx, side, tri, a, b, alpha, beta, c).map(|(r, _)| r)
}

/// [`try_hemm_c32_ctx`] with the invocation's [`FaultSummary`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_hemm_c32_faulted_ctx(
    ctx: &M3xuContext,
    side: Side,
    tri: Triangle,
    a: &Matrix<Complex<f32>>,
    b: &Matrix<Complex<f32>>,
    alpha: Complex<f32>,
    beta: Complex<f32>,
    c: &Matrix<Complex<f32>>,
) -> Result<(GemmResult<Complex<f32>>, FaultSummary), M3xuError> {
    if a.rows() != a.cols() {
        return Err(M3xuError::ShapeMismatch {
            context: "hemm(A): A must be square",
            expected: (a.rows(), a.rows()),
            got: (a.rows(), a.cols()),
        });
    }
    let herm = MirrorView::new(a, tri, true);
    match side {
        Side::Left => try_blas3_routed(
            ctx,
            "hemm",
            MxuMode::M3xuFp32c,
            &herm,
            b,
            alpha,
            beta,
            c,
            OutRegion::Full,
            false,
        ),
        Side::Right => try_blas3_routed(
            ctx,
            "hemm",
            MxuMode::M3xuFp32c,
            b,
            &herm,
            alpha,
            beta,
            c,
            OutRegion::Full,
            false,
        ),
    }
}

// ---------------------------------------------------------------------------
// Free functions on the process-wide default context.
// ---------------------------------------------------------------------------

/// Fallible op-GEMM `D = alpha·op(A)·op(B) + beta·C` on the default
/// context. `op = N`, `alpha = 1`, `beta = 1` is bit-identical to
/// [`crate::gemm::try_gemm_f32`].
#[allow(clippy::too_many_arguments)]
pub fn try_gemm_op_f32(
    precision: GemmPrecision,
    op_a: MatOp,
    a: &Matrix<f32>,
    op_b: MatOp,
    b: &Matrix<f32>,
    alpha: f32,
    beta: f32,
    c: &Matrix<f32>,
) -> Result<GemmResult<f32>, M3xuError> {
    context::default_context().try_gemm_op_f32(precision, op_a, a, op_b, b, alpha, beta, c)
}

/// Op-GEMM `D = alpha·op(A)·op(B) + beta·C`. Panics on shape/precision
/// mismatch; see [`try_gemm_op_f32`] for the fallible form.
#[allow(clippy::too_many_arguments)]
pub fn gemm_op_f32(
    precision: GemmPrecision,
    op_a: MatOp,
    a: &Matrix<f32>,
    op_b: MatOp,
    b: &Matrix<f32>,
    alpha: f32,
    beta: f32,
    c: &Matrix<f32>,
) -> GemmResult<f32> {
    try_gemm_op_f32(precision, op_a, a, op_b, b, alpha, beta, c).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible complex op-GEMM on the default context.
#[allow(clippy::too_many_arguments)]
pub fn try_cgemm_op_c32(
    op_a: MatOp,
    a: &Matrix<Complex<f32>>,
    op_b: MatOp,
    b: &Matrix<Complex<f32>>,
    alpha: Complex<f32>,
    beta: Complex<f32>,
    c: &Matrix<Complex<f32>>,
) -> Result<GemmResult<Complex<f32>>, M3xuError> {
    context::default_context().try_cgemm_op_c32(op_a, a, op_b, b, alpha, beta, c)
}

/// Complex op-GEMM. Panics on shape mismatch; see [`try_cgemm_op_c32`].
#[allow(clippy::too_many_arguments)]
pub fn cgemm_op_c32(
    op_a: MatOp,
    a: &Matrix<Complex<f32>>,
    op_b: MatOp,
    b: &Matrix<Complex<f32>>,
    alpha: Complex<f32>,
    beta: Complex<f32>,
    c: &Matrix<Complex<f32>>,
) -> GemmResult<Complex<f32>> {
    try_cgemm_op_c32(op_a, a, op_b, b, alpha, beta, c).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible emulated-FP64 op-GEMM on the default context.
#[allow(clippy::too_many_arguments)]
pub fn try_gemm_op_f64(
    op_a: MatOp,
    a: &Matrix<f64>,
    op_b: MatOp,
    b: &Matrix<f64>,
    alpha: f64,
    beta: f64,
    c: &Matrix<f64>,
) -> Result<GemmResult<f64>, M3xuError> {
    context::default_context().try_gemm_op_f64(
        GemmPrecision::Fp64Emulated,
        op_a,
        a,
        op_b,
        b,
        alpha,
        beta,
        c,
    )
}

/// Emulated-FP64 op-GEMM. Panics on shape mismatch; see
/// [`try_gemm_op_f64`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_op_f64(
    op_a: MatOp,
    a: &Matrix<f64>,
    op_b: MatOp,
    b: &Matrix<f64>,
    alpha: f64,
    beta: f64,
    c: &Matrix<f64>,
) -> GemmResult<f64> {
    try_gemm_op_f64(op_a, a, op_b, b, alpha, beta, c).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible SYRK `C := alpha·op(A)·op(A)^T + beta·C` on the default
/// context, writing only the `tri` triangle.
pub fn try_syrk_f32(
    precision: GemmPrecision,
    tri: Triangle,
    op_a: MatOp,
    a: &Matrix<f32>,
    alpha: f32,
    beta: f32,
    c: &Matrix<f32>,
) -> Result<GemmResult<f32>, M3xuError> {
    context::default_context().try_syrk_f32(precision, tri, op_a, a, alpha, beta, c)
}

/// SYRK. Panics on shape/precision mismatch; see [`try_syrk_f32`].
pub fn syrk_f32(
    precision: GemmPrecision,
    tri: Triangle,
    op_a: MatOp,
    a: &Matrix<f32>,
    alpha: f32,
    beta: f32,
    c: &Matrix<f32>,
) -> GemmResult<f32> {
    try_syrk_f32(precision, tri, op_a, a, alpha, beta, c).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible HERK `C := alpha·op(A)·op(A)^H + beta·C` (real alpha/beta) on
/// the default context, writing only the `tri` triangle.
pub fn try_herk_c32(
    tri: Triangle,
    op_a: MatOp,
    a: &Matrix<Complex<f32>>,
    alpha: f32,
    beta: f32,
    c: &Matrix<Complex<f32>>,
) -> Result<GemmResult<Complex<f32>>, M3xuError> {
    context::default_context().try_herk_c32(tri, op_a, a, alpha, beta, c)
}

/// HERK. Panics on shape mismatch; see [`try_herk_c32`].
pub fn herk_c32(
    tri: Triangle,
    op_a: MatOp,
    a: &Matrix<Complex<f32>>,
    alpha: f32,
    beta: f32,
    c: &Matrix<Complex<f32>>,
) -> GemmResult<Complex<f32>> {
    try_herk_c32(tri, op_a, a, alpha, beta, c).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible SYMM on the default context.
#[allow(clippy::too_many_arguments)]
pub fn try_symm_f32(
    precision: GemmPrecision,
    side: Side,
    tri: Triangle,
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    alpha: f32,
    beta: f32,
    c: &Matrix<f32>,
) -> Result<GemmResult<f32>, M3xuError> {
    context::default_context().try_symm_f32(precision, side, tri, a, b, alpha, beta, c)
}

/// SYMM. Panics on shape/precision mismatch; see [`try_symm_f32`].
#[allow(clippy::too_many_arguments)]
pub fn symm_f32(
    precision: GemmPrecision,
    side: Side,
    tri: Triangle,
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    alpha: f32,
    beta: f32,
    c: &Matrix<f32>,
) -> GemmResult<f32> {
    try_symm_f32(precision, side, tri, a, b, alpha, beta, c).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible HEMM on the default context.
#[allow(clippy::too_many_arguments)]
pub fn try_hemm_c32(
    side: Side,
    tri: Triangle,
    a: &Matrix<Complex<f32>>,
    b: &Matrix<Complex<f32>>,
    alpha: Complex<f32>,
    beta: Complex<f32>,
    c: &Matrix<Complex<f32>>,
) -> Result<GemmResult<Complex<f32>>, M3xuError> {
    context::default_context().try_hemm_c32(side, tri, a, b, alpha, beta, c)
}

/// HEMM. Panics on shape mismatch; see [`try_hemm_c32`].
#[allow(clippy::too_many_arguments)]
pub fn hemm_c32(
    side: Side,
    tri: Triangle,
    a: &Matrix<Complex<f32>>,
    b: &Matrix<Complex<f32>>,
    alpha: Complex<f32>,
    beta: Complex<f32>,
    c: &Matrix<Complex<f32>>,
) -> GemmResult<Complex<f32>> {
    try_hemm_c32(side, tri, a, b, alpha, beta, c).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{try_cgemm_c32, try_gemm_f32, try_gemm_f64 as plain_gemm_f64};

    type C32 = Complex<f32>;

    fn bits_f32(m: &Matrix<f32>) -> Vec<u32> {
        (0..m.rows())
            .flat_map(|i| (0..m.cols()).map(move |j| m.get(i, j).to_bits()))
            .collect()
    }

    fn bits_c32(m: &Matrix<C32>) -> Vec<(u32, u32)> {
        (0..m.rows())
            .flat_map(|i| {
                (0..m.cols()).map(move |j| {
                    let v = m.get(i, j);
                    (v.re.to_bits(), v.im.to_bits())
                })
            })
            .collect()
    }

    #[test]
    fn op_n_unit_scalars_bit_identical_to_plain_gemm() {
        let (m, k, n) = (23, 14, 17);
        let a = Matrix::<f32>::random(m, k, 1);
        let b = Matrix::<f32>::random(k, n, 2);
        let c = Matrix::<f32>::random(m, n, 3);
        for p in GemmPrecision::ALL {
            if !p.is_f32() {
                continue;
            }
            let plain = try_gemm_f32(p, &a, &b, &c).unwrap();
            let op = try_gemm_op_f32(p, MatOp::N, &a, MatOp::N, &b, 1.0, 1.0, &c).unwrap();
            assert_eq!(bits_f32(&plain.d), bits_f32(&op.d), "{p:?}");
            assert_eq!(plain.stats, op.stats, "{p:?}");
        }
        let ac = Matrix::random_c32(m, k, 4);
        let bc = Matrix::random_c32(k, n, 5);
        let cc = Matrix::random_c32(m, n, 6);
        let plain = try_cgemm_c32(&ac, &bc, &cc).unwrap();
        let op = try_cgemm_op_c32(MatOp::N, &ac, MatOp::N, &bc, C32::ONE, C32::ONE, &cc).unwrap();
        assert_eq!(bits_c32(&plain.d), bits_c32(&op.d));
        assert_eq!(plain.stats, op.stats);

        let ad = Matrix::random_f64(m, k, 7);
        let bd = Matrix::random_f64(k, n, 8);
        let cd = Matrix::random_f64(m, n, 9);
        let plain = plain_gemm_f64(GemmPrecision::Fp64Emulated, &ad, &bd, &cd).unwrap();
        let op = try_gemm_op_f64(MatOp::N, &ad, MatOp::N, &bd, 1.0, 1.0, &cd).unwrap();
        for i in 0..m {
            for j in 0..n {
                assert_eq!(plain.d.get(i, j).to_bits(), op.d.get(i, j).to_bits());
            }
        }
        assert_eq!(plain.stats, op.stats);
    }

    #[test]
    fn op_views_match_materialized_operands() {
        let (m, k, n) = (13, 9, 21);
        // Stored transposed: op(X) = X^T recovers the logical operand.
        let at = Matrix::<f32>::random(k, m, 11);
        let bt = Matrix::<f32>::random(n, k, 12);
        let c = Matrix::<f32>::random(m, n, 13);
        let via_view = try_gemm_op_f32(
            GemmPrecision::M3xuFp32,
            MatOp::T,
            &at,
            MatOp::T,
            &bt,
            1.0,
            1.0,
            &c,
        )
        .unwrap();
        let am = OpView::new(&at, MatOp::T).materialize();
        let bm = OpView::new(&bt, MatOp::T).materialize();
        let via_copy = try_gemm_f32(GemmPrecision::M3xuFp32, &am, &bm, &c).unwrap();
        assert_eq!(bits_f32(&via_view.d), bits_f32(&via_copy.d));

        // Complex: conjugate-transpose against its materialization.
        let ah = Matrix::random_c32(k, m, 14);
        let bh = Matrix::random_c32(n, k, 15);
        let cc = Matrix::random_c32(m, n, 16);
        let via_view =
            try_cgemm_op_c32(MatOp::H, &ah, MatOp::H, &bh, C32::ONE, C32::ONE, &cc).unwrap();
        let am = OpView::new(&ah, MatOp::H).materialize();
        let bm = OpView::new(&bh, MatOp::H).materialize();
        let via_copy = try_cgemm_c32(&am, &bm, &cc).unwrap();
        assert_eq!(bits_c32(&via_view.d), bits_c32(&via_copy.d));
    }

    #[test]
    fn alpha_beta_fold_matches_elementwise_prefold() {
        let (m, k, n) = (11, 6, 10);
        let a = Matrix::<f32>::random(m, k, 21);
        let b = Matrix::<f32>::random(k, n, 22);
        let c = Matrix::<f32>::random(m, n, 23);
        for (alpha, beta) in [(0.5f32, -1.0f32), (-1.0, 0.5), (0.0, 2.0), (2.0, 0.0)] {
            let folded = try_gemm_op_f32(
                GemmPrecision::M3xuFp32,
                MatOp::N,
                &a,
                MatOp::N,
                &b,
                alpha,
                beta,
                &c,
            )
            .unwrap();
            let am = Matrix::from_fn(m, k, |i, j| alpha * a.get(i, j));
            let cm = Matrix::from_fn(m, n, |i, j| beta * c.get(i, j));
            let pre = try_gemm_f32(GemmPrecision::M3xuFp32, &am, &b, &cm).unwrap();
            assert_eq!(
                bits_f32(&folded.d),
                bits_f32(&pre.d),
                "alpha={alpha} beta={beta}"
            );
        }
    }

    #[test]
    fn beta_zero_never_reads_c() {
        let (m, k, n) = (9, 5, 9);
        let a = Matrix::<f32>::random(m, k, 31);
        let b = Matrix::<f32>::random(k, n, 32);
        let poison = Matrix::from_fn(m, n, |_, _| f32::NAN);
        let r = try_gemm_op_f32(
            GemmPrecision::M3xuFp32,
            MatOp::N,
            &a,
            MatOp::N,
            &b,
            1.0,
            0.0,
            &poison,
        )
        .unwrap();
        let zero = Matrix::zeros(m, n);
        let want = try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &zero).unwrap();
        assert_eq!(bits_f32(&r.d), bits_f32(&want.d));
    }

    #[test]
    fn syrk_writes_one_triangle_and_halves_the_tile_grid() {
        let (n, k) = (33, 12);
        let a = Matrix::<f32>::random(n, k, 41);
        let canary = Matrix::from_fn(n, n, |i, j| (i * 131 + j) as f32 * 0.5 - 3.0);
        let ctx = M3xuContext::with_threads(2);
        let r = ctx
            .try_syrk_f32(
                GemmPrecision::M3xuFp32,
                Triangle::Lower,
                MatOp::N,
                &a,
                1.0,
                1.0,
                &canary,
            )
            .unwrap();
        // The full-output reference: op-GEMM with B = A^T.
        let full = ctx
            .try_gemm_op_f32(
                GemmPrecision::M3xuFp32,
                MatOp::N,
                &a,
                MatOp::T,
                &a,
                1.0,
                1.0,
                &canary,
            )
            .unwrap();
        for i in 0..n {
            for j in 0..n {
                if Triangle::Lower.contains(i, j) {
                    assert_eq!(r.d.get(i, j).to_bits(), full.d.get(i, j).to_bits());
                } else {
                    assert_eq!(r.d.get(i, j).to_bits(), canary.get(i, j).to_bits());
                }
            }
        }
        // 5 tiles per side: 15 of 25 scheduled, 6 k-chunks each.
        let t = n.div_ceil(8) as u64;
        let tri_tiles = t * (t + 1) / 2;
        assert_eq!(r.stats.instructions, tri_tiles * (k as u64).div_ceil(2));
        assert_eq!(full.stats.instructions, t * t * (k as u64).div_ceil(2));
    }

    #[test]
    fn herk_diagonal_is_exactly_real_and_upper_triangle_untouched() {
        let (n, k) = (19, 7);
        let a = Matrix::random_c32(n, k, 51);
        let canary = Matrix::from_fn(n, n, |i, j| C32::new(i as f32, j as f32 + 0.25));
        let r = try_herk_c32(Triangle::Upper, MatOp::N, &a, 0.75, -0.5, &canary).unwrap();
        for i in 0..n {
            assert_eq!(r.d.get(i, i).im.to_bits(), 0.0f32.to_bits(), "diag {i}");
            for j in 0..n {
                if !Triangle::Upper.contains(i, j) {
                    let (got, want) = (r.d.get(i, j), canary.get(i, j));
                    assert_eq!(got.re.to_bits(), want.re.to_bits());
                    assert_eq!(got.im.to_bits(), want.im.to_bits());
                }
            }
        }
        // op = T is meaningless for a Hermitian update.
        assert!(matches!(
            try_herk_c32(Triangle::Upper, MatOp::T, &a, 1.0, 1.0, &canary),
            Err(M3xuError::ModeMismatch { .. })
        ));
    }

    #[test]
    fn symm_and_hemm_match_mirror_materialization() {
        let (n, m) = (12, 15);
        let a = Matrix::<f32>::random(n, n, 61);
        let b = Matrix::<f32>::random(n, m, 62);
        let c = Matrix::<f32>::random(n, m, 63);
        let via_mirror = try_symm_f32(
            GemmPrecision::M3xuFp32,
            Side::Left,
            Triangle::Lower,
            &a,
            &b,
            0.5,
            2.0,
            &c,
        )
        .unwrap();
        let sym = MirrorView::new(&a, Triangle::Lower, false).materialize();
        let want = try_gemm_op_f32(
            GemmPrecision::M3xuFp32,
            MatOp::N,
            &sym,
            MatOp::N,
            &b,
            0.5,
            2.0,
            &c,
        )
        .unwrap();
        assert_eq!(bits_f32(&via_mirror.d), bits_f32(&want.d));

        // Right side: C = alpha·B'·herm(A) + beta·C on the complex engine.
        let ah = Matrix::random_c32(n, n, 64);
        let bh = Matrix::random_c32(m, n, 65);
        let ch = Matrix::random_c32(m, n, 66);
        let alpha = C32::new(0.5, -0.25);
        let beta = C32::new(-1.0, 0.0);
        let via_mirror =
            try_hemm_c32(Side::Right, Triangle::Upper, &ah, &bh, alpha, beta, &ch).unwrap();
        let herm = MirrorView::new(&ah, Triangle::Upper, true).materialize();
        let want = try_cgemm_op_c32(MatOp::N, &bh, MatOp::N, &herm, alpha, beta, &ch).unwrap();
        assert_eq!(bits_c32(&via_mirror.d), bits_c32(&want.d));
    }

    #[test]
    fn shape_and_precision_errors_are_typed() {
        let a = Matrix::<f32>::random(4, 6, 71);
        let b = Matrix::<f32>::random(5, 3, 72);
        let c = Matrix::<f32>::random(4, 3, 73);
        assert!(matches!(
            try_gemm_op_f32(
                GemmPrecision::M3xuFp32,
                MatOp::N,
                &a,
                MatOp::N,
                &b,
                1.0,
                1.0,
                &c
            ),
            Err(M3xuError::ShapeMismatch { .. })
        ));
        // Transposing B fixes the inner dimension but breaks C's width.
        assert!(matches!(
            try_gemm_op_f32(
                GemmPrecision::M3xuFp32,
                MatOp::N,
                &a,
                MatOp::T,
                &b,
                1.0,
                1.0,
                &c
            ),
            Err(M3xuError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            try_syrk_f32(
                GemmPrecision::Fp64Emulated,
                Triangle::Lower,
                MatOp::N,
                &a,
                1.0,
                1.0,
                &c
            ),
            Err(M3xuError::ModeMismatch { .. })
        ));
        let nsq = Matrix::<f32>::random(4, 5, 74);
        let b2 = Matrix::<f32>::random(5, 3, 75);
        let c2 = Matrix::<f32>::random(4, 3, 76);
        assert!(matches!(
            try_symm_f32(
                GemmPrecision::M3xuFp32,
                Side::Left,
                Triangle::Lower,
                &nsq,
                &b2,
                1.0,
                1.0,
                &c2
            ),
            Err(M3xuError::ShapeMismatch { .. })
        ));
    }
}
