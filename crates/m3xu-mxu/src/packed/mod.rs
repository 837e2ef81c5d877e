//! Packed-operand fragment pipeline — pack values, split on demand.
//!
//! The per-fragment MMA entry points in [`crate::mma`] re-read and
//! re-quantise their operand tiles on every call: a tiled GEMM converts
//! each element of `A` once per *column tile* of `B` (and vice versa), and
//! every fragment heap-allocates its `StepPlan`. This module removes both
//! costs:
//!
//! * [`PackedOperand`] packs a whole GEMM operand **once per GEMM** into
//!   value planes, each element quantised and alpha-folded once. Its
//!   [`BufferEntry`] split (FP32 hi/lo, FP32C's four halves, the
//!   emulated-FP64 slices) is a pure function of the value, so it is
//!   decoded where it is read, as M3XU's data-assignment multiplexers
//!   split mantissas at execute time;
//! * [`DotProductUnit::mma_f32_into`], [`DotProductUnit::mma_c32_into`]
//!   and [`DotProductUnit::mma_f64_into`] decode one fragment chunk's `A`
//!   rows and `B` columns into scratch the unit reuses, then execute the
//!   chunk into a caller-owned accumulator slice — no allocation on the
//!   hot path once the scratch has grown.
//!
//! ## One element body per precision
//!
//! The element bodies spell no schedule of their own: each walks its
//! mode's [`crate::assign`] table over the decoded chunk. One element body
//! per precision runs it through two consumers, the 128-bit fast window
//! and the Kulisch drain; it is the differential oracle of the SIMD
//! panels below. ABFT checking is a tap on that same body: given a
//! [`ChunkCheck`], the per-chunk executors also report each element's
//! `F_p` residue, and the injected fault lands on the drained output, so
//! a checked chunk cannot compute different bits from an unchecked one.
//!
//! ## Bit-exactness
//!
//! The packed executors fuse a fragment's 2 (FP32) or 4 (FP32C) plan steps
//! into a single lane stream per output element. This is bit-identical to
//! the step-ordered execution of [`crate::assign`]'s plans because
//!
//! 1. finite lanes accumulate *exactly* in the Kulisch register — integer
//!    addition is commutative and associative, so lane order is irrelevant;
//! 2. the special-value state machine's final *value* is a pure function of
//!    the lane multiset (any NaN input or Inf·0 poisons; otherwise opposing
//!    infinities poison; otherwise a single infinity sign wins); and
//! 3. the rounding boundary is preserved: each output element is drained to
//!    its output format exactly once per fragment, and the rounded value
//!    re-seeds the next fragment of the `K`-loop — the same once-per-MMA
//!    rounding contract as [`crate::mma`].
//!
//! ## The SIMD row pipeline
//!
//! On top of the per-chunk executors, the panel entry points
//! ([`DotProductUnit::mma_f32_panel_into`],
//! [`DotProductUnit::mma_c32_panel_into`] and
//! [`DotProductUnit::mma_f64_panel_into`]) run a whole `K`-panel per
//! call and, where a full 8-column fragment row is available, run a SIMD
//! panel body over it — see [`simd`] for the exactness argument and the
//! `M3XU_SIMD` kill switch. There is one body per precision family,
//! written once in portable Rust and compiled once per level by
//! `simd::dispatch`: FP32 (every real mode up to fast and exact FP32),
//! FP32C and emulated FP64. The FP32 and FP32C bodies round each chunk
//! with one portable `f64` rounder, `simd::round_chunk`: a certified
//! exact pair `h + l`, rounded to odd at 53 bits, then to FP32. In
//! unchecked FP32, fast-FP32 and FP32C panels a quick tier,
//! `simd::round_chunk_quick`, runs first: a plain `f64` sum and an error
//! interval whose two ends must round alike, so only the rows it refuses
//! run the pair. The bodies round several fragment rows per chunk step,
//! so the rows' independent seed chains overlap. The fast FP32 mode forms
//! its truncated product exactly in `f64`, and emulated FP64 runs one
//! fused multiply-add per chunk. No body switches on the level but the
//! FP64 one, for its FMA row. The scalar element bodies stay the
//! differential oracle and the fallback for partial rows, specials, zero
//! FP64 results and chunks the pair cannot certify; a fallback decodes
//! only the element-chunk it reruns, out of line, so the panel rows stay
//! in registers.
//!
//! A checked FP32-family or FP32C chunk
//! ([`DotProductUnit::mma_f32_checked_into`],
//! [`DotProductUnit::mma_c32_checked_into`]) runs the same panel body
//! with its residue tap, a `const` generic, turned on, and without the
//! quick tier: each vector column's residue is that of its exact pair,
//! `residue(h) + residue(l)`, each fallback column's is the scalar element
//! body's tap.
//! Emulated-FP64 chunks stay on the slice/Kulisch body when checked: the
//! FMA row rounds in one instruction and keeps no exact pre-rounding
//! value to take a residue from.

pub mod simd;

use crate::abft::Checksum;
use crate::assign::{self, Lane, Schedule, COMPLEX, NATIVE, SLICES5, SPLIT, SPLIT_FAST};
use crate::buffer::{
    decode_fp32, decode_fp64_slices, decode_narrow_f32, round_f32_to_narrow, BufferEntry,
};
use crate::dpu::{DotProductUnit, Target};
use crate::error::M3xuError;
use crate::fault::{corrupt_f32, corrupt_f64, MmaFault};
use crate::matrix::{MatSource, Matrix};
use crate::mma::{MmaShape, MmaStats};
use crate::modes::MxuMode;
use m3xu_fp::complex::Complex;
use m3xu_fp::format::{BF16, FP16, TF32};
use m3xu_fp::residue::{
    add_m61, mul_pow2_m61, reduce_u64, residue_f64, residue_f64_lane, sub_m61, M61,
};
use m3xu_fp::split::FP64_SLICES_EMULATED;

/// Buffer entries the data-assignment stage provisions per operand element
/// in `mode`: its [`assign::schedule`]'s entries (the fast FP32 variant
/// packs the identical two slices; truncation happens at term scheduling,
/// not at decode).
pub const fn entries_per_element(mode: MxuMode) -> usize {
    assign::schedule(mode).entries
}

/// The statistics one full fragment of `shape` contributes in `mode` —
/// identical to what the per-fragment [`crate::mma`] executors count on
/// zero-padded tiles (padded lanes are provisioned by the hardware whether
/// or not their products are useful, so they are charged either way).
///
/// A MAC costs [`MxuMode::terms_per_mac`] lane products — for the legacy
/// modes that equals `steps * entries_per_element` (pinned by
/// `fragment_stats_match_tile_counters` below), while the truncated fast
/// schedule charges only the terms it actually issues.
pub fn fragment_stats(mode: MxuMode, shape: MmaShape) -> MmaStats {
    MmaStats {
        instructions: 1,
        steps: mode.steps() as u64,
        lane_products: shape.macs() * mode.terms_per_mac(),
    }
}

/// One GEMM operand packed into value planes, ready for any number of
/// fragment executions.
///
/// `vecs` dot-product operand vectors (the rows of `A`, or the columns of
/// `B`), each `len` elements long. Each element is stored once, as the
/// exact value the multiplier array consumes: the input itself for the
/// lossless FP32/FP32C modes, the quantised value for the narrow modes,
/// specials as themselves, with `alpha` folded in on the rows side. The
/// real `f32` modes and FP32C fill the `f32` plane `vals`: row-major
/// `[vec][k]` on the rows side, k-major `[k][vec]` on the columns side, so
/// one vector load covers 8 consecutive output columns (FP32C interleaves
/// re/im on the rows side and stores a re plane, then an im plane, on the
/// columns side). The emulated-FP64 mode fills the `f64` plane `vals64`
/// in the same two layouts.
///
/// The [`simd`] panel bodies read the planes directly. The scalar element
/// bodies read [`BufferEntry`]s, decoded from the planes per chunk with
/// [`decode_fp32`], `decode_narrow_f32` and [`decode_fp64_slices`], the
/// split the multiplier array's data-assignment stage makes.
#[derive(Debug, Clone)]
pub struct PackedOperand {
    mode: MxuMode,
    len: usize,
    vecs: usize,
    vals: Vec<f32>,
    vals64: Vec<f64>,
    /// True for column packing (`B` side): the value planes are k-major.
    transposed: bool,
}

/// Reusable backing buffers for a [`PackedOperand`] — the unit the
/// context scratch arena recycles so repeated GEMMs stop visiting the
/// allocator for their value planes.
#[derive(Debug, Default)]
pub struct PackedStorage {
    /// Planar `f32` value plane (the real `f32` modes and FP32C).
    pub vals: Vec<f32>,
    /// Planar `f64` value plane (emulated FP64).
    pub vals64: Vec<f64>,
}

impl PackedStorage {
    /// Clear both planes and pre-size them for `elems` operand elements at
    /// `vpe` `f32` and `vpe64` `f64` value slots each.
    fn prepared(mut self, elems: usize, vpe: usize, vpe64: usize) -> Self {
        self.vals.clear();
        self.vals.reserve(elems * vpe);
        self.vals64.clear();
        self.vals64.reserve(elems * vpe64);
        self
    }
}

/// True for the modes a real `f32` operand can be packed for.
const fn is_real_f32_mode(mode: MxuMode) -> bool {
    matches!(
        mode,
        MxuMode::M3xuFp32 | MxuMode::M3xuFp32Fast | MxuMode::Tf32 | MxuMode::Fp16 | MxuMode::Bf16
    )
}

/// Append `f(i, j)` over a `rows x cols` grid, row by row, as the exact
/// `f32` it packs to in the real mode `mode`: itself for FP32 (hi+lo
/// reconstruct it), else rounded to the narrow format (every TF32/FP16/
/// BF16 value, a rounded-to-infinity overflow included, is an `f32`).
/// Specials pass through as themselves, so the row kernels'
/// non-finite-product abort routes them to the oracle path.
#[inline]
fn extend_quantised(
    vals: &mut Vec<f32>,
    rows: usize,
    cols: usize,
    mode: MxuMode,
    f: impl Fn(usize, usize) -> f32,
) {
    for i in 0..rows {
        let row = (0..cols).map(|j| f(i, j));
        match mode {
            MxuMode::M3xuFp32 | MxuMode::M3xuFp32Fast => vals.extend(row),
            _ => vals.extend(row.map(|x| quantise_narrow(x, mode))),
        }
    }
}

/// [`round_f32_to_narrow`] to the format of the narrow mode `mode`. Kept
/// out of line: the pack loop took ~40% less time calling it than with
/// the rounder inlined (11–14 against 19–23 ns per element, 256² operands,
/// AVX2 Xeon).
#[inline(never)]
fn quantise_narrow(x: f32, mode: MxuMode) -> f32 {
    match mode {
        MxuMode::Tf32 => round_f32_to_narrow(x, TF32),
        MxuMode::Fp16 => round_f32_to_narrow(x, FP16),
        _ => round_f32_to_narrow(x, BF16),
    }
}

/// Fold the scalar `alpha` into an element before quantisation. A bitwise
/// check against `1.0` skips the multiply entirely, so an `alpha = 1` pack
/// stores every element exactly as given (a NaN payload or signed zero
/// never passes through a multiply) — the contract the op/alpha
/// differential suite pins against the plain GEMM path.
#[inline]
fn scale_f32(alpha: f32, x: f32) -> f32 {
    if alpha.to_bits() == 1.0f32.to_bits() {
        x
    } else {
        alpha * x
    }
}

/// [`scale_f32`] for complex elements (bitwise skip at `alpha = 1 + 0i`).
#[inline]
fn scale_c32(alpha: Complex<f32>, x: Complex<f32>) -> Complex<f32> {
    if alpha.re.to_bits() == 1.0f32.to_bits() && alpha.im.to_bits() == 0.0f32.to_bits() {
        x
    } else {
        alpha * x
    }
}

/// [`scale_f32`] for `f64` elements (bitwise skip at `alpha = 1.0`).
#[inline]
fn scale_f64(alpha: f64, x: f64) -> f64 {
    if alpha.to_bits() == 1.0f64.to_bits() {
        x
    } else {
        alpha * x
    }
}

impl PackedOperand {
    /// Fallible [`PackedOperand::pack_rows_f32`]: rejects the complex and
    /// FP64 modes (whose operands are not plain `f32` planes) with
    /// [`M3xuError::ModeMismatch`] instead of aborting.
    pub fn try_pack_rows_f32(m: &Matrix<f32>, mode: MxuMode) -> Result<Self, M3xuError> {
        Self::try_pack_rows_f32_src_in(m, 1.0, mode, PackedStorage::default())
    }

    /// Pack a real operand by rows (the `A` side of `A·B`).
    ///
    /// Panics on a non-real packing mode; see
    /// [`PackedOperand::try_pack_rows_f32`] for the fallible form.
    pub fn pack_rows_f32(m: &Matrix<f32>, mode: MxuMode) -> Self {
        Self::try_pack_rows_f32(m, mode).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`PackedOperand::pack_cols_f32`].
    pub fn try_pack_cols_f32(m: &Matrix<f32>, mode: MxuMode) -> Result<Self, M3xuError> {
        Self::try_pack_cols_f32_src_in(m, mode, PackedStorage::default())
    }

    /// Pack a real operand by columns (the `B` side of `A·B`).
    ///
    /// Panics on a non-real packing mode; see
    /// [`PackedOperand::try_pack_cols_f32`] for the fallible form.
    pub fn pack_cols_f32(m: &Matrix<f32>, mode: MxuMode) -> Self {
        Self::try_pack_cols_f32(m, mode).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Pack a complex operand by rows (FP32C mode).
    pub fn pack_rows_c32(m: &Matrix<Complex<f32>>) -> Self {
        Self::pack_rows_c32_src_in(m, Complex::<f32>::ONE, PackedStorage::default())
    }

    /// Pack a complex operand by columns (FP32C mode).
    pub fn pack_cols_c32(m: &Matrix<Complex<f32>>) -> Self {
        Self::pack_cols_c32_src_in(m, PackedStorage::default())
    }

    /// Fallible pack of an FP64 operand by rows for the emulated-FP64
    /// mode: each element's `f64` value, which the scalar element body
    /// splits into its `N` mantissa slices (see [`decode_fp64_slices`]),
    /// every slice within the 12-bit multiplier field, and which the FMA
    /// row kernel of [`DotProductUnit::mma_f64_panel_into`] reads whole.
    /// Rejects every other mode with [`M3xuError::ModeMismatch`].
    pub fn try_pack_rows_f64(m: &Matrix<f64>, mode: MxuMode) -> Result<Self, M3xuError> {
        Self::try_pack_rows_f64_src_in(m, 1.0, mode, PackedStorage::default())
    }

    /// Fallible pack of an FP64 operand by columns for the emulated-FP64
    /// mode (the `B` side); see [`PackedOperand::try_pack_rows_f64`].
    pub fn try_pack_cols_f64(m: &Matrix<f64>, mode: MxuMode) -> Result<Self, M3xuError> {
        Self::try_pack_cols_f64_src_in(m, mode, PackedStorage::default())
    }

    /// Pack a real operand by rows from any logical [`MatSource`] — an
    /// [`crate::matrix::OpView`] for `op(A)` iteration, a
    /// [`crate::matrix::MirrorView`] for a triangle-stored SYMM operand, or
    /// a plain [`Matrix`] — folding `alpha` into every element *before*
    /// mode quantisation (`alpha = 1` skips the multiply bitwise).
    ///
    /// The buffers of `storage` are cleared and their capacity reused, so
    /// an arena that round-trips storage through
    /// [`PackedOperand::into_storage`] packs repeated GEMMs without
    /// touching the allocator.
    pub fn try_pack_rows_f32_src_in<S: MatSource<f32>>(
        src: &S,
        alpha: f32,
        mode: MxuMode,
        storage: PackedStorage,
    ) -> Result<Self, M3xuError> {
        if !is_real_f32_mode(mode) {
            return Err(M3xuError::ModeMismatch {
                context: "PackedOperand::pack_rows_f32",
                got: mode,
            });
        }
        let (rows, cols) = (src.rows(), src.cols());
        let PackedStorage { mut vals, vals64 } = storage.prepared(rows * cols, 1, 0);
        extend_quantised(&mut vals, rows, cols, mode, |i, k| {
            scale_f32(alpha, src.at(i, k))
        });
        Ok(PackedOperand {
            mode,
            len: cols,
            vecs: rows,
            vals,
            vals64,
            transposed: false,
        })
    }

    /// Pack a real operand by columns from any logical [`MatSource`] (the
    /// `B` side); see [`PackedOperand::try_pack_rows_f32_src_in`]. Alpha
    /// folds into the `A` side only, so the column packers take none.
    pub fn try_pack_cols_f32_src_in<S: MatSource<f32>>(
        src: &S,
        mode: MxuMode,
        storage: PackedStorage,
    ) -> Result<Self, M3xuError> {
        if !is_real_f32_mode(mode) {
            return Err(M3xuError::ModeMismatch {
                context: "PackedOperand::pack_cols_f32",
                got: mode,
            });
        }
        let (rows, cols) = (src.rows(), src.cols());
        let PackedStorage { mut vals, vals64 } = storage.prepared(rows * cols, 1, 0);
        // The k-major plane is the source's logical row-major order:
        // vals[k * vecs + v] = src[k][v].
        extend_quantised(&mut vals, rows, cols, mode, |i, j| src.at(i, j));
        Ok(PackedOperand {
            mode,
            len: rows,
            vecs: cols,
            vals,
            vals64,
            transposed: true,
        })
    }

    /// Pack a complex operand by rows from any logical [`MatSource`]
    /// (FP32C mode), folding `alpha` into each element; see
    /// [`PackedOperand::try_pack_rows_f32_src_in`].
    pub fn pack_rows_c32_src_in<S: MatSource<Complex<f32>>>(
        src: &S,
        alpha: Complex<f32>,
        storage: PackedStorage,
    ) -> Self {
        let (rows, cols) = (src.rows(), src.cols());
        let PackedStorage { mut vals, vals64 } = storage.prepared(rows * cols, 2, 0);
        for i in 0..rows {
            for k in 0..cols {
                let x = scale_c32(alpha, src.at(i, k));
                vals.extend([x.re, x.im]);
            }
        }
        PackedOperand {
            mode: MxuMode::M3xuFp32c,
            len: cols,
            vecs: rows,
            vals,
            vals64,
            transposed: false,
        }
    }

    /// Pack a complex operand by columns from any logical [`MatSource`]
    /// (FP32C mode, the `B` side); see
    /// [`PackedOperand::pack_rows_c32_src_in`].
    pub fn pack_cols_c32_src_in<S: MatSource<Complex<f32>>>(
        src: &S,
        storage: PackedStorage,
    ) -> Self {
        let (rows, cols) = (src.rows(), src.cols());
        let PackedStorage { mut vals, vals64 } = storage.prepared(rows * cols, 2, 0);
        // Planar k-major component planes in the source's logical
        // row-major order: the re plane, then the im plane.
        for i in 0..rows {
            vals.extend((0..cols).map(|j| src.at(i, j).re));
        }
        for i in 0..rows {
            vals.extend((0..cols).map(|j| src.at(i, j).im));
        }
        PackedOperand {
            mode: MxuMode::M3xuFp32c,
            len: rows,
            vecs: cols,
            vals,
            vals64,
            transposed: true,
        }
    }

    /// Pack an FP64 operand by rows from any logical [`MatSource`] for the
    /// emulated-FP64 mode, folding `alpha` into each element; see
    /// [`PackedOperand::try_pack_rows_f64`].
    pub fn try_pack_rows_f64_src_in<S: MatSource<f64>>(
        src: &S,
        alpha: f64,
        mode: MxuMode,
        storage: PackedStorage,
    ) -> Result<Self, M3xuError> {
        if mode != MxuMode::M3xuFp64Emu {
            return Err(M3xuError::ModeMismatch {
                context: "PackedOperand::pack_rows_f64",
                got: mode,
            });
        }
        let (rows, cols) = (src.rows(), src.cols());
        let PackedStorage { vals, mut vals64 } = storage.prepared(rows * cols, 0, 1);
        for i in 0..rows {
            vals64.extend((0..cols).map(|k| scale_f64(alpha, src.at(i, k))));
        }
        Ok(PackedOperand {
            mode,
            len: cols,
            vecs: rows,
            vals,
            vals64,
            transposed: false,
        })
    }

    /// Pack an FP64 operand by columns from any logical [`MatSource`] for
    /// the emulated-FP64 mode (the `B` side), k-major as on the f32 side;
    /// see [`PackedOperand::try_pack_rows_f64_src_in`].
    pub fn try_pack_cols_f64_src_in<S: MatSource<f64>>(
        src: &S,
        mode: MxuMode,
        storage: PackedStorage,
    ) -> Result<Self, M3xuError> {
        if mode != MxuMode::M3xuFp64Emu {
            return Err(M3xuError::ModeMismatch {
                context: "PackedOperand::pack_cols_f64",
                got: mode,
            });
        }
        let (rows, cols) = (src.rows(), src.cols());
        let PackedStorage { vals, mut vals64 } = storage.prepared(rows * cols, 0, 1);
        for i in 0..rows {
            vals64.extend((0..cols).map(|j| src.at(i, j)));
        }
        Ok(PackedOperand {
            mode,
            len: rows,
            vecs: cols,
            vals,
            vals64,
            transposed: true,
        })
    }

    /// Reclaim the backing buffers for reuse by a later `*_src_in` pack call —
    /// the other half of the arena round-trip.
    pub fn into_storage(self) -> PackedStorage {
        PackedStorage {
            vals: self.vals,
            vals64: self.vals64,
        }
    }

    /// The mode this operand was packed for.
    #[inline]
    pub fn mode(&self) -> MxuMode {
        self.mode
    }

    /// Buffer entries each element decodes to ([`entries_per_element`]).
    #[inline]
    pub fn epe(&self) -> usize {
        entries_per_element(self.mode)
    }

    /// Elements per operand vector (the reduction length `K`).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the reduction dimension is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of operand vectors packed.
    #[inline]
    pub fn vecs(&self) -> usize {
        self.vecs
    }

    /// Index of element `k` of vector `v` in a value plane.
    #[inline]
    fn at(&self, v: usize, k: usize) -> usize {
        if self.transposed {
            k * self.vecs + v
        } else {
            v * self.len + k
        }
    }

    /// Element `k` of vector `v` of a real-`f32`-mode operand, as packed.
    #[inline]
    pub(crate) fn value_f32(&self, v: usize, k: usize) -> f32 {
        self.vals[self.at(v, k)]
    }

    /// Element `k` of vector `v` of an FP32C operand, as packed.
    #[inline]
    pub(crate) fn value_c32(&self, v: usize, k: usize) -> Complex<f32> {
        if self.transposed {
            let i = self.at(v, k);
            Complex::new(self.vals[i], self.vals[self.len * self.vecs + i])
        } else {
            let i = 2 * self.at(v, k);
            Complex::new(self.vals[i], self.vals[i + 1])
        }
    }

    /// Element `k` of vector `v` of an emulated-FP64 operand, as packed.
    #[inline]
    pub(crate) fn value_f64(&self, v: usize, k: usize) -> f64 {
        self.vals64[self.at(v, k)]
    }

    /// Decode elements `[k0, kend)` of vector `v` into their buffer
    /// entries, [`PackedOperand::epe`] per element, at the front of `out`:
    /// the FP32 hi/lo halves ([`decode_fp32`]), the narrow format's single
    /// entry ([`decode_narrow_f32`], no second rounding), FP32C's
    /// `[re_hi, re_lo, im_hi, im_lo]`, or the emulated-FP64 mantissa
    /// slices ([`decode_fp64_slices`]).
    pub(crate) fn decode(&self, v: usize, k0: usize, kend: usize, out: &mut [BufferEntry]) {
        let epe = self.epe();
        assert!(out.len() >= (kend - k0) * epe, "decode buffer too short");
        for (k, e) in (k0..kend).zip(out.chunks_exact_mut(epe)) {
            match self.mode {
                MxuMode::M3xuFp32 | MxuMode::M3xuFp32Fast => {
                    (e[0], e[1]) = decode_fp32(self.value_f32(v, k));
                }
                MxuMode::Tf32 => e[0] = decode_narrow_f32(self.value_f32(v, k), TF32),
                MxuMode::Fp16 => e[0] = decode_narrow_f32(self.value_f32(v, k), FP16),
                MxuMode::Bf16 => e[0] = decode_narrow_f32(self.value_f32(v, k), BF16),
                MxuMode::M3xuFp32c => {
                    let x = self.value_c32(v, k);
                    (e[0], e[1]) = decode_fp32(x.re);
                    (e[2], e[3]) = decode_fp32(x.im);
                }
                MxuMode::M3xuFp64Emu => {
                    decode_fp64_slices(self.value_f64(v, k), FP64_SLICES_EMULATED, e);
                }
                _ => unreachable!("no packer admits {}", self.mode),
            }
        }
    }
}

/// Decode chunk `[k0, kend)` of `a`'s rows `r0..r0 + rows` and `b`'s
/// columns `c0..c0 + cols` into `buf`, grown to fit: each vector's
/// `(kend - k0) · epe` entries in turn, the rows first. Returns that
/// per-vector stride.
#[allow(clippy::too_many_arguments)]
fn decode_chunk(
    buf: &mut Vec<BufferEntry>,
    a: &PackedOperand,
    b: &PackedOperand,
    r0: usize,
    rows: usize,
    c0: usize,
    cols: usize,
    k0: usize,
    kend: usize,
) -> usize {
    let w = (kend - k0) * a.epe();
    if buf.len() < (rows + cols) * w {
        buf.resize((rows + cols) * w, BufferEntry::ZERO);
    }
    let (av, bv) = buf.split_at_mut(rows * w);
    for i in 0..rows {
        a.decode(r0 + i, k0, kend, &mut av[i * w..]);
    }
    for j in 0..cols {
        b.decode(c0 + j, k0, kend, &mut bv[j * w..]);
    }
    w
}

/// Entries a SIMD panel's fallback decodes per operand: a `MAX_KLEN`-deep
/// chunk of two-entry FP32 elements. FP32C (4 entries) and emulated FP64
/// (5) run one element deep.
const FALLBACK_ENTRIES: usize = 2 * simd::MAX_KLEN;

/// A SIMD panel's fallback for one element-chunk: decode chunk `[k0,
/// kend)` of `a`'s row `row` and `b`'s column `col` onto the stack and
/// run `body` (a scalar element body) on the two decoded chunks. Each
/// panel calls it from an out-of-line closure, so the decode stays out of
/// the panel loop.
#[inline]
fn rerun<R>(
    a: &PackedOperand,
    b: &PackedOperand,
    row: usize,
    col: usize,
    k0: usize,
    kend: usize,
    body: impl FnOnce(&[BufferEntry], &[BufferEntry]) -> R,
) -> R {
    let n = (kend - k0) * a.epe();
    let mut e = [[BufferEntry::ZERO; FALLBACK_ENTRIES]; 2];
    a.decode(row, k0, kend, &mut e[0]);
    b.decode(col, k0, kend, &mut e[1]);
    body(&e[0][..n], &e[1][..n])
}

/// One finite dot-product contribution `±mant · 2^pow` with `mant < 2^24`
/// (a 12x12-bit lane product, or the seeded `C` element's significand).
type Contrib = (u64, i32, bool);

/// Capacity of the fast-path contribution window: covers every fragment
/// shape the drivers issue (at most 9 contributions per output element).
/// Larger `klen` requests simply take the general Kulisch path.
const FAST_CONTRIB_CAP: usize = 12;

/// Maximum exponent spread the 128-bit fast window accepts. The exact sum
/// of at most `FAST_CONTRIB_CAP` terms below `2^24` then stays below
/// `2^(24 + 96 + 4) < 2^127`, so the `i128` accumulation cannot overflow.
const FAST_POW_RANGE: i32 = 96;

/// Round the exact value `sum * 2^pmin` to FP32 — round-to-nearest,
/// ties-to-even, gradual underflow, overflow to infinity. This is
/// [`m3xu_fp::fixed::Kulisch::round_to`] specialised to a 128-bit window
/// (same kept-bit / round-bit / sticky-bit selection, same tie and
/// boundary handling), verified bit-identical by `fast_rounding_matches_
/// kulisch` below and by the end-to-end differential GEMM tests.
#[inline(always)]
fn fast_round_f32(sum: i128, pmin: i32) -> f32 {
    let (sign, frac, weight, finite) = fast_round_parts(sum, pmin);
    fast_round_assemble(sign, frac, weight, finite)
}

/// The rounding core of [`fast_round_f32`], returning the result in
/// decoded form: value = `±frac · 2^weight` with `frac < 2^24`, or a
/// signed infinity when `finite` is false; [`fast_round_assemble`] turns
/// it into the f32 bits.
#[inline(always)]
fn fast_round_parts(sum: i128, pmin: i32) -> (u32, u64, i32, bool) {
    if sum == 0 {
        return (0, 0, -149, true);
    }
    let negative = sum < 0;
    let sign = (negative as u32) << 31;
    let m = sum.unsigned_abs();
    let h = 127 - m.leading_zeros() as i32; // position of the leading bit
    let e = h + pmin; // exponent of the leading bit
                      // Fast path for the overwhelmingly common shape: the round and
                      // sticky probes sit entirely below the kept bits (h >= 25) and the
                      // result is strictly normal with no overflow possible even after a
                      // rounding carry (-126 <= e <= 126). One funnel shift yields the
                      // kept fraction and the round bit together; everything the general
                      // path guards against (subnormals, ties at the subnormal boundary,
                      // overflow) is unreachable here.
    if h >= 25 && e > -127 && e < 127 {
        let lowbit = h - 24;
        let r2 = (m >> lowbit) as u64; // frac:24 | round:1
        let sticky = m & ((1u128 << lowbit) - 1) != 0;
        let mut frac = r2 >> 1;
        let round = r2 & 1 == 1;
        frac += (round & (sticky | (frac & 1 == 1))) as u64;
        let carry = (frac >> 24) as i32 & 1;
        frac >>= carry;
        return (sign, frac, e - 23 + carry, true);
    }
    if e > 128 {
        // Magnitude at least 2^129 > 2 * f32::MAX: overflow regardless of
        // the rounding bits.
        return (sign, 0, 0, false);
    }
    // FP32: 24 bits of precision, minimum normal exponent -126.
    let keep = if e < -126 { 24 - (-126 - e) } else { 24 };
    if keep <= 0 {
        // At or below half of the least subnormal 2^-149: e < -150 is a
        // signed zero; e == -150 is exactly half (rounds to even, zero)
        // unless any lower bit is set (rounds away to the least
        // subnormal).
        let away = e == -150 && m != 1u128 << h;
        return (sign, away as u64, -149, true);
    }
    let lowbit = h - keep + 1; // position of the kept LSB
    let (mut frac, round, sticky);
    if lowbit >= 0 {
        // `lb1` clamps the below-LSB probes so they are well-defined at
        // lowbit 0/1, where the `lowbit > _` factors zero them anyway.
        let lb1 = (lowbit - 1).max(0) as u32;
        frac = (m >> lowbit) as u64;
        round = (lowbit > 0) & ((m >> lb1) & 1 == 1);
        sticky = (lowbit > 1) & (m & ((1u128 << lb1) - 1) != 0);
    } else {
        frac = (m as u64) << (-lowbit) as u32;
        round = false;
        sticky = false;
    }
    let mut weight = e - keep + 1;
    // Branchless round-to-nearest-even: increment, then renormalise a
    // carry out of the full 24-bit width (frac can only reach exactly
    // 2^keep). A carry at a narrower kept width stays subnormal — it
    // merely sets the next mantissa bit at the same weight -149, which
    // the bit assembly encodes directly.
    frac += (round & (sticky | (frac & 1 == 1))) as u64;
    let carry = (frac >> 24) as u32 & 1;
    frac >>= carry;
    weight += carry as i32;
    // Rounding can push the magnitude past f32::MAX (biased exponent
    // field 255): `weight + 23` is the result's exponent, and frac's top
    // bit is necessarily set whenever the exponent is anywhere near the
    // overflow boundary.
    if weight + 23 >= 128 {
        return (sign, 0, 0, false);
    }
    (sign, frac, weight, true)
}

/// Assemble the FP32 bits of a [`fast_round_parts`] result. A kept width
/// below 24 pins `weight` to -149, so `frac`'s bit 23 cleanly separates
/// subnormals (biased exponent 0, mantissa = frac) from normals (biased
/// exponent `weight + 150`, implicit bit masked off) — including a
/// subnormal that a rounding carry just promoted to the least normal.
#[inline(always)]
fn fast_round_assemble(sign: u32, frac: u64, weight: i32, finite: bool) -> f32 {
    if !finite {
        return f32::from_bits(sign | 0x7f80_0000);
    }
    let hi = (frac >> 23) as u32;
    let ebits = (weight + 23 + 127) as u32;
    f32::from_bits(sign | ((ebits * hi) << 23) | (frac as u32 & 0x007f_ffff))
}

/// Every column of a SIMD fragment row, as a bitmask.
const ROW_MASK: u32 = (1 << simd::COLS) - 1;

/// Call `f` with the index of every set bit of `mask`, lowest first.
#[inline(always)]
fn for_each_bit(mut mask: u32, mut f: impl FnMut(usize)) {
    while mask != 0 {
        f(mask.trailing_zeros() as usize);
        mask &= mask - 1;
    }
}

/// Fast-path exact reduction of one output element: collects the lane
/// products of a fragment as integer contributions and rounds their exact
/// sum once. Aborts to the general Kulisch path (`None`) on any special
/// operand, capacity overflow, or an exponent spread beyond the 128-bit
/// window — the fallback is bit-identical, only slower.
struct FastDot {
    contrib: [Contrib; FAST_CONTRIB_CAP],
    n: usize,
}

impl FastDot {
    #[inline]
    fn new(seed: f32) -> Option<FastDot> {
        if !seed.is_finite() {
            return None;
        }
        let mut dot = FastDot {
            contrib: [(0, 0, false); FAST_CONTRIB_CAP],
            n: 0,
        };
        let bits = seed.to_bits();
        let exp = ((bits >> 23) & 0xff) as i32;
        let mant = (bits & 0x7f_ffff) as u64;
        if exp != 0 {
            dot.contrib[0] = (mant | 0x80_0000, exp - 127 - 23, bits >> 31 == 1);
            dot.n = 1;
        } else if mant != 0 {
            dot.contrib[0] = (mant, -149, bits >> 31 == 1);
            dot.n = 1;
        }
        Some(dot)
    }

    /// Add one lane's product; `None` aborts to the Kulisch fallback.
    #[inline]
    fn push_pair(&mut self, x: &BufferEntry, y: &BufferEntry, negate: bool) -> Option<()> {
        if x.special.is_some() || y.special.is_some() {
            return None;
        }
        let p = x.mant as u64 * y.mant as u64;
        if p == 0 {
            return Some(()); // same skip as the DPU's zero-product lanes
        }
        if self.n == FAST_CONTRIB_CAP {
            return None;
        }
        self.contrib[self.n] = (p, x.pow + y.pow, x.sign ^ y.sign ^ negate);
        self.n += 1;
        Some(())
    }

    #[inline]
    fn reduce(&self) -> Option<f32> {
        let c = &self.contrib[..self.n];
        if c.is_empty() {
            return Some(0.0);
        }
        let mut pmin = i32::MAX;
        let mut pmax = i32::MIN;
        for &(_, p, _) in c {
            pmin = pmin.min(p);
            pmax = pmax.max(p);
        }
        if pmax - pmin > FAST_POW_RANGE {
            return None;
        }
        let mut sum = 0i128;
        for &(m, p, neg) in c {
            let t = (m as i128) << (p - pmin) as u32;
            sum += if neg { -t } else { t };
        }
        Some(fast_round_f32(sum, pmin))
    }

    /// `F_p` residue (`p = 2^61 - 1`) of the exact pre-rounding sum: the
    /// contribution list *is* the dyadic value, so the residue is the
    /// signed sum of the homomorphic images — no shifting, no window.
    fn residue_m61(&self) -> u64 {
        let mut r = 0u64;
        for &(m, p, neg) in &self.contrib[..self.n] {
            let t = mul_pow2_m61(m, p as i64);
            r = if neg { sub_m61(r, t) } else { add_m61(r, t) };
        }
        r
    }
}

/// Walk `schedule` over one output element's decoded chunk (`av` and `bv`
/// hold [`Schedule::entries`] entries per element): call `visit` with each
/// element's entries and each of its lanes in turn, and stop at the first
/// `None`. Lane order is irrelevant to the result: both consumers — the
/// fast window and the Kulisch register — are exact, and the specials
/// state machine's final value is a pure function of the lane multiset.
///
/// The tables the hot paths run are walked unrolled, so that every lane's
/// entry indices are constants: a loop over a table reads them from
/// memory, which costs the FP32-family and FP32C bodies 15–20%. Their
/// lane counts tell them apart.
#[inline(always)]
fn walk(
    av: &[BufferEntry],
    bv: &[BufferEntry],
    schedule: &Schedule,
    mut visit: impl FnMut(&[BufferEntry], &[BufferEntry], &Lane) -> Option<()>,
) -> Option<()> {
    macro_rules! unrolled {
        ($table:expr; $($i:literal)*) => {{
            const S: Schedule<'static> = $table;
            const _: () = assert!(S.lanes.len() == [$($i),*].len());
            debug_assert_eq!(*schedule, S);
            for (x, y) in av.chunks_exact(S.entries).zip(bv.chunks_exact(S.entries)) {
                $( visit(x, y, &const { S.lanes[$i] })?; )*
            }
        }};
    }
    match schedule.lanes.len() {
        1 => unrolled!(NATIVE; 0),
        3 => unrolled!(SPLIT_FAST; 0 1 2),
        4 => unrolled!(SPLIT; 0 1 2 3),
        16 => unrolled!(COMPLEX; 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15),
        _ => {
            let n = schedule.entries;
            for (x, y) in av.chunks_exact(n).zip(bv.chunks_exact(n)) {
                for l in schedule.lanes {
                    visit(x, y, l)?;
                }
            }
        }
    }
    Some(())
}

/// The Kulisch drain of a real schedule: clear and seed the real register
/// and execute every lane, leaving the result for the caller to read.
/// With `tap`, returns the register's residue (see
/// [`scalar_element_real`]).
#[inline]
fn kulisch_real(
    dpu: &mut DotProductUnit,
    seed: f64,
    av: &[BufferEntry],
    bv: &[BufferEntry],
    schedule: &Schedule,
    tap: bool,
) -> Option<u64> {
    dpu.clear_real();
    dpu.seed_real(seed);
    walk(av, bv, schedule, |x, y, l| {
        dpu.execute_lane_op(&l.op(x, y));
        Some(())
    });
    tap.then(|| dpu.real_residue_m61()).flatten()
}

/// One real-mode output element over a decoded chunk: the fast exact
/// window, else the Kulisch drain, both walking the mode's `schedule`.
/// The single definition shared by the per-chunk executor, checked or
/// not, and the SIMD panel's fallback — every path is the same code, not
/// merely equivalent code.
///
/// With `tap`, also returns the `F_p` residue (`p = 2^61 - 1`) of the
/// exact pre-rounding value the result was rounded from: the fast window's
/// contribution list, or the Kulisch register (`None` once specials
/// poisoned it). Either way it is the residue of the term schedule the
/// datapath ran, truncated or full, which the expected side mirrors.
/// Without `tap` the residue is `None` and costs nothing.
#[inline]
fn scalar_element_real(
    dpu: &mut DotProductUnit,
    seed: f32,
    av: &[BufferEntry],
    bv: &[BufferEntry],
    schedule: &Schedule,
    lanes_per_element: u64,
    tap: bool,
) -> (f32, Option<u64>) {
    // Fast path: exact integer reduction in a 128-bit window, bit-
    // identical to the Kulisch drain below (see `fast_round_f32`).
    // Specials, wide exponent spreads, and oversized reductions fall
    // through to the general path.
    if let Some(mut dot) = FastDot::new(seed) {
        let pushed = walk(av, bv, schedule, |x, y, l| {
            dot.push_pair(&x[l.a], &y[l.b], l.negate)
        });
        if let Some(v) = pushed.and_then(|()| dot.reduce()) {
            dpu.lane_ops += lanes_per_element;
            return (v, tap.then(|| dot.residue_m61()));
        }
    }
    let res = kulisch_real(dpu, seed as f64, av, bv, schedule, tap);
    (dpu.read_real_f32(), res)
}

/// One emulated-FP64 output element over a decoded chunk: [`SLICES5`]
/// accumulated exactly in the Kulisch register, seeded with the incoming
/// `f64` accumulator (exact — no narrowing) and drained back to `f64` once
/// per chunk; `tap` as in [`scalar_element_real`]. There is no 128-bit
/// fast window here: the 53-bit seed and the wider slice family exceed its
/// design envelope. This is the oracle of the FMA row kernel
/// ([`DotProductUnit::mma_f64_panel_into`]), the path of its zero and
/// non-finite lanes, and the body every checked chunk runs.
fn scalar_element_f64(
    dpu: &mut DotProductUnit,
    seed: f64,
    av: &[BufferEntry],
    bv: &[BufferEntry],
    tap: bool,
) -> (f64, Option<u64>) {
    let res = kulisch_real(dpu, seed, av, bv, &SLICES5, tap);
    (dpu.read_real_f64(), res)
}

/// One FP32C output element over a decoded chunk — the complex
/// counterpart of [`scalar_element_real`], walking [`COMPLEX`]; the tap
/// returns the real and the imaginary component's residues.
#[inline]
fn scalar_element_c32(
    dpu: &mut DotProductUnit,
    seed: Complex<f32>,
    av: &[BufferEntry],
    bv: &[BufferEntry],
    lanes_per_element: u64,
    tap: bool,
) -> (Complex<f32>, Option<(u64, u64)>) {
    // Fast path (see `scalar_element_real`): both components reduced
    // exactly in 128-bit windows, or the whole element falls back to the
    // Kulisch pipeline.
    if let (Some(mut re), Some(mut im)) = (FastDot::new(seed.re), FastDot::new(seed.im)) {
        let pushed = walk(av, bv, &COMPLEX, |x, y, l| {
            let dot = match l.target {
                Target::Real => &mut re,
                Target::Imag => &mut im,
            };
            dot.push_pair(&x[l.a], &y[l.b], l.negate)
        });
        if let Some(v) = pushed.and_then(|()| Some(Complex::new(re.reduce()?, im.reduce()?))) {
            dpu.lane_ops += lanes_per_element;
            return (v, tap.then(|| (re.residue_m61(), im.residue_m61())));
        }
    }
    dpu.clear();
    dpu.seed_real(seed.re as f64);
    dpu.seed_imag(seed.im as f64);
    walk(av, bv, &COMPLEX, |x, y, l| {
        dpu.execute_lane_op(&l.op(x, y));
        Some(())
    });
    let res = tap.then(|| dpu.real_residue_m61().zip(dpu.imag_residue_m61()));
    let v = Complex::new(dpu.read_real_f32(), dpu.read_imag_f32());
    (v, res.flatten())
}

/// The ABFT tap of one checked chunk: pass it to
/// [`DotProductUnit::mma_f32_checked_into`] or
/// [`DotProductUnit::mma_c32_checked_into`] (the SIMD panel body, where
/// the panel would run it), or as `Some(&mut check)` to the scalar
/// per-chunk executors [`DotProductUnit::mma_f32_into`],
/// [`DotProductUnit::mma_c32_into`] and [`DotProductUnit::mma_f64_into`].
///
/// The executor accumulates the **computed** chunk checksum: the `F_p`
/// residue sum of every output element's exact pre-rounding value — a
/// SIMD column's exact pair `h + l`, or the scalar body's fast-path
/// contribution list or Kulisch register — the same state the rounded
/// value is drained from. An injected fault then corrupts one drained
/// output component and moves the checksum by the residue difference,
/// exactly as a flipped storage bit would shift the value; the checksum
/// identity exposes it against the expected side. Fault-free, a checked
/// chunk writes the bits of an unchecked one: both run the same body.
#[derive(Debug, Clone, Copy)]
pub struct ChunkCheck {
    /// The corruption to inject, if any. Its lane selects one output
    /// component, `lane % slots`: `rows·cols` slots in the real modes,
    /// `rows·cols·2` in FP32C (re at even slots, im at odd).
    pub fault: Option<MmaFault>,
    /// The computed checksum, accumulated by the executor.
    pub computed: Checksum,
}

impl ChunkCheck {
    /// A check of one chunk, injecting `fault`.
    pub fn new(fault: Option<MmaFault>) -> ChunkCheck {
        ChunkCheck {
            fault,
            computed: Checksum::ZERO,
        }
    }

    /// Apply the fault, if any, to the chunk's drained output: `target`
    /// maps the fault's slot (`lane % slots`) to that output component
    /// and whether it counts in the checksum's imaginary part. `corrupt`
    /// rewrites the component, and the checksum moves by `residue(new) −
    /// residue(old)` (widening to `f64` is exact, so `residue_f64` serves
    /// both widths); a component without a residue poisons it. A special
    /// value is no fault target and stays as it is.
    fn inject<'o, T: Copy + Into<f64> + 'o>(
        &mut self,
        slots: usize,
        corrupt: fn(T, &MmaFault) -> Option<T>,
        target: impl FnOnce(usize) -> (&'o mut T, bool),
    ) {
        let Some(f) = self.fault else {
            return;
        };
        let (v, imag) = target((f.lane() % slots as u64) as usize);
        let Some(cv) = corrupt(*v, &f) else {
            return;
        };
        let part = if imag {
            &mut self.computed.im
        } else {
            &mut self.computed.re
        };
        match (residue_f64((*v).into()), residue_f64(cv.into())) {
            (Some(old), Some(new)) if self.computed.ok => {
                *part = add_m61(sub_m61(*part, old), new);
            }
            _ => self.computed = Checksum::UNVERIFIABLE,
        }
        *v = cv;
    }

    /// [`ChunkCheck::inject`] over an FP32C output, two component slots
    /// per element.
    fn inject_c32(&mut self, acc: &mut [Complex<f32>]) {
        self.inject(acc.len() * 2, corrupt_f32, |slot| {
            let z = &mut acc[slot / 2];
            if slot % 2 == 0 {
                (&mut z.re, false)
            } else {
                (&mut z.im, true)
            }
        });
    }
}

/// Whether a panel of `cols` output columns runs a SIMD body at `level`:
/// a vector level, a full fragment row, row-major `A` and k-major `B`.
/// Each mode adds its chunk-depth bound.
fn vector_panel(level: simd::SimdLevel, a: &PackedOperand, b: &PackedOperand, cols: usize) -> bool {
    level != simd::SimdLevel::Scalar && cols == simd::COLS && !a.transposed && b.transposed
}

/// A SIMD panel's origin and tap, fixed for the whole panel: what an
/// out-of-line oracle rerun needs beside the element-chunk it reruns.
struct PanelAt<'p> {
    a: &'p PackedOperand,
    b: &'p PackedOperand,
    r0: usize,
    c0: usize,
    /// Lane products per MAC ([`MxuMode::terms_per_mac`]).
    terms: u64,
    /// The tapped residues' sum (a tapped body only).
    computed: &'p mut Checksum,
}

/// `R` fragment rows of a real-mode SIMD panel in flight: their `A`
/// rows, their accumulators, which stay `f32` rows from the first chunk to
/// the last, and the `B` rows they have yet to consume.
struct RowGroup<'p, const R: usize> {
    /// The first row's index within the tile.
    i: usize,
    arows: [&'p [f32]; R],
    rows: [[f32; simd::COLS]; R],
    b_rows: std::slice::ChunksExact<'p, f32>,
    /// The current chunk's rounded rows, which every chunk overwrites
    /// whole. They are made once per group: made per chunk, they would be
    /// zeroed per chunk, a `memset` call in the AVX2 builds.
    rounded: [simd::RoundedRow; R],
    /// The current chunk's seeds, kept for the pair while the quick tier
    /// writes its results over `rows`.
    seeds: [[f32; simd::COLS]; R],
    /// Whether an unchecked chunk of depth 1 or 2 runs the quick tier
    /// first: in every mode but TF32, whose 22-bit products often sum
    /// exactly onto an FP32 midpoint, which the tier refuses, so that most
    /// rows would be refused (DESIGN §4).
    quick: bool,
}

/// A fragment row's `T` values of `A` for the chunk at `ck0`.
#[inline(always)]
fn chunk_a<const T: usize>(arow: &[f32], ck0: usize) -> &[f32; T] {
    arow[ck0..ck0 + T].try_into().expect("T elements")
}

/// The `F_p` residue of the exact chunk values in the columns of `mask`
/// of one rounded row, whose pairs are `(h[j], l[j])`: the sum of
/// `residue(h) + residue(l)` over those columns. Lane-wise
/// ([`residue_f64_lane`]), so the compiler vectorises it across the row.
#[inline(always)]
fn pair_residues(h: &simd::Row, l: &simd::Row, mask: u32) -> u64 {
    let mut cols = [0u64; simd::COLS];
    for (j, col) in cols.iter_mut().enumerate() {
        let sum = residue_f64_lane(h[j]) + residue_f64_lane(l[j]);
        // Two terms of at most `M61` fold to at most `M61`, so the row's
        // eight columns sum below 2^64.
        *col = if mask >> j & 1 == 1 {
            (sum & M61) + (sum >> 61)
        } else {
            0
        };
    }
    reduce_u64(cols.iter().sum())
}

impl DotProductUnit {
    /// Execute one real-mode fragment out of packed operands, in place.
    ///
    /// Computes `acc[i*cols + j] = round(Σ_k a[r0+i][k]·b[c0+j][k] +
    /// acc[i*cols + j])` for the `rows x cols` output block at `(r0, c0)`,
    /// reducing over packed elements `k0 .. min(k0 + klen, K)`, whose
    /// buffer entries it decodes once into the unit's scratch. `acc` is
    /// both the `C` input and the `D` output (row-major, `rows * cols`);
    /// nothing is allocated once the scratch has grown. With `Some(check)`, each element's residue is
    /// tapped into `check.computed` and `check.fault` corrupts its target
    /// element (see [`ChunkCheck`]); the arithmetic is the same either way.
    /// This is the scalar oracle; see
    /// [`mma_f32_checked_into`](DotProductUnit::mma_f32_checked_into) for
    /// the checked chunk on the SIMD panel body.
    #[allow(clippy::too_many_arguments)]
    pub fn mma_f32_into(
        &mut self,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        k0: usize,
        klen: usize,
        acc: &mut [f32],
        mut check: Option<&mut ChunkCheck>,
    ) {
        assert_eq!(a.mode, b.mode, "operand modes disagree");
        assert_eq!(a.len, b.len, "reduction lengths disagree");
        assert!(acc.len() >= rows * cols, "accumulator scratch too short");
        let kend = (k0 + klen).min(a.len).max(k0);
        let schedule = assign::schedule(a.mode);
        let lanes_per_element = (kend - k0) as u64 * a.mode.terms_per_mac();
        let tap = check.is_some();
        let mut buf = std::mem::take(&mut self.decoded);
        let w = decode_chunk(&mut buf, a, b, r0, rows, c0, cols, k0, kend);
        let (ae, be) = buf.split_at(rows * w);
        for i in 0..rows {
            let av = &ae[i * w..(i + 1) * w];
            for j in 0..cols {
                let bv = &be[j * w..(j + 1) * w];
                let d = &mut acc[i * cols + j];
                let (v, res) =
                    scalar_element_real(self, *d, av, bv, &schedule, lanes_per_element, tap);
                *d = v;
                if let Some(check) = check.as_deref_mut() {
                    check.computed.absorb_re(res);
                }
            }
        }
        self.decoded = buf;
        if let Some(check) = check {
            check.inject(rows * cols, corrupt_f32, |slot| (&mut acc[slot], false));
        }
    }

    /// Execute one FP32C fragment out of packed operands, in place — the
    /// four-step complex schedule fused per element, both components
    /// rounded once at drain. `check` as in
    /// [`mma_f32_into`](DotProductUnit::mma_f32_into), over two component
    /// slots per element.
    #[allow(clippy::too_many_arguments)]
    pub fn mma_c32_into(
        &mut self,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        k0: usize,
        klen: usize,
        acc: &mut [Complex<f32>],
        mut check: Option<&mut ChunkCheck>,
    ) {
        assert_eq!(a.mode, MxuMode::M3xuFp32c, "a is not FP32C-packed");
        assert_eq!(b.mode, MxuMode::M3xuFp32c, "b is not FP32C-packed");
        assert_eq!(a.len, b.len, "reduction lengths disagree");
        assert!(acc.len() >= rows * cols, "accumulator scratch too short");
        let kend = (k0 + klen).min(a.len).max(k0);
        let lanes_per_element = ((kend - k0) * 16) as u64;
        let tap = check.is_some();
        let mut buf = std::mem::take(&mut self.decoded);
        let w = decode_chunk(&mut buf, a, b, r0, rows, c0, cols, k0, kend);
        let (ae, be) = buf.split_at(rows * w);
        for i in 0..rows {
            let av = &ae[i * w..(i + 1) * w];
            for j in 0..cols {
                let bv = &be[j * w..(j + 1) * w];
                let d = &mut acc[i * cols + j];
                let (v, res) = scalar_element_c32(self, *d, av, bv, lanes_per_element, tap);
                *d = v;
                if let Some(check) = check.as_deref_mut() {
                    check.computed.absorb_pair(res);
                }
            }
        }
        self.decoded = buf;
        if let Some(check) = check {
            check.inject_c32(&mut acc[..rows * cols]);
        }
    }

    /// Execute one emulated-FP64 fragment out of packed operands, in
    /// place — the `f64` counterpart of
    /// [`mma_f32_into`](DotProductUnit::mma_f32_into), `check` included.
    /// Each output element accumulates the full `N x N` slice cross
    /// product exactly and rounds to `f64` once per fragment chunk.
    #[allow(clippy::too_many_arguments)]
    pub fn mma_f64_into(
        &mut self,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        k0: usize,
        klen: usize,
        acc: &mut [f64],
        mut check: Option<&mut ChunkCheck>,
    ) {
        assert_eq!(a.mode, MxuMode::M3xuFp64Emu, "a is not FP64-slice-packed");
        assert_eq!(b.mode, MxuMode::M3xuFp64Emu, "b is not FP64-slice-packed");
        assert_eq!(a.len, b.len, "reduction lengths disagree");
        assert!(acc.len() >= rows * cols, "accumulator scratch too short");
        let kend = (k0 + klen).min(a.len).max(k0);
        let tap = check.is_some();
        let mut buf = std::mem::take(&mut self.decoded);
        let w = decode_chunk(&mut buf, a, b, r0, rows, c0, cols, k0, kend);
        let (ae, be) = buf.split_at(rows * w);
        for i in 0..rows {
            let av = &ae[i * w..(i + 1) * w];
            for j in 0..cols {
                let bv = &be[j * w..(j + 1) * w];
                let d = &mut acc[i * cols + j];
                let (v, res) = scalar_element_f64(self, *d, av, bv, tap);
                *d = v;
                if let Some(check) = check.as_deref_mut() {
                    check.computed.absorb_re(res);
                }
            }
        }
        self.decoded = buf;
        if let Some(check) = check {
            check.inject(rows * cols, corrupt_f64, |slot| (&mut acc[slot], false));
        }
    }

    /// Execute a whole `K`-panel `[k0, kend)` of one emulated-FP64 output
    /// tile, chunked at the fragment depth `frag_k` — bit-identical to
    /// looping [`mma_f64_into`](DotProductUnit::mma_f64_into) over the
    /// same chunks.
    ///
    /// At `frag_k = 1` each chunk is `round_f64(seed + a·b)`: the five
    /// 12-bit slices are lossless and the Kulisch drain rounds once, so
    /// the chunk is exactly one IEEE fused multiply-add. When a vector
    /// level is active, full 8-column rows of row-major `A` against
    /// k-major `B` therefore run as an FMA row loop over the `f64` value
    /// planes; a column whose FMA result is zero or non-finite reruns
    /// that element-chunk through the slice oracle, `scalar_element_f64`.
    #[allow(clippy::too_many_arguments)]
    pub fn mma_f64_panel_into(
        &mut self,
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
        assert_eq!(a.mode, MxuMode::M3xuFp64Emu, "a is not FP64-slice-packed");
        assert_eq!(b.mode, MxuMode::M3xuFp64Emu, "b is not FP64-slice-packed");
        assert_eq!(a.len, b.len, "reduction lengths disagree");
        assert!(acc.len() >= rows * cols, "accumulator scratch too short");
        assert!(frag_k > 0, "fragment depth must be positive");
        let kend = kend.min(a.len);
        let level = simd::level();
        if vector_panel(level, a, b, cols) && frag_k == 1 {
            simd::dispatch(
                level,
                #[inline(always)]
                move |l| self.simd_panel_f64_body(l, a, b, r0, rows, c0, k0, kend, acc),
            );
            return;
        }
        let mut ck0 = k0;
        while ck0 < kend {
            let klen = frag_k.min(kend - ck0);
            self.mma_f64_into(a, b, r0, rows, c0, cols, ck0, klen, acc, None);
            ck0 += klen;
        }
    }

    /// Execute a whole `K`-panel `[k0, kend)` of one real-mode output
    /// tile, chunked at the fragment depth `frag_k`.
    ///
    /// Rounding stays per fragment chunk — each chunk's rounded result
    /// seeds the next — so this is bit-identical to looping
    /// [`mma_f32_into`](DotProductUnit::mma_f32_into) over the same
    /// chunks. What changes is the instruction mix: full 8-column rows
    /// of row-major `A` against k-major `B` dispatch to the
    /// [`simd`] row kernels when a vector level is active, forming each
    /// chunk's exact value from whole-product `f64` lanes instead of
    /// split-mantissa buffer entries. The fast truncated mode forms each
    /// lane as `a·b − lo_a·lo_b`, the exact sum of the three slice terms
    /// it issues (see the [`simd`] module).
    #[allow(clippy::too_many_arguments)]
    pub fn mma_f32_panel_into(
        &mut self,
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
        assert_eq!(a.mode, b.mode, "operand modes disagree");
        assert_eq!(a.len, b.len, "reduction lengths disagree");
        assert!(acc.len() >= rows * cols, "accumulator scratch too short");
        assert!(frag_k > 0, "fragment depth must be positive");
        let kend = kend.min(a.len);
        let level = simd::level();
        if vector_panel(level, a, b, cols) && frag_k <= simd::MAX_KLEN && k0 < kend {
            let mut unused = Checksum::ZERO;
            let computed = &mut unused;
            self.simd_panel_f32::<false>(
                level, a, b, r0, rows, c0, k0, kend, frag_k, acc, computed,
            );
            return;
        }
        let mut ck0 = k0;
        while ck0 < kend {
            let klen = frag_k.min(kend - ck0);
            self.mma_f32_into(a, b, r0, rows, c0, cols, ck0, klen, acc, None);
            ck0 += klen;
        }
    }

    /// Execute one real-mode fragment chunk `[k0, k0 + klen)` checked:
    /// bit-identical to [`mma_f32_into`](DotProductUnit::mma_f32_into)
    /// with `Some(check)`, the same [`ChunkCheck`] result included. Where
    /// [`mma_f32_panel_into`](DotProductUnit::mma_f32_panel_into) would
    /// run the SIMD panel body, the chunk runs that body on the certified
    /// pair alone, with its residue tap on — each vector column's exact
    /// pair `(h, l)` folded into `F_p`, each fallback column's scalar tap
    /// — and the fault lands on the drained output; elsewhere it runs the
    /// scalar tapped chunk.
    #[allow(clippy::too_many_arguments)]
    pub fn mma_f32_checked_into(
        &mut self,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        k0: usize,
        klen: usize,
        acc: &mut [f32],
        check: &mut ChunkCheck,
    ) {
        assert_eq!(a.mode, b.mode, "operand modes disagree");
        assert_eq!(a.len, b.len, "reduction lengths disagree");
        assert!(acc.len() >= rows * cols, "accumulator scratch too short");
        let kend = (k0 + klen).min(a.len);
        let level = simd::level();
        if vector_panel(level, a, b, cols)
            && (1..=simd::MAX_KLEN).contains(&(kend.saturating_sub(k0)))
        {
            let computed = &mut check.computed;
            self.simd_panel_f32::<true>(level, a, b, r0, rows, c0, k0, kend, klen, acc, computed);
            check.inject(rows * cols, corrupt_f32, |slot| (&mut acc[slot], false));
        } else {
            self.mma_f32_into(a, b, r0, rows, c0, cols, k0, klen, acc, Some(check));
        }
    }

    /// The FP32C counterpart of
    /// [`mma_f32_panel_into`](DotProductUnit::mma_f32_panel_into):
    /// executes `[k0, kend)` in `frag_k`-deep chunks, bit-identical to
    /// the per-chunk loop, with full 8-column rows dispatched to the
    /// complex SIMD row kernels when a vector level is active.
    #[allow(clippy::too_many_arguments)]
    pub fn mma_c32_panel_into(
        &mut self,
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
        assert_eq!(a.mode, MxuMode::M3xuFp32c, "a is not FP32C-packed");
        assert_eq!(b.mode, MxuMode::M3xuFp32c, "b is not FP32C-packed");
        assert_eq!(a.len, b.len, "reduction lengths disagree");
        assert!(acc.len() >= rows * cols, "accumulator scratch too short");
        assert!(frag_k > 0, "fragment depth must be positive");
        let kend = kend.min(a.len);
        let level = simd::level();
        if vector_panel(level, a, b, cols) && frag_k == 1 {
            let mut unused = Checksum::ZERO;
            let computed = &mut unused;
            simd::dispatch(
                level,
                #[inline(always)]
                move |_| {
                    self.simd_panel_c32_body::<false>(a, b, r0, rows, c0, k0, kend, acc, computed)
                },
            );
            return;
        }
        let mut ck0 = k0;
        while ck0 < kend {
            let klen = frag_k.min(kend - ck0);
            self.mma_c32_into(a, b, r0, rows, c0, cols, ck0, klen, acc, None);
            ck0 += klen;
        }
    }

    /// Execute one FP32C fragment chunk `[k0, k0 + klen)` checked — the
    /// complex counterpart of
    /// [`mma_f32_checked_into`](DotProductUnit::mma_f32_checked_into),
    /// bit-identical to [`mma_c32_into`](DotProductUnit::mma_c32_into)
    /// with `Some(check)`, on the SIMD panel body with its residue tap
    /// where the panel runs it.
    #[allow(clippy::too_many_arguments)]
    pub fn mma_c32_checked_into(
        &mut self,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        k0: usize,
        klen: usize,
        acc: &mut [Complex<f32>],
        check: &mut ChunkCheck,
    ) {
        assert_eq!(a.mode, MxuMode::M3xuFp32c, "a is not FP32C-packed");
        assert_eq!(b.mode, MxuMode::M3xuFp32c, "b is not FP32C-packed");
        assert_eq!(a.len, b.len, "reduction lengths disagree");
        assert!(acc.len() >= rows * cols, "accumulator scratch too short");
        let kend = (k0 + klen).min(a.len);
        let level = simd::level();
        if vector_panel(level, a, b, cols) && kend.saturating_sub(k0) == 1 {
            let (out, computed) = (&mut *acc, &mut check.computed);
            simd::dispatch(
                level,
                #[inline(always)]
                move |_| {
                    self.simd_panel_c32_body::<true>(a, b, r0, rows, c0, k0, kend, out, computed)
                },
            );
            check.inject_c32(&mut acc[..rows * cols]);
        } else {
            self.mma_c32_into(a, b, r0, rows, c0, cols, k0, klen, acc, Some(check));
        }
    }

    /// Run the real-mode SIMD panel body at `level`. The product kernel
    /// is picked once per panel: whole products, or the fast mode's
    /// truncated ones (`TRUNC`).
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn simd_panel_f32<const TAP: bool>(
        &mut self,
        level: simd::SimdLevel,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        k0: usize,
        kend: usize,
        frag_k: usize,
        acc: &mut [f32],
        computed: &mut Checksum,
    ) {
        if a.mode == MxuMode::M3xuFp32Fast {
            simd::dispatch(
                level,
                #[inline(always)]
                move |_| {
                    self.simd_panel_f32_body::<true, TAP>(
                        a, b, r0, rows, c0, k0, kend, frag_k, acc, computed,
                    )
                },
            );
        } else {
            simd::dispatch(
                level,
                #[inline(always)]
                move |_| {
                    self.simd_panel_f32_body::<false, TAP>(
                        a, b, r0, rows, c0, k0, kend, frag_k, acc, computed,
                    )
                },
            );
        }
    }

    /// SIMD body of the real-mode panel, compiled once per level by
    /// [`simd::dispatch`]: per group of [`simd::F32_ROWS`] fragment rows
    /// (single rows at the `M` edge, so no padding row is computed), per
    /// chunk, form each row's `klen` whole (or, with `TRUNC`, truncated)
    /// products for all 8 columns from the chunk's shared `B` rows, then
    /// round each column's exact chunk value with [`simd::round_chunk`],
    /// without `TAP` first with [`simd::round_chunk_quick`] (depths 1
    /// and 2, TF32 apart), a row it refuses going to the pair. Any
    /// column the pair refuses (specials, a failed certificate) reruns
    /// that one (element, chunk) on the scalar element path — the shared
    /// [`scalar_element_real`], on the same schedule — so results match
    /// the scalar pipeline bit for bit no matter which path each element
    /// took. With `TAP`, every element-chunk's residue goes into
    /// `computed`; without it `computed` is never touched.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn simd_panel_f32_body<const TRUNC: bool, const TAP: bool>(
        &mut self,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        k0: usize,
        kend: usize,
        frag_k: usize,
        acc: &mut [f32],
        computed: &mut Checksum,
    ) {
        // B's value rows of the panel, one per reduction index, and the
        // fragment row's columns within them, checked once: each row group
        // consumes its own copy of the rows chunk by chunk, with no bounds
        // check per `k` (see `simd::ChunkB::load`).
        let n = b.vecs;
        let b_panel = b.vals[k0 * n..kend * n].chunks_exact(n);
        assert!(
            c0 <= n && simd::COLS <= n - c0,
            "fragment row past B's columns"
        );
        let terms = a.mode.terms_per_mac();
        let mut at = PanelAt {
            a,
            b,
            r0,
            c0,
            terms,
            computed,
        };
        let full = rows - rows % simd::F32_ROWS;
        for i in (0..full).step_by(simd::F32_ROWS) {
            let b_rows = b_panel.clone();
            self.simd_rows_f32::<{ simd::F32_ROWS }, TRUNC, TAP>(
                &mut at, b_rows, i, k0, kend, frag_k, acc,
            );
        }
        for i in full..rows {
            let b_rows = b_panel.clone();
            self.simd_rows_f32::<1, TRUNC, TAP>(&mut at, b_rows, i, k0, kend, frag_k, acc);
        }
    }

    /// Fragment rows `i..i + R` of the real-mode panel through the whole
    /// `K`-panel, consuming `b_rows`, and their accumulators written back
    /// once.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn simd_rows_f32<const R: usize, const TRUNC: bool, const TAP: bool>(
        &mut self,
        at: &mut PanelAt<'_>,
        b_rows: std::slice::ChunksExact<'_, f32>,
        i: usize,
        k0: usize,
        kend: usize,
        frag_k: usize,
        acc: &mut [f32],
    ) {
        // Plain loops, not `array::from_fn`, whose out-of-line helper
        // would take the rows' address and keep them off the registers.
        let (a, alen) = (at.a, at.a.len);
        let out = &mut acc[i * simd::COLS..(i + R) * simd::COLS];
        let mut g = RowGroup {
            i,
            arows: [&[]; R],
            rows: [[0f32; simd::COLS]; R],
            b_rows,
            rounded: [simd::RoundedRow::NONE; R],
            seeds: [[0f32; simd::COLS]; R],
            quick: a.mode != MxuMode::Tf32,
        };
        for (r, (arow, row)) in g.arows.iter_mut().zip(&mut g.rows).enumerate() {
            let a0 = (at.r0 + i + r) * alen;
            *arow = &a.vals[a0..a0 + alen];
            row.copy_from_slice(&out[r * simd::COLS..(r + 1) * simd::COLS]);
        }
        let (mut chunks, mut lanes) = (0u64, 0u64);
        let mut ck0 = k0;
        while ck0 < kend {
            let klen = frag_k.min(kend - ck0);
            // Constant-depth dispatch: the chunk fully unrolls for each
            // depth.
            let vector = match klen {
                1 => self.simd_rows_chunk::<R, 1, TRUNC, TAP>(at, &mut g, ck0),
                2 => self.simd_rows_chunk::<R, 2, TRUNC, TAP>(at, &mut g, ck0),
                3 => self.simd_rows_chunk::<R, 3, TRUNC, TAP>(at, &mut g, ck0),
                4 => self.simd_rows_chunk::<R, 4, TRUNC, TAP>(at, &mut g, ck0),
                _ => unreachable!("fragment depth exceeds the SIMD kernel maximum"),
            };
            chunks += vector;
            lanes += vector * klen as u64 * at.terms;
            ck0 += klen;
        }
        for (d, row) in out.chunks_exact_mut(simd::COLS).zip(&g.rows) {
            d.copy_from_slice(row);
        }
        self.simd_chunks += chunks;
        self.lane_ops += lanes;
    }

    /// One `T`-deep chunk across a row group: the chunk's `B` rows are
    /// widened once for all its rows, and every row's 8 columns go through
    /// [`simd::round_chunk`] before any refused column reruns on the
    /// oracle, so the rows' seed chains overlap. Without `TAP`, at depths
    /// 1 and 2 and outside TF32 ([`RowGroup::quick`]), every row goes
    /// through [`simd::round_chunk_quick`] first, and only the rows it
    /// refuses through the pair. Returns the element-chunks rounded on the
    /// vector path.
    #[inline(always)]
    fn simd_rows_chunk<const R: usize, const T: usize, const TRUNC: bool, const TAP: bool>(
        &mut self,
        at: &mut PanelAt<'_>,
        g: &mut RowGroup<'_, R>,
        ck0: usize,
    ) -> u64 {
        let chunk = simd::ChunkB::<T>::load::<TRUNC>(&mut g.b_rows, at.c0);
        if !TAP && T <= 2 && g.quick {
            // Pass 1: the quick tier on every row, its results written over
            // the rows in place, and the rows it refuses. The rows are
            // indexed, not zipped: a loop zipping `g.arows` by value stayed
            // rolled, and the panel took twice as long.
            let mut refused_rows = 0u32;
            for (r, seed) in g.seeds.iter_mut().enumerate() {
                let prods = chunk.products::<TRUNC>(chunk_a(g.arows[r], ck0));
                let q = simd::round_chunk_quick(&g.rows[r], &prods);
                (*seed, g.rows[r]) = (g.rows[r], q.out);
                refused_rows |= (!q.passed() as u32) << r;
            }
            let mut vector = (R * simd::COLS) as u64;
            // Pass 2: each refused row's products again, on the pair, and
            // the columns the pair refuses on the oracle.
            if refused_rows != 0 {
                self.quick_refusals += (refused_rows.count_ones() as usize * simd::COLS) as u64;
                for (r, row) in g.rows.iter_mut().enumerate() {
                    if refused_rows >> r & 1 == 0 {
                        continue;
                    }
                    let seeds = g.seeds[r];
                    let prods = chunk.products::<TRUNC>(chunk_a(g.arows[r], ck0));
                    let rr = simd::round_chunk(&seeds, &prods);
                    let refused = !rr.ok() & ROW_MASK;
                    vector -= refused.count_ones() as u64;
                    *row = if refused == 0 {
                        rr.out
                    } else {
                        let i = g.i + r;
                        self.rerun_real(at, i, ck0, ck0 + T, false, seeds, rr.out, refused)
                    };
                }
            }
            return vector;
        }
        for ((rr, arow), row) in g.rounded.iter_mut().zip(g.arows).zip(&g.rows) {
            *rr = simd::round_chunk(row, &chunk.products::<TRUNC>(chunk_a(arow, ck0)));
        }
        let mut vector = 0;
        for (r, (row, rr)) in g.rows.iter_mut().zip(&g.rounded).enumerate() {
            let ok = rr.ok();
            vector += ok.count_ones() as u64;
            if TAP {
                let res = pair_residues(&rr.pair[0], &rr.pair[1], ok);
                at.computed.absorb_re(Some(res));
            }
            let refused = !ok & ROW_MASK;
            *row = if refused == 0 {
                rr.out
            } else {
                let (seeds, out) = (*row, rr.out);
                self.rerun_real(at, g.i + r, ck0, ck0 + T, TAP, seeds, out, refused)
            };
        }
        vector
    }

    /// Rerun the `refused` columns of fragment row `i`'s chunk `[ck0,
    /// kend)` on the scalar oracle, [`scalar_element_real`], each from its
    /// seed in `seeds`, and return `out` with those columns replaced (and,
    /// with `tap`, their residues absorbed). Out of line and cold, called
    /// only when a column is refused, so the panel's rows stay in
    /// registers.
    #[allow(clippy::too_many_arguments)]
    #[cold]
    #[inline(never)]
    fn rerun_real(
        &mut self,
        at: &mut PanelAt<'_>,
        i: usize,
        ck0: usize,
        kend: usize,
        tap: bool,
        seeds: [f32; simd::COLS],
        mut out: [f32; simd::COLS],
        refused: u32,
    ) -> [f32; simd::COLS] {
        let (a, b) = (at.a, at.b);
        let lanes = (kend - ck0) as u64 * at.terms;
        let schedule = assign::schedule(a.mode);
        for_each_bit(refused, |j| {
            self.simd_fallbacks += 1;
            let (d, res) = rerun(a, b, at.r0 + i, at.c0 + j, ck0, kend, |av, bv| {
                scalar_element_real(self, seeds[j], av, bv, &schedule, lanes, tap)
            });
            if tap {
                at.computed.absorb_re(res);
            }
            out[j] = d;
        });
        out
    }

    /// SIMD body of the emulated-FP64 panel (`frag_k == 1`), compiled once
    /// per level by [`simd::dispatch`]: per row, per packed element, one
    /// FMA across the row's 8 columns ([`simd::fma_row`]), the row kept
    /// in registers across the whole `K`-panel. A column whose result is
    /// zero or non-finite reruns that element-chunk through
    /// [`scalar_element_f64`] from the seed it had before the FMA, so the
    /// output equals the per-chunk loop's bit for bit.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn simd_panel_f64_body(
        &mut self,
        level: simd::SimdLevel,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        k0: usize,
        kend: usize,
        acc: &mut [f64],
    ) {
        let n = b.vecs;
        let alen = a.len;
        let fallbacks = self.simd_fallbacks;
        for i in 0..rows {
            let arow = &a.vals64[(r0 + i) * alen..(r0 + i) * alen + alen];
            let row_acc: &mut [f64; simd::COLS] = (&mut acc[i * simd::COLS..(i + 1) * simd::COLS])
                .try_into()
                .expect("panel accumulator row is exactly one fragment row");
            let mut row = *row_acc;
            for (k, &ak) in arow.iter().enumerate().take(kend).skip(k0) {
                let brow: &[f64; simd::COLS] = b.vals64[k * n + c0..k * n + c0 + simd::COLS]
                    .try_into()
                    .expect("B's value row holds the fragment row's columns");
                let (mut next, oracle) = simd::fma_row(level, ak, brow, &row);
                if oracle != 0 {
                    // Column by column, with constant indices once the
                    // loop unrolls: no array's address is taken, and the
                    // row stays in registers.
                    for (j, (next, &seed)) in next.iter_mut().zip(&row).enumerate() {
                        if oracle >> j & 1 == 1 {
                            *next = self.rerun_f64(a, b, r0 + i, c0 + j, k, seed);
                        }
                    }
                }
                row = next;
            }
            *row_acc = row;
        }
        let fallbacks = self.simd_fallbacks - fallbacks;
        let vector = (rows * kend.saturating_sub(k0) * simd::COLS) as u64 - fallbacks;
        self.lane_ops += vector * a.mode.terms_per_mac();
        self.simd_chunks += vector;
    }

    /// Rerun the emulated-FP64 element-chunk `(row, col)` at depth `k` on
    /// the slice oracle, [`scalar_element_f64`], from its pre-FMA `seed`.
    /// Out of line and cold, called only for a column the FMA row flags.
    #[cold]
    #[inline(never)]
    fn rerun_f64(
        &mut self,
        a: &PackedOperand,
        b: &PackedOperand,
        row: usize,
        col: usize,
        k: usize,
        seed: f64,
    ) -> f64 {
        self.simd_fallbacks += 1;
        let (d, _) = rerun(a, b, row, col, k, k + 1, |av, bv| {
            scalar_element_f64(self, seed, av, bv, false)
        });
        d
    }

    /// SIMD body of the FP32C panel (`frag_k == 1`), compiled once per
    /// level by [`simd::dispatch`]: per group of [`simd::C32_ROWS`]
    /// fragment rows (single rows at the `M` edge), per packed element,
    /// form each row's four component product rows `a_R·b_R`, `-a_I·b_I`,
    /// `a_R·b_I`, `a_I·b_R` for all 8 columns from the element's shared
    /// `B` values, then round `re + a_R·b_R - a_I·b_I` and `im + a_R·b_I +
    /// a_I·b_R` with one [`simd::round_chunk`] each. Both components'
    /// accumulators stay `f32` rows across the `K`-panel. Either component
    /// refused sends that (element, chunk) to the shared
    /// [`scalar_element_c32`] fallback. `TAP` and `computed` as in the
    /// FP32 body, one residue pair per element-chunk. Without `TAP` each
    /// row runs [`simd::round_chunk_quick`] on both components first, and
    /// only a row whose either component it refuses runs the pair.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn simd_panel_c32_body<const TAP: bool>(
        &mut self,
        a: &PackedOperand,
        b: &PackedOperand,
        r0: usize,
        rows: usize,
        c0: usize,
        k0: usize,
        kend: usize,
        acc: &mut [Complex<f32>],
        computed: &mut Checksum,
    ) {
        let terms = a.mode.terms_per_mac();
        let mut at = PanelAt {
            a,
            b,
            r0,
            c0,
            terms,
            computed,
        };
        let full = rows - rows % simd::C32_ROWS;
        for i in (0..full).step_by(simd::C32_ROWS) {
            self.simd_rows_c32::<{ simd::C32_ROWS }, TAP>(&mut at, i, k0, kend, acc);
        }
        for i in full..rows {
            self.simd_rows_c32::<1, TAP>(&mut at, i, k0, kend, acc);
        }
    }

    /// Fragment rows `i..i + R` of the FP32C panel through the whole
    /// `K`-panel, every row's two components rounded before any refused
    /// column reruns, as in [`DotProductUnit::simd_rows_chunk`].
    #[inline(always)]
    fn simd_rows_c32<const R: usize, const TAP: bool>(
        &mut self,
        at: &mut PanelAt<'_>,
        i: usize,
        k0: usize,
        kend: usize,
        acc: &mut [Complex<f32>],
    ) {
        let (n, alen, c0) = (at.b.vecs, at.a.len, at.c0);
        // B's value planes: real plane then imaginary plane, each k-major.
        let (bre_plane, bim_plane) = at.b.vals.split_at(alen * n);
        let mut arows: [&[f32]; R] = [&[]; R];
        let (mut re, mut im) = ([[0f32; simd::COLS]; R], [[0f32; simd::COLS]; R]);
        let out = &mut acc[i * simd::COLS..(i + R) * simd::COLS];
        for (r, (arow, row)) in arows
            .iter_mut()
            .zip(out.chunks_exact(simd::COLS))
            .enumerate()
        {
            let a0 = (at.r0 + i + r) * 2 * alen;
            *arow = &at.a.vals[a0..a0 + 2 * alen];
            for (j, z) in row.iter().enumerate() {
                (re[r][j], im[r][j]) = (z.re, z.im);
            }
        }
        let mut chunks = 0u64;
        // Every chunk overwrites these whole. Made per chunk, they would
        // be zeroed per chunk, as in `RowGroup::rounded`.
        let mut rounded = [[simd::RoundedRow::NONE; 2]; R];
        for k in k0..kend {
            let cols = |plane: &[f32]| -> [f32; simd::COLS] {
                plane[k * n + c0..k * n + c0 + simd::COLS]
                    .try_into()
                    .expect("B's value row holds the fragment row's columns")
            };
            let (bre, bim) = (cols(bre_plane), cols(bim_plane));
            if !TAP {
                // The quick tier on every row, then the pair on the rows it
                // refuses, as in `simd_rows_chunk`.
                let (mut qre, mut qim) = ([[0f32; simd::COLS]; R], [[0f32; simd::COLS]; R]);
                let mut refused_rows = 0u32;
                for r in 0..R {
                    let arow = arows[r];
                    let [rr, ri, ir, ii] =
                        simd::row_products_c32(arow[2 * k], arow[2 * k + 1], &bre, &bim);
                    let q_re = simd::round_chunk_quick(&re[r], &[rr, ri]);
                    let q_im = simd::round_chunk_quick(&im[r], &[ir, ii]);
                    (qre[r], qim[r]) = (q_re.out, q_im.out);
                    // `&&`: a `vptest` per component. Any form the
                    // compiler could merge into one test over both
                    // components' 16 words became a horizontal reduction,
                    // and the FP32C panel ran about 15% slower.
                    refused_rows |= (!(q_re.passed() && q_im.passed()) as u32) << r;
                }
                chunks += (R * simd::COLS) as u64;
                if refused_rows != 0 {
                    self.quick_refusals += (refused_rows.count_ones() as usize * simd::COLS) as u64;
                    // This loop's row index is not a constant, so it runs on
                    // copies and fills `next`, which the merge below reads at
                    // constant indices: the rows every chunk carries stay in
                    // registers.
                    let (rows_a, seeds) = (arows, (re, im));
                    let mut next = ([[0f32; simd::COLS]; R], [[0f32; simd::COLS]; R]);
                    for (r, arow) in rows_a.iter().enumerate() {
                        if refused_rows >> r & 1 == 0 {
                            continue;
                        }
                        let [rr, ri, ir, ii] =
                            simd::row_products_c32(arow[2 * k], arow[2 * k + 1], &bre, &bim);
                        let rre = simd::round_chunk(&seeds.0[r], &[rr, ri]);
                        let rim = simd::round_chunk(&seeds.1[r], &[ir, ii]);
                        let refused = !(rre.ok() & rim.ok()) & ROW_MASK;
                        chunks -= refused.count_ones() as u64;
                        (next.0[r], next.1[r]) = if refused == 0 {
                            (rre.out, rim.out)
                        } else {
                            let (seeds, out) = ((seeds.0[r], seeds.1[r]), (rre.out, rim.out));
                            self.rerun_c32(at, i + r, k, false, seeds, out, refused)
                        };
                    }
                    for r in 0..R {
                        if refused_rows >> r & 1 == 1 {
                            (qre[r], qim[r]) = (next.0[r], next.1[r]);
                        }
                    }
                }
                (re, im) = (qre, qim);
                continue;
            }
            for (r, (rounded, arow)) in rounded.iter_mut().zip(arows).enumerate() {
                let [rr, ri, ir, ii] =
                    simd::row_products_c32(arow[2 * k], arow[2 * k + 1], &bre, &bim);
                *rounded = [
                    simd::round_chunk(&re[r], &[rr, ri]),
                    simd::round_chunk(&im[r], &[ir, ii]),
                ];
            }
            for (r, [rre, rim]) in rounded.iter().enumerate() {
                let ok = rre.ok() & rim.ok();
                chunks += ok.count_ones() as u64;
                if TAP {
                    let res = (
                        pair_residues(&rre.pair[0], &rre.pair[1], ok),
                        pair_residues(&rim.pair[0], &rim.pair[1], ok),
                    );
                    at.computed.absorb_pair(Some(res));
                }
                let refused = !ok & ROW_MASK;
                (re[r], im[r]) = if refused == 0 {
                    (rre.out, rim.out)
                } else {
                    let (seeds, out) = ((re[r], im[r]), (rre.out, rim.out));
                    self.rerun_c32(at, i + r, k, TAP, seeds, out, refused)
                };
            }
        }
        for ((row, re), im) in out.chunks_exact_mut(simd::COLS).zip(&re).zip(&im) {
            for (j, d) in row.iter_mut().enumerate() {
                *d = Complex::new(re[j], im[j]);
            }
        }
        self.simd_chunks += chunks;
        self.lane_ops += chunks * at.terms;
    }

    /// Rerun the `refused` columns of FP32C fragment row `i`'s chunk `k`
    /// on the scalar oracle, [`scalar_element_c32`], each from its seeds in
    /// `seeds` (re, im), and return `out` with those columns replaced —
    /// [`DotProductUnit::rerun_real`]'s counterpart.
    #[allow(clippy::too_many_arguments)]
    #[cold]
    #[inline(never)]
    fn rerun_c32(
        &mut self,
        at: &mut PanelAt<'_>,
        i: usize,
        k: usize,
        tap: bool,
        seeds: ([f32; simd::COLS], [f32; simd::COLS]),
        mut out: ([f32; simd::COLS], [f32; simd::COLS]),
        refused: u32,
    ) -> ([f32; simd::COLS], [f32; simd::COLS]) {
        let (a, b) = (at.a, at.b);
        for_each_bit(refused, |j| {
            self.simd_fallbacks += 1;
            let seed = Complex::new(seeds.0[j], seeds.1[j]);
            let (d, res) = rerun(a, b, at.r0 + i, at.c0 + j, k, k + 1, |av, bv| {
                scalar_element_c32(self, seed, av, bv, at.terms, tap)
            });
            if tap {
                at.computed.absorb_pair(res);
            }
            (out.0[j], out.1[j]) = (d.re, d.im);
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mma;

    #[test]
    fn packing_rejects_non_real_modes_without_panicking() {
        let m = Matrix::<f32>::random(4, 4, 1);
        for mode in [
            MxuMode::M3xuFp32c,
            MxuMode::M3xuFp64,
            MxuMode::M3xuFp64Emu,
            MxuMode::M3xuFp64c,
        ] {
            let row_err = PackedOperand::try_pack_rows_f32(&m, mode).unwrap_err();
            assert!(matches!(row_err, M3xuError::ModeMismatch { got, .. } if got == mode));
            let col_err = PackedOperand::try_pack_cols_f32(&m, mode).unwrap_err();
            assert!(matches!(col_err, M3xuError::ModeMismatch { got, .. } if got == mode));
        }
    }

    #[test]
    fn f64_packing_rejects_every_other_mode() {
        let m = Matrix::from_fn(2, 2, |i, j| (1 + i * 2 + j) as f64 / 3.0);
        for mode in MxuMode::ALL {
            if mode == MxuMode::M3xuFp64Emu {
                assert!(PackedOperand::try_pack_rows_f64(&m, mode).is_ok());
                assert!(PackedOperand::try_pack_cols_f64(&m, mode).is_ok());
            } else {
                let err = PackedOperand::try_pack_rows_f64(&m, mode).unwrap_err();
                assert!(matches!(err, M3xuError::ModeMismatch { got, .. } if got == mode));
                let err = PackedOperand::try_pack_cols_f64(&m, mode).unwrap_err();
                assert!(matches!(err, M3xuError::ModeMismatch { got, .. } if got == mode));
            }
        }
    }

    #[test]
    fn packed_fp32_fast_matches_truncated_kulisch_reference() {
        use m3xu_fp::split::split_fp32;
        // One 8x8x2 fragment: the fast schedule's chunk value is the exact
        // sum of seed + HH + HL + LH over the chunk, rounded once.
        let a = Matrix::<f32>::random(8, 2, 141);
        let b = Matrix::<f32>::random(2, 8, 142);
        let c = Matrix::<f32>::random(8, 8, 143);
        let pa = PackedOperand::pack_rows_f32(&a, MxuMode::M3xuFp32Fast);
        let pb = PackedOperand::pack_cols_f32(&b, MxuMode::M3xuFp32Fast);
        assert_eq!(pa.epe(), 2);
        let mut acc: Vec<f32> = c.as_slice().to_vec();
        let mut dpu = DotProductUnit::new();
        dpu.mma_f32_into(&pa, &pb, 0, 8, 0, 8, 0, 2, &mut acc, None);
        for i in 0..8 {
            for j in 0..8 {
                let mut kul = m3xu_fp::Kulisch::new();
                kul.add_f64(c.get(i, j) as f64);
                for k in 0..2 {
                    let (ah, al) = split_fp32(a.get(i, k));
                    let (bh, bl) = split_fp32(b.get(k, j));
                    kul.add_product_f32(ah, bh);
                    kul.add_product_f32(ah, bl);
                    kul.add_product_f32(al, bh);
                }
                assert_eq!(
                    acc[i * 8 + j].to_bits(),
                    kul.to_f32().to_bits(),
                    "fast-schedule mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn fast_mode_panel_runs_the_truncated_product_on_the_row_kernels() {
        // The row kernels form each fast-mode product as a·b − lo_a·lo_b,
        // the exact sum of the three slice terms the mode issues: at every
        // level the panel must produce the truncated per-chunk result, and
        // at a vector level every element-chunk stays on the vector path.
        let _guard = simd::TEST_LEVEL_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let entry = simd::level();
        let a = Matrix::<f32>::random(8, 8, 151);
        let b = Matrix::<f32>::random(8, 8, 152);
        let c = Matrix::<f32>::random(8, 8, 153);
        let pa = PackedOperand::pack_rows_f32(&a, MxuMode::M3xuFp32Fast);
        let pb = PackedOperand::pack_cols_f32(&b, MxuMode::M3xuFp32Fast);
        let mut dpu = DotProductUnit::new();
        let mut chunked: Vec<f32> = c.as_slice().to_vec();
        for ck0 in (0..8).step_by(2) {
            dpu.mma_f32_into(&pa, &pb, 0, 8, 0, 8, ck0, 2, &mut chunked, None);
        }
        let mut panel: Vec<f32> = c.as_slice().to_vec();
        for lvl in std::iter::once(simd::SimdLevel::Scalar).chain(simd::vector_levels()) {
            simd::set_level(lvl);
            let (chunks, fallbacks) = (dpu.simd_chunks, dpu.simd_fallbacks);
            panel.copy_from_slice(c.as_slice());
            dpu.mma_f32_panel_into(&pa, &pb, 0, 8, 0, 8, 0, 8, 2, &mut panel);
            for (x, y) in panel.iter().zip(&chunked) {
                assert_eq!(x.to_bits(), y.to_bits(), "{lvl:?}");
            }
            // 8 x 8 outputs x 4 two-deep chunks.
            let vector = if lvl == simd::SimdLevel::Scalar {
                0
            } else {
                256
            };
            assert_eq!(
                (dpu.simd_chunks - chunks, dpu.simd_fallbacks - fallbacks),
                (vector, 0),
                "{lvl:?}"
            );
        }
        simd::set_level(entry);
        // And the full mode on the same data differs (lo.lo matters for
        // generic inputs) — the truncation is real, not a no-op.
        let paf = PackedOperand::pack_rows_f32(&a, MxuMode::M3xuFp32);
        let pbf = PackedOperand::pack_cols_f32(&b, MxuMode::M3xuFp32);
        let mut full: Vec<f32> = c.as_slice().to_vec();
        dpu.mma_f32_panel_into(&paf, &pbf, 0, 8, 0, 8, 0, 8, 2, &mut full);
        assert!(
            panel
                .iter()
                .zip(&full)
                .any(|(x, y)| x.to_bits() != y.to_bits()),
            "truncated and full schedules coincided on random data"
        );
    }

    /// Rows of `(a, [b; 8], [seed; 8])` lanes that hit every oracle case
    /// of the emulated-FP64 row kernel: an exact-zero sum of −0 addends,
    /// an exact cancellation, underflow to ±0, subnormal results, overflow
    /// to ±Inf, Inf − Inf, NaN operands and a NaN seed — beside ordinary
    /// lanes, which must stay on the kernel.
    fn f64_oracle_rows() -> Vec<(f64, [f64; 8], [f64; 8])> {
        let (inf, nan, tiny) = (f64::INFINITY, f64::NAN, f64::from_bits(1));
        vec![
            (
                1e-200,
                [1e-200, -1e-200, 1e-110, -1e-110, 2.0, nan, 1.5, 3.0],
                [0.0, 0.0, 0.0, 1e-310, -2e-200, 1.0, nan, 1.0],
            ),
            (
                1e200,
                [1e200, -1e200, -inf, inf, 0.0, -0.0, 1e-300, 0.5],
                [0.0, 1.0, inf, inf, -0.0, -0.0, 1e-100, -5e199],
            ),
            (
                -0.0,
                [5.0, -5.0, inf, 1.0, 0.0, 1e300, -1e-300, 2.0],
                [-0.0, -0.0, 1.0, 0.0, -0.0, 7.0, -1e-310, nan],
            ),
            (
                nan,
                [1.0, 0.0, -0.0, inf, 1e300, 1e-300, -2.0, 3.0],
                [0.0; 8],
            ),
            (
                -inf,
                [-1.0, 0.0, 1.0, 2.0, -inf, 1e-300, -0.0, 4.0],
                [-inf, 1.0, inf, -inf, -inf, 0.0, 5.0, nan],
            ),
            (
                tiny,
                [0.5, 1.0, -0.5, 1.5, -1.5, 2.0, 0.25, -1.0],
                [0.0, 0.0, -0.0, 0.0, -0.0, -tiny, 0.0, tiny],
            ),
            (
                0.75,
                [1.25, -3.5, 0.3, 1e10, -1e-10, 7.0, 0.1, -0.7],
                [2.0, 1.0, -0.2, 1e9, 3e-11, -5.25, 0.9, 0.525],
            ),
        ]
    }

    /// The 5 slices of `x`, as the emulated-FP64 packers decode them.
    fn f64_slices(x: f64) -> [BufferEntry; 5] {
        let mut buf = [BufferEntry::ZERO; 5];
        decode_fp64_slices(x, m3xu_fp::split::FP64_SLICES_EMULATED, &mut buf);
        buf
    }

    #[test]
    fn fma_row_matches_scalar_element_f64_lane_by_lane() {
        // At every vector level the host runs, each lane of the FMA row
        // kernel is either flagged for the oracle or equals the slice
        // oracle's chunk bit for bit; it is flagged exactly when its
        // result is zero or non-finite, which is exactly when the
        // oracle's is. The random rows must never be flagged.
        let mut rows = f64_oracle_rows();
        let mut state = 0x3c6e_f372_fe94_f82bu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Unit-range significands across ±2^±60, never zero.
        let mut rand = || {
            let bits = next();
            let exp = 1023 - 60 + (bits >> 52) % 121;
            f64::from_bits((bits & 1 << 63) | exp << 52 | (bits & ((1 << 52) - 1)))
        };
        let random_rows = 64;
        for _ in 0..random_rows {
            rows.push((
                rand(),
                std::array::from_fn(|_| rand()),
                std::array::from_fn(|_| rand()),
            ));
        }
        let mut dpu = DotProductUnit::new();
        let mut flagged = 0;
        for level in simd::vector_levels() {
            for (r, (a, b, seed)) in rows.iter().enumerate() {
                let (out, oracle) = simd::fma_row(level, *a, b, seed);
                for j in 0..8 {
                    let (av, bv) = (f64_slices(*a), f64_slices(b[j]));
                    let (want, _) = scalar_element_f64(&mut dpu, seed[j], &av, &bv, false);
                    let what = format!(
                        "{level:?} row {r} lane {j}: {:e} + {a:e}·{:e}",
                        seed[j], b[j]
                    );
                    let special = |v: f64| v == 0.0 || !v.is_finite();
                    assert_eq!(oracle >> j & 1 == 1, special(out[j]), "{what}");
                    assert_eq!(special(out[j]), special(want), "{what}");
                    if special(want) {
                        flagged += 1;
                        assert!(r < rows.len() - random_rows, "{what}: random lane flagged");
                    } else {
                        assert_eq!(out[j].to_bits(), want.to_bits(), "{what}");
                    }
                }
            }
        }
        if !simd::vector_levels().is_empty() {
            assert!(flagged >= 30, "only {flagged} oracle lanes");
        }
    }

    #[test]
    fn fp64_panel_reruns_oracle_lanes_from_their_pre_fma_seed() {
        // A 6 x 8 tile over K = 12 with a zero row (of A and C), a NaN,
        // an overflow and an exact cancellation at different depths, and
        // a product far below its running sum: at every vector level the
        // FMA panel equals the per-chunk slice loop bit for bit and sends
        // exactly the zero and non-finite chunks to the oracle.
        let mut a = Matrix::from_fn(6, 12, |i, k| ((1 + i * 12 + k) as f64 / 7.0).sin());
        let mut b = Matrix::from_fn(12, 8, |k, j| ((3 + k * 8 + j) as f64 / 5.0).cos());
        let mut c = Matrix::from_fn(6, 8, |i, j| (i as f64 - j as f64 + 0.5) / 3.0);
        for k in 0..12 {
            a.set(2, k, 0.0);
        }
        for j in 0..8 {
            c.set(2, j, 0.0);
        }
        b.set(4, 1, f64::NAN);
        b.set(6, 2, 1e300);
        a.set(0, 6, 1e300);
        b.set(3, 5, 1e-300);
        a.set(4, 3, -1e-300);
        let pack = |a: &Matrix<f64>, b: &Matrix<f64>| {
            (
                PackedOperand::try_pack_rows_f64(a, MxuMode::M3xuFp64Emu).unwrap(),
                PackedOperand::try_pack_cols_f64(b, MxuMode::M3xuFp64Emu).unwrap(),
            )
        };
        let chunked = |dpu: &mut DotProductUnit, pa, pb, kend| {
            let mut acc: Vec<f64> = c.as_slice().to_vec();
            for k in 0..kend {
                dpu.mma_f64_into(pa, pb, 0, 6, 0, 8, k, 1, &mut acc, None);
            }
            acc
        };
        // Element (1, 3) cancels exactly at depth 5, so its oracle rerun
        // must start from the seed it had before the FMA.
        let mut dpu = DotProductUnit::new();
        let (pa, pb) = pack(&a, &b);
        let before = chunked(&mut dpu, &pa, &pb, 5)[8 + 3];
        a.set(1, 5, 1.0);
        b.set(5, 3, -before);
        let (pa, pb) = pack(&a, &b);
        let want = chunked(&mut dpu, &pa, &pb, 12);
        // The zero row's 8 x 12 chunks, column 1's other five rows from
        // the NaN's depth 4 on, (0, 2) from its overflow at depth 6 on,
        // and the cancelled chunk.
        let oracle_chunks = 8 * 12 + 5 * 8 + 6 + 1;
        for level in simd::vector_levels() {
            let (chunks, fallbacks) = (dpu.simd_chunks, dpu.simd_fallbacks);
            let mut got: Vec<f64> = c.as_slice().to_vec();
            simd::dispatch(
                level,
                #[inline(always)]
                |l| dpu.simd_panel_f64_body(l, &pa, &pb, 0, 6, 0, 0, 12, &mut got),
            );
            for (n, (x, y)) in got.iter().zip(&want).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{level:?} element {n}");
            }
            assert_eq!(
                (dpu.simd_chunks - chunks, dpu.simd_fallbacks - fallbacks),
                (6 * 8 * 12 - oracle_chunks, oracle_chunks),
                "{level:?}"
            );
        }
    }

    /// Rows of `(a, [b; 8], [seed; 8])` for the fast-FP32 product: every
    /// edge case of the vector tiers and the oracle (an exact-zero sum of
    /// −0 addends, underflow to ±0, a subnormal result, overflow to ±Inf,
    /// Inf − Inf, NaN operands and a NaN seed), slices whose hi or lo half
    /// is zero, and ordinary lanes.
    fn f32_oracle_rows() -> Vec<(f32, [f32; 8], [f32; 8])> {
        let (inf, nan) = (f32::INFINITY, f32::NAN);
        vec![
            (
                1e-30,
                [1e-30, -1e-30, 1e-10, -1e-10, 2.0, nan, 1.5, 3.0],
                [0.0, -0.0, 0.0, 1e-40, -2e-30, 1.0, nan, 1.0],
            ),
            (
                1e30,
                [1e30, -1e30, -inf, inf, 0.0, -0.0, 1e-30, 0.5],
                [0.0, 1.0, inf, inf, -0.0, -0.0, 1e-10, -5e29],
            ),
            (
                -0.0,
                [5.0, -5.0, inf, 1.0, 0.0, 1e30, -1e-30, 2.0],
                [-0.0, -0.0, 1.0, 0.0, -0.0, 7.0, -1e-40, nan],
            ),
            (nan, [1.0, 0.0, -0.0, inf, 1e30, 1e-30, -2.0, 3.0], [0.0; 8]),
            (
                -inf,
                [-1.0, 0.0, 1.0, 2.0, -inf, 1e-30, -0.0, 4.0],
                [-inf, 1.0, inf, -inf, -inf, 0.0, 5.0, nan],
            ),
            (
                f32::from_bits(0x0000_0fff),
                [
                    f32::from_bits(0x0000_0abc),
                    1.0,
                    -0.5,
                    1.5,
                    f32::MAX,
                    2.0,
                    0.25,
                    -1.0,
                ],
                [0.0, 0.0, -0.0, 0.0, -0.0, 1e-45, 0.0, -1e-45],
            ),
            (
                1.000_122_1,
                [1.000_244_1, -3.5, 0.3, 1e10, -1e-10, 7.0, 0.1, -0.7],
                [2.0, 1.0, -0.2, 1e9, 3e-11, -5.25, 0.9, 0.525],
            ),
        ]
    }

    #[test]
    fn fast_product_matches_the_truncated_slice_schedule_lane_by_lane() {
        // Each lane of the fast-mode product kernel is the exact sum of
        // the three slice products the schedule issues (hi·hi, hi·lo,
        // lo·hi of `decode_fp32`'s halves), and a non-finite operand
        // always leaves a non-finite product, so the rounder sends it to
        // the oracle. Random rows draw every f32 bit pattern class.
        let mut rows = f32_oracle_rows();
        let mut state = 0xbb67_ae85_84ca_a73bu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..256 {
            let mut f = || f32::from_bits(next() as u32);
            rows.push((f(), std::array::from_fn(|_| f()), [0.0; 8]));
        }
        let value = |e: BufferEntry| e.value();
        for level in simd::vector_levels() {
            for (r, (a, b, _)) in rows.iter().enumerate() {
                let out = simd::dispatch(
                    level,
                    #[inline(always)]
                    |_| {
                        let b = simd::ChunkB::load::<true>(&mut b.chunks_exact(8), 0);
                        b.products::<true>(&[*a])
                    },
                );
                for j in 0..8 {
                    let what = format!("{level:?} row {r} lane {j}: {a:e}·{:e}", b[j]);
                    if !a.is_finite() || !b[j].is_finite() {
                        assert!(!out[0][j].is_finite(), "{what}: {}", out[0][j]);
                        continue;
                    }
                    let ((ah, al), (bh, bl)) = (decode_fp32(*a), decode_fp32(b[j]));
                    let want =
                        value(ah) * value(bh) + value(ah) * value(bl) + value(al) * value(bh);
                    assert_eq!(out[0][j].to_bits(), want.to_bits(), "{what}");
                }
            }
        }
    }

    #[test]
    fn fast_panel_matches_the_truncated_scalar_element_lane_by_lane() {
        // Every lane of every oracle row, as one-deep chunks of an 8-row
        // fast-mode panel per host vector level, against the truncated
        // scalar element body; then a random two-deep panel with wide
        // exponent spreads, against the per-chunk loop.
        let rows = f32_oracle_rows();
        let a = Matrix::from_fn(rows.len(), 1, |i, _| rows[i].0);
        let c = Matrix::from_fn(rows.len(), 8, |i, j| rows[i].2[j]);
        let mut dpu = DotProductUnit::new();
        for level in simd::vector_levels() {
            for bi in 0..rows.len() {
                let b = Matrix::from_fn(1, 8, |_, j| rows[bi].1[j]);
                let pa = PackedOperand::pack_rows_f32(&a, MxuMode::M3xuFp32Fast);
                let pb = PackedOperand::pack_cols_f32(&b, MxuMode::M3xuFp32Fast);
                let mut got: Vec<f32> = c.as_slice().to_vec();
                let mut unused = Checksum::ZERO;
                simd::dispatch(
                    level,
                    #[inline(always)]
                    |_| {
                        dpu.simd_panel_f32_body::<true, false>(
                            &pa,
                            &pb,
                            0,
                            rows.len(),
                            0,
                            0,
                            1,
                            1,
                            &mut got,
                            &mut unused,
                        )
                    },
                );
                for i in 0..rows.len() {
                    for j in 0..8 {
                        let (want, _) = rerun(&pa, &pb, i, j, 0, 1, |av, bv| {
                            scalar_element_real(
                                &mut dpu,
                                c.get(i, j),
                                av,
                                bv,
                                &assign::SPLIT_FAST,
                                3,
                                false,
                            )
                        });
                        assert_eq!(
                            got[i * 8 + j].to_bits(),
                            want.to_bits(),
                            "{level:?}: {:e} + {:e}·{:e}",
                            c.get(i, j),
                            a.get(i, 0),
                            b.get(0, j)
                        );
                    }
                }
            }
            let mags = [1.0e30f32, 1.0e-30, 3.0, 1.0e20, 5.0e-39, -2.0e25, 1.0e-10];
            let a = Matrix::from_fn(8, 12, |i, k| mags[(i * 5 + k) % 7] * (1.0 + i as f32 / 9.0));
            let b = Matrix::from_fn(12, 8, |k, j| mags[(k + j * 3) % 7] / (1.0 + j as f32 / 7.0));
            let c = Matrix::<f32>::random(8, 8, 161);
            let pa = PackedOperand::pack_rows_f32(&a, MxuMode::M3xuFp32Fast);
            let pb = PackedOperand::pack_cols_f32(&b, MxuMode::M3xuFp32Fast);
            let mut want: Vec<f32> = c.as_slice().to_vec();
            for ck0 in (0..12).step_by(2) {
                dpu.mma_f32_into(&pa, &pb, 0, 8, 0, 8, ck0, 2, &mut want, None);
            }
            let mut got: Vec<f32> = c.as_slice().to_vec();
            let mut unused = Checksum::ZERO;
            simd::dispatch(
                level,
                #[inline(always)]
                |_| {
                    dpu.simd_panel_f32_body::<true, false>(
                        &pa,
                        &pb,
                        0,
                        8,
                        0,
                        0,
                        12,
                        2,
                        &mut got,
                        &mut unused,
                    )
                },
            );
            for (x, y) in got.iter().zip(&want) {
                assert_eq!(x.to_bits(), y.to_bits(), "{level:?} wide spreads");
            }
        }
    }

    #[test]
    fn narrow_quantiser_matches_the_softfloat_pack_path() {
        use crate::buffer::{decode_narrow, decode_tf32};
        use m3xu_fp::softfloat::round_to_format;
        // The pack path quantises each narrow element once, with integer
        // round-to-nearest-even on its f32 bits, and the decoder derives
        // the entry from that value. Both must equal the softfloat path
        // they replace: `round_to_format` then `decode_narrow` (TF32:
        // `decode_tf32`) for the entry, the rounded value (a special as
        // itself) for the value plane. The inputs below are collected and
        // packed as one row per mode.
        let mut xs = Vec::new();
        let mut check = |x: f32| xs.push(x);
        // Every exponent field and sign, with the fraction patterns at
        // every rounding position a format can have (13 and 16 dropped
        // bits in the normal ranges, more in FP16's subnormal one): the
        // tie with an even and an odd kept part, the tie ± 1 ulp, and
        // all-ones runs that carry into the exponent.
        for exp in 0..=255u32 {
            for sign in [0, 1u32 << 31] {
                for d in 1..=23u32 {
                    let half = 1u32 << (d - 1);
                    for frac in [
                        0,
                        1,
                        half,
                        half - 1,
                        half + 1,
                        half | 1 << d,
                        (half | 1 << d) - 1,
                        (half | 1 << d) + 1,
                        0x7f_ffff,
                        0x7f_ffff & !(half - 1),
                        0x7f_ffff ^ half,
                    ] {
                        check(f32::from_bits(sign | exp << 23 | (frac & 0x7f_ffff)));
                    }
                }
            }
        }
        // FP16's overflow threshold (65520 is the tie to 2^16) and its
        // subnormal boundary (2^-14, the least subnormal 2^-24 and its
        // half), each with its f32 neighbours; signed zeros, infinities
        // and NaNs of both signs and several payloads.
        let step = |x: f32, by: i32| f32::from_bits((x.to_bits() as i32 + by) as u32);
        for x in [
            65504.0f32,
            65520.0,
            65536.0,
            2f32.powi(-14),
            2f32.powi(-24),
            2f32.powi(-25),
        ] {
            for by in -2..=2 {
                check(step(x, by));
                check(-step(x, by));
            }
        }
        for bits in [
            0x7fc0_0000u32,
            0xffc0_0000,
            0x7f80_0001,
            0x7fbf_ffff,
            0x7f80_0000,
            0xff80_0000,
            0,
            0x8000_0000,
        ] {
            check(f32::from_bits(bits));
        }
        // Random bit patterns.
        let mut state = 0xa54f_f53a_5f1d_36f1u64;
        for _ in 0..1_000_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            check(f32::from_bits(state as u32));
        }
        let row = Matrix::from_fn(1, xs.len(), |_, k| xs[k]);
        for (mode, fmt) in [
            (MxuMode::Fp16, FP16),
            (MxuMode::Bf16, BF16),
            (MxuMode::Tf32, TF32),
        ] {
            let p = PackedOperand::pack_rows_f32(&row, mode);
            let mut entry = [BufferEntry::ZERO];
            for (k, &x) in xs.iter().enumerate() {
                p.decode(0, k, k + 1, &mut entry);
                let old_entry = match mode {
                    MxuMode::Tf32 => decode_tf32(x),
                    _ => decode_narrow(round_to_format(x as f64, fmt), fmt),
                };
                let old_val = if x.is_finite() {
                    round_to_format(x as f64, fmt) as f32
                } else {
                    x
                };
                assert_eq!(
                    entry,
                    [old_entry],
                    "{mode}: entry of {x:e} ({:#x})",
                    x.to_bits()
                );
                assert_eq!(
                    p.value_f32(0, k).to_bits(),
                    old_val.to_bits(),
                    "{mode}: value of {x:e} ({:#x})",
                    x.to_bits()
                );
            }
        }
    }

    #[test]
    fn packed_fp64_emu_fragment_matches_kulisch_reference() {
        // One fragment chunk accumulates all 25 slice products per k plus
        // the f64 seed exactly, rounding once to f64 at drain.
        let a = Matrix::from_fn(8, 3, |i, j| ((1 + i * 3 + j) as f64 / 7.0).sin());
        let b = Matrix::from_fn(3, 8, |i, j| ((2 + i * 8 + j) as f64 / 11.0).cos());
        let c = Matrix::from_fn(8, 8, |i, j| (i as f64 - j as f64) / 13.0);
        let pa = PackedOperand::try_pack_rows_f64(&a, MxuMode::M3xuFp64Emu).unwrap();
        let pb = PackedOperand::try_pack_cols_f64(&b, MxuMode::M3xuFp64Emu).unwrap();
        assert_eq!((pa.epe(), pa.len(), pa.vecs()), (5, 3, 8));
        let mut acc: Vec<f64> = c.as_slice().to_vec();
        let mut dpu = DotProductUnit::new();
        dpu.mma_f64_into(&pa, &pb, 0, 8, 0, 8, 0, 3, &mut acc, None);
        let cfg = m3xu_fp::split::FP64_SLICES_EMULATED;
        for i in 0..8 {
            for j in 0..8 {
                let mut kul = m3xu_fp::Kulisch::new();
                kul.add_f64(c.get(i, j));
                for k in 0..3 {
                    let sa = cfg.split_f64(a.get(i, k));
                    let sb = cfg.split_f64(b.get(k, j));
                    for si in 0..5 {
                        for sj in 0..5 {
                            kul.add_product_f64(sa.get(si), sb.get(sj));
                        }
                    }
                }
                assert_eq!(
                    acc[i * 8 + j].to_bits(),
                    kul.to_f64().to_bits(),
                    "emulated-FP64 mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn packed_fp64_emu_specials_propagate() {
        let vals = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1.5e-300,
            2.0,
            -3.25,
        ];
        let a = Matrix::from_fn(4, 2, |i, j| vals[(i + j) % vals.len()]);
        let b = Matrix::from_fn(2, 4, |i, j| vals[(3 * i + j + 1) % vals.len()]);
        let pa = PackedOperand::try_pack_rows_f64(&a, MxuMode::M3xuFp64Emu).unwrap();
        let pb = PackedOperand::try_pack_cols_f64(&b, MxuMode::M3xuFp64Emu).unwrap();
        let mut acc = vec![0.0f64; 16];
        let mut dpu = DotProductUnit::new();
        dpu.mma_f64_panel_into(&pa, &pb, 0, 4, 0, 4, 0, 2, 1, &mut acc);
        // IEEE reference with per-chunk (frag_k = 1) rounding, the specials
        // resolved as the accumulator state machine does: any NaN input or
        // Inf*0 poisons, opposing infinities poison, a single infinity sign
        // wins, finite chunks accumulate exactly and round once.
        let chunk = |seed: f64, x: f64, y: f64| -> f64 {
            if seed.is_nan() || x.is_nan() || y.is_nan() {
                return f64::NAN;
            }
            if (x.is_infinite() && y == 0.0) || (y.is_infinite() && x == 0.0) {
                return f64::NAN;
            }
            if x.is_infinite() || y.is_infinite() {
                let p = x * y; // +-Inf with the product sign
                if seed.is_infinite() && seed != p {
                    return f64::NAN;
                }
                return p;
            }
            if seed.is_infinite() {
                return seed;
            }
            let mut kul = m3xu_fp::Kulisch::new();
            kul.add_f64(seed);
            kul.add_product_f64(x, y);
            kul.to_f64()
        };
        for i in 0..4 {
            for j in 0..4 {
                let mut want = 0.0f64;
                for k in 0..2 {
                    want = chunk(want, a.get(i, k), b.get(k, j));
                }
                let got = acc[i * 4 + j];
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "specials mismatch at ({i},{j}): got {got:?} want {want:?}"
                );
            }
        }
    }

    #[test]
    fn pack_layout_and_values() {
        use crate::matrix::{MatOp, OpView};
        // In every mode, rows and columns, the decoder's entries for
        // element `k` of vector `v` are the `decode_*` of the value the
        // source holds there (quantised, alpha folded): each layout keeps
        // every element where the decoder and the SIMD panels read it.
        let entries = |p: &PackedOperand, v: usize, k: usize| {
            let mut e = [BufferEntry::ZERO; 5];
            p.decode(v, k, k + 1, &mut e);
            e[..p.epe()].to_vec()
        };
        let fp32 = |x: f32| {
            let (hi, lo) = decode_fp32(x);
            vec![hi, lo]
        };
        // Each side's vector `v`, element `k`, as a source index.
        let check = |p: &PackedOperand, shape: (usize, usize), want: &dyn Fn(usize, usize) -> _| {
            assert_eq!((p.vecs(), p.len()), shape, "{}", p.mode());
            for v in 0..shape.0 {
                for k in 0..shape.1 {
                    assert_eq!(entries(p, v, k), want(v, k), "{} ({v}, {k})", p.mode());
                }
            }
        };
        let m = Matrix::from_fn(2, 3, |i, j| {
            (1 + i * 3 + j) as f32 * 1.5 - 4.0 + 1e-3 * j as f32
        });
        for mode in [
            MxuMode::M3xuFp32,
            MxuMode::M3xuFp32Fast,
            MxuMode::Tf32,
            MxuMode::Fp16,
            MxuMode::Bf16,
        ] {
            let want = |x: f32| match mode {
                MxuMode::M3xuFp32 | MxuMode::M3xuFp32Fast => fp32(x),
                MxuMode::Tf32 => vec![decode_narrow_f32(round_f32_to_narrow(x, TF32), TF32)],
                MxuMode::Fp16 => vec![decode_narrow_f32(round_f32_to_narrow(x, FP16), FP16)],
                _ => vec![decode_narrow_f32(round_f32_to_narrow(x, BF16), BF16)],
            };
            let rows = PackedOperand::pack_rows_f32(&m, mode);
            check(&rows, (2, 3), &|v, k| want(m.get(v, k)));
            let cols = PackedOperand::pack_cols_f32(&m, mode);
            check(&cols, (3, 2), &|v, k| want(m.get(k, v)));
            // Through a transposing view, with alpha folded in first.
            let t = OpView::new(&m, MatOp::T);
            let rows = PackedOperand::try_pack_rows_f32_src_in(&t, -2.5, mode, Default::default())
                .unwrap();
            check(&rows, (3, 2), &|v, k| want(-2.5 * m.get(k, v)));
            let cols =
                PackedOperand::try_pack_cols_f32_src_in(&t, mode, Default::default()).unwrap();
            check(&cols, (2, 3), &|v, k| want(m.get(v, k)));
        }
        // Each FP32 element's hi+lo halves reconstruct it exactly.
        let (hi, lo) = decode_fp32(m.get(1, 2));
        assert_eq!(hi.value() + lo.value(), m.get(1, 2) as f64);

        // FP32C: interleaved re/im rows, planar re-then-im k-major columns,
        // and a conjugating view with a complex alpha.
        let z = Matrix::from_fn(2, 3, |i, j| {
            Complex::new(i as f32 - 0.75 * j as f32, 1.5 + j as f32)
        });
        let c32 = |x: Complex<f32>| [fp32(x.re), fp32(x.im)].concat();
        check(&PackedOperand::pack_rows_c32(&z), (2, 3), &|v, k| {
            c32(z.get(v, k))
        });
        check(&PackedOperand::pack_cols_c32(&z), (3, 2), &|v, k| {
            c32(z.get(k, v))
        });
        let (h, alpha) = (OpView::new(&z, MatOp::H), Complex::new(0.5, -2.0));
        let rows = PackedOperand::pack_rows_c32_src_in(&h, alpha, Default::default());
        check(&rows, (3, 2), &|v, k| c32(alpha * z.get(k, v).conj()));

        // Emulated FP64: row-major rows, k-major columns, alpha on rows.
        let d = Matrix::from_fn(2, 3, |i, j| {
            ((1 + i * 3 + j) as f64 / 7.0).sin() * [1.0, 1e-310, -3e5][j]
        });
        let slices = |x: f64| f64_slices(x).to_vec();
        let mode = MxuMode::M3xuFp64Emu;
        check(
            &PackedOperand::try_pack_rows_f64(&d, mode).unwrap(),
            (2, 3),
            &|v, k| slices(d.get(v, k)),
        );
        check(
            &PackedOperand::try_pack_cols_f64(&d, mode).unwrap(),
            (3, 2),
            &|v, k| slices(d.get(k, v)),
        );
        let rows = PackedOperand::try_pack_rows_f64_src_in(&d, 3.0, mode, Default::default());
        check(&rows.unwrap(), (2, 3), &|v, k| slices(3.0 * d.get(v, k)));
    }

    #[test]
    fn packed_fp32_fragment_matches_tile_mma_bitwise() {
        let a = Matrix::<f32>::random(8, 2, 41);
        let b = Matrix::<f32>::random(2, 8, 42);
        let c = Matrix::<f32>::random(8, 8, 43);
        let mut stats = MmaStats::default();
        let want = mma::mma_fp32(&a, &b, &c, &mut stats);

        let pa = PackedOperand::pack_rows_f32(&a, MxuMode::M3xuFp32);
        let pb = PackedOperand::pack_cols_f32(&b, MxuMode::M3xuFp32);
        let mut acc: Vec<f32> = c.as_slice().to_vec();
        let mut dpu = DotProductUnit::new();
        dpu.mma_f32_into(&pa, &pb, 0, 8, 0, 8, 0, 2, &mut acc, None);
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(acc[i * 8 + j].to_bits(), want.get(i, j).to_bits());
            }
        }
    }

    #[test]
    fn packed_narrow_and_tf32_match_tile_mma() {
        for mode in [MxuMode::Fp16, MxuMode::Bf16, MxuMode::Tf32] {
            let a = Matrix::<f32>::random(8, 4, 7);
            let b = Matrix::<f32>::random(4, 8, 8);
            let c = Matrix::<f32>::random(8, 8, 9);
            let mut stats = MmaStats::default();
            let want = match mode {
                MxuMode::Fp16 => {
                    // The tile path quantises at the buffers; feed raw f32.
                    mma::mma_narrow(m3xu_fp::format::FP16, &a, &b, &c, &mut stats)
                }
                MxuMode::Bf16 => mma::mma_narrow(m3xu_fp::format::BF16, &a, &b, &c, &mut stats),
                _ => mma::mma_tf32(&a, &b, &c, &mut stats),
            };
            let pa = PackedOperand::pack_rows_f32(&a, mode);
            let pb = PackedOperand::pack_cols_f32(&b, mode);
            let mut acc: Vec<f32> = c.as_slice().to_vec();
            let mut dpu = DotProductUnit::new();
            dpu.mma_f32_into(&pa, &pb, 0, 8, 0, 8, 0, 4, &mut acc, None);
            for i in 0..8 {
                for j in 0..8 {
                    assert_eq!(
                        acc[i * 8 + j].to_bits(),
                        want.get(i, j).to_bits(),
                        "mismatch at ({i},{j}) in {mode}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_c32_fragment_matches_tile_mma_bitwise() {
        let a = Matrix::random_c32(8, 1, 51);
        let b = Matrix::random_c32(1, 8, 52);
        let c = Matrix::random_c32(8, 8, 53);
        let mut stats = MmaStats::default();
        let want = mma::mma_fp32c(&a, &b, &c, &mut stats);

        let pa = PackedOperand::pack_rows_c32(&a);
        let pb = PackedOperand::pack_cols_c32(&b);
        let mut acc: Vec<Complex<f32>> = c.as_slice().to_vec();
        let mut dpu = DotProductUnit::new();
        dpu.mma_c32_into(&pa, &pb, 0, 8, 0, 8, 0, 1, &mut acc, None);
        for i in 0..8 {
            for j in 0..8 {
                let (got, w) = (acc[i * 8 + j], want.get(i, j));
                assert_eq!(got.re.to_bits(), w.re.to_bits());
                assert_eq!(got.im.to_bits(), w.im.to_bits());
            }
        }
    }

    #[test]
    fn packed_specials_match_tile_mma() {
        // NaN, infinities of both signs, subnormals, and Inf x 0 lanes.
        let vals = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1.0e-44,
            f32::MAX,
            1.5,
        ];
        let a = Matrix::from_fn(8, 2, |i, j| vals[(i + j) % vals.len()]);
        let b = Matrix::from_fn(2, 8, |i, j| vals[(3 * i + j) % vals.len()]);
        let c = Matrix::<f32>::zeros(8, 8);
        let mut stats = MmaStats::default();
        let want = mma::mma_fp32(&a, &b, &c, &mut stats);
        let pa = PackedOperand::pack_rows_f32(&a, MxuMode::M3xuFp32);
        let pb = PackedOperand::pack_cols_f32(&b, MxuMode::M3xuFp32);
        let mut acc = vec![0.0f32; 64];
        let mut dpu = DotProductUnit::new();
        dpu.mma_f32_into(&pa, &pb, 0, 8, 0, 8, 0, 2, &mut acc, None);
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(
                    acc[i * 8 + j].to_bits(),
                    want.get(i, j).to_bits(),
                    "special-value mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn fragment_stats_match_tile_counters() {
        // FP32: one 8x8x2 fragment on the tile path.
        let a = Matrix::<f32>::random(8, 2, 1);
        let b = Matrix::<f32>::random(2, 8, 2);
        let c = Matrix::<f32>::zeros(8, 8);
        let mut tile = MmaStats::default();
        let _ = mma::mma_fp32(&a, &b, &c, &mut tile);
        let shape = MmaShape::BASELINE_FP16.for_mode(MxuMode::M3xuFp32);
        assert_eq!(fragment_stats(MxuMode::M3xuFp32, shape), tile);

        // FP32C: one 8x8x1 fragment.
        let a = Matrix::random_c32(8, 1, 3);
        let b = Matrix::random_c32(1, 8, 4);
        let c = Matrix::random_c32(8, 8, 5);
        let mut tile = MmaStats::default();
        let _ = mma::mma_fp32c(&a, &b, &c, &mut tile);
        let shape = MmaShape::BASELINE_FP16.for_mode(MxuMode::M3xuFp32c);
        assert_eq!(fragment_stats(MxuMode::M3xuFp32c, shape), tile);

        // Narrow + TF32.
        for (mode, k) in [(MxuMode::Fp16, 4), (MxuMode::Bf16, 4), (MxuMode::Tf32, 2)] {
            let a = Matrix::<f32>::random(8, k, 6);
            let b = Matrix::<f32>::random(k, 8, 7);
            let c = Matrix::<f32>::zeros(8, 8);
            let mut tile = MmaStats::default();
            let _ = match mode {
                MxuMode::Fp16 => mma::mma_narrow(m3xu_fp::format::FP16, &a, &b, &c, &mut tile),
                MxuMode::Bf16 => mma::mma_narrow(m3xu_fp::format::BF16, &a, &b, &c, &mut tile),
                _ => mma::mma_tf32(&a, &b, &c, &mut tile),
            };
            let shape = MmaShape::BASELINE_FP16.for_mode(mode);
            assert_eq!(
                fragment_stats(mode, shape),
                tile,
                "stats mismatch in {mode}"
            );
        }
    }

    #[test]
    fn fast_rounding_matches_kulisch() {
        // The fast 128-bit reduction must round exactly like the Kulisch
        // register for every contribution multiset it accepts: random
        // mantissas/signs with exponent windows swept across the FP32
        // overflow, normal, subnormal, and total-underflow ranges.
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..4000 {
            let n = 1 + (next() % 9) as usize;
            let base = -260 + (case % 420); // sweep pmin over all regimes
            let mut dot = FastDot {
                contrib: [(0, 0, false); FAST_CONTRIB_CAP],
                n: 0,
            };
            let mut kul = m3xu_fp::Kulisch::new();
            for _ in 0..n {
                let mant = next() % (1 << 24);
                let pow = base + (next() % (FAST_POW_RANGE as u64 + 1)) as i32;
                let neg = next() & 1 == 1;
                if mant == 0 {
                    continue;
                }
                dot.contrib[dot.n] = (mant, pow, neg);
                dot.n += 1;
                kul.add_scaled(mant, pow, neg);
            }
            let fast = dot.reduce().expect("window fits by construction");
            assert_eq!(
                fast.to_bits(),
                kul.to_f32().to_bits(),
                "case {case}: fast {fast:e} vs kulisch {:e}",
                kul.to_f32()
            );
        }
        // Deterministic boundary cases: exact ties at the subnormal floor
        // and the largest-normal overflow boundary.
        for &(mant, pow, neg) in &[
            (1u64, -150, false),     // half the least subnormal: tie to zero
            (3, -151, false),        // just above half: least subnormal
            (1, -149, true),         // negative least subnormal
            (0xff_ffff, 104, false), // just under f32::MAX
            (0xff_ffff, 105, false), // overflow to infinity
            (1 << 23, -173, false),  // deep underflow to zero
        ] {
            let mut dot = FastDot {
                contrib: [(0, 0, false); FAST_CONTRIB_CAP],
                n: 1,
            };
            dot.contrib[0] = (mant, pow, neg);
            let mut kul = m3xu_fp::Kulisch::new();
            kul.add_scaled(mant, pow, neg);
            assert_eq!(dot.reduce().unwrap().to_bits(), kul.to_f32().to_bits());
        }
    }

    #[test]
    fn packed_chunk_clips_k_at_the_reduction_end() {
        let a = Matrix::<f32>::random(5, 3, 11); // awkward: clips rows and k
        let b = Matrix::<f32>::random(3, 6, 12); // clips cols
        let pa = PackedOperand::pack_rows_f32(&a, MxuMode::M3xuFp32);
        let pb = PackedOperand::pack_cols_f32(&b, MxuMode::M3xuFp32);
        // The k0=2 chunk covers only packed element 2 (klen 2 clipped at 3):
        // the result equals the exact one-product dot against acc = 0.
        let mut acc = [0.0f32; 64];
        let mut dpu = DotProductUnit::new();
        dpu.mma_f32_into(&pa, &pb, 0, 5, 0, 6, 2, 2, &mut acc, None);
        for i in 0..5 {
            for j in 0..6 {
                let mut k = m3xu_fp::Kulisch::new();
                k.add_product_f32(a.get(i, 2), b.get(2, j));
                assert_eq!(acc[i * 6 + j].to_bits(), k.to_f32().to_bits());
            }
        }
    }

    /// One checked chunk on an 8 x 8 tile, at every level: the scalar
    /// tapped chunk (`scalar`, the per-chunk executor with `Some(check)`),
    /// then the vector checked chunk (`vector`) with the level set to each
    /// `vector_levels()` entry. Every vector run must write the scalar
    /// run's output bits and compute its exact `Checksum`. Returns the
    /// scalar output bits and checksum, and each vector run's
    /// `(simd_chunks, simd_fallbacks)` delta.
    fn checked_at_every_level<T: Copy>(
        c: &[T],
        fault: Option<MmaFault>,
        bits: fn(&[T]) -> Vec<u64>,
        scalar: impl Fn(&mut DotProductUnit, &mut [T], &mut ChunkCheck),
        vector: impl Fn(&mut DotProductUnit, &mut [T], &mut ChunkCheck),
    ) -> (Vec<u64>, Checksum, Vec<(u64, u64)>) {
        let _guard = simd::TEST_LEVEL_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let entry = simd::level();
        let mut dpu = DotProductUnit::new();
        let mut want = c.to_vec();
        let mut check = ChunkCheck::new(fault);
        scalar(&mut dpu, &mut want, &mut check);
        let mut counts = Vec::new();
        for level in simd::vector_levels() {
            simd::set_level(level);
            let (chunks, fallbacks) = (dpu.simd_chunks, dpu.simd_fallbacks);
            let mut got = c.to_vec();
            let mut vcheck = ChunkCheck::new(fault);
            vector(&mut dpu, &mut got, &mut vcheck);
            assert_eq!(bits(&got), bits(&want), "{level:?} {fault:?}");
            assert_eq!(vcheck.computed, check.computed, "{level:?} {fault:?}");
            counts.push((dpu.simd_chunks - chunks, dpu.simd_fallbacks - fallbacks));
        }
        simd::set_level(entry);
        (bits(&want), check.computed, counts)
    }

    fn bits_f32(acc: &[f32]) -> Vec<u64> {
        acc.iter().map(|x| x.to_bits() as u64).collect()
    }

    fn bits_c32(acc: &[Complex<f32>]) -> Vec<u64> {
        acc.iter()
            .flat_map(|z| [z.re.to_bits() as u64, z.im.to_bits() as u64])
            .collect()
    }

    #[test]
    fn checked_mma_f32_is_bit_identical_and_checksum_verifies() {
        use crate::abft::{expected_chunk_f32, BandSums};
        // Every real f32 mode — including the truncated fast schedule and
        // the narrow formats — plus a wide-exponent-spread row that forces
        // the fallback; all must verify, on the scalar tapped chunk and on
        // the vector checked chunk at every level, which must agree bit
        // for bit and checksum for checksum.
        for mode in [
            MxuMode::M3xuFp32,
            MxuMode::M3xuFp32Fast,
            MxuMode::Tf32,
            MxuMode::Fp16,
            MxuMode::Bf16,
        ] {
            for (sa, scale) in [(21u64, 1.0f32), (22, 1.0e30)] {
                let mut a = Matrix::<f32>::random(8, 2, sa);
                if scale != 1.0 {
                    a.set(0, 0, a.get(0, 0) * scale);
                    a.set(0, 1, a.get(0, 1) / scale);
                }
                let b = Matrix::<f32>::random(2, 8, sa + 1);
                let c = Matrix::<f32>::random(8, 8, sa + 2);
                let pa = PackedOperand::pack_rows_f32(&a, mode);
                let pb = PackedOperand::pack_cols_f32(&b, mode);
                let mut dpu = DotProductUnit::new();
                let mut plain: Vec<f32> = c.as_slice().to_vec();
                dpu.mma_f32_into(&pa, &pb, 0, 8, 0, 8, 0, 2, &mut plain, None);
                let (sums_a, sums_b) = (BandSums::new(&pa, 8), BandSums::new(&pb, 8));
                let expected = expected_chunk_f32(&sums_a, &sums_b, c.as_slice(), 0, 0, 0, 2);
                let (checked, computed, counts) = checked_at_every_level(
                    c.as_slice(),
                    None,
                    bits_f32,
                    |dpu, acc, check| {
                        dpu.mma_f32_into(&pa, &pb, 0, 8, 0, 8, 0, 2, acc, Some(check));
                    },
                    |dpu, acc, check| {
                        dpu.mma_f32_checked_into(&pa, &pb, 0, 8, 0, 8, 0, 2, acc, check);
                    },
                );
                assert_eq!(checked, bits_f32(&plain), "{mode:?}");
                // Checked chunks run the certified pair alone: the wide
                // row's 8 chunks fall back to the oracle at every vector
                // level, and the pair rounds everything else.
                let row0 = if scale == 1.0 { 0 } else { 8 };
                for &n in &counts {
                    assert_eq!(n, (64 - row0, row0), "{mode:?} scale {scale:e}");
                }
                // The scaled case overflows the narrow formats to Inf at
                // quantisation — those chunks are correctly unverifiable;
                // a special-free band must always verify.
                if scale == 1.0 {
                    assert!(expected.ok, "{mode:?}: finite inputs must be verifiable");
                }
                assert!(
                    expected.matches(&computed),
                    "{mode:?}: honest run must verify"
                );
            }
        }
    }

    #[test]
    fn checked_mma_f64_is_bit_identical_and_checksum_verifies() {
        use crate::abft::{expected_chunk_f64, BandSums};
        let a = Matrix::from_fn(8, 2, |i, j| ((i * 2 + j) as f64 - 7.5) / 3.0);
        let b = Matrix::from_fn(2, 8, |i, j| ((i * 8 + j) as f64 - 6.5) / 7.0);
        let c = Matrix::from_fn(8, 8, |i, j| ((i * 8 + j) as f64 - 31.5) / 11.0);
        let pa = PackedOperand::try_pack_rows_f64(&a, MxuMode::M3xuFp64Emu).unwrap();
        let pb = PackedOperand::try_pack_cols_f64(&b, MxuMode::M3xuFp64Emu).unwrap();
        let mut dpu = DotProductUnit::new();
        let mut plain: Vec<f64> = c.as_slice().to_vec();
        dpu.mma_f64_into(&pa, &pb, 0, 8, 0, 8, 0, 2, &mut plain, None);
        let mut checked: Vec<f64> = c.as_slice().to_vec();
        let (sums_a, sums_b) = (BandSums::new(&pa, 8), BandSums::new(&pb, 8));
        let expected = expected_chunk_f64(&sums_a, &sums_b, &checked, 0, 0, 0, 2);
        let mut check = ChunkCheck::new(None);
        dpu.mma_f64_into(&pa, &pb, 0, 8, 0, 8, 0, 2, &mut checked, Some(&mut check));
        for (x, y) in checked.iter().zip(&plain) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert!(expected.ok, "finite inputs must be verifiable");
        assert!(expected.matches(&check.computed), "honest run must verify");
    }

    #[test]
    fn checked_mma_c32_is_bit_identical_and_checksum_verifies() {
        use crate::abft::{expected_chunk_c32, BandSums};
        let b = Matrix::random_c32(1, 8, 62);
        let c = Matrix::random_c32(8, 8, 63);
        let pb = PackedOperand::pack_cols_c32(&b);
        // Random operands stay on the scalar oracle's 128-bit fast window
        // and on the vector checked chunk's certified pair; `a[0][0] =
        // 1e20 + 1e-20i` spreads both components of row 0 past both, onto
        // the Kulisch drain, whose real and imaginary residues must each
        // be reported. The vector checked chunk sends that row to the
        // same fallback and must agree at every level.
        let mut wide = Matrix::random_c32(8, 1, 61);
        wide.set(0, 0, Complex::new(1.0e20, 1.0e-20));
        for (a, row0) in [(Matrix::random_c32(8, 1, 61), 0), (wide, 8)] {
            let pa = PackedOperand::pack_rows_c32(&a);
            let mut dpu = DotProductUnit::new();
            let mut plain: Vec<Complex<f32>> = c.as_slice().to_vec();
            dpu.mma_c32_into(&pa, &pb, 0, 8, 0, 8, 0, 1, &mut plain, None);
            let (sums_a, sums_b) = (BandSums::new(&pa, 8), BandSums::new(&pb, 8));
            let expected = expected_chunk_c32(&sums_a, &sums_b, c.as_slice(), 0, 0, 0, 1);
            let (checked, computed, counts) = checked_at_every_level(
                c.as_slice(),
                None,
                bits_c32,
                |dpu, acc, check| dpu.mma_c32_into(&pa, &pb, 0, 8, 0, 8, 0, 1, acc, Some(check)),
                |dpu, acc, check| dpu.mma_c32_checked_into(&pa, &pb, 0, 8, 0, 8, 0, 1, acc, check),
            );
            assert_eq!(checked, bits_c32(&plain));
            for &n in &counts {
                assert_eq!(n, (64 - row0, row0));
            }
            assert!(expected.ok && expected.matches(&computed));
        }
    }

    #[test]
    fn injected_faults_are_always_detected() {
        use crate::abft::{expected_chunk_c32, expected_chunk_f32, expected_chunk_f64, BandSums};
        use crate::fault::MmaFault;
        // Burst and single-bit faults, plus an LSB flip of every component
        // slot (128 covers FP32C's 8 x 8 x 2).
        let faults: Vec<MmaFault> = [
            MmaFault::FlipBit { lane: 5, bit: 31 },
            MmaFault::FlipBit { lane: 63, bit: 0 },
            MmaFault::FlipBit { lane: 17, bit: 23 },
            MmaFault::CorruptValue {
                lane: 40,
                mask: 0xdead_beef,
            },
            MmaFault::CorruptValue {
                lane: 9,
                mask: 0x7f80_0000, // would create a special: retargeted
            },
        ]
        .into_iter()
        .chain((0..128).map(|lane| MmaFault::FlipBit { lane, bit: 0 }))
        .collect();
        // Beyond detection, a fault changes exactly the output component
        // it targets, slot `lane % slots` (FP32C: re at even, im at odd),
        // against the unfaulted run's bits. The FP32 family and FP32C run
        // the scalar tapped chunk and the vector checked chunk at every
        // level, which must write the same bits and compute the same
        // checksum: every fault is detected on the vector path too.
        let hits_its_slot = |f: &MmaFault, got: &[u64], clean: &[u64]| {
            let hit: Vec<usize> = (0..got.len()).filter(|&s| got[s] != clean[s]).collect();
            assert_eq!(hit, [f.lane() as usize % got.len()], "fault {f:?}");
        };

        // Every real f32 mode, including the truncated fast schedule.
        for mode in [
            MxuMode::M3xuFp32,
            MxuMode::M3xuFp32Fast,
            MxuMode::Tf32,
            MxuMode::Fp16,
            MxuMode::Bf16,
        ] {
            let a = Matrix::<f32>::random(8, 2, 71);
            let b = Matrix::<f32>::random(2, 8, 72);
            let c = Matrix::<f32>::random(8, 8, 73);
            let pa = PackedOperand::pack_rows_f32(&a, mode);
            let pb = PackedOperand::pack_cols_f32(&b, mode);
            let mut dpu = DotProductUnit::new();
            let mut clean: Vec<f32> = c.as_slice().to_vec();
            dpu.mma_f32_into(&pa, &pb, 0, 8, 0, 8, 0, 2, &mut clean, None);
            let (sums_a, sums_b) = (BandSums::new(&pa, 8), BandSums::new(&pb, 8));
            let expected = expected_chunk_f32(&sums_a, &sums_b, c.as_slice(), 0, 0, 0, 2);
            for f in &faults {
                let (got, computed, _) = checked_at_every_level(
                    c.as_slice(),
                    Some(*f),
                    bits_f32,
                    |dpu, acc, check| {
                        dpu.mma_f32_into(&pa, &pb, 0, 8, 0, 8, 0, 2, acc, Some(check));
                    },
                    |dpu, acc, check| {
                        dpu.mma_f32_checked_into(&pa, &pb, 0, 8, 0, 8, 0, 2, acc, check);
                    },
                );
                assert!(
                    !expected.matches(&computed),
                    "{mode:?}: fault {f:?} must be detected"
                );
                hits_its_slot(f, &got, &bits_f32(&clean));
            }
        }

        // Emulated FP64.
        let a = Matrix::from_fn(8, 2, |i, j| ((i * 2 + j) as f64 - 7.5) / 3.0);
        let b = Matrix::from_fn(2, 8, |i, j| ((i * 8 + j) as f64 - 6.5) / 7.0);
        let c = Matrix::from_fn(8, 8, |i, j| ((i * 8 + j) as f64 - 31.5) / 11.0);
        let pa = PackedOperand::try_pack_rows_f64(&a, MxuMode::M3xuFp64Emu).unwrap();
        let pb = PackedOperand::try_pack_cols_f64(&b, MxuMode::M3xuFp64Emu).unwrap();
        let mut dpu = DotProductUnit::new();
        let bits = |acc: &[f64]| -> Vec<u64> { acc.iter().map(|x| x.to_bits()).collect() };
        let mut clean: Vec<f64> = c.as_slice().to_vec();
        dpu.mma_f64_into(&pa, &pb, 0, 8, 0, 8, 0, 2, &mut clean, None);
        let (sums_a, sums_b) = (BandSums::new(&pa, 8), BandSums::new(&pb, 8));
        let expected = expected_chunk_f64(&sums_a, &sums_b, c.as_slice(), 0, 0, 0, 2);
        for f in &faults {
            let mut acc: Vec<f64> = c.as_slice().to_vec();
            let mut check = ChunkCheck::new(Some(*f));
            dpu.mma_f64_into(&pa, &pb, 0, 8, 0, 8, 0, 2, &mut acc, Some(&mut check));
            assert!(
                !expected.matches(&check.computed),
                "f64 fault {f:?} must be detected"
            );
            hits_its_slot(f, &bits(&acc), &bits(&clean));
        }

        // FP32C.
        let a = Matrix::random_c32(8, 1, 81);
        let b = Matrix::random_c32(1, 8, 82);
        let c = Matrix::random_c32(8, 8, 83);
        let pa = PackedOperand::pack_rows_c32(&a);
        let pb = PackedOperand::pack_cols_c32(&b);
        let mut clean: Vec<Complex<f32>> = c.as_slice().to_vec();
        dpu.mma_c32_into(&pa, &pb, 0, 8, 0, 8, 0, 1, &mut clean, None);
        let (sums_a, sums_b) = (BandSums::new(&pa, 8), BandSums::new(&pb, 8));
        let expected = expected_chunk_c32(&sums_a, &sums_b, c.as_slice(), 0, 0, 0, 1);
        for f in &faults {
            let (got, computed, _) = checked_at_every_level(
                c.as_slice(),
                Some(*f),
                bits_c32,
                |dpu, acc, check| dpu.mma_c32_into(&pa, &pb, 0, 8, 0, 8, 0, 1, acc, Some(check)),
                |dpu, acc, check| dpu.mma_c32_checked_into(&pa, &pb, 0, 8, 0, 8, 0, 1, acc, check),
            );
            assert!(
                !expected.matches(&computed),
                "complex fault {f:?} must be detected"
            );
            hits_its_slot(f, &got, &bits_c32(&clean));
        }
    }
}
