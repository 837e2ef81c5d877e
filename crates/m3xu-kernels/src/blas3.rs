//! The full BLAS-3 surface over the packed fragment pipeline.
//!
//! Every operation is one call of the driver that also runs plain GEMM
//! ([`crate::gemm`]), built from the operation's parameters by its one
//! entry point, an [`M3xuContext`](crate::context::M3xuContext) method:
//! `try_gemm_op_f32`, `try_cgemm_op_c32`, `try_gemm_op_f64`,
//! `try_syrk_f32`, `try_herk_c32`, `try_symm_f32` and `try_hemm_c32`
//! (on [`default_context`](crate::context::default_context) when the
//! caller has no context of its own). This module holds the [`Side`]
//! parameter and documents the surface:
//!
//! * **`op(X)` operands** — `X`, `X^T`, `X^H` iterate straight out of the
//!   stored buffer through [`OpView`](m3xu_mxu::matrix::OpView) (no
//!   transposed or conjugated copy is ever materialized; see
//!   [`m3xu_mxu::matrix`]);
//! * **alpha/beta accumulate** — `D = alpha·op(A)·op(B) + beta·C`. Alpha
//!   folds into `op(A)`'s elements *before* buffer quantisation (one
//!   multiply per element, bitwise-skipped when `alpha == 1`); beta folds
//!   into the tile seeds (`beta == 1` reads `C` directly — the plain
//!   accumulate path bit-for-bit; `beta == +0.0` seeds zeros without
//!   reading `C`, so an uninitialised/NaN `C` never leaks — the
//!   overwrite path bit-for-bit);
//! * **SYMM/HEMM** — a triangle-stored symmetric/Hermitian operand
//!   expands on the fly through
//!   [`MirrorView`](m3xu_mxu::matrix::MirrorView), on either side;
//! * **SYRK/HERK** — rank-k updates schedule **only the output tiles that
//!   intersect the requested triangle**: `T(T+1)/2` of the full `T²` tile
//!   grid (`T = n/8` tiles per side), an asymptotic 2x saving in MMA
//!   instructions, steps, and wall time that
//!   [`m3xu_gpu::validate`] predicts exactly. Off-diagonal tiles store
//!   their full 8x8 block (it lies entirely inside the triangle);
//!   diagonal tiles store element-predicated, so the unreferenced
//!   triangle of `C` passes through **byte-for-byte untouched**.
//!
//! Because there is one driver (same fragment grid, same K-chunk rounding
//! boundaries, same accounting), an op-GEMM with `op = N`, `alpha = 1`,
//! `beta = 1` is bit-identical — and stats-identical — to
//! [`M3xuContext::try_gemm_f32`](crate::context::M3xuContext::try_gemm_f32).
//!
//! An armed fault plan runs the whole surface through the driver's
//! ABFT-checked body: the expected checksums are computed from the
//! **packed** operand planes — after alpha folding, op views, mirrors,
//! and quantisation — so every operation verifies, including the
//! triangular SYRK/HERK schedules (verification prices only the
//! `T(T+1)/2` scheduled tiles).

/// Which side a SYMM/HEMM's symmetric operand multiplies from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// `C = alpha·A·B + beta·C` (A is the symmetric/Hermitian operand).
    Left,
    /// `C = alpha·B·A + beta·C`.
    Right,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{default_context, ExecStats, M3xuContext};
    use crate::gemm::GemmPrecision;
    use m3xu_fp::complex::Complex;
    use m3xu_mxu::error::M3xuError;
    use m3xu_mxu::fault::FaultPlan;
    use m3xu_mxu::matrix::{MatOp, Matrix, MirrorView, OpView, Triangle};
    use std::sync::Arc;

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

    /// `f`'s result and the counter delta it left on `ctx`, with the wall
    /// times (the only run-to-run noise) zeroed.
    fn metered<R>(ctx: &M3xuContext, f: impl FnOnce() -> R) -> (R, ExecStats) {
        let before = ctx.stats();
        let r = f();
        let mut delta = ctx.stats().delta_since(&before);
        delta.pack_ns = 0;
        delta.exec_ns = 0;
        (r, delta)
    }

    #[test]
    fn op_n_unit_scalars_bit_identical_to_plain_gemm() {
        // Plain GEMM is the driver call (N, N, 1, 1, full): same bits, same
        // MmaStats, same ExecStats delta field for field — unarmed, and
        // armed at rate 0 (the checked body) — including the degenerate
        // k = 0 and m = 0 shapes. The checked body runs the FP32 family
        // and FP32C on the same SIMD panel bodies, so an armed call's
        // delta, SIMD counters included, is the unarmed call's.
        let unarmed = M3xuContext::with_threads(2);
        let armed = M3xuContext::with_threads(2).with_fault_plan(Arc::new(FaultPlan::new(0, 0.0)));
        let mut unarmed_deltas = Vec::new();
        for (ctx, tag) in [(&unarmed, "unarmed"), (&armed, "armed")] {
            let mut call = 0;
            let mut same_as_unarmed = |dp: ExecStats, what: &str| {
                if ctx.fault_plan().is_some() {
                    assert_eq!(dp, unarmed_deltas[call], "{what}");
                } else {
                    unarmed_deltas.push(dp);
                }
                call += 1;
            };
            for (m, k, n) in [(23, 14, 17), (9, 0, 5), (0, 6, 7)] {
                let tag = format!("{tag} {m}x{k}x{n}");
                let a = Matrix::<f32>::random(m, k, 1);
                let b = Matrix::<f32>::random(k, n, 2);
                let c = Matrix::<f32>::random(m, n, 3);
                for p in GemmPrecision::ALL {
                    if !p.is_f32() {
                        continue;
                    }
                    let (plain, dp) = metered(ctx, || ctx.try_gemm_f32(p, &a, &b, &c).unwrap());
                    let (op, dop) = metered(ctx, || {
                        ctx.try_gemm_op_f32(p, MatOp::N, &a, MatOp::N, &b, 1.0, 1.0, &c)
                            .unwrap()
                    });
                    assert_eq!(bits_f32(&plain.d), bits_f32(&op.d), "{p:?} {tag}");
                    assert_eq!(plain.stats, op.stats, "{p:?} {tag}");
                    assert_eq!(dp, dop, "{p:?} {tag}");
                    assert_eq!(dp.gemm_calls, 1, "{p:?} {tag}");
                    same_as_unarmed(dp, &format!("{p:?} {tag}"));
                }

                let ac = Matrix::random_c32(m, k, 4);
                let bc = Matrix::random_c32(k, n, 5);
                let cc = Matrix::random_c32(m, n, 6);
                let (plain, dp) = metered(ctx, || ctx.try_cgemm_c32(&ac, &bc, &cc).unwrap());
                let (op, dop) = metered(ctx, || {
                    ctx.try_cgemm_op_c32(MatOp::N, &ac, MatOp::N, &bc, C32::ONE, C32::ONE, &cc)
                        .unwrap()
                });
                assert_eq!(bits_c32(&plain.d), bits_c32(&op.d), "cgemm {tag}");
                assert_eq!(plain.stats, op.stats, "cgemm {tag}");
                assert_eq!(dp, dop, "cgemm {tag}");
                same_as_unarmed(dp, &format!("cgemm {tag}"));

                let ad = Matrix::random_f64(m, k, 7);
                let bd = Matrix::random_f64(k, n, 8);
                let cd = Matrix::random_f64(m, n, 9);
                let fp64 = GemmPrecision::Fp64Emulated;
                let (plain, dp) = metered(ctx, || ctx.try_gemm_f64(fp64, &ad, &bd, &cd).unwrap());
                let (op, dop) = metered(ctx, || {
                    ctx.try_gemm_op_f64(fp64, MatOp::N, &ad, MatOp::N, &bd, 1.0, 1.0, &cd)
                        .unwrap()
                });
                for i in 0..m {
                    for j in 0..n {
                        let (x, y) = (plain.d.get(i, j), op.d.get(i, j));
                        assert_eq!(x.to_bits(), y.to_bits(), "gemm_f64 {tag}");
                    }
                }
                assert_eq!(plain.stats, op.stats, "gemm_f64 {tag}");
                assert_eq!(dp, dop, "gemm_f64 {tag}");
            }
        }
    }

    #[test]
    fn op_views_match_materialized_operands() {
        let (m, k, n) = (13, 9, 21);
        // Stored transposed: op(X) = X^T recovers the logical operand.
        let at = Matrix::<f32>::random(k, m, 11);
        let bt = Matrix::<f32>::random(n, k, 12);
        let c = Matrix::<f32>::random(m, n, 13);
        let via_view = default_context()
            .try_gemm_op_f32(
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
        let via_copy = default_context()
            .try_gemm_f32(GemmPrecision::M3xuFp32, &am, &bm, &c)
            .unwrap();
        assert_eq!(bits_f32(&via_view.d), bits_f32(&via_copy.d));

        // Complex: conjugate-transpose against its materialization.
        let ah = Matrix::random_c32(k, m, 14);
        let bh = Matrix::random_c32(n, k, 15);
        let cc = Matrix::random_c32(m, n, 16);
        let via_view = default_context()
            .try_cgemm_op_c32(MatOp::H, &ah, MatOp::H, &bh, C32::ONE, C32::ONE, &cc)
            .unwrap();
        let am = OpView::new(&ah, MatOp::H).materialize();
        let bm = OpView::new(&bh, MatOp::H).materialize();
        let via_copy = default_context().try_cgemm_c32(&am, &bm, &cc).unwrap();
        assert_eq!(bits_c32(&via_view.d), bits_c32(&via_copy.d));
    }

    #[test]
    fn alpha_beta_fold_matches_elementwise_prefold() {
        let (m, k, n) = (11, 6, 10);
        let a = Matrix::<f32>::random(m, k, 21);
        let b = Matrix::<f32>::random(k, n, 22);
        let c = Matrix::<f32>::random(m, n, 23);
        for (alpha, beta) in [(0.5f32, -1.0f32), (-1.0, 0.5), (0.0, 2.0), (2.0, 0.0)] {
            let folded = default_context()
                .try_gemm_op_f32(
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
            let pre = default_context()
                .try_gemm_f32(GemmPrecision::M3xuFp32, &am, &b, &cm)
                .unwrap();
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
        let r = default_context()
            .try_gemm_op_f32(
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
        let want = default_context()
            .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &zero)
            .unwrap();
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
        let r = default_context()
            .try_herk_c32(Triangle::Upper, MatOp::N, &a, 0.75, -0.5, &canary)
            .unwrap();
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
            default_context().try_herk_c32(Triangle::Upper, MatOp::T, &a, 1.0, 1.0, &canary),
            Err(M3xuError::ModeMismatch { .. })
        ));
    }

    #[test]
    fn symm_and_hemm_match_mirror_materialization() {
        let (n, m) = (12, 15);
        let a = Matrix::<f32>::random(n, n, 61);
        let b = Matrix::<f32>::random(n, m, 62);
        let c = Matrix::<f32>::random(n, m, 63);
        let via_mirror = default_context()
            .try_symm_f32(
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
        let want = default_context()
            .try_gemm_op_f32(
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
        let via_mirror = default_context()
            .try_hemm_c32(Side::Right, Triangle::Upper, &ah, &bh, alpha, beta, &ch)
            .unwrap();
        let herm = MirrorView::new(&ah, Triangle::Upper, true).materialize();
        let want = default_context()
            .try_cgemm_op_c32(MatOp::N, &bh, MatOp::N, &herm, alpha, beta, &ch)
            .unwrap();
        assert_eq!(bits_c32(&via_mirror.d), bits_c32(&want.d));
    }

    #[test]
    fn shape_and_precision_errors_are_typed() {
        let a = Matrix::<f32>::random(4, 6, 71);
        let b = Matrix::<f32>::random(5, 3, 72);
        let c = Matrix::<f32>::random(4, 3, 73);
        assert!(matches!(
            default_context().try_gemm_op_f32(
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
            default_context().try_gemm_op_f32(
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
            default_context().try_syrk_f32(
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
            default_context().try_symm_f32(
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
