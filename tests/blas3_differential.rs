//! Differential oracle suite for the BLAS-3 surface: every entry point
//! the workspace offers for `op(X)`/alpha/beta GEMM, SYMM/HEMM, and the
//! triangular rank-k updates — the process-wide `default_context()`, a
//! private [`M3xuContext`] at several thread counts, and the `m3xu-serve`
//! scheduler (batched and sharded) — must produce output **bit-identical**
//! to a naive prefolded reference:
//!
//! * `op(A)` / `op(B)` are materialized per element (conjugating for
//!   `H`), `alpha` is folded into `op(A)` with the same bitwise `== 1.0`
//!   skip the packing fold uses, and `beta` is folded into `C` with the
//!   same three-way branch (`+0.0` bits never reads `C`); the folded
//!   operands then run through the *plain* GEMM oracle — the unfused
//!   `gemm::baseline` for the engines that have one, a single-thread
//!   plain-driver context for `Fp32Fast`/`Fp64Emulated`. The view
//!   iteration, the fold-at-pack driver, and the scheduler must all
//!   reproduce those bits exactly.
//! * SYRK/HERK are checked in-triangle against the same prefolded oracle
//!   while the unreferenced triangle carries a NaN-payload canary that
//!   must survive byte for byte; HERK diagonals must come back exactly
//!   real.
//! * SYMM/HEMM are checked against the oracle run on the materialized
//!   [`MirrorView`] expansion.
//!
//! Shapes come from a deterministic xorshift generator plus a fixed edge
//! set (zero/unit dims, primes, non-multiples of the fragment edges);
//! `M3XU_PROP_CASES` scales the random-case count as in
//! `differential_props.rs`. Alpha/beta sweep `{0, 1, -1, 0.5, denormal}`
//! — cycled per (case, op-pair, engine) so every pair of the 5x5 grid is
//! exercised across the run.

use m3xu::kernels::gemm::{self, GemmPrecision};
use m3xu::kernels::{default_context, M3xuContext};
use m3xu::serve::{BatchPolicy, M3xuServe, ServeConfig, SubmitOpts};
use m3xu::{MatOp, Matrix, MirrorView, Side, Triangle, C32};

/// Deterministic xorshift64* shape generator (same scheme as
/// `differential_props.rs`, different seed stream).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn dim(&mut self) -> usize {
        match self.next() % 8 {
            0 => 0,
            1 => 1,
            _ => 2 + (self.next() % 46) as usize,
        }
    }
}

/// Fixed edge shapes `(m, k, n)`: degenerate, unit, prime, and
/// non-multiple-of-8/4.
const EDGE_SHAPES: [(usize, usize, usize); 8] = [
    (0, 8, 8),
    (8, 0, 8),
    (8, 8, 0),
    (1, 1, 1),
    (7, 11, 13),
    (23, 29, 31),
    (9, 15, 33),
    (41, 2, 5),
];

fn prop_cases() -> usize {
    std::env::var("M3XU_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10)
}

fn shapes() -> Vec<(usize, usize, usize)> {
    let mut rng = XorShift(0xA076_1D64_78BD_642F);
    let mut v: Vec<(usize, usize, usize)> = EDGE_SHAPES.to_vec();
    v.extend((0..prop_cases()).map(|_| (rng.dim(), rng.dim(), rng.dim())));
    v
}

/// Rank-k shapes `(n, k)` for SYRK/HERK: degenerate, unit, prime, and
/// tile-straddling, plus xorshift extras.
fn rank_shapes() -> Vec<(usize, usize)> {
    let mut rng = XorShift(0xE703_7ED1_A0B4_28DB);
    let mut v = vec![(0, 8), (8, 0), (1, 1), (7, 13), (33, 12), (19, 7), (24, 24)];
    v.extend((0..prop_cases().div_ceil(2)).map(|_| (rng.dim(), rng.dim())));
    v
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const OPS: [MatOp; 3] = [MatOp::N, MatOp::T, MatOp::H];
const TRIS: [Triangle; 2] = [Triangle::Lower, Triangle::Upper];

/// Denormal f32 (min positive normal is ~1.18e-38): the fold must not
/// flush it.
const DENORM_F32: f32 = 1.0e-41;
const DENORM_F64: f64 = 1.0e-310;

const SCALARS_F32: [f32; 5] = [0.0, 1.0, -1.0, 0.5, DENORM_F32];
const SCALARS_F64: [f64; 5] = [0.0, 1.0, -1.0, 0.5, DENORM_F64];

fn scalars_c32() -> [C32; 5] {
    [
        C32::ZERO,
        C32::new(1.0, 0.0),
        C32::new(-1.0, 0.0),
        C32::new(0.5, -0.25),
        C32::new(DENORM_F32, DENORM_F32),
    ]
}

/// All nine `(op(A), op(B))` combinations.
fn op_pairs() -> Vec<(MatOp, MatOp)> {
    OPS.iter()
        .flat_map(|&oa| OPS.iter().map(move |&ob| (oa, ob)))
        .collect()
}

/// Stored dims of an operand whose logical (post-op) shape is `r x c`.
fn stored(op: MatOp, r: usize, c: usize) -> (usize, usize) {
    match op {
        MatOp::N => (r, c),
        MatOp::T | MatOp::H => (c, r),
    }
}

// ---- naive prefold oracle helpers -----------------------------------

fn op_f32(op: MatOp, a: &Matrix<f32>) -> Matrix<f32> {
    match op {
        MatOp::N => a.clone(),
        // Conjugation is the identity on reals: H == T.
        MatOp::T | MatOp::H => Matrix::from_fn(a.cols(), a.rows(), |i, j| a.get(j, i)),
    }
}

fn op_c32(op: MatOp, a: &Matrix<C32>) -> Matrix<C32> {
    match op {
        MatOp::N => a.clone(),
        MatOp::T => Matrix::from_fn(a.cols(), a.rows(), |i, j| a.get(j, i)),
        MatOp::H => Matrix::from_fn(a.cols(), a.rows(), |i, j| a.get(j, i).conj()),
    }
}

fn op_f64(op: MatOp, a: &Matrix<f64>) -> Matrix<f64> {
    match op {
        MatOp::N => a.clone(),
        MatOp::T | MatOp::H => Matrix::from_fn(a.cols(), a.rows(), |i, j| a.get(j, i)),
    }
}

fn fold_alpha_f32(alpha: f32, m: &Matrix<f32>) -> Matrix<f32> {
    if alpha.to_bits() == 1.0f32.to_bits() {
        m.clone()
    } else {
        Matrix::from_fn(m.rows(), m.cols(), |i, j| alpha * m.get(i, j))
    }
}

fn fold_beta_f32(beta: f32, c: &Matrix<f32>) -> Matrix<f32> {
    if beta.to_bits() == 0.0f32.to_bits() {
        Matrix::zeros(c.rows(), c.cols())
    } else if beta.to_bits() == 1.0f32.to_bits() {
        c.clone()
    } else {
        Matrix::from_fn(c.rows(), c.cols(), |i, j| beta * c.get(i, j))
    }
}

fn fold_alpha_c32(alpha: C32, m: &Matrix<C32>) -> Matrix<C32> {
    if alpha.re.to_bits() == 1.0f32.to_bits() && alpha.im.to_bits() == 0.0f32.to_bits() {
        m.clone()
    } else {
        Matrix::from_fn(m.rows(), m.cols(), |i, j| alpha * m.get(i, j))
    }
}

fn fold_beta_c32(beta: C32, c: &Matrix<C32>) -> Matrix<C32> {
    if beta.re.to_bits() == 0.0f32.to_bits() && beta.im.to_bits() == 0.0f32.to_bits() {
        Matrix::from_fn(c.rows(), c.cols(), |_, _| C32::ZERO)
    } else if beta.re.to_bits() == 1.0f32.to_bits() && beta.im.to_bits() == 0.0f32.to_bits() {
        c.clone()
    } else {
        Matrix::from_fn(c.rows(), c.cols(), |i, j| beta * c.get(i, j))
    }
}

fn fold_alpha_f64(alpha: f64, m: &Matrix<f64>) -> Matrix<f64> {
    if alpha.to_bits() == 1.0f64.to_bits() {
        m.clone()
    } else {
        Matrix::from_fn(m.rows(), m.cols(), |i, j| alpha * m.get(i, j))
    }
}

fn fold_beta_f64(beta: f64, c: &Matrix<f64>) -> Matrix<f64> {
    if beta.to_bits() == 0.0f64.to_bits() {
        Matrix::from_fn(c.rows(), c.cols(), |_, _| 0.0)
    } else if beta.to_bits() == 1.0f64.to_bits() {
        c.clone()
    } else {
        Matrix::from_fn(c.rows(), c.cols(), |i, j| beta * c.get(i, j))
    }
}

/// The plain-GEMM oracle on already-folded operands: the unfused
/// baseline where one exists, a single-thread plain-driver context for
/// the precisions that exist only in the packed driver.
fn oracle_f32(
    precision: GemmPrecision,
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    c: &Matrix<f32>,
) -> gemm::GemmResult<f32> {
    match precision {
        GemmPrecision::Fp32Fast => M3xuContext::with_threads(1)
            .try_gemm_f32(precision, a, b, c)
            .unwrap(),
        _ => gemm::baseline::gemm_f32(precision, a, b, c),
    }
}

fn assert_bits_f32(got: &Matrix<f32>, want: &Matrix<f32>, what: &str) {
    assert_eq!(
        (got.rows(), got.cols()),
        (want.rows(), want.cols()),
        "{what}"
    );
    for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}");
    }
}

fn assert_bits_c32(got: &Matrix<C32>, want: &Matrix<C32>, what: &str) {
    assert_eq!(
        (got.rows(), got.cols()),
        (want.rows(), want.cols()),
        "{what}"
    );
    for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}: element {i} (re)");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}: element {i} (im)");
    }
}

fn assert_bits_f64(got: &Matrix<f64>, want: &Matrix<f64>, what: &str) {
    assert_eq!(
        (got.rows(), got.cols()),
        (want.rows(), want.cols()),
        "{what}"
    );
    for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}");
    }
}

/// One batched and one sharded serve per thread count — the two
/// scheduler paths the tentpole must keep bit-exact.
fn serve_fleet() -> Vec<(String, M3xuServe)> {
    THREAD_COUNTS
        .iter()
        .flat_map(|&t| {
            [
                (BatchPolicy::Always, usize::MAX, 1usize),
                (BatchPolicy::Adaptive, 4096, 2),
            ]
            .map(|(batching, shard_tiles, shards)| {
                (
                    format!("workers={t},batching={batching:?},shards={shards}"),
                    M3xuServe::new(ServeConfig {
                        workers: t,
                        batching,
                        shard_tiles,
                        shards,
                        ..ServeConfig::default()
                    }),
                )
            })
        })
        .collect()
}

const F32_ENGINES: [GemmPrecision; 5] = [
    GemmPrecision::Fp16,
    GemmPrecision::Bf16,
    GemmPrecision::Tf32,
    GemmPrecision::M3xuFp32,
    GemmPrecision::Fp32Fast,
];

#[test]
fn real_op_gemm_all_engines_all_ops_all_paths_match_prefolded_oracle_bits() {
    let serves = serve_fleet();
    let ctxs: Vec<(usize, M3xuContext)> = THREAD_COUNTS
        .iter()
        .map(|&t| (t, M3xuContext::with_threads(t)))
        .collect();
    let pairs = op_pairs();
    for (case, &(m, k, n)) in shapes().iter().enumerate() {
        for (ei, &precision) in F32_ENGINES.iter().enumerate() {
            for (oi, &(op_a, op_b)) in pairs.iter().enumerate() {
                let (ar, ac) = stored(op_a, m, k);
                let (br, bc) = stored(op_b, k, n);
                let seed = (case * 97 + ei * 13 + oi) as u64;
                let a = Matrix::<f32>::random(ar, ac, seed * 3 + 1);
                let b = Matrix::<f32>::random(br, bc, seed * 3 + 2);
                let c = Matrix::<f32>::random(m, n, seed * 3 + 3);
                let alpha = SCALARS_F32[(case + oi) % 5];
                let beta = SCALARS_F32[(case + oi + ei) % 5];

                let a_eff = fold_alpha_f32(alpha, &op_f32(op_a, &a));
                let b_eff = op_f32(op_b, &b);
                let c_eff = fold_beta_f32(beta, &c);
                let want = oracle_f32(precision, &a_eff, &b_eff, &c_eff);
                let tag = |path: &str| {
                    format!(
                        "case {case} {m}x{k}x{n} {precision:?} op=({op_a:?},{op_b:?}) \
                         alpha={alpha} beta={beta} via {path}"
                    )
                };

                // Path 1: the process-wide default context, sized and
                // armed by `M3XU_THREADS` / `M3XU_FAULT_*` once per process.
                let dflt = default_context()
                    .try_gemm_op_f32(precision, op_a, &a, op_b, &b, alpha, beta, &c)
                    .unwrap();
                assert_bits_f32(&dflt.d, &want.d, &tag("default ctx"));
                assert_eq!(dflt.stats, want.stats, "{}", tag("default ctx"));

                // Path 2: a private context, thread count cycled.
                let (t, ctx) = &ctxs[(case + oi) % ctxs.len()];
                let r = ctx
                    .try_gemm_op_f32(precision, op_a, &a, op_b, &b, alpha, beta, &c)
                    .unwrap();
                assert_bits_f32(&r.d, &want.d, &tag(&format!("ctx[{t}]")));
                assert_eq!(r.stats, want.stats, "{}", tag(&format!("ctx[{t}]")));

                // Path 3: the serve scheduler, one op pair per case so
                // every pair still appears across the sweep.
                if oi == case % pairs.len() {
                    for (label, serve) in &serves {
                        let r = serve
                            .submit_gemm_op_f32(
                                "prop",
                                precision,
                                op_a,
                                a.clone(),
                                op_b,
                                b.clone(),
                                alpha,
                                beta,
                                c.clone(),
                                SubmitOpts::default(),
                            )
                            .and_then(|t| t.wait())
                            .unwrap();
                        let path = format!("serve[{label}]");
                        assert_bits_f32(&r.d, &want.d, &tag(&path));
                        assert_eq!(r.stats, want.stats, "{}", tag(&path));
                    }
                }
            }
        }
    }
}

#[test]
fn complex_op_gemm_all_ops_all_paths_match_prefolded_oracle_bits() {
    let serves = serve_fleet();
    let ctxs: Vec<(usize, M3xuContext)> = THREAD_COUNTS
        .iter()
        .map(|&t| (t, M3xuContext::with_threads(t)))
        .collect();
    let pairs = op_pairs();
    let grid = scalars_c32();
    for (case, &(m, k, n)) in shapes().iter().enumerate() {
        for (oi, &(op_a, op_b)) in pairs.iter().enumerate() {
            let (ar, ac) = stored(op_a, m, k);
            let (br, bc) = stored(op_b, k, n);
            let seed = (case * 89 + oi) as u64;
            let a = Matrix::random_c32(ar, ac, seed * 5 + 1);
            let b = Matrix::random_c32(br, bc, seed * 5 + 2);
            let c = Matrix::random_c32(m, n, seed * 5 + 3);
            let alpha = grid[(case + oi) % 5];
            let beta = grid[(case + 2 * oi + 1) % 5];

            let a_eff = fold_alpha_c32(alpha, &op_c32(op_a, &a));
            let b_eff = op_c32(op_b, &b);
            let c_eff = fold_beta_c32(beta, &c);
            let want = gemm::baseline::cgemm_c32(&a_eff, &b_eff, &c_eff);
            let tag = |path: &str| {
                format!("case {case} {m}x{k}x{n} FP32C op=({op_a:?},{op_b:?}) via {path}")
            };

            let dflt = default_context()
                .try_cgemm_op_c32(op_a, &a, op_b, &b, alpha, beta, &c)
                .unwrap();
            assert_bits_c32(&dflt.d, &want.d, &tag("default ctx"));
            assert_eq!(dflt.stats, want.stats, "{}", tag("default ctx"));

            let (t, ctx) = &ctxs[(case + oi) % ctxs.len()];
            let r = ctx
                .try_cgemm_op_c32(op_a, &a, op_b, &b, alpha, beta, &c)
                .unwrap();
            assert_bits_c32(&r.d, &want.d, &tag(&format!("ctx[{t}]")));
            assert_eq!(r.stats, want.stats, "{}", tag(&format!("ctx[{t}]")));

            if oi == case % pairs.len() {
                for (label, serve) in &serves {
                    let r = serve
                        .submit_cgemm_op_c32(
                            "prop",
                            op_a,
                            a.clone(),
                            op_b,
                            b.clone(),
                            alpha,
                            beta,
                            c.clone(),
                            SubmitOpts::default(),
                        )
                        .and_then(|t| t.wait())
                        .unwrap();
                    let path = format!("serve[{label}]");
                    assert_bits_c32(&r.d, &want.d, &tag(&path));
                    assert_eq!(r.stats, want.stats, "{}", tag(&path));
                }
            }
        }
    }
}

#[test]
fn fp64_op_gemm_all_ops_match_prefolded_single_thread_oracle_bits() {
    // Emulated FP64 has no baseline tile executor; the oracle is the
    // plain single-thread f64 driver on prefolded operands. Cheaper
    // striding: the default context plus one cycled context per combination.
    let ctxs: Vec<(usize, M3xuContext)> = THREAD_COUNTS
        .iter()
        .map(|&t| (t, M3xuContext::with_threads(t)))
        .collect();
    let oracle = M3xuContext::with_threads(1);
    let pairs = op_pairs();
    for (case, &(m, k, n)) in shapes().iter().enumerate() {
        for (oi, &(op_a, op_b)) in pairs.iter().enumerate() {
            if (case + oi) % 3 != 0 {
                continue;
            }
            let (ar, ac) = stored(op_a, m, k);
            let (br, bc) = stored(op_b, k, n);
            let seed = (case * 83 + oi) as u64;
            let a = Matrix::<f64>::random_f64(ar, ac, seed * 7 + 1);
            let b = Matrix::<f64>::random_f64(br, bc, seed * 7 + 2);
            let c = Matrix::<f64>::random_f64(m, n, seed * 7 + 3);
            let alpha = SCALARS_F64[(case + oi) % 5];
            let beta = SCALARS_F64[(case + 2 * oi) % 5];

            let a_eff = fold_alpha_f64(alpha, &op_f64(op_a, &a));
            let b_eff = op_f64(op_b, &b);
            let c_eff = fold_beta_f64(beta, &c);
            let want = oracle
                .try_gemm_f64(GemmPrecision::Fp64Emulated, &a_eff, &b_eff, &c_eff)
                .unwrap();
            let tag = |path: &str| {
                format!("case {case} {m}x{k}x{n} Fp64Emulated op=({op_a:?},{op_b:?}) via {path}")
            };

            let dflt = default_context()
                .try_gemm_op_f64(
                    GemmPrecision::Fp64Emulated,
                    op_a,
                    &a,
                    op_b,
                    &b,
                    alpha,
                    beta,
                    &c,
                )
                .unwrap();
            assert_bits_f64(&dflt.d, &want.d, &tag("default ctx"));
            assert_eq!(dflt.stats, want.stats, "{}", tag("default ctx"));

            let (t, ctx) = &ctxs[(case + oi) % ctxs.len()];
            let r = ctx
                .try_gemm_op_f64(
                    GemmPrecision::Fp64Emulated,
                    op_a,
                    &a,
                    op_b,
                    &b,
                    alpha,
                    beta,
                    &c,
                )
                .unwrap();
            assert_bits_f64(&r.d, &want.d, &tag(&format!("ctx[{t}]")));
            assert_eq!(r.stats, want.stats, "{}", tag(&format!("ctx[{t}]")));
        }
    }
}

/// A recognizable NaN payload: if SYRK/HERK ever touch the unreferenced
/// triangle, the exact-bit comparison fails loudly.
const CANARY_F32: u32 = 0x7FC0_1DEA;

#[test]
fn syrk_matches_oracle_in_triangle_and_preserves_canary_bits() {
    let serves = serve_fleet();
    let ctxs: Vec<(usize, M3xuContext)> = THREAD_COUNTS
        .iter()
        .map(|&t| (t, M3xuContext::with_threads(t)))
        .collect();
    let canary = f32::from_bits(CANARY_F32);
    for (case, &(n, k)) in rank_shapes().iter().enumerate() {
        for (ti, &tri) in TRIS.iter().enumerate() {
            for (pi, &op_a) in [MatOp::N, MatOp::T].iter().enumerate() {
                let precision = F32_ENGINES[(case + ti + pi) % F32_ENGINES.len()];
                let alpha = SCALARS_F32[(case + pi) % 5];
                let beta = SCALARS_F32[(case + ti + 1) % 5];
                let (ar, ac) = stored(op_a, n, k);
                let seed = (case * 71 + ti * 7 + pi) as u64;
                let a = Matrix::<f32>::random(ar, ac, seed * 3 + 1);
                // Poison the triangle SYRK must never reference.
                let mut c = Matrix::<f32>::random(n, n, seed * 3 + 2);
                for i in 0..n {
                    for j in 0..n {
                        if !tri.contains(i, j) {
                            c.set(i, j, canary);
                        }
                    }
                }
                // In-triangle oracle: the prefolded plain GEMM of
                // alpha.op(A).op(A)^T + beta.C.
                let a_eff = fold_alpha_f32(alpha, &op_f32(op_a, &a));
                let b_eff = match op_a {
                    MatOp::N => op_f32(MatOp::T, &a),
                    _ => a.clone(),
                };
                let c_eff = fold_beta_f32(beta, &c);
                let full = oracle_f32(precision, &a_eff, &b_eff, &c_eff);
                let want = Matrix::from_fn(n, n, |i, j| {
                    if tri.contains(i, j) {
                        full.d.get(i, j)
                    } else {
                        canary
                    }
                });
                let tag = |path: &str| {
                    format!(
                        "case {case} n={n} k={k} {precision:?} {tri:?} op={op_a:?} \
                         alpha={alpha} beta={beta} via {path}"
                    )
                };

                let dflt = default_context()
                    .try_syrk_f32(precision, tri, op_a, &a, alpha, beta, &c)
                    .unwrap();
                assert_bits_f32(&dflt.d, &want, &tag("default ctx"));

                let (t, ctx) = &ctxs[(case + pi) % ctxs.len()];
                let r = ctx
                    .try_syrk_f32(precision, tri, op_a, &a, alpha, beta, &c)
                    .unwrap();
                assert_bits_f32(&r.d, &want, &tag(&format!("ctx[{t}]")));
                assert_eq!(r.stats, dflt.stats, "{}", tag(&format!("ctx[{t}]")));

                if (case + ti + pi) % 4 == 0 {
                    for (label, serve) in &serves {
                        let r = serve
                            .submit_syrk_f32(
                                "prop",
                                precision,
                                tri,
                                op_a,
                                a.clone(),
                                alpha,
                                beta,
                                c.clone(),
                                SubmitOpts::default(),
                            )
                            .and_then(|t| t.wait())
                            .unwrap();
                        let path = format!("serve[{label}]");
                        assert_bits_f32(&r.d, &want, &tag(&path));
                        assert_eq!(r.stats, dflt.stats, "{}", tag(&path));
                    }
                }
            }
        }
    }
}

#[test]
fn herk_matches_oracle_with_real_diagonal_and_canary_triangle() {
    let serves = serve_fleet();
    let ctxs: Vec<(usize, M3xuContext)> = THREAD_COUNTS
        .iter()
        .map(|&t| (t, M3xuContext::with_threads(t)))
        .collect();
    let canary = C32::new(
        f32::from_bits(CANARY_F32),
        f32::from_bits(CANARY_F32 | 0x8000_0000),
    );
    for (case, &(n, k)) in rank_shapes().iter().enumerate() {
        for (ti, &tri) in TRIS.iter().enumerate() {
            for (pi, &op_a) in [MatOp::N, MatOp::H].iter().enumerate() {
                let alpha = SCALARS_F32[(case + pi) % 5];
                let beta = SCALARS_F32[(case + ti + 2) % 5];
                let (ar, ac) = stored(op_a, n, k);
                let seed = (case * 67 + ti * 5 + pi) as u64;
                let a = Matrix::random_c32(ar, ac, seed * 3 + 1);
                let mut c = Matrix::random_c32(n, n, seed * 3 + 2);
                for i in 0..n {
                    for j in 0..n {
                        if !tri.contains(i, j) {
                            c.set(i, j, canary);
                        }
                    }
                }
                // Oracle: prefolded complex GEMM with the HERK diagonal
                // seed (beta.Re(c), imaginary part never referenced),
                // then the diagonal forced exactly real.
                let alpha_c = C32::new(alpha, 0.0);
                let a_eff = fold_alpha_c32(alpha_c, &op_c32(op_a, &a));
                let b_eff = match op_a {
                    MatOp::N => op_c32(MatOp::H, &a),
                    _ => op_c32(MatOp::N, &a),
                };
                let mut c_eff = fold_beta_c32(C32::new(beta, 0.0), &c);
                for i in 0..n {
                    let seeded = if beta.to_bits() == 0.0f32.to_bits() {
                        C32::ZERO
                    } else if beta.to_bits() == 1.0f32.to_bits() {
                        C32::new(c.get(i, i).re, 0.0)
                    } else {
                        C32::new(beta * c.get(i, i).re, 0.0)
                    };
                    c_eff.set(i, i, seeded);
                }
                let full = gemm::baseline::cgemm_c32(&a_eff, &b_eff, &c_eff);
                let want = Matrix::from_fn(n, n, |i, j| {
                    if i == j {
                        C32::new(full.d.get(i, i).re, 0.0)
                    } else if tri.contains(i, j) {
                        full.d.get(i, j)
                    } else {
                        canary
                    }
                });
                let tag = |path: &str| {
                    format!(
                        "case {case} n={n} k={k} HERK {tri:?} op={op_a:?} \
                         alpha={alpha} beta={beta} via {path}"
                    )
                };

                let dflt = default_context()
                    .try_herk_c32(tri, op_a, &a, alpha, beta, &c)
                    .unwrap();
                assert_bits_c32(&dflt.d, &want, &tag("default ctx"));
                for i in 0..n {
                    assert_eq!(
                        dflt.d.get(i, i).im.to_bits(),
                        0.0f32.to_bits(),
                        "{}: diagonal {i} must be exactly real (+0.0 imaginary)",
                        tag("default ctx")
                    );
                }

                let (t, ctx) = &ctxs[(case + pi) % ctxs.len()];
                let r = ctx.try_herk_c32(tri, op_a, &a, alpha, beta, &c).unwrap();
                assert_bits_c32(&r.d, &want, &tag(&format!("ctx[{t}]")));
                assert_eq!(r.stats, dflt.stats, "{}", tag(&format!("ctx[{t}]")));

                if (case + ti + pi) % 4 == 0 {
                    for (label, serve) in &serves {
                        let r = serve
                            .submit_herk_c32(
                                "prop",
                                tri,
                                op_a,
                                a.clone(),
                                alpha,
                                beta,
                                c.clone(),
                                SubmitOpts::default(),
                            )
                            .and_then(|t| t.wait())
                            .unwrap();
                        let path = format!("serve[{label}]");
                        assert_bits_c32(&r.d, &want, &tag(&path));
                        assert_eq!(r.stats, dflt.stats, "{}", tag(&path));
                    }
                }
            }
        }
    }
}

#[test]
fn symm_and_hemm_match_mirror_materialized_oracle_bits() {
    let serves = serve_fleet();
    let ctxs: Vec<(usize, M3xuContext)> = THREAD_COUNTS
        .iter()
        .map(|&t| (t, M3xuContext::with_threads(t)))
        .collect();
    let grid = scalars_c32();
    let sides = [Side::Left, Side::Right];
    for (case, &(nsq, _, nb)) in shapes().iter().enumerate() {
        for (si, &side) in sides.iter().enumerate() {
            for (ti, &tri) in TRIS.iter().enumerate() {
                let seed = (case * 61 + si * 3 + ti) as u64;
                let precision = F32_ENGINES[(case + si + ti) % F32_ENGINES.len()];
                let alpha = SCALARS_F32[(case + si) % 5];
                let beta = SCALARS_F32[(case + ti + 3) % 5];
                let a = Matrix::<f32>::random(nsq, nsq, seed * 3 + 1);
                let (br, bc) = match side {
                    Side::Left => (nsq, nb),
                    Side::Right => (nb, nsq),
                };
                let b = Matrix::<f32>::random(br, bc, seed * 3 + 2);
                let c = Matrix::<f32>::random(br, bc, seed * 3 + 3);
                let sym = MirrorView::new(&a, tri, false).materialize();
                let (l, r_op) = match side {
                    Side::Left => (&sym, &b),
                    Side::Right => (&b, &sym),
                };
                let want = oracle_f32(
                    precision,
                    &fold_alpha_f32(alpha, l),
                    r_op,
                    &fold_beta_f32(beta, &c),
                );
                let tag = |path: &str| {
                    format!("case {case} SYMM n={nsq} {side:?} {tri:?} {precision:?} via {path}")
                };

                let dflt = default_context()
                    .try_symm_f32(precision, side, tri, &a, &b, alpha, beta, &c)
                    .unwrap();
                assert_bits_f32(&dflt.d, &want.d, &tag("default ctx"));
                assert_eq!(dflt.stats, want.stats, "{}", tag("default ctx"));

                let (t, ctx) = &ctxs[(case + si + ti) % ctxs.len()];
                let r = ctx
                    .try_symm_f32(precision, side, tri, &a, &b, alpha, beta, &c)
                    .unwrap();
                assert_bits_f32(&r.d, &want.d, &tag(&format!("ctx[{t}]")));

                // HEMM on the same geometry.
                let za = Matrix::random_c32(nsq, nsq, seed * 3 + 4);
                let zb = Matrix::random_c32(br, bc, seed * 3 + 5);
                let zc = Matrix::random_c32(br, bc, seed * 3 + 6);
                let zalpha = grid[(case + si + 1) % 5];
                let zbeta = grid[(case + ti + 2) % 5];
                let herm = MirrorView::new(&za, tri, true).materialize();
                let (zl, zr) = match side {
                    Side::Left => (&herm, &zb),
                    Side::Right => (&zb, &herm),
                };
                let zwant = gemm::baseline::cgemm_c32(
                    &fold_alpha_c32(zalpha, zl),
                    zr,
                    &fold_beta_c32(zbeta, &zc),
                );
                let ztag =
                    |path: &str| format!("case {case} HEMM n={nsq} {side:?} {tri:?} via {path}");
                let zdflt = default_context()
                    .try_hemm_c32(side, tri, &za, &zb, zalpha, zbeta, &zc)
                    .unwrap();
                assert_bits_c32(&zdflt.d, &zwant.d, &ztag("default ctx"));
                assert_eq!(zdflt.stats, zwant.stats, "{}", ztag("default ctx"));
                let zr2 = ctx
                    .try_hemm_c32(side, tri, &za, &zb, zalpha, zbeta, &zc)
                    .unwrap();
                assert_bits_c32(&zr2.d, &zwant.d, &ztag(&format!("ctx[{t}]")));

                if (case + si + ti) % 5 == 0 {
                    for (label, serve) in &serves {
                        let r = serve
                            .submit_symm_f32(
                                "prop",
                                precision,
                                side,
                                tri,
                                a.clone(),
                                b.clone(),
                                alpha,
                                beta,
                                c.clone(),
                                SubmitOpts::default(),
                            )
                            .and_then(|t| t.wait())
                            .unwrap();
                        assert_bits_f32(&r.d, &want.d, &tag(&format!("serve[{label}]")));
                        let zr3 = serve
                            .submit_hemm_c32(
                                "prop",
                                side,
                                tri,
                                za.clone(),
                                zb.clone(),
                                zalpha,
                                zbeta,
                                zc.clone(),
                                SubmitOpts::default(),
                            )
                            .and_then(|t| t.wait())
                            .unwrap();
                        assert_bits_c32(&zr3.d, &zwant.d, &ztag(&format!("serve[{label}]")));
                    }
                }
            }
        }
    }
}

#[test]
fn shape_generators_are_deterministic_and_cover_edges() {
    let s1 = shapes();
    assert_eq!(s1, shapes(), "shape stream must be deterministic");
    assert!(s1.iter().any(|&(m, _, _)| m == 0));
    assert!(s1.iter().any(|&(_, k, _)| k == 0));
    assert!(s1.iter().any(|&(_, _, n)| n == 0));
    assert!(s1.contains(&(1, 1, 1)));
    assert!(s1.contains(&(23, 29, 31)), "prime shape present");
    let r1 = rank_shapes();
    assert_eq!(r1, rank_shapes(), "rank-k stream must be deterministic");
    assert!(r1.contains(&(0, 8)) && r1.contains(&(8, 0)) && r1.contains(&(1, 1)));
    assert!(
        r1.iter().any(|&(n, k)| n % 8 != 0 && k % 4 != 0),
        "tile-straddling rank-k shape present"
    );
    // The scalar grids really carry a denormal (fold must not flush it).
    const {
        assert!(DENORM_F32 > 0.0 && DENORM_F32 < f32::MIN_POSITIVE);
        assert!(DENORM_F64 > 0.0 && DENORM_F64 < f64::MIN_POSITIVE);
    }
}
