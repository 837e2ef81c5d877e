//! Cross-validation of the functional M3XU against the analytical model.
//!
//! The tentpole contract of the execution context: the `ExecStats` a
//! *functional* GEMM records must match, exactly, the instruction/step/
//! traffic counts `m3xu_gpu::validate` derives analytically from the same
//! `Problem` — including the §V-B1 headline ratios (M3XU FP32 = 2x, FP32C
//! = 4x the FP16 kernel's MMAs) as executed assertions, and bit-identical
//! outputs to the unfused baseline driver throughout.

use m3xu::gpu::{exact_counts, validate_counts, Engine, ExactCounts, Problem};
use m3xu::kernels::gemm::{self, GemmPrecision};
use m3xu::kernels::M3xuContext;
use m3xu::mxu::modes::MxuMode;
use m3xu::serve::{M3xuServe, ServeConfig, SubmitOpts};
use m3xu::Matrix;

/// The size grid: aligned squares, non-square, non-multiple-of-tile,
/// degenerate-thin, and k not a multiple of any fragment depth.
const GRID: [(usize, usize, usize); 9] = [
    (8, 8, 8),
    (64, 64, 64),
    (96, 40, 72),
    (128, 32, 64),
    (16, 4, 48),
    (37, 19, 23),
    (33, 17, 20),
    (5, 64, 3),
    (64, 1, 64),
];

fn observed(ctx: &M3xuContext, mode: MxuMode) -> ExactCounts {
    let s = ctx.stats();
    let m = s.mode(mode);
    ExactCounts {
        instructions: m.instructions,
        steps: m.steps,
        operand_bytes: s.operand_bytes,
    }
}

#[test]
fn functional_real_gemm_matches_analytical_counts_exactly() {
    for &(m, n, k) in &GRID {
        for (precision, engine, mode) in [
            (GemmPrecision::Fp16, Engine::TensorFp16, MxuMode::Fp16),
            (GemmPrecision::Bf16, Engine::TensorBf16, MxuMode::Bf16),
            (GemmPrecision::Tf32, Engine::TensorTf32, MxuMode::Tf32),
            (GemmPrecision::M3xuFp32, Engine::M3xuFp32, MxuMode::M3xuFp32),
        ] {
            let ctx = M3xuContext::with_threads(2);
            let a = Matrix::<f32>::random(m, k, (m + k) as u64);
            let b = Matrix::<f32>::random(k, n, (k + n) as u64);
            let c = Matrix::<f32>::random(m, n, (m * n) as u64);
            let r = ctx.try_gemm_f32(precision, &a, &b, &c).unwrap();

            let p = Problem {
                m,
                n,
                k,
                complex: false,
            };
            let got = observed(&ctx, mode);
            // The result reports the mode and operand bytes it recorded.
            assert_eq!(r.mode, mode, "{m}x{n}x{k} {engine:?}");
            assert_eq!(r.operand_bytes, got.operand_bytes, "{m}x{n}x{k} {engine:?}");
            match validate_counts(p, engine, got).expect("combination must be modelled") {
                Ok(want) => {
                    // The driver's own per-call stats agree with the sink.
                    assert_eq!(r.stats.instructions, want.instructions);
                    assert_eq!(r.stats.steps, want.steps);
                }
                Err(e) => panic!("{m}x{n}x{k} {engine:?}: {e}"),
            }

            // Outputs stay bit-identical to the unfused baseline driver.
            let base = gemm::baseline::gemm_f32(precision, &a, &b, &c);
            for (x, y) in r.d.as_slice().iter().zip(base.d.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{m}x{n}x{k} {engine:?}");
            }
        }
    }
}

#[test]
fn precision_family_matches_analytical_counts_exactly() {
    // The N-slice precision family: the truncated fast-FP32 schedule and
    // the 5-slice emulated-FP64 engine. Neither has a baseline tile
    // executor (the packed driver is their only engine), so the contract
    // here is purely analytical: executed ExecStats must equal the
    // derived instruction/step/traffic counts on every grid shape.
    for &(m, n, k) in &GRID {
        let p = Problem {
            m,
            n,
            k,
            complex: false,
        };

        let ctx = M3xuContext::with_threads(2);
        let a = Matrix::<f32>::random(m, k, (m + k) as u64);
        let b = Matrix::<f32>::random(k, n, (k + n) as u64);
        let c = Matrix::<f32>::random(m, n, (m * n) as u64);
        let r = ctx
            .try_gemm_f32(GemmPrecision::Fp32Fast, &a, &b, &c)
            .unwrap();
        let got = observed(&ctx, MxuMode::M3xuFp32Fast);
        assert_eq!(r.mode, MxuMode::M3xuFp32Fast);
        assert_eq!(
            r.operand_bytes, got.operand_bytes,
            "{m}x{n}x{k} M3xuFp32Fast"
        );
        match validate_counts(p, Engine::M3xuFp32Fast, got).expect("fast FP32 must be modelled") {
            Ok(want) => {
                assert_eq!(r.stats.instructions, want.instructions);
                assert_eq!(r.stats.steps, want.steps);
            }
            Err(e) => panic!("{m}x{n}x{k} M3xuFp32Fast: {e}"),
        }

        let ctx = M3xuContext::with_threads(2);
        let a = Matrix::<f64>::random_f64(m, k, (m + k) as u64);
        let b = Matrix::<f64>::random_f64(k, n, (k + n) as u64);
        let c = Matrix::<f64>::random_f64(m, n, (m * n) as u64);
        let r = ctx
            .try_gemm_f64(GemmPrecision::Fp64Emulated, &a, &b, &c)
            .unwrap();
        let got = observed(&ctx, MxuMode::M3xuFp64Emu);
        assert_eq!(r.mode, MxuMode::M3xuFp64Emu);
        assert_eq!(
            r.operand_bytes, got.operand_bytes,
            "{m}x{n}x{k} M3xuFp64Emu"
        );
        match validate_counts(p, Engine::M3xuFp64Emu, got).expect("emulated FP64 must be modelled")
        {
            Ok(want) => {
                assert_eq!(r.stats.instructions, want.instructions);
                assert_eq!(r.stats.steps, want.steps);
            }
            Err(e) => panic!("{m}x{n}x{k} M3xuFp64Emu: {e}"),
        }
    }
}

#[test]
fn functional_complex_gemm_matches_analytical_counts_exactly() {
    for &(m, n, k) in &GRID {
        let ctx = M3xuContext::with_threads(2);
        let a = Matrix::random_c32(m, k, (m + k) as u64);
        let b = Matrix::random_c32(k, n, (k + n) as u64);
        let c = Matrix::random_c32(m, n, (m * n) as u64);
        let r = ctx.try_cgemm_c32(&a, &b, &c).unwrap();

        let p = Problem {
            m,
            n,
            k,
            complex: true,
        };
        let got = observed(&ctx, MxuMode::M3xuFp32c);
        assert_eq!(r.mode, MxuMode::M3xuFp32c);
        assert_eq!(r.operand_bytes, got.operand_bytes, "{m}x{n}x{k} FP32C");
        match validate_counts(p, Engine::M3xuFp32c, got).expect("FP32C must be modelled") {
            Ok(want) => assert_eq!(r.stats.instructions, want.instructions),
            Err(e) => panic!("{m}x{n}x{k} FP32C: {e}"),
        }

        let base = gemm::baseline::cgemm_c32(&a, &b, &c);
        for (x, y) in r.d.as_slice().iter().zip(base.d.as_slice()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "{m}x{n}x{k} FP32C re");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "{m}x{n}x{k} FP32C im");
        }
    }
}

#[test]
fn rule_b_and_c_ratios_hold_as_executed() {
    // §V-B1 headline: on shapes where k is a multiple of every fragment
    // depth, M3XU FP32 executes exactly 2x — and FP32C exactly 4x — the
    // FP16 kernel's MMA instructions, with matching 2x / 4x operand-byte
    // ratios. Measured from real executions, not from the model.
    for &(m, n, k) in &[(64usize, 64usize, 64usize), (96, 40, 72), (16, 4, 48)] {
        assert_eq!(k % 4, 0, "grid invariant: k divisible by every frag depth");
        let run_real = |precision: GemmPrecision, mode: MxuMode| {
            let ctx = M3xuContext::with_threads(2);
            let a = Matrix::<f32>::random(m, k, 1);
            let b = Matrix::<f32>::random(k, n, 2);
            let c = Matrix::<f32>::zeros(m, n);
            ctx.try_gemm_f32(precision, &a, &b, &c).unwrap();
            observed(&ctx, mode)
        };
        let fp16 = run_real(GemmPrecision::Fp16, MxuMode::Fp16);
        let fp32 = run_real(GemmPrecision::M3xuFp32, MxuMode::M3xuFp32);

        let cctx = M3xuContext::with_threads(2);
        let ca = Matrix::random_c32(m, k, 3);
        let cb = Matrix::random_c32(k, n, 4);
        let cc = Matrix::zeros(m, n);
        cctx.try_cgemm_c32(&ca, &cb, &cc).unwrap();
        let fp32c = observed(&cctx, MxuMode::M3xuFp32c);

        assert_eq!(fp32.instructions, 2 * fp16.instructions, "{m}x{n}x{k}");
        assert_eq!(fp32c.instructions, 4 * fp16.instructions, "{m}x{n}x{k}");
        assert_eq!(fp32.operand_bytes, 2 * fp16.operand_bytes, "{m}x{n}x{k}");
        assert_eq!(fp32c.operand_bytes, 4 * fp16.operand_bytes, "{m}x{n}x{k}");
    }
}

#[test]
fn concurrent_hammering_sums_to_exact_analytical_counts() {
    // 8 client threads hammer one shared context and one shared service.
    // Two contracts under contention: (1) every result stays bit-identical
    // to the serial baseline oracle; (2) once quiesced, the shared
    // ExecStats totals equal the *sum* of per-request analytical
    // `exact_counts` — i.e. the relaxed-atomic sink loses nothing.
    const CLIENTS: usize = 8;
    const SHAPES: [(usize, usize, usize); 4] = [(16, 16, 16), (9, 7, 17), (33, 5, 12), (24, 8, 40)];

    let ctx = M3xuContext::with_threads(2);
    let serve = M3xuServe::new(ServeConfig {
        shards: 2,
        workers: 2,
        queue_capacity: 256,
        ..ServeConfig::default()
    });
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let ctx = &ctx;
            let serve = &serve;
            s.spawn(move || {
                for (i, &(m, n, k)) in SHAPES.iter().enumerate() {
                    let seed = (client * 10 + i) as u64;
                    let a = Matrix::<f32>::random(m, k, seed + 1);
                    let b = Matrix::<f32>::random(k, n, seed + 2);
                    let c = Matrix::<f32>::random(m, n, seed + 3);
                    let want = gemm::baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
                    let via_ctx = ctx
                        .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
                        .unwrap();
                    let via_serve = serve
                        .submit_gemm_f32(
                            &format!("client-{client}"),
                            GemmPrecision::M3xuFp32,
                            a.clone(),
                            b.clone(),
                            c.clone(),
                            SubmitOpts::default(),
                        )
                        .and_then(|t| t.wait())
                        .unwrap();
                    for (got, tag) in [(&via_ctx, "ctx"), (&via_serve, "serve")] {
                        for (x, y) in got.d.as_slice().iter().zip(want.d.as_slice()) {
                            assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "client {client} {m}x{n}x{k} via {tag}"
                            );
                        }
                    }

                    let ca = Matrix::random_c32(m, k, seed + 4);
                    let cb = Matrix::random_c32(k, n, seed + 5);
                    let cc = Matrix::random_c32(m, n, seed + 6);
                    let cwant = gemm::baseline::cgemm_c32(&ca, &cb, &cc);
                    let cgot = ctx.try_cgemm_c32(&ca, &cb, &cc).unwrap();
                    for (x, y) in cgot.d.as_slice().iter().zip(cwant.d.as_slice()) {
                        assert_eq!(x.re.to_bits(), y.re.to_bits());
                        assert_eq!(x.im.to_bits(), y.im.to_bits());
                    }
                }
            });
        }
    });

    // Analytical expectation: each shape ran once per client on each of
    // the real-GEMM sinks (context, service) and once as FP32C on the
    // context alone.
    let zero = ExactCounts {
        instructions: 0,
        steps: 0,
        operand_bytes: 0,
    };
    let (mut want_fp32, mut want_fp32c) = (zero, zero);
    for &(m, n, k) in &SHAPES {
        let real = exact_counts(
            Problem {
                m,
                n,
                k,
                complex: false,
            },
            Engine::M3xuFp32,
        )
        .unwrap();
        let cplx = exact_counts(
            Problem {
                m,
                n,
                k,
                complex: true,
            },
            Engine::M3xuFp32c,
        )
        .unwrap();
        for _ in 0..CLIENTS {
            want_fp32.instructions += real.instructions;
            want_fp32.steps += real.steps;
            want_fp32.operand_bytes += real.operand_bytes;
            want_fp32c.instructions += cplx.instructions;
            want_fp32c.steps += cplx.steps;
            want_fp32c.operand_bytes += cplx.operand_bytes;
        }
    }

    let ctx_stats = ctx.stats();
    assert_eq!(ctx_stats.gemm_calls as usize, CLIENTS * SHAPES.len() * 2);
    assert_eq!(
        ctx_stats.mode(MxuMode::M3xuFp32).instructions,
        want_fp32.instructions
    );
    assert_eq!(ctx_stats.mode(MxuMode::M3xuFp32).steps, want_fp32.steps);
    assert_eq!(
        ctx_stats.mode(MxuMode::M3xuFp32c).instructions,
        want_fp32c.instructions
    );
    assert_eq!(ctx_stats.mode(MxuMode::M3xuFp32c).steps, want_fp32c.steps);
    assert_eq!(
        ctx_stats.operand_bytes,
        want_fp32.operand_bytes + want_fp32c.operand_bytes
    );

    // The service saw one FP32 pass: its shards' summed sinks and its
    // per-tenant accounting must both reproduce the same analytical
    // totals — the conservation law surviving sharding.
    let serve_stats = serve.exec_stats();
    assert_eq!(serve_stats.gemm_calls as usize, CLIENTS * SHAPES.len());
    assert_eq!(
        serve_stats.mode(MxuMode::M3xuFp32).instructions,
        want_fp32.instructions
    );
    assert_eq!(serve_stats.operand_bytes, want_fp32.operand_bytes);
    // exec_stats() is defined as the fold of per-shard stats; re-derive
    // it by hand so a future refactor can't silently drop a shard.
    let mut by_shard_instructions = 0u64;
    let mut by_shard_calls = 0u64;
    for shard in 0..serve.shard_count() {
        let s = serve.shard_stats(shard).unwrap();
        by_shard_instructions += s.mode(MxuMode::M3xuFp32).instructions;
        by_shard_calls += s.gemm_calls;
    }
    assert_eq!(by_shard_calls, serve_stats.gemm_calls);
    assert_eq!(by_shard_instructions, want_fp32.instructions);
    let tenants = serve.total_stats();
    assert_eq!(tenants.completed, serve_stats.gemm_calls);
    assert_eq!(tenants.mma_instructions, want_fp32.instructions);
    assert_eq!(tenants.mma_steps, want_fp32.steps);
    assert_eq!(tenants.operand_bytes, want_fp32.operand_bytes);
    // Conservation law and the retry-time split: nothing was retried, so
    // every nanosecond of execution is exec_ns and retry_ns stays zero.
    assert_eq!(
        tenants.submitted,
        tenants.completed + tenants.rejected + tenants.deadline_missed + tenants.exec_errors
    );
    assert_eq!(tenants.retry_ns, 0);
    assert_eq!(serve.tenants().len(), CLIENTS);
}

#[test]
fn blas3_op_gemm_and_symm_match_analytical_counts_exactly() {
    // The BLAS-3 surface packs straight from op(X) views and folds
    // alpha/beta without extra traffic, so its ExecStats must equal the
    // *plain* GEMM's analytical counts at the logical (post-op)
    // dimensions on every grid shape.
    use m3xu::{MatOp, Side, Triangle};
    let ops = [
        (MatOp::N, MatOp::T),
        (MatOp::T, MatOp::N),
        (MatOp::H, MatOp::H),
    ];
    for (gi, &(m, n, k)) in GRID.iter().enumerate() {
        let (op_a, op_b) = ops[gi % ops.len()];
        let stored = |op: MatOp, r: usize, c: usize| match op {
            MatOp::N => (r, c),
            _ => (c, r),
        };
        let (ar, ac) = stored(op_a, m, k);
        let (br, bc) = stored(op_b, k, n);
        let p = Problem {
            m,
            n,
            k,
            complex: false,
        };
        for (precision, engine, mode) in [
            (GemmPrecision::Fp16, Engine::TensorFp16, MxuMode::Fp16),
            (GemmPrecision::Tf32, Engine::TensorTf32, MxuMode::Tf32),
            (GemmPrecision::M3xuFp32, Engine::M3xuFp32, MxuMode::M3xuFp32),
        ] {
            let ctx = M3xuContext::with_threads(2);
            let a = Matrix::<f32>::random(ar, ac, (m + k) as u64);
            let b = Matrix::<f32>::random(br, bc, (k + n) as u64);
            let c = Matrix::<f32>::random(m, n, (m * n) as u64);
            let r = ctx
                .try_gemm_op_f32(precision, op_a, &a, op_b, &b, 0.5, -1.0, &c)
                .unwrap();
            let got = observed(&ctx, mode);
            assert_eq!(r.mode, mode, "op-gemm {m}x{n}x{k} {engine:?}");
            assert_eq!(r.operand_bytes, got.operand_bytes, "op-gemm {m}x{n}x{k}");
            match validate_counts(p, engine, got).expect("combination must be modelled") {
                Ok(want) => {
                    assert_eq!(r.stats.instructions, want.instructions);
                    assert_eq!(r.stats.steps, want.steps);
                }
                Err(e) => panic!("op-gemm {m}x{n}x{k} {engine:?}: {e}"),
            }
        }

        // Complex op-GEMM against the FP32C engine.
        let ctx = M3xuContext::with_threads(2);
        let a = Matrix::random_c32(ar, ac, (m + k) as u64);
        let b = Matrix::random_c32(br, bc, (k + n) as u64);
        let c = Matrix::random_c32(m, n, (m * n) as u64);
        let r = ctx
            .try_cgemm_op_c32(
                op_a,
                &a,
                op_b,
                &b,
                m3xu::Complex::new(0.5, -0.25),
                m3xu::Complex::new(-1.0, 0.0),
                &c,
            )
            .unwrap();
        let cp = Problem {
            m,
            n,
            k,
            complex: true,
        };
        let got = observed(&ctx, MxuMode::M3xuFp32c);
        assert_eq!(r.mode, MxuMode::M3xuFp32c);
        assert_eq!(r.operand_bytes, got.operand_bytes, "cgemm-op {m}x{n}x{k}");
        match validate_counts(cp, Engine::M3xuFp32c, got).expect("FP32C must be modelled") {
            Ok(want) => assert_eq!(r.stats.instructions, want.instructions),
            Err(e) => panic!("cgemm-op {m}x{n}x{k}: {e}"),
        }

        // SYMM/HEMM expand the mirror at pack time: counts equal the
        // plain GEMM's at the expanded square-times-dense dimensions.
        let (side, tri) = if gi % 2 == 0 {
            (Side::Left, Triangle::Lower)
        } else {
            (Side::Right, Triangle::Upper)
        };
        let nsq = match side {
            Side::Left => m,
            Side::Right => n,
        };
        let sp = Problem {
            m,
            n,
            k: nsq,
            complex: false,
        };
        let ctx = M3xuContext::with_threads(2);
        let sa = Matrix::<f32>::random(nsq, nsq, gi as u64 + 1);
        let (sb, sc) = (
            Matrix::<f32>::random(m, n, gi as u64 + 2),
            Matrix::<f32>::random(m, n, gi as u64 + 3),
        );
        let r = ctx
            .try_symm_f32(GemmPrecision::M3xuFp32, side, tri, &sa, &sb, 1.5, 0.5, &sc)
            .unwrap();
        let got = observed(&ctx, MxuMode::M3xuFp32);
        // Side-dependent traffic: the expanded square operand on its side.
        assert_eq!(r.mode, MxuMode::M3xuFp32);
        assert_eq!(
            r.operand_bytes, got.operand_bytes,
            "symm {m}x{n} (nsq={nsq})"
        );
        match validate_counts(sp, Engine::M3xuFp32, got).expect("SYMM must be modelled") {
            Ok(want) => {
                assert_eq!(r.stats.instructions, want.instructions);
                assert_eq!(r.stats.steps, want.steps);
            }
            Err(e) => panic!("symm {m}x{n} (nsq={nsq}): {e}"),
        }
    }
}

#[test]
fn rank_k_updates_match_analytical_counts_and_halve_the_grid_executed() {
    // SYRK/HERK schedule only the T(T+1)/2 triangle tiles of the TxT
    // output grid. The analytical `exact_counts_rank_k` must predict the
    // executed ExecStats exactly, and the saving over the equivalent
    // full op-GEMM must hold as an executed instruction ratio — exactly
    // proportional to the tile counts, approaching 2x as n grows.
    use m3xu::gpu::exact_counts_rank_k;
    use m3xu::{MatOp, Triangle};
    for (gi, &(n, _, k)) in GRID.iter().enumerate() {
        let tri = if gi % 2 == 0 {
            Triangle::Lower
        } else {
            Triangle::Upper
        };
        let p = Problem {
            m: n,
            n,
            k,
            complex: false,
        };

        // SYRK: functional == analytical, field by field.
        let ctx = M3xuContext::with_threads(2);
        let a = Matrix::<f32>::random(n, k, (n + k) as u64);
        let c = Matrix::<f32>::random(n, n, (n * n) as u64);
        let r = ctx
            .try_syrk_f32(GemmPrecision::M3xuFp32, tri, MatOp::N, &a, 1.0, 1.0, &c)
            .unwrap();
        let got = observed(&ctx, MxuMode::M3xuFp32);
        let want = exact_counts_rank_k(p, Engine::M3xuFp32).expect("square rank-k is modelled");
        assert_eq!(got.instructions, want.instructions, "syrk n={n} k={k}");
        assert_eq!(got.steps, want.steps, "syrk n={n} k={k}");
        assert_eq!(got.operand_bytes, want.operand_bytes, "syrk n={n} k={k}");
        assert_eq!(r.stats.instructions, want.instructions);
        assert_eq!(r.mode, MxuMode::M3xuFp32);
        assert_eq!(r.operand_bytes, got.operand_bytes, "syrk n={n} k={k}");

        // HERK on the FP32C engine.
        let zctx = M3xuContext::with_threads(2);
        let za = Matrix::random_c32(n, k, (n + k) as u64 + 7);
        let zc = Matrix::random_c32(n, n, (n * n) as u64 + 7);
        let zr = zctx
            .try_herk_c32(tri, MatOp::N, &za, 1.0, 0.0, &zc)
            .unwrap();
        let zgot = observed(&zctx, MxuMode::M3xuFp32c);
        let zp = Problem {
            m: n,
            n,
            k,
            complex: true,
        };
        let zwant = exact_counts_rank_k(zp, Engine::M3xuFp32c).expect("complex rank-k is modelled");
        assert_eq!(zgot.instructions, zwant.instructions, "herk n={n} k={k}");
        assert_eq!(zgot.steps, zwant.steps, "herk n={n} k={k}");
        assert_eq!(zgot.operand_bytes, zwant.operand_bytes, "herk n={n} k={k}");
        assert_eq!(zr.stats.instructions, zwant.instructions);
        assert_eq!(zr.mode, MxuMode::M3xuFp32c);
        assert_eq!(zr.operand_bytes, zgot.operand_bytes, "herk n={n} k={k}");

        // Executed saving vs the equivalent full GEMM (same logical
        // n x k x n problem through the op-GEMM path).
        let fctx = M3xuContext::with_threads(2);
        let f = fctx
            .try_gemm_op_f32(
                GemmPrecision::M3xuFp32,
                MatOp::N,
                &a,
                MatOp::T,
                &a,
                1.0,
                1.0,
                &c,
            )
            .unwrap();
        let t = n.div_ceil(8) as u64;
        let (tri_tiles, full_tiles) = (t * (t + 1) / 2, t * t);
        assert_eq!(
            r.stats.instructions * full_tiles,
            f.stats.instructions * tri_tiles,
            "n={n} k={k}: rank-k instructions must scale exactly with the tile grids"
        );
        if n >= 64 {
            let ratio = f.stats.instructions as f64 / r.stats.instructions as f64;
            assert!(
                ratio > 1.7,
                "n={n}: expected near-2x instruction saving, got {ratio:.3}x"
            );
        }
        // The in-triangle bits agree between the two paths, tile
        // scheduling aside.
        for i in 0..n {
            for j in 0..n {
                if tri.contains(i, j) {
                    assert_eq!(
                        r.d.get(i, j).to_bits(),
                        f.d.get(i, j).to_bits(),
                        "n={n} ({i},{j})"
                    );
                }
            }
        }
    }
}

#[test]
fn wall_time_counters_are_nonzero_and_monotone() {
    // Regression guard for the pack/exec wall-time sinks: a substantial
    // GEMM must record nonzero time in both phases, and the counters only
    // ever grow (see the relaxed-ordering caveat on `M3xuContext::stats`).
    let n = if cfg!(debug_assertions) { 128 } else { 512 };
    let ctx = M3xuContext::with_threads(2);
    let a = Matrix::<f32>::random(n, n, 1);
    let b = Matrix::<f32>::random(n, n, 2);
    let c = Matrix::<f32>::zeros(n, n);
    ctx.try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
        .unwrap();
    let s1 = ctx.stats();
    assert!(s1.pack_ns > 0, "{n}^3 GEMM recorded zero pack time");
    assert!(s1.exec_ns > 0, "{n}^3 GEMM recorded zero exec time");

    let a2 = Matrix::<f32>::random(64, 64, 3);
    let b2 = Matrix::<f32>::random(64, 64, 4);
    let c2 = Matrix::<f32>::zeros(64, 64);
    ctx.try_gemm_f32(GemmPrecision::M3xuFp32, &a2, &b2, &c2)
        .unwrap();
    let s2 = ctx.stats();
    assert!(s2.pack_ns > s1.pack_ns, "pack_ns must be strictly monotone");
    assert!(s2.exec_ns > s1.exec_ns, "exec_ns must be strictly monotone");
    let d = s2.delta_since(&s1);
    assert_eq!(d.gemm_calls, 1);
    assert!(d.pack_ns > 0 && d.exec_ns > 0);
}

#[test]
fn higher_level_kernels_flow_into_the_same_sink() {
    // A kernel routed through a context (here the GEMM-formulated FFT)
    // must meter every internal CGEMM against the analytical model: the
    // sink's FP32C instruction, step and traffic totals are the sums of
    // the exact counts of the FFT's level shapes — one `F_16 x [16 x N/16]`
    // CGEMM per split level, then one `F_n x [n x N/n]` base case.
    for n in [2usize, 16, 64, 4096] {
        let ctx = M3xuContext::with_threads(2);
        let x: Vec<m3xu::C32> = (0..n)
            .map(|i| m3xu::Complex::new((i as f32 * 0.11).sin(), (i as f32 * 0.07).cos()))
            .collect();
        let (_, stats) = ctx.try_gemm_fft(&x).unwrap();
        let mut levels = Vec::new();
        let mut len = n;
        while len > 16 {
            levels.push((16, n / 16, 16));
            len /= 16;
        }
        levels.push((len, n / len, len));
        let mut want = ExactCounts {
            instructions: 0,
            steps: 0,
            operand_bytes: 0,
        };
        for &(m, cols, k) in &levels {
            let c = exact_counts(
                Problem {
                    m,
                    n: cols,
                    k,
                    complex: true,
                },
                Engine::M3xuFp32c,
            )
            .unwrap();
            want.instructions += c.instructions;
            want.steps += c.steps;
            want.operand_bytes += c.operand_bytes;
        }
        let s = ctx.stats();
        assert_eq!(s.gemm_calls, levels.len() as u64, "n = {n}");
        assert_eq!(observed(&ctx, MxuMode::M3xuFp32c), want, "n = {n}");
        assert_eq!(stats.instructions, want.instructions, "n = {n}");
    }
}

/// Element-chunks in fragment rows the quick tier refuses in one
/// 4,096-point GEMM-FFT of the signal below, at every vector level.
const FFT_QUICK_REFUSALS: u64 = 67_056;

#[test]
fn simd_fallbacks_are_counted_per_element_chunk() {
    // Every element-chunk a SIMD panel executes is counted once: on the
    // vector path (`simd_chunks`, by the quick tier or the certified
    // pair), or sent to the scalar oracle (`simd_fallbacks`). Dense random
    // operands and the GEMM-FFT's DFT matrices (whose f32 cos(pi/2) ~
    // 6e-17 puts a product some 2^-54 below the running sum, a two-scale
    // chunk the pair certifies) never leave the vector path; a NaN, or a
    // three-scale near-tie that both vector tiers refuse, does. Beside
    // them, `quick_refusals` counts the element-chunks in fragment rows
    // the quick tier refused: none for random FP32 operands, the rows of
    // the few exact FP32 ties among the random FP32C and fast-FP32 ones
    // (checked calls, on the same tiers, count the same), none for the
    // narrow modes, which start on the exact tier, and a fixed count for the
    // GEMM-FFT, whose ±1 and ±i DFT entries put chunk sums on or beside
    // FP32 ties. `exact_refusals` counts those the exact tier refused:
    // none for FP16, BF16 and TF32 on random operands, whose plain `f64`
    // sums are exact, and a fixed count for a narrow call built to defeat
    // it.
    use m3xu::mxu::packed::simd::{self, SimdLevel};
    let vector = simd::level() != SimdLevel::Scalar;
    let ctx = M3xuContext::with_threads(2);
    let a = Matrix::<f32>::random(64, 64, 11);
    let b = Matrix::<f32>::random(64, 64, 12);
    ctx.try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &Matrix::zeros(64, 64))
        .unwrap();
    let s = ctx.stats();
    // 64 x 64 outputs x 32 two-deep chunks.
    assert_eq!(s.simd_chunks, if vector { 64 * 64 * 32 } else { 0 });
    assert_eq!(
        (s.simd_fallbacks, s.quick_refusals, s.exact_refusals),
        (0, 0, 0)
    );

    let ca = Matrix::random_c32(64, 64, 13);
    let cb = Matrix::random_c32(64, 64, 14);
    ctx.try_cgemm_c32(&ca, &cb, &Matrix::zeros(64, 64)).unwrap();
    let d = ctx.stats().delta_since(&s);
    // 64 x 64 outputs x 64 one-deep chunks. The operands are multiples
    // of 2^-23, so their chunk sums can land exactly on an FP32 midpoint,
    // which the quick tier must refuse: the real part of element (26, 54)
    // at chunk 31 does, and the pair rounds its fragment row.
    assert_eq!(d.simd_chunks, if vector { 64 * 64 * 64 } else { 0 });
    assert_eq!(
        (d.simd_fallbacks, d.quick_refusals),
        (0, if vector { 8 } else { 0 })
    );

    // Checked at fault rate 0, both calls run their chunks on the same
    // panel bodies and tiers with the residue tap on: same bits, and the
    // unchecked calls' delta in every counter (0 at `Scalar`).
    use m3xu::kernels::FaultPlan;
    use std::sync::Arc;
    let armed = M3xuContext::with_threads(2).with_fault_plan(Arc::new(FaultPlan::new(0, 0.0)));
    let unarmed = M3xuContext::with_threads(2);
    let z = Matrix::zeros(64, 64);
    let same_delta = |what: &str, run: &dyn Fn(&M3xuContext) -> Vec<u64>| {
        let (u0, a0) = (unarmed.stats(), armed.stats());
        assert_eq!(run(&unarmed), run(&armed), "{what}: bits");
        let mut du = unarmed.stats().delta_since(&u0);
        let mut da = armed.stats().delta_since(&a0);
        for d in [&mut du, &mut da] {
            (d.pack_ns, d.exec_ns) = (0, 0);
        }
        assert_eq!(da, du, "{what}: counters");
        du
    };
    let bits = |d: &[f32]| d.iter().map(|x| x.to_bits() as u64).collect::<Vec<_>>();
    let du = same_delta("FP32", &|ctx| {
        let r = ctx.try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &z);
        bits(r.unwrap().d.as_slice())
    });
    assert_eq!(
        (
            du.simd_chunks,
            du.simd_fallbacks,
            du.quick_refusals,
            du.exact_refusals
        ),
        (s.simd_chunks, 0, 0, 0)
    );
    let du = same_delta("FP32C", &|ctx| {
        let r = ctx.try_cgemm_c32(&ca, &cb, &Matrix::zeros(64, 64)).unwrap();
        r.d.as_slice()
            .iter()
            .flat_map(|z| [z.re.to_bits() as u64, z.im.to_bits() as u64])
            .collect()
    });
    assert_eq!(
        (du.simd_chunks, du.simd_fallbacks, du.quick_refusals),
        (d.simd_chunks, 0, d.quick_refusals)
    );
    assert_eq!(armed.stats().faults_detected, 0);

    let x: Vec<m3xu::C32> = (0..4096)
        .map(|i| m3xu::Complex::new((i as f32 * 0.13).sin(), (i as f32 * 0.05).cos()))
        .collect();
    let before = ctx.stats();
    ctx.try_gemm_fft(&x).unwrap();
    let f = ctx.stats().delta_since(&before);
    // Three 16 x 256 x 16 CGEMMs, every element-chunk on the vector path,
    // and the same quick-tier refusals at every vector level.
    assert_eq!(f.simd_chunks, if vector { 3 * 16 * 256 * 16 } else { 0 });
    assert_eq!(f.simd_fallbacks, 0);
    assert_eq!(
        f.quick_refusals,
        if vector { FFT_QUICK_REFUSALS } else { 0 }
    );

    // Column 5's first chunk is a three-scale near-tie. Each row's seed
    // is 1 + 2^-23 (from C), and its products are
    // 2^-12(1 - 2^-18) * -2^-12(1 + 2^-18) = -2^-24 + 2^-60 and
    // 2^-65 * 2^-65 = 2^-130, so the exact value sits just above the
    // midpoint 1 + 2^-24. The quick tier's interval around the plain sum
    // holds that midpoint, and the pair's residual 2^-60 + 2^-130 spans
    // 70 bits, more than one f64 holds: each of the 64 rows sends that
    // chunk to the oracle once, then carries on. Column 42 holds a NaN at
    // depth 40: each row stays on the oracle for chunks 20..32. The quick
    // tier refuses the fragment row of each of these element-chunks.
    let (mut aw, mut bw, mut c) = (a.clone(), b.clone(), Matrix::zeros(64, 64));
    for i in 0..64 {
        aw.set(i, 0, 2f32.powi(-12) * (1.0 - 2f32.powi(-18)));
        aw.set(i, 1, 2f32.powi(-65));
        c.set(i, 5, 1.0 + f32::EPSILON);
    }
    bw.set(0, 5, -(2f32.powi(-12) * (1.0 + 2f32.powi(-18))));
    bw.set(1, 5, 2f32.powi(-65));
    bw.set(40, 42, f32::NAN);
    let before = ctx.stats();
    let got = ctx
        .try_gemm_f32(GemmPrecision::M3xuFp32, &aw, &bw, &c)
        .unwrap();
    let w = ctx.stats().delta_since(&before);
    let fallbacks = 64 + 64 * (32 - 20);
    assert_eq!(w.simd_fallbacks, if vector { fallbacks } else { 0 });
    assert_eq!(
        w.simd_chunks,
        if vector { 64 * 64 * 32 - fallbacks } else { 0 }
    );
    assert_eq!(w.quick_refusals, if vector { 8 * fallbacks } else { 0 });
    let want = gemm::baseline::gemm_f32(GemmPrecision::M3xuFp32, &aw, &bw, &c);
    for (x, y) in got.d.as_slice().iter().zip(want.d.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    // The snapshot arithmetic carries the new counters.
    let m = s.merged(&w);
    assert_eq!(
        (m.simd_chunks, m.simd_fallbacks, m.quick_refusals),
        (
            s.simd_chunks + w.simd_chunks,
            w.simd_fallbacks,
            w.quick_refusals
        )
    );
    assert_eq!(w.exact_refusals, 0);

    // The fast FP32 dial runs its truncated products on the same panels:
    // 64 x 64 outputs x 32 two-deep chunks. Dropping `lo_a·lo_b` leaves
    // products of at most 37 bits, so more chunk sums land exactly on an
    // FP32 midpoint: 92 of them, in 91 fragment rows, which the pair
    // rounds.
    let before = ctx.stats();
    ctx.try_gemm_f32(GemmPrecision::Fp32Fast, &a, &b, &Matrix::zeros(64, 64))
        .unwrap();
    let d = ctx.stats().delta_since(&before);
    assert_eq!(d.simd_chunks, if vector { 64 * 64 * 32 } else { 0 });
    assert_eq!(
        (d.simd_fallbacks, d.quick_refusals),
        (0, if vector { 8 * 91 } else { 0 })
    );

    // The narrow modes start on the exact tier, on operands like the
    // benchmark's (uniform in [-1, 1), multiples of 2^-23, C included):
    // every value is then a multiple of 2^-46 below 2^7 in magnitude, so
    // every partial sum holds in 53 bits and no row is refused. FP16 and
    // BF16 run 64 x 64 outputs x 16 four-deep chunks, TF32 x 32 two-deep
    // ones: its 22-bit products often sum exactly onto an FP32 midpoint,
    // which the quick tier would refuse, and which a correctly rounded
    // conversion of the exact sum settles.
    let nc = Matrix::<f32>::random(64, 64, 17);
    for (p, chunks) in [
        (GemmPrecision::Fp16, 16),
        (GemmPrecision::Bf16, 16),
        (GemmPrecision::Tf32, 32),
    ] {
        let before = ctx.stats();
        ctx.try_gemm_f32(p, &a, &b, &nc).unwrap();
        let d = ctx.stats().delta_since(&before);
        assert_eq!(
            d.simd_chunks,
            if vector { 64 * 64 * chunks } else { 0 },
            "{p:?}"
        );
        assert_eq!(
            (d.simd_fallbacks, d.quick_refusals, d.exact_refusals),
            (0, 0, 0),
            "{p:?}"
        );
    }

    // A narrow call built to defeat the exact tier: C's column 5 holds
    // seeds near 2^30 (an ulp of 2^7) beside products near 2^-20 (FP16
    // values near 2^-10, ten fraction bits), whose bits lie more than 53
    // below the seed's, so every chunk's plain sum in that column is
    // inexact and the tier refuses its fragment row: 64 rows x 16 chunks
    // x 8 columns. The pair certifies that two-scale sum, so nothing
    // falls back, and every bit is the Scalar oracle's.
    let small = |m: &Matrix<f32>| Matrix::from_fn(64, 64, |i, j| m.get(i, j) * 2f32.powi(-10));
    let (sa, sb) = (small(&a), small(&b));
    let mut sc = Matrix::<f32>::random(64, 64, 18);
    for i in 0..64 {
        sc.set(i, 5, 2f32.powi(30) + 128.0 * i as f32);
    }
    let before = ctx.stats();
    let got = ctx
        .try_gemm_f32(GemmPrecision::Fp16, &sa, &sb, &sc)
        .unwrap();
    let d = ctx.stats().delta_since(&before);
    assert_eq!(d.simd_chunks, if vector { 64 * 64 * 16 } else { 0 });
    assert_eq!(
        (d.simd_fallbacks, d.quick_refusals, d.exact_refusals),
        (0, 0, if vector { 64 * 16 * 8 } else { 0 })
    );
    let want = gemm::baseline::gemm_f32(GemmPrecision::Fp16, &sa, &sb, &sc);
    for (x, y) in got.d.as_slice().iter().zip(want.d.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }

    // Emulated FP64 runs one FMA per one-deep chunk: 64 x 64 x 64.
    let da = Matrix::<f64>::random_f64(64, 64, 15);
    let db = Matrix::<f64>::random_f64(64, 64, 16);
    let dc = Matrix::<f64>::zeros(64, 64);
    let before = ctx.stats();
    ctx.try_gemm_f64(GemmPrecision::Fp64Emulated, &da, &db, &dc)
        .unwrap();
    let d = ctx.stats().delta_since(&before);
    assert_eq!(d.simd_chunks, if vector { 64 * 64 * 64 } else { 0 });
    assert_eq!((d.simd_fallbacks, d.quick_refusals), (0, 0));

    // Row 3 of A and of C is zero, so every chunk of that row sums to
    // exactly zero: its 64 x 64 chunks take the slice oracle (which
    // rounds an exact-zero sum to +0). B[40][42] is NaN, so column 42's
    // other 63 rows stay on the oracle for depths 40..64.
    let (mut za, mut zc, mut nb) = (da.clone(), dc.clone(), db.clone());
    for k in 0..64 {
        za.set(3, k, 0.0);
        zc.set(3, k, 0.0);
    }
    nb.set(40, 42, f64::NAN);
    let before = ctx.stats();
    let got = ctx
        .try_gemm_f64(GemmPrecision::Fp64Emulated, &za, &nb, &zc)
        .unwrap();
    let w = ctx.stats().delta_since(&before);
    let fallbacks = 64 * 64 + 63 * (64 - 40);
    assert_eq!(w.simd_fallbacks, if vector { fallbacks } else { 0 });
    assert_eq!(
        w.simd_chunks,
        if vector { 64 * 64 * 64 - fallbacks } else { 0 }
    );
    // The Scalar level's bits: the per-chunk slice executor, one-deep
    // chunks over the whole output.
    use m3xu::mxu::dpu::DotProductUnit;
    use m3xu::mxu::packed::PackedOperand;
    let pa = PackedOperand::try_pack_rows_f64(&za, MxuMode::M3xuFp64Emu).unwrap();
    let pb = PackedOperand::try_pack_cols_f64(&nb, MxuMode::M3xuFp64Emu).unwrap();
    let mut want = zc.as_slice().to_vec();
    let mut dpu = DotProductUnit::new();
    for k in 0..64 {
        dpu.mma_f64_into(&pa, &pb, 0, 64, 0, 64, k, 1, &mut want, None);
    }
    for (x, y) in got.d.as_slice().iter().zip(&want) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert!(got.d.get(3, 0).to_bits() == 0 && got.d.get(5, 42).is_nan());
}
