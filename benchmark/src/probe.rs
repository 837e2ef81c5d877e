//! The layer probe a traced run ends with: the packed fragment pipeline
//! (`m3xu-mxu`) timed from outside through its public pack and panel
//! calls, once at the active SIMD level and once at the scalar one, and
//! the references each end-to-end number is read against.

use crate::adapter::{self, Engine, Inputs, Level, Mode, Op, Prec};
use crate::metrics::{metric, Metric};
use crate::stats::median;
use crate::trace::Tracer;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time the panel loop of one (mode, level) runs for.
const PANEL_BUDGET: Duration = Duration::from_millis(25);
/// Repetitions behind each median in the probe.
const REPS: usize = 3;

/// Probe every mode at `n x n x n` and the references at the same shape
/// on `threads` threads. Spans go under a `probe` span when tracing.
pub fn run(
    n: usize,
    seed: u64,
    threads: usize,
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let root = tracer.open("probe", None, 0, Instant::now());
    let mut out = Vec::new();
    let mut frag_active = Vec::new();
    for mode in Mode::ALL {
        let name = mode.name();
        let inputs = Inputs::generate(mode.op(n), seed, 0);
        let mut pack_ns = Vec::new();
        let mut packed = None;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let p = adapter::pack(mode, &inputs)?;
            let t1 = Instant::now();
            tracer.record(format!("probe.pack.{name}"), Some(root), 0, t0, t1);
            pack_ns.push((t1 - t0).as_nanos() as f64 / p.elements() as f64);
            packed = Some(p);
        }
        let packed = packed.expect("REPS > 0");
        let mut frag_ns = [0.0; 2];
        for (i, level) in [Level::Active, Level::Scalar].into_iter().enumerate() {
            frag_ns[i] = adapter::at_level(level, || {
                let t0 = Instant::now();
                let mut frags = 0;
                let mut tile = 0;
                while t0.elapsed() < PANEL_BUDGET || tile < 4 {
                    frags += packed.run_tiles(tile, 1);
                    tile += 1;
                }
                let t1 = Instant::now();
                tracer.record(
                    format!("probe.panel.{name}.{}", level.name()),
                    Some(root),
                    0,
                    t0,
                    t1,
                );
                (t1 - t0).as_nanos() as f64 / frags as f64
            });
        }
        frag_active.push(frag_ns[0]);
        out.push(metric(
            format!("mxu.pack_ns_per_elem.{name}"),
            median(&pack_ns),
            "ns",
        ));
        out.push(metric(format!("mxu.frag_ns.{name}"), frag_ns[0], "ns"));
        out.push(metric(
            format!("mxu.simd_speedup.{name}"),
            frag_ns[1] / frag_ns[0],
            "ratio",
        ));
        out.push(metric(
            format!("model.steps_per_frag.{name}"),
            steps_per_fragment(mode)?,
            "count",
        ));
    }
    out.push(metric(
        "mxu.frag_ratio.fp32c_fp32",
        frag_active[1] / frag_active[0],
        "ratio",
    ));
    out.push(metric(
        "mxu.reconstruct_ratio",
        reconstruct_ratio(n, seed)?,
        "ratio",
    ));
    out.extend(checked_overhead(n.min(128), seed, threads)?);
    out.extend(references(n, seed, threads)?);
    tracer.close(root, Instant::now());
    Ok(out)
}

/// MMA steps per fragment as the context counts them for `mode`.
fn steps_per_fragment(mode: Mode) -> Result<f64, String> {
    let op = mode.op(16);
    let engine = Engine::new(1, false);
    engine.run(op, &Inputs::generate(op, 0, 0))?;
    let c = engine.counters();
    Ok(c.mma_steps as f64 / c.fragments as f64)
}

fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// (pack + every tile's panel) on one thread ÷ a one-thread context
/// GEMM of the same FP32 shape: how much of a call the two pipeline
/// stages explain; the rest is driver overhead.
fn reconstruct_ratio(n: usize, seed: u64) -> Result<f64, String> {
    let op = Op::Gemm(Prec::Fp32, n);
    let inputs = Inputs::generate(op, seed, 0);
    let engine = Engine::new(1, false);
    let mut ratios = Vec::new();
    for _ in 0..REPS {
        let (parts, r) = time(|| -> Result<(), String> {
            let p = adapter::pack(Mode::Fp32, &inputs)?;
            black_box(p.run_tiles(0, p.tiles()));
            Ok(())
        });
        r?;
        let (whole, r) = time(|| engine.run(op, &inputs));
        black_box(r?);
        ratios.push(parts / whole);
    }
    Ok(median(&ratios))
}

/// Checked ÷ unchecked call time for GEMM and CGEMM at `n³`.
fn checked_overhead(n: usize, seed: u64, threads: usize) -> Result<Vec<Metric>, String> {
    let engine = Engine::new(threads, true);
    let mut out = Vec::new();
    for (name, checked, plain) in [
        ("gemm", Op::CheckedGemm(n), Op::Gemm(Prec::Fp32, n)),
        ("cgemm", Op::CheckedCgemm(n), Op::Cgemm(n)),
    ] {
        let inputs = Inputs::generate(checked, seed, 0);
        let mut ratios = Vec::new();
        for _ in 0..REPS {
            let (tc, r) = time(|| engine.run(checked, &inputs));
            black_box(r?);
            let (tp, r) = time(|| engine.run(plain, &inputs));
            black_box(r?);
            ratios.push(tc / tp);
        }
        out.push(metric(
            format!("ctx.checked_overhead.{name}"),
            median(&ratios),
            "ratio",
        ));
    }
    Ok(out)
}

/// Plain native GEMM rates at the probe shape, and what emulation costs
/// against them.
fn references(n: usize, seed: u64, threads: usize) -> Result<Vec<Metric>, String> {
    let engine = Engine::new(threads, false);
    let s_op = Op::Gemm(Prec::Fp32, n);
    let s_in = Inputs::generate(s_op, seed, 0);
    // Emulated FP64 is two orders slower; a smaller cube keeps the
    // probe short.
    let nd = n.min(64);
    let d_op = Op::Dgemm(nd);
    let d_in = Inputs::generate(d_op, seed, 0);
    let (mut ns, mut nd_t, mut es, mut ed) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        ns.push(time(|| black_box(native_f32(&s_in, threads))).0);
        let (t, r) = time(|| engine.run(s_op, &s_in));
        black_box(r?);
        es.push(t);
        nd_t.push(time(|| black_box(native_f64(&d_in, threads))).0);
        let (t, r) = time(|| engine.run(d_op, &d_in));
        black_box(r?);
        ed.push(t);
    }
    let (ns, nd_t, es, ed) = (median(&ns), median(&nd_t), median(&es), median(&ed));
    Ok(vec![
        metric(
            "ref.native_sgemm_gflops",
            s_op.flops() / ns / 1e9,
            "GFLOP/s",
        ),
        metric(
            "ref.native_dgemm_gflops",
            d_op.flops() / nd_t / 1e9,
            "GFLOP/s",
        ),
        metric("ref.emulation_cost.sgemm", es / ns, "ratio"),
        metric("ref.emulation_cost.dgemm", ed / nd_t, "ratio"),
    ])
}

fn native_f32(inputs: &Inputs, threads: usize) -> Vec<f32> {
    match inputs {
        Inputs::Real(a, b, c) => {
            native(a.as_slice(), b.as_slice(), c.as_slice(), a.rows(), threads)
        }
        _ => Vec::new(),
    }
}

fn native_f64(inputs: &Inputs, threads: usize) -> Vec<f64> {
    match inputs {
        Inputs::Double(a, b, c) => {
            native(a.as_slice(), b.as_slice(), c.as_slice(), a.rows(), threads)
        }
        _ => Vec::new(),
    }
}

/// A plain blocked `D = A·B + C` on square row-major `n x n` operands,
/// rows split across `threads` threads: the native baseline emulation is
/// priced against.
fn native<T>(a: &[T], b: &[T], c: &[T], n: usize, threads: usize) -> Vec<T>
where
    T: Copy + Send + Sync + std::ops::Mul<Output = T> + std::ops::AddAssign,
{
    const KB: usize = 64;
    let mut d = c.to_vec();
    let rows_per = n.div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        for (chunk, d_rows) in d.chunks_mut(rows_per * n).enumerate() {
            s.spawn(move || {
                let r0 = chunk * rows_per;
                for k0 in (0..n).step_by(KB) {
                    for (i, d_row) in d_rows.chunks_mut(n).enumerate() {
                        let a_row = &a[(r0 + i) * n..(r0 + i + 1) * n];
                        for k in k0..(k0 + KB).min(n) {
                            let aik = a_row[k];
                            for (dj, &bj) in d_row.iter_mut().zip(&b[k * n..(k + 1) * n]) {
                                *dj += aik * bj;
                            }
                        }
                    }
                }
            });
        }
    });
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_gemm_matches_a_naive_loop() {
        let n = 70;
        let a: Vec<f64> = (0..n * n).map(|i| (i % 7) as f64 - 3.0).collect();
        let b: Vec<f64> = (0..n * n).map(|i| (i % 5) as f64 * 0.5).collect();
        let c: Vec<f64> = (0..n * n).map(|i| (i % 3) as f64).collect();
        let d = native(&a, &b, &c, n, 3);
        for i in 0..n {
            for j in 0..n {
                let want = c[i * n + j] + (0..n).map(|k| a[i * n + k] * b[k * n + j]).sum::<f64>();
                assert_eq!(d[i * n + j], want);
            }
        }
    }
}
