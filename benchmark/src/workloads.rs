//! The four workloads, and the end-to-end and per-layer numbers each run
//! produces. BENCHMARK.md gives the reason for each.

use crate::adapter::{self, Counters, Engine, Inputs, Op, Output, Pending, Prec, Refusal, Service};
use crate::awake::Awake;
use crate::calib::{HostSpeed, WINDOW};
use crate::gen::{Arrival, Arrivals, Mix, TENANTS, VARIANTS};
use crate::metrics::{metric, Metric};
use crate::oracle::References;
use crate::probe;
use crate::stats::{median, percentile, samples_for, sorted};
use crate::trace::Tracer;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Fewest set-ups per untraced run; `setup_s` is their median, so that
/// two slow set-ups out of five cannot move it.
const MIN_SETUPS: usize = 5;
/// Most set-ups per untraced run.
const MAX_SETUPS: usize = 25;
/// Cheap set-ups repeat until they have taken this long in total.
const SETUP_BUDGET_S: f64 = 1.5;
/// Deadline of every served request.
pub const DEADLINE: Duration = Duration::from_millis(250);
/// Salt of the warm-up request stream, so phase A starts at the seed's
/// first arrival.
const WARM_SALT: u64 = 0x5741_524d;

/// The small-op mix of `small-direct` and `serve-openloop`.
const SMALL_MIX: Mix = Mix {
    gemm: &[16, 32, 64],
    cgemm: &[16, 32],
    fft: &[64, 256],
};

/// A miniature mix for the tests.
const TINY_MIX: Mix = Mix {
    gemm: &[8, 16],
    cgemm: &[8],
    fft: &[16],
};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's microbenchmarks in miniature.
    LargeGemm,
    /// The precision dial and the BLAS-3 surface.
    PrecisionBlas3,
    /// Many small direct calls.
    SmallDirect,
    /// The sharded service under open- and closed-loop load.
    ServeOpenloop,
}

/// How a workload drives the library.
#[derive(Debug, Clone)]
pub enum Load {
    /// Closed loop, one caller: interleaved rounds of one call per op.
    Rounds(Vec<Op>),
    /// Closed loop, one caller: calls in the generator's order, timed in
    /// blocks.
    Calls {
        /// Ops and sizes drawn from.
        mix: Mix,
        /// Calls per block.
        block: usize,
    },
    /// A sharded service: phase A is an open loop at a fixed rate, phase
    /// B a closed loop with a fixed number of requests in flight.
    Served {
        /// Ops and sizes drawn from.
        mix: Mix,
        /// Phase A's Poisson arrival rate.
        rate_rps: f64,
        /// Phase B's requests in flight.
        in_flight: usize,
        /// Requests in the warm-up pass.
        warmup: usize,
    },
}

/// A workload at one size.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The load.
    pub load: Load,
    /// The latency percentile `latency_tail_ms` reports; the run makes at
    /// least enough calls for it to have ten samples beyond.
    pub tail: f64,
    /// Cube size the layer probe runs at.
    pub probe_n: usize,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::LargeGemm,
        Workload::PrecisionBlas3,
        Workload::SmallDirect,
        Workload::ServeOpenloop,
    ];

    /// The name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LargeGemm => "large-gemm",
            Workload::PrecisionBlas3 => "precision-blas3",
            Workload::SmallDirect => "small-direct",
            Workload::ServeOpenloop => "serve-openloop",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload as the benchmark runs it.
    pub fn plan(self) -> Plan {
        match self {
            Workload::LargeGemm => Plan {
                load: Load::Rounds(vec![
                    Op::Gemm(Prec::Fp32, 512),
                    Op::Cgemm(256),
                    Op::Fft(65536),
                ]),
                tail: 0.75,
                probe_n: 256,
            },
            Workload::PrecisionBlas3 => Plan {
                load: Load::Rounds(blas3_cells(256, 128)),
                tail: 0.90,
                probe_n: 256,
            },
            Workload::SmallDirect => Plan {
                load: Load::Calls {
                    mix: SMALL_MIX,
                    block: 1000,
                },
                tail: 0.90,
                probe_n: 64,
            },
            Workload::ServeOpenloop => Plan {
                load: Load::Served {
                    mix: SMALL_MIX,
                    rate_rps: 300.0,
                    in_flight: 64,
                    warmup: 64,
                },
                tail: 0.90,
                probe_n: 64,
            },
        }
    }

    /// The same workload at a size that runs in well under a second.
    pub fn tiny(self) -> Plan {
        match self {
            Workload::LargeGemm => Plan {
                load: Load::Rounds(vec![Op::Gemm(Prec::Fp32, 32), Op::Cgemm(16), Op::Fft(256)]),
                tail: 0.75,
                probe_n: 16,
            },
            Workload::PrecisionBlas3 => Plan {
                load: Load::Rounds(blas3_cells(16, 8)),
                tail: 0.90,
                probe_n: 16,
            },
            Workload::SmallDirect => Plan {
                load: Load::Calls {
                    mix: TINY_MIX,
                    block: 50,
                },
                tail: 0.90,
                probe_n: 16,
            },
            Workload::ServeOpenloop => Plan {
                load: Load::Served {
                    mix: TINY_MIX,
                    rate_rps: 2000.0,
                    in_flight: 8,
                    warmup: 8,
                },
                tail: 0.75,
                probe_n: 16,
            },
        }
    }
}

/// The precision-dial and BLAS-3 cells: dial GEMMs and BLAS-3 ops at
/// `n`, and the slow emulated-FP64 and checked cells at `small`.
fn blas3_cells(n: usize, small: usize) -> Vec<Op> {
    vec![
        Op::Gemm(Prec::Fp16, n),
        Op::Gemm(Prec::Bf16, n),
        Op::Gemm(Prec::Tf32, n),
        Op::Gemm(Prec::Fp32Fast, small),
        Op::Dgemm(small),
        Op::GemmOp(n),
        Op::Syrk(n),
        Op::Symm(n),
        Op::Herk(n),
        Op::Hemm(n),
        Op::CheckedGemm(small),
        Op::CheckedCgemm(small),
    ]
}

impl Plan {
    /// Every distinct (op, input variant) the workload calls.
    pub fn keys(&self) -> Vec<(Op, u32)> {
        match &self.load {
            Load::Rounds(cells) => cells.iter().map(|&op| (op, 0)).collect(),
            Load::Calls { mix, .. } | Load::Served { mix, .. } => mix
                .ops()
                .into_iter()
                .flat_map(|op| (0..VARIANTS).map(move |v| (op, v)))
                .collect(),
        }
    }
}

/// What a run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Seed of every input and of the load's order and timing.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end
    /// ones.
    pub trace: bool,
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted, the warm-up passes included.
    pub attempted: u64,
    /// Operations that errored, were shed, missed their deadline, or
    /// differ from the reference.
    pub failed: u64,
    /// Outputs that differ from the reference.
    pub mismatches: u64,
    /// The first few error messages.
    pub errors: Vec<String>,
    /// End-to-end metrics, or per-layer ones for a traced run.
    pub metrics: Vec<Metric>,
    /// Human-readable detail: per-op timings and sample counts.
    pub notes: Vec<String>,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// No output differed from its reference and no call errored.
    pub fn correct(&self) -> bool {
        self.mismatches == 0 && self.errors.is_empty()
    }
}

/// Run `plan` against `refs`, with every CPU kept out of its idle state
/// from the first set-up to the last measurement.
pub fn run(plan: &Plan, refs: &References, o: &RunOpts) -> Result<Outcome, String> {
    let awake = Awake::start();
    let mut out = match plan.load {
        Load::Served { .. } => served(plan, refs, o),
        _ => direct(plan, refs, o),
    }?;
    out.notes
        .push(format!("{} idle-priority spinners", awake.spinners()));
    Ok(out)
}

/// Counts attempts and failures, and compares outputs with the
/// references.
struct Tally<'a> {
    refs: &'a References,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    errors: Vec<String>,
}

impl<'a> Tally<'a> {
    fn new(refs: &'a References) -> Tally<'a> {
        Tally {
            refs,
            attempted: 0,
            failed: 0,
            mismatches: 0,
            errors: Vec::new(),
        }
    }

    fn error(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }

    fn output(&mut self, op: Op, v: u32, r: Result<Output, String>) {
        self.attempted += 1;
        match r {
            Ok(out) if self.refs.get(op, v) == Some(out.digest()) => {}
            Ok(_) => {
                self.mismatches += 1;
                self.failed += 1;
            }
            Err(e) => self.error(e),
        }
    }

    fn served(&mut self, op: Op, v: u32, r: Result<Output, Refusal>) {
        match r {
            Ok(out) => self.output(op, v, Ok(out)),
            Err(f) => self.refused(f),
        }
    }

    fn refused(&mut self, r: Refusal) {
        self.attempted += 1;
        match r {
            Refusal::Error(e) => self.error(e),
            Refusal::Missed => self.failed += 1,
        }
    }

    fn finish(self, metrics: Vec<Metric>, notes: Vec<String>, tracer: Option<Tracer>) -> Outcome {
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            mismatches: self.mismatches,
            errors: self.errors,
            metrics,
            notes,
            tracer,
        }
    }
}

/// The per-layer numbers of a traced run. Every workload reports every
/// field; a layer the workload does not pass through reads zero (a lone
/// context counts as one evenly loaded shard).
#[derive(Debug, Default)]
struct Layers {
    late_ms_tail: f64,
    admit_share: f64,
    queue_share: f64,
    serve_exec_share: f64,
    retry_share: f64,
    residual_share: f64,
    shard_work_skew: f64,
    rejected: u64,
    deadline_missed: u64,
    exec_errors: u64,
    respawns: u64,
    call_ms_mean: f64,
    pack_share: f64,
    exec_share: f64,
    pass: Counters,
    overhead: f64,
    host_speed: f64,
}

impl Layers {
    fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("loadgen.late_ms.tail", self.late_ms_tail, "ms"),
            metric("serve.admit_share", self.admit_share, "fraction"),
            metric("serve.queue_share", self.queue_share, "fraction"),
            metric("serve.exec_share", self.serve_exec_share, "fraction"),
            metric("serve.retry_share", self.retry_share, "fraction"),
            metric("serve.residual_share", self.residual_share, "fraction"),
            metric("serve.shard_work_skew", self.shard_work_skew, "ratio"),
            metric("serve.rejected", self.rejected as f64, "count"),
            metric(
                "serve.deadline_missed",
                self.deadline_missed as f64,
                "count",
            ),
            metric("serve.exec_errors", self.exec_errors as f64, "count"),
            metric("serve.respawns", self.respawns as f64, "count"),
            metric("ctx.call_ms.mean", self.call_ms_mean, "ms"),
            metric("ctx.pack_share", self.pack_share, "fraction"),
            metric("ctx.exec_share", self.exec_share, "fraction"),
            metric(
                "ctx.other_share",
                1.0 - self.pack_share - self.exec_share,
                "fraction",
            ),
            metric("ctx.pass.gemm_calls", self.pass.gemm_calls as f64, "count"),
            metric("ctx.pass.tiles", self.pass.tiles as f64, "count"),
            metric("ctx.pass.fragments", self.pass.fragments as f64, "count"),
            metric("ctx.pass.mma_steps", self.pass.mma_steps as f64, "count"),
            metric(
                "ctx.pass.operand_bytes",
                self.pass.operand_bytes as f64,
                "count",
            ),
            metric("trace.overhead", self.overhead, "fraction"),
            metric("host.speed", self.host_speed, "ratio"),
        ]
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Repeat `once` (build, warm up, report its seconds) and keep the last
/// result: at least [`MIN_SETUPS`] times, more while they total under
/// [`SETUP_BUDGET_S`], at most [`MAX_SETUPS`]; once in a traced run. The
/// previous result is dropped before the next set-up starts.
fn set_up<T>(
    trace: bool,
    mut once: impl FnMut() -> Result<(T, f64), String>,
) -> Result<(T, Vec<f64>), String> {
    let (mut last, mut times) = (None, Vec::new());
    loop {
        drop(last.take());
        let (t, s) = once()?;
        last = Some(t);
        times.push(s);
        let n = times.len();
        if trace
            || n >= MAX_SETUPS
            || (n >= MIN_SETUPS && times.iter().sum::<f64>() >= SETUP_BUDGET_S)
        {
            return Ok((last.expect("just set"), times));
        }
    }
}

fn setup_note(times: &[f64]) -> String {
    let s = sorted(times.to_vec());
    format!(
        "{} set-ups: min {:.4} s, median {:.4} s, max {:.4} s",
        s.len(),
        s[0],
        median(&s),
        s[s.len() - 1]
    )
}

/// Per-block work rates of a traced run, traced and untraced blocks
/// alternating.
#[derive(Debug, Default)]
struct BlockRates {
    traced: Vec<f64>,
    untraced: Vec<f64>,
}

impl BlockRates {
    fn push(&mut self, traced: bool, rate: f64) {
        if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        }
        .push(rate);
    }

    /// Median traced rate ÷ median untraced rate − 1.
    fn overhead(&self) -> f64 {
        median(&self.traced) / median(&self.untraced) - 1.0
    }
}

/// Latency of an open-loop request, ms: from when it was due, not from
/// when the generator got round to submitting it, to when its result was
/// seen. A request that produced no result counts as missing the
/// deadline.
pub fn open_loop_latency_ms(due: Instant, seen: Instant, answered: bool) -> f64 {
    let d = seen.saturating_duration_since(due);
    ms(if answered { d } else { d.max(DEADLINE) })
}

/// Geometric mean over ops of each op's median sample: every op weighs
/// the same, and no rank of a pooled mix can land between two ops whose
/// times differ by orders of magnitude.
fn geomean_of_medians(per_op: &BTreeMap<Op, Vec<f64>>) -> f64 {
    let logs: f64 = per_op.values().map(|xs| median(xs).ln()).sum();
    (logs / per_op.len() as f64).exp()
}

/// A time taken in calibration window `window`: a call's duration in ns,
/// or a served request's latency in ms.
#[derive(Debug, Clone, Copy)]
struct Sample {
    op: Op,
    value: f64,
    window: usize,
}

/// Each op's samples, every one multiplied by `scale(window)`:
/// [`HostSpeed::window`] reads it at the reference speed, 1 keeps it as
/// measured.
fn by_op(samples: &[Sample], scale: impl Fn(usize) -> f64) -> BTreeMap<Op, Vec<f64>> {
    let mut m: BTreeMap<Op, Vec<f64>> = BTreeMap::new();
    for s in samples {
        m.entry(s.op).or_default().push(s.value * scale(s.window));
    }
    m
}

/// The four end-to-end metrics: the set-up time, a rate, and latencies in
/// ms per op.
fn end_to_end(
    setup_s: f64,
    gflops: f64,
    lat_ms: &BTreeMap<Op, Vec<f64>>,
    tail: f64,
) -> Result<Vec<Metric>, String> {
    let pooled = lat_ms.values().flatten().copied().collect();
    Ok(vec![
        metric("setup_s", setup_s, "s"),
        metric("gflops", gflops, "GFLOP/s"),
        metric("op_latency_ms", geomean_of_medians(lat_ms), "ms"),
        metric("latency_tail_ms", tail_of(pooled, tail, "latency")?, "ms"),
    ])
}

/// The notes that keep the end-to-end numbers as measured, before they
/// were read at the reference speed.
fn measured_notes(host: &HostSpeed, raw: &[Metric]) -> [String; 2] {
    let raw: Vec<String> = raw
        .iter()
        .map(|m| format!("{} {:.6} {}", m.name, m.value, m.unit))
        .collect();
    [
        format!(
            "host speed {:.4} of the reference over {} calibration slots",
            host.factor(),
            host.slots()
        ),
        format!("as measured: {}", raw.join(", ")),
    ]
}

/// Every input set of `keys` under `seed`.
fn generate(keys: &[(Op, u32)], seed: u64) -> HashMap<(Op, u32), Inputs> {
    keys.iter()
        .map(|&(op, v)| ((op, v), Inputs::generate(op, seed, v)))
        .collect()
}

fn tail_of(xs: Vec<f64>, p: f64, what: &str) -> Result<f64, String> {
    let n = xs.len();
    percentile(&sorted(xs), p)
        .ok_or_else(|| format!("{what}: {n} samples cannot report p{}", p * 100.0))
}

/// `large-gemm`, `precision-blas3` and `small-direct`: one caller, closed
/// loop, straight into a context.
fn direct(plan: &Plan, refs: &References, o: &RunOpts) -> Result<Outcome, String> {
    let threads = adapter::threads();
    let keys = plan.keys();
    let inputs = generate(&keys, o.seed);
    let checked = keys.iter().any(|&(op, _)| op.unchecked() != op);
    let mut tally = Tally::new(refs);
    let mut tracer = o.trace.then(Tracer::new);
    let mut host = HostSpeed::new(threads);

    // Set-up: build the contexts and make one call per (op, variant).
    let (engine, setup_s) = set_up(o.trace, || {
        let t0 = Instant::now();
        let e = Engine::new(threads, checked);
        let outs: Vec<_> = keys.iter().map(|k| e.run(k.0, &inputs[k])).collect();
        let s = secs(t0.elapsed());
        for (k, r) in keys.iter().zip(outs) {
            tally.output(k.0, k.1, r);
        }
        Ok((e, s))
    })?;
    let mut window = host.slot();
    // Counter snapshots are for traced runs only.
    let pass = o.trace.then(|| engine.counters());

    let (mut calls, block, block_name): (Box<dyn Iterator<Item = (Op, u32)>>, usize, &str) =
        match &plan.load {
            Load::Rounds(cells) => (
                Box::new(cells.clone().into_iter().map(|op| (op, 0)).cycle()),
                cells.len(),
                "round",
            ),
            Load::Calls { mix, block } => (
                Box::new(Arrivals::new(o.seed, 1.0, *mix).map(|a| (a.op, a.variant))),
                *block,
                "block",
            ),
            Load::Served { .. } => unreachable!("served loads run in `served`"),
        };
    // Enough calls for the tail percentile, and in a traced run at least
    // one traced and one untraced block.
    let min_blocks = samples_for(plan.tail)
        .div_ceil(block)
        .max(if o.trace { 2 } else { 1 });

    let mut gaps_ms = Vec::new();
    let mut samples = Vec::new();
    let mut rates = BlockRates::default();
    let (mut traced_ns, mut traced_calls, mut traced_ctx) = (0.0, 0u64, Counters::default());
    let start = Instant::now();
    let root = tracer.as_mut().map(|t| t.open("workload", None, 0, start));
    let mut b = 0u64;
    let mut window_start = start;
    loop {
        let traced = tracer.is_some() && b.is_multiple_of(2);
        let before = traced.then(|| engine.counters());
        let b0 = Instant::now();
        let span = match (&mut tracer, traced) {
            (Some(t), true) => Some(t.open(block_name, root, b, b0)),
            _ => None,
        };
        let mut prev_end = b0;
        let mut flops = 0.0;
        for _ in 0..block {
            let (op, v) = calls.next().expect("call sequences are endless");
            let t0 = Instant::now();
            let r = engine.run(op, &inputs[&(op, v)]);
            let t1 = Instant::now();
            gaps_ms.push(ms(t0 - prev_end));
            prev_end = t1;
            let ns = (t1 - t0).as_nanos() as f64;
            samples.push(Sample {
                op,
                value: ns,
                window,
            });
            flops += op.flops();
            if let (Some(t), Some(s)) = (&mut tracer, span) {
                t.record(format!("call.{}", op.name()), Some(s), b, t0, t1);
                traced_ns += ns;
                traced_calls += 1;
            }
            tally.output(op, v, r);
        }
        let b1 = Instant::now();
        rates.push(traced, flops / secs(b1 - b0));
        if let (Some(t), Some(s), Some(before)) = (&mut tracer, span, before) {
            t.close(s, b1);
            traced_ctx = traced_ctx.plus(&engine.counters().since(&before));
        }
        b += 1;
        let done = secs(start.elapsed()) >= o.seconds && b >= min_blocks as u64;
        if done || window_start.elapsed() >= WINDOW {
            window = host.slot();
            window_start = Instant::now();
        }
        if done {
            break;
        }
    }
    if let (Some(t), Some(r)) = (&mut tracer, root) {
        t.close(r, Instant::now());
    }

    let per_op = by_op(&samples, |_| 1e-6);
    let mut notes = Vec::new();
    for (op, ms) in &per_op {
        let med = median(ms);
        notes.push(format!(
            "{:<24} {:>6} calls  median {:>10.4} ms  {:>8.4} GFLOP/s",
            op.name(),
            ms.len(),
            med,
            op.flops() / med / 1e6
        ));
    }
    notes.push(format!(
        "{} calls in {b} {block_name}s over {:.1} s",
        samples.len(),
        secs(start.elapsed())
    ));
    notes.push(setup_note(&setup_s));

    let metrics = if let Some(t) = tracer.as_mut() {
        let layers = Layers {
            late_ms_tail: tail_of(gaps_ms, plan.tail, "call gaps")?,
            shard_work_skew: 1.0,
            call_ms_mean: traced_ns / traced_calls as f64 / 1e6,
            pack_share: traced_ctx.pack_ns as f64 / traced_ns,
            exec_share: traced_ctx.exec_ns as f64 / traced_ns,
            pass: pass.unwrap_or_default(),
            overhead: rates.overhead(),
            host_speed: host.factor(),
            ..Layers::default()
        };
        let mut m = layers.metrics();
        m.extend(probe::run(plan.probe_n, o.seed, threads, t)?);
        m
    } else {
        let raw = end_to_end(median(&setup_s), call_rate(&per_op), &per_op, plan.tail)?;
        notes.extend(measured_notes(&host, &raw));
        let at_ref = by_op(&samples, |w| host.window(w) * 1e-6);
        end_to_end(median(&setup_s), call_rate(&at_ref), &at_ref, plan.tail)?
    };
    Ok(tally.finish(metrics, notes, tracer))
}

/// Σ useful flops ÷ Σ per-op median call time, in GFLOP/s, from each
/// op's call times in ms.
fn call_rate(per_op_ms: &BTreeMap<Op, Vec<f64>>) -> f64 {
    let (work, ns) = per_op_ms.iter().fold((0.0, 0.0), |(w, t), (op, ms)| {
        let n = ms.len() as f64;
        (w + n * op.flops(), t + n * median(ms) * 1e6)
    });
    work / ns
}

/// A submitted request, kept until its result is seen.
struct Sent {
    op: Op,
    variant: u32,
    due: Instant,
    sub0: Instant,
    sub1: Instant,
    window: usize,
    waiter: usize,
}

/// A resolved request: its key, its result, and when it resolved.
type Seen = (u64, Result<Output, Refusal>, Instant);

/// Threads that watch served requests. Each blocks on at most one ticket
/// at a time and stamps the moment it resolves; when every waiter is
/// busy, another starts. So the submitting thread never polls, and no
/// stamp waits behind another request.
struct Waiters<'scope, 'env> {
    scope: &'scope std::thread::Scope<'scope, 'env>,
    done: mpsc::Sender<Seen>,
    feeds: Vec<mpsc::Sender<(u64, Pending)>>,
    idle: Vec<usize>,
    sent: HashMap<u64, Sent>,
}

impl Waiters<'_, '_> {
    fn watch(&mut self, key: u64, pending: Pending, mut s: Sent) {
        let w = self.idle.pop().unwrap_or_else(|| self.spawn());
        s.waiter = w;
        self.sent.insert(key, s);
        self.feeds[w]
            .send((key, pending))
            .expect("waiter threads outlive both phases");
    }

    fn spawn(&mut self) -> usize {
        let (feed, tickets) = mpsc::channel::<(u64, Pending)>();
        let done = self.done.clone();
        self.scope.spawn(move || {
            for (key, pending) in tickets {
                let r = pending.wait();
                // The receiver lives until every waiter has exited.
                let _ = done.send((key, r, Instant::now()));
            }
        });
        self.feeds.push(feed);
        self.feeds.len() - 1
    }

    /// The request `key`, whose result its waiter has sent; the waiter is
    /// free again.
    fn seen(&mut self, key: u64) -> Sent {
        let s = self.sent.remove(&key).expect("every result was sent");
        self.idle.push(s.waiter);
        s
    }
}

/// `serve-openloop`: a sharded service, open loop then closed loop.
fn served(plan: &Plan, refs: &References, o: &RunOpts) -> Result<Outcome, String> {
    let Load::Served {
        mix,
        rate_rps,
        in_flight,
        warmup,
    } = plan.load
    else {
        unreachable!("only served loads run here")
    };
    let threads = adapter::threads();
    let keys = plan.keys();
    let inputs = generate(&keys, o.seed);
    let request = |a: &Arrival| inputs[&(a.op, a.variant)].clone();
    let mut tally = Tally::new(refs);
    let mut tracer = o.trace.then(Tracer::new);
    // The host's speed is timed only while the service is idle: before
    // the first window, and after each once every request has resolved.
    let mut host = HostSpeed::new(threads);

    // Set-up: build the service and push the warm-up requests through.
    let warm: Vec<Arrival> = Arrivals::new(o.seed ^ WARM_SALT, rate_rps, mix)
        .take(warmup)
        .collect();
    let (svc, setup_s) = set_up(o.trace, || {
        let reqs: Vec<Inputs> = warm.iter().map(request).collect();
        let t0 = Instant::now();
        let s = Service::new(threads, TENANTS)?;
        let tickets: Vec<_> = warm
            .iter()
            .zip(reqs)
            .map(|(a, r)| s.submit(a.tenant, a.op, r, DEADLINE, true))
            .collect();
        let results: Vec<_> = tickets
            .into_iter()
            .map(|t| t.and_then(Pending::wait))
            .collect();
        let secs = secs(t0.elapsed());
        for (a, r) in warm.iter().zip(results) {
            tally.served(a.op, a.variant, r);
        }
        Ok((s, secs))
    })?;
    let mut window = host.slot();
    // Counter snapshots are for traced runs only.
    let snap = || o.trace.then(|| svc.counters());
    let pass = snap();

    let need_a = samples_for(plan.tail) as f64 / rate_rps * 1.5;
    let dur_a = (o.seconds / 2.0).max(need_a);
    let dur_b = (o.seconds - dur_a).max(o.seconds / 3.0);
    // Each phase is cut into windows of about `WINDOW`; at least two, so
    // that a traced phase B alternates traced and untraced windows.
    let windows = |dur: f64| ((dur / secs(WINDOW)).round() as usize).max(2);
    let (windows_a, windows_b) = (windows(dur_a), windows(dur_b));
    let mut gen = Arrivals::new(o.seed, rate_rps, mix);
    let limit_ns = (dur_a * 1e9) as u64;
    let sched: Vec<Arrival> = gen.by_ref().take_while(|a| a.at_ns < limit_ns).collect();
    let window_a_ns = dur_a * 1e9 / windows_a as f64;
    let window_a_end = |k: usize| {
        if k + 1 == windows_a {
            sched.len()
        } else {
            sched.partition_point(|a| (a.at_ns as f64) < (k + 1) as f64 * window_a_ns)
        }
    };

    let (done_tx, done) = mpsc::channel::<Seen>();
    std::thread::scope(|scope| {
        let mut waiters = Waiters {
            scope,
            done: done_tx,
            feeds: Vec::new(),
            idle: Vec::new(),
            sent: HashMap::new(),
        };

        // Phase A: open loop. Latency runs from each arrival's due time,
        // so a stalled generator shows in it; a refused request counts as
        // missing the deadline.
        let before = snap();
        let mut lat = Vec::new();
        let mut late_ms = Vec::new();
        let (mut admit_ns, mut inflight_ns) = (0.0, 0.0);
        let start = Instant::now();
        let root_a = tracer.as_mut().map(|t| t.open("phase.a", None, 0, start));
        // The schedule is held while the host is timed between windows.
        let mut held = Duration::ZERO;
        let (mut next, mut k) = (0usize, 0usize);
        let mut window_end = window_a_end(0);
        loop {
            // Take the results the waiters have stamped, then sleep until
            // the next arrival is due. Results do not wake this thread:
            // their stamps are already taken, and every wake-up here
            // competes with the shards for the same CPUs.
            let due =
                (next < window_end).then(|| start + held + Duration::from_nanos(sched[next].at_ns));
            let got = match (done.try_recv().ok(), due) {
                (Some(seen), _) => Some(seen),
                (None, Some(d)) => {
                    std::thread::sleep(d.saturating_duration_since(Instant::now()));
                    None
                }
                (None, None) if waiters.sent.is_empty() => {
                    // Every request of the window has resolved: time the
                    // host, then resume the schedule where it stopped.
                    window = host.slot();
                    k += 1;
                    if k == windows_a {
                        break;
                    }
                    let boundary =
                        start + held + Duration::from_nanos((k as f64 * window_a_ns) as u64);
                    held += Instant::now().saturating_duration_since(boundary);
                    window_end = window_a_end(k);
                    continue;
                }
                (None, None) => Some(done.recv().expect("waiters hold a sender")),
            };
            if let Some((key, r, end)) = got {
                let s = waiters.seen(key);
                let answered = r.is_ok();
                lat.push(Sample {
                    op: s.op,
                    value: open_loop_latency_ms(s.due, end, answered),
                    window: s.window,
                });
                if answered {
                    admit_ns += (s.sub1 - s.sub0).as_nanos() as f64;
                    inflight_ns += (end - s.sub1).as_nanos() as f64;
                }
                tally.served(s.op, s.variant, r);
                if let Some(t) = tracer.as_mut() {
                    let id = t.record("request", root_a, key, s.due, end);
                    t.record("admit", Some(id), key, s.sub0, s.sub1);
                    t.record("inflight", Some(id), key, s.sub1, end);
                }
                continue;
            }
            let (a, due) = (&sched[next], due.expect("an arrival is due"));
            let req = request(a);
            let sub0 = Instant::now();
            let r = svc.submit(a.tenant, a.op, req, DEADLINE, false);
            let sub1 = Instant::now();
            late_ms.push(ms(sub0 - due));
            let key = next as u64;
            match r {
                Ok(p) => waiters.watch(
                    key,
                    p,
                    Sent {
                        op: a.op,
                        variant: a.variant,
                        due,
                        sub0,
                        sub1,
                        window,
                        waiter: 0,
                    },
                ),
                Err(f) => {
                    lat.push(Sample {
                        op: a.op,
                        value: open_loop_latency_ms(due, sub1, false),
                        window,
                    });
                    tally.refused(f);
                    if let Some(t) = tracer.as_mut() {
                        let id = t.record("request", root_a, key, due, sub1);
                        t.record("admit", Some(id), key, sub0, sub1);
                    }
                }
            }
            next += 1;
        }
        let wall_a = secs(start.elapsed());
        if let (Some(t), Some(r)) = (&mut tracer, root_a) {
            t.close(r, Instant::now());
        }
        let after_a = snap();

        // Phase B: closed loop with `in_flight` requests outstanding; its
        // completion rate is the service's capacity for this mix. Only
        // throughput counts here, so this thread waits on the oldest
        // request itself and no waiter thread competes with the shards
        // for the CPUs. With `in_flight` queued, a request finishing
        // before the oldest one does not leave a shard idle. Each window
        // drains before the host is timed.
        let window_b = Duration::from_secs_f64(dur_b / windows_b as f64);
        let start_b = Instant::now();
        let root_b = tracer.as_mut().map(|t| t.open("phase.b", None, 0, start_b));
        let mut ring: VecDeque<(u64, Arrival, Instant, Instant, Pending)> = VecDeque::new();
        let mut capacity = Vec::new();
        let mut rates = BlockRates::default();
        let (mut done_b, mut busy_b) = (0u64, 0.0);
        let mut key = sched.len() as u64;
        for wb in 0..windows_b {
            let traced = tracer.is_some() && wb % 2 == 0;
            let w0 = Instant::now();
            let stop = w0 + window_b;
            let (mut n, mut flops) = (0u64, 0.0);
            loop {
                while ring.len() < in_flight && Instant::now() < stop {
                    let a = gen.next().expect("arrival streams are endless");
                    let req = request(&a);
                    let sub0 = Instant::now();
                    let r = svc.submit(a.tenant, a.op, req, DEADLINE, true);
                    let sub1 = Instant::now();
                    match r {
                        Ok(p) => ring.push_back((key, a, sub0, sub1, p)),
                        Err(f) => tally.refused(f),
                    }
                    key += 1;
                }
                let Some((k, a, sub0, sub1, p)) = ring.pop_front() else {
                    break;
                };
                let r = p.wait();
                let end = Instant::now();
                if r.is_ok() {
                    flops += a.op.flops();
                }
                tally.served(a.op, a.variant, r);
                n += 1;
                if let (Some(t), true) = (tracer.as_mut(), traced) {
                    let id = t.record("request", root_b, k, sub0, end);
                    t.record("admit", Some(id), k, sub0, sub1);
                }
            }
            let s = secs(w0.elapsed());
            capacity.push((flops / s, window));
            rates.push(traced, n as f64 / s);
            (done_b, busy_b) = (done_b + n, busy_b + s);
            window = host.slot();
        }
        if let (Some(t), Some(r)) = (&mut tracer, root_b) {
            t.close(r, Instant::now());
        }
        let after_b = snap();

        let lat_ms = by_op(&lat, |_| 1.0);
        let pooled = sorted(lat_ms.values().flatten().copied().collect());
        let pct = |p: f64| percentile(&pooled, p).unwrap_or(f64::NAN);
        let mut notes: Vec<String> = lat_ms
            .iter()
            .map(|(op, xs)| {
                let s = sorted(xs.clone());
                format!(
                    "{:<24} {:>6} requests  p50 {:>8.3} ms  p90 {:>8.3} ms",
                    op.name(),
                    s.len(),
                    percentile(&s, 0.5).unwrap_or(f64::NAN),
                    percentile(&s, 0.9).unwrap_or(f64::NAN)
                )
            })
            .collect();
        notes.extend([
            format!(
                "phase A: {} arrivals at {rate_rps} rps in {windows_a} windows over {wall_a:.1} s, {threads} shards x 1 worker",
                sched.len()
            ),
            format!(
                "phase A latency from the due time: p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms",
                pct(0.5),
                pct(0.9),
                pct(0.99)
            ),
            format!(
                "phase B: {done_b} requests, {in_flight} in flight, {:.1} req/s in {windows_b} windows of {:.2} s",
                done_b as f64 / busy_b,
                secs(window_b)
            ),
            format!("{} waiter threads in phase A", waiters.feeds.len()),
            setup_note(&setup_s),
        ]);
        let metrics = if let Some(t) = tracer.as_mut() {
            let traced = "snapshots are taken in traced runs";
            let before = before.expect(traced);
            let a = after_a.expect(traced).since(&before);
            let ab = after_b.expect(traced).since(&before);
            let total = admit_ns + inflight_ns;
            let share = |ns: u64| ns as f64 / total;
            let frags = &ab.shard_fragments;
            let mean = frags.iter().sum::<u64>() as f64 / frags.len() as f64;
            let layers = Layers {
                late_ms_tail: tail_of(late_ms, plan.tail, "generator lateness")?,
                admit_share: admit_ns / total,
                queue_share: share(a.queue_wait_ns),
                serve_exec_share: share(a.exec_ns),
                retry_share: share(a.retry_ns),
                residual_share: (total - (a.queue_wait_ns + a.exec_ns + a.retry_ns) as f64) / total,
                shard_work_skew: frags.iter().copied().max().unwrap_or(0) as f64 / mean,
                rejected: ab.rejected,
                deadline_missed: ab.deadline_missed,
                exec_errors: ab.exec_errors,
                respawns: ab.respawns,
                call_ms_mean: a.exec_ns as f64 / a.completed as f64 / 1e6,
                pack_share: a.ctx.pack_ns as f64 / a.exec_ns as f64,
                exec_share: a.ctx.exec_ns as f64 / a.exec_ns as f64,
                pass: pass.expect(traced).ctx,
                overhead: rates.overhead(),
                host_speed: host.factor(),
            };
            let mut m = layers.metrics();
            m.extend(probe::run(plan.probe_n, o.seed, threads, t)?);
            m
        } else {
            // Capacity is the median window's rate.
            let gflops = |scale: &dyn Fn(usize) -> f64| {
                let per_window: Vec<f64> = capacity.iter().map(|&(r, w)| r / scale(w)).collect();
                median(&per_window) / 1e9
            };
            let raw = end_to_end(median(&setup_s), gflops(&|_| 1.0), &lat_ms, plan.tail)?;
            notes.extend(measured_notes(&host, &raw));
            end_to_end(
                median(&setup_s),
                gflops(&|w| host.window(w)),
                &by_op(&lat, |w| host.window(w)),
                plan.tail,
            )?
        };
        Ok(tally.finish(metrics, notes, tracer))
    })
}
