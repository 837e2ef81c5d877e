//! Every workload end to end at a tiny size, through the library
//! functions the `benchmark` binary calls (no command-line knob changes a
//! workload's size).

use m3xu_benchmark::adapter::{Engine, Inputs, Op, Output, Prec};
use m3xu_benchmark::metrics::manifest;
use m3xu_benchmark::oracle::References;
use m3xu_benchmark::trace::{self_times, Span};
use m3xu_benchmark::workloads::{open_loop_latency_ms, run, Outcome, RunOpts, Workload, DEADLINE};
use std::time::{Duration, Instant};

const SEED: u64 = 3;

fn tiny_run(w: Workload, trace: bool, refs: Option<References>) -> Outcome {
    let plan = w.tiny();
    let refs = refs.unwrap_or_else(|| References::compute(&plan.keys(), SEED, 2));
    let opts = RunOpts {
        seed: SEED,
        seconds: 0.3,
        trace,
    };
    run(&plan, &refs, &opts).unwrap_or_else(|e| panic!("{}: {e}", w.name()))
}

#[test]
fn every_workload_runs_tiny_and_reports_exactly_the_declared_metrics() {
    let m = manifest().unwrap();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, m.workloads, "workloads agree with BENCHMARK.json");
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = tiny_run(w, trace, None);
            assert!(
                out.correct(),
                "{} trace={trace}: {:?}",
                w.name(),
                out.errors
            );
            assert_eq!(out.failed, 0, "{} trace={trace}", w.name());
            assert!(out.attempted > 0);
            m.check(&out.metrics, trace)
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name()));
            assert_eq!(out.tracer.is_some(), trace);
            if !trace {
                assert!(
                    out.metrics.iter().all(|x| x.value > 0.0),
                    "{}: {:?}",
                    w.name(),
                    out.metrics
                );
            }
        }
    }
}

#[test]
fn a_flipped_output_bit_fails_the_run() {
    let op = Op::Gemm(Prec::Fp32, 16);
    let mut out = Engine::new(2, false)
        .run(op, &Inputs::generate(op, SEED, 0))
        .unwrap();
    let before = out.digest();
    let Output::F32(d) = &mut out else {
        panic!("a real GEMM returns a real matrix")
    };
    let x = &mut d.as_mut_slice()[5];
    *x = f32::from_bits(x.to_bits() ^ 1);
    assert_ne!(out.digest(), before);

    let plan = Workload::LargeGemm.tiny();
    let mut refs = References::compute(&plan.keys(), SEED, 2);
    let (op, v) = plan.keys()[1];
    refs.set(op, v, refs.get(op, v).unwrap() ^ 1);
    let out = tiny_run(Workload::LargeGemm, false, Some(refs));
    assert!(!out.correct());
    assert!(out.mismatches > 0 && out.failed >= out.mismatches);
}

#[test]
fn open_loop_latency_runs_from_the_due_time_and_failures_miss_the_deadline() {
    let due = Instant::now();
    let submitted = due + Duration::from_millis(3);
    let seen = submitted + Duration::from_millis(2);
    // A generator 3 ms late shows in the latency, not only the 2 ms the
    // request spent in the service.
    assert!((open_loop_latency_ms(due, seen, true) - 5.0).abs() < 1e-9);
    let refused = open_loop_latency_ms(due, submitted, false);
    assert!((refused - DEADLINE.as_secs_f64() * 1e3).abs() < 1e-9);
    let very_late = due + DEADLINE * 2;
    assert_eq!(
        open_loop_latency_ms(due, very_late, false),
        open_loop_latency_ms(due, very_late, true)
    );
}

#[test]
fn served_request_spans_start_at_the_due_time_and_their_self_time_is_lateness() {
    let out = tiny_run(Workload::ServeOpenloop, true, None);
    let spans = out.tracer.expect("traced").spans().to_vec();
    let selfs = self_times(&spans);
    let phase_a = spans
        .iter()
        .find(|s| s.name == "phase.a")
        .expect("phase A span")
        .id;
    let children =
        |id: u64| -> Vec<&Span> { spans.iter().filter(|s| s.parent == Some(id)).collect() };
    let requests: Vec<&Span> = spans.iter().filter(|s| s.parent == Some(phase_a)).collect();
    assert!(requests.len() > 50);
    for r in requests {
        assert_eq!(r.name, "request");
        let kids = children(r.id);
        let admit = kids.iter().find(|s| s.name == "admit").expect("admit span");
        let inflight = kids
            .iter()
            .find(|s| s.name == "inflight")
            .expect("inflight span");
        // Submission never precedes the due time; the request ends when
        // its result is seen.
        assert!(admit.start_ns >= r.start_ns);
        assert_eq!(inflight.end_ns, r.end_ns);
        assert_eq!(admit.end_ns, inflight.start_ns);
        assert_eq!(
            selfs[r.id as usize],
            admit.start_ns - r.start_ns,
            "self time is lateness"
        );
    }
}

#[test]
fn the_same_seed_gives_the_same_inputs_and_references() {
    let plan = Workload::SmallDirect.tiny();
    let a = References::compute(&plan.keys(), SEED, 1);
    let b = References::compute(&plan.keys(), SEED, 2);
    assert_eq!(a, b);
    assert_ne!(a, References::compute(&plan.keys(), SEED + 1, 2));
}
