//! `benchmark`: run or trace one workload, sweep seeds of every workload
//! into a ledger, or compare two ledgers against the bounds in
//! `BENCHMARK.json`.

use m3xu_benchmark::adapter;
use m3xu_benchmark::compare::{self, read_rows};
use m3xu_benchmark::metrics::{self, Manifest};
use m3xu_benchmark::oracle::{References, DEFAULT_SEED};
use m3xu_benchmark::workloads::{self, RunOpts, Workload};
use std::path::{Path, PathBuf};

const USAGE: &str = "usage:
  benchmark [run|trace] --workload W --seed S [--seconds N] [--trace 0|1] [--out FILE]
  benchmark sweep --out FILE [--runs N] [--trace 0|1]
  benchmark compare A.jsonl B.jsonl
  benchmark digests";

fn main() {
    let code = real_main().unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        2
    });
    std::process::exit(code);
}

fn real_main() -> Result<i32, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "sweep" | "compare" | "digests")) => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    let manifest = metrics::manifest()?;
    if cmd == "compare" {
        return compare_cmd(rest, &manifest);
    }
    // Contexts arm fault injection (and the SIMD level and thread count
    // follow) from `M3XU_*` variables; a run under any of them would not
    // measure the program as shipped.
    if let Some(k) = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .find(|k| k.starts_with("M3XU_"))
    {
        return Err(format!("refusing to run with {k} set"));
    }
    match cmd {
        "sweep" => sweep_cmd(rest, &manifest),
        "digests" => {
            let mut keys: Vec<_> = Workload::ALL.iter().flat_map(|w| w.plan().keys()).collect();
            keys.sort();
            keys.dedup();
            print!(
                "{}",
                References::compute(&keys, DEFAULT_SEED, adapter::threads()).to_text()
            );
            Ok(0)
        }
        _ => run_cmd(cmd == "trace", rest, &manifest),
    }
}

/// `--key value` pairs; a key may repeat.
fn flags(args: &[String], allowed: &[&str]) -> Result<Vec<(String, String)>, String> {
    if !args.len().is_multiple_of(2) {
        return Err(format!("expected --flag value pairs\n{USAGE}"));
    }
    args.chunks(2)
        .map(|kv| {
            let k = kv[0].strip_prefix("--").filter(|k| allowed.contains(k));
            k.map(|k| (k.to_string(), kv[1].clone()))
                .ok_or_else(|| format!("unexpected argument '{}'\n{USAGE}", kv[0]))
        })
        .collect()
}

fn parse<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad --{key} '{v}'"))
}

fn parse_trace(v: &str) -> Result<bool, String> {
    match v {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("bad --trace '{v}' (0 or 1)")),
    }
}

fn run_cmd(mut trace: bool, args: &[String], manifest: &Manifest) -> Result<i32, String> {
    let (mut workload, mut seed, mut seconds, mut out) =
        (None, None, manifest.run_seconds as f64, None);
    for (k, v) in flags(args, &["workload", "seed", "seconds", "trace", "out"])? {
        match k.as_str() {
            "workload" => {
                workload =
                    Some(Workload::from_name(&v).ok_or_else(|| format!("unknown workload '{v}'"))?)
            }
            "seed" => seed = Some(parse::<u64>(&k, &v)?),
            "seconds" => seconds = parse::<f64>(&k, &v)?,
            "trace" => trace = parse_trace(&v)?,
            _ => out = Some(PathBuf::from(v)),
        }
    }
    let (Some(w), Some(seed)) = (workload, seed) else {
        return Err(format!("--workload and --seed are required\n{USAGE}"));
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let plan = w.plan();
    let refs = References::for_run(&plan.keys(), seed)?;
    let outcome = workloads::run(
        &plan,
        &refs,
        &RunOpts {
            seed,
            seconds,
            trace,
        },
    )?;
    manifest.check(&outcome.metrics, trace)?;

    println!(
        "{} seed {seed}, {} threads, SIMD {}{}:",
        w.name(),
        adapter::threads(),
        adapter::active_level_name(),
        if trace { ", traced" } else { "" }
    );
    for n in &outcome.notes {
        println!("  {n}");
    }
    for m in &outcome.metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if outcome.mismatches > 0 {
        eprintln!(
            "benchmark: {} outputs differ from the reference",
            outcome.mismatches
        );
    }
    for e in &outcome.errors {
        eprintln!("benchmark: {e}");
    }
    if let Some(t) = &outcome.tracer {
        let path = out.unwrap_or_else(|| {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("results")
                .join(format!("trace-{}-seed{seed}.jsonl", w.name()))
        });
        t.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  {} spans in {}", t.spans().len(), path.display());
    }
    println!(
        "{}",
        metrics::result_line(
            outcome.correct(),
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    Ok(if outcome.correct() { 0 } else { 1 })
}

fn sweep_cmd(args: &[String], manifest: &Manifest) -> Result<i32, String> {
    let (mut out, mut runs, mut trace) = (None, 10, false);
    for (k, v) in flags(args, &["out", "runs", "trace"])? {
        match k.as_str() {
            "out" => out = Some(PathBuf::from(v)),
            "runs" => runs = parse(&k, &v)?,
            _ => trace = parse_trace(&v)?,
        }
    }
    let out = out.ok_or_else(|| format!("--out is required\n{USAGE}"))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    compare::sweep(&exe, manifest, runs, trace, &out)?;
    Ok(0)
}

fn compare_cmd(args: &[String], manifest: &Manifest) -> Result<i32, String> {
    let [a, b] = args else {
        return Err(format!("compare takes two ledger files\n{USAGE}"));
    };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| read_rows(&t))
    };
    let (report, regress) = compare::compare(manifest, &read(a)?, &read(b)?);
    print!("{report}");
    Ok(if regress { 1 } else { 0 })
}
