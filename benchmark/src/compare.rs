//! Sets of runs: `sweep` records them as ledger rows, `compare` checks
//! two sets against the bounds `BENCHMARK.json` fixes.

use crate::json;
use crate::metrics::Manifest;
use crate::stats::{median, quartiles};
use m3xu_json::Json;
use std::io::Write as _;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Run every workload of the manifest once per seed `1..=runs`, for its
/// `run_seconds`, each in a child process of `exe`, and append one ledger
/// row per run to `out`.
pub fn sweep(
    exe: &Path,
    manifest: &Manifest,
    runs: u64,
    trace: bool,
    out: &Path,
) -> Result<(), String> {
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let seconds = manifest.run_seconds;
    for seed in 1..=runs {
        for w in &manifest.workloads {
            let t = if trace { "1" } else { "0" };
            let args = [
                "--workload",
                w,
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
                "--trace",
                t,
            ];
            eprintln!("sweep: {w} seed {seed}");
            let t0 = Instant::now();
            let child = Command::new(exe)
                .args(args)
                .output()
                .map_err(|e| e.to_string())?;
            let wall_s = t0.elapsed().as_secs_f64();
            let stdout = String::from_utf8_lossy(&child.stdout);
            let last = stdout.lines().last().unwrap_or("");
            if !child.status.success() {
                return Err(format!("{w} seed {seed} failed ({}): {last}", child.status));
            }
            // The host's speed over the run and the end-to-end values as
            // measured, before they were read at the reference speed.
            let note = |prefix: &str| {
                stdout
                    .lines()
                    .find_map(|l| l.trim().strip_prefix(prefix).map(str::to_string))
            };
            let host_speed =
                note("host speed ").and_then(|r| r.split_whitespace().next()?.parse::<f64>().ok());
            let measured = note("as measured: ").unwrap_or_default();
            let measured: Vec<(String, Json)> = measured
                .split(", ")
                .filter_map(|m| {
                    let mut f = m.split_whitespace();
                    Some((f.next()?.to_string(), Json::Float(f.next()?.parse().ok()?)))
                })
                .collect();
            let row = Json::Obj(vec![
                ("workload".into(), Json::Str(w.clone())),
                ("seed".into(), Json::UInt(seed)),
                ("seconds".into(), Json::UInt(seconds)),
                ("trace".into(), Json::Bool(trace)),
                ("wall_s".into(), Json::Float(wall_s)),
                (
                    "threads".into(),
                    Json::UInt(crate::adapter::threads() as u64),
                ),
                (
                    "host_speed".into(),
                    host_speed.map_or(Json::Null, Json::Float),
                ),
                ("measured".into(), Json::Obj(measured)),
                ("result".into(), json::parse(last)?),
            ]);
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(out)
                .map_err(|e| e.to_string())?;
            writeln!(f, "{}", json::compact(&row)).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// One ledger row: which run, and the values it printed.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Whether the run was traced.
    pub trace: bool,
    /// Operations the run attempted.
    pub attempted: u64,
    /// Operations that errored, were shed, missed their deadline, or
    /// differ from the reference.
    pub failed: u64,
    /// Metric name and value.
    pub values: Vec<(String, f64)>,
}

/// Parse a ledger file (one JSON row per line).
pub fn read_rows(text: &str) -> Result<Vec<Row>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let v = json::parse(line)?;
            let workload = json::get(&v, "workload")
                .and_then(json::str)
                .ok_or("row without workload")?;
            let trace = matches!(json::get(&v, "trace"), Some(Json::Bool(true)));
            let result = json::get(&v, "result").ok_or("row without result")?;
            let count = |key: &str| {
                json::get(result, key)
                    .and_then(json::num)
                    .map(|x| x as u64)
                    .ok_or_else(|| format!("row without '{key}'"))
            };
            let values = match json::get(result, "metrics") {
                Some(Json::Obj(pairs)) => pairs
                    .iter()
                    .filter_map(|(k, m)| {
                        Some((k.clone(), json::get(m, "value").and_then(json::num)?))
                    })
                    .collect(),
                _ => return Err("row without metrics".to_string()),
            };
            Ok(Row {
                workload: workload.to_string(),
                trace,
                attempted: count("attempted")?,
                failed: count("failed")?,
                values,
            })
        })
        .collect()
}

/// Failed and attempted operations over the untraced rows of workload
/// `w`.
fn failures(rows: &[Row], w: &str) -> (u64, u64) {
    rows.iter()
        .filter(|r| r.workload == w && !r.trace)
        .fold((0, 0), |(f, a), r| (f + r.failed, a + r.attempted))
}

/// The outcome of one (workload, metric) comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Agree,
    /// Worse than the bound allows.
    Regress,
    /// A side's spread exceeds the bound, so the bound cannot decide.
    Unresolved,
    /// A side has fewer than two runs.
    Missing,
}

/// Median, quartiles and spread of one side.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    /// Runs.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Side {
    fn of(xs: &[f64]) -> Side {
        let (q1, q3) = quartiles(xs);
        Side {
            n: xs.len(),
            median: median(xs),
            q1,
            q3,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// Judge `b` against the baseline `a` for a metric with direction
/// `better` and regression bound `bound`.
pub fn verdict(a: &[f64], b: &[f64], better: &str, bound: f64) -> (Verdict, Option<(Side, Side)>) {
    if a.len() < 2 || b.len() < 2 {
        return (Verdict::Missing, None);
    }
    let (sa, sb) = (Side::of(a), Side::of(b));
    let worse = match better {
        "lower" => (sb.median - sa.median) / sa.median,
        _ => (sa.median - sb.median) / sa.median,
    };
    let v = if sa.spread() > bound || sb.spread() > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regress
    } else {
        Verdict::Agree
    };
    (v, Some((sa, sb)))
}

/// Compare every end-to-end metric of every workload. Returns the report
/// and whether any pair regressed. A run with any failed operation is a
/// regression whatever its metrics say: `failed` must stay 0 everywhere.
pub fn compare(manifest: &Manifest, a: &[Row], b: &[Row]) -> (String, bool) {
    let mut out = format!(
        "{:<16} {:<16} {:>4} {:>12} {:>9} {:>4} {:>12} {:>9} {:>7} {:>6}  verdict\n",
        "workload",
        "metric",
        "n_a",
        "median_a",
        "spread_a",
        "n_b",
        "median_b",
        "spread_b",
        "change",
        "bound"
    );
    let mut regress = false;
    for w in &manifest.workloads {
        let ((fa, na), (fb, nb)) = (failures(a, w), failures(b, w));
        let v = if fa + fb > 0 {
            Verdict::Regress
        } else {
            Verdict::Agree
        };
        regress |= v == Verdict::Regress;
        out.push_str(&format!(
            "{w:<16} {:<16} failed {fa} of {na} operations in A, {fb} of {nb} in B  {v:?}\n",
            "operations"
        ));
        for d in &manifest.end_to_end {
            let pick = |rows: &[Row]| -> Vec<f64> {
                rows.iter()
                    .filter(|r| &r.workload == w && !r.trace)
                    .filter_map(|r| r.values.iter().find(|(k, _)| k == &d.name).map(|(_, v)| *v))
                    .collect()
            };
            let bound = d.bound.unwrap_or(0.0);
            let better = d.better.as_deref().unwrap_or("lower");
            let (v, sides) = verdict(&pick(a), &pick(b), better, bound);
            regress |= v == Verdict::Regress;
            let Some((sa, sb)) = sides else {
                out.push_str(&format!("{w:<16} {:<16} missing\n", d.name));
                continue;
            };
            let steady = if sa.spread().max(sb.spread()) > bound / 3.0 {
                " (spread above a third of the bound)"
            } else {
                ""
            };
            out.push_str(&format!(
                "{w:<16} {:<16} {:>4} {:>12.6} {:>8.2}% {:>4} {:>12.6} {:>8.2}% {:>+6.2}% {:>5.0}%  {v:?}{steady}\n",
                d.name,
                sa.n,
                sa.median,
                sa.spread() * 100.0,
                sb.n,
                sb.median,
                sb.spread() * 100.0,
                (sb.median / sa.median - 1.0) * 100.0,
                bound * 100.0,
            ));
        }
    }
    (out, regress)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [112.0, 113.0, 111.0, 112.5, 111.5];
        assert_eq!(verdict(&base, &base, "lower", 0.1).0, Verdict::Agree);
        assert_eq!(verdict(&base, &slower, "lower", 0.1).0, Verdict::Regress);
        assert_eq!(verdict(&base, &slower, "higher", 0.1).0, Verdict::Agree);
        assert_eq!(verdict(&slower, &base, "higher", 0.1).0, Verdict::Regress);
        let wide = [50.0, 100.0, 150.0, 75.0, 125.0];
        assert_eq!(verdict(&base, &wide, "lower", 0.1).0, Verdict::Unresolved);
        assert_eq!(verdict(&base, &[1.0], "lower", 0.1).0, Verdict::Missing);
    }

    fn ledger_line(seed: u64, failed: u64, gflops: f64) -> String {
        format!(
            r#"{{"workload": "small-direct", "seed": {seed}, "seconds": 20, "trace": false, "threads": 2, "result": {{"correct": true, "attempted": 100, "failed": {failed}, "metrics": {{"gflops": {{"value": {gflops}, "unit": "GFLOP/s"}}}}}}}}"#
        )
    }

    #[test]
    fn rows_parse_from_ledger_lines() {
        let rows = read_rows(&ledger_line(1, 3, 0.5)).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].workload, "small-direct");
        assert!(!rows[0].trace);
        assert_eq!((rows[0].attempted, rows[0].failed), (100, 3));
        assert_eq!(rows[0].values, vec![("gflops".to_string(), 0.5)]);
        let without_failed =
            r#"{"workload": "w", "trace": false, "result": {"attempted": 1, "metrics": {}}}"#;
        assert!(read_rows(without_failed).is_err());
    }

    #[test]
    fn a_failed_operation_regresses_even_when_every_metric_agrees() {
        let m = crate::metrics::manifest().unwrap();
        let set = |failed_in_seed_3: u64| {
            let text: Vec<String> = (1..=5)
                .map(|s| ledger_line(s, if s == 3 { failed_in_seed_3 } else { 0 }, 0.5))
                .collect();
            read_rows(&text.join("\n")).unwrap()
        };
        let (clean, shed) = (set(0), set(1));
        let (report, regress) = compare(&m, &clean, &clean);
        assert!(!regress, "{report}");
        let (report, regress) = compare(&m, &clean, &shed);
        assert!(regress, "{report}");
        assert!(report.contains("failed 0 of 500 operations in A, 1 of 500 in B  Regress"));
        assert!(compare(&m, &shed, &clean).1, "a failing baseline fails too");
    }
}
