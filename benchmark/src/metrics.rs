//! Metric values, the `BENCHMARK.json` manifest that declares them, and
//! the result line.

use crate::json;
use m3xu_json::Json;

/// The manifest, compiled in so that the binary and the file cannot
/// disagree about which metrics exist.
pub const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Declared unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `higher` or `lower` (end-to-end metrics only).
    pub better: Option<String>,
    /// Regression bound as a share of the baseline median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the binary reads.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Declared>,
    /// Per-layer metrics.
    pub per_layer: Vec<Declared>,
}

/// Parse the compiled-in manifest.
pub fn manifest() -> Result<Manifest, String> {
    parse_manifest(MANIFEST)
}

fn parse_manifest(text: &str) -> Result<Manifest, String> {
    let v = json::parse(text)?;
    let arr = |key: &str| match json::get(&v, key) {
        Some(Json::Arr(items)) => Ok(items.clone()),
        _ => Err(format!("BENCHMARK.json: '{key}' is not a list")),
    };
    let field = |item: &Json, key: &str| -> Result<String, String> {
        json::get(item, key)
            .and_then(json::str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: entry without '{key}'"))
    };
    let declared = |items: Vec<Json>, e2e: bool| -> Result<Vec<Declared>, String> {
        items
            .iter()
            .map(|m| {
                Ok(Declared {
                    name: field(m, "name")?,
                    unit: field(m, "unit")?,
                    better: if e2e { Some(field(m, "better")?) } else { None },
                    bound: if e2e {
                        Some(
                            json::get(m, "bound")
                                .and_then(json::num)
                                .ok_or("BENCHMARK.json: bound")?,
                        )
                    } else {
                        None
                    },
                })
            })
            .collect()
    };
    Ok(Manifest {
        run_seconds: json::get(&v, "run_seconds")
            .and_then(json::num)
            .ok_or("BENCHMARK.json: run_seconds")? as u64,
        workloads: arr("workloads")?
            .iter()
            .map(|w| field(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: declared(arr("end_to_end")?, true)?,
        per_layer: declared(arr("per_layer")?, false)?,
    })
}

impl Manifest {
    /// The metrics a run in this mode must print.
    pub fn expected(&self, trace: bool) -> &[Declared] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Fail unless `metrics` is exactly the declared set for the mode,
    /// each with its declared unit and a finite value.
    pub fn check(&self, metrics: &[Metric], trace: bool) -> Result<(), String> {
        let want = self.expected(trace);
        for m in metrics {
            let d = want
                .iter()
                .find(|d| d.name == m.name)
                .ok_or_else(|| format!("metric '{}' is not declared in BENCHMARK.json", m.name))?;
            if d.unit != m.unit {
                return Err(format!(
                    "metric '{}' has unit '{}', declared '{}'",
                    m.name, m.unit, d.unit
                ));
            }
            if !m.value.is_finite() {
                return Err(format!("metric '{}' is not finite ({})", m.name, m.value));
            }
        }
        for d in want {
            let n = metrics.iter().filter(|m| m.name == d.name).count();
            if n != 1 {
                return Err(format!("metric '{}' printed {n} times, want once", d.name));
            }
        }
        Ok(())
    }
}

/// The result object the run prints as its last line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let v = Json::Obj(vec![
                ("value".into(), Json::Float(m.value)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]);
            (m.name.clone(), v)
        })
        .collect();
    json::compact(&Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::UInt(attempted)),
        ("failed".into(), Json::UInt(failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A name the manifest may hold: a letter or digit first, then at
    /// most 63 more letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn manifest_names_are_valid_and_unique() {
        let m = manifest().expect("BENCHMARK.json parses");
        let mut names: Vec<&str> = m.workloads.iter().map(String::as_str).collect();
        names.extend(
            m.end_to_end
                .iter()
                .chain(&m.per_layer)
                .map(|d| d.name.as_str()),
        );
        for n in &names {
            assert!(valid_name(n), "invalid name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        assert!(m
            .end_to_end
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        for d in &m.end_to_end {
            let b = d.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", d.name);
            assert!(matches!(d.better.as_deref(), Some("higher" | "lower")));
        }
        let setup = m
            .end_to_end
            .iter()
            .find(|d| d.name == "setup_s")
            .unwrap()
            .bound;
        assert!(
            m.end_to_end.iter().all(|d| d.bound <= setup),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn check_rejects_undeclared_missing_and_mislabelled_metrics() {
        let m = manifest().unwrap();
        let good: Vec<Metric> = m
            .end_to_end
            .iter()
            .map(|d| {
                metric(
                    d.name.clone(),
                    1.0,
                    Box::leak(d.unit.clone().into_boxed_str()),
                )
            })
            .collect();
        assert!(m.check(&good, false).is_ok());
        let mut extra = good.clone();
        extra.push(metric("not_declared", 1.0, "s"));
        assert!(m.check(&extra, false).is_err());
        assert!(m.check(&good[1..], false).is_err());
        let mut wrong_unit = good.clone();
        wrong_unit[0].unit = "furlongs";
        assert!(m.check(&wrong_unit, false).is_err());
        let mut nan = good;
        nan[0].value = f64::NAN;
        assert!(m.check(&nan, false).is_err());
    }

    #[test]
    fn result_line_is_one_json_object_with_the_four_result_keys() {
        let line = result_line(true, 3, 0, &[metric("setup_s", 0.8127, "s")]);
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = match &v {
            Json::Obj(p) => p.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let s = json::get(json::get(&v, "metrics").unwrap(), "setup_s").unwrap();
        assert_eq!(json::num(json::get(s, "value").unwrap()), Some(0.8127));
    }
}
