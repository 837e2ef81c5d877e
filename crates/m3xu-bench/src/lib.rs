//! # m3xu-bench — harnesses regenerating every table and figure
//!
//! Each binary prints one of the paper's evaluation artefacts next to the
//! paper-reported values (run `cargo run -p m3xu-bench --bin all` for the
//! whole evaluation):
//!
//! | binary    | artefact |
//! |-----------|----------|
//! | `table1`  | Table I: A100 peak throughput per data type |
//! | `tables24`| Tables II & IV: the kernel inventories |
//! | `table3`  | Table III: area / cycle-time / power + §VI-A ablations |
//! | `fig4`    | Fig. 4: SGEMM & CGEMM speedups vs problem size |
//! | `fig5`    | Fig. 5: relative energy & fraction of theoretical peak |
//! | `fig6`    | Fig. 6: FFT speedup over cuFFT |
//! | `fig7`    | Fig. 7: CNN one-iteration training latency |
//! | `fig8`    | Fig. 8: MRF dictionary-generation speedup |
//! | `fig9`    | Fig. 9: KNN speedup heatmap |
//! | `all`     | everything above, plus JSON dumps under `results/` |
//!
//! Timings of the functional library itself come from the repository
//! benchmark under `benchmark/`.

#![warn(missing_docs)]

use m3xu_json::ToJson;
use std::fs;
use std::path::Path;

/// Write a serialisable artefact as pretty JSON under `results/`.
pub fn dump_json<T: ToJson + ?Sized>(name: &str, value: &T) -> std::io::Result<()> {
    let dir = Path::new("results");
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, value.to_json().to_string_pretty())?;
    Ok(())
}

/// A `(measured, paper)` pair with a relative-difference column, for the
/// EXPERIMENTS.md records.
#[derive(Debug, Clone)]
pub struct PaperComparison {
    /// What is being compared.
    pub metric: String,
    /// This reproduction's value.
    pub measured: f64,
    /// The paper's reported value.
    pub paper: f64,
}

m3xu_json::impl_to_json!(PaperComparison {
    metric,
    measured,
    paper
});

impl PaperComparison {
    /// Build a comparison row.
    pub fn new(metric: impl Into<String>, measured: f64, paper: f64) -> Self {
        PaperComparison {
            metric: metric.into(),
            measured,
            paper,
        }
    }

    /// Relative difference `(measured - paper) / paper`.
    pub fn rel_diff(&self) -> f64 {
        (self.measured - self.paper) / self.paper
    }
}

/// Render comparison rows as aligned text.
pub fn render_comparisons(rows: &[PaperComparison]) -> String {
    let mut out = format!(
        "{:48} {:>10} {:>10} {:>8}\n",
        "metric", "measured", "paper", "diff"
    );
    for r in rows {
        out.push_str(&format!(
            "{:48} {:>10.3} {:>10.3} {:>7.1}%\n",
            r.metric,
            r.measured,
            r.paper,
            100.0 * r.rel_diff()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_math() {
        let c = PaperComparison::new("x", 3.64, 3.64);
        assert_eq!(c.rel_diff(), 0.0);
        let c = PaperComparison::new("x", 4.0, 3.2);
        assert!((c.rel_diff() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn render_contains_metric() {
        let txt = render_comparisons(&[PaperComparison::new("sgemm mean speedup", 3.6, 3.64)]);
        assert!(txt.contains("sgemm mean speedup"));
        assert!(txt.contains("-1.1%"));
    }
}
