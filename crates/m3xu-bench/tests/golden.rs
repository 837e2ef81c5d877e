//! Byte-exact goldens of the paper artefacts: the JSON files `all` writes
//! under `results/` and the stdout of `ablations`, committed under
//! `golden/`. Every figure and table is a deterministic function of the
//! models (the synth cost model reads the data-assignment tables), so any
//! drift in them shows here as a diff.
//!
//! After a deliberate change, regenerate from the repository root:
//! `cargo run --release -p m3xu-bench --bin all`, copy `results/*.json`
//! into `crates/m3xu-bench/golden/`, and write
//! `cargo run --release -p m3xu-bench --bin ablations` to
//! `golden/ablations.txt`; review the diff.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// Run `exe` in a fresh, empty working directory and return its stdout
/// and that directory.
fn run_in_scratch(exe: &str, tag: &str) -> (String, PathBuf) {
    let dir = std::env::temp_dir().join(format!("m3xu-golden-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let out = Command::new(exe).current_dir(&dir).output().unwrap();
    assert!(
        out.status.success(),
        "{exe}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (String::from_utf8(out.stdout).unwrap(), dir)
}

fn sorted_names(dir: &Path, ext: &str) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(ext))
        .collect();
    names.sort();
    names
}

#[test]
fn all_writes_the_golden_json_artefacts() {
    let (_, dir) = run_in_scratch(env!("CARGO_BIN_EXE_all"), "all");
    let results = dir.join("results");
    let names = sorted_names(&golden_dir(), ".json");
    assert_eq!(names.len(), 10);
    assert_eq!(sorted_names(&results, ".json"), names);
    for name in &names {
        let got = fs::read_to_string(results.join(name)).unwrap();
        let want = fs::read_to_string(golden_dir().join(name)).unwrap();
        assert_eq!(got, want, "{name} differs from its golden");
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn ablations_stdout_matches_the_golden() {
    let (got, dir) = run_in_scratch(env!("CARGO_BIN_EXE_ablations"), "ablations");
    let want = fs::read_to_string(golden_dir().join("ablations.txt")).unwrap();
    assert_eq!(got, want);
    fs::remove_dir_all(&dir).unwrap();
}
