//! Reference digests every timed output is compared with.
//!
//! The reference for each (op, shape, precision, seed, variant) is one
//! call on a single-thread context at the scalar SIMD level: the oracle
//! path the library's differential suites pin to `gemm::baseline` and
//! the prefolded BLAS-3 oracle. Checked ops are referenced by their
//! unchecked twin, which they must reproduce bit for bit. For the
//! default seed the digests are committed in `digests.txt`; any other
//! seed computes them before timing starts.

use crate::adapter::{self, Engine, Inputs, Level, Op};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The seed whose reference digests are committed.
pub const DEFAULT_SEED: u64 = 1;

const COMMITTED: &str = include_str!("../digests.txt");

/// Expected output digest per (op, input variant).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct References {
    digests: HashMap<(String, u32), u64>,
}

impl References {
    /// The references for `keys` under `seed`: committed for the default
    /// seed, computed otherwise.
    pub fn for_run(keys: &[(Op, u32)], seed: u64) -> Result<References, String> {
        if seed == DEFAULT_SEED {
            let all = References::parse(COMMITTED)?;
            let mut refs = References::default();
            for &(op, v) in keys {
                let d = all.get(op, v).ok_or_else(|| {
                    format!("digests.txt has no entry for {} variant {v}", op.name())
                })?;
                refs.set(op, v, d);
            }
            Ok(refs)
        } else {
            Ok(References::compute(keys, seed, adapter::threads()))
        }
    }

    /// Compute references for `keys` on single-thread scalar contexts,
    /// `workers` keys at a time.
    pub fn compute(keys: &[(Op, u32)], seed: u64, workers: usize) -> References {
        let next = AtomicUsize::new(0);
        let out = Mutex::new(References::default());
        adapter::at_level(Level::Scalar, || {
            std::thread::scope(|s| {
                for _ in 0..workers.max(1) {
                    s.spawn(|| {
                        let engine = Engine::new(1, false);
                        while let Some(&(op, v)) = keys.get(next.fetch_add(1, Ordering::Relaxed)) {
                            let inputs = Inputs::generate(op, seed, v);
                            // An op the oracle cannot run has no reference;
                            // the timed run then reports the mismatch.
                            if let Ok(o) = engine.run(op.unchecked(), &inputs) {
                                out.lock()
                                    .expect("reference map lock")
                                    .set(op, v, o.digest());
                            }
                        }
                    });
                }
            })
        });
        out.into_inner().expect("reference map lock")
    }

    /// The expected digest of `op`'s variant `v`.
    pub fn get(&self, op: Op, v: u32) -> Option<u64> {
        self.digests.get(&(op.name(), v)).copied()
    }

    /// Set the expected digest of `op`'s variant `v`.
    pub fn set(&mut self, op: Op, v: u32, digest: u64) {
        self.digests.insert((op.name(), v), digest);
    }

    /// The `digests.txt` form: one `op variant digest` line per key,
    /// sorted.
    pub fn to_text(&self) -> String {
        let mut lines: Vec<String> = self
            .digests
            .iter()
            .map(|((op, v), d)| format!("{op} {v} {d:016x}"))
            .collect();
        lines.sort();
        let mut text = format!(
            "# Output digests of the scalar single-thread reference for seed {DEFAULT_SEED}.\n\
             # Regenerate with `benchmark digests > benchmark/digests.txt`.\n"
        );
        for l in lines {
            text.push_str(&l);
            text.push('\n');
        }
        text
    }

    fn parse(text: &str) -> Result<References, String> {
        let mut refs = References::default();
        for line in text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("bad digests.txt line: {line}");
            if f.len() != 3 {
                return Err(bad());
            }
            let v = f[1].parse::<u32>().map_err(|_| bad())?;
            let d = u64::from_str_radix(f[2], 16).map_err(|_| bad())?;
            refs.digests.insert((f[0].to_string(), v), d);
        }
        Ok(refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::Prec;

    #[test]
    fn text_form_round_trips() {
        let mut r = References::default();
        r.set(Op::Fft(64), 3, 0xdead_beef);
        r.set(Op::Gemm(Prec::Fp16, 8), 0, u64::MAX);
        assert_eq!(References::parse(&r.to_text()).unwrap(), r);
        assert!(References::parse("gemm 1").is_err());
    }

    #[test]
    fn checked_ops_are_referenced_by_their_unchecked_twin() {
        let keys = [(Op::CheckedGemm(16), 0), (Op::Syrk(16), 0)];
        let r = References::compute(&keys, 5, 2);
        let inputs = Inputs::generate(Op::CheckedGemm(16), 5, 0);
        let direct = Engine::new(2, true)
            .run(Op::CheckedGemm(16), &inputs)
            .unwrap();
        assert_eq!(r.get(Op::CheckedGemm(16), 0), Some(direct.digest()));
        assert!(r.get(Op::Syrk(16), 0).is_some());
    }
}
