//! # m3xu-benchmark — the repository benchmark
//!
//! Four seeded workloads drive the library from outside and report the
//! end-to-end metrics `BENCHMARK.json` declares; a traced run of the
//! same workload reports the per-layer ones. See `BENCHMARK.md`.

#![warn(missing_docs)]

pub mod adapter;
pub mod awake;
pub mod calib;
pub mod compare;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod oracle;
pub mod probe;
pub mod stats;
pub mod trace;
pub mod workloads;
