//! # m3xu — reproduction of "M3XU: Achieving High-Precision and Complex
//! Matrix Multiplication with Low-Precision MXUs" (SC 2024)
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`]/[`M3xu`] — the high-level device API (`gemm`, `cgemm`,
//!   `fft`, `knn`);
//! * [`fp`] — the bit-exact floating-point substrate;
//! * [`mxu`] — the functional + cycle model of the multi-mode MXU;
//! * [`gpu`] — the A100-class performance and energy model;
//! * [`synth`] — the Table III hardware cost model;
//! * [`kernels`] — GEMM/CGEMM drivers, conv2d, FFT, DNN, MRF, KNN;
//! * [`serve`] — the multi-tenant serving layer (bounded queue,
//!   batching/sharding scheduler, per-tenant accounting).
//!
//! See `examples/` for runnable applications and `crates/m3xu-bench` for
//! the harnesses that regenerate every table and figure of the paper.

pub use m3xu_core as core;
pub use m3xu_fp as fp;
pub use m3xu_gpu as gpu;
pub use m3xu_kernels as kernels;
pub use m3xu_mxu as mxu;
pub use m3xu_serve as serve;
pub use m3xu_synth as synth;

pub use m3xu_core::{
    default_context, Complex, ExecStats, GemmExecutor, GemmPrecision, M3xu, M3xuContext, M3xuError,
    MatOp, Matrix, MirrorView, OpView, Side, Triangle, C32,
};
pub use m3xu_serve::{
    BatchCounts, BatchPolicy, M3xuServe, ModeUsage, Priority, RateLimit, ServeConfig, ServeError,
    SubmitOpts, TenantStats, Ticket,
};

/// The README's Rust snippets, compiled and run as doctests so the
/// documented API cannot drift from the code.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
