//! # m3xu-kernels — application substrates of the M3XU reproduction
//!
//! Everything the paper's evaluation runs *on top of* the MXU:
//!
//! * [`gemm`] — the one CUTLASS-style tiled driver over the functional
//!   M3XU, parallelised across output tiles, and the [`GemmResult`] every
//!   GEMM-family call returns;
//! * [`blas3`] — the full BLAS-3 surface as calls of the same driver:
//!   `op(X)` operands, alpha/beta accumulate, SYMM/HEMM, and
//!   triangular-scheduled SYRK/HERK;
//! * [`conv2d`] — im2col convolution (the Fig. 7 CNNs' compute core);
//! * [`fft`] — reference DFT, radix-2 FFT, the tcFFT-style GEMM
//!   formulation on FP32C, and the Fig. 6 performance model;
//! * [`dnn`] — CNN layer inventories + the Fig. 7 training-latency model,
//!   and a real MLP trained end-to-end on M3XU GEMMs;
//! * [`mrf`] — extended-phase-graph MRF dictionary generation with
//!   batched complex-GEMM RF mixing, and the Fig. 8 model;
//! * [`knn`] — GEMM-formulated K-nearest neighbours and the Fig. 9
//!   heatmap model;
//! * [`poly`] — exact integer polynomial multiplication via the M3XU FFT
//!   (the introduction's security/NTT-style workload);
//! * [`quantum`] — quantum-circuit state-vector simulation on FP32C
//!   GEMMs (the introduction's quantum workload);
//! * [`solver`] — conjugate-gradient solves whose convergence separates
//!   true FP32 from TF32 (the introduction's scientific workloads);
//! * [`conv_grad`] — convolution backward passes (dgrad/wgrad), the GEMMs
//!   behind §VI-C2's 3.6x backward speedup;
//! * [`faulty`] — the [`FaultyExecutor`] chaos seam: fault injection plus
//!   ABFT-checked self-healing execution over any of the above.
//!
//! All of them execute through [`context::M3xuContext`] — one object
//! owning the worker pool, the packed-operand scratch arena, and the
//! always-on [`context::ExecStats`] instruction/traffic counters that
//! `m3xu_gpu`'s analytical model is cross-validated against. Every
//! GEMM-family op has one entry point, a fallible `M3xuContext::try_*`
//! method; callers without a context of their own use the process-wide
//! [`context::default_context`].

#![warn(missing_docs)]

pub mod blas3;
pub mod blocking;
pub mod context;
pub mod conv2d;
pub mod conv_grad;
pub mod dnn;
pub mod faulty;
pub mod fft;
pub mod gemm;
pub mod knn;
pub mod mrf;
pub mod poly;
pub mod pool;
pub mod quantum;
pub mod solver;

pub use blas3::Side;
pub use context::{default_context, ClosureExecutor, ExecStats, GemmExecutor, M3xuContext};
pub use faulty::FaultyExecutor;
pub use gemm::{GemmPrecision, GemmResult};
pub use m3xu_mxu::error::M3xuError;
pub use m3xu_mxu::fault::{FaultPlan, FaultSummary};
pub use pool::WorkerPool;
