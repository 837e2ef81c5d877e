//! # m3xu-mxu — the M3XU multi-mode matrix processing unit
//!
//! A faithful functional + cycle model of the paper's contribution: a
//! Tensor-Core-style MXU whose 12-bit-mantissa dot-product units execute
//!
//! * native FP16 / BF16 / TF32 MMAs in one step (the baseline behaviour),
//! * **true IEEE-754 FP32** MMAs in two steps (§IV-A), and
//! * **FP32 complex** MMAs in four steps (§IV-B),
//! * plus the §IV-C FP64 / FP64C extensions,
//!
//! with bit-exact results (no TF32-style truncation) and explicit modelling
//! of the data-assignment stage, the weighted-shift accumulation, and the
//! pipelined vs non-pipelined variants of Table III.
//!
//! ## Structure
//!
//! * [`matrix`] — dense row-major matrices and reference GEMMs;
//! * [`buffer`] — input-buffer entries and operand decode (Fig. 3a wiring);
//! * [`assign`] — the data-assignment stage: one `const` lane table per
//!   schedule, which every engine here and the synth cost model read;
//! * [`dpu`] — the dot-product unit's integer multiply/shift/accumulate
//!   datapath with IEEE special handling;
//! * [`mma`] — MMA instruction execution and statistics;
//! * [`modes`] — operating modes and their timing (Corollaries 1–3);
//! * [`fault`] / [`abft`] — deterministic fault injection and the
//!   Mersenne-prime checksum algebra the self-healing drivers verify with;
//! * [`unit`](mod@unit) — the [`Mxu`] device with counters, and the
//!   expensive [`NativeFp32Mxu`] reference design.
//!
//! ## Example
//!
//! ```
//! use m3xu_mxu::matrix::Matrix;
//! use m3xu_mxu::unit::{Mxu, MxuConfig};
//!
//! let mut mxu = Mxu::new(MxuConfig::default());
//! // An FP32 fragment: 8x2 times 2x8 (the K dimension halves vs FP16).
//! let a = Matrix::<f32>::random(8, 2, 1);
//! let b = Matrix::<f32>::random(2, 8, 2);
//! let c = Matrix::<f32>::zeros(8, 8);
//! let d = mxu.mma_fp32(&a, &b, &c);
//! // Bit-exact: identical to an exact dot product rounded once.
//! assert_eq!(d.get(0, 0), {
//!     let mut acc = m3xu_fp::Kulisch::new();
//!     acc.add_product_f32(a.get(0, 0), b.get(0, 0));
//!     acc.add_product_f32(a.get(0, 1), b.get(1, 0));
//!     acc.to_f32()
//! });
//! ```

#![warn(missing_docs)]

pub mod abft;
pub mod assign;
pub mod buffer;
pub mod dpu;
pub mod error;
pub mod fault;
pub mod generic;
pub mod matrix;
pub mod mma;
pub mod modes;
pub mod packed;
pub mod unit;

pub use error::M3xuError;
pub use fault::{FaultPlan, FaultSummary};
pub use matrix::{MatOp, MatSource, Matrix, MirrorView, OpView, RealPart, TileView, Triangle};
pub use mma::{MmaShape, MmaStats};
pub use modes::{MxuMode, PipelineVariant};
pub use packed::PackedOperand;
pub use unit::{Mxu, MxuConfig, NativeFp32Mxu};
