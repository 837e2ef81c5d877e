//! [`FaultyExecutor`] — a [`GemmExecutor`] that layers fault injection
//! and ABFT verification over a borrowed [`M3xuContext`].
//!
//! The wrapper is the chaos-testing seam the serve layer and the test
//! suites share: any kernel generic over [`GemmExecutor`] (FFT, conv,
//! CG, …) runs unmodified over a `FaultyExecutor`. Armed, each call runs
//! the one GEMM driver ([`crate::gemm`]) under the wrapper's plan, which
//! picks the driver's checked self-healing tile body; unarmed, the call
//! is the context's own.
//!
//! Two contracts matter:
//!
//! * **Unarmed is free.** A `FaultyExecutor` built with no plan
//!   ([`FaultyExecutor::unarmed`]) delegates straight to the context and
//!   returns the context's own result — bit-identical, identical
//!   counters, no checksum work beyond the context's own. Its
//!   [`FaultSummary`](m3xu_mxu::fault::FaultSummary) is the context's
//!   too: zero on an unarmed context, the detected and corrected faults
//!   of the context's checked body on an armed one. The differential
//!   test suite pins this.
//! * **Armed is honest.** With a plan, every GEMM precision — true FP32,
//!   the truncated fast schedule, the quantising narrow engines
//!   (FP16/BF16/TF32), and FP32C — runs the checked body: every
//!   recovered run is bit-identical to the oracle, its result's `faults`
//!   report what the plan injected and the body healed, and an
//!   unrecoverable one returns
//!   [`M3xuError::FaultDetected`]
//!   — never a panic, never silent corruption the checksums can see.
//!   (The expected checksums read the packed, quantised values, so
//!   quantisation happens on both sides of the comparison.)

use crate::context::{GemmExecutor, M3xuContext};
use crate::gemm::{self, Call, GemmPrecision, GemmResult};
use m3xu_fp::complex::Complex;
use m3xu_mxu::error::M3xuError;
use m3xu_mxu::fault::FaultPlan;
use m3xu_mxu::matrix::Matrix;
use m3xu_mxu::modes::MxuMode;
use std::sync::Arc;

type C32 = Complex<f32>;

/// A [`GemmExecutor`] wrapping a context with an optional fault plan.
///
/// See the [module docs](self) for the unarmed/armed contracts.
pub struct FaultyExecutor<'c> {
    ctx: &'c M3xuContext,
    plan: Option<Arc<FaultPlan>>,
}

impl<'c> FaultyExecutor<'c> {
    /// Wrap `ctx` with no plan: pure delegation, bit-identical to calling
    /// the context directly.
    pub fn unarmed(ctx: &'c M3xuContext) -> Self {
        FaultyExecutor { ctx, plan: None }
    }

    /// Wrap `ctx` with an armed plan: every GEMM precision runs the
    /// ABFT-checked self-healing driver under `plan`'s fault schedule
    /// (the context's own plan, if any, is ignored for these calls).
    pub fn armed(ctx: &'c M3xuContext, plan: Arc<FaultPlan>) -> Self {
        FaultyExecutor {
            ctx,
            plan: Some(plan),
        }
    }

    /// The wrapped context.
    pub fn context(&self) -> &'c M3xuContext {
        self.ctx
    }

    /// The armed plan, if any.
    pub fn plan(&self) -> Option<&Arc<FaultPlan>> {
        self.plan.as_ref()
    }
}

impl GemmExecutor for FaultyExecutor<'_> {
    fn try_gemm_f32(
        &self,
        precision: GemmPrecision,
        a: &Matrix<f32>,
        b: &Matrix<f32>,
        c: &Matrix<f32>,
    ) -> Result<GemmResult<f32>, M3xuError> {
        let Some(plan) = &self.plan else {
            return self.ctx.try_gemm_f32(precision, a, b, c);
        };
        gemm::check_precision(precision, true, "gemm_f32")?;
        let call = Call::new("gemm", precision.mode(), 1.0, 1.0);
        gemm::drive(self.ctx, &call, a, b, c, Some(plan))
    }

    fn try_cgemm_c32(
        &self,
        a: &Matrix<C32>,
        b: &Matrix<C32>,
        c: &Matrix<C32>,
    ) -> Result<GemmResult<C32>, M3xuError> {
        let Some(plan) = &self.plan else {
            return self.ctx.try_cgemm_c32(a, b, c);
        };
        let call = Call::new("cgemm", MxuMode::M3xuFp32c, C32::ONE, C32::ONE);
        gemm::drive(self.ctx, &call, a, b, c, Some(plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::M3xuContext;

    #[test]
    fn unarmed_executor_is_pure_delegation() {
        let ctx = M3xuContext::with_threads(2);
        let exec = FaultyExecutor::unarmed(&ctx);
        let a = Matrix::<f32>::random(17, 9, 21);
        let b = Matrix::<f32>::random(9, 13, 22);
        let c = Matrix::<f32>::random(17, 13, 23);
        let via_exec = exec
            .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
            .unwrap();
        let direct = gemm::baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
        for (x, y) in via_exec.d.as_slice().iter().zip(direct.d.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(via_exec.stats, direct.stats);
    }

    #[test]
    fn armed_executor_recovers_and_matches_oracle() {
        let ctx = M3xuContext::with_threads(2);
        let plan = Arc::new(FaultPlan::new(42, 0.05));
        let exec = FaultyExecutor::armed(&ctx, plan);
        let a = Matrix::<f32>::random(33, 17, 31);
        let b = Matrix::<f32>::random(17, 29, 32);
        let c = Matrix::<f32>::random(33, 29, 33);
        let r = exec
            .try_gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c)
            .unwrap();
        let summary = r.faults;
        let oracle = gemm::baseline::gemm_f32(GemmPrecision::M3xuFp32, &a, &b, &c);
        for (x, y) in r.d.as_slice().iter().zip(oracle.d.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(summary.detected, summary.corrected);
    }
}
