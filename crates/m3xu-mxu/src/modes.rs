//! Operating modes of the multi-mode MXU and their timing properties.
//!
//! The mode determines (a) how many sequencing **steps** each MMA takes,
//! (b) how the instruction's `K` dimension relates to the native FP16
//! shape (wider operands halve/quarter the elements a register fetch
//! delivers), and therefore (c) the throughput relative to FP16 peak —
//! the corollaries of §III:
//!
//! | mode          | steps | K divisor | rel. throughput |
//! |---------------|------:|----------:|----------------:|
//! | FP16/BF16     |     1 |         1 |          1      |
//! | TF32          |     1 |         2 |          1/2    |
//! | M3XU FP32     |     2 |         2 |          1/4    | (Corollary 2)
//! | M3XU FP32-fast|     2†|         2 |          1/4†   | (truncated 3-term)
//! | M3XU FP32C    |     4 |         4 |          1/16   | (Corollary 3)
//! | M3XU FP64     |     2*|         4 |          1/8*   | (§IV-C, 27-bit muls)
//! | M3XU FP64-emu |     7 |         4 |          1/28   | (5×12-bit slices)
//! | M3XU FP64C    |     4*|         8 |          1/32*  |
//!
//! (*) The FP64 extension assumes the §IV-C variant with 27-bit multiplier
//! columns; with only 12-bit multipliers the step counts would scale by
//! the larger split factor. That 12-bit-only point in the design space is
//! exactly what `M3xuFp64Emu` realises: 5 slices of the 53-bit significand
//! (≤ 11 bits each), 25 cross terms per MAC, scheduled over the 4-lane
//! dot-product columns as `ceil(frag_k · terms / 4)` steps.
//!
//! (†) The fast FP32 mode drops the deepest (`lo·lo`) cross term — the
//! 3xTF32-style approximation. Its 2·3 = 6 lane products per output still
//! need `ceil(6/4) = 2` steps, so its *step* model matches exact FP32; the
//! win is 25% fewer multiplier activations (lane products / energy) and
//! proportionally less scalar-path work.

use m3xu_fp::format::{FloatFormat, BF16, FP16, FP32, FP64, TF32};
use m3xu_fp::split::{SliceConfig, FP32_SLICES_EXACT, FP64_SLICES_EMULATED};

/// The operating mode of one MMA instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MxuMode {
    /// Native FP16 (the baseline Tensor-Core mode).
    Fp16,
    /// Native BF16.
    Bf16,
    /// TF32: FP32 storage, 11-bit significand, single step (precision-lossy).
    Tf32,
    /// M3XU true FP32: two-step, bit-exact (§IV-A).
    M3xuFp32,
    /// M3XU fast FP32: the truncated 3-term schedule (drops `lo·lo`) — the
    /// 3xTF32-style approximation on the same 2-slice operands.
    M3xuFp32Fast,
    /// M3XU FP32 complex: four-step, bit-exact (§IV-B).
    M3xuFp32c,
    /// M3XU FP64 extension (§IV-C).
    M3xuFp64,
    /// M3XU emulated FP64 on 12-bit multipliers: 5 mantissa slices, 25
    /// exact cross terms per MAC (the Ozaki-scheme point of the §IV-C
    /// design space).
    M3xuFp64Emu,
    /// M3XU FP64 complex extension (§IV-C).
    M3xuFp64c,
}

impl MxuMode {
    /// All modes, for exhaustive sweeps.
    pub const ALL: [MxuMode; 9] = [
        MxuMode::Fp16,
        MxuMode::Bf16,
        MxuMode::Tf32,
        MxuMode::M3xuFp32,
        MxuMode::M3xuFp32Fast,
        MxuMode::M3xuFp32c,
        MxuMode::M3xuFp64,
        MxuMode::M3xuFp64Emu,
        MxuMode::M3xuFp64c,
    ];

    /// Sequencing steps per MMA instruction.
    ///
    /// For the 12-bit slice family these follow the lane law
    /// `ceil(frag_k · terms_per_mac / 4)` — the four dot-product lanes per
    /// output column of the baseline unit: FP32 `ceil(2·4/4) = 2`, FP32C
    /// `ceil(1·16/4) = 4`, FP64-emu `ceil(1·25/4) = 7`. The §IV-C 27-bit
    /// FP64 variants keep their declared counts (their lanes are wider).
    pub fn steps(self) -> u32 {
        match self {
            MxuMode::Fp16 | MxuMode::Bf16 | MxuMode::Tf32 => 1,
            MxuMode::M3xuFp32 | MxuMode::M3xuFp32Fast | MxuMode::M3xuFp64 => 2,
            MxuMode::M3xuFp32c | MxuMode::M3xuFp64c => 4,
            MxuMode::M3xuFp64Emu => 7,
        }
    }

    /// Exact cross-product terms the mode schedules per MAC: the lanes of
    /// one element in its [`crate::assign::schedule`] — `N²` for a full
    /// N-entry schedule, `N(N+1)/2` for the truncated fast one, all four
    /// component products' terms in the complex modes.
    /// `lane_products = macs × terms_per_mac`.
    pub fn terms_per_mac(self) -> u64 {
        crate::assign::schedule(self).lanes.len() as u64
    }

    /// The slice configuration behind a 12-bit slice-family mode, `None`
    /// for narrow and 27-bit-multiplier modes.
    pub fn slice_config(self) -> Option<SliceConfig> {
        match self {
            MxuMode::M3xuFp32 | MxuMode::M3xuFp32Fast | MxuMode::M3xuFp32c => {
                Some(FP32_SLICES_EXACT)
            }
            MxuMode::M3xuFp64Emu => Some(FP64_SLICES_EMULATED),
            _ => None,
        }
    }

    /// Factor by which the native FP16 `K` dimension shrinks in this mode
    /// (operand storage width / 16 bits, times 2 for complex).
    pub fn k_divisor(self) -> usize {
        match self {
            MxuMode::Fp16 | MxuMode::Bf16 => 1,
            MxuMode::Tf32 | MxuMode::M3xuFp32 | MxuMode::M3xuFp32Fast => 2,
            MxuMode::M3xuFp32c | MxuMode::M3xuFp64 | MxuMode::M3xuFp64Emu => 4,
            MxuMode::M3xuFp64c => 8,
        }
    }

    /// Throughput relative to FP16 peak for the same matrix-element count:
    /// `1 / (steps * k_divisor)` — Corollaries 2 and 3 of the paper.
    pub fn relative_throughput(self) -> f64 {
        1.0 / (self.steps() as f64 * self.k_divisor() as f64)
    }

    /// Bytes per scalar element in memory (complex elements count both
    /// components).
    pub fn element_bytes(self) -> usize {
        match self {
            MxuMode::Fp16 | MxuMode::Bf16 => 2,
            MxuMode::Tf32 | MxuMode::M3xuFp32 | MxuMode::M3xuFp32Fast => 4,
            MxuMode::M3xuFp32c | MxuMode::M3xuFp64 | MxuMode::M3xuFp64Emu => 8,
            MxuMode::M3xuFp64c => 16,
        }
    }

    /// The storage format of real scalars in this mode (complex modes store
    /// interleaved pairs of this format).
    pub fn scalar_format(self) -> FloatFormat {
        match self {
            MxuMode::Fp16 => FP16,
            MxuMode::Bf16 => BF16,
            MxuMode::Tf32 => TF32,
            MxuMode::M3xuFp32 | MxuMode::M3xuFp32Fast | MxuMode::M3xuFp32c => FP32,
            MxuMode::M3xuFp64 | MxuMode::M3xuFp64Emu | MxuMode::M3xuFp64c => FP64,
        }
    }

    /// True for complex-valued modes.
    pub fn is_complex(self) -> bool {
        matches!(self, MxuMode::M3xuFp32c | MxuMode::M3xuFp64c)
    }

    /// True for the modes that exist only on M3XU (not on the baseline MXU).
    pub fn is_m3xu_extension(self) -> bool {
        !matches!(self, MxuMode::Fp16 | MxuMode::Bf16 | MxuMode::Tf32)
    }

    /// Short display name matching the paper's vocabulary.
    pub fn name(self) -> &'static str {
        match self {
            MxuMode::Fp16 => "fp16",
            MxuMode::Bf16 => "bf16",
            MxuMode::Tf32 => "tf32",
            MxuMode::M3xuFp32 => "m3xu-fp32",
            MxuMode::M3xuFp32Fast => "m3xu-fp32-fast",
            MxuMode::M3xuFp32c => "m3xu-fp32c",
            MxuMode::M3xuFp64 => "m3xu-fp64",
            MxuMode::M3xuFp64Emu => "m3xu-fp64-emu",
            MxuMode::M3xuFp64c => "m3xu-fp64c",
        }
    }
}

impl std::fmt::Display for MxuMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Pipeline organisation of the data-assignment stage — the two synthesis
/// variants of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineVariant {
    /// Data assignment shares the compute cycle: no extra latency, but the
    /// cycle time stretches 21% (Table III "M3XU" column).
    NonPipelined,
    /// Data assignment is its own pipeline stage: baseline cycle time, one
    /// extra cycle of latency per MMA, more area (Table III "M3XU
    /// pipelined" column).
    Pipelined,
}

impl PipelineVariant {
    /// Cycle-time ratio relative to the baseline FP16 MXU (Table III).
    pub fn cycle_time_ratio(self) -> f64 {
        match self {
            PipelineVariant::NonPipelined => 1.21,
            PipelineVariant::Pipelined => 1.00,
        }
    }

    /// Clock frequency ratio (inverse of cycle time). The paper's testbed
    /// realises this as 1170 MHz -> 960 MHz (= 1/1.21) for the
    /// non-pipelined kernels.
    pub fn frequency_ratio(self) -> f64 {
        1.0 / self.cycle_time_ratio()
    }

    /// Pipeline latency in cycles added on top of the per-step cycles.
    pub fn extra_latency_cycles(self) -> u64 {
        match self {
            PipelineVariant::NonPipelined => 0,
            PipelineVariant::Pipelined => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corollary_2_fp32_quarter_throughput() {
        assert_eq!(MxuMode::M3xuFp32.steps(), 2);
        assert_eq!(MxuMode::M3xuFp32.k_divisor(), 2);
        assert_eq!(MxuMode::M3xuFp32.relative_throughput(), 0.25);
    }

    #[test]
    fn corollary_3_fp32c_sixteenth_throughput() {
        assert_eq!(MxuMode::M3xuFp32c.steps(), 4);
        assert_eq!(MxuMode::M3xuFp32c.relative_throughput(), 0.0625);
    }

    #[test]
    fn tf32_is_half_rate_like_a100() {
        // Table I: TF32 156 TFLOPS vs FP16 312 TFLOPS.
        assert_eq!(MxuMode::Tf32.relative_throughput(), 0.5);
    }

    #[test]
    fn element_sizes() {
        assert_eq!(MxuMode::Fp16.element_bytes(), 2);
        assert_eq!(MxuMode::Tf32.element_bytes(), 4); // 32-bit container
        assert_eq!(MxuMode::M3xuFp32c.element_bytes(), 8);
    }

    #[test]
    fn only_m3xu_modes_are_extensions() {
        assert!(!MxuMode::Fp16.is_m3xu_extension());
        assert!(!MxuMode::Tf32.is_m3xu_extension());
        assert!(MxuMode::M3xuFp32.is_m3xu_extension());
        assert!(MxuMode::M3xuFp64c.is_m3xu_extension());
    }

    #[test]
    fn pipeline_ratios_match_table3() {
        assert_eq!(PipelineVariant::NonPipelined.cycle_time_ratio(), 1.21);
        assert_eq!(PipelineVariant::Pipelined.cycle_time_ratio(), 1.00);
        // 1170 MHz * (1/1.21) ~= 967 MHz — the paper clocks at 960.
        let f = 1170.0 * PipelineVariant::NonPipelined.frequency_ratio();
        assert!((f - 966.9).abs() < 1.0);
    }

    #[test]
    fn complex_flags() {
        assert!(MxuMode::M3xuFp32c.is_complex());
        assert!(!MxuMode::M3xuFp32.is_complex());
    }

    #[test]
    fn slice_family_steps_follow_the_lane_law() {
        // For every 12-bit slice-family mode, steps = ceil(frag_k · terms
        // / 4): the four dot-product lanes per output column of the
        // baseline FP16 unit (k = 4, 1 term, 1 step).
        let baseline_k = 4u64;
        for mode in [
            MxuMode::M3xuFp32,
            MxuMode::M3xuFp32Fast,
            MxuMode::M3xuFp32c,
            MxuMode::M3xuFp64Emu,
        ] {
            let frag_k = (baseline_k as usize / mode.k_divisor()).max(1) as u64;
            let lanes = frag_k * mode.terms_per_mac();
            let steps = lanes.div_ceil(baseline_k);
            assert_eq!(mode.steps() as u64, steps, "{mode}");
        }
    }

    #[test]
    fn new_mode_timing_properties() {
        assert_eq!(MxuMode::M3xuFp32Fast.steps(), 2);
        assert_eq!(MxuMode::M3xuFp32Fast.k_divisor(), 2);
        assert_eq!(MxuMode::M3xuFp32Fast.terms_per_mac(), 3);
        assert_eq!(MxuMode::M3xuFp32Fast.relative_throughput(), 0.25);
        assert_eq!(MxuMode::M3xuFp64Emu.steps(), 7);
        assert_eq!(MxuMode::M3xuFp64Emu.k_divisor(), 4);
        assert_eq!(MxuMode::M3xuFp64Emu.terms_per_mac(), 25);
        assert_eq!(MxuMode::M3xuFp64Emu.element_bytes(), 8);
        assert!(MxuMode::M3xuFp32Fast.is_m3xu_extension());
        assert!(MxuMode::M3xuFp64Emu.is_m3xu_extension());
        assert_eq!(
            MxuMode::M3xuFp64Emu
                .slice_config()
                .unwrap()
                .max_slice_bits(),
            11
        );
    }

    #[test]
    fn terms_per_mac_reproduces_legacy_step_times_epe() {
        // For the pre-existing modes the term count equals steps × entries
        // per element — the quantity fragment_stats historically recorded.
        assert_eq!(MxuMode::Fp16.terms_per_mac(), 1);
        assert_eq!(MxuMode::Tf32.terms_per_mac(), 1);
        assert_eq!(MxuMode::M3xuFp32.terms_per_mac(), 2 * 2);
        assert_eq!(MxuMode::M3xuFp32c.terms_per_mac(), 4 * 4);
        assert_eq!(MxuMode::M3xuFp64.terms_per_mac(), 2 * 2);
        assert_eq!(MxuMode::M3xuFp64c.terms_per_mac(), 4 * 4);
    }
}
