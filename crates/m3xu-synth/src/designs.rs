//! The five MXU designs of Table III, composed from datapath components.
//!
//! | design            | what it is                                           |
//! |-------------------|------------------------------------------------------|
//! | `baseline_fp16`   | an Ampere-class 4-lane FP16/BF16/TF32 dot-product MXU |
//! | `native_fp32`     | brute-force FP32 MXU: 24-bit multipliers, doubled     |
//! |                   | datapath + operand bandwidth, same FLOPS as FP16      |
//! | `m3xu_no_fp32c`   | M3XU with only the FP32 extension (§IV-A)             |
//! | `m3xu`            | full M3XU, FP32 + FP32C, non-pipelined assignment     |
//! | `m3xu_pipelined`  | full M3XU with a separate data-assignment stage       |
//!
//! **Power-column workload convention** (matching §VI-A's comparison): each
//! design is measured under its primary workload — the baseline and the
//! M3XU variants stream FP16 MMAs (M3XU's multi-step structures are
//! clock-gated then, costing leakage only), while the native FP32 design
//! streams FP32 MMAs with its deep multiplier arrays fully toggling (glitch
//! activity in wide Wallace trees exceeds one toggle per node per cycle,
//! which is why its power ratio, 7.97x, far exceeds its area ratio,
//! 3.55x). The non-pipelined M3XU is synthesised at a 21% relaxed clock,
//! letting the tool choose smaller cells (`freq_rel^DRIVE_GAMMA`).

use crate::components::*;
use crate::gates::{adder_depth_fo4, multiplier_depth_fo4, shifter_depth_fo4};
use crate::gates::{DRIVE_GAMMA, FO4_PS, GE_AREA_UM2};
use m3xu_mxu::assign::{COMPLEX, SPLIT};

/// A complete synthesisable design.
#[derive(Debug, Clone)]
pub struct Design {
    /// Display name (Table III column).
    pub name: &'static str,
    /// Constituent blocks.
    pub blocks: Vec<Block>,
    /// Critical-path depth in FO4.
    pub critical_path_fo4: f64,
    /// Relative clock frequency at which the design is operated
    /// (1.0 = baseline clock; the non-pipelined M3XU runs at 1/1.21).
    pub freq_rel: f64,
}

impl Design {
    /// Total area in gate equivalents.
    pub fn area_ge(&self) -> f64 {
        self.blocks.iter().map(|b| b.area_ge).sum()
    }

    /// Total area in µm² (45 nm-class).
    pub fn area_um2(&self) -> f64 {
        self.area_ge() * GE_AREA_UM2
    }

    /// Cycle time in picoseconds.
    pub fn cycle_time_ps(&self) -> f64 {
        self.critical_path_fo4 * FO4_PS
    }

    /// Relative power: activity-weighted capacitance x frequency x
    /// drive-strength selection. Synthesising at a relaxed clock lets the
    /// tool pick smaller, lower-power cells — modelled by
    /// `freq_rel^DRIVE_GAMMA` in total (see [`crate::gates::DRIVE_GAMMA`]).
    pub fn power_weight(&self) -> f64 {
        let cap: f64 = self.blocks.iter().map(|b| b.power_weight()).sum();
        cap * self.freq_rel.powf(DRIVE_GAMMA)
    }
}

/// Number of multiplier lanes per dot-product unit slice.
const LANES: u32 = 4;

/// Workload activity of the baseline datapath streaming FP16 MMAs.
const ACT_FP16: f64 = 0.50;
/// Activity of accumulate-path logic under FP16 (upper bits quiet).
const ACT_ACC: f64 = 0.40;
/// Activity of clock-gated M3XU extension structures during FP16 MMAs.
const ACT_GATED: f64 = 0.0;
/// Activity of the native FP32 design streaming FP32 MMAs.
const ACT_FP32_NATIVE: f64 = 0.90;
/// Effective multiplier-array activity of the native design (glitching in
/// deep Wallace trees on full-width data exceeds 1 toggle/node/cycle).
const ACT_MUL_NATIVE: f64 = 1.30;

/// The accumulation back-end (alignment, compression tree, accumulate add,
/// normalise/round). `w` is the internal adder width; `norm_w` the
/// significand width normalised at output.
fn accumulate_backend(w: u32, norm_w: u32, act: f64) -> Vec<Block> {
    let mut v: Vec<Block> = (0..LANES)
        .map(|i| shifter(&format!("prod-align #{i}"), w, 5, act))
        .collect();
    v.push(adder("sum-tree L1a", w, act));
    v.push(adder("sum-tree L1b", w, act));
    v.push(adder("sum-tree L2", w, act));
    v.push(adder("acc-add", w, act));
    v.push(normalizer("normalise/round", norm_w, act));
    v
}

/// Shared baseline compute path depth (decode + multiplier + accumulate).
fn compute_path_fo4(mul_bits: u32, acc_w: u32) -> f64 {
    4.0 // operand decode / hidden-bit insertion
        + multiplier_depth_fo4(mul_bits, mul_bits)
        + shifter_depth_fo4(5)
        + 3.0 * adder_depth_fo4(acc_w) // two tree levels + accumulate add
        + 7.4 // normalise/round
}

/// Baseline Ampere-class FP16 MXU (one 4-lane dot-product unit slice plus
/// its share of operand delivery).
pub fn baseline_fp16() -> Design {
    let mut blocks = Vec::new();
    for i in 0..LANES {
        blocks.push(multiplier(&format!("mul11x11 #{i}"), 11, 11, ACT_FP16));
    }
    blocks.push(adder("exp-add x4", 8 * LANES, ACT_FP16));
    blocks.extend(accumulate_backend(36, 24, ACT_ACC));
    blocks.push(registers("operand regs", 2 * LANES * 16, 0.45));
    blocks.push(registers("acc staging regs", 2 * 32, ACT_ACC));
    blocks.push(control("operand collector + result routing", 2200.0, 0.45));
    blocks.push(control("sequencer", 400.0, 0.30));
    Design {
        name: "baseline FP16 MXU",
        blocks,
        critical_path_fo4: compute_path_fo4(11, 36),
        freq_rel: 1.0,
    }
}

/// Brute-force FP32 MXU: 24-bit multipliers, doubled operand bandwidth and
/// datapath width, FP16 FLOPS parity, re-pipelined to hold the baseline
/// cycle time. No FP32C support.
pub fn native_fp32() -> Design {
    let mut blocks = Vec::new();
    for i in 0..LANES {
        blocks.push(multiplier(
            &format!("mul24x24 #{i}"),
            24,
            24,
            ACT_MUL_NATIVE,
        ));
    }
    blocks.push(adder("exp-add x4", 8 * LANES, ACT_FP32_NATIVE));
    blocks.extend(accumulate_backend(60, 48, ACT_FP32_NATIVE));
    // Doubled operand delivery: 32 B/cycle needs double-width register
    // staging, double-buffering, and collector/bus drivers whose cost grows
    // superlinearly with port pressure.
    blocks.push(registers(
        "operand regs (2x width)",
        2 * LANES * 32,
        ACT_FP32_NATIVE,
    ));
    blocks.push(registers(
        "operand double-buffer",
        2 * LANES * 32,
        ACT_FP32_NATIVE,
    ));
    blocks.push(control(
        "operand collector + routing (2x bw)",
        2200.0 * 2.8,
        ACT_FP32_NATIVE,
    ));
    blocks.push(control(
        "result bus + writeback (2x width)",
        1200.0,
        ACT_FP32_NATIVE,
    ));
    blocks.push(registers(
        "acc staging regs (2x width)",
        2 * 64,
        ACT_FP32_NATIVE,
    ));
    blocks.push(mux("fp16 downward-support muxing", 24 * LANES, 2, 0.6));
    // Extra pipeline registers to hold the baseline cycle time over the
    // deeper multiplier + wider accumulate (two balance stages).
    blocks.push(registers(
        "re-pipelining stage regs",
        2 * (24 + 24 + 48) * LANES,
        ACT_FP32_NATIVE,
    ));
    blocks.push(control("sequencer", 500.0, 0.40));
    Design {
        name: "FP32 MXU (native, w/o FP32C)",
        blocks,
        // Re-pipelined to the baseline clock.
        critical_path_fo4: baseline_fp16().critical_path_fo4,
        freq_rel: 1.0,
    }
}

/// The M3XU data-assignment additions shared by all M3XU variants:
/// split-entry buffers for the b-side halves, the half-select multiplexer
/// network, and the step FSM. Gated during FP16 MMAs.
fn assignment_stage_fp32() -> Vec<Block> {
    // b-side halves buffered per lane: LANES lanes x 21-bit entries x the
    // halves the lane's multiplexer selects among (the a-side entries feed
    // both steps unchanged — only the b multiplexers flip, Fig. 3a).
    let ways = SPLIT.b_fan_in() as u32;
    vec![
        registers("assign buffers (b halves)", LANES * 21 * ways, ACT_GATED),
        mux("assign half-select mux", 21 * LANES, ways, ACT_GATED),
        control("step FSM + split wiring", 370.0, ACT_GATED),
    ]
}

/// M3XU supporting FP16 + FP32 only (§IV-A), non-pipelined assignment.
pub fn m3xu_no_fp32c() -> Design {
    let mut blocks = Vec::new();
    for i in 0..LANES {
        // 12-bit multipliers (the 1-bit mantissa extension). Under the
        // FP16 power workload the extra column is quiet: activity scales
        // to keep FP16-equivalent toggling.
        let act = ACT_FP16 * (121.0 / 144.0);
        blocks.push(multiplier(&format!("mul12x12 #{i}"), 12, 12, act));
    }
    blocks.push(adder("exp-add x4", 8 * LANES, ACT_FP16));
    // Widened accumulation: 52-bit internal adders (48-bit registers plus
    // carry guard), weighted-shift injection. Upper bits quiet in FP16.
    blocks.extend(accumulate_backend(52, 24, ACT_ACC * 36.0 / 52.0));
    blocks.push(shifter("weight-shift (24/12/0)", 48, 2, ACT_GATED));
    blocks.push(registers("operand regs", 2 * LANES * 16, 0.45));
    blocks.push(registers(
        "acc staging regs (48-bit)",
        2 * 48,
        ACT_ACC * 32.0 / 48.0,
    ));
    blocks.push(control("operand collector + result routing", 2200.0, 0.45));
    blocks.extend(assignment_stage_fp32());
    blocks.push(control("sequencer (multi-step)", 450.0, 0.30));
    Design {
        name: "M3XU w/o FP32C",
        blocks,
        // Data assignment shares the compute cycle: ~10 FO4 of buffer read,
        // select decode and muxing on top of the (slightly deeper) path.
        critical_path_fo4: compute_path_fo4(12, 52) + 9.0,
        freq_rel: 1.0 / 1.21,
    }
}

/// Full M3XU (FP32 + FP32C), non-pipelined assignment (Table III "M3XU").
///
/// FP32C reuses the FP32 machinery almost entirely: operands stay resident
/// across the four steps, so the additions are wider mux selection (re/im
/// swap), the sign-flip XORs for the imaginary-imaginary subtraction, the
/// 4-step select store, and FSM growth — the paper's "4% more area
/// overhead than just supporting FP32".
pub fn m3xu() -> Design {
    let mut d = m3xu_no_fp32c();
    // Widen the half-select mux to FP32C's fan-in (half flip x re/im
    // swap, Fig. 3c).
    if let Some(b) = d
        .blocks
        .iter_mut()
        .find(|b| b.name == "assign half-select mux")
    {
        let ways = COMPLEX.b_fan_in() as u32;
        *b = mux("assign half/reim-select mux", 21 * LANES, ways, ACT_GATED);
    }
    d.blocks
        .push(control("4-step select pattern store", 80.0, ACT_GATED));
    d.blocks
        .push(xor_bank("imag sign-flip", 2 * LANES, ACT_GATED));
    d.blocks
        .push(control("FSM extension (4-step)", 120.0, ACT_GATED));
    d.name = "M3XU";
    d
}

/// Full M3XU with the data-assignment stage pipelined (Table III
/// "M3XU pipelined"): baseline-class cycle time, extra stage registers.
pub fn m3xu_pipelined() -> Design {
    let mut d = m3xu();
    // Stage registers between assignment and the multiplier array: the
    // selected entry vectors plus step control. These clock every cycle
    // even in FP16 mode (operands pass through the stage).
    // Only the muxed b-side entries need staging; the a-side feeds the
    // multipliers directly from stable operand registers.
    d.blocks.push(registers(
        "assign/compute stage regs",
        LANES * 21 + 16,
        0.55,
    ));
    d.blocks.push(control("stage valid/stall", 120.0, 0.40));
    // The assignment delay moves off the compute path.
    d.critical_path_fo4 -= 9.0;
    d.freq_rel = 1.0;
    d.name = "M3XU pipelined";
    d
}

/// All five Table III designs, in the paper's column order.
pub fn table3_designs() -> Vec<Design> {
    vec![
        baseline_fp16(),
        native_fp32(),
        m3xu_no_fp32c(),
        m3xu(),
        m3xu_pipelined(),
    ]
}

/// Ablation: a hypothetical baseline whose multipliers already have 12-bit
/// mantissas (the paper: "if we extend an MXU that already supports 12-bit
/// mantissas, the area-overhead of supporting FP32 in M3XU is only 16%").
pub fn baseline_12bit() -> Design {
    let mut d = baseline_fp16();
    let mut i = 0;
    for b in d.blocks.iter_mut() {
        if b.name.starts_with("mul11x11") {
            *b = multiplier(&format!("mul12x12 #{i}"), 12, 12, ACT_FP16);
            i += 1;
        }
    }
    // A 12-bit-native baseline would also carry the wider product buses
    // into its accumulate path (40-bit products need a 52-bit window for
    // the same headroom the 36-bit window gives 22-bit products).
    let backend_new = accumulate_backend(52, 24, ACT_ACC * 36.0 / 52.0);
    let mut bi = 0;
    for b in d.blocks.iter_mut() {
        let replace = b.name.starts_with("prod-align")
            || b.name.starts_with("sum-tree")
            || b.name == "acc-add"
            || b.name == "normalise/round";
        if replace {
            *b = backend_new[bi.min(backend_new.len() - 1)].clone();
            bi += 1;
        }
    }
    d.name = "hypothetical 12-bit baseline";
    d.critical_path_fo4 = compute_path_fo4(12, 52);
    d
}

/// Ablation sweep: area of an M3XU-style design as a function of the
/// multiplier mantissa width (for the mantissa-width bench).
pub fn mantissa_width_sweep() -> Vec<(u32, f64)> {
    let arith_area = |bits: u32| -> f64 {
        let mut area = 0.0;
        for _ in 0..LANES {
            area += multiplier("m", bits, bits, 1.0).area_ge;
        }
        // Backend scales with 2*bits + guard.
        for b in accumulate_backend(2 * bits + 28, 24, 1.0) {
            area += b.area_ge;
        }
        area
    };
    let base = arith_area(11);
    (11..=16)
        .map(|bits| (bits, arith_area(bits) / base))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn designs_have_positive_costs() {
        for d in table3_designs() {
            assert!(d.area_ge() > 0.0, "{}", d.name);
            assert!(d.cycle_time_ps() > 0.0);
            assert!(d.power_weight() > 0.0);
            assert!(d.area_um2() > d.area_ge() * 0.5);
        }
    }

    #[test]
    fn area_ordering() {
        let ds = table3_designs();
        let a: Vec<f64> = ds.iter().map(|d| d.area_ge()).collect();
        // baseline < m3xu_no_fp32c < m3xu < m3xu_pipelined < native_fp32
        assert!(a[0] < a[2]);
        assert!(a[2] < a[3]);
        assert!(a[3] < a[4]);
        assert!(a[4] < a[1]);
    }

    #[test]
    fn cycle_time_ordering() {
        let ds = table3_designs();
        let base = ds[0].cycle_time_ps();
        assert!((ds[1].cycle_time_ps() / base - 1.0).abs() < 1e-9); // native re-pipelined
        assert!(ds[2].cycle_time_ps() > base * 1.1); // non-pipelined stretch
        assert!(ds[3].cycle_time_ps() > base * 1.1);
        assert!(ds[4].cycle_time_ps() < ds[3].cycle_time_ps()); // pipelined recovers
    }

    #[test]
    fn mantissa_sweep_monotone() {
        let sweep = mantissa_width_sweep();
        for w in sweep.windows(2) {
            assert!(w[1].1 > w[0].1, "area must grow with mantissa width");
        }
    }

    #[test]
    fn print_table3_ratios_for_calibration() {
        let ds = table3_designs();
        let base = &ds[0];
        for d in &ds {
            println!(
                "{:32} area {:5.2}  cycle {:5.2}  power {:5.2}",
                d.name,
                d.area_ge() / base.area_ge(),
                d.cycle_time_ps() / base.cycle_time_ps(),
                d.power_weight() / base.power_weight()
            );
        }
    }
}
