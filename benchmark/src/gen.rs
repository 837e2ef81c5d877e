//! The benchmark's own seeded load generator.
//!
//! Modelled on `m3xu_serve::openloop` (Poisson arrivals, Zipf tenant
//! skew, a 60/25/15 GEMM/CGEMM/FFT mix over small sizes) but kept here,
//! so that an edit to library code cannot change a workload.

use crate::adapter::Op;

/// splitmix64: small, fast, and good enough for load shapes and inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream determined by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`, open at zero so `ln` is safe.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f32` in `[-1, 1)`.
    pub fn f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / 8_388_608.0 - 1.0
    }

    /// Uniform `f64` in `[-1, 1)` with a full 53-bit significand.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / 4_503_599_627_370_496.0 - 1.0
    }
}

/// The seed of one input set: a mix of the run seed, the op and the
/// variant, so every (op, variant) draws an independent stream.
pub fn input_seed(seed: u64, op: Op, variant: u32) -> u64 {
    let mut h = Rng::new(seed ^ 0x4d33_5855_0000_0000);
    let mut acc = h.next_u64();
    for b in op.name().bytes().chain(variant.to_le_bytes()) {
        acc = (acc ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    Rng::new(acc).next_u64()
}

/// Distinct input sets per (op, size) in the mixed-op workloads.
pub const VARIANTS: u32 = 4;

/// Tenants of the served workload.
pub const TENANTS: usize = 16;

/// One scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, ns after the schedule's start.
    pub at_ns: u64,
    /// Tenant index.
    pub tenant: usize,
    /// The operation.
    pub op: Op,
    /// Which of the op's [`VARIANTS`] input sets it carries.
    pub variant: u32,
}

/// The sizes the mixed-op workloads draw from.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Square real FP32 GEMM sizes.
    pub gemm: &'static [usize],
    /// Square FP32C CGEMM sizes.
    pub cgemm: &'static [usize],
    /// FFT lengths.
    pub fft: &'static [usize],
}

impl Mix {
    /// Every op the mix can draw.
    pub fn ops(&self) -> Vec<Op> {
        let g = self
            .gemm
            .iter()
            .map(|&n| Op::Gemm(crate::adapter::Prec::Fp32, n));
        let c = self.cgemm.iter().map(|&n| Op::Cgemm(n));
        let f = self.fft.iter().map(|&n| Op::Fft(n));
        g.chain(c).chain(f).collect()
    }
}

/// An endless seeded schedule: Poisson arrivals at `rate_rps`, Zipf(1)
/// tenants, and the 60/25/15 op mix over `mix`.
#[derive(Debug, Clone)]
pub struct Arrivals {
    rng: Rng,
    rate_rps: f64,
    cdf: Vec<f64>,
    mix: Mix,
    at_ns: u64,
}

impl Arrivals {
    /// The schedule for `seed`.
    pub fn new(seed: u64, rate_rps: f64, mix: Mix) -> Arrivals {
        let weights: Vec<f64> = (1..=TENANTS).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        let cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        Arrivals {
            rng: Rng::new(seed),
            rate_rps,
            cdf,
            mix,
            at_ns: 0,
        }
    }
}

impl Iterator for Arrivals {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        let gap_s = -self.rng.unit().ln() / self.rate_rps;
        self.at_ns += (gap_s * 1e9) as u64;
        let u = self.rng.unit();
        let tenant = self.cdf.partition_point(|c| *c < u).min(TENANTS - 1);
        let roll = self.rng.unit();
        let pick = self.rng.next_u64() as usize;
        let op = if roll <= 0.60 {
            Op::Gemm(
                crate::adapter::Prec::Fp32,
                self.mix.gemm[pick % self.mix.gemm.len()],
            )
        } else if roll <= 0.85 {
            Op::Cgemm(self.mix.cgemm[pick % self.mix.cgemm.len()])
        } else {
            Op::Fft(self.mix.fft[pick % self.mix.fft.len()])
        };
        let variant = (self.rng.next_u64() % VARIANTS as u64) as u32;
        Some(Arrival {
            at_ns: self.at_ns,
            tenant,
            op,
            variant,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        gemm: &[16, 32, 64],
        cgemm: &[16, 32],
        fft: &[64, 256],
    };

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a: Vec<_> = Arrivals::new(3, 300.0, MIX).take(500).collect();
        let b: Vec<_> = Arrivals::new(3, 300.0, MIX).take(500).collect();
        let c: Vec<_> = Arrivals::new(4, 300.0, MIX).take(500).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    #[test]
    fn rate_skew_and_mix_hold() {
        let a: Vec<_> = Arrivals::new(9, 1000.0, MIX).take(20_000).collect();
        let rate = a.len() as f64 / (a.last().unwrap().at_ns as f64 / 1e9);
        assert!((rate - 1000.0).abs() < 50.0, "rate {rate}");
        let mut tenants = [0usize; TENANTS];
        let (mut g, mut c, mut f) = (0, 0, 0);
        for x in &a {
            tenants[x.tenant] += 1;
            match x.op {
                Op::Gemm(..) => g += 1,
                Op::Cgemm(_) => c += 1,
                _ => f += 1,
            }
            assert!(x.variant < VARIANTS);
        }
        assert!(tenants[0] > 8 * tenants[TENANTS - 1]);
        let share = |n: usize| n as f64 / a.len() as f64;
        assert!((share(g) - 0.60).abs() < 0.02);
        assert!((share(c) - 0.25).abs() < 0.02);
        assert!((share(f) - 0.15).abs() < 0.02);
    }

    #[test]
    fn input_seeds_differ_by_op_variant_and_run_seed() {
        let op = Op::Cgemm(16);
        let s = input_seed(1, op, 0);
        assert_eq!(s, input_seed(1, op, 0));
        assert_ne!(s, input_seed(1, op, 1));
        assert_ne!(s, input_seed(2, op, 0));
        assert_ne!(s, input_seed(1, Op::Cgemm(32), 0));
    }
}
