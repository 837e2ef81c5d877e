//! Seeded open-loop load generation: a deterministic arrival schedule
//! for driving the service the way production traffic does.
//!
//! Closed-loop drivers (submit, wait, submit) measure a system that is
//! never overloaded: the client slows down with the server. Production
//! traffic does not — arrivals keep coming at their own rate whether or
//! not the service keeps up, which is what exposes queueing collapse,
//! deadline misses, and tail latency. This module generates such a
//! schedule *reproducibly*:
//!
//! * **Poisson arrivals** — exponential inter-arrival gaps at a mean
//!   offered rate, from a seeded splitmix64 stream;
//! * **Zipf tenant skew** — tenant popularity follows a Zipf(s)
//!   distribution, so a handful of hot tenants dominate (the case
//!   tenant-affine sharding must survive via work stealing);
//! * **mixed operations** — GEMM / CGEMM / FFT at a menu of sizes, so a
//!   shard's drained batch mixes cheap and expensive work.
//!
//! The schedule is a pure function of the [`OpenLoopSpec`]: the same
//! seed yields byte-identical arrivals at any shard count, which is what
//! lets `tests/serve_regressions.rs` compare dispositions and result bits
//! across shard counts 1/2/8.

/// Parameters of one open-loop schedule. Everything downstream
/// (arrival times, tenants, op mix) is a deterministic function of this.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSpec {
    /// Seed of the splitmix64 stream behind every random draw.
    pub seed: u64,
    /// Total arrivals to generate.
    pub requests: usize,
    /// Mean offered rate, arrivals per second (Poisson process).
    pub mean_rps: f64,
    /// Distinct tenants, named `tenant-0 ..`.
    pub tenants: usize,
    /// Zipf skew exponent over tenants (`0.0` = uniform; `~1.0` =
    /// classic heavy skew).
    pub zipf_s: f64,
}

impl Default for OpenLoopSpec {
    fn default() -> Self {
        OpenLoopSpec {
            seed: 0x4d33_5855, // "M3XU"
            requests: 256,
            mean_rps: 200.0,
            tenants: 16,
            zipf_s: 1.0,
        }
    }
}

/// The operation one arrival carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Square FP32 GEMM, `n x n x n`.
    Gemm {
        /// Problem dimension.
        n: usize,
    },
    /// Square complex FP32C GEMM, `n x n x n`.
    Cgemm {
        /// Problem dimension.
        n: usize,
    },
    /// GEMM-formulated FFT of `len` points.
    Fft {
        /// Signal length (a power of two).
        len: usize,
    },
}

/// One scheduled arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Offset from the schedule's start, ns.
    pub at_ns: u64,
    /// Tenant index (`tenant-{index}`).
    pub tenant: usize,
    /// The operation to submit.
    pub op: OpKind,
}

/// splitmix64: the workspace's standard seeded generator (also used by
/// the fault planner and the property tests).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `(0, 1]` — open at zero so `ln` is safe.
fn unit(state: &mut u64) -> f64 {
    let u = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
    if u <= 0.0 {
        f64::MIN_POSITIVE
    } else {
        u
    }
}

/// The GEMM / CGEMM / FFT size menus (output tiles stay in the small
/// class, so the adaptive batcher — not the tile sharder — is what's
/// exercised).
const GEMM_SIZES: [usize; 3] = [16, 32, 64];
const CGEMM_SIZES: [usize; 2] = [16, 32];
const FFT_SIZES: [usize; 2] = [64, 256];

/// Generate the full arrival schedule for `spec`. Pure and
/// deterministic: identical specs yield identical vectors.
pub fn generate(spec: &OpenLoopSpec) -> Vec<Arrival> {
    let tenants = spec.tenants.max(1);
    // Zipf CDF over tenant ranks: weight(rank r) = 1 / (r+1)^s.
    let weights: Vec<f64> = (0..tenants)
        .map(|r| 1.0 / ((r + 1) as f64).powf(spec.zipf_s))
        .collect();
    let total_w: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(tenants);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total_w;
        cdf.push(acc);
    }
    let rps = if spec.mean_rps > 0.0 {
        spec.mean_rps
    } else {
        1.0
    };
    let mut state = spec.seed;
    let mut at_ns: u64 = 0;
    let mut out = Vec::with_capacity(spec.requests);
    for _ in 0..spec.requests {
        // Exponential inter-arrival gap at the offered rate.
        let gap_s = -unit(&mut state).ln() / rps;
        at_ns = at_ns.saturating_add((gap_s * 1e9) as u64);
        let u = unit(&mut state);
        let tenant = cdf.partition_point(|c| *c < u).min(tenants - 1);
        // Op mix: 60% GEMM, 25% CGEMM, 15% FFT.
        let roll = unit(&mut state);
        let pick = splitmix64(&mut state) as usize;
        let op = if roll < 0.60 {
            OpKind::Gemm {
                n: GEMM_SIZES[pick % GEMM_SIZES.len()],
            }
        } else if roll < 0.85 {
            OpKind::Cgemm {
                n: CGEMM_SIZES[pick % CGEMM_SIZES.len()],
            }
        } else {
            OpKind::Fft {
                len: FFT_SIZES[pick % FFT_SIZES.len()],
            }
        };
        out.push(Arrival { at_ns, tenant, op });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_sorted() {
        let spec = OpenLoopSpec::default();
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), spec.requests);
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        // A different seed yields a different schedule.
        let c = generate(&OpenLoopSpec {
            seed: spec.seed + 1,
            ..spec
        });
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_skews_toward_low_ranks_and_mix_has_all_ops() {
        let spec = OpenLoopSpec {
            requests: 2000,
            ..OpenLoopSpec::default()
        };
        let arrivals = generate(&spec);
        let mut per_tenant = vec![0usize; spec.tenants];
        let (mut gemm, mut cgemm, mut fft) = (0usize, 0usize, 0usize);
        for a in &arrivals {
            per_tenant[a.tenant] += 1;
            match a.op {
                OpKind::Gemm { n } => {
                    assert!(GEMM_SIZES.contains(&n));
                    gemm += 1;
                }
                OpKind::Cgemm { n } => {
                    assert!(CGEMM_SIZES.contains(&n));
                    cgemm += 1;
                }
                OpKind::Fft { len } => {
                    assert!(FFT_SIZES.contains(&len));
                    fft += 1;
                }
            }
        }
        // Rank 0 dominates rank 15 under Zipf(1.0).
        assert!(per_tenant[0] > 4 * per_tenant[spec.tenants - 1].max(1));
        assert!(gemm > cgemm && cgemm > fft && fft > 0);
    }

    #[test]
    fn mean_rate_is_roughly_honoured() {
        let spec = OpenLoopSpec {
            requests: 4000,
            mean_rps: 1000.0,
            ..OpenLoopSpec::default()
        };
        let arrivals = generate(&spec);
        let span_s = arrivals.last().unwrap().at_ns as f64 / 1e9;
        let rate = spec.requests as f64 / span_s;
        assert!(
            (rate - spec.mean_rps).abs() < spec.mean_rps * 0.15,
            "offered rate {rate:.1} rps vs spec {}",
            spec.mean_rps
        );
    }
}
