//! Residue arithmetic over the Mersenne prime `p = 2^61 - 1` for ABFT
//! checksums of exact dyadic values.
//!
//! The ABFT layer (Huang–Abraham row/column checksums around the tiled
//! GEMM drivers) needs a compression of the *exact* Kulisch fixed-point
//! accumulator state that
//!
//! 1. is a **ring homomorphism** from the dyadic rationals `Z[1/2]` the
//!    MXU datapath computes in (so the checksum identity
//!    `Σ seeds + Σ_k (Σ_i a_ik)(Σ_j b_kj) = Σ_(i,j) pre-round values`
//!    holds *exactly*, never within a tolerance), and
//! 2. **detects every single corrupted value with certainty**: the
//!    difference of two distinct finite FP32 values is `d · 2^t` with
//!    `0 < |d| < 2^25`, and since `p` is prime with `2` a unit mod `p`,
//!    `d · 2^t ≢ 0 (mod p)`.
//!
//! A fixed-scale `i128` window would fail requirement 2 — a corruption in
//! the high bits of a wide accumulator is invisible to `value mod 2^128`
//! at a fixed low scale, because `2` is a zero divisor mod `2^128`. Over
//! `F_p` with `p` odd, every power of two is invertible, so the map
//! `n · 2^t ↦ n · 2^(t mod 60') (mod p)` sees every bit. For the Mersenne
//! prime `2^61 ≡ 1 (mod p)`, so exponent arithmetic reduces mod 61 and
//! `2^t` for *negative* `t` needs no inverse computation at all.

/// The Mersenne prime `2^61 - 1`.
pub const M61: u64 = (1u64 << 61) - 1;

/// Reduce an arbitrary `u64` into `[0, p)`.
#[inline]
pub fn reduce_u64(x: u64) -> u64 {
    let r = (x & M61) + (x >> 61);
    if r >= M61 {
        r - M61
    } else {
        r
    }
}

/// `a + b (mod p)` for reduced inputs.
#[inline]
pub fn add_m61(a: u64, b: u64) -> u64 {
    debug_assert!(a < M61 && b < M61);
    let s = a + b; // < 2^62: no overflow
    if s >= M61 {
        s - M61
    } else {
        s
    }
}

/// `-a (mod p)` for a reduced input.
#[inline]
pub fn neg_m61(a: u64) -> u64 {
    debug_assert!(a < M61);
    if a == 0 {
        0
    } else {
        M61 - a
    }
}

/// `a - b (mod p)` for reduced inputs.
#[inline]
pub fn sub_m61(a: u64, b: u64) -> u64 {
    add_m61(a, neg_m61(b))
}

/// `a · b (mod p)` for reduced inputs.
#[inline]
pub fn mul_m61(a: u64, b: u64) -> u64 {
    debug_assert!(a < M61 && b < M61);
    let t = a as u128 * b as u128; // < 2^122
    reduce_u64((t & M61 as u128) as u64 + (t >> 61) as u64)
}

/// `2^e (mod p)` for *any* integer exponent — `2^61 ≡ 1`, so the exponent
/// reduces mod 61 and negative exponents cost nothing.
#[inline]
pub fn pow2_m61(e: i64) -> u64 {
    1u64 << e.rem_euclid(61) as u32 // < 2^61 - 1 for every residue 0..=60
}

/// `r · 2^e (mod p)` for a reduced `r` and *any* integer exponent: since
/// `2^61 ≡ 1`, multiplying by `2^e` rotates `r`'s 61 bits left by
/// `e mod 61` — no multiply. A reduced `r` is not all ones, so neither is
/// its rotation, which is therefore reduced too.
#[inline]
pub fn mul_pow2_m61(r: u64, e: i64) -> u64 {
    rotl_m61(r, e.rem_euclid(61) as u32)
}

/// Rotate a reduced `r`'s 61 bits left by `s < 61`: `r · 2^s (mod p)`.
#[inline]
fn rotl_m61(r: u64, s: u32) -> u64 {
    debug_assert!(r < M61 && s < 61);
    ((r << s) | (r >> (61 - s))) & M61
}

/// `pow mod 61` for each biased `f32` exponent `e`, where `pow =
/// max(e, 1) − 150` weighs the significand's least bit: the rotation
/// that maps an `f32` significand to its value's residue.
const F32_ROTATION: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut e = 0;
    while e < 256 {
        let pow = if e == 0 { 1 } else { e as i64 } - 150;
        t[e] = pow.rem_euclid(61) as u8;
        e += 1;
    }
    t
};

/// Residue of a signed 128-bit integer scaled by `2^exp`:
/// `v · 2^exp (mod p)`. Since `2^61 ≡ 1`, `|v|`'s 61-bit limbs simply
/// add (bits 0–60, 61–121 and 122–127: below `2^63`, one reduction),
/// then [`mul_pow2_m61`] rotates by `exp` and the sign negates.
#[inline]
pub fn residue_i128(v: i128, exp: i64) -> u64 {
    let mag = v.unsigned_abs();
    let folded = (mag as u64 & M61) + ((mag >> 61) as u64 & M61) + (mag >> 122) as u64;
    let r = mul_pow2_m61(reduce_u64(folded), exp);
    if v < 0 {
        neg_m61(r)
    } else {
        r
    }
}

/// Residue of a finite `f32` value (`±m · 2^e` exactly); `None` for
/// NaN/infinity, which have no dyadic value.
pub fn residue_f32(x: f32) -> Option<u64> {
    if !x.is_finite() {
        return None;
    }
    let (r, negative) = f32_rotated(x);
    Some(if negative { neg_m61(r) } else { r })
}

/// A finite `f32`'s significand rotated by its weight, and its sign: its
/// residue is the rotation, negated when the sign is set.
#[inline]
fn f32_rotated(x: f32) -> (u64, bool) {
    let bits = x.to_bits();
    let exp = (bits >> 23) & 0xff;
    let m = (bits & 0x7f_ffff) | (((exp != 0) as u32) << 23);
    (
        rotl_m61(m as u64, F32_ROTATION[exp as usize] as u32),
        bits >> 31 == 1,
    )
}

/// Residue of the exact sum of `xs`, `None` when any of them is NaN or
/// infinite — the sum of their [`residue_f32`]s, formed without a branch
/// or a reduction per value: each rotated significand adds, signed, into
/// an `i128`, which [`residue_i128`] folds once.
pub fn residue_sum_f32(xs: impl IntoIterator<Item = f32>) -> Option<u64> {
    let (mut sum, mut finite) = (0i128, true);
    for x in xs {
        finite &= x.is_finite();
        let (r, negative) = f32_rotated(x);
        let s = -(negative as i128);
        sum += (r as i128 ^ s) - s;
    }
    finite.then(|| residue_i128(sum, 0))
}

/// Residue of a finite `f64` value (`±m · 2^e` exactly); `None` for
/// NaN/infinity. The 53-bit significand is already reduced, and exponents
/// down to the subnormal floor `2^-1074` reduce mod 61 like any other
/// power of two, so the f64/N-slice dyadic range is covered with the same
/// single-fault-detection guarantee as the f32 map.
pub fn residue_f64(x: f64) -> Option<u64> {
    x.is_finite().then(|| reduce_u64(residue_f64_lane(x)))
}

/// [`residue_f64`] of a finite `x` before its final reduction, with no
/// table and no branch, for callers that compute it across vector lanes
/// (a table lookup does not vectorise): the significand rotates left by
/// its least bit's weight `max(e, 1) − 1075 ≡ (max(e, 1) + 23) mod 61`
/// for biased exponent `e`, and the sign negates. The result is below
/// `2^61` and reduced, except that a negative zero gives `M61 ≡ 0`. A NaN
/// or infinite `x` gives a meaningless value.
#[inline(always)]
pub fn residue_f64_lane(x: f64) -> u64 {
    let bits = x.to_bits();
    let e = (bits >> 52 & 0x7ff) as u32;
    let m = bits & 0xf_ffff_ffff_ffff | ((e != 0) as u64) << 52;
    let s = (e.max(1) + 23) % 61;
    let r = (m << s | m >> (61 - s)) & M61;
    if bits >> 63 == 1 {
        M61 - r
    } else {
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_axioms_hold_on_samples() {
        let xs = [0u64, 1, 2, M61 - 1, 12345, 1u64 << 60, 987654321];
        for &a in &xs {
            let a = reduce_u64(a);
            assert_eq!(add_m61(a, neg_m61(a)), 0);
            assert_eq!(mul_m61(a, 1), a);
            for &b in &xs {
                let b = reduce_u64(b);
                assert_eq!(add_m61(a, b), add_m61(b, a));
                assert_eq!(mul_m61(a, b), mul_m61(b, a));
            }
        }
    }

    #[test]
    fn pow2_wraps_mod_61() {
        assert_eq!(pow2_m61(0), 1);
        assert_eq!(pow2_m61(61), 1);
        assert_eq!(pow2_m61(-61), 1);
        assert_eq!(pow2_m61(1), 2);
        assert_eq!(pow2_m61(-1), pow2_m61(60));
        // 2^-1 * 2 = 1.
        assert_eq!(mul_m61(pow2_m61(-1), 2), 1);
    }

    #[test]
    fn residue_f32_is_additive_on_exact_sums() {
        // 1.5 + 0.25 = 1.75 exactly in f32.
        let r = add_m61(residue_f32(1.5).unwrap(), residue_f32(0.25).unwrap());
        assert_eq!(r, residue_f32(1.75).unwrap());
        // x + (-x) = 0.
        let r = add_m61(residue_f32(3.75).unwrap(), residue_f32(-3.75).unwrap());
        assert_eq!(r, 0);
        assert_eq!(residue_f32(0.0).unwrap(), 0);
        assert_eq!(residue_f32(-0.0).unwrap(), 0);
    }

    #[test]
    fn residue_f32_is_multiplicative_on_exact_products() {
        // 3.0 * 0.5 = 1.5 exactly.
        let p = mul_m61(residue_f32(3.0).unwrap(), residue_f32(0.5).unwrap());
        assert_eq!(p, residue_f32(1.5).unwrap());
        // Subnormal scaling: 2^-140 * 2^10 = 2^-130.
        let p = mul_m61(
            residue_f32(f32::from_bits(1) * 2.0f32.powi(9)).unwrap(),
            residue_f32(1024.0).unwrap(),
        );
        assert_eq!(p, residue_f32(f32::from_bits(1) * 2.0f32.powi(19)).unwrap());
    }

    #[test]
    fn distinct_f32_values_have_distinct_residue_deltas() {
        // Single-fault detection: for distinct finite x != y the residues
        // differ (their difference is d*2^t with 0 < |d| < p).
        let vals = [
            0.0f32,
            1.0,
            -1.0,
            1.5,
            f32::MAX,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            123456.78,
        ];
        for &x in &vals {
            for &y in &vals {
                if x.to_bits() != y.to_bits() && x != y {
                    assert_ne!(
                        residue_f32(x).unwrap(),
                        residue_f32(y).unwrap(),
                        "{x} vs {y}"
                    );
                }
            }
        }
        // A single bit flip anywhere in a value is always visible.
        let x = 1.9999999f32;
        for bit in 0..31 {
            let y = f32::from_bits(x.to_bits() ^ (1 << bit));
            if y.is_finite() {
                assert_ne!(residue_f32(x).unwrap(), residue_f32(y).unwrap());
            }
        }
    }

    #[test]
    fn residue_rejects_specials() {
        assert!(residue_f32(f32::NAN).is_none());
        assert!(residue_f32(f32::INFINITY).is_none());
        assert!(residue_f32(f32::NEG_INFINITY).is_none());
        assert!(residue_f64(f64::NAN).is_none());
        assert!(residue_f64(f64::INFINITY).is_none());
        assert!(residue_f64(f64::NEG_INFINITY).is_none());
    }

    #[test]
    fn residue_f64_is_a_homomorphism_on_exact_ops() {
        // Additivity on exact sums.
        let r = add_m61(residue_f64(1.5).unwrap(), residue_f64(0.25).unwrap());
        assert_eq!(r, residue_f64(1.75).unwrap());
        let r = add_m61(residue_f64(3.75).unwrap(), residue_f64(-3.75).unwrap());
        assert_eq!(r, 0);
        assert_eq!(residue_f64(0.0).unwrap(), 0);
        assert_eq!(residue_f64(-0.0).unwrap(), 0);
        // Multiplicativity on exact products, incl. the subnormal floor.
        let p = mul_m61(residue_f64(3.0).unwrap(), residue_f64(0.5).unwrap());
        assert_eq!(p, residue_f64(1.5).unwrap());
        let tiny = f64::from_bits(1); // 2^-1074
        let p = mul_m61(residue_f64(tiny).unwrap(), residue_f64(1024.0).unwrap());
        assert_eq!(p, residue_f64(tiny * 1024.0).unwrap());
    }

    #[test]
    fn residue_f64_lane_equals_the_multiplying_residue() {
        // Every exponent field, both signs, zeros and subnormals, and
        // significands at both ends, against the decoded `±m · 2^pow`
        // rotated by `mul_pow2_m61`.
        for e in 0..2047u64 {
            for frac in [0u64, 1, 0xf_ffff_ffff_ffff, 0x8_0000_0000_0001] {
                for sign in [0u64, 1] {
                    let x = f64::from_bits(sign << 63 | e << 52 | frac);
                    let m = frac | ((e != 0) as u64) << 52;
                    let r = mul_pow2_m61(m, (e as i64).max(1) - 1075);
                    let want = if sign == 1 { neg_m61(r) } else { r };
                    assert_eq!(reduce_u64(residue_f64_lane(x)), want, "{x:e}");
                    assert!(residue_f64_lane(x) <= M61);
                    assert_eq!(residue_f64(x), Some(want), "{x:e}");
                }
            }
        }
    }

    #[test]
    fn residue_f64_agrees_with_f32_on_shared_values() {
        for &x in &[0.0f32, 1.0, -1.0, 1.5, f32::MIN_POSITIVE, 123456.78] {
            assert_eq!(residue_f32(x), residue_f64(x as f64), "{x}");
        }
    }

    #[test]
    fn distinct_f64_values_have_distinct_residue_deltas() {
        let vals = [
            0.0f64,
            1.0,
            -1.0,
            1.5,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            123456.789012345,
        ];
        for &x in &vals {
            for &y in &vals {
                if x.to_bits() != y.to_bits() && x != y {
                    assert_ne!(
                        residue_f64(x).unwrap(),
                        residue_f64(y).unwrap(),
                        "{x} vs {y}"
                    );
                }
            }
        }
        // Any single bit flip in a finite value is visible.
        let x = 1.999999999999999f64;
        for bit in 0..63 {
            let y = f64::from_bits(x.to_bits() ^ (1u64 << bit));
            if y.is_finite() {
                assert_ne!(residue_f64(x).unwrap(), residue_f64(y).unwrap());
            }
        }
    }

    #[test]
    fn residue_i128_matches_small_cases() {
        assert_eq!(residue_i128(1, 0), 1);
        assert_eq!(residue_i128(-1, 0), M61 - 1);
        assert_eq!(residue_i128(5, 2), 20);
        // v * 2^e at a negative scale: 3 * 2^-1 == 3 * inverse(2).
        assert_eq!(mul_m61(residue_i128(3, -1), 2), 3);
        // Wide magnitude: 2^100 = pow2(100).
        assert_eq!(residue_i128(1i128 << 100, 0), pow2_m61(100));
        assert_eq!(residue_i128((1i128 << 100) + 7, -149), {
            let r = add_m61(pow2_m61(100), 7);
            mul_m61(r, pow2_m61(-149))
        });
    }

    #[test]
    fn residue_sum_f32_equals_the_sum_of_residues() {
        // Every exponent field, both signs, subnormals and zeros, summed
        // whole and in short runs; any NaN or infinity makes it `None`.
        let mut xs = Vec::new();
        for e in 0..255u32 {
            for (sign, frac) in [(0, 0), (1, 1), (0, 0x7f_ffff), (1, 0x40_0001)] {
                xs.push(f32::from_bits(sign << 31 | e << 23 | frac));
            }
        }
        let want = |xs: &[f32]| {
            xs.iter()
                .fold(0, |r, &x| add_m61(r, residue_f32(x).unwrap()))
        };
        assert_eq!(residue_sum_f32(xs.iter().copied()), Some(want(&xs)));
        for run in xs.chunks(7) {
            assert_eq!(residue_sum_f32(run.iter().copied()), Some(want(run)));
        }
        assert_eq!(residue_sum_f32([]), Some(0));
        assert_eq!(residue_sum_f32([1.5, -1.5, 0.25]), residue_f32(0.25));
        for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert_eq!(residue_sum_f32([1.0, special, 2.0]), None);
        }
    }

    #[test]
    fn fold_and_rotate_equal_the_multiplying_residue() {
        // The limb fold and the rotation against the plain product form:
        // each 61-bit limb times its power of two (2^61 and 2^122, both
        // 1), times 2^exp, then the sign. Extremes, every limb boundary,
        // and random values at exponents far either side of 0..61.
        let by_products = |v: i128, exp: i64| -> u64 {
            let mag = v.unsigned_abs();
            let limb = |s: u32| reduce_u64(((mag >> s) & M61 as u128) as u64);
            let mut r = add_m61(limb(0), mul_m61(limb(61), pow2_m61(61)));
            r = add_m61(r, mul_m61(limb(122), pow2_m61(122)));
            r = mul_m61(r, pow2_m61(exp));
            if v < 0 {
                neg_m61(r)
            } else {
                r
            }
        };
        let mut vals = vec![0i128, 1, -1, i128::MAX, i128::MIN, i128::MIN + 1];
        for s in [60u32, 61, 62, 121, 122, 123, 126] {
            for d in [-1i128, 0, 1] {
                vals.push((1i128 << s) + d);
                vals.push(-((1i128 << s) + d));
            }
        }
        vals.push(M61 as i128);
        vals.push(-(M61 as i128) * M61 as i128);
        let mut state = 0x5851_f42d_4c95_7f2du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2000 {
            let v = ((next() as u128) << 64 | next() as u128) as i128;
            vals.push(v >> (next() % 128));
        }
        for (n, &v) in vals.iter().enumerate() {
            for exp in [
                0i64,
                1,
                60,
                61,
                62,
                -1,
                -61,
                -1074,
                1023,
                -(n as i64),
                n as i64 * 7,
            ] {
                assert_eq!(
                    residue_i128(v, exp),
                    by_products(v, exp),
                    "{v:#x} · 2^{exp}"
                );
            }
        }
        for r in [0u64, 1, 2, M61 - 1, 1 << 60, 0x0123_4567_89ab_cdef & M61] {
            for e in -130i64..130 {
                assert_eq!(
                    mul_pow2_m61(r, e),
                    mul_m61(r, pow2_m61(e)),
                    "{r:#x} · 2^{e}"
                );
            }
        }
    }
}
