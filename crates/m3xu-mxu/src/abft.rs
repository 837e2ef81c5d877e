//! Algorithm-based fault tolerance (ABFT) checksums for the tiled GEMM
//! drivers, in the style of Huang & Abraham's row/column checksum scheme
//! — adapted to the M3XU execution model where rounding happens once per
//! k-chunk.
//!
//! ## The identity
//!
//! Within one k-chunk of one output tile, the MXU datapath computes, for
//! every element `(i, j)`, the *exact* dyadic value
//!
//! ```text
//! pre_round(i, j) = seed(i, j) + Σ_k a[i][k] · b[k][j]
//! ```
//!
//! (the hi/lo 12-bit split is error-free and the Kulisch register is
//! exact), then rounds it once to FP32. Both sides of a checksum over the
//! tile would carry the seeds' sum, so neither does: summing the products
//! over the tile and swapping the summation order gives the identity
//!
//! ```text
//! Σ_(i,j) Σ_k a[i][k] · b[k][j] = Σ_k (Σ_i a[i][k]) · (Σ_j b[k][j])
//! ```
//!
//! which holds *exactly* in the dyadic rationals — and therefore exactly
//! in their homomorphic image mod `p = 2^61 - 1` ([`m3xu_fp::residue`]).
//! The right-hand side is the **expected** checksum; the left-hand side,
//! the **computed** checksum, is the residue sum of the exact products
//! the checked MMA forms, `pre_round − seed` per element: each SIMD row's
//! product lanes (`2^61 ≡ 1`, so a significand's weight `2^e` is a
//! rotation), or, on the scalar element body, its decoded lanes. An
//! injected fault corrupts a rounded output and shifts the computed side
//! by a nonzero dyadic delta, whose residue is nonzero because `p` is
//! prime — detection of a single corrupted value is *certain*, not
//! probabilistic.
//!
//! The identity is checked per k-chunk: each chunk rounds its results
//! and re-seeds the next one, and a fault lands on a chunk's output.
//!
//! ## Expected checksums come from the packed planes
//!
//! The expected side is computed from the [`PackedOperand`] value planes
//! — the quantised, alpha-folded values the multiplier array *actually*
//! consumes — not from the source matrices. Every pack is lossless, so a
//! value's residue is the sum of its buffer entries' ([`entry_residue`]).
//! That one choice makes the whole op × precision surface checkable with
//! a single algebra:
//!
//! * narrow modes (FP16/BF16/TF32): the planes hold the quantised
//!   values, so quantisation needs no modelling;
//! * the BLAS-3 driver's `alpha` fold and `op(X)` views: packing already
//!   applied them, so the checksum algebra inherits them for free;
//! * emulated FP64: the 5 mantissa slices of an element sum to its `f64`
//!   value, and the 53-bit/2^-1074 dyadic range is inside `F_p`'s image
//!   ([`m3xu_fp::residue::residue_f64`]);
//! * the truncated fast-FP32 schedule: the per-slice column sums
//!   `S_A[s]`, `S_B[t]` are combined term-by-term, skipping exactly the
//!   `s + t >= N` products the datapath skips.
//!
//! A checked call sums each operand's residues once, per output-tile band
//! and per `k` ([`BandSums`]): `S_A[k]` over a tile row's `A` vectors and
//! `S_B[k]` over a tile column's `B` vectors. Every tile of the band
//! reads the same sums, so a chunk's expected checksum costs `klen`
//! products, not a rescan of both bands, and never reads the seeds' values.
//!
//! ## Special values
//!
//! NaN/Inf have no dyadic value. A chunk whose seeds or operand band
//! contain specials is *unverifiable* ([`Checksum::ok`] is false: a
//! non-finite seed leaves no output the injector targets) and is
//! skipped by the verifier — ABFT coverage extends exactly as far as the
//! arithmetic the checksum algebra models, matching the fault injector,
//! which never targets special-valued lanes (they bypass the multiplier
//! array).

use crate::buffer::{decode_fp32, BufferEntry};
use crate::modes::MxuMode;
use crate::packed::PackedOperand;
use m3xu_fp::residue::{
    add_m61, mul_m61, mul_pow2_m61, neg_m61, residue_f32, residue_f64, sub_m61,
};
use m3xu_fp::C32;

/// A per-chunk checksum: the residue pair (imaginary part zero for real
/// GEMMs) plus a verifiability flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksum {
    /// Residue of the real part, mod `2^61 - 1`.
    pub re: u64,
    /// Residue of the imaginary part, mod `2^61 - 1`.
    pub im: u64,
    /// False when special values make the chunk unverifiable.
    pub ok: bool,
}

impl Checksum {
    /// The additive identity of a verifiable checksum.
    pub const ZERO: Checksum = Checksum {
        re: 0,
        im: 0,
        ok: true,
    };

    /// A checksum poisoned by special values.
    pub const UNVERIFIABLE: Checksum = Checksum {
        re: 0,
        im: 0,
        ok: false,
    };

    /// Accumulate a real element residue. `None` poisons the checksum
    /// into [`Checksum::UNVERIFIABLE`], which absorbs everything after
    /// it, so a checksum does not depend on the order of its residues.
    pub fn absorb_re(&mut self, r: Option<u64>) {
        match r {
            Some(r) if self.ok => self.re = add_m61(self.re, r),
            _ => *self = Checksum::UNVERIFIABLE,
        }
    }

    /// Accumulate a complex element residue pair.
    pub fn absorb_pair(&mut self, r: Option<(u64, u64)>) {
        match r {
            Some((re, im)) if self.ok => {
                self.re = add_m61(self.re, re);
                self.im = add_m61(self.im, im);
            }
            _ => *self = Checksum::UNVERIFIABLE,
        }
    }

    /// Does a computed checksum agree with this expected one?
    ///
    /// An unverifiable *expected* side always matches (no claim is made);
    /// a verifiable expected side with an unverifiable computed side is a
    /// mismatch — honest execution of a special-free chunk always yields
    /// a finite, extractable accumulator state.
    pub fn matches(&self, computed: &Checksum) -> bool {
        !self.ok || (computed.ok && self.re == computed.re && self.im == computed.im)
    }
}

/// Complex product in `F_p × F_p`:
/// `(ar·br − ai·bi, ar·bi + ai·br)`.
fn cmul_m61(a: (u64, u64), b: (u64, u64)) -> (u64, u64) {
    (
        sub_m61(mul_m61(a.0, b.0), mul_m61(a.1, b.1)),
        add_m61(mul_m61(a.0, b.1), mul_m61(a.1, b.0)),
    )
}

/// `F_p` residue of the exact dyadic value one [`BufferEntry`] denotes
/// (`±mant · 2^pow`); `None` for a special-valued entry, which has no
/// dyadic value. This is the same map the element bodies' residue tap
/// applies to their decoded lanes, so expected and computed sides
/// agree definitionally on what each lane is worth.
pub fn entry_residue(e: &BufferEntry) -> Option<u64> {
    if e.special.is_some() {
        return None;
    }
    let r = mul_pow2_m61(e.mant as u64, e.pow as i64);
    Some(if e.sign { neg_m61(r) } else { r })
}

/// How a mode's band sums combine into chunk products.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Schedule {
    /// Every slice pair is issued, so `Σ_(s,t) S_A[s]·S_B[t]` factors
    /// into `(Σ_s S_A[s])·(Σ_t S_B[t])`: one sum per element.
    Full,
    /// The fast FP32 schedule skips `s + t >= N`: one sum per slice.
    Truncated,
    /// FP32C: `(re, im)` half sums, multiplied in `F_p × F_p`.
    Complex,
}

/// The residue sums of one packed operand, per output-tile band and per
/// reduction index `k`, built once per checked call: band `t` holds
/// operand vectors `t·width ..` (the rows of one tile row of `A`, or the
/// columns of one tile column of `B`), the last band clipped. Each
/// `(band, k)` keeps the slots its mode's schedule multiplies — the
/// element value sum, per-slice sums, or the re/im pair — and a flag set
/// when any element of that band at `k` is special.
#[derive(Debug, Clone)]
pub struct BandSums {
    schedule: Schedule,
    len: usize,
    slots: usize,
    /// `[band][k][slot]`.
    sums: Vec<u64>,
    /// `[band][k]`: a special entry leaves the band's sums meaningless.
    special: Vec<bool>,
}

impl BandSums {
    /// Sum `p`'s value residues in bands of `width` vectors: one per
    /// element, FP32C component, or truncated schedule's hi/lo slice.
    pub fn new(p: &PackedOperand, width: usize) -> BandSums {
        Self::new_on(p, width, |bands, sum_band| (0..bands).for_each(sum_band))
    }

    /// [`BandSums::new`], each band summed by a task: `run(bands, f)` must
    /// call `f(t)` once for every band `t < bands`, in any order and on
    /// any threads (a worker pool's `run`). Each task writes only its own
    /// band, from zero, so the sums are [`BandSums::new`]'s whatever the
    /// schedule, and a band rerun after a lost task is harmless.
    pub fn new_on(
        p: &PackedOperand,
        width: usize,
        run: impl FnOnce(usize, &(dyn Fn(usize) + Sync)),
    ) -> BandSums {
        assert!(width > 0, "band width must be positive");
        let len = p.len();
        let (schedule, slots) = match p.mode() {
            MxuMode::M3xuFp32Fast => (Schedule::Truncated, 2),
            MxuMode::M3xuFp32c => (Schedule::Complex, 2),
            _ => (Schedule::Full, 1),
        };
        // Element `(v, k)`'s slot residues, `None` for a special.
        let residues = |v: usize, k: usize| -> Option<[u64; 2]> {
            Some(match p.mode() {
                MxuMode::M3xuFp32Fast => {
                    let (hi, lo) = decode_fp32(p.value_f32(v, k));
                    [entry_residue(&hi)?, entry_residue(&lo)?]
                }
                MxuMode::M3xuFp32c => {
                    let x = p.value_c32(v, k);
                    [residue_f32(x.re)?, residue_f32(x.im)?]
                }
                MxuMode::M3xuFp64Emu => [residue_f64(p.value_f64(v, k))?, 0],
                _ => [residue_f32(p.value_f32(v, k))?, 0],
            })
        };
        let bands = p.vecs().div_ceil(width);
        let mut sums = vec![0u64; bands * len * slots];
        let mut special = vec![false; bands * len];
        // One lock per band, each taken once, by the task that fills it;
        // an empty reduction leaves nothing to fill.
        let out: Vec<_> = sums
            .chunks_mut((len * slots).max(1))
            .zip(special.chunks_mut(len.max(1)))
            .map(std::sync::Mutex::new)
            .collect();
        run(out.len(), &|t| {
            let mut band = out[t].lock().unwrap_or_else(|e| e.into_inner());
            let (sums, special) = &mut *band;
            // A task may be rerun whole: it starts from zero either way.
            sums.fill(0);
            special.fill(false);
            for v in t * width..((t + 1) * width).min(p.vecs()) {
                for k in 0..len {
                    match residues(v, k) {
                        Some(r) => {
                            let out = &mut sums[k * slots..(k + 1) * slots];
                            out.iter_mut().zip(r).for_each(|(s, r)| *s = add_m61(*s, r));
                        }
                        None => special[k] = true,
                    }
                }
            }
        });
        drop(out);
        BandSums {
            schedule,
            len,
            slots,
            sums,
            special,
        }
    }

    /// The slots of `(band, k)`, `None` when the band is special there.
    #[inline]
    fn at(&self, band: usize, k: usize) -> Option<&[u64]> {
        let at = band * self.len + k;
        (!self.special[at]).then(|| &self.sums[at * self.slots..(at + 1) * self.slots])
    }
}

/// An accumulator element whose finiteness decides whether its chunk is
/// verifiable: `f32`, `f64` or [`C32`].
pub trait Seed: Copy {
    /// False for NaN or an infinity (either component of a complex one).
    fn is_finite(self) -> bool;
}

impl Seed for f32 {
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
}

impl Seed for f64 {
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
}

impl Seed for C32 {
    fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

/// Expected checksum of one k-chunk `k0..kend` of output tile `(ta, tb)`:
/// `Σ_k Σ_(s,t) S_A[s][k]·S_B[t][k]` under the operands' schedule, with
/// `S_A` from `a`'s band `ta` (the tile's rows) and `S_B` from `b`'s band
/// `tb` (its columns) — one sum per element, per truncated slice pair, or
/// FP32C's product in `F_p × F_p`, which absorbs the 16-lane component
/// schedule in one multiplication. Unverifiable when either band holds a
/// special in the chunk, or when one of `seeds`, the tile's accumulator
/// before the chunk runs, is not finite. The seeds' values play no part;
/// pass none where no fault can land on the chunk.
///
/// Because the entries are the values the multiplier array consumes —
/// quantised, alpha-folded, op-viewed — this one function covers every
/// mode, the truncated fast schedule and emulated FP64 included.
pub fn expected_chunk<S: Seed>(
    a: &BandSums,
    b: &BandSums,
    seeds: &[S],
    ta: usize,
    tb: usize,
    k0: usize,
    kend: usize,
) -> Checksum {
    debug_assert_eq!(a.schedule, b.schedule, "operand modes disagree");
    if !seeds.iter().all(|s| s.is_finite()) {
        return Checksum::UNVERIFIABLE;
    }
    let mut sum = Checksum::ZERO;
    for k in k0..kend {
        let (Some(sa), Some(sb)) = (a.at(ta, k), b.at(tb, k)) else {
            return Checksum::UNVERIFIABLE;
        };
        match a.schedule {
            Schedule::Full => sum.re = add_m61(sum.re, mul_m61(sa[0], sb[0])),
            Schedule::Truncated => {
                let n = sa.len();
                for (s, &va) in sa.iter().enumerate() {
                    for &vb in &sb[..n - s] {
                        sum.re = add_m61(sum.re, mul_m61(va, vb));
                    }
                }
            }
            Schedule::Complex => {
                let p = cmul_m61((sa[0], sa[1]), (sb[0], sb[1]));
                sum.re = add_m61(sum.re, p.0);
                sum.im = add_m61(sum.im, p.1);
            }
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3xu_fp::residue::residue_f32;

    #[test]
    fn unverifiable_expected_matches_anything() {
        let e = Checksum::UNVERIFIABLE;
        assert!(e.matches(&Checksum::ZERO));
        assert!(e.matches(&Checksum::UNVERIFIABLE));
    }

    #[test]
    fn verifiable_expected_rejects_unverifiable_computed() {
        let e = Checksum::ZERO;
        assert!(!e.matches(&Checksum::UNVERIFIABLE));
        assert!(e.matches(&Checksum::ZERO));
        let other = Checksum {
            re: 1,
            im: 0,
            ok: true,
        };
        assert!(!e.matches(&other));
    }

    #[test]
    fn specials_anywhere_poison_the_expected_side() {
        use crate::matrix::Matrix;
        let mut a = Matrix::<f32>::random(4, 4, 1);
        let b = Matrix::<f32>::random(4, 4, 2);
        let seeds = [0.0f32; 16];
        let sb = BandSums::new(&PackedOperand::pack_cols_f32(&b, MxuMode::M3xuFp32), 4);
        let sums =
            |m: &Matrix<f32>| BandSums::new(&PackedOperand::pack_rows_f32(m, MxuMode::M3xuFp32), 4);
        assert!(expected_chunk(&sums(&a), &sb, &seeds, 0, 0, 0, 4).ok);
        a.set(2, 3, f32::NAN);
        assert!(!expected_chunk(&sums(&a), &sb, &seeds, 0, 0, 0, 4).ok);
        // A NaN outside the chunk's k-range does not poison it.
        assert!(expected_chunk(&sums(&a), &sb, &seeds, 0, 0, 0, 3).ok);
        // A NaN or infinite seed does, regardless of the operands, and an
        // infinite complex component too.
        let mut bad_seeds = seeds;
        bad_seeds[5] = f32::NAN;
        assert!(!expected_chunk(&sums(&b), &sb, &bad_seeds, 0, 0, 0, 3).ok);
        let z = [C32::new(1.0, f32::INFINITY)];
        let (za, zb) = (Matrix::random_c32(4, 4, 3), Matrix::random_c32(4, 4, 4));
        let za = BandSums::new(&PackedOperand::pack_rows_c32(&za), 4);
        let zb = BandSums::new(&PackedOperand::pack_cols_c32(&zb), 4);
        assert!(expected_chunk(&za, &zb, &[C32::new(1.0, 2.0)], 0, 0, 0, 4).ok);
        assert!(!expected_chunk(&za, &zb, &z, 0, 0, 0, 4).ok);
        // Finite seeds add nothing: the seed term left both sides.
        assert_eq!(
            expected_chunk(&za, &zb, &[C32::new(1.0, 2.0)], 0, 0, 0, 4),
            expected_chunk::<C32>(&za, &zb, &[], 0, 0, 0, 4)
        );
    }

    #[test]
    fn entry_residue_matches_the_value_residue_for_lossless_packs() {
        use crate::matrix::Matrix;
        // `BandSums` reads one residue per stored value, where the
        // datapath multiplies the entries the value decodes to. Every
        // packing mode's decode is lossless, so an element's entry
        // residues must sum to its value's residue, and a special must
        // leave both sides `None`.
        let sum = |es: &[BufferEntry]| {
            es.iter()
                .try_fold(0, |r, e| Some(add_m61(r, entry_residue(e)?)))
        };
        let decoded = |p: &PackedOperand, k: usize| {
            let mut e = [BufferEntry::ZERO; 5];
            p.decode(0, k, k + 1, &mut e);
            e
        };
        // FP32 and fast FP32 store these as given; FP16, BF16 and TF32
        // quantise them, to their own subnormals (FP16's below 6.1e-5,
        // BF16's and TF32's below 1.2e-38) and to ±Inf past their range.
        let xs = [
            1.5f32,
            -3.25,
            0.1,
            123_456.78,
            f32::MIN_POSITIVE,
            1e-45,
            -3.5e-42,
            3e-6,
            -6e-8,
            0.0,
            -0.0,
            65_520.0,
            -1e6,
            f32::MAX,
            -f32::MAX,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        let row = Matrix::from_fn(1, xs.len(), |_, k| xs[k]);
        let mut infs = 0;
        for mode in [
            MxuMode::M3xuFp32,
            MxuMode::M3xuFp32Fast,
            MxuMode::Fp16,
            MxuMode::Bf16,
            MxuMode::Tf32,
        ] {
            let p = PackedOperand::pack_rows_f32(&row, mode);
            for (k, x) in xs.iter().enumerate() {
                let v = p.value_f32(0, k);
                infs += (x.is_finite() && v.is_infinite()) as usize;
                let got = sum(&decoded(&p, k)[..p.epe()]);
                assert_eq!(got, residue_f32(v), "{mode:?}: {x:e} packs to {v:e}");
            }
        }
        // FP16 overflows 123456.78, 65520, -1e6 and ±f32::MAX; BF16 and
        // TF32 overflow ±f32::MAX.
        assert_eq!(infs, 9);
        // FP32C: each component's hi/lo pair.
        let z = Matrix::from_fn(1, xs.len(), |_, k| C32::new(xs[k], xs[xs.len() - 1 - k]));
        let p = PackedOperand::pack_rows_c32(&z);
        for k in 0..xs.len() {
            let (e, v) = (decoded(&p, k), p.value_c32(0, k));
            assert_eq!(sum(&e[..2]), residue_f32(v.re), "{v:?}");
            assert_eq!(sum(&e[2..4]), residue_f32(v.im), "{v:?}");
        }
        // Emulated FP64: the five slices of normals, subnormals and ±0.
        let ds = [
            1.0 / 3.0,
            -2.5e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            -1e-310,
            0.0,
            -0.0,
            f64::NAN,
            f64::NEG_INFINITY,
        ];
        let d = Matrix::from_fn(1, ds.len(), |_, k| ds[k]);
        let p = PackedOperand::try_pack_rows_f64(&d, MxuMode::M3xuFp64Emu).unwrap();
        for (k, x) in ds.iter().enumerate() {
            assert_eq!(sum(&decoded(&p, k)), residue_f64(*x), "{x:e}");
        }
    }

    #[test]
    fn band_sums_equal_the_lane_by_lane_sum_on_every_tile() {
        use crate::matrix::Matrix;
        use m3xu_fp::residue::pow2_m61;
        // The expected checksum of every chunk of every tile, clipped
        // bands included (11 rows and 7 columns in bands of 4 and 3),
        // equals the residue sum of every lane product the element bodies
        // issue — each slice pair (the fast mode's `s + t < N` ones), or
        // FP32C's 16 component lanes — with no factoring. Each entry's
        // residue is spelled out as a product.
        let res = |e: &BufferEntry| {
            let r = mul_m61(e.mant as u64, pow2_m61(e.pow as i64));
            if e.sign {
                neg_m61(r)
            } else {
                r
            }
        };
        let (m, k, n, wa, wb) = (11usize, 5, 7usize, 4, 3);
        let check = |pa: &PackedOperand,
                     pb: &PackedOperand,
                     expect: &dyn Fn(usize, usize, usize, usize) -> Checksum| {
            let epe = pa.epe();
            let truncated = pa.mode() == MxuMode::M3xuFp32Fast;
            for ta in 0..m.div_ceil(wa) {
                for tb in 0..n.div_ceil(wb) {
                    for (k0, kend) in [(0, 2), (2, 4), (4, 5), (0, 5)] {
                        let mut want = (0u64, 0u64);
                        for i in ta * wa..(ta * wa + wa).min(m) {
                            for j in tb * wb..(tb * wb + wb).min(n) {
                                for kk in k0..kend {
                                    let (mut x, mut y) =
                                        ([BufferEntry::ZERO; 5], [BufferEntry::ZERO; 5]);
                                    pa.decode(i, kk, kk + 1, &mut x);
                                    pb.decode(j, kk, kk + 1, &mut y);
                                    let (x, y) = (&x[..epe], &y[..epe]);
                                    if pa.mode() == MxuMode::M3xuFp32c {
                                        let (xr, xi) = (
                                            add_m61(res(&x[0]), res(&x[1])),
                                            add_m61(res(&x[2]), res(&x[3])),
                                        );
                                        let (yr, yi) = (
                                            add_m61(res(&y[0]), res(&y[1])),
                                            add_m61(res(&y[2]), res(&y[3])),
                                        );
                                        want.0 = add_m61(
                                            want.0,
                                            sub_m61(mul_m61(xr, yr), mul_m61(xi, yi)),
                                        );
                                        want.1 = add_m61(
                                            want.1,
                                            add_m61(mul_m61(xr, yi), mul_m61(xi, yr)),
                                        );
                                        continue;
                                    }
                                    for (s, xs) in x.iter().enumerate() {
                                        for (t, yt) in y.iter().enumerate() {
                                            if !truncated || s + t < epe {
                                                want.0 = add_m61(want.0, mul_m61(res(xs), res(yt)));
                                            }
                                        }
                                    }
                                }
                            }
                        }
                        let got = expect(ta, tb, k0, kend);
                        assert!(got.ok, "{:?} tile ({ta}, {tb}) k {k0}..{kend}", pa.mode());
                        assert_eq!(
                            (got.re, got.im),
                            want,
                            "{:?} tile ({ta}, {tb}) k {k0}..{kend}",
                            pa.mode()
                        );
                    }
                }
            }
        };
        let a = Matrix::<f32>::random(m, k, 41);
        let b = Matrix::<f32>::random(k, n, 42);
        for mode in [
            MxuMode::M3xuFp32,
            MxuMode::M3xuFp32Fast,
            MxuMode::Bf16,
            MxuMode::Tf32,
        ] {
            let (pa, pb) = (
                PackedOperand::pack_rows_f32(&a, mode),
                PackedOperand::pack_cols_f32(&b, mode),
            );
            let (sa, sb) = (BandSums::new(&pa, wa), BandSums::new(&pb, wb));
            check(&pa, &pb, &|ta, tb, k0, kend| {
                expected_chunk::<f32>(&sa, &sb, &[], ta, tb, k0, kend)
            });
        }
        let (a, b) = (Matrix::random_c32(m, k, 43), Matrix::random_c32(k, n, 44));
        let (pa, pb) = (
            PackedOperand::pack_rows_c32(&a),
            PackedOperand::pack_cols_c32(&b),
        );
        let (sa, sb) = (BandSums::new(&pa, wa), BandSums::new(&pb, wb));
        check(&pa, &pb, &|ta, tb, k0, kend| {
            expected_chunk::<C32>(&sa, &sb, &[], ta, tb, k0, kend)
        });
        let a = Matrix::from_fn(m, k, |i, j| ((1 + i * k + j) as f64 / 7.0).sin());
        let b = Matrix::from_fn(k, n, |i, j| ((2 + i * n + j) as f64 / 11.0).cos());
        let pa = PackedOperand::try_pack_rows_f64(&a, MxuMode::M3xuFp64Emu).unwrap();
        let pb = PackedOperand::try_pack_cols_f64(&b, MxuMode::M3xuFp64Emu).unwrap();
        let (sa, sb) = (BandSums::new(&pa, wa), BandSums::new(&pb, wb));
        check(&pa, &pb, &|ta, tb, k0, kend| {
            expected_chunk::<f64>(&sa, &sb, &[], ta, tb, k0, kend)
        });
        // Finite seeds add nothing, an infinite one makes it unverifiable.
        let seeds = [0.25, -3.5, 1e-300, 7.0];
        let with = expected_chunk(&sa, &sb, &seeds, 1, 1, 0, 2);
        assert_eq!(with, expected_chunk::<f64>(&sa, &sb, &[], 1, 1, 0, 2));
        assert!(!expected_chunk(&sa, &sb, &[f64::INFINITY], 1, 1, 0, 2).ok);
    }

    #[test]
    fn packed_expected_agrees_across_pack_flavours() {
        use crate::matrix::{MatOp, Matrix, OpView};
        // Packing through an identity op view with alpha = 1 (bitwise)
        // must produce the same expected checksum as packing the matrix
        // itself — same planes, same algebra.
        let a = Matrix::<f32>::random(4, 6, 31);
        let b = Matrix::<f32>::random(6, 4, 32);
        let seeds = [0.25f32; 16];
        for mode in [MxuMode::M3xuFp32, MxuMode::M3xuFp32Fast, MxuMode::Bf16] {
            let pa = PackedOperand::pack_rows_f32(&a, mode);
            let pb = PackedOperand::pack_cols_f32(&b, mode);
            let (va, vb) = (OpView::new(&a, MatOp::N), OpView::new(&b, MatOp::N));
            let sa = PackedOperand::try_pack_rows_f32_src_in(&va, 1.0, mode, Default::default())
                .unwrap();
            let sb =
                PackedOperand::try_pack_cols_f32_src_in(&vb, mode, Default::default()).unwrap();
            let band = |p: &PackedOperand| BandSums::new(p, 4);
            let want = expected_chunk(&band(&pa), &band(&pb), &seeds, 0, 0, 0, 6);
            let got = expected_chunk(&band(&sa), &band(&sb), &seeds, 0, 0, 0, 6);
            assert!(want.ok);
            assert_eq!(want, got, "{mode:?}");
        }
    }

    #[test]
    fn complex_product_structure() {
        // (1 + 2i)(3 + 4i) = -5 + 10i.
        let p = cmul_m61((1, 2), (3, 4));
        assert_eq!(p.0, m3xu_fp::residue::M61 - 5);
        assert_eq!(p.1, 10);
    }
}
