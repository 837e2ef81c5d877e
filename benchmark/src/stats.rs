//! Order statistics and output digests.

/// Samples a percentile needs beyond it before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (`0 < p < 1`) of `sorted` by nearest rank, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie above it. Samples
/// may be `f64::INFINITY` (a request that failed counts as missing every
/// latency limit).
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&p) {
        return None;
    }
    // The tolerance keeps `0.9 * 100` from rounding up to rank 91.
    let rank = ((p * n as f64 - 1e-9).ceil() as usize).max(1);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The fewest samples at which [`percentile`] can report `p`.
pub fn samples_for(p: f64) -> usize {
    (MIN_BEYOND as f64 / (1.0 - p) - 1e-6).ceil() as usize
}

/// Sort a sample vector (total order; infinities last).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads read the same as in any script that checks them.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs.to_vec());
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// FNV-1a over 64-bit words: the digest every output is compared by.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        assert_eq!(percentile(&xs[..999], 0.99), None);
        assert_eq!(percentile(&xs[..40], 0.75), Some(30.0));
        assert_eq!(percentile(&xs[..39], 0.75), None);
        assert_eq!(percentile(&xs[..21], 0.5), Some(11.0));
        assert_eq!(samples_for(0.99), 1000);
        assert_eq!(samples_for(0.90), 100);
        assert_eq!(samples_for(0.75), 40);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn failed_samples_sort_last_and_count_as_misses() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        xs.extend([f64::INFINITY; 20]);
        let s = sorted(xs);
        assert_eq!(percentile(&s, 0.5), Some(60.0));
        assert_eq!(percentile(&s, 0.9), Some(f64::INFINITY));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), (1.5, 4.5));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
