//! How fast the host runs while a workload measures, so that every
//! end-to-end number reads at one reference speed.
//!
//! The measurement host is shared, and its speed drifts with the
//! neighbours' load: by a quarter within a few minutes, slowing and
//! recovering every piece of code together. Sets of ten 18-s runs as
//! measured spread by 13–38% on every end-to-end rate and latency. So a
//! run cuts its measurement into windows of about a second and times this
//! loop, on the workload's threads, in a short slot before the first
//! window and after each one, while the program is idle. A sample taken
//! in a window is read at [`REFERENCE_RATE`] by the host's speed over that
//! window, the geometric mean of the two slots around it: a time is
//! multiplied by it, a rate divided. Read so, the same sets spread by
//! 3–11% (BENCHMARK.md). The loop is the benchmark's own code, so no
//! change to the library can move the scale.
//!
//! The loop has the instruction mix of the library's fragment pipeline:
//! 64-bit lane shifts, adds, compares and selects, vectorised at AVX2
//! where the host has it, as the library's own SIMD level is.

use crate::stats::median;
use std::hint::black_box;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Wall time of one calibration slot.
pub const SLOT: Duration = Duration::from_millis(100);

/// About how long a run measures between two slots.
pub const WINDOW: Duration = Duration::from_secs(1);

/// Lanes the loop updates per pass; its three arrays fit in L1.
const LANES: usize = 1024;

/// Passes per second per thread that numbers are read at: about the
/// loop's rate, beside the spinners, on the 2-vCPU x86-64 measurement
/// host in a quiet hour. Fixed for good: a new value would rescale every
/// number.
pub const REFERENCE_RATE: f64 = 1.8e6;

/// The loop's threads, and its rates over one run.
///
/// The threads live as long as the recorder, as a context's worker pool
/// does. Beside the idle-priority spinners of [`crate::awake`], threads
/// spawned afresh for each slot ran the loop about 20% slower than with
/// no spinners, and threads that persist about 8% slower.
#[derive(Debug)]
pub struct HostSpeed {
    starts: Vec<mpsc::Sender<Instant>>,
    counts: mpsc::Receiver<u64>,
    workers: Vec<JoinHandle<()>>,
    rates: Vec<f64>,
}

impl HostSpeed {
    /// A recorder whose loop runs on `threads` threads, as the workload
    /// computes on.
    pub fn new(threads: usize) -> HostSpeed {
        let (done, counts) = mpsc::channel();
        let (starts, workers) = (0..threads.max(1) as u64)
            .map(|t| {
                let (start, slots) = mpsc::channel::<Instant>();
                let done = done.clone();
                let worker = std::thread::spawn(move || {
                    let y: Vec<u64> = (0..LANES as u64)
                        .map(|i| (i + t).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                        .collect();
                    let z: Vec<u64> = y.iter().map(|v| v.rotate_left(17)).collect();
                    let mut x = y.clone();
                    // Ends when the recorder drops its senders.
                    for t0 in slots {
                        let mut n = 0u64;
                        while n == 0 || t0.elapsed() < SLOT {
                            passes(&mut x, &y, &z, 16);
                            n += 16;
                        }
                        black_box(&x);
                        if done.send(n).is_err() {
                            return;
                        }
                    }
                });
                (start, worker)
            })
            .unzip();
        HostSpeed {
            starts,
            counts,
            workers,
            rates: Vec::new(),
        }
    }

    /// Run the loop on every thread for one [`SLOT`], record its
    /// per-thread rate, and return the slot's index: the window it opens.
    pub fn slot(&mut self) -> usize {
        let t0 = Instant::now();
        for s in &self.starts {
            s.send(t0).expect("calibration threads run until dropped");
        }
        let passes: u64 = (0..self.starts.len())
            .map(|_| {
                self.counts
                    .recv()
                    .expect("calibration threads run until dropped")
            })
            .sum();
        let secs = t0.elapsed().as_secs_f64();
        self.rates
            .push(passes as f64 / secs / self.starts.len() as f64);
        self.rates.len() - 1
    }

    /// Slots recorded so far.
    pub fn slots(&self) -> usize {
        self.rates.len()
    }

    /// The host's speed over the whole run: the loop's median per-thread
    /// rate ÷ [`REFERENCE_RATE`].
    pub fn factor(&self) -> f64 {
        median(&self.rates) / REFERENCE_RATE
    }

    /// The host's speed over window `w`, which slot `w` opened and slot
    /// `w + 1` closed: the geometric mean of their rates ÷
    /// [`REFERENCE_RATE`]. A time taken in the window reads at the
    /// reference speed multiplied by it, a rate divided by it.
    pub fn window(&self, w: usize) -> f64 {
        (self.rates[w] * self.rates[w + 1]).sqrt() / REFERENCE_RATE
    }
}

impl Drop for HostSpeed {
    fn drop(&mut self) {
        self.starts.clear();
        for w in self.workers.drain(..) {
            // The loop cannot panic; there is nothing to report.
            let _ = w.join();
        }
    }
}

/// `count` passes of the loop over `x`.
fn passes(x: &mut [u64], y: &[u64], z: &[u64], count: u32) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, checked just above.
        unsafe { passes_avx2(x, y, z, count) };
        return;
    }
    passes_generic(x, y, z, count);
}

/// [`passes_generic`] compiled for AVX2.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn passes_avx2(x: &mut [u64], y: &[u64], z: &[u64], count: u32) {
    passes_generic(x, y, z, count);
}

#[inline(always)]
fn passes_generic(x: &mut [u64], y: &[u64], z: &[u64], count: u32) {
    for _ in 0..count {
        for ((x, &y), &z) in x.iter_mut().zip(y).zip(z) {
            let w = ((*x << (y & 31)) ^ (y >> 3)).wrapping_add(z);
            *x = if (w as i64) > (z as i64) {
                w.wrapping_sub(y)
            } else {
                w ^ z
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_loop_builds_compute_the_same_lanes() {
        let y: Vec<u64> = (0..LANES as u64)
            .map(|i| i.wrapping_mul(0x2545_f491_4f6c_dd1d))
            .collect();
        let z: Vec<u64> = y.iter().map(|v| v.rotate_left(17)).collect();
        let (mut a, mut b) = (y.clone(), y.clone());
        passes(&mut a, &y, &z, 5);
        passes_generic(&mut b, &y, &z, 5);
        assert_eq!(a, b);
        assert_ne!(a, y);
    }

    #[test]
    fn a_window_reads_at_the_geometric_mean_of_its_two_slots() {
        let mut h = HostSpeed::new(2);
        assert_eq!(h.slot(), 0);
        assert_eq!(h.slot(), 1);
        assert_eq!(h.slots(), 2);
        assert!(h.factor() > 0.0 && h.factor().is_finite());
        h.rates = vec![REFERENCE_RATE, 4.0 * REFERENCE_RATE, REFERENCE_RATE];
        assert!((h.window(0) - 2.0).abs() < 1e-12);
        assert!((h.window(1) - 2.0).abs() < 1e-12);
        assert!((h.factor() - 1.0).abs() < 1e-12);
    }
}
