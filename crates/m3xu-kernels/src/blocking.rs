//! Cache-aware `K`-blocking for the tiled GEMM drivers.
//!
//! The packed pipeline reads the `B` operand's k-major value plane once
//! per output-row band; without blocking, a large GEMM streams the whole
//! `k x n` plane through the cache for every band of 8 output rows. The
//! drivers therefore split the reduction into a two-level hierarchy:
//!
//! * an **L2 epoch** of `kc2` reduction steps — one pool dispatch per
//!   epoch, so the `kc2 x n` slice of `B`'s value plane stays L2-resident
//!   while every output tile of the grid consumes it;
//! * an **L1 panel** of `kc1` steps inside each tile task — the slice of
//!   `B` feeding one 8-column tile (`kc1 x 8` values) and the matching
//!   `A` row segments stay L1-resident across the tile's 8 output rows.
//!
//! Panel sizes derive from the detected cache sizes (sysfs, with
//! conservative fallbacks), target half of each level, and are rounded to
//! fragment-depth multiples so every panel boundary is also a rounding
//! boundary — blocking changes traversal order *between* fragment chunks,
//! never the arithmetic inside one, which is what keeps the drivers
//! bit-identical to the unblocked loop.

use std::sync::OnceLock;

/// Fallback data-cache sizes (bytes) when detection fails: small enough
/// to be safe on anything this runs on.
const L1_FALLBACK: usize = 32 * 1024;
const L2_FALLBACK: usize = 1024 * 1024;

/// Detected (L1d, L2) data-cache sizes in bytes, resolved once.
fn cache_sizes() -> (usize, usize) {
    static SIZES: OnceLock<(usize, usize)> = OnceLock::new();
    *SIZES.get_or_init(|| {
        let (mut l1, mut l2) = (None, None);
        for idx in 0..8 {
            let base = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
            let read = |f: &str| std::fs::read_to_string(format!("{base}/{f}"));
            let Ok(level) = read("level") else { break };
            // Instruction-only caches don't hold operand planes.
            if matches!(read("type").as_deref().map(str::trim), Ok("Instruction")) {
                continue;
            }
            let size = read("size").ok().and_then(|s| parse_size(s.trim()));
            match (level.trim(), size) {
                ("1", Some(s)) => l1 = Some(s),
                ("2", Some(s)) => l2 = Some(s),
                _ => {}
            }
        }
        (l1.unwrap_or(L1_FALLBACK), l2.unwrap_or(L2_FALLBACK))
    })
}

/// Parse a sysfs cache size string (`"48K"`, `"2048K"`, `"1M"`).
fn parse_size(s: &str) -> Option<usize> {
    if let Some(k) = s.strip_suffix(['K', 'k']) {
        k.parse::<usize>().ok().map(|v| v * 1024)
    } else if let Some(m) = s.strip_suffix(['M', 'm']) {
        m.parse::<usize>().ok().map(|v| v * 1024 * 1024)
    } else {
        s.parse::<usize>().ok()
    }
}

/// The resolved two-level reduction blocking for one GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KPlan {
    /// L1 panel depth (reduction elements) — a multiple of the fragment
    /// depth, so panel edges stay rounding-chunk edges.
    pub kc1: usize,
    /// L2 epoch depth — a multiple of `kc1`.
    pub kc2: usize,
}

impl KPlan {
    /// Derive the blocking for a `k`-deep reduction over `n` output
    /// columns with `val_bytes`-wide value-plane elements, chunked at
    /// fragment depth `frag_k`.
    pub fn new(frag_k: usize, k: usize, n: usize, val_bytes: usize) -> KPlan {
        assert!(frag_k > 0, "fragment depth must be positive");
        let k = k.max(1);
        let (l1, l2) = cache_sizes();
        // L1 panel: the 8-column B slice (8 * kc1 * val_bytes) plus the A
        // row segment should fill about half of L1d.
        let kc1 = l1 / 2 / (8 * val_bytes).max(1);
        // L2 epoch: the full-width B slice (n * kc2 * val_bytes) should
        // fill about half of L2.
        let kc2 = l2 / 2 / (n.max(1) * val_bytes).max(1);
        // Round to fragment-depth multiples and clamp into [frag_k, k]:
        // every panel boundary must be a rounding boundary, and a panel
        // never needs to exceed the whole reduction.
        let round = |v: usize| (v / frag_k).max(1) * frag_k;
        let kc1 = round(kc1).min(round(k + frag_k - 1));
        // kc2 is a multiple of kc1 so L1 panels never straddle an epoch.
        let kc2 = (kc2 / kc1).max(1) * kc1;
        KPlan { kc1, kc2 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_fragment_aligned_and_ordered() {
        for (frag_k, k, n, vb) in [
            (2, 512, 512, 4),
            (4, 1000, 33, 4),
            (1, 7, 8, 8),
            (2, 1, 1, 4),
            (4, 4096, 4096, 4),
        ] {
            let p = KPlan::new(frag_k, k, n, vb);
            assert_eq!(p.kc1 % frag_k, 0, "{p:?}");
            assert_eq!(p.kc2 % p.kc1, 0, "{p:?}");
            assert!(p.kc1 >= frag_k && p.kc2 >= p.kc1, "{p:?}");
        }
    }

    #[test]
    fn parse_size_handles_sysfs_suffixes() {
        assert_eq!(parse_size("48K"), Some(48 * 1024));
        assert_eq!(parse_size("2M"), Some(2 * 1024 * 1024));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn detection_always_yields_positive_sizes() {
        let (l1, l2) = cache_sizes();
        assert!(l1 >= 4 * 1024 && l2 >= 64 * 1024, "l1={l1} l2={l2}");
    }
}
