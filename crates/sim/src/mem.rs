//! Per-rank memory accounting with high-water marks.
//!
//! The paper's Fig. 11/12 compare per-core memory footprints gathered from
//! NERSC job logs: the BSP code's exchange buffers ride the
//! available-memory line while memory-limited, the async code stays under
//! 256 MB. Simulated programs report allocations/frees here; the tracker
//! records the high-water mark per rank.

use serde::{Deserialize, Serialize};

/// Tracks current and peak memory per rank.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemTracker {
    current: Vec<u64>,
    peak: Vec<u64>,
}

impl MemTracker {
    /// Creates a tracker for `nranks` ranks, all at zero.
    pub fn new(nranks: usize) -> MemTracker {
        MemTracker {
            current: vec![0; nranks],
            peak: vec![0; nranks],
        }
    }

    /// Records an allocation of `bytes` on `rank`.
    pub fn alloc(&mut self, rank: usize, bytes: u64) {
        // gnb-lint: allow(panic-path, reason = "per-rank vectors have nranks entries; rank ids come from the engine")
        self.current[rank] += bytes;
        // gnb-lint: allow(panic-path, reason = "per-rank vectors have nranks entries; rank ids come from the engine")
        if self.current[rank] > self.peak[rank] {
            // gnb-lint: allow(panic-path, reason = "per-rank vectors have nranks entries; rank ids come from the engine")
            self.peak[rank] = self.current[rank];
        }
    }

    /// Records a free of `bytes` on `rank`.
    ///
    /// # Panics
    /// Panics if more is freed than is currently allocated — a program
    /// accounting bug worth failing loudly on.
    pub fn free(&mut self, rank: usize, bytes: u64) {
        assert!(
            // gnb-lint: allow(panic-path, reason = "per-rank vectors have nranks entries; rank ids come from the engine")
            self.current[rank] >= bytes,
            "rank {rank} freeing {bytes} with only {} allocated",
            // gnb-lint: allow(panic-path, reason = "per-rank vectors have nranks entries; rank ids come from the engine")
            self.current[rank]
        );
        // gnb-lint: allow(panic-path, reason = "per-rank vectors have nranks entries; rank ids come from the engine")
        self.current[rank] -= bytes;
    }

    /// Current allocation of `rank`.
    pub fn current(&self, rank: usize) -> u64 {
        // gnb-lint: allow(panic-path, reason = "per-rank vectors have nranks entries; rank ids come from the engine")
        self.current[rank]
    }

    /// Peak allocation of `rank`.
    pub fn peak(&self, rank: usize) -> u64 {
        // gnb-lint: allow(panic-path, reason = "per-rank vectors have nranks entries; rank ids come from the engine")
        self.peak[rank]
    }

    /// Peak across all ranks (the Fig. 11 "maximum memory footprint per
    /// core").
    pub fn max_peak(&self) -> u64 {
        self.peak.iter().copied().max().unwrap_or(0)
    }

    /// All peaks (per rank).
    pub fn peaks(&self) -> &[u64] {
        &self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_peak() {
        let mut m = MemTracker::new(2);
        m.alloc(0, 100);
        m.alloc(0, 50);
        m.free(0, 120);
        m.alloc(0, 10);
        assert_eq!(m.current(0), 40);
        assert_eq!(m.peak(0), 150);
        assert_eq!(m.peak(1), 0);
        assert_eq!(m.max_peak(), 150);
    }

    #[test]
    fn ranks_independent() {
        let mut m = MemTracker::new(3);
        m.alloc(1, 7);
        m.alloc(2, 9);
        assert_eq!(m.current(0), 0);
        assert_eq!(m.current(1), 7);
        assert_eq!(m.peaks(), &[0, 7, 9]);
    }

    #[test]
    #[should_panic(expected = "freeing")]
    fn over_free_panics() {
        let mut m = MemTracker::new(1);
        m.alloc(0, 5);
        m.free(0, 6);
    }
}
