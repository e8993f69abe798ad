//! Per-rank memory accounting with high-water marks.
//!
//! The paper's Fig. 11/12 compare per-core memory footprints gathered from
//! NERSC job logs: the BSP code's exchange buffers ride the
//! available-memory line while memory-limited, the async code stays under
//! 256 MB. Simulated programs report allocations/frees here; the tracker
//! records the high-water mark per rank.

use crate::rank::{RankId, RankVec, Ranks};
use serde::{Deserialize, Serialize};

/// Tracks current and peak memory per rank.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemTracker {
    current: RankVec<u64>,
    peak: RankVec<u64>,
}

impl MemTracker {
    /// Creates a tracker for every rank of `ranks`, all at zero.
    pub(crate) fn new(ranks: Ranks) -> MemTracker {
        MemTracker {
            current: ranks.vec(0),
            peak: ranks.vec(0),
        }
    }

    /// Records an allocation of `bytes` on `rank`.
    pub(crate) fn alloc(&mut self, rank: RankId, bytes: u64) {
        self.current[rank] += bytes;
        if self.current[rank] > self.peak[rank] {
            self.peak[rank] = self.current[rank];
        }
    }

    /// Records a free of `bytes` on `rank`.
    ///
    /// # Panics
    /// Panics if more is freed than is currently allocated — a program
    /// accounting bug worth failing loudly on.
    pub(crate) fn free(&mut self, rank: RankId, bytes: u64) {
        assert!(
            self.current[rank] >= bytes,
            "rank {} freeing {bytes} with only {} allocated",
            rank.get(),
            self.current[rank]
        );
        self.current[rank] -= bytes;
    }

    /// Current allocation of `rank`.
    pub(crate) fn current(&self, rank: RankId) -> u64 {
        self.current[rank]
    }

    /// Peak allocation of `rank`.
    pub(crate) fn peak(&self, rank: RankId) -> u64 {
        self.peak[rank]
    }

    /// Peak across all ranks (the Fig. 11 "maximum memory footprint per
    /// core").
    pub fn max_peak(&self) -> u64 {
        self.peak.as_slice().iter().copied().max().unwrap_or(0)
    }

    /// All peaks (per rank).
    pub fn peaks(&self) -> &[u64] {
        self.peak.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> (MemTracker, Vec<RankId>) {
        let ranks = Ranks::new(n);
        (MemTracker::new(ranks), ranks.iter().collect())
    }

    #[test]
    fn tracks_peak() {
        let (mut m, r) = ids(2);
        m.alloc(r[0], 100);
        m.alloc(r[0], 50);
        m.free(r[0], 120);
        m.alloc(r[0], 10);
        assert_eq!(m.current(r[0]), 40);
        assert_eq!(m.peak(r[0]), 150);
        assert_eq!(m.peak(r[1]), 0);
        assert_eq!(m.max_peak(), 150);
    }

    #[test]
    fn ranks_independent() {
        let (mut m, r) = ids(3);
        m.alloc(r[1], 7);
        m.alloc(r[2], 9);
        assert_eq!(m.current(r[0]), 0);
        assert_eq!(m.current(r[1]), 7);
        assert_eq!(m.peaks(), &[0, 7, 9]);
    }

    #[test]
    #[should_panic(expected = "freeing")]
    fn over_free_panics() {
        let (mut m, r) = ids(1);
        m.alloc(r[0], 5);
        m.free(r[0], 6);
    }
}
