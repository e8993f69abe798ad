//! Deterministic checkpoint/restore for crash-stop recovery.
//!
//! Ranks periodically save their recovery-relevant progress into a
//! [`CkptStore`] keyed by rank and epoch, on the *virtual* clock. When a
//! peer's crash is detected (see `gnb-core`'s runtime layer), a survivor
//! restores the dead rank's last checkpoint and replays the tail — the
//! whole protocol stays on virtual time and seeded hashing, so recovery
//! is bit-reproducible.
//!
//! A checkpoint is a typed [`Snapshot`], cloned into the store. It never
//! leaves the process, so it has no byte layout; what the performance
//! model reads of it is its size, [`Snapshot::encoded_len`].
//!
//! Checkpoint *cost* is part of the performance model: [`CkptParams`]
//! prices a write as `base + per_kib × ⌈size/1 KiB⌉`, which the driver
//! books as overhead (writes) or recovery (restores).

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One rank's recovery-relevant progress. Both coordination codes
/// checkpoint a cursor, an optional completion bitmap and a counter: the
/// pull protocol its next local chunk, its per-group bitmap and its task
/// count; BSP its next superstep and its task count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Where a successor resumes: the next local chunk (pull) or the next
    /// superstep (BSP).
    pub cursor: usize,
    /// Which of the rank's groups are complete (pull only).
    pub done: Option<Vec<bool>>,
    /// Tasks the rank had completed.
    pub tasks_done: u64,
}

impl Snapshot {
    /// Bytes the snapshot is priced at: 8 each for the cursor and the
    /// counter, and for a bitmap an 8-byte length plus one byte per flag.
    pub fn encoded_len(&self) -> usize {
        16 + self.done.as_ref().map_or(0, |d| 8 + d.len())
    }
}

/// Latest-checkpoint-per-rank store, modelling globally visible stable
/// storage (a burst buffer / parallel FS). Only the most recent epoch per
/// rank is retained — takeover restores from the last checkpoint, never
/// an older one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CkptStore {
    /// Each rank's latest `(epoch, snapshot)`.
    latest: BTreeMap<usize, (u64, Snapshot)>,
}

impl CkptStore {
    /// Accepts `rank`'s checkpoint at `epoch`, superseding any earlier one.
    ///
    /// # Panics
    /// Panics if the epoch does not increase (checkpoints are monotone).
    pub fn record(&mut self, rank: usize, epoch: u64, snap: Snapshot) {
        if let Some(&(prev, _)) = self.latest.get(&rank) {
            assert!(
                epoch > prev,
                "rank {rank} checkpoint epoch went backwards ({prev} -> {epoch})"
            );
        }
        self.latest.insert(rank, (epoch, snap));
    }

    /// The most recent checkpoint from `rank`, if it ever took one.
    pub fn latest(&self, rank: usize) -> Option<&Snapshot> {
        self.latest.get(&rank).map(|(_, snap)| snap)
    }
}

/// Checkpoint cost/cadence parameters (virtual-time nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CkptParams {
    /// Interval between checkpoint epochs on each rank.
    pub interval_ns: u64,
    /// Fixed cost per checkpoint write or restore.
    pub base_ns: u64,
    /// Marginal cost per KiB of [`Snapshot::encoded_len`] (rounded up).
    pub per_kib_ns: u64,
}

impl Default for CkptParams {
    fn default() -> CkptParams {
        CkptParams {
            interval_ns: 250_000_000,
            base_ns: 200_000,
            per_kib_ns: 2_000,
        }
    }
}

impl CkptParams {
    /// Virtual time to write or restore a `bytes`-sized checkpoint.
    pub fn io_cost(&self, bytes: usize) -> SimTime {
        let kib = (bytes as u64).div_ceil(1024);
        SimTime::from_ns(self.base_ns + self.per_kib_ns * kib)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(cursor: usize) -> Snapshot {
        Snapshot {
            cursor,
            done: None,
            tasks_done: 0,
        }
    }

    #[test]
    fn store_keeps_latest_epoch_only() {
        let mut s = CkptStore::default();
        assert!(s.latest(1).is_none());
        s.record(1, 0, snap(1));
        s.record(1, 1, snap(2));
        assert_eq!(s.latest(1), Some(&snap(2)));
        assert!(s.latest(0).is_none());
    }

    #[test]
    #[should_panic(expected = "epoch went backwards")]
    fn store_rejects_stale_epoch() {
        let mut s = CkptStore::default();
        s.record(0, 3, snap(0));
        s.record(0, 3, snap(1));
    }

    #[test]
    fn io_cost_scales_with_size() {
        let p = CkptParams::default();
        assert_eq!(p.io_cost(0).as_ns(), p.base_ns);
        assert_eq!(p.io_cost(1).as_ns(), p.base_ns + p.per_kib_ns);
        assert_eq!(p.io_cost(1024).as_ns(), p.base_ns + p.per_kib_ns);
        assert_eq!(p.io_cost(1025).as_ns(), p.base_ns + 2 * p.per_kib_ns);
    }
}
