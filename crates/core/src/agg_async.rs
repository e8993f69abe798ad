//! The aggregated-asynchronous coordination code — the middle ground the
//! paper's §5 asks about, between BSP's full-exchange aggregation (§3.1)
//! and plain async's one-RPC-per-read pulls (§3.2).
//!
//! The same pull machine ([`crate::pull`]) over the same task plan as
//! [`crate::async_alg`]; this module is only the wire policy that differs
//! ([`Coalescer`]). Requests to the same owner rank are
//! *destination-coalesced*: read ids accumulate in a per-owner batch that
//! ships as one tracked request when it reaches the aggregation threshold
//! ([`RunConfig::agg_batch`]) or when its flush timeout
//! ([`RunConfig::agg_flush_ns`]) expires, and the owner answers with one
//! reply carrying every requested read. A batch of `k` reads pays the
//! per-message cost α once instead of `k` times — exactly where plain
//! async loses to BSP at small node counts (Fig. 7) — while keeping
//! async's window-bounded memory and communication hiding.
//!
//! Flush timers ride the runtime's self-timer path
//! ([`crate::runtime::RtCtx::after_app`]), which per the fault-injection
//! contract is never dropped, duplicated or delayed: a lossy network can
//! delay *batches*, but it cannot strand reads in a batch that never flushes.
//! Stale timers are invalidated by a per-owner generation counter.
//!
//! Determinism note: the batch *composition* state (which reads share a
//! batch) is deliberately not race-instrumented. Composition is
//! timeline-variant under equal-time tie-break perturbation — two pump
//! steps at the same virtual instant may batch in either order — but
//! result-invariant: every read is requested exactly once, task
//! checksums are plan constants, and `tasks_done` is total on every
//! completing run. The runtime still race-instruments what must be
//! tie-break-clean: batch keys on the reply/timeout path and owner-side
//! read lookups.

use crate::async_alg::AsyncRankPlan;
use crate::driver::RunConfig;
use crate::pull::{PullApp, PullCtx, PullStrategy, WirePolicy};
use crate::runtime::TAKEOVER_KEY_BASE;
use gnb_sim::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Batch keys live above the 32-bit read-id space, so owner-side read
/// race keys and runtime batch race keys can never collide.
const BATCH_KEY_BASE: u64 = 1 << 32;

// The three key namespaces stay disjoint: plain keys are u32 read ids,
// batch keys start above them and below the takeover keys.
const _: () = assert!(
    BATCH_KEY_BASE > u32::MAX as u64 && BATCH_KEY_BASE < TAKEOVER_KEY_BASE,
    "batch keys must sit above the u32 read ids and below the takeover keys"
);

/// The coalescer's self-timer: flush the pending batch for `owner` unless
/// generation `gen` is stale (the batch already flushed at threshold).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flush {
    owner: usize,
    gen: u64,
}

/// Deterministic flush-timer jitter: decorrelates flush instants across
/// (rank, owner, generation) so timers do not land on the exact virtual
/// instants replies arrive at (splitmix64 finalizer).
fn flush_jitter(rank: usize, owner: usize, gen: u64) -> u64 {
    let mut z = (rank as u64)
        .wrapping_shl(32)
        .wrapping_add(owner as u64)
        .wrapping_add(gen.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The aggregating wire policy: per-owner pending batches that ship as
/// one tracked request (`BATCH_KEY_BASE + seq`) at the threshold or on a
/// jittered flush timer; the owner serves the whole batch in one reply,
/// which releases every group the batch carried.
pub struct Coalescer {
    rank: usize,
    req_bytes: u64,
    /// Aggregation threshold: a pending batch ships when it holds this
    /// many reads.
    agg_batch: usize,
    /// Flush timeout, ns: no read waits in a pending batch longer than
    /// this (plus jitter).
    agg_flush_ns: u64,
    /// Per-owner pending batch: group indices accumulating toward the
    /// threshold or the flush timeout.
    pending: BTreeMap<usize, Vec<usize>>,
    /// Per-owner flush generation: incremented on every flush, so a
    /// timer armed for an earlier generation no-ops.
    flush_gen: BTreeMap<usize, u64>,
    /// Next batch sequence number (per-rank; batch key =
    /// `BATCH_KEY_BASE + seq`).
    batch_seq: u64,
    /// Sent batches awaiting their reply, by batch key.
    batches: BTreeMap<u64, Vec<usize>>,
}

/// The aggregated-async coordination code: the pull machine with
/// destination-coalesced request/reply batches.
pub type AggAsyncStrategy = PullStrategy<Coalescer>;

impl Coalescer {
    /// Ships the pending batch for `owner` as one tracked request and
    /// invalidates any outstanding flush timer for it.
    fn flush(&mut self, rt: &mut PullCtx<'_, '_, Self>, me: &AsyncRankPlan, owner: usize) {
        let gidxs = match self.pending.remove(&owner) {
            Some(b) if !b.is_empty() => b,
            _ => return,
        };
        *self.flush_gen.entry(owner).or_insert(0) += 1;
        let reads: Vec<u32> = gidxs.iter().map(|&gidx| me.group(gidx).read).collect();
        let key = BATCH_KEY_BASE + self.batch_seq;
        self.batch_seq += 1;
        // One α for the whole batch: the request carries the batched read
        // ids (4 B each) on top of the fixed header.
        let bytes = self.req_bytes + 4 * reads.len() as u64;
        self.batches.insert(key, gidxs);
        rt.send_tracked(key, owner, bytes, Arc::new(reads));
    }
}

impl WirePolicy for Coalescer {
    type Timer = Flush;
    type Req = Arc<Vec<u32>>;
    type Released = Vec<usize>;

    fn new(rank: usize, cfg: &RunConfig) -> Coalescer {
        Coalescer {
            rank,
            req_bytes: cfg.req_bytes,
            agg_batch: cfg.agg_batch.max(1),
            agg_flush_ns: cfg.agg_flush_ns.max(1),
            pending: BTreeMap::new(),
            flush_gen: BTreeMap::new(),
            batch_seq: 0,
            batches: BTreeMap::new(),
        }
    }

    /// Adds the read to its owner's pending batch, flushing a batch that
    /// reaches the threshold. A batch that goes from empty to non-empty
    /// arms a flush timer so sub-threshold tails still ship.
    fn request(&mut self, rt: &mut PullCtx<'_, '_, Self>, me: &AsyncRankPlan, gidx: usize) {
        let owner = me.group(gidx).owner as usize;
        let batch = self.pending.entry(owner).or_default();
        batch.push(gidx);
        let len = batch.len();
        if len >= self.agg_batch {
            self.flush(rt, me, owner);
        } else if len == 1 {
            let gen = *self.flush_gen.entry(owner).or_insert(0);
            let jitter = flush_jitter(self.rank, owner, gen) % (self.agg_flush_ns / 8 + 1);
            rt.after_app(
                SimTime::from_ns(self.agg_flush_ns + jitter),
                PullApp::Wire(Flush { owner, gen }),
            );
        }
    }

    fn on_timer(&mut self, rt: &mut PullCtx<'_, '_, Self>, me: &AsyncRankPlan, timer: Flush) {
        let Flush { owner, gen } = timer;
        if self.flush_gen.get(&owner).copied().unwrap_or(0) == gen {
            self.flush(rt, me, owner);
        } // else: the batch already flushed at threshold
    }

    /// A one-read batch, which the owner serves like any other.
    fn single(&self, read: u32) -> (u64, Arc<Vec<u32>>) {
        (self.req_bytes + 4, Arc::new(vec![read]))
    }

    fn lookup(
        rt: &mut PullCtx<'_, '_, Self>,
        lengths: &[u32],
        _key: u64,
        reads: &Arc<Vec<u32>>,
    ) -> (u64, u64) {
        // Every batched read is looked up; one service unit each, one
        // reply for all.
        let mut bytes = 4 * reads.len() as u64;
        for &read in reads.iter() {
            rt.race_read(read as u64);
            #[expect(
                clippy::indexing_slicing,
                reason = "lengths is indexed by global read id; every batched read id was minted from the same plan"
            )]
            let len = lengths[read as usize];
            bytes += len as u64;
        }
        (bytes, reads.len() as u64)
    }

    fn release(&mut self, _me: &AsyncRankPlan, key: u64) -> Vec<usize> {
        #[expect(
            clippy::expect_used,
            reason = "the runtime ledger delivers replies and give-ups only for keys this rank tracked, and the pull machine keeps takeover keys away from this map; a miss is ledger corruption and must abort deterministically"
        )]
        let reads = self
            .batches
            .remove(&key)
            .expect("reply or give-up for a batch this rank never sent");
        reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::async_alg::plan_async;
    use crate::pull::tests::{machine, run, total_done, workload};

    /// Batches rank programs `progs` shipped in total.
    fn batches(progs: &[crate::runtime::RankRuntime<AggAsyncStrategy>]) -> u64 {
        progs.iter().map(|p| p.strategy().wire.batch_seq).sum()
    }

    #[test]
    fn threshold_one_degenerates_to_plain_async_message_count() {
        // With a threshold of 1 every read ships alone: as many requests
        // as plain async, so aggregation is a strict generalisation.
        let cfg = RunConfig {
            agg_batch: 1,
            ..RunConfig::default()
        };
        let (progs, _) = run::<Coalescer>(4, &cfg);
        assert_eq!(total_done(&progs), workload(4).total_tasks);
        let groups: u64 = {
            let w = workload(4);
            let m = machine(4);
            let plan = plan_async(&w, &m, &cfg);
            plan.per_rank.iter().map(|r| r.groups.len() as u64).sum()
        };
        assert_eq!(batches(&progs), groups);
    }

    #[test]
    fn aggregation_reduces_message_count_and_events() {
        let one = RunConfig {
            agg_batch: 1,
            ..RunConfig::default()
        };
        let agg = RunConfig {
            agg_batch: 16,
            ..RunConfig::default()
        };
        let (p1, r1) = run::<Coalescer>(8, &one);
        let (p16, r16) = run::<Coalescer>(8, &agg);
        let (b1, b16) = (batches(&p1), batches(&p16));
        assert!(b16 < b1, "batching must coalesce: {b16} vs {b1}");
        assert!(r16.events < r1.events, "fewer messages, fewer events");
        assert_eq!(total_done(&p1), total_done(&p16));
    }

    #[test]
    fn flush_timer_ships_subthreshold_tails() {
        // Threshold far above any per-owner group count: only flush
        // timers can ship batches, and the run must still complete.
        let cfg = RunConfig {
            agg_batch: 100_000,
            ..RunConfig::default()
        };
        let (progs, _) = run::<Coalescer>(4, &cfg);
        assert_eq!(total_done(&progs), workload(4).total_tasks);
        assert!(batches(&progs) > 0, "timer-driven flushes must have fired");
    }

    #[test]
    fn window_smaller_than_batch_still_completes() {
        let cfg = RunConfig {
            rpc_window: 2,
            agg_batch: 64,
            ..RunConfig::default()
        };
        let (progs, _) = run::<Coalescer>(4, &cfg);
        assert_eq!(total_done(&progs), workload(4).total_tasks);
    }
}
