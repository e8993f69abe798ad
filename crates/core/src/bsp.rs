//! The bulk-synchronous coordination code (paper §3.1).
//!
//! Reads are exchanged in an irregular all-to-all (`MPI_Alltoallv` in the
//! original; the `gnb-sim` collective cost model here), then the pairwise
//! alignments are computed independently — in **multiple, dynamically
//! sized communication+computation rounds** when the full exchange does
//! not fit in per-core memory. The number of rounds is the maximum over
//! ranks of `ceil(recv_bytes / memory_budget)`, and every rank steps
//! through the rounds together (bulk-synchronous supersteps separated by
//! barriers).
//!
//! Accounting: the collective's modelled time is *visible communication*;
//! waiting at the inter-round barriers (from compute imbalance) is
//! *synchronization*; flat-array traversal and kernel invocation is
//! *overhead*.
//!
//! Recovery is runtime-owned: the superstep-level detect-and-reissue loop
//! (and its budget bookkeeping) is [`RtCtx::collective_exchange`] — this
//! module holds only the superstep state machine.

use crate::driver::RunConfig;
use crate::machine::MachineConfig;
use crate::runtime::{CoordinationStrategy, RtCtx, Snapshot};
use crate::workload::{task_checksum, SimWorkload};
use gnb_sim::coll::{alltoallv_time, CollParams, ExchangeLoad};
use gnb_sim::engine::TimeCategory;
use gnb_sim::SimTime;
use std::convert::Infallible;
use std::sync::Arc;

/// Precomputed global plan for a BSP run.
#[derive(Debug, Clone)]
pub struct BspPlan {
    /// Number of exchange+compute supersteps.
    pub rounds: usize,
    /// Modelled collective time of each round (identical on all ranks —
    /// the exchange completes together).
    pub round_comm: Vec<SimTime>,
    /// Per-rank, per-round recv bytes / compute / overhead.
    pub per_rank: Vec<BspRankPlan>,
}

/// One rank's precomputed rounds.
#[derive(Debug, Clone, Default)]
pub struct BspRankPlan {
    /// Static allocation: this rank's input partition plus flat task store.
    pub static_bytes: u64,
    /// Exchange-buffer bytes received per round.
    pub recv_bytes: Vec<u64>,
    /// Resident exchange footprint per round (recv × buffer factor:
    /// send-side staging lives alongside the receive buffer).
    pub alloc_bytes: Vec<u64>,
    /// Alignment compute per round.
    pub compute: Vec<SimTime>,
    /// Traversal/invocation overhead per round.
    pub overhead: Vec<SimTime>,
    /// Tasks completed per round.
    pub tasks: Vec<u64>,
    /// Order-independent checksum of all tasks this rank computes.
    pub checksum: u64,
}

/// Approximate in-memory bytes per task entry in the flat store
/// (5 × u32-ish fields, as in [`gnb_overlap::store::FlatTaskStore`]).
const TASK_ENTRY_BYTES: u64 = 20;

/// Builds the BSP round plan: memory-limited round count, per-round chunk
/// assignment of remote-read groups, collective costs from per-round
/// maximum send/recv loads.
#[expect(
    clippy::indexing_slicing,
    reason = "plan building indexes per-rank and per-round tables it sized itself, before any simulation runs"
)]
pub fn plan_bsp(w: &SimWorkload, machine: &MachineConfig, cfg: &RunConfig) -> BspPlan {
    let nranks = w.nranks;
    let cost = &cfg.cost;

    // Memory budget for a round's received reads: the available memory
    // divided by the exchange-overhead factor (send staging + receive
    // buffers + MPI internals all scale with the round's volume). A
    // single-node exchange goes through shared memory — reads are copied
    // once, with no network staging — so its overhead factor is far
    // smaller.
    let nnodes_budget = machine.nranks().div_ceil(machine.net.ranks_per_node);
    let overhead_factor = if nnodes_budget <= 1 {
        1.5f64
    } else {
        cfg.bsp_exchange_overhead.max(1.0)
    };
    let budgets: Vec<u64> = w
        .per_rank
        .iter()
        .map(|rd| {
            let static_bytes = rd.partition_bytes + rd.total_tasks() as u64 * TASK_ENTRY_BYTES;
            let avail = machine.mem_per_core.saturating_sub(static_bytes) as f64 / overhead_factor;
            // Never let a degenerate configuration zero the budget: at
            // least one maximal read must fit, or no progress is possible.
            (avail as u64).max(w.lengths.iter().copied().max().unwrap_or(1) as u64)
        })
        .collect();

    let rounds = w
        .per_rank
        .iter()
        .zip(&budgets)
        .map(|(rd, &b)| (rd.recv_bytes().div_ceil(b.max(1))).max(1) as usize)
        .max()
        .unwrap_or(1);

    // Assign each rank's groups to rounds: greedy fill toward an even
    // per-round byte share, preserving group order.
    let mut per_rank: Vec<BspRankPlan> = Vec::with_capacity(nranks);
    // send_bytes[round][rank]: bytes each owner ships per round.
    let mut send_per_round = vec![vec![0u64; nranks]; rounds];
    let mut recv_per_round_max = vec![0u64; rounds];
    // Most distinct peers any rank fetches from, per round (sparse
    // exchanges skip empty pairs; the collective model needs this).
    let mut peers_per_round_max = vec![0usize; rounds];

    for (p, rd) in w.per_rank.iter().enumerate() {
        let noise = crate::driver::os_noise_factor(p, cfg.os_noise);
        let total_recv = rd.recv_bytes();
        let share = total_recv.div_ceil(rounds as u64).max(1);
        let mut plan = BspRankPlan {
            static_bytes: rd.partition_bytes + rd.total_tasks() as u64 * TASK_ENTRY_BYTES,
            recv_bytes: vec![0; rounds],
            alloc_bytes: vec![0; rounds],
            compute: vec![SimTime::ZERO; rounds],
            overhead: vec![SimTime::ZERO; rounds],
            tasks: vec![0; rounds],
            checksum: 0,
        };

        // Local tasks run in round 0 (no communication needed).
        let mut ids: Vec<(u32, u32)> = Vec::with_capacity(rd.total_tasks());
        for (t, ov) in &rd.local {
            let cells = cost.cells(t, *ov);
            plan.compute[0] += SimTime::from_secs_f64(machine.compute_secs(cells) * noise);
            plan.overhead[0] += SimTime::from_ns(cfg.overhead_ns_per_task_bsp);
            plan.tasks[0] += 1;
            ids.push((t.a, t.b));
        }

        let mut round = 0usize;
        let mut round_owners: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
        for g in &rd.groups {
            if plan.recv_bytes[round] + g.bytes > share && round + 1 < rounds {
                peers_per_round_max[round] = peers_per_round_max[round].max(round_owners.len());
                round_owners.clear();
                round += 1;
            }
            round_owners.insert(g.owner);
            plan.recv_bytes[round] += g.bytes;
            send_per_round[round][g.owner as usize] += g.bytes;
            for (t, ov) in &g.tasks {
                let cells = cost.cells(t, *ov);
                plan.compute[round] += SimTime::from_secs_f64(machine.compute_secs(cells) * noise);
                plan.overhead[round] += SimTime::from_ns(cfg.overhead_ns_per_task_bsp);
                plan.tasks[round] += 1;
                ids.push((t.a, t.b));
            }
        }
        peers_per_round_max[round] = peers_per_round_max[round].max(round_owners.len());
        for (r, recv_max) in recv_per_round_max.iter_mut().enumerate().take(rounds) {
            *recv_max = (*recv_max).max(plan.recv_bytes[r]);
            plan.alloc_bytes[r] =
                (plan.recv_bytes[r] as f64 * cfg.bsp_buffer_factor.max(1.0)) as u64;
        }
        plan.checksum = task_checksum(ids);
        per_rank.push(plan);
    }

    let coll = CollParams::from_net(&machine.net);
    let nnodes = nranks.div_ceil(machine.net.ranks_per_node);
    let round_comm: Vec<SimTime> = (0..rounds)
        .map(|r| {
            let max_send = send_per_round[r].iter().copied().max().unwrap_or(0);
            alltoallv_time(
                &coll,
                &ExchangeLoad {
                    nranks,
                    nnodes,
                    max_send,
                    max_recv: recv_per_round_max[r],
                    active_peers: peers_per_round_max[r].max(1),
                    volume_scale: machine.volume_scale.max(1.0),
                },
            )
        })
        .collect();

    BspPlan {
        rounds,
        round_comm,
        per_rank,
    }
}

/// The strategy-facing context of the BSP code: no strategy messages (BSP
/// exchanges purely through collectives), no tracked requests.
type BCtx<'c, 'e> = RtCtx<'c, 'e, Infallible, Infallible, Infallible>;

/// The bulk-synchronous superstep state machine, hosted by
/// [`crate::runtime::RankRuntime`]. All communication is through the
/// modelled collective ([`RtCtx::collective_exchange`]); the strategy sends
/// no point-to-point messages and tracks no requests.
pub struct BspStrategy {
    plan: Arc<BspPlan>,
    rank: usize,
    tasks_done: u64,
}

impl BspStrategy {
    /// Creates the superstep state machine for one rank.
    pub fn new(plan: Arc<BspPlan>, rank: usize) -> BspStrategy {
        BspStrategy {
            plan,
            rank,
            tasks_done: 0,
        }
    }

    /// Superstep progress: `round` is the next one to run.
    fn snapshot(&self, round: usize) -> Snapshot {
        Snapshot {
            cursor: round,
            done: None,
            tasks_done: self.tasks_done,
        }
    }

    fn me(&self) -> &BspRankPlan {
        #[expect(
            clippy::indexing_slicing,
            reason = "self.rank < nranks is established at Engine construction and never changes"
        )]
        let me = &self.plan.per_rank[self.rank];
        me
    }
}

impl CoordinationStrategy for BspStrategy {
    type App = Infallible;
    type Req = Infallible;
    type Rep = Infallible;

    fn on_start(&mut self, rt: &mut BCtx<'_, '_>) {
        rt.mem_alloc(self.me().static_bytes);
        // Enter the round-0 exchange.
        rt.barrier_enter(0);
    }

    fn on_app(&mut self, _rt: &mut BCtx<'_, '_>, _src: usize, msg: Infallible) {
        // Uninhabited: the empty match proves, rather than asserts, that
        // BSP has no strategy messages.
        match msg {}
    }

    // BSP tracks no requests: the payload types are uninhabited, so these
    // hooks cannot be called.
    fn on_request(
        &mut self,
        _rt: &mut BCtx<'_, '_>,
        _src: usize,
        _key: u64,
        _attempt: u32,
        payload: Infallible,
    ) {
        match payload {}
    }

    fn on_reply(&mut self, _rt: &mut BCtx<'_, '_>, _key: u64, payload: Infallible) {
        match payload {}
    }

    fn on_give_up(&mut self, _rt: &mut BCtx<'_, '_>, _key: u64, payload: Infallible) {
        match payload {}
    }

    fn on_adopt(&mut self, rt: &mut BCtx<'_, '_>, dead: usize, ckpt: Option<Snapshot>) {
        // The next round and the tasks done, as `on_barrier` saved them;
        // from scratch without a checkpoint.
        let (next_round, ckpt_tasks) = ckpt.map_or((0, 0), |s| (s.cursor, s.tasks_done));
        rt.note_recovered(ckpt_tasks);
        self.tasks_done += ckpt_tasks;
        // Replay the dead rank's remaining supersteps from the checkpoint
        // forward. The exchanges are not re-run: the reads a round needs
        // were replicated to survivors by the pre-crash collectives, so
        // the replay recomputes from checkpointed input — overhead and
        // compute only, all booked as recovery.
        #[expect(
            clippy::indexing_slicing,
            reason = "dead is a rank id from the engine's crash plan; per_rank has exactly nranks entries by construction"
        )]
        let d = &self.plan.per_rank[dead];
        let rest = d.overhead.iter().zip(&d.compute).zip(&d.tasks);
        for ((&overhead, &compute), &tasks) in rest.skip(next_round) {
            rt.advance(overhead, TimeCategory::Recovery);
            rt.advance(compute, TimeCategory::Recovery);
            self.tasks_done += tasks;
        }
    }

    fn on_barrier(&mut self, rt: &mut BCtx<'_, '_>, id: u64) {
        // Any wait before a barrier release is synchronization (compute
        // imbalance between supersteps).
        rt.classify_idle(TimeCategory::Sync);
        let round = id as usize;
        // round_comm has one entry per round: past the last is the final
        // barrier, and the run is complete.
        let Some(&comm) = self.plan.round_comm.get(round) else {
            return;
        };
        // Superstep boundary checkpoint: rounds `0..id` are complete. A
        // successor restoring this replays from round `id` on.
        if rt.ckpt_enabled() {
            rt.ckpt_save(self.snapshot(round));
        }
        // The exchange itself (visible communication) plus the runtime's
        // superstep-level detect-and-reissue recovery. A dry budget means
        // the round's data never arrives: skip the compute and let the
        // driver report a structured error.
        if !rt.collective_exchange(id, comm) {
            rt.barrier_enter(id + 1);
            return;
        }
        let me = self.me();
        #[expect(
            clippy::indexing_slicing,
            reason = "round < plan.rounds (round_comm.get above); all per-round vectors have rounds entries"
        )]
        let (alloc, tasks, overhead, compute) = (
            me.alloc_bytes[round],
            me.tasks[round],
            me.overhead[round],
            me.compute[round],
        );
        rt.mem_alloc(alloc);
        // Compute everything associated with the received reads.
        rt.advance(overhead, TimeCategory::Overhead);
        rt.advance(compute, TimeCategory::Compute);
        self.tasks_done += tasks;
        rt.mem_free(alloc);
        rt.barrier_enter(id + 1);
    }

    fn tasks_done(&self) -> u64 {
        self.tasks_done
    }

    /// This rank's task checksum (valid after the run).
    fn checksum(&self) -> u64 {
        self.me().checksum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use gnb_align::Candidate;

    fn cand(a: u32, b: u32) -> Candidate {
        Candidate {
            a,
            b,
            a_pos: 0,
            b_pos: 0,
            same_strand: true,
        }
    }

    fn workload(nranks: usize) -> SimWorkload {
        let lengths = vec![1000usize; 16];
        let tasks: Vec<Candidate> = (0..16u32)
            .flat_map(|a| ((a + 1)..16).map(move |b| cand(a, b)))
            .collect();
        let ov: Vec<u32> = tasks.iter().map(|t| 100 * (t.a + 1)).collect();
        SimWorkload::prepare(&lengths, &tasks, &ov, nranks)
    }

    fn machine() -> MachineConfig {
        MachineConfig::cori_knl(1).with_cores_per_node(4)
    }

    #[test]
    fn plan_single_round_when_memory_ample() {
        let w = workload(4);
        let plan = plan_bsp(&w, &machine(), &RunConfig::default());
        assert_eq!(plan.rounds, 1);
        assert_eq!(plan.round_comm.len(), 1);
        // All tasks planned exactly once.
        let planned: u64 = plan
            .per_rank
            .iter()
            .map(|p| p.tasks.iter().sum::<u64>())
            .sum();
        assert_eq!(planned as usize, w.total_tasks);
    }

    #[test]
    fn plan_multi_round_when_memory_tight() {
        let w = workload(4);
        let mut m = machine();
        // Budget floor is the largest read (1000 B), so recv of ~3-4 reads
        // forces multiple rounds.
        m.mem_per_core = 1; // effectively zero after static allocations
        let plan = plan_bsp(&w, &m, &RunConfig::default());
        assert!(plan.rounds > 1, "rounds {}", plan.rounds);
        // Round recv obeys the per-round share.
        for p in &plan.per_rank {
            let total: u64 = p.recv_bytes.iter().sum();
            for &r in &p.recv_bytes {
                assert!(r <= total.div_ceil(plan.rounds as u64).max(1) + 1000);
            }
        }
        // Tasks still conserved.
        let planned: u64 = plan
            .per_rank
            .iter()
            .map(|p| p.tasks.iter().sum::<u64>())
            .sum();
        assert_eq!(planned as usize, w.total_tasks);
    }

    /// A superstep checkpoint is the next round and the task counter, 8
    /// bytes each (see the pull protocol's size test for why it is
    /// pinned).
    #[test]
    fn checkpoint_size_is_16() {
        let plan = plan_bsp(&workload(4), &machine(), &RunConfig::default());
        let s = BspStrategy::new(Arc::new(plan), 0);
        assert_eq!(s.snapshot(3).encoded_len(), 16);
    }

    #[test]
    fn comm_only_mode_zeroes_compute() {
        let w = workload(4);
        let cfg = RunConfig {
            cost: CostModel::comm_only(),
            ..RunConfig::default()
        };
        let plan = plan_bsp(&w, &machine(), &cfg);
        for p in &plan.per_rank {
            for c in &p.compute {
                assert_eq!(*c, SimTime::ZERO);
            }
        }
        // Communication still modelled.
        assert!(plan.round_comm[0] > SimTime::ZERO);
    }

    #[test]
    fn checksums_cover_all_tasks() {
        let w = workload(4);
        let plan = plan_bsp(&w, &machine(), &RunConfig::default());
        let mut combined = 0u64;
        for p in &plan.per_rank {
            combined = combined.wrapping_add(p.checksum);
        }
        let expect = {
            let mut ids = Vec::new();
            for rd in &w.per_rank {
                for (t, _) in rd
                    .local
                    .iter()
                    .chain(rd.groups.iter().flat_map(|g| g.tasks.iter()))
                {
                    ids.push((t.a, t.b));
                }
            }
            task_checksum(ids)
        };
        assert_eq!(combined, expect);
    }
}
