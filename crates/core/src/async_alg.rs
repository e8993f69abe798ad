//! The asynchronous coordination code (paper §3.2): the task plan every
//! pull-based strategy runs, and the plain one-RPC-per-read wire policy.
//!
//! The protocol itself — window, poll loop, split-phase and exit
//! barriers, checkpointing, shard adoption — is [`crate::pull`], shared
//! with [`crate::agg_async`]. What this module adds is the part of §3.2
//! that is specific to the paper's async code: each rank issues one
//! asynchronous request per distinct remote read, the owner answers with
//! that read, and the reply releases exactly the tasks indexed under it
//! ([`PerRead`]). [`plan_async`] precomputes, per rank, the local-local
//! work chunks and the remote-read groups with their modelled costs.

use crate::cost::CostModel;
use crate::driver::RunConfig;
use crate::machine::MachineConfig;
use crate::pull::{PullCtx, PullStrategy, WirePolicy};
use crate::workload::{task_checksum, SimWorkload};
use gnb_sim::SimTime;
use std::convert::Infallible;
use std::sync::Arc;

/// Precomputed per-rank inputs for the async code.
#[derive(Debug, Clone)]
pub struct AsyncPlan {
    /// One entry per rank.
    pub per_rank: Vec<AsyncRankPlan>,
    /// Read lengths (reply payload sizes), shared.
    pub lengths: Arc<Vec<u32>>,
}

/// A remote-read group with modelled costs.
#[derive(Debug, Clone)]
pub struct AsyncGroup {
    /// Remote read id.
    pub read: u32,
    /// Owner rank of the read.
    pub owner: u32,
    /// Read bytes (the reply size).
    pub bytes: u64,
    /// Alignment compute for the group's tasks.
    pub compute: SimTime,
    /// Traversal/invocation overhead for the group's tasks.
    pub overhead: SimTime,
    /// Task count.
    pub tasks: u64,
}

/// One rank's precomputed async inputs.
#[derive(Debug, Clone, Default)]
pub struct AsyncRankPlan {
    /// Partition + pointer-store bytes held for the whole run.
    pub static_bytes: u64,
    /// Local-local work, chunked for polling granularity:
    /// `(compute, overhead, tasks)`.
    pub local_chunks: Vec<(SimTime, SimTime, u64)>,
    /// Remote groups in read order.
    pub groups: Vec<AsyncGroup>,
    /// Order-independent checksum of this rank's tasks.
    pub checksum: u64,
}

/// Approximate bytes per task node in the pointer-based store (boxed node
/// plus map/vec overhead, cf. [`gnb_overlap::store::PointerTaskStore`]).
const TASK_NODE_BYTES: u64 = 48;

/// Local tasks per poll chunk (polling granularity).
const LOCAL_CHUNK: usize = 32;

/// Builds the async plan from the shared fixed workload.
pub fn plan_async(w: &SimWorkload, machine: &MachineConfig, cfg: &RunConfig) -> AsyncPlan {
    let cost: &CostModel = &cfg.cost;
    let per_rank = w
        .per_rank
        .iter()
        .enumerate()
        .map(|(p, rd)| {
            let noise = crate::driver::os_noise_factor(p, cfg.os_noise);
            let mut ids: Vec<(u32, u32)> = Vec::with_capacity(rd.total_tasks());
            let mut local_chunks = Vec::new();
            for chunk in rd.local.chunks(LOCAL_CHUNK) {
                let mut compute = SimTime::ZERO;
                for (t, ov) in chunk {
                    compute +=
                        SimTime::from_secs_f64(machine.compute_secs(cost.cells(t, *ov)) * noise);
                    ids.push((t.a, t.b));
                }
                let overhead =
                    SimTime::from_ns(cfg.overhead_ns_per_task_async * chunk.len() as u64);
                local_chunks.push((compute, overhead, chunk.len() as u64));
            }
            let groups = rd
                .groups
                .iter()
                .map(|g| {
                    let mut compute = SimTime::ZERO;
                    for (t, ov) in &g.tasks {
                        compute += SimTime::from_secs_f64(
                            machine.compute_secs(cost.cells(t, *ov)) * noise,
                        );
                        ids.push((t.a, t.b));
                    }
                    AsyncGroup {
                        read: g.read,
                        owner: g.owner,
                        bytes: g.bytes,
                        compute,
                        overhead: SimTime::from_ns(
                            cfg.overhead_ns_per_task_async * g.tasks.len() as u64,
                        ),
                        tasks: g.tasks.len() as u64,
                    }
                })
                .collect();
            AsyncRankPlan {
                static_bytes: rd.partition_bytes + rd.total_tasks() as u64 * TASK_NODE_BYTES,
                local_chunks,
                groups,
                checksum: task_checksum(ids),
            }
        })
        .collect();
    AsyncPlan {
        per_rank,
        lengths: Arc::new(w.lengths.clone()),
    }
}

impl AsyncPlan {
    /// Rank `r`'s inputs.
    pub(crate) fn rank(&self, r: usize) -> &AsyncRankPlan {
        // gnb-lint: allow(panic-path, reason = "r is a rank id of the run this plan was built for — the hosting rank (fixed at Engine construction) or a dead rank from the engine's crash plan; per_rank has exactly nranks entries")
        &self.per_rank[r]
    }
}

impl AsyncRankPlan {
    /// Remote group `gidx` of this rank.
    pub(crate) fn group(&self, gidx: usize) -> &AsyncGroup {
        // gnb-lint: allow(panic-path, reason = "group indexes are only ever minted from this same rank plan: the window cursor bounded by groups.len(), a wire policy's release, or an adoption's enumerate over these groups")
        &self.groups[gidx]
    }
}

/// The plain asynchronous wire policy: one tracked request per remote
/// read, keyed by the read id; the owner serves one lookup and the reply
/// releases that read's group.
pub struct PerRead {
    req_bytes: u64,
}

/// The asynchronous coordination code: the pull machine, one RPC per read.
pub type AsyncStrategy = PullStrategy<PerRead>;

impl WirePolicy for PerRead {
    type Timer = Infallible;
    type Req = ();
    type Released = [usize; 1];

    fn new(_rank: usize, cfg: &RunConfig) -> PerRead {
        PerRead {
            req_bytes: cfg.req_bytes,
        }
    }

    fn request(&mut self, rt: &mut PullCtx<'_, '_, Self>, me: &AsyncRankPlan, gidx: usize) {
        let g = me.group(gidx);
        rt.send_tracked(g.read as u64, g.owner as usize, self.req_bytes, ());
    }

    fn on_timer(&mut self, _rt: &mut PullCtx<'_, '_, Self>, _me: &AsyncRankPlan, t: Infallible) {
        match t {}
    }

    fn single(&self, _read: u32) -> (u64, ()) {
        (self.req_bytes, ())
    }

    fn lookup(rt: &mut PullCtx<'_, '_, Self>, lengths: &[u32], key: u64, _p: &()) -> (u64, u64) {
        // Adopted re-fetches namespace the read id into the takeover key
        // range; masking recovers it (a no-op for plain read-id keys).
        let read = (key & 0xFFFF_FFFF) as usize;
        rt.race_read(read as u64);
        // One lookup unit; the reply ships the read itself.
        // gnb-lint: allow(panic-path, reason = "lengths is indexed by global read id; the requested read id was minted from the same plan")
        (lengths[read] as u64, 1)
    }

    fn release(&mut self, me: &AsyncRankPlan, key: u64) -> [usize; 1] {
        let gidx = me
            .groups
            .binary_search_by_key(&(key as u32), |g| g.read)
            // gnb-lint: allow(panic-path, reason = "the runtime ledger only routes replies and give-ups for keys this rank tracked; every tracked non-takeover key is a read of this rank's plan, so the search hit is a protocol invariant")
            .expect("reply for a read this rank never requested");
        [gidx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pull::tests::{machine, run, total_done, workload};
    use gnb_sim::engine::TimeCategory;

    #[test]
    fn single_rank_never_communicates() {
        let (progs, report) = run::<PerRead>(1, &RunConfig::default());
        assert_eq!(total_done(&progs), workload(1).total_tasks);
        assert_eq!(
            report.ranks[0].ledger[TimeCategory::Comm as usize],
            SimTime::ZERO
        );
    }

    #[test]
    fn window_of_one_still_completes() {
        let cfg = RunConfig {
            rpc_window: 1,
            ..RunConfig::default()
        };
        let (progs, _) = run::<PerRead>(4, &cfg);
        assert_eq!(total_done(&progs), workload(4).total_tasks);
    }

    #[test]
    fn memory_stays_bounded_by_window() {
        let cfg = RunConfig {
            rpc_window: 2,
            ..RunConfig::default()
        };
        let (_, report) = run::<PerRead>(4, &cfg);
        let w = workload(4);
        for (r, rank) in report.ranks.iter().enumerate() {
            let static_bytes = plan_async(&w, &machine(4), &cfg).per_rank[r].static_bytes;
            // Peak = static + at most (window + queued) replies; with
            // window 2 the dynamic excess is tiny.
            assert!(
                rank.mem_peak <= static_bytes + 3 * 2600,
                "rank {r} peak {} static {static_bytes}",
                rank.mem_peak
            );
        }
    }

    #[test]
    fn comm_only_run_has_visible_latency_but_no_compute() {
        // Zero compute AND zero per-task overhead: nothing can hide the
        // round trips, so the wait becomes visible communication. (With
        // the default 45 µs/task overhead, sub-µs intra-node RTTs are
        // fully hidden — which is itself correct behaviour.)
        let cfg = RunConfig {
            cost: CostModel::comm_only(),
            overhead_ns_per_task_async: 0,
            rpc_window: 1, // serialise round trips
            ..RunConfig::default()
        };
        let (_, report) = run::<PerRead>(4, &cfg);
        let compute: f64 = report.category_mean(TimeCategory::Compute);
        assert_eq!(compute, 0.0);
        let comm: f64 = report.category_mean(TimeCategory::Comm);
        assert!(comm > 0.0, "with zero compute nothing hides the latency");
    }

    #[test]
    fn compute_hides_communication() {
        // With compute present the same workload exposes a smaller comm
        // *fraction* than the latency-only run.
        let heavy = RunConfig {
            cost: CostModel {
                cells_per_overlap_bp: 500.0,
                fp_cells: 1e6,
                ..CostModel::default()
            },
            ..RunConfig::default()
        };
        let (_, rep_heavy) = run::<PerRead>(4, &heavy);
        let only = RunConfig {
            cost: CostModel::comm_only(),
            overhead_ns_per_task_async: 0,
            rpc_window: 1,
            ..RunConfig::default()
        };
        let (_, rep_only) = run::<PerRead>(4, &only);
        let frac_heavy =
            rep_heavy.category_mean(TimeCategory::Comm) / rep_heavy.end_time.as_secs_f64();
        let frac_only =
            rep_only.category_mean(TimeCategory::Comm) / rep_only.end_time.as_secs_f64();
        assert!(
            frac_heavy < frac_only * 0.5,
            "visible comm fraction {frac_heavy} vs comm-only {frac_only}"
        );
    }
}
