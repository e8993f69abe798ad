//! Workload preparation: from a task graph to per-rank simulation inputs.
//!
//! Following the paper's methodology, "the alignment tasks computed from
//! each dataset, and their partitioning, are treated as fixed inputs" (§4):
//! this module computes the blind partition, redistributes tasks under the
//! ownership invariant, groups each rank's tasks by remote read, and
//! derives the exchange byte loads — once — and both coordination codes
//! then consume the identical [`SimWorkload`].

use crate::cost::CostModel;
use gnb_align::Candidate;
use gnb_overlap::partition::Partition;
use serde::{Deserialize, Serialize};

/// How tasks are balanced across the two candidate owner ranks.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum BalanceStrategy {
    /// DiBELLA's production heuristic: balance task *counts* (cheap, but
    /// blind to the orders-of-magnitude cost variance — the source of the
    /// paper's synchronization time, §4.2).
    #[default]
    TaskCount,
    /// The paper's §5 future-work proposal, implemented here as an
    /// extension: balance *estimated cost* using the same cost model the
    /// alignment obeys. Semi-static: decided before execution, no runtime
    /// migration overhead.
    EstimatedCost(CostModel),
}

/// One remote-read group of a rank: the tasks waiting on that read.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupData {
    /// The remote read id.
    pub read: u32,
    /// Rank owning that read.
    pub owner: u32,
    /// Bytes of the read (the reply/exchange payload).
    pub bytes: u64,
    /// Tasks in this group, with their true-overlap lengths (0 = false
    /// positive).
    pub tasks: Vec<(Candidate, u32)>,
}

/// One rank's fixed inputs.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RankData {
    /// Tasks whose reads are both local, with overlap lengths.
    pub local: Vec<(Candidate, u32)>,
    /// Remote-read groups, ascending by read id.
    pub groups: Vec<GroupData>,
    /// Bytes of reads this rank owns (its partition of the input).
    pub partition_bytes: u64,
}

impl RankData {
    /// Total tasks (local + grouped).
    pub fn total_tasks(&self) -> usize {
        self.local.len() + self.groups.iter().map(|g| g.tasks.len()).sum::<usize>()
    }

    /// Total bytes of remote reads this rank must fetch.
    pub fn recv_bytes(&self) -> u64 {
        self.groups.iter().map(|g| g.bytes).sum()
    }
}

/// The fixed input both coordination codes consume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimWorkload {
    /// Number of ranks it was prepared for.
    pub nranks: usize,
    /// Read lengths.
    pub lengths: Vec<u32>,
    /// The blind partition.
    pub partition: Partition,
    /// Per-rank inputs.
    pub per_rank: Vec<RankData>,
    /// Total task count.
    pub total_tasks: usize,
    /// Bytes each rank serves to others (derived from all ranks' groups).
    pub send_bytes: Vec<u64>,
}

impl SimWorkload {
    /// Prepares the fixed input: partition, redistribution (greedy
    /// least-loaded, ownership-invariant), remote grouping, byte loads.
    ///
    /// # Panics
    /// Panics if `tasks.len() != overlap_len.len()` or any task references
    /// a read out of range.
    pub fn prepare(
        lengths: &[usize],
        tasks: &[Candidate],
        overlap_len: &[u32],
        nranks: usize,
    ) -> SimWorkload {
        Self::prepare_with(
            lengths,
            tasks,
            overlap_len,
            nranks,
            BalanceStrategy::TaskCount,
        )
    }

    /// As [`SimWorkload::prepare`], with an explicit balancing strategy.
    #[expect(
        clippy::indexing_slicing,
        reason = "redistribution indexes the read and rank tables it sized itself, before any simulation runs; a task naming a read out of range panics as documented"
    )]
    pub fn prepare_with(
        lengths: &[usize],
        tasks: &[Candidate],
        overlap_len: &[u32],
        nranks: usize,
        strategy: BalanceStrategy,
    ) -> SimWorkload {
        assert_eq!(tasks.len(), overlap_len.len());
        let partition = Partition::blind(lengths, nranks);

        // Greedy least-loaded redistribution, the repository's only one:
        // each task goes to whichever endpoint owner is less loaded, ties
        // to the owner of `a`. Tasks are visited in deterministic hashed
        // order: candidates arrive sorted by (a, b) and owners are
        // monotone in read id, so a sorted sweep would systematically
        // overfill low ranks early and starve high ranks.
        let mut order: Vec<u32> = (0..tasks.len() as u32).collect();
        order.sort_unstable_by_key(|&i| hash_index(i));
        let mut per_rank_tasks: Vec<Vec<(Candidate, u32)>> = vec![Vec::new(); nranks];
        let mut load = vec![0.0f64; nranks]; // cost-strategy ledger
        for &i in &order {
            let (t, ov) = (tasks[i as usize], overlap_len[i as usize]);
            let oa = partition.owner[t.a as usize] as usize;
            let ob = partition.owner[t.b as usize] as usize;
            let p = match &strategy {
                BalanceStrategy::TaskCount => {
                    if per_rank_tasks[ob].len() < per_rank_tasks[oa].len() {
                        ob
                    } else {
                        oa
                    }
                }
                BalanceStrategy::EstimatedCost(model) => {
                    let p = if load[ob] < load[oa] { ob } else { oa };
                    load[p] += model.cells(&t, ov);
                    p
                }
            };
            per_rank_tasks[p].push((t, ov));
        }

        let mut send_bytes = vec![0u64; nranks];
        let mut per_rank: Vec<RankData> = Vec::with_capacity(nranks);
        for (p, rank_tasks) in per_rank_tasks.into_iter().enumerate() {
            let mut local = Vec::new();
            let mut grouped: std::collections::BTreeMap<u32, Vec<(Candidate, u32)>> =
                std::collections::BTreeMap::new();
            for (t, ov) in rank_tasks {
                let oa = partition.owner[t.a as usize] as usize;
                let ob = partition.owner[t.b as usize] as usize;
                if oa == p && ob == p {
                    local.push((t, ov));
                } else if oa == p {
                    grouped.entry(t.b).or_default().push((t, ov));
                } else {
                    grouped.entry(t.a).or_default().push((t, ov));
                }
            }
            let groups: Vec<GroupData> = grouped
                .into_iter()
                .map(|(read, tasks)| {
                    let owner = partition.owner[read as usize];
                    let bytes = lengths[read as usize] as u64;
                    send_bytes[owner as usize] += bytes;
                    GroupData {
                        read,
                        owner,
                        bytes,
                        tasks,
                    }
                })
                .collect();
            let partition_bytes = partition.bytes[p];
            per_rank.push(RankData {
                local,
                groups,
                partition_bytes,
            });
        }

        SimWorkload {
            nranks,
            lengths: lengths.iter().map(|&l| l as u32).collect(),
            partition,
            per_rank,
            total_tasks: tasks.len(),
            send_bytes,
        }
    }

    /// Per-rank received bytes (the Fig. 6 quantity).
    pub fn recv_bytes(&self) -> Vec<u64> {
        self.per_rank.iter().map(|r| r.recv_bytes()).collect()
    }

    /// Checks that every task was assigned exactly once and to an owner of
    /// one of its reads.
    ///
    /// # Panics
    /// Panics on the first violation: this is a test oracle.
    #[expect(
        clippy::indexing_slicing,
        reason = "a test oracle that panics on violations by design; ownership is indexed by the read ids it checks"
    )]
    pub fn validate(&self) {
        let mut seen = 0usize;
        for (p, rd) in self.per_rank.iter().enumerate() {
            for (t, _) in &rd.local {
                assert_eq!(self.partition.owner[t.a as usize] as usize, p);
                assert_eq!(self.partition.owner[t.b as usize] as usize, p);
                seen += 1;
            }
            for g in &rd.groups {
                assert_ne!(self.partition.owner[g.read as usize] as usize, p);
                assert_eq!(self.partition.owner[g.read as usize], g.owner);
                for (t, _) in &g.tasks {
                    assert!(t.a == g.read || t.b == g.read);
                    let other = if t.a == g.read { t.b } else { t.a };
                    assert_eq!(self.partition.owner[other as usize] as usize, p);
                    seen += 1;
                }
            }
        }
        assert_eq!(seen, self.total_tasks, "tasks conserved");
    }
}

/// splitmix64 finaliser over a task index (the deterministic shuffle key).
fn hash_index(i: u32) -> u64 {
    let mut z = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-independent checksum of a completed task set: both coordination
/// codes must produce the same value as the task list itself.
pub fn task_checksum(tasks: impl IntoIterator<Item = (u32, u32)>) -> u64 {
    let mut acc = 0u64;
    for (a, b) in tasks {
        let key = ((a as u64) << 32) | b as u64;
        let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        acc = acc.wrapping_add(z ^ (z >> 31));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(a: u32, b: u32) -> Candidate {
        Candidate {
            a,
            b,
            a_pos: 0,
            b_pos: 0,
            same_strand: true,
        }
    }

    fn simple_workload(nranks: usize) -> SimWorkload {
        let lengths = vec![100usize; 8];
        let tasks: Vec<Candidate> = (0..8u32)
            .flat_map(|a| ((a + 1)..8).map(move |b| cand(a, b)))
            .collect();
        let ov: Vec<u32> = tasks.iter().map(|t| (t.a + t.b) * 10).collect();
        SimWorkload::prepare(&lengths, &tasks, &ov, nranks)
    }

    #[test]
    fn prepare_validates() {
        for nranks in [1, 2, 4, 8] {
            simple_workload(nranks).validate();
        }
    }

    #[test]
    fn single_rank_all_local() {
        let w = simple_workload(1);
        assert_eq!(w.per_rank[0].local.len(), 28);
        assert!(w.per_rank[0].groups.is_empty());
        assert_eq!(w.recv_bytes(), vec![0]);
        assert_eq!(w.send_bytes, vec![0]);
    }

    #[test]
    fn send_recv_consistent() {
        let w = simple_workload(4);
        let total_recv: u64 = w.recv_bytes().iter().sum();
        let total_send: u64 = w.send_bytes.iter().sum();
        assert_eq!(total_recv, total_send);
        assert!(total_recv > 0);
    }

    #[test]
    fn hub_tasks_spread_over_owners() {
        // All seven tasks touch read 0 (rank 0 of 4): the greedy must hand
        // most of them to the other endpoints' owners.
        let tasks: Vec<Candidate> = (1..8u32).map(|b| cand(0, b)).collect();
        let w = SimWorkload::prepare(&[100; 8], &tasks, &[0; 7], 4);
        w.validate();
        let max = w.per_rank.iter().map(|r| r.total_tasks()).max().unwrap();
        assert!(max <= 3, "greedy should spread hub tasks, max={max}");
    }

    #[test]
    fn local_only_tasks_need_no_exchange() {
        // Pairs entirely within each rank's two-read block.
        let tasks = vec![cand(0, 1), cand(2, 3), cand(4, 5), cand(6, 7)];
        let w = SimWorkload::prepare(&[100; 8], &tasks, &[0; 4], 4);
        for rd in &w.per_rank {
            assert_eq!(rd.local.len(), 1);
            assert!(rd.groups.is_empty());
        }
        assert_eq!(w.recv_bytes(), vec![0; 4]);
        assert_eq!(w.send_bytes, vec![0; 4]);
    }

    #[test]
    fn remote_read_fetched_once_per_requester() {
        // Rank 0 (reads 0, 1) is handed both tasks on read 7 (rank 3,
        // which keeps the local task 6-7): one group, one fetch.
        let tasks = vec![cand(0, 7), cand(1, 7), cand(6, 7)];
        let w = SimWorkload::prepare(&[100; 8], &tasks, &[0; 3], 4);
        let groups = &w.per_rank[0].groups;
        assert_eq!(groups.len(), 1);
        assert_eq!((groups[0].read, groups[0].owner), (7, 3));
        assert_eq!(groups[0].tasks.len(), 2);
        assert_eq!(w.per_rank[3].local.len(), 1);
        assert_eq!(w.recv_bytes(), vec![100, 0, 0, 0]);
        assert_eq!(w.send_bytes, vec![0, 0, 0, 100]);
    }

    #[test]
    fn no_tasks_no_work() {
        let w = SimWorkload::prepare(&[100; 8], &[], &[], 4);
        w.validate();
        assert!(w.per_rank.iter().all(|r| r.total_tasks() == 0));
        assert_eq!(w.recv_bytes(), vec![0; 4]);
        assert_eq!(w.send_bytes, vec![0; 4]);
    }

    #[test]
    #[should_panic]
    fn validate_rejects_a_task_on_a_non_owner() {
        let mut w = simple_workload(4);
        let t = w.per_rank[0]
            .local
            .pop()
            .expect("rank 0 holds a local task");
        w.per_rank[3].local.push(t);
        w.validate();
    }

    #[test]
    fn overlaps_travel_with_tasks() {
        let w = simple_workload(4);
        let mut seen = 0;
        for rd in &w.per_rank {
            for (t, ov) in rd
                .local
                .iter()
                .chain(rd.groups.iter().flat_map(|g| g.tasks.iter()))
            {
                assert_eq!(*ov, (t.a + t.b) * 10);
                seen += 1;
            }
        }
        assert_eq!(seen, w.total_tasks);
    }

    #[test]
    fn cost_balancing_reduces_cost_imbalance() {
        // Highly skewed costs: tasks touching read 0 are 100x heavier.
        let lengths = vec![100usize; 32];
        let tasks: Vec<Candidate> = (0..32u32)
            .flat_map(|a| ((a + 1)..32).map(move |b| cand(a, b)))
            .collect();
        let ov: Vec<u32> = tasks
            .iter()
            .map(|t| if t.a == 0 { 100_000 } else { 100 })
            .collect();
        let model = CostModel::default();
        let imbalance = |w: &SimWorkload| -> f64 {
            let costs: Vec<f64> = w
                .per_rank
                .iter()
                .map(|rd| {
                    rd.local
                        .iter()
                        .chain(rd.groups.iter().flat_map(|g| g.tasks.iter()))
                        .map(|(t, o)| model.cells(t, *o))
                        .sum()
                })
                .collect();
            let mean: f64 = costs.iter().sum::<f64>() / costs.len() as f64;
            let mut peak = 0.0f64;
            for &c in &costs {
                peak = peak.max(c);
            }
            peak / mean
        };
        let by_count = SimWorkload::prepare(&lengths, &tasks, &ov, 8);
        let by_cost = SimWorkload::prepare_with(
            &lengths,
            &tasks,
            &ov,
            8,
            BalanceStrategy::EstimatedCost(model),
        );
        by_cost.validate();
        assert_eq!(by_count.total_tasks, by_cost.total_tasks);
        assert!(
            imbalance(&by_cost) < imbalance(&by_count) * 0.8,
            "cost balancing must help: {} vs {}",
            imbalance(&by_cost),
            imbalance(&by_count)
        );
    }

    #[test]
    fn checksum_is_order_independent() {
        let fwd = task_checksum((0..100u32).map(|i| (i, i + 1)));
        let rev = task_checksum((0..100u32).rev().map(|i| (i, i + 1)));
        assert_eq!(fwd, rev);
        let different = task_checksum((0..99u32).map(|i| (i, i + 1)));
        assert_ne!(fwd, different);
    }

    #[test]
    #[should_panic]
    fn mismatched_overlaps_rejected() {
        let lengths = vec![100usize; 4];
        let tasks = vec![cand(0, 1)];
        let _ = SimWorkload::prepare(&lengths, &tasks, &[], 2);
    }
}
