//! Property-based tests for workload preparation, the BSP round planner,
//! and the cost model.

use gnb_align::Candidate;
use gnb_core::bsp::plan_bsp;
use gnb_core::driver::RunConfig;
use gnb_core::workload::{BalanceStrategy, SimWorkload};
use gnb_core::{CostModel, MachineConfig};
use gnb_overlap::partition::Partition;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn lengths(max_reads: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(50usize..5000, 1..max_reads)
}

fn cand(a: u32, b: u32) -> Candidate {
    Candidate {
        a,
        b,
        a_pos: 0,
        b_pos: 0,
        same_strand: true,
    }
}

/// Each read paired with its next `width - 1` successors.
fn banded_tasks(nreads: usize, width: u32) -> Vec<Candidate> {
    let n = nreads as u32;
    (0..n)
        .flat_map(|a| ((a + 1)..n.min(a + width)).map(move |b| cand(a, b)))
        .collect()
}

/// Every task a rank holds, local and grouped, in one sorted list.
fn rank_tasks(w: &SimWorkload, p: usize) -> Vec<Candidate> {
    let rd = &w.per_rank[p];
    let mut v: Vec<Candidate> = rd
        .local
        .iter()
        .chain(rd.groups.iter().flat_map(|g| g.tasks.iter()))
        .map(|&(t, _)| t)
        .collect();
    v.sort_by_key(|t| (t.a, t.b, t.a_pos, t.b_pos, t.same_strand));
    v
}

/// The count-greedy redistribution as the stand-alone task assignment
/// implemented it, kept verbatim as the oracle for `prepare`: tasks are
/// visited in splitmix-hashed index order and each goes to whichever
/// endpoint owner holds fewer tasks, ties to the owner of `a`.
fn greedy_assignment(tasks: &[Candidate], partition: &Partition) -> Vec<Vec<Candidate>> {
    let nranks = partition.nranks();
    let mut order: Vec<u32> = (0..tasks.len() as u32).collect();
    order.sort_unstable_by_key(|&i| {
        let mut z = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    });
    let mut per_rank: Vec<Vec<Candidate>> = vec![Vec::new(); nranks];
    for &i in &order {
        let t = tasks[i as usize];
        let oa = partition.owner[t.a as usize] as usize;
        let ob = partition.owner[t.b as usize] as usize;
        let p = if per_rank[ob].len() < per_rank[oa].len() {
            ob
        } else {
            oa
        };
        per_rank[p].push(t);
    }
    per_rank
}

fn arb_tasks(nreads: usize, max_tasks: usize) -> impl Strategy<Value = Vec<(Candidate, u32)>> {
    let n = nreads as u32;
    proptest::collection::vec((0..n, 0..n, 0u32..20_000, any::<bool>()), 0..max_tasks).prop_map(
        |raw| {
            let mut v: Vec<(Candidate, u32)> = raw
                .into_iter()
                .filter(|(a, b, _, _)| a != b)
                .map(|(x, y, ov, s)| {
                    (
                        Candidate {
                            a: x.min(y),
                            b: x.max(y),
                            a_pos: 0,
                            b_pos: 0,
                            same_strand: s,
                        },
                        ov,
                    )
                })
                .collect();
            v.sort_by_key(|(c, _)| (c.a, c.b));
            v.dedup_by_key(|(c, _)| (c.a, c.b));
            v
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Preparation conserves tasks, preserves the ownership invariant, and
    /// balances counts tightly, for arbitrary task graphs and rank counts;
    /// cost balancing conserves and preserves the same way.
    #[test]
    fn prepare_invariants(
        lens in proptest::collection::vec(100usize..20_000, 4..80),
        nranks in 1usize..12,
        seed_tasks in arb_tasks(80, 400),
    ) {
        let tasks: Vec<Candidate> = seed_tasks
            .iter()
            .filter(|(c, _)| (c.b as usize) < lens.len())
            .map(|(c, _)| *c)
            .collect();
        let ovs: Vec<u32> = seed_tasks
            .iter()
            .filter(|(c, _)| (c.b as usize) < lens.len())
            .map(|(_, ov)| *ov)
            .collect();
        let w = SimWorkload::prepare(&lens, &tasks, &ovs, nranks);
        w.validate(); // ownership + conservation (panics on violation)
        // Count balance: max - min <= small bound for the greedy.
        let counts: Vec<usize> = w.per_rank.iter().map(|r| r.total_tasks()).collect();
        let max = *counts.iter().max().unwrap_or(&0);
        let min = *counts.iter().min().unwrap_or(&0);
        // Greedy least-loaded with two choices per task cannot be worse
        // than one endpoint-forced task per step beyond optimal spread;
        // allow generous slack for degenerate ownership patterns.
        prop_assert!(max - min <= (tasks.len() / nranks).max(8) , "max {max} min {min}");
        // Exchange symmetry.
        let recv: u64 = w.recv_bytes().iter().sum();
        let send: u64 = w.send_bytes.iter().sum();
        prop_assert_eq!(recv, send);

        let by_cost = SimWorkload::prepare_with(
            &lens,
            &tasks,
            &ovs,
            nranks,
            BalanceStrategy::EstimatedCost(CostModel::default()),
        );
        by_cost.validate();
        let recv: u64 = by_cost.recv_bytes().iter().sum();
        let send: u64 = by_cost.send_bytes.iter().sum();
        prop_assert_eq!(recv, send);
    }

    /// `prepare` hands every rank exactly the tasks the count-greedy model
    /// assigns it, so each task lands on an owner of `a` or `b` and none is
    /// lost or duplicated.
    #[test]
    fn assignment_matches_greedy_model(
        lens in lengths(100),
        nranks in 1usize..12,
        seed in any::<u64>(),
    ) {
        let n = lens.len();
        // Derived pseudo-random tasks (cheaper than a nested strategy).
        let mut tasks = Vec::new();
        let mut z = seed;
        for _ in 0..(n * 4).min(600) {
            z = z.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = (z >> 33) as usize % n;
            z = z.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let b = (z >> 33) as usize % n;
            if a == b { continue; }
            tasks.push(cand(a.min(b) as u32, a.max(b) as u32));
        }
        let ovs = vec![0u32; tasks.len()];
        let w = SimWorkload::prepare(&lens, &tasks, &ovs, nranks);
        w.validate();
        let model = greedy_assignment(&tasks, &Partition::blind(&lens, nranks));
        for (p, mut want) in model.into_iter().enumerate() {
            want.sort_by_key(|t| (t.a, t.b, t.a_pos, t.b_pos, t.same_strand));
            prop_assert_eq!((p, rank_tasks(&w, p)), (p, want));
        }
    }

    /// Every rank fetches each remote read once (§3.2): its groups are
    /// strictly ascending by read, non-empty, never keyed by a read it
    /// owns, and name the read's owner. Tasks are conserved.
    #[test]
    fn groups_fetch_each_remote_read_once(lens in lengths(60), nranks in 1usize..8) {
        let tasks = banded_tasks(lens.len(), 5);
        let w = SimWorkload::prepare(&lens, &tasks, &vec![0; tasks.len()], nranks);
        let owner = &w.partition.owner;
        let mut total = 0usize;
        for (p, rd) in w.per_rank.iter().enumerate() {
            total += rd.total_tasks();
            for pair in rd.groups.windows(2) {
                prop_assert!(pair[0].read < pair[1].read, "rank {} groups not strictly ascending", p);
            }
            for g in &rd.groups {
                prop_assert!(!g.tasks.is_empty());
                prop_assert!(owner[g.read as usize] as usize != p);
                prop_assert_eq!(g.owner, owner[g.read as usize]);
            }
        }
        prop_assert_eq!(total, tasks.len());
    }

    /// Exchange loads: a rank receives the lengths of its distinct remote
    /// reads, and an owner sends the bytes of every group keyed by one of
    /// its reads, so global send equals global receive.
    #[test]
    fn exchange_bytes_match_remote_reads(lens in lengths(60), nranks in 1usize..8) {
        let tasks = banded_tasks(lens.len(), 4);
        let w = SimWorkload::prepare(&lens, &tasks, &vec![0; tasks.len()], nranks);
        let owner = &w.partition.owner;
        let recv = w.recv_bytes();
        let mut send = vec![0u64; nranks];
        for (p, rd) in w.per_rank.iter().enumerate() {
            let remote: BTreeSet<u32> = rank_tasks(&w, p)
                .iter()
                .flat_map(|t| [t.a, t.b])
                .filter(|&r| owner[r as usize] as usize != p)
                .collect();
            let want: u64 = remote.iter().map(|&r| lens[r as usize] as u64).sum();
            prop_assert_eq!((p, recv[p]), (p, want));
            for g in &rd.groups {
                send[g.owner as usize] += g.bytes;
            }
        }
        prop_assert_eq!(&w.send_bytes, &send);
        prop_assert_eq!(recv.iter().sum::<u64>(), send.iter().sum::<u64>());
    }

    /// The BSP planner conserves tasks and bytes across rounds for any
    /// memory budget, and rounds shrink as memory grows.
    #[test]
    fn bsp_plan_conserves(
        lens in proptest::collection::vec(500usize..8_000, 8..40),
        mem_mb in 1u64..64,
    ) {
        let tasks = banded_tasks(lens.len(), 6);
        let ovs = vec![1_000u32; tasks.len()];
        let mut machine = MachineConfig::cori_knl(2).with_cores_per_node(4);
        machine.mem_per_core = mem_mb << 20;
        let w = SimWorkload::prepare(&lens, &tasks, &ovs, machine.nranks());
        let cfg = RunConfig::default();
        let plan = plan_bsp(&w, &machine, &cfg);
        // Tasks conserved across rounds.
        let planned: u64 = plan.per_rank.iter().map(|p| p.tasks.iter().sum::<u64>()).sum();
        prop_assert_eq!(planned as usize, w.total_tasks);
        // Bytes conserved across rounds.
        for (p, rd) in plan.per_rank.iter().zip(&w.per_rank) {
            prop_assert_eq!(p.recv_bytes.iter().sum::<u64>(), rd.recv_bytes());
        }
        // A machine with plenty of memory plans a single round.
        let mut big = machine;
        big.mem_per_core = 8 << 30;
        let single = plan_bsp(&w, &big, &cfg);
        prop_assert_eq!(single.rounds, 1);
        prop_assert!(plan.rounds >= 1);
    }

    /// Cost model: monotone in overlap length, bounded jitter, and
    /// comm-only zeroes everything.
    #[test]
    fn cost_model_properties(a in 0u32..10_000, b in 0u32..10_000, ov in 1u32..100_000) {
        prop_assume!(a != b);
        let t = Candidate { a: a.min(b), b: a.max(b) + 1, a_pos: 0, b_pos: 0, same_strand: true };
        let m = CostModel::default();
        let c1 = m.cells(&t, ov);
        let c2 = m.cells(&t, ov.saturating_mul(2));
        prop_assert!(c2 >= c1, "monotone in overlap");
        let nominal = m.base_cells + m.cells_per_overlap_bp * ov as f64;
        prop_assert!(c1 >= nominal * (1.0 - m.jitter) - 1e-6);
        prop_assert!(c1 <= nominal * (1.0 + m.jitter) + 1e-6);
        prop_assert_eq!(CostModel::comm_only().cells(&t, ov), 0.0);
    }
}
