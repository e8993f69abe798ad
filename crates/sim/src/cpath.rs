//! Critical-path profiler over the recorded event-dependency DAG.
//!
//! Walks **backwards** from the last-finishing handler to virtual time
//! zero, at every step following the *tight* dependency — the one that,
//! if shortened, would move the finish time:
//!
//! * while a handler is running, its own [`crate::obs::ObsSpan`]s (busy
//!   time by [`crate::engine::TimeCategory`]);
//! * if the handler started exactly when its event was *scheduled*, the
//!   causal edge: the wait back to the push is attributed to the wire
//!   ([`CpCategory::Wire`]), a timer delay ([`CpCategory::Timer`]) or a
//!   barrier release ([`CpCategory::Barrier`]), and the walk jumps into
//!   the causing handler at the push instant;
//! * if the handler started later than scheduled, the rank was busy (or
//!   stalled): the walk continues through the predecessor handler on the
//!   same rank, or through the recorded stall interval
//!   ([`CpCategory::Stall`]).
//!
//! The resulting segments **tile `[0, end_time]` exactly** — the
//! per-category totals sum to the run's end-to-end virtual time, which is
//! the paper-style "what actually limits scaling" attribution (and a
//! pinned acceptance test). Gaps the walker cannot explain are reported
//! as [`CpCategory::Unattributed`] rather than silently absorbed.
//!
//! Truncated recordings (dropped nodes/spans) are refused: a path walked
//! over holes would attribute time to the wrong edges with no indication
//! anything was missing.

use crate::export::CATEGORY_NAMES;
use crate::obs::{EdgeKind, Obs, NO_NODE};
use crate::time::SimTime;
use std::fmt::Write as _;

/// Critical-path attribution categories: the five busy ledger categories
/// plus the wait-edge kinds the walker can cross.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CpCategory {
    /// Busy: seed-and-extend alignment work.
    Compute = 0,
    /// Busy: data-structure / serialization overhead.
    Overhead = 1,
    /// Busy: visible communication work.
    Comm = 2,
    /// Busy: synchronization work.
    Sync = 3,
    /// Busy: fault-recovery work.
    Recovery = 4,
    /// Waiting on a message crossing the network.
    Wire = 5,
    /// Waiting on a self-timer to fire.
    Timer = 6,
    /// Waiting on a barrier release.
    Barrier = 7,
    /// Frozen by an injected transient stall.
    Stall = 8,
    /// Wait the walker could not tie to a recorded dependency.
    Unattributed = 9,
}

/// Number of [`CpCategory`] values.
pub const CP_CATEGORIES: usize = 10;

impl CpCategory {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            CpCategory::Compute => CATEGORY_NAMES[0],
            CpCategory::Overhead => CATEGORY_NAMES[1],
            CpCategory::Comm => CATEGORY_NAMES[2],
            CpCategory::Sync => CATEGORY_NAMES[3],
            CpCategory::Recovery => CATEGORY_NAMES[4],
            CpCategory::Wire => "wire",
            CpCategory::Timer => "timer",
            CpCategory::Barrier => "barrier",
            CpCategory::Stall => "stall",
            CpCategory::Unattributed => "unattributed",
        }
    }

    /// All categories, in display order.
    pub const ALL: [CpCategory; CP_CATEGORIES] = [
        CpCategory::Compute,
        CpCategory::Overhead,
        CpCategory::Comm,
        CpCategory::Sync,
        CpCategory::Recovery,
        CpCategory::Wire,
        CpCategory::Timer,
        CpCategory::Barrier,
        CpCategory::Stall,
        CpCategory::Unattributed,
    ];

    fn from_ledger(cat: u8) -> CpCategory {
        match cat as usize {
            0 => CpCategory::Compute,
            1 => CpCategory::Overhead,
            2 => CpCategory::Comm,
            3 => CpCategory::Sync,
            _ => CpCategory::Recovery,
        }
    }
}

/// One critical-path segment (chronological after the walk).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpSegment {
    /// Segment start (virtual time).
    pub start: SimTime,
    /// Segment end (virtual time).
    pub end: SimTime,
    /// Attribution.
    pub category: CpCategory,
    /// The node the segment belongs to: the running handler for busy
    /// segments, the *waiting* (destination) node for wait segments,
    /// [`NO_NODE`] for stalls and unattributed gaps.
    pub node: u32,
}

/// The walked critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// Segments in chronological order, tiling `[0, end_time]`.
    pub segments: Vec<CpSegment>,
    /// Per-category totals, ns (indexed by `CpCategory as usize`).
    pub totals_ns: [u64; CP_CATEGORIES],
    /// The run's end-to-end virtual time.
    pub end_time: SimTime,
    /// The node the path terminates at (the last finisher).
    pub final_node: u32,
}

impl CriticalPath {
    /// Sum of all per-category totals; equals `end_time` by construction.
    pub fn total_ns(&self) -> u64 {
        self.totals_ns.iter().fold(0, |a, &b| a.saturating_add(b))
    }

    /// Renders the per-category attribution table (deterministic; permille
    /// shares computed in integer math).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical path: {} segments over {} ns (final node {})",
            self.segments.len(),
            self.end_time.as_ns(),
            self.final_node
        );
        let total = self.total_ns().max(1);
        for cat in CpCategory::ALL {
            let ns = self.totals_ns[cat as usize];
            if ns == 0 {
                continue;
            }
            let permille = (u128::from(ns) * 1000 / u128::from(total)) as u64;
            let _ = writeln!(
                out,
                "  {:<14} {:>16} ns  {:>3}.{}%",
                cat.name(),
                ns,
                permille / 10,
                permille % 10
            );
        }
        let _ = writeln!(out, "  {:<14} {:>16} ns  total", "sum", self.total_ns());
        out
    }
}

/// Per-rank dispatch index for predecessor lookups.
struct RankIndex {
    /// Node ids per rank, in dispatch (= start time) order.
    by_rank: Vec<Vec<u32>>,
}

impl RankIndex {
    fn build(obs: &Obs) -> RankIndex {
        let mut by_rank = vec![Vec::new(); obs.nranks];
        for n in &obs.nodes {
            by_rank[n.rank as usize].push(n.id);
        }
        RankIndex { by_rank }
    }

    /// The latest node on `rank` with `end == t` and id `< before`.
    fn pred_ending_at(&self, obs: &Obs, rank: u32, t: SimTime, before: u32) -> Option<u32> {
        self.by_rank[rank as usize]
            .iter()
            .rev()
            .copied()
            .filter(|&id| id < before)
            .find(|&id| obs.nodes[id as usize].end == t)
    }

    /// The latest node end on `rank` strictly before `t` (for bounding
    /// unattributed gaps).
    fn latest_end_before(&self, obs: &Obs, rank: u32, t: SimTime) -> Option<SimTime> {
        self.by_rank[rank as usize]
            .iter()
            .rev()
            .map(|&id| obs.nodes[id as usize].end)
            .find(|&e| e < t)
    }
}

/// Walks the critical path of a completed, untruncated recording.
///
/// Returns `Err` for truncated or empty recordings, and if the walk fails
/// to converge (which would indicate an inconsistent trace).
pub fn critical_path(obs: &Obs) -> Result<CriticalPath, String> {
    if obs.is_truncated() {
        return Err(format!(
            "trace is truncated (dropped: {} nodes, {} spans, {} instants, {} samples; {} unresolved edges) — critical path over a partial DAG would be wrong",
            obs.dropped_nodes,
            obs.dropped_spans,
            obs.dropped_instants,
            obs.dropped_samples(),
            obs.unresolved_edges
        ));
    }
    if obs.nodes.is_empty() {
        return Err("trace has no dispatch nodes".to_string());
    }

    // Group spans per node once (node -> contiguous busy intervals).
    let mut node_spans: Vec<Vec<(SimTime, SimTime, u8)>> = vec![Vec::new(); obs.nodes.len()];
    for s in &obs.spans {
        if s.node != NO_NODE {
            node_spans[s.node as usize].push((s.start, s.end, s.category));
        }
    }
    let ranks = RankIndex::build(obs);

    // Final node: latest end, smallest id among ties.
    let final_node = obs
        .nodes
        .iter()
        .max_by_key(|n| (n.end, std::cmp::Reverse(n.id)))
        .expect("nonempty")
        .id;
    let end_time = obs.nodes[final_node as usize].end;

    let mut segments: Vec<CpSegment> = Vec::new();
    let push_seg = |segments: &mut Vec<CpSegment>, start: SimTime, end: SimTime, category, node| {
        if end > start {
            segments.push(CpSegment {
                start,
                end,
                category,
                node,
            });
        }
    };

    let mut cur = final_node;
    // Upper bound of the portion of `cur` on the path (the handler may
    // have kept running past the instant that mattered downstream).
    let mut hi = end_time;
    let budget = 4 * (obs.nodes.len() + obs.spans.len() + obs.stalls.len()) + 64;
    let mut steps = 0usize;

    'walk: loop {
        steps += 1;
        if steps > budget {
            return Err("critical-path walk failed to converge".to_string());
        }
        let n = obs.nodes[cur as usize];
        // 1. Busy attribution: cur's spans clipped to [n.start, hi].
        for &(s, e, cat) in node_spans[cur as usize].iter().rev() {
            if s >= hi {
                continue;
            }
            push_seg(
                &mut segments,
                s,
                e.min(hi),
                CpCategory::from_ledger(cat),
                cur,
            );
        }
        // 2. Resolve what the handler's start was waiting on.
        let mut t = n.start;
        loop {
            steps += 1;
            if steps > budget {
                return Err("critical-path walk failed to converge".to_string());
            }
            if t == SimTime::ZERO && n.kind == EdgeKind::Start {
                break 'walk;
            }
            // Tight causal edge: dispatched exactly when scheduled.
            if t == n.sched_time && n.kind != EdgeKind::Start {
                let wait_cat = match n.kind {
                    EdgeKind::Message => CpCategory::Wire,
                    EdgeKind::Timer => CpCategory::Timer,
                    EdgeKind::Barrier => CpCategory::Barrier,
                    EdgeKind::Start => unreachable!(),
                };
                push_seg(&mut segments, n.push_time, t, wait_cat, cur);
                if n.cause == NO_NODE {
                    push_seg(
                        &mut segments,
                        SimTime::ZERO,
                        n.push_time,
                        CpCategory::Unattributed,
                        NO_NODE,
                    );
                    break 'walk;
                }
                cur = n.cause;
                hi = n.push_time;
                continue 'walk;
            }
            // Rank dependency: the previous handler on this rank freed
            // the CPU at exactly t (busy deferral).
            if let Some(p) = ranks.pred_ending_at(obs, n.rank, t, cur) {
                cur = p;
                hi = t;
                continue 'walk;
            }
            // Stall thawing at t.
            if let Some(st) = obs
                .stalls
                .iter()
                .rev()
                .find(|s| s.rank == n.rank && s.thaw == t)
            {
                push_seg(&mut segments, st.at, t, CpCategory::Stall, NO_NODE);
                t = st.at;
                continue;
            }
            // No recorded dependency explains t: bound the gap by the
            // nearest earlier explainable instant and mark it.
            let mut lb = SimTime::ZERO;
            if n.sched_time < t {
                lb = lb.max(n.sched_time);
            }
            if let Some(e) = ranks.latest_end_before(obs, n.rank, t) {
                lb = lb.max(e);
            }
            push_seg(&mut segments, lb, t, CpCategory::Unattributed, NO_NODE);
            if lb == SimTime::ZERO {
                break 'walk;
            }
            t = lb;
        }
    }

    segments.reverse();
    let mut totals_ns = [0u64; CP_CATEGORIES];
    for s in &segments {
        let total = &mut totals_ns[s.category as usize];
        *total = total.saturating_add((s.end - s.start).as_ns());
    }
    Ok(CriticalPath {
        segments,
        totals_ns,
        end_time,
        final_node,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{MetricId, ObsConfig, GLOBAL_RANK};
    use crate::TimeCategory;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    fn assert_tiles(cp: &CriticalPath) {
        assert_eq!(
            cp.total_ns(),
            cp.end_time.as_ns(),
            "category sums must equal path length: {:?}",
            cp.segments
        );
        // Segments are contiguous from 0 to end.
        let mut at = SimTime::ZERO;
        for s in &cp.segments {
            assert_eq!(s.start, at, "gap/overlap at {:?}", s);
            at = s.end;
        }
        assert_eq!(at, cp.end_time);
    }

    /// Chain: rank 0 computes, sends; rank 1 serves the message.
    /// Post-send compute on rank 0 is *off* the path.
    #[test]
    fn chain_known_answer() {
        let mut o = Obs::new(ObsConfig::default(), 2);
        o.on_push(0, EdgeKind::Start, t(0), t(0));
        o.on_push(1, EdgeKind::Start, t(0), t(0));
        // Rank 0 start: overhead 100, push msg, then 80 more compute.
        o.begin_dispatch(0, t(0), 0, 1);
        o.on_advance(0, t(0), t(100), TimeCategory::Overhead);
        o.on_push(2, EdgeKind::Message, t(100), t(300));
        o.on_advance(0, t(100), t(180), TimeCategory::Compute);
        o.end_dispatch(t(180));
        // Rank 1 start: empty.
        o.begin_dispatch(1, t(0), 1, 1);
        o.end_dispatch(t(0));
        // Message served on rank 1.
        o.begin_dispatch(1, t(300), 2, 0);
        o.on_advance(1, t(300), t(350), TimeCategory::Compute);
        o.end_dispatch(t(350));
        o.finish(t(350));

        let cp = critical_path(&o).expect("walk");
        assert_tiles(&cp);
        assert_eq!(cp.final_node, 2);
        assert_eq!(cp.totals_ns[CpCategory::Compute as usize], 50);
        assert_eq!(cp.totals_ns[CpCategory::Overhead as usize], 100);
        assert_eq!(cp.totals_ns[CpCategory::Wire as usize], 200);
        assert_eq!(
            cp.totals_ns[CpCategory::Unattributed as usize],
            0,
            "{:?}",
            cp.segments
        );
        // The 80 ns of post-send compute is not on the path.
        assert_eq!(cp.end_time, t(350));
    }

    /// Fan-in barrier: the slow enterer's compute dominates; the fast
    /// rank's compute is off the path.
    #[test]
    fn barrier_fan_in_known_answer() {
        let mut o = Obs::new(ObsConfig::default(), 2);
        o.on_push(0, EdgeKind::Start, t(0), t(0));
        o.on_push(1, EdgeKind::Start, t(0), t(0));
        // Rank 0: computes 100, enters barrier.
        o.begin_dispatch(0, t(0), 0, 1);
        o.on_advance(0, t(0), t(100), TimeCategory::Compute);
        o.end_dispatch(t(100));
        // Rank 1: computes 400, enters last → fan-out pushes, release 450.
        o.begin_dispatch(1, t(0), 1, 1);
        o.on_advance(1, t(0), t(400), TimeCategory::Compute);
        o.on_push(2, EdgeKind::Barrier, t(400), t(450));
        o.on_push(3, EdgeKind::Barrier, t(400), t(450));
        o.end_dispatch(t(400));
        // Releases: rank 0 trivial, rank 1 does 50 of overhead after.
        o.begin_dispatch(0, t(450), 2, 1);
        o.end_dispatch(t(450));
        o.begin_dispatch(1, t(450), 3, 0);
        o.on_advance(1, t(450), t(500), TimeCategory::Overhead);
        o.end_dispatch(t(500));
        o.finish(t(500));

        let cp = critical_path(&o).expect("walk");
        assert_tiles(&cp);
        assert_eq!(cp.totals_ns[CpCategory::Compute as usize], 400, "slow rank");
        assert_eq!(cp.totals_ns[CpCategory::Barrier as usize], 50);
        assert_eq!(cp.totals_ns[CpCategory::Overhead as usize], 50);
        assert_eq!(cp.totals_ns[CpCategory::Unattributed as usize], 0);
    }

    /// Retry loop: request lost (never pushed), timer fires, recovery
    /// re-issue, served, reply. Timer wait and recovery work on the path.
    #[test]
    fn retry_loop_known_answer() {
        let mut o = Obs::new(ObsConfig::default(), 2);
        o.on_push(0, EdgeKind::Start, t(0), t(0));
        o.on_push(1, EdgeKind::Start, t(0), t(0));
        // Rank 0 start: 10 overhead; request dropped on the wire (no
        // push); guard timer armed for +100.
        o.begin_dispatch(0, t(0), 0, 1);
        o.on_advance(0, t(0), t(10), TimeCategory::Overhead);
        o.on_push(2, EdgeKind::Timer, t(10), t(110));
        o.end_dispatch(t(10));
        o.begin_dispatch(1, t(0), 1, 1);
        o.end_dispatch(t(0));
        // Timer fires: 5 of recovery, re-issued request.
        o.begin_dispatch(0, t(110), 2, 0);
        o.on_advance(0, t(110), t(115), TimeCategory::Recovery);
        o.on_push(3, EdgeKind::Message, t(115), t(165));
        o.end_dispatch(t(115));
        // Server: 25 compute, reply.
        o.begin_dispatch(1, t(165), 3, 0);
        o.on_advance(1, t(165), t(190), TimeCategory::Compute);
        o.on_push(4, EdgeKind::Message, t(190), t(240));
        o.end_dispatch(t(190));
        // Reply handled: 10 overhead.
        o.begin_dispatch(0, t(240), 4, 0);
        o.on_advance(0, t(240), t(250), TimeCategory::Overhead);
        o.end_dispatch(t(250));
        o.finish(t(250));

        let cp = critical_path(&o).expect("walk");
        assert_tiles(&cp);
        assert_eq!(cp.totals_ns[CpCategory::Overhead as usize], 20);
        assert_eq!(cp.totals_ns[CpCategory::Recovery as usize], 5);
        assert_eq!(cp.totals_ns[CpCategory::Timer as usize], 100);
        assert_eq!(cp.totals_ns[CpCategory::Wire as usize], 100);
        assert_eq!(cp.totals_ns[CpCategory::Compute as usize], 25);
        assert_eq!(cp.totals_ns[CpCategory::Unattributed as usize], 0);
    }

    /// Busy deferral crosses to the rank predecessor, not the wire.
    #[test]
    fn busy_deferral_follows_rank_predecessor() {
        let mut o = Obs::new(ObsConfig::default(), 2);
        o.on_push(0, EdgeKind::Start, t(0), t(0));
        o.on_push(1, EdgeKind::Start, t(0), t(0));
        // Rank 0: quick send at 5.
        o.begin_dispatch(0, t(0), 0, 1);
        o.on_advance(0, t(0), t(5), TimeCategory::Overhead);
        o.on_push(2, EdgeKind::Message, t(5), t(50));
        o.end_dispatch(t(5));
        // Rank 1: busy computing until 200.
        o.begin_dispatch(1, t(0), 1, 1);
        o.on_advance(1, t(0), t(200), TimeCategory::Compute);
        o.end_dispatch(t(200));
        // Message scheduled for 50, deferred (requeued) to 200.
        o.on_requeue(2, 3);
        o.begin_dispatch(1, t(200), 3, 0);
        o.on_advance(1, t(200), t(230), TimeCategory::Overhead);
        o.end_dispatch(t(230));
        o.finish(t(230));

        let cp = critical_path(&o).expect("walk");
        assert_tiles(&cp);
        // Path: rank1 compute [0,200] + overhead [200,230]; the wire wait
        // was not the binding constraint.
        assert_eq!(cp.totals_ns[CpCategory::Compute as usize], 200);
        assert_eq!(cp.totals_ns[CpCategory::Overhead as usize], 30);
        assert_eq!(cp.totals_ns[CpCategory::Wire as usize], 0);
        assert_eq!(cp.totals_ns[CpCategory::Unattributed as usize], 0);
    }

    /// A stall freeze between schedule and dispatch lands on the path.
    #[test]
    fn stall_interval_attributed() {
        let mut o = Obs::new(ObsConfig::default(), 1);
        o.on_push(0, EdgeKind::Start, t(0), t(0));
        // Timer armed at 0 for 40; rank frozen [40, 100); fires at 100.
        o.begin_dispatch(0, t(0), 0, 0);
        o.on_push(1, EdgeKind::Timer, t(0), t(40));
        o.end_dispatch(t(0));
        o.on_advance(0, t(40), t(100), TimeCategory::Recovery); // NO_NODE span
        o.on_stall(0, t(40), t(100));
        o.on_requeue(1, 2);
        o.begin_dispatch(0, t(100), 2, 0);
        o.on_advance(0, t(100), t(130), TimeCategory::Compute);
        o.end_dispatch(t(130));
        o.finish(t(130));

        let cp = critical_path(&o).expect("walk");
        assert_tiles(&cp);
        assert_eq!(cp.totals_ns[CpCategory::Compute as usize], 30);
        assert_eq!(cp.totals_ns[CpCategory::Stall as usize], 60);
        assert_eq!(cp.totals_ns[CpCategory::Timer as usize], 40);
        assert_eq!(cp.totals_ns[CpCategory::Unattributed as usize], 0);
    }

    #[test]
    fn truncated_trace_refused() {
        let cfg = ObsConfig {
            max_nodes: 1,
            ..ObsConfig::default()
        };
        let mut o = Obs::new(cfg, 1);
        o.on_push(0, EdgeKind::Start, t(0), t(0));
        o.on_push(1, EdgeKind::Timer, t(0), t(10));
        o.begin_dispatch(0, t(0), 0, 1);
        o.end_dispatch(t(0));
        o.begin_dispatch(0, t(10), 1, 0);
        o.end_dispatch(t(10));
        o.finish(t(10));
        assert!(o.is_truncated());
        let err = critical_path(&o).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn empty_trace_refused() {
        let mut o = Obs::new(ObsConfig::default(), 1);
        o.finish(t(0));
        assert!(critical_path(&o).is_err());
    }

    /// End-to-end: engine-run recording tiles exactly, faults included.
    #[test]
    fn engine_run_sums_to_end_time() {
        use crate::engine::{Ctx, Engine, Program};
        use crate::fault::{FaultPlan, RankStall};
        use crate::net::NetParams;

        #[derive(Clone)]
        enum Msg {
            Ping,
            Pong,
        }
        struct P;
        impl Program<Msg> for P {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                if ctx.rank() == 0 {
                    ctx.advance(t(2_000), TimeCategory::Compute);
                    ctx.send(1, 256, Msg::Ping);
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, src: usize, msg: Msg) {
                match msg {
                    Msg::Ping => {
                        ctx.advance(t(500), TimeCategory::Overhead);
                        ctx.send(src, 64, Msg::Pong);
                    }
                    Msg::Pong => ctx.advance(t(100), TimeCategory::Overhead),
                }
            }
            fn on_barrier(&mut self, _ctx: &mut Ctx<'_, Msg>, _id: u64) {}
        }
        let net = NetParams {
            ranks_per_node: 2,
            alpha_ns: 1000,
            intra_alpha_ns: 100,
            node_bw_bytes_per_sec: 1e9,
            per_msg_overhead_ns: 50,
            taper: 1.0,
        };
        for stall in [false, true] {
            let mut progs = vec![P, P];
            let mut e = Engine::new(2, net).with_obs(ObsConfig::default());
            if stall {
                e = e.with_faults(FaultPlan::new(3).with_stall(RankStall {
                    rank: 1,
                    at: t(1_000),
                    duration: t(50_000),
                }));
            }
            let report = e.run(&mut progs);
            let obs = report.obs.expect("obs");
            let cp = critical_path(&obs).expect("walk");
            assert_tiles(&cp);
            assert_eq!(cp.end_time, report.end_time);
        }
    }

    #[test]
    fn render_lists_nonzero_categories() {
        let mut o = Obs::new(ObsConfig::default(), 1);
        o.on_push(0, EdgeKind::Start, t(0), t(0));
        o.begin_dispatch(0, t(0), 0, 0);
        o.on_advance(0, t(0), t(750), TimeCategory::Compute);
        o.on_advance(0, t(750), t(1000), TimeCategory::Sync);
        o.end_dispatch(t(1000));
        // Metric noise must not affect the walk.
        o.counter_add(MetricId::BytesSent, GLOBAL_RANK, t(1), 1);
        o.finish(t(1000));
        let cp = critical_path(&o).expect("walk");
        let table = cp.render();
        assert!(table.contains("compute"), "{table}");
        assert!(table.contains("75.0%"), "{table}");
        assert!(table.contains("sync"), "{table}");
        assert!(!table.contains("wire"));
        assert!(table.contains("1000 ns  total"));
    }
}
