//! The pull protocol (paper §3.2), written once.
//!
//! A pull-based SPMD algorithm over RPCs (UPC++ in the original; tracked
//! requests on the [`crate::runtime`] layer here):
//!
//! * tasks are indexed under the remote read they need;
//! * each rank pulls every distinct remote read it needs — bounded by an
//!   outstanding-request window (§4.3 discusses tuning "limits on outgoing
//!   requests") — and attaches a callback: when read `b` arrives, all
//!   alignments involving `b` run as they are dequeued;
//! * a split-phase barrier overlaps local-local task computation with read
//!   registration; a single exit barrier keeps every rank's partition
//!   available (ranks keep servicing lookups after finishing their own
//!   work) until all tasks complete;
//! * at most the windowed replies are buffered, so memory stays flat
//!   (Fig. 11: <256 MB/core at every scale).
//!
//! [`PullStrategy`] is that state machine: window accounting, the poll
//! loop, checkpoint cadence and codec, adopted-shard replay, exit gating
//! and idle classification. The one decision it does not make is how a
//! wanted read reaches its owner — that is the [`WirePolicy`] it is
//! generic over: [`crate::async_alg::PerRead`] ships one tracked request
//! per read, [`crate::agg_async::Coalescer`] batches them per owner.
//!
//! Accounting: idle time that ends with a reply is *visible communication*
//! (latency the compute failed to hide); idle that ends with the exit
//! barrier or a foreign request while this rank has no outstanding
//! requests is *synchronization*; RPC injection/servicing and
//! pointer-based store traversal are *overhead*.

use crate::async_alg::{AsyncPlan, AsyncRankPlan};
use crate::driver::RunConfig;
use crate::runtime::{CoordinationStrategy, RtCtx, TAKEOVER_KEY_BASE};
use gnb_sim::ckpt::{Checkpointable, CkptReader, CkptWriter};
use gnb_sim::engine::TimeCategory;
use gnb_sim::SimTime;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Barrier ids: the split-phase registration barrier and the exit barrier.
const BAR_REG: u64 = 0;
const BAR_EXIT: u64 = 1;

/// Strategy-internal messages of the pull protocol. Requests and replies
/// are runtime-tracked ([`crate::runtime::RtMsg`]); only self-timers are
/// the strategy's own. `T` is the wire policy's timer payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PullApp<T> {
    /// Self-timer: process the next unit of ready work (the polling the
    /// paper notes UPC++ requires).
    Poll,
    /// Self-timer: serialize protocol progress to the checkpoint store
    /// and re-arm. Armed only when crashes are scheduled.
    Ckpt,
    /// A self-timer of the wire policy ([`WirePolicy::on_timer`]).
    Wire(T),
}

/// The strategy-facing context of a pull machine over wire policy `W`.
pub type PullCtx<'c, 'e, W> =
    RtCtx<'c, 'e, PullApp<<W as WirePolicy>::Timer>, <W as WirePolicy>::Req, ()>;

/// How a wanted read reaches its owner and comes back: the one decision
/// the pull machine leaves open.
pub trait WirePolicy: Sized {
    /// Payload of the policy's own self-timers (uninhabited if it arms
    /// none).
    type Timer: Clone;
    /// Tracked-request payload.
    type Req: Clone;
    /// The group indices one tracked request carried.
    type Released: IntoIterator<Item = usize>;

    /// The policy for rank `rank` of a run under `cfg`.
    fn new(rank: usize, cfg: &RunConfig) -> Self;

    /// A window slot opened for group `gidx` of this rank's plan `me`: put
    /// its read on the way to its owner.
    fn request(&mut self, rt: &mut PullCtx<'_, '_, Self>, me: &AsyncRankPlan, gidx: usize);

    /// One of this policy's self-timers fired (idle already classified).
    fn on_timer(&mut self, rt: &mut PullCtx<'_, '_, Self>, me: &AsyncRankPlan, timer: Self::Timer);

    /// Wire size and payload of a request for the single read `read` — an
    /// adopted shard's re-fetch, which the machine issues itself under a
    /// takeover key, past the window and any batching.
    fn single(&self, read: u32) -> (u64, Self::Req);

    /// Owner side: looks up what request `key` asks for in the partition
    /// (`lengths` by global read id), declaring the race key of every
    /// entry read. Returns the reply's wire size and the lookup units
    /// served.
    fn lookup(
        rt: &mut PullCtx<'_, '_, Self>,
        lengths: &[u32],
        key: u64,
        payload: &Self::Req,
    ) -> (u64, u64);

    /// Tracked request `key` (never a takeover key) was answered or
    /// abandoned: the groups of `me` it carried, each exactly once.
    fn release(&mut self, me: &AsyncRankPlan, key: u64) -> Self::Released;
}

/// The pull-protocol state machine over wire policy `W`, hosted by
/// [`crate::runtime::RankRuntime`].
pub struct PullStrategy<W> {
    plan: Arc<AsyncPlan>,
    rank: usize,
    window: usize,
    pub(crate) wire: W,

    next_req: usize,
    /// Reads requested but not yet computed-or-abandoned, whether or not
    /// the wire policy has shipped them (the window bounds this plus
    /// `ready`).
    in_flight: usize,
    ready: VecDeque<usize>,
    next_local: usize,
    groups_done: usize,
    poll_scheduled: bool,
    entered_exit: bool,
    tasks_done: u64,

    /// Per-group completion bitmap (checkpointed so a successor replays
    /// only unfinished groups).
    done: Vec<bool>,
    /// Outstanding adopted re-fetches: namespaced key → (dead rank, index
    /// into the dead rank's group list).
    adopted: BTreeMap<u64, (usize, usize)>,
}

impl<W: WirePolicy> PullStrategy<W> {
    /// Creates the protocol state machine for one rank.
    pub fn new(plan: Arc<AsyncPlan>, rank: usize, cfg: &RunConfig) -> PullStrategy<W> {
        let ngroups = plan.rank(rank).groups.len();
        PullStrategy {
            plan,
            rank,
            // A window of zero could never issue a request.
            window: cfg.rpc_window.max(1),
            wire: W::new(rank, cfg),
            next_req: 0,
            in_flight: 0,
            ready: VecDeque::new(),
            next_local: 0,
            groups_done: 0,
            poll_scheduled: false,
            entered_exit: false,
            tasks_done: 0,
            done: vec![false; ngroups],
            adopted: BTreeMap::new(),
        }
    }

    /// Serializes protocol progress: the local-chunk cursor, the group
    /// completion bitmap and the task counter. A successor restoring this
    /// replays only what the checkpoint does not cover.
    fn ckpt_bytes(&self) -> Vec<u8> {
        let mut w = CkptWriter::new();
        w.usize(self.next_local);
        self.done.checkpoint(&mut w);
        w.u64(self.tasks_done);
        w.finish()
    }

    /// Decodes a checkpoint written by [`Self::ckpt_bytes`] on any rank.
    fn decode_ckpt(bytes: &[u8]) -> (usize, Vec<bool>, u64) {
        let mut r = CkptReader::new(bytes);
        let next_local = r.usize();
        let done = Vec::<bool>::restore(&mut r);
        let tasks = r.u64();
        r.finish();
        (next_local, done, tasks)
    }

    /// Pulls the next reads while the window has room. Flow control is by
    /// consumption: the window bounds requests in flight *plus* replies
    /// buffered but not yet computed, so per-rank memory stays
    /// window-bounded (the paper's "no more than 1 remote read in-memory
    /// at any given time in order to make progress", generalised to a
    /// tunable window).
    fn pump(&mut self, rt: &mut PullCtx<'_, '_, W>) {
        let me = self.plan.rank(self.rank);
        while self.in_flight + self.ready.len() < self.window && self.next_req < me.groups.len() {
            let gidx = self.next_req;
            self.in_flight += 1;
            self.next_req += 1;
            self.wire.request(rt, me, gidx);
        }
    }

    fn ensure_poll(&mut self, rt: &mut PullCtx<'_, '_, W>) {
        let me = self.plan.rank(self.rank);
        let has_work = !self.ready.is_empty() || self.next_local < me.local_chunks.len();
        if !self.poll_scheduled && has_work {
            // One tick later, not zero: requests and replies that queued up
            // while this rank was computing must be serviced *before* the
            // next unit of compute — this is the "application-level
            // polling" between tasks that UPC++ requires (§3.2). A zero
            // delay would let the poll chain starve queued RPCs.
            rt.after_app(SimTime::from_ns(1), PullApp::Poll);
            self.poll_scheduled = true;
        }
    }

    fn maybe_finish(&mut self, rt: &mut PullCtx<'_, '_, W>) {
        let me = self.plan.rank(self.rank);
        let me_done = self.next_local >= me.local_chunks.len()
            && self.groups_done == me.groups.len()
            && rt.adoptions_pending() == 0
            && self.adopted.is_empty();
        if me_done && !self.entered_exit {
            self.entered_exit = true;
            rt.barrier_enter(BAR_EXIT);
        }
    }

    /// Group `gidx` of this rank's plan is computed or abandoned.
    fn retire(&mut self, gidx: usize) {
        self.groups_done += 1;
        #[expect(
            clippy::indexing_slicing,
            reason = "done has one slot per group of this rank's plan; gidx came from the ready queue or the wire policy's release, both minted from that plan"
        )]
        let done = &mut self.done[gidx];
        *done = true;
    }

    /// Classify an idle gap that was ended by a *foreign* event (request,
    /// wire-policy timer): if we still have requests in flight we were
    /// hiding (failing to hide) communication; otherwise we are done and
    /// waiting at the exit barrier — synchronization.
    fn classify_foreign_idle(&self, rt: &mut PullCtx<'_, '_, W>) {
        if self.in_flight > 0 {
            rt.classify_idle(TimeCategory::Comm);
        } else {
            rt.classify_idle(TimeCategory::Sync);
        }
    }
}

impl<W: WirePolicy> CoordinationStrategy for PullStrategy<W> {
    type App = PullApp<W::Timer>;
    type Req = W::Req;
    type Rep = ();

    fn on_start(&mut self, rt: &mut PullCtx<'_, '_, W>) {
        rt.mem_alloc(self.plan.rank(self.rank).static_bytes);
        // Split-phase barrier: enter the registration phase, then overlap
        // local work and request issue while others register.
        rt.barrier_enter(BAR_REG);
        // Armed only when crashes are scheduled, so crash-free runs stay
        // event-for-event identical.
        if rt.ckpt_enabled() {
            rt.after_app(rt.ckpt_interval(), PullApp::Ckpt);
        }
        self.pump(rt);
        self.ensure_poll(rt);
        self.maybe_finish(rt);
    }

    fn on_app(&mut self, rt: &mut PullCtx<'_, '_, W>, _src: usize, msg: PullApp<W::Timer>) {
        match msg {
            PullApp::Poll => {
                self.poll_scheduled = false;
                let me = self.plan.rank(self.rank);
                if let Some(gidx) = self.ready.pop_front() {
                    let g = me.group(gidx);
                    rt.advance(g.overhead, TimeCategory::Overhead);
                    rt.advance(g.compute, TimeCategory::Compute);
                    rt.mem_free(g.bytes);
                    self.tasks_done += g.tasks;
                    self.retire(gidx);
                    // Consumption frees a window slot: pull the next read.
                    self.pump(rt);
                } else if let Some(&(cp, oh, n)) = me.local_chunks.get(self.next_local) {
                    rt.advance(oh, TimeCategory::Overhead);
                    rt.advance(cp, TimeCategory::Compute);
                    self.tasks_done += n;
                    self.next_local += 1;
                }
                self.ensure_poll(rt);
                self.maybe_finish(rt);
            }
            PullApp::Ckpt => {
                // Waiting ended by the checkpoint timer is checkpoint
                // overhead, like the write it precedes.
                rt.classify_idle(TimeCategory::Overhead);
                if !self.entered_exit {
                    rt.ckpt_save(self.ckpt_bytes());
                    rt.after_app(rt.ckpt_interval(), PullApp::Ckpt);
                }
            }
            PullApp::Wire(timer) => {
                // The timer ended whatever idle preceded it; classify
                // before the policy decides whether it is stale.
                self.classify_foreign_idle(rt);
                self.wire.on_timer(rt, self.plan.rank(self.rank), timer);
            }
        }
    }

    /// Adopts dead rank `dead`'s shard: replay the local-task tail its
    /// checkpoint does not cover, and re-fetch its unfinished remote
    /// groups under namespaced keys. All replay work is booked as
    /// [`TimeCategory::Recovery`]; the re-fetches deliberately bypass the
    /// flow-control window and the wire policy's batching (recovery
    /// traffic must not starve behind the successor's own backlog).
    fn on_adopt(&mut self, rt: &mut PullCtx<'_, '_, W>, dead: usize, ckpt: Option<Vec<u8>>) {
        // No checkpoint: nothing is covered (a short bitmap reads false).
        let (next_local, done, ckpt_tasks) = match ckpt {
            Some(bytes) => Self::decode_ckpt(&bytes),
            None => (0, Vec::new(), 0),
        };
        rt.note_recovered(ckpt_tasks);
        self.tasks_done += ckpt_tasks;
        let shard = self.plan.rank(dead);
        for &(cp, oh, n) in shard.local_chunks.get(next_local..).unwrap_or_default() {
            rt.advance(oh, TimeCategory::Recovery);
            rt.advance(cp, TimeCategory::Recovery);
            self.tasks_done += n;
        }
        for (gidx, g) in shard.groups.iter().enumerate() {
            if done.get(gidx).copied().unwrap_or(false) {
                continue;
            }
            let key = TAKEOVER_KEY_BASE + ((dead as u64) << 32) + g.read as u64;
            let dst = rt.effective_owner(g.owner as usize);
            self.adopted.insert(key, (dead, gidx));
            let (bytes, payload) = self.wire.single(g.read);
            rt.send_tracked(key, dst, bytes, payload);
        }
        self.ensure_poll(rt);
        self.maybe_finish(rt);
    }

    fn on_request(
        &mut self,
        rt: &mut PullCtx<'_, '_, W>,
        src: usize,
        key: u64,
        attempt: u32,
        payload: W::Req,
    ) {
        self.classify_foreign_idle(rt);
        let (bytes, units) = W::lookup(rt, &self.plan.lengths, key, &payload);
        rt.serve_reply(src, key, attempt, bytes, units, ());
    }

    fn on_reply(&mut self, rt: &mut PullCtx<'_, '_, W>, key: u64, _p: ()) {
        if key >= TAKEOVER_KEY_BASE {
            // An adopted shard's re-fetched read: run the dead rank's
            // group as recovery work.
            #[expect(
                clippy::expect_used,
                reason = "the runtime ledger delivers replies only for keys this rank tracked; a miss is ledger corruption and must abort deterministically"
            )]
            let (dead, gidx) = self
                .adopted
                .remove(&key)
                .expect("reply for an adoption this rank never started");
            let g = self.plan.rank(dead).group(gidx);
            rt.advance(g.overhead, TimeCategory::Recovery);
            rt.advance(g.compute, TimeCategory::Recovery);
            self.tasks_done += g.tasks;
            self.maybe_finish(rt);
            return;
        }
        let me = self.plan.rank(self.rank);
        for gidx in self.wire.release(me, key) {
            rt.mem_alloc(me.group(gidx).bytes);
            self.in_flight -= 1;
            self.ready.push_back(gidx);
        }
        self.ensure_poll(rt);
    }

    fn on_give_up(&mut self, rt: &mut PullCtx<'_, '_, W>, key: u64, _payload: W::Req) {
        if key >= TAKEOVER_KEY_BASE {
            // An adopted re-fetch was abandoned (only possible when
            // message faults exhaust a budget against a live peer — the
            // runtime has recorded the failure). Unwind so the rank still
            // exits; the key must never reach the wire policy, which did
            // not mint it (`tests/fault_chaos.rs` pins this).
            self.adopted.remove(&key);
            self.maybe_finish(rt);
            return;
        }
        // The request's groups are abandoned; their tasks stay undone,
        // which the driver turns into RunError::RetryBudgetExhausted (or
        // reports as coverage loss under graceful degradation). Unwind
        // the window so the rank still drains its remaining work and
        // reaches the exit barrier.
        for gidx in self.wire.release(self.plan.rank(self.rank), key) {
            self.in_flight -= 1;
            self.retire(gidx);
        }
        self.pump(rt);
        self.ensure_poll(rt);
        self.maybe_finish(rt);
    }

    fn on_barrier(&mut self, rt: &mut PullCtx<'_, '_, W>, id: u64) {
        // Waiting that ends at a barrier is synchronization time (split
        // phase or exit).
        rt.classify_idle(TimeCategory::Sync);
        debug_assert!(id == BAR_REG || id == BAR_EXIT);
    }

    fn tasks_done(&self) -> u64 {
        self.tasks_done
    }

    /// This rank's task checksum (valid any time — a plan constant).
    fn checksum(&self) -> u64 {
        self.plan.rank(self.rank).checksum
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::agg_async::Coalescer;
    use crate::async_alg::{plan_async, PerRead};
    use crate::machine::MachineConfig;
    use crate::runtime::{RankRuntime, RuntimeConfig};
    use crate::workload::SimWorkload;
    use gnb_align::Candidate;
    use gnb_sim::engine::SimReport;
    use gnb_sim::{Engine, FaultPlan};

    pub(crate) fn workload(nranks: usize) -> SimWorkload {
        let lengths: Vec<usize> = (0..16).map(|i| 1000 + 100 * i).collect();
        let tasks: Vec<Candidate> = (0..16u32)
            .flat_map(|a| {
                ((a + 1)..16).map(move |b| Candidate {
                    a,
                    b,
                    a_pos: 0,
                    b_pos: 0,
                    same_strand: true,
                })
            })
            .collect();
        let ov: Vec<u32> = tasks.iter().map(|t| 200 * (t.b - t.a)).collect();
        SimWorkload::prepare(&lengths, &tasks, &ov, nranks)
    }

    pub(crate) fn machine(cores: usize) -> MachineConfig {
        MachineConfig::cori_knl(1).with_cores_per_node(cores)
    }

    /// Runs [`workload`] on one `nranks`-core node under wire policy `W`.
    pub(crate) fn run<W: WirePolicy>(
        nranks: usize,
        cfg: &RunConfig,
    ) -> (Vec<RankRuntime<PullStrategy<W>>>, SimReport) {
        let w = workload(nranks);
        w.validate();
        let m = machine(nranks);
        let plan = Arc::new(plan_async(&w, &m, cfg));
        let mut progs: Vec<RankRuntime<PullStrategy<W>>> = (0..nranks)
            .map(|r| {
                RankRuntime::new(
                    PullStrategy::new(Arc::clone(&plan), r, cfg),
                    r,
                    RuntimeConfig::from_run(&m, cfg),
                    Arc::new(FaultPlan::default()),
                    None,
                )
            })
            .collect();
        let report = Engine::new(nranks, m.net).run(&mut progs);
        (progs, report)
    }

    pub(crate) fn total_done<W: WirePolicy>(progs: &[RankRuntime<PullStrategy<W>>]) -> usize {
        progs.iter().map(|p| p.tasks_done()).sum::<u64>() as usize
    }

    #[test]
    fn all_tasks_complete_exactly_once() {
        fn check<W: WirePolicy>() {
            for nranks in [1, 2, 4, 8] {
                let (progs, _) = run::<W>(nranks, &RunConfig::default());
                assert_eq!(
                    total_done(&progs),
                    workload(nranks).total_tasks,
                    "nranks={nranks}"
                );
            }
        }
        check::<PerRead>();
        check::<Coalescer>();
    }

    #[test]
    fn deterministic() {
        fn check<W: WirePolicy>() {
            let (p1, r1) = run::<W>(4, &RunConfig::default());
            let (p2, r2) = run::<W>(4, &RunConfig::default());
            assert_eq!(r1, r2);
            let d1: Vec<u64> = p1.iter().map(|p| p.tasks_done()).collect();
            let d2: Vec<u64> = p2.iter().map(|p| p.tasks_done()).collect();
            assert_eq!(d1, d2);
        }
        check::<PerRead>();
        check::<Coalescer>();
    }

    #[test]
    fn reliable_network_never_retries() {
        fn check<W: WirePolicy>() {
            let (progs, _) = run::<W>(4, &RunConfig::default());
            assert!(progs.iter().all(|p| p.recovery().retries == 0));
        }
        check::<PerRead>();
        check::<Coalescer>();
    }
}
