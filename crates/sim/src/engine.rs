//! The DES engine: SPMD rank programs over virtual time.
//!
//! Each rank is a [`Program`]: an event-driven state machine with handlers
//! for start, message arrival, and barrier completion. Handlers run in
//! virtual time; [`Ctx::advance`] consumes CPU, making the rank *busy* —
//! events that arrive while a rank is busy are deferred until it frees up
//! (an M/G/1-style queueing model). This is what makes RPC servicing
//! contend with alignment compute on the target rank, the effect the
//! paper's asynchronous code must tolerate (§3.2: "application-level
//! polling is required").
//!
//! Determinism: the queue orders events by `(virtual time, insertion
//! sequence)` and handlers run to completion, so a given program set
//! produces a bit-identical timeline every run.
//!
//! Time accounting: [`Ctx::advance`] books busy time into a
//! [`TimeCategory`] ledger; idle gaps (rank waiting for an event) are
//! classified by the *program* via [`Ctx::classify_idle`] at the start of
//! the next handler — only the program knows whether it was waiting on
//! communication or on a barrier. Unclassified idle is reported separately
//! so nothing is silently lost.

use crate::coll::barrier_time;
use crate::event::{EventPayload, EventQueue, QueuedEvent, TieBreak};
use crate::fault::{FaultPlan, FaultStats};
use crate::mem::MemTracker;
use crate::membership::{self, Membership};
use crate::net::{NetParams, Network};
use crate::obs::{EdgeKind, InstantKind, MetricId, Obs, ObsConfig, GLOBAL_RANK};
use crate::race::RaceDetector;
use crate::rank::{RankId, RankVec, Ranks};
use crate::stats::Summary;
use crate::time::SimTime;
use std::collections::BTreeMap;

/// Time ledger categories, matching the paper's runtime breakdowns
/// (Figs. 3, 4, 8–10) plus fault-recovery accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeCategory {
    /// Seed-and-extend alignment work ("Computation (Alignment)").
    Compute = 0,
    /// Data-structure traversal, kernel invocation, serialisation
    /// ("Computation (Overhead)").
    Overhead = 1,
    /// Visible (unhidden) communication latency.
    Comm = 2,
    /// Barrier / load-imbalance waiting ("Synchronization").
    Sync = 3,
    /// Fault-recovery work: retry injection, duplicate handling,
    /// straggler-induced CPU inflation, stall freezes, re-issued
    /// exchange rounds. Zero in fault-free runs.
    Recovery = 4,
}

/// Number of ledger categories.
pub const CATEGORIES: usize = 5;

impl TimeCategory {
    /// This category's entry of a per-category row. The row has one
    /// entry per variant, so the lookup cannot miss.
    pub(crate) fn of_mut<T>(self, row: &mut [T; CATEGORIES]) -> &mut T {
        let [compute, overhead, comm, sync, recovery] = row;
        match self {
            TimeCategory::Compute => compute,
            TimeCategory::Overhead => overhead,
            TimeCategory::Comm => comm,
            TimeCategory::Sync => sync,
            TimeCategory::Recovery => recovery,
        }
    }
}

/// An SPMD rank program.
pub trait Program<M> {
    /// Called once at virtual time zero.
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>);
    /// Called when a message (or self-timer) arrives.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, src: usize, msg: M);
    /// Called when a barrier this rank entered completes.
    fn on_barrier(&mut self, ctx: &mut Ctx<'_, M>, id: u64);
}

#[derive(Debug, Default)]
struct BarrierState {
    entered: usize,
    max_entry: SimTime,
}

/// Engine internals shared with handlers through [`Ctx`].
struct EngineCore<M> {
    queue: EventQueue<M>,
    net: Network,
    ranks: Ranks,
    busy_until: RankVec<SimTime>,
    barriers: BTreeMap<u64, BarrierState>,
    ledger: RankVec<[SimTime; CATEGORIES]>,
    unclassified_idle: RankVec<SimTime>,
    mem: MemTracker,
    finish: RankVec<SimTime>,
    events_processed: u64,
    /// Busy-rank and stall deferrals (one per `requeue`).
    deferrals: u64,
    /// Fault-injection plan (None = reliable machine).
    fault: Option<FaultPlan>,
    /// Global send sequence number (drives per-message fault decisions).
    msg_seq: u64,
    /// Per-destination send counters (drive scheduled drops).
    dst_counts: RankVec<u64>,
    /// Injected-fault counters.
    fault_stats: FaultStats,
    /// Crash-stop liveness flags and pending crash/rebirth marks (see
    /// [`crate::membership`]).
    membership: Membership,
    /// Virtual-time race detector (None = not detecting).
    races: Option<RaceDetector>,
    /// Structured observability recorder (None = not recording).
    obs: Option<Obs>,
}

impl<M> EngineCore<M> {
    /// See [`membership::crash_dooms`].
    fn crash_dooms(&self, src: usize, dst: usize, now: SimTime, sched: SimTime) -> bool {
        membership::crash_dooms(self.fault.as_ref(), src, dst, now, sched)
    }

    /// See [`membership::required_ranks`].
    fn required_ranks(&self, t: SimTime) -> usize {
        membership::required_ranks(self.fault.as_ref(), self.ranks.count(), t)
    }

    /// Releases barrier `id` (already removed from the pending map):
    /// pushes [`EventPayload::BarrierDone`] to every rank still in the
    /// group at `max(entry times) + α·⌈log₂ P⌉`.
    fn push_barrier_done(&mut self, id: u64, max_entry: SimTime, push_time: SimTime) {
        let release = max_entry + barrier_time(self.net.params.alpha_ns, self.ranks.count());
        let crashes = membership::crashes_scheduled(self.fault.as_ref());
        for r in 0..self.ranks.count() {
            if crashes
                && self
                    .fault
                    .as_ref()
                    .is_some_and(|f| f.crash.crashed_by(r, release))
            {
                continue;
            }
            let seq = self
                .queue
                .push(release, r, EventPayload::BarrierDone { id });
            if let Some(obs) = &mut self.obs {
                // Fan-in edge: the cause is the releasing handler.
                obs.on_push(seq, EdgeKind::Barrier, push_time, release);
            }
        }
    }

    /// Executes one [`Ctx::send`] against the engine core: sequence-number
    /// and per-destination bookkeeping, fault fate, NIC reservation, queue
    /// pushes, observability.
    fn exec_send(&mut self, rank: usize, now: SimTime, dst: usize, bytes: u64, msg: M)
    where
        M: Clone,
    {
        #[expect(
            clippy::panic,
            reason = "Ctx::send's documented precondition; a send past the last rank is a program bug"
        )]
        let Some(d) = self.ranks.id(dst) else {
            panic!(
                "rank {rank} sent to rank {dst}, but the run has {} ranks",
                self.ranks.count()
            )
        };
        self.msg_seq += 1;
        self.dst_counts[d] += 1;
        if let Some(obs) = &mut self.obs {
            obs.counter_add(MetricId::BytesSent, GLOBAL_RANK, now, bytes);
            obs.counter_add(MetricId::MsgsSent, GLOBAL_RANK, now, 1);
        }
        let fate = self
            .fault
            .as_ref()
            .map(|f| f.message_fate(self.msg_seq, dst, self.dst_counts[d]))
            .unwrap_or_default();
        if fate.dropped {
            // Lost on the wire: the source NIC was still occupied.
            self.net.tx_time(now, rank, dst, bytes);
            self.fault_stats.msgs_dropped += 1;
            if let Some(obs) = &mut self.obs {
                obs.instant(rank, now, InstantKind::MsgDropped, dst as u64);
            }
            return;
        }
        if fate.duplicated {
            // Allocation audit: this is the only payload clone in the
            // engine. A duplicated message is *two* by-value deliveries —
            // the receiver gets (and may mutate/consume) two independent
            // payloads — so one copy is inherent to the fault model, not
            // queue churn. The reliable path below moves `msg` straight
            // into a recycled arena slot; deferrals re-queue the slot
            // index without touching the payload (see `event.rs`).
            self.fault_stats.msgs_duplicated += 1;
            let dup_arrival = self.net.delivery_time(now, rank, dst, bytes);
            let sched = dup_arrival + fate.extra_delay;
            if self.crash_dooms(rank, dst, now, sched) {
                // The retransmission copy dies on the wire: the NIC time
                // was spent, the payload never arrives.
                self.fault_stats.crash_events_dropped += 1;
            } else {
                let seq = self.queue.push(
                    sched,
                    dst,
                    EventPayload::Message {
                        src: rank,
                        msg: msg.clone(),
                    },
                );
                if let Some(obs) = &mut self.obs {
                    obs.instant(rank, now, InstantKind::MsgDuplicated, dst as u64);
                    obs.on_push(seq, EdgeKind::Message, now, sched);
                    obs.gauge_add(MetricId::MsgsInFlight, GLOBAL_RANK, now, 1);
                }
            }
        }
        if fate.extra_delay > SimTime::ZERO {
            self.fault_stats.msgs_delayed += 1;
        }
        let arrival = self.net.delivery_time(now, rank, dst, bytes);
        let sched = arrival + fate.extra_delay;
        if self.crash_dooms(rank, dst, now, sched) {
            // Crash-stop loss: either endpoint dies (or is reborn) before
            // delivery, so the message fails in flight. The sender already
            // paid the full NIC occupancy — physically the bytes left.
            self.fault_stats.crash_events_dropped += 1;
            return;
        }
        let seq = self
            .queue
            .push(sched, dst, EventPayload::Message { src: rank, msg });
        if let Some(obs) = &mut self.obs {
            obs.on_push(seq, EdgeKind::Message, now, sched);
            obs.gauge_add(MetricId::MsgsInFlight, GLOBAL_RANK, now, 1);
        }
    }

    /// Executes one (un-guarded) [`Ctx::barrier_enter`] against the global
    /// barrier map.
    fn exec_barrier_enter(&mut self, now: SimTime, id: u64) {
        let nranks = self.ranks.count();
        // Under a crash plan a barrier only waits for ranks whose crash
        // has not fired yet; without one this is exactly `nranks`.
        let required = self.required_ranks(now);
        let st = self.barriers.entry(id).or_default();
        st.entered += 1;
        assert!(
            st.entered <= nranks,
            "barrier {id} entered more times than there are ranks"
        );
        st.max_entry = st.max_entry.max(now);
        if st.entered >= required {
            let max_entry = st.max_entry;
            self.barriers.remove(&id);
            self.push_barrier_done(id, max_entry, now);
        }
    }

    /// Executes the global effects of a death mark firing at `time`:
    /// counts the crash, records the observability instant, and releases
    /// any pending barrier whose remaining entrants just died (or the
    /// survivors deadlock). The caller flips the liveness flag.
    fn exec_death(&mut self, rank: usize, time: SimTime) {
        self.fault_stats.crashes += 1;
        if let Some(obs) = &mut self.obs {
            obs.instant(rank, time, InstantKind::Crash, rank as u64);
        }
        // A pending barrier whose remaining entrants just died must
        // release now, or the survivors deadlock.
        let ids: Vec<u64> = self.barriers.keys().copied().collect();
        let required = self.required_ranks(time);
        for id in ids {
            let Some(st) = self.barriers.get(&id) else {
                continue;
            };
            if st.entered >= required {
                let max_entry = st.max_entry;
                self.barriers.remove(&id);
                self.push_barrier_done(id, max_entry, time);
            }
        }
    }
}

/// Handler context: the engine API available to a running rank.
pub struct Ctx<'a, M> {
    core: &'a mut EngineCore<M>,
    rank: RankId,
    now: SimTime,
    /// Idle gap between the previous handler's end and this handler's
    /// start, awaiting classification.
    idle_pending: SimTime,
    /// Ledger-scope override: when set, every [`Ctx::advance`] in the rest
    /// of this handler books into this category instead of the requested
    /// one (see [`Ctx::ledger_scope`]). Reset at each handler dispatch.
    scope: Option<TimeCategory>,
}

impl<M> Ctx<'_, M> {
    /// Current virtual time on this rank.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank.get()
    }

    /// Total number of ranks.
    pub fn nranks(&self) -> usize {
        self.core.ranks.count()
    }

    /// Consumes `dt` of CPU, booked under `cat`.
    ///
    /// If this rank sits in a straggler window, CPU-bound categories
    /// (compute and overhead) are inflated by the window's slowdown
    /// factor; the *excess* is booked under [`TimeCategory::Recovery`], so
    /// the base categories always report the fault-free cost.
    pub fn advance(&mut self, dt: SimTime, cat: TimeCategory) {
        let cat = self.scope.unwrap_or(cat);
        let start = self.now;
        self.now += dt;
        *cat.of_mut(&mut self.core.ledger[self.rank]) += dt;
        if let Some(obs) = &mut self.core.obs {
            obs.on_advance(self.rank.get(), start, self.now, cat);
        }
        let cpu_bound = matches!(cat, TimeCategory::Compute | TimeCategory::Overhead);
        if cpu_bound && dt > SimTime::ZERO {
            let fault = self.core.fault.as_ref();
            let factor = fault.map_or(1.0, |f| f.compute_factor(self.rank.get(), start));
            if factor > 1.0 {
                let excess = SimTime::from_secs_f64(dt.as_secs_f64() * (factor - 1.0));
                let slow_start = self.now;
                self.now += excess;
                *TimeCategory::Recovery.of_mut(&mut self.core.ledger[self.rank]) += excess;
                self.core.fault_stats.straggler_excess += excess;
                if let Some(obs) = &mut self.core.obs {
                    obs.on_advance(
                        self.rank.get(),
                        slow_start,
                        self.now,
                        TimeCategory::Recovery,
                    );
                }
            }
        }
    }

    /// Sets the ledger scope for the remainder of this handler and returns
    /// the previous scope. While a scope is active, every [`Ctx::advance`]
    /// books into the scoped category regardless of the category the call
    /// requests — the hook runtime layers use to re-book a shared code
    /// path wholesale (e.g. a *retried* request injection is recovery
    /// work, not the algorithm's own overhead). Scopes do not survive the
    /// handler: each dispatch starts unscoped.
    ///
    /// Note the scoped category decides straggler-inflation eligibility:
    /// a CPU-bound advance re-booked as [`TimeCategory::Recovery`] is not
    /// inflated further, exactly as if the caller had requested Recovery.
    pub fn ledger_scope(&mut self, cat: Option<TimeCategory>) -> Option<TimeCategory> {
        std::mem::replace(&mut self.scope, cat)
    }

    /// Books the pending idle gap (time this rank spent waiting for the
    /// event that triggered this handler) under `cat`. Call at most once
    /// per handler; later calls book zero.
    pub fn classify_idle(&mut self, cat: TimeCategory) {
        let dt = std::mem::take(&mut self.idle_pending);
        *cat.of_mut(&mut self.core.ledger[self.rank]) += dt;
    }

    /// The as-yet-unclassified idle gap for this handler.
    pub fn idle_gap(&self) -> SimTime {
        self.idle_pending
    }

    /// Sends `msg` with a `bytes`-sized payload to `dst` through the
    /// network model. Delivery time includes NIC queueing at both ends.
    ///
    /// Under a [`FaultPlan`] the message may be dropped (the sender still
    /// pays TX injection — the loss happens on the wire), duplicated (a
    /// retransmission copy arrives separately) or delayed.
    ///
    /// # Panics
    /// Panics if `dst` is not a rank of this run.
    pub fn send(&mut self, dst: usize, bytes: u64, msg: M)
    where
        M: Clone,
    {
        self.core
            .exec_send(self.rank.get(), self.now, dst, bytes, msg);
    }

    /// Sends `msg` to `dst` (through the network model, so subject to any
    /// [`FaultPlan`]) and, in the same handler step, arms `timer_msg` as a
    /// self-timer `timer_delay` from now.
    ///
    /// This is the typed send helper for guarded requests: the timer goes
    /// through the [`Ctx::after`] path, which — per the fault-injection
    /// contract — never consults the fault plan, so a retry/flush timer
    /// cannot be lost even when every wire message is dropped. The send
    /// happens first: fault decisions consume the same per-message
    /// sequence numbers as an unguarded [`Ctx::send`] would.
    pub fn send_with_timer(
        &mut self,
        dst: usize,
        bytes: u64,
        msg: M,
        timer_delay: SimTime,
        timer_msg: M,
    ) where
        M: Clone,
    {
        self.send(dst, bytes, msg);
        self.after(timer_delay, timer_msg);
    }

    /// Schedules `msg` back to this rank after `delay` (a self-timer; no
    /// network involvement).
    pub fn after(&mut self, delay: SimTime, msg: M) {
        let sched = self.now + delay;
        // The fault-injection contract keeps self-timers out of the
        // *message* fault plan, but a crash is not a message fault: a
        // timer dies with the incarnation that armed it.
        let src = self.rank.get();
        if self.core.crash_dooms(src, src, self.now, sched) {
            self.core.fault_stats.crash_events_dropped += 1;
            return;
        }
        let seq = self
            .core
            .queue
            .push(sched, src, EventPayload::Message { src, msg });
        if let Some(obs) = &mut self.core.obs {
            obs.on_push(seq, EdgeKind::Timer, self.now, sched);
        }
    }

    /// Enters barrier `id`. When all ranks have entered, every rank gets
    /// [`Program::on_barrier`] at `max(entry times) + α·⌈log₂ P⌉`.
    ///
    /// Both blocking and split-phase uses are expressed with this: a
    /// blocking rank simply does nothing until `on_barrier`; a split-phase
    /// rank keeps processing messages in between (paper §3.2).
    pub fn barrier_enter(&mut self, id: u64) {
        // A handler dispatched before the rank's crash can reach this call
        // at a virtual `now` past the crash: the rank died mid-handler and
        // never made it to the barrier, so the entry does not happen.
        if membership::crashed_by(self.core.fault.as_ref(), self.rank.get(), self.now) {
            return;
        }
        self.core.exec_barrier_enter(self.now, id);
    }

    /// Records `bytes` allocated on this rank.
    pub fn mem_alloc(&mut self, bytes: u64) {
        self.core.mem.alloc(self.rank, bytes);
        self.sample_mem();
    }

    /// Records `bytes` freed on this rank.
    pub fn mem_free(&mut self, bytes: u64) {
        self.core.mem.free(self.rank, bytes);
        self.sample_mem();
    }

    fn sample_mem(&mut self) {
        if let Some(obs) = &mut self.core.obs {
            let cur = self.core.mem.current(self.rank);
            obs.gauge_set(MetricId::MemCurrent, self.rank.get() as u32, self.now, cur);
        }
    }

    /// Current allocation on this rank.
    pub fn mem_current(&self) -> u64 {
        self.core.mem.current(self.rank)
    }

    /// Declares that this handler reads logical state `key` (for the
    /// virtual-time race detector; a no-op unless
    /// [`Engine::with_race_detection`] was set). Keys are application
    /// chosen — e.g. a read id, a tile index — and only compared for
    /// equality within one rank.
    pub fn race_read(&mut self, key: u64) {
        if let Some(rd) = &mut self.core.races {
            rd.access(key, false);
        }
    }

    /// Declares that this handler writes logical state `key` (see
    /// [`Ctx::race_read`]).
    pub fn race_write(&mut self, key: u64) {
        if let Some(rd) = &mut self.core.races {
            rd.access(key, true);
        }
    }

    /// Marks a point event on the observability timeline (a no-op unless
    /// [`Engine::with_obs`] was set). Used by runtime layers to surface
    /// recovery activity — retries, duplicate replies, give-ups — without
    /// the engine knowing their protocols.
    pub fn obs_instant(&mut self, kind: InstantKind, key: u64) {
        if let Some(obs) = &mut self.core.obs {
            obs.instant(self.rank.get(), self.now, kind, key);
        }
    }
}

/// Per-rank results of a simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct RankReport {
    /// Virtual time of this rank's last activity.
    pub finish: SimTime,
    /// Busy time per [`TimeCategory`].
    pub ledger: [SimTime; CATEGORIES],
    /// Idle time never classified by the program.
    pub unclassified_idle: SimTime,
    /// Peak memory.
    pub mem_peak: u64,
}

/// Results of a completed simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Wall-clock (virtual) end time: the last event across all ranks.
    pub end_time: SimTime,
    /// Per-rank details.
    pub ranks: Vec<RankReport>,
    /// Total events processed (a DES health metric).
    pub events: u64,
    /// Times a popped event was re-queued instead of dispatched: its rank
    /// was still busy, or frozen by an injected stall. Engine work that
    /// `events` does not show — a backlog of k requests at one busy rank
    /// is deferred k + (k−1) + … + 1 times before it drains.
    pub deferrals: u64,
    /// Injected-fault counters (all zero on a reliable machine).
    pub faults: FaultStats,
    /// Race-detector results, if detection was enabled.
    pub races: Option<RaceDetector>,
    /// Structured observability records, if [`Engine::with_obs`] was set.
    pub obs: Option<Obs>,
}

impl SimReport {
    /// Summary of one ledger category across ranks, in seconds.
    pub fn category_summary(&self, cat: TimeCategory) -> Summary {
        let secs = |r: &RankReport| r.ledger.get(cat as usize).map_or(0.0, |t| t.as_secs_f64());
        Summary::of(self.ranks.iter().map(secs))
    }

    /// Mean seconds per rank of one category.
    pub fn category_mean(&self, cat: TimeCategory) -> f64 {
        self.category_summary(cat).mean
    }

    /// Maximum peak memory across ranks.
    pub fn max_mem_peak(&self) -> u64 {
        self.ranks.iter().map(|r| r.mem_peak).max().unwrap_or(0)
    }
}

/// The simulation engine.
pub struct Engine<M> {
    core: EngineCore<M>,
}

impl<M> Engine<M> {
    /// Creates an engine for `nranks` ranks over `net` parameters.
    pub fn new(nranks: usize, net: NetParams) -> Engine<M> {
        assert!(nranks >= 1, "need at least one rank");
        let ranks = Ranks::new(nranks);
        Engine {
            core: EngineCore {
                queue: EventQueue::new(),
                net: Network::new(net, nranks),
                ranks,
                busy_until: ranks.vec(SimTime::ZERO),
                barriers: BTreeMap::new(),
                ledger: ranks.vec([SimTime::ZERO; CATEGORIES]),
                unclassified_idle: ranks.vec(SimTime::ZERO),
                mem: MemTracker::new(ranks),
                finish: ranks.vec(SimTime::ZERO),
                events_processed: 0,
                deferrals: 0,
                fault: None,
                msg_seq: 0,
                dst_counts: ranks.vec(0),
                fault_stats: FaultStats::default(),
                membership: Membership::new(ranks),
                races: None,
                obs: None,
            },
        }
    }

    /// Enables the structured observability recorder (see [`crate::obs`]):
    /// typed dispatch nodes with causal edges, per-node busy spans, point
    /// events, and virtual-time metric series. Recording never perturbs
    /// the simulation: the rest of the report is bit-identical.
    pub fn with_obs(mut self, cfg: ObsConfig) -> Engine<M> {
        self.core.obs = Some(Obs::new(cfg, self.core.ranks.count()));
        self
    }

    /// Installs a fault-injection plan. An inactive plan (no fault ever
    /// fires) leaves the timeline bit-identical to a reliable run.
    pub fn with_faults(mut self, plan: FaultPlan) -> Engine<M> {
        self.core.fault = Some(plan);
        self
    }

    /// Enables the virtual-time race detector (see
    /// [`crate::race::RaceDetector`]), keeping at most `capacity`
    /// conflict records. Detection does not perturb the timeline: the
    /// report of an instrumented run is otherwise bit-identical.
    pub fn with_race_detection(mut self, capacity: usize) -> Engine<M> {
        self.core.races = Some(RaceDetector::new(capacity));
        self
    }

    /// Sets the equal-time tie-break policy ([`TieBreak::Fifo`] is the
    /// default contract; [`TieBreak::Lifo`] is the perturbation-replay
    /// mode for determinism testing).
    pub fn with_tie_break(mut self, tb: TieBreak) -> Engine<M> {
        self.core.queue.set_tie_break(tb);
        self
    }

    /// Pre-sizes the event queue (heap and payload arena) for `cap`
    /// concurrent events, so a well-estimated driver reaches its steady
    /// state without any queue reallocation. Purely a performance hint:
    /// the queue grows past `cap` on demand and the report is identical
    /// either way.
    pub fn with_event_capacity(mut self, cap: usize) -> Engine<M> {
        self.core.queue.reserve(cap);
        self
    }

    /// Runs `programs` (one per rank) to quiescence and returns the report.
    ///
    /// # Panics
    /// Panics if `programs.len() != nranks`, if a scheduled crash names a
    /// rank outside the run, or if a barrier is left incomplete at
    /// quiescence (a deadlocked program).
    pub fn run<P: Program<M>>(mut self, programs: &mut [P]) -> SimReport {
        let ranks = self.core.ranks;
        assert_eq!(
            programs.len(),
            ranks.count(),
            "one program per rank required"
        );
        // Schedule crash/rebirth marks first, so a crash at the same
        // virtual time as a program event wins the FIFO tie-break and the
        // dead rank never dispatches it. Marks are engine-internal events
        // (the payload is a placeholder, intercepted by seq before program
        // dispatch) and exist only when the plan carries crashes, so a
        // crash-free run pushes nothing here.
        if let Some(plan) = membership::crash_plan(self.core.fault.as_ref()) {
            let crashes = plan.crashes.clone();
            assert!(
                crashes.iter().all(|c| ranks.id(c.rank).is_some()),
                "a scheduled crash names a rank outside the run's {} ranks",
                ranks.count()
            );
            self.core
                .membership
                .schedule(&mut self.core.queue, &crashes);
        }
        for r in 0..ranks.count() {
            let seq = self.core.queue.push(SimTime::ZERO, r, EventPayload::Start);
            if let Some(obs) = &mut self.core.obs {
                obs.on_push(seq, EdgeKind::Start, SimTime::ZERO, SimTime::ZERO);
            }
        }
        while let Some(ev) = self.core.queue.pop_entry() {
            step(&mut self.core, programs, ev);
        }
        assert!(
            self.core.barriers.is_empty(),
            "deadlock: {} barrier(s) never completed",
            self.core.barriers.len()
        );
        if let Some(rd) = &mut self.core.races {
            rd.finish();
        }
        let end_time = self
            .core
            .finish
            .as_slice()
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO);
        if let Some(obs) = &mut self.core.obs {
            obs.finish(end_time);
        }
        SimReport {
            end_time,
            faults: self.core.fault_stats,
            races: self.core.races.take(),
            obs: self.core.obs.take(),
            ranks: ranks
                .iter()
                .map(|r| RankReport {
                    finish: self.core.finish[r],
                    ledger: self.core.ledger[r],
                    unclassified_idle: self.core.unclassified_idle[r],
                    mem_peak: self.core.mem.peak(r),
                })
                .collect(),
            events: self.core.events_processed,
            deferrals: self.core.deferrals,
        }
    }
}

/// One iteration of the event loop: route a popped event through
/// membership, liveness, CPU-queueing and stall checks, then dispatch the
/// handler.
fn step<M, P: Program<M>>(core: &mut EngineCore<M>, programs: &mut [P], ev: QueuedEvent) {
    // Every event's rank was checked on its way in: `run` checks the
    // crash ranks and the program count, `Ctx::send` its destination, and
    // the engine's own pushes iterate the run's ranks. So the lookups
    // below cannot miss; a miss would drop the event.
    let (Some(r), Some(program)) = (core.ranks.id(ev.dst), programs.get_mut(ev.dst)) else {
        let _ = core.queue.resolve(ev);
        return;
    };
    // Crash/rebirth marks run ahead of every liveness/busy check:
    // a crash is not deferred by a busy rank.
    if let Some(mark) = core.membership.take_mark(ev.seq) {
        let _ = core.queue.resolve(ev);
        if mark.rebirth {
            // The reborn incarnation starts idle: it serves new
            // traffic but nothing survives from before the crash.
            core.membership.dead[r] = false;
            core.busy_until[r] = core.busy_until[r].max(ev.time);
        } else {
            core.membership.dead[r] = true;
            core.exec_death(mark.rank, ev.time);
        }
        return;
    }
    // Events addressed to a dead rank are discarded, not dispatched.
    if core.membership.dead[r] {
        let _ = core.queue.resolve(ev);
        core.fault_stats.crash_events_dropped += 1;
        return;
    }
    let busy = core.busy_until[r];
    if busy > ev.time {
        // A deferral that would carry the event across the rank's
        // own crash (into a later incarnation) kills it instead:
        // run-to-completion ends at the handler boundary, and the
        // next incarnation never sees its predecessor's backlog.
        if core.crash_dooms(ev.dst, ev.dst, ev.time, busy) {
            let _ = core.queue.resolve(ev);
            core.fault_stats.crash_events_dropped += 1;
            return;
        }
        // Rank still busy: defer until it frees up. Re-queuing (not
        // executing late) keeps global execution monotone in
        // virtual time, which the network model relies on. The
        // payload stays put in the arena — deferral costs one heap
        // entry, no payload churn.
        let new_seq = core.queue.requeue(ev, busy);
        core.deferrals += 1;
        if let Some(obs) = &mut core.obs {
            obs.on_requeue(ev.seq, new_seq);
        }
        // The next pops would hand out more entries that step would defer
        // (the rest of this rank's backlog, and those of ranks busy in
        // lockstep with it): move them now, a run at a time. The target
        // mirrors the checks above: a dead rank's entry is dropped, a
        // doomed one killed, and the queue moves an entry only if the
        // rank's busy_until is later than it. The rest stay put and take
        // this function's one-at-a-time branches.
        let (dead, busy_until) = (&core.membership.dead, &core.busy_until);
        let fault = core.fault.as_ref();
        let obs = &mut core.obs;
        core.deferrals += core.queue.redefer_front(
            |dst, t| {
                let busy = *busy_until.lookup(dst)?;
                let alive = dead.lookup(dst) == Some(&false)
                    && !membership::crash_dooms(fault, dst, dst, t, busy);
                alive.then_some(busy)
            },
            |old, new, len| {
                if let Some(obs) = obs {
                    for i in 0..len {
                        obs.on_requeue(old + i, new + i);
                    }
                }
            },
        );
        return;
    }
    // Transient stall: the rank is frozen when this event would
    // run. Book the freeze as recovery time (extending busy_until
    // so the gap is not double counted as idle) and retry the
    // event at the thaw.
    if let Some(f) = &core.fault {
        let at = ev.time.max(busy);
        if let Some(thaw) = f.stall_until(ev.dst, at) {
            if thaw > at {
                let frozen = thaw - at;
                *TimeCategory::Recovery.of_mut(&mut core.ledger[r]) += frozen;
                core.fault_stats.stall_events += 1;
                core.fault_stats.stall_time += frozen;
                core.busy_until[r] = thaw;
                core.finish[r] = core.finish[r].max(thaw);
                let new_seq = core.queue.requeue(ev, thaw);
                core.deferrals += 1;
                if let Some(obs) = &mut core.obs {
                    // The freeze happens outside any handler: the
                    // span lands on no node, plus a stall interval
                    // for the critical-path walker.
                    obs.on_advance(ev.dst, at, thaw, TimeCategory::Recovery);
                    obs.on_stall(ev.dst, at, thaw);
                    obs.on_requeue(ev.seq, new_seq);
                }
                return;
            }
        }
    }
    let idle = ev.time.saturating_sub(busy);
    if let Some(rd) = &mut core.races {
        rd.begin_event(ev.dst, ev.time, ev.seq);
    }
    if let Some(obs) = &mut core.obs {
        obs.begin_dispatch(ev.dst, ev.time, ev.seq, core.queue.len());
    }
    let payload = core.queue.resolve(ev);
    let mut ctx = Ctx {
        core,
        rank: r,
        now: ev.time,
        idle_pending: idle,
        scope: None,
    };
    match payload {
        EventPayload::Start => program.on_start(&mut ctx),
        EventPayload::Message { src, msg } => program.on_message(&mut ctx, src, msg),
        EventPayload::BarrierDone { id } => program.on_barrier(&mut ctx, id),
    }
    let (end, leftover_idle) = (ctx.now, ctx.idle_pending);
    core.unclassified_idle[r] += leftover_idle;
    if let Some(obs) = &mut core.obs {
        obs.end_dispatch(end);
    }
    core.busy_until[r] = end;
    core.finish[r] = core.finish[r].max(end);
    core.events_processed += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Ping,
        Pong,
        Tick,
    }

    fn small_net() -> NetParams {
        NetParams {
            ranks_per_node: 2,
            alpha_ns: 1000,
            intra_alpha_ns: 100,
            node_bw_bytes_per_sec: 1e9,
            per_msg_overhead_ns: 50,
            taper: 1.0,
        }
    }

    /// Rank 0 pings rank N-1; it pongs back.
    struct PingPong {
        got_pong_at: Option<SimTime>,
    }

    impl Program<Msg> for PingPong {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            if ctx.rank() == 0 {
                ctx.send(ctx.nranks() - 1, 100, Msg::Ping);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, src: usize, msg: Msg) {
            match msg {
                Msg::Ping => ctx.send(src, 100, Msg::Pong),
                Msg::Pong => {
                    ctx.classify_idle(TimeCategory::Comm);
                    self.got_pong_at = Some(ctx.now());
                }
                Msg::Tick => {}
            }
        }
        fn on_barrier(&mut self, _ctx: &mut Ctx<'_, Msg>, _id: u64) {}
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut progs: Vec<PingPong> = (0..4).map(|_| PingPong { got_pong_at: None }).collect();
        let report = Engine::new(4, small_net()).run(&mut progs);
        let rtt = progs[0].got_pong_at.expect("pong received");
        // Inter-node: (150 tx + 1000 alpha + 150 rx) each way = 2600.
        assert_eq!(rtt.as_ns(), 2 * (150 + 1000 + 150));
        assert_eq!(report.end_time, rtt);
        // Rank 0's wait was classified as Comm.
        assert_eq!(report.ranks[0].ledger[TimeCategory::Comm as usize], rtt);
        assert_eq!(report.events, 4 /*starts*/ + 2 /*messages*/);
    }

    /// Every rank computes a rank-dependent time then barriers.
    struct BarrierProg {
        released_at: Option<SimTime>,
    }

    impl Program<Msg> for BarrierProg {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            let dt = SimTime::from_ns(1000 * (ctx.rank() as u64 + 1));
            ctx.advance(dt, TimeCategory::Compute);
            ctx.barrier_enter(1);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _src: usize, _msg: Msg) {}
        fn on_barrier(&mut self, ctx: &mut Ctx<'_, Msg>, id: u64) {
            assert_eq!(id, 1);
            ctx.classify_idle(TimeCategory::Sync);
            self.released_at = Some(ctx.now());
        }
    }

    #[test]
    fn barrier_releases_all_at_max_entry_plus_cost() {
        let n = 4;
        let mut progs: Vec<BarrierProg> =
            (0..n).map(|_| BarrierProg { released_at: None }).collect();
        let report = Engine::new(n, small_net()).run(&mut progs);
        // Slowest rank enters at 4000; barrier cost = alpha * log2(4) = 2000.
        let expect = SimTime::from_ns(4000 + 2000);
        for p in &progs {
            assert_eq!(p.released_at, Some(expect));
        }
        // Fastest rank (entered at 1000) waited 5000, classified as Sync.
        assert_eq!(
            report.ranks[0].ledger[TimeCategory::Sync as usize].as_ns(),
            5000
        );
        assert_eq!(
            report.ranks[3].ledger[TimeCategory::Sync as usize].as_ns(),
            2000
        );
    }

    /// A busy rank defers message handling (CPU queueing).
    struct BusyProg {
        handled_at: Vec<SimTime>,
    }

    impl Program<Msg> for BusyProg {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            match ctx.rank() {
                0 => {
                    // Send two quick messages to rank 1.
                    ctx.send(1, 10, Msg::Ping);
                    ctx.send(1, 10, Msg::Ping);
                }
                1 => {
                    // Rank 1 is busy for 1 ms from the start.
                    ctx.advance(SimTime::from_ms(1), TimeCategory::Compute);
                }
                _ => {}
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _src: usize, _msg: Msg) {
            self.handled_at.push(ctx.now());
            // Each message takes 100us to service.
            ctx.advance(SimTime::from_us(100), TimeCategory::Overhead);
        }
        fn on_barrier(&mut self, _ctx: &mut Ctx<'_, Msg>, _id: u64) {}
    }

    #[test]
    fn busy_rank_defers_messages_fifo() {
        let mut progs: Vec<BusyProg> = (0..2)
            .map(|_| BusyProg {
                handled_at: Vec::new(),
            })
            .collect();
        let report = Engine::new(2, small_net()).run(&mut progs);
        let h = &progs[1].handled_at;
        assert_eq!(h.len(), 2);
        // First handled exactly when rank 1 frees up; second 100us later.
        assert_eq!(h[0], SimTime::from_ms(1));
        assert_eq!(h[1], SimTime::from_ms(1) + SimTime::from_us(100));
        assert_eq!(report.end_time, h[1] + SimTime::from_us(100));
    }

    /// Self-timers fire at the requested delay.
    struct TimerProg {
        fired: Option<SimTime>,
    }

    impl Program<Msg> for TimerProg {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.after(SimTime::from_us(7), Msg::Tick);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, src: usize, _msg: Msg) {
            assert_eq!(src, ctx.rank());
            self.fired = Some(ctx.now());
        }
        fn on_barrier(&mut self, _ctx: &mut Ctx<'_, Msg>, _id: u64) {}
    }

    #[test]
    fn timer_fires() {
        let mut progs = vec![TimerProg { fired: None }];
        let _ = Engine::new(1, small_net()).run(&mut progs);
        assert_eq!(progs[0].fired, Some(SimTime::from_us(7)));
    }

    /// The engine is single-threaded, so rank programs may share state
    /// through an `Rc` (the checkpoint store in `gnb-core` does).
    #[test]
    fn programs_need_not_be_send() {
        use std::cell::Cell;
        use std::rc::Rc;
        struct Counting(Rc<Cell<u32>>);
        impl Program<Msg> for Counting {
            fn on_start(&mut self, _ctx: &mut Ctx<'_, Msg>) {
                self.0.set(self.0.get() + 1);
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _src: usize, _msg: Msg) {}
            fn on_barrier(&mut self, _ctx: &mut Ctx<'_, Msg>, _id: u64) {}
        }
        let starts = Rc::new(Cell::new(0));
        let mut progs: Vec<Counting> = (0..3).map(|_| Counting(Rc::clone(&starts))).collect();
        let _ = Engine::new(3, small_net()).run(&mut progs);
        assert_eq!(starts.get(), 3);
    }

    /// Unclassified idle is reported, not lost.
    #[test]
    fn unclassified_idle_tracked() {
        struct LazyProg;
        impl Program<Msg> for LazyProg {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                if ctx.rank() == 0 {
                    ctx.send(1, 1000, Msg::Ping);
                }
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _src: usize, _msg: Msg) {
                // Never classifies its idle gap.
            }
            fn on_barrier(&mut self, _ctx: &mut Ctx<'_, Msg>, _id: u64) {}
        }
        let mut progs = vec![LazyProg, LazyProg];
        let report = Engine::new(2, small_net()).run(&mut progs);
        assert!(report.ranks[1].unclassified_idle > SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn incomplete_barrier_panics() {
        struct HalfBarrier;
        impl Program<Msg> for HalfBarrier {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                if ctx.rank() == 0 {
                    ctx.barrier_enter(9);
                }
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _src: usize, _msg: Msg) {}
            fn on_barrier(&mut self, _ctx: &mut Ctx<'_, Msg>, _id: u64) {}
        }
        let mut progs = vec![HalfBarrier, HalfBarrier];
        let _ = Engine::new(2, small_net()).run(&mut progs);
    }

    #[test]
    fn determinism_bit_identical() {
        fn run_once() -> SimReport {
            let mut progs: Vec<PingPong> = (0..6).map(|_| PingPong { got_pong_at: None }).collect();
            Engine::new(6, small_net()).run(&mut progs)
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn event_capacity_hint_does_not_change_report() {
        let run = |cap: Option<usize>| {
            let mut progs: Vec<PingPong> = (0..6).map(|_| PingPong { got_pong_at: None }).collect();
            let mut e = Engine::new(6, small_net());
            if let Some(c) = cap {
                e = e.with_event_capacity(c);
            }
            e.run(&mut progs)
        };
        assert_eq!(run(None), run(Some(1024)));
        assert_eq!(run(None), run(Some(1)));
    }

    #[test]
    fn obs_records_busy_spans() {
        use crate::obs::ObsConfig;
        let mut progs: Vec<BarrierProg> =
            (0..3).map(|_| BarrierProg { released_at: None }).collect();
        let report = Engine::new(3, small_net())
            .with_obs(ObsConfig::default())
            .run(&mut progs);
        let obs = report.obs.expect("obs enabled");
        // Each rank advanced compute once.
        assert_eq!(obs.spans.len(), 3);
        for s in &obs.spans {
            assert_eq!(s.category, TimeCategory::Compute as u8);
            assert_eq!((s.end - s.start).as_ns(), 1000 * (s.rank as u64 + 1));
        }
        // Unobserved runs carry no recorder.
        let mut progs2: Vec<BarrierProg> =
            (0..3).map(|_| BarrierProg { released_at: None }).collect();
        assert!(Engine::new(3, small_net()).run(&mut progs2).obs.is_none());
    }

    #[test]
    fn inactive_fault_plan_is_bit_identical_to_none() {
        use crate::fault::FaultPlan;
        let run = |faulty: bool| {
            let mut progs: Vec<PingPong> = (0..4).map(|_| PingPong { got_pong_at: None }).collect();
            let mut e = Engine::new(4, small_net());
            if faulty {
                e = e.with_faults(FaultPlan::new(99));
            }
            e.run(&mut progs)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn scheduled_drop_loses_the_message() {
        use crate::fault::FaultPlan;
        let mut progs: Vec<PingPong> = (0..4).map(|_| PingPong { got_pong_at: None }).collect();
        // The first message addressed to rank 3 is the ping: rank 3 never
        // pongs, rank 0 never hears back.
        let plan = FaultPlan::new(1).with_scheduled_drop(3, 1);
        let report = Engine::new(4, small_net())
            .with_faults(plan)
            .run(&mut progs);
        assert!(progs[0].got_pong_at.is_none());
        assert_eq!(report.faults.msgs_dropped, 1);
        assert_eq!(report.events, 4, "only the starts ran");
    }

    #[test]
    fn duplication_delivers_twice() {
        use crate::fault::FaultPlan;
        struct Counter {
            got: u64,
        }
        impl Program<Msg> for Counter {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                if ctx.rank() == 0 {
                    ctx.send(1, 100, Msg::Ping);
                }
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _src: usize, _msg: Msg) {
                self.got += 1;
            }
            fn on_barrier(&mut self, _ctx: &mut Ctx<'_, Msg>, _id: u64) {}
        }
        let mut progs = vec![Counter { got: 0 }, Counter { got: 0 }];
        let plan = FaultPlan::new(1).with_message_faults(0.0, 1.0, 0.0, 0);
        let report = Engine::new(2, small_net())
            .with_faults(plan)
            .run(&mut progs);
        assert_eq!(progs[1].got, 2, "original + duplicate");
        assert_eq!(report.faults.msgs_duplicated, 1);
    }

    #[test]
    fn delay_postpones_arrival() {
        use crate::fault::FaultPlan;
        let run = |delay_ns: u64| {
            let mut progs: Vec<PingPong> = (0..2).map(|_| PingPong { got_pong_at: None }).collect();
            let plan = if delay_ns > 0 {
                FaultPlan::new(1).with_message_faults(0.0, 0.0, 1.0, delay_ns)
            } else {
                FaultPlan::new(1)
            };
            let report = Engine::new(2, small_net())
                .with_faults(plan)
                .run(&mut progs);
            (progs[0].got_pong_at.unwrap(), report.faults.msgs_delayed)
        };
        let (clean, d0) = run(0);
        let (slow, d2) = run(5_000);
        assert_eq!(d0, 0);
        assert_eq!(d2, 2, "both legs delayed");
        assert_eq!(slow, clean + SimTime::from_ns(2 * 5_000));
    }

    #[test]
    fn straggler_excess_booked_as_recovery() {
        use crate::fault::{FaultPlan, StragglerWindow};
        let mut progs: Vec<BarrierProg> =
            (0..2).map(|_| BarrierProg { released_at: None }).collect();
        let plan = FaultPlan::new(1).with_straggler(StragglerWindow {
            rank: 1,
            start: SimTime::ZERO,
            end: SimTime::from_secs_f64(1.0),
            factor: 3.0,
        });
        let report = Engine::new(2, small_net())
            .with_faults(plan)
            .run(&mut progs);
        // Rank 1's 2000 ns of compute inflates by 2x2000 = 4000 of recovery.
        assert_eq!(
            report.ranks[1].ledger[TimeCategory::Compute as usize].as_ns(),
            2000,
            "base compute stays fault-free"
        );
        assert_eq!(
            report.ranks[1].ledger[TimeCategory::Recovery as usize].as_ns(),
            4000
        );
        assert_eq!(report.faults.straggler_excess.as_ns(), 4000);
        // Rank 0 untouched.
        assert_eq!(
            report.ranks[0].ledger[TimeCategory::Recovery as usize],
            SimTime::ZERO
        );
    }

    #[test]
    fn stall_freezes_rank_and_books_recovery() {
        use crate::fault::{FaultPlan, RankStall};
        let mut progs: Vec<PingPong> = (0..2).map(|_| PingPong { got_pong_at: None }).collect();
        // Rank 1 frozen over the ping's arrival (~100 ns, intra-node).
        let plan = FaultPlan::new(1).with_stall(RankStall {
            rank: 1,
            at: SimTime::from_ns(50),
            duration: SimTime::from_ns(10_000),
        });
        let report = Engine::new(2, small_net())
            .with_faults(plan)
            .run(&mut progs);
        let clean = {
            let mut p: Vec<PingPong> = (0..2).map(|_| PingPong { got_pong_at: None }).collect();
            Engine::new(2, small_net()).run(&mut p);
            p[0].got_pong_at.unwrap()
        };
        let faulty = progs[0].got_pong_at.unwrap();
        assert!(
            faulty > clean,
            "stall delays the pong: {faulty:?} vs {clean:?}"
        );
        assert_eq!(report.faults.stall_events, 1);
        assert!(report.ranks[1].ledger[TimeCategory::Recovery as usize] > SimTime::ZERO);
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        use crate::fault::FaultPlan;
        let run = || {
            let mut progs: Vec<PingPong> = (0..6).map(|_| PingPong { got_pong_at: None }).collect();
            let plan = FaultPlan::new(123).with_message_faults(0.3, 0.3, 0.3, 2_000);
            Engine::new(6, small_net())
                .with_faults(plan)
                .run(&mut progs)
        };
        assert_eq!(run(), run());
    }

    /// Schedules two self-timers for the same instant; each handler
    /// writes the same key, optionally consuming CPU first.
    struct SameTimeWriter {
        advance: SimTime,
    }

    impl Program<Msg> for SameTimeWriter {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.after(SimTime::from_us(10), Msg::Tick);
            ctx.after(SimTime::from_us(10), Msg::Tick);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _src: usize, _msg: Msg) {
            ctx.race_write(7);
            if self.advance > SimTime::ZERO {
                ctx.advance(self.advance, TimeCategory::Overhead);
            }
        }
        fn on_barrier(&mut self, _ctx: &mut Ctx<'_, Msg>, _id: u64) {}
    }

    #[test]
    fn race_detector_flags_same_time_write_write() {
        let mut progs = vec![SameTimeWriter {
            advance: SimTime::ZERO,
        }];
        let report = Engine::new(1, small_net())
            .with_race_detection(64)
            .run(&mut progs);
        let races = report.races.expect("detection enabled");
        assert_eq!(races.records.len(), 1, "{:?}", races.records);
        let r = races.records[0];
        assert_eq!((r.rank, r.key), (0, 7));
        assert_eq!(r.time, SimTime::from_us(10));
        assert!(r.first_write && r.second_write);
        assert_ne!(r.first_seq, r.second_seq);
    }

    #[test]
    fn race_detector_clear_when_handler_consumes_time() {
        // The first handler's advance makes the rank busy, so the second
        // equal-time event is re-queued to a later dispatch time: its
        // ordering is now causal, not tie-break-arbitrary.
        let mut progs = vec![SameTimeWriter {
            advance: SimTime::from_us(3),
        }];
        let report = Engine::new(1, small_net())
            .with_race_detection(64)
            .run(&mut progs);
        let races = report.races.expect("detection enabled");
        assert!(races.is_clean(), "{:?}", races.records);
        assert!(races.groups_checked > 0, "instrumentation ran");
    }

    #[test]
    fn race_detection_does_not_perturb_the_timeline() {
        let run = |detect: bool| {
            let mut progs: Vec<PingPong> = (0..4).map(|_| PingPong { got_pong_at: None }).collect();
            let mut e = Engine::new(4, small_net());
            if detect {
                e = e.with_race_detection(64);
            }
            let mut rep = e.run(&mut progs);
            rep.races = None; // compare everything else
            rep
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn lifo_tie_break_preserves_fault_free_report() {
        // The engine contract: fault-free results may not depend on the
        // equal-time tie-break. PingPong's report must be bit-identical
        // under the reversed ordering.
        let run = |tb: TieBreak| {
            let mut progs: Vec<PingPong> = (0..6).map(|_| PingPong { got_pong_at: None }).collect();
            Engine::new(6, small_net())
                .with_tie_break(tb)
                .run(&mut progs)
        };
        assert_eq!(run(TieBreak::Fifo), run(TieBreak::Lifo));
    }

    #[test]
    fn ledger_scope_redirects_advance() {
        struct ScopedProg;
        impl Program<Msg> for ScopedProg {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.advance(SimTime::from_us(1), TimeCategory::Overhead);
                let prev = ctx.ledger_scope(Some(TimeCategory::Recovery));
                assert_eq!(prev, None);
                // Booked as Recovery despite requesting Overhead/Compute.
                ctx.advance(SimTime::from_us(2), TimeCategory::Overhead);
                ctx.advance(SimTime::from_us(3), TimeCategory::Compute);
                let prev = ctx.ledger_scope(None);
                assert_eq!(prev, Some(TimeCategory::Recovery));
                ctx.advance(SimTime::from_us(4), TimeCategory::Compute);
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _src: usize, _msg: Msg) {}
            fn on_barrier(&mut self, _ctx: &mut Ctx<'_, Msg>, _id: u64) {}
        }
        let mut progs = vec![ScopedProg];
        let report = Engine::new(1, small_net()).run(&mut progs);
        let l = &report.ranks[0].ledger;
        assert_eq!(l[TimeCategory::Overhead as usize], SimTime::from_us(1));
        assert_eq!(l[TimeCategory::Recovery as usize], SimTime::from_us(5));
        assert_eq!(l[TimeCategory::Compute as usize], SimTime::from_us(4));
    }

    /// The fault-injection contract (see `fault`): self-timers never
    /// consult the fault plan. Even a plan that drops *every* wire message
    /// cannot drop a timer armed via `after` or `send_with_timer`.
    #[test]
    fn self_timers_survive_drop_everything_plan() {
        use crate::fault::FaultPlan;
        struct GuardedSender {
            timer_fired: bool,
            reply_got: bool,
        }
        impl Program<Msg> for GuardedSender {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                if ctx.rank() == 0 {
                    ctx.send_with_timer(1, 100, Msg::Ping, SimTime::from_us(50), Msg::Tick);
                    ctx.after(SimTime::from_us(60), Msg::Tick);
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, src: usize, msg: Msg) {
                match msg {
                    Msg::Tick => {
                        assert_eq!(src, ctx.rank());
                        self.timer_fired = true;
                    }
                    Msg::Ping => ctx.send(src, 100, Msg::Pong),
                    Msg::Pong => self.reply_got = true,
                }
            }
            fn on_barrier(&mut self, _ctx: &mut Ctx<'_, Msg>, _id: u64) {}
        }
        let mut progs: Vec<GuardedSender> = (0..2)
            .map(|_| GuardedSender {
                timer_fired: false,
                reply_got: false,
            })
            .collect();
        let plan = FaultPlan::new(7).with_message_faults(1.0, 0.0, 0.0, 0);
        let report = Engine::new(2, small_net())
            .with_faults(plan)
            .run(&mut progs);
        // The wire message was lost, but both timers fired regardless.
        assert_eq!(report.faults.msgs_dropped, 1);
        assert!(!progs[0].reply_got);
        assert!(progs[0].timer_fired);
    }

    #[test]
    fn send_with_timer_matches_send_then_after() {
        // The helper must consume fault/sequence state exactly like the
        // two separate calls, so adopting it is behavior-preserving.
        use crate::fault::FaultPlan;
        fn run(helper: bool) -> SimReport {
            struct P {
                helper: bool,
            }
            impl Program<Msg> for P {
                fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                    if ctx.rank() == 0 {
                        if self.helper {
                            ctx.send_with_timer(1, 64, Msg::Ping, SimTime::from_us(9), Msg::Tick);
                        } else {
                            ctx.send(1, 64, Msg::Ping);
                            ctx.after(SimTime::from_us(9), Msg::Tick);
                        }
                    }
                }
                fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, src: usize, msg: Msg) {
                    if msg == Msg::Ping {
                        ctx.send(src, 64, Msg::Pong);
                    }
                }
                fn on_barrier(&mut self, _ctx: &mut Ctx<'_, Msg>, _id: u64) {}
            }
            let mut progs = vec![P { helper }, P { helper }];
            let plan = FaultPlan::new(42).with_message_faults(0.4, 0.3, 0.3, 1_500);
            Engine::new(2, small_net())
                .with_faults(plan)
                .run(&mut progs)
        }
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn obs_records_causal_dag() {
        use crate::obs::{EdgeKind, MetricId, ObsConfig, GLOBAL_RANK, NO_NODE};
        let mut progs: Vec<PingPong> = (0..2).map(|_| PingPong { got_pong_at: None }).collect();
        let report = Engine::new(2, small_net())
            .with_obs(ObsConfig::default())
            .run(&mut progs);
        let obs = report.obs.expect("obs enabled");
        assert!(!obs.is_truncated());
        assert_eq!(obs.nodes.len() as u64, report.events);
        assert_eq!(obs.end_time, report.end_time);
        assert_eq!(obs.unresolved_edges, 0, "every edge resolved");
        // Two starts, then ping delivery caused by rank 0's start, then
        // pong delivery caused by the ping handler.
        let starts: Vec<_> = obs
            .nodes
            .iter()
            .filter(|n| n.kind == EdgeKind::Start)
            .collect();
        assert_eq!(starts.len(), 2);
        assert!(starts.iter().all(|n| n.cause == NO_NODE));
        let msgs: Vec<_> = obs
            .nodes
            .iter()
            .filter(|n| n.kind == EdgeKind::Message)
            .collect();
        assert_eq!(msgs.len(), 2);
        let ping = msgs[0];
        let pong = msgs[1];
        assert_eq!(
            obs.nodes[ping.cause as usize].rank, 0,
            "ping sent by rank 0"
        );
        assert_eq!(pong.cause, ping.id, "pong caused by the ping handler");
        assert_eq!(pong.push_time, ping.start, "pushed during the handler");
        assert_eq!(pong.sched_time, pong.start, "idle rank: no deferral");
        // Metrics saw both sends and a drained in-flight gauge.
        let sent = obs.get_series(MetricId::MsgsSent, GLOBAL_RANK).unwrap();
        assert_eq!(sent.last_value(), 2);
        let bytes = obs.get_series(MetricId::BytesSent, GLOBAL_RANK).unwrap();
        assert_eq!(bytes.last_value(), 200);
        let inflight = obs.get_series(MetricId::MsgsInFlight, GLOBAL_RANK).unwrap();
        assert_eq!(inflight.last_value(), 0);
    }

    #[test]
    fn obs_does_not_perturb_the_timeline() {
        use crate::fault::FaultPlan;
        use crate::obs::ObsConfig;
        let run = |observe: bool| {
            let mut progs: Vec<PingPong> = (0..6).map(|_| PingPong { got_pong_at: None }).collect();
            let mut e = Engine::new(6, small_net())
                .with_faults(FaultPlan::new(123).with_message_faults(0.3, 0.3, 0.3, 2_000));
            if observe {
                e = e.with_obs(ObsConfig::default());
            }
            let mut rep = e.run(&mut progs);
            rep.obs = None; // compare everything else
            rep
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn obs_deferred_event_keeps_original_schedule() {
        use crate::obs::{EdgeKind, ObsConfig};
        let mut progs: Vec<BusyProg> = (0..2)
            .map(|_| BusyProg {
                handled_at: Vec::new(),
            })
            .collect();
        let report = Engine::new(2, small_net())
            .with_obs(ObsConfig::default())
            .run(&mut progs);
        let obs = report.obs.unwrap();
        // Rank 1 was busy for 1 ms; both pings arrived long before that
        // but dispatched at/after the millisecond. The recorded nodes keep
        // their original (pre-deferral) schedule times.
        let msgs: Vec<_> = obs
            .nodes
            .iter()
            .filter(|n| n.kind == EdgeKind::Message)
            .collect();
        assert_eq!(msgs.len(), 2);
        for m in &msgs {
            assert!(m.sched_time < SimTime::from_ms(1), "wire arrival recorded");
            assert!(m.start >= SimTime::from_ms(1), "dispatch deferred");
        }
        assert_eq!(obs.unresolved_edges, 0);
    }

    #[test]
    fn memory_accounting_via_ctx() {
        struct MemProg;
        impl Program<Msg> for MemProg {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.mem_alloc(1000);
                assert_eq!(ctx.mem_current(), 1000);
                ctx.mem_free(400);
                assert_eq!(ctx.mem_current(), 600);
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _src: usize, _msg: Msg) {}
            fn on_barrier(&mut self, _ctx: &mut Ctx<'_, Msg>, _id: u64) {}
        }
        let mut progs = vec![MemProg];
        let report = Engine::new(1, small_net()).run(&mut progs);
        assert_eq!(report.ranks[0].mem_peak, 1000);
        assert_eq!(report.max_mem_peak(), 1000);
    }

    #[test]
    fn empty_crash_plan_is_bit_identical_to_none() {
        use crate::fault::{CrashPlan, FaultPlan};
        let run = |with_plan: bool| {
            let mut progs: Vec<PingPong> = (0..4).map(|_| PingPong { got_pong_at: None }).collect();
            let mut e = Engine::new(4, small_net());
            if with_plan {
                e = e.with_faults(FaultPlan::new(99).with_crashes(CrashPlan::none()));
            }
            e.run(&mut progs)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn crashed_rank_stops_dispatching() {
        use crate::fault::{CrashPlan, FaultPlan};
        // Rank 3 dies before the ping (sent at t=0, arriving ~1300 ns)
        // lands: the ping fails on the wire, no pong ever comes back.
        let mut progs: Vec<PingPong> = (0..4).map(|_| PingPong { got_pong_at: None }).collect();
        let plan = FaultPlan::new(1).with_crashes(CrashPlan::none().with_crash(3, 500, None));
        let report = Engine::new(4, small_net())
            .with_faults(plan)
            .run(&mut progs);
        assert!(progs[0].got_pong_at.is_none());
        assert_eq!(report.faults.crashes, 1);
        assert_eq!(report.faults.crash_events_dropped, 1, "the in-flight ping");
        assert_eq!(report.events, 4, "only the starts ran");
    }

    #[test]
    fn crash_at_time_zero_beats_on_start() {
        use crate::fault::{CrashPlan, FaultPlan};
        let mut progs: Vec<PingPong> = (0..4).map(|_| PingPong { got_pong_at: None }).collect();
        let plan = FaultPlan::new(1).with_crashes(CrashPlan::none().with_crash(0, 0, None));
        let report = Engine::new(4, small_net())
            .with_faults(plan)
            .run(&mut progs);
        // Rank 0's Start is discarded: no ping is ever sent.
        assert_eq!(report.events, 3, "three surviving starts");
        assert_eq!(report.faults.crash_events_dropped, 1, "rank 0's start");
        assert!(progs[0].got_pong_at.is_none());
    }

    #[test]
    fn crash_kills_pending_self_timer() {
        use crate::fault::{CrashPlan, FaultPlan};
        // The timer is armed at t=0 for t=7 us; the rank dies at 5 us.
        let mut progs = vec![TimerProg { fired: None }];
        let plan = FaultPlan::new(1).with_crashes(CrashPlan::none().with_crash(0, 5_000, None));
        let report = Engine::new(1, small_net())
            .with_faults(plan)
            .run(&mut progs);
        assert_eq!(progs[0].fired, None);
        assert_eq!(report.faults.crash_events_dropped, 1);
    }

    #[test]
    fn rebirth_serves_new_traffic_but_not_stale_timers() {
        use crate::fault::{CrashPlan, FaultPlan};
        // Rank 1 is dead [1 us, 3 us). Rank 0 sends one ping during the
        // window (doomed) and one after rebirth (delivered).
        struct LateSender {
            got: u64,
        }
        impl Program<Msg> for LateSender {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                if ctx.rank() == 0 {
                    ctx.after(SimTime::from_ns(1_500), Msg::Tick);
                    ctx.after(SimTime::from_ns(10_000), Msg::Tick);
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, src: usize, msg: Msg) {
                match (ctx.rank(), msg) {
                    (0, Msg::Tick) => ctx.send(1, 100, Msg::Ping),
                    (1, Msg::Ping) => {
                        assert_eq!(src, 0);
                        self.got += 1;
                    }
                    _ => {}
                }
            }
            fn on_barrier(&mut self, _ctx: &mut Ctx<'_, Msg>, _id: u64) {}
        }
        let mut progs: Vec<LateSender> = (0..2).map(|_| LateSender { got: 0 }).collect();
        let plan =
            FaultPlan::new(1).with_crashes(CrashPlan::none().with_crash(1, 1_000, Some(2_000)));
        let report = Engine::new(2, small_net())
            .with_faults(plan)
            .run(&mut progs);
        assert_eq!(progs[1].got, 1, "only the post-rebirth ping landed");
        assert_eq!(report.faults.crashes, 1);
        assert_eq!(report.faults.crash_events_dropped, 1, "the mid-window ping");
    }

    #[test]
    fn barrier_releases_without_crashed_rank() {
        use crate::fault::{CrashPlan, FaultPlan};
        let n = 4;
        // Rank 3 would enter last (at 4000 ns) but dies at 100 ns, before
        // even entering: the other three release without it.
        let mut progs: Vec<BarrierProg> =
            (0..n).map(|_| BarrierProg { released_at: None }).collect();
        let plan = FaultPlan::new(1).with_crashes(CrashPlan::none().with_crash(3, 100, None));
        let report = Engine::new(n, small_net())
            .with_faults(plan)
            .run(&mut progs);
        // Slowest survivor enters at 3000; barrier cost alpha*log2(4)=2000.
        let expect = SimTime::from_ns(3000 + 2000);
        for p in progs.iter().take(3) {
            assert_eq!(p.released_at, Some(expect));
        }
        assert_eq!(progs[3].released_at, None);
        assert_eq!(report.faults.crashes, 1);
    }

    #[test]
    fn crash_of_last_straggler_releases_waiting_barrier() {
        use crate::fault::{CrashPlan, FaultPlan};
        let n = 4;
        // Everyone has entered except rank 3 (enters at 4000); rank 3 dies
        // at 3500 while the others wait. The crash itself must release the
        // barrier or the run deadlocks.
        let mut progs: Vec<BarrierProg> =
            (0..n).map(|_| BarrierProg { released_at: None }).collect();
        let plan = FaultPlan::new(1).with_crashes(CrashPlan::none().with_crash(3, 3_500, None));
        let _ = Engine::new(n, small_net())
            .with_faults(plan)
            .run(&mut progs);
        // max_entry among survivors = 3000, release = 3000 + 2000 = 5000.
        let expect = SimTime::from_ns(3000 + 2000);
        for p in progs.iter().take(3) {
            assert_eq!(p.released_at, Some(expect));
        }
        assert_eq!(progs[3].released_at, None);
    }

    #[test]
    fn crash_runs_are_deterministic() {
        use crate::fault::{CrashPlan, FaultPlan};
        let run = || {
            let mut progs: Vec<PingPong> = (0..4).map(|_| PingPong { got_pong_at: None }).collect();
            let plan = FaultPlan::new(7)
                .with_message_faults(0.2, 0.1, 0.1, 5_000)
                .with_crashes(CrashPlan::seeded(7, 4, 2, 100, 10_000, Some(5_000)));
            Engine::new(4, small_net())
                .with_faults(plan)
                .run(&mut progs)
        };
        assert_eq!(run(), run());
    }
}
