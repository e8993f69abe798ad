//! Sharded conservative-parallel execution of the DES engine.
//!
//! The serial engine pops one `(time, seq)`-ordered event at a time. This
//! module runs the same simulation as a sequence of *windows*: at each
//! outer step the coordinator pops every event below a lookahead horizon
//! `H = W + L` (`W` = earliest pending event, `L` = the `intra_alpha_ns`
//! latency floor from [`crate::net::NetParams`]), routes them to per-rank
//! *chains* that execute handlers in parallel on worker shards, then
//! merge-replays the chains' effect logs against the engine core in exact
//! serial order. The result — report, observability trace, race records,
//! queue sequence numbers — is **byte-identical** to the serial engine.
//!
//! # Why the lookahead is sound
//!
//! Every cross-rank effect a handler can cause lands at or beyond the
//! horizon, so windows never need to exchange events mid-flight:
//!
//! * **Sends** (including self-sends) go through
//!   [`Network::delivery_time`], which adds at least `intra_alpha_ns`
//!   (intra-node) or `alpha_ns ≥ intra_alpha_ns` (inter-node, a mode
//!   precondition) to the send time, and the send time is at least `W`.
//! * **Barrier releases** happen at `max(entry times) + α·⌈log₂ P⌉ ≥ now
//!   + alpha_ns ≥ H` when completed by an entry inside the window (the
//!   mode requires `nranks ≥ 2`, so the log factor is ≥ 1).
//! * **Self-timers** ([`Ctx::after`]) may fire below the horizon — they
//!   stay on the *same* rank, so the rank's chain executes them locally,
//!   in exactly the order the serial queue would have popped them (see
//!   "provisional sequence numbers" below).
//!
//! The one event kind that can travel back in time is a *crash sweep*: a
//! death mark releasing a long-pending barrier schedules the release from
//! the barrier's old `max_entry`, potentially before `W`. Whenever a
//! death mark sits inside the lookahead, the coordinator therefore
//! degrades to a single-event window (`H = W`, one pop, no local
//! execution) — which is exactly the serial semantics, expressed through
//! the same chain/replay machinery. Rebirth marks touch only rank-local
//! state and flow through normal windows.
//!
//! # Provisional sequence numbers
//!
//! Chains run before the coordinator knows the serial sequence numbers of
//! in-window pushes. Rank-local events created during a window (sub-
//! horizon self-timers, busy-deferrals, stall retries) get *provisional*
//! keys that reproduce the serial tie-break order on both policies:
//! committed seqs are all smaller than any window-allocated seq, and a
//! rank's in-window allocations happen in its own execution order — so
//! `PROV_BASE + idx` (FIFO) / its mirror (LIFO) slot local events exactly
//! where the serial heap would. At replay, the record that *created* a
//! local event always precedes the event's own record in the same rank's
//! log, so by the time a provisional entry reaches the cross-rank merge
//! its true sequence number is known and the merge key `(time,
//! tie_break.order(seq))` is exact.
//!
//! # What runs where
//!
//! * **Chains (worker shards)**: handler code, rank-local state (busy
//!   horizon, ledger, liveness, memory gauge), pure fault predicates
//!   (straggler factor, stall schedule, crash dooming). Output: one
//!   [`Record`] per serial pop, with the handler's global effects logged
//!   as [`Action`]s.
//! * **Merge-replay (coordinator)**: everything order-sensitive — queue
//!   pushes and sequence allocation, NIC reservations, message-fate
//!   decisions (they consume global send counters), barrier map, crash
//!   sweeps, fault counters, observability, race detection. Replay calls
//!   the *same* `EngineCore` methods as the serial loop (`exec_send`,
//!   `exec_barrier_enter`, `exec_death`, …), so semantics cannot drift.
//!
//! This module is the only place in the determinism core allowed to use
//! `std::thread` / channels (enforced by `gnb-lint`'s `thread-primitives`
//! rule): worker shards communicate exclusively by value over channels,
//! and every shared effect is funneled through the deterministic replay.

use crate::engine::{Ctx, EngineCore, Program, TimeCategory, CATEGORIES};
use crate::event::{EventPayload, TieBreak};
use crate::fault::FaultPlan;
use crate::membership;
use crate::obs::{EdgeKind, InstantKind, MetricId};
use crate::time::SimTime;
use std::collections::BinaryHeap;
use std::sync::mpsc;

/// Fault counters a chain can settle locally (pure per-rank decisions).
/// Summed into the engine's [`crate::fault::FaultStats`] at copyback —
/// they are order-independent totals, so lane-local accumulation is safe.
#[derive(Debug, Default, Clone)]
pub(crate) struct LaneStats {
    pub(crate) straggler_excess: SimTime,
    pub(crate) stall_events: u64,
    pub(crate) stall_time: SimTime,
    pub(crate) crash_events_dropped: u64,
}

/// Rank-local engine state, owned by a worker shard for the whole
/// parallel run (copied out of the core at entry, copied back at exit).
/// Everything here is touched only by the owning rank's chain, never by
/// the replay — the split is what makes the chains embarrassingly
/// parallel.
#[derive(Debug, Clone)]
pub(crate) struct RankLane {
    pub(crate) busy: SimTime,
    pub(crate) finish: SimTime,
    pub(crate) dead: bool,
    pub(crate) ledger: [SimTime; CATEGORIES],
    pub(crate) unclassified_idle: SimTime,
    pub(crate) mem_cur: u64,
    pub(crate) mem_peak: u64,
    pub(crate) stats: LaneStats,
}

impl RankLane {
    fn from_core<M>(core: &EngineCore<M>, r: usize) -> RankLane {
        RankLane {
            // gnb-lint: allow(panic-path, reason = "per-rank vectors have nranks entries and r iterates 0..nranks")
            busy: core.busy_until[r],
            // gnb-lint: allow(panic-path, reason = "per-rank vectors have nranks entries and r iterates 0..nranks")
            finish: core.finish[r],
            // gnb-lint: allow(panic-path, reason = "per-rank vectors have nranks entries and r iterates 0..nranks")
            dead: core.membership.dead[r],
            // gnb-lint: allow(panic-path, reason = "per-rank vectors have nranks entries and r iterates 0..nranks")
            ledger: core.ledger[r],
            // gnb-lint: allow(panic-path, reason = "per-rank vectors have nranks entries and r iterates 0..nranks")
            unclassified_idle: core.unclassified_idle[r],
            mem_cur: core.mem.current(r),
            mem_peak: core.mem.peak(r),
            stats: LaneStats::default(),
        }
    }

    /// Mirror of [`crate::mem::MemTracker::alloc`] on the lane's copy.
    pub(crate) fn mem_alloc(&mut self, bytes: u64) {
        self.mem_cur += bytes;
        if self.mem_cur > self.mem_peak {
            self.mem_peak = self.mem_cur;
        }
    }

    /// Mirror of [`crate::mem::MemTracker::free`], including its
    /// fail-loudly contract (same message, so tests can't tell the modes
    /// apart even by panic).
    pub(crate) fn mem_free(&mut self, rank: usize, bytes: u64) {
        assert!(
            self.mem_cur >= bytes,
            "rank {rank} freeing {bytes} with only {} allocated",
            self.mem_cur
        );
        self.mem_cur -= bytes;
    }
}

/// A global effect logged by a handler running in a lane, replayed by the
/// coordinator in serial order.
#[derive(Debug)]
pub(crate) enum Action<M> {
    /// Busy-time span: replays the observability span.
    /// (Ledger booking already happened lane-side.)
    Advance {
        start: SimTime,
        end: SimTime,
        cat: TimeCategory,
    },
    /// A full [`Ctx::send`]: everything it touches is order-sensitive
    /// global state, so the payload rides along and the replay runs
    /// [`EngineCore::exec_send`] verbatim.
    Send {
        now: SimTime,
        dst: usize,
        bytes: u64,
        msg: M,
    },
    /// An (un-doomed) [`Ctx::after`]. `local_idx` set: the timer fires
    /// inside this window and was consumed by the rank's own chain — the
    /// replay only allocates its serial seq (filling the remap slot) and
    /// records the push edge. `local_idx` unset: the timer leaves the
    /// window; the payload rides along and the replay pushes it.
    After {
        now: SimTime,
        sched: SimTime,
        local_idx: Option<u32>,
        msg: Option<M>,
    },
    /// An (un-guarded) [`Ctx::barrier_enter`], replayed through
    /// [`EngineCore::exec_barrier_enter`].
    Barrier { now: SimTime, id: u64 },
    /// Memory gauge sample after a lane-side alloc/free.
    MemGauge { now: SimTime, cur: u64 },
    /// Race-detector access (only logged when detection is enabled).
    Race { key: u64, write: bool },
    /// Program-level observability instant.
    ObsInstant {
        now: SimTime,
        kind: InstantKind,
        key: u64,
    },
}

/// Identity of an event inside a window: either a sequence number the
/// queue committed before the window, or the index of an in-window
/// allocation whose serial seq the replay resolves via the remap table.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SeqRef {
    Committed(u64),
    Local(u32),
}

/// What one serial queue-pop did, as observed by the owning rank's chain.
#[derive(Debug)]
pub(crate) enum RecordKind<M> {
    /// Rebirth mark: rank-local only; replay just balances the pop.
    Rebirth,
    /// Death mark: replay counts the crash and runs the barrier sweep.
    Death,
    /// Event addressed to a dead rank, discarded.
    Discard,
    /// Busy-deferral that would cross the rank's own crash: dropped.
    DoomedDefer,
    /// Busy-deferral to `to`. Sub-horizon deferrals stay in the chain
    /// (`new_idx`); others carry the payload back to the real queue.
    Requeue {
        to: SimTime,
        new_idx: Option<u32>,
        out: Option<EventPayload<M>>,
    },
    /// Transient stall freeze: recovery span plus a retry at `thaw`.
    Stall {
        at: SimTime,
        thaw: SimTime,
        new_idx: Option<u32>,
        out: Option<EventPayload<M>>,
    },
    /// A handler dispatch: `actions` replay in program order.
    Dispatch {
        end: SimTime,
        actions: Vec<Action<M>>,
    },
}

/// One serial queue-pop equivalent in a rank's window log.
#[derive(Debug)]
pub(crate) struct Record<M> {
    pub(crate) time: SimTime,
    pub(crate) seq: SeqRef,
    pub(crate) kind: RecordKind<M>,
}

/// Provisional orders start above every seq the queue can have committed
/// before the window (the global counter is nowhere near 2^63).
const PROV_BASE: u64 = 1 << 63;

/// Tie-break order key for the `idx`-th in-window allocation of a rank.
/// Committed seqs are smaller than any window-allocated seq, and a rank's
/// allocations are ordered by `idx`, so this reproduces
/// [`TieBreak::order`] on the eventual serial seqs for both policies.
fn prov_order(tb: TieBreak, idx: u32) -> u64 {
    match tb {
        TieBreak::Fifo => PROV_BASE + idx as u64,
        TieBreak::Lifo => u64::MAX - (PROV_BASE + idx as u64),
    }
}

/// A rank-local event scheduled inside the current window.
#[derive(Debug)]
struct LocalEntry<M> {
    key: (SimTime, u64),
    idx: u32,
    payload: EventPayload<M>,
}

impl<M> PartialEq for LocalEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<M> Eq for LocalEntry<M> {}
impl<M> PartialOrd for LocalEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for LocalEntry<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, the chain wants the earliest.
        other.key.cmp(&self.key)
    }
}

/// Mini event queue for one rank's in-window events, with provisional
/// tie-break keys (see [`prov_order`]). `next_idx` doubles as the remap
/// table size: each allocation owns one slot the replay fills with the
/// true serial seq.
#[derive(Debug)]
pub(crate) struct LocalQueue<M> {
    heap: BinaryHeap<LocalEntry<M>>,
    next_idx: u32,
}

impl<M> LocalQueue<M> {
    fn new() -> LocalQueue<M> {
        LocalQueue {
            heap: BinaryHeap::new(),
            next_idx: 0,
        }
    }

    /// Allocates a provisional identity for an in-window push *without*
    /// queueing anything locally (the event leaves the window).
    fn alloc(&mut self) -> u32 {
        let idx = self.next_idx;
        self.next_idx += 1;
        idx
    }

    fn push(&mut self, tb: TieBreak, time: SimTime, payload: EventPayload<M>) -> u32 {
        let idx = self.alloc();
        self.heap.push(LocalEntry {
            key: (time, prov_order(tb, idx)),
            idx,
            payload,
        });
        idx
    }

    fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|e| e.key)
    }

    fn pop(&mut self) -> Option<LocalEntry<M>> {
        self.heap.pop()
    }
}

/// The lane-side backend behind [`Ctx`] for one handler dispatch (see
/// [`crate::engine::CtxCore`]). Everything mutable is rank-local; global
/// effects append to `actions`.
pub(crate) struct LaneCtx<'a, M> {
    pub(crate) lane: &'a mut RankLane,
    pub(crate) actions: &'a mut Vec<Action<M>>,
    pub(crate) local: &'a mut LocalQueue<M>,
    pub(crate) fault: Option<&'a FaultPlan>,
    /// Window horizon `H`: self-timers below it are consumed in-chain.
    pub(crate) horizon: SimTime,
    pub(crate) tb: TieBreak,
    pub(crate) nranks: usize,
    pub(crate) obs_on: bool,
    pub(crate) races_on: bool,
}

impl<M> LaneCtx<'_, M> {
    pub(crate) fn log_advance(&mut self, start: SimTime, end: SimTime, cat: TimeCategory) {
        // The replayed effect is the observability span; with the
        // recorder off the action would replay to nothing, so don't pay
        // for logging it.
        if self.obs_on {
            self.actions.push(Action::Advance { start, end, cat });
        }
    }

    pub(crate) fn log_send(&mut self, now: SimTime, dst: usize, bytes: u64, msg: M) {
        self.actions.push(Action::Send {
            now,
            dst,
            bytes,
            msg,
        });
    }

    pub(crate) fn log_after(&mut self, rank: usize, now: SimTime, sched: SimTime, msg: M) {
        if sched < self.horizon {
            let idx = self
                .local
                .push(self.tb, sched, EventPayload::Message { src: rank, msg });
            self.actions.push(Action::After {
                now,
                sched,
                local_idx: Some(idx),
                msg: None,
            });
        } else {
            self.actions.push(Action::After {
                now,
                sched,
                local_idx: None,
                msg: Some(msg),
            });
        }
    }

    pub(crate) fn log_barrier(&mut self, now: SimTime, id: u64) {
        self.actions.push(Action::Barrier { now, id });
    }

    pub(crate) fn log_mem_gauge(&mut self, now: SimTime, cur: u64) {
        if self.obs_on {
            self.actions.push(Action::MemGauge { now, cur });
        }
    }

    pub(crate) fn log_race(&mut self, key: u64, write: bool) {
        if self.races_on {
            self.actions.push(Action::Race { key, write });
        }
    }

    pub(crate) fn log_instant(&mut self, now: SimTime, kind: InstantKind, key: u64) {
        if self.obs_on {
            self.actions.push(Action::ObsInstant { now, kind, key });
        }
    }
}

/// An event the coordinator routed to a rank's chain for this window.
#[derive(Debug)]
pub(crate) struct Item<M> {
    time: SimTime,
    seq: u64,
    kind: ItemKind<M>,
}

#[derive(Debug)]
enum ItemKind<M> {
    Mark { rebirth: bool },
    Ev(EventPayload<M>),
}

/// Per-window unit of work for one shard: the items of each of its active
/// ranks, in serial pop order.
enum Job<M> {
    Window {
        h: SimTime,
        items: Vec<(usize, Vec<Item<M>>)>,
    },
    Finish,
}

enum Reply<M> {
    Logs(Vec<(usize, Vec<Record<M>>)>),
    Lanes { lo: usize, lanes: Vec<RankLane> },
}

/// Splits `0..nranks` into at most `threads` contiguous shards. Shard
/// boundaries align to node boundaries when there are enough nodes to go
/// around (keeping `intra_alpha_ns` traffic shard-local); with fewer
/// nodes than shards the split falls back to rank granularity — node
/// alignment is a locality heuristic, never a correctness requirement.
fn partition(nranks: usize, threads: usize, ranks_per_node: usize) -> Vec<(usize, usize)> {
    let rpn = ranks_per_node.clamp(1, nranks.max(1));
    let nodes = nranks.div_ceil(rpn);
    let (units, unit) = if nodes >= threads {
        (nodes, rpn)
    } else {
        (nranks, 1)
    };
    let shards = threads.min(units).max(1);
    let mut out = Vec::with_capacity(shards);
    for s in 0..shards {
        let lo = (s * units / shards) * unit;
        let hi = (((s + 1) * units / shards) * unit).min(nranks);
        if lo < hi {
            out.push((lo, hi));
        }
    }
    out
}

/// Executes one rank's window: its routed items merged with the local
/// mini-queue in `(time, order)` sequence, each step mirroring one
/// iteration of the serial loop (`engine::serial_step`). Returns the
/// record log the coordinator replays.
#[allow(clippy::too_many_arguments)]
fn run_chain<M: Clone, P: Program<M>>(
    prog: &mut P,
    lane: &mut RankLane,
    rank: usize,
    items: Vec<Item<M>>,
    h: SimTime,
    tb: TieBreak,
    fault: Option<&FaultPlan>,
    nranks: usize,
    flags: (bool, bool),
) -> Vec<Record<M>> {
    let (obs_on, races_on) = flags;
    let mut records: Vec<Record<M>> = Vec::with_capacity(items.len());
    let mut local: LocalQueue<M> = LocalQueue::new();
    let mut items = items.into_iter().peekable();
    loop {
        let take_local = match (items.peek(), local.peek_key()) {
            (Some(it), Some(lk)) => lk < (it.time, tb.order(it.seq)),
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (None, None) => break,
        };
        let (time, seq, kind) = if take_local {
            // gnb-lint: allow(panic-path, reason = "peek_key() just returned Some for this heap")
            let e = local.pop().expect("peeked local event");
            (e.key.0, SeqRef::Local(e.idx), ItemKind::Ev(e.payload))
        } else {
            // gnb-lint: allow(panic-path, reason = "items.peek() just returned Some for this iterator")
            let it = items.next().expect("peeked item");
            (it.time, SeqRef::Committed(it.seq), it.kind)
        };
        let payload = match kind {
            ItemKind::Mark { rebirth } => {
                if rebirth {
                    // The reborn incarnation starts idle (serial_step).
                    lane.dead = false;
                    lane.busy = lane.busy.max(time);
                    records.push(Record {
                        time,
                        seq,
                        kind: RecordKind::Rebirth,
                    });
                } else {
                    lane.dead = true;
                    records.push(Record {
                        time,
                        seq,
                        kind: RecordKind::Death,
                    });
                }
                continue;
            }
            ItemKind::Ev(p) => p,
        };
        if lane.dead {
            records.push(Record {
                time,
                seq,
                kind: RecordKind::Discard,
            });
            continue;
        }
        let busy = lane.busy;
        if busy > time {
            if membership::crash_dooms(fault, rank, rank, time, busy) {
                records.push(Record {
                    time,
                    seq,
                    kind: RecordKind::DoomedDefer,
                });
                continue;
            }
            let (new_idx, out) = if busy < h {
                (Some(local.push(tb, busy, payload)), None)
            } else {
                (None, Some(payload))
            };
            records.push(Record {
                time,
                seq,
                kind: RecordKind::Requeue {
                    to: busy,
                    new_idx,
                    out,
                },
            });
            continue;
        }
        if let Some(f) = fault {
            let at = time.max(busy);
            if let Some(thaw) = f.stall_until(rank, at) {
                if thaw > at {
                    let frozen = thaw - at;
                    // gnb-lint: allow(panic-path, reason = "ledger is a fixed CATEGORIES-sized array indexed by the TimeCategory discriminant")
                    lane.ledger[TimeCategory::Recovery as usize] += frozen;
                    lane.stats.stall_events += 1;
                    lane.stats.stall_time += frozen;
                    lane.busy = thaw;
                    lane.finish = lane.finish.max(thaw);
                    let (new_idx, out) = if thaw < h {
                        (Some(local.push(tb, thaw, payload)), None)
                    } else {
                        (None, Some(payload))
                    };
                    records.push(Record {
                        time,
                        seq,
                        kind: RecordKind::Stall {
                            at,
                            thaw,
                            new_idx,
                            out,
                        },
                    });
                    continue;
                }
            }
        }
        let idle = time.saturating_sub(busy);
        let mut actions: Vec<Action<M>> = Vec::new();
        let mut ctx = Ctx::for_lane(
            LaneCtx {
                lane: &mut *lane,
                actions: &mut actions,
                local: &mut local,
                fault,
                horizon: h,
                tb,
                nranks,
                obs_on,
                races_on,
            },
            rank,
            time,
            idle,
        );
        match payload {
            EventPayload::Start => prog.on_start(&mut ctx),
            EventPayload::Message { src, msg } => prog.on_message(&mut ctx, src, msg),
            EventPayload::BarrierDone { id } => prog.on_barrier(&mut ctx, id),
        }
        let (end, leftover_idle) = ctx.into_end();
        lane.unclassified_idle += leftover_idle;
        lane.busy = end;
        lane.finish = lane.finish.max(end);
        records.push(Record {
            time,
            seq,
            kind: RecordKind::Dispatch { end, actions },
        });
    }
    records
}

/// Resolves a window-local seq reference to its serial sequence number.
/// Local entries are guaranteed resolved before they reach the merge (the
/// creating record replays earlier in the same rank's log).
fn resolved(seq: SeqRef, remap: &[u64]) -> u64 {
    match seq {
        SeqRef::Committed(s) => s,
        SeqRef::Local(i) => {
            // gnb-lint: allow(panic-path, reason = "the creating record replays earlier in the same rank's log, filling this remap slot before the merge reads it")
            let s = remap[i as usize];
            debug_assert_ne!(s, u64::MAX, "provisional seq read before resolution");
            s
        }
    }
}

fn set_remap(remap: &mut Vec<u64>, idx: u32, seq: u64) {
    let i = idx as usize;
    if remap.len() <= i {
        remap.resize(i + 1, u64::MAX);
    }
    // gnb-lint: allow(panic-path, reason = "the vector was just resized to cover index i")
    remap[i] = seq;
}

/// Replays one action of a dispatched handler against the engine core in
/// serial order. Returns the number of real-or-virtual queue pushes.
fn replay_action<M: Clone>(
    core: &mut EngineCore<M>,
    rank: usize,
    action: Action<M>,
    remap: &mut Vec<u64>,
) -> usize {
    match action {
        Action::Advance { start, end, cat } => {
            if let Some(obs) = &mut core.obs {
                obs.on_advance(rank, start, end, cat);
            }
            0
        }
        Action::Send {
            now,
            dst,
            bytes,
            msg,
        } => core.exec_send(rank, now, dst, bytes, msg),
        Action::After {
            now,
            sched,
            local_idx,
            msg,
        } => {
            match local_idx {
                Some(idx) => {
                    // The timer was consumed inside the window by the
                    // owning chain: allocate its serial seq (keeping the
                    // global counter bit-identical) and record the push
                    // edge, but the real heap never sees it.
                    let seq = core.queue.alloc_seq();
                    set_remap(remap, idx, seq);
                    if let Some(obs) = &mut core.obs {
                        obs.on_push(seq, EdgeKind::Timer, now, sched);
                    }
                }
                None => {
                    // gnb-lint: allow(panic-path, reason = "log_after always pairs local_idx: None with Some payload; the two sides are built in the same match")
                    let msg = msg.expect("non-local after carries its payload");
                    core.exec_after_push(rank, now, sched, msg);
                }
            }
            1
        }
        Action::Barrier { now, id } => core.exec_barrier_enter(now, id),
        Action::MemGauge { now, cur } => {
            if let Some(obs) = &mut core.obs {
                obs.gauge_set(MetricId::MemCurrent, rank as u32, now, cur);
            }
            0
        }
        Action::Race { key, write } => {
            if let Some(rd) = &mut core.races {
                rd.access(key, write);
            }
            0
        }
        Action::ObsInstant { now, kind, key } => {
            if let Some(obs) = &mut core.obs {
                obs.instant(rank, now, kind, key);
            }
            0
        }
    }
}

/// One rank's record log being merged, with its remap table.
struct Stream<M> {
    rank: usize,
    records: std::vec::IntoIter<Record<M>>,
    head: Option<Record<M>>,
    remap: Vec<u64>,
}

/// Merge-replays all rank logs of one window against the engine core in
/// global `(time, tie_break.order(seq))` order — the serial pop order.
/// `virt_start` is the queue length at window start; the running
/// `virtual_len` reconstructs the serial queue length at every dispatch
/// (observability records it) and is asserted against the real queue at
/// window end.
fn replay_window<M: Clone>(
    core: &mut EngineCore<M>,
    logs: Vec<(usize, Vec<Record<M>>)>,
    virt_start: usize,
    tb: TieBreak,
) {
    let mut virtual_len = virt_start;
    let mut streams: Vec<Stream<M>> = logs
        .into_iter()
        .map(|(rank, recs)| {
            let mut records = recs.into_iter();
            let head = records.next();
            Stream {
                rank,
                records,
                head,
                remap: Vec::new(),
            }
        })
        .collect();
    loop {
        // Linear scan for the earliest head: window logs are short, and a
        // heap would have to cope with keys that resolve lazily.
        let mut best: Option<(usize, (SimTime, u64))> = None;
        for (i, st) in streams.iter().enumerate() {
            if let Some(rec) = &st.head {
                let key = (rec.time, tb.order(resolved(rec.seq, &st.remap)));
                if best.is_none_or(|(_, bk)| key < bk) {
                    best = Some((i, key));
                }
            }
        }
        let Some((i, _)) = best else { break };
        // gnb-lint: allow(panic-path, reason = "best was computed from a stream whose head is Some")
        let st = &mut streams[i];
        // gnb-lint: allow(panic-path, reason = "best was computed from a stream whose head is Some")
        let rec = st.head.take().expect("stream head checked above");
        st.head = st.records.next();
        let rank = st.rank;
        let seq = resolved(rec.seq, &st.remap);
        // Every record corresponds to exactly one serial pop.
        virtual_len -= 1;
        match rec.kind {
            RecordKind::Rebirth => {}
            RecordKind::Death => {
                virtual_len += core.exec_death(rank, rec.time);
            }
            RecordKind::Discard | RecordKind::DoomedDefer => {
                core.fault_stats.crash_events_dropped += 1;
            }
            RecordKind::Requeue { to, new_idx, out } => {
                let new_seq = match out {
                    Some(payload) => core.queue.push(to, rank, payload),
                    None => core.queue.alloc_seq(),
                };
                if let Some(idx) = new_idx {
                    // gnb-lint: allow(panic-path, reason = "set_remap resizes before writing")
                    set_remap(&mut streams[i].remap, idx, new_seq);
                }
                virtual_len += 1;
                core.deferrals += 1;
                if let Some(obs) = &mut core.obs {
                    obs.on_requeue(seq, new_seq);
                }
            }
            RecordKind::Stall {
                at,
                thaw,
                new_idx,
                out,
            } => {
                let new_seq = match out {
                    Some(payload) => core.queue.push(thaw, rank, payload),
                    None => core.queue.alloc_seq(),
                };
                if let Some(idx) = new_idx {
                    // gnb-lint: allow(panic-path, reason = "i was selected from streams by the merge scan above")
                    set_remap(&mut streams[i].remap, idx, new_seq);
                }
                virtual_len += 1;
                core.deferrals += 1;
                if let Some(obs) = &mut core.obs {
                    obs.on_advance(rank, at, thaw, TimeCategory::Recovery);
                    obs.on_stall(rank, at, thaw);
                    obs.on_requeue(seq, new_seq);
                }
            }
            RecordKind::Dispatch { end, actions } => {
                if let Some(rd) = &mut core.races {
                    rd.begin_event(rank, rec.time, seq);
                }
                if let Some(obs) = &mut core.obs {
                    obs.begin_dispatch(rank, rec.time, seq, virtual_len);
                }
                for action in actions {
                    // gnb-lint: allow(panic-path, reason = "i was selected from streams by the merge scan above")
                    virtual_len += replay_action(core, rank, action, &mut streams[i].remap);
                }
                if let Some(obs) = &mut core.obs {
                    obs.end_dispatch(end);
                }
                core.events_processed += 1;
            }
        }
    }
    debug_assert_eq!(
        virtual_len,
        core.queue.len(),
        "windowed replay lost track of the serial queue length"
    );
}

/// Copies a shard's lanes back into the engine core at end of run.
fn copyback<M>(core: &mut EngineCore<M>, lo: usize, lanes: Vec<RankLane>) {
    for (off, lane) in lanes.into_iter().enumerate() {
        let r = lo + off;
        // gnb-lint: allow(panic-path, reason = "lanes were created from ranks lo..hi of these same nranks-sized vectors")
        core.busy_until[r] = lane.busy;
        // gnb-lint: allow(panic-path, reason = "lanes were created from ranks lo..hi of these same nranks-sized vectors")
        core.finish[r] = lane.finish;
        // gnb-lint: allow(panic-path, reason = "lanes were created from ranks lo..hi of these same nranks-sized vectors")
        core.membership.dead[r] = lane.dead;
        // gnb-lint: allow(panic-path, reason = "lanes were created from ranks lo..hi of these same nranks-sized vectors")
        core.ledger[r] = lane.ledger;
        // gnb-lint: allow(panic-path, reason = "lanes were created from ranks lo..hi of these same nranks-sized vectors")
        core.unclassified_idle[r] = lane.unclassified_idle;
        core.mem.store(r, lane.mem_cur, lane.mem_peak);
        core.fault_stats.straggler_excess += lane.stats.straggler_excess;
        core.fault_stats.stall_events += lane.stats.stall_events;
        core.fault_stats.stall_time += lane.stats.stall_time;
        core.fault_stats.crash_events_dropped += lane.stats.crash_events_dropped;
    }
}

/// Runs the windowed conservative-parallel loop to quiescence. Entered
/// from [`crate::engine::Engine::run`] once the mode's preconditions hold
/// (`threads > 1`, `nranks ≥ 2`, `intra_alpha_ns > 0`, `alpha_ns ≥
/// intra_alpha_ns`); the caller owns setup (start events, crash marks)
/// and teardown (deadlock check, report assembly), which are shared with
/// the serial path.
pub(crate) fn run_windows<M, P>(core: &mut EngineCore<M>, programs: &mut [P], threads: usize)
where
    M: Clone + Send,
    P: Program<M> + Send,
{
    let nranks = core.nranks;
    let tb = core.queue.tie_break();
    let lookahead = SimTime::from_ns(core.net.params.intra_alpha_ns);
    let flags = (core.obs.is_some(), core.races.is_some());
    let bounds = partition(nranks, threads, core.net.params.ranks_per_node);
    let nshards = bounds.len();
    let mut shard_of = vec![0usize; nranks];
    for (s, &(lo, hi)) in bounds.iter().enumerate() {
        for slot in shard_of.iter_mut().take(hi).skip(lo) {
            *slot = s;
        }
    }
    // This is the approved parallel-engine module (`thread-primitives` is
    // scoped out here, and only here, by gnb-lint): worker shards
    // communicate by value over channels and every global effect is
    // merge-replayed deterministically.
    std::thread::scope(|scope| {
        let (reply_tx, reply_rx) = mpsc::channel::<Reply<M>>();
        let mut job_txs: Vec<mpsc::Sender<Job<M>>> = Vec::with_capacity(nshards);
        let mut rest = &mut *programs;
        let mut consumed = 0;
        for &(lo, hi) in &bounds {
            // Contiguous split of the program slice: shard threads own
            // their ranks' programs for the whole run.
            let (skip, tail) = rest.split_at_mut(lo - consumed);
            debug_assert!(skip.is_empty());
            let (chunk, tail) = tail.split_at_mut(hi - lo);
            rest = tail;
            consumed = hi;
            let mut lanes: Vec<RankLane> = (lo..hi).map(|r| RankLane::from_core(core, r)).collect();
            let fault = core.fault.clone();
            let (job_tx, job_rx) = mpsc::channel::<Job<M>>();
            job_txs.push(job_tx);
            let reply_tx = reply_tx.clone();
            scope.spawn(move || {
                let progs = chunk;
                while let Ok(job) = job_rx.recv() {
                    match job {
                        Job::Window { h, items } => {
                            let mut logs = Vec::with_capacity(items.len());
                            for (rank, evs) in items {
                                // gnb-lint: allow(panic-path, reason = "the coordinator routes rank r to the shard owning lo..hi, so rank - lo indexes this shard's chunk")
                                let lane = &mut lanes[rank - lo];
                                let recs = run_chain(
                                    // gnb-lint: allow(panic-path, reason = "the coordinator routes rank r to the shard owning lo..hi, so rank - lo indexes this shard's chunk")
                                    &mut progs[rank - lo],
                                    lane,
                                    rank,
                                    evs,
                                    h,
                                    tb,
                                    fault.as_ref(),
                                    nranks,
                                    flags,
                                );
                                logs.push((rank, recs));
                            }
                            if reply_tx.send(Reply::Logs(logs)).is_err() {
                                return;
                            }
                        }
                        Job::Finish => {
                            let _ = reply_tx.send(Reply::Lanes {
                                lo,
                                lanes: std::mem::take(&mut lanes),
                            });
                            return;
                        }
                    }
                }
            });
        }
        drop(reply_tx);

        // Per-window routing scratch: rank → slot in the shard's batch,
        // invalidated by a generation stamp instead of an O(nranks) clear.
        let mut slot_of: Vec<(u64, usize)> = vec![(0, 0); nranks];
        let mut generation: u64 = 0;
        while let Some(w) = core.queue.peek_time() {
            // A death mark inside the lookahead can release a barrier at a
            // time before this window (the release derives from old entry
            // times): degrade to a single-event window, which is exactly
            // the serial semantics through the same machinery.
            let single = core
                .membership
                .min_pending_death()
                .is_some_and(|d| d < w + lookahead);
            let h = if single { w } else { w + lookahead };
            let virt_start = core.queue.len();
            generation += 1;
            let mut batches: Vec<Vec<(usize, Vec<Item<M>>)>> =
                (0..nshards).map(|_| Vec::new()).collect();
            loop {
                match core.queue.peek_time() {
                    Some(t) if single || t < h => {}
                    _ => break,
                }
                // gnb-lint: allow(panic-path, reason = "peek_time() just returned Some, so the heap is non-empty")
                let ev = core.queue.pop_entry().expect("peeked event");
                let mark = core.membership.take_mark(ev.seq);
                let payload = core.queue.resolve(ev);
                let (rank, kind) = match mark {
                    Some(m) => (m.rank, ItemKind::Mark { rebirth: m.rebirth }),
                    None => (ev.dst, ItemKind::Ev(payload)),
                };
                let item = Item {
                    time: ev.time,
                    seq: ev.seq,
                    kind,
                };
                // gnb-lint: allow(panic-path, reason = "rank is an event dst or mark rank, both bounds-checked against nranks at scheduling time")
                let shard = shard_of[rank];
                // gnb-lint: allow(panic-path, reason = "slot_of has nranks entries; same bounds argument as shard_of")
                let (stamp, slot) = slot_of[rank];
                if stamp == generation {
                    // gnb-lint: allow(panic-path, reason = "a current-generation stamp means slot indexes this window's batch for the shard; shard < nshards by construction of shard_of")
                    batches[shard][slot].1.push(item);
                } else {
                    // gnb-lint: allow(panic-path, reason = "shard_of maps every rank to a shard index < nshards = batches.len()")
                    slot_of[rank] = (generation, batches[shard].len());
                    // gnb-lint: allow(panic-path, reason = "shard_of maps every rank to a shard index < nshards = batches.len()")
                    batches[shard].push((rank, vec![item]));
                }
                if single {
                    break;
                }
            }
            let mut expected = 0;
            for (s, batch) in batches.into_iter().enumerate() {
                if !batch.is_empty() {
                    // gnb-lint: allow(panic-path, reason = "one job sender per shard; s indexes the same nshards range")
                    job_txs[s]
                        .send(Job::Window { h, items: batch })
                        // gnb-lint: allow(panic-path, reason = "a worker only disconnects by panicking, which already aborts the run; surfacing the send error here would only mask the original panic")
                        .expect("worker shard hung up mid-run");
                    expected += 1;
                }
            }
            let mut logs: Vec<(usize, Vec<Record<M>>)> = Vec::new();
            for _ in 0..expected {
                // gnb-lint: allow(panic-path, reason = "a worker only disconnects by panicking, which already aborts the run")
                match reply_rx.recv().expect("worker shard hung up mid-run") {
                    Reply::Logs(l) => logs.extend(l),
                    // gnb-lint: allow(panic-path, reason = "workers reply Lanes only to a Finish job, which is sent after the window loop ends")
                    Reply::Lanes { .. } => unreachable!("lanes arrive only after Finish"),
                }
            }
            replay_window(core, logs, virt_start, tb);
        }

        for tx in &job_txs {
            let _ = tx.send(Job::Finish);
        }
        for _ in 0..nshards {
            // gnb-lint: allow(panic-path, reason = "a worker only disconnects by panicking, which already aborts the run")
            match reply_rx.recv().expect("worker shard hung up at finish") {
                Reply::Lanes { lo, lanes } => copyback(core, lo, lanes),
                // gnb-lint: allow(panic-path, reason = "every window's logs were drained before Finish was sent")
                Reply::Logs(_) => unreachable!("no window is in flight at finish"),
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prov_order_sorts_after_committed_fifo() {
        // Committed seqs sort first under FIFO, in seq order.
        let committed = TieBreak::Fifo.order(12345);
        assert!(committed < prov_order(TieBreak::Fifo, 0));
        assert!(prov_order(TieBreak::Fifo, 0) < prov_order(TieBreak::Fifo, 1));
    }

    #[test]
    fn prov_order_sorts_before_committed_lifo() {
        // Under LIFO the newest allocation pops first: provisional keys
        // sort before committed ones, and higher idx before lower.
        let committed = TieBreak::Lifo.order(12345);
        assert!(prov_order(TieBreak::Lifo, 0) < committed);
        assert!(prov_order(TieBreak::Lifo, 1) < prov_order(TieBreak::Lifo, 0));
    }

    #[test]
    fn partition_node_aligned_when_possible() {
        // 8 ranks, 2 per node = 4 nodes; 2 shards → 2 nodes each.
        assert_eq!(partition(8, 2, 2), vec![(0, 4), (4, 8)]);
        // 4 shards → 1 node each.
        assert_eq!(partition(8, 4, 2), vec![(0, 2), (2, 4), (4, 6), (6, 8)]);
    }

    #[test]
    fn partition_falls_back_to_rank_granularity() {
        // One node (64 ranks/node) but 4 requested shards: split ranks.
        assert_eq!(partition(8, 4, 64), vec![(0, 2), (2, 4), (4, 6), (6, 8)]);
    }

    #[test]
    fn partition_covers_all_ranks_exactly_once() {
        for nranks in [1, 2, 3, 7, 8, 64, 65, 130] {
            for threads in [1, 2, 3, 4, 8] {
                for rpn in [1, 2, 64] {
                    let parts = partition(nranks, threads, rpn);
                    let mut covered = 0;
                    let mut prev = 0;
                    for &(lo, hi) in &parts {
                        assert_eq!(lo, prev, "contiguous from rank 0");
                        assert!(hi > lo, "no empty shard");
                        covered += hi - lo;
                        prev = hi;
                    }
                    assert_eq!(covered, nranks, "{nranks}/{threads}/{rpn}");
                }
            }
        }
    }

    #[test]
    fn set_remap_grows_and_resolves() {
        let mut remap = Vec::new();
        set_remap(&mut remap, 3, 77);
        assert_eq!(resolved(SeqRef::Local(3), &remap), 77);
        assert_eq!(resolved(SeqRef::Committed(5), &remap), 5);
    }
}
