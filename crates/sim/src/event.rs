//! The event queue: a deterministic priority queue over `(time, sequence)`.
//!
//! # Zero-churn layout
//!
//! Payloads live in an **arena** (`slots` + free list); the queue orders
//! small `Copy` entries that reference a slot by index. This keeps the hot
//! engine loop allocation-free in the steady state:
//!
//! * a deferred event (busy/stalled rank) is re-queued as a fresh entry
//!   for the *same* slot — the payload is never moved, cloned, or
//!   re-allocated;
//! * a dispatched event returns its slot to the free list, so the next
//!   `push` reuses it instead of growing the arena;
//! * heap sift operations move 24-byte `Copy` entries, not payloads.
//!
//! The arena therefore grows to the peak number of *concurrent* pending
//! events and stays there ([`EventQueue::slot_count`]), no matter how many
//! events flow through.
//!
//! # Two levels: the main heap and per-destination lanes
//!
//! Fresh events ([`EventQueue::push`]) go into one global binary heap.
//! Deferred events ([`EventQueue::requeue`]) do not re-enter it: a busy
//! rank re-defers its *whole* backlog after every handler it runs (a
//! backlog of k requests costs k + (k−1) + … + 1 deferrals), and in the
//! asynchronous strategies that is 13–28 deferrals per dispatched event.
//! Each deferral is appended to its destination's FIFO **lane** instead.
//! A lane is ascending by `(time, order(seq))` by construction — a rank's
//! `busy_until` and the sequence counter are both monotone — so only its
//! front can be the global minimum, and a small `heads` heap holds one
//! copy of each non-empty lane's front. [`EventQueue::pop_entry`] takes
//! the smaller of the two heaps' tops; advancing a lane replaces its
//! `heads` entry in place.
//!
//! # Runs: a backlog moves in one step
//!
//! A lane stores **runs** of consecutive keys, `(time, first order, len)`,
//! not one entry per deferral: the entries a rank defers one after another
//! to one instant get consecutive sequence numbers, so they form one run.
//! A run holds its first entry's arena slot; the other slots wait in a
//! per-lane FIFO, so a one-entry run costs what a lone entry did.
//!
//! When the engine defers an event for a busy rank it also calls
//! `redefer_lane_front`, which re-defers the runs at the front of that
//! rank's lane to the same instant, each as one new run of fresh
//! consecutive sequence numbers (usually merged into the lane's back run),
//! where the one-at-a-time path would pop, step and re-queue every entry. No other key can fall inside a run, so a
//! competitor precedes or follows a whole run, and the pass stops at the
//! first run that
//!
//! * is at or after the rank's `busy_until` (it would be dispatched);
//! * a competitor precedes: the main heap's top or another lane's front;
//! * the engine's crash check would kill (it takes the one-at-a-time
//!   path).
//!
//! Up to that point the next pops would have handed out exactly those
//! entries, and the engine would have deferred each one, so sequence
//! numbers, pop order and the deferral count are unchanged.
//!
//! An entry that would break its lane's order ([`TieBreak::Lifo`] at an
//! equal time, or a caller that re-queues to an earlier time) goes to the
//! main heap, which is correct for any entry. Either way `requeue` assigns
//! the next sequence number, so pop order *and* sequence numbers are those
//! of a single heap. Under `Lifo` consecutive sequence numbers sort
//! descending, so runs stay one entry long and the pass moves nothing.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// What an event delivers to a rank. Generic over the application message
/// type `M` (each simulation defines its own enum).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventPayload<M> {
    /// Program start.
    Start,
    /// A message from `src` (also used for self-timers, with `src == dst`).
    Message {
        /// Sending rank.
        src: usize,
        /// Application payload.
        msg: M,
    },
    /// A barrier this rank entered has completed.
    BarrierDone {
        /// Barrier identifier.
        id: u64,
    },
}

/// A scheduled event targeting one rank, with its payload resolved out of
/// the arena (the by-value interface of [`EventQueue::pop`]).
#[derive(Debug, Clone)]
pub struct Event<M> {
    /// Delivery time (the rank may start handling later if busy).
    pub time: SimTime,
    /// Global insertion sequence; the deterministic tie-break.
    pub seq: u64,
    /// Destination rank.
    pub dst: usize,
    /// Payload.
    pub payload: EventPayload<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest event.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Tie-break policy among events sharing the same virtual time.
///
/// [`TieBreak::Fifo`] (insertion order) is the engine's documented
/// contract. [`TieBreak::Lifo`] reverses the order of equal-time events —
/// it exists purely as a perturbation mode for determinism testing: any
/// observable that changes between Fifo and Lifo runs depends on the
/// arbitrary tie-break, which is exactly what the race detector hunts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TieBreak {
    /// Earliest-inserted first (the deterministic default).
    #[default]
    Fifo,
    /// Latest-inserted first (perturbation replay mode).
    Lifo,
}

impl TieBreak {
    /// The heap ordering key for a sequence number under this policy:
    /// events sharing a virtual time pop in ascending `order(seq)`. This is
    /// the single definition of the tie-break. It is its own inverse
    /// (`order(order(seq)) == seq`), which is how the queue recovers a
    /// sequence number from a stored key.
    pub fn order(self, seq: u64) -> u64 {
        match self {
            TieBreak::Fifo => seq,
            TieBreak::Lifo => u64::MAX - seq,
        }
    }
}

/// Queue entry, shared by the main heap, the lanes and `heads`:
/// `key = (time, order(seq))` bakes in the tie-break policy chosen at push
/// time so the ordering stays a plain lexicographic compare, and the
/// sequence number is recovered from it ([`TieBreak::order`] is an
/// involution). 24 bytes, `Copy` — the payload stays in the arena,
/// referenced by `slot`.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    key: (SimTime, u64),
    dst: u32,
    slot: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest event.
        other.key.cmp(&self.key)
    }
}

/// A popped event whose payload still lives in the arena. `Copy`, so the
/// engine can inspect `time`/`dst`, then either [`EventQueue::requeue`] it
/// (busy rank — payload untouched) or [`EventQueue::resolve`] it to take
/// the payload and recycle the slot.
#[derive(Debug, Clone, Copy)]
pub struct QueuedEvent {
    /// Delivery time (the rank may start handling later if busy).
    pub time: SimTime,
    /// Global insertion sequence; the deterministic tie-break.
    pub seq: u64,
    /// Destination rank.
    pub dst: usize,
    slot: u32,
}

/// One run of a lane: the keys `(time, first)`, `(time, first + 1)`, …,
/// `(time, first + len − 1)`. Keys in a run are consecutive integers, so
/// no other pending key can fall inside one. The run holds its first
/// entry's arena slot, in what would otherwise be padding; the slots of
/// the other `len − 1` entries are the next ones in the lane's `rest`
/// FIFO. A one-entry run, the common case at a backlog's peak, therefore
/// costs 24 bytes, as a lone entry did.
#[derive(Debug, Clone, Copy)]
struct Run {
    time: SimTime,
    first: u64,
    len: u32,
    slot: u32,
}

/// One destination's deferred entries, ascending by key: runs of
/// consecutive keys, and the FIFO of the slots the runs do not hold.
#[derive(Debug, Default)]
struct Lane {
    runs: VecDeque<Run>,
    rest: VecDeque<u32>,
}

impl Lane {
    /// The front entry (the lane's smallest key).
    fn front(&self, dst: u32) -> Option<HeapEntry> {
        self.runs.front().map(|run| HeapEntry {
            key: (run.time, run.first),
            dst,
            slot: run.slot,
        })
    }

    /// The largest key in the lane.
    fn back_key(&self) -> Option<(SimTime, u64)> {
        self.runs
            .back()
            .map(|r| (r.time, r.first + u64::from(r.len - 1)))
    }

    /// Appends `run` (the caller keeps lane order, and afterwards moves
    /// the run's other `len − 1` slots to the back of `rest`), extending
    /// the back run when the keys continue it.
    fn push_run(&mut self, run: Run) {
        match self.runs.back_mut() {
            Some(back)
                if back.time == run.time && run.first - back.first == u64::from(back.len) =>
            {
                back.len += run.len;
                self.rest.push_back(run.slot);
            }
            _ => self.runs.push_back(run),
        }
    }

    /// Drops the front entry.
    fn pop_front(&mut self) {
        let Some(run) = self.runs.front_mut() else {
            return;
        };
        if run.len > 1 {
            if let Some(slot) = self.rest.pop_front() {
                run.first += 1;
                run.len -= 1;
                run.slot = slot;
                return;
            }
        }
        self.runs.pop_front();
    }
}

/// Deterministic event queue.
#[derive(Debug)]
pub struct EventQueue<M> {
    /// Fresh events, and any re-queued entry that would break its lane's
    /// order.
    heap: BinaryHeap<HeapEntry>,
    /// Deferred entries by destination, each lane ascending by key.
    lanes: Vec<Lane>,
    /// A copy of the front entry of every non-empty lane.
    heads: BinaryHeap<HeapEntry>,
    /// Entries held in `lanes`.
    in_lanes: usize,
    /// Payload arena; `None` slots are listed in `free`.
    slots: Vec<Option<EventPayload<M>>>,
    free: Vec<u32>,
    next_seq: u64,
    tie_break: TieBreak,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lanes: Vec::new(),
            heads: BinaryHeap::new(),
            in_lanes: 0,
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            tie_break: TieBreak::Fifo,
        }
    }
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty queue with room for `cap` concurrent events before
    /// any allocation.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            ..Self::default()
        }
    }

    /// Reserves room for at least `cap` concurrent events.
    pub fn reserve(&mut self, cap: usize) {
        let len = self.heap.len();
        self.heap.reserve(cap.saturating_sub(len));
        self.slots.reserve(cap.saturating_sub(self.slots.len()));
        self.free.reserve(cap.saturating_sub(self.free.len()));
    }

    /// Sets the equal-time ordering policy (before any events are queued).
    pub fn set_tie_break(&mut self, tb: TieBreak) {
        assert!(
            self.is_empty(),
            "tie-break policy must be set before events are queued"
        );
        self.tie_break = tb;
    }

    /// The active equal-time ordering policy.
    pub fn tie_break(&self) -> TieBreak {
        self.tie_break
    }

    /// Schedules `payload` for `dst` at `time`. Returns the assigned
    /// sequence number (the event's identity for observability edges).
    pub fn push(&mut self, time: SimTime, dst: usize, payload: EventPayload<M>) -> u64 {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(payload);
                s
            }
            None => {
                assert!(self.slots.len() < u32::MAX as usize, "event arena full");
                self.slots.push(Some(payload));
                (self.slots.len() - 1) as u32
            }
        };
        let (seq, entry) = self.new_entry(time, dst, slot);
        self.heap.push(entry);
        seq
    }

    /// Assigns the next sequence number to an already-filled slot and
    /// builds its entry (the shared head of `push` and `requeue`).
    fn new_entry(&mut self, time: SimTime, dst: usize, slot: u32) -> (u64, HeapEntry) {
        debug_assert!(dst < u32::MAX as usize, "rank id out of range");
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = HeapEntry {
            key: (time, self.tie_break.order(seq)),
            dst: dst as u32,
            slot,
        };
        (seq, entry)
    }

    /// `true` when the earliest pending entry is a lane front (in `heads`)
    /// rather than the top of the main heap. Keys are unique, so there is
    /// no tie to break.
    fn lane_is_next(&self) -> bool {
        match (self.heap.peek(), self.heads.peek()) {
            (Some(h), Some(l)) => l.key < h.key,
            (None, Some(_)) => true,
            (_, None) => false,
        }
    }

    /// Virtual time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let next = if self.lane_is_next() {
            self.heads.peek()
        } else {
            self.heap.peek()
        };
        next.map(|e| e.key.0)
    }

    /// Pops the earliest event as an arena handle. The payload stays in
    /// its slot until [`EventQueue::resolve`] (or returns to the queue via
    /// [`EventQueue::requeue`]).
    pub fn pop_entry(&mut self) -> Option<QueuedEvent> {
        let e = if self.lane_is_next() {
            let mut head = self.heads.peek_mut()?;
            let e = *head;
            // Drop the lane's front (it is `e`) and promote the entry
            // behind it: overwriting the top of `heads` sifts once, where
            // a pop and a push would sift twice.
            let next = self.lanes.get_mut(e.dst as usize).and_then(|lane| {
                lane.pop_front();
                lane.front(e.dst)
            });
            match next {
                Some(n) => *head = n,
                None => {
                    PeekMut::pop(head);
                }
            }
            self.in_lanes -= 1;
            e
        } else {
            self.heap.pop()?
        };
        Some(QueuedEvent {
            time: e.key.0,
            seq: self.tie_break.order(e.key.1),
            dst: e.dst as usize,
            slot: e.slot,
        })
    }

    /// Re-schedules a popped event for `time` without touching its
    /// payload. The event gets a fresh sequence number, exactly as if its
    /// payload had been re-pushed — deferred events sort behind events
    /// already queued for the same instant (the engine's documented
    /// busy-rank semantics) — but the payload is neither moved nor cloned,
    /// and the entry joins its destination's lane instead of the main heap
    /// (see the module docs). Returns the fresh sequence number.
    pub fn requeue(&mut self, ev: QueuedEvent, time: SimTime) -> u64 {
        debug_assert!(
            // gnb-lint: allow(panic-path, reason = "a popped entry's slot index was minted by push into the same slots vector and slots never shrinks")
            self.slots[ev.slot as usize].is_some(),
            "requeueing a resolved event"
        );
        let (seq, entry) = self.new_entry(time, ev.dst, ev.slot);
        if self.lanes.len() <= ev.dst {
            self.lanes.resize_with(ev.dst + 1, Lane::default);
        }
        match self.lanes.get_mut(ev.dst) {
            Some(lane) if lane.back_key().is_none_or(|back| back < entry.key) => {
                if lane.runs.is_empty() {
                    self.heads.push(entry);
                }
                lane.push_run(Run {
                    time,
                    first: entry.key.1,
                    len: 1,
                    slot: entry.slot,
                });
                self.in_lanes += 1;
            }
            // Out of lane order: the main heap takes any entry.
            _ => self.heap.push(entry),
        }
        seq
    }

    /// Re-defers, as whole runs, the front of `dst`'s lane to `time`:
    /// exactly what popping each of those entries and passing it to
    /// [`EventQueue::requeue`] at `time` would do, sequence numbers
    /// included, for as long as that is what the next pops would hand out.
    /// The pass stops at the first run that
    ///
    /// * is at or after `time` (the rank is free by then);
    /// * is preceded by a competitor: the top of the main heap or another
    ///   lane's front;
    /// * `stop(run_time)` rejects (the engine's crash check; those entries
    ///   take the one-at-a-time path).
    ///
    /// `moved(old_first_seq, new_first_seq, len)` reports each moved run,
    /// whose entries keep their order. Returns the number of entries
    /// moved. Under [`TieBreak::Lifo`] consecutive sequence numbers sort
    /// descending, so a run never continues a lane and nothing moves.
    pub(crate) fn redefer_lane_front(
        &mut self,
        dst: usize,
        time: SimTime,
        mut stop: impl FnMut(SimTime) -> bool,
        mut moved: impl FnMut(u64, u64, u64),
    ) -> u64 {
        if self.tie_break == TieBreak::Lifo {
            return 0;
        }
        let Some(lane) = self.lanes.get_mut(dst) else {
            return 0;
        };
        // A moved run goes to the back of the lane, which must stay
        // ascending. (In the engine the back is the entry just deferred
        // to `time`.)
        if lane.back_key().is_some_and(|(back, _)| back > time) {
            return 0;
        }
        let mut count = 0;
        // The lane's entry leaves `heads` while the pass runs, so that
        // `heads.peek()` is the best other lane; it goes back at the end.
        let mut detached = false;
        while let Some(&run) = lane.runs.front() {
            let key = (run.time, run.first);
            let precedes = |top: Option<&HeapEntry>| top.is_some_and(|t| t.key < key);
            if run.time >= time || precedes(self.heap.peek()) || stop(run.time) {
                break;
            }
            if !detached {
                match self.heads.peek_mut() {
                    Some(head) if head.dst as usize == dst => {
                        PeekMut::pop(head);
                        detached = true;
                    }
                    // Another lane's front comes first.
                    _ => break,
                }
            } else if precedes(self.heads.peek()) {
                break;
            }
            // FIFO: the fresh keys are consecutive and later than every
            // pending key, so the run goes to the back of its own lane.
            let (first_seq, len) = (self.next_seq, u64::from(run.len));
            self.next_seq += len;
            lane.runs.pop_front();
            lane.push_run(Run {
                time,
                first: first_seq,
                ..run
            });
            lane.rest.rotate_left(run.len as usize - 1);
            moved(run.first, first_seq, len);
            count += len;
        }
        if detached {
            if let Some(front) = lane.front(dst as u32) {
                self.heads.push(front);
            }
        }
        count
    }

    /// Takes a popped event's payload and recycles its slot.
    pub fn resolve(&mut self, ev: QueuedEvent) -> EventPayload<M> {
        // gnb-lint: allow(panic-path, reason = "a popped entry's slot index was minted by push into the same slots vector and slots never shrinks")
        let p = self.slots[ev.slot as usize]
            .take()
            // gnb-lint: allow(panic-path, reason = "the queue hands each popped entry out exactly once; resolving twice is queue corruption and must abort deterministically")
            .expect("resolving an event twice");
        self.free.push(ev.slot);
        p
    }

    /// Pops the earliest event with its payload (the by-value interface;
    /// equivalent to [`EventQueue::pop_entry`] + [`EventQueue::resolve`]).
    pub fn pop(&mut self) -> Option<Event<M>> {
        let qe = self.pop_entry()?;
        let payload = self.resolve(qe);
        Some(Event {
            time: qe.time,
            seq: qe.seq,
            dst: qe.dst,
            payload,
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.in_lanes
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.heads.is_empty()
    }

    /// Size of the payload arena: the peak number of concurrent pending
    /// events seen so far (slots are recycled, never dropped).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(SimTime::from_ns(30), 0, EventPayload::Start);
        q.push(SimTime::from_ns(10), 1, EventPayload::Start);
        q.push(SimTime::from_ns(20), 2, EventPayload::Start);
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|e| e.dst)).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let t = SimTime::from_ns(5);
        for dst in 0..10 {
            q.push(t, dst, EventPayload::Start);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|e| e.dst)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn lifo_reverses_equal_time_order_only() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.set_tie_break(TieBreak::Lifo);
        let t = SimTime::from_ns(5);
        for dst in 0..4 {
            q.push(t, dst, EventPayload::Start);
        }
        // A strictly earlier event still comes first regardless of policy.
        q.push(SimTime::from_ns(1), 9, EventPayload::Start);
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|e| e.dst)).collect();
        assert_eq!(order, vec![9, 3, 2, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "before events are queued")]
    fn tie_break_locked_once_queued() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(SimTime::ZERO, 0, EventPayload::Start);
        q.set_tie_break(TieBreak::Lifo);
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, 0, EventPayload::Start);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn payload_carried() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.push(
            SimTime::ZERO,
            3,
            EventPayload::Message {
                src: 1,
                msg: "hello",
            },
        );
        let e = q.pop().unwrap();
        assert_eq!(e.dst, 3);
        match e.payload {
            EventPayload::Message { src, msg } => {
                assert_eq!(src, 1);
                assert_eq!(msg, "hello");
            }
            _ => panic!("wrong payload"),
        }
    }

    #[test]
    fn requeue_defers_with_fresh_seq_and_same_payload() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.push(
            SimTime::from_ns(10),
            0,
            EventPayload::Message {
                src: 0,
                msg: "deferred",
            },
        );
        q.push(
            SimTime::from_ns(20),
            1,
            EventPayload::Message {
                src: 0,
                msg: "other",
            },
        );
        let e = q.pop_entry().unwrap();
        assert_eq!((e.time.as_ns(), e.dst), (10, 0));
        let old_seq = e.seq;
        q.requeue(e, SimTime::from_ns(30));
        // The other event now comes first; the deferred one follows with a
        // fresh (larger) sequence number and its payload intact.
        let mid = q.pop().unwrap();
        assert_eq!(mid.dst, 1);
        let back = q.pop().unwrap();
        assert_eq!(back.time.as_ns(), 30);
        assert!(back.seq > old_seq, "requeue assigns a fresh seq");
        assert_eq!(
            back.payload,
            EventPayload::Message {
                src: 0,
                msg: "deferred"
            }
        );
        assert!(q.is_empty());
    }

    #[test]
    fn requeues_fill_a_lane_not_the_main_heap() {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..1_000u64 {
            q.push(
                SimTime::from_ns(i),
                7,
                EventPayload::Message { src: 0, msg: i },
            );
        }
        q.push(SimTime::from_ns(5_000), 3, EventPayload::Start);
        // A busy rank 7: everything addressed to it is deferred, in pop
        // order, to the instant it frees up.
        for _ in 0..1_000 {
            let e = q.pop_entry().unwrap();
            q.requeue(e, SimTime::from_ns(2_000));
        }
        assert_eq!(q.heap.len(), 1, "only the undeferred event is in the heap");
        assert_eq!(q.heads.len(), 1, "one lane, one head");
        assert_eq!(q.len(), 1_001, "len counts the lane");
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(2_000)));
        // A second round of deferrals (the rank served one request and is
        // busy again) never touches the main heap either.
        let first = q.pop().unwrap();
        assert_eq!((first.dst, first.seq), (7, 1_001));
        for _ in 0..999 {
            let e = q.pop_entry().unwrap();
            q.requeue(e, SimTime::from_ns(3_000));
        }
        assert_eq!((q.heap.len(), q.heads.len(), q.len()), (1, 1, 1_000));
        // Lane order is deferral order; the heap's event comes last.
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.seq)).collect();
        let want: Vec<u64> = (2_001..3_000).chain([1_000]).collect();
        assert_eq!(seqs, want);
        assert!(q.is_empty());
    }

    #[test]
    fn out_of_order_requeue_falls_back_to_the_heap() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for _ in 0..3 {
            q.push(SimTime::ZERO, 0, EventPayload::Start);
        }
        let (a, b, c) = (
            q.pop_entry().unwrap(),
            q.pop_entry().unwrap(),
            q.pop_entry().unwrap(),
        );
        q.requeue(a, SimTime::from_ns(20)); // seq 3, opens the lane
        q.requeue(b, SimTime::from_ns(10)); // seq 4, earlier than the lane's back
        q.requeue(c, SimTime::from_ns(20)); // seq 5, in order again
        assert_eq!((q.heap.len(), q.len()), (1, 3));
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop().map(|e| (e.time.as_ns(), e.seq))).collect();
        assert_eq!(order, vec![(10, 4), (20, 3), (20, 5)]);
    }

    #[test]
    fn entries_are_24_bytes_and_order_is_its_own_inverse() {
        assert_eq!(std::mem::size_of::<HeapEntry>(), 24);
        for tb in [TieBreak::Fifo, TieBreak::Lifo] {
            for seq in [0, 1, 12_345, u64::MAX - 1, u64::MAX] {
                assert_eq!(tb.order(tb.order(seq)), seq);
            }
        }
    }

    #[test]
    fn arena_recycles_slots_in_steady_state() {
        let mut q: EventQueue<u64> = EventQueue::with_capacity(4);
        for i in 0..10_000u64 {
            q.push(
                SimTime::from_ns(i),
                0,
                EventPayload::Message { src: 0, msg: i },
            );
            q.push(
                SimTime::from_ns(i),
                1,
                EventPayload::Message { src: 0, msg: i },
            );
            let a = q.pop_entry().unwrap();
            let _ = q.resolve(a);
            let b = q.pop_entry().unwrap();
            let _ = q.resolve(b);
        }
        // 20k events flowed through; the arena never outgrew the peak of
        // two concurrent events.
        assert!(q.slot_count() <= 2, "arena grew to {}", q.slot_count());
        assert!(q.is_empty());
    }

    #[test]
    fn push_and_requeue_return_assigned_seq() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let s0 = q.push(SimTime::ZERO, 0, EventPayload::Start);
        let s1 = q.push(SimTime::ZERO, 1, EventPayload::Start);
        assert_eq!((s0, s1), (0, 1));
        let e = q.pop_entry().unwrap();
        assert_eq!(e.seq, s0);
        let s2 = q.requeue(e, SimTime::from_ns(5));
        assert_eq!(s2, 2, "requeue assigns (and reports) a fresh seq");
        let back = q.pop().unwrap();
        assert_eq!(back.seq, s1);
        assert_eq!(q.pop().unwrap().seq, s2);
    }

    #[test]
    fn a_busy_ranks_backlog_is_redeferred_as_one_run() {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..1_000u64 {
            q.push(
                SimTime::from_ns(i),
                7,
                EventPayload::Message { src: 0, msg: i },
            );
        }
        q.push(SimTime::from_ns(5_000), 3, EventPayload::Start);
        for _ in 0..1_000 {
            let e = q.pop_entry().unwrap();
            q.requeue(e, SimTime::from_ns(2_000));
        }
        assert_eq!(q.lanes[7].runs.len(), 1, "1000 deferrals, one run");
        // The rank served one request and is busy until 3000: the engine
        // defers the next entry, then moves the other 998 in one pass.
        let served = q.pop().unwrap();
        assert_eq!(served.seq, 1_000 + 1);
        let next = q.pop_entry().unwrap();
        assert_eq!(q.requeue(next, SimTime::from_ns(3_000)), 2_001);
        let mut runs = Vec::new();
        let moved = q.redefer_lane_front(
            7,
            SimTime::from_ns(3_000),
            |_| false,
            |old, new, len| runs.push((old, new, len)),
        );
        assert_eq!((moved, runs), (998, vec![(1_003, 2_002, 998)]));
        assert_eq!(q.lanes[7].runs.len(), 1, "merged with the requeued entry");
        assert_eq!((q.heap.len(), q.heads.len(), q.len()), (1, 1, 1_000));
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.seq)).collect();
        let want: Vec<u64> = (2_001..3_000).chain([1_000]).collect();
        assert_eq!(seqs, want);
    }

    #[test]
    fn redeferral_stops_where_a_competitor_or_the_stop_check_comes_first() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let t = SimTime::from_ns;
        for dst in [0, 1, 0] {
            q.push(t(0), dst, EventPayload::Start);
        }
        // Lane 0: seq 3 at 10, seq 5 at 20; lane 1: seq 4 at 10.
        for time in [10, 10, 20] {
            let e = q.pop_entry().unwrap();
            q.requeue(e, t(time));
        }
        // Lane 1's front (10, 4) does not precede lane 0's front (10, 3),
        // but it does precede lane 0's second run (20, 5).
        let mut seen = Vec::new();
        assert_eq!(
            q.redefer_lane_front(0, t(30), |_| false, |o, n, l| seen.push((o, n, l))),
            1
        );
        assert_eq!(seen, [(3, 6, 1)]);
        // Now lane 1 comes first: nothing moves.
        assert_eq!(q.redefer_lane_front(0, t(30), |_| false, |_, _, _| {}), 0);
        let e = q.pop().unwrap();
        assert_eq!((e.dst, e.seq), (1, 4));
        // The stop check holds back (20, 5); a pass to a time at or
        // before a run's time moves nothing either.
        assert_eq!(
            q.redefer_lane_front(0, t(30), |time| time == t(20), |_, _, _| {}),
            0
        );
        assert_eq!(q.redefer_lane_front(0, t(20), |_| false, |_, _, _| {}), 0);
        q.push(t(15), 2, EventPayload::Start);
        assert_eq!(
            q.redefer_lane_front(0, t(30), |_| false, |_, _, _| {}),
            0,
            "heap top first"
        );
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop().map(|e| (e.time.as_ns(), e.seq))).collect();
        assert_eq!(order, [(15, 7), (20, 5), (30, 6)]);
    }

    /// `(time, order(seq), seq, dst, payload)`.
    type ModelEntry = (SimTime, u64, u64, usize, u64);

    /// The reference model of [`EventQueue`]: one binary heap ordered by
    /// `(time, order(seq))`, where a requeue is a fresh entry — the queue's
    /// whole contract, and its implementation before deferred events moved
    /// to per-destination lanes.
    #[derive(Default)]
    struct HeapModel {
        heap: BinaryHeap<std::cmp::Reverse<ModelEntry>>,
        next_seq: u64,
        tie_break: TieBreak,
    }

    impl HeapModel {
        fn push(&mut self, time: SimTime, dst: usize, payload: u64) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            let order = self.tie_break.order(seq);
            self.heap
                .push(std::cmp::Reverse((time, order, seq, dst, payload)));
            seq
        }

        fn pop(&mut self) -> Option<(SimTime, u64, usize, u64)> {
            let std::cmp::Reverse((time, _, seq, dst, payload)) = self.heap.pop()?;
            Some((time, seq, dst, payload))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|std::cmp::Reverse(e)| e.0)
        }
    }

    /// Runs the run re-deferral on `q`, then checks it against `model`
    /// one entry at a time: each moved entry must be the model's next pop,
    /// for `dst`, before `to` and not at `held_back` (the stop check), and
    /// its fresh sequence number the model's requeue.
    fn redefer_both(
        q: &mut EventQueue<u64>,
        model: &mut HeapModel,
        dst: usize,
        to: SimTime,
        held_back: SimTime,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        use proptest::{prop_assert, prop_assert_eq};
        let mut runs = Vec::new();
        let moved = q.redefer_lane_front(
            dst,
            to,
            |run_time| run_time == held_back,
            |old, new, len| runs.push((old, new, len)),
        );
        prop_assert_eq!(runs.iter().map(|r| r.2).sum::<u64>(), moved);
        for (old, new, len) in runs {
            for i in 0..len {
                let w = model.pop().expect("a moved entry is pending in the model");
                prop_assert_eq!((w.1, w.2), (old + i, dst));
                prop_assert!(w.0 < to && w.0 != held_back);
                prop_assert_eq!(model.push(to, dst, w.3), new + i);
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(300))]

        /// Random interleavings of push / pop_entry / requeue / resolve, a
        /// pop with an immediate requeue, and the run re-deferral pop in the model's order with the model's
        /// sequence numbers, under both tie-breaks. Times and destinations
        /// come from small ranges, so many destinations share one time and
        /// a requeue lands before, at and after the back of its
        /// destination's lane. The model re-defers one entry at a time:
        /// each entry the queue moved must be the model's next pop, for
        /// that destination, before the target time and not held back by
        /// the stop check.
        #[test]
        fn event_queue_matches_single_heap_model(
            lifo in proptest::prelude::any::<bool>(),
            ops in proptest::collection::vec((0u8..12, 0usize..5, 0u64..6, 0usize..4), 1..200)
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let tb = if lifo { TieBreak::Lifo } else { TieBreak::Fifo };
            let mut q: EventQueue<u64> = EventQueue::new();
            q.set_tie_break(tb);
            let mut model = HeapModel { tie_break: tb, ..HeapModel::default() };
            // Popped and not yet requeued or resolved, with the model's view.
            let mut held: Vec<(QueuedEvent, u64)> = Vec::new();
            let mut payloads = 0u64;
            for (kind, dst, t, pick) in ops {
                let time = SimTime::from_ns(t);
                match kind {
                    0 | 1 => {
                        payloads += 1;
                        let msg = EventPayload::Message { src: dst, msg: payloads };
                        prop_assert_eq!(q.push(time, dst, msg), model.push(time, dst, payloads));
                    }
                    2..=4 => {
                        let got = q.pop_entry();
                        let want = model.pop();
                        prop_assert_eq!(got.map(|e| (e.time, e.seq, e.dst)), want.map(|w| (w.0, w.1, w.2)));
                        if let (Some(e), Some(w)) = (got, want) {
                            held.push((e, w.3));
                        }
                    }
                    10 | 11 => {
                        // The engine's deferral: pop, requeue to a time not
                        // before the entry's own (which builds runs), and
                        // on odd picks re-defer that lane's front with it.
                        let got = q.pop_entry();
                        let want = model.pop();
                        prop_assert_eq!(got.map(|e| (e.time, e.seq, e.dst)), want.map(|w| (w.0, w.1, w.2)));
                        if let (Some(e), Some(w)) = (got, want) {
                            let to = e.time + time;
                            prop_assert_eq!(q.requeue(e, to), model.push(to, w.2, w.3));
                            if pick % 2 == 1 {
                                redefer_both(&mut q, &mut model, e.dst, to, SimTime::from_ns(t))?;
                            }
                        }
                    }
                    8 | 9 => {
                        // Re-defer any lane to a time up to 3 ns past the
                        // op's; the stop check rejects one instant.
                        let to = SimTime::from_ns(t + pick as u64);
                        redefer_both(&mut q, &mut model, dst, to, SimTime::from_ns(pick as u64))?;
                    }
                    _ if held.is_empty() => {}
                    5 | 6 => {
                        let (e, payload) = held.swap_remove(pick % held.len());
                        prop_assert_eq!(q.requeue(e, time), model.push(time, e.dst, payload));
                    }
                    _ => {
                        let (e, payload) = held.swap_remove(pick % held.len());
                        prop_assert_eq!(q.resolve(e), EventPayload::Message { src: e.dst, msg: payload });
                    }
                }
                prop_assert_eq!(q.len(), model.heap.len());
                prop_assert_eq!(q.is_empty(), model.heap.is_empty());
                prop_assert_eq!(q.peek_time(), model.peek_time());
            }
            // Drain: whatever is left comes out in the model's order.
            while let Some(w) = model.pop() {
                let e = q.pop().expect("the queue holds what the model holds");
                prop_assert_eq!(
                    (e.time, e.seq, e.dst, e.payload),
                    (w.0, w.1, w.2, EventPayload::Message { src: w.2, msg: w.3 })
                );
            }
            prop_assert!(q.pop().is_none());
        }

        /// The engine's busy-rank loop over three ranks, against the
        /// model: a popped event for a busy rank is deferred to the rank's
        /// `busy_until` and the rank's lane front re-deferred with it; any
        /// other event is served, keeps its rank busy for a drawn service
        /// time and may send one new event.
        #[test]
        fn busy_rank_loop_matches_one_at_a_time_deferral(
            lifo in proptest::prelude::any::<bool>(),
            pushes in proptest::collection::vec((0usize..3, 0u64..8), 1..60),
            services in proptest::collection::vec(0u64..6, 1..40)
        ) {
            use proptest::prop_assert_eq;
            let tb = if lifo { TieBreak::Lifo } else { TieBreak::Fifo };
            let mut q: EventQueue<u64> = EventQueue::new();
            q.set_tie_break(tb);
            let mut model = HeapModel { tie_break: tb, ..HeapModel::default() };
            for (i, &(dst, t)) in pushes.iter().enumerate() {
                let time = SimTime::from_ns(t);
                let msg = EventPayload::Message { src: dst, msg: i as u64 };
                prop_assert_eq!(q.push(time, dst, msg), model.push(time, dst, i as u64));
            }
            let mut busy = [SimTime::ZERO; 3];
            let mut served = 0usize;
            while let Some(e) = q.pop_entry() {
                let w = model.pop().expect("the model holds what the queue holds");
                prop_assert_eq!((e.time, e.seq, e.dst), (w.0, w.1, w.2));
                if busy[e.dst] > e.time {
                    let to = busy[e.dst];
                    prop_assert_eq!(q.requeue(e, to), model.push(to, e.dst, w.3));
                    redefer_both(&mut q, &mut model, e.dst, to, SimTime::from_ns(u64::MAX))?;
                    continue;
                }
                prop_assert_eq!(q.resolve(e), EventPayload::Message { src: e.dst, msg: w.3 });
                let service = services[served % services.len()];
                busy[e.dst] = e.time + SimTime::from_ns(service);
                served += 1;
                if service % 2 == 1 && served < 200 {
                    let (dst, time) = ((e.dst + 1) % 3, e.time + SimTime::from_ns(1));
                    let msg = EventPayload::Message { src: dst, msg: w.3 };
                    prop_assert_eq!(q.push(time, dst, msg), model.push(time, dst, w.3));
                }
            }
            prop_assert_eq!(model.pop(), None);
        }
    }

    #[test]
    #[should_panic(expected = "resolving an event twice")]
    fn double_resolve_panics() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(SimTime::ZERO, 0, EventPayload::Start);
        let e = q.pop_entry().unwrap();
        let _ = q.resolve(e);
        let _ = q.resolve(e);
    }
}
