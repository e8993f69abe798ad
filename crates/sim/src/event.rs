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
//! # Two levels: the main heap and one bucket per deferral instant
//!
//! Fresh events ([`EventQueue::push`]) go into one global binary heap.
//! Deferred events ([`EventQueue::requeue`]) do not re-enter it: a busy
//! rank re-defers its *whole* backlog after every handler it runs (a
//! backlog of k requests costs k + (k−1) + … + 1 deferrals), and in the
//! asynchronous strategies that is 13–28 deferrals per dispatched event.
//! Every entry deferred to instant T joins T's **bucket** instead. Each
//! deferral takes the next sequence number, so appending keeps a bucket
//! ascending by `(time, seq)`, and only its front can be the global
//! minimum. A small min-heap orders the live buckets by instant, and a
//! direct-mapped index, hashed by instant, finds the bucket open for an
//! instant. Two instants that share an index cell evict each other; the
//! evicted bucket is closed, and the next deferral to its instant opens
//! another. Every key of a closed bucket precedes every key of a bucket
//! opened after it, so ordering buckets by `(instant, opening)` keeps the
//! earliest bucket's front the smallest bucket key; a collision costs one
//! more bucket. [`EventQueue::pop_entry`] takes the smaller of the heap's
//! top and a cached copy of that front; popping inside a bucket costs no
//! heap operation, and only an emptied bucket leaves the bucket heap.
//!
//! # Runs, and the pass that moves them
//!
//! A bucket stores **runs** of one destination's consecutive keys,
//! `(first seq, len, dst, first slot, last slot)`, 24 bytes, not one entry
//! per deferral: the entries a rank defers one after another get
//! consecutive sequence numbers, so they form one run. A per-slot link
//! chains the arena slots inside a run, so a run moves to another bucket,
//! or joins the run before it, without touching its entries. A bucket
//! holds its front run inline and the others in one contiguous ring buffer,
//! which the pass below reads front to back; a retired bucket keeps room
//! for a few runs and frees the rest, so the huge buckets of a lockstep
//! group do not pin memory after their instant.
//!
//! When the engine defers an event it also calls `redefer_front`, which
//! keeps moving the queue's front for as long as that front is a bucket
//! entry the engine would defer too: a run at a time, to that rank's
//! `busy_until` (the engine's `target`), under fresh consecutive sequence
//! numbers. When ranks run in lockstep, k ranks × m entries at one instant
//! move in one pass, with no heap operation per entry. No other key can
//! fall inside a run, so the next pops would hand out a whole run, and the
//! pass stops at the first front that
//!
//! * is the main heap's top (a fresh event, possibly between two deferred
//!   sequence numbers of the same instant);
//! * the engine would not defer: the rank is free by then, dead, or the
//!   deferral would carry the entry across the rank's crash (those take
//!   the one-at-a-time path).
//!
//! Up to that point the next pops would have handed out exactly those
//! entries, and the engine would have deferred each one, so sequence
//! numbers, pop order and the deferral count are unchanged.
//!
//! Under [`TieBreak::Lifo`] a fresh key sorts *before* every key at its
//! instant, so it could not join a bucket's back: every requeue goes to the
//! main heap, which is correct for any entry, and the pass moves nothing.
//! Either way `requeue` assigns the next sequence number, so pop order
//! *and* sequence numbers are those of a single heap.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::{Ordering, Reverse};
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

/// Queue entry of the main heap (and the by-value view of a bucket's front):
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

/// No bucket, no slot.
const NONE: u32 = u32::MAX;

/// One run of a bucket: the keys `(time, first)`, `(time, first + 1)`, …,
/// `(time, first + len − 1)` at the bucket's instant, all for `dst`. Keys
/// in a run are consecutive integers, so no other pending key can fall
/// inside one. `slot` is the first entry's arena slot and `last` the last
/// one's; the queue's per-slot `links` chain each slot to the next entry's,
/// so a run moves to another bucket, or joins the run before it, without
/// touching its entries. 24 bytes, as a lone entry.
#[derive(Debug, Clone, Copy, Default)]
struct Run {
    first: u64,
    len: u32,
    dst: u32,
    slot: u32,
    last: u32,
}

/// Every entry deferred to one instant, ascending by key: runs of one
/// destination's consecutive keys, the front one inline and the others
/// behind it in a ring buffer, so that a bucket holding one rank's backlog
/// (most buckets) touches no buffer. A bucket is live while it holds an
/// entry; 64 bytes.
#[derive(Debug, Default)]
struct Bucket {
    time: SimTime,
    /// The front run; `len == 0` when the bucket is empty.
    head: Run,
    /// The runs behind `head`, front to back.
    rest: VecDeque<Run>,
}

/// Runs a retired bucket keeps room for behind its head; storage above it
/// is freed, so the huge buckets of a lockstep group do not pin memory
/// after their instant.
const SPARE_RUNS: usize = 4;

impl Bucket {
    fn is_empty(&self) -> bool {
        self.head.len == 0
    }

    /// The front entry (the bucket's smallest key).
    fn front(&self) -> Option<HeapEntry> {
        (!self.is_empty()).then_some(HeapEntry {
            key: (self.time, self.head.first),
            dst: self.head.dst,
            slot: self.head.slot,
        })
    }

    /// Appends `run`, whose keys follow every key in the bucket, joining
    /// it to the back run when the keys continue it.
    fn push_run(&mut self, run: Run, links: &mut Vec<u32>) {
        if self.is_empty() {
            self.head = run;
            return;
        }
        let back = self.rest.back_mut().unwrap_or(&mut self.head);
        if back.dst == run.dst && back.first + u64::from(back.len) == run.first {
            let at = back.last as usize;
            if links.len() <= at {
                links.resize(at + 1, NONE);
            }
            if let Some(link) = links.get_mut(at) {
                *link = run.slot;
            }
            back.len += run.len;
            back.last = run.last;
        } else {
            self.rest.push_back(run);
        }
    }

    /// Removes the front run.
    fn take_front(&mut self) -> Option<Run> {
        if self.is_empty() {
            return None;
        }
        let next = self.rest.pop_front().unwrap_or_default();
        Some(std::mem::replace(&mut self.head, next))
    }

    /// Drops the front entry.
    fn pop_front(&mut self, links: &[u32]) {
        let run = &mut self.head;
        if run.len > 1 {
            run.first += 1;
            run.len -= 1;
            run.slot = links.get(run.slot as usize).copied().unwrap_or(NONE);
        } else {
            self.take_front();
        }
    }
}

/// The open bucket of each instant, found by hashing the instant into a
/// direct-mapped table of bucket indices. Two instants that share a cell
/// evict each other: the evicted bucket is *closed* and takes no more
/// entries, so a later deferral to its instant opens a second bucket. All
/// keys of a closed bucket precede those of any bucket opened after it, so
/// ordering buckets by `(instant, opening)` keeps pop order exact, and a
/// collision costs one more bucket, nothing else. Never iterated, so its
/// layout reaches no output (and it needs no per-process hash state,
/// unlike `HashMap`).
#[derive(Debug, Default)]
struct InstantIndex {
    cells: Vec<u32>,
}

impl InstantIndex {
    /// The cell of `t`: the top bits of `t · 2⁶⁴/φ` (Fibonacci hashing),
    /// which spreads instants that are multiples of a round number too.
    fn cell(&self, t: SimTime) -> usize {
        let h = t.as_ns().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h.checked_shr(64 - self.cells.len().trailing_zeros())
            .unwrap_or(0) as usize
    }

    /// The bucket last opened for an instant in `t`'s cell, or `NONE`.
    fn get(&self, t: SimTime) -> u32 {
        self.cells.get(self.cell(t)).copied().unwrap_or(NONE)
    }

    /// Makes `b` the open bucket of `t`, when `live` buckets are open or
    /// closed. A table that would be more than half full doubles first,
    /// closing every bucket opened so far.
    fn open(&mut self, t: SimTime, b: u32, live: usize) {
        if 2 * live > self.cells.len() {
            let cells = (2 * self.cells.len()).max(64);
            self.cells.clear();
            self.cells.resize(cells, NONE);
        }
        let cell = self.cell(t);
        if let Some(c) = self.cells.get_mut(cell) {
            *c = b;
        }
    }
}

/// Deterministic event queue.
#[derive(Debug)]
pub struct EventQueue<M> {
    /// Fresh events, and every re-queued entry under [`TieBreak::Lifo`].
    heap: BinaryHeap<HeapEntry>,
    /// Deferred entries, one open bucket per instant (see
    /// [`InstantIndex`]); retired buckets wait in `spare` for reuse.
    buckets: Vec<Bucket>,
    /// Per arena slot, the slot of the next entry in its run (meaningful
    /// for all but a run's last slot).
    links: Vec<u32>,
    /// The live buckets by `(instant, sequence counter when opened)`,
    /// earliest on top.
    order: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// The earliest live bucket and its front entry, the smallest key in
    /// any bucket; cached, so that comparing it with the main heap's top
    /// touches no bucket.
    head: Option<(u32, HeapEntry)>,
    /// The open bucket of each instant.
    index: InstantIndex,
    spare: Vec<u32>,
    /// Entries held in `buckets`.
    in_buckets: usize,
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
            buckets: Vec::new(),
            links: Vec::new(),
            order: BinaryHeap::new(),
            head: None,
            index: InstantIndex::default(),
            spare: Vec::new(),
            in_buckets: 0,
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

    /// The earliest pending entry, and whether it is a bucket's front
    /// (`Some(bucket)`) rather than the main heap's top. Keys are unique,
    /// so there is no tie to break.
    fn next(&self) -> Option<(Option<u32>, HeapEntry)> {
        let top = self.heap.peek();
        match self.head {
            Some((b, e)) if top.is_none_or(|h| e.key < h.key) => Some((Some(b), e)),
            _ => top.map(|&h| (None, h)),
        }
    }

    /// The live bucket `b`'s front entry.
    fn front_of(&self, b: u32) -> Option<HeapEntry> {
        self.buckets.get(b as usize)?.front()
    }

    /// After the earliest bucket `b` lost its front: caches its new front,
    /// or retires it and caches the next bucket's.
    fn advance_head(&mut self, b: u32) {
        if let Some(e) = self.front_of(b) {
            self.head = Some((b, e));
            return;
        }
        // Only the earliest bucket ever loses entries, so `b` is the top
        // of `order`.
        if let Some(Reverse((_, _, b))) = self.order.pop() {
            if let Some(bucket) = self.buckets.get_mut(b as usize) {
                bucket.rest.shrink_to(SPARE_RUNS);
            }
            self.spare.push(b);
        }
        self.head = self
            .order
            .peek()
            .and_then(|&Reverse((_, _, b))| Some((b, self.front_of(b)?)));
    }

    /// Virtual time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next().map(|(_, e)| e.key.0)
    }

    /// Pops the earliest event as an arena handle. The payload stays in
    /// its slot until [`EventQueue::resolve`] (or returns to the queue via
    /// [`EventQueue::requeue`]).
    pub fn pop_entry(&mut self) -> Option<QueuedEvent> {
        let e = match self.next()? {
            (Some(b), e) => {
                if let Some(bucket) = self.buckets.get_mut(b as usize) {
                    bucket.pop_front(&self.links);
                    self.in_buckets -= 1;
                }
                self.advance_head(b);
                e
            }
            (None, _) => self.heap.pop()?,
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
    /// and the entry joins the bucket of `time` instead of the main heap
    /// (see the module docs). Returns the fresh sequence number.
    pub fn requeue(&mut self, ev: QueuedEvent, time: SimTime) -> u64 {
        debug_assert!(
            // gnb-lint: allow(panic-path, reason = "a popped entry's slot index was minted by push into the same slots vector and slots never shrinks")
            self.slots[ev.slot as usize].is_some(),
            "requeueing a resolved event"
        );
        let (seq, entry) = self.new_entry(time, ev.dst, ev.slot);
        // Under Lifo a fresh key sorts before every key at its instant, so
        // it could not join a bucket's back; the main heap takes any entry.
        let bucket = match self.tie_break {
            TieBreak::Fifo => self.bucket_for(time),
            TieBreak::Lifo => None,
        };
        match bucket.and_then(|b| Some((b, self.buckets.get_mut(b as usize)?))) {
            Some((b, bucket)) => {
                let run = Run {
                    first: entry.key.1,
                    len: 1,
                    dst: entry.dst,
                    slot: entry.slot,
                    last: entry.slot,
                };
                bucket.push_run(run, &mut self.links);
                self.in_buckets += 1;
                // A bucket earlier than the cached one is new, and `entry`
                // is its front. (A new bucket at the cached one's instant
                // sorts after it.)
                if self.head.is_none_or(|(_, h)| time < h.key.0) {
                    self.head = Some((b, entry));
                }
            }
            None => self.heap.push(entry),
        }
        seq
    }

    /// The open bucket of `time`, opened if there is none. `None` only if
    /// the bucket arena is full, when the caller falls back to the heap.
    fn bucket_for(&mut self, time: SimTime) -> Option<u32> {
        let b = self.index.get(time);
        if self
            .buckets
            .get(b as usize)
            .is_some_and(|k| k.time == time && !k.is_empty())
        {
            return Some(b);
        }
        let b = match self.spare.pop() {
            Some(b) => b,
            None => {
                let b = u32::try_from(self.buckets.len())
                    .ok()
                    .filter(|&b| b != NONE)?;
                self.buckets.push(Bucket::default());
                b
            }
        };
        if let Some(bucket) = self.buckets.get_mut(b as usize) {
            bucket.time = time;
        }
        self.order.push(Reverse((time, self.next_seq, b)));
        self.index.open(time, b, self.order.len());
        Some(b)
    }

    /// Re-defers the queue's front, a run at a time, for as long as the
    /// front is a bucket entry that the engine would defer: exactly what
    /// popping each of those entries and passing it to
    /// [`EventQueue::requeue`] would do, sequence numbers included.
    /// `target(dst, time)` is the engine's verdict on an entry for `dst`
    /// at `time`: `Some(busy_until)` of a rank that would take it, `None`
    /// if the engine would drop it. The pass stops at the first front that
    ///
    /// * is the main heap's top rather than a bucket entry;
    /// * `target` refuses (the rank is dead, or the deferral would cross
    ///   its crash: those entries take the one-at-a-time path);
    /// * is not before its target (the rank is free by then).
    ///
    /// Each run moves whole: no other key falls inside it, so the next
    /// pops would hand out all of it. `moved(old_first_seq, new_first_seq,
    /// len)` reports each moved run, whose entries keep their order.
    /// Returns the number of entries moved. Under [`TieBreak::Lifo`]
    /// buckets stay empty, so nothing moves.
    pub(crate) fn redefer_front(
        &mut self,
        mut target: impl FnMut(usize, SimTime) -> Option<SimTime>,
        mut moved: impl FnMut(u64, u64, u64),
    ) -> u64 {
        let mut count = 0;
        // Nothing enters the main heap during the pass, so its top is fixed.
        let stop = self.heap.peek().map(|h| h.key);
        // The bucket the last run went to: in a lockstep group most runs
        // go to the same instant. It stays the open bucket of its instant,
        // since only `bucket_for` opens buckets and it refreshes this.
        let mut last: Option<(SimTime, u32)> = None;
        while let Some((b, e)) = self.head {
            if stop.is_some_and(|top| top < e.key) {
                break;
            }
            let time = e.key.0;
            let Some(to) = target(e.dst as usize, time).filter(|&to| to > time) else {
                break;
            };
            let into = match last {
                Some((t, into)) if t == to => into,
                _ => {
                    let Some(into) = self.bucket_for(to) else {
                        break;
                    };
                    last = Some((to, into));
                    into
                }
            };
            let Ok([from, into]) = self.buckets.get_disjoint_mut([b as usize, into as usize])
            else {
                break;
            };
            let Some(run) = from.take_front() else {
                break;
            };
            // FIFO: the fresh keys are consecutive and later than every
            // pending key, so the run goes to the back of its bucket.
            let first = self.next_seq;
            self.next_seq += u64::from(run.len);
            into.push_run(Run { first, ..run }, &mut self.links);
            match from.front() {
                Some(front) => self.head = Some((b, front)),
                None => self.advance_head(b),
            }
            moved(run.first, first, u64::from(run.len));
            count += u64::from(run.len);
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
        self.heap.len() + self.in_buckets
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.order.is_empty()
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
    fn requeues_fill_a_bucket_not_the_main_heap() {
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
        assert_eq!(q.order.len(), 1, "one instant, one bucket");
        assert_eq!(q.len(), 1_001, "len counts the bucket");
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(2_000)));
        // A second round of deferrals (the rank served one request and is
        // busy again) never touches the main heap either; the emptied
        // bucket of 2000 retires.
        let first = q.pop().unwrap();
        assert_eq!((first.dst, first.seq), (7, 1_001));
        for _ in 0..999 {
            let e = q.pop_entry().unwrap();
            q.requeue(e, SimTime::from_ns(3_000));
        }
        assert_eq!((q.heap.len(), q.order.len(), q.len()), (1, 1, 1_000));
        assert_eq!((q.buckets.len(), q.spare.len()), (2, 1));
        // Bucket order is deferral order; the heap's event comes last.
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.seq)).collect();
        let want: Vec<u64> = (2_001..3_000).chain([1_000]).collect();
        assert_eq!(seqs, want);
        assert!(q.is_empty());
    }

    #[test]
    fn requeues_to_an_earlier_instant_open_its_bucket_and_lifo_uses_the_heap() {
        for tb in [TieBreak::Fifo, TieBreak::Lifo] {
            let mut q: EventQueue<u32> = EventQueue::new();
            q.set_tie_break(tb);
            for _ in 0..3 {
                q.push(SimTime::ZERO, 0, EventPayload::Start);
            }
            let (a, b, c) = (
                q.pop_entry().unwrap(),
                q.pop_entry().unwrap(),
                q.pop_entry().unwrap(),
            );
            q.requeue(a, SimTime::from_ns(20)); // seq 3, opens the bucket of 20
            q.requeue(b, SimTime::from_ns(10)); // seq 4, earlier: a bucket of its own
            q.requeue(c, SimTime::from_ns(20)); // seq 5, behind seq 3
            let order: Vec<(u64, u64)> =
                std::iter::from_fn(|| q.pop().map(|e| (e.time.as_ns(), e.seq))).collect();
            match tb {
                TieBreak::Fifo => {
                    assert_eq!((q.heap.len(), q.buckets.len()), (0, 2));
                    assert_eq!(order, vec![(10, 4), (20, 3), (20, 5)]);
                }
                // A fresh Lifo key sorts first at its instant: the main
                // heap takes every requeue.
                TieBreak::Lifo => {
                    assert!(q.buckets.is_empty());
                    assert_eq!(order, vec![(10, 4), (20, 5), (20, 3)]);
                }
            }
        }
    }

    #[test]
    fn entries_are_24_bytes_and_order_is_its_own_inverse() {
        assert_eq!(std::mem::size_of::<HeapEntry>(), 24);
        assert_eq!(std::mem::size_of::<Run>(), 24);
        assert_eq!(std::mem::size_of::<Bucket>(), 64);
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

    /// The run lengths of the earliest bucket, front to back.
    fn run_lens<M>(q: &EventQueue<M>) -> Vec<u32> {
        let b = q.order.peek().unwrap().0 .2;
        let bucket = &q.buckets[b as usize];
        std::iter::once(&bucket.head)
            .chain(&bucket.rest)
            .map(|r| r.len)
            .collect()
    }

    /// The engine's target in miniature: an entry for `dst` at `t` goes
    /// to `busy[dst]` unless `refuse(dst, t)` (the crash check) kills it;
    /// the queue moves it only if `busy[dst]` is later than `t`.
    fn verdict<'a>(
        busy: &'a [SimTime],
        refuse: impl Fn(usize, SimTime) -> bool + 'a,
    ) -> impl Fn(usize, SimTime) -> Option<SimTime> + 'a {
        move |dst, t| busy.get(dst).copied().filter(|_| !refuse(dst, t))
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
        assert_eq!(run_lens(&q), [1_000], "1000 deferrals, one run");
        // The rank served one request and is busy until 3000: the engine
        // defers the next entry, then moves the other 998 in one pass.
        let served = q.pop().unwrap();
        assert_eq!(served.seq, 1_000 + 1);
        let next = q.pop_entry().unwrap();
        assert_eq!(q.requeue(next, SimTime::from_ns(3_000)), 2_001);
        let mut busy = [SimTime::ZERO; 8];
        busy[7] = SimTime::from_ns(3_000);
        let mut runs = Vec::new();
        let moved = q.redefer_front(verdict(&busy, |_, _| false), |old, new, len| {
            runs.push((old, new, len))
        });
        assert_eq!((moved, runs), (998, vec![(1_003, 2_002, 998)]));
        assert_eq!(run_lens(&q), [999], "joined to the requeued entry");
        assert_eq!((q.heap.len(), q.order.len(), q.len()), (1, 1, 1_000));
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.seq)).collect();
        let want: Vec<u64> = (2_001..3_000).chain([1_000]).collect();
        assert_eq!(seqs, want);
    }

    #[test]
    fn redeferral_stops_at_the_heap_top_or_where_the_engine_would_not_defer() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let t = SimTime::from_ns;
        for dst in [0, 1, 0] {
            q.push(t(0), dst, EventPayload::Start);
        }
        // Bucket 10: seq 3 for rank 0, seq 4 for rank 1; bucket 20: seq 5
        // for rank 0.
        for time in [10, 10, 20] {
            let e = q.pop_entry().unwrap();
            q.requeue(e, t(time));
        }
        // Rank 0 is busy until 30, rank 1 is free: (10, 3) moves, and the
        // pass stops at (10, 4).
        let busy = [t(30), t(0), t(0)];
        let mut seen = Vec::new();
        assert_eq!(
            q.redefer_front(verdict(&busy, |_, _| false), |o, n, l| seen.push((o, n, l))),
            1
        );
        assert_eq!(seen, [(3, 6, 1)]);
        // Now rank 1's entry is the front: nothing moves.
        assert_eq!(
            q.redefer_front(verdict(&busy, |_, _| false), |_, _, _| {}),
            0
        );
        let e = q.pop().unwrap();
        assert_eq!((e.dst, e.seq), (1, 4));
        // The crash check holds back (20, 5); a target at or before an
        // entry's time moves nothing either.
        let refuse_20 = |_: usize, time: SimTime| time == t(20);
        assert_eq!(q.redefer_front(verdict(&busy, refuse_20), |_, _, _| {}), 0);
        assert_eq!(q.redefer_front(|_, _| Some(t(20)), |_, _, _| {}), 0);
        q.push(t(15), 2, EventPayload::Start);
        assert_eq!(
            q.redefer_front(verdict(&busy, |_, _| false), |_, _, _| {}),
            0,
            "heap top first"
        );
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop().map(|e| (e.time.as_ns(), e.seq))).collect();
        assert_eq!(order, [(15, 7), (20, 5), (30, 6)]);
    }

    /// Pushes `m` entries for each of `k` ranks at time 0, round-robin, and
    /// defers them all to instant 100 one at a time (the ranks are busy
    /// until then), so the bucket of 100 interleaves the ranks' backlogs.
    /// With `fresh`, an event for rank `k` is pushed for instant 100 after
    /// half of them. Then, as the engine would at 100, serves each rank's
    /// first entry (busy until 110) and defers the next one.
    fn lockstep_instant(k: usize, m: usize, fresh: bool) -> (EventQueue<u64>, [SimTime; 8]) {
        let (t0, t1, t2) = (SimTime::ZERO, SimTime::from_ns(100), SimTime::from_ns(110));
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..k * m {
            q.push(
                t0,
                i % k,
                EventPayload::Message {
                    src: 0,
                    msg: i as u64,
                },
            );
        }
        for i in 0..k * m {
            if fresh && i == k * m / 2 {
                q.push(t1, k, EventPayload::Start);
            }
            let e = q.pop_entry().unwrap();
            q.requeue(e, t1);
        }
        let mut busy = [t1; 8];
        for _ in 0..k {
            let e = q.pop().unwrap();
            busy[e.dst] = t2;
        }
        let e = q.pop_entry().unwrap();
        q.requeue(e, t2);
        (q, busy)
    }

    #[test]
    fn k_ranks_times_m_entries_at_one_instant_move_in_one_pass() {
        let (k, m) = (5, 40);
        let (mut q, busy) = lockstep_instant(k, m, false);
        let first_fresh = q.next_seq;
        let mut runs = Vec::new();
        let moved = q.redefer_front(verdict(&busy, |_, _| false), |o, n, l| runs.push((o, n, l)));
        // Everything but the k served entries and the one deferred by
        // hand, in one pass; the bucket of 100 retired, the heap untouched.
        assert_eq!(moved as usize, k * m - k - 1);
        assert_eq!((q.heap.len(), q.order.len()), (0, 1));
        // The ranks interleave, so every run is one entry long, and the
        // fresh sequence numbers are consecutive in pop order.
        assert!(runs.iter().all(|&(_, _, len)| len == 1));
        let news: Vec<u64> = runs.iter().map(|r| r.1).collect();
        assert_eq!(news, (first_fresh..first_fresh + moved).collect::<Vec<_>>());
        let dsts: Vec<usize> = std::iter::from_fn(|| q.pop().map(|e| e.dst)).collect();
        let want: Vec<usize> = (k..k * m).map(|i| i % k).collect();
        assert_eq!(dsts, want, "ranks keep their interleaving");
    }

    #[test]
    fn a_fresh_event_between_deferred_entries_splits_the_pass() {
        let (k, m) = (5, 40);
        let (mut q, busy) = lockstep_instant(k, m, true);
        let go = verdict(&busy, |_, _| false);
        // The fresh event's key falls between the bucket's keys: the pass
        // stops at it, and the engine dispatches it (its rank is free).
        let first = q.redefer_front(&go, |_, _, _| {});
        assert_eq!(first as usize, k * m / 2 - k - 1);
        let e = q.pop().unwrap();
        assert_eq!((e.dst, e.time.as_ns()), (k, 100));
        let second = q.redefer_front(&go, |_, _, _| {});
        assert_eq!((first + second) as usize, k * m - k - 1);
        assert_eq!((q.heap.len(), q.order.len()), (0, 1));
    }

    /// `(time, order(seq), seq, dst, payload)`.
    type ModelEntry = (SimTime, u64, u64, usize, u64);

    /// The reference model of [`EventQueue`]: one binary heap ordered by
    /// `(time, order(seq))`, where a requeue is a fresh entry — the queue's
    /// whole contract, and its implementation before deferred events moved
    /// out of the main heap.
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

    /// Runs the pass on `q` under `target`, then checks it against `model`
    /// one entry at a time: each moved entry must be the model's next pop,
    /// one that `target` defers, and its fresh sequence number the model's
    /// requeue to that target. The pass must also not stop early: a bucket
    /// entry left at the front is one that `target` does not defer.
    fn redefer_both(
        q: &mut EventQueue<u64>,
        model: &mut HeapModel,
        target: impl Fn(usize, SimTime) -> Option<SimTime>,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        use proptest::{prop_assert, prop_assert_eq};
        let mut runs = Vec::new();
        let moved = q.redefer_front(&target, |old, new, len| runs.push((old, new, len)));
        prop_assert_eq!(runs.iter().map(|r| r.2).sum::<u64>(), moved);
        for (old, new, len) in runs {
            for i in 0..len {
                let w = model.pop().expect("a moved entry is pending in the model");
                prop_assert_eq!(w.1, old + i);
                let to = target(w.2, w.0).filter(|&to| to > w.0);
                prop_assert!(to.is_some(), "moved an entry the engine would not defer");
                if let Some(to) = to {
                    prop_assert_eq!(model.push(to, w.2, w.3), new + i);
                }
            }
        }
        if let Some((Some(_), e)) = q.next() {
            prop_assert!(target(e.dst as usize, e.key.0).is_none_or(|to| to <= e.key.0));
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(300))]

        /// Random interleavings of push / pop_entry / requeue / resolve, a
        /// pop with an immediate requeue, and the re-deferral pass pop in
        /// the model's order with the model's sequence numbers, under both
        /// tie-breaks. Times and destinations come from small ranges, so
        /// many destinations share one time and a requeue lands before, at
        /// and after entries already deferred. Each destination has a
        /// `busy` instant; an op may set all of them to one instant
        /// (lockstep), so that popped entries of several destinations are
        /// deferred alternately to it. The model re-defers one entry at a
        /// time: each entry the queue moved must be the model's next pop
        /// and one the engine would defer.
        #[test]
        fn event_queue_matches_single_heap_model(
            lifo in proptest::prelude::any::<bool>(),
            ops in proptest::collection::vec((0u8..14, 0usize..5, 0u64..6, 0usize..4), 1..200)
        ) {
            use proptest::prop_assert_eq;
            let tb = if lifo { TieBreak::Lifo } else { TieBreak::Fifo };
            let mut q: EventQueue<u64> = EventQueue::new();
            q.set_tie_break(tb);
            let mut model = HeapModel { tie_break: tb, ..HeapModel::default() };
            // Popped and not yet requeued or resolved, with the model's view.
            let mut held: Vec<(QueuedEvent, u64)> = Vec::new();
            let mut busy = [SimTime::ZERO; 5];
            let mut payloads = 0u64;
            for (kind, dst, t, pick) in ops {
                let time = SimTime::from_ns(t);
                // The crash check rejects one instant.
                let held_back = SimTime::from_ns(pick as u64);
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
                        // The engine's deferral: pop, requeue to the rank's
                        // busy instant (or a time not before the entry's
                        // own), and on odd picks run the pass with it.
                        let got = q.pop_entry();
                        let want = model.pop();
                        prop_assert_eq!(got.map(|e| (e.time, e.seq, e.dst)), want.map(|w| (w.0, w.1, w.2)));
                        if let (Some(e), Some(w)) = (got, want) {
                            let to = busy[e.dst].max(e.time + time);
                            prop_assert_eq!(q.requeue(e, to), model.push(to, w.2, w.3));
                            if pick % 2 == 1 {
                                redefer_both(&mut q, &mut model, verdict(&busy, |_, t| t == held_back))?;
                            }
                        }
                    }
                    8 | 9 => {
                        redefer_both(&mut q, &mut model, verdict(&busy, |_, t| t == held_back))?;
                    }
                    12 => busy = [time + held_back; 5],
                    13 => busy[dst] = time + held_back,
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
            proptest::prop_assert!(q.pop().is_none());
        }

        /// The engine's busy-rank loop over 3–6 ranks, against the model:
        /// a popped event for a busy rank is deferred to the rank's
        /// `busy_until` and the pass run with it, unless the crash check
        /// (rank 0 at one drawn instant) kills it; any other event is
        /// served, keeps its rank busy for a service time and may send one
        /// new event. With `lockstep`, every service takes the same time,
        /// so ranks free up together and their backlogs share instants.
        #[test]
        fn busy_rank_loop_matches_one_at_a_time_deferral(
            lifo in proptest::prelude::any::<bool>(),
            lockstep in proptest::prelude::any::<bool>(),
            ranks in 3usize..7,
            pushes in proptest::collection::vec((0usize..6, 0u64..8), 1..80),
            services in proptest::collection::vec(0u64..6, 1..40),
            doom in 0u64..24
        ) {
            use proptest::prop_assert_eq;
            let tb = if lifo { TieBreak::Lifo } else { TieBreak::Fifo };
            let mut q: EventQueue<u64> = EventQueue::new();
            q.set_tie_break(tb);
            let mut model = HeapModel { tie_break: tb, ..HeapModel::default() };
            for (i, &(dst, t)) in pushes.iter().enumerate() {
                let (dst, time) = (dst % ranks, SimTime::from_ns(t));
                let msg = EventPayload::Message { src: dst, msg: i as u64 };
                prop_assert_eq!(q.push(time, dst, msg), model.push(time, dst, i as u64));
            }
            let doomed = |dst: usize, t: SimTime| dst == 0 && t == SimTime::from_ns(doom);
            let mut busy = vec![SimTime::ZERO; ranks];
            let mut served = 0usize;
            while let Some(e) = q.pop_entry() {
                let w = model.pop().expect("the model holds what the queue holds");
                prop_assert_eq!((e.time, e.seq, e.dst), (w.0, w.1, w.2));
                if busy[e.dst] > e.time {
                    if doomed(e.dst, e.time) {
                        prop_assert_eq!(q.resolve(e), EventPayload::Message { src: e.dst, msg: w.3 });
                        continue;
                    }
                    let to = busy[e.dst];
                    prop_assert_eq!(q.requeue(e, to), model.push(to, e.dst, w.3));
                    redefer_both(&mut q, &mut model, verdict(&busy, doomed))?;
                    continue;
                }
                prop_assert_eq!(q.resolve(e), EventPayload::Message { src: e.dst, msg: w.3 });
                let service = if lockstep { 3 } else { services[served % services.len()] };
                busy[e.dst] = e.time + SimTime::from_ns(service);
                served += 1;
                if service % 2 == 1 && served < 200 {
                    let (dst, time) = ((e.dst + 1) % ranks, e.time + SimTime::from_ns(1));
                    let msg = EventPayload::Message { src: dst, msg: w.3 };
                    prop_assert_eq!(q.push(time, dst, msg), model.push(time, dst, w.3));
                }
            }
            prop_assert_eq!(model.pop(), None);
        }
    }

    #[test]
    fn colliding_instants_close_each_others_buckets_and_keep_pop_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for dst in 0..8 {
            q.push(SimTime::ZERO, dst % 4, EventPayload::Start);
        }
        // Open a bucket, then find a later instant in the same index cell.
        let first = q.pop_entry().unwrap();
        let t1 = SimTime::from_ns(1_000);
        q.requeue(first, t1);
        let cell = q.index.cell(t1);
        let t2 = (1_001..)
            .map(SimTime::from_ns)
            .find(|&t| q.index.cell(t) == cell)
            .unwrap();
        // Deferring alternately to t2 and t1 evicts the other instant's
        // bucket every time: each deferral opens a bucket.
        for i in 0..7 {
            let e = q.pop_entry().unwrap();
            q.requeue(e, if i % 2 == 0 { t2 } else { t1 });
        }
        assert_eq!(q.order.len(), 8, "one bucket per deferral");
        // At instant t1 the four ranks are busy until t2: one pass moves
        // t1's four entries, across their four buckets, behind t2's.
        let e = q.pop_entry().unwrap();
        assert_eq!((e.time, e.seq), (t1, 8));
        assert_eq!(q.requeue(e, t2), 16);
        let busy = [t2; 4];
        assert_eq!(
            q.redefer_front(verdict(&busy, |_, _| false), |_, _, _| {}),
            3
        );
        let order: Vec<(SimTime, u64)> =
            std::iter::from_fn(|| q.pop().map(|e| (e.time, e.seq))).collect();
        let want: Vec<(SimTime, u64)> = [9, 11, 13, 15, 16, 17, 18, 19]
            .into_iter()
            .map(|seq| (t2, seq))
            .collect();
        assert_eq!(order, want);
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
