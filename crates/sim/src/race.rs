//! The virtual-time race detector.
//!
//! The DES orders events by `(virtual time, insertion sequence)`. The
//! sequence half is an *arbitrary* tie-break: two events delivered to one
//! rank at the same virtual time have no physical ordering, so any state
//! whose final value depends on which handler ran first is a simulation
//! artifact — the virtual-time analogue of a data race. [`RaceDetector`]
//! finds these dynamically: handlers declare the logical state they touch
//! via [`crate::engine::Ctx::race_read`]/[`crate::engine::Ctx::race_write`]
//! (keys are application-chosen `u64`s, e.g. read ids), the engine groups
//! accesses by `(rank, dispatch time)`, and two accesses to the same key
//! from *different* events in one group — at least one a write — are
//! reported as a [`RaceRecord`]. Only same-time handler pairs can collide:
//! a handler that advances virtual time pushes later deliveries to a
//! strictly later dispatch time, leaving the group.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One detected same-virtual-time conflict: two events dispatched to the
/// same rank at the same virtual time touched the same state key, at least
/// one writing. Whichever effect "wins" is decided by the queue's
/// insertion-sequence tie-break — an ordering with no physical meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RaceRecord {
    /// Rank whose handlers conflicted.
    pub rank: usize,
    /// The shared dispatch time.
    pub time: SimTime,
    /// Application state key both events touched.
    pub key: u64,
    /// Insertion sequence of the earlier-dispatched event.
    pub first_seq: u64,
    /// `true` if the earlier event wrote `key` (else it read).
    pub first_write: bool,
    /// Insertion sequence of the later-dispatched event.
    pub second_seq: u64,
    /// `true` if the later event wrote `key` (else it read).
    pub second_write: bool,
}

/// One declared access inside a dispatch group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Access {
    key: u64,
    seq: u64,
    write: bool,
}

/// Bounded collector of same-virtual-time conflicts (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceDetector {
    /// Confirmed conflicts, in detection order.
    pub records: Vec<RaceRecord>,
    /// Conflicts dropped after capacity was reached.
    pub dropped: u64,
    /// Dispatch groups analysed (a coverage metric: 0 means nothing was
    /// instrumented).
    pub groups_checked: u64,
    capacity: usize,
    /// Open access group per rank: dispatch time + accesses so far.
    open: BTreeMap<usize, (SimTime, Vec<Access>)>,
    /// The event currently dispatching: `(rank, time, seq)`.
    cur: Option<(usize, SimTime, u64)>,
}

impl RaceDetector {
    /// Creates a detector holding at most `capacity` conflict records.
    pub fn new(capacity: usize) -> RaceDetector {
        RaceDetector {
            records: Vec::new(),
            dropped: 0,
            groups_checked: 0,
            capacity,
            open: BTreeMap::new(),
            cur: None,
        }
    }

    /// Engine hook: an event with insertion sequence `seq` is about to be
    /// dispatched to `rank` at virtual `time`. Closes (and analyses) the
    /// rank's open group if its dispatch time differs.
    pub fn begin_event(&mut self, rank: usize, time: SimTime, seq: u64) {
        if let Some((open_time, _)) = self.open.get(&rank) {
            if *open_time != time {
                // gnb-lint: allow(panic-path, reason = "the get() on the line above proved the entry exists and nothing runs in between")
                let (t, accesses) = self.open.remove(&rank).expect("checked above");
                self.close_group(rank, t, accesses);
            }
        }
        self.cur = Some((rank, time, seq));
    }

    /// Handler hook: the current event reads (`write = false`) or writes
    /// (`write = true`) application state `key`.
    pub fn access(&mut self, key: u64, write: bool) {
        let Some((rank, time, seq)) = self.cur else {
            return;
        };
        let entry = self.open.entry(rank).or_insert_with(|| (time, Vec::new()));
        entry.1.push(Access { key, seq, write });
    }

    /// Engine hook: the run is over; analyse every still-open group.
    pub fn finish(&mut self) {
        self.cur = None;
        let open = std::mem::take(&mut self.open);
        for (rank, (t, accesses)) in open {
            self.close_group(rank, t, accesses);
        }
    }

    /// Analyses one dispatch group: accesses to the same key from
    /// different events (different `seq`), at least one a write, conflict.
    /// One record is emitted per (key, event pair).
    fn close_group(&mut self, rank: usize, time: SimTime, mut accesses: Vec<Access>) {
        self.groups_checked += 1;
        if accesses.len() < 2 {
            return;
        }
        accesses.sort_by_key(|a| (a.key, a.seq, !a.write));
        // Collapse each event's accesses to a key into one (write wins).
        accesses.dedup_by(|b, a| {
            if a.key == b.key && a.seq == b.seq {
                a.write |= b.write;
                true
            } else {
                false
            }
        });
        let mut i = 0;
        while i < accesses.len() {
            let mut j = i + 1;
            // gnb-lint: allow(panic-path, reason = "the loop condition bounds j by accesses.len() before each access")
            while j < accesses.len() && accesses[j].key == accesses[i].key {
                j += 1;
            }
            // gnb-lint: allow(panic-path, reason = "i < j <= accesses.len() by the loop structure, so the slice bounds hold")
            let group = &accesses[i..j];
            for (x, a) in group.iter().enumerate() {
                // gnb-lint: allow(panic-path, reason = "x indexes group, so x + 1 is a valid (possibly empty) tail slice start")
                for b in &group[x + 1..] {
                    if (a.write || b.write) && a.seq != b.seq {
                        self.push_record(rank, time, *a, *b);
                    }
                }
            }
            i = j;
        }
    }

    fn push_record(&mut self, rank: usize, time: SimTime, a: Access, b: Access) {
        if self.records.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        let (first, second) = if a.seq <= b.seq { (a, b) } else { (b, a) };
        self.records.push(RaceRecord {
            rank,
            time,
            key: first.key,
            first_seq: first.seq,
            first_write: first.write,
            second_seq: second.seq,
            second_write: second.write,
        });
    }

    /// `true` when no conflicts were detected (and none were dropped).
    pub fn is_clean(&self) -> bool {
        self.records.is_empty() && self.dropped == 0
    }
}

/// Renders conflicts as a human-readable report, one line per record.
pub fn render_races(d: &RaceDetector) -> String {
    let mut out = String::new();
    for r in &d.records {
        out.push_str(&format!(
            "race: rank {} @ {} ns, key {}: event #{}{} vs event #{}{} — resolution depends on queue tie-break\n",
            r.rank,
            r.time.as_ns(),
            r.key,
            r.first_seq,
            if r.first_write { " (write)" } else { " (read)" },
            r.second_seq,
            if r.second_write { " (write)" } else { " (read)" },
        ));
    }
    out.push_str(&format!(
        "race detector: {} group(s) checked, {} conflict(s), {} dropped\n",
        d.groups_checked,
        d.records.len(),
        d.dropped
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_flags_same_time_write_write() {
        let mut d = RaceDetector::new(16);
        let t = SimTime::from_ns(100);
        d.begin_event(0, t, 1);
        d.access(42, true);
        d.begin_event(0, t, 2);
        d.access(42, true);
        d.finish();
        assert_eq!(d.records.len(), 1);
        let r = d.records[0];
        assert_eq!((r.rank, r.time, r.key), (0, t, 42));
        assert_eq!((r.first_seq, r.second_seq), (1, 2));
        assert!(r.first_write && r.second_write);
        assert!(!d.is_clean());
    }

    #[test]
    fn detector_flags_read_write_but_not_read_read() {
        let mut d = RaceDetector::new(16);
        let t = SimTime::from_ns(5);
        d.begin_event(3, t, 10);
        d.access(7, false);
        d.access(8, false);
        d.begin_event(3, t, 11);
        d.access(7, true); // read/write on key 7: race
        d.access(8, false); // read/read on key 8: fine
        d.finish();
        assert_eq!(d.records.len(), 1);
        assert_eq!(d.records[0].key, 7);
    }

    #[test]
    fn detector_ignores_different_times_and_ranks() {
        let mut d = RaceDetector::new(16);
        d.begin_event(0, SimTime::from_ns(1), 1);
        d.access(5, true);
        d.begin_event(1, SimTime::from_ns(1), 2); // other rank
        d.access(5, true);
        d.begin_event(0, SimTime::from_ns(2), 3); // later time
        d.access(5, true);
        d.finish();
        assert!(d.is_clean(), "{:?}", d.records);
    }

    #[test]
    fn detector_single_event_touching_key_twice_is_fine() {
        let mut d = RaceDetector::new(16);
        d.begin_event(0, SimTime::from_ns(1), 1);
        d.access(5, false);
        d.access(5, true); // same event: no self-race
        d.finish();
        assert!(d.is_clean());
    }

    #[test]
    fn detector_capacity_counts_drops() {
        let mut d = RaceDetector::new(1);
        let t = SimTime::from_ns(9);
        for seq in 0..3 {
            d.begin_event(0, t, seq);
            d.access(1, true);
        }
        d.finish();
        assert_eq!(d.records.len(), 1);
        assert_eq!(d.dropped, 2, "3 events pairwise = 3 conflicts");
        assert!(!d.is_clean());
    }

    #[test]
    fn race_report_renders() {
        let mut d = RaceDetector::new(4);
        let t = SimTime::from_ns(100);
        d.begin_event(2, t, 5);
        d.access(9, true);
        d.begin_event(2, t, 6);
        d.access(9, false);
        d.finish();
        let s = render_races(&d);
        assert!(s.contains("rank 2 @ 100 ns, key 9"), "{s}");
        assert!(s.contains("#5 (write)"), "{s}");
        assert!(s.contains("#6 (read)"), "{s}");
        assert!(s.contains("1 conflict(s)"), "{s}");
    }
}
