//! Deterministic checkpoint/restore for crash-stop recovery.
//!
//! Ranks periodically serialise their recovery-relevant state into a
//! [`CkptStore`] keyed by rank and epoch, on the *virtual* clock. When a
//! peer's crash is detected (see `gnb-core`'s runtime layer), a survivor
//! restores the dead rank's last checkpoint and replays the tail — the
//! whole protocol stays on virtual time and seeded hashing, so recovery
//! is bit-reproducible.
//!
//! Serialisation is a hand-rolled little-endian byte codec
//! ([`CkptWriter`] / [`CkptReader`]) rather than a serde format: the
//! vendored serde is an API stub, and a fixed byte layout is exactly what
//! the byte-identity acceptance tests pin. The strategies in `gnb-core`
//! checkpoint their progress as plain counters, bitmaps and tuples, so
//! the only [`Checkpointable`] impls are the primitive and container ones
//! here.
//!
//! Checkpoint *cost* is part of the performance model: [`CkptParams`]
//! prices a write as `base + per_kib × ⌈size/1 KiB⌉`, which the driver
//! books as overhead (writes) or recovery (restores).

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Little-endian byte sink for checkpoint serialisation.
#[derive(Debug, Default)]
pub struct CkptWriter {
    buf: Vec<u8>,
}

impl CkptWriter {
    /// An empty writer.
    pub fn new() -> CkptWriter {
        CkptWriter::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a usize as a little-endian u64.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a length-prefixed raw byte run.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Finishes, yielding the serialised bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Little-endian byte source for checkpoint restore.
///
/// Truncated or trailing input panics: checkpoint bytes never leave the
/// process, so a layout mismatch is a bug, not an input error.
#[derive(Debug)]
pub struct CkptReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> CkptReader<'a> {
    /// Reads from `buf`, starting at the beginning.
    pub fn new(buf: &'a [u8]) -> CkptReader<'a> {
        CkptReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        let end = self.pos + n;
        assert!(
            end <= self.buf.len(),
            "checkpoint truncated: need {n} bytes at offset {}, have {}",
            self.pos,
            self.buf.len() - self.pos
        );
        let s = &self.buf[self.pos..end];
        self.pos = end;
        s
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> u8 {
        // gnb-lint: allow(panic-path, reason = "take() just asserted end <= buf.len() with a truncation diagnostic, so the one-byte slice is non-empty")
        self.take(1)[0]
    }

    /// Reads a bool (one byte).
    pub fn bool(&mut self) -> bool {
        self.u8() != 0
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> u32 {
        // gnb-lint: allow(panic-path, reason = "take(4) either asserts with a truncation diagnostic or returns exactly 4 bytes, so the array conversion cannot fail")
        u32::from_le_bytes(self.take(4).try_into().unwrap())
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> u64 {
        // gnb-lint: allow(panic-path, reason = "take(8) either asserts with a truncation diagnostic or returns exactly 8 bytes, so the array conversion cannot fail")
        u64::from_le_bytes(self.take(8).try_into().unwrap())
    }

    /// Reads a usize (stored as u64).
    pub fn usize(&mut self) -> usize {
        self.u64() as usize
    }

    /// Reads a length-prefixed raw byte run.
    pub fn bytes(&mut self) -> &'a [u8] {
        let n = self.usize();
        self.take(n)
    }

    /// Asserts every byte was consumed (layout check on restore).
    pub fn finish(self) {
        assert_eq!(
            self.pos,
            self.buf.len(),
            "checkpoint has {} trailing bytes",
            self.buf.len() - self.pos
        );
    }
}

/// State that can round-trip through the checkpoint byte codec.
pub trait Checkpointable: Sized {
    /// Serialises `self` into `w`.
    fn checkpoint(&self, w: &mut CkptWriter);
    /// Rebuilds from `r`. Must consume exactly what [`Self::checkpoint`]
    /// wrote.
    fn restore(r: &mut CkptReader<'_>) -> Self;

    /// Convenience: serialise to an owned byte vector.
    fn to_ckpt_bytes(&self) -> Vec<u8> {
        let mut w = CkptWriter::new();
        self.checkpoint(&mut w);
        w.finish()
    }

    /// Convenience: rebuild from bytes, asserting full consumption.
    fn from_ckpt_bytes(bytes: &[u8]) -> Self {
        let mut r = CkptReader::new(bytes);
        let v = Self::restore(&mut r);
        r.finish();
        v
    }
}

impl Checkpointable for u32 {
    fn checkpoint(&self, w: &mut CkptWriter) {
        w.u32(*self);
    }
    fn restore(r: &mut CkptReader<'_>) -> Self {
        r.u32()
    }
}

impl Checkpointable for u64 {
    fn checkpoint(&self, w: &mut CkptWriter) {
        w.u64(*self);
    }
    fn restore(r: &mut CkptReader<'_>) -> Self {
        r.u64()
    }
}

impl Checkpointable for usize {
    fn checkpoint(&self, w: &mut CkptWriter) {
        w.usize(*self);
    }
    fn restore(r: &mut CkptReader<'_>) -> Self {
        r.usize()
    }
}

impl Checkpointable for bool {
    fn checkpoint(&self, w: &mut CkptWriter) {
        w.bool(*self);
    }
    fn restore(r: &mut CkptReader<'_>) -> Self {
        r.bool()
    }
}

impl<T: Checkpointable> Checkpointable for Vec<T> {
    fn checkpoint(&self, w: &mut CkptWriter) {
        w.usize(self.len());
        for v in self {
            v.checkpoint(w);
        }
    }
    fn restore(r: &mut CkptReader<'_>) -> Self {
        let n = r.usize();
        (0..n).map(|_| T::restore(r)).collect()
    }
}

impl<T: Checkpointable> Checkpointable for Option<T> {
    fn checkpoint(&self, w: &mut CkptWriter) {
        match self {
            Some(v) => {
                w.bool(true);
                v.checkpoint(w);
            }
            None => w.bool(false),
        }
    }
    fn restore(r: &mut CkptReader<'_>) -> Self {
        if r.bool() {
            Some(T::restore(r))
        } else {
            None
        }
    }
}

impl<A: Checkpointable, B: Checkpointable> Checkpointable for (A, B) {
    fn checkpoint(&self, w: &mut CkptWriter) {
        self.0.checkpoint(w);
        self.1.checkpoint(w);
    }
    fn restore(r: &mut CkptReader<'_>) -> Self {
        (A::restore(r), B::restore(r))
    }
}

/// One rank's checkpoint at one epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptRecord {
    /// The checkpointing rank.
    pub rank: usize,
    /// Monotone per-rank epoch counter (0 = first checkpoint).
    pub epoch: u64,
    /// Virtual time the checkpoint was taken.
    pub at: SimTime,
    /// Serialised state.
    pub bytes: Vec<u8>,
}

/// Latest-checkpoint-per-rank store, modelling globally visible stable
/// storage (a burst buffer / parallel FS). Only the most recent epoch per
/// rank is retained — takeover restores from the last checkpoint, never
/// an older one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CkptStore {
    latest: Vec<Option<CkptRecord>>,
    /// Total checkpoint writes accepted.
    pub writes: u64,
    /// Total serialised bytes across all writes (including superseded
    /// epochs).
    pub bytes_written: u64,
}

impl CkptStore {
    /// An empty store for `nranks` ranks.
    pub fn new(nranks: usize) -> CkptStore {
        CkptStore {
            latest: vec![None; nranks],
            writes: 0,
            bytes_written: 0,
        }
    }

    /// Accepts a checkpoint, superseding any earlier epoch from `rank`.
    ///
    /// # Panics
    /// Panics if the epoch does not increase (checkpoints are monotone).
    pub fn record(&mut self, rank: usize, epoch: u64, at: SimTime, bytes: Vec<u8>) {
        // gnb-lint: allow(panic-path, reason = "rank ids come from the engine; latest has one slot per rank by construction")
        if let Some(prev) = &self.latest[rank] {
            assert!(
                epoch > prev.epoch,
                "rank {rank} checkpoint epoch went backwards ({} -> {epoch})",
                prev.epoch
            );
        }
        self.writes += 1;
        self.bytes_written += bytes.len() as u64;
        // gnb-lint: allow(panic-path, reason = "rank ids come from the engine; latest has one slot per rank by construction")
        self.latest[rank] = Some(CkptRecord {
            rank,
            epoch,
            at,
            bytes,
        });
    }

    /// The most recent checkpoint from `rank`, if it ever took one.
    pub fn latest(&self, rank: usize) -> Option<&CkptRecord> {
        // gnb-lint: allow(panic-path, reason = "rank ids come from the engine; latest has one slot per rank by construction")
        self.latest[rank].as_ref()
    }
}

/// Checkpoint cost/cadence parameters (virtual-time nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CkptParams {
    /// Interval between checkpoint epochs on each rank.
    pub interval_ns: u64,
    /// Fixed cost per checkpoint write or restore.
    pub base_ns: u64,
    /// Marginal cost per KiB serialised (rounded up).
    pub per_kib_ns: u64,
}

impl Default for CkptParams {
    fn default() -> CkptParams {
        CkptParams {
            interval_ns: 250_000_000,
            base_ns: 200_000,
            per_kib_ns: 2_000,
        }
    }
}

impl CkptParams {
    /// Virtual time to write or restore a `bytes`-sized checkpoint.
    pub fn io_cost(&self, bytes: usize) -> SimTime {
        let kib = (bytes as u64).div_ceil(1024);
        SimTime::from_ns(self.base_ns + self.per_kib_ns * kib)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = CkptWriter::new();
        7u32.checkpoint(&mut w);
        u64::MAX.checkpoint(&mut w);
        true.checkpoint(&mut w);
        vec![1u32, 2, 3].checkpoint(&mut w);
        Some(9usize).checkpoint(&mut w);
        Option::<u64>::None.checkpoint(&mut w);
        (4u32, vec![5u64]).checkpoint(&mut w);
        let bytes = w.finish();
        let mut r = CkptReader::new(&bytes);
        assert_eq!(u32::restore(&mut r), 7);
        assert_eq!(u64::restore(&mut r), u64::MAX);
        assert!(bool::restore(&mut r));
        assert_eq!(Vec::<u32>::restore(&mut r), vec![1, 2, 3]);
        assert_eq!(Option::<usize>::restore(&mut r), Some(9));
        assert_eq!(Option::<u64>::restore(&mut r), None);
        assert_eq!(<(u32, Vec<u64>)>::restore(&mut r), (4, vec![5]));
        r.finish();
    }

    #[test]
    fn serialisation_is_deterministic() {
        let v = vec![(1u32, 2u64), (3, 4)];
        assert_eq!(v.to_ckpt_bytes(), v.to_ckpt_bytes());
        assert_eq!(Vec::<(u32, u64)>::from_ckpt_bytes(&v.to_ckpt_bytes()), v);
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn truncated_restore_panics() {
        let bytes = 1234u64.to_ckpt_bytes();
        let _ = u64::from_ckpt_bytes(&bytes[..4]);
    }

    #[test]
    #[should_panic(expected = "trailing")]
    fn trailing_bytes_panic() {
        let mut bytes = 1234u64.to_ckpt_bytes();
        bytes.push(0);
        let _ = u64::from_ckpt_bytes(&bytes);
    }

    #[test]
    fn store_keeps_latest_epoch_only() {
        let mut s = CkptStore::new(2);
        assert!(s.latest(1).is_none());
        s.record(1, 0, SimTime::from_ms(1), vec![1, 2]);
        s.record(1, 1, SimTime::from_ms(2), vec![3]);
        let rec = s.latest(1).unwrap();
        assert_eq!((rec.epoch, rec.bytes.as_slice()), (1, &[3u8][..]));
        assert_eq!(rec.at, SimTime::from_ms(2));
        assert_eq!(s.writes, 2);
        assert_eq!(s.bytes_written, 3);
    }

    #[test]
    #[should_panic(expected = "epoch went backwards")]
    fn store_rejects_stale_epoch() {
        let mut s = CkptStore::new(1);
        s.record(0, 3, SimTime::from_ms(1), vec![]);
        s.record(0, 3, SimTime::from_ms(2), vec![]);
    }

    #[test]
    fn io_cost_scales_with_size() {
        let p = CkptParams::default();
        assert_eq!(p.io_cost(0).as_ns(), p.base_ns);
        assert_eq!(p.io_cost(1).as_ns(), p.base_ns + p.per_kib_ns);
        assert_eq!(p.io_cost(1024).as_ns(), p.base_ns + p.per_kib_ns);
        assert_eq!(p.io_cost(1025).as_ns(), p.base_ns + 2 * p.per_kib_ns);
    }
}
