//! 2-bit packed DNA with an N side mask.
//!
//! Each base is stored as a 2-bit code (A=0, C=1, G=2, T=3 — the same
//! mapping as [`crate::seq::base_to_2bit`]), 32 bases per `u64` word,
//! little-endian in lane order (base `i` occupies bits `2*(i%32)..` of word
//! `i/32`). Ambiguous bases (`N`, or any byte outside `ACGT`) are encoded
//! as code 0 with the corresponding 2-bit lane of a parallel *N mask* set
//! to `0b11`; a lane of the mask is therefore either `0b00` (a real base)
//! or `0b11` (an `N`, which the aligner's scoring never lets match
//! anything).
//!
//! The packed form is what the batched alignment engine reads: it extracts
//! 32 bases per word window and stripes them into its per-lane base rows.
//! Packing happens **once per read at load time** (see
//! [`crate::ReadSet::push`]); downstream consumers only ever take cheap
//! [`PackedSlice`] views.

/// Bases stored per `u64` word.
pub const LANES_PER_WORD: usize = 32;

/// Byte → packed code table: `ACGT` map to 0–3, everything else to
/// [`CODE_AMBIG`] (packed as code 0 + N-mask lane).
pub const fn pack_code(b: u8) -> u8 {
    match b {
        b'A' => 0,
        b'C' => 1,
        b'G' => 2,
        b'T' => 3,
        _ => CODE_AMBIG,
    }
}

/// Sentinel return of [`pack_code`] for ambiguous/invalid bytes.
pub const CODE_AMBIG: u8 = 4;

/// Appends `seq` to a word-aligned packed buffer (`words`/`nmask` must end
/// on a word boundary). Tail lanes of the final word are poisoned as N so
/// out-of-range window reads can never alias a real base.
pub(crate) fn pack_append(seq: &[u8], words: &mut Vec<u64>, nmask: &mut Vec<u64>) {
    let base = words.len();
    let nwords = seq.len().div_ceil(LANES_PER_WORD);
    words.resize(base + nwords, 0);
    nmask.resize(base + nwords, 0);
    for (i, &b) in seq.iter().enumerate() {
        let v = pack_code(b);
        let w = base + i / LANES_PER_WORD;
        let sh = 2 * (i % LANES_PER_WORD);
        words[w] |= ((v & 3) as u64) << sh;
        if v == CODE_AMBIG {
            nmask[w] |= 0b11 << sh;
        }
    }
    let tail = seq.len() % LANES_PER_WORD;
    if tail != 0 {
        nmask[base + nwords - 1] |= u64::MAX << (2 * tail);
    }
}

/// An owned packed sequence (one read's worth of codes + N mask).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedSeq {
    words: Vec<u64>,
    nmask: Vec<u64>,
    len: usize,
}

impl PackedSeq {
    /// Packs a byte sequence. Bytes outside `ACGT` become N.
    pub fn from_bytes(seq: &[u8]) -> PackedSeq {
        let mut words = Vec::new();
        let mut nmask = Vec::new();
        pack_append(seq, &mut words, &mut nmask);
        PackedSeq {
            words,
            nmask,
            len: seq.len(),
        }
    }

    /// Number of bases.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the sequence holds no bases.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrowed view of the whole sequence.
    pub fn as_slice(&self) -> PackedSlice<'_> {
        PackedSlice {
            words: &self.words,
            nmask: &self.nmask,
            len: self.len,
        }
    }
}

/// A borrowed packed sequence: `len` bases starting at lane 0 of
/// `words`/`nmask` (packed storage is word-aligned per read).
#[derive(Debug, Clone, Copy)]
pub struct PackedSlice<'a> {
    /// 2-bit base codes, 32 lanes per word.
    pub words: &'a [u64],
    /// Parallel N mask (`0b11` lanes for ambiguous bases).
    pub nmask: &'a [u64],
    /// Number of bases.
    pub len: usize,
}

impl<'a> PackedSlice<'a> {
    /// Number of bases.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the slice holds no bases.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// 2-bit code of base `i` (the stored code; 0 for an N base — check
    /// [`PackedSlice::is_n`]).
    pub fn code(&self, i: usize) -> u8 {
        debug_assert!(i < self.len);
        ((self.words[i / LANES_PER_WORD] >> (2 * (i % LANES_PER_WORD))) & 3) as u8
    }

    /// Whether base `i` is ambiguous.
    pub fn is_n(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.nmask[i / LANES_PER_WORD] >> (2 * (i % LANES_PER_WORD))) & 3 != 0
    }

    /// Decodes base `i` back to its byte (`N` for ambiguous).
    pub fn byte(&self, i: usize) -> u8 {
        if self.is_n(i) {
            b'N'
        } else {
            crate::seq::base_from_2bit(self.code(i))
        }
    }

    /// Extracts 32 lanes of `(codes, nmask)` for bases
    /// `start..start + 32`. Lanes before base 0 or past the end read as N
    /// (`0b11` mask), so window consumers can treat out-of-range bases as
    /// "matches nothing" without branching.
    pub fn window(&self, start: isize) -> (u64, u64) {
        if start >= self.len as isize {
            return (0, u64::MAX);
        }
        if start < 0 {
            let skip = (-start) as usize;
            if skip >= LANES_PER_WORD {
                return (0, u64::MAX);
            }
            let (c, n) = self.window(0);
            let sh = 2 * skip;
            return ((c << sh), (n << sh) | (u64::MAX >> (64 - sh)));
        }
        let start = start as usize;
        let w = start / LANES_PER_WORD;
        let sh = 2 * (start % LANES_PER_WORD);
        let mut c = self.words[w] >> sh;
        let mut n = self.nmask[w] >> sh;
        if sh != 0 {
            let hc = self.words.get(w + 1).copied().unwrap_or(0);
            let hn = self.nmask.get(w + 1).copied().unwrap_or(u64::MAX);
            c |= hc << (64 - sh);
            n |= hn << (64 - sh);
        }
        // Lanes past the end: the pack-time tail poison covers the final
        // word, but a window may also reach entirely absent words.
        let remain = self.len - start;
        if remain < LANES_PER_WORD {
            n |= u64::MAX << (2 * remain);
        }
        (c, n)
    }
}

/// Reverses the 32 2-bit lanes of a word (lane 0 ↔ lane 31). Used to align
/// a descending-index window with an ascending-lane one.
pub fn rev_lanes(mut x: u64) -> u64 {
    x = ((x >> 2) & 0x3333_3333_3333_3333) | ((x & 0x3333_3333_3333_3333) << 2);
    x = ((x >> 4) & 0x0F0F_0F0F_0F0F_0F0F) | ((x & 0x0F0F_0F0F_0F0F_0F0F) << 4);
    x = ((x >> 8) & 0x00FF_00FF_00FF_00FF) | ((x & 0x00FF_00FF_00FF_00FF) << 8);
    x = ((x >> 16) & 0x0000_FFFF_0000_FFFF) | ((x & 0x0000_FFFF_0000_FFFF) << 16);
    x.rotate_left(32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_with_n() {
        let seq = b"ACGTNACGTNNTTGCA";
        let p = PackedSeq::from_bytes(seq);
        assert_eq!(p.len(), seq.len());
        let s = p.as_slice();
        for (i, &b) in seq.iter().enumerate() {
            assert_eq!(s.byte(i), b, "base {i}");
            assert_eq!(s.is_n(i), b == b'N');
        }
    }

    #[test]
    fn codes_match_base_to_2bit() {
        let p = PackedSeq::from_bytes(b"ACGT");
        let s = p.as_slice();
        for (i, b) in b"ACGT".iter().enumerate() {
            assert_eq!(s.code(i), crate::seq::base_to_2bit(*b).unwrap());
        }
    }

    #[test]
    fn empty_sequence() {
        let p = PackedSeq::from_bytes(b"");
        assert!(p.is_empty());
        let (c, n) = p.as_slice().window(0);
        assert_eq!((c, n), (0, u64::MAX));
    }

    #[test]
    fn window_in_range() {
        // 80 bases, deterministic pattern; check arbitrary offsets.
        let seq: Vec<u8> = (0..80).map(|i| b"ACGTN"[(i * 7 + 3) % 5]).collect();
        let p = PackedSeq::from_bytes(&seq);
        let s = p.as_slice();
        for start in 0..80isize {
            let (c, n) = s.window(start);
            for t in 0..LANES_PER_WORD {
                let idx = start as usize + t;
                let lane_c = (c >> (2 * t)) & 3;
                let lane_n = (n >> (2 * t)) & 3;
                if idx < seq.len() {
                    if seq[idx] == b'N' {
                        assert_eq!(lane_n, 3, "start {start} lane {t}");
                    } else {
                        assert_eq!(lane_n, 0, "start {start} lane {t}");
                        assert_eq!(lane_c as u8, pack_code(seq[idx]));
                    }
                } else {
                    assert_eq!(lane_n, 3, "tail start {start} lane {t}");
                }
            }
        }
    }

    #[test]
    fn window_negative_start_reads_n() {
        let p = PackedSeq::from_bytes(b"ACGT");
        let s = p.as_slice();
        for start in [-1isize, -5, -31, -32, -100] {
            let (c, n) = s.window(start);
            for t in 0..LANES_PER_WORD {
                let idx = start + t as isize;
                let lane_n = (n >> (2 * t)) & 3;
                if !(0..4).contains(&idx) {
                    assert_eq!(lane_n, 3, "start {start} lane {t}");
                } else {
                    assert_eq!(lane_n, 0);
                    assert_eq!(((c >> (2 * t)) & 3) as u8, pack_code(b"ACGT"[idx as usize]));
                }
            }
        }
    }

    #[test]
    fn rev_lanes_reverses() {
        let seq: Vec<u8> = (0..32).map(|i| b"ACGT"[i % 4]).collect();
        let fwd = PackedSeq::from_bytes(&seq);
        let rev: Vec<u8> = seq.iter().rev().copied().collect();
        let bwd = PackedSeq::from_bytes(&rev);
        let (cf, _) = fwd.as_slice().window(0);
        let (cb, _) = bwd.as_slice().window(0);
        assert_eq!(rev_lanes(cf), cb);
        assert_eq!(rev_lanes(rev_lanes(cf)), cf);
    }

    #[test]
    fn xor_mask_match_semantics() {
        // (a ^ b) | na | nb has zero lanes exactly where bases match and
        // neither is N: 32 base comparisons from two words.
        let a = b"ACGTNACGA";
        let b = b"ACCTNTCGA";
        let pa = PackedSeq::from_bytes(a);
        let pb = PackedSeq::from_bytes(b);
        let (ca, na) = pa.as_slice().window(0);
        let (cb, nb) = pb.as_slice().window(0);
        let neq = (ca ^ cb) | na | nb;
        for i in 0..a.len() {
            let matches = a[i] == b[i] && a[i] != b'N';
            assert_eq!((neq >> (2 * i)) & 3 == 0, matches, "lane {i}");
        }
    }
}
