//! Packed k-mer representation and sliding-window extraction.
//!
//! k ≤ 32 fits in a `u64` at 2 bits per base (`A=0, C=1, G=2, T=3`). The
//! paper uses k = 17 (§4), the BELLA default; small odd k is standard for
//! high-error long reads. Odd k also guarantees no k-mer equals its own
//! reverse complement, making the canonical form strictly two-to-one.

use gnb_genome::seq::{base_from_2bit, base_to_2bit};
use serde::{Deserialize, Serialize};

/// Maximum supported k (2 bits per base in a `u64`).
pub const MAX_K: usize = 32;

/// A 2-bit-packed k-mer. The base at window position 0 occupies the
/// most-significant used bits, so integer comparison equals lexicographic
/// comparison of the underlying strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Kmer(pub u64);

impl Kmer {
    /// Packs the first `k` bytes of `seq`; `None` if any base is ambiguous
    /// (`N`) or `seq` is shorter than `k`.
    ///
    /// # Panics
    /// Panics if `k == 0` or `k > 32`.
    pub fn from_seq(seq: &[u8], k: usize) -> Option<Kmer> {
        assert!((1..=MAX_K).contains(&k), "k must be in 1..=32, got {k}");
        if seq.len() < k {
            return None;
        }
        let mut v = 0u64;
        for &b in &seq[..k] {
            v = (v << 2) | base_to_2bit(b)? as u64;
        }
        Some(Kmer(v))
    }

    /// Unpacks into an ASCII string of length `k`.
    pub fn to_seq(self, k: usize) -> Vec<u8> {
        assert!((1..=MAX_K).contains(&k));
        (0..k)
            .map(|i| {
                let shift = 2 * (k - 1 - i);
                base_from_2bit(((self.0 >> shift) & 3) as u8)
            })
            .collect()
    }

    /// Reverse complement of this k-mer at width `k`.
    ///
    /// Complement is bitwise NOT in the 2-bit code (`A↔T`, `C↔G`); reversal
    /// swaps 2-bit groups end-for-end via the classic mask-shuffle.
    pub fn revcomp(self, k: usize) -> Kmer {
        debug_assert!((1..=MAX_K).contains(&k));
        let mut v = !self.0; // complement every 2-bit code (3 - c == !c & 3)
                             // Reverse 2-bit groups within the u64.
        v = ((v >> 2) & 0x3333_3333_3333_3333) | ((v & 0x3333_3333_3333_3333) << 2);
        v = ((v >> 4) & 0x0F0F_0F0F_0F0F_0F0F) | ((v & 0x0F0F_0F0F_0F0F_0F0F) << 4);
        v = v.swap_bytes();
        // The groups now sit in the high bits; shift down to width k.
        Kmer(v >> (64 - 2 * k))
    }

    /// Canonical form: the lexicographic minimum of the k-mer and its
    /// reverse complement. Both strands of a genomic locus produce the same
    /// canonical k-mer, which is what makes k-mer matching strand-blind.
    pub fn canonical(self, k: usize) -> Kmer {
        self.min(self.revcomp(k))
    }

    /// A well-mixed 64-bit hash (splitmix64 finaliser): the minimizer
    /// order, and a deterministic way to spread k-mers across owners.
    #[inline]
    pub fn hash64(self) -> u64 {
        let mut z = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// [`base_to_2bit`] as a table; 4 marks an ambiguous base.
const CODES: [u8; 256] = {
    let mut codes = [4u8; 256];
    codes[b'A' as usize] = 0;
    codes[b'C' as usize] = 1;
    codes[b'G' as usize] = 2;
    codes[b'T' as usize] = 3;
    codes
};

/// Iterator over `(position, canonical k-mer)` pairs of a sequence.
///
/// Maintains a rolling 2-bit window and its rolling reverse complement;
/// any `N` (or other ambiguous byte) resets the window so no k-mer spans
/// it, exactly as DiBELLA/BELLA treat low-confidence calls.
pub struct KmerIter<'a> {
    seq: &'a [u8],
    k: usize,
    mask: u64,
    pos: usize,
    window: u64,
    /// Reverse complement of `window`, at width `k`.
    rc: u64,
    /// Number of unambiguous bases currently in the window.
    filled: usize,
}

impl<'a> KmerIter<'a> {
    /// Creates an iterator over the canonical k-mers of `seq`.
    pub fn new(seq: &'a [u8], k: usize) -> Self {
        assert!((1..=MAX_K).contains(&k), "k must be in 1..=32, got {k}");
        let mask = if k == 32 {
            u64::MAX
        } else {
            (1u64 << (2 * k)) - 1
        };
        KmerIter {
            seq,
            k,
            mask,
            pos: 0,
            window: 0,
            rc: 0,
            filled: 0,
        }
    }
}

impl<'a> Iterator for KmerIter<'a> {
    /// `(window start position, canonical k-mer)`.
    type Item = (usize, Kmer);

    fn next(&mut self) -> Option<(usize, Kmer)> {
        while let Some(&b) = self.seq.get(self.pos) {
            self.pos += 1;
            // A table, not a branch per base: bases are unpredictable.
            let code = CODES[b as usize] as u64;
            if code > 3 {
                self.filled = 0;
                continue;
            }
            self.window = ((self.window << 2) | code) & self.mask;
            self.rc = (self.rc >> 2) | ((3 - code) << (2 * self.k - 2));
            self.filled += 1;
            if self.filled >= self.k {
                return Some((self.pos - self.k, Kmer(self.window.min(self.rc))));
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.seq.len() - self.pos;
        (
            0,
            Some(
                remaining
                    .saturating_add(self.filled)
                    .saturating_sub(self.k - 1),
            ),
        )
    }
}

/// Convenience wrapper over [`KmerIter::new`].
pub fn kmers_of(seq: &[u8], k: usize) -> KmerIter<'_> {
    KmerIter::new(seq, k)
}

/// Like [`kmers_of`] but also yields the orientation: `true` when the
/// canonical form equals the forward (as-read) k-mer.
///
/// Overlap candidate generation needs this bit: two reads that share a
/// canonical k-mer in *opposite* orientations overlap on opposite strands,
/// and the aligner must reverse-complement one of them before extension
/// (paper Fig. 2 — overlaps occur in either relative orientation).
pub fn kmers_oriented(seq: &[u8], k: usize) -> impl Iterator<Item = (usize, Kmer, bool)> + '_ {
    let mut raw = KmerIter::new(seq, k);
    std::iter::from_fn(move || {
        // KmerIter yields the canonical k-mer; recover the forward window to
        // determine orientation. The window is still in `raw.window`.
        raw.next().map(|(pos, canon)| {
            let fwd = Kmer(raw.window & raw.mask);
            (pos, canon, canon == fwd)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnb_genome::seq::revcomp;

    #[test]
    fn pack_unpack_round_trip() {
        for k in [1, 2, 5, 17, 31, 32] {
            let seq: Vec<u8> = b"ACGTGGCATCGATCGATTAGCCGATCGATCGA"[..k].to_vec();
            let km = Kmer::from_seq(&seq, k).unwrap();
            assert_eq!(km.to_seq(k), seq, "k={k}");
        }
    }

    #[test]
    fn packing_rejects_n_and_short() {
        assert_eq!(Kmer::from_seq(b"ACNGT", 5), None);
        assert_eq!(Kmer::from_seq(b"ACG", 5), None);
    }

    #[test]
    fn integer_order_is_lexicographic() {
        let a = Kmer::from_seq(b"AACGT", 5).unwrap();
        let b = Kmer::from_seq(b"AACTT", 5).unwrap();
        let c = Kmer::from_seq(b"TACGT", 5).unwrap();
        assert!(a < b && b < c);
    }

    #[test]
    fn revcomp_matches_string_revcomp() {
        for k in [1, 3, 7, 17, 31, 32] {
            let seq = &b"GATTACAGATTACAGATTACAGATTACAGATT"[..k];
            let km = Kmer::from_seq(seq, k).unwrap();
            let rc = km.revcomp(k);
            assert_eq!(rc.to_seq(k), revcomp(seq), "k={k}");
        }
    }

    #[test]
    fn revcomp_is_involution() {
        let km = Kmer::from_seq(b"ACGTACGTACGTACGTA", 17).unwrap();
        assert_eq!(km.revcomp(17).revcomp(17), km);
    }

    #[test]
    fn canonical_is_strand_invariant_and_idempotent() {
        let s = b"CGGATTACAGATTACAG";
        let km = Kmer::from_seq(s, 17).unwrap();
        let rc = km.revcomp(17);
        assert_eq!(km.canonical(17), rc.canonical(17));
        assert_eq!(km.canonical(17).canonical(17), km.canonical(17));
    }

    #[test]
    fn iterator_positions_and_values() {
        let seq = b"ACGTAC";
        let k = 3;
        let got: Vec<(usize, Kmer)> = kmers_of(seq, k).collect();
        assert_eq!(got.len(), 4);
        for (i, (pos, km)) in got.iter().enumerate() {
            assert_eq!(*pos, i);
            let expect = Kmer::from_seq(&seq[i..i + k], k).unwrap().canonical(k);
            assert_eq!(*km, expect);
        }
    }

    #[test]
    fn iterator_resets_on_n() {
        // k=4 over "ACGTNACGT": only window 0 fits before the N (windows
        // 1..=4 span it), then the first full window after the reset is 5.
        let got: Vec<usize> = kmers_of(b"ACGTNACGT", 4).map(|(p, _)| p).collect();
        assert_eq!(got, vec![0, 5]);
    }

    #[test]
    fn iterator_empty_and_short() {
        assert_eq!(kmers_of(b"", 5).count(), 0);
        assert_eq!(kmers_of(b"ACG", 5).count(), 0);
        assert_eq!(kmers_of(b"NNNNNNNN", 3).count(), 0);
    }

    #[test]
    fn strand_blindness_end_to_end() {
        // The canonical k-mer sets of a read and its reverse complement match.
        let seq = b"ACGGATTACAGGATCCGATTACAGT";
        let k = 7;
        let mut fwd: Vec<Kmer> = kmers_of(seq, k).map(|(_, km)| km).collect();
        let rc = revcomp(seq);
        let mut rev: Vec<Kmer> = kmers_of(&rc, k).map(|(_, km)| km).collect();
        fwd.sort_unstable();
        rev.sort_unstable();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn oriented_iterator_flags_strand() {
        // "AAAAC": canonical of AAAAC is min(AAAAC, GTTTT) = AAAAC → fwd.
        // "GTTTT": canonical is AAAAC ≠ forward window → !fwd.
        let fwd_hits: Vec<_> = kmers_oriented(b"AAAAC", 5).collect();
        let rev_hits: Vec<_> = kmers_oriented(b"GTTTT", 5).collect();
        assert_eq!(fwd_hits.len(), 1);
        assert_eq!(rev_hits.len(), 1);
        let (p0, k0, o0) = fwd_hits[0];
        let (p1, k1, o1) = rev_hits[0];
        assert_eq!((p0, p1), (0, 0));
        assert_eq!(k0, k1, "same canonical k-mer");
        assert!(o0, "AAAAC is already canonical");
        assert!(!o1, "GTTTT canonicalizes to its revcomp");
    }

    #[test]
    fn oriented_iterator_matches_plain() {
        let seq = b"ACGGATTACAGGATCCNGATTACAGT";
        let k = 6;
        let plain: Vec<_> = kmers_of(seq, k).collect();
        let oriented: Vec<_> = kmers_oriented(seq, k).map(|(p, km, _)| (p, km)).collect();
        assert_eq!(plain, oriented);
    }

    #[test]
    fn hash64_mixes() {
        // Neighbouring k-mers must land in different shards with high
        // probability; check low bits differ across a small range.
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u64 {
            seen.insert(Kmer(i).hash64() & 0xFF);
        }
        assert!(seen.len() > 40, "poor low-bit mixing: {}", seen.len());
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn k_zero_panics() {
        let _ = Kmer::from_seq(b"ACGT", 0);
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn k_too_large_panics() {
        let _ = KmerIter::new(b"ACGT", 33);
    }
}
