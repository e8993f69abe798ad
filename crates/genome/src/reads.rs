//! Long-read sampling and the [`ReadSet`] container.
//!
//! Reads are stored in a single concatenated byte buffer with an offset
//! table ("flat" layout). For millions of reads this avoids per-read heap
//! allocations and keeps iteration cache-friendly — the same locality
//! argument the paper makes for the BSP code's flat arrays (§4.6).

use crate::error::ErrorModel;
use crate::packed::{pack_append, PackedSlice};
use crate::rng::{rng_from_seed, LogNormal};
use crate::seq::revcomp_in_place;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which genome strand a read was sampled from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strand {
    /// The reference orientation.
    Forward,
    /// Reverse complement of the reference.
    Reverse,
}

/// Ground-truth provenance of a sampled read (used by validation tests; a
/// real pipeline would not have this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReadOrigin {
    /// Start position of the sampled fragment on the reference.
    pub start: usize,
    /// Length of the fragment *on the reference* (before sequencing errors).
    pub ref_len: usize,
    /// Strand the read was taken from.
    pub strand: Strand,
}

impl ReadOrigin {
    /// Half-open reference interval `[start, start + ref_len)`.
    pub fn interval(&self) -> (usize, usize) {
        (self.start, self.start + self.ref_len)
    }

    /// Number of reference bases shared with `other`'s fragment. Two reads
    /// that truly overlap on the genome should align well.
    pub fn overlap_len(&self, other: &ReadOrigin) -> usize {
        let (a0, a1) = self.interval();
        let (b0, b1) = other.interval();
        a1.min(b1).saturating_sub(a0.max(b0))
    }
}

/// A set of long reads in flat (structure-of-arrays) storage.
///
/// Every stored base is one of `A`, `C`, `G`, `T`, `N`: [`ReadSet::push`]
/// upper-cases its input and turns every other byte into `N`, so the byte
/// and packed forms of a read always agree and every alignment kernel sees
/// the same sequence. Alongside the byte buffer, every read is 2-bit packed
/// **once at push time** (codes + N mask, word-aligned per read; see
/// [`crate::packed`]), so the batched alignment engine can take
/// [`PackedSlice`] views with zero per-alignment re-encoding.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReadSet {
    data: Vec<u8>,
    /// `offsets.len() == len() + 1`; read `i` is `data[offsets[i]..offsets[i+1]]`.
    offsets: Vec<usize>,
    origins: Vec<ReadOrigin>,
    /// Packed 2-bit codes, word-aligned per read.
    pwords: Vec<u64>,
    /// Packed N mask, parallel to `pwords`.
    pnmask: Vec<u64>,
    /// `pstarts.len() == len() + 1`; read `i`'s packed words are
    /// `pwords[pstarts[i]..pstarts[i+1]]`.
    pstarts: Vec<usize>,
}

/// The stored form of one input byte: `ACGT` in either case as upper
/// case, anything else as `N`.
fn normalise_base(b: u8) -> u8 {
    match b.to_ascii_uppercase() {
        c @ (b'A' | b'C' | b'G' | b'T') => c,
        _ => b'N',
    }
}

impl Default for ReadSet {
    fn default() -> Self {
        ReadSet::new()
    }
}

impl ReadSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        ReadSet {
            data: Vec::new(),
            offsets: vec![0],
            origins: Vec::new(),
            pwords: Vec::new(),
            pnmask: Vec::new(),
            pstarts: vec![0],
        }
    }

    /// Appends a read with its provenance; returns its id (dense index).
    /// Lowercase bases are upper-cased and every byte other than `ACGT`
    /// (IUPAC ambiguity codes included) is stored as `N`.
    pub fn push(&mut self, seq: &[u8], origin: ReadOrigin) -> u32 {
        let id = self.origins.len() as u32;
        let start = self.data.len();
        self.data.extend(seq.iter().map(|&b| normalise_base(b)));
        self.offsets.push(self.data.len());
        self.origins.push(origin);
        pack_append(&self.data[start..], &mut self.pwords, &mut self.pnmask);
        self.pstarts.push(self.pwords.len());
        id
    }

    /// Number of reads.
    pub fn len(&self) -> usize {
        self.origins.len()
    }

    /// Returns `true` if the set holds no reads.
    pub fn is_empty(&self) -> bool {
        self.origins.is_empty()
    }

    /// The sequence of read `i`.
    pub fn read(&self, i: usize) -> &[u8] {
        &self.data[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Length in bytes of read `i` (cheaper than `read(i).len()` only in
    /// intent; provided for call-site clarity).
    pub fn read_len(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Packed (2-bit + N mask) view of read `i`, encoded once at push time.
    pub fn packed_read(&self, i: usize) -> PackedSlice<'_> {
        PackedSlice {
            words: &self.pwords[self.pstarts[i]..self.pstarts[i + 1]],
            nmask: &self.pnmask[self.pstarts[i]..self.pstarts[i + 1]],
            len: self.read_len(i),
        }
    }

    /// Ground-truth origin of read `i`.
    pub fn origin(&self, i: usize) -> ReadOrigin {
        self.origins[i]
    }

    /// Total bytes of sequence across all reads.
    pub fn total_bases(&self) -> usize {
        self.data.len()
    }

    /// Iterates `(id, sequence)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u8])> {
        (0..self.len()).map(move |i| (i as u32, self.read(i)))
    }

    /// Read lengths as a vector (used by the partitioner and by the
    /// task-graph-level workload synthesiser).
    pub fn lengths(&self) -> Vec<usize> {
        (0..self.len()).map(|i| self.read_len(i)).collect()
    }
}

/// Parameters for sampling reads from a genome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadSampler {
    /// Target sequencing depth (average number of reads covering a locus).
    pub coverage: f64,
    /// Read length distribution (of the reference fragment).
    pub length_dist: LogNormal,
    /// Minimum fragment length; shorter draws are clamped up.
    pub min_len: usize,
    /// Maximum fragment length; longer draws are clamped down.
    pub max_len: usize,
    /// Sequencer error model applied to each fragment.
    pub errors: ErrorModel,
}

impl ReadSampler {
    /// Samples reads from `genome` until the target coverage is reached.
    ///
    /// Fragments are drawn uniformly over genome positions; each is
    /// reverse-complemented with probability ½ and then corrupted by the
    /// error model — mirroring how a sequencer reads random fragments from
    /// both strands.
    pub fn sample(&self, genome: &[u8], seed: u64) -> ReadSet {
        assert!(self.coverage > 0.0, "coverage must be positive");
        assert!(self.min_len >= 1 && self.min_len <= self.max_len);
        assert!(!genome.is_empty(), "cannot sample reads from empty genome");
        let mut rng = rng_from_seed(seed ^ 0x7265_6164_7361_6d70);
        let target = (genome.len() as f64 * self.coverage) as usize;
        let mut reads = ReadSet::new();
        let mut sampled = 0usize;
        let mut frag_buf: Vec<u8> = Vec::new();
        while sampled < target {
            let raw = self.length_dist.sample(&mut rng);
            let len = (raw as usize)
                .clamp(self.min_len, self.max_len)
                .min(genome.len());
            let start = rng.gen_range(0..=genome.len() - len);
            frag_buf.clear();
            frag_buf.extend_from_slice(&genome[start..start + len]);
            let strand = if rng.gen::<bool>() {
                revcomp_in_place(&mut frag_buf);
                Strand::Reverse
            } else {
                Strand::Forward
            };
            let noisy = self.errors.corrupt(&mut rng, &frag_buf);
            reads.push(
                &noisy,
                ReadOrigin {
                    start,
                    ref_len: len,
                    strand,
                },
            );
            sampled += len;
        }
        reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{Genome, GenomeParams};
    use crate::seq::is_valid_dna;

    fn sampler(cov: f64) -> ReadSampler {
        ReadSampler {
            coverage: cov,
            length_dist: LogNormal::from_mean_sigma(500.0, 0.3),
            min_len: 100,
            max_len: 5000,
            errors: ErrorModel::PERFECT,
        }
    }

    #[test]
    fn readset_round_trip() {
        let mut rs = ReadSet::new();
        let o = ReadOrigin {
            start: 5,
            ref_len: 4,
            strand: Strand::Forward,
        };
        let id0 = rs.push(b"ACGT", o);
        let id1 = rs.push(b"GGNNA", o);
        assert_eq!((id0, id1), (0, 1));
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.read(0), b"ACGT");
        assert_eq!(rs.read(1), b"GGNNA");
        assert_eq!(rs.read_len(1), 5);
        assert_eq!(rs.total_bases(), 9);
        assert_eq!(rs.lengths(), vec![4, 5]);
    }

    #[test]
    fn packed_reads_agree_with_bytes() {
        let mut rs = ReadSet::new();
        let o = ReadOrigin {
            start: 0,
            ref_len: 0,
            strand: Strand::Forward,
        };
        let long: Vec<u8> = (0..133).map(|i| b"ACGTN"[(i * 3 + 1) % 5]).collect();
        rs.push(b"ACGT", o);
        rs.push(&long, o);
        rs.push(b"", o);
        rs.push(b"GGNNA", o);
        rs.push(b"acgtRYnKacgt", o);
        assert_eq!(rs.read(4), b"ACGTNNNNACGT");
        for i in 0..rs.len() {
            let bytes = rs.read(i);
            let p = rs.packed_read(i);
            assert_eq!(p.len(), bytes.len(), "read {i}");
            for (j, &b) in bytes.iter().enumerate() {
                assert_eq!(p.byte(j), b, "read {i} base {j}");
            }
        }
    }

    #[test]
    fn coverage_target_met() {
        let g = Genome::generate(GenomeParams::uniform(50_000), 11);
        let rs = sampler(10.0).sample(&g.seq, 1);
        let total = rs.total_bases();
        // With perfect errors, sampled bases == reference bases covered.
        assert!(total >= 10 * g.len(), "total {total}");
        // Should not wildly overshoot (by more than one max-length read).
        assert!(total <= 10 * g.len() + 5000);
    }

    #[test]
    fn reads_are_substrings_or_revcomp() {
        let g = Genome::generate(GenomeParams::uniform(20_000), 12);
        let rs = sampler(2.0).sample(&g.seq, 2);
        for i in 0..rs.len() {
            let o = rs.origin(i);
            let frag = &g.seq[o.start..o.start + o.ref_len];
            let expect = match o.strand {
                Strand::Forward => frag.to_vec(),
                Strand::Reverse => crate::seq::revcomp(frag),
            };
            assert_eq!(rs.read(i), &expect[..], "read {i}");
        }
    }

    #[test]
    fn corrupted_reads_are_valid_dna() {
        let g = Genome::generate(GenomeParams::uniform(20_000), 13);
        let mut s = sampler(2.0);
        s.errors = ErrorModel::clr(0.15);
        let rs = s.sample(&g.seq, 3);
        for (_, r) in rs.iter() {
            assert!(is_valid_dna(r));
        }
    }

    #[test]
    fn deterministic_sampling() {
        let g = Genome::generate(GenomeParams::uniform(10_000), 14);
        let a = sampler(3.0).sample(&g.seq, 4);
        let b = sampler(3.0).sample(&g.seq, 4);
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.read(i), b.read(i));
        }
    }

    #[test]
    fn origin_overlap_len() {
        let a = ReadOrigin {
            start: 100,
            ref_len: 50,
            strand: Strand::Forward,
        };
        let b = ReadOrigin {
            start: 120,
            ref_len: 100,
            strand: Strand::Reverse,
        };
        assert_eq!(a.overlap_len(&b), 30);
        assert_eq!(b.overlap_len(&a), 30);
        let far = ReadOrigin {
            start: 1000,
            ref_len: 10,
            strand: Strand::Forward,
        };
        assert_eq!(a.overlap_len(&far), 0);
    }

    #[test]
    fn both_strands_appear() {
        let g = Genome::generate(GenomeParams::uniform(30_000), 15);
        let rs = sampler(5.0).sample(&g.seq, 5);
        let fwd = (0..rs.len())
            .filter(|&i| rs.origin(i).strand == Strand::Forward)
            .count();
        let rev = rs.len() - fwd;
        assert!(fwd > 0 && rev > 0);
        let ratio = fwd as f64 / rs.len() as f64;
        assert!((ratio - 0.5).abs() < 0.1, "forward ratio {ratio}");
    }
}
