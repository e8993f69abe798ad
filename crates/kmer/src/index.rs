//! Seed index: posting lists from retained k-mers to read positions.
//!
//! After the BELLA filter, every retained k-mer's occurrence list is the
//! witness set for candidate overlaps: any two reads on the same posting
//! list are a candidate pair, with the k-mer's positions in each read as
//! the alignment seed (paper Fig. 1).
//!
//! The lists are built by sorting. Each read's windows are sorted by
//! `(kmer, pos)` (chunks of reads in parallel, joined in read order), so
//! the head of every k-mer's run is the read's first occurrence; the
//! heads still in the count table are ranked against its
//! ascending k-mers, and a stable sort by rank lays the postings out in
//! one compressed-sparse-row store: keys, `u32` offsets, one posting array.

use crate::count::{radix_sort, KmerCounts};
use crate::kmer::{kmers_oriented, Kmer};
use crate::minimizer::minimizers;
use gnb_genome::ReadSet;
use rayon::prelude::*;

/// Reads are cut into this many chunks per pool worker, so that uneven
/// read lengths still leave the workers evenly loaded.
const CHUNKS_PER_WORKER: usize = 4;

/// `(rank in the count table, posting)` pairs, read after read.
type Seeds = Vec<(u32, Posting)>;

/// One occurrence of a retained k-mer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Read id.
    pub read: u32,
    /// Window start position within the read.
    pub pos: u32,
    /// `true` if the canonical k-mer equals the read's forward window here;
    /// two postings with differing `fwd` witness an opposite-strand overlap.
    pub fwd: bool,
}

/// Posting lists of retained k-mers, in compressed sparse rows: keys
/// ascend, and the list of `keys[i]` is `postings[offsets[i]..offsets[i +
/// 1]]`, sorted by read with one posting per read.
#[derive(Debug)]
pub struct SeedIndex {
    keys: Vec<Kmer>,
    offsets: Vec<u32>,
    postings: Vec<Posting>,
    /// k the index was built at.
    pub k: usize,
}

impl SeedIndex {
    /// Builds posting lists for every k-mer still present in `counts`
    /// (i.e. after [`KmerCounts::filter_frequency`] has been applied).
    ///
    /// Each read contributes at most one posting per (k-mer, read) pair —
    /// repeated occurrences of a k-mer within one read would only produce
    /// duplicate candidates with shifted seeds, and the paper extends
    /// exactly one seed per candidate pair.
    pub fn build(reads: &ReadSet, counts: &KmerCounts) -> Self {
        let k = counts.k;
        Self::from_windows(reads, counts, |seq| {
            kmers_oriented(seq, k).map(|(pos, km, fwd)| (km, pos as u32, fwd))
        })
    }

    /// As [`SeedIndex::build`], but each read contributes only its
    /// *minimizers* (window `w`, in k-mers) rather than every retained
    /// k-mer — the sparse seed-selection advance the paper anticipates
    /// ("simulating expected advances in seed-selection techniques", §4).
    /// Frequency filtering still applies: a minimizer whose k-mer was
    /// dropped by the BELLA interval contributes nothing.
    pub fn build_minimizers(reads: &ReadSet, counts: &KmerCounts, w: usize) -> Self {
        let k = counts.k;
        Self::from_windows(reads, counts, |seq| {
            minimizers(seq, k, w)
                .into_iter()
                .map(|m| (m.kmer, m.pos, m.fwd))
        })
    }

    /// The one builder; the seed modes differ only in `windows`, which
    /// yields a read's `(kmer, pos, fwd)` seeds in position order.
    fn from_windows<'a, I>(
        reads: &'a ReadSet,
        counts: &KmerCounts,
        windows: impl Fn(&'a [u8]) -> I + Sync,
    ) -> Self
    where
        I: Iterator<Item = (Kmer, u32, bool)>,
    {
        // Chunks of reads in parallel, concatenated in read order. Each
        // chunk's buffer is reserved here for all its windows, so the
        // workers never grow it (untouched capacity costs no resident
        // memory).
        let n = reads.len() as u32;
        let chunk = n.div_ceil(CHUNKS_PER_WORKER as u32 * rayon::current_num_threads() as u32);
        let chunks: Vec<(std::ops::Range<u32>, Seeds)> = (0..n)
            .step_by(chunk.max(1) as usize)
            .map(|lo| {
                let ids = lo..n.min(lo + chunk);
                let windows: usize = ids
                    .clone()
                    .map(|r| (reads.read_len(r as usize) + 1).saturating_sub(counts.k))
                    .sum();
                (ids, Vec::with_capacity(windows))
            })
            .collect();
        let chunks: Vec<Seeds> = chunks
            .into_par_iter()
            .map(|(ids, mut seeds)| {
                for read in ids {
                    let mut hits: Vec<(Kmer, u32, bool)> =
                        windows(reads.read(read as usize)).collect();
                    // Stable on position-ordered input: each k-mer's run
                    // starts at the read's first occurrence.
                    radix_sort(&mut hits, 2 * counts.k, |&(km, _, _)| km.0);
                    hits.dedup_by_key(|&mut (km, _, _)| km);
                    seeds.extend(hits.iter().filter_map(|&(km, pos, fwd)| {
                        Some((counts.rank(km)? as u32, Posting { read, pos, fwd }))
                    }));
                }
                seeds
            })
            .collect();
        let mut seeds = chunks.concat();
        drop(chunks);
        // Stable again, so every list keeps its postings in read order.
        let rank_bits = usize::BITS - counts.distinct().leading_zeros();
        radix_sort(&mut seeds, rank_bits as usize, |&(rank, _)| rank as u64);

        let mut index = SeedIndex {
            keys: Vec::new(),
            offsets: vec![0],
            postings: Vec::with_capacity(seeds.len()),
            k: counts.k,
        };
        for run in seeds.chunk_by(|x, y| x.0 == y.0) {
            index.keys.push(counts.kmer_at(run[0].0 as usize));
            index.postings.extend(run.iter().map(|&(_, p)| p));
            index.offsets.push(index.postings.len() as u32);
        }
        index
    }

    fn list(&self, i: usize) -> &[Posting] {
        &self.postings[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Posting list of `km`, if retained.
    pub fn get(&self, km: Kmer) -> Option<&[Posting]> {
        let i = self.keys.binary_search(&km).ok()?;
        Some(self.list(i))
    }

    /// Number of distinct retained k-mers with at least one posting.
    pub fn distinct(&self) -> usize {
        self.keys.len()
    }

    /// Iterates all `(kmer, posting list)` pairs in ascending k-mer order.
    pub fn iter(&self) -> impl Iterator<Item = (Kmer, &[Posting])> + '_ {
        self.keys
            .iter()
            .enumerate()
            .map(|(i, &km)| (km, self.list(i)))
    }

    /// Total number of postings.
    pub fn total_postings(&self) -> usize {
        self.postings.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::count_kmers_serial;
    use gnb_genome::reads::{ReadOrigin, ReadSet, Strand};

    fn set(seqs: &[&[u8]]) -> ReadSet {
        let mut rs = ReadSet::new();
        for s in seqs {
            rs.push(
                s,
                ReadOrigin {
                    start: 0,
                    ref_len: s.len(),
                    strand: Strand::Forward,
                },
            );
        }
        rs
    }

    #[test]
    fn postings_point_back_to_reads() {
        let reads = set(&[b"ACGTACGTGGCC", b"TTACGTACGAAT"]);
        let counts = count_kmers_serial(&reads, 5);
        let idx = SeedIndex::build(&reads, &counts);
        for (km, list) in idx.iter() {
            for p in list {
                let seq = reads.read(p.read as usize);
                let window = &seq[p.pos as usize..p.pos as usize + 5];
                let got = Kmer::from_seq(window, 5).unwrap().canonical(5);
                assert_eq!(got, km);
            }
        }
    }

    #[test]
    fn filtered_kmers_have_no_postings() {
        let reads = set(&[b"AAAAAAAAAA", b"ACGTACGTAC"]);
        let mut counts = count_kmers_serial(&reads, 4);
        counts.filter_frequency(2, 3);
        let idx = SeedIndex::build(&reads, &counts);
        let poly_a = Kmer::from_seq(b"AAAA", 4).unwrap().canonical(4);
        assert!(idx.get(poly_a).is_none());
    }

    #[test]
    fn one_posting_per_read_per_kmer() {
        // "ACGTACGTACGT" contains ACGT at positions 0, 4, 8 — the index
        // must record only the first.
        let reads = set(&[b"ACGTACGTACGT"]);
        let counts = count_kmers_serial(&reads, 4);
        let idx = SeedIndex::build(&reads, &counts);
        let km = Kmer::from_seq(b"ACGT", 4).unwrap().canonical(4);
        let list = idx.get(km).unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!(
            list[0],
            Posting {
                read: 0,
                pos: 0,
                fwd: true,
            }
        );
    }

    #[test]
    fn shared_kmer_links_two_reads() {
        // Both reads contain the 8-mer ACGTACGG (read 1 in reverse
        // complement via canonicalization would also count).
        let reads = set(&[b"GGGGACGTACGGCC", b"TTTTACGTACGGTT"]);
        let counts = count_kmers_serial(&reads, 8);
        let idx = SeedIndex::build(&reads, &counts);
        // Find any k-mer with postings in both reads.
        let mut linked = false;
        for (_, list) in idx.iter() {
            let r0 = list.iter().any(|p| p.read == 0);
            let r1 = list.iter().any(|p| p.read == 1);
            if r0 && r1 {
                linked = true;
            }
        }
        assert!(linked, "the shared 8-mer window should link the reads");
    }

    #[test]
    fn minimizer_index_is_sparser_but_consistent() {
        let preset = gnb_genome::presets::ecoli_30x().scaled(1024);
        let reads = preset.generate(41);
        let counts = count_kmers_serial(&reads, 15);
        let full = SeedIndex::build(&reads, &counts);
        let mini = SeedIndex::build_minimizers(&reads, &counts, 10);
        assert!(
            mini.total_postings() * 3 < full.total_postings(),
            "minimizers must thin the index: {} vs {}",
            mini.total_postings(),
            full.total_postings()
        );
        // Every minimizer posting points at a real window of the read.
        for (km, list) in mini.iter() {
            for p in list {
                let seq = reads.read(p.read as usize);
                let window = &seq[p.pos as usize..p.pos as usize + 15];
                assert_eq!(Kmer::from_seq(window, 15).unwrap().canonical(15), km);
            }
        }
    }

    #[test]
    fn minimizer_index_respects_filter() {
        let reads = set(&[b"AAAAAAAAAAAAAAAA", b"ACGTACGTACGTACGT"]);
        let mut counts = count_kmers_serial(&reads, 4);
        counts.filter_frequency(2, 3); // drops the poly-A 4-mer (count 13)
        let idx = SeedIndex::build_minimizers(&reads, &counts, 3);
        let poly_a = Kmer::from_seq(b"AAAA", 4).unwrap().canonical(4);
        assert!(idx.get(poly_a).is_none());
    }

    #[test]
    fn posting_lists_sorted_by_read() {
        let reads = set(&[b"CCACGTACGG", b"AAACGTACTT", b"GGACGTACAA"]);
        let counts = count_kmers_serial(&reads, 8);
        let idx = SeedIndex::build(&reads, &counts);
        for (_, list) in idx.iter() {
            for w in list.windows(2) {
                assert!((w[0].read, w[0].pos) <= (w[1].read, w[1].pos));
            }
        }
        assert!(idx.total_postings() >= idx.distinct());
    }
}
