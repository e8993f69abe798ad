//! Candidate pair generation from a seed index.
//!
//! Every pair of reads appearing on the same retained k-mer's posting list
//! is an overlap candidate; the k-mer's positions in the two reads form the
//! seed. Exactly one seed is kept per pair — the paper explores "1 seed per
//! overlap candidate, simulating expected advances in seed-selection
//! techniques" (§4) — chosen deterministically as the smallest
//! `(a_pos, b_pos)` seed of the pair, same-strand first on a tie.
//!
//! Pairs are never materialised: the posting lists are transposed by read,
//! and each read `a` folds the lists it sits on into one best seed per
//! partner `b > a`, in dense scratch indexed by `b`.

use gnb_align::Candidate;
use gnb_kmer::{Posting, SeedIndex};

/// Generates the deduplicated candidate set from `index`.
///
/// Candidates are normalised so `a < b`, sorted by `(a, b)`, and
/// deterministic regardless of index storage order or thread count.
pub fn generate_candidates(index: &SeedIndex) -> Vec<Candidate> {
    // Each posting, as the rest of its list from there on. A list ascends
    // by read with one posting per read, so past the head: later reads.
    // The read rides beside the tail so the sort never dereferences it.
    let mut tails: Vec<(u32, &[Posting])> = index
        .iter()
        .flat_map(|(_, list)| (0..list.len()).map(move |j| (list[j].read, &list[j..])))
        .collect();
    tails.sort_unstable_by_key(|&(read, _)| read);

    let nreads = tails.last().map_or(0, |&(read, _)| read as usize + 1);
    // Per partner: the read that last touched it, and its best seed
    // `(a_pos, b_pos, opposite strands)` then. Never cleared between reads.
    let mut best = vec![(u32::MAX, (0, 0, false)); nreads];
    let (mut out, mut touched) = (Vec::new(), Vec::new());
    // Each read is independent of the others: a pool can chunk this loop.
    for group in tails.chunk_by(|x, y| x.0 == y.0) {
        let a = group[0].0;
        touched.clear();
        for (p, later) in group.iter().filter_map(|(_, tail)| tail.split_first()) {
            for q in later {
                let seed = (p.pos, q.pos, p.fwd != q.fwd);
                let slot = &mut best[q.read as usize];
                if slot.0 != a {
                    *slot = (a, seed);
                    touched.push(q.read);
                } else if seed < slot.1 {
                    slot.1 = seed;
                }
            }
        }
        touched.sort_unstable();
        out.extend(touched.iter().map(|&b| {
            let (_, (a_pos, b_pos, opposite)) = best[b as usize];
            Candidate {
                a,
                b,
                a_pos,
                b_pos,
                same_strand: !opposite,
            }
        }));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnb_genome::presets;
    use gnb_genome::reads::{ReadOrigin, ReadSet, Strand};
    use gnb_kmer::{count_kmers_serial, BellaModel, SeedIndex};

    fn index_of(reads: &ReadSet, k: usize, lo: u32, hi: u32) -> SeedIndex {
        let mut counts = count_kmers_serial(reads, k);
        counts.filter_frequency(lo, hi);
        SeedIndex::build(reads, &counts)
    }

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
    fn shared_kmer_produces_one_candidate() {
        // Reads 0 and 1 share the 8-mer "ACGTACGG" (twice would still give
        // one candidate), read 2 is unrelated.
        let reads = set(&[b"GGGGACGTACGGCC", b"TTTTACGTACGGTT", b"CACACACACACACA"]);
        let cands = generate_candidates(&index_of(&reads, 8, 2, 10));
        assert_eq!(cands.len(), 1);
        let c = cands[0];
        assert_eq!((c.a, c.b), (0, 1));
        assert!(c.same_strand);
        assert_eq!(c.a_pos, 4);
        assert_eq!(c.b_pos, 4);
    }

    #[test]
    fn opposite_strand_pair_flagged() {
        let a = b"GGGGACGTTACGGCCA";
        let rc: Vec<u8> = gnb_genome::revcomp(a);
        let reads = set(&[a, &rc]);
        let cands = generate_candidates(&index_of(&reads, 8, 2, 10));
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(!c.same_strand, "revcomp pair must be opposite-strand");
        }
    }

    #[test]
    fn no_self_candidates() {
        // A read with an internal repeat shares k-mers with itself only.
        let reads = set(&[b"ACGTACGGAAAACGTACGG"]);
        let cands = generate_candidates(&index_of(&reads, 8, 2, 10));
        assert!(cands.is_empty());
    }

    #[test]
    fn one_seed_per_pair_even_with_many_shared_kmers() {
        // Long identical reads share every k-mer; still exactly 1 candidate.
        let core = b"ACGGATTACAGGATCCGATTACAGTCCGGAT";
        let reads = set(&[core, core]);
        let cands = generate_candidates(&index_of(&reads, 8, 2, 10));
        assert_eq!(cands.len(), 1);
        // Deterministically the smallest seed position.
        assert_eq!((cands[0].a_pos, cands[0].b_pos), (0, 0));
    }

    #[test]
    fn candidates_sorted_and_normalised() {
        let preset = presets::ecoli_30x().scaled(2048);
        let reads = preset.generate(21);
        let model = BellaModel::new(preset.coverage, 0.15, 17);
        let (lo, hi) = model.reliable_interval();
        let cands = generate_candidates(&index_of(&reads, 17, lo, hi));
        assert!(!cands.is_empty(), "a 30x dataset must produce candidates");
        for w in cands.windows(2) {
            assert!((w[0].a, w[0].b) < (w[1].a, w[1].b), "sorted, deduped");
        }
        for c in &cands {
            assert!(c.a < c.b);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let preset = presets::ecoli_30x().scaled(4096);
        let reads = preset.generate(22);
        let a = generate_candidates(&index_of(&reads, 17, 2, 8));
        let b = generate_candidates(&index_of(&reads, 17, 2, 8));
        assert_eq!(a, b);
    }

    #[test]
    fn true_overlaps_are_found() {
        // Validation against ground truth: most reads that genuinely
        // overlap by >= 1kb on the genome should appear as candidates.
        let mut preset = presets::ecoli_30x().scaled(1024);
        preset.errors = gnb_genome::ErrorModel::clr(0.10);
        let reads = preset.generate(23);
        let model = BellaModel::new(preset.coverage, 0.10, 17);
        let (lo, hi) = model.reliable_interval();
        let cands = generate_candidates(&index_of(&reads, 17, lo, hi));
        let (found, true_pairs) = crate::synth::recall(&reads, &cands, 1000);
        assert!(true_pairs > 50, "need a meaningful truth set: {true_pairs}");
        let recall = found as f64 / true_pairs as f64;
        assert!(recall > 0.6, "recall {recall} ({found}/{true_pairs})");
    }
}
