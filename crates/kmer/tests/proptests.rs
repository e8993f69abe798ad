//! Property-based tests for k-mer packing, canonicalization, counting and
//! the seed index.

use gnb_genome::reads::{ReadOrigin, ReadSet, Strand};
use gnb_genome::revcomp;
use gnb_kmer::minimizer::minimizers;
use gnb_kmer::{
    count_kmers, count_kmers_serial, kmers_of, kmers_oriented, Kmer, KmerCounts, Posting, SeedIndex,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn dna(min: usize, max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T')],
        min..max,
    )
}

fn dna_with_n(min: usize, max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            9 => prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T')],
            1 => Just(b'N')
        ],
        min..max,
    )
}

fn read_set(seqs: Vec<Vec<u8>>) -> ReadSet {
    let mut rs = ReadSet::new();
    for s in seqs {
        rs.push(
            &s,
            ReadOrigin {
                start: 0,
                ref_len: s.len(),
                strand: Strand::Forward,
            },
        );
    }
    rs
}

/// Reads that make k-mers recur within a read, across reads and on both
/// strands: random DNA with `N`s, plus copies of earlier reads that are
/// reverse-complemented or prefixed with a tandem repeat of a short unit.
fn tricky_reads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let derived = (0usize..16, 0u8..2, dna(1, 6), 2usize..12);
    (
        proptest::collection::vec(dna_with_n(0, 90), 1..10),
        proptest::collection::vec(derived, 0..6),
    )
        .prop_map(|(mut seqs, derived)| {
            for (from, kind, unit, copies) in derived {
                let src = &seqs[from % seqs.len()];
                let copy = match kind {
                    0 => revcomp(src),
                    _ => [unit.repeat(copies), src.clone()].concat(),
                };
                seqs.push(copy);
            }
            seqs
        })
}

/// The index a `BTreeMap` model predicts from `(pos, kmer, fwd)` seeds:
/// per retained k-mer, each read's first occurrence, by read.
fn first_occurrences<'a, I>(
    rs: &'a ReadSet,
    counts: &KmerCounts,
    seeds: impl Fn(&'a [u8]) -> I,
) -> BTreeMap<Kmer, Vec<Posting>>
where
    I: Iterator<Item = (u32, Kmer, bool)>,
{
    let mut model: BTreeMap<Kmer, Vec<Posting>> = BTreeMap::new();
    for (read, seq) in rs.iter() {
        for (pos, km, fwd) in seeds(seq) {
            if counts.get(km) > 0 {
                let list = model.entry(km).or_default();
                if list.last().is_none_or(|p| p.read != read) {
                    list.push(Posting { read, pos, fwd });
                }
            }
        }
    }
    model
}

fn index_matches(
    index: &SeedIndex,
    model: &BTreeMap<Kmer, Vec<Posting>>,
) -> Result<(), TestCaseError> {
    let got: BTreeMap<Kmer, Vec<Posting>> = index.iter().map(|(km, l)| (km, l.to_vec())).collect();
    prop_assert_eq!(&got, model);
    prop_assert_eq!(index.distinct(), model.len());
    let postings: usize = model.values().map(Vec::len).sum();
    prop_assert_eq!(index.total_postings(), postings);
    for (&km, list) in model {
        prop_assert_eq!(index.get(km), Some(list.as_slice()));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Both seed modes keep exactly each read's first occurrence of every
    /// retained k-mer, under any frequency interval.
    #[test]
    fn index_matches_first_occurrence_model(
        seqs in tricky_reads(),
        k in 1usize..=9,
        lo in 1u32..4,
        span in 0u32..8,
        w in 1usize..6,
    ) {
        let rs = read_set(seqs);
        let mut counts = count_kmers(&rs, k);
        counts.filter_frequency(lo, lo + span);
        let mut oracle = count_kmers_serial(&rs, k);
        oracle.filter_frequency(lo, lo + span);

        let all = first_occurrences(&rs, &oracle, |seq| {
            kmers_oriented(seq, k).map(|(pos, km, fwd)| (pos as u32, km, fwd))
        });
        index_matches(&SeedIndex::build(&rs, &counts), &all)?;
        let mini = first_occurrences(&rs, &oracle, |seq| {
            minimizers(seq, k, w).into_iter().map(|m| (m.pos, m.kmer, m.fwd))
        });
        index_matches(&SeedIndex::build_minimizers(&rs, &counts, w), &mini)?;
    }

    /// Pack/unpack round-trips for every k.
    #[test]
    fn pack_round_trip(s in dna(32, 33), k in 1usize..=32) {
        let km = Kmer::from_seq(&s, k).unwrap();
        prop_assert_eq!(km.to_seq(k), s[..k].to_vec());
    }

    /// Packed revcomp equals string revcomp.
    #[test]
    fn packed_revcomp_matches(s in dna(32, 33), k in 1usize..=32) {
        let km = Kmer::from_seq(&s, k).unwrap();
        prop_assert_eq!(km.revcomp(k).to_seq(k), revcomp(&s[..k]));
    }

    /// Canonical form is idempotent and strand-invariant.
    #[test]
    fn canonical_invariants(s in dna(32, 33), k in 1usize..=32) {
        let km = Kmer::from_seq(&s, k).unwrap();
        let canon = km.canonical(k);
        prop_assert_eq!(canon.canonical(k), canon);
        prop_assert_eq!(km.revcomp(k).canonical(k), canon);
        prop_assert!(canon <= km);
    }

    /// The iterator yields exactly the N-free windows, canonicalised.
    #[test]
    fn iterator_matches_naive(s in dna_with_n(0, 120), k in 1usize..=32) {
        let got: Vec<(usize, Kmer)> = kmers_of(&s, k).collect();
        let mut expect = Vec::new();
        for pos in 0..s.len().saturating_sub(k - 1) {
            if let Some(km) = Kmer::from_seq(&s[pos..], k) {
                expect.push((pos, km.canonical(k)));
            }
        }
        prop_assert_eq!(got, expect);
    }

    /// Parallel counting agrees with serial counting.
    #[test]
    fn parallel_counting_agrees(seqs in proptest::collection::vec(dna_with_n(0, 80), 0..20), k in 1usize..=9) {
        let rs = read_set(seqs);
        let par = count_kmers(&rs, k);
        let ser = count_kmers_serial(&rs, k);
        prop_assert_eq!(par.distinct(), ser.distinct());
        prop_assert_eq!(par.total(), ser.total());
        for (km, c) in ser.iter() {
            prop_assert_eq!(par.get(km), c);
        }
    }

    /// A read and its reverse complement produce identical canonical
    /// k-mer multisets.
    #[test]
    fn strand_invariant_counting(s in dna(10, 100), k in 1usize..=9) {
        let rc = revcomp(&s);
        let a = count_kmers_serial(&read_set(vec![s]), k);
        let b = count_kmers_serial(&read_set(vec![rc]), k);
        prop_assert_eq!(a.total(), b.total());
        for (km, c) in a.iter() {
            prop_assert_eq!(b.get(km), c);
        }
    }
}
