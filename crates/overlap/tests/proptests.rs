//! Property-based tests for candidate generation, partitioning, and the
//! task stores. Redistribution and exchange loads are tested on
//! `SimWorkload::prepare` in `gnb-core`.

use gnb_align::Candidate;
use gnb_genome::reads::{ReadOrigin, ReadSet, Strand};
use gnb_genome::revcomp;
use gnb_kmer::{count_kmers, SeedIndex};
use gnb_overlap::candidates::generate_candidates;
use gnb_overlap::partition::Partition;
use gnb_overlap::store::{FlatTaskStore, PointerTaskStore, TaskStore};
use proptest::prelude::*;
fn lengths(max_reads: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(50usize..5000, 1..max_reads)
}

/// The expand–sort–dedup candidate generator that preceded per-read
/// accumulation, kept verbatim as the oracle.
fn expand_sort_dedup(index: &SeedIndex) -> Vec<Candidate> {
    let k = index.k;
    // Expand all pairs per k-mer. Posting lists were already capped by the
    // BELLA upper frequency bound, so the quadratic expansion per k-mer is
    // bounded by hi².
    let mut pairs: Vec<Candidate> = index
        .iter()
        .flat_map(|(_, list)| {
            let mut out = Vec::with_capacity(list.len() * (list.len().saturating_sub(1)) / 2);
            for i in 0..list.len() {
                for j in (i + 1)..list.len() {
                    let (p, q) = (list[i], list[j]);
                    if p.read == q.read {
                        continue; // self-pairs carry no overlap information
                    }
                    // Normalise to a < b (posting lists are sorted by read).
                    debug_assert!(p.read < q.read);
                    out.push(Candidate {
                        a: p.read,
                        b: q.read,
                        a_pos: p.pos,
                        b_pos: q.pos,
                        same_strand: p.fwd == q.fwd,
                    });
                }
            }
            out
        })
        .collect();
    let _ = k;

    // One seed per pair: order so the kept seed is deterministic.
    pairs.sort_unstable_by_key(|c| (c.a, c.b, c.a_pos, c.b_pos, !c.same_strand));
    pairs.dedup_by_key(|c| (c.a, c.b));
    pairs
}

fn dna(min: usize, max: usize, n_weight: u32) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            9 => prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T')],
            n_weight => Just(b'N')
        ],
        min..max,
    )
}

/// Reads that share k-mers often and on both strands: random DNA with
/// `N`s, plus copies of earlier reads that are reverse-complemented or
/// prefixed with a tandem repeat of a short unit.
fn overlapping_reads() -> impl Strategy<Value = ReadSet> {
    let derived = (0usize..16, 0u8..2, dna(1, 6, 0), 2usize..12);
    (
        proptest::collection::vec(dna(0, 90, 1), 1..10),
        proptest::collection::vec(derived, 0..8),
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
            let mut rs = ReadSet::new();
            for s in seqs {
                let origin = ReadOrigin {
                    start: 0,
                    ref_len: s.len(),
                    strand: Strand::Forward,
                };
                rs.push(&s, origin);
            }
            rs
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Per-read accumulation keeps the same pairs, seeds, strands and
    /// order as expanding and sorting every seed pair, in both seed modes.
    #[test]
    fn candidates_match_expand_sort_dedup(
        reads in overlapping_reads(),
        k in 3usize..=9,
        lo in 1u32..3,
        span in 0u32..12,
        w in 1usize..6,
    ) {
        let mut counts = count_kmers(&reads, k);
        counts.filter_frequency(lo, lo + span);
        for index in [
            SeedIndex::build(&reads, &counts),
            SeedIndex::build_minimizers(&reads, &counts, w),
        ] {
            prop_assert_eq!(generate_candidates(&index), expand_sort_dedup(&index));
        }
    }

    /// The blind partition covers all reads contiguously and conserves
    /// bytes.
    #[test]
    fn partition_covers(lens in lengths(200), nranks in 1usize..20) {
        let p = Partition::blind(&lens, nranks);
        prop_assert_eq!(p.ranges.len(), nranks);
        prop_assert_eq!(p.ranges[0].0, 0);
        for w in p.ranges.windows(2) {
            prop_assert_eq!(w[0].1, w[1].0);
        }
        prop_assert_eq!(p.ranges.last().unwrap().1 as usize, lens.len());
        let total: u64 = lens.iter().map(|&l| l as u64).sum();
        prop_assert_eq!(p.bytes.iter().sum::<u64>(), total);
        for (r, &o) in p.owner.iter().enumerate() {
            let (b, e) = p.ranges[o as usize];
            prop_assert!((b as usize) <= r && r < e as usize);
        }
    }

    /// Flat and pointer stores traverse identical content.
    #[test]
    fn stores_agree(groups in proptest::collection::vec(
        (0u32..50, proptest::collection::vec((0u32..100, 0u32..100), 1..6)),
        0..12
    )) {
        // Dedup group keys (pointer store merges; flat keeps separate) by
        // making keys unique.
        let mut seen = std::collections::BTreeSet::new();
        let groups: Vec<(u32, Vec<Candidate>)> = groups
            .into_iter()
            .filter(|(k, _)| seen.insert(*k))
            .map(|(k, ts)| {
                (
                    k,
                    ts.into_iter()
                        .map(|(a, b)| Candidate {
                            a,
                            b: b + 100,
                            a_pos: 0,
                            b_pos: 0,
                            same_strand: (a + b) % 2 == 0,
                        })
                        .collect(),
                )
            })
            .collect();
        let flat = FlatTaskStore::from_groups(groups.clone());
        let ptr = PointerTaskStore::from_groups(groups.clone());
        #[expect(clippy::type_complexity, reason = "a test-local adapter over both stores' traversal callbacks")]
        let collect = |s: &dyn Fn(&mut dyn FnMut(u32, &Candidate))| {
            let mut out = Vec::new();
            s(&mut |k, c| out.push((k, *c)));
            out
        };
        let f = collect(&|v| flat.traverse(v));
        let g = collect(&|v| ptr.traverse(v));
        prop_assert_eq!(f, g);
        prop_assert_eq!(flat.task_count(), ptr.task_count());
        prop_assert_eq!(flat.group_count(), ptr.group_count());
    }
}
