//! Property-based proof obligations for the inter-sequence batched kernel's
//! bit-identity contract: on any DNA-with-N batch, [`BatchedXDropAligner`]
//! must return exactly the same [`Extension`] per pair — score, both
//! extents, *and* the cell count — as the scalar reference kernel, on every
//! ISA path this host can run, including the `i16` → `i32` overflow-retry
//! route for pairs that fail the exactness precheck.
//!
//! These properties make `KernelImpl` a pure performance choice: batch
//! records, simulator task costs, and TSVs are provably independent of
//! which kernel ran.

use gnb_align::interseq::{align_candidates_batched, eligible_i16};
use gnb_align::seed_extend::{align_candidate_with, AcceptCriteria, Candidate, SeedExtendScratch};
use gnb_align::xdrop::xdrop_extend;
use gnb_align::{batch::AlignParams, BatchedXDropAligner, IsaPath, PackedView, ScoringScheme};
use gnb_genome::reads::{ReadOrigin, Strand};
use gnb_genome::{PackedSeq, ReadSet};
use proptest::prelude::*;

fn dna_with_n(min_len: usize, max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T'), Just(b'N')],
        min_len..max_len,
    )
}

fn scheme() -> impl Strategy<Value = ScoringScheme> {
    (1..4i32, -4..-1i32, -4..-1i32).prop_map(|(m, x, g)| ScoringScheme::new(m, x, g))
}

/// ASCII bases of a view, for feeding the byte-level scalar reference.
fn view_bytes(v: &PackedView<'_>) -> Vec<u8> {
    (0..v.len())
        .map(|i| {
            if v.is_n(i) {
                b'N'
            } else {
                b"ACGT"[v.code(i) as usize]
            }
        })
        .collect()
}

/// Every ISA path this host can actually execute.
fn available_paths() -> Vec<IsaPath> {
    [IsaPath::Portable, IsaPath::Avx2, IsaPath::Avx512]
        .into_iter()
        .filter(|p| p.is_available())
        .collect()
}

const K: usize = 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Raw batch equivalence on every available ISA path: ragged lengths
    /// (including empty sequences), arbitrary pair counts spanning several
    /// lane widths, N bases, varied schemes and thresholds. Pair counts
    /// above the lane width exercise mid-bucket lane refill; short decoy
    /// pairs die early and force refill while long pairs still run.
    #[test]
    fn batched_extension_matches_scalar(
        seqs in proptest::collection::vec(
            (dna_with_n(0, 200), dna_with_n(0, 200)), 1..40),
        x in 0..80i32,
        sc in scheme(),
    ) {
        let packed: Vec<(PackedSeq, PackedSeq)> = seqs
            .iter()
            .map(|(a, b)| (PackedSeq::from_bytes(a), PackedSeq::from_bytes(b)))
            .collect();
        let pairs: Vec<(PackedView<'_>, PackedView<'_>)> = packed
            .iter()
            .map(|(pa, pb)| (PackedView::full(pa.as_slice()), PackedView::full(pb.as_slice())))
            .collect();
        let reference: Vec<_> = seqs
            .iter()
            .map(|(a, b)| xdrop_extend(a, b, &sc, x))
            .collect();
        for path in available_paths() {
            let mut eng = BatchedXDropAligner::with_path(path);
            let got = eng.extend_batch(&pairs, &sc, x);
            prop_assert_eq!(&got, &reference, "path {:?}", path);
        }
    }

    /// Reverse and reverse-complement views (the exact slices the candidate
    /// workflow feeds the engine) must round-trip bit-identically too, both
    /// through the striped gather and through the retry route's decoder.
    #[test]
    fn batched_matches_scalar_on_rev_comp_views(
        seqs in proptest::collection::vec(
            (dna_with_n(1, 150), dna_with_n(1, 150)), 1..18),
        cut_raw in 0usize..1000,
        x in 0..60i32,
        x_retry in 4097..1_000_000i32,
    ) {
        let sc = ScoringScheme::DEFAULT;
        let packed: Vec<(PackedSeq, PackedSeq)> = seqs
            .iter()
            .map(|(a, b)| (PackedSeq::from_bytes(a), PackedSeq::from_bytes(b)))
            .collect();
        // Left-extension geometry: reversed prefix of `a` against the
        // reverse-complemented (strand-normalised) prefix of `b`.
        let mut pairs = Vec::new();
        let mut bytes = Vec::new();
        for ((pa, pb), (a, b)) in packed.iter().zip(&seqs) {
            let cut_a = cut_raw % (a.len() + 1);
            let cut_b = cut_raw % (b.len() + 1);
            let va = PackedView::full(pa.as_slice()).rev_prefix(cut_a);
            let vb = PackedView::full(pb.as_slice()).revcomp().suffix(b.len() - cut_b);
            pairs.push((va, vb));
            bytes.push((view_bytes(&va), view_bytes(&vb)));
        }
        let reference: Vec<_> = bytes
            .iter()
            .map(|(a, b)| xdrop_extend(a, b, &sc, x))
            .collect();
        // Above the i16 bound on `x` every pair takes the i32 retry route,
        // which must read the same derived views just as exactly.
        let retry_reference: Vec<_> = bytes
            .iter()
            .map(|(a, b)| xdrop_extend(a, b, &sc, x_retry))
            .collect();
        for path in available_paths() {
            let mut eng = BatchedXDropAligner::with_path(path);
            let got = eng.extend_batch(&pairs, &sc, x);
            prop_assert_eq!(&got, &reference, "path {:?}", path);
            let mut eng = BatchedXDropAligner::with_path(path);
            let got = eng.extend_batch(&pairs, &sc, x_retry);
            prop_assert_eq!(&got, &retry_reference, "retry, path {:?}", path);
            prop_assert_eq!(eng.stats().fallback_tasks, pairs.len() as u64);
        }
    }

    /// An engine reused across batches (the production pattern) behaves
    /// exactly like a fresh one: no scratch-state leaks between calls.
    #[test]
    fn batched_engine_reuse_is_stateless(
        batches in proptest::collection::vec(
            proptest::collection::vec(
                (dna_with_n(0, 100), dna_with_n(0, 100)), 1..12),
            1..4),
        x in 0..50i32,
        x_retry in 4097..1_000_000i32,
    ) {
        let sc = ScoringScheme::DEFAULT;
        let mut shared = BatchedXDropAligner::new();
        for batch in &batches {
            let packed: Vec<(PackedSeq, PackedSeq)> = batch
                .iter()
                .map(|(a, b)| (PackedSeq::from_bytes(a), PackedSeq::from_bytes(b)))
                .collect();
            let pairs: Vec<(PackedView<'_>, PackedView<'_>)> = packed
                .iter()
                .map(|(pa, pb)| {
                    (PackedView::full(pa.as_slice()), PackedView::full(pb.as_slice()))
                })
                .collect();
            // Each batch runs once on the i16 lanes and once on the i32
            // retry route, so the retry's reused buffers see every length.
            for (x, retried) in [(x, 0), (x_retry, pairs.len() as u64)] {
                let before = shared.stats().fallback_tasks;
                let got = shared.extend_batch(&pairs, &sc, x);
                let fresh = BatchedXDropAligner::new().extend_batch(&pairs, &sc, x);
                prop_assert_eq!(&got, &fresh);
                for (ext, (a, b)) in got.iter().zip(batch) {
                    prop_assert_eq!(ext, &xdrop_extend(a, b, &sc, x));
                }
                prop_assert_eq!(shared.stats().fallback_tasks - before, retried);
            }
        }
    }

    /// Full candidate workflow equivalence through `align_batch`: batched
    /// records must equal the scalar per-candidate reference field for
    /// field on both strands, including the bucketed longest-first
    /// schedule's scatter back to input order.
    #[test]
    fn batched_candidates_match_scalar_both_strands(
        seqs in proptest::collection::vec(
            (dna_with_n(K, 250), dna_with_n(K, 250)), 1..10),
        apos_raw in 0usize..1000,
        bpos_raw in 0usize..1000,
        same_strand in any::<bool>(),
        x in 0..60i32,
        sc in scheme(),
    ) {
        let o = ReadOrigin { start: 0, ref_len: 0, strand: Strand::Forward };
        let mut reads = ReadSet::new();
        let mut cands = Vec::new();
        for (i, (a, b)) in seqs.iter().enumerate() {
            reads.push(a, o);
            reads.push(b, o);
            cands.push(Candidate {
                a: 2 * i as u32,
                b: 2 * i as u32 + 1,
                a_pos: (apos_raw % (a.len() - K + 1)) as u32,
                b_pos: (bpos_raw % (b.len() - K + 1)) as u32,
                same_strand,
            });
        }
        let params = AlignParams {
            k: K,
            scoring: sc,
            x,
            criteria: AcceptCriteria::default(),
            kernel: gnb_align::KernelImpl::Batched,
        };
        let mut scratch = SeedExtendScratch::new();
        let reference: Vec<_> = cands
            .iter()
            .map(|c| {
                align_candidate_with(
                    &mut scratch,
                    reads.read(c.a as usize),
                    reads.read(c.b as usize),
                    c,
                    K,
                    &sc,
                    x,
                    &params.criteria,
                )
            })
            .collect();
        let (records, stats) = align_candidates_batched(&reads, &cands, &params);
        prop_assert_eq!(&records, &reference);
        prop_assert_eq!(stats.tasks, 2 * cands.len() as u64);
    }
}

/// The `i16` → `i32` overflow-retry route: a scheme that fails the
/// exactness precheck (match score too large) must route every pair to the
/// scalar reference and still return bit-identical extensions, for any
/// threshold the reference accepts.
#[test]
fn ineligible_scheme_takes_retry_path_bit_identically() {
    let sc = ScoringScheme::new(2000, -2000, -2000);
    let bases = b"ACGT";
    let mk = |seed: usize, n: usize| -> Vec<u8> {
        (0..n)
            .map(|i| bases[(i * 7 + seed * 13 + i / 3) % 4])
            .collect()
    };
    let seqs: Vec<(Vec<u8>, Vec<u8>)> = (0..12)
        .map(|s| {
            let a = mk(s, 120 + 10 * s);
            let mut b = a.clone();
            if s % 3 == 0 {
                for i in (0..b.len()).step_by(17) {
                    b[i] = bases[(b[i] as usize + 1) % 4];
                }
            }
            (a, b)
        })
        .collect();
    assert!(seqs
        .iter()
        .all(|(a, b)| !eligible_i16(a.len(), b.len(), &sc, 0)));
    let packed: Vec<(PackedSeq, PackedSeq)> = seqs
        .iter()
        .map(|(a, b)| (PackedSeq::from_bytes(a), PackedSeq::from_bytes(b)))
        .collect();
    let pairs: Vec<(PackedView<'_>, PackedView<'_>)> = packed
        .iter()
        .map(|(pa, pb)| {
            (
                PackedView::full(pa.as_slice()),
                PackedView::full(pb.as_slice()),
            )
        })
        .collect();
    for x in [40, (1 << 28) + 1] {
        let mut eng = BatchedXDropAligner::new();
        let got = eng.extend_batch(&pairs, &sc, x);
        for (ext, (a, b)) in got.iter().zip(&seqs) {
            assert_eq!(ext, &xdrop_extend(a, b, &sc, x), "x = {x}");
        }
        assert_eq!(eng.stats().fallback_tasks, pairs.len() as u64);
    }
}

/// A mixed batch — long near-identical overlaps seated beside short decoys
/// that die within a few diagonals — forces lane refill mid-bucket on every
/// path, and must stay bit-identical while reporting high occupancy.
#[test]
fn lane_refill_mid_bucket_stays_bit_identical() {
    let sc = ScoringScheme::DEFAULT;
    let x = 30;
    let bases = b"ACGT";
    let mk = |seed: usize, n: usize| -> Vec<u8> {
        (0..n)
            .map(|i| bases[(i * 11 + seed * 17 + i / 7) % 4])
            .collect()
    };
    let mut seqs: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for s in 0..80 {
        if s % 2 == 0 {
            // True overlap: ~5% substitutions, runs for thousands of cells.
            let a = mk(s, 1400 + 20 * (s % 7));
            let mut b = a.clone();
            for i in (0..b.len()).step_by(21) {
                b[i] = bases[(b[i] as usize + 1) % 4];
            }
            seqs.push((a, b));
        } else {
            // Decoy: unrelated short pair, dies almost immediately.
            seqs.push((mk(s, 90), mk(s + 1000, 90)));
        }
    }
    let packed: Vec<(PackedSeq, PackedSeq)> = seqs
        .iter()
        .map(|(a, b)| (PackedSeq::from_bytes(a), PackedSeq::from_bytes(b)))
        .collect();
    let pairs: Vec<(PackedView<'_>, PackedView<'_>)> = packed
        .iter()
        .map(|(pa, pb)| {
            (
                PackedView::full(pa.as_slice()),
                PackedView::full(pb.as_slice()),
            )
        })
        .collect();
    let reference: Vec<_> = seqs
        .iter()
        .map(|(a, b)| xdrop_extend(a, b, &sc, x))
        .collect();
    for path in available_paths() {
        let mut eng = BatchedXDropAligner::with_path(path);
        let got = eng.extend_batch(&pairs, &sc, x);
        assert_eq!(got, reference, "path {path:?}");
        let stats = eng.stats();
        assert_eq!(stats.tasks, pairs.len() as u64);
        assert_eq!(stats.fallback_tasks, 0);
        assert!(
            stats.lane_fill() > 0.5,
            "refill should keep occupancy high on {path:?}: {}",
            stats.lane_fill()
        );
    }
}

/// The `i16` admission bound is per sequence, not per pair: a pair longer
/// than 32 000 bases in total but with both sequences at most 30 000 stays
/// on the lanes and matches the scalar kernel on every path, while a
/// sequence past 30 000 bases takes the `i32` retry path.
#[test]
fn long_pairs_stay_on_i16_lanes() {
    let sc = ScoringScheme::DEFAULT;
    let x = 25;
    let bases = b"ACGT";
    let mk = |n: usize| -> Vec<u8> { (0..n).map(|i| bases[(i * 7 + i / 5 + 3) % 4]).collect() };
    let a = mk(16_100);
    let mut b = a[..16_000].to_vec();
    for i in (0..b.len()).step_by(23) {
        b[i] = bases[(b[i] as usize + 1) % 4];
    }
    let seqs = [(a, b), (mk(30_001), mk(10))];
    assert!(eligible_i16(16_100, 16_000, &sc, x));
    assert!(!eligible_i16(30_001, 10, &sc, x));
    let packed: Vec<(PackedSeq, PackedSeq)> = seqs
        .iter()
        .map(|(a, b)| (PackedSeq::from_bytes(a), PackedSeq::from_bytes(b)))
        .collect();
    let pairs: Vec<(PackedView<'_>, PackedView<'_>)> = packed
        .iter()
        .map(|(pa, pb)| {
            (
                PackedView::full(pa.as_slice()),
                PackedView::full(pb.as_slice()),
            )
        })
        .collect();
    let reference: Vec<_> = seqs
        .iter()
        .map(|(a, b)| xdrop_extend(a, b, &sc, x))
        .collect();
    assert!(reference[0].a_ext > 16_000 - 100, "{:?}", reference[0]);
    for path in available_paths() {
        let mut eng = BatchedXDropAligner::with_path(path);
        assert_eq!(eng.extend_batch(&pairs, &sc, x), reference, "path {path:?}");
        assert_eq!(eng.stats().fallback_tasks, 1, "path {path:?}");
    }
}
