//! Seed-and-extend alignment of a candidate read pair (paper Fig. 1–2).
//!
//! A candidate arrives as two reads plus the position of a shared k-mer in
//! each and a relative-orientation flag. Alignment proceeds by:
//!
//! 1. strand normalisation — opposite-orientation candidates reverse-
//!    complement read `b` and mirror its seed position;
//! 2. scoring the fixed seed;
//! 3. X-drop extension rightward from the seed end and leftward from the
//!    seed start (on reversed prefixes);
//! 4. classifying the resulting overlap geometry (containment / dovetail /
//!    internal — the three ways a pair can overlap, Fig. 2);
//! 5. applying acceptance criteria (the paper saves only alignments that
//!    "meet or exceed the user or default scoring criteria").

use crate::packed::PackedView;
use crate::scoring::ScoringScheme;
use crate::xdrop::{Extension, XDropAligner};
use gnb_genome::PackedSlice;
use serde::{Deserialize, Serialize};

/// A candidate pair discovered through a shared (filtered) k-mer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Candidate {
    /// First read id.
    pub a: u32,
    /// Second read id.
    pub b: u32,
    /// Seed start position within read `a`.
    pub a_pos: u32,
    /// Seed start position within read `b` (in `b`'s as-read orientation).
    pub b_pos: u32,
    /// `true` if the shared k-mer occurs in the same orientation in both
    /// reads; `false` means `b` must be reverse-complemented.
    pub same_strand: bool,
}

/// Overlap geometry classes (paper Fig. 2), with a slop tolerance for the
/// ragged ends that sequencing errors leave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverlapClass {
    /// `b`'s aligned region spans essentially all of `b`: `a` contains `b`.
    ContainsB,
    /// `a` is contained in `b`.
    ContainedInB,
    /// Suffix of `a` overlaps prefix of `b` (after strand normalisation).
    DovetailAB,
    /// Suffix of `b` overlaps prefix of `a`.
    DovetailBA,
    /// The alignment ends internally in both reads — typical of
    /// false-positive seeds or fragmentary similarity.
    Internal,
}

/// Acceptance criteria for computed alignments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AcceptCriteria {
    /// Minimum alignment score.
    pub min_score: i32,
    /// Minimum overlap length (max of the two aligned spans).
    pub min_overlap: usize,
}

impl Default for AcceptCriteria {
    fn default() -> Self {
        // BELLA-style default for ~1 kbp+ overlaps at +1/-1 scoring.
        AcceptCriteria {
            min_score: 200,
            min_overlap: 500,
        }
    }
}

/// A computed pairwise alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlignmentRecord {
    /// Read ids (as in the candidate).
    pub a: u32,
    /// Second read id.
    pub b: u32,
    /// Total score: seed + leftward extension + rightward extension.
    pub score: i32,
    /// Aligned span in `a`: `[a_begin, a_end)`.
    pub a_begin: u32,
    /// End of the aligned span in `a` (exclusive).
    pub a_end: u32,
    /// Aligned span in `b` *after strand normalisation*.
    pub b_begin: u32,
    /// End of the aligned span in `b` (exclusive).
    pub b_end: u32,
    /// Relative orientation of the pair.
    pub same_strand: bool,
    /// Overlap geometry.
    pub class: OverlapClass,
    /// DP cells evaluated by both extensions (the task's compute cost).
    pub cells: u64,
    /// Whether the record met the acceptance criteria.
    pub accepted: bool,
}

/// Reusable scratch for candidate alignment (X-drop arrays + strand/reversal
/// buffers). One per worker thread.
#[derive(Debug, Default)]
pub struct SeedExtendScratch {
    aligner: XDropAligner,
    b_rc: Vec<u8>,
    a_rev: Vec<u8>,
    b_rev: Vec<u8>,
}

impl SeedExtendScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Aligns one candidate. `k` is the seed length the candidate was
/// discovered with; `x` the X-drop threshold.
///
/// # Panics
/// Panics if the seed windows fall outside the reads (a corrupt candidate).
#[expect(
    clippy::too_many_arguments,
    reason = "a kernel entry point: reads, candidate, seed length, scoring, X-drop and acceptance criteria are independent inputs"
)]
pub fn align_candidate_with(
    scratch: &mut SeedExtendScratch,
    seq_a: &[u8],
    seq_b: &[u8],
    cand: &Candidate,
    k: usize,
    sc: &ScoringScheme,
    x: i32,
    criteria: &AcceptCriteria,
) -> AlignmentRecord {
    let a_pos = cand.a_pos as usize;
    assert!(a_pos + k <= seq_a.len(), "seed outside read a");
    assert!(
        (cand.b_pos as usize) + k <= seq_b.len(),
        "seed outside read b"
    );

    // Strand normalisation: work with b in the orientation that makes the
    // seed a forward match.
    let (b_norm, b_pos): (&[u8], usize) = if cand.same_strand {
        (seq_b, cand.b_pos as usize)
    } else {
        scratch.b_rc.clear();
        scratch
            .b_rc
            .extend(seq_b.iter().rev().map(|&c| gnb_genome::complement(c)));
        (&scratch.b_rc, seq_b.len() - k - cand.b_pos as usize)
    };

    // Seed score: count actual matches in the window (erroneous candidates
    // could in principle carry a slightly degenerate seed; score honestly).
    let mut seed_score = 0;
    for (ca, cb) in seq_a[a_pos..a_pos + k]
        .iter()
        .zip(&b_norm[b_pos..b_pos + k])
    {
        seed_score += sc.substitution(*ca, *cb);
    }

    // Rightward extension from the seed end.
    let right = scratch
        .aligner
        .extend(&seq_a[a_pos + k..], &b_norm[b_pos + k..], sc, x);

    // Leftward extension: extend the reversed prefixes.
    scratch.a_rev.clear();
    scratch.a_rev.extend(seq_a[..a_pos].iter().rev());
    scratch.b_rev.clear();
    scratch.b_rev.extend(b_norm[..b_pos].iter().rev());
    let left = scratch
        .aligner
        .extend(&scratch.a_rev, &scratch.b_rev, sc, x);

    assemble_record(
        cand,
        seed_score,
        &left,
        &right,
        a_pos,
        b_pos,
        k,
        seq_a.len(),
        b_norm.len(),
        criteria,
    )
}

/// Builds the final record from the seed score and the two extensions —
/// shared by the scalar and batched paths so their outputs stay
/// structurally identical by construction.
#[expect(
    clippy::too_many_arguments,
    reason = "a kernel entry point: reads, candidate, seed length, scoring, X-drop and acceptance criteria are independent inputs"
)]
pub(crate) fn assemble_record(
    cand: &Candidate,
    seed_score: i32,
    left: &Extension,
    right: &Extension,
    a_pos: usize,
    b_pos: usize,
    k: usize,
    a_len: usize,
    b_len: usize,
    criteria: &AcceptCriteria,
) -> AlignmentRecord {
    let a_begin = a_pos - left.a_ext;
    let a_end = a_pos + k + right.a_ext;
    let b_begin = b_pos - left.b_ext;
    let b_end = b_pos + k + right.b_ext;
    let score = seed_score + left.score + right.score;

    let class = classify(a_begin, a_end, a_len, b_begin, b_end, b_len);
    let overlap = (a_end - a_begin).max(b_end - b_begin);
    let accepted = score >= criteria.min_score && overlap >= criteria.min_overlap;

    AlignmentRecord {
        a: cand.a,
        b: cand.b,
        score,
        a_begin: a_begin as u32,
        a_end: a_end as u32,
        b_begin: b_begin as u32,
        b_end: b_end as u32,
        same_strand: cand.same_strand,
        class,
        cells: left.cells + right.cells,
        accepted,
    }
}

/// Strand-normalised packed geometry of a candidate: the views and seed
/// score the batched driver slices its two extension tasks from.
pub(crate) struct CandidateGeometry<'a> {
    /// Forward view of read `a`.
    pub a: PackedView<'a>,
    /// Strand-normalised view of read `b` (reverse-complemented for
    /// opposite-orientation candidates).
    pub b_norm: PackedView<'a>,
    /// Seed start in `a`.
    pub a_pos: usize,
    /// Seed start in `b_norm` (mirrored for opposite-orientation).
    pub b_pos: usize,
    /// Score of the fixed seed window.
    pub seed_score: i32,
}

/// Computes the strand-normalised geometry and seed score of a candidate
/// over packed reads.
///
/// # Panics
/// Panics if the seed windows fall outside the reads (a corrupt candidate).
pub(crate) fn packed_candidate_geometry<'a>(
    seq_a: PackedSlice<'a>,
    seq_b: PackedSlice<'a>,
    cand: &Candidate,
    k: usize,
    sc: &ScoringScheme,
) -> CandidateGeometry<'a> {
    let a_pos = cand.a_pos as usize;
    assert!(a_pos + k <= seq_a.len, "seed outside read a");
    assert!(
        (cand.b_pos as usize) + k <= seq_b.len,
        "seed outside read b"
    );

    let a = PackedView::full(seq_a);
    let (b_norm, b_pos) = if cand.same_strand {
        (PackedView::full(seq_b), cand.b_pos as usize)
    } else {
        (
            PackedView::full(seq_b).revcomp(),
            seq_b.len - k - cand.b_pos as usize,
        )
    };

    // Seed score from the packed codes: match iff equal codes and neither
    // base is N — exactly the byte-path `ScoringScheme::substitution`
    // semantics on valid DNA.
    let mut seed_score = 0;
    for t in 0..k {
        let same = a.code(a_pos + t) == b_norm.code(b_pos + t)
            && !a.is_n(a_pos + t)
            && !b_norm.is_n(b_pos + t);
        seed_score += if same { sc.match_score } else { sc.mismatch };
    }

    CandidateGeometry {
        a,
        b_norm,
        a_pos,
        b_pos,
        seed_score,
    }
}

/// One-shot wrapper over [`align_candidate_with`] with fresh scratch.
pub fn align_candidate(
    seq_a: &[u8],
    seq_b: &[u8],
    cand: &Candidate,
    k: usize,
    sc: &ScoringScheme,
    x: i32,
    criteria: &AcceptCriteria,
) -> AlignmentRecord {
    align_candidate_with(
        &mut SeedExtendScratch::new(),
        seq_a,
        seq_b,
        cand,
        k,
        sc,
        x,
        criteria,
    )
}

/// Fraction of a read end that may remain unaligned while still counting as
/// "reaching" the end (ragged ends from sequencing errors).
const END_SLOP: usize = 75;

fn classify(
    a_begin: usize,
    a_end: usize,
    a_len: usize,
    b_begin: usize,
    b_end: usize,
    b_len: usize,
) -> OverlapClass {
    let a_hits_start = a_begin <= END_SLOP;
    let a_hits_end = a_end + END_SLOP >= a_len;
    let b_hits_start = b_begin <= END_SLOP;
    let b_hits_end = b_end + END_SLOP >= b_len;
    match (a_hits_start, a_hits_end, b_hits_start, b_hits_end) {
        (_, _, true, true) => OverlapClass::ContainsB,
        (true, true, _, _) => OverlapClass::ContainedInB,
        // Suffix of a ↔ prefix of b.
        (false, true, true, false) => OverlapClass::DovetailAB,
        // Suffix of b ↔ prefix of a.
        (true, false, false, true) => OverlapClass::DovetailBA,
        _ => OverlapClass::Internal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnb_genome::revcomp;

    const SC: ScoringScheme = ScoringScheme::DEFAULT;
    const X: i32 = 25;

    fn crit(min_score: i32, min_overlap: usize) -> AcceptCriteria {
        AcceptCriteria {
            min_score,
            min_overlap,
        }
    }

    /// Deterministic aperiodic pseudo-random sequence (splitmix64-mixed).
    /// Periodic test sequences would spuriously match at half the diagonal
    /// shifts, which keeps X-drop bands alive forever.
    fn rand_seq(salt: u64, n: usize) -> Vec<u8> {
        (0..n as u64)
            .map(|i| {
                let mut z = (i ^ (salt << 32)).wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                b"ACGT"[((z ^ (z >> 31)) & 3) as usize]
            })
            .collect()
    }

    /// Builds a dovetail pair: a = left + core, b = core + right.
    fn dovetail_pair(left: usize, core: usize, right: usize) -> (Vec<u8>, Vec<u8>, usize) {
        let l = rand_seq(1, left);
        let c = rand_seq(2, core);
        let r = rand_seq(3, right);
        let a: Vec<u8> = l.iter().chain(&c).copied().collect();
        let b: Vec<u8> = c.iter().chain(&r).copied().collect();
        (a, b, left)
    }

    #[test]
    fn perfect_dovetail_found_and_classified() {
        let (a, b, core_start) = dovetail_pair(300, 400, 300);
        let k = 17;
        // Seed somewhere inside the shared core.
        let cand = Candidate {
            a: 0,
            b: 1,
            a_pos: (core_start + 100) as u32,
            b_pos: 100,
            same_strand: true,
        };
        let rec = align_candidate(&a, &b, &cand, k, &SC, X, &crit(100, 100));
        assert!(rec.accepted);
        assert_eq!(rec.score, 400);
        assert_eq!(rec.a_begin, 300);
        assert_eq!(rec.a_end, 700);
        assert_eq!(rec.b_begin, 0);
        assert_eq!(rec.b_end, 400);
        assert_eq!(rec.class, OverlapClass::DovetailAB);
    }

    #[test]
    fn reverse_strand_candidate() {
        let (a, b, core_start) = dovetail_pair(200, 300, 200);
        let b_rc = revcomp(&b);
        let k = 17;
        // In b_rc, the seed window [100, 100+k) of b sits at b.len()-k-100.
        let cand = Candidate {
            a: 0,
            b: 1,
            a_pos: (core_start + 100) as u32,
            b_pos: (b.len() - k - 100) as u32,
            same_strand: false,
        };
        let rec = align_candidate(&a, &b_rc, &cand, k, &SC, X, &crit(100, 100));
        assert!(rec.accepted, "rev-strand overlap must align: {rec:?}");
        assert_eq!(rec.score, 300);
        assert_eq!(rec.class, OverlapClass::DovetailAB);
    }

    #[test]
    fn containment_classified() {
        // b is an interior slice of a.
        let (a, _, _) = dovetail_pair(0, 1000, 0);
        let b = a[200..600].to_vec();
        let cand = Candidate {
            a: 0,
            b: 1,
            a_pos: 300,
            b_pos: 100,
            same_strand: true,
        };
        let rec = align_candidate(&a, &b, &cand, 17, &SC, X, &crit(100, 100));
        assert_eq!(rec.class, OverlapClass::ContainsB);
        assert_eq!(rec.score, 400);
    }

    #[test]
    fn false_positive_is_internal_and_cheap() {
        // Two unrelated reads sharing only a short planted seed.
        let mut a = rand_seq(10, 2000);
        let mut b = rand_seq(11, 2000);
        let seed = b"ACGTACGTACGTACGTA"; // k=17
        a[1000..1017].copy_from_slice(seed);
        b[500..517].copy_from_slice(seed);
        let cand = Candidate {
            a: 0,
            b: 1,
            a_pos: 1000,
            b_pos: 500,
            same_strand: true,
        };
        let rec = align_candidate(&a, &b, &cand, 17, &SC, X, &AcceptCriteria::default());
        assert!(!rec.accepted);
        assert_eq!(rec.class, OverlapClass::Internal);
        // Early termination: far fewer cells than a true 2000-bp overlap.
        assert!(rec.cells < 20_000, "cells {}", rec.cells);
    }

    #[test]
    fn true_overlap_costs_more_than_false_positive() {
        let (a, b, core_start) = dovetail_pair(500, 3000, 500);
        let true_cand = Candidate {
            a: 0,
            b: 1,
            a_pos: (core_start + 1500) as u32,
            b_pos: 1500,
            same_strand: true,
        };
        let rec_true = align_candidate(&a, &b, &true_cand, 17, &SC, X, &crit(100, 100));
        let mut c = rand_seq(12, 3500);
        c[1500..1517].copy_from_slice(&a[core_start + 1500..core_start + 1517]);
        let fp_cand = Candidate {
            a: 0,
            b: 1,
            a_pos: (core_start + 1500) as u32,
            b_pos: 1500,
            same_strand: true,
        };
        let rec_fp = align_candidate(&a, &c, &fp_cand, 17, &SC, X, &crit(100, 100));
        assert!(
            rec_true.cells > rec_fp.cells * 5,
            "true {} vs fp {}",
            rec_true.cells,
            rec_fp.cells
        );
    }

    #[test]
    fn seed_at_read_boundaries() {
        // Seed flush at the start and end of reads must not panic.
        let (a, b, _) = dovetail_pair(0, 200, 0);
        let k = 17;
        let cand = Candidate {
            a: 0,
            b: 1,
            a_pos: 0,
            b_pos: 0,
            same_strand: true,
        };
        let rec = align_candidate(&a, &b, &cand, k, &SC, X, &crit(10, 10));
        assert_eq!(rec.score, 200);
        let cand_end = Candidate {
            a: 0,
            b: 1,
            a_pos: (a.len() - k) as u32,
            b_pos: (b.len() - k) as u32,
            same_strand: true,
        };
        let rec = align_candidate(&a, &b, &cand_end, k, &SC, X, &crit(10, 10));
        assert_eq!(rec.score, 200);
    }

    #[test]
    #[should_panic(expected = "seed outside")]
    fn corrupt_candidate_panics() {
        let cand = Candidate {
            a: 0,
            b: 1,
            a_pos: 100,
            b_pos: 0,
            same_strand: true,
        };
        let _ = align_candidate(
            b"ACGT",
            b"ACGTACGTACGTACGTACGT",
            &cand,
            17,
            &SC,
            X,
            &crit(0, 0),
        );
    }

    #[test]
    fn acceptance_criteria_enforced() {
        let (a, b, core_start) = dovetail_pair(100, 300, 100);
        let cand = Candidate {
            a: 0,
            b: 1,
            a_pos: (core_start + 50) as u32,
            b_pos: 50,
            same_strand: true,
        };
        let loose = align_candidate(&a, &b, &cand, 17, &SC, X, &crit(100, 100));
        assert!(loose.accepted);
        let strict = align_candidate(&a, &b, &cand, 17, &SC, X, &crit(1000, 100));
        assert!(!strict.accepted);
        let long = align_candidate(&a, &b, &cand, 17, &SC, X, &crit(100, 5000));
        assert!(!long.accepted);
    }
}
