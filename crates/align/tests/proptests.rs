//! Property-based validation of the alignment kernels against each other.

use gnb_align::nw::global_score;
use gnb_align::sw::local_align;
use gnb_align::xdrop::xdrop_extend;
use gnb_align::ScoringScheme;
use proptest::prelude::*;

fn dna(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T')],
        0..max_len,
    )
}

fn dna_with_n(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T'), Just(b'N')],
        0..max_len,
    )
}

fn scheme() -> impl Strategy<Value = ScoringScheme> {
    (1..4i32, -4..-1i32, -4..-1i32).prop_map(|(m, x, g)| ScoringScheme::new(m, x, g))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Smith-Waterman is an upper bound for every anchored X-drop extension.
    #[test]
    fn xdrop_never_beats_sw(a in dna(80), b in dna(80), x in 0..64i32, sc in scheme()) {
        let xd = xdrop_extend(&a, &b, &sc, x);
        let sw = local_align(&a, &b, &sc);
        prop_assert!(xd.score <= sw.score, "xdrop {} > sw {}", xd.score, sw.score);
    }

    /// Local score is symmetric in its arguments.
    #[test]
    fn sw_symmetric(a in dna(60), b in dna(60), sc in scheme()) {
        prop_assert_eq!(local_align(&a, &b, &sc).score, local_align(&b, &a, &sc).score);
    }

    /// Global score is symmetric in its arguments.
    #[test]
    fn nw_symmetric(a in dna(60), b in dna(60), sc in scheme()) {
        prop_assert_eq!(global_score(&a, &b, &sc).score, global_score(&b, &a, &sc).score);
    }

    /// Local ≥ max(global, 0).
    #[test]
    fn sw_dominates_nw(a in dna(60), b in dna(60), sc in scheme()) {
        let l = local_align(&a, &b, &sc).score;
        let g = global_score(&a, &b, &sc).score;
        prop_assert!(l >= g.max(0));
    }

    /// Aligning a sequence with itself: global = local = xdrop(large X) =
    /// match * len, unless it contains N (which never matches).
    #[test]
    fn self_alignment_is_perfect(a in dna(100), sc in scheme()) {
        let expect = sc.match_score * a.len() as i32;
        prop_assert_eq!(global_score(&a, &a, &sc).score, expect);
        prop_assert_eq!(local_align(&a, &a, &sc).score, expect);
        let xd = xdrop_extend(&a, &a, &sc, 1);
        prop_assert_eq!(xd.score, expect);
        prop_assert_eq!((xd.a_ext, xd.b_ext), (a.len(), a.len()));
    }

    /// X-drop score is monotone non-decreasing in X.
    #[test]
    fn xdrop_monotone_in_x(a in dna(60), b in dna(60), sc in scheme()) {
        let mut last = -1;
        for x in [0, 2, 8, 32, 128] {
            let s = xdrop_extend(&a, &b, &sc, x).score;
            prop_assert!(s >= last);
            last = s;
        }
    }

    /// With X beyond any achievable drop, X-drop equals the best
    /// prefix-anchored alignment, which is bounded by SW and bounded below
    /// by the global score.
    #[test]
    fn xdrop_generous_bounds(a in dna(50), b in dna(50), sc in scheme()) {
        let big_x = 4 * 50 * sc.match_score.max(-sc.gap).max(-sc.mismatch);
        let xd = xdrop_extend(&a, &b, &sc, big_x);
        let sw = local_align(&a, &b, &sc);
        let nw = global_score(&a, &b, &sc);
        prop_assert!(xd.score <= sw.score);
        // Anchored-at-(0,0) best-prefix score is at least the full global
        // score (the global alignment is one admissible prefix pair).
        prop_assert!(xd.score >= nw.score);
        prop_assert!(xd.score >= 0);
    }

    /// Scores never reward N: replacing every base by N yields score 0
    /// locally (nothing positive can align).
    #[test]
    fn all_n_scores_zero(len_a in 0usize..40, len_b in 0usize..40, sc in scheme()) {
        let a = vec![b'N'; len_a];
        let b = vec![b'N'; len_b];
        prop_assert_eq!(local_align(&a, &b, &sc).score, 0);
        prop_assert_eq!(xdrop_extend(&a, &b, &sc, 100).score, 0);
    }

    /// Kernels are total over the 5-letter alphabet (never panic, sane
    /// extents).
    #[test]
    fn kernels_total_over_n(a in dna_with_n(60), b in dna_with_n(60), x in 0..32i32, sc in scheme()) {
        let xd = xdrop_extend(&a, &b, &sc, x);
        prop_assert!(xd.a_ext <= a.len());
        prop_assert!(xd.b_ext <= b.len());
        prop_assert!(xd.score >= 0);
        let sw = local_align(&a, &b, &sc);
        prop_assert!(sw.a_end <= a.len() && sw.b_end <= b.len());
    }

    /// SW traceback recomputes its own score and consumes exact spans.
    #[test]
    fn traceback_consistent(a in dna(40), b in dna(40), sc in scheme()) {
        use gnb_align::sw::{local_align_traced, CigarOp};
        let t = local_align_traced(&a, &b, &sc);
        let (mut score, mut ai, mut bj) = (0i32, t.a_begin, t.b_begin);
        for op in &t.cigar {
            match *op {
                CigarOp::Match(n) => { score += sc.match_score * n as i32; ai += n as usize; bj += n as usize; }
                CigarOp::Mismatch(n) => { score += sc.mismatch * n as i32; ai += n as usize; bj += n as usize; }
                CigarOp::Ins(n) => { score += sc.gap * n as i32; ai += n as usize; }
                CigarOp::Del(n) => { score += sc.gap * n as i32; bj += n as usize; }
            }
        }
        prop_assert_eq!(score, t.aln.score);
        prop_assert_eq!(ai, t.aln.a_end);
        prop_assert_eq!(bj, t.aln.b_end);
        prop_assert_eq!(t.aln.score, local_align(&a, &b, &sc).score);
    }

    /// Appending characters to both strings never decreases the SW score.
    #[test]
    fn sw_monotone_under_extension(a in dna(40), b in dna(40), ext in dna(20)) {
        let sc = ScoringScheme::DEFAULT;
        let base = local_align(&a, &b, &sc).score;
        let mut a2 = a.clone();
        a2.extend_from_slice(&ext);
        let mut b2 = b.clone();
        b2.extend_from_slice(&ext);
        prop_assert!(local_align(&a2, &b2, &sc).score >= base);
    }
}
