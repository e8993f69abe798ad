//! Needleman–Wunsch global alignment (exact, O(nm)).
//!
//! Used as a correctness oracle for the X-drop kernels and as the
//! "quadratic exact DP" baseline the paper contrasts seed-and-extend
//! against (§2: exact algorithms are O(n²) in the longer read).

use crate::scoring::ScoringScheme;

/// Result of a global alignment score computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalScore {
    /// Optimal end-to-end alignment score.
    pub score: i32,
    /// DP cells evaluated (`(n+1)·(m+1)` minus the border).
    pub cells: u64,
}

/// Computes the optimal global (end-to-end) alignment score of `a` vs `b`.
///
/// Linear space: keeps two DP rows.
pub fn global_score(a: &[u8], b: &[u8], sc: &ScoringScheme) -> GlobalScore {
    let (n, m) = (a.len(), b.len());
    let mut prev: Vec<i32> = (0..=m as i32).map(|j| j * sc.gap).collect();
    let mut cur: Vec<i32> = vec![0; m + 1];
    for i in 1..=n {
        cur[0] = i as i32 * sc.gap;
        let ai = a[i - 1];
        for j in 1..=m {
            let diag = prev[j - 1] + sc.substitution(ai, b[j - 1]);
            let up = prev[j] + sc.gap;
            let left = cur[j - 1] + sc.gap;
            cur[j] = diag.max(up).max(left);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    GlobalScore {
        score: prev[m],
        cells: (n as u64) * (m as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SC: ScoringScheme = ScoringScheme::DEFAULT;

    #[test]
    fn identical_strings() {
        let r = global_score(b"ACGTACGT", b"ACGTACGT", &SC);
        assert_eq!(r.score, 8);
        assert_eq!(r.cells, 64);
    }

    #[test]
    fn empty_vs_nonempty() {
        assert_eq!(global_score(b"", b"ACG", &SC).score, 3 * SC.gap);
        assert_eq!(global_score(b"ACG", b"", &SC).score, 3 * SC.gap);
        assert_eq!(global_score(b"", b"", &SC).score, 0);
    }

    #[test]
    fn single_substitution() {
        assert_eq!(global_score(b"ACGT", b"AGGT", &SC).score, 3 + SC.mismatch);
    }

    #[test]
    fn single_indel() {
        assert_eq!(global_score(b"ACGT", b"ACT", &SC).score, 3 + SC.gap);
    }

    #[test]
    fn symmetry() {
        let a = b"GATTACAGATTACA";
        let b = b"GATCACAGTTAC";
        assert_eq!(global_score(a, b, &SC).score, global_score(b, a, &SC).score);
    }

    #[test]
    fn score_upper_bound() {
        // Global score can never exceed match * min(len).
        let a = b"ACGTACGTAA";
        let b = b"TTACGTAC";
        let s = global_score(a, b, &SC).score;
        assert!(s <= SC.match_score * b.len() as i32);
    }
}
