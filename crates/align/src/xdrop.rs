//! X-drop alignment extension (Zhang, Schwartz, Wagner & Miller, 2000).
//!
//! The study's alignment kernel, in its scalar reference form (the batched
//! engine must agree with it bit-for-bit, and runs it for the pairs its
//! `i16` lanes cannot hold exactly). Starting from an
//! anchor at `(0, 0)` — in practice, the end of a seed — the extension
//! explores the DP matrix antidiagonal by antidiagonal, keeping only the
//! *live band*: cells whose score is within `X` of the best score seen so
//! far. On a true overlap the band stays narrow and tracks the main
//! diagonal, giving average-case
//! O(n·band) work; on a false-positive seed the whole band dies within a
//! few antidiagonals and the extension terminates early. That asymmetry is
//! exactly the variable task cost the paper's load-imbalance analysis
//! (§4.2) is about.
//!
//! The implementation processes three rolling antidiagonal arrays with
//! sentinel guard slots, so each extension allocates nothing when reusing a
//! [`XDropAligner`] scratch.

use crate::scoring::ScoringScheme;

/// "Minus infinity" for dead cells, low enough that adding a gap penalty
/// cannot wrap.
const NEG: i32 = i32::MIN / 4;

/// Result of an X-drop extension anchored at `(0, 0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Extension {
    /// Best extension score found (≥ 0; the empty extension scores 0).
    pub score: i32,
    /// Bases of `a` consumed by the best extension.
    pub a_ext: usize,
    /// Bases of `b` consumed by the best extension.
    pub b_ext: usize,
    /// DP cells evaluated — the simulator's unit of alignment work.
    pub cells: u64,
}

/// Reusable scratch for X-drop extensions (three antidiagonal arrays).
///
/// Reusing one aligner per worker thread keeps the hot loop allocation-free;
/// [`crate::batch::align_batch`]'s scalar path does this via `map_init`.
#[derive(Debug, Default)]
pub struct XDropAligner {
    prev2: Vec<i32>,
    prev: Vec<i32>,
    cur: Vec<i32>,
}

/// Index offset: slot `i + PAD` holds row `i`, leaving `PAD` guard slots on
/// each side so band-edge reads at `i-1` (and diagonal reads two steps back)
/// always land on initialised `NEG` sentinels.
const PAD: usize = 2;

impl XDropAligner {
    /// Creates an empty scratch; arrays grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize) {
        let want = n + 2 * PAD + 1;
        if self.prev.len() < want {
            self.prev2.resize(want, NEG);
            self.prev.resize(want, NEG);
            self.cur.resize(want, NEG);
        }
    }

    /// Extends an alignment from `(0, 0)` into `a` × `b` under X-drop
    /// pruning threshold `x` (≥ 0). Returns the best-scoring extension.
    ///
    /// Ties are broken toward the shortest extension (earliest antidiagonal,
    /// then fewest `a` bases), making results deterministic.
    pub fn extend(&mut self, a: &[u8], b: &[u8], sc: &ScoringScheme, x: i32) -> Extension {
        assert!(x >= 0, "X-drop threshold must be non-negative");
        let (n, m) = (a.len(), b.len());
        self.ensure(n);

        // Reset only the slots the first diagonals will read: rows around 0.
        for s in 0..(2 * PAD + 1).min(self.prev.len()) {
            self.prev2[s] = NEG;
            self.prev[s] = NEG;
            self.cur[s] = NEG;
        }

        let mut best = Extension::default();

        // Diagonal 0: the empty extension.
        self.cur[PAD] = 0;
        std::mem::swap(&mut self.prev, &mut self.cur); // prev = diag 0
                                                       // Live (unpruned) row ranges of the two predecessor diagonals. A
                                                       // cell on diagonal d is reachable from d-1 (gap moves) *or directly
                                                       // from d-2* (the diagonal move skips d-1), so candidates and the
                                                       // termination test must consider both.
        let mut live1: Option<(usize, usize)> = Some((0, 0)); // diagonal d-1
        let mut live2: Option<(usize, usize)> = None; // diagonal d-2

        let mut cells: u64 = 0;
        for d in 1..=(n + m) {
            let row_lo = d.saturating_sub(m);
            let row_hi = d.min(n);
            let from_prev = live1.map(|(lo, hi)| (lo, hi + 1));
            let from_diag = live2.map(|(lo, hi)| (lo + 1, hi + 1));
            let (band_lo, band_hi) = match (from_prev, from_diag) {
                (Some((a0, a1)), Some((b0, b1))) => (a0.min(b0), a1.max(b1)),
                (Some(r), None) | (None, Some(r)) => r,
                (None, None) => break, // two dead diagonals: extension over
            };
            let cand_lo = band_lo.max(row_lo);
            let cand_hi = band_hi.min(row_hi);
            if cand_lo > cand_hi {
                // Band slid outside the matrix on this diagonal; it can
                // only slide further out, so stop.
                break;
            }

            let mut new_lo = usize::MAX;
            let mut new_hi = 0usize;
            for i in cand_lo..=cand_hi {
                let j = d - i;
                let diag = if i > 0 && j > 0 {
                    let v = self.prev2[i - 1 + PAD];
                    if v <= NEG {
                        NEG
                    } else {
                        v + sc.substitution(a[i - 1], b[j - 1])
                    }
                } else {
                    NEG
                };
                let up = if i > 0 {
                    let v = self.prev[i - 1 + PAD];
                    if v <= NEG {
                        NEG
                    } else {
                        v + sc.gap
                    }
                } else {
                    NEG
                };
                let left = {
                    let v = self.prev[i + PAD];
                    if v <= NEG {
                        NEG
                    } else {
                        v + sc.gap
                    }
                };
                let mut h = diag.max(up).max(left);
                cells += 1;
                if h != NEG && h < best.score - x {
                    h = NEG; // X-drop prune
                }
                self.cur[i + PAD] = h;
                if h > best.score {
                    best.score = h;
                    best.a_ext = i;
                    best.b_ext = j;
                }
                if h > NEG {
                    new_lo = new_lo.min(i);
                    new_hi = new_hi.max(i);
                }
            }
            // Guard sentinels beyond the written range (two on each side:
            // the array is later read as `prev` at i-1/i and as `prev2` at
            // i-1 of a band that may have grown by one on each side).
            for g in 1..=PAD {
                self.cur[cand_lo + PAD - g] = NEG;
                self.cur[cand_hi + PAD + g] = NEG;
            }

            live2 = live1;
            live1 = if new_lo == usize::MAX {
                None
            } else {
                Some((new_lo, new_hi))
            };

            // Rotate: prev2 <- prev, prev <- cur, cur <- old prev2.
            std::mem::swap(&mut self.prev2, &mut self.prev);
            std::mem::swap(&mut self.prev, &mut self.cur);
        }

        best.cells = cells;
        best
    }
}

/// One-shot convenience wrapper: allocates a fresh scratch.
pub fn xdrop_extend(a: &[u8], b: &[u8], sc: &ScoringScheme, x: i32) -> Extension {
    XDropAligner::new().extend(a, b, sc, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sw::local_align;

    const SC: ScoringScheme = ScoringScheme::DEFAULT;

    #[test]
    fn identical_extension() {
        let r = xdrop_extend(b"ACGTACGT", b"ACGTACGT", &SC, 10);
        assert_eq!(r.score, 8);
        assert_eq!(r.a_ext, 8);
        assert_eq!(r.b_ext, 8);
        assert!(r.cells > 0);
    }

    #[test]
    fn empty_inputs() {
        let r = xdrop_extend(b"", b"", &SC, 10);
        assert_eq!(r.score, 0);
        assert_eq!((r.a_ext, r.b_ext), (0, 0));
        let r = xdrop_extend(b"ACGT", b"", &SC, 10);
        assert_eq!(r.score, 0);
        let r = xdrop_extend(b"", b"ACGT", &SC, 10);
        assert_eq!(r.score, 0);
    }

    #[test]
    fn substitution_tolerated_within_x() {
        // One mismatch mid-way: with X large enough the extension crosses it.
        let a = b"ACGTACGTAC";
        let b = b"ACGTTCGTAC";
        let r = xdrop_extend(a, b, &SC, 5);
        assert_eq!(r.score, 9 + SC.mismatch);
        assert_eq!(r.a_ext, 10);
    }

    #[test]
    fn indel_tolerated() {
        let a = b"ACGTACGTACGT";
        let b = b"ACGTACTACGT"; // deletion of one G
        let r = xdrop_extend(a, b, &SC, 5);
        assert_eq!(r.a_ext, 12);
        assert_eq!(r.b_ext, 11);
        assert_eq!(r.score, 11 + SC.gap);
    }

    #[test]
    fn false_positive_terminates_early() {
        // Junk after a short agreeing prefix: the band must die quickly and
        // evaluate far fewer cells than the full matrix.
        let a: Vec<u8> = b"ACGTACGT"
            .iter()
            .chain([b'A'; 2000].iter())
            .copied()
            .collect();
        let b: Vec<u8> = b"ACGTACGT"
            .iter()
            .chain([b'T'; 2000].iter())
            .copied()
            .collect();
        let r = xdrop_extend(&a, &b, &SC, 10);
        assert_eq!(r.score, 8);
        assert!(
            r.cells < 2000,
            "X-drop must terminate early on divergent tails, used {} cells",
            r.cells
        );
    }

    #[test]
    fn never_exceeds_local_optimum() {
        // X-drop anchored at (0,0) can never beat unanchored Smith-Waterman.
        let pairs: &[(&[u8], &[u8])] = &[
            (b"GATTACAGATTACA", b"GATCACAGTTACA"),
            (b"ACGT", b"TGCA"),
            (b"AAAACCCCGGGG", b"AAAAGGGG"),
        ];
        for (a, b) in pairs {
            for x in [0, 1, 5, 100] {
                let xd = xdrop_extend(a, b, &SC, x);
                let swr = local_align(a, b, &SC);
                assert!(
                    xd.score <= swr.score,
                    "xdrop {} > sw {} on {:?}",
                    xd.score,
                    swr.score,
                    (std::str::from_utf8(a).unwrap(), x)
                );
            }
        }
    }

    #[test]
    fn generous_x_matches_prefix_anchored_optimum() {
        // With X larger than any possible drop, X-drop equals the best
        // prefix-vs-prefix ("anchored") alignment. For a pair that matches
        // from the start, that equals the SW optimum.
        let a = b"ACGGATTACAGGATCC";
        let b = b"ACGGATTTACAGGATC";
        let xd = xdrop_extend(a, b, &SC, 1000);
        let swr = local_align(a, b, &SC);
        assert_eq!(xd.score, swr.score);
    }

    #[test]
    fn x_zero_stops_at_first_drop() {
        // With X = 0, any score decrease kills the band; on a string with a
        // mismatch at position 4 the extension keeps the 4-base prefix.
        let a = b"ACGGTTTTT";
        let b = b"ACGGAAAAA";
        let r = xdrop_extend(a, b, &SC, 0);
        assert_eq!(r.score, 4);
        assert_eq!((r.a_ext, r.b_ext), (4, 4));
    }

    #[test]
    fn scratch_reuse_is_clean() {
        // A long noisy extension followed by a tiny one: stale state must
        // not leak between calls.
        let mut al = XDropAligner::new();
        let a: Vec<u8> = (0..500).map(|i| b"ACGT"[i % 4]).collect();
        let b: Vec<u8> = (0..500).map(|i| b"ACGT"[(i + (i / 97)) % 4]).collect();
        let _ = al.extend(&a, &b, &SC, 20);
        let small = al.extend(b"ACG", b"ACG", &SC, 5);
        assert_eq!(small.score, 3);
        assert_eq!(small.a_ext, 3);
        let again = al.extend(b"ACG", b"ACG", &SC, 5);
        assert_eq!(small.score, again.score);
    }

    #[test]
    fn larger_x_never_lowers_score() {
        let a = b"ACGGATTACAGGATCCACGGATTACAGGATCC";
        let b = b"ACGGATTACCGGATCCACGGTTTACAGGATCC";
        let mut last = -1;
        for x in [0, 1, 2, 4, 8, 16, 32] {
            let r = xdrop_extend(a, b, &SC, x);
            assert!(r.score >= last, "x={x}: {} < {}", r.score, last);
            last = r.score;
        }
    }

    #[test]
    fn asymmetric_lengths() {
        let a = b"ACGTACGTACGTACGT";
        let b = b"ACGT";
        let r = xdrop_extend(a, b, &SC, 100);
        assert_eq!(r.score, 4);
        assert_eq!(r.b_ext, 4);
    }
}
