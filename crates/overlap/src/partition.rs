//! DiBELLA's stage-1 "blind" read partition.
//!
//! Reads are partitioned **uniformly by size in memory** — contiguous
//! blocks of read ids balanced by total bytes, with no data-dependent
//! placement (paper §3: "a data-independent strategy in that no
//! characteristic other than size in memory is considered"). The partition
//! determines read ownership for the rest of the pipeline.

use serde::{Deserialize, Serialize};

/// A partition of reads across `nranks` ranks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// `owner[r]` is the rank owning read `r`.
    pub owner: Vec<u32>,
    /// Half-open read-id range per rank (`ranges[p] = (begin, end)`).
    pub ranges: Vec<(u32, u32)>,
    /// Total bytes of read data per rank.
    pub bytes: Vec<u64>,
}

impl Partition {
    /// Builds the blind partition: contiguous read-id blocks whose byte
    /// sizes are as uniform as a greedy left-to-right sweep allows.
    ///
    /// # Panics
    /// Panics if `nranks == 0`.
    pub fn blind(read_lengths: &[usize], nranks: usize) -> Partition {
        assert!(nranks > 0, "need at least one rank");
        let n = read_lengths.len();
        let total: u64 = read_lengths.iter().map(|&l| l as u64).sum();
        let mut owner = vec![0u32; n];
        let mut ranges = Vec::with_capacity(nranks);
        let mut bytes = vec![0u64; nranks];

        let mut r = 0usize; // current read
        let mut acc_before = 0u64; // bytes assigned to previous ranks
        for (p, rank_bytes) in bytes.iter_mut().enumerate() {
            let begin = r as u32;
            // Ideal cumulative boundary after rank p.
            let target = total * (p as u64 + 1) / nranks as u64;
            let mut here = 0u64;
            while r < n {
                let l = read_lengths[r] as u64;
                // Leave the read for the next rank if crossing the boundary
                // moves us further from the target than stopping here —
                // but never leave a trailing rank empty-handed while reads
                // remain and ranks after this one couldn't take them all.
                let before = acc_before + here;
                let after = before + l;
                let remaining_ranks = nranks - p - 1;
                // The last rank must take everything that is left.
                let must_take = remaining_ranks == 0;
                // A previous rank may already have overshot this rank's
                // boundary; then this rank takes nothing.
                if !must_take && before >= target {
                    break;
                }
                if !must_take && after > target && (after - target) > (target - before) {
                    break;
                }
                owner[r] = p as u32;
                here += l;
                r += 1;
                if remaining_ranks > 0 && (n - r) == remaining_ranks {
                    // Exactly one read left per remaining rank: stop so no
                    // later rank ends up empty when reads are scarce.
                    break;
                }
            }
            acc_before += here;
            *rank_bytes = here;
            ranges.push((begin, r as u32));
        }
        // Any trailing unassigned reads belong to the last rank.
        if r < n {
            let p = nranks - 1;
            for rr in r..n {
                owner[rr] = p as u32;
                bytes[p] += read_lengths[rr] as u64;
            }
            ranges[p].1 = n as u32;
            // Intermediate empty ranges stay valid: (x, x).
        }
        Partition {
            owner,
            ranges,
            bytes,
        }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.ranges.len()
    }

    /// Byte imbalance: max bytes / mean bytes (1.0 = perfect).
    pub fn byte_imbalance(&self) -> f64 {
        let max = self.bytes.iter().copied().max().unwrap_or(0) as f64;
        let mean = self.bytes.iter().sum::<u64>() as f64 / self.bytes.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_owns_all() {
        let p = Partition::blind(&[10, 20, 30], 1);
        assert_eq!(p.owner, vec![0, 0, 0]);
        assert_eq!(p.ranges, vec![(0, 3)]);
        assert_eq!(p.bytes, vec![60]);
    }

    #[test]
    fn uniform_lengths_split_evenly() {
        let lens = vec![100usize; 64];
        let p = Partition::blind(&lens, 8);
        for r in 0..8 {
            assert_eq!(p.bytes[r], 800, "rank {r}");
            let (b, e) = p.ranges[r];
            assert_eq!(e - b, 8);
        }
        assert!((p.byte_imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ranges_are_contiguous_and_cover() {
        let lens: Vec<usize> = (0..103).map(|i| 50 + (i * 37) % 400).collect();
        let p = Partition::blind(&lens, 7);
        assert_eq!(p.ranges[0].0, 0);
        for w in p.ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0, "contiguous");
        }
        assert_eq!(p.ranges.last().unwrap().1 as usize, lens.len());
        // owner agrees with ranges
        for (r, &o) in p.owner.iter().enumerate() {
            let (b, e) = p.ranges[o as usize];
            assert!((b as usize) <= r && r < e as usize);
        }
    }

    #[test]
    fn byte_balance_is_reasonable() {
        // Heavy-tailed lengths: imbalance bounded by ~1 + max_len/mean_share.
        let lens: Vec<usize> = (0..1000).map(|i| 1000 + (i * 7919) % 9000).collect();
        let p = Partition::blind(&lens, 16);
        assert!(
            p.byte_imbalance() < 1.10,
            "imbalance {}",
            p.byte_imbalance()
        );
        let total: u64 = lens.iter().map(|&l| l as u64).sum();
        assert_eq!(p.bytes.iter().sum::<u64>(), total);
    }

    #[test]
    fn more_ranks_than_reads() {
        let p = Partition::blind(&[10, 10, 10], 5);
        // Every read owned, every range valid, empties allowed at the tail.
        let covered: u32 = p.ranges.iter().map(|(b, e)| e - b).sum();
        assert_eq!(covered, 3);
        for w in p.ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        for (r, &o) in p.owner.iter().enumerate() {
            let (b, e) = p.ranges[o as usize];
            assert!((b as usize) <= r && r < e as usize);
        }
    }

    #[test]
    fn empty_input() {
        let p = Partition::blind(&[], 4);
        assert_eq!(p.owner.len(), 0);
        assert_eq!(p.ranges.len(), 4);
        assert!(p.ranges.iter().all(|&(b, e)| b == e));
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = Partition::blind(&[1], 0);
    }

    #[test]
    fn no_rank_left_empty_when_reads_suffice() {
        // 16 equal reads over 16 ranks: one each.
        let p = Partition::blind(&[5; 16], 16);
        for (b, e) in &p.ranges {
            assert_eq!(e - b, 1);
        }
    }
}
