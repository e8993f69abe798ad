//! Logical views over 2-bit packed reads.
//!
//! Reads are packed once at load time (see [`gnb_genome::packed`]). The
//! candidate workflow needs suffixes, reversed prefixes and reverse
//! complements of them; a [`PackedView`] is each of those as an O(1)
//! construction over the same packed words. The batched engine
//! ([`crate::interseq`]) reads its stripes through these views, 32 bases
//! per window.

use gnb_genome::packed::{rev_lanes, PackedSlice};

/// A logical view over a packed sequence: a base offset plus optional
/// reversal and complementation, evaluated lazily at window-extraction
/// time. This is what makes load-time packing sufficient: suffixes,
/// reversed prefixes, and reverse-complements needed by seed-and-extend are
/// all O(1) view constructions over the same packed words.
#[derive(Debug, Clone, Copy)]
pub struct PackedView<'a> {
    slice: PackedSlice<'a>,
    /// For forward views, the physical index of logical base 0; for
    /// reversed views, one past the physical index of logical base 0
    /// (logical `i` maps to physical `offset - 1 - i`).
    offset: usize,
    len: usize,
    rev: bool,
    comp: bool,
}

impl<'a> PackedView<'a> {
    /// Whole-sequence forward view.
    pub fn full(slice: PackedSlice<'a>) -> Self {
        PackedView {
            slice,
            offset: 0,
            len: slice.len,
            rev: false,
            comp: false,
        }
    }

    /// Number of bases in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the view holds no bases.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Logical suffix `[start, len)`.
    pub fn suffix(self, start: usize) -> Self {
        assert!(start <= self.len, "suffix start outside view");
        PackedView {
            offset: if self.rev {
                self.offset - start
            } else {
                self.offset + start
            },
            len: self.len - start,
            ..self
        }
    }

    /// The logical prefix `[0, end)` reversed: logical `i` of the result is
    /// logical `end - 1 - i` of `self`. This is the left-extension view.
    pub fn rev_prefix(self, end: usize) -> Self {
        assert!(end <= self.len, "prefix end outside view");
        PackedView {
            offset: if self.rev {
                self.offset - end
            } else {
                self.offset + end
            },
            len: end,
            rev: !self.rev,
            ..self
        }
    }

    /// The whole view reverse-complemented (strand normalisation).
    pub fn revcomp(self) -> Self {
        let mut v = self.rev_prefix(self.len);
        v.comp = !v.comp;
        v
    }

    /// Physical index of logical base `i`.
    fn phys(&self, i: usize) -> usize {
        if self.rev {
            self.offset - 1 - i
        } else {
            self.offset + i
        }
    }

    /// 2-bit code of logical base `i` (complement applied; 0 for N).
    pub fn code(&self, i: usize) -> u8 {
        let c = self.slice.code(self.phys(i));
        if self.comp {
            c ^ 3
        } else {
            c
        }
    }

    /// Whether logical base `i` is ambiguous.
    pub fn is_n(&self, i: usize) -> bool {
        self.slice.is_n(self.phys(i))
    }

    /// 32 lanes of `(codes, nmask)` for logical bases
    /// `start..start + 32`, ascending. Out-of-view lanes read as N.
    pub fn window32(&self, start: isize) -> (u64, u64) {
        let (mut c, mut n) = if self.rev {
            // Logical ascending = physical descending: extract the
            // ascending physical window ending at `offset - 1 - start` and
            // lane-reverse it.
            let phys_lo = self.offset as isize - 1 - start - 31;
            let (c, n) = self.slice.window(phys_lo);
            (rev_lanes(c), rev_lanes(n))
        } else {
            self.slice.window(self.offset as isize + start)
        };
        if self.comp {
            c = !c;
        }
        // Mask logical out-of-range lanes as N (the physical-bounds masking
        // inside `window` already covers views that end at the sequence
        // boundary, but sub-views may end earlier).
        if start < 0 {
            let skip = (-start) as usize;
            n |= if skip >= 32 {
                u64::MAX
            } else {
                u64::MAX >> (64 - 2 * skip)
            };
        }
        let remain = self.len as isize - start;
        if remain < 32 {
            n |= if remain <= 0 {
                u64::MAX
            } else {
                u64::MAX << (2 * remain)
            };
        }
        (c, n)
    }

    /// 32 lanes for logical bases `start_hi, start_hi - 1, …,
    /// start_hi - 31` (descending — the `b` side of an antidiagonal).
    pub fn window32_desc(&self, start_hi: isize) -> (u64, u64) {
        if self.rev {
            // Logical descending = physical ascending, so the two lane
            // reversals (view direction and descending order) cancel and
            // the window comes straight out of the packed words.
            let (mut c, mut n) = self.slice.window(self.offset as isize - 1 - start_hi);
            if self.comp {
                c = !c;
            }
            // Lane t holds logical base `start_hi - t`; mask lanes whose
            // logical index falls outside `0..len`.
            if start_hi < 31 {
                n |= if start_hi < 0 {
                    u64::MAX
                } else {
                    u64::MAX << (2 * (start_hi + 1))
                };
            }
            let over = start_hi - self.len as isize;
            if over >= 0 {
                n |= u64::MAX >> (62 - 2 * over.min(31));
            }
            (c, n)
        } else {
            let (c, n) = self.window32(start_hi - 31);
            (rev_lanes(c), rev_lanes(n))
        }
    }

    /// The 32 bases `start..start + 32` in whichever lane order needs no
    /// lane reversal: ascending for forward views (lane `t` holds base
    /// `start + t`, flag `false`), descending for reversed views (lane `t`
    /// holds base `start + 31 - t`, flag `true`). Out-of-view lanes read
    /// as N.
    #[inline]
    pub(crate) fn window32_unordered(&self, start: isize) -> (u64, u64, bool) {
        if start < 0 || start + 32 > self.len as isize {
            return if self.rev {
                let (c, n) = self.window32_desc(start + 31);
                (c, n, true)
            } else {
                let (c, n) = self.window32(start);
                (c, n, false)
            };
        }
        // Inside the view: join two packed words at the physical start.
        let p = if self.rev {
            self.offset - 32 - start as usize
        } else {
            self.offset + start as usize
        };
        let (w, sh) = (p / 32, 2 * (p % 32));
        let join = |v: &[u64]| {
            if sh == 0 {
                v[w]
            } else {
                v[w] >> sh | v[w + 1] << (64 - sh)
            }
        };
        let c = join(self.slice.words);
        (
            if self.comp { !c } else { c },
            join(self.slice.nmask),
            self.rev,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnb_genome::PackedSeq;

    #[test]
    fn view_suffix_prefix_revcomp() {
        let seq = b"ACGTNACGTTGCA";
        let p = PackedSeq::from_bytes(seq);
        let v = PackedView::full(p.as_slice());
        let suf = v.suffix(4);
        assert_eq!(suf.len(), seq.len() - 4);
        for i in 0..suf.len() {
            assert_eq!(suf.code(i), v.code(4 + i));
            assert_eq!(suf.is_n(i), v.is_n(4 + i));
        }
        let rp = v.rev_prefix(6);
        for i in 0..6 {
            assert_eq!(rp.code(i), v.code(5 - i));
        }
        let rc = v.revcomp();
        let expect = gnb_genome::revcomp(seq);
        for (i, &e) in expect.iter().enumerate() {
            if e == b'N' {
                assert!(rc.is_n(i));
            } else {
                assert!(!rc.is_n(i));
                assert_eq!(rc.code(i), gnb_genome::seq::base_to_2bit(e).unwrap());
            }
        }
        // Views compose: revcomp then suffix then rev_prefix round-trips.
        let back = rc.revcomp();
        for i in 0..seq.len() {
            assert_eq!(back.code(i), v.code(i));
            assert_eq!(back.is_n(i), v.is_n(i));
        }
    }
}
