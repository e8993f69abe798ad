//! Packed antidiagonal X-drop kernel: 2-bit codes, 32-way base comparison.
//!
//! Same algorithm, band logic, tie-breaks, and termination conditions as
//! [`crate::xdrop::XDropAligner`] — the scalar kernel remains the reference
//! — but the inner loop is restructured for throughput:
//!
//! * **Base comparison in bulk.** Sequences arrive 2-bit packed (see
//!   [`gnb_genome::packed`]); per antidiagonal the kernel XORs a 32-lane
//!   window of `a` against a lane-reversed window of `b` and ORs in both N
//!   masks. A lane of the result is zero exactly where the bases match, so
//!   one word feeds 32 cells' match/mismatch profile lookups with no byte
//!   loads and no per-base `N` tests.
//! * **Branch-reduced recurrence.** The scalar kernel guards every
//!   predecessor read with `v <= NEG` branches. Here dead cells simply
//!   flow through the arithmetic: `NEG + substitution/gap` stays far below
//!   any live score, and the X-drop prune renormalises every dead result
//!   to exactly `NEG` — see the equivalence argument below.
//!
//! # Bit-identity argument
//!
//! The prune step writes `NEG` whenever `h < best - x`. Since `best ≥ 0`
//! and `x ≤ MAX_X`, every cut-off satisfies `best - x ≥ -MAX_X > NEG + 1`.
//! A cell whose predecessors are all dead computes
//! `h ≤ NEG + match_score ≤ NEG + 1 < best - x`, is pruned to exactly
//! `NEG`, and therefore stores and propagates precisely the value the
//! scalar kernel stores. Live cells read the same predecessor slots as the
//! scalar kernel (every slot a candidate reads is either a written cell or
//! a `NEG` guard sentinel — the same invariant the scalar kernel relies
//! on), so scores, extents, the per-cell tie-break order, the live-band
//! evolution, and the `cells` count are all bit-identical. The proptests in
//! `crates/align/tests/packed_equivalence.rs` exercise this exhaustively on
//! DNA-with-N inputs.
//!
//! Precondition: sequences must be over `{A,C,G,T,N}` (anything else packs
//! as N, whereas the scalar kernel's byte-equality would score equal
//! non-DNA bytes as matches). `ReadSet`-held reads always satisfy this.

use crate::scoring::ScoringScheme;
use crate::xdrop::{Extension, NEG, PAD};
use gnb_genome::packed::{rev_lanes, PackedSlice};

/// Largest accepted X-drop threshold. Any larger `x` could let a
/// dead-predecessor cell (`NEG + 1`) survive the prune and diverge from the
/// scalar kernel; every realistic threshold is orders of magnitude smaller.
pub const MAX_X: i32 = 1 << 28;

/// Extra `i32` lanes kept past the live band in every rolling array so the
/// lane-parallel sweep may read (never write) a full 32-lane block without
/// per-block bounds tests. Slack lanes hold stale-but-initialised scores;
/// their results are discarded via the block mask.
const LANE_SLACK: usize = 32;

/// AVX2 versions of the two lane-parallel passes. All arithmetic is exact
/// `i32` (add/max/compare/select), computing the same values in the same
/// order as the scalar fallbacks — kernel output is bit-identical whichever
/// path runs; `packed_equivalence` proptests and the `simd_paths_agree`
/// unit test exercise both.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::NEG;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Whether the AVX2 passes are usable on this host (cached atomically
    /// by the detection macro after the first call).
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    /// Pass 1 over one 32-lane block:
    /// `h0[t] = max(d2[t] + sub(t), pl[t] + gap, pl[t + 1] + gap)` where
    /// `sub(t)` is `ms` when bit `t` of `mis` is clear, else `ms - dl`.
    /// Returns the lane mask of `h0[t] > bs`.
    ///
    /// # Safety
    /// Requires AVX2 and 32 readable `i32`s at `d2` / 33 at `pl` (the
    /// caller's slices carry [`LANE_SLACK`](super::LANE_SLACK) lanes).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn sweep32(
        d2: *const i32,
        pl: *const i32,
        mis: u32,
        ms: i32,
        dl: i32,
        gap: i32,
        bs: i32,
        h0: &mut [i32; 32],
    ) -> u32 {
        let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let one = _mm256_set1_epi32(1);
        let vmm = _mm256_set1_epi32(ms - dl);
        let vdl = _mm256_set1_epi32(dl);
        let vgap = _mm256_set1_epi32(gap);
        let vbs = _mm256_set1_epi32(bs);
        let zero = _mm256_setzero_si256();
        let mut gt = 0u32;
        let mut k = 0usize;
        while k < 32 {
            // Lane t of the vector holds bit k+t of the mismatch mask.
            let bits = _mm256_and_si256(
                _mm256_srlv_epi32(_mm256_set1_epi32((mis >> k) as i32), iota),
                one,
            );
            let eqm = _mm256_cmpeq_epi32(bits, zero);
            let sub = _mm256_add_epi32(vmm, _mm256_and_si256(eqm, vdl));
            let dv = _mm256_loadu_si256(d2.add(k) as *const __m256i);
            let u = _mm256_loadu_si256(pl.add(k) as *const __m256i);
            let l = _mm256_loadu_si256(pl.add(k + 1) as *const __m256i);
            let hv = _mm256_max_epi32(
                _mm256_add_epi32(dv, sub),
                _mm256_max_epi32(_mm256_add_epi32(u, vgap), _mm256_add_epi32(l, vgap)),
            );
            _mm256_storeu_si256(h0.as_mut_ptr().add(k) as *mut __m256i, hv);
            let m = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(hv, vbs)));
            gt |= (m as u32) << k;
            k += 8;
        }
        gt
    }

    /// Fast pass 2 (constant cutoff): prune `h0` lanes below `cut` to
    /// `NEG`, store lanes `0..blk` to `out`, and return their liveness
    /// mask. Lanes `≥ blk` are never written (masked store).
    ///
    /// # Safety
    /// Requires AVX2, `1 ≤ blk ≤ 32`, and `blk` writable `i32`s at `out`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn prune_store32(h0: &[i32; 32], cut: i32, blk: usize, out: *mut i32) -> u32 {
        let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let vcut = _mm256_set1_epi32(cut);
        let vneg = _mm256_set1_epi32(NEG);
        let vblk = _mm256_set1_epi32(blk as i32);
        let mut live = 0u32;
        let mut k = 0usize;
        while k < 32 {
            let lane = _mm256_add_epi32(iota, _mm256_set1_epi32(k as i32));
            let valid = _mm256_cmpgt_epi32(vblk, lane);
            let hv = _mm256_loadu_si256(h0.as_ptr().add(k) as *const __m256i);
            let dead = _mm256_cmpgt_epi32(vcut, hv);
            let res = _mm256_blendv_epi8(hv, vneg, dead);
            _mm256_maskstore_epi32(out.add(k), valid, res);
            let lv = _mm256_and_si256(_mm256_cmpgt_epi32(res, vneg), valid);
            live |= (_mm256_movemask_ps(_mm256_castsi256_ps(lv)) as u32) << k;
            k += 8;
        }
        live
    }
}

/// Whether the lane-parallel AVX2 passes are active on this host (runtime
/// CPU detection). When `false`, [`PackedXDropAligner`] runs the scalar
/// two-pass fallback — still packed-encoding, still bit-identical, just
/// without vector lanes. Exposed so benchmark reports can record which
/// dispatch path their numbers describe.
pub fn simd_active() -> bool {
    simd_available()
}

/// Whether the lane-parallel AVX2 passes are available on this host.
fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        simd::available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Scalar pass 1 (reference and non-AVX2 fallback); see [`simd::sweep32`].
#[allow(clippy::too_many_arguments)]
#[inline]
fn sweep32_scalar(
    d2: &[i32],
    pl: &[i32],
    blk_start: usize,
    blk: usize,
    mis: u32,
    ms: i32,
    dl: i32,
    gap: i32,
    bs: i32,
    h0: &mut [i32; 32],
) -> u32 {
    let mut gt: u32 = 0;
    for (t, h) in h0.iter_mut().enumerate().take(blk) {
        let k = blk_start + t;
        // SAFETY: the caller carved `d2` with at least `blk_start + blk`
        // lanes and `pl` with one more (plus `LANE_SLACK`).
        let (dv, u, l) = unsafe {
            (
                *d2.get_unchecked(k),
                *pl.get_unchecked(k),
                *pl.get_unchecked(k + 1),
            )
        };
        let sub = ms - (((mis >> t) & 1) as i32) * dl;
        let hv = (dv + sub).max(u + gap).max(l + gap);
        *h = hv;
        gt |= u32::from(hv > bs) << t;
    }
    gt
}

/// Scalar fast pass 2; see [`simd::prune_store32`].
#[inline]
fn prune_store32_scalar(
    h0: &[i32; 32],
    cut: i32,
    blk: usize,
    blk_start: usize,
    out: &mut [i32],
) -> u32 {
    let mut live: u32 = 0;
    for (t, &hv) in h0.iter().enumerate().take(blk) {
        // X-drop prune; also renormalises dead-predecessor cells to
        // exactly NEG (see module docs).
        let h = if hv < cut { NEG } else { hv };
        // SAFETY: caller guarantees `blk_start + blk <= out.len()`.
        unsafe { *out.get_unchecked_mut(blk_start + t) = h };
        live |= u32::from(h > NEG) << t;
    }
    live
}

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

/// Reusable scratch for packed X-drop extensions. Drop-in peer of
/// [`XDropAligner`](crate::xdrop::XDropAligner) operating on
/// [`PackedView`]s; returns bit-identical [`Extension`]s.
#[derive(Debug, Default)]
pub struct PackedXDropAligner {
    prev2: Vec<i32>,
    prev: Vec<i32>,
    cur: Vec<i32>,
}

impl PackedXDropAligner {
    /// Creates an empty scratch; arrays grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize) {
        let want = n + 2 * PAD + 1 + LANE_SLACK;
        if self.prev.len() < want {
            self.prev2.resize(want, NEG);
            self.prev.resize(want, NEG);
            self.cur.resize(want, NEG);
        }
    }

    /// Extends an alignment from `(0, 0)` into `a` × `b` under X-drop
    /// pruning threshold `x` (`0 ≤ x ≤ MAX_X`). Bit-identical to
    /// [`XDropAligner::extend`](crate::xdrop::XDropAligner::extend) on the
    /// corresponding byte sequences.
    pub fn extend(
        &mut self,
        a: PackedView<'_>,
        b: PackedView<'_>,
        sc: &ScoringScheme,
        x: i32,
    ) -> Extension {
        self.extend_impl(a, b, sc, x, simd_available())
    }

    /// [`extend`](Self::extend) with an explicit lane-parallel-pass choice
    /// (`use_simd` is ignored off x86_64); split out so tests can pin both
    /// paths against each other on AVX2 hosts.
    fn extend_impl(
        &mut self,
        a: PackedView<'_>,
        b: PackedView<'_>,
        sc: &ScoringScheme,
        x: i32,
        use_simd: bool,
    ) -> Extension {
        assert!(x >= 0, "X-drop threshold must be non-negative");
        assert!(
            x <= MAX_X,
            "X-drop threshold too large for the packed kernel"
        );
        let (n, m) = (a.len(), b.len());
        self.ensure(n);
        #[cfg(not(target_arch = "x86_64"))]
        let _ = use_simd;

        for s in 0..(2 * PAD + 1).min(self.prev.len()) {
            self.prev2[s] = NEG;
            self.prev[s] = NEG;
            self.cur[s] = NEG;
        }

        let mut best = Extension::default();
        let ms = sc.match_score;
        // Subtracted from `ms` when a lane mismatches.
        let dl = sc.match_score - sc.mismatch;
        let gap = sc.gap;

        self.cur[PAD] = 0;
        std::mem::swap(&mut self.prev, &mut self.cur);
        let mut live1: Option<(usize, usize)> = Some((0, 0));
        let mut live2: Option<(usize, usize)> = None;

        let mut cells: u64 = 0;
        for d in 1..=(n + m) {
            let row_lo = d.saturating_sub(m);
            let row_hi = d.min(n);
            let from_prev = live1.map(|(lo, hi)| (lo, hi + 1));
            let from_diag = live2.map(|(lo, hi)| (lo + 1, hi + 1));
            let (band_lo, band_hi) = match (from_prev, from_diag) {
                (Some((a0, a1)), Some((b0, b1))) => (a0.min(b0), a1.max(b1)),
                (Some(r), None) | (None, Some(r)) => r,
                (None, None) => break,
            };
            let cand_lo = band_lo.max(row_lo);
            let cand_hi = band_hi.min(row_hi);
            if cand_lo > cand_hi {
                break;
            }

            let mut new_lo = usize::MAX;
            let mut new_hi = 0usize;
            let w = cand_hi - cand_lo + 1;
            let base = cand_lo + PAD;
            // Window the three rolling arrays once per diagonal so the
            // inner loops index with a provably in-bounds counter; one
            // overlapping `prev` slice serves both gap predecessors
            // (`up` of cell k is `pl[k]`, `left` is `pl[k + 1]`). The
            // read-only slices carry LANE_SLACK extra lanes so the sweep
            // may always read whole 32-lane blocks.
            let d2 = &self.prev2[base - 1..base - 1 + w + LANE_SLACK];
            let pl = &self.prev[base - 1..base + w + LANE_SLACK];
            let out = &mut self.cur[base..base + w];
            let mut cut = best.score - x;
            let mut blk_start = 0usize;
            while blk_start < w {
                let blk = (w - blk_start).min(32);
                // Cell (row ii, col d - ii) compares a[ii-1] vs b[d-ii-1]:
                // ascending a window, descending b window. Out-of-range
                // lanes (ii == 0 or ii == d edges) read as N → mismatch,
                // which is harmless: those cells' diagonal predecessors are
                // NEG sentinels, so the substitution value never survives.
                let i0 = cand_lo + blk_start;
                let (ac, an) = a.window32(i0 as isize - 1);
                let (bc, bn) = b.window32_desc(d as isize - i0 as isize - 1);
                let neq = (ac ^ bc) | an | bn;
                // Compact "lane differs" down to one bit per lane (bit t =
                // lane t mismatches): ~6 shift/mask steps for the whole
                // block, replacing a 32-iteration expansion loop.
                let mut mb = (neq | (neq >> 1)) & 0x5555_5555_5555_5555;
                mb = (mb | (mb >> 1)) & 0x3333_3333_3333_3333;
                mb = (mb | (mb >> 2)) & 0x0f0f_0f0f_0f0f_0f0f;
                mb = (mb | (mb >> 4)) & 0x00ff_00ff_00ff_00ff;
                mb = (mb | (mb >> 8)) & 0x0000_ffff_0000_ffff;
                let mis = (mb | (mb >> 16)) as u32;
                // DP sweep (pass 1): no loop-carried state, so it runs
                // lane-parallel. `gt` flags cells that would raise `best`
                // (and with it the prune cutoff mid-diagonal); those are
                // rare, and the common block below skips per-cell
                // best/cut bookkeeping.
                let bs = best.score;
                let mut h0 = [NEG; 32];
                #[cfg(target_arch = "x86_64")]
                let gt: u32 = if use_simd {
                    let blk_mask = if blk == 32 {
                        u32::MAX
                    } else {
                        (1u32 << blk) - 1
                    };
                    // SAFETY: AVX2 detected; `d2`/`pl` carry LANE_SLACK
                    // lanes past `w`, so a whole 32-lane block starting at
                    // `blk_start < w` is readable.
                    let raw = unsafe {
                        simd::sweep32(
                            d2.as_ptr().add(blk_start),
                            pl.as_ptr().add(blk_start),
                            mis,
                            ms,
                            dl,
                            gap,
                            bs,
                            &mut h0,
                        )
                    };
                    raw & blk_mask
                } else {
                    sweep32_scalar(d2, pl, blk_start, blk, mis, ms, dl, gap, bs, &mut h0)
                };
                #[cfg(not(target_arch = "x86_64"))]
                let gt: u32 = sweep32_scalar(d2, pl, blk_start, blk, mis, ms, dl, gap, bs, &mut h0);
                let mut livemask: u32 = 0;
                if gt == 0 {
                    // `best` cannot change in this block, so the cutoff is
                    // constant: prune, store, and track liveness with no
                    // serial dependence.
                    #[cfg(target_arch = "x86_64")]
                    if use_simd {
                        // SAFETY: AVX2 detected; `out` has `w >=
                        // blk_start + blk` lanes and the store is masked
                        // to lanes `< blk`.
                        livemask = unsafe {
                            simd::prune_store32(&h0, cut, blk, out.as_mut_ptr().add(blk_start))
                        };
                    } else {
                        livemask = prune_store32_scalar(&h0, cut, blk, blk_start, out);
                    }
                    #[cfg(not(target_arch = "x86_64"))]
                    {
                        livemask = prune_store32_scalar(&h0, cut, blk, blk_start, out);
                    }
                } else {
                    for (t, &hv) in h0.iter().enumerate().take(blk) {
                        let h = if hv < cut { NEG } else { hv };
                        // SAFETY: `blk_start + t < w` as above.
                        unsafe { *out.get_unchecked_mut(blk_start + t) = h };
                        if h > best.score {
                            best.score = h;
                            best.a_ext = i0 + t;
                            best.b_ext = d - (i0 + t);
                            cut = h - x;
                        }
                        livemask |= u32::from(h > NEG) << t;
                    }
                }
                if livemask != 0 {
                    new_lo = new_lo.min(i0 + livemask.trailing_zeros() as usize);
                    new_hi = new_hi.max(i0 + 31 - livemask.leading_zeros() as usize);
                }
                blk_start += blk;
            }
            cells += w as u64;
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

            std::mem::swap(&mut self.prev2, &mut self.prev);
            std::mem::swap(&mut self.prev, &mut self.cur);
        }

        best.cells = cells;
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xdrop::xdrop_extend;
    use gnb_genome::PackedSeq;

    const SC: ScoringScheme = ScoringScheme::DEFAULT;

    fn packed_extend(a: &[u8], b: &[u8], x: i32) -> Extension {
        let pa = PackedSeq::from_bytes(a);
        let pb = PackedSeq::from_bytes(b);
        PackedXDropAligner::new().extend(
            PackedView::full(pa.as_slice()),
            PackedView::full(pb.as_slice()),
            &SC,
            x,
        )
    }

    fn assert_same(a: &[u8], b: &[u8], x: i32) {
        let scalar = xdrop_extend(a, b, &SC, x);
        let packed = packed_extend(a, b, x);
        assert_eq!(
            scalar,
            packed,
            "kernels diverge on a={:?} b={:?} x={x}",
            std::str::from_utf8(a),
            std::str::from_utf8(b)
        );
    }

    #[test]
    fn matches_scalar_on_basics() {
        assert_same(b"ACGTACGT", b"ACGTACGT", 10);
        assert_same(b"ACGTACGTAC", b"ACGTTCGTAC", 5);
        assert_same(b"ACGTACGTACGT", b"ACGTACTACGT", 5);
        assert_same(b"ACGGTTTTT", b"ACGGAAAAA", 0);
        assert_same(b"ACGTACGTACGTACGT", b"ACGT", 100);
        assert_same(b"", b"", 10);
        assert_same(b"ACGT", b"", 10);
        assert_same(b"", b"ACGT", 10);
    }

    #[test]
    fn matches_scalar_with_n_bases() {
        assert_same(b"ACGTNACGT", b"ACGTNACGT", 20);
        assert_same(b"NNNN", b"NNNN", 10);
        assert_same(b"ACNGTACGT", b"ACGGTACGT", 6);
    }

    #[test]
    fn matches_scalar_on_long_noisy_pair() {
        let a: Vec<u8> = (0..2000)
            .map(|i| b"ACGT"[(i * 7 + i / 5 + 3) % 4])
            .collect();
        let mut b = a.clone();
        for i in (0..2000).step_by(19) {
            b[i] = b"ACGT"[(a[i] as usize + 1) % 4];
        }
        for x in [0, 1, 5, 25, 50, 400] {
            assert_same(&a, &b, x);
        }
    }

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

    #[test]
    fn kernel_on_derived_views_matches_scalar_on_materialised_bytes() {
        let a: Vec<u8> = (0..400).map(|i| b"ACGTN"[(i * 11 + 2) % 5]).collect();
        let b: Vec<u8> = (0..350).map(|i| b"ACGTN"[(i * 13 + 4) % 5]).collect();
        let pa = PackedSeq::from_bytes(&a);
        let pb = PackedSeq::from_bytes(&b);
        let va = PackedView::full(pa.as_slice());
        let vb = PackedView::full(pb.as_slice());
        let mut al = PackedXDropAligner::new();

        // Suffix vs revcomp-suffix, and reversed prefixes, exactly as
        // seed-and-extend slices them.
        let b_rc = gnb_genome::revcomp(&b);
        let s = al.extend(va.suffix(100), vb.revcomp().suffix(60), &SC, 30);
        assert_eq!(s, xdrop_extend(&a[100..], &b_rc[60..], &SC, 30));

        let a_rev: Vec<u8> = a[..100].iter().rev().copied().collect();
        let b_rev: Vec<u8> = b_rc[..60].iter().rev().copied().collect();
        let l = al.extend(va.rev_prefix(100), vb.revcomp().rev_prefix(60), &SC, 30);
        assert_eq!(l, xdrop_extend(&a_rev, &b_rev, &SC, 30));
    }

    #[test]
    fn simd_paths_agree() {
        // Forced-scalar passes vs forced-lane-parallel passes on a long
        // noisy pair across thresholds. On non-AVX2 hosts both arms run
        // the scalar passes and the test is trivially green.
        let a: Vec<u8> = (0..3000)
            .map(|i| b"ACGTN"[(i * 7 + i / 5 + 3) % 5])
            .collect();
        let mut b = a.clone();
        for i in (0..3000).step_by(23) {
            b[i] = b"ACGT"[(a[i] as usize + 1) % 4];
        }
        let pa = PackedSeq::from_bytes(&a);
        let pb = PackedSeq::from_bytes(&b);
        let va = PackedView::full(pa.as_slice());
        let vb = PackedView::full(pb.as_slice());
        let mut al = PackedXDropAligner::new();
        for x in [0, 1, 5, 25, 50, 400] {
            let scalar = al.extend_impl(va, vb, &SC, x, false);
            let lanes = al.extend_impl(va, vb, &SC, x, simd_available());
            assert_eq!(scalar, lanes, "pass implementations diverge at x={x}");
        }
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_x_rejected() {
        let _ = packed_extend(b"ACGT", b"ACGT", MAX_X + 1);
    }
}
