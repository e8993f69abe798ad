//! Inter-sequence batched X-drop engine: many candidate pairs per register.
//!
//! Vectorising *within* one pair's antidiagonal bounds lane occupancy by
//! the live band width — a few dozen cells on a true overlap, a handful on
//! a dying false positive. This module turns the problem sideways,
//! Farrar-style ("Striped Smith–Waterman", Farrar 2007, adapted from intra- to
//! inter-sequence striping): every SIMD lane carries a *different* pair,
//! and all lanes advance their own DP front one antidiagonal per step in
//! lockstep. Occupancy then depends only on how long lanes keep working,
//! which the batch scheduler controls:
//!
//! * **Length bucketing** ([`LengthBuckets`]): the longest-first order
//!   `align_batch` already produces is cut into buckets of ≤ 2× length
//!   spread, so co-resident lanes finish at commensurate times.
//! * **Staged lane refill**: diagonal progress is quantised onto a doubling
//!   boundary grid (64, 128, 256, …). A cohort of lanes runs one stage;
//!   survivors park in the next stage's pool and are re-seated into fresh,
//!   fully occupied cohorts, while early deaths (the false-positive common
//!   case) free their lane immediately. Cohorts are only under-occupied on
//!   the final flush of each pool.
//! * **Band-relative addressing**: each lane stores its rows at
//!   `row - offset`, the offset fixed per stage at the lane's current band
//!   floor. Lanes whose absolute bands drift apart (different length
//!   ratios) still share a dense register window.
//! * **Staging on demand**: a stage stripes its lanes' bases into
//!   lane-major rows of one byte per lane, 32 rows at a time as the union
//!   band reaches them, and clears DP rows on first touch, so staging
//!   scales with the rows the bands actually cross. The whole stage —
//!   staging, band bookkeeping and sweep — is compiled once per ISA path.
//!   [`BatchStats`] counts staged and swept lane slots exactly.
//!
//! # Bit-identity
//!
//! Results are bit-identical to [`crate::xdrop::XDropAligner`] per pair —
//! same scores, extents, `cells` counts, tie-breaks, and termination. The
//! lane arithmetic is `i16`; the [`eligible_i16`] precheck admits a pair
//! only when every intermediate value is provably exact in `i16`
//! (`n, m ≤ 30 000`, `min(n, m)·match ≤ 30 000`, `|penalties| ≤ 1024`,
//! `x ≤ 4096` — so rows, columns and the per-lane window counters stay
//! below the dead-lane sentinel 32 000, live scores stay in
//! `[-x, 30 000]` and transients below `i16` saturation). Dead cells need
//! no branch: a cell whose predecessors are all dead computes at most
//! `NEG16 + 1024 < -4096 ≤ best - x`, so the X-drop prune stores exactly
//! [`NEG16`] there, which is what the scalar kernel's dead-cell guard
//! yields. Ineligible pairs take the widen-to-`i32` retry path: the engine
//! decodes them into bytes and runs the scalar reference
//! [`XDropAligner`] itself. The proptests in
//! `crates/align/tests/interseq_equivalence.rs` pin all three ISA paths,
//! and the retry path, against the scalar reference.
//!
//! # Accelerator interface
//!
//! [`BatchPlan`] (bucket extents + refill order, plain POD) is the stable
//! descriptor a future GPU backend consumes: the same bucketing and
//! lane-refill schedule maps onto warp-per-pair batch alignment (cf. the
//! GPU scheduler work for de novo assembly, arXiv 2309.07270).

use crate::batch::{AlignParams, BatchOutcome};
use crate::packed::PackedView;
use crate::scoring::ScoringScheme;
use crate::seed_extend::{assemble_record, packed_candidate_geometry, AlignmentRecord, Candidate};
use crate::xdrop::{Extension, XDropAligner};
use gnb_genome::ReadSet;
use std::collections::VecDeque;

/// "Minus infinity" of the `i16` lane arithmetic (`i16::MIN / 4`): low
/// enough that adding any admitted substitution or gap value cannot wrap,
/// high enough that `NEG16 + value` always falls below every admissible
/// X-drop cutoff (see module docs).
pub const NEG16: i16 = i16::MIN / 4;

/// Widest supported lane count (the AVX-512BW path: 32 × i16).
pub const MAX_LANES: usize = 32;

/// Per-lane band-bound sentinels for lanes with no work this diagonal:
/// `DEAD_LO > any q` and `DEAD_HI < any q`, so the in-band and guard masks
/// are false at every position even after the ±3 bound arithmetic.
const DEAD_LO: i16 = 32_000;
const DEAD_HI: i16 = -32_000;

/// Augmented stripe codes: bases are 0–3; an ambiguous base becomes 4 on
/// the `a` side and 5 on the `b` side so one lane-equality test implements
/// "N matches nothing" (N vs N also mismatches).
const A_AMBIG: i8 = 4;
const B_AMBIG: i8 = 5;

/// First stage boundary of the doubling refill grid.
const STAGE0: u32 = 64;

/// Longest stage between re-seats. Lanes re-anchor their band-relative
/// offsets only at stage boundaries, and bands of co-resident lanes drift
/// apart at a few percent of a row per diagonal; capping the stage length
/// bounds that dispersion (and with it the swept union window), while the
/// per-cell cost of stage setup (stripes, restores, parks) stays nearly
/// flat in the stage length.
const STAGE_CAP: u32 = 192;

/// Largest candidate count per bucket (bounds per-bucket pool memory).
const MAX_BUCKET_TASKS: u32 = 4096;

// ---------------------------------------------------------------------------
// ISA dispatch
// ---------------------------------------------------------------------------

/// Which inner-loop implementation a [`BatchedXDropAligner`] runs. All
/// paths compute bit-identical results; only the lane width (and therefore
/// throughput) differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsaPath {
    /// Plain Rust, 8 scalar lanes — the reference the vector paths are
    /// pinned against, and the fallback for non-x86 hosts.
    Portable,
    /// AVX2: 16 × i16 lanes per `__m256i`.
    Avx2,
    /// AVX-512BW: 32 × i16 lanes per `__m512i` with mask registers.
    Avx512,
}

impl IsaPath {
    /// Best path available on this host (runtime CPU detection).
    pub fn detect() -> IsaPath {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512bw") {
                return IsaPath::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return IsaPath::Avx2;
            }
        }
        IsaPath::Portable
    }

    /// Whether this path can run on this host.
    pub fn is_available(self) -> bool {
        match self {
            IsaPath::Portable => true,
            #[cfg(target_arch = "x86_64")]
            IsaPath::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            IsaPath::Avx512 => std::arch::is_x86_feature_detected!("avx512bw"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Pairs processed per SIMD register on this path.
    pub fn lane_width(self) -> usize {
        match self {
            IsaPath::Portable => 8,
            IsaPath::Avx2 => 16,
            IsaPath::Avx512 => 32,
        }
    }
}

/// The x86 SIMD feature set detected at runtime, for benchmark headers and
/// honest reporting of what a committed number describes.
pub fn detected_features() -> Vec<&'static str> {
    let mut out = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            out.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("avx512bw") {
            out.push("avx512bw");
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Batch plan (the accelerator-ready descriptor)
// ---------------------------------------------------------------------------

/// One length bucket: a contiguous span of the longest-first order whose
/// tasks are within 2× of each other in total length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketDesc {
    /// First index into [`BatchPlan::order`].
    pub first: u32,
    /// Number of candidates in the bucket.
    pub count: u32,
    /// Largest `len(a) + len(b)` in the bucket.
    pub max_len_sum: u32,
    /// Smallest `len(a) + len(b)` in the bucket.
    pub min_len_sum: u32,
}

/// Explicit length-bucket grouping over a longest-first task order.
#[derive(Debug, Clone, Default)]
pub struct LengthBuckets {
    /// Buckets in schedule order (longest first).
    pub buckets: Vec<BucketDesc>,
}

impl LengthBuckets {
    /// Groups a descending-sorted sequence of task length sums into buckets
    /// of at most 2× length spread and at most `MAX_BUCKET_TASKS` tasks.
    pub fn build(sorted_len_sums: &[u32]) -> LengthBuckets {
        let mut buckets = Vec::new();
        let mut first = 0u32;
        while (first as usize) < sorted_len_sums.len() {
            let head = sorted_len_sums[first as usize];
            let mut count = 0u32;
            while (first + count) as usize != sorted_len_sums.len() && count < MAX_BUCKET_TASKS {
                let len = sorted_len_sums[(first + count) as usize];
                debug_assert!(len <= head, "input must be sorted descending");
                if 2 * len < head {
                    break;
                }
                count += 1;
            }
            buckets.push(BucketDesc {
                first,
                count,
                max_len_sum: head,
                min_len_sum: sorted_len_sums[(first + count - 1) as usize],
            });
            first += count;
        }
        LengthBuckets { buckets }
    }
}

/// The full batch descriptor: which candidate runs where, in what order.
/// Plain POD — this is the stable interface an accelerator backend consumes
/// (bucket extents, lane assignment rule, refill order).
///
/// Candidate `order[bucket.first + i]` is the bucket's `i`-th seat/refill;
/// each candidate expands to two extension tasks (right, then left), and a
/// backend with `lane_width` lanes seats tasks round-robin, refilling a
/// freed lane with the bucket's next pending task.
#[derive(Debug, Clone, Default)]
pub struct BatchPlan {
    /// Lanes per SIMD register on the path that will execute the plan.
    pub lane_width: u32,
    /// Candidate indices, longest-first (the refill order).
    pub order: Vec<u32>,
    /// Bucket extents over `order`.
    pub buckets: Vec<BucketDesc>,
}

impl BatchPlan {
    /// Builds the plan for a candidate set: the same stable longest-first
    /// sort [`crate::batch::align_batch`] uses, cut into length buckets.
    pub fn build(reads: &ReadSet, tasks: &[Candidate], lane_width: usize) -> BatchPlan {
        let len_sum = |c: &Candidate| -> u32 {
            (reads.read_len(c.a as usize) + reads.read_len(c.b as usize)) as u32
        };
        let mut order: Vec<u32> = (0..tasks.len() as u32).collect();
        order.sort_by_key(|&t| std::cmp::Reverse(len_sum(&tasks[t as usize])));
        let sums: Vec<u32> = order.iter().map(|&t| len_sum(&tasks[t as usize])).collect();
        BatchPlan {
            lane_width: lane_width as u32,
            order,
            buckets: LengthBuckets::build(&sums).buckets,
        }
    }
}

// ---------------------------------------------------------------------------
// Engine statistics
// ---------------------------------------------------------------------------

/// Occupancy and routing counters accumulated by a [`BatchedXDropAligner`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Extension tasks processed (two per candidate).
    pub tasks: u64,
    /// Tasks routed to the `i32` fallback kernel (failed the `i16`
    /// exactness precheck, or — defensively — tripped the overflow guard).
    pub fallback_tasks: u64,
    /// Cohort stage runs executed.
    pub cohorts: u64,
    /// Antidiagonal steps summed over all cohorts.
    pub diagonals: u64,
    /// `lane_width` × diagonals: total lane-step capacity.
    pub lane_steps: u64,
    /// Lane-steps that advanced a live pair (the rest were idle lanes).
    pub active_lane_steps: u64,
    /// DP cells the `i16` lanes evaluated (fallback tasks excluded).
    pub cells: u64,
    /// Lane slots written into the base-code stripes: `lane_width` × the
    /// a- and b-stripe rows each stage staged, summed over cohorts.
    pub stripe_slots: u64,
    /// Lane-rows the sweeps evaluated: `lane_width` × the rows of each
    /// diagonal's union band, summed over diagonals.
    pub swept_slots: u64,
}

impl BatchStats {
    /// Fraction of lane-steps that carried live work — the occupancy the
    /// staged-refill scheduler exists to keep high.
    pub fn lane_fill(&self) -> f64 {
        ratio(self.active_lane_steps, self.lane_steps)
    }

    /// Fraction of swept lane-rows that were DP cells: what the union
    /// window costs over the lanes' own bands.
    pub fn sweep_fill(&self) -> f64 {
        ratio(self.cells, self.swept_slots)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

// ---------------------------------------------------------------------------
// i16 eligibility
// ---------------------------------------------------------------------------

/// Whether a pair can run in the `i16` lane arithmetic with provably exact
/// results (see module docs). Ineligible pairs take the `i32` retry path.
pub fn eligible_i16(n: usize, m: usize, sc: &ScoringScheme, x: i32) -> bool {
    n <= 30_000
        && m <= 30_000
        && sc.match_score <= 1024
        && sc.mismatch >= -1024
        && sc.gap >= -1024
        && x <= 4096
        && (n.min(m) as i64) * sc.match_score as i64 <= 30_000
}

// ---------------------------------------------------------------------------
// Continuations
// ---------------------------------------------------------------------------

/// A paused extension at a stage boundary: everything needed to re-seat the
/// lane in a later cohort. `prev`/`prev2` hold the two rolling antidiagonal
/// arrays over rows `[wlo, wlo + len)`; every row outside that window is
/// exactly `NEG16` wherever a future diagonal may read it.
#[derive(Debug)]
struct Cont {
    task: u32,
    best: i32,
    aext: i32,
    bext: i32,
    cells: u64,
    /// Live row range of diagonal `d` (`lo > hi` = dead).
    l1: (i32, i32),
    /// Live row range of diagonal `d - 1`.
    l2: (i32, i32),
    /// Absolute row of `prev[0]` / `prev2[0]`.
    wlo: i32,
    prev: Vec<i16>,
    prev2: Vec<i16>,
}

impl Cont {
    /// A task that has not started: state "after diagonal 0" — row 0 of
    /// `prev` holds the empty extension's score 0, everything else dead.
    fn fresh(task: u32) -> Cont {
        Cont {
            task,
            best: 0,
            aext: 0,
            bext: 0,
            cells: 0,
            l1: (0, 0),
            l2: (1, 0),
            wlo: 0,
            prev: vec![0],
            prev2: vec![NEG16],
        }
    }
}

/// Outcome of one seated lane after a cohort stage.
enum LaneOutcome {
    Done(u32, Extension),
    Live(Cont),
    /// Defensive overflow-guard trip: rerun the task on the `i32` kernel.
    Retry(u32),
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Reusable inter-sequence batched X-drop engine. One instance owns the
/// striped scratch arrays and the `i32` retry path's scalar aligner and
/// byte buffers; reuse it across batches to keep the hot path
/// allocation-free at steady state.
#[derive(Debug)]
pub struct BatchedXDropAligner {
    path: IsaPath,
    stats: BatchStats,
    /// Rolling antidiagonal arrays, lane-major (`(q - row_base) * lanes + l`).
    prev2: Vec<i16>,
    prev: Vec<i16>,
    cur: Vec<i16>,
    /// Striped augmented base codes for the stage's row / column windows.
    astrip: Vec<i8>,
    bstrip: Vec<i8>,
    /// The `i32` retry path: the scalar reference and the decoded pair.
    fallback: XDropAligner,
    fallback_a: Vec<u8>,
    fallback_b: Vec<u8>,
}

impl Default for BatchedXDropAligner {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchedXDropAligner {
    /// Engine on the best ISA path this host supports.
    pub fn new() -> BatchedXDropAligner {
        Self::with_path(IsaPath::detect())
    }

    /// Engine on an explicit ISA path (tests pin all paths against the
    /// scalar reference with this).
    ///
    /// # Panics
    /// Panics if `path` is not available on this host.
    pub fn with_path(path: IsaPath) -> BatchedXDropAligner {
        assert!(path.is_available(), "ISA path {path:?} not available");
        BatchedXDropAligner {
            path,
            stats: BatchStats::default(),
            prev2: Vec::new(),
            prev: Vec::new(),
            cur: Vec::new(),
            astrip: Vec::new(),
            bstrip: Vec::new(),
            fallback: XDropAligner::new(),
            fallback_a: Vec::new(),
            fallback_b: Vec::new(),
        }
    }

    /// The ISA path this engine dispatches to.
    pub fn path(&self) -> IsaPath {
        self.path
    }

    /// Counters accumulated since construction or [`Self::reset_stats`].
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Clears the accumulated counters.
    pub fn reset_stats(&mut self) {
        self.stats = BatchStats::default();
    }

    /// Extends every pair from `(0, 0)` under X-drop threshold `x`,
    /// returning per-pair [`Extension`]s bit-identical to the scalar kernel
    /// in input order. The caller provides one length bucket per call (the
    /// whole slice is scheduled as a single refill pool).
    pub fn extend_batch(
        &mut self,
        pairs: &[(PackedView<'_>, PackedView<'_>)],
        sc: &ScoringScheme,
        x: i32,
    ) -> Vec<Extension> {
        assert!(x >= 0, "X-drop threshold must be non-negative");
        let mut out = vec![Extension::default(); pairs.len()];
        self.stats.tasks += pairs.len() as u64;

        // Doubling stage grid; d never exceeds n + m ≤ 60 000 for eligible
        // pairs, so the top boundary is unreachable.
        let mut grid: Vec<u32> = vec![0, STAGE0];
        while *grid.last().expect("non-empty") < 65_536 {
            let last = *grid.last().expect("non-empty");
            grid.push(last + last.min(STAGE_CAP));
        }
        let mut pools: Vec<VecDeque<Cont>> = grid.iter().map(|_| VecDeque::new()).collect();

        for (i, (a, b)) in pairs.iter().enumerate() {
            if eligible_i16(a.len(), b.len(), sc, x) {
                pools[0].push_back(Cont::fresh(i as u32));
            } else {
                // Exactness can't be guaranteed in i16.
                out[i] = self.retry(pairs[i], sc, x);
            }
        }

        let lanes = self.path.lane_width();
        loop {
            // Prefer a fully seatable pool (highest occupancy); flush a
            // partial pool only when no pool can fill a cohort. Both
            // choices and the FIFO seat order are deterministic, and
            // results are keyed by task id, so scheduling is unobservable.
            let g = match (0..pools.len()).find(|&g| pools[g].len() >= lanes) {
                Some(g) => g,
                None => match (0..pools.len()).find(|&g| !pools[g].is_empty()) {
                    Some(g) => g,
                    None => break,
                },
            };
            let seat_n = pools[g].len().min(lanes);
            let seats: Vec<Cont> = pools[g].drain(..seat_n).collect();
            debug_assert!(g + 1 < grid.len(), "eligible pair outlived the stage grid");
            let (d0, d1) = (grid[g], grid[g + 1]);
            for outcome in self.run_cohort(seats, pairs, sc, x, d0, d1) {
                match outcome {
                    LaneOutcome::Done(task, ext) => out[task as usize] = ext,
                    LaneOutcome::Live(cont) => pools[g + 1].push_back(cont),
                    LaneOutcome::Retry(task) => {
                        out[task as usize] = self.retry(pairs[task as usize], sc, x);
                    }
                }
            }
        }
        out
    }

    /// The widen-to-`i32` retry path: decodes the pair into the engine's
    /// byte buffers and extends it with the scalar reference kernel.
    fn retry(
        &mut self,
        (a, b): (PackedView<'_>, PackedView<'_>),
        sc: &ScoringScheme,
        x: i32,
    ) -> Extension {
        decode_into(&mut self.fallback_a, a);
        decode_into(&mut self.fallback_b, b);
        self.stats.fallback_tasks += 1;
        self.fallback
            .extend(&self.fallback_a, &self.fallback_b, sc, x)
    }

    /// Runs one cohort from diagonal `d0` (exclusive) to `d1` (inclusive)
    /// on this engine's ISA path.
    fn run_cohort(
        &mut self,
        seats: Vec<Cont>,
        pairs: &[(PackedView<'_>, PackedView<'_>)],
        sc: &ScoringScheme,
        x: i32,
        d0: u32,
        d1: u32,
    ) -> Vec<LaneOutcome> {
        match self.path {
            // SAFETY: the portable sweep needs no CPU feature.
            IsaPath::Portable => unsafe { self.cohort::<Portable>(seats, pairs, sc, x, d0, d1) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `with_path` verified that this host has AVX2.
            IsaPath::Avx2 => unsafe { self.cohort_avx2(seats, pairs, sc, x, d0, d1) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `with_path` verified that this host has AVX-512BW.
            IsaPath::Avx512 => unsafe { self.cohort_avx512(seats, pairs, sc, x, d0, d1) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("vector paths unavailable off x86_64"),
        }
    }

    /// [`Self::cohort`] compiled for AVX2.
    ///
    /// # Safety
    /// The host must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn cohort_avx2(
        &mut self,
        seats: Vec<Cont>,
        pairs: &[(PackedView<'_>, PackedView<'_>)],
        sc: &ScoringScheme,
        x: i32,
        d0: u32,
        d1: u32,
    ) -> Vec<LaneOutcome> {
        // SAFETY: the caller guarantees AVX2.
        unsafe { self.cohort::<simd::Avx2>(seats, pairs, sc, x, d0, d1) }
    }

    /// [`Self::cohort`] compiled for AVX-512BW.
    ///
    /// # Safety
    /// The host must support AVX-512BW.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512bw")]
    unsafe fn cohort_avx512(
        &mut self,
        seats: Vec<Cont>,
        pairs: &[(PackedView<'_>, PackedView<'_>)],
        sc: &ScoringScheme,
        x: i32,
        d0: u32,
        d1: u32,
    ) -> Vec<LaneOutcome> {
        // SAFETY: the caller guarantees AVX-512BW.
        unsafe { self.cohort::<simd::Avx512>(seats, pairs, sc, x, d0, d1) }
    }

    /// One cohort stage at `K`'s lane width. Always inlined into the
    /// per-ISA wrapper above, so the stripe fill and the band bookkeeping
    /// are auto-vectorised for the same ISA as the sweep they feed.
    ///
    /// # Safety
    /// The host must support `K`'s ISA.
    #[inline(always)]
    unsafe fn cohort<K: Sweep>(
        &mut self,
        seats: Vec<Cont>,
        pairs: &[(PackedView<'_>, PackedView<'_>)],
        sc: &ScoringScheme,
        x: i32,
        d0: u32,
        d1: u32,
    ) -> Vec<LaneOutcome> {
        let lw = K::LANES;
        let nl = seats.len();
        debug_assert_eq!(lw, self.path.lane_width());
        debug_assert!(0 < nl && nl <= lw);
        self.stats.cohorts += 1;

        // Per-lane geometry and DP state. Band bookkeeping lives in
        // band-relative q-space (`q = row - off`) as flat `i16` lane arrays
        // so the per-diagonal evolution below is branch-free straight-line
        // code over `[i16; MAX_LANES]` — exactly the shape LLVM
        // auto-vectorizes. Empty diagonal ranges use the canonical sentinel
        // `(DEAD_LO, DEAD_HI)`: with saturating adds, the four-case band
        // merge of the scalar kernel collapses to a maskless min/max
        // (an empty range can never win either bound).
        let mut off = [0i32; MAX_LANES];
        let mut l1lo = [DEAD_LO; MAX_LANES];
        let mut l1hi = [DEAD_HI; MAX_LANES];
        let mut l2lo = [DEAD_LO; MAX_LANES];
        let mut l2hi = [DEAD_HI; MAX_LANES];
        // Row-window counters: `v.vdo = d - off` and `vdm = d - m` advance
        // by one per diagonal; `nq = n - off` and `noq = -off` are stage
        // constants. All stay within i16: a seated lane is alive at `d0`, so
        // `d0 - off ≤ m + 1` and `d0 - m ≤ n`, a stage adds at most
        // `STAGE_CAP`, and the eligibility precheck bounds n and m by
        // 30 000.
        let mut vdm = [0i16; MAX_LANES];
        let mut nq = [0i16; MAX_LANES];
        let mut noq = [0i16; MAX_LANES];
        // Alive mask (0 = dead, -1 = alive) and per-stage cell tally
        // (`u32` suffices: width ≤ 32 001 over ≤ 32 768 diagonals).
        let mut alivem = [0i16; MAX_LANES];
        let mut widsum = [0u32; MAX_LANES];
        let mut v = LaneVecs::idle();

        let kk = (d1 - d0) as i32;
        let skew = kk >> 1;
        let mut q_top = 0i32;
        let mut u_top = 0i32;
        let mut h_top = 0i32;
        for (l, c) in seats.iter().enumerate() {
            let (va, vb) = &pairs[c.task as usize];
            let n = va.len() as i32;
            let m = vb.len() as i32;
            let mut lo = i32::MAX;
            let mut hi = i32::MIN;
            for r in [c.l1, c.l2] {
                if r.0 <= r.1 {
                    lo = lo.min(r.0);
                    hi = hi.max(r.1);
                }
            }
            debug_assert!(lo <= hi, "seated continuation has no live diagonal");
            off[l] = lo;
            if c.l1.0 <= c.l1.1 {
                l1lo[l] = (c.l1.0 - lo) as i16;
                l1hi[l] = (c.l1.1 - lo) as i16;
            }
            if c.l2.0 <= c.l2.1 {
                l2lo[l] = (c.l2.0 - lo) as i16;
                l2hi[l] = (c.l2.1 - lo) as i16;
            }
            v.vdo[l] = (d0 as i32 - lo) as i16;
            vdm[l] = (d0 as i32 - m) as i16;
            nq[l] = (n - lo) as i16;
            noq[l] = (-lo) as i16;
            alivem[l] = -1;
            v.best[l] = c.best as i16;
            v.aext[l] = c.aext as i16;
            v.bext[l] = c.bext as i16;
            v.voff[l] = lo as i16;
            // Band ceilings: the band gains at most one row per diagonal,
            // so by diagonal `d0 + s` its top is ≤ `hi - lo + s` (and ≤ the
            // lane's last row); in skewed storage the ceiling tightens to
            // `hi - lo + ceil(s / 2)` (the storage window descends one row
            // every other diagonal).
            h_top = h_top.max(hi - lo);
            q_top = q_top.max((hi + kk).min(n) - lo);
            u_top = u_top.max((hi + ((kk + 1) >> 1)).min(n) - lo);
        }

        // Row window in skewed storage coordinates `u = q - ((d - d0) >> 1)`:
        // writes hit `[-2 - skew, u_top + 2]`, and `prev`/`prev2` reads lag
        // the current shift by at most one row on each side, so rows
        // `[row_base, u_top + 4]` cover every access with margin. A row
        // must read `NEG16` until this stage writes it; bands drift about
        // half a row per diagonal, which the skew cancels, so a stage
        // touches only a few rows beyond its start band: rows are cleared
        // when first touched. `cleared` is the half-open range of array
        // rows cleared in all three arrays.
        let row_base = -skew - 5;
        let rows = (u_top + 4 - row_base + 1) as usize;
        for arr in [&mut self.prev2, &mut self.prev, &mut self.cur] {
            if arr.len() < rows * lw {
                arr.resize(rows * lw, NEG16);
            }
        }
        let idx = |q: i32| -> usize { ((q - row_base) as usize) * lw };
        let mut cleared = (0, 0);
        // Restored rows are q in `[-2, h_top + 2]`.
        self.clear_rows(lw, &mut cleared, -2 - row_base, h_top + 2 - row_base);

        // Restore continuation rows (fresh tasks restore `prev[0] = 0`).
        for (l, c) in seats.iter().enumerate() {
            for (i, (&pv, &pv2)) in c.prev.iter().zip(&c.prev2).enumerate() {
                let q = c.wlo + i as i32 - off[l];
                self.prev[idx(q) + l] = pv;
                self.prev2[idx(q) + l] = pv2;
            }
        }

        // Striped augmented codes. Cell at band-relative row q of lane l
        // compares a[q + off - 1] against b[(d - q) - off - 1]; the a side
        // is indexed by q directly and the b side by t = d - q, so both
        // stripes are contiguous lane-major loads in the sweep. The sweep
        // of diagonal `d` reads a-rows `[q0, q1]` of its union band, with
        // `0 ≤ q0` and `q1 ≤ min(h_top + (d - d0), q_top)`, and b-rows
        // `[d - q1, d - q0]`, so all reads fall in `[0, q_top]` and
        // `[t_lo, t_hi]`. Rows are filled lazily, 32 at a time, just before
        // the first sweep that reads them: bands advance about half a row
        // per diagonal on each side, so most of the worst-case windows are
        // never staged, and every row a sweep reads was written in this
        // stage (no clearing between stages).
        let t_lo = d0 as i32 - h_top;
        let t_hi = d1 as i32;
        for (strip, len) in [
            (&mut self.astrip, q_top + 1),
            (&mut self.bstrip, t_hi - t_lo + 1),
        ] {
            if strip.len() < len as usize * lw {
                strip.resize(len as usize * lw, 0);
            }
        }
        let mut a_views = Vec::with_capacity(nl);
        let mut b_views = Vec::with_capacity(nl);
        for (l, c) in seats.iter().enumerate() {
            let (va, vb) = pairs[c.task as usize];
            a_views.push((va, off[l] - 1));
            b_views.push((vb, -off[l] - 1));
        }
        let mut a_next = 0;
        let mut b_next = t_lo;

        let ms = sc.match_score as i16;
        let dl = (sc.match_score - sc.mismatch) as i16;
        let gap = sc.gap as i16;
        let x16 = x as i16;

        for d in (d0 as i32 + 1)..=(d1 as i32) {
            // Branch-free band bookkeeping: the scalar kernel's band
            // evolution, evaluated lane-parallel over the canonical-empty
            // q-space ranges. Dead lanes keep evolving — emptiness is
            // sticky under this arithmetic (band_lo never decreases,
            // band_hi grows by at most one, and the row window moves
            // monotonically), so a dead lane can never resurrect, and its
            // width, best score and extents stay frozen at their values
            // from the diagonal it died on.
            let mut ulo = DEAD_LO;
            let mut uhi = DEAD_HI;
            let mut nact = 0i16;
            for l in 0..lw {
                v.vdo[l] += 1;
                vdm[l] += 1;
                let band_lo = l1lo[l].min(l2lo[l].saturating_add(1));
                let band_hi = l1hi[l].max(l2hi[l]).saturating_add(1);
                let rlo = vdm[l].max(0) + noq[l];
                let rhi = v.vdo[l].min(nq[l]);
                let clo = band_lo.max(rlo);
                let chi = band_hi.min(rhi);
                let livem = alivem[l] & -((clo <= chi) as i16);
                alivem[l] = livem;
                v.lov[l] = (clo & livem) | (DEAD_LO & !livem);
                v.hiv[l] = (chi & livem) | (DEAD_HI & !livem);
                // Width in i32 (chi - clo underflows i16 when dead), masked
                // to zero for dead lanes.
                widsum[l] = widsum[l]
                    .wrapping_add((chi as i32 - clo as i32 + 1) as u32 & livem as i32 as u32);
                ulo = ulo.min(v.lov[l]);
                uhi = uhi.max(v.hiv[l]);
                nact -= livem;
            }
            if nact == 0 {
                break;
            }
            let (q0, q1) = (ulo as i32, uhi as i32);
            self.stats.diagonals += 1;
            self.stats.lane_steps += lw as u64;
            self.stats.active_lane_steps += nact as u64;
            self.stats.swept_slots += ((q1 - q0 + 1) as usize * lw) as u64;
            let s = d - d0 as i32;
            let cb = row_base + (s >> 1);
            // The sweep reads and writes through raw pointers: every stripe
            // row it reads and every DP row it touches (`[q0 - 2, q1 + 2]`
            // at base `cb`; `prev`/`prev2` sit at most one row below) must
            // lie inside the windows sized above, as the band bounds prove.
            assert!(
                0 <= q0 && q1 <= q_top && t_lo <= d - q1 && d - q0 <= t_hi,
                "sweep window outside the stage's stripes"
            );
            assert!(
                0 <= q0 - 2 - cb && q1 + 2 - cb < rows as i32,
                "sweep window outside the stage's DP rows"
            );
            while a_next <= q1 {
                let to = (a_next + 31).min(q_top);
                fill_stripe(&mut self.astrip, lw, &a_views, 0, a_next, to, A_AMBIG);
                self.stats.stripe_slots += ((to - a_next + 1) as usize * lw) as u64;
                a_next = to + 1;
            }
            while b_next <= d - q0 {
                let to = (b_next + 31).min(t_hi);
                fill_stripe(&mut self.bstrip, lw, &b_views, t_lo, b_next, to, B_AMBIG);
                self.stats.stripe_slots += ((to - b_next + 1) as usize * lw) as u64;
                b_next = to + 1;
            }

            // The sweep writes rows `[q0 - 2, q1 + 2]` of `cur` and reads
            // `[q0 - 1, q1]` of `prev`/`prev2`, whose bases are at most one
            // row below `cb`.
            self.clear_rows(lw, &mut cleared, q0 - 2 - cb, q1 + 2 - cb);
            // Two guard rows on each side of the union band: no lane is in
            // band there, so each is all `NEG16` (what the sweep would
            // store), and the next two diagonals read them.
            for q in [q0 - 2, q0 - 1, q1 + 1, q1 + 2] {
                let at = ((q - cb) as usize) * lw;
                self.cur[at..at + lw].fill(NEG16);
            }
            // Cumulative skew shifts of the three rolling diagonals (the
            // first diagonal of the stage reads the restored rows, which
            // were parked unshifted).
            let sweep = SweepArgs {
                q0,
                q1,
                d,
                cb,
                pb: row_base + ((s - 1) >> 1),
                p2b: row_base + ((s - 2).max(0) >> 1),
                b_base: t_lo,
                ms,
                dl,
                gap,
                x: x16,
            };
            v.newlo = [DEAD_LO; MAX_LANES];
            v.newhi = [DEAD_HI; MAX_LANES];
            // SAFETY: the caller guarantees `K`'s ISA, and the asserts above
            // keep every row the sweep touches inside the arrays (the
            // stripes are filled up to `q1` and `d - q0`).
            unsafe {
                K::sweep(
                    &sweep,
                    &self.prev2,
                    &self.prev,
                    &mut self.cur,
                    &self.astrip,
                    &self.bstrip,
                    &mut v,
                )
            };

            for l in 0..lw {
                l2lo[l] = l1lo[l];
                l2hi[l] = l1hi[l];
                let live = -((v.newlo[l] <= v.newhi[l]) as i16);
                l1lo[l] = (v.newlo[l] & live) | (DEAD_LO & !live);
                l1hi[l] = (v.newhi[l] & live) | (DEAD_HI & !live);
            }
            std::mem::swap(&mut self.prev2, &mut self.prev);
            std::mem::swap(&mut self.prev, &mut self.cur);
        }

        // Stage boundary: dead lanes finish; survivors park as
        // continuations (q-space bands convert back to absolute rows;
        // empties to the scalar `(1, 0)`), reusing their restored rows'
        // buffers. A survivor parks q-rows `[lo - 2, hi + 2]` of its last
        // two live ranges, at the bases of diagonals `d1` and `d1 - 1`.
        let (mut park_lo, mut park_hi) = (i32::MAX, i32::MIN);
        for l in 0..nl {
            if alivem[l] != 0 {
                park_lo = park_lo.min(l1lo[l].min(l2lo[l]) as i32);
                park_hi = park_hi.max(l1hi[l].max(l2hi[l]) as i32);
            }
        }
        if park_lo <= park_hi {
            let cb = row_base + (kk >> 1);
            self.clear_rows(lw, &mut cleared, park_lo - 2 - cb, park_hi + 3 - cb);
        }
        let mut outcomes: Vec<LaneOutcome> = Vec::with_capacity(nl);
        for (l, seat) in seats.into_iter().enumerate() {
            self.stats.cells += widsum[l] as u64;
            let cells = seat.cells + widsum[l] as u64;
            let done = LaneOutcome::Done(
                seat.task,
                lane_extension(v.best[l], v.aext[l], v.bext[l], cells),
            );
            if alivem[l] == 0 {
                outcomes.push(done);
                continue;
            }
            if v.best[l] > 30_000 {
                // Defensive only: the eligibility precheck bounds best by
                // min(n, m)·match ≤ 30 000, so this cannot fire — but if
                // the proof is ever wrong, rerun on the exact i32 kernel
                // rather than commit a wrong score.
                outcomes.push(LaneOutcome::Retry(seat.task));
                continue;
            }
            let l1 = if l1lo[l] <= l1hi[l] {
                (l1lo[l] as i32 + off[l], l1hi[l] as i32 + off[l])
            } else {
                (1, 0)
            };
            let l2 = if l2lo[l] <= l2hi[l] {
                (l2lo[l] as i32 + off[l], l2hi[l] as i32 + off[l])
            } else {
                (1, 0)
            };
            let mut lo = i32::MAX;
            let mut hi = i32::MIN;
            for r in [l1, l2] {
                if r.0 <= r.1 {
                    lo = lo.min(r.0);
                    hi = hi.max(r.1);
                }
            }
            if lo > hi {
                // Both diagonals died on the last step of the stage: the
                // next bookkeeping step would terminate it — finish now.
                outcomes.push(done);
                continue;
            }
            let (mut pv, mut pv2) = (seat.prev, seat.prev2);
            pv.clear();
            pv2.clear();
            // An alive lane means the stage ran to `d1`, so `prev` holds
            // diagonal `d1` at shift `kk >> 1` and `prev2` holds `d1 - 1`
            // at shift `(kk - 1) >> 1`. Parked rows are unshifted.
            let wlo = lo - 2;
            for r in wlo..=hi + 2 {
                let q = r - off[l];
                pv.push(self.prev[idx(q - (kk >> 1)) + l]);
                pv2.push(self.prev2[idx(q - ((kk - 1) >> 1)) + l]);
            }
            outcomes.push(LaneOutcome::Live(Cont {
                task: seat.task,
                best: v.best[l] as i32,
                aext: v.aext[l] as i32,
                bext: v.bext[l] as i32,
                cells,
                l1,
                l2,
                wlo,
                prev: pv,
                prev2: pv2,
            }));
        }
        outcomes
    }

    /// Grows `cleared`, a half-open range of rows already set to `NEG16`
    /// in all three DP arrays, to cover rows `lo..=hi` (clamped to the
    /// arrays), clearing the rows it adds. An empty range starts at `lo`.
    #[inline(always)]
    fn clear_rows(&mut self, lw: usize, cleared: &mut (usize, usize), lo: i32, hi: i32) {
        let rows = (self.cur.len() / lw) as i32;
        let lo = lo.clamp(0, rows) as usize;
        let hi = (hi + 1).clamp(0, rows) as usize;
        if cleared.0 <= lo && hi <= cleared.1 {
            return;
        }
        if cleared.0 == cleared.1 {
            *cleared = (lo, lo);
        }
        let grown = (cleared.0.min(lo), cleared.1.max(hi));
        for arr in [&mut self.prev2, &mut self.prev, &mut self.cur] {
            arr[grown.0 * lw..cleared.0 * lw].fill(NEG16);
            arr[cleared.1 * lw..grown.1 * lw].fill(NEG16);
        }
        *cleared = grown;
    }
}

/// Builds the final [`Extension`] from a lane's i16 state.
fn lane_extension(best: i16, aext: i16, bext: i16, cells: u64) -> Extension {
    debug_assert!(best >= 0 && aext >= 0 && bext >= 0);
    Extension {
        score: best as i32,
        a_ext: aext as usize,
        b_ext: bext as usize,
        cells,
    }
}

/// Overwrites `buf` with the bases of `view` as ASCII: codes map to `ACGT`
/// and N lanes to `b'N'`, the alphabet the scalar reference reads.
fn decode_into(buf: &mut Vec<u8>, view: PackedView<'_>) {
    buf.clear();
    buf.extend((0..view.len()).map(|i| {
        if view.is_n(i) {
            b'N'
        } else {
            b"ACGT"[view.code(i) as usize]
        }
    }));
}

/// Fills rows `from..=to` of a lane-major stripe whose row 0 is position
/// `base`: slot `(p - base) * lanes + l` holds the augmented code of base
/// `p + shift` of lane `l`'s `(view, shift)`, or `ambig` where that base is
/// `N` or outside the view, and in every lane past `views.len()`.
///
/// Each 32-position block extracts one packed window per lane and then
/// writes whole rows, so every cache line of the stripe is written once.
#[inline(always)]
fn fill_stripe(
    stripe: &mut [i8],
    lanes: usize,
    views: &[(PackedView<'_>, i32)],
    base: i32,
    from: i32,
    to: i32,
    ambig: i8,
) {
    debug_assert!(views.len() <= lanes && lanes <= MAX_LANES);
    debug_assert!(base <= from && from <= to);
    let rows = &mut stripe[(from - base) as usize * lanes..(to - base + 1) as usize * lanes];
    // Each window splits into two 32-bit halves of 16 positions: half `h`
    // holds positions `16h..16h + 16`, position `16h + k` at bit `2k`, or
    // at bit `30 - 2k = 2k ^ 30` when the window is descending.
    let mut codes = [[0u32; MAX_LANES]; 2];
    let mut nmask = [[u32::MAX; MAX_LANES]; 2];
    let mut flip = [0u32; MAX_LANES];
    for (blk, block) in rows.chunks_mut(32 * lanes).enumerate() {
        let p = from + 32 * blk as i32;
        for (l, (view, shift)) in views.iter().enumerate() {
            let (c, n, desc) = view.window32_unordered((p + shift) as isize);
            let first = 32 * desc as u32;
            for (h, at) in [first, 32 - first].into_iter().enumerate() {
                (codes[h][l], nmask[h][l]) = ((c >> at) as u32, (n >> at) as u32);
            }
            flip[l] = 30 * desc as u32;
        }
        for (t, row) in block.chunks_exact_mut(lanes).enumerate() {
            let (h, k) = (t / 16, 2 * (t % 16) as u32);
            let lanes_h = codes[h].iter().zip(&nmask[h]).zip(&flip);
            for (slot, ((&c, &n), &f)) in row.iter_mut().zip(lanes_h) {
                let sh = k ^ f;
                *slot = if (n >> sh) & 3 != 0 {
                    ambig
                } else {
                    ((c >> sh) & 3) as i8
                };
            }
        }
    }
}

/// Shared scalar parameters of one antidiagonal sweep.
///
/// DP rows live in *skewed* storage coordinates `u = q - ((d - d0) >> 1)`:
/// the whole cohort's window shifts down by one row every other diagonal,
/// cancelling the common-mode band drift (a band tracking its pair's main
/// diagonal advances ~0.5 rows per antidiagonal). The shift is uniform
/// across lanes, so it costs nothing in the sweep — each of the three
/// rolling arrays just gets its own base (`cb`/`pb`/`p2b`, the bases of
/// the current, previous, and twice-previous diagonals' storage).
struct SweepArgs {
    /// Band-relative sweep range `[q0, q1]` (the union band).
    q0: i32,
    q1: i32,
    d: i32,
    /// Storage base of `cur`: row `q` of diagonal `d` lives at
    /// `(q - cb) * lanes`.
    cb: i32,
    /// Storage base of `prev` (diagonal `d - 1`).
    pb: i32,
    /// Storage base of `prev2` (diagonal `d - 2`).
    p2b: i32,
    /// Position `t` of the b-stripe's row 0 (the a-stripe's row 0 is
    /// `q = 0`).
    b_base: i32,
    ms: i16,
    dl: i16,
    gap: i16,
    x: i16,
}

/// The per-lane vectors a sweep reads and updates, one `i16` per lane.
struct LaneVecs {
    /// In-band row range of the swept diagonal (`DEAD_LO`/`DEAD_HI` when
    /// the lane is idle).
    lov: [i16; MAX_LANES],
    hiv: [i16; MAX_LANES],
    /// `d - off`: a band-relative row's b-extent is `vdo - q`.
    vdo: [i16; MAX_LANES],
    /// `off`: a band-relative row's a-extent is `q + voff`.
    voff: [i16; MAX_LANES],
    /// Best score so far and its extents; the X-drop cutoff is
    /// `best - x`.
    best: [i16; MAX_LANES],
    aext: [i16; MAX_LANES],
    bext: [i16; MAX_LANES],
    /// Live row range the sweep found on this diagonal (output).
    newlo: [i16; MAX_LANES],
    newhi: [i16; MAX_LANES],
}

impl LaneVecs {
    /// Every lane idle.
    fn idle() -> LaneVecs {
        LaneVecs {
            lov: [DEAD_LO; MAX_LANES],
            hiv: [DEAD_HI; MAX_LANES],
            vdo: [0; MAX_LANES],
            voff: [0; MAX_LANES],
            best: [0; MAX_LANES],
            aext: [0; MAX_LANES],
            bext: [0; MAX_LANES],
            newlo: [DEAD_LO; MAX_LANES],
            newhi: [DEAD_HI; MAX_LANES],
        }
    }
}

/// One antidiagonal sweep at one lane width. Implementors are zero-sized
/// markers; [`BatchedXDropAligner::cohort`] is instantiated once per marker
/// inside a `#[target_feature]` wrapper, and `sweep` is always inlined into
/// it, so intrinsics and the code around them compile for the same ISA.
trait Sweep {
    /// Pairs per register.
    const LANES: usize;

    /// Sweeps rows `[a.q0, a.q1]` of diagonal `a.d`. A lane's cell at row
    /// `q` is *live* when `q` is in its band and the cell's score is at
    /// least `best - x`; `cur` gets the score at live cells and `NEG16` at
    /// every other swept row, and `v`'s best scores, extents and live
    /// ranges update in ascending `q`. Lane-major arrays have stride
    /// `LANES`.
    ///
    /// # Safety
    /// The host must support the marker's ISA. `prev2`, `prev` and `cur`
    /// must hold rows `[q0 - 1, q1]` at their bases, `astrip` rows
    /// `[q0, q1]` and `bstrip` rows `[d - q1, d - q0]` (the windows
    /// `cohort` sizes).
    unsafe fn sweep(
        a: &SweepArgs,
        prev2: &[i16],
        prev: &[i16],
        cur: &mut [i16],
        astrip: &[i8],
        bstrip: &[i8],
        v: &mut LaneVecs,
    );
}

/// Plain Rust, 8 lanes — the reference semantics the vector paths
/// replicate (saturating adds included).
struct Portable;

impl Sweep for Portable {
    const LANES: usize = 8;

    #[inline(always)]
    unsafe fn sweep(
        a: &SweepArgs,
        prev2: &[i16],
        prev: &[i16],
        cur: &mut [i16],
        astrip: &[i8],
        bstrip: &[i8],
        v: &mut LaneVecs,
    ) {
        const LW: usize = Portable::LANES;
        for q in a.q0..=a.q1 {
            let qs = q as i16;
            let ci = ((q - a.cb) as usize) * LW;
            let pi = ((q - a.pb) as usize) * LW;
            let p2i = ((q - a.p2b) as usize) * LW;
            let ai = (q as usize) * LW;
            let bi = ((a.d - q - a.b_base) as usize) * LW;
            for l in 0..LW {
                let sub = if astrip[ai + l] == bstrip[bi + l] {
                    a.ms
                } else {
                    a.ms - a.dl
                };
                let h = prev2[p2i - LW + l]
                    .saturating_add(sub)
                    .max(prev[pi - LW + l].saturating_add(a.gap))
                    .max(prev[pi + l].saturating_add(a.gap));
                // `best - x ≥ -x > NEG16`, so a live cell is never NEG16.
                let live = qs >= v.lov[l] && qs <= v.hiv[l] && h >= v.best[l] - a.x;
                cur[ci + l] = if live { h } else { NEG16 };
                if live {
                    if h > v.best[l] {
                        v.best[l] = h;
                        v.aext[l] = qs + v.voff[l];
                        v.bext[l] = v.vdo[l] - qs;
                    }
                    v.newlo[l] = v.newlo[l].min(qs);
                    v.newhi[l] = qs;
                }
            }
        }
    }
}

/// AVX2 / AVX-512BW sweeps. Each computes exactly the portable sweep's
/// values, so the three paths are bit-identical; the
/// `interseq_equivalence` proptests pin them against each other and
/// against the scalar kernel. Two rewrites keep the per-row dependency
/// chain to one `max`: the best score updates as `max(best, in-band h)`
/// (a cell above `best` is above `best - x`, so it is live), and the row
/// of the last improvement is kept as `q` and turned into extents once per
/// diagonal. In-band tests are one unsigned compare of `q - lo` against
/// the band width; idle lanes get a width of 0 at a base just below the
/// sweep range, so they never match.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{LaneVecs, Sweep, SweepArgs, MAX_LANES, NEG16};
    use std::arch::x86_64::*;

    /// Row pointers of one sweep, stepped one row at a time: the a-stripe
    /// and the DP arrays ascend with `q`, the b-stripe (`t = d - q`)
    /// descends. Steps wrap, so the cursor may move one row past either
    /// end; only rows inside the windows of [`Sweep::sweep`] are read.
    struct Cursor<const LW: usize> {
        a: *const i8,
        b: *const i8,
        /// Row `q - 1` of `prev2`.
        p2: *const i16,
        /// Row `q` of `prev` (row `q - 1` is one row below).
        p: *const i16,
        c: *mut i16,
    }

    impl<const LW: usize> Cursor<LW> {
        /// The cursor at row `a.q0`.
        ///
        /// # Safety
        /// The arrays must hold the windows [`Sweep::sweep`] documents.
        #[inline(always)]
        unsafe fn new(
            a: &SweepArgs,
            prev2: &[i16],
            prev: &[i16],
            cur: &mut [i16],
            astrip: &[i8],
            bstrip: &[i8],
        ) -> Self {
            let row = |q: i32| q as usize * LW;
            Cursor {
                a: astrip.as_ptr().add(row(a.q0)),
                b: bstrip.as_ptr().add(row(a.d - a.q0 - a.b_base)),
                p2: prev2.as_ptr().add(row(a.q0 - 1 - a.p2b)),
                p: prev.as_ptr().add(row(a.q0 - a.pb)),
                c: cur.as_mut_ptr().add(row(a.q0 - a.cb)),
            }
        }

        #[inline(always)]
        fn step(&mut self) {
            self.a = self.a.wrapping_add(LW);
            self.b = self.b.wrapping_sub(LW);
            self.p2 = self.p2.wrapping_add(LW);
            self.p = self.p.wrapping_add(LW);
            self.c = self.c.wrapping_add(LW);
        }
    }

    /// AVX2: 16 × i16 lanes per `__m256i`.
    pub(super) struct Avx2;

    impl Sweep for Avx2 {
        const LANES: usize = 16;

        #[inline(always)]
        unsafe fn sweep(
            a: &SweepArgs,
            prev2: &[i16],
            prev: &[i16],
            cur: &mut [i16],
            astrip: &[i8],
            bstrip: &[i8],
            v: &mut LaneVecs,
        ) {
            const LW: usize = Avx2::LANES;
            let ld = |p: *const i16| _mm256_loadu_si256(p as *const __m256i);
            let st = |p: &mut [i16; MAX_LANES], x: __m256i| {
                _mm256_storeu_si256(p.as_mut_ptr() as *mut __m256i, x)
            };
            let one = _mm256_set1_epi16(1);
            let vneg = _mm256_set1_epi16(NEG16);
            let vmm = _mm256_set1_epi16(a.ms - a.dl);
            let vdl = _mm256_set1_epi16(a.dl);
            let vgap = _mm256_set1_epi16(a.gap);
            let vx = _mm256_set1_epi16(a.x);
            let lov = ld(v.lov.as_ptr());
            let hiv = ld(v.hiv.as_ptr());
            let idle = _mm256_cmpgt_epi16(lov, hiv);
            let width = _mm256_andnot_si256(idle, _mm256_sub_epi16(hiv, lov));
            let mut vq = _mm256_set1_epi16(a.q0 as i16);
            let mut rel = _mm256_sub_epi16(
                vq,
                _mm256_blendv_epi8(lov, _mm256_set1_epi16(a.q0 as i16 - 1), idle),
            );
            let best_in = ld(v.best.as_ptr());
            let mut vbest = best_in;
            let mut vbq = vq;
            let mut vnlo = ld(v.newlo.as_ptr());
            let mut vnhi = ld(v.newhi.as_ptr());

            let mut at = Cursor::<LW>::new(a, prev2, prev, cur, astrip, bstrip);
            for _ in a.q0..a.q1 + 1 {
                let eq = _mm256_cvtepi8_epi16(_mm_cmpeq_epi8(
                    _mm_loadu_si128(at.a as *const __m128i),
                    _mm_loadu_si128(at.b as *const __m128i),
                ));
                let sub = _mm256_add_epi16(vmm, _mm256_and_si256(eq, vdl));
                let h = _mm256_max_epi16(
                    _mm256_adds_epi16(ld(at.p2), sub),
                    _mm256_max_epi16(
                        _mm256_adds_epi16(ld(at.p.sub(LW)), vgap),
                        _mm256_adds_epi16(ld(at.p), vgap),
                    ),
                );
                let inb = _mm256_cmpeq_epi16(_mm256_min_epu16(rel, width), rel);
                let dropped = _mm256_cmpgt_epi16(_mm256_subs_epi16(vbest, vx), h);
                let live = _mm256_andnot_si256(dropped, inb);
                let stv = _mm256_blendv_epi8(vneg, h, live);
                _mm256_storeu_si256(at.c as *mut __m256i, stv);
                let up = _mm256_and_si256(_mm256_cmpgt_epi16(h, vbest), inb);
                vbest = _mm256_max_epi16(vbest, _mm256_blendv_epi8(vneg, h, inb));
                vbq = _mm256_blendv_epi8(vbq, vq, up);
                vnlo = _mm256_min_epi16(vnlo, _mm256_blendv_epi8(vnlo, vq, live));
                vnhi = _mm256_blendv_epi8(vnhi, vq, live);
                vq = _mm256_add_epi16(vq, one);
                rel = _mm256_add_epi16(rel, one);
                at.step();
            }
            let up = _mm256_cmpgt_epi16(vbest, best_in);
            let aext = _mm256_add_epi16(vbq, ld(v.voff.as_ptr()));
            let bext = _mm256_sub_epi16(ld(v.vdo.as_ptr()), vbq);
            let aext = _mm256_blendv_epi8(ld(v.aext.as_ptr()), aext, up);
            let bext = _mm256_blendv_epi8(ld(v.bext.as_ptr()), bext, up);
            st(&mut v.aext, aext);
            st(&mut v.bext, bext);
            st(&mut v.best, vbest);
            st(&mut v.newlo, vnlo);
            st(&mut v.newhi, vnhi);
        }
    }

    /// AVX-512BW: 32 × i16 lanes per `__m512i` with mask registers.
    pub(super) struct Avx512;

    impl Sweep for Avx512 {
        const LANES: usize = 32;

        #[inline(always)]
        unsafe fn sweep(
            a: &SweepArgs,
            prev2: &[i16],
            prev: &[i16],
            cur: &mut [i16],
            astrip: &[i8],
            bstrip: &[i8],
            v: &mut LaneVecs,
        ) {
            const LW: usize = Avx512::LANES;
            let ld = |p: *const i16| _mm512_loadu_si512(p as *const __m512i);
            let st = |p: &mut [i16; MAX_LANES], x: __m512i| {
                _mm512_storeu_si512(p.as_mut_ptr() as *mut __m512i, x)
            };
            let one = _mm512_set1_epi16(1);
            let vneg = _mm512_set1_epi16(NEG16);
            let vmm = _mm512_set1_epi16(a.ms - a.dl);
            let vms = _mm512_set1_epi16(a.ms);
            let vgap = _mm512_set1_epi16(a.gap);
            let vx = _mm512_set1_epi16(a.x);
            let lov = ld(v.lov.as_ptr());
            let hiv = ld(v.hiv.as_ptr());
            let busy: __mmask32 = _mm512_cmple_epi16_mask(lov, hiv);
            let width = _mm512_maskz_sub_epi16(busy, hiv, lov);
            let mut vq = _mm512_set1_epi16(a.q0 as i16);
            let mut rel = _mm512_sub_epi16(
                vq,
                _mm512_mask_blend_epi16(busy, _mm512_set1_epi16(a.q0 as i16 - 1), lov),
            );
            let best_in = ld(v.best.as_ptr());
            let mut vbest = best_in;
            let mut vbq = vq;
            let mut vnlo = ld(v.newlo.as_ptr());
            let mut vnhi = ld(v.newhi.as_ptr());

            let mut at = Cursor::<LW>::new(a, prev2, prev, cur, astrip, bstrip);
            for _ in a.q0..a.q1 + 1 {
                let eq = _mm512_cmpeq_epi8_mask(
                    _mm512_castsi256_si512(_mm256_loadu_si256(at.a as *const __m256i)),
                    _mm512_castsi256_si512(_mm256_loadu_si256(at.b as *const __m256i)),
                ) as __mmask32;
                let sub = _mm512_mask_blend_epi16(eq, vmm, vms);
                let h = _mm512_max_epi16(
                    _mm512_adds_epi16(ld(at.p2), sub),
                    _mm512_max_epi16(
                        _mm512_adds_epi16(ld(at.p.sub(LW)), vgap),
                        _mm512_adds_epi16(ld(at.p), vgap),
                    ),
                );
                let inb: __mmask32 = _mm512_cmple_epu16_mask(rel, width);
                let live: __mmask32 =
                    _mm512_mask_cmpge_epi16_mask(inb, h, _mm512_subs_epi16(vbest, vx));
                let stv = _mm512_mask_blend_epi16(live, vneg, h);
                _mm512_storeu_si512(at.c as *mut __m512i, stv);
                let up: __mmask32 = _mm512_mask_cmpgt_epi16_mask(inb, h, vbest);
                vbest = _mm512_mask_max_epi16(vbest, inb, vbest, h);
                vbq = _mm512_mask_blend_epi16(up, vbq, vq);
                vnlo = _mm512_mask_min_epi16(vnlo, live, vnlo, vq);
                vnhi = _mm512_mask_blend_epi16(live, vnhi, vq);
                vq = _mm512_add_epi16(vq, one);
                rel = _mm512_add_epi16(rel, one);
                at.step();
            }
            let up: __mmask32 = _mm512_cmpgt_epi16_mask(vbest, best_in);
            let aext = _mm512_add_epi16(vbq, ld(v.voff.as_ptr()));
            let bext = _mm512_sub_epi16(ld(v.vdo.as_ptr()), vbq);
            let aext = _mm512_mask_blend_epi16(up, ld(v.aext.as_ptr()), aext);
            let bext = _mm512_mask_blend_epi16(up, ld(v.bext.as_ptr()), bext);
            st(&mut v.aext, aext);
            st(&mut v.bext, bext);
            st(&mut v.best, vbest);
            st(&mut v.newlo, vnlo);
            st(&mut v.newhi, vnhi);
        }
    }
}

// ---------------------------------------------------------------------------
// Candidate-batch driver (KernelImpl::Batched)
// ---------------------------------------------------------------------------

/// Aligns a candidate batch with the batched engine: builds the
/// [`BatchPlan`], then per bucket expands each candidate into its two
/// extension tasks (strand-normalised views: a suffix for the right
/// extension, a reversed prefix for the left), runs the engine, and
/// assembles records. Records come back in input order; the per-record
/// values are bit-identical to the scalar kernel's.
pub fn align_candidates_batched(
    reads: &ReadSet,
    tasks: &[Candidate],
    params: &AlignParams,
) -> (Vec<AlignmentRecord>, BatchStats) {
    let mut engine = BatchedXDropAligner::new();
    let records = align_candidates_batched_with(&mut engine, reads, tasks, params);
    (records, engine.stats())
}

/// [`align_candidates_batched`] with a caller-owned engine (reused scratch,
/// explicit ISA path, accumulated stats).
pub fn align_candidates_batched_with(
    engine: &mut BatchedXDropAligner,
    reads: &ReadSet,
    tasks: &[Candidate],
    params: &AlignParams,
) -> Vec<AlignmentRecord> {
    let plan = BatchPlan::build(reads, tasks, engine.path().lane_width());
    let mut slots: Vec<Option<AlignmentRecord>> = vec![None; tasks.len()];
    for bucket in &plan.buckets {
        let ids = &plan.order[bucket.first as usize..(bucket.first + bucket.count) as usize];
        let geoms: Vec<_> = ids
            .iter()
            .map(|&t| {
                let cand = &tasks[t as usize];
                packed_candidate_geometry(
                    reads.packed_read(cand.a as usize),
                    reads.packed_read(cand.b as usize),
                    cand,
                    params.k,
                    &params.scoring,
                )
            })
            .collect();
        let mut pairs = Vec::with_capacity(2 * geoms.len());
        for g in &geoms {
            pairs.push((
                g.a.suffix(g.a_pos + params.k),
                g.b_norm.suffix(g.b_pos + params.k),
            ));
            pairs.push((g.a.rev_prefix(g.a_pos), g.b_norm.rev_prefix(g.b_pos)));
        }
        let exts = engine.extend_batch(&pairs, &params.scoring, params.x);
        for (i, (&t, g)) in ids.iter().zip(&geoms).enumerate() {
            let (right, left) = (&exts[2 * i], &exts[2 * i + 1]);
            slots[t as usize] = Some(assemble_record(
                &tasks[t as usize],
                g.seed_score,
                left,
                right,
                g.a_pos,
                g.b_pos,
                params.k,
                g.a.len(),
                g.b_norm.len(),
                &params.criteria,
            ));
        }
    }
    slots
        .into_iter()
        .map(|r| r.expect("every candidate scheduled exactly once"))
        .collect()
}

/// Batch driver used by [`crate::batch::align_batch`] for
/// [`crate::KernelImpl::Batched`]: one engine, bucketed schedule, records
/// in input order.
pub(crate) fn align_batch_batched(
    reads: &ReadSet,
    tasks: &[Candidate],
    params: &AlignParams,
) -> BatchOutcome {
    #[expect(
        clippy::disallowed_types,
        reason = "measures real alignment wall time; deterministic outputs are the records, not the timing"
    )]
    let start = std::time::Instant::now();
    let (records, _) = align_candidates_batched(reads, tasks, params);
    let elapsed = start.elapsed();
    let total_cells = records.iter().map(|r| r.cells).sum();
    BatchOutcome {
        records,
        total_cells,
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xdrop::xdrop_extend;
    use gnb_genome::PackedSeq;

    const SC: ScoringScheme = ScoringScheme::DEFAULT;

    fn check_batch(pairs_bytes: &[(&[u8], &[u8])], x: i32) {
        let packed: Vec<(PackedSeq, PackedSeq)> = pairs_bytes
            .iter()
            .map(|(a, b)| (PackedSeq::from_bytes(a), PackedSeq::from_bytes(b)))
            .collect();
        let views: Vec<(PackedView<'_>, PackedView<'_>)> = packed
            .iter()
            .map(|(a, b)| {
                (
                    PackedView::full(a.as_slice()),
                    PackedView::full(b.as_slice()),
                )
            })
            .collect();
        let want: Vec<Extension> = pairs_bytes
            .iter()
            .map(|(a, b)| xdrop_extend(a, b, &SC, x))
            .collect();
        for path in [IsaPath::Portable, IsaPath::Avx2, IsaPath::Avx512] {
            if !path.is_available() {
                continue;
            }
            let mut eng = BatchedXDropAligner::with_path(path);
            let got = eng.extend_batch(&views, &SC, x);
            assert_eq!(got, want, "path {path:?} diverges at x={x}");
        }
    }

    #[test]
    fn matches_scalar_on_basics() {
        let pairs: Vec<(&[u8], &[u8])> = vec![
            (b"ACGTACGT", b"ACGTACGT"),
            (b"ACGTACGTAC", b"ACGTTCGTAC"),
            (b"ACGTACGTACGT", b"ACGTACTACGT"),
            (b"ACGGTTTTT", b"ACGGAAAAA"),
            (b"ACGTACGTACGTACGT", b"ACGT"),
            (b"", b""),
            (b"ACGT", b""),
            (b"", b"ACGT"),
            (b"ACGTNACGT", b"ACGTNACGT"),
            (b"NNNN", b"NNNN"),
        ];
        for x in [0, 5, 25, 100] {
            check_batch(&pairs, x);
        }
    }

    #[test]
    fn matches_scalar_on_long_noisy_batch() {
        let mk = |salt: usize, n: usize| -> Vec<u8> {
            (0..n)
                .map(|i| b"ACGT"[(i * 7 + salt * 13 + i / 5) % 4])
                .collect()
        };
        let mut owned: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for s in 0..9 {
            let a = mk(s, 500 + 400 * s);
            let mut b = a.clone();
            for i in (s..b.len()).step_by(17 + s) {
                b[i] = b"ACGT"[(b[i] as usize + 1) % 4];
            }
            owned.push((a, b));
        }
        // A couple of false-positive pairs that die early (refill path).
        owned.push((mk(1, 800), mk(7, 900)));
        owned.push((mk(2, 2000), mk(8, 2000)));
        let pairs: Vec<(&[u8], &[u8])> = owned
            .iter()
            .map(|(a, b)| (a.as_slice(), b.as_slice()))
            .collect();
        for x in [1, 25, 400] {
            check_batch(&pairs, x);
        }
    }

    #[test]
    fn ineligible_pairs_take_fallback() {
        // A scheme too hot for i16 routes through the i32 retry path and
        // still matches the scalar kernel.
        let sc = ScoringScheme::new(2000, -2500, -2500);
        let a: Vec<u8> = (0..300).map(|i| b"ACGT"[(i * 7 + 1) % 4]).collect();
        let b = a.clone();
        let pa = PackedSeq::from_bytes(&a);
        let pb = PackedSeq::from_bytes(&b);
        let mut eng = BatchedXDropAligner::new();
        let got = eng.extend_batch(
            &[(
                PackedView::full(pa.as_slice()),
                PackedView::full(pb.as_slice()),
            )],
            &sc,
            50,
        );
        assert_eq!(got[0], xdrop_extend(&a, &b, &sc, 50));
        assert_eq!(eng.stats().fallback_tasks, 1);
    }

    #[test]
    fn length_buckets_bound_spread() {
        let sums = vec![4000, 3900, 2100, 2000, 1999, 800, 10, 10, 9];
        let lb = LengthBuckets::build(&sums);
        let mut covered = 0u32;
        for b in &lb.buckets {
            assert!(2 * b.min_len_sum >= b.max_len_sum, "spread > 2x: {b:?}");
            assert_eq!(b.first, covered);
            covered += b.count;
        }
        assert_eq!(covered as usize, sums.len());
    }

    #[test]
    fn stats_track_occupancy() {
        let a: Vec<u8> = (0..1000).map(|i| b"ACGT"[(i * 3 + 1) % 4]).collect();
        let pa = PackedSeq::from_bytes(&a);
        let v = PackedView::full(pa.as_slice());
        let mut eng = BatchedXDropAligner::new();
        let pairs: Vec<_> = (0..eng.path().lane_width()).map(|_| (v, v)).collect();
        let _ = eng.extend_batch(&pairs, &SC, 25);
        let st = eng.stats();
        assert_eq!(st.tasks, pairs.len() as u64);
        assert!(st.cohorts >= 1);
        assert!(
            st.lane_fill() > 0.9,
            "identical pairs must fill lanes: {st:?}"
        );
    }

    /// Staging and sweep-window work are exact counts: pinned on the
    /// portable path, and on every path the lane cells are the tasks' cells.
    #[test]
    fn engine_counters_are_exact() {
        let mk = |salt: usize, n: usize| -> Vec<u8> {
            (0..n)
                .map(|i| b"ACGT"[(i * 7 + salt * 13 + i / 5) % 4])
                .collect()
        };
        let mut owned: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for s in 0..12 {
            let a = mk(s, 300 + 50 * s);
            let mut b = a.clone();
            for i in (s..b.len()).step_by(11 + s) {
                b[i] = b"ACGT"[(b[i] as usize + 1) % 4];
            }
            b.insert(b.len() / 2, b'A');
            owned.push((a, b));
            owned.push((mk(s, 120), mk(s + 40, 150)));
        }
        let packed: Vec<(PackedSeq, PackedSeq)> = owned
            .iter()
            .map(|(a, b)| (PackedSeq::from_bytes(a), PackedSeq::from_bytes(b)))
            .collect();
        let views: Vec<_> = packed
            .iter()
            .map(|(a, b)| {
                (
                    PackedView::full(a.as_slice()),
                    PackedView::full(b.as_slice()),
                )
            })
            .collect();
        let counts = |path: IsaPath| {
            let mut eng = BatchedXDropAligner::with_path(path);
            let exts = eng.extend_batch(&views, &SC, 20);
            let st = eng.stats();
            assert_eq!(st.cells, exts.iter().map(|e| e.cells).sum::<u64>());
            assert!(st.cells <= st.swept_slots && st.sweep_fill() <= 1.0);
            (st.cells, st.stripe_slots, st.swept_slots)
        };
        assert_eq!(counts(IsaPath::Portable), (183_977, 34_240, 288_224));
        for path in [IsaPath::Portable, IsaPath::Avx2, IsaPath::Avx512] {
            if path.is_available() {
                assert_eq!(counts(path), counts(path), "{path:?} must repeat");
            }
        }
    }

    /// Every lane's stripe slot holds the augmented code `PackedView`
    /// reports for its position, across view orientations, positions
    /// before and past the view, `N` runs across 32-base windows, and
    /// partial cohorts; rows outside the filled range stay untouched.
    #[test]
    fn fill_stripe_matches_view_codes() {
        let bytes: Vec<u8> = (0..100usize)
            .map(|i| {
                if (29..35).contains(&i) || (62..67).contains(&i) || i == 90 {
                    b'N'
                } else {
                    b"ACGT"[(i * 7 + i / 3) % 4]
                }
            })
            .collect();
        let seq = PackedSeq::from_bytes(&bytes);
        let full = PackedView::full(seq.as_slice());
        let kinds = [
            full,
            full.suffix(17),
            full.rev_prefix(70),
            full.revcomp(),
            full.revcomp().suffix(9),
            full.revcomp().rev_prefix(81),
        ];
        let expect = |view: &PackedView<'_>, i: i32, ambig: i8| -> i8 {
            if i < 0 || i >= view.len() as i32 || view.is_n(i as usize) {
                ambig
            } else {
                view.code(i as usize) as i8
            }
        };
        const UNTOUCHED: i8 = 99;
        let (base, from, to) = (-40, -37, 110);
        for lanes in [8, 16, 32] {
            for seated in [1, lanes / 2 + 1, lanes] {
                let views: Vec<(PackedView<'_>, i32)> = (0..seated)
                    .map(|l| (kinds[l % kinds.len()], (l as i32 * 7) % 23 - 11))
                    .collect();
                for ambig in [A_AMBIG, B_AMBIG] {
                    let mut stripe = vec![UNTOUCHED; (to - base + 3) as usize * lanes];
                    fill_stripe(&mut stripe, lanes, &views, base, from, to, ambig);
                    for (r, row) in stripe.chunks_exact(lanes).enumerate() {
                        let p = base + r as i32;
                        for (l, &got) in row.iter().enumerate() {
                            let want = if p < from || p > to {
                                UNTOUCHED
                            } else if let Some((view, shift)) = views.get(l) {
                                expect(view, p + shift, ambig)
                            } else {
                                ambig
                            };
                            assert_eq!(got, want, "lanes {lanes} seated {seated} p {p} lane {l}");
                        }
                    }
                }
            }
        }
    }
}
