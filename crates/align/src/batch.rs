//! Batch alignment: one call aligns a whole candidate set.
//!
//! The default kernel, [`KernelImpl::Batched`] (and its alias
//! [`KernelImpl::Packed`]), is a whole-batch engine that schedules the
//! candidates itself (length buckets, lane refill; see [`crate::interseq`]).
//! The per-candidate scalar reference runs as a rayon loop, one
//! [`SeedExtendScratch`] per worker. Either way records come back in input
//! order, with the measured per-task costs used to calibrate the
//! simulator's cost model.

use crate::scoring::ScoringScheme;
use crate::seed_extend::{
    align_candidate_with, AcceptCriteria, AlignmentRecord, Candidate, SeedExtendScratch,
};
use crate::KernelImpl;
use gnb_genome::ReadSet;
use rayon::prelude::*;

/// Outcome of a batch alignment.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// One record per input candidate, in input order.
    pub records: Vec<AlignmentRecord>,
    /// Total DP cells across all tasks.
    pub total_cells: u64,
    /// Wall-clock time of the parallel region.
    pub elapsed: std::time::Duration,
}

impl BatchOutcome {
    /// The accepted alignments only.
    pub fn accepted(&self) -> impl Iterator<Item = &AlignmentRecord> {
        self.records.iter().filter(|r| r.accepted)
    }

    /// Number of accepted alignments.
    pub fn accepted_count(&self) -> usize {
        self.records.iter().filter(|r| r.accepted).count()
    }
}

/// Alignment parameters shared across a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AlignParams {
    /// Seed length (the k used for candidate discovery).
    pub k: usize,
    /// Scoring scheme.
    pub scoring: ScoringScheme,
    /// X-drop threshold.
    pub x: i32,
    /// Acceptance criteria.
    pub criteria: AcceptCriteria,
    /// Kernel implementation [`align_batch`] runs; defaults to
    /// [`KernelImpl::Batched`] (the serial reference driver always uses the
    /// scalar kernel — see [`align_batch_serial`]).
    pub kernel: KernelImpl,
}

impl Default for AlignParams {
    fn default() -> Self {
        AlignParams {
            k: 17,
            scoring: ScoringScheme::DEFAULT,
            x: 25,
            criteria: AcceptCriteria::default(),
            kernel: KernelImpl::default(),
        }
    }
}

/// Aligns one candidate with the scalar reference kernel.
fn align_one(
    scratch: &mut SeedExtendScratch,
    reads: &ReadSet,
    cand: &Candidate,
    params: &AlignParams,
) -> AlignmentRecord {
    align_candidate_with(
        scratch,
        reads.read(cand.a as usize),
        reads.read(cand.b as usize),
        cand,
        params.k,
        &params.scoring,
        params.x,
        &params.criteria,
    )
}

/// Aligns every candidate; records are returned in input order, so results
/// are deterministic and independent of the schedule.
///
/// [`KernelImpl::Batched`] (the default) and [`KernelImpl::Packed`] bypass
/// the rayon path: the inter-sequence engine takes the whole batch and
/// schedules it over length buckets with lane refill. The scalar kernel
/// runs per candidate in parallel, **longest-first**: candidates are
/// ordered by descending `len(a) + len(b)` (a cheap upper-bound cost proxy
/// — a task's true cost is unknowable before it runs, §4.2 of the paper)
/// so a huge true-overlap task picked up last cannot leave one worker
/// aligning alone after the rest of the pool drains. Both paths scatter results back to input order
/// before returning, making the schedule unobservable.
pub fn align_batch(reads: &ReadSet, tasks: &[Candidate], params: &AlignParams) -> BatchOutcome {
    if params.kernel != KernelImpl::Scalar {
        // The inter-sequence engine schedules the whole batch itself
        // (length buckets + lane refill) — same longest-first order, same
        // input-order records, bit-identical results.
        return crate::interseq::align_batch_batched(reads, tasks, params);
    }
    #[expect(
        clippy::disallowed_types,
        reason = "measures real alignment wall time; deterministic outputs are the records, not the timing"
    )]
    let start = std::time::Instant::now();
    let mut order: Vec<u32> = (0..tasks.len() as u32).collect();
    // Stable sort: equal-length tasks keep input order, so the schedule
    // itself is deterministic too.
    order.sort_by_key(|&t| {
        let c = &tasks[t as usize];
        std::cmp::Reverse(reads.read_len(c.a as usize) + reads.read_len(c.b as usize))
    });
    let scheduled: Vec<(u32, AlignmentRecord)> = order
        .par_iter()
        .map_init(SeedExtendScratch::new, |scratch, &t| {
            (t, align_one(scratch, reads, &tasks[t as usize], params))
        })
        .collect();
    let mut slots: Vec<Option<AlignmentRecord>> = vec![None; tasks.len()];
    for (t, rec) in scheduled {
        slots[t as usize] = Some(rec);
    }
    let records: Vec<AlignmentRecord> = slots
        .into_iter()
        .map(|r| r.expect("every task scheduled exactly once"))
        .collect();
    let elapsed = start.elapsed();
    let total_cells = records.iter().map(|r| r.cells).sum();
    BatchOutcome {
        records,
        total_cells,
        elapsed,
    }
}

/// Serial reference driver (validation and single-thread baselines).
///
/// Always runs the scalar reference kernel in input order, regardless of
/// `params.kernel` — it *is* the reference [`align_batch`] is validated
/// against, so comparing the two (batched by default, bucketed
/// longest-first) cross-checks both the kernel and the schedule.
pub fn align_batch_serial(
    reads: &ReadSet,
    tasks: &[Candidate],
    params: &AlignParams,
) -> BatchOutcome {
    #[expect(
        clippy::disallowed_types,
        reason = "measures real alignment wall time; deterministic outputs are the records, not the timing"
    )]
    let start = std::time::Instant::now();
    let mut scratch = SeedExtendScratch::new();
    let records: Vec<AlignmentRecord> = tasks
        .iter()
        .map(|cand| align_one(&mut scratch, reads, cand, params))
        .collect();
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
    use gnb_genome::reads::{ReadOrigin, Strand};

    fn make_reads() -> (ReadSet, Vec<Candidate>) {
        let bases = b"ACGT";
        let gen = |seed: usize, n: usize| -> Vec<u8> {
            (0..n)
                .map(|i| bases[(i * 7 + seed * 13 + i / 3) % 4])
                .collect()
        };
        let core = gen(5, 600);
        let a: Vec<u8> = gen(1, 200).into_iter().chain(core.clone()).collect();
        let b: Vec<u8> = core.into_iter().chain(gen(2, 200)).collect();
        let mut rs = ReadSet::new();
        let o = ReadOrigin {
            start: 0,
            ref_len: 0,
            strand: Strand::Forward,
        };
        rs.push(&a, o);
        rs.push(&b, o);
        let cands = vec![
            Candidate {
                a: 0,
                b: 1,
                a_pos: 400,
                b_pos: 200,
                same_strand: true,
            },
            Candidate {
                a: 1,
                b: 0,
                a_pos: 100,
                b_pos: 300,
                same_strand: true,
            },
        ];
        (rs, cands)
    }

    fn params() -> AlignParams {
        AlignParams {
            k: 17,
            scoring: ScoringScheme::DEFAULT,
            x: 25,
            criteria: AcceptCriteria {
                min_score: 100,
                min_overlap: 100,
            },
            ..AlignParams::default()
        }
    }

    #[test]
    fn parallel_matches_serial() {
        // The default path (batched engine, bucketed longest-first
        // schedule) must agree record-for-record with the scalar in-order
        // reference.
        let (reads, cands) = make_reads();
        let p = params();
        let par = align_batch(&reads, &cands, &p);
        let ser = align_batch_serial(&reads, &cands, &p);
        assert_eq!(par.records, ser.records);
        assert_eq!(par.total_cells, ser.total_cells);
    }

    #[test]
    fn kernel_selection_is_result_invariant() {
        let (reads, cands) = make_reads();
        let scalar = align_batch(
            &reads,
            &cands,
            &AlignParams {
                kernel: crate::KernelImpl::Scalar,
                ..params()
            },
        );
        let packed = align_batch(
            &reads,
            &cands,
            &AlignParams {
                kernel: crate::KernelImpl::Packed,
                ..params()
            },
        );
        let batched = align_batch(
            &reads,
            &cands,
            &AlignParams {
                kernel: crate::KernelImpl::Batched,
                ..params()
            },
        );
        assert_eq!(scalar.records, packed.records);
        assert_eq!(scalar.total_cells, packed.total_cells);
        assert_eq!(scalar.records, batched.records);
        assert_eq!(scalar.total_cells, batched.total_cells);
    }

    /// Lowercase and IUPAC input reaches every kernel as the same
    /// `{A,C,G,T,N}` read, because `ReadSet::push` normalises it.
    #[test]
    fn kernels_agree_on_lowercase_and_iupac_reads() {
        let o = ReadOrigin {
            start: 0,
            ref_len: 0,
            strand: Strand::Forward,
        };
        let lower: Vec<u8> = (0..2000).map(|i| b"acgt"[(i * 7 + i / 3) % 4]).collect();
        let iupac: Vec<u8> = (0..2000)
            .map(|i| b"ACGTRYacgtn"[(i * 5 + i / 7) % 11])
            .collect();
        let mut reads = ReadSet::new();
        for seq in [&lower, &lower, &iupac, &iupac] {
            reads.push(seq, o);
        }
        let cands: Vec<Candidate> = [(0, 1), (2, 3)]
            .map(|(a, b)| Candidate {
                a,
                b,
                a_pos: 100,
                b_pos: 100,
                same_strand: true,
            })
            .to_vec();
        let run = |kernel| align_batch(&reads, &cands, &AlignParams { kernel, ..params() });
        let scalar = run(crate::KernelImpl::Scalar);
        assert!(scalar.records[0].accepted && scalar.records[0].score == 2000);
        for kernel in [crate::KernelImpl::Batched, crate::KernelImpl::Packed] {
            let out = run(kernel);
            assert_eq!(scalar.records, out.records, "{kernel:?}");
            assert_eq!(scalar.total_cells, out.total_cells, "{kernel:?}");
        }
    }

    #[test]
    fn both_candidates_accepted() {
        let (reads, cands) = make_reads();
        let out = align_batch(&reads, &cands, &params());
        assert_eq!(out.accepted_count(), 2);
        for r in out.accepted() {
            assert_eq!(r.score, 600);
        }
    }

    #[test]
    fn empty_batch() {
        let (reads, _) = make_reads();
        let out = align_batch(&reads, &[], &params());
        assert!(out.records.is_empty());
        assert_eq!(out.total_cells, 0);
        assert_eq!(out.accepted_count(), 0);
    }

    #[test]
    fn records_in_input_order() {
        let (reads, mut cands) = make_reads();
        cands.reverse();
        let out = align_batch(&reads, &cands, &params());
        assert_eq!(out.records[0].a, cands[0].a);
        assert_eq!(out.records[1].a, cands[1].a);
    }

    #[test]
    fn mixed_lengths_scatter_back_to_input_order() {
        // A short pair queued before a long pair: the longest-first
        // schedule runs them in the opposite order, but the outputs must
        // land back in input order.
        let (mut reads, _) = make_reads();
        let o = ReadOrigin {
            start: 0,
            ref_len: 0,
            strand: Strand::Forward,
        };
        let short: Vec<u8> = (0..60)
            .map(|i| b"ACGT"[(i * 7 + 5 * 13 + i / 3) % 4])
            .collect();
        let s0 = reads.push(&short, o);
        let s1 = reads.push(&short, o);
        let cands = vec![
            Candidate {
                a: s0,
                b: s1,
                a_pos: 10,
                b_pos: 10,
                same_strand: true,
            },
            Candidate {
                a: 0,
                b: 1,
                a_pos: 400,
                b_pos: 200,
                same_strand: true,
            },
        ];
        let out = align_batch(&reads, &cands, &params());
        let ser = align_batch_serial(&reads, &cands, &params());
        assert_eq!(out.records, ser.records);
        assert_eq!((out.records[0].a, out.records[0].b), (s0, s1));
        assert_eq!((out.records[1].a, out.records[1].b), (0, 1));
    }
}
