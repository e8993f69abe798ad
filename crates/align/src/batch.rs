//! Batch alignment: one call aligns a whole candidate set.
//!
//! Both kernels run on the `rayon` pool, one scratch per worker. The
//! default kernel, [`KernelImpl::Batched`] (and its alias
//! [`KernelImpl::Packed`]), gives each worker a share of the batch for its
//! own whole-batch engine, which schedules that share itself (length
//! buckets, lane refill; see [`crate::interseq`]). The per-candidate scalar
//! reference maps candidates one by one, one [`SeedExtendScratch`] per
//! worker. Either way records come back in input order, with the measured
//! per-task costs used to calibrate the simulator's cost model.

use crate::scoring::ScoringScheme;
use crate::seed_extend::{
    align_candidate_with, AcceptCriteria, AlignmentRecord, Candidate, SeedExtendScratch,
};
use crate::{interseq, KernelImpl};
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
/// Both paths start from one **longest-first** order: candidates by
/// descending `len(a) + len(b)` (a cheap upper-bound cost proxy — a task's
/// true cost is unknowable before it runs, §4.2 of the paper), dealt
/// round-robin over the pool's workers, so every worker gets a like mix of
/// long and short tasks and none is left aligning alone after the rest
/// drain. [`KernelImpl::Batched`] (the default) and [`KernelImpl::Packed`]
/// deal one share per worker to its own inter-sequence engine, which
/// schedules the share over length buckets with lane refill; the scalar
/// kernel maps the candidates one at a time. Both paths scatter results
/// back to input order before returning, making the schedule unobservable.
pub fn align_batch(reads: &ReadSet, tasks: &[Candidate], params: &AlignParams) -> BatchOutcome {
    if params.kernel != KernelImpl::Scalar {
        // One share per worker, each an engine scheduling its share itself
        // (length buckets + lane refill): input-order records,
        // bit-identical results.
        return interseq::align_batch_batched(reads, tasks, params, rayon::current_num_threads());
    }
    #[expect(
        clippy::disallowed_types,
        reason = "measures real alignment wall time; deterministic outputs are the records, not the timing"
    )]
    let start = std::time::Instant::now();
    let scheduled: Vec<(u32, AlignmentRecord)> = interseq::longest_first(reads, tasks)
        .par_iter()
        .map_init(SeedExtendScratch::new, |scratch, &t| {
            (t, align_one(scratch, reads, &tasks[t as usize], params))
        })
        .collect();
    let records = interseq::in_input_order(tasks.len(), scheduled);
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

    /// Reads of `preset` (genome seed 31, reads seed 42) with a run of 20
    /// `N`s planted in every fifth read, and candidates taken from the
    /// reads' known origins: each read against the next two in genome
    /// order, seeded mid-overlap (opposite strands included), plus one
    /// unrelated partner per read.
    fn preset_batch(preset: &gnb_genome::WorkloadPreset) -> (ReadSet, Vec<Candidate>) {
        const K: usize = 17;
        let sampled = preset.sample_reads(&preset.generate_genome(31), 42);
        let mut reads = ReadSet::new();
        for i in 0..sampled.len() {
            let mut seq = sampled.read(i).to_vec();
            if i % 5 == 0 {
                let third = seq.len() / 3;
                seq[third..third + 20].fill(b'N');
            }
            reads.push(&seq, sampled.origin(i));
        }
        // Where reference base `g` sits in read `r`, in as-read orientation.
        let pos = |r: usize, g: usize| -> u32 {
            let (o, len) = (reads.origin(r), reads.read_len(r));
            let off = ((g - o.start) * len / o.ref_len).min(len - K);
            match o.strand {
                Strand::Forward => off as u32,
                Strand::Reverse => (len - K - off) as u32,
            }
        };
        let n = reads.len();
        let mut by_start: Vec<usize> = (0..n).collect();
        by_start.sort_by_key(|&r| reads.origin(r).start);
        let mut cands = Vec::new();
        for (i, &a) in by_start.iter().enumerate() {
            for &b in by_start.iter().skip(i + 1).take(2) {
                let (oa, ob) = (reads.origin(a), reads.origin(b));
                let overlap = oa.overlap_len(&ob);
                if overlap < 2 * K {
                    continue;
                }
                let g = oa.start.max(ob.start) + overlap / 2 - K;
                cands.push(Candidate {
                    a: a as u32,
                    b: b as u32,
                    a_pos: pos(a, g),
                    b_pos: pos(b, g),
                    same_strand: oa.strand == ob.strand,
                });
            }
            let b = (a * 7 + 3) % n;
            if b != a {
                cands.push(Candidate {
                    a: a as u32,
                    b: b as u32,
                    a_pos: (reads.read_len(a) / 2) as u32,
                    b_pos: (reads.read_len(b) / 2) as u32,
                    same_strand: a % 2 == 0,
                });
            }
        }
        (reads, cands)
    }

    /// The default path, and the batched driver at every share count from
    /// 1 to 4, agree record for record with the scalar in-order reference
    /// on preset reads: 15 % error E. coli and 1 % error human (the inputs
    /// `tests/pipeline_end_to_end.rs` pins), with `N` runs and
    /// opposite-strand candidates.
    #[test]
    fn default_path_matches_serial_on_preset_reads() {
        use gnb_genome::presets;
        for preset in [
            presets::ecoli_30x().scaled(256),
            presets::human_ccs().scaled(32768),
        ] {
            let (reads, cands) = preset_batch(&preset);
            assert!(cands.iter().any(|c| !c.same_strand), "{}", preset.name);
            assert!(reads.iter().any(|(_, s)| s.contains(&b'N')));
            let p = AlignParams::default();
            let want = align_batch_serial(&reads, &cands, &p);
            assert!(want.accepted_count() > cands.len() / 4, "{}", preset.name);
            let got = align_batch(&reads, &cands, &p);
            assert_eq!(got.records, want.records, "{}", preset.name);
            assert_eq!(got.total_cells, want.total_cells, "{}", preset.name);
            for shares in 1..=4 {
                let got = interseq::align_batch_batched(&reads, &cands, &p, shares);
                assert_eq!(got.records, want.records, "{} / {shares}", preset.name);
            }
        }
    }
}
