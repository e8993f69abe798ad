//! The real end-to-end pipeline on strings (shared-memory backend).
//!
//! This is what a downstream user runs: reads in, accepted overlap
//! alignments out, with rayon parallelism. It is also the ground truth the
//! simulator's synthetic path is calibrated against, and the source of the
//! *fixed* task graph for small-scale simulation experiments: DiBELLA's
//! stages (k-mer histogram → BELLA filter → seed index → candidates) run
//! for real, then the alignments are computed with the real X-drop kernel.

use gnb_align::batch::{align_batch, AlignParams, BatchOutcome};
use gnb_align::Candidate;
use gnb_genome::ReadSet;
use gnb_kmer::{count_kmers, BellaModel, SeedIndex};
use gnb_overlap::candidates::generate_candidates;
use gnb_overlap::synth::{recall, true_overlaps};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// How seeds are selected for candidate discovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SeedMode {
    /// Every retained k-mer occurrence (DiBELLA/BELLA as published).
    #[default]
    AllKmers,
    /// Minimizers with the given window (in k-mers) — the sparse
    /// seed-selection advance the paper anticipates (§4).
    Minimizers {
        /// Window width, in consecutive k-mers.
        w: usize,
    },
}

/// Pipeline parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineParams {
    /// k-mer length (the paper uses 17).
    pub k: usize,
    /// Sequencing coverage (drives the BELLA filter).
    pub coverage: f64,
    /// Per-base error rate (drives the BELLA filter).
    pub error_rate: f64,
    /// Seed selection strategy.
    pub seeds: SeedMode,
    /// Alignment parameters for the seed-and-extend stage.
    pub align: AlignParams,
}

impl PipelineParams {
    /// Standard parameters for a workload with the given coverage/error.
    pub fn new(coverage: f64, error_rate: f64) -> PipelineParams {
        PipelineParams {
            k: 17,
            coverage,
            error_rate,
            seeds: SeedMode::AllKmers,
            align: AlignParams::default(),
        }
    }
}

/// Wall-clock timings of the pipeline stages.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// k-mer counting.
    pub count: Duration,
    /// Frequency filtering.
    pub filter: Duration,
    /// Seed-index construction.
    pub index: Duration,
    /// Candidate generation.
    pub candidates: Duration,
    /// Pairwise alignment.
    pub align: Duration,
}

/// Full pipeline output.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// The candidate tasks (the paper's "fixed input" for both codes).
    pub tasks: Vec<Candidate>,
    /// Ground-truth overlap length per task (0 = false positive).
    pub overlaps: Vec<u32>,
    /// Real alignment results for every task.
    pub outcome: BatchOutcome,
    /// Distinct k-mers before filtering.
    pub distinct_kmers: usize,
    /// Distinct k-mers retained by the BELLA filter.
    pub retained_kmers: usize,
    /// The BELLA reliable interval used.
    pub reliable_interval: (u32, u32),
    /// Stage timings.
    pub timings: PhaseTimings,
}

impl PipelineResult {
    /// Accepted alignments count.
    pub fn accepted(&self) -> usize {
        self.outcome.accepted_count()
    }

    /// Precision of the accepted alignments, as `(true, accepted)`: how
    /// many accepted alignments join reads whose fragments truly overlap.
    pub fn precision(&self) -> (usize, usize) {
        let accepted = self.outcome.records.iter().zip(&self.overlaps);
        let accepted = accepted.filter(|(record, _)| record.accepted);
        let true_ones = accepted.clone().filter(|&(_, &ov)| ov > 0).count();
        (true_ones, accepted.count())
    }

    /// Recall of the candidate tasks, as `(found, true pairs)` over the
    /// read pairs overlapping by at least `min_overlap` reference bases
    /// (see [`recall`]; quadratic in the read count, so never timed).
    pub fn recall(&self, reads: &ReadSet, min_overlap: usize) -> (usize, usize) {
        recall(reads, &self.tasks, min_overlap)
    }

    /// Tasks per read (Table 1 density), given the read count.
    pub fn tasks_per_read(&self, reads: usize) -> f64 {
        if reads == 0 {
            0.0
        } else {
            self.tasks.len() as f64 / reads as f64
        }
    }
}

/// Runs the full pipeline over `reads`.
pub fn run_pipeline(reads: &ReadSet, params: &PipelineParams) -> PipelineResult {
    #[expect(
        clippy::disallowed_types,
        reason = "real-host stage timing for throughput reporting; never feeds simulated results"
    )]
    let t0 = std::time::Instant::now();
    let mut counts = count_kmers(reads, params.k);
    let t_count = t0.elapsed();

    #[expect(
        clippy::disallowed_types,
        reason = "real-host stage timing for throughput reporting; never feeds simulated results"
    )]
    let t1 = std::time::Instant::now();
    let distinct = counts.distinct();
    let model = BellaModel::new(params.coverage, params.error_rate, params.k);
    let (lo, hi) = model.reliable_interval();
    counts.filter_frequency(lo, hi);
    let retained = counts.distinct();
    let t_filter = t1.elapsed();

    #[expect(
        clippy::disallowed_types,
        reason = "real-host stage timing for throughput reporting; never feeds simulated results"
    )]
    let t2 = std::time::Instant::now();
    let index = match params.seeds {
        SeedMode::AllKmers => SeedIndex::build(reads, &counts),
        SeedMode::Minimizers { w } => SeedIndex::build_minimizers(reads, &counts, w),
    };
    drop(counts);
    let t_index = t2.elapsed();

    #[expect(
        clippy::disallowed_types,
        reason = "real-host stage timing for throughput reporting; never feeds simulated results"
    )]
    let t3 = std::time::Instant::now();
    let tasks = generate_candidates(&index);
    let t_candidates = t3.elapsed();

    #[expect(
        clippy::disallowed_types,
        reason = "real-host stage timing for throughput reporting; never feeds simulated results"
    )]
    let t4 = std::time::Instant::now();
    let outcome = align_batch(reads, &tasks, &params.align);
    let t_align = t4.elapsed();

    let overlaps = true_overlaps(reads, &tasks);

    PipelineResult {
        tasks,
        overlaps,
        outcome,
        distinct_kmers: distinct,
        retained_kmers: retained,
        reliable_interval: (lo, hi),
        timings: PhaseTimings {
            count: t_count,
            filter: t_filter,
            index: t_index,
            candidates: t_candidates,
            align: t_align,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnb_genome::presets;

    fn small_run() -> (ReadSet, PipelineResult) {
        let preset = presets::ecoli_30x().scaled(1024);
        let reads = preset.generate(31);
        let mut params = PipelineParams::new(preset.coverage, preset.errors.total_rate());
        params.align.criteria.min_score = 100;
        params.align.criteria.min_overlap = 300;
        let result = run_pipeline(&reads, &params);
        (reads, result)
    }

    #[test]
    fn pipeline_produces_accepted_overlaps() {
        let (reads, res) = small_run();
        assert!(!res.tasks.is_empty());
        assert!(res.accepted() > 0, "a 30x dataset must yield overlaps");
        assert!(res.retained_kmers <= res.distinct_kmers);
        assert!(res.retained_kmers > 0);
        assert_eq!(res.tasks.len(), res.overlaps.len());
        assert_eq!(res.outcome.records.len(), res.tasks.len());
        assert!(res.tasks_per_read(reads.len()) > 1.0);
    }

    #[test]
    fn accepted_alignments_are_mostly_true_overlaps() {
        let (_, res) = small_run();
        let (accepted_true, accepted) = res.precision();
        assert!(accepted > 0);
        let precision = accepted_true as f64 / accepted as f64;
        assert!(
            precision > 0.9,
            "accepted alignments should be real overlaps: {precision}"
        );
    }

    #[test]
    fn true_overlaps_usually_score_higher_than_false() {
        let (_, res) = small_run();
        let mut true_scores = Vec::new();
        let mut fp_scores = Vec::new();
        for (rec, &ov) in res.outcome.records.iter().zip(&res.overlaps) {
            if ov >= 1000 {
                true_scores.push(rec.score as f64);
            } else if ov == 0 {
                fp_scores.push(rec.score as f64);
            }
        }
        if !true_scores.is_empty() && !fp_scores.is_empty() {
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            assert!(mean(&true_scores) > 3.0 * mean(&fp_scores).max(1.0));
        }
    }

    #[test]
    fn minimizer_mode_keeps_recall_with_fewer_seeds() {
        let preset = presets::ecoli_30x().scaled(512);
        let reads = preset.generate(44);
        let mut params = PipelineParams::new(preset.coverage, preset.errors.total_rate());
        params.align.criteria.min_score = 100;
        params.align.criteria.min_overlap = 500;
        let full = run_pipeline(&reads, &params);
        params.seeds = SeedMode::Minimizers { w: 8 };
        let mini = run_pipeline(&reads, &params);
        // Candidate pairs found by the minimizer index must be close to
        // the full index (window-coverage guarantee on shared regions).
        assert!(
            mini.tasks.len() as f64 >= 0.85 * full.tasks.len() as f64,
            "minimizer candidates {} vs full {}",
            mini.tasks.len(),
            full.tasks.len()
        );
        assert!(mini.accepted() as f64 >= 0.85 * full.accepted() as f64);
    }

    #[test]
    fn deterministic_pipeline() {
        let preset = presets::ecoli_30x().scaled(2048);
        let reads = preset.generate(32);
        let params = PipelineParams::new(preset.coverage, 0.15);
        let a = run_pipeline(&reads, &params);
        let b = run_pipeline(&reads, &params);
        assert_eq!(a.tasks, b.tasks);
        assert_eq!(a.outcome.records, b.outcome.records);
    }
}
