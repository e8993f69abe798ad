//! Task-graph-level workload synthesis for large-scale simulation sweeps.
//!
//! The string pipeline (genome → reads → k-mers → filter → candidates) is
//! the ground truth, but running it at Human-CCS scale (3.1 Gbp, 87.6 M
//! tasks) is not feasible on a laptop-class host. For the multinode scaling
//! figures the simulator only needs the *task graph*: read lengths, the
//! candidate pairs, and each pair's true overlap length (which drives the
//! alignment cost model — 0 marks a false-positive candidate that will
//! terminate early).
//!
//! This module synthesises that graph directly from the same generative
//! parameters the string pipeline uses: reads are placed uniformly on the
//! genome, every pair overlapping by at least `min_detect_overlap` becomes
//! a candidate with probability `p_detect` (a k-mer seed survives errors
//! and filtering), and repeat/error-induced false positives are added at
//! `fp_per_read` per read. The false-positive rates of the three presets
//! are fitted so the synthetic task counts reproduce the paper's Table 1
//! at scale 1 (see `fp_per_read_for`). A calibration test cross-checks the
//! synthesiser against the real string pipeline at small scale.

use gnb_align::Candidate;
use gnb_genome::presets::WorkloadPreset;
use gnb_genome::rng::{rng_from_seed, sample_poisson, LogNormal};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Nominal seed length used for synthetic seed positions.
const K: usize = 17;

/// Parameters of task-graph synthesis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthParams {
    /// Genome length (bp).
    pub genome_len: usize,
    /// Sequencing depth.
    pub coverage: f64,
    /// Mean read length.
    pub mean_read_len: f64,
    /// Log-space sigma of read lengths.
    pub read_len_sigma: f64,
    /// Minimum read length.
    pub min_read_len: usize,
    /// Maximum read length.
    pub max_read_len: usize,
    /// Overlaps shorter than this are never detected.
    pub min_detect_overlap: usize,
    /// Probability that a sufficient true overlap yields a candidate.
    pub p_detect: f64,
    /// Expected repeat/error-induced false candidates per read.
    pub fp_per_read: f64,
    /// Fraction of false candidates that stem from *genomic repeats* and
    /// therefore align over a partial (repeat-length) region — expensive,
    /// unlike erroneous-k-mer coincidences which terminate immediately.
    pub repeat_fp_frac: f64,
    /// Mean partial-alignment extent of a repeat-induced candidate, bp.
    pub repeat_fp_mean: f64,
}

/// Per-preset false-candidate model fitted to the paper's Table 1 task
/// counts and cost structure: `(fp_per_read, repeat_frac, repeat_mean_bp)`.
/// E. coli extras are mostly erroneous-k-mer coincidences (instant
/// termination); Human extras are mostly repeat hits that align a partial
/// repeat-length region before terminating.
fn fp_model_for(name: &str) -> (f64, f64, f64) {
    match name {
        "ecoli_30x" => (110.0, 0.15, 800.0),
        "ecoli_100x" => (196.0, 0.15, 800.0),
        "human_ccs" => (73.0, 0.80, 1_200.0),
        _ => (20.0, 0.2, 800.0),
    }
}

impl SynthParams {
    /// Derives synthesis parameters from a workload preset.
    pub fn from_preset(p: &WorkloadPreset) -> SynthParams {
        let (fp_per_read, repeat_fp_frac, repeat_fp_mean) = fp_model_for(p.name);
        SynthParams {
            genome_len: p.genome_len,
            coverage: p.coverage,
            mean_read_len: p.mean_read_len,
            read_len_sigma: p.read_len_sigma,
            min_read_len: p.min_read_len,
            max_read_len: p.max_read_len,
            min_detect_overlap: 500,
            p_detect: 0.85,
            fp_per_read,
            repeat_fp_frac,
            repeat_fp_mean,
        }
    }
}

/// A synthesised workload: the fixed input both coordination codes consume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthWorkload {
    /// Read lengths, indexed by read id (ids are in random genome order,
    /// as in a real sequencing run).
    pub lengths: Vec<usize>,
    /// Candidate tasks, deduplicated and sorted by `(a, b)`.
    pub tasks: Vec<Candidate>,
    /// Parallel to `tasks`: the pair's *alignable extent* in bp — the true
    /// genomic overlap, or the partial repeat-region extent for
    /// repeat-induced candidates, or 0 for erroneous-k-mer candidates that
    /// terminate immediately. Drives the alignment cost model.
    pub overlap_len: Vec<u32>,
}

impl SynthWorkload {
    /// Number of reads.
    pub fn reads(&self) -> usize {
        self.lengths.len()
    }

    /// Tasks per read (Table 1 density).
    pub fn tasks_per_read(&self) -> f64 {
        if self.lengths.is_empty() {
            0.0
        } else {
            self.tasks.len() as f64 / self.lengths.len() as f64
        }
    }

    /// Fraction of candidates that are false positives.
    pub fn fp_fraction(&self) -> f64 {
        if self.overlap_len.is_empty() {
            return 0.0;
        }
        let fp = self.overlap_len.iter().filter(|&&o| o == 0).count();
        fp as f64 / self.overlap_len.len() as f64
    }
}

/// Synthesises a workload from `params`, deterministically from `seed`.
pub fn synthesize(params: &SynthParams, seed: u64) -> SynthWorkload {
    let mut rng = rng_from_seed(seed ^ 0x7379_6e74_685f_7767);
    let g = params.genome_len;
    let dist = LogNormal::from_mean_sigma(params.mean_read_len, params.read_len_sigma);

    // Place reads until target coverage, mirroring the string sampler.
    let target = (g as f64 * params.coverage) as usize;
    let mut lengths: Vec<usize> = Vec::new();
    let mut positions: Vec<usize> = Vec::new();
    let mut total = 0usize;
    while total < target {
        let len = (dist.sample(&mut rng) as usize)
            .clamp(params.min_read_len, params.max_read_len)
            .min(g);
        let pos = rng.gen_range(0..=g - len);
        lengths.push(len);
        positions.push(pos);
        total += len;
    }
    let n = lengths.len();

    // True overlaps: sweep reads in genome order with a two-pointer window.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&i| positions[i as usize]);
    let mut raw: Vec<(Candidate, u32)> = Vec::new();
    for (oi, &i) in order.iter().enumerate() {
        let (pi, li) = (positions[i as usize], lengths[i as usize]);
        let end_i = pi + li;
        for &j in &order[oi + 1..] {
            let pj = positions[j as usize];
            if pj >= end_i {
                break;
            }
            let end_j = pj + lengths[j as usize];
            let ov = end_i.min(end_j) - pj;
            if ov < params.min_detect_overlap {
                continue;
            }
            if rng.gen::<f64>() >= params.p_detect {
                continue;
            }
            // Seed at the middle of the overlap region.
            let seed_g = pj + ov / 2;
            let (a, b) = (i.min(j), i.max(j));
            let a_pos = clamp_seed(seed_g - positions[a as usize], lengths[a as usize]);
            let b_pos = clamp_seed(seed_g - positions[b as usize], lengths[b as usize]);
            raw.push((
                Candidate {
                    a,
                    b,
                    a_pos,
                    b_pos,
                    same_strand: rng.gen(),
                },
                ov as u32,
            ));
        }
    }

    // False candidates: random partners. A `repeat_fp_frac` share of them
    // are repeat hits that align a partial (repeat-length) region — they
    // carry a nonzero alignable extent and cost accordingly; the rest are
    // erroneous-k-mer coincidences whose bands die immediately (extent 0).
    if n > 1 && params.fp_per_read > 0.0 {
        let repeat_dist = if params.repeat_fp_frac > 0.0 {
            Some(LogNormal::from_mean_sigma(params.repeat_fp_mean, 0.5))
        } else {
            None
        };
        for i in 0..n as u32 {
            let k = sample_poisson(&mut rng, params.fp_per_read);
            for _ in 0..k {
                let mut j = rng.gen_range(0..n as u32);
                while j == i {
                    j = rng.gen_range(0..n as u32);
                }
                let (a, b) = (i.min(j), i.max(j));
                let a_pos = clamp_seed(rng.gen_range(0..lengths[a as usize]), lengths[a as usize]);
                let b_pos = clamp_seed(rng.gen_range(0..lengths[b as usize]), lengths[b as usize]);
                let extent = match &repeat_dist {
                    Some(d) if rng.gen::<f64>() < params.repeat_fp_frac => {
                        let cap = lengths[a as usize].min(lengths[b as usize]);
                        (d.sample(&mut rng) as usize).clamp(200, cap.max(200)) as u32
                    }
                    _ => 0,
                };
                raw.push((
                    Candidate {
                        a,
                        b,
                        a_pos,
                        b_pos,
                        same_strand: rng.gen(),
                    },
                    extent,
                ));
            }
        }
    }

    // One candidate per pair; a true overlap wins over a false positive.
    raw.sort_unstable_by_key(|(c, ov)| (c.a, c.b, std::cmp::Reverse(*ov)));
    raw.dedup_by_key(|(c, _)| (c.a, c.b));
    let (tasks, overlap_len): (Vec<Candidate>, Vec<u32>) = raw.into_iter().unzip();

    SynthWorkload {
        lengths,
        tasks,
        overlap_len,
    }
}

fn clamp_seed(pos: usize, len: usize) -> u32 {
    pos.min(len.saturating_sub(K)) as u32
}

/// Ground-truth overlap lengths for a *string-pipeline* workload, computed
/// from read origins. Gives string workloads the same cost-model input the
/// synthesiser provides directly.
pub fn true_overlaps(reads: &gnb_genome::ReadSet, tasks: &[Candidate]) -> Vec<u32> {
    tasks
        .iter()
        .map(|t| {
            reads
                .origin(t.a as usize)
                .overlap_len(&reads.origin(t.b as usize)) as u32
        })
        .collect()
}

/// Recall of `tasks` against the read origins, as `(found, truth)`:
/// `truth` counts the read pairs whose fragments share at least
/// `min_overlap` reference bases, `found` those among the tasks. Quadratic
/// in the read count: a validation tool, never a pipeline stage.
pub fn recall(
    reads: &gnb_genome::ReadSet,
    tasks: &[Candidate],
    min_overlap: usize,
) -> (usize, usize) {
    let tasks: std::collections::BTreeSet<(u32, u32)> = tasks.iter().map(|t| (t.a, t.b)).collect();
    let (mut found, mut truth) = (0, 0);
    for i in 0..reads.len() {
        for j in (i + 1)..reads.len() {
            if reads.origin(i).overlap_len(&reads.origin(j)) >= min_overlap {
                truth += 1;
                found += tasks.contains(&(i as u32, j as u32)) as usize;
            }
        }
    }
    (found, truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnb_genome::presets;

    #[test]
    fn deterministic() {
        let p = SynthParams::from_preset(&presets::ecoli_30x().scaled(512));
        let a = synthesize(&p, 1);
        let b = synthesize(&p, 1);
        assert_eq!(a, b);
        let c = synthesize(&p, 2);
        assert_ne!(a.tasks, c.tasks);
    }

    #[test]
    fn tasks_normalised_sorted_unique() {
        let p = SynthParams::from_preset(&presets::ecoli_30x().scaled(512));
        let w = synthesize(&p, 3);
        for t in &w.tasks {
            assert!(t.a < t.b);
            assert!((t.a as usize) < w.reads() && (t.b as usize) < w.reads());
        }
        for pair in w.tasks.windows(2) {
            assert!((pair[0].a, pair[0].b) < (pair[1].a, pair[1].b));
        }
        assert_eq!(w.tasks.len(), w.overlap_len.len());
    }

    #[test]
    fn seed_positions_inside_reads() {
        let p = SynthParams::from_preset(&presets::ecoli_100x().scaled(512));
        let w = synthesize(&p, 4);
        for t in &w.tasks {
            assert!((t.a_pos as usize) + K <= w.lengths[t.a as usize].max(K));
            assert!((t.b_pos as usize) + K <= w.lengths[t.b as usize].max(K));
        }
    }

    #[test]
    fn density_matches_table1_at_scale() {
        // At reduced scale the density (tasks/read) should approximate the
        // paper's Table 1 within a modest factor: FP candidates scale with
        // reads, true overlaps scale with local coverage, both preserved.
        // Scales are chosen so the read count stays large enough that the
        // false-positive draws do not saturate the available pair space
        // (fp_total ≪ C(n, 2)); below that, dedup collapses the density.
        let cases = [
            (presets::ecoli_30x(), 134.4, 16),
            (presets::ecoli_100x(), 272.1, 32),
            (presets::human_ccs(), 76.3, 1024),
        ];
        for (preset, expect, scale) in cases {
            let p = SynthParams::from_preset(&preset.scaled(scale));
            let w = synthesize(&p, 5);
            let got = w.tasks_per_read();
            assert!(
                got > expect * 0.5 && got < expect * 1.6,
                "{}: tasks/read {got:.1} vs paper {expect}",
                preset.name
            );
        }
    }

    #[test]
    fn fp_fraction_reflects_parameters() {
        // Scale 8 keeps n ≈ 2000 reads so 50 fp/read does not exhaust the
        // pair space.
        let mut p = SynthParams::from_preset(&presets::ecoli_30x().scaled(8));
        p.fp_per_read = 0.0;
        let no_fp = synthesize(&p, 6);
        assert_eq!(no_fp.fp_fraction(), 0.0);
        p.fp_per_read = 50.0;
        let heavy = synthesize(&p, 6);
        assert!(heavy.fp_fraction() > 0.5, "fp {}", heavy.fp_fraction());
    }

    #[test]
    fn true_overlap_lengths_plausible() {
        let mut p = SynthParams::from_preset(&presets::ecoli_30x().scaled(512));
        p.repeat_fp_frac = 0.0; // so every nonzero extent is a true overlap
        let w = synthesize(&p, 7);
        for (t, &ov) in w.tasks.iter().zip(&w.overlap_len) {
            if ov > 0 {
                assert!(ov as usize >= p.min_detect_overlap);
                let max_ov = w.lengths[t.a as usize].min(w.lengths[t.b as usize]);
                assert!(ov as usize <= max_ov, "overlap exceeds read length");
            }
        }
        // A 30x dataset has plenty of true overlaps.
        assert!(w.overlap_len.iter().any(|&o| o > 0));
    }

    #[test]
    fn repeat_candidates_carry_partial_extents() {
        let mut p = SynthParams::from_preset(&presets::human_ccs().scaled(8192));
        p.fp_per_read = 30.0;
        let w = synthesize(&p, 9);
        // With repeat_fp_frac = 0.8, most false candidates have a nonzero
        // but sub-detection-threshold extent.
        let partial = w
            .overlap_len
            .iter()
            .filter(|&&o| o > 0 && (o as usize) < p.min_detect_overlap)
            .count();
        assert!(partial > 0, "expected partial repeat extents");
        for (t, &ov) in w.tasks.iter().zip(&w.overlap_len) {
            let cap = w.lengths[t.a as usize].min(w.lengths[t.b as usize]);
            assert!(ov as usize <= cap.max(200));
        }
    }

    #[test]
    fn string_pipeline_overlap_helper() {
        let preset = presets::ecoli_30x().scaled(2048);
        let reads = preset.generate(8);
        let tasks = vec![Candidate {
            a: 0,
            b: 1,
            a_pos: 0,
            b_pos: 0,
            same_strand: true,
        }];
        let ov = true_overlaps(&reads, &tasks);
        assert_eq!(ov.len(), 1);
        assert_eq!(
            ov[0] as usize,
            reads.origin(0).overlap_len(&reads.origin(1))
        );
    }
}
