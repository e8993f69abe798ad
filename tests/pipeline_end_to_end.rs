//! End-to-end integration: the real string pipeline feeds the simulated
//! distributed study — the same fixed task set flows through the shared
//! rayon backend and all three simulated coordination codes.

use gnb::align::Candidate;
use gnb::core::driver::{run_sim, Algorithm, RunConfig};
use gnb::core::pipeline::{run_pipeline, PipelineParams};
use gnb::core::workload::SimWorkload;
use gnb::core::MachineConfig;
use gnb::genome::presets::{self, WorkloadPreset};
use gnb::kmer::{count_kmers, BellaModel, SeedIndex};
use gnb::overlap::candidates::generate_candidates;
use gnb::overlap::synth::recall;

#[test]
fn string_pipeline_feeds_simulated_study() {
    let preset = presets::ecoli_30x().scaled(512);
    let reads = preset.generate(55);
    let params = PipelineParams::new(preset.coverage, preset.errors.total_rate());
    let res = run_pipeline(&reads, &params);
    assert!(res.tasks.len() > 100, "tasks: {}", res.tasks.len());

    // The string pipeline's candidates + ground-truth overlaps become the
    // fixed simulation input.
    let machine = MachineConfig::cori_knl(1).with_cores_per_node(8);
    let lengths = reads.lengths();
    let w = SimWorkload::prepare(&lengths, &res.tasks, &res.overlaps, machine.nranks());
    w.validate();
    assert_eq!(w.total_tasks, res.tasks.len());

    let cfg = RunConfig::default();
    let bsp = run_sim(&w, &machine, Algorithm::Bsp, &cfg);
    assert_eq!(bsp.tasks_done as usize, res.tasks.len());
    for algo in [Algorithm::Async, Algorithm::AggAsync] {
        let r = run_sim(&w, &machine, algo, &cfg);
        assert_eq!(bsp.task_checksum, r.task_checksum, "{algo}");
    }

    // The shared backend actually computed those alignments.
    assert_eq!(res.outcome.records.len(), res.tasks.len());
    assert!(res.accepted() > 0);
}

#[test]
fn full_stack_determinism() {
    let run = || {
        let preset = presets::ecoli_30x().scaled(1024);
        let reads = preset.generate(77);
        let params = PipelineParams::new(preset.coverage, preset.errors.total_rate());
        let res = run_pipeline(&reads, &params);
        let machine = MachineConfig::cori_knl(1).with_cores_per_node(4);
        let lengths = reads.lengths();
        let w = SimWorkload::prepare(&lengths, &res.tasks, &res.overlaps, machine.nranks());
        let sim = run_sim(&w, &machine, Algorithm::Async, &RunConfig::default());
        (
            res.tasks.len(),
            res.accepted(),
            res.outcome.total_cells,
            sim.task_checksum,
            sim.report.end_time,
        )
    };
    assert_eq!(run(), run());
}

/// FNV-1a-64 over each candidate's `a`, `b`, `a_pos`, `b_pos` (`u32`
/// little-endian) and `same_strand` (one byte), in order.
fn fnv1a(tasks: &[Candidate]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in tasks {
        let mut bytes = Vec::with_capacity(17);
        for v in [c.a, c.b, c.a_pos, c.b_pos] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes.push(c.same_strand as u8);
        for b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One input's k-mer → candidate stage, recorded at the parent of the
/// sorted-runs rewrite. Pairs are `[all k-mers, minimizers w = 8]`.
struct Golden {
    preset: WorkloadPreset,
    reads: usize,
    bases: usize,
    total: u64,
    distinct: usize,
    retained: usize,
    interval: (u32, u32),
    postings: [usize; 2],
    tasks: [usize; 2],
    fnv: [u64; 2],
    minimizer_distinct: usize,
    /// All-k-mer candidates among the pairs overlapping ≥ 1000 bp.
    recall_1000: (usize, usize),
    /// Accepted alignments with a true overlap, of all accepted (recorded
    /// from a release run of the scalar and packed kernels).
    precision: (usize, usize),
}

#[test]
fn kmer_stage_matches_golden() {
    let cases = [
        Golden {
            preset: presets::ecoli_30x().scaled(256),
            reads: 65,
            bases: 560_240,
            total: 541_197,
            distinct: 501_720,
            retained: 20_371,
            interval: (2, 7),
            postings: [58_198, 13_057],
            tasks: [1_779, 1_707],
            fnv: [0x1f05_0709_b323_0563, 0x9a82_a380_3b90_f9ec],
            minimizer_distinct: 5_998,
            recall_1000: (1_738, 1_751),
            precision: (1_762, 1_762),
        },
        Golden {
            preset: presets::human_ccs().scaled(32768),
            reads: 34,
            bases: 390_883,
            total: 387_142,
            distinct: 137_672,
            retained: 74_622,
            interval: (2, 10),
            postings: [316_148, 70_460],
            tasks: [191, 186],
            fnv: [0x7bba_ddc9_bd30_f727, 0x1a3e_bc4d_2242_4d53],
            minimizer_distinct: 17_701,
            recall_1000: (124, 124),
            precision: (129, 173),
        },
    ];
    for g in cases {
        let name = g.preset.name;
        let reads = g.preset.sample_reads(&g.preset.generate_genome(31), 42);
        assert_eq!(
            (reads.len(), reads.total_bases()),
            (g.reads, g.bases),
            "{name}"
        );
        let mut counts = count_kmers(&reads, 17);
        assert_eq!(
            (counts.total(), counts.distinct()),
            (g.total, g.distinct),
            "{name}"
        );
        let error_rate = g.preset.errors.total_rate();
        let (lo, hi) = BellaModel::new(g.preset.coverage, error_rate, 17).reliable_interval();
        assert_eq!((lo, hi), g.interval, "{name}");
        counts.filter_frequency(lo, hi);
        assert_eq!(counts.distinct(), g.retained, "{name}");

        let mini = SeedIndex::build_minimizers(&reads, &counts, 8);
        assert_eq!(mini.distinct(), g.minimizer_distinct, "{name}");
        let indexes = [SeedIndex::build(&reads, &counts), mini];
        let tasks: Vec<Vec<Candidate>> = indexes.iter().map(generate_candidates).collect();
        for (i, (index, tasks)) in indexes.iter().zip(&tasks).enumerate() {
            let fnv = fnv1a(tasks);
            assert_eq!(index.total_postings(), g.postings[i], "{name} mode {i}");
            assert_eq!(tasks.len(), g.tasks[i], "{name} mode {i}");
            assert_eq!(fnv, g.fnv[i], "{name} mode {i}: got {fnv:#x}");
        }

        assert_eq!(recall(&reads, &tasks[0], 1000), g.recall_1000, "{name}");
        let res = run_pipeline(&reads, &PipelineParams::new(g.preset.coverage, error_rate));
        assert_eq!(res.tasks, tasks[0], "{name}");
        assert_eq!(res.recall(&reads, 1000), g.recall_1000, "{name}");
        assert_eq!(res.precision(), g.precision, "{name}");
    }
}

#[test]
fn accepted_overlaps_survive_strand_flips() {
    // Same genome, reads sampled with strand randomisation: the pipeline
    // must find overlaps between opposite-strand reads (Fig. 2's premise).
    let preset = presets::ecoli_30x().scaled(1024);
    let reads = preset.generate(88);
    let params = PipelineParams::new(preset.coverage, preset.errors.total_rate());
    let res = run_pipeline(&reads, &params);
    let opposite = res.outcome.accepted().filter(|r| !r.same_strand).count();
    let same = res.outcome.accepted().filter(|r| r.same_strand).count();
    assert!(
        opposite > 0 && same > 0,
        "both orientations must appear: same={same} opposite={opposite}"
    );
}
