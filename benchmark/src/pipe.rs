//! Pipeline workloads: FASTA bytes in, accepted overlap alignments out.
//!
//! The timed run calls `read_fasta` + `run_pipeline` as a user would. The
//! traced run replays `run_pipeline`'s stages through the same public
//! functions, one span per call, and checks that the replay produced the
//! same tasks and records as the real thing.

use crate::metrics::Report;
use crate::span::{secs_by_name, self_secs_by_name, Tracer};
use crate::stats::{median, rel_spread};
use crate::workloads::{Spec, SMOKE_DIVISOR};
use crate::{host, Opts};
use gnb_align::batch::{align_batch, AlignParams};
use gnb_align::calibrate::measure_cell_rate_for;
use gnb_align::interseq::align_candidates_batched;
use gnb_align::{AlignmentRecord, Candidate, KernelImpl};
use gnb_core::pipeline::{run_pipeline, PipelineParams};
use gnb_genome::fasta::{read_fasta, write_fasta};
use gnb_genome::ReadSet;
use gnb_kmer::{count_kmers, BellaModel, SeedIndex};
use gnb_overlap::candidates::generate_candidates;
use gnb_overlap::synth::true_overlaps;
use std::hint::black_box;
use std::time::Instant;

/// DP cells the raw kernel sweep evaluates (well under a second).
const RAW_SWEEP_CELLS: u64 = 20_000_000;
/// The kernel comparison aligns every this-many-th task with each kernel.
const KERNEL_SUBSAMPLE: usize = 8;

/// What the program under test receives: bytes and parameters.
struct Input {
    fasta: Vec<u8>,
    params: PipelineParams,
}

/// The reference genome's seed. The genome is the organism: it stays the
/// same while `--seed` draws a fresh sequencing run from it. Re-rolling the
/// genome too would re-roll its repeat families, and on the 378 kbp human
/// stand-in that alone moves the task count by ±20% between seeds.
const GENOME_SEED: u64 = 31;

/// Samples the reads from the seed and renders them as FASTA in memory.
fn setup(spec: &Spec, seed: u64, divisor: usize, t: &mut Tracer) -> Input {
    let preset = spec.preset(divisor);
    let reads = t.span("genome", "genome.generate", |_| {
        preset.sample_reads(&preset.generate_genome(GENOME_SEED), seed)
    });
    let mut fasta = Vec::new();
    t.span("genome", "genome.write_fasta", |_| {
        write_fasta(&mut fasta, &reads)
    })
    .expect("writing to a Vec cannot fail");
    Input {
        fasta,
        // CLI defaults: min_score 200, min_overlap 500, default kernel.
        params: PipelineParams::new(preset.coverage, preset.errors.total_rate()),
    }
}

/// The outputs every pass must reproduce.
struct Outputs {
    reads: usize,
    bases: usize,
    distinct: usize,
    retained: usize,
    tasks: Vec<Candidate>,
    records: Vec<AlignmentRecord>,
    cells: u64,
}

impl Outputs {
    fn accepted(&self) -> usize {
        self.records.iter().filter(|r| r.accepted).count()
    }

    fn same_as(&self, other: &Outputs) -> bool {
        self.tasks == other.tasks && self.records == other.records
    }

    fn facts(&self, r: &mut Report) {
        r.fact("reads", self.reads);
        r.fact("bases", self.bases);
        r.fact("distinct_kmers", self.distinct);
        r.fact("retained_kmers", self.retained);
        r.fact("tasks", self.tasks.len());
        r.fact("accepted", self.accepted());
        r.fact("total_cells", self.cells);
    }
}

fn parse(fasta: &[u8]) -> ReadSet {
    read_fasta(fasta).expect("the benchmark wrote this FASTA itself")
}

/// One complete pass as a user runs it; returns its wall seconds.
fn pass(input: &Input) -> (f64, Outputs) {
    let start = Instant::now();
    let reads = parse(&input.fasta);
    let res = run_pipeline(&reads, &input.params);
    let wall = start.elapsed().as_secs_f64();
    let out = Outputs {
        reads: reads.len(),
        bases: reads.total_bases(),
        distinct: res.distinct_kmers,
        retained: res.retained_kmers,
        tasks: res.tasks,
        cells: res.outcome.total_cells,
        records: res.outcome.records,
    };
    (wall, out)
}

/// The same stages, in `run_pipeline`'s order, one span per public call.
/// Returns the outputs and the seed-index posting count.
fn traced_pass(input: &Input, t: &mut Tracer) -> (Outputs, usize) {
    t.next_pass();
    let p = &input.params;
    t.span("core", "core.pipeline", |t| {
        let reads = t.span("genome", "genome.fasta_parse", |_| parse(&input.fasta));
        let mut counts = t.span("kmer", "kmer.count", |_| count_kmers(&reads, p.k));
        let (distinct, retained) = t.span("kmer", "kmer.filter", |_| {
            let distinct = counts.distinct();
            let (lo, hi) = BellaModel::new(p.coverage, p.error_rate, p.k).reliable_interval();
            counts.filter_frequency(lo, hi);
            (distinct, counts.distinct())
        });
        let index = t.span("kmer", "kmer.index", |_| SeedIndex::build(&reads, &counts));
        let tasks = t.span("overlap", "overlap.candidates", |_| {
            generate_candidates(&index)
        });
        let outcome = t.span("align", "align.batch", |_| {
            align_batch(&reads, &tasks, &p.align)
        });
        black_box(t.span("overlap", "overlap.truth", |_| {
            true_overlaps(&reads, &tasks)
        }));
        let out = Outputs {
            reads: reads.len(),
            bases: reads.total_bases(),
            distinct,
            retained,
            tasks,
            cells: outcome.total_cells,
            records: outcome.records,
        };
        (out, index.total_postings())
    })
}

/// Runs `pass` until the budget is spent (at least `min_passes` times),
/// keeping the wall time of every pass whose outputs match the first's.
fn timed_passes(input: &Input, opts: &Opts, r: &mut Report) -> (Vec<f64>, Outputs) {
    let mut walls = Vec::new();
    let mut first: Option<Outputs> = None;
    opts.repeat(opts.min_passes(), |_| {
        let (wall, out) = pass(input);
        let same = first.as_ref().is_none_or(|f| out.same_as(f));
        if r.check(same, || {
            "a pass produced different tasks or records than the first".into()
        }) {
            walls.push(wall);
        }
        first.get_or_insert(out);
        wall
    });
    (walls, first.expect("at least one pass ran"))
}

/// The timed run: end-to-end metrics, spans off.
pub fn run_e2e(spec: &Spec, opts: &Opts, r: &mut Report) {
    let mut off = Tracer::off();
    let (setups, input) = opts.time_setup(|| setup(spec, opts.seed, opts.divisor(), &mut off));
    if !opts.smoke {
        // Page in code, settle ISA dispatch and the allocator on a small
        // input, so the first timed pass is not a cold one.
        black_box(pass(&setup(spec, opts.seed, SMOKE_DIVISOR, &mut off)));
    }
    let (walls, first) = timed_passes(&input, opts, r);
    first.facts(r);
    r.set_median("setup_s", setups);
    r.set("cells_per_s", first.cells as f64 / median(&walls));
    r.set_median("wall_s", walls);
    r.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
}

/// The traced run: per-layer metrics from span self times, plus the kernel
/// comparison and the raw sweep.
pub fn run_traced(spec: &Spec, opts: &Opts, r: &mut Report) {
    let mut t = Tracer::new(true);
    let input = setup(spec, opts.seed, opts.divisor(), &mut t);

    // Untraced and traced passes run in pairs, and the pairs alternate
    // which goes first, so the host's drift hits both kinds alike.
    let mut plain = Vec::new();
    let mut overhead = Vec::new();
    let mut reference: Option<(Outputs, usize)> = None;
    opts.repeat(opts.min_pairs(), |done| {
        let pair = Instant::now();
        let mut traced = || {
            let start = Instant::now();
            let out = traced_pass(&input, &mut t);
            (start.elapsed().as_secs_f64(), out)
        };
        let ((wall, out), (traced_wall, (replay, postings))) = if done % 2 == 1 {
            (pass(&input), traced())
        } else {
            let second = traced();
            (pass(&input), second)
        };
        let mut ok = r.check(replay.same_as(&out), || {
            "the traced replay disagrees with run_pipeline".into()
        });
        if let Some((first, _)) = &reference {
            ok &= r.check(out.same_as(first), || {
                "a pass produced different tasks or records than the first".into()
            });
        }
        if ok {
            plain.push(wall);
            overhead.push(traced_wall / wall);
        }
        reference.get_or_insert((replay, postings));
        pair.elapsed().as_secs_f64()
    });
    let (out, postings) = reference.expect("at least one pair ran");
    out.facts(r);

    let by_name = self_secs_by_name(t.spans());
    let secs = |name: &str| by_name.get(name).map_or(0.0, |v| median(v));
    let pipeline_s = median(&secs_by_name(t.spans())["core.pipeline"]);

    r.set(
        "genome.generate_s",
        secs("genome.generate") + secs("genome.write_fasta"),
    );
    r.set("genome.fasta_parse_s", secs("genome.fasta_parse"));
    r.set(
        "genome.fasta_mb_per_s",
        input.fasta.len() as f64 / 1e6 / secs("genome.fasta_parse"),
    );
    r.set("genome.reads", out.reads as f64);
    r.set("genome.bases", out.bases as f64);
    let k = input.params.k;
    let windows = out.bases.saturating_sub(out.reads * (k - 1));
    r.set("kmer.count_s", secs("kmer.count"));
    r.set(
        "kmer.count_mkmers_per_s",
        windows as f64 / 1e6 / secs("kmer.count"),
    );
    r.set("kmer.distinct", out.distinct as f64);
    r.set("kmer.filter_s", secs("kmer.filter"));
    r.set("kmer.retained", out.retained as f64);
    r.set(
        "kmer.retained_ratio",
        out.retained as f64 / out.distinct as f64,
    );
    r.set("kmer.index_s", secs("kmer.index"));
    r.set(
        "kmer.index_postings_per_s",
        postings as f64 / secs("kmer.index"),
    );
    r.set("kmer.postings", postings as f64);
    r.set("overlap.candidates_s", secs("overlap.candidates"));
    r.set(
        "overlap.candidates_per_s",
        out.tasks.len() as f64 / secs("overlap.candidates"),
    );
    r.set("overlap.tasks", out.tasks.len() as f64);
    r.set("overlap.truth_s", secs("overlap.truth"));
    r.set("align.batch_s", secs("align.batch"));
    r.set(
        "align.batch_cells_per_s",
        out.cells as f64 / secs("align.batch"),
    );
    r.set("align.cells", out.cells as f64);
    r.set(
        "align.accept_ratio",
        out.accepted() as f64 / out.tasks.len() as f64,
    );
    r.set("core.pipeline_s", pipeline_s);
    // The parent's self time: what no stage span covers.
    r.set("core.pipeline_unattributed_s", secs("core.pipeline"));
    r.set("genome.share", secs("genome.fasta_parse") / pipeline_s);
    r.set(
        "kmer.share",
        (secs("kmer.count") + secs("kmer.filter") + secs("kmer.index")) / pipeline_s,
    );
    r.set(
        "overlap.share",
        (secs("overlap.candidates") + secs("overlap.truth")) / pipeline_s,
    );
    r.set("align.share", secs("align.batch") / pipeline_s);

    kernel_comparison(&input, &out, &mut t, r);

    r.set_median("bench.trace_overhead_ratio", overhead);
    r.set("bench.samples", plain.len() as f64);
    r.set("bench.wall_spread", rel_spread(&plain));
    r.spans = t.spans().to_vec();
}

/// Aligns a subsample of the tasks with each kernel (records must agree),
/// reads the batched engine's lane occupancy, and sweeps the default kernel
/// on the calibration pair to see what `align_batch` loses to dispatch.
fn kernel_comparison(input: &Input, out: &Outputs, t: &mut Tracer, r: &mut Report) {
    let reads = parse(&input.fasta);
    let sub: Vec<Candidate> = out
        .tasks
        .iter()
        .step_by(KERNEL_SUBSAMPLE)
        .copied()
        .collect();
    let mut reference: Option<Vec<AlignmentRecord>> = None;
    for (kernel, span, metric) in [
        (
            KernelImpl::Scalar,
            "align.kernel_scalar",
            "align.kernel_scalar_cells_per_s",
        ),
        (
            KernelImpl::Packed,
            "align.kernel_packed",
            "align.kernel_packed_cells_per_s",
        ),
        (
            KernelImpl::Batched,
            "align.kernel_batched",
            "align.kernel_batched_cells_per_s",
        ),
    ] {
        let params = AlignParams {
            kernel,
            ..input.params.align
        };
        let start = Instant::now();
        let outcome = t.span("align", span, |_| align_batch(&reads, &sub, &params));
        let secs = start.elapsed().as_secs_f64();
        r.set(metric, outcome.total_cells as f64 / secs);
        match &reference {
            None => reference = Some(outcome.records),
            Some(first) => {
                r.check(*first == outcome.records, || {
                    format!("{kernel:?} kernel records differ from the scalar kernel's")
                });
            }
        }
    }
    let (_, stats) = align_candidates_batched(&reads, &sub, &input.params.align);
    r.set("align.batched_lane_fill", stats.lane_fill());
    let raw = t.span("align", "align.raw_sweep", |_| {
        measure_cell_rate_for(input.params.align.kernel, RAW_SWEEP_CELLS)
    });
    r.set("align.raw_sweep_cells_per_s", raw.host_cells_per_sec);
    r.set(
        "align.dispatch_efficiency",
        r.get("align.batch_cells_per_s") / raw.host_cells_per_sec,
    );
}
