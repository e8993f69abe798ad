//! Long-read overlap detection on an E. coli-scale workload, with
//! ground-truth validation: recall/precision of the pipeline against the
//! known genomic positions of the simulated reads, and a PAF-style dump of
//! the best overlaps.
//!
//! Run with: `cargo run --release --example ecoli_overlap [-- <scale>]`
//! (default scale 256; smaller = bigger workload).

use gnb::core::pipeline::{run_pipeline, PipelineParams};
use gnb::genome::presets;

fn main() {
    #[expect(
        clippy::disallowed_methods,
        reason = "demo binary: the CLI scale argument is the example's input, not simulated state"
    )]
    let scale: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(256);
    let preset = presets::ecoli_30x().scaled(scale);
    let reads = preset.generate(7);
    println!(
        "E. coli 30x at 1/{scale} scale: {} reads, {:.2} Mbp",
        reads.len(),
        reads.total_bases() as f64 / 1e6
    );

    let mut params = PipelineParams::new(preset.coverage, preset.errors.total_rate());
    params.align.criteria.min_score = 150;
    params.align.criteria.min_overlap = 500;
    let res = run_pipeline(&reads, &params);

    // Ground truth: pairs overlapping >= 1 kbp on the reference.
    let mut truth = std::collections::HashSet::new();
    for i in 0..reads.len() {
        for j in (i + 1)..reads.len() {
            if reads.origin(i).overlap_len(&reads.origin(j)) >= 1000 {
                truth.insert((i as u32, j as u32));
            }
        }
    }
    let accepted: Vec<_> = res.outcome.accepted().collect();
    let true_hits = accepted
        .iter()
        .filter(|r| truth.contains(&(r.a.min(r.b), r.a.max(r.b))))
        .count();
    println!(
        "candidates {}  accepted {}  | truth pairs {}  recall {:.1}%  precision {:.1}%",
        res.tasks.len(),
        accepted.len(),
        truth.len(),
        100.0 * true_hits as f64 / truth.len().max(1) as f64,
        100.0 * true_hits as f64 / accepted.len().max(1) as f64,
    );

    // PAF-ish output (query, qlen, qstart, qend, strand, target, ...).
    println!("\ntop overlaps by score (PAF-style):");
    let mut ranked = accepted.clone();
    ranked.sort_by_key(|r| std::cmp::Reverse(r.score));
    for r in ranked.iter().take(10) {
        println!(
            "read{}\t{}\t{}\t{}\t{}\tread{}\t{}\t{}\t{}\tscore={}",
            r.a,
            reads.read_len(r.a as usize),
            r.a_begin,
            r.a_end,
            if r.same_strand { '+' } else { '-' },
            r.b,
            reads.read_len(r.b as usize),
            r.b_begin,
            r.b_end,
            r.score
        );
    }
}
