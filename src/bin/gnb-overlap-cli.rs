//! `gnb-overlap-cli` — end-to-end many-to-many long-read overlap detection
//! on real FASTA input, using the shared-memory (rayon) backend.
//!
//! ```text
//! USAGE:
//!   gnb-overlap-cli <reads.fasta> [--coverage X] [--error-rate E] [--k K]
//!                   [--min-score S] [--min-overlap L] [--out overlaps.paf]
//!   gnb-overlap-cli --demo          # run on a generated demo dataset
//! ```
//!
//! Output is PAF-like TSV: qname qlen qstart qend strand tname tlen tstart
//! tend score class.

use gnb::core::pipeline::{run_pipeline, PipelineParams};
use gnb::genome::fasta::read_fasta_file;
use gnb::genome::presets;
use gnb::genome::ReadSet;
use std::io::Write;

struct Opts {
    input: Option<String>,
    demo: bool,
    coverage: f64,
    error_rate: f64,
    k: usize,
    min_score: i32,
    min_overlap: usize,
    out: Option<String>,
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        input: None,
        demo: false,
        coverage: 30.0,
        error_rate: 0.15,
        k: 17,
        min_score: 200,
        min_overlap: 500,
        out: None,
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "CLI argument parsing is this binary's input"
    )]
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let take = |j: usize| -> String {
            args.get(j + 1)
                .unwrap_or_else(|| {
                    eprintln!("missing value for {}", args[j]);
                    std::process::exit(2);
                })
                .clone()
        };
        match args[i].as_str() {
            "--demo" => {
                o.demo = true;
                i += 1;
            }
            "--coverage" => {
                o.coverage = take(i).parse().expect("coverage");
                i += 2;
            }
            "--error-rate" => {
                o.error_rate = take(i).parse().expect("error-rate");
                i += 2;
            }
            "--k" => {
                o.k = take(i).parse().expect("k");
                i += 2;
            }
            "--min-score" => {
                o.min_score = take(i).parse().expect("min-score");
                i += 2;
            }
            "--min-overlap" => {
                o.min_overlap = take(i).parse().expect("min-overlap");
                i += 2;
            }
            "--out" => {
                o.out = Some(take(i));
                i += 2;
            }
            "--help" | "-h" => {
                println!(
                    "gnb-overlap-cli <reads.fasta> [--coverage X] [--error-rate E] [--k K]\n\
                     \x20                [--min-score S] [--min-overlap L] [--out file]\n\
                     gnb-overlap-cli --demo"
                );
                std::process::exit(0);
            }
            other if !other.starts_with('-') => {
                o.input = Some(other.to_string());
                i += 1;
            }
            other => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
        }
    }
    o
}

fn main() {
    let opts = parse_opts();
    let reads: ReadSet = if opts.demo {
        eprintln!("[demo] generating a scaled E. coli 30x dataset");
        presets::ecoli_30x().scaled(256).generate(42)
    } else {
        let path = opts.input.clone().unwrap_or_else(|| {
            eprintln!("no input file (try --demo or --help)");
            std::process::exit(2);
        });
        read_fasta_file(&path).unwrap_or_else(|e| {
            eprintln!("failed to read {path}: {e}");
            std::process::exit(1);
        })
    };
    eprintln!(
        "[input] {} reads, {:.2} Mbp",
        reads.len(),
        reads.total_bases() as f64 / 1e6
    );

    let mut params = PipelineParams::new(opts.coverage, opts.error_rate);
    params.k = opts.k;
    params.align.k = opts.k;
    params.align.criteria.min_score = opts.min_score;
    params.align.criteria.min_overlap = opts.min_overlap;
    let res = run_pipeline(&reads, &params);
    eprintln!(
        "[kmers] {} distinct, {} retained {:?}",
        res.distinct_kmers, res.retained_kmers, res.reliable_interval
    );
    eprintln!(
        "[tasks] {} candidates, {} accepted ({:.1}M cells, align {:?})",
        res.tasks.len(),
        res.accepted(),
        res.outcome.total_cells as f64 / 1e6,
        res.timings.align
    );

    let mut out: Box<dyn Write> = match &opts.out {
        Some(p) => Box::new(std::fs::File::create(p).expect("create output")),
        None => Box::new(std::io::stdout().lock()),
    };
    for rec in res.outcome.accepted() {
        let line = writeln!(
            out,
            "read{}\t{}\t{}\t{}\t{}\tread{}\t{}\t{}\t{}\t{}\t{:?}",
            rec.a,
            reads.read_len(rec.a as usize),
            rec.a_begin,
            rec.a_end,
            if rec.same_strand { '+' } else { '-' },
            rec.b,
            reads.read_len(rec.b as usize),
            rec.b_begin,
            rec.b_end,
            rec.score,
            rec.class
        );
        match line {
            Ok(()) => {}
            // Downstream consumer (e.g. `| head`) closed the pipe: normal.
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => return,
            Err(e) => {
                eprintln!("write failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
