//! # gnb — Scaling Generalized N-Body Problems (genomics case study)
//!
//! A Rust reproduction of *“Scaling Generalized N-Body Problems, A Case
//! Study from Genomics”* (Ellis, Buluç, Yelick — ICPP 2021): many-to-many
//! long-read alignment coordinated two ways — bulk-synchronous with
//! aggregated irregular all-to-alls, and asynchronous with one RPC per
//! remote read hidden under compute — studied on a simulated Cray-class
//! machine, plus a real rayon-parallel pipeline for actually aligning
//! reads on a multicore host.
//!
//! This crate is a facade: it re-exports the workspace crates.
//!
//! | Crate | Contents |
//! |---|---|
//! | [`genome`] | synthetic genomes, long-read sampling, error models, FASTA, presets |
//! | [`kmer`] | k-mer extraction/counting, BELLA reliable-k-mer filter, seed index |
//! | [`align`] | X-drop seed-and-extend kernel, Smith-Waterman/Needleman-Wunsch baselines |
//! | [`overlap`] | candidate generation, blind partition, task-graph synthesis, task stores |
//! | [`sim`] | discrete-event SPMD machine: network, collectives, barriers, memory |
//! | [`core`] | task redistribution, the paper's BSP and async coordination codes + experiment drivers |
//! | [`trace`] | views of an observability recording: summarize, Perfetto export, critical path, ASCII timeline |
//!
//! ## Quickstart
//!
//! ```
//! use gnb::genome::presets;
//! use gnb::core::pipeline::{run_pipeline, PipelineParams};
//!
//! // Generate a tiny E. coli-like workload and find overlaps for real.
//! let preset = presets::ecoli_30x().scaled(4096);
//! let reads = preset.generate(1);
//! let params = PipelineParams::new(preset.coverage, preset.errors.total_rate());
//! let result = run_pipeline(&reads, &params);
//! println!("{} candidate pairs, {} accepted overlaps",
//!          result.tasks.len(), result.accepted());
//! ```

#![warn(missing_docs)]

pub use gnb_align as align;
pub use gnb_core as core;
pub use gnb_genome as genome;
pub use gnb_kmer as kmer;
pub use gnb_overlap as overlap;
pub use gnb_sim as sim;
pub use gnb_trace as trace;
