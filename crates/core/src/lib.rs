//! Many-to-many long-read alignment with bulk-synchronous and asynchronous
//! distributed coordination — the ICPP 2021 study's contribution.
//!
//! Two coordination protocols compute the same fixed task assignment:
//!
//! * [`bsp`] — the bulk-synchronous code (paper §3.1): memory-limited,
//!   dynamically sized exchange–compute supersteps built on an
//!   `alltoallv` cost model, maximising bandwidth utilisation and message
//!   aggregation;
//! * [`pull`] — the asynchronous code (paper §3.2): a pull-based algorithm
//!   with callbacks, a bounded outstanding-request window, split-phase
//!   barrier overlap, and a single exit barrier, maximising injection
//!   speed and communication hiding. How a wanted read reaches its owner
//!   is its wire policy: one RPC per remote read ([`async_alg`], the
//!   paper's code) or per-owner batches ([`agg_async`], the §5 middle
//!   ground).
//!
//! Both run as rank programs on the `gnb-sim` discrete-event machine (the
//! Cori-KNL substitute) for the scaling study, while [`pipeline`] provides
//! the real shared-memory execution path a downstream user runs on a
//! multicore host. [`driver`] wires workloads, machines, and algorithms
//! into the experiment runs behind every figure of the paper.
//!
//! ```
//! use gnb_core::driver::{run_sim, Algorithm, RunConfig};
//! use gnb_core::machine::MachineConfig;
//! use gnb_core::workload::SimWorkload;
//! use gnb_genome::presets;
//! use gnb_overlap::synth::{synthesize, SynthParams};
//!
//! let preset = presets::ecoli_30x().scaled(256);
//! let w = synthesize(&SynthParams::from_preset(&preset), 7);
//! let machine = MachineConfig::cori_knl(1).with_cores_per_node(8);
//! let workload = SimWorkload::prepare(&w.lengths, &w.tasks, &w.overlap_len, machine.nranks());
//! let bsp = run_sim(&workload, &machine, Algorithm::Bsp, &RunConfig::default());
//! let asy = run_sim(&workload, &machine, Algorithm::Async, &RunConfig::default());
//! // Both coordination codes complete exactly the same tasks.
//! assert_eq!(bsp.tasks_done, asy.tasks_done);
//! assert_eq!(bsp.task_checksum, asy.task_checksum);
//! ```

#![warn(missing_docs)]

pub mod agg_async;
pub mod async_alg;
pub mod breakdown;
pub mod bsp;
pub mod cost;
pub mod driver;
pub mod machine;
pub mod pipeline;
pub mod pull;
pub mod runtime;
pub mod workload;

pub use breakdown::RuntimeBreakdown;
pub use cost::CostModel;
pub use driver::{run_sim, try_run_sim, Algorithm, RecoveryStats, RunConfig, RunError, RunResult};
pub use machine::MachineConfig;
pub use pipeline::{run_pipeline, PipelineParams, PipelineResult};
pub use workload::SimWorkload;
