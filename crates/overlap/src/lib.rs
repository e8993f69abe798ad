//! Overlap candidate generation, the read partition, and task stores.
//!
//! This crate implements the data side of DiBELLA's stages 1–2 (paper
//! §3): the blind read partition, the discovery of candidate read pairs
//! from shared filtered k-mers, and synthetic task graphs calibrated to
//! the paper's Table 1. Redistributing the tasks to ranks under the
//! ownership invariant ("each task is assigned to the owner of one or both
//! of the required reads, such that the number of tasks are roughly
//! balanced across the processors") happens once, in
//! `gnb_core::workload::SimWorkload::prepare`, so the BSP and the
//! asynchronous coordination codes consume the *same* fixed task
//! assignment, exactly as in the paper's methodology ("the alignment tasks
//! computed from each dataset, and their partitioning, are treated as fixed
//! inputs").
//!
//! It also provides the two local task-store layouts the paper contrasts in
//! §4.6 / Fig. 13: flat structure-of-arrays (the BSP code) versus
//! pointer-based standard-library containers (the async code).

#![warn(missing_docs)]

pub mod assembly;
pub mod candidates;
pub mod partition;
pub mod store;
pub mod synth;

pub use candidates::generate_candidates;
pub use partition::Partition;
pub use store::{FlatTaskStore, PointerTaskStore, TaskStore};
