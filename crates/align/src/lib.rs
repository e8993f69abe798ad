//! Pairwise alignment kernels for long-read overlap detection.
//!
//! The paper computes seed-and-extend pairwise alignments with "a performant
//! C++ implementation of X-drop [Zhang et al. 2000] from the SeqAn library"
//! (§4). This crate provides a from-scratch Rust implementation of that
//! kernel, plus exact full-DP baselines used to validate it:
//!
//! * [`ScoringScheme`] — linear-gap match/mismatch/gap weights; `N` never
//!   matches anything (low-confidence calls cannot score as identities);
//! * [`nw::global_score`] — Needleman–Wunsch global alignment, O(nm);
//! * [`sw::local_align`] — Smith–Waterman local alignment, O(nm);
//! * [`xdrop::xdrop_extend`] — banded antidiagonal X-drop extension, the
//!   reference kernel: average-case O(n), terminates early on
//!   false-positive seeds (the source of the paper's variable task costs);
//! * [`interseq::BatchedXDropAligner`] — the production kernel: one pair
//!   per SIMD lane, 8/16/32 pairs per register, length-bucketed with lane
//!   refill, bit-identical to the scalar kernel (selected per batch via
//!   [`KernelImpl`]). Pairs outside its exact `i16` range run on the
//!   scalar kernel;
//! * [`packed::PackedView`] — suffix, reversed-prefix and reverse-complement
//!   views over the 2-bit reads the batched engine reads;
//! * [`seed_extend::align_candidate`] — the full candidate workflow: strand
//!   normalisation, two-directional extension from the seed, overlap
//!   classification (paper Fig. 2), acceptance criteria;
//! * [`batch::align_batch`] — batch driver on the `rayon` pool: one
//!   batched engine per worker by default, the per-candidate scalar kernel
//!   on request;
//! * [`calibrate::measure_cell_rate`] — measures host DP-cell throughput to
//!   convert cell counts into simulated KNL-core seconds.
//!
//! Every kernel reports the number of DP cells it evaluated; the simulator
//! uses cells as its machine-independent unit of alignment work.

#![warn(missing_docs)]

pub mod batch;
pub mod calibrate;
pub mod interseq;
pub mod nw;
pub mod packed;
pub mod scoring;
pub mod seed_extend;
pub mod sw;
pub mod xdrop;

pub use batch::{align_batch, BatchOutcome};
pub use interseq::{
    BatchPlan, BatchStats, BatchedXDropAligner, BucketDesc, IsaPath, LengthBuckets,
};
pub use packed::PackedView;
pub use scoring::ScoringScheme;
pub use seed_extend::{align_candidate, AcceptCriteria, AlignmentRecord, Candidate, OverlapClass};
pub use xdrop::{xdrop_extend, Extension, XDropAligner};

/// Which X-drop kernel implementation a batch runs.
///
/// There are two kernels, and both return bit-identical [`Extension`]s on
/// DNA-with-N inputs (the batched engine's equivalence proptests assert
/// this); selection is therefore a pure performance choice, and the
/// default is the fastest, [`KernelImpl::Batched`]. The scalar kernel is
/// the reference implementation. Reads in a [`gnb_genome::ReadSet`] are
/// always over `{A,C,G,T,N}`, so every read set meets the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum KernelImpl {
    /// Byte-at-a-time reference kernel ([`XDropAligner`]).
    Scalar,
    /// Alias of [`KernelImpl::Batched`]: runs the batched engine. Kept
    /// because the benchmark's kernel comparison (`benchmark/src/pipe.rs`)
    /// still names it.
    Packed,
    /// Inter-sequence batched kernel ([`BatchedXDropAligner`]): many pairs
    /// per SIMD register, scheduled over length buckets with lane refill.
    #[default]
    Batched,
}

#[cfg(test)]
mod tests {
    use super::KernelImpl;

    #[test]
    fn batched_is_the_default_kernel() {
        assert_eq!(KernelImpl::default(), KernelImpl::Batched);
    }
}
