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
//! * [`packed::PackedXDropAligner`] — the same algorithm over 2-bit packed
//!   sequences with 32-way base comparison and a branch-reduced inner loop,
//!   bit-identical to the scalar kernel; the batched engine's `i32`
//!   fallback;
//! * [`interseq::BatchedXDropAligner`] — the production kernel: one pair
//!   per SIMD lane, 8/16/32 pairs per register, length-bucketed with lane
//!   refill, bit-identical to the scalar kernel (selected per batch via
//!   [`KernelImpl`]);
//! * [`seed_extend::align_candidate`] — the full candidate workflow: strand
//!   normalisation, two-directional extension from the seed, overlap
//!   classification (paper Fig. 2), acceptance criteria;
//! * [`batch::align_batch`] — batch driver: the batched engine by default,
//!   a rayon loop for the per-candidate kernels;
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
pub use packed::{PackedView, PackedXDropAligner};
pub use scoring::ScoringScheme;
pub use seed_extend::{align_candidate, AcceptCriteria, AlignmentRecord, Candidate, OverlapClass};
pub use xdrop::{xdrop_extend, Extension, XDropAligner};

/// Which X-drop kernel implementation a batch runs.
///
/// All variants return bit-identical [`Extension`]s on DNA-with-N inputs
/// (the packed and batched kernels assert this contract via equivalence
/// proptests); selection is therefore a pure performance choice, and the
/// default is the fastest, [`KernelImpl::Batched`]. The scalar kernel is
/// retained as the reference implementation and as the fallback for
/// sequences that are not valid `{A,C,G,T,N}` DNA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum KernelImpl {
    /// Byte-at-a-time reference kernel ([`XDropAligner`]).
    Scalar,
    /// 2-bit packed, branch-reduced kernel ([`PackedXDropAligner`]).
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
