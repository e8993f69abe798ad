//! k-mer analysis substrate: extraction, counting, and the BELLA filter.
//!
//! DiBELLA's stage 2 (paper §3) computes a k-mer histogram over all reads,
//! filters k-mers by frequency using the BELLA reliability model
//! (Guidi et al., ACDA 2021), and uses the retained k-mers to discover
//! candidate read pairs. This crate implements that analysis:
//!
//! * [`Kmer`] — a 2-bit-packed k-mer (k ≤ 32) with reverse-complement and
//!   canonical form;
//! * [`kmers_of`] / [`KmerIter`] — sliding-window extraction that resets on
//!   `N` (ambiguous base calls never produce k-mers);
//! * [`count::count_kmers`] — partition-and-sort counting into sorted runs;
//! * [`bella::BellaModel`] — the coverage/error-rate-driven reliable
//!   frequency interval `[lo, hi]`;
//! * [`index::SeedIndex`] — posting lists (read, position) for retained
//!   k-mers in one sorted CSR store, the input to candidate generation.
//!
//! ```
//! use gnb_kmer::{Kmer, kmers_of};
//!
//! let k = 5;
//! let hits: Vec<_> = kmers_of(b"ACGTANCGTAC", k).collect();
//! // Windows containing 'N' are skipped entirely: only positions 0 and 6.
//! assert_eq!(hits.iter().map(|&(p, _)| p).collect::<Vec<_>>(), vec![0, 6]);
//! let (_, km0) = hits[0];
//! assert_eq!(km0, Kmer::from_seq(b"ACGTA", k).unwrap().canonical(k));
//! ```

#![warn(missing_docs)]

pub mod bella;
pub mod count;
pub mod histogram;
pub mod index;
pub mod kmer;
pub mod minimizer;

pub use bella::BellaModel;
pub use count::{count_kmers, count_kmers_serial, KmerCounts};
pub use histogram::Histogram;
pub use index::Posting;
pub use index::SeedIndex;
pub use kmer::{kmers_of, kmers_oriented, Kmer, KmerIter};
