//! Deterministic discrete-event simulation (DES) of an SPMD machine.
//!
//! The paper's experiments ran on 1–512 Cori KNL nodes (64 application
//! cores each, Cray Aries interconnect). No such machine — and no UPC++ or
//! MPI runtime — exists in this environment, so this crate provides the
//! substitute substrate: a virtual-time simulator whose *ranks* are SPMD
//! state machines, with
//!
//! * a per-rank CPU queueing model (handlers execute in virtual time; a
//!   busy rank delays later events, which is how RPC servicing contends
//!   with alignment compute, cf. §3.2/§4.3);
//! * an α–β network with per-node NIC serialisation (64 ranks share one
//!   NIC, the KNL reality that throttles per-core bandwidth) and a
//!   dragonfly-style global-bandwidth taper;
//! * engine-level barriers (including split-phase usage) priced at
//!   α·⌈log₂ P⌉;
//! * an aggregate `alltoallv` cost model for bulk-synchronous exchanges;
//! * a per-rank memory tracker with high-water marks (Fig. 11/12);
//! * per-rank time ledgers by category (the Fig. 3/4/8–10 breakdowns);
//! * deterministic, seed-driven fault injection ([`fault::FaultPlan`]):
//!   message drop / duplication / delay, straggler windows, transient
//!   rank stalls — with the recovery cost booked in its own ledger
//!   category.
//!
//! Everything is deterministic: events are ordered by `(virtual time,
//! insertion sequence)`, so identical inputs give bit-identical timelines.
//!
//! The insertion-sequence half of that ordering is an arbitrary
//! tie-break, so determinism *testing* gets two dedicated hooks (see
//! DESIGN.md "Determinism contract"): a virtual-time race detector
//! ([`race::RaceDetector`], enabled with
//! [`engine::Engine::with_race_detection`]) that flags same-time
//! same-rank state conflicts whose resolution depends on the tie-break,
//! and a perturbation-replay mode ([`event::TieBreak::Lifo`], set with
//! [`engine::Engine::with_tie_break`]) that reverses equal-time ordering —
//! fault-free results must be invariant under it.

#![warn(missing_docs)]
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::wildcard_enum_match_arm
)]

pub mod ckpt;
pub mod coll;
pub mod cpath;
pub mod engine;
pub mod event;
pub mod export;
pub mod fault;
pub mod mem;
mod membership;
pub mod net;
pub mod obs;
pub mod race;
mod rank;
pub mod stats;
pub mod time;

pub use ckpt::{Checkpointable, CkptParams, CkptReader, CkptRecord, CkptStore, CkptWriter};
pub use coll::{alltoallv_time, CollParams, ExchangeLoad};
pub use cpath::{critical_path, CpCategory, CriticalPath};
pub use engine::{Ctx, Engine, Program, TimeCategory};
pub use event::{Event, EventPayload, TieBreak};
pub use export::chrome_trace_json;
pub use fault::{backoff_delay, CrashPlan, FaultConfig, FaultPlan, FaultStats, RankCrash};
pub use mem::MemTracker;
pub use net::{NetParams, Network};
pub use obs::{EdgeKind, InstantKind, MetricId, Obs, ObsConfig};
pub use race::{render_races, RaceDetector, RaceRecord};
pub use stats::Summary;
pub use time::SimTime;
