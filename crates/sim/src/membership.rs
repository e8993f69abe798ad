//! Crash-stop membership bookkeeping for the engine's dispatch loop.
//!
//! This module keeps the liveness flags, the crash/rebirth mark routing
//! and the crash-plan predicates out of the loop itself, so there is one
//! definition of who is dead when, which events a crash dooms, and how
//! many entrants a barrier must collect.
//!
//! Everything that depends only on the installed [`CrashPlan`] is a pure
//! function of `(plan, time)`; only the `dead` flags and the pending-mark
//! table are stateful.

use crate::event::{EventPayload, EventQueue};
use crate::fault::{CrashPlan, FaultPlan, RankCrash};
use crate::rank::{RankVec, Ranks};
use crate::time::SimTime;
use std::collections::BTreeMap;

/// One scheduled crash or rebirth mark: an engine-internal queue event
/// identified by its sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Mark {
    /// The crashing / reborn rank.
    pub rank: usize,
    /// `true` for the rebirth edge of a crash window.
    pub rebirth: bool,
}

/// Liveness flags plus the pending crash/rebirth mark table.
#[derive(Debug)]
pub(crate) struct Membership {
    /// `dead[r]` while rank `r` sits inside a scheduled death window. Only
    /// consulted when the installed plan carries crashes, so crash-free
    /// runs stay bit-identical.
    pub(crate) dead: RankVec<bool>,
    /// Engine-internal crash/rebirth marks: queue seq → mark. Marks are
    /// intercepted before program dispatch, so the public
    /// [`EventPayload`] enum is unchanged.
    pub(crate) marks: BTreeMap<u64, Mark>,
}

impl Membership {
    pub(crate) fn new(ranks: Ranks) -> Membership {
        Membership {
            dead: ranks.vec(false),
            marks: BTreeMap::new(),
        }
    }

    /// Schedules every crash/rebirth mark from `crashes` into `queue`.
    /// Marks are pushed before the rank `Start` events so a crash at the
    /// same virtual time as a program event wins the FIFO tie-break and
    /// the dead rank never dispatches it.
    pub(crate) fn schedule<M>(&mut self, queue: &mut EventQueue<M>, crashes: &[RankCrash]) {
        for c in crashes {
            let seq = queue.push(c.at, c.rank, EventPayload::Start);
            self.marks.insert(
                seq,
                Mark {
                    rank: c.rank,
                    rebirth: false,
                },
            );
            if let Some(d) = c.rebirth {
                let seq = queue.push(c.at + d, c.rank, EventPayload::Start);
                self.marks.insert(
                    seq,
                    Mark {
                        rank: c.rank,
                        rebirth: true,
                    },
                );
            }
        }
    }

    /// Takes the mark for `seq`, if `seq` identifies one.
    pub(crate) fn take_mark(&mut self, seq: u64) -> Option<Mark> {
        self.marks.remove(&seq)
    }
}

/// Whether `plan` schedules at least one crash. Every crash-stop code path
/// is gated on this so that runs without a crash plan stay bit-identical
/// to the pre-crash engine.
pub(crate) fn crashes_scheduled(fault: Option<&FaultPlan>) -> bool {
    fault.is_some_and(|f| !f.crash.is_empty())
}

/// Crash-stop wire semantics: a message (or self-timer) pushed at `now`
/// for delivery at `sched` dies on the wire if either endpoint is dead at
/// delivery or crosses an incarnation boundary in between — in-flight
/// traffic does not survive a crash, and a reborn rank never sees its
/// previous incarnation's traffic.
pub(crate) fn crash_dooms(
    fault: Option<&FaultPlan>,
    src: usize,
    dst: usize,
    now: SimTime,
    sched: SimTime,
) -> bool {
    match fault {
        Some(f) if !f.crash.is_empty() => {
            let c = &f.crash;
            c.is_dead(src, sched)
                || c.incarnation(src, now) != c.incarnation(src, sched)
                || c.is_dead(dst, sched)
                || c.incarnation(dst, now) != c.incarnation(dst, sched)
        }
        _ => false,
    }
}

/// Number of ranks a barrier must collect at time `t`: every rank whose
/// crash has not fired yet. Crashed ranks are excluded *permanently*
/// (crash-stop group membership — a reborn rank serves traffic again but
/// never rejoins collectives).
pub(crate) fn required_ranks(fault: Option<&FaultPlan>, nranks: usize, t: SimTime) -> usize {
    match fault {
        Some(f) if !f.crash.is_empty() => {
            (0..nranks).filter(|&r| !f.crash.crashed_by(r, t)).count()
        }
        _ => nranks,
    }
}

/// Whether a handler running at `now` on `rank` started before the rank's
/// crash but has virtually outlived it (used to suppress barrier entries
/// from a rank that died mid-handler).
pub(crate) fn crashed_by(fault: Option<&FaultPlan>, rank: usize, now: SimTime) -> bool {
    fault.is_some_and(|f| f.crash.crashed_by(rank, now))
}

/// The crash plan carried by `fault`, when one is installed and non-empty.
pub(crate) fn crash_plan(fault: Option<&FaultPlan>) -> Option<&CrashPlan> {
    match fault {
        Some(f) if !f.crash.is_empty() => Some(&f.crash),
        _ => None,
    }
}
