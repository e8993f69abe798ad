//! Deterministic fault injection: seed-driven failure plans for the DES.
//!
//! The paper's experiments ran on a fault-free Cray (GASNet-EX "ensures
//! read requests and callbacks are delivered"); at real scale, runs see
//! dropped replies, duplicated retransmissions, delayed packets, straggler
//! cores and transient rank stalls. A [`FaultPlan`] injects all of these
//! *deterministically*: every decision is a pure function of the plan's
//! seed and the event's identity (message sequence number, rank, round,
//! attempt), so a faulty run is exactly as reproducible as a clean one —
//! same seed, bit-identical timeline.
//!
//! The engine consults the plan on every [`crate::engine::Ctx::send`]
//! (drop / duplicate / delay), on every compute
//! [`crate::engine::Ctx::advance`] (straggler slowdown windows) and on
//! every event dispatch (transient rank stalls). Coordination codes
//! consult it for collective-level faults ([`FaultPlan::bsp_round_lost`])
//! and use [`backoff_delay`] for their retry timers. Self-timers and
//! barrier releases are never faulted — they model local clocks, not the
//! wire.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Mixes 64 bits (splitmix64 finalizer): the single primitive behind every
/// fault decision.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` from a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A compact, `Copy`-able fault recipe: what experiment configs carry.
///
/// [`FaultConfig::plan`] expands it into a full [`FaultPlan`] for a
/// concrete rank count. The default is the fault-free configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed for all fault decisions.
    pub seed: u64,
    /// Probability a point-to-point message is lost on the wire.
    pub drop_prob: f64,
    /// Probability a delivered message arrives twice (retransmission
    /// duplicate).
    pub dup_prob: f64,
    /// Probability a delivered message is held up by [`Self::delay_ns`].
    pub delay_prob: f64,
    /// Extra latency of a delayed message, ns.
    pub delay_ns: u64,
    /// Probability one BSP exchange attempt is lost (all ranks observe the
    /// same verdict — a collective either completes everywhere or fails
    /// everywhere).
    pub bsp_round_drop_prob: f64,
    /// Every `straggler_period`-th rank is a straggler (0 = none).
    pub straggler_period: usize,
    /// CPU slowdown multiplier of straggler ranks (1.0 = no slowdown).
    pub straggler_factor: f64,
    /// Straggler window start, virtual ms.
    pub straggler_start_ms: u64,
    /// Straggler window end, virtual ms (`u64::MAX`-ish values mean
    /// "for the whole run").
    pub straggler_end_ms: u64,
    /// Every `stall_period`-th rank suffers one transient stall (0 = none).
    pub stall_period: usize,
    /// Virtual time at which stalled ranks freeze, ms.
    pub stall_at_ms: u64,
    /// Stall duration, ms.
    pub stall_ms: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0xFA_017,
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            delay_ns: 0,
            bsp_round_drop_prob: 0.0,
            straggler_period: 0,
            straggler_factor: 1.0,
            straggler_start_ms: 0,
            straggler_end_ms: u64::MAX / 1_000_000,
            stall_period: 0,
            stall_at_ms: 0,
            stall_ms: 0,
        }
    }
}

impl FaultConfig {
    /// True if any message-level fault can fire (tells RPC code it must
    /// arm retry timers).
    pub fn message_faults_possible(&self) -> bool {
        self.drop_prob > 0.0 || self.dup_prob > 0.0 || self.delay_prob > 0.0
    }

    /// True if the config injects any fault at all.
    pub fn is_active(&self) -> bool {
        self.message_faults_possible()
            || self.bsp_round_drop_prob > 0.0
            || (self.straggler_period > 0 && self.straggler_factor > 1.0)
            || (self.stall_period > 0 && self.stall_ms > 0)
    }

    /// Expands the recipe into a [`FaultPlan`] for `nranks` ranks.
    pub fn plan(&self, nranks: usize) -> FaultPlan {
        let mut plan = FaultPlan::new(self.seed)
            .with_message_faults(
                self.drop_prob,
                self.dup_prob,
                self.delay_prob,
                self.delay_ns,
            )
            .with_bsp_round_drop_prob(self.bsp_round_drop_prob);
        if self.straggler_period > 0 && self.straggler_factor > 1.0 {
            for rank in (0..nranks).step_by(self.straggler_period) {
                plan.stragglers.push(StragglerWindow {
                    rank,
                    start: SimTime::from_ms(self.straggler_start_ms),
                    end: SimTime::from_ms(self.straggler_end_ms),
                    factor: self.straggler_factor,
                });
            }
        }
        if self.stall_period > 0 && self.stall_ms > 0 {
            for rank in (0..nranks).step_by(self.stall_period) {
                plan.stalls.push(RankStall {
                    rank,
                    at: SimTime::from_ms(self.stall_at_ms),
                    duration: SimTime::from_ms(self.stall_ms),
                });
            }
        }
        plan
    }
}

/// A straggler window: `rank` runs CPU work `factor`× slower during
/// `[start, end)`. The excess time is booked under
/// [`crate::engine::TimeCategory::Recovery`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StragglerWindow {
    /// The slowed rank.
    pub rank: usize,
    /// Window start (virtual time).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// CPU slowdown multiplier (must be ≥ 1).
    pub factor: f64,
}

/// A transient stall: `rank` freezes at `at` for `duration` — no events
/// are dispatched to it and the lost time is booked as recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankStall {
    /// The stalled rank.
    pub rank: usize,
    /// Freeze time (virtual).
    pub at: SimTime,
    /// Freeze duration.
    pub duration: SimTime,
}

/// A crash-stop failure: `rank` dies at virtual time `at`, taking its
/// event queue, in-flight wire traffic, and un-checkpointed state with it.
/// With `rebirth` set, the host returns at `at + rebirth` — the engine
/// resumes delivering to it, but anything sent or armed in the previous
/// incarnation is gone (crash-stop, not crash-recovery, at the wire level;
/// state recovery is the checkpoint layer's job).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankCrash {
    /// The crashing rank.
    pub rank: usize,
    /// Crash instant (virtual time).
    pub at: SimTime,
    /// Time until the host returns; `None` means the rank stays dead.
    pub rebirth: Option<SimTime>,
}

/// A deterministic crash-stop schedule: which ranks die, when, and whether
/// their hosts return. Like every other fault in this module, a plan is
/// either hand-built ([`CrashPlan::with_crash`]) or seed-hashed
/// ([`CrashPlan::seeded`]) — never drawn from a live RNG — so a crashing
/// run replays bit-identically. The empty plan is inert: an engine given a
/// crash-free `CrashPlan` behaves byte-for-byte like one given none.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CrashPlan {
    /// Scheduled crashes, at most one per rank.
    pub crashes: Vec<RankCrash>,
}

impl CrashPlan {
    /// The empty (crash-free) plan.
    pub fn none() -> CrashPlan {
        CrashPlan::default()
    }

    /// Adds one crash. Panics if `rank` already has one scheduled.
    pub fn with_crash(mut self, rank: usize, at_ns: u64, rebirth_ns: Option<u64>) -> CrashPlan {
        assert!(
            self.crash_of(rank).is_none(),
            "rank {rank} already has a scheduled crash"
        );
        self.crashes.push(RankCrash {
            rank,
            at: SimTime::from_ns(at_ns),
            rebirth: rebirth_ns.map(SimTime::from_ns),
        });
        self
    }

    /// Seed-hashes a schedule of `count` crashes over `nranks` ranks:
    /// distinct victims, crash times uniform in `[window_start_ns,
    /// window_end_ns)`, each optionally reborn after `rebirth_ns`. At
    /// least one rank always survives (`count` is capped at `nranks - 1`).
    pub fn seeded(
        seed: u64,
        nranks: usize,
        count: usize,
        window_start_ns: u64,
        window_end_ns: u64,
        rebirth_ns: Option<u64>,
    ) -> CrashPlan {
        assert!(window_end_ns >= window_start_ns, "empty crash window");
        let count = count.min(nranks.saturating_sub(1));
        let mut plan = CrashPlan::default();
        let span = (window_end_ns - window_start_ns).max(1);
        let mut i = 0u64;
        while plan.crashes.len() < count {
            let h = mix(seed ^ mix(0xC4A5_4E5D ^ i));
            i += 1;
            let rank = (h % nranks as u64) as usize;
            if plan.crash_of(rank).is_some() {
                continue;
            }
            let at_ns = window_start_ns + mix(h ^ 0x7) % span;
            plan.crashes.push(RankCrash {
                rank,
                at: SimTime::from_ns(at_ns),
                rebirth: rebirth_ns.map(SimTime::from_ns),
            });
        }
        // Sort by (time, rank) so iteration order is schedule order, not
        // hash-probe order.
        plan.crashes.sort_by_key(|c| (c.at, c.rank));
        plan
    }

    /// True when no crashes are scheduled (the inert plan).
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
    }

    /// The crash scheduled for `rank`, if any.
    pub fn crash_of(&self, rank: usize) -> Option<&RankCrash> {
        self.crashes.iter().find(|c| c.rank == rank)
    }

    /// Whether `rank`'s host is down at `t` (inside the death window).
    pub fn is_dead(&self, rank: usize, t: SimTime) -> bool {
        match self.crash_of(rank) {
            Some(c) => {
                t >= c.at
                    && match c.rebirth {
                        Some(d) => t < c.at + d,
                        None => true,
                    }
            }
            None => false,
        }
    }

    /// Whether `rank` has crashed at or before `t` — true even after a
    /// rebirth. Group-membership policy keys off this: a crashed rank is
    /// permanently excluded from barriers and ownership, reborn or not.
    pub fn crashed_by(&self, rank: usize, t: SimTime) -> bool {
        matches!(self.crash_of(rank), Some(c) if t >= c.at)
    }

    /// Incarnation of `rank` at `t`: 0 until its crash, 1 from its rebirth.
    /// Wire traffic and timers are only delivered within one incarnation.
    pub fn incarnation(&self, rank: usize, t: SimTime) -> u32 {
        match self.crash_of(rank) {
            Some(c) => match c.rebirth {
                Some(d) if t >= c.at + d => 1,
                _ => 0,
            },
            None => 0,
        }
    }

    /// Ranks that never crash before or at `t`, ascending — the barrier /
    /// ownership membership at `t`.
    pub fn survivors_at(&self, nranks: usize, t: SimTime) -> Vec<usize> {
        (0..nranks).filter(|&r| !self.crashed_by(r, t)).collect()
    }

    /// Ranks that never crash at all, ascending — the stable membership a
    /// deterministic takeover remap is computed against.
    pub fn survivors(&self, nranks: usize) -> Vec<usize> {
        (0..nranks)
            .filter(|&r| self.crash_of(r).is_none())
            .collect()
    }

    /// The designated successor of `dead`: the stable survivor that
    /// restores the dead rank's checkpoint and adopts its shard. The rule
    /// is a pure function of the plan (`survivors[dead % |survivors|]`),
    /// so every rank computes the same successor with no coordination.
    ///
    /// # Panics
    /// Panics if no rank survives the plan.
    pub fn successor(&self, dead: usize, nranks: usize) -> usize {
        let survivors = self.survivors(nranks);
        assert!(!survivors.is_empty(), "takeover needs a surviving rank");
        #[expect(
            clippy::indexing_slicing,
            reason = "the assert above makes survivors non-empty, so dead % len is in range"
        )]
        let succ = survivors[dead % survivors.len()];
        succ
    }
}

/// A scheduled (non-probabilistic) message drop: the `nth` faultable
/// message sent to `dst` is lost (counting from 1 in send order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledDrop {
    /// Destination rank of the doomed message.
    pub dst: usize,
    /// 1-based index among messages addressed to `dst`.
    pub nth: u64,
}

/// What the plan decided for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MessageFate {
    /// The message never reaches the destination.
    pub dropped: bool,
    /// A second copy also arrives (only meaningful when not dropped).
    pub duplicated: bool,
    /// Extra latency added to the arrival (zero when not delayed).
    pub extra_delay: SimTime,
}

/// Counters of injected faults, reported in
/// [`crate::engine::SimReport::faults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultStats {
    /// Messages lost on the wire.
    pub msgs_dropped: u64,
    /// Messages delivered twice.
    pub msgs_duplicated: u64,
    /// Messages held up by extra delay.
    pub msgs_delayed: u64,
    /// Transient-stall occurrences dispatched.
    pub stall_events: u64,
    /// Total frozen time across ranks.
    pub stall_time: SimTime,
    /// Total straggler-induced CPU inflation across ranks.
    pub straggler_excess: SimTime,
    /// Crash-stop failures that fired.
    pub crashes: u64,
    /// Events silently discarded because their rank was dead, or their
    /// wire traffic was in flight across a crash/rebirth boundary.
    pub crash_events_dropped: u64,
}

/// A deterministic, seed-driven fault plan.
///
/// Construction is builder-style; the zero plan (`FaultPlan::new(seed)`)
/// injects nothing. All probabilistic decisions hash `(seed, identity)` —
/// never a live RNG — so decisions do not depend on query order.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed mixed into every decision.
    pub seed: u64,
    /// Probability a message is dropped.
    pub drop_prob: f64,
    /// Probability a delivered message is duplicated.
    pub dup_prob: f64,
    /// Probability a delivered message is delayed.
    pub delay_prob: f64,
    /// Extra latency of delayed messages.
    pub delay: SimTime,
    /// Scheduled per-destination drops (exact, not probabilistic).
    pub scheduled_drops: Vec<ScheduledDrop>,
    /// Probability a BSP exchange attempt is lost.
    pub bsp_round_drop_prob: f64,
    /// BSP rounds whose first attempt is always lost (scheduled).
    pub bsp_lost_rounds: Vec<u64>,
    /// Straggler windows (may overlap; factors multiply).
    pub stragglers: Vec<StragglerWindow>,
    /// Transient rank stalls.
    pub stalls: Vec<RankStall>,
    /// Crash-stop failures (empty = none).
    pub crash: CrashPlan,
}

impl FaultPlan {
    /// The empty (fault-free) plan under `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the probabilistic message-fault rates.
    pub fn with_message_faults(
        mut self,
        drop_prob: f64,
        dup_prob: f64,
        delay_prob: f64,
        delay_ns: u64,
    ) -> FaultPlan {
        assert!((0.0..=1.0).contains(&drop_prob), "drop_prob out of range");
        assert!((0.0..=1.0).contains(&dup_prob), "dup_prob out of range");
        assert!((0.0..=1.0).contains(&delay_prob), "delay_prob out of range");
        self.drop_prob = drop_prob;
        self.dup_prob = dup_prob;
        self.delay_prob = delay_prob;
        self.delay = SimTime::from_ns(delay_ns);
        self
    }

    /// Sets the BSP exchange-loss probability.
    pub fn with_bsp_round_drop_prob(mut self, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "bsp_round_drop_prob out of range");
        self.bsp_round_drop_prob = p;
        self
    }

    /// Adds a scheduled drop of the `nth` message addressed to `dst`.
    pub fn with_scheduled_drop(mut self, dst: usize, nth: u64) -> FaultPlan {
        assert!(nth >= 1, "scheduled drops count messages from 1");
        self.scheduled_drops.push(ScheduledDrop { dst, nth });
        self
    }

    /// Adds a scheduled loss of BSP round `round` (first attempt).
    pub fn with_bsp_lost_round(mut self, round: u64) -> FaultPlan {
        self.bsp_lost_rounds.push(round);
        self
    }

    /// Adds a straggler window.
    pub fn with_straggler(mut self, w: StragglerWindow) -> FaultPlan {
        assert!(w.factor >= 1.0, "straggler factor must be >= 1");
        self.stragglers.push(w);
        self
    }

    /// Adds a transient rank stall.
    pub fn with_stall(mut self, s: RankStall) -> FaultPlan {
        self.stalls.push(s);
        self
    }

    /// Installs a crash-stop schedule.
    pub fn with_crashes(mut self, crash: CrashPlan) -> FaultPlan {
        self.crash = crash;
        self
    }

    /// True if any message-level fault can fire.
    pub fn message_faults_possible(&self) -> bool {
        self.drop_prob > 0.0
            || self.dup_prob > 0.0
            || self.delay_prob > 0.0
            || !self.scheduled_drops.is_empty()
    }

    /// Decides the fate of one message. `seq` is the global send sequence
    /// number; `dst_count` is how many messages (including this one) have
    /// been sent to `dst` so far, driving scheduled drops.
    pub fn message_fate(&self, seq: u64, dst: usize, dst_count: u64) -> MessageFate {
        let mut fate = MessageFate::default();
        if self
            .scheduled_drops
            .iter()
            .any(|d| d.dst == dst && d.nth == dst_count)
        {
            fate.dropped = true;
            return fate;
        }
        let h = mix(self.seed ^ mix(seq));
        if self.drop_prob > 0.0 && unit(h) < self.drop_prob {
            fate.dropped = true;
            return fate;
        }
        if self.dup_prob > 0.0 && unit(mix(h ^ 0x1)) < self.dup_prob {
            fate.duplicated = true;
        }
        if self.delay_prob > 0.0 && unit(mix(h ^ 0x2)) < self.delay_prob {
            fate.extra_delay = self.delay;
        }
        fate
    }

    /// Combined straggler slowdown factor for `rank` at `at` (≥ 1;
    /// overlapping windows multiply).
    pub fn compute_factor(&self, rank: usize, at: SimTime) -> f64 {
        let mut f = 1.0;
        for w in &self.stragglers {
            if w.rank == rank && at >= w.start && at < w.end {
                f *= w.factor;
            }
        }
        f
    }

    /// If `rank` is frozen at `at`, returns when the freeze ends.
    pub fn stall_until(&self, rank: usize, at: SimTime) -> Option<SimTime> {
        self.stalls
            .iter()
            .filter(|s| s.rank == rank && at >= s.at && at < s.at + s.duration)
            .map(|s| s.at + s.duration)
            .max()
    }

    /// Whether BSP exchange `round`, `attempt` (0-based) is lost. The
    /// verdict is rank-independent: a collective fails for everyone or for
    /// no one, which is what lets every rank detect the loss and re-issue
    /// the same round without extra coordination.
    pub fn bsp_round_lost(&self, round: u64, attempt: u32) -> bool {
        if attempt == 0 && self.bsp_lost_rounds.contains(&round) {
            return true;
        }
        if self.bsp_round_drop_prob <= 0.0 {
            return false;
        }
        let h = mix(self.seed ^ mix(0xB5_B0 ^ round.rotate_left(17) ^ (attempt as u64) << 48));
        unit(h) < self.bsp_round_drop_prob
    }
}

/// Exponential backoff with deterministic jitter: the delay before retry
/// `attempt` (0-based) of a request identified by `key`.
///
/// `base × 2^attempt`, capped at `max`, plus a hash-derived jitter of up
/// to 25% — the classic decorrelation that stops synchronized retry storms,
/// made deterministic so the simulation stays replayable.
pub fn backoff_delay(base: SimTime, max: SimTime, attempt: u32, seed: u64, key: u64) -> SimTime {
    let exp = base
        .as_ns()
        .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX));
    let capped = exp.min(max.as_ns().max(base.as_ns()));
    let jitter_span = capped / 4;
    let jitter = if jitter_span == 0 {
        0
    } else {
        mix(seed ^ mix(key ^ ((attempt as u64) << 32))) % jitter_span
    };
    SimTime::from_ns(capped + jitter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_fault_free() {
        let p = FaultPlan::new(1);
        for seq in 0..1000 {
            assert_eq!(p.message_fate(seq, 0, seq + 1), MessageFate::default());
        }
        assert_eq!(p.compute_factor(0, SimTime::from_ms(5)), 1.0);
        assert_eq!(p.stall_until(0, SimTime::from_ms(5)), None);
        assert!(!p.bsp_round_lost(0, 0));
        assert!(!p.message_faults_possible());
    }

    #[test]
    fn decisions_are_deterministic_and_order_independent() {
        let p = FaultPlan::new(42).with_message_faults(0.3, 0.2, 0.2, 1000);
        let forward: Vec<MessageFate> = (0..100).map(|s| p.message_fate(s, 1, s + 1)).collect();
        let backward: Vec<MessageFate> = (0..100)
            .rev()
            .map(|s| p.message_fate(s, 1, s + 1))
            .collect();
        let rev: Vec<MessageFate> = backward.into_iter().rev().collect();
        assert_eq!(forward, rev);
        // And a different seed gives a different pattern.
        let q = FaultPlan::new(43).with_message_faults(0.3, 0.2, 0.2, 1000);
        let other: Vec<MessageFate> = (0..100).map(|s| q.message_fate(s, 1, s + 1)).collect();
        assert_ne!(forward, other);
    }

    #[test]
    fn drop_rate_close_to_probability() {
        let p = FaultPlan::new(7).with_message_faults(0.25, 0.0, 0.0, 0);
        let n = 100_000u64;
        let dropped = (0..n)
            .filter(|&s| p.message_fate(s, 0, s + 1).dropped)
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn scheduled_drop_hits_exactly_the_nth() {
        let p = FaultPlan::new(1).with_scheduled_drop(3, 2);
        assert!(!p.message_fate(10, 3, 1).dropped);
        assert!(p.message_fate(11, 3, 2).dropped);
        assert!(!p.message_fate(12, 3, 3).dropped);
        assert!(
            !p.message_fate(13, 4, 2).dropped,
            "other destinations untouched"
        );
        assert!(p.message_faults_possible());
    }

    #[test]
    fn straggler_window_bounds() {
        let p = FaultPlan::new(1).with_straggler(StragglerWindow {
            rank: 2,
            start: SimTime::from_ms(10),
            end: SimTime::from_ms(20),
            factor: 3.0,
        });
        assert_eq!(p.compute_factor(2, SimTime::from_ms(9)), 1.0);
        assert_eq!(p.compute_factor(2, SimTime::from_ms(10)), 3.0);
        assert_eq!(p.compute_factor(2, SimTime::from_ms(19)), 3.0);
        assert_eq!(p.compute_factor(2, SimTime::from_ms(20)), 1.0);
        assert_eq!(p.compute_factor(1, SimTime::from_ms(15)), 1.0);
    }

    #[test]
    fn overlapping_stragglers_multiply() {
        let w = |f| StragglerWindow {
            rank: 0,
            start: SimTime::ZERO,
            end: SimTime::from_ms(100),
            factor: f,
        };
        let p = FaultPlan::new(1)
            .with_straggler(w(2.0))
            .with_straggler(w(1.5));
        assert!((p.compute_factor(0, SimTime::from_ms(1)) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn stall_window_reports_end() {
        let p = FaultPlan::new(1).with_stall(RankStall {
            rank: 1,
            at: SimTime::from_ms(5),
            duration: SimTime::from_ms(2),
        });
        assert_eq!(p.stall_until(1, SimTime::from_ms(4)), None);
        assert_eq!(
            p.stall_until(1, SimTime::from_ms(5)),
            Some(SimTime::from_ms(7))
        );
        assert_eq!(
            p.stall_until(1, SimTime::from_ms(6)),
            Some(SimTime::from_ms(7))
        );
        assert_eq!(p.stall_until(1, SimTime::from_ms(7)), None);
        assert_eq!(p.stall_until(0, SimTime::from_ms(6)), None);
    }

    #[test]
    fn bsp_round_loss_is_rank_free_and_attempt_sensitive() {
        let p = FaultPlan::new(9).with_bsp_round_drop_prob(0.5);
        // Across many rounds roughly half are lost on attempt 0…
        let lost = (0..10_000u64).filter(|&r| p.bsp_round_lost(r, 0)).count();
        assert!((lost as f64 / 10_000.0 - 0.5).abs() < 0.03);
        // …and a lost round's later attempt can succeed (not stuck).
        let r = (0..10_000u64).find(|&r| p.bsp_round_lost(r, 0)).unwrap();
        assert!((1..64).any(|a| !p.bsp_round_lost(r, a)));
    }

    #[test]
    fn scheduled_bsp_round_loss() {
        let p = FaultPlan::new(1).with_bsp_lost_round(2);
        assert!(!p.bsp_round_lost(1, 0));
        assert!(p.bsp_round_lost(2, 0));
        assert!(
            !p.bsp_round_lost(2, 1),
            "only the first attempt is scheduled away"
        );
    }

    #[test]
    fn backoff_grows_and_caps() {
        let base = SimTime::from_ms(1);
        let max = SimTime::from_ms(8);
        let mut prev = SimTime::ZERO;
        for a in 0..4 {
            let d = backoff_delay(base, max, a, 1, 1);
            // Within [2^a ms, 1.25 * 2^a ms).
            let nominal = 1u64 << a;
            assert!(d.as_ns() >= nominal * 1_000_000);
            assert!(d.as_ns() < nominal * 1_250_000);
            assert!(d > prev);
            prev = d;
        }
        // Far past the cap: bounded by max + 25%.
        let d = backoff_delay(base, max, 30, 1, 1);
        assert!(d.as_ns() <= 10_000_000);
        // Huge attempt numbers must not overflow.
        let d = backoff_delay(base, max, 200, 1, 1);
        assert!(d.as_ns() <= 10_000_000);
    }

    #[test]
    fn backoff_jitter_decorrelates_keys() {
        let base = SimTime::from_ms(1);
        let max = SimTime::from_ms(64);
        let a = backoff_delay(base, max, 2, 5, 100);
        let b = backoff_delay(base, max, 2, 5, 101);
        assert_ne!(a, b, "different keys should jitter differently");
        assert_eq!(
            a,
            backoff_delay(base, max, 2, 5, 100),
            "but deterministically"
        );
    }

    #[test]
    fn config_expands_to_plan() {
        let cfg = FaultConfig {
            drop_prob: 0.1,
            straggler_period: 2,
            straggler_factor: 2.0,
            stall_period: 3,
            stall_at_ms: 1,
            stall_ms: 4,
            ..FaultConfig::default()
        };
        assert!(cfg.is_active());
        assert!(cfg.message_faults_possible());
        let plan = cfg.plan(6);
        assert_eq!(plan.stragglers.len(), 3, "ranks 0, 2, 4");
        assert_eq!(plan.stalls.len(), 2, "ranks 0, 3");
        assert!((plan.drop_prob - 0.1).abs() < 1e-12);
    }

    #[test]
    fn default_config_is_inactive() {
        let cfg = FaultConfig::default();
        assert!(!cfg.is_active());
        assert_eq!(cfg.plan(8), FaultPlan::new(cfg.seed));
    }

    #[test]
    fn empty_crash_plan_is_inert() {
        let p = CrashPlan::none();
        assert!(p.is_empty());
        assert!(!p.is_dead(0, SimTime::from_ms(100)));
        assert!(!p.crashed_by(0, SimTime::from_ms(100)));
        assert_eq!(p.incarnation(0, SimTime::from_ms(100)), 0);
        assert_eq!(p.survivors(4), vec![0, 1, 2, 3]);
        assert_eq!(
            CrashPlan::seeded(9, 8, 0, 0, 1_000_000, None),
            CrashPlan::none(),
            "zero-count seeded plan is byte-identical to no plan"
        );
    }

    #[test]
    fn crash_windows_and_incarnations() {
        let p = CrashPlan::none().with_crash(1, 5_000_000, None).with_crash(
            2,
            3_000_000,
            Some(4_000_000),
        );
        // Rank 1: dead forever from 5 ms.
        assert!(!p.is_dead(1, SimTime::from_ms(4)));
        assert!(p.is_dead(1, SimTime::from_ms(5)));
        assert!(p.is_dead(1, SimTime::from_ms(500)));
        assert_eq!(p.incarnation(1, SimTime::from_ms(500)), 0);
        // Rank 2: dead in [3 ms, 7 ms), reborn after.
        assert!(p.is_dead(2, SimTime::from_ms(3)));
        assert!(p.is_dead(2, SimTime::from_ms(6)));
        assert!(!p.is_dead(2, SimTime::from_ms(7)));
        assert_eq!(p.incarnation(2, SimTime::from_ms(2)), 0);
        assert_eq!(p.incarnation(2, SimTime::from_ms(7)), 1);
        // crashed_by is permanent even across rebirth.
        assert!(p.crashed_by(2, SimTime::from_ms(7)));
        assert_eq!(p.survivors_at(4, SimTime::from_ms(4)), vec![0, 1, 3]);
        assert_eq!(p.survivors_at(4, SimTime::from_ms(10)), vec![0, 3]);
        assert_eq!(p.survivors(4), vec![0, 3]);
    }

    #[test]
    fn seeded_crash_plan_is_deterministic_and_distinct() {
        let a = CrashPlan::seeded(17, 8, 3, 1_000_000, 9_000_000, None);
        let b = CrashPlan::seeded(17, 8, 3, 1_000_000, 9_000_000, None);
        assert_eq!(a, b);
        assert_eq!(a.crashes.len(), 3);
        let mut ranks: Vec<usize> = a.crashes.iter().map(|c| c.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        assert_eq!(ranks.len(), 3, "victims are distinct");
        for c in &a.crashes {
            assert!(c.at.as_ns() >= 1_000_000 && c.at.as_ns() < 9_000_000);
        }
        let other = CrashPlan::seeded(18, 8, 3, 1_000_000, 9_000_000, None);
        assert_ne!(a, other, "seed changes the schedule");
        // Schedule order is (time, rank), not probe order.
        for w in a.crashes.windows(2) {
            assert!((w[0].at, w[0].rank) <= (w[1].at, w[1].rank));
        }
    }

    #[test]
    fn seeded_crash_plan_always_leaves_a_survivor() {
        let p = CrashPlan::seeded(3, 4, 99, 0, 1_000, None);
        assert_eq!(p.crashes.len(), 3, "count capped at nranks - 1");
        assert_eq!(p.survivors(4).len(), 1);
    }

    #[test]
    fn successor_is_deterministic_and_survives() {
        let p = CrashPlan::none()
            .with_crash(1, 1_000, None)
            .with_crash(3, 2_000, Some(500));
        // Survivors of 6 ranks: 0, 2, 4, 5.
        assert_eq!(p.successor(1, 6), 2);
        assert_eq!(p.successor(3, 6), 5);
        for c in &p.crashes {
            let s = p.successor(c.rank, 6);
            assert!(p.crash_of(s).is_none(), "successor never crashes");
        }
    }

    #[test]
    #[should_panic(expected = "already has a scheduled crash")]
    fn duplicate_crash_rejected() {
        let _ = CrashPlan::none()
            .with_crash(0, 1, None)
            .with_crash(0, 2, None);
    }
}
