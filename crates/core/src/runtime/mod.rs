//! The coordination runtime: one rank-program shell shared by every
//! coordination strategy.
//!
//! The paper compares two coordination codes (BSP §3.1, async §3.2); its
//! §5 asks what sits between them. Everything a strategy would otherwise
//! hand-roll to answer that lives here once, so a new strategy is a
//! protocol and nothing else. The split is:
//!
//! * **runtime-owned** ([`RankRuntime`] + [`RuntimeSvc`]): the wire enum
//!   [`RtMsg`] and its dispatch; tracked-request issue / retry / give-up
//!   (timers armed through the never-faulted self-timer path); duplicate
//!   -reply suppression with per-attempt tags; the owner-side service
//!   cost; collective detect-and-reissue recovery; **shard adoption** —
//!   arming one [`RtMsg::Adopt`] self-timer per crash this rank succeeds,
//!   before the strategy starts, and on expiry booking the gap, counting
//!   the takeover and reading the dead rank's checkpoint back; idle
//!   classification of the runtime's own events (replies → `Comm`, retry
//!   timers and adoptions → `Recovery`); race keys for request state; the
//!   unified [`RecoveryStats`] / [`RetryFailure`] ledger.
//! * **strategy-owned** (a [`CoordinationStrategy`] impl): the protocol
//!   state machine — what to request when, how to serve a request, what
//!   to do with an arrived payload, when to enter barriers, *when* to
//!   checkpoint and what the bytes mean, what to replay of an adopted
//!   shard ([`CoordinationStrategy::on_adopt`]) — plus classification of
//!   idle ended by its *own* events and memory-tracker calls for state it
//!   allocates.
//!
//! Strategies talk to the engine exclusively through [`RtCtx`], which
//! wraps the raw [`Ctx`] so application messages, tracked requests and
//! replies stay typed end to end.
//!
//! # Adding a strategy
//!
//! Two shapes. A new way to move reads under the pull protocol is a
//! [`crate::pull::WirePolicy`] (see [`crate::agg_async`] for a complete
//! small example): say how a wanted read reaches its owner, what the
//! owner looks up, and which groups a reply releases; window, polling,
//! checkpoints, adoption and exit come with [`crate::pull::PullStrategy`].
//! A new protocol implements [`CoordinationStrategy`] itself (see
//! [`crate::bsp`]): pick an `App` message type for self-timers and
//! strategy-internal messages ([`std::convert::Infallible`] for none), a
//! `Req`/`Rep` payload pair for tracked requests (again `Infallible` for
//! none), drive requests with [`RtCtx::send_tracked`], serve them with
//! [`RtCtx::serve_reply`], let the runtime deliver `on_reply` /
//! `on_give_up`, and replay an adopted shard in `on_adopt`. No hook has a
//! default body: a hook whose payload type is uninhabited is
//! `match payload {}`, which proves it cannot be called. Either way, wrap it in [`RankRuntime::new`] and
//! add an [`crate::driver::Algorithm`] arm in the driver.

mod svc;

pub use svc::{CrashResponse, RecoveryStats, RetryFailure, RuntimeConfig, RuntimeSvc};

use gnb_sim::ckpt::CkptStore;
use gnb_sim::engine::{Ctx, Program, TimeCategory};
use gnb_sim::fault::FaultPlan;
use gnb_sim::obs::InstantKind;
use gnb_sim::SimTime;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Base of the namespaced key range used for takeover re-fetches: a
/// successor re-requesting an adopted shard's remote read `r` (originally
/// owned by dead rank `d`) uses key `TAKEOVER_KEY_BASE + (d << 32) + r`,
/// so adopted requests can never collide with the original rank's keys
/// (plain read ids are `u32`, batch keys sit at `1 << 32`).
pub const TAKEOVER_KEY_BASE: u64 = 1 << 40;

// `d << 32` above assumes the takeover namespace starts at bit 40.
const _: () = assert!(
    TAKEOVER_KEY_BASE == 1 << 40,
    "the takeover namespace starts at 1 << 40"
);

/// The wire/event enum every runtime-hosted strategy runs over. `A` is
/// the strategy's own message type (polls, flush timers), `Q`/`P` the
/// tracked request/reply payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtMsg<A, Q, P> {
    /// A strategy-internal message or self-timer, dispatched verbatim to
    /// [`CoordinationStrategy::on_app`].
    App(A),
    /// A tracked request (issued by [`RtCtx::send_tracked`] or a runtime
    /// retry).
    Req {
        /// Request key (read id, batch id, ...).
        key: u64,
        /// Attempt sequence number (0 = first issue).
        attempt: u32,
        /// Strategy payload.
        payload: Q,
    },
    /// A reply to a tracked request (sent by [`RtCtx::serve_reply`]).
    Rep {
        /// Echo of the request key.
        key: u64,
        /// Echo of the request's attempt number.
        attempt: u32,
        /// Strategy payload.
        payload: P,
    },
    /// Runtime self-timer guarding one attempt of a tracked request. A
    /// timer whose attempt is no longer current — the reply arrived, the
    /// request was abandoned, or a newer retry superseded it — is stale:
    /// it no-ops and is *not* re-armed, so completed requests leak no
    /// timer events into the queue.
    Timeout {
        /// The request whose reply may have been lost.
        key: u64,
        /// The attempt this timer guards.
        attempt: u32,
    },
    /// Runtime self-timer: this rank is the deterministic successor of
    /// crashed rank `dead` and has just detected its death
    /// ([`RuntimeConfig::crash_detect`] after the crash). Armed at start
    /// for every scheduled crash this rank succeeds; dispatches to
    /// [`CoordinationStrategy::on_adopt`].
    Adopt {
        /// The crashed rank whose shard this rank adopts.
        dead: usize,
    },
}

/// Shorthand for the wire type of a strategy.
pub type StrategyMsg<S> = RtMsg<
    <S as CoordinationStrategy>::App,
    <S as CoordinationStrategy>::Req,
    <S as CoordinationStrategy>::Rep,
>;

/// A coordination strategy: the protocol state machine a rank runs,
/// hosted by [`RankRuntime`]. Only the protocol lives here — message
/// plumbing, retries, dedup and recovery accounting are runtime-owned.
pub trait CoordinationStrategy {
    /// Strategy-internal messages and self-timers.
    type App: Clone;
    /// Tracked-request payload (stored by the runtime, cloned on retry).
    type Req: Clone;
    /// Reply payload.
    type Rep: Clone;

    /// Called once at virtual time zero.
    fn on_start(&mut self, rt: &mut RtCtx<'_, '_, Self::App, Self::Req, Self::Rep>);

    /// A strategy message (or self-timer) arrived. The strategy owns the
    /// idle classification of its own events. A strategy with no
    /// messages declares `App` uninhabited and answers `match msg {}`.
    fn on_app(
        &mut self,
        rt: &mut RtCtx<'_, '_, Self::App, Self::Req, Self::Rep>,
        src: usize,
        msg: Self::App,
    );

    /// A tracked request arrived at this rank (owner side). Classify the
    /// idle gap, declare race keys for the state read, then answer with
    /// [`RtCtx::serve_reply`]. A strategy that issues no tracked requests
    /// declares `Req` and `Rep` uninhabited and answers
    /// `match payload {}` here and in the two hooks below.
    fn on_request(
        &mut self,
        rt: &mut RtCtx<'_, '_, Self::App, Self::Req, Self::Rep>,
        src: usize,
        key: u64,
        attempt: u32,
        payload: Self::Req,
    );

    /// The (first) reply for tracked request `key` arrived. The runtime
    /// has already deduplicated, classified the idle gap as
    /// [`TimeCategory::Comm`] and marked the request complete.
    fn on_reply(
        &mut self,
        rt: &mut RtCtx<'_, '_, Self::App, Self::Req, Self::Rep>,
        key: u64,
        payload: Self::Rep,
    );

    /// Tracked request `key` (issued with `payload`) exhausted its retry
    /// budget and was abandoned. The runtime has recorded the
    /// [`RetryFailure`]; the strategy must unwind its own accounting so
    /// the rank still reaches its exit barrier (the driver turns the
    /// failure into a structured error).
    fn on_give_up(
        &mut self,
        rt: &mut RtCtx<'_, '_, Self::App, Self::Req, Self::Rep>,
        key: u64,
        payload: Self::Req,
    );

    /// This rank adopts crashed rank `dead`'s shard. The runtime has
    /// booked the idle gap as [`TimeCategory::Recovery`], counted the
    /// takeover and read `dead`'s latest checkpoint — `ckpt`, `None` if it
    /// never completed one. The strategy replays whatever `ckpt` does not
    /// cover (as recovery work) and credits what it does cover with
    /// [`RtCtx::note_recovered`]. [`RtCtx::adoptions_pending`] no longer
    /// counts this adoption.
    fn on_adopt(
        &mut self,
        rt: &mut RtCtx<'_, '_, Self::App, Self::Req, Self::Rep>,
        dead: usize,
        ckpt: Option<Vec<u8>>,
    );

    /// A barrier this rank entered completed.
    fn on_barrier(&mut self, rt: &mut RtCtx<'_, '_, Self::App, Self::Req, Self::Rep>, id: u64);

    /// Tasks completed so far (driver verification).
    fn tasks_done(&self) -> u64;

    /// This rank's order-independent task checksum.
    fn checksum(&self) -> u64;
}

/// The strategy-facing engine surface: a typed wrapper over the DES
/// [`Ctx`] plus the runtime services.
pub struct RtCtx<'c, 'e, A, Q, P> {
    ctx: &'c mut Ctx<'e, RtMsg<A, Q, P>>,
    svc: &'c mut RuntimeSvc<Q>,
}

impl<'c, 'e, A: Clone, Q: Clone, P: Clone> RtCtx<'c, 'e, A, Q, P> {
    // ---- passthroughs to the DES context ----

    /// Current virtual time on this rank.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.ctx.rank()
    }

    /// Total number of ranks.
    pub fn nranks(&self) -> usize {
        self.ctx.nranks()
    }

    /// Consumes `dt` of CPU, booked under `cat` (see [`Ctx::advance`]).
    pub fn advance(&mut self, dt: SimTime, cat: TimeCategory) {
        self.ctx.advance(dt, cat);
    }

    /// Books the pending idle gap under `cat` (see [`Ctx::classify_idle`]).
    pub fn classify_idle(&mut self, cat: TimeCategory) {
        self.ctx.classify_idle(cat);
    }

    /// Enters barrier `id` (see [`Ctx::barrier_enter`]).
    pub fn barrier_enter(&mut self, id: u64) {
        self.ctx.barrier_enter(id);
    }

    /// Records `bytes` allocated on this rank.
    pub fn mem_alloc(&mut self, bytes: u64) {
        self.ctx.mem_alloc(bytes);
    }

    /// Records `bytes` freed on this rank.
    pub fn mem_free(&mut self, bytes: u64) {
        self.ctx.mem_free(bytes);
    }

    /// Declares that this handler reads logical state `key` (race
    /// detector; see [`Ctx::race_read`]).
    pub fn race_read(&mut self, key: u64) {
        self.ctx.race_read(key);
    }

    /// Sends a strategy message to `dst` through the network model.
    pub fn send_app(&mut self, dst: usize, bytes: u64, msg: A) {
        self.ctx.send(dst, bytes, RtMsg::App(msg));
    }

    /// Arms a strategy self-timer. Self-timers go straight to the event
    /// queue — per the fault-injection contract they are never dropped,
    /// duplicated or delayed, whatever the fault plan does to the wire.
    pub fn after_app(&mut self, delay: SimTime, msg: A) {
        self.ctx.after(delay, RtMsg::App(msg));
    }

    // ---- crash awareness and checkpointing ----

    /// `owner` if alive for the whole run, else its deterministic takeover
    /// successor. Routing adopted re-fetches through this keeps them off
    /// ranks that will themselves die.
    pub fn effective_owner(&self, owner: usize) -> usize {
        let crash = &self.svc.fault.crash;
        if crash.crash_of(owner).is_some() {
            crash.successor(owner, self.ctx.nranks())
        } else {
            owner
        }
    }

    /// Adoptions armed for this rank that have not fired yet. A strategy
    /// must not leave the run (enter its exit barrier) while this is
    /// non-zero: a dead peer's shard is still coming its way.
    pub fn adoptions_pending(&self) -> usize {
        self.svc.adoptions_pending
    }

    /// Whether periodic checkpointing is on (crashes scheduled and a
    /// store installed). Crash-free runs never checkpoint, so their
    /// traces and ledgers stay byte-identical to pre-checkpoint builds.
    pub fn ckpt_enabled(&self) -> bool {
        self.svc.ckpt_store.is_some() && !self.svc.fault.crash.is_empty()
    }

    /// The checkpoint cadence.
    pub fn ckpt_interval(&self) -> SimTime {
        SimTime::from_ns(self.svc.cfg.ckpt.interval_ns)
    }

    /// Writes `bytes` as this rank's next checkpoint epoch, booking the
    /// modelled stable-storage I/O as [`TimeCategory::Overhead`] (the
    /// fault-free cost of running with checkpoints on). No-op without a
    /// store.
    pub fn ckpt_save(&mut self, bytes: Vec<u8>) {
        let Some(store) = &self.svc.ckpt_store else {
            return;
        };
        let cost = self.svc.cfg.ckpt.io_cost(bytes.len());
        self.ctx.advance(cost, TimeCategory::Overhead);
        let epoch = self.svc.ckpt_epoch;
        self.svc.ckpt_epoch += 1;
        store
            .borrow_mut()
            .record(self.svc.rank, epoch, self.ctx.now(), bytes);
    }

    /// Reads `dead`'s latest checkpoint from stable storage, booking the
    /// I/O as [`TimeCategory::Recovery`] and emitting a
    /// [`InstantKind::Restore`] instant. `None` when the dead rank never
    /// completed a checkpoint (the successor then replays from scratch).
    fn ckpt_restore(&mut self, dead: usize) -> Option<Vec<u8>> {
        let store = self.svc.ckpt_store.as_ref()?;
        let bytes = store.borrow().latest(dead).map(|rec| rec.bytes.clone())?;
        let cost = self.svc.cfg.ckpt.io_cost(bytes.len());
        self.ctx.advance(cost, TimeCategory::Recovery);
        self.svc.counters.restores += 1;
        self.ctx.obs_instant(InstantKind::Restore, dead as u64);
        Some(bytes)
    }

    /// Records `n` task completions recovered from a checkpoint (work the
    /// takeover did *not* have to replay).
    pub fn note_recovered(&mut self, n: u64) {
        self.svc.counters.recovered_tasks += n;
    }

    /// Issues tracked request `key` to `dst`: books the injection CPU
    /// cost as [`TimeCategory::Overhead`], sends `bytes` on the wire and
    /// — iff the network is unreliable — arms the attempt-0 retry timer
    /// through the never-faulted self-timer path. The runtime stores
    /// `(dst, bytes, payload)` and re-issues verbatim on every timeout
    /// until the reply arrives or the retry budget
    /// ([`RuntimeConfig::max_retries`]) runs dry.
    ///
    /// # Panics
    /// Panics if `key` is already tracked: keys name requests for the
    /// whole run (late duplicate replies must stay recognisable).
    pub fn send_tracked(&mut self, key: u64, dst: usize, bytes: u64, payload: Q) {
        let prev = self.svc.pending.insert(
            key,
            svc::PendingReq {
                dst,
                bytes,
                attempt: 0,
                arrived: false,
                payload: payload.clone(),
            },
        );
        assert!(prev.is_none(), "tracked request key {key} re-used");
        self.issue(key, 0, dst, bytes, payload);
    }

    /// The shared issue path (initial sends and retries): injection CPU,
    /// the wire send, and the per-attempt retry timer. Retries re-book
    /// the whole path as recovery via a ledger scope.
    fn issue(&mut self, key: u64, attempt: u32, dst: usize, bytes: u64, payload: Q) {
        self.ctx
            .advance(self.svc.cfg.inject, TimeCategory::Overhead);
        let req = RtMsg::Req {
            key,
            attempt,
            payload,
        };
        if self.svc.cfg.unreliable {
            let delay = self.svc.retry_delay(key, attempt);
            self.ctx
                .send_with_timer(dst, bytes, req, delay, RtMsg::Timeout { key, attempt });
        } else {
            self.ctx.send(dst, bytes, req);
        }
    }

    /// Serves one tracked request (owner side): books `units` of service
    /// CPU — as [`TimeCategory::Recovery`] when the request is a retry,
    /// since servicing it again is fault-induced work — and ships `bytes`
    /// of reply back to `src`.
    /// Declare the race keys of the state being read *before* calling.
    pub fn serve_reply(
        &mut self,
        src: usize,
        key: u64,
        attempt: u32,
        bytes: u64,
        units: u64,
        payload: P,
    ) {
        let cat = if attempt > 0 {
            TimeCategory::Recovery
        } else {
            TimeCategory::Overhead
        };
        self.ctx
            .advance(SimTime::from_ns(self.svc.cfg.service.as_ns() * units), cat);
        self.ctx.send(
            src,
            bytes,
            RtMsg::Rep {
                key,
                attempt,
                payload,
            },
        );
    }

    /// Runs one collective exchange with superstep-level detect-and-
    /// reissue recovery: the exchange itself is booked as visible
    /// communication; every re-execution after a detected loss (the
    /// fault plan's verdict is rank-independent, so all ranks re-execute
    /// together without extra coordination) is booked as recovery.
    /// Returns `false` — with the [`RetryFailure`] recorded — when the
    /// re-issue budget runs dry and the round's data never arrives.
    pub fn collective_exchange(&mut self, round: u64, comm: SimTime) -> bool {
        self.ctx.advance(comm, TimeCategory::Comm);
        let mut attempt = 0u32;
        while self.svc.fault.bsp_round_lost(round, attempt) {
            if attempt >= self.svc.cfg.max_retries {
                self.svc
                    .record_failure(round, attempt + 1, self.svc.rank, false);
                self.ctx.obs_instant(InstantKind::GiveUp, round);
                return false;
            }
            attempt += 1;
            self.svc.counters.reissued_rounds += 1;
            self.ctx.obs_instant(InstantKind::Retry, round);
            self.ctx.advance(comm, TimeCategory::Recovery);
        }
        true
    }

    // ---- runtime-internal dispatch (called by RankRuntime) ----

    /// Arms one [`RtMsg::Adopt`] self-timer per scheduled crash this rank
    /// is the designated successor of, `crash_detect` after the death.
    /// Arms nothing when no crashes are scheduled or the response policy
    /// is [`CrashResponse::Degrade`], so such runs stay event-for-event
    /// identical to crash-unaware ones.
    fn arm_adoptions(&mut self) {
        let crash = &self.svc.fault.crash;
        if crash.is_empty() || self.svc.cfg.crash_response != CrashResponse::Takeover {
            return;
        }
        let nranks = self.ctx.nranks();
        for c in &crash.crashes {
            if crash.successor(c.rank, nranks) == self.svc.rank {
                self.svc.adoptions_pending += 1;
                self.ctx.after(
                    c.at + self.svc.cfg.crash_detect,
                    RtMsg::Adopt { dead: c.rank },
                );
            }
        }
    }

    /// Adoption preamble: idle ended by the adoption timer is recovery,
    /// like the replay that follows; the takeover is counted and `dead`'s
    /// latest checkpoint read back for the strategy.
    fn adopt(&mut self, dead: usize) -> Option<Vec<u8>> {
        self.ctx.classify_idle(TimeCategory::Recovery);
        self.svc.adoptions_pending -= 1;
        self.svc.counters.takeovers += 1;
        self.ctx.obs_instant(InstantKind::Takeover, dead as u64);
        self.ckpt_restore(dead)
    }

    /// Reply preamble: race key, attempt-tagged dedup, idle
    /// classification, arrival marking. Returns `true` when the strategy
    /// should see the payload.
    fn accept_reply(&mut self, key: u64) -> bool {
        // Reply receipt updates the request's arrival state; a duplicate
        // reply landing at the same virtual time as the original would be
        // resolved by queue tie-break alone — exactly what the race
        // detector exists to flag.
        self.ctx.race_write(key);
        #[expect(
            clippy::expect_used,
            reason = "pending entries outlive their wire traffic by construction: the engine only routes replies the send path registered"
        )]
        let entry = self
            .svc
            .pending
            .get_mut(&key)
            .expect("reply for a request this rank never issued");
        if entry.arrived {
            // Duplicate: a wire-duplicated copy or a retry that raced the
            // original reply. The AM handler still ran — book its cost as
            // recovery and discard. Any attempt number is acceptable: the
            // payload is the same.
            self.svc.counters.dup_replies += 1;
            self.ctx.obs_instant(InstantKind::DupReply, key);
            self.ctx.classify_idle(TimeCategory::Recovery);
            self.ctx
                .advance(self.svc.cfg.service, TimeCategory::Recovery);
            return false;
        }
        // Idle that a reply terminates is unhidden communication.
        self.ctx.classify_idle(TimeCategory::Comm);
        entry.arrived = true;
        true
    }

    /// Timeout dispatch: stale-timer detection, retry re-issue with
    /// backoff, budget-exhaustion bookkeeping. Returns the request's
    /// payload when it was abandoned and the strategy must unwind
    /// (`on_give_up`).
    fn expire(&mut self, key: u64, attempt: u32) -> Option<Q> {
        // Idle ended by a retry timer is time lost to (suspected) faults,
        // whatever the timer's fate below.
        self.ctx.classify_idle(TimeCategory::Recovery);
        // The stale-check below reads/writes the same arrival and attempt
        // state a reply writes: a timer firing at the very instant the
        // reply arrives is tie-break-resolved.
        self.ctx.race_write(key);
        #[expect(
            clippy::expect_used,
            reason = "pending entries outlive their timers by construction: every armed timer key was registered by the send path"
        )]
        let entry = self
            .svc
            .pending
            .get_mut(&key)
            .expect("timeout for a request this rank never issued");
        if entry.arrived || attempt != entry.attempt {
            // Stale timer: the reply arrived (or a newer attempt owns the
            // request). No-op, and crucially do NOT re-arm — completed
            // requests must not keep timers circulating in the queue.
            return None;
        }
        if attempt >= self.svc.cfg.max_retries {
            let dst = entry.dst;
            // Budget escalation doubles as the failure detector: only a
            // peer that is actually crash-dead at this rank's clock gets
            // the crash-stop verdict; a transiently-faulty live peer still
            // produces a structured run error below.
            let crash_dead = !self.svc.fault.crash.is_empty()
                && self.svc.fault.crash.crashed_by(dst, self.ctx.now());
            if crash_dead {
                match self.svc.cfg.crash_response {
                    CrashResponse::Takeover => {
                        // Ownership takeover: retarget the request at the
                        // dead rank's deterministic successor with a fresh
                        // attempt budget. All prior timers for this key
                        // have fired (attempts are sequential) and any
                        // reply from the dead rank was doomed by the
                        // engine, so resetting the attempt tag is safe.
                        let succ = self.svc.fault.crash.successor(dst, self.ctx.nranks());
                        entry.dst = succ;
                        entry.attempt = 0;
                        let (bytes, payload) = (entry.bytes, entry.payload.clone());
                        self.svc.counters.takeovers += 1;
                        self.ctx.obs_instant(InstantKind::Takeover, key);
                        let prev = self.ctx.ledger_scope(Some(TimeCategory::Recovery));
                        self.issue(key, 0, succ, bytes, payload);
                        self.ctx.ledger_scope(prev);
                        return None;
                    }
                    CrashResponse::Degrade => {
                        // Graceful degradation: abandon the request without
                        // recording a run failure — the strategy unwinds
                        // and the driver reports coverage loss instead.
                        entry.arrived = true;
                        self.ctx.obs_instant(InstantKind::GiveUp, key);
                        return Some(entry.payload.clone());
                    }
                }
            }
            // Retry budget exhausted: give up on this request so the run
            // terminates with a structured error instead of retrying (or
            // hanging) forever. The strategy unwinds; its tasks stay
            // undone, which the driver turns into
            // RunError::RetryBudgetExhausted.
            entry.arrived = true;
            let payload = entry.payload.clone();
            self.svc.record_failure(key, attempt + 1, dst, false);
            self.ctx.obs_instant(InstantKind::GiveUp, key);
            return Some(payload);
        }
        // Reply presumed lost: re-issue with the next attempt number and
        // arm a fresh (backed-off) timer for it. The whole path — the
        // injection cost send_tracked books as overhead — is recovery
        // work here, so it runs under a ledger scope.
        let next = attempt + 1;
        entry.attempt = next;
        self.svc.counters.retries += 1;
        self.ctx.obs_instant(InstantKind::Retry, key);
        let (dst, bytes, payload) = (entry.dst, entry.bytes, entry.payload.clone());
        let prev = self.ctx.ledger_scope(Some(TimeCategory::Recovery));
        self.issue(key, next, dst, bytes, payload);
        self.ctx.ledger_scope(prev);
        None
    }
}

/// The rank program shell: hosts one [`CoordinationStrategy`] over the
/// runtime services and implements the DES [`Program`] for it.
pub struct RankRuntime<S: CoordinationStrategy> {
    strategy: S,
    svc: RuntimeSvc<S::Req>,
}

impl<S: CoordinationStrategy> RankRuntime<S> {
    /// Hosts `strategy` on rank `rank`. `fault` feeds collective-exchange
    /// detect-and-reissue ([`RtCtx::collective_exchange`]) and carries the
    /// crash schedule (message-level faults live in the engine; an
    /// inactive plan never fires); `ckpt_store` is the shared
    /// stable-storage checkpoint store, `None` when no crashes are
    /// scheduled.
    pub fn new(
        strategy: S,
        rank: usize,
        cfg: RuntimeConfig,
        fault: Arc<FaultPlan>,
        ckpt_store: Option<Rc<RefCell<CkptStore>>>,
    ) -> RankRuntime<S> {
        RankRuntime {
            strategy,
            svc: RuntimeSvc::new(cfg, rank, fault, ckpt_store),
        }
    }

    /// The hosted strategy.
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// Tasks completed by the hosted strategy.
    pub fn tasks_done(&self) -> u64 {
        self.strategy.tasks_done()
    }

    /// The hosted strategy's task checksum.
    pub fn checksum(&self) -> u64 {
        self.strategy.checksum()
    }

    /// Unified recovery counters (this rank).
    pub fn recovery(&self) -> RecoveryStats {
        self.svc.counters
    }

    /// First retry-budget exhaustion, if any.
    pub fn failure(&self) -> Option<RetryFailure> {
        self.svc.failed
    }
}

impl<S: CoordinationStrategy> Program<StrategyMsg<S>> for RankRuntime<S> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, StrategyMsg<S>>) {
        let mut rt = RtCtx {
            ctx,
            svc: &mut self.svc,
        };
        rt.arm_adoptions();
        self.strategy.on_start(&mut rt);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, StrategyMsg<S>>, src: usize, msg: StrategyMsg<S>) {
        let mut rt = RtCtx {
            ctx,
            svc: &mut self.svc,
        };
        match msg {
            RtMsg::App(m) => self.strategy.on_app(&mut rt, src, m),
            RtMsg::Req {
                key,
                attempt,
                payload,
            } => self
                .strategy
                .on_request(&mut rt, src, key, attempt, payload),
            RtMsg::Rep {
                key,
                attempt: _,
                payload,
            } => {
                if rt.accept_reply(key) {
                    self.strategy.on_reply(&mut rt, key, payload);
                }
            }
            RtMsg::Timeout { key, attempt } => {
                if let Some(payload) = rt.expire(key, attempt) {
                    self.strategy.on_give_up(&mut rt, key, payload);
                }
            }
            RtMsg::Adopt { dead } => {
                let ckpt = rt.adopt(dead);
                self.strategy.on_adopt(&mut rt, dead, ckpt);
            }
        }
    }

    fn on_barrier(&mut self, ctx: &mut Ctx<'_, StrategyMsg<S>>, id: u64) {
        let mut rt = RtCtx {
            ctx,
            svc: &mut self.svc,
        };
        self.strategy.on_barrier(&mut rt, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::RunConfig;
    use crate::machine::MachineConfig;
    use gnb_sim::fault::CrashPlan;
    use gnb_sim::Engine;
    use std::convert::Infallible;

    /// What a strategy can see of the adoption contract.
    #[derive(Default)]
    struct Probe {
        pending_at_start: usize,
        /// `(now, dead, checkpoint present, pending inside the hook)`.
        adoptions: Vec<(SimTime, usize, bool, usize)>,
    }

    type PCtx<'c, 'e> = RtCtx<'c, 'e, Infallible, Infallible, Infallible>;

    impl CoordinationStrategy for Probe {
        type App = Infallible;
        type Req = Infallible;
        type Rep = Infallible;

        fn on_start(&mut self, rt: &mut PCtx<'_, '_>) {
            self.pending_at_start = rt.adoptions_pending();
        }

        fn on_app(&mut self, _rt: &mut PCtx<'_, '_>, _src: usize, msg: Infallible) {
            match msg {}
        }

        fn on_request(
            &mut self,
            _rt: &mut PCtx<'_, '_>,
            _src: usize,
            _key: u64,
            _attempt: u32,
            payload: Infallible,
        ) {
            match payload {}
        }

        fn on_reply(&mut self, _rt: &mut PCtx<'_, '_>, _key: u64, payload: Infallible) {
            match payload {}
        }

        fn on_give_up(&mut self, _rt: &mut PCtx<'_, '_>, _key: u64, payload: Infallible) {
            match payload {}
        }

        fn on_adopt(&mut self, rt: &mut PCtx<'_, '_>, dead: usize, ckpt: Option<Vec<u8>>) {
            let seen = (rt.now(), dead, ckpt.is_some(), rt.adoptions_pending());
            self.adoptions.push(seen);
        }

        fn on_barrier(&mut self, _rt: &mut PCtx<'_, '_>, _id: u64) {}

        fn tasks_done(&self) -> u64 {
            0
        }

        fn checksum(&self) -> u64 {
            0
        }
    }

    #[test]
    fn runtime_arms_and_dispatches_adoption() {
        let machine = MachineConfig::cori_knl(1).with_cores_per_node(2);
        let cfg = RunConfig {
            crash: CrashPlan::none().with_crash(0, 5_000, None),
            crash_detect_ns: 300,
            ..RunConfig::default()
        };
        let plan = Arc::new(FaultPlan::default().with_crashes(cfg.crash.clone()));
        let rt_cfg = RuntimeConfig::from_run(&machine, &cfg);
        let mut progs: Vec<RankRuntime<Probe>> = (0..2)
            .map(|r| RankRuntime::new(Probe::default(), r, rt_cfg, Arc::clone(&plan), None))
            .collect();
        Engine::new(2, machine.net)
            .with_faults(FaultPlan::clone(&plan))
            .run(&mut progs);
        // Rank 1 succeeds rank 0: armed before its `on_start`, fired once
        // at death + detection, no checkpoint to restore, nothing pending
        // inside the hook.
        let (dead, succ) = (progs[0].strategy(), progs[1].strategy());
        assert_eq!(dead.pending_at_start, 0);
        assert!(dead.adoptions.is_empty());
        assert_eq!(succ.pending_at_start, 1);
        assert_eq!(succ.adoptions, [(SimTime::from_ns(5_300), 0, false, 0)]);
        let counters = progs[1].recovery();
        assert_eq!((counters.takeovers, counters.restores), (1, 0));
    }
}
