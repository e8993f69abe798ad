//! The coordination runtime: one rank-program shell shared by every
//! coordination strategy.
//!
//! The paper compares two coordination codes (BSP §3.1, async §3.2); its
//! §5 asks what sits between them. Before this module existed, each code
//! hand-rolled the same plumbing — typed message dispatch over the DES
//! [`Ctx`], exponential-backoff retry with attempt-tagged dedup, recovery
//! counter / [`TimeCategory`] ledger bookkeeping, race-detector state-key
//! instrumentation — so a third strategy meant a third copy of all of it.
//! Now the split is:
//!
//! * **runtime-owned** ([`RankRuntime`] + [`RuntimeSvc`]): the wire enum
//!   [`RtMsg`] and its dispatch; tracked-request issue / retry / give-up
//!   (timers armed through the never-faulted self-timer path); duplicate
//!   -reply suppression with per-attempt tags; the owner-side service
//!   cost; collective detect-and-reissue
//!   recovery; idle classification of the runtime's own events (replies
//!   → `Comm`, retry timers → `Recovery`); race keys for request state;
//!   the unified [`RecoveryStats`] / [`RetryFailure`] ledger.
//! * **strategy-owned** (a [`CoordinationStrategy`] impl): the protocol
//!   state machine — what to request when, how to serve a request, what
//!   to do with an arrived payload, when to enter barriers — plus
//!   classification of idle ended by its *own* events and memory-tracker
//!   calls for state it allocates.
//!
//! Strategies talk to the engine exclusively through [`RtCtx`], which
//! wraps the raw [`Ctx`] so application messages, tracked requests and
//! replies stay typed end to end.
//!
//! # Adding a strategy
//!
//! Implement [`CoordinationStrategy`] (see [`crate::agg_async`] for a
//! complete small example): pick an `App` message type for self-timers
//! and strategy-internal messages, a `Req`/`Rep` payload pair for tracked
//! requests, drive requests with [`RtCtx::send_tracked`], serve them with
//! [`RtCtx::serve_reply`], and let the runtime deliver `on_reply` /
//! `on_give_up`. Wrap it in [`RankRuntime::new`] and add an
//! [`crate::driver::Algorithm`] arm in the driver.

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
    /// idle classification of its own events.
    fn on_app(
        &mut self,
        rt: &mut RtCtx<'_, '_, Self::App, Self::Req, Self::Rep>,
        src: usize,
        msg: Self::App,
    ) {
        let _ = (rt, src, msg);
        // gnb-lint: allow(panic-path, reason = "default for strategies that declare no app messages; the protocol-contract pass forces overrides wherever such traffic is actually issued")
        unreachable!("strategy declared no app messages");
    }

    /// A tracked request arrived at this rank (owner side). Classify the
    /// idle gap, declare race keys for the state read, then answer with
    /// [`RtCtx::serve_reply`].
    fn on_request(
        &mut self,
        rt: &mut RtCtx<'_, '_, Self::App, Self::Req, Self::Rep>,
        src: usize,
        key: u64,
        attempt: u32,
        payload: Self::Req,
    ) {
        let _ = (rt, src, key, attempt, payload);
        // gnb-lint: allow(panic-path, reason = "default for strategies that issue no tracked requests; the protocol-contract pass forces overrides wherever send_tracked appears")
        unreachable!("strategy declared no tracked requests");
    }

    /// The (first) reply for tracked request `key` arrived. The runtime
    /// has already deduplicated, classified the idle gap as
    /// [`TimeCategory::Comm`] and marked the request complete.
    fn on_reply(
        &mut self,
        rt: &mut RtCtx<'_, '_, Self::App, Self::Req, Self::Rep>,
        key: u64,
        payload: Self::Rep,
    ) {
        let _ = (rt, key, payload);
        // gnb-lint: allow(panic-path, reason = "default for strategies that issue no tracked requests; the protocol-contract pass forces overrides wherever send_tracked appears")
        unreachable!("strategy declared no tracked requests");
    }

    /// Tracked request `key` exhausted its retry budget and was
    /// abandoned. The runtime has recorded the [`RetryFailure`]; the
    /// strategy must unwind its own accounting so the rank still reaches
    /// its exit barrier (the driver turns the failure into a structured
    /// error).
    fn on_give_up(&mut self, rt: &mut RtCtx<'_, '_, Self::App, Self::Req, Self::Rep>, key: u64) {
        let _ = (rt, key);
        // gnb-lint: allow(panic-path, reason = "default for strategies that issue no tracked requests; the protocol-contract pass forces overrides wherever send_tracked appears")
        unreachable!("strategy declared no tracked requests");
    }

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

    /// The as-yet-unclassified idle gap for this handler.
    pub fn idle_gap(&self) -> SimTime {
        self.ctx.idle_gap()
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

    /// Current allocation on this rank.
    pub fn mem_current(&self) -> u64 {
        self.ctx.mem_current()
    }

    /// Declares that this handler reads logical state `key` (race
    /// detector; see [`Ctx::race_read`]).
    pub fn race_read(&mut self, key: u64) {
        self.ctx.race_read(key);
    }

    /// Declares that this handler writes logical state `key`.
    pub fn race_write(&mut self, key: u64) {
        self.ctx.race_write(key);
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

    // ---- runtime services ----

    /// Whether the network can lose/duplicate/delay messages (strategies
    /// may batch differently on a reliable wire).
    pub fn unreliable(&self) -> bool {
        self.svc.cfg.unreliable
    }

    /// Unified recovery counters so far (this rank).
    pub fn recovery(&self) -> RecoveryStats {
        self.svc.counters
    }

    // ---- crash awareness and checkpointing ----

    /// The configured crash-stop response policy.
    pub fn crash_response(&self) -> CrashResponse {
        self.svc.cfg.crash_response
    }

    /// Whether `rank` is crash-dead at this rank's current virtual time.
    pub fn crashed_by_now(&self, rank: usize) -> bool {
        !self.svc.fault.crash.is_empty() && self.svc.fault.crash.crashed_by(rank, self.ctx.now())
    }

    /// The deterministic takeover successor of `dead`.
    pub fn successor_of(&self, dead: usize) -> usize {
        self.svc.fault.crash.successor(dead, self.ctx.nranks())
    }

    /// `owner` if alive for the whole run, else its takeover successor.
    /// Routing adopted re-fetches through this keeps them off ranks that
    /// will themselves die.
    pub fn effective_owner(&self, owner: usize) -> usize {
        if self.svc.fault.crash.crash_of(owner).is_some() {
            self.successor_of(owner)
        } else {
            owner
        }
    }

    /// Detection latency between a crash and its successor acting on it.
    pub fn crash_detect(&self) -> SimTime {
        self.svc.cfg.crash_detect
    }

    /// The crashes this rank is the designated successor for, as
    /// `(dead_rank, crash_time)` pairs in deterministic order. Empty when
    /// no crashes are scheduled or the response policy is
    /// [`CrashResponse::Degrade`].
    pub fn planned_adoptions(&self) -> Vec<(usize, SimTime)> {
        if self.svc.fault.crash.is_empty() || self.svc.cfg.crash_response != CrashResponse::Takeover
        {
            return Vec::new();
        }
        let me = self.svc.rank;
        let nranks = self.ctx.nranks();
        self.svc
            .fault
            .crash
            .crashes
            .iter()
            .filter(|c| self.svc.fault.crash.successor(c.rank, nranks) == me)
            .map(|c| (c.rank, c.at))
            .collect()
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
    pub fn ckpt_restore(&mut self, dead: usize) -> Option<Vec<u8>> {
        let store = self.svc.ckpt_store.as_ref()?;
        let bytes = store.borrow().latest(dead).map(|rec| rec.bytes.clone())?;
        let cost = self.svc.cfg.ckpt.io_cost(bytes.len());
        self.ctx.advance(cost, TimeCategory::Recovery);
        self.svc.counters.restores += 1;
        self.ctx.obs_instant(InstantKind::Restore, dead as u64);
        Some(bytes)
    }

    /// Records that this rank adopted dead rank `dead`'s shard.
    pub fn note_takeover(&mut self, dead: usize) {
        self.svc.counters.takeovers += 1;
        self.ctx.obs_instant(InstantKind::Takeover, dead as u64);
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

    /// Reply preamble: race key, attempt-tagged dedup, idle
    /// classification, arrival marking. Returns `true` when the strategy
    /// should see the payload.
    fn accept_reply(&mut self, key: u64) -> bool {
        // Reply receipt updates the request's arrival state; a duplicate
        // reply landing at the same virtual time as the original would be
        // resolved by queue tie-break alone — exactly what the race
        // detector exists to flag.
        self.ctx.race_write(key);
        let entry = self
            .svc
            .pending
            .get_mut(&key)
            // gnb-lint: allow(panic-path, reason = "pending entries outlive their wire traffic by construction: the engine only routes replies the send path registered")
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
    /// backoff, budget-exhaustion bookkeeping. Returns `true` when the
    /// request was abandoned and the strategy must unwind (`on_give_up`).
    fn expire(&mut self, key: u64, attempt: u32) -> bool {
        // Idle ended by a retry timer is time lost to (suspected) faults,
        // whatever the timer's fate below.
        self.ctx.classify_idle(TimeCategory::Recovery);
        // The stale-check below reads/writes the same arrival and attempt
        // state a reply writes: a timer firing at the very instant the
        // reply arrives is tie-break-resolved.
        self.ctx.race_write(key);
        let entry = self
            .svc
            .pending
            .get_mut(&key)
            // gnb-lint: allow(panic-path, reason = "pending entries outlive their timers by construction: every armed timer key was registered by the send path")
            .expect("timeout for a request this rank never issued");
        if entry.arrived || attempt != entry.attempt {
            // Stale timer: the reply arrived (or a newer attempt owns the
            // request). No-op, and crucially do NOT re-arm — completed
            // requests must not keep timers circulating in the queue.
            return false;
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
                        return false;
                    }
                    CrashResponse::Degrade => {
                        // Graceful degradation: abandon the request without
                        // recording a run failure — the strategy unwinds
                        // and the driver reports coverage loss instead.
                        entry.arrived = true;
                        self.ctx.obs_instant(InstantKind::GiveUp, key);
                        return true;
                    }
                }
            }
            // Retry budget exhausted: give up on this request so the run
            // terminates with a structured error instead of retrying (or
            // hanging) forever. The strategy unwinds; its tasks stay
            // undone, which the driver turns into
            // RunError::RetryBudgetExhausted.
            entry.arrived = true;
            self.svc.record_failure(key, attempt + 1, dst, false);
            self.ctx.obs_instant(InstantKind::GiveUp, key);
            return true;
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
        false
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
                if rt.expire(key, attempt) {
                    self.strategy.on_give_up(&mut rt, key);
                }
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
