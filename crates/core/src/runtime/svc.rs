//! Runtime-owned services: the per-rank request ledger, the
//! exponential-backoff retry machinery with attempt-tagged dedup, and the
//! unified recovery counters — everything [`pull`](crate::pull) and
//! [`bsp`](crate::bsp) would otherwise hand-roll separately.
//!
//! A *tracked request* is a `(key, attempt)` pair: the key names the thing
//! being fetched (a read id, a batch id) and the attempt is a per-request
//! sequence number that distinguishes a retried reply from a stale
//! duplicate. The service stores everything needed to re-issue the
//! request verbatim — destination, wire size, payload — so strategies
//! never see the retry path at all.

use crate::driver::RunConfig;
use crate::machine::MachineConfig;
use gnb_sim::ckpt::{CkptParams, CkptStore};
use gnb_sim::fault::FaultPlan;
use gnb_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// How a run responds to a detected crash-stop peer failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CrashResponse {
    /// Survivors deterministically adopt the dead rank's shard: its
    /// designated successor restores the last checkpoint and replays the
    /// tail, and requests addressed to the dead rank retarget to the
    /// successor once the retry budget escalates to a death verdict. Every
    /// task still completes exactly once.
    #[default]
    Takeover,
    /// Graceful degradation: the dead shard is dropped. Requests to the
    /// dead rank are abandoned without counting as run failures, and the
    /// driver reports the coverage loss instead of an error.
    Degrade,
}

/// Recovery-machinery counters aggregated per rank (summed across ranks
/// by the driver). All zero on a reliable network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Requests re-issued after a timeout.
    pub retries: u64,
    /// Duplicate replies received and discarded.
    pub dup_replies: u64,
    /// Exchange rounds re-executed after a detected loss (collective
    /// strategies), summed over ranks.
    pub reissued_rounds: u64,
    /// Ownership takeovers: requests retargeted to a dead peer's successor
    /// plus shard adoptions performed by successors.
    pub takeovers: u64,
    /// Checkpoint restores performed during recovery.
    pub restores: u64,
    /// Tasks whose completion was recovered from a checkpoint (no replay
    /// needed) during takeover.
    pub recovered_tasks: u64,
}

impl RecoveryStats {
    /// Accumulates another rank's counters.
    pub fn absorb(&mut self, other: RecoveryStats) {
        self.retries += other.retries;
        self.dup_replies += other.dup_replies;
        self.reissued_rounds += other.reissued_rounds;
        self.takeovers += other.takeovers;
        self.restores += other.restores;
        self.recovered_tasks += other.recovered_tasks;
    }
}

/// Structured outcome of a retry budget running dry: the key that gave
/// up, after how many attempts. Surfaces as
/// [`crate::driver::RunError::RetryBudgetExhausted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryFailure {
    /// The request key (async: read id; BSP: round; aggregated: batch id).
    pub key: u64,
    /// Total attempts made (initial issue + retries).
    pub attempts: u32,
    /// The rank the final attempt was addressed to (BSP rounds: the
    /// giving-up rank itself).
    pub owner: usize,
    /// Whether that peer was crash-dead when the budget ran dry, as
    /// opposed to merely transiently faulty.
    pub crash_dead: bool,
}

/// Tunables the runtime needs from a [`RunConfig`] + machine pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// CPU cost of injecting one message (GASNet-EX style AM injection).
    pub inject: SimTime,
    /// CPU cost of servicing one request unit (one read lookup).
    pub service: SimTime,
    /// Whether the network can lose/duplicate/delay messages — arms the
    /// per-attempt retry timers.
    pub unreliable: bool,
    /// Base retry timeout (attempt 0); later attempts back off
    /// exponentially with jitter.
    pub backoff_base: SimTime,
    /// Backoff cap: no retry waits longer than this (plus jitter).
    pub backoff_max: SimTime,
    /// Retry budget per request / re-issue budget per exchange round.
    pub max_retries: u32,
    /// Jitter seed (from the fault config, so runs stay reproducible).
    pub fault_seed: u64,
    /// Crash-stop response policy (only consulted when the fault plan
    /// schedules crashes).
    pub crash_response: CrashResponse,
    /// Detection latency: how long after a crash its successor notices and
    /// starts the takeover.
    pub crash_detect: SimTime,
    /// Checkpoint cadence and I/O cost model.
    pub ckpt: CkptParams,
}

impl RuntimeConfig {
    /// Derives the runtime tunables from a run configuration.
    pub fn from_run(machine: &MachineConfig, cfg: &RunConfig) -> RuntimeConfig {
        RuntimeConfig {
            inject: SimTime::from_ns(machine.rpc_inject_ns),
            service: SimTime::from_ns(machine.rpc_service_ns),
            // Crashes make the wire unreliable too: a dead peer's replies
            // never come, and only an armed retry timer can notice.
            unreliable: cfg.fault.message_faults_possible() || !cfg.crash.is_empty(),
            backoff_base: SimTime::from_ns(cfg.rpc_timeout_ns),
            backoff_max: SimTime::from_ns(cfg.rpc_backoff_max_ns.max(cfg.rpc_timeout_ns)),
            max_retries: cfg.rpc_max_retries,
            fault_seed: cfg.fault.seed,
            crash_response: cfg.crash_response,
            crash_detect: SimTime::from_ns(cfg.crash_detect_ns),
            ckpt: cfg.ckpt,
        }
    }
}

/// One tracked request's stored state. Entries persist after completion
/// (with `arrived` set) so late duplicates are still recognised.
#[derive(Debug, Clone)]
pub(crate) struct PendingReq<Q> {
    /// Owner rank the request goes to.
    pub dst: usize,
    /// Request wire size, bytes (re-used verbatim on re-issue).
    pub bytes: u64,
    /// Current attempt number (stale-timer detection).
    pub attempt: u32,
    /// Whether the reply arrived (or the request was abandoned).
    pub arrived: bool,
    /// Request payload, cloned on re-issue.
    pub payload: Q,
}

/// The per-rank runtime service state. Owned by
/// [`RankRuntime`](super::RankRuntime); strategies reach it only through
/// the [`RtCtx`](super::RtCtx) surface.
#[derive(Debug)]
pub struct RuntimeSvc<Q> {
    pub(crate) cfg: RuntimeConfig,
    pub(crate) rank: usize,
    /// Fault plan consulted for collective-exchange losses (an inactive
    /// plan never fires). Message-level faults live in the engine.
    pub(crate) fault: Arc<FaultPlan>,
    /// Tracked requests by key.
    pub(crate) pending: BTreeMap<u64, PendingReq<Q>>,
    /// Unified recovery counters.
    pub(crate) counters: RecoveryStats,
    /// First retry-budget exhaustion, if any (the run is then incomplete
    /// and the driver reports a structured error).
    pub(crate) failed: Option<RetryFailure>,
    /// Shared stable-storage checkpoint store (None when no crashes are
    /// scheduled — crash-free runs take no checkpoints).
    pub(crate) ckpt_store: Option<Rc<RefCell<CkptStore>>>,
    /// This rank's monotone checkpoint epoch counter.
    pub(crate) ckpt_epoch: u64,
    /// Adoption timers armed at start that have not fired yet.
    pub(crate) adoptions_pending: usize,
}

impl<Q> RuntimeSvc<Q> {
    pub(crate) fn new(
        cfg: RuntimeConfig,
        rank: usize,
        fault: Arc<FaultPlan>,
        ckpt_store: Option<Rc<RefCell<CkptStore>>>,
    ) -> RuntimeSvc<Q> {
        RuntimeSvc {
            cfg,
            rank,
            fault,
            pending: BTreeMap::new(),
            counters: RecoveryStats::default(),
            failed: None,
            ckpt_store,
            ckpt_epoch: 0,
            adoptions_pending: 0,
        }
    }

    /// Backoff-with-jitter delay before giving up on `attempt` of the
    /// request for `key`.
    pub(crate) fn retry_delay(&self, key: u64, attempt: u32) -> SimTime {
        gnb_sim::backoff_delay(
            self.cfg.backoff_base,
            self.cfg.backoff_max,
            attempt,
            self.cfg.fault_seed ^ (self.rank as u64) << 32,
            key,
        )
    }

    /// Records the first retry-budget exhaustion.
    pub(crate) fn record_failure(
        &mut self,
        key: u64,
        attempts: u32,
        owner: usize,
        crash_dead: bool,
    ) {
        if self.failed.is_none() {
            self.failed = Some(RetryFailure {
                key,
                attempts,
                owner,
                crash_dead,
            });
        }
    }
}
