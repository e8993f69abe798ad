//! Experiment driver: runs a fixed workload under either coordination code
//! on a simulated machine and extracts the paper's measurement set.

use crate::agg_async::AggAsyncStrategy;
use crate::async_alg::{plan_async, AsyncStrategy};
use crate::breakdown::RuntimeBreakdown;
use crate::bsp::{plan_bsp, BspStrategy};
use crate::cost::CostModel;
use crate::machine::MachineConfig;
use crate::runtime::{CoordinationStrategy, RankRuntime, RuntimeConfig};
pub use crate::runtime::{CrashResponse, RecoveryStats};
use crate::workload::SimWorkload;
use gnb_sim::ckpt::{CkptParams, CkptStore};
use gnb_sim::engine::SimReport;
use gnb_sim::fault::{CrashPlan, FaultConfig, FaultPlan, FaultStats};
use gnb_sim::race::RaceDetector;
use gnb_sim::{Engine, SimTime, TieBreak};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Which coordination code to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algorithm {
    /// Bulk-synchronous (paper §3.1).
    Bsp,
    /// Asynchronous (paper §3.2).
    Async,
    /// Asynchronous with destination-coalesced request/reply batches
    /// (the §5 middle ground; [`crate::agg_async`]).
    AggAsync,
}

impl Algorithm {
    /// All strategies, in the order experiment sweeps emit them.
    pub const ALL: [Algorithm; 3] = [Algorithm::Bsp, Algorithm::Async, Algorithm::AggAsync];
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algorithm::Bsp => write!(f, "BSP"),
            Algorithm::Async => write!(f, "Async"),
            Algorithm::AggAsync => write!(f, "AggAsync"),
        }
    }
}

/// Tunables of a run (costs, RPC window, per-store overheads).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Per-task alignment cost model (set `cost.skip_compute` for the
    /// Fig. 7 communication-only mode).
    pub cost: CostModel,
    /// Outstanding-request window of the async code.
    pub rpc_window: usize,
    /// Request message size, bytes.
    pub req_bytes: u64,
    /// Aggregation threshold of [`Algorithm::AggAsync`]: a per-owner
    /// batch ships when it holds this many reads.
    pub agg_batch: usize,
    /// Flush timeout of [`Algorithm::AggAsync`], ns: no read waits in a
    /// pending batch longer than this (plus deterministic jitter) before
    /// the batch ships anyway.
    pub agg_flush_ns: u64,
    /// Flat-array traversal + kernel invocation overhead per task (BSP),
    /// ns on a simulated core.
    pub overhead_ns_per_task_bsp: u64,
    /// Pointer-based-store traversal + invocation overhead per task
    /// (async), ns. Higher than BSP per §4.6 / Fig. 13.
    pub overhead_ns_per_task_async: u64,
    /// OS-noise amplitude: per-rank multiplicative compute inflation in
    /// `[0, os_noise]`, deterministic per rank. Zero when 4 cores per node
    /// are dedicated to system-overhead isolation (the paper's default);
    /// positive for the 68-core runs of Fig. 3, where the isolation is
    /// given up and "the slight improvement in computation time is
    /// cancelled-out by a slight increase in overheads".
    pub os_noise: f64,
    /// Requester-side base retry timeout for outstanding RPCs, ns. Armed
    /// whenever the network is unreliable (message faults in
    /// [`Self::fault`], or crashes in [`Self::crash`]); later attempts back
    /// off exponentially with deterministic jitter.
    pub rpc_timeout_ns: u64,
    /// Backoff cap, ns: no retry waits longer than this (plus jitter).
    pub rpc_backoff_max_ns: u64,
    /// Retry budget per request / re-issue budget per BSP round. When a
    /// request exhausts it the run ends with
    /// [`RunError::RetryBudgetExhausted`] instead of hanging.
    pub rpc_max_retries: u32,
    /// Deterministic fault-injection recipe (inactive by default: a
    /// reliable network — GASNet-EX "ensures read requests and callbacks
    /// are delivered, under the usual assumptions about the network").
    /// `fault.drop_prob` is the one way to lose a message and stress the
    /// requester's timeout/retry path.
    pub fault: FaultConfig,
    /// Crash-stop schedule: ranks killed at fixed virtual times
    /// ([`CrashPlan::none`] by default — a crash-free plan leaves every
    /// run byte-identical to one with no plan at all).
    pub crash: CrashPlan,
    /// What survivors do about a detected crash: deterministic ownership
    /// takeover (exactly-once completion) or graceful degradation
    /// (coverage loss reported via [`RunResult::lost_tasks`]).
    pub crash_response: CrashResponse,
    /// Crash-detection latency, ns: how long after a crash its designated
    /// successor notices and starts adopting the dead shard.
    pub crash_detect_ns: u64,
    /// Checkpoint cadence and modelled stable-storage I/O cost. Consulted
    /// only when [`Self::crash`] schedules crashes.
    pub ckpt: CkptParams,
    /// Memory-overhead factor of the BSP exchange: a round moving R bytes
    /// of reads needs ≈ `factor × R` of memory (send-side staging, receive
    /// buffers, MPI internals, unpacking copies — the paper's "challenge
    /// of working dataset size explosion and managing memory for
    /// communication"). Determines how much of the per-core budget one
    /// round may use, and hence the superstep count.
    pub bsp_exchange_overhead: f64,
    /// Fraction of that factor that is resident simultaneously (tracked as
    /// the footprint a job log would see).
    pub bsp_buffer_factor: f64,
    /// Enable the virtual-time race detector
    /// ([`gnb_sim::race::RaceDetector`]): instrumented handlers declare
    /// the state keys they touch, and same-rank same-virtual-time
    /// conflicts (whose resolution depends on event-queue tie-breaking)
    /// surface in [`RunResult::races`]. Off by default — detection does
    /// not perturb the timeline, but the record buffer costs memory.
    pub detect_races: bool,
    /// Equal-time event ordering. [`TieBreak::Fifo`] is the engine
    /// contract; [`TieBreak::Lifo`] reverses equal-time order and exists
    /// for perturbation-replay determinism tests: fault-free results must
    /// not change under it.
    pub tie_break: TieBreak,
    /// Enable the structured observability recorder
    /// ([`gnb_sim::obs::Obs`]): typed dispatch nodes with causal edges,
    /// busy spans, recovery instants and virtual-time metric series,
    /// surfaced in [`RunResult::obs`] for Perfetto export, critical-path
    /// profiling and the `gnb_trace::timeline` view. Off by default —
    /// recording does not perturb the timeline (pinned by
    /// `tests/observer_invariance.rs`), but the record buffers cost memory.
    pub obs: bool,
    /// Accepted and ignored. The sharded engine mode this once selected
    /// is gone (DESIGN.md "Why the DES has one mode"); every value yields
    /// the byte-identical report the field always promised (pinned by
    /// `tests/parallel_equivalence.rs`). Kept only because the fenced
    /// benchmark names it, until the code change that follows ROADMAP
    /// item 2's fence clearing removes it.
    pub threads: usize,
}

/// Conflict records kept when [`RunConfig::detect_races`] is set.
const RACE_CAPACITY: usize = 4096;

/// Deterministic per-rank OS-noise factor in `[1, 1 + amplitude]`.
pub fn os_noise_factor(rank: usize, amplitude: f64) -> f64 {
    if amplitude == 0.0 {
        return 1.0;
    }
    let mut z = (rank as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    1.0 + amplitude * ((z >> 11) as f64 / (1u64 << 53) as f64)
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            cost: CostModel::default(),
            // Deep enough to ride out reply bursts behind a shared NIC at
            // small scale, finite enough that ranks with few remote reads
            // (large node counts) still expose some fill latency — as the
            // paper's async code does (<7% visible at 8K cores, Fig. 8).
            // ~128 x 11 kb replies is only ~1.4 MB of buffer (Fig. 11).
            // expt_window sweeps this parameter.
            rpc_window: 128,
            req_bytes: 64,
            // Deep enough to amortize the per-message α over a useful
            // batch, small enough that the first flush happens well before
            // the window drains (expt_f07's crossover region is the
            // target). 25 µs keeps a sub-threshold tail's extra latency
            // under one per-task overhead.
            agg_batch: 16,
            agg_flush_ns: 25_000,
            overhead_ns_per_task_bsp: 20_000,
            overhead_ns_per_task_async: 45_000,
            os_noise: 0.0,
            rpc_timeout_ns: 20_000_000,      // 20 ms base
            rpc_backoff_max_ns: 320_000_000, // 16x the base
            rpc_max_retries: 8,
            fault: FaultConfig::default(),
            crash: CrashPlan::none(),
            crash_response: CrashResponse::Takeover,
            crash_detect_ns: 50_000_000, // 50 ms: a few retry backoffs
            ckpt: CkptParams::default(),
            bsp_exchange_overhead: 3.5,
            bsp_buffer_factor: 2.0,
            detect_races: false,
            tie_break: TieBreak::Fifo,
            obs: false,
            threads: 1,
        }
    }
}

/// Longest span one [`RunConfig`] duration may ask for: 1,000 s of virtual
/// time, about 3,000 times the largest default (the 320 ms backoff cap).
/// Per-task overheads summed over a rank's tasks then stay far below the
/// 584 years a `u64` of nanoseconds holds.
const MAX_SPAN_NS: u64 = 1_000_000_000_000;
/// Largest request header, bytes (1 GiB).
const MAX_REQ_BYTES: u64 = 1 << 30;
/// Largest OS-noise amplitude: compute at most 11× slower.
const MAX_OS_NOISE: f64 = 10.0;
/// Largest BSP memory-overhead factor.
const MAX_BSP_FACTOR: f64 = 1_000.0;
/// [`MAX_SPAN_NS`] in the milliseconds the stall fields use.
const MAX_SPAN_MS: u64 = MAX_SPAN_NS / 1_000_000;
/// Latest millisecond a straggler window may name: the "whole run"
/// default, `u64::MAX` nanoseconds.
const MAX_WINDOW_MS: u64 = u64::MAX / 1_000_000;
/// Largest straggler slowdown: compute at most 1,000× slower.
const MAX_STRAGGLER_FACTOR: f64 = 1_000.0;
/// Largest per-task cell count of the cost model, about 5·10⁵ times the
/// default false positive.
const MAX_TASK_CELLS: f64 = 1e9;
/// Largest cell count per overlapping base, about 250 times the default.
const MAX_CELLS_PER_BP: f64 = 1e4;
/// Shortest checkpoint interval, 1 ms: a shorter one floods the queue
/// with checkpoint timers (zero never lets the run end).
const MIN_CKPT_INTERVAL_NS: u64 = 1_000_000;

impl RunConfig {
    /// Checks every scalar field against the range the simulator can
    /// model, so that an absurd value is a typed error instead of an
    /// arithmetic overflow (a panic in debug builds, a silently wrong
    /// timeline in release builds), a panic in the engine, or a run that
    /// never ends. `nranks` is the machine's rank count, which the crash
    /// plan must stay within.
    fn validate(&self, nranks: usize) -> Result<(), RunError> {
        let span = |ns: u64| ns <= MAX_SPAN_NS;
        let prob = |p: f64| (0.0..=1.0).contains(&p);
        let (f, c, k) = (&self.fault, &self.cost, &self.ckpt);
        let crashes = &self.crash.crashes;
        let crash_time = |t: SimTime| span(t.as_ns());
        const SPAN: &str = "at most 10^12 ns (1,000 s)";
        const PROB: &str = "a probability in [0, 1]";
        const CELLS: &str = "a finite cell count in [0, 10^9]";
        let checks = [
            ("agg_flush_ns", span(self.agg_flush_ns), SPAN),
            (
                "overhead_ns_per_task_bsp",
                span(self.overhead_ns_per_task_bsp),
                SPAN,
            ),
            (
                "overhead_ns_per_task_async",
                span(self.overhead_ns_per_task_async),
                SPAN,
            ),
            ("rpc_timeout_ns", span(self.rpc_timeout_ns), SPAN),
            ("rpc_backoff_max_ns", span(self.rpc_backoff_max_ns), SPAN),
            ("crash_detect_ns", span(self.crash_detect_ns), SPAN),
            (
                "req_bytes",
                self.req_bytes <= MAX_REQ_BYTES,
                "at most 2^30 bytes",
            ),
            (
                "os_noise",
                (0.0..=MAX_OS_NOISE).contains(&self.os_noise),
                "a finite amplitude in [0, 10]",
            ),
            (
                "bsp_exchange_overhead",
                (0.0..=MAX_BSP_FACTOR).contains(&self.bsp_exchange_overhead),
                "a finite factor in [0, 1000]",
            ),
            (
                "bsp_buffer_factor",
                (0.0..=MAX_BSP_FACTOR).contains(&self.bsp_buffer_factor),
                "a finite factor in [0, 1000]",
            ),
            ("fault.drop_prob", prob(f.drop_prob), PROB),
            ("fault.dup_prob", prob(f.dup_prob), PROB),
            ("fault.delay_prob", prob(f.delay_prob), PROB),
            (
                "fault.bsp_round_drop_prob",
                prob(f.bsp_round_drop_prob),
                PROB,
            ),
            ("fault.delay_ns", span(f.delay_ns), SPAN),
            (
                "fault.straggler_factor",
                (0.0..=MAX_STRAGGLER_FACTOR).contains(&f.straggler_factor),
                "a finite factor in [0, 1000]",
            ),
            (
                "fault.straggler_start_ms",
                f.straggler_start_ms <= MAX_WINDOW_MS,
                "at most u64::MAX / 10^6 ms",
            ),
            (
                "fault.straggler_end_ms",
                f.straggler_end_ms <= MAX_WINDOW_MS,
                "at most u64::MAX / 10^6 ms",
            ),
            (
                "fault.stall_at_ms",
                f.stall_at_ms <= MAX_SPAN_MS,
                "at most 10^6 ms (1,000 s)",
            ),
            (
                "fault.stall_ms",
                f.stall_ms <= MAX_SPAN_MS,
                "at most 10^6 ms (1,000 s)",
            ),
            (
                "crash",
                crashes.iter().all(|c| c.rank < nranks),
                "crashes of ranks below the machine's rank count",
            ),
            (
                "crash",
                crashes
                    .iter()
                    .all(|c| crash_time(c.at) && c.rebirth.is_none_or(crash_time)),
                "crash and rebirth times of at most 10^12 ns (1,000 s)",
            ),
            (
                "crash",
                self.crash_response != CrashResponse::Takeover
                    || !self.crash.survivors(nranks).is_empty(),
                "a plan that leaves a rank to take over",
            ),
            (
                "ckpt.interval_ns",
                (MIN_CKPT_INTERVAL_NS..=MAX_SPAN_NS).contains(&k.interval_ns),
                "in [10^6, 10^12] ns (1 ms to 1,000 s)",
            ),
            ("ckpt.base_ns", span(k.base_ns), SPAN),
            ("ckpt.per_kib_ns", span(k.per_kib_ns), SPAN),
            (
                "cost.fp_cells",
                (0.0..=MAX_TASK_CELLS).contains(&c.fp_cells),
                CELLS,
            ),
            (
                "cost.base_cells",
                (0.0..=MAX_TASK_CELLS).contains(&c.base_cells),
                CELLS,
            ),
            (
                "cost.cells_per_overlap_bp",
                (0.0..=MAX_CELLS_PER_BP).contains(&c.cells_per_overlap_bp),
                "a finite rate in [0, 10^4]",
            ),
            (
                "cost.jitter",
                (0.0..=1.0).contains(&c.jitter),
                "an amplitude in [0, 1]",
            ),
        ];
        match checks.iter().find(|&&(_, ok, _)| !ok) {
            Some(&(field, _, range)) => Err(RunError::InvalidConfig { field, range }),
            None => Ok(()),
        }
    }
}

/// Why a simulated run could not complete. Recoverable faults never
/// surface here; this is the structured "gave up" outcome that replaces
/// hanging (or silently corrupting results) when recovery budgets run dry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// A request (async: remote read; BSP: exchange round) exhausted its
    /// retry budget.
    RetryBudgetExhausted {
        /// The coordination code that gave up.
        algorithm: Algorithm,
        /// The rank that gave up first.
        rank: usize,
        /// What was being retried: the read id (async) or round (BSP).
        key: u64,
        /// Attempts made before giving up.
        attempts: u32,
        /// The rank the final attempt was addressed to.
        owner: usize,
        /// Whether that peer was crash-dead (as opposed to transiently
        /// faulty) when the budget ran dry.
        crash_dead: bool,
    },
    /// The run terminated but completed the wrong number of tasks (a
    /// coordination bug, surfaced instead of panicking in `try_run_sim`).
    TaskMismatch {
        /// The coordination code that ran.
        algorithm: Algorithm,
        /// Tasks completed.
        done: u64,
        /// Tasks expected.
        expected: u64,
    },
    /// A [`RunConfig`] field lies outside the range the simulator can
    /// model; [`try_run_sim`] checks before anything runs.
    InvalidConfig {
        /// The field's name.
        field: &'static str,
        /// The range it must lie in.
        range: &'static str,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::RetryBudgetExhausted {
                algorithm,
                rank,
                key,
                attempts,
                owner,
                crash_dead,
            } => write!(
                f,
                "{algorithm}: rank {rank} exhausted its retry budget after \
                 {attempts} attempts (key {key}, owner rank {owner}, {})",
                if *crash_dead {
                    "peer crash-dead"
                } else {
                    "peer transiently faulty"
                }
            ),
            RunError::TaskMismatch {
                algorithm,
                done,
                expected,
            } => write!(f, "{algorithm}: completed {done} of {expected} tasks"),
            RunError::InvalidConfig { field, range } => {
                write!(f, "invalid RunConfig: `{field}` must be {range}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Everything measured from one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The algorithm that ran.
    pub algorithm: Algorithm,
    /// Ranks simulated.
    pub nranks: usize,
    /// The four-way runtime breakdown.
    pub breakdown: RuntimeBreakdown,
    /// Tasks completed (must equal the workload's task count).
    pub tasks_done: u64,
    /// Order-independent checksum of completed tasks.
    pub task_checksum: u64,
    /// Peak memory of the most loaded rank, bytes (Fig. 11).
    pub max_mem_peak: u64,
    /// Peak memory per rank.
    pub mem_peaks: Vec<u64>,
    /// BSP supersteps (1 for async).
    pub rounds: usize,
    /// DES events processed.
    pub events: u64,
    /// Recovery-machinery counters (all zero on a reliable network).
    pub recovery: RecoveryStats,
    /// Injected-fault counters from the engine.
    pub faults: FaultStats,
    /// Tasks lost to dropped shards under [`CrashResponse::Degrade`]
    /// (always zero under takeover, where every task completes).
    pub lost_tasks: u64,
    /// Ranks the crash schedule killed, ascending.
    pub dead_ranks: Vec<usize>,
    /// The raw simulation report.
    pub report: SimReport,
}

impl RunResult {
    /// End-to-end runtime, seconds.
    pub fn runtime(&self) -> f64 {
        self.breakdown.total
    }

    /// Race-detector results (None unless [`RunConfig::detect_races`]).
    pub fn races(&self) -> Option<&RaceDetector> {
        self.report.races.as_ref()
    }

    /// Structured observability records (None unless [`RunConfig::obs`]).
    pub fn obs(&self) -> Option<&gnb_sim::obs::Obs> {
        self.report.obs.as_ref()
    }
}

/// Runs `algo` over the fixed `workload` on `machine`.
///
/// # Panics
/// Panics on any [`RunError`] — for the reliable configurations behind the
/// paper's figures an incomplete run is a bug, never a measurement. Use
/// [`try_run_sim`] for fault-injection experiments where retry-budget
/// exhaustion is a legitimate outcome.
pub fn run_sim(
    workload: &SimWorkload,
    machine: &MachineConfig,
    algo: Algorithm,
    cfg: &RunConfig,
) -> RunResult {
    #[expect(
        clippy::panic,
        reason = "the panicking form of try_run_sim, for experiments that treat a run error as fatal"
    )]
    let result = try_run_sim(workload, machine, algo, cfg).unwrap_or_else(|e| panic!("{e}"));
    result
}

/// The strategy-independent half of a run: what [`try_run_sim`] derives
/// from the configuration before it knows which strategy type to host.
struct Host<'a> {
    algo: Algorithm,
    machine: &'a MachineConfig,
    cfg: &'a RunConfig,
    /// Message faults plus the crash schedule, shared by the engine and
    /// every rank runtime.
    fault_plan: Arc<FaultPlan>,
    /// The shared stable-storage checkpoint store, created only when
    /// crashes are scheduled: crash-free runs take no checkpoints and stay
    /// byte-identical to pre-checkpoint builds.
    ckpt_store: Option<Rc<RefCell<CkptStore>>>,
    /// Ranks the crash schedule kills, ascending. In takeover mode their
    /// work is completed by successors; their own partial counters are
    /// excluded so nothing double-counts.
    dead_ranks: Vec<usize>,
}

impl Host<'_> {
    /// Hosts `strategy(rank)` on every rank of a fresh engine, runs it to
    /// quiescence and extracts the report, tasks done, checksum, unified
    /// recovery counters and first retry-budget exhaustion. Dead ranks
    /// contribute no task counts (their work is replayed by a successor
    /// under takeover, or lost under degrade) and no failures (their
    /// state died with them); their plan checksums count under takeover —
    /// the successor completes exactly that task set — and are excluded
    /// under degrade.
    fn run<S: CoordinationStrategy>(
        &self,
        strategy: impl Fn(usize) -> S,
    ) -> (SimReport, u64, u64, RecoveryStats, Option<RunError>) {
        let (machine, cfg, dead) = (self.machine, self.cfg, &self.dead_ranks);
        let nranks = machine.nranks();
        let rt_cfg = RuntimeConfig::from_run(machine, cfg);
        let mut progs: Vec<RankRuntime<S>> = (0..nranks)
            .map(|r| {
                RankRuntime::new(
                    strategy(r),
                    r,
                    rt_cfg,
                    Arc::clone(&self.fault_plan),
                    self.ckpt_store.clone(),
                )
            })
            .collect();
        // Pre-size the event queue for the steady state: every rank can
        // have a handful of in-flight requests/replies plus self-timers,
        // and barrier completion fans out one event per rank. A hint that
        // is too small merely costs a reallocation; the report is
        // identical (see `Engine::with_event_capacity`).
        let mut engine = Engine::new(nranks, machine.net)
            .with_event_capacity(8 * nranks)
            .with_tie_break(cfg.tie_break);
        if cfg.fault.is_active() || !cfg.crash.is_empty() {
            engine = engine.with_faults(FaultPlan::clone(&self.fault_plan));
        }
        if cfg.detect_races {
            engine = engine.with_race_detection(RACE_CAPACITY);
        }
        if cfg.obs {
            engine = engine.with_obs(gnb_sim::obs::ObsConfig::default());
        }
        let report = engine.run(&mut progs);
        let done: u64 = progs
            .iter()
            .enumerate()
            .filter(|(r, _)| !dead.contains(r))
            .map(|(_, p)| p.tasks_done())
            .sum();
        let mut sum = 0u64;
        for (r, p) in progs.iter().enumerate() {
            if cfg.crash_response == CrashResponse::Takeover || !dead.contains(&r) {
                sum = sum.wrapping_add(p.checksum());
            }
        }
        let mut recovery = RecoveryStats::default();
        for p in &progs {
            recovery.absorb(p.recovery());
        }
        let failure = progs.iter().enumerate().find_map(|(r, p)| {
            if dead.contains(&r) {
                return None;
            }
            p.failure().map(|f| RunError::RetryBudgetExhausted {
                algorithm: self.algo,
                rank: r,
                key: f.key,
                attempts: f.attempts,
                owner: f.owner,
                crash_dead: f.crash_dead,
            })
        });
        (report, done, sum, recovery, failure)
    }
}

/// Runs `algo` over the fixed `workload` on `machine`, returning a
/// structured [`RunError`] when the run could not complete (a config field
/// out of range, retry budgets exhausted under fault injection, or a
/// task-accounting bug).
pub fn try_run_sim(
    workload: &SimWorkload,
    machine: &MachineConfig,
    algo: Algorithm,
    cfg: &RunConfig,
) -> Result<RunResult, RunError> {
    let nranks = machine.nranks();
    cfg.validate(nranks)?;
    assert_eq!(
        workload.nranks, nranks,
        "workload prepared for {} ranks, machine has {}",
        workload.nranks, nranks
    );
    let mut fault_plan = cfg.fault.plan(nranks);
    if !cfg.crash.is_empty() {
        fault_plan = fault_plan.with_crashes(cfg.crash.clone());
    }
    let mut dead_ranks: Vec<usize> = cfg.crash.crashes.iter().map(|c| c.rank).collect();
    dead_ranks.sort_unstable();
    dead_ranks.dedup();
    let host = Host {
        algo,
        machine,
        cfg,
        fault_plan: Arc::new(fault_plan),
        ckpt_store: (!cfg.crash.is_empty()).then(|| Rc::new(RefCell::new(CkptStore::default()))),
        dead_ranks,
    };
    let (outcome, rounds) = match algo {
        Algorithm::Bsp => {
            let plan = Arc::new(plan_bsp(workload, machine, cfg));
            let out = host.run(|r| BspStrategy::new(Arc::clone(&plan), r));
            (out, plan.rounds)
        }
        Algorithm::Async => {
            let plan = Arc::new(plan_async(workload, machine, cfg));
            let out = host.run(|r| AsyncStrategy::new(Arc::clone(&plan), r, cfg));
            (out, 1)
        }
        Algorithm::AggAsync => {
            let plan = Arc::new(plan_async(workload, machine, cfg));
            let out = host.run(|r| AggAsyncStrategy::new(Arc::clone(&plan), r, cfg));
            (out, 1)
        }
    };
    let (report, tasks_done, checksum, recovery, first_failure) = outcome;
    let dead_ranks = host.dead_ranks;
    if let Some(err) = first_failure {
        return Err(err);
    }
    let degraded = !dead_ranks.is_empty() && cfg.crash_response == CrashResponse::Degrade;
    if !degraded && tasks_done as usize != workload.total_tasks {
        return Err(RunError::TaskMismatch {
            algorithm: algo,
            done: tasks_done,
            expected: workload.total_tasks as u64,
        });
    }
    let lost_tasks = if degraded {
        (workload.total_tasks as u64).saturating_sub(tasks_done)
    } else {
        0
    };
    Ok(RunResult {
        algorithm: algo,
        nranks,
        breakdown: RuntimeBreakdown::from_report(&report),
        tasks_done,
        task_checksum: checksum,
        max_mem_peak: report.max_mem_peak(),
        mem_peaks: report.ranks.iter().map(|r| r.mem_peak).collect(),
        rounds,
        events: report.events,
        recovery,
        faults: report.faults,
        lost_tasks,
        dead_ranks,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnb_genome::presets;
    use gnb_overlap::synth::{synthesize, SynthParams};

    fn small_workload(nranks: usize) -> SimWorkload {
        let preset = presets::ecoli_30x().scaled(128);
        let w = synthesize(&SynthParams::from_preset(&preset), 11);
        SimWorkload::prepare(&w.lengths, &w.tasks, &w.overlap_len, nranks)
    }

    fn machine(nodes: usize, cores: usize) -> MachineConfig {
        MachineConfig::cori_knl(nodes).with_cores_per_node(cores)
    }

    #[test]
    fn bsp_and_async_complete_identical_task_sets() {
        let m = machine(2, 4);
        let w = small_workload(m.nranks());
        let cfg = RunConfig::default();
        let bsp = run_sim(&w, &m, Algorithm::Bsp, &cfg);
        let asy = run_sim(&w, &m, Algorithm::Async, &cfg);
        assert_eq!(bsp.tasks_done, asy.tasks_done);
        assert_eq!(bsp.task_checksum, asy.task_checksum);
        assert!(bsp.runtime() > 0.0 && asy.runtime() > 0.0);
    }

    #[test]
    fn async_memory_below_bsp_single_exchange() {
        let m = machine(2, 4);
        let w = small_workload(m.nranks());
        let cfg = RunConfig::default();
        let bsp = run_sim(&w, &m, Algorithm::Bsp, &cfg);
        let asy = run_sim(&w, &m, Algorithm::Async, &cfg);
        // BSP buffers a whole round of reads; async holds at most the
        // windowed replies. The static pointer store is bigger, so compare
        // the dynamic excess over static allocations.
        let bsp_dyn: u64 = bsp.max_mem_peak;
        let asy_dyn: u64 = asy.max_mem_peak;
        // Not a strict theorem at tiny scale, but with hundreds of reads
        // per rank the exchange buffer dominates.
        assert!(
            asy_dyn < bsp_dyn * 2,
            "async {asy_dyn} should not dwarf bsp {bsp_dyn}"
        );
    }

    #[test]
    fn memory_cap_forces_rounds_and_preserves_results() {
        let mut m = machine(2, 4);
        let w = small_workload(m.nranks());
        let cfg = RunConfig::default();
        let one = run_sim(&w, &m, Algorithm::Bsp, &cfg);
        assert_eq!(one.rounds, 1);
        m.mem_per_core = 1; // floor: one read per round chunk share
        let many = run_sim(&w, &m, Algorithm::Bsp, &cfg);
        assert!(many.rounds > 1);
        assert_eq!(one.task_checksum, many.task_checksum);
        // More rounds cannot be faster.
        assert!(many.runtime() >= one.runtime());
    }

    #[test]
    fn deterministic_results() {
        let m = machine(1, 8);
        let w = small_workload(8);
        let cfg = RunConfig::default();
        let a = run_sim(&w, &m, Algorithm::Async, &cfg);
        let b = run_sim(&w, &m, Algorithm::Async, &cfg);
        assert_eq!(a.report, b.report);
    }

    #[test]
    #[should_panic(expected = "workload prepared for")]
    fn rank_mismatch_rejected() {
        let m = machine(1, 8);
        let w = small_workload(4);
        let _ = run_sim(&w, &m, Algorithm::Bsp, &RunConfig::default());
    }

    /// Every self-timer variant the real strategies arm has an arm (no
    /// wildcard arms here), and no arm drops its message: polls drain all
    /// work, AggAsync's flush timers ship its partial batches, and
    /// checkpoint timers write the checkpoint a successor restores.
    #[test]
    fn every_armed_app_variant_is_handled() {
        let m = machine(1, 8);
        let w = small_workload(m.nranks());
        let clean = run_sim(&w, &m, Algorithm::Async, &RunConfig::default());
        let end = clean.report.end_time.as_ns();
        let cfg = RunConfig {
            crash: CrashPlan::none().with_crash(3, end / 10 * 5, None),
            crash_response: CrashResponse::Takeover,
            crash_detect_ns: end / 100,
            ckpt: CkptParams {
                interval_ns: end / 10,
                ..CkptParams::default()
            },
            rpc_max_retries: 24,
            ..RunConfig::default()
        };
        for algo in [Algorithm::Async, Algorithm::AggAsync] {
            let r = try_run_sim(&w, &m, algo, &cfg).unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert_eq!(r.tasks_done as usize, w.total_tasks, "{algo}");
            assert_eq!(r.task_checksum, clean.task_checksum, "{algo}");
            assert_eq!(r.recovery.restores, 1, "{algo}: a checkpoint was written");
        }
    }
}
