//! Simulator workloads: one task graph under BSP, Async and AggAsync.
//!
//! `try_run_sim` is opaque from outside, so the traced run bounds the
//! layers beneath it by differential runs of their public APIs at the same
//! counts: an event-queue replay, a zero-cost program on the bare engine,
//! the network and collective cost functions, and the cost-model
//! arithmetic. What those do not explain is runtime and strategy code.

use crate::metrics::Report;
use crate::span::{secs_by_name, Tracer};
use crate::stats::{median, rel_spread};
use crate::workloads::{Kind, Spec, SMOKE_DIVISOR};
use crate::{host, Opts};
use gnb_core::driver::{try_run_sim, Algorithm, CrashResponse, RecoveryStats, RunConfig};
use gnb_core::machine::MachineConfig;
use gnb_core::workload::{task_checksum, SimWorkload};
use gnb_genome::presets::WorkloadPreset;
use gnb_overlap::synth::{synthesize, SynthParams, SynthWorkload};
use gnb_sim::ckpt::CkptParams;
use gnb_sim::coll::{alltoallv_time, CollParams, ExchangeLoad};
use gnb_sim::engine::{Ctx, Engine, Program};
use gnb_sim::event::{EventPayload, EventQueue};
use gnb_sim::fault::{CrashPlan, FaultConfig, FaultStats};
use gnb_sim::net::{NetParams, Network};
use gnb_sim::SimTime;
use std::cmp::Reverse;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Each strategy with its span name and the names its event count and
/// virtual end time are pinned under, in `Algorithm::ALL` order.
const STRATEGIES: [(Algorithm, &str, &str, &str); 3] = [
    (Algorithm::Bsp, "core.bsp", "bsp_events", "bsp_virt_ns"),
    (
        Algorithm::Async,
        "core.async",
        "async_events",
        "async_virt_ns",
    ),
    (
        Algorithm::AggAsync,
        "core.aggasync",
        "aggasync_events",
        "aggasync_virt_ns",
    ),
];

/// Outstanding requests per rank of the engine-floor program, and events
/// per rank of the queue replay's backlog: the `8 × nranks` the driver
/// pre-sizes the event queue for.
const BACKLOG_PER_RANK: usize = 8;
/// Calls timed for the pure cost functions.
const COST_FN_CALLS: usize = 200_000;
/// Scheduled rank crashes of the chaos workload.
const CHAOS_CRASHES: usize = 3;
/// The chaos workload's observability measurements shrink its graph by this
/// again, so a complete recording fits `ObsConfig::default()`.
const OBS_DIVISOR: usize = 2;

/// What the program under test receives.
struct Input {
    synth: SynthWorkload,
    machine: MachineConfig,
    workload: SimWorkload,
    cfg: RunConfig,
}

/// A Cori-KNL machine paired with a scaled workload, as the experiment
/// binaries pair them: per-core memory shrinks with the workload so BSP
/// keeps its multi-round regime.
fn machine_for(preset: &WorkloadPreset, nodes: usize) -> MachineConfig {
    let mut m = MachineConfig::cori_knl(nodes);
    m.mem_per_core = (m.mem_per_core / preset.scale as u64).max(1 << 20);
    m.volume_scale = preset.scale as f64;
    m
}

fn prepare(synth: &SynthWorkload, nranks: usize) -> SimWorkload {
    SimWorkload::prepare(&synth.lengths, &synth.tasks, &synth.overlap_len, nranks)
}

/// The chaos recipe: `expt_fault`'s message faults, stragglers and lost BSP
/// rounds, plus `expt_crash`'s crash-stop failures under takeover, with the
/// crash times and checkpoint cadence calibrated off a crash-free BSP
/// baseline.
///
/// The victims are the ranks with the most tasks and they die early (5%,
/// 8% and 11% of the baseline run): a rank that crashes after it has run
/// out of work, or late in the run, deadlocks the async strategies at the
/// parent commit (the engine panics with "barrier(s) never completed"),
/// and a benchmark workload must be one on which no operation fails.
fn chaos_config(workload: &SimWorkload, machine: &MachineConfig) -> RunConfig {
    let base = RunConfig::default();
    let end_ns = try_run_sim(workload, machine, Algorithm::Bsp, &base)
        .expect("the crash-free baseline completes")
        .report
        .end_time
        .as_ns();
    let mut by_load: Vec<usize> = (0..machine.nranks()).collect();
    by_load.sort_by_key(|&r| (Reverse(workload.per_rank[r].total_tasks()), r));
    let crash = by_load
        .iter()
        .take(CHAOS_CRASHES)
        .enumerate()
        .fold(CrashPlan::none(), |plan, (i, &rank)| {
            plan.with_crash(rank, end_ns * (5 + 3 * i as u64) / 100, None)
        });
    RunConfig {
        fault: FaultConfig {
            drop_prob: 0.02,
            dup_prob: 0.01,
            delay_prob: 0.02,
            delay_ns: 200_000,
            bsp_round_drop_prob: 0.02,
            straggler_period: 16,
            straggler_factor: 1.5,
            ..FaultConfig::default()
        },
        crash,
        crash_response: CrashResponse::Takeover,
        crash_detect_ns: (end_ns / 100).max(1),
        ckpt: CkptParams {
            interval_ns: (end_ns / 16).max(1),
            ..CkptParams::default()
        },
        ..base
    }
}

/// Synthesises the task graph from the seed and prepares the per-rank
/// inputs (and, for chaos, the fault recipe).
fn setup(spec: &Spec, seed: u64, divisor: usize, t: &mut Tracer) -> Input {
    let Kind::Sim { nodes, chaos } = spec.kind else {
        unreachable!("{} is not a simulator workload", spec.name)
    };
    let preset = spec.preset(divisor);
    let synth = t.span("overlap", "overlap.synth", |_| {
        synthesize(&SynthParams::from_preset(&preset), seed)
    });
    let machine = machine_for(&preset, nodes);
    let workload = t.span("core", "core.prepare", |_| {
        prepare(&synth, machine.nranks())
    });
    let cfg = if chaos {
        t.span("core", "core.chaos_baseline", |_| {
            chaos_config(&workload, &machine)
        })
    } else {
        RunConfig::default()
    };
    Input {
        synth,
        machine,
        workload,
        cfg,
    }
}

/// The simulated statistics of one strategy's run: identical in every
/// pass, run and commit for the same seed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Stat {
    events: u64,
    rounds: usize,
    end_ns: u64,
    tasks_done: u64,
    checksum: u64,
    lost: u64,
    recovery: RecoveryStats,
    faults: FaultStats,
}

type PassResults = [Result<Stat, String>; 3];

/// `try_run_sim`, with an engine panic (its deadlock detector, say) turned
/// into a failed operation, so the run still prints its result line.
fn run_strategy(input: &Input, algo: Algorithm) -> Result<Stat, String> {
    let run = || try_run_sim(&input.workload, &input.machine, algo, &input.cfg);
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(r)) => Ok(Stat {
            events: r.events,
            rounds: r.rounds,
            end_ns: r.report.end_time.as_ns(),
            tasks_done: r.tasks_done,
            checksum: r.task_checksum,
            lost: r.lost_tasks,
            recovery: r.recovery,
            faults: r.faults,
        }),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("try_run_sim panicked (message on standard error)".into()),
    }
}

/// One complete pass: the three strategies over the same input. With the
/// tracer off this is the timed pass; with it on, the traced one.
fn pass(input: &Input, t: &mut Tracer) -> (f64, PassResults) {
    t.next_pass();
    let start = Instant::now();
    let results = t.span("core", "core.sim_pass", |t| {
        STRATEGIES.map(|(algo, span, ..)| t.span("core", span, |_| run_strategy(input, algo)))
    });
    (start.elapsed().as_secs_f64(), results)
}

/// One check per `try_run_sim`: it returned `Ok`, completed every task
/// exactly once with nothing lost, and repeated the first pass bit for bit.
/// Returns the statistics when all three hold.
fn check_pass(
    input: &Input,
    results: &PassResults,
    first: Option<&[Stat; 3]>,
    r: &mut Report,
) -> Option<[Stat; 3]> {
    let want_sum = task_checksum(input.synth.tasks.iter().map(|c| (c.a, c.b)));
    let mut all = true;
    for (i, ((algo, ..), res)) in STRATEGIES.iter().zip(results).enumerate() {
        let problem = match res {
            Err(e) => Some(e.clone()),
            Ok(s) if s.tasks_done != input.workload.total_tasks as u64 || s.lost != 0 => {
                Some(format!(
                    "{} of {} tasks done, {} lost",
                    s.tasks_done, input.workload.total_tasks, s.lost
                ))
            }
            Ok(s) if s.checksum != want_sum => Some(format!(
                "task checksum {:#x}, the task list's is {want_sum:#x}",
                s.checksum
            )),
            Ok(s) => first
                .filter(|f| f[i] != *s)
                .map(|f| format!("statistics differ from the first pass: {:?} vs {s:?}", f[i])),
        };
        all &= r.check(problem.is_none(), || {
            format!("{algo}: {}", problem.unwrap_or_default())
        });
    }
    all.then(|| results.clone().map(|s| s.expect("checked Ok above")))
}

fn facts(input: &Input, stats: &[Stat; 3], r: &mut Report) {
    r.fact("reads", input.synth.reads());
    r.fact("tasks", input.workload.total_tasks);
    r.fact("task_checksum", format!("{:#018x}", stats[0].checksum));
    for ((_, _, events, virt_ns), s) in STRATEGIES.iter().zip(stats) {
        r.fact(events, s.events);
        r.fact(virt_ns, s.end_ns);
    }
    r.fact("bsp_rounds", stats[0].rounds);
    r.fact(
        "retries",
        stats.iter().map(|s| s.recovery.retries).sum::<u64>(),
    );
    r.fact(
        "takeovers",
        stats.iter().map(|s| s.recovery.takeovers).sum::<u64>(),
    );
}

/// DP cells the cost model assigns the whole task list: the simulated work
/// of one strategy's run.
fn modelled_cells(input: &Input) -> f64 {
    input
        .synth
        .tasks
        .iter()
        .zip(&input.synth.overlap_len)
        .map(|(t, &ov)| input.cfg.cost.cells(t, ov))
        .sum()
}

/// The timed run: end-to-end metrics, spans off.
pub fn run_e2e(spec: &Spec, opts: &Opts, r: &mut Report) {
    let mut off = Tracer::off();
    let (setups, input) = opts.time_setup(|| setup(spec, opts.seed, opts.divisor(), &mut off));
    if !opts.smoke {
        // Page in code and settle the allocator on a small graph.
        let _ = black_box(pass(
            &setup(spec, opts.seed, SMOKE_DIVISOR, &mut off),
            &mut off,
        ));
    }
    let mut walls = Vec::new();
    let mut first: Option<[Stat; 3]> = None;
    opts.repeat(opts.min_passes(), |_| {
        let (wall, results) = pass(&input, &mut off);
        if let Some(stats) = check_pass(&input, &results, first.as_ref(), r) {
            walls.push(wall);
            first.get_or_insert(stats);
        }
        wall
    });
    r.set_median("setup_s", setups);
    r.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    let Some(stats) = first else {
        return; // every pass failed; the checks say why
    };
    facts(&input, &stats, r);
    r.set(
        "cells_per_s",
        STRATEGIES.len() as f64 * modelled_cells(&input) / median(&walls),
    );
    r.set_median("wall_s", walls);
}

/// The traced run: per-strategy spans and the differential layer bounds.
pub fn run_traced(spec: &Spec, opts: &Opts, r: &mut Report) {
    let mut t = Tracer::new(true);
    let mut off = Tracer::off();
    let input = setup(spec, opts.seed, opts.divisor(), &mut t);

    // Untraced and traced passes run in pairs, and the pairs alternate
    // which goes first, so the host's drift hits both kinds alike.
    let mut plain = Vec::new();
    let mut overhead = Vec::new();
    let mut first: Option<[Stat; 3]> = None;
    opts.repeat(opts.min_pairs(), |done| {
        let pair = Instant::now();
        let ((wall, untraced), (traced_wall, traced)) = if done % 2 == 1 {
            (pass(&input, &mut off), pass(&input, &mut t))
        } else {
            let second = pass(&input, &mut t);
            (pass(&input, &mut off), second)
        };
        let a = check_pass(&input, &untraced, first.as_ref(), r);
        let b = check_pass(&input, &traced, first.as_ref().or(a.as_ref()), r);
        if let (Some(stats), Some(_)) = (a, b) {
            plain.push(wall);
            overhead.push(traced_wall / wall);
            first.get_or_insert(stats);
        }
        pair.elapsed().as_secs_f64()
    });
    r.spans = t.spans().to_vec();
    let Some(stats) = first else {
        return;
    };
    facts(&input, &stats, r);

    let by_name = secs_by_name(t.spans());
    let secs = |name: &str| by_name.get(name).map_or(0.0, |v| median(v));
    let tasks = input.workload.total_tasks as f64;
    let nranks = input.machine.nranks();
    r.set("overlap.synth_s", secs("overlap.synth"));
    r.set("core.prepare_s", secs("core.prepare"));
    r.set("core.prepare_tasks_per_s", tasks / secs("core.prepare"));
    r.set("core.sim_pass_s", secs("core.sim_pass"));
    let [bsp, asy, agg] = stats;
    let (bsp_s, async_s, agg_s) = (secs("core.bsp"), secs("core.async"), secs("core.aggasync"));
    r.set("core.bsp_s", bsp_s);
    r.set("core.async_s", async_s);
    r.set("core.aggasync_s", agg_s);
    r.set("core.bsp_events", bsp.events as f64);
    r.set("core.async_events", asy.events as f64);
    r.set("core.aggasync_events", agg.events as f64);
    r.set("core.bsp_rounds", bsp.rounds as f64);
    r.set("core.bsp_virt_ns", bsp.end_ns as f64);
    r.set("core.async_virt_ns", asy.end_ns as f64);
    r.set("core.aggasync_virt_ns", agg.end_ns as f64);
    r.set("core.task_checksum_ok", 1.0);
    let events = (bsp.events + asy.events + agg.events) as f64;
    r.set("core.events_per_s", events / (bsp_s + async_s + agg_s));
    r.set("core.bsp_ns_per_task", bsp_s * 1e9 / tasks);
    r.set("core.async_ns_per_event", async_s * 1e9 / asy.events as f64);
    r.set(
        "core.aggasync_ns_per_event",
        agg_s * 1e9 / agg.events as f64,
    );

    let sum = |f: fn(&Stat) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    r.set("core.retries", sum(|s| s.recovery.retries));
    r.set("core.takeovers", sum(|s| s.recovery.takeovers));
    r.set("core.restores", sum(|s| s.recovery.restores));
    r.set("core.recovered_tasks", sum(|s| s.recovery.recovered_tasks));
    r.set("core.lost_tasks", sum(|s| s.lost));
    r.set("sim.msgs_dropped", sum(|s| s.faults.msgs_dropped));
    r.set("sim.msgs_duplicated", sum(|s| s.faults.msgs_duplicated));
    r.set("sim.crashes", sum(|s| s.faults.crashes));

    // Layer bounds at the Async run's counts.
    let ops = asy.events as usize;
    let lengths = &input.workload.lengths;
    let reply_bytes = lengths.iter().map(|&l| l as u64).sum::<u64>() / lengths.len().max(1) as u64;
    let queue_ns = queue_ns_per_op(nranks, ops);
    let engine_ns = engine_floor_ns_per_event(&input, ops, reply_bytes);
    let cost_ns = cost_model_ns_per_task(&input);
    let async_ns = async_s * 1e9;
    r.set("sim.queue_ns_per_op", queue_ns);
    r.set("sim.queue_share", queue_ns * ops as f64 / async_ns);
    r.set("sim.engine_ns_per_event", engine_ns);
    r.set("sim.engine_floor_share", engine_ns * ops as f64 / async_ns);
    r.set(
        "sim.net_ns_per_msg",
        net_ns_per_msg(input.machine.net, nranks, reply_bytes),
    );
    r.set("sim.coll_ns_per_call", coll_ns_per_call(&input.machine));
    r.set("core.cost_model_ns_per_task", cost_ns);
    r.set("core.cost_model_share", cost_ns * tasks / async_ns);
    r.set(
        "core.handler_residual_share",
        1.0 - r.get("sim.engine_floor_share") - r.get("core.cost_model_share"),
    );

    // The same graph 16× smaller: ns/event is size-dependent, and the
    // repository's older numbers were taken at toy sizes.
    let small = setup(spec, opts.seed, opts.divisor() * SMOKE_DIVISOR, &mut off);
    let small_ns: Result<Vec<f64>, _> = (0..3)
        .map(|_| {
            let run = || {
                try_run_sim(
                    &small.workload,
                    &small.machine,
                    Algorithm::Async,
                    &RunConfig::default(),
                )
            };
            let (secs, res) = timed(run);
            res.map(|res| secs * 1e9 / res.events as f64)
        })
        .collect();
    match small_ns {
        Ok(ns) => r.set_median("core.async_ns_per_event_small", ns),
        Err(e) => {
            r.check(false, || format!("Async on the 16x smaller graph: {e}"));
        }
    }

    if matches!(spec.kind, Kind::Sim { chaos: true, .. }) {
        chaos_extras(spec, opts, &input, async_s, r);
    }

    r.set_median("bench.trace_overhead_ratio", overhead);
    r.set("bench.samples", plain.len() as f64);
    r.set("bench.wall_spread", rel_spread(&plain));
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// `EventQueue` alone: a standing backlog, then per op pop the earliest
/// event and either defer it (every 4th — the busy-rank path) or resolve it
/// and push a successor. The dispatch pattern of `gnb-bench`'s queue
/// series, at this workload's rank count and event count.
fn queue_ns_per_op(nranks: usize, ops: usize) -> f64 {
    type Payload = [u64; 4];
    let backlog = BACKLOG_PER_RANK * nranks;
    let mut q: EventQueue<Payload> = EventQueue::with_capacity(backlog + 4);
    for i in 0..backlog {
        q.push(
            SimTime::from_ns(i as u64),
            i % nranks,
            EventPayload::Message {
                src: i % nranks,
                msg: [i as u64; 4],
            },
        );
    }
    let (secs, ()) = timed(|| {
        for i in 0..ops {
            let at = SimTime::from_ns((backlog + i) as u64);
            let ev = q.pop_entry().expect("the backlog never drains");
            if i % 4 == 0 {
                q.requeue(ev, at);
            } else {
                let payload = q.resolve(ev);
                q.push(at, ev.dst, payload);
            }
        }
    });
    black_box(q.len());
    secs * 1e9 / ops.max(1) as f64
}

/// The engine-floor program's messages: a request and its reply, like the
/// async code's remote-read RPC, with handlers that cost nothing.
#[derive(Debug, Clone, Copy)]
enum Rpc {
    Request,
    Reply,
}

struct Echo {
    /// Requests this rank still has to issue.
    left: usize,
    issued: usize,
    request_bytes: u64,
    reply_bytes: u64,
}

impl Echo {
    fn issue(&mut self, ctx: &mut Ctx<'_, Rpc>) {
        if self.left == 0 {
            return;
        }
        self.left -= 1;
        self.issued += 1;
        // Walk the peers so traffic crosses nodes as the real run's does.
        let peer = (ctx.rank() + self.issued * 7 + 1) % ctx.nranks();
        ctx.send(peer, self.request_bytes, Rpc::Request);
    }
}

impl Program<Rpc> for Echo {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Rpc>) {
        for _ in 0..BACKLOG_PER_RANK {
            self.issue(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Rpc>, src: usize, msg: Rpc) {
        match msg {
            Rpc::Request => ctx.send(src, self.reply_bytes, Rpc::Reply),
            Rpc::Reply => self.issue(ctx),
        }
    }

    fn on_barrier(&mut self, _ctx: &mut Ctx<'_, Rpc>, _id: u64) {}
}

/// `Engine::run` of [`Echo`]: about `events` events of request/reply
/// traffic over the same network parameters and rank count, with no
/// runtime, strategy or cost-model code in the handlers.
fn engine_floor_ns_per_event(input: &Input, events: usize, reply_bytes: u64) -> f64 {
    let nranks = input.machine.nranks();
    let per_rank = (events / (2 * nranks)).max(1);
    let mut progs: Vec<Echo> = (0..nranks)
        .map(|_| Echo {
            left: per_rank,
            issued: 0,
            request_bytes: input.cfg.req_bytes,
            reply_bytes,
        })
        .collect();
    let (secs, report) = timed(|| {
        Engine::new(nranks, input.machine.net)
            .with_event_capacity(BACKLOG_PER_RANK * nranks)
            .run(&mut progs)
    });
    secs * 1e9 / report.events.max(1) as f64
}

fn net_ns_per_msg(net: NetParams, nranks: usize, bytes: u64) -> f64 {
    let mut network = Network::new(net, nranks);
    let (secs, ()) = timed(|| {
        for i in 0..COST_FN_CALLS {
            let now = SimTime::from_ns(i as u64 * 100);
            black_box(network.delivery_time(now, i % nranks, (i * 7 + 1) % nranks, bytes));
        }
    });
    secs * 1e9 / COST_FN_CALLS as f64
}

fn coll_ns_per_call(machine: &MachineConfig) -> f64 {
    let params = CollParams::from_net(&machine.net);
    let (secs, ()) = timed(|| {
        for i in 0..COST_FN_CALLS {
            let load = ExchangeLoad {
                nranks: machine.nranks(),
                nnodes: machine.nodes,
                max_send: 1 << 20 | i as u64,
                max_recv: 1 << 20,
                active_peers: machine.nranks() - 1,
                volume_scale: machine.volume_scale,
            };
            black_box(alltoallv_time(&params, black_box(&load)));
        }
    });
    secs * 1e9 / COST_FN_CALLS as f64
}

/// The arithmetic every strategy's plan does once per task.
fn cost_model_ns_per_task(input: &Input) -> f64 {
    let (secs, total) = timed(|| {
        input
            .synth
            .tasks
            .iter()
            .zip(&input.synth.overlap_len)
            .map(|(t, &ov)| input.machine.compute_secs(input.cfg.cost.cells(t, ov)))
            .sum::<f64>()
    });
    black_box(total);
    secs * 1e9 / input.synth.tasks.len().max(1) as f64
}

/// Chaos-only measurements: what recovery costs against the fault-free
/// run, what `obs: true` and the `gnb-trace` analyses cost, and whether the
/// parallel engine pays at two threads. None of these is on the timed
/// path (obs is off and `threads` is 1 there); they are the baselines the
/// ROADMAP's recorder and parallel-engine decisions need.
fn chaos_extras(spec: &Spec, opts: &Opts, input: &Input, chaos_async_s: f64, r: &mut Report) {
    let clean = RunConfig::default();
    let run = |input: &Input, algo: Algorithm, cfg: &RunConfig| {
        timed(|| try_run_sim(&input.workload, &input.machine, algo, cfg))
    };

    // Same graph, no faults: serial, then two shards.
    let two = RunConfig {
        threads: 2,
        ..clean.clone()
    };
    let threads_ok = host::require_threads(2);
    for (algo, metric) in [
        (Algorithm::Async, "sim.par_2t_async_ratio"),
        (Algorithm::AggAsync, "sim.par_2t_aggasync_ratio"),
    ] {
        let (serial_s, serial) = run(input, algo, &clean);
        if algo == Algorithm::Async {
            r.set("core.chaos_slowdown", chaos_async_s / serial_s);
        }
        match &threads_ok {
            Err(why) => r.notes.push(format!("{metric} skipped: {why}")),
            Ok(()) => {
                let (sharded_s, sharded) = run(input, algo, &two);
                let same = matches!((&serial, &sharded), (Ok(a), Ok(b)) if a.report == b.report);
                r.check(same, || {
                    format!("{algo}: the 2-thread report differs from the serial one")
                });
                r.set(metric, serial_s / sharded_s);
            }
        }
    }

    // A smaller fault-free graph whose complete recording fits the default
    // observability capacities.
    let small = setup(
        spec,
        opts.seed,
        opts.divisor() * OBS_DIVISOR,
        &mut Tracer::off(),
    );
    let recording = RunConfig {
        obs: true,
        ..clean.clone()
    };
    let (mut off_s, mut on_s) = (Vec::new(), Vec::new());
    let mut recorded = None;
    for _ in 0..3 {
        let (s, plain) = run(&small, Algorithm::Async, &clean);
        off_s.push(s);
        let (s, observed) = run(&small, Algorithm::Async, &recording);
        on_s.push(s);
        let invariant = matches!((&plain, &observed), (Ok(a), Ok(b))
            if a.report.end_time == b.report.end_time && a.events == b.events);
        r.check(invariant, || {
            "recording changed the simulated timeline".into()
        });
        recorded = observed.ok();
    }
    r.set("sim.obs_overhead_ratio", median(&on_s) / median(&off_s));
    let Some(obs) = recorded.as_ref().and_then(|res| res.obs()) else {
        r.check(false, || "the obs run returned no recording".into());
        return;
    };
    r.check(!obs.is_truncated(), || {
        "the observability recording was truncated".into()
    });
    r.set("sim.obs_nodes", obs.nodes.len() as f64);
    r.set(
        "sim.obs_dropped",
        (obs.dropped_nodes + obs.dropped_spans + obs.dropped_instants + obs.dropped_samples())
            as f64,
    );
    let (s, summary) = timed(|| gnb_trace::summarize(obs));
    black_box(summary);
    r.set("trace.summarize_s", s);
    let (s, json) = timed(|| gnb_trace::export(obs));
    r.set("trace.export_s", s);
    r.set("trace.export_mb_per_s", json.len() as f64 / 1e6 / s);
    let (s, cpath) = timed(|| gnb_trace::critical_path_report(obs));
    r.check(cpath.is_ok(), || {
        format!("critical path refused: {}", cpath.clone().unwrap_err())
    });
    r.set("trace.cpath_s", s);
    let (s, back) = timed(|| gnb_trace::parse(&obs.to_text()));
    r.check(back.as_ref() == Ok(obs), || {
        "the .gnbtrace text form did not round-trip".into()
    });
    r.set("trace.text_roundtrip_s", s);
}
