//! Serial/parallel equivalence: the sharded conservative-parallel engine
//! must be **byte-identical** to the serial reference loop — same
//! `SimReport` (timelines, ledgers, fault counters, event counts), same
//! observability trace (down to the rendered Chrome-trace text), same
//! task checksums — at every shard count, for every coordination
//! strategy, with and without message faults and crash schedules.
//!
//! Two layers:
//!
//! * a proptest of the ordering kernel the whole construction rests on:
//!   shard-local *provisional* sequence keys merged against committed
//!   events reproduce the serial event queue's `(time, seq)` pop order
//!   for random in-window push scripts, under both tie-break policies;
//! * end-to-end suites running every strategy serial-vs-`threads ∈
//!   {2,4,8}` across fault plans, crash schedules (takeover and
//!   degrade), LIFO perturbation replay, and multi-node shard layouts.

use gnb::core::driver::{try_run_sim, Algorithm, CrashResponse, RunConfig, RunResult};
use gnb::core::workload::SimWorkload;
use gnb::core::MachineConfig;
use gnb::genome::presets;
use gnb::overlap::synth::{synthesize, SynthParams};
use gnb::sim::event::EventQueue;
use gnb::sim::{chrome_trace_json, CkptParams, CrashPlan, EventPayload, FaultConfig, TieBreak};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

fn workload(scale: usize, seed: u64, nranks: usize) -> SimWorkload {
    let preset = presets::ecoli_30x().scaled(scale);
    let s = synthesize(&SynthParams::from_preset(&preset), seed);
    SimWorkload::prepare(&s.lengths, &s.tasks, &s.overlap_len, nranks)
}

// ---------------------------------------------------------------------
// Part 1: the ordering kernel.
// ---------------------------------------------------------------------

/// Provisional order base: above any committed seq (mirrors
/// `gnb_sim::par`). Committed seqs sort first under FIFO; the mirrored
/// encoding makes provisional keys sort first under LIFO — in both cases
/// exactly where the serial queue's later-allocated real seqs would.
const PROV_BASE: u64 = 1 << 63;

fn prov_order(tb: TieBreak, idx: u32) -> u64 {
    match tb {
        TieBreak::Fifo => PROV_BASE + idx as u64,
        TieBreak::Lifo => u64::MAX - (PROV_BASE + idx as u64),
    }
}

/// Deterministic follow-up script: what event `id` pushes when it pops.
/// Both the serial oracle and the provisional-key merge run the same
/// script, so any divergence in the returned pop order is an ordering
/// bug, not a script mismatch.
fn follow_ups(id: u64, seed: u64) -> Vec<u64> {
    let mut z = id
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seed ^ 0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    let count = (z % 3) as usize; // 0..=2 pushes
    (0..count)
        .map(|k| (z >> (8 * (k + 1))) % 5) // deltas 0..=4 ticks
        .collect()
}

/// Serial oracle: one real `EventQueue`, follow-ups pushed at pop time so
/// their seqs are allocated in global pop order. Returns pop order by id.
fn serial_pop_order(times: &[u64], tb: TieBreak, seed: u64, budget: usize) -> Vec<u64> {
    let mut q: EventQueue<u64> = EventQueue::new();
    q.set_tie_break(tb);
    for (id, &t) in times.iter().enumerate() {
        q.push(
            gnb::sim::SimTime::from_ns(t),
            0,
            EventPayload::Message {
                src: 0,
                msg: id as u64,
            },
        );
    }
    let mut next_id = times.len() as u64;
    let mut popped = Vec::new();
    while let Some(ev) = q.pop_entry() {
        let t = ev.time;
        let EventPayload::Message { msg: id, .. } = q.resolve(ev) else {
            panic!("only messages are pushed");
        };
        popped.push(id);
        if (next_id as usize) < budget {
            for delta in follow_ups(id, seed) {
                q.push(
                    t + gnb::sim::SimTime::from_ns(delta),
                    0,
                    EventPayload::Message {
                        src: 0,
                        msg: next_id,
                    },
                );
                next_id += 1;
            }
        }
    }
    popped
}

/// Chain model: committed events arrive as a pre-sorted item stream (the
/// coordinator's phase-A pops); follow-ups go to a rank-local mini-heap
/// under provisional keys, exactly as a shard chain runs inside one
/// window. Returns pop order by id.
fn chain_pop_order(times: &[u64], tb: TieBreak, seed: u64, budget: usize) -> Vec<u64> {
    // Committed: seqs are allocation order; sort by the serial heap key.
    let mut items: Vec<(u64, u64, u64)> = times // (time, seq, id)
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, i as u64, i as u64))
        .collect();
    items.sort_by_key(|&(t, seq, _)| (t, tb.order(seq)));
    let mut items = items.into_iter().peekable();
    let mut local: BinaryHeap<Reverse<((u64, u64), u64)>> = BinaryHeap::new();
    let mut next_idx: u32 = 0;
    let mut next_id = times.len() as u64;
    let mut popped = Vec::new();
    loop {
        let take_local = match (items.peek(), local.peek()) {
            (Some(&(t, seq, _)), Some(Reverse((lk, _)))) => *lk < (t, tb.order(seq)),
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (None, None) => break,
        };
        let (t, id) = if take_local {
            let Reverse(((t, _), id)) = local.pop().expect("peeked");
            (t, id)
        } else {
            let (t, _, id) = items.next().expect("peeked");
            (t, id)
        };
        popped.push(id);
        if (next_id as usize) < budget {
            for delta in follow_ups(id, seed) {
                local.push(Reverse(((t + delta, prov_order(tb, next_idx)), next_id)));
                next_idx += 1;
                next_id += 1;
            }
        }
    }
    popped
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The bit-identity kernel: provisional shard-local keys merged with
    /// committed events reproduce the serial queue's pop order exactly,
    /// for random times (dense, so equal-time ties are common), random
    /// follow-up scripts, both tie-break policies.
    #[test]
    fn provisional_keys_reproduce_serial_pop_order(
        times in proptest::collection::vec(0u64..12, 1..24),
        seed in any::<u64>(),
        lifo in any::<bool>(),
    ) {
        let tb = if lifo { TieBreak::Lifo } else { TieBreak::Fifo };
        let budget = times.len() + 40;
        let serial = serial_pop_order(&times, tb, seed, budget);
        let chain = chain_pop_order(&times, tb, seed, budget);
        prop_assert_eq!(serial, chain, "tie-break {:?}", tb);
    }
}

// ---------------------------------------------------------------------
// Part 2: end-to-end byte-identity.
// ---------------------------------------------------------------------

/// Shard counts every suite checks against the serial reference. 8 on an
/// 8-rank machine exercises the one-rank-per-shard extreme.
const THREADS: [usize; 3] = [2, 4, 8];

/// Asserts every comparable surface of two `RunResult`s is identical,
/// including the rendered observability trace (byte-for-byte) when
/// recording is on.
fn assert_identical(serial: &RunResult, par: &RunResult, label: &str) {
    assert_eq!(serial.report, par.report, "{label}: SimReport differs");
    assert_eq!(serial.breakdown, par.breakdown, "{label}");
    assert_eq!(serial.tasks_done, par.tasks_done, "{label}");
    assert_eq!(serial.task_checksum, par.task_checksum, "{label}");
    assert_eq!(serial.max_mem_peak, par.max_mem_peak, "{label}");
    assert_eq!(serial.mem_peaks, par.mem_peaks, "{label}");
    assert_eq!(serial.rounds, par.rounds, "{label}");
    assert_eq!(serial.events, par.events, "{label}");
    assert_eq!(serial.recovery, par.recovery, "{label}");
    assert_eq!(serial.faults, par.faults, "{label}");
    assert_eq!(serial.lost_tasks, par.lost_tasks, "{label}");
    assert_eq!(serial.dead_ranks, par.dead_ranks, "{label}");
    if let (Some(a), Some(b)) = (&serial.report.obs, &par.report.obs) {
        assert_eq!(
            chrome_trace_json(a),
            chrome_trace_json(b),
            "{label}: rendered obs trace differs"
        );
    }
}

/// Runs `algo` serially and at each shard count, asserting byte-identity
/// (or identical failure).
fn assert_parallel_equivalence(
    w: &SimWorkload,
    machine: &MachineConfig,
    algo: Algorithm,
    cfg: &RunConfig,
) {
    let serial_cfg = RunConfig {
        threads: 1,
        ..cfg.clone()
    };
    let serial = try_run_sim(w, machine, algo, &serial_cfg);
    for t in THREADS {
        let par_cfg = RunConfig {
            threads: t,
            ..cfg.clone()
        };
        let par = try_run_sim(w, machine, algo, &par_cfg);
        let label = format!("{algo} threads={t}");
        match (&serial, &par) {
            (Ok(a), Ok(b)) => assert_identical(a, b, &label),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{label}"),
            (a, b) => panic!("{label}: outcome diverged: serial={a:?} parallel={b:?}"),
        }
    }
}

/// Full-surface observation config: obs and race detection both on, so
/// the equivalence assertion covers every recorder.
fn observed(cfg: RunConfig) -> RunConfig {
    RunConfig {
        obs: true,
        detect_races: true,
        ..cfg
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Random workloads x all three strategies x random message faults:
    /// byte-identical at 2/4/8 shards.
    #[test]
    fn parallel_matches_serial_under_faults(
        wl_seed in 0u64..1024,
        fault_seed in any::<u64>(),
        faulty in any::<bool>(),
        drop_pct in 0u32..8,
        straggler in 0u32..3,
    ) {
        let machine = MachineConfig::cori_knl(1).with_cores_per_node(8);
        let w = workload(512, wl_seed, machine.nranks());
        let cfg = observed(RunConfig {
            rpc_max_retries: 24,
            fault: if faulty {
                FaultConfig {
                    seed: fault_seed,
                    drop_prob: drop_pct as f64 / 100.0,
                    dup_prob: 0.03,
                    delay_prob: 0.1,
                    delay_ns: 300_000,
                    bsp_round_drop_prob: drop_pct as f64 / 100.0,
                    straggler_period: if straggler > 0 { 3 } else { 0 },
                    straggler_factor: 1.0 + straggler as f64,
                    ..FaultConfig::default()
                }
            } else {
                FaultConfig::default()
            },
            ..RunConfig::default()
        });
        for algo in Algorithm::ALL {
            assert_parallel_equivalence(&w, &machine, algo, &cfg);
        }
    }

    /// Random crash schedules under takeover, checkpoints enabled:
    /// byte-identical at 2/4/8 shards (death marks shrink windows to
    /// single events, so crash sweeps commute with the merge).
    #[test]
    fn parallel_matches_serial_under_crashes(
        crash_seed in any::<u64>(),
        count in 1usize..3,
        degrade in any::<bool>(),
        early in any::<bool>(),
    ) {
        let machine = MachineConfig::cori_knl(1).with_cores_per_node(8);
        let w = workload(512, 9, machine.nranks());
        // Crash windows inside the ~1.03 s active run, mirroring
        // `crash_chaos`: the recovery strategies only handle crashes that
        // land while the run is still in flight (a rank that dies after
        // terminating can leave a barrier uncompletable in the *serial*
        // reference too — that envelope is a strategy property, not an
        // engine mode property, so equivalence is asserted inside it).
        let (ws, we) = if early {
            (0, 400_000_000)
        } else {
            (450_000_000, 950_000_000)
        };
        let plan = CrashPlan::seeded(crash_seed, machine.nranks(), count, ws, we, None);
        let cfg = observed(RunConfig {
            crash: plan,
            crash_response: if degrade {
                CrashResponse::Degrade
            } else {
                CrashResponse::Takeover
            },
            crash_detect_ns: 20_000_000,
            ckpt: CkptParams {
                interval_ns: 400_000_000,
                ..CkptParams::default()
            },
            rpc_max_retries: 24,
            ..RunConfig::default()
        });
        for algo in Algorithm::ALL {
            assert_parallel_equivalence(&w, &machine, algo, &cfg);
        }
    }
}

/// Multi-node shard layout: 2 nodes x 8 ranks, so shard boundaries align
/// to nodes at 2 shards and split nodes at 4/8 — both partition branches
/// run. Faults + rebirth crash + LIFO perturbation in one config.
#[test]
fn parallel_matches_serial_multi_node_lifo_and_rebirth() {
    let machine = MachineConfig::cori_knl(2).with_cores_per_node(8);
    let w = workload(512, 21, machine.nranks());
    for lifo in [false, true] {
        for rebirth in [None, Some(300_000_000)] {
            let cfg = observed(RunConfig {
                tie_break: if lifo { TieBreak::Lifo } else { TieBreak::Fifo },
                // The 16-rank run ends ~615 ms in: 450 ms is mid-run and
                // past the 400 ms checkpoint epoch, so recovery restores
                // a checkpoint rather than replaying from scratch.
                crash: CrashPlan::none().with_crash(3, 450_000_000, rebirth),
                crash_response: CrashResponse::Takeover,
                crash_detect_ns: 20_000_000,
                ckpt: CkptParams {
                    interval_ns: 400_000_000,
                    ..CkptParams::default()
                },
                fault: FaultConfig {
                    seed: 7,
                    drop_prob: 0.02,
                    delay_prob: 0.1,
                    delay_ns: 300_000,
                    ..FaultConfig::default()
                },
                rpc_max_retries: 24,
                ..RunConfig::default()
            });
            for algo in Algorithm::ALL {
                assert_parallel_equivalence(&w, &machine, algo, &cfg);
            }
        }
    }
}

/// Absurd shard counts clamp to the rank count and still match.
#[test]
fn thread_count_beyond_ranks_clamps_and_matches() {
    let machine = MachineConfig::cori_knl(1).with_cores_per_node(8);
    let w = workload(256, 3, machine.nranks());
    let serial = try_run_sim(&w, &machine, Algorithm::Async, &RunConfig::default())
        .expect("serial run completes");
    let par_cfg = RunConfig {
        threads: 64,
        ..RunConfig::default()
    };
    let par = try_run_sim(&w, &machine, Algorithm::Async, &par_cfg).expect("parallel completes");
    assert_identical(&serial, &par, "threads=64 on 8 ranks");
}
