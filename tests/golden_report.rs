//! Golden-report regression test for the coordination-runtime refactor.
//!
//! Pins every integer observable of one fault-free seed (E. coli 30x,
//! scale 128, synth seed 11, 2 KNL nodes x 4 cores) for both coordination
//! codes. The constants below were captured from the pre-refactor rank
//! programs; the refactored `RankRuntime`-hosted strategies must
//! reproduce them bit-for-bit — virtual end time, per-category ledger
//! sums, event counts, task checksums, memory peaks. Any drift means the
//! port changed the timeline, not just the code layout.
//!
//! The AggAsync row and the three-strategy recovery group were captured
//! later, from the last tree in which Async and AggAsync were separate
//! copies of the pull protocol and every strategy armed its own adoption
//! timers; the shared pull machine and runtime-owned adoption must
//! reproduce them the same way.

use gnb::core::driver::{run_sim, Algorithm, CrashResponse, RecoveryStats, RunConfig, RunResult};
use gnb::core::machine::MachineConfig;
use gnb::core::workload::SimWorkload;
use gnb::genome::presets;
use gnb::overlap::synth::{synthesize, SynthParams};
use gnb::sim::{CkptParams, CrashPlan};

/// One algorithm's pinned observables (all integers: bit-exact).
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    end_time_ns: u64,
    /// Ledger sums across ranks, ns: compute, overhead, comm, sync, recovery.
    ledger_ns: [u64; 5],
    unclassified_ns: u64,
    events: u64,
    /// Busy-rank + stall deferrals (`SimReport::deferrals`): pinned before
    /// the two-level event queue landed, and must not move with it.
    deferrals: u64,
    tasks_done: u64,
    task_checksum: u64,
    rounds: usize,
    max_mem_peak: u64,
    mem_peak_sum: u64,
}

fn observe(algo: Algorithm) -> Golden {
    let machine = MachineConfig::cori_knl(2).with_cores_per_node(4);
    let preset = presets::ecoli_30x().scaled(128);
    let w = synthesize(&SynthParams::from_preset(&preset), 11);
    let sim = SimWorkload::prepare(&w.lengths, &w.tasks, &w.overlap_len, machine.nranks());
    golden(&run_sim(&sim, &machine, algo, &RunConfig::default()))
}

fn golden(res: &RunResult) -> Golden {
    let mut ledger_ns = [0u64; 5];
    let mut unclassified_ns = 0u64;
    for r in &res.report.ranks {
        for (c, t) in r.ledger.iter().enumerate() {
            ledger_ns[c] += t.as_ns();
        }
        unclassified_ns += r.unclassified_idle.as_ns();
    }
    Golden {
        end_time_ns: res.report.end_time.as_ns(),
        ledger_ns,
        unclassified_ns,
        events: res.events,
        deferrals: res.report.deferrals,
        tasks_done: res.tasks_done,
        task_checksum: res.task_checksum,
        rounds: res.rounds,
        max_mem_peak: res.max_mem_peak,
        mem_peak_sum: res.mem_peaks.iter().sum(),
    }
}

#[test]
fn bsp_report_matches_pre_refactor_golden() {
    let got = observe(Algorithm::Bsp);
    println!("BSP {got:?}");
    let want = Golden {
        end_time_ns: 5_826_180_889,
        ledger_ns: [33_051_535_668, 165_020_000, 7_751_736, 13_385_139_708, 0],
        unclassified_ns: 0,
        events: 24,
        deferrals: 0,
        tasks_done: 8251,
        task_checksum: 4_127_439_519_545_553_733,
        rounds: 1,
        max_mem_peak: 2_071_390,
        mem_peak_sum: 16_498_147,
    };
    assert_eq!(got, want);
}

#[test]
fn async_report_matches_pre_refactor_golden() {
    let got = observe(Algorithm::Async);
    println!("Async {got:?}");
    let want = Golden {
        end_time_ns: 5_851_261_748,
        ledger_ns: [33_051_535_668, 373_900_500, 0, 13_384_656_833, 0],
        unclassified_ns: 983,
        events: 2953,
        deferrals: 101_019,
        tasks_done: 8251,
        task_checksum: 4_127_439_519_545_553_733,
        rounds: 1,
        max_mem_peak: 1_139_777,
        mem_peak_sum: 8_987_960,
    };
    assert_eq!(got, want);
}

#[test]
fn aggasync_report_matches_golden() {
    let got = observe(Algorithm::AggAsync);
    println!("AggAsync {got:?}");
    let want = Golden {
        end_time_ns: 5_851_182_649,
        ledger_ns: [33_051_535_668, 373_293_600, 0, 13_384_630_956, 0],
        unclassified_ns: 968,
        events: 1317,
        deferrals: 2138,
        tasks_done: 8251,
        task_checksum: 4_127_439_519_545_553_733,
        rounds: 1,
        max_mem_peak: 1_125_474,
        mem_peak_sum: 8_802_770,
    };
    assert_eq!(got, want);
}

/// The recovery paths — retry, dedup, checkpoint, restore, shard adoption
/// — pinned like the fault-free ones: the configuration of
/// `crash_chaos.rs::late_crash_restores_from_checkpoint` (rank 3 of 8 dies
/// at 700 ms, checkpoints every 200 ms) on a wire that also drops 5% of
/// messages, so one run exercises every `RecoveryStats` counter.
fn observe_recovery(algo: Algorithm) -> (Golden, RecoveryStats) {
    let machine = MachineConfig::cori_knl(1).with_cores_per_node(8);
    let preset = presets::ecoli_30x().scaled(512);
    let w = synthesize(&SynthParams::from_preset(&preset), 9);
    let sim = SimWorkload::prepare(&w.lengths, &w.tasks, &w.overlap_len, machine.nranks());
    let mut cfg = RunConfig {
        crash: CrashPlan::none().with_crash(3, 700_000_000, None),
        crash_response: CrashResponse::Takeover,
        crash_detect_ns: 20_000_000,
        ckpt: CkptParams {
            interval_ns: 200_000_000,
            ..CkptParams::default()
        },
        rpc_max_retries: 24,
        ..RunConfig::default()
    };
    cfg.fault.drop_prob = 0.05;
    let res = run_sim(&sim, &machine, algo, &cfg);
    (golden(&res), res.recovery)
}

#[test]
fn recovery_reports_match_golden() {
    // All three complete 820 of 820 tasks with one checksum.
    let pinned =
        |end_time_ns, ledger_ns, unclassified_ns, events, deferrals, mem: [u64; 2]| Golden {
            end_time_ns,
            ledger_ns,
            unclassified_ns,
            events,
            deferrals,
            tasks_done: 820,
            task_checksum: 1_024_455_708_762_885_677,
            rounds: 1,
            max_mem_peak: mem[0],
            mem_peak_sum: mem[1],
        };
    let adopted_once = RecoveryStats {
        takeovers: 1,
        restores: 1,
        ..RecoveryStats::default()
    };
    let want = [
        (
            Algorithm::Bsp,
            pinned(
                1_918_549_341,
                [
                    7_581_040_759,
                    18_016_000,
                    5_711_800,
                    466_599_881,
                    946_313_626,
                ],
                0,
                24,
                2,
                [567_532, 4_378_537],
            ),
            adopted_once,
        ),
        (
            Algorithm::Async,
            pinned(
                1_463_271_378,
                [7_341_528_346, 939_739_691, 0, 1_294_072_531, 310_780_096],
                205,
                1292,
                11_567,
                [297_951, 2_261_981],
            ),
            RecoveryStats {
                retries: 38,
                dup_replies: 13,
                recovered_tasks: 67,
                ..adopted_once
            },
        ),
        (
            Algorithm::AggAsync,
            pinned(
                1_310_904_969,
                [
                    7_356_919_239,
                    779_261_695,
                    34_784_265,
                    1_364_265_371,
                    317_406_179,
                ],
                221,
                661,
                1626,
                [293_148, 2_227_571],
            ),
            RecoveryStats {
                retries: 25,
                dup_replies: 18,
                recovered_tasks: 73,
                ..adopted_once
            },
        ),
    ];
    for (algo, golden, recovery) in want {
        let got = observe_recovery(algo);
        println!("{algo} {got:?}");
        assert_eq!(got, (golden, recovery), "{algo}");
    }
}
