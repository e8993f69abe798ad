//! Golden-report regression test for the coordination-runtime refactor.
//!
//! Pins every integer observable of one fault-free seed (E. coli 30x,
//! scale 128, synth seed 11, 2 KNL nodes x 4 cores) for both coordination
//! codes. The constants below were captured from the pre-refactor rank
//! programs; the refactored `RankRuntime`-hosted strategies must
//! reproduce them bit-for-bit — virtual end time, per-category ledger
//! sums, event counts, task checksums, memory peaks. Any drift means the
//! port changed the timeline, not just the code layout.

use gnb::core::driver::{run_sim, Algorithm, RunConfig};
use gnb::core::machine::MachineConfig;
use gnb::core::workload::SimWorkload;
use gnb::genome::presets;
use gnb::overlap::synth::{synthesize, SynthParams};

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
    let res = run_sim(&sim, &machine, algo, &RunConfig::default());
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
