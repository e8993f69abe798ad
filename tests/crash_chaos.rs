//! Crash-stop chaos: random crash schedules against all three
//! coordination codes, under both crash responses.
//!
//! Three properties pin the failure subsystem's promises:
//!
//! * **takeover is exact and deterministic** — any schedule of crashes
//!   completes every task with the fault-free checksum, restores exactly
//!   one checkpoint per dead rank, and replays bit-identically;
//! * **degrade is honest** — an abandoned shard's coverage loss is
//!   reported exactly: the dead rank's own tasks, plus (for the RPC
//!   codes) the surviving ranks' groups whose reads the dead rank owned;
//! * **the empty plan is inert** — a crash-free [`CrashPlan`] with
//!   checkpointing configured produces byte-for-byte the report of a
//!   default run, pinned against the pre-crash golden constants.

use gnb::core::driver::{run_sim, try_run_sim, Algorithm, CrashResponse, RunConfig};
use gnb::core::workload::SimWorkload;
use gnb::core::MachineConfig;
use gnb::genome::presets;
use gnb::overlap::synth::{synthesize, SynthParams};
use gnb::sim::{CkptParams, CrashPlan, FaultConfig};
use proptest::prelude::*;

fn workload(scale: usize, seed: u64, nranks: usize) -> SimWorkload {
    let preset = presets::ecoli_30x().scaled(scale);
    let s = synthesize(&SynthParams::from_preset(&preset), seed);
    SimWorkload::prepare(&s.lengths, &s.tasks, &s.overlap_len, nranks)
}

fn crash_cfg(plan: CrashPlan, response: CrashResponse) -> RunConfig {
    RunConfig {
        crash: plan,
        crash_response: response,
        crash_detect_ns: 20_000_000,
        ckpt: CkptParams {
            interval_ns: 400_000_000,
            ..CkptParams::default()
        },
        rpc_max_retries: 24,
        ..RunConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random crash schedules x all three codes under takeover: every
    /// task completes, the checksum is the fault-free one, exactly one
    /// checkpoint restore happens per dead rank, and the whole run —
    /// timeline, ledgers, recovery counters — replays bit-identically.
    #[test]
    fn takeover_completes_everything_and_replays_identically(
        crash_seed in any::<u64>(),
        count in 1usize..4,
        early in any::<bool>(),
    ) {
        let machine = MachineConfig::cori_knl(1).with_cores_per_node(8);
        let w = workload(512, 9, machine.nranks());
        // This workload ends around 1.03 s virtual. Early schedules crash
        // before the 400 ms checkpoint epoch (successors replay from
        // scratch); late ones crash after it (restore a checkpoint).
        let (ws, we) = if early {
            (0, 400_000_000)
        } else {
            (450_000_000, 950_000_000)
        };
        let plan = CrashPlan::seeded(crash_seed, machine.nranks(), count, ws, we, None);
        let n_dead = plan.crashes.len();
        let clean = run_sim(&w, &machine, Algorithm::Async, &RunConfig::default());
        let cfg = crash_cfg(plan, CrashResponse::Takeover);
        for algo in Algorithm::ALL {
            let a = match try_run_sim(&w, &machine, algo, &cfg) {
                Ok(r) => r,
                Err(e) => return Err(TestCaseError::fail(format!("{algo}: {e}"))),
            };
            let b = try_run_sim(&w, &machine, algo, &cfg).unwrap();
            prop_assert_eq!(&a.report, &b.report, "{} replay diverged", algo);
            prop_assert_eq!(&a.recovery, &b.recovery, "{} counters diverged", algo);
            prop_assert_eq!(a.tasks_done as usize, w.total_tasks, "{}", algo);
            prop_assert_eq!(a.lost_tasks, 0, "{}", algo);
            prop_assert_eq!(a.task_checksum, clean.task_checksum, "{}", algo);
            // Every dead shard is adopted exactly once; a checkpoint is
            // *restored* only when one existed before the crash, so the
            // restore count is bounded by (not pinned to) the body count.
            prop_assert!(a.recovery.takeovers >= n_dead as u64, "{}", algo);
            prop_assert!(a.recovery.restores <= n_dead as u64, "{}", algo);
            prop_assert_eq!(a.dead_ranks.len(), n_dead, "{}", algo);
        }
    }

    /// A rank dead from t=0 under degrade: the reported coverage loss is
    /// exactly the shard that died — its own tasks, plus (for the RPC
    /// codes) every surviving rank's group whose reads it owned. BSP
    /// replicates reads through pre-compute collectives among survivors,
    /// so it loses only the dead rank's own tasks. Deterministic across
    /// repeats.
    #[test]
    fn degrade_reports_exactly_the_lost_shard(dead in 0usize..8) {
        let machine = MachineConfig::cori_knl(1).with_cores_per_node(8);
        let w = workload(512, 9, machine.nranks());
        let plan = CrashPlan::none().with_crash(dead, 0, None);
        let cfg = crash_cfg(plan, CrashResponse::Degrade);
        let dead_own = w.per_rank[dead].total_tasks() as u64;
        let orphaned: u64 = w
            .per_rank
            .iter()
            .enumerate()
            .filter(|(r, _)| *r != dead)
            .flat_map(|(_, rd)| rd.groups.iter())
            .filter(|g| g.owner as usize == dead)
            .map(|g| g.tasks.len() as u64)
            .sum();
        for algo in Algorithm::ALL {
            let a = match try_run_sim(&w, &machine, algo, &cfg) {
                Ok(r) => r,
                Err(e) => return Err(TestCaseError::fail(format!("{algo}: {e}"))),
            };
            let expected_lost = match algo {
                Algorithm::Bsp => dead_own,
                _ => dead_own + orphaned,
            };
            prop_assert_eq!(
                a.tasks_done + a.lost_tasks,
                w.total_tasks as u64,
                "{} dropped tasks unaccounted", algo
            );
            prop_assert_eq!(a.lost_tasks, expected_lost, "{}", algo);
            prop_assert_eq!(&a.dead_ranks, &vec![dead], "{}", algo);
            let b = try_run_sim(&w, &machine, algo, &cfg).unwrap();
            prop_assert_eq!(&a.report, &b.report, "{} replay diverged", algo);
        }
    }

    /// Mid-run crashes under degrade: whatever was completed before the
    /// loss stays counted, the books balance exactly, and the outcome is
    /// repeatable.
    #[test]
    fn degrade_mid_run_books_balance(
        crash_seed in any::<u64>(),
        count in 1usize..3,
    ) {
        let machine = MachineConfig::cori_knl(1).with_cores_per_node(8);
        let w = workload(512, 9, machine.nranks());
        let plan = CrashPlan::seeded(crash_seed, machine.nranks(), count, 500_000_000, 3_000_000_000, None);
        let cfg = crash_cfg(plan, CrashResponse::Degrade);
        for algo in Algorithm::ALL {
            let a = match try_run_sim(&w, &machine, algo, &cfg) {
                Ok(r) => r,
                Err(e) => return Err(TestCaseError::fail(format!("{algo}: {e}"))),
            };
            prop_assert_eq!(
                a.tasks_done + a.lost_tasks,
                w.total_tasks as u64,
                "{}", algo
            );
            prop_assert!(a.lost_tasks > 0, "{}: a dead shard must cost coverage", algo);
            prop_assert_eq!(a.recovery.takeovers, 0, "{}: degrade never adopts", algo);
            prop_assert_eq!(a.recovery.restores, 0, "{}", algo);
            let b = try_run_sim(&w, &machine, algo, &cfg).unwrap();
            prop_assert_eq!(&a.report, &b.report, "{} replay diverged", algo);
        }
    }
}

/// A crash landing *after* a checkpoint epoch must recover through the
/// checkpoint, not by replaying from scratch: the successor books exactly
/// one restore per dead rank and credits the checkpointed tasks as
/// recovered work.
#[test]
fn late_crash_restores_from_checkpoint() {
    let machine = MachineConfig::cori_knl(1).with_cores_per_node(8);
    let w = workload(512, 9, machine.nranks());
    let plan = CrashPlan::none().with_crash(3, 700_000_000, None);
    let cfg = RunConfig {
        crash: plan,
        crash_response: CrashResponse::Takeover,
        crash_detect_ns: 20_000_000,
        ckpt: CkptParams {
            interval_ns: 200_000_000,
            ..CkptParams::default()
        },
        rpc_max_retries: 24,
        ..RunConfig::default()
    };
    let clean = run_sim(&w, &machine, Algorithm::Async, &RunConfig::default());
    for algo in Algorithm::ALL {
        let r = try_run_sim(&w, &machine, algo, &cfg).unwrap_or_else(|e| panic!("{algo}: {e}"));
        assert_eq!(r.tasks_done as usize, w.total_tasks, "{algo}");
        assert_eq!(r.task_checksum, clean.task_checksum, "{algo}");
        assert_eq!(r.recovery.restores, 1, "{algo}: must restore, not replay");
        if algo != Algorithm::Bsp {
            assert!(
                r.recovery.recovered_tasks > 0,
                "{algo}: checkpointed progress must be credited"
            );
        }
    }
}

/// The empty crash plan is inert even with checkpointing aggressively
/// configured: byte-identical reports to a default run, under both
/// responses, pinned against the pre-crash golden constants
/// (`tests/golden_report.rs`).
#[test]
fn crash_free_plan_is_byte_inert() {
    let machine = MachineConfig::cori_knl(2).with_cores_per_node(4);
    let preset = presets::ecoli_30x().scaled(128);
    let s = synthesize(&SynthParams::from_preset(&preset), 11);
    let w = SimWorkload::prepare(&s.lengths, &s.tasks, &s.overlap_len, machine.nranks());
    for algo in Algorithm::ALL {
        let base = run_sim(&w, &machine, algo, &RunConfig::default());
        for response in [CrashResponse::Takeover, CrashResponse::Degrade] {
            let cfg = RunConfig {
                crash: CrashPlan::none(),
                crash_response: response,
                crash_detect_ns: 1_000,
                ckpt: CkptParams {
                    interval_ns: 1_000_000,
                    base_ns: 1,
                    per_kib_ns: 1,
                },
                ..RunConfig::default()
            };
            let r = run_sim(&w, &machine, algo, &cfg);
            assert_eq!(base.report, r.report, "{algo}/{response:?} perturbed");
            assert_eq!(base.task_checksum, r.task_checksum, "{algo}/{response:?}");
            assert_eq!(base.recovery, r.recovery, "{algo}/{response:?}");
            assert_eq!(r.lost_tasks, 0, "{algo}/{response:?}");
            assert!(r.dead_ranks.is_empty(), "{algo}/{response:?}");
        }
        // The same seed the golden-report test pins: any drift here is a
        // timeline change, not layout noise.
        match algo {
            Algorithm::Bsp => {
                assert_eq!(base.report.end_time.as_ns(), 5_826_180_889);
                assert_eq!(base.tasks_done, 8251);
                assert_eq!(base.task_checksum, 4_127_439_519_545_553_733);
            }
            Algorithm::Async => {
                assert_eq!(base.report.end_time.as_ns(), 5_851_261_748);
                assert_eq!(base.events, 2953);
            }
            _ => {}
        }
    }
}

/// BSP restoring a mid-run superstep checkpoint. With 64 KiB per core the
/// exchange takes many rounds, so a crash at 30 % or 50 % of the
/// crash-free run lands after several superstep checkpoints: the
/// successor must restore the latest one, credit its tasks as recovered
/// and replay only the rounds after it.
#[test]
fn bsp_restores_a_mid_run_superstep_checkpoint() {
    let mut machine = MachineConfig::cori_knl(1).with_cores_per_node(8);
    machine.mem_per_core = 64 << 10;
    let w = workload(512, 9, machine.nranks());
    let clean = run_sim(&w, &machine, Algorithm::Bsp, &RunConfig::default());
    assert!(clean.rounds > 1, "rounds {}", clean.rounds);
    let end = clean.report.end_time.as_ns();
    for pct in [30, 50] {
        let plan = CrashPlan::none().with_crash(3, end / 100 * pct, None);
        let cfg = crash_cfg(plan, CrashResponse::Takeover);
        let r = try_run_sim(&w, &machine, Algorithm::Bsp, &cfg)
            .unwrap_or_else(|e| panic!("{pct} %: {e}"));
        assert_eq!(r.rounds, clean.rounds, "{pct} %");
        assert_eq!(r.tasks_done as usize, w.total_tasks, "{pct} %");
        assert_eq!(r.task_checksum, clean.task_checksum, "{pct} %");
        assert_eq!(r.recovery.restores, 1, "{pct} %: must restore, not replay");
        assert!(
            r.recovery.recovered_tasks > 0,
            "{pct} %: the checkpointed rounds must be credited"
        );
    }
}

/// A crashed rank that is reborn while its successor replays its shard,
/// for every strategy, with and without message faults: the run still
/// completes every task exactly once through one checkpoint restore.
#[test]
fn reborn_rank_completes_under_every_strategy() {
    let machine = MachineConfig::cori_knl(2).with_cores_per_node(8);
    let w = workload(512, 21, machine.nranks());
    let clean = run_sim(&w, &machine, Algorithm::Async, &RunConfig::default());
    for faults in [false, true] {
        // The 16-rank run ends ~615 ms in: 450 ms is mid-run and past the
        // 400 ms checkpoint epoch.
        let mut cfg = crash_cfg(
            CrashPlan::none().with_crash(3, 450_000_000, Some(300_000_000)),
            CrashResponse::Takeover,
        );
        if faults {
            cfg.fault = FaultConfig {
                seed: 7,
                drop_prob: 0.02,
                delay_prob: 0.1,
                delay_ns: 300_000,
                ..FaultConfig::default()
            };
        }
        for algo in Algorithm::ALL {
            let at = format!("{algo} faults={faults}");
            let r = try_run_sim(&w, &machine, algo, &cfg).unwrap_or_else(|e| panic!("{at}: {e}"));
            assert_eq!(r.tasks_done as usize, w.total_tasks, "{at}");
            assert_eq!(r.task_checksum, clean.task_checksum, "{at}");
            assert_eq!(r.recovery.restores, 1, "{at}");
        }
    }
}
