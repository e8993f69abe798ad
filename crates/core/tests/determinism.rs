//! Determinism suite for the three coordination codes (DESIGN.md
//! "Determinism contract"): the virtual-time race detector must report
//! zero conflicts on fault-free default configurations, and fault-free
//! results must be invariant under the equal-time tie-break perturbation.

use gnb_core::driver::{run_sim, Algorithm, RunConfig};
use gnb_core::machine::MachineConfig;
use gnb_core::workload::SimWorkload;
use gnb_genome::presets;
use gnb_overlap::synth::{synthesize, SynthParams};
use gnb_sim::{FaultConfig, TieBreak};

fn workload(nranks: usize) -> SimWorkload {
    let preset = presets::ecoli_30x().scaled(128);
    let w = synthesize(&SynthParams::from_preset(&preset), 11);
    SimWorkload::prepare(&w.lengths, &w.tasks, &w.overlap_len, nranks)
}

fn machine(nodes: usize, cores: usize) -> MachineConfig {
    MachineConfig::cori_knl(nodes).with_cores_per_node(cores)
}

#[test]
fn fault_free_default_configs_report_zero_races() {
    let m = machine(2, 4);
    let w = workload(m.nranks());
    let cfg = RunConfig {
        detect_races: true,
        ..RunConfig::default()
    };
    for algo in Algorithm::ALL {
        let res = run_sim(&w, &m, algo, &cfg);
        let races = res.races().expect("detection enabled");
        assert!(races.is_clean(), "{algo}: {:?}", races.records);
        // The async runs are instrumented, so coverage must be non-zero.
        if algo != Algorithm::Bsp {
            assert!(
                races.groups_checked > 0,
                "{algo}: instrumentation never fired"
            );
        }
    }
}

#[test]
fn race_detection_does_not_change_results() {
    let m = machine(2, 4);
    let w = workload(m.nranks());
    for algo in Algorithm::ALL {
        let plain = run_sim(&w, &m, algo, &RunConfig::default());
        let detected = run_sim(
            &w,
            &m,
            algo,
            &RunConfig {
                detect_races: true,
                ..RunConfig::default()
            },
        );
        assert_eq!(plain.tasks_done, detected.tasks_done, "{algo}");
        assert_eq!(plain.task_checksum, detected.task_checksum, "{algo}");
        assert_eq!(plain.breakdown, detected.breakdown, "{algo}");
        assert_eq!(plain.events, detected.events, "{algo}");
    }
}

#[test]
fn fault_free_checksums_invariant_under_tie_break_perturbation() {
    let m = machine(2, 4);
    let w = workload(m.nranks());
    for algo in Algorithm::ALL {
        let run = |tb: TieBreak| {
            run_sim(
                &w,
                &m,
                algo,
                &RunConfig {
                    tie_break: tb,
                    ..RunConfig::default()
                },
            )
        };
        let fifo = run(TieBreak::Fifo);
        let lifo = run(TieBreak::Lifo);
        // Results must be invariant; timing-dependent observables (peak
        // buffered replies, idle tails) legitimately shift with the
        // consumption order of genuinely concurrent events.
        assert_eq!(fifo.tasks_done, lifo.tasks_done, "{algo}");
        assert_eq!(fifo.task_checksum, lifo.task_checksum, "{algo}");
        assert_eq!(fifo.rounds, lifo.rounds, "{algo}");
    }
}

#[test]
fn faulty_runs_with_detection_still_complete_and_stay_deterministic() {
    // Message loss exercises the instrumented retry/duplicate paths with
    // detection on; whatever conflicts surface must be identical across
    // repeat runs (the detector itself is deterministic).
    let m = machine(2, 4);
    let w = workload(m.nranks());
    let cfg = RunConfig {
        fault: FaultConfig {
            drop_prob: 0.05,
            ..FaultConfig::default()
        },
        rpc_timeout_ns: 100_000,
        detect_races: true,
        ..RunConfig::default()
    };
    for algo in [Algorithm::Async, Algorithm::AggAsync] {
        let reliable = run_sim(&w, &m, algo, &RunConfig::default());
        let a = run_sim(&w, &m, algo, &cfg);
        let b = run_sim(&w, &m, algo, &cfg);
        assert_eq!(a.tasks_done as usize, w.total_tasks, "{algo}");
        assert_eq!(a.task_checksum, reliable.task_checksum, "{algo}");
        assert!(
            a.recovery.retries > 0,
            "{algo}: injection must actually fire"
        );
        assert_eq!(
            a.races().map(|r| r.records.clone()),
            b.races().map(|r| r.records.clone()),
            "{algo}"
        );
    }
}

#[test]
fn threads_is_inert_and_never_panics() {
    // `RunConfig::threads` no longer selects anything: every value, the
    // absurd ones included, must return the result `threads: 1` does.
    let m = machine(2, 4);
    let w = workload(m.nranks());
    for algo in Algorithm::ALL {
        let run = |threads: usize| {
            let cfg = RunConfig {
                threads,
                ..RunConfig::default()
            };
            format!("{:?}", run_sim(&w, &m, algo, &cfg))
        };
        let one = run(1);
        for threads in [0, 2, usize::MAX] {
            assert_eq!(run(threads), one, "{algo} threads={threads}");
        }
    }
}
