//! Race-detector smoke run: all three coordination codes with
//! virtual-time conflict tracking enabled, under both equal-time
//! tie-break policies.
//!
//! This is the CI gate for the dynamic half of the determinism contract
//! (DESIGN.md "Determinism contract"): fault-free runs of every
//! coordination strategy must report **zero** same-virtual-time
//! conflicts, and their result checksums must be invariant under the
//! [`TieBreak::Lifo`] perturbation. A faulty async cell rides along to
//! exercise the instrumented retry / duplicate-reply paths — its
//! conflict count is reported but not gated (losses are injected).
//!
//! Exit status is nonzero if any fault-free cell reports a conflict or
//! the perturbation changes a checksum, so the workflow fails loudly.

use gnb_bench::{banner, cli_args, load_workload, write_tsv};
use gnb_core::driver::{run_sim, try_run_sim, Algorithm, RunConfig};
use gnb_sim::{FaultConfig, TieBreak};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = cli_args();
    if args.scale.is_none() {
        // Small fixed workload: the sweep is 3 algos x 2 tie-breaks + 1.
        args.scale = Some(64);
    }
    let w = load_workload("ecoli_30x", &args);
    banner(&format!(
        "Race-detector smoke: E. coli 30x (scale {}, {} tasks)",
        w.scale,
        w.synth.tasks.len()
    ));

    let machine = w.machine(2);
    let sim = w.prepare(machine.nranks());

    println!(
        "{:<6} {:<5} {:<6} | {:>8} {:>9} {:>7} | {:>10} {:>16}",
        "algo", "tie", "faults", "groups", "conflicts", "dropped", "tasks", "checksum"
    );
    let mut rows = Vec::new();
    let mut gate_failed = false;
    let mut checksums: Vec<(Algorithm, u64)> = Vec::new();

    for algo in Algorithm::ALL {
        for tb in [TieBreak::Fifo, TieBreak::Lifo] {
            let cfg = RunConfig {
                detect_races: true,
                tie_break: tb,
                ..RunConfig::default()
            };
            let r = run_sim(&sim, &machine, algo, &cfg);
            let races = r.races().expect("detection enabled");
            let tie = match tb {
                TieBreak::Fifo => "fifo",
                TieBreak::Lifo => "lifo",
            };
            println!(
                "{:<6} {:<5} {:<6} | {:>8} {:>9} {:>7} | {:>10} {:>16x}",
                algo.to_string(),
                tie,
                "none",
                races.groups_checked,
                races.records.len(),
                races.dropped,
                r.tasks_done,
                r.task_checksum,
            );
            rows.push(format!(
                "{algo}\t{tie}\tnone\t{}\t{}\t{}\t{}\t{:x}",
                races.groups_checked,
                races.records.len(),
                races.dropped,
                r.tasks_done,
                r.task_checksum,
            ));
            if !races.is_clean() {
                eprintln!("GATE: fault-free {algo}/{tie} reported conflicts:");
                eprintln!("{}", gnb_sim::render_races(races));
                gate_failed = true;
            }
            checksums.push((algo, r.task_checksum));
        }
    }

    // Perturbation gate: fifo and lifo checksums must agree per algorithm.
    for pair in checksums.chunks(2) {
        if pair[0].1 != pair[1].1 {
            eprintln!(
                "GATE: {} checksum changed under tie-break perturbation: {:x} vs {:x}",
                pair[0].0, pair[0].1, pair[1].1
            );
            gate_failed = true;
        }
    }

    // Ungated faulty cell: message loss (2% per wire message, so ~4% of
    // request/reply round trips) drives the retry / duplicate-reply
    // machinery through the instrumented state keys.
    let cfg = RunConfig {
        fault: FaultConfig {
            drop_prob: 0.02,
            ..FaultConfig::default()
        },
        rpc_timeout_ns: 500_000,
        detect_races: true,
        ..RunConfig::default()
    };
    match try_run_sim(&sim, &machine, Algorithm::Async, &cfg) {
        Ok(r) => {
            let races = r.races().expect("detection enabled");
            println!(
                "{:<6} {:<5} {:<6} | {:>8} {:>9} {:>7} | {:>10} {:>16x}",
                "async",
                "fifo",
                "drop",
                races.groups_checked,
                races.records.len(),
                races.dropped,
                r.tasks_done,
                r.task_checksum,
            );
            rows.push(format!(
                "async\tfifo\tdrop\t{}\t{}\t{}\t{}\t{:x}",
                races.groups_checked,
                races.records.len(),
                races.dropped,
                r.tasks_done,
                r.task_checksum,
            ));
        }
        Err(e) => {
            // Injected losses can exhaust the retry budget at some scales;
            // the faulty cell is ungated, so report and move on.
            println!("{:<6} {:<5} {:<6} | {e}", "async", "fifo", "drop");
            rows.push("async\tfifo\tdrop\texhausted\t0\t0\t0\t0".to_string());
        }
    }

    write_tsv(
        "race_smoke.tsv",
        "algo\ttie_break\tfaults\tgroups_checked\tconflicts\tdropped\ttasks_done\ttask_checksum",
        &rows,
    );

    if gate_failed {
        eprintln!("expt_races: determinism gate FAILED");
        ExitCode::FAILURE
    } else {
        println!("expt_races: determinism gate passed (all fault-free cells clean)");
        ExitCode::SUCCESS
    }
}
