//! Deferrals per event: how often the engine re-queues a popped event
//! because its rank is still busy (or frozen by an injected stall), for
//! the three coordination codes on the task graphs of the three simulator
//! workloads of `benchmark/` (same presets, scales, node counts and seed,
//! so `events` and `end_ns` here equal the pins in
//! `benchmark/expected.json`). `--scale N` divides every graph by a
//! further `N` for a quick look.
//!
//! `SimReport::deferrals` is a property of the simulated timeline, not of
//! the queue that holds the events: the table must not move when the
//! event queue's implementation does.

use gnb_bench::{banner, cli_args, load_workload, write_tsv, CliArgs};
use gnb_core::driver::{try_run_sim, Algorithm, CrashResponse, RunConfig};
use gnb_core::machine::MachineConfig;
use gnb_core::workload::SimWorkload;
use gnb_sim::ckpt::CkptParams;
use gnb_sim::fault::{CrashPlan, FaultConfig};
use std::cmp::Reverse;

/// `benchmark/src/sim.rs::chaos_config`: message faults, stragglers, lost
/// BSP rounds and three early crashes of the most loaded ranks under
/// takeover, calibrated off a crash-free BSP run.
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
        .take(3)
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

fn main() {
    let args = cli_args();
    // (benchmark workload, preset, scale divisor, nodes, chaos recipe)
    let cells = [
        ("sim_ecoli30x_2n", "ecoli_30x", 4, 2, false),
        ("sim_humanccs_16n", "human_ccs", 512, 16, false),
        ("sim_ecoli30x_chaos", "ecoli_30x", 32, 4, true),
    ];
    banner("Deferrals per event (busy-rank + stall re-queues / dispatched events)");
    println!(
        "{:<20} {:<9} | {:>9} {:>11} {:>9} | {:>14}",
        "workload", "algo", "events", "deferrals", "per_event", "end_ns"
    );
    let mut rows = Vec::new();
    for (name, preset, scale, nodes, chaos) in cells {
        let w = load_workload(
            preset,
            &CliArgs {
                scale: Some(scale * args.scale.unwrap_or(1)),
                ..args
            },
        );
        let machine = w.machine(nodes);
        let sim = w.prepare(machine.nranks());
        let cfg = if chaos {
            chaos_config(&sim, &machine)
        } else {
            RunConfig::default()
        };
        for algo in Algorithm::ALL {
            let r = try_run_sim(&sim, &machine, algo, &cfg).expect("the run completes");
            let per_event = r.report.deferrals as f64 / r.events as f64;
            println!(
                "{:<20} {:<9} | {:>9} {:>11} {:>9.1} | {:>14}",
                name,
                algo.to_string(),
                r.events,
                r.report.deferrals,
                per_event,
                r.report.end_time.as_ns()
            );
            rows.push(format!(
                "{name}\t{algo}\t{}\t{}\t{per_event:.1}\t{}",
                r.events,
                r.report.deferrals,
                r.report.end_time.as_ns()
            ));
        }
    }
    write_tsv(
        "deferrals.tsv",
        "workload\talgo\tevents\tdeferrals\tdeferrals_per_event\tend_ns",
        &rows,
    );
}
