//! Crash-stop chaos sweep: all three coordination codes under rank
//! failures, measuring availability under the two crash responses.
//!
//! The paper's runs assume every rank survives to the final barrier. This
//! experiment kills ranks mid-run with a deterministic [`CrashPlan`] and
//! sweeps both recovery policies:
//!
//! * **takeover** — each dead rank's designated successor restores its
//!   last checkpoint, replays its shard, and re-fetches its unfinished
//!   reads, so the run completes every task (availability 1.0);
//! * **degrade** — the dead rank's shard is abandoned and the run reports
//!   exactly the lost coverage (availability < 1.0, `lost_tasks` > 0).
//!
//! Every cell is a pure function of the seeds, so the whole sweep is run
//! **twice** and the TSVs are compared byte-for-byte; any divergence is a
//! determinism bug and fails the process. Three more gates run after the
//! sweep (all enforced via exit code, so CI can call this binary
//! directly):
//!
//! 1. every takeover cell completes with all tasks done;
//! 2. recovered work is real: each takeover cell restores exactly one
//!    checkpoint per scheduled crash (with at least as many takeovers,
//!    since in-flight reads retarget too), and checkpointed progress is
//!    actually recovered somewhere in the sweep;
//! 3. the two sweep passes produced byte-identical TSVs.
//!
//! `--quick` shrinks the grid to the 3-crash column (the acceptance
//! floor) for CI; the full grid sweeps 1–3 crashes across two schedule
//! seeds.

use gnb_bench::{banner, cli_args, load_workload, write_tsv};
use gnb_core::driver::{try_run_sim, Algorithm, CrashResponse, RunConfig, RunError};
use gnb_sim::ckpt::CkptParams;
use gnb_sim::fault::CrashPlan;

/// Crash schedule seeds swept (one in `--quick` mode).
const SCHEDULE_SEEDS: [u64; 2] = [7, 19];
/// Crash counts swept (`--quick` keeps only the last: the acceptance
/// criterion's ≥3-crash column).
const CRASH_COUNTS: [usize; 3] = [1, 2, 3];

struct Cell {
    row: String,
    algo: Algorithm,
    response: CrashResponse,
    crashes: usize,
    ok: bool,
    tasks_done: u64,
    total: u64,
    lost: u64,
    takeovers: u64,
    restores: u64,
    recovered: u64,
}

/// One full pass over the grid. Called twice; both passes must produce
/// identical rows.
fn sweep(
    sim: &gnb_core::workload::SimWorkload,
    machine: &gnb_core::MachineConfig,
    baseline: &RunConfig,
    baseline_end_ns: u64,
    counts: &[usize],
    seeds: &[u64],
    print: bool,
) -> Vec<Cell> {
    let mut cells = Vec::new();
    // Crashes land squarely mid-run: after checkpoints have accumulated,
    // well before the natural end.
    let (w_start, w_end) = (baseline_end_ns / 4, baseline_end_ns * 3 / 5);
    for &count in counts {
        for &seed in seeds {
            let plan = CrashPlan::seeded(seed, machine.nranks(), count, w_start, w_end, None);
            for response in [CrashResponse::Takeover, CrashResponse::Degrade] {
                for algo in Algorithm::ALL {
                    let cfg = RunConfig {
                        crash: plan.clone(),
                        crash_response: response,
                        ..baseline.clone()
                    };
                    let cell = match try_run_sim(sim, machine, algo, &cfg) {
                        Ok(r) => {
                            let avail = r.tasks_done as f64 / sim.total_tasks as f64;
                            if print {
                                println!(
                                    "{:>4} {:>4} {:<6} {:<9} {:<6} | {:>9.3} {:>8.4} | {:>5} {:>5} {:>9} {:>7}",
                                    count,
                                    seed,
                                    algo.to_string(),
                                    format!("{response:?}").to_lowercase(),
                                    "ok",
                                    r.runtime(),
                                    avail,
                                    r.recovery.takeovers,
                                    r.recovery.restores,
                                    r.recovery.recovered_tasks,
                                    r.lost_tasks,
                                );
                            }
                            Cell {
                                row: format!(
                                    "{count}\t{seed}\t{algo}\t{}\tok\t{}\t{}\t{}\t{:.6}\t{}\t{}\t{}\t{}\t{}\t{}",
                                    format!("{response:?}").to_lowercase(),
                                    r.report.end_time.as_ns(),
                                    r.tasks_done,
                                    sim.total_tasks,
                                    avail,
                                    r.lost_tasks,
                                    r.recovery.takeovers,
                                    r.recovery.restores,
                                    r.recovery.recovered_tasks,
                                    r.recovery.retries,
                                    r.task_checksum,
                                ),
                                algo,
                                response,
                                crashes: count,
                                ok: true,
                                tasks_done: r.tasks_done,
                                total: sim.total_tasks as u64,
                                lost: r.lost_tasks,
                                takeovers: r.recovery.takeovers,
                                restores: r.recovery.restores,
                                recovered: r.recovery.recovered_tasks,
                            }
                        }
                        Err(e @ RunError::RetryBudgetExhausted { .. }) => {
                            if print {
                                println!(
                                    "{:>4} {:>4} {:<6} {:<9} {:<6} | {e}",
                                    count,
                                    seed,
                                    algo.to_string(),
                                    format!("{response:?}").to_lowercase(),
                                    "failed",
                                );
                            }
                            Cell {
                                row: format!(
                                    "{count}\t{seed}\t{algo}\t{}\tfailed\t0\t0\t{}\t0\t0\t0\t0\t0\t0\t0",
                                    format!("{response:?}").to_lowercase(),
                                    sim.total_tasks,
                                ),
                                algo,
                                response,
                                crashes: count,
                                ok: false,
                                tasks_done: 0,
                                total: sim.total_tasks as u64,
                                lost: sim.total_tasks as u64,
                                takeovers: 0,
                                restores: 0,
                                recovered: 0,
                            }
                        }
                        Err(e) => panic!("{e}"),
                    };
                    cells.push(cell);
                }
            }
        }
    }
    cells
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut args = cli_args();
    if args.scale.is_none() {
        args.scale = Some(if quick { 256 } else { 64 });
    }
    let w = load_workload("ecoli_30x", &args);
    let machine = w.machine(2).with_cores_per_node(8);
    let sim = w.prepare(machine.nranks());
    banner(&format!(
        "Crash chaos sweep: E. coli 30x (scale {}, {} tasks, {} ranks){}",
        w.scale,
        sim.total_tasks,
        machine.nranks(),
        if quick { " [quick]" } else { "" }
    ));

    // Calibrate the crash window and checkpoint cadence off a crash-free
    // baseline so the schedule always lands mid-run at any --scale.
    let base_cfg = RunConfig::default();
    let baseline_end_ns = try_run_sim(&sim, &machine, Algorithm::Bsp, &base_cfg)
        .expect("crash-free baseline")
        .report
        .end_time
        .as_ns();
    let baseline = RunConfig {
        crash_detect_ns: (baseline_end_ns / 100).max(1),
        ckpt: CkptParams {
            interval_ns: (baseline_end_ns / 16).max(1),
            ..CkptParams::default()
        },
        ..base_cfg
    };
    println!(
        "baseline end {baseline_end_ns} ns; ckpt every {} ns, detect {} ns",
        baseline.ckpt.interval_ns, baseline.crash_detect_ns
    );

    let counts: &[usize] = if quick {
        &CRASH_COUNTS[2..]
    } else {
        &CRASH_COUNTS
    };
    let seeds: &[u64] = if quick {
        &SCHEDULE_SEEDS[..1]
    } else {
        &SCHEDULE_SEEDS
    };

    println!(
        "{:>4} {:>4} {:<6} {:<9} {:<6} | {:>9} {:>8} | {:>5} {:>5} {:>9} {:>7}",
        "n",
        "seed",
        "algo",
        "response",
        "status",
        "end(s)",
        "avail",
        "tkov",
        "rest",
        "recovered",
        "lost"
    );
    let pass1 = sweep(
        &sim,
        &machine,
        &baseline,
        baseline_end_ns,
        counts,
        seeds,
        true,
    );
    let pass2 = sweep(
        &sim,
        &machine,
        &baseline,
        baseline_end_ns,
        counts,
        seeds,
        false,
    );

    let header = "crashes\tseed\talgo\tresponse\tstatus\tend_ns\ttasks_done\ttotal_tasks\t\
                  availability\tlost_tasks\ttakeovers\trestores\trecovered_tasks\tretries\tchecksum";
    let rows: Vec<String> = pass1.iter().map(|c| c.row.clone()).collect();
    write_tsv("crash_chaos.tsv", header, &rows);

    // Gate 1: every takeover cell completes every task.
    let mut failures = Vec::new();
    for c in pass1
        .iter()
        .filter(|c| c.response == CrashResponse::Takeover)
    {
        if !c.ok || c.tasks_done != c.total || c.lost != 0 {
            failures.push(format!(
                "takeover cell incomplete: {} x{} crashes ({}/{} tasks, {} lost)",
                c.algo, c.crashes, c.tasks_done, c.total, c.lost
            ));
        }
        // Gate 2a: exactly one restore per scheduled crash (each dead
        // shard is adopted once), and at least one takeover per crash
        // (adoption plus any in-flight reads retargeted to successors).
        if c.ok && (c.takeovers < c.crashes as u64 || c.restores != c.crashes as u64) {
            failures.push(format!(
                "takeover cell {} x{}: {} takeovers / {} restores, expected >= {} / == {}",
                c.algo, c.crashes, c.takeovers, c.restores, c.crashes, c.crashes
            ));
        }
    }
    // Gate 2b: checkpointed progress was recovered somewhere — the sweep
    // exercises checkpoint restore, not just replay-from-scratch.
    let recovered: u64 = pass1
        .iter()
        .filter(|c| c.response == CrashResponse::Takeover)
        .map(|c| c.recovered)
        .sum();
    if recovered == 0 {
        failures.push("no takeover cell recovered any checkpointed work".to_string());
    }
    // Degrade sanity: a degraded run must report real loss, and done+lost
    // must cover the workload exactly.
    for c in pass1
        .iter()
        .filter(|c| c.response == CrashResponse::Degrade)
    {
        if c.ok && (c.lost == 0 || c.tasks_done + c.lost != c.total) {
            failures.push(format!(
                "degrade cell {} x{}: done {} + lost {} != total {}",
                c.algo, c.crashes, c.tasks_done, c.lost, c.total
            ));
        }
    }
    // Gate 3: the sweep is deterministic — both passes byte-identical.
    let rows2: Vec<String> = pass2.iter().map(|c| c.row.clone()).collect();
    if rows != rows2 {
        for (a, b) in rows.iter().zip(rows2.iter()) {
            if a != b {
                failures.push(format!(
                    "nondeterministic cell:\n  pass1: {a}\n  pass2: {b}"
                ));
                break;
            }
        }
        if rows.len() != rows2.len() {
            failures.push(format!(
                "pass lengths differ: {} vs {}",
                rows.len(),
                rows2.len()
            ));
        }
    }

    if failures.is_empty() {
        println!(
            "\nall gates passed: {} cells, takeover availability 1.0, recovered {} ckpt tasks, \
             two passes byte-identical",
            pass1.len(),
            recovered
        );
    } else {
        eprintln!("\nGATE FAILURES:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
