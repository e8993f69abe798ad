//! Integration tests for the beyond-the-paper extensions: cost-aware
//! balancing, failure injection, minimizer seeding, and traced runs.

use gnb::core::driver::{run_sim, Algorithm, RunConfig};
use gnb::core::pipeline::{run_pipeline, PipelineParams, SeedMode};
use gnb::core::workload::{BalanceStrategy, SimWorkload};
use gnb::core::{CostModel, MachineConfig};
use gnb::genome::presets;
use gnb::overlap::synth::{synthesize, SynthParams};
use gnb::sim::FaultConfig;

fn human_like(nranks: usize, seed: u64) -> SimWorkload {
    let preset = presets::human_ccs().scaled(2048);
    let s = synthesize(&SynthParams::from_preset(&preset), seed);
    SimWorkload::prepare(&s.lengths, &s.tasks, &s.overlap_len, nranks)
}

#[test]
fn cost_balancing_reduces_sync_time() {
    let machine = MachineConfig::cori_knl(2).with_cores_per_node(16);
    let preset = presets::ecoli_100x().scaled(64);
    let s = synthesize(&SynthParams::from_preset(&preset), 5);
    let cfg = RunConfig::default();

    let by_count = SimWorkload::prepare(&s.lengths, &s.tasks, &s.overlap_len, machine.nranks());
    let by_cost = SimWorkload::prepare_with(
        &s.lengths,
        &s.tasks,
        &s.overlap_len,
        machine.nranks(),
        BalanceStrategy::EstimatedCost(CostModel::default()),
    );
    let r_count = run_sim(&by_count, &machine, Algorithm::Bsp, &cfg);
    let r_cost = run_sim(&by_cost, &machine, Algorithm::Bsp, &cfg);
    // Identical work completed...
    assert_eq!(r_count.tasks_done, r_cost.tasks_done);
    // ...with less barrier waiting under cost balancing.
    assert!(
        r_cost.breakdown.sync.mean < r_count.breakdown.sync.mean,
        "cost-balanced sync {} should beat count-balanced {}",
        r_cost.breakdown.sync.mean,
        r_count.breakdown.sync.mean
    );
    assert!(r_cost.runtime() <= r_count.runtime() * 1.02);
}

#[test]
fn failure_injection_through_driver() {
    let machine = MachineConfig::cori_knl(2).with_cores_per_node(8);
    let w = human_like(machine.nranks(), 6);
    let reliable = run_sim(&w, &machine, Algorithm::Async, &RunConfig::default());
    let lossy_cfg = RunConfig {
        fault: FaultConfig {
            drop_prob: 0.1,
            ..FaultConfig::default()
        },
        rpc_timeout_ns: 200_000,
        ..RunConfig::default()
    };
    let lossy = run_sim(&w, &machine, Algorithm::Async, &lossy_cfg);
    assert_eq!(reliable.task_checksum, lossy.task_checksum);
    assert!(
        lossy.faults.msgs_dropped > 0,
        "injection must actually fire"
    );
    assert!(
        lossy.recovery.retries >= lossy.faults.msgs_dropped,
        "every dropped message forces a retry"
    );
    assert!(lossy.runtime() > reliable.runtime());
}

#[test]
fn minimizer_pipeline_end_to_end() {
    let preset = presets::ecoli_30x().scaled(1024);
    let reads = preset.generate(66);
    let mut params = PipelineParams::new(preset.coverage, preset.errors.total_rate());
    params.seeds = SeedMode::Minimizers { w: 10 };
    let res = run_pipeline(&reads, &params);
    assert!(res.accepted() > 0, "minimizer seeding must find overlaps");
    // Every accepted record corresponds to a candidate found via a
    // minimizer seed and aligns the two reads it names.
    for rec in res.outcome.accepted() {
        assert!(rec.a != rec.b);
        assert!((rec.a_end as usize) <= reads.read_len(rec.a as usize));
    }
}

#[test]
fn traced_run_reports_spans() {
    let machine = MachineConfig::cori_knl(1).with_cores_per_node(4);
    let w = human_like(machine.nranks(), 8);
    let cfg = RunConfig {
        obs: true,
        ..RunConfig::default()
    };
    let r = run_sim(&w, &machine, Algorithm::Bsp, &cfg);
    let obs = r.obs().expect("obs on");
    assert!(!obs.spans.is_empty());
    // Every span belongs to a valid rank and has positive extent.
    for s in &obs.spans {
        assert!((s.rank as usize) < machine.nranks());
        assert!(s.end > s.start);
    }
}
