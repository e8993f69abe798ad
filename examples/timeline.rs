//! Timeline visualisation: *see* the two coordination strategies.
//!
//! Renders ASCII Gantt charts of a small simulated run — the BSP code's
//! lockstep exchange walls versus the asynchronous code's interleaved
//! compute and communication.
//!
//! Run with: `cargo run --release --example timeline`

use gnb::core::driver::{run_sim, Algorithm, RunConfig};
use gnb::core::workload::SimWorkload;
use gnb::core::MachineConfig;
use gnb::overlap::synth::{synthesize, SynthParams};
use gnb::trace::timeline;
use gnb_genome::presets;

fn main() {
    let preset = presets::ecoli_30x().scaled(256);
    let synth = synthesize(&SynthParams::from_preset(&preset), 9);
    let nodes = 2;
    let mut machine = MachineConfig::cori_knl(nodes).with_cores_per_node(8);
    machine.mem_per_core /= 2048; // force a couple of BSP rounds for effect
    let w = SimWorkload::prepare(
        &synth.lengths,
        &synth.tasks,
        &synth.overlap_len,
        machine.nranks(),
    );
    println!(
        "{} reads, {} tasks on {} simulated ranks ({} nodes)\n",
        synth.reads(),
        synth.tasks.len(),
        machine.nranks(),
        nodes
    );

    let cfg = RunConfig {
        obs: true,
        ..RunConfig::default()
    };
    for algo in [Algorithm::Bsp, Algorithm::Async] {
        let r = run_sim(&w, &machine, algo, &cfg);
        println!(
            "{algo}: {:.3}s total, {} rounds, comm {:.1}%",
            r.runtime(),
            r.rounds,
            r.breakdown.comm_fraction() * 100.0
        );
        print!("{}", timeline(r.obs().expect("obs enabled"), 100));
        println!();
    }
    println!("BSP shows synchronized exchange/compute phases; Async interleaves.");
}
