//! The five workloads: what each runs, at what size, and why.

use gnb_genome::presets::{self, WorkloadPreset};

/// What a workload drives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// FASTA bytes → `run_pipeline` on the host.
    Pipe,
    /// BSP + Async + AggAsync on `nodes` simulated Cori-KNL nodes.
    Sim {
        nodes: usize,
        /// Message faults, stragglers and three rank crashes under takeover.
        chaos: bool,
    },
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One sentence: what this workload is in the set for.
    pub why: &'static str,
    pub kind: Kind,
    preset: fn() -> WorkloadPreset,
    /// Scale divisor of the preset at full size.
    scale: usize,
}

/// Every input shrinks by this in `--smoke` mode, and for the warm-up pass
/// and the `*_small` measurements of a full run.
pub const SMOKE_DIVISOR: usize = 16;

impl Spec {
    /// The preset at this workload's size, shrunk further by `divisor`.
    pub fn preset(&self, divisor: usize) -> WorkloadPreset {
        (self.preset)().scaled(self.scale * divisor)
    }
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "pipe_ecoli30x",
        why: "Alignment-bound host pipeline (15% error reads): align_batch is ~88% of wall, so a kernel or batch-scheduling change must show here and a k-mer change must not.",
        kind: Kind::Pipe,
        preset: presets::ecoli_30x,
        scale: 64,
    },
    Spec {
        name: "pipe_humanccs",
        why: "Same pipeline, opposite balance (1% error reads keep 50% of k-mers): SeedIndex::build and candidates are ~75% of wall, alignment ~20%; stresses gnb-kmer and gnb-overlap.",
        kind: Kind::Pipe,
        preset: presets::human_ccs,
        scale: 8192,
    },
    Spec {
        name: "sim_ecoli30x_2n",
        why: "The paper's intranode graph (544k tasks, 128 ranks) under all three strategies: event-heavy, Async's 1M events are ~80% of wall at ~2 us per event.",
        kind: Kind::Sim { nodes: 2, chaos: false },
        preset: presets::ecoli_30x,
        scale: 4,
    },
    Spec {
        name: "sim_humanccs_16n",
        why: "Same simulator layers, many ranks with few tasks each (1024 ranks, ~160 tasks per rank): AggAsync flush timers are ~75% of wall, so anything O(nranks) per event shows here only.",
        kind: Kind::Sim { nodes: 16, chaos: false },
        preset: presets::human_ccs,
        scale: 512,
    },
    Spec {
        name: "sim_ecoli30x_chaos",
        why: "The recovery paths: drops, duplicates, delays, stragglers and 3 rank crashes under takeover exercise retry, dedup, checkpoint and restore code that is inert in the fault-free workloads.",
        kind: Kind::Sim { nodes: 4, chaos: true },
        preset: presets::ecoli_30x,
        scale: 32,
    },
];

pub fn by_name(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}
