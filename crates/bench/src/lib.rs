//! Shared plumbing for the experiment binaries (`src/bin/expt_*.rs`) that
//! regenerate every table and figure of the paper.
//!
//! Conventions:
//!
//! * every binary prints a human-readable table to stdout **and** writes a
//!   TSV under `results/`;
//! * workloads are synthesised at a default per-preset `--scale` divisor
//!   (laptop-feasible; override on the command line). The simulated
//!   machine's per-core memory is scaled by the same divisor so the
//!   memory-pressure regime of the paper (BSP's multi-round exchanges at
//!   8–32 nodes on Human CCS) is preserved; memory results are reported in
//!   *full-scale-equivalent* bytes (measured × scale);
//! * seeds are fixed so every run of a binary reproduces identical output.

#![warn(missing_docs)]

use gnb_core::machine::MachineConfig;
use gnb_core::workload::SimWorkload;
use gnb_genome::presets::{self, WorkloadPreset};
use gnb_overlap::synth::{synthesize, SynthParams, SynthWorkload};
use std::io::Write;
use std::path::PathBuf;

/// Paper node counts for the Human CCS sweeps.
pub const HUMAN_NODES: [usize; 7] = [8, 16, 32, 64, 128, 256, 512];
/// Paper node counts for the E. coli 100x sweep (Fig. 8).
pub const ECOLI100_NODES: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Default workload scale divisors (laptop-feasible; `--scale` overrides).
pub fn default_scale(preset: &str) -> usize {
    match preset {
        "ecoli_30x" => 1,
        "ecoli_100x" => 4,
        "human_ccs" => 16,
        _ => 1,
    }
}

/// Simple CLI: `--scale N` and `--seed N`.
#[derive(Debug, Clone, Copy)]
pub struct CliArgs {
    /// Workload scale override (None = per-preset default).
    pub scale: Option<usize>,
    /// Synthesis seed.
    pub seed: u64,
}

/// Parses `--scale`/`--seed` from the process arguments.
pub fn cli_args() -> CliArgs {
    let mut out = CliArgs {
        scale: None,
        seed: 42,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                out.scale = args.get(i + 1).and_then(|v| v.parse().ok());
                i += 2;
            }
            "--seed" => {
                out.seed = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(out.seed);
                i += 2;
            }
            _ => i += 1,
        }
    }
    out
}

/// A synthesised workload together with its provenance.
pub struct Workload {
    /// The (scaled) preset it came from.
    pub preset: WorkloadPreset,
    /// Scale divisor applied.
    pub scale: usize,
    /// The task graph.
    pub synth: SynthWorkload,
}

/// Synthesises the named workload at `scale` (or its default).
pub fn load_workload(name: &str, args: &CliArgs) -> Workload {
    let base = presets::by_name(name).unwrap_or_else(|| panic!("unknown preset {name}"));
    let scale = args.scale.unwrap_or_else(|| default_scale(name));
    let preset = base.scaled(scale);
    let synth = synthesize(&SynthParams::from_preset(&preset), args.seed);
    Workload {
        preset,
        scale,
        synth,
    }
}

impl Workload {
    /// Prepares the fixed per-rank inputs for `nranks` ranks.
    pub fn prepare(&self, nranks: usize) -> SimWorkload {
        SimWorkload::prepare(
            &self.synth.lengths,
            &self.synth.tasks,
            &self.synth.overlap_len,
            nranks,
        )
    }

    /// A Cori-KNL machine with per-core memory scaled by the workload's
    /// divisor and the matching `volume_scale` for scale-invariant
    /// communication fractions (see crate docs).
    pub fn machine(&self, nodes: usize) -> MachineConfig {
        let mut m = MachineConfig::cori_knl(nodes);
        m.mem_per_core = (m.mem_per_core / self.scale as u64).max(1 << 20);
        m.volume_scale = self.scale as f64;
        m
    }

    /// Converts a measured per-rank byte figure back to full-scale
    /// equivalents for comparison with the paper's absolute axes.
    pub fn full_scale_bytes(&self, measured: u64) -> u64 {
        measured * self.scale as u64
    }
}

/// The repository `results/` directory (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("GNB_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results"));
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a TSV file under `results/`.
pub fn write_tsv(name: &str, header: &str, rows: &[String]) {
    let path = results_dir().join(name);
    let mut f = std::fs::File::create(&path).expect("create tsv");
    writeln!(f, "{header}").unwrap();
    for r in rows {
        writeln!(f, "{r}").unwrap();
    }
    eprintln!("[results] wrote {}", path.display());
}

/// Pretty-prints a rule + title.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Formats bytes as MB with one decimal.
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_loads_and_prepares() {
        let args = CliArgs {
            scale: Some(512),
            seed: 1,
        };
        let w = load_workload("ecoli_30x", &args);
        assert_eq!(w.scale, 512);
        let sim = w.prepare(8);
        sim.validate();
        assert!(sim.total_tasks > 0);
    }

    #[test]
    fn machine_memory_scales() {
        let args = CliArgs {
            scale: Some(16),
            seed: 1,
        };
        let w = load_workload("human_ccs", &args);
        let m = w.machine(8);
        let full = MachineConfig::cori_knl(8);
        assert_eq!(m.mem_per_core, full.mem_per_core / 16);
        assert_eq!(w.full_scale_bytes(10), 160);
    }

    #[test]
    fn sweeps_start_at_the_prelude_minimum() {
        // Paper §4.4: DiBELLA's k-mer analysis stages "cannot complete with
        // fewer than (4, 8] Cori KNL nodes" on Human CCS. The working set
        // is fitted to that: 45 bytes per input base, with 90 % of a node's
        // application memory usable.
        const WORKING_SET_BYTES_PER_BASE: f64 = 45.0;
        const USABLE_MEMORY_FRACTION: f64 = 0.9;
        let knl = MachineConfig::cori_knl(1);
        let node_bytes =
            (knl.mem_per_core * knl.cores_per_node as u64) as f64 * USABLE_MEMORY_FRACTION;
        let min_nodes = |reads: u64, mean_len: u64| {
            let need = (reads * mean_len) as f64 * WORKING_SET_BYTES_PER_BASE;
            (need / node_bytes).ceil().max(1.0) as usize
        };

        let human = min_nodes(1_148_839, 11_060);
        assert!(
            human > 4 && human <= 8,
            "paper: (4, 8] nodes; model {human}"
        );
        assert!(
            HUMAN_NODES[0] >= human && HUMAN_NODES[0] <= 8,
            "Human CCS sweeps start at {} nodes, minimum {human}",
            HUMAN_NODES[0]
        );
        // Both E. coli workloads run from a single node.
        assert_eq!(min_nodes(16_890, 8_244), 1);
        assert_eq!(min_nodes(91_394, 5_079), 1);
        assert_eq!(ECOLI100_NODES[0], 1);
    }

    #[test]
    fn default_scales_known() {
        assert_eq!(default_scale("ecoli_30x"), 1);
        assert_eq!(default_scale("human_ccs"), 16);
    }
}
