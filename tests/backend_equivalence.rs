//! Cross-backend equivalence: all three coordination codes (BSP, plain
//! async, aggregated async) must complete *exactly* the same task set under
//! every machine shape, memory budget, and mode — timing may differ,
//! results may not. This is the paper's implicit correctness contract ("the
//! alignment tasks ... are treated as fixed inputs"), and it extends to the
//! shared rayon backend: the parallel and serial alignment paths must emit
//! identical accepted-alignment sets.

use gnb::align::batch::{align_batch_serial, AlignParams};
use gnb::align::KernelImpl;
use gnb::core::driver::{run_sim, Algorithm, RunConfig};
use gnb::core::pipeline::{run_pipeline, PipelineParams};
use gnb::core::workload::SimWorkload;
use gnb::core::{CostModel, MachineConfig};
use gnb::genome::presets;
use gnb::overlap::synth::{synthesize, SynthParams};

fn workload(scale: usize, seed: u64, nranks: usize) -> SimWorkload {
    let preset = presets::ecoli_30x().scaled(scale);
    let s = synthesize(&SynthParams::from_preset(&preset), seed);
    SimWorkload::prepare(&s.lengths, &s.tasks, &s.overlap_len, nranks)
}

fn machine(nodes: usize, cores: usize) -> MachineConfig {
    MachineConfig::cori_knl(nodes).with_cores_per_node(cores)
}

#[test]
fn identical_results_across_machine_shapes() {
    for (nodes, cores) in [(1usize, 4usize), (1, 16), (2, 8), (4, 4)] {
        let m = machine(nodes, cores);
        let w = workload(64, 3, m.nranks());
        w.validate();
        let cfg = RunConfig::default();
        let bsp = run_sim(&w, &m, Algorithm::Bsp, &cfg);
        assert_eq!(bsp.tasks_done as usize, w.total_tasks);
        for algo in [Algorithm::Async, Algorithm::AggAsync] {
            let r = run_sim(&w, &m, algo, &cfg);
            assert_eq!(bsp.tasks_done, r.tasks_done, "{algo} {nodes}x{cores}");
            assert_eq!(bsp.task_checksum, r.task_checksum, "{algo} {nodes}x{cores}");
        }
    }
}

#[test]
fn memory_budget_sweep_preserves_results() {
    let m0 = machine(2, 8);
    let w = workload(64, 4, m0.nranks());
    let cfg = RunConfig::default();
    let reference = run_sim(&w, &m0, Algorithm::Bsp, &cfg);
    let mut seen_multi_round = false;
    for mem_mb in [512u64, 8, 1] {
        let mut m = m0;
        m.mem_per_core = mem_mb << 20;
        let r = run_sim(&w, &m, Algorithm::Bsp, &cfg);
        assert_eq!(r.task_checksum, reference.task_checksum, "mem {mem_mb}MB");
        if r.rounds > 1 {
            seen_multi_round = true;
        }
        // Tighter memory can only slow the BSP code down.
        assert!(r.runtime() >= reference.runtime() - 1e-9);
    }
    assert!(seen_multi_round, "the sweep must exercise multi-round BSP");
}

#[test]
fn comm_only_mode_completes_everything() {
    let m = machine(2, 8);
    let w = workload(64, 5, m.nranks());
    let cfg = RunConfig {
        cost: CostModel::comm_only(),
        ..RunConfig::default()
    };
    let bsp = run_sim(&w, &m, Algorithm::Bsp, &cfg);
    assert_eq!(bsp.breakdown.compute.sum, 0.0);
    for algo in [Algorithm::Async, Algorithm::AggAsync] {
        let r = run_sim(&w, &m, algo, &cfg);
        assert_eq!(bsp.tasks_done, r.tasks_done, "{algo}");
        assert_eq!(bsp.task_checksum, r.task_checksum, "{algo}");
        assert_eq!(r.breakdown.compute.sum, 0.0, "{algo}");
    }
}

/// The full equivalence chain: the shared rayon backend's parallel and
/// serial paths emit identical accepted-alignment sets for a real pipeline
/// task set, and all three simulated coordination codes complete exactly
/// that task set with identical checksums. One fixed input, four
/// executions, one answer.
#[test]
fn three_strategies_and_rayon_backend_agree() {
    let preset = presets::ecoli_30x().scaled(512);
    let reads = preset.generate(55);
    let params = PipelineParams::new(preset.coverage, preset.errors.total_rate());
    let res = run_pipeline(&reads, &params);
    assert!(res.tasks.len() > 100, "tasks: {}", res.tasks.len());

    // Rayon vs serial: record-for-record identical, hence identical
    // accepted sets (scheduling must not leak into alignment results).
    let serial = align_batch_serial(&reads, &res.tasks, &params.align);
    assert_eq!(res.outcome.records, serial.records);
    let accepted: Vec<(u32, u32)> = res.outcome.accepted().map(|r| (r.a, r.b)).collect();
    let accepted_serial: Vec<(u32, u32)> = serial.accepted().map(|r| (r.a, r.b)).collect();
    assert_eq!(accepted, accepted_serial);
    assert!(!accepted.is_empty());

    // All three coordination codes run the same fixed task set to the same
    // checksum.
    let m = machine(1, 8);
    let lengths = reads.lengths();
    let w = SimWorkload::prepare(&lengths, &res.tasks, &res.overlaps, m.nranks());
    w.validate();
    let cfg = RunConfig::default();
    let mut checksums = Vec::new();
    for algo in Algorithm::ALL {
        let r = run_sim(&w, &m, algo, &cfg);
        assert_eq!(r.tasks_done as usize, res.tasks.len(), "{algo}");
        checksums.push(r.task_checksum);
    }
    assert!(checksums.windows(2).all(|p| p[0] == p[1]), "{checksums:x?}");
}

/// `KernelImpl::Packed`, an alias of the batched engine, slots into the
/// same chain: it produces record-identical batch outcomes to the scalar
/// reference (same tasks, same cells, same accepted set), and the workload
/// derived from its run drives all three coordination strategies to one
/// checksum. Kernel selection is a pure performance choice — nothing
/// downstream can tell which one ran.
#[test]
fn packed_kernel_drives_identical_simulations() {
    let preset = presets::ecoli_30x().scaled(1024);
    let reads = preset.generate(77);
    let base = PipelineParams::new(preset.coverage, preset.errors.total_rate());
    let with_kernel = |kernel| PipelineParams {
        align: AlignParams {
            kernel,
            ..base.align
        },
        ..base
    };
    let scalar = run_pipeline(&reads, &with_kernel(KernelImpl::Scalar));
    let packed = run_pipeline(&reads, &with_kernel(KernelImpl::Packed));
    assert!(!packed.tasks.is_empty());
    assert_eq!(scalar.tasks, packed.tasks);
    assert_eq!(scalar.outcome.records, packed.outcome.records);
    assert_eq!(scalar.outcome.total_cells, packed.outcome.total_cells);

    let m = machine(2, 4);
    let lengths = reads.lengths();
    let w = SimWorkload::prepare(&lengths, &packed.tasks, &packed.overlaps, m.nranks());
    w.validate();
    let cfg = RunConfig::default();
    let mut checksums = Vec::new();
    for algo in Algorithm::ALL {
        let r = run_sim(&w, &m, algo, &cfg);
        assert_eq!(r.tasks_done as usize, packed.tasks.len(), "{algo}");
        checksums.push(r.task_checksum);
    }
    assert!(checksums.windows(2).all(|p| p[0] == p[1]), "{checksums:x?}");
}

/// The inter-sequence batched kernel slots into the same chain: its bucketed
/// lane-refill schedule produces record-identical batch outcomes to the
/// scalar reference (same tasks, same cells, same accepted set), and the
/// workload derived from the batched-kernel run drives all three
/// coordination strategies to one checksum. `Batched` is a pure
/// performance choice — nothing downstream can tell which one ran.
#[test]
fn batched_kernel_drives_identical_simulations() {
    let preset = presets::ecoli_30x().scaled(1024);
    let reads = preset.generate(91);
    let base = PipelineParams::new(preset.coverage, preset.errors.total_rate());
    let with_kernel = |kernel| PipelineParams {
        align: AlignParams {
            kernel,
            ..base.align
        },
        ..base
    };
    let scalar = run_pipeline(&reads, &with_kernel(KernelImpl::Scalar));
    let batched = run_pipeline(&reads, &with_kernel(KernelImpl::Batched));
    assert!(!batched.tasks.is_empty());
    assert_eq!(scalar.tasks, batched.tasks);
    assert_eq!(scalar.outcome.records, batched.outcome.records);
    assert_eq!(scalar.outcome.total_cells, batched.outcome.total_cells);

    let m = machine(2, 4);
    let lengths = reads.lengths();
    let w = SimWorkload::prepare(&lengths, &batched.tasks, &batched.overlaps, m.nranks());
    w.validate();
    let cfg = RunConfig::default();
    let mut checksums = Vec::new();
    for algo in Algorithm::ALL {
        let r = run_sim(&w, &m, algo, &cfg);
        assert_eq!(r.tasks_done as usize, batched.tasks.len(), "{algo}");
        checksums.push(r.task_checksum);
    }
    assert!(checksums.windows(2).all(|p| p[0] == p[1]), "{checksums:x?}");
}

#[test]
fn rpc_window_is_performance_only() {
    let m = machine(2, 8);
    let w = workload(64, 6, m.nranks());
    let mut checksums = Vec::new();
    // A window of zero is clamped to one, like the other pull-protocol
    // knobs: a configuration slip must not surface as a task mismatch.
    for window in [0usize, 1, 4, 64, 4096] {
        let cfg = RunConfig {
            rpc_window: window,
            ..RunConfig::default()
        };
        for algo in [Algorithm::Async, Algorithm::AggAsync] {
            let r = run_sim(&w, &m, algo, &cfg);
            checksums.push(r.task_checksum);
        }
    }
    assert!(checksums.windows(2).all(|p| p[0] == p[1]));
}

#[test]
fn async_memory_stays_window_bounded() {
    let m = machine(2, 8);
    let w = workload(32, 7, m.nranks());
    let cfg = RunConfig {
        rpc_window: 4,
        ..RunConfig::default()
    };
    let r = run_sim(&w, &m, Algorithm::Async, &cfg);
    let max_read = w.lengths.iter().copied().max().unwrap_or(0) as u64;
    for (rank, rd) in w.per_rank.iter().enumerate() {
        let static_bytes = rd.partition_bytes + rd.total_tasks() as u64 * 48;
        // Dynamic excess bounded by window + ready-queue reads; allow a
        // small multiple of the window for queued-but-uncomputed replies.
        assert!(
            r.mem_peaks[rank] <= static_bytes + 16 * max_read,
            "rank {rank}: peak {} static {static_bytes}",
            r.mem_peaks[rank]
        );
    }
}

#[test]
fn os_noise_slows_but_preserves() {
    let m = machine(1, 8);
    let w = workload(64, 8, m.nranks());
    let quiet = run_sim(&w, &m, Algorithm::Bsp, &RunConfig::default());
    let noisy_cfg = RunConfig {
        os_noise: 0.2,
        ..RunConfig::default()
    };
    let noisy = run_sim(&w, &m, Algorithm::Bsp, &noisy_cfg);
    assert_eq!(quiet.task_checksum, noisy.task_checksum);
    assert!(noisy.runtime() > quiet.runtime());
}
