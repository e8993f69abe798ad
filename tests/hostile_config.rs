//! Hostile configurations: a `RunConfig` whose scalar fields take extreme
//! values must end in `Ok` or `RunError::InvalidConfig` naming an
//! offending field, for every strategy, and within a bounded number of
//! events. Before `try_run_sim` validated its config, a maximal duration
//! or size overflowed: a panic in debug builds, and in release builds a
//! wrapped timeline that finished *earlier* than the default run and
//! returned `Ok`. Release builds do not check overflow, so there only the
//! validation makes these tests pass.

use gnb::core::driver::{try_run_sim, Algorithm, RunConfig, RunError};
use gnb::core::workload::SimWorkload;
use gnb::core::MachineConfig;
use gnb::genome::presets;
use gnb::overlap::synth::{synthesize, SynthParams};
use proptest::prelude::*;
use std::sync::OnceLock;

/// 8 ranks on the E. coli preset ÷512, and each strategy's event count
/// under the default config.
struct Setup {
    machine: MachineConfig,
    workload: SimWorkload,
    default_events: [u64; 3],
}

fn setup() -> &'static Setup {
    static SETUP: OnceLock<Setup> = OnceLock::new();
    SETUP.get_or_init(|| {
        let machine = MachineConfig::cori_knl(1).with_cores_per_node(8);
        let preset = presets::ecoli_30x().scaled(512);
        let s = synthesize(&SynthParams::from_preset(&preset), 9);
        let workload = SimWorkload::prepare(&s.lengths, &s.tasks, &s.overlap_len, machine.nranks());
        let default_events = Algorithm::ALL.map(|algo| {
            try_run_sim(&workload, &machine, algo, &RunConfig::default())
                .expect("the default config runs")
                .events
        });
        Setup {
            machine,
            workload,
            default_events,
        }
    })
}

/// Extreme values of an integer field: zero, one, and each side of the
/// two bounds the validation applies (2³⁰ bytes, 10¹² ns).
const U64_VALUES: [u64; 8] = [
    0,
    1,
    1 << 30,
    (1 << 30) + 1,
    1_000_000_000_000,
    1_000_000_000_001,
    u64::MAX / 2,
    u64::MAX,
];

/// Extreme values of a floating-point field.
const F64_VALUES: [f64; 10] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -1.0,
    -0.0,
    0.0,
    10.0,
    1_000.0,
    1_000.5,
    1e300,
];

/// Sets integer field `i` to `v`; returns its name and whether `v` is in
/// its documented range.
fn set_u64(cfg: &mut RunConfig, i: usize, v: u64) -> (&'static str, bool) {
    let span = v <= 1_000_000_000_000;
    match i {
        0 => {
            cfg.req_bytes = v;
            ("req_bytes", v <= 1 << 30)
        }
        1 => {
            cfg.agg_flush_ns = v;
            ("agg_flush_ns", span)
        }
        2 => {
            cfg.overhead_ns_per_task_bsp = v;
            ("overhead_ns_per_task_bsp", span)
        }
        3 => {
            cfg.overhead_ns_per_task_async = v;
            ("overhead_ns_per_task_async", span)
        }
        4 => {
            cfg.rpc_timeout_ns = v;
            ("rpc_timeout_ns", span)
        }
        5 => {
            cfg.rpc_backoff_max_ns = v;
            ("rpc_backoff_max_ns", span)
        }
        _ => {
            cfg.crash_detect_ns = v;
            ("crash_detect_ns", span)
        }
    }
}

/// Sets floating-point field `i` to `x`; returns its name and whether `x`
/// is in its documented range.
fn set_f64(cfg: &mut RunConfig, i: usize, x: f64) -> (&'static str, bool) {
    match i {
        0 => {
            cfg.os_noise = x;
            ("os_noise", (0.0..=10.0).contains(&x))
        }
        1 => {
            cfg.bsp_exchange_overhead = x;
            ("bsp_exchange_overhead", (0.0..=1_000.0).contains(&x))
        }
        _ => {
            cfg.bsp_buffer_factor = x;
            ("bsp_buffer_factor", (0.0..=1_000.0).contains(&x))
        }
    }
}

/// Runs every strategy on `cfg`: each must return `Ok` when no field in
/// `bad` is set, and otherwise `InvalidConfig` naming one of them. An `Ok`
/// run processes at most twice the events of the default run.
fn check(cfg: &RunConfig, bad: &[&'static str]) -> Result<(), TestCaseError> {
    let s = setup();
    for (algo, default_events) in Algorithm::ALL.into_iter().zip(s.default_events) {
        match try_run_sim(&s.workload, &s.machine, algo, cfg) {
            Ok(r) => {
                prop_assert!(bad.is_empty(), "{algo}: accepted {bad:?}");
                prop_assert!(
                    r.events <= 2 * default_events,
                    "{algo}: {} events",
                    r.events
                );
            }
            Err(RunError::InvalidConfig { field, .. }) => {
                prop_assert!(
                    bad.contains(&field),
                    "{algo}: refused `{field}`, bad {bad:?}"
                );
            }
            Err(e) => prop_assert!(false, "{algo}: unexpected error {e}"),
        }
    }
    Ok(())
}

/// The overflows reproduced before the validation, each refused with the
/// field's name by all three strategies.
#[test]
fn reproduced_overflows_are_invalid_config() {
    let cases: [(&str, RunConfig); 5] = [
        (
            "agg_flush_ns",
            RunConfig {
                agg_flush_ns: u64::MAX,
                ..RunConfig::default()
            },
        ),
        (
            "req_bytes",
            RunConfig {
                req_bytes: u64::MAX,
                ..RunConfig::default()
            },
        ),
        (
            "overhead_ns_per_task_async",
            RunConfig {
                overhead_ns_per_task_async: u64::MAX,
                ..RunConfig::default()
            },
        ),
        (
            "overhead_ns_per_task_bsp",
            RunConfig {
                overhead_ns_per_task_bsp: u64::MAX,
                ..RunConfig::default()
            },
        ),
        (
            "os_noise",
            RunConfig {
                os_noise: f64::NAN,
                ..RunConfig::default()
            },
        ),
    ];
    let s = setup();
    for (want, cfg) in &cases {
        for algo in Algorithm::ALL {
            match try_run_sim(&s.workload, &s.machine, algo, cfg) {
                Err(RunError::InvalidConfig { field, .. }) => assert_eq!(field, *want),
                other => panic!("{algo} with an absurd `{want}`: {other:?}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One integer field and, half the time, one floating-point field at
    /// an extreme value, under all three strategies.
    #[test]
    fn extreme_config_fields_are_ok_or_invalid_config(
        int_field in 0usize..7,
        int_value in 0usize..U64_VALUES.len(),
        float_field in 0usize..3,
        float_value in 0usize..F64_VALUES.len(),
        both in any::<bool>(),
    ) {
        let mut cfg = RunConfig::default();
        let mut bad = Vec::new();
        let (name, ok) = set_u64(&mut cfg, int_field, U64_VALUES[int_value]);
        if !ok {
            bad.push(name);
        }
        if both {
            let (name, ok) = set_f64(&mut cfg, float_field, F64_VALUES[float_value]);
            if !ok {
                bad.push(name);
            }
        }
        check(&cfg, &bad)?;
    }
}
