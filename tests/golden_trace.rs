//! Golden-trace snapshot test for the observability layer.
//!
//! Pins the `gnb-trace summarize` output and the Chrome-trace-event /
//! Perfetto JSON export of one small seeded async run **byte for byte**.
//! The recording is a pure function of the seeded timeline, so any drift
//! in these snapshots means either the timeline moved (a determinism
//! regression) or the exporter's byte layout changed (which invalidates
//! downstream tooling that diffs trace artifacts).
//!
//! A proptest feeds token-mutated copies of the same recording through
//! every `gnb-trace` entry point: each must parse to `Err` or analyse
//! without panicking.
//!
//! To regenerate after an *intentional* format change:
//!
//! ```text
//! cargo test --test golden_trace -- --ignored regenerate
//! ```

use gnb::core::driver::{run_sim, Algorithm, RunConfig};
use gnb::core::machine::MachineConfig;
use gnb::core::workload::SimWorkload;
use gnb::genome::presets;
use gnb::overlap::synth::{synthesize, SynthParams};
use gnb::sim::obs::Obs;
use proptest::prelude::*;
use std::sync::OnceLock;

/// One tiny fault-free async run: E. coli 30x at scale 2048, synth seed
/// 11, one KNL node cut down to 2 cores. Small enough that the JSON
/// snapshot stays reviewable, busy enough to exercise messages, timers,
/// barriers, and every metric series.
fn record() -> Obs {
    let machine = MachineConfig::cori_knl(1).with_cores_per_node(2);
    let preset = presets::ecoli_30x().scaled(2048);
    let w = synthesize(&SynthParams::from_preset(&preset), 11);
    let sim = SimWorkload::prepare(&w.lengths, &w.tasks, &w.overlap_len, machine.nranks());
    let cfg = RunConfig {
        obs: true,
        ..RunConfig::default()
    };
    let mut res = run_sim(&sim, &machine, Algorithm::Async, &cfg);
    res.report.obs.take().expect("obs enabled")
}

const GOLDEN_SUMMARY: &str = include_str!("golden/obs_summary.txt");
const GOLDEN_JSON: &str = include_str!("golden/obs_trace.json");

#[test]
fn summarize_matches_golden_bytes() {
    let obs = record();
    assert_eq!(
        gnb::trace::summarize(&obs),
        GOLDEN_SUMMARY,
        "summarize drifted; regenerate only if the change is intentional"
    );
}

#[test]
fn perfetto_export_matches_golden_bytes() {
    let obs = record();
    assert_eq!(
        gnb::trace::export(&obs),
        GOLDEN_JSON,
        "Perfetto JSON drifted; regenerate only if the change is intentional"
    );
}

/// The text form round-trips and two recordings of the same seed agree —
/// the golden bytes are stable, not a lucky capture.
#[test]
fn recording_is_reproducible_and_round_trips() {
    let a = record();
    let b = record();
    assert_eq!(a.to_text(), b.to_text());
    let parsed = gnb::trace::parse(&a.to_text()).expect("round trip");
    assert_eq!(gnb::trace::export(&parsed), gnb::trace::export(&a));
}

/// Rewrites the golden files from the current implementation.
#[test]
#[ignore = "run explicitly after an intentional format change"]
fn regenerate() {
    let obs = record();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("obs_summary.txt"), gnb::trace::summarize(&obs)).unwrap();
    std::fs::write(dir.join("obs_trace.json"), gnb::trace::export(&obs)).unwrap();
    eprintln!("regenerated golden trace snapshots under {}", dir.display());
}

/// The recording, recorded once for all proptest cases.
fn recorded() -> &'static (String, Obs) {
    static REC: OnceLock<(String, Obs)> = OnceLock::new();
    REC.get_or_init(|| {
        let obs = record();
        (obs.to_text(), obs)
    })
}

/// Replacement tokens: sentinels, boundaries, out-of-range ids and ranks,
/// negative and non-numeric text, and record names.
const HOSTILE: [&str; 16] = [
    "-",
    "0",
    "1",
    "2",
    "3",
    "4",
    "999",
    "4294967294",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "-1",
    "x",
    "",
    "node",
    "end",
];

/// Applies `(op, a, b)` mutations to `text`'s lines: replace a token
/// (with a hostile token, a number, or a token from elsewhere in the
/// text), delete, duplicate or swap lines, or truncate the text.
fn mutate(text: &str, muts: &[(u8, u64, u64)]) -> String {
    let mut lines: Vec<Vec<String>> = text
        .lines()
        .map(|l| l.split(' ').map(str::to_string).collect())
        .collect();
    for &(op, a, b) in muts {
        if lines.is_empty() {
            break;
        }
        let n = lines.len() as u64;
        let (i, j) = ((a % n) as usize, (b % n) as usize);
        match op {
            0..=5 => {
                let tok = (b % lines[i].len() as u64) as usize;
                let donor = &lines[j];
                let with = match op {
                    0..=2 => HOSTILE[(a >> 32) as usize % HOSTILE.len()].to_string(),
                    3 => (b >> 40).to_string(),
                    _ => donor[(a >> 32) as usize % donor.len()].clone(),
                };
                lines[i][tok] = with;
            }
            6 => {
                lines.remove(i);
            }
            7 => {
                let line = lines[i].clone();
                lines.insert(j, line);
            }
            8 => lines.swap(i, j),
            _ => lines.truncate(i),
        }
    }
    lines.iter().map(|l| l.join(" ") + "\n").collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A hostile `.gnbtrace` never panics the analyses: a mutated
    /// recording either fails to parse or goes through `summarize`,
    /// `export`, `critical_path_report`, `timeline` and `diff`.
    #[test]
    fn mutated_recordings_parse_to_err_or_analyse_without_panic(
        muts in proptest::collection::vec((0u8..10, any::<u64>(), any::<u64>()), 1..6)
    ) {
        let (text, base) = recorded();
        if let Ok(obs) = gnb::trace::parse(&mutate(text, &muts)) {
            let _ = gnb::trace::summarize(&obs);
            let _ = gnb::trace::export(&obs);
            let _ = gnb::trace::critical_path_report(&obs);
            let _ = gnb::trace::timeline(&obs, 100);
            let _ = gnb::trace::diff(&obs, base);
        }
    }
}
