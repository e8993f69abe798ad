//! `run --smoke` exercises all five workloads and both run kinds through
//! the real binary, child processes and files included.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

const EXE: &str = env!("CARGO_BIN_EXE_gnb-benchmark");

#[test]
fn smoke_run_covers_every_workload_and_both_kinds() {
    let start = Instant::now();
    let out = Command::new(EXE).args(["run", "--smoke"]).output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "run --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Release builds finish in a few seconds; the bound is for those.
    if !cfg!(debug_assertions) {
        assert!(
            start.elapsed().as_secs() < 15,
            "smoke took {:?}",
            start.elapsed()
        );
    }

    // One result line per workload and kind, each reporting no failure.
    let lines: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .collect();
    assert_eq!(lines.len(), 10, "{stdout}");
    assert!(lines
        .iter()
        .all(|l| l.starts_with("{\"correct\": true") && l.contains("\"failed\": 0")));
    // The timed kind prints the end-to-end names, the traced kind the layers.
    assert_eq!(lines.iter().filter(|l| l.contains("\"wall_s\"")).count(), 5);
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.contains("\"bench.trace_overhead_ratio\""))
            .count(),
        5
    );

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/smoke");
    for file in ["results.json", "results-traced.json"] {
        let text = std::fs::read_to_string(dir.join(file)).unwrap();
        for key in [
            "\"nproc\"",
            "\"isa\"",
            "\"rustc\"",
            "\"git_commit\"",
            "\"seed\"",
            "\"samples\"",
        ] {
            assert!(text.contains(key), "{file} lacks {key}");
        }
        for workload in [
            "pipe_ecoli30x",
            "pipe_humanccs",
            "sim_ecoli30x_2n",
            "sim_humanccs_16n",
            "sim_ecoli30x_chaos",
        ] {
            assert!(
                text.contains(&format!("\"workload\": \"{workload}\"")),
                "{file} lacks {workload}"
            );
        }
    }
    let trace = std::fs::read_to_string(dir.join("trace-pipe_ecoli30x.json")).unwrap();
    for name in [
        "core.pipeline",
        "kmer.index",
        "align.batch",
        "\"parent\": null",
    ] {
        assert!(trace.contains(name), "trace lacks {name}");
    }
    // The stage spans hang off the `core.pipeline` parent.
    assert!((0..10).any(|p| trace.contains(&format!("\"parent\": {p}"))));

    // A results file agrees with itself, and `compare` says so.
    let results = dir.join("results-traced.json");
    let same = Command::new(EXE)
        .arg("compare")
        .args([&results, &results])
        .output()
        .unwrap();
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );
}

#[test]
fn bad_invocations_exit_non_zero_without_a_result_line() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--seed", "1"],
        &["compare", "only-one.json"],
        &["compare", "/nonexistent/a.json", "/nonexistent/b.json"],
        &[],
    ] {
        let out = Command::new(EXE).args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("\"correct\""),
            "{args:?}"
        );
    }
}
