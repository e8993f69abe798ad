//! What the results header says about the machine and the build.

use crate::json::Json;
use std::process::Command;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Refuses a measurement that wants more threads than the host has cores:
/// it would time oversubscription, not the code.
pub fn require_threads(threads: usize) -> Result<(), String> {
    let n = nproc();
    if threads > n {
        return Err(format!(
            "{threads} threads requested but this host has nproc={n}"
        ));
    }
    Ok(())
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// First line of a helper command's output, or `"unknown"` (the checkout
/// the driver runs in is not a git repository, for one).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host fields every results file starts with.
pub fn provenance() -> Vec<(&'static str, Json)> {
    vec![
        ("nproc", Json::Num(nproc() as f64)),
        ("isa", Json::strs(&gnb_align::interseq::detected_features())),
        ("rustc", Json::Str(first_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::Str(first_line("git", &["rev-parse", "HEAD"])),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_threads_than_cores_is_refused() {
        assert!(require_threads(1).is_ok());
        let err = require_threads(nproc() + 1).unwrap_err();
        assert!(err.contains("nproc="), "{err}");
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
