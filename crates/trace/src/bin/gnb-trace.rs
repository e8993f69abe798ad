//! `gnb-trace`: analyze `.gnbtrace` observability recordings.
//!
//! ```text
//! gnb-trace summarize <FILE>            record counts, truncation, busy totals, metrics
//! gnb-trace export <FILE> [OUT.json]    Chrome-trace-event / Perfetto JSON (stdout default)
//! gnb-trace critical-path <FILE>        virtual-time critical path by category
//! gnb-trace diff <A> <B>                first divergence between two recordings
//! gnb-trace timeline <FILE>             ASCII Gantt chart, one row per rank
//! ```
//!
//! Exit codes: `0` success (for `diff`: traces identical), `1` analysis
//! refused (truncated trace) or traces differ, `2` usage or I/O error.

use std::process::ExitCode;

const USAGE: &str = "\
USAGE: gnb-trace <COMMAND>\n\
\n\
  summarize <FILE>           summarize a .gnbtrace recording\n\
  export <FILE> [OUT.json]   export as Chrome-trace/Perfetto JSON\n\
  critical-path <FILE>       critical-path attribution by category\n\
  diff <A> <B>               compare two recordings\n\
  timeline <FILE>            ASCII timeline, one row per rank\n\
\n\
EXIT CODES: 0 ok/identical, 1 refused/different, 2 usage or I/O error\n";

/// Columns of the `timeline` chart (fits a 120-column terminal).
const TIMELINE_WIDTH: usize = 100;

fn load(path: &str) -> Result<gnb_sim::obs::Obs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    gnb_trace::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    // gnb-lint: allow(ambient-env, reason = "CLI argument parsing is this binary's input")
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    match strs.as_slice() {
        [cmd @ ("summarize" | "timeline"), file] => match load(file) {
            Ok(obs) => {
                if *cmd == "summarize" {
                    print!("{}", gnb_trace::summarize(&obs));
                } else {
                    print!("{}", gnb_trace::timeline(&obs, TIMELINE_WIDTH));
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("gnb-trace: {e}");
                ExitCode::from(2)
            }
        },
        ["export", file, rest @ ..] if rest.len() <= 1 => match load(file) {
            Ok(obs) => {
                let json = gnb_trace::export(&obs);
                match rest.first() {
                    Some(out) => {
                        if let Err(e) = std::fs::write(out, &json) {
                            eprintln!("gnb-trace: cannot write {out}: {e}");
                            return ExitCode::from(2);
                        }
                        eprintln!("wrote {} bytes to {out}", json.len());
                    }
                    None => print!("{json}"),
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("gnb-trace: {e}");
                ExitCode::from(2)
            }
        },
        ["critical-path", file] => match load(file) {
            Ok(obs) => match gnb_trace::critical_path_report(&obs) {
                Ok(report) => {
                    print!("{report}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("gnb-trace: {e}");
                    ExitCode::from(1)
                }
            },
            Err(e) => {
                eprintln!("gnb-trace: {e}");
                ExitCode::from(2)
            }
        },
        ["diff", a, b] => match (load(a), load(b)) {
            (Ok(oa), Ok(ob)) => {
                let d = gnb_trace::diff(&oa, &ob);
                let identical = d.starts_with("traces are identical");
                print!("{d}");
                if identical {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                }
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("gnb-trace: {e}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
