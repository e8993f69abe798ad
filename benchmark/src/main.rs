//! `gnb-benchmark`: the repository's one benchmark.
//!
//! Five workloads over the two systems that share the x-drop kernel — the
//! host overlap pipeline and the discrete-event simulator — each reporting
//! the end-to-end metrics a user sees (spans off) and, in a separate traced
//! run, per-layer metrics attributed from spans the benchmark records
//! around its calls into each layer's public functions. See `README.md`
//! beside this crate for the workloads, every metric, and which end-to-end
//! number each layer is expected to move.
//!
//! ```text
//! gnb-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! gnb-benchmark run [--workload W] [--seed N] [--seconds S] [--traced] [--smoke]
//! gnb-benchmark compare A.json B.json
//! ```
//!
//! The first form runs one workload in this process and ends its standard
//! output with one JSON line (`correct`, `attempted`, `failed`, `metrics`).
//! `run` executes that form once per workload, each in a child process of
//! its own so `peak_rss_mb` is per workload, one after the other, and
//! gathers the children's detail files into `out/results.json`
//! (`out/results-traced.json` with `--traced`).

mod host;
mod json;
mod metrics;
mod pipe;
mod sim;
mod span;
mod stats;
mod workloads;

use json::Json;
use metrics::{Better, MetricDef, Report, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Kind, Spec, SMOKE_DIVISOR, SPECS};

/// The seed `expected.json` pins outputs for.
const DEFAULT_SEED: u64 = 42;
/// Timed seconds per run when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;

/// How one workload run is sized.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Time budget of the measured passes.
    pub seconds: f64,
    pub traced: bool,
    /// Every input ÷16 and one repetition: exercises all code in seconds.
    pub smoke: bool,
}

impl Opts {
    pub fn divisor(&self) -> usize {
        if self.smoke {
            SMOKE_DIVISOR
        } else {
            1
        }
    }

    /// Runs `setup` repeatedly and returns every repetition's seconds with
    /// the last input built. Set-up takes tens of milliseconds, which is
    /// noisy, so it is repeated at least 9 times and for up to 1.5 s (50
    /// times at most); `setup_s` is the median.
    pub fn time_setup<T>(&self, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
        let start = Instant::now();
        let mut secs = Vec::new();
        loop {
            let rep = Instant::now();
            let input = setup();
            secs.push(rep.elapsed().as_secs_f64());
            let more = secs.len() < 9 || (secs.len() < 50 && start.elapsed().as_secs_f64() < 1.5);
            if self.smoke || !more {
                return (secs, input);
            }
        }
    }

    /// Fewest timed passes a median is taken over.
    pub fn min_passes(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Fewest untraced/traced pass pairs of a traced run.
    pub fn min_pairs(&self) -> usize {
        if self.smoke {
            1
        } else {
            2
        }
    }

    /// Whether to start another pass: always below `min`; above it, only
    /// while more than half of a pass still fits in the time budget.
    fn wants_another(&self, done: usize, min: usize, start: Instant, last_secs: f64) -> bool {
        done < min
            || (!self.smoke && start.elapsed().as_secs_f64() + last_secs / 2.0 < self.seconds)
    }

    /// Calls `pass(n)` for n = 1, 2, … until the time budget is spent, at
    /// least `min` times. `pass` returns the seconds it took.
    pub fn repeat(&self, min: usize, mut pass: impl FnMut(usize) -> f64) {
        let start = Instant::now();
        for done in 1.. {
            let last_secs = pass(done);
            if !self.wants_another(done, min, start, last_secs) {
                break;
            }
        }
    }
}

/// The benchmark's directory (results and traces go to `out/` inside it).
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir(smoke: bool) -> PathBuf {
    let dir = bench_dir().join("out");
    if smoke {
        dir.join("smoke")
    } else {
        dir
    }
}

fn kind_name(traced: bool) -> &'static str {
    if traced {
        "layers"
    } else {
        "e2e"
    }
}

fn detail_path(spec: &Spec, opts: &Opts) -> PathBuf {
    out_dir(opts.smoke).join(format!("{}-{}.json", spec.name, kind_name(opts.traced)))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_json(path: &Path, value: &Json) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    std::fs::create_dir_all(path.parent().expect("a file path has a parent")).map_err(io)?;
    std::fs::write(path, value.to_pretty()).map_err(io)
}

/// Runs one workload in this process and returns its report.
fn measure(spec: &Spec, opts: &Opts) -> Report {
    let mut r = Report::default();
    match (spec.kind, opts.traced) {
        (Kind::Pipe, false) => pipe::run_e2e(spec, opts, &mut r),
        (Kind::Pipe, true) => pipe::run_traced(spec, opts, &mut r),
        (Kind::Sim { .. }, false) => sim::run_e2e(spec, opts, &mut r),
        (Kind::Sim { .. }, true) => sim::run_traced(spec, opts, &mut r),
    }
    // Outputs are pinned for the default seed at full size; any other seed
    // is held to the self-consistency checks alone.
    if opts.seed == DEFAULT_SEED && !opts.smoke {
        let pinned = read_json(&bench_dir().join("expected.json")).and_then(|pins| {
            pins.get(spec.name)
                .cloned()
                .ok_or_else(|| format!("expected.json pins nothing for {}", spec.name))
        });
        match pinned {
            Ok(pinned) => r.check_pinned(&pinned),
            Err(e) => {
                r.check(false, || e);
            }
        }
    }
    r
}

/// The detail file of one run: everything the result line says, plus
/// samples, pinned facts, failures and skip notes.
fn detail_json(spec: &Spec, opts: &Opts, r: &Report, defs: &[MetricDef]) -> Json {
    Json::obj([
        ("workload", Json::Str(spec.name.into())),
        ("why", Json::Str(spec.why.into())),
        ("kind", Json::Str(kind_name(opts.traced).into())),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("smoke", Json::Bool(opts.smoke)),
        ("correct", Json::Bool(r.failed == 0)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("failures", Json::strs(&r.failures)),
        ("notes", Json::strs(&r.notes)),
        (
            "facts",
            Json::obj(r.facts.iter().map(|(k, v)| (*k, Json::Str(v.clone())))),
        ),
        ("metrics", r.metrics_json(defs, true)),
    ])
}

/// The contract form: one workload, here, ending with the result line.
fn run_one(spec: &Spec, opts: &Opts) -> ExitCode {
    let defs = if opts.traced { PER_LAYER } else { END_TO_END };
    println!("{}: {}", spec.name, spec.why);
    let r = measure(spec, opts);
    // The table lists what this workload measured; the result line below
    // carries every metric of the kind, 0 where a layer was not exercised.
    for d in defs.iter().filter(|d| r.values.contains_key(d.name)) {
        println!(
            "{:<20} {:<34} {:>14.6e} {}",
            spec.name,
            d.name,
            r.get(d.name),
            d.unit
        );
    }
    for note in &r.notes {
        println!("note: {note}");
    }
    for failure in &r.failures {
        println!("FAILED: {failure}");
    }
    // Files are written after every timed region has ended.
    let mut written = write_json(&detail_path(spec, opts), &detail_json(spec, opts, &r, defs));
    if opts.traced {
        let path = out_dir(opts.smoke).join(format!("trace-{}.json", spec.name));
        written = written.and(write_json(&path, &span::to_json(&r.spans)));
    }
    if let Err(e) = &written {
        eprintln!("gnb-benchmark: {e}");
    }
    let line = Json::obj([
        ("correct", Json::Bool(r.failed == 0)),
        ("attempted", Json::Num(r.attempted.max(1) as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", r.metrics_json(defs, false)),
    ]);
    println!("{}", line.to_line());
    if r.failed == 0 && written.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `run`: every selected workload in a child process of its own, one after
/// the other, then one results file from their detail files.
fn run_all(specs: &[&Spec], opts: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return fail(&format!("cannot find this executable: {e}")),
    };
    let kinds: &[bool] = if opts.smoke {
        &[false, true] // both run kinds, to exercise all of the benchmark
    } else if opts.traced {
        &[true]
    } else {
        &[false]
    };
    let mut ok = true;
    for &traced in kinds {
        let opts = Opts {
            traced,
            ..opts.clone()
        };
        let mut details = Vec::new();
        for spec in specs {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", spec.name])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if opts.smoke {
                cmd.arg("--smoke");
            }
            // `status` waits for the child: workloads never overlap.
            match cmd.status() {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("gnb-benchmark: {} ended with {s}", spec.name);
                    ok = false;
                }
                Err(e) => return fail(&format!("cannot start {}: {e}", exe.display())),
            }
            match read_json(&detail_path(spec, &opts)) {
                Ok(d) => details.push(d),
                Err(e) => return fail(&e),
            }
        }
        let mut header = host::provenance();
        header.push(("seed", Json::Num(opts.seed as f64)));
        header.push(("seconds", Json::Num(opts.seconds)));
        header.push(("smoke", Json::Bool(opts.smoke)));
        let results = Json::obj([
            ("benchmark", Json::Str("gnb-benchmark".into())),
            ("kind", Json::Str(kind_name(traced).into())),
            ("host", Json::obj(header)),
            ("workloads", Json::Arr(details)),
        ]);
        let name = if traced {
            "results-traced.json"
        } else {
            "results.json"
        };
        let path = out_dir(opts.smoke).join(name);
        match write_json(&path, &results) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => return fail(&e),
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Regression bound per end-to-end metric name.
type Bounds = Vec<(String, f64)>;

/// The bounds `BENCHMARK.json` fixes for the end-to-end metrics.
fn bounds() -> Result<Bounds, String> {
    let contract = read_json(&bench_dir().join("../BENCHMARK.json"))?;
    contract
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| {
                    "BENCHMARK.json: an end_to_end entry lacks name or bound".to_string()
                })
        })
        .collect()
}

/// One line of `compare`: how `name` moved from `a` to `b`.
/// Returns the line and whether it is a breach.
fn compare_metric(name: &str, a: f64, b: f64, bounds: &Bounds) -> (String, bool) {
    let Some(def) = metrics::lookup(name) else {
        return (format!("{name:<34} unknown metric, skipped"), false);
    };
    if def.exact {
        let same = a == b;
        let mark = if same {
            "same"
        } else {
            "DIFFERS (exact count)"
        };
        return (
            format!("{name:<34} {a:>14.6e} {b:>14.6e} {:>9} {mark}", ""),
            !same,
        );
    }
    if a == 0.0 && b == 0.0 {
        return (format!("{name:<34} not exercised by this workload"), false);
    }
    let worse = stats::worsening(a, b, def.better == Better::Higher);
    let delta = format!("{:+.1}%", (b - a) / a * 100.0);
    match bounds.iter().find(|(n, _)| n == name) {
        Some((_, bound)) => {
            let breach = worse.is_nan() || worse > *bound;
            let mark = if breach { "WORSE THAN BOUND" } else { "within" };
            (
                format!(
                    "{name:<34} {a:>14.6e} {b:>14.6e} {delta:>9} {mark} (bound {:.0}%, better {})",
                    bound * 100.0,
                    def.better.as_str()
                ),
                breach,
            )
        }
        None => (
            format!("{name:<34} {a:>14.6e} {b:>14.6e} {delta:>9}"),
            false,
        ),
    }
}

/// `compare A.json B.json`: relative change of every metric per workload,
/// end-to-end ones against their bounds, exact counts for equality.
fn compare(a_path: &str, b_path: &str) -> ExitCode {
    let load = || -> Result<(Json, Json, Bounds), String> {
        Ok((
            read_json(Path::new(a_path))?,
            read_json(Path::new(b_path))?,
            bounds()?,
        ))
    };
    let (a, b, bounds) = match load() {
        Ok(x) => x,
        Err(e) => return fail(&e),
    };
    let workloads = |j: &Json| {
        j.get("workloads")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
    };
    let (Some(wa), Some(wb)) = (workloads(&a), workloads(&b)) else {
        return fail("not a gnb-benchmark results file: no \"workloads\" list");
    };
    let mut breaches = 0usize;
    for da in &wa {
        let name = da.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(db) = wb.iter().find(|d| d.get("workload") == da.get("workload")) else {
            println!("== {name}: missing from {b_path}");
            breaches += 1;
            continue;
        };
        println!("== {name}");
        for side in [da, db] {
            if side.get("failed").and_then(Json::as_f64) != Some(0.0) {
                println!("{:<34} run reported failed checks", "");
                breaches += 1;
            }
        }
        if da.get("seed") != db.get("seed") || da.get("smoke") != db.get("smoke") {
            println!(
                "{:<34} seeds or sizes differ: exact counts are not comparable",
                ""
            );
            breaches += 1;
        }
        let value = |d: &Json, m: &str| d.get("metrics")?.get(m)?.get("value")?.as_f64();
        for (metric, _) in da.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            let (Some(x), Some(y)) = (value(da, metric), value(db, metric)) else {
                println!("{metric:<34} missing from {b_path}");
                breaches += 1;
                continue;
            };
            let (line, breach) = compare_metric(metric, x, y, &bounds);
            println!("{line}");
            breaches += breach as usize;
        }
    }
    if breaches == 0 {
        println!("compare: no end-to-end metric worse than its bound, exact counts identical");
        ExitCode::SUCCESS
    } else {
        println!("compare: {breaches} breach(es)");
        ExitCode::FAILURE
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("gnb-benchmark: {msg}");
    ExitCode::from(2)
}

const USAGE: &str = "usage:
  gnb-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
  gnb-benchmark run [--workload W] [--seed N] [--seconds S] [--traced] [--smoke]
  gnb-benchmark compare A.json B.json";

/// Parsed flags shared by the contract form and `run`.
struct Flags {
    workload: Option<String>,
    opts: Opts,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        opts: Opts {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            traced: false,
            smoke: false,
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => f.workload = Some(value()?.clone()),
            "--seed" => f.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && (0.0..=3600.0).contains(&s)) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
                f.opts.seconds = s;
            }
            "--trace" => {
                f.opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => f.opts.traced = true,
            "--smoke" => f.opts.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(f)
}

fn select(workload: Option<&str>) -> Result<Vec<&'static Spec>, String> {
    match workload {
        None => Ok(SPECS.iter().collect()),
        Some(name) => workloads::by_name(name).map(|s| vec![s]).ok_or_else(|| {
            let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
            format!(
                "unknown workload {name}; the workloads are {}",
                names.join(", ")
            )
        }),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => return compare(a, b),
            _ => Err("compare takes two results files".to_string()),
        },
        Some("run") => parse_flags(&args[1..]).and_then(|f| {
            let specs = select(f.workload.as_deref())?;
            Ok(run_all(&specs, &f.opts))
        }),
        Some(_) => parse_flags(&args).and_then(|f| {
            let name = f.workload.as_deref().ok_or("--workload is required")?;
            Ok(run_one(select(Some(name))?[0], &f.opts))
        }),
        None => Err("no arguments".to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("gnb-benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_and_reject() {
        let f = parse_flags(&strings(&[
            "--workload",
            "pipe_ecoli30x",
            "--seed",
            "7",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(f.workload.as_deref(), Some("pipe_ecoli30x"));
        assert_eq!(
            (f.opts.seed, f.opts.seconds, f.opts.traced, f.opts.smoke),
            (7, 2.5, true, false)
        );
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--seconds", "-1"],
            &["--seconds", "nan"],
            &["--threads", "4"],
        ] {
            assert!(parse_flags(&strings(bad)).is_err(), "accepted {bad:?}");
        }
        assert!(select(Some("nope"))
            .unwrap_err()
            .contains("sim_ecoli30x_chaos"));
        assert_eq!(select(None).unwrap().len(), 5);
    }

    #[test]
    fn pass_budget_respects_minimum_and_time() {
        let opts = Opts {
            seed: 1,
            seconds: 10.0,
            traced: false,
            smoke: false,
        };
        let now = Instant::now();
        assert!(opts.wants_another(1, 3, now, 100.0)); // below the minimum
        assert!(opts.wants_another(3, 3, now, 4.0)); // 0 + 2 < 10
        assert!(!opts.wants_another(3, 3, now, 30.0)); // half a pass no longer fits
        let smoke = Opts {
            smoke: true,
            ..opts
        };
        assert!(!smoke.wants_another(1, 1, now, 0.0));
    }

    /// `BENCHMARK.json` and the tables in `metrics.rs`/`workloads.rs` name
    /// the same things.
    #[test]
    fn contract_file_matches_the_code() {
        let c = read_json(&bench_dir().join("../BENCHMARK.json")).unwrap();
        let list = |key: &str| c.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let got: Vec<_> = list(key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
                .collect();
            let want: Vec<_> = defs
                .iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.as_str().to_string(),
                    )
                })
                .collect();
            assert_eq!(got, want, "{key}");
        }
        let got: Vec<_> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let want: Vec<_> = SPECS
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(got, want);
        assert!(SPECS
            .iter()
            .all(|s| s.why.len() <= 200 && !s.why.contains('\n')));
        assert_eq!(
            c.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let b = bounds().unwrap();
        assert_eq!(b.len(), END_TO_END.len());
        assert!(b.iter().all(|(_, bound)| *bound > 0.0 && *bound <= 0.25));
    }

    #[test]
    fn compare_marks_breaches_by_direction_and_exactness() {
        let bounds = vec![
            ("wall_s".to_string(), 0.1),
            ("cells_per_s".to_string(), 0.1),
        ];
        assert!(!compare_metric("wall_s", 1.0, 1.05, &bounds).1);
        assert!(compare_metric("wall_s", 1.0, 1.2, &bounds).1);
        assert!(!compare_metric("wall_s", 1.0, 0.5, &bounds).1); // faster is fine
        assert!(compare_metric("cells_per_s", 100.0, 80.0, &bounds).1);
        assert!(!compare_metric("cells_per_s", 100.0, 130.0, &bounds).1);
        assert!(compare_metric("core.async_events", 10.0, 11.0, &bounds).1);
        assert!(!compare_metric("core.async_events", 10.0, 10.0, &bounds).1);
        // Unbounded timing metrics are informational.
        assert!(!compare_metric("core.async_s", 1.0, 9.0, &bounds).1);
        assert!(!compare_metric("core.async_s", 0.0, 0.0, &bounds).1);
    }
}
