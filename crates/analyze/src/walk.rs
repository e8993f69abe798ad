//! Workspace walking, rule scoping, and the full scan pipeline
//! (lex → parse → index → passes → waiver application → IDs).
//!
//! The determinism contract is strongest where nondeterminism corrupts
//! results silently — the simulator and the coordination/accounting code —
//! and deliberately looser where wall-clock access is the *point*:
//!
//! * `crates/sim`, `crates/core`, `crates/overlap` (the DES, the two
//!   coordination codes, the overlap pipeline): **all** rules, with
//!   `float-fold-order` upgraded from warn to deny;
//! * every other `crates/*/src` tree, the root `src/`, `tests/` and
//!   `examples/`: all rules except `unordered-collections`/
//!   `float-fold-order` (those are hot-path/accounting rules) — so
//!   `Instant`, `std::env` and ambient RNG still need a reasoned waiver
//!   anywhere they appear;
//! * `crates/bench` (the experiment harness): exempt — its job is to parse
//!   CLI args, read result-directory overrides from the environment and
//!   time real executions. Only annotation syntax is checked there;
//! * `vendor/`, `target/`, `fixtures/`, `golden/`: not walked (fixture
//!   files contain deliberate violations; golden dirs hold data).
//!
//! The semantic passes ([`crate::passes`]) audit `crates/core/src` and
//! `crates/sim/src` — the protocol and recovery surface. Integration
//! tests and examples are outside that scope (their mock `Program` impls
//! are not protocol code), but their token-level hygiene is checked.
//!
//! Waiver hygiene runs last: any waiver that suppressed nothing, for a
//! rule that is actually in scope at its path, is an `unused-waiver` deny
//! finding. Out-of-scope waivers (e.g. in the exempt bench crate) are
//! reported too — a waiver where no rule applies is equally rotten.

use crate::index::SymbolIndex;
use crate::lexer;
use crate::parser::{self, Ast};
use crate::passes;
use crate::report::{assign_ids, Report};
use crate::rules::{self, Finding, Level, Rule, AUDIT_RULES};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Path prefixes (relative, `/`-separated) where the full contract holds.
const DETERMINISM_CORE: [&str; 3] = ["crates/sim/src/", "crates/core/src/", "crates/overlap/src/"];

/// Path prefixes the semantic passes audit: the protocol + recovery
/// surface the chaos suites exercise.
const SEMANTIC_SCOPE: [&str; 2] = ["crates/core/src/", "crates/sim/src/"];

/// Crates exempt from audit rules (annotation syntax still checked).
const EXEMPT: [&str; 1] = ["crates/bench/"];

/// The rules that apply to a workspace-relative path (empty = only
/// annotation-syntax checking).
pub fn rules_for(rel: &str) -> Vec<Rule> {
    if EXEMPT.iter().any(|p| rel.starts_with(p)) {
        return Vec::new();
    }
    if DETERMINISM_CORE.iter().any(|p| rel.starts_with(p)) {
        return AUDIT_RULES.to_vec();
    }
    vec![Rule::WallClock, Rule::AmbientEnv, Rule::AmbientRng]
}

/// Whether the semantic passes audit definitions at this path.
pub fn semantic_scope(rel: &str) -> bool {
    SEMANTIC_SCOPE.iter().any(|p| rel.starts_with(p))
}

/// Whether `rel` sits in the determinism core (full contract,
/// `float-fold-order` at deny).
pub fn determinism_core(rel: &str) -> bool {
    DETERMINISM_CORE.iter().any(|p| rel.starts_with(p))
}

/// Collects the `.rs` files to audit under `root`: `src/` and
/// `crates/*/src/`, plus `tests/`, `examples/` and `crates/*/tests/`
/// (integration tests and examples carry determinism hazards too — a
/// wall-clock read in a chaos test flakes just as hard). Skips `target/`,
/// `vendor/`, `fixtures/` (deliberate violations) and `golden/` (data).
/// Returned paths are sorted for deterministic reports.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for top in ["src", "tests", "examples"] {
        let d = root.join(top);
        if d.is_dir() {
            walk_dir(&d, &mut out)?;
        }
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        members.sort();
        for m in members {
            for sub in ["src", "tests", "examples"] {
                let d = m.join(sub);
                if d.is_dir() {
                    walk_dir(&d, &mut out)?;
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

fn walk_dir(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name == "vendor" || name == "fixtures" || name == "golden" {
                continue;
            }
            walk_dir(&p, out)?;
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Scans one source string as if it lived at `rel_path`, applying the
/// full pipeline (token rules, semantic passes over this one file, waiver
/// hygiene). Exposed for tests and editor integrations.
pub fn scan_source(rel_path: &str, source: &str) -> Vec<Finding> {
    scan_sources(&[(rel_path.to_string(), source.to_string())]).findings
}

/// The full scan pipeline over in-memory sources: `(rel_path, source)`
/// pairs. This is what [`scan_workspace`] runs after reading files; the
/// split exists so fixture tests can drive the whole pipeline.
pub fn scan_sources(files: &[(String, String)]) -> Report {
    // ---- lex + parse + token rules, per file ------------------------
    let mut per_file: BTreeMap<&str, Vec<Finding>> = BTreeMap::new();
    let mut waivers_by_file: BTreeMap<&str, Vec<rules::Waiver>> = BTreeMap::new();
    let mut asts: Vec<(String, Ast)> = Vec::new();
    for (rel, source) in files {
        let lexed = lexer::lex(source);
        let (waivers, bad) = rules::parse_waivers(rel, &lexed);
        let mut raw = rules::token_findings(rel, &lexed, &rules_for(rel));
        // Satellite: float-fold-order is deny inside the determinism core
        // (sum order there IS the result), warn elsewhere.
        if determinism_core(rel) {
            for f in &mut raw {
                if f.rule == Rule::FloatFoldOrder {
                    f.level = Level::Deny;
                }
            }
        }
        raw.extend(bad);
        per_file.entry(rel).or_default().extend(raw);
        waivers_by_file.insert(rel, waivers);
        if semantic_scope(rel) {
            asts.push((rel.clone(), parser::parse(&lexed)));
        }
    }

    // ---- index + semantic passes ------------------------------------
    let ix = SymbolIndex::build(&asts);
    for f in passes::protocol_pass(&ix, semantic_scope) {
        per_file.entry(leak(&f.path, files)).or_default().push(f);
    }
    for f in passes::panic_pass(&ix, semantic_scope) {
        per_file.entry(leak(&f.path, files)).or_default().push(f);
    }

    // ---- waiver application + hygiene -------------------------------
    let mut findings: Vec<Finding> = Vec::new();
    for (rel, _) in files {
        let mut fs = per_file.remove(rel.as_str()).unwrap_or_default();
        let waivers = waivers_by_file.remove(rel.as_str()).unwrap_or_default();
        let mut used = vec![false; waivers.len()];
        rules::apply_waivers(&mut fs, &waivers, &mut used);
        for (w, &u) in waivers.iter().zip(&used) {
            if u {
                continue;
            }
            // A waiver for a rule that cannot fire here (out of scope) is
            // as stale as one whose hazard was fixed.
            let in_scope = match w.rule {
                Rule::ProtocolContract | Rule::PanicPath => semantic_scope(rel),
                r => rules_for(rel).contains(&r),
            };
            let why = if in_scope {
                "the rule no longer fires on that line"
            } else {
                "the rule is not in scope at this path"
            };
            fs.push(Finding {
                rule: Rule::UnusedWaiver,
                level: Level::Deny,
                path: rel.clone(),
                line: w.line,
                col: 1,
                message: format!(
                    "unused waiver: allow({}) suppresses nothing ({why}); delete it",
                    w.rule.name()
                ),
                id: String::new(),
            });
        }
        findings.extend(fs);
    }

    // ---- stable IDs + ordering --------------------------------------
    let lines: BTreeMap<&str, Vec<&str>> = files
        .iter()
        .map(|(rel, src)| (rel.as_str(), src.lines().collect()))
        .collect();
    assign_ids(&mut findings, |path, line| {
        lines
            .get(path)
            .and_then(|ls| ls.get(line.saturating_sub(1) as usize))
            .copied()
    });
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.col).cmp(&(b.path.as_str(), b.line, b.col)));
    Report {
        root: String::new(),
        files_scanned: files.len(),
        findings,
    }
}

/// Maps a finding path back to the canonical `&str` key owned by `files`
/// (pass findings carry owned paths; the per-file map borrows).
fn leak<'a>(path: &str, files: &'a [(String, String)]) -> &'a str {
    files
        .iter()
        .map(|(rel, _)| rel.as_str())
        .find(|rel| *rel == path)
        .unwrap_or("")
}

/// Scans the whole workspace under `root`.
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    let paths = collect_files(root)?;
    let mut files = Vec::new();
    for f in &paths {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((rel, std::fs::read_to_string(f)?));
    }
    let mut report = scan_sources(&files);
    report.root = root.to_string_lossy().into_owned();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_full_in_determinism_core() {
        let r = rules_for("crates/sim/src/engine.rs");
        assert_eq!(r.len(), AUDIT_RULES.len());
        assert!(r.contains(&Rule::UnorderedCollections));
        assert!(r.contains(&Rule::PanicPath));
    }

    #[test]
    fn scope_partial_elsewhere() {
        let r = rules_for("crates/align/src/batch.rs");
        assert!(!r.contains(&Rule::UnorderedCollections));
        assert!(r.contains(&Rule::WallClock));
        let root = rules_for("src/lib.rs");
        assert!(root.contains(&Rule::AmbientEnv));
        // Integration tests and examples: relaxed scope, but audited.
        let t = rules_for("tests/crash_chaos.rs");
        assert!(t.contains(&Rule::WallClock));
        assert!(!t.contains(&Rule::UnorderedCollections));
        assert!(rules_for("examples/ecoli_overlap.rs").contains(&Rule::AmbientEnv));
    }

    #[test]
    fn bench_exempt() {
        assert!(rules_for("crates/bench/src/lib.rs").is_empty());
    }

    #[test]
    fn thread_primitives_scoped_to_core() {
        // In scope across the determinism core...
        assert!(rules_for("crates/sim/src/engine.rs").contains(&Rule::ThreadPrimitives));
        assert!(rules_for("crates/core/src/driver.rs").contains(&Rule::ThreadPrimitives));
        // ...and not in scope at all outside it.
        assert!(!rules_for("crates/align/src/batch.rs").contains(&Rule::ThreadPrimitives));
    }

    #[test]
    fn thread_primitives_fire_in_core_only() {
        let src = "use std::sync::mpsc;\nstd::thread::scope(|s| {});";
        let core = scan_source("crates/sim/src/engine.rs", src);
        assert_eq!(core.len(), 2, "{core:?}");
        assert!(core.iter().all(|f| f.rule == Rule::ThreadPrimitives));
        assert!(core.iter().all(|f| f.level == Level::Deny));
        assert!(scan_source("crates/align/src/batch.rs", src).is_empty());
    }

    #[test]
    fn scan_source_applies_scope() {
        let src = "use std::collections::HashMap;";
        assert_eq!(scan_source("crates/sim/src/x.rs", src).len(), 1);
        assert!(scan_source("crates/align/src/x.rs", src).is_empty());
        assert!(scan_source("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn bad_annotations_checked_even_when_exempt() {
        let src = "// gnb-lint: allow(nope)\nfn main() {}";
        let f = scan_source("crates/bench/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::BadAnnotation);
    }

    #[test]
    fn float_fold_denied_in_core_warns_elsewhere() {
        let src = "fn s(xs: &[f64]) -> f64 { xs.iter().fold(0.0, |a, x| a + x) }";
        let core = scan_source("crates/sim/src/x.rs", src);
        assert_eq!(core.len(), 1);
        assert_eq!(core[0].level, Level::Deny);
        // Outside the core the rule is not even in scope (hot-path rule).
        assert!(scan_source("crates/trace/src/x.rs", src).is_empty());
    }

    #[test]
    fn unused_waiver_is_a_deny_finding() {
        // The waiver names wall-clock but nothing on its lines reads a
        // clock → unused.
        let src = "\
// gnb-lint: allow(wall-clock, reason = \"calibration\")
let x = 1;";
        let f = scan_source("crates/sim/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::UnusedWaiver);
        assert_eq!(f[0].level, Level::Deny);
    }

    #[test]
    fn used_waiver_is_not_flagged() {
        let src = "\
// gnb-lint: allow(wall-clock, reason = \"calibration timing\")
let t = Instant::now();";
        assert!(scan_source("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn out_of_scope_waiver_is_flagged_too() {
        // unordered-collections is not in scope under crates/trace; a
        // waiver for it there is rot even though HashMap sits on the line.
        let src = "\
// gnb-lint: allow(unordered-collections, reason = \"n/a\")
let m: HashMap<u32, u32> = HashMap::new();";
        let f = scan_source("crates/trace/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::UnusedWaiver);
        assert!(f[0].message.contains("not in scope"));
    }

    #[test]
    fn semantic_findings_are_waivable() {
        let src = "\
impl CoordinationStrategy for S {
    fn on_start(&mut self, rt: &mut RtCtx) { rt.send_tracked(1, 0, 8, q); }
    fn on_reply(&mut self, key: u64) { self.done += 1; }
    // gnb-lint: allow(protocol-contract, reason = \"degrade-only strategy: give-ups abandon\")
    fn on_give_up(&mut self, key: u64) { unreachable!(\"degrade\") }
}";
        // Without the waiver the trivial on_give_up is a finding; the
        // reasoned annotation suppresses it... but then the panic-path
        // pass still sees the unreachable! inside a give-up hook, which
        // needs its own waiver — semantic rules are independent.
        let f = scan_source("crates/core/src/s.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::PanicPath);
    }

    #[test]
    fn findings_carry_stable_ids() {
        let src = "let t = Instant::now();";
        let a = scan_source("crates/sim/src/x.rs", src);
        let shifted = format!("// a comment line\n{src}");
        let b = scan_source("crates/sim/src/x.rs", &shifted);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(a[0].id, b[0].id, "ID must survive a line shift");
        assert!(a[0].id.starts_with("gnb-"));
    }

    #[test]
    fn workspace_scan_runs_on_this_repo() {
        // CARGO_MANIFEST_DIR = crates/analyze → repo root is ../..
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = scan_workspace(&root).expect("scan");
        assert!(report.files_scanned > 50, "saw {}", report.files_scanned);
    }
}
