//! The determinism contract: the rules `gnb-lint` enforces, and the
//! scanner that applies them to a lexed file.
//!
//! Every rule exists because the repository's headline claims (bit-identical
//! replays, byte-identical experiment TSVs, replayable fault plans) die
//! silently when one of these hazards slips into simulation or accounting
//! code:
//!
//! | rule | hazard |
//! |------|--------|
//! | `unordered-collections` | `HashMap`/`HashSet` iteration order varies per process (`RandomState`), so anything derived from a traversal — sums, output order, tie-breaks — varies run to run |
//! | `wall-clock` | `std::time::Instant`/`SystemTime` read the host clock; virtual-time code must use `SimTime` |
//! | `ambient-env` | `std::env` makes behaviour depend on invisible process state |
//! | `ambient-rng` | `thread_rng`/`OsRng`/`from_entropy` draw OS entropy; all randomness must be seed-derived |
//! | `float-fold-order` | floating-point addition is non-associative: a `fold` accumulating `f64` over an unsorted source bakes traversal order into the result |
//!
//! A site that is genuinely fine carries an explicit, *reasoned* waiver:
//!
//! ```text
//! // gnb-lint: allow(wall-clock, reason = "real-machine calibration timing")
//! ```
//!
//! on the same line or the line directly above. A malformed waiver (unknown
//! rule, missing reason) is itself a finding (`bad-annotation`), so waivers
//! cannot rot into cargo-cult comments.

use crate::lexer::{Comment, Lexed, TokKind, Token};

/// The rules of the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `HashMap`/`HashSet` in determinism-critical code.
    UnorderedCollections,
    /// `std::time::Instant` / `SystemTime`.
    WallClock,
    /// `std::env` reads.
    AmbientEnv,
    /// Ambient (OS-seeded) randomness.
    AmbientRng,
    /// `fold` accumulating a float in source order.
    FloatFoldOrder,
    /// `std::thread` / `Mutex` / `Atomic*` / channels anywhere in the
    /// determinism core. Shared-state concurrency makes effect order
    /// scheduler-dependent, which breaks the bit-identical replay contract.
    ThreadPrimitives,
    /// Coordination-protocol contract violation (semantic pass): a strategy
    /// issuing tracked requests without real `on_reply`/`on_give_up`
    /// bodies, an armed timer variant nobody handles, a wildcard arm
    /// discarding protocol payload variants, or overlapping key-namespace
    /// constants.
    ProtocolContract,
    /// A panic site (`unwrap`/`expect`/`panic!`/`unreachable!`/indexing)
    /// in a function reachable from the recovery hooks or engine dispatch
    /// (semantic pass).
    PanicPath,
    /// A waiver whose rule no longer fires on its line (semantic pass).
    UnusedWaiver,
    /// A `gnb-lint:` annotation that does not parse.
    BadAnnotation,
}

/// All auditable rules (excludes the meta-rules [`Rule::BadAnnotation`]
/// and [`Rule::UnusedWaiver`], which are always on and cannot be waived).
pub const AUDIT_RULES: [Rule; 8] = [
    Rule::UnorderedCollections,
    Rule::WallClock,
    Rule::AmbientEnv,
    Rule::AmbientRng,
    Rule::FloatFoldOrder,
    Rule::ThreadPrimitives,
    Rule::ProtocolContract,
    Rule::PanicPath,
];

/// Finding severity. `Deny` findings fail the build; `Warn` findings are
/// reported but only fail under `--deny-all`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Reported; nonzero exit only under `--deny-all`.
    Warn,
    /// Always a nonzero exit.
    Deny,
}

impl Rule {
    /// Stable kebab-case name (the one used in allow annotations and JSON).
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnorderedCollections => "unordered-collections",
            Rule::WallClock => "wall-clock",
            Rule::AmbientEnv => "ambient-env",
            Rule::AmbientRng => "ambient-rng",
            Rule::FloatFoldOrder => "float-fold-order",
            Rule::ThreadPrimitives => "thread-primitives",
            Rule::ProtocolContract => "protocol-contract",
            Rule::PanicPath => "panic-path",
            Rule::UnusedWaiver => "unused-waiver",
            Rule::BadAnnotation => "bad-annotation",
        }
    }

    /// Parses a rule name as written in an annotation.
    pub fn from_name(name: &str) -> Option<Rule> {
        AUDIT_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// Default severity. `float-fold-order` is a heuristic (it cannot see
    /// whether the source iterator is sorted), so it warns by default —
    /// except inside the determinism core, where [`crate::walk`] upgrades
    /// it to deny.
    pub fn default_level(self) -> Level {
        match self {
            Rule::FloatFoldOrder => Level::Warn,
            _ => Level::Deny,
        }
    }

    /// One-line description shown by `--list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::UnorderedCollections => {
                "HashMap/HashSet have per-process iteration order; use BTreeMap/BTreeSet \
                 or a sorted collect in determinism-critical code"
            }
            Rule::WallClock => {
                "std::time::{Instant,SystemTime} read the host clock; simulated code \
                 must use virtual time (SimTime)"
            }
            Rule::AmbientEnv => "std::env makes behaviour depend on ambient process state",
            Rule::AmbientRng => {
                "thread_rng/OsRng/from_entropy draw OS entropy; randomness must be \
                 seed-derived for replayability"
            }
            Rule::FloatFoldOrder => {
                "folding f64 in source order bakes traversal order into the sum \
                 (float addition is non-associative); sort first or use an \
                 order-insensitive reduction"
            }
            Rule::ThreadPrimitives => {
                "std::thread / Mutex / RwLock / Condvar / mpsc / Atomic* in the \
                 determinism core: shared-state concurrency makes effect order \
                 scheduler-dependent, breaking bit-identical replay"
            }
            Rule::ProtocolContract => {
                "the coordination-protocol contract: tracked-request issuers need \
                 real on_reply/on_give_up bodies, armed timer variants need \
                 handlers, protocol matches must not wildcard-discard payload \
                 variants, key-namespace constants must not collide"
            }
            Rule::PanicPath => {
                "unwrap/expect/panic!/unreachable!/indexing in functions reachable \
                 from on_give_up, crash takeover/restore, or engine dispatch — the \
                 code chaos tests exercise must not panic"
            }
            Rule::UnusedWaiver => {
                "a gnb-lint waiver whose rule no longer fires on that line; \
                 delete it so waivers cannot rot"
            }
            Rule::BadAnnotation => {
                "a gnb-lint annotation that does not parse as \
                 allow(<rule>, reason = \"...\") with a known rule and nonempty reason"
            }
        }
    }
}

/// One finding: a contract violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Severity at report time.
    pub level: Level,
    /// Path (relative to the scan root) of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
    /// Stable finding ID (see [`crate::report`] for the scheme). Empty
    /// until [`crate::report::assign_ids`] runs; the workspace pipeline
    /// always assigns IDs.
    pub id: String,
}

/// A parsed `gnb-lint: allow(...)` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// 1-based line the annotation sits on (covers this line and the
    /// next).
    pub line: u32,
    /// The waived rule.
    pub rule: Rule,
}

/// Parses every `gnb-lint:` annotation in a lexed file. Returns the valid
/// waivers plus a `bad-annotation` finding for each malformed one.
pub fn parse_waivers(path: &str, lexed: &Lexed) -> (Vec<Waiver>, Vec<Finding>) {
    let mut waivers = Vec::new();
    let mut findings = Vec::new();
    for c in &lexed.comments {
        parse_annotation(path, c, &mut waivers, &mut findings);
    }
    (waivers, findings)
}

/// Runs the token-level rule scanners (no waiver application, no
/// annotation parsing). `path` is only used to label findings.
pub fn token_findings(path: &str, lexed: &Lexed, rules: &[Rule]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let toks = &lexed.tokens;
    for rule in rules {
        match rule {
            Rule::UnorderedCollections => scan_unordered(path, toks, &mut findings),
            Rule::WallClock => scan_wall_clock(path, toks, &mut findings),
            Rule::AmbientEnv => scan_ambient_env(path, toks, &mut findings),
            Rule::AmbientRng => scan_ambient_rng(path, toks, &mut findings),
            Rule::FloatFoldOrder => scan_float_fold(path, toks, &mut findings),
            Rule::ThreadPrimitives => scan_thread_primitives(path, toks, &mut findings),
            // Semantic rules are produced by `crate::passes`, and the
            // meta-rules by annotation parsing / waiver hygiene.
            Rule::ProtocolContract | Rule::PanicPath | Rule::UnusedWaiver | Rule::BadAnnotation => {
            }
        }
    }
    findings
}

/// Applies waivers to `findings`: a finding is suppressed by an allow for
/// its rule on the same line or the line directly above. `used[i]` is set
/// when `waivers[i]` suppresses at least one finding (waiver-hygiene input).
/// The meta-rules (`bad-annotation`, `unused-waiver`) cannot be waived.
pub fn apply_waivers(findings: &mut Vec<Finding>, waivers: &[Waiver], used: &mut [bool]) {
    findings.retain(|f| {
        if matches!(f.rule, Rule::BadAnnotation | Rule::UnusedWaiver) {
            return true;
        }
        let mut suppressed = false;
        for (i, w) in waivers.iter().enumerate() {
            if w.rule == f.rule && (w.line == f.line || w.line + 1 == f.line) {
                suppressed = true;
                if let Some(u) = used.get_mut(i) {
                    *u = true;
                }
            }
        }
        !suppressed
    });
}

/// Scans already-lexed source under `rules`, honouring allow annotations.
/// The single-file entry point (the workspace pipeline in [`crate::walk`]
/// adds the semantic passes and waiver hygiene on top).
pub fn scan(path: &str, lexed: &Lexed, rules: &[Rule]) -> Vec<Finding> {
    let (waivers, mut findings) = parse_waivers(path, lexed);
    findings.extend(token_findings(path, lexed, rules));
    let mut used = vec![false; waivers.len()];
    apply_waivers(&mut findings, &waivers, &mut used);
    findings.sort_by_key(|f| (f.line, f.col));
    findings
}

/// Parses any `gnb-lint:` marker in a comment. Valid form:
/// `gnb-lint: allow(<rule>, reason = "<nonempty>")`.
fn parse_annotation(
    path: &str,
    c: &Comment,
    waivers: &mut Vec<Waiver>,
    findings: &mut Vec<Finding>,
) {
    // Doc comments (`///`, `//!`, `/**`, `/*!`) *document* the annotation
    // syntax — they never register as waivers, or every doc example would
    // count as live suppression.
    if matches!(c.text.chars().next(), Some('!' | '/' | '*')) {
        return;
    }
    // An annotation must *start* the comment (after whitespace); prose that
    // merely mentions `gnb-lint:` mid-sentence is not an annotation.
    let trimmed = c.text.trim_start_matches([' ', '\t']);
    if !trimmed.starts_with("gnb-lint:") {
        return;
    }
    let rest = trimmed["gnb-lint:".len()..].trim();
    let bad = |msg: &str, findings: &mut Vec<Finding>| {
        findings.push(Finding {
            rule: Rule::BadAnnotation,
            level: Level::Deny,
            path: path.to_string(),
            line: c.line,
            col: 1,
            message: format!("malformed gnb-lint annotation: {msg}"),
            id: String::new(),
        });
    };
    let Some(inner) = rest
        .strip_prefix("allow(")
        .and_then(|r| r.rfind(')').map(|end| &r[..end]))
    else {
        bad("expected allow(<rule>, reason = \"...\")", findings);
        return;
    };
    let Some((rule_name, reason_part)) = inner.split_once(',') else {
        bad("missing `, reason = \"...\"`", findings);
        return;
    };
    let Some(rule) = Rule::from_name(rule_name.trim()) else {
        bad(&format!("unknown rule `{}`", rule_name.trim()), findings);
        return;
    };
    let reason_ok = reason_part
        .trim()
        .strip_prefix("reason")
        .map(|r| r.trim_start().trim_start_matches('='))
        .map(|r| r.trim())
        .is_some_and(|r| r.len() >= 2 && r.starts_with('"') && r.ends_with('"') && r.len() > 2);
    if !reason_ok {
        bad("reason must be a nonempty quoted string", findings);
        return;
    }
    waivers.push(Waiver { line: c.line, rule });
}

fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    toks.get(i).and_then(|t| {
        if t.kind == TokKind::Ident {
            Some(t.text.as_str())
        } else {
            None
        }
    })
}

fn punct_at(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i), Some(t) if t.kind == TokKind::Punct(c))
}

/// Whether tokens at `i` spell `a::b` for the given segment names.
fn path2(toks: &[Token], i: usize, a: &str, b: &str) -> bool {
    ident_at(toks, i) == Some(a)
        && punct_at(toks, i + 1, ':')
        && punct_at(toks, i + 2, ':')
        && ident_at(toks, i + 3) == Some(b)
}

fn push(findings: &mut Vec<Finding>, rule: Rule, path: &str, t: &Token, message: String) {
    findings.push(Finding {
        rule,
        level: rule.default_level(),
        path: path.to_string(),
        line: t.line,
        col: t.col,
        message,
        id: String::new(),
    });
}

fn scan_unordered(path: &str, toks: &[Token], findings: &mut Vec<Finding>) {
    for t in toks {
        if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            let ordered = if t.text == "HashMap" {
                "BTreeMap"
            } else {
                "BTreeSet"
            };
            push(
                findings,
                Rule::UnorderedCollections,
                path,
                t,
                format!(
                    "`{}` has per-process iteration order; use `{}` or a sorted \
                     collect (or annotate with a reason)",
                    t.text, ordered
                ),
            );
        }
    }
}

fn scan_wall_clock(path: &str, toks: &[Token], findings: &mut Vec<Finding>) {
    for t in toks {
        if t.kind == TokKind::Ident && (t.text == "Instant" || t.text == "SystemTime") {
            push(
                findings,
                Rule::WallClock,
                path,
                t,
                format!(
                    "`{}` reads the host clock; simulated/accounting code must use \
                     virtual time (`SimTime`)",
                    t.text
                ),
            );
        }
    }
}

fn scan_ambient_env(path: &str, toks: &[Token], findings: &mut Vec<Finding>) {
    const ENV_FNS: [&str; 5] = ["var", "vars", "var_os", "args", "current_exe"];
    for i in 0..toks.len() {
        // `std::env` anywhere (use declarations and inline paths).
        if path2(toks, i, "std", "env") {
            push(
                findings,
                Rule::AmbientEnv,
                path,
                &toks[i],
                "`std::env` makes behaviour depend on ambient process state".to_string(),
            );
        }
        // `env::var(...)`-style calls after a `use std::env` — unless the
        // path is already `std::env::...` (counted by the arm above).
        else if ident_at(toks, i) == Some("env")
            && punct_at(toks, i + 1, ':')
            && punct_at(toks, i + 2, ':')
            && matches!(ident_at(toks, i + 3), Some(f) if ENV_FNS.contains(&f))
            && !(i >= 3 && path2(toks, i - 3, "std", "env"))
        {
            push(
                findings,
                Rule::AmbientEnv,
                path,
                &toks[i],
                format!(
                    "`env::{}` reads ambient process state",
                    ident_at(toks, i + 3).unwrap_or_default()
                ),
            );
        }
    }
}

fn scan_ambient_rng(path: &str, toks: &[Token], findings: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let hit = match t.text.as_str() {
            "thread_rng" | "OsRng" | "from_entropy" => true,
            // `rand::random` — the bare word `random` alone is too common.
            "rand" => path2(toks, i, "rand", "random"),
            _ => false,
        };
        if hit {
            push(
                findings,
                Rule::AmbientRng,
                path,
                t,
                format!(
                    "`{}` draws OS entropy; derive randomness from an explicit seed \
                     so runs replay",
                    t.text
                ),
            );
        }
    }
}

/// Flags shared-state threading primitives: `Mutex`/`RwLock`/`Condvar`,
/// channel modules (`mpsc`), `Atomic*` types, and `std::thread` paths
/// (`std::thread::...` or `thread::spawn`-style calls after a use). The
/// scanner is purely lexical; [`crate::walk`] keeps the rule scoped to the
/// determinism core.
fn scan_thread_primitives(path: &str, toks: &[Token], findings: &mut Vec<Finding>) {
    const THREAD_FNS: [&str; 6] = ["spawn", "scope", "sleep", "park", "yield_now", "Builder"];
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let what = match t.text.as_str() {
            "Mutex" | "RwLock" | "Condvar" | "mpsc" => Some(t.text.as_str()),
            // `std::thread` anywhere; a bare `thread::` path only when it
            // targets a known std::thread item (a local module named
            // `thread` with other items is implausible but possible).
            "std" if path2(toks, i, "std", "thread") => Some("std::thread"),
            "thread"
                if punct_at(toks, i + 1, ':')
                    && punct_at(toks, i + 2, ':')
                    && matches!(ident_at(toks, i + 3), Some(f) if THREAD_FNS.contains(&f))
                    && !(i >= 3 && path2(toks, i - 3, "std", "thread")) =>
            {
                Some("thread::")
            }
            s if s.starts_with("Atomic") && s.len() > "Atomic".len() => Some(s),
            _ => None,
        };
        if let Some(what) = what {
            push(
                findings,
                Rule::ThreadPrimitives,
                path,
                t,
                format!(
                    "`{what}` is a shared-state threading primitive; determinism-critical \
                     code must stay single-threaded (effect order becomes \
                     scheduler-dependent otherwise)"
                ),
            );
        }
    }
}

/// Flags `.fold(<float literal>, ...)` unless the reducer visibly performs
/// an order-insensitive reduction (`max`/`min`). This is a lexical
/// heuristic — it cannot prove the iterator unsorted — hence warn-level by
/// default.
fn scan_float_fold(path: &str, toks: &[Token], findings: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if !(punct_at(toks, i, '.')
            && ident_at(toks, i + 1) == Some("fold")
            && punct_at(toks, i + 2, '('))
        {
            continue;
        }
        // First argument must be (or start with) a float literal to count
        // as float accumulation.
        let arg = i + 3;
        let is_float_init = matches!(toks.get(arg), Some(t) if t.kind == TokKind::Float)
            || (punct_at(toks, arg, '-')
                && matches!(toks.get(arg + 1), Some(t) if t.kind == TokKind::Float));
        if !is_float_init {
            continue;
        }
        // Look ahead through the fold call for an order-insensitive
        // reducer (max/min): those folds are safe.
        let mut depth = 1usize;
        let mut j = i + 3;
        let mut insensitive = false;
        while j < toks.len() && depth > 0 {
            match &toks[j].kind {
                TokKind::Punct('(') => depth += 1,
                TokKind::Punct(')') => depth -= 1,
                TokKind::Ident if toks[j].text == "max" || toks[j].text == "min" => {
                    insensitive = true;
                }
                _ => {}
            }
            j += 1;
        }
        if !insensitive {
            push(
                findings,
                Rule::FloatFoldOrder,
                path,
                &toks[i + 1],
                "float accumulation in source order: float addition is \
                 non-associative, so the result depends on traversal order; \
                 sort the source first or annotate why the order is fixed"
                    .to_string(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan_all(src: &str) -> Vec<Finding> {
        let rules: Vec<Rule> = AUDIT_RULES.to_vec();
        scan("test.rs", &lex(src), &rules)
    }

    fn rules_hit(src: &str) -> Vec<&'static str> {
        scan_all(src).iter().map(|f| f.rule.name()).collect()
    }

    #[test]
    fn hashmap_flagged_with_position() {
        let f = scan_all("use std::collections::HashMap;\nlet m: HashMap<u32, u32>;");
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].rule, Rule::UnorderedCollections);
        assert_eq!((f[0].line, f[0].col), (1, 23));
        assert_eq!(f[1].line, 2);
    }

    #[test]
    fn hashset_in_string_not_flagged() {
        assert!(rules_hit(r#"let msg = "HashSet order";"#).is_empty());
    }

    #[test]
    fn wall_clock_and_env_and_rng() {
        assert_eq!(rules_hit("let t = Instant::now();"), vec!["wall-clock"]);
        assert_eq!(rules_hit("let t = SystemTime::now();"), vec!["wall-clock"]);
        assert_eq!(rules_hit("let a = std::env::args();"), vec!["ambient-env"]);
        assert_eq!(rules_hit("let v = env::var(\"X\");"), vec!["ambient-env"]);
        assert_eq!(rules_hit("let r = thread_rng();"), vec!["ambient-rng"]);
        assert_eq!(
            rules_hit("let r = SmallRng::from_entropy();"),
            vec!["ambient-rng"]
        );
        assert_eq!(
            rules_hit("let x: f64 = rand::random();"),
            vec!["ambient-rng"]
        );
    }

    #[test]
    fn env_in_other_paths_not_flagged() {
        // An `env` module of our own, not std's.
        assert!(rules_hit("let v = my::env::thing();").is_empty());
        assert!(rules_hit("let e = env!(\"CARGO_MANIFEST_DIR\");").is_empty());
    }

    #[test]
    fn thread_primitives_flagged() {
        assert_eq!(
            rules_hit("let m = Mutex::new(0);"),
            vec!["thread-primitives"]
        );
        assert_eq!(
            rules_hit("use std::sync::{Arc, RwLock};"),
            vec!["thread-primitives"]
        );
        assert_eq!(rules_hit("use std::sync::mpsc;"), vec!["thread-primitives"]);
        assert_eq!(
            rules_hit("let c = AtomicU64::new(0);"),
            vec!["thread-primitives"]
        );
        // `std::thread::scope` counts once (the `thread::` arm excludes
        // paths already counted as `std::thread`).
        assert_eq!(
            rules_hit("std::thread::scope(|s| {});"),
            vec!["thread-primitives"]
        );
        assert_eq!(
            rules_hit("thread::spawn(|| {});"),
            vec!["thread-primitives"]
        );
    }

    #[test]
    fn thread_primitives_not_overfired() {
        // Arc alone is fine (shared immutable data is deterministic).
        assert!(rules_hit("let a = Arc::new(1);").is_empty());
        // The engine's own virtual barriers are not std::sync::Barrier.
        assert!(rules_hit("let b = BarrierState::default();").is_empty());
        // `thread_rng` belongs to ambient-rng, and a lone `thread` ident
        // (e.g. a variable) is not a primitive.
        assert_eq!(rules_hit("let r = thread_rng();"), vec!["ambient-rng"]);
        assert!(rules_hit("let thread = 3; let x = thread + 1;").is_empty());
        // Strings don't count.
        assert!(rules_hit(r#"let s = "Mutex poisoning";"#).is_empty());
    }

    #[test]
    fn float_fold_flagged_but_max_fold_is_not() {
        assert_eq!(
            rules_hit("let s = xs.iter().fold(0.0, |a, x| a + x);"),
            vec!["float-fold-order"]
        );
        assert!(rules_hit("let m = xs.iter().cloned().fold(0.0, f64::max);").is_empty());
        // Integer folds are associative-enough (wrapping or exact).
        assert!(rules_hit("let s = xs.iter().fold(0u64, |a, x| a + x);").is_empty());
    }

    #[test]
    fn waiver_suppresses_same_and_next_line() {
        let src = "\
// gnb-lint: allow(unordered-collections, reason = \"len-only, never iterated\")
let m: HashMap<u32, u32> = HashMap::new();
let n: HashSet<u32> = HashSet::new();";
        let f = scan_all(src);
        // Line 2 suppressed (both hits); line 3 still flagged.
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.line == 3));
    }

    #[test]
    fn waiver_on_same_line() {
        let src =
            "let t = Instant::now(); // gnb-lint: allow(wall-clock, reason = \"calibration\")";
        assert!(scan_all(src).is_empty());
    }

    #[test]
    fn waiver_only_covers_its_rule() {
        let src = "\
// gnb-lint: allow(wall-clock, reason = \"calibration\")
let m: HashMap<u32, u32> = HashMap::new();";
        let f = scan_all(src);
        // Both `HashMap` tokens still flagged: the waiver names another rule.
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.rule == Rule::UnorderedCollections));
    }

    #[test]
    fn malformed_annotations_are_findings() {
        for bad in [
            "// gnb-lint: allow(unordered-collections)",
            "// gnb-lint: allow(no-such-rule, reason = \"x\")",
            "// gnb-lint: allow(wall-clock, reason = \"\")",
            "// gnb-lint: deny(wall-clock)",
        ] {
            let f = scan_all(bad);
            assert_eq!(f.len(), 1, "{bad}");
            assert_eq!(f[0].rule, Rule::BadAnnotation, "{bad}");
        }
    }

    #[test]
    fn bad_annotation_cannot_be_waived() {
        let src = "\
// gnb-lint: allow(bad-annotation, reason = \"nope\")";
        let f = scan_all(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::BadAnnotation);
    }

    #[test]
    fn findings_sorted_by_position() {
        let f = scan_all("let b: HashSet<u8>; let a = Instant::now();\nlet c: HashMap<u8, u8>;");
        let lines: Vec<(u32, u32)> = f.iter().map(|x| (x.line, x.col)).collect();
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted);
    }
}
