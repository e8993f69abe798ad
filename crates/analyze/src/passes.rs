//! The semantic passes: checks that need the parser and symbol index
//! rather than a token window.
//!
//! * [`protocol_pass`] — the coordination-protocol contract. The paper's
//!   BSP-vs-async comparison is only meaningful because every strategy
//!   implements the same request/reply/give-up protocol; this pass makes
//!   the contract mechanical: a strategy that issues tracked requests must
//!   really handle `on_reply` *and* `on_give_up` (a default
//!   `unreachable!` body does not count), every message variant armed via
//!   `after`/`after_app`/`send_with_timer` must have a handler arm in some
//!   `on_app`/`on_message`, protocol-enum matches must not discard payload
//!   variants behind a wildcard arm (without a wildcard, rustc itself
//!   proves exhaustiveness), and the key-namespace constants that keep
//!   read ids, batch keys and takeover keys disjoint must actually be
//!   disjoint.
//! * [`panic_pass`] — the panic-path audit. Functions reachable from the
//!   recovery hooks (`on_give_up`, takeover/restore) and engine dispatch
//!   are exactly the code the chaos suites exercise mid-crash; a panic
//!   there turns an injected fault into a test-process abort. The pass
//!   walks the call graph from those roots and denies `unwrap`/`expect`/
//!   `panic!`/`unreachable!`/`todo!`/`unimplemented!` and index
//!   expressions, each waivable with a reasoned annotation.
//!
//! Waiver hygiene (the third pass) lives in [`crate::walk`], because it
//! needs the post-suppression state of every other rule.

use crate::index::SymbolIndex;
use crate::parser::BodyFacts;
use crate::rules::{Finding, Level, Rule};
use std::collections::{BTreeMap, BTreeSet};

/// The trait whose impls form the protocol surface.
const STRATEGY_TRAIT: &str = "CoordinationStrategy";
/// The engine-facing dispatch trait.
const PROGRAM_TRAIT: &str = "Program";
/// The runtime transport envelope enum.
const RT_MSG: &str = "RtMsg";

/// Macro names that panic.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
/// Method names that panic on the sad path.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

fn finding(rule: Rule, path: &str, line: u32, col: u32, message: String) -> Finding {
    Finding {
        rule,
        level: Level::Deny,
        path: path.to_string(),
        line,
        col,
        message,
        id: String::new(),
    }
}

/// Whether a hook body actually does something: a missing body, an empty
/// one, or a lone `unreachable!`/`todo!`/`unimplemented!` is trivial.
fn nontrivial(facts: Option<&BodyFacts>) -> bool {
    match facts {
        None => false,
        Some(f) => {
            if f.tokens == 0 {
                return false;
            }
            let only_bail = f
                .macros
                .iter()
                .any(|m| matches!(m.name.as_str(), "unreachable" | "todo" | "unimplemented"))
                && f.calls.is_empty();
            !only_bail
        }
    }
}

/// The coordination-protocol contract checker. `audit` selects the files
/// whose definitions are checked (handlers are searched index-wide).
pub fn protocol_pass(ix: &SymbolIndex, audit: impl Fn(&str) -> bool) -> Vec<Finding> {
    let mut out = Vec::new();

    // Protocol enums: the transport envelope plus every strategy's `App`
    // associated type.
    let mut protocol_enums: BTreeSet<String> = BTreeSet::new();
    protocol_enums.insert(RT_MSG.to_string());
    for b in &ix.impls {
        if b.trait_name.as_deref() == Some(STRATEGY_TRAIT) && !b.cfg_test {
            for (name, value) in &b.assoc_types {
                if name == "App" {
                    protocol_enums.insert(value.clone());
                }
            }
        }
    }

    // --- strategy hook contract -------------------------------------
    for b in &ix.impls {
        if b.trait_name.as_deref() != Some(STRATEGY_TRAIT)
            || b.is_trait_def
            || b.cfg_test
            || !audit(&b.path)
        {
            continue;
        }
        // Does this strategy issue tracked requests? Look at every
        // non-test fn in the same file (strategies keep their inherent
        // helpers beside the trait impl).
        let issues = ix
            .fns
            .iter()
            .filter(|f| f.path == b.path && !f.cfg_test)
            .filter_map(|f| f.facts.as_ref())
            .flat_map(|f| f.calls.iter())
            .any(|c| c.name == "send_tracked");
        if !issues {
            continue;
        }
        for hook in ["on_reply", "on_give_up"] {
            let found = b
                .fn_ids
                .iter()
                .map(|&id| &ix.fns[id])
                .find(|f| f.name == hook);
            match found {
                None => out.push(finding(
                    Rule::ProtocolContract,
                    &b.path,
                    b.line,
                    1,
                    format!(
                        "`{}` issues tracked requests (send_tracked) but does not \
                         override `{hook}`; the trait default panics, so a timeout \
                         or reply would abort the run",
                        b.self_ty
                    ),
                )),
                Some(f) if !nontrivial(f.facts.as_ref()) => out.push(finding(
                    Rule::ProtocolContract,
                    &b.path,
                    f.line,
                    f.col,
                    format!(
                        "`{}::{hook}` is trivial (empty or unconditional bail) but \
                         this strategy issues tracked requests; replies/give-ups \
                         would be dropped or abort",
                        b.self_ty
                    ),
                )),
                Some(_) => {}
            }
        }
    }

    // --- armed timer variants need a handler arm ---------------------
    // A variant is handled when some `on_app`/`on_message` body references
    // it beyond its own arming calls (match arm, let-destructure).
    let mut handled: BTreeMap<(String, String), i64> = BTreeMap::new();
    for f in &ix.fns {
        if f.cfg_test || !(f.name == "on_app" || f.name == "on_message") {
            continue;
        }
        if let Some(facts) = &f.facts {
            for p in &facts.paths {
                *handled
                    .entry((p.ty.clone(), p.variant.clone()))
                    .or_insert(0) += 1;
            }
            for p in &facts.armed {
                *handled
                    .entry((p.ty.clone(), p.variant.clone()))
                    .or_insert(0) -= 1;
            }
        }
    }
    let mut seen: BTreeSet<(String, String, String)> = BTreeSet::new();
    for f in &ix.fns {
        if f.cfg_test || !audit(&f.path) {
            continue;
        }
        let facts = match &f.facts {
            Some(facts) => facts,
            None => continue,
        };
        for p in &facts.armed {
            if !protocol_enums.contains(&p.ty) {
                continue;
            }
            if !seen.insert((f.path.clone(), p.ty.clone(), p.variant.clone())) {
                continue;
            }
            if handled
                .get(&(p.ty.clone(), p.variant.clone()))
                .copied()
                .unwrap_or(0)
                <= 0
            {
                out.push(finding(
                    Rule::ProtocolContract,
                    &f.path,
                    p.line,
                    p.col,
                    format!(
                        "timer armed with `{}::{}` but no `on_app`/`on_message` \
                         handles that variant; the message would hit a dispatch \
                         dead end",
                        p.ty, p.variant
                    ),
                ));
            }
        }
    }

    // --- no wildcard-discard in protocol matches ---------------------
    for f in &ix.fns {
        if f.cfg_test || !audit(&f.path) {
            continue;
        }
        let facts = match &f.facts {
            Some(facts) => facts,
            None => continue,
        };
        for m in &facts.matches {
            let ty = m
                .arm_pairs
                .iter()
                .map(|p| p.ty.as_str())
                .find(|t| protocol_enums.contains(*t));
            let ty = match ty {
                Some(t) => t,
                None => continue,
            };
            for w in &m.wildcards {
                out.push(finding(
                    Rule::ProtocolContract,
                    &f.path,
                    w.line,
                    w.col,
                    format!(
                        "wildcard arm `{}` discards remaining `{ty}` protocol \
                         variants; match them explicitly so new variants cannot \
                         be silently dropped (rustc then proves exhaustiveness)",
                        w.name
                    ),
                ));
            }
        }
    }

    // --- key-namespace constants -------------------------------------
    // Plain tracked keys are u32-sized read ids; batch keys must start at
    // or above 2^32 and below the takeover namespace; takeover keys are
    // pinned at 1<<40 by the recovery design.
    let mut bases: Vec<(&str, &str, Option<u128>, u32, u32)> = Vec::new();
    for c in &ix.consts {
        if c.name.ends_with("_KEY_BASE") && audit(&c.path) {
            bases.push((c.name.as_str(), c.path.as_str(), c.value, c.line, c.col));
        }
    }
    for &(name, path, value, line, col) in &bases {
        let Some(v) = value else {
            out.push(finding(
                Rule::ProtocolContract,
                path,
                line,
                col,
                format!(
                    "`{name}` is a key-namespace base but its value is not a \
                     literal integer expression the auditor can check"
                ),
            ));
            continue;
        };
        if name == "TAKEOVER_KEY_BASE" && v != 1u128 << 40 {
            out.push(finding(
                Rule::ProtocolContract,
                path,
                line,
                col,
                format!(
                    "`TAKEOVER_KEY_BASE` must be 1<<40 (the takeover namespace \
                     the recovery design documents), found {v:#x}"
                ),
            ));
        }
        if name == "BATCH_KEY_BASE" && !(1u128 << 32..1u128 << 40).contains(&v) {
            out.push(finding(
                Rule::ProtocolContract,
                path,
                line,
                col,
                format!(
                    "`BATCH_KEY_BASE` must sit in [2^32, 2^40) — above the u32 \
                     read-id namespace, below the takeover namespace — found {v:#x}"
                ),
            ));
        }
    }
    for i in 0..bases.len() {
        for j in i + 1..bases.len() {
            if let (Some(a), Some(b)) = (bases[i].2, bases[j].2) {
                if a == b {
                    out.push(finding(
                        Rule::ProtocolContract,
                        bases[j].1,
                        bases[j].3,
                        bases[j].4,
                        format!(
                            "`{}` and `{}` share the value {a:#x}; key namespaces \
                             must be disjoint or tracked keys collide",
                            bases[i].0, bases[j].0
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// The panic-path audit. `audit` bounds both the roots and the traversal.
pub fn panic_pass(ix: &SymbolIndex, audit: impl Fn(&str) -> bool) -> Vec<Finding> {
    // Roots: the recovery hooks and engine dispatch surface.
    let mut roots = Vec::new();
    for (id, f) in ix.fns.iter().enumerate() {
        if f.cfg_test || !audit(&f.path) {
            continue;
        }
        let is_root = match f.name.as_str() {
            // Strategy give-up hook (including the trait-def default body).
            "on_give_up" => {
                f.trait_name.as_deref() == Some(STRATEGY_TRAIT)
                    || f.owner.as_deref() == Some(STRATEGY_TRAIT)
            }
            // Crash takeover (the runtime's adoption preamble and the
            // strategy hook it dispatches to) / checkpoint restore / retry
            // expiry / reply acceptance — the crash-recovery surface.
            "adopt" | "on_adopt" | "ckpt_restore" | "expire" | "accept_reply" => true,
            // Engine dispatch: the run loop and the Program hooks it calls.
            "run" => f.owner.as_deref() == Some("Engine"),
            "on_start" | "on_message" | "on_barrier" => {
                f.trait_name.as_deref() == Some(PROGRAM_TRAIT)
                    || f.owner.as_deref() == Some(PROGRAM_TRAIT)
            }
            _ => false,
        };
        if is_root {
            roots.push(id);
        }
    }
    let pred = ix.reachable(&roots, &audit);
    let mut out = Vec::new();
    for &id in pred.keys() {
        let f = &ix.fns[id];
        let facts = match &f.facts {
            Some(facts) => facts,
            None => continue,
        };
        let via = ix.chain(&pred, id);
        for m in &facts.macros {
            if PANIC_MACROS.contains(&m.name.as_str()) {
                out.push(finding(
                    Rule::PanicPath,
                    &f.path,
                    m.line,
                    m.col,
                    format!(
                        "`{}!` on the recovery/dispatch path ({via}); chaos tests \
                         reach this code mid-crash",
                        m.name
                    ),
                ));
            }
        }
        for c in &facts.calls {
            if c.method && PANIC_METHODS.contains(&c.name.as_str()) {
                out.push(finding(
                    Rule::PanicPath,
                    &f.path,
                    c.line,
                    c.col,
                    format!(
                        "`.{}()` on the recovery/dispatch path ({via}); return or \
                         route the error instead of aborting mid-recovery",
                        c.name
                    ),
                ));
            }
        }
        for s in &facts.indexes {
            out.push(finding(
                Rule::PanicPath,
                &f.path,
                s.line,
                s.col,
                format!(
                    "index expression on the recovery/dispatch path ({via}); a \
                     bad index aborts the run — use get() or waive with the \
                     bounds invariant",
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::{parse, Ast};

    fn index_of(srcs: &[(&str, &str)]) -> SymbolIndex {
        let files: Vec<(String, Ast)> = srcs
            .iter()
            .map(|(p, s)| (p.to_string(), parse(&lex(s))))
            .collect();
        SymbolIndex::build(&files)
    }

    const CORE: &str = "crates/core/src/strategy.rs";

    fn audit(p: &str) -> bool {
        p.starts_with("crates/core/src/") || p.starts_with("crates/sim/src/")
    }

    #[test]
    fn strategy_without_give_up_flagged() {
        let ix = index_of(&[(
            CORE,
            "impl CoordinationStrategy for Broken {\n\
                 type App = BrokenApp;\n\
                 fn on_start(&mut self, rt: &mut RtCtx) { rt.send_tracked(1, 0, 8, q); }\n\
                 fn on_reply(&mut self, key: u64) { self.done += 1; }\n\
             }",
        )]);
        let f = protocol_pass(&ix, audit);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("on_give_up"));
        assert_eq!(f[0].rule, Rule::ProtocolContract);
    }

    #[test]
    fn trivial_bail_body_flagged() {
        let ix = index_of(&[(
            CORE,
            "impl CoordinationStrategy for Broken {\n\
                 fn on_start(&mut self, rt: &mut RtCtx) { rt.send_tracked(1, 0, 8, q); }\n\
                 fn on_reply(&mut self, key: u64) { self.done += 1; }\n\
                 fn on_give_up(&mut self, key: u64) { unreachable!(\"nope\") }\n\
             }",
        )]);
        let f = protocol_pass(&ix, audit);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("trivial"));
    }

    #[test]
    fn complete_strategy_clean() {
        let ix = index_of(&[(
            CORE,
            "impl CoordinationStrategy for Good {\n\
                 type App = GoodApp;\n\
                 fn on_start(&mut self, rt: &mut RtCtx) { rt.send_tracked(1, 0, 8, q); }\n\
                 fn on_reply(&mut self, key: u64) { self.done += 1; }\n\
                 fn on_give_up(&mut self, key: u64) { self.retarget(key); }\n\
             }",
        )]);
        assert!(protocol_pass(&ix, audit).is_empty());
    }

    #[test]
    fn strategy_without_tracked_requests_needs_no_hooks() {
        let ix = index_of(&[(
            CORE,
            // A single-variant `App` handled by let-destructure, not a match.
            "impl CoordinationStrategy for Ticker {\n\
                 type App = Tick;\n\
                 fn on_start(&mut self, rt: &mut RtCtx) { rt.after_app(d, Tick::Fire); }\n\
                 fn on_app(&mut self, rt: &mut RtCtx, msg: Tick) {\n\
                     let Tick::Fire(n) = msg;\n\
                     self.fire(n);\n\
                 }\n\
             }",
        )]);
        assert!(protocol_pass(&ix, audit).is_empty());
    }

    #[test]
    fn unhandled_armed_variant_flagged() {
        let ix = index_of(&[(
            CORE,
            "impl CoordinationStrategy for S {\n\
                 type App = SApp;\n\
                 fn on_start(&mut self, rt: &mut RtCtx) { rt.after_app(d, SApp::Poll); }\n\
                 fn on_app(&mut self, rt: &mut RtCtx, msg: SApp) { drop(msg); }\n\
             }",
        )]);
        let f = protocol_pass(&ix, audit);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("SApp::Poll"));
    }

    #[test]
    fn rearm_inside_handler_still_counts_as_handled() {
        let ix = index_of(&[(
            CORE,
            "impl CoordinationStrategy for S {\n\
                 type App = SApp;\n\
                 fn on_start(&mut self, rt: &mut RtCtx) { rt.after_app(d, SApp::Poll); }\n\
                 fn on_app(&mut self, rt: &mut RtCtx, msg: SApp) {\n\
                     match msg {\n\
                         SApp::Poll => { self.pump(rt); rt.after_app(d, SApp::Poll); }\n\
                     }\n\
                 }\n\
             }",
        )]);
        assert!(protocol_pass(&ix, audit).is_empty());
    }

    #[test]
    fn wildcard_discard_of_protocol_enum_flagged() {
        let ix = index_of(&[(
            CORE,
            "impl CoordinationStrategy for S {\n\
                 type App = SApp;\n\
                 fn on_app(&mut self, rt: &mut RtCtx, msg: SApp) {\n\
                     match msg {\n\
                         SApp::Poll => self.pump(rt),\n\
                         _ => {}\n\
                     }\n\
                 }\n\
             }",
        )]);
        let f = protocol_pass(&ix, audit);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("wildcard"));
    }

    #[test]
    fn non_protocol_matches_may_wildcard() {
        let ix = index_of(&[(
            CORE,
            "fn classify(r: Reason) -> u32 { match r { Reason::Slow => 1, _ => 0 } }",
        )]);
        assert!(protocol_pass(&ix, audit).is_empty());
    }

    #[test]
    fn key_namespace_constants_checked() {
        let ix = index_of(&[(
            "crates/core/src/runtime/mod.rs",
            "pub const TAKEOVER_KEY_BASE: u64 = 1 << 40;\n\
             pub const BATCH_KEY_BASE: u64 = 1 << 32;",
        )]);
        assert!(protocol_pass(&ix, audit).is_empty());
        let bad = index_of(&[(
            "crates/core/src/runtime/mod.rs",
            "pub const TAKEOVER_KEY_BASE: u64 = 1 << 40;\n\
             pub const BATCH_KEY_BASE: u64 = 1 << 40;",
        )]);
        let f = protocol_pass(&bad, audit);
        // BATCH out of range + collision with TAKEOVER.
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn panic_pass_flags_reachable_sites_only() {
        let ix = index_of(&[(
            "crates/core/src/agg.rs",
            "impl CoordinationStrategy for S {\n\
                 fn on_give_up(&mut self, key: u64) { self.takeover(key); }\n\
             }\n\
             impl S {\n\
                 fn takeover(&mut self, key: u64) {\n\
                     let owner = self.pending.remove(&key).expect(\"tracked\");\n\
                     let shard = self.plan[owner];\n\
                 }\n\
                 fn unrelated(&mut self) { self.data.unwrap(); }\n\
             }",
        )]);
        let f = panic_pass(&ix, audit);
        // expect() + indexing inside takeover; `unrelated` is not reachable.
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.line == 6 || x.line == 7));
        assert!(f.iter().any(|x| x.message.contains("expect")));
    }

    #[test]
    fn panic_pass_ignores_test_mods_and_out_of_scope() {
        let ix = index_of(&[
            (
                "crates/core/src/agg.rs",
                "impl CoordinationStrategy for S {\n\
                     fn on_give_up(&mut self, key: u64) { helper(key); }\n\
                 }\n\
                 #[cfg(test)]\n\
                 mod tests { fn helper(k: u64) { panic!(\"test-only\"); } }",
            ),
            (
                "crates/align/src/lib.rs",
                "fn helper(k: u64) { data.unwrap(); }",
            ),
        ]);
        // The only `helper` candidates are test-only or out of scope.
        assert!(panic_pass(&ix, audit).is_empty());
    }

    #[test]
    fn program_dispatch_is_a_root() {
        let ix = index_of(&[(
            "crates/sim/src/prog.rs",
            "impl Program for Stage {\n\
                 fn on_message(&mut self, ctx: &mut Ctx, msg: Msg) { unreachable!() }\n\
             }",
        )]);
        let f = panic_pass(&ix, audit);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("unreachable"));
    }

    #[test]
    fn adoption_hook_is_a_root_in_its_own_right() {
        // No `Program` impl in sight: `on_adopt` roots the audit by name.
        let ix = index_of(&[(
            CORE,
            "impl CoordinationStrategy for S {\n\
                 fn on_adopt(&mut self, dead: usize) { self.shards[dead].replay(); }\n\
             }",
        )]);
        let f = panic_pass(&ix, audit);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("index expression"));
    }
}
