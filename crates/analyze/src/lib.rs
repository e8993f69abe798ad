//! `gnb-analyze`: static determinism auditing for the `gnb` workspace.
//!
//! Everything this reproduction claims — bit-identical DES timelines,
//! byte-identical experiment TSVs, replayable fault plans — rests on the
//! codebase *staying* deterministic. This crate enforces that mechanically:
//!
//! The pipeline is lex → parse → index → passes:
//!
//! * [`lexer`] — a dependency-free Rust lexer (no `syn`; the build
//!   environment has no crates.io route) that understands comments,
//!   strings, lifetimes and float literals well enough to avoid
//!   text-search false positives;
//! * [`parser`] — a recursive-descent item parser over the token stream
//!   (fns, impls, traits, enums, consts, match arms, call/path
//!   expressions) feeding per-function [`parser::BodyFacts`];
//! * [`index`] — a lightweight workspace symbol index: which impls
//!   implement `CoordinationStrategy`, which enums carry protocol
//!   payloads, and which functions are reachable from engine dispatch and
//!   the recovery hooks (name-resolved call graph + BFS);
//! * [`rules`] — the token-level determinism contract: deny
//!   unordered-collection use, wall-clock reads, ambient
//!   environment/randomness, and order-sensitive float accumulation, with
//!   reasoned `// gnb-lint: allow(...)` waivers;
//! * [`passes`] — the semantic passes on top of the index: the
//!   coordination-protocol contract checker, the panic-path audit, and
//!   waiver hygiene (a stale waiver is itself a deny finding);
//! * [`walk`] — workspace traversal and rule scoping (the full contract in
//!   `crates/{sim,core,overlap}`, clock/env/rng rules elsewhere plus
//!   `tests/` and `examples/`, the experiment harness exempt);
//! * [`report`] — human-readable and JSON rendering, stable finding IDs,
//!   and the committed findings baseline (ratchet).
//!
//! The `gnb-lint` binary (`src/bin/gnb-lint.rs`) is the CLI entry point;
//! CI runs it with `--deny-all --baseline lint-baseline.json`. The dynamic
//! half of the determinism suite — the virtual-time race detector — lives
//! in `gnb-sim` (see `gnb_sim::race::RaceDetector`), because it must
//! observe live event dispatch; this crate is the static half.

#![warn(missing_docs)]

pub mod index;
pub mod lexer;
pub mod parser;
pub mod passes;
pub mod report;
pub mod rules;
pub mod walk;

pub use report::{Baseline, Report};
pub use rules::{Finding, Level, Rule, AUDIT_RULES};
pub use walk::{collect_files, rules_for, scan_source, scan_sources, scan_workspace};
