//! unused-waiver: a stale `#[expect]` (the line it decorates no longer
//! trips its lint) is unfulfilled_lint_expectations.
#[expect(
    clippy::disallowed_types,
    reason = "was a real clock read before the refactor"
)]
pub fn settled() -> u64 {
    42
}
