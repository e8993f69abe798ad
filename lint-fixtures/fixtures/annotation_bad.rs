//! bad-annotation: `#[expect(lint, reason = "…")]` is the only waiver.
//! An `#[allow]` (allow_attributes), an `#[expect]` without a reason
//! (allow_attributes_without_reason) and an unknown lint name
//! (unknown_lints) all fail.
#[allow(clippy::disallowed_types)]
pub fn a() -> std::time::Instant {
    std::time::Instant::now()
}

#[expect(clippy::disallowed_types)]
pub fn b() -> std::time::Instant {
    std::time::Instant::now()
}

#[expect(clippy::no_such_lint, reason = "unknown lint name")]
pub fn c() {}
