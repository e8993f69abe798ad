//! A waiver for a rule that is not in scope where it sits is as stale as
//! one whose hazard was fixed: outside the determinism core `HashMap` is
//! allowed, so this `#[expect]` is unfulfilled there (inside the core it
//! is fulfilled, and this file passes).
pub fn table() -> usize {
    #[expect(
        clippy::disallowed_types,
        reason = "fixture: only the core bans HashMap"
    )]
    let m: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    m.len()
}
