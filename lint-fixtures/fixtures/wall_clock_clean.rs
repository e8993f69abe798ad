//! Virtual time passes; a host-clock read carrying a reasoned `#[expect]`
//! passes too, on an item and on a statement.
pub fn measure(now_ns: u64, dt_ns: u64) -> u64 {
    now_ns + dt_ns
}

#[expect(clippy::disallowed_types, reason = "fixture: the item-level form")]
pub fn calibrated() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn elapsed_ns() -> u128 {
    #[expect(clippy::disallowed_types, reason = "fixture: the statement-level form")]
    let t0 = std::time::Instant::now();
    t0.elapsed().as_nanos()
}
