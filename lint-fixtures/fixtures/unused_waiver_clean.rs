//! A waiver that still fires is fulfilled.
pub fn stamp() -> std::time::Duration {
    #[expect(
        clippy::disallowed_types,
        reason = "fixture: the read this waiver covers"
    )]
    let t0 = std::time::Instant::now();
    t0.elapsed()
}
