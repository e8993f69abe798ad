//! bad-annotation: a waiver that does not parse is a compile error
//! (E0452), not a comment that silently waives nothing.
#[expect(clippy::disallowed_types, reason)]
pub fn d() -> Option<std::time::Instant> {
    None
}

#[expect("wall-clock")]
pub fn e() {}
