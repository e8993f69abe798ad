//! A well-formed waiver: an `#[expect]` naming a lint that fires, with a
//! reason. (Any lint will do; this one fires in every scope.)
#[expect(clippy::too_many_arguments, reason = "fixture: a reasoned waiver")]
pub fn a(p: u8, q: u8, r: u8, s: u8, t: u8, u: u8, v: u8, w: u8) -> u32 {
    [p, q, r, s, t, u, v, w].iter().map(|&x| u32::from(x)).sum()
}
