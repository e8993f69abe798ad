//! A waiver that parses: lint path, then a reason string.
#[expect(clippy::too_many_arguments, reason = "fixture: well-formed")]
pub fn d(p: u8, q: u8, r: u8, s: u8, t: u8, u: u8, v: u8, w: u8) -> u8 {
    p ^ q ^ r ^ s ^ t ^ u ^ v ^ w
}
