//! Outside the determinism core a `HashMap` needs no waiver.
pub fn table() -> usize {
    let m: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    m.len()
}
