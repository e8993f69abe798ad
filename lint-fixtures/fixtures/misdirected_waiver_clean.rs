//! The waiver names the lint that fires, so it is fulfilled and the use
//! is waived.
use std::collections::BTreeMap;

pub fn table() -> usize {
    #[expect(clippy::disallowed_types, reason = "fixture: names the right lint")]
    let m: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    let n: BTreeMap<u32, u32> = BTreeMap::new();
    m.len() + n.len()
}
