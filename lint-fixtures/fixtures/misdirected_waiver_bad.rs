//! A waiver only covers its own lint: this one names
//! disallowed_methods, so the HashMap still trips disallowed_types and
//! the waiver itself is unfulfilled.
use std::collections::BTreeMap;

pub fn table() -> usize {
    #[expect(clippy::disallowed_methods, reason = "fixture: names the wrong lint")]
    let m: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    let n: BTreeMap<u32, u32> = BTreeMap::new();
    m.len() + n.len()
}
