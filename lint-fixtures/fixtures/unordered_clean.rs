//! Ordered collections pass; a commented HashMap and one in a string
//! literal are not uses.
use std::collections::{BTreeMap, BTreeSet};

// A HashMap would be wrong here.
pub fn tally(xs: &[u32]) -> usize {
    let mut seen: BTreeSet<u32> = BTreeSet::new();
    let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
    for &x in xs {
        seen.insert(x);
        *counts.entry(x).or_default() += 1;
    }
    let _msg = "HashSet in a string is fine";
    seen.len() + counts.len()
}
