//! unordered-collections: `HashMap`/`HashSet` iterate in a per-process
//! order, so anything derived from a traversal varies run to run.
use std::collections::HashMap;
use std::collections::HashSet;

pub fn tally(xs: &[u32]) -> usize {
    let mut seen: HashSet<u32> = HashSet::new();
    let mut counts: HashMap<u32, u32> = HashMap::new();
    for &x in xs {
        seen.insert(x);
        *counts.entry(x).or_default() += 1;
    }
    seen.len() + counts.len()
}
