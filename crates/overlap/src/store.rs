//! Local task stores: flat arrays versus pointer-based containers.
//!
//! Paper §4.6 / Fig. 13: "The bulk-synchronous code uses flat arrays,
//! achieving better locality. The asynchronous code uses C++ standard
//! library data structures; while the code is more object-oriented and
//! readable, the trade-off is higher performance overheads."
//!
//! Both stores hold the same logical content — a rank's tasks grouped by
//! the remote read they wait on (local tasks under [`LOCAL_GROUP`]) — and
//! both expose the same traversal. [`FlatTaskStore`] is a
//! structure-of-arrays with contiguous group extents;
//! [`PointerTaskStore`] is a `BTreeMap` of individually boxed task nodes,
//! deliberately reproducing the pointer-chasing access pattern of the
//! paper's async code. `expt_f13` measures the traversal gap.

use gnb_align::Candidate;

/// Group key for tasks whose reads are both local.
pub const LOCAL_GROUP: u32 = u32::MAX;

/// A store of grouped alignment tasks with a uniform traversal interface.
pub trait TaskStore {
    /// Builds the store from `(group key, tasks)` pairs.
    fn from_groups(groups: Vec<(u32, Vec<Candidate>)>) -> Self
    where
        Self: Sized;

    /// Visits every task, group by group (ascending group key), yielding
    /// the group key and the task.
    fn traverse(&self, visit: &mut dyn FnMut(u32, &Candidate));

    /// Total number of tasks stored.
    fn task_count(&self) -> usize;

    /// Number of groups.
    fn group_count(&self) -> usize;
}

/// Flat structure-of-arrays store (the BSP code's layout).
#[derive(Debug, Clone, Default)]
pub struct FlatTaskStore {
    group_keys: Vec<u32>,
    /// `group_offsets[g]..group_offsets[g+1]` indexes the arrays below.
    group_offsets: Vec<u32>,
    a: Vec<u32>,
    b: Vec<u32>,
    a_pos: Vec<u32>,
    b_pos: Vec<u32>,
    same_strand: Vec<bool>,
}

impl FlatTaskStore {
    /// Tasks of group `g` reconstructed by index (used by the BSP engine).
    pub fn group_range(&self, g: usize) -> std::ops::Range<usize> {
        self.group_offsets[g] as usize..self.group_offsets[g + 1] as usize
    }

    /// The group keys, ascending.
    pub fn keys(&self) -> &[u32] {
        &self.group_keys
    }

    /// Materialises task `i`.
    pub fn task(&self, i: usize) -> Candidate {
        Candidate {
            a: self.a[i],
            b: self.b[i],
            a_pos: self.a_pos[i],
            b_pos: self.b_pos[i],
            same_strand: self.same_strand[i],
        }
    }

    /// Monomorphised traversal (no dynamic dispatch) for benchmarking the
    /// pure layout effect.
    pub fn traverse_with<F: FnMut(u32, &Candidate)>(&self, mut visit: F) {
        for (g, &key) in self.group_keys.iter().enumerate() {
            for i in self.group_range(g) {
                let c = self.task(i);
                visit(key, &c);
            }
        }
    }
}

impl TaskStore for FlatTaskStore {
    fn from_groups(mut groups: Vec<(u32, Vec<Candidate>)>) -> Self {
        groups.sort_by_key(|&(k, _)| k);
        let total: usize = groups.iter().map(|(_, v)| v.len()).sum();
        let mut s = FlatTaskStore {
            group_keys: Vec::with_capacity(groups.len()),
            group_offsets: Vec::with_capacity(groups.len() + 1),
            a: Vec::with_capacity(total),
            b: Vec::with_capacity(total),
            a_pos: Vec::with_capacity(total),
            b_pos: Vec::with_capacity(total),
            same_strand: Vec::with_capacity(total),
        };
        s.group_offsets.push(0);
        for (key, tasks) in groups {
            s.group_keys.push(key);
            for t in tasks {
                s.a.push(t.a);
                s.b.push(t.b);
                s.a_pos.push(t.a_pos);
                s.b_pos.push(t.b_pos);
                s.same_strand.push(t.same_strand);
            }
            s.group_offsets.push(s.a.len() as u32);
        }
        s
    }

    fn traverse(&self, visit: &mut dyn FnMut(u32, &Candidate)) {
        self.traverse_with(|k, c| visit(k, c));
    }

    fn task_count(&self) -> usize {
        self.a.len()
    }

    fn group_count(&self) -> usize {
        self.group_keys.len()
    }
}

/// Pointer-based store (the async code's layout): a `BTreeMap` of vectors
/// of individually heap-allocated task nodes.
#[derive(Debug, Default)]
pub struct PointerTaskStore {
    // The Box per task is the point: Fig. 13 measures the cost of
    // pointer-chasing layouts, so every node is a separate allocation.
    #[expect(
        clippy::vec_box,
        reason = "the Box per task is the layout Fig. 13 measures"
    )]
    groups: std::collections::BTreeMap<u32, Vec<Box<Candidate>>>,
}

impl PointerTaskStore {
    /// Monomorphised traversal (no dynamic dispatch).
    pub fn traverse_with<F: FnMut(u32, &Candidate)>(&self, mut visit: F) {
        for (&key, tasks) in &self.groups {
            for t in tasks {
                visit(key, t);
            }
        }
    }

    /// Tasks waiting on `key`, if any (used by the async engine's
    /// callback: "once a remote read b arrives, all alignment computations
    /// involving b are executed").
    pub fn group(&self, key: u32) -> Option<&[Box<Candidate>]> {
        self.groups.get(&key).map(|v| v.as_slice())
    }
}

impl TaskStore for PointerTaskStore {
    fn from_groups(groups: Vec<(u32, Vec<Candidate>)>) -> Self {
        let mut s = PointerTaskStore::default();
        for (key, tasks) in groups {
            s.groups
                .entry(key)
                .or_default()
                .extend(tasks.into_iter().map(Box::new));
        }
        s
    }

    fn traverse(&self, visit: &mut dyn FnMut(u32, &Candidate)) {
        self.traverse_with(|k, c| visit(k, c));
    }

    fn task_count(&self) -> usize {
        self.groups.values().map(|v| v.len()).sum()
    }

    fn group_count(&self) -> usize {
        self.groups.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(a: u32, b: u32, pos: u32) -> Candidate {
        Candidate {
            a,
            b,
            a_pos: pos,
            b_pos: pos + 1,
            same_strand: a.is_multiple_of(2),
        }
    }

    fn sample_groups() -> Vec<(u32, Vec<Candidate>)> {
        vec![
            (7, vec![cand(0, 7, 3), cand(1, 7, 9)]),
            (LOCAL_GROUP, vec![cand(0, 1, 0)]),
            (3, vec![cand(1, 3, 5)]),
        ]
    }

    fn collect<S: TaskStore>(s: &S) -> Vec<(u32, Candidate)> {
        let mut out = Vec::new();
        s.traverse(&mut |k, c| out.push((k, *c)));
        out
    }

    #[test]
    fn both_stores_agree() {
        let flat = FlatTaskStore::from_groups(sample_groups());
        let ptr = PointerTaskStore::from_groups(sample_groups());
        assert_eq!(collect(&flat), collect(&ptr));
        assert_eq!(flat.task_count(), 4);
        assert_eq!(ptr.task_count(), 4);
        assert_eq!(flat.group_count(), 3);
        assert_eq!(ptr.group_count(), 3);
    }

    #[test]
    fn traversal_is_group_ordered() {
        let flat = FlatTaskStore::from_groups(sample_groups());
        let keys: Vec<u32> = collect(&flat).into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![3, 7, 7, LOCAL_GROUP]);
    }

    #[test]
    fn flat_group_access() {
        let flat = FlatTaskStore::from_groups(sample_groups());
        assert_eq!(flat.keys(), &[3, 7, LOCAL_GROUP]);
        assert_eq!(flat.group_range(1), 1..3);
        assert_eq!(flat.task(1), cand(0, 7, 3));
    }

    #[test]
    fn pointer_group_lookup() {
        let ptr = PointerTaskStore::from_groups(sample_groups());
        assert_eq!(ptr.group(7).unwrap().len(), 2);
        assert!(ptr.group(99).is_none());
    }

    #[test]
    fn empty_stores() {
        let flat = FlatTaskStore::from_groups(vec![]);
        let ptr = PointerTaskStore::from_groups(vec![]);
        assert_eq!(flat.task_count(), 0);
        assert_eq!(ptr.task_count(), 0);
        assert_eq!(collect(&flat), vec![]);
        assert_eq!(collect(&ptr), vec![]);
    }

    #[test]
    fn duplicate_group_keys_merge_in_pointer_store() {
        let groups = vec![(5, vec![cand(0, 5, 1)]), (5, vec![cand(1, 5, 2)])];
        let ptr = PointerTaskStore::from_groups(groups);
        assert_eq!(ptr.group(5).unwrap().len(), 2);
        assert_eq!(ptr.group_count(), 1);
    }
}
