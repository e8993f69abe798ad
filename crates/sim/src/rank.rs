//! Rank ids checked once, where a rank enters the engine ([`Ranks::id`]),
//! so that the per-rank vectors indexed on every dispatched event
//! ([`RankVec`]) carry no bounds check that can fail: ids and vectors are
//! both minted only by the run's one [`Ranks`].

use std::ops::{Index, IndexMut};

/// A run's rank count: the only maker of [`RankId`]s and [`RankVec`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ranks(usize);

/// A rank id below its run's rank count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct RankId(usize);

/// One entry per rank of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RankVec<T>(Vec<T>);

impl Ranks {
    /// A run of `n` ranks.
    pub(crate) fn new(n: usize) -> Ranks {
        Ranks(n)
    }

    /// The rank count.
    pub(crate) fn count(self) -> usize {
        self.0
    }

    /// `r` as a checked id, `None` if the run has no rank `r`.
    pub(crate) fn id(self, r: usize) -> Option<RankId> {
        (r < self.0).then_some(RankId(r))
    }

    /// Every rank, in order.
    pub(crate) fn iter(self) -> impl Iterator<Item = RankId> {
        (0..self.0).map(RankId)
    }

    /// A per-rank vector holding `value` for every rank.
    pub(crate) fn vec<T: Clone>(self, value: T) -> RankVec<T> {
        RankVec(vec![value; self.0])
    }
}

impl RankId {
    /// The raw rank number.
    pub(crate) fn get(self) -> usize {
        self.0
    }
}

impl<T> RankVec<T> {
    /// The entry of raw rank `r`, `None` outside the run.
    pub(crate) fn lookup(&self, r: usize) -> Option<&T> {
        self.0.get(r)
    }

    /// All entries, in rank order.
    pub(crate) fn as_slice(&self) -> &[T] {
        &self.0
    }
}

impl<T> Index<RankId> for RankVec<T> {
    type Output = T;

    fn index(&self, r: RankId) -> &T {
        #[expect(
            clippy::indexing_slicing,
            reason = "a RankId is below its Ranks' count, and every RankVec of that Ranks has count entries"
        )]
        &self.0[r.0]
    }
}

impl<T> IndexMut<RankId> for RankVec<T> {
    fn index_mut(&mut self, r: RankId) -> &mut T {
        #[expect(
            clippy::indexing_slicing,
            reason = "a RankId is below its Ranks' count, and every RankVec of that Ranks has count entries"
        )]
        &mut self.0[r.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_checked_and_index_vectors() {
        let ranks = Ranks::new(2);
        assert_eq!(ranks.id(1).map(RankId::get), Some(1));
        assert_eq!(ranks.id(2), None);
        let mut v = ranks.vec(0u64);
        for r in ranks.iter() {
            v[r] += r.get() as u64 + 1;
        }
        assert_eq!(v.as_slice(), &[1, 2]);
        assert_eq!(v.lookup(1), Some(&2));
        assert_eq!(v.lookup(2), None);
    }
}
