//! Parallel layouts: how a global index space is partitioned across ranks.

use std::sync::Arc;

/// Ownership map of a 1-D global index space over `p` ranks: rank `r` owns
/// the contiguous range `[starts[r], starts[r+1])`.
///
/// Immutable and cheaply shareable; vectors, matrices and scatters hold an
/// `Arc<Layout>`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Layout {
    starts: Vec<usize>,
}

impl Layout {
    /// PETSc-style balanced split of `n` indices over `p` ranks: the first
    /// `n % p` ranks get one extra element.
    pub fn balanced(n: usize, p: usize) -> Arc<Layout> {
        assert!(p > 0, "layout needs at least one rank");
        let base = n / p;
        let extra = n % p;
        let mut starts = Vec::with_capacity(p + 1);
        let mut acc = 0usize;
        starts.push(0);
        for r in 0..p {
            acc += base + usize::from(r < extra);
            starts.push(acc);
        }
        Arc::new(Layout { starts })
    }

    /// A layout from explicit per-rank local sizes.
    pub fn from_local_sizes(sizes: &[usize]) -> Arc<Layout> {
        assert!(!sizes.is_empty(), "layout needs at least one rank");
        let mut starts = Vec::with_capacity(sizes.len() + 1);
        let mut acc = 0usize;
        starts.push(0);
        for &s in sizes {
            acc += s;
            starts.push(acc);
        }
        Arc::new(Layout { starts })
    }

    /// Total global size.
    pub fn global_size(&self) -> usize {
        *self.starts.last().expect("starts nonempty")
    }

    /// `[start, end)` owned by `rank`.
    pub fn range(&self, rank: usize) -> (usize, usize) {
        (self.starts[rank], self.starts[rank + 1])
    }

    pub fn local_size(&self, rank: usize) -> usize {
        self.starts[rank + 1] - self.starts[rank]
    }

    /// Which rank owns global index `g`. Panics if out of range.
    pub fn owner(&self, g: usize) -> usize {
        assert!(g < self.global_size(), "index {g} out of layout");
        // partition_point returns the first rank whose start exceeds g.
        self.starts.partition_point(|&s| s <= g) - 1
    }

    /// [`Layout::owner`] for a stream of indices: `last` is the owner the
    /// stream's previous index had, and its range is checked before any
    /// search. A stream sorted by index walks the owners as a monotone
    /// cursor, searching once per owner change.
    pub fn owner_after(&self, last: usize, g: usize) -> usize {
        match self.starts.get(last..last + 2) {
            Some(&[s, e]) if s <= g && g < e => last,
            _ => self.owner(g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn balanced_split_distributes_remainder_first() {
        let l = Layout::balanced(10, 3);
        assert_eq!(l.global_size(), 10);
        assert_eq!(l.range(0), (0, 4));
        assert_eq!(l.range(1), (4, 7));
        assert_eq!(l.range(2), (7, 10));
        assert_eq!(l.local_size(0), 4);
    }

    #[test]
    fn even_split() {
        let l = Layout::balanced(8, 4);
        for r in 0..4 {
            assert_eq!(l.local_size(r), 2);
        }
    }

    #[test]
    fn more_ranks_than_elements() {
        let l = Layout::balanced(2, 5);
        assert_eq!(l.local_size(0), 1);
        assert_eq!(l.local_size(1), 1);
        assert_eq!(l.local_size(2), 0);
        assert_eq!(l.global_size(), 2);
    }

    #[test]
    fn owner_lookup_matches_ranges() {
        let l = Layout::balanced(100, 7);
        for g in 0..100 {
            let r = l.owner(g);
            let (s, e) = l.range(r);
            assert!(s <= g && g < e, "g={g} r={r}");
        }
    }

    #[test]
    fn from_local_sizes_preserves_sizes() {
        let l = Layout::from_local_sizes(&[3, 0, 5, 2]);
        assert_eq!(l.global_size(), 10);
        assert_eq!(l.local_size(1), 0);
        assert_eq!(l.range(2), (3, 8));
        assert_eq!(l.owner(3), 2); // rank 1 owns nothing
    }

    #[test]
    #[should_panic(expected = "out of layout")]
    fn owner_out_of_range_panics() {
        Layout::balanced(5, 2).owner(5);
    }

    #[test]
    #[should_panic(expected = "index 5 out of layout")]
    fn a_stream_index_out_of_range_panics() {
        Layout::balanced(5, 2).owner_after(1, 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A stream's owners are [`Layout::owner`]'s, index by index, over
        /// layouts whose ranks may own nothing, for a stream in any order
        /// and for the same stream sorted.
        #[test]
        fn a_streams_owners_are_the_searched_owners(
            sizes in proptest::collection::vec(
                prop_oneof![Just(0usize), 1usize..6], 1..9),
            picks in proptest::collection::vec(0usize..1 << 20, 0..64),
        ) {
            let layout = Layout::from_local_sizes(&sizes);
            let n = layout.global_size();
            if n == 0 {
                return Ok(());
            }
            let mut stream: Vec<usize> = picks.iter().map(|p| p % n).collect();
            for _ in 0..2 {
                let mut last = 0;
                for &g in &stream {
                    last = layout.owner_after(last, g);
                    prop_assert_eq!(last, layout.owner(g));
                }
                stream.sort_unstable();
            }
        }
    }

    #[test]
    fn empty_global_space() {
        let l = Layout::balanced(0, 3);
        assert_eq!(l.global_size(), 0);
        assert_eq!(l.local_size(0), 0);
    }
}
