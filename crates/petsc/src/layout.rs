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

    /// Convert a global index to (owner, local offset).
    pub fn to_local(&self, g: usize) -> (usize, usize) {
        let r = self.owner(g);
        (r, g - self.starts[r])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn to_local_round_trips() {
        let l = Layout::balanced(23, 4);
        for g in 0..23 {
            let (r, off) = l.to_local(g);
            assert_eq!(l.range(r).0 + off, g);
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
    fn empty_global_space() {
        let l = Layout::balanced(0, 3);
        assert_eq!(l.global_size(), 0);
        assert_eq!(l.local_size(0), 0);
    }
}
