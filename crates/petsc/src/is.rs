//! Index sets (`IS` in PETSc): descriptions of sets of global indices used
//! to define scatters and sub-selections.

/// An index set: a sequence of global indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IndexSet {
    /// Explicit list of global indices.
    General(Vec<usize>),
    /// `first, first+step, ..., first+(n-1)*step`.
    Stride { first: usize, step: usize, n: usize },
    /// Blocks of `bs` consecutive indices starting at `bs * b` for each
    /// block index `b`.
    Block { bs: usize, blocks: Vec<usize> },
}

impl IndexSet {
    pub fn general(indices: impl Into<Vec<usize>>) -> Self {
        IndexSet::General(indices.into())
    }

    pub fn stride(first: usize, step: usize, n: usize) -> Self {
        assert!(step > 0 || n <= 1, "zero step with multiple entries");
        IndexSet::Stride { first, step, n }
    }

    pub fn block(bs: usize, blocks: impl Into<Vec<usize>>) -> Self {
        assert!(bs > 0, "block size must be positive");
        IndexSet::Block {
            bs,
            blocks: blocks.into(),
        }
    }

    /// Number of indices in the set.
    pub fn len(&self) -> usize {
        match self {
            IndexSet::General(v) => v.len(),
            IndexSet::Stride { n, .. } => *n,
            IndexSet::Block { bs, blocks } => bs * blocks.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th index of the set.
    pub fn get(&self, i: usize) -> usize {
        match self {
            IndexSet::General(v) => v[i],
            IndexSet::Stride { first, step, n } => {
                assert!(i < *n, "stride IS index {i} out of {n}");
                first + i * step
            }
            IndexSet::Block { bs, blocks } => blocks[i / bs] * bs + i % bs,
        }
    }

    /// Materialize as an explicit vector.
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// Iterate over the indices without materializing. The variant is
    /// matched once, not per index as [`IndexSet::get`] does.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let (mut general, mut stride, mut block) = (None, None, None);
        match self {
            IndexSet::General(v) => general = Some(v.iter().copied()),
            &IndexSet::Stride { first, step, n } => {
                stride = Some((0..n).map(move |i| first + i * step))
            }
            &IndexSet::Block { bs, ref blocks } => {
                block = Some(blocks.iter().flat_map(move |&b| b * bs..(b + 1) * bs))
            }
        }
        general
            .into_iter()
            .flatten()
            .chain(stride.into_iter().flatten())
            .chain(block.into_iter().flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn general_is() {
        let is = IndexSet::general(vec![5, 3, 9]);
        assert_eq!(is.len(), 3);
        assert_eq!(is.get(1), 3);
        assert_eq!(is.to_vec(), vec![5, 3, 9]);
        assert!(!is.is_empty());
    }

    #[test]
    fn stride_is() {
        let is = IndexSet::stride(10, 3, 4);
        assert_eq!(is.to_vec(), vec![10, 13, 16, 19]);
        assert_eq!(is.len(), 4);
    }

    #[test]
    fn stride_singleton_and_empty() {
        assert_eq!(IndexSet::stride(7, 0, 1).to_vec(), vec![7]);
        assert!(IndexSet::stride(7, 0, 0).is_empty());
    }

    #[test]
    fn block_is_expands_blocks() {
        let is = IndexSet::block(3, vec![0, 2]);
        assert_eq!(is.to_vec(), vec![0, 1, 2, 6, 7, 8]);
        assert_eq!(is.len(), 6);
        assert_eq!(is.get(4), 7);
    }

    #[test]
    fn iter_visits_what_get_reads() {
        for is in [
            IndexSet::general(vec![5, 3, 9]),
            IndexSet::stride(10, 3, 4),
            IndexSet::stride(0, 2, 5),
            IndexSet::stride(7, 0, 1),
            IndexSet::block(3, vec![4, 0, 2]),
            IndexSet::general(vec![]),
        ] {
            let visited: Vec<usize> = is.iter().collect();
            assert_eq!(
                visited,
                (0..is.len()).map(|i| is.get(i)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn stride_out_of_range_panics() {
        IndexSet::stride(0, 1, 3).get(3);
    }
}
