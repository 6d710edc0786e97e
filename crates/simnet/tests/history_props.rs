//! Property tests for the epoch pattern hash and the history merge.
//!
//! The cluster pattern hash is the epoch-identity primitive the
//! recurrence analytics join on, so three properties must hold: the
//! combined hash is independent of the order ranks are merged in, it
//! changes when any single receive length changes, and distinct length
//! vectors do not collide in practice.

use proptest::prelude::*;

use ncd_simnet::{merge_histories, pattern_hash_rank, History, RankEpoch, RankHistory, SimTime};

const MAX_RANKS: usize = 6;

/// Build one rank's history holding a single epoch with the given
/// per-source byte vector.
fn rank_history(rank: usize, size: usize, bytes: Vec<u64>) -> RankHistory {
    let mut h = RankHistory::new(rank, size);
    let msgs = bytes.iter().map(|&b| u64::from(b > 0)).collect();
    h.append(
        &RankEpoch {
            label: "exchange/ring",
            occurrence: 0,
            bytes,
            msgs,
        },
        SimTime::from_ns(100 + rank as u64),
    );
    h
}

/// Trim an oversampled `MAX_RANKS x MAX_RANKS` length matrix down to an
/// `n x n` cluster (the vendored proptest has no `prop_flat_map`, so the
/// dependent size is applied here instead of inside the strategy).
fn cluster_volumes(raw: &[Vec<u64>], n: usize) -> Vec<Vec<u64>> {
    raw[..n].iter().map(|row| row[..n].to_vec()).collect()
}

fn merged(volumes: &[Vec<u64>]) -> History {
    let n = volumes.len();
    let hs: Vec<RankHistory> = volumes
        .iter()
        .enumerate()
        .map(|(r, v)| rank_history(r, n, v.clone()))
        .collect();
    merge_histories(&hs)
}

fn lengths_matrix() -> impl Strategy<Value = Vec<Vec<u64>>> {
    proptest::collection::vec(
        proptest::collection::vec(0u64..1 << 20, MAX_RANKS),
        MAX_RANKS,
    )
}

proptest! {
    #[test]
    fn cluster_pattern_hash_is_merge_order_invariant(
        raw in lengths_matrix(),
        n in 2usize..MAX_RANKS + 1,
    ) {
        let volumes = cluster_volumes(&raw, n);
        let forward: Vec<RankHistory> = volumes
            .iter()
            .enumerate()
            .map(|(r, v)| rank_history(r, n, v.clone()))
            .collect();
        let mut backward = forward.clone();
        backward.reverse();
        let a = merge_histories(&forward);
        let b = merge_histories(&backward);
        prop_assert_eq!(a.points.len(), 1);
        prop_assert_eq!(a.points[0].pattern, b.points[0].pattern);
        // The whole point, not just the hash: byte totals and msgs agree too.
        prop_assert_eq!(a.points[0].bytes, b.points[0].bytes);
        prop_assert_eq!(a.points[0].msgs, b.points[0].msgs);
    }

    #[test]
    fn pattern_hash_changes_when_any_length_changes(
        raw in lengths_matrix(),
        n in 2usize..MAX_RANKS + 1,
        pick in 0usize..1 << 16,
        delta in 1u64..1 << 16,
    ) {
        let volumes = cluster_volumes(&raw, n);
        let base = merged(&volumes).points[0].pattern;
        let mut bumped = volumes.clone();
        let r = pick % n;
        let i = (pick / n) % n;
        bumped[r][i] = bumped[r][i].wrapping_add(delta);
        prop_assert_ne!(base, merged(&bumped).points[0].pattern);
    }

    #[test]
    fn rank_hash_is_position_and_rank_sensitive(
        lengths in proptest::collection::vec(0u64..1 << 20, 2..12),
        rank in 0usize..64,
    ) {
        let base = pattern_hash_rank(rank, &lengths);
        // A different rank id yields a different share even on the same
        // vector.
        prop_assert_ne!(base, pattern_hash_rank(rank + 1, &lengths));
        // Swapping two unequal adjacent lengths changes the share:
        // position matters, not just the multiset.
        if let Some(i) = (1..lengths.len()).find(|&i| lengths[i] != lengths[i - 1]) {
            let mut swapped = lengths.clone();
            swapped.swap(i - 1, i);
            prop_assert_ne!(base, pattern_hash_rank(rank, &swapped));
        }
    }

    #[test]
    fn distinct_vectors_rarely_collide(
        vectors in proptest::collection::vec(
            proptest::collection::vec(0u64..1 << 20, 4), 2..32),
    ) {
        let distinct: std::collections::HashSet<&Vec<u64>> = vectors.iter().collect();
        let hashes: std::collections::HashSet<u64> = distinct
            .iter()
            .map(|v| pattern_hash_rank(0, v))
            .collect();
        // FNV-1a over 64 bits: a collision among <32 random vectors would
        // be astronomically unlikely and indicates a broken hash.
        prop_assert_eq!(hashes.len(), distinct.len());
    }
}
