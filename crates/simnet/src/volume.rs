//! Volume statistics: the one definition of each number the workspace
//! computes over a set of per-peer or per-rank byte counts.
//!
//! * [`outlier_ratio_of`] — the paper's §4.2.1 evidence: the maximum over
//!   the `fraction` bulk quantile, found by two Floyd–Rivest selections
//!   ([`k_select`]) in linear expected time,
//!
//!   ```text
//!              k_select(VOLS, N)
//!   ratio = ------------------------------------
//!            k_select(VOLS, N * OUTLIER_FRACT)
//!   ```
//!
//! * [`gini`] — how unequal the set is, zeros included;
//! * [`pattern_hash_rank`] — one rank's additive share of the
//!   order-invariant epoch pattern hash.
//!
//! The selector in `ncd_core` thresholds the ratio into its verdict; the
//! comm-map analytics, the epoch history and the drift monitor read these
//! same functions, so the evidence a collective chose from and the
//! evidence an analysis reports cannot drift apart.

/// `OUTLIER_FRACT` of the paper's equation 1, the quantile bounding "the
/// bulk": the one value the selector and every analysis use.
pub const OUTLIER_FRACTION: f64 = 0.9;

/// Return the `k`-th smallest element (0-indexed) of `data`, partially
/// reordering it in place. Expected linear time (Floyd–Rivest SELECT).
///
/// Panics if `data` is empty or `k >= data.len()`.
pub fn k_select(data: &mut [u64], k: usize) -> u64 {
    assert!(!data.is_empty(), "k_select on empty set");
    assert!(k < data.len(), "k={} out of range {}", k, data.len());
    fr_select(data, 0, data.len() as i64 - 1, k as i64);
    data[k]
}

/// Floyd–Rivest SELECT over `data[left..=right]`, placing the `k`-th
/// smallest element of the whole array at index `k`. Signed indices follow
/// the original algorithm's formulation and avoid unsigned underflow.
fn fr_select(data: &mut [u64], mut left: i64, mut right: i64, k: i64) {
    while right > left {
        // On large ranges, first narrow [left, right] around position k by
        // selecting within a sample — the bound-tightening step that gives
        // the algorithm its near-optimal comparison count. These are the
        // workspace's only libm calls (`ln`, `exp`; `sqrt` is IEEE-exact),
        // and they only pick the sample window: the recursion permutes
        // within [left, right] and the partition below places the exact
        // k-th value whatever the window, so no selected value, and no
        // simulated or ledgered number, depends on the platform's libm.
        // (The permutation does, which is why `outlier_ratio_of` selects
        // in a copy.)
        if right - left > 600 {
            let n = (right - left + 1) as f64;
            let i = (k - left + 1) as f64;
            let z = n.ln();
            let s = 0.5 * (2.0 * z / 3.0).exp();
            let sign = if i - n / 2.0 < 0.0 { -1.0 } else { 1.0 };
            let sd = 0.5 * (z * s * (n - s) / n).sqrt() * sign;
            let new_left = left.max((k as f64 - i * s / n + sd).floor() as i64);
            let new_right = right.min((k as f64 + (n - i) * s / n + sd).floor() as i64);
            fr_select(data, new_left, new_right, k);
        }
        // Partition around t = data[k].
        let t = data[k as usize];
        let mut i = left;
        let mut j = right;
        data.swap(left as usize, k as usize);
        if data[right as usize] > t {
            data.swap(right as usize, left as usize);
        }
        while i < j {
            data.swap(i as usize, j as usize);
            i += 1;
            j -= 1;
            while data[i as usize] < t {
                i += 1;
            }
            while data[j as usize] > t {
                j -= 1;
            }
        }
        if data[left as usize] == t {
            data.swap(left as usize, j as usize);
        } else {
            j += 1;
            data.swap(j as usize, right as usize);
        }
        // Continue in the part that contains the k-th element.
        if j <= k {
            left = j + 1;
        }
        if k <= j {
            right = j - 1;
        }
    }
}

/// The max/bulk-quantile ratio of a volume set — the evidence number of
/// the outlier test, without the verdict thresholding — via the same two
/// Floyd–Rivest selections ([`k_select`] at `n-1` and at the `fraction`
/// quantile). Degenerate sets report `0.0` (fewer than two volumes, or
/// all-zero) or `f64::INFINITY` (zero bulk quantile under a nonzero
/// maximum). Used directly by the comm-map epoch analytics, which need
/// the ratio of *measured* per-pair volumes regardless of any threshold.
pub fn outlier_ratio_of(volumes: &[u64], fraction: f64) -> f64 {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
    if volumes.len() < 2 {
        return 0.0;
    }
    let mut set = volumes.to_vec();
    let n = set.len();
    let max = k_select(&mut set, n - 1);
    if max == 0 {
        return 0.0;
    }
    let k_bulk = (((n as f64) * fraction).ceil() as usize).clamp(1, n) - 1;
    let bulk = k_select(&mut set, k_bulk);
    if bulk == 0 {
        return f64::INFINITY;
    }
    max as f64 / bulk as f64
}

/// Gini coefficient of a volume set: 0 for perfectly even traffic, → 1
/// as a single pair dominates. Zeros count — a matrix where one pair
/// carries everything and the rest are silent is maximally unequal, so
/// callers pass *all* cells, not just the nonzero ones. All-zero or
/// empty sets report 0.
pub fn gini(volumes: &[u64]) -> f64 {
    let n = volumes.len();
    let total: u128 = volumes.iter().map(|&v| v as u128).sum();
    if n == 0 || total == 0 {
        return 0.0;
    }
    let mut sorted = volumes.to_vec();
    sorted.sort_unstable();
    let weighted: u128 = sorted
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as u128 + 1) * v as u128)
        .sum();
    (2.0 * weighted as f64) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
}

/// The FNV-1a 64-bit offset basis: the state before any byte is folded.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into an FNV-1a 64-bit state: the one fold behind pattern
/// hashes, ledger run ids and flight-recorder label words.
pub(crate) fn fnv_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// This rank's additive share of the cluster pattern hash for one epoch:
/// FNV-1a over the rank id followed by the per-source recv-length vector
/// (8 LE bytes each). Cluster hashes combine per-rank shares with
/// `wrapping_add`, so the combined hash is independent of merge order yet
/// changes (w.h.p.) when any single length does.
pub fn pattern_hash_rank(rank: usize, lengths: &[u64]) -> u64 {
    let h = fnv_bytes(FNV_OFFSET, &(rank as u64).to_le_bytes());
    lengths
        .iter()
        .fold(h, |h, len| fnv_bytes(h, &len.to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_select(v: &[u64]) {
        let mut sorted = v.to_vec();
        sorted.sort_unstable();
        for (k, &expect) in sorted.iter().enumerate() {
            let mut work = v.to_vec();
            assert_eq!(
                k_select(&mut work, k),
                expect,
                "k={k} on {:?}",
                &v[..v.len().min(20)]
            );
        }
    }

    #[test]
    fn selects_on_small_sets() {
        check_select(&[5]);
        check_select(&[2, 1]);
        check_select(&[3, 1, 2]);
        check_select(&[9, 9, 9, 9]);
        check_select(&[1, 2, 3, 4, 5, 6, 7, 8]);
        check_select(&[8, 7, 6, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn selects_with_duplicates() {
        check_select(&[4, 4, 1, 1, 3, 3, 2, 2, 4, 1]);
        check_select(&[0, 0, 0, 1, 0, 0]);
    }

    #[test]
    fn selects_on_large_pseudorandom_set() {
        // Deterministic LCG so the test needs no external RNG.
        let mut x = 0x1234_5678u64;
        let v: Vec<u64> = (0..5000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> 33
            })
            .collect();
        let mut sorted = v.clone();
        sorted.sort_unstable();
        for k in [0, 1, 17, 2499, 2500, 4998, 4999] {
            let mut work = v.clone();
            assert_eq!(k_select(&mut work, k), sorted[k], "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_set_panics() {
        k_select(&mut [], 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_k_panics() {
        k_select(&mut [1, 2, 3], 3);
    }

    #[test]
    fn outlier_ratio_of_degenerate_and_skewed_sets() {
        let mut vols = vec![100u64; 10];
        vols[0] = 500;
        assert!((outlier_ratio_of(&vols, 0.9) - 5.0).abs() < 1e-12);
        assert_eq!(outlier_ratio_of(&[], 0.9), 0.0);
        assert_eq!(outlier_ratio_of(&[42], 0.9), 0.0);
        assert_eq!(outlier_ratio_of(&[0, 0, 0], 0.9), 0.0);
        assert_eq!(outlier_ratio_of(&[0, 5], 0.9), 1.0);
        let mut zeros = vec![0u64; 10];
        zeros[4] = 9;
        assert!(outlier_ratio_of(&zeros, 0.9).is_infinite());
        // On sets smaller than 1/(1-fraction) the bulk quantile IS the
        // maximum, so the ratio degenerates to 1 — never a false outlier.
        assert_eq!(outlier_ratio_of(&[1, 1, 1000], 0.9), 1.0);
        assert!((outlier_ratio_of(&[1000, 10, 10], 0.5) - 100.0).abs() < 1e-12);
        let r = outlier_ratio_of(&[10, 10, 10, 10, 10, 10, 10, 10, 10, 1000], 0.9);
        assert!((r - 100.0).abs() < 1e-12, "ratio {r}");
    }

    #[test]
    fn gini_of_even_and_skewed_sets() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0, 0, 0]), 0.0);
        assert!(gini(&[5, 5, 5, 5]).abs() < 1e-12);
        // One pair carries everything out of 10 cells: G = (n-1)/n.
        let mut v = vec![0u64; 10];
        v[3] = 1000;
        assert!((gini(&v) - 0.9).abs() < 1e-12);
        // Mild skew sits strictly between.
        let g = gini(&[1, 2, 3, 4]);
        assert!(g > 0.0 && g < 0.5, "gini {g}");
    }

    #[test]
    fn pattern_hash_is_length_sensitive() {
        let base = pattern_hash_rank(0, &[8, 8, 64]);
        assert_ne!(base, pattern_hash_rank(0, &[8, 8, 65]));
        assert_ne!(base, pattern_hash_rank(0, &[8, 64, 8]));
        assert_ne!(base, pattern_hash_rank(1, &[8, 8, 64]));
    }
}
