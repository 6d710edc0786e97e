//! Communication-topology map: who sends how much to whom.
//!
//! Every message delivery (the accounting half of a receive,
//! [`crate::Rank::complete_recv_msg`]) accumulates into a per-rank
//! src×dst byte/message-count record. The receiver owns the record — a
//! rank counts the traffic *delivered to it*, keyed by source — so the
//! per-rank data is a single column of the cluster-wide matrix and the
//! merge at report time ([`merge_comm_maps`]) is a disjoint assembly, not
//! a sum of overlapping counts. That receiver-side vantage point is also
//! what makes the conservation property exact: the merged matrix's
//! per-pair byte totals equal the bytes the mailbox actually delivered,
//! message by message.
//!
//! Deliveries accumulate into the rank's open **epoch**, which is closed
//! and snapshotted at each boundary:
//! - the collectives close one epoch per call, labeled
//!   `<collective>/<algorithm>` (e.g. `alltoallw/binned`), and
//! - [`crate::Rank::stage_end`] closes one per profiling stage, labeled
//!   `stage:<path>`,
//!
//! so nonuniformity can be attributed to the call or phase that caused
//! it, not just observed in aggregate. A delivery belongs to exactly one
//! closed or open epoch, so the running totals are a view: the sum over
//! the epochs. Epochs from different ranks are matched by `(label,
//! occurrence)` — the k-th `allgatherv/ring` epoch on every rank
//! describes the same collective call in an SPMD program — by the one
//! cross-rank join this module owns, which the history merge
//! ([`crate::merge_histories`]) reads too.
//!
//! Like the flight recorder, the comm map never touches the simulated
//! clock: enabling it changes no timing. A rank holds no map unless the
//! run observes it ([`crate::Observers`], the one way in; `enable_comm_map`
//! is the frozen benchmark's primitive): one branch per delivery until
//! then. The run's [`crate::Capture`] holds the merged map.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::json::{parse_schema_led, Json, JsonWriter};

/// Per-rank accumulator: bytes/messages delivered *to this rank*, keyed
/// by source, with closed epoch snapshots. Owned by [`crate::Rank`];
/// construct directly only in tests and fixtures.
#[derive(Debug, Clone)]
pub struct RankCommMap {
    rank: usize,
    size: usize,
    /// Deliveries since the last epoch boundary (the open epoch), indexed
    /// by source rank.
    cur_bytes: Vec<u64>,
    cur_msgs: Vec<u64>,
    /// Per-label occurrence counters (the epoch-matching key).
    occurrences: HashMap<String, u32>,
    epochs: Vec<RankEpoch>,
}

/// One closed epoch on one rank: the traffic delivered to `rank` between
/// two boundaries, indexed by source.
#[derive(Debug, Clone)]
pub struct RankEpoch {
    pub label: String,
    /// 0-based occurrence of `label` on this rank (k-th epoch so named).
    pub occurrence: u32,
    pub bytes: Vec<u64>,
    pub msgs: Vec<u64>,
}

impl RankCommMap {
    /// An empty map for `rank` in a cluster of `size` ranks.
    pub fn new(rank: usize, size: usize) -> Self {
        RankCommMap {
            rank,
            size,
            cur_bytes: vec![0; size],
            cur_msgs: vec![0; size],
            occurrences: HashMap::new(),
            epochs: Vec::new(),
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.size
    }

    /// Account one delivered message of `bytes` from `src`. Normally fed
    /// by the runtime's receive path; public so fixtures and property
    /// tests can build maps by hand.
    pub fn record_delivery(&mut self, src: usize, bytes: u64) {
        self.cur_bytes[src] += bytes;
        self.cur_msgs[src] += 1;
    }

    /// Close the current epoch under `label`, starting a fresh one. The
    /// snapshot is taken even if no traffic arrived (an epoch with zero
    /// deliveries is still a call that happened).
    pub fn close_epoch(&mut self, label: &str) {
        let occurrence = self.occurrences.entry(label.to_string()).or_insert(0);
        let epoch = RankEpoch {
            label: label.to_string(),
            occurrence: *occurrence,
            bytes: std::mem::replace(&mut self.cur_bytes, vec![0; self.size]),
            msgs: std::mem::replace(&mut self.cur_msgs, vec![0; self.size]),
        };
        *occurrence += 1;
        self.epochs.push(epoch);
    }

    pub fn epochs(&self) -> &[RankEpoch] {
        &self.epochs
    }

    /// Total bytes delivered to this rank from `src` since construction:
    /// every delivery belongs to exactly one epoch, so this is the sum
    /// over the closed epochs plus the open one.
    pub fn total_bytes_from(&self, src: usize) -> u64 {
        self.cur_bytes[src] + self.epochs.iter().map(|e| e.bytes[src]).sum::<u64>()
    }

    /// Total messages delivered to this rank from `src`.
    pub fn total_msgs_from(&self, src: usize) -> u64 {
        self.cur_msgs[src] + self.epochs.iter().map(|e| e.msgs[src]).sum::<u64>()
    }
}

/// A dense src×dst matrix of byte and message counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommMatrix {
    n: usize,
    /// Row-major, `src * n + dst`.
    bytes: Vec<u64>,
    msgs: Vec<u64>,
}

impl CommMatrix {
    pub fn new(n: usize) -> Self {
        CommMatrix {
            n,
            bytes: vec![0; n * n],
            msgs: vec![0; n * n],
        }
    }

    pub fn n(&self) -> usize {
        self.n
    }

    pub fn add(&mut self, src: usize, dst: usize, bytes: u64, msgs: u64) {
        let i = src * self.n + dst;
        self.bytes[i] += bytes;
        self.msgs[i] += msgs;
    }

    pub fn bytes(&self, src: usize, dst: usize) -> u64 {
        self.bytes[src * self.n + dst]
    }

    pub fn msgs(&self, src: usize, dst: usize) -> u64 {
        self.msgs[src * self.n + dst]
    }

    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    pub fn total_msgs(&self) -> u64 {
        self.msgs.iter().sum()
    }

    /// Bytes sent by `src` to anyone (row sum).
    pub fn row_bytes(&self, src: usize) -> u64 {
        self.bytes[src * self.n..(src + 1) * self.n].iter().sum()
    }

    /// Bytes delivered to `dst` from anyone (column sum).
    pub fn col_bytes(&self, dst: usize) -> u64 {
        (0..self.n).map(|s| self.bytes(s, dst)).sum()
    }

    /// Element-wise accumulate `other` into `self`. Panics on size
    /// mismatch — matrices from different cluster sizes are not mergeable.
    pub fn merge(&mut self, other: &CommMatrix) {
        assert_eq!(self.n, other.n, "merging comm matrices of different size");
        for (a, b) in self.bytes.iter_mut().zip(&other.bytes) {
            *a += b;
        }
        for (a, b) in self.msgs.iter_mut().zip(&other.msgs) {
            *a += b;
        }
    }

    /// All pairs with traffic, in `(src, dst)` lexicographic order.
    pub fn nonzero_pairs(&self) -> Vec<(usize, usize, u64, u64)> {
        let mut out = Vec::new();
        for src in 0..self.n {
            for dst in 0..self.n {
                let (b, m) = (self.bytes(src, dst), self.msgs(src, dst));
                if b > 0 || m > 0 {
                    out.push((src, dst, b, m));
                }
            }
        }
        out
    }

    /// The `k` highest-volume pairs, descending by bytes, ties broken by
    /// `(src, dst)` order (deterministic).
    pub fn top_pairs(&self, k: usize) -> Vec<(usize, usize, u64)> {
        let mut pairs: Vec<(usize, usize, u64)> = self
            .nonzero_pairs()
            .into_iter()
            .map(|(s, d, b, _)| (s, d, b))
            .collect();
        pairs.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| (a.0, a.1).cmp(&(b.0, b.1))));
        pairs.truncate(k);
        pairs
    }
}

/// One epoch of the merged, cluster-wide map.
#[derive(Debug, Clone)]
pub struct EpochMatrix {
    pub label: String,
    pub occurrence: u32,
    pub matrix: CommMatrix,
}

/// The cluster-wide communication map: the total matrix plus every epoch,
/// assembled from all ranks' [`RankCommMap`]s.
#[derive(Debug, Clone)]
pub struct ClusterCommMap {
    pub n: usize,
    pub total: CommMatrix,
    pub epochs: Vec<EpochMatrix>,
}

/// The one cross-rank epoch join: every rank's epochs grouped by
/// `(label, occurrence)`, one group per cluster-wide epoch in the order
/// first seen scanning `ranks` in order, each group holding `(rank,
/// epoch)` for the ranks that closed it, in that same order. `epoch_of`
/// finds the [`RankEpoch`] inside a stored item. Both
/// [`merge_comm_maps`] and [`crate::merge_histories`] read it.
pub(crate) fn join_epochs<'a, T>(
    ranks: impl IntoIterator<Item = (usize, &'a [T])>,
    epoch_of: impl Fn(&'a T) -> &'a RankEpoch,
) -> Vec<Vec<(usize, &'a T)>> {
    let mut groups: Vec<Vec<(usize, &T)>> = Vec::new();
    let mut index: HashMap<(&str, u32), usize> = HashMap::new();
    for (rank, items) in ranks {
        for item in items {
            let epoch = epoch_of(item);
            let slot = *index
                .entry((&epoch.label, epoch.occurrence))
                .or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
            groups[slot].push((rank, item));
        }
    }
    groups
}

/// Merge per-rank maps into the cluster-wide view. Rank `r`'s record of
/// deliveries-from-`src` becomes column `dst = r` of the matrix; epochs
/// are matched across ranks by `(label, occurrence)` (`join_epochs`)
/// and appear in the order first seen scanning ranks 0..n. The total is
/// the sum of the epoch matrices plus each rank's open epoch. Panics if
/// `maps` is empty or the maps disagree on cluster size.
pub fn merge_comm_maps(maps: &[RankCommMap]) -> ClusterCommMap {
    let n = maps.first().expect("merge_comm_maps on no ranks").size;
    let mut total = CommMatrix::new(n);
    for map in maps {
        assert_eq!(map.size, n, "rank comm maps from different cluster sizes");
        for src in 0..n {
            total.add(src, map.rank, map.cur_bytes[src], map.cur_msgs[src]);
        }
    }
    let ranks = maps.iter().map(|m| (m.rank, m.epochs.as_slice()));
    let epochs = join_epochs(ranks, |e| e)
        .into_iter()
        .map(|group| {
            let mut matrix = CommMatrix::new(n);
            for &(dst, epoch) in &group {
                for src in 0..n {
                    matrix.add(src, dst, epoch.bytes[src], epoch.msgs[src]);
                }
            }
            total.merge(&matrix);
            let first = group[0].1;
            EpochMatrix {
                label: first.label.clone(),
                occurrence: first.occurrence,
                matrix,
            }
        })
        .collect();
    ClusterCommMap { n, total, epochs }
}

/// Encode an outlier ratio as integer thousandths for storage in trace
/// events and flight-recorder slots (both are integer-only so traces
/// stay `Eq` and byte-stable). Infinite ratios — a nonzero max over a
/// zero bulk quantile — map to `u64::MAX`.
pub fn ratio_to_millis(ratio: f64) -> u64 {
    if ratio.is_infinite() {
        u64::MAX
    } else {
        (ratio * 1000.0).round() as u64
    }
}

/// Inverse of [`ratio_to_millis`].
pub fn millis_to_ratio(millis: u64) -> f64 {
    if millis == u64::MAX {
        f64::INFINITY
    } else {
        millis as f64 / 1000.0
    }
}

/// Shade ramp for the heatmap and the history sparklines, lightest to
/// darkest. Index 0 is reserved for exact zero.
pub(crate) const SHADES: &[u8] = b".:-=+*#%@";

/// Render `m` as an ASCII heatmap: rows are sources, columns are
/// destinations, and each cell's shade is proportional to the cell's
/// log₂ byte volume relative to the matrix maximum (`.` = no traffic,
/// `@` = within a factor-of-two bucket of the hottest pair).
pub fn render_heatmap(m: &CommMatrix) -> String {
    let n = m.n();
    let max_bits = (0..n * n)
        .map(|i| 64 - m.bytes[i].leading_zeros() as u64)
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "src\\dst  0..{}   shade ~ log2(bytes), max pair = {} B",
        n.saturating_sub(1),
        m.bytes.iter().max().copied().unwrap_or(0)
    );
    for src in 0..n {
        let _ = write!(out, "{src:>7} ");
        for dst in 0..n {
            let b = m.bytes(src, dst);
            let c = if b == 0 {
                SHADES[0]
            } else {
                let bits = 64 - b.leading_zeros() as u64;
                // Map 1..=max_bits onto shades 1..=last, darkest at max.
                let hi = (SHADES.len() - 1) as u64;
                let idx = if max_bits <= 1 {
                    hi
                } else {
                    1 + (bits - 1) * (hi - 1) / (max_bits - 1)
                };
                SHADES[idx.min(hi) as usize]
            };
            out.push(c as char);
        }
        out.push('\n');
    }
    out
}

/// The `bytes, msgs, pairs` members of one matrix object.
fn json_pairs(w: &mut JsonWriter, m: &CommMatrix) {
    w.field("bytes", m.total_bytes())
        .field("msgs", m.total_msgs());
    w.field("pairs", m.nonzero_pairs());
}

/// Serialize the merged map as JSON (golden-tested): nonzero pairs only
/// as `[src, dst, bytes, msgs]` in `(src, dst)` order, epochs in merge
/// order.
pub fn comm_matrix_json(map: &ClusterCommMap) -> String {
    JsonWriter::schema_led(|w| {
        w.field("ranks", map.n);
        w.key("total").object(|w| json_pairs(w, &map.total));
        w.objects("epochs", &map.epochs, |w, epoch| {
            w.field("label", &epoch.label);
            w.field("occurrence", epoch.occurrence);
            json_pairs(w, &epoch.matrix);
        });
    })
}

/// Most ranks a reader allocates dense matrices for (the count comes
/// from the file).
const MAX_PARSED_RANKS: usize = 4096;

/// The `[src, dst, bytes, msgs]` list at `key` as an `n`×`n` matrix (a
/// matrix object's `bytes`/`msgs` totals follow from it and are not read).
pub(crate) fn matrix_from(v: &Json, key: &str, n: usize) -> Result<CommMatrix, String> {
    let mut m = CommMatrix::new(n);
    for [src, dst, bytes, msgs] in v.list(key, Json::counts)? {
        if src.max(dst) >= n as u64 {
            return Err(format!("\"{key}\": {src}->{dst} is outside {n} ranks"));
        }
        m.add(src as usize, dst as usize, bytes, msgs);
    }
    Ok(m)
}

/// The `ranks` member, bounded before anything is allocated for it.
pub(crate) fn ranks_from(v: &Json) -> Result<usize, String> {
    match v.u64("ranks")? as usize {
        n if n <= MAX_PARSED_RANKS => Ok(n),
        n => Err(format!("\"ranks\": {n} is more than {MAX_PARSED_RANKS}")),
    }
}

/// Read a [`comm_matrix_json`] document back.
pub fn parse_comm_matrix(text: &str) -> Result<ClusterCommMap, String> {
    let v = parse_schema_led(text)?;
    let n = ranks_from(&v)?;
    Ok(ClusterCommMap {
        n,
        total: matrix_from(v.field("total")?, "pairs", n)?,
        epochs: v.list("epochs", |e| {
            Ok(EpochMatrix {
                label: e.str("label")?.to_string(),
                occurrence: e.u32("occurrence")?,
                matrix: matrix_from(e, "pairs", n)?,
            })
        })?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_rank_fixture() -> Vec<RankCommMap> {
        let mut a = RankCommMap::new(0, 2);
        let mut b = RankCommMap::new(1, 2);
        a.record_delivery(1, 64);
        b.record_delivery(0, 32);
        b.record_delivery(0, 32);
        a.close_epoch("alltoallw/binned");
        b.close_epoch("alltoallw/binned");
        a.record_delivery(1, 8);
        a.close_epoch("alltoallw/binned");
        b.close_epoch("alltoallw/binned");
        vec![a, b]
    }

    #[test]
    fn merge_assembles_columns_and_matches_epochs() {
        let merged = merge_comm_maps(&two_rank_fixture());
        assert_eq!(merged.total.bytes(1, 0), 72);
        assert_eq!(merged.total.bytes(0, 1), 64);
        assert_eq!(merged.total.msgs(0, 1), 2);
        assert_eq!(merged.total.total_bytes(), 136);
        assert_eq!(merged.epochs.len(), 2, "occurrences stay distinct");
        assert_eq!(merged.epochs[0].matrix.bytes(1, 0), 64);
        assert_eq!(merged.epochs[0].matrix.bytes(0, 1), 64);
        assert_eq!(merged.epochs[1].matrix.bytes(1, 0), 8);
        assert_eq!(merged.epochs[1].matrix.bytes(0, 1), 0);
    }

    #[test]
    fn totals_keep_counting_after_epoch_close() {
        let maps = two_rank_fixture();
        assert_eq!(maps[0].total_bytes_from(1), 72);
        assert_eq!(maps[0].total_msgs_from(1), 2);
    }

    #[test]
    fn top_pairs_is_deterministic_under_ties() {
        let mut m = CommMatrix::new(3);
        m.add(0, 1, 10, 1);
        m.add(2, 0, 10, 1);
        m.add(1, 2, 99, 1);
        assert_eq!(m.top_pairs(3), vec![(1, 2, 99), (0, 1, 10), (2, 0, 10)]);
    }

    #[test]
    fn heatmap_shades_zero_and_max_distinctly() {
        let mut m = CommMatrix::new(2);
        m.add(0, 1, 1 << 20, 1);
        m.add(1, 0, 1, 1);
        let art = render_heatmap(&m);
        let rows: Vec<&str> = art.lines().skip(1).collect();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].ends_with(".@"), "row 0 renders {:?}", rows[0]);
        assert!(rows[1].ends_with(":."), "row 1 renders {:?}", rows[1]);
    }

    #[test]
    fn comm_matrix_round_trips() {
        let map = crate::ledger::tests::observed_ring().comm;
        assert_eq!((map.n, map.epochs.len()), (8, 2));
        crate::ledger::tests::assert_round_trip(
            &comm_matrix_json(&map),
            parse_comm_matrix,
            comm_matrix_json,
            ("[0,1,6144,2]", "[0,8,6144,2]", "\"pairs\""),
        );
        let huge = comm_matrix_json(&map).replacen("\"ranks\":8", "\"ranks\":1e9", 1);
        assert!(parse_comm_matrix(&huge).unwrap_err().contains("\"ranks\""));
    }

    #[test]
    fn an_occurrence_past_u32_is_refused_not_wrapped() {
        let json = comm_matrix_json(&merge_comm_maps(&two_rank_fixture()));
        let wrapped = json.replacen("\"occurrence\":1,", "\"occurrence\":4294967296,", 1);
        let err = parse_comm_matrix(&wrapped).unwrap_err();
        assert!(err.contains("\"occurrence\": 4294967296"), "{err}");
    }

    #[test]
    fn json_lists_nonzero_pairs_in_order() {
        let merged = merge_comm_maps(&two_rank_fixture());
        let json = comm_matrix_json(&merged);
        assert!(json.starts_with("{\"schema\":1,\"ranks\":2,\"total\":{\"bytes\":136,\"msgs\":4,"));
        assert!(json.contains("\"pairs\":[[0,1,64,2],[1,0,72,2]]"));
        assert!(json.contains("\"label\":\"alltoallw/binned\",\"occurrence\":1,"));
    }
}
