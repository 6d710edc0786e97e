//! `MPI_Allgatherv` — gathering *nonuniform* per-rank contributions to all
//! ranks — with the baseline and the paper's optimized algorithm selection
//! (§4.2.1).
//!
//! The baseline (MPICH2-style) picks its algorithm from the **total**
//! volume: large totals use the ring, which is optimal for uniform volumes
//! but serializes a single outlier message into O(N) sequential hops
//! (paper Figure 8). The optimized path first runs the linear-time
//! outlier-ratio test (two Floyd–Rivest selections, [`crate::select`]);
//! when the volume set contains outliers it switches to a binomial-pattern
//! algorithm — recursive doubling for power-of-two process counts (paper
//! Figure 10), the dissemination variant otherwise (paper Figure 11) — so
//! the outlier reaches everyone in O(log N) rounds moved by many senders
//! simultaneously.

use std::ops::Range;

use ncd_simnet::volume::OUTLIER_FRACTION;
use ncd_simnet::CostKind;

use crate::coll::{coll_tag, CollOp};
use crate::comm::Comm;
use crate::config::MpiFlavor;
use crate::select::{detect_outliers, detect_outliers_with_ratio, VolumeShape};

/// Total volume (bytes) from which allgatherv is large (MPICH2's switchover).
const LONG_THRESHOLD: usize = 32 * 1024;

/// Which data-movement pattern an allgatherv uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllgathervAlgorithm {
    /// N-1 neighbour-to-neighbour steps; each block travels the whole ring.
    Ring,
    /// log2(N) pairwise exchange phases; requires a power-of-two N.
    RecursiveDoubling,
    /// ceil(log2 N) phases of send-to-(i+2^p); works for any N.
    Dissemination,
}

impl AllgathervAlgorithm {
    /// Stable lowercase name used as the metric/trace algorithm label.
    pub fn label(self) -> &'static str {
        match self {
            AllgathervAlgorithm::Ring => "ring",
            AllgathervAlgorithm::RecursiveDoubling => "recursive_doubling",
            AllgathervAlgorithm::Dissemination => "dissemination",
        }
    }

    /// Inverse of [`label`](Self::label): parse an algorithm from the name
    /// the decision audit records (e.g. a misselection's `suggested`
    /// field), so a what-if experiment can pin exactly what the audit
    /// proposed.
    pub fn from_label(label: &str) -> Option<AllgathervAlgorithm> {
        match label {
            "ring" => Some(AllgathervAlgorithm::Ring),
            "recursive_doubling" => Some(AllgathervAlgorithm::RecursiveDoubling),
            "dissemination" => Some(AllgathervAlgorithm::Dissemination),
            _ => None,
        }
    }
}

impl Comm<'_> {
    /// Gather each rank's `send` bytes (of length `counts[rank]`) into
    /// `recvbuf`, which must hold `counts.iter().sum()` bytes, blocks laid
    /// out consecutively in rank order. Every rank must pass the same
    /// `counts` (as in MPI, where the count/displacement arrays are
    /// replicated).
    ///
    /// The algorithm is chosen per the communicator's flavor; see
    /// [`Comm::allgatherv_choose`].
    pub fn allgatherv(&mut self, send: &[u8], counts: &[usize], recvbuf: &mut [u8]) {
        // Algorithm selection cost: the baseline scans the volume set once
        // (for the total); the optimized path adds the two Floyd–Rivest
        // selections of the outlier test — also linear, with a larger
        // constant (the paper: "we are increasing the coefficient of the
        // linear time taken, but not its computational complexity").
        let passes = match self.config().flavor {
            MpiFlavor::Baseline => 1,
            MpiFlavor::Optimized => 3,
        };
        let ns = passes as f64 * counts.len() as f64 * 2.0;
        self.rank_mut().charge_cpu(CostKind::Comm, ns);
        // The outlier test runs once per call; the choice, the audit and
        // the verdict metrics below all read this one result. (Its cost
        // is the `passes` charge above, not this call.)
        let cfg = self.config();
        let flavor = cfg.flavor;
        let total: usize = counts.iter().sum();
        let (shape, ratio) =
            detect_outliers_with_ratio(counts, OUTLIER_FRACTION, cfg.outlier_ratio);
        // A pinned algorithm (what-if decision-flip intervention) bypasses
        // the policy; the audit still records the evidence, with the
        // reason telling the analysis layer the choice was forced.
        let pin = cfg.allgatherv_pin;
        let algo = pin.unwrap_or_else(|| self.choose(total, shape));
        // Audit the selection: one AlgorithmDecision per auto-selected
        // call, carrying the evidence (total, outlier ratio, pow2) and
        // the policy branch taken.
        let reason = if pin.is_some() {
            "pinned"
        } else {
            match (flavor, algo) {
                (MpiFlavor::Baseline, AllgathervAlgorithm::Ring) => "total >= long threshold",
                (MpiFlavor::Baseline, AllgathervAlgorithm::RecursiveDoubling) => {
                    "small total, pow2 ranks"
                }
                (MpiFlavor::Baseline, AllgathervAlgorithm::Dissemination) => {
                    "small total, non-pow2 ranks"
                }
                (MpiFlavor::Optimized, AllgathervAlgorithm::Ring) => {
                    "uniform large total: ring bandwidth path"
                }
                (MpiFlavor::Optimized, _) => {
                    if shape == VolumeShape::Outliers {
                        "outliers: binomial movement"
                    } else {
                        "uniform small total: binomial latency path"
                    }
                }
            }
        };
        let label = algo.label();
        self.audit_decision(
            "allgatherv",
            counts.len(),
            total as u64,
            ratio,
            label,
            reason,
        );
        if let Some(m) = self.rank_mut().metrics_mut() {
            // The auto-selected path is additionally tracked under the
            // "adaptive" label, so selection-policy behaviour is queryable
            // separately from explicitly-pinned algorithm runs.
            m.observe("allgatherv", "bytes", "adaptive", total as u64);
            m.counter_add("allgatherv", "selected", label, 1);
            if flavor == MpiFlavor::Optimized {
                let verdict = match shape {
                    VolumeShape::Outliers => "outliers",
                    VolumeShape::Uniform => "uniform",
                };
                m.counter_add("allgatherv", "verdict", verdict, 1);
                if ratio.is_finite() {
                    m.gauge_set("allgatherv", "outlier_ratio", verdict, ratio);
                }
            }
        }
        self.allgatherv_with(algo, send, counts, recvbuf);
    }

    /// The algorithm-selection policy under the current flavor.
    pub fn allgatherv_choose(&self, counts: &[usize]) -> AllgathervAlgorithm {
        let cfg = self.config();
        let shape = detect_outliers(counts, OUTLIER_FRACTION, cfg.outlier_ratio);
        self.choose(counts.iter().sum(), shape)
    }

    /// The policy itself, given the evidence: the total volume and the
    /// outlier verdict (which only the optimized flavor consults).
    fn choose(&self, total: usize, shape: VolumeShape) -> AllgathervAlgorithm {
        let pow2 = self.size().is_power_of_two();
        let cfg = self.config();
        match cfg.flavor {
            MpiFlavor::Baseline => {
                if total >= LONG_THRESHOLD {
                    AllgathervAlgorithm::Ring
                } else if pow2 {
                    AllgathervAlgorithm::RecursiveDoubling
                } else {
                    AllgathervAlgorithm::Dissemination
                }
            }
            MpiFlavor::Optimized => match (shape, total >= LONG_THRESHOLD) {
                (VolumeShape::Outliers, _) | (VolumeShape::Uniform, false) => {
                    if pow2 {
                        AllgathervAlgorithm::RecursiveDoubling
                    } else {
                        AllgathervAlgorithm::Dissemination
                    }
                }
                (VolumeShape::Uniform, true) => AllgathervAlgorithm::Ring,
            },
        }
    }

    /// Run allgatherv with an explicit algorithm (exposed for the
    /// benchmarks and tests; [`Comm::allgatherv`] chooses automatically).
    pub fn allgatherv_with(
        &mut self,
        algo: AllgathervAlgorithm,
        send: &[u8],
        counts: &[usize],
        recvbuf: &mut [u8],
    ) {
        let size = self.size();
        let rank = self.rank();
        assert_eq!(counts.len(), size, "one count per rank");
        let total: usize = counts.iter().sum();
        assert_eq!(recvbuf.len(), total, "recvbuf must hold all blocks");
        assert_eq!(send.len(), counts[rank], "send buffer size mismatch");

        let displs: Vec<usize> = counts
            .iter()
            .scan(0usize, |acc, &c| {
                let d = *acc;
                *acc += c;
                Some(d)
            })
            .collect();

        if let Some(m) = self.rank_mut().metrics_mut() {
            m.counter_add("allgatherv", "invocations", algo.label(), 1);
            m.observe("allgatherv", "bytes", algo.label(), total as u64);
        }

        // Place own contribution.
        recvbuf[displs[rank]..displs[rank] + counts[rank]].copy_from_slice(send);

        if size > 1 {
            match algo {
                AllgathervAlgorithm::Ring => self.agv_ring(counts, &displs, recvbuf),
                AllgathervAlgorithm::RecursiveDoubling => {
                    assert!(
                        size.is_power_of_two(),
                        "recursive doubling needs power-of-two N"
                    );
                    self.agv_recursive_doubling(counts, &displs, recvbuf)
                }
                AllgathervAlgorithm::Dissemination => {
                    self.agv_dissemination(counts, &displs, recvbuf)
                }
            }
        }
        let volumes = counts.iter().map(|&c| c as u64);
        self.close_epoch("allgatherv", algo.label(), volumes);
    }

    /// Ring: at step s, forward block (rank - s) to the right neighbour.
    /// That is the block received at step s - 1, so its payload goes on
    /// as received instead of being copied back out of `recvbuf`.
    fn agv_ring(&mut self, counts: &[usize], displs: &[usize], recvbuf: &mut [u8]) {
        let size = self.size();
        let rank = self.rank();
        let right = (rank + 1) % size;
        let left = (rank + size - 1) % size;
        let mut chunk = gather_runs(recvbuf, &block_runs(counts, displs, rank, 1));
        for step in 0..size - 1 {
            self.round("allgatherv/ring", step as u32);
            let recv_idx = (rank + size - step - 1) % size;
            let tag = coll_tag(CollOp::Allgatherv, step as u32);
            // Post the receive before sending the outgoing block, so the
            // inbound message can match the moment it arrives.
            let req = self.irecv(Some(left), tag);
            self.rank_mut().charge_copy(CostKind::Pack, chunk.len(), 1);
            self.rank_mut().send_bytes(right, tag, chunk);
            let (data, _) = self.wait(req).into_recv();
            let runs = block_runs(counts, displs, recv_idx, 1);
            self.check_payload(AllgathervAlgorithm::Ring, step as u32, left, &runs, &data);
            self.rank_mut().charge_copy(CostKind::Pack, data.len(), 1);
            store_runs(recvbuf, runs, &data);
            chunk = data;
        }
    }

    /// Recursive doubling: phase p exchanges the aligned group of 2^p
    /// blocks with partner rank ^ 2^p; the outlier block is re-sent by a
    /// doubling set of ranks in parallel (binomial movement). A group's
    /// blocks are consecutive in `recvbuf`, so each side moves one run.
    fn agv_recursive_doubling(&mut self, counts: &[usize], displs: &[usize], recvbuf: &mut [u8]) {
        let size = self.size();
        let rank = self.rank();
        let mut mask = 1usize;
        let mut phase = 0u32;
        while mask < size {
            self.round("allgatherv/recursive_doubling", phase);
            let partner = rank ^ mask;
            let tag = coll_tag(CollOp::Allgatherv, 1000 + phase);
            // The aligned group of `mask` blocks that `peer` belongs to.
            let group_of = |peer: usize| block_runs(counts, displs, peer / mask * mask, mask);

            // Receive posted up front; the payload gather runs with the
            // match already standing.
            let req = self.irecv(Some(partner), tag);
            let payload = gather_runs(recvbuf, &group_of(rank));
            self.rank_mut()
                .charge_copy(CostKind::Pack, payload.len(), mask as u64);
            self.rank_mut().send_bytes(partner, tag, payload);
            let (data, _) = self.wait(req).into_recv();

            let runs = group_of(partner);
            let algo = AllgathervAlgorithm::RecursiveDoubling;
            self.check_payload(algo, phase, partner, &runs, &data);
            self.rank_mut()
                .charge_copy(CostKind::Pack, data.len(), mask as u64);
            store_runs(recvbuf, runs, &data);
            mask <<= 1;
            phase += 1;
        }
    }

    /// Dissemination: phase p sends the min(2^p, N - 2^p) most recently
    /// completed blocks (ending at own rank, wrapping) to rank + 2^p, in
    /// ascending rank order: at most two runs of `recvbuf`.
    fn agv_dissemination(&mut self, counts: &[usize], displs: &[usize], recvbuf: &mut [u8]) {
        let size = self.size();
        let rank = self.rank();
        let mut owned = 1usize; // blocks (rank - j) % size for j < owned
        let mut phase = 0u32;
        while owned < size {
            self.round("allgatherv/dissemination", phase);
            let delta = owned; // 2^phase, capped by ownership growth
            let send_cnt = owned.min(size - owned);
            let dst = (rank + delta) % size;
            let src = (rank + size - delta) % size;
            let tag = coll_tag(CollOp::Allgatherv, 2000 + phase);
            // The send_cnt blocks ending at `peer`, wrapping.
            let ending_at = |peer: usize| {
                let first = (peer + 1 + size - send_cnt) % size;
                block_runs(counts, displs, first, send_cnt)
            };

            // Receive posted up front; the payload gather runs with the
            // match already standing.
            let req = self.irecv(Some(src), tag);
            let payload = gather_runs(recvbuf, &ending_at(rank));
            self.rank_mut()
                .charge_copy(CostKind::Pack, payload.len(), send_cnt as u64);
            self.rank_mut().send_bytes(dst, tag, payload);
            let (data, _) = self.wait(req).into_recv();

            let runs = ending_at(src);
            let algo = AllgathervAlgorithm::Dissemination;
            self.check_payload(algo, phase, src, &runs, &data);
            self.rank_mut()
                .charge_copy(CostKind::Pack, data.len(), send_cnt as u64);
            store_runs(recvbuf, runs, &data);
            owned += send_cnt;
            phase += 1;
        }
    }

    /// Panic, naming both ranks, unless `data` from `peer` in `algo`'s
    /// step `step` exactly fills `runs` — the sign that some rank passed
    /// different `counts`. Every caller checks before it stores anything.
    fn check_payload(
        &self,
        algo: AllgathervAlgorithm,
        step: u32,
        peer: usize,
        runs: &Runs,
        data: &[u8],
    ) {
        let expected = runs[0].len() + runs[1].len();
        assert!(
            data.len() == expected,
            "allgatherv payload mismatch: rank {} expected {expected} bytes from rank {peer} \
             in {} step {step}, got {}",
            self.rank(),
            algo.label(),
            data.len()
        );
    }
}

/// Byte ranges of `recvbuf`, in ascending order; the second is empty
/// unless the blocks they hold wrap past the last rank.
type Runs = [Range<usize>; 2];

/// The `len` blocks from block `first` on, wrapping past the last rank
/// to block 0, as runs of `recvbuf` in ascending rank order.
fn block_runs(counts: &[usize], displs: &[usize], first: usize, len: usize) -> Runs {
    let size = counts.len();
    let end = |idx: usize| displs[idx] + counts[idx];
    if first + len <= size {
        [displs[first]..end(first + len - 1), 0..0]
    } else {
        [0..end(first + len - 1 - size), displs[first]..end(size - 1)]
    }
}

/// One payload holding `runs` of `recvbuf` back to back.
fn gather_runs(recvbuf: &[u8], runs: &Runs) -> Vec<u8> {
    let mut payload = Vec::with_capacity(runs[0].len() + runs[1].len());
    for run in runs {
        payload.extend_from_slice(&recvbuf[run.clone()]);
    }
    payload
}

/// Inverse of [`gather_runs`]: `payload` (checked to fit) back into `runs`.
fn store_runs(recvbuf: &mut [u8], [head, tail]: Runs, payload: &[u8]) {
    let (a, b) = payload.split_at(head.len());
    recvbuf[head].copy_from_slice(a);
    recvbuf[tail].copy_from_slice(b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpiConfig;
    use ncd_simnet::{Cluster, ClusterConfig, Observers, SimTime};

    fn pattern(rank: usize, len: usize) -> Vec<u8> {
        (0..len).map(|i| ((rank * 31 + i) % 251) as u8).collect()
    }

    fn expected_gather(counts: &[usize]) -> Vec<u8> {
        let mut out = Vec::new();
        for (r, &c) in counts.iter().enumerate() {
            out.extend_from_slice(&pattern(r, c));
        }
        out
    }

    fn run_algo(algo: AllgathervAlgorithm, counts: Vec<usize>) -> Vec<Vec<u8>> {
        let n = counts.len();
        Cluster::new(ClusterConfig::uniform(n)).run(move |rank| {
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            let me = comm.rank();
            let send = pattern(me, counts[me]);
            let mut recv = vec![0u8; counts.iter().sum()];
            comm.allgatherv_with(algo, &send, &counts, &mut recv);
            recv
        })
    }

    #[test]
    fn ring_correct_on_nonuniform_counts() {
        let counts = vec![5, 0, 17, 3, 9];
        let expected = expected_gather(&counts);
        for r in run_algo(AllgathervAlgorithm::Ring, counts) {
            assert_eq!(r, expected);
        }
    }

    #[test]
    fn recursive_doubling_correct_on_pow2() {
        for n in [2usize, 4, 8, 16] {
            let counts: Vec<usize> = (0..n).map(|i| (i * 7) % 23 + 1).collect();
            let expected = expected_gather(&counts);
            for r in run_algo(AllgathervAlgorithm::RecursiveDoubling, counts) {
                assert_eq!(r, expected, "n={n}");
            }
        }
    }

    #[test]
    fn dissemination_correct_on_any_n() {
        for n in [2usize, 3, 5, 6, 7, 9, 12] {
            let counts: Vec<usize> = (0..n).map(|i| (i * 13) % 31 + 1).collect();
            let expected = expected_gather(&counts);
            for r in run_algo(AllgathervAlgorithm::Dissemination, counts) {
                assert_eq!(r, expected, "n={n}");
            }
        }
    }

    #[test]
    fn dissemination_with_outlier_and_zeros() {
        let mut counts = vec![1usize; 7];
        counts[3] = 4096;
        counts[5] = 0;
        let expected = expected_gather(&counts);
        for r in run_algo(AllgathervAlgorithm::Dissemination, counts) {
            assert_eq!(r, expected);
        }
    }

    /// `n` ranks gather blocks of 3, 5, 2, 4, 3, ... bytes, except that
    /// rank `liar` says its own block is 4 bytes longer. Rank 0 is the
    /// first to receive the liar's block, so its panic is the one the run
    /// reports.
    fn run_disagreeing(algo: AllgathervAlgorithm, n: usize, liar: usize) {
        let agreed: Vec<usize> = [3, 5, 2, 4].into_iter().cycle().take(n).collect();
        Cluster::new(ClusterConfig::uniform(n)).run(move |rank| {
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            let me = comm.rank();
            let mut counts = agreed.clone();
            if me == liar {
                counts[liar] += 4;
            }
            let mut recv = vec![0u8; counts.iter().sum()];
            comm.allgatherv_with(algo, &pattern(me, counts[me]), &counts, &mut recv);
        });
    }

    #[test]
    #[should_panic(
        expected = "allgatherv payload mismatch: rank 0 expected 4 bytes from rank 3 in ring step 0, got 8"
    )]
    fn ring_names_a_rank_with_different_counts() {
        run_disagreeing(AllgathervAlgorithm::Ring, 4, 3);
    }

    #[test]
    #[should_panic(
        expected = "allgatherv payload mismatch: rank 0 expected 5 bytes from rank 1 in recursive_doubling step 0, got 9"
    )]
    fn recursive_doubling_names_a_rank_with_different_counts() {
        run_disagreeing(AllgathervAlgorithm::RecursiveDoubling, 4, 1);
    }

    #[test]
    #[should_panic(
        expected = "allgatherv payload mismatch: rank 0 expected 2 bytes from rank 2 in dissemination step 0, got 6"
    )]
    fn dissemination_names_a_rank_with_different_counts() {
        run_disagreeing(AllgathervAlgorithm::Dissemination, 3, 2);
    }

    #[test]
    fn single_rank_allgatherv() {
        let out = run_algo(AllgathervAlgorithm::Dissemination, vec![9]);
        assert_eq!(out[0], pattern(0, 9));
    }

    #[test]
    fn automatic_choice_baseline_vs_optimized() {
        // One 64 KB outlier, 8-byte others, 16 ranks: total is "large".
        let mut counts = vec![8usize; 16];
        counts[0] = 64 * 1024;
        let run = |cfg: MpiConfig| {
            let counts = counts.clone();
            Cluster::new(ClusterConfig::uniform(16)).run(move |rank| {
                let mut comm = Comm::new(rank, cfg.clone());
                let algo = comm.allgatherv_choose(&counts);
                let me = comm.rank();
                let send = pattern(me, counts[me]);
                let mut recv = vec![0u8; counts.iter().sum()];
                comm.allgatherv(&send, &counts, &mut recv);
                comm.barrier();
                (algo, recv, comm.rank_ref().now())
            })
        };
        let base = run(MpiConfig::baseline());
        let opt = run(MpiConfig::optimized());
        assert_eq!(base[0].0, AllgathervAlgorithm::Ring);
        assert_eq!(opt[0].0, AllgathervAlgorithm::RecursiveDoubling);
        let expected = expected_gather(&counts);
        assert_eq!(base[3].1, expected);
        assert_eq!(opt[3].1, expected);
        // The binomial movement of the outlier should beat the ring.
        let tmax =
            |v: &[(AllgathervAlgorithm, Vec<u8>, SimTime)]| v.iter().map(|x| x.2).max().unwrap();
        assert!(
            tmax(&opt) < tmax(&base),
            "optimized {:?} should beat baseline {:?}",
            tmax(&opt),
            tmax(&base)
        );
    }

    #[test]
    fn ring_and_adaptive_metrics_are_separately_keyed() {
        // One run does an explicitly-pinned ring allgatherv AND an
        // auto-selected one; the registry must keep them apart, and the
        // outlier detector must leave its verdict and computed ratio.
        let mut counts = vec![8usize; 16];
        counts[2] = 64 * 1024; // outlier => Optimized picks recursive doubling
        let metrics = Observers {
            metrics: true,
            ..Observers::NONE
        };
        let cluster = Cluster::new(ClusterConfig::uniform(16).observe(metrics));
        let (_, capture) = cluster
            .try_run(move |rank| {
                let mut comm = Comm::new(rank, MpiConfig::optimized());
                let me = comm.rank();
                let send = pattern(me, counts[me]);
                let total: usize = counts.iter().sum();
                let mut recv = vec![0u8; total];
                comm.allgatherv_with(AllgathervAlgorithm::Ring, &send, &counts, &mut recv);
                comm.allgatherv(&send, &counts, &mut recv);
            })
            .unwrap();
        let merged = capture.metrics.expect("metered");
        let ring = merged
            .histogram("allgatherv", "bytes", "ring")
            .expect("ring histogram");
        let adaptive = merged
            .histogram("allgatherv", "bytes", "adaptive")
            .expect("adaptive histogram");
        assert_eq!(ring.count(), 16, "one pinned-ring call per rank");
        assert_eq!(adaptive.count(), 16, "one auto-selected call per rank");
        // The auto-selected algorithm also gets its own histogram, distinct
        // from the pinned ring's.
        let rd = merged
            .histogram("allgatherv", "bytes", "recursive_doubling")
            .expect("chosen-algorithm histogram");
        assert_eq!(rd.count(), 16);
        // Verdict counter + the evidence gauge behind it.
        assert_eq!(merged.counter("allgatherv", "verdict", "outliers"), 16);
        assert_eq!(merged.counter("allgatherv", "verdict", "uniform"), 0);
        let ratio = merged
            .gauge("allgatherv", "outlier_ratio", "outliers")
            .expect("ratio gauge");
        assert!(
            (ratio - (64.0 * 1024.0 / 8.0)).abs() < 1e-9,
            "ratio {ratio}"
        );
        // Rounds were counted for both patterns that actually ran.
        assert_eq!(merged.counter("allgatherv", "rounds", "ring"), 16 * 15);
        assert_eq!(
            merged.counter("allgatherv", "rounds", "recursive_doubling"),
            16 * 4
        );
    }

    #[test]
    fn uniform_large_still_uses_ring_in_optimized() {
        let counts = vec![8192usize; 8];
        let out = Cluster::new(ClusterConfig::uniform(8)).run(move |rank| {
            let comm = Comm::new(rank, MpiConfig::optimized());
            comm.allgatherv_choose(&counts)
        });
        assert!(out.iter().all(|&a| a == AllgathervAlgorithm::Ring));
    }

    #[test]
    fn small_uniform_uses_logarithmic_algorithms() {
        let counts = vec![16usize; 6];
        let out = Cluster::new(ClusterConfig::uniform(6)).run(move |rank| {
            let comm = Comm::new(rank, MpiConfig::baseline());
            comm.allgatherv_choose(&counts)
        });
        assert!(out.iter().all(|&a| a == AllgathervAlgorithm::Dissemination));
    }
}
