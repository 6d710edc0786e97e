//! `MPI_Alltoallw` — per-peer counts *and* per-peer datatypes — with the
//! baseline round-robin schedule and the paper's three-bin design (§4.2.2).
//!
//! The baseline (MPICH2-style) schedule performs a send+receive with
//! *every* rank in round-robin order, including peers with zero-volume
//! exchanges. That has the two pathologies the paper identifies:
//!
//! 1. zero-byte exchanges with peers a rank shares no data with add pure
//!    synchronization steps, propagating skew through the whole job;
//! 2. peers are processed in rank order, so a large noncontiguous message
//!    (expensive to pack) can sit in front of a small one, delaying the
//!    small receiver by the full preprocessing time.
//!
//! The optimized schedule sorts each rank's exchanges into **three bins —
//! zero, small, large**: the zero bin is exempted entirely (no messages at
//! all), the small bin is processed first, and the large bin last, so
//! cheap receivers never wait behind expensive preprocessing.

use ncd_datatype::Datatype;
use ncd_simnet::volume;

use crate::coll::{coll_tag, CollOp};
use crate::comm::Comm;
use crate::config::MpiFlavor;

/// One peer's slot in an alltoallw: `count` instances of `dtype` located at
/// `offset` bytes into the send (or receive) buffer — the analogue of MPI's
/// per-peer (count, displacement, datatype) triples.
#[derive(Clone, Debug)]
pub struct WPeer {
    pub offset: usize,
    pub count: usize,
    pub dtype: Datatype,
}

impl WPeer {
    pub fn new(offset: usize, count: usize, dtype: Datatype) -> Self {
        WPeer {
            offset,
            count,
            dtype,
        }
    }

    /// Packed bytes this slot moves.
    pub fn bytes(&self) -> usize {
        self.count * self.dtype.size()
    }
}

/// The message schedule an alltoallw uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlltoallwSchedule {
    /// Exchange with every rank in round-robin order, zero-volume included.
    RoundRobin,
    /// Three bins: zero (exempt), small (first), large (last).
    Binned,
}

impl AlltoallwSchedule {
    /// Stable lowercase name used as the metric/trace algorithm label.
    pub fn label(self) -> &'static str {
        match self {
            AlltoallwSchedule::RoundRobin => "round_robin",
            AlltoallwSchedule::Binned => "binned",
        }
    }

    /// Inverse of [`label`](Self::label), for pinning the schedule a
    /// decision audit suggested (see `MpiConfig::alltoallw_pin`).
    pub fn from_label(label: &str) -> Option<AlltoallwSchedule> {
        match label {
            "round_robin" => Some(AlltoallwSchedule::RoundRobin),
            "binned" => Some(AlltoallwSchedule::Binned),
            _ => None,
        }
    }
}

impl Comm<'_> {
    /// General all-to-all with per-peer counts and datatypes.
    ///
    /// `sends[i]`/`recvs[i]` describe the data exchanged with rank `i`;
    /// both arrays must have one entry per rank, and the two sides of every
    /// pairwise exchange must agree on the packed byte count (zero is fine
    /// and means "no data with this peer"). The schedule follows the
    /// communicator's flavor.
    pub fn alltoallw(
        &mut self,
        sendbuf: &[u8],
        sends: &[WPeer],
        recvbuf: &mut [u8],
        recvs: &[WPeer],
    ) {
        // A pinned schedule (what-if decision-flip intervention) overrides
        // the flavor's default; the audit records the forced choice.
        let pin = self.config().alltoallw_pin;
        let schedule = pin.unwrap_or(match self.config().flavor {
            MpiFlavor::Baseline => AlltoallwSchedule::RoundRobin,
            MpiFlavor::Optimized => AlltoallwSchedule::Binned,
        });
        // Audit the selection: the schedule is fixed by the flavor, but
        // the decision record still carries the measured evidence (the
        // outgoing per-peer volume set's outlier ratio) so the analysis
        // layer can judge the choice.
        let vols: Vec<u64> = sends.iter().map(|s| s.bytes() as u64).collect();
        let ratio = volume::outlier_ratio_of(&vols, volume::OUTLIER_FRACTION);
        let reason = if pin.is_some() {
            "pinned"
        } else {
            match self.config().flavor {
                MpiFlavor::Baseline => "baseline flavor: lock-step round robin",
                MpiFlavor::Optimized => "optimized flavor: zero-exempt three-bin schedule",
            }
        };
        let total = vols.iter().sum();
        self.audit_decision(
            "alltoallw",
            sends.len(),
            total,
            ratio,
            schedule.label(),
            reason,
        );
        self.alltoallw_with(schedule, sendbuf, sends, recvbuf, recvs);
    }

    /// Run alltoallw with an explicit schedule (exposed for benchmarks).
    pub fn alltoallw_with(
        &mut self,
        schedule: AlltoallwSchedule,
        sendbuf: &[u8],
        sends: &[WPeer],
        recvbuf: &mut [u8],
        recvs: &[WPeer],
    ) {
        let size = self.size();
        assert_eq!(sends.len(), size, "one send slot per rank");
        assert_eq!(recvs.len(), size, "one recv slot per rank");
        let threshold = self.config().small_msg_threshold;
        if let Some(m) = self.rank_mut().metrics_mut() {
            let label = schedule.label();
            let total: usize = sends.iter().map(WPeer::bytes).sum();
            m.counter_add("alltoallw", "invocations", label, 1);
            m.observe("alltoallw", "bytes", label, total as u64);
            // Bin membership of the outgoing exchanges (self included),
            // recorded for both schedules so the zero-bin exemption the
            // binned schedule exploits is visible in baseline runs too.
            let (mut zero, mut small, mut large) = (0u64, 0u64, 0u64);
            for s in sends {
                match s.bytes() {
                    0 => zero += 1,
                    b if b <= threshold => small += 1,
                    _ => large += 1,
                }
            }
            m.counter_add("alltoallw", "bin_zero", label, zero);
            m.counter_add("alltoallw", "bin_small", label, small);
            m.counter_add("alltoallw", "bin_large", label, large);
        }
        match schedule {
            AlltoallwSchedule::RoundRobin => self.a2aw_round_robin(sendbuf, sends, recvbuf, recvs),
            AlltoallwSchedule::Binned => self.a2aw_binned(sendbuf, sends, recvbuf, recvs),
        }
        let volumes = recvs.iter().map(|r| r.bytes() as u64);
        self.close_epoch("alltoallw", schedule.label(), volumes);
    }

    /// Panic unless the exchange with `src` delivered the `want` bytes
    /// this rank's receive slot expects, naming both ranks and both counts.
    fn check_exchange_bytes(&self, what: &str, src: usize, want: usize, got: usize) {
        assert_eq!(
            got,
            want,
            "{what} mismatch: rank {} expected {want} bytes from rank {src}, got {got}",
            self.rank()
        );
    }

    /// Local exchange with self: pack and unpack without the wire.
    fn a2aw_self_copy(&mut self, sendbuf: &[u8], s: &WPeer, recvbuf: &mut [u8], r: &WPeer) {
        self.check_exchange_bytes("self exchange size", self.rank(), r.bytes(), s.bytes());
        if s.bytes() == 0 {
            return;
        }
        let bytes = self.prepare_send(&sendbuf[s.offset..], &s.dtype, s.count);
        self.deliver_recv(&mut recvbuf[r.offset..], &r.dtype, r.count, &bytes);
    }

    /// Baseline: lock-step round robin over all peers, zero volumes
    /// included — each step is a pairwise synchronization. All receives
    /// are posted up front (per-round tags keep the steps apart), but each
    /// round still waits its receive out before the next begins, so the
    /// lock-step skew coupling the paper describes is preserved.
    fn a2aw_round_robin(
        &mut self,
        sendbuf: &[u8],
        sends: &[WPeer],
        recvbuf: &mut [u8],
        recvs: &[WPeer],
    ) {
        let size = self.size();
        let rank = self.rank();
        self.a2aw_self_copy(sendbuf, &sends[rank], recvbuf, &recvs[rank]);
        let mut reqs = Vec::with_capacity(size.saturating_sub(1));
        for i in 1..size {
            let src = (rank + size - i) % size;
            reqs.push(self.irecv(Some(src), coll_tag(CollOp::Alltoallw, i as u32)));
        }
        for (i, req) in (1..size).zip(reqs) {
            self.round("alltoallw/round_robin", i as u32);
            let dst = (rank + i) % size;
            let src = (rank + size - i) % size;
            let tag = coll_tag(CollOp::Alltoallw, i as u32);
            let s = &sends[dst];
            let payload =
                self.prepare_send(&sendbuf[s.offset.min(sendbuf.len())..], &s.dtype, s.count);
            self.rank_mut().send_bytes(dst, tag, payload);
            let (data, _) = self.wait(req).into_recv();
            let r = &recvs[src];
            self.check_exchange_bytes("pairwise byte count", src, r.bytes(), data.len());
            if !data.is_empty() {
                self.deliver_recv(&mut recvbuf[r.offset..], &r.dtype, r.count, &data);
            }
        }
    }

    /// Optimized: zero bin exempted, small bin processed before large.
    fn a2aw_binned(
        &mut self,
        sendbuf: &[u8],
        sends: &[WPeer],
        recvbuf: &mut [u8],
        recvs: &[WPeer],
    ) {
        let size = self.size();
        let rank = self.rank();
        let threshold = self.config().small_msg_threshold;
        self.a2aw_self_copy(sendbuf, &sends[rank], recvbuf, &recvs[rank]);

        // Bin the outgoing exchanges (self excluded). Deterministic order
        // within a bin: increasing ring distance.
        let mut small = Vec::new();
        let mut large = Vec::new();
        for i in 1..size {
            let dst = (rank + i) % size;
            match sends[dst].bytes() {
                0 => {}
                b if b <= threshold => small.push(dst),
                _ => large.push(dst),
            }
        }
        // Post a receive for every peer that actually sends to us, small
        // expected first (mirroring the sender-side prioritization), before
        // any packing starts.
        let mut sources: Vec<usize> = (0..size)
            .filter(|&src| src != rank && recvs[src].bytes() > 0)
            .collect();
        sources.sort_by_key(|&src| {
            let b = recvs[src].bytes();
            (
                if b <= threshold { 0 } else { 1 },
                (src + size - rank) % size,
            )
        });
        let mut recv_reqs = Vec::with_capacity(sources.len());
        for &src in &sources {
            recv_reqs.push(self.irecv(Some(src), coll_tag(CollOp::Alltoallw, 0)));
        }

        // Initiate (pack + isend) small first, then large: remote peers
        // with cheap messages are never stuck behind expensive
        // preprocessing, and each message's wire time overlaps the packing
        // of the next.
        let mut send_reqs = Vec::with_capacity(small.len() + large.len());
        for (round, &dst) in small.iter().chain(large.iter()).enumerate() {
            self.round("alltoallw/binned", round as u32);
            let s = &sends[dst];
            let tag = coll_tag(CollOp::Alltoallw, 0);
            let payload = self.prepare_send(&sendbuf[s.offset..], &s.dtype, s.count);
            send_reqs.push(self.isend_bytes(dst, tag, payload));
        }

        // Unpack inbound messages as they arrive (not in posting order):
        // a slow peer's large message never blocks delivery of the ones
        // already here.
        self.wait_each(recv_reqs, |comm, _, completion| {
            let (data, src) = completion.into_recv();
            let r = &recvs[src];
            comm.check_exchange_bytes("pairwise byte count", src, r.bytes(), data.len());
            comm.deliver_recv(&mut recvbuf[r.offset..], &r.dtype, r.count, &data);
        });

        // Drain the sends: charge whatever wire time the work above did
        // not hide.
        self.waitall(send_reqs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{bytes_to_f64s, f64s_to_bytes, Comm};
    use crate::config::MpiConfig;
    use ncd_simnet::{Cluster, ClusterConfig, Observers};

    /// Nearest-neighbour ring exchange of one double with succ and pred —
    /// the Figure 15 communication pattern in miniature.
    fn ring_specs(rank: usize, size: usize) -> (Vec<f64>, Vec<WPeer>, Vec<WPeer>) {
        let succ = (rank + 1) % size;
        let pred = (rank + size - 1) % size;
        let dt = Datatype::double();
        let empty = Datatype::contiguous(0, &dt).unwrap();
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for i in 0..size {
            if i == succ {
                sends.push(WPeer::new(0, 1, dt.clone()));
            } else if i == pred && size > 2 {
                sends.push(WPeer::new(8, 1, dt.clone()));
            } else if i == pred && size == 2 {
                // With 2 ranks succ == pred; only one slot may claim it.
                sends.push(WPeer::new(0, 0, empty.clone()));
            } else {
                sends.push(WPeer::new(0, 0, empty.clone()));
            }
            if i == pred {
                recvs.push(WPeer::new(0, 1, dt.clone()));
            } else if i == succ && size > 2 {
                recvs.push(WPeer::new(8, 1, dt.clone()));
            } else {
                recvs.push(WPeer::new(0, 0, empty.clone()));
            }
        }
        let sendvals = vec![rank as f64 + 0.5, rank as f64 + 0.25];
        (sendvals, sends, recvs)
    }

    fn run_ring(schedule: AlltoallwSchedule, n: usize) -> Vec<(Vec<f64>, u64)> {
        Cluster::new(ClusterConfig::uniform(n)).run(move |rank| {
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            let me = comm.rank();
            let (vals, sends, recvs) = ring_specs(me, n);
            let sendbuf = f64s_to_bytes(&vals);
            let mut recvbuf = vec![0u8; 16];
            comm.alltoallw_with(schedule, &sendbuf, &sends, &mut recvbuf, &recvs);
            (bytes_to_f64s(&recvbuf), comm.rank_ref().stats().msgs_sent)
        })
    }

    #[test]
    fn ring_pattern_correct_under_both_schedules() {
        for schedule in [AlltoallwSchedule::RoundRobin, AlltoallwSchedule::Binned] {
            for n in [3usize, 4, 7, 8] {
                let out = run_ring(schedule, n);
                for (rank, (recv, _)) in out.iter().enumerate() {
                    let pred = (rank + n - 1) % n;
                    let succ = (rank + 1) % n;
                    assert_eq!(recv[0], pred as f64 + 0.5, "{schedule:?} n={n} rank={rank}");
                    assert_eq!(
                        recv[1],
                        succ as f64 + 0.25,
                        "{schedule:?} n={n} rank={rank}"
                    );
                }
            }
        }
    }

    #[test]
    fn binned_sends_fewer_messages_on_sparse_pattern() {
        let n = 8;
        let rr = run_ring(AlltoallwSchedule::RoundRobin, n);
        let binned = run_ring(AlltoallwSchedule::Binned, n);
        // Round robin: n-1 sends each (incl. zero-byte ones).
        assert!(rr.iter().all(|(_, sent)| *sent == (n - 1) as u64));
        // Binned: exactly the two real neighbours.
        assert!(binned.iter().all(|(_, sent)| *sent == 2));
    }

    #[test]
    fn bin_membership_counters_are_recorded() {
        let n = 8usize;
        let metrics = Observers {
            metrics: true,
            ..Observers::NONE
        };
        let cluster = Cluster::new(ClusterConfig::uniform(n).observe(metrics));
        let (_, capture) = cluster
            .try_run(move |rank| {
                let mut comm = Comm::new(rank, MpiConfig::optimized());
                let me = comm.rank();
                let (vals, sends, recvs) = ring_specs(me, n);
                let sendbuf = f64s_to_bytes(&vals);
                let mut recvbuf = vec![0u8; 16];
                comm.alltoallw(&sendbuf, &sends, &mut recvbuf, &recvs);
            })
            .unwrap();
        let merged = capture.metrics.expect("metered");
        // Each rank's slot vector: 2 real 8-byte (small) sends, n-2 zeros.
        assert_eq!(
            merged.counter("alltoallw", "bin_small", "binned"),
            2 * n as u64
        );
        assert_eq!(
            merged.counter("alltoallw", "bin_zero", "binned"),
            (n as u64 - 2) * n as u64
        );
        assert_eq!(merged.counter("alltoallw", "bin_large", "binned"), 0);
        assert_eq!(
            merged.counter("alltoallw", "invocations", "binned"),
            n as u64
        );
        // Binned schedule actually sent only the two real messages.
        assert_eq!(
            merged.counter("alltoallw", "rounds", "binned"),
            2 * n as u64
        );
    }

    #[test]
    fn dense_full_exchange_matches_alltoall_semantics() {
        // Every pair exchanges one distinct double: both schedules must
        // deliver the same matrix transposition.
        let n = 5;
        let dt = Datatype::double();
        for schedule in [AlltoallwSchedule::RoundRobin, AlltoallwSchedule::Binned] {
            let dtc = dt.clone();
            let out = Cluster::new(ClusterConfig::uniform(n)).run(move |rank| {
                let mut comm = Comm::new(rank, MpiConfig::optimized());
                let me = comm.rank();
                let vals: Vec<f64> = (0..n).map(|j| (me * 10 + j) as f64).collect();
                let sendbuf = f64s_to_bytes(&vals);
                let slots: Vec<WPeer> = (0..n).map(|j| WPeer::new(j * 8, 1, dtc.clone())).collect();
                let mut recvbuf = vec![0u8; n * 8];
                comm.alltoallw_with(schedule, &sendbuf, &slots, &mut recvbuf, &slots);
                bytes_to_f64s(&recvbuf)
            });
            for (i, recv) in out.iter().enumerate() {
                for (j, &v) in recv.iter().enumerate() {
                    assert_eq!(v, (j * 10 + i) as f64, "{schedule:?} rank {i} slot {j}");
                }
            }
        }
    }

    #[test]
    fn noncontiguous_slots_work() {
        // Send every other double to the peer; receive into every other.
        let n = 2;
        let stride2 = Datatype::vector(4, 1, 2, &Datatype::double()).unwrap();
        let empty = Datatype::contiguous(0, &Datatype::double()).unwrap();
        let out = Cluster::new(ClusterConfig::uniform(n)).run(move |rank| {
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            let me = comm.rank();
            let vals: Vec<f64> = (0..8).map(|i| (me * 100 + i) as f64).collect();
            let sendbuf = f64s_to_bytes(&vals);
            let peer = 1 - me;
            let mut sends = vec![WPeer::new(0, 0, empty.clone()); n];
            sends[peer] = WPeer::new(0, 1, stride2.clone());
            let mut recvs = vec![WPeer::new(0, 0, empty.clone()); n];
            recvs[peer] = WPeer::new(0, 1, stride2.clone());
            let mut recvbuf = vec![0u8; 8 * 8];
            comm.alltoallw(&sendbuf, &sends, &mut recvbuf, &recvs);
            bytes_to_f64s(&recvbuf)
        });
        // Rank 0 receives rank 1's even-indexed doubles into its own even
        // slots.
        assert_eq!(out[0][0], 100.0);
        assert_eq!(out[0][2], 102.0);
        assert_eq!(out[0][4], 104.0);
        assert_eq!(out[0][6], 106.0);
        assert_eq!(out[0][1], 0.0);
        assert_eq!(out[1][0], 0.0);
        assert_eq!(out[1][2], 2.0);
    }

    #[test]
    fn binned_is_less_skew_sensitive_than_round_robin() {
        // Neighbour exchange under heterogeneous speeds + jitter: the
        // round-robin schedule couples every rank to every other through
        // zero-byte steps, so one slow rank drags everyone; the binned
        // schedule only couples real neighbours.
        let n = 16;
        let measure = |schedule: AlltoallwSchedule| {
            let out = Cluster::new(ClusterConfig::paper_testbed(n)).run(move |rank| {
                let mut comm = Comm::new(rank, MpiConfig::optimized());
                let me = comm.rank();
                comm.barrier();
                comm.rank_mut().reset_clock();
                let (vals, sends, recvs) = ring_specs(me, n);
                let sendbuf = f64s_to_bytes(&vals);
                let mut recvbuf = vec![0u8; 16];
                for _ in 0..10 {
                    comm.alltoallw_with(schedule, &sendbuf, &sends, &mut recvbuf, &recvs);
                }
                comm.rank_ref().now()
            });
            out.into_iter().max().unwrap()
        };
        let rr = measure(AlltoallwSchedule::RoundRobin);
        let binned = measure(AlltoallwSchedule::Binned);
        assert!(
            binned < rr,
            "binned ({binned}) should beat round-robin ({rr}) under skew"
        );
    }

    /// Rank 0 sends rank 1 two doubles where rank 1 expects one.
    fn mismatched_pair_sizes(cfg: MpiConfig) {
        let dt = Datatype::double();
        let empty = Datatype::contiguous(0, &Datatype::double()).unwrap();
        Cluster::new(ClusterConfig::uniform(2)).run(move |rank| {
            let mut comm = Comm::new(rank, cfg.clone());
            let me = comm.rank();
            let peer = 1 - me;
            let mut sends = vec![WPeer::new(0, 0, empty.clone()); 2];
            let mut recvs = vec![WPeer::new(0, 0, empty.clone()); 2];
            // Rank 0 sends 2 doubles but rank 1 expects 1.
            sends[peer] = WPeer::new(0, if me == 0 { 2 } else { 1 }, dt.clone());
            recvs[peer] = WPeer::new(0, 1, dt.clone());
            let sendbuf = [0u8; 16];
            let mut recvbuf = vec![0u8; 8];
            comm.alltoallw(&sendbuf, &sends, &mut recvbuf, &recvs);
        });
    }

    #[test]
    #[should_panic(
        expected = "pairwise byte count mismatch: rank 1 expected 8 bytes from rank 0, got 16"
    )]
    fn mismatched_pair_sizes_panic() {
        mismatched_pair_sizes(MpiConfig::baseline());
    }

    #[test]
    #[should_panic(
        expected = "pairwise byte count mismatch: rank 1 expected 8 bytes from rank 0, got 16"
    )]
    fn mismatched_pair_sizes_panic_under_the_binned_schedule() {
        mismatched_pair_sizes(MpiConfig::optimized());
    }
}
