//! The communicator: typed point-to-point communication over a simulated
//! rank, with pipelined derived-datatype processing.
//!
//! [`Comm`] wraps a mutable borrow of a [`Rank`] plus an [`MpiConfig`]. All
//! collective operations (in [`crate::coll`]) are built on the typed
//! send/receive implemented here. A send with a noncontiguous datatype runs
//! the configured pack engine (single- or dual-context — the heart of the
//! paper's §4.1 comparison); its exact operation counts are converted to
//! simulated time under the cluster's cost model:
//!
//! * re-search segments → `CostKind::Search` at the signature-walk rate,
//! * look-ahead segments → `CostKind::Pack` at the signature-walk rate,
//! * packed segments/bytes → `CostKind::Pack` (copy bandwidth + per-segment
//!   loop cost),
//! * direct (writev-style) segments → `CostKind::Pack` per-segment only —
//!   no copy, the bytes go straight from user memory to the wire.

use ncd_datatype::{BlockMode, Datatype, OpCounts, PackEngine, Unpacker};
use ncd_simnet::{millis_to_ratio, ratio_to_millis, volume, CostKind, EventKind, Rank, Tag};

use crate::config::MpiConfig;
use crate::drift::{DriftConfig, DriftDirection, DriftMonitor};
use crate::view;

/// The communicator: a rank handle plus an implementation personality.
/// There is one communicator, the world; traffic of different layers
/// stays apart by tag range (see [`crate::coll`]'s `coll_tag`).
pub struct Comm<'a> {
    rank: &'a mut Rank,
    cfg: MpiConfig,
    /// Online regime-shift watcher over the per-collective epoch series.
    /// Lazily created on the first epoch closed with history recording
    /// enabled, so an unobserved run never allocates it.
    drift: Option<DriftMonitor>,
}

impl<'a> Comm<'a> {
    pub fn new(rank: &'a mut Rank, cfg: MpiConfig) -> Self {
        Comm {
            rank,
            cfg,
            drift: None,
        }
    }

    /// This rank's number.
    pub fn rank(&self) -> usize {
        self.rank.rank()
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.rank.size()
    }

    pub fn config(&self) -> &MpiConfig {
        &self.cfg
    }

    /// Escape hatch to the underlying simulated rank (clock, stats, raw
    /// byte messaging).
    pub fn rank_mut(&mut self) -> &mut Rank {
        self.rank
    }

    pub fn rank_ref(&self) -> &Rank {
        self.rank
    }

    /// Close one collective call's comm-map epoch, labeled `<op>/<algo>`
    /// (pinned and auto-selected runs alike), and feed it to the drift
    /// monitor. `volumes` are the per-peer byte counts this rank knows
    /// locally (receive counts for allgatherv, per-source receive volumes
    /// for alltoallw). No-op unless the comm map is on.
    pub(crate) fn close_epoch(&mut self, op: &str, algo: &str, volumes: impl Iterator<Item = u64>) {
        if !self.rank.comm_map_enabled() {
            return;
        }
        let label = format!("{op}/{algo}");
        self.rank.comm_epoch(&label);
        self.drift_epoch(&label, &volumes.collect::<Vec<u64>>());
    }

    /// Feed the drift monitor one closed collective epoch. Each fired
    /// regime shift is recorded as an [`EventKind::Drift`] (flight
    /// recorder's drift ring, trace) with its `drift*/*` metrics. No-op
    /// unless history recording is enabled on the rank.
    fn drift_epoch(&mut self, label: &str, volumes: &[u64]) {
        if !self.rank.history_enabled() {
            return;
        }
        let monitor = self
            .drift
            .get_or_insert_with(|| DriftMonitor::new(DriftConfig::default()));
        let total: u64 = volumes.iter().sum();
        let skew = volume::gini(volumes);
        for e in monitor.observe(label, total as f64, skew) {
            let observed_millis = ratio_to_millis(e.observed);
            if let Some(m) = self.rank.metrics_mut() {
                m.counter_add("drift", &e.label, &e.metric, 1);
                // Read back through the event's thousandths, so the gauge
                // is the value the trace and the recorder carry.
                let observed = millis_to_ratio(observed_millis);
                if observed.is_finite() {
                    m.gauge_set("drift_observed", &e.label, &e.metric, observed);
                }
            }
            let drift = EventKind::Drift {
                label: e.label.into(),
                metric: e.metric.into(),
                occurrence: e.occurrence,
                up: e.direction == DriftDirection::Up,
                baseline_millis: ratio_to_millis(e.baseline),
                observed_millis,
            };
            self.rank.record(self.rank.now(), drift);
        }
    }

    /// Charge the simulated clock for a batch of datatype engine operations
    /// (either a whole stream, or one pipeline block).
    pub(crate) fn charge_op_counts(&mut self, c: &OpCounts) {
        let model = self.rank.cost_model().clone();
        if c.searched_segments > 0 {
            self.rank.charge_search(c.searched_segments);
        }
        if c.lookahead_segments > 0 {
            let ns = model.search_segments_ns(c.lookahead_segments);
            self.rank.charge_cpu(CostKind::Pack, ns);
        }
        if c.packed_bytes > 0 || c.packed_segments > 0 {
            self.rank
                .charge_copy(CostKind::Pack, c.packed_bytes as usize, c.packed_segments);
        }
        if c.direct_segments > 0 {
            let ns = model.pack_segments_ns(c.direct_segments);
            self.rank.charge_cpu(CostKind::Pack, ns);
        }
    }

    /// Record executed datatype-engine op counts in the metrics registry,
    /// keyed by the engine (or unpack path) that executed them. No-op when
    /// metrics are off; never touches the simulated clock.
    pub(crate) fn record_engine_metrics(&mut self, algo: &str, c: &OpCounts) {
        let Some(m) = self.rank.metrics_mut() else {
            return;
        };
        m.counter_add("engine", "invocations", algo, 1);
        m.observe("engine", "bytes", algo, c.total_bytes());
        if c.searched_segments > 0 {
            m.counter_add("engine", "searched_segments", algo, c.searched_segments);
        }
        if c.lookahead_segments > 0 {
            m.counter_add("engine", "lookahead_segments", algo, c.lookahead_segments);
        }
        if c.packed_blocks > 0 {
            m.counter_add("engine", "packed_blocks", algo, c.packed_blocks);
        }
        if c.direct_blocks > 0 {
            m.counter_add("engine", "direct_blocks", algo, c.direct_blocks);
        }
    }

    /// Send `count` instances of `dt` taken from `buf` to `dst`.
    ///
    /// Contiguous datatypes take the fast path (no engine, no extra cost —
    /// the bytes are handed to the transport directly). Noncontiguous sends
    /// run the configured pack engine and charge its op counts.
    ///
    /// Implemented as a thin wrapper over the request layer: pack fully,
    /// initiate the transfer, then immediately wait it out. The simulated
    /// cost is identical to a monolithic blocking send (initiate + drain
    /// charges exactly overhead + wire time), so every baseline is stable.
    pub fn send(&mut self, buf: &[u8], dt: &Datatype, count: usize, dst: usize, tag: Tag) {
        let payload = self.prepare_send(buf, dt, count);
        let req = self.isend_bytes(dst, tag, payload);
        self.wait(req);
    }

    /// Produce the wire bytes for a typed message, charging pack costs.
    pub(crate) fn prepare_send(&mut self, buf: &[u8], dt: &Datatype, count: usize) -> Vec<u8> {
        let total = dt.size() * count;
        if total == 0 {
            return Vec::new();
        }
        if dt.is_contiguous() {
            return buf[..total].to_vec();
        }
        self.pack_pipeline(buf, dt, count, |_, _| {})
    }

    /// Run the configured pack engine over a noncontiguous message and
    /// return the packed payload. `buf` is checked against the type's
    /// bounds before any byte is copied or any cost charged.
    ///
    /// The engine is driven block by block, appending straight into the
    /// payload: each pipeline block's op counts are charged to the simulated
    /// clock as it is produced, the block is recorded as an
    /// [`EventKind::PackBlock`] (flight recorder; the trace's `dt` lane /
    /// Chrome datatype track) with its `datatype/*` metrics — log₂
    /// histograms of seek distance, look-ahead window and block bytes, plus
    /// block counters — and then `block_done(self, block bytes)` runs (the
    /// nonblocking send puts the block on the NIC there). Aggregate totals
    /// are identical to one-shot charging up to per-charge nanosecond
    /// rounding.
    pub(crate) fn pack_pipeline(
        &mut self,
        buf: &[u8],
        dt: &Datatype,
        count: usize,
        mut block_done: impl FnMut(&mut Self, usize),
    ) -> Vec<u8> {
        let kind = self.cfg.engine_kind();
        let mut engine = PackEngine::new(kind, dt, count, self.cfg.engine, buf)
            .expect("datatype out of bounds during send");
        let name = kind.name();
        let mut counts = OpCounts::default();
        let mut payload = Vec::with_capacity(dt.size() * count);
        loop {
            let block_start = self.rank.now();
            let mut block = OpCounts::default();
            let Some(obs) = engine.next_block(&mut payload, &mut block) else {
                break;
            };
            self.charge_op_counts(&block);
            counts.merge(&block);
            let sparse = obs.mode == BlockMode::Packed;
            if let Some(m) = self.rank.metrics_mut() {
                m.observe("datatype", "seek_segments", name, obs.seek_segments);
                m.observe("datatype", "lookahead_window", name, obs.lookahead_segments);
                m.observe("datatype", "block_bytes", name, obs.bytes);
                m.counter_add("datatype", "blocks", name, 1);
                m.counter_add("datatype", "seek_total", name, obs.seek_segments);
                let density = if sparse {
                    "sparse_blocks"
                } else {
                    "dense_blocks"
                };
                m.counter_add("datatype", density, name, 1);
            }
            // `seek` is the segments re-walked from the type root — the
            // paper's quadratic signal, always zero for dual-context.
            let block = EventKind::PackBlock {
                engine: name.into(),
                index: obs.index,
                sparse,
                seek: obs.seek_segments,
                lookahead: obs.lookahead_segments,
                bytes: obs.bytes,
            };
            self.rank.record(block_start, block);
            block_done(self, obs.bytes as usize);
        }
        self.record_engine_metrics(name, &counts);
        payload
    }

    /// Receive `count` instances of `dt` into `buf` from `src` (None = any
    /// source). Returns the actual source rank.
    ///
    /// A thin wrapper over the request layer: post the receive, then wait
    /// for it — charging the same wait residual and receive overhead as a
    /// monolithic blocking receive.
    pub fn recv(
        &mut self,
        buf: &mut [u8],
        dt: &Datatype,
        count: usize,
        src: Option<usize>,
        tag: Tag,
    ) -> usize {
        let req = self.irecv(src, tag);
        self.wait_recv_into(req, buf, dt, count)
    }

    /// Scatter received wire bytes into the typed receive buffer, charging
    /// unpack costs.
    pub(crate) fn deliver_recv(
        &mut self,
        buf: &mut [u8],
        dt: &Datatype,
        count: usize,
        bytes: &[u8],
    ) {
        let total = dt.size() * count;
        assert!(
            bytes.len() <= total,
            "message of {} bytes overflows receive type of {} bytes",
            bytes.len(),
            total
        );
        if bytes.is_empty() {
            return;
        }
        if dt.is_contiguous() {
            buf[..bytes.len()].copy_from_slice(bytes);
            return;
        }
        let mut unpacker = Unpacker::new(dt, count);
        let counts = unpacker
            .unpack(buf, bytes)
            .expect("datatype out of bounds during receive");
        self.charge_op_counts(&counts);
        self.record_engine_metrics("unpack", &counts);
    }

    /// Combined send-receive, MPI_Sendrecv style: the receive is posted
    /// before the send is initiated, and neither is waited on until both
    /// are in flight — so a full ring of simultaneous `sendrecv` calls
    /// cannot deadlock and the send's wire time overlaps the wait for the
    /// inbound message.
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv(
        &mut self,
        sendbuf: &[u8],
        sdt: &Datatype,
        scount: usize,
        dst: usize,
        recvbuf: &mut [u8],
        rdt: &Datatype,
        rcount: usize,
        src: usize,
        tag: Tag,
    ) {
        let rreq = self.irecv(Some(src), tag);
        let payload = self.prepare_send(sendbuf, sdt, scount);
        let sreq = self.isend_bytes(dst, tag, payload);
        self.wait_recv_into(rreq, recvbuf, rdt, rcount);
        self.wait(sreq);
    }

    /// Convenience: send a contiguous `f64` slice.
    pub fn send_f64s(&mut self, data: &[f64], dst: usize, tag: Tag) {
        self.rank.send_bytes(dst, tag, f64s_to_bytes(data));
    }

    /// Convenience: receive a contiguous `f64` vector.
    pub fn recv_f64s(&mut self, src: Option<usize>, tag: Tag) -> (Vec<f64>, usize) {
        let (bytes, actual) = self.rank.recv_bytes(src, tag);
        (bytes_to_f64s(&bytes), actual)
    }
}

/// Copy f64s into a byte vector (native-endian; see [`crate::view`]).
pub fn f64s_to_bytes(data: &[f64]) -> Vec<u8> {
    view::f64s_as_bytes(data).to_vec()
}

/// Decode a byte stream as f64s. Panics on ragged lengths.
pub fn bytes_to_f64s(bytes: &[u8]) -> Vec<f64> {
    view::f64s_in(bytes).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncd_datatype::matrix_column_type;
    use ncd_simnet::{Cluster, ClusterConfig, Observers};

    fn two_ranks<R: Send>(f: impl Fn(&mut Comm) -> R + Send + Sync) -> Vec<R> {
        Cluster::new(ClusterConfig::uniform(2)).run(move |rank| {
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            f(&mut comm)
        })
    }

    #[test]
    fn f64_byte_round_trip() {
        let v = vec![1.5, -2.25, 0.0, f64::MAX];
        assert_eq!(bytes_to_f64s(&f64s_to_bytes(&v)), v);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn ragged_bytes_panic() {
        bytes_to_f64s(&[0u8; 7]);
    }

    #[test]
    fn contiguous_typed_send_recv() {
        let out = two_ranks(|comm| {
            let dt = Datatype::double();
            if comm.rank() == 0 {
                let data = f64s_to_bytes(&[1.0, 2.0, 3.0]);
                comm.send(&data, &dt, 3, 1, Tag(0));
                None
            } else {
                let mut buf = vec![0u8; 24];
                comm.recv(&mut buf, &dt, 3, Some(0), Tag(0));
                Some(bytes_to_f64s(&buf))
            }
        });
        assert_eq!(out[1].as_ref().unwrap(), &vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn noncontiguous_transpose_send() {
        // The §5.2 pattern in miniature: send columns, receive rows.
        let (rows, cols) = (8, 8);
        let out = two_ranks(move |comm| {
            let col = matrix_column_type(rows, cols, 3).unwrap();
            let n = rows * cols * 24;
            if comm.rank() == 0 {
                let src: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
                comm.send(&src, &col, cols, 1, Tag(1));
                Some(src)
            } else {
                let row = Datatype::contiguous(n / 8, &Datatype::double()).unwrap();
                let mut dst = vec![0u8; n];
                comm.recv(&mut dst, &row, 1, Some(0), Tag(1));
                Some(dst)
            }
        });
        let src = out[0].as_ref().unwrap();
        let dst = out[1].as_ref().unwrap();
        // dst holds the matrix transposed (column-major pack order).
        let col = matrix_column_type(rows, cols, 3).unwrap();
        let expected = ncd_datatype::pack_all(&col, cols, src).unwrap();
        assert_eq!(dst, &expected);
    }

    #[test]
    fn short_buffers_fail_before_any_charge_or_copy() {
        // `cols` columns of the column type touch the whole matrix. With a
        // buffer one byte short, the last block used to be the one that
        // noticed — after every earlier block had been charged.
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (rows, cols) = (64, 64);
        let n = rows * cols * 24;
        for cfg in [MpiConfig::baseline(), MpiConfig::optimized()] {
            let mut cfg = cfg;
            cfg.engine.block_size = 4096;
            let out = Cluster::new(ClusterConfig::uniform(1)).run(move |rank| {
                let mut comm = Comm::new(rank, cfg.clone());
                let col = matrix_column_type(rows, cols, 3).unwrap();
                let short = vec![3u8; n - 1];
                let send = catch_unwind(AssertUnwindSafe(|| {
                    comm.prepare_send(&short, &col, cols);
                }));
                let mut dst = vec![0u8; n - 1];
                let recv = catch_unwind(AssertUnwindSafe(|| {
                    comm.deliver_recv(&mut dst, &col, cols, &[7u8; 4096]);
                }));
                let stats = comm.rank_ref().stats();
                (
                    send.is_err() && recv.is_err(),
                    stats.pack.as_ns() + stats.search.as_ns(),
                    dst.iter().all(|&b| b == 0),
                )
            });
            assert_eq!(out[0], (true, 0, true));
        }
    }

    #[test]
    fn baseline_charges_search_optimized_does_not() {
        let run = |cfg: MpiConfig| {
            Cluster::new(ClusterConfig::uniform(2)).run(move |rank| {
                let mut comm = Comm::new(rank, cfg.clone());
                let col = matrix_column_type(64, 64, 3).unwrap();
                let n = 64 * 64 * 24;
                if comm.rank() == 0 {
                    let src = vec![3u8; n];
                    comm.send(&src, &col, 64, 1, Tag(0));
                    comm.rank_ref().stats().search.as_ns()
                } else {
                    let mut dst = vec![0u8; n];
                    let row = Datatype::contiguous(n, &Datatype::byte()).unwrap();
                    comm.recv(&mut dst, &row, 1, Some(0), Tag(0));
                    0
                }
            })
        };
        // Force multiple pipeline blocks over the sparse type.
        let mut base = MpiConfig::baseline();
        base.engine.block_size = 4096;
        let mut opt = MpiConfig::optimized();
        opt.engine.block_size = 4096;
        assert!(run(base)[0] > 0, "baseline should charge search time");
        assert_eq!(run(opt)[0], 0, "optimized must never search");
    }

    #[test]
    fn noncontiguous_send_feeds_pack_observability() {
        // A real typed send must report every pipeline block into the
        // datatype/* metrics, the trace's PackBlock track, and the
        // always-on flight recorder.
        let mut cfg = MpiConfig::baseline();
        cfg.engine.block_size = 4096;
        let observers = Observers {
            trace: true,
            metrics: true,
            ..Observers::NONE
        };
        let cluster = Cluster::new(ClusterConfig::uniform(2).observe(observers));
        let run = cluster.try_run(move |rank| {
            let mut comm = Comm::new(rank, cfg.clone());
            let col = matrix_column_type(64, 64, 3).unwrap();
            let n = 64 * 64 * 24;
            if comm.rank() == 0 {
                let src = vec![3u8; n];
                comm.send(&src, &col, 64, 1, Tag(0));
                let metrics = comm.rank_mut().metrics_mut().expect("metered");
                let blocks = metrics.counter("datatype", "blocks", "single-context");
                let seek = metrics.counter("datatype", "seek_total", "single-context");
                let density = metrics.counter("datatype", "sparse_blocks", "single-context")
                    + metrics.counter("datatype", "dense_blocks", "single-context");
                assert_eq!(density, blocks, "every block is sparse or dense");
                let seeks = metrics
                    .histogram("datatype", "seek_segments", "single-context")
                    .expect("seek histogram exists");
                assert_eq!((seeks.count(), seeks.sum()), (blocks, seek));
                Some((blocks, seek))
            } else {
                let mut dst = vec![0u8; n];
                let row = Datatype::contiguous(n, &Datatype::byte()).unwrap();
                comm.recv(&mut dst, &row, 1, Some(0), Tag(0));
                None
            }
        });
        let (blocks, seek) = run.results.unwrap()[0].unwrap();
        let traces = run.capture.traces.expect("traced");
        let pack_events = traces[0]
            .iter()
            .filter(|e| matches!(e.kind, ncd_simnet::EventKind::PackBlock { .. }))
            .count() as u64;
        let flight = run.recorders[0]
            .snapshot()
            .iter()
            .filter(|r| r.code == ncd_simnet::RecCode::PackBlock)
            .count() as u64;
        assert!(
            blocks > 1,
            "expected multiple pipeline blocks, got {blocks}"
        );
        assert!(seek > 0, "single-context must report seek segments");
        assert_eq!(pack_events, blocks, "one trace span per pipeline block");
        assert_eq!(flight, blocks, "one flight-recorder event per block");
    }

    #[test]
    fn per_block_charging_matches_engine_totals() {
        // Driving the engine block by block must charge the same op counts
        // (and therefore report the same metrics) as a one-shot pack.
        let mut cfg = MpiConfig::optimized();
        cfg.engine.block_size = 4096;
        let metrics = Observers {
            metrics: true,
            ..Observers::NONE
        };
        let cluster = Cluster::new(ClusterConfig::uniform(2).observe(metrics));
        let (out, capture) = cluster
            .try_run(move |rank| {
                let mut comm = Comm::new(rank, cfg.clone());
                let col = matrix_column_type(64, 64, 3).unwrap();
                let n = 64 * 64 * 24;
                if comm.rank() == 0 {
                    let src = vec![5u8; n];
                    comm.send(&src, &col, 64, 1, Tag(0));
                    let m = comm.rank_mut().metrics_mut().expect("metered");
                    let per_block_bytes = m
                        .histogram("datatype", "block_bytes", "dual-context")
                        .map(|h| h.sum())
                        .unwrap_or(0);
                    let engine_bytes = m
                        .histogram("engine", "bytes", "dual-context")
                        .map(|h| h.sum())
                        .unwrap_or(0);
                    Some((
                        engine_bytes,
                        per_block_bytes,
                        m.counter("datatype", "blocks", "dual-context"),
                        m.counter("datatype", "seek_total", "dual-context"),
                    ))
                } else {
                    let mut dst = vec![0u8; n];
                    let row = Datatype::contiguous(n, &Datatype::byte()).unwrap();
                    comm.recv(&mut dst, &row, 1, Some(0), Tag(0));
                    None
                }
            })
            .unwrap();
        let (engine_bytes, per_block_bytes, blocks, seek) = out[0].unwrap();
        let merged = capture.metrics.expect("metered");
        assert_eq!(merged.counter("datatype", "blocks", "dual-context"), blocks);
        assert_eq!(
            engine_bytes,
            64 * 64 * 24,
            "engine totals must cover every byte"
        );
        assert_eq!(
            per_block_bytes, engine_bytes,
            "per-block observations must sum to the engine total"
        );
        assert!(blocks > 1);
        assert_eq!(seek, 0, "dual-context never re-searches");
    }

    #[test]
    fn noncontiguous_recv_unpacks() {
        let out = two_ranks(|comm| {
            let col = matrix_column_type(4, 4, 1).unwrap();
            let n = 4 * 4 * 8;
            if comm.rank() == 0 {
                // Send 4 contiguous doubles...
                let data = f64s_to_bytes(&[10.0, 11.0, 12.0, 13.0]);
                comm.send(&data, &Datatype::double(), 4, 1, Tag(9));
                None
            } else {
                // ...receive them into the first column of a 4x4 matrix.
                let mut buf = vec![0u8; n];
                comm.recv(&mut buf, &col, 1, Some(0), Tag(9));
                Some(bytes_to_f64s(&buf))
            }
        });
        let m = out[1].as_ref().unwrap();
        assert_eq!(m[0], 10.0);
        assert_eq!(m[4], 11.0);
        assert_eq!(m[8], 12.0);
        assert_eq!(m[12], 13.0);
        assert_eq!(m[1], 0.0);
    }

    #[test]
    fn zero_count_messages_work() {
        let out = two_ranks(|comm| {
            let dt = Datatype::double();
            if comm.rank() == 0 {
                comm.send(&[], &dt, 0, 1, Tag(0));
                true
            } else {
                let mut buf = [];
                comm.recv(&mut buf, &dt, 0, Some(0), Tag(0));
                true
            }
        });
        assert_eq!(out, vec![true, true]);
    }

    #[test]
    fn sendrecv_exchanges_between_pair() {
        let out = two_ranks(|comm| {
            let dt = Datatype::double();
            let me = comm.rank();
            let peer = 1 - me;
            let send = f64s_to_bytes(&[me as f64 + 1.0]);
            let mut recv = vec![0u8; 8];
            comm.sendrecv(&send, &dt, 1, peer, &mut recv, &dt, 1, peer, Tag(5));
            bytes_to_f64s(&recv)[0]
        });
        assert_eq!(out, vec![2.0, 1.0]);
    }
}
