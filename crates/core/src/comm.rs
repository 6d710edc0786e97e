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
use ncd_simnet::{CostKind, EventKind, Rank, Tag, Violation};

use crate::config::MpiConfig;
use crate::view;

/// The communicator: a rank handle plus an implementation personality.
/// There is one communicator, the world; traffic of different layers
/// stays apart by tag range (see [`crate::coll`]'s `coll_tag`).
pub struct Comm<'a> {
    rank: &'a mut Rank,
    cfg: MpiConfig,
}

impl<'a> Comm<'a> {
    pub fn new(rank: &'a mut Rank, cfg: MpiConfig) -> Self {
        Comm { rank, cfg }
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

    /// Record one message through a datatype engine (or the unpack path)
    /// in the metrics registry: its invocation and its bytes, the
    /// per-message facts no event carries. The per-block counts are the
    /// `PackBlock` events' `datatype/*` keys. No-op when metrics are off;
    /// never touches the simulated clock.
    pub(crate) fn record_engine_metrics(&mut self, algo: &'static str, c: &OpCounts) {
        let Some(m) = self.rank.metrics_mut() else {
            return;
        };
        m.counter_add("engine", "invocations", algo, 1);
        m.observe("engine", "bytes", algo, c.total_bytes());
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
        let total = message_bytes(dt, count);
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
    /// The engine is driven block by block and owns the payload it packs
    /// into: each pipeline block's op counts are charged to the simulated
    /// clock as it is produced, the block is recorded as an
    /// [`EventKind::PackBlock`] (flight recorder; the trace's `dt` lane /
    /// Chrome datatype track; `Rank::record` folds its `datatype/*`
    /// metrics — log₂ histograms of seek distance, look-ahead window and
    /// block bytes, plus block counters — from it), and then
    /// `block_done(self, block bytes)` runs (the nonblocking send puts the
    /// block on the NIC there). Aggregate totals are identical to one-shot
    /// charging up to per-charge nanosecond rounding.
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
        loop {
            let block_start = self.rank.now();
            let mut block = OpCounts::default();
            let Some(obs) = engine.next_block(&mut block) else {
                break;
            };
            self.charge_op_counts(&block);
            counts.merge(&block);
            // `seek` is the segments re-walked from the type root — the
            // paper's quadratic signal, always zero for dual-context.
            let block = EventKind::PackBlock {
                engine: name,
                index: obs.index,
                sparse: obs.mode == BlockMode::Packed,
                seek: obs.seek_segments,
                lookahead: obs.lookahead_segments,
                bytes: obs.bytes,
            };
            self.rank.record(block_start, block);
            block_done(self, obs.bytes as usize);
        }
        self.record_engine_metrics(name, &counts);
        engine.into_payload()
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
        // What arrived must fit the receive type, and the receive type
        // (for a contiguous one, what arrived) must fit the buffer.
        let rank = self.rank();
        let fits = |what, into, bytes: usize, room: usize| {
            if bytes > room {
                Violation::RecvOverflow {
                    rank,
                    what,
                    into,
                    bytes,
                    room,
                }
                .raise();
            }
        };
        let total = message_bytes(dt, count);
        fits("message", "receive type", bytes.len(), total);
        if bytes.is_empty() {
            return;
        }
        if dt.is_contiguous() {
            fits("message", "receive buffer", bytes.len(), buf.len());
            buf[..bytes.len()].copy_from_slice(bytes);
            return;
        }
        let span = dt.true_bounds(count).1.max(0) as usize;
        fits("receive type", "receive buffer", span, buf.len());
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

/// The bytes in `count` instances of `dt`. A product past `usize` is
/// refused here, before any byte is copied or any cost charged, as a
/// short buffer is.
pub(crate) fn message_bytes(dt: &Datatype, count: usize) -> usize {
    let size = dt.size();
    size.checked_mul(count)
        .unwrap_or_else(|| panic!("{count} instances of a {size}-byte type overflow usize"))
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
    use ncd_simnet::{Cluster, ClusterConfig, Observers, RunError};

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

    /// Rank 0 sends two doubles; rank 1 receives them as `count` of
    /// `rdt` into a buffer of `len` bytes. The run's violation.
    fn receive_two_doubles(rdt: Datatype, count: usize, len: usize) -> (usize, Violation) {
        let out = Cluster::new(ClusterConfig::uniform(2)).try_run(move |rank| {
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            if comm.rank() == 0 {
                comm.send(&[7u8; 16], &Datatype::double(), 2, 1, Tag(0));
            } else {
                comm.recv(&mut vec![0u8; len], &rdt, count, Some(0), Tag(0));
            }
        });
        match out.results {
            Err(RunError::Violation { rank, violation }) => (rank, violation),
            other => panic!("expected a violation, got {:?}", other.err()),
        }
    }

    fn overflow(what: &'static str, into: &'static str, bytes: usize, room: usize) -> Violation {
        Violation::RecvOverflow {
            rank: 1,
            what,
            into,
            bytes,
            room,
        }
    }

    #[test]
    fn a_message_longer_than_the_receive_type_is_a_violation() {
        let got = receive_two_doubles(Datatype::double(), 1, 16);
        let want = overflow("message", "receive type", 16, 8);
        assert_eq!(got, (1, want.clone()));
        assert_eq!(
            want.to_string(),
            "message of 16 bytes overflows receive type of 8 bytes"
        );
    }

    #[test]
    fn a_contiguous_receive_into_a_short_buffer_is_a_violation() {
        let got = receive_two_doubles(Datatype::double(), 2, 8);
        let want = overflow("message", "receive buffer", 16, 8);
        assert_eq!(got, (1, want.clone()));
        assert_eq!(
            want.to_string(),
            "message of 16 bytes overflows receive buffer of 8 bytes"
        );
    }

    #[test]
    fn a_typed_receive_into_a_short_buffer_is_a_violation() {
        // Two doubles one double apart: 16 bytes of data over a 24-byte span.
        let strided = Datatype::vector(2, 1, 2, &Datatype::double()).unwrap();
        let got = receive_two_doubles(strided, 1, 16);
        let want = overflow("receive type", "receive buffer", 24, 16);
        assert_eq!(got, (1, want.clone()));
        assert_eq!(
            want.to_string(),
            "receive type of 24 bytes overflows receive buffer of 16 bytes"
        );
    }

    #[test]
    fn short_buffers_fail_before_any_charge_or_copy() {
        // `cols` columns of the column type touch the whole matrix. With a
        // buffer one byte short, the last block used to be the one that
        // noticed — after every earlier block had been charged. And
        // `usize::MAX / 4 + 1` zero-extent doubles all touch the same 8
        // bytes, while their 2^65 packed bytes wrap to 8 in `usize`.
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (rows, cols) = (64, 64);
        let n = rows * cols * 24;
        let col = matrix_column_type(rows, cols, 3).unwrap();
        let stacked = Datatype::resized(0, 0, &Datatype::double()).unwrap();
        let inputs = [(col, cols, n - 1), (stacked, usize::MAX / 4 + 1, 8)];
        for (dt, count, len) in inputs {
            for mut cfg in [MpiConfig::baseline(), MpiConfig::optimized()] {
                let dt = dt.clone();
                cfg.engine.block_size = 4096;
                let out = Cluster::new(ClusterConfig::uniform(1)).run(move |rank| {
                    let mut comm = Comm::new(rank, cfg.clone());
                    let short = vec![3u8; len];
                    let send = catch_unwind(AssertUnwindSafe(|| {
                        comm.prepare_send(&short, &dt, count);
                    }));
                    let mut dst = vec![0u8; len];
                    let recv = catch_unwind(AssertUnwindSafe(|| {
                        comm.deliver_recv(&mut dst, &dt, count, &[7u8; 4096]);
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
