//! Request-based nonblocking point-to-point communication — the analogue
//! of `MPI_Isend`/`MPI_Irecv`/`MPI_Wait*` over the simulated NIC progress
//! model. There is no `MPI_Test`: every request completes by waiting.
//!
//! A [`Request`] is a handle to an in-flight operation:
//!
//! * an **isend** charges only the CPU-side send overhead up front, then
//!   reserves the message's serialization time on the rank's NIC timeline
//!   ([`ncd_simnet::Rank::nic_reserve`]). The sender's clock keeps running;
//!   [`Comm::wait`] charges only the *residual* wire time that useful work
//!   did not hide (zero when compute fully covered the drain).
//! * an **irecv** posts a `(source, tag)` match with zero cost;
//!   completion charges wait time only for the portion of the message's
//!   simulated arrival still in the future — a wait on an already-arrived
//!   message costs ~0 beyond the receive overhead.
//!
//! A typed [`Comm::isend`] with a noncontiguous datatype streams the pack
//! pipeline straight onto the NIC: each block's wire time is reserved as
//! the block is produced, so serialization of block *i* overlaps packing
//! of block *i+1* — the paper's §3.1 pipelining rationale, now actually
//! overlapping pack with transmission instead of merely bounding memory.
//!
//! Matching semantics: posted receives match envelopes in MPI's
//! per-(source, tag) FIFO order. [`Comm::waitall`] and [`Comm::wait_each`]
//! match every pending receive in request (post) order *before* deciding
//! which operation completes first, so completion order — which follows
//! simulated arrival order in `wait_each` — never changes which message a
//! receive gets.
//!
//! Simulation caveat: `wait`/`waitall`/`wait_each` resolve pending
//! receives by blocking on the *physical* channel (the simulated clock is
//! charged only the residual). The matching sends must therefore already
//! have been initiated by the peer's program text before it blocks on this
//! rank — true for every collective, scatter, and begin/end pattern in
//! this workspace, where all sends of a phase are posted before anyone
//! waits.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ncd_datatype::Datatype;
use ncd_simnet::{EventKind, NetMsg, SimTime, Tag};

use crate::comm::Comm;

/// A pending nonblocking operation. Obtain from [`Comm::isend`] /
/// [`Comm::irecv`]; complete with [`Comm::wait`], [`Comm::waitall`], or
/// [`Comm::wait_each`].
pub struct Request {
    state: State,
}

enum State {
    /// Outgoing message already handed to the transport; `done` is when
    /// the sender's NIC finishes serializing its last byte.
    Send { done: SimTime },
    /// Posted receive, not yet matched to an envelope.
    RecvPosted {
        /// The expected source; `None` = any source.
        src: Option<usize>,
        tag: Tag,
    },
    /// Matched envelope parked until completion ([`Comm::wait_each`] took
    /// it from the mailbox, but the wait residual is not yet charged).
    RecvArrived { msg: NetMsg },
}

impl Request {
    fn is_recv(&self) -> bool {
        !matches!(self.state, State::Send { .. })
    }

    /// When a matched request can complete without waiting: the send's
    /// drain or the message's arrival.
    fn ready_at(&self) -> SimTime {
        match &self.state {
            State::Send { done } => *done,
            State::RecvArrived { msg } => msg.arrival,
            State::RecvPosted { .. } => unreachable!("receives are matched first"),
        }
    }
}

/// What a completed request produced.
pub enum Completion {
    /// A send finished serializing (any residual wire time was charged).
    Send,
    /// A receive delivered its payload; `src` is the rank that sent it.
    Recv { data: Vec<u8>, src: usize },
}

impl Completion {
    /// Unwrap a receive completion's payload and source rank.
    pub fn into_recv(self) -> (Vec<u8>, usize) {
        match self {
            Completion::Recv { data, src } => (data, src),
            Completion::Send => panic!("completion of a send request carries no data"),
        }
    }
}

impl Comm<'_> {
    /// Nonblocking typed send of `count` instances of `dt` from `buf` to
    /// rank `dst`. Contiguous data is handed to the NIC in one
    /// reservation; noncontiguous data streams the pack pipeline, one wire
    /// reservation per produced block.
    pub fn isend(
        &mut self,
        buf: &[u8],
        dt: &Datatype,
        count: usize,
        dst: usize,
        tag: Tag,
    ) -> Request {
        let total = crate::comm::message_bytes(dt, count);
        if total == 0 || dt.is_contiguous() {
            return self.isend_bytes(dst, tag, buf[..total].to_vec());
        }
        let trace_start = self.rank_mut().isend_begin();
        let mut done = self.rank_ref().now();
        // Each block goes onto the NIC as soon as it exists: its wire time
        // runs concurrently with packing the next block.
        let payload = self.pack_pipeline(buf, dt, count, |comm, block_bytes| {
            done = comm.rank_mut().nic_reserve(block_bytes);
        });
        self.rank_mut()
            .isend_finish(dst, tag, payload, trace_start, done);
        Request {
            state: State::Send { done },
        }
    }

    /// Nonblocking raw-bytes send to rank `dst` (the request analogue of
    /// [`ncd_simnet::Rank::send_bytes`]): one NIC reservation for the
    /// whole payload.
    pub fn isend_bytes(&mut self, dst: usize, tag: Tag, data: Vec<u8>) -> Request {
        let done = self.rank_mut().isend_bytes(dst, tag, data);
        Request {
            state: State::Send { done },
        }
    }

    /// Post a nonblocking receive from rank `src` (`None` = any source)
    /// with `tag`. Free on the simulated clock — a receive only costs when
    /// it is completed — so the posting is recorded as an
    /// [`EventKind::IrecvPost`] instant. The payload comes back from
    /// [`Comm::wait`] (or [`Comm::wait_recv_into`] for typed delivery).
    pub fn irecv(&mut self, src: Option<usize>, tag: Tag) -> Request {
        let now = self.rank_ref().now();
        let posted = EventKind::IrecvPost { src, tag: tag.0 };
        self.rank_mut().record(now, posted);
        Request {
            state: State::RecvPosted { src, tag },
        }
    }

    /// Block until `req` completes, charging only the residual wait (see
    /// the module docs).
    pub fn wait(&mut self, req: Request) -> Completion {
        match req.state {
            State::Send { done } => self.complete_send(done),
            State::RecvPosted { src, tag } => {
                let msg = self.rank_mut().fetch_msg(src, tag);
                self.complete_recv(msg)
            }
            State::RecvArrived { msg } => self.complete_recv(msg),
        }
    }

    /// Complete every request, in request order. Matching therefore
    /// follows post order, preserving per-(source, tag) FIFO; the total
    /// elapsed simulated time is order-independent (the clock only ever
    /// advances to each completion's readiness time).
    pub fn waitall(&mut self, reqs: Vec<Request>) -> Vec<Completion> {
        reqs.into_iter().map(|r| self.wait(r)).collect()
    }

    /// Complete every request in simulated completion order, handing each
    /// to `on` with its index before the next is chosen. The next request
    /// is the one that can complete earliest — its send drain or message
    /// arrival, or now if that has passed — ties broken by lowest index;
    /// the choice is re-made after each `on`, whose work moves the clock.
    /// Pending receives are matched to envelopes in request (post) order
    /// *first*, so completion order never changes which message a receive
    /// gets.
    ///
    /// Each step costs O(log n): requests not yet ready wait in `(ready
    /// time, index)` order, which never changes, and join a heap of ready
    /// indices once the clock reaches their key (the clock never runs
    /// backward, so a ready request stays ready).
    pub fn wait_each(
        &mut self,
        reqs: Vec<Request>,
        mut on: impl FnMut(&mut Comm, usize, Completion),
    ) {
        // Matched in place: an `Option<Request>` is no larger than a
        // `Request`, so this reuses the caller's allocation.
        let mut reqs: Vec<Option<Request>> = reqs
            .into_iter()
            .map(|req| Some(self.match_recv(req)))
            .collect();
        let mut waiting: Vec<(SimTime, usize)> = reqs
            .iter()
            .flatten()
            .map(Request::ready_at)
            .zip(0..)
            .collect();
        waiting.sort_unstable();
        let mut waiting = waiting.into_iter().peekable();
        let mut ready = BinaryHeap::new();
        loop {
            let now = self.rank_ref().now();
            while let Some((_, idx)) = waiting.next_if(|&(at, _)| at <= now) {
                ready.push(Reverse(idx));
            }
            let idx = match ready.pop() {
                Some(Reverse(idx)) => idx,
                None => match waiting.next() {
                    Some((_, idx)) => idx,
                    None => return,
                },
            };
            let req = reqs[idx].take().expect("each request completes once");
            let completion = self.wait(req);
            on(self, idx, completion);
        }
    }

    /// Complete a receive request and scatter its payload into `buf` as
    /// `count` instances of `dt` (charging unpack costs). Returns the
    /// source rank.
    pub fn wait_recv_into(
        &mut self,
        req: Request,
        buf: &mut [u8],
        dt: &Datatype,
        count: usize,
    ) -> usize {
        assert!(req.is_recv(), "wait_recv_into needs a receive request");
        let (data, src) = self.wait(req).into_recv();
        self.deliver_recv(buf, dt, count, &data);
        src
    }

    /// Take a posted receive's envelope from the mailbox, blocking until
    /// one matches; a send has nothing to match.
    fn match_recv(&mut self, mut req: Request) -> Request {
        if let State::RecvPosted { src, tag } = req.state {
            let msg = self.rank_mut().fetch_msg(src, tag);
            req.state = State::RecvArrived { msg };
        }
        req
    }

    fn complete_send(&mut self, done: SimTime) -> Completion {
        let residual = self.rank_mut().send_drain(done);
        self.observe_wait_residual("send", residual);
        Completion::Send
    }

    fn complete_recv(&mut self, msg: NetMsg) -> Completion {
        let (data, src, waited) = self.rank_mut().complete_recv_msg(msg);
        self.observe_wait_residual("recv", waited);
        Completion::Recv { data, src }
    }

    /// Wait-residual metrics: how much of each request's completion was
    /// *not* hidden by overlap. A histogram stuck at zero means perfect
    /// overlap; its mass is exactly the time the analysis engine's wait
    /// attribution sees.
    fn observe_wait_residual(&mut self, kind: &'static str, residual: SimTime) {
        if let Some(m) = self.rank_mut().metrics_mut() {
            m.observe("request", "wait_residual_ns", kind, residual.as_ns());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{bytes_to_f64s, f64s_to_bytes};
    use crate::config::MpiConfig;
    use ncd_datatype::matrix_column_type;
    use ncd_simnet::{Cluster, ClusterConfig};
    use proptest::prelude::*;

    fn run_n<R: Send>(n: usize, f: impl Fn(&mut Comm) -> R + Send + Sync) -> Vec<R> {
        Cluster::new(ClusterConfig::uniform(n)).run(move |rank| {
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            f(&mut comm)
        })
    }

    #[test]
    fn isend_wait_delivers_contiguous() {
        let out = run_n(2, |comm| {
            let dt = Datatype::double();
            if comm.rank() == 0 {
                let req = comm.isend(&f64s_to_bytes(&[4.0, 5.0]), &dt, 2, 1, Tag(0));
                comm.wait(req);
                None
            } else {
                let req = comm.irecv(Some(0), Tag(0));
                let mut buf = vec![0u8; 16];
                let src = comm.wait_recv_into(req, &mut buf, &dt, 2);
                assert_eq!(src, 0);
                Some(bytes_to_f64s(&buf))
            }
        });
        assert_eq!(out[1].as_ref().unwrap(), &vec![4.0, 5.0]);
    }

    #[test]
    fn streamed_isend_payload_matches_reference_pack() {
        // The pipelined isend must put exactly pack_all's bytes on the
        // wire, and overlap must make it no slower than pack-then-send.
        let (rows, cols) = (32, 32);
        let out = run_n(2, move |comm| {
            let col = matrix_column_type(rows, cols, 3).unwrap();
            let n = rows * cols * 24;
            if comm.rank() == 0 {
                let src: Vec<u8> = (0..n).map(|i| (i % 241) as u8).collect();
                let req = comm.isend(&src, &col, cols, 1, Tag(2));
                comm.wait(req);
                Some(ncd_datatype::pack_all(&col, cols, &src).unwrap())
            } else {
                let req = comm.irecv(Some(0), Tag(2));
                let (data, _) = comm.wait(req).into_recv();
                Some(data)
            }
        });
        assert_eq!(out[0], out[1], "wire bytes must equal the reference pack");
    }

    #[test]
    fn overlapped_isend_is_no_slower_and_hides_wire_under_compute() {
        // Same exchange, with and without compute between isend and wait:
        // overlapping compute must not extend the sender's elapsed time by
        // the wire (the drain residual shrinks to zero).
        let elapsed = |flops: u64| {
            run_n(2, move |comm| {
                if comm.rank() == 0 {
                    let req = comm.isend_bytes(1, Tag(0), vec![0u8; 1 << 20]);
                    comm.rank_mut().compute_flops(flops);
                    comm.wait(req);
                    comm.rank_ref().now()
                } else {
                    let req = comm.irecv(Some(0), Tag(0));
                    comm.rank_mut().compute_flops(flops);
                    comm.wait(req);
                    comm.rank_ref().now()
                }
            })[0]
        };
        let idle = elapsed(0);
        let busy = elapsed(100_000_000); // compute far exceeds the wire
        let compute_only = run_n(1, |comm| {
            comm.rank_mut().compute_flops(100_000_000);
            comm.rank_ref().now()
        })[0];
        assert!(
            busy < idle + compute_only,
            "compute must hide the wire: busy={busy} idle={idle} compute={compute_only}"
        );
    }

    #[test]
    fn wait_each_completes_in_arrival_order_with_fifo_matching() {
        let out = run_n(3, |comm| {
            if comm.rank() == 2 {
                // Both senders send two messages on the same tag; rank 1's
                // are delayed by compute. FIFO per source must hold, and
                // rank 0's (earlier) messages must complete first.
                let reqs_srcs = [0usize, 1, 0, 1];
                let reqs: Vec<Request> = reqs_srcs
                    .iter()
                    .map(|&s| comm.irecv(Some(s), Tag(7)))
                    .collect();
                let mut order = Vec::new();
                comm.wait_each(reqs, |_, idx, c| {
                    let (data, src) = c.into_recv();
                    assert_eq!(src, reqs_srcs[idx], "matched the posted source");
                    order.push((idx, data[0]));
                });
                Some(order)
            } else {
                if comm.rank() == 1 {
                    comm.rank_mut().compute_flops(50_000_000);
                }
                let base = comm.rank() as u8 * 10;
                comm.rank_mut().send_bytes(2, Tag(7), vec![base]);
                comm.rank_mut().send_bytes(2, Tag(7), vec![base + 1]);
                None
            }
        });
        // Per-source FIFO (request 0 gets rank 0's first message, ...) and
        // arrival order: rank 0's messages (no delay) complete before rank
        // 1's delayed ones, although the posts interleave the sources.
        assert_eq!(
            out[2].as_ref().unwrap(),
            &vec![(0, 0), (2, 1), (1, 10), (3, 11)]
        );
    }

    #[test]
    fn waitall_preserves_fifo_on_same_source_and_tag() {
        let out = run_n(2, |comm| {
            if comm.rank() == 0 {
                for v in 0..4u8 {
                    comm.rank_mut().send_bytes(1, Tag(3), vec![v]);
                }
                None
            } else {
                let reqs: Vec<Request> = (0..4).map(|_| comm.irecv(Some(0), Tag(3))).collect();
                let vals: Vec<u8> = comm
                    .waitall(reqs)
                    .into_iter()
                    .map(|c| c.into_recv().0[0])
                    .collect();
                Some(vals)
            }
        });
        assert_eq!(out[1].as_ref().unwrap(), &vec![0, 1, 2, 3]);
    }

    #[test]
    fn sendrecv_ring_completes_at_n8_without_parity_tricks() {
        // ISSUE 4 satellite: a full ring of simultaneous sendrecvs — every
        // rank sends right and receives from the left in one call, no
        // even/odd ordering — must complete (the request layer posts the
        // receive before blocking on anything).
        let n = 8;
        let out = run_n(n, move |comm| {
            let dt = Datatype::double();
            let me = comm.rank();
            let right = (me + 1) % n;
            let left = (me + n - 1) % n;
            let send = f64s_to_bytes(&[me as f64]);
            let mut recv = vec![0u8; 8];
            comm.sendrecv(&send, &dt, 1, right, &mut recv, &dt, 1, left, Tag(11));
            bytes_to_f64s(&recv)[0]
        });
        for (rank, &v) in out.iter().enumerate() {
            assert_eq!(v, ((rank + n - 1) % n) as f64);
        }
    }

    /// The selection `wait_each` replaced, kept as its oracle: after every
    /// receive is matched in post order, each step rescans all pending
    /// requests for the least `(max(ready time, now), index)`.
    fn drain_by_rescan(
        comm: &mut Comm,
        reqs: Vec<Request>,
        mut on: impl FnMut(&mut Comm, usize, Completion),
    ) {
        let mut reqs: Vec<Option<Request>> =
            reqs.into_iter().map(|r| Some(comm.match_recv(r))).collect();
        for _ in 0..reqs.len() {
            let now = comm.rank_ref().now();
            let idx = reqs
                .iter()
                .enumerate()
                .filter_map(|(i, r)| Some((r.as_ref()?.ready_at().max(now), i)))
                .min()
                .map(|(_, i)| i)
                .expect("a pending request");
            let completion = comm.wait(reqs[idx].take().expect("pending"));
            on(comm, idx, completion);
        }
    }

    /// One completion as the draining rank saw it: the request's index, a
    /// receive's first payload byte, and the clock after the callback.
    type Step = (usize, Option<u8>, u64);

    /// Rank 0 posts `ops` — `(is_send, peer, bytes)`, peers numbered from
    /// 1 — and drains them with `wait_each` or the oracle, charging
    /// `charges[step]` flops in each callback. Every peer first computes
    /// its delay, then sends what rank 0 receives from it and receives
    /// what rank 0 sends it. Returns rank 0's steps and every rank's final
    /// clock.
    fn drain(
        oracle: bool,
        seed: u64,
        peers: usize,
        ops: &[(bool, usize, usize)],
        delays: &[u64],
        charges: &[u64],
    ) -> (Vec<Step>, Vec<u64>) {
        let cluster = ClusterConfig::paper_testbed(peers + 1).with_seed(seed);
        let out = Cluster::new(cluster).run(|rank| {
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            let me = comm.rank();
            let mut steps = Vec::new();
            if me == 0 {
                let reqs: Vec<Request> = ops
                    .iter()
                    .map(|&(send, peer, bytes)| {
                        if send {
                            comm.isend_bytes(peer, Tag(9), vec![0; bytes])
                        } else {
                            comm.irecv(Some(peer), Tag(9))
                        }
                    })
                    .collect();
                let on = |comm: &mut Comm, idx: usize, c: Completion| {
                    let first = match c {
                        Completion::Send => None,
                        Completion::Recv { data, .. } => Some(data[0]),
                    };
                    comm.rank_mut()
                        .compute_flops(charges[steps.len() % charges.len()]);
                    steps.push((idx, first, comm.rank_ref().now().as_ns()));
                };
                if oracle {
                    drain_by_rescan(&mut comm, reqs, on);
                } else {
                    comm.wait_each(reqs, on);
                }
            } else {
                comm.rank_mut().compute_flops(delays[me % delays.len()]);
                for (k, &(send, peer, bytes)) in ops.iter().enumerate() {
                    if !send && peer == me {
                        comm.rank_mut()
                            .send_bytes(0, Tag(9), vec![k as u8; bytes.max(1)]);
                    }
                }
                for &(send, peer, _) in ops {
                    if send && peer == me {
                        comm.rank_mut().recv_bytes(Some(0), Tag(9));
                    }
                }
            }
            (steps, comm.rank_ref().now().as_ns())
        });
        let clocks = out.iter().map(|(_, clock)| *clock).collect();
        (out.into_iter().next().expect("rank 0").0, clocks)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn wait_each_completes_in_the_rescan_oracles_order(
            peers in 1usize..5,
            ops in proptest::collection::vec((any::<bool>(), 1usize..5, 0usize..4096), 1..24),
            delays in proptest::collection::vec(0u64..400_000, 5),
            charges in proptest::collection::vec(0u64..100_000, 1..24),
            seed in 0u64..1_000,
        ) {
            let ops: Vec<_> = ops
                .into_iter()
                .map(|(send, peer, bytes)| (send, 1 + peer % peers, bytes))
                .collect();
            let each = drain(false, seed, peers, &ops, &delays, &charges);
            let scan = drain(true, seed, peers, &ops, &delays, &charges);
            prop_assert_eq!(each.0.len(), ops.len());
            prop_assert_eq!(each, scan);
        }
    }
}
