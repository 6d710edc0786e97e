//! `VecScatter`: general gather/scatter between distributed vectors.
//!
//! A scatter is created from positional pairs of global indices — value at
//! `src[k]` of vector X goes to `dst[k]` of vector Y — and compiled into a
//! communication plan. Execution offers the two strategies the paper's
//! §5.4 compares:
//!
//! * [`ScatterBackend::HandTuned`] — PETSc's historical default: each
//!   peer's values are gathered once, straight into the message payload,
//!   sent and received individually and stored from the arriving bytes.
//!   Fast, but the packing and communication pattern live inside the library.
//! * [`ScatterBackend::Datatype`] — build an MPI derived datatype
//!   (hindexed over the vector's storage, runs of consecutive indices
//!   coalesced) per peer at plan-creation time and execute the whole
//!   scatter as **one `MPI_Alltoallw`** over the vectors' own memory
//!   ([`ncd_core::view`]). Simpler library code; performance now depends
//!   entirely on how well the MPI layer handles noncontiguous data and
//!   nonuniform volumes — which is exactly what the paper's optimizations
//!   fix. Run it over a `Baseline` communicator to reproduce the
//!   "MVAPICH2-0.9.5" series and over an `Optimized` one for "MVAPICH2-New".

use std::sync::Arc;

use ncd_core::{view, Comm, Request, WPeer};
use ncd_datatype::{hindexed_from_f64_indices, Datatype};
use ncd_simnet::{CostKind, Tag};

use crate::is::IndexSet;
use crate::layout::Layout;
use crate::vec::PVec;

/// Stage label mirrored into the trace by [`VecScatter::apply`] (when
/// profiling and tracing are enabled). Pass the begin/end pair to
/// [`ncd_simnet::stage_overlap`] to measure how much of the scatter's
/// wire time the caller's compute hid.
pub const STAGE_SCATTER_APPLY: &str = "scatter_apply";
/// Stage label mirrored into the trace by [`VecScatter::begin`].
pub const STAGE_SCATTER_BEGIN: &str = "scatter_begin";
/// Stage label mirrored into the trace by [`VecScatter::end`].
pub const STAGE_SCATTER_END: &str = "scatter_end";

/// Execution strategy for a compiled scatter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScatterBackend {
    /// Explicit pack / point-to-point / unpack (PETSc's hand-tuned path).
    HandTuned,
    /// Derived datatypes + one collective `alltoallw`.
    Datatype,
}

impl ScatterBackend {
    /// Stable lowercase name used as the metric algorithm label.
    pub fn label(self) -> &'static str {
        match self {
            ScatterBackend::HandTuned => "hand_tuned",
            ScatterBackend::Datatype => "datatype",
        }
    }
}

const SETUP_PAIRS_TAG: Tag = Tag(0x4000_0001);
const SETUP_DSTS_TAG: Tag = Tag(0x4000_0002);
const DATA_TAG: Tag = Tag(0x4000_0010);

/// `to[offsets[k]] = vals[k]`.
fn store(to: &mut [f64], offsets: &[usize], vals: impl Iterator<Item = f64>) {
    offsets.iter().zip(vals).for_each(|(&o, v)| to[o] = v);
}

/// What one side of a plan exchanges with one peer.
#[derive(Clone, Debug)]
struct PeerSpec {
    peer: usize,
    /// Local offsets into this side's vector, in transfer order.
    offsets: Vec<usize>,
    /// Number of coalesced contiguous runs in `offsets`.
    runs: u64,
}

impl PeerSpec {
    fn new(peer: usize, offsets: Vec<usize>) -> PeerSpec {
        PeerSpec {
            peer,
            runs: count_runs(&offsets),
            offsets,
        }
    }
}

fn count_runs(offsets: &[usize]) -> u64 {
    let mut runs = 0u64;
    let mut prev: Option<usize> = None;
    for &o in offsets {
        if prev != Some(o.wrapping_sub(1)) {
            runs += 1;
        }
        prev = Some(o);
    }
    runs
}

/// One side of a compiled plan: the source vector's side packs, the
/// destination vector's side unpacks.
struct Side {
    layout: Arc<Layout>,
    /// The pairs that stay on this rank, in pair order (parallel to the
    /// other side's `local`).
    local: PeerSpec,
    /// One spec per remote peer, in ascending peer order.
    remote: Vec<PeerSpec>,
    /// Prebuilt per-rank alltoallw slots (offset 0 into the local array's
    /// bytes; the self slot carries `local`).
    types: Vec<WPeer>,
}

impl Side {
    fn new(comm: &Comm, layout: Arc<Layout>, local: Vec<usize>, remote: Vec<PeerSpec>) -> Side {
        let local = PeerSpec::new(comm.rank(), local);
        let empty = Datatype::contiguous(0, &Datatype::double()).expect("empty type");
        let mut types: Vec<WPeer> = (0..comm.size())
            .map(|_| WPeer::new(0, 0, empty.clone()))
            .collect();
        for p in remote.iter().chain([&local]) {
            if !p.offsets.is_empty() {
                let dt = hindexed_from_f64_indices(&p.offsets).expect("scatter datatype");
                types[p.peer] = WPeer::new(0, 1, dt);
            }
        }
        Side {
            layout,
            local,
            remote,
            types,
        }
    }

    fn remote_elems(&self) -> usize {
        self.remote.iter().map(|p| p.offsets.len()).sum()
    }

    /// `v` must be laid out like this side (`role`: "source" / "destination").
    fn check(&self, v: &PVec, role: &str) {
        assert_eq!(v.layout(), &self.layout, "scatter {role} layout mismatch");
    }
}

/// An in-flight scatter: returned by [`VecScatter::begin`], consumed by
/// [`VecScatter::end`]. Holds the outstanding send/receive requests — the
/// receive requests are parallel to the destination side's peer specs, so
/// `end` can route each arriving payload to its offsets.
pub struct ScatterHandle {
    send_reqs: Vec<Request>,
    recv_reqs: Vec<Request>,
}

impl ScatterHandle {
    /// Number of point-to-point operations still outstanding (zero for the
    /// datatype backend, which completes inside `begin`).
    pub fn pending_ops(&self) -> usize {
        self.send_reqs.len() + self.recv_reqs.len()
    }
}

/// A compiled scatter plan between two layouts: one list of per-peer specs
/// per side, executed forward (`y[dst[k]] = x[src[k]]`) by one
/// `begin`/`end` pair.
pub struct VecScatter {
    src: Side,
    dst: Side,
}

impl VecScatter {
    /// Compile a *gather plan*: collect the values at `needed` global
    /// indices of a vector over `src_layout` into a per-rank contiguous
    /// buffer, in the order given. Returns the scatter plus the layout of
    /// the gathered buffers (rank-local sizes = each rank's `needed.len()`).
    ///
    /// This is the building block the geometric-multigrid transfer
    /// operators use to fetch the coarse/fine points covering their local
    /// subdomain regardless of how the two grids' partitions align.
    pub fn gather_plan(
        comm: &mut Comm,
        src_layout: Arc<Layout>,
        needed: &[usize],
    ) -> (VecScatter, Arc<Layout>) {
        // Build the destination layout from everyone's request count.
        let mut counts = vec![0u8; 8 * comm.size()];
        comm.allgather(view::u64s_as_bytes(&[needed.len() as u64]), &mut counts);
        let sizes: Vec<usize> = view::u64s_in(&counts).map(|c| c as usize).collect();
        let dst_layout = Layout::from_local_sizes(&sizes);
        let (base, _) = dst_layout.range(comm.rank());
        let dst: Vec<usize> = (0..needed.len()).map(|i| base + i).collect();
        let plan = VecScatter::create(
            comm,
            src_layout,
            &IndexSet::general(needed.to_vec()),
            dst_layout.clone(),
            &IndexSet::general(dst),
        );
        (plan, dst_layout)
    }

    /// Collectively compile a scatter. Each rank contributes `src_is[k] ->
    /// dst_is[k]` pairs; the pairs may name any global indices (they are
    /// routed to the owner of the source index internally). A source index
    /// may appear in several pairs; a destination index must appear in at
    /// most one pair over all ranks, or its owner panics naming it and the
    /// ranks that sent it.
    pub fn create(
        comm: &mut Comm,
        src_layout: Arc<Layout>,
        src_is: &IndexSet,
        dst_layout: Arc<Layout>,
        dst_is: &IndexSet,
    ) -> VecScatter {
        assert_eq!(
            src_is.len(),
            dst_is.len(),
            "scatter needs equally long source and destination index sets"
        );
        let size = comm.size();
        let rank = comm.rank();

        // Phase 1: route every pair to the owner of its source index.
        let mut my_pairs: Vec<(u64, u64)> = Vec::new();
        let mut outgoing: Vec<Vec<u64>> = vec![Vec::new(); size];
        for k in 0..src_is.len() {
            let (sg, dg) = (src_is.get(k), dst_is.get(k));
            let owner = src_layout.owner(sg);
            if owner == rank {
                my_pairs.push((sg as u64, dg as u64));
            } else {
                outgoing[owner].extend([sg as u64, dg as u64]);
            }
        }
        for (_, words) in route(comm, SETUP_PAIRS_TAG, &outgoing) {
            my_pairs.extend(words.chunks_exact(2).map(|w| (w[0], w[1])));
        }

        // Phase 2: with all sources local, split by destination owner.
        // Deterministic transfer order: sorted by destination global index.
        my_pairs.sort_unstable_by_key(|&(_, dg)| dg);
        let (my_src_start, _) = src_layout.range(rank);
        let (my_dst_start, _) = dst_layout.range(rank);
        let (mut local_src, mut local_dst) = (Vec::new(), Vec::new());
        let mut send_offsets: Vec<Vec<usize>> = vec![Vec::new(); size];
        let mut send_dsts: Vec<Vec<u64>> = vec![Vec::new(); size];
        for &(sg, dg) in &my_pairs {
            let owner = dst_layout.owner(dg as usize);
            if owner == rank {
                local_src.push(sg as usize - my_src_start);
                local_dst.push(dg as usize - my_dst_start);
            } else {
                send_offsets[owner].push(sg as usize - my_src_start);
                send_dsts[owner].push(dg);
            }
        }

        // Phase 3: tell each destination which of its entries we will fill,
        // in the transfer order our send specs keep.
        let recvs: Vec<PeerSpec> = route(comm, SETUP_DSTS_TAG, &send_dsts)
            .into_iter()
            .map(|(peer, dsts)| {
                let offsets = dsts.iter().map(|&dg| dg as usize - my_dst_start);
                PeerSpec::new(peer, offsets.collect())
            })
            .collect();
        refuse_repeated_dsts(rank, &dst_layout, &local_dst, &recvs);
        let sends = send_offsets
            .into_iter()
            .enumerate()
            .filter(|(_, offsets)| !offsets.is_empty())
            .map(|(peer, offsets)| PeerSpec::new(peer, offsets))
            .collect();

        VecScatter {
            src: Side::new(comm, src_layout, local_src, sends),
            dst: Side::new(comm, dst_layout, local_dst, recvs),
        }
    }

    /// Total elements this rank sends to remote ranks.
    pub fn remote_send_elems(&self) -> usize {
        self.src.remote_elems()
    }

    /// Total elements this rank receives from remote ranks.
    pub fn remote_recv_elems(&self) -> usize {
        self.dst.remote_elems()
    }

    /// Elements handled by pure local copy.
    pub fn local_elems(&self) -> usize {
        self.src.local.offsets.len()
    }

    /// Number of remote peers this rank communicates with.
    pub fn num_neighbors(&self) -> usize {
        self.src.remote.len().max(self.dst.remote.len())
    }

    /// Execute the scatter: `y[dst[k]] = x[src[k]]` for every pair.
    ///
    /// Equivalent to [`VecScatter::begin`] immediately followed by
    /// [`VecScatter::end`] — use the split form to overlap computation with
    /// the ghost traffic.
    pub fn apply(&self, comm: &mut Comm, x: &PVec, y: &mut PVec, backend: ScatterBackend) {
        self.record_apply_metrics(comm, backend, "apply");
        comm.rank_mut().stage_begin(STAGE_SCATTER_APPLY);
        let handle = self.start(comm, x, y, backend);
        self.finish(comm, handle, y);
        comm.rank_mut().stage_end(STAGE_SCATTER_APPLY);
    }

    /// Initiate a scatter from `from` into `to` (PETSc's `VecScatterBegin`
    /// with `INSERT_VALUES, SCATTER_FORWARD`): local copies are done, sends
    /// are initiated, receives are posted — but nothing waits. Values
    /// headed to remote ranks are captured from `from` here, so it may be
    /// reused immediately; `to`'s remote-filled entries are undefined until
    /// [`VecScatter::end`].
    ///
    /// With [`ScatterBackend::HandTuned`] the communication is genuinely in
    /// flight while the caller computes. The [`ScatterBackend::Datatype`]
    /// backend is a single collective `alltoallw` with no split form — it
    /// completes inside `begin` and `end` is a no-op, mirroring how the
    /// datatype path trades library control for MPI-internal scheduling.
    pub fn begin(
        &self,
        comm: &mut Comm,
        from: &PVec,
        to: &mut PVec,
        backend: ScatterBackend,
    ) -> ScatterHandle {
        self.record_apply_metrics(comm, backend, "begin");
        comm.rank_mut().stage_begin(STAGE_SCATTER_BEGIN);
        let handle = self.start(comm, from, to, backend);
        comm.rank_mut().stage_end(STAGE_SCATTER_BEGIN);
        handle
    }

    /// Complete a scatter started with [`VecScatter::begin`] on this plan:
    /// unpack inbound messages (in arrival order) into `to` and drain the
    /// sends, charging only wait time the caller's compute did not hide.
    pub fn end(&self, comm: &mut Comm, handle: ScatterHandle, to: &mut PVec) {
        comm.rank_mut().stage_begin(STAGE_SCATTER_END);
        self.finish(comm, handle, to);
        comm.rank_mut().stage_end(STAGE_SCATTER_END);
    }

    fn record_apply_metrics(&self, comm: &mut Comm, backend: ScatterBackend, op: &'static str) {
        if let Some(m) = comm.rank_mut().metrics_mut() {
            let label = backend.label();
            let bytes = 8 * (self.remote_send_elems() + self.local_elems());
            m.counter_add("scatter", op, label, 1);
            m.observe("scatter", "bytes", label, bytes as u64);
            m.counter_add("scatter", "neighbors", label, self.num_neighbors() as u64);
        }
    }

    /// The one executor's first half.
    fn start(
        &self,
        comm: &mut Comm,
        from: &PVec,
        to: &mut PVec,
        backend: ScatterBackend,
    ) -> ScatterHandle {
        self.src.check(from, "source");
        self.dst.check(to, "destination");
        let mut handle = ScatterHandle {
            send_reqs: Vec::new(),
            recv_reqs: Vec::new(),
        };
        match backend {
            ScatterBackend::Datatype => {
                // `alltoallw` reads and writes the vectors in place, as a real MPI would.
                let sendbuf = view::f64s_as_bytes(from.local());
                let recvbuf = view::f64s_as_bytes_mut(to.local_mut());
                comm.alltoallw(sendbuf, &self.src.types, recvbuf, &self.dst.types);
            }
            ScatterBackend::HandTuned => {
                // Post every receive before any packing starts.
                handle.recv_reqs = self
                    .dst
                    .remote
                    .iter()
                    .map(|r| comm.irecv(Some(r.peer), DATA_TAG))
                    .collect();
                let (here, there) = (&self.src.local, &self.dst.local);
                if !here.offsets.is_empty() {
                    let vals = here.offsets.iter().map(|&o| from.local()[o]);
                    store(to.local_mut(), &there.offsets, vals);
                    charge_indexed(comm, here.offsets.len(), here.runs);
                }
                // Gather each peer's values straight into its payload (the
                // message's only copy on this side) and initiate the send; its
                // wire time runs on the NIC while the next one is packed.
                for s in &self.src.remote {
                    let vals = s.offsets.iter().map(|&o| from.local()[o]);
                    let payload = view::f64s_to_payload(vals);
                    charge_indexed(comm, s.offsets.len(), s.runs);
                    let req = comm.isend_bytes(s.peer, DATA_TAG, payload);
                    handle.send_reqs.push(req);
                }
            }
        }
        handle
    }

    /// The one executor's second half.
    fn finish(&self, comm: &mut Comm, handle: ScatterHandle, to: &mut PVec) {
        self.dst.check(to, "destination");
        // Receive request `i` unpacks through `self.dst.remote[i]`; the
        // datatype path completed in `start` and left none.
        let recv_reqs = handle.recv_reqs;
        assert!(
            recv_reqs.is_empty() || recv_reqs.len() == self.dst.remote.len(),
            "scatter handle holds {} receive requests but this plan unpacks from {} peers",
            recv_reqs.len(),
            self.dst.remote.len()
        );
        // Unpack inbound messages as they arrive, not in plan order: a
        // late neighbour never blocks delivery of messages already here.
        comm.wait_each(recv_reqs, |comm, idx, completion| {
            let (bytes, _) = completion.into_recv();
            let r = &self.dst.remote[idx];
            let (want, got) = (8 * r.offsets.len(), bytes.len());
            assert_eq!(
                got,
                want,
                "scatter payload mismatch: rank {} expected {want} bytes from rank {}, got {got}",
                comm.rank(),
                r.peer
            );
            store(to.local_mut(), &r.offsets, view::f64s_in(&bytes));
            charge_indexed(comm, r.offsets.len(), r.runs);
        });
        // Drain the sends: charge whatever wire time was not hidden.
        comm.waitall(handle.send_reqs);
    }
}

/// Refuse a plan that fills one destination slot twice: the hand-tuned
/// path would keep the last arrival and `alltoallw` its own order. `local`
/// and each `recvs[i].offsets` are offsets into `rank`'s destination block;
/// the local pairs count as sent by `rank` itself.
fn refuse_repeated_dsts(rank: usize, layout: &Layout, local: &[usize], recvs: &[PeerSpec]) {
    let senders = || {
        let remote = recvs.iter().map(|r| (r.peer, r.offsets.as_slice()));
        std::iter::once((rank, local)).chain(remote)
    };
    let mut filled = vec![false; layout.local_size(rank)];
    for (_, offsets) in senders() {
        for &o in offsets {
            if std::mem::replace(&mut filled[o], true) {
                let by: Vec<usize> = senders()
                    .flat_map(|(peer, offs)| offs.iter().filter(|&&p| p == o).map(move |_| peer))
                    .collect();
                panic!(
                    "scatter destination {} is named by more than one pair: rank {rank} \
                     would receive it from ranks {by:?}",
                    layout.range(rank).0 + o
                );
            }
        }
    }
}

/// Charge an indexed copy of `elems` doubles in `runs` coalesced runs.
/// Hand-tuned packing copies runs with a loop specialized at compile time —
/// cheaper per run than the datatype engine's interpreted segment
/// processing — and is charged accordingly.
fn charge_indexed(comm: &mut Comm, elems: usize, runs: u64) {
    let cost = comm.rank_ref().cost_model();
    let ns = cost.indexed_copy_ns(8 * elems, runs);
    comm.rank_mut().charge_cpu(CostKind::Pack, ns);
}

/// Owner routing: `outgoing[p]` holds the words bound for rank `p` (the
/// self bucket never travels — keep local entries out of it). Exchanges
/// the bucket sizes, sends the non-empty buckets in peer order, then
/// receives the announced ones in peer order.
pub(crate) fn route(comm: &mut Comm, tag: Tag, outgoing: &[Vec<u64>]) -> Vec<(usize, Vec<u64>)> {
    let rank = comm.rank();
    let counts: Vec<u64> = outgoing.iter().map(|b| b.len() as u64).collect();
    let announced = comm.alltoall(view::u64s_as_bytes(&counts), 8);
    for (peer, bucket) in outgoing.iter().enumerate() {
        if peer != rank && !bucket.is_empty() {
            comm.rank_mut()
                .send_bytes(peer, tag, view::u64s_as_bytes(bucket).to_vec());
        }
    }
    let mut incoming = Vec::new();
    for (peer, n) in view::u64s_in(&announced).enumerate() {
        if peer != rank && n > 0 {
            let (bytes, _) = comm.rank_mut().recv_bytes(Some(peer), tag);
            let words: Vec<u64> = view::u64s_in(&bytes).collect();
            assert_eq!(words.len() as u64, n, "rank {peer} announced another size");
            incoming.push((peer, words));
        }
    }
    incoming
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncd_core::MpiConfig;
    use ncd_simnet::{Cluster, ClusterConfig, Observers};

    fn with_n<R: Send>(n: usize, f: impl Fn(&mut Comm) -> R + Send + Sync) -> Vec<R> {
        Cluster::new(ClusterConfig::uniform(n)).run(move |rank| {
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            f(&mut comm)
        })
    }

    fn iota_vec(comm: &Comm, layout: Arc<Layout>) -> PVec {
        let (s, e) = layout.range(comm.rank());
        PVec::from_local(layout, comm.rank(), (s..e).map(|g| g as f64).collect())
    }

    /// Run a scatter where global dst[g] = x[perm(g)], with each rank
    /// contributing the pairs for its owned *source* portion.
    fn permute_and_check(n_ranks: usize, n: usize, perm: fn(usize, usize) -> usize) {
        for backend in [ScatterBackend::HandTuned, ScatterBackend::Datatype] {
            let out = with_n(n_ranks, move |comm| {
                let layout = Layout::balanced(n, comm.size());
                let x = iota_vec(comm, layout.clone());
                let mut y = PVec::zeros(layout.clone(), comm.rank());
                let (s, e) = layout.range(comm.rank());
                let src = IndexSet::stride(s, 1, e - s);
                let dst = IndexSet::general((s..e).map(|g| perm(g, n)).collect::<Vec<_>>());
                let plan = VecScatter::create(comm, layout.clone(), &src, layout.clone(), &dst);
                plan.apply(comm, &x, &mut y, backend);
                y.local().to_vec()
            });
            // y[perm(g)] = g  =>  y[h] = perm^{-1}(h); verify by forward map.
            let mut y_global = Vec::new();
            for part in &out {
                y_global.extend_from_slice(part);
            }
            for g in 0..n {
                assert_eq!(
                    y_global[perm(g, n)],
                    g as f64,
                    "{backend:?} n_ranks={n_ranks} g={g}"
                );
            }
        }
    }

    #[test]
    fn identity_scatter() {
        permute_and_check(4, 20, |g, _| g);
    }

    #[test]
    fn reversal_scatter() {
        permute_and_check(3, 17, |g, n| n - 1 - g);
    }

    #[test]
    fn stride_permutation_scatter() {
        // g -> (g * 7 + 3) mod n with gcd(7, n) = 1: all-to-all-ish traffic.
        permute_and_check(5, 26, |g, n| (g * 7 + 3) % n);
    }

    #[test]
    fn single_rank_scatter_is_local() {
        permute_and_check(1, 10, |g, n| (g * 3 + 1) % n);
    }

    #[test]
    fn shift_scatter_is_nearest_neighbour() {
        let out = with_n(4, |comm| {
            let n = 16;
            let layout = Layout::balanced(n, comm.size());
            let x = iota_vec(comm, layout.clone());
            let mut y = PVec::zeros(layout.clone(), comm.rank());
            let (s, e) = layout.range(comm.rank());
            let src = IndexSet::stride(s, 1, e - s);
            let dst = IndexSet::general((s..e).map(|g| (g + 4) % n).collect::<Vec<_>>());
            let plan = VecScatter::create(comm, layout.clone(), &src, layout.clone(), &dst);
            let neighbors = plan.num_neighbors();
            plan.apply(comm, &x, &mut y, ScatterBackend::HandTuned);
            (neighbors, y.local().to_vec())
        });
        // Each rank's whole block shifts to exactly one neighbour.
        for (neighbors, _) in &out {
            assert_eq!(*neighbors, 1);
        }
        assert_eq!(out[1].1, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(out[0].1, vec![12.0, 13.0, 14.0, 15.0]);
    }

    #[test]
    fn different_src_dst_layouts() {
        // Gather a distributed vector of 12 into rank-local halves of a
        // differently laid out vector of 12 (sizes [12, 0, 0]).
        let out = with_n(3, |comm| {
            let src_layout = Layout::balanced(12, comm.size());
            let dst_layout = Layout::from_local_sizes(&[12, 0, 0]);
            let x = iota_vec(comm, src_layout.clone());
            let mut y = PVec::zeros(dst_layout.clone(), comm.rank());
            let (s, e) = src_layout.range(comm.rank());
            let src = IndexSet::stride(s, 1, e - s);
            let dst = IndexSet::stride(s, 1, e - s); // same global index, dst side
            let plan = VecScatter::create(comm, src_layout, &src, dst_layout, &dst);
            plan.apply(comm, &x, &mut y, ScatterBackend::Datatype);
            y.local().to_vec()
        });
        assert_eq!(out[0], (0..12).map(|g| g as f64).collect::<Vec<_>>());
        assert!(out[1].is_empty());
    }

    #[test]
    fn plan_stats_are_consistent() {
        let out = with_n(4, |comm| {
            let n = 32;
            let layout = Layout::balanced(n, comm.size());
            let (s, e) = layout.range(comm.rank());
            let src = IndexSet::stride(s, 1, e - s);
            let dst = IndexSet::general((s..e).map(|g| (g * 5 + 2) % n).collect::<Vec<_>>());
            let plan = VecScatter::create(comm, layout.clone(), &src, layout, &dst);
            (
                plan.local_elems() + plan.remote_send_elems(),
                plan.remote_recv_elems(),
            )
        });
        // Every rank routed all 8 of its pairs somewhere.
        let total_sent: usize = out.iter().map(|(s, _)| s).sum();
        let total_recv: usize = out.iter().map(|(_, r)| r).sum();
        assert_eq!(total_sent, 32);
        // Received = sent minus purely local ones; both totals cover 32
        // destinations overall.
        assert!(total_recv <= 32);
    }

    #[test]
    fn backends_agree_under_both_flavors() {
        for cfg in [MpiConfig::baseline(), MpiConfig::optimized()] {
            let out = Cluster::new(ClusterConfig::uniform(4)).run(move |rank| {
                let mut comm = Comm::new(rank, cfg.clone());
                let n = 24;
                let layout = Layout::balanced(n, comm.size());
                let x = iota_vec(&comm, layout.clone());
                let (s, e) = layout.range(comm.rank());
                let src = IndexSet::stride(s, 1, e - s);
                let dst = IndexSet::general((s..e).map(|g| (g * 11 + 5) % n).collect::<Vec<_>>());
                let plan =
                    VecScatter::create(&mut comm, layout.clone(), &src, layout.clone(), &dst);
                let mut y1 = PVec::zeros(layout.clone(), comm.rank());
                let mut y2 = PVec::zeros(layout.clone(), comm.rank());
                plan.apply(&mut comm, &x, &mut y1, ScatterBackend::HandTuned);
                plan.apply(&mut comm, &x, &mut y2, ScatterBackend::Datatype);
                (y1.local().to_vec(), y2.local().to_vec())
            });
            for (a, b) in &out {
                assert_eq!(a, b);
            }
        }
    }

    /// The (g -> (g*7+3) mod n) permutation plan: on 4 ranks every rank has
    /// remote peers on both sides.
    fn perm_plan(comm: &mut Comm, n: usize) -> (VecScatter, Arc<Layout>) {
        let layout = Layout::balanced(n, comm.size());
        let (s, e) = layout.range(comm.rank());
        let src = IndexSet::stride(s, 1, e - s);
        let dst = IndexSet::general((s..e).map(|g| (g * 7 + 3) % n).collect::<Vec<_>>());
        let plan = VecScatter::create(comm, layout.clone(), &src, layout.clone(), &dst);
        (plan, layout)
    }

    #[test]
    fn split_scatter_is_metered_and_staged() {
        let observers = Observers {
            metrics: true,
            profile: true,
            ..Observers::NONE
        };
        let cluster = Cluster::new(ClusterConfig::uniform(4).observe(observers));
        let (packed, capture) = cluster
            .try_run(|rank| {
                let mut comm = Comm::new(rank, MpiConfig::optimized());
                let (plan, layout) = perm_plan(&mut comm, 24);
                let x = iota_vec(&comm, layout.clone());
                let mut y = PVec::zeros(layout.clone(), comm.rank());
                let h = plan.begin(&mut comm, &x, &mut y, ScatterBackend::Datatype);
                assert_eq!(h.pending_ops(), 0, "one alltoallw, completed in begin");
                plan.end(&mut comm, h, &mut y);
                // y[perm(g)] = g: slot h holds perm⁻¹(h) = 7⁻¹·(h − 3) mod 24.
                let (s, e) = layout.range(comm.rank());
                let expect: Vec<f64> = (s..e).map(|h| ((h + 21) * 7 % 24) as f64).collect();
                assert_eq!(y.local(), expect);

                let metrics = comm.rank_mut().metrics_mut().expect("metered");
                assert_eq!(metrics.counter("scatter", "begin", "datatype"), 1);
                // Bytes are counted on the source side.
                let packed = 8 * (plan.remote_send_elems() + plan.local_elems()) as u64;
                let bytes = metrics.histogram("scatter", "bytes", "datatype");
                assert_eq!(bytes.map(|h| h.sum()), Some(packed));
                packed
            })
            .unwrap();
        let metrics = capture.metrics.expect("metered");
        assert_eq!(metrics.counter("scatter", "begin", "datatype"), 4);
        let bytes = metrics.histogram("scatter", "bytes", "datatype");
        assert_eq!(bytes.map(|h| h.sum()), Some(packed.iter().sum()));
        for profile in capture.profiles.expect("profiled") {
            assert!(profile.stage(STAGE_SCATTER_BEGIN).is_some());
            assert!(profile.stage(STAGE_SCATTER_END).is_some());
        }
    }

    #[test]
    fn a_destination_named_twice_is_refused_by_name() {
        let out = Cluster::new(ClusterConfig::uniform(2)).try_run(|rank| {
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            let layout = Layout::balanced(4, comm.size());
            // Each rank sends its first owned value to global slot 3, which
            // rank 1 owns: one pair arrives from rank 0, one stays local.
            let src = IndexSet::general(vec![2 * comm.rank()]);
            let dst = IndexSet::general(vec![3]);
            VecScatter::create(&mut comm, layout.clone(), &src, layout, &dst);
        });
        let err = out.results.expect_err("a repeated destination is refused");
        let msg = err.to_string();
        let named = "scatter destination 3 is named by more than one pair: \
                     rank 1 would receive it from ranks [1, 0]";
        assert!(msg.contains(named), "{msg}");
    }

    /// Rank 0 owes rank 1 four values and sends `bad` in their place:
    /// rank 1's panic message from `end`, and its vector afterwards.
    fn end_on_payload(bad: &'static [u8]) -> (String, Vec<f64>) {
        let mut out = with_n(2, move |comm| {
            let layout = Layout::balanced(8, comm.size());
            let pairs = if comm.rank() == 0 { 4 } else { 0 };
            let (src, dst) = (IndexSet::stride(0, 1, pairs), IndexSet::stride(4, 1, pairs));
            let plan = VecScatter::create(comm, layout.clone(), &src, layout.clone(), &dst);
            if comm.rank() == 0 {
                comm.rank_mut().send_bytes(1, DATA_TAG, bad.to_vec());
                return None;
            }
            let x = iota_vec(comm, layout.clone());
            let mut y = PVec::from_local(layout, comm.rank(), vec![-1.0; 4]);
            let h = plan.begin(comm, &x, &mut y, ScatterBackend::HandTuned);
            let end = std::panic::AssertUnwindSafe(|| plan.end(comm, h, &mut y));
            let panic = std::panic::catch_unwind(end).expect_err("a bad payload is refused");
            let msg = panic.downcast::<String>().expect("a formatted message");
            Some((*msg, y.local().to_vec()))
        });
        out.remove(1).expect("rank 1 reports")
    }

    #[test]
    fn ragged_payload_is_named_and_nothing_is_stored() {
        let (msg, y) = end_on_payload(&[0u8; 31]);
        let named = "scatter payload mismatch: rank 1 expected 32 bytes from rank 0, got 31";
        assert!(msg.contains(named), "{msg}");
        assert_eq!(y, [-1.0; 4]);
    }

    #[test]
    fn short_payload_is_named_and_nothing_is_stored() {
        let (msg, y) = end_on_payload(&[0u8; 24]);
        let named = "scatter payload mismatch: rank 1 expected 32 bytes from rank 0, got 24";
        assert!(msg.contains(named), "{msg}");
        assert_eq!(y, [-1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "scatter destination layout mismatch")]
    fn ending_into_a_vector_of_the_wrong_layout_panics_by_name() {
        with_n(4, |comm| {
            let (plan, layout) = perm_plan(comm, 24);
            let x = iota_vec(comm, layout.clone());
            let mut y = PVec::zeros(layout, comm.rank());
            let h = plan.begin(comm, &x, &mut y, ScatterBackend::HandTuned);
            let mut other = PVec::zeros(Layout::balanced(25, comm.size()), comm.rank());
            comm.barrier(); // every rank reaches its own panic
            plan.end(comm, h, &mut other);
        });
    }

    #[test]
    #[should_panic(expected = "receive requests but this plan unpacks from 0 peers")]
    fn ending_on_a_different_plan_panics_by_name() {
        with_n(4, |comm| {
            let (plan, layout) = perm_plan(comm, 24);
            let (s, e) = layout.range(comm.rank());
            let own = IndexSet::stride(s, 1, e - s);
            let identity = VecScatter::create(comm, layout.clone(), &own, layout.clone(), &own);
            let x = iota_vec(comm, layout.clone());
            let mut y = PVec::zeros(layout, comm.rank());
            let h = plan.begin(comm, &x, &mut y, ScatterBackend::HandTuned);
            comm.barrier(); // every rank reaches its own panic
            identity.end(comm, h, &mut y);
        });
    }
}
