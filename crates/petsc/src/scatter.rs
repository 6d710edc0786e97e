//! `VecScatter`: general gather/scatter between distributed vectors.
//!
//! A scatter is created from positional pairs of global indices — value at
//! `src[k]` of vector X goes to `dst[k]` of vector Y — and compiled into a
//! communication plan. Execution offers the two strategies the paper's
//! §5.4 compares:
//!
//! * [`ScatterBackend::HandTuned`] — PETSc's historical default: explicit
//!   packing of each peer's values into a contiguous buffer, individual
//!   sends/receives, explicit unpacking. Fast, but the packing and
//!   communication pattern live inside the library.
//! * [`ScatterBackend::Datatype`] — build an MPI derived datatype
//!   (hindexed over the vector's storage, runs of consecutive indices
//!   coalesced) per peer at plan-creation time and execute the whole
//!   scatter as **one `MPI_Alltoallw`**. Simpler library code; performance
//!   now depends entirely on how well the MPI layer handles noncontiguous
//!   data and nonuniform volumes — which is exactly what the paper's
//!   optimizations fix. Run it over a `Baseline` communicator to reproduce
//!   the "MVAPICH2-0.9.5" series and over an `Optimized` one for
//!   "MVAPICH2-New".

use std::sync::Arc;

use ncd_core::{bytes_to_f64s, f64s_to_bytes, Comm, Request, WPeer};
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
const REVERSE_DATA_TAG: Tag = Tag(0x4000_0011);

#[derive(Clone, Debug)]
struct SendSpec {
    peer: usize,
    /// Local offsets into the source vector, in transfer order.
    src_offsets: Vec<usize>,
    /// Number of coalesced contiguous runs in `src_offsets`.
    runs: u64,
}

#[derive(Clone, Debug)]
struct RecvSpec {
    peer: usize,
    /// Local offsets into the destination vector, in transfer order.
    dst_offsets: Vec<usize>,
    runs: u64,
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

/// An in-flight scatter: returned by [`VecScatter::begin`], consumed by
/// [`VecScatter::end`]. Holds the outstanding send/receive requests; the
/// receive requests are parallel to the plan's receive specs so `end` can
/// route each arriving payload to its unpack offsets.
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

/// A compiled scatter plan between two layouts.
pub struct VecScatter {
    src_layout: Arc<Layout>,
    dst_layout: Arc<Layout>,
    /// (src local offset, dst local offset) pairs staying on this rank.
    local_pairs: Vec<(usize, usize)>,
    local_runs: u64,
    sends: Vec<SendSpec>,
    recvs: Vec<RecvSpec>,
    /// Prebuilt per-rank alltoallw slots (offset 0 into the local array's
    /// byte image; the self slot carries the local pairs).
    send_types: Vec<WPeer>,
    recv_types: Vec<WPeer>,
}

impl VecScatter {
    /// An empty scatter between zero-length layouts (placeholder during
    /// two-phase construction of objects that own a scatter).
    pub(crate) fn trivial() -> VecScatter {
        let l = Layout::balanced(0, 1);
        let empty = Datatype::contiguous(0, &Datatype::double()).expect("empty type");
        VecScatter {
            src_layout: l.clone(),
            dst_layout: l,
            local_pairs: Vec::new(),
            local_runs: 0,
            sends: Vec::new(),
            recvs: Vec::new(),
            send_types: vec![WPeer::new(0, 0, empty.clone())],
            recv_types: vec![WPeer::new(0, 0, empty)],
        }
    }

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
        comm.allgather(&(needed.len() as u64).to_le_bytes(), &mut counts);
        let sizes: Vec<usize> = bytes_to_u64s(&counts)
            .into_iter()
            .map(|c| c as usize)
            .collect();
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
    /// routed to the owner of the source index internally). Destination
    /// indices must be globally unique for well-defined results.
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
        let mut outgoing: Vec<Vec<(u64, u64)>> = vec![Vec::new(); size];
        for k in 0..src_is.len() {
            let sg = src_is.get(k);
            let dg = dst_is.get(k);
            outgoing[src_layout.owner(sg)].push((sg as u64, dg as u64));
        }
        let mut my_pairs: Vec<(u64, u64)> = std::mem::take(&mut outgoing[rank]);
        let counts: Vec<u64> = outgoing.iter().map(|v| v.len() as u64).collect();
        let all_counts = exchange_counts(comm, &counts);
        for (peer, pairs) in outgoing.iter().enumerate() {
            if peer != rank && !pairs.is_empty() {
                comm.send_grp(peer, SETUP_PAIRS_TAG, pairs_to_bytes(pairs));
            }
        }
        for (peer, &cnt) in all_counts.iter().enumerate() {
            if peer != rank && cnt > 0 {
                let (bytes, _) = comm.recv_grp(Some(peer), SETUP_PAIRS_TAG);
                my_pairs.extend(bytes_to_pairs(&bytes));
            }
        }

        // Phase 2: with all sources local, split by destination owner.
        // Deterministic transfer order: sorted by destination global index.
        my_pairs.sort_unstable_by_key(|&(_, dg)| dg);
        let (my_src_start, _) = src_layout.range(rank);
        let (my_dst_start, _) = dst_layout.range(rank);
        let mut local_pairs = Vec::new();
        let mut per_dest: Vec<Vec<(u64, u64)>> = vec![Vec::new(); size];
        for &(sg, dg) in &my_pairs {
            let owner = dst_layout.owner(dg as usize);
            if owner == rank {
                local_pairs.push((sg as usize - my_src_start, dg as usize - my_dst_start));
            } else {
                per_dest[owner].push((sg, dg));
            }
        }

        // Phase 3: tell each destination which of its entries we will fill,
        // in the transfer order; build our send specs in the same order.
        let dest_counts: Vec<u64> = per_dest.iter().map(|v| v.len() as u64).collect();
        let all_dest_counts = exchange_counts(comm, &dest_counts);
        let mut sends = Vec::new();
        for (peer, pairs) in per_dest.iter().enumerate() {
            if pairs.is_empty() {
                continue;
            }
            let dsts: Vec<u64> = pairs.iter().map(|&(_, dg)| dg).collect();
            comm.send_grp(peer, SETUP_DSTS_TAG, u64s_to_bytes(&dsts));
            let src_offsets: Vec<usize> = pairs
                .iter()
                .map(|&(sg, _)| sg as usize - my_src_start)
                .collect();
            let runs = count_runs(&src_offsets);
            sends.push(SendSpec {
                peer,
                src_offsets,
                runs,
            });
        }
        let mut recvs = Vec::new();
        for (peer, &cnt) in all_dest_counts.iter().enumerate() {
            if peer != rank && cnt > 0 {
                let (bytes, _) = comm.recv_grp(Some(peer), SETUP_DSTS_TAG);
                let dst_offsets: Vec<usize> = bytes_to_u64s(&bytes)
                    .into_iter()
                    .map(|dg| dg as usize - my_dst_start)
                    .collect();
                let runs = count_runs(&dst_offsets);
                recvs.push(RecvSpec {
                    peer,
                    dst_offsets,
                    runs,
                });
            }
        }

        // Phase 4: prebuild the alltoallw slots (the Datatype backend's
        // plan). The self slot carries the purely local pairs.
        let empty = Datatype::contiguous(0, &Datatype::double()).expect("empty type");
        let mut send_types: Vec<WPeer> =
            (0..size).map(|_| WPeer::new(0, 0, empty.clone())).collect();
        let mut recv_types = send_types.clone();
        for s in &sends {
            let dt = hindexed_from_f64_indices(&s.src_offsets).expect("send datatype");
            send_types[s.peer] = WPeer::new(0, 1, dt);
        }
        for r in &recvs {
            let dt = hindexed_from_f64_indices(&r.dst_offsets).expect("recv datatype");
            recv_types[r.peer] = WPeer::new(0, 1, dt);
        }
        if !local_pairs.is_empty() {
            let src_off: Vec<usize> = local_pairs.iter().map(|&(s, _)| s).collect();
            let dst_off: Vec<usize> = local_pairs.iter().map(|&(_, d)| d).collect();
            send_types[rank] = WPeer::new(
                0,
                1,
                hindexed_from_f64_indices(&src_off).expect("self send type"),
            );
            recv_types[rank] = WPeer::new(
                0,
                1,
                hindexed_from_f64_indices(&dst_off).expect("self recv type"),
            );
        }
        let local_runs = count_runs(&local_pairs.iter().map(|&(s, _)| s).collect::<Vec<_>>());

        VecScatter {
            src_layout,
            dst_layout,
            local_pairs,
            local_runs,
            sends,
            recvs,
            send_types,
            recv_types,
        }
    }

    /// Total elements this rank sends to remote ranks.
    pub fn remote_send_elems(&self) -> usize {
        self.sends.iter().map(|s| s.src_offsets.len()).sum()
    }

    /// Total elements this rank receives from remote ranks.
    pub fn remote_recv_elems(&self) -> usize {
        self.recvs.iter().map(|r| r.dst_offsets.len()).sum()
    }

    /// Elements handled by pure local copy.
    pub fn local_elems(&self) -> usize {
        self.local_pairs.len()
    }

    /// Number of remote peers this rank communicates with.
    pub fn num_neighbors(&self) -> usize {
        self.sends.len().max(self.recvs.len())
    }

    /// Execute the scatter: `y[dst[k]] = x[src[k]]` for every pair.
    ///
    /// Equivalent to [`VecScatter::begin`] immediately followed by
    /// [`VecScatter::end`] — use the split form to overlap computation
    /// with the ghost traffic.
    pub fn apply(&self, comm: &mut Comm, x: &PVec, y: &mut PVec, backend: ScatterBackend) {
        self.record_apply_metrics(comm, backend, "apply");
        comm.rank_mut().stage_begin(STAGE_SCATTER_APPLY);
        let handle = self.begin_inner(comm, x, y, backend);
        self.end_inner(comm, handle, y);
        comm.rank_mut().stage_end(STAGE_SCATTER_APPLY);
    }

    /// Initiate the scatter (PETSc's `VecScatterBegin`): local copies are
    /// done, sends are initiated, receives are posted — but nothing waits.
    /// Values headed to remote ranks are captured from `x` here, so `x`
    /// may be reused immediately; `y`'s remote-filled entries are undefined
    /// until [`VecScatter::end`].
    ///
    /// With [`ScatterBackend::HandTuned`] the communication is genuinely in
    /// flight while the caller computes. The [`ScatterBackend::Datatype`]
    /// backend is a single collective `alltoallw` with no split form — it
    /// completes inside `begin` and `end` is a no-op, mirroring how the
    /// datatype path trades library control for MPI-internal scheduling.
    pub fn begin(
        &self,
        comm: &mut Comm,
        x: &PVec,
        y: &mut PVec,
        backend: ScatterBackend,
    ) -> ScatterHandle {
        self.record_apply_metrics(comm, backend, "begin");
        comm.rank_mut().stage_begin(STAGE_SCATTER_BEGIN);
        let handle = self.begin_inner(comm, x, y, backend);
        comm.rank_mut().stage_end(STAGE_SCATTER_BEGIN);
        handle
    }

    /// Complete a scatter started with [`VecScatter::begin`]: unpack
    /// inbound messages (in arrival order) into `y` and drain the sends,
    /// charging only wait time the caller's compute did not hide.
    pub fn end(&self, comm: &mut Comm, handle: ScatterHandle, y: &mut PVec) {
        comm.rank_mut().stage_begin(STAGE_SCATTER_END);
        self.end_inner(comm, handle, y);
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

    fn begin_inner(
        &self,
        comm: &mut Comm,
        x: &PVec,
        y: &mut PVec,
        backend: ScatterBackend,
    ) -> ScatterHandle {
        assert_eq!(x.layout(), &self.src_layout, "x layout mismatch");
        assert_eq!(y.layout(), &self.dst_layout, "y layout mismatch");
        match backend {
            ScatterBackend::HandTuned => self.begin_hand_tuned(comm, x, y),
            ScatterBackend::Datatype => {
                self.apply_datatype(comm, x, y);
                ScatterHandle {
                    send_reqs: Vec::new(),
                    recv_reqs: Vec::new(),
                }
            }
        }
    }

    fn end_inner(&self, comm: &mut Comm, handle: ScatterHandle, y: &mut PVec) {
        let ScatterHandle {
            send_reqs,
            mut recv_reqs,
        } = handle;
        let charge_indexed = |comm: &mut Comm, bytes: usize, runs: u64| {
            let ns = comm.rank_ref().cost_model().indexed_copy_ns(bytes, runs);
            comm.rank_mut().charge_cpu(CostKind::Pack, ns);
        };
        // Unpack inbound messages as they arrive, not in plan order: a
        // late neighbour never blocks delivery of messages already here.
        while recv_reqs.iter().any(|r| !r.is_done()) {
            let (idx, completion) = comm.waitany(&mut recv_reqs);
            let (bytes, _) = completion.into_recv();
            let r = &self.recvs[idx];
            let vals = bytes_to_f64s(&bytes);
            assert_eq!(vals.len(), r.dst_offsets.len(), "scatter payload mismatch");
            for (&off, &v) in r.dst_offsets.iter().zip(&vals) {
                y.local_mut()[off] = v;
            }
            charge_indexed(comm, 8 * vals.len(), r.runs);
        }
        // Drain the sends: charge whatever wire time was not hidden.
        comm.waitall(send_reqs);
    }

    fn begin_hand_tuned(&self, comm: &mut Comm, x: &PVec, y: &mut PVec) -> ScatterHandle {
        // Hand-tuned packing copies coalesced runs with a loop specialized
        // at compile time — cheaper per run than the datatype engine's
        // interpreted segment processing. Charge it accordingly.
        let charge_indexed = |comm: &mut Comm, bytes: usize, runs: u64| {
            let ns = comm.rank_ref().cost_model().indexed_copy_ns(bytes, runs);
            comm.rank_mut().charge_cpu(CostKind::Pack, ns);
        };
        // Post every receive before any packing starts.
        let recv_reqs: Vec<Request> = self
            .recvs
            .iter()
            .map(|r| comm.irecv(Some(r.peer), DATA_TAG))
            .collect();
        // Local copies.
        if !self.local_pairs.is_empty() {
            for &(s, d) in &self.local_pairs {
                y.local_mut()[d] = x.local()[s];
            }
            charge_indexed(comm, 8 * self.local_pairs.len(), self.local_runs);
        }
        // Pack and initiate all sends; each message's wire time runs on
        // the NIC while the next one is packed.
        let dt = Datatype::double();
        let mut send_reqs = Vec::with_capacity(self.sends.len());
        for s in &self.sends {
            let mut buf = Vec::with_capacity(s.src_offsets.len());
            for &off in &s.src_offsets {
                buf.push(x.local()[off]);
            }
            charge_indexed(comm, 8 * buf.len(), s.runs);
            let bytes = f64s_to_bytes(&buf);
            send_reqs.push(comm.isend(&bytes, &dt, buf.len(), s.peer, DATA_TAG));
        }
        ScatterHandle {
            send_reqs,
            recv_reqs,
        }
    }

    fn apply_datatype(&self, comm: &mut Comm, x: &PVec, y: &mut PVec) {
        // Byte images of the local arrays (representation shims for the
        // byte-oriented MPI layer; not charged — real MPI reads user memory
        // in place).
        let sendbuf = f64s_to_bytes(x.local());
        let mut recvbuf = f64s_to_bytes(y.local());
        comm.alltoallw(&sendbuf, &self.send_types, &mut recvbuf, &self.recv_types);
        let vals = bytes_to_f64s(&recvbuf);
        y.local_mut().copy_from_slice(&vals);
    }

    /// Execute the scatter **in reverse**: `x[src[k]] op= y[dst[k]]` — the
    /// `SCATTER_REVERSE` of PETSc, used e.g. to accumulate ghost-region
    /// contributions back into owners. `mode` selects insertion or
    /// accumulation; with [`InsertMode::Add`], source indices that appear
    /// in several pairs accumulate all their destinations' values.
    ///
    /// The reverse direction reuses the forward plan with the roles of the
    /// send/receive specs swapped, so it costs the same communication.
    pub fn apply_reverse(
        &self,
        comm: &mut Comm,
        y: &PVec,
        x: &mut PVec,
        backend: ScatterBackend,
        mode: InsertMode,
    ) {
        assert_eq!(y.layout(), &self.dst_layout, "y layout mismatch");
        assert_eq!(x.layout(), &self.src_layout, "x layout mismatch");
        let charge_indexed = |comm: &mut Comm, bytes: usize, runs: u64| {
            let ns = comm.rank_ref().cost_model().indexed_copy_ns(bytes, runs);
            comm.rank_mut().charge_cpu(CostKind::Pack, ns);
        };
        let store = |slot: &mut f64, v: f64| match mode {
            InsertMode::Insert => *slot = v,
            InsertMode::Add => *slot += v,
        };
        // Local pairs, reversed.
        if !self.local_pairs.is_empty() {
            for &(s, d) in &self.local_pairs {
                store(&mut x.local_mut()[s], y.local()[d]);
            }
            charge_indexed(comm, 8 * self.local_pairs.len(), self.local_runs);
        }
        // Forward recv specs become reverse sends: gather from y's dst
        // offsets and ship back to the peer that originally sent them.
        for r in &self.recvs {
            let mut buf = Vec::with_capacity(r.dst_offsets.len());
            for &off in &r.dst_offsets {
                buf.push(y.local()[off]);
            }
            charge_indexed(comm, 8 * buf.len(), r.runs);
            comm.send_grp(r.peer, REVERSE_DATA_TAG, f64s_to_bytes(&buf));
        }
        // Forward send specs become reverse receives into x's src offsets.
        for s in &self.sends {
            let (bytes, _) = comm.recv_grp(Some(s.peer), REVERSE_DATA_TAG);
            let vals = bytes_to_f64s(&bytes);
            assert_eq!(vals.len(), s.src_offsets.len(), "reverse payload mismatch");
            for (&off, &v) in s.src_offsets.iter().zip(&vals) {
                store(&mut x.local_mut()[off], v);
            }
            charge_indexed(comm, 8 * vals.len(), s.runs);
        }
        // The reverse path always runs the hand-tuned machinery: with Add
        // semantics the receive must land in an intermediate buffer before
        // the accumulation, which is exactly what explicit packing does.
        // (The backend parameter is accepted for API symmetry; the
        // communication volume is identical either way.)
        let _ = backend;
    }

    /// Forward scatter with an explicit insert mode: like [`VecScatter::apply`]
    /// but `y[dst[k]] op= x[src[k]]`.
    pub fn apply_mode(
        &self,
        comm: &mut Comm,
        x: &PVec,
        y: &mut PVec,
        backend: ScatterBackend,
        mode: InsertMode,
    ) {
        match mode {
            InsertMode::Insert => self.apply(comm, x, y, backend),
            InsertMode::Add => {
                assert_eq!(x.layout(), &self.src_layout, "x layout mismatch");
                assert_eq!(y.layout(), &self.dst_layout, "y layout mismatch");
                let charge_indexed = |comm: &mut Comm, bytes: usize, runs: u64| {
                    let ns = comm.rank_ref().cost_model().indexed_copy_ns(bytes, runs);
                    comm.rank_mut().charge_cpu(CostKind::Pack, ns);
                };
                if !self.local_pairs.is_empty() {
                    for &(s, d) in &self.local_pairs {
                        y.local_mut()[d] += x.local()[s];
                    }
                    charge_indexed(comm, 8 * self.local_pairs.len(), self.local_runs);
                }
                for s in &self.sends {
                    let mut buf = Vec::with_capacity(s.src_offsets.len());
                    for &off in &s.src_offsets {
                        buf.push(x.local()[off]);
                    }
                    charge_indexed(comm, 8 * buf.len(), s.runs);
                    comm.send_grp(s.peer, DATA_TAG, f64s_to_bytes(&buf));
                }
                for r in &self.recvs {
                    let (bytes, _) = comm.recv_grp(Some(r.peer), DATA_TAG);
                    let vals = bytes_to_f64s(&bytes);
                    assert_eq!(vals.len(), r.dst_offsets.len(), "scatter payload mismatch");
                    for (&off, &v) in r.dst_offsets.iter().zip(&vals) {
                        y.local_mut()[off] += v;
                    }
                    charge_indexed(comm, 8 * vals.len(), r.runs);
                }
                let _ = backend;
            }
        }
    }
}

/// How scattered values combine with the destination (PETSc's InsertMode).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertMode {
    /// Overwrite the destination slot.
    Insert,
    /// Accumulate into the destination slot.
    Add,
}

fn pairs_to_bytes(pairs: &[(u64, u64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(pairs.len() * 16);
    for &(a, b) in pairs {
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
    }
    out
}

fn bytes_to_pairs(bytes: &[u8]) -> Vec<(u64, u64)> {
    assert_eq!(bytes.len() % 16, 0);
    bytes
        .chunks_exact(16)
        .map(|c| {
            (
                u64::from_le_bytes(c[..8].try_into().expect("8 bytes")),
                u64::from_le_bytes(c[8..].try_into().expect("8 bytes")),
            )
        })
        .collect()
}

fn u64s_to_bytes(v: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn bytes_to_u64s(bytes: &[u8]) -> Vec<u64> {
    assert_eq!(bytes.len() % 8, 0);
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect()
}

/// Exchange per-peer counts: returns how many each peer has for me.
fn exchange_counts(comm: &mut Comm, counts: &[u64]) -> Vec<u64> {
    let send = u64s_to_bytes(counts);
    let recv = comm.alltoall(&send, 8);
    bytes_to_u64s(&recv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncd_core::MpiConfig;
    use ncd_simnet::{Cluster, ClusterConfig};

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
}

#[cfg(test)]
mod reverse_tests {
    use super::*;
    use ncd_core::MpiConfig;
    use ncd_simnet::{Cluster, ClusterConfig};

    fn with_n<R: Send>(n: usize, f: impl Fn(&mut Comm) -> R + Send + Sync) -> Vec<R> {
        Cluster::new(ClusterConfig::uniform(n)).run(move |rank| {
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            f(&mut comm)
        })
    }

    /// Build the (g -> (g*7+3) mod n) permutation plan used by several tests.
    fn perm_plan(comm: &mut Comm, n: usize) -> (VecScatter, Arc<Layout>) {
        let layout = Layout::balanced(n, comm.size());
        let (s, e) = layout.range(comm.rank());
        let src = IndexSet::stride(s, 1, e - s);
        let dst = IndexSet::general((s..e).map(|g| (g * 7 + 3) % n).collect::<Vec<_>>());
        let plan = VecScatter::create(comm, layout.clone(), &src, layout.clone(), &dst);
        (plan, layout)
    }

    #[test]
    fn forward_then_reverse_round_trips() {
        let out = with_n(4, |comm| {
            let n = 24;
            let (plan, layout) = perm_plan(comm, n);
            let (s, e) = layout.range(comm.rank());
            let x = PVec::from_local(
                layout.clone(),
                comm.rank(),
                (s..e).map(|g| (g * 3 + 1) as f64).collect(),
            );
            let mut y = PVec::zeros(layout.clone(), comm.rank());
            plan.apply(comm, &x, &mut y, ScatterBackend::HandTuned);
            let mut x2 = PVec::zeros(layout, comm.rank());
            plan.apply_reverse(
                comm,
                &y,
                &mut x2,
                ScatterBackend::HandTuned,
                InsertMode::Insert,
            );
            // The permutation is total, so the reverse restores x exactly.
            assert_eq!(x.local(), x2.local());
            true
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn reverse_add_accumulates() {
        // Many sources fan into overlapping destinations via duplicate src
        // indices: reverse-Add must sum the pulled-back values.
        let out = with_n(3, |comm| {
            let n = 9;
            let layout = Layout::balanced(n, comm.size());
            // Every rank maps global 0 -> its own first destination slot.
            let (s, _) = layout.range(comm.rank());
            let plan = VecScatter::create(
                comm,
                layout.clone(),
                &IndexSet::general(vec![0]),
                layout.clone(),
                &IndexSet::general(vec![s]),
            );
            let mut y = PVec::zeros(layout.clone(), comm.rank());
            y.local_mut()[0] = (comm.rank() + 1) as f64; // slot s holds rank+1
            let mut x = PVec::zeros(layout, comm.rank());
            plan.apply_reverse(comm, &y, &mut x, ScatterBackend::HandTuned, InsertMode::Add);
            x.local().to_vec()
        });
        // x[0] accumulates 1 + 2 + 3 = 6; everything else untouched.
        assert_eq!(out[0][0], 6.0);
        assert!(out[0][1..].iter().all(|&v| v == 0.0));
        assert!(out[1].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn forward_add_accumulates_on_top() {
        let out = with_n(2, |comm| {
            let n = 8;
            let (plan, layout) = perm_plan(comm, n);
            let (s, e) = layout.range(comm.rank());
            let x = PVec::from_local(
                layout.clone(),
                comm.rank(),
                (s..e).map(|g| g as f64).collect(),
            );
            let mut y = PVec::zeros(layout, comm.rank());
            y.set_all(100.0);
            plan.apply_mode(comm, &x, &mut y, ScatterBackend::HandTuned, InsertMode::Add);
            y.local().to_vec()
        });
        let y_global: Vec<f64> = out.into_iter().flatten().collect();
        for g in 0..8 {
            assert_eq!(y_global[(g * 7 + 3) % 8], 100.0 + g as f64);
        }
    }

    #[test]
    fn reverse_matches_forward_inverse_plan() {
        // reverse(plan) must equal forward of the inverted pair list.
        let out = with_n(4, |comm| {
            let n = 20;
            let (plan, layout) = perm_plan(comm, n);
            let (s, e) = layout.range(comm.rank());
            let y = PVec::from_local(
                layout.clone(),
                comm.rank(),
                (s..e).map(|g| (g * g) as f64).collect(),
            );
            let mut x_rev = PVec::zeros(layout.clone(), comm.rank());
            plan.apply_reverse(
                comm,
                &y,
                &mut x_rev,
                ScatterBackend::HandTuned,
                InsertMode::Insert,
            );

            // Inverse plan: src = perm(g), dst = g.
            let inv_src = IndexSet::general((s..e).map(|g| (g * 7 + 3) % n).collect::<Vec<_>>());
            let inv_dst = IndexSet::stride(s, 1, e - s);
            let inv = VecScatter::create(comm, layout.clone(), &inv_src, layout.clone(), &inv_dst);
            let mut x_fwd = PVec::zeros(layout, comm.rank());
            inv.apply(comm, &y, &mut x_fwd, ScatterBackend::HandTuned);
            assert_eq!(x_rev.local(), x_fwd.local());
            true
        });
        assert!(out.iter().all(|&b| b));
    }
}
