//! Distributed arrays (`DMDA` in PETSc): structured 1-D/2-D/3-D grids
//! partitioned over a process grid, with ghost-point exchange.
//!
//! A [`DistributedArray`] owns two shapes of vector:
//!
//! * the **global vector** — each rank's owned subdomain, stored
//!   x-fastest, subdomains concatenated in rank order (PETSc ordering);
//! * the **local vector** — the owned subdomain *plus* a ghost frame of
//!   `width` points (clipped at physical boundaries; the grid is
//!   non-periodic), where the ghost values live after a
//!   [`DistributedArray::global_to_local`] update.
//!
//! The ghost update is compiled into a [`VecScatter`], so it runs over any
//! of the scatter backends — hand-tuned packing or derived datatypes +
//! `MPI_Alltoallw` — which is precisely the communication structure the
//! paper's §5.4/§5.5 experiments exercise.
//!
//! The stencil kind (paper Figure 3) decides which ghost points are
//! exchanged: a *star* stencil needs only face-adjacent ghost regions, a
//! *box* stencil needs edges and corners too; the communication volume per
//! neighbour is then inherently nonuniform (faces ≫ edges ≫ corners).

use std::sync::Arc;

use ncd_core::Comm;

use crate::is::IndexSet;
use crate::layout::Layout;
use crate::scatter::{ScatterBackend, ScatterHandle, VecScatter};
use crate::vec::PVec;

/// Discretization stencil shape (paper Figure 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StencilKind {
    /// Face neighbours only (e.g. the 7-point Laplacian in 3-D).
    Star,
    /// Faces, edges and corners (e.g. 27-point stencils).
    Box,
}

/// A structured-grid distributed array: the partition geometry plus the
/// ghost-exchange plan compiled from it.
pub struct DistributedArray {
    geom: Geometry,
    ghost_scatter: VecScatter,
}

/// Everything about a [`DistributedArray`] that each rank computes
/// symbolically, without communication.
struct Geometry {
    ndim: usize,
    dims: [usize; 3],
    dof: usize,
    stencil: StencilKind,
    width: usize,
    pgrid: [usize; 3],
    /// How each dimension's points split over its process coordinates.
    axes: [Axis; 3],
    own_start: [usize; 3],
    own_len: [usize; 3],
    gh_start: [usize; 3],
    gh_len: [usize; 3],
    global_layout: Arc<Layout>,
    local_layout: Arc<Layout>,
    rank: usize,
}

/// Balanced factorization of `p` ranks over `ndim` dimensions of the given
/// sizes, minimizing the total subdomain surface (communication volume).
fn factor_process_grid(p: usize, dims: &[usize; 3], ndim: usize) -> [usize; 3] {
    let mut best = [p, 1, 1];
    let mut best_surface = f64::INFINITY;
    let mut consider = |px: usize, py: usize, pz: usize| {
        if ndim < 3 && pz != 1 {
            return;
        }
        if ndim < 2 && py != 1 {
            return;
        }
        let lx = dims[0] as f64 / px as f64;
        let ly = dims[1] as f64 / py as f64;
        let lz = dims[2] as f64 / pz as f64;
        if lx < 1.0 || ly < 1.0 || lz < 1.0 {
            return;
        }
        // Total cut area over the whole grid: (p_d - 1) planes, each of the
        // grid's cross-section normal to d.
        let surface = (px - 1) as f64 * (dims[1] * dims[2]) as f64
            + (py - 1) as f64 * (dims[0] * dims[2]) as f64
            + (pz - 1) as f64 * (dims[0] * dims[1]) as f64;
        if surface < best_surface {
            best_surface = surface;
            best = [px, py, pz];
        }
    };
    for px in 1..=p {
        if !p.is_multiple_of(px) {
            continue;
        }
        let rest = p / px;
        for py in 1..=rest {
            if !rest.is_multiple_of(py) {
                continue;
            }
            consider(px, py, rest / py);
        }
    }
    assert!(
        best_surface.is_finite(),
        "cannot factor {p} ranks over grid {dims:?} ({ndim}-D): subdomains would be empty"
    );
    best
}

/// One dimension's balanced split: `n` points over `p` process
/// coordinates, each `base = n / p` long and the first `extra = n % p` one
/// longer. A subdomain is never empty, so `base ≥ 1` and both directions
/// are closed forms.
#[derive(Clone, Copy)]
struct Axis {
    base: usize,
    extra: usize,
}

impl Axis {
    /// (start, len) of process coordinate `c`'s range.
    fn range(self, c: usize) -> (usize, usize) {
        let Axis { base, extra } = self;
        (c * base + c.min(extra), base + usize::from(c < extra))
    }

    /// The process coordinate whose range holds point `x`, with that
    /// range's (start, len).
    fn locate(self, x: usize) -> (usize, usize, usize) {
        let Axis { base, extra } = self;
        let long = extra * (base + 1);
        let c = if x < long {
            x / (base + 1)
        } else {
            extra + (x - long) / base
        };
        let (s, l) = self.range(c);
        (c, s, l)
    }
}

/// Grid coordinates of rank `r` in the process grid (x fastest).
fn coords_of(pgrid: &[usize; 3], r: usize) -> [usize; 3] {
    [
        r % pgrid[0],
        (r / pgrid[0]) % pgrid[1],
        r / (pgrid[0] * pgrid[1]),
    ]
}

impl Geometry {
    fn new(
        rank: usize,
        size: usize,
        dims: &[usize],
        dof: usize,
        stencil: StencilKind,
        width: usize,
    ) -> Geometry {
        assert!((1..=3).contains(&dims.len()), "1-3 dimensions supported");
        assert!(dof >= 1, "dof must be at least 1");
        let ndim = dims.len();
        let mut d3 = [1usize; 3];
        d3[..ndim].copy_from_slice(dims);
        let pgrid = factor_process_grid(size, &d3, ndim);
        let axes = [0, 1, 2].map(|d| Axis {
            base: d3[d] / pgrid[d],
            extra: d3[d] % pgrid[d],
        });
        let own_range = |d: usize, c: usize| axes[d].range(c);
        // (start, len) of process-coordinate `c`'s owned range in dimension
        // `d` widened by the ghost frame, clipped at the physical boundary.
        let ghost_range = |d: usize, c: usize| {
            // Dimensions beyond ndim have size 1 and no ghosts.
            if d >= ndim {
                return (0, 1);
            }
            let (s, l) = own_range(d, c);
            let lo = s - width.min(s);
            (lo, (s + l + width).min(d3[d]) - lo)
        };
        let coords = coords_of(&pgrid, rank);
        let (mut own_start, mut own_len) = ([0usize; 3], [0usize; 3]);
        let (mut gh_start, mut gh_len) = ([0usize; 3], [0usize; 3]);
        for d in 0..3 {
            (own_start[d], own_len[d]) = own_range(d, coords[d]);
            (gh_start[d], gh_len[d]) = ghost_range(d, coords[d]);
        }

        // Every rank computes every rank's sizes symbolically. Global
        // layout: the owned volumes in rank order; local (ghosted) layout:
        // rank-dependent because of the clipping.
        let volumes = |range: &dyn Fn(usize, usize) -> (usize, usize)| -> Vec<usize> {
            (0..size)
                .map(|r| {
                    let c = coords_of(&pgrid, r);
                    (0..3).map(|d| range(d, c[d]).1).product::<usize>() * dof
                })
                .collect()
        };
        let global_layout = Layout::from_local_sizes(&volumes(&own_range));
        let local_layout = Layout::from_local_sizes(&volumes(&ghost_range));

        Geometry {
            ndim,
            dims: d3,
            dof,
            stencil,
            width,
            pgrid,
            axes,
            own_start,
            own_len,
            gh_start,
            gh_len,
            global_layout,
            local_layout,
            rank,
        }
    }

    /// Build the global→local scatter covering owned points and the ghost
    /// points the stencil requires.
    fn build_ghost_scatter(&self, comm: &mut Comm) -> VecScatter {
        let mut src = Vec::new();
        let mut dst = Vec::new();
        let (lbase, _) = self.local_layout.range(self.rank);
        for k in self.gh_start[2]..self.gh_start[2] + self.gh_len[2] {
            for j in self.gh_start[1]..self.gh_start[1] + self.gh_len[1] {
                for i in self.gh_start[0]..self.gh_start[0] + self.gh_len[0] {
                    let p = [i, j, k];
                    if !self.point_in_local_form(p) {
                        continue;
                    }
                    for c in 0..self.dof {
                        src.push(self.global_vec_index(p, c));
                        dst.push(lbase + self.local_vec_offset(p, c));
                    }
                }
            }
        }
        VecScatter::create(
            comm,
            self.global_layout.clone(),
            &IndexSet::general(src),
            self.local_layout.clone(),
            &IndexSet::general(dst),
        )
    }

    fn point_in_local_form(&self, p: [usize; 3]) -> bool {
        let mut outside = 0;
        for (d, &pd) in p.iter().enumerate() {
            if pd < self.gh_start[d] || pd >= self.gh_start[d] + self.gh_len[d] {
                return false;
            }
            if pd < self.own_start[d] || pd >= self.own_start[d] + self.own_len[d] {
                outside += 1;
            }
        }
        match self.stencil {
            StencilKind::Box => true,
            StencilKind::Star => outside <= 1,
        }
    }

    /// The owner's rank and the point's offset in the owner's box, both
    /// x fastest, from each axis's closed form; the rank's start from the
    /// global layout.
    fn global_vec_index(&self, p: [usize; 3], c: usize) -> usize {
        let (mut r, mut off) = (0, 0);
        for d in (0..3).rev() {
            debug_assert!(p[d] < self.dims[d], "point {p:?} outside grid");
            let (pc, s, l) = self.axes[d].locate(p[d]);
            r = r * self.pgrid[d] + pc;
            off = off * l + (p[d] - s);
        }
        self.global_layout.range(r).0 + off * self.dof + c
    }

    fn local_vec_offset(&self, p: [usize; 3], c: usize) -> usize {
        let g = self.gh_start;
        let l = self.gh_len;
        debug_assert!(
            (0..3).all(|d| p[d] >= g[d] && p[d] < g[d] + l[d]),
            "point {p:?} outside ghosted box"
        );
        (((p[2] - g[2]) * l[1] + (p[1] - g[1])) * l[0] + (p[0] - g[0])) * self.dof + c
    }
}

impl DistributedArray {
    /// Collectively create a distributed array over `comm`.
    ///
    /// `dims` has 1 to 3 entries (points per dimension); `dof` interlaced
    /// fields per point; `width` the stencil width in points.
    pub fn new(
        comm: &mut Comm,
        dims: &[usize],
        dof: usize,
        stencil: StencilKind,
        width: usize,
    ) -> DistributedArray {
        let geom = Geometry::new(comm.rank(), comm.size(), dims, dof, stencil, width);
        let ghost_scatter = geom.build_ghost_scatter(comm);
        DistributedArray {
            geom,
            ghost_scatter,
        }
    }

    /// Whether grid point `p` participates in this rank's local form:
    /// owned points always; ghost points per the stencil kind.
    pub fn point_in_local_form(&self, p: [usize; 3]) -> bool {
        self.geom.point_in_local_form(p)
    }

    // ---- geometry accessors -------------------------------------------

    pub fn ndim(&self) -> usize {
        self.geom.ndim
    }

    pub fn dims(&self) -> [usize; 3] {
        self.geom.dims
    }

    pub fn dof(&self) -> usize {
        self.geom.dof
    }

    pub fn stencil(&self) -> StencilKind {
        self.geom.stencil
    }

    pub fn stencil_width(&self) -> usize {
        self.geom.width
    }

    pub fn rank(&self) -> usize {
        self.geom.rank
    }

    /// Owned box: (start, len) per dimension.
    pub fn owned(&self) -> ([usize; 3], [usize; 3]) {
        (self.geom.own_start, self.geom.own_len)
    }

    /// Ghosted box: (start, len) per dimension.
    pub fn ghosted(&self) -> ([usize; 3], [usize; 3]) {
        (self.geom.gh_start, self.geom.gh_len)
    }

    pub fn global_layout(&self) -> &Arc<Layout> {
        &self.geom.global_layout
    }

    /// The compiled ghost-exchange plan (exposed for instrumentation).
    pub fn ghost_scatter(&self) -> &VecScatter {
        &self.ghost_scatter
    }

    /// Index of `(p, c)` in the global vector (PETSc ordering).
    pub fn global_vec_index(&self, p: [usize; 3], c: usize) -> usize {
        self.geom.global_vec_index(p, c)
    }

    /// Offset of `(p, c)` within this rank's local (ghosted) array.
    pub fn local_vec_offset(&self, p: [usize; 3], c: usize) -> usize {
        self.geom.local_vec_offset(p, c)
    }

    // ---- vectors -------------------------------------------------------

    /// A zeroed global vector over this array.
    pub fn create_global_vec(&self) -> PVec {
        PVec::zeros(self.geom.global_layout.clone(), self.geom.rank)
    }

    /// A zeroed local (ghosted) vector.
    pub fn create_local_vec(&self) -> PVec {
        PVec::zeros(self.geom.local_layout.clone(), self.geom.rank)
    }

    /// Update the local form: owned values plus stencil-required ghost
    /// values from the neighbouring ranks.
    pub fn global_to_local(
        &self,
        comm: &mut Comm,
        global: &PVec,
        local: &mut PVec,
        backend: ScatterBackend,
    ) {
        self.ghost_scatter.apply(comm, global, local, backend);
    }

    /// Start a ghost update (`DMGlobalToLocalBegin`): owned values are
    /// copied into the local form and ghost traffic is initiated. The
    /// owned entries of `local` are valid on return — stencil interiors
    /// can be computed while the ghosts are in flight — but ghost entries
    /// are undefined until [`DistributedArray::global_to_local_end`].
    pub fn global_to_local_begin(
        &self,
        comm: &mut Comm,
        global: &PVec,
        local: &mut PVec,
        backend: ScatterBackend,
    ) -> ScatterHandle {
        self.ghost_scatter.begin(comm, global, local, backend)
    }

    /// Finish a ghost update started with
    /// [`DistributedArray::global_to_local_begin`].
    pub fn global_to_local_end(&self, comm: &mut Comm, handle: ScatterHandle, local: &mut PVec) {
        self.ghost_scatter.end(comm, handle, local);
    }

    /// Iterate over this rank's owned points in global-vector order.
    pub fn owned_points(&self) -> impl Iterator<Item = [usize; 3]> + '_ {
        let (s, l) = (self.geom.own_start, self.geom.own_len);
        (s[2]..s[2] + l[2]).flat_map(move |k| {
            (s[1]..s[1] + l[1]).flat_map(move |j| (s[0]..s[0] + l[0]).map(move |i| [i, j, k]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncd_core::MpiConfig;
    use ncd_simnet::{Cluster, ClusterConfig};
    use proptest::prelude::*;

    /// The searched index the closed form replaced: per-dimension split
    /// boundaries, a `partition_point` per dimension for the owner, and
    /// the owner's process coordinates back from its rank.
    struct Searched {
        /// `splits[d][c]..splits[d][c+1]` is process coordinate `c`'s range.
        splits: [Vec<usize>; 3],
        pgrid: [usize; 3],
    }

    impl Searched {
        fn new(geom: &Geometry) -> Searched {
            let splits = [0, 1, 2].map(|d| balanced_splits(geom.dims[d], geom.pgrid[d]));
            Searched {
                splits,
                pgrid: geom.pgrid,
            }
        }

        fn owner_of(&self, p: [usize; 3]) -> usize {
            let c: [usize; 3] =
                [0, 1, 2].map(|d| self.splits[d].partition_point(|&s| s <= p[d]) - 1);
            (c[2] * self.pgrid[1] + c[1]) * self.pgrid[0] + c[0]
        }

        fn global_vec_index(&self, geom: &Geometry, p: [usize; 3], c: usize) -> usize {
            let r = self.owner_of(p);
            let pc = coords_of(&self.pgrid, r);
            let s = [0, 1, 2].map(|d| self.splits[d][pc[d]]);
            let l = [0, 1, 2].map(|d| self.splits[d][pc[d] + 1] - s[d]);
            let off = ((p[2] - s[2]) * l[1] + (p[1] - s[1])) * l[0] + (p[0] - s[0]);
            geom.global_layout.range(r).0 + off * geom.dof + c
        }
    }

    fn balanced_splits(n: usize, p: usize) -> Vec<usize> {
        let base = n / p;
        let extra = n % p;
        let mut starts = Vec::with_capacity(p + 1);
        let mut acc = 0usize;
        starts.push(0);
        for c in 0..p {
            acc += base + usize::from(c < extra);
            starts.push(acc);
        }
        starts
    }

    /// A grid of 1–3 dimensions, each 1–12 points, and a rank count that
    /// partitions it (a process grid no wider than the grid).
    fn grid_and_ranks() -> impl Strategy<Value = (Vec<usize>, usize)> {
        let dims = proptest::collection::vec(1usize..13, 1..4);
        let widths = proptest::collection::vec(1usize..6, 3);
        (dims, widths).prop_map(|(dims, widths)| {
            let size = dims.iter().zip(widths).map(|(&n, w)| w.min(n)).product();
            (dims, size)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every point's global index, and every process coordinate's
        /// range, are the searched form's.
        #[test]
        fn global_indices_are_the_searched_ones(
            (dims, size) in grid_and_ranks(),
            dof in 1usize..4,
        ) {
            let geom = Geometry::new(0, size, &dims, dof, StencilKind::Box, 1);
            let searched = Searched::new(&geom);
            for d in 0..3 {
                for c in 0..geom.pgrid[d] {
                    let split = &searched.splits[d];
                    prop_assert_eq!(geom.axes[d].range(c), (split[c], split[c + 1] - split[c]));
                }
            }
            let n = geom.dims;
            for k in 0..n[2] {
                for j in 0..n[1] {
                    for i in 0..n[0] {
                        for c in 0..dof {
                            let p = [i, j, k];
                            let want = searched.global_vec_index(&geom, p, c);
                            prop_assert_eq!(geom.global_vec_index(p, c), want, "{:?} dof {}", p, c);
                        }
                    }
                }
            }
        }
    }

    fn with_n<R: Send>(n: usize, f: impl Fn(&mut Comm) -> R + Send + Sync) -> Vec<R> {
        Cluster::new(ClusterConfig::uniform(n)).run(move |rank| {
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            f(&mut comm)
        })
    }

    #[test]
    fn factorization_prefers_balanced_grids() {
        assert_eq!(factor_process_grid(4, &[64, 64, 1], 2), [2, 2, 1]);
        assert_eq!(factor_process_grid(8, &[32, 32, 32], 3), [2, 2, 2]);
        assert_eq!(factor_process_grid(6, &[90, 60, 1], 2), [3, 2, 1]);
        assert_eq!(factor_process_grid(5, &[100, 1, 1], 1), [5, 1, 1]);
    }

    #[test]
    fn owned_boxes_tile_the_grid() {
        let out = with_n(6, |comm| {
            let da = DistributedArray::new(comm, &[12, 9], 1, StencilKind::Star, 1);
            let (s, l) = da.owned();
            (s, l, da.geom.pgrid)
        });
        let mut total = 0usize;
        for (_, l, _) in &out {
            total += l[0] * l[1] * l[2];
        }
        assert_eq!(total, 12 * 9);
    }

    #[test]
    fn global_indices_are_a_bijection() {
        with_n(4, |comm| {
            let da = DistributedArray::new(comm, &[7, 5], 2, StencilKind::Star, 1);
            if comm.rank() == 0 {
                let mut seen = [false; 7 * 5 * 2];
                for j in 0..5 {
                    for i in 0..7 {
                        for c in 0..2 {
                            let g = da.global_vec_index([i, j, 0], c);
                            assert!(!seen[g], "duplicate global index {g}");
                            seen[g] = true;
                        }
                    }
                }
                assert!(seen.iter().all(|&b| b));
            }
        });
    }

    #[test]
    fn ghost_exchange_star_2d() {
        // Fill global vec with f(i,j) = 100*i + j, then check ghost values.
        let out = with_n(4, |comm| {
            let da = DistributedArray::new(comm, &[8, 8], 1, StencilKind::Star, 1);
            let mut g = da.create_global_vec();
            let pts = da.owned_points().collect::<Vec<_>>();
            for (off, p) in pts.into_iter().enumerate() {
                g.local_mut()[off] = (100 * p[0] + p[1]) as f64;
            }
            let mut l = da.create_local_vec();
            da.global_to_local(comm, &g, &mut l, ScatterBackend::Datatype);
            // Every point in the local form must carry f(i,j).
            let (gs, gl) = da.ghosted();
            let mut checked = 0;
            for j in gs[1]..gs[1] + gl[1] {
                for i in gs[0]..gs[0] + gl[0] {
                    let p = [i, j, 0];
                    if da.point_in_local_form(p) {
                        let v = l.local()[da.local_vec_offset(p, 0)];
                        assert_eq!(v, (100 * i + j) as f64, "point {p:?}");
                        checked += 1;
                    }
                }
            }
            checked
        });
        assert!(out.iter().all(|&c| c > 16), "each rank checks own + ghosts");
    }

    #[test]
    fn star_excludes_corners_box_includes_them() {
        let out = with_n(4, |comm| {
            let star = DistributedArray::new(comm, &[8, 8], 1, StencilKind::Star, 1);
            let box_ = DistributedArray::new(comm, &[8, 8], 1, StencilKind::Box, 1);
            // The 2x2 process grid: rank 0 owns the lower-left 4x4 block.
            if comm.rank() == 0 {
                // Corner ghost (4,4) is outside both owned ranges.
                assert!(!star.point_in_local_form([4, 4, 0]));
                assert!(box_.point_in_local_form([4, 4, 0]));
                // Face ghosts are in both.
                assert!(star.point_in_local_form([4, 0, 0]));
                assert!(box_.point_in_local_form([0, 4, 0]));
            }
            (
                star.ghost_scatter().remote_recv_elems(),
                box_.ghost_scatter().remote_recv_elems(),
            )
        });
        // Box must move strictly more ghost data than star.
        for (s, b) in &out {
            assert!(b > s, "box ({b}) should exceed star ({s})");
        }
    }

    #[test]
    fn ghost_exchange_3d_with_dof() {
        let out = with_n(8, |comm| {
            let da = DistributedArray::new(comm, &[6, 6, 6], 2, StencilKind::Box, 1);
            let mut g = da.create_global_vec();
            let mut off = 0;
            for p in da.owned_points().collect::<Vec<_>>() {
                for c in 0..2 {
                    g.local_mut()[off] = (((p[0] * 10 + p[1]) * 10 + p[2]) * 2 + c) as f64;
                    off += 1;
                }
            }
            let mut l = da.create_local_vec();
            da.global_to_local(comm, &g, &mut l, ScatterBackend::HandTuned);
            let (gs, gl) = da.ghosted();
            for k in gs[2]..gs[2] + gl[2] {
                for j in gs[1]..gs[1] + gl[1] {
                    for i in gs[0]..gs[0] + gl[0] {
                        for c in 0..2 {
                            let p = [i, j, k];
                            let v = l.local()[da.local_vec_offset(p, c)];
                            let expect = (((i * 10 + j) * 10 + k) * 2 + c) as f64;
                            assert_eq!(v, expect, "point {p:?} dof {c}");
                        }
                    }
                }
            }
            true
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn global_to_local_keeps_owned_values() {
        with_n(4, |comm| {
            let da = DistributedArray::new(comm, &[10, 10], 1, StencilKind::Star, 2);
            let mut g = da.create_global_vec();
            for (off, p) in da.owned_points().enumerate() {
                g.local_mut()[off] = (p[0] * 31 + p[1]) as f64;
            }
            let mut l = da.create_local_vec();
            da.global_to_local(comm, &g, &mut l, ScatterBackend::Datatype);
            for (off, p) in da.owned_points().enumerate() {
                assert_eq!(
                    l.local()[da.local_vec_offset(p, 0)],
                    g.local()[off],
                    "point {p:?}"
                );
            }
        });
    }

    #[test]
    fn one_dimensional_da() {
        let out = with_n(3, |comm| {
            let da = DistributedArray::new(comm, &[30], 1, StencilKind::Star, 1);
            let mut g = da.create_global_vec();
            for (off, p) in da.owned_points().enumerate() {
                g.local_mut()[off] = p[0] as f64;
            }
            let mut l = da.create_local_vec();
            da.global_to_local(comm, &g, &mut l, ScatterBackend::HandTuned);
            let (gs, gl) = da.ghosted();
            (gs[0]..gs[0] + gl[0])
                .map(|i| l.local()[da.local_vec_offset([i, 0, 0], 0)])
                .collect::<Vec<_>>()
        });
        // Rank 1 owns [10, 20) and sees ghosts 9 and 20.
        assert_eq!(out[1], (9..=20).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cannot factor")]
    fn too_many_ranks_for_grid_panics() {
        with_n(7, |comm| {
            // 7 ranks cannot split a 3-point 1-D grid.
            DistributedArray::new(comm, &[3], 1, StencilKind::Star, 1);
        });
    }
}
