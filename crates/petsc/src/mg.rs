//! Geometric multigrid on a hierarchy of distributed arrays, plus the
//! matrix-free Laplacian operator it smooths — the machinery behind the
//! paper's §5.5 "3-D Laplacian multi-grid solver" application.
//!
//! The hierarchy coarsens cell-centred by a factor of two per dimension
//! (`100³ → 50³ → 25³` for the paper's three-level configuration).
//! Restriction averages each coarse cell's fine children; prolongation is
//! cell-centred linear interpolation (3/4 of the parent coarse cell, 1/4
//! of the neighbour on the fine cell's side, per dimension). Both
//! transfers fetch the points covering the local subdomain through
//! [`VecScatter::gather_plan`], so they work for *any* alignment between
//! the fine and coarse partitions — and, like the ghost exchanges of the
//! smoother, they run over either scatter backend. The smoother is damped
//! Jacobi with fixed parameters (two sweeps before and after the coarse
//! correction, damping [`Multigrid::OMEGA`]); the coarsest level is solved
//! by CG.
//!
//! The arithmetic streams memory once and allocates nothing per call: the
//! operator walks the ghosted local form row by row, the smoother and the
//! residual consume each row of `A x` while it is in cache, and every
//! vector a V-cycle needs lives in its level. Simulated flops are charged
//! in closed form, by the same calls in the same order as the unfused
//! loops would make.

use std::cell::{OnceCell, RefCell};
use std::ops::Range;
use std::sync::Arc;

use ncd_core::Comm;

use crate::da::{DistributedArray, StencilKind};
use crate::ksp::{cg, IdentityPc, KspSettings, LinearOp, Preconditioner};
use crate::layout::Layout;
use crate::scatter::{ScatterBackend, VecScatter};
use crate::vec::PVec;

/// Matrix-free discrete (negative) Laplacian `-∇²` with homogeneous
/// Dirichlet boundary conditions on a DA's *cell-centred* grid: the
/// 3/5/7-point star stencil. Interior neighbours contribute `-1/h²`;
/// a wall side contributes `+2/h²` to the diagonal (flux through a wall
/// half a cell away), which keeps the boundary condition at the same
/// physical location on every multigrid level.
pub struct LaplacianOp<'a> {
    da: &'a DistributedArray,
    h2inv: f64,
    scratch: ScratchSlot<'a>,
}

/// What an application of the operator needs besides its arguments: the
/// ghosted local form of `x`, and one owned row of `A x` for the callers
/// that consume the product row by row.
struct Scratch {
    local: PVec,
    row: Vec<f64>,
}

impl Scratch {
    fn new(da: &DistributedArray) -> RefCell<Scratch> {
        RefCell::new(Scratch {
            local: da.create_local_vec(),
            row: vec![0.0; da.owned().1[0]],
        })
    }
}

/// Whose [`Scratch`] an operator works in.
enum ScratchSlot<'a> {
    /// Its own, created by the first application.
    Own(OnceCell<RefCell<Scratch>>),
    /// The multigrid level's.
    Level(&'a RefCell<Scratch>),
}

impl<'a> LaplacianOp<'a> {
    /// `h` is the grid spacing (uniform across dimensions).
    pub fn new(da: &'a DistributedArray, h: f64) -> Self {
        assert_eq!(da.dof(), 1, "LaplacianOp expects one degree of freedom");
        assert!(
            da.stencil_width() >= 1,
            "LaplacianOp needs a stencil width of at least 1"
        );
        LaplacianOp {
            da,
            h2inv: 1.0 / (h * h),
            scratch: ScratchSlot::Own(OnceCell::new()),
        }
    }

    /// Diagonal coefficient (times `h²`) at grid point `p`: 2 per interior
    /// side, 2 extra per wall side — i.e. interior points get `2·ndim`.
    fn diag_coeff(&self, p: [usize; 3]) -> f64 {
        let dims = self.da.dims();
        let mut diag = 0.0;
        for d in 0..self.da.ndim() {
            diag += if p[d] > 0 { 1.0 } else { 2.0 };
            diag += if p[d] + 1 < dims[d] { 1.0 } else { 2.0 };
        }
        diag
    }

    /// The operator's diagonal as a local vector (for Jacobi smoothing).
    pub fn diagonal_vec(&self) -> Vec<f64> {
        self.da
            .owned_points()
            .map(|p| self.diag_coeff(p) * self.h2inv)
            .collect()
    }

    pub fn da(&self) -> &DistributedArray {
        self.da
    }

    fn scratch(&self) -> &RefCell<Scratch> {
        match &self.scratch {
            ScratchSlot::Own(cell) => cell.get_or_init(|| Scratch::new(self.da)),
            ScratchSlot::Level(cell) => cell,
        }
    }

    /// Flops of one application: a multiply and a subtract per neighbour
    /// slot, the diagonal multiply and the `1/h²` scaling, per owned point.
    fn flops(&self) -> u64 {
        let len = self.da.owned().1;
        (2 * self.da.ndim() as u64 + 2) * (len[0] * len[1] * len[2]) as u64
    }

    /// `(A x)` at `p`, whose value sits at `l[c]` in the local form with
    /// neighbours `stride[d]` away: the form for points that miss a
    /// neighbour.
    fn point(&self, l: &[f64], p: [usize; 3], c: usize, stride: [usize; 3]) -> f64 {
        let dims = self.da.dims();
        let mut acc = self.diag_coeff(p) * l[c];
        for d in 0..self.da.ndim() {
            if p[d] > 0 {
                acc -= l[c - stride[d]];
            }
            if p[d] + 1 < dims[d] {
                acc -= l[c + stride[d]];
            }
        }
        acc * self.h2inv
    }

    /// `(A x)` along owned row `(j, k)`, read from the local form `l`. In
    /// 3-D, the stretch of the row whose six neighbours all exist is one
    /// branch-free pass over seven slices; row ends on the grid boundary,
    /// boundary rows and lower dimensions go point by point. Both compute
    /// `diag·c − x₋ − x₊ − y₋ − y₊ − z₋ − z₊`, then `· 1/h²`, in that order.
    fn row(&self, l: &[f64], j: usize, k: usize, out: &mut [f64]) {
        let da = self.da;
        let dims = da.dims();
        let (own, len) = da.owned();
        let (gs, gl) = da.ghosted();
        let stride = [1, gl[0], gl[0] * gl[1]];
        let base = (k - gs[2]) * stride[2] + (j - gs[1]) * stride[1] + (own[0] - gs[0]);
        let inner = da.ndim() == 3 && j > 0 && j + 1 < dims[1] && k > 0 && k + 1 < dims[2];
        let (lo, hi) = if inner {
            let lo = usize::from(own[0] == 0);
            let hi = len[0] - usize::from(own[0] + len[0] == dims[0]);
            (lo, hi.max(lo))
        } else {
            (0, 0)
        };
        for i in (0..lo).chain(hi..len[0]) {
            out[i] = self.point(l, [own[0] + i, j, k], base + i, stride);
        }
        let (n, c) = (hi - lo, base + lo);
        if n == 0 {
            return;
        }
        let out = &mut out[lo..hi];
        let (xc, xm, xp) = (&l[c..c + n], &l[c - 1..][..n], &l[c + 1..][..n]);
        let (ym, yp) = (&l[c - stride[1]..][..n], &l[c + stride[1]..][..n]);
        let (zm, zp) = (&l[c - stride[2]..][..n], &l[c + stride[2]..][..n]);
        for i in 0..n {
            let acc = 6.0 * xc[i] - xm[i] - xp[i] - ym[i] - yp[i] - zm[i] - zp[i];
            out[i] = acc * self.h2inv;
        }
    }

    /// Bring `x` and its ghosts into the scratch local form.
    fn ghost_update(&self, comm: &mut Comm, x: &PVec, backend: ScatterBackend) {
        let local = &mut self.scratch().borrow_mut().local;
        self.da.global_to_local(comm, x, local, backend);
    }

    /// After [`LaplacianOp::ghost_update`]: hand each owned row of `A x`
    /// to `sink(the row's range among the owned points, row)` while it is
    /// in cache, then charge the application's flops.
    fn for_each_row(&self, comm: &mut Comm, mut sink: impl FnMut(Range<usize>, &[f64])) {
        let Scratch { local, row } = &mut *self.scratch().borrow_mut();
        let (own, len) = self.da.owned();
        for k in 0..len[2] {
            for j in 0..len[1] {
                self.row(local.local(), own[1] + j, own[2] + k, row);
                let off = (k * len[1] + j) * len[0];
                sink(off..off + len[0], row);
            }
        }
        comm.rank_mut().compute_flops(self.flops());
    }
}

impl LinearOp for LaplacianOp<'_> {
    fn layout(&self) -> &Arc<Layout> {
        self.da.global_layout()
    }

    fn apply(&self, comm: &mut Comm, x: &PVec, y: &mut PVec, backend: ScatterBackend) {
        self.ghost_update(comm, x, backend);
        self.for_each_row(comm, |row, ax| y.local_mut()[row].copy_from_slice(ax));
    }
}

/// Restriction plan: gather each owned coarse point's fine children.
struct RestrictPlan {
    plan: VecScatter,
    /// Where the gather lands.
    buf: RefCell<PVec>,
    /// Children per owned coarse point (buffer entries are grouped).
    counts: Vec<u32>,
}

/// Interpolation plan: gather the coarse points around each owned fine
/// point, with cell-centred linear weights.
struct InterpPlan {
    plan: VecScatter,
    /// Where the gather lands.
    buf: RefCell<PVec>,
    stencils: Stencils,
}

/// Each owned fine point's interpolation entries. CSR-style: the entries
/// of fine point `i` are `starts[i]..starts[i+1]` of `slots` (gather
/// buffer slot) and `weights` (index into `palette`).
struct Stencils {
    starts: Vec<u32>,
    slots: Vec<u32>,
    weights: Vec<u8>,
    /// The distinct weight products, at most 3³ of them.
    palette: Vec<f64>,
}

/// What a level with a coarser one below it carries for its part of the
/// V-cycle (the coarsest level is solved by CG and has none of it).
struct Coarser {
    /// Fine residual → coarse rhs.
    restrict: RestrictPlan,
    /// Coarse correction → fine correction.
    interp: InterpPlan,
    work: RefCell<Work>,
}

/// The vectors a visit to a level would otherwise allocate.
struct Work {
    /// Residual `b − A x`.
    r: PVec,
    /// Right-hand side and correction of the coarse problem.
    coarse_b: PVec,
    coarse_x: PVec,
}

struct Level {
    da: DistributedArray,
    h: f64,
    /// Reciprocal of the operator diagonal (for the Jacobi smoother).
    inv_diag: Vec<f64>,
    /// `l<lev>`, the level's key under the `mg/vcycle` counter.
    vcycle_key: String,
    scratch: RefCell<Scratch>,
    coarser: Option<Coarser>,
}

impl Level {
    /// The level's operator, working in the level's scratch.
    fn op(&self) -> LaplacianOp<'_> {
        LaplacianOp {
            scratch: ScratchSlot::Level(&self.scratch),
            ..LaplacianOp::new(&self.da, self.h)
        }
    }

    fn coarser(&self) -> &Coarser {
        self.coarser.as_ref().expect("not the coarsest level")
    }
}

/// A geometric multigrid hierarchy and V-cycle.
pub struct Multigrid {
    levels: Vec<Level>,
    backend: ScatterBackend,
}

impl Multigrid {
    /// Damping of the Jacobi smoother.
    pub const OMEGA: f64 = 0.8;
    /// Smoothing sweeps before and after the coarse correction.
    const NU_PRE: usize = 2;
    const NU_POST: usize = 2;
    /// Coarse-solve CG tolerance and iteration cap.
    const COARSE_RTOL: f64 = 1e-3;
    const COARSE_MAX_IT: usize = 200;

    /// Collectively build `nlevels` grids by halving `dims` (the finest
    /// grid) per level; `h` is the fine-grid spacing. Every level must
    /// still be partitionable over the communicator.
    pub fn new(
        comm: &mut Comm,
        dims: &[usize],
        h: f64,
        nlevels: usize,
        backend: ScatterBackend,
    ) -> Multigrid {
        assert!(nlevels >= 1, "need at least one level");
        let mut levels: Vec<Level> = Vec::with_capacity(nlevels);
        let mut cur_dims: Vec<usize> = dims.to_vec();
        let mut cur_h = h;
        for lev in 0..nlevels {
            let da = DistributedArray::new(comm, &cur_dims, 1, StencilKind::Star, 1);
            let inv_diag = LaplacianOp::new(&da, cur_h)
                .diagonal_vec()
                .into_iter()
                .map(|d| 1.0 / d)
                .collect();
            levels.push(Level {
                scratch: Scratch::new(&da),
                da,
                h: cur_h,
                inv_diag,
                vcycle_key: format!("l{lev}"),
                coarser: None,
            });
            if lev + 1 < nlevels {
                cur_dims = cur_dims.iter().map(|&n| n.div_ceil(2)).collect();
                assert!(
                    cur_dims.iter().all(|&n| n >= 2),
                    "grid too small for {nlevels} levels"
                );
                cur_h *= 2.0;
            }
        }
        // Build transfers between adjacent levels.
        for lev in 0..nlevels - 1 {
            let (fine, coarse) = (&levels[lev].da, &levels[lev + 1].da);
            let coarser = Coarser {
                restrict: build_restrict(comm, fine, coarse),
                interp: build_interp(comm, fine, coarse),
                work: RefCell::new(Work {
                    r: fine.create_global_vec(),
                    coarse_b: coarse.create_global_vec(),
                    coarse_x: coarse.create_global_vec(),
                }),
            };
            levels[lev].coarser = Some(coarser);
        }
        Multigrid { levels, backend }
    }

    pub fn fine_da(&self) -> &DistributedArray {
        &self.levels[0].da
    }

    pub fn level_da(&self, lev: usize) -> &DistributedArray {
        &self.levels[lev].da
    }

    pub fn backend(&self) -> ScatterBackend {
        self.backend
    }

    /// One damped-Jacobi sweep on level `lev` (not the coarsest):
    /// `x ← x + ω D⁻¹ (b − A x)`, each row updated as soon as its `A x`
    /// is computed (from the local form, so the sweep stays Jacobi).
    pub fn smooth(&self, comm: &mut Comm, lev: usize, b: &PVec, x: &mut PVec) {
        let level = &self.levels[lev];
        let op = level.op();
        op.ghost_update(comm, x, self.backend);
        op.for_each_row(comm, |row, ax| {
            let bd = b.local()[row.clone()]
                .iter()
                .zip(&level.inv_diag[row.clone()]);
            for ((xi, ri), (bi, di)) in x.local_mut()[row].iter_mut().zip(ax).zip(bd) {
                *xi += Self::OMEGA * di * (bi - ri);
            }
        });
        comm.rank_mut().compute_flops(4 * b.local_size() as u64);
    }

    /// `r ← b − A x` on level `lev`, computed and charged as the
    /// application followed by `r.scale(-1)` and `r.axpy(1, b)`.
    pub fn residual(&self, comm: &mut Comm, lev: usize, b: &PVec, x: &PVec, r: &mut PVec) {
        let op = self.levels[lev].op();
        op.ghost_update(comm, x, self.backend);
        op.for_each_row(comm, |row, ax| {
            let rb = r.local_mut()[row.clone()].iter_mut().zip(&b.local()[row]);
            for ((ri, bi), ai) in rb.zip(ax) {
                *ri = ai * -1.0 + 1.0 * bi;
            }
        });
        let n = r.local_size() as u64;
        comm.rank_mut().compute_flops(n);
        comm.rank_mut().compute_flops(2 * n);
    }

    /// Restrict a fine-level vector to coarse-level rhs (averaging).
    fn restrict(&self, comm: &mut Comm, lev: usize, fine_r: &PVec, coarse_b: &mut PVec) {
        let t = &self.levels[lev].coarser().restrict;
        let buf = &mut *t.buf.borrow_mut();
        t.plan.apply(comm, fine_r, buf, self.backend);
        let vals = buf.local();
        let mut pos = 0usize;
        for (i, &cnt) in t.counts.iter().enumerate() {
            let mut acc = 0.0;
            for _ in 0..cnt {
                acc += vals[pos];
                pos += 1;
            }
            coarse_b.local_mut()[i] = acc / cnt as f64;
        }
        comm.rank_mut().compute_flops(vals.len() as u64);
    }

    /// Interpolate a coarse-level correction (cell-centred linear) from
    /// level `lev + 1` and add it into the fine x on level `lev`.
    pub fn interp_add(&self, comm: &mut Comm, lev: usize, coarse_x: &PVec, fine_x: &mut PVec) {
        let t = &self.levels[lev].coarser().interp;
        let buf = &mut *t.buf.borrow_mut();
        t.plan.apply(comm, coarse_x, buf, self.backend);
        let vals = buf.local();
        let s = &t.stencils;
        for (xi, se) in fine_x.local_mut().iter_mut().zip(s.starts.windows(2)) {
            let entries = se[0] as usize..se[1] as usize;
            let mut acc = 0.0;
            for (&slot, &w) in s.slots[entries.clone()].iter().zip(&s.weights[entries]) {
                acc += s.palette[w as usize] * vals[slot as usize];
            }
            *xi += acc;
        }
        comm.rank_mut().compute_flops(2 * s.slots.len() as u64);
    }

    /// Recursive V-cycle on level `lev`: improve `x` for `A_lev x = b`.
    /// Each call counts once under the `mg/vcycle/l<lev>` metric.
    pub fn vcycle(&self, comm: &mut Comm, lev: usize, b: &PVec, x: &mut PVec) {
        let level = &self.levels[lev];
        if let Some(m) = comm.rank_mut().metrics_mut() {
            m.counter_add("mg", "vcycle", level.vcycle_key.clone(), 1);
        }
        if lev == self.levels.len() - 1 {
            // Coarse solve: CG to a loose tolerance.
            let settings = KspSettings {
                rtol: Self::COARSE_RTOL,
                max_it: Self::COARSE_MAX_IT,
                backend: self.backend,
            };
            cg(comm, &level.op(), &IdentityPc, b, x, &settings);
            return;
        }
        for _ in 0..Self::NU_PRE {
            self.smooth(comm, lev, b, x);
        }
        self.coarse_correction(comm, lev, b, x);
        for _ in 0..Self::NU_POST {
            self.smooth(comm, lev, b, x);
        }
    }

    /// `x += P A_c⁻¹ R (b − A x)`, the coarse problem improved by one
    /// V-cycle from zero, in the level's vectors.
    fn coarse_correction(&self, comm: &mut Comm, lev: usize, b: &PVec, x: &mut PVec) {
        let work = &mut *self.levels[lev].coarser().work.borrow_mut();
        self.residual(comm, lev, b, x, &mut work.r);
        self.restrict(comm, lev, &work.r, &mut work.coarse_b);
        work.coarse_x.set_all(0.0);
        self.vcycle(comm, lev + 1, &work.coarse_b, &mut work.coarse_x);
        self.interp_add(comm, lev, &work.coarse_x, x);
    }
}

impl Preconditioner for Multigrid {
    /// One V-cycle from a zero initial guess: `z ≈ A⁻¹ r`.
    fn apply(&self, comm: &mut Comm, r: &PVec, z: &mut PVec, _backend: ScatterBackend) {
        z.set_all(0.0);
        self.vcycle(comm, 0, r, z);
    }
}

/// Fine children of coarse point `cp` (cell-centred coarsening by 2,
/// clipped at the grid boundary), x fastest.
fn children_of(
    cp: [usize; 3],
    fine_dims: [usize; 3],
    ndim: usize,
) -> impl Iterator<Item = [usize; 3]> {
    let span = move |d: usize| -> Range<usize> {
        if d < ndim {
            let lo = 2 * cp[d];
            lo..(lo + 2).min(fine_dims[d])
        } else {
            0..1
        }
    };
    span(2).flat_map(move |k| span(1).flat_map(move |j| span(0).map(move |i| [i, j, k])))
}

fn build_restrict(
    comm: &mut Comm,
    fine: &DistributedArray,
    coarse: &DistributedArray,
) -> RestrictPlan {
    let mut needed = Vec::new();
    let mut counts = Vec::new();
    for cp in coarse.owned_points() {
        let before = needed.len();
        let children = children_of(cp, fine.dims(), fine.ndim());
        needed.extend(children.map(|ch| fine.global_vec_index(ch, 0)));
        counts.push((needed.len() - before) as u32);
    }
    let (plan, buf_layout) = VecScatter::gather_plan(comm, fine.global_layout().clone(), needed);
    RestrictPlan {
        plan,
        buf: RefCell::new(PVec::zeros(buf_layout, comm.rank())),
        counts,
    }
}

fn build_interp(comm: &mut Comm, fine: &DistributedArray, coarse: &DistributedArray) -> InterpPlan {
    let (unique, stencils) = interp_stencils(fine, coarse);
    let (plan, buf_layout) = VecScatter::gather_plan(comm, coarse.global_layout().clone(), unique);
    InterpPlan {
        plan,
        buf: RefCell::new(PVec::zeros(buf_layout, comm.rank())),
        stencils,
    }
}

/// Per-dimension coarse stencil of fine coordinate `f`: the parent with
/// weight 0.75 and the neighbour on the fine cell's side with 0.25, in
/// ascending coordinate order; at the grid boundary the parent with 1.0
/// and a zero weight.
fn axis_stencil(f: usize, cn: usize) -> [(usize, f64); 2] {
    let (parent, even) = (f / 2, f.is_multiple_of(2));
    if even && parent > 0 {
        [(parent - 1, 0.25), (parent, 0.75)]
    } else if !even && parent + 1 < cn {
        [(parent, 0.75), (parent + 1, 0.25)]
    } else {
        [(parent, 1.0), (parent, 0.0)]
    }
}

/// Cell-centred linear interpolation: a fine cell centre lies between its
/// parent coarse cell centre (weight 3/4 per dimension) and the adjacent
/// coarse cell on the other side (weight 1/4); at the grid boundary the
/// missing neighbour's weight folds back onto the parent (constant
/// extrapolation). In d dimensions the weights are the tensor product.
///
/// Returns the coarse points the owned fine points read, each once in
/// first-use order (a fine point's own by global index), and the fine
/// points' entries over them. Every coarse point read lies in the box of
/// the owned fine box's parents widened by one and clipped to the grid,
/// so the box's global indices are computed once and a dense array over
/// it maps a point to its slot.
fn interp_stencils(fine: &DistributedArray, coarse: &DistributedArray) -> (Vec<usize>, Stencils) {
    let ndim = fine.ndim();
    let cdims = coarse.dims();
    let (own, len) = fine.owned();
    let lo = [0, 1, 2].map(|d| (own[d] / 2).saturating_sub(1));
    let hi = [0, 1, 2].map(|d| ((own[d] + len[d] - 1) / 2 + 2).min(cdims[d]));
    let width = [0, 1, 2].map(|d| hi[d] - lo[d]);
    let mut box_index = Vec::with_capacity(width.iter().product());
    for k in lo[2]..hi[2] {
        for j in lo[1]..hi[1] {
            box_index.extend((lo[0]..hi[0]).map(|i| coarse.global_vec_index([i, j, k], 0)));
        }
    }
    let mut slot_of = vec![u32::MAX; box_index.len()];

    // A fine point reads at most 2^ndim coarse points.
    let owned: usize = len.iter().product();
    let mut unique: Vec<usize> = Vec::new();
    let mut starts: Vec<u32> = Vec::with_capacity(owned + 1);
    starts.push(0);
    let mut slots: Vec<u32> = Vec::with_capacity(owned << ndim);
    let mut weights: Vec<u8> = Vec::with_capacity(owned << ndim);
    let mut palette: Vec<f64> = Vec::new();
    // A weight product's palette index by its per-dimension weight classes
    // (each weight in quarters: 1, 3 or 4): the palette is searched once
    // per class triple, the first time it occurs, so indices keep their
    // first-seen order.
    let mut class_index = [u8::MAX; 125];
    let quarters = |w: f64| (w * 4.0) as usize;
    for fp in fine.owned_points() {
        let mut dim_pts: [[(usize, f64); 2]; 3] = [[(0, 1.0), (0, 0.0)]; 3];
        for d in 0..ndim {
            dim_pts[d] = axis_stencil(fp[d], cdims[d]);
        }
        // Tensor product over dimensions, skipping zero weights; the
        // coarse points of one fine point are distinct. They come out in
        // coordinate order, which is global-index order unless they
        // straddle a partition boundary, so the sort mostly finds them
        // in place.
        let mut pts = [(0usize, 0usize, 0.0f64, 0usize); 8];
        let mut n = 0;
        for &(cz, wz) in &dim_pts[2] {
            for &(cy, wy) in &dim_pts[1] {
                for &(cx, wx) in &dim_pts[0] {
                    if wx != 0.0 && wy != 0.0 && wz != 0.0 {
                        let b = ((cz - lo[2]) * width[1] + (cy - lo[1])) * width[0] + (cx - lo[0]);
                        let class = (quarters(wz) * 5 + quarters(wy)) * 5 + quarters(wx);
                        pts[n] = (box_index[b], b, wx * wy * wz, class);
                        n += 1;
                    }
                }
            }
        }
        pts[..n].sort_unstable_by_key(|&(g, _, _, _)| g);
        for &(g, b, w, class) in &pts[..n] {
            if slot_of[b] == u32::MAX {
                slot_of[b] = unique.len() as u32;
                unique.push(g);
            }
            slots.push(slot_of[b]);
            if class_index[class] == u8::MAX {
                let known = palette.iter().position(|p| p.to_bits() == w.to_bits());
                let index = known.unwrap_or_else(|| {
                    palette.push(w);
                    palette.len() - 1
                });
                class_index[class] =
                    u8::try_from(index).expect("at most 27 distinct weight products");
            }
            weights.push(class_index[class]);
        }
        starts.push(slots.len() as u32);
    }
    let stencils = Stencils {
        starts,
        slots,
        weights,
        palette,
    };
    (unique, stencils)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ksp::richardson;
    use ncd_core::MpiConfig;
    use ncd_simnet::{Cluster, ClusterConfig};
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The hashed form the dense box replaced: each entry's coarse point
    /// indexed on its own, and its slot found in a `HashMap` keyed by
    /// global index.
    fn interp_stencils_hashed(
        fine: &DistributedArray,
        coarse: &DistributedArray,
    ) -> (Vec<usize>, Stencils) {
        let ndim = fine.ndim();
        let cdims = coarse.dims();
        let mut unique: Vec<usize> = Vec::new();
        let mut slot_of: HashMap<usize, u32> = HashMap::new();
        let mut starts: Vec<u32> = vec![0];
        let mut slots: Vec<u32> = Vec::new();
        let mut weights: Vec<u8> = Vec::new();
        let mut palette: Vec<f64> = Vec::new();
        for fp in fine.owned_points() {
            let mut dim_pts: [[(usize, f64); 2]; 3] = [[(0, 1.0), (0, 0.0)]; 3];
            for d in 0..ndim {
                let parent = fp[d] / 2;
                let neighbour = if fp[d] % 2 == 0 {
                    parent.checked_sub(1)
                } else if parent + 1 < cdims[d] {
                    Some(parent + 1)
                } else {
                    None
                };
                dim_pts[d] = match neighbour {
                    Some(nb) => [(parent, 0.75), (nb, 0.25)],
                    None => [(parent, 1.0), (parent, 0.0)],
                };
            }
            let mut pts = [(0usize, 0.0f64); 8];
            let mut n = 0;
            for &(cz, wz) in &dim_pts[2] {
                for &(cy, wy) in &dim_pts[1] {
                    for &(cx, wx) in &dim_pts[0] {
                        if wx != 0.0 && wy != 0.0 && wz != 0.0 {
                            pts[n] = (coarse.global_vec_index([cx, cy, cz], 0), wx * wy * wz);
                            n += 1;
                        }
                    }
                }
            }
            pts[..n].sort_unstable_by_key(|&(g, _)| g);
            for &(g, w) in &pts[..n] {
                let slot = *slot_of.entry(g).or_insert_with(|| {
                    unique.push(g);
                    (unique.len() - 1) as u32
                });
                slots.push(slot);
                let known = palette.iter().position(|p| p.to_bits() == w.to_bits());
                let index = known.unwrap_or_else(|| {
                    palette.push(w);
                    palette.len() - 1
                });
                weights.push(u8::try_from(index).expect("at most 27 distinct weight products"));
            }
            starts.push(slots.len() as u32);
        }
        let stencils = Stencils {
            starts,
            slots,
            weights,
            palette,
        };
        (unique, stencils)
    }

    /// Everything a [`Stencils`] and its gather list hold, weights by bits.
    type Parts = (Vec<usize>, Vec<u32>, Vec<u32>, Vec<u8>, Vec<u64>);

    fn parts((unique, s): (Vec<usize>, Stencils)) -> Parts {
        let palette = s.palette.iter().map(|w| w.to_bits()).collect();
        (unique, s.starts, s.slots, s.weights, palette)
    }

    /// Whether `p` ranks partition `dims` (a process grid no wider than
    /// the grid in any dimension).
    fn fits(dims: &[usize], p: usize) -> bool {
        let d = |i: usize| dims.get(i).copied().unwrap_or(1);
        (1..=p).filter(|px| p.is_multiple_of(*px)).any(|px| {
            let rest = p / px;
            (1..=rest)
                .any(|py| rest.is_multiple_of(py) && px <= d(0) && py <= d(1) && rest / py <= d(2))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The dense box's gather list and entries are the hashed form's,
        /// over fine grids of 1–3 dimensions, their halved coarse grids,
        /// and the partitions of up to 8 ranks both grids admit.
        #[test]
        fn interp_stencils_are_the_hashed_ones(
            fine_dims in proptest::collection::vec(1usize..12, 1..4),
            want in 1usize..9,
        ) {
            let coarse_dims: Vec<usize> = fine_dims.iter().map(|n| n.div_ceil(2)).collect();
            let n = (1..=want)
                .rev()
                .find(|&p| fits(&fine_dims, p) && fits(&coarse_dims, p))
                .expect("one rank partitions any grid");
            let (fd, cd) = (fine_dims.clone(), coarse_dims.clone());
            let out = with_n(n, move |comm| {
                let fine = DistributedArray::new(comm, &fd, 1, StencilKind::Star, 1);
                let coarse = DistributedArray::new(comm, &cd, 1, StencilKind::Star, 1);
                let dense = parts(interp_stencils(&fine, &coarse));
                (dense, parts(interp_stencils_hashed(&fine, &coarse)))
            });
            for (rank, (dense, hashed)) in out.into_iter().enumerate() {
                prop_assert_eq!(dense, hashed, "rank {} of {}", rank, n);
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
    fn laplacian_of_linear_function_is_zero_inside() {
        // u(i) = i on a 1-D grid: -u'' = 0 in the interior.
        with_n(2, |comm| {
            let da = DistributedArray::new(comm, &[16], 1, StencilKind::Star, 1);
            let op = LaplacianOp::new(&da, 1.0);
            let mut x = da.create_global_vec();
            for (off, p) in da.owned_points().enumerate() {
                x.local_mut()[off] = p[0] as f64;
            }
            let mut y = da.create_global_vec();
            op.apply(comm, &x, &mut y, ScatterBackend::HandTuned);
            for (off, p) in da.owned_points().enumerate() {
                let v = y.local()[off];
                if p[0] > 0 && p[0] < 15 {
                    assert!(v.abs() < 1e-12, "interior point {p:?}: {v}");
                }
            }
        });
    }

    #[test]
    fn laplacian_is_symmetric() {
        // x·Ay == y·Ax for random-ish vectors.
        let out = with_n(4, |comm| {
            let da = DistributedArray::new(comm, &[8, 8], 1, StencilKind::Star, 1);
            let op = LaplacianOp::new(&da, 0.25);
            let (s, e) = da.global_layout().range(comm.rank());
            let x = PVec::from_local(
                da.global_layout().clone(),
                comm.rank(),
                (s..e).map(|g| ((g * 37 + 11) % 17) as f64).collect(),
            );
            let y = PVec::from_local(
                da.global_layout().clone(),
                comm.rank(),
                (s..e).map(|g| ((g * 23 + 5) % 13) as f64).collect(),
            );
            let mut ax = da.create_global_vec();
            let mut ay = da.create_global_vec();
            op.apply(comm, &x, &mut ax, ScatterBackend::Datatype);
            op.apply(comm, &y, &mut ay, ScatterBackend::Datatype);
            (x.dot(comm, &ay), y.dot(comm, &ax))
        });
        for (xay, yax) in &out {
            assert!((xay - yax).abs() < 1e-9 * xay.abs().max(1.0));
        }
    }

    #[test]
    fn children_cover_fine_grid_exactly_once() {
        let fine_dims = [9usize, 6, 1];
        let coarse_dims = [5usize, 3, 1];
        let mut seen = [false; 9 * 6];
        for cj in 0..coarse_dims[1] {
            for ci in 0..coarse_dims[0] {
                for ch in children_of([ci, cj, 0], fine_dims, 2) {
                    let idx = ch[1] * 9 + ch[0];
                    assert!(!seen[idx], "child {ch:?} covered twice");
                    seen[idx] = true;
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn vcycle_reduces_residual_2d() {
        let out = with_n(4, |comm| {
            let mg = Multigrid::new(comm, &[32, 32], 1.0 / 32.0, 3, ScatterBackend::HandTuned);
            let da = mg.fine_da();
            let mut b = PVec::zeros(da.global_layout().clone(), comm.rank());
            b.set_all(1.0);
            let mut x = PVec::zeros(da.global_layout().clone(), comm.rank());
            let op = LaplacianOp::new(da, 1.0 / 32.0);
            let r0 = b.norm2(comm);
            // The first cycle can transiently raise the residual *norm*
            // (V-cycles contract the error, not the residual); after a few
            // cycles the ~0.3 asymptotic factor must show.
            for _ in 0..3 {
                mg.vcycle(comm, 0, &b, &mut x);
            }
            let mut r = PVec::zeros(da.global_layout().clone(), comm.rank());
            op.apply(comm, &x, &mut r, ScatterBackend::HandTuned);
            r.scale(comm, -1.0);
            r.axpy(comm, 1.0, &b);
            (r0, r.norm2(comm))
        });
        for (r0, r1) in &out {
            assert!(
                r1 < &(0.1 * r0),
                "three V-cycles should reduce the residual 10x ({r0} -> {r1})"
            );
        }
    }

    #[test]
    fn mg_preconditioned_richardson_solves_poisson_3d() {
        let out = with_n(8, |comm| {
            let n = 16;
            let h = 1.0 / n as f64;
            let mg = Multigrid::new(comm, &[n, n, n], h, 3, ScatterBackend::Datatype);
            let da = mg.fine_da();
            let op = LaplacianOp::new(da, h);
            let mut b = PVec::zeros(da.global_layout().clone(), comm.rank());
            b.set_all(1.0);
            let mut x = PVec::zeros(da.global_layout().clone(), comm.rank());
            let settings = KspSettings {
                rtol: 1e-8,
                max_it: 60,
                backend: ScatterBackend::Datatype,
            };
            let res = richardson(comm, &op, &mg, 1.0, &b, &mut x, &settings);
            (res.converged, res.iterations, x.sum(comm))
        });
        let (conv, iters, sum) = out[0];
        assert!(
            conv,
            "MG-Richardson failed to converge in {iters} iterations"
        );
        assert!(iters < 60);
        // The solution of -∇²u = 1 with zero BCs is positive everywhere.
        assert!(sum > 0.0);
        for o in &out {
            assert_eq!(o.2, sum, "all ranks agree on the answer");
        }
    }

    #[test]
    fn mg_levels_have_halved_dims() {
        with_n(2, |comm| {
            let mg = Multigrid::new(comm, &[20, 20], 0.05, 3, ScatterBackend::HandTuned);
            assert_eq!(mg.levels.len(), 3);
            assert_eq!(mg.level_da(0).dims()[0], 20);
            assert_eq!(mg.level_da(1).dims()[0], 10);
            assert_eq!(mg.level_da(2).dims()[0], 5);
        });
    }
}
