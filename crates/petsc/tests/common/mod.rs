//! Reference forms of the multigrid arithmetic, kept as the oracle the
//! row-wise kernels in `ncd_petsc::mg` are compared against bit for bit:
//! the per-point walk of the Laplacian and the `(slot, weight)` list form
//! of cell-centred linear interpolation, exactly as the library computed
//! them before the V-cycle was rewritten to stream memory once.

use std::collections::HashMap;
use std::sync::Arc;

use ncd_core::Comm;
use ncd_petsc::{DistributedArray, Layout, PVec, ScatterBackend, VecScatter};

/// `y = A x` for the cell-centred (negative) Laplacian with spacing `h`:
/// one owned point at a time, every neighbour behind a branch and an
/// offset computation; a fresh local form per call.
pub fn apply_per_point(
    comm: &mut Comm,
    da: &DistributedArray,
    h: f64,
    x: &PVec,
    y: &mut PVec,
    backend: ScatterBackend,
) {
    let h2inv = 1.0 / (h * h);
    let mut local = da.create_local_vec();
    da.global_to_local(comm, x, &mut local, backend);
    let dims = da.dims();
    let ndim = da.ndim();
    let l = local.local();
    let mut flops = 0u64;
    for (off, p) in da.owned_points().enumerate() {
        let mut diag = 0.0;
        for d in 0..ndim {
            diag += if p[d] > 0 { 1.0 } else { 2.0 };
            diag += if p[d] + 1 < dims[d] { 1.0 } else { 2.0 };
        }
        let mut acc = diag * l[da.local_vec_offset(p, 0)];
        for d in 0..ndim {
            if p[d] > 0 {
                let mut q = p;
                q[d] -= 1;
                acc -= l[da.local_vec_offset(q, 0)];
            }
            if p[d] + 1 < dims[d] {
                let mut q = p;
                q[d] += 1;
                acc -= l[da.local_vec_offset(q, 0)];
            }
        }
        y.local_mut()[off] = acc * h2inv;
        flops += 2 * ndim as u64 + 2;
    }
    comm.rank_mut().compute_flops(flops);
}

/// Cell-centred linear interpolation as a CSR list: the entries of owned
/// fine point `i` are `entries[starts[i]..starts[i + 1]]`, each a gather
/// buffer slot and its weight, ordered by the coarse global index.
pub struct ListInterp {
    plan: VecScatter,
    buf_layout: Arc<Layout>,
    starts: Vec<u32>,
    entries: Vec<(u32, f64)>,
}

impl ListInterp {
    /// Collective: a fine cell centre lies between its parent coarse cell
    /// centre (3/4 per dimension) and the adjacent coarse cell on the
    /// other side (1/4); at the grid boundary the missing neighbour's
    /// weight folds back onto the parent.
    pub fn build(comm: &mut Comm, fine: &DistributedArray, coarse: &DistributedArray) -> Self {
        let ndim = fine.ndim();
        let cdims = coarse.dims();
        let mut unique: Vec<usize> = Vec::new();
        let mut slot_of: HashMap<usize, u32> = HashMap::new();
        let mut starts: Vec<u32> = vec![0];
        let mut entries: Vec<(u32, f64)> = Vec::new();

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
            let mut accum: HashMap<usize, f64> = HashMap::new();
            for &(cz, wz) in &dim_pts[2][..] {
                if wz == 0.0 {
                    continue;
                }
                for &(cy, wy) in &dim_pts[1][..] {
                    if wy == 0.0 {
                        continue;
                    }
                    for &(cx, wx) in &dim_pts[0][..] {
                        if wx == 0.0 {
                            continue;
                        }
                        let g = coarse.global_vec_index([cx, cy, cz], 0);
                        *accum.entry(g).or_insert(0.0) += wx * wy * wz;
                    }
                }
            }
            let mut pts: Vec<(usize, f64)> = accum.into_iter().collect();
            pts.sort_unstable_by_key(|&(g, _)| g);
            for (g, w) in pts {
                let slot = *slot_of.entry(g).or_insert_with(|| {
                    unique.push(g);
                    (unique.len() - 1) as u32
                });
                entries.push((slot, w));
            }
            starts.push(entries.len() as u32);
        }
        let (plan, buf_layout) =
            VecScatter::gather_plan(comm, coarse.global_layout().clone(), unique);
        ListInterp {
            plan,
            buf_layout,
            starts,
            entries,
        }
    }

    /// `fine_x += P coarse_x`.
    pub fn interp_add(
        &self,
        comm: &mut Comm,
        coarse_x: &PVec,
        fine_x: &mut PVec,
        backend: ScatterBackend,
    ) {
        let mut buf = PVec::zeros(self.buf_layout.clone(), comm.rank());
        self.plan.apply(comm, coarse_x, &mut buf, backend);
        let vals = buf.local();
        for (i, xi) in fine_x.local_mut().iter_mut().enumerate() {
            let mut acc = 0.0;
            let (s, e) = (self.starts[i] as usize, self.starts[i + 1] as usize);
            for &(slot, w) in &self.entries[s..e] {
                acc += w * vals[slot as usize];
            }
            *xi += acc;
        }
        comm.rank_mut().compute_flops(2 * self.entries.len() as u64);
    }
}
