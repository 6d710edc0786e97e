//! Sparse matrices in AIJ (CSR) format with parallel row distribution and
//! off-process assembly — the `MatMPIAIJ` analogue.
//!
//! Rows are partitioned like vectors; values may be set for *any* global
//! row (off-process contributions are stashed and routed to the owner at
//! assembly time, like PETSc's `MatSetValues` + `MatAssemblyBegin/End`).
//! Duplicate entries are summed (`ADD_VALUES` semantics).
//!
//! `mat_mult` gathers the off-process entries of `x` that local rows
//! reference through a [`VecScatter`] gather plan built at assembly, so the
//! halo exchange runs over whichever scatter backend the caller picks.

use std::collections::HashMap;
use std::sync::Arc;

use ncd_core::Comm;
use ncd_simnet::Tag;

use crate::layout::Layout;
use crate::scatter::{route, ScatterBackend, VecScatter};
use crate::vec::PVec;

const MAT_STASH_TAG: Tag = Tag(0x4000_0020);

/// Column reference after assembly: either a local column (owned part of
/// `x`) or a slot in the gathered ghost buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ColRef {
    Local(usize),
    Ghost(usize),
}

/// A distributed sparse matrix in CSR form.
pub struct AijMat {
    row_layout: Arc<Layout>,
    col_layout: Arc<Layout>,
    rank: usize,
    /// Pre-assembly triplets (global row, global col, value).
    pending: Vec<(usize, usize, f64)>,
    assembled: bool,
    row_ptr: Vec<usize>,
    cols: Vec<ColRef>,
    vals: Vec<f64>,
    /// Sorted unique global indices of off-process columns.
    ghost_cols: Vec<usize>,
    ghost_gather: Option<(VecScatter, Arc<Layout>)>,
}

impl AijMat {
    /// New empty matrix with the given row/column distributions.
    pub fn new(row_layout: Arc<Layout>, col_layout: Arc<Layout>, rank: usize) -> AijMat {
        AijMat {
            row_layout,
            col_layout,
            rank,
            pending: Vec::new(),
            assembled: false,
            row_ptr: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
            ghost_cols: Vec::new(),
            ghost_gather: None,
        }
    }

    pub fn row_layout(&self) -> &Arc<Layout> {
        &self.row_layout
    }

    /// Add `v` to entry (grow, gcol). Any rank may contribute to any row.
    pub fn add_value(&mut self, grow: usize, gcol: usize, v: f64) {
        assert!(!self.assembled, "matrix already assembled");
        assert!(
            grow < self.row_layout.global_size(),
            "row {grow} out of range"
        );
        assert!(
            gcol < self.col_layout.global_size(),
            "col {gcol} out of range"
        );
        self.pending.push((grow, gcol, v));
    }

    /// Collective assembly: route stashed off-process rows to their owners,
    /// deduplicate (summing), build CSR and the ghost-column gather plan.
    pub fn assemble(&mut self, comm: &mut Comm) {
        assert!(!self.assembled, "matrix already assembled");
        let rank = comm.rank();
        let (row_start, row_end) = self.row_layout.range(rank);

        // Route off-process triplets to the row owner.
        let mut outgoing: Vec<Vec<u64>> = vec![Vec::new(); comm.size()];
        let mut mine: Vec<(usize, usize, f64)> = Vec::new();
        let mut owner = rank;
        for &(r, c, v) in &self.pending {
            owner = self.row_layout.owner_after(owner, r);
            if owner == rank {
                mine.push((r, c, v));
            } else {
                outgoing[owner].extend([r as u64, c as u64, v.to_bits()]);
            }
        }
        self.pending.clear();
        for (_, words) in route(comm, MAT_STASH_TAG, &outgoing) {
            let triplets = words.chunks_exact(3);
            mine.extend(triplets.map(|t| (t[0] as usize, t[1] as usize, f64::from_bits(t[2]))));
        }

        // Deduplicate (sum) and build CSR over local rows.
        mine.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let nlocal = row_end - row_start;
        let mut row_ptr = vec![0usize; nlocal + 1];
        let mut cols_global: Vec<usize> = Vec::new();
        let mut vals: Vec<f64> = Vec::new();
        let mut idx = 0usize;
        for lr in 0..nlocal {
            let g = row_start + lr;
            while idx < mine.len() && mine[idx].0 == g {
                let (_, c, v) = mine[idx];
                idx += 1;
                // Sum a duplicate of the previous entry in this same row.
                if cols_global.len() > row_ptr[lr] && *cols_global.last().expect("nonempty") == c {
                    *vals.last_mut().expect("nonempty") += v;
                } else {
                    cols_global.push(c);
                    vals.push(v);
                }
            }
            row_ptr[lr + 1] = cols_global.len();
        }
        assert_eq!(idx, mine.len(), "triplet routed to wrong owner");

        // Classify columns and collect ghost columns.
        let (col_start, col_end) = self.col_layout.range(rank);
        let mut ghost_set: Vec<usize> = cols_global
            .iter()
            .copied()
            .filter(|&c| c < col_start || c >= col_end)
            .collect();
        ghost_set.sort_unstable();
        ghost_set.dedup();
        let ghost_index: HashMap<usize, usize> =
            ghost_set.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        let cols: Vec<ColRef> = cols_global
            .iter()
            .map(|&c| {
                if (col_start..col_end).contains(&c) {
                    ColRef::Local(c - col_start)
                } else {
                    ColRef::Ghost(ghost_index[&c])
                }
            })
            .collect();

        // Build the ghost gather plan (collective).
        let (plan, buf_layout) =
            VecScatter::gather_plan(comm, self.col_layout.clone(), ghost_set.clone());

        self.row_ptr = row_ptr;
        self.cols = cols;
        self.vals = vals;
        self.ghost_cols = ghost_set;
        self.ghost_gather = Some((plan, buf_layout));
        self.assembled = true;
    }

    /// `y = A x` (collective). `x` over the column layout, `y` over the row
    /// layout.
    pub fn mat_mult(&self, comm: &mut Comm, x: &PVec, y: &mut PVec, backend: ScatterBackend) {
        assert!(self.assembled, "assemble before mat_mult");
        assert_eq!(x.layout(), &self.col_layout, "x layout mismatch");
        assert_eq!(y.layout(), &self.row_layout, "y layout mismatch");
        let (plan, buf_layout) = self.ghost_gather.as_ref().expect("assembled");
        let mut ghosts = PVec::zeros(buf_layout.clone(), self.rank);
        // Start the halo gather, then compute every purely local row while
        // the ghost values are in flight; rows touching ghost columns run
        // after the gather completes.
        let handle = plan.begin(comm, x, &mut ghosts, backend);
        let row = |ghosts: &PVec, i: usize| {
            let mut acc = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let xv = match self.cols[k] {
                    ColRef::Local(lc) => x.local()[lc],
                    ColRef::Ghost(g) => ghosts.local()[g],
                };
                acc += self.vals[k] * xv;
            }
            acc
        };
        let nlocal = self.row_ptr.len() - 1;
        let mut boundary = Vec::new();
        let mut interior_nnz = 0u64;
        for i in 0..nlocal {
            let nnz = self.row_ptr[i + 1] - self.row_ptr[i];
            if self.cols[self.row_ptr[i]..self.row_ptr[i + 1]]
                .iter()
                .any(|c| matches!(c, ColRef::Ghost(_)))
            {
                boundary.push(i);
            } else {
                y.local_mut()[i] = row(&ghosts, i);
                interior_nnz += nnz as u64;
            }
        }
        comm.rank_mut().compute_flops(2 * interior_nnz);
        plan.end(comm, handle, &mut ghosts);
        let boundary_nnz = self.vals.len() as u64 - interior_nnz;
        for &i in &boundary {
            y.local_mut()[i] = row(&ghosts, i);
        }
        comm.rank_mut().compute_flops(2 * boundary_nnz);
    }

    /// The locally owned diagonal entries (zero where absent).
    pub fn diagonal(&self) -> Vec<f64> {
        assert!(self.assembled, "assemble before reading the diagonal");
        let (row_start, _) = self.row_layout.range(self.rank);
        let (col_start, col_end) = self.col_layout.range(self.rank);
        let nlocal = self.row_ptr.len() - 1;
        let mut d = vec![0.0; nlocal];
        for (i, di) in d.iter_mut().enumerate() {
            let g = row_start + i;
            if g < col_start || g >= col_end {
                continue;
            }
            let want = ColRef::Local(g - col_start);
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                if self.cols[k] == want {
                    *di = self.vals[k];
                    break;
                }
            }
        }
        d
    }
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

    /// Assemble the 1-D Laplacian (tridiagonal [-1, 2, -1]) of size n with
    /// each rank contributing its own rows.
    fn laplacian_1d(comm: &mut Comm, n: usize) -> AijMat {
        let layout = Layout::balanced(n, comm.size());
        let mut a = AijMat::new(layout.clone(), layout, comm.rank());
        let (s, e) = a.row_layout().range(comm.rank());
        for r in s..e {
            a.add_value(r, r, 2.0);
            if r > 0 {
                a.add_value(r, r - 1, -1.0);
            }
            if r + 1 < n {
                a.add_value(r, r + 1, -1.0);
            }
        }
        a.assemble(comm);
        a
    }

    #[test]
    fn tridiagonal_mat_mult() {
        for backend in [ScatterBackend::HandTuned, ScatterBackend::Datatype] {
            let out = with_n(4, move |comm| {
                let n = 16;
                let a = laplacian_1d(comm, n);
                let layout = a.row_layout().clone();
                let (s, e) = layout.range(comm.rank());
                // x[g] = g  =>  (A x)[g] = 2g - (g-1) - (g+1) = 0 interior.
                let x = PVec::from_local(
                    layout.clone(),
                    comm.rank(),
                    (s..e).map(|g| g as f64).collect(),
                );
                let mut y = PVec::zeros(layout, comm.rank());
                a.mat_mult(comm, &x, &mut y, backend);
                (s, y.local().to_vec())
            });
            for (s, ys) in &out {
                for (i, &v) in ys.iter().enumerate() {
                    let g = s + i;
                    let expect = if g == 0 {
                        -1.0 // 2*0 - 1
                    } else if g == 15 {
                        2.0 * 15.0 - 14.0
                    } else {
                        0.0
                    };
                    assert!((v - expect).abs() < 1e-12, "row {g}: {v} vs {expect}");
                }
            }
        }
    }

    #[test]
    fn off_process_contributions_are_routed_and_summed() {
        let out = with_n(3, |comm| {
            let layout = Layout::balanced(9, comm.size());
            let mut a = AijMat::new(layout.clone(), layout.clone(), comm.rank());
            // Every rank adds 1.0 to entry (4, 4) — owned by rank 1.
            a.add_value(4, 4, 1.0);
            a.assemble(comm);
            let x = PVec::from_local(
                layout.clone(),
                comm.rank(),
                vec![1.0; layout.local_size(comm.rank())],
            );
            let mut y = PVec::zeros(layout, comm.rank());
            a.mat_mult(comm, &x, &mut y, ScatterBackend::HandTuned);
            y.local().to_vec()
        });
        // (A x)[4] = 3 (three summed contributions); everything else 0.
        assert_eq!(out[1], vec![0.0, 3.0, 0.0]);
        assert!(out[0].iter().all(|&v| v == 0.0));
        assert!(out[2].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn diagonal_extraction() {
        let out = with_n(2, |comm| {
            let a = laplacian_1d(comm, 8);
            a.diagonal()
        });
        assert_eq!(out[0], vec![2.0; 4]);
        assert_eq!(out[1], vec![2.0; 4]);
    }

    #[test]
    fn ghost_columns_counted() {
        let out = with_n(4, |comm| {
            let a = laplacian_1d(comm, 16);
            a.ghost_cols.len()
        });
        // Interior ranks reference one column on each side.
        assert_eq!(out, vec![1, 2, 2, 1]);
    }

    #[test]
    fn empty_rows_are_fine() {
        let out = with_n(2, |comm| {
            let layout = Layout::balanced(6, comm.size());
            let mut a = AijMat::new(layout.clone(), layout.clone(), comm.rank());
            if comm.rank() == 0 {
                a.add_value(0, 5, 2.5);
            }
            a.assemble(comm);
            let x = PVec::from_local(layout.clone(), comm.rank(), vec![1.0, 1.0, 1.0]);
            let mut y = PVec::zeros(layout, comm.rank());
            a.mat_mult(comm, &x, &mut y, ScatterBackend::Datatype);
            y.local().to_vec()
        });
        assert_eq!(out[0], vec![2.5, 0.0, 0.0]);
        assert_eq!(out[1], vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn rectangular_matrix() {
        // 4x8: rows over ranks, cols over ranks; y = A x picks column sums.
        let out = with_n(2, |comm| {
            let rows = Layout::balanced(4, comm.size());
            let cols = Layout::balanced(8, comm.size());
            let mut a = AijMat::new(rows.clone(), cols.clone(), comm.rank());
            let (s, e) = rows.range(comm.rank());
            for r in s..e {
                a.add_value(r, 2 * r, 1.0);
                a.add_value(r, 2 * r + 1, 1.0);
            }
            a.assemble(comm);
            let (cs, ce) = cols.range(comm.rank());
            let x = PVec::from_local(
                cols.clone(),
                comm.rank(),
                (cs..ce).map(|g| g as f64).collect(),
            );
            let mut y = PVec::zeros(rows, comm.rank());
            a.mat_mult(comm, &x, &mut y, ScatterBackend::HandTuned);
            y.local().to_vec()
        });
        // y[r] = 2r + 2r+1 = 4r + 1
        assert_eq!(out[0], vec![1.0, 5.0]);
        assert_eq!(out[1], vec![9.0, 13.0]);
    }

    #[test]
    #[should_panic(expected = "already assembled")]
    fn add_after_assemble_panics() {
        with_n(1, |comm| {
            let layout = Layout::balanced(2, 1);
            let mut a = AijMat::new(layout.clone(), layout, 0);
            a.add_value(0, 0, 1.0);
            a.assemble(comm);
            a.add_value(1, 1, 1.0);
        });
    }
}
