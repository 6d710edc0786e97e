//! Distributed vectors (`Vec` in PETSc — named `PVec` here to avoid the
//! obvious collision with `std::vec::Vec`).
//!
//! A `PVec` is this rank's contiguous slice of a globally distributed array
//! of `f64`, plus the shared [`Layout`] describing the partition. Local
//! arithmetic charges simulated compute time through the communicator;
//! reductions (norms, dots) go through the allreduce collective.

use std::sync::Arc;

use ncd_core::{view, Comm};

use crate::layout::Layout;

/// This rank's portion of a distributed vector.
#[derive(Clone, Debug)]
pub struct PVec {
    layout: Arc<Layout>,
    local: Vec<f64>,
    rank: usize,
}

impl PVec {
    /// Create a zeroed distributed vector over `layout` for `rank`.
    pub fn zeros(layout: Arc<Layout>, rank: usize) -> Self {
        let n = layout.local_size(rank);
        PVec {
            layout,
            local: vec![0.0; n],
            rank,
        }
    }

    /// Create from this rank's local values (length must match the layout).
    pub fn from_local(layout: Arc<Layout>, rank: usize, local: Vec<f64>) -> Self {
        assert_eq!(
            local.len(),
            layout.local_size(rank),
            "local data does not match layout"
        );
        PVec {
            layout,
            local,
            rank,
        }
    }

    pub fn layout(&self) -> &Arc<Layout> {
        &self.layout
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn local_size(&self) -> usize {
        self.local.len()
    }

    pub fn global_size(&self) -> usize {
        self.layout.global_size()
    }

    /// Global range `[start, end)` owned here.
    pub fn ownership_range(&self) -> (usize, usize) {
        self.layout.range(self.rank)
    }

    pub fn local(&self) -> &[f64] {
        &self.local
    }

    pub fn local_mut(&mut self) -> &mut [f64] {
        &mut self.local
    }

    /// Fill with a constant.
    pub fn set_all(&mut self, v: f64) {
        self.local.fill(v);
    }

    /// `self += alpha * x` (BLAS axpy). Charges 2 flops per element.
    pub fn axpy(&mut self, comm: &mut Comm, alpha: f64, x: &PVec) {
        assert_eq!(self.local.len(), x.local.len(), "axpy length mismatch");
        for (a, b) in self.local.iter_mut().zip(&x.local) {
            *a += alpha * b;
        }
        comm.rank_mut().compute_flops(2 * self.local.len() as u64);
    }

    /// `self = alpha * self + x` (BLAS aypx).
    pub fn aypx(&mut self, comm: &mut Comm, alpha: f64, x: &PVec) {
        assert_eq!(self.local.len(), x.local.len(), "aypx length mismatch");
        for (a, b) in self.local.iter_mut().zip(&x.local) {
            *a = alpha * *a + b;
        }
        comm.rank_mut().compute_flops(2 * self.local.len() as u64);
    }

    /// `self *= alpha`.
    pub fn scale(&mut self, comm: &mut Comm, alpha: f64) {
        for a in &mut self.local {
            *a *= alpha;
        }
        comm.rank_mut().compute_flops(self.local.len() as u64);
    }

    /// Copy values from `x` (same layout).
    pub fn copy_from(&mut self, x: &PVec) {
        assert_eq!(self.local.len(), x.local.len());
        self.local.copy_from_slice(&x.local);
    }

    /// Global dot product (collective).
    pub fn dot(&self, comm: &mut Comm, x: &PVec) -> f64 {
        assert_eq!(self.local.len(), x.local.len(), "dot length mismatch");
        let mut s = 0.0;
        for (a, b) in self.local.iter().zip(&x.local) {
            s += a * b;
        }
        comm.rank_mut().compute_flops(2 * self.local.len() as u64);
        comm.allreduce_scalar(s)
    }

    /// Global 2-norm (collective).
    pub fn norm2(&self, comm: &mut Comm) -> f64 {
        let mut s = 0.0;
        for a in &self.local {
            s += a * a;
        }
        comm.rank_mut().compute_flops(2 * self.local.len() as u64);
        comm.allreduce_scalar(s).sqrt()
    }

    /// Global infinity-norm (collective): one `allgather` of the per-rank
    /// local maxima (one double each), then the max over them.
    pub fn norm_inf(&self, comm: &mut Comm) -> f64 {
        let local_max = self.local.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        comm.rank_mut().compute_flops(self.local.len() as u64);
        let mut all = vec![0u8; 8 * comm.size()];
        comm.allgather(view::f64s_as_bytes(&[local_max]), &mut all);
        view::f64s_in(&all).fold(0.0, f64::max)
    }

    /// Global sum of all entries (collective).
    pub fn sum(&self, comm: &mut Comm) -> f64 {
        let s: f64 = self.local.iter().sum();
        comm.rank_mut().compute_flops(self.local.len() as u64);
        comm.allreduce_scalar(s)
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

    /// v[g] = g for all global indices.
    fn iota(comm: &Comm, n: usize) -> PVec {
        let layout = Layout::balanced(n, comm.size());
        let (s, e) = layout.range(comm.rank());
        PVec::from_local(layout, comm.rank(), (s..e).map(|g| g as f64).collect())
    }

    #[test]
    fn zeros_and_ownership() {
        let out = with_n(3, |c| {
            let v = PVec::zeros(Layout::balanced(10, 3), c.rank());
            (v.local_size(), v.ownership_range(), v.global_size())
        });
        assert_eq!(out[0], (4, (0, 4), 10));
        assert_eq!(out[1], (3, (4, 7), 10));
        assert_eq!(out[2], (3, (7, 10), 10));
    }

    #[test]
    fn dot_and_norm_agree_across_ranks() {
        let n = 17;
        let out = with_n(4, move |c| {
            let v = iota(c, n);
            (v.dot(c, &v), v.norm2(c), v.sum(c), v.norm_inf(c))
        });
        let expect_dot: f64 = (0..n).map(|g| (g * g) as f64).sum();
        let expect_sum: f64 = (0..n).map(|g| g as f64).sum();
        for (dot, norm, sum, ninf) in out {
            assert!((dot - expect_dot).abs() < 1e-9);
            assert!((norm - expect_dot.sqrt()).abs() < 1e-9);
            assert!((sum - expect_sum).abs() < 1e-9);
            assert_eq!(ninf, (n - 1) as f64);
        }
    }

    #[test]
    fn axpy_aypx_scale() {
        with_n(3, |c| {
            let mut v = iota(c, 12);
            let w = iota(c, 12);
            v.axpy(c, 2.0, &w); // v = 3g
            v.scale(c, 0.5); // v = 1.5g
            v.aypx(c, 2.0, &w); // v = 3g + g = 4g
            let (s, _) = v.ownership_range();
            for (i, &x) in v.local().iter().enumerate() {
                assert!((x - 4.0 * (s + i) as f64).abs() < 1e-12);
            }
        });
    }

    #[test]
    fn copy_from_duplicates_values() {
        with_n(2, |c| {
            let v = iota(c, 8);
            let mut u = PVec::zeros(v.layout().clone(), c.rank());
            u.set_all(-1.0); // must be fully overwritten
            u.copy_from(&v);
            let (s, _) = u.ownership_range();
            for (i, &x) in u.local().iter().enumerate() {
                assert_eq!(x, (s + i) as f64);
            }
        });
    }

    #[test]
    fn compute_time_is_charged() {
        let out = with_n(2, |c| {
            let mut v = iota(c, 1000);
            let w = iota(c, 1000);
            v.axpy(c, 1.0, &w);
            c.rank_ref().stats().compute.as_ns()
        });
        assert!(out[0] > 0);
    }
}
