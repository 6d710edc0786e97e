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

    /// Read the locally owned value at global index `g`.
    pub fn get_global(&self, g: usize) -> f64 {
        let (start, end) = self.ownership_range();
        assert!(g >= start && g < end, "global index {g} not owned here");
        self.local[g - start]
    }

    /// Write the locally owned value at global index `g`.
    pub fn set_global(&mut self, g: usize, v: f64) {
        let (start, end) = self.ownership_range();
        assert!(g >= start && g < end, "global index {g} not owned here");
        self.local[g - start] = v;
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

    /// Pointwise multiply: `self[i] *= x[i]`.
    pub fn pointwise_mult(&mut self, comm: &mut Comm, x: &PVec) {
        assert_eq!(self.local.len(), x.local.len());
        for (a, b) in self.local.iter_mut().zip(&x.local) {
            *a *= b;
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

    /// Global infinity-norm (collective; uses a sum-allreduce of the local
    /// max encoded per rank, then max — implemented as two passes to keep
    /// the collective layer's reduce op simple).
    pub fn norm_inf(&self, comm: &mut Comm) -> f64 {
        let local_max = self.local.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        comm.rank_mut().compute_flops(self.local.len() as u64);
        // Gather all local maxima (small: one double per rank).
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

    /// `self = alpha * x + y` (BLAS waxpy, overwriting self).
    pub fn waxpy(&mut self, comm: &mut Comm, alpha: f64, x: &PVec, y: &PVec) {
        assert_eq!(self.local.len(), x.local.len(), "waxpy length mismatch");
        assert_eq!(self.local.len(), y.local.len(), "waxpy length mismatch");
        for ((w, a), b) in self.local.iter_mut().zip(&x.local).zip(&y.local) {
            *w = alpha * a + b;
        }
        comm.rank_mut().compute_flops(2 * self.local.len() as u64);
    }

    /// `self[i] = 1 / self[i]`; zeros are left untouched (PETSc's
    /// `VecReciprocal` convention).
    pub fn reciprocal(&mut self, comm: &mut Comm) {
        for v in &mut self.local {
            if *v != 0.0 {
                *v = 1.0 / *v;
            }
        }
        comm.rank_mut().compute_flops(self.local.len() as u64);
    }

    /// `self[i] = alpha * self[i] + beta` (shift and scale).
    pub fn scale_shift(&mut self, comm: &mut Comm, alpha: f64, beta: f64) {
        for v in &mut self.local {
            *v = alpha * *v + beta;
        }
        comm.rank_mut().compute_flops(2 * self.local.len() as u64);
    }

    /// Global maximum value and the global index where it occurs
    /// (collective; ties resolve to the lowest index).
    pub fn max_with_location(&self, comm: &mut Comm) -> (f64, usize) {
        let (start, _) = self.ownership_range();
        let mut best = (f64::NEG_INFINITY, usize::MAX);
        for (i, &v) in self.local.iter().enumerate() {
            if v > best.0 {
                best = (v, start + i);
            }
        }
        comm.rank_mut().compute_flops(self.local.len() as u64);
        // Gather all (value, index) candidates — one pair per rank.
        let mine = [best.0.to_bits(), best.1 as u64];
        let mut all = vec![0u8; 16 * comm.size()];
        comm.allgather(view::u64s_as_bytes(&mine), &mut all);
        let mut global = (f64::NEG_INFINITY, usize::MAX);
        let mut words = view::u64s_in(&all);
        while let (Some(bits), Some(ix)) = (words.next(), words.next()) {
            let (v, ix) = (f64::from_bits(bits), ix as usize);
            if v > global.0 || (v == global.0 && ix < global.1) {
                global = (v, ix);
            }
        }
        global
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
    fn get_set_global() {
        with_n(2, |c| {
            let mut v = PVec::zeros(Layout::balanced(6, 2), c.rank());
            let (s, e) = v.ownership_range();
            for g in s..e {
                v.set_global(g, g as f64 * 2.0);
            }
            assert_eq!(v.get_global(s), s as f64 * 2.0);
        });
    }

    #[test]
    #[should_panic(expected = "not owned here")]
    fn set_remote_panics() {
        with_n(2, |c| {
            let mut v = PVec::zeros(Layout::balanced(6, 2), c.rank());
            v.set_global(5 - c.rank() * 5, 1.0); // rank 0 touches 5, rank 1 touches 0
        });
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
    fn pointwise_and_copy() {
        with_n(2, |c| {
            let mut v = iota(c, 8);
            let w = iota(c, 8);
            v.pointwise_mult(c, &w);
            let mut u = PVec::zeros(v.layout().clone(), c.rank());
            u.copy_from(&v);
            let (s, _) = u.ownership_range();
            for (i, &x) in u.local().iter().enumerate() {
                let g = (s + i) as f64;
                assert_eq!(x, g * g);
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

#[cfg(test)]
mod extra_op_tests {
    use super::*;
    use ncd_core::MpiConfig;
    use ncd_simnet::{Cluster, ClusterConfig};

    fn with_n<R: Send>(n: usize, f: impl Fn(&mut Comm) -> R + Send + Sync) -> Vec<R> {
        Cluster::new(ClusterConfig::uniform(n)).run(move |rank| {
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            f(&mut comm)
        })
    }

    fn iota(comm: &Comm, n: usize) -> PVec {
        let layout = Layout::balanced(n, comm.size());
        let (s, e) = layout.range(comm.rank());
        PVec::from_local(layout, comm.rank(), (s..e).map(|g| g as f64).collect())
    }

    #[test]
    fn waxpy_overwrites() {
        with_n(3, |c| {
            let x = iota(c, 9);
            let y = iota(c, 9);
            let mut w = PVec::zeros(x.layout().clone(), c.rank());
            w.set_all(999.0); // must be fully overwritten
            w.waxpy(c, 3.0, &x, &y);
            let (s, _) = w.ownership_range();
            for (i, &v) in w.local().iter().enumerate() {
                assert_eq!(v, 4.0 * (s + i) as f64);
            }
        });
    }

    #[test]
    fn reciprocal_skips_zeros() {
        with_n(2, |c| {
            let mut v = iota(c, 6); // includes global 0 -> value 0.0
            v.reciprocal(c);
            let (s, _) = v.ownership_range();
            for (i, &x) in v.local().iter().enumerate() {
                let g = s + i;
                if g == 0 {
                    assert_eq!(x, 0.0);
                } else {
                    assert!((x - 1.0 / g as f64).abs() < 1e-15);
                }
            }
        });
    }

    #[test]
    fn scale_shift_is_affine() {
        with_n(2, |c| {
            let mut v = iota(c, 8);
            v.scale_shift(c, 2.0, -3.0);
            let (s, _) = v.ownership_range();
            for (i, &x) in v.local().iter().enumerate() {
                assert_eq!(x, 2.0 * (s + i) as f64 - 3.0);
            }
        });
    }

    #[test]
    fn max_with_location_finds_global_peak() {
        let out = with_n(4, |c| {
            let layout = Layout::balanced(13, c.size());
            let (s, e) = layout.range(c.rank());
            // Peak of 100 at global index 7, everything else small.
            let local: Vec<f64> = (s..e)
                .map(|g| if g == 7 { 100.0 } else { g as f64 * 0.1 })
                .collect();
            let v = PVec::from_local(layout, c.rank(), local);
            v.max_with_location(c)
        });
        assert!(out.iter().all(|&(v, ix)| v == 100.0 && ix == 7));
    }

    #[test]
    fn max_with_location_breaks_ties_low() {
        let out = with_n(3, |c| {
            let layout = Layout::balanced(9, c.size());
            let mut v = PVec::zeros(layout, c.rank());
            v.set_all(5.0); // all equal
            v.max_with_location(c)
        });
        assert!(out.iter().all(|&(v, ix)| v == 5.0 && ix == 0));
    }
}
