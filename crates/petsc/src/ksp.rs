//! Krylov solvers (`KSP` in PETSc): preconditioned conjugate gradients and
//! Richardson iteration, over abstract linear operators and
//! preconditioners.

use std::sync::Arc;

use ncd_core::Comm;

use crate::layout::Layout;
use crate::mat::AijMat;
use crate::scatter::ScatterBackend;
use crate::vec::PVec;

/// A distributed linear operator `y = A x`.
pub trait LinearOp {
    fn layout(&self) -> &Arc<Layout>;
    fn apply(&self, comm: &mut Comm, x: &PVec, y: &mut PVec, backend: ScatterBackend);
}

impl LinearOp for AijMat {
    fn layout(&self) -> &Arc<Layout> {
        self.row_layout()
    }

    fn apply(&self, comm: &mut Comm, x: &PVec, y: &mut PVec, backend: ScatterBackend) {
        self.mat_mult(comm, x, y, backend);
    }
}

/// A preconditioner `z = M⁻¹ r`.
pub trait Preconditioner {
    fn apply(&self, comm: &mut Comm, r: &PVec, z: &mut PVec, backend: ScatterBackend);
}

/// No preconditioning: `z = r`.
pub struct IdentityPc;

impl Preconditioner for IdentityPc {
    fn apply(&self, _comm: &mut Comm, r: &PVec, z: &mut PVec, _backend: ScatterBackend) {
        z.copy_from(r);
    }
}

/// Point-Jacobi: `z = D⁻¹ r`.
pub struct JacobiPc {
    inv_diag: Vec<f64>,
}

impl JacobiPc {
    /// Build from an assembled matrix's diagonal (zeros become ones so the
    /// preconditioner stays well-defined on empty rows).
    pub fn from_mat(mat: &AijMat) -> JacobiPc {
        JacobiPc {
            inv_diag: mat
                .diagonal()
                .into_iter()
                .map(|d| if d == 0.0 { 1.0 } else { 1.0 / d })
                .collect(),
        }
    }
}

impl Preconditioner for JacobiPc {
    fn apply(&self, comm: &mut Comm, r: &PVec, z: &mut PVec, _backend: ScatterBackend) {
        assert_eq!(r.local_size(), self.inv_diag.len(), "Jacobi size mismatch");
        for ((zi, ri), di) in z.local_mut().iter_mut().zip(r.local()).zip(&self.inv_diag) {
            *zi = ri * di;
        }
        comm.rank_mut().compute_flops(self.inv_diag.len() as u64);
    }
}

/// Absolute tolerance on the residual's 2-norm, PETSc's default.
const ATOL: f64 = 1e-50;

/// Solver tolerances and iteration limits.
#[derive(Clone, Copy, Debug)]
pub struct KspSettings {
    /// Relative tolerance on the (preconditioned residual's) 2-norm.
    pub rtol: f64,
    pub max_it: usize,
    /// Which scatter backend the operator/PC applications use.
    pub backend: ScatterBackend,
}

impl Default for KspSettings {
    fn default() -> Self {
        KspSettings {
            rtol: 1e-8,
            max_it: 10_000,
            backend: ScatterBackend::HandTuned,
        }
    }
}

/// Outcome of a solve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KspResult {
    pub converged: bool,
    pub iterations: usize,
    /// Final true-residual 2-norm.
    pub residual_norm: f64,
}

/// Preconditioned conjugate gradients. `x` carries the initial guess and
/// receives the solution.
pub fn cg(
    comm: &mut Comm,
    op: &dyn LinearOp,
    pc: &dyn Preconditioner,
    b: &PVec,
    x: &mut PVec,
    settings: &KspSettings,
) -> KspResult {
    let backend = settings.backend;
    let layout = op.layout().clone();
    let rank = comm.rank();

    let mut r = PVec::zeros(layout.clone(), rank);
    let mut z = PVec::zeros(layout.clone(), rank);
    let mut p = PVec::zeros(layout.clone(), rank);
    let mut ap = PVec::zeros(layout.clone(), rank);

    // r = b - A x
    op.apply(comm, x, &mut r, backend);
    r.scale(comm, -1.0);
    r.axpy(comm, 1.0, b);

    let bnorm = b.norm2(comm).max(f64::MIN_POSITIVE);
    let mut rnorm = r.norm2(comm);
    if rnorm <= settings.rtol * bnorm || rnorm <= ATOL {
        return KspResult {
            converged: true,
            iterations: 0,
            residual_norm: rnorm,
        };
    }

    pc.apply(comm, &r, &mut z, backend);
    p.copy_from(&z);
    let mut rz = r.dot(comm, &z);

    for it in 1..=settings.max_it {
        op.apply(comm, &p, &mut ap, backend);
        let pap = p.dot(comm, &ap);
        assert!(
            pap > 0.0,
            "CG breakdown: operator or preconditioner not positive definite (p·Ap = {pap})"
        );
        let alpha = rz / pap;
        x.axpy(comm, alpha, &p);
        r.axpy(comm, -alpha, &ap);
        rnorm = r.norm2(comm);
        if rnorm <= settings.rtol * bnorm || rnorm <= ATOL {
            return KspResult {
                converged: true,
                iterations: it,
                residual_norm: rnorm,
            };
        }
        pc.apply(comm, &r, &mut z, backend);
        let rz_new = r.dot(comm, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        // p = z + beta p
        p.aypx(comm, beta, &z);
    }
    KspResult {
        converged: false,
        iterations: settings.max_it,
        residual_norm: rnorm,
    }
}

/// Preconditioned Richardson iteration `x ← x + s·M⁻¹(b − A x)`; with an
/// exact-enough preconditioner (e.g. a multigrid V-cycle) and `s = 1` this
/// is the classic stand-alone multigrid solver loop.
pub fn richardson(
    comm: &mut Comm,
    op: &dyn LinearOp,
    pc: &dyn Preconditioner,
    scale: f64,
    b: &PVec,
    x: &mut PVec,
    settings: &KspSettings,
) -> KspResult {
    let backend = settings.backend;
    let layout = op.layout().clone();
    let rank = comm.rank();
    let mut r = PVec::zeros(layout.clone(), rank);
    let mut z = PVec::zeros(layout.clone(), rank);

    let bnorm = b.norm2(comm).max(f64::MIN_POSITIVE);
    let mut rnorm = f64::INFINITY;
    for it in 0..=settings.max_it {
        op.apply(comm, x, &mut r, backend);
        r.scale(comm, -1.0);
        r.axpy(comm, 1.0, b);
        rnorm = r.norm2(comm);
        if rnorm <= settings.rtol * bnorm || rnorm <= ATOL {
            return KspResult {
                converged: true,
                iterations: it,
                residual_norm: rnorm,
            };
        }
        if it == settings.max_it {
            break;
        }
        pc.apply(comm, &r, &mut z, backend);
        x.axpy(comm, scale, &z);
    }
    KspResult {
        converged: false,
        iterations: settings.max_it,
        residual_norm: rnorm,
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

    /// Verify A x = b by applying the operator.
    fn check_solution(comm: &mut Comm, a: &AijMat, x: &PVec, b: &PVec, tol: f64) {
        let mut ax = PVec::zeros(a.row_layout().clone(), comm.rank());
        a.mat_mult(comm, x, &mut ax, ScatterBackend::HandTuned);
        ax.axpy(comm, -1.0, b);
        let err = ax.norm2(comm);
        let bn = b.norm2(comm);
        assert!(err <= tol * bn, "residual {err} vs tol {}", tol * bn);
    }

    #[test]
    fn cg_solves_1d_poisson() {
        for nranks in [1, 3, 4] {
            let out = with_n(nranks, |comm| {
                let n = 32;
                let a = laplacian_1d(comm, n);
                let layout = a.row_layout().clone();
                let mut b = PVec::zeros(layout.clone(), comm.rank());
                b.set_all(1.0);
                let mut x = PVec::zeros(layout, comm.rank());
                let res = cg(comm, &a, &IdentityPc, &b, &mut x, &KspSettings::default());
                check_solution(comm, &a, &x, &b, 1e-6);
                res
            });
            for r in &out {
                assert!(r.converged, "nranks={nranks}: {r:?}");
                // CG on the 1-D Laplacian converges in at most n steps.
                assert!(r.iterations <= 32);
            }
        }
    }

    #[test]
    fn jacobi_preconditioning_works() {
        let out = with_n(2, |comm| {
            // Badly scaled diagonal system: D x = b, D = diag(1..n).
            let n = 16;
            let layout = Layout::balanced(n, comm.size());
            let mut a = AijMat::new(layout.clone(), layout.clone(), comm.rank());
            let (s, e) = layout.range(comm.rank());
            for r in s..e {
                a.add_value(r, r, (r + 1) as f64);
            }
            a.assemble(comm);
            let pc = JacobiPc::from_mat(&a);
            let mut b = PVec::zeros(layout.clone(), comm.rank());
            b.set_all(3.0);
            let mut x = PVec::zeros(layout, comm.rank());
            let res = cg(comm, &a, &pc, &b, &mut x, &KspSettings::default());
            // With Jacobi the system becomes the identity: 1 iteration.
            (res.converged, res.iterations, x.local().to_vec())
        });
        for (conv, iters, xs) in &out {
            assert!(*conv);
            assert!(*iters <= 2, "Jacobi should give (near) instant convergence");
            let _ = xs;
        }
        // x[r] = 3 / (r+1)
        assert!((out[0].2[0] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn richardson_with_jacobi_converges_on_diagonally_dominant() {
        let out = with_n(3, |comm| {
            let n = 12;
            let layout = Layout::balanced(n, comm.size());
            let mut a = AijMat::new(layout.clone(), layout.clone(), comm.rank());
            let (s, e) = layout.range(comm.rank());
            for r in s..e {
                a.add_value(r, r, 4.0);
                if r > 0 {
                    a.add_value(r, r - 1, -1.0);
                }
                if r + 1 < n {
                    a.add_value(r, r + 1, -1.0);
                }
            }
            a.assemble(comm);
            let pc = JacobiPc::from_mat(&a);
            let mut b = PVec::zeros(layout.clone(), comm.rank());
            b.set_all(1.0);
            let mut x = PVec::zeros(layout, comm.rank());
            let settings = KspSettings {
                rtol: 1e-10,
                max_it: 500,
                ..Default::default()
            };
            let res = richardson(comm, &a, &pc, 1.0, &b, &mut x, &settings);
            check_solution(comm, &a, &x, &b, 1e-8);
            res.converged
        });
        assert!(out.iter().all(|&c| c));
    }

    #[test]
    fn cg_zero_rhs_returns_immediately() {
        let out = with_n(2, |comm| {
            let a = laplacian_1d(comm, 8);
            let layout = a.row_layout().clone();
            let b = PVec::zeros(layout.clone(), comm.rank());
            let mut x = PVec::zeros(layout, comm.rank());
            cg(comm, &a, &IdentityPc, &b, &mut x, &KspSettings::default())
        });
        assert!(out[0].converged);
        assert_eq!(out[0].iterations, 0);
    }

    #[test]
    fn cg_respects_max_it() {
        let out = with_n(1, |comm| {
            let a = laplacian_1d(comm, 64);
            let layout = a.row_layout().clone();
            let mut b = PVec::zeros(layout.clone(), comm.rank());
            b.set_all(1.0);
            let mut x = PVec::zeros(layout, comm.rank());
            let settings = KspSettings {
                rtol: 1e-14,
                max_it: 3,
                ..Default::default()
            };
            cg(comm, &a, &IdentityPc, &b, &mut x, &settings)
        });
        assert!(!out[0].converged);
        assert_eq!(out[0].iterations, 3);
    }

    #[test]
    fn cg_with_nonzero_initial_guess() {
        let out = with_n(2, |comm| {
            let a = laplacian_1d(comm, 16);
            let layout = a.row_layout().clone();
            let mut b = PVec::zeros(layout.clone(), comm.rank());
            b.set_all(1.0);
            let mut x = PVec::zeros(layout, comm.rank());
            x.set_all(5.0);
            let res = cg(comm, &a, &IdentityPc, &b, &mut x, &KspSettings::default());
            check_solution(comm, &a, &x, &b, 1e-6);
            res.converged
        });
        assert!(out.iter().all(|&c| c));
    }
}
