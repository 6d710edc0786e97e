//! Time stepping (`TS` in PETSc, the top layer of the paper's Figure 1):
//! explicit integrators for `du/dt = G(t, u)` over distributed vectors.
//!
//! Each right-hand-side evaluation of a PDE semi-discretization is a
//! stencil application — one ghost exchange — so a time-stepped run is a
//! long train of the nearest-neighbour, nonuniform-volume collectives the
//! paper optimizes.

use std::sync::Arc;

use ncd_core::Comm;

use crate::layout::Layout;
use crate::scatter::ScatterBackend;
use crate::vec::PVec;

/// A right-hand side `G(t, u)`.
pub trait RhsFunction {
    fn layout(&self) -> &Arc<Layout>;
    fn eval(&self, comm: &mut Comm, t: f64, u: &PVec, dudt: &mut PVec, backend: ScatterBackend);
}

/// Explicit integration scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TsScheme {
    /// Forward Euler (first order).
    Euler,
    /// Classic fourth-order Runge–Kutta.
    Rk4,
}

/// Integration settings.
#[derive(Clone, Copy, Debug)]
pub struct TsSettings {
    pub scheme: TsScheme,
    pub dt: f64,
    pub steps: usize,
    pub backend: ScatterBackend,
}

/// Integrate `u` from `t0` over `settings.steps` steps of `settings.dt`.
/// Returns the final time.
pub fn integrate(
    comm: &mut Comm,
    rhs: &dyn RhsFunction,
    t0: f64,
    u: &mut PVec,
    settings: &TsSettings,
) -> f64 {
    assert!(settings.dt > 0.0, "time step must be positive");
    let backend = settings.backend;
    let layout = rhs.layout().clone();
    let rank = comm.rank();
    let zeros = || PVec::zeros(layout.clone(), rank);
    let mut t = t0;
    match settings.scheme {
        TsScheme::Euler => {
            let mut k = zeros();
            for _ in 0..settings.steps {
                rhs.eval(comm, t, u, &mut k, backend);
                u.axpy(comm, settings.dt, &k);
                t += settings.dt;
            }
        }
        TsScheme::Rk4 => {
            let (mut k1, mut k2, mut k3, mut k4) = (zeros(), zeros(), zeros(), zeros());
            let mut stage = zeros();
            let dt = settings.dt;
            for _ in 0..settings.steps {
                rhs.eval(comm, t, u, &mut k1, backend);
                stage.copy_from(u);
                stage.axpy(comm, 0.5 * dt, &k1);
                rhs.eval(comm, t + 0.5 * dt, &stage, &mut k2, backend);
                stage.copy_from(u);
                stage.axpy(comm, 0.5 * dt, &k2);
                rhs.eval(comm, t + 0.5 * dt, &stage, &mut k3, backend);
                stage.copy_from(u);
                stage.axpy(comm, dt, &k3);
                rhs.eval(comm, t + dt, &stage, &mut k4, backend);
                // u += dt/6 (k1 + 2k2 + 2k3 + k4)
                u.axpy(comm, dt / 6.0, &k1);
                u.axpy(comm, dt / 3.0, &k2);
                u.axpy(comm, dt / 3.0, &k3);
                u.axpy(comm, dt / 6.0, &k4);
                t += dt;
            }
        }
    }
    t
}

/// The heat equation `du/dt = ∇²u` over a distributed array (homogeneous
/// Dirichlet walls), as an [`RhsFunction`].
pub struct HeatEquation<'a> {
    op: crate::mg::LaplacianOp<'a>,
}

impl<'a> HeatEquation<'a> {
    pub fn new(da: &'a crate::da::DistributedArray, h: f64) -> Self {
        HeatEquation {
            op: crate::mg::LaplacianOp::new(da, h),
        }
    }
}

impl RhsFunction for HeatEquation<'_> {
    fn layout(&self) -> &Arc<Layout> {
        use crate::ksp::LinearOp;
        self.op.layout()
    }

    fn eval(&self, comm: &mut Comm, _t: f64, u: &PVec, dudt: &mut PVec, backend: ScatterBackend) {
        use crate::ksp::LinearOp;
        // LaplacianOp is -∇², so negate.
        self.op.apply(comm, u, dudt, backend);
        dudt.scale(comm, -1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::da::{DistributedArray, StencilKind};
    use ncd_core::{view, MpiConfig};
    use ncd_simnet::{Cluster, ClusterConfig};
    use std::f64::consts::PI;

    fn with_n<R: Send>(n: usize, f: impl Fn(&mut Comm) -> R + Send + Sync) -> Vec<R> {
        Cluster::new(ClusterConfig::uniform(n)).run(move |rank| {
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            f(&mut comm)
        })
    }

    /// Set u = sin(pi x) over a 1-D cell-centred grid on [0, 1].
    fn sine_mode(da: &DistributedArray, h: f64, u: &mut PVec) {
        for (off, p) in da.owned_points().enumerate() {
            let x = (p[0] as f64 + 0.5) * h;
            u.local_mut()[off] = (PI * x).sin();
        }
    }

    #[test]
    fn heat_decay_matches_analytic_rate() {
        let out = with_n(4, |comm| {
            let n = 64;
            let h = 1.0 / n as f64;
            let da = DistributedArray::new(comm, &[n], 1, StencilKind::Star, 1);
            let heat = HeatEquation::new(&da, h);
            let mut u = da.create_global_vec();
            sine_mode(&da, h, &mut u);
            let a0 = u.norm2(comm);
            let t_end = 0.02;
            let steps = 2000; // dt = 1e-5, far below the stability limit
            integrate(
                comm,
                &heat,
                0.0,
                &mut u,
                &TsSettings {
                    scheme: TsScheme::Rk4,
                    dt: t_end / steps as f64,
                    steps,
                    backend: ScatterBackend::HandTuned,
                },
            );
            let a1 = u.norm2(comm);
            (a0, a1)
        });
        let (a0, a1) = out[0];
        // The lowest mode decays like exp(-pi^2 t) (up to O(h^2) in the
        // discrete eigenvalue).
        let expected = (-PI * PI * 0.02f64).exp();
        let measured = a1 / a0;
        assert!(
            (measured - expected).abs() < 0.01,
            "decay {measured:.4} vs analytic {expected:.4}"
        );
    }

    #[test]
    fn rk4_beats_euler_against_fine_step_reference() {
        // Compare both schemes at a coarse step against an RK4 run at a
        // much finer step (the semi-discrete reference): the time error of
        // Euler must dominate RK4's.
        let out = with_n(2, |comm| {
            let n = 32;
            let h = 1.0 / n as f64;
            let da = DistributedArray::new(comm, &[n], 1, StencilKind::Star, 1);
            let heat = HeatEquation::new(&da, h);
            let t_end = 0.01;
            let run = |comm: &mut Comm, scheme: TsScheme, steps: usize| {
                let mut u = da.create_global_vec();
                sine_mode(&da, h, &mut u);
                integrate(
                    comm,
                    &heat,
                    0.0,
                    &mut u,
                    &TsSettings {
                        scheme,
                        dt: t_end / steps as f64,
                        steps,
                        backend: ScatterBackend::HandTuned,
                    },
                );
                u.norm2(comm)
            };
            let coarse_steps = (t_end / (h * h / 4.0)) as usize;
            let reference = run(comm, TsScheme::Rk4, coarse_steps * 20);
            let euler = run(comm, TsScheme::Euler, coarse_steps);
            let rk4 = run(comm, TsScheme::Rk4, coarse_steps);
            ((euler - reference).abs(), (rk4 - reference).abs())
        });
        let (err_euler, err_rk4) = out[0];
        assert!(
            err_rk4 < err_euler / 10.0,
            "RK4 error {err_rk4:.2e} should be far below Euler's {err_euler:.2e}"
        );
    }

    #[test]
    fn euler_unstable_beyond_cfl() {
        let out = with_n(2, |comm| {
            let n = 32;
            let h = 1.0 / n as f64;
            let da = DistributedArray::new(comm, &[n], 1, StencilKind::Star, 1);
            let heat = HeatEquation::new(&da, h);
            let mut u = da.create_global_vec();
            sine_mode(&da, h, &mut u);
            // dt well above the h^2/2 stability limit: blow-up.
            integrate(
                comm,
                &heat,
                0.0,
                &mut u,
                &TsSettings {
                    scheme: TsScheme::Euler,
                    dt: h * h * 2.0,
                    steps: 200,
                    backend: ScatterBackend::HandTuned,
                },
            );
            u.norm_inf(comm)
        });
        assert!(
            out[0] > 1e3,
            "explicit Euler above CFL must blow up: {}",
            out[0]
        );
    }

    #[test]
    fn two_dimensional_heat_conserves_symmetry() {
        let out = with_n(4, |comm| {
            let n = 16;
            let h = 1.0 / n as f64;
            let da = DistributedArray::new(comm, &[n, n], 1, StencilKind::Star, 1);
            let heat = HeatEquation::new(&da, h);
            let mut u = da.create_global_vec();
            // Symmetric initial bump.
            for (off, p) in da.owned_points().enumerate() {
                let x = (p[0] as f64 + 0.5) * h - 0.5;
                let y = (p[1] as f64 + 0.5) * h - 0.5;
                u.local_mut()[off] = (-20.0 * (x * x + y * y)).exp();
            }
            integrate(
                comm,
                &heat,
                0.0,
                &mut u,
                &TsSettings {
                    scheme: TsScheme::Rk4,
                    dt: h * h / 8.0,
                    steps: 100,
                    backend: ScatterBackend::Datatype,
                },
            );
            // Collect the full field to check the x<->y symmetry.
            let gathered = comm.gatherv(view::f64s_as_bytes(u.local()), 0);
            gathered.map(|parts| view::f64s_in(&parts.concat()).collect::<Vec<f64>>())
        });
        if let Some(all) = &out[0] {
            assert_eq!(all.len(), 16 * 16);
            // Values must stay positive and bounded.
            assert!(all.iter().all(|&v| (-1e-12..=1.0).contains(&v)));
        }
    }
}
