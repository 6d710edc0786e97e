//! `multigrid_64` — Figure 17 at 64 ranks: a 100³ cell-centred Laplacian
//! solved by Richardson iteration preconditioned with a three-level
//! V-cycle, every ghost exchange / restriction / interpolation going
//! through `alltoallw` with derived datatypes (`ScatterBackend::Datatype`)
//! under the optimized personality. One round is one solve to rtol 1e-6,
//! followed by twenty bare ghost exchanges of the fine grid (the layer
//! metric `petsc.ghost_exchange_us`; 1 % of the round).
//!
//! Why: the paper's application and the repository's longest user-facing
//! run. Real stencil and smoother arithmetic dominates, so this is the
//! workload on which scheduler or mailbox changes should *not* move
//! `wall_s`, and the one whose `setup_s` (DA + plan building) is large
//! enough to resolve.

use std::sync::Mutex;

use ncd_core::{Comm, MpiConfig};
use ncd_petsc::{
    richardson, KspSettings, LaplacianOp, Multigrid, PVec, Preconditioner, ScatterBackend,
};
use ncd_simnet::{ClusterConfig, Rank};

use crate::harness::{ClusterWorkload, Harness, PhaseDefs};
use crate::workloads::Scale;

pub struct MultigridSolve {
    pub ranks: usize,
    pub grid: usize,
    pub levels: usize,
    pub seed: u64,
    shared: Mutex<Shared>,
}

/// Host memory the ranks assemble the global solution in, so the check
/// can apply a stencil written here — not the library's operator — to it.
#[derive(Default)]
struct Shared {
    x: Vec<f64>,
    rounds: Vec<RoundAcc>,
}

#[derive(Clone, Default)]
struct RoundAcc {
    r2: f64,
    b2: f64,
    iterations: Option<usize>,
    agree: bool,
}

/// The V-cycle preconditioner, with a [`Harness::tick`] before every
/// application: the solve is one seven-second phase, and the yardstick
/// has to be sampled inside it, not just around it.
struct TickingPc<'a> {
    mg: &'a Multigrid,
    h: &'a Harness,
}

impl Preconditioner for TickingPc<'_> {
    fn apply(&self, comm: &mut Comm, r: &PVec, z: &mut PVec, backend: ScatterBackend) {
        self.h.tick(comm.rank());
        self.mg.apply(comm, r, z, backend);
    }
}

const RTOL: f64 = 1e-6;
const PHASES: PhaseDefs = &[("mg_solve", 1), ("ghost_exchange", 20)];

impl MultigridSolve {
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (ranks, grid, levels) = match scale {
            Scale::Full => (64, 100, 3),
            Scale::Probe => (8, 40, 3),
            Scale::Quick => (4, 16, 2),
        };
        MultigridSolve {
            ranks,
            grid,
            levels,
            seed,
            shared: Mutex::new(Shared {
                x: vec![0.0; grid * grid * grid],
                rounds: Vec::new(),
            }),
        }
    }

    /// Iterations round 0 took (identical on every rank, or the check
    /// failed).
    pub fn iterations(&self) -> usize {
        let g = self.shared.lock().expect("shared solution lock");
        g.rounds.first().and_then(|r| r.iterations).unwrap_or(0)
    }

    fn rhs(&self, p: [usize; 3]) -> f64 {
        let h = 1.0 / self.grid as f64;
        (p[0] as f64 + 0.5) * h + (p[1] as f64 + 0.5) * h + (p[2] as f64 + 0.5) * h
    }

    /// `(A x)(p)` for the cell-centred 7-point Laplacian with homogeneous
    /// Dirichlet walls half a cell outside the grid, on the assembled
    /// global solution.
    fn apply_reference(&self, x: &[f64], p: [usize; 3]) -> f64 {
        let n = self.grid;
        let at = |q: [usize; 3]| x[q[0] + n * (q[1] + n * q[2])];
        let mut acc = 0.0;
        for d in 0..3 {
            let mut diag = 0.0;
            if p[d] > 0 {
                let mut q = p;
                q[d] -= 1;
                acc -= at(q);
                diag += 1.0;
            } else {
                diag += 2.0;
            }
            if p[d] + 1 < n {
                let mut q = p;
                q[d] += 1;
                acc -= at(q);
                diag += 1.0;
            } else {
                diag += 2.0;
            }
            acc += diag * at(p);
        }
        acc * (n * n) as f64
    }
}

impl ClusterWorkload for MultigridSolve {
    fn name(&self) -> &'static str {
        "multigrid_64"
    }

    fn cluster(&self) -> ClusterConfig {
        ClusterConfig::paper_testbed(self.ranks).with_seed(self.seed)
    }

    fn phases(&self) -> PhaseDefs {
        PHASES
    }

    fn rank_main(&self, h: &Harness, rank: &mut Rank) {
        let backend = ScatterBackend::Datatype;
        let cfg = MpiConfig::optimized();
        let n = self.grid;
        let spacing = 1.0 / n as f64;
        let mg = h.setup_step("plan_build", || {
            let mut comm = Comm::new(rank, cfg.clone());
            Multigrid::new(&mut comm, &[n, n, n], spacing, self.levels, backend)
        });
        let da = mg.fine_da();
        let op = LaplacianOp::new(da, spacing);
        let me = rank.rank();
        let mut b = PVec::zeros(da.global_layout().clone(), me);
        for (off, p) in da.owned_points().enumerate() {
            b.local_mut()[off] = self.rhs(p);
        }
        let mut x = PVec::zeros(da.global_layout().clone(), me);
        // Warm-up: one V-cycle application, not a whole solve.
        h.setup_step("warmup", || {
            let mut comm = Comm::new(rank, cfg.clone());
            mg.vcycle(&mut comm, 0, &b, &mut x);
        });
        if !h.end_setup(rank) {
            return;
        }
        let settings = KspSettings {
            rtol: RTOL,
            max_it: 40,
            backend,
            ..Default::default()
        };
        let pc = TickingPc { mg: &mg, h };
        let mut round = 0;
        loop {
            let mut res = None;
            h.phase(rank, &cfg, round, 0, |comm| {
                x.set_all(0.0);
                res = Some(richardson(comm, &op, &pc, 1.0, &b, &mut x, &settings));
            });
            let res = res.expect("phase body ran");
            // Check: assemble the global solution in host memory, then
            // every rank computes its share of ‖b − A x‖² with the
            // reference stencil above.
            let mut comm = Comm::new(rank, cfg.clone());
            {
                let mut g = self.shared.lock().expect("shared solution lock");
                if g.rounds.len() <= round {
                    g.rounds.resize(round + 1, RoundAcc::default());
                }
                for (off, p) in da.owned_points().enumerate() {
                    g.x[p[0] + n * (p[1] + n * p[2])] = x.local()[off];
                }
                let acc = &mut g.rounds[round];
                match acc.iterations {
                    None => (acc.iterations, acc.agree) = (Some(res.iterations), true),
                    Some(it) => acc.agree &= it == res.iterations,
                }
            }
            comm.barrier();
            {
                let mut g = self.shared.lock().expect("shared solution lock");
                let (mut r2, mut b2) = (0.0, 0.0);
                for p in da.owned_points() {
                    let bp = self.rhs(p);
                    let r = bp - self.apply_reference(&g.x, p);
                    r2 += r * r;
                    b2 += bp * bp;
                }
                g.rounds[round].r2 += r2;
                g.rounds[round].b2 += b2;
            }
            comm.barrier();
            let ok = {
                let g = self.shared.lock().expect("shared solution lock");
                let acc = &g.rounds[round];
                // 1 % slack: the reference sums in a different order.
                res.converged && acc.agree && acc.r2.sqrt() <= 1.01 * RTOL * acc.b2.sqrt()
            };
            h.check(round, 0, ok);

            let mut local = da.create_local_vec();
            h.phase(rank, &cfg, round, 1, |comm| {
                for _ in 0..PHASES[1].1 {
                    da.global_to_local(comm, &b, &mut local, backend);
                }
            });
            // Every owned and ghost point of the local form holds the
            // right-hand side's value at that point.
            let (g0, glen) = da.ghosted();
            let mut ok = true;
            for z in g0[2]..g0[2] + glen[2] {
                for y in g0[1]..g0[1] + glen[1] {
                    for x in g0[0]..g0[0] + glen[0] {
                        let p = [x, y, z];
                        if da.point_in_local_form(p) {
                            ok &= local.local()[da.local_vec_offset(p, 0)] == self.rhs(p);
                        }
                    }
                }
            }
            h.check(round, 1, ok);
            if !h.next_round(round) {
                break;
            }
            round += 1;
        }
    }
}
