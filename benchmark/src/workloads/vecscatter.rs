//! `vecscatter_128` — Figure 16 at 128 ranks: 4096 elements per rank,
//! most shifted to the next rank's block, every 16th sent half the
//! machine away (by a stride taken from the seed). One `VecScatter` plan
//! is created, then applied repeatedly three ways: datatypes + alltoallw
//! over the optimized personality, PETSc-style hand-tuned pack/send, and
//! datatypes over the baseline (zero-byte-heavy round robin).
//!
//! Why: repeated application of one plan with no compute to hide behind —
//! where persistent plans, datatype canonicalization and alltoallw
//! binning must show in both clocks, and where the hand-tuned path guards
//! against paying for them.

use ncd_core::{Comm, MpiConfig};
use ncd_petsc::{IndexSet, Layout, PVec, ScatterBackend, VecScatter};
use ncd_simnet::{ClusterConfig, Rank};

use crate::harness::{ClusterWorkload, Harness, PhaseDefs};
use crate::util::Rng;
use crate::workloads::Scale;

pub struct Vecscatter {
    pub ranks: usize,
    pub local: usize,
    pub seed: u64,
    pub phases: PhaseDefs,
    /// Long-range jump of every 16th element: half the machine plus a
    /// seeded quarter to three quarters of a block. A multiple of 16, so
    /// the map stays a permutation; never a whole block, so every seed
    /// splits each rank's long-range elements over the same two peers in
    /// comparable shares.
    jump: usize,
}

impl Vecscatter {
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (ranks, local, phases): (usize, usize, PhaseDefs) = match scale {
            Scale::Full => (
                128,
                4096,
                &[
                    ("scatter_dt", 80),
                    ("scatter_hand", 80),
                    ("scatter_base", 20),
                ],
            ),
            Scale::Probe => (
                32,
                4096,
                &[
                    ("scatter_dt", 40),
                    ("scatter_hand", 40),
                    ("scatter_base", 10),
                ],
            ),
            Scale::Quick => (
                8,
                256,
                &[("scatter_dt", 4), ("scatter_hand", 4), ("scatter_base", 2)],
            ),
        };
        let n = ranks * local;
        let jump = n / 2 + 16 * Rng::new(seed).range(local / 64, 3 * local / 64);
        Vecscatter {
            ranks,
            local,
            seed,
            phases,
            jump,
        }
    }

    fn n_global(&self) -> usize {
        self.ranks * self.local
    }

    /// Where global source element `g` goes.
    fn dest_of(&self, g: usize) -> usize {
        let n = self.n_global();
        if g.is_multiple_of(16) {
            (g + self.jump) % n
        } else {
            (g + self.local) % n
        }
    }

    /// The source element that lands on `d` — written from the map's
    /// definition, not by running it forwards.
    fn source_of(&self, d: usize) -> usize {
        let n = self.n_global();
        if d.is_multiple_of(16) {
            (d + n - self.jump) % n
        } else {
            (d + n - self.local) % n
        }
    }

    /// Value of source element `g` during operation `stamp`: the first
    /// element of every block carries the stamp.
    fn x_value(&self, g: usize, stamp: u32) -> f64 {
        let base = (Rng::lane(self.seed, g as u64).next_u64() >> 12) as f64;
        if g.is_multiple_of(self.local) {
            base + stamp as f64
        } else {
            base
        }
    }
}

impl ClusterWorkload for Vecscatter {
    fn name(&self) -> &'static str {
        "vecscatter_128"
    }

    fn cluster(&self) -> ClusterConfig {
        ClusterConfig::paper_testbed(self.ranks).with_seed(self.seed)
    }

    fn phases(&self) -> PhaseDefs {
        self.phases
    }

    fn rank_main(&self, h: &Harness, rank: &mut Rank) {
        let me = rank.rank();
        let layout = Layout::balanced(self.n_global(), self.ranks);
        let (s, e) = layout.range(me);
        let mut x = PVec::from_local(
            layout.clone(),
            me,
            (s..e).map(|g| self.x_value(g, 0)).collect(),
        );
        let mut y = PVec::zeros(layout.clone(), me);
        let plan = h.setup_step("plan_build", || {
            let src = IndexSet::stride(s, 1, e - s);
            let dst = IndexSet::general((s..e).map(|g| self.dest_of(g)).collect::<Vec<_>>());
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            VecScatter::create(&mut comm, layout.clone(), &src, layout.clone(), &dst)
        });
        let mut stamp = 0u32;
        let mut one = |comm: &mut Comm, backend, y: &mut PVec| {
            stamp += 1;
            x.local_mut()[0] = self.x_value(s, stamp);
            plan.apply(comm, &x, y, backend);
            stamp
        };
        let variants = [
            (MpiConfig::optimized(), ScatterBackend::Datatype),
            (MpiConfig::optimized(), ScatterBackend::HandTuned),
            (MpiConfig::baseline(), ScatterBackend::Datatype),
        ];
        h.setup_step("warmup", || {
            for (cfg, backend) in &variants {
                one(&mut Comm::new(rank, cfg.clone()), *backend, &mut y);
            }
        });
        if !h.end_setup(rank) {
            return;
        }
        let mut round = 0;
        loop {
            for (idx, (cfg, backend)) in variants.iter().enumerate() {
                let mut last = 0;
                h.phase(rank, cfg, round, idx, |comm| {
                    for _ in 0..self.phases[idx].1 {
                        last = one(comm, *backend, &mut y);
                    }
                });
                let ok = (s..e)
                    .zip(y.local())
                    .all(|(d, &got)| got == self.x_value(self.source_of(d), last));
                h.check(round, idx, ok);
            }
            if !h.next_round(round) {
                break;
            }
            round += 1;
        }
    }
}
