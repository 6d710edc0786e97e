//! `allgatherv_1k` — uniform 64 B/rank allgatherv at N = 1024 with the
//! algorithm pinned: ring (N·(N−1) ≈ 1.05 M simulated messages per
//! operation, all matched at the head of the mailbox, almost no context
//! switches because the pipeline runs ahead) and recursive doubling
//! (N·log₂N = 10 240 messages of doubling size per operation, a park per
//! round).
//!
//! Why: the per-message send path (`NetMsg` allocation, channel + deposit
//! event, head-of-queue match), fiber spawn and stack memory do nearly all
//! the work here; datatype, petsc and every observer do none.

use ncd_core::{AllgathervAlgorithm, MpiConfig};
use ncd_simnet::{ClusterConfig, CostModel, Rank};

use crate::harness::{ClusterWorkload, Harness, PhaseDefs};
use crate::util::Rng;
use crate::workloads::Scale;

pub struct Allgatherv {
    pub n: usize,
    pub seed: u64,
    pub phases: PhaseDefs,
    /// Every rank's seeded block, concatenated: what each receive buffer
    /// must hold (byte 0 of each block aside, which counts operations).
    expect: Vec<u8>,
}

const BLOCK: usize = 64;

const P_RING: usize = 0;
const P_RD: usize = 1;

impl Allgatherv {
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (n, phases): (usize, PhaseDefs) = match scale {
            Scale::Full => (1024, &[("agv_ring", 2), ("agv_rd", 8)]),
            Scale::Probe => (1024, &[("agv_ring", 1), ("agv_rd", 4)]),
            Scale::Quick => (64, &[("agv_ring", 1), ("agv_rd", 2)]),
        };
        Self::sized(n, phases, seed)
    }

    fn sized(n: usize, phases: PhaseDefs, seed: u64) -> Self {
        let expect = (0..n)
            .flat_map(|r| Rng::lane(seed, r as u64).bytes(BLOCK))
            .collect();
        Allgatherv {
            n,
            seed,
            phases,
            expect,
        }
    }

    /// Test hook: a wrong expectation, so every check fails.
    pub fn corrupted(mut self) -> Self {
        self.expect[1] ^= 0xff;
        self
    }

    /// The N = 64 point of the `coll.agv_*64_*` layer metrics.
    pub fn probe64(seed: u64) -> Self {
        Self::sized(64, &[("agv_ring", 16), ("agv_rd", 64)], seed)
    }
}

impl ClusterWorkload for Allgatherv {
    fn name(&self) -> &'static str {
        "allgatherv_1k"
    }

    fn cluster(&self) -> ClusterConfig {
        // Homogeneous speeds; the seed reaches the crates only as the
        // cluster's jitter seed.
        ClusterConfig::uniform(self.n)
            .with_cost(CostModel::default().with_noise(1_500.0))
            .with_seed(self.seed)
    }

    fn phases(&self) -> PhaseDefs {
        self.phases
    }

    fn rank_main(&self, h: &Harness, rank: &mut Rank) {
        let (n, block, me) = (self.n, BLOCK, rank.rank());
        let cfg = MpiConfig::optimized();
        let counts = vec![block; n];
        let mut send = Rng::lane(self.seed, me as u64).bytes(block);
        let mut recv = vec![0u8; n * block];
        // Byte 0 of every block counts the operations done so far, so a
        // stale buffer from an earlier operation cannot pass the check.
        let mut ops_done = 0u8;
        let mut one = |comm: &mut ncd_core::Comm, algo, recv: &mut [u8]| {
            ops_done = ops_done.wrapping_add(1);
            send[0] = ops_done;
            comm.allgatherv_with(algo, &send, &counts, recv);
            ops_done
        };
        h.setup_step("warmup", || {
            let mut comm = ncd_core::Comm::new(rank, cfg.clone());
            one(&mut comm, AllgathervAlgorithm::Ring, &mut recv);
            one(&mut comm, AllgathervAlgorithm::RecursiveDoubling, &mut recv);
        });
        if !h.end_setup(rank) {
            return;
        }
        let algos = [
            (P_RING, AllgathervAlgorithm::Ring),
            (P_RD, AllgathervAlgorithm::RecursiveDoubling),
        ];
        let mut round = 0;
        loop {
            for (idx, algo) in algos {
                let mut stamp = 0;
                h.phase(rank, &cfg, round, idx, |comm| {
                    for _ in 0..self.phases[idx].1 {
                        stamp = one(comm, algo, &mut recv);
                    }
                });
                let ok = recv
                    .chunks(block)
                    .zip(self.expect.chunks(block))
                    .all(|(got, want)| got[0] == stamp && got[1..] == want[1..]);
                h.check(round, idx, ok);
            }
            if !h.next_round(round) {
                break;
            }
            round += 1;
        }
    }
}
