//! `transpose_1k` — Figure 12: two ranks, a 1024×1024 matrix of
//! three-double elements sent column-major with `matrix_column_type` and
//! received contiguous, i.e. transposed; once with the single-context
//! pack engine (`baseline()`, re-searches the type per block) and twice
//! with the dual-context engine (`optimized()`).
//!
//! Why: the pack engines and the 25 MB contiguous receive copy are the
//! whole run; scheduler and mailbox see a handful of messages. Both
//! engines run, so a dual-context gain that slows the faithful baseline
//! shows.

use ncd_core::MpiConfig;
use ncd_datatype::{matrix_column_type, Datatype};
use ncd_simnet::{ClusterConfig, CostModel, Rank, Tag};

use crate::harness::{ClusterWorkload, Harness, PhaseDefs};
use crate::util::Rng;
use crate::workloads::Scale;

pub struct Transpose {
    pub n: usize,
    pub seed: u64,
    pub phases: PhaseDefs,
}

const ELEM: usize = 24;

impl Transpose {
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (n, phases): (usize, PhaseDefs) = match scale {
            Scale::Full => (1024, &[("pack_single", 1), ("pack_dual", 2)]),
            Scale::Probe => (256, &[("pack_single", 2), ("pack_dual", 4)]),
            Scale::Quick => (64, &[("pack_single", 1), ("pack_dual", 2)]),
        };
        Transpose { n, seed, phases }
    }

    fn matrix(&self) -> Vec<u8> {
        Rng::new(self.seed).bytes(self.n * self.n * ELEM)
    }
}

/// Reference transpose, written without the datatype crate: element
/// `(r, c)` of the row-major source lands at `(c, r)`.
pub fn reference_transpose(src: &[u8], n: usize) -> Vec<u8> {
    let mut dst = vec![0u8; src.len()];
    for r in 0..n {
        for c in 0..n {
            let (s, d) = ((r * n + c) * ELEM, (c * n + r) * ELEM);
            dst[d..d + ELEM].copy_from_slice(&src[s..s + ELEM]);
        }
    }
    dst
}

impl ClusterWorkload for Transpose {
    fn name(&self) -> &'static str {
        "transpose_1k"
    }

    fn cluster(&self) -> ClusterConfig {
        ClusterConfig::uniform(2)
            .with_cost(CostModel::default().with_noise(1_500.0))
            .with_seed(self.seed)
    }

    fn phases(&self) -> PhaseDefs {
        self.phases
    }

    fn rank_main(&self, h: &Harness, rank: &mut Rank) {
        let (n, me) = (self.n, rank.rank());
        let bytes = n * n * ELEM;
        // Rank 0 holds the matrix; rank 1 the receive buffer and the
        // independently transposed expectation.
        let (mut buf, mut expect) = h.setup_step("inputs", || {
            let m = self.matrix();
            if me == 0 {
                (m, Vec::new())
            } else {
                (vec![0u8; bytes], reference_transpose(&m, n))
            }
        });
        let (col, row) = h.setup_step("plan_build", || {
            (
                matrix_column_type(n, n, 3).expect("column type"),
                Datatype::contiguous(bytes, &Datatype::byte()).expect("contiguous type"),
            )
        });
        // Element (0,0) is a fixed point of the transpose; its first byte
        // carries the operation stamp.
        let mut stamp = 0u8;
        let mut one = |comm: &mut ncd_core::Comm, buf: &mut [u8]| {
            stamp = stamp.wrapping_add(1);
            if me == 0 {
                buf[0] = stamp;
                comm.send(buf, &col, n, 1, Tag(1));
            } else {
                comm.recv(buf, &row, 1, Some(0), Tag(1));
            }
            stamp
        };
        let cfgs = [MpiConfig::baseline(), MpiConfig::optimized()];
        h.setup_step("warmup", || {
            for cfg in &cfgs {
                one(&mut ncd_core::Comm::new(rank, cfg.clone()), &mut buf);
            }
        });
        if !h.end_setup(rank) {
            return;
        }
        let mut round = 0;
        loop {
            for (idx, cfg) in cfgs.iter().enumerate() {
                let mut last = 0;
                h.phase(rank, cfg, round, idx, |comm| {
                    for _ in 0..self.phases[idx].1 {
                        last = one(comm, &mut buf);
                    }
                });
                let ok = me == 0 || {
                    expect[0] = last;
                    buf == expect
                };
                h.check(round, idx, ok);
            }
            if !h.next_round(round) {
                break;
            }
            round += 1;
        }
    }
}
