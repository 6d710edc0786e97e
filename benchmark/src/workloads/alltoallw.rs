//! `alltoallw_dense_256` — every ordered pair of 256 ranks exchanges one
//! strided `Datatype::vector` block whose length (1–16 doubles) is drawn
//! from the seed; the same collective runs under the baseline personality
//! (lock-step round robin) and the optimized one (binned, receives posted
//! up front, `waitany`). 65 280 messages per operation.
//!
//! Why: up to 255 envelopes from distinct sources sit in each mailbox, so
//! the mailbox's linear scan and the request layer dominate — the same
//! mailbox that `allgatherv_1k` only ever matches at the head. One
//! collective used two ways, so a gain for binned that costs round robin
//! shows.

use ncd_core::{Comm, MpiConfig, WPeer};
use ncd_datatype::Datatype;
use ncd_simnet::{ClusterConfig, Rank};

use crate::harness::{ClusterWorkload, Harness, PhaseDefs};
use crate::util::Rng;
use crate::workloads::Scale;

pub struct Alltoallw {
    pub n: usize,
    pub seed: u64,
    pub phases: PhaseDefs,
}

/// Longest block, in doubles.
const MAX_LEN: usize = 16;
/// Every second double is sent; the ones between must never arrive.
const STRIDE: usize = 2;
/// Doubles reserved per peer in the send and receive buffers.
const REGION: usize = MAX_LEN * STRIDE;
/// Value of the doubles between the strided ones on the send side.
const POISON: f64 = -1.0;
/// Value of every receive-buffer double nothing was delivered to.
const UNTOUCHED: f64 = -2.0;

impl Alltoallw {
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (n, phases): (usize, PhaseDefs) = match scale {
            Scale::Full => (256, &[("a2aw_rr", 4), ("a2aw_binned", 4)]),
            Scale::Probe => (64, &[("a2aw_rr", 8), ("a2aw_binned", 8)]),
            Scale::Quick => (16, &[("a2aw_rr", 2), ("a2aw_binned", 2)]),
        };
        Alltoallw { n, seed, phases }
    }

    /// Doubles `src` sends to `dst` (both sides compute it).
    fn len(&self, src: usize, dst: usize) -> usize {
        Rng::lane(self.seed, (src * self.n + dst) as u64).range(1, MAX_LEN)
    }
}

/// The `k`-th double `src` sends to `dst`; element 0 also carries the
/// operation stamp so a stale buffer cannot pass the check. Exact in f64.
fn value(src: usize, dst: usize, k: usize, stamp: u32) -> f64 {
    let id = ((src * 4096 + dst) * MAX_LEN + k) as f64;
    if k == 0 {
        id + stamp as f64 * (1u64 << 32) as f64
    } else {
        id
    }
}

impl ClusterWorkload for Alltoallw {
    fn name(&self) -> &'static str {
        "alltoallw_dense_256"
    }

    fn cluster(&self) -> ClusterConfig {
        ClusterConfig::paper_testbed(self.n).with_seed(self.seed)
    }

    fn phases(&self) -> PhaseDefs {
        self.phases
    }

    fn rank_main(&self, h: &Harness, rank: &mut Rank) {
        let (n, me) = (self.n, rank.rank());
        let (sends, recvs) = h.setup_step("plan_build", || {
            let double = Datatype::double();
            let types: Vec<Datatype> = (0..=MAX_LEN)
                .map(|l| Datatype::vector(l, 1, STRIDE as i64, &double).expect("vector type"))
                .collect();
            let slot =
                |peer: usize, len: usize| WPeer::new(peer * REGION * 8, 1, types[len].clone());
            let sends: Vec<WPeer> = (0..n).map(|j| slot(j, self.len(me, j))).collect();
            let recvs: Vec<WPeer> = (0..n).map(|j| slot(j, self.len(j, me))).collect();
            (sends, recvs)
        });
        let mut send = vec![POISON; n * REGION];
        for j in 0..n {
            for k in 0..self.len(me, j) {
                send[j * REGION + k * STRIDE] = value(me, j, k, 0);
            }
        }
        let mut sendbuf = ncd_core::f64s_to_bytes(&send);
        let mut recvbuf = ncd_core::f64s_to_bytes(&vec![UNTOUCHED; n * REGION]);
        let mut stamp = 0u32;
        let mut one = |comm: &mut Comm, recvbuf: &mut [u8]| {
            stamp += 1;
            for j in 0..n {
                let at = j * REGION * 8;
                sendbuf[at..at + 8].copy_from_slice(&value(me, j, 0, stamp).to_le_bytes());
            }
            comm.alltoallw(&sendbuf, &sends, recvbuf, &recvs);
            stamp
        };
        let cfgs = [MpiConfig::baseline(), MpiConfig::optimized()];
        h.setup_step("warmup", || {
            for cfg in &cfgs {
                one(&mut Comm::new(rank, cfg.clone()), &mut recvbuf);
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
                        last = one(comm, &mut recvbuf);
                    }
                });
                let got = ncd_core::bytes_to_f64s(&recvbuf);
                let ok = (0..n).all(|j| {
                    let len = self.len(j, me);
                    (0..REGION).all(|e| {
                        let want = if e % STRIDE == 0 && e / STRIDE < len {
                            value(j, me, e / STRIDE, last)
                        } else {
                            UNTOUCHED
                        };
                        got[j * REGION + e] == want
                    })
                });
                h.check(round, idx, ok);
            }
            if !h.next_round(round) {
                break;
            }
            round += 1;
        }
    }
}
