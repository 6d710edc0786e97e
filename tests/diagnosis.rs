//! Property test on the wait-state classifier: on randomized alltoallw
//! and scatterv schedules, the classified severity per labeled op never
//! exceeds the wait that [`attribute_rounds`] charges to that op.
//!
//! The classifier partitions each blocked receive's wait into exactly one
//! pattern, and `attribute_rounds` sums the same receives' waits under
//! the same governing-round rule — so the bound is structural, and this
//! test guards it against any future double counting (an instance
//! landing in two patterns, or a wait split across ops).
//!
//! Schedules are drawn from a seeded LCG so every run is deterministic:
//! random per-rank compute skew, random (sparse) alltoallw transfer
//! matrices, and random scatterv part sizes and roots, under both config
//! flavors.

use nucomm::core::{Comm, MpiConfig, WPeer};
use nucomm::datatype::Datatype;
use nucomm::simnet::{
    check_severity_bound, diagnose, Cluster, ClusterConfig, Observers, TraceEvent,
};

/// Deterministic 64-bit LCG (Knuth's MMIX constants); high bits only.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    /// Uniform in `[0, bound)`.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// The full (cluster-global) randomized schedule: every rank derives the
/// identical schedule from the seed, then plays only its own part.
struct Schedule {
    n: usize,
    steps: usize,
    /// Per step, per rank: compute before the exchange (flops).
    flops: Vec<Vec<u64>>,
    /// Per step: `xfer[src][dst]` bytes in the alltoallw (sparse).
    xfer: Vec<Vec<Vec<usize>>>,
    /// Per step: scatterv root and per-rank part sizes.
    scatter: Vec<(usize, Vec<usize>)>,
}

impl Schedule {
    fn draw(seed: u64, n: usize) -> Self {
        let mut rng = Lcg::new(seed);
        let steps = 2 + rng.below(2) as usize;
        let flops = (0..steps)
            .map(|_| (0..n).map(|_| rng.below(4) * 1_500_000).collect())
            .collect();
        let xfer = (0..steps)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        (0..n)
                            .map(|_| {
                                // ~half the pairs stay silent; the rest
                                // span 3 orders of magnitude.
                                if rng.below(2) == 0 {
                                    0
                                } else {
                                    8 << rng.below(11)
                                }
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let scatter = (0..steps)
            .map(|_| {
                let root = rng.below(n as u64) as usize;
                let parts = (0..n).map(|_| rng.below(4096) as usize).collect();
                (root, parts)
            })
            .collect();
        Schedule {
            n,
            steps,
            flops,
            xfer,
            scatter,
        }
    }
}

fn run_schedule(seed: u64, n: usize, cfg: MpiConfig) -> Vec<Vec<TraceEvent>> {
    let trace = Observers {
        trace: true,
        ..Observers::NONE
    };
    let cluster = Cluster::new(ClusterConfig::paper_testbed(n).observe(trace));
    let run = cluster.try_run(move |rank| {
        let sched = Schedule::draw(seed, n);
        let mut comm = Comm::new(rank, cfg.clone());
        let me = comm.rank();
        for step in 0..sched.steps {
            comm.rank_mut().compute_flops(sched.flops[step][me]);

            // Self-transfers stay local; zero the diagonal.
            let mut row = sched.xfer[step][me].clone();
            row[me] = 0;
            let col: Vec<usize> = (0..sched.n)
                .map(|src| {
                    if src == me {
                        0
                    } else {
                        sched.xfer[step][src][me]
                    }
                })
                .collect();
            let mut off = 0usize;
            let sends: Vec<WPeer> = row
                .iter()
                .map(|&bytes| {
                    let dt = Datatype::contiguous(bytes, &Datatype::byte()).expect("send dt");
                    let p = WPeer::new(off, usize::from(bytes > 0), dt);
                    off += bytes;
                    p
                })
                .collect();
            let sendbuf = vec![me as u8; off];
            let mut off = 0usize;
            let recvs: Vec<WPeer> = col
                .iter()
                .map(|&bytes| {
                    let dt = Datatype::contiguous(bytes, &Datatype::byte()).expect("recv dt");
                    let p = WPeer::new(off, usize::from(bytes > 0), dt);
                    off += bytes;
                    p
                })
                .collect();
            let mut recvbuf = vec![0u8; off];
            comm.alltoallw(&sendbuf, &sends, &mut recvbuf, &recvs);

            let (root, ref parts) = sched.scatter[step];
            let supplied: Option<Vec<Vec<u8>>> =
                (me == root).then(|| parts.iter().map(|&bytes| vec![me as u8; bytes]).collect());
            let part = comm.scatterv(supplied.as_deref(), root);
            assert_eq!(part.len(), parts[me]);
        }
    });
    run.unwrap().1.traces.expect("traced")
}

#[test]
fn classified_severity_never_exceeds_attributed_wait() {
    let mut classified_something = false;
    for seed in 0..6u64 {
        for n in [4usize, 8] {
            for cfg in [MpiConfig::baseline(), MpiConfig::optimized()] {
                let flavor = cfg.flavor;
                let traces = run_schedule(seed, n, cfg);
                let diag = diagnose(&traces);
                assert!(
                    diag.classified <= diag.total_wait,
                    "seed {seed}, {n} ranks, {flavor:?}: classified {} > total wait {}",
                    diag.classified,
                    diag.total_wait
                );
                if let Some(violation) = check_severity_bound(&traces, &diag) {
                    panic!("seed {seed}, {n} ranks, {flavor:?}: {violation}");
                }
                classified_something |= !diag.instances.is_empty();
            }
        }
    }
    assert!(
        classified_something,
        "the randomized schedules must produce at least one blocked receive"
    );
}
