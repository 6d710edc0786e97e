//! allgatherv, pinned: how the three algorithms move their blocks — one
//! copy per block or one per run, a fresh payload or the one just received
//! forwarded — is a host-side matter and must not move one simulated
//! nanosecond, one message, byte or packed segment, or one gathered byte.

use nucomm::core::{AllgathervAlgorithm, Comm, MpiConfig};
use nucomm::simnet::{Cluster, ClusterConfig};

/// Every rank's final clock (simulated ns), `Stats.pack` (ns) and
/// `Stats.{segments_packed, msgs_sent, bytes_sent}`.
type RankPin = (u64, u64, u64, u64, u64);

/// The gathered buffer's hash and every rank's [`RankPin`].
type Pinned = (u64, Vec<RankPin>);

/// Rank `r`'s contribution: a byte pattern that differs per rank, so a
/// block stored at the wrong displacement cannot go unnoticed.
fn block(r: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| ((r * 131 + i * 7) % 251) as u8).collect()
}

/// FNV-1a: the gathered buffer as one literal.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One allgatherv of `counts` under `algo` on the jittered paper testbed;
/// every rank checks that it gathered exactly the expected bytes.
fn run(algo: AllgathervAlgorithm, counts: &[usize]) -> Pinned {
    let n = counts.len();
    let expected: Vec<u8> = (0..n).flat_map(|r| block(r, counts[r])).collect();
    let cluster = ClusterConfig::paper_testbed(n).with_seed(20070326);
    let want = expected.clone();
    let counts = counts.to_vec();
    let out = Cluster::new(cluster).run(move |rank| {
        let mut comm = Comm::new(rank, MpiConfig::optimized());
        let me = comm.rank();
        let mut recv = vec![0u8; want.len()];
        comm.allgatherv_with(algo, &block(me, counts[me]), &counts, &mut recv);
        assert!(recv == want, "rank {me} gathered the wrong bytes");
        let stats = comm.rank_ref().stats();
        (
            comm.rank_ref().now().as_ns(),
            stats.pack.as_ns(),
            stats.segments_packed,
            stats.msgs_sent,
            stats.bytes_sent,
        )
    });
    (fnv1a(&expected), out)
}

#[test]
fn allgatherv_clocks_pack_time_traffic_and_bytes_are_pinned() {
    // Nonuniform counts with an empty block and a 4 KiB outlier.
    let eight = [37, 0, 4096, 5, 64, 11, 1, 23];
    let six = [13, 4096, 0, 7, 64, 29];
    const EIGHT_HASH: u64 = 11_165_564_149_204_313_737;
    const SIX_HASH: u64 = 16_882_120_699_725_195_766;
    // Captured at the commit before allgatherv moved whole runs.
    let cases: [(&str, AllgathervAlgorithm, &[usize], Pinned); 4] = [
        (
            "ring/8",
            AllgathervAlgorithm::Ring,
            &eight,
            (
                EIGHT_HASH,
                vec![
                    (92_461, 3_933, 14, 7, 4_237),
                    (98_708, 2_310, 14, 7, 141),
                    (51_702, 2_308, 14, 7, 4_232),
                    (53_241, 3_920, 14, 7, 4_173),
                    (52_350, 4_611, 14, 7, 4_226),
                    (63_867, 4_640, 14, 7, 4_236),
                    (72_739, 4_634, 14, 7, 4_214),
                    (81_270, 4_618, 14, 7, 4_200),
                ],
            ),
        ),
        (
            "recursive_doubling/8",
            AllgathervAlgorithm::RecursiveDoubling,
            &eight,
            (
                EIGHT_HASH,
                vec![
                    (30_488, 3_925, 14, 3, 4_212),
                    (36_289, 3_925, 14, 3, 4_175),
                    (26_054, 5_550, 14, 3, 12_335),
                    (31_547, 5_550, 14, 3, 8_244),
                    (36_656, 2_734, 14, 3, 238),
                    (41_931, 2_734, 14, 3, 185),
                    (31_041, 2_711, 14, 3, 124),
                    (37_693, 2_711, 14, 3, 146),
                ],
            ),
        ),
        (
            "dissemination/6",
            AllgathervAlgorithm::Dissemination,
            &six,
            (
                SIX_HASH,
                vec![
                    (35_395, 2_117, 10, 3, 97),
                    (29_858, 5_371, 10, 3, 12_314),
                    (36_004, 5_359, 10, 3, 8_192),
                    (26_997, 2_457, 10, 3, 21),
                    (31_158, 2_519, 10, 3, 206),
                    (30_283, 2_539, 10, 3, 215),
                ],
            ),
        ),
        (
            "dissemination/8",
            AllgathervAlgorithm::Dissemination,
            &eight,
            (
                EIGHT_HASH,
                vec![
                    (37_024, 2_308, 14, 3, 169),
                    (42_140, 2_294, 14, 3, 98),
                    (26_068, 5_554, 14, 3, 12_348),
                    (31_547, 5_550, 14, 3, 8_244),
                    (31_652, 4_645, 14, 3, 4_298),
                    (36_233, 4_652, 14, 3, 4_262),
                    (31_071, 2_697, 14, 3, 94),
                    (37_693, 2_711, 14, 3, 146),
                ],
            ),
        ),
    ];
    for (label, algo, counts, want) in cases {
        assert_eq!(run(algo, counts), want, "{label}");
    }
}
