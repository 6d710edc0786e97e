//! The request layer's completion order, pinned: how a drain finds the next
//! request to complete is a host-side matter and must not move one
//! simulated nanosecond, one message, byte or packed nanosecond, one
//! delivered byte, or the order in which a rank's receives complete.

use nucomm::core::{AlltoallwSchedule, Comm, MpiConfig, WPeer};
use nucomm::datatype::Datatype;
use nucomm::petsc::{IndexSet, Layout, PVec, ScatterBackend, VecScatter};
use nucomm::simnet::{Cluster, ClusterConfig, EventKind, Observers, Rank};

const RANKS: usize = 16;

/// One rank's final clock (simulated ns), `Stats.pack` (ns),
/// `Stats.{msgs_sent, bytes_sent}` and the sources of its `Recv` events in
/// completion order.
type RankPin = (u64, u64, u64, u64, Vec<usize>);

/// One case's literals: the hash of the received bytes, every rank's
/// clock, pack time and traffic, and every rank's completion order.
type Case = (
    u64,
    [(u64, u64, u64, u64); RANKS],
    [&'static [usize]; RANKS],
);

/// FNV-1a over every rank's received bytes, in rank order, so a misplaced
/// byte anywhere moves one literal.
fn fnv1a<'a>(buffers: impl Iterator<Item = &'a [u8]>) -> u64 {
    buffers.flatten().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Run `f`, which returns the bytes its rank received, traced on
/// `cluster`: every rank's pin and those bytes.
fn pinned(
    cluster: ClusterConfig,
    f: impl Fn(&mut Rank) -> Vec<u8> + Send + Sync,
) -> Vec<(RankPin, Vec<u8>)> {
    let trace = Observers {
        trace: true,
        ..Observers::NONE
    };
    let (out, capture) = Cluster::new(cluster.observe(trace))
        .try_run(|rank| {
            let received = f(rank);
            let stats = rank.stats();
            let clock = rank.now().as_ns();
            let pin = (clock, stats.pack.as_ns(), stats.msgs_sent, stats.bytes_sent);
            (pin, received)
        })
        .unwrap();
    let traces = capture.traces.expect("traced");
    out.into_iter()
        .zip(traces)
        .map(|(((clock, pack, msgs, bytes), received), trace)| {
            let order = trace.iter().filter_map(|e| match e.kind {
                EventKind::Recv { src, .. } => Some(src),
                _ => None,
            });
            ((clock, pack, msgs, bytes, order.collect()), received)
        })
        .collect()
}

/// Every rank's result checked against one [`Case`].
fn check(label: &str, got: Vec<(RankPin, Vec<u8>)>, (hash, ranks, orders): &Case) {
    let received = fnv1a(got.iter().map(|(_, bytes)| bytes.as_slice()));
    let got: Vec<RankPin> = got.into_iter().map(|(pin, _)| pin).collect();
    let want: Vec<RankPin> = ranks
        .iter()
        .zip(orders)
        .map(|(&(clock, pack, msgs, bytes), order)| (clock, pack, msgs, bytes, order.to_vec()))
        .collect();
    assert_eq!((received, got), (*hash, want), "{label}");
}

/// Doubles `src` sends `dst`: zero, small (≤ 1 KiB) and large exchanges,
/// all strided.
fn len(src: usize, dst: usize) -> usize {
    (src * 7 + dst * 13) % 20 * 10
}

/// Flops rank `me` computes before it communicates: up to 240 µs of skew
/// in sixteen steps, so later senders' messages arrive mid-drain.
fn staggered(me: usize) -> u64 {
    (me * 5 % RANKS) as u64 * 20_000
}

/// Four groups of ranks that start together, so many arrivals tie.
fn grouped(me: usize) -> u64 {
    (me % 4) as u64 * 40_000
}

/// One alltoallw in which every pair exchanges `len(src, dst)` doubles
/// through a stride-2 vector type, after each rank computes `skew(rank)`
/// flops; every rank checks what it received.
fn alltoallw(
    cluster: ClusterConfig,
    schedule: AlltoallwSchedule,
    skew: fn(usize) -> u64,
) -> Vec<(RankPin, Vec<u8>)> {
    const REGION: usize = 2 * 190;
    let value = |src: usize, dst: usize, k: usize| ((src * RANKS + dst) * 1000 + k) as f64;
    pinned(cluster, move |rank| {
        let mut comm = Comm::new(rank, MpiConfig::optimized());
        let me = comm.rank();
        let double = Datatype::double();
        let slot = |peer: usize, n: usize| {
            let dt = Datatype::vector(n, 1, 2, &double).expect("vector type");
            WPeer::new(peer * REGION * 8, 1, dt)
        };
        let sends: Vec<WPeer> = (0..RANKS).map(|j| slot(j, len(me, j))).collect();
        let recvs: Vec<WPeer> = (0..RANKS).map(|j| slot(j, len(j, me))).collect();
        let mut send = vec![-1.0; RANKS * REGION];
        for j in 0..RANKS {
            for k in 0..len(me, j) {
                send[j * REGION + 2 * k] = value(me, j, k);
            }
        }
        let sendbuf: Vec<u8> = send.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut recvbuf = vec![0u8; sendbuf.len()];
        comm.rank_mut().compute_flops(skew(me));
        comm.alltoallw_with(schedule, &sendbuf, &sends, &mut recvbuf, &recvs);
        for j in 0..RANKS {
            for k in 0..len(j, me) {
                let at = (j * REGION + 2 * k) * 8;
                let got = f64::from_le_bytes(recvbuf[at..at + 8].try_into().unwrap());
                assert_eq!(got, value(j, me, k), "rank {me} slot {j}/{k}");
            }
        }
        recvbuf
    })
}

/// One hand-tuned `VecScatter` apply of the permutation `g ↦ 37 g + 11`,
/// which sends every rank's values to most of the others, after the
/// staggered compute.
fn hand_tuned_scatter() -> Vec<(RankPin, Vec<u8>)> {
    const LOCAL: usize = 64;
    let n = RANKS * LOCAL;
    let dest_of = move |g: usize| (g * 37 + 11) % n;
    let cluster = ClusterConfig::paper_testbed(RANKS).with_seed(20070326);
    pinned(cluster, move |rank| {
        let mut comm = Comm::new(rank, MpiConfig::optimized());
        let me = comm.rank();
        let layout = Layout::balanced(n, RANKS);
        let (s, e) = layout.range(me);
        let x = PVec::from_local(layout.clone(), me, (s..e).map(|g| g as f64).collect());
        let mut y = PVec::zeros(layout.clone(), me);
        let src = IndexSet::stride(s, 1, e - s);
        let dst = IndexSet::general((s..e).map(dest_of).collect::<Vec<_>>());
        let plan = VecScatter::create(&mut comm, layout.clone(), &src, layout, &dst);
        let _ = comm.rank_mut().harvest(); // trace the apply, not the set-up
        comm.rank_mut().compute_flops(staggered(me));
        plan.apply(&mut comm, &x, &mut y, ScatterBackend::HandTuned);
        for g in 0..n {
            let d = dest_of(g);
            if (s..e).contains(&d) {
                assert_eq!(y.local()[d - s], g as f64, "slot {d}");
            }
        }
        y.local().iter().flat_map(|v| v.to_le_bytes()).collect()
    })
}

#[test]
fn alltoallw_and_scatter_completion_order_clocks_and_bytes_are_pinned() {
    let testbed = || ClusterConfig::paper_testbed(RANKS).with_seed(20070326);
    check(
        "binned/paper_testbed",
        alltoallw(testbed(), AlltoallwSchedule::Binned, staggered),
        &BINNED_TESTBED,
    );
    check(
        "round_robin/paper_testbed",
        alltoallw(testbed(), AlltoallwSchedule::RoundRobin, staggered),
        &ROUND_ROBIN_TESTBED,
    );
    check(
        "binned/uniform",
        alltoallw(
            ClusterConfig::uniform(RANKS),
            AlltoallwSchedule::Binned,
            grouped,
        ),
        &BINNED_UNIFORM,
    );
    check("hand_tuned_scatter", hand_tuned_scatter(), &HAND_TUNED);
}

// Captured at the commit before the request drain completed from heaps;
// never edit them for a host-side change.
const BINNED_TESTBED: Case = (
    0x94e7e88b3ab4e4ff,
    [
        (282_566, 130_500, 15, 12_800),
        (348_948, 130_500, 15, 12_160),
        (337_864, 130_500, 15, 13_120),
        (418_060, 130_480, 15, 12_480),
        (351_306, 130_480, 15, 11_840),
        (322_354, 130_480, 15, 12_800),
        (395_319, 130_480, 15, 12_160),
        (358_797, 130_480, 15, 11_520),
        (355_392, 153_510, 15, 12_480),
        (449_503, 153_510, 15, 11_840),
        (343_196, 153_510, 15, 11_200),
        (336_035, 153_510, 15, 12_160),
        (434_984, 153_510, 15, 11_520),
        (322_701, 153_511, 15, 10_880),
        (323_078, 153_511, 15, 11_840),
        (414_390, 153_511, 15, 11_200),
    ],
    [
        &[7, 10, 4, 13, 1, 14, 11, 15, 5, 12, 8, 6, 2, 9, 3],
        &[4, 7, 10, 11, 13, 5, 8, 14, 0, 2, 15, 12, 6, 9, 3],
        &[5, 8, 11, 6, 12, 14, 15, 9, 3, 0, 4, 7, 10, 13, 1],
        &[4, 6, 7, 9, 10, 12, 13, 15, 1, 5, 8, 11, 14, 0, 2],
        &[7, 10, 13, 14, 0, 11, 2, 1, 5, 8, 15, 3, 12, 6, 9],
        &[8, 11, 14, 15, 0, 1, 12, 6, 3, 7, 9, 10, 13, 2, 4],
        &[7, 9, 10, 12, 13, 15, 1, 2, 4, 8, 11, 14, 0, 3, 5],
        &[10, 13, 0, 4, 14, 5, 1, 11, 2, 8, 3, 6, 15, 12, 9],
        &[11, 14, 15, 0, 12, 1, 3, 4, 9, 6, 10, 13, 2, 5, 7],
        &[10, 12, 13, 15, 1, 2, 4, 5, 7, 11, 14, 0, 3, 6, 8],
        &[13, 0, 4, 7, 14, 5, 8, 11, 1, 2, 6, 3, 9, 15, 12],
        &[14, 0, 1, 4, 6, 15, 7, 3, 12, 9, 13, 2, 5, 8, 10],
        &[13, 15, 1, 2, 4, 5, 7, 8, 10, 14, 0, 3, 6, 9, 11],
        &[0, 7, 10, 11, 4, 14, 8, 5, 1, 2, 6, 9, 3, 12, 15],
        &[0, 1, 4, 7, 10, 12, 6, 2, 15, 9, 5, 3, 8, 11, 13],
        &[1, 2, 4, 5, 7, 8, 10, 11, 13, 0, 3, 6, 9, 12, 14],
    ],
);

const ROUND_ROBIN_TESTBED: Case = (
    0x94e7e88b3ab4e4ff,
    [
        (524_646, 130_500, 15, 12_800),
        (520_749, 130_500, 15, 12_160),
        (522_183, 130_500, 15, 13_120),
        (520_785, 130_480, 15, 12_480),
        (519_649, 130_480, 15, 11_840),
        (516_992, 130_480, 15, 12_800),
        (531_066, 130_480, 15, 12_160),
        (527_370, 130_480, 15, 11_520),
        (530_411, 153_510, 15, 12_480),
        (534_607, 153_510, 15, 11_840),
        (531_948, 153_510, 15, 11_200),
        (534_984, 153_510, 15, 12_160),
        (535_461, 153_510, 15, 11_520),
        (531_991, 153_511, 15, 10_880),
        (525_574, 153_511, 15, 11_840),
        (533_798, 153_511, 15, 11_200),
    ],
    [
        &[15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1],
        &[0, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2],
        &[1, 0, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3],
        &[2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4],
        &[3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5],
        &[4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6],
        &[5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8, 7],
        &[6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8],
        &[7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9],
        &[8, 7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10],
        &[9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11],
        &[10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12],
        &[11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13],
        &[12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 15, 14],
        &[13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 15],
        &[14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0],
    ],
);

const BINNED_UNIFORM: Case = (
    0x94e7e88b3ab4e4ff,
    [
        (167_673, 130_500, 15, 12_800),
        (188_053, 130_500, 15, 12_160),
        (218_500, 130_500, 15, 13_120),
        (250_480, 130_480, 15, 12_480),
        (162_469, 130_480, 15, 11_840),
        (186_480, 130_480, 15, 12_800),
        (218_480, 130_480, 15, 12_160),
        (250_480, 130_480, 15, 11_520),
        (155_557, 130_480, 15, 12_480),
        (186_480, 130_480, 15, 11_840),
        (218_480, 130_480, 15, 11_200),
        (250_480, 130_480, 15, 12_160),
        (174_869, 130_480, 15, 11_520),
        (186_480, 130_480, 15, 10_880),
        (218_480, 130_480, 15, 11_840),
        (250_480, 130_480, 15, 11_200),
    ],
    [
        &[1, 4, 9, 6, 10, 12, 13, 15, 8, 5, 14, 3, 7, 2, 11],
        &[2, 4, 5, 8, 10, 11, 7, 13, 14, 6, 9, 12, 15, 0, 3],
        &[3, 5, 6, 8, 9, 11, 12, 14, 15, 0, 4, 7, 10, 13, 1],
        &[4, 6, 7, 9, 10, 12, 13, 15, 1, 5, 8, 11, 14, 0, 2],
        &[5, 8, 13, 14, 0, 10, 2, 12, 9, 1, 11, 7, 3, 6, 15],
        &[6, 8, 9, 12, 11, 14, 15, 0, 1, 3, 10, 13, 2, 4, 7],
        &[7, 9, 10, 12, 13, 15, 1, 2, 4, 8, 11, 14, 0, 3, 5],
        &[8, 10, 11, 13, 14, 0, 2, 3, 5, 9, 12, 15, 1, 4, 6],
        &[9, 12, 0, 14, 1, 4, 6, 13, 3, 5, 15, 11, 2, 10, 7],
        &[10, 12, 13, 1, 2, 15, 4, 5, 7, 14, 0, 6, 3, 8, 11],
        &[11, 13, 14, 0, 2, 3, 5, 6, 8, 12, 15, 1, 4, 7, 9],
        &[12, 14, 15, 0, 1, 3, 4, 6, 7, 9, 13, 2, 5, 8, 10],
        &[13, 1, 4, 5, 8, 2, 10, 0, 9, 7, 6, 15, 11, 14, 3],
        &[14, 0, 2, 5, 6, 8, 9, 3, 11, 1, 4, 10, 7, 12, 15],
        &[15, 0, 1, 3, 4, 6, 7, 9, 10, 12, 2, 5, 8, 11, 13],
        &[1, 2, 4, 5, 7, 8, 10, 11, 13, 0, 3, 6, 9, 12, 14],
    ],
);

const HAND_TUNED: Case = (
    0xde240ac5497e2b34,
    [
        (525_434, 4_705, 60, 1_184),
        (527_504, 4_781, 60, 1_216),
        (528_342, 4_781, 60, 1_216),
        (564_006, 4_667, 60, 1_168),
        (533_020, 4_705, 60, 1_184),
        (533_296, 4_781, 60, 1_216),
        (544_136, 4_781, 60, 1_216),
        (537_613, 4_667, 60, 1_168),
        (540_823, 5_535, 60, 1_184),
        (575_778, 5_625, 60, 1_216),
        (543_163, 5_625, 60, 1_216),
        (544_998, 5_490, 60, 1_168),
        (553_637, 5_535, 60, 1_184),
        (547_321, 5_625, 60, 1_216),
        (549_303, 5_625, 60, 1_216),
        (550_192, 5_490, 60, 1_168),
    ],
    [
        &[13, 7, 10, 4, 1, 14, 11, 5, 8, 2, 15, 6, 12, 3, 9],
        &[0, 4, 7, 10, 13, 14, 11, 5, 8, 2, 15, 6, 12, 3, 9],
        &[0, 1, 4, 5, 7, 8, 10, 11, 13, 14, 15, 6, 12, 3, 9],
        &[0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
        &[0, 1, 7, 10, 13, 14, 11, 5, 2, 8, 15, 6, 12, 3, 9],
        &[0, 1, 4, 2, 7, 8, 10, 11, 13, 14, 15, 6, 12, 3, 9],
        &[0, 1, 2, 4, 3, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15],
        &[0, 13, 10, 4, 1, 14, 11, 5, 2, 8, 15, 6, 12, 3, 9],
        &[0, 1, 2, 4, 5, 7, 10, 11, 13, 14, 15, 6, 12, 3, 9],
        &[0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15],
        &[0, 7, 13, 4, 1, 14, 5, 11, 2, 8, 15, 6, 12, 3, 9],
        &[0, 1, 4, 5, 7, 10, 2, 13, 8, 14, 15, 6, 12, 3, 9],
        &[0, 1, 2, 4, 5, 3, 6, 7, 8, 10, 9, 11, 13, 14, 15],
        &[0, 7, 10, 4, 1, 14, 11, 5, 2, 8, 15, 6, 12, 3, 9],
        &[0, 1, 4, 7, 10, 13, 11, 5, 2, 8, 15, 6, 12, 3, 9],
        &[0, 1, 2, 4, 5, 7, 6, 8, 10, 11, 12, 13, 14, 3, 9],
    ],
);
