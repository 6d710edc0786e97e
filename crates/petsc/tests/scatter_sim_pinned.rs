//! The scatter's simulated clock, pinned: how `VecScatter` hands memory to
//! the message layer is a host-side matter and must not move one simulated
//! nanosecond, message or byte.

use ncd_core::{Comm, MpiConfig};
use ncd_petsc::{IndexSet, Layout, PVec, ScatterBackend, VecScatter};
use ncd_simnet::{Cluster, ClusterConfig};

const RANKS: usize = 8;
const LOCAL: usize = 512;
const APPLIES: usize = 3;

/// Every rank's final clock (simulated ns) and `Stats.{msgs_sent,
/// bytes_sent}` after building the benchmark's `vecscatter_128` map at 8
/// ranks — most elements shifted one block on, every 16th sent half the
/// machine and a bit away — and applying it `APPLIES` times.
fn run(cfg: MpiConfig, backend: ScatterBackend) -> Vec<(u64, u64, u64)> {
    let n = RANKS * LOCAL;
    let jump = n / 2 + 16 * 11;
    let dest_of = move |g: usize| (g + if g.is_multiple_of(16) { jump } else { LOCAL }) % n;
    let cluster = ClusterConfig::paper_testbed(RANKS).with_seed(20070326);
    Cluster::new(cluster).run(move |rank| {
        let me = rank.rank();
        let layout = Layout::balanced(n, RANKS);
        let (s, e) = layout.range(me);
        let x = PVec::from_local(layout.clone(), me, (s..e).map(|g| g as f64).collect());
        let mut y = PVec::zeros(layout.clone(), me);
        let src = IndexSet::stride(s, 1, e - s);
        let dst = IndexSet::general((s..e).map(dest_of).collect::<Vec<_>>());
        let plan = {
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            VecScatter::create(&mut comm, layout.clone(), &src, layout.clone(), &dst)
        };
        let mut comm = Comm::new(rank, cfg.clone());
        for _ in 0..APPLIES {
            plan.apply(&mut comm, &x, &mut y, backend);
        }
        // `jump`, `LOCAL` and `n` are multiples of 16, so the map keeps
        // `g % 16` and inverts class by class.
        for (d, &got) in (s..e).zip(y.local()) {
            let from = (d + n - if d.is_multiple_of(16) { jump } else { LOCAL }) % n;
            assert_eq!(got, from as f64, "slot {d}");
        }
        let stats = comm.rank_ref().stats();
        (
            comm.rank_ref().now().as_ns(),
            stats.msgs_sent,
            stats.bytes_sent,
        )
    })
}

#[test]
fn vecscatter_shaped_plan_sim_clock_and_traffic_are_pinned() {
    // Captured at the commit before the scatter stopped building byte
    // images of its vectors (PR 20's tree).
    type Pinned = [(u64, u64, u64); RANKS];
    let cases: [(&str, MpiConfig, ScatterBackend, Pinned); 3] = [
        (
            "datatype/optimized",
            MpiConfig::optimized(),
            ScatterBackend::Datatype,
            [
                (186_904, 26, 16_496),
                (182_905, 26, 16_496),
                (183_418, 26, 16_496),
                (180_268, 26, 16_496),
                (182_144, 26, 16_496),
                (183_010, 26, 16_496),
                (185_735, 26, 16_496),
                (188_152, 26, 16_496),
            ],
        ),
        (
            "hand_tuned/optimized",
            MpiConfig::optimized(),
            ScatterBackend::HandTuned,
            [
                (178_119, 26, 16_496),
                (176_475, 26, 16_496),
                (175_464, 26, 16_496),
                (177_471, 26, 16_496),
                (180_829, 26, 16_496),
                (181_037, 26, 16_496),
                (183_085, 26, 16_496),
                (185_690, 26, 16_496),
            ],
        ),
        (
            "datatype/baseline",
            MpiConfig::baseline(),
            ScatterBackend::Datatype,
            [
                (310_380, 38, 16_496),
                (315_093, 38, 16_496),
                (310_877, 38, 16_496),
                (312_623, 38, 16_496),
                (310_935, 38, 16_496),
                (313_445, 38, 16_496),
                (311_822, 38, 16_496),
                (312_092, 38, 16_496),
            ],
        ),
    ];
    for (label, cfg, backend, want) in cases {
        assert_eq!(run(cfg, backend), want, "{label}");
    }
}
