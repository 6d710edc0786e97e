//! Property-based tests of the collectives: every allgatherv algorithm and
//! every alltoallw schedule must be *semantically identical* on arbitrary
//! (nonuniform, sparse, zero-containing) workloads — only their timing may
//! differ. Selection must match sorting.

use ncd_core::{k_select, AllgathervAlgorithm, AlltoallwSchedule, Comm, MpiConfig, WPeer};
use ncd_datatype::Datatype;
use ncd_simnet::{Cluster, ClusterConfig};
use proptest::prelude::*;

fn block(rank: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((rank * 37 + i * 11) % 251) as u8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn k_select_matches_sort(mut v in proptest::collection::vec(0u64..1000, 1..1500), k_frac in 0.0f64..1.0) {
        let k = ((v.len() - 1) as f64 * k_frac) as usize;
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(k_select(&mut v, k), sorted[k]);
    }

    #[test]
    fn allgatherv_algorithms_agree(
        counts in proptest::collection::vec(0usize..100, 2..9),
        pick_pow2 in any::<bool>(),
    ) {
        // Recursive doubling needs a power-of-two process count.
        let counts = if pick_pow2 {
            let n = counts.len().next_power_of_two().min(8);
            counts.iter().cycle().take(n).copied().collect::<Vec<_>>()
        } else {
            counts
        };
        let n = counts.len();
        let expected: Vec<u8> = counts
            .iter()
            .enumerate()
            .flat_map(|(r, &c)| block(r, c))
            .collect();
        let mut algos = vec![AllgathervAlgorithm::Ring, AllgathervAlgorithm::Dissemination];
        if n.is_power_of_two() {
            algos.push(AllgathervAlgorithm::RecursiveDoubling);
        }
        for algo in algos {
            let counts = counts.clone();
            let out = Cluster::new(ClusterConfig::uniform(n)).run(|rank| {
                let mut comm = Comm::new(rank, MpiConfig::optimized());
                let me = comm.rank();
                let send = block(me, counts[me]);
                let mut recv = vec![0u8; counts.iter().sum()];
                comm.allgatherv_with(algo, &send, &counts, &mut recv);
                recv
            });
            for r in out {
                prop_assert_eq!(&r, &expected, "{:?}", algo);
            }
        }
    }

    #[test]
    fn alltoallw_schedules_agree(
        n in 2usize..7,
        // Per-(src,dst) element counts, 0..6 doubles, flattened row-major.
        vols in proptest::collection::vec(0usize..6, 36),
    ) {
        let vols = std::sync::Arc::new(vols);
        let vol = {
            let vols = vols.clone();
            move |src: usize, dst: usize| vols[src * 6 + dst]
        };
        let run = |schedule: AlltoallwSchedule| {
            let vol = vol.clone();
            Cluster::new(ClusterConfig::uniform(n)).run({
            let vol = vol.clone();
            move |rank| {
                let mut comm = Comm::new(rank, MpiConfig::optimized());
                let me = comm.rank();
                let dt = Datatype::double();
                // Slot layout: destination j's data at offset j*48 bytes.
                let mut sends = Vec::new();
                let mut recvs = Vec::new();
                for j in 0..n {
                    sends.push(WPeer::new(
                        j * 48,
                        vol(me, j),
                        Datatype::contiguous(1, &dt).expect("contig"),
                    ));
                    recvs.push(WPeer::new(
                        j * 48,
                        vol(j, me),
                        Datatype::contiguous(1, &dt).expect("contig"),
                    ));
                }
                let mut sendbuf = vec![0u8; n * 48];
                for j in 0..n {
                    for k in 0..vol(me, j) {
                        let v = (me * 100 + j * 10 + k) as f64;
                        sendbuf[j * 48 + k * 8..j * 48 + k * 8 + 8]
                            .copy_from_slice(&v.to_le_bytes());
                    }
                }
                let mut recvbuf = vec![0u8; n * 48];
                comm.alltoallw_with(schedule, &sendbuf, &sends, &mut recvbuf, &recvs);
                recvbuf
            }})
        };
        let rr = run(AlltoallwSchedule::RoundRobin);
        let binned = run(AlltoallwSchedule::Binned);
        prop_assert_eq!(&rr, &binned);
        // Spot-check semantics: rank i's slot j holds j's data for i.
        for (i, recv) in rr.iter().enumerate() {
            for j in 0..n {
                for k in 0..vol(j, i) {
                    let got = f64::from_le_bytes(
                        recv[j * 48 + k * 8..j * 48 + k * 8 + 8].try_into().expect("8"),
                    );
                    prop_assert_eq!(got, (j * 100 + i * 10 + k) as f64);
                }
            }
        }
    }

    #[test]
    fn allreduce_matches_local_sum(
        n in 1usize..7,
        vals in proptest::collection::vec(-100.0f64..100.0, 7),
    ) {
        let out = Cluster::new(ClusterConfig::uniform(n)).run(|rank| {
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            comm.allreduce_scalar(vals[comm.rank()])
        });
        let expected: f64 = vals[..n].iter().sum();
        for v in out {
            prop_assert!((v - expected).abs() < 1e-9);
        }
    }
}
