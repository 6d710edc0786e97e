//! The paper's headline claims, asserted as integration tests: each of the
//! evaluation's qualitative results must hold in this reproduction (the
//! benches then quantify them).

use nucomm::core::{Comm, MpiConfig, WPeer};
use nucomm::datatype::Datatype;
use nucomm::petsc::{
    richardson, IndexSet, KspSettings, LaplacianOp, Layout, Multigrid, PVec, ScatterBackend,
    VecScatter,
};
use nucomm::simnet::{Cluster, ClusterConfig, SimTime};

/// §4.2.1 / Figure 14: with one outlier message, the optimized allgatherv
/// beats the baseline ring, and the gap grows with the process count.
#[test]
fn allgatherv_outlier_claim() {
    let latency = |n: usize, cfg: MpiConfig| -> SimTime {
        let out = Cluster::new(ClusterConfig::uniform(n)).run(|rank| {
            let mut comm = Comm::new(rank, cfg.clone());
            let mut counts = vec![8usize; n];
            counts[0] = 32 * 1024;
            let me = comm.rank();
            let send = vec![me as u8; counts[me]];
            let mut recv = vec![0u8; counts.iter().sum()];
            comm.barrier();
            comm.rank_mut().reset_clock();
            comm.allgatherv(&send, &counts, &mut recv);
            comm.rank_ref().now()
        });
        out.into_iter().max().expect("nonempty")
    };
    let gap = |n: usize| {
        let tb = latency(n, MpiConfig::baseline());
        let tn = latency(n, MpiConfig::optimized());
        tb.as_ns() as f64 / tn.as_ns() as f64
    };
    let g16 = gap(16);
    let g64 = gap(64);
    assert!(g16 > 1.5, "16 procs: expected a clear win, got {g16:.2}x");
    assert!(g64 > g16, "the gap must grow with N: {g16:.2} -> {g64:.2}");
}

/// §4.2.2 / Figure 15: the binned alltoallw is far less skew-sensitive
/// than round-robin on a nearest-neighbour pattern.
#[test]
fn alltoallw_skew_claim() {
    let latency = |n: usize, cfg: MpiConfig| -> SimTime {
        let out = Cluster::new(ClusterConfig::paper_testbed(n)).run(|rank| {
            let mut comm = Comm::new(rank, cfg.clone());
            let me = comm.rank();
            let size = comm.size();
            let succ = (me + 1) % size;
            let pred = (me + size - 1) % size;
            let m = Datatype::contiguous(100, &Datatype::double()).expect("matrix");
            let empty = Datatype::contiguous(0, &Datatype::double()).expect("empty");
            let mut sends: Vec<WPeer> =
                (0..size).map(|_| WPeer::new(0, 0, empty.clone())).collect();
            let mut recvs = sends.clone();
            sends[succ] = WPeer::new(0, 1, m.clone());
            recvs[pred] = WPeer::new(0, 1, m.clone());
            sends[pred] = WPeer::new(800, 1, m.clone());
            recvs[succ] = WPeer::new(800, 1, m.clone());
            let sendbuf = vec![me as u8; 1600];
            let mut recvbuf = vec![0u8; 1600];
            comm.barrier();
            comm.rank_mut().reset_clock();
            for _ in 0..5 {
                comm.alltoallw(&sendbuf, &sends, &mut recvbuf, &recvs);
            }
            comm.rank_ref().now()
        });
        out.into_iter().max().expect("nonempty")
    };
    let tb = latency(32, MpiConfig::baseline());
    let tn = latency(32, MpiConfig::optimized());
    assert!(
        tn.as_ns() * 2 < tb.as_ns(),
        "paper reports ~50% at 32 procs; got baseline {tb} vs optimized {tn}"
    );
}

/// §5.4 / Figure 16: with the optimized MPI, the datatype+collective
/// scatter lands in the same performance class as hand-tuned (within 25%),
/// while the baseline is much slower at scale.
#[test]
fn vecscatter_claim() {
    let latency = |cfg: MpiConfig, backend: ScatterBackend| -> SimTime {
        let n = 16;
        let out = Cluster::new(ClusterConfig::paper_testbed(n)).run(|rank| {
            let mut comm = Comm::new(rank, cfg.clone());
            let m = 512;
            let nglob = m * comm.size();
            let layout = Layout::balanced(nglob, comm.size());
            let (s, e) = layout.range(comm.rank());
            let x = PVec::from_local(
                layout.clone(),
                comm.rank(),
                (s..e).map(|g| g as f64).collect(),
            );
            let mut y = PVec::zeros(layout.clone(), comm.rank());
            let src = IndexSet::stride(s, 1, e - s);
            let dst = IndexSet::general(
                (s..e)
                    .map(|g| {
                        if g % 16 == 0 {
                            (g + nglob / 2 + 16) % nglob
                        } else {
                            (g + m) % nglob
                        }
                    })
                    .collect::<Vec<_>>(),
            );
            let plan = VecScatter::create(&mut comm, layout.clone(), &src, layout, &dst);
            plan.apply(&mut comm, &x, &mut y, backend);
            comm.barrier();
            comm.rank_mut().reset_clock();
            for _ in 0..3 {
                plan.apply(&mut comm, &x, &mut y, backend);
            }
            comm.rank_ref().now()
        });
        out.into_iter().max().expect("nonempty")
    };
    let hand = latency(MpiConfig::optimized(), ScatterBackend::HandTuned);
    let base = latency(MpiConfig::baseline(), ScatterBackend::Datatype);
    let opt = latency(MpiConfig::optimized(), ScatterBackend::Datatype);
    assert!(base > opt, "baseline {base} must trail optimized {opt}");
    let rel = (opt.as_ns() as f64 - hand.as_ns() as f64) / hand.as_ns() as f64;
    assert!(
        rel.abs() < 0.25,
        "optimized datatypes ({opt}) should be within 25% of hand-tuned ({hand})"
    );
}

/// §5.5 / Figure 17: the multigrid application is faster under the
/// optimized framework, and all implementations compute identical numerics.
#[test]
fn multigrid_claim() {
    let solve = |cfg: MpiConfig, backend: ScatterBackend| -> (SimTime, usize, f64) {
        let out = Cluster::new(ClusterConfig::paper_testbed(16)).run(|rank| {
            let mut comm = Comm::new(rank, cfg.clone());
            let n = 24;
            let h = 1.0 / n as f64;
            let mg = Multigrid::new(&mut comm, &[n, n, n], h, 3, backend);
            let da = mg.fine_da();
            let op = LaplacianOp::new(da, h);
            let mut b = PVec::zeros(da.global_layout().clone(), comm.rank());
            b.set_all(1.0);
            let mut x = PVec::zeros(da.global_layout().clone(), comm.rank());
            comm.barrier();
            comm.rank_mut().reset_clock();
            let res = richardson(
                &mut comm,
                &op,
                &mg,
                1.0,
                &b,
                &mut x,
                &KspSettings {
                    rtol: 1e-7,
                    max_it: 40,
                    backend,
                },
            );
            assert!(res.converged);
            (comm.rank_ref().now(), res.iterations, x.norm2(&mut comm))
        });
        let t = out.iter().map(|o| o.0).max().expect("nonempty");
        (t, out[0].1, out[0].2)
    };
    let (t_hand, it_hand, norm_hand) = solve(MpiConfig::optimized(), ScatterBackend::HandTuned);
    let (t_base, it_base, norm_base) = solve(MpiConfig::baseline(), ScatterBackend::Datatype);
    let (t_opt, it_opt, norm_opt) = solve(MpiConfig::optimized(), ScatterBackend::Datatype);
    // Identical numerics across implementations.
    assert_eq!(it_hand, it_base);
    assert_eq!(it_hand, it_opt);
    assert!((norm_hand - norm_base).abs() < 1e-12);
    assert!((norm_hand - norm_opt).abs() < 1e-12);
    // Optimized beats baseline; hand-tuned is at least in the same class.
    assert!(t_opt < t_base, "optimized {t_opt} vs baseline {t_base}");
    assert!(
        t_hand.as_ns() < t_base.as_ns(),
        "hand-tuned {t_hand} vs baseline {t_base}"
    );
}
