//! Property-based tests of the PETSc layer: arbitrary scatters must move
//! values correctly under every backend, and the distributed vector
//! reductions must match their sequential counterparts.

use ncd_core::{Comm, MpiConfig};
use ncd_petsc::{IndexSet, InsertMode, Layout, PVec, ScatterBackend, ScatterMode, VecScatter};
use ncd_simnet::{Cluster, ClusterConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A random subset of source indices (optionally with repeats)
    /// scattered to a random permutation of destination slots, split
    /// arbitrarily across ranks: in either direction and either insert
    /// mode, under both backends and both MPI flavors, every slot must hold
    /// what one sequential model says — `y[d] = x[s]`, `y[d] += x[s]`,
    /// `x[s] = y[d]` (a repeated `s` keeps one of its pairs), `x[s] += y[d]`.
    #[test]
    fn arbitrary_scatters_move_values_exactly(
        nranks in 1usize..6,
        n in 1usize..64,
        seed in 0u64..1000,
        baseline in any::<bool>(),
    ) {
        // Build a deterministic pseudorandom partial permutation.
        let mut src_idx: Vec<usize> = (0..n).collect();
        let mut dst_idx: Vec<usize> = (0..n).collect();
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut shuffle = |v: &mut Vec<usize>| {
            for i in (1..v.len()).rev() {
                x ^= x << 13; x ^= x >> 7; x ^= x << 17;
                v.swap(i, (x as usize) % (i + 1));
            }
        };
        shuffle(&mut src_idx);
        shuffle(&mut dst_idx);
        let take = n / 2 + 1;
        let dst_idx = &dst_idx[..take];
        // The destination vector is longer than the source vector, so the
        // two sides of the plan have different layouts. `Add` gets integer
        // values, which keep every sum exact whatever order it is taken in;
        // `Insert` must move bit patterns, so it gets the awkward ones — NaNs
        // with distinct payloads, -0.0, subnormals, ±∞ — and is compared by
        // `to_bits`.
        let m = n + 5;
        let int_x: Vec<f64> = (0..n).map(|g| (g + 1) as f64).collect();
        let int_y: Vec<f64> = (0..m).map(|g| -((g + 1000) as f64)).collect();
        let awkward = |g: usize, side: u64| match g % 6 {
            0 => f64::from_bits(0x7ff8_0000_0000_0000 | side << 32 | (g as u64 + 1)),
            1 => f64::from_bits(0xfff8_0000_0000_0000 | side << 32 | (g as u64 + 1)),
            2 => if side == 0 { -0.0 } else { 0.0 },
            3 => f64::from_bits(side << 32 | (g as u64 + 1)),
            4 => if side == 0 { f64::INFINITY } else { f64::NEG_INFINITY },
            _ => (g + 1) as f64,
        };
        let bit_x: Vec<f64> = (0..n).map(|g| awkward(g, 0)).collect();
        let bit_y: Vec<f64> = (0..m).map(|g| awkward(g, 1)).collect();

        let cases = [false, true].into_iter().flat_map(|repeat| {
            [ScatterMode::Forward, ScatterMode::Reverse].into_iter().flat_map(move |mode| {
                [InsertMode::Insert, InsertMode::Add].into_iter().flat_map(move |insert| {
                    [ScatterBackend::HandTuned, ScatterBackend::Datatype]
                        .map(|backend| (repeat, mode, insert, backend))
                })
            })
        });
        for (repeat, mode, insert, backend) in cases {
            let fold = if repeat { take / 2 + 1 } else { n };
            let src_v: Vec<usize> = src_idx[..take].iter().map(|&s| s % fold).collect();
            let dst_v = dst_idx.to_vec();
            let (x0, y0) = match insert {
                InsertMode::Insert => (&bit_x, &bit_y),
                InsertMode::Add => (&int_x, &int_y),
            };

            // The sequential model: the values that land in each slot.
            let init = match mode { ScatterMode::Forward => y0, ScatterMode::Reverse => x0 };
            let mut landing: Vec<Vec<f64>> = vec![Vec::new(); init.len()];
            for (&sg, &dg) in src_v.iter().zip(&dst_v) {
                match mode {
                    ScatterMode::Forward => landing[dg].push(x0[sg]),
                    ScatterMode::Reverse => landing[sg].push(y0[dg]),
                }
            }

            let cfg = if baseline { MpiConfig::baseline() } else { MpiConfig::optimized() };
            let (x0_c, y0_c) = (x0.clone(), y0.clone());
            let out = Cluster::new(ClusterConfig::uniform(nranks)).run(move |rank| {
                let mut comm = Comm::new(rank, cfg.clone());
                let vec_of = |len: usize, vals: &[f64]| {
                    let layout = Layout::balanced(len, comm.size());
                    let (s, e) = layout.range(comm.rank());
                    PVec::from_local(layout, comm.rank(), vals[s..e].to_vec())
                };
                let (mut x, mut y) = (vec_of(n, &x0_c), vec_of(m, &y0_c));
                // Each rank contributes a slice of the pair list.
                let per = src_v.len().div_ceil(comm.size());
                let lo = (comm.rank() * per).min(src_v.len());
                let hi = ((comm.rank() + 1) * per).min(src_v.len());
                let plan = VecScatter::create(
                    &mut comm,
                    x.layout().clone(),
                    &IndexSet::general(src_v[lo..hi].to_vec()),
                    y.layout().clone(),
                    &IndexSet::general(dst_v[lo..hi].to_vec()),
                );
                let (from, to) = match mode {
                    ScatterMode::Forward => (&x, &mut y),
                    ScatterMode::Reverse => (&y, &mut x),
                };
                let handle = plan.begin(&mut comm, from, to, backend, insert, mode);
                plan.end(&mut comm, handle, to);
                to.local().to_vec()
            });
            let got: Vec<f64> = out.into_iter().flatten().collect();
            prop_assert_eq!(got.len(), init.len());
            for (g, &v) in got.iter().enumerate() {
                let same = |w: f64| w.to_bits() == v.to_bits();
                let ok = match (landing[g].as_slice(), insert) {
                    ([], _) => same(init[g]),
                    (vals, InsertMode::Insert) => vals.iter().any(|&w| same(w)),
                    (vals, InsertMode::Add) => same(init[g] + vals.iter().sum::<f64>()),
                };
                prop_assert!(
                    ok,
                    "{:?} {:?} {:?} repeat={}: slot {} holds {} ({:#x}), started at {}, lands {:?} ({:x?})",
                    mode, insert, backend, repeat, g, v, v.to_bits(), init[g], landing[g],
                    landing[g].iter().map(|w| w.to_bits()).collect::<Vec<_>>()
                );
            }
        }
    }

    /// Vector reductions agree with sequential arithmetic regardless of the
    /// partition.
    #[test]
    fn reductions_match_sequential(
        nranks in 1usize..6,
        vals in proptest::collection::vec(-10.0f64..10.0, 1..50),
    ) {
        let n = vals.len();
        let vals_c = vals.clone();
        let out = Cluster::new(ClusterConfig::uniform(nranks)).run(move |rank| {
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            let layout = Layout::balanced(n, comm.size());
            let (s, e) = layout.range(comm.rank());
            let v = PVec::from_local(layout, comm.rank(), vals_c[s..e].to_vec());
            (v.sum(&mut comm), v.norm2(&mut comm), v.norm_inf(&mut comm), v.dot(&mut comm, &v))
        });
        let sum: f64 = vals.iter().sum();
        let dot: f64 = vals.iter().map(|v| v * v).sum();
        let ninf = vals.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (s, n2, ni, d) in out {
            prop_assert!((s - sum).abs() < 1e-9);
            prop_assert!((n2 - dot.sqrt()).abs() < 1e-9);
            prop_assert!((ni - ninf).abs() < 1e-12);
            prop_assert!((d - dot).abs() < 1e-9);
        }
    }
}
