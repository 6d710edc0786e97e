//! Property-based tests of the PETSc layer: arbitrary scatters must move
//! values correctly under every backend, and the distributed vector
//! reductions must match their sequential counterparts.

use ncd_core::{Comm, MpiConfig};
use ncd_petsc::{IndexSet, Layout, PVec, ScatterBackend, VecScatter};
use ncd_simnet::{Cluster, ClusterConfig};
use proptest::prelude::*;

const BACKENDS: [ScatterBackend; 2] = [ScatterBackend::HandTuned, ScatterBackend::Datatype];

/// Scatter `x0[src[k]]` into `y0[dst[k]]` on `nranks` ranks, each rank
/// contributing a slice of the pair list, with the split form; the
/// gathered destination vector.
fn scatter_on_cluster(
    nranks: usize,
    cfg: MpiConfig,
    backend: ScatterBackend,
    (x0, y0): (&[f64], &[f64]),
    (src, dst): (&[usize], &[usize]),
) -> Vec<f64> {
    let (x0, y0, src, dst) = (x0.to_vec(), y0.to_vec(), src.to_vec(), dst.to_vec());
    let out = Cluster::new(ClusterConfig::uniform(nranks)).run(move |rank| {
        let mut comm = Comm::new(rank, cfg.clone());
        let vec_of = |vals: &[f64]| {
            let layout = Layout::balanced(vals.len(), comm.size());
            let (s, e) = layout.range(comm.rank());
            PVec::from_local(layout, comm.rank(), vals[s..e].to_vec())
        };
        let (x, mut y) = (vec_of(&x0), vec_of(&y0));
        let per = src.len().div_ceil(comm.size());
        let lo = (comm.rank() * per).min(src.len());
        let hi = ((comm.rank() + 1) * per).min(src.len());
        let plan = VecScatter::create(
            &mut comm,
            x.layout().clone(),
            &IndexSet::general(src[lo..hi].to_vec()),
            y.layout().clone(),
            &IndexSet::general(dst[lo..hi].to_vec()),
        );
        let handle = plan.begin(&mut comm, &x, &mut y, backend);
        plan.end(&mut comm, handle, &mut y);
        y.local().to_vec()
    });
    out.into_iter().flatten().collect()
}

/// Runs of `len` consecutive indices, each starting `gap` past the
/// previous run's end (a gap of 0 extends the run).
fn runs_of(blocks: &[(usize, usize)]) -> Vec<usize> {
    let mut out = Vec::new();
    for &(gap, len) in blocks {
        let start = out.last().map_or(gap, |&last| last + 1 + gap);
        out.extend(start..start + len);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A random subset of source indices (optionally with repeats)
    /// scattered to a random permutation of destination slots, split
    /// arbitrarily across ranks: under both backends and both MPI flavors,
    /// every slot must hold what the sequential model `y[d] = x[s]` says,
    /// bit for bit, and every slot no pair names must keep its value.
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
        // two sides of the plan have different layouts. A scatter must move
        // bit patterns, so the values are the awkward ones — NaNs with
        // distinct payloads, -0.0, subnormals, ±∞ — compared by `to_bits`.
        let m = n + 5;
        let awkward = |g: usize, side: u64| match g % 6 {
            0 => f64::from_bits(0x7ff8_0000_0000_0000 | side << 32 | (g as u64 + 1)),
            1 => f64::from_bits(0xfff8_0000_0000_0000 | side << 32 | (g as u64 + 1)),
            2 => if side == 0 { -0.0 } else { 0.0 },
            3 => f64::from_bits(side << 32 | (g as u64 + 1)),
            4 => if side == 0 { f64::INFINITY } else { f64::NEG_INFINITY },
            _ => (g + 1) as f64,
        };
        let x0: Vec<f64> = (0..n).map(|g| awkward(g, 0)).collect();
        let y0: Vec<f64> = (0..m).map(|g| awkward(g, 1)).collect();

        let cases = [false, true]
            .into_iter()
            .flat_map(|repeat| BACKENDS.map(|backend| (repeat, backend)));
        for (repeat, backend) in cases {
            // Repeats fold the sources onto fewer indices; the destinations
            // stay distinct, as `create` requires.
            let fold = if repeat { take / 2 + 1 } else { n };
            let src_v: Vec<usize> = src_idx[..take].iter().map(|&s| s % fold).collect();
            let dst_v = dst_idx.to_vec();

            // The sequential model: what each destination slot must hold.
            let mut want = y0.clone();
            for (&sg, &dg) in src_v.iter().zip(&dst_v) {
                want[dg] = x0[sg];
            }

            let cfg = if baseline { MpiConfig::baseline() } else { MpiConfig::optimized() };
            let got = scatter_on_cluster(nranks, cfg, backend, (&x0, &y0), (&src_v, &dst_v));
            prop_assert_eq!(got.len(), want.len());
            for (g, (&v, &w)) in got.iter().zip(&want).enumerate() {
                prop_assert!(
                    v.to_bits() == w.to_bits(),
                    "{:?} repeat={}: slot {} holds {} ({:#x}), want {} ({:#x}), started at {}",
                    backend, repeat, g, v, v.to_bits(), w, w.to_bits(), y0[g]
                );
            }
        }
    }

    /// Multi-element runs on both sides that break at different points —
    /// the source in blocks of one set of lengths (optionally stepping back
    /// over sources already named), the destination in blocks of another —
    /// so the self copy's two cursors, the run-wise pack and the run-wise
    /// unpack all meet runs that end inside a run of the other side. Under both backends and both MPI
    /// flavors, every slot must match the sequential model bit for bit.
    #[test]
    fn run_heavy_scatters_move_values_exactly(
        nranks in 1usize..6,
        src_blocks in proptest::collection::vec((0usize..4, 1usize..9), 1..12),
        dst_blocks in proptest::collection::vec((0usize..4, 1usize..9), 1..12),
        back in 0usize..4,
    ) {
        let mut src_v = runs_of(&src_blocks);
        let mut dst_v = runs_of(&dst_blocks);
        // Repeated sources: the second half steps back `3 * back` elements
        // and re-reads what the first half already sent.
        let half = src_v.len() / 2;
        for s in &mut src_v[half..] {
            *s = s.saturating_sub(back * 3);
        }
        let k = src_v.len().min(dst_v.len());
        src_v.truncate(k);
        dst_v.truncate(k);
        let n = src_v.iter().max().map_or(0, |&s| s + 1) + 2;
        let m = dst_v.iter().max().map_or(0, |&d| d + 1) + 3;
        let x0: Vec<f64> = (0..n).map(|g| f64::from_bits(0x7ff8_0000_0000_0000 | (g as u64 + 1))).collect();
        let y0: Vec<f64> = (0..m).map(|g| -((g + 1) as f64)).collect();
        let mut want = y0.clone();
        for (&sg, &dg) in src_v.iter().zip(&dst_v) {
            want[dg] = x0[sg];
        }
        for cfg in [MpiConfig::baseline(), MpiConfig::optimized()] {
            for backend in BACKENDS {
                let got = scatter_on_cluster(nranks, cfg.clone(), backend, (&x0, &y0), (&src_v, &dst_v));
                prop_assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{:?}", backend
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
