//! The multigrid kernels against their oracles (`common`): the row-wise
//! Laplacian, the fused Jacobi sweep and residual, and the palette form of
//! interpolation must produce the bits the per-point walk, the unfused
//! vector operations and the `(slot, weight)` list produce — and charge
//! the same simulated time doing it.

mod common;

use common::{apply_per_point, ListInterp};
use ncd_core::{Comm, MpiConfig};
use ncd_petsc::{
    DistributedArray, LaplacianOp, LinearOp, Multigrid, PVec, ScatterBackend, StencilKind,
};
use ncd_simnet::{Cluster, ClusterConfig};
use proptest::prelude::*;

#[derive(Clone, Copy)]
enum Form {
    Library,
    Oracle,
}

/// What one rank reports: the bits of every vector it computed, its final
/// clock and the simulated compute time it was charged (both ns).
type Report = (Vec<u64>, u64, u64);

/// The largest rank count up to `want` that can partition every grid in
/// `grids` (a process grid no wider than the grid in any dimension).
fn ranks_for(grids: &[Vec<usize>], want: usize) -> usize {
    let fits = |dims: &[usize], p: usize| {
        let d = |i: usize| dims.get(i).copied().unwrap_or(1);
        (1..=p).any(|px| {
            p.is_multiple_of(px)
                && (1..=p / px).any(|py| {
                    (p / px).is_multiple_of(py) && px <= d(0) && py <= d(1) && p / px / py <= d(2)
                })
        })
    };
    (1..=want)
        .rev()
        .find(|&p| grids.iter().all(|g| fits(g, p)))
        .expect("one rank partitions any grid")
}

/// Finite values of mixed sign and magnitude, a different one per global
/// index and `salt`, so a reordered sum or a neighbour read from the
/// wrong place changes low-order bits.
fn value(g: usize, salt: u64) -> f64 {
    let mut z = (g as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    let mantissa = (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    mantissa * [1e-3, 1.0, 7.0, 1e4][(z & 3) as usize]
}

fn filled(da: &DistributedArray, salt: u64) -> PVec {
    let mut v = da.create_global_vec();
    let (start, _) = v.ownership_range();
    for (i, vi) in v.local_mut().iter_mut().enumerate() {
        *vi = value(start + i, salt);
    }
    v
}

fn run(
    nranks: usize,
    seed: u64,
    body: impl Fn(&mut Comm, &mut Vec<u64>) + Send + Sync,
) -> Vec<Report> {
    let cluster = ClusterConfig::paper_testbed(nranks).with_seed(seed);
    Cluster::new(cluster).run(move |rank| {
        let mut comm = Comm::new(rank, MpiConfig::optimized());
        let mut bits = Vec::new();
        body(&mut comm, &mut bits);
        let rank = comm.rank_ref();
        (bits, rank.now().as_ns(), rank.stats().compute.as_ns())
    })
}

fn push_bits(bits: &mut Vec<u64>, v: &PVec) {
    bits.extend(v.local().iter().map(|x| x.to_bits()));
}

/// `y = A x`, then `z = A y` through the same operator (whose scratch is
/// then in its second use), in either form.
fn apply_twice(
    dims: &[usize],
    nranks: usize,
    seed: u64,
    backend: ScatterBackend,
    form: Form,
) -> Vec<Report> {
    let dims = dims.to_vec();
    run(nranks, seed, move |comm, bits| {
        let da = DistributedArray::new(comm, &dims, 1, StencilKind::Star, 1);
        let h = 1.0 / (dims[0] as f64 + 0.3);
        let x = filled(&da, seed);
        let (mut y, mut z) = (da.create_global_vec(), da.create_global_vec());
        match form {
            Form::Library => {
                let op = LaplacianOp::new(&da, h);
                op.apply(comm, &x, &mut y, backend);
                op.apply(comm, &y, &mut z, backend);
            }
            Form::Oracle => {
                apply_per_point(comm, &da, h, &x, &mut y, backend);
                apply_per_point(comm, &da, h, &y, &mut z, backend);
            }
        }
        push_bits(bits, &y);
        push_bits(bits, &z);
    })
}

/// On a two-level hierarchy: one Jacobi sweep, the residual after it, and
/// an interpolated correction added in — fused, or as "apply, then the
/// vector operations".
fn mg_pieces(
    dims: &[usize],
    nranks: usize,
    seed: u64,
    backend: ScatterBackend,
    form: Form,
) -> Vec<Report> {
    let dims = dims.to_vec();
    run(nranks, seed, move |comm, bits| {
        let h = 1.0 / (dims[0] as f64 + 0.3);
        let mg = Multigrid::new(comm, &dims, h, 2, backend);
        let (fine, coarse) = (mg.level_da(0), mg.level_da(1));
        let list = ListInterp::build(comm, fine, coarse);
        let b = filled(fine, seed);
        let mut x = filled(fine, seed ^ 0xA5A5);
        let mut r = fine.create_global_vec();
        let coarse_x = filled(coarse, seed ^ 0x5A5A);
        match form {
            Form::Library => {
                mg.smooth(comm, 0, &b, &mut x);
                mg.residual(comm, 0, &b, &x, &mut r);
                mg.interp_add(comm, 0, &coarse_x, &mut x);
            }
            Form::Oracle => {
                let diag = LaplacianOp::new(fine, h).diagonal_vec();
                apply_per_point(comm, fine, h, &x, &mut r, backend);
                for (i, xi) in x.local_mut().iter_mut().enumerate() {
                    *xi += Multigrid::OMEGA * (1.0 / diag[i]) * (b.local()[i] - r.local()[i]);
                }
                comm.rank_mut().compute_flops(4 * b.local_size() as u64);
                apply_per_point(comm, fine, h, &x, &mut r, backend);
                r.scale(comm, -1.0);
                r.axpy(comm, 1.0, &b);
                list.interp_add(comm, &coarse_x, &mut x, backend);
            }
        }
        push_bits(bits, &x);
        push_bits(bits, &r);
    })
}

const BACKENDS: [ScatterBackend; 2] = [ScatterBackend::HandTuned, ScatterBackend::Datatype];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn row_kernel_matches_the_per_point_walk(
        ndim in 1usize..4,
        sizes in (1usize..10, 1usize..10, 1usize..10),
        want_ranks in 1usize..9,
        seed in 0u64..1000,
    ) {
        let dims = [sizes.0 + 3 * (3 - ndim), sizes.1, sizes.2][..ndim].to_vec();
        let nranks = ranks_for(std::slice::from_ref(&dims), want_ranks);
        for backend in BACKENDS {
            let lib = apply_twice(&dims, nranks, seed, backend, Form::Library);
            let oracle = apply_twice(&dims, nranks, seed, backend, Form::Oracle);
            prop_assert_eq!(lib, oracle, "{:?} on {} ranks, {:?}", dims, nranks, backend);
        }
    }

    #[test]
    fn fused_sweep_residual_and_palette_interpolation_match_their_unfused_forms(
        ndim in 1usize..4,
        sizes in (3usize..12, 3usize..12, 3usize..12),
        want_ranks in 1usize..9,
        seed in 0u64..1000,
    ) {
        let dims = [sizes.0 + 6 * (3 - ndim), sizes.1, sizes.2][..ndim].to_vec();
        let coarse: Vec<usize> = dims.iter().map(|n| n.div_ceil(2)).collect();
        let nranks = ranks_for(&[dims.clone(), coarse], want_ranks);
        for backend in BACKENDS {
            let lib = mg_pieces(&dims, nranks, seed, backend, Form::Library);
            let oracle = mg_pieces(&dims, nranks, seed, backend, Form::Oracle);
            prop_assert_eq!(lib, oracle, "{:?} on {} ranks, {:?}", dims, nranks, backend);
        }
    }
}

/// A prime rank count no other dimension can hold forces the split onto
/// x, one cell per rank: interior rows whose branch-free stretch is one
/// point or none.
#[test]
fn slabs_one_cell_wide_in_x() {
    let cases: [(&[usize], usize); 4] = [(&[7, 3, 3], 7), (&[5, 4, 3], 5), (&[5], 5), (&[7, 2], 7)];
    for (dims, nranks) in cases {
        let widths = run(nranks, 0, |comm, out| {
            let da = DistributedArray::new(comm, dims, 1, StencilKind::Star, 1);
            out.push(da.owned().1[0] as u64);
        });
        assert!(widths.iter().all(|w| w.0 == [1]), "{dims:?}: {widths:?}");
        for backend in BACKENDS {
            let lib = apply_twice(dims, nranks, 11, backend, Form::Library);
            let oracle = apply_twice(dims, nranks, 11, backend, Form::Oracle);
            assert_eq!(lib, oracle, "{dims:?} on {nranks} ranks, {backend:?}");
        }
    }
}
