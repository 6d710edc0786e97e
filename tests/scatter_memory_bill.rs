//! Who holds a multigrid hierarchy's heap: each distributed array and each
//! transfer plan, holder by holder.
//!
//! `multigrid_64`'s hierarchy (three levels, 7-point star, one ghost
//! layer) at a shape a debug build runs quickly: 8 ranks, 40³. Each rank
//! takes `Multigrid::new`'s steps in its order through the public API —
//! the three distributed arrays, then per level pair the restriction
//! gather of every owned coarse point's fine children and the
//! interpolation gather of the coarse points around every owned fine
//! point, each with its gather buffer — and then builds `Multigrid::new`
//! itself, whose remainder over those rows is the interpolation CSR, the
//! level vectors and the diagonals.
//!
//! A counting allocator keeps live and high-water bytes. Rank 0 reads
//! them between two barriers after each step, so every rank has finished
//! it and none has started the next, and each row is the difference of
//! two readings summed over all ranks. A plan's closed form is its maps'
//! segments at 24 B each (a 16 B segment and its 8 B packed start), one
//! map header and one `alltoallw` slot per rank on each side of each
//! rank's plan, and the gather buffer at 8 B per element. The test prints
//! the table and asserts that every array and plan holds less than twice
//! its closed form: a per-element list beside the maps (16 B per element)
//! fails it. This file holds one test, so nothing else allocates while it
//! measures.
//!
//! `cargo test --release --test scatter_memory_bill -- --nocapture`
//! prints the table.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

use nucomm::core::{Comm, MpiConfig, WPeer};
use nucomm::petsc::{DistributedArray, Multigrid, PVec, ScatterBackend, StencilKind, VecScatter};
use nucomm::simnet::{Cluster, ClusterConfig, Rank};

/// `System`, counting the bytes allocated now and their high-water since
/// rank 0's last reading.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counters only observe.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const N: usize = 8;
const DIMS: [usize; 3] = [40, 40, 40];
const LEVELS: usize = 3;

/// Heap one committed map keeps besides its segments: the `Arc`'s counts
/// and the map's fields, rounded up.
const MAP_HEADER: usize = 112;

/// Rank 0's reading after a step: live bytes, and their high-water since
/// the reading before.
struct Reading {
    step: String,
    live: usize,
    peak: usize,
}

/// A barrier, rank 0's reading, a barrier: every rank is between its
/// last step and its next.
fn read(comm: &mut Comm, readings: &Mutex<Vec<Reading>>, step: impl Into<String>) {
    comm.barrier();
    if comm.rank() == 0 {
        let live = LIVE.load(Relaxed);
        let peak = PEAK.swap(live, Relaxed);
        let mut readings = readings.lock().expect("no rank panics holding it");
        readings.push(Reading {
            step: step.into(),
            live,
            peak,
        });
    }
    comm.barrier();
}

/// What one rank's plan is made of: its maps' segments and its gather
/// buffer's elements (0 for a distributed array's ghost plan).
#[derive(Clone, Copy)]
struct Shape {
    segments: usize,
    buffer: usize,
}

/// `Multigrid::new`'s restriction gather: every owned coarse point's fine
/// children (cell-centred coarsening by 2, clipped), x fastest.
fn children(fine: &DistributedArray, coarse: &DistributedArray) -> Vec<usize> {
    let fd = fine.dims();
    let span = |c: usize, d: usize| 2 * c..(2 * c + 2).min(fd[d]);
    let mut needed = Vec::new();
    for cp in coarse.owned_points() {
        for k in span(cp[2], 2) {
            for j in span(cp[1], 1) {
                for i in span(cp[0], 0) {
                    needed.push(fine.global_vec_index([i, j, k], 0));
                }
            }
        }
    }
    needed
}

/// `Multigrid::new`'s interpolation gather: the coarse points around each
/// owned fine point (its parent, and per dimension the neighbour on its
/// side where there is one), each once, in first-use order with a fine
/// point's points by global index.
fn stencil_points(fine: &DistributedArray, coarse: &DistributedArray) -> Vec<usize> {
    let cd = coarse.dims();
    let mut seen = std::collections::HashSet::new();
    let mut unique = Vec::new();
    for fp in fine.owned_points() {
        let axis = |d: usize| {
            let parent = fp[d] / 2;
            let neighbour = if fp[d] % 2 == 0 {
                parent.checked_sub(1)
            } else {
                Some(parent + 1).filter(|&n| n < cd[d])
            };
            std::iter::once(parent).chain(neighbour)
        };
        let mut pts: Vec<usize> = axis(2)
            .flat_map(|k| axis(1).flat_map(move |j| axis(0).map(move |i| [i, j, k])))
            .map(|p| coarse.global_vec_index(p, 0))
            .collect();
        pts.sort_unstable();
        unique.extend(pts.into_iter().filter(|&g| seen.insert(g)));
    }
    unique
}

/// The steps, with a reading after each; this rank's shape of every
/// array and plan, in step order.
fn program(rank: &mut Rank, readings: &Mutex<Vec<Reading>>) -> Vec<Shape> {
    let mut comm = Comm::new(rank, MpiConfig::optimized());
    read(&mut comm, readings, "start");
    let mut shapes = Vec::new();
    let mut das = Vec::new();
    let mut dims = DIMS;
    for lev in 0..LEVELS {
        let da = DistributedArray::new(&mut comm, &dims, 1, StencilKind::Star, 1);
        let segments = da.ghost_scatter().num_segments();
        shapes.push(Shape {
            segments,
            buffer: 0,
        });
        das.push(da);
        read(&mut comm, readings, format!("DA l{lev} ({}³)", dims[0]));
        dims = dims.map(|n| n.div_ceil(2));
    }
    let mut plans = Vec::new();
    for lev in 0..LEVELS - 1 {
        let (fine, coarse) = (&das[lev], &das[lev + 1]);
        type Needed = fn(&DistributedArray, &DistributedArray) -> Vec<usize>;
        let gathers: [(&str, &DistributedArray, Needed); 2] = [
            ("restriction", fine, children),
            ("interpolation", coarse, stencil_points),
        ];
        for (name, from, needed) in gathers {
            let needed = needed(fine, coarse);
            let n = needed.len();
            let layout = from.global_layout().clone();
            let (plan, buf_layout) = VecScatter::gather_plan(&mut comm, layout, needed);
            let buffer = PVec::zeros(buf_layout, comm.rank());
            let segments = plan.num_segments();
            shapes.push(Shape {
                segments,
                buffer: n,
            });
            plans.push((plan, buffer));
            read(
                &mut comm,
                readings,
                format!("{name} plan l{lev}→l{}", lev + 1),
            );
        }
    }
    drop((plans, das));
    read(&mut comm, readings, "dropped");
    let mg = Multigrid::new(&mut comm, &DIMS, 1.0, LEVELS, ScatterBackend::HandTuned);
    read(&mut comm, readings, "Multigrid::new");
    drop(mg);
    shapes
}

#[test]
fn multigrid_plans_hold_their_maps_and_no_more() {
    let readings = Mutex::new(Vec::new());
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = Cluster::new(ClusterConfig::uniform(N)).try_run(|rank| program(rank, &readings));
    let shapes = out.results.expect("the run completes");
    let readings = readings.into_inner().unwrap();

    // Every rank's plan has a map header and an `alltoallw` slot for every
    // rank on each side; a gather plan also has its buffer's layout.
    let per_rank = 2 * N * (MAP_HEADER + size_of::<WPeer>());
    let rows: Vec<(&str, usize, usize, usize)> = (0..shapes[0].len())
        .map(|i| {
            let (before, after) = (&readings[i], &readings[i + 1]);
            let segments: usize = shapes.iter().map(|s| s[i].segments).sum();
            let buffer: usize = shapes.iter().map(|s| s[i].buffer).sum();
            let closed = 24 * segments + N * per_rank + 8 * buffer;
            let held = after.live - before.live;
            (after.step.as_str(), held, closed, after.peak - before.live)
        })
        .collect();
    let at = |step: &str| readings.iter().find(|r| r.step == step).unwrap();
    let whole = at("Multigrid::new").live - at("dropped").live;
    let named: usize = rows.iter().map(|r| r.1).sum();

    println!(
        "memory bill: multigrid_64's hierarchy at {N} ranks, {}³, {LEVELS} levels, heap bytes summed over ranks",
        DIMS[0]
    );
    println!(
        "{:<30} {:>11} {:>11} {:>11}",
        "holder", "held", "closed", "set-up peak"
    );
    for &(step, held, closed, peak) in &rows {
        println!("{step:<30} {held:>11} {closed:>11} {peak:>11}");
    }
    println!(
        "closed form: 24 B × segments + {N} × 2 × {N} × ({MAP_HEADER} + {}) B + 8 B × buffer",
        size_of::<WPeer>()
    );
    println!("{:<30} {whole:>11}", "Multigrid::new");
    println!(
        "{:<30} {:>11}",
        "of which not above: CSR, level vectors, diagonals",
        whole.saturating_sub(named)
    );

    for &(step, held, closed, _) in &rows {
        assert!(
            held < 2 * closed,
            "{step}: holds {held} B, twice its closed form is {} B",
            2 * closed
        );
    }
    assert!(
        named <= whole,
        "the arrays and plans ({named} B) are part of Multigrid::new ({whole} B)"
    );
}
