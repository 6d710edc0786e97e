//! Who holds `allgatherv_1k`'s heap, holder by holder.
//!
//! The workload's shape at N = 256 (uniform speeds, 1 500 ns of noise,
//! seed 20070326, 64 B blocks): a warm-up ring and recursive doubling,
//! then rounds of {barrier, clock reset, ring} and {barrier, clock reset,
//! recursive doubling}. The clock reset lets every rank start an
//! operation at time zero, so a rank that runs late finds its upstream
//! neighbour's envelopes queued behind it, as in the benchmark.
//!
//! A counting allocator keeps live and high-water bytes. Nothing inside
//! the library can be tagged from here, so rank 0 reads the counters
//! between two barriers, where every rank has finished the last step and
//! none has started the next, and each holder is a closed form or the
//! difference of two readings. The test prints the table and asserts that
//! named holders cover at least 90 % of the high-water, that each holder
//! stays under twice its closed form or within its bound, so a doubling
//! fails, and that drained mailboxes keep no more than their floor. This
//! file holds one test, so nothing else allocates while it measures.
//!
//! `cargo test --release --test memory_bill -- --nocapture` prints the
//! table.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

use nucomm::core::{AllgathervAlgorithm, Comm, MpiConfig};
use nucomm::simnet::mailbox::RELEASE_FLOOR;
use nucomm::simnet::runtime::{DEFAULT_RECORDER_CAPACITY, DEFAULT_STACK_BYTES};
use nucomm::simnet::{Cluster, ClusterConfig, CostModel, NetMsg, Rank, TaskBackend};

/// `System`, counting the bytes allocated now, their high-water since
/// rank 0's last reading, and the part held by fiber stack slabs.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static SLABS: AtomicUsize = AtomicUsize::new(0);

/// Fiber stacks come in slabs of 64 stacks; nothing else the run
/// allocates comes near this size.
const SLAB_MIN: usize = 16 << 20;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counters only observe.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= SLAB_MIN {
            SLABS.fetch_add(layout.size(), Relaxed);
        }
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if layout.size() >= SLAB_MIN {
            SLABS.fetch_sub(layout.size(), Relaxed);
        }
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

const N: usize = 256;
const BLOCK: usize = 64;
const ROUNDS: usize = 3;

/// Rank 0's reading after a step: live bytes, and their high-water
/// since the reading before.
struct Reading {
    step: &'static str,
    live: usize,
    peak: usize,
    slabs: usize,
}

/// A barrier, rank 0's reading, a barrier. Rank 0 leaves the first
/// barrier only after every rank entered it, and no rank leaves the
/// second before rank 0 entered it: every rank is between its last step
/// and its next, and every envelope of the last step has been received.
fn read(rank: &mut Rank, readings: &Mutex<Vec<Reading>>, step: &'static str) {
    let mut comm = Comm::new(rank, MpiConfig::optimized());
    comm.barrier();
    if comm.rank() == 0 {
        let mut readings = readings.lock().expect("no rank panics holding it");
        let live = LIVE.load(Relaxed);
        let peak = PEAK.swap(live, Relaxed);
        let slabs = SLABS.load(Relaxed);
        readings.push(Reading {
            step,
            live,
            peak,
            slabs,
        });
    }
    comm.barrier();
}

/// The benchmark's cluster at N ranks, on the target's default task
/// backend whatever `NCD_SCHED_TASKS` says: fiber stacks are a holder.
fn cluster(recorder_capacity: usize) -> Cluster {
    Cluster::new(
        ClusterConfig::uniform(N)
            .with_cost(CostModel::default().with_noise(1_500.0))
            .with_seed(20070326)
            .with_recorder_capacity(recorder_capacity)
            .with_task_backend(TaskBackend::default_for_target()),
    )
}

/// The workload's steps, with a reading after each.
fn program(rank: &mut Rank, readings: &Mutex<Vec<Reading>>) -> bool {
    use AllgathervAlgorithm::{RecursiveDoubling, Ring};
    read(rank, readings, "spawned");
    let counts = vec![BLOCK; N];
    read(rank, readings, "counts");
    let send = vec![rank.rank() as u8; BLOCK];
    let mut recv = vec![0u8; N * BLOCK];
    read(rank, readings, "buffers");
    let mut comm = Comm::new(rank, MpiConfig::optimized());
    comm.allgatherv_with(Ring, &send, &counts, &mut recv);
    comm.allgatherv_with(RecursiveDoubling, &send, &counts, &mut recv);
    read(rank, readings, "warm-up");
    for _ in 0..ROUNDS {
        for (step, algo) in [(RING, Ring), (DOUBLING, RecursiveDoubling)] {
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            comm.barrier();
            comm.rank_mut().reset_clock();
            comm.allgatherv_with(algo, &send, &counts, &mut recv);
            read(rank, readings, step);
        }
    }
    recv.chunks(BLOCK)
        .enumerate()
        .all(|(r, block)| block.iter().all(|&b| b == r as u8))
}

const RING: &str = "ring";
const DOUBLING: &str = "recursive doubling";

/// One line of the bill: what holds the bytes, how many it holds, what
/// it should hold by construction, and the most it may hold.
struct Holder {
    name: &'static str,
    bytes: usize,
    closed: usize,
    formula: &'static str,
    limit: usize,
}

impl Holder {
    /// A holder with an exact closed form: a doubling fails.
    fn exact(name: &'static str, bytes: usize, closed: usize, formula: &'static str) -> Self {
        Holder {
            name,
            bytes,
            closed,
            formula,
            limit: 2 * closed - 1,
        }
    }

    /// A holder whose closed form is a bound the run stays under.
    fn at_most(name: &'static str, bytes: usize, bound: usize, formula: &'static str) -> Self {
        Holder {
            limit: bound,
            ..Holder::exact(name, bytes, bound, formula)
        }
    }
}

#[test]
fn allgatherv_memory_is_attributed_holder_by_holder() {
    let readings = Mutex::new(Vec::with_capacity(4 + 2 * ROUNDS + 1));
    // The recorder rings are what a run with the smallest rings, 8 slots,
    // does not allocate.
    let base = LIVE.load(Relaxed);
    let bare = cluster(8).try_run(|rank| read(rank, &readings, "spawned"));
    bare.results.expect("the bare run completes");
    let bare_spawned = readings.lock().unwrap().pop().unwrap().live - base;

    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = cluster(DEFAULT_RECORDER_CAPACITY).try_run(|rank| program(rank, &readings));
    let results = out.results.expect("the run completes");
    assert!(
        results.into_iter().all(|ok| ok),
        "every rank gathered every block"
    );
    let readings = readings.into_inner().unwrap();
    let at = |step: &str| {
        let r = readings.iter().find(|r| r.step == step).unwrap();
        r.live - base
    };
    // The high-water falls in one step; what was live before it is what
    // earlier steps left behind.
    let top = (1..readings.len())
        .max_by_key(|&k| readings[k].peak)
        .unwrap();
    let (before, peak) = (readings[top - 1].live - base, readings[top].peak - base);
    let slabs = readings[0].slabs;
    let spawned = at("spawned");
    let rings = spawned - bare_spawned;
    let displs = N * N * size_of::<usize>();
    let stacks = match TaskBackend::default_for_target() {
        TaskBackend::Fiber => N * DEFAULT_STACK_BYTES,
        TaskBackend::Handoff => 0,
    };
    let holders = [
        Holder::exact(
            "recorder rings past 8 slots",
            rings,
            N * (DEFAULT_RECORDER_CAPACITY - 8) * 64,
            "N × 248 × 64 B",
        ),
        Holder::exact(
            "counts",
            at("counts") - spawned,
            N * N * size_of::<usize>(),
            "N·N·8",
        ),
        Holder::exact(
            "send and receive buffers",
            at("buffers") - at("counts"),
            N * (N + 1) * BLOCK,
            "N·(N+1)·64",
        ),
        // The barriers' own small queue buffers come and go, so this can
        // dip below zero: then nothing was retained.
        Holder::at_most(
            "mailbox bytes retained after drain",
            before.saturating_sub(at("buffers")),
            N * RELEASE_FLOOR * size_of::<NetMsg>(),
            "N × floor × NetMsg",
        ),
        Holder::exact("displs of the running call", displs, displs, "N·N·8"),
        // Every rank's last-phase payload in flight at once: the run
        // never gets there.
        Holder::at_most(
            "payloads in flight",
            (peak - before).saturating_sub(displs),
            N * (N / 2) * BLOCK,
            "N·(N/2)·64, every last phase at once",
        ),
    ];
    let high_water = peak - slabs;
    let named: usize = holders.iter().map(|h| h.bytes).sum();
    let depth = out.sched.max_mailbox_depth;

    println!(
        "memory bill: allgatherv_1k's shape at N = {N}, {ROUNDS} rounds, heap bytes at the high-water ({})",
        readings[top].step
    );
    println!(
        "{:<36} {:>11} {:>11}  closed form",
        "holder", "bytes", "closed"
    );
    let row = |name: &str, bytes: usize, closed: usize, formula: &str| {
        println!("{name:<36} {bytes:>11} {closed:>11}  {formula}");
    };
    row(
        "fiber stack slabs (address space)",
        slabs,
        stacks,
        "N × 1 MiB, excluded",
    );
    for h in &holders {
        row(h.name, h.bytes, h.closed, h.formula);
    }
    let unnamed = high_water - named;
    println!(
        "{:<36} {unnamed:>11}",
        "unnamed: ranks, tasks, 8-slot rings"
    );
    println!("{:<36} {high_water:>11}", "high-water, slabs excluded");
    println!(
        "named holders: {:.1} % of the high-water; deepest mailbox: {depth} envelopes (floor {RELEASE_FLOOR})",
        100.0 * named as f64 / high_water as f64
    );
    println!("{:<36} {:>11} {:>11}", "step", "live after", "high-water");
    for r in &readings {
        println!(
            "{:<36} {:>11} {:>11}",
            r.step,
            r.live - base - slabs,
            r.peak - base - slabs
        );
    }

    assert_eq!(
        readings[top].step, DOUBLING,
        "the high-water is a recursive doubling's"
    );
    assert!(
        depth > RELEASE_FLOOR,
        "no mailbox grew past the floor ({depth} envelopes): the run never released a buffer"
    );
    assert_eq!(slabs, stacks);
    for h in &holders {
        assert!(
            h.bytes <= h.limit,
            "{}: {} B, over its limit of {} B ({} = {} B)",
            h.name,
            h.bytes,
            h.limit,
            h.formula,
            h.closed
        );
    }
    assert!(
        10 * named >= 9 * high_water,
        "named holders cover {named} of {high_water} B"
    );
}
