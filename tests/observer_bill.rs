//! What each observer costs in heap, counted.
//!
//! `observe_export_pinned`'s 16-rank fixture runs on the fiber backend
//! under no observer, each observer alone and all of them. A counting
//! allocator counts the allocations the run makes (`alloc` and `realloc`
//! calls) and the bytes they add (an `alloc`'s size, a `realloc`'s
//! growth), from before the cluster is built to after its capture is
//! handed back. Both numbers repeat exactly, so the unobserved run and each
//! observer's cost over it are pinned as literals: a change that adds an
//! allocation per event, or a key per call, fails here by name. Each byte
//! count that has a closed form sits at or above it and under twice it
//! (`Vec` growth, the open epoch): the trace's one `TraceEvent` (96 B) per
//! event; the comm map's per-rank epoch vectors and merged matrices; the
//! history's second copy of those vectors, pinned apart as the history's
//! bill over the comm map's. A rank's epoch close allocates its two
//! vectors and nothing else (the label is a literal), so the comm map's
//! allocations sit at or above two per rank-epoch and under four. This
//! file holds one test, so nothing else allocates while it counts.
//!
//! `cargo test --release --test observer_bill -- --nocapture` prints the
//! bill.

#[path = "common/observed16.rs"]
mod observed16;

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use nucomm::simnet::{Cluster, Observers, TaskBackend, TraceEvent};
use observed16::{cluster, program, RANKS};

/// `System`, counting allocations and the bytes they add.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counters only observe.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size(), Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size.saturating_sub(layout.size()), Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// One run's heap bill: allocations and bytes added, the trace events it
/// captured and the cluster-wide comm-map epochs it closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Bill {
    allocs: usize,
    bytes: usize,
    events: usize,
    epochs: usize,
}

/// The bill of one run of the fixture under `observers`.
fn bill(observers: Observers) -> Bill {
    let (allocs, bytes) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    let config = cluster()
        .with_task_backend(TaskBackend::Fiber)
        .observe(observers);
    let (_, capture) = Cluster::new(config).try_run(program).unwrap();
    Bill {
        allocs: ALLOCS.load(Relaxed) - allocs,
        bytes: BYTES.load(Relaxed) - bytes,
        events: capture.traces.map_or(0, |t| t.iter().map(Vec::len).sum()),
        epochs: capture.comm_map.map_or(0, |m| m.epochs.len()),
    }
}

#[test]
#[cfg_attr(
    not(all(target_arch = "x86_64", unix)),
    ignore = "the fiber backend is x86_64 unix only"
)]
fn each_observer_costs_its_pinned_allocations_and_bytes() {
    let only = |set: fn(&mut Observers)| {
        let mut on = Observers::NONE;
        set(&mut on);
        bill(on)
    };
    let none = bill(Observers::NONE);
    let metrics = only(|on| on.metrics = true);
    let trace = only(|on| on.trace = true);
    let comm_map = only(|on| on.comm_map = true);
    let history = only(|on| on.history = true);
    let all = bill(Observers::ALL);
    let over = |b: Bill, base: Bill| (b.allocs - base.allocs, b.bytes - base.bytes);

    // Closed forms, in bytes. Every rank closes every one of the run's
    // `epochs`, and each closed epoch keeps the rank's two vectors of P
    // `u64`s (bytes and messages by source); the merged map holds P²
    // cells of two `u64`s per epoch. The history keeps a second copy of
    // each rank's vectors, the duplicate a history that is a view over
    // the comm map would not hold.
    let (p, word) = (RANKS, size_of::<u64>());
    let rank_vectors = |epochs: usize| epochs * p * 2 * p * word;
    let comm_form = |epochs: usize| rank_vectors(epochs) + epochs * p * p * 2 * word;
    let history_form = |epochs: usize| comm_form(epochs) + rank_vectors(epochs);
    let trace_form = |events: usize| events * size_of::<TraceEvent>();

    println!("unobserved: {} allocations, {} B", none.allocs, none.bytes);
    println!("metrics:  +{:?} (allocations, B)", over(metrics, none));
    println!(
        "trace:    +{:?} (allocations, B); {} events × {} B = {} B",
        over(trace, none),
        trace.events,
        size_of::<TraceEvent>(),
        trace_form(trace.events)
    );
    println!(
        "comm map: +{:?} (allocations, B); {} epochs: closed form {} B",
        over(comm_map, none),
        comm_map.epochs,
        comm_form(comm_map.epochs)
    );
    println!(
        "history:  +{:?} (allocations, B); closed form {} B",
        over(history, none),
        history_form(history.epochs)
    );
    println!(
        "history over comm map: +{:?} (allocations, B); closed form {} B",
        over(history, comm_map),
        rank_vectors(history.epochs)
    );
    println!(
        "all:      +{:?} (allocations, B); closed form {} B + metrics",
        over(all, none),
        trace_form(all.events) + history_form(all.epochs)
    );

    assert_eq!(bill(Observers::NONE), none, "a run's heap bill repeats");
    assert_eq!((none.allocs, none.bytes), UNOBSERVED, "the unobserved run");
    assert_eq!(over(metrics, none), METRICS, "metrics alone, over none");
    assert_eq!(over(trace, none), TRACE, "trace alone, over none");
    assert_eq!(over(comm_map, none), COMM_MAP, "comm map alone, over none");
    assert_eq!(over(history, none), HISTORY, "history alone, over none");
    assert_eq!(over(history, comm_map), DUPLICATE, "history over comm map");
    assert_eq!(over(all, none), ALL, "every observer, over none");

    let within = |what: &str, bytes: usize, form: usize| {
        assert!(
            form <= bytes && bytes < 2 * form,
            "{what}: {bytes} B against a closed form of {form} B"
        );
    };
    within("trace", over(trace, none).1, trace_form(trace.events));
    within(
        "comm map",
        over(comm_map, none).1,
        comm_form(comm_map.epochs),
    );
    within(
        "history",
        over(history, none).1,
        history_form(history.epochs),
    );
    within(
        "history over comm map",
        over(history, comm_map).1,
        rank_vectors(history.epochs),
    );
    within(
        "all, less metrics",
        over(all, none).1 - METRICS.1,
        trace_form(all.events) + history_form(all.epochs),
    );

    let rank_epochs = p * comm_map.epochs;
    let allocs = over(comm_map, none).0;
    assert!(
        2 * rank_epochs <= allocs && allocs < 4 * rank_epochs,
        "comm map: {allocs} allocations for {rank_epochs} rank-epochs"
    );
}

// (allocations, bytes added).
const UNOBSERVED: (usize, usize) = (5_873, 33_540_384);
const METRICS: (usize, usize) = (153, 204_040);
const TRACE: (usize, usize) = (148, 1_577_984);
const COMM_MAP: (usize, usize) = (483, 117_809);
const HISTORY: (usize, usize) = (901, 184_101);
const DUPLICATE: (usize, usize) = (418, 66_292);
const ALL: (usize, usize) = (1_200, 1_956_653);
