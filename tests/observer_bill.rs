//! What each observer costs in heap, counted.
//!
//! `observe_export_pinned`'s 16-rank fixture runs on the fiber backend
//! under three observer sets: none, metrics alone and trace alone. A
//! counting allocator counts the allocations the run makes (`alloc` and
//! `realloc` calls) and the bytes they add (an `alloc`'s size, a
//! `realloc`'s growth), from before the cluster is built to after its
//! capture is handed back. Both numbers repeat exactly, so the unobserved
//! run and each observer's cost over it are pinned as literals: a change
//! that adds an allocation per event, or a key per call, fails here by
//! name. The trace's bytes sit beside their closed form, one
//! `TraceEvent` (96 B) per event and less than twice that with `Vec`
//! growth. This file holds one test, so nothing else allocates while it
//! counts.
//!
//! `cargo test --release --test observer_bill -- --nocapture` prints the
//! bill.

#[path = "common/observed16.rs"]
mod observed16;

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use nucomm::simnet::{Cluster, Observers, TaskBackend, TraceEvent};
use observed16::{cluster, program};

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

/// Allocations and bytes added by one run of the fixture under
/// `observers`, and the trace events it captured.
fn bill(observers: Observers) -> (usize, usize, usize) {
    let (allocs, bytes) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    let config = cluster()
        .with_task_backend(TaskBackend::Fiber)
        .observe(observers);
    let (_, capture) = Cluster::new(config).try_run(program).unwrap();
    let counted = (ALLOCS.load(Relaxed) - allocs, BYTES.load(Relaxed) - bytes);
    let events = capture.traces.map_or(0, |t| t.iter().map(Vec::len).sum());
    (counted.0, counted.1, events)
}

#[test]
#[cfg_attr(
    not(all(target_arch = "x86_64", unix)),
    ignore = "the fiber backend is x86_64 unix only"
)]
fn each_observer_costs_its_pinned_allocations_and_bytes() {
    let none = bill(Observers::NONE);
    let metrics = bill(Observers {
        metrics: true,
        ..Observers::NONE
    });
    let trace = bill(Observers {
        trace: true,
        ..Observers::NONE
    });
    let over = |(allocs, bytes, _): (usize, usize, usize)| (allocs - none.0, bytes - none.1);
    let (events, event) = (trace.2, size_of::<TraceEvent>());
    println!("unobserved: {} allocations, {} B", none.0, none.1);
    println!("metrics:  +{:?} (allocations, B)", over(metrics));
    println!(
        "trace:    +{:?} (allocations, B); {events} events × {event} B",
        over(trace)
    );

    assert_eq!(bill(Observers::NONE), none, "a run's heap bill repeats");
    assert_eq!((none.0, none.1), UNOBSERVED, "the unobserved run");
    assert_eq!(over(metrics), METRICS, "metrics alone, over none");
    assert_eq!(over(trace), TRACE, "trace alone, over none");
    let trace_bytes = over(trace).1;
    assert!(
        events * event <= trace_bytes && trace_bytes < 2 * events * event,
        "trace: {trace_bytes} B for {events} events of {event} B"
    );
}

// (allocations, bytes added).
const UNOBSERVED: (usize, usize) = (5_873, 33_540_384);
const METRICS: (usize, usize) = (170, 225_800);
const TRACE: (usize, usize) = (148, 1_577_984);
