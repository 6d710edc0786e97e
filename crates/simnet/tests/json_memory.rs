//! What a parsed document costs on the heap: the tree `parse_json` builds
//! for a Chrome trace stays within a fixed multiple of the text's bytes.
//! Its own allocator counts live bytes, so this file holds one test and
//! nothing else allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use ncd_simnet::{chrome_trace_json, parse_json, EventKind, Json, SimTime, TraceEvent};

/// `System`, counting the bytes currently allocated.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counter only observes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Relaxed);
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Trace events of both Chrome shapes: sends and receives (`"X"` with
/// `args`) and rounds (`"i"` with `"s"`), half of them with labels built
/// at run time (leaked to `'static`), 2 560 per rank.
fn traces(ranks: usize) -> Vec<Vec<TraceEvent>> {
    (0..ranks)
        .map(|rank| {
            (0..2_560u64)
                .map(|i| {
                    let kind = match i % 4 {
                        0 => EventKind::Send {
                            dst: (rank + 1) % ranks,
                            bytes: 4096 + i as usize,
                            seq: i,
                        },
                        1 => EventKind::Recv {
                            src: (rank + ranks - 1) % ranks,
                            bytes: 4096 + i as usize,
                            seq: i,
                            wait: SimTime::from_ns(i * 7),
                        },
                        2 => EventKind::Round {
                            op: Box::leak(format!("step-{}", i / 4).into_boxed_str()),
                            round: (i / 4) as u32,
                        },
                        _ => EventKind::Round {
                            op: "allgatherv/ring",
                            round: (i / 4) as u32,
                        },
                    };
                    let start = SimTime::from_ns(i * 1_000 + rank as u64);
                    TraceEvent {
                        kind,
                        start,
                        end: start + SimTime::from_ns(250),
                    }
                })
                .collect()
        })
        .collect()
}

#[test]
fn a_parsed_chrome_trace_costs_at_most_five_heap_bytes_per_text_byte() {
    assert_eq!(std::mem::size_of::<Json>(), 24);
    let text = chrome_trace_json(&traces(4));
    let before = LIVE.load(Relaxed);
    let tree = parse_json(&text).expect("the exporter writes JSON");
    let tree_bytes = LIVE.load(Relaxed) - before;
    let events = tree
        .get("traceEvents")
        .and_then(Json::as_array)
        .map_or(0, <[Json]>::len);
    assert!(events >= 10_000, "{events} events");
    let per_byte = tree_bytes as f64 / text.len() as f64;
    assert!(
        per_byte <= 5.0,
        "{tree_bytes} B of tree for {} B of text: {per_byte:.2} B per byte",
        text.len()
    );
    drop(tree);
    assert_eq!(LIVE.load(Relaxed), before, "the tree frees all it took");
}
