//! Test-only oracles for the closed-form cursor and the in-place engine:
//! the executed segment-by-segment walk the closed form replaces, and a
//! reference engine built on it that materializes its look-ahead window and
//! returns every pipeline block as a `Vec` of its own. Both use nothing of
//! the cursor but `next_range` and `clone`.

#![allow(dead_code)] // each test binary uses its own subset

use ncd_datatype::{
    BlockLog, BlockMode, BlockObservation, Datatype, EngineKind, EngineParams, MemRange, OpCounts,
    PackObserver, TypeCursor,
};

/// Walk `cursor` forward one segment piece at a time until `target` packed
/// bytes are consumed; returns the pieces visited.
pub fn walk_to(cursor: &mut TypeCursor, target: usize) -> u64 {
    let mut visited = 0;
    while cursor.packed_offset() < target {
        cursor
            .next_range(target - cursor.packed_offset())
            .expect("target within the stream");
        visited += 1;
    }
    visited
}

/// The baseline engine's recovery path, executed: a fresh cursor walked
/// from the start of the stream to `target`.
pub fn walk_from_start(dt: &Datatype, count: usize, target: usize) -> (u64, TypeCursor) {
    let mut cursor = TypeCursor::new(dt, count);
    let visited = walk_to(&mut cursor, target);
    (visited, cursor)
}

/// `(replica, segment, offset in segment, packed offset)` of a cursor.
pub fn position(c: &TypeCursor) -> (u64, u64, usize, usize) {
    let per_replica = c.datatype().num_segments().max(1) as u64;
    (
        c.segment_ordinal() / per_replica,
        c.segment_ordinal() % per_replica,
        c.segment_offset(),
        c.packed_offset(),
    )
}

/// Up to `max_segments` ranges and `max_bytes` bytes, consumed from `cursor`.
fn window(cursor: &mut TypeCursor, max_segments: usize, max_bytes: usize) -> Vec<MemRange> {
    let mut out = Vec::new();
    let mut bytes = 0;
    while out.len() < max_segments && bytes < max_bytes {
        let Some(r) = cursor.next_range(max_bytes - bytes) else {
            break;
        };
        bytes += r.len;
        out.push(r);
    }
    out
}

/// One block of the reference engine: its bytes and what it reports.
pub struct ReferenceBlock {
    pub data: Vec<u8>,
    pub obs: BlockObservation,
}

/// Run the reference engine over the whole message.
pub fn reference_blocks(
    kind: EngineKind,
    dt: &Datatype,
    count: usize,
    params: EngineParams,
    src: &[u8],
) -> (Vec<ReferenceBlock>, OpCounts) {
    let mut cursor = TypeCursor::new(dt, count);
    let mut counts = OpCounts::default();
    let mut blocks = Vec::new();
    while !cursor.is_done() {
        let start = cursor.packed_offset();
        let window_start_segment = cursor.segment_ordinal();
        // Single context: the look-ahead moves THE context. Dual: a
        // snapshot is rolled forward and thrown away.
        let seen = match kind {
            EngineKind::SingleContext => {
                window(&mut cursor, params.lookahead_segments, params.block_size)
            }
            EngineKind::DualContext => window(
                &mut cursor.clone(),
                params.lookahead_segments,
                params.block_size,
            ),
        };
        let window_bytes: usize = seen.iter().map(|r| r.len).sum();
        let lookahead_segments = seen.len() as u64;
        counts.lookahead_segments += lookahead_segments;
        let dense = window_bytes / seen.len() >= params.dense_threshold;

        let (mut seek_segments, mut seek_target) = (0, 0);
        let ranges = match (kind, dense) {
            // The look-ahead walk already produced the iovec; the context
            // is consistently past the block.
            (EngineKind::SingleContext, true) => seen,
            // Packing starts at `start`, which the single context has moved
            // past: re-search the datatype from the beginning.
            (EngineKind::SingleContext, false) => {
                (seek_segments, cursor) = walk_from_start(dt, count, start);
                seek_target = start as u64;
                window(&mut cursor, usize::MAX, params.block_size)
            }
            // The pack context never moved.
            (EngineKind::DualContext, true) => window(&mut cursor, usize::MAX, window_bytes),
            (EngineKind::DualContext, false) => window(&mut cursor, usize::MAX, params.block_size),
        };
        counts.searched_segments += seek_segments;
        let mut data = Vec::new();
        for r in &ranges {
            data.extend_from_slice(&src[r.offset as usize..r.offset as usize + r.len]);
        }
        let (segments, bytes) = (ranges.len() as u64, data.len() as u64);
        if dense {
            counts.direct_segments += segments;
            counts.direct_bytes += bytes;
            counts.direct_blocks += 1;
        } else {
            counts.packed_segments += segments;
            counts.packed_bytes += bytes;
            counts.packed_blocks += 1;
        }
        blocks.push(ReferenceBlock {
            data,
            obs: BlockObservation {
                index: blocks.len() as u64,
                mode: if dense {
                    BlockMode::Direct
                } else {
                    BlockMode::Packed
                },
                seek_segments,
                seek_target,
                lookahead_segments,
                window_start_segment,
                bytes,
            },
        });
    }
    (blocks, counts)
}

/// Assert that the real engine's byte stream, per-block growth of the
/// caller's buffer, full [`BlockLog`] and [`OpCounts`] equal the reference
/// engine's.
pub fn assert_matches_reference(
    kind: EngineKind,
    dt: &Datatype,
    count: usize,
    params: EngineParams,
    src: &[u8],
) {
    let what = format!("{} {params:?}", kind.name());
    let (want, want_counts) = reference_blocks(kind, dt, count, params, src);
    let mut engine = ncd_datatype::PackEngine::new(kind, dt, count, params, src).expect("bounds");
    let mut counts = OpCounts::default();
    let mut log = BlockLog::new();
    let mut out = Vec::new();
    for w in &want {
        let before = out.len();
        let obs = engine
            .next_block(&mut out, &mut counts)
            .unwrap_or_else(|| panic!("{what}: stream ended at block {}", w.obs.index));
        assert_eq!(obs, w.obs, "{what}");
        assert_eq!(&out[before..], &w.data[..], "{what}: block {}", obs.index);
        log.on_block(&obs);
    }
    assert!(engine.next_block(&mut out, &mut counts).is_none(), "{what}");
    assert_eq!(counts, want_counts, "{what}");
    assert_eq!(log.total_seek(), want_counts.searched_segments, "{what}");
}
