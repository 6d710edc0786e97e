//! Property-based tests of the datatype engine invariants:
//!
//! * both pack engines produce exactly the naive segment-walk byte stream,
//!   for arbitrary (recursively generated) datatypes, counts, and pipeline
//!   granularities;
//! * unpack is the left inverse of pack on the bytes the type covers;
//! * the single-context engine's search count is zero exactly when no
//!   sparse block ever follows a look-ahead;
//! * the cursor's closed-form seek/advance land where the executed
//!   segment-by-segment walk lands **and report the count it reports**;
//! * both engines' block streams equal the reference engine's
//!   (`common::reference_blocks`), field by field.

mod common;

use common::{assert_matches_reference, position, walk_from_start, walk_to};
use ncd_datatype::{
    matrix_column_type, pack_all, pack_all_profiled, unpack_all, BlockLog, Datatype, EngineKind,
    EngineParams, NullObserver, StructField, TypeCursor,
};
use proptest::prelude::*;

/// Disjoint ascending blocks from `(gap, blocklen)` pairs: each block
/// starts `gap` units past the end of the one before, in units of `unit`.
fn ascending(gaps: Vec<(i64, usize)>, unit: i64) -> Vec<(i64, usize)> {
    let mut end = 0i64;
    gaps.into_iter()
        .map(|(gap, len)| {
            let disp = end + gap;
            end = disp + len as i64 * unit;
            (disp, len)
        })
        .collect()
}

/// A recursive datatype generator over all nine constructors, with
/// bounds that keep the flattened size small enough for fast shrinking.
/// Every type it builds has a nonnegative lb and lies within
/// `[lb, lb + extent)`, and its blocks, fields and rows are disjoint (MPI
/// receive-safe), so unpacking a packed stream restores every byte.
fn arb_datatype() -> impl Strategy<Value = Datatype> {
    let leaf = prop_oneof![
        Just(Datatype::double()),
        Just(Datatype::float()),
        Just(Datatype::int32()),
        Just(Datatype::byte()),
    ];
    leaf.prop_recursive(3, 64, 4, |inner| {
        let gaps = |hi: i64| proptest::collection::vec((0i64..hi, 1usize..3), 1..4);
        prop_oneof![
            (1usize..5, inner.clone())
                .prop_map(|(n, t)| Datatype::contiguous(n, &t).expect("contiguous")),
            (1usize..4, 1usize..3, 0i64..6, inner.clone()).prop_map(|(c, b, extra, t)| {
                // stride >= blocklen keeps blocks disjoint.
                Datatype::vector(c, b, b as i64 + extra, &t).expect("vector")
            }),
            (1usize..4, 1usize..3, 0i64..16, inner.clone()).prop_map(|(c, b, extra, t)| {
                let stride = b as i64 * t.extent() + extra;
                Datatype::hvector(c, b, stride, &t).expect("hvector")
            }),
            (gaps(6), inner.clone()).prop_map(|(gaps, t)| {
                Datatype::indexed(&ascending(gaps, 1), &t).expect("indexed")
            }),
            (gaps(24), inner.clone()).prop_map(|(gaps, t)| {
                Datatype::hindexed(&ascending(gaps, t.extent()), &t).expect("hindexed")
            }),
            (
                1usize..3,
                proptest::collection::vec(0i64..6, 1..4),
                inner.clone()
            )
                .prop_map(|(b, gaps, t)| {
                    let blocks = ascending(gaps.into_iter().map(|g| (g, b)).collect(), 1);
                    let disps: Vec<i64> = blocks.iter().map(|&(d, _)| d).collect();
                    Datatype::indexed_block(b, &disps, &t).expect("indexed_block")
                }),
            proptest::collection::vec((0i64..16, 1usize..3, inner.clone()), 2..4).prop_map(
                |fields| {
                    // Each field starts past the previous field's last byte.
                    let mut end = 0i64;
                    let fields: Vec<StructField> = fields
                        .into_iter()
                        .map(|(gap, count, dtype)| {
                            let disp = end + gap;
                            end = disp + dtype.lb() + count as i64 * dtype.extent();
                            StructField { disp, count, dtype }
                        })
                        .collect();
                    Datatype::structure(&fields).expect("structure")
                }
            ),
            (
                proptest::collection::vec((1usize..4, 0usize..4, 0usize..4), 1..4),
                inner.clone()
            )
                .prop_map(|(dims, t)| {
                    let (mut sizes, mut subsizes, mut starts) = (vec![], vec![], vec![]);
                    for (size, a, b) in dims {
                        let sub = 1 + a % size;
                        sizes.push(size);
                        subsizes.push(sub);
                        starts.push(b % (size - sub + 1));
                    }
                    Datatype::subarray(&sizes, &subsizes, &starts, &t).expect("subarray")
                }),
            (0i64..4, inner.clone()).prop_map(|(pad, t)| {
                let extent = t.extent().max(0) + pad;
                Datatype::resized(t.lb(), extent, &t).expect("resized")
            }),
        ]
    })
}

/// Reference pack: walk the flattened segments directly.
fn naive_pack(dt: &Datatype, count: usize, src: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut c = TypeCursor::new(dt, count);
    while let Some(r) = c.next_range(usize::MAX) {
        out.extend_from_slice(&src[r.offset as usize..r.offset as usize + r.len]);
    }
    out
}

/// Buffer big enough for `count` replicas of `dt` with arbitrary content.
fn buffer_for(dt: &Datatype, count: usize) -> Vec<u8> {
    let span = (dt.extent().unsigned_abs() as usize) * count
        + dt.segments()
            .iter()
            .map(|s| s.end().max(0) as usize)
            .max()
            .unwrap_or(0)
        + 64;
    (0..span).map(|i| (i % 251) as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engines_match_naive_pack(
        dt in arb_datatype(),
        count in 1usize..4,
        block_size in 8usize..512,
        lookahead in 1usize..20,
    ) {
        let src = buffer_for(&dt, count);
        let expected = naive_pack(&dt, count, &src);
        let params = EngineParams {
            block_size,
            lookahead_segments: lookahead,
            dense_threshold: 64,
        };
        let mut ignore = NullObserver;
        let (got1, c1) =
            pack_all_profiled(EngineKind::SingleContext, &dt, count, params, &src, &mut ignore)
                .expect("single pack");
        prop_assert_eq!(&got1, &expected);
        prop_assert_eq!(c1.total_bytes() as usize, expected.len());

        let (got2, c2) =
            pack_all_profiled(EngineKind::DualContext, &dt, count, params, &src, &mut ignore)
                .expect("dual pack");
        prop_assert_eq!(&got2, &expected);
        prop_assert_eq!(c2.searched_segments, 0);
    }

    #[test]
    fn engines_match_reference_block_stream(
        dt in arb_datatype(),
        count in 1usize..4,
        block_size in 1usize..512,
        lookahead in 1usize..20,
        dense_threshold in 1usize..96,
    ) {
        let src = buffer_for(&dt, count);
        let params = EngineParams {
            block_size,
            lookahead_segments: lookahead,
            dense_threshold,
        };
        for kind in [EngineKind::SingleContext, EngineKind::DualContext] {
            assert_matches_reference(kind, &dt, count, params, &src);
        }
    }

    #[test]
    fn observer_bytes_agree_with_op_counts(
        dt in arb_datatype(),
        count in 1usize..4,
        block_size in 8usize..512,
        lookahead in 1usize..20,
    ) {
        // The observer's per-block report and the engine's OpCounts are two
        // independent tallies of the same stream; they must agree byte for
        // byte (and block for block) on arbitrary datatypes and pipeline
        // granularities, for both engines.
        let src = buffer_for(&dt, count);
        let params = EngineParams {
            block_size,
            lookahead_segments: lookahead,
            dense_threshold: 64,
        };
        let mut log1 = BlockLog::default();
        let (out1, c1) =
            pack_all_profiled(EngineKind::SingleContext, &dt, count, params, &src, &mut log1)
                .expect("single pack");
        prop_assert_eq!(log1.total_bytes(), c1.total_bytes());
        prop_assert_eq!(log1.total_bytes() as usize, out1.len());
        prop_assert_eq!(log1.blocks.len() as u64, c1.packed_blocks + c1.direct_blocks);
        prop_assert_eq!(log1.total_seek(), c1.searched_segments);

        let mut log2 = BlockLog::default();
        let (out2, c2) =
            pack_all_profiled(EngineKind::DualContext, &dt, count, params, &src, &mut log2)
                .expect("dual pack");
        prop_assert_eq!(log2.total_bytes(), c2.total_bytes());
        prop_assert_eq!(log2.total_bytes() as usize, out2.len());
        prop_assert_eq!(log2.blocks.len() as u64, c2.packed_blocks + c2.direct_blocks);
        prop_assert_eq!(log2.total_seek(), 0u64);
    }

    #[test]
    fn pack_all_matches_naive(dt in arb_datatype(), count in 1usize..4) {
        let src = buffer_for(&dt, count);
        prop_assert_eq!(
            pack_all(&dt, count, &src).expect("pack_all"),
            naive_pack(&dt, count, &src)
        );
    }

    #[test]
    fn unpack_inverts_pack_on_covered_bytes(dt in arb_datatype(), count in 1usize..4) {
        let src = buffer_for(&dt, count);
        let packed = pack_all(&dt, count, &src).expect("pack");
        let mut dst = vec![0u8; src.len()];
        unpack_all(&dt, count, &mut dst, &packed).expect("unpack");
        // Every byte covered by the type map matches the source.
        let mut c = TypeCursor::new(&dt, count);
        while let Some(r) = c.next_range(usize::MAX) {
            let (s, e) = (r.offset as usize, r.offset as usize + r.len);
            prop_assert_eq!(&dst[s..e], &src[s..e]);
        }
    }

    #[test]
    fn cursor_seek_matches_traversal(dt in arb_datatype(), count in 1usize..4) {
        // Targets: both ends, and every segment boundary of every replica
        // (replica boundaries among them) with its two neighbours.
        let total = dt.size() * count;
        let mut targets = vec![0, total];
        let mut boundary = 0usize;
        for _ in 0..count {
            for s in dt.segments() {
                targets.extend([boundary.saturating_sub(1), boundary, boundary + 1]);
                boundary += s.len;
            }
        }
        targets.retain(|&t| t <= total);
        targets.sort_unstable();
        targets.dedup();

        for &target in &targets {
            // The closed form must report the count the executed walk
            // reports and land exactly where it lands...
            let (visited, walk) = walk_from_start(&dt, count, target);
            let mut seek = TypeCursor::new(&dt, count);
            seek.advance_to(total - total / 3); // so the rewind matters
            let searched = seek.search_from_start(target);
            prop_assert_eq!(
                (searched, position(&seek)),
                (visited, position(&walk)),
                "search_from_start({})", target
            );
            // ...and both cursors must continue identically.
            prop_assert_eq!(seek.clone().next_range(17), walk.clone().next_range(17));

            // Forward moves from here, not only from the start.
            for &further in targets.iter().filter(|&&t| t >= target).step_by(3) {
                let mut walked = walk.clone();
                let visited = walk_to(&mut walked, further);
                let mut advanced = seek.clone();
                prop_assert_eq!(
                    (advanced.advance_to(further), position(&advanced)),
                    (visited, position(&walked)),
                    "advance_to({} -> {})", target, further
                );
            }
        }
    }

    /// Matrix columns, the messages whose replicas interleave, are gathered
    /// a tile (16 columns) at a time straight into the payload: full and
    /// ragged tiles, blocks that end inside a tile or a segment, both
    /// personalities.
    #[test]
    fn tiled_columns_match_reference_block_stream(
        (rows, cols, doubles) in (2usize..24, 16usize..48, 1usize..5),
        take in 0usize..48,
        block_size in 1usize..2048,
        lookahead in 1usize..20,
        dense_threshold in 1usize..96,
    ) {
        let col = matrix_column_type(rows, cols, doubles).expect("column");
        let src: Vec<u8> = (0..rows * cols * doubles * 8).map(|i| (i % 251) as u8).collect();
        let count = 16 + take % (cols - 15);
        let params = EngineParams {
            block_size,
            lookahead_segments: lookahead,
            dense_threshold,
        };
        for kind in [EngineKind::SingleContext, EngineKind::DualContext] {
            assert_matches_reference(kind, &col, count, params, &src);
        }
    }

    #[test]
    fn size_is_segment_sum(dt in arb_datatype()) {
        // The extent half lives in the commit's oracle proptest
        // (`desc::tests`), where the spec says whether the root is a resize.
        let seg_sum: usize = dt.segments().iter().map(|s| s.len).sum();
        prop_assert_eq!(dt.size(), seg_sum);
    }

    #[test]
    fn segments_are_coalesced(dt in arb_datatype()) {
        // No two consecutive segments are adjacent in memory (the sink
        // would have merged them).
        for w in dt.segments().windows(2) {
            prop_assert_ne!(w[0].end(), w[1].offset);
        }
    }
}
