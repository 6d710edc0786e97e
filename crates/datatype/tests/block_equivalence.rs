//! Pipeline-granularity invariance: the byte stream an engine produces
//! must be identical for every block size, look-ahead window and density
//! threshold — only the *costs* (op counts) may differ. This pins down the
//! separation between correctness and the performance model.
//!
//! The costs themselves are pinned against a reference engine
//! (`common::reference_blocks`: executed linear re-search, materialized
//! look-ahead window, one `Vec` per block): for both personalities and the
//! whole parameter grid, every field of every [`BlockObservation`] and the
//! final [`OpCounts`] must be equal.
//!
//! [`BlockObservation`]: ncd_datatype::BlockObservation

mod common;

use common::assert_matches_reference;
use ncd_datatype::{
    matrix_column_type, pack_all, pack_all_profiled, Datatype, EngineKind, EngineParams,
    NullObserver, OpCounts,
};

const KINDS: [EngineKind; 2] = [EngineKind::SingleContext, EngineKind::DualContext];

fn stream(
    kind: EngineKind,
    dt: &Datatype,
    count: usize,
    params: EngineParams,
    src: &[u8],
) -> (Vec<u8>, OpCounts) {
    pack_all_profiled(kind, dt, count, params, src, &mut NullObserver).expect("pack")
}

#[test]
fn all_block_sizes_produce_the_same_stream() {
    let col = matrix_column_type(32, 32, 3).expect("column");
    let src: Vec<u8> = (0..32 * 32 * 24).map(|i| (i % 251) as u8).collect();
    let reference = pack_all(&col, 32, &src).expect("reference");
    for block_size in [8usize, 24, 100, 1024, 65536, 1 << 24] {
        for lookahead in [1usize, 3, 15, 1000] {
            for dense_threshold in [1usize, 512, 1 << 20] {
                let params = EngineParams {
                    block_size,
                    lookahead_segments: lookahead,
                    dense_threshold,
                };
                let (a, ca) = stream(EngineKind::SingleContext, &col, 32, params, &src);
                let (b, cb) = stream(EngineKind::DualContext, &col, 32, params, &src);
                assert_eq!(a, reference, "single bs={block_size} la={lookahead}");
                assert_eq!(b, reference, "dual bs={block_size} la={lookahead}");
                assert_eq!(ca.total_bytes(), cb.total_bytes(), "bytes moved must agree");
                assert_eq!(cb.searched_segments, 0, "dual never searches");
                for kind in KINDS {
                    assert_matches_reference(kind, &col, 32, params, &src);
                    // Interleaved replicas are gathered sixteen at a time:
                    // 19 columns end in a ragged tile.
                    assert_matches_reference(kind, &col, 19, params, &src);
                }
            }
        }
    }
}

#[test]
fn dense_threshold_controls_direct_vs_packed_but_not_bytes() {
    // A type whose segments are exactly 256 bytes: the threshold decides
    // the path, never the content.
    let seg = Datatype::contiguous(32, &Datatype::double()).expect("256B");
    let t = Datatype::hvector(16, 1, 512, &seg).expect("strided");
    let src = vec![9u8; 16 * 512];
    let reference = pack_all(&t, 1, &src).expect("reference");
    let run = |threshold: usize| {
        let params = EngineParams {
            block_size: 4096,
            lookahead_segments: 15,
            dense_threshold: threshold,
        };
        stream(EngineKind::DualContext, &t, 1, params, &src)
    };
    let (low, clow) = run(1); // everything dense -> direct
    let (high, chigh) = run(1 << 20); // everything sparse -> packed
    assert_eq!(low, reference);
    assert_eq!(high, reference);
    assert_eq!(clow.packed_bytes, 0);
    assert_eq!(clow.direct_bytes as usize, reference.len());
    assert_eq!(chigh.direct_bytes, 0);
    assert_eq!(chigh.packed_bytes as usize, reference.len());
}

#[test]
fn search_cost_is_monotone_in_block_count() {
    // Smaller pipeline blocks mean more look-aheads, hence more re-search
    // for the single-context engine (monotone in the number of blocks).
    let col = matrix_column_type(64, 64, 3).expect("column");
    let src = vec![1u8; 64 * 64 * 24];
    let search_for = |block_size: usize| {
        let params = EngineParams {
            block_size,
            lookahead_segments: 8,
            dense_threshold: 512,
        };
        let (_, c) = stream(EngineKind::SingleContext, &col, 64, params, &src);
        c.searched_segments
    };
    let coarse = search_for(32 * 1024);
    let medium = search_for(4 * 1024);
    let fine = search_for(512);
    assert!(coarse < medium, "{coarse} < {medium}");
    assert!(medium < fine, "{medium} < {fine}");
}

#[test]
fn lookahead_window_does_not_change_the_stream_boundary_behaviour() {
    // Mixed dense/sparse type: 4 KB runs followed by 8-byte crumbs.
    let run4k = Datatype::contiguous(512, &Datatype::double()).expect("4KB");
    let crumbs = Datatype::vector(64, 1, 2, &Datatype::double()).expect("crumbs");
    let t = Datatype::structure(&[
        ncd_datatype::StructField {
            disp: 0,
            count: 2,
            dtype: run4k,
        },
        ncd_datatype::StructField {
            disp: 8192,
            count: 4,
            dtype: crumbs,
        },
    ])
    .expect("mixed");
    let span = 8192 + 4 * 64 * 16 + 64;
    let src: Vec<u8> = (0..span).map(|i| (i % 249) as u8).collect();
    let reference = pack_all(&t, 1, &src).expect("reference");
    for lookahead in [1usize, 2, 15, 63, 500] {
        let params = EngineParams {
            block_size: 1500,
            lookahead_segments: lookahead,
            dense_threshold: 256,
        };
        let (a, _) = stream(EngineKind::SingleContext, &t, 1, params, &src);
        let (b, _) = stream(EngineKind::DualContext, &t, 1, params, &src);
        assert_eq!(a, reference, "single la={lookahead}");
        assert_eq!(b, reference, "dual la={lookahead}");
        // Dense and sparse blocks interleave here, and blocks end inside
        // segments: the reference must agree on every one of them.
        for kind in KINDS {
            for count in [1, 3] {
                let src: Vec<u8> = (0..span * 3).map(|i| (i % 247) as u8).collect();
                assert_matches_reference(kind, &t, count, params, &src);
            }
        }
    }
}

#[test]
fn figure_12_counts_at_512_are_pinned() {
    // The constants the benchmark's traced run prints for the 512x512
    // column type (`datatype.segments_searched`, `datatype.segments_packed`).
    // They are simulated-machine work: no host-side change may move them.
    let n = 512;
    let col = matrix_column_type(n, n, 3).expect("column");
    let src = vec![3u8; n * n * 24];
    let (_, single) = stream(
        EngineKind::SingleContext,
        &col,
        n,
        EngineParams::default(),
        &src,
    );
    assert_eq!(single.searched_segments, 12_451_872);
    assert_eq!(single.packed_segments + single.direct_segments, 262_208);
    let (_, dual) = stream(
        EngineKind::DualContext,
        &col,
        n,
        EngineParams::default(),
        &src,
    );
    assert_eq!(dual.searched_segments, 0);
    assert_eq!(dual.packed_segments + dual.direct_segments, 262_208);
    assert_eq!(dual.lookahead_segments, single.lookahead_segments);
}
