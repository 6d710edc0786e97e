//! Test-only oracles for the commit, the closed-form cursor and the
//! in-place engine:
//!
//! * a constructor tree ([`Spec`]) flattened by the recursive flattener
//!   the one-pass commit replaced ([`oracle`]), and lowered through the
//!   public constructors ([`build`]);
//! * the executed segment-by-segment walk the closed form replaces, and a
//!   reference engine built on it that materializes its look-ahead window
//!   and returns every pipeline block as a `Vec` of its own. Both use
//!   nothing of the cursor but `next_range` and `clone`.
//!
//! The crate's own unit tests compile this file too (the commit proptest
//! lives there, where the segment cap can be lowered).

#![allow(dead_code)] // each test binary uses its own subset

use ncd_datatype::{
    BlockLog, BlockMode, BlockObservation, Datatype, EngineKind, EngineParams, MemRange, OpCounts,
    PackObserver, Result, Segment, StructField, TypeCursor, TypeError,
};
use proptest::prelude::*;

/// The five named leaves and their sizes; [`Kind::Leaf`] indexes it.
pub const LEAVES: [(fn() -> Datatype, usize); 5] = [
    (Datatype::double, 8),
    (Datatype::float, 4),
    (Datatype::int32, 4),
    (Datatype::int64, 8),
    (Datatype::byte, 1),
];

/// One constructor over children of type `C`: [`Spec`]s in a tree, the
/// oracle's committed [`Flat`]s or built [`Datatype`]s once lowered.
#[derive(Clone, Debug)]
pub enum Kind<C> {
    Leaf(usize),
    Contiguous {
        count: usize,
        child: C,
    },
    Vector {
        count: usize,
        blocklen: usize,
        /// Stride between block starts, in units of the child extent.
        stride: i64,
        child: C,
    },
    Hvector {
        count: usize,
        blocklen: usize,
        /// Stride between block starts, in bytes.
        stride_bytes: i64,
        child: C,
    },
    /// Blocks of `(displacement in child extents, block length in children)`.
    Indexed {
        blocks: Vec<(i64, usize)>,
        child: C,
    },
    /// Blocks of `(displacement in bytes, block length in children)`.
    Hindexed {
        blocks: Vec<(i64, usize)>,
        child: C,
    },
    IndexedBlock {
        blocklen: usize,
        /// Displacements in child extents.
        disps: Vec<i64>,
        child: C,
    },
    Struct {
        fields: Vec<Field<C>>,
    },
    Subarray {
        sizes: Vec<usize>,
        subsizes: Vec<usize>,
        starts: Vec<usize>,
        child: C,
    },
    Resized {
        lb: i64,
        extent: i64,
        child: C,
    },
}

/// A struct field over a child of type `C`.
#[derive(Clone, Debug)]
pub struct Field<C> {
    pub disp: i64,
    pub count: usize,
    pub dtype: C,
}

/// A constructor tree: the description `Datatype` no longer keeps.
#[derive(Clone, Debug)]
pub struct Spec(pub Box<Kind<Spec>>);

impl<C> Kind<C> {
    /// The same constructor over `f` of each child, children in order.
    fn try_map<D>(&self, f: &mut impl FnMut(&C) -> Result<D>) -> Result<Kind<D>> {
        Ok(match self {
            Kind::Leaf(i) => Kind::Leaf(*i),
            Kind::Contiguous { count, child } => Kind::Contiguous {
                count: *count,
                child: f(child)?,
            },
            Kind::Vector {
                count,
                blocklen,
                stride,
                child,
            } => Kind::Vector {
                count: *count,
                blocklen: *blocklen,
                stride: *stride,
                child: f(child)?,
            },
            Kind::Hvector {
                count,
                blocklen,
                stride_bytes,
                child,
            } => Kind::Hvector {
                count: *count,
                blocklen: *blocklen,
                stride_bytes: *stride_bytes,
                child: f(child)?,
            },
            Kind::Indexed { blocks, child } => Kind::Indexed {
                blocks: blocks.clone(),
                child: f(child)?,
            },
            Kind::Hindexed { blocks, child } => Kind::Hindexed {
                blocks: blocks.clone(),
                child: f(child)?,
            },
            Kind::IndexedBlock {
                blocklen,
                disps,
                child,
            } => Kind::IndexedBlock {
                blocklen: *blocklen,
                disps: disps.clone(),
                child: f(child)?,
            },
            Kind::Struct { fields } => Kind::Struct {
                fields: fields
                    .iter()
                    .map(|x| {
                        Ok(Field {
                            disp: x.disp,
                            count: x.count,
                            dtype: f(&x.dtype)?,
                        })
                    })
                    .collect::<Result<_>>()?,
            },
            Kind::Subarray {
                sizes,
                subsizes,
                starts,
                child,
            } => Kind::Subarray {
                sizes: sizes.clone(),
                subsizes: subsizes.clone(),
                starts: starts.clone(),
                child: f(child)?,
            },
            Kind::Resized { lb, extent, child } => Kind::Resized {
                lb: *lb,
                extent: *extent,
                child: f(child)?,
            },
        })
    }
}

/// Lower `spec` through the public constructors, children first.
pub fn build(spec: &Spec) -> Result<Datatype> {
    match spec.0.try_map(&mut build)? {
        Kind::Leaf(i) => Ok(LEAVES[i].0()),
        Kind::Contiguous { count, child } => Datatype::contiguous(count, &child),
        Kind::Vector {
            count,
            blocklen,
            stride,
            child,
        } => Datatype::vector(count, blocklen, stride, &child),
        Kind::Hvector {
            count,
            blocklen,
            stride_bytes,
            child,
        } => Datatype::hvector(count, blocklen, stride_bytes, &child),
        Kind::Indexed { blocks, child } => Datatype::indexed(&blocks, &child),
        Kind::Hindexed { blocks, child } => Datatype::hindexed(&blocks, &child),
        Kind::IndexedBlock {
            blocklen,
            disps,
            child,
        } => Datatype::indexed_block(blocklen, &disps, &child),
        Kind::Struct { fields } => Datatype::structure(
            &fields
                .into_iter()
                .map(|f| StructField {
                    disp: f.disp,
                    count: f.count,
                    dtype: f.dtype,
                })
                .collect::<Vec<_>>(),
        ),
        Kind::Subarray {
            sizes,
            subsizes,
            starts,
            child,
        } => Datatype::subarray(&sizes, &subsizes, &starts, &child),
        Kind::Resized { lb, extent, child } => Datatype::resized(lb, extent, &child),
    }
}

/// Random constructor trees over all nine constructors, up to depth 3:
/// zero counts and zero-length blocks, negative displacements and strides,
/// overlapping blocks, resizes with a negative lb, and now and then an
/// invalid subarray or a negative resize extent.
pub fn arb_spec() -> impl Strategy<Value = Spec> {
    let leaf = (0..LEAVES.len()).prop_map(|i| Spec(Box::new(Kind::Leaf(i))));
    leaf.prop_recursive(3, 64, 4, |inner| {
        let blocks = |lo: i64, hi: i64| proptest::collection::vec((lo..hi, 0usize..4), 0..4);
        let node = prop_oneof![
            (0usize..5, inner.clone()).prop_map(|(count, child)| Kind::Contiguous { count, child }),
            (0usize..5, 0usize..4, -4i64..6, inner.clone()).prop_map(
                |(count, blocklen, stride, child)| Kind::Vector {
                    count,
                    blocklen,
                    stride,
                    child,
                }
            ),
            (0usize..5, 0usize..4, -40i64..60, inner.clone()).prop_map(
                |(count, blocklen, stride_bytes, child)| Kind::Hvector {
                    count,
                    blocklen,
                    stride_bytes,
                    child,
                }
            ),
            (blocks(-6, 12), inner.clone())
                .prop_map(|(blocks, child)| Kind::Indexed { blocks, child }),
            (blocks(-40, 100), inner.clone())
                .prop_map(|(blocks, child)| Kind::Hindexed { blocks, child }),
            (
                0usize..4,
                proptest::collection::vec(-6i64..12, 0..4),
                inner.clone()
            )
                .prop_map(|(blocklen, disps, child)| Kind::IndexedBlock {
                    blocklen,
                    disps,
                    child,
                }),
            proptest::collection::vec((-40i64..100, 0usize..4, inner.clone()), 0..4).prop_map(
                |fields| Kind::Struct {
                    fields: fields
                        .into_iter()
                        .map(|(disp, count, dtype)| Field { disp, count, dtype })
                        .collect(),
                }
            ),
            (
                proptest::collection::vec((1usize..5, 0usize..5, 0usize..5), 1..4),
                0u8..12,
                inner.clone()
            )
                .prop_map(|(dims, mangle, child)| {
                    let (mut sizes, mut subsizes, mut starts) = (vec![], vec![], vec![]);
                    for (size, a, b) in dims {
                        let sub = a.min(size);
                        sizes.push(size);
                        subsizes.push(sub);
                        starts.push(b % (size - sub + 1));
                    }
                    // One in twelve of each invalid shape.
                    match mangle {
                        0 => {
                            sizes.clear();
                            subsizes.clear();
                            starts.clear();
                        }
                        1 => {
                            starts.pop();
                        }
                        2 => starts[0] = sizes[0] + 1 - subsizes[0],
                        _ => {}
                    }
                    Kind::Subarray {
                        sizes,
                        subsizes,
                        starts,
                        child,
                    }
                }),
            (-16i64..16, -4i64..40, inner).prop_map(|(lb, extent, child)| Kind::Resized {
                lb,
                extent,
                child
            }),
        ];
        node.prop_map(|k| Spec(Box::new(k)))
    })
}

// ----- the recursive flattener the one-pass commit replaced --------------

/// The oracle's committed type: what a committed `Datatype` exposes.
#[derive(Clone, Debug, PartialEq)]
pub struct Flat {
    pub segments: Vec<Segment>,
    pub size: usize,
    pub lb: i64,
    pub extent: i64,
}

impl Flat {
    fn extent(&self) -> i64 {
        self.extent
    }

    fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// `count` replicas materialized, one extent apart: their lowest and
    /// one-past-highest byte.
    pub fn true_bounds(&self, count: usize) -> (i64, i64) {
        let replicas = (0..count as i64).flat_map(|r| {
            let base = r * self.extent;
            self.segments
                .iter()
                .map(move |s| (base + s.offset, base + s.end()))
        });
        replicas
            .reduce(|(lo, hi), (l, h)| (lo.min(l), hi.max(h)))
            .unwrap_or((0, 0))
    }

    pub fn is_contiguous(&self) -> bool {
        self.segments.len() <= 1
            && self.lb == 0
            && self.extent == self.size as i64
            && self
                .segments
                .first()
                .is_none_or(|s| s.offset == 0 && s.len == self.size)
    }
}

/// Commit `spec` the old way, children first, each commit capped at
/// `limit` segments.
pub fn oracle(spec: &Spec, limit: usize) -> Result<Flat> {
    let kind = spec.0.try_map(&mut |child| oracle(child, limit))?;
    if let Kind::Leaf(i) = &kind {
        // Leaves were built whole, never through the sink.
        let size = LEAVES[*i].1;
        let segments = vec![Segment {
            offset: 0,
            len: size,
        }];
        let extent = size as i64;
        return Ok(Flat {
            segments,
            size,
            lb: 0,
            extent,
        });
    }
    validate(&kind)?;
    let mut sink = Sink::new(limit);
    flatten(&kind, 0, &mut sink)?;
    let segments = sink.finish();
    let size = segments.iter().map(|s| s.len).sum();
    let true_lb = segments.iter().map(|s| s.offset).min().unwrap_or(0);
    let true_ub = segments.iter().map(Segment::end).max().unwrap_or(0);
    let (lb, extent) = match &kind {
        Kind::Resized { lb, extent, .. } => (*lb, *extent),
        _ => (true_lb, true_ub - true_lb),
    };
    Ok(Flat {
        segments,
        size,
        lb,
        extent,
    })
}

fn validate(kind: &Kind<Flat>) -> Result<()> {
    let fail = |msg: String| Err(TypeError::Invalid(msg));
    match kind {
        Kind::Leaf(_) | Kind::Contiguous { .. } => Ok(()),
        // Overlapping vector blocks (|stride| < blocklen) are legal for
        // sends in MPI; we follow and accept them unconditionally.
        Kind::Vector { .. } => Ok(()),
        Kind::Hvector { .. } | Kind::Indexed { .. } | Kind::Hindexed { .. } => Ok(()),
        Kind::IndexedBlock { .. } | Kind::Struct { .. } => Ok(()),
        Kind::Subarray {
            sizes,
            subsizes,
            starts,
            ..
        } => {
            if sizes.is_empty() {
                return fail("subarray needs at least one dimension".into());
            }
            if sizes.len() != subsizes.len() || sizes.len() != starts.len() {
                return fail(format!(
                    "subarray dimension mismatch: sizes={}, subsizes={}, starts={}",
                    sizes.len(),
                    subsizes.len(),
                    starts.len()
                ));
            }
            for d in 0..sizes.len() {
                if starts[d] + subsizes[d] > sizes[d] {
                    return fail(format!(
                        "subarray dim {d}: start {} + subsize {} exceeds size {}",
                        starts[d], subsizes[d], sizes[d]
                    ));
                }
            }
            Ok(())
        }
        Kind::Resized { extent, .. } => {
            if *extent < 0 {
                fail("negative extents are not supported".into())
            } else {
                Ok(())
            }
        }
    }
}

/// Coalescing segment sink: adjacent-in-memory, consecutive-in-pack-order
/// pieces are merged, exactly like an MPI implementation's flattened iovec.
struct Sink {
    segs: Vec<Segment>,
    limit: usize,
}

impl Sink {
    fn new(limit: usize) -> Self {
        Sink {
            segs: Vec::new(),
            limit,
        }
    }

    fn push(&mut self, offset: i64, len: usize) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        if let Some(last) = self.segs.last_mut() {
            if last.end() == offset {
                last.len += len;
                return Ok(());
            }
        }
        if self.segs.len() >= self.limit {
            return Err(TypeError::TooManySegments {
                segments: self.segs.len() + 1,
                limit: self.limit,
            });
        }
        self.segs.push(Segment { offset, len });
        Ok(())
    }

    fn finish(self) -> Vec<Segment> {
        self.segs
    }
}

fn flatten_child_run(child: &Flat, base: i64, n: usize, sink: &mut Sink) -> Result<()> {
    for i in 0..n {
        flatten_committed(child, base + i as i64 * child.extent(), sink)?;
    }
    Ok(())
}

/// Re-emit an already committed child's segments at a displacement.
fn flatten_committed(child: &Flat, base: i64, sink: &mut Sink) -> Result<()> {
    for s in child.segments() {
        sink.push(base + s.offset, s.len)?;
    }
    Ok(())
}

fn flatten(kind: &Kind<Flat>, base: i64, sink: &mut Sink) -> Result<()> {
    match kind {
        Kind::Leaf(i) => sink.push(base, LEAVES[*i].1),
        Kind::Contiguous { count, child } => flatten_child_run(child, base, *count, sink),
        Kind::Vector {
            count,
            blocklen,
            stride,
            child,
        } => {
            for i in 0..*count {
                let block_base = base + *stride * i as i64 * child.extent();
                flatten_child_run(child, block_base, *blocklen, sink)?;
            }
            Ok(())
        }
        Kind::Hvector {
            count,
            blocklen,
            stride_bytes,
            child,
        } => {
            for i in 0..*count {
                let block_base = base + *stride_bytes * i as i64;
                flatten_child_run(child, block_base, *blocklen, sink)?;
            }
            Ok(())
        }
        Kind::Indexed { blocks, child } => {
            for &(disp, blocklen) in blocks {
                flatten_child_run(child, base + disp * child.extent(), blocklen, sink)?;
            }
            Ok(())
        }
        Kind::Hindexed { blocks, child } => {
            for &(disp, blocklen) in blocks {
                flatten_child_run(child, base + disp, blocklen, sink)?;
            }
            Ok(())
        }
        Kind::IndexedBlock {
            blocklen,
            disps,
            child,
        } => {
            for &disp in disps {
                flatten_child_run(child, base + disp * child.extent(), *blocklen, sink)?;
            }
            Ok(())
        }
        Kind::Struct { fields } => {
            for f in fields {
                flatten_child_run(&f.dtype, base + f.disp, f.count, sink)?;
            }
            Ok(())
        }
        Kind::Subarray {
            sizes,
            subsizes,
            starts,
            child,
        } => {
            // Row-major strides in child extents.
            let ndims = sizes.len();
            let mut strides = vec![1i64; ndims];
            for d in (0..ndims.saturating_sub(1)).rev() {
                strides[d] = strides[d + 1] * sizes[d + 1] as i64;
            }
            subarray_walk(sizes, subsizes, starts, &strides, child, 0, base, sink)
        }
        Kind::Resized { child, .. } => flatten_committed(child, base, sink),
    }
}

#[allow(clippy::too_many_arguments)]
fn subarray_walk(
    sizes: &[usize],
    subsizes: &[usize],
    starts: &[usize],
    strides: &[i64],
    child: &Flat,
    dim: i64,
    base: i64,
    sink: &mut Sink,
) -> Result<()> {
    let d = dim as usize;
    let ext = child.extent();
    if d == sizes.len() - 1 {
        // Innermost dimension: a contiguous run of children.
        let run_base = base + starts[d] as i64 * ext;
        flatten_child_run(child, run_base, subsizes[d], sink)
    } else {
        for i in 0..subsizes[d] {
            let next = base + (starts[d] + i) as i64 * strides[d] * ext;
            subarray_walk(sizes, subsizes, starts, strides, child, dim + 1, next, sink)?;
        }
        Ok(())
    }
}

// ----- the executed walk and the reference engine ------------------------

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
    for w in &want {
        let before = engine.packed().len();
        let obs = engine
            .next_block(&mut counts)
            .unwrap_or_else(|| panic!("{what}: stream ended at block {}", w.obs.index));
        assert_eq!(obs, w.obs, "{what}");
        let block = &engine.packed()[before..];
        assert_eq!(block, &w.data[..], "{what}: block {}", obs.index);
        log.on_block(&obs);
    }
    assert!(engine.next_block(&mut counts).is_none(), "{what}");
    assert_eq!(counts, want_counts, "{what}");
    assert_eq!(log.total_seek(), want_counts.searched_segments, "{what}");
}
