//! MPI-style derived datatype descriptions.
//!
//! A [`Datatype`] is a recursive description of a (possibly noncontiguous)
//! memory layout, mirroring the MPI derived-datatype constructors:
//! contiguous, vector/hvector, indexed/hindexed/indexed-block, struct,
//! subarray and resized, over a handful of primitive types.
//!
//! Types are *committed at construction*: the tree is flattened into an
//! ordered list of coalesced contiguous [`Segment`]s (the *type map*), which
//! is what the pack engines and cursors consume. Flattening once and walking
//! a flat array is how production MPI implementations process datatypes
//! (MPICH's "dataloops" serve the same purpose), and it is the structure the
//! paper's context/search discussion is about: a *context* is a position in
//! this walk, and *searching* is re-walking the segment list from the start.

use std::sync::Arc;

use crate::error::{Result, TypeError};

/// Hard cap on materialized segments per type instance, to keep pathological
/// constructions from exhausting memory. Generous enough for every workload
/// in the paper (the largest, the 1024x1024 transpose column type, needs
/// 1024 segments per instance).
pub const MAX_SEGMENTS: usize = 1 << 24;

/// Primitive (leaf) datatypes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Primitive {
    Double,
    Float,
    Int32,
    Int64,
    UInt8,
    Char,
}

impl Primitive {
    /// Size in bytes.
    pub fn size(self) -> usize {
        match self {
            Primitive::Double | Primitive::Int64 => 8,
            Primitive::Float | Primitive::Int32 => 4,
            Primitive::UInt8 | Primitive::Char => 1,
        }
    }
}

/// One maximal contiguous piece of a flattened datatype, in pack order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Byte displacement from the start of the buffer (for replica 0).
    pub offset: i64,
    /// Length in bytes.
    pub len: usize,
}

impl Segment {
    pub fn end(&self) -> i64 {
        self.offset + self.len as i64
    }
}

/// A field of a struct datatype: `count` copies of `dtype` starting at byte
/// displacement `disp`.
#[derive(Clone, Debug)]
pub struct StructField {
    pub disp: i64,
    pub count: usize,
    pub dtype: Datatype,
}

#[derive(Clone, Debug)]
enum Kind {
    Primitive(Primitive),
    Contiguous {
        count: usize,
        child: Datatype,
    },
    Vector {
        count: usize,
        blocklen: usize,
        /// Stride between block starts, in units of the child extent.
        stride: i64,
        child: Datatype,
    },
    Hvector {
        count: usize,
        blocklen: usize,
        /// Stride between block starts, in bytes.
        stride_bytes: i64,
        child: Datatype,
    },
    /// Blocks of `(displacement in child extents, block length in children)`.
    Indexed {
        blocks: Vec<(i64, usize)>,
        child: Datatype,
    },
    /// Blocks of `(displacement in bytes, block length in children)`.
    Hindexed {
        blocks: Vec<(i64, usize)>,
        child: Datatype,
    },
    IndexedBlock {
        blocklen: usize,
        /// Displacements in child extents.
        disps: Vec<i64>,
        child: Datatype,
    },
    Struct {
        fields: Vec<StructField>,
    },
    Subarray {
        sizes: Vec<usize>,
        subsizes: Vec<usize>,
        starts: Vec<usize>,
        child: Datatype,
    },
    Resized {
        lb: i64,
        extent: i64,
        child: Datatype,
    },
}

#[derive(Debug)]
struct Inner {
    kind: Kind,
    /// Packed size in bytes of one instance (sum of segment lengths).
    size: usize,
    /// Lower bound of the type map, in bytes.
    lb: i64,
    /// Extent: spacing between consecutive instances in an array of this
    /// type, in bytes.
    extent: i64,
    /// Flattened, coalesced type map for one instance (replica 0).
    segments: Vec<Segment>,
    /// Exclusive prefix sum of segment lengths: `starts[i]` is the packed
    /// offset at which segment `i` begins. Strictly increasing (segments
    /// are non-empty), which is what lets a cursor land on a packed offset
    /// by binary search instead of a walk.
    starts: Vec<usize>,
    /// Lowest byte offset and one-past-highest byte offset replica 0
    /// touches, whatever `lb`/`extent` a resize declared.
    true_lb: i64,
    true_ub: i64,
}

/// A committed derived datatype. Cheap to clone (`Arc` inside).
#[derive(Clone, Debug)]
pub struct Datatype(Arc<Inner>);

impl Datatype {
    // ----- primitive constructors -------------------------------------

    pub fn double() -> Datatype {
        Self::primitive(Primitive::Double)
    }

    pub fn float() -> Datatype {
        Self::primitive(Primitive::Float)
    }

    pub fn int32() -> Datatype {
        Self::primitive(Primitive::Int32)
    }

    pub fn int64() -> Datatype {
        Self::primitive(Primitive::Int64)
    }

    pub fn byte() -> Datatype {
        Self::primitive(Primitive::UInt8)
    }

    pub fn primitive(p: Primitive) -> Datatype {
        let size = p.size();
        Datatype(Arc::new(Inner {
            kind: Kind::Primitive(p),
            size,
            lb: 0,
            extent: size as i64,
            segments: vec![Segment {
                offset: 0,
                len: size,
            }],
            starts: vec![0],
            true_lb: 0,
            true_ub: size as i64,
        }))
    }

    // ----- derived constructors ---------------------------------------

    /// `count` consecutive copies of `child` (MPI_Type_contiguous).
    pub fn contiguous(count: usize, child: &Datatype) -> Result<Datatype> {
        Self::commit(Kind::Contiguous {
            count,
            child: child.clone(),
        })
    }

    /// `count` blocks of `blocklen` children, block starts `stride` child
    /// extents apart (MPI_Type_vector).
    pub fn vector(
        count: usize,
        blocklen: usize,
        stride: i64,
        child: &Datatype,
    ) -> Result<Datatype> {
        Self::commit(Kind::Vector {
            count,
            blocklen,
            stride,
            child: child.clone(),
        })
    }

    /// Like [`Datatype::vector`] but with the stride in bytes
    /// (MPI_Type_create_hvector).
    pub fn hvector(
        count: usize,
        blocklen: usize,
        stride_bytes: i64,
        child: &Datatype,
    ) -> Result<Datatype> {
        Self::commit(Kind::Hvector {
            count,
            blocklen,
            stride_bytes,
            child: child.clone(),
        })
    }

    /// Blocks of `(displacement in child extents, blocklen)` (MPI_Type_indexed).
    pub fn indexed(blocks: &[(i64, usize)], child: &Datatype) -> Result<Datatype> {
        Self::commit(Kind::Indexed {
            blocks: blocks.to_vec(),
            child: child.clone(),
        })
    }

    /// Blocks of `(displacement in bytes, blocklen)` (MPI_Type_create_hindexed).
    pub fn hindexed(blocks: &[(i64, usize)], child: &Datatype) -> Result<Datatype> {
        Self::commit(Kind::Hindexed {
            blocks: blocks.to_vec(),
            child: child.clone(),
        })
    }

    /// Fixed-length blocks at the given displacements, in child extents
    /// (MPI_Type_create_indexed_block).
    pub fn indexed_block(blocklen: usize, disps: &[i64], child: &Datatype) -> Result<Datatype> {
        Self::commit(Kind::IndexedBlock {
            blocklen,
            disps: disps.to_vec(),
            child: child.clone(),
        })
    }

    /// Heterogeneous fields at explicit byte displacements
    /// (MPI_Type_create_struct).
    pub fn structure(fields: &[StructField]) -> Result<Datatype> {
        Self::commit(Kind::Struct {
            fields: fields.to_vec(),
        })
    }

    /// An n-dimensional subarray of an n-dimensional array in row-major (C)
    /// order (MPI_Type_create_subarray).
    pub fn subarray(
        sizes: &[usize],
        subsizes: &[usize],
        starts: &[usize],
        child: &Datatype,
    ) -> Result<Datatype> {
        Self::commit(Kind::Subarray {
            sizes: sizes.to_vec(),
            subsizes: subsizes.to_vec(),
            starts: starts.to_vec(),
            child: child.clone(),
        })
    }

    /// Override lower bound and extent (MPI_Type_create_resized).
    pub fn resized(lb: i64, extent: i64, child: &Datatype) -> Result<Datatype> {
        Self::commit(Kind::Resized {
            lb,
            extent,
            child: child.clone(),
        })
    }

    // ----- accessors ----------------------------------------------------

    /// Packed size in bytes of one instance.
    pub fn size(&self) -> usize {
        self.0.size
    }

    /// Extent in bytes (spacing between array elements of this type).
    pub fn extent(&self) -> i64 {
        self.0.extent
    }

    /// Lower bound in bytes.
    pub fn lb(&self) -> i64 {
        self.0.lb
    }

    /// Name of the outermost constructor (for diagnostics and reports).
    pub fn constructor_name(&self) -> &'static str {
        match &self.0.kind {
            Kind::Primitive(_) => "primitive",
            Kind::Contiguous { .. } => "contiguous",
            Kind::Vector { .. } => "vector",
            Kind::Hvector { .. } => "hvector",
            Kind::Indexed { .. } => "indexed",
            Kind::Hindexed { .. } => "hindexed",
            Kind::IndexedBlock { .. } => "indexed_block",
            Kind::Struct { .. } => "struct",
            Kind::Subarray { .. } => "subarray",
            Kind::Resized { .. } => "resized",
        }
    }

    /// Number of maximal contiguous segments per instance — the length of
    /// the type *signature* the engines walk.
    pub fn num_segments(&self) -> usize {
        self.0.segments.len()
    }

    /// The flattened type map of one instance.
    pub fn segments(&self) -> &[Segment] {
        &self.0.segments
    }

    /// Packed offset at which each segment of one instance begins (the
    /// exclusive prefix sum of segment lengths).
    pub(crate) fn segment_starts(&self) -> &[usize] {
        &self.0.starts
    }

    /// Lowest byte offset and one-past-highest byte offset that `count`
    /// consecutive instances touch, relative to the buffer start: the
    /// extremes sit in replica 0 and replica `count - 1` (extents are never
    /// negative). `(0, 0)` when nothing is touched.
    pub fn true_bounds(&self, count: usize) -> (i64, i64) {
        if count == 0 || self.0.segments.is_empty() {
            return (0, 0);
        }
        let last = (count - 1) as i64 * self.0.extent;
        (self.0.true_lb, self.0.true_ub + last)
    }

    /// Average contiguous segment length in bytes (density measure); 0 for
    /// empty types.
    pub fn avg_segment_len(&self) -> usize {
        if self.0.segments.is_empty() {
            0
        } else {
            self.0.size / self.0.segments.len()
        }
    }

    /// True if every byte of the type map is one contiguous run starting at
    /// offset 0 whose length equals the extent — the fast-path test used to
    /// skip datatype processing entirely.
    pub fn is_contiguous(&self) -> bool {
        self.0.segments.len() <= 1
            && self.0.lb == 0
            && self.0.extent == self.0.size as i64
            && self
                .0
                .segments
                .first()
                .is_none_or(|s| s.offset == 0 && s.len == self.0.size)
    }

    // ----- commit (flatten) ----------------------------------------------

    fn commit(kind: Kind) -> Result<Datatype> {
        validate(&kind)?;
        let mut sink = Sink::new(MAX_SEGMENTS);
        flatten(&kind, 0, &mut sink)?;
        let segments = sink.finish();
        let mut starts = Vec::with_capacity(segments.len());
        let mut size = 0usize;
        for s in &segments {
            // The cursor's closed-form seek needs `starts` strictly
            // increasing; `Sink::push` drops empty pieces.
            assert!(s.len > 0, "flattened segment of zero length");
            starts.push(size);
            size += s.len;
        }
        // "True" bounds: the lowest and highest byte touched.
        let true_lb = segments.iter().map(|s| s.offset).min().unwrap_or(0);
        let true_ub = segments.iter().map(Segment::end).max().unwrap_or(0);
        let (lb, extent) = match &kind {
            Kind::Resized { lb, extent, .. } => (*lb, *extent),
            // Constructors that replicate a child must preserve the
            // child's own (possibly resized) spacing at the tail; using
            // the touched-byte bound is the MPI "true extent", which is
            // what all workloads in this workspace rely on.
            _ => (true_lb, true_ub - true_lb),
        };
        Ok(Datatype(Arc::new(Inner {
            kind,
            size,
            lb,
            extent,
            segments,
            starts,
            true_lb,
            true_ub,
        })))
    }
}

fn validate(kind: &Kind) -> Result<()> {
    let fail = |msg: String| Err(TypeError::Invalid(msg));
    match kind {
        Kind::Primitive(_) | Kind::Contiguous { .. } => Ok(()),
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

fn flatten_child_run(child: &Datatype, base: i64, n: usize, sink: &mut Sink) -> Result<()> {
    for i in 0..n {
        flatten_committed(child, base + i as i64 * child.extent(), sink)?;
    }
    Ok(())
}

/// Re-emit an already committed child's segments at a displacement.
fn flatten_committed(child: &Datatype, base: i64, sink: &mut Sink) -> Result<()> {
    for s in child.segments() {
        sink.push(base + s.offset, s.len)?;
    }
    Ok(())
}

fn flatten(kind: &Kind, base: i64, sink: &mut Sink) -> Result<()> {
    match kind {
        Kind::Primitive(p) => sink.push(base, p.size()),
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
    child: &Datatype,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_sizes() {
        assert_eq!(Datatype::double().size(), 8);
        assert_eq!(Datatype::float().size(), 4);
        assert_eq!(Datatype::int32().size(), 4);
        assert_eq!(Datatype::int64().size(), 8);
        assert_eq!(Datatype::byte().size(), 1);
        assert!(Datatype::double().is_contiguous());
    }

    #[test]
    fn contiguous_coalesces_to_one_segment() {
        let t = Datatype::contiguous(10, &Datatype::double()).unwrap();
        assert_eq!(t.size(), 80);
        assert_eq!(t.extent(), 80);
        assert_eq!(t.num_segments(), 1);
        assert!(t.is_contiguous());
    }

    #[test]
    fn vector_column_of_matrix() {
        // First column of an 8x8 matrix of 3-double elements (paper Fig 6):
        // element = contiguous(3 doubles); column = vector(count=8,
        // blocklen=1, stride=8) of elements.
        let elem = Datatype::contiguous(3, &Datatype::double()).unwrap();
        let col = Datatype::vector(8, 1, 8, &elem).unwrap();
        assert_eq!(col.size(), 8 * 24);
        assert_eq!(col.num_segments(), 8);
        assert_eq!(col.segments()[0], Segment { offset: 0, len: 24 });
        assert_eq!(
            col.segments()[1],
            Segment {
                offset: 8 * 24,
                len: 24
            }
        );
        // Extent spans to the end of the last block.
        assert_eq!(col.extent(), 7 * 8 * 24 + 24);
        assert!(!col.is_contiguous());
    }

    #[test]
    fn vector_with_blocklen_equal_stride_is_contiguous() {
        let t = Datatype::vector(4, 3, 3, &Datatype::double()).unwrap();
        assert_eq!(t.num_segments(), 1);
        assert_eq!(t.size(), 96);
    }

    #[test]
    fn hvector_matches_vector_when_stride_scaled() {
        let d = Datatype::double();
        let v = Datatype::vector(5, 2, 4, &d).unwrap();
        let h = Datatype::hvector(5, 2, 32, &d).unwrap();
        assert_eq!(v.segments(), h.segments());
        assert_eq!(v.size(), h.size());
    }

    #[test]
    fn indexed_blocks() {
        let d = Datatype::double();
        let t = Datatype::indexed(&[(0, 2), (5, 1), (9, 3)], &d).unwrap();
        assert_eq!(t.size(), 48);
        assert_eq!(t.num_segments(), 3);
        assert_eq!(t.segments()[1], Segment { offset: 40, len: 8 });
        assert_eq!(
            t.segments()[2],
            Segment {
                offset: 72,
                len: 24
            }
        );
    }

    #[test]
    fn indexed_adjacent_blocks_coalesce() {
        let d = Datatype::double();
        let t = Datatype::indexed(&[(0, 2), (2, 3)], &d).unwrap();
        assert_eq!(t.num_segments(), 1);
        assert_eq!(t.size(), 40);
    }

    #[test]
    fn hindexed_is_byte_displaced() {
        let d = Datatype::double();
        let t = Datatype::hindexed(&[(4, 1), (100, 2)], &d).unwrap();
        assert_eq!(t.segments()[0], Segment { offset: 4, len: 8 });
        assert_eq!(
            t.segments()[1],
            Segment {
                offset: 100,
                len: 16
            }
        );
    }

    #[test]
    fn indexed_block_type() {
        let d = Datatype::double();
        let t = Datatype::indexed_block(2, &[0, 10, 20], &d).unwrap();
        assert_eq!(t.size(), 48);
        assert_eq!(t.num_segments(), 3);
        assert_eq!(t.segments()[1].offset, 80);
    }

    #[test]
    fn struct_fields_at_displacements() {
        let t = Datatype::structure(&[
            StructField {
                disp: 0,
                count: 1,
                dtype: Datatype::int32(),
            },
            StructField {
                disp: 8,
                count: 2,
                dtype: Datatype::double(),
            },
        ])
        .unwrap();
        assert_eq!(t.size(), 20);
        assert_eq!(t.num_segments(), 2);
        assert_eq!(t.segments()[1], Segment { offset: 8, len: 16 });
    }

    #[test]
    fn subarray_2d_interior_block() {
        // 4x6 array of doubles, take the 2x3 block starting at (1,2).
        let t = Datatype::subarray(&[4, 6], &[2, 3], &[1, 2], &Datatype::double()).unwrap();
        assert_eq!(t.size(), 2 * 3 * 8);
        assert_eq!(t.num_segments(), 2);
        assert_eq!(
            t.segments()[0],
            Segment {
                offset: (6 + 2) * 8,
                len: 24
            }
        );
        assert_eq!(
            t.segments()[1],
            Segment {
                offset: (12 + 2) * 8,
                len: 24
            }
        );
    }

    #[test]
    fn subarray_full_row_coalesces() {
        let t = Datatype::subarray(&[4, 6], &[2, 6], &[1, 0], &Datatype::double()).unwrap();
        // Two full adjacent rows are one contiguous run.
        assert_eq!(t.num_segments(), 1);
        assert_eq!(t.size(), 96);
    }

    #[test]
    fn subarray_3d() {
        let t =
            Datatype::subarray(&[3, 4, 5], &[2, 2, 2], &[0, 1, 1], &Datatype::double()).unwrap();
        assert_eq!(t.size(), 8 * 8);
        assert_eq!(t.num_segments(), 4); // 2x2 rows of length-2 runs
        assert_eq!(t.segments()[0].offset, (5 + 1) as i64 * 8);
    }

    #[test]
    fn subarray_validation() {
        let d = Datatype::double();
        assert!(Datatype::subarray(&[4], &[5], &[0], &d).is_err());
        assert!(Datatype::subarray(&[4], &[2], &[3], &d).is_err());
        assert!(Datatype::subarray(&[4, 4], &[2], &[0], &d).is_err());
        assert!(Datatype::subarray(&[], &[], &[], &d).is_err());
    }

    #[test]
    fn resized_overrides_extent() {
        // A column datatype resized so that consecutive instances are one
        // element apart — the standard idiom for sending many columns.
        let elem = Datatype::contiguous(3, &Datatype::double()).unwrap();
        let col = Datatype::vector(8, 1, 8, &elem).unwrap();
        let col_r = Datatype::resized(0, 24, &col).unwrap();
        assert_eq!(col_r.extent(), 24);
        assert_eq!(col_r.size(), col.size());
        assert_eq!(col_r.segments(), col.segments());
        assert!(Datatype::resized(0, -8, &col).is_err());
    }

    #[test]
    fn nested_vector_of_vectors() {
        let inner = Datatype::vector(2, 1, 2, &Datatype::double()).unwrap(); // 2 doubles, gap between
        let outer = Datatype::contiguous(3, &inner).unwrap();
        assert_eq!(outer.size(), 3 * 16);
        // inner extent = 24 (true extent 0..24); instances at 0, 24, 48 with
        // segments at +0 and +16. The +16 segment of one instance abuts the
        // +0 segment of the next, so they coalesce: (0,8) (16,16) (40,16)
        // (64,8).
        assert_eq!(outer.num_segments(), 4);
        assert_eq!(
            outer.segments()[1],
            Segment {
                offset: 16,
                len: 16
            }
        );
    }

    #[test]
    fn empty_types() {
        let t = Datatype::contiguous(0, &Datatype::double()).unwrap();
        assert_eq!(t.size(), 0);
        assert_eq!(t.num_segments(), 0);
        assert_eq!(t.extent(), 0);
        let v = Datatype::vector(3, 0, 5, &Datatype::double()).unwrap();
        assert_eq!(v.size(), 0);
    }

    #[test]
    fn avg_segment_len() {
        let elem = Datatype::contiguous(3, &Datatype::double()).unwrap();
        let col = Datatype::vector(8, 1, 8, &elem).unwrap();
        assert_eq!(col.avg_segment_len(), 24);
        assert_eq!(
            Datatype::contiguous(0, &Datatype::double())
                .unwrap()
                .avg_segment_len(),
            0
        );
    }

    #[test]
    fn segment_limit_enforced() {
        // A vector with many single-byte blocks far apart. Keep it under
        // the real MAX_SEGMENTS but verify the error path via a tiny sink.
        let mut sink = Sink::new(2);
        sink.push(0, 1).unwrap();
        sink.push(10, 1).unwrap();
        assert!(matches!(
            sink.push(20, 1),
            Err(TypeError::TooManySegments { .. })
        ));
    }
}
