//! MPI-style derived datatypes, committed to their type maps.
//!
//! A [`Datatype`] *is* its type map: the ordered list of coalesced
//! contiguous [`Segment`]s one instance touches, with its size, lower
//! bound and extent. Each MPI derived-datatype constructor (contiguous,
//! vector/hvector, indexed/hindexed/indexed-block, struct, subarray and
//! resized, over five named leaves) lowers to *runs* — `n` consecutive
//! copies of an already committed child at a byte displacement — and one
//! `commit` flattens the runs into the map. No constructor tree is kept.
//!
//! The map is what the pack engines and cursors consume. Flattening once
//! and walking a flat array is how production MPI implementations process
//! datatypes (MPICH's "dataloops" serve the same purpose; TEMPI lowers
//! every constructor to one canonical form at commit), and it is the
//! structure the paper's context/search discussion is about: a *context*
//! is a position in this walk, and *searching* is re-walking the segment
//! list from the start.

use std::sync::Arc;

use crate::error::{Result, TypeError};

/// Hard cap on materialized segments per type instance, to keep pathological
/// constructions from exhausting memory. Generous enough for every workload
/// in the paper (the largest, the 1024x1024 transpose column type, needs
/// 1024 segments per instance).
pub const MAX_SEGMENTS: usize = 1 << 24;

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

/// What every constructor lowers to: `(byte displacement, n, child)`, `n`
/// consecutive copies of `child` (one child extent apart), the first at the
/// displacement.
pub(crate) type Run<'a> = (i64, usize, &'a Datatype);

#[derive(Debug)]
struct Inner {
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
    // ----- leaves -------------------------------------------------------

    pub fn double() -> Datatype {
        Self::leaf(8)
    }

    pub fn float() -> Datatype {
        Self::leaf(4)
    }

    pub fn int32() -> Datatype {
        Self::leaf(4)
    }

    pub fn int64() -> Datatype {
        Self::leaf(8)
    }

    pub fn byte() -> Datatype {
        Self::leaf(1)
    }

    fn leaf(size: usize) -> Datatype {
        let map = vec![Segment {
            offset: 0,
            len: size,
        }];
        Self::from_map(map, None).expect("a leaf is one short segment")
    }

    // ----- derived constructors ---------------------------------------

    /// `count` consecutive copies of `child` (MPI_Type_contiguous).
    pub fn contiguous(count: usize, child: &Datatype) -> Result<Datatype> {
        Self::commit([Ok((0, count, child))], None)
    }

    /// `count` blocks of `blocklen` children, block starts `stride` child
    /// extents apart (MPI_Type_vector).
    pub fn vector(
        count: usize,
        blocklen: usize,
        stride: i64,
        child: &Datatype,
    ) -> Result<Datatype> {
        Self::hvector(count, blocklen, times(stride, child.extent())?, child)
    }

    /// Like [`Datatype::vector`] but with the stride in bytes
    /// (MPI_Type_create_hvector).
    pub fn hvector(
        count: usize,
        blocklen: usize,
        stride_bytes: i64,
        child: &Datatype,
    ) -> Result<Datatype> {
        let blocks = (0..count).map(|i| Ok((times(i, stride_bytes)?, blocklen, child)));
        Self::commit(blocks, None)
    }

    /// Blocks of `(displacement in child extents, blocklen)` (MPI_Type_indexed).
    pub fn indexed(blocks: &[(i64, usize)], child: &Datatype) -> Result<Datatype> {
        let ext = child.extent();
        let runs = blocks.iter().map(|&(d, n)| Ok((times(d, ext)?, n, child)));
        Self::commit(runs, None)
    }

    /// Blocks of `(displacement in bytes, blocklen)` (MPI_Type_create_hindexed).
    pub fn hindexed(blocks: &[(i64, usize)], child: &Datatype) -> Result<Datatype> {
        Self::commit(blocks.iter().map(|&(d, n)| Ok((d, n, child))), None)
    }

    /// Fixed-length blocks at the given displacements, in child extents
    /// (MPI_Type_create_indexed_block).
    pub fn indexed_block(blocklen: usize, disps: &[i64], child: &Datatype) -> Result<Datatype> {
        let ext = child.extent();
        let runs = disps.iter().map(|&d| Ok((times(d, ext)?, blocklen, child)));
        Self::commit(runs, None)
    }

    /// Heterogeneous fields at explicit byte displacements
    /// (MPI_Type_create_struct).
    pub fn structure(fields: &[StructField]) -> Result<Datatype> {
        Self::commit(fields.iter().map(|f| Ok((f.disp, f.count, &f.dtype))), None)
    }

    /// An n-dimensional subarray of an n-dimensional array in row-major (C)
    /// order (MPI_Type_create_subarray): one run per innermost row.
    pub fn subarray(
        sizes: &[usize],
        subsizes: &[usize],
        starts: &[usize],
        child: &Datatype,
    ) -> Result<Datatype> {
        let fail = |msg: String| Err(TypeError::Invalid(msg));
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
            if starts[d] > sizes[d] || subsizes[d] > sizes[d] - starts[d] {
                return fail(format!(
                    "subarray dim {d}: start {} + subsize {} exceeds size {}",
                    starts[d], subsizes[d], sizes[d]
                ));
            }
        }
        // Row-major strides in bytes.
        let last = sizes.len() - 1;
        let mut strides = vec![child.extent(); sizes.len()];
        for d in (0..last).rev() {
            strides[d] = times(sizes[d + 1], strides[d + 1])?;
        }
        // Row `r` in row-major order is an odometer reading over the outer
        // dimensions, the one just outside the row turning fastest.
        let rows = subsizes[..last]
            .iter()
            .try_fold(1, |a: usize, &b| a.checked_mul(b));
        let runs = (0..fits(rows)?).map(|mut r| {
            let mut disp = times(starts[last], strides[last])?;
            for d in (0..last).rev() {
                disp = fits(disp.checked_add(times(starts[d] + r % subsizes[d], strides[d])?))?;
                r /= subsizes[d];
            }
            Ok((disp, subsizes[last], child))
        });
        Self::commit(runs, None)
    }

    /// Override lower bound and extent (MPI_Type_create_resized).
    pub fn resized(lb: i64, extent: i64, child: &Datatype) -> Result<Datatype> {
        if extent < 0 {
            return Err(TypeError::Invalid(
                "negative extents are not supported".into(),
            ));
        }
        Self::commit([Ok((0, 1, child))], Some((lb, extent)))
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
    /// negative). `(0, 0)` when nothing is touched. A span whose end does
    /// not fit in `i64` ends at `i64::MAX`, past every buffer, so a buffer
    /// check refuses it instead of reading a wrapped bound.
    pub fn true_bounds(&self, count: usize) -> (i64, i64) {
        if count == 0 || self.0.segments.is_empty() {
            return (0, 0);
        }
        let ub = i64::try_from(count - 1)
            .ok()
            .and_then(|last| last.checked_mul(self.0.extent))
            .and_then(|last| self.0.true_ub.checked_add(last));
        (self.0.true_lb, ub.unwrap_or(i64::MAX))
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

    // ----- commit -------------------------------------------------------

    /// Flatten `runs`, in order, into one coalesced type map. The type
    /// spans the bytes it touches unless `resize` declares `(lb, extent)`:
    /// a run's copies keep their child's own (possibly resized) spacing,
    /// but the new type's extent is the MPI "true extent", which is what
    /// all workloads in this workspace rely on.
    ///
    /// Commit costs O(runs + emitted segments), never O(bytes): the copies
    /// of a dense child (one segment as long as its extent) abut, so its
    /// run is one piece, the one the sink would merge from `n` copies. A
    /// byte offset, extent or size outside its integer type is `Invalid`.
    pub(crate) fn commit<'a>(
        runs: impl IntoIterator<Item = Result<Run<'a>>>,
        resize: Option<(i64, i64)>,
    ) -> Result<Datatype> {
        let mut sink = Sink::new(segment_limit());
        for run in runs {
            let (disp, n, child) = run?;
            let (segs, ext) = (child.segments(), child.extent());
            if n == 0 || segs.is_empty() {
                continue;
            }
            // The run's lowest and highest byte, checked once: every offset
            // and length below lies between them, so none can overflow.
            let last = times(n - 1, ext)?;
            let lo = fits(disp.checked_add(child.0.true_lb))?;
            let hi = fits(fits(disp.checked_add(child.0.true_ub))?.checked_add(last))?;
            fits(hi.checked_sub(lo))?;
            match segs {
                // A dense child's copies abut: the run is one piece.
                [s] if s.len as i64 == ext => sink.push(disp + s.offset, n * s.len)?,
                _ => {
                    for i in 0..n {
                        for s in segs {
                            sink.push(disp + s.offset + i as i64 * ext, s.len)?;
                        }
                    }
                }
            }
        }
        Self::from_map(sink.finish(), resize)
    }

    fn from_map(segments: Vec<Segment>, resize: Option<(i64, i64)>) -> Result<Datatype> {
        let mut starts = Vec::with_capacity(segments.len());
        let mut size = 0usize;
        for s in &segments {
            // The cursor's closed-form seek needs `starts` strictly
            // increasing; `Sink::push` drops empty pieces.
            assert!(s.len > 0, "flattened segment of zero length");
            starts.push(size);
            size = fits(size.checked_add(s.len))?;
        }
        // "True" bounds: the lowest and highest byte touched.
        let true_lb = segments.iter().map(|s| s.offset).min().unwrap_or(0);
        let true_ub = segments.iter().map(Segment::end).max().unwrap_or(0);
        let (lb, extent) = match resize {
            Some(declared) => declared,
            None => (true_lb, fits(true_ub.checked_sub(true_lb))?),
        };
        Ok(Datatype(Arc::new(Inner {
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

/// `v`, or `Invalid` when the arithmetic that made it overflowed.
pub(crate) fn fits<T>(v: Option<T>) -> Result<T> {
    v.ok_or_else(overflow)
}

/// Out of line, so the checks inline into commit's per-run loop.
#[cold]
fn overflow() -> TypeError {
    TypeError::Invalid("a byte offset, extent or size overflows".into())
}

/// `i * by` in bytes, checked.
pub(crate) fn times(i: impl TryInto<i64>, by: i64) -> Result<i64> {
    fits(i.try_into().ok().and_then(|i: i64| i.checked_mul(by)))
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
        #[cfg(test)]
        tests::PUSHES.with(|p| p.set(p.get() + 1));
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

/// The segment cap `commit` enforces.
#[cfg(not(test))]
fn segment_limit() -> usize {
    MAX_SEGMENTS
}

/// Unit tests lower the cap to reach `TooManySegments` in a few segments.
#[cfg(test)]
fn segment_limit() -> usize {
    tests::LIMIT.with(std::cell::Cell::get)
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use proptest::prelude::*;

    use super::*;
    use crate::test_common::{arb_spec, build, oracle, Kind};

    thread_local! {
        pub(super) static LIMIT: Cell<usize> = const { Cell::new(MAX_SEGMENTS) };
        /// Calls to `Sink::push` on this thread: the work a commit does.
        pub(super) static PUSHES: Cell<usize> = const { Cell::new(0) };
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The lowering against the recursive flattener it replaced, on
        /// random trees of all nine constructors: zero counts and
        /// zero-length blocks, negative displacements and strides,
        /// overlapping blocks, resizes with a negative lb, the constructor
        /// errors, and `TooManySegments` under a small cap.
        #[test]
        fn commit_agrees_with_the_recursive_flattener(
            spec in arb_spec(),
            limit in prop_oneof![1usize..6, Just(MAX_SEGMENTS)],
        ) {
            let want = oracle(&spec, limit);
            LIMIT.set(limit);
            let got = build(&spec);
            LIMIT.set(MAX_SEGMENTS);
            match (got, want) {
                (Err(got), Err(want)) => prop_assert_eq!(got, want),
                (Ok(t), Ok(f)) => {
                    prop_assert_eq!(t.segments(), &f.segments[..]);
                    prop_assert_eq!((t.size(), t.lb(), t.extent()), (f.size, f.lb, f.extent));
                    for count in 1..=3 {
                        prop_assert_eq!(t.true_bounds(count), f.true_bounds(count));
                    }
                    prop_assert_eq!(t.is_contiguous(), f.is_contiguous());
                    let seg_sum: usize = t.segments().iter().map(|s| s.len).sum();
                    prop_assert_eq!(t.size(), seg_sum);
                    // Only a resize declares an extent other than the span.
                    if t.num_segments() > 0 && !matches!(*spec.0, Kind::Resized { .. }) {
                        let lo = t.segments().iter().map(|s| s.offset).min().unwrap();
                        let hi = t.segments().iter().map(Segment::end).max().unwrap();
                        prop_assert_eq!(t.extent(), hi - lo);
                    }
                }
                (got, want) => prop_assert!(false, "lowered {got:?}, oracle {want:?}"),
            }
        }
    }

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

    /// A start + subsize past `usize::MAX` is the dimension's own error,
    /// not an overflow panic (debug) or a later generic one (release).
    #[test]
    fn a_subarray_range_past_usize_names_its_dimension() {
        let d = Datatype::double();
        for (subsize, start) in [(usize::MAX, 2), (2, usize::MAX), (0, 5)] {
            let Err(TypeError::Invalid(msg)) = Datatype::subarray(&[4], &[subsize], &[start], &d)
            else {
                panic!("subsize {subsize} at {start} of 4 is refused");
            };
            assert!(msg.starts_with("subarray dim 0: "), "{msg}");
        }
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

    /// Sink pushes `build` makes.
    fn pushes(build: impl FnOnce() -> Result<Datatype>) -> usize {
        PUSHES.set(0);
        build().unwrap();
        PUSHES.get()
    }

    #[test]
    fn a_dense_childs_run_is_one_push_whatever_its_length() {
        let d = Datatype::double();
        // Dense, though not at offset 0: one segment as long as its extent.
        let shifted = Datatype::resized(-8, 8, &d).unwrap();
        for n in [1, 2, 1000, 1 << 20] {
            assert_eq!(pushes(|| Datatype::contiguous(n, &d)), 1);
            assert_eq!(pushes(|| Datatype::contiguous(n, &shifted)), 1);
            assert_eq!(pushes(|| Datatype::vector(7, n, -3, &d)), 7);
            let rows = || Datatype::subarray(&[4, 5, 2 * n], &[2, 3, n], &[1, 2, n], &d);
            assert_eq!(pushes(rows), 6);
        }
        // A child with a gap still costs one push per copy.
        let gappy = Datatype::resized(0, 16, &d).unwrap();
        assert_eq!(pushes(|| Datatype::contiguous(1000, &gappy)), 1000);
    }

    #[test]
    fn a_terabyte_of_bytes_commits_to_one_segment() {
        let t = Datatype::contiguous(1 << 40, &Datatype::byte()).unwrap();
        assert_eq!(
            t.segments(),
            [Segment {
                offset: 0,
                len: 1 << 40
            }]
        );
        assert_eq!((t.size(), t.extent()), (1 << 40, 1 << 40));
    }

    #[test]
    fn overflowing_offsets_are_invalid_not_wrapped() {
        let d = Datatype::double();
        let invalid = |r: Result<Datatype>| matches!(r, Err(TypeError::Invalid(_)));
        // Block 2 would sit at 2 * 2^63 - 16.
        assert!(invalid(Datatype::vector(3, 1, i64::MAX / 8, &d)));
        assert!(invalid(Datatype::hvector(4, 1, i64::MAX / 2, &d)));
        // 2^62 doubles are 2^65 bytes.
        assert!(invalid(Datatype::contiguous(usize::MAX / 4, &d)));
        // In range on its own, out of range at a displacement.
        let big = Datatype::contiguous(1 << 62, &Datatype::byte()).unwrap();
        assert!(invalid(Datatype::hindexed(&[(1 << 62, 1)], &big)));
        // The offsets fit, the span between them does not.
        assert!(invalid(Datatype::hindexed(
            &[(i64::MIN, 1), (i64::MAX - 8, 1)],
            &d
        )));
        // Overlapping copies whose sizes add past `usize`.
        assert!(invalid(Datatype::hvector(5, 1, 0, &big)));
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
