//! Datatype *contexts*: resumable positions inside a (type, count) stream.
//!
//! A [`TypeCursor`] is what the paper calls a **context** — a snapshot of
//! how far a derived datatype (replicated `count` times, as in an MPI send
//! with a count argument) has been processed, measured in *packed bytes*.
//! The cursor yields contiguous memory ranges in pack order, can *look
//! ahead* without committing, can be cheaply cloned (a snapshot — this is
//! what makes the dual-context design O(1)), and can be *searched*: reset
//! to the beginning and moved to a target packed offset, reporting the
//! segments a walk from the start visits on the way. That walk is the
//! baseline engine's recovery path, whose cost grows linearly per block and
//! therefore quadratically per message — on the *simulated* machine. The
//! host does not re-enact it: the landing position and the visited count
//! are computed in closed form from the type's prefix sums (replica by
//! division, segment by binary search), and a property test proves both
//! equal to the executed segment-by-segment walk.

use crate::desc::Datatype;
use crate::error::{Result, TypeError};

/// A contiguous range of user-buffer memory produced by cursor traversal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemRange {
    /// Byte offset from the start of the user buffer.
    pub offset: i64,
    /// Length in bytes.
    pub len: usize,
}

/// A resumable position within `count` replicas of a datatype.
#[derive(Clone, Debug)]
pub struct TypeCursor {
    dt: Datatype,
    count: usize,
    /// Which replica we are in.
    rep: usize,
    /// Which segment of the replica.
    seg: usize,
    /// Byte offset within that segment.
    seg_off: usize,
    /// Total packed bytes already consumed.
    packed: usize,
}

impl TypeCursor {
    pub fn new(dt: &Datatype, count: usize) -> Self {
        TypeCursor {
            dt: dt.clone(),
            count,
            rep: 0,
            seg: 0,
            seg_off: 0,
            packed: 0,
        }
    }

    /// Total packed bytes the full (type, count) stream contains.
    pub fn total_bytes(&self) -> usize {
        self.dt.size() * self.count
    }

    /// Packed bytes consumed so far — the cursor's position.
    pub fn packed_offset(&self) -> usize {
        self.packed
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.total_bytes() - self.packed
    }

    pub fn is_done(&self) -> bool {
        self.packed >= self.total_bytes()
    }

    pub fn datatype(&self) -> &Datatype {
        &self.dt
    }

    /// Check that a buffer of `buf_len` bytes holds every byte the whole
    /// (type, count) stream touches — once per message, so the copy loops
    /// behind [`TypeCursor::consume`] need no per-piece check and a short
    /// buffer is reported before anything was copied or charged. Replicas
    /// that overlap keep the bounds small however long the stream is, so a
    /// stream longer than `usize` bytes is then [`TypeError::Invalid`]
    /// rather than a wrapped length.
    pub(crate) fn check_fits(&self, buf_len: usize) -> Result<()> {
        let (lb, ub) = self.dt.true_bounds(self.count);
        if lb < 0 || ub > buf_len as i64 {
            return Err(TypeError::OutOfBounds {
                offset: lb,
                len: ub.abs_diff(lb) as usize,
                buf_len,
            });
        }
        if self.dt.size().checked_mul(self.count).is_none() {
            return Err(TypeError::Invalid(format!(
                "{} instances of a {}-byte type overflow usize",
                self.count,
                self.dt.size()
            )));
        }
        Ok(())
    }

    /// Consume and return the next contiguous range, limited to `max_len`
    /// bytes. Returns `None` when the stream is exhausted.
    pub fn next_range(&mut self, max_len: usize) -> Option<MemRange> {
        if max_len == 0 || self.is_done() {
            return None;
        }
        let seg = self.dt.segments()[self.seg];
        let range = MemRange {
            offset: self.rep as i64 * self.dt.extent() + seg.offset + self.seg_off as i64,
            len: (seg.len - self.seg_off).min(max_len),
        };
        self.seg_off += range.len;
        self.packed += range.len;
        if self.seg_off == seg.len {
            self.seg_off = 0;
            self.seg += 1;
            if self.seg == self.dt.num_segments() {
                self.seg = 0;
                self.rep += 1;
            }
        }
        Some(range)
    }

    /// Consume up to `limit` packed bytes, handing each contiguous piece to
    /// `piece(buffer offset, len)` in pack order, and return the number of
    /// pieces. Runs of whole segments inside a replica go through one tight
    /// loop with the replica's base offset hoisted. Offsets are handed out
    /// as `usize`: the caller has passed [`TypeCursor::check_fits`] for the
    /// buffer it indexes.
    pub(crate) fn consume(&mut self, limit: usize, mut piece: impl FnMut(usize, usize)) -> u64 {
        let mut left = limit.min(self.remaining());
        self.packed += left;
        let (segs, extent) = (self.dt.segments(), self.dt.extent());
        let mut pieces = 0u64;
        while left > 0 {
            let base = self.rep as i64 * extent;
            let head = segs[self.seg];
            if self.seg_off > 0 || head.len > left {
                // A segment entered or left part-way.
                let take = (head.len - self.seg_off).min(left);
                piece((base + head.offset) as usize + self.seg_off, take);
                pieces += 1;
                left -= take;
                self.seg_off += take;
                if self.seg_off == head.len {
                    self.seg_off = 0;
                    self.seg += 1;
                }
            } else {
                // A run of whole segments inside this replica.
                let mut n = 0;
                for s in &segs[self.seg..] {
                    if s.len > left {
                        break;
                    }
                    piece((base + s.offset) as usize, s.len);
                    left -= s.len;
                    n += 1;
                }
                pieces += n as u64;
                self.seg += n;
            }
            if self.seg == segs.len() {
                self.seg = 0;
                self.rep += 1;
            }
        }
        pieces
    }

    /// Look ahead over up to `max_segments` upcoming ranges and at most
    /// `max_bytes`, without moving the cursor. Returns the number of
    /// *segments visited* (the signature-parse work a look-ahead pays for)
    /// and the bytes they cover — all a density classifier needs.
    pub fn lookahead(&self, max_segments: usize, max_bytes: usize) -> (u64, usize) {
        let limit = max_bytes.min(self.remaining());
        let segs = self.dt.segments();
        let (mut seg, mut seg_off) = (self.seg, self.seg_off);
        let (mut visited, mut bytes) = (0usize, 0usize);
        while visited < max_segments && bytes < limit {
            bytes += (segs[seg].len - seg_off).min(limit - bytes);
            visited += 1;
            // Only lengths matter here, so the next replica is a wrap.
            seg_off = 0;
            seg = (seg + 1) % segs.len();
        }
        (visited as u64, bytes)
    }

    /// Ordinal of the segment the cursor currently sits in, counted across
    /// replicas (`replica * segments_per_replica + segment`). Observability
    /// uses this to label where a pipeline block's window began.
    pub fn segment_ordinal(&self) -> u64 {
        (self.rep * self.dt.num_segments() + self.seg) as u64
    }

    /// Byte offset of the cursor inside the segment it sits in.
    pub fn segment_offset(&self) -> usize {
        self.seg_off
    }

    /// Rewind to the beginning of the stream.
    pub fn rewind(&mut self) {
        self.rep = 0;
        self.seg = 0;
        self.seg_off = 0;
        self.packed = 0;
    }

    /// Move forward to `target` packed bytes and return the number of
    /// segments a walk from the current position visits on the way (a
    /// segment entered part-way or left part-way counts once). Only the
    /// signature is involved (no data is touched); the count is what a cost
    /// model charges per visited segment.
    ///
    /// O(log segments): the replica is `target / size`, the segment is found
    /// by binary search over the type's prefix sums, and the visited count
    /// is the difference of segment ordinals.
    ///
    /// Panics if `target` is behind the current position or beyond the end.
    pub fn advance_to(&mut self, target: usize) -> u64 {
        assert!(
            target >= self.packed,
            "advance_to goes forward only ({} -> {target})",
            self.packed
        );
        assert!(target <= self.total_bytes(), "target beyond stream end");
        if target == self.packed {
            return 0;
        }
        let from = self.segment_ordinal();
        let within = target % self.dt.size();
        let starts = self.dt.segment_starts();
        self.rep = target / self.dt.size();
        self.seg = starts.partition_point(|&s| s <= within) - 1;
        self.seg_off = within - starts[self.seg];
        self.packed = target;
        self.segment_ordinal() + u64::from(self.seg_off > 0) - from
    }

    /// The baseline engine's recovery path: rewind and re-search the whole
    /// datatype from the start until `target` packed bytes. Returns segments
    /// visited — a cost that grows linearly with `target`, computed (not
    /// paid) by the host.
    pub fn search_from_start(&mut self, target: usize) -> u64 {
        self.rewind();
        self.advance_to(target)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::test_common::{arb_spec, build, position};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// `advance_to(p + k)` is the closed form of the walk `consume(k, …)`
        /// does from `p`: it lands where the walk lands and counts the pieces
        /// the walk hands out. Random trees of all nine constructors, often
        /// resized (extents below the span interleave the replicas), from
        /// any position (part-way into a segment too), across replica wraps
        /// and with limits past the end.
        #[test]
        fn advance_to_counts_the_pieces_consume_hands_out(
            spec in arb_spec(),
            (resize, lb, extent) in (any::<bool>(), -8i64..8, 0i64..40),
            count in 1usize..5,
            at in 0usize..4096,
            limit in 0usize..400,
        ) {
            let Ok(mut dt) = build(&spec) else { return Ok(()) };
            if resize {
                dt = Datatype::resized(lb, extent, &dt).expect("resized");
            }
            let mut walked = TypeCursor::new(&dt, count);
            // `consume` hands out offsets into a buffer the type fits.
            if walked.check_fits(i64::MAX as usize).is_err() {
                return Ok(());
            }
            walked.consume(at % (walked.total_bytes() + 1), |_, _| {});
            let mut closed = walked.clone();
            let pieces = walked.consume(limit, |_, _| {});
            let target = closed.packed_offset() + limit.min(closed.remaining());
            prop_assert_eq!(closed.advance_to(target), pieces);
            prop_assert_eq!(position(&closed), position(&walked));
        }
    }

    fn column_type() -> Datatype {
        // 8 elements of 24 bytes, stride 8 elements (one matrix column).
        let elem = Datatype::contiguous(3, &Datatype::double()).unwrap();
        Datatype::vector(8, 1, 8, &elem).unwrap()
    }

    #[test]
    fn walks_all_bytes_in_order() {
        let col = column_type();
        let mut c = TypeCursor::new(&col, 1);
        assert_eq!(c.total_bytes(), 192);
        let mut seen = 0;
        let mut last_end = i64::MIN;
        while let Some(r) = c.next_range(usize::MAX) {
            assert!(r.offset >= last_end);
            last_end = r.offset + r.len as i64;
            seen += r.len;
        }
        assert_eq!(seen, 192);
        assert!(c.is_done());
        assert_eq!(c.next_range(100), None);
    }

    #[test]
    fn max_len_splits_segments() {
        let col = column_type();
        let mut c = TypeCursor::new(&col, 1);
        let r1 = c.next_range(10).unwrap();
        assert_eq!((r1.offset, r1.len), (0, 10));
        let r2 = c.next_range(10).unwrap();
        assert_eq!((r2.offset, r2.len), (10, 10));
        let r3 = c.next_range(10).unwrap();
        assert_eq!((r3.offset, r3.len), (20, 4)); // finishes the 24-byte segment
        let r4 = c.next_range(10).unwrap();
        assert_eq!(r4.offset, 8 * 24); // next block of the vector
        assert_eq!(c.packed_offset(), 34);
    }

    #[test]
    fn replicas_shift_by_extent() {
        let elem = Datatype::contiguous(3, &Datatype::double()).unwrap();
        let col = Datatype::vector(8, 1, 8, &elem).unwrap();
        let col_r = Datatype::resized(0, 24, &col).unwrap();
        let mut c = TypeCursor::new(&col_r, 3);
        assert_eq!(c.total_bytes(), 3 * 192);
        // Skip the first replica (8 segments).
        for _ in 0..8 {
            c.next_range(usize::MAX).unwrap();
        }
        let r = c.next_range(usize::MAX).unwrap();
        // Second replica starts one element (24 bytes) over.
        assert_eq!(r.offset, 24);
    }

    #[test]
    fn lookahead_does_not_advance() {
        let col = column_type();
        let mut c = TypeCursor::new(&col, 2);
        assert_eq!(c.lookahead(3, usize::MAX), (3, 72));
        assert_eq!(c.packed_offset(), 0);
        // 24 + 24 + 2 bytes = 50 -> 3 ranges, last truncated
        assert_eq!(c.lookahead(100, 50), (3, 50));
        // From inside a segment, across the replica boundary, to the end.
        c.advance_to(7 * 24 + 4);
        assert_eq!(c.lookahead(3, usize::MAX), (3, 20 + 24 + 24));
        assert_eq!(c.lookahead(100, usize::MAX), (9, 20 + 8 * 24));
        assert_eq!(c.lookahead(0, usize::MAX), (0, 0));
    }

    #[test]
    fn consume_yields_the_ranges_next_range_yields() {
        let col = Datatype::resized(0, 24, &column_type()).unwrap();
        for limit in [1usize, 10, 24, 25, 100, 192, 200, 1000] {
            let mut by_range = TypeCursor::new(&col, 3);
            let mut by_run = by_range.clone();
            while !by_range.is_done() {
                let mut want = Vec::new();
                let mut left = limit;
                while let Some(r) = by_range.next_range(left) {
                    left -= r.len;
                    want.push((r.offset as usize, r.len));
                }
                let mut got = Vec::new();
                let pieces = by_run.consume(limit, |at, len| got.push((at, len)));
                assert_eq!(got, want, "limit {limit}");
                assert_eq!(pieces as usize, want.len());
                assert_eq!(by_run.packed_offset(), by_range.packed_offset());
                assert_eq!(by_run.segment_ordinal(), by_range.segment_ordinal());
                assert_eq!(by_run.segment_offset(), by_range.segment_offset());
            }
            assert_eq!(by_run.consume(limit, |_, _| unreachable!()), 0);
        }
    }

    #[test]
    fn check_fits_uses_the_extremes_of_first_and_last_replica() {
        let col = Datatype::resized(0, 24, &column_type()).unwrap();
        // 8 columns of an 8x8 matrix of 24-byte elements: the whole matrix.
        let c = TypeCursor::new(&col, 8);
        assert_eq!(col.true_bounds(8), (0, 8 * 8 * 24));
        assert!(c.check_fits(8 * 8 * 24).is_ok());
        assert_eq!(
            c.check_fits(8 * 8 * 24 - 1),
            Err(TypeError::OutOfBounds {
                offset: 0,
                len: 8 * 8 * 24,
                buf_len: 8 * 8 * 24 - 1,
            })
        );
        // A type whose first byte lies before the buffer start.
        let before = Datatype::hindexed(&[(-8, 1), (16, 1)], &Datatype::double()).unwrap();
        assert_eq!(before.true_bounds(2), (-8, 24 + 32));
        assert!(TypeCursor::new(&before, 2).check_fits(1 << 20).is_err());
        // Nothing touched, nothing to check.
        assert_eq!(col.true_bounds(0), (0, 0));
        assert!(TypeCursor::new(&col, 0).check_fits(0).is_ok());
    }

    /// A (type, count) stream longer than `i64` bytes fits no buffer: its
    /// bound does not wrap to something small, in any build profile.
    #[test]
    fn a_span_past_i64_fits_no_buffer() {
        let t = Datatype::contiguous(4, &Datatype::double()).unwrap();
        let count = usize::MAX / 2;
        assert_eq!(t.true_bounds(count), (0, i64::MAX));
        let err = TypeCursor::new(&t, count).check_fits(1 << 20).unwrap_err();
        let want = TypeError::OutOfBounds {
            offset: 0,
            len: i64::MAX as usize,
            buf_len: 1 << 20,
        };
        assert_eq!(err, want);
        assert!(err.to_string().contains("outside buffer of 1048576 bytes"));
        // Below the edge the bound is exact.
        let edge = (i64::MAX / 32) as usize;
        assert_eq!(t.true_bounds(edge), (0, 32 * edge as i64));
        assert_eq!(t.true_bounds(edge + 1), (0, i64::MAX));
    }

    /// Replicas of a zero-extent double all land on the same 8 bytes, so
    /// `usize::MAX / 4 + 1` of them fit an 8-byte buffer while their 2^65
    /// packed bytes wrap to 8: the engine refuses before packing anything.
    #[test]
    fn a_stream_past_usize_is_refused_whatever_its_bounds() {
        let t = Datatype::resized(0, 0, &Datatype::double()).unwrap();
        let count = usize::MAX / 4 + 1;
        assert_eq!(t.true_bounds(count), (0, 8));
        let got = crate::pack_all_profiled(
            crate::EngineKind::DualContext,
            &t,
            count,
            crate::EngineParams::default(),
            &[0u8; 8],
            &mut crate::NullObserver,
        );
        let msg = format!("{count} instances of a 8-byte type overflow usize");
        assert_eq!(got.unwrap_err(), TypeError::Invalid(msg));
        let mut dst = [0u8; 8];
        let got = crate::unpack_all(&t, count, &mut dst, &[1u8; 8]);
        assert!(matches!(got, Err(TypeError::Invalid(_))), "{got:?}");
        assert_eq!(dst, [0u8; 8], "nothing written");
    }

    #[test]
    fn advance_to_counts_segments() {
        let col = column_type();
        let mut c = TypeCursor::new(&col, 1);
        // 100 bytes = 4 segments of 24 plus 4 bytes into the 5th.
        let visited = c.advance_to(100);
        assert_eq!(visited, 5);
        assert_eq!(c.packed_offset(), 100);
        // Continue to the end.
        let v2 = c.advance_to(192);
        assert_eq!(v2, 4); // finish seg 5 + segs 6,7,8
        assert!(c.is_done());
    }

    #[test]
    fn search_from_start_cost_grows_with_target() {
        let col = column_type();
        let mut c = TypeCursor::new(&col, 4);
        let v1 = c.search_from_start(48);
        let v2 = c.search_from_start(480);
        assert!(v2 > v1);
        assert_eq!(c.packed_offset(), 480);
        // Searching to the very end visits all 32 segments.
        assert_eq!(c.search_from_start(4 * 192), 32);
    }

    #[test]
    fn advance_to_zero_visits_nothing() {
        let col = column_type();
        let mut c = TypeCursor::new(&col, 1);
        assert_eq!(c.advance_to(0), 0);
        assert_eq!(c.packed_offset(), 0);
        // Nor does staying put inside a segment.
        c.advance_to(30);
        assert_eq!(c.advance_to(30), 0);
    }

    #[test]
    fn advance_to_counts_partial_segments_once() {
        let col = column_type();
        let mut c = TypeCursor::new(&col, 2);
        assert_eq!(c.advance_to(10), 1); // into segment 0
        assert_eq!(c.advance_to(20), 1); // still segment 0
        assert_eq!(c.advance_to(24), 1); // finishes segment 0
        assert_eq!(c.advance_to(48), 1); // boundary to boundary
        assert_eq!(c.advance_to(192 + 1), 7); // 6 whole + 1 byte of replica 1
        assert_eq!((c.segment_ordinal(), c.segment_offset()), (8, 1));
        assert_eq!(c.advance_to(2 * 192), 8);
        assert!(c.is_done());
        assert_eq!((c.segment_ordinal(), c.segment_offset()), (16, 0));
    }

    #[test]
    #[should_panic(expected = "forward only")]
    fn advance_backwards_panics() {
        let col = column_type();
        let mut c = TypeCursor::new(&col, 1);
        c.advance_to(50);
        c.advance_to(10);
    }

    #[test]
    fn empty_type_is_immediately_done() {
        let t = Datatype::contiguous(0, &Datatype::double()).unwrap();
        let mut c = TypeCursor::new(&t, 5);
        assert!(c.is_done());
        assert_eq!(c.next_range(usize::MAX), None);
        assert_eq!(c.total_bytes(), 0);
    }

    #[test]
    fn clone_is_independent_snapshot() {
        let col = column_type();
        let mut a = TypeCursor::new(&col, 1);
        a.advance_to(30);
        let b = a.clone();
        a.advance_to(100);
        assert_eq!(b.packed_offset(), 30);
        assert_eq!(a.packed_offset(), 100);
    }
}
