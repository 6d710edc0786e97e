//! The pipelined pack engine, in its two context-management personalities:
//! the baseline single-context design and the paper's dual-context
//! look-ahead design (§4.1).
//!
//! The engine produces the message byte stream in pipeline *blocks*. Before
//! each block it **looks ahead** over the upcoming portion of the datatype
//! signature to classify it as *dense* (long contiguous pieces — ship the
//! pieces directly, `writev`-style, without an intermediate copy) or
//! *sparse* (many short pieces — pack them into an intermediate buffer
//! first). The two [`EngineKind`]s differ purely in context management:
//!
//! * [`EngineKind::SingleContext`] models MPICH2-at-the-time: there is
//!   **one** context, and the look-ahead advances it. In the dense case that
//!   is harmless (the look-ahead doubles as the iovec walk). In the sparse
//!   case the data must be packed *from the pre-look-ahead position*, which
//!   the single context no longer holds — so the engine **re-searches the
//!   datatype from the very beginning** to recover it. The search work per
//!   block grows linearly with the position, hence quadratically over the
//!   message. This is the pathology of Figures 12–13.
//!
//! * [`EngineKind::DualContext`] is the paper's fix: a look-ahead context
//!   parses the upcoming signature while a separate pack context stays at
//!   the pack position. The look-ahead work is bounded by a small window (15
//!   segments, the constant the paper reports), so it is near-constant per
//!   block and no search is ever performed.
//!
//! The engine reports [`OpCounts`], which the communication layer converts
//! into simulated time. The counts are *exact* — the number of operations
//! the modelled engine executes — but the host does not pay the simulated
//! machine's quadratic to obtain them: the re-search count comes from
//! [`TypeCursor::search_from_start`]'s closed form (proven equal to the
//! executed walk by `tests/prop_datatype.rs`), and both personalities share
//! one block routine that copies straight into the payload the engine owns
//! at the speed of a hand-written loop — or, where the replicas of a message
//! interleave in memory, faster than the pack-order loop: such messages are
//! gathered a tile of replicas at a time straight into the payload
//! (`TileGather`), in one pass, and their blocks count their pieces with
//! [`TypeCursor::advance_to`]'s closed form instead of walking them.

use crate::cursor::TypeCursor;
use crate::desc::Datatype;
use crate::error::{Result, TypeError};
use crate::observe::{BlockObservation, PackObserver};

/// Tunables of the pipeline and density classifier.
#[derive(Clone, Copy, Debug)]
pub struct EngineParams {
    /// Pipeline granularity: maximum packed bytes per block.
    pub block_size: usize,
    /// Look-ahead window in segments (the paper uses ~15 elements).
    pub lookahead_segments: usize,
    /// A look-ahead window whose average contiguous piece is at least this
    /// many bytes is classified *dense* (sent without an intermediate copy).
    pub dense_threshold: usize,
}

impl Default for EngineParams {
    fn default() -> Self {
        EngineParams {
            block_size: 64 * 1024,
            lookahead_segments: 15,
            dense_threshold: 512,
        }
    }
}

/// Operation counters for one pack (or unpack) stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Segments walked while re-searching a lost context (baseline only).
    pub searched_segments: u64,
    /// Segments walked by look-ahead classification (signature only).
    pub lookahead_segments: u64,
    /// Segments copied through an intermediate buffer.
    pub packed_segments: u64,
    /// Bytes copied through an intermediate buffer.
    pub packed_bytes: u64,
    /// Segments shipped directly (gather/writev path, no copy).
    pub direct_segments: u64,
    /// Bytes shipped directly.
    pub direct_bytes: u64,
    /// Pipeline blocks that went through the intermediate-copy path.
    pub packed_blocks: u64,
    /// Pipeline blocks shipped directly from user memory.
    pub direct_blocks: u64,
}

impl OpCounts {
    pub fn merge(&mut self, o: &OpCounts) {
        self.searched_segments += o.searched_segments;
        self.lookahead_segments += o.lookahead_segments;
        self.packed_segments += o.packed_segments;
        self.packed_bytes += o.packed_bytes;
        self.direct_segments += o.direct_segments;
        self.direct_bytes += o.direct_bytes;
        self.packed_blocks += o.packed_blocks;
        self.direct_blocks += o.direct_blocks;
    }

    pub fn total_bytes(&self) -> u64 {
        self.packed_bytes + self.direct_bytes
    }
}

/// How a block left the sender.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockMode {
    /// Copied into an intermediate buffer before hitting the wire.
    Packed,
    /// Gathered directly from user memory (writev-style).
    Direct,
}

/// Which context management the engine models — the "MVAPICH2-0.9.5" vs
/// "MVAPICH2-New" switch of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// The faithful baseline: one context, look-ahead steals it, sparse
    /// blocks trigger a re-search from the start of the datatype.
    SingleContext,
    /// The paper's dual-context look-ahead: a look-ahead context classifies
    /// while a separate pack context keeps the pack position; no search,
    /// ever.
    DualContext,
}

impl EngineKind {
    /// Engine name for reports.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::SingleContext => "single-context",
            EngineKind::DualContext => "dual-context",
        }
    }
}

/// A pipelined pack engine over `count` replicas of a datatype laid out in
/// one source buffer, packing into a payload of its own.
pub struct PackEngine<'a> {
    kind: EngineKind,
    /// The pack position. Look-ahead reads past it without moving it; what
    /// the single-context personality adds is the *count* of the re-search
    /// its one, moved context would need to get back here.
    cursor: TypeCursor,
    params: EngineParams,
    src: &'a [u8],
    block_index: u64,
    /// The message, allocated once at its size. Its first
    /// `cursor.packed_offset()` bytes are what the blocks so far produced;
    /// a tiled gather may have written further, up to its tile's end.
    payload: Vec<u8>,
    /// `Some` when the message's replicas interleave in memory: the host
    /// copy then runs a tile of replicas at a time (see [`TileGather`]).
    tiles: Option<TileGather>,
}

impl<'a> PackEngine<'a> {
    /// Fails with [`TypeError::OutOfBounds`] — before any byte is copied —
    /// unless `src` holds every byte `count` instances of `dt` touch. The
    /// payload is allocated here, once, at the message's size.
    pub fn new(
        kind: EngineKind,
        dt: &Datatype,
        count: usize,
        params: EngineParams,
        src: &'a [u8],
    ) -> Result<Self> {
        assert!(
            params.block_size > 0 && params.lookahead_segments > 0,
            "a pipeline needs a block size and a look-ahead window"
        );
        let cursor = TypeCursor::new(dt, count);
        cursor.check_fits(src.len())?;
        Ok(PackEngine {
            kind,
            params,
            src,
            block_index: 0,
            payload: Vec::with_capacity(cursor.total_bytes()),
            tiles: TileGather::worthwhile(dt, count).then_some(TileGather { count }),
            cursor,
        })
    }

    /// Produce the next pipeline block into the payload (it ends
    /// [`PackEngine::packed`]) and add its operations to `counts`; `None`
    /// when the message is complete.
    pub fn next_block(&mut self, counts: &mut OpCounts) -> Option<BlockObservation> {
        if self.cursor.is_done() {
            return None;
        }
        let EngineParams {
            block_size,
            lookahead_segments,
            dense_threshold,
        } = self.params;
        let start = self.cursor.packed_offset();
        let window_start_segment = self.cursor.segment_ordinal();

        // Look-ahead over the signature only, bounded by the window, hence
        // near-constant per block. Dense iff the average piece clears the
        // threshold.
        let (window_segments, window_bytes) = self.cursor.lookahead(lookahead_segments, block_size);
        counts.lookahead_segments += window_segments;
        let mode = if window_bytes / window_segments as usize >= dense_threshold {
            BlockMode::Direct
        } else {
            BlockMode::Packed
        };

        // Dense: the window is the iovec, shipped as it stands. Sparse: a
        // full pipeline block is packed from the pre-look-ahead position —
        // which a single context has moved past, so it first re-searches
        // the datatype from the beginning: the quadratic pathology.
        let limit = match mode {
            BlockMode::Direct => window_bytes,
            BlockMode::Packed => block_size,
        };
        let lost_context = mode == BlockMode::Packed && self.kind == EngineKind::SingleContext;
        let seek_segments = if lost_context {
            self.cursor.search_from_start(start)
        } else {
            0
        };
        counts.searched_segments += seek_segments;

        let (src, payload) = (self.src, &mut self.payload);
        let segments = match &self.tiles {
            None => self.cursor.consume(limit, |at, len| {
                payload.extend_from_slice(&src[at..at + len]);
            }),
            Some(tiles) => {
                // The pieces are counted in closed form; the bytes are
                // already in the payload once the tiles they fall in are.
                let end = start + limit.min(self.cursor.remaining());
                tiles.fill(self.cursor.datatype(), src, payload, end);
                self.cursor.advance_to(end)
            }
        };
        let bytes = (self.cursor.packed_offset() - start) as u64;
        match mode {
            BlockMode::Direct => {
                counts.direct_segments += segments;
                counts.direct_bytes += bytes;
                counts.direct_blocks += 1;
            }
            BlockMode::Packed => {
                counts.packed_segments += segments;
                counts.packed_bytes += bytes;
                counts.packed_blocks += 1;
            }
        }
        let index = self.block_index;
        self.block_index += 1;
        Some(BlockObservation {
            index,
            mode,
            seek_segments,
            seek_target: if lost_context { start as u64 } else { 0 },
            lookahead_segments: window_segments,
            window_start_segment,
            bytes,
        })
    }

    /// The bytes the blocks so far produced, in pack order.
    pub fn packed(&self) -> &[u8] {
        &self.payload[..self.cursor.packed_offset()]
    }

    /// The produced bytes as an owned buffer: the whole message once
    /// [`PackEngine::next_block`] has returned `None`.
    pub fn into_payload(mut self) -> Vec<u8> {
        self.payload.truncate(self.cursor.packed_offset());
        self.payload
    }

    /// Drain the whole stream, reporting every block to `observer`, and
    /// return the message.
    pub fn pack_all(mut self, counts: &mut OpCounts, observer: &mut dyn PackObserver) -> Vec<u8> {
        while let Some(obs) = self.next_block(counts) {
            observer.on_block(&obs);
        }
        self.into_payload()
    }
}

/// Host-side copy order for messages whose replicas interleave in memory —
/// the columns of a row-major matrix, each a strided vector resized to an
/// extent of one element. In pack order every piece of such a message sits
/// on another page and cache line than the one before, and the line is
/// fetched again for the next column. Gathering [`TILE_REPLICAS`] replicas
/// per pass, segment by segment, reads each line once and writes the pieces
/// straight to their places in the payload; blocks only move the produced
/// mark past them. Only the order of the host's copies changes.
struct TileGather {
    count: usize,
}

/// Replicas per tile. A segment's pieces of a tile sit side by side in the
/// source (384 bytes for 24-byte elements, six whole cache lines), and each
/// goes to its own replica's place in the payload. Measured on the Figure 12
/// column type (`transpose_1k` and the `datatype.pack_*` probes, 1024 and
/// 512 rows of 24-byte elements, 2-vCPU Xeon): 8 packs no faster than a
/// two-pass gather of 8 through a stage, 16 and 32 alike and ≈ 20 % faster,
/// and 16 keeps columns of up to 2730 such rows under [`TILE_MAX_BYTES`].
const TILE_REPLICAS: usize = 16;

/// The tile that `resize` zero-fills in the payload must still be in cache
/// when the gather overwrites it.
const TILE_MAX_BYTES: usize = 1 << 20;

impl TileGather {
    /// Tiling pays when neighbouring replicas share cache lines that pack
    /// order would visit once per replica: pieces shorter than a line, and
    /// one replica spread over more memory than a tile of extents covers.
    fn worthwhile(dt: &Datatype, count: usize) -> bool {
        let (lb, ub) = dt.true_bounds(1);
        count >= TILE_REPLICAS
            && dt.extent() > 0
            && dt.avg_segment_len() < 64
            && ub - lb > TILE_REPLICAS as i64 * dt.extent()
            && dt.size() * TILE_REPLICAS <= TILE_MAX_BYTES
    }

    /// Gather tiles into `payload` until it holds the first `end` bytes of
    /// the packed stream. The payload always ends on a replica boundary.
    fn fill(&self, dt: &Datatype, src: &[u8], payload: &mut Vec<u8>, end: usize) {
        while payload.len() < end {
            self.gather(dt, src, payload);
        }
    }

    /// Append the next tile: for each segment, that segment of every replica.
    fn gather(&self, dt: &Datatype, src: &[u8], payload: &mut Vec<u8>) {
        let (size, extent) = (dt.size(), dt.extent() as usize);
        let first = payload.len() / size;
        let replicas = (self.count - first).min(TILE_REPLICAS);
        let base = payload.len();
        payload.resize(base + replicas * size, 0);
        let tile = &mut payload[base..];
        for (seg, &start) in dt.segments().iter().zip(dt.segment_starts()) {
            let from = (first as i64 * dt.extent() + seg.offset) as usize;
            // A constant length compiles to plain loads and stores, a
            // variable one to a `memcpy` call per piece.
            macro_rules! pieces {
                ($len:expr) => {
                    for r in 0..replicas {
                        let (to, at) = (r * size + start, from + r * extent);
                        tile[to..to + $len].copy_from_slice(&src[at..at + $len]);
                    }
                };
            }
            match seg.len {
                8 => pieces!(8),
                16 => pieces!(16),
                24 => pieces!(24),
                32 => pieces!(32),
                len => pieces!(len),
            }
        }
    }
}

/// Sequential unpacker for the receive side: writes an incoming byte stream
/// into the noncontiguous layout. Receiving needs no density decisions, so a
/// single forward-only context suffices and no search ever happens.
pub struct Unpacker {
    cursor: TypeCursor,
}

impl Unpacker {
    pub fn new(dt: &Datatype, count: usize) -> Self {
        Unpacker {
            cursor: TypeCursor::new(dt, count),
        }
    }

    /// Scatter `bytes` into `dst` at the current position, advancing it.
    /// Returns per-call op counts (unpack cost mirrors pack cost). Nothing
    /// is written unless the stream fits the type and the type fits `dst`.
    pub fn unpack(&mut self, dst: &mut [u8], bytes: &[u8]) -> Result<OpCounts> {
        self.cursor.check_fits(dst.len())?;
        if bytes.len() > self.cursor.remaining() {
            return Err(TypeError::StreamOverrun {
                extra: bytes.len() - self.cursor.remaining(),
            });
        }
        let mut rest = bytes;
        let segments = self.cursor.consume(bytes.len(), |at, len| {
            let (piece, tail) = rest.split_at(len);
            dst[at..at + len].copy_from_slice(piece);
            rest = tail;
        });
        Ok(OpCounts {
            packed_segments: segments,
            packed_bytes: bytes.len() as u64,
            ..OpCounts::default()
        })
    }

    pub fn is_done(&self) -> bool {
        self.cursor.is_done()
    }

    pub fn remaining(&self) -> usize {
        self.cursor.remaining()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::BlockLog;

    const KINDS: [EngineKind; 2] = [EngineKind::SingleContext, EngineKind::DualContext];

    fn pack(
        kind: EngineKind,
        dt: &Datatype,
        count: usize,
        params: EngineParams,
        src: &[u8],
    ) -> (Vec<u8>, OpCounts, BlockLog) {
        let mut counts = OpCounts::default();
        let mut log = BlockLog::new();
        let out = PackEngine::new(kind, dt, count, params, src)
            .expect("in bounds")
            .pack_all(&mut counts, &mut log);
        (out, counts, log)
    }

    /// 8x8 matrix of 3-double elements; the first-column datatype of the
    /// paper's Figures 4-6.
    fn matrix_and_column() -> (Vec<u8>, Datatype) {
        let mut m = vec![0u8; 8 * 8 * 24];
        for (i, b) in m.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let elem = Datatype::contiguous(3, &Datatype::double()).unwrap();
        let col = Datatype::vector(8, 1, 8, &elem).unwrap();
        (m, col)
    }

    fn naive_pack(src: &[u8], dt: &Datatype, count: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut c = TypeCursor::new(dt, count);
        while let Some(r) = c.next_range(usize::MAX) {
            out.extend_from_slice(&src[r.offset as usize..r.offset as usize + r.len]);
        }
        out
    }

    #[test]
    fn both_engines_produce_identical_streams() {
        let (m, col) = matrix_and_column();
        let expected = naive_pack(&m, &col, 1);
        for kind in KINDS {
            let (got, counts, _) = pack(kind, &col, 1, EngineParams::default(), &m);
            assert_eq!(got, expected, "{} diverged", kind.name());
            assert_eq!(counts.total_bytes() as usize, expected.len());
        }
    }

    #[test]
    fn sparse_type_single_context_searches_dual_does_not() {
        let (m, col) = matrix_and_column();
        // Small blocks to force several pipeline blocks over a sparse type.
        let params = EngineParams {
            block_size: 48,
            lookahead_segments: 4,
            dense_threshold: 512,
        };
        let (_, c1, _) = pack(EngineKind::SingleContext, &col, 1, params, &m);
        assert!(c1.searched_segments > 0, "baseline must re-search");

        let (_, c2, _) = pack(EngineKind::DualContext, &col, 1, params, &m);
        assert_eq!(c2.searched_segments, 0, "dual-context never searches");
        assert_eq!(c1.packed_bytes, c2.packed_bytes);
    }

    #[test]
    fn search_grows_quadratically_with_message() {
        // Column type replicated: searched segments should grow ~4x when
        // the message doubles (quadratic), for the single-context engine.
        let elem = Datatype::contiguous(3, &Datatype::double()).unwrap();
        let col = Datatype::vector(64, 1, 64, &elem).unwrap();
        let col_r = Datatype::resized(0, 24, &col).unwrap();
        let params = EngineParams {
            block_size: 256,
            lookahead_segments: 8,
            dense_threshold: 512,
        };
        let search_for = |count: usize| {
            let buf = vec![1u8; 64 * 64 * 24];
            pack(EngineKind::SingleContext, &col_r, count, params, &buf)
                .1
                .searched_segments
        };
        let s1 = search_for(16);
        let s2 = search_for(32);
        let ratio = s2 as f64 / s1 as f64;
        assert!(
            (3.0..5.0).contains(&ratio),
            "expected ~4x growth, got {ratio} ({s1} -> {s2})"
        );
    }

    #[test]
    fn dense_type_goes_direct_with_no_copy() {
        // Long contiguous runs: 4 KB rows with gaps.
        let row = Datatype::contiguous(512, &Datatype::double()).unwrap(); // 4096 B
        let t = Datatype::hvector(8, 1, 8192, &row).unwrap();
        let buf = vec![7u8; 8 * 8192];
        for kind in KINDS {
            let name = kind.name();
            let (out, c, _) = pack(kind, &t, 1, EngineParams::default(), &buf);
            assert_eq!(out.len(), 8 * 4096);
            assert_eq!(c.packed_bytes, 0, "{name}: dense must not copy");
            assert_eq!(c.direct_bytes, 8 * 4096);
            assert_eq!(c.searched_segments, 0, "{name}: dense never searches");
            assert!(c.direct_blocks > 0 && c.packed_blocks == 0);
        }
    }

    #[test]
    fn blocks_respect_pipeline_granularity() {
        let (m, col) = matrix_and_column();
        let params = EngineParams {
            block_size: 64,
            lookahead_segments: 15,
            dense_threshold: 512,
        };
        let mut e = PackEngine::new(EngineKind::DualContext, &col, 1, params, &m).unwrap();
        let mut counts = OpCounts::default();
        let mut blocks = Vec::new();
        while let Some(b) = e.next_block(&mut counts) {
            // Each block extends the produced bytes by exactly its own.
            assert!(b.bytes <= 64);
            blocks.push(b);
            assert_eq!(
                e.packed().len() as u64,
                blocks.iter().map(|b| b.bytes).sum::<u64>()
            );
        }
        assert_eq!(blocks.len(), 3); // 192 bytes / 64
        assert!(blocks.iter().all(|b| b.mode == BlockMode::Packed));
        assert_eq!(counts.packed_blocks, 3);
        assert_eq!(counts.direct_blocks, 0);
    }

    #[test]
    fn out_of_bounds_is_reported_before_anything_is_copied() {
        let (m, col) = matrix_and_column();
        // All 8 columns touch the whole matrix; one byte short must fail
        // up front for both engines and the unpacker, not mid-stream.
        let col_r = Datatype::resized(0, 24, &col).unwrap();
        let short = &m[..m.len() - 1];
        let want = TypeError::OutOfBounds {
            offset: 0,
            len: m.len(),
            buf_len: m.len() - 1,
        };
        for kind in KINDS {
            let e = PackEngine::new(kind, &col_r, 8, EngineParams::default(), short);
            assert_eq!(e.err(), Some(want.clone()), "{}", kind.name());
            assert!(PackEngine::new(kind, &col_r, 8, EngineParams::default(), &m).is_ok());
        }
        let packed = naive_pack(&m, &col_r, 8);
        let mut dst = vec![0u8; m.len() - 1];
        let mut u = Unpacker::new(&col_r, 8);
        assert_eq!(u.unpack(&mut dst, &packed[..48]), Err(want));
        assert!(dst.iter().all(|&b| b == 0), "nothing written");
        assert_eq!(u.remaining(), packed.len(), "nothing consumed");
    }

    #[test]
    fn negative_lower_bound_is_out_of_bounds_not_a_wild_index() {
        // A resized type whose data starts 8 bytes before the buffer.
        let inner = Datatype::hindexed(&[(-8, 1), (8, 1)], &Datatype::double()).unwrap();
        let t = Datatype::resized(-8, 32, &inner).unwrap();
        let mut buf = vec![0u8; 256];
        let want = TypeError::OutOfBounds {
            offset: -8,
            len: 24 + 32,
            buf_len: 256,
        };
        for kind in KINDS {
            let e = PackEngine::new(kind, &t, 2, EngineParams::default(), &buf);
            assert_eq!(e.err(), Some(want.clone()), "{}", kind.name());
        }
        let mut u = Unpacker::new(&t, 2);
        assert_eq!(u.unpack(&mut buf, &[1u8; 16]), Err(want));
    }

    #[test]
    fn unpack_reverses_pack() {
        let (m, col) = matrix_and_column();
        let (packed, ..) = pack(
            EngineKind::DualContext,
            &col,
            1,
            EngineParams::default(),
            &m,
        );

        let mut dst = vec![0u8; m.len()];
        let mut u = Unpacker::new(&col, 1);
        u.unpack(&mut dst, &packed).unwrap();
        assert!(u.is_done());

        // The column bytes of dst match m; everything else stayed zero.
        for s in col.segments() {
            assert_eq!(
                &dst[s.offset as usize..s.offset as usize + s.len],
                &m[s.offset as usize..s.offset as usize + s.len]
            );
        }
        let touched: usize = col.segments().iter().map(|s| s.len).sum();
        assert!(dst.iter().filter(|&&b| b != 0).count() <= touched);
    }

    #[test]
    fn unpack_in_pieces_matches_unpack_at_once() {
        let (m, col) = matrix_and_column();
        let packed = naive_pack(&m, &col, 1);

        let mut at_once = vec![0u8; m.len()];
        Unpacker::new(&col, 1)
            .unpack(&mut at_once, &packed)
            .unwrap();

        let mut pieces = vec![0u8; m.len()];
        let mut u = Unpacker::new(&col, 1);
        for chunk in packed.chunks(13) {
            u.unpack(&mut pieces, chunk).unwrap();
        }
        assert_eq!(at_once, pieces);
    }

    #[test]
    fn unpack_overrun_is_error() {
        let col = matrix_and_column().1;
        let mut dst = vec![0u8; 8 * 8 * 24];
        let mut u = Unpacker::new(&col, 1);
        let too_much = vec![0u8; col.size() + 1];
        assert!(matches!(
            u.unpack(&mut dst, &too_much),
            Err(TypeError::StreamOverrun { extra: 1 })
        ));
        assert!(dst.iter().all(|&b| b == 0), "nothing written");
    }

    #[test]
    fn lookahead_cost_is_bounded_per_block_for_dual() {
        let (m, col) = matrix_and_column();
        let params = EngineParams {
            block_size: 48,
            lookahead_segments: 4,
            dense_threshold: 512,
        };
        let (_, counts, log) = pack(EngineKind::DualContext, &col, 1, params, &m);
        assert!(counts.lookahead_segments <= log.blocks.len() as u64 * 4);
    }

    #[test]
    fn op_counts_merge_sums_every_field() {
        let a = OpCounts {
            searched_segments: 1,
            lookahead_segments: 2,
            packed_segments: 3,
            packed_bytes: 4,
            direct_segments: 5,
            direct_bytes: 6,
            packed_blocks: 7,
            direct_blocks: 8,
        };
        let b = OpCounts {
            searched_segments: 10,
            lookahead_segments: 20,
            packed_segments: 30,
            packed_bytes: 40,
            direct_segments: 50,
            direct_bytes: 60,
            packed_blocks: 70,
            direct_blocks: 80,
        };
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(
            merged,
            OpCounts {
                searched_segments: 11,
                lookahead_segments: 22,
                packed_segments: 33,
                packed_bytes: 44,
                direct_segments: 55,
                direct_bytes: 66,
                packed_blocks: 77,
                direct_blocks: 88,
            }
        );
        // Merging a default is the identity.
        let mut ident = a;
        ident.merge(&OpCounts::default());
        assert_eq!(ident, a);
    }

    #[test]
    fn op_counts_total_bytes_sums_both_paths() {
        let c = OpCounts {
            packed_bytes: 100,
            direct_bytes: 28,
            ..OpCounts::default()
        };
        assert_eq!(c.total_bytes(), 128);
        assert_eq!(OpCounts::default().total_bytes(), 0);
    }

    #[test]
    fn observer_sees_every_block_and_matches_counts() {
        let (m, col) = matrix_and_column();
        let params = EngineParams {
            block_size: 48,
            lookahead_segments: 4,
            dense_threshold: 512,
        };
        for kind in KINDS {
            let (_, counts, log) = pack(kind, &col, 1, params, &m);
            assert_eq!(
                log.blocks.len() as u64,
                counts.packed_blocks + counts.direct_blocks
            );
            // Indices are contiguous from zero, and aggregates line up with
            // the engine's own OpCounts.
            for (i, b) in log.blocks.iter().enumerate() {
                assert_eq!(b.index, i as u64);
            }
            assert_eq!(log.total_bytes(), counts.total_bytes());
            assert_eq!(log.total_seek(), counts.searched_segments);
            assert_eq!(
                log.blocks.iter().map(|b| b.lookahead_segments).sum::<u64>(),
                counts.lookahead_segments
            );
            assert_eq!(log.sparse_blocks(), counts.packed_blocks);
            assert_eq!(log.dense_blocks(), counts.direct_blocks);
        }
    }

    #[test]
    fn single_context_observer_reports_growing_seeks() {
        let (m, col) = matrix_and_column();
        let params = EngineParams {
            block_size: 48,
            lookahead_segments: 4,
            dense_threshold: 512,
        };
        let (_, _, log) = pack(EngineKind::SingleContext, &col, 1, params, &m);
        // Sparse stream: every block after the first seeks further back
        // (seek targets strictly increase with position).
        let targets: Vec<u64> = log.blocks.iter().map(|b| b.seek_target).collect();
        assert!(targets.windows(2).all(|w| w[0] < w[1]), "{targets:?}");
        assert!(log.blocks.last().unwrap().seek_segments >= log.blocks[0].seek_segments);

        // Dual-context on the same stream: zero seeks everywhere.
        let (_, _, dlog) = pack(EngineKind::DualContext, &col, 1, params, &m);
        assert!(dlog.blocks.iter().all(|b| b.seek_segments == 0));
    }

    #[test]
    fn empty_message_yields_no_blocks() {
        let t = Datatype::contiguous(0, &Datatype::double()).unwrap();
        for kind in KINDS {
            let mut e = PackEngine::new(kind, &t, 3, EngineParams::default(), &[]).unwrap();
            let mut c = OpCounts::default();
            assert!(e.next_block(&mut c).is_none());
            assert!(e.into_payload().is_empty());
            assert_eq!(c, OpCounts::default());
        }
    }
}
