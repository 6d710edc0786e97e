//! Pack-pipeline observation: a per-block callback threaded through the
//! engines so callers can watch the pipeline work *as it executes*.
//!
//! [`OpCounts`](crate::OpCounts) aggregates a whole stream; a
//! [`PackObserver`] sees every pipeline block individually — the seek the
//! single-context engine paid to recover its lost context (the quadratic
//! signal of §3.1), the look-ahead window length, the sparse/dense verdict,
//! and the bytes shipped. The communication layer feeds these into metrics
//! histograms and the trace's datatype track; `examples/pack_profile.rs`
//! prints them directly to reproduce the paper's Figure 9-style contrast.
//!
//! Observation is allocation-free: [`PackEngine::next_block`] returns one
//! stack [`BlockObservation`] per produced block, and
//! [`PackEngine::pack_all`] forwards each to a [`PackObserver`]; the
//! [`NullObserver`] ignores them.
//!
//! [`PackEngine::next_block`]: crate::PackEngine::next_block
//! [`PackEngine::pack_all`]: crate::PackEngine::pack_all

use crate::engine::BlockMode;

/// Everything the engine knows about one pipeline block, before any cost
/// conversion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockObservation {
    /// 0-based index of the block within the message stream.
    pub index: u64,
    /// The density classifier's verdict for the look-ahead window.
    pub mode: BlockMode,
    /// Segments re-walked from the type root to recover a lost context
    /// (single-context sparse blocks only — the quadratic signal; always
    /// zero for the dual-context engine).
    pub seek_segments: u64,
    /// Packed-byte offset the re-search walked back to: the seek
    /// *distance* from the root. Zero when no seek happened.
    pub seek_target: u64,
    /// Segments visited by the look-ahead classification of this block.
    pub lookahead_segments: u64,
    /// Ordinal of the datatype segment the block's window began at
    /// (`replica * segments_per_replica + segment`).
    pub window_start_segment: u64,
    /// Bytes the block carried onto the wire.
    pub bytes: u64,
}

/// Receives one callback per pipeline block an engine produces.
pub trait PackObserver {
    fn on_block(&mut self, obs: &BlockObservation);
}

/// Ignores everything.
pub struct NullObserver;

impl PackObserver for NullObserver {
    fn on_block(&mut self, _obs: &BlockObservation) {}
}

/// Collects every observation in order (tests, examples, reports).
#[derive(Clone, Debug, Default)]
pub struct BlockLog {
    pub blocks: Vec<BlockObservation>,
}

impl BlockLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Total seek steps across all observed blocks.
    pub fn total_seek(&self) -> u64 {
        self.blocks.iter().map(|b| b.seek_segments).sum()
    }

    /// Total bytes across all observed blocks.
    pub fn total_bytes(&self) -> u64 {
        self.blocks.iter().map(|b| b.bytes).sum()
    }

    /// Mean seek steps per block (0 on an empty log).
    pub fn seek_per_block(&self) -> f64 {
        if self.blocks.is_empty() {
            0.0
        } else {
            self.total_seek() as f64 / self.blocks.len() as f64
        }
    }

    /// Number of blocks classified sparse (packed through a buffer).
    pub fn sparse_blocks(&self) -> u64 {
        self.blocks
            .iter()
            .filter(|b| b.mode == BlockMode::Packed)
            .count() as u64
    }

    /// Number of blocks classified dense (shipped directly).
    pub fn dense_blocks(&self) -> u64 {
        self.blocks
            .iter()
            .filter(|b| b.mode == BlockMode::Direct)
            .count() as u64
    }
}

impl PackObserver for BlockLog {
    fn on_block(&mut self, obs: &BlockObservation) {
        self.blocks.push(*obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(index: u64, mode: BlockMode, seek: u64, bytes: u64) -> BlockObservation {
        BlockObservation {
            index,
            mode,
            seek_segments: seek,
            seek_target: seek * 24,
            lookahead_segments: 4,
            window_start_segment: index * 2,
            bytes,
        }
    }

    #[test]
    fn block_log_aggregates() {
        let mut log = BlockLog::new();
        log.on_block(&obs(0, BlockMode::Packed, 0, 48));
        log.on_block(&obs(1, BlockMode::Packed, 2, 48));
        log.on_block(&obs(2, BlockMode::Direct, 0, 96));
        assert_eq!(log.blocks.len(), 3);
        assert_eq!(log.total_seek(), 2);
        assert_eq!(log.total_bytes(), 192);
        assert_eq!(log.sparse_blocks(), 2);
        assert_eq!(log.dense_blocks(), 1);
        assert!((log.seek_per_block() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_log_is_all_zero() {
        let log = BlockLog::new();
        assert_eq!(log.total_seek(), 0);
        assert_eq!(log.total_bytes(), 0);
        assert_eq!(log.seek_per_block(), 0.0);
    }
}
