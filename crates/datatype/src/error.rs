//! Error type for datatype construction and processing.

use std::fmt;

/// Errors produced while building or processing derived datatypes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// A constructor was given inconsistent arguments (message explains).
    Invalid(String),
    /// Committing the type would materialize more contiguous segments than
    /// the configured safety limit.
    TooManySegments { segments: usize, limit: usize },
    /// A pack/unpack touched memory outside the supplied buffer.
    OutOfBounds {
        offset: i64,
        len: usize,
        buf_len: usize,
    },
    /// The byte stream handed to an unpacker was longer than the receive
    /// type can absorb.
    StreamOverrun { extra: usize },
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::Invalid(msg) => write!(f, "invalid datatype: {msg}"),
            TypeError::TooManySegments { segments, limit } => write!(
                f,
                "datatype flattens to {segments} segments, exceeding the limit of {limit}"
            ),
            TypeError::OutOfBounds {
                offset,
                len,
                buf_len,
            } => write!(
                f,
                "datatype touches [{offset}, {}) outside buffer of {buf_len} bytes",
                offset.saturating_add_unsigned(*len as u64)
            ),
            TypeError::StreamOverrun { extra } => {
                write!(f, "unpack stream has {extra} bytes beyond the receive type")
            }
        }
    }
}

impl std::error::Error for TypeError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TypeError>;
