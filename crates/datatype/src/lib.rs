//! # ncd-datatype — MPI-style derived datatypes and pack engines
//!
//! This crate implements the noncontiguous-data half of the paper
//! *"Nonuniformly Communicating Noncontiguous Data: A Case Study with PETSc
//! and MPI"* (IPPS 2007):
//!
//! * [`Datatype`] — an MPI-style derived datatype *is* its committed type
//!   map: each of the nine constructors (contiguous, vector, hvector,
//!   indexed, hindexed, indexed-block, struct, subarray, resized) lowers to
//!   runs of a committed child, flattened by one commit into a coalesced
//!   segment list;
//! * [`TypeCursor`] — a *context*: a resumable position in the packed
//!   stream, with cheap snapshots and a *search* whose segment count is
//!   exact but computed in closed form;
//! * [`PackEngine`] — the pipelined pack engine, as
//!   [`EngineKind::SingleContext`] (the baseline that loses its context to
//!   look-ahead and is charged a quadratically growing re-search — the
//!   behaviour of MPICH2 the paper analyses in §3.1) or
//!   [`EngineKind::DualContext`] (the paper's §4.1 dual-context look-ahead
//!   design that eliminates the search entirely);
//! * [`Unpacker`] and whole-message [`pack_all`]/[`unpack_all`] helpers.
//!
//! Engines report [`OpCounts`] — the exact number of operations the
//! modelled engine executes, proven equal to an executed walk by property
//! test — which the `ncd-core` communication layer converts into simulated
//! time under its cost model. The host itself packs at the speed of a
//! hand-written copy loop; the quadratic exists on the simulated clock only.
//!
//! ```
//! use ncd_datatype::{matrix_column_type, pack_all, unpack_all};
//!
//! // One column of an 8x8 matrix of 3-double elements (paper Fig. 4-6).
//! let col = matrix_column_type(8, 8, 3).unwrap();
//! assert_eq!(col.num_segments(), 8);     // 8 pieces of 24 bytes
//! let matrix = vec![42u8; 8 * 8 * 24];
//! let packed = pack_all(&col, 1, &matrix).unwrap();
//! assert_eq!(packed.len(), col.size());
//! let mut out = vec![0u8; matrix.len()];
//! unpack_all(&col, 1, &mut out, &packed).unwrap();
//! ```

pub mod cursor;
pub mod desc;
pub mod engine;
pub mod error;
pub mod observe;
pub mod pack;

// The integration tests' oracles, compiled into the unit tests too: the
// commit proptest needs them and a segment cap only unit tests can lower.
#[cfg(test)]
extern crate self as ncd_datatype;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_common;

pub use cursor::{MemRange, TypeCursor};
pub use desc::{Datatype, Segment, StructField, MAX_SEGMENTS};
pub use engine::{BlockMode, EngineKind, EngineParams, OpCounts, PackEngine, Unpacker};
pub use error::{Result, TypeError};
pub use observe::{BlockLog, BlockObservation, NullObserver, PackObserver};
pub use pack::{
    hindexed_from_f64_indices, matrix_column_type, pack_all, pack_all_profiled, unpack_all,
};
