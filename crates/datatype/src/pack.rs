//! Whole-message pack/unpack conveniences (the non-pipelined
//! `MPI_Pack`/`MPI_Unpack` equivalents), plus helpers for building common
//! layouts used throughout the workspace.

use crate::cursor::TypeCursor;
use crate::desc::{times, Datatype};
use crate::engine::{EngineKind, EngineParams, OpCounts, PackEngine, Unpacker};
use crate::error::Result;
use crate::observe::PackObserver;

/// Pack `count` instances of `dt` from `src` into a fresh contiguous buffer.
pub fn pack_all(dt: &Datatype, count: usize, src: &[u8]) -> Result<Vec<u8>> {
    let mut cursor = TypeCursor::new(dt, count);
    cursor.check_fits(src.len())?;
    let mut out = Vec::with_capacity(cursor.total_bytes());
    cursor.consume(usize::MAX, |at, len| {
        out.extend_from_slice(&src[at..at + len]);
    });
    Ok(out)
}

/// Pack `count` instances of `dt` through a pipelined engine while an
/// observer watches every block — the profiling entry point behind
/// `examples/pack_profile.rs` and `datatype_report()`. Returns the packed
/// bytes and the engine's operation counts.
pub fn pack_all_profiled(
    kind: EngineKind,
    dt: &Datatype,
    count: usize,
    params: EngineParams,
    src: &[u8],
    observer: &mut dyn PackObserver,
) -> Result<(Vec<u8>, OpCounts)> {
    let mut counts = OpCounts::default();
    let bytes = PackEngine::new(kind, dt, count, params, src)?.pack_all(&mut counts, observer);
    Ok((bytes, counts))
}

/// Unpack a contiguous `bytes` stream into `count` instances of `dt` laid
/// out in `dst`. The stream may be shorter than the type (partial receive)
/// but not longer.
pub fn unpack_all(dt: &Datatype, count: usize, dst: &mut [u8], bytes: &[u8]) -> Result<()> {
    Unpacker::new(dt, count).unpack(dst, bytes)?;
    Ok(())
}

/// The paper's canonical noncontiguous example (Figures 4–6): the datatype
/// of one column of a `rows x cols` matrix whose elements are
/// `doubles_per_elem` doubles, stored row-major.
///
/// The returned type is resized to one element's extent so that `cols`
/// consecutive instances describe the whole matrix column-by-column — the
/// send side of the matrix-transpose benchmark (§5.2).
pub fn matrix_column_type(rows: usize, cols: usize, doubles_per_elem: usize) -> Result<Datatype> {
    let elem = Datatype::contiguous(doubles_per_elem, &Datatype::double())?;
    let col = Datatype::vector(rows, 1, cols as i64, &elem)?;
    Datatype::resized(0, elem.extent(), &col)
}

/// Build an hindexed datatype over `f64` slots from element indices — how
/// the PETSc layer converts an index list into a datatype. Each index is a
/// one-double run handed straight to the commit, whose sink coalesces runs
/// of consecutive indices into one segment.
pub fn hindexed_from_f64_indices(indices: &[usize]) -> Result<Datatype> {
    let double = Datatype::double();
    let runs = indices.iter().map(|&ix| Ok((times(ix, 8)?, 1, &double)));
    Datatype::commit(runs, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trip_on_matrix_column() {
        let (rows, cols, dpe) = (8, 8, 3);
        let n = rows * cols * dpe * 8;
        let src: Vec<u8> = (0..n).map(|i| (i % 249) as u8).collect();
        let dt = matrix_column_type(rows, cols, dpe).unwrap();
        // All `cols` columns = the whole matrix, transposed in pack order.
        let packed = pack_all(&dt, cols, &src).unwrap();
        assert_eq!(packed.len(), n);

        let mut dst = vec![0u8; n];
        unpack_all(&dt, cols, &mut dst, &packed).unwrap();
        assert_eq!(dst, src);
    }

    #[test]
    fn matrix_column_type_shape() {
        let dt = matrix_column_type(8, 8, 3).unwrap();
        assert_eq!(dt.size(), 8 * 24);
        assert_eq!(dt.extent(), 24);
        assert_eq!(dt.num_segments(), 8);
    }

    #[test]
    fn pack_all_out_of_bounds() {
        let dt = matrix_column_type(8, 8, 3).unwrap();
        assert!(pack_all(&dt, 8, &[0u8; 16]).is_err());
    }

    #[test]
    fn hindexed_from_indices_coalesces_runs() {
        let dt = hindexed_from_f64_indices(&[0, 1, 2, 5, 6, 10]).unwrap();
        assert_eq!(dt.num_segments(), 3);
        assert_eq!(dt.size(), 6 * 8);
        assert_eq!(dt.segments()[0].len, 24);
        assert_eq!(dt.segments()[1].offset, 40);
        assert_eq!(dt.segments()[2].offset, 80);
    }

    #[test]
    fn hindexed_from_indices_empty() {
        let dt = hindexed_from_f64_indices(&[]).unwrap();
        assert_eq!(dt.size(), 0);
        assert_eq!(dt.num_segments(), 0);
    }

    #[test]
    fn pack_all_profiled_matches_plain_pack() {
        use crate::observe::BlockLog;
        let dt = matrix_column_type(8, 8, 3).unwrap();
        let n = 8 * 8 * 24;
        let src: Vec<u8> = (0..n).map(|i| (i % 241) as u8).collect();
        let expected = pack_all(&dt, 8, &src).unwrap();
        for kind in [EngineKind::SingleContext, EngineKind::DualContext] {
            let mut log = BlockLog::new();
            let (bytes, counts) =
                pack_all_profiled(kind, &dt, 8, EngineParams::default(), &src, &mut log).unwrap();
            assert_eq!(bytes, expected);
            assert_eq!(log.total_bytes(), counts.total_bytes());
            assert!(!log.blocks.is_empty());
        }
    }

    #[test]
    fn partial_unpack_is_allowed() {
        let dt = matrix_column_type(4, 4, 1).unwrap();
        let src: Vec<u8> = (0..128).map(|i| i as u8).collect();
        let packed = pack_all(&dt, 1, &src).unwrap();
        let mut dst = vec![0u8; 128];
        // Only the first half of the stream.
        unpack_all(&dt, 1, &mut dst, &packed[..16]).unwrap();
        assert_eq!(&dst[0..8], &src[0..8]);
    }
}
