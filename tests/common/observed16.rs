//! The observer fixture `observe_export_pinned` pins and `observer_bill`
//! bills: a 16-rank run on the jittered testbed, eight auto-selected
//! `allgatherv`s whose outlier grows mid-run (decisions, rounds, a drift
//! in the history), a strided-type `alltoallw` (pack blocks) and one
//! column send (search time).

use nucomm::core::{Comm, MpiConfig, WPeer};
use nucomm::datatype::{matrix_column_type, Datatype};
use nucomm::simnet::{ClusterConfig, Rank, Tag};

pub const RANKS: usize = 16;

/// Doubles `src` sends `dst` through the strided type (zero included).
fn len(src: usize, dst: usize) -> usize {
    (src * 7 + dst * 13) % 20 * 10
}

/// The fixture's program: eight auto-selected `allgatherv`s whose outlier
/// grows mid-run, a strided-type `alltoallw` and one column send.
pub fn program(rank: &mut Rank) {
    const REGION: usize = 2 * 190;
    let mut comm = Comm::new(rank, MpiConfig::baseline());
    let me = comm.rank();
    for step in 0..8 {
        let mut counts = vec![64usize; RANKS];
        counts[3] = if step < 5 { 40 * 1024 } else { 160 * 1024 };
        if me == 3 {
            comm.rank_mut().compute_flops(2_000_000);
        }
        let send = vec![(me + step) as u8; counts[me]];
        let mut recv = vec![0u8; counts.iter().sum()];
        comm.allgatherv(&send, &counts, &mut recv);
    }
    let double = Datatype::double();
    let slot = |peer: usize, n: usize| {
        let dt = Datatype::vector(n, 1, 2, &double).expect("vector type");
        WPeer::new(peer * REGION * 8, 1, dt)
    };
    let sends: Vec<WPeer> = (0..RANKS).map(|j| slot(j, len(me, j))).collect();
    let recvs: Vec<WPeer> = (0..RANKS).map(|j| slot(j, len(j, me))).collect();
    let sendbuf: Vec<u8> = (0..RANKS * REGION)
        .flat_map(|k| ((me * 100_000 + k) as f64).to_le_bytes())
        .collect();
    let mut recvbuf = vec![0u8; sendbuf.len()];
    comm.alltoallw(&sendbuf, &sends, &mut recvbuf, &recvs);
    // A Figure 12 column send, so the single-context engine searches.
    let col = matrix_column_type(64, 64, 3).expect("column type");
    let bytes = 64 * 64 * 24;
    if me == 0 {
        comm.send(&vec![2u8; bytes], &col, 64, 1, Tag(9));
    } else if me == 1 {
        let row = Datatype::contiguous(bytes, &Datatype::byte()).expect("row type");
        comm.recv(&mut vec![0u8; bytes], &row, 1, Some(0), Tag(9));
    }
    comm.barrier();
}

pub fn cluster() -> ClusterConfig {
    ClusterConfig::paper_testbed(RANKS).with_seed(20070326)
}
