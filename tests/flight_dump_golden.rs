//! Golden for the flight-recorder dump — the one event encoding the
//! other goldens (Chrome trace, diagnosis, comm matrix, history) do not
//! cover. One small run drives every producer of a flight-recorder record
//! and the dump of that run's recorders must match
//! `tests/golden/flight_dump.txt` byte for byte: all eight
//! [`RecCode`](nucomm::simnet::RecCode)s and both side rings, with the
//! main ring small enough to have evicted.

use nucomm::core::{AllgathervAlgorithm, Comm, MpiConfig, WPeer};
use nucomm::datatype::Datatype;
use nucomm::simnet::{render_dump, Cluster, ClusterConfig, Observers, Tag};

const RANKS: usize = 4;
/// Epochs per stationary regime of the remeshing sequence.
const EPOCHS: usize = 6;
/// Blocks of the strided type: three doubles out of every four.
const BLOCKS: usize = 256;

fn program(comm: &mut Comm) {
    let me = comm.rank();
    let right = (me + 1) % RANKS;
    let left = (me + RANKS - 1) % RANKS;

    // Remeshing allgatherv: a uniform regime, then rank 2 refines 16x —
    // the step the drift monitor flags. Pinned ring so the shift cannot
    // split the epoch series by changing the selector's choice.
    for hot in [128usize, 2048] {
        let mut counts = vec![128usize; RANKS];
        counts[2] = hot;
        let total: usize = counts.iter().sum();
        for _ in 0..EPOCHS {
            let send = vec![me as u8; counts[me]];
            let mut recv = vec![0u8; total];
            comm.allgatherv_with(AllgathervAlgorithm::Ring, &send, &counts, &mut recv);
        }
    }

    // One auto-selected alltoallw (an algorithm decision): a byte to each
    // neighbour, nothing to anyone else. Rank 0 arrives late, so its
    // neighbours' receives block — the wait the diagnosis classifies.
    if me == 0 {
        comm.rank_mut().compute_flops(2_000_000);
    }
    let byte = Datatype::byte();
    let slots = |peers: [usize; 2]| -> Vec<WPeer> {
        (0..RANKS)
            .map(|r| WPeer::new(r, usize::from(peers.contains(&r) && r != me), byte.clone()))
            .collect()
    };
    let sendbuf = vec![me as u8; RANKS];
    let mut recvbuf = vec![0u8; RANKS];
    comm.alltoallw(
        &sendbuf,
        &slots([left, right]),
        &mut recvbuf,
        &slots([left, right]),
    );

    // Noncontiguous typed send around the ring (so the pack pipeline
    // runs); blocking `send` is isend + wait, so the wire it did not hide
    // is a send residual.
    let dt = Datatype::vector(BLOCKS, 3, 4, &Datatype::double()).expect("strided type");
    let src = vec![me as u8; dt.extent() as usize];
    let row = Datatype::contiguous(dt.size(), &byte).expect("row");
    let mut dst = vec![0u8; dt.size()];
    if me % 2 == 0 {
        comm.send(&src, &dt, 1, right, Tag(7));
        comm.recv(&mut dst, &row, 1, Some(left), Tag(7));
    } else {
        comm.recv(&mut dst, &row, 1, Some(left), Tag(7));
        comm.send(&src, &dt, 1, right, Tag(7));
    }
    // Nonblocking contiguous exchange (wildcard receive), waited at once:
    // the whole wire time is left over as the send residual.
    let rreq = comm.irecv(None, Tag(8));
    let sreq = comm.isend(&dst, &row, 1, right, Tag(8));
    comm.wait(sreq);
    comm.wait(rreq);
}

const GOLDEN: &str = include_str!("golden/flight_dump.txt");

fn observed_run_dump() -> String {
    let observers = Observers {
        trace: true,
        history: true,
        ..Observers::NONE
    };
    let cluster = ClusterConfig::uniform(RANKS)
        .with_recorder_capacity(16)
        .observe(observers);
    let run = Cluster::new(cluster).try_run(|rank| {
        program(&mut Comm::new(rank, MpiConfig::optimized()));
    });
    assert!(run.results.is_ok(), "the program completes");
    // A recorder's one writer is its rank: it holds exactly the events
    // that rank traced, and nothing written after the run.
    let traces = run.capture.traces.expect("traced");
    assert_eq!(traces.len(), run.recorders.len());
    for (rec, trace) in run.recorders.iter().zip(&traces) {
        assert_eq!(rec.recorded(), trace.len() as u64, "rank {}", rec.rank());
    }
    render_dump(&run.recorders)
}

/// Regenerate the golden file after an intentional format change:
/// `cargo test --test flight_dump_golden -- --ignored`
#[test]
#[ignore = "writes the golden file; run explicitly after format changes"]
fn regenerate_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/flight_dump.txt");
    std::fs::write(path, observed_run_dump()).expect("write golden");
}

#[test]
fn last_run_dump_matches_the_golden_byte_for_byte() {
    assert_eq!(
        observed_run_dump(),
        GOLDEN,
        "flight-recorder dump diverged from tests/golden/flight_dump.txt; \
         if the change is intentional, regenerate the golden file"
    );
}

/// Reads only the committed file.
#[test]
fn golden_shows_every_record_code_and_side_ring() {
    for body in [
        "send       dst=",
        "recv       src=",
        "round      alltoallw/binned #",
        "pack-block engine=dual-context",
        "irecv      src=",
        "send-wait  residual_ns=",
        "algo       alltoallw -> binned",
        "drift      allgatherv/ring bytes",
        "algorithm decisions\n",
        "drift events\n",
    ] {
        assert!(GOLDEN.contains(body), "golden lacks {body:?}");
    }
    // The main ring has evicted: "N recorded, showing last M" with N > M.
    let header = GOLDEN.lines().nth(1).expect("rank 0 header");
    let nums: Vec<u64> = header
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|w| w.parse().ok())
        .collect();
    assert!(nums[1] > nums[2], "{header}");
}

/// Reads only the committed file: within every section (a rank's main
/// window or one of its side rings) the records run forward in time.
#[test]
fn golden_windows_run_forward_in_time() {
    let lines: Vec<&str> = GOLDEN.lines().collect();
    for section in lines.split(|l| !l.starts_with('[')) {
        let times: Vec<u64> = section
            .iter()
            .map(|l| {
                let t = l.split_whitespace().find_map(|w| w.strip_prefix("t="));
                t.and_then(|t| t.parse().ok())
                    .unwrap_or_else(|| panic!("{l}"))
            })
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{section:?}");
    }
}
