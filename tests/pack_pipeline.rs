//! Integration tests for the pack-pipeline observability layer: the
//! observer-reported per-block numbers must reproduce the paper's Figure 9
//! shape (quadratic single-context re-search vs flat dual-context), and a
//! typed send inside the cluster must leave those events in the always-on
//! flight recorder.

use nucomm::core::{Comm, MpiConfig};
use nucomm::datatype::{
    matrix_column_type, pack_all_profiled, BlockLog, Datatype, EngineKind, EngineParams,
    StructField,
};
use nucomm::simnet::{render_dump, Cluster, ClusterConfig, Tag};

fn particle() -> Datatype {
    Datatype::structure(&[
        StructField {
            disp: 0,
            count: 3,
            dtype: Datatype::double(),
        },
        StructField {
            disp: 32,
            count: 1,
            dtype: Datatype::double(),
        },
    ])
    .expect("particle struct")
}

fn profile(kind: EngineKind, count: usize) -> BlockLog {
    let dt = particle();
    let params = EngineParams {
        block_size: 4096,
        ..EngineParams::default()
    };
    let src = vec![7u8; dt.extent() as usize * count];
    let mut log = BlockLog::default();
    pack_all_profiled(kind, &dt, count, params, &src, &mut log).expect("pack");
    log
}

#[test]
fn single_cursor_seek_grows_superlinearly() {
    // Doubling the data should roughly quadruple the baseline's total
    // re-search work (Figure 9's quadratic curve). Allow 3x-5x per
    // doubling: the first block of each run never seeks, so the ratio
    // approaches 4 from above as the block count grows.
    let mut prev = 0u64;
    for n in [1024usize, 2048, 4096, 8192] {
        let log = profile(EngineKind::SingleContext, n);
        let seek = log.total_seek();
        assert!(seek > 0, "baseline must re-search at {n} particles");
        if prev > 0 {
            let ratio = seek as f64 / prev as f64;
            assert!(
                (3.0..=5.0).contains(&ratio),
                "seek growth per doubling was {ratio:.2} at {n} particles (want ~4x)"
            );
        }
        prev = seek;
    }
}

#[test]
fn dual_context_seek_stays_flat() {
    // The optimized engine keeps a dedicated pack cursor: zero seeks at
    // every size, and a per-block look-ahead cost that never grows.
    for n in [1024usize, 2048, 4096, 8192] {
        let log = profile(EngineKind::DualContext, n);
        assert_eq!(log.total_seek(), 0, "dual-context must never seek ({n})");
        for obs in &log.blocks {
            assert!(
                obs.lookahead_segments <= 2 * 15 + 2,
                "look-ahead window exploded: {} segments at block {}",
                obs.lookahead_segments,
                obs.index
            );
        }
    }
}

#[test]
fn both_engines_report_every_byte() {
    for kind in [EngineKind::SingleContext, EngineKind::DualContext] {
        for n in [512usize, 2048] {
            let log = profile(kind, n);
            assert_eq!(log.total_bytes() as usize, particle().size() * n);
        }
    }
}

#[test]
fn typed_send_lands_in_flight_recorder() {
    // After a cluster run with noncontiguous traffic, the run's
    // recorders must show the pack-pipeline events on rank 0.
    let mut cfg = MpiConfig::baseline();
    cfg.engine.block_size = 4096;
    let run = Cluster::new(ClusterConfig::uniform(2)).try_run(move |rank| {
        let mut comm = Comm::new(rank, cfg.clone());
        let dt = particle();
        let n = 1024;
        if comm.rank() == 0 {
            let src = vec![1u8; dt.extent() as usize * n];
            comm.send(&src, &dt, n, 1, Tag(3));
        } else {
            let total = dt.size() * n;
            let mut dst = vec![0u8; total];
            let row = Datatype::contiguous(total, &Datatype::byte()).expect("row");
            comm.recv(&mut dst, &row, 1, Some(0), Tag(3));
        }
    });
    run.results.expect("the typed send completes");
    let dump = render_dump(&run.recorders);
    assert!(dump.contains("flight recorder: last events per rank"));
    assert!(
        dump.contains("pack-block engine=single-context"),
        "dump missing pack events:\n{dump}"
    );
    assert!(dump.contains("sparse"), "particle blocks classify sparse");
}

/// Sender's final clock and its `Stats.search` / `Stats.pack`, in simulated
/// ns, after one N=256 column-type transpose send.
fn transpose_256_sender(mut cfg: MpiConfig, block_size: usize) -> (u64, u64, u64) {
    cfg.engine.block_size = block_size;
    let n = 256;
    let out = Cluster::new(ClusterConfig::uniform(2)).run(move |rank| {
        let mut comm = Comm::new(rank, cfg.clone());
        let col = matrix_column_type(n, n, 3).expect("column type");
        let bytes = n * n * 24;
        if comm.rank() == 0 {
            let src: Vec<u8> = (0..bytes).map(|i| (i % 253) as u8).collect();
            comm.send(&src, &col, n, 1, Tag(0));
        } else {
            let row = Datatype::contiguous(bytes, &Datatype::byte()).expect("row");
            comm.recv(&mut vec![0u8; bytes], &row, 1, Some(0), Tag(0));
        }
        let stats = comm.rank_ref().stats();
        (
            comm.rank_ref().now().as_ns(),
            stats.search.as_ns(),
            stats.pack.as_ns(),
        )
    });
    out[0]
}

#[test]
fn transpose_256_sim_clock_is_pinned() {
    // Captured at the commit before the engine went closed-form and
    // in-place. Every pipeline block is charged on its own and each charge
    // rounds to whole nanoseconds, so these literals lock both the counts
    // and the per-block charge order: a host-side speed-up of the pack
    // path must not move the simulated clock by one nanosecond.
    for (cfg, block_size, want) in [
        (
            MpiConfig::baseline(),
            4096,
            (54_796_320, 50_201_088, 3_283_712),
        ),
        (
            MpiConfig::baseline(),
            65536,
            (7_578_864, 3_014_688, 3_252_656),
        ),
        (MpiConfig::optimized(), 4096, (4_595_232, 0, 3_283_712)),
        (MpiConfig::optimized(), 65536, (4_564_176, 0, 3_252_656)),
    ] {
        let label = cfg.flavor.label();
        let got = transpose_256_sender(cfg, block_size);
        assert_eq!(got, want, "{label} block_size={block_size}");
    }
}
