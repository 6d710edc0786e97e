//! Profile the datatype pack pipeline block by block — the paper's
//! Figure 9 contrast, reproduced on a vector-of-structs datatype.
//!
//! A "particle" struct holds a 3-double position plus one tag double at a
//! displaced offset, leaving a hole in the extent: every look-ahead window
//! classifies *sparse*, so each pipeline block takes the packed path. The
//! baseline single-context engine loses its cursor to the look-ahead and
//! re-searches the datatype from the start for every block — the observer
//! shows its seek distance growing with the block index (quadratic total).
//! The dual-context engine keeps a dedicated pack cursor and never seeks.
//!
//! The per-block numbers come from the [`PackObserver`] hook threaded
//! through the engines; the same hook feeds the `datatype/*` metrics, the
//! flight recorder, and the Chrome-trace `pack seek` counter track when a
//! send runs inside the simulated cluster (second half of this example).
//!
//! Run with: `cargo run --release --example pack_profile`

use nucomm::core::{Comm, MpiConfig};
use nucomm::datatype::{
    pack_all_profiled, BlockLog, Datatype, EngineKind, EngineParams, StructField,
};
use nucomm::simnet::{
    chrome_trace_json, render_timeline_fit, write_artifact, Cluster, ClusterConfig, Observers, Tag,
};

/// One particle: 24 bytes of position, an 8-byte hole, then a tag double.
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

fn params() -> EngineParams {
    EngineParams {
        block_size: 4096,
        ..EngineParams::default()
    }
}

fn profile(kind: EngineKind, count: usize) -> BlockLog {
    let dt = particle();
    let src = vec![7u8; dt.extent() as usize * count];
    let mut log = BlockLog::default();
    pack_all_profiled(kind, &dt, count, params(), &src, &mut log).expect("pack");
    log
}

fn main() {
    let sizes = [512usize, 1024, 2048, 4096, 8192];

    println!("=== pack pipeline profile: vector of particle structs (block size 4096) ===");
    println!(
        "{:>10} | {:>7} {:>10} {:>9} | {:>7} {:>10} {:>9}",
        "", "single", "-context", "", "dual", "-context", ""
    );
    println!(
        "{:>10} | {:>7} {:>10} {:>9} | {:>7} {:>10} {:>9}",
        "particles", "blocks", "seek segs", "seek/blk", "blocks", "seek segs", "seek/blk"
    );
    let mut prev_seek = 0u64;
    for &n in &sizes {
        let single = profile(EngineKind::SingleContext, n);
        let dual = profile(EngineKind::DualContext, n);
        assert_eq!(single.total_bytes(), dual.total_bytes());
        println!(
            "{:>10} | {:>7} {:>10} {:>9.1} | {:>7} {:>10} {:>9.1}",
            n,
            single.blocks.len(),
            single.total_seek(),
            single.seek_per_block(),
            dual.blocks.len(),
            dual.total_seek(),
            dual.seek_per_block(),
        );
        if prev_seek > 0 {
            let ratio = single.total_seek() as f64 / prev_seek as f64;
            println!(
                "{:>10} | seek grew {ratio:.1}x for 2x the data (quadratic re-search)",
                ""
            );
        }
        prev_seek = single.total_seek();
    }

    // Per-block view at one size: the baseline's seek target is the block's
    // starting segment, so it climbs block after block; dual stays at zero.
    let n = 2048;
    let single = profile(EngineKind::SingleContext, n);
    println!("\nper-block seek distance, single-context, {n} particles:");
    for obs in single.blocks.iter().step_by(4) {
        println!(
            "  block {:>3}: seek {:>6} segments, look-ahead {:>3}, {:>5} bytes {}",
            obs.index,
            obs.seek_segments,
            obs.lookahead_segments,
            obs.bytes,
            if obs.seek_segments > 0 {
                "<- re-search"
            } else {
                ""
            }
        );
    }

    // The same contrast inside the simulated cluster: a typed send drives
    // the engine block by block, so the trace grows a `dt` lane and the
    // Chrome export a `pack seek` counter track per rank.
    for (label, cfg) in [
        ("single-cursor (baseline)", MpiConfig::baseline()),
        ("dual-context (optimized)", MpiConfig::optimized()),
    ] {
        let mut cfg = cfg;
        cfg.engine.block_size = 4096;
        let trace = Observers {
            trace: true,
            ..Observers::NONE
        };
        let run = Cluster::new(ClusterConfig::uniform(2).observe(trace)).try_run(move |rank| {
            let mut comm = Comm::new(rank, cfg.clone());
            let dt = particle();
            let n = 2048;
            if comm.rank() == 0 {
                let src = vec![7u8; dt.extent() as usize * n];
                comm.send(&src, &dt, n, 1, Tag(0));
            } else {
                let total = dt.size() * n;
                let mut dst = vec![0u8; total];
                let row = Datatype::contiguous(total, &Datatype::byte()).expect("row");
                comm.recv(&mut dst, &row, 1, Some(0), Tag(0));
            }
        });
        let traces = run.unwrap().1.traces.expect("traced");
        println!("\n{label}: pack blocks on the dt lane (p = sparse/packed):");
        print!("{}", render_timeline_fit(&traces, 100));
        let json = format!("target/figures/pack_profile_{}.json", {
            if label.starts_with("single") {
                "single"
            } else {
                "dual"
            }
        });
        if write_artifact(&json, &chrome_trace_json(&traces)).is_ok() {
            println!("chrome trace: {json} (see the 'pack seek (rank 0)' counter track)");
        }
    }
}
