//! Layer probes: fixed-size microbenchmarks of single layers, run in every
//! traced run so each layer metric exists whatever the workload.
//!
//! Probes go through stable surfaces only — `Cluster::run`,
//! `Rank::{send_bytes, recv_bytes}`, `Comm`, the pack entry points —
//! never `Mailbox::new` or a scheduler type, which the ROADMAP plans to
//! change. Phase-shaped layers (collectives, scatter, multigrid, the
//! observe pipeline) reuse the workload code at `Scale::Probe`.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use ncd_core::{detect_outliers, k_select, Comm, MpiConfig};
use ncd_datatype::{
    matrix_column_type, pack_all_profiled, unpack_all, Datatype, EngineKind, EngineParams,
    NullObserver, StructField,
};
use ncd_petsc::{DistributedArray, LaplacianOp, LinearOp, ScatterBackend, StencilKind};
use ncd_simnet::{last_sched_stats, Cluster, ClusterConfig, Rank, Tag, TraceEvent};

use crate::harness::{run_cluster_workload, Plan, RunData};
use crate::util::{median, time_median, Rng};
use crate::workloads::allgatherv::Allgatherv;
use crate::workloads::alltoallw::Alltoallw;
use crate::workloads::multigrid::MultigridSolve;
use crate::workloads::observe::{Observe, Observers};
use crate::workloads::vecscatter::Vecscatter;
use crate::workloads::Scale;

/// Metric name → value, in the order measured.
pub type Values = Vec<(&'static str, f64)>;

/// Sizes of the probes that are not workload code.
struct Sizes {
    /// Matrix side of the pack probes (elements of 24 B).
    matrix: usize,
    pingpongs: usize,
    handoff_pingpongs: usize,
    spawn_ranks: usize,
    mailbox_batches: usize,
    stream_msgs: usize,
    bulk_msgs: usize,
    kselect_n: usize,
    stencil_grid: usize,
    reps: usize,
}

impl Sizes {
    fn of(quick: bool) -> Sizes {
        if quick {
            Sizes {
                matrix: 32,
                pingpongs: 200,
                handoff_pingpongs: 50,
                spawn_ranks: 32,
                mailbox_batches: 2,
                stream_msgs: 500,
                bulk_msgs: 2,
                kselect_n: 10_000,
                stencil_grid: 8,
                reps: 1,
            }
        } else {
            Sizes {
                matrix: 512,
                pingpongs: 100_000,
                handoff_pingpongs: 4_000,
                spawn_ranks: 1024,
                mailbox_batches: 40,
                stream_msgs: 100_000,
                bulk_msgs: 64,
                kselect_n: 1_000_000,
                stencil_grid: 64,
                reps: 5,
            }
        }
    }
}

const ELEM: usize = 24;

/// A seeded three-level type: a struct of (a vector of an indexed leaf)
/// and a contiguous tail. Returns the type and its instance count for
/// about `target_bytes` of payload.
fn seeded_tree(seed: u64, target_bytes: usize) -> (Datatype, usize) {
    let mut rng = Rng::new(seed);
    let mut blocks = Vec::new();
    let mut at = 0i64;
    for _ in 0..8 {
        let len = rng.range(1, 4);
        blocks.push((at, len));
        at += (len + rng.range(1, 3)) as i64;
    }
    let leaf = Datatype::indexed(&blocks, &Datatype::double()).expect("indexed leaf");
    let mid = Datatype::hvector(32, 1, 2 * leaf.extent(), &leaf).expect("vector of leaves");
    let tail = Datatype::contiguous(64, &Datatype::double()).expect("contiguous tail");
    let tree = Datatype::structure(&[
        StructField {
            disp: 0,
            count: 1,
            dtype: mid.clone(),
        },
        StructField {
            disp: mid.extent() + 8,
            count: 1,
            dtype: tail,
        },
    ])
    .expect("struct root");
    let count = (target_bytes / tree.size()).max(1);
    (tree, count)
}

fn gbps(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / seconds / 1e9
}

/// `datatype.*`: both pack engines on the Figure 12 column type, the
/// dual-context engine on a seeded nested type, unpack, a hand-written
/// copy of the same column layout in the same run, and type construction.
fn datatype(seed: u64, z: &Sizes, out: &mut Values) {
    let n = z.matrix;
    let bytes = n * n * ELEM;
    let src = Rng::new(seed).bytes(bytes);
    let col = matrix_column_type(n, n, 3).expect("column type");
    let params = EngineParams::default;
    let pack =
        |kind| pack_all_profiled(kind, &col, n, params(), &src, &mut NullObserver).expect("pack");
    let (packed, counts) = pack(EngineKind::SingleContext);
    let single = time_median(z.reps, || {
        black_box(pack(EngineKind::SingleContext));
    });
    let dual = time_median(z.reps, || {
        black_box(pack(EngineKind::DualContext));
    });
    let mut dst = vec![0u8; bytes];
    let unpack = time_median(z.reps, || {
        unpack_all(&col, n, &mut dst, &packed).expect("unpack");
        black_box(&mut dst);
    });
    assert!(dst == src, "probe: unpack(pack(x)) != x");
    // The hand loop: what a programmer writes instead of a datatype.
    let mut hand = Vec::new();
    let handcopy = time_median(z.reps, || {
        hand.clear();
        hand.reserve(bytes);
        for c in 0..n {
            for r in 0..n {
                let at = (r * n + c) * ELEM;
                hand.extend_from_slice(&src[at..at + ELEM]);
            }
        }
        black_box(&mut hand);
    });
    assert!(
        hand == packed,
        "probe: hand copy disagrees with the pack engine"
    );

    let (tree, count) = seeded_tree(seed, bytes);
    let tree_src = Rng::new(seed ^ 1).bytes(tree.extent() as usize * count + 64);
    let tree_bytes = tree.size() * count;
    let tree_s = time_median(z.reps, || {
        black_box(
            pack_all_profiled(
                EngineKind::DualContext,
                &tree,
                count,
                params(),
                &tree_src,
                &mut NullObserver,
            )
            .expect("tree pack"),
        );
    });
    let commit = time_median(z.reps.max(3), || {
        black_box(matrix_column_type(n, n, 3).expect("column type"));
        black_box(seeded_tree(seed, bytes));
    });

    out.push(("datatype.pack_single_gbps", gbps(bytes, single)));
    out.push(("datatype.pack_dual_gbps", gbps(bytes, dual)));
    out.push(("datatype.pack_tree_gbps", gbps(tree_bytes, tree_s)));
    out.push(("datatype.unpack_gbps", gbps(bytes, unpack)));
    out.push(("datatype.handcopy_gbps", gbps(bytes, handcopy)));
    out.push(("datatype.pack_vs_handcopy", handcopy / dual));
    out.push(("datatype.commit_us", commit * 1e6));
    out.push((
        "datatype.segments_packed",
        (counts.packed_segments + counts.direct_segments) as f64,
    ));
    out.push((
        "datatype.segments_searched",
        counts.searched_segments as f64,
    ));
}

/// 1-byte ping-pong between two ranks: host ns per context switch.
fn switch_ns(cfg: ClusterConfig, iters: usize) -> f64 {
    let t = Instant::now();
    Cluster::new(cfg).run(|rank| {
        let peer = 1 - rank.rank();
        for _ in 0..iters {
            if rank.rank() == 0 {
                rank.send_bytes(peer, Tag(1), vec![0u8]);
                rank.recv_bytes(Some(peer), Tag(2));
            } else {
                rank.recv_bytes(Some(peer), Tag(1));
                rank.send_bytes(peer, Tag(2), vec![0u8]);
            }
        }
    });
    let wall = t.elapsed().as_secs_f64();
    let resumes = last_sched_stats().expect("event backend").resumes;
    wall * 1e9 / resumes as f64
}

/// `sched.*` probes.
fn sched(z: &Sizes, out: &mut Values) {
    let fiber: Vec<f64> = (0..z.reps)
        .map(|_| switch_ns(ClusterConfig::uniform(2), z.pingpongs))
        .collect();
    out.push(("sched.switch_ns", median(&fiber)));
    // The portable backend is selected the way a user selects it — the
    // environment variable `ClusterConfig` constructors read — not
    // through a scheduler type. No cluster is running here, so nothing
    // else observes the variable.
    std::env::set_var("NCD_SCHED_TASKS", "handoff");
    let handoff_cfg = ClusterConfig::uniform(2);
    std::env::remove_var("NCD_SCHED_TASKS");
    out.push((
        "sched.switch_handoff_ns",
        switch_ns(handoff_cfg, z.handoff_pingpongs),
    ));
    let spawn = time_median(z.reps.max(3), || {
        Cluster::new(ClusterConfig::uniform(z.spawn_ranks)).run(|_| ());
    });
    out.push((
        "sched.spawn_us_per_rank",
        spawn * 1e6 / z.spawn_ranks as f64,
    ));
}

/// Host ns per receive when `depth` envelopes with distinct tags are
/// queued and received newest-first (so every match scans what is left);
/// `depth == 1` is the head-of-queue match of a one-tag stream.
/// `wildcard` receives from any source.
fn mailbox_ns(depth: usize, wildcard: bool, batches: usize) -> f64 {
    const READY: Tag = Tag(1 << 20);
    const ACK: Tag = Tag(1 << 21);
    let (per_batch, batches) = if depth == 1 {
        (batches * 1024, 1)
    } else {
        (depth, batches)
    };
    let tag_of = |k: usize| Tag(if depth == 1 { 0 } else { k as u32 });
    let out = Cluster::new(ClusterConfig::uniform(2)).run(|rank| {
        let mut timed = 0.0;
        for _ in 0..batches {
            if rank.rank() == 0 {
                for k in 0..per_batch {
                    rank.send_bytes(1, tag_of(k), vec![0u8; 8]);
                }
                rank.send_bytes(1, READY, Vec::new());
                rank.recv_bytes(Some(1), ACK);
            } else {
                let src = if wildcard { None } else { Some(0) };
                // The channel is FIFO: once READY has matched, the whole
                // batch is queued and nothing below parks.
                rank.recv_bytes(Some(0), READY);
                let t = Instant::now();
                for k in (0..per_batch).rev() {
                    black_box(rank.recv_bytes(src, tag_of(k)));
                }
                timed += t.elapsed().as_secs_f64();
                rank.send_bytes(0, ACK, Vec::new());
            }
        }
        timed
    });
    out[1] * 1e9 / (batches * per_batch) as f64
}

fn mailbox(z: &Sizes, out: &mut Values) {
    let b = z.mailbox_batches;
    out.push(("mailbox.recv_ns_d1", mailbox_ns(1, false, b)));
    out.push(("mailbox.recv_ns_d64", mailbox_ns(64, false, b * 16)));
    out.push(("mailbox.recv_ns_d1024", mailbox_ns(1024, false, b)));
    out.push(("mailbox.wildcard_ns_d1024", mailbox_ns(1024, true, b)));
}

/// `p2p.*` probes through `Comm` and the request layer.
fn p2p(z: &Sizes, out: &mut Values) {
    let run = |f: &(dyn Fn(&mut Comm) + Sync)| {
        let t = Instant::now();
        Cluster::new(ClusterConfig::uniform(2)).run(|rank: &mut Rank| {
            f(&mut Comm::new(rank, MpiConfig::optimized()));
        });
        t.elapsed().as_secs_f64()
    };
    let byte = Datatype::byte();
    let iters = z.pingpongs / 2;
    let pingpong = run(&|comm| {
        let peer = 1 - comm.rank();
        let buf = [0u8; 8];
        for _ in 0..iters {
            if comm.rank() == 0 {
                let s = comm.isend(&buf, &byte, 8, peer, Tag(1));
                comm.wait(s);
                let r = comm.irecv(Some(peer), Tag(2));
                comm.wait(r);
            } else {
                let r = comm.irecv(Some(peer), Tag(1));
                comm.wait(r);
                let s = comm.isend(&buf, &byte, 8, peer, Tag(2));
                comm.wait(s);
            }
        }
    });
    out.push(("p2p.pingpong_ns", pingpong * 1e9 / (2 * iters) as f64));
    let msgs = z.stream_msgs;
    let stream = run(&|comm| {
        let buf = [0u8; 64];
        let mut dst = [0u8; 64];
        for _ in 0..msgs {
            if comm.rank() == 0 {
                comm.send(&buf, &byte, 64, 1, Tag(3));
            } else {
                comm.recv(&mut dst, &byte, 64, Some(0), Tag(3));
            }
        }
    });
    out.push(("p2p.stream_ns_per_msg", stream * 1e9 / msgs as f64));
    const MIB: usize = 1 << 20;
    let bulk_msgs = z.bulk_msgs;
    let bulk = run(&|comm| {
        let mut buf = vec![0u8; MIB];
        for _ in 0..bulk_msgs {
            if comm.rank() == 0 {
                comm.send(&buf, &byte, MIB, 1, Tag(4));
            } else {
                comm.recv(&mut buf, &byte, MIB, Some(0), Tag(4));
            }
        }
    });
    out.push(("p2p.bulk_gbps", gbps(bulk_msgs * MIB, bulk)));
}

/// Messages per host second / host ns per message of one phase.
fn msgs_per_s(d: &RunData, phase: &str) -> f64 {
    d.phase0(phase).msgs as f64 / d.phase_host_s(phase)
}

fn ns_per_msg(d: &RunData, phase: &str) -> f64 {
    d.phase_host_s(phase) * 1e9 / d.phase0(phase).msgs as f64
}

fn per_op(d: &RunData, phase: &str, total: f64) -> f64 {
    total / d.phase0(phase).ops as f64
}

/// `coll.*`: the collectives at probe size, plus the selection kernels
/// every auto-selected collective call runs.
fn coll(seed: u64, scale: Scale, z: &Sizes, origin: Instant, out: &mut Values) {
    let plan = Plan::fixed(if scale == Scale::Quick { 1 } else { 3 }, 1);
    let small = if scale == Scale::Quick {
        Allgatherv::new(Scale::Quick, seed)
    } else {
        Allgatherv::probe64(seed)
    };
    let d64 = run_cluster_workload(&small, &plan, origin);
    out.push(("coll.agv_ring64_msgs_per_s", msgs_per_s(&d64, "agv_ring")));
    out.push(("coll.agv_rd64_msgs_per_s", msgs_per_s(&d64, "agv_rd")));
    let d1k = run_cluster_workload(&Allgatherv::new(scale, seed), &plan, origin);
    out.push(("coll.agv_ring1024_msgs_per_s", msgs_per_s(&d1k, "agv_ring")));
    out.push(("coll.agv_rd1024_msgs_per_s", msgs_per_s(&d1k, "agv_rd")));
    for (metric, phase) in [
        ("coll.agv_ring1024_sim_us", "agv_ring"),
        ("coll.agv_rd1024_sim_us", "agv_rd"),
    ] {
        out.push((
            metric,
            per_op(&d1k, phase, d1k.phase0(phase).sim_ns as f64 / 1e3),
        ));
    }
    let a2a = run_cluster_workload(&Alltoallw::new(scale, seed), &plan, origin);
    out.push(("coll.a2aw_rr_ns_per_msg", ns_per_msg(&a2a, "a2aw_rr")));
    out.push((
        "coll.a2aw_binned_ns_per_msg",
        ns_per_msg(&a2a, "a2aw_binned"),
    ));

    let mut rng = Rng::new(seed);
    let volumes: Vec<usize> = (0..1024).map(|_| rng.range(1, 1 << 16)).collect();
    let select = time_median(z.reps.max(3) * 20, || {
        black_box(detect_outliers(black_box(&volumes), 0.9, 8.0));
    });
    out.push(("coll.select_outlier_ns_n1024", select * 1e9));
    let data: Vec<u64> = (0..z.kselect_n).map(|_| rng.next_u64()).collect();
    let mut scratch = data.clone();
    let kselect = time_median(z.reps.max(3), || {
        scratch.copy_from_slice(&data);
        black_box(k_select(&mut scratch, data.len() * 9 / 10));
    });
    out.push(("coll.kselect_ns_n1e6", kselect * 1e9));
}

/// `petsc.*`: scatter and multigrid at probe size, a ghost exchange, and
/// the plain serial baseline — one rank applying the stencil.
fn petsc(seed: u64, scale: Scale, z: &Sizes, origin: Instant, out: &mut Values) {
    let plan = Plan::fixed(if scale == Scale::Quick { 1 } else { 3 }, 1);
    let sc = run_cluster_workload(&Vecscatter::new(scale, seed), &plan, origin);
    out.push((
        "petsc.scatter_create_ms",
        sc.spans.total_s("plan_build") * 1e3,
    ));
    for (host, sim, phase) in [
        (
            "petsc.scatter_apply_dt_us",
            "petsc.scatter_sim_dt_us",
            "scatter_dt",
        ),
        (
            "petsc.scatter_apply_hand_us",
            "petsc.scatter_sim_hand_us",
            "scatter_hand",
        ),
        (
            "petsc.scatter_apply_base_us",
            "petsc.scatter_sim_base_us",
            "scatter_base",
        ),
    ] {
        out.push((host, per_op(&sc, phase, sc.phase_host_s(phase) * 1e6)));
        out.push((
            sim,
            per_op(&sc, phase, sc.phase0(phase).sim_ns as f64 / 1e3),
        ));
    }
    let w = MultigridSolve::new(scale, seed);
    let mg = run_cluster_workload(&w, &Plan::fixed(1, 1), origin);
    out.push(("petsc.mg_setup_s", mg.spans.total_s("plan_build")));
    out.push(("petsc.mg_solve_s", mg.phase_host_s("mg_solve")));
    out.push(("petsc.mg_iterations", w.iterations() as f64));
    out.push((
        "petsc.ghost_exchange_us",
        per_op(
            &mg,
            "ghost_exchange",
            mg.phase_host_s("ghost_exchange") * 1e6,
        ),
    ));

    let g = z.stencil_grid;
    let applies = 5;
    let stencil = Cluster::new(ClusterConfig::uniform(1)).run(|rank| {
        let mut comm = Comm::new(rank, MpiConfig::optimized());
        let da = DistributedArray::new(&mut comm, &[g, g, g], 1, StencilKind::Star, 1);
        let op = LaplacianOp::new(&da, 1.0 / g as f64);
        let mut x = da.create_global_vec();
        x.set_all(1.0);
        let mut y = da.create_global_vec();
        let t = Instant::now();
        for _ in 0..applies {
            op.apply(&mut comm, &x, &mut y, ScatterBackend::HandTuned);
        }
        black_box(&y);
        t.elapsed().as_secs_f64()
    });
    out.push((
        "petsc.stencil_mpts_per_s",
        (g * g * g * applies) as f64 / stencil[0] / 1e6,
    ));
}

/// `observe.*` bills and the `analysis.*` … `whatif.*` pipeline stages at
/// probe size.
fn observe(seed: u64, scale: Scale, z: &Sizes, out_dir: &Path, origin: Instant, out: &mut Values) {
    let w = Observe::new(scale, seed, out_dir);
    let mpi = MpiConfig::baseline();
    let wall = |obs: Observers| {
        let v: Vec<f64> = (0..z.reps.max(3))
            .map(|_| w.run_loop(&mpi, obs, w.steps).0.wall_s)
            .collect();
        median(&v)
    };
    let off = Observers::default();
    let plain = wall(off);
    let all = wall(Observers::ALL);
    out.push(("observe.run_plain_s", plain));
    out.push(("observe.run_traced_s", all));
    for (metric, obs) in [
        (
            "observe.bill_tracing_x",
            Observers {
                tracing: true,
                ..off
            },
        ),
        (
            "observe.bill_metrics_x",
            Observers {
                metrics: true,
                ..off
            },
        ),
        (
            "observe.bill_commmap_x",
            Observers {
                comm_map: true,
                ..off
            },
        ),
        (
            "observe.bill_history_x",
            Observers {
                history: true,
                ..off
            },
        ),
    ] {
        out.push((metric, wall(obs) / plain));
    }
    out.push(("observe.bill_all_x", all / plain));

    let (d, facts) = w.run(&Plan::fixed(1, 1), origin);
    // Both personalities are traced; the bill above is for one.
    let events = facts.trace_events as f64;
    out.push(("observe.trace_events", events));
    out.push((
        "observe.trace_ns_per_event",
        (all - plain) * 1e9 / (events / 2.0),
    ));
    out.push((
        "observe.trace_mib",
        events * std::mem::size_of::<TraceEvent>() as f64 / (1 << 20) as f64,
    ));
    let s = |phase: &str| d.phase_host_s(phase);
    out.push(("analysis.hb_build_s", s("hb_build")));
    out.push(("analysis.critical_path_s", s("critical_path")));
    out.push(("analysis.attribute_s", s("attribute")));
    out.push((
        "analysis.ns_per_event",
        (s("hb_build") + s("critical_path") + s("attribute")) * 1e9 / events,
    ));
    out.push(("diagnosis.classify_s", s("diagnose")));
    out.push(("diagnosis.findings", facts.findings as f64));
    out.push(("export.chrome_json_s", s("export_chrome")));
    out.push((
        "export.chrome_mb_per_s",
        facts.chrome_bytes as f64 / 1e6 / s("export_chrome"),
    ));
    out.push(("export.artifacts_s", s("export_artifacts")));
    out.push(("export.bytes", facts.export_bytes as f64));
    out.push(("ledger.write_s", s("ledger_write")));
    out.push(("ledger.read_parse_s", s("ledger_read")));
    out.push(("compare.diff_s", s("compare")));
    out.push(("whatif.profile_s", s("whatif")));
    out.push(("whatif.replays", facts.whatif_replays as f64));
}

/// Run every probe. `scale` is `Probe` for numbers, `Quick` for tests.
pub fn run_all(seed: u64, scale: Scale, out_dir: &Path, origin: Instant) -> Values {
    let z = Sizes::of(scale == Scale::Quick);
    let mut out = Values::new();
    datatype(seed, &z, &mut out);
    sched(&z, &mut out);
    mailbox(&z, &mut out);
    p2p(&z, &mut out);
    coll(seed, scale, &z, origin, &mut out);
    petsc(seed, scale, &z, origin, &mut out);
    observe(seed, scale, &z, out_dir, origin, &mut out);
    out
}
