//! The cost-knob overlay's two load-bearing invariants (see
//! `crate::knobs`):
//!
//! * **Bitwise neutrality at 1.0** — a cluster run under all-1.0 knobs
//!   (set globally *and* as per-rank overrides) must reproduce the
//!   knobless run bit for bit: same clocks, same traces, and the same
//!   committed diagnosis golden. Factors multiply the cost model's f64
//!   nanoseconds before `SimTime` quantization, and `ns * 1.0 == ns`
//!   exactly in IEEE 754.
//! * **Zero overhead when unset** — default configs carry no overlay at
//!   all (`knobs: None`), so the what-if machinery costs nothing until
//!   a counterfactual replay asks for it.
//!
//! Plus the sanity check that keeps the neutrality test honest: a
//! *non*-neutral knob must actually move the same workload.

use ncd_simnet::{
    diagnose, diagnosis_json, Cluster, ClusterConfig, CostKnobs, EventKind, KnobDim, Observers,
    SimTime, Tag, TraceEvent,
};

/// The diagnosis-golden fixture (see `tests/diagnosis_golden.rs`), with
/// the cost overlay under test attached: compute skew on rank 0 feeding
/// a two-round traced ring.
fn fixture(knobs: Option<CostKnobs>) -> Vec<(SimTime, Vec<TraceEvent>)> {
    let n = 4;
    let trace = Observers {
        trace: true,
        ..Observers::NONE
    };
    let mut cfg = ClusterConfig::paper_testbed(n).observe(trace);
    if let Some(k) = knobs {
        cfg = cfg.with_cost_knobs(k);
    }
    let (clocks, capture) = Cluster::new(cfg)
        .try_run(move |rank| {
            let me = rank.rank();
            let op = "allgatherv/ring".into();
            rank.record(rank.now(), EventKind::Round { op, round: 0 });
            if me == 0 {
                rank.compute_flops(5_000_000);
            }
            rank.send_bytes((me + 1) % n, Tag(0), vec![0u8; 2048]);
            let (data, _) = rank.recv_bytes(Some((me + n - 1) % n), Tag(0));
            let op = "allgatherv/ring".into();
            rank.record(rank.now(), EventKind::Round { op, round: 1 });
            rank.send_bytes((me + 1) % n, Tag(1), data);
            let _ = rank.recv_bytes(Some((me + n - 1) % n), Tag(1));
            rank.now()
        })
        .unwrap();
    clocks
        .into_iter()
        .zip(capture.traces.expect("traced"))
        .collect()
}

/// All-1.0 knobs in their most adversarial spelling: neutral globals
/// plus an explicit 1.0 override on every dimension of every rank, so
/// each charge site really takes the scaled path.
fn neutral_everywhere(n: usize) -> CostKnobs {
    let mut k = CostKnobs::neutral();
    for rank in 0..n {
        for dim in KnobDim::ALL {
            k = k.scale_rank(rank, dim, 1.0);
        }
    }
    assert!(k.is_neutral());
    k
}

const GOLDEN: &str = include_str!("golden/diagnosis.json");

#[test]
fn neutral_knobs_reproduce_the_knobless_run_bitwise() {
    let bare = fixture(None);
    let neutral = fixture(Some(CostKnobs::neutral()));
    assert_eq!(bare, neutral, "global 1.0 factors must be invisible");
    let overridden = fixture(Some(neutral_everywhere(4)));
    assert_eq!(bare, overridden, "per-rank 1.0 overrides must be invisible");
}

#[test]
fn neutral_knobs_reproduce_the_diagnosis_golden() {
    let traces: Vec<Vec<TraceEvent>> = fixture(Some(neutral_everywhere(4)))
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    assert_eq!(
        diagnosis_json(&diagnose(&traces)),
        GOLDEN.trim_end(),
        "a neutrally-knobbed run must serialize to the committed golden"
    );
}

#[test]
fn default_configs_carry_no_overlay() {
    // The zero-overhead guard: unless a counterfactual replay installs
    // knobs, every charge site sees `None` and pays only the match.
    assert!(ClusterConfig::uniform(4).knobs.is_none());
    assert!(ClusterConfig::paper_testbed(4).knobs.is_none());
}

#[test]
fn non_neutral_knobs_move_the_run() {
    // Keeps the neutrality assertions falsifiable: the same workload
    // under a real factor must diverge, in the right direction.
    let bare = fixture(None);
    let slowed = fixture(Some(CostKnobs::neutral().scale_rank(
        0,
        KnobDim::Compute,
        2.0,
    )));
    let t = |out: &[(SimTime, Vec<TraceEvent>)]| out.iter().map(|(t, _)| *t).max().unwrap();
    assert!(
        t(&slowed) > t(&bare),
        "doubling rank 0's compute must lengthen the run ({} !> {})",
        t(&slowed),
        t(&bare)
    );
    let zeroed = fixture(Some((0..4).fold(CostKnobs::neutral(), |k, r| {
        k.scale_rank(r, KnobDim::Wire, 0.0)
    })));
    assert!(
        t(&zeroed) < t(&bare),
        "zeroing wire time must shorten the run ({} !< {})",
        t(&zeroed),
        t(&bare)
    );
}
