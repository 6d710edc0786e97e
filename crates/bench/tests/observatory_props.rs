//! Property tests of the observatory pipeline: for arbitrary nonuniform
//! alltoallw / scatterv workloads, a run ledgered through
//! [`ncd_bench::ledger_run`] and re-loaded compares **observationally
//! identical to itself** — `compare(run, run)` must be empty — and
//! re-ledgering the unchanged run is idempotent (same content-hash id).
//!
//! This is the contract the whole differential layer leans on: any
//! nonempty diff must be a genuine behaviour change, never parse noise,
//! float formatting, or unstable ordering.

use ncd_bench::{ledger_run, time_phase, RunCapture};
use ncd_core::{compare, Comm, MpiConfig, RunRecord, WPeer};
use ncd_datatype::Datatype;
use ncd_simnet::{ledger_root, read_run, ClusterConfig, Observers};
use proptest::prelude::*;

/// Point every ledger write of this test process at one private root, so
/// parallel test threads cannot race each other's `NCD_OBSERVATORY`.
fn init_obs_root() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let dir =
            std::env::temp_dir().join(format!("ncd-observatory-props-{}", std::process::id()));
        std::env::set_var("NCD_OBSERVATORY", &dir);
    });
}

/// Ledger one traced run under `bench` with the given knobs and re-load
/// it the way the differential engine does.
fn ledger_and_reload(
    bench: &str,
    knobs: &[(String, String)],
    traced: RunCapture,
) -> (String, RunRecord) {
    let mut series = ncd_bench::Series::new("latency-usec");
    series.push("run", 1.0);
    let manifest = ledger_run(bench, true, knobs, &[series], &traced).expect("ledger the run");
    let dir = ledger_root().join(bench).join(&manifest.run_id);
    let run = read_run(&dir).expect("re-read the ledgered run");
    let rec = RunRecord::from_ledger(&run).expect("parse the artifacts");
    (manifest.run_id, rec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary nonuniform alltoallw traffic (including zero-volume
    /// peers, the three-bin schedule's special case): self-compare is
    /// identity and the run id is reproducible.
    #[test]
    fn alltoallw_run_self_compare_is_identity(
        n in 2usize..5,
        vols in proptest::collection::vec(0usize..32, 16),
    ) {
        init_obs_root();
        let vol = move |src: usize, dst: usize| vols[(src * n + dst) % 16];
        let body = move |comm: &mut Comm, _it: usize| {
            let me = comm.rank();
            let send_doubles: Vec<usize> = (0..n).map(|j| vol(me, j)).collect();
            let recv_doubles: Vec<usize> = (0..n).map(|j| vol(j, me)).collect();
            let mk_peers = |doubles: &[usize]| {
                let mut off = 0;
                doubles
                    .iter()
                    .map(|&d| {
                        let p = WPeer::new(
                            off,
                            1,
                            Datatype::contiguous(d, &Datatype::double()).expect("peer type"),
                        );
                        off += d * 8;
                        p
                    })
                    .collect::<Vec<_>>()
            };
            let sends = mk_peers(&send_doubles);
            let recvs = mk_peers(&recv_doubles);
            let sendbuf = vec![me as u8; send_doubles.iter().sum::<usize>() * 8];
            let mut recvbuf = vec![0u8; recv_doubles.iter().sum::<usize>() * 8];
            comm.alltoallw(&sendbuf, &sends, &mut recvbuf, &recvs);
        };
        let knobs = vec![("ranks".to_string(), n.to_string())];
        let run = || {
            ledger_and_reload(
                "prop_alltoallw",
                &knobs,
                time_phase(ClusterConfig::uniform(n).observe(Observers::ALL), MpiConfig::optimized(), 2, &body),
            )
        };
        let (id1, rec1) = run();
        let (id2, rec2) = run();
        prop_assert_eq!(&id1, &id2, "re-ledgering an unchanged run must be idempotent");
        let diff = compare(&rec1, &rec2);
        prop_assert!(
            diff.is_empty(),
            "self-compare must be observationally identical: {:?}",
            diff
        );
    }

    /// Arbitrary scatterv part sizes (root hands each rank a different,
    /// possibly empty slice): self-compare is identity.
    #[test]
    fn scatterv_run_self_compare_is_identity(
        parts in proptest::collection::vec(0usize..100, 2..7),
        root_pick in 0usize..6,
    ) {
        init_obs_root();
        let n = parts.len();
        let root = root_pick % n;
        let parts_by_rank: Vec<Vec<u8>> = parts
            .iter()
            .enumerate()
            .map(|(r, &len)| (0..len).map(|i| ((r * 37 + i) % 251) as u8).collect())
            .collect();
        let expect = parts_by_rank.clone();
        let body = move |comm: &mut Comm, _it: usize| {
            let me = comm.rank();
            let got = if me == root {
                comm.scatterv(Some(&parts_by_rank), root)
            } else {
                comm.scatterv(None, root)
            };
            assert_eq!(got, expect[me], "scatterv must deliver rank {me}'s part");
        };
        let knobs = vec![
            ("ranks".to_string(), n.to_string()),
            ("root".to_string(), root.to_string()),
        ];
        let run = || {
            ledger_and_reload(
                "prop_scatterv",
                &knobs,
                time_phase(ClusterConfig::uniform(n).observe(Observers::ALL), MpiConfig::optimized(), 2, &body),
            )
        };
        let (id1, rec1) = run();
        let (id2, rec2) = run();
        prop_assert_eq!(&id1, &id2, "re-ledgering an unchanged run must be idempotent");
        let diff = compare(&rec1, &rec2);
        prop_assert!(
            diff.is_empty(),
            "self-compare must be observationally identical: {:?}",
            diff
        );
    }
}
