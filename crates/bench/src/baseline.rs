//! Benchmark baseline store and regression gate.
//!
//! The simulation is deterministic (seeded jitter, logical clocks), so a
//! bench series is exactly reproducible — which makes regression checking
//! trivial and byte-stable: `--baseline write` snapshots every gated
//! series to `benches/baselines/<name>.<smoke|full>.json`, and
//! `--baseline check` re-runs the bench and fails with a readable diff
//! table when any point got slower than the committed snapshot by more
//! than the tolerance (default 10%, `--tolerance <pct>` or
//! `NCD_BASELINE_TOL`). The tolerance absorbs *intentional* cost-model
//! retuning; a change that regresses a schedule or datatype path shows up
//! as an exact, explainable delta.
//!
//! Only lower-is-better series (latencies) should be gated — benches pass
//! those explicitly to [`crate::BenchCli::gate`] and keep derived
//! higher-is-better series (improvement %) out of the snapshot.

use std::path::{Path, PathBuf};

use ncd_core::outer_join;

use crate::Series;

/// Exit code for `--baseline check` when no snapshot is committed, kept
/// distinct from `1` (an actual regression) so CI logs are unambiguous
/// about *why* the gate failed.
pub const EXIT_MISSING_BASELINE: i32 = 3;

/// What [`crate::BenchCli::gate`] should do, from `--baseline write|check`
/// (or `NCD_BASELINE=write|check`). Unrecognized values abort rather than
/// silently skipping the gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaselineMode {
    /// No baseline handling (the default).
    Off,
    /// Snapshot the gated series to the baseline store.
    Write,
    /// Compare against the stored snapshot; exit nonzero on regression.
    Check,
}

/// Directory the snapshots are committed under (inside the bench crate, so
/// `check` compares against the repository state, not a build artifact).
pub fn baseline_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/benches/baselines"))
}

/// Snapshot path for a bench: smoke and full runs measure different
/// problem sizes, so they get separate files.
pub fn baseline_path(name: &str, smoke: bool) -> PathBuf {
    let mode = if smoke { "smoke" } else { "full" };
    baseline_dir().join(format!("{name}.{mode}.json"))
}

/// The cargo bench target this process was built from: the file stem of
/// `argv[0]` with the trailing `-<metadata hash>` cargo appends stripped.
/// Used to print copy-pasteable `cargo bench` commands in gate messages.
pub fn bench_target() -> Option<String> {
    target_from(&std::env::args().next()?)
}

/// [`bench_target`] over an explicit `argv[0]`, for tests.
pub fn target_from(argv0: &str) -> Option<String> {
    let stem = Path::new(argv0).file_stem()?.to_str()?;
    Some(match stem.rsplit_once('-') {
        Some((base, hash))
            if !base.is_empty()
                && hash.len() == 16
                && hash.bytes().all(|b| b.is_ascii_hexdigit()) =>
        {
            base.to_string()
        }
        _ => stem.to_string(),
    })
}

/// The message `--baseline check` prints when the committed snapshot does
/// not exist: names the expected path and the exact write command, so the
/// fix is copy-paste instead of archaeology.
pub fn missing_snapshot_message(
    name: &str,
    path: &Path,
    target: Option<&str>,
    smoke: bool,
    err: &str,
) -> String {
    let target = target.unwrap_or("<bench target>");
    let smoke_flag = if smoke { "--smoke " } else { "" };
    format!(
        "baseline check FAILED for {name}: no committed snapshot ({err})\n\
         expected path: {}\n\
         write it with: cargo bench -p ncd-bench --bench {target} -- {smoke_flag}--baseline write\n\
         then commit the snapshot (exit code {EXIT_MISSING_BASELINE} = missing baseline; 1 = regression)\n",
        path.display()
    )
}

/// The committed snapshot of a gated series: [`crate::series_json`] plus
/// a trailing newline (deterministic input ⇒ identical bytes on every
/// write).
pub fn snapshot_json(name: &str, smoke: bool, series: &[Series]) -> String {
    crate::series_json(name, smoke, series) + "\n"
}

/// Parse a snapshot produced by [`snapshot_json`] back into series. A
/// corrupted baseline file, one written under another schema — or one
/// holding an unmeasured (`null`) point — is an error for the gate to
/// report with the file's path, never a silent pass.
pub fn parse_snapshot(text: &str) -> Result<Vec<Series>, String> {
    let series = ncd_simnet::parse_series(text)?;
    for s in &series {
        if let Some((x, _)) = s.points.iter().find(|(_, y)| y.is_nan()) {
            return Err(format!("series {:?}: point {x:?} is unmeasured", s.label));
        }
    }
    Ok(series)
}

/// One point that moved beyond tolerance (or disappeared/appeared).
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    pub series: String,
    pub x: String,
    pub baseline: f64,
    pub current: f64,
    /// Percent change relative to the baseline (positive = slower). NaN
    /// for shape mismatches (missing series/point).
    pub delta_pct: f64,
}

/// Compare current series against a baseline (both lower-is-better).
/// Returns every regression: points slower than `baseline * (1 + tol%)`
/// or unmeasured (NaN) in the current run, plus any shape mismatch (series
/// or points missing on either side) — a renamed or dropped series must
/// not silently pass the gate. Faster-than-baseline points are *not*
/// regressions.
pub fn check_series(baseline: &[Series], current: &[Series], tol_pct: f64) -> Vec<Regression> {
    let mut out = Vec::new();
    let mut flag = |series: &str, x: String, baseline: f64, current: f64| {
        out.push(Regression {
            series: series.to_string(),
            x,
            baseline,
            current,
            delta_pct: 100.0 * (current - baseline) / baseline,
        })
    };
    let nan = f64::NAN;
    for (label, b, c) in outer_join(baseline, current, |s| &s.label) {
        let (Some(b), Some(c)) = (b, c) else {
            let x = match b {
                Some(_) => "<series missing from current run>",
                None => "<series not in baseline; re-run --baseline write>",
            };
            flag(label, x.to_string(), nan, nan);
            continue;
        };
        for (x, b, c) in outer_join(&b.points, &c.points, |(x, _)| x) {
            let (note, by, cy) = match (b, c) {
                (Some(&(_, by)), None) => (" <point missing from current run>", by, nan),
                (None, _) => (
                    " <point not in baseline; re-run --baseline write>",
                    nan,
                    nan,
                ),
                (Some(&(_, by)), Some(&(_, cy))) if cy.is_nan() => {
                    (" <point unmeasured in current run>", by, cy)
                }
                (Some(&(_, by)), Some(&(_, cy))) if cy > by * (1.0 + tol_pct / 100.0) => {
                    ("", by, cy)
                }
                _ => continue,
            };
            flag(label, format!("{x}{note}"), by, cy);
        }
    }
    out
}

/// Render regressions as the diff table the gate prints on failure.
pub fn render_regressions(name: &str, regs: &[Regression], tol_pct: f64) -> String {
    let mut out = format!(
        "baseline check FAILED for {name} ({} regression(s), tolerance {tol_pct}%):\n",
        regs.len()
    );
    out.push_str(&format!(
        "{:<28} {:<44} {:>12} {:>12} {:>8}\n",
        "series", "x", "baseline", "current", "delta"
    ));
    for r in regs {
        let fmt = |v: f64| {
            if v.is_nan() {
                "-".to_string()
            } else {
                format!("{v:.3}")
            }
        };
        let delta = if r.delta_pct.is_nan() {
            "-".to_string()
        } else {
            format!("+{:.1}%", r.delta_pct)
        };
        out.push_str(&format!(
            "{:<28} {:<44} {:>12} {:>12} {:>8}\n",
            r.series,
            r.x,
            fmt(r.baseline),
            fmt(r.current),
            delta,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(label: &str, pts: &[(&str, f64)]) -> Series {
        let mut s = Series::new(label);
        for (x, y) in pts {
            s.push(*x, *y);
        }
        s
    }

    #[test]
    fn snapshot_round_trips() {
        let s = vec![
            series("ring", &[("2", 10.5), ("4", 21.25)]),
            series("rd \"x\"", &[("8", 3.0)]),
            series("latency-µs", &[("64 KiB → 1", 0.5)]),
        ];
        let json = snapshot_json("fig14", true, &s);
        assert!(json.starts_with("{\"schema\":1,\"name\":\"fig14\",\"mode\":\"smoke\""));
        let back = parse_snapshot(&json).expect("own output parses");
        assert_eq!(back.len(), 3);
        for (b, s) in back.iter().zip(&s) {
            assert_eq!(b.label, s.label);
            assert_eq!(b.points, s.points);
        }
        // The gate joins by label: a non-ASCII one must survive the trip.
        assert!(check_series(&back, &s, 10.0).is_empty());
        // Byte stability: re-serializing the parse gives identical bytes.
        assert_eq!(snapshot_json("fig14", true, &back), json);
    }

    #[test]
    fn damaged_snapshots_are_errors_not_panics() {
        let json = snapshot_json("fig14", true, &[series("ring", &[("2", 10.5)])]);
        for cut in 1..json.len() - 1 {
            assert!(parse_snapshot(&json[..cut]).is_err(), "truncated at {cut}");
        }
        let not_a_pair = json.replace("[\"2\",10.5]", "[\"2\"]");
        let err = parse_snapshot(&not_a_pair).expect_err("a point of one");
        assert!(err.contains("series \"ring\""), "{err}");
        assert!(parse_snapshot("{\"schema\":1}").is_err());
        let newer = json.replacen("\"schema\":1", "\"schema\":2", 1);
        let err = parse_snapshot(&newer).expect_err("another schema");
        assert!(err.contains("schema 2"), "{err}");
        // An unmeasured point must fail the gate, not pass it.
        let unmeasured = snapshot_json("fig14", true, &[series("ring", &[("2", f64::NAN)])]);
        assert!(unmeasured.contains("[\"2\",null]"), "{unmeasured}");
        let err = parse_snapshot(&unmeasured).expect_err("a null point");
        assert!(err.contains("series \"ring\""), "{err}");
    }

    #[test]
    fn identical_series_pass_check() {
        let base = vec![series("a", &[("1", 100.0), ("2", 200.0)])];
        let cur = vec![series("a", &[("1", 100.0), ("2", 200.0)])];
        assert!(check_series(&base, &cur, 10.0).is_empty());
    }

    #[test]
    fn within_tolerance_passes_beyond_fails() {
        let base = vec![series("a", &[("1", 100.0)])];
        let slower_ok = vec![series("a", &[("1", 109.0)])];
        assert!(check_series(&base, &slower_ok, 10.0).is_empty());

        // Synthetically slowed series: +50% must fail the 10% gate.
        let slowed = vec![series("a", &[("1", 150.0)])];
        let regs = check_series(&base, &slowed, 10.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].x, "1");
        assert!((regs[0].delta_pct - 50.0).abs() < 1e-9);
        let table = render_regressions("fig", &regs, 10.0);
        assert!(table.contains("FAILED"), "{table}");
        assert!(table.contains("+50.0%"), "{table}");
    }

    /// A point the current run did not measure compares false against any
    /// bound; the gate must not read that as "not slower".
    #[test]
    fn an_unmeasured_current_point_fails_the_gate() {
        let base = vec![series("a", &[("1", 100.0), ("2", 200.0)])];
        let cur = vec![series("a", &[("1", 100.0), ("2", f64::NAN)])];
        let regs = check_series(&base, &cur, 10.0);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].x, "2 <point unmeasured in current run>");
        assert_eq!(regs[0].baseline, 200.0);
        assert!(regs[0].current.is_nan() && regs[0].delta_pct.is_nan());
        let _ = render_regressions("fig", &regs, 10.0);
    }

    #[test]
    fn improvements_are_not_regressions() {
        let base = vec![series("a", &[("1", 100.0)])];
        let faster = vec![series("a", &[("1", 10.0)])];
        assert!(check_series(&base, &faster, 10.0).is_empty());
    }

    #[test]
    fn shape_mismatches_fail_the_gate() {
        let base = vec![series("a", &[("1", 1.0), ("2", 2.0)])];
        // Missing series.
        assert_eq!(check_series(&base, &[], 10.0).len(), 1);
        // Missing point.
        let cur = vec![series("a", &[("1", 1.0)])];
        assert_eq!(check_series(&base, &cur, 10.0).len(), 1);
        // Extra point not covered by the baseline.
        let cur = vec![series("a", &[("1", 1.0), ("2", 2.0), ("3", 3.0)])];
        let regs = check_series(&base, &cur, 10.0);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].x.contains("not in baseline"));
        // Extra series not covered by the baseline.
        let cur = vec![
            series("a", &[("1", 1.0), ("2", 2.0)]),
            series("b", &[("1", 1.0)]),
        ];
        assert_eq!(check_series(&base, &cur, 10.0).len(), 1);
        // Renders without panicking even with NaN cells.
        let _ = render_regressions("fig", &check_series(&base, &[], 10.0), 10.0);
    }

    #[test]
    fn target_from_strips_cargo_hash() {
        assert_eq!(
            target_from("target/release/deps/fig14_allgatherv-0123456789abcdef").as_deref(),
            Some("fig14_allgatherv")
        );
        // Non-hash suffixes stay (ext_amr_skew has a real dash-less stem;
        // a short or non-hex tail is part of the name).
        assert_eq!(
            target_from("deps/ext_amr_skew-12ab").as_deref(),
            Some("ext_amr_skew-12ab")
        );
        assert_eq!(
            target_from("fig15_alltoallw").as_deref(),
            Some("fig15_alltoallw")
        );
    }

    #[test]
    fn missing_snapshot_message_names_path_and_command() {
        let msg = missing_snapshot_message(
            "fig14a_allgatherv_size",
            Path::new("/repo/benches/baselines/fig14a_allgatherv_size.smoke.json"),
            Some("fig14_allgatherv"),
            true,
            "No such file or directory",
        );
        assert!(msg
            .contains("expected path: /repo/benches/baselines/fig14a_allgatherv_size.smoke.json"));
        assert!(msg.contains(
            "cargo bench -p ncd-bench --bench fig14_allgatherv -- --smoke --baseline write"
        ));
        assert!(msg.contains("exit code 3"));
        // Full mode drops the --smoke flag.
        let full = missing_snapshot_message("f", Path::new("p"), Some("f"), false, "e");
        assert!(full.contains("-- --baseline write"), "{full}");
    }

    #[test]
    fn baseline_path_separates_smoke_and_full() {
        let smoke = baseline_path("fig14_allgatherv", true);
        let full = baseline_path("fig14_allgatherv", false);
        assert!(smoke.ends_with("benches/baselines/fig14_allgatherv.smoke.json"));
        assert!(full.ends_with("benches/baselines/fig14_allgatherv.full.json"));
    }
}
