//! Hierarchical profiling stages — the PETSc `-log_view` analogue over
//! simulated time.
//!
//! A stage is a named span of a rank's execution; stages nest, forming
//! paths like `mg_vcycle/smooth`. Each path accumulates a call count,
//! **inclusive** simulated time (stage entry to exit) and **exclusive**
//! time (inclusive minus time spent in child stages), so a report can say
//! both "the v-cycle is 80% of the solve" and "of that, smoothing is 60
//! points and grid transfer 15".
//!
//! Stages are driven by [`crate::Rank::stage_begin`] / `stage_end` (or the
//! closure form [`crate::Rank::stage`]), which do nothing unless the run
//! profiles ([`crate::Observers`], the one way in: a run option, as
//! `-log_view` is). The run's [`crate::Capture`] holds one profile per
//! rank: they [`Profiler::merge`] into a cluster-wide view,
//! [`Profiler::report`] renders the familiar indented table.

use std::collections::BTreeMap;

use crate::time::SimTime;

/// Accumulated figures for one stage path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Times the stage was entered.
    pub count: u64,
    /// Simulated time between entry and exit, summed over entries.
    pub inclusive: SimTime,
    /// Inclusive time minus time spent inside child stages.
    pub exclusive: SimTime,
}

/// One currently-open stage on the stack.
#[derive(Clone, Debug)]
struct OpenStage {
    path: String,
    start: SimTime,
    /// Inclusive time of already-closed children, to subtract at exit.
    child_time: SimTime,
}

/// A closed span, handed back so the caller can mirror it into the trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClosedStage {
    pub path: String,
    pub start: SimTime,
    pub end: SimTime,
}

/// Per-rank hierarchical stage profiler; see the module docs.
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    stack: Vec<OpenStage>,
    stages: BTreeMap<String, StageStats>,
}

impl Profiler {
    /// An empty profiler (named like [`crate::MetricsRegistry::enabled`]).
    pub fn enabled() -> Self {
        Self::default()
    }

    /// Open a stage named `name` at simulated time `now`. Nested stages
    /// accumulate under the parent's path (`parent/name`).
    pub fn begin(&mut self, name: &str, now: SimTime) {
        assert!(
            !name.is_empty() && !name.contains('/'),
            "stage names must be non-empty and slash-free (got {name:?})"
        );
        let path = match self.stack.last() {
            Some(parent) => format!("{}/{name}", parent.path),
            None => name.to_string(),
        };
        self.stack.push(OpenStage {
            path,
            start: now,
            child_time: SimTime::ZERO,
        });
    }

    /// Close the innermost stage, which must be named `name`, at `now`.
    /// Returns the closed span so the rank can emit a matching trace event.
    pub fn end(&mut self, name: &str, now: SimTime) -> ClosedStage {
        let open = self
            .stack
            .pop()
            .unwrap_or_else(|| panic!("stage_end({name:?}) with no open stage"));
        let leaf = open.path.rsplit('/').next().expect("nonempty path");
        assert_eq!(
            leaf, name,
            "stage_end({name:?}) does not match open stage {:?}",
            open.path
        );
        let inclusive = now.saturating_sub(open.start);
        let entry = self.stages.entry(open.path.clone()).or_default();
        entry.count += 1;
        entry.inclusive += inclusive;
        entry.exclusive += inclusive.saturating_sub(open.child_time);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_time += inclusive;
        }
        ClosedStage {
            path: open.path,
            start: open.start,
            end: now,
        }
    }

    /// The path of the innermost open stage, if any.
    pub fn open_stage(&self) -> Option<&str> {
        self.stack.last().map(|open| open.path.as_str())
    }

    pub fn stage(&self, path: &str) -> Option<&StageStats> {
        self.stages.get(path)
    }

    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Total inclusive time of root (depth-0) stages — the denominator for
    /// the report's percentage column.
    pub fn root_time(&self) -> SimTime {
        self.stages
            .iter()
            .filter(|(path, _)| !path.contains('/'))
            .map(|(_, s)| s.inclusive)
            .fold(SimTime::ZERO, |a, b| a + b)
    }

    /// Merge another profiler's accumulated stages (cluster-wide view).
    /// Open stages are not merged; close them first.
    pub fn merge(&mut self, other: &Profiler) {
        for (path, s) in &other.stages {
            let entry = self.stages.entry(path.clone()).or_default();
            entry.count += s.count;
            entry.inclusive += s.inclusive;
            entry.exclusive += s.exclusive;
        }
    }

    /// Render the `-log_view`-style table: one row per stage path,
    /// indented by nesting depth, with count, inclusive/exclusive time and
    /// the inclusive share of the total root-stage time.
    pub fn report(&self) -> String {
        let total = self.root_time().as_ns().max(1) as f64;
        let mut out = String::new();
        out.push_str(&format!(
            "{:<40} {:>8} {:>14} {:>14} {:>7}\n",
            "stage", "count", "incl", "excl", "incl%"
        ));
        for (path, s) in &self.stages {
            let depth = path.matches('/').count();
            let leaf = path.rsplit('/').next().expect("nonempty path");
            let label = format!("{}{leaf}", "  ".repeat(depth));
            out.push_str(&format!(
                "{label:<40} {:>8} {:>14} {:>14} {:>6.1}%\n",
                s.count,
                s.inclusive.to_string(),
                s.exclusive.to_string(),
                100.0 * s.inclusive.as_ns() as f64 / total,
            ));
        }
        out
    }
}

/// PETSc `-log_view`-style imbalance table across per-rank profilers:
/// for each stage path, the max/min/avg inclusive time over ranks and the
/// max/min ratio. A rank that never entered a stage counts as zero (so a
/// stage run by only some ranks shows `inf` ratio — total skew).
///
/// This complements [`Profiler::report`], which shows the cluster-wide
/// merged view without spread information.
pub fn imbalance_report(per_rank: &[Profiler]) -> String {
    use crate::analysis::{imbalance, render_ratio};
    let mut paths: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for p in per_rank {
        paths.extend(p.stages.keys().map(String::as_str));
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{:<40} {:>8} {:>14} {:>14} {:>14} {:>7}\n",
        "stage", "count", "max", "min", "avg", "ratio"
    ));
    for path in paths {
        let vals: Vec<f64> = per_rank
            .iter()
            .map(|p| {
                p.stage(path)
                    .map(|s| s.inclusive.as_ns() as f64)
                    .unwrap_or(0.0)
            })
            .collect();
        let b = imbalance(&vals);
        let count: u64 = per_rank
            .iter()
            .filter_map(|p| p.stage(path))
            .map(|s| s.count)
            .sum();
        let depth = path.matches('/').count();
        let leaf = path.rsplit('/').next().expect("nonempty path");
        let label = format!("{}{leaf}", "  ".repeat(depth));
        out.push_str(&format!(
            "{label:<40} {:>8} {:>14} {:>14} {:>14} {:>7}\n",
            count,
            SimTime::from_ns(b.max as u64).to_string(),
            SimTime::from_ns(b.min as u64).to_string(),
            SimTime::from_ns(b.avg as u64).to_string(),
            render_ratio(b.ratio),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn nested_stages_split_inclusive_and_exclusive() {
        let mut p = Profiler::enabled();
        p.begin("solve", t(0));
        p.begin("smooth", t(10));
        p.end("smooth", t(40));
        p.begin("smooth", t(50));
        p.end("smooth", t(70));
        p.end("solve", t(100));

        let solve = p.stage("solve").unwrap();
        assert_eq!(solve.count, 1);
        assert_eq!(solve.inclusive, t(100));
        assert_eq!(solve.exclusive, t(50)); // 100 - (30 + 20)

        let smooth = p.stage("solve/smooth").unwrap();
        assert_eq!(smooth.count, 2);
        assert_eq!(smooth.inclusive, t(50));
        assert_eq!(smooth.exclusive, t(50));
        assert_eq!(p.root_time(), t(100));
    }

    #[test]
    fn deep_nesting_builds_paths() {
        let mut p = Profiler::enabled();
        p.begin("a", t(0));
        p.begin("b", t(1));
        p.begin("c", t(2));
        p.end("c", t(3));
        p.end("b", t(4));
        p.end("a", t(5));
        assert!(p.stage("a/b/c").is_some());
        assert_eq!(p.stage("a/b").unwrap().exclusive, t(2)); // 3 - 1
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_end_panics() {
        let mut p = Profiler::enabled();
        p.begin("a", t(0));
        p.end("b", t(1));
    }

    #[test]
    #[should_panic(expected = "no open stage")]
    fn end_without_begin_panics() {
        let mut p = Profiler::enabled();
        p.end("a", t(1));
    }

    #[test]
    #[should_panic(expected = "slash-free")]
    fn slash_in_name_panics() {
        let mut p = Profiler::enabled();
        p.begin("a/b", t(0));
    }

    #[test]
    fn merge_accumulates_across_ranks() {
        let mut a = Profiler::enabled();
        a.begin("x", t(0));
        a.end("x", t(10));
        let mut b = Profiler::enabled();
        b.begin("x", t(0));
        b.end("x", t(30));
        b.begin("y", t(30));
        b.end("y", t(35));
        a.merge(&b);
        assert_eq!(a.stage("x").unwrap().count, 2);
        assert_eq!(a.stage("x").unwrap().inclusive, t(40));
        assert_eq!(a.stage("y").unwrap().count, 1);
    }

    #[test]
    fn report_indents_children_and_sums_percent() {
        let mut p = Profiler::enabled();
        p.begin("solve", t(0));
        p.begin("smooth", t(0));
        p.end("smooth", t(60));
        p.end("solve", t(100));
        let r = p.report();
        assert!(r.contains("solve"));
        assert!(r.contains("  smooth"), "child must be indented:\n{r}");
        assert!(r.contains("100.0%"));
        assert!(r.contains("60.0%"));
    }

    #[test]
    fn imbalance_report_shows_spread_and_total_skew() {
        let mut a = Profiler::enabled();
        a.begin("solve", t(0));
        a.end("solve", t(100));
        let mut b = Profiler::enabled();
        b.begin("solve", t(0));
        b.end("solve", t(300));
        b.begin("pack", t(300));
        b.end("pack", t(350));
        let r = imbalance_report(&[a, b]);
        assert!(r.contains("solve"), "{r}");
        assert!(r.contains("3.0"), "solve ratio 300/100:\n{r}");
        // Only rank 1 ran "pack": min is zero, ratio is total skew.
        assert!(r.contains("inf"), "{r}");
    }

    #[test]
    fn closed_stage_reports_span() {
        let mut p = Profiler::enabled();
        p.begin("s", t(5));
        let c = p.end("s", t(9));
        assert_eq!(
            c,
            ClosedStage {
                path: "s".into(),
                start: t(5),
                end: t(9)
            }
        );
    }
}
