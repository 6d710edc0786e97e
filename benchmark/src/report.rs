//! Result files: what `run` / `trace` / `all` write to
//! `out/results.json`, and `check`, which compares two of them against
//! the bounds in [`crate::metrics::END_TO_END`].

use std::fmt::Write as _;

use ncd_simnet::Json;

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::runner::num;
use crate::util::{HostTag, Summary};

pub const RESULTS_SCHEMA: u32 = 1;

/// One workload's numbers over all sets.
#[derive(Clone, Debug, Default)]
pub struct WorkloadResult {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end samples, one per set, in [`END_TO_END`] order.
    pub end_to_end: Vec<Vec<f64>>,
    /// Layer metrics of the traced run, in [`PER_LAYER`] order.
    pub per_layer: Vec<f64>,
}

impl WorkloadResult {
    /// Traced `run.wall_s` against the untraced median, in percent.
    pub fn trace_overhead_pct(&self) -> Option<f64> {
        let traced = PER_LAYER
            .iter()
            .position(|m| m.name == "run.wall_s")
            .and_then(|i| self.per_layer.get(i))?;
        let untraced = Summary::of(self.end_to_end.first().filter(|v| !v.is_empty())?).median;
        Some(100.0 * (traced / untraced - 1.0))
    }
}

#[derive(Clone, Debug)]
pub struct Results {
    pub host: HostTag,
    pub seed: u64,
    pub seconds: f64,
    pub sets: usize,
    pub quick: bool,
    pub workloads: Vec<WorkloadResult>,
}

/// Host strings (CPU model, rustc version) are printable ASCII; quotes
/// and backslashes are all that needs escaping.
fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl Results {
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":{RESULTS_SCHEMA},\"host\":{{\"nproc\":{},\"cpu\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\"}},\
             \"seed\":{},\"seconds\":{},\"sets\":{},\"quick\":{},\"workloads\":[",
            self.host.nproc,
            esc(&self.host.cpu),
            esc(&self.host.rustc),
            esc(&self.host.commit),
            self.seed,
            num(self.seconds),
            self.sets,
            self.quick
        );
        for (i, w) in self.workloads.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n{{\"name\":\"{}\",\"ops_attempted\":{},\"ops_failed\":{},\"end_to_end\":{{",
                w.name, w.attempted, w.failed
            );
            for (j, (def, samples)) in END_TO_END.iter().zip(&w.end_to_end).enumerate() {
                if samples.is_empty() {
                    continue;
                }
                let s = Summary::of(samples);
                let sep = if j == 0 { "" } else { "," };
                let _ = write!(
                    out,
                    "{sep}\n \"{}\":{{\"unit\":\"{}\",\"median\":{},\"q1\":{},\"q3\":{},\"min\":{},\"max\":{},\"n\":{}}}",
                    def.name, def.unit, num(s.median), num(s.q1), num(s.q3), num(s.min), num(s.max), s.n
                );
            }
            out.push_str("},\"per_layer\":{");
            for (j, (def, v)) in PER_LAYER.iter().zip(&w.per_layer).enumerate() {
                let sep = if j == 0 { "" } else { "," };
                let _ = write!(
                    out,
                    "{sep}\n \"{}\":{{\"unit\":\"{}\",\"value\":{}}}",
                    def.name,
                    def.unit,
                    num(*v)
                );
            }
            out.push('}');
            if let Some(pct) = w.trace_overhead_pct() {
                let _ = write!(out, ",\"trace_overhead_pct\":{}", num(pct));
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }

    /// Every metric by name with its unit.
    pub fn render(&self) -> String {
        let mut out = format!(
            "host: {} x {} | {} | commit {}\nseed {} | {} s per run | {} set(s){}\n",
            self.host.nproc,
            self.host.cpu,
            self.host.rustc,
            self.host.commit,
            self.seed,
            num(self.seconds),
            self.sets,
            if self.quick {
                " | QUICK sizes: not for numbers"
            } else {
                ""
            }
        );
        for w in &self.workloads {
            let _ = writeln!(
                out,
                "\n== {} (ops attempted {}, failed {})",
                w.name, w.attempted, w.failed
            );
            for (def, samples) in END_TO_END.iter().zip(&w.end_to_end) {
                if samples.is_empty() {
                    continue;
                }
                let s = Summary::of(samples);
                let _ = writeln!(
                    out,
                    "  {:<28} {:>14.4} {:<4} q1 {:.4} q3 {:.4} min {:.4} max {:.4} n {}",
                    def.name, s.median, def.unit, s.q1, s.q3, s.min, s.max, s.n
                );
            }
            if let Some(pct) = w.trace_overhead_pct() {
                let _ = writeln!(out, "  {:<28} {pct:>14.2} %", "trace_overhead_pct");
            }
            for (def, v) in PER_LAYER.iter().zip(&w.per_layer) {
                let _ = writeln!(out, "  {:<28} {:>14} {}", def.name, num(*v), def.unit);
            }
        }
        out
    }
}

fn summary_of(w: &Json, def: &MetricDef) -> Option<Summary> {
    let m = w.get("end_to_end")?.get(def.name)?;
    let f = |k: &str| m.get(k).and_then(Json::as_f64);
    Some(Summary {
        median: f("median")?,
        q1: f("q1")?,
        q3: f("q3")?,
        min: f("min")?,
        max: f("max")?,
        n: f("n")? as usize,
    })
}

/// How one end-to-end metric of one workload compares, B against A.
fn verdict(def: &MetricDef, a: &Summary, b: &Summary) -> (String, bool) {
    if def.exact {
        return if a.median == b.median {
            ("same".to_string(), true)
        } else {
            (
                format!("CHANGED {} -> {}", num(a.median), num(b.median)),
                false,
            )
        };
    }
    let delta = (b.median - a.median) / a.median;
    let spread = a.spread().max(b.spread());
    if spread > def.bound {
        (
            format!(
                "unresolved {:+.1}% (spread {:.1}%)",
                delta * 100.0,
                spread * 100.0
            ),
            true,
        )
    } else if delta > def.bound {
        (format!("REGRESS {:+.1}%", delta * 100.0), false)
    } else {
        (format!("pass {:+.1}%", delta * 100.0), true)
    }
}

/// Compare result file `b` against baseline `a`: one row per workload,
/// pass / regress / unresolved per end-to-end metric against its bound,
/// exact equality for simulated time and every count. Returns the table
/// and whether nothing regressed or changed.
pub fn check(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let list = |j: &Json| -> Result<Vec<Json>, String> {
        j.get("workloads")
            .and_then(Json::as_array)
            .map(<[Json]>::to_vec)
            .ok_or_else(|| "not a results file: no workloads".to_string())
    };
    let (wa, wb) = (list(a)?, list(b)?);
    let seeds = (
        a.get("seed").and_then(Json::as_f64),
        b.get("seed").and_then(Json::as_f64),
    );
    let mut out = String::new();
    let mut ok = true;
    if seeds.0 != seeds.1 {
        let _ = writeln!(
            out,
            "seeds differ ({:?} vs {:?}): simulated times and counts are expected to differ",
            seeds.0, seeds.1
        );
    }
    let _ = write!(out, "{:<22}", "workload");
    for def in &END_TO_END {
        let rule = if def.exact {
            format!("exact, <= {:.0}% across seeds", def.bound * 100.0)
        } else {
            format!("<= {:.0}%", def.bound * 100.0)
        };
        let _ = write!(out, " | {:<30}", format!("{} ({rule})", def.name));
    }
    out.push_str(" | ops\n");
    for w in &wa {
        let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(other) = wb
            .iter()
            .find(|x| x.get("name").and_then(Json::as_str) == Some(name))
        else {
            let _ = writeln!(out, "{name:<22} | MISSING from the second file");
            ok = false;
            continue;
        };
        let _ = write!(out, "{name:<22}");
        for def in &END_TO_END {
            let cell = match (summary_of(w, def), summary_of(other, def)) {
                (Some(sa), Some(sb)) => {
                    let (text, pass) = verdict(def, &sa, &sb);
                    ok &= pass || (def.exact && seeds.0 != seeds.1);
                    text
                }
                _ => "-".to_string(),
            };
            let _ = write!(out, " | {cell:<30}");
        }
        let failed = |j: &Json| {
            j.get("ops_failed")
                .and_then(Json::as_u64)
                .unwrap_or(u64::MAX)
        };
        let (fa, fb) = (failed(w), failed(other));
        ok &= fa == 0 && fb == 0;
        let _ = writeln!(out, " | failed {fa} / {fb}");
        // Exact layer metrics: counts and simulated times.
        if seeds.0 == seeds.1 {
            for def in PER_LAYER.iter().filter(|d| d.exact) {
                let v = |j: &Json| {
                    j.get("per_layer")
                        .and_then(|p| p.get(def.name))
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64)
                };
                if let (Some(va), Some(vb)) = (v(w), v(other)) {
                    if va != vb {
                        let _ = writeln!(out, "  CHANGED {}: {} -> {}", def.name, num(va), num(vb));
                        ok = false;
                    }
                }
            }
        }
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, half_iqr: f64) -> Summary {
        Summary {
            median,
            q1: median - half_iqr,
            q3: median + half_iqr,
            min: median - 2.0 * half_iqr,
            max: median + 2.0 * half_iqr,
            n: 5,
        }
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        let wall = END_TO_END[0];
        let (inside, outside) = (1.0 + wall.bound / 2.0, 1.0 + wall.bound * 2.0);
        assert!(verdict(&wall, &s(1.0, 0.01), &s(inside, 0.01))
            .0
            .starts_with("pass"));
        assert!(verdict(&wall, &s(1.0, 0.01), &s(outside, 0.01))
            .0
            .starts_with("REGRESS"));
        assert!(verdict(&wall, &s(1.0, wall.bound), &s(outside, 0.01))
            .0
            .starts_with("unresolved"));
        assert!(
            verdict(&wall, &s(1.0, 0.01), &s(0.5, 0.01)).1,
            "faster is never a regression"
        );
        let sim = END_TO_END[1];
        assert_eq!(
            verdict(&sim, &s(7.0, 0.0), &s(7.0, 0.0)),
            ("same".to_string(), true)
        );
        assert!(!verdict(&sim, &s(7.0, 0.0), &s(7.001, 0.0)).1);
    }
}
