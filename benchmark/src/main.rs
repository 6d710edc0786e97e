//! Command line of the benchmark. See `README.md` in this directory.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use ncd_benchmark::metrics::{END_TO_END, PER_LAYER};
use ncd_benchmark::report::{check, Results, WorkloadResult};
use ncd_benchmark::runner::{default_out_dir, run_one, Opts, DEFAULT_SECONDS, DEFAULT_SEED};
use ncd_benchmark::util::HostTag;
use ncd_benchmark::workloads::WORKLOADS;
use ncd_simnet::{parse_json, Json};

const USAGE: &str = "usage:
  ncd-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
      one workload run in this process; prints every metric by name, and as
      the last line of stdout one JSON object (correct, attempted, failed, metrics)
  ncd-benchmark one <workload> [flags]     the same
  ncd-benchmark run   [--seed N] [--sets K] [--seconds S] [--quick]
      K sets of end-to-end runs, bench tracing off, one child per workload run
  ncd-benchmark trace [--seed N] [--quick]  one traced run per workload + layer probes
  ncd-benchmark all   [flags]               both, plus the tracing overhead
  ncd-benchmark check A.json B.json         compare two result files against the bounds
run / trace / all write out/results.json and out/trace_<workload>.json";

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    sets: usize,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        sets: 5,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{a} needs a value\n{USAGE}"))
        };
        let bad = |what: &str, v: &str| format!("{a}: {v:?} is not {what}");
        match a.as_str() {
            "--workload" => f.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                f.seed = v.parse().map_err(|_| bad("a u64", v))?;
            }
            "--seconds" => {
                let v = value()?;
                f.seconds = v.parse().map_err(|_| bad("a number", v))?;
                if !(f.seconds > 0.0 && f.seconds <= 60.0) {
                    return Err(bad("within (0, 60]", v));
                }
            }
            "--trace" => {
                let v = value()?;
                f.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1", v)),
                };
            }
            "--sets" => {
                let v = value()?;
                f.sets = v.parse().map_err(|_| bad("a count", v))?;
                if f.sets == 0 {
                    return Err(bad("at least 1", v));
                }
            }
            "--quick" => f.quick = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(f)
}

/// Child mode: run one workload here.
fn one(f: &Flags) -> Result<(), String> {
    let workload = f
        .workload
        .clone()
        .ok_or(format!("no workload named\n{USAGE}"))?;
    let outcome = run_one(&Opts {
        workload,
        seed: f.seed,
        seconds: f.seconds,
        trace: f.trace,
        quick: f.quick,
        out_dir: default_out_dir(),
    })?;
    eprint!("{}", outcome.render());
    println!("{}", outcome.to_json());
    Ok(())
}

/// Spawn one child run and parse the result object it prints last.
/// Children run strictly one after another: `peak_rss_mib` is the child's
/// own `VmHWM`, and no process-global state leaks between runs.
fn child(f: &Flags, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &f.seed.to_string()])
        .args(["--seconds", &f.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        // The child's own table (raw rounds, yardstick slowdowns, every
        // metric) scrolls by as the base of the summary printed at the end.
        .stderr(Stdio::inherit());
    if f.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child for {workload} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    parse_json(last).map_err(|e| format!("child result for {workload}: {e}"))
}

fn metric_value(result: &Json, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("child result lacks {name}"))
}

fn parent(f: &Flags, untraced: bool, traced: bool) -> Result<bool, String> {
    let mut results = Results {
        host: HostTag::collect(),
        seed: f.seed,
        seconds: f.seconds,
        sets: if untraced { f.sets } else { 0 },
        quick: f.quick,
        workloads: WORKLOADS
            .iter()
            .map(|w| WorkloadResult {
                name: w.0.to_string(),
                end_to_end: vec![Vec::new(); END_TO_END.len()],
                ..Default::default()
            })
            .collect(),
    };
    let record = |w: &mut WorkloadResult, r: Result<Json, String>| -> Option<Json> {
        match r {
            Ok(j) => {
                w.attempted += j.get("attempted").and_then(Json::as_u64).unwrap_or(0);
                w.failed += j.get("failed").and_then(Json::as_u64).unwrap_or(0);
                Some(j)
            }
            Err(e) => {
                // A child that died counts as one failed operation.
                eprintln!("  {e}");
                w.attempted += 1;
                w.failed += 1;
                None
            }
        }
    };
    if untraced {
        // Workloads interleave round-robin inside a set, so host drift
        // hits all of them equally.
        for set in 0..f.sets {
            for w in results.workloads.iter_mut() {
                eprintln!("set {}/{}: {}", set + 1, f.sets, w.name);
                let Some(j) = record(w, child(f, &w.name, false)) else {
                    continue;
                };
                for (def, samples) in END_TO_END.iter().zip(w.end_to_end.iter_mut()) {
                    samples.push(metric_value(&j, def.name)?);
                }
            }
        }
    }
    if traced {
        for w in results.workloads.iter_mut() {
            eprintln!("traced: {}", w.name);
            let Some(j) = record(w, child(f, &w.name, true)) else {
                continue;
            };
            w.per_layer = PER_LAYER
                .iter()
                .map(|def| metric_value(&j, def.name))
                .collect::<Result<_, _>>()?;
        }
    }
    print!("{}", results.render());
    let path = default_out_dir().join("results.json");
    std::fs::write(&path, results.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nwritten: {}", path.display());
    Ok(results.workloads.iter().all(|w| w.failed == 0))
}

fn check_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(PathBuf::from(p))
            .map_err(|e| format!("cannot read {p}: {e}"))?;
        parse_json(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (table, ok) = check(&load(a)?, &load(b)?)?;
    print!("{table}");
    println!("{}", if ok { "check: ok" } else { "check: FAILED" });
    Ok(ok)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (cmd, rest) = match args.first() {
        None => return Err(USAGE.to_string()),
        Some(a) if a.starts_with("--") => ("one", args),
        Some(a) => (a.as_str(), &args[1..]),
    };
    match cmd {
        "one" => {
            // `one <workload>` names the workload positionally.
            let (flags, positional) = match rest.first() {
                Some(w) if !w.starts_with("--") => (&rest[1..], Some(w.clone())),
                _ => (rest, None),
            };
            let mut f = parse_flags(flags)?;
            f.workload = f.workload.or(positional);
            one(&f).map(|()| true)
        }
        "run" => parent(&parse_flags(rest)?, true, false),
        "trace" => parent(&parse_flags(rest)?, false, true),
        "all" => parent(&parse_flags(rest)?, true, true),
        "check" => match rest {
            [a, b] => check_files(a, b),
            _ => Err(format!("check takes two result files\n{USAGE}")),
        },
        "help" | "-h" => {
            println!("{USAGE}");
            Ok(true)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
