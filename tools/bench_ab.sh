#!/usr/bin/env bash
# A/B the frozen benchmark (benchmark/) between two trees and write the
# result as BENCH_<pr>.json at the repository root.
#
#   tools/bench_ab.sh --pr N [--base REV] [--head REV] [--pairs N]
#                     [--unused-pairs M] [--workloads "a b ..."]
#                     [--sim-moves "a b"] [--scratch DIR]
#
# --head defaults to the working tree (tracked and untracked-but-not-ignored
# files, so an uncommitted change can be measured). --base defaults to the
# head's parent: HEAD^ when --head names a commit or the working tree is
# clean, HEAD when the working tree holds a change. Each side is exported
# into its own directory under --scratch (default $TMPDIR/bench_ab) with
# `git archive` and built once, with its own CARGO_TARGET_DIR. Then, per
# workload, --pairs alternating child runs (`ncd-benchmark --workload W
# --seed S --trace 0` at the benchmark's own DEFAULT_SECONDS) at the
# benchmark's DEFAULT_SEED and --unused-pairs (default --pairs) at
# UNUSED_SEED: odd pairs run the base first, even pairs the head first.
# Then PROBE_RUNS `ncd-benchmark trace` runs per side, paired and ordered
# the same way, give the per-layer probe snapshot and the stage table.
#
# The entry holds, per seed, workload and end-to-end metric, both sides'
# runs with median and quartiles, the head/base ratio of the medians, the
# pairs the head won, and whether the median gap exceeds the base's
# interquartile range; plus the host tag, every MALLOC_* variable in the
# environment, and the workloads whose simulated makespan is expected to
# move (--sim-moves; CI checks every other one is equal on both sides).
# Its `stages` fold each probe run's trace_<workload>.json: host
# microseconds per span name summed over the traced rounds, a `check` span
# named after the stage it checks. Per stage, each side holds its median,
# min and max over the probe runs, and the ratio is head median over base
# median; a ratio is `within_noise` when the two sides' min-max ranges
# overlap, since one probe run per side cannot tell a change from the
# box's swing. Set-up steps (the children of the `setup` span) are listed
# apart, under `stages.setup_envelopes` and as `envelope` lines: each is
# the earliest start to the latest end of that step over all ranks, so
# they overlap one another (one rank's step can sit inside another's) and
# do not add up. Its `layout` holds each side's `Observe::amr_loop` address
# and class (address % 64) from `nm -C` of that side's binary: `observe_64`
# `setup_s` follows that class, not the change, and a warning goes to
# stderr when the two classes differ and one of them is 0.
set -euo pipefail

repo="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
# A seed no change is written against; the benchmark's default is the other.
UNUSED_SEED=9173
# `ncd-benchmark trace` runs per side behind the probe snapshot and stages.
PROBE_RUNS=3
pr="" base="" head="" pairs=10 unused_pairs="" workloads="" sim_moves=""
scratch="${TMPDIR:-/tmp}/bench_ab"
while [ $# -gt 0 ]; do
    case "$1" in
        --pr) pr="$2"; shift 2 ;;
        --base) base="$2"; shift 2 ;;
        --head) head="$2"; shift 2 ;;
        --pairs) pairs="$2"; shift 2 ;;
        --unused-pairs) unused_pairs="$2"; shift 2 ;;
        --workloads) workloads="$2"; shift 2 ;;
        --sim-moves) sim_moves="$2"; shift 2 ;;
        --scratch) scratch="$2"; shift 2 ;;
        *) sed -n '2,41p' "${BASH_SOURCE[0]}" >&2; exit 2 ;;
    esac
done
[ -n "$pr" ] || { echo "bench_ab.sh: --pr is required" >&2; exit 2; }
out="$repo/BENCH_$pr.json"
unused_pairs="${unused_pairs:-$pairs}"
if [ -z "$base" ]; then
    if [ -n "$head" ]; then
        base="$head^"
    elif [ -z "$(git -C "$repo" status --porcelain --untracked-files=normal)" ]; then
        base="HEAD^"
    else
        base="HEAD"
    fi
fi
if [ -z "$workloads" ]; then
    workloads="$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$repo/BENCHMARK.json")"
fi

# Export one side into $scratch/<side>/tree and build its benchmark.
export_tree() {
    local side="$1" rev="$2" dir="$scratch/$1/tree"
    rm -rf "$dir"
    mkdir -p "$dir"
    if [ -z "$rev" ]; then
        # A tracked file the working tree deleted is listed but not there.
        git -C "$repo" ls-files -z -c -o --exclude-standard |
            (cd "$repo" && while IFS= read -r -d '' f; do
                if [ -e "$f" ]; then printf '%s\0' "$f"; fi
            done | tar --null -T - -cf -) | tar -xf - -C "$dir"
    else
        git -C "$repo" archive "$rev" | tar -xf - -C "$dir"
    fi
    echo "bench_ab.sh: building $side (${rev:-working tree})" >&2
    CARGO_TARGET_DIR="$scratch/$side/target" cargo build --release --offline --quiet \
        --manifest-path "$dir/benchmark/Cargo.toml"
}
export_tree base "$base"
export_tree head "$head"
bin() { echo "$scratch/$1/target/release/ncd-benchmark"; }
# "<address> <address % 64>" of `Observe::amr_loop` in a side's binary, or
# nothing when nm cannot read it.
amr_loop() {
    local a
    a="$(nm -C "$(bin "$1")" 2>/dev/null |
        sed -n 's/^\([0-9a-f]*\) [tT] .*Observe::amr_loop$/\1/p' | head -n 1 || true)"
    if [ -n "$a" ]; then echo "0x$a $((16#$a % 64))"; fi
}
base_layout="$(amr_loop base)" head_layout="$(amr_loop head)"
base_class="${base_layout#* }" head_class="${head_layout#* }"
if [ -n "$base_layout" ] && [ -n "$head_layout" ] && [ "$base_class" != "$head_class" ] &&
    { [ "$base_class" = 0 ] || [ "$head_class" = 0 ]; }; then
    echo "bench_ab.sh: warning: Observe::amr_loop is at % 64 = $base_class (base)" \
        "and $head_class (head); observe_64 setup_s follows that class" >&2
fi
base_rev="$(git -C "$repo" rev-parse "$base")"
head_rev="$( [ -n "$head" ] && git -C "$repo" rev-parse "$head" || echo "working tree on $(git -C "$repo" rev-parse HEAD)")"

runs="$scratch/runs.jsonl"
: > "$runs"
# One child run; appends {"seed","workload","side","pair","result"} to $runs.
child() {
    local side="$1" w="$2" s="$3" pair="$4" line
    line="$(cd "$scratch/$side/tree" && "$(bin "$side")" --workload "$w" --seed "$s" \
        --trace 0 2>/dev/null | tail -n 1)"
    printf '{"seed":%s,"workload":"%s","side":"%s","pair":%s,"result":%s}\n' \
        "$s" "$w" "$side" "$pair" "$line" >> "$runs"
}
runner="$scratch/head/tree/benchmark/src/runner.rs"
seed="$(sed -n 's/^pub const DEFAULT_SEED: u64 = \([0-9]*\);/\1/p' "$runner")"
seconds="$(sed -n 's/^pub const DEFAULT_SECONDS: f64 = \([0-9.]*\);/\1/p' "$runner")"
[ -n "$seed" ] && [ -n "$seconds" ] || { echo "bench_ab.sh: no DEFAULT_SEED / DEFAULT_SECONDS in $runner" >&2; exit 1; }
for w in $workloads; do
    for spec in "$seed:$pairs" "$UNUSED_SEED:$unused_pairs"; do
        s="${spec%%:*}" n="${spec##*:}"
        for ((p = 1; p <= n; p++)); do
            echo "bench_ab.sh: $w seed $s pair $p/$n" >&2
            if ((p % 2)); then
                child base "$w" "$s" "$p"; child head "$w" "$s" "$p"
            else
                child head "$w" "$s" "$p"; child base "$w" "$s" "$p"
            fi
        done
    done
done

# One trace probe run; keeps its out/ files as $scratch/probes/<side>/<run>.
probe() {
    local side="$1" run="$2" dir="$scratch/$1/tree/benchmark/out"
    rm -f "$dir"/results.json "$dir"/trace_*.json
    echo "bench_ab.sh: trace probe $run/$PROBE_RUNS, $side" >&2
    (cd "$scratch/$side/tree" && "$(bin "$side")" trace > /dev/null 2>&1)
    mkdir -p "$scratch/probes/$side/$run"
    cp "$dir"/results.json "$dir"/trace_*.json "$scratch/probes/$side/$run/" 2>/dev/null || true
}
rm -rf "$scratch/probes"
for ((p = 1; p <= PROBE_RUNS; p++)); do
    if ((p % 2)); then
        probe base "$p"; probe head "$p"
    else
        probe head "$p"; probe base "$p"
    fi
done

python3 - "$repo/BENCHMARK.json" "$runs" "$scratch" "$out" "$pr" "$base_rev" "$head_rev" \
    "$pairs" "$unused_pairs" "$seconds" "$sim_moves" "$PROBE_RUNS" "$base_layout" "$head_layout" <<'EOF'
import json, os, platform, subprocess, sys
(bench, runs, scratch, out, pr, base_rev, head_rev, pairs, unused_pairs, seconds, sim_moves,
 probe_runs, base_layout, head_layout) = sys.argv[1:]
end_to_end = json.load(open(bench))["end_to_end"]

def summary(v):
    """Median and quartiles by the benchmark's own rule (exclusive, k(n+1)/4)."""
    v = sorted(v)
    n = len(v)
    def q(k):
        if n == 1:
            return v[0]
        pos = k * (n + 1) / 4
        j = min(max(int(pos), 1), n - 1)
        return v[j - 1] + (v[j] - v[j - 1]) * (pos - j)
    return {"median": q(2), "q1": q(1), "q3": q(3), "min": v[0], "max": v[-1], "n": n}

lines = [json.loads(l) for l in open(runs)]
entry_seeds = []
for seed in dict.fromkeys(l["seed"] for l in lines):
    workloads = {}
    for w in dict.fromkeys(l["workload"] for l in lines if l["seed"] == seed):
        mine = [l for l in lines if l["seed"] == seed and l["workload"] == w]
        by = {s: {l["pair"]: l["result"] for l in mine if l["side"] == s} for s in ("base", "head")}
        row = {"correct": {s: all(r["correct"] for r in by[s].values()) for s in by},
               "failed": {s: sum(r["failed"] for r in by[s].values()) for s in by}}
        for m in end_to_end:
            name, lower = m["name"], m["better"] == "lower"
            vals = {s: {p: r["metrics"][name]["value"] for p, r in by[s].items()
                        if name in r["metrics"]} for s in by}
            if not vals["base"] or not vals["head"]:
                continue
            sb, sh = summary(list(vals["base"].values())), summary(list(vals["head"].values()))
            both = sorted(set(vals["base"]) & set(vals["head"]))
            won = sum((vals["head"][p] < vals["base"][p]) if lower else (vals["head"][p] > vals["base"][p])
                      for p in both)
            gap = (sb["median"] - sh["median"]) if lower else (sh["median"] - sb["median"])
            row[name] = {
                "unit": m["unit"], "better": m["better"],
                "base": dict(sb, runs=[vals["base"][p] for p in sorted(vals["base"])]),
                "head": dict(sh, runs=[vals["head"][p] for p in sorted(vals["head"])]),
                "ratio": sh["median"] / sb["median"] if sb["median"] else None,
                "pairs_won": won, "pairs": len(both),
                "gap_exceeds_base_iqr": gap > sb["q3"] - sb["q1"],
            }
        workloads[w] = row
    entry_seeds.append({"seed": seed, "workloads": workloads})

def probe_files(side, name):
    """`name` from each of the side's probe runs that wrote it, in run order."""
    runs = [os.path.join(scratch, "probes", side, str(i), name)
            for i in range(1, int(probe_runs) + 1)]
    return [p for p in runs if os.path.exists(p)]

def probe_snapshot(side):
    results = [json.load(open(p)) for p in probe_files(side, "results.json")]
    if not results:
        return None
    rows = [w for res in results for w in res["workloads"]]
    snap = {}
    for k in dict.fromkeys(k for w in rows for k in w["per_layer"]):
        v = [w["per_layer"][k]["value"] for w in rows if k in w["per_layer"]]
        unit = next(w["per_layer"][k]["unit"] for w in rows if k in w["per_layer"])
        snap[k] = {"unit": unit, **summary(v)}
    return {"seed": results[0]["seed"], "runs": len(rows), "probes": snap}

def span_totals(path):
    """(measured totals by span name, set-up step envelopes by name)."""
    spans = json.load(open(path))["spans"]
    setup = {s["id"] for s in spans if s["name"] == "setup"}
    totals, envelopes, stage = {}, {}, None
    for s in spans:
        name = s["name"]
        if s["parent"] in setup:
            envelopes[name] = envelopes.get(name, 0.0) + s["end"] - s["start"]
            continue
        if name == "check":
            name = f"{stage}/check"
        elif name != "sync":
            stage = name
        totals[name] = totals.get(name, 0.0) + s["end"] - s["start"]
    return totals, envelopes

def stages():
    def spread(v):
        s = summary(v)
        return {"median": s["median"], "min": s["min"], "max": s["max"], "runs": v}
    def sides(base, head):
        """Per name, each side's spread over its probe runs and their ratio."""
        out = {}
        for name in dict.fromkeys(n for run in base for n in run):
            b = spread([run[name] for run in base if name in run])
            h = [run[name] for run in head if name in run]
            if not h:
                continue
            h = spread(h)
            out[name] = {"base": b, "head": h,
                         "ratio": h["median"] / b["median"] if b["median"] else None,
                         "within_noise": b["min"] <= h["max"] and h["min"] <= b["max"]}
        return out
    out, envelopes = {}, {}
    for w in dict.fromkeys(l["workload"] for l in lines):
        base, head = ([span_totals(p) for p in probe_files(side, f"trace_{w}.json")]
                      for side in ("base", "head"))
        if not base or not head:
            continue
        out[w] = sides([t for t, _ in base], [t for t, _ in head])
        envelopes[w] = sides([e for _, e in base], [e for _, e in head])
    return {"unit": "us", "probe_runs": int(probe_runs), "workloads": out, "setup_envelopes": {
        "note": "first rank in to last rank out per set-up step: envelopes overlap, never add them",
        "workloads": envelopes}}

def first_line(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        return "unknown"

cpu = next((l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo") if l.startswith("model name")),
           "unknown") if os.path.exists("/proc/cpuinfo") else platform.processor()
entry = {
    "pr": int(pr),
    "base": base_rev, "head": head_rev,
    "host": {"nproc": os.cpu_count(), "cpu": cpu, "rustc": first_line(["rustc", "--version"]),
             "kernel": platform.release()},
    "malloc_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("MALLOC_")},
    "seconds": float(seconds), "pairs": int(pairs), "unused_pairs": int(unused_pairs),
    "sim_moves": sim_moves.split(),
    "seeds": entry_seeds,
    "probes": {"base": probe_snapshot("base"), "head": probe_snapshot("head")},
    "stages": stages(),
    "layout": {side: {"amr_loop": hex(int(a.split()[0], 16)), "mod64": int(a.split()[1])} if a else None
               for side, a in (("base", base_layout), ("head", head_layout))},
}
with open(out, "w") as f:
    json.dump(entry, f, indent=1)
    f.write("\n")
for s in entry_seeds:
    for w, row in s["workloads"].items():
        for name, m in row.items():
            if isinstance(m, dict) and "ratio" in m:
                ratio = "-" if m["ratio"] is None else f"x{m['ratio']:.3f}"
                print(f"seed {s['seed']:>9} {w:<20} {name:<16} base {m['base']['median']:.6g} "
                      f"head {m['head']['median']:.6g} {ratio} won {m['pairs_won']}/{m['pairs']}"
                      f"{' gap>IQR' if m['gap_exceeds_base_iqr'] else ''}")
for kind, table in (("stage", entry["stages"]["workloads"]),
                    ("envelope", entry["stages"]["setup_envelopes"]["workloads"])):
    for w, spans in table.items():
        for name, m in spans.items():
            ratio = "-" if m["ratio"] is None else f"x{m['ratio']:.3f}"
            b, h = m["base"], m["head"]
            print(f"{kind:<8} {w:<20} {name:<28} base {b['median']:.0f} us "
                  f"[{b['min']:.0f}-{b['max']:.0f}] head {h['median']:.0f} us "
                  f"[{h['min']:.0f}-{h['max']:.0f}] {ratio}"
                  f"{' within noise' if m['within_noise'] else ''}")
print(f"wrote {out}")
EOF
