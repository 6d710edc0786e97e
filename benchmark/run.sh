#!/usr/bin/env bash
# Build the benchmark and run one of its commands (default: all).
#
#   benchmark/run.sh [run|trace|all|one <workload>|check A.json B.json] [flags]
#
# Takes a lock so two instances never overlap: the reference box has two
# cores and every number here is a host timing.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/out"
exec 9>"$here/out/.lock"
if ! flock -n 9; then
    echo "benchmark/run.sh: another instance holds $here/out/.lock" >&2
    exit 3
fi
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
target="${CARGO_TARGET_DIR:-$here/target}"
if [ $# -eq 0 ]; then
    set -- all
fi
"$target/release/ncd-benchmark" "$@"
