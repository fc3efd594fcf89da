#!/usr/bin/env bash
# The repo benchmark (see benchmark/README.md).
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
#   benchmark/run.sh --compare FIRST.txt SECOND.txt
#
# Builds the benchmark package offline, then runs one child process
# per workload. Every metric is printed by name with its unit; the
# last line of each workload's output is its JSON result line. Exits
# non-zero if the build fails or any workload fails an output check.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
# cargo's own variable, read only to find what it just built.
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/ps-benchmark"

workload=all
args=()
while (($#)); do
    case "$1" in
        --compare) exec "$bin" "$@" ;;
        --workload)
            workload="${2:?--workload needs a name}"
            shift 2
            ;;
        *)
            args+=("$1")
            shift
            ;;
    esac
done

if [[ "$workload" != all ]]; then
    exec "$bin" --workload "$workload" ${args[@]+"${args[@]}"}
fi

status=0
for w in ipv4-64B-gpu-knee ipv4-64B-gpu-overload ipsec-1514B-gpu nat-imix-cpu minimal-64B-cpu; do
    "$bin" --workload "$w" ${args[@]+"${args[@]}"} || status=1
done
exit "$status"
