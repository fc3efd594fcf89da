#!/usr/bin/env bash
# Repeatability self-test: runs the full benchmark twice on this tree
# (same seed) and asserts that count and sim metrics read identically
# and host metrics agree within the bounds in BENCHMARK.json. Prints
# the observed distance per metric. Arguments are passed to run.sh
# (e.g. --seed 7, --seconds 6, --trace).
#
# If host_ns_per_pkt disagrees by more than its bound: first lengthen
# the run (--seconds / run_seconds), only then widen the bound in
# BENCHMARK.json, and record the measured spread in README.md.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p benchmark/out

# A failed output check already fails run.sh; keep going so the
# comparison still prints, and fail at the end.
status=0
benchmark/run.sh "$@" >benchmark/out/check-1.txt || status=1
benchmark/run.sh "$@" >benchmark/out/check-2.txt || status=1
benchmark/run.sh --compare benchmark/out/check-1.txt benchmark/out/check-2.txt || status=1
exit "$status"
