#!/usr/bin/env sh
# Runs the layer benchmarks (exp_layers: E9 parallel fleet, CoW migration
# and admission cache; E10 durable journal; E12 reactor transport; E13
# TaxScript compile tier) on one harness.
#
#   scripts/bench.sh           full run, writes BENCH_LAYERS.json at the
#                              repo root
#   scripts/bench.sh --smoke   small workloads, prints the report, writes
#                              nothing, and enforces every gate via
#                              --check (the CI smoke mode)
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "--smoke" ]; then
    echo "==> bench (smoke): exp_layers --smoke --check"
    cargo run -q --release -p tacoma-bench --bin exp_layers -- --smoke --check
else
    echo "==> bench: exp_layers -> BENCH_LAYERS.json"
    cargo run -q --release -p tacoma-bench --bin exp_layers -- --json > BENCH_LAYERS.json
    cat BENCH_LAYERS.json
fi
