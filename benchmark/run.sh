#!/usr/bin/env bash
# hopbench: builds taxd and the harness, then runs the benchmark.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace 0|1|both] [--smoke] [--repeat K]
#
# With --workload the last stdout line is that workload's result as one
# JSON object; without it every workload runs in order. Either way
# benchmark/out/latest.json holds the last results. See README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for both builds, so the harness reuses the library
# artifacts taxd was linked from. Made absolute: cargo resolves a relative
# CARGO_TARGET_DIR against its own working directory.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin taxd
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

# Run directories (journals, daemon logs) live under the target directory,
# not /tmp: tmpfs would make every fsync free.
exec "$target/release/hopbench" \
    --taxd "$target/release/taxd" \
    --scratch "$target/hopbench" \
    --out "$here/out" \
    --spec "$root/BENCHMARK.json" \
    "$@"
