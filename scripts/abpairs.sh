#!/usr/bin/env bash
# A/B pairs on one hopbench workload: a parent revision against the
# working tree, run in alternating order, each side built from its own
# source tree into its own target directory.
#
#   scripts/abpairs.sh REV WORKLOAD N
#
# REV's committed files are exported with `git archive` (no worktree is
# registered, and the export is what a commit holds, nothing more) and
# built into their own CARGO_TARGET_DIR; the working tree is built into
# another. Reusing one target directory for both, or copying one into
# the other, lets cargo reuse the copied artifacts, and the two sides
# then run the same binary: the script refuses to run when the two
# `taxd` binaries are identical.
#
# Then N pairs of `benchmark/run.sh --workload WORKLOAD --trace 0` run,
# parent first in odd pairs and the change first in even ones. It prints
# one line per run, then for every end-to-end metric in BENCHMARK.json
# the parent and change medians with their quartiles and the number of
# pairs the change won (better in the metric's own direction).
#
# Environment:
#   ABPAIRS_DIR      where the export, both target directories and the
#                    run logs go (default: target/abpairs). Keep it off
#                    tmpfs: journal fsyncs would be free there.
#   ABPAIRS_SEED     passed as --seed (default: the benchmark's own), to
#                    check a claim on a seed not used while writing it.
#
# Run length is the benchmark's own, the same on both sides.
#
# Results go to the run logs under ABPAIRS_DIR, not benchmark/out: the
# script changes nothing under benchmark/ and never edits BENCHMARK.json.
set -euo pipefail

if [ "$#" -ne 3 ]; then
    echo "usage: $0 REV WORKLOAD N" >&2
    exit 2
fi
rev_arg="$1"
workload="$2"
pairs="$3"
case "$pairs" in '' | *[!0-9]* | 0)
    echo "abpairs: N must be a positive whole number, not '$pairs'" >&2
    exit 2
    ;;
esac

root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
rev="$(git -C "$root" rev-parse --verify "${rev_arg}^{commit}")"
short="$(git -C "$root" rev-parse --short "$rev")"
dir="${ABPAIRS_DIR:-$root/target/abpairs}"
mkdir -p "$dir"
dir="$(cd "$dir" && pwd)"

parent_src="$dir/parent-$short"
if [ ! -f "$parent_src/Cargo.toml" ]; then
    echo "abpairs: exporting $short to $parent_src" >&2
    rm -rf "$parent_src"
    mkdir -p "$parent_src"
    git -C "$root" archive "$rev" | tar -x -C "$parent_src"
fi

# The same two builds benchmark/run.sh makes, up front, so no timed run
# pays for a build.
build() {
    local src="$1" target="$2"
    echo "abpairs: building $src into $target" >&2
    CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
        --manifest-path "$src/Cargo.toml" --bin taxd
    CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
        --manifest-path "$src/benchmark/Cargo.toml"
}
build "$parent_src" "$dir/parent-target"
build "$root" "$dir/change-target"

if cmp -s "$dir/parent-target/release/taxd" "$dir/change-target/release/taxd"; then
    echo "abpairs: refusing to run: the parent and change taxd binaries are identical" >&2
    exit 1
fi

seed=()
if [ -n "${ABPAIRS_SEED:-}" ]; then
    seed=(--seed "$ABPAIRS_SEED")
fi
logs="$dir/runs-$short-$workload${ABPAIRS_SEED:+-seed$ABPAIRS_SEED}"
rm -rf "$logs"
mkdir -p "$logs"

# Runs one side once; its stdout is kept as $logs/<pair>-<side>.txt.
run_side() {
    local pair="$1" side="$2" src target log
    if [ "$side" = parent ]; then src="$parent_src"; else src="$root"; fi
    target="$dir/$side-target"
    log="$logs/$pair-$side.txt"
    if ! CARGO_TARGET_DIR="$target" bash "$src/benchmark/run.sh" \
        --workload "$workload" --trace 0 "${seed[@]}" \
        --out "$dir/out-$side" >"$log" 2>"$logs/$pair-$side.err"; then
        echo "abpairs: pair $pair $side failed (see $logs/$pair-$side.err)" >&2
        failed=1
    fi
    awk -v pair="$pair" -v side="$side" -v w="$workload" '
        $1 == w && NF == 5 { line = line sprintf(" %s=%s", $2, $3) }
        /^\{"correct"/ {
            match($0, /"correct": *[a-z]+/); correct = substr($0, RSTART + 10, RLENGTH - 10)
            gsub(/ /, "", correct)
            match($0, /"failed": *[0-9]+/); fails = substr($0, RSTART + 9, RLENGTH - 9)
            gsub(/ /, "", fails)
        }
        END { printf "pair %d %-6s correct=%s failed=%s%s\n", pair, side, correct, fails, line }
    ' "$log"
}

failed=0
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run_side "$pair" parent
        run_side "$pair" change
    else
        run_side "$pair" change
        run_side "$pair" parent
    fi
done

# Per metric: medians, quartiles (linear interpolation between order
# statistics) and the change's wins over its pair's parent run.
metrics="$(grep -o '"name": *"[a-z0-9_]*", *"unit": *"[^"]*", *"better": *"[a-z]*"' "$root/BENCHMARK.json" |
    sed 's/"name": *"\([^"]*\)".*"better": *"\([a-z]*\)"/\1 \2/')"
echo
printf '%-16s %28s %28s %8s %6s\n' metric "parent median [q1 q3]" "change median [q1 q3]" delta wins
while read -r metric better; do
    [ -n "$metric" ] || continue
    awk -v m="$metric" -v better="$better" -v w="$workload" -v pairs="$pairs" '
        function quantile(a, n, p,   h, lo) {
            h = (n - 1) * p; lo = int(h)
            return lo + 1 < n ? a[lo] + (h - lo) * (a[lo + 1] - a[lo]) : a[lo]
        }
        function sorted(src, n, dst,   i, j, t) {
            for (i = 0; i < n; i++) dst[i] = src[i]
            for (i = 1; i < n; i++) {
                t = dst[i]
                for (j = i - 1; j >= 0 && dst[j] > t; j--) dst[j + 1] = dst[j]
                dst[j + 1] = t
            }
        }
        FNR == 1 {
            k = split(FILENAME, parts, "/")
            split(parts[k], f, /[-.]/); pair = f[1]; side = f[2]
        }
        $1 == w && $2 == m && NF == 5 { v[side, pair] = $3 }
        END {
            n = 0
            for (i = 1; i <= pairs; i++) {
                if (!(("parent", i) in v) || !(("change", i) in v)) continue
                p[n] = v["parent", i] + 0; c[n] = v["change", i] + 0
                if ((better == "higher" && c[n] > p[n]) || (better == "lower" && c[n] < p[n])) wins++
                n++
            }
            if (n == 0) exit
            sorted(p, n, ps); sorted(c, n, cs)
            pm = quantile(ps, n, 0.5); cm = quantile(cs, n, 0.5)
            printf "%-16s %10.4g [%7.4g %7.4g] %10.4g [%7.4g %7.4g] %+7.1f%% %3d/%d\n",
                m, pm, quantile(ps, n, 0.25), quantile(ps, n, 0.75),
                cm, quantile(cs, n, 0.25), quantile(cs, n, 0.75),
                pm != 0 ? 100 * (cm - pm) / pm : 0, wins, n
        }
    ' "$logs"/*-parent.txt "$logs"/*-change.txt
done <<<"$metrics"

exit "$failed"
