#!/usr/bin/env bash
# A/A check: two sets of runs of the SAME build must agree within the
# bounds BENCHMARK.json fixes, on every workload x end-to-end metric.
#
#   bench_ladder/aa_check.sh [runs-per-set (default 3, calibration 10)] [out-dir]
#
# Runs alternate between the two sets (A B, B A, A B, ...) so that a
# drift of the host lands on both. Exits non-zero if any cell disagrees
# beyond its bound, or is unresolved (spread wider than the bound).
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
runs=${1:-3}
out=${2:-$here/out/aa}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin=${CARGO_TARGET_DIR:-$here/target}/release/bench_ladder

rm -rf "$out"
mkdir -p "$out/A" "$out/B"
for i in $(seq 1 "$runs"); do
    if (( i % 2 )); then order="A B"; else order="B A"; fi
    for side in $order; do
        for workload in $("$bin" list); do
            "$bin" --workload "$workload" --seed "$i" --seconds "$seconds" --trace 0 \
                --out "$out/$side" > "$out/$side/$workload.seed$i.log"
        done
    done
done
"$bin" compare "$out/A" "$out/B" --symmetric
