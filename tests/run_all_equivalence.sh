#!/bin/bash
# Byte-identity of the deduplicated all-figures scheduler: the stdout
# of run_all must equal the concatenated stdouts of the 13 individual
# figure drivers, whether the disk cache is off, cold, or warm, and at
# any --jobs count; per-figure metrics documents must equal the
# drivers' --metrics-out files. Runs time-compressed (shape checks may
# FAIL at this scale — only identity is asserted), so driver exit
# status 1 is tolerated; any other nonzero status is a crash and fails
# the test loudly.
#
# Usage: run_all_equivalence.sh <build/bench dir>
#
# Exit status: 0 = pass; 1 = output mismatch or harness assertion;
# 2 = a binary under test crashed (killed by a signal / unrunnable).

set -euo pipefail

bindir=${1:?usage: run_all_equivalence.sh <bench dir>}
export MIDDLESIM_TIMESCALE=${MIDDLESIM_TIMESCALE:-0.05}
export MIDDLESIM_RUNS=1
unset MIDDLESIM_CACHE MIDDLESIM_QUICK MIDDLESIM_JOBS MIDDLESIM_CHECK

figures="fig04_scaling fig05_execmodes fig06_cpi fig07_datastall \
         fig08_c2c_ratio fig09_gc_effect fig10_c2c_timeline \
         fig11_livemem fig12_icache fig13_dcache fig14_comm_pct \
         fig15_comm_abs fig16_shared"

fail() { echo "FAIL: $*" >&2; exit 1; }
crash() { echo "CRASH: $*" >&2; exit 2; }

# Every binary must exist up front: a missing driver must fail here,
# not as a mysteriously short concatenation later.
for f in $figures run_all; do
    [ -x "$bindir/$f" ] || fail "missing binary: $bindir/$f"
done

workdir=$(mktemp -d /tmp/middlesim_equiv.XXXXXX)
trap 'rm -rf "$workdir"' EXIT
mkdir -p "$workdir/metrics_solo"

# Run a command whose shape checks may fail (exit 1) but which must
# not crash (any other nonzero exit; 128+N means killed by signal N).
run_tolerant() {
    local out=$1
    shift
    local status=0
    "$@" > "$out" 2> /dev/null || status=$?
    [ "$status" -le 1 ] ||
        crash "crashed with exit status $status: $*"
}

# Byte compare; on mismatch show the divergence, not just "differs".
expect_identical() {
    local a=$1 b=$2 what=$3
    if ! cmp -s "$a" "$b"; then
        echo "--- first divergence ($what) ---" >&2
        cmp "$a" "$b" >&2 || true
        diff -u "$a" "$b" | head -40 >&2 || true
        fail "$what"
    fi
}

echo "# individual drivers" >&2
: > "$workdir/individual.out"
for f in $figures; do
    id="${f%%_*}"
    run_tolerant "$workdir/$id.solo.out" "$bindir/$f" --jobs=1 \
        --metrics-out="$workdir/metrics_solo/$id.json"
    [ -s "$workdir/$id.solo.out" ] ||
        fail "driver $f produced no output"
    [ -s "$workdir/metrics_solo/$id.json" ] ||
        fail "driver $f wrote no metrics document"
    cat "$workdir/$id.solo.out" >> "$workdir/individual.out"
done

echo "# run_all --no-cache" >&2
run_tolerant "$workdir/nocache.out" \
    "$bindir/run_all" --jobs=1 --no-cache
expect_identical "$workdir/individual.out" "$workdir/nocache.out" \
    "run_all --no-cache differs from concatenated drivers"

echo "# run_all cold disk cache" >&2
run_tolerant "$workdir/cold.out" \
    "$bindir/run_all" --jobs=1 --cache-dir="$workdir/cache" \
    --metrics-dir="$workdir/metrics_runall" \
    --stats-out="$workdir/stats.json"
expect_identical "$workdir/individual.out" "$workdir/cold.out" \
    "cold run_all differs from concatenated drivers"

echo "# run_all warm disk cache" >&2
run_tolerant "$workdir/warm.out" \
    "$bindir/run_all" --jobs=1 --cache-dir="$workdir/cache"
expect_identical "$workdir/individual.out" "$workdir/warm.out" \
    "warm run_all differs from cold run_all"

echo "# run_all --jobs=3" >&2
run_tolerant "$workdir/jobs3.out" \
    "$bindir/run_all" --jobs=3 --no-cache
expect_identical "$workdir/individual.out" "$workdir/jobs3.out" \
    "run_all --jobs=3 differs from --jobs=1"

for f in "$workdir"/metrics_solo/*.json; do
    id=$(basename "$f")
    [ -s "$workdir/metrics_runall/$id" ] ||
        fail "run_all wrote no metrics document $id"
    expect_identical "$f" "$workdir/metrics_runall/$id" \
        "metrics document $id differs between driver and run_all"
done

[ -s "$workdir/stats.json" ] || fail "run_all wrote no stats JSON"
grep -q '"unique_points"' "$workdir/stats.json" ||
    fail "stats JSON missing unique_points"
requested=$(grep -o '"requested_points": *[0-9]*' "$workdir/stats.json" |
    grep -o '[0-9]*$')
unique=$(grep -o '"unique_points": *[0-9]*' "$workdir/stats.json" |
    grep -o '[0-9]*$')
[ -n "$requested" ] && [ -n "$unique" ] ||
    fail "stats JSON counters unreadable"
[ "$unique" -lt "$requested" ] ||
    fail "no dedupe happened ($unique of $requested unique)"

echo "RUN_ALL_EQUIVALENCE_OK"
