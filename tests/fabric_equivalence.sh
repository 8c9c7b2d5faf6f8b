#!/bin/bash
# Process-level acceptance of the experiment fabric: `run_all
# --fabric=N` must emit stdout byte-identical to single-process
# `run_all --jobs=1`, and per-figure metrics documents must match
# byte-for-byte, for any worker count — including when a worker is
# SIGKILLed mid-run (deterministic fault injection via
# MIDDLESIM_FABRIC_KILL_AFTER) and when a stale lease epoch delivers a
# late duplicate RESULT. The merged stats JSON must agree across
# worker counts once the genuinely volatile fields (timings, worker
# count) are masked.
#
# Runs time-compressed, so shape checks may FAIL at this scale —
# only identity is asserted; driver exit status 1 is tolerated, any
# other nonzero status is a crash and fails the test loudly.
#
# Usage: fabric_equivalence.sh <build/bench dir>
#
# Exit status: 0 = pass; 1 = output mismatch or harness assertion;
# 2 = a binary under test crashed (unrunnable / killed by a signal
# the harness did not inject).

set -euo pipefail

bindir=${1:?usage: fabric_equivalence.sh <bench dir>}
export MIDDLESIM_TIMESCALE=${MIDDLESIM_TIMESCALE:-0.05}
export MIDDLESIM_RUNS=1
unset MIDDLESIM_CACHE MIDDLESIM_QUICK MIDDLESIM_JOBS MIDDLESIM_CHECK
unset MIDDLESIM_FABRIC_KILL_AFTER

fail() { echo "FAIL: $*" >&2; exit 1; }
crash() { echo "CRASH: $*" >&2; exit 2; }

[ -x "$bindir/run_all" ] || fail "missing binary: $bindir/run_all"

workdir=$(mktemp -d /tmp/middlesim_fabric.XXXXXX)
trap 'rm -rf "$workdir"' EXIT

run_tolerant() {
    local out=$1
    shift
    local status=0
    "$@" > "$out" 2> "$workdir/last.err" || status=$?
    [ "$status" -le 1 ] ||
        crash "crashed with exit status $status: $* (stderr: $(tail -3 "$workdir/last.err"))"
}

expect_identical() {
    local a=$1 b=$2 what=$3
    if ! cmp -s "$a" "$b"; then
        echo "--- first divergence ($what) ---" >&2
        cmp "$a" "$b" >&2 || true
        diff -u "$a" "$b" | head -40 >&2 || true
        fail "$what"
    fi
}

# Timings and the requested worker count legitimately vary between
# runs; everything else in the stats JSON must not.
normalize_stats() {
    grep -vE '"(prefetch_seconds|worker_seconds|workers_requested|workers_spawned)"' \
        "$1"
}

stat_field() {
    grep -o "\"$2\": *[0-9]*" "$1" | grep -o '[0-9]*$'
}

echo "# single-process baseline" >&2
mkdir -p "$workdir/metrics_base"
run_tolerant "$workdir/base.out" "$bindir/run_all" --jobs=1 \
    --cache-dir="$workdir/cache_base" \
    --metrics-dir="$workdir/metrics_base"
[ -s "$workdir/base.out" ] || fail "baseline produced no output"
ls "$workdir"/metrics_base/*.json > /dev/null 2>&1 ||
    fail "baseline wrote no metrics documents"

for n in 1 2 4; do
    echo "# run_all --fabric=$n" >&2
    mkdir -p "$workdir/metrics_fab$n"
    run_tolerant "$workdir/fab$n.out" "$bindir/run_all" --fabric=$n \
        --cache-dir="$workdir/cache_fab$n" \
        --metrics-dir="$workdir/metrics_fab$n" \
        --stats-out="$workdir/fab$n.stats" \
        --fabric-metrics-out="$workdir/fab$n.metrics"
    expect_identical "$workdir/base.out" "$workdir/fab$n.out" \
        "stdout of --fabric=$n differs from single-process run_all"
    for f in "$workdir"/metrics_base/*.json; do
        id=$(basename "$f")
        expect_identical "$f" "$workdir/metrics_fab$n/$id" \
            "metrics document $id differs under --fabric=$n"
    done
    [ "$(stat_field "$workdir/fab$n.stats" worker_deaths)" = 0 ] ||
        fail "--fabric=$n reported worker deaths on a clean run"
    [ "$(stat_field "$workdir/fab$n.stats" inline_runs)" = 0 ] ||
        fail "--fabric=$n fell back inline on a clean run"
done

echo "# merged stats identical across worker counts" >&2
for n in 2 4; do
    if ! diff <(normalize_stats "$workdir/fab1.stats") \
              <(normalize_stats "$workdir/fab$n.stats") >&2; then
        fail "normalized stats JSON differs between --fabric=1 and --fabric=$n"
    fi
done

echo "# merged fabric metrics identical across worker counts" >&2
for n in 2 4; do
    expect_identical "$workdir/fab1.metrics" "$workdir/fab$n.metrics" \
        "merged --fabric-metrics-out differs between 1 and $n workers"
done
grep -q '"fabric.cache.hits"' "$workdir/fab1.metrics" ||
    fail "merged metrics missing the fabric.cache.* family"

echo "# SIGKILL a worker mid-run: re-lease must finish the campaign" >&2
run_tolerant "$workdir/kill.out" \
    env MIDDLESIM_FABRIC_KILL_AFTER=0:1 \
    "$bindir/run_all" --fabric=2 \
    --cache-dir="$workdir/cache_kill" \
    --stats-out="$workdir/kill.stats"
expect_identical "$workdir/base.out" "$workdir/kill.out" \
    "stdout differs after a worker was SIGKILLed mid-run"
deaths=$(stat_field "$workdir/kill.stats" worker_deaths)
requeues=$(stat_field "$workdir/kill.stats" requeues)
[ "$deaths" -ge 1 ] ||
    fail "kill run recorded no worker death (injection broken?)"
[ "$requeues" -ge 1 ] ||
    fail "kill run recorded no requeue despite a dead worker"

echo "# worker-cmd transport" >&2
run_tolerant "$workdir/cli.out" \
    "$bindir/run_all" --fabric=2 \
    --fabric-worker-cmd="$bindir/run_all --fabric-worker --cache-dir=$workdir/cache_cli" \
    --cache-dir="$workdir/cache_cli" --stats-out="$workdir/cli.stats"
expect_identical "$workdir/base.out" "$workdir/cli.out" \
    "stdout differs under the --worker-cmd transport"
[ "$(stat_field "$workdir/cli.stats" worker_deaths)" = 0 ] ||
    fail "worker-cmd transport lost workers on a clean run"

echo "fabric equivalence: all checks passed" >&2
