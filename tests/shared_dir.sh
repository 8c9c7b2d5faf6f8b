#!/bin/bash
# Processes that share one output directory must never tear each
# other's files. Two scenarios, each run as concurrent processes:
#
#  1. four `run_all --jobs=1` runs filling one cold --cache-dir;
#  2. fig04_scaling and fig05_execmodes, which simulate the same
#     scaling grid and so record the same traces, writing into one
#     --trace-out directory; fig05 records on four workers.
#
# Every stdout must equal a --no-cache reference, no process may warn
# about a cache or trace write, no temp file may be left behind, every
# trace must pass `middlesim-trace validate`, and a warm run_all over
# the shared cache must then neither miss nor find a corrupt entry.
# Runs time-compressed (shape checks may FAIL at this scale), so exit
# status 1 is tolerated; any other nonzero status is a crash.
#
# Usage: shared_dir.sh <build/bench dir>
#
# Exit status: 0 = pass; 1 = mismatch or assertion; 2 = a binary
# under test crashed.

set -euo pipefail

bindir=${1:?usage: shared_dir.sh <bench dir>}
export MIDDLESIM_TIMESCALE=${MIDDLESIM_TIMESCALE:-0.01}
export MIDDLESIM_RUNS=1
unset MIDDLESIM_CACHE MIDDLESIM_QUICK MIDDLESIM_JOBS MIDDLESIM_CHECK \
    MIDDLESIM_TRACE

writers=4

fail() { echo "FAIL: $*" >&2; exit 1; }
crash() { echo "CRASH: $*" >&2; exit 2; }

for b in run_all fig04_scaling fig05_execmodes middlesim-trace; do
    [ -x "$bindir/$b" ] || fail "missing binary: $bindir/$b"
done

workdir=$(mktemp -d /tmp/middlesim_shared_dir.XXXXXX)
trap 'rm -rf "$workdir"' EXIT

check_status() {
    local status=$1 what=$2
    [ "$status" -le 1 ] || crash "exit status $status: $what"
}

# Run in the foreground; stdout to $1, stderr to $1.err.
run_tolerant() {
    local out=$1
    shift
    local status=0
    "$@" > "$out" 2> "$out.err" || status=$?
    check_status "$status" "$*"
}

# Start in the background (same redirection); wait_all reaps them.
pids=()
cmds=()
start() {
    local out=$1
    shift
    "$@" > "$out" 2> "$out.err" &
    pids+=("$!")
    cmds+=("$*")
}

wait_all() {
    local i status
    for i in "${!pids[@]}"; do
        status=0
        wait "${pids[$i]}" || status=$?
        check_status "$status" "${cmds[$i]}"
    done
    pids=()
    cmds=()
}

expect_identical() {
    local a=$1 b=$2 what=$3
    if ! cmp -s "$a" "$b"; then
        diff -u "$a" "$b" | head -40 >&2 || true
        fail "$what"
    fi
}

# A failed temp write or rename is only a warning: stdout survives
# it, so the warnings themselves are the evidence.
expect_no_warnings() {
    local err
    for err in "$@"; do
        if grep -E '^warn: (cache|trace):' "$err" >&2; then
            fail "cache or trace warning in $(basename "$err")"
        fi
    done
}

expect_no_temp_files() {
    local left
    left=$(find "$1" -name '*.tmp*' | head -5)
    [ -z "$left" ] || fail "temp files left behind: $left"
}

echo "# cache: $writers concurrent run_all on one cold --cache-dir" >&2
run_tolerant "$workdir/ref.out" "$bindir/run_all" --jobs=1 --no-cache
for i in $(seq "$writers"); do
    start "$workdir/cache$i.out" \
        "$bindir/run_all" --jobs=1 --cache-dir="$workdir/cache"
done
wait_all
for i in $(seq "$writers"); do
    expect_identical "$workdir/ref.out" "$workdir/cache$i.out" \
        "run_all #$i sharing the cache differs from --no-cache"
done
expect_no_warnings "$workdir"/cache*.out.err
expect_no_temp_files "$workdir/cache"

echo "# cache: warm run_all over the shared directory" >&2
run_tolerant "$workdir/warm.out" "$bindir/run_all" --jobs=1 \
    --cache-dir="$workdir/cache" --stats-out="$workdir/stats.json"
expect_identical "$workdir/ref.out" "$workdir/warm.out" \
    "warm run_all differs from --no-cache"
grep -q '"cache_misses": 0,' "$workdir/stats.json" ||
    fail "warm run missed the shared cache: $(cat "$workdir/stats.json")"
grep -q '"cache_corrupt_misses": 0,' "$workdir/stats.json" ||
    fail "warm run found corrupt entries: $(cat "$workdir/stats.json")"

echo "# trace: fig04 and fig05 recording into one --trace-out" >&2
figures="fig04_scaling fig05_execmodes"
for f in $figures; do
    run_tolerant "$workdir/$f.ref.out" "$bindir/$f" --jobs=1 --no-cache
done
# Which process records which trace, and in which order fig05's
# workers finish theirs, varies from run to run; stdout must not.
start "$workdir/fig04_scaling.out" "$bindir/fig04_scaling" --jobs=1 \
    --no-cache --trace-out="$workdir/traces"
start "$workdir/fig05_execmodes.out" "$bindir/fig05_execmodes" --jobs=4 \
    --no-cache --trace-out="$workdir/traces"
wait_all
for f in $figures; do
    expect_identical "$workdir/$f.ref.out" "$workdir/$f.out" \
        "$f recording traces differs from --no-cache"
done
expect_no_warnings "$workdir"/fig0*_*.out.err
expect_no_temp_files "$workdir/traces"
traces=("$workdir"/traces/*.mst)
[ -e "${traces[0]}" ] || fail "no trace recorded"
for t in "${traces[@]}"; do
    "$bindir/middlesim-trace" validate "$t" > /dev/null ||
        fail "$(basename "$t") failed validation"
done

echo "SHARED_DIR_OK (${#traces[@]} traces)"
