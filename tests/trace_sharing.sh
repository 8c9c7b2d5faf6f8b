#!/bin/bash
# `middlesim-trace sharing` replays one recording at every sharing
# degree, each degree as its own task over one shared copy of the
# trace. Each of its rows (misses, coherence, capacity, c2c) must
# equal what `middlesim-trace replay --cpus-per-l2=N` reports for that
# degree alone, and the rows must come in degree order 1, 2, 4, 8.
# Checked on a small 8-CPU ECperf recording, with and without
# communication tracking.
#
# Usage: trace_sharing.sh <build/bench dir>
#
# Exit status: 0 = pass; 1 = mismatch or assertion; 2 = a binary
# under test crashed or failed.

set -euo pipefail

bindir=${1:?usage: trace_sharing.sh <bench dir>}
tool=$bindir/middlesim-trace

fail() { echo "FAIL: $*" >&2; exit 1; }
crash() { echo "CRASH: $*" >&2; exit 2; }

[ -x "$tool" ] || fail "missing binary: $tool"

workdir=$(mktemp -d /tmp/middlesim_trace_sharing.XXXXXX)
trap 'rm -rf "$workdir"' EXIT

# Run middlesim-trace with stdout to $1; every invocation must succeed.
run() {
    local out=$1
    shift
    local status=0
    "$tool" "$@" < /dev/null > "$out" 2> "$out.err" || status=$?
    if [ "$status" -ne 0 ]; then
        cat "$out.err" >&2
        crash "exit status $status: middlesim-trace $*"
    fi
}

for comm in "" --track-comm; do
    trace=$workdir/ecperf8$comm.mst
    run "$workdir/record.out" record --out="$trace" --workload=ecperf \
        --app-cpus=8 --total-cpus=8 $comm
    run "$workdir/sharing.out" sharing "$trace"
    head -1 "$workdir/sharing.out" | grep -q '^ *cpusPerL2 ' ||
        fail "no header line in sharing output"

    degrees=""
    while read -r degree misses coherence capacity c2c; do
        run "$workdir/replay.out" replay "$trace" --cpus-per-l2="$degree"
        # "  L2 misses:    M  (cold a, coherence b, capacity c)" and
        # "  c2c/upgrades: d / e"
        want=$(awk '/L2 misses:/ { gsub(/[(),]/, ""); m = $3 " " $7 " " $9 }
                    /c2c\/upgrades:/ { c = $2 }
                    END { print m, c }' "$workdir/replay.out")
        got="$misses $coherence $capacity $c2c"
        [ "$got" = "$want" ] ||
            fail "trace$comm, $degree CPUs per L2: sharing row '$got'," \
                 "replay --cpus-per-l2=$degree '$want'"
        degrees="$degrees $degree"
    done < <(tail -n +2 "$workdir/sharing.out")
    [ "$degrees" = " 1 2 4 8" ] ||
        fail "trace$comm: sharing rows for degrees '$degrees', want 1 2 4 8"
done

echo "TRACE_SHARING_OK"
