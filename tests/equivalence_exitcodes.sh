#!/bin/bash
# The run_all equivalence harness must tell a crashed binary (exit 2)
# apart from a byte-comparison mismatch (exit 1) — CI triage reads the
# exit code. This test drives it against shell-stub binaries: a stub
# killed by SIGSEGV must yield exit 2, a well-behaved stub whose
# outputs merely differ must yield exit 1.
#
# Usage: equivalence_exitcodes.sh <tests dir>

set -euo pipefail

testsdir=${1:?usage: equivalence_exitcodes.sh <tests dir>}

workdir=$(mktemp -d /tmp/middlesim_eqexit.XXXXXX)
trap 'rm -rf "$workdir"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

expect_status() {
    local want=$1 what=$2
    shift 2
    local status=0
    "$@" > /dev/null 2>&1 || status=$?
    [ "$status" -eq "$want" ] ||
        fail "$what: want exit $want, got $status"
}

figures="fig04_scaling fig05_execmodes fig06_cpi fig07_datastall \
         fig08_c2c_ratio fig09_gc_effect fig10_c2c_timeline \
         fig11_livemem fig12_icache fig13_dcache fig14_comm_pct \
         fig15_comm_abs fig16_shared"

# Stub figure drivers: stable stdout plus a nonempty metrics file.
make_figures() {
    local dir=$1 f
    mkdir -p "$dir"
    for f in $figures; do
        cat > "$dir/$f" <<'EOF'
#!/bin/bash
for a in "$@"; do
    case "$a" in
    --metrics-out=*) echo '{}' > "${a#--metrics-out=}" ;;
    esac
done
echo "figure $(basename "$0") table"
EOF
        chmod +x "$dir/$f"
    done
}

# --- run_all harness: one driver dies on a signal -> exit 2 ---
make_figures "$workdir/runall_crash"
cat > "$workdir/runall_crash/fig09_gc_effect" <<'EOF'
#!/bin/bash
kill -SEGV $$
EOF
chmod +x "$workdir/runall_crash/fig09_gc_effect"
cat > "$workdir/runall_crash/run_all" <<'EOF'
#!/bin/bash
exit 0
EOF
chmod +x "$workdir/runall_crash/run_all"
expect_status 2 "run_all harness vs crashing driver" \
    "$testsdir/run_all_equivalence.sh" "$workdir/runall_crash"

# --- run_all harness: run_all output drifts from drivers -> exit 1 ---
make_figures "$workdir/runall_diff"
cat > "$workdir/runall_diff/run_all" <<'EOF'
#!/bin/bash
echo "run_all says something else"
EOF
chmod +x "$workdir/runall_diff/run_all"
expect_status 1 "run_all harness vs output drift" \
    "$testsdir/run_all_equivalence.sh" "$workdir/runall_diff"

echo "PASS: harness exit codes distinguish crash (2) from mismatch (1)"
