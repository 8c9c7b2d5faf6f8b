#!/bin/bash
# Runs every figure bench twice — serial (--jobs=1) and parallel
# (--jobs=$(nproc), passed explicitly so the pool size never silently
# falls back to a mis-detected hardware_concurrency) — timing each,
# then writes BENCH_runner.json mapping figure ->
# {baseline_s, serial_s, parallel_s} plus a "meta" block recording
# jobs_used and hardware_concurrency so serial==parallel timings are
# interpretable (on a 1-cpu container they are expected to match).
# baseline_s is copied from BENCH_baseline.json (pre-optimization
# serial timings) when that file is present. Pass MIDDLESIM_QUICK=1
# for a fast smoke run.
#
# Afterwards it times the run_all driver cold (empty --cache-dir) and
# warm (same dir again) and writes BENCH_cache.json with both timings,
# the summed per-figure serial seconds, and the dedupe ratio from
# run_all --stats-out.
#
# The sanitizer runs are the CI `asan` and `tsan` jobs
# (.github/workflows/ci.yml).

figures="fig04_scaling fig05_execmodes fig06_cpi fig07_datastall \
         fig08_c2c_ratio fig09_gc_effect fig10_c2c_timeline \
         fig11_livemem fig12_icache fig13_dcache fig14_comm_pct \
         fig15_comm_abs fig16_shared"

jobs_parallel=$(nproc)

# One detected CPU means the serial and parallel legs measure the
# same thing: flag the run so downstream comparisons don't read the
# missing speedup as a regression.
degraded_parallelism=false
if [ "$(nproc)" -eq 1 ]; then
    degraded_parallelism=true
    echo "WARNING: hardware_concurrency == 1 — parallel legs run" \
         "serially; speedup figures in this run are meaningless" >&2
fi

json="BENCH_runner.json"
echo "{" > "$json"
printf '  "meta": {"jobs_serial": 1, "jobs_parallel": %s, "hardware_concurrency": %s, "degraded_parallelism": %s, "protocol": "snoop", "topology": "ring"},\n' \
    "$jobs_parallel" "$(nproc)" "$degraded_parallelism" >> "$json"
first=1

# Seconds (fractional) elapsed running "$@".
time_run() {
    local start end
    start=$(date +%s%N)
    "$@" > /tmp/middlesim_bench_out.txt 2>&1
    local rc=$?
    end=$(date +%s%N)
    elapsed_s="$(( (end - start) / 1000000000 )).$(printf '%03d' \
        $(( ((end - start) / 1000000) % 1000 )))"
    return $rc
}

# Pre-optimization serial seconds for "$1" from BENCH_baseline.json.
baseline_for() {
    [ -f BENCH_baseline.json ] || { echo null; return; }
    local v
    v=$(grep -o "\"$1\": *[0-9.]*" BENCH_baseline.json |
        grep -o '[0-9.]*$')
    echo "${v:-null}"
}

serial_sum=0
for b in $figures; do
    echo "################ $b"
    time_run ./build/bench/"$b" --jobs=1
    serial="$elapsed_s"
    serial_sum=$(awk "BEGIN { print $serial_sum + $serial }")
    cat /tmp/middlesim_bench_out.txt
    time_run ./build/bench/"$b" --jobs="$jobs_parallel"
    parallel="$elapsed_s"
    baseline=$(baseline_for "$b")
    echo "--- wall clock: baseline ${baseline}s," \
         "serial ${serial}s, parallel ${parallel}s"
    echo
    [ $first -eq 0 ] && echo "," >> "$json"
    first=0
    printf '  "%s": {"baseline_s": %s, "serial_s": %s, "parallel_s": %s}' \
        "$b" "$baseline" "$serial" "$parallel" >> "$json"
done
echo >> "$json"
echo "}" >> "$json"
echo "wrote $json"

# Cold vs warm run_all: the cold leg starts from an empty cache
# directory (measures in-process dedupe), the warm leg reuses it
# (measures the disk cache).
echo "################ run_all (cold cache)"
cache_dir=$(mktemp -d /tmp/middlesim_cache.XXXXXX)
stats_json=/tmp/middlesim_runall_stats.json
time_run ./build/bench/run_all --jobs="$jobs_parallel" \
    --cache-dir="$cache_dir" --stats-out="$stats_json"
cold="$elapsed_s"
echo "################ run_all (warm cache)"
time_run ./build/bench/run_all --jobs="$jobs_parallel" \
    --cache-dir="$cache_dir" --stats-out=/dev/null
warm="$elapsed_s"
rm -rf "$cache_dir"

stat_of() {
    grep -o "\"$1\": *[0-9.]*" "$stats_json" | grep -o '[0-9.]*$'
}
cache_json="BENCH_cache.json"
{
    echo "{"
    printf '  "schema": "middlesim-bench-cache-v1",\n'
    printf '  "figures_serial_sum_s": %s,\n' "$serial_sum"
    printf '  "cold_run_all_s": %s,\n' "$cold"
    printf '  "warm_run_all_s": %s,\n' "$warm"
    printf '  "cold_speedup_vs_sum": %s,\n' \
        "$(awk "BEGIN { print $serial_sum / $cold }")"
    printf '  "warm_speedup_vs_cold": %s,\n' \
        "$(awk "BEGIN { print $cold / $warm }")"
    printf '  "requested_points": %s,\n' "$(stat_of requested_points)"
    printf '  "unique_points": %s,\n' "$(stat_of unique_points)"
    printf '  "dedupe_ratio": %s,\n' "$(stat_of dedupe_ratio)"
    printf '  "jobs_used": %s,\n' "$jobs_parallel"
    printf '  "hardware_concurrency": %s,\n' "$(nproc)"
    printf '  "degraded_parallelism": %s\n' "$degraded_parallelism"
    echo "}"
} > "$cache_json"
echo "--- wall clock: figures-serial-sum ${serial_sum}s," \
     "cold run_all ${cold}s, warm run_all ${warm}s"
echo "wrote $cache_json"

# Trace capture & replay: fig12 execution-driven plain vs recording
# (overhead of the attached TraceWriter), then fig12/fig13 rederived
# purely from the recorded streams (--trace-in replays the sweep
# without the CPU/OS/JVM/workload layers), and a Figure 16-style
# sharing study replayed from one SMP recording. --no-cache keeps the
# run cache out of every leg so the timings compare simulation paths,
# not memo hits.
echo "################ trace record/replay"
trace_dir=$(mktemp -d /tmp/middlesim_trace.XXXXXX)
time_run ./build/bench/fig12_icache --jobs="$jobs_parallel" --no-cache
fig12_plain="$elapsed_s"
time_run ./build/bench/fig12_icache --jobs="$jobs_parallel" \
    --no-cache --trace-out="$trace_dir"
fig12_record="$elapsed_s"
time_run ./build/bench/fig12_icache --jobs="$jobs_parallel" \
    --no-cache --trace-in="$trace_dir"
fig12_replay="$elapsed_s"
time_run ./build/bench/fig13_dcache --jobs="$jobs_parallel" \
    --no-cache --trace-in="$trace_dir"
fig13_replay="$elapsed_s"

traces_total=0
traces_valid=0
for f in "$trace_dir"/trace-*.mst; do
    [ -e "$f" ] || continue
    traces_total=$((traces_total + 1))
    ./build/bench/middlesim-trace validate "$f" > /dev/null &&
        traces_valid=$((traces_valid + 1))
done
trace_bytes=$(du -sb "$trace_dir" | cut -f1)

# Figure 16-style what-if: one recorded SMP run, then every sharing
# degree replayed from the trace (execution-driven would re-run the
# full stack once per degree).
smp_trace="$trace_dir/smp.mst"
time_run ./build/bench/middlesim-trace record --out="$smp_trace" \
    --workload=ecperf --app-cpus=4 --total-cpus=8 --scale=4 \
    --seed=5 --warmup=2000000 --measure=5000000
sharing_record="$elapsed_s"
time_run ./build/bench/middlesim-trace sharing "$smp_trace"
sharing_replay="$elapsed_s"

rm -rf "$trace_dir"

trace_json="BENCH_trace.json"
{
    echo "{"
    printf '  "schema": "middlesim-bench-trace-v1",\n'
    printf '  "fig12_plain_s": %s,\n' "$fig12_plain"
    printf '  "fig12_record_s": %s,\n' "$fig12_record"
    printf '  "record_overhead_ratio": %s,\n' \
        "$(awk "BEGIN { print $fig12_record / $fig12_plain }")"
    printf '  "fig12_replay_s": %s,\n' "$fig12_replay"
    printf '  "fig13_replay_s": %s,\n' "$fig13_replay"
    printf '  "replay_speedup_fig12": %s,\n' \
        "$(awk "BEGIN { print $fig12_plain / $fig12_replay }")"
    printf '  "trace_files": %s,\n' "$traces_total"
    printf '  "trace_files_valid": %s,\n' "$traces_valid"
    printf '  "trace_bytes": %s,\n' "$trace_bytes"
    printf '  "sharing_record_s": %s,\n' "$sharing_record"
    printf '  "sharing_replay_s": %s,\n' "$sharing_replay"
    printf '  "sharing_replay_speedup_per_point": %s\n' \
        "$(awk "BEGIN { print 4 * $sharing_record / $sharing_replay }")"
    echo "}"
} > "$trace_json"
echo "--- wall clock: fig12 plain ${fig12_plain}s," \
     "record ${fig12_record}s, replay ${fig12_replay}s;" \
     "${traces_valid}/${traces_total} traces valid"
echo "wrote $trace_json"

# Exhaustive interleaving explorer: states explored and DPOR pruning
# ratio against the naive enumeration on the acceptance geometry
# (both enumerated for real, so the ratio is measured, not computed),
# plus time-to-find for every injected defect kind.
echo "################ interleaving explorer (BENCH_explore.json)"
explore_dir=$(mktemp -d /tmp/middlesim_explore.XXXXXX)
efield() { grep -o "\"$1\": *[0-9.]*" "$2" | grep -o '[0-9.]*$'; }

time_run ./build/bench/middlesim_explore \
    --report="$explore_dir/clean.json"
explore_dpor_s="$elapsed_s"
time_run ./build/bench/middlesim_explore --no-dpor \
    --report="$explore_dir/naive.json"
explore_naive_s="$elapsed_s"

explore_states=$(efield interleavings_explored "$explore_dir/clean.json")
explore_naive_states=$(efield interleavings_explored \
    "$explore_dir/naive.json")
explore_pruning=$(efield pruning_ratio "$explore_dir/clean.json")

time_run ./build/bench/middlesim_explore --inject=drop-invalidate \
    --report=/dev/null
find_drop="$elapsed_s"
time_run ./build/bench/middlesim_explore --inject=keep-owner \
    --report=/dev/null
find_keep="$elapsed_s"
time_run ./build/bench/middlesim_explore --inject=skip-l1 \
    --report=/dev/null
find_skip="$elapsed_s"
# The nack-storm defect only exists on a contended directory home:
# its leg runs the same 2-CPU geometry under --protocol=directory at
# minimum home occupancy.
time_run ./build/bench/middlesim_explore --protocol=directory \
    --numa-nodes=2 --dir-occupancy=1 --inject=nack-storm \
    --report=/dev/null
find_nack="$elapsed_s"
rm -rf "$explore_dir"

explore_json="BENCH_explore.json"
{
    echo "{"
    printf '  "schema": "middlesim-bench-explore-v1",\n'
    printf '  "cpus": 2, "blocks": 2, "refs": 12, "seed": 1,\n'
    printf '  "protocol": "snoop", "topology": "ring",\n'
    printf '  "nack_storm_leg": {"protocol": "directory", "topology": "ring", "numa_nodes": 2, "dir_occupancy": 1},\n'
    printf '  "interleavings_explored_dpor": %s,\n' "$explore_states"
    printf '  "interleavings_explored_naive": %s,\n' \
        "$explore_naive_states"
    printf '  "dpor_pruning_ratio": %s,\n' "$explore_pruning"
    printf '  "clean_dpor_s": %s,\n' "$explore_dpor_s"
    printf '  "clean_naive_s": %s,\n' "$explore_naive_s"
    printf '  "dpor_speedup": %s,\n' \
        "$(awk "BEGIN { print $explore_naive_s / $explore_dpor_s }")"
    printf '  "time_to_find_drop_invalidate_s": %s,\n' "$find_drop"
    printf '  "time_to_find_keep_owner_s": %s,\n' "$find_keep"
    printf '  "time_to_find_skip_l1_s": %s,\n' "$find_skip"
    printf '  "time_to_find_nack_storm_s": %s\n' "$find_nack"
    echo "}"
} > "$explore_json"
echo "--- wall clock: explore dpor ${explore_dpor_s}s" \
     "(${explore_states} states) vs naive ${explore_naive_s}s" \
     "(${explore_naive_states} states); finds:" \
     "drop ${find_drop}s, keep ${find_keep}s, skip ${find_skip}s," \
     "nack ${find_nack}s"
echo "wrote $explore_json"

# Many-core directory/NUMA grid: the matched 16-CPU snoop-vs-directory
# pair plus the 64- and 128-CPU directory points, parsed from the
# fig_manycore table. Honesty flags mirror EXPERIMENTS.md: rows past
# 64 CPUs are time-compressed (rates unbiased, absolute tx counts not
# comparable), the scheduler/workload models are the ≤16-CPU ones
# scaled up, and past 16 CPUs the nursery is sized so no GC lands in
# the measured window (mutator behavior only).
echo "################ many-core scaling (BENCH_manycore.json)"
time_run ./build/bench/fig_manycore --no-cache --jobs="$jobs_parallel"
manycore_s="$elapsed_s"
manycore_ok=true
grep -q "all shape checks passed" /tmp/middlesim_bench_out.txt ||
    manycore_ok=false
cat /tmp/middlesim_bench_out.txt

# Table row for cpus=$1 protocol=$2 -> "tx mpki coh remote hops msgs".
# Protocol labels are unique per row kind: the contended companion
# grid prints "dir+ring"/"dir+mesh", never plain "directory".
manycore_row() {
    awk -v c="$1" -v p="$2" '$1 == c && $2 == p {
        print $5, $6, $7, $8, $9, $10 }' /tmp/middlesim_bench_out.txt
}
# One benchmark block: $1=cpus $2=table protocol label $3=protocol
# $4=topology $5=occupancy slots (the meta every block records).
manycore_point() {
    local cpus="$1" label="$2" proto="$3" topo="$4" occ="$5"
    set -- $(manycore_row "$cpus" "$label")
    printf '{"protocol": "%s", "topology": "%s", "dir_occupancy": %s, "tx": %s, "data_mpki": %s, "coh_pct": %s, "remote_pct": %s, "hops_per_miss": %s, "msgs_per_miss": %s}' \
        "$proto" "$topo" "$occ" \
        "${1:-null}" "${2:-null}" "${3:-null}" "${4:-null}" \
        "${5:-null}" "${6:-null}"
}

manycore_json="BENCH_manycore.json"
{
    echo "{"
    printf '  "schema": "middlesim-bench-manycore-v2",\n'
    printf '  "wall_s": %s,\n' "$manycore_s"
    printf '  "shape_checks_passed": %s,\n' "$manycore_ok"
    printf '  "snoop_16": %s,\n' \
        "$(manycore_point 16 snoop snoop ring 0)"
    printf '  "directory_16": %s,\n' \
        "$(manycore_point 16 directory directory ring 0)"
    printf '  "directory_64": %s,\n' \
        "$(manycore_point 64 directory directory ring 0)"
    printf '  "directory_128": %s,\n' \
        "$(manycore_point 128 directory directory ring 0)"
    printf '  "contended_ring_64": %s,\n' \
        "$(manycore_point 64 dir+ring directory ring 4)"
    printf '  "contended_mesh_64": %s,\n' \
        "$(manycore_point 64 dir+mesh directory mesh 4)"
    printf '  "contended_ring_256": %s,\n' \
        "$(manycore_point 256 dir+ring directory ring 4)"
    printf '  "contended_mesh_256": %s,\n' \
        "$(manycore_point 256 dir+mesh directory mesh 4)"
    printf '  "time_compressed_beyond_64cpus": true,\n'
    printf '  "models_validated_at_16cpus": true,\n'
    printf '  "gc_free_window_beyond_16cpus": true,\n'
    printf '  "contention_model_epoch_queue_heuristic": true,\n'
    printf '  "contended_latency_cdf_bucketed_not_per_miss": true,\n'
    printf '  "jobs_used": %s,\n' "$jobs_parallel"
    printf '  "degraded_parallelism": %s\n' "$degraded_parallelism"
    echo "}"
} > "$manycore_json"
echo "--- wall clock: fig_manycore ${manycore_s}s" \
     "(shape_checks_passed=$manycore_ok)"
echo "wrote $manycore_json"

echo "################ ablation_mechanisms"
./build/bench/ablation_mechanisms
echo
echo "################ micro_simulator"
./build/bench/micro_simulator --benchmark_min_time=0.05
echo "ALL_BENCHES_DONE"
