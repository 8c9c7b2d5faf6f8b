#!/usr/bin/env python3
"""middlesim performance benchmark.

Builds the simulator libraries and the benchmark program from this checkout's
sources, runs one workload single-threaded, and prints the result object as
the last line of stdout. Run from the repository root:

    python3 perfbench/run.py --workload jbb-e6000 --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics (refs_per_s, setup_s, peak_rss_mb);
--trace 1 reports the per-layer metrics, adds the bench/micro_simulator
per-operation costs, and writes the span log next to the build.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("jbb-e6000", "jbb-dir128-mesh", "ecperf-trace")

# bench/micro_simulator benchmark -> per-layer metric name.
MICRO = {
    "BM_CacheArrayHit": "micro.cache_array_hit_ns",
    "BM_BlockMetaLookup": "micro.block_meta_lookup_ns",
    "BM_HierarchyL1Hit": "micro.hierarchy_l1_hit_ns",
    "BM_HierarchyCoherenceMiss": "micro.coherence_miss_ns",
    "BM_SweepAccess": "micro.sweep_access_ns",
}
NS_PER = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

BUILD_TIMEOUT_S = 840
BENCH_TIMEOUT_S = 150
MICRO_TIMEOUT_S = 20


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, capture=True, env=None):
    """Run `cmd` in its own process group and return (code, out, err).

    On timeout the whole group is killed, so no compiler or forked benchmark
    child outlives this script, and TimeoutExpired is raised.
    """
    proc = subprocess.Popen(
        cmd, text=True, env=env, start_new_session=True,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=subprocess.PIPE if capture else None)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then bring the two benchmark binaries up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src", code=2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "perfbench", "perfbench_micro"])
    for cmd in steps:
        try:
            code, _, _ = run(cmd, BUILD_TIMEOUT_S, capture=False)
        except (OSError, subprocess.SubprocessError) as e:
            fail(f"build failed: {e}", code=2)
        if code != 0:
            fail(f"build failed: {' '.join(cmd)} exited with {code}", code=2)


def git_describe():
    """Describe the checkout; never searches above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        code, out, _ = run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
            10, env=env)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.strip() if code == 0 else "none"


def micro_metrics(bdir):
    """Median per-operation cost of each micro_simulator benchmark (ns)."""
    names = "|".join(MICRO)
    cmd = [os.path.join(bdir, "perfbench_micro"),
           f"--benchmark_filter=^({names})$",
           "--benchmark_format=json",
           "--benchmark_min_time=0.1",
           "--benchmark_repetitions=3",
           "--benchmark_report_aggregates_only=true"]
    code, out, _ = run(cmd, MICRO_TIMEOUT_S)
    if code != 0:
        raise ValueError(f"exited with {code}")
    found = {}
    for b in json.loads(out)["benchmarks"]:
        if b.get("aggregate_name") == "median" and b["run_name"] in MICRO:
            ns = b["real_time"] * NS_PER[b["time_unit"]]
            found[MICRO[b["run_name"]]] = {"value": ns, "unit": "ns"}
    missing = set(MICRO.values()) - set(found)
    if missing:
        raise ValueError(f"micro_simulator did not report {sorted(missing)}")
    return {name: found[name] for name in MICRO.values()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", code=2)

    bdir = build_dir()
    build(bdir)

    cmd = [os.path.join(bdir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-describe", git_describe()]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            bdir, f"spans-{args.workload}-seed{args.seed}.json")]
    try:
        code, out, err = run(cmd, BENCH_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"benchmark: {e}")
    sys.stderr.write(err)
    lines = out.splitlines()
    if code != 0 or not lines:
        fail(f"benchmark exited with code {code}")
    result = json.loads(lines[-1])

    if args.trace:
        try:
            result["metrics"].update(micro_metrics(bdir))
        except (OSError, ValueError, KeyError,
                subprocess.SubprocessError) as e:
            fail(f"micro_simulator: {e}")

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
