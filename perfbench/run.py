#!/usr/bin/env python3
"""Build and run the riot performance benchmark.

Usage, from the root of a source checkout:

  python3 perfbench/run.py --workload serve-healthy [--seed N]
                           [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --workload all     # every workload, one table
  python3 perfbench/run.py --test             # the benchmark's own tests

Each run first builds perfbench/ (which compiles ../src) into
.bench_build/ at the checkout root; an up-to-date build costs about a
second. The workload then runs in its own process, and the last line of
stdout is its JSON result. Reports (host record, digest, counts, and the
traced run's spans) are written to .bench_build/reports/.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "riot_perfbench"
TESTS = BUILD / "perfbench_tests"
WORKLOADS = ["serve-healthy", "serve-faulted", "chaos-soak"]
RUN_TIMEOUT_S = 170
# The end-to-end metrics, in print order; the raw wall-clock and the
# serving-only ones are read from the binary's "# name value" lines.
TABLE = [
    ("sim_s_per_ref_s", "s/s"),
    ("sim_s_per_wall_s", "s/s"),
    ("setup_s", "s"),
    ("setup_wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("allocs_per_request", "count"),
    ("allocs_per_sim_s", "1/s"),
    ("ok_pct", "%"),
    ("slo_pct", "%"),
    ("p50_ms", "ms"),
    ("p9999_ms", "ms"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configure (once) and build `target`; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def git_commit():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(workload, seed, seconds, trace, commit):
    """Run one workload in a fresh process; returns (exit code, stdout)."""
    reports = BUILD / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seconds", str(seconds),
           "--trace", str(trace), "--commit", commit,
           "--report-dir", str(reports)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s")
        return 1, ""
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode, proc.stdout


def side_values(stdout):
    """The metrics the binary prints as '# name value' lines."""
    values = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "#" and parts[1] in (
                "sim_s_per_wall_s", "setup_wall_s", "slo_pct", "p50_ms",
                "p9999_ms"):
            values[parts[1]] = float(parts[2])
    return values


def run_all(args, commit):
    """Every workload, each in its own process, then one table."""
    rows, status = {}, 0
    for workload in WORKLOADS:
        code, out = run_workload(workload, args.seed, args.seconds,
                                 args.trace, commit)
        status = status or code
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            rows[workload] = {}
            continue
        result = json.loads(lines[-1])
        rows[workload] = {k: v["value"] for k, v in result["metrics"].items()}
        rows[workload].update(side_values(out))
    if args.trace:
        return status
    print("\n%-20s %-6s" % ("metric", "unit")
          + "".join("%18s" % w for w in WORKLOADS))
    for name, unit in TABLE:
        cells = []
        for w in WORKLOADS:
            v = rows[w].get(name)
            cells.append("%18s" % ("n/a" if v is None else "%.6g" % v))
        print("%-20s %-6s" % (name, unit) + "".join(cells))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.test and args.workload is None:
        parser.error("--workload or --test is required")

    # A terminated run must not leave its child behind: SystemExit unwinds
    # through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.test:
        if not build("perfbench_tests"):
            return 2
        return subprocess.run([str(TESTS)]).returncode
    if not build("riot_perfbench"):
        return 2
    commit = git_commit()
    if args.workload == "all":
        return run_all(args, commit)
    code, _ = run_workload(args.workload, args.seed, args.seconds,
                           args.trace, commit)
    return code


if __name__ == "__main__":
    sys.exit(main())
