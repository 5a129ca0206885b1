#!/usr/bin/env python3
"""braidsim benchmark: builds braidsim from this checkout, runs one
workload, checks every output and prints one JSON result line.

    python3 perfbench/run.py --workload detail-long|sweep-cold|serve-mix \
        --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics with nothing traced; --trace 1
also replays the workload's requests in-process with spans around every
layer and reports the per-layer metrics instead. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import metrics, probe, proc, workloads  # noqa: E402

RUN_BUDGET_S = 170
BUILD_BUDGET_S = 880


def build(trace):
    """Build the simulator and the benchmark's executables from source."""
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        sys.exit("perfbench: not a braidsim checkout (no dune-project, lib/ or bin/); nothing to build")
    targets = [workloads.BRAIDSIM, workloads.REFEXEC, probe.PROBE] + ([workloads.LAYERS] if trace else [])
    targets = [os.path.relpath(t, os.path.join("_build", "default")) for t in targets]
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(["dune", "build", "--root", ".", *targets], env=env,
                              capture_output=True, text=True, timeout=BUILD_BUDGET_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        sys.exit("perfbench: build failed")


def finite(x):
    return x if isinstance(x, (int, float)) and math.isfinite(x) else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one set-up: a quick end-to-end check of the harness")
    ap.add_argument("--inject-mismatch", action="store_true",
                    help="corrupt the first reference output (tests that mismatches count as failed)")
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    build(args.trace)
    deadline = proc.Deadline(RUN_BUDGET_S)
    run_dir = os.path.join(".bench_run", f"{args.workload}-{os.getpid()}-{time.time_ns()}")
    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace), run_dir, deadline,
                        smoke=args.smoke, inject_mismatch=args.inject_mismatch)
    try:
        values = workloads.execute(run)
    except proc.Failed as e:
        sys.exit(f"perfbench: {args.workload}: {e}")
    finally:
        workloads.clean(run)
    catalogue = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    reported = metrics.report(values, catalogue)
    broken = [n for n, m in reported.items() if finite(m["value"]) != m["value"]]
    for n in broken:
        run.problem(f"metric {n} is not a finite number")
        reported[n]["value"] = 0
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": reported,
    }
    print(json.dumps(result, allow_nan=False))


if __name__ == "__main__":
    main()
