#!/usr/bin/env python3
"""Regenerate the stored reference outputs in perfbench/refs/.

References are kept for every pooled detail-long program and, for the
default and the held-out seed, every request those seeds issue (the
warm-up requests, the sweeps, the serve pool), each with the response
frame Exec.exec gives for it. Run from anywhere:

    python3 perfbench/make_refs.py

Regenerate only when the simulator's output is meant to change."""

import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as bench  # noqa: E402
from harness import proc, refs, work, workloads  # noqa: E402

SEEDS = [work.DEFAULT_SEED, work.HELD_OUT_SEED]


def requests(workload, seed):
    if workload == "detail-long":
        return [work.DETAIL_WARMUP] + [l for r in range(work.DETAIL_POOL) for l in work.detail_round(seed, r)]
    if workload == "sweep-cold":
        return [work.SWEEP_WARMUP] + work.sweep_requests(seed)
    runs, cmps, sampled = work.serve_pool(seed)
    return [work.SERVE_WARMUP] + runs + cmps + sampled


def main():
    os.chdir(bench.ROOT)
    bench.build(trace=False)
    run_dir = os.path.join(".bench_run", "make-refs")
    os.makedirs(run_dir, exist_ok=True)
    for workload in sorted(workloads.WORKLOADS):
        lines = sorted({l for seed in SEEDS for l in requests(workload, seed)})
        frames = refs.compute(lines, workloads.REFEXEC, run_dir, proc.Deadline(3600))
        refs.save_stored(workload, SEEDS, frames)
        print(f"{workload}: {len(frames)} references")
    shutil.rmtree(run_dir)


if __name__ == "__main__":
    main()
