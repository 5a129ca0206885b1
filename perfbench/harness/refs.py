"""Expected responses: stored with the benchmark for the default and the
held-out seed, computed through Exec.exec for any other seed.

A reference is the terminal response frame of a request (its `id`
dropped), exactly as the daemon would serve it; the one-shot CLI prints
that frame's text and writes its document."""

import json
import os

from . import proc

REFS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "refs")


def strip_id(frame):
    return {k: v for k, v in frame.items() if k != "id"}


def stored_path(workload):
    return os.path.join(REFS_DIR, workload + ".json")


def load_stored(workload):
    try:
        with open(stored_path(workload)) as f:
            return json.load(f)["frames"]
    except FileNotFoundError:
        return {}


def save_stored(workload, seeds, frames):
    with open(stored_path(workload), "w") as f:
        json.dump({"seeds": seeds, "frames": frames}, f, indent=0, sort_keys=True)
        f.write("\n")


def compute(lines, refexec, run_dir, deadline):
    """Reference frames for request lines, by running them through the
    reference executor (one process, requests in order)."""
    if not lines:
        return {}
    src = os.path.join(run_dir, "refs-in.jsonl")
    dst = os.path.join(run_dir, "refs-out.jsonl")
    with open(src, "w") as f:
        f.write("".join(l + "\n" for l in lines))
    out = proc.run([refexec, src, dst], deadline, os.path.join(run_dir, "refs.err"))
    if out.code != 0:
        raise proc.Failed(f"reference executor exited {out.code}: {out.stderr[-2000:]}")
    with open(dst) as f:
        frames = [strip_id(json.loads(l)) for l in f]
    if len(frames) != len(lines):
        raise proc.Failed("reference executor skipped requests")
    return dict(zip(lines, frames))


def expected(workload, lines, refexec, run_dir, deadline, known=None):
    """{line: frame} for every line: from the stored references, else
    `known` (frames the traced replay produced), else the reference
    executor."""
    table = dict(known or {})
    table.update(load_stored(workload))
    missing = sorted({l for l in lines if l not in table})
    table.update(compute(missing, refexec, run_dir, deadline))
    return {l: table[l] for l in lines}
