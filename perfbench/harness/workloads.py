"""The three workloads: set-up, measured phase, output checks and the
traced replay.

Everything runs serially: one simulating process at a time beside the
harness, sweeps and the daemon at --jobs 1, one client connection."""

import json
import math
import os
import re
import shutil
import statistics
import sys
import time

from . import probe, proc, refs, spans, stats, wire, work
from .metrics import KINDS, SPAN_NAMES

BRAIDSIM = os.path.join("_build", "default", "bin", "main.exe")
REFEXEC = os.path.join("_build", "default", "perfbench", "ocaml", "refexec", "refexec.exe")
LAYERS = os.path.join("_build", "default", "perfbench", "ocaml", "layers", "layers.exe")

SETUP_REPEATS = 11
STARTUP_SPAWNS = 15
SERVE_REPLAY_BLOCKS = 2


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Run:
    """One benchmark run: its parameters, scratch directory and tallies."""

    def __init__(self, workload, seed, seconds, trace, run_dir, deadline, smoke=False, inject_mismatch=False):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.run_dir = run_dir
        self.deadline = deadline
        self.smoke = smoke
        self.inject_mismatch = inject_mismatch
        self.setup_repeats = 1 if (trace or smoke) else SETUP_REPEATS
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.observed = []  # (request line, kind, observed output)
        self.mismatched = set()  # indices into observed
        self.served = []  # (latency, index into observed or None), serve-mix only
        self.counter = 0
        self.probe = None  # started once the run directory exists

    def path(self, name):
        return os.path.join(self.run_dir, name)

    def fresh(self, stem):
        self.counter += 1
        return self.path(f"{stem}-{self.counter}")

    def problem(self, msg):
        self.problems.append(msg)
        log(f"{self.workload}: {msg}")

    def request_failed(self, line, why):
        self.attempted += 1
        self.failed += 1
        log(f"{self.workload}: request failed: {why}\n  request: {line}")

    def record(self, line, kind, output):
        self.attempted += 1
        self.observed.append((line, kind, output))
        return len(self.observed) - 1


# --- parsing outputs ---

_INSTRS = re.compile(r"^\s+instructions\s+(\d+)\s*$", re.M)
_CMP_ROW = re.compile(r"^\s+\d+\s+\S+\s+\d+\s+(\d+)\s+[0-9.]+\s+[0-9.]+\s*$", re.M)


def instructions(frame):
    """Simulated instructions a response reports (a sampled run reports
    the instructions it represents)."""
    kind = frame.get("result")
    if kind == "run":
        m = _INSTRS.search(frame["text"])
        return int(m.group(1)) if m else 0
    if kind == "cmp":
        return sum(int(x) for x in _CMP_ROW.findall(frame["text"]))
    if kind == "sweep":
        doc = json.loads(frame["doc"])
        return sum(r["instructions"] for p in doc["points"] for r in p["runs"])
    return 0


def cli_args(line, cache_dir=None, json_out=None):
    """The one-shot command line equivalent to a request line."""
    r = json.loads(line)
    if r["op"] == "run" and "sample" not in r:
        return ["run", r["bench"], "--seed", str(r["seed"]), "--scale", str(r["scale"]),
                "--core", r["core"], "--width", str(r["width"])]
    if r["op"] == "sweep":
        args = ["sweep", "--preset", r["preset"], "--mode", r["mode"],
                "--benches", ",".join(r["benches"]), "--seed", str(r["seed"]),
                "--scale", str(r["scale"]), "--jobs", str(r["jobs"]),
                "--cache-dir", cache_dir, "--json", json_out]
        for a in r["axes"]:
            args += ["--axis", a]
        return args
    raise ValueError(f"no one-shot form for {line}")


# --- output checks ---

def _matches(kind, observed, expected):
    if expected.get("type") != "done":
        return False
    if kind == "served":
        return observed == expected
    if kind == "sweep":
        return observed["text"] == expected["text"] and observed["doc"] == expected["doc"]
    return observed["text"] == expected["text"]


def check_outputs(run, known=None):
    """Compare every observed output with its reference; a mismatch
    counts the request as failed."""
    lines = [line for line, _, _ in run.observed]
    expected = refs.expected(run.workload, lines, REFEXEC, run.run_dir, run.deadline, known)
    if run.inject_mismatch and lines:
        first = lines[0]
        expected[first] = dict(expected[first], text=expected[first].get("text", "") + "(injected)\n")
    for i, (line, kind, observed) in enumerate(run.observed):
        if not _matches(kind, observed, expected[line]):
            run.mismatched.add(i)
            if len(run.mismatched) <= 3:
                log(f"{run.workload}: output differs from the reference\n  request: {line}")
    run.failed += len(run.mismatched)


# --- one-shot processes ---

def run_cli(run, line, kind="run", cache_dir=None):
    """Run one request as a one-shot CLI process; returns its Outcome
    (with .instrs) or None if it failed to run."""
    json_out = run.fresh("sweep.json") if kind == "sweep" else None
    out = proc.run([BRAIDSIM] + cli_args(line, cache_dir, json_out), run.deadline,
                   run.fresh("cli.err"), env=proc.gc_env())
    if out.code != 0:
        run.request_failed(line, f"exit {out.code}: {out.stderr[-500:]}")
        return None
    observed = {"text": out.stdout}
    if kind == "sweep":
        with open(json_out) as f:
            observed["doc"] = f.read()
        out.instrs = instructions({"result": "sweep", "doc": observed["doc"]})
        hits = json.loads(observed["doc"])["stats"]["cache_hits"]
        if hits:
            run.problem(f"cold sweep reported {hits} cache hits")
            run.failed += 1
    else:
        out.instrs = instructions({"result": "run", "text": out.stdout})
    run.record(line, kind, observed)
    return out


def window_rates(run, windows):
    """Median instructions and requests per second over windows of like
    work (rounds, sweeps or blocks), each (probe-scaled wall seconds,
    unscaled wall seconds, instructions, requests): a burst of host noise
    the probe misses then moves one window, not the run's figure."""
    if not windows:
        return 0.0, 0.0
    raw = statistics.median([i / r for _, r, i, _ in windows])
    log(f"host probe median {run.probe.median():.4f} s over {len(run.probe.times)} runs; "
        f"unscaled sim_instrs_per_s {raw:.0f}")
    return (statistics.median([i / w for w, _, i, _ in windows]),
            statistics.median([n / w for w, _, _, n in windows]))


def one_shot_metrics(run, setups, outs, windows):
    outs = [o for o in outs if o is not None]
    log("requests (wall s/instructions/peak MB): "
        + " ".join(f"{o.wall:.3f}/{o.instrs}/{o.rss_mb:.0f}" for o in outs))
    instrs = sum(o.instrs for o in outs)
    instrs_per_s, requests_per_s = window_rates(run, windows)
    return {
        "setup_s": statistics.median(setups),
        "sim_instrs_per_s": instrs_per_s,
        "requests_per_s": requests_per_s,
        "peak_rss_mb": max((o.rss_mb for o in outs), default=0.0),
        "alloc_words_per_instr": sum(o.words() for o in outs) / max(1, instrs),
    }


def detail_long(run):
    scale = 20_000 if run.smoke else work.DETAIL_SCALE
    setups = []
    for _ in range(run.setup_repeats):
        out = run_cli(run, work.DETAIL_WARMUP)
        setups.append(run.probe.scale(out.wall) if out else float("inf"))
    outs, windows, rounds = [], [], 0
    t0 = time.perf_counter()
    while True:
        scaled, done = 0.0, []
        for line in work.detail_round(run.seed, rounds, scale):
            out = run_cli(run, line)
            outs.append(out)
            if out:
                done.append(out)
                scaled += run.probe.scale(out.wall)
        rounds += 1
        if done:
            windows.append((scaled, sum(o.wall for o in done), sum(o.instrs for o in done), len(done)))
        # whole rounds only, so every run covers each core kind equally;
        # a traced run replays exactly one round
        if run.trace or time.perf_counter() - t0 >= run.seconds:
            break
    replayed = [l for r in range(rounds) for l in work.detail_round(run.seed, r, scale)]
    return one_shot_metrics(run, setups, outs, windows), replayed


def sweep_cold(run):
    if run.smoke:
        requests = work.sweep_requests(run.seed, scale=5_000, benches=["gzip"])
    else:
        requests = work.sweep_requests(run.seed)
    setups = []
    for _ in range(run.setup_repeats):
        out = run_cli(run, work.SWEEP_WARMUP, "sweep", cache_dir=run.fresh("setup-cache"))
        setups.append(run.probe.scale(out.wall) if out else float("inf"))
    outs, windows = [], []
    t0 = time.perf_counter()
    while True:
        request = requests[len(outs) % len(requests)]
        out = run_cli(run, request, "sweep", cache_dir=run.fresh("cache"))
        outs.append(out)
        if out:
            windows.append((run.probe.scale(out.wall), out.wall, out.instrs, 1))
        # a traced run replays the first sweep
        if run.trace or time.perf_counter() - t0 >= run.seconds:
            break
    return one_shot_metrics(run, setups, outs, windows), requests[:1]


# --- the daemon ---

STATUS = work.line("status")
SHUTDOWN = work.line("shutdown")


def serve_request(run, conn, line):
    """One request over the connection; returns (latency, frame, index
    into run.observed), with frame and index None if it failed."""
    t0 = time.perf_counter()
    try:
        frame = conn.request(line)
    except (OSError, wire.Closed, ValueError) as e:
        run.request_failed(line, f"connection: {e}")
        return float("inf"), None, None
    latency = time.perf_counter() - t0
    if frame.get("type") != "done":
        run.request_failed(line, frame.get("message", "no terminal frame"))
        return float("inf"), None, None
    return latency, frame, run.record(line, "served", refs.strip_id(frame))


def start_daemon(run):
    """Daemon start plus status plus the warm-up request; returns
    (daemon, connection, set-up seconds, warm-up frame)."""
    sock = run.fresh("d") + ".sock"
    t0 = time.perf_counter()
    daemon = proc.Daemon([BRAIDSIM, "serve", "--socket", sock, "--jobs", "1"], run.deadline,
                         run.fresh("serve.err"), env=proc.gc_env())
    try:
        conn = wire.Conn(sock, run.deadline.left())
        status = conn.request(STATUS)
        if status.get("result") != "status":
            raise proc.Failed(f"status request answered {status}")
        _, frame, _ = serve_request(run, conn, work.SERVE_WARMUP)
    except BaseException:
        daemon.kill()
        raise
    return daemon, conn, time.perf_counter() - t0, frame


def stop_daemon(daemon, conn):
    try:
        conn.request(SHUTDOWN)
        conn.close()
    except (OSError, wire.Closed, ValueError):
        daemon.proc.kill()
    out = daemon.finish()
    if out.code != 0:
        raise proc.Failed(f"daemon exited {out.code}: {out.stderr[-500:]}")
    return out


def serve_mix(run):
    scales = {"scale": 5_000, "sampled_scale": 100_000} if run.smoke else {}
    setups = []
    for i in range(run.setup_repeats):
        daemon, conn, setup, warm = start_daemon(run)
        setups.append(run.probe.scale(setup))
        if i + 1 < run.setup_repeats:
            stop_daemon(daemon, conn)
    try:
        sequence, windows = [], []
        instrs = instructions(warm) if warm else 0
        t0 = time.perf_counter()
        b = 0
        while True:
            t_block, block_instrs = time.perf_counter(), 0
            block = work.serve_block(run.seed, b, **scales)
            for line in block:
                latency, frame, index = serve_request(run, conn, line)
                run.served.append((latency, index))
                sequence.append(line)
                if frame:
                    block_instrs += instructions(frame)
            wall = time.perf_counter() - t_block
            windows.append((run.probe.scale(wall), wall, block_instrs, len(block)))
            instrs += block_instrs
            b += 1
            if time.perf_counter() - t0 >= run.seconds and len(run.served) >= work.MIN_SERVED:
                break
    except BaseException:
        daemon.kill()
        raise
    out = stop_daemon(daemon, conn)
    log("blocks (wall s): " + " ".join(f"{r:.3f}" for _, r, _, _ in windows))
    instrs_per_s, requests_per_s = window_rates(run, windows)
    metrics = {
        "setup_s": statistics.median(setups),
        "sim_instrs_per_s": instrs_per_s,
        "requests_per_s": requests_per_s,
        "peak_rss_mb": out.rss_mb,
        "alloc_words_per_instr": out.words() / max(1, instrs),
    }
    block = len(work.serve_block(run.seed, 0, **scales))
    return metrics, sequence[: SERVE_REPLAY_BLOCKS * block]


def latency_summary(run):
    """p50 and p90 of the served requests' latencies, once outputs are
    checked: a request that failed or whose output differs from its
    reference counts as infinitely slow, so it misses every limit."""
    latencies = [float("inf") if i is None or i in run.mismatched else t for t, i in run.served]
    p50, _ = stats.percentile(latencies, 50)
    p90, beyond = stats.percentile(latencies, 90)
    log(f"serve-mix: {len(latencies)} requests, latency p50 {p50:.4f} s, p90 {p90:.4f} s "
        f"({beyond} samples beyond p90)")
    run.latency_summary = {"api.latency_p50_s": p50, "api.latency_p90_s": p90,
                           "api.latency_samples": len(latencies)}
    return latencies


WORKLOADS = {"detail-long": detail_long, "sweep-cold": sweep_cold, "serve-mix": serve_mix}


# --- the traced replay ---

def _read_replay(path):
    out = {"spans": [], "facts": [], "responses": {}, "errors": [], "meta": None}
    with open(path) as f:
        for raw in f:
            rec = json.loads(raw)
            kind = rec.pop("kind")
            if kind == "span":
                out["spans"].append(rec)
            elif kind == "fact":
                out["facts"].append(rec)
            elif kind == "response":
                out["responses"][rec["req"]] = refs.strip_id(json.loads(rec["frame"]))
            elif kind == "error":
                out["errors"].append(rec["message"])
            elif kind == "meta":
                out["meta"] = rec
    return out


def replay(run, lines):
    """Run the layer replay untraced, then traced; returns both outputs."""
    src = run.path("replay-in.jsonl")
    with open(src, "w") as f:
        f.write("".join(l + "\n" for l in lines))
    result = {}
    for mode in ("off", "on"):
        dst = run.path(f"replay-{mode}.jsonl")
        scratch = run.path(f"replay-{mode}")
        os.makedirs(scratch, exist_ok=True)
        out = proc.run([LAYERS, run.workload, mode, src, dst, scratch], run.deadline,
                       run.path(f"replay-{mode}.err"))
        if out.code != 0:
            raise proc.Failed(f"layer replay exited {out.code}: {out.stderr[-2000:]}")
        result[mode] = _read_replay(dst)
        for e in result[mode]["errors"]:
            run.problem(f"traced replay: {e}")
    return result


def startup_seconds(run):
    walls = []
    for _ in range(STARTUP_SPAWNS):
        out = proc.run([BRAIDSIM, "--version"], run.deadline, run.path("startup.err"))
        walls.append(out.wall)
    return statistics.median(walls)


def layer_metrics(run, lines, traced, untraced, latencies, startup):
    """Per-layer metrics from the traced replay's spans and facts."""
    sp = traced["spans"]
    names = spans.by_name(sp)
    v = {}

    def self_s(name):
        return names.get(name, {}).get("self_s", 0.0)

    def per_instr(name):
        n = names.get(name)
        return n["words"] / n["instrs"] if n and n["instrs"] else 0.0

    for name in SPAN_NAMES:
        v[name] = self_s(name)
    v["workload.words_per_instr"] = per_instr("workload.generate_s")
    v["core.words_per_instr"] = per_instr("core.compile_s")
    v["isa.trace_words_per_instr"] = per_instr("isa.trace_s")
    v["isa.deps_words_per_instr"] = per_instr("isa.deps_s")
    ff = names.get("isa.ff_s")
    v["isa.ff_instrs_per_s"] = ff["instrs"] / ff["self_s"] if ff and ff["self_s"] > 0 else 0.0
    selfs = spans.self_times(sp)
    for k in KINDS:
        pipe = [s for s in sp if s["name"] == "uarch.pipeline_s" and s["core"] == k]
        t = sum(selfs[s["id"]][0] for s in pipe)
        w = sum(selfs[s["id"]][1] for s in pipe)
        n = sum(s["instrs"] for s in pipe)
        v[f"uarch.instrs_per_s.{k}"] = n / t if t > 0 else 0.0
        v[f"uarch.words_per_instr.{k}"] = w / n if n else 0.0
    v["uarch.sim_cycles"] = sum(s["cycles"] for s in sp if s["name"] == "uarch.pipeline_s")

    facts = {}
    for f in traced["facts"]:
        facts.setdefault(f["name"], []).append(f["value"])
    v["isa.trace_live_mb"] = max(facts.get("isa.trace_live_words", [0])) * 8 / 1e6
    represented = sum(facts.get("sample.represented_instrs", []))
    v["sample.detail_frac"] = sum(facts.get("sample.detail_instrs", [])) / represented if represented else 0.0
    errors = facts.get("sample.ipc_error", [])
    v["sample.ipc_error"] = statistics.mean(errors) if errors else 0.0
    cmp = names.get("cmp.run_s")
    v["cmp.instrs_per_s"] = cmp["instrs"] / cmp["self_s"] if cmp and cmp["self_s"] > 0 else 0.0

    if "dse.sweep_s" in names:
        point_work = ["workload.generate_s", "core.compile_s", "isa.trace_s", "isa.deps_s", "uarch.pipeline_s"]
        v["dse.sweep_overhead_s"] = self_s("dse.sweep_s") - sum(self_s(n) for n in point_work)
        v["dse.simulations"] = sum(facts.get("dse.cold_simulations", [])) + sum(facts.get("dse.warm_simulations", []))
        v["dse.cache_hits"] = sum(facts.get("dse.cold_cache_hits", [])) + sum(facts.get("dse.warm_cache_hits", []))

    if run.workload == "serve-mix":
        exec_by_req = {s["req"]: selfs[s["id"]][0] for s in sp if s["name"] == "api.exec_s" and s["req"] < len(lines)}
        gaps = [latencies[i] - exec_by_req[i] for i in range(len(lines))
                if i in exec_by_req and math.isfinite(latencies[i])]
        v["api.serve_overhead_s"] = statistics.median(gaps) if gaps else 0.0
        v.update(run.latency_summary)

    meta, meta_off = traced["meta"], untraced["meta"]
    v["proc.startup_s"] = startup
    v["host.probe_s"] = run.probe.median()
    v["trace.wall_s"] = meta["wall_s"]
    v["trace.untraced_wall_s"] = meta_off["wall_s"]
    v["trace.overhead_s"] = meta["wall_s"] - meta_off["wall_s"]
    v["trace.uncovered_s"] = spans.uncovered(sp, meta["t0"], meta["t1"])
    v["trace.spans"] = len(sp)
    covered = sum(st for st, _ in selfs.values())
    if abs(covered + v["trace.uncovered_s"] - meta["wall_s"]) > 1e-6:
        run.problem(f"span self times ({covered:.6f} s) plus uncovered time "
                    f"({v['trace.uncovered_s']:.6f} s) differ from the traced wall ({meta['wall_s']:.6f} s)")
    return v


def execute(run):
    """Run the workload; returns the metric values of this run's mode.

    A traced run replays the workload's own requests in-process and uses
    the replay's responses as the reference for those requests."""
    os.makedirs(run.run_dir, exist_ok=True)
    run.probe = probe.HostProbe(run.run_dir, run.deadline)
    e2e, lines = WORKLOADS[run.workload](run)
    known = None
    if run.trace:
        replayed = replay(run, lines)
        known = {lines[req]: frame for req, frame in replayed["on"]["responses"].items() if req < len(lines)}
    check_outputs(run, known)
    latencies = latency_summary(run) if run.served else []
    if run.trace:
        return layer_metrics(run, lines, replayed["on"], replayed["off"], latencies, startup_seconds(run))
    return e2e


def clean(run):
    shutil.rmtree(run.run_dir, ignore_errors=True)
