"""Seeded inputs of the three workloads, as braidsim-api/1 request lines.

Every request the benchmark issues is built here from the workload seed
and nothing else. The same line is sent to the daemon as a frame, turned
into one-shot CLI arguments, fed to the reference executor and replayed
in the traced run, so all four see identical inputs.

The composition of each round or block is fixed; the seed picks the
generator seeds of the programs and the order of requests. Runs of
different seeds therefore do comparable work, which keeps the spread
between seeds small."""

import json
import random

SCHEMA = "braidsim-api/1"
KINDS = ["in-order", "dep-steer", "ooo", "braid", "cgooo"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

# far-miss, hashing, branchy, stencil and dense-control-flow programs
DETAIL_BENCHES = ["mcf", "gzip", "crafty", "swim", "gcc"]
DETAIL_SCALE = 1_000_000
DETAIL_POOL = 8  # program seeds per (benchmark, core kind) pair

SWEEP_BENCHES = ["mcf", "gzip", "swim"]
SWEEP_SCALE = 50_000
SWEEP_AXES = {
    "ext_regs": [8, 16],
    "rf_read_ports": [2, 6],
    "bypass_per_cycle": [1, 4],
    "clusters": [4, 8],
}

SERVE_PROGRAMS = ["gzip", "mcf", "crafty", "swim"]
SERVE_SCALE = 20_000
SERVE_CMP = [(["gzip", "mcf"], "braid"), (["crafty", "swim"], "ooo")]
SERVE_SAMPLED = [("gcc", "braid"), ("equake", "cgooo")]
SAMPLED_SCALE = 1_000_000
SAMPLE_SPEC = {"interval": 2000, "max_k": 8, "warmup": 2000, "seed": 1, "verify": False}
MIN_SERVED = 110  # p90 then has at least ten samples beyond it


def line(op, **fields):
    return json.dumps({"schema": SCHEMA, "op": op, **fields}, separators=(",", ":"))


def run_line(bench, seed, scale, core, sample=None):
    fields = {"bench": bench, "seed": seed, "scale": scale, "core": core, "width": 8}
    if sample:
        fields["sample"] = sample
    return line("run", **fields)


def sweep_line(axes, benches, seed, scale):
    return line(
        "sweep", preset="braid", axes=axes, mode="cartesian", benches=benches,
        seed=seed, scale=scale, jobs=1,
    )


def cmp_line(benches, seed, scale, core):
    return line(
        "cmp", benches=benches, cores=2, seed=seed, scale=scale, core=core,
        width=8, counters=False,
    )


def _rng(workload, seed, part):
    return random.Random(f"{workload}/{seed}/{part}")


def _program_seed(rng):
    return rng.randrange(1, 1 << 20)


# --- detail-long: one-shot `braidsim run` at scale 1M ---

def detail_pool():
    """The program seeds each pair draws from. Their references are
    stored with the benchmark: a 1M-instruction reference costs as much
    as the run it checks, and computing it every run would halve the
    time left for measuring."""
    rng = _rng("detail-long", "pool", 0)
    return [[_program_seed(rng) for _ in range(DETAIL_POOL)] for _ in KINDS]


def detail_round(seed, r, scale=DETAIL_SCALE):
    """Round r: each core kind on its own program (mcf on in-order, gzip
    on dep-steer, ...), in a seeded order. The workload seed deals each
    pair's pooled program seeds out to the rounds, so no request repeats
    within a run; rounds past the pool get fresh program seeds. Every
    round is the same mix of work."""
    pool = detail_pool()
    pairs = []
    for i, (bench, kind) in enumerate(zip(DETAIL_BENCHES, KINDS)):
        dealt = _rng("detail-long", seed, f"deal{i}").sample(pool[i], DETAIL_POOL)
        program = dealt[r] if r < DETAIL_POOL else _program_seed(_rng("detail-long", seed, f"{r}/{i}"))
        pairs.append(run_line(bench, program, scale, kind))
    _rng("detail-long", seed, r).shuffle(pairs)
    return pairs


DETAIL_WARMUP = run_line("gzip", 1, 50_000, "braid")


# --- sweep-cold: one `braidsim sweep --jobs 1` per request ---

SWEEP_PROGRAMS = 3


def sweep_requests(seed, scale=SWEEP_SCALE, benches=SWEEP_BENCHES):
    """The sweeps a run cycles through: one fixed grid over three seeded
    programs. The grid stays fixed because the values swept and the order
    of the points both move a sweep's cost and peak heap; running three
    programs per run evens out the programs' own differences."""
    rng = _rng("sweep-cold", seed, 0)
    axes = [f"{field}=" + ",".join(map(str, values)) for field, values in SWEEP_AXES.items()]
    return [sweep_line(axes, benches, _program_seed(rng), scale) for _ in range(SWEEP_PROGRAMS)]


SWEEP_WARMUP = sweep_line(["ext_regs=8"], ["gzip"], 1, SWEEP_SCALE)


# --- serve-mix: one client, one connection, closed loop ---

def serve_pool(seed, scale=SERVE_SCALE, sampled_scale=SAMPLED_SCALE):
    """(runs, cmps, sampled): eight full runs over four programs (each
    program on two core kinds, so requests share a preparation), two
    2-core cmp mixes and two sampled runs above the sampling crossover."""
    rng = _rng("serve-mix", seed, "pool")
    runs = []
    for j, bench in enumerate(SERVE_PROGRAMS):
        s = _program_seed(rng)
        for k in (2 * j, 2 * j + 1):
            runs.append(run_line(bench, s, scale, KINDS[k % len(KINDS)]))
    cmps = [cmp_line(b, _program_seed(rng), scale, core) for b, core in SERVE_CMP]
    sampled = [
        run_line(bench, _program_seed(rng), sampled_scale, core, SAMPLE_SPEC)
        for bench, core in SERVE_SAMPLED
    ]
    return runs, cmps, sampled


def serve_block(seed, b, **scales):
    """Block b: every pooled run twice, every cmp once, every sampled run
    twice (22 requests), in a seeded order."""
    runs, cmps, sampled = serve_pool(seed, **scales)
    block = runs * 2 + cmps + sampled * 2
    _rng("serve-mix", seed, b).shuffle(block)
    return block


SERVE_WARMUP = run_line("gzip", 1, 50_000, "braid")
