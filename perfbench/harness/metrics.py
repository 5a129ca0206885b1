"""Every metric the benchmark reports, with its unit.

BENCHMARK.json lists the same names; a test keeps the two in step."""

END_TO_END = [
    ("setup_s", "s"),
    ("sim_instrs_per_s", "instr/s"),
    ("requests_per_s", "req/s"),
    ("peak_rss_mb", "MB"),
    ("alloc_words_per_instr", "words/instr"),
]

KINDS = ["in-order", "dep-steer", "ooo", "braid", "cgooo"]

# Span names: each is also a per-layer metric (its summed self time), so
# the reported self times plus trace.uncovered_s add up to trace.wall_s.
SPAN_NAMES = [
    "workload.generate_s",
    "core.compile_s",
    "isa.trace_s",
    "isa.deps_s",
    "isa.ff_s",
    "uarch.pipeline_s",
    "sample.plan_s",
    "sample.measure_s",
    "sample.verify_s",
    "cmp.prepare_s",
    "cmp.run_s",
    "dse.sweep_s",
    "dse.warm_sweep_s",
    "dse.frontier_s",
    "dse.cache_store_s",
    "dse.cache_find_s",
    "api.exec_s",
    "api.json_s",
]

PER_LAYER = (
    [(name, "s") for name in SPAN_NAMES]
    + [
        ("workload.words_per_instr", "words/instr"),
        ("core.words_per_instr", "words/instr"),
        ("isa.trace_words_per_instr", "words/instr"),
        ("isa.trace_live_mb", "MB"),
        ("isa.deps_words_per_instr", "words/instr"),
        ("isa.ff_instrs_per_s", "instr/s"),
    ]
    + [(f"uarch.instrs_per_s.{k}", "instr/s") for k in KINDS]
    + [(f"uarch.words_per_instr.{k}", "words/instr") for k in KINDS]
    + [
        ("uarch.sim_cycles", "count"),
        ("sample.detail_frac", "ratio"),
        ("sample.ipc_error", "ratio"),
        ("cmp.instrs_per_s", "instr/s"),
        ("dse.sweep_overhead_s", "s"),
        ("dse.simulations", "count"),
        ("dse.cache_hits", "count"),
        ("api.serve_overhead_s", "s"),
        ("api.latency_p50_s", "s"),
        ("api.latency_p90_s", "s"),
        ("api.latency_samples", "count"),
        ("proc.startup_s", "s"),
        ("host.probe_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.uncovered_s", "s"),
        ("trace.spans", "count"),
    ]
)


def report(values, catalogue):
    """The `metrics` object of the result line: every catalogued metric,
    0 where the workload never reaches that layer."""
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in catalogue}
