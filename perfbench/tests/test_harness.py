"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench/tests

The unit tests need nothing built; the smoke tests build braidsim and
run every workload on tiny inputs (about a minute in all)."""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from harness import gcreport, metrics, refs, spans, stats, work, workloads  # noqa: E402


class Percentile(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        value, beyond = stats.percentile(range(1, 100), 90)
        self.assertEqual(beyond, 10)
        self.assertAlmostEqual(value, 89.2)
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(range(1, 91), 90)

    def test_median_needs_ten_beyond_too(self):
        self.assertEqual(stats.percentile(range(21), 50), (10, 10))
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(range(19), 50)

    def test_failed_requests_sit_beyond_every_limit(self):
        xs = [0.01] * 120 + [float("inf")] * 12
        value, beyond = stats.percentile(xs, 90)
        self.assertEqual(value, 0.01)
        self.assertEqual(beyond, 12)


def span(id, parent, t0, t1, words=0.0, name="x", req=0, instrs=0):
    return {"id": id, "parent": parent, "t0": t0, "t1": t1, "words": words,
            "name": name, "req": req, "instrs": instrs, "core": ""}


class SelfTime(unittest.TestCase):
    # root [0,10] -> a [1,3], b [4,7] -> c [5,6]; d [11,12] on its own
    TREE = [
        span(0, -1, 0.0, 10.0, words=100, name="root"),
        span(1, 0, 1.0, 3.0, words=20, name="a"),
        span(2, 0, 4.0, 7.0, words=30, name="b"),
        span(3, 2, 5.0, 6.0, words=5, name="c"),
        span(4, -1, 11.0, 12.0, words=1, name="a"),
    ]

    def test_self_time_subtracts_children(self):
        st = spans.self_times(self.TREE)
        self.assertEqual(st[0], (5.0, 50.0))
        self.assertEqual(st[1], (2.0, 20.0))
        self.assertEqual(st[2], (2.0, 25.0))
        self.assertEqual(st[3], (1.0, 5.0))

    def test_self_times_plus_uncovered_is_the_wall(self):
        st = spans.self_times(self.TREE)
        gap = spans.uncovered(self.TREE, -1.0, 13.0)
        self.assertAlmostEqual(gap, 14.0 - 11.0)
        self.assertAlmostEqual(sum(t for t, _ in st.values()) + gap, 14.0)

    def test_overlapping_children_are_covered_once(self):
        tree = [span(0, -1, 0.0, 10.0), span(1, 0, 1.0, 4.0), span(2, 0, 3.0, 6.0)]
        self.assertEqual(spans.self_times(tree)[0][0], 5.0)

    def test_by_name_sums_and_inherits_request_instructions(self):
        tree = [span(0, -1, 0.0, 1.0, words=10, name="gen", req=7),
                span(1, -1, 1.0, 3.0, words=40, name="trace", req=7, instrs=20)]
        named = spans.by_name(tree + [dict(self.TREE[4], req=8)])
        self.assertEqual(named["gen"]["instrs"], 20)
        self.assertEqual(named["trace"]["self_s"], 2.0)


class GcReport(unittest.TestCase):
    REPORT = (
        "gzip on braid-8\n"
        "allocated_words: 4079358\n"
        "minor_words: 3749780\n"
        "promoted_words: 697157\n"
        "major_words: 1026735\n"
        "minor_collections: 19\n"
        "mean_space_overhead: 66.614082\n"
    )

    def test_parses_every_counter(self):
        r = gcreport.parse(self.REPORT)
        self.assertEqual(r["allocated_words"], 4079358)
        self.assertEqual(r["minor_collections"], 19)
        self.assertAlmostEqual(r["mean_space_overhead"], 66.614082)
        self.assertNotIn("gzip on braid-8", r)

    def test_missing_report_is_an_error(self):
        with self.assertRaises(ValueError):
            gcreport.allocated_words("braidsim: no such benchmark\n")


class Outputs(unittest.TestCase):
    def checked(self, observed, expected, inject=False):
        run = workloads.Run("detail-long", 1, 1, False, "unused", None, inject_mismatch=inject)
        for line, kind, out in observed:
            run.record(line, kind, out)
        saved = refs.expected
        refs.expected = lambda workload, lines, *a, **k: {l: expected[l] for l in lines}
        try:
            workloads.check_outputs(run)
        finally:
            refs.expected = saved
        return run

    FRAME = {"schema": "braidsim-api/1", "type": "done", "result": "run", "text": "ok\n"}

    def test_matching_output_passes(self):
        run = self.checked([("r", "run", {"text": "ok\n"})], {"r": self.FRAME})
        self.assertEqual((run.attempted, run.failed), (1, 0))

    def test_injected_mismatch_counts_as_failed(self):
        run = self.checked([("r", "run", {"text": "ok\n"}), ("s", "run", {"text": "ok\n"})],
                           {"r": self.FRAME, "s": self.FRAME}, inject=True)
        self.assertEqual((run.attempted, run.failed), (2, 1))

    def test_mismatched_served_request_misses_every_latency_limit(self):
        observed = [(f"r{i}", "served", self.FRAME) for i in range(120)]
        expected = {f"r{i}": self.FRAME for i in range(120)}
        expected["r7"] = dict(self.FRAME, text="other\n")
        run = self.checked(observed, expected)
        run.served = [(0.01 + i * 1e-4, i) for i in range(120)]
        latencies = workloads.latency_summary(run)
        self.assertEqual(run.failed, 1)
        self.assertEqual(latencies[7], float("inf"))
        self.assertEqual(run.latency_summary["api.latency_samples"], 120)

    def test_error_frame_never_matches(self):
        err = {"schema": "braidsim-api/1", "type": "error", "message": "x"}
        run = self.checked([("r", "served", err)], {"r": err})
        self.assertEqual(run.failed, 1)


class Inputs(unittest.TestCase):
    def test_seed_determines_every_request(self):
        for seed in (1, 5):
            self.assertEqual(work.detail_round(seed, 0), work.detail_round(seed, 0))
            self.assertEqual(work.serve_block(seed, 3), work.serve_block(seed, 3))
            self.assertEqual(work.sweep_requests(seed), work.sweep_requests(seed))
        self.assertNotEqual(work.detail_round(1, 0), work.detail_round(2, 0))
        self.assertNotEqual(work.sweep_requests(1), work.sweep_requests(2))

    def test_each_detail_round_covers_every_core_kind(self):
        for r in range(5):
            kinds = sorted(json.loads(l)["core"] for l in work.detail_round(9, r))
            self.assertEqual(kinds, sorted(work.KINDS))

    def test_serve_block_composition_is_fixed(self):
        ops = lambda b: sorted((json.loads(l)["op"], "sample" in json.loads(l)) for l in b)
        self.assertEqual(ops(work.serve_block(1, 0)), ops(work.serve_block(8, 4)))
        self.assertGreaterEqual(work.MIN_SERVED, 100 + 10)

    def test_cli_args_round_trip_the_request(self):
        args = workloads.cli_args(work.detail_round(1, 0)[0])
        self.assertEqual(args[0], "run")
        sweep = workloads.cli_args(work.sweep_requests(1)[0], "c", "j")
        self.assertEqual(sweep.count("--axis"), 4)


class Catalogue(unittest.TestCase):
    def test_benchmark_json_lists_every_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], metrics.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], metrics.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(workloads.WORKLOADS))


def bench(*args):
    out = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                         capture_output=True, text=True, timeout=600)
    return out, json.loads(out.stdout.strip().splitlines()[-1]) if out.returncode == 0 else None


class Smoke(unittest.TestCase):
    def run_smoke(self, workload, trace):
        out, result = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                            "--trace", str(trace), "--smoke")
        self.assertEqual(out.returncode, 0, out.stderr[-3000:])
        self.assertTrue(result["correct"], out.stderr[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        names = [n for n, _ in (metrics.PER_LAYER if trace else metrics.END_TO_END)]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        return result["metrics"]

    def test_detail_long(self):
        m = self.run_smoke("detail-long", 0)
        self.assertGreater(m["sim_instrs_per_s"]["value"], 0)

    def test_sweep_cold(self):
        self.run_smoke("sweep-cold", 0)

    def test_serve_mix(self):
        self.run_smoke("serve-mix", 0)

    def test_traced_replays(self):
        for workload in sorted(workloads.WORKLOADS):
            m = self.run_smoke(workload, 1)
            self.assertGreater(m["trace.wall_s"]["value"], 0)
            self.assertGreater(m["uarch.pipeline_s"]["value"], 0)

    def test_injected_mismatch_is_reported(self):
        out, result = bench("--workload", "detail-long", "--seconds", "1", "--smoke", "--inject-mismatch")
        self.assertEqual(out.returncode, 0, out.stderr[-3000:])
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
