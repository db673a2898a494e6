"""Self-tests of the benchmark (stdlib unittest).

usage: python3 -m unittest discover -s perfbench

The traced-pass tests run one pass of every workload, about a minute.
"""

from __future__ import annotations

import json
import re
import time
import unittest

import spans
from run import ROOT, Runner, pass_layers, trimmed_mean
from workloads import WORKLOADS, every_task, load_expected, workload_tasks

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# The workloads each wrapped layer exists to measure.
EXERCISED = {
    "polyring.matmul": ("symbolic", "certificate"),
    "polyring.poly_mul": ("symbolic",),
    "polyring.poly_add": ("symbolic",),
    "polyring.rank": ("certificate",),
    "polyring.det": ("certificate",),
    "transvect.transvectant": ("symbolic",),
    "umbral.eval": ("symbolic",),
    "invariants.transvection_matrix": ("symbolic", "certificate"),
    "independence.jacobian": ("certificate",),
    "combsum.nkr": ("certificate",),
    "sixj.sum": ("sixj",),
    "sixj.render": ("sixj",),
    "cli.main": WORKLOADS,
}

# Bindings other than the defining module's name, which a wrapper on the
# definition alone would miss.
BINDINGS = {
    "binform.independence.rank_exact": "certificate",
    "binform.independence.det_exact": "certificate",
    "binform.independence.nkr": "certificate",
    "binform.independence.transvection_matrix": "certificate",
    "binform.invariants.umbral_eval": "symbolic",
    "binform.cli.umbral_eval": "symbolic",
    "binform.invariants.transvectant": "symbolic",
    "binform.polyring.MultiPoly.__mul__": "symbolic",
    "binform.polyring.MultiPoly.__rmul__": "symbolic",
    "binform.polyring.MultiPoly.__add__": "symbolic",
    "binform.polyring.MultiPoly.__radd__": "symbolic",
    "binform.polyring.RingMatrix.mul": "certificate",
    "binform.sixj.sixj_sum": "sixj",
    "binform.sixj.grid_to_ppm": "sixj",
}


class TestSpec(unittest.TestCase):
    def test_metric_names(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(set(names)), len(names), "a metric or workload name is used twice")

    def test_every_per_layer_metric_names_its_target(self):
        e2e = {m["name"] for m in SPEC["end_to_end"]} | {"failed_frac"}
        workloads = {w["name"] for w in SPEC["workloads"]}
        self.assertEqual(workloads, set(WORKLOADS))
        listed = {m["name"] for m in SPEC["per_layer"]}
        self.assertEqual(listed, set(spans.LAYER_TARGETS))
        for name, targets in spans.LAYER_TARGETS.items():
            self.assertTrue(targets, name)
            for metric, workload in targets:
                self.assertIn(metric, e2e, name)
                self.assertIn(workload, workloads, name)

    def test_setup_metric(self):
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in SPEC["end_to_end"])}])


class TestWorkloads(unittest.TestCase):
    def test_same_seed_same_argv(self):
        for name in WORKLOADS:
            self.assertEqual(workload_tasks(name, 7), workload_tasks(name, 7))

    def test_other_seed_other_argv(self):
        for name in WORKLOADS:
            self.assertNotEqual(workload_tasks(name, 7), workload_tasks(name, 8), name)

    def test_every_task_is_recorded(self):
        expected = load_expected()
        keys = {t.key for t in every_task()}
        self.assertEqual(keys, set(expected))
        for key, digest in expected.items():
            if digest is None:  # only certificates have a property check
                self.assertTrue(key.startswith("independence "), key)

    def test_every_task_runs_at_one_job(self):
        for task in every_task():
            self.assertEqual(task.argv[-2:], ("--jobs", "1"))


class TestDigits(unittest.TestCase):
    def test_int_digits_close_to_decimal_length(self):
        for n in (0, 1, 9, 10, 99, 100, 12345, -10**20, 2**200, 10**300 - 1):
            self.assertIn(spans.int_digits(n), (len(str(abs(n))), len(str(abs(n))) + 1), n)

    def test_past_the_str_limit(self):
        huge = 10 ** 20000
        self.assertIn(spans.int_digits(huge), (20001, 20002))


class TestTrimmedMean(unittest.TestCase):
    def test_a_rare_outlier_does_not_move_it(self):
        self.assertEqual(trimmed_mean([4.0] * 9 + [400.0]), 4.0)

    def test_two_states_weigh_by_their_share(self):
        self.assertAlmostEqual(trimmed_mean([3.0] * 50 + [5.0] * 50), 4.0)
        self.assertLess(trimmed_mean([3.0] * 70 + [5.0] * 30), 4.0)


class TestColdTasks(unittest.TestCase):
    def test_each_fork_starts_with_empty_caches(self):
        task = next(t for t in every_task() if t.argv[:4] == ("invariant", "P", "--d", "8"))
        with Runner(load_expected(), deadline=time.monotonic() + 120) as runner:
            first, second = (runner.run_task(task, traced=True) for _ in range(2))
        self.assertNotIn("failure", first)
        self.assertGreater(first["t_coeff"]["misses"], 0)
        self.assertEqual(first["t_coeff"], second["t_coeff"])


class TestTracedPasses(unittest.TestCase):
    """One traced pass of every workload."""

    @classmethod
    def setUpClass(cls):
        with Runner(load_expected(), deadline=time.monotonic() + 900) as runner:
            cls.passes = {name: runner.run_pass(workload_tasks(name, 0), traced=True) for name in WORKLOADS}

    def test_reports_are_right(self):
        for name, p in self.passes.items():
            for t in p["tasks"]:
                self.assertFalse(t.get("wrong"), t)

    def test_each_layer_is_exercised(self):
        for layer, names in EXERCISED.items():
            for name in names:
                calls = sum(n for t in self.passes[name]["tasks"]
                            for _p, lay, n, *_ in t.get("trace", {}).get("edges", []) if lay == layer)
                self.assertGreater(calls, 0, f"{layer} on {name}")

    def test_each_binding_is_exercised(self):
        for binding, name in BINDINGS.items():
            calls = sum(t.get("trace", {}).get("bindings", {}).get(binding, 0) for t in self.passes[name]["tasks"])
            self.assertGreater(calls, 0, f"{binding} on {name}")

    def test_self_times_partition_the_task(self):
        for p in self.passes.values():
            for t in p["tasks"]:
                tr = t["trace"]
                root = sum(total for parent, _lay, _n, total, _own in tr["edges"] if parent == "")
                own = sum(e[4] for e in tr["edges"])
                self.assertAlmostEqual(own + tr["probe_s"], root, delta=1e-6 + 1e-6 * root)

    def test_per_layer_metrics_are_reported(self):
        listed = [m["name"] for m in SPEC["per_layer"] if m["name"] != "trace.overhead_s"]
        for p in self.passes.values():
            self.assertLessEqual(set(listed), set(pass_layers(p)))

    def test_only_recorded_failures_fail(self):
        expected = load_expected()
        for p in self.passes.values():
            for t in p["tasks"]:
                if "failure" in t:
                    self.assertIsNone(expected[t["task"]], t)


if __name__ == "__main__":
    unittest.main()
