"""Self-tests of the benchmark.

    python3 -m unittest bench/test_bench.py            # everything, ~3 minutes
    python3 -m unittest bench.test_bench.SelfTimeTest  # the fast unit tests

The slow tests start the same child processes as ``run.py``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import unittest
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def spans(*rows):
    """(names, name_of, parent, start, end) from (name, parent, start, end) rows."""
    names = sorted({r[0] for r in rows})
    cols = [array("q") for _ in range(4)]
    for name, parent, start, end in rows:
        for col, v in zip(cols, (names.index(name), parent, start, end)):
            col.append(v)
    return (names, *cols)


def root_total(table):
    _names, _name_of, parent, start, end = table
    return sum(end[i] - start[i] for i in range(len(start)) if parent[i] < 0)


class SelfTimeTest(unittest.TestCase):
    def check(self, table):
        totals = tracer.self_times(*table)
        self.assertTrue(all(v >= 0 for v in totals.values()), totals)
        self.assertEqual(sum(totals.values()), root_total(table))
        return totals

    def test_nested(self):
        totals = self.check(spans(("cli", -1, 0, 100), ("mul", 0, 10, 40),
                                  ("cc", 0, 50, 90), ("mul", 2, 60, 70)))
        self.assertEqual(totals, {"cli": 30, "mul": 40, "cc": 30})

    def test_recursion_like_tube_module(self):
        rows = [("tube", -1, 0, 100)]
        for depth in range(1, 6):
            rows.append(("tube", depth - 1, 10 * depth, 100 - 10 * depth))
        self.assertEqual(self.check(spans(*rows)), {"tube": 100})

    def test_iso_tests_inside_iso_classes(self):
        rows = [("iso_classes", -1, 0, 1000)]
        for k in range(40):
            rows.append(("iso_test", 0, 10 + 20 * k, 20 + 20 * k))
            rows.append(("hom_basis", len(rows) - 1, 12 + 20 * k, 15 + 20 * k))
        totals = self.check(spans(*rows))
        self.assertEqual(totals["iso_classes"], 600)
        self.assertEqual(totals["iso_test"], 280)

    def test_random_trees(self):
        rng = random.Random(7)
        for _ in range(50):
            rows = []

            def grow(parent, lo, hi, depth):
                t = lo
                while t < hi and rng.random() < 0.7:
                    a = rng.randint(t, hi)
                    b = rng.randint(a, hi)
                    rows.append((rng.choice("abc"), parent, a, b))
                    if depth < 4:
                        grow(len(rows) - 1, a, b, depth + 1)
                    t = b + 1

            grow(-1, 0, 10_000, 0)
            if rows:
                self.check(spans(*rows))

    def test_children_outside_parent_are_refused(self):
        with self.assertRaises(ValueError):
            tracer.self_times(*spans(("a", -1, 0, 10), ("b", 0, 5, 20)))
        with self.assertRaises(ValueError):
            tracer.self_times(*spans(("a", -1, 0, 10), ("b", 0, 0, 6), ("b", 0, 4, 10)))

    def test_wrapped_recursion_and_spans_file(self):
        t = tracer.Tracer()

        def fib(n):
            return n if n < 2 else traced(n - 1) + traced(n - 2)

        traced = t.span_wrapper("toy.fib", fib)
        self.assertEqual(traced(12), 144)
        table = (t.names, t.name_of, t.parent, t.start, t.end)
        self.check(table)
        self.assertEqual(len(t.start), 465)
        path = os.path.join(run.OUT, "test-spans.bin")
        os.makedirs(run.OUT, exist_ok=True)
        t.write_spans(path)
        self.assertEqual(tracer.read_spans(path), table)
        os.remove(path)


class SpecTest(unittest.TestCase):
    def test_per_layer_metrics_are_the_traced_ones(self):
        declared = [m["name"] for m in SPEC["per_layer"]]
        self.assertEqual(declared, list(workloads.LOADED_ON))
        produced = set(tracer.Tracer().metrics()) | {"trace.overhead_frac"}
        self.assertEqual(set(declared) - produced, set())

    def test_workload_names(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.QUIVERS))

    def test_no_binding_escapes_the_wrappers(self):
        code = ("import sys; sys.path[:0] = [%r, %r]; import qcluster, qcluster.cli, tracer;"
                "t = tracer.Tracer(); t.install(qcluster); print(t.stale_bindings(qcluster))"
                % (os.path.join(run.ROOT, "src"), HERE))
        out = subprocess.run([sys.executable, "-E", "-s", "-c", code], capture_output=True,
                             text=True, check=True, timeout=60).stdout
        self.assertEqual(out.strip(), "[]")

    def test_refuses_to_run_without_sources(self):
        box = os.path.join(run.OUT, "test-empty-checkout")
        shutil.rmtree(box, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(box, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), box)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "hall-sweep",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=box, capture_output=True, text=True, timeout=60)
        shutil.rmtree(box)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


class GoldenTest(unittest.TestCase):
    def test_corrupt_golden_fails_checks(self):
        with open(os.path.join(HERE, "golden.json")) as fh:
            golden = json.load(fh)
        sample = run.spawn("run", "mutate-formal", 0, 120)
        attempted, failed = run.score([sample], golden)
        self.assertEqual(failed, 0)
        cmd = sample["steps"][0]["cmd"]
        golden[cmd] = golden[cmd][::-1]
        attempted, failed = run.score([sample], golden)
        values = run.end_to_end([sample], [], attempted, failed)
        self.assertGreater(values["failed_frac"], 0)


class TracedRunTest(unittest.TestCase):
    """Two traced samples and one untraced sample of every workload."""

    @classmethod
    def setUpClass(cls):
        cls.samples = {}
        spans = os.path.join(run.OUT, "test-spans.bin")
        os.makedirs(run.OUT, exist_ok=True)
        for workload in workloads.QUIVERS:
            cls.samples[workload] = (
                run.spawn("run", workload, 0, 170),
                [run.spawn("trace", workload, 0, 170, spans) for _ in range(2)])
        os.remove(spans)

    def test_counts_repeat_exactly(self):
        for workload, (_plain, (one, two)) in self.samples.items():
            counts = {k: v for k, v in one["layers"].items() if not k.endswith("_s")}
            self.assertEqual(counts, {k: two["layers"][k] for k in counts}, workload)

    def test_traced_output_equals_untraced(self):
        for workload, (plain, traced) in self.samples.items():
            for sample in traced:
                self.assertEqual([s["sha256"] for s in sample["steps"]],
                                 [s["sha256"] for s in plain["steps"]], workload)

    def test_each_layer_metric_moves_where_its_layer_works(self):
        for name, workload in workloads.LOADED_ON.items():
            plain, traced = self.samples[workload]
            with self.subTest(metric=name, workload=workload):
                self.assertNotEqual(run.per_layer([plain], traced)[name], 0)


if __name__ == "__main__":
    unittest.main()
