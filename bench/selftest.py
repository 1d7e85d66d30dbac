"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

They check that the generator is seeded, that the tracer's self times
partition the traced wall time, that the wrappers are all removed again,
that exact counts repeat between two cold traced runs, that traced and
untraced runs give the same outputs, and that the metrics the harness
prints are the ones BENCHMARK.json declares.  About half a minute on 2 cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import run
import tracer as tracing
import workloads

sys.path.insert(0, str(run.SRC))
import aeaqecc  # noqa: E402
import aeaqecc.cli  # noqa: E402,F401

SMALL = {
    "tables": None,  # fixed published rows; always run whole
    "bch_sweep": slice(0, 40),
    "label_sweep": slice(-4, None),
}
EXACT_COUNTS = (
    "enumeration.words.packed", "enumeration.words.planes", "enumeration.calls",
    "enumeration.refused", "fields.trace_calls", "fields.builds", "bch.ht_calls",
    "codes.membership_tests", "linalg.rref_calls", "gv.threshold_calls",
)


def small_inputs(workload: str, seed: int = 3):
    inputs = workloads.make_inputs(workload, seed)
    return inputs if SMALL[workload] is None else inputs[SMALL[workload]]


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in workloads.WORKLOADS:
            a, b = workloads.make_inputs(w, 5), workloads.make_inputs(w, 5)
            self.assertEqual(a, b)
            self.assertEqual(workloads.digest(a), workloads.digest(b))
        for w in ("bch_sweep", "label_sweep"):
            self.assertNotEqual(workloads.make_inputs(w, 5), workloads.make_inputs(w, 6))

    def test_sweep_inputs_are_valid_and_unfiltered_by_outcome(self):
        for q, n, s, t in workloads.make_inputs("bch_sweep", 9):
            z = len(workloads.cosets(n, q)) - 1
            self.assertTrue(0 <= s < t <= z - 1)
            self.assertLessEqual(workloads.splitting_order(n, q), workloads.BCH_MAX_FIELD)
        for q, n, l1, l2 in workloads.make_inputs("label_sweep", 9):
            size = {a: len(o) for o in workloads.cosets(n, q) for a in o}
            self.assertTrue(l1 and l2)
            self.assertTrue(all(0 <= a < n for a in l1 + l2))
            self.assertLess(sum(size[a] for a in l1) + sum(size[a] for a in l2), n)

    def test_cosets_match_package(self):
        for q, n in workloads.bch_pairs() + list(workloads.LABEL_PAIRS):
            self.assertEqual(tuple(workloads.cosets(n, q)),
                             aeaqecc.bch.cyclotomic_cosets(n, q).cosets)


class TracerTests(unittest.TestCase):
    def traced(self, workload):
        inputs = small_inputs(workload)
        originals = [(o, a, o.__dict__[a])
                     for o, a in tracing.wrapped_attributes(aeaqecc)]
        tr = tracing.Tracer()
        patches = tracing.install(tr, aeaqecc)
        try:
            t0 = time.perf_counter()
            raw = workloads.run(workload, inputs, aeaqecc)
            wall = time.perf_counter() - t0
        finally:
            tracing.restore(patches)
        for owner, attr, original in originals:
            self.assertIs(owner.__dict__[attr], original, f"{owner}.{attr} not restored")
        self.assertEqual(workloads.check(workload, inputs, raw, aeaqecc)["failed"], 0)
        return tr, wall

    def test_self_times_partition_wall_time(self):
        for workload in ("bch_sweep", "label_sweep"):
            tr, wall = self.traced(workload)
            m = tracing.layer_metrics(tr, wall)
            for span in tr.spans:
                self.assertGreaterEqual(span.self_time, -1e-9, span.name)
            self.assertGreaterEqual(m["other_s"], -1e-9)
            total = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) + m["other_s"]
            self.assertAlmostEqual(total, wall, delta=1e-6 * max(1.0, wall))
            self.assertTrue(tr.stack == [], "unbalanced spans")

    def test_wrappers_see_calls_at_caller_names(self):
        tr, wall = self.traced("bch_sweep")
        m = tracing.layer_metrics(tr, wall)
        for name in ("fields.trace_calls", "linalg.rref_calls", "enumeration.calls",
                     "gv.threshold_calls", "codes.membership_tests"):
            self.assertGreater(m[name], 0, name)


class ColdRunTests(unittest.TestCase):
    """Workers in fresh interpreters, as the benchmark runs them."""

    def sample(self, workload, traced):
        return run.run_sample(workload, small_inputs(workload), traced,
                              time.monotonic() + run.WORKER_TIMEOUT)

    def test_exact_counts_repeat_and_tracing_keeps_outputs(self):
        for workload in workloads.WORKLOADS:
            plain = self.sample(workload, False)
            first = self.sample(workload, True)
            second = self.sample(workload, True)
            self.assertEqual(plain["failed"], 0, plain["failures"])
            self.assertEqual(first["outputs"], plain["outputs"])
            self.assertEqual(second["outputs"], plain["outputs"])
            self.assertTrue(first["restored"] and second["restored"])
            for name in EXACT_COUNTS:
                self.assertEqual(first["layers"][name], second["layers"][name],
                                 f"{workload}: {name}")
            self.assertGreater(first["layers"]["fields.builds"], 0)
            if workload == "tables":
                self.assertEqual(plain["exact_cells"], 49)
                self.assertGreater(first["layers"]["enumeration.words.packed"], 0)
                self.assertGreater(first["layers"]["enumeration.words.planes"], 0)


class ContractTests(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_metric_names_and_units_match_benchmark_json(self):
        declared = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(declared, run.END_TO_END_UNITS)
        sample = run.run_sample("label_sweep", small_inputs("label_sweep"), True,
                                time.monotonic() + run.WORKER_TIMEOUT)
        plain = {k: v for k, v in sample.items() if k != "layers"}
        emitted = run.per_layer([plain, sample])
        declared = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(declared, {k: run.layer_unit(k) for k in emitted})
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(workloads.WORKLOADS))

    def test_fails_without_package_source(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "BENCHMARK.json").write_text((run.ROOT / "BENCHMARK.json").read_text())
            for path in self.spec["paths"]:
                for f in (run.ROOT / path).rglob("*"):
                    if f.is_file() and "__pycache__" not in f.parts:
                        dest = root / f.relative_to(run.ROOT)
                        dest.parent.mkdir(parents=True, exist_ok=True)
                        dest.write_bytes(f.read_bytes())
            proc = subprocess.run(
                self.spec["command"] + ["--workload", "tables", "--seed", "1",
                                        "--seconds", "1", "--trace", "0"],
                cwd=root, capture_output=True, text=True, timeout=180,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
