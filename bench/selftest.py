"""Fast self-test of the benchmark at smoke size (about half a minute).

    python3 bench/selftest.py

Checks, for every workload, that an untraced run reports every end-to-end
metric of BENCHMARK.json and a traced run every per-layer metric, each with
its unit; that every traced child span lies inside its parent; and that an
artifact corrupted between passes makes the run report failed operations.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

import run
from tracing import nesting_errors
from workloads import ROOT, WORKLOADS

SEED = 5
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _spec_units(key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[key]}


class BenchmarkSelfTest(unittest.TestCase):
    def test_spec_matches_harness(self):
        self.assertEqual(_spec_units("end_to_end"), run.END_TO_END)
        self.assertEqual(_spec_units("per_layer"), run.PER_LAYER)
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(WORKLOADS))

    def test_end_to_end_metrics(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result = run.run(name, SEED, 0, False, size="smoke")
                self.assertTrue(result["correct"], result)
                self.assertEqual(result["failed"], 0)
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(units, _spec_units("end_to_end"))
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_per_layer_metrics_and_spans(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                trace_file = run.WORK / f"selftest-trace-{name}.jsonl"
                result = run.run(name, SEED, 0, True, size="smoke", trace_file=trace_file)
                self.assertTrue(result["correct"], result)
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(units, _spec_units("per_layer"))
                for layer in WORKLOADS[name].layers:
                    self.assertGreater(result["metrics"][f"{layer}.self_s"]["value"], 0,
                                       layer)
                spans = [tuple(s.values()) for s in
                         map(json.loads, trace_file.read_text().splitlines())]
                trace_file.unlink()
                self.assertTrue(spans)
                self.assertEqual(nesting_errors(spans), [])
                self.assertTrue(any(parent >= 0 for _, parent, *_ in spans))

    def test_corrupted_artifact_is_a_failed_operation(self):
        def corrupt(index: int, out: Path) -> None:
            if index == 1:
                model = out / "model.json"
                model.write_bytes(model.read_bytes()[:-2] + b" \n")

        for name in ("pretrain-cv", "cli-deep"):
            with self.subTest(workload=name):
                result = run.run(name, SEED, 0, False, size="smoke", tamper=corrupt)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLess(result["metrics"]["ok_share"]["value"], 1)


if __name__ == "__main__":
    if not (run.SRC / "treedefect" / "__init__.py").is_file():
        sys.exit(f"no treedefect package under {run.SRC}")
    sys.path.insert(0, str(run.SRC))
    unittest.main()
