"""The package surface that the benchmark under bench/ uses.

The benchmark calls the library through `td.<name>`, wraps the functions in
`tracing.TARGETS` and patches the names `workloads.StageTimer` times. A
public name removed from the package fails here, not in a benchmark run.
"""

import importlib
import re
import sys
from pathlib import Path

import pytest

import treedefect

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    return importlib.import_module("tracing"), importlib.import_module("workloads")


def test_every_td_name_in_the_benchmark_exists():
    names = {name for path in sorted(BENCH.glob("*.py"))
             for name in re.findall(r"\btd\.([A-Za-z_]\w*)", path.read_text(encoding="utf-8"))}
    assert "report_from_json" in names  # the scan sees the workloads
    assert sorted(name for name in names if not hasattr(treedefect, name)) == []


def test_every_traced_and_timed_function_exists(bench_modules):
    tracing, workloads = bench_modules
    targets = [(module, attr) for module, attr, _, _ in tracing.TARGETS]
    targets += [("experiments", name) for name in workloads.StageTimer().calls]
    assert ("evaluation", "evaluate_predictions") in targets
    missing = [f"{module}.{attr}" for module, attr in targets
               if not callable(getattr(importlib.import_module(f"treedefect.{module}"),
                                       attr, None))]
    assert missing == []
