"""The package surface that the benchmark under bench/ uses.

The benchmark calls the library through `td.<name>`, wraps the functions in
`tracing.TARGETS` and patches the names `workloads.StageTimer` times. A
public name removed from the package fails here, not in a benchmark run.
"""

import ast
import importlib
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import treedefect
from treedefect.corpus import corpus_from_document, corpus_to_document

from conftest import read_back

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


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


def test_every_exported_name_is_read_outside_the_tests():
    # a public name that only tests use is dead API: the package, the
    # benchmark or a demo must load it, as a name or as an attribute
    package = ROOT / "src" / "treedefect"
    exported = {alias.asname or alias.name
                for stmt in ast.parse((package / "__init__.py").read_text(encoding="utf-8")).body
                if isinstance(stmt, ast.ImportFrom) for alias in stmt.names}
    assert {"corpus_loss", "perplexity", "parse_mini"} <= exported
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted(BENCH.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    read = set()
    for path in sources:
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    assert sorted(exported - read) == []


def test_every_traced_and_timed_function_exists(bench_modules):
    tracing, workloads = bench_modules
    targets = [(module, attr) for module, attr, _, _ in tracing.TARGETS]
    targets += [("experiments", name) for name in workloads.StageTimer().calls]
    assert ("evaluation", "evaluate_predictions") in targets
    missing = [f"{module}.{attr}" for module, attr in targets
               if not callable(getattr(importlib.import_module(f"treedefect.{module}"),
                                       attr, None))]
    assert missing == []


def test_the_benchmark_shape_readers_count_what_the_package_holds(bench_modules):
    # bench/ walks AstTree.children and TreeNode.is_leaf/.left/.right itself;
    # a change to those attributes fails here, not in a traced run. Roots read
    # back from a document make their nodes when first walked, so the counts
    # are required of them too.
    tracing, workloads = bench_modules
    tree = treedefect.parse_mini("int i = 0;\nwhile (i < 3) { work(i); i = i + 1; }\n")
    assert tracing.tree_nodes(tree) == len(treedefect.preorder(tree)[0]) > 1
    assert tracing.tree_nodes(read_back(tree)) == tracing.tree_nodes(tree)

    generated = treedefect.generate_records(6)
    for records in (generated, corpus_from_document(corpus_to_document(generated))):
        walks = [treedefect.preorder(r.tree) for r in records]
        sizes = [len(labels) for labels, _ in walks]
        depths = [treedefect.flatten(r.tree,
                                     treedefect.Vocabulary((treedefect.UNK_TOKEN,))).depth
                  for r in records]
        stats = workloads._tree_stats(r.tree for r in records)
        assert (stats["files"], stats["nodes_max"], stats["depth_max"]) == (6, max(sizes),
                                                                           max(depths))
        assert stats["nodes_mean"] == round(sum(sizes) / 6, 2)
        assert stats["internal_share"] == round(
            sum(k > 0 for _, arity in walks for k in arity) / sum(sizes), 4)
        config = treedefect.TrainConfig(seed=3, split=(0.5, 0.25, 0.25))
        train = treedefect.split_records(records, config.split, config.seed)[0]
        assert workloads._train_nodes(treedefect, records, config) == sum(
            len(treedefect.preorder(r.tree)[0]) for r in train) > len(train)

    X = np.arange(24, dtype=float).reshape(12, 2) % 7
    forest = treedefect.train_forest(X, np.arange(12) % 2,
                                     treedefect.ClassifierOptions(n_trees=3), 5)
    trees = treedefect.classifier_to_document(forest)["trees"]
    assert len(trees) == 3
    assert tracing._forest_nodes(forest) == sum(len(t) for t in trees) > 3
