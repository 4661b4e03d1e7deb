"""Spans around calls into treedefect's public functions, from outside.

A `Tracer` replaces each traced function by a wrapper in every loaded
treedefect module that holds it under any name, so calls made through
`from .treelstm import forward` in `pretrain` are caught as well as calls
through `treedefect.treelstm.forward`. `uninstall` puts the originals back.
Spans (id, parent id, name, start, end) stay in memory; work counts are
taken from arguments and return values after the span has closed, so the
counting is not charged to the traced call.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


def tree_nodes(tree) -> int:
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


def _forest_nodes(forest) -> int:
    count, stack = 0, list(forest.trees)
    while stack:
        node = stack.pop()
        count += 1
        if not node.is_leaf:
            stack.extend((node.left, node.right))
    return count


def _rows(x) -> int:
    x = np.asarray(x)
    return int(x.shape[0]) if x.ndim == 2 else 1


def _file_bytes(args, kwargs) -> int:
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


# (module, function, span name, counter): the counter maps
# (args, kwargs, result) to {count name: amount}.
TARGETS = (
    ("minilang", "parse_mini", "minilang.parse_mini",
     lambda a, k, r: {"minilang.parse_mini.nodes": tree_nodes(r)}),
    ("corpus", "normalize_labels", "corpus.normalize_labels", None),
    ("corpus", "encode", "corpus.encode", None),
    ("corpus", "build_vocabulary", "corpus.build_vocabulary", None),
    ("corpus", "read_corpus", "corpus.read_corpus", None),
    ("corpus", "write_corpus", "corpus.write_corpus", None),
    ("jsonio", "read", "jsonio.read",
     lambda a, k, r: {"jsonio.read.bytes": _file_bytes(a, k)}),
    ("jsonio", "write", "jsonio.write",
     lambda a, k, r: {"jsonio.write.bytes": _file_bytes(a, k)}),
    ("treelstm", "flatten", "treelstm.flatten", None),
    ("treelstm", "forward", "treelstm.forward",
     lambda a, k, r: {"treelstm.forward.nodes": a[0].n}),
    ("treelstm", "backward", "treelstm.backward",
     lambda a, k, r: {"treelstm.backward.nodes": a[0].n}),
    ("treelstm", "sample_masks", "treelstm.sample_masks", None),
    ("treelstm", "forward_root", "treelstm.forward_root", None),
    ("pretrain", "pretrain", "pretrain.pretrain",
     lambda a, k, r: {"pretrain.epochs": len(r.log)}),
    ("pretrain", "rmsprop_step", "pretrain.rmsprop_step", None),
    ("pretrain", "perplexity", "pretrain.perplexity", None),
    ("classifiers", "featurize_corpus", "classifiers.featurize_corpus",
     lambda a, k, r: {"classifiers.featurize_corpus.files": len(r.keys)}),
    ("classifiers", "train_logistic", "classifiers.train_logistic",
     lambda a, k, r: {"classifiers.train_logistic.iters": len(r.loss_history) - 1}),
    ("classifiers", "train_forest", "classifiers.train_forest",
     lambda a, k, r: {"classifiers.train_forest.nodes": _forest_nodes(r)}),
    ("classifiers", "predict_proba", "classifiers.predict_proba",
     lambda a, k, r: {"classifiers.predict_proba.rows": _rows(a[1])}),
    ("evaluation", "evaluate_predictions", "evaluation.evaluate_predictions", None),
    ("evaluation", "stratified_k_fold", "evaluation.stratified_k_fold", None),
    ("experiments", "cv_from_folds", "experiments.cv_from_folds",
     lambda a, k, r: {"experiments.cells": len(r.folds)}),
    ("experiments", "version_pair_run", "experiments.version_pair_run",
     lambda a, k, r: {"experiments.cells": 1}),
    ("cli", "cmd_ingest", "cli.ingest", None),
    ("cli", "cmd_vocab", "cli.vocab", None),
    ("cli", "cmd_pretrain", "cli.pretrain", None),
    ("cli", "cmd_featurize", "cli.featurize", None),
    ("cli", "cmd_train_classifier", "cli.train-classifier", None),
    ("cli", "cmd_evaluate", "cli.evaluate", None),
)

SPAN_NAMES = tuple(name for _, _, name, _ in TARGETS)
COUNT_NAMES = ("minilang.parse_mini.nodes", "jsonio.read.bytes", "jsonio.write.bytes",
               "treelstm.forward.nodes", "treelstm.backward.nodes", "pretrain.epochs",
               "classifiers.featurize_corpus.files", "classifiers.train_logistic.iters",
               "classifiers.train_forest.nodes", "classifiers.predict_proba.rows",
               "experiments.cells")


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "treedefect" or name.startswith("treedefect."))]


class Tracer:
    """Records one pass: install, run the pass, uninstall, then summarize."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float] | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, t0, t1)
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    counts[key] += amount
            return result

        return traced

    def install(self) -> None:
        """Wrap every target under every name it is bound to in the package."""
        modules = _package_modules()
        for module, attr, name, counter in TARGETS:
            home = sys.modules.get(f"treedefect.{module}")
            original = getattr(home, attr, None)
            if original is None:
                continue  # a missing target records zero calls and fails the check
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                bound = [key for key, value in vars(mod).items() if value is original]
                for key in bound:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def closed_spans(self) -> list[tuple[int, int, str, float, float]]:
        if any(s is None for s in self.spans) or self._stack:
            raise RuntimeError("trace summarized while a span is still open")
        return self.spans  # type: ignore[return-value]

    def summary(self) -> dict[str, float]:
        """Per span name: calls and self time; plus the work counts and the
        total self time of all spans (the traced share of the pass)."""
        spans = self.closed_spans()
        child_time = [0.0] * len(spans)
        for sid, parent, _, t0, t1 in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, float] = {f"{n}.calls": 0 for n in SPAN_NAMES}
        out.update({f"{n}.self_s": 0.0 for n in SPAN_NAMES})
        total_self = 0.0
        for sid, _, name, t0, t1 in spans:
            self_s = (t1 - t0) - child_time[sid]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            total_self += self_s
        out.update({n: 0 for n in COUNT_NAMES})
        out.update(self.counts)
        out["trace.self_s"] = total_self
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: id, parent id, name, start and end seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1 in self.closed_spans():
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")


def nesting_errors(spans) -> list[str]:
    """Spans that do not lie inside their parent span."""
    by_id = {s[0]: s for s in spans}
    errors = []
    for sid, parent, name, t0, t1 in spans:
        if parent < 0:
            continue
        p = by_id.get(parent)
        if p is None or not (p[3] <= t0 <= t1 <= p[4]):
            errors.append(f"span {sid} ({name}) is not inside parent {parent}")
    return errors
