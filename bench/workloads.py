"""The benchmark's workloads: inputs from a seed, one pass, and its checks.

Every workload is a closed loop with one caller: the harness runs a pass,
waits for it, and runs the next. A pass returns the operations it attempted,
the ones that failed (a failed check counts as a failed operation), its
end-to-end figures and the artifact files whose SHA-256 must repeat from
pass to pass. The package is always reached through `treedefect` and
`treedefect.cli`, which the harness imports afresh in every set-up.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from deepsrc import deep_source
from tracing import tree_nodes

ROOT = Path(__file__).resolve().parent.parent
LAYOUT = ROOT / "layouts" / "cross_project_pairs.json"

# The criterion-6 training configuration (PIPELINE_CONFIG in
# tests/test_acceptance.py).
PIPELINE_CONFIG = dict(embedding_dim=16, hidden_dim=16, max_epochs=8, patience=8,
                       batch_size=16, min_count=1, dropout_rate=0.5, seed=20260814)
AUC_BAR, F_BAR = 0.90, 0.80  # criterion-6 quality bars
KINDS = ("forest", "logistic")

clock = time.perf_counter


@dataclass
class PassResult:
    attempted: int = 1  # the pass itself
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    artifacts: list[Path] = field(default_factory=list)
    # metric -> (files, fn): throughput probes the harness times after the pass
    probes: dict[str, tuple[int, Callable[[], object]]] = field(default_factory=dict)


def _tree_stats(trees) -> dict:
    """Shape of a corpus of AstTrees, as the workload record states it."""
    nodes, depths, internal = [], [], 0
    for tree in trees:
        count, best, stack = 0, 0, [(tree, 1)]
        while stack:
            node, depth = stack.pop()
            count += 1
            best = max(best, depth)
            internal += bool(node.children)
            stack.extend((c, depth + 1) for c in node.children)
        nodes.append(count)
        depths.append(best)
    nodes, depths = np.array(nodes), np.array(depths)
    return {"files": len(nodes),
            "nodes_mean": round(float(nodes.mean()), 2), "nodes_max": int(nodes.max()),
            "depth_mean": round(float(depths.mean()), 2), "depth_max": int(depths.max()),
            "nodes_per_level_mean": round(float((nodes / depths).mean()), 2),
            "internal_share": round(internal / float(nodes.sum()), 4)}


def _train_nodes(td, records, config) -> int:
    """AST nodes in the training partition `pretrain` draws from `records`."""
    return sum(tree_nodes(r.tree) for r in td.split_records(records, config.split,
                                                             config.seed)[0])


def _repeated(fn, items: int, total: int) -> tuple[int, Callable[[], object]]:
    """A probe calling `fn`, which handles `items` files, until `total` are done.
    At full size a probe lasts about a second, so that it spans the machine's
    second-scale speed swings."""
    reps = -(-total // items)
    return reps * items, lambda: [fn() for _ in range(reps)]


def _quality(reports: dict, result: PassResult) -> None:
    for kind, avg in reports.items():
        result.metrics[f"auc_{kind}"] = avg.auc if avg.auc is not None else 0.0
        result.metrics[f"f_{kind}"] = avg.f_measure


class PretrainCv:
    """Criterion-6 pipeline on one corpus: full pretrain, featurize, k-fold
    CV of both classifiers on the full model's root vectors."""

    name = "pretrain-cv"
    why = ("Training-bound: Tree-LSTM forward/backward over small synthetic trees "
           "(about 4 nodes per level) dominates; no parsing or document reads.")
    layers = ("corpus.encode", "corpus.build_vocabulary", "jsonio.write",
              "treelstm.flatten", "treelstm.forward", "treelstm.backward",
              "treelstm.sample_masks", "treelstm.forward_root",
              "pretrain.pretrain", "pretrain.rmsprop_step", "pretrain.perplexity",
              "classifiers.featurize_corpus", "classifiers.train_logistic",
              "classifiers.train_forest", "classifiers.predict_proba",
              "evaluation.evaluate_predictions", "evaluation.stratified_k_fold",
              "experiments.cv_from_folds")
    # Smoke size trains too little to meet the criterion-6 bars, so it skips them.
    sizes = {"full": {"files": 400, "k": 5, "max_epochs": 8, "bars": True,
                      "probe_files": 1600},
             "smoke": {"files": 48, "k": 2, "max_epochs": 1, "bars": False,
                       "probe_files": 48}}

    def setup(self, td, seed: int, size: str, work: Path) -> dict:
        s = self.sizes[size]
        records = td.generate_records(s["files"], seed=seed)
        return {"records": records, "k": s["k"], "bars": s["bars"], "seed": seed,
                "probe_files": s["probe_files"],
                "config": td.TrainConfig(**{**PIPELINE_CONFIG,
                                            "max_epochs": s["max_epochs"]})}

    def describe(self, td, inputs) -> dict:
        config = inputs["config"]
        vocab = td.build_vocabulary([r.tree for r in inputs["records"]],
                                    config.vocab_size, config.min_count)
        return {**_tree_stats(r.tree for r in inputs["records"]),
                "vocabulary": len(vocab), "folds": inputs["k"]}

    def run_pass(self, td, inputs, out: Path) -> PassResult:
        records, config, k = inputs["records"], inputs["config"], inputs["k"]
        result = PassResult(attempted=1 + 2 * k)
        t0 = clock()
        full = td.pretrain(records, config)
        train_s = clock() - t0
        td.save_model(out / "model.json", full.model, full.head.U)
        features = td.featurize_corpus(records, full.model)
        td.write_features_csv(out / "features.csv", features)
        result.metrics.update(
            train_nodes_per_s=_train_nodes(td, records, config) * len(full.log) / train_s,
            val_perplexity=full.val_perplexity)
        # Ingest: regenerating the corpus parses every generated source file.
        result.probes = {
            "featurize_files_per_s": _repeated(
                lambda: td.featurize_corpus(records, full.model), len(records),
                inputs["probe_files"]),
            "ingest_files_per_s": _repeated(
                lambda: td.generate_records(len(records), seed=inputs["seed"]), len(records),
                inputs["probe_files"])}

        def rows(idx):
            return td.FeatureMatrix([features.keys[i] for i in idx], features.values[idx],
                                    [features.labels[i] for i in idx])

        folds = []
        for i, test_idx in enumerate(td.stratified_k_fold(records, k, config.seed)):
            held = set(test_idx)
            train_idx = [j for j in range(len(records)) if j not in held]
            folds.append(td.FoldFeatures(i, td.derive_seed(config.seed, "cv", i),
                                         rows(train_idx), rows(test_idx), full))
        averages = {}
        for kind in KINDS:
            cv = td.cv_from_folds(folds, td.ClassifierOptions(kind=kind))
            for fold, report in zip(folds, cv.folds):
                if report.auc is None or report.matrix.total != len(fold.test.keys):
                    result.failures.append(f"{kind} fold {fold.index}: report {report}")
            if len(cv.folds) != k:
                result.failures.append(f"{kind}: {len(cv.folds)} folds, expected {k}")
            td.write_report_csv(out / f"report_{kind}.csv", [*cv.folds, cv.average])
            td.write_report_json(out / f"report_{kind}.json", cv.folds, cv.average)
            averages[kind] = cv.average
        _quality(averages, result)
        bars = [f"{kind} auc {a.auc} f {a.f_measure}" for kind, a in averages.items()
                if not (a.auc is not None and a.auc >= AUC_BAR and a.f_measure >= F_BAR)]
        if full.val_perplexity is None or not full.val_perplexity < len(full.model.vocab):
            bars.append(f"val perplexity {full.val_perplexity} >= |V| {len(full.model.vocab)}")
        if bars and inputs["bars"]:
            result.failures.append("criterion-6 bars missed: " + "; ".join(bars))
        result.artifacts = [out / "model.json", out / "features.csv",
                            *(out / f"report_{kind}.{ext}" for kind in KINDS
                              for ext in ("csv", "json"))]
        return result


class StageTimer:
    """Times the calls `experiments` makes to `pretrain` and
    `featurize_corpus`, keeping their arguments and results."""

    def __init__(self):
        self.module = sys.modules["treedefect.experiments"]
        self.calls: dict[str, list] = {"pretrain": [], "featurize_corpus": []}

    def __enter__(self):
        self._originals = {name: getattr(self.module, name) for name in self.calls}
        for name, fn in self._originals.items():
            setattr(self.module, name, self._timed(fn, self.calls[name]))
        return self

    @staticmethod
    def _timed(fn, log):
        def timed(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            log.append((clock() - t0, args, out))
            return out
        return timed

    def __exit__(self, *exc):
        for name, fn in self._originals.items():
            setattr(self.module, name, fn)


class PairsXproject:
    """The 22 cross-project version pairs over a 13-cell corpus, each pair
    pretrained for one epoch, once per classifier kind."""

    name = "pairs-xproject"
    why = ("Many small independent cells: per-pair pretrain, inference for "
           "featurize and perplexity, and classifier fits; little backward work.")
    layers = ("corpus.encode", "corpus.build_vocabulary", "jsonio.write",
              "treelstm.flatten", "treelstm.forward", "treelstm.backward",
              "treelstm.sample_masks", "treelstm.forward_root",
              "pretrain.pretrain", "pretrain.rmsprop_step", "pretrain.perplexity",
              "classifiers.featurize_corpus", "classifiers.train_logistic",
              "classifiers.train_forest", "classifiers.predict_proba",
              "evaluation.evaluate_predictions", "experiments.version_pair_run")
    sizes = {"full": {"files_per_cell": 24, "pairs": 22, "probe_files": 1600},
             "smoke": {"files_per_cell": 10, "pairs": 3, "probe_files": 30}}
    config = dict(embedding_dim=16, hidden_dim=16, max_epochs=1, patience=1,
                  batch_size=16, min_count=1, dropout_rate=0.5)

    def setup(self, td, seed: int, size: str, work: Path) -> dict:
        descriptor = td.parse_descriptor(json.loads(LAYOUT.read_text()), str(LAYOUT))
        pairs = descriptor.pairs[:self.sizes[size]["pairs"]]
        cells: dict[str, set] = {}
        for train, test in pairs:
            for project, version in (train, test):
                cells.setdefault(project, set()).add(version)
        cells = {p: sorted(v) for p, v in cells.items()}
        per_cell = self.sizes[size]["files_per_cell"]
        return {"records": td.generate_multi_cell(cells, per_cell, seed=seed),
                "pairs": pairs, "cells": cells, "per_cell": per_cell, "seed": seed,
                "expected_pairs": self.sizes[size]["pairs"],
                "probe_files": self.sizes[size]["probe_files"],
                "config": td.TrainConfig(**self.config, seed=seed)}


    def describe(self, td, inputs) -> dict:
        vocab = td.build_vocabulary([r.tree for r in inputs["records"]],
                                    10000, self.config["min_count"])
        return {**_tree_stats(r.tree for r in inputs["records"]),
                "vocabulary": len(vocab), "pairs": len(inputs["pairs"]),
                "cells": sum(len(v) for v in inputs["cells"].values())}

    def run_pass(self, td, inputs, out: Path) -> PassResult:
        records, pairs, config = inputs["records"], inputs["pairs"], inputs["config"]
        result = PassResult(attempted=1 + len(KINDS) * len(pairs))
        averages = {}
        with StageTimer() as stages:
            for kind in KINDS:
                options = td.ClassifierOptions(kind=kind)
                reports = []
                for train, test in pairs:
                    report = td.version_pair_run(train, test, records, options, config)
                    expected = (f"{train[0]}:{train[1]}", f"{test[0]}:{test[1]}")
                    if report.cell != expected:
                        result.failures.append(f"pair {expected}: report cell {report.cell}")
                    reports.append(report)
                td.write_report_csv(out / f"report_{kind}.csv", reports)
                averages[kind] = td.average_report(reports, ("pairs:average",) * 2)
                td.write_report_json(out / f"report_{kind}.json", reports, averages[kind])
                if len(reports) != inputs["expected_pairs"]:
                    result.failures.append(f"{kind}: {len(reports)} reports, expected "
                                           f"{inputs['expected_pairs']}")
        trained = stages.calls["pretrain"]
        train_s = sum(s for s, _, _ in trained)
        train_nodes = sum(_train_nodes(td, a[0], a[1]) * len(r.log) for _, a, r in trained)
        featurized = stages.calls["featurize_corpus"]
        result.metrics.update(
            train_nodes_per_s=train_nodes / train_s,
            featurize_files_per_s=(sum(len(a[0]) for _, a, _ in featurized)
                                   / sum(s for s, _, _ in featurized)),
            val_perplexity=float(np.mean([r.val_perplexity for _, _, r in trained])))
        # Ingest: regenerating the corpus parses every generated source file.
        result.probes["ingest_files_per_s"] = _repeated(
            lambda: td.generate_multi_cell(inputs["cells"], inputs["per_cell"],
                                           seed=inputs["seed"]), len(records),
            inputs["probe_files"])
        _quality(averages, result)
        result.artifacts = [out / f"report_{kind}.{ext}" for kind in KINDS
                            for ext in ("csv", "json")]
        return result


class CliDeep:
    """The command-line pipeline over generated deep `.mini` sources, with a
    held-out second version as the evaluation set."""

    name = "cli-deep"
    why = ("Only workload that parses source and reads and writes multi-MB JSON "
           "documents; wide, deep trees (about 200 nodes, depth 14, 14 nodes per level).")
    layers = ("minilang.parse_mini", "corpus.normalize_labels", "corpus.encode",
              "corpus.build_vocabulary", "corpus.read_corpus", "corpus.write_corpus",
              "jsonio.read", "jsonio.write", "treelstm.flatten", "treelstm.forward",
              "treelstm.backward", "treelstm.sample_masks", "treelstm.forward_root",
              "pretrain.pretrain", "pretrain.rmsprop_step", "pretrain.perplexity",
              "classifiers.featurize_corpus", "classifiers.train_logistic",
              "classifiers.train_forest", "classifiers.predict_proba",
              "evaluation.evaluate_predictions", "cli.ingest", "cli.vocab",
              "cli.pretrain", "cli.featurize", "cli.train-classifier", "cli.evaluate")
    sizes = {"full": {"files_per_version": 100}, "smoke": {"files_per_version": 16}}
    versions = ("1", "2")
    train_flags = ("--max-epochs", "1", "--patience", "1", "--embedding-dim", "16",
                   "--hidden-dim", "16", "--batch-size", "16")

    def setup(self, td, seed: int, size: str, work: Path) -> dict:
        n = self.sizes[size]["files_per_version"]
        rng = np.random.default_rng([seed, 0xDEE9])
        sources = {}
        for version in self.versions:
            src = work / f"src_v{version}"
            src.mkdir(parents=True)
            labels = rng.permutation(np.arange(n) % 2)
            rows = ["file_id,label"]
            for i, label in enumerate(labels):
                file_id = f"f{i:04d}.mini"
                text = deep_source(rng, bool(label))
                (src / file_id).write_text(text, encoding="utf-8")
                rows.append(f"{file_id},{label}")
                sources.setdefault(version, []).append((file_id, int(label), text))
            (work / f"labels_v{version}.csv").write_text("\n".join(rows) + "\n")
        return {"work": work, "seed": seed, "sources": sources, "files": n * len(self.versions)}

    def _records(self, td, inputs, version):
        return [td.FileRecord(fid, "deep", version, label,
                              td.normalize_labels(td.parse_mini(text)))
                for fid, label, text in inputs["sources"][version]]

    def describe(self, td, inputs) -> dict:
        records = self._records(td, inputs, "1") + self._records(td, inputs, "2")
        vocab = td.build_vocabulary([r.tree for r in records if r.version == "1"])
        # The pretrain command splits the version-1 corpus in this order with
        # the default fractions; its training partition sets train_nodes_per_s.
        inputs["train_nodes"] = _train_nodes(td, records[:len(records) // 2],
                                             td.TrainConfig(seed=inputs["seed"]))
        return {**_tree_stats(r.tree for r in records), "vocabulary": len(vocab),
                "source_bytes": sum(len(text) for files in inputs["sources"].values()
                                    for _, _, text in files)}

    def run_pass(self, td, inputs, out: Path) -> PassResult:
        cli = sys.modules["treedefect.cli"]
        work, seed = inputs["work"], str(inputs["seed"])
        result = PassResult()
        times: dict[str, float] = {}

        def run(stage: str, *argv, allowed=(0,)):
            result.attempted += 1
            sink = io.StringIO()
            t0 = clock()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main([str(a) for a in argv])
            times[stage] = times.get(stage, 0.0) + clock() - t0
            if code not in allowed:
                result.failures.append(f"{argv[0]} exited {code}: {sink.getvalue()[-300:]}")

        for v in self.versions:
            run("ingest", "ingest", work / f"src_v{v}", "--labels", work / f"labels_v{v}.csv",
                "--project", "deep", "--version", v, "--output", out / f"corpus_v{v}.json")
        run("vocab", "vocab", "--corpus", out / "corpus_v1.json", "--output", out / "vocab.json")
        run("pretrain", "pretrain", "--corpus", out / "corpus_v1.json",
            "--vocab", out / "vocab.json", "--output", out / "model.json",
            "--log", out / "train_log.csv", "--seed", seed, *self.train_flags)
        for v in self.versions:
            run("featurize", "featurize", "--corpus", out / f"corpus_v{v}.json",
                "--model", out / "model.json", "--output", out / f"features_v{v}.csv")
        for kind in KINDS:
            run("train", "train-classifier", "--features", out / "features_v1.csv",
                "--classifier", kind, "--seed", seed, "--output", out / f"{kind}.json")
        for kind in KINDS:
            run("evaluate", "evaluate", "--features", out / "features_v2.csv",
                "--classifier-file", out / f"{kind}.json", "--output",
                out / f"report_{kind}.csv", "--json-output", out / f"report_{kind}.json",
                "--train-name", "deep:1", "--test-name", "deep:2", allowed=(0, 1))
        result.metrics.update(ingest_files_per_s=inputs["files"] / times["ingest"],
                              featurize_files_per_s=inputs["files"] / times["featurize"])
        if not result.failures:
            with open(out / "train_log.csv", newline="") as fh:
                log = list(csv.DictReader(fh))
            result.metrics["val_perplexity"] = min(float(r["val_perplexity"]) for r in log)
            result.metrics["train_nodes_per_s"] = (inputs["train_nodes"] * len(log)
                                                   / times["pretrain"])
            averages = {}
            for kind in KINDS:
                doc = json.loads((out / f"report_{kind}.json").read_text())
                averages[kind] = td.report_from_json(doc["reports"][0])
            _quality(averages, result)
            vocab_size = len(json.loads((out / "vocab.json").read_text())["tokens"])
            if not result.metrics["val_perplexity"] < vocab_size:
                result.failures.append(f"val perplexity {result.metrics['val_perplexity']}"
                                       f" >= |V| {vocab_size}")
        result.artifacts = sorted(p for p in out.iterdir() if p.is_file())
        return result


WORKLOADS = {w.name: w for w in (PretrainCv(), PairsXproject(), CliDeep())}
