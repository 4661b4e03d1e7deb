"""Confusion-matrix metrics, ranking AUC, stratified folds and report files.

Defective is the positive class throughout. Metrics with a zero denominator
are reported as 0 together with an explicit flag instead of NaN, so averages
over experiment cells stay well defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jsonio
from .corpus import FileRecord
from .errors import CorpusError, DocumentError, UndefinedMetricError
from .rng import stream


@dataclass
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(predictions, labels) -> ConfusionMatrix:
    preds = np.asarray(predictions)
    labs = np.asarray(labels)
    if preds.shape != labs.shape or preds.ndim != 1 or len(preds) == 0:
        raise ValueError("predictions and labels must be equal-length non-empty vectors")
    tp = int(np.sum((preds == 1) & (labs == 1)))
    fp = int(np.sum((preds == 1) & (labs == 0)))
    fn = int(np.sum((preds == 0) & (labs == 1)))
    tn = int(np.sum((preds == 0) & (labs == 0)))
    return ConfusionMatrix(tp, fp, fn, tn)


def precision(m: ConfusionMatrix) -> float:
    return m.tp / (m.tp + m.fp) if m.tp + m.fp else 0.0


def recall(m: ConfusionMatrix) -> float:
    return m.tp / (m.tp + m.fn) if m.tp + m.fn else 0.0


def f_measure(m: ConfusionMatrix) -> float:
    pr, re = precision(m), recall(m)
    return 2.0 * pr * re / (pr + re) if pr + re else 0.0


def auc(scores, labels) -> float:
    """Mann-Whitney AUC with midrank tie handling (ties earn half credit)."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC is undefined when only one class is present")
    order = np.argsort(s, kind="mergesort")
    ss = s[order]
    n = len(s)
    bounds = np.flatnonzero(np.r_[True, ss[1:] != ss[:-1]])
    sizes = np.diff(np.r_[bounds, n])
    midranks = bounds + (sizes + 1) / 2.0  # 1-based average rank per tied group
    ranks = np.empty(n)
    ranks[order] = np.repeat(midranks, sizes)
    rank_sum_pos = float(ranks[y == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass
class MetricsReport:
    cell: tuple[str, str]  # (train id, test id)
    matrix: ConfusionMatrix
    precision: float
    recall: float
    f_measure: float
    auc: float | None
    flags: tuple[str, ...] = ()


def evaluate_predictions(scores, labels, cell: tuple[str, str]) -> MetricsReport:
    """MetricsReport for one experiment cell from P(defective) scores: a
    score of at least 0.5 predicts defective, and the scores rank files for
    the AUC. Undefined metrics are zeroed (AUC omitted) and flagged."""
    m = confusion(np.asarray(scores) >= 0.5, labels)
    flags = []
    if m.tp + m.fp == 0:
        flags.append("precision_undefined")
    if m.tp + m.fn == 0:
        flags.append("recall_undefined")
    if precision(m) + recall(m) == 0:
        flags.append("f_measure_undefined")
    auc_value: float | None = None
    try:
        auc_value = auc(scores, labels)
    except UndefinedMetricError:
        flags.append("auc_undefined")
    return MetricsReport(cell, m, precision(m), recall(m), f_measure(m),
                         auc_value, tuple(flags))


def stratified_k_fold(records: list[FileRecord], k: int, seed: int) -> list[list[int]]:
    """k folds of record indices with per-class counts balanced within 1.

    Each class is shuffled under its own stream of `seed` and dealt
    round-robin, so the same seed always yields the same folds.
    """
    if k < 2:
        raise ValueError(f"fold count must be >= 2, got {k}")
    if k > len(records):
        raise CorpusError(f"fold count {k} exceeds the record count {len(records)}")
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in (0, 1):
        members = [i for i, r in enumerate(records) if r.label == cls]
        perm = stream(seed, "folds", cls).permutation(len(members))
        for j, pos in enumerate(perm):
            folds[j % k].append(members[pos])
    assigned = sum(len(f) for f in folds)
    if assigned != len(records):
        raise CorpusError("cross-validation requires every record to carry a 0/1 label")
    return [sorted(f) for f in folds]


# --- report files ---

_REPORT_COLUMNS = ("cell_train", "cell_test", "tp", "fp", "fn", "tn",
                   "precision", "recall", "f_measure", "auc", "flags")


def report_to_row(report: MetricsReport) -> list[str]:
    m = report.matrix
    return [report.cell[0], report.cell[1], str(m.tp), str(m.fp), str(m.fn),
            str(m.tn), repr(report.precision), repr(report.recall),
            repr(report.f_measure),
            "" if report.auc is None else repr(report.auc),
            ";".join(report.flags)]


def write_report_csv(path, reports: list[MetricsReport]) -> None:
    jsonio.write_csv(path, [_REPORT_COLUMNS, *map(report_to_row, reports)])


def report_to_json(report: MetricsReport) -> dict:
    m = report.matrix
    return {"cell_train": report.cell[0], "cell_test": report.cell[1],
            "tp": m.tp, "fp": m.fp, "fn": m.fn, "tn": m.tn,
            "precision": report.precision, "recall": report.recall,
            "f_measure": report.f_measure, "auc": report.auc,
            "flags": list(report.flags)}


def write_report_json(path, reports: list[MetricsReport],
                      average: MetricsReport | None = None) -> None:
    doc = {"format_version": 1, "reports": [report_to_json(r) for r in reports]}
    if average is not None:
        doc["average"] = report_to_json(average)
    jsonio.write(path, doc)


def report_from_json(obj, source: str = "report") -> MetricsReport:
    if not isinstance(obj, dict):
        raise DocumentError(f"{source}: report entry must be an object")
    try:
        matrix = ConfusionMatrix(int(obj["tp"]), int(obj["fp"]),
                                 int(obj["fn"]), int(obj["tn"]))
        return MetricsReport((obj["cell_train"], obj["cell_test"]), matrix,
                             float(obj["precision"]), float(obj["recall"]),
                             float(obj["f_measure"]),
                             None if obj.get("auc") is None else float(obj["auc"]),
                             tuple(obj.get("flags", ())))
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"{source}: bad report entry: {exc}") from exc
