"""Cell metrics, ranking AUC, stratified folds and report files.

Defective is the positive class throughout. `evaluate_predictions` is the
one place that counts the confusion matrix and derives precision, recall and
F-measure from it. Metrics with a zero denominator are reported as 0 together
with an explicit flag instead of NaN, so averages over experiment cells stay
well defined; `auc` returns None when the labels hold only one class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jsonio
from .corpus import FileRecord
from .errors import CorpusError, DocumentError
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


def auc(scores, labels) -> float | None:
    """Mann-Whitney AUC: the share of (defective, clean) pairs in which the
    defective file scores higher, a tie counting one half; None when the
    labels hold only one class."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    pos, neg = s[y == 1], np.sort(s[y == 0])
    if len(pos) == 0 or len(neg) == 0:
        return None
    # twice U: per defective file, the clean files below it plus those below or tied
    twice_u = int(np.searchsorted(neg, pos, "left").sum()
                  + np.searchsorted(neg, pos, "right").sum())
    return twice_u / 2 / (len(pos) * len(neg))


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
    the AUC. Undefined metrics are zeroed (AUC None) and flagged, in the
    order precision, recall, F-measure, AUC."""
    predicted = np.asarray(scores) >= 0.5
    actual = np.asarray(labels)
    if predicted.shape != actual.shape or predicted.ndim != 1 or len(predicted) == 0:
        raise ValueError("scores and labels must be equal-length non-empty vectors")
    tp = int(np.sum(predicted & (actual == 1)))
    fp = int(np.sum(predicted & (actual == 0)))
    fn = int(np.sum(~predicted & (actual == 1)))
    tn = int(np.sum(~predicted & (actual == 0)))
    pr = tp / (tp + fp) if tp + fp else 0.0
    re = tp / (tp + fn) if tp + fn else 0.0
    f = 2.0 * pr * re / (pr + re) if pr + re else 0.0
    auc_value = auc(scores, labels)
    undefined = {"precision": tp + fp == 0, "recall": tp + fn == 0,
                 "f_measure": pr + re == 0, "auc": auc_value is None}
    return MetricsReport(cell, ConfusionMatrix(tp, fp, fn, tn), pr, re, f, auc_value,
                         tuple(f"{name}_undefined" for name, flag in undefined.items()
                               if flag))


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


def _report_values(report: MetricsReport) -> tuple:
    """The fields of `report` in _REPORT_COLUMNS order."""
    m = report.matrix
    return (*report.cell, m.tp, m.fp, m.fn, m.tn, report.precision, report.recall,
            report.f_measure, report.auc, report.flags)


def write_report_csv(path, reports: list[MetricsReport]) -> None:
    """One row per report, flags joined by ';'. The csv module writes floats
    by repr and an undefined AUC (None) as an empty field."""
    rows = [(*_report_values(r)[:-1], ";".join(r.flags)) for r in reports]
    jsonio.write_csv(path, [_REPORT_COLUMNS, *rows])


def write_report_json(path, reports: list[MetricsReport],
                      average: MetricsReport | None = None) -> None:
    def entry(report):
        return dict(zip(_REPORT_COLUMNS, _report_values(report)))

    doc = {"format_version": 1, "reports": [entry(r) for r in reports]}
    if average is not None:
        doc["average"] = entry(average)
    jsonio.write(path, doc)


def report_from_json(obj, source: str = "report") -> MetricsReport:
    """One report entry as `write_report_json` writes it; `auc` and `flags`
    may be left out. Any other deviation is a DocumentError naming `source`."""
    jsonio.known_fields(obj, _REPORT_COLUMNS, source, "report entry")
    for key in ("cell_train", "cell_test"):
        if not isinstance(obj.get(key), str):
            raise DocumentError(f"{source}: {key!r} must be a string")
    for key in ("tp", "fp", "fn", "tn"):
        if not (jsonio.is_int(obj.get(key)) and obj[key] >= 0):
            raise DocumentError(f"{source}: {key!r} must be a non-negative integer")
    for key in ("precision", "recall", "f_measure"):
        if not jsonio.is_number(obj.get(key)):
            raise DocumentError(f"{source}: {key!r} must be a finite number")
    auc_value = obj.get("auc")
    if auc_value is not None and not jsonio.is_number(auc_value):
        raise DocumentError(f"{source}: 'auc' must be a finite number or null")
    flags = obj.get("flags", [])
    if not (isinstance(flags, list) and all(isinstance(f, str) for f in flags)):
        raise DocumentError(f"{source}: 'flags' must be a list of strings")
    return MetricsReport((obj["cell_train"], obj["cell_test"]),
                         ConfusionMatrix(obj["tp"], obj["fp"], obj["fn"], obj["tn"]),
                         float(obj["precision"]), float(obj["recall"]),
                         float(obj["f_measure"]),
                         None if auc_value is None else float(auc_value), tuple(flags))
