import itertools

import numpy as np
import pytest

import oracles
from treedefect import (AstTree, ConfusionMatrix, CorpusError, FileRecord,
                        MetricsReport, auc, evaluate_predictions, report_from_json,
                        stratified_k_fold, write_report_csv, write_report_json)
from treedefect.errors import DocumentError
from treedefect.jsonio import parse

CELL = ("tr", "te")


def test_confusion_matrix_hand_example():
    m = evaluate_predictions([1, 1, 0, 0, 1], [1, 0, 0, 1, 1], CELL).matrix
    assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 1, 1)
    assert m.total == 5
    with pytest.raises(ValueError):
        evaluate_predictions([1, 0], [1], CELL)
    with pytest.raises(ValueError):
        evaluate_predictions([], [], CELL)


def test_prf_hand_values():
    report = evaluate_predictions([1, 1, 1, 0, 0], [1, 1, 0, 1, 0], CELL)
    assert report.matrix == ConfusionMatrix(tp=2, fp=1, fn=1, tn=1)
    assert report.precision == pytest.approx(2 / 3, abs=1e-15)
    assert report.recall == pytest.approx(2 / 3, abs=1e-15)
    assert report.f_measure == pytest.approx(2 / 3, abs=1e-15)
    zeros = evaluate_predictions([0, 0, 0, 0, 0], [1, 1, 1, 0, 0], CELL)
    assert zeros.matrix == ConfusionMatrix(tp=0, fp=0, fn=3, tn=2)
    assert zeros.precision == 0.0
    assert zeros.recall == 0.0
    assert zeros.f_measure == 0.0


def test_prf_exhaustive_against_recount():
    # every confusion matrix with up to 8 outcomes, reconstructed as vectors
    for total in range(1, 9):
        for tp in range(total + 1):
            for fp in range(total - tp + 1):
                for fn in range(total - tp - fp + 1):
                    tn = total - tp - fp - fn
                    preds = [1] * tp + [1] * fp + [0] * fn + [0] * tn
                    labels = [1] * tp + [0] * fp + [1] * fn + [0] * tn
                    report = evaluate_predictions(preds, labels, CELL)
                    m = report.matrix
                    assert (m.tp, m.fp, m.fn, m.tn) == (tp, fp, fn, tn)
                    pr, re, f = oracles.prf(preds, labels)
                    assert report.precision == pytest.approx(pr, abs=1e-12)
                    assert report.recall == pytest.approx(re, abs=1e-12)
                    assert report.f_measure == pytest.approx(f, abs=1e-12)


def test_auc_hand_examples():
    assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75, abs=1e-15)
    assert auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0
    assert auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0
    assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5
    assert auc([0.3, 0.3], [0, 1]) == 0.5  # a tied pair earns half credit


def test_auc_matches_pair_enumeration():
    # both count half-credits exactly and divide once, so they agree to the bit
    rng = np.random.default_rng(53)
    for i in range(200):
        n = int(rng.integers(2, 13 if i < 150 else 60))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # coarse scores force plenty of ties
        scores = rng.integers(0, 4, size=n) / 4.0 if i % 2 else rng.normal(size=n)
        expected = oracles.auc_pairs(scores.tolist(), labels.tolist())
        value = auc(scores, labels)
        assert type(value) is float and value == expected


def test_auc_invariances():
    rng = np.random.default_rng(59)
    scores = rng.normal(size=20)
    labels = np.array([0, 1] * 10)
    base = auc(scores, labels)
    assert auc(scores + 100.0, labels) == pytest.approx(base, abs=1e-12)
    assert auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
    assert auc(-scores, labels) == pytest.approx(1.0 - base, abs=1e-12)


def test_auc_single_class_undefined():
    assert auc([0.1, 0.2], [1, 1]) is None
    assert auc([0.1, 0.2], [0, 0]) is None
    with pytest.raises(ValueError):
        auc([0.1, 0.2], [0])


def test_evaluate_predictions_healthy():
    report = evaluate_predictions([0.9, 0.1, 0.6, 0.4], [1, 0, 0, 1], cell=("tr", "te"))
    assert report.cell == ("tr", "te")
    assert report.flags == ()
    # positive scores 0.9/0.4 vs negative 0.1/0.6: 3 of 4 pairs ranked right
    assert report.auc == pytest.approx(0.75, abs=1e-12)
    assert report.precision == 0.5 and report.recall == 0.5


def test_evaluate_predictions_flags():
    # no positive predictions: precision (and so F) undefined
    report = evaluate_predictions([0.1, 0.2, 0.3], [1, 0, 1], ("tr", "te"))
    assert report.flags == ("precision_undefined", "f_measure_undefined")
    assert report.precision == 0.0 and report.f_measure == 0.0
    assert report.auc is not None
    # single-class labels: recall and AUC undefined
    report = evaluate_predictions([0.9, 0.1], [0, 0], ("tr", "te"))
    assert "recall_undefined" in report.flags
    assert "auc_undefined" in report.flags
    assert report.auc is None


def test_evaluate_predictions_threshold_is_inclusive():
    # a score of exactly 0.5 is a defective prediction
    report = evaluate_predictions([0.2, 0.5, 0.49999, 0.9], [0, 0, 1, 1], ("tr", "te"))
    assert (report.matrix.tp, report.matrix.fp, report.matrix.fn,
            report.matrix.tn) == (1, 1, 1, 1)


def fold_records(n0, n1, unlabeled=0):
    records = []
    for i in range(n0):
        records.append(FileRecord(f"c{i}.mini", "p", "1", 0, AstTree("x")))
    for i in range(n1):
        records.append(FileRecord(f"d{i}.mini", "p", "1", 1, AstTree("x")))
    for i in range(unlabeled):
        records.append(FileRecord(f"u{i}.mini", "p", "1", None, AstTree("x")))
    return records


def test_stratified_k_fold_balance_and_partition():
    records = fold_records(12, 8)
    folds = stratified_k_fold(records, k=5, seed=3)
    assert len(folds) == 5
    flat = sorted(itertools.chain.from_iterable(folds))
    assert flat == list(range(20))
    for cls, members in ((0, set(range(12))), (1, set(range(12, 20)))):
        counts = [len(set(f) & members) for f in folds]
        assert max(counts) - min(counts) <= 1
    assert all(f == sorted(f) for f in folds)


def test_stratified_k_fold_deterministic():
    records = fold_records(9, 7)
    assert stratified_k_fold(records, 4, seed=1) == stratified_k_fold(records, 4, seed=1)
    assert stratified_k_fold(records, 4, seed=1) != stratified_k_fold(records, 4, seed=2)


def test_stratified_k_fold_errors():
    records = fold_records(3, 3)
    with pytest.raises(ValueError):
        stratified_k_fold(records, 1, seed=0)
    with pytest.raises(CorpusError):
        stratified_k_fold(records, 7, seed=0)
    with pytest.raises(CorpusError, match="0/1 label"):
        stratified_k_fold(fold_records(3, 3, unlabeled=1), 2, seed=0)


def sample_report(auc_value=0.75, flags=()):
    return MetricsReport(("train:a", "test:b"), ConfusionMatrix(3, 1, 2, 4),
                         0.75, 0.6, 2 * 0.75 * 0.6 / 1.35, auc_value, tuple(flags))


def test_report_csv_layout(tmp_path):
    path = tmp_path / "report.csv"
    write_report_csv(path, [sample_report(),
                            sample_report(auc_value=None,
                                          flags=("auc_undefined", "recall_undefined"))])
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "cell_train,cell_test,tp,fp,fn,tn,precision,recall,f_measure,auc,flags"
    first = lines[1].split(",")
    assert first[:6] == ["train:a", "test:b", "3", "1", "2", "4"]
    assert float(first[6]) == 0.75 and float(first[9]) == 0.75
    second = lines[2].split(",")
    assert second[9] == ""
    assert second[10] == "auc_undefined;recall_undefined"
    # identical content writes identical bytes
    before = path.read_bytes()
    write_report_csv(path, [sample_report(),
                            sample_report(auc_value=None,
                                          flags=("auc_undefined", "recall_undefined"))])
    assert path.read_bytes() == before


def test_report_json_roundtrip(tmp_path):
    path = tmp_path / "report.json"
    reports = [sample_report(), sample_report(auc_value=None, flags=("auc_undefined",))]
    write_report_json(path, reports, average=sample_report())
    doc = parse(path.read_text(encoding="utf-8"))
    assert doc["format_version"] == 1
    assert len(doc["reports"]) == 2
    loaded = report_from_json(doc["reports"][0])
    assert loaded == reports[0]
    assert doc["reports"][1]["auc"] is None
    assert report_from_json(doc["reports"][1]) == reports[1]  # auc null, flags set
    assert report_from_json(doc["average"]) == reports[0]
    before = path.read_bytes()
    write_report_json(path, reports, average=sample_report())
    assert path.read_bytes() == before
    # auc and flags may be left out; an integral precision reads as a float
    loaded = report_from_json(report_entry(auc=..., flags=..., precision=1))
    assert loaded.auc is None and loaded.flags == ()
    assert isinstance(loaded.precision, float) and loaded.precision == 1.0


def report_entry(**changes):
    """A valid report entry with `changes` applied; a value of ... drops the key."""
    entry = {"cell_train": "train:a", "cell_test": "test:b", "tp": 3, "fp": 1, "fn": 2,
             "tn": 4, "precision": 0.75, "recall": 0.6, "f_measure": 0.5, "auc": 0.75,
             "flags": ["auc_undefined"]}
    entry.update(changes)
    return {k: v for k, v in entry.items() if v is not ...}


def test_report_from_json_validation():
    with pytest.raises(DocumentError):
        report_from_json("not an object")
    with pytest.raises(DocumentError):
        report_from_json({"cell_train": "a", "cell_test": "b", "tp": 1})
    for changes, message in [
            ({"tp": "3"}, "'tp' must be a non-negative integer"),
            ({"fp": True}, "'fp' must be a non-negative integer"),
            ({"fn": 2.9}, "'fn' must be a non-negative integer"),
            ({"tn": -1}, "'tn' must be a non-negative integer"),
            ({"tp": ...}, "'tp' must be a non-negative integer"),
            ({"flags": "ab"}, "'flags' must be a list of strings"),
            ({"flags": [1]}, "'flags' must be a list of strings"),
            ({"cell_test": 7}, "'cell_test' must be a string"),
            ({"precision": "0.5"}, "'precision' must be a finite number"),
            ({"recall": False}, "'recall' must be a finite number"),
            ({"auc": "0.75"}, "'auc' must be a finite number or null"),
            ({"extra": 1}, "unknown field 'extra'")]:
        with pytest.raises(DocumentError, match=f"^entry: {message}$"):
            report_from_json(report_entry(**changes), "entry")
