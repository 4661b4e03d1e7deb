import os
from types import SimpleNamespace

import numpy as np
import pytest

from treedefect import (EpochStats, FeatureMatrix, evaluate_predictions,
                        generate_records, jsonio, write_corpus, write_features_csv,
                        write_report_csv, write_training_log)
from treedefect.cli import cmd_stats


def test_failed_write_leaves_previous_file_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    jsonio.write(path, {"a": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        jsonio.write(path, {"a": object()})  # not serializable
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    # the new text is on disk but the rename fails
    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        jsonio.write(path, {"a": 2})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]



def features_writer(tmp_path):
    matrix = FeatureMatrix([("p", "1", "a.mini")], np.array([[0.5, -1.0]]), [1])
    return lambda path: write_features_csv(path, matrix)


def training_log_writer(tmp_path):
    log = [EpochStats(1, 2.5, 11.0, True), EpochStats(2, 2.25, 12.0, False)]
    return lambda path: write_training_log(path, log)


def report_writer(tmp_path):
    report = evaluate_predictions(np.array([1, 0]), np.array([1, 0]),
                                  np.array([0.9, 0.2]), cell=("a", "b"))
    return lambda path: write_report_csv(path, [report])


def stats_writer(tmp_path):
    corpus = tmp_path / "corpus.json"
    write_corpus(corpus, generate_records(n=6, seed=1))
    return lambda path: cmd_stats(SimpleNamespace(corpus=str(corpus), output=str(path)))


@pytest.mark.parametrize("make_writer", [features_writer, training_log_writer,
                                         report_writer, stats_writer],
                         ids=["features", "training_log", "report", "stats"])
def test_failed_csv_write_leaves_previous_file_and_no_temp_file(tmp_path, monkeypatch,
                                                                make_writer):
    write = make_writer(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    path = out / "table.csv"
    path.write_text("old\n", encoding="utf-8")

    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write(path)
    assert path.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in out.iterdir()] == ["table.csv"]
    monkeypatch.undo()
    write(path)
    assert path.read_text(encoding="utf-8") != "old\n"
    assert [p.name for p in out.iterdir()] == ["table.csv"]
