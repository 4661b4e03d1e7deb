import copy
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treedefect import (ClassifierOptions, EpochStats, FeatureMatrix, Vocabulary,
                        classifier_from_document, classifier_to_document,
                        evaluate_predictions, generate_records, init_model, jsonio,
                        model_from_document, model_to_document, train_forest, train_logistic,
                        write_corpus, write_features_csv, write_report_csv, write_training_log)
from treedefect.cli import _load_vocab_file, cmd_stats
from treedefect.errors import DocumentError


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
    report = evaluate_predictions(np.array([0.9, 0.2]), np.array([1, 0]), cell=("a", "b"))
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


def test_known_fields_checks_the_object_its_version_and_its_keys():
    doc = {"format_version": 2, "a": 1}
    assert jsonio.known_fields(doc, ("format_version", "a", "b"), "f", version=2) is doc
    assert jsonio.known_fields({}, (), "f") == {}
    for value, args, message in (
            ([], (), "^f: document must be an object$"),
            (None, ("config",), "^f: config must be an object$"),
            ({"format_version": 2, "a": 1}, ("document", 1),
             "^f: format_version must be 1, got 2$"),
            ({"a": 1}, ("document", 2), "^f: format_version must be 2, got None$"),
            ({"format_version": True}, ("document", 1), "must be 1, got True$"),
            ({"format_version": 2.0}, ("document", 2), "must be 2, got 2.0$"),
            ({"format_version": 2, "z": 0, "c": 0}, ("document", 2), "^f: unknown field 'c'$"),
            ({"z": 0, "c": 0}, (), "^f: unknown field 'c'$")):
        with pytest.raises(DocumentError, match=message):
            jsonio.known_fields(value, ("format_version", "a"), "f", *args)


def test_is_number_takes_only_finite_json_numbers():
    assert all(map(jsonio.is_number, (0, -1, 2**70, 1.5, -0.0, 1.7976931348623157e308)))
    assert not any(map(jsonio.is_number, (True, False, None, "1", float("nan"), float("inf"),
                                          10**400, -(10**400), [], {})))


def _documents():
    X = np.array([[0.0, 1.0], [1.0, 0.0], [0.2, 0.9], [0.8, 0.1]])
    y = np.array([0, 1, 0, 1])
    vocab = Vocabulary(("<unk>", "a", "b"))
    return {
        "model": model_to_document(init_model(vocab, d=2, hidden_dim=2, seed=1),
                                   np.zeros((3, 2))),
        "logistic": classifier_to_document(train_logistic(X, y, 0.1)),
        "forest": classifier_to_document(train_forest(X, y, ClassifierOptions(
            "forest", n_trees=2, min_leaf=1), seed=1)),
        "vocabulary": {"format_version": 1, "tokens": list(vocab.tokens)},
    }


_DOCUMENTS = _documents()
_JUNK = (True, False, None, "x", "1", -1, 2**70, 1.5, float("nan"), [], [True], {}, {"a": 1})


def _paths(value, path=()):
    """The path of `value` itself and of every value inside it."""
    yield path
    if isinstance(value, (dict, list)):
        for key, child in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _paths(child, (*path, key))


def _read(kind, doc, folder):
    if kind == "model":
        return model_from_document(doc)
    if kind == "vocabulary":
        path = folder / "vocab.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return _load_vocab_file(str(path))
    return classifier_from_document(doc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(_DOCUMENTS)), data=st.data())
def test_corrupted_documents_of_every_reader_raise_only_document_errors(tmp_path_factory,
                                                                       kind, data):
    """Replace the value at any path of a model, classifier or vocabulary
    document, or add an unknown key to any object in it: its reader returns
    or raises DocumentError, and always raises for the unknown key."""
    doc = copy.deepcopy(_DOCUMENTS[kind])
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    target = parent[path[-1]] if path else doc
    add_key = isinstance(target, dict) and data.draw(st.booleans())
    if add_key:
        target["unknown"] = data.draw(st.sampled_from(_JUNK))
    elif path:
        parent[path[-1]] = data.draw(st.sampled_from(_JUNK))
    else:
        doc = data.draw(st.sampled_from(_JUNK))
    folder = tmp_path_factory.getbasetemp()
    if add_key:
        with pytest.raises(DocumentError, match="unknown field 'unknown'"):
            _read(kind, doc, folder)
        return
    try:
        _read(kind, doc, folder)
    except DocumentError:
        pass
