import math

import numpy as np
import pytest

import oracles
from treedefect import (AstTree, ClassifierOptions, FeatureMatrix, FileRecord,
                        ForestModel, LogisticModel, TrainingDataError,
                        UNK_TOKEN, Vocabulary, bow_featurize,
                        classifier_from_document, classifier_to_document,
                        featurize_corpus, load_classifier, predict,
                        predict_proba, predict_proba_forest,
                        predict_proba_logistic, read_features_csv,
                        save_classifier, train_forest, train_logistic,
                        write_features_csv)
from treedefect.classifiers import TreeNode
from treedefect.errors import DocumentError

from test_treelstm import scaled_model


def separable(n=40, gap=1.0, seed=0):
    rng = np.random.default_rng(seed)
    neg = rng.normal(-gap, 0.3, size=(n // 2, 2))
    pos = rng.normal(gap, 0.3, size=(n // 2, 2))
    X = np.vstack([neg, pos])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return X, y


def test_feature_matrix_validation():
    with pytest.raises(ValueError, match="align"):
        FeatureMatrix([("p", "v", "a")], np.zeros((2, 3)), [0, 1])
    with pytest.raises(ValueError, match="finite"):
        FeatureMatrix([("p", "v", "a")], np.array([[np.inf]]), [0])
    fm = FeatureMatrix([("p", "v", "a"), ("p", "v", "b")], np.zeros((2, 3)), [0, None])
    assert fm.dim == 3
    with pytest.raises(TrainingDataError, match="unlabeled"):
        fm.label_array()


def test_featurize_corpus_rows_are_root_vectors():
    from treedefect import forward_root

    model = scaled_model(vocab_size=6, d=3, hidden_dim=3, seed=30)
    records = [
        FileRecord("a.mini", "p", "1", 1, AstTree("tok1", (AstTree("tok2"),))),
        FileRecord("b.mini", "p", "1", 0, AstTree("tok3")),
    ]
    fm = featurize_corpus(records, model)
    assert fm.keys == [r.key for r in records]
    assert fm.labels == [1, 0]
    for row, record in zip(fm.values, records):
        np.testing.assert_array_equal(row, forward_root(record, model))


def test_bow_featurize_threshold_semantics():
    vocab = Vocabulary((UNK_TOKEN, "a", "b"))
    tree = AstTree("a", (AstTree("a"), AstTree("b"), AstTree("mystery")))
    records = [FileRecord("x.mini", "p", "1", 0, tree)]
    fm = bow_featurize(records, vocab, threshold=2)
    # counts: a=2, b=1, unk=1  ->  only "a" clears the threshold
    assert fm.values.tolist() == [[0.0, 1.0, 0.0]]
    fm1 = bow_featurize(records, vocab, threshold=1)
    assert fm1.values.tolist() == [[1.0, 1.0, 1.0]]
    with pytest.raises(ValueError):
        bow_featurize(records, vocab, threshold=0)


def test_logistic_learns_separable_data():
    X, y = separable()
    model = train_logistic(X, y)
    proba = predict_proba_logistic(model, X)
    assert np.mean(predict(proba) == y) == 1.0
    assert predict_proba_logistic(model, X[0]) == pytest.approx(proba[0])


def test_logistic_loss_history_non_increasing():
    X, y = separable(seed=1)
    model = train_logistic(X, y)
    history = np.array(model.loss_history)
    assert len(history) > 1
    assert np.all(np.diff(history) <= 0)


def test_logistic_beats_dense_grid_oracle():
    rng = np.random.default_rng(5)
    x = rng.normal(0, 1, size=30)
    y = (x + rng.normal(0, 0.8, size=30) > 0).astype(int)
    if len(np.unique(y)) < 2:
        raise AssertionError("degenerate draw")
    model = train_logistic(x.reshape(-1, 1), y)
    mine = float(model.loss_history[-1])
    grid = oracles.logistic_grid_loss(x, y, l2=1e-4, w_range=(-6, 6),
                                      b_range=(-4, 4), steps=241)
    assert mine <= grid + 1e-6


def test_logistic_bias_fits_base_rate_and_is_unregularized():
    # zero features leave only the bias: optimum is the base rate 3/4,
    # which a regularized bias could not reach exactly
    X = np.zeros((8, 2))
    y = np.array([1, 1, 1, 0, 1, 1, 1, 0])
    model = train_logistic(X, y, l2=10.0)
    assert np.allclose(model.weights, 0.0)
    p = predict_proba_logistic(model, np.zeros(2))
    assert p == pytest.approx(0.75, abs=1e-4)
    assert model.bias == pytest.approx(math.log(3), abs=1e-3)


def test_logistic_single_class_rejected():
    with pytest.raises(TrainingDataError):
        train_logistic(np.zeros((4, 2)), np.array([1, 1, 1, 1]))
    with pytest.raises(ValueError):
        train_logistic(np.zeros((4, 2)), None)


def test_predict_thresholds():
    assert predict(0.5) == 1
    assert predict(0.49999) == 0
    assert predict(np.array([0.2, 0.5, 0.9])).tolist() == [0, 1, 1]


def test_forest_learns_separable_data():
    X, y = separable(seed=2)
    model = train_forest(X, y, ClassifierOptions(n_trees=15), seed=3)
    proba = predict_proba_forest(model, X)
    assert np.mean(predict(proba) == y) == 1.0
    assert 0.0 <= predict_proba_forest(model, X[0]) <= 1.0


def test_forest_deterministic_in_seed():
    X, y = separable(seed=3)
    a = train_forest(X, y, ClassifierOptions(n_trees=8), seed=5)
    b = train_forest(X, y, ClassifierOptions(n_trees=8), seed=5)
    c = train_forest(X, y, ClassifierOptions(n_trees=8), seed=6)
    grid = np.random.default_rng(0).normal(0, 1.5, size=(20, 2))
    np.testing.assert_array_equal(predict_proba_forest(a, grid),
                                  predict_proba_forest(b, grid))
    assert classifier_to_document(a)["trees"] != classifier_to_document(c)["trees"]


def test_single_stump_matches_threshold_oracle():
    # perfectly separable 1-D data: the best single threshold scores 1.0 and
    # a one-split tree must find it
    x = np.array([0.1, 0.4, 0.2, 0.3, 1.4, 1.2, 1.9, 1.6])
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    assert oracles.best_threshold_accuracy(x, y) == 1.0
    model = train_forest(x.reshape(-1, 1), y,
                         ClassifierOptions(n_trees=1, max_depth=1,
                                           features_per_split=1), seed=0)
    acc = np.mean(predict(predict_proba_forest(model, x.reshape(-1, 1))) == y)
    assert acc == 1.0


def test_forest_tie_breaks_to_lowest_feature():
    # two identical columns: every split score ties, so the split must land
    # on feature 0
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    X = np.column_stack([x, x])
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    model = train_forest(X, y, ClassifierOptions(n_trees=20, max_depth=1,
                                                 features_per_split=2), seed=1)
    for tree in model.trees:
        if not tree.is_leaf:
            assert tree.feature == 0


def test_decision_boundary_is_left_inclusive():
    node = TreeNode(feature=0, threshold=0.5,
                    left=TreeNode(proba=(1.0, 0.0)),
                    right=TreeNode(proba=(0.0, 1.0)))
    model = ForestModel([node], ClassifierOptions(n_trees=1, max_depth=1), 0, dim=1)
    assert predict_proba_forest(model, np.array([0.5])) == 0.0  # x <= thr: left
    assert predict_proba_forest(model, np.array([0.5000001])) == 1.0


def test_forest_single_class_rejected():
    with pytest.raises(TrainingDataError):
        train_forest(np.zeros((4, 2)), np.array([0, 0, 0, 0]))


def test_logistic_roundtrip(tmp_path):
    X, y = separable(seed=5)
    model = train_logistic(X, y)
    path = tmp_path / "clf.json"
    save_classifier(path, model)
    first = path.read_bytes()
    loaded = load_classifier(path)
    assert isinstance(loaded, LogisticModel)
    np.testing.assert_array_equal(loaded.weights, model.weights)
    assert loaded.bias == model.bias and loaded.l2 == model.l2
    save_classifier(path, loaded)
    assert path.read_bytes() == first


def test_forest_roundtrip(tmp_path):
    X, y = separable(seed=6)
    model = train_forest(X, y, ClassifierOptions(n_trees=6), seed=9)
    path = tmp_path / "forest.json"
    save_classifier(path, model)
    first = path.read_bytes()
    loaded = load_classifier(path)
    assert isinstance(loaded, ForestModel)
    grid = np.random.default_rng(1).normal(0, 1.5, size=(25, 2))
    np.testing.assert_array_equal(predict_proba_forest(loaded, grid),
                                  predict_proba_forest(model, grid))
    save_classifier(path, loaded)
    assert path.read_bytes() == first


def test_classifier_document_validation():
    with pytest.raises(DocumentError, match="format_version"):
        classifier_from_document({"kind": "logistic"})
    with pytest.raises(DocumentError, match="kind"):
        classifier_from_document({"format_version": 1, "kind": "svm"})
    with pytest.raises(DocumentError, match="truncated"):
        classifier_from_document({"format_version": 1, "kind": "forest",
                                  "trees": [[{"f": 0, "t": 1.0}]]})
    with pytest.raises(DocumentError, match="trailing"):
        classifier_from_document({"format_version": 1, "kind": "forest",
                                  "trees": [[{"p": [1.0, 0.0]}, {"p": [0.5, 0.5]}]]})
    with pytest.raises(DocumentError):
        classifier_from_document({"format_version": 1, "kind": "logistic",
                                  "weights": [[1.0]], "bias": 0.0, "l2": 0.0})


def test_classifier_documents_record_and_check_dim():
    X, y = separable(seed=7)
    forest = classifier_to_document(train_forest(X, y, ClassifierOptions(n_trees=3),
                                                 seed=1))
    logistic = classifier_to_document(train_logistic(X, y))
    assert forest["dim"] == 2 and logistic["dim"] == 2
    assert classifier_from_document(forest).dim == 2
    assert classifier_from_document(logistic).dim == 2
    uses_feature_1 = [[{"f": 1, "t": 0.0}, {"p": [1.0, 0.0]}, {"p": [0.0, 1.0]}]]
    for doc, dim in ((forest, 0), (forest, None), (forest, "2"), (forest, True),
                     ({**forest, "trees": uses_feature_1}, 1),
                     (logistic, 1), (logistic, 3), (logistic, None)):
        with pytest.raises(DocumentError, match="dim"):
            classifier_from_document({**doc, "dim": dim})
    for doc in (forest, logistic):
        with pytest.raises(ValueError, match="dimension 2"):
            predict_proba(classifier_from_document(doc), np.zeros((3, 1)))


def test_malformed_classifier_documents_are_document_errors():
    X, y = separable(seed=8)
    forest = classifier_to_document(train_forest(X, y, ClassifierOptions(n_trees=2),
                                                 seed=1))
    logistic = classifier_to_document(train_logistic(X, y))
    bad_nodes = ({"f": "x", "t": 0.5}, {"f": -1, "t": 0.5}, {"f": 0, "t": "x"},
                 {"f": 0, "t": float("nan")}, {"p": [0.5, "x"]}, 7)
    for node in bad_nodes:
        doc = {**forest, "trees": [[node, {"p": [1.0, 0.0]}, {"p": [0.0, 1.0]}]]}
        with pytest.raises(DocumentError, match="node|leaf"):
            classifier_from_document(doc)
    for weights in (["a", 1.0], [None, 1.0], [float("inf"), 1.0], "12"):
        with pytest.raises(DocumentError, match="weights"):
            classifier_from_document({**logistic, "weights": weights})
    for key, value in (("max_depth", 0), ("min_leaf", "1"), ("seed", 1.5),
                       ("features_per_split", 0)):
        with pytest.raises(DocumentError, match=key):
            classifier_from_document({**forest, key: value})


def test_predict_proba_dispatch():
    logistic = LogisticModel(np.array([1.0]), 0.0, 1e-4)
    assert predict_proba(logistic, np.array([0.0])) == 0.5
    with pytest.raises(TypeError):
        predict_proba(object(), np.array([0.0]))


def test_features_csv_roundtrip(tmp_path):
    fm = FeatureMatrix(
        [("proj", "1.0", "a.mini"), ("proj", "1.0", "b.mini"), ("proj", "2.0", "c.mini")],
        np.array([[0.1, -1.5], [1.0 / 3.0, 2.0], [0.0, 1e-17]]),
        [0, 1, None])
    path = tmp_path / "features.csv"
    write_features_csv(path, fm)
    first = path.read_bytes()
    loaded = read_features_csv(path)
    assert loaded.keys == fm.keys
    assert loaded.labels == fm.labels
    np.testing.assert_array_equal(loaded.values, fm.values)  # repr round-trips
    write_features_csv(path, loaded)
    assert path.read_bytes() == first
    header = first.decode().splitlines()[0]
    assert header == "project,version,file_id,label,f0,f1"


def test_features_csv_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n", encoding="utf-8")
    with pytest.raises(DocumentError, match="header"):
        read_features_csv(path)
    path.write_text("project,version,file_id,label,f0\np,1,a,2,0.5\n", encoding="utf-8")
    with pytest.raises(DocumentError, match="label"):
        read_features_csv(path)
    path.write_text("project,version,file_id,label,f0\np,1,a,1,zap\n", encoding="utf-8")
    with pytest.raises(DocumentError, match="feature value"):
        read_features_csv(path)
    path.write_text("project,version,file_id,label,f0\np,1,a,1\n", encoding="utf-8")
    with pytest.raises(DocumentError, match="columns"):
        read_features_csv(path)
    for value in ("nan", "inf", "-inf"):
        path.write_text(f"project,version,file_id,label,f0\np,1,a,1,{value}\n",
                        encoding="utf-8")
        with pytest.raises(DocumentError, match=r"bad\.csv:2: feature values must be finite"):
            read_features_csv(path)
    with pytest.raises(DocumentError):
        read_features_csv(tmp_path / "missing.csv")
