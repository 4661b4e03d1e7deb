import json
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from treedefect import (AstTree, ClassifierOptions, FeatureMatrix, FileRecord,
                        ForestModel, LogisticModel, TrainingDataError,
                        UNK_TOKEN, Vocabulary, bow_featurize, build_vocabulary,
                        classifier_from_document, classifier_to_document, encode,
                        featurize_corpus, generate_records, load_classifier,
                        predict_proba, preorder,
                        read_features_csv, save_classifier, train_forest,
                        train_logistic, write_features_csv)
from treedefect import classifiers, treelstm
from treedefect.classifiers import _MAX_STEPS, TreeNode, _best_splits
from treedefect.errors import DocumentError
from treedefect.treelstm import PACK_NODES, flatten, forward_root, packs

from conftest import node, random_tree
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
    model = scaled_model(vocab_size=6, d=3, hidden_dim=3, seed=30)
    records = [
        FileRecord("a.mini", "p", "1", 1, AstTree("tok1", (AstTree("tok2"),))),
        FileRecord("b.mini", "p", "1", 0, AstTree("tok3")),
    ]
    fm = featurize_corpus(records, model)
    assert fm.keys == [r.key for r in records]
    assert fm.labels == [1, 0]
    np.testing.assert_array_equal(fm.values, forward_root(records, model))


def test_featurize_across_pack_boundaries_keeps_record_order():
    rng = np.random.default_rng(71)
    model = scaled_model(vocab_size=6, d=3, hidden_dim=3, seed=31, scale=0.5)
    records = []
    while sum(flatten(r.tree, model.vocab).n for r in records) <= 2 * PACK_NODES:
        tree = random_tree(rng, vocab_size=6, max_nodes=30)
        records.append(FileRecord(f"f{len(records)}.mini", "p", "1", len(records) % 2, tree))
    assert len(list(packs([flatten(r.tree, model.vocab) for r in records]))) >= 3
    # forward_root packs distinct subtrees, which these files share: a
    # smaller pack makes it cut them too
    with mock.patch.object(treelstm, "PACK_NODES", PACK_NODES // 4), \
            mock.patch.object(treelstm, "forward", wraps=treelstm.forward) as forward:
        fm = featurize_corpus(records, model)
    assert forward.call_count >= 3
    assert fm.keys == [r.key for r in records]
    for row, record in zip(fm.values, records):
        assert row.tobytes() == forward_root([record], model)[0].tobytes()


def test_featurize_names_the_poisoned_file_in_a_pack():
    rng = np.random.default_rng(72)
    model = scaled_model(vocab_size=6, d=3, hidden_dim=3, seed=32)
    model.params["embeddings"][:, 5] = np.nan  # only the poisoned tree holds token 5
    trees = [random_tree(rng, vocab_size=5, max_nodes=10) for _ in range(5)]
    trees.insert(2, node(1, (node(5),)))
    records = [FileRecord(f"f{i}.mini", "p", "1", 0, t) for i, t in enumerate(trees)]
    assert len(list(packs([flatten(t, model.vocab) for t in trees]))) == 1
    with pytest.raises(ArithmeticError, match="f2.mini"):
        featurize_corpus(records, model)


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


def test_bow_featurize_matches_per_node_oracle():
    records = generate_records(n=12, seed=61)
    # a vocabulary from half the files leaves labels of the rest out of vocabulary
    vocab = build_vocabulary([r.tree for r in records[:6]], min_count=2)
    assert any(encode(preorder(r.tree)[0], vocab).min() == 0
               for r in records)
    for threshold in (1, 2, 3):
        fm = bow_featurize(records, vocab, threshold)
        assert fm.keys == [r.key for r in records]
        np.testing.assert_array_equal(
            fm.values, oracles.bow_rows([r.tree for r in records], vocab, threshold))
    empty = bow_featurize([], vocab, 1)
    assert empty.values.shape == (0, len(vocab)) and empty.keys == []


def test_logistic_learns_separable_data():
    X, y = separable()
    model = train_logistic(X, y, 1e-4)
    proba = predict_proba(model, X)
    assert np.mean((proba >= 0.5) == y) == 1.0
    assert predict_proba(model, X[:1])[0] == pytest.approx(proba[0])


def test_logistic_loss_history_non_increasing():
    X, y = separable(seed=1)
    model = train_logistic(X, y, 1e-4)
    history = np.array(model.loss_history)
    assert len(history) > 1
    assert np.all(np.diff(history) <= 0)


def test_logistic_beats_dense_grid_oracle():
    rng = np.random.default_rng(5)
    x = rng.normal(0, 1, size=30)
    y = (x + rng.normal(0, 0.8, size=30) > 0).astype(int)
    if len(np.unique(y)) < 2:
        raise AssertionError("degenerate draw")
    model = train_logistic(x.reshape(-1, 1), y, 1e-4)
    mine = float(model.loss_history[-1])
    grid = oracles.logistic_grid_loss(x, y, l2=1e-4, w_range=(-6, 6),
                                      b_range=(-4, 4), steps=241)
    assert mine <= grid + 1e-6


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(4, 30), st.integers(1, 4), st.sampled_from([1e-4, 1e-2, 1.0]),
       st.floats(0.01, 10.0), st.integers(0, 2**32 - 1))
def test_logistic_loss_at_most_gradient_descent_oracle(n, dim, l2, scale, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, scale, size=(n, dim))
    y = np.arange(n) % 2  # both classes present
    model = train_logistic(X, y, l2=l2)
    _, _, oracle_loss = oracles.logistic_gradient_descent(X, y, l2)
    loss = oracles.logistic_loss(X, y, model.weights, model.bias, l2)
    assert loss <= oracle_loss + 1e-12
    assert loss == pytest.approx(model.loss_history[-1], rel=1e-12)


def test_logistic_returns_a_stationary_point():
    # overlapping classes: the regularized optimum is finite and unique
    X, y = separable(n=60, gap=0.3, seed=2)
    l2 = 1e-4
    model = train_logistic(X, y, l2=l2)
    residual = (oracles.sigmoid(X @ model.weights + model.bias) - y) / len(y)
    gradient = np.append(X.T @ residual + l2 * model.weights, residual.sum())
    assert np.linalg.norm(gradient) <= 1e-6


def test_logistic_without_regularization_on_separable_data_stays_finite():
    # no optimum exists; the fit still ends within the step cap, repeatably
    for X, y in (separable(gap=3.0), (np.array([[0.0], [1.0]]), np.array([0, 1]))):
        model = train_logistic(X, y, l2=0.0)
        assert np.all(np.isfinite(model.weights)) and np.isfinite(model.bias)
        history = np.array(model.loss_history)
        assert np.all(np.diff(history) <= 0)
        assert len(history) - 1 <= _MAX_STEPS
        again = train_logistic(X, y, l2=0.0)
        assert np.array_equal(again.weights, model.weights) and again.bias == model.bias


def _fit_without_l2(monkeypatch, X, y):
    """train_logistic(X, y, 0.0) and the fallbacks it took, read from its
    Hessian solves and loss evaluations."""
    solve, loss = np.linalg.solve, classifiers._logistic_loss
    taken, solves, losses = set(), [], []

    def spy_solve(hessian, grad):
        solves.append(grad)
        try:
            direction = -solve(hessian, grad)
        except np.linalg.LinAlgError:
            taken.add("singular Hessian")
            raise
        if not -np.inf < float(grad @ direction) < 0.0:
            taken.add("no descent direction")
        return -direction

    def spy_loss(*args):
        losses.append(args)
        return loss(*args)

    monkeypatch.setattr(np.linalg, "solve", spy_solve)
    monkeypatch.setattr(classifiers, "_logistic_loss", spy_loss)
    model = train_logistic(X, y, 0.0)
    monkeypatch.undo()
    if len(losses) > 1 + len(solves):  # one loss per step tried, after the first
        taken.add("step halved")
    if len(model.loss_history) == len(solves):  # the last step was not taken
        taken.add("line search stalled")
    return model, taken


def test_logistic_fallbacks_end_with_finite_weights(monkeypatch):
    # a duplicated column makes every Hessian singular: gradient steps keep
    # the two weights equal
    x = np.array([0.3, -1.2, 0.8, 2.0, -0.5, 1.1])
    model, taken = _fit_without_l2(monkeypatch, np.stack([x, x], axis=1),
                                   np.array([0, 1, 0, 1, 1, 0]))
    assert "singular Hessian" in taken
    assert model.weights[0] == model.weights[1] and np.all(np.isfinite(model.weights))
    # nearly equal columns leave the Hessian solvable at float precision, but
    # its Newton direction may climb
    a, e = np.array([-3.0, -3.0, -2.0]), np.array([0.0, -1.0, -1.0])
    X = np.stack([a, a + e * 2.0**-30], axis=1) * 1e5
    model, taken = _fit_without_l2(monkeypatch, X, np.array([1, 0, 1]))
    assert taken == {"singular Hessian", "no descent direction", "step halved",
                     "line search stalled"}
    assert np.all(np.isfinite(model.weights)) and np.isfinite(model.bias)
    assert np.all(np.diff(model.loss_history) <= 0)
    assert len(model.loss_history) - 1 < _MAX_STEPS


def test_logistic_bias_fits_base_rate_and_is_unregularized():
    # zero features leave only the bias: optimum is the base rate 3/4,
    # which a regularized bias could not reach exactly
    X = np.zeros((8, 2))
    y = np.array([1, 1, 1, 0, 1, 1, 1, 0])
    model = train_logistic(X, y, l2=10.0)
    assert np.allclose(model.weights, 0.0)
    p = predict_proba(model, np.zeros((1, 2)))
    assert p.tolist() == [pytest.approx(0.75, abs=1e-4)]
    assert model.bias == pytest.approx(math.log(3), abs=1e-3)


def test_logistic_single_class_rejected():
    with pytest.raises(TrainingDataError):
        train_logistic(np.zeros((4, 2)), np.array([1, 1, 1, 1]), 1e-4)
    with pytest.raises(ValueError):
        train_logistic(np.zeros((4, 2)), None, 1e-4)


def test_forest_learns_separable_data():
    X, y = separable(seed=2)
    model = train_forest(X, y, ClassifierOptions(n_trees=15), seed=3)
    proba = predict_proba(model, X)
    assert np.mean((proba >= 0.5) == y) == 1.0
    assert np.all((0.0 <= proba) & (proba <= 1.0))


def test_forest_deterministic_in_seed():
    X, y = separable(seed=3)
    a = train_forest(X, y, ClassifierOptions(n_trees=8), seed=5)
    b = train_forest(X, y, ClassifierOptions(n_trees=8), seed=5)
    c = train_forest(X, y, ClassifierOptions(n_trees=8), seed=6)
    grid = np.random.default_rng(0).normal(0, 1.5, size=(20, 2))
    np.testing.assert_array_equal(predict_proba(a, grid), predict_proba(b, grid))
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
    acc = np.mean((predict_proba(model, x.reshape(-1, 1)) >= 0.5) == y)
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
    # x <= thr goes left
    assert predict_proba(model, np.array([[0.5], [0.5000001]])).tolist() == [0.0, 1.0]


def test_forest_single_class_rejected():
    with pytest.raises(TrainingDataError):
        train_forest(np.zeros((4, 2)), np.array([0, 0, 0, 0]), ClassifierOptions(), seed=0)


def test_logistic_roundtrip(tmp_path):
    X, y = separable(seed=5)
    model = train_logistic(X, y, 1e-4)
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
    np.testing.assert_array_equal(predict_proba(loaded, grid), predict_proba(model, grid))
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
    logistic = {"format_version": 1, "kind": "logistic", "dim": 1, "weights": [1.0],
                "bias": 0.0, "l2": 0.0}
    forest = {"format_version": 1, "kind": "forest", "dim": 1, "n_trees": 1, "max_depth": 2,
              "min_leaf": 1, "features_per_split": 1, "seed": 0,
              "trees": [[{"f": 0, "t": 0.5}, {"p": [1.0, 0.0]}, {"p": [0.0, 1.0]}]]}
    assert classifier_from_document(logistic).dim == classifier_from_document(forest).dim == 1
    leaf = forest["trees"][0][1]
    for doc, message in (
            ([], "^classifier: document must be an object$"),
            ({**logistic, "format_version": True}, "^classifier: format_version must be 1, "
                                                   "got True$"),
            ({**logistic, "format_version": 1.0}, "must be 1, got 1.0$"),
            ({**logistic, "extra": 1}, "^classifier: unknown field 'extra'$"),
            ({**logistic, "seed": 1}, "^classifier: unknown field 'seed'$"),
            ({**forest, "weights": [1.0]}, "^classifier: unknown field 'weights'$"),
            ({**logistic, "kind": []}, r"^classifier: unknown classifier kind \[\]$"),
            ({**logistic, "kind": {}}, "^classifier: unknown classifier kind {}$"),
            ({**forest, "trees": [[{"f": 0, "t": 0.5, "x": 1}, leaf, leaf]]},
             r"^classifier\.trees\[0\]: unknown field 'x'$"),
            ({**forest, "trees": [[{"f": 0, "t": 0.5}, {**leaf, "f": 0}, leaf]]},
             r"^classifier\.trees\[0\]: unknown field 'f'$"),
            ({**forest, "trees": [[{"f": 0, "t": 0.5}, 7, leaf]]},
             r"^classifier\.trees\[0\]: tree node must be an object$"),
            ({**logistic, "weights": [10**400]}, "'weights' must be a number array")):
        with pytest.raises(DocumentError, match=message):
            classifier_from_document(doc)


def test_classifier_documents_record_and_check_dim():
    X, y = separable(seed=7)
    forest = classifier_to_document(train_forest(X, y, ClassifierOptions(n_trees=3),
                                                 seed=1))
    logistic = classifier_to_document(train_logistic(X, y, 1e-4))
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
    logistic = classifier_to_document(train_logistic(X, y, 1e-4))
    bad_nodes = ({"f": "x", "t": 0.5}, {"f": -1, "t": 0.5}, {"f": 0, "t": "x"},
                 {"f": 0, "t": float("nan")}, {"p": [0.5, "x"]}, 7,
                 {"p": [-4.0, 5.0]}, {"p": [0.5, 1.5]}, {"p": [0.9, 0.9]},
                 {"p": [0.0, 0.0]})
    for node in bad_nodes:
        # a left child, and the match excludes the truncated/trailing tree
        # errors, so only the node's own check can pass this assertion
        doc = {**forest, "trees": [[{"f": 0, "t": 0.5}, node, {"p": [0.0, 1.0]}]]}
        with pytest.raises(DocumentError, match=r"trees\[0\]: (tree node|leaf)"):
            classifier_from_document(doc)
    for weights in (["a", 1.0], [None, 1.0], [float("inf"), 1.0], "12"):
        with pytest.raises(DocumentError, match="weights"):
            classifier_from_document({**logistic, "weights": weights})
    with pytest.raises(DocumentError, match="l2"):
        classifier_from_document({**logistic, "l2": -1.0})
    for key, value in (("max_depth", 0), ("min_leaf", "1"), ("seed", 1.5),
                       ("features_per_split", 0), ("n_trees", "many"),
                       ("n_trees", None), ("n_trees", 3)):
        with pytest.raises(DocumentError, match=key):
            classifier_from_document({**forest, key: value})


def tie_heavy_matrix(rng, n, dim, decimals, duplicate, constant):
    """Rounded values, plus a copy of column 0 and a constant column on
    request: split scores tie everywhere."""
    X = np.round(rng.normal(0, 1, size=(n, dim)), decimals)
    if duplicate:
        X = np.hstack([X, X[:, :1]])
    if constant:
        X = np.hstack([np.full((n, 1), 0.5), X])
    return X


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(2, 12), st.lists(st.integers(2, 12), min_size=1, max_size=6),
       st.integers(1, 4), st.integers(0, 1), st.integers(1, 3), st.booleans(), st.booleans(),
       st.integers(0, 2**32 - 1))
@example(12, [2, 12, 5], 3, 0, 1, True, False, 0)  # 2-row and 12-row nodes side by side
def test_best_split_matches_per_feature_oracle(n, counts, dim, decimals, min_leaf,
                                               duplicate, constant, seed):
    # nodes of different row counts scored in one padded call
    rng = np.random.default_rng(seed)
    X = tie_heavy_matrix(rng, n, dim, decimals, duplicate, constant)
    labels = rng.integers(0, 2, size=n)
    rows = [rng.integers(0, n, size=count) for count in counts]  # bootstrap-like samples
    size = rng.integers(1, X.shape[1] + 1)
    feats = np.sort([rng.choice(X.shape[1], size=size, replace=False) for _ in rows], axis=1)
    assert (_best_splits(X, labels, rows, feats, min_leaf)
            == [oracles.best_split(X, labels[idx], idx, f, min_leaf)
                for idx, f in zip(rows, feats)])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(2, 40), st.integers(1, 5), st.integers(0, 2), st.booleans(), st.booleans(),
       st.integers(1, 5), st.integers(1, 3), st.sampled_from([1, 2, 3, None]),
       st.one_of(st.none(), st.integers(1, 64)), st.integers(0, 2**32 - 1), st.data())
def test_forest_matches_recursive_oracle_byte_for_byte(n, dim, decimals, duplicate, constant,
                                                       n_trees, min_leaf, max_depth, cells,
                                                       seed, data):
    # the lockstep forest against the depth-first recursive one; a cell cap of
    # 1-64 cuts each step's split search into many chunks
    rng = np.random.default_rng(seed)
    X = tie_heavy_matrix(rng, n, dim, decimals, duplicate, constant)
    y = rng.permutation(np.arange(n) % 2)
    depth = {} if max_depth is None else {"max_depth": max_depth}
    options = ClassifierOptions(n_trees=n_trees, min_leaf=min_leaf, **depth,
                                features_per_split=data.draw(
                                    st.one_of(st.none(), st.integers(1, X.shape[1]))))
    with mock.patch.object(classifiers, "SPLIT_CELLS", cells or classifiers.SPLIT_CELLS):
        model = train_forest(X, y, options, seed)
    assert (json.dumps(classifier_to_document(model))
            == json.dumps(oracles.forest_document(X, y, options, seed)))


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_forest_grows_trees_deeper_than_the_recursion_limit():
    X, y = separable()
    train_forest(X, y, ClassifierOptions(n_trees=1), seed=0)  # lazy imports done
    x = np.arange(2500, dtype=float).reshape(-1, 1)
    y = np.arange(2500) % 2  # alternating labels: every split peels off a few rows
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        model = train_forest(x, y, ClassifierOptions(n_trees=1, max_depth=10**6), seed=0)
    finally:
        sys.setrecursionlimit(limit)
    deepest, stack = 0, [(model.trees[0], 1)]
    while stack:
        tree, level = stack.pop()
        deepest = max(deepest, level)
        if not tree.is_leaf:
            stack += [(tree.left, level + 1), (tree.right, level + 1)]
    assert deepest > 40


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_are_rejected_naming_their_rows(bad):
    X, y = separable(n=10)
    X[3, 1] = X[7, 0] = bad
    for fit in (lambda: train_forest(X, y, ClassifierOptions(n_trees=2), seed=0),
                lambda: train_logistic(X, y, 1e-4)):
        with pytest.raises(ValueError, match=r"non-finite values in 2 row\(s\): \[3, 7\]"):
            fit()


def test_trainers_reject_a_matrix_without_columns():
    X, y = separable(n=10)
    for fit in (lambda: train_forest(X[:, :0], y, ClassifierOptions(n_trees=2), seed=0),
                lambda: train_logistic(X[:, :0], y, 1e-4)):
        with pytest.raises(ValueError, match="at least one column"):
            fit()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(4, 20), st.integers(1, 3), st.sampled_from(["logistic", "forest"]),
       st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_classifier_documents_round_trip_byte_for_byte(n, dim, kind, n_trees, min_leaf,
                                                       seed):
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(0, 1, size=(n, dim)), 1)
    y = np.arange(n) % 2  # both classes present
    if kind == "logistic":
        model = train_logistic(X, y, l2=float(rng.choice([0.0, 1e-4, 1.0])))
    else:
        model = train_forest(X, y, ClassifierOptions(n_trees=n_trees, min_leaf=min_leaf),
                             seed=seed)
    first = json.dumps(classifier_to_document(model))
    again = json.dumps(classifier_to_document(classifier_from_document(json.loads(first))))
    assert again == first


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(4, 20), st.integers(0, 2**32 - 1), st.data())
def test_cut_or_padded_preorder_tree_is_a_document_error(n, seed, data):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, size=(n, 2))
    y = np.arange(n) % 2
    doc = classifier_to_document(train_forest(X, y, ClassifierOptions(n_trees=1),
                                              seed=seed))
    nodes = doc["trees"][0]
    cut = data.draw(st.integers(0, len(nodes) - 1))
    with pytest.raises(DocumentError, match="truncated"):
        classifier_from_document({**doc, "trees": [nodes[:cut]]})
    extra = data.draw(st.sampled_from([{"p": [0.5, 0.5]}, {"f": 0, "t": 0.0}]))
    with pytest.raises(DocumentError, match="trailing"):
        classifier_from_document({**doc, "trees": [[*nodes, extra]]})


def test_predict_proba_dispatch():
    logistic = LogisticModel(np.array([1.0]), 0.0, 1e-4)
    assert predict_proba(logistic, np.array([[0.0]])).tolist() == [0.5]
    with pytest.raises(ValueError, match="shape"):  # one row is a 1 x dim matrix
        predict_proba(logistic, np.array([0.0]))
    with pytest.raises(TypeError):
        predict_proba(object(), np.array([[0.0]]))


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
    for value in ("1_0", " 2.5", "2.5 ", "0.5\u00a0", "1e1_0", "\u0661\u0662", "\uff11.5"):
        path.write_text(f"project,version,file_id,label,f0\np,1,a,1,{value}\n",
                        encoding="utf-8")
        with pytest.raises(DocumentError, match=r"bad\.csv:2: bad feature value$"):
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
    path.write_text("project,version,file_id,label,f0\np,1,a,1,0.5\np,1,b,0,0.1\n"
                    "p,1,a,1,0.5\n", encoding="utf-8")
    with pytest.raises(DocumentError, match=r"bad\.csv:4: repeated key \('p', '1', 'a'\) "
                                            r"\(first on line 2\)"):
        read_features_csv(path)
