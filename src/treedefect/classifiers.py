"""File-level defect classifiers over root feature vectors.

Both classifiers are deterministic: logistic regression uses full-batch
gradient descent with a backtracking (Armijo) line search, and the random
forest draws every bootstrap sample and feature subset from per-tree streams
derived from one seed, with impurity ties broken by lowest feature index and
then lowest threshold. A bag-of-words featurizer over normalized AST labels
is included as the baseline representation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from math import ceil, isfinite, sqrt
from pathlib import Path

import numpy as np

from . import jsonio
from .corpus import FileRecord, Vocabulary, iter_nodes
from .errors import DocumentError, TrainingDataError
from .rng import stream
from .treelstm import TreeLstmModel, forward_root, sigmoid

CLASSIFIER_KINDS = ("logistic", "forest")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and isfinite(value)


@dataclass
class ClassifierOptions:
    """Classifier kind and hyperparameters: `l2` for logistic regression,
    the rest for the random forest."""

    kind: str = "forest"
    l2: float = 1e-4
    n_trees: int = 100
    max_depth: int = 16
    min_leaf: int = 1
    features_per_split: int | None = None  # None: ceil(sqrt(dim))

    def __post_init__(self):
        if self.kind not in CLASSIFIER_KINDS:
            raise ValueError(f"classifier kind must be one of {CLASSIFIER_KINDS}, "
                             f"got {self.kind!r}")
        if not (_is_number(self.l2) and self.l2 >= 0):
            raise ValueError(f"l2 must be a finite number >= 0, got {self.l2!r}")
        sizes = {"n_trees": self.n_trees, "max_depth": self.max_depth,
                 "min_leaf": self.min_leaf}
        if self.features_per_split is not None:
            sizes["features_per_split"] = self.features_per_split
        for name, value in sizes.items():
            if not (_is_int(value) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass
class FeatureMatrix:
    """Per-file feature rows keyed by (project, version, file_id)."""

    keys: list[tuple[str, str, str]]
    values: np.ndarray  # (n, dim)
    labels: list[int | None]

    def __post_init__(self):
        if self.values.ndim != 2 or len(self.keys) != len(self.values) \
                or len(self.labels) != len(self.values):
            raise ValueError("feature matrix rows, keys and labels must align")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("feature values must be finite")

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def label_array(self) -> np.ndarray:
        if any(lab is None for lab in self.labels):
            raise TrainingDataError("feature matrix has unlabeled rows")
        return np.asarray(self.labels, dtype=np.intp)


def featurize_corpus(records: list[FileRecord], model: TreeLstmModel) -> FeatureMatrix:
    """One row per record: the Tree-LSTM root hidden vector."""
    values = np.empty((len(records), model.hidden_dim))
    for i, record in enumerate(records):
        values[i] = forward_root(record, model)
    return FeatureMatrix([r.key for r in records], values, [r.label for r in records])


def bow_featurize(records: list[FileRecord], vocab: Vocabulary,
                  threshold: int = 5) -> FeatureMatrix:
    """Two-bin bag of words: coordinate v is 1 iff the token count >= threshold."""
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    values = np.zeros((len(records), len(vocab)))
    for i, record in enumerate(records):
        counts = np.zeros(len(vocab))
        for node in iter_nodes(record.tree):
            counts[vocab.index(node.label)] += 1
        values[i] = counts >= threshold
    return FeatureMatrix([r.key for r in records], values, [r.label for r in records])


def _as_xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(X, FeatureMatrix):
        values = X.values
        if y is None:
            y = X.label_array()
    else:
        values = np.asarray(X, dtype=float)
        if y is None:
            raise ValueError("labels are required when X is a plain array")
    y = np.asarray(y)
    if values.ndim != 2 or len(values) != len(y):
        raise ValueError("X and y must have matching first dimensions")
    if len(np.unique(y)) < 2:
        raise TrainingDataError("training data contains a single class")
    return values, y.astype(float)


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    l2: float
    loss_history: list[float] = field(default_factory=list, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.weights)


def _logistic_loss(X, y, w, b, l2) -> float:
    margins = (2.0 * y - 1.0) * (X @ w + b)
    return float(np.logaddexp(0.0, -margins).mean() + 0.5 * l2 * (w @ w))


def train_logistic(X, y=None, l2: float = 1e-4, tol: float = 1e-6,
                   max_iter: int = 5000) -> LogisticModel:
    """Minimize L2-regularized logistic loss (bias unregularized) by
    full-batch gradient descent with backtracking line search, until the
    gradient norm falls below `tol` or `max_iter` iterations."""
    Xa, ya = _as_xy(X, y)
    n, dim = Xa.shape
    w = np.zeros(dim)
    b = 0.0
    loss = _logistic_loss(Xa, ya, w, b, l2)
    history = [loss]
    for _ in range(max_iter):
        p = sigmoid(Xa @ w + b)
        residual = (p - ya) / n
        gw = Xa.T @ residual + l2 * w
        gb = float(residual.sum())
        gnorm2 = float(gw @ gw) + gb * gb
        if sqrt(gnorm2) <= tol:
            break
        step = 1.0
        while True:
            w_new = w - step * gw
            b_new = b - step * gb
            loss_new = _logistic_loss(Xa, ya, w_new, b_new, l2)
            if loss_new <= loss - 1e-4 * step * gnorm2 or step < 1e-18:
                break
            step *= 0.5
        if loss_new > loss:  # line search stalled at float resolution
            break
        w, b, loss = w_new, b_new, loss_new
        history.append(loss)
    return LogisticModel(w, b, l2, history)


def predict_proba_logistic(model: LogisticModel, x) -> float | np.ndarray:
    x = np.asarray(x, dtype=float)
    z = x @ model.weights + model.bias
    p = sigmoid(np.asarray(z, dtype=float))
    return float(p) if np.ndim(z) == 0 else p


@dataclass
class TreeNode:
    """Decision tree node: internal when left/right are set, else a leaf
    carrying (P(clean), P(defective))."""

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    proba: tuple[float, float] | None = None

    @property
    def is_leaf(self) -> bool:
        return self.proba is not None


@dataclass
class ForestModel:
    trees: list[TreeNode]
    options: ClassifierOptions
    seed: int
    dim: int  # number of features the forest was trained on


def _leaf(labels: np.ndarray) -> TreeNode:
    n1 = int(labels.sum())
    n = len(labels)
    return TreeNode(proba=((n - n1) / n, n1 / n))


def _best_split(Xa, labels, idx, feats, min_leaf):
    """Lowest weighted-Gini split over `feats`; ties go to the lowest feature
    index, then the lowest threshold. Returns (feature, threshold) or None."""
    n = len(idx)
    best_score = np.inf
    best = None
    n1 = labels.sum()
    for f in feats:
        v = Xa[idx, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        ls = labels[order]
        nl = np.arange(1, n)
        l1 = np.cumsum(ls)[:-1]
        valid = (vs[1:] != vs[:-1]) & (nl >= min_leaf) & (n - nl >= min_leaf)
        if not valid.any():
            continue
        nr = n - nl
        r1 = n1 - l1
        # weighted Gini * n; constant offsets dropped
        score = (nl - (l1 * l1 + (nl - l1) ** 2) / nl
                 + nr - (r1 * r1 + (nr - r1) ** 2) / nr)
        score[~valid] = np.inf
        pos = int(np.argmin(score))
        if score[pos] < best_score:
            best_score = float(score[pos])
            best = (int(f), float((vs[pos] + vs[pos + 1]) / 2.0))
    return best


def _build_tree(Xa, ya, idx, depth, cfg: ClassifierOptions, mtry: int,
                rng: np.random.Generator) -> TreeNode:
    labels = ya[idx]
    n1 = int(labels.sum())
    if n1 == 0 or n1 == len(idx) or depth >= cfg.max_depth or len(idx) < 2 * cfg.min_leaf:
        return _leaf(labels)
    dim = Xa.shape[1]
    feats = np.sort(rng.choice(dim, size=min(mtry, dim), replace=False))
    split = _best_split(Xa, labels, idx, feats, cfg.min_leaf)
    if split is None:
        return _leaf(labels)
    feature, threshold = split
    mask = Xa[idx, feature] <= threshold
    left = _build_tree(Xa, ya, idx[mask], depth + 1, cfg, mtry, rng)
    right = _build_tree(Xa, ya, idx[~mask], depth + 1, cfg, mtry, rng)
    return TreeNode(feature, threshold, left, right)


def train_forest(X, y=None, options: ClassifierOptions | None = None,
                 seed: int = 0) -> ForestModel:
    """Random forest of seeded-bootstrap Gini trees, sized by the forest
    fields of `options`."""
    if options is None:
        options = ClassifierOptions()
    Xa, ya = _as_xy(X, y)
    n, dim = Xa.shape
    mtry = options.features_per_split or ceil(sqrt(dim))
    trees = []
    for t in range(options.n_trees):
        rng = stream(seed, "bootstrap", t)
        sample = rng.integers(0, n, size=n)
        trees.append(_build_tree(Xa, ya.astype(np.intp), sample, 0, options, mtry, rng))
    return ForestModel(trees, options, seed, dim)


def _tree_proba(node: TreeNode, x: np.ndarray) -> float:
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.proba[1]


def predict_proba_forest(model: ForestModel, x) -> float | np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return sum(_tree_proba(t, x) for t in model.trees) / len(model.trees)
    return np.array([predict_proba_forest(model, row) for row in x])


def predict(p) -> int | np.ndarray:
    """1 (defective) iff the probability is at least 0.5."""
    arr = np.asarray(p)
    if arr.ndim == 0:
        return int(arr >= 0.5)
    return (arr >= 0.5).astype(int)


def predict_proba(model, x) -> float | np.ndarray:
    """P(defective) for one feature row or each row of a matrix."""
    if not isinstance(model, (LogisticModel, ForestModel)):
        raise TypeError(f"unknown classifier type {type(model).__name__}")
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (model.dim,):
        raise ValueError(f"features of shape {x.shape} for a classifier of "
                         f"dimension {model.dim}")
    if isinstance(model, LogisticModel):
        return predict_proba_logistic(model, x)
    return predict_proba_forest(model, x)


# --- serialization ---

def _tree_to_preorder(root: TreeNode) -> list[dict]:
    nodes = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            nodes.append({"p": [node.proba[0], node.proba[1]]})
        else:
            nodes.append({"f": node.feature, "t": node.threshold})
            stack.append(node.right)
            stack.append(node.left)
    return nodes


def _node_from_spec(spec, source: str) -> TreeNode:
    if not isinstance(spec, dict):
        raise DocumentError(f"{source}: tree node must be an object")
    if "p" in spec:
        p = spec["p"]
        if not (isinstance(p, list) and len(p) == 2 and all(map(_is_number, p))):
            raise DocumentError(f"{source}: leaf probabilities must be a pair")
        return TreeNode(proba=(float(p[0]), float(p[1])))
    f, t = spec.get("f"), spec.get("t")
    if not (_is_int(f) and f >= 0 and _is_number(t)):
        raise DocumentError(f"{source}: tree node needs 'p', or an integer "
                            "feature 'f' >= 0 and a number 't'")
    return TreeNode(f, float(t))


def _tree_from_preorder(nodes, source: str) -> TreeNode:
    if not isinstance(nodes, list):
        raise DocumentError(f"{source}: tree must be a list of nodes")
    root = None
    waiting: list[TreeNode] = []  # internal nodes still missing a child
    for spec in nodes:
        node = _node_from_spec(spec, source)
        if waiting:
            parent = waiting[-1]
            if parent.left is None:
                parent.left = node
            else:
                parent.right = node
                waiting.pop()
        elif root is None:
            root = node
        else:
            raise DocumentError(f"{source}: trailing tree nodes after preorder walk")
        if not node.is_leaf:
            waiting.append(node)
    if root is None or waiting:
        raise DocumentError(f"{source}: truncated tree node list")
    return root


def classifier_to_document(model) -> dict:
    if isinstance(model, LogisticModel):
        return {"format_version": 1, "kind": "logistic", "dim": model.dim,
                "weights": model.weights.tolist(), "bias": float(model.bias),
                "l2": float(model.l2)}
    if isinstance(model, ForestModel):
        opts = model.options
        return {"format_version": 1, "kind": "forest", "dim": model.dim,
                "n_trees": opts.n_trees, "max_depth": opts.max_depth,
                "min_leaf": opts.min_leaf,
                "features_per_split": opts.features_per_split,
                "seed": model.seed,
                "trees": [_tree_to_preorder(t) for t in model.trees]}
    raise TypeError(f"unknown classifier type {type(model).__name__}")


def _dim(doc, used: int, source: str) -> int:
    """The document's feature dimension, which must be a positive integer
    and cover the `used` features its model reads."""
    dim = doc.get("dim")
    if not (_is_int(dim) and dim >= max(used, 1)):
        raise DocumentError(f"{source}: 'dim' must be an integer >= {max(used, 1)}, "
                            f"got {dim!r}")
    return dim


def classifier_from_document(doc, source: str = "classifier"):
    if not isinstance(doc, dict) or doc.get("format_version") != 1:
        raise DocumentError(f"{source}: expected an object with format_version 1")
    kind = doc.get("kind")
    if kind == "logistic":
        weights, bias, l2 = doc.get("weights"), doc.get("bias"), doc.get("l2")
        if not (isinstance(weights, list) and all(map(_is_number, weights))):
            raise DocumentError(f"{source}: 'weights' must be a number array")
        if not (_is_number(bias) and _is_number(l2)):
            raise DocumentError(f"{source}: 'bias' and 'l2' must be numbers")
        if _dim(doc, len(weights), source) != len(weights):
            raise DocumentError(f"{source}: 'dim' is {doc['dim']} but there are "
                                f"{len(weights)} weights")
        return LogisticModel(np.array(weights, dtype=float), float(bias), float(l2))
    if kind == "forest":
        trees_doc = doc.get("trees")
        if not isinstance(trees_doc, list) or not trees_doc:
            raise DocumentError(f"{source}: 'trees' must be a non-empty list")
        trees = [_tree_from_preorder(t, f"{source}.trees[{i}]")
                 for i, t in enumerate(trees_doc)]
        features = [node["f"] for t in trees_doc for node in t if "p" not in node]
        dim = _dim(doc, max(features, default=-1) + 1, source)
        seed = doc.get("seed")
        if not _is_int(seed):
            raise DocumentError(f"{source}: 'seed' must be an integer")
        try:
            options = ClassifierOptions("forest", n_trees=len(trees),
                                        max_depth=doc.get("max_depth"),
                                        min_leaf=doc.get("min_leaf"),
                                        features_per_split=doc.get("features_per_split"))
        except ValueError as exc:
            raise DocumentError(f"{source}: {exc}") from exc
        return ForestModel(trees, options, seed, dim)
    raise DocumentError(f"{source}: unknown classifier kind {kind!r}")


def save_classifier(path, model) -> None:
    jsonio.write(path, classifier_to_document(model))


def load_classifier(path):
    return classifier_from_document(jsonio.read(path), str(path))


# --- feature file I/O (CSV) ---

def write_features_csv(path, features: FeatureMatrix) -> None:
    header = ["project", "version", "file_id", "label",
              *(f"f{i}" for i in range(features.dim))]
    rows = ([*key, "" if label is None else label, *(repr(float(v)) for v in row)]
            for key, label, row in zip(features.keys, features.labels, features.values))
    jsonio.write_csv(path, [header, *rows])


def read_features_csv(path) -> FeatureMatrix:
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DocumentError(f"{path}: {exc.strerror or exc}") from exc
    if not rows or len(rows[0]) < 4 or rows[0][:4] != ["project", "version", "file_id", "label"]:
        raise DocumentError(f"{path}: not a feature file (bad header)")
    dim = len(rows[0]) - 4
    keys, labels = [], []
    values = np.empty((len(rows) - 1, dim))
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != dim + 4:
            raise DocumentError(f"{path}:{r}: expected {dim + 4} columns, got {len(row)}")
        keys.append((row[0], row[1], row[2]))
        if row[3] == "":
            labels.append(None)
        elif row[3] in ("0", "1"):
            labels.append(int(row[3]))
        else:
            raise DocumentError(f"{path}:{r}: label must be 0, 1 or empty")
        try:
            values[r - 2] = [float(v) for v in row[4:]]
        except ValueError as exc:
            raise DocumentError(f"{path}:{r}: bad feature value") from exc
        if not np.all(np.isfinite(values[r - 2])):
            raise DocumentError(f"{path}:{r}: feature values must be finite")
    return FeatureMatrix(keys, values, labels)
