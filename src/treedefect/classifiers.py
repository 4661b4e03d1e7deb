"""File-level defect classifiers over root feature vectors.

Both classifiers are deterministic: logistic regression uses damped Newton
(IRLS) steps with a backtracking (Armijo) line search, and the random
forest draws every bootstrap sample and feature subset from per-tree streams
derived from one seed, with impurity ties broken by lowest feature index and
then lowest threshold. Its trees grow in lockstep: each step scores the next
preorder node of every unfinished tree in one padded split search, in chunks
of at most SPLIT_CELLS cells to bound its memory. Grower and document reader
fill nodes in place in preorder; a split creates its two children. Growth does
not recurse, so any max_depth fits the interpreter stack. Both kinds are
scored one way: `predict_proba` maps a feature matrix to a vector of
P(defective), which `evaluation.evaluate_predictions` thresholds at 0.5. A
bag-of-words featurizer over normalized AST labels is included as the
baseline representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, sqrt

import numpy as np

from . import jsonio
from .jsonio import is_int, is_number
from .corpus import FileRecord, Vocabulary, encode, preorder
from .errors import DocumentError, TrainingDataError
from .rng import stream
from .treelstm import TreeLstmModel, forward_root, sigmoid

CLASSIFIER_KINDS = ("logistic", "forest")


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
        if not (is_number(self.l2) and self.l2 >= 0):
            raise ValueError(f"l2 must be a finite number >= 0, got {self.l2!r}")
        sizes = {"n_trees": self.n_trees, "max_depth": self.max_depth,
                 "min_leaf": self.min_leaf}
        if self.features_per_split is not None:
            sizes["features_per_split"] = self.features_per_split
        for name, value in sizes.items():
            if not (is_int(value) and value >= 1):
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
        unlabeled = [key for key, lab in zip(self.keys, self.labels) if lab is None]
        if unlabeled:
            raise TrainingDataError(f"feature matrix has {len(unlabeled)} unlabeled row(s); "
                                    f"the first is {unlabeled[0]}")
        return np.asarray(self.labels, dtype=np.intp)


def featurize_corpus(records: list[FileRecord], model: TreeLstmModel) -> FeatureMatrix:
    """One row per record: the Tree-LSTM root hidden vector."""
    return FeatureMatrix([r.key for r in records], forward_root(records, model),
                         [r.label for r in records])


def bow_featurize(records: list[FileRecord], vocab: Vocabulary,
                  threshold: int) -> FeatureMatrix:
    """Two-bin bag of words: coordinate v is 1 iff the token count >= threshold."""
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    values = np.zeros((len(records), len(vocab)))
    for i, record in enumerate(records):
        indices = encode(preorder(record.tree)[0], vocab)
        values[i] = np.bincount(indices, minlength=len(vocab)) >= threshold
    return FeatureMatrix([r.key for r in records], values, [r.label for r in records])


def _as_xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    values = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if values.ndim != 2 or values.shape[1] == 0 or y.shape != (len(values),):
        raise ValueError("X must be a matrix with at least one column and y a "
                         "label vector with one label per row")
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if len(bad):
        raise ValueError(f"X has non-finite values in {len(bad)} row(s): {bad[:10].tolist()}")
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


# Newton fit stops: gradient norm at most _TOL, or _MAX_STEPS accepted steps.
_TOL = 1e-6
_MAX_STEPS = 50


def train_logistic(X, y, l2: float) -> LogisticModel:
    """Minimize L2-regularized logistic loss (bias unregularized) by damped
    Newton (IRLS) on (w, b): Newton directions, or the negative gradient
    where the Hessian solve fails, under a backtracking (Armijo) line search.
    Stops when the gradient norm is at most _TOL, when the line search
    stalls, or after _MAX_STEPS steps, so it also ends, with finite weights,
    where no optimum exists (l2 = 0 on separable data)."""
    Xa, ya = _as_xy(X, y)
    n, dim = Xa.shape
    Z = np.hstack([Xa, np.ones((n, 1))])  # bias as the last coordinate
    ridge = np.append(np.full(dim, float(l2)), 0.0)
    theta = np.zeros(dim + 1)
    loss = _logistic_loss(Xa, ya, theta[:-1], theta[-1], l2)
    history = [loss]
    while len(history) <= _MAX_STEPS:
        p = sigmoid(Z @ theta)
        grad = Z.T @ (p - ya) / n + ridge * theta
        if sqrt(float(grad @ grad)) <= _TOL:
            break
        hessian = (Z.T * (p * (1.0 - p))) @ Z / n + np.diag(ridge)
        try:
            direction = -np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:  # singular Hessian
            direction = -grad
        slope = float(grad @ direction)
        if not -np.inf < slope < 0.0:  # no finite descent direction (NaN included)
            direction, slope = -grad, -float(grad @ grad)
        step = 1.0
        while True:
            candidate = theta + step * direction
            loss_new = _logistic_loss(Xa, ya, candidate[:-1], candidate[-1], l2)
            if loss_new <= loss + 1e-4 * step * slope or step < 1e-18:
                break
            step *= 0.5
        if not loss_new < loss:  # line search stalled at float resolution
            break
        theta, loss = candidate, loss_new
        history.append(loss)
    return LogisticModel(theta[:-1], float(theta[-1]), l2, history)


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


def _split(node: TreeNode, feature: int, threshold: float) -> tuple[TreeNode, TreeNode]:
    """Make `node` split on `feature <= threshold`; return its new empty (left, right)."""
    node.feature, node.threshold = feature, threshold
    node.left, node.right = TreeNode(), TreeNode()
    return node.left, node.right


@dataclass
class ForestModel:
    trees: list[TreeNode]
    options: ClassifierOptions
    seed: int
    dim: int  # number of features the forest was trained on


# Most cells (nodes x features x rows) in each of a padded split search's ~10 blocks
SPLIT_CELLS = 16384


def _best_splits(Xa, labels, rows, feats, min_leaf) -> list:
    """Lowest weighted-Gini split, (feature, threshold) or None, of each node
    i over its rows `rows[i]` and features `feats[i]`, all scored in one
    (nodes, features, rows) block padded with +inf. Ties go to the lowest
    feature index, then the lowest threshold."""
    counts = np.array([len(idx) for idx in rows])
    width, node = int(counts.max()), np.arange(len(rows))
    real = np.arange(width) < counts[:, None]  # (nodes, rows)
    padded = np.zeros(real.shape, dtype=np.intp)
    padded[real] = np.concatenate(rows)
    block = np.where(real[:, None, :], Xa[padded[:, None, :], feats[:, :, None]], np.inf)
    # tie order is moot: a scored position has every row up to its value on its left
    order = np.argsort(block, axis=2) + width * node[:, None, None]
    vs = np.sort(block, axis=2)
    l1 = np.cumsum(labels[padded].take(order), axis=2)[..., :-1]
    r1 = (labels[padded] * real).sum(axis=1)[:, None, None] - l1
    nl = np.arange(1, width)
    nr = counts[:, None, None] - nl
    # weighted Gini * n; constant offsets dropped; padding (nr < 1) is masked
    score = (nl - (l1 * l1 + (nl - l1) ** 2) / nl
             + nr - (r1 * r1 + (nr - r1) ** 2) / np.maximum(nr, 1))
    valid = (vs[..., 1:] != vs[..., :-1]) & (nl >= min_leaf) & (nr >= min_leaf)
    score[~valid] = np.inf
    # the first minimum per node in feature-major order is the tie rule
    f, pos = np.divmod(score.reshape(len(rows), -1).argmin(axis=1), width - 1)
    thresholds = (vs[node, f, pos] + vs[node, f, pos + 1]) / 2.0
    found = zip(valid[node, f, pos].tolist(), feats[node, f].tolist(), thresholds.tolist())
    return [(feature, threshold) if ok else None for ok, feature, threshold in found]


def train_forest(X, y, options: ClassifierOptions, seed: int) -> ForestModel:
    """Random forest of seeded-bootstrap Gini trees, sized by the forest
    fields of `options` and grown in lockstep (see the module docstring)."""
    Xa, ya = _as_xy(X, y)
    labels = ya.astype(np.intp)
    n, dim = Xa.shape
    mtry = min(options.features_per_split or ceil(sqrt(dim)), dim)
    rngs = [stream(seed, "bootstrap", t) for t in range(options.n_trees)]
    roots = [TreeNode() for _ in rngs]
    # per tree: (rows, depth, node) of the nodes still to grow, the next one last
    pending = [[(rng.integers(0, n, size=n), 0, root)] for rng, root in zip(rngs, roots)]
    while any(pending):
        step, searched, splits = [], [], {}
        for t in [t for t, todo in enumerate(pending) if todo]:
            idx, depth, node = pending[t].pop()
            step.append((t, idx, depth, node, n1 := np.count_nonzero(labels[idx])))
            if (0 < n1 < len(idx) and depth < options.max_depth
                    and len(idx) >= 2 * options.min_leaf):
                searched.append((t, idx, rngs[t].choice(dim, size=mtry, replace=False)))
        # consecutive chunks of nodes, each within SPLIT_CELLS (one node at least)
        per = SPLIT_CELLS // (mtry * max((len(s[1]) for s in searched), default=1)) or 1
        for chunk in (searched[lo:lo + per] for lo in range(0, len(searched), per)):
            found = _best_splits(Xa, labels, [s[1] for s in chunk],
                                 np.sort([s[2] for s in chunk], axis=1), options.min_leaf)
            splits.update(zip([s[0] for s in chunk], found))
        for t, idx, depth, node, n1 in step:
            if splits.get(t) is None:
                node.proba = ((len(idx) - n1) / len(idx), n1 / len(idx))
            else:
                left, right = _split(node, *splits[t])
                mask = Xa[idx, node.feature] <= node.threshold
                pending[t] += [(idx[~mask], depth + 1, right), (idx[mask], depth + 1, left)]
    return ForestModel(roots, options, seed, dim)


def _tree_proba(node: TreeNode, x: np.ndarray) -> float:
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.proba[1]


def predict_proba(model, X) -> np.ndarray:
    """P(defective) for each row of the feature matrix X: the logistic
    sigmoid, or the forest's mean leaf share of defective files."""
    if not isinstance(model, (LogisticModel, ForestModel)):
        raise TypeError(f"unknown classifier type {type(model).__name__}")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise ValueError(f"features of shape {X.shape} for a classifier of "
                         f"dimension {model.dim}")
    if isinstance(model, LogisticModel):
        return sigmoid(X @ model.weights + model.bias)
    return np.array([sum(_tree_proba(t, x) for t in model.trees)
                     for x in X]) / len(model.trees)


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


def _tree_from_preorder(nodes, source: str) -> TreeNode:
    if not isinstance(nodes, list):
        raise DocumentError(f"{source}: tree must be a list of nodes")
    root = TreeNode()
    unfilled = [root]  # the next node to fill last, as in a preorder walk
    for spec in nodes:
        if not unfilled:
            raise DocumentError(f"{source}: trailing tree nodes after preorder walk")
        node = unfilled.pop()
        jsonio.known_fields(spec, ("f", "t", "p"), source, "tree node")
        if "p" in spec:
            jsonio.known_fields(spec, ("p",), source)
            p = spec["p"]
            if not (isinstance(p, list) and len(p) == 2
                    and all(is_number(v) and 0 <= v <= 1 for v in p)
                    and abs(p[0] + p[1] - 1.0) <= 1e-9):
                raise DocumentError(f"{source}: leaf probabilities must be a pair "
                                    "of numbers in [0, 1] that sums to 1")
            node.proba = (float(p[0]), float(p[1]))
            continue
        f, t = spec.get("f"), spec.get("t")
        if not (is_int(f) and f >= 0 and is_number(t)):
            raise DocumentError(f"{source}: tree node needs 'p', or an integer "
                                "feature 'f' >= 0 and a number 't'")
        unfilled += reversed(_split(node, f, float(t)))
    if unfilled:
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
    if not (is_int(dim) and dim >= max(used, 1)):
        raise DocumentError(f"{source}: 'dim' must be an integer >= {max(used, 1)}, "
                            f"got {dim!r}")
    return dim


_FIELDS = {"logistic": ("format_version", "kind", "dim", "weights", "bias", "l2"),
           "forest": ("format_version", "kind", "dim", "n_trees", "max_depth", "min_leaf",
                      "features_per_split", "seed", "trees")}  # a document's keys, per kind


def classifier_from_document(doc, source: str = "classifier"):
    kind = jsonio.known_fields(doc, _FIELDS["logistic"] + _FIELDS["forest"], source,
                               version=1).get("kind")
    if kind not in CLASSIFIER_KINDS:  # a list or object kind cannot be a key of _FIELDS
        raise DocumentError(f"{source}: unknown classifier kind {kind!r}")
    jsonio.known_fields(doc, _FIELDS[kind], source)
    if kind == "logistic":
        weights, bias, l2 = doc.get("weights"), doc.get("bias"), doc.get("l2")
        if not (isinstance(weights, list) and all(map(is_number, weights))):
            raise DocumentError(f"{source}: 'weights' must be a number array")
        if not (is_number(bias) and is_number(l2) and l2 >= 0):
            raise DocumentError(f"{source}: 'bias' must be a number and 'l2' "
                                "a number >= 0")
        if _dim(doc, len(weights), source) != len(weights):
            raise DocumentError(f"{source}: 'dim' is {doc['dim']} but there are "
                                f"{len(weights)} weights")
        return LogisticModel(np.array(weights, dtype=float), float(bias), float(l2))
    trees_doc = doc.get("trees")
    if not isinstance(trees_doc, list) or not trees_doc:
        raise DocumentError(f"{source}: 'trees' must be a non-empty list")
    trees = [_tree_from_preorder(t, f"{source}.trees[{i}]") for i, t in enumerate(trees_doc)]
    features = [node["f"] for t in trees_doc for node in t if "p" not in node]
    dim = _dim(doc, max(features, default=-1) + 1, source)
    seed = doc.get("seed")
    if not is_int(seed):
        raise DocumentError(f"{source}: 'seed' must be an integer")
    try:
        options = ClassifierOptions("forest", n_trees=doc.get("n_trees"),
                                    max_depth=doc.get("max_depth"), min_leaf=doc.get("min_leaf"),
                                    features_per_split=doc.get("features_per_split"))
    except ValueError as exc:
        raise DocumentError(f"{source}: {exc}") from exc
    if options.n_trees != len(trees):
        raise DocumentError(f"{source}: 'n_trees' is {options.n_trees} but "
                            f"there are {len(trees)} trees")
    return ForestModel(trees, options, seed, dim)


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
    rows = jsonio.read_text(path, rows=True)
    if not rows or rows[0][:4] != ["project", "version", "file_id", "label"]:
        raise DocumentError(f"{path}: not a feature file (bad header)")
    if len(rows[0]) == 4:
        raise DocumentError(f"{path}: feature file has no feature columns")
    if len(rows) == 1:
        raise DocumentError(f"{path}: feature file has no rows")
    dim = len(rows[0]) - 4
    lines: dict[tuple[str, str, str], int] = {}  # key -> the line that holds it
    labels = []
    values = np.empty((len(rows) - 1, dim))
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != dim + 4:
            raise DocumentError(f"{path}:{r}: expected {dim + 4} columns, got {len(row)}")
        key = (row[0], row[1], row[2])
        if key in lines:
            raise DocumentError(f"{path}:{r}: repeated key {key} (first on line {lines[key]})")
        lines[key] = r
        if row[3] == "":
            labels.append(None)
        elif row[3] in ("0", "1"):
            labels.append(int(row[3]))
        else:
            raise DocumentError(f"{path}:{r}: label must be 0, 1 or empty")
        try:  # float() also takes digit-group underscores, whitespace and non-ASCII digits
            if any("_" in v or v != v.strip() or not v.isascii() for v in row[4:]):
                raise ValueError("not a plain number")
            values[r - 2] = [float(v) for v in row[4:]]
        except ValueError as exc:
            raise DocumentError(f"{path}:{r}: bad feature value") from exc
        if not np.all(np.isfinite(values[r - 2])):
            raise DocumentError(f"{path}:{r}: feature values must be finite")
    return FeatureMatrix(list(lines), values, labels)
