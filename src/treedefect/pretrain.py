"""Unsupervised pretraining: predict each parent's label from its children.

For every internal node t the head turns the average of the children's hidden
states, g_t = (1/|C(t)|) sum_k h_k, into a distribution over the vocabulary
via softmax(U g_t); the loss is the mean negative log probability of the true
parent label over all internal nodes. (The Tree-LSTM cell itself aggregates
children by sum; the head divides the cell's own sum by the child count.)
`corpus_loss` is that loss, one pass over the packed trees: `dropout` makes
it the training-time loss and `grads` collects its exact gradients.

Training is RMSprop over minibatches of whole trees with inverted dropout on
the embedding input and the cell aggregate, early stopping on validation
perplexity, and best-snapshot selection. All randomness flows from named
streams of the config seed ("split", "init", "batches", "dropout"), so equal
seeds and corpora give bit-identical models. Every corpus shape takes one
path: with zero epochs the loop does not run, and the result is the
initialized model with its test perplexity. Divergence raises DivergenceError
naming the epoch, the batch or validation pass, and the step size options
(learning_rate, rms_epsilon).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite

import numpy as np

from . import jsonio
from .corpus import MIN_COUNT, VOCAB_SIZE, FileRecord, Vocabulary, build_vocabulary
from .errors import CorpusError, DivergenceError
from .rng import stream
from .treelstm import (DropoutMasks, FlatTree, TreeLstmModel, backward, flatten,
                       forward, init_model, pack, packs, sample_masks)

HEAD_INIT_SCALE = 0.05


@dataclass
class PretrainHead:
    """Softmax weights: one row per vocabulary token, U shape (|V|, hidden)."""

    U: np.ndarray


def init_head(vocab_size: int, hidden_dim: int, seed: int) -> PretrainHead:
    rng = stream(seed, "init", "head")
    return PretrainHead(rng.uniform(-HEAD_INIT_SCALE, HEAD_INIT_SCALE,
                                    size=(vocab_size, hidden_dim)))


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    rms_decay: float = 0.9
    rms_epsilon: float = 1e-6
    dropout_rate: float = 0.5
    max_epochs: int = 30
    patience: int = 5
    seed: int = 0
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)
    batch_size: int = 8
    embedding_dim: int = 32
    hidden_dim: int | None = None
    vocab_size: int = VOCAB_SIZE
    min_count: int = MIN_COUNT

    def __post_init__(self):
        # the split also comes as "0.8,0.1,0.1", the form of --split
        parts = self.split.split(",") if isinstance(self.split, str) else self.split
        try:
            if not all(isinstance(f, str) or jsonio.is_number(f) for f in parts):
                raise ValueError("not a number")
            self.split = tuple(float(f) for f in parts)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"split must be three fractions, got {self.split!r}") from exc
        floats = {"learning_rate": "> 0", "rms_decay": "in [0, 1)", "rms_epsilon": "> 0",
                  "dropout_rate": "in [0, 1)"}
        for name, bound in floats.items():
            value = getattr(self, name)
            if not (jsonio.is_number(value)
                    and (0 < value if bound == "> 0" else 0 <= value < 1)):
                raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")
        ints = {"seed": None, "max_epochs": 0, "patience": 1, "batch_size": 1,
                "embedding_dim": 1, "hidden_dim": 1, "vocab_size": 1, "min_count": 1}
        for name, least in ints.items():
            value = getattr(self, name)
            if name == "hidden_dim" and value is None:
                continue  # hidden_dim defaults to embedding_dim
            if not jsonio.is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if least is not None and value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        if len(self.split) != 3 or not all(isfinite(f) and f > 0 for f in self.split):
            raise ValueError(f"split must be three finite fractions > 0, got {self.split}")
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {self.split}")


@np.errstate(over="ignore", invalid="ignore")
def rmsprop_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                 mean_square: dict[str, np.ndarray], config: TrainConfig) -> None:
    """In-place update of `params` and of the running `mean_square` (same
    keys, zeros at the start): ms <- rho ms + (1-rho) g^2;
    theta <- theta - eta g/sqrt(ms+eps). Overflow is silent, as in _pack_loss."""
    rho, eta, eps = config.rms_decay, config.learning_rate, config.rms_epsilon
    for name, theta in params.items():
        g = grads[name]
        ms = mean_square[name]
        ms *= rho
        ms += (1.0 - rho) * g * g
        theta -= eta * g / np.sqrt(ms + eps)


def _softmax_rows(Z: np.ndarray) -> np.ndarray:
    Z = Z - Z.max(axis=1, keepdims=True)
    np.exp(Z, out=Z)
    Z /= Z.sum(axis=1, keepdims=True)
    return Z


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _pack_loss(flat: FlatTree, model: TreeLstmModel, head: PretrainHead,
               masks: DropoutMasks | None, grads: dict[str, np.ndarray] | None,
               scale: float) -> np.ndarray:
    """Summed NLL of each tree in the pack `flat`; accumulates gradients
    scaled by `scale` into `grads` when given. Overflow, and log(0) = -inf at a
    saturated head, are silent: the next forward pass or the perplexity check
    names a diverging step."""
    cache = forward(flat, model, masks)
    # leaves come first, so the internal nodes are the run after them
    first = flat.levels[0][1]
    k = (flat.edge_start[first + 1:] - flat.edge_start[first:-1])[:, None]
    G = cache.S[first:] / k
    rows = np.arange(len(k))
    targets = flat.indices[first:]
    P = _softmax_rows(G @ head.U.T)
    nll = np.bincount(flat.tree[first:], weights=-np.log(P[rows, targets]),
                      minlength=flat.n_trees)
    if grads is not None:
        dZ = P
        dZ[rows, targets] -= 1.0
        dZ *= scale
        grads["head.U"] += dZ.T @ G
        dG = dZ @ head.U
        dH = np.zeros_like(cache.H)
        # every node has at most one parent: one scatter spreads the means back
        dH[flat.edge_child] = (dG / k)[flat.edge_parent - first]
        backward(flat, model, cache, dH, grads)
    return nll


def corpus_loss(flats: list[FlatTree], model: TreeLstmModel, head: PretrainHead,
                dropout: tuple[float, np.random.Generator] | None = None,
                grads: dict[str, np.ndarray] | None = None) -> float:
    """Mean NLL of true parent labels over all internal nodes of `flats`
    (trees flattened through the model's vocabulary). With `dropout` (rate,
    generator) each pack draws its masks as it is reached and holds them for
    its gradients; with `grads` the exact gradients of every tensor are added
    into it (model.params keys plus "head.U")."""
    count = sum(f.n_internal for f in flats)
    if count == 0:
        raise CorpusError("corpus has no internal nodes; nothing to predict")
    total = 0.0
    for flat in packs(flats):
        masks = (None if dropout is None
                 else sample_masks(flat, dropout[0], model.d, model.hidden_dim, dropout[1]))
        total += float(_pack_loss(flat, model, head, masks, grads, 1.0 / count).sum())
    return total / count


def perplexity(model: TreeLstmModel, head: PretrainHead, flats: list[FlatTree]) -> float:
    """exp(corpus loss) with dropout disabled; |V| for a uniform predictor."""
    loss = corpus_loss(flats, model, head)
    with np.errstate(over="ignore"):  # a diverged loss gives inf
        return float(np.exp(loss))


def split_records(records: list[FileRecord], fractions: tuple[float, float, float],
                  seed: int) -> tuple[list[FileRecord], list[FileRecord], list[FileRecord]]:
    """Seeded shuffle, then contiguous train/validation/test partitions."""
    n = len(records)
    n_train = int(round(fractions[0] * n))
    n_val = int(round(fractions[1] * n))
    n_test = n - n_train - n_val
    for name, size in (("train", n_train), ("validation", n_val), ("test", n_test)):
        if size <= 0:
            raise CorpusError(
                f"{name} partition is empty: {n} records split as {fractions}")
    perm = stream(seed, "split").permutation(n)
    shuffled = [records[i] for i in perm]
    return (shuffled[:n_train], shuffled[n_train:n_train + n_val],
            shuffled[n_train + n_val:])


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_perplexity: float
    improved: bool


@dataclass
class PretrainResult:
    model: TreeLstmModel
    head: PretrainHead
    log: list[EpochStats] = field(default_factory=list)
    best_epoch: int | None = None
    val_perplexity: float | None = None
    test_perplexity: float | None = None


def pretrain(records: list[FileRecord], config: TrainConfig,
             vocab: Vocabulary | None = None) -> PretrainResult:
    """Train the Tree-LSTM and head on `records` without defect labels.

    The corpus is shuffled and split per config.split; the vocabulary, unless
    given, is built from the training partition only (validation/test tokens
    outside it encode to the unknown). Returns the snapshot with the best
    validation perplexity and the per-epoch log.
    """
    train_recs, val_recs, test_recs = split_records(records, config.split, config.seed)
    if vocab is None:
        vocab = build_vocabulary([r.tree for r in train_recs],
                                 config.vocab_size, config.min_count)
    model = init_model(vocab, config.embedding_dim, config.hidden_dim, config.seed)
    head = init_head(len(vocab), model.hidden_dim, config.seed)

    def flats_of(recs):
        return [flatten(r.tree, vocab, r.file_id) for r in recs]

    train_flats, val_flats, test_flats = map(flats_of, (train_recs, val_recs, test_recs))
    result = PretrainResult(model, head)
    params = {**model.params, "head.U": head.U}
    mean_square = {name: np.zeros_like(arr) for name, arr in params.items()}
    batch_rng = stream(config.seed, "batches")
    dropout_rng = stream(config.seed, "dropout")
    dropout = (config.dropout_rate, dropout_rng) if config.dropout_rate > 0 else None
    best_perp = np.inf
    best_snapshot: dict[str, np.ndarray] | None = None
    stale = 0
    step = f"; step size: learning_rate {config.learning_rate}, rms_epsilon {config.rms_epsilon}"
    for epoch in range(1, config.max_epochs + 1):
        order = batch_rng.permutation(len(train_flats))
        epoch_nll, epoch_nodes = 0.0, 0
        for number, start in enumerate(range(0, len(order), config.batch_size), 1):
            batch = [train_flats[i] for i in order[start:start + config.batch_size]]
            count = sum(f.n_internal for f in batch)
            if count == 0:
                if dropout is not None:  # drawn all the same, so that later masks keep theirs
                    sample_masks(pack(batch), config.dropout_rate, model.d, model.hidden_dim,
                                 dropout_rng)
                continue
            grads = {name: np.zeros_like(arr) for name, arr in params.items()}
            try:
                loss = corpus_loss(batch, model, head, dropout, grads)
            except DivergenceError as exc:
                raise DivergenceError(f"{exc} (epoch {epoch}, batch {number}){step}") from exc
            epoch_nll += loss * count
            epoch_nodes += count
            rmsprop_step(params, grads, mean_square, config)
        if epoch_nodes == 0:
            raise CorpusError("training partition has no internal nodes")
        try:
            val_perp = perplexity(model, head, val_flats)
        except DivergenceError as exc:
            raise DivergenceError(f"{exc} (epoch {epoch}, validation){step}") from exc
        improved = val_perp < best_perp
        if improved:
            best_perp = result.val_perplexity = val_perp
            best_snapshot = {name: arr.copy() for name, arr in params.items()}
            result.best_epoch = epoch
            stale = 0
        else:
            stale += 1
        result.log.append(EpochStats(epoch, epoch_nll / epoch_nodes, val_perp, improved))
        if stale >= config.patience:
            break
    if best_snapshot is not None:
        for name, arr in params.items():
            arr[...] = best_snapshot[name]
    elif result.log:  # epochs ran, and none had a finite validation perplexity
        raise DivergenceError(f"no finite validation perplexity in {len(result.log)} epoch(s); "
                              f"the last was {result.log[-1].val_perplexity}{step}")
    try:
        result.test_perplexity = perplexity(model, head, test_flats)
    except DivergenceError as exc:
        raise DivergenceError(f"{exc} (test){step}") from exc
    return result


def write_training_log(path, log: list[EpochStats]) -> None:
    jsonio.write_csv(path, [["epoch", "train_loss", "val_perplexity", "improved"],
                            *([row.epoch, repr(row.train_loss), repr(row.val_perplexity),
                               int(row.improved)] for row in log)])
