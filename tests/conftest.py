from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from types import SimpleNamespace

from treedefect import (UNK_TOKEN, AstTree, FileRecord, Vocabulary, corpus_loss, encode,
                        flatten, forward)
from treedefect.corpus import corpus_from_document, corpus_to_document


def token(index: int) -> str:
    """The token at `index` in every small_vocab large enough to hold it."""
    return UNK_TOKEN if index == 0 else f"tok{index}"


def node(index: int, children=()) -> AstTree:
    """AST node whose label encodes to `index` under small_vocab."""
    return AstTree(token(index), tuple(children))


def random_tree(rng: np.random.Generator, vocab_size: int,
                max_nodes: int, min_nodes: int = 1) -> AstTree:
    """Random tree over small_vocab(vocab_size) tokens whose node count lies
    in [min_nodes, max_nodes]."""
    budget = [int(rng.integers(min_nodes, max_nodes + 1))]

    def build() -> AstTree:
        index = int(rng.integers(0, vocab_size))
        budget[0] -= 1
        children = []
        while budget[0] > 0 and rng.random() < 0.55:
            children.append(build())
        return node(index, children)

    return build()


def tree_from_parents(shape, label=token) -> AstTree:
    """Tree of nodes 0..len(shape), drawn flat so that hypothesis reports it
    without recursing: node i >= 1 has label label(shape[i-1][0]) and parent
    max(0, i - 1 - shape[i-1][1]), the root label(1), and a node's children
    are in number order. Offset 0 everywhere is a chain; small offsets give
    many siblings of equal height."""
    children = [[] for _ in range(len(shape) + 1)]
    for i, (_, back) in enumerate(shape, start=1):
        children[max(0, i - 1 - back)].append(i)
    built = [None] * (len(shape) + 1)
    for i in range(len(shape), -1, -1):
        built[i] = AstTree(label(shape[i - 1][0] if i else 1),
                           tuple(built[c] for c in children[i]))
    return built[0]


def read_back(tree: AstTree) -> AstTree:
    """`tree` as the corpus reader returns it from a document: a root that
    keeps the tree's shape and makes its node objects only when `.children`
    is first read. DepthLimitError when `tree` is deeper than MAX_TREE_DEPTH."""
    doc = corpus_to_document([FileRecord("a.mini", "p", "1", None, tree)])
    return corpus_from_document(doc)[0].tree


def poison_embedding(monkeypatch, record, label: str = "poison") -> None:
    """Give `record` a new root labeled `label`, and start every model that
    pretraining initializes with a nan embedding for that token."""
    record.tree = AstTree(label, (record.tree,))
    module = sys.modules["treedefect.pretrain"]
    real_init = module.init_model

    def poisoned_init(vocab, *args, **kwargs):
        model = real_init(vocab, *args, **kwargs)
        model.params["embeddings"][:, encode([label], vocab)[0]] = np.nan
        return model

    monkeypatch.setattr(module, "init_model", poisoned_init)


def loss_and_gradients(flats, model, head, dropout=None):
    """corpus_loss and its gradients, added into fresh zeros for every tensor."""
    grads = {name: np.zeros_like(arr) for name, arr in {**model.params, "head.U": head.U}.items()}
    return corpus_loss(flats, model, head, dropout, grads), grads


def small_vocab(size: int = 6) -> Vocabulary:
    return Vocabulary(tuple(token(i) for i in range(size)))


def root_state(tree: AstTree, model) -> SimpleNamespace:
    """(h, c) at the root of `tree`: one flatten and forward pass."""
    cache = forward(flatten(tree, model.vocab), model)
    return SimpleNamespace(h=cache.H[-1], c=cache.C[-1])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
