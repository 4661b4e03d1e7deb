from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from types import SimpleNamespace

from treedefect import UNK_TOKEN, AstTree, Vocabulary, flatten, forward


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


def small_vocab(size: int = 6) -> Vocabulary:
    return Vocabulary(tuple(token(i) for i in range(size)))


def root_state(tree: AstTree, model) -> SimpleNamespace:
    """(h, c) at the root of `tree`: one flatten and forward pass."""
    cache = forward(flatten(tree, model.vocab), model)
    return SimpleNamespace(h=cache.H[-1], c=cache.C[-1])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
