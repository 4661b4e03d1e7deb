"""Child-Sum Tree-LSTM: level-batched forward and backward passes, model I/O.

Per node t with children C(t), input embedding w_t and per-child states
(h_k, c_k):

    f_tk = sigmoid(W_for w_t + U_for h_k + b_for)      (one gate per child)
    h~   = sum_k h_k
    i_t  = sigmoid(W_in w_t + U_in h~ + b_in)
    c~_t = tanh(W_ce w_t + U_ce h~ + b_ce)
    c_t  = i_t * c~_t + sum_k f_tk * c_k
    o_t  = sigmoid(W_out w_t + U_out h~ + b_out)
    h_t  = o_t * tanh(c_t)

Leaves use h~ = 0 and an empty forget sum. Children are aggregated by sum, so
the state is invariant to child order (Tai et al. 2015, arXiv:1503.00075).

Each tree is flattened once to arrays whose nodes are sorted by height
(`flatten`); `pack` merges several into one FlatTree (a lone tree is a pack
of one), and `packs` cuts any sequence of trees into packs of at most
PACK_NODES nodes, for every pass over many trees. The passes run by height
level rather than by node (dynamic batching, Looks et al. 2017, arXiv:1702.02181):
forward evaluates every node of every tree as a leaf in one vectorised step,
then recomputes the nodes of height 1, 2, ... across all trees at once with a
few matrix products on contiguous row ranges, summing children with
np.add.reduceat over parent-grouped edges. Backward walks the same levels
from the top down. Nothing recurses, so any tree depth fits the interpreter
stack.

A tree's height order does not depend on the vocabulary: its first
`flatten` computes it and keeps it with the tree, and every FlatTree of the
tree shares its arrays, read-only, so a later flatten only encodes labels.

During pretraining each pack draws a dropout mask pair (`sample_masks`),
applied to the embedding input w_t and to the aggregate h~ (inverted
scaling, so inference needs no adjustment).
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import jsonio
from .corpus import AstTree, Vocabulary, encode, preorder, vocabulary_from_json
from .errors import DivergenceError, DocumentError
from .rng import stream

GATE_NAMES = ("forget", "input", "cell", "output")
INIT_SCALE = 0.05

# Nodes per pack (a larger tree is packed alone): bounds peak memory, as the
# forward and backward arrays take a few kB per node, yet fills each level.
PACK_NODES = 1024


def sigmoid(z: np.ndarray) -> np.ndarray:
    # tanh form: stable for any magnitude without overflow warnings
    return 0.5 * (np.tanh(0.5 * z) + 1.0)


@dataclass
class TreeLstmModel:
    """The vocabulary and every trainable tensor, keyed by name:
    "embeddings" (d, |V|), whose column i embeds vocabulary index i, and for
    each gate in GATE_NAMES "<gate>.W" (hidden_dim, d), "<gate>.U"
    (hidden_dim, hidden_dim) and "<gate>.b" (hidden_dim,)."""

    vocab: Vocabulary
    params: dict[str, np.ndarray]

    @property
    def d(self) -> int:
        return self.params["embeddings"].shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.params["forget.b"].shape[0]


def init_model(vocab: Vocabulary, d: int, hidden_dim: int | None,
               seed: int) -> TreeLstmModel:
    """Model with uniform [-0.05, 0.05] weights and zero biases, drawn from
    the "init" stream of `seed` in a fixed order (embeddings, then W and U of
    forget/input/cell/output); `hidden_dim` None means `d`. Warns when `d`
    is not smaller than |V|. MemoryError for sizes that cannot be allocated."""
    if hidden_dim is None:
        hidden_dim = d
    if d < 1:
        raise ValueError(f"embedding dimension must be >= 1, got {d}")
    if hidden_dim < 1:
        raise ValueError(f"hidden_dim must be >= 1, got {hidden_dim}")
    if d >= len(vocab):
        warnings.warn(
            f"embedding dimension {d} is not smaller than the vocabulary size {len(vocab)}",
            stacklevel=2,
        )
    rng = stream(seed, "init")
    try:
        params = {"embeddings": rng.uniform(-INIT_SCALE, INIT_SCALE, size=(d, len(vocab)))}
        for name in GATE_NAMES:
            params[f"{name}.W"] = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(hidden_dim, d))
            params[f"{name}.U"] = rng.uniform(-INIT_SCALE, INIT_SCALE,
                                              size=(hidden_dim, hidden_dim))
            params[f"{name}.b"] = np.zeros(hidden_dim)
    except ValueError as exc:  # numpy refuses a shape beyond its index range
        raise MemoryError(f"cannot allocate a model of embedding dimension {d} and "
                          f"hidden dimension {hidden_dim}: {exc}") from exc
    return TreeLstmModel(vocab, params)


@dataclass
class FlatTree:
    """Array form of one AstTree, or of a packed forest of them.

    Nodes are ordered by height (0 at a leaf, one more than the tallest child
    otherwise), ties kept in tree order and then preorder (nodes of one
    height are never each other's ancestors, so this is post-order too), so
    children precede parents and each height level is one contiguous run of
    positions across all trees. A lone tree's root is its last node. Edges
    (parent, child) are stored grouped by parent: node i's incoming child
    edges occupy edge_child[edge_start[i]:edge_start[i+1]], so each level's
    edges are contiguous too.
    """

    indices: np.ndarray     # (n,) vocab index per node
    height: np.ndarray      # (n,) non-decreasing
    edge_child: np.ndarray  # (E,)
    edge_start: np.ndarray  # (n+1,)
    tree: np.ndarray        # (n,) number of the tree each node belongs to
    roots: np.ndarray       # (trees,) position of each tree's root
    names: tuple[str | None, ...]  # per tree, for error messages

    @property
    def n(self) -> int:
        return len(self.indices)

    @property
    def n_edges(self) -> int:
        return len(self.edge_child)

    @property
    def n_internal(self) -> int:
        return int(np.count_nonzero(self.height))

    @property
    def n_trees(self) -> int:
        return len(self.roots)

    @property
    def depth(self) -> int:
        """Nodes on the longest root-to-leaf path of any tree."""
        return int(self.height[-1]) + 1

    @cached_property
    def edge_parent(self) -> np.ndarray:
        return np.repeat(np.arange(self.n, dtype=np.intp), np.diff(self.edge_start))

    @cached_property
    def levels(self) -> list[tuple[int, int, int, int]]:
        """(first node, end node, first edge, end edge) of each height, leaves first."""
        bounds = np.searchsorted(self.height, np.arange(self.depth + 1)).tolist()
        edges = self.edge_start[bounds].tolist()
        return list(zip(bounds[:-1], bounds[1:], edges[:-1], edges[1:]))


def _sorted_by_height(order: np.ndarray, indices: np.ndarray, height: np.ndarray,
                      edge_child: np.ndarray, edge_start: np.ndarray, tree: np.ndarray,
                      roots: np.ndarray, names: tuple) -> FlatTree:
    """FlatTree whose node j is node order[j] of the given arrays."""
    n = len(order)
    new_pos = np.empty(n, dtype=np.intp)
    new_pos[order] = np.arange(n, dtype=np.intp)
    counts = np.diff(edge_start)[order]
    new_start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(counts, out=new_start[1:])
    # old index of each new edge: every parent's old edge run, in the new order
    old_edge = (np.repeat(edge_start[:-1][order] - new_start[:-1], counts)
                + np.arange(new_start[-1], dtype=np.intp))
    return FlatTree(indices[order], height[order], new_pos[edge_child[old_edge]],
                    new_start, tree[order], new_pos[roots], names)


def _height_structure(tree: AstTree) -> tuple:
    """The labels of `tree` in height order, then the read-only height,
    edge_child, edge_start, tree and roots arrays of its FlatTree. One pass
    from the last preorder node back finds each node's children and height;
    any depth fits the stack."""
    labels, arity = preorder(tree)
    n = len(labels)
    height = [0] * n
    edges: list[int] = []  # children per parent, all reversed
    stack: list[int] = []  # subtrees built so far, leftmost on top
    for j in range(n - 1, -1, -1):
        k = arity[j]
        if k:
            kids = stack[-k:]
            del stack[-k:]
            edges += kids
            height[j] = 1 + max([height[c] for c in kids])
        stack.append(j)
    heights = np.asarray(height, dtype=np.intp)
    edge_start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(arity, out=edge_start[1:])
    # node positions stand in for the labels, which are not encoded here
    flat = _sorted_by_height(np.argsort(heights, kind="stable"), np.arange(n), heights,
                             np.asarray(edges[::-1], dtype=np.intp), edge_start,
                             np.zeros(n, dtype=np.intp), np.array([0]), ())
    arrays = (flat.height, flat.edge_child, flat.edge_start, flat.tree, flat.roots)
    for arr in arrays:
        arr.flags.writeable = False
    return ([labels[j] for j in flat.indices.tolist()], *arrays)


def flatten(tree: AstTree, vocab: Vocabulary, name: str | None = None) -> FlatTree:
    """FlatTree of one AST, labels encoded through `vocab`; `name` (a file
    id) is kept for error messages. The rest does not depend on the
    vocabulary: the first flatten of a tree computes it and keeps it in the
    tree's __dict__, which the frozen dataclass's fields, ==, hash and repr
    do not read, and where it stays valid as an AstTree never changes. Every
    FlatTree of the tree shares those arrays, so they are read-only."""
    cached = vars(tree).get("_height_structure")
    if cached is None:
        cached = vars(tree)["_height_structure"] = _height_structure(tree)
    labels, *arrays = cached
    return FlatTree(encode(labels, vocab), *arrays, (name,))


@dataclass
class DropoutMasks:
    """Inverted-dropout masks of one pack: entries are 0 or 1/(1-rate)."""

    w: np.ndarray    # (n, d) applied to the embedding input
    agg: np.ndarray  # (n, hidden_dim) applied to the aggregate h~


def sample_masks(flat: FlatTree, rate: float, d: int, hidden_dim: int,
                 rng: np.random.Generator) -> DropoutMasks:
    """Masks for every node of the pack `flat`, cut from one draw laid out
    tree by tree (the tree's `w` block, then its `agg` block, rows in the
    tree's own node order, which `pack` keeps): a node at row r of the trees
    one after another, in a tree spanning rows [s, e), has its `w` at offset
    r*d + s*hidden_dim and its `agg` at r*hidden_dim + e*d."""
    if not 0 <= rate < 1:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = (rng.random(flat.n * (d + hidden_dim)) >= rate) * (1.0 / (1.0 - rate))
    row = np.empty(flat.n, dtype=np.intp)
    row[np.argsort(flat.tree, kind="stable")] = np.arange(flat.n)
    sizes = np.bincount(flat.tree)
    end = np.cumsum(sizes)
    start, end = (end - sizes)[flat.tree], end[flat.tree]
    w = keep[(row * d + start * hidden_dim)[:, None] + np.arange(d)]
    agg = keep[(row * hidden_dim + end * d)[:, None] + np.arange(hidden_dim)]
    return DropoutMasks(w, agg)


def pack(flats: Sequence[FlatTree]) -> FlatTree:
    """Merge trees into one FlatTree that forward and backward process in a
    single pass. Tree numbers follow the order of `flats`, and each tree's
    nodes keep their order; per-tree results are those of the trees alone."""
    node_base = np.cumsum([0] + [f.n for f in flats])
    edge_base = np.cumsum([0] + [f.n_edges for f in flats])
    tree_base = np.cumsum([0] + [f.n_trees for f in flats])
    height = np.concatenate([f.height for f in flats])
    return _sorted_by_height(
        np.argsort(height, kind="stable"),
        np.concatenate([f.indices for f in flats]),
        height,
        np.concatenate([f.edge_child + b for f, b in zip(flats, node_base)]),
        np.concatenate([f.edge_start[:-1] + b for f, b in zip(flats, edge_base)]
                       + [edge_base[-1:]]),
        np.concatenate([f.tree + b for f, b in zip(flats, tree_base)]),
        np.concatenate([f.roots + b for f, b in zip(flats, node_base)]),
        sum((f.names for f in flats), ()))


def packs(flats: Sequence[FlatTree]):
    """Packs of consecutive trees of at most PACK_NODES nodes each."""
    start = 0
    while start < len(flats):
        stop, nodes = start + 1, flats[start].n
        while stop < len(flats) and nodes + flats[stop].n <= PACK_NODES:
            nodes += flats[stop].n
            stop += 1
        yield pack(flats[start:stop])
        start = stop


@dataclass
class ForwardCache:
    X: np.ndarray    # (n, d) embedding input after masking
    S: np.ndarray    # (n, hd) children's summed h before masking (zero at leaves)
    I: np.ndarray    # (n, hd) input gate
    CB: np.ndarray   # (n, hd) cell candidate c~
    O: np.ndarray    # (n, hd) output gate
    TC: np.ndarray   # (n, hd) tanh(c)
    H: np.ndarray    # (n, hd)
    C: np.ndarray    # (n, hd)
    F: np.ndarray    # (E, hd) forget gates, grouped by parent
    masks: DropoutMasks | None


def forward(flat: FlatTree, model: TreeLstmModel,
            masks: DropoutMasks | None = None) -> ForwardCache:
    """States of every node of every tree in `flat`.

    Raises DivergenceError naming the first tree with a non-finite hidden
    state.
    """
    n, hd, p = flat.n, model.hidden_dim, model.params
    X = p["embeddings"].T[flat.indices]
    if masks is not None:
        X = X * masks.w
    # x-dependent gate terms for all nodes in four matmuls
    AF = (X @ p["forget.W"].T + p["forget.b"])[flat.edge_parent]  # one row per edge
    AI = X @ p["input.W"].T + p["input.b"]
    AC = X @ p["cell.W"].T + p["cell.b"]
    AO = X @ p["output.W"].T + p["output.b"]
    UfT, UiT, UcT, UoT = (p[f"{name}.U"].T for name in GATE_NAMES)
    # every node as a leaf (h~ = 0, no forget terms) in one step; each level
    # above the leaves then overwrites its nodes, whose children are final
    I = sigmoid(AI)
    CB = np.tanh(AC)
    O = sigmoid(AO)
    C = I * CB
    TC = np.tanh(C)
    H = O * TC
    S = np.zeros((n, hd))
    F = np.empty((flat.n_edges, hd))
    edge_start = flat.edge_start
    for lo, hi, e0, e1 in flat.levels[1:]:
        ch = flat.edge_child[e0:e1]
        starts = edge_start[lo:hi] - e0
        Hch = H[ch]
        f = sigmoid(AF[e0:e1] + Hch @ UfT)
        F[e0:e1] = f
        ht = S[lo:hi] = np.add.reduceat(Hch, starts, axis=0)
        if masks is not None:
            ht = ht * masks.agg[lo:hi]
        i_g = sigmoid(AI[lo:hi] + ht @ UiT)
        cb = np.tanh(AC[lo:hi] + ht @ UcT)
        c = i_g * cb + np.add.reduceat(f * C[ch], starts, axis=0)
        o = sigmoid(AO[lo:hi] + ht @ UoT)
        tc = np.tanh(c)
        I[lo:hi] = i_g
        CB[lo:hi] = cb
        O[lo:hi] = o
        C[lo:hi] = c
        TC[lo:hi] = tc
        H[lo:hi] = o * tc
    if not np.all(np.isfinite(H)):
        tree = int(flat.tree[~np.isfinite(H).all(axis=1)].min())
        name = flat.names[tree]
        raise DivergenceError("non-finite hidden state in the tree forward pass of "
                              + (name if name else f"tree {tree}"))
    return ForwardCache(X, S, I, CB, O, TC, H, C, F, masks)


def backward(flat: FlatTree, model: TreeLstmModel, cache: ForwardCache,
             dH: np.ndarray, grads: dict[str, np.ndarray]) -> None:
    """Backpropagation through structure.

    `dH` holds the loss gradient injected at each node's hidden state and is
    consumed (mutated): levels are visited from the top down, and each adds
    its contribution to its children's rows of `dH` before they are visited.
    Parameter gradients are added into `grads` (keys as in model.params).
    """
    n, hd, p = flat.n, model.hidden_dim, model.params
    masks = cache.masks
    edge_start = flat.edge_start
    dC = np.zeros((n, hd))
    dAi = np.empty((n, hd))
    dAc = np.empty((n, hd))
    dAo = np.empty((n, hd))
    dAf = np.empty((flat.n_edges, hd))
    I, CB, O, TC, C, F = cache.I, cache.CB, cache.O, cache.TC, cache.C, cache.F
    for lo, hi, e0, e1 in reversed(flat.levels):
        dh = dH[lo:hi]
        o = O[lo:hi]
        tc = TC[lo:hi]
        dc = dC[lo:hi] + dh * o * (1.0 - tc * tc)
        da_o = dh * tc * o * (1.0 - o)
        i_g = I[lo:hi]
        cb = CB[lo:hi]
        da_i = dc * cb * i_g * (1.0 - i_g)
        da_c = dc * i_g * (1.0 - cb * cb)
        dAi[lo:hi] = da_i
        dAc[lo:hi] = da_c
        dAo[lo:hi] = da_o
        if e1 > e0:
            ch = flat.edge_child[e0:e1]
            counts = np.diff(edge_start[lo:hi + 1])
            f = F[e0:e1]
            dc_e = np.repeat(dc, counts, axis=0)
            da_f = (C[ch] * dc_e) * f * (1.0 - f)
            dAf[e0:e1] = da_f
            # each child has one parent, so no index repeats within a level
            dC[ch] += f * dc_e
            dht = da_i @ p["input.U"] + da_c @ p["cell.U"] + da_o @ p["output.U"]
            if masks is not None:
                dht *= masks.agg[lo:hi]
            dH[ch] += np.repeat(dht, counts, axis=0) + da_f @ p["forget.U"]
    X, H = cache.X, cache.H
    HT = cache.S if masks is None else cache.S * masks.agg  # the gates' input h~
    for name, dA in (("input", dAi), ("cell", dAc), ("output", dAo)):
        grads[f"{name}.W"] += dA.T @ X
        grads[f"{name}.U"] += dA.T @ HT
        grads[f"{name}.b"] += dA.sum(axis=0)
    dX = dAi @ p["input.W"] + dAc @ p["cell.W"] + dAo @ p["output.W"]
    if flat.n_edges:
        grads["forget.W"] += dAf.T @ X[flat.edge_parent]
        grads["forget.U"] += dAf.T @ H[flat.edge_child]
        grads["forget.b"] += dAf.sum(axis=0)
        np.add.at(dX, flat.edge_parent, dAf @ p["forget.W"])
    if masks is not None:
        dX *= masks.w
    np.add.at(grads["embeddings"].T, flat.indices, dX)


def forward_root(records, model: TreeLstmModel) -> np.ndarray:
    """Root hidden vectors of FileRecords, one row each in order: the files'
    feature vectors, (len(records), hidden_dim)."""
    flats = [flatten(r.tree, model.vocab, r.file_id) for r in records]
    roots = [forward(flat, model).H[flat.roots] for flat in packs(flats)]
    return np.concatenate(roots) if roots else np.empty((0, model.hidden_dim))


def model_to_document(model: TreeLstmModel, head_u: np.ndarray) -> dict:
    doc = {
        "format_version": 1,
        "d": model.d,
        "hidden_dim": model.hidden_dim,
        "vocab": list(model.vocab.tokens),
        "embeddings": model.params["embeddings"].tolist(),
        "head": {"U": head_u.tolist()},
    }
    for name in GATE_NAMES:
        doc[name] = {part: model.params[f"{name}.{part}"].tolist() for part in "WUb"}
    return doc


def _array_field(doc: dict, key: str, shape: tuple[int, ...], source: str) -> np.ndarray:
    """Field `key` of `doc` as a float array of `shape`; every entry must be a
    finite JSON number (jsonio.is_number)."""
    try:
        arr = np.asarray(doc[key], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DocumentError(f"{source}: bad or missing field {key!r}") from exc
    if arr.shape != shape:
        raise DocumentError(f"{source}: field {key!r} has shape {arr.shape}, expected {shape}")
    rows = [doc[key]] if len(shape) == 1 else doc[key]
    if not all(jsonio.is_number(v) for row in rows for v in row):
        raise DocumentError(f"{source}: field {key!r} contains non-finite or non-number entries")
    return arr


def model_from_document(doc, source: str = "model") -> tuple[TreeLstmModel, np.ndarray]:
    jsonio.known_fields(doc, ("format_version", "d", "hidden_dim", "vocab", "embeddings", "head",
                              *GATE_NAMES), source, version=1)
    vocab = vocabulary_from_json(doc.get("vocab"), f"{source}: 'vocab'")
    d, hd = doc.get("d"), doc.get("hidden_dim")
    if not all(jsonio.is_int(v) and v >= 1 for v in (d, hd)):
        raise DocumentError(f"{source}: 'd' and 'hidden_dim' must be positive integers")
    params = {"embeddings": _array_field(doc, "embeddings", (d, len(vocab)), source)}
    shapes = {"W": (hd, d), "U": (hd, hd), "b": (hd,)}
    for name in GATE_NAMES:
        group = jsonio.known_fields(doc.get(name), shapes, f"{source}.{name}", "group")
        for part, shape in shapes.items():
            params[f"{name}.{part}"] = _array_field(group, part, shape, f"{source}.{name}")
    head = jsonio.known_fields(doc.get("head"), ("U",), f"{source}.head", "group")
    head_u = _array_field(head, "U", (len(vocab), hd), f"{source}.head")
    return TreeLstmModel(vocab, params), head_u


def save_model(path, model: TreeLstmModel, head_u: np.ndarray) -> None:
    jsonio.write(path, model_to_document(model, head_u))


def load_model(path) -> tuple[TreeLstmModel, np.ndarray]:
    return model_from_document(jsonio.read(path), str(path))
