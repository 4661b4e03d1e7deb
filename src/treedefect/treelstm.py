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
PACK_NODES nodes, for every training and perplexity pass. The passes run by
height level rather than by node (dynamic batching, Looks et al. 2017,
arXiv:1702.02181):
forward evaluates the nodes of height 0, 1, 2, ... in turn, each level
across all trees at once with a few matrix products on contiguous row
ranges, summing children with np.add.reduceat over parent-grouped edges, and
writes each gate straight into its rows of the cache. Backward walks the
same levels from the top down and reaches each edge's parent row through
edge_parent. Nothing recurses, so any tree depth fits the interpreter stack.

Forward's products run in fixed blocks of ROW_BLOCK rows (`_products`), so a
node's states depend only on its subtree and the model, never on the other
nodes of its pack. Feature extraction (`forward_root`) relies on that: it
numbers the distinct subtrees of all files at once (hash-consing, Filliâtre
and Conchon 2006), runs forward once per distinct subtree of a pack, as a
DAG-structured LSTM shares substructure (Zhu et al. 2016), and gathers each
file's root row. Training and perplexity run over every node.

A tree's height order does not depend on the vocabulary: its first
`flatten` sorts the heights and child edges of the tree's shape
(`corpus.tree_shape`) and keeps the result with the tree, and every FlatTree
of the tree shares its arrays, read-only, so a later flatten only encodes
labels.

During pretraining each pack draws a dropout mask pair (`sample_masks`),
applied to the embedding input w_t and to the aggregate h~ (inverted
scaling, so inference needs no adjustment).
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from . import jsonio
from .corpus import AstTree, Vocabulary, encode, tree_shape, vocabulary_from_json
from .errors import DivergenceError, DocumentError
from .rng import stream

GATE_NAMES = ("forget", "input", "cell", "output")
INIT_SCALE = 0.05

# Nodes per pack (a larger tree is packed alone): bounds peak memory, as the
# forward and backward arrays take a few kB per node, yet fills each level.
PACK_NODES = 1024

# Rows per BLAS call in forward's products (`_products`).
ROW_BLOCK = 16


def sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function of `z`, as a new float array."""
    out = np.array(z, dtype=float)
    _sigmoid_(out)
    return out


def _sigmoid_(z: np.ndarray) -> None:
    """z = sigmoid(z) in place, in the tanh form 0.5 * (tanh(0.5 * z) + 1),
    which is stable for any magnitude without overflow warnings."""
    z *= 0.5
    np.tanh(z, out=z)
    z += 1.0
    z *= 0.5


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

    In the packs of distinct subtrees that `forward_root` runs, a node
    stands for every equal subtree of the pack's trees: `tree` is the first
    tree holding it, trees share nodes, `roots` may repeat, and a level's
    nodes are in no particular order.
    """

    indices: np.ndarray     # (n,) vocab index per node
    height: np.ndarray      # (n,) non-decreasing
    edge_child: np.ndarray  # (E,)
    edge_start: np.ndarray  # (n+1,)
    tree: np.ndarray        # (n,) number of the (first) tree each node belongs to
    roots: np.ndarray       # (trees,) position of each tree's root, may repeat
    names: tuple[str | None, ...]  # per tree, for error messages

    @property
    def n(self) -> int:
        return len(self.indices)

    @property
    def n_edges(self) -> int:
        return len(self.edge_child)

    @cached_property
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
    """FlatTree whose node j is node order[j] of the given arrays. `order`
    may leave out nodes that no kept node's edges or `roots` reach."""
    n = len(order)
    new_pos = np.empty(len(indices), dtype=np.intp)
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
    edge_child, edge_start, tree and roots arrays of its FlatTree, sorted
    from the heights and child edges of `tree_shape`."""
    labels, arity, height, edges = tree_shape(tree)
    n = len(labels)
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
    tree's `_height_structure` slot, which ==, hash and repr do not read,
    and where it stays valid as an AstTree never changes. Every FlatTree of
    the tree shares those arrays, so they are read-only."""
    cached = tree._height_structure
    if cached is None:
        cached = _height_structure(tree)
        object.__setattr__(tree, "_height_structure", cached)
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
    sizes = np.array([(f.n, f.n_edges, f.n_trees) for f in flats])
    nodes, edges, trees = sizes.T
    node_base, edge_base, tree_base = (np.cumsum(sizes, axis=0) - sizes).T
    height = np.concatenate([f.height for f in flats])
    return _sorted_by_height(
        np.argsort(height, kind="stable"),
        np.concatenate([f.indices for f in flats]),
        height,
        np.concatenate([f.edge_child for f in flats]) + np.repeat(node_base, edges),
        np.append(np.concatenate([f.edge_start[:-1] for f in flats])
                  + np.repeat(edge_base, nodes), edges.sum()),
        np.concatenate([f.tree for f in flats]) + np.repeat(tree_base, nodes),
        np.concatenate([f.roots for f in flats]) + np.repeat(node_base, trees),
        tuple(chain.from_iterable(f.names for f in flats)))


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


def _products(a: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """a @ w for each w of the C-contiguous stack `weights` (g, k, n), as
    one matmul of the ROW_BLOCK-row blocks of `a` (the last one zero-padded)
    by each w: (g, len(a), n). Every BLAS call then has the same shape, so
    each row of a result has the bits it has among any other rows, in any
    position of a block. A plain a @ w does not: BLAS takes other kernels
    for other row counts (on OpenBLAS 0.3.31's SkylakeX kernels, even with a
    one-row `a` padded to two rows, at output widths 1-3, 17, 33 and 100
    among those tried)."""
    m, k = a.shape
    blocks = np.zeros((-(-m // ROW_BLOCK), ROW_BLOCK, k))
    blocks.reshape(-1, k)[:m] = a
    g, _, n = weights.shape
    return np.matmul(blocks, weights[:, None]).reshape(g, -1, n)[:, :m]


@np.errstate(over="ignore", invalid="ignore")
def forward(flat: FlatTree, model: TreeLstmModel,
            masks: DropoutMasks | None = None) -> ForwardCache:
    """States of every node of every tree in `flat`.

    Every product goes through `_products`, with the transposed weights
    stacked C-contiguous once per call, so a node's states depend only on
    its subtree and the model, not on the other nodes in `flat`.

    Gates saturate silently: a product that overflows is +-inf, which sigmoid
    and tanh take to their limits, without a numpy warning. Raises
    DivergenceError naming the first tree with a non-finite hidden state.
    """
    n, hd, p = flat.n, model.hidden_dim, model.params
    X = p["embeddings"].T[flat.indices]
    if masks is not None:
        X = X * masks.w
    WT, UT = (np.ascontiguousarray(np.stack([p[f"{name}.{part}"].T for name in GATE_NAMES]))
              for part in "WU")
    # x-dependent gate terms of all nodes in one matmul. Each gate's array
    # starts as its terms and becomes the gate in place, level by level from
    # the leaves up; a level with child edges first adds the children's terms
    F, I, CB, O = (terms + p[f"{name}.b"] for terms, name in zip(_products(X, WT), GATE_NAMES))
    F = F[flat.edge_parent]  # one row per edge
    C, TC, H = (np.empty((n, hd)) for _ in range(3))
    S = np.zeros((n, hd))
    for lo, hi, e0, e1 in flat.levels:
        i_g, cb, o = I[lo:hi], CB[lo:hi], O[lo:hi]
        if e1 > e0:
            ch = flat.edge_child[e0:e1]
            starts = flat.edge_start[lo:hi] - e0
            Hch = H[ch]
            f = F[e0:e1]
            f += _products(Hch, UT[:1])[0]
            _sigmoid_(f)
            ht = np.add.reduceat(Hch, starts, axis=0, out=S[lo:hi])
            if masks is not None:
                ht = ht * masks.agg[lo:hi]
            ui, uc, uo = _products(ht, UT[1:])
            i_g += ui
            cb += uc
            o += uo
        _sigmoid_(i_g)
        np.tanh(cb, out=cb)
        _sigmoid_(o)
        c = np.multiply(i_g, cb, out=C[lo:hi])
        if e1 > e0:
            c += np.add.reduceat(f * C[ch], starts, axis=0)
        np.multiply(o, np.tanh(c, out=TC[lo:hi]), out=H[lo:hi])
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
        dc = dC[lo:hi]
        dc += dh * o * (1.0 - tc * tc)
        da_o = np.multiply(dh, tc, out=dAo[lo:hi])
        da_o *= o
        da_o *= 1.0 - o
        i_g = I[lo:hi]
        cb = CB[lo:hi]
        da_i = np.multiply(dc, cb, out=dAi[lo:hi])
        da_i *= i_g
        da_i *= 1.0 - i_g
        da_c = np.multiply(dc, i_g, out=dAc[lo:hi])
        da_c *= 1.0 - cb * cb
        if e1 > e0:
            ch = flat.edge_child[e0:e1]
            up = flat.edge_parent[e0:e1] - lo  # each edge's parent row in this level
            f = F[e0:e1]
            dc_e = dc[up]
            da_f = np.multiply(C[ch], dc_e, out=dAf[e0:e1])
            da_f *= f
            da_f *= 1.0 - f
            # each child has one parent, so no index repeats within a level
            dC[ch] += f * dc_e
            dht = da_i @ p["input.U"] + da_c @ p["cell.U"] + da_o @ p["output.U"]
            if masks is not None:
                dht *= masks.agg[lo:hi]
            dH[ch] += dht[up] + da_f @ p["forget.U"]
    X, H = cache.X, cache.H
    HT = cache.S if masks is None else cache.S * masks.agg  # the gates' input h~
    for name, dA in (("input", dAi), ("cell", dAc), ("output", dAo)):
        grads[f"{name}.W"] += dA.T @ X
        grads[f"{name}.U"] += dA.T @ HT
        grads[f"{name}.b"] += dA.sum(axis=0)
    dX = dAi @ p["input.W"] + dAc @ p["cell.W"] + dAo @ p["output.W"]
    grads["forget.W"] += dAf.T @ X[flat.edge_parent]
    grads["forget.U"] += dAf.T @ H[flat.edge_child]
    grads["forget.b"] += dAf.sum(axis=0)
    # Both scatters run on 1-D views, numpy's fast path for np.add.at, over
    # element offsets: each element still takes its terms in node order, so the
    # sums are bit-identical. Only a C-contiguous array reshapes to a view.
    d, embeddings = dX.shape[1], grads["embeddings"]
    if not embeddings.flags.c_contiguous:
        raise ValueError("the embedding gradient must be C-contiguous")
    np.add.at(dX.reshape(-1), (flat.edge_parent[:, None] * d + np.arange(d)).ravel(),
              (dAf @ p["forget.W"]).ravel())
    if masks is not None:
        dX *= masks.w
    np.add.at(embeddings.reshape(-1), (np.arange(d) * embeddings.shape[1]
                                       + flat.indices[:, None]).ravel(), dX.ravel())


def _subtree_ids(flat: FlatTree) -> tuple[np.ndarray, np.ndarray]:
    """Subtree id of every node of `flat`, and its nodes ordered by id, then
    position (so each id's nodes run in tree order).

    Two nodes get one id exactly when their subtrees are equal: the same
    token and, in order, children of equal ids. Ids are numbered from the
    leaves up, one group of nodes of equal height and arity at a time, so
    they follow height. A group of arity a is one column per node, its a
    child ids over its token, lexsorted; equal columns are adjacent, so they
    are numbered exactly, with no hashing and no per-node Python, in memory
    linear in nodes and edges whatever the arities."""
    arity = np.diff(flat.edge_start)
    by_id = np.lexsort((arity, flat.height))  # stable: positions in order
    bounds = np.flatnonzero((np.diff(flat.height[by_id]) != 0)
                            | (np.diff(arity[by_id]) != 0)) + 1
    ids = np.empty(flat.n, dtype=np.intp)
    count = 0
    for start, end in zip([0, *bounds.tolist()], [*bounds.tolist(), flat.n]):
        group = by_id[start:end]
        a = int(arity[group[0]])
        keys = np.empty((a + 1, end - start), dtype=np.intp)
        keys[:a] = ids[flat.edge_child[flat.edge_start[group] + np.arange(a)[:, None]]]
        keys[a] = flat.indices[group]
        order = np.lexsort(keys)  # stable: equal columns keep their order
        ranked = keys[:, order]
        new = np.ones(end - start, dtype=bool)
        np.any(ranked[:, 1:] != ranked[:, :-1], axis=0, out=new[1:])
        numbers = np.cumsum(new) + (count - 1)
        by_id[start:end] = group = group[order]
        ids[group] = numbers
        count = int(numbers[-1]) + 1
    return ids, by_id


def forward_root(records, model: TreeLstmModel) -> np.ndarray:
    """Root hidden vectors of FileRecords, one row each in order: the files'
    feature vectors, (len(records), hidden_dim).

    Forward runs over each distinct subtree once per pack, not over every
    node: equal subtrees (`_subtree_ids`) have equal states, as `forward`
    gives a node the same bits whatever other nodes share its pass. The
    files are cut in order into packs of at most PACK_NODES distinct
    subtrees (a larger file alone), and nothing is kept between calls. A
    DivergenceError names the first file, in record order, that holds a
    non-finite state."""
    flats = [flatten(r.tree, model.vocab, r.file_id) for r in records]
    if not flats:
        return np.empty((0, model.hidden_dim))
    whole = pack(flats)
    ids, by_id = _subtree_ids(whole)
    node_id, node_file = ids[by_id], whole.tree[by_id]
    again = node_id[1:] == node_id[:-1]
    # the file of the node before each node with the same subtree, or -1
    prev_file = np.append(-1, np.where(again, node_file[:-1], -1))
    rep = np.empty(node_id[-1] + 1, dtype=np.intp)
    roots, begin = [], 0
    while begin < len(flats):
        new = (prev_file < begin) & (node_file >= begin)  # first nodes from file `begin` on
        sizes = np.cumsum(np.bincount(node_file[new] - begin, minlength=len(flats) - begin))
        end = begin + max(1, int(np.searchsorted(sizes, PACK_NODES, side="right")))
        held = new & (node_file < end)
        first = by_id[held]  # the pack's first node of each of its subtrees, in id order
        rep[node_id[held]] = first
        flat = _sorted_by_height(first, whole.indices, whole.height, rep[ids[whole.edge_child]],
                                 whole.edge_start, whole.tree - begin,
                                 rep[ids[whole.roots[begin:end]]], whole.names[begin:end])
        roots.append(forward(flat, model).H[flat.roots])
        begin = end
    return np.concatenate(roots)


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
