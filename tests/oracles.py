"""Independent reference implementations used to check the library.

Everything here is written straight from the defining formulas, favoring
clarity over speed, and shares no code with the package: recursive node
evaluation instead of flattened arrays, explicit pair counting instead of
rank statistics, exhaustive enumeration instead of closed forms. A few are
earlier versions of package code, kept verbatim as byte references for a
faster rewrite: the lexer, the Token lexer and AstTree-building parser
(`token_lexer`, `token_parse_mini`), the synthetic source generator, the
eager tree builder and the height structure of a flattened tree
(`eager_from_preorder`, `height_structure`), and the Tree-LSTM level loop
(`level_pack`, `level_forward`, `level_backward`), which use the package's
AstTree, FlatTree and ForwardCache only as containers.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

import numpy as np

from treedefect import AstTree, FlatTree, MiniSyntaxError, normalize_label
from treedefect.corpus import MAX_TREE_DEPTH
from treedefect.errors import DepthLimitError, DocumentError
from treedefect.minilang import MAX_NESTING
from treedefect.treelstm import ForwardCache


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def token_index(vocab, label):
    """Position of `label` in the vocabulary's token list; 0 when absent."""
    return vocab.tokens.index(label) if label in vocab.tokens else 0


def node_state(tree, model):
    """(h, c) at the root by direct recursive evaluation of the five gate
    equations (per-child forget gates, summed child hidden states)."""
    p = model.params
    w = p["embeddings"][:, token_index(model.vocab, tree.label)]
    child_states = [node_state(child, model) for child in tree.children]
    h_sum = np.zeros(model.hidden_dim)
    fc_sum = np.zeros(model.hidden_dim)
    for h_k, c_k in child_states:
        f_k = sigmoid(p["forget.W"] @ w + p["forget.U"] @ h_k + p["forget.b"])
        h_sum = h_sum + h_k
        fc_sum = fc_sum + f_k * c_k
    i_t = sigmoid(p["input.W"] @ w + p["input.U"] @ h_sum + p["input.b"])
    c_tilde = np.tanh(p["cell.W"] @ w + p["cell.U"] @ h_sum + p["cell.b"])
    c_t = i_t * c_tilde + fc_sum
    o_t = sigmoid(p["output.W"] @ w + p["output.U"] @ h_sum + p["output.b"])
    return o_t * np.tanh(c_t), c_t


def sequential_lstm_chain(indices, model):
    """n-step sequential LSTM with per-step forget gates, equivalent to the
    tree recursion on a path tree whose leaf is indices[0]."""
    p = model.params
    h = np.zeros(model.hidden_dim)
    c = np.zeros(model.hidden_dim)
    first = True
    for index in indices:
        w = p["embeddings"][:, index]
        if first:
            h_in = np.zeros(model.hidden_dim)
            fc = np.zeros(model.hidden_dim)
            first = False
        else:
            f = sigmoid(p["forget.W"] @ w + p["forget.U"] @ h + p["forget.b"])
            h_in = h
            fc = f * c
        i = sigmoid(p["input.W"] @ w + p["input.U"] @ h_in + p["input.b"])
        cb = np.tanh(p["cell.W"] @ w + p["cell.U"] @ h_in + p["cell.b"])
        c = i * cb + fc
        o = sigmoid(p["output.W"] @ w + p["output.U"] @ h_in + p["output.b"])
        h = o * np.tanh(c)
    return h, c


def parent_distribution(child_h, head_u):
    """Softmax over the vocabulary of head_u times the average child h."""
    if len(child_h) == 0:
        raise ValueError("parent_distribution requires at least one child state")
    z = head_u @ np.mean(child_h, axis=0)
    z = z - z.max()
    return np.exp(z) / np.exp(z).sum()


def tree_nll(tree, model, head_u):
    """(summed NLL, internal count) over internal nodes: the parent
    distribution of the children must predict the parent's own token."""
    total, count = 0.0, 0
    if tree.children:
        child_h = [node_state(child, model)[0] for child in tree.children]
        p = parent_distribution(child_h, head_u)
        total += -np.log(p[token_index(model.vocab, tree.label)])
        count += 1
        for child in tree.children:
            t, c = tree_nll(child, model, head_u)
            total += t
            count += c
    return total, count


def corpus_loss(trees, model, head_u):
    total, count = 0.0, 0
    for tree in trees:
        t, c = tree_nll(tree, model, head_u)
        total += t
        count += c
    return total / count


def prf(predictions, labels):
    """(precision, recall, f_measure) by counting list elements one by one;
    zero denominators yield 0."""
    tp = sum(1 for p, y in zip(predictions, labels) if p == 1 and y == 1)
    fp = sum(1 for p, y in zip(predictions, labels) if p == 1 and y == 0)
    fn = sum(1 for p, y in zip(predictions, labels) if p == 0 and y == 1)
    pr = tp / (tp + fp) if tp + fp else 0.0
    re = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * pr * re / (pr + re) if pr + re else 0.0
    return pr, re, f


def auc_pairs(scores, labels):
    """AUC by enumerating every (positive, negative) pair; ties get half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    credit = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                credit += 1.0
            elif sp == sn:
                credit += 0.5
    return credit / (len(pos) * len(neg))


def best_threshold_accuracy(x, y):
    """Best single-feature threshold classifier accuracy, by enumerating all
    midpoints (both orientations)."""
    values = sorted(set(x))
    cuts = [values[0] - 1.0]
    cuts += [(a + b) / 2 for a, b in zip(values, values[1:])]
    cuts += [values[-1] + 1.0]
    best = 0.0
    n = len(y)
    for cut in cuts:
        above = sum(1 for xi, yi in zip(x, y) if (xi > cut) == (yi == 1))
        best = max(best, above / n, (n - above) / n)
    return best


def logistic_grid_loss(X, y, l2, w_range, b_range, steps):
    """Smallest L2-regularized logistic loss over a dense (w, b) grid for
    1-D inputs."""
    X = np.asarray(X, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float)
    best = np.inf
    for w in np.linspace(*w_range, steps):
        margins_base = (2 * y - 1) * (X * w)
        for b in np.linspace(*b_range, steps):
            margins = margins_base + (2 * y - 1) * b
            loss = np.logaddexp(0.0, -margins).mean() + 0.5 * l2 * w * w
            best = min(best, loss)
    return best


def logistic_loss(X, y, w, b, l2):
    """Mean logistic loss of (w, b) plus 0.5 * l2 * |w|^2; the bias is not
    regularized."""
    margins = (2 * y - 1) * (X @ w + b)
    return float(np.logaddexp(0.0, -margins).mean() + 0.5 * l2 * (w @ w))


def logistic_gradient_descent(X, y, l2, tol=1e-6, max_iter=5000):
    """(w, b, loss) of full-batch gradient descent on logistic_loss with a
    halving Armijo line search from zero, stopped when the gradient norm is
    at most `tol`, after `max_iter` steps, or when no step lowers the loss."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, dim = X.shape
    w, b = np.zeros(dim), 0.0
    loss = logistic_loss(X, y, w, b, l2)
    for _ in range(max_iter):
        residual = (sigmoid(X @ w + b) - y) / n
        gw = X.T @ residual + l2 * w
        gb = float(residual.sum())
        gnorm2 = float(gw @ gw) + gb * gb
        if np.sqrt(gnorm2) <= tol:
            break
        step = 1.0
        while True:
            w_new, b_new = w - step * gw, b - step * gb
            loss_new = logistic_loss(X, y, w_new, b_new, l2)
            if loss_new <= loss - 1e-4 * step * gnorm2 or step < 1e-18:
                break
            step *= 0.5
        if loss_new > loss:
            break
        w, b, loss = w_new, b_new, loss_new
    return w, b, loss


def best_split(Xa, labels, idx, feats, min_leaf):
    """(feature, threshold) of the lowest weighted-Gini split of rows `idx`
    over the features `feats`, one feature at a time, or None when no split
    leaves at least `min_leaf` rows on each side; a feature replaces the best
    so far only when strictly better, so ties keep the lowest feature and,
    within a feature, the lowest threshold."""
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


def bootstrap_stream(seed, tree):
    """The generator of forest tree `tree`: a SeedSequence over the seed,
    then the label "bootstrap" (0xF2 and its UTF-8 bytes), then the index
    (0xF1 and the integer), as the package names its streams."""
    entropy = [seed & (2**64 - 1), 0xF2, *b"bootstrap", 0xF1, tree]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def forest_document(X, y, options, seed):
    """The classifier document of the random forest `options` describes,
    grown one tree at a time and each tree depth first, by recursion. Tree t
    draws its bootstrap sample from its own stream, then, node by node in
    preorder, the sorted feature subset of each node that may split; a node
    splits by `best_split`, sending rows <= the threshold left, or becomes a
    leaf of (P(clean), P(defective)) over its rows."""
    X = np.asarray(X, dtype=float)
    labels = np.asarray(y).astype(np.intp)
    n, dim = X.shape
    mtry = min(options.features_per_split or math.ceil(math.sqrt(dim)), dim)

    def grow(idx, depth, rng, nodes):
        count, n1 = len(idx), int(labels[idx].sum())
        split = None
        if 0 < n1 < count and depth < options.max_depth and count >= 2 * options.min_leaf:
            feats = np.sort(rng.choice(dim, size=mtry, replace=False))
            split = best_split(X, labels[idx], idx, feats, options.min_leaf)
        if split is None:
            nodes.append({"p": [(count - n1) / count, n1 / count]})
            return
        nodes.append({"f": split[0], "t": split[1]})
        left = X[idx, split[0]] <= split[1]
        grow(idx[left], depth + 1, rng, nodes)
        grow(idx[~left], depth + 1, rng, nodes)

    trees = []
    for t in range(options.n_trees):
        rng = bootstrap_stream(seed, t)
        trees.append([])
        grow(rng.integers(0, n, size=n), 0, rng, trees[-1])
    return {"format_version": 1, "kind": "forest", "dim": dim,
            "n_trees": options.n_trees, "max_depth": options.max_depth,
            "min_leaf": options.min_leaf,
            "features_per_split": options.features_per_split, "seed": seed,
            "trees": trees}


def bow_rows(trees, vocab, threshold):
    """Two-bin bag of words, one node at a time: per tree, count every
    node's token (0 when out of vocabulary), then 1.0 where the count is at
    least `threshold`."""
    rows = np.zeros((len(trees), len(vocab.tokens)))
    for i, tree in enumerate(trees):
        counts = np.zeros(len(vocab.tokens))
        pending = [tree]
        while pending:
            node = pending.pop()
            counts[token_index(vocab, node.label)] += 1
            pending.extend(node.children)
        rows[i] = counts >= threshold
    return rows


def per_tree_packed_masks(flats, rate, d, hidden_dim, rng):
    """(w, agg) dropout masks of the pack of `flats` (lone trees) as the
    per-tree path drew them: for each tree in order, one (n, d) `w` draw then
    one (n, hidden_dim) `agg` draw; the blocks concatenated and put in the
    pack's node order, a stable sort by height of the trees one after
    another."""
    scale = 1.0 / (1.0 - rate)
    w, agg = [], []
    for flat in flats:
        w.append((rng.random((flat.n, d)) >= rate) * scale)
        agg.append((rng.random((flat.n, hidden_dim)) >= rate) * scale)
    order = np.argsort(np.concatenate([f.height for f in flats]), kind="stable")
    return np.concatenate(w)[order], np.concatenate(agg)[order]


def iter_nodes(tree):
    """Every node of `tree` in preorder (parent before children, left to
    right), by an explicit stack."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def eager_from_preorder(labels, nodes, arity, where):
    """The corpus reader's tree builder as it once was: every node built as
    an AstTree, from the last preorder node back, each taking its children
    off the stack of subtrees built so far, with the reader's checks and
    messages. It checks each node as it comes to it, so where a document
    has both, it names a node too deep before an entry fault at a lower
    index; the reader checks every entry first."""
    built = []
    depths = []
    for j in range(len(nodes) - 1, -1, -1):
        label, k = nodes[j], arity[j]
        if type(label) is not int or not 0 <= label < len(labels):
            raise DocumentError(f"{where}.nodes[{j}]: label index must be an integer "
                                f"in [0, {len(labels)}), got {label!r}")
        if type(k) is not int or not 0 <= k <= len(built):
            raise DocumentError(f"{where}.arity[{j}]: child count must be an integer "
                                f"in [0, {len(built)}], got {k!r}")
        depth, children = 1, ()
        if k:
            depth += max(depths[-k:])
            if depth > MAX_TREE_DEPTH:
                at = f"{where}.nodes[{j}]: " if where else ""
                raise DepthLimitError(f"{at}tree is deeper than the limit of "
                                      f"{MAX_TREE_DEPTH} nodes")
            children = tuple(built[-k:][::-1])
            del built[-k:], depths[-k:]
        built.append(AstTree(labels[label], children))
        depths.append(depth)
    if len(built) != 1:
        raise DocumentError(f"{where}.arity[0]: nodes left over after the root's subtree")
    return built[0]


def eager_normalize_labels(tree):
    """`corpus.normalize_labels` over the eager builder."""
    nodes = list(iter_nodes(tree))
    table = {}
    ids = [table.setdefault(n.label, len(table)) for n in nodes]
    return eager_from_preorder([normalize_label(label) for label in table], ids,
                               [len(n.children) for n in nodes], "")


def height_structure(labels, arity):
    """`treelstm._height_structure` as it once was, over a tree's preorder
    labels and child counts: one pass from the last node back finds each
    node's children and height, then the nodes are sorted by height. Returns
    the labels in height order and the height, edge_child, edge_start, tree
    and roots arrays."""
    n = len(labels)
    height = [0] * n
    edges = []  # children per parent, all reversed
    stack = []  # subtrees built so far, leftmost on top
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
    flat = _sorted_flat(np.argsort(heights, kind="stable"), np.arange(n), heights,
                        np.asarray(edges[::-1], dtype=np.intp), edge_start,
                        np.zeros(n, dtype=np.intp), np.array([0]), ())
    return ([labels[j] for j in flat.indices.tolist()], flat.height, flat.edge_child,
            flat.edge_start, flat.tree, flat.roots)


def post_order_flat(tree, vocab, name=None):
    """FlatTree fields of `tree` as `flatten` once made them: nodes numbered
    in post-order by a fold (children left to right before their parent),
    each with its height and its children's numbers, then sorted by height
    with ties kept in post-order and the edges renumbered. Returns a dict of
    field name -> value, the dtypes those of a FlatTree."""
    labels, height, children = [], [], []
    done, work = [], [(tree, False)]
    while work:
        node, expanded = work.pop()
        if not expanded:
            work.append((node, True))
            work.extend((child, False) for child in reversed(node.children))
            continue
        k = len(node.children)
        kids = done[len(done) - k:]
        del done[len(done) - k:]
        labels.append(node.label)
        height.append(1 + max(height[c] for c in kids) if kids else 0)
        children.append(kids)
        done.append(len(labels) - 1)
    order = sorted(range(len(labels)), key=lambda i: height[i])
    position = {old: new for new, old in enumerate(order)}
    edge_start = [0]
    for i in order:
        edge_start.append(edge_start[-1] + len(children[i]))
    n = len(labels)
    return {"indices": np.array([token_index(vocab, labels[i]) for i in order], dtype=np.intp),
            "height": np.array([height[i] for i in order], dtype=np.intp),
            "edge_child": np.array([position[c] for i in order for c in children[i]],
                                   dtype=np.intp),
            "edge_start": np.array(edge_start, dtype=np.intp),
            "tree": np.zeros(n, dtype=np.intp),
            "roots": np.array([position[n - 1]], dtype=np.intp),
            "names": (name,)}


_LEXEME = re.compile(
    r'(?P<skip>[ \t\r\n]+|//[^\n]*|/\*.*?\*/)'
    r'|(?P<word>\w+)'
    r'|(?P<string>"[^"\n]*")'
    r'|(?P<op><=|>=|==|!=|&&|\|\||/(?!\*)|[-+*<>!=(){};,])',
    re.DOTALL)
_KEYWORDS = {"int", "float", "string", "bool", "if", "else", "while", "for"}


def tokenize(source):
    """(kind, text, line, col) of each mini-language token, one lexeme per
    regex match: a blank or comment, a word run, a string or an operator.
    Each word run is cut character by character into integers (str.isdigit
    runs) and one identifier or keyword (str.isalpha or "_" first). Raises
    MiniSyntaxError as the package's lexer does."""
    tokens = []
    pos, line, line_start = 0, 1, 0
    while pos < len(source):
        m = _LEXEME.match(source, pos)
        if m is None:
            col = pos - line_start + 1
            if source.startswith("/*", pos):
                raise MiniSyntaxError("unterminated block comment", line, col)
            if source[pos] == '"':
                raise MiniSyntaxError("unterminated string literal", line, col)
            raise MiniSyntaxError(f"unexpected character {source[pos]!r}", line, col)
        kind, text, end = m.lastgroup, m.group(), m.end()
        if kind == "skip":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = pos + text.rindex("\n") + 1
        elif kind == "word":
            while pos < end:
                ch, col = source[pos], pos - line_start + 1
                if ch.isalpha() or ch == "_":
                    word = source[pos:end]
                    tokens.append(("keyword" if word in _KEYWORDS else "ident", word, line, col))
                    break
                if not ch.isdigit():
                    raise MiniSyntaxError(f"unexpected character {ch!r}", line, col)
                digits = pos + 1
                while digits < end and source[digits].isdigit():
                    digits += 1
                tokens.append(("int", source[pos:digits], line, col))
                pos = digits
        else:
            tokens.append((kind, text, line, pos - line_start + 1))
        pos = end
    return tokens


def generate_source(rng, defective):
    """The synthetic source file of `treedefect.synthetic`, each name drawn
    with `rng.choice` over its tuple of options."""
    names = ("buf", "stack", "queue", "data", "items", "cache")
    counter = str(rng.choice(("i", "j", "k", "n")))
    name = str(rng.choice(names))
    checker = str(rng.choice(("hasNext", "isReady", "contains")))
    worker = str(rng.choice(("pop", "push", "update")))
    limit = int(rng.integers(2, 50))
    lines = [f"int {counter} = 0;"]
    for _ in range(2):
        if rng.integers(0, 2):
            noise = str(rng.choice(("log", "trace", "notify")))
            lines.append(f"{noise}({str(rng.choice(names))});")
        else:
            lines.append(f"int {str(rng.choice(names))} = {int(rng.integers(0, 9))};")
    work = f"{worker}({name});"
    body = f"  {work}" if defective else f"  if ({checker}({name})) {{ {work} }}"
    lines += [f"while ({counter} < {limit}) {{", body, f"  {counter} = {counter} + 1;", "}"]
    return "\n".join(lines) + "\n"


def _tanh_sigmoid(z):
    """The package's sigmoid, in its tanh form and order of operations."""
    return 0.5 * (np.tanh(0.5 * z) + 1.0)


def _sorted_flat(order, indices, height, edge_child, edge_start, tree, roots, names):
    """FlatTree whose node j is node order[j] of the given arrays."""
    n = len(order)
    new_pos = np.empty(n, dtype=np.intp)
    new_pos[order] = np.arange(n, dtype=np.intp)
    counts = np.diff(edge_start)[order]
    new_start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(counts, out=new_start[1:])
    old_edge = (np.repeat(edge_start[:-1][order] - new_start[:-1], counts)
                + np.arange(new_start[-1], dtype=np.intp))
    return FlatTree(indices[order], height[order], new_pos[edge_child[old_edge]],
                    new_start, tree[order], new_pos[roots], names)


def level_pack(flats):
    """`treelstm.pack` as it once was: each tree's arrays shifted by its
    node, edge and tree offsets one tree at a time, then concatenated and
    sorted by height."""
    node_base = np.cumsum([0] + [f.n for f in flats])
    edge_base = np.cumsum([0] + [f.n_edges for f in flats])
    tree_base = np.cumsum([0] + [f.n_trees for f in flats])
    height = np.concatenate([f.height for f in flats])
    return _sorted_flat(
        np.argsort(height, kind="stable"),
        np.concatenate([f.indices for f in flats]),
        height,
        np.concatenate([f.edge_child + b for f, b in zip(flats, node_base)]),
        np.concatenate([f.edge_start[:-1] + b for f, b in zip(flats, edge_base)]
                       + [edge_base[-1:]]),
        np.concatenate([f.tree + b for f, b in zip(flats, tree_base)]),
        np.concatenate([f.roots + b for f, b in zip(flats, node_base)]),
        sum((f.names for f in flats), ()))


def level_forward(flat, model, masks=None):
    """`treelstm.forward` as it once was, the byte reference of the level
    loop: every node evaluated as a leaf, each level above the leaves then
    recomputed in temporaries and copied into the cache. Finite inputs only
    (no divergence check)."""
    n, hd, p = flat.n, model.hidden_dim, model.params
    X = p["embeddings"].T[flat.indices]
    if masks is not None:
        X = X * masks.w
    AF = (X @ p["forget.W"].T + p["forget.b"])[flat.edge_parent]
    AI = X @ p["input.W"].T + p["input.b"]
    AC = X @ p["cell.W"].T + p["cell.b"]
    AO = X @ p["output.W"].T + p["output.b"]
    UfT, UiT, UcT, UoT = (p[f"{name}.U"].T for name in ("forget", "input", "cell", "output"))
    I = _tanh_sigmoid(AI)
    CB = np.tanh(AC)
    O = _tanh_sigmoid(AO)
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
        f = _tanh_sigmoid(AF[e0:e1] + Hch @ UfT)
        F[e0:e1] = f
        ht = S[lo:hi] = np.add.reduceat(Hch, starts, axis=0)
        if masks is not None:
            ht = ht * masks.agg[lo:hi]
        i_g = _tanh_sigmoid(AI[lo:hi] + ht @ UiT)
        cb = np.tanh(AC[lo:hi] + ht @ UcT)
        c = i_g * cb + np.add.reduceat(f * C[ch], starts, axis=0)
        o = _tanh_sigmoid(AO[lo:hi] + ht @ UoT)
        tc = np.tanh(c)
        I[lo:hi] = i_g
        CB[lo:hi] = cb
        O[lo:hi] = o
        C[lo:hi] = c
        TC[lo:hi] = tc
        H[lo:hi] = o * tc
    return ForwardCache(X, S, I, CB, O, TC, H, C, F, masks)


def level_backward(flat, model, cache, dH, grads):
    """`treelstm.backward` as it once was: each level's gate gradients built
    in temporaries and copied into their arrays."""
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
            dC[ch] += f * dc_e
            dht = da_i @ p["input.U"] + da_c @ p["cell.U"] + da_o @ p["output.U"]
            if masks is not None:
                dht *= masks.agg[lo:hi]
            dH[ch] += np.repeat(dht, counts, axis=0) + da_f @ p["forget.U"]
    X, H = cache.X, cache.H
    HT = cache.S if masks is None else cache.S * masks.agg
    for name, dA in (("input", dAi), ("cell", dAc), ("output", dAo)):
        grads[f"{name}.W"] += dA.T @ X
        grads[f"{name}.U"] += dA.T @ HT
        grads[f"{name}.b"] += dA.sum(axis=0)
    dX = dAi @ p["input.W"] + dAc @ p["cell.W"] + dAo @ p["output.W"]
    grads["forget.W"] += dAf.T @ X[flat.edge_parent]
    grads["forget.U"] += dAf.T @ H[flat.edge_child]
    grads["forget.b"] += dAf.sum(axis=0)
    d, embeddings = dX.shape[1], grads["embeddings"]
    np.add.at(dX.reshape(-1), (flat.edge_parent[:, None] * d + np.arange(d)).ravel(),
              (dAf @ p["forget.W"]).ravel())
    if masks is not None:
        dX *= masks.w
    np.add.at(embeddings.reshape(-1), (np.arange(d) * embeddings.shape[1]
                                       + flat.indices[:, None]).ravel(), dX.ravel())


# --- the mini-language front end as it once was (one Token per token, one
# AstTree per parsed node), kept verbatim as the reference for the parser
# that appends to preorder lists ---

_TYPE_KEYWORDS = ("int", "float", "string", "bool")
_TOKEN_RUN = re.compile(
    r'(?=(?P<blank>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*))(?P=blank)'
    r'(?:(?P<word>\w+)'
    r'|(?P<string>"[^"\n]*")'
    r'|(?P<op><=|>=|==|!=|&&|\|\||/(?!\*)|[-+*<>!=(){};,]))?',
    re.DOTALL)


class Token(NamedTuple):
    kind: str  # "ident", "keyword", "int", "string", "op"; parse_mini adds "end"
    text: str
    line: int
    col: int


def token_lexer(source: str) -> list[Token]:
    """`minilang.tokenize` as it once was: one Token, with its line and
    column, per token."""
    tokens: list[Token] = []
    line, line_start, newline = 1, 0, source.find("\n")  # line_start: offset of the line
    for m in _TOKEN_RUN.finditer(source):
        kind, start = m.lastgroup, m.end("blank")
        while 0 <= newline < start:
            line, line_start, newline = line + 1, newline + 1, source.find("\n", newline + 1)
        col = start - line_start + 1
        if kind == "blank":  # no token after the blanks
            if start == len(source):
                break
            if source.startswith("/*", start):
                raise MiniSyntaxError("unterminated block comment", line, col)
            if source[start] == '"':
                raise MiniSyntaxError("unterminated string literal", line, col)
            raise MiniSyntaxError(f"unexpected character {source[start]!r}", line, col)
        text = m[kind]
        if kind == "word":  # integers (str.isdigit), then an identifier (str.isalpha or "_")
            digits = (len(text) - len(text.lstrip("0123456789")) if text.isascii() else
                      next((i for i, ch in enumerate(text) if not ch.isdigit()), len(text)))
            if digits:
                tokens.append(Token("int", text[:digits], line, col))
                text, col = text[digits:], col + digits
                if not text:
                    continue
            if not (text[0].isalpha() or text[0] == "_"):
                raise MiniSyntaxError(f"unexpected character {text[0]!r}", line, col)
            kind = "keyword" if text in _KEYWORDS else "ident"
        tokens.append(Token(kind, text, line, col))
    return tokens


# Binary operators from loosest to tightest binding.
_BINARY_LEVELS = (("||",), ("&&",), ("==", "!="), ("<", ">", "<=", ">="), ("+", "-"), ("*", "/"))
_LEVEL = {op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}


class _TokenParser:
    """Recursive descent over a token list that ends in two "end" tokens.

    The end token has kind "end", empty text and the position just past the
    last character, so every test on a token reads its kind or text, and
    peek(1) stays in the list even on the first end token.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def fail(self, message: str):
        tok = self.peek()
        found = "end of input" if tok.kind == "end" else repr(tok.text)
        raise MiniSyntaxError(f"{message}, found {found}", tok.line, tok.col)

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    def expect(self, text: str) -> Token:
        if not self.at(text):
            self.fail(f"expected {text!r}")
        return self.take()

    def nested(self, parse, *args) -> AstTree:
        """Run parse(*args) one nesting level deeper. Statements, expressions
        and "!" operands open a level; a failure abandons the whole parse."""
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels")
        node = parse(*args)
        self.nesting -= 1
        return node

    # --- statements ---

    def program(self) -> AstTree:
        stmts = [self.statement()]
        while self.peek().kind != "end":
            stmts.append(self.statement())
        return AstTree("CompilationUnit", tuple(stmts))

    def statement(self) -> AstTree:
        return self.nested(self._statement)

    def _statement(self) -> AstTree:
        tok = self.peek()
        if tok.kind in ("keyword", "end"):
            if tok.text in _TYPE_KEYWORDS:
                return self.declaration()
            if tok.text in ("if", "while"):
                return self.conditional()
            if tok.text == "for":
                return self.for_stmt()
            self.fail("expected statement")
        if tok.text == "{":
            return self.block()
        if tok.kind == "ident" and self._at_assign():
            return self.assignment()
        expr = self.expression()
        self.expect(";")
        return AstTree("ExprStmt", (expr,))

    def _at_assign(self) -> bool:
        return self.peek(1).text == "="

    def declaration(self) -> AstTree:
        type_tok = self.take()
        name = self.peek()
        if name.kind != "ident":
            self.fail("expected identifier after type")
        self.take()
        children = [AstTree(type_tok.text), AstTree(name.text)]
        if self.at("="):
            self.take()
            children.append(self.expression())
        self.expect(";")
        return AstTree("VariableDeclaration", tuple(children))

    def assignment(self, consume_semi: bool = True) -> AstTree:
        name = self.take()
        self.expect("=")
        value = self.expression()
        if consume_semi:
            self.expect(";")
        return AstTree("AssignStmt", (AstTree(name.text), value))

    def conditional(self) -> AstTree:
        """if (cond) stmt [else stmt] and while (cond) stmt."""
        keyword = self.take().text
        self.expect("(")
        cond = self.expression()
        self.expect(")")
        children = [cond, self.statement()]
        if keyword == "if" and self.at("else"):
            self.take()
            children.append(self.statement())
        return AstTree("IfStmt" if keyword == "if" else "WhileStmt", tuple(children))

    def for_stmt(self) -> AstTree:
        self.take()
        self.expect("(")
        children: list[AstTree] = []
        tok = self.peek()
        if tok.kind == "keyword" and tok.text in _TYPE_KEYWORDS:
            children.append(self.declaration())
        elif tok.kind == "ident" and self._at_assign():
            children.append(self.assignment())
        children.append(self.expression())
        self.expect(";")
        if not self.at(")"):
            if self.peek().kind != "ident" or not self._at_assign():
                self.fail("expected assignment or ')' in for header")
            children.append(self.assignment(consume_semi=False))
        self.expect(")")
        children.append(self.statement())
        return AstTree("ForStmt", tuple(children))

    def block(self) -> AstTree:
        self.take()
        stmts = []
        while not self.at("}"):
            if self.peek().kind == "end":
                self.fail("expected '}'")
            stmts.append(self.statement())
        self.take()
        return AstTree("BlockStmt", tuple(stmts))

    # --- expressions ---

    def expression(self) -> AstTree:
        return self.nested(self._binary, 0)

    def _binary(self, min_level: int) -> AstTree:
        """Precedence climbing over the left-associative levels >= min_level."""
        node = self.unary()
        while _LEVEL.get((tok := self.peek()).text, -1) >= min_level:
            self.take()
            node = AstTree(tok.text, (node, self._binary(_LEVEL[tok.text] + 1)))
        return node

    def unary(self) -> AstTree:
        if self.at("!"):
            tok = self.take()
            return AstTree(tok.text, (self.nested(self.unary),))
        return self.primary()

    def primary(self) -> AstTree:
        tok = self.peek()
        if tok.text == "(":
            self.take()
            inner = self.expression()
            self.expect(")")
            return inner
        if tok.kind in ("int", "string"):
            self.take()
            return AstTree(tok.text)
        if tok.kind == "ident":
            self.take()
            if self.at("("):
                self.take()
                args = []
                if not self.at(")"):
                    args.append(self.expression())
                    while self.at(","):
                        self.take()
                        args.append(self.expression())
                self.expect(")")
                return AstTree("MethodCallExpr", (AstTree(tok.text), *args))
            return AstTree(tok.text)
        self.fail("expected expression")
        raise AssertionError("unreachable")


def token_parse_mini(source: str) -> AstTree:
    """`minilang.parse_mini` as it once was: one Token per token, with its
    line and column, and one AstTree per parsed node."""
    tokens = token_lexer(source)
    if not tokens:
        raise MiniSyntaxError("empty input: expected at least one statement", 1, 1)
    end = Token("end", "", source.count("\n") + 1, len(source) - source.rfind("\n"))
    tokens += (end, end)
    return _TokenParser(tokens).program()
