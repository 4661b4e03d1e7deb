"""Independent reference implementations used to check the library.

Everything here is written straight from the defining formulas, favoring
clarity over speed, and shares no code with the package: recursive node
evaluation instead of flattened arrays, explicit pair counting instead of
rank statistics, exhaustive enumeration instead of closed forms.
"""

from __future__ import annotations

import numpy as np


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
