"""Run the Child-Sum Tree-LSTM forward pass over one AST.

Shows the encoding step (labels to vocabulary indices), the per-node hidden
and memory states, two structural properties of the cell (children are
unordered; a zero model is exactly silent), and the scalar worked example
with every weight set to one.
"""

import numpy as np

from treedefect import (AstTree, UNK_TOKEN, Vocabulary, build_vocabulary, flatten,
                        forward, init_model, normalize_labels, pack, parse_mini)

SOURCE = "int n = 3;\nwhile (n < 9) {\n  n = n + 1;\n}\n"


def root_h(tree, model):
    """Root hidden vector: flatten (which encodes the labels), pack, forward."""
    return forward(pack([flatten(tree, model.vocab)]), model).H[-1]


def main():
    tree = normalize_labels(parse_mini(SOURCE))
    vocab = build_vocabulary([tree], size=32, min_count=1)
    model = init_model(vocab, d=8, hidden_dim=4, seed=7)
    # fresh-init weights are +-0.05 and the states print as zeros; draw wider
    # weights so the walkthrough shows the gates actually doing something
    widen = np.random.default_rng(7)
    for arr in model.params.values():
        arr[...] = widen.uniform(-0.8, 0.8, size=arr.shape)

    # flatten encodes the labels to vocabulary indices, in preorder; pack
    # sorts the nodes by height, the order the forward pass takes
    flat = pack([flatten(tree, vocab)])
    cache = forward(flat, model)
    print("== per-node states (rows by height: leaves first, root last) ==")
    for i in range(flat.n):
        token = vocab.tokens[flat.indices[i]]
        h = np.array2string(cache.H[i], precision=3, suppress_small=True)
        print(f"  {token:22s} h = {h}")

    root = cache.H[-1]
    print("\nroot hidden vector:", np.array2string(root, precision=4))

    shuffled = AstTree(tree.label, tuple(reversed(tree.children)))
    print("children reversed, root unchanged:",
          bool(np.allclose(root_h(shuffled, model), root, atol=1e-15)))

    zero = init_model(vocab, d=8, hidden_dim=4, seed=0)
    for arr in zero.params.values():
        arr[...] = 0.0
    print("zero model root is exactly zero:",
          bool(np.all(root_h(tree, zero) == 0.0)))

    # single leaf, d = hidden = 1, weights 1: c = sigmoid(1)*tanh(1)
    anchor = init_model(Vocabulary((UNK_TOKEN, "leaf")), d=1, hidden_dim=1, seed=0)
    for arr in anchor.params.values():
        arr[...] = 0.0
    anchor.params["embeddings"][0, 1] = 1.0
    for name in ("input.W", "cell.W", "output.W"):
        anchor.params[name][0, 0] = 1.0
    state = forward(pack([flatten(AstTree("leaf"), anchor.vocab)]), anchor)
    print(f"unit-weight leaf anchor: c = {state.C[0, 0]:.16f}, h = {state.H[0, 0]:.16f}")


if __name__ == "__main__":
    main()
