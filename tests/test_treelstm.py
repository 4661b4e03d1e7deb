import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from treedefect import (AstTree, DropoutMasks, FileRecord, FlatTree, UNK_TOKEN,
                        Vocabulary, backward, flatten, forward, forward_root,
                        init_head, init_model, load_model, model_from_document,
                        model_to_document, pack, sample_masks, save_model,
                        sigmoid)
from treedefect import treelstm
from treedefect.corpus import MAX_TREE_DEPTH, normalize_labels, preorder
from treedefect.errors import DepthLimitError, DivergenceError, DocumentError
from treedefect.pretrain import PretrainHead, _pack_loss
from treedefect.rng import stream
from treedefect.treelstm import GATE_NAMES, packs

from conftest import (lone, node, random_tree, read_back, root_state, small_vocab,
                      tree_from_parents)


def scaled_model(vocab_size=6, d=3, hidden_dim=3, seed=0, scale=0.8):
    """Model with weights large enough to push gates away from their flat
    region, so comparisons and finite differences have signal."""
    model = init_model(small_vocab(vocab_size), d=d, hidden_dim=hidden_dim, seed=seed)
    rng = np.random.default_rng(seed + 99991)
    for arr in model.params.values():
        arr[...] = rng.uniform(-scale, scale, size=arr.shape)
    return model


def permuted(tree, rng):
    children = tuple(permuted(c, rng) for c in tree.children)
    order = rng.permutation(len(children))
    return AstTree(tree.label, tuple(children[i] for i in order))


def test_sigmoid_anchors_and_stability():
    assert sigmoid(np.array(0.0)) == 0.5
    assert sigmoid(np.array(1.0)) == pytest.approx(0.7310585786300049, abs=1e-15)
    zs = np.linspace(-20, 20, 201)
    assert np.allclose(sigmoid(zs), oracles.sigmoid(zs), atol=1e-14)
    extreme = sigmoid(np.array([-1000.0, 1000.0]))
    assert np.all(np.isfinite(extreme))
    assert extreme[0] == 0.0 and extreme[1] == 1.0


def test_single_leaf_scalar_anchors():
    # d = hidden_dim = 1, w = 1, W_in = W_ce = W_out = 1, U and b zero:
    # c = sigmoid(1) * tanh(1), h = sigmoid(1) * tanh(c)
    model = init_model(Vocabulary((UNK_TOKEN, "w")), d=1, hidden_dim=1, seed=0)
    for arr in model.params.values():
        arr[...] = 0.0
    model.params["embeddings"][0, 1] = 1.0
    model.params["input.W"][0, 0] = 1.0
    model.params["cell.W"][0, 0] = 1.0
    model.params["output.W"][0, 0] = 1.0
    model.params["forget.W"][0, 0] = 123.0  # no children, so the forget gate never fires
    state = root_state(AstTree("w"), model)
    assert state.c[0] == pytest.approx(0.5567699411459397, abs=1e-12)
    assert state.h[0] == pytest.approx(0.3696063529357058, abs=1e-12)


def test_forward_matches_recursive_oracle():
    rng = np.random.default_rng(101)
    model = scaled_model(vocab_size=7, d=4, hidden_dim=3, seed=1)
    for _ in range(30):
        tree = random_tree(rng, vocab_size=7, max_nodes=15)
        state = root_state(tree, model)
        h_ref, c_ref = oracles.node_state(tree, model)
        np.testing.assert_allclose(state.h, h_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(state.c, c_ref, rtol=0, atol=1e-12)


def test_path_tree_equals_sequential_lstm():
    model = scaled_model(vocab_size=6, d=3, hidden_dim=3, seed=2)
    indices = [4, 1, 5, 2, 3]
    tree = node(indices[0])
    for idx in indices[1:]:
        tree = node(idx, (tree,))
    # the chain oracle consumes leaf-to-root order; the tree is rooted at the end
    state = root_state(tree, model)
    h_ref, c_ref = oracles.sequential_lstm_chain(indices, model)
    np.testing.assert_allclose(state.h, h_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(state.c, c_ref, rtol=0, atol=1e-12)


def test_leaf_uses_empty_aggregate():
    model = scaled_model(vocab_size=6, d=3, hidden_dim=2, seed=3)
    w = model.params["embeddings"][:, 2]
    i = oracles.sigmoid(model.params["input.W"] @ w + model.params["input.b"])
    cb = np.tanh(model.params["cell.W"] @ w + model.params["cell.b"])
    o = oracles.sigmoid(model.params["output.W"] @ w + model.params["output.b"])
    c = i * cb
    state = root_state(node(2), model)
    np.testing.assert_allclose(state.c, c, rtol=0, atol=1e-14)
    np.testing.assert_allclose(state.h, o * np.tanh(c), rtol=0, atol=1e-14)


def test_zero_model_hidden_state_is_exactly_zero():
    model = init_model(small_vocab(6), d=3, hidden_dim=3, seed=0)
    for arr in model.params.values():
        arr[...] = 0.0
    rng = np.random.default_rng(5)
    for _ in range(10):
        tree = random_tree(rng, vocab_size=6, max_nodes=12)
        state = root_state(tree, model)
        assert np.all(state.h == 0.0)
        assert np.all(state.c == 0.0)


def test_child_permutation_invariance():
    rng = np.random.default_rng(11)
    model = scaled_model(vocab_size=6, d=3, hidden_dim=3, seed=4)
    for _ in range(25):
        tree = random_tree(rng, vocab_size=6, max_nodes=14)
        shuffled = permuted(tree, rng)
        a = root_state(tree, model)
        b = root_state(shuffled, model)
        np.testing.assert_allclose(a.h, b.h, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.c, b.c, rtol=0, atol=1e-12)


def test_flatten_layout():
    tree = node(0, (node(1), node(2, (node(3), node(4)))))
    flat = lone(tree, small_vocab(5))
    assert flat.indices.tolist() == [1, 3, 4, 2, 0]  # by height, root last
    assert [flat.edge_child[flat.edge_start[i]:flat.edge_start[i + 1]].tolist()
            for i in range(flat.n)] == [[], [], [], [1, 2], [0, 3]]
    assert flat.edge_start.tolist() == [0, 0, 0, 0, 2, 4]
    assert flat.edge_child.tolist() == [1, 2, 0, 3]
    assert flat.edge_parent.tolist() == [3, 3, 4, 4]
    assert flat.n == 5 and flat.n_edges == 4
    assert flat.depth == 3
    assert flatten(tree, small_vocab(5)).n_internal == 2


def test_depth_limit():
    # the limit guards where trees enter (corpus.normalize_labels and the
    # document reader); the passes themselves iterate, so a deeper tree still
    # flattens and runs, whether built by hand, read back from a document or
    # holding a read-back tree as a subtree
    tree = node(1)
    for _ in range(MAX_TREE_DEPTH):
        tree = node(2, (tree,))
    twin = read_back(tree.children[0])
    for deepest in (tree.children[0], twin):
        assert preorder(normalize_labels(deepest)) == preorder(tree.children[0])
        assert flatten(deepest, small_vocab()).depth == MAX_TREE_DEPTH
    with pytest.raises(DepthLimitError, match=f"files\\[0\\].nodes\\[0\\]: tree is deeper "
                                              f"than the limit of {MAX_TREE_DEPTH} nodes$"):
        read_back(tree)
    for deeper in (tree, node(2, (twin,))):
        with pytest.raises(DepthLimitError, match=str(MAX_TREE_DEPTH)):
            normalize_labels(deeper)
        assert preorder(deeper) == preorder(tree)
        assert flatten(deeper, small_vocab()).depth == MAX_TREE_DEPTH + 1
        record = FileRecord("deep.mini", "p", "1", 0, deeper)
        assert np.all(np.isfinite(forward_root([record], scaled_model())[0]))


def assert_same_bytes(flat, reference):
    for field in ("indices", "height", "edge_child", "edge_start", "tree", "roots"):
        got, want = getattr(flat, field), getattr(reference, field)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), field
        assert got.tobytes() == want.tobytes(), field
    assert flat.names == reference.names


_SHAPES = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 3) | st.integers(0, 40)),
                   max_size=80)
_CHAIN = [(2, 0)] * (MAX_TREE_DEPTH + 20)
_COMB = [(3, 0), (4, 1)] * (MAX_TREE_DEPTH // 2 + 10)  # a chain with a leaf per level
_FULL = [(5, i - 1 - (i - 1) // 3) for i in range(1, 121)]  # complete ternary tree


@settings(max_examples=150, deadline=None)
@given(_SHAPES)
@example([])
@example(_CHAIN)
@example(_COMB)
@example(_FULL)
def test_flatten_equals_post_order_oracle_byte_for_byte(shape):
    tree = tree_from_parents(shape)
    fresh = tree_from_parents(shape)
    # tokens 6 and 7 are out of small_vocab(6), and 3 to 7 out of small_vocab(3):
    # each flatten after the first reads the tree's cached structure
    for vocab in (small_vocab(6), small_vocab(3), small_vocab(6)):
        record = flatten(tree, vocab, "f.mini")
        assert_same_bytes(pack([record]),
                          FlatTree(**oracles.post_order_flat(tree, vocab, "f.mini")))
        for field in ("height", "arity", "edge_child"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(record, field)[:1] = 0
    assert tree == fresh and hash(tree) == hash(fresh) and repr(tree) == repr(fresh)


@settings(max_examples=60, deadline=None)
@given(st.lists(_SHAPES, min_size=1, max_size=4))
@example([[], _COMB, _FULL])
def test_pack_of_flattened_trees_equals_pack_of_oracles(shapes):
    trees = [tree_from_parents(shape) for shape in shapes]
    vocab = small_vocab(6)
    assert_same_bytes(
        pack([flatten(t, vocab, f"f{i}") for i, t in enumerate(trees)]),
        oracles.level_pack([FlatTree(**oracles.post_order_flat(t, vocab, f"f{i}"))
                            for i, t in enumerate(trees)]))


def test_forward_root_matches_encode_then_t_lstm():
    model = scaled_model(vocab_size=6, d=3, hidden_dim=3, seed=6)
    ast = AstTree("tok1", (AstTree("tok2"), AstTree("never-seen")))
    record = FileRecord("a.mini", "p", "1", 1, ast)
    vec = forward_root([record], model)[0]
    state = root_state(ast, model)
    np.testing.assert_array_equal(vec, state.h)


def test_non_finite_forward_raises():
    model = scaled_model()
    model.params["embeddings"][0, 1] = np.nan
    with pytest.raises(ArithmeticError):
        root_state(node(1), model)


def test_sample_masks_values_and_validation():
    flat = lone(node(0, (node(1), node(2))), small_vocab(3))
    rng = np.random.default_rng(0)
    masks = sample_masks(flat, 0.5, d=4, hidden_dim=3, rng=rng)
    assert masks.w.shape == (3, 4) and masks.agg.shape == (3, 3)
    assert set(np.unique(masks.w)) <= {0.0, 2.0}
    assert set(np.unique(masks.agg)) <= {0.0, 2.0}
    keep_all = sample_masks(flat, 0.0, d=4, hidden_dim=3, rng=rng)
    assert np.all(keep_all.w == 1.0) and np.all(keep_all.agg == 1.0)
    with pytest.raises(ValueError):
        sample_masks(flat, 1.0, d=4, hidden_dim=3, rng=rng)
    with pytest.raises(ValueError):
        sample_masks(flat, -0.1, d=4, hidden_dim=3, rng=rng)


def test_identity_masks_do_not_change_forward():
    model = scaled_model(vocab_size=6, d=3, hidden_dim=3, seed=7)
    tree = random_tree(np.random.default_rng(8), vocab_size=6, max_nodes=10)
    flat = lone(tree, model.vocab)
    ones = DropoutMasks(np.ones((flat.n, model.d)), np.ones((flat.n, model.hidden_dim)))
    plain = forward(flat, model)
    masked = forward(flat, model, ones)
    np.testing.assert_array_equal(plain.H, masked.H)
    np.testing.assert_array_equal(plain.C, masked.C)


def _finite_difference_worst(tree, model, masks=None, eps=1e-5):
    """Worst per-element relative error between backward() and central
    differences of loss(theta) = sum of all hidden states. `tree` may also
    be a FlatTree, such as a pack."""
    flat = tree if isinstance(tree, FlatTree) else lone(tree, model.vocab)
    params = model.params

    def loss():
        return float(forward(flat, model, masks).H.sum())

    cache = forward(flat, model, masks)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    backward(flat, model, cache, np.ones_like(cache.H), grads)
    worst = 0.0
    for key, arr in params.items():
        view = arr.ravel()
        grad = grads[key].ravel()
        for j in range(view.size):
            orig = view[j]
            view[j] = orig + eps
            up = loss()
            view[j] = orig - eps
            down = loss()
            view[j] = orig
            fd = (up - down) / (2.0 * eps)
            err = abs(fd - grad[j]) / max(abs(fd), abs(grad[j]), 1e-8)
            worst = max(worst, err)
    return worst


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(21)
    model = scaled_model(vocab_size=5, d=2, hidden_dim=2, seed=9)
    tree = random_tree(rng, vocab_size=5, max_nodes=8, min_nodes=4)
    assert _finite_difference_worst(tree, model) < 1e-4


def test_backward_matches_finite_differences_single_leaf():
    model = scaled_model(vocab_size=5, d=2, hidden_dim=2, seed=10)
    assert _finite_difference_worst(node(3), model) < 1e-4


def test_backward_with_dropout_masks_matches_finite_differences():
    rng = np.random.default_rng(22)
    model = scaled_model(vocab_size=5, d=2, hidden_dim=2, seed=11)
    tree = random_tree(rng, vocab_size=5, max_nodes=8, min_nodes=4)
    flat = lone(tree, model.vocab)
    masks = sample_masks(flat, 0.5, model.d, model.hidden_dim, np.random.default_rng(7))
    assert _finite_difference_worst(tree, model, masks) < 1e-4


def test_backward_refuses_an_embedding_gradient_it_would_copy():
    # the embedding scatter runs on a 1-D view; a copy would drop the update
    model = scaled_model(vocab_size=5, d=2, hidden_dim=2, seed=9)
    flat = lone(random_tree(np.random.default_rng(21), 5, 8, 4), model.vocab)
    cache = forward(flat, model)
    grads = {k: np.zeros_like(v) for k, v in model.params.items()}
    grads["embeddings"] = np.asfortranarray(grads["embeddings"])
    with pytest.raises(ValueError, match="C-contiguous"):
        backward(flat, model, cache, np.ones_like(cache.H), grads)


def test_init_model_deterministic():
    vocab = small_vocab(8)
    a = init_model(vocab, d=4, hidden_dim=3, seed=5)
    b = init_model(vocab, d=4, hidden_dim=3, seed=5)
    c = init_model(vocab, d=4, hidden_dim=3, seed=6)
    for key, arr in a.params.items():
        np.testing.assert_array_equal(arr, b.params[key])
    assert not np.array_equal(a.params["embeddings"], c.params["embeddings"])
    for gate in GATE_NAMES:
        assert np.all(a.params[f"{gate}.b"] == 0.0)
        assert a.params[f"{gate}.W"].shape == (3, 4)
        assert a.params[f"{gate}.U"].shape == (3, 3)
    # embeddings come first from the shared init stream
    expected = stream(5, "init").uniform(-0.05, 0.05, size=(4, 8))
    np.testing.assert_array_equal(a.params["embeddings"], expected)


def test_init_shape_and_range():
    model = init_model(small_vocab(20), 4, None, seed=7)
    emb = model.params["embeddings"]
    assert emb.shape == (4, 20)
    assert model.d == 4 and model.hidden_dim == 4
    assert np.all(np.abs(emb) <= 0.05)
    assert not np.allclose(emb, 0.0)


def test_init_warns_when_dim_not_smaller_than_vocab():
    with pytest.warns(UserWarning, match="not smaller"):
        init_model(small_vocab(6), 6, None, seed=0)
    with pytest.warns(UserWarning):
        init_model(small_vocab(6), 7, None, seed=0)


def test_init_rejects_bad_sizes():
    with pytest.raises(ValueError, match="embedding dimension"):
        init_model(small_vocab(5), 0, None, seed=0)
    with pytest.raises(ValueError, match="hidden_dim"):
        init_model(small_vocab(5), 3, hidden_dim=0, seed=0)


@pytest.mark.filterwarnings("ignore:embedding dimension")
def test_init_reports_a_size_numpy_cannot_index_as_out_of_memory():
    # 2**70 entries exceed numpy's index range, so nothing is allocated
    with pytest.raises(MemoryError, match=f"embedding dimension {2**70} and hidden "
                                          f"dimension {2**70}"):
        init_model(small_vocab(5), 2**70, None, seed=0)


def test_model_file_roundtrip(tmp_path):
    model = scaled_model(vocab_size=6, d=3, hidden_dim=2, seed=12)
    head_u = np.random.default_rng(3).uniform(-0.05, 0.05, size=(6, 2))
    path = tmp_path / "model.json"
    save_model(path, model, head_u)
    first = path.read_bytes()
    loaded, loaded_head = load_model(path)
    np.testing.assert_array_equal(loaded_head, head_u)
    assert loaded.vocab.tokens == model.vocab.tokens
    assert loaded.hidden_dim == model.hidden_dim
    for key, arr in model.params.items():
        np.testing.assert_array_equal(loaded.params[key], arr)
    save_model(path, loaded, loaded_head)
    assert path.read_bytes() == first


def test_model_document_validation():
    model = scaled_model(vocab_size=4, d=2, hidden_dim=2, seed=13)
    head_u = np.zeros((4, 2))

    def doc():
        return model_to_document(model, head_u)

    bad = doc()
    bad["format_version"] = 0
    with pytest.raises(DocumentError, match="format_version"):
        model_from_document(bad)
    bad = doc()
    bad["forget"]["W"] = [[1.0]]
    with pytest.raises(DocumentError, match="shape"):
        model_from_document(bad)
    bad = doc()
    del bad["cell"]
    with pytest.raises(DocumentError, match="cell"):
        model_from_document(bad)
    bad = doc()
    bad["embeddings"][0][0] = float("nan")
    with pytest.raises(DocumentError, match="non-finite"):
        model_from_document(bad)
    bad = doc()
    bad["vocab"] = ["a", UNK_TOKEN, "b", "c"]
    with pytest.raises(DocumentError):
        model_from_document(bad)
    bad = doc()
    bad["head"] = {}
    with pytest.raises(DocumentError, match="head"):
        model_from_document(bad)
    bad = doc()
    bad["d"] = bad["hidden_dim"] = True
    with pytest.raises(DocumentError, match="positive integers"):
        model_from_document(bad)
    # booleans and numeric strings are not numbers, and versions are JSON integers
    for path, value, message in ((("embeddings", 0, 0), True, r"^model: field 'embeddings'"),
                                 (("forget", "b", 0), "1e-3", r"^model\.forget: field 'b'"),
                                 (("head", "U", 3, 1), False, r"^model\.head: field 'U'"),
                                 (("output", "U", 1, 0), 10**400, r"^model\.output: bad"),
                                 (("format_version",), True, "must be 1, got True$"),
                                 (("format_version",), 1.0, "must be 1, got 1.0$")):
        bad = doc()
        *parents, key = path
        target = bad
        for step in parents:
            target = target[step]
        target[key] = value
        with pytest.raises(DocumentError, match=message):
            model_from_document(bad)
    for where, group in (("model", None), (r"model\.cell", "cell"), (r"model\.head", "head")):
        bad = doc()
        (bad[group] if group else bad)["extra"] = 1
        with pytest.raises(DocumentError, match=rf"^{where}: unknown field 'extra'$"):
            model_from_document(bad)
    for bad_group in ([], None):
        bad = doc()
        bad["input"] = bad_group
        with pytest.raises(DocumentError, match=r"^model\.input: group must be an object$"):
            model_from_document(bad)


@pytest.mark.filterwarnings("ignore:embedding dimension")
@settings(max_examples=40, deadline=None)
@given(vocab_size=st.integers(1, 12), d=st.integers(1, 6), hidden_dim=st.integers(1, 6),
       seed=st.integers(0, 2**63 - 1))
def test_model_documents_survive_save_load_save(tmp_path_factory, vocab_size, d,
                                                hidden_dim, seed):
    model = init_model(small_vocab(vocab_size), d, hidden_dim, seed)
    head = init_head(vocab_size, hidden_dim, seed)
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(path, model, head.U)
    first = path.read_bytes()
    loaded, head_u = load_model(path)
    assert loaded.vocab.tokens == model.vocab.tokens
    assert list(loaded.params) == list(model.params)
    for key, arr in model.params.items():
        np.testing.assert_array_equal(loaded.params[key], arr)
    np.testing.assert_array_equal(head_u, head.U)
    save_model(path, loaded, head_u)
    assert path.read_bytes() == first


def mixed_forest(rng, vocab_size):
    """A single node, a chain, a wide tree, and a tree 15 levels deep with
    side branches at every level, shaped like the benchmark's deep sources."""
    chain = node(1)
    for idx in (2, 3, 4, 0, 5, 1, 2, 3):
        chain = node(idx % vocab_size, (chain,))
    wide = node(2, tuple(node(i % vocab_size) for i in range(12)))
    deep = node(int(rng.integers(vocab_size)))
    for _ in range(14):
        side = [random_tree(rng, vocab_size, max_nodes=8, min_nodes=2)
                for _ in range(int(rng.integers(2, 6)))]
        kids = [deep, *side]
        deep = node(int(rng.integers(vocab_size)),
                           tuple(kids[i] for i in rng.permutation(len(kids))))
    return [node(3), chain, wide, deep]


def test_pack_matches_recursive_oracles_per_tree():
    rng = np.random.default_rng(61)
    model = scaled_model(vocab_size=7, d=4, hidden_dim=3, seed=19, scale=0.5)
    head = PretrainHead(np.random.default_rng(62).uniform(-0.8, 0.8, size=(7, 3)))
    trees = mixed_forest(rng, 7) + [random_tree(rng, 7, max_nodes=15)
                                    for _ in range(4)]
    flat = pack([flatten(t, model.vocab) for t in trees])
    assert flat.n_trees == len(trees) and flat.depth == max(
        flatten(t, model.vocab).depth for t in trees)
    cache = forward(flat, model)
    nll = _pack_loss(flat, model, head, None, None, 1.0)
    for t, tree in enumerate(trees):
        h_ref, c_ref = oracles.node_state(tree, model)
        np.testing.assert_allclose(cache.H[flat.roots[t]], h_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cache.C[flat.roots[t]], c_ref, rtol=0, atol=1e-12)
        assert nll[t] == pytest.approx(oracles.tree_nll(tree, model, head.U)[0],
                                       abs=1e-12)


def test_pack_tree_permutation_permutes_roots_only():
    rng = np.random.default_rng(63)
    model = scaled_model(vocab_size=6, d=3, hidden_dim=3, seed=20)
    head = PretrainHead(np.random.default_rng(64).uniform(-0.8, 0.8, size=(6, 3)))
    flats = [flatten(t, model.vocab) for t in mixed_forest(rng, 6)]
    flats += [flatten(random_tree(rng, 6, max_nodes=12), model.vocab) for _ in range(5)]
    perm = rng.permutation(len(flats))
    a = pack(flats)
    b = pack([flats[i] for i in perm])
    ha, hb = forward(a, model).H, forward(b, model).H
    np.testing.assert_allclose(hb[b.roots], ha[a.roots[perm]], rtol=0, atol=1e-12)
    np.testing.assert_allclose(_pack_loss(b, model, head, None, None, 1.0),
                               _pack_loss(a, model, head, None, None, 1.0)[perm],
                               rtol=0, atol=1e-12)


def test_masked_pack_backward_matches_finite_differences():
    rng = np.random.default_rng(65)
    model = scaled_model(vocab_size=5, d=2, hidden_dim=2, seed=21)
    trees = [node(3), random_tree(rng, 5, max_nodes=8, min_nodes=4),
             node(1, (node(2, (node(4),)),)),
             node(0, tuple(node(i) for i in range(4)))]
    flats = [flatten(t, model.vocab) for t in trees]
    flat = pack(flats)
    masks = sample_masks(flat, 0.5, model.d, model.hidden_dim, np.random.default_rng(8))
    assert _finite_difference_worst(flat, model, masks) < 1e-4


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 24), min_size=1, max_size=10), st.integers(1, 48),
       st.integers(1, 5), st.integers(1, 5), st.sampled_from([0.0, 0.2, 0.5, 0.9]),
       st.integers(0, 2**32 - 1))
@example([1] * 9, 2, 3, 2, 0.5, 0)   # single-node trees, cut into five packs
@example([24] * 8, 30, 4, 3, 0.5, 1)  # trees of up to 13 levels, cut into three packs
def test_per_pack_masks_equal_the_per_tree_draws(sizes, pack_nodes, d, hidden_dim, rate,
                                                 seed):
    rng = np.random.default_rng(seed)
    trees = [random_tree(rng, 5, max_nodes=m, min_nodes=m) for m in sizes]
    flats = [flatten(tree, small_vocab(5)) for tree in trees]
    alone = [FlatTree(**oracles.post_order_flat(tree, small_vocab(5))) for tree in trees]
    with mock.patch.object(treelstm, "PACK_NODES", pack_nodes):
        cut = list(packs(flats))
    assert sum(flat.n_trees for flat in cut) == len(flats)
    new_rng, old_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    start = 0
    for flat in cut:
        masks = sample_masks(flat, rate, d, hidden_dim, new_rng)
        w, agg = oracles.per_tree_packed_masks(alone[start:start + flat.n_trees], rate, d,
                                               hidden_dim, old_rng)
        start += flat.n_trees
        assert masks.w.shape == w.shape and masks.w.tobytes() == w.tobytes()
        assert masks.agg.shape == agg.shape and masks.agg.tobytes() == agg.tobytes()
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


def test_non_finite_forward_names_the_first_bad_tree():
    model = scaled_model()
    model.params["embeddings"][0, 4] = np.nan
    # bad.mini turns non-finite only at its root, above the lone node of
    # worse.mini; the message names the first tree, not the first row
    flats = [flatten(node(1, (node(2),)), model.vocab, name="fine.mini"),
             flatten(node(4, (node(2),)), model.vocab, name="bad.mini"),
             flatten(node(4), model.vocab, name="worse.mini")]
    flat = pack(flats)
    with pytest.raises(ArithmeticError, match="bad.mini"):
        forward(flat, model)


_CACHE_FIELDS = ("X", "S", "I", "CB", "O", "TC", "H", "C", "F")
_WIDE = [(1, 0)] + [(2 + j % 5, j) for j in range(13)]  # a node with 13 leaf children


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.lists(_SHAPES, min_size=1, max_size=5), st.integers(1, 5), st.integers(1, 5),
       st.sampled_from([None, 0.0, 0.5]), st.integers(1, 64) | st.just(treelstm.PACK_NODES),
       st.integers(0, 2**32 - 1))
@example([[], [], []], 3, 3, None, 1024, 0)          # an all-leaf pack
@example([[], [], []], 2, 4, 0.5, 2, 1)              # single-node trees, masked, cut
@example([[(2, 0)] * 299], 4, 2, None, 1024, 2)      # a 300-deep chain
@example([[(2, 0)] * 299, []], 2, 3, 0.5, 1024, 3)
@example([_WIDE, [(3, 40)] * 13], 3, 5, None, 1024, 4)  # 13 children per node
@example([_WIDE, [(3, 40)] * 9, [(4, 40)] * 8], 5, 2, 0.5, 16, 5)
def test_level_loop_keeps_the_bytes_of_its_reference(shapes, d, hidden_dim, rate, pack_nodes,
                                                     seed):
    rng = np.random.default_rng(seed)
    model = scaled_model(vocab_size=8, d=d, hidden_dim=hidden_dim, seed=seed % 997)
    trees = [tree_from_parents(shape) for shape in shapes]
    flats = [flatten(tree, model.vocab, f"f{i}.mini") for i, tree in enumerate(trees)]
    alone = [FlatTree(**oracles.post_order_flat(tree, model.vocab, f"f{i}.mini"))
             for i, tree in enumerate(trees)]
    with mock.patch.object(treelstm, "PACK_NODES", pack_nodes):
        cut = list(packs(flats))
    start = 0
    for flat in cut:
        assert_same_bytes(flat, oracles.level_pack(alone[start:start + flat.n_trees]))
        assert sum(f.n_internal for f in flats[start:start + flat.n_trees]) == np.count_nonzero(
            flat.height)
        start += flat.n_trees
        masks = None if rate is None else sample_masks(flat, rate, d, hidden_dim, rng)
        got, want = forward(flat, model, masks), oracles.level_forward(flat, model, masks)
        for field in _CACHE_FIELDS:
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        dH = rng.normal(size=(flat.n, hidden_dim))
        dH_want = dH.copy()
        grads = {key: np.zeros_like(arr) for key, arr in model.params.items()}
        grads_want = {key: np.zeros_like(arr) for key, arr in model.params.items()}
        backward(flat, model, got, dH, grads)
        oracles.level_backward(flat, model, want, dH_want, grads_want)
        assert np.array_equal(dH, dH_want)
        for key in grads:
            assert np.array_equal(grads[key], grads_want[key]), key
    assert start == len(flats)


def test_pack_of_1024_single_node_trees_keeps_each_tree_in_order():
    names = tuple(f"f{i:04d}.mini" for i in range(1024))
    flats = [flatten(node(i % 6), small_vocab(6), name) for i, name in enumerate(names)]
    (flat,) = packs(flats)
    assert flat.names == names
    assert np.array_equal(flat.tree, np.arange(1024))
    assert np.array_equal(flat.roots, np.arange(1024))
    assert np.array_equal(flat.indices, np.arange(1024) % 6)


def _corpus(pool, files):
    """Records whose trees share subtrees: file i is a root labeled
    files[i][0] over the pool subtrees files[i][1] picks, repeats allowed.
    Labels 6 and 7 fall outside small_vocab(6), so they encode to <unk>
    like label 0."""
    subtrees = [tree_from_parents(shape) for shape in pool]
    trees = [node(label, [subtrees[i % len(subtrees)] for i in picks]) for label, picks in files]
    return [FileRecord(f"f{i}.mini", "p", "1", 0, tree) for i, tree in enumerate(trees)]


_POOL = st.lists(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 3)), max_size=12),
                 min_size=1, max_size=4)
_FILES = st.lists(st.tuples(st.integers(0, 7), st.lists(st.integers(0, 3), max_size=4)),
                  min_size=1, max_size=10)
_SHARED = ([[(6, 0), (0, 0)], [(2, 1), (3, 1), (7, 2)]], [(7, [0, 1, 0]), (0, [1, 1]), (7, [0, 1, 0])])


@pytest.mark.filterwarnings("ignore:embedding dimension")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(_POOL, _FILES, st.integers(1, 100), st.integers(1, 100),
       st.integers(1, 64) | st.just(treelstm.PACK_NODES), st.integers(0, 2**32 - 1))
@example(*_SHARED, 64, 64, treelstm.PACK_NODES, 0)
@example(*_SHARED, 17, 33, 1, 1)   # widths at which a plain row-count-dependent product differs
@example(*_SHARED, 1, 2, 3, 2)
@example(*_SHARED, 100, 100, 2, 4)
@example([[]], [(1, [])] * 5, 16, 16, 2, 3)  # identical single-node files, cut into packs
def test_forward_root_rows_depend_only_on_the_file_and_the_model(pool, files, d, hidden_dim,
                                                                 pack_nodes, seed):
    model = scaled_model(vocab_size=6, d=d, hidden_dim=hidden_dim, seed=seed % 997, scale=0.3)
    records = _corpus(pool, files)
    # equal trees whose roots were never flattened, hand-built or read back
    # from a document, beside roots whose structure is cached by then
    fresh = [FileRecord(r.file_id, "p", "1", 0, read_back(r.tree) if i % 3 == 1 else r.tree)
             for i, r in enumerate(_corpus(pool, files))]
    with mock.patch.object(treelstm, "PACK_NODES", pack_nodes):
        corpus = forward_root(records, model)
        assert all(r.tree._structure is None for r in fresh)
        mixed = [fresh[i] if i % 3 else records[i] for i in range(len(records))]
        others = (forward_root(mixed, model),
                  forward_root(records[::-1], model)[::-1],
                  np.concatenate([forward_root([record], model) for record in records]),
                  oracles.pack_forward_root(records, model))
    for rows in others:
        assert rows.shape == corpus.shape == (len(records), hidden_dim)
        for row, want in zip(corpus, rows):
            assert row.tobytes() == want.tobytes()


def test_forward_root_runs_each_distinct_subtree_once_per_pack():
    model = scaled_model()
    records = _corpus(*_SHARED)
    nodes = []
    real = treelstm.forward

    def counted(flat, model):
        nodes.append(flat.n)
        return real(flat, model)

    with mock.patch.object(treelstm, "forward", counted):
        forward_root(records, model)
    # 31 nodes, 8 subtrees: the leaves <unk>, tok2 and tok3; <unk> over <unk>
    # and the second pool root; the first pool root and f1's root; f0's root,
    # which f2 repeats
    assert sum(flatten(r.tree, model.vocab).n for r in records) == 31
    assert nodes == [8]


@pytest.mark.parametrize("pack_nodes", [1, 4, 6, treelstm.PACK_NODES])
@pytest.mark.parametrize("start", [0, 3])
def test_a_poisoned_subtree_in_several_packs_names_the_oracles_file(pack_nodes, start):
    model = scaled_model()
    model.params["embeddings"][:, 5] = np.nan
    poisoned = node(2, (node(5), node(3)))
    trees = [node(1, (node(2), node(3))), node(4, (node(1),)), node(3, (node(2), poisoned)),
             node(1, (node(4), node(2), node(3))), node(2, (node(1), poisoned)), poisoned]
    records = [FileRecord(f"f{i}.mini", "p", "1", 0, t) for i, t in enumerate(trees)][start:]
    with mock.patch.object(treelstm, "PACK_NODES", pack_nodes):
        with pytest.raises(DivergenceError) as want:
            oracles.pack_forward_root(records, model)
        with pytest.raises(DivergenceError) as got:
            forward_root(records, model)
    assert str(got.value) == str(want.value) == (
        "non-finite hidden state in the tree forward pass of " + ("f2.mini", "f4.mini")[start > 0])


def test_forward_root_numbers_a_wide_node_in_memory_linear_in_the_nodes():
    # one root of 3,000 leaf children beside 3,000 one-child roots of the
    # same height: a key column per node as long as the widest node's
    # children would hold 9 million entries (72 MB)
    records = [FileRecord("wide.mini", "p", "1", 0, node(1, [node(i % 5) for i in range(3000)]))]
    records += [FileRecord(f"f{i}.mini", "p", "1", 0, node(2, (node(i % 6),))) for i in range(3000)]
    model = scaled_model()
    tracemalloc.start()
    try:
        rows = forward_root(records, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000
    assert rows.tobytes() == oracles.pack_forward_root(records, model).tobytes()
