import math
import sys
from dataclasses import replace

import numpy as np
import pytest

import oracles
from treedefect import (CorpusError, DivergenceError, FileRecord, PretrainHead,
                        TrainConfig, UNK_TOKEN, Vocabulary, build_vocabulary, corpus_loss,
                        flatten, generate_records, init_model, loss_and_gradients,
                        perplexity, preorder, pretrain, rmsprop_step,
                        split_records, write_training_log)
from treedefect.treelstm import PACK_NODES, packs
from treedefect.rng import stream

from conftest import node, poison_embedding, random_tree, small_vocab
from test_treelstm import scaled_model


def flats_of(trees, model):
    return [flatten(t, model.vocab) for t in trees]


def scaled_head(vocab_size, hidden_dim, seed, scale=0.8):
    rng = np.random.default_rng(seed + 4242)
    return PretrainHead(rng.uniform(-scale, scale, size=(vocab_size, hidden_dim)))


# The head's parent distribution lives in the oracle that corpus_loss and the
# pack loss are checked against; these anchor that oracle.
def test_parent_distribution_anchors():
    # z = [0, ln 3] on a unit child state: p = [1/4, 3/4] exactly
    head = PretrainHead(np.array([[0.0], [math.log(3.0)]]))
    child = np.array([1.0])
    p = oracles.parent_distribution([child], head.U)
    np.testing.assert_allclose(p, [0.25, 0.75], rtol=0, atol=1e-12)
    assert -math.log(p[0]) == pytest.approx(2 * math.log(2), abs=1e-12)
    # z = [1, 0]: p = [e/(e+1), 1/(e+1)]
    head = PretrainHead(np.array([[1.0], [0.0]]))
    p = oracles.parent_distribution([child], head.U)
    np.testing.assert_allclose(p, [0.7310585786300049, 0.2689414213699951],
                               rtol=0, atol=1e-12)


def test_parent_distribution_averages_children():
    head = PretrainHead(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]))
    a = np.array([2.0, 0.0])
    b = np.array([0.0, 4.0])
    averaged = oracles.parent_distribution([a, b], head.U)
    merged = np.array([1.0, 2.0])
    np.testing.assert_allclose(averaged, oracles.parent_distribution([merged], head.U),
                               rtol=0, atol=1e-15)
    assert averaged.shape == (3,)
    assert averaged.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        oracles.parent_distribution([], head.U)


def test_parent_distribution_large_logits_stable():
    head = PretrainHead(np.array([[800.0], [-800.0]]))
    p = oracles.parent_distribution([np.array([1.0])], head.U)
    assert np.all(np.isfinite(p))
    np.testing.assert_allclose(p, [1.0, 0.0], rtol=0, atol=1e-12)


def test_zero_model_loss_is_log_vocab():
    vocab = small_vocab(6)
    model = init_model(vocab, d=3, hidden_dim=3, seed=0)
    for arr in model.params.values():
        arr[...] = 0.0
    head = PretrainHead(np.zeros((6, 3)))
    rng = np.random.default_rng(31)
    trees = [random_tree(rng, vocab_size=6, max_nodes=12, min_nodes=2)
             for _ in range(8)]
    loss = corpus_loss(flats_of(trees, model), model, head)
    assert loss == pytest.approx(math.log(6), abs=1e-12)
    assert perplexity(model, head, flats_of(trees, model)) == pytest.approx(6.0, abs=1e-12)


def test_corpus_loss_matches_recursive_oracle():
    rng = np.random.default_rng(37)
    model = scaled_model(vocab_size=6, d=3, hidden_dim=3, seed=14)
    head = scaled_head(6, 3, seed=14)
    trees = [random_tree(rng, vocab_size=6, max_nodes=14, min_nodes=2)
             for _ in range(15)]
    loss = corpus_loss(flats_of(trees, model), model, head)
    ref = oracles.corpus_loss(trees, model, head.U)
    assert loss == pytest.approx(ref, abs=1e-12)


def test_corpus_loss_edge_cases():
    model = scaled_model(vocab_size=6, d=3, hidden_dim=3, seed=15)
    head = scaled_head(6, 3, seed=15)
    with pytest.raises(CorpusError):
        corpus_loss([], model, head)
    with pytest.raises(CorpusError, match="internal"):
        corpus_loss(flats_of([node(1), node(2)], model), model, head)


def test_corpus_duplication_leaves_loss_and_gradients_unchanged():
    rng = np.random.default_rng(41)
    model = scaled_model(vocab_size=6, d=3, hidden_dim=3, seed=16)
    head = scaled_head(6, 3, seed=16)
    trees = [random_tree(rng, vocab_size=6, max_nodes=10, min_nodes=2)
             for _ in range(4)]
    flats = flats_of(trees, model)
    loss_once, grads_once = loss_and_gradients(flats, model, head)
    loss_twice, grads_twice = loss_and_gradients(flats + flats, model, head)
    assert loss_twice == pytest.approx(loss_once, abs=1e-12)
    for key, g in grads_once.items():
        np.testing.assert_allclose(grads_twice[key], g, rtol=0, atol=1e-12)


def test_chunked_loss_and_gradients_equal_per_tree_sums():
    rng = np.random.default_rng(53)
    model = scaled_model(vocab_size=6, d=3, hidden_dim=3, seed=22, scale=0.5)
    head = scaled_head(6, 3, seed=22)
    trees = []
    while sum(len(preorder(t)[0]) for t in trees) <= 2 * PACK_NODES:
        trees.append(random_tree(rng, vocab_size=6, max_nodes=30))
    counts = [oracles.tree_nll(t, model, head.U)[1] for t in trees]
    total = sum(counts)
    ref = sum(oracles.tree_nll(t, model, head.U)[0] for t in trees) / total
    flats = flats_of(trees, model)
    assert corpus_loss(flats, model, head) == pytest.approx(ref, abs=1e-12)
    loss, grads = loss_and_gradients(flats, model, head)
    assert loss == pytest.approx(ref, abs=1e-12)
    summed = {key: np.zeros_like(g) for key, g in grads.items()}
    for flat, count in zip(flats, counts):
        if count:
            for key, g in loss_and_gradients([flat], model, head)[1].items():
                summed[key] += g * (count / total)
    for key, g in grads.items():
        np.testing.assert_allclose(g, summed[key], rtol=0, atol=1e-12)


def test_loss_and_gradients_over_an_all_leaf_pack_equal_per_tree_sums(monkeypatch):
    rng = np.random.default_rng(59)
    model = scaled_model(vocab_size=6, d=3, hidden_dim=3, seed=23, scale=0.5)
    head = scaled_head(6, 3, seed=23)
    trees = []
    while len(trees) < 3:
        tree = random_tree(rng, vocab_size=6, max_nodes=12, min_nodes=5)
        trees += [tree] if len(preorder(tree)[0]) >= 5 else []
    trees[1:1] = [node(int(rng.integers(6))) for _ in range(4)]
    # packs of at most 4 nodes: each larger tree alone, the four leaves together
    monkeypatch.setattr(sys.modules["treedefect.treelstm"], "PACK_NODES", 4)
    flats = flats_of(trees, model)
    assert [f.n for f in packs(flats)][1] == 4
    counts = [oracles.tree_nll(t, model, head.U)[1] for t in trees]
    total = sum(counts)
    ref = sum(oracles.tree_nll(t, model, head.U)[0] for t in trees) / total
    loss, grads = loss_and_gradients(flats, model, head)
    assert loss == pytest.approx(ref, abs=1e-12)
    summed = {key: np.zeros_like(g) for key, g in grads.items()}
    for flat, count in zip(flats, counts):
        if count:
            for key, g in loss_and_gradients([flat], model, head)[1].items():
                summed[key] += g * (count / total)
    for key, g in grads.items():
        np.testing.assert_allclose(g, summed[key], rtol=0, atol=1e-12)


def _fd_corpus_worst(flats, model, head, rate=None, eps=1e-5):
    """Worst relative error of the gradients against central differences;
    with a dropout `rate`, every pass draws its masks from an equal fresh
    generator, so all passes share one set of masks."""
    params = dict(model.params)
    params["head.U"] = head.U

    def dropout():
        return None if rate is None else (rate, np.random.default_rng(3))

    def loss():
        if rate is None:
            return corpus_loss(flats, model, head)
        return loss_and_gradients(flats, model, head, dropout())[0]

    _, grads = loss_and_gradients(flats, model, head, dropout())
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


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(43)
    model = scaled_model(vocab_size=5, d=2, hidden_dim=2, seed=17)
    head = scaled_head(5, 2, seed=17)
    trees = [random_tree(rng, vocab_size=5, max_nodes=7, min_nodes=3)
             for _ in range(3)]
    assert _fd_corpus_worst(flats_of(trees, model), model, head) < 1e-4


def test_loss_gradients_with_dropout_match_finite_differences():
    rng = np.random.default_rng(47)
    model = scaled_model(vocab_size=5, d=2, hidden_dim=2, seed=18)
    head = scaled_head(5, 2, seed=18)
    trees = [random_tree(rng, vocab_size=5, max_nodes=7, min_nodes=3)
             for _ in range(3)]
    assert _fd_corpus_worst(flats_of(trees, model), model, head, rate=0.5) < 1e-4


def test_rmsprop_first_step_anchor():
    # ms = 0.1, step = -0.001 / sqrt(0.1 + 1e-6)
    params = {"x": np.array([0.0])}
    grads = {"x": np.array([1.0])}
    mean_square = {"x": np.zeros(1)}
    assert rmsprop_step(params, grads, mean_square, TrainConfig()) is None  # in place
    assert mean_square["x"][0] == pytest.approx(0.1, abs=1e-15)
    assert params["x"][0] == pytest.approx(-0.003162261848898663, abs=1e-15)
    # epsilon sits inside the square root, not outside
    ms = (1.0 - 0.9) * 1.0 * 1.0
    inside = -0.001 / math.sqrt(ms + 1e-6)
    outside = -0.001 / (math.sqrt(ms) + 1e-6)
    assert params["x"][0] == inside
    assert abs(params["x"][0] - outside) > 1e-12


def test_rmsprop_accumulates_mean_square():
    params = {"x": np.array([0.0])}
    mean_square = {"x": np.zeros(1)}
    config = TrainConfig()
    rmsprop_step(params, {"x": np.array([1.0])}, mean_square, config)
    rmsprop_step(params, {"x": np.array([2.0])}, mean_square, config)
    assert mean_square["x"][0] == pytest.approx(0.9 * 0.1 + 0.1 * 4.0, abs=1e-15)


def test_train_config_validation():
    for kwargs in ({"learning_rate": 0.0}, {"rms_decay": 1.0}, {"rms_epsilon": 0.0},
                   {"dropout_rate": 1.0}, {"max_epochs": -1}, {"patience": 0},
                   {"batch_size": 0}, {"split": (0.5, 0.5, 0.0)},
                   {"split": (0.6, 0.3, 0.2)}, {"embedding_dim": 0}, {"hidden_dim": 0},
                   {"vocab_size": 0}, {"min_count": 0}, {"max_epochs": 1.5},
                   {"batch_size": True}, {"seed": 1.0}, {"learning_rate": math.nan},
                   {"learning_rate": math.inf}, {"rms_epsilon": math.nan},
                   {"rms_epsilon": math.inf}, {"split": (math.nan, 0.5, 0.5)},
                   {"split": "0.8,0.2"}, {"split": "a,b,c"}, {"split": 0.5}):
        with pytest.raises(ValueError, match="split" if "split" in kwargs else None):
            TrainConfig(**kwargs)
    # the comma form of --split, and a list from a JSON config
    for split in ("0.8,0.1,0.1", [0.8, 0.1, 0.1], ("0.8", "0.1", "0.1")):
        assert TrainConfig(split=split).split == (0.8, 0.1, 0.1)


@pytest.mark.parametrize("kwargs", [
    {"learning_rate": True}, {"dropout_rate": False}, {"rms_epsilon": True},
    {"rms_decay": False}, {"learning_rate": "0.1"}, {"split": [0.8, 0.1, True]}])
def test_train_config_takes_only_finite_numbers_for_its_float_fields(kwargs):
    name = next(iter(kwargs))
    with pytest.raises(ValueError, match=name):
        TrainConfig(**kwargs)


def test_split_records_partitions():
    records = generate_records(n=20, seed=3)
    train, val, test = split_records(records, (0.8, 0.1, 0.1), seed=5)
    assert (len(train), len(val), len(test)) == (16, 2, 2)
    assert sorted(r.file_id for r in train + val + test) == sorted(
        r.file_id for r in records)
    train2, val2, test2 = split_records(records, (0.8, 0.1, 0.1), seed=5)
    assert [r.file_id for r in train2] == [r.file_id for r in train]
    other, _, _ = split_records(records, (0.8, 0.1, 0.1), seed=6)
    assert [r.file_id for r in other] != [r.file_id for r in train]
    with pytest.raises(CorpusError, match="validation"):
        split_records(records[:5], (0.8, 0.1, 0.1), seed=0)


def small_config(**overrides):
    base = dict(embedding_dim=4, hidden_dim=4, max_epochs=3, batch_size=4,
                min_count=1, seed=11)
    base.update(overrides)
    return TrainConfig(**base)


def test_pretrain_zero_epochs_returns_initial_model():
    records = generate_records(n=20, seed=7)
    config = small_config(max_epochs=0)
    result = pretrain(records, config)
    assert result.log == [] and result.best_epoch is None
    assert result.val_perplexity is None
    assert result.test_perplexity is not None and result.test_perplexity > 0
    fresh = init_model(result.model.vocab, config.embedding_dim,
                       config.hidden_dim, config.seed)
    np.testing.assert_array_equal(result.model.params["embeddings"],
                                  fresh.params["embeddings"])


def test_pretrain_deterministic_and_bookkeeping():
    records = generate_records(n=30, seed=9)
    config = small_config()
    a = pretrain(records, config)
    b = pretrain(records, config)
    for key, arr in a.model.params.items():
        np.testing.assert_array_equal(b.model.params[key], arr)
    np.testing.assert_array_equal(a.head.U, b.head.U)
    assert [s.val_perplexity for s in a.log] == [s.val_perplexity for s in b.log]
    assert 1 <= len(a.log) <= config.max_epochs
    assert a.val_perplexity == min(s.val_perplexity for s in a.log)
    assert a.best_epoch == next(s.epoch for s in a.log
                                if s.val_perplexity == a.val_perplexity)
    for stats in a.log:
        assert stats.train_loss > 0 and stats.val_perplexity > 0


def test_all_leaf_batches_keep_their_dropout_draws(monkeypatch):
    """Every epoch takes n * (d + hidden_dim) dropout draws per training tree,
    as the per-tree masks did, even for batches that are skipped because they
    hold no internal node."""
    generators = {}

    def recording_stream(seed, *names):
        generators[names] = stream(seed, *names)
        return generators[names]

    monkeypatch.setattr(sys.modules["treedefect.pretrain"], "stream", recording_stream)
    rng = np.random.default_rng(5)
    records = generate_records(n=12, seed=5) + [
        FileRecord(f"leaf{i}.mini", "p", "1", None, node(int(rng.integers(4))))
        for i in range(8)]
    config = small_config(embedding_dim=3, hidden_dim=2, batch_size=1)
    result = pretrain(records, config)
    train, _, _ = split_records(records, config.split, config.seed)
    assert any(not r.tree.children for r in train)
    expected = stream(config.seed, "dropout")
    per_node = config.embedding_dim + config.hidden_dim
    expected.random(len(result.log) * per_node * sum(len(preorder(r.tree)[0]) for r in train))
    assert generators[("dropout",)].bit_generator.state == expected.bit_generator.state


def test_pretrain_restores_best_snapshot():
    records = generate_records(n=30, seed=13)
    config = small_config(max_epochs=5, seed=21)
    result = pretrain(records, config)
    _, val_recs, _ = split_records(records, config.split, config.seed)
    val_flats = [flatten(r.tree, result.model.vocab) for r in val_recs]
    assert perplexity(result.model, result.head, val_flats) == result.val_perplexity


def test_pretrain_early_stops_when_validation_stalls():
    # one-token vocabulary: every prediction is certain, validation perplexity
    # is exactly 1.0 forever, so epoch 2 fails the strict improvement test
    records = generate_records(n=20, seed=15)
    with pytest.warns(UserWarning):
        result = pretrain(records, small_config(patience=1, max_epochs=30),
                          vocab=Vocabulary((UNK_TOKEN,)))
    assert [s.improved for s in result.log] == [True, False]
    assert result.best_epoch == 1
    assert result.val_perplexity == 1.0


def test_pretrain_uses_given_vocab_and_train_split_vocab():
    records = generate_records(n=20, seed=17)
    explicit = build_vocabulary([r.tree for r in records], size=50, min_count=1)
    result = pretrain(records, small_config(max_epochs=0), vocab=explicit)
    assert result.model.vocab is explicit
    auto = pretrain(records, small_config(max_epochs=0))
    train, _, _ = split_records(records, (0.8, 0.1, 0.1), 11)
    rebuilt = build_vocabulary([r.tree for r in train], size=10000, min_count=1)
    assert auto.model.vocab.tokens == rebuilt.tokens


def test_pretrain_with_config_overrides_seed():
    records = generate_records(n=20, seed=19)
    config = small_config(max_epochs=1)
    a = pretrain(records, replace(config, seed=100))
    b = pretrain(records, replace(config, seed=100))
    c = pretrain(records, replace(config, seed=101))
    np.testing.assert_array_equal(a.model.params["embeddings"], b.model.params["embeddings"])
    assert not np.array_equal(a.model.params["embeddings"], c.model.params["embeddings"])


def test_pretrain_rejects_empty_corpus():
    with pytest.raises(CorpusError,
                       match=r"^train partition is empty: 0 records split as \(0.8, 0.1, 0.1\)$"):
        pretrain([], small_config())


def test_pretrain_rejects_a_training_partition_of_single_node_files():
    records = [FileRecord(f"leaf{i}.mini", "p", "1", None, node(i % 3)) for i in range(10)]
    with pytest.raises(CorpusError, match="^training partition has no internal nodes$"):
        pretrain(records, small_config(embedding_dim=2, hidden_dim=2))


def test_write_training_log(tmp_path):
    records = generate_records(n=20, seed=23)
    result = pretrain(records, small_config(max_epochs=2))
    path = tmp_path / "log.csv"
    write_training_log(path, result.log)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epoch,train_loss,val_perplexity,improved"
    assert len(lines) == 1 + len(result.log)
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == result.log[0].train_loss
    assert first[3] in {"0", "1"}


def test_pretrain_non_finite_failure_names_file_epoch_and_batch(monkeypatch):
    records = generate_records(n=30, seed=19)
    config = small_config(max_epochs=2, seed=23)
    train, _, _ = split_records(records, config.split, config.seed)
    poisoned = train[5]
    poison_embedding(monkeypatch, poisoned)
    vocab = build_vocabulary([r.tree for r in records], size=100, min_count=1)
    order = stream(config.seed, "batches").permutation(len(train)).tolist()
    batch = order.index(5) // config.batch_size + 1
    with pytest.raises(ArithmeticError) as info:
        pretrain(records, config, vocab=vocab)
    assert poisoned.file_id in str(info.value)
    assert str(info.value).endswith(
        f"(epoch 1, batch {batch}); step size: learning_rate 0.001, rms_epsilon 1e-06")


def test_pretrain_non_finite_state_first_reached_at_validation_names_it(monkeypatch):
    records = generate_records(n=30, seed=19)
    config = small_config(max_epochs=2, seed=23)
    _, val, _ = split_records(records, config.split, config.seed)
    poisoned = val[0]
    # only this validation file holds the token, so training never reads it
    poison_embedding(monkeypatch, poisoned)
    vocab = build_vocabulary([r.tree for r in records], size=100, min_count=1)
    with pytest.raises(DivergenceError) as info:
        pretrain(records, config, vocab=vocab)
    assert str(info.value) == (
        f"non-finite hidden state in the tree forward pass of {poisoned.file_id} "
        "(epoch 1, validation); step size: learning_rate 0.001, rms_epsilon 1e-06")


@pytest.mark.parametrize("max_epochs", [2, 0])
def test_pretrain_non_finite_state_first_reached_at_test_names_it(monkeypatch, max_epochs):
    records = generate_records(n=30, seed=19)
    config = small_config(max_epochs=max_epochs, seed=23)
    _, _, test = split_records(records, config.split, config.seed)
    poisoned = test[0]
    # only this test file holds the token, so neither training nor validation reads it
    poison_embedding(monkeypatch, poisoned)
    vocab = build_vocabulary([r.tree for r in records], size=100, min_count=1)
    with pytest.raises(DivergenceError) as info:
        pretrain(records, config, vocab=vocab)
    assert str(info.value) == (
        f"non-finite hidden state in the tree forward pass of {poisoned.file_id} "
        "(test); step size: learning_rate 0.001, rms_epsilon 1e-06")


def test_pretraining_without_a_finite_validation_perplexity_says_so():
    # so large a rate saturates the head: every validation perplexity is inf
    config = TrainConfig(learning_rate=1000, embedding_dim=4, max_epochs=3, min_count=1)
    with pytest.raises(
            DivergenceError,
            match=r"^no finite validation perplexity in 3 epoch\(s\); the last was inf; "
                  r"step size: learning_rate 1000, rms_epsilon 1e-06$"):
        pretrain(generate_records(24, seed=1), config)

