import numpy as np
import pytest

from treedefect import init_model

from conftest import small_vocab


def test_init_shape_and_range():
    model = init_model(small_vocab(20), 4, seed=7)
    emb = model.params["embeddings"]
    assert emb.shape == (4, 20)
    assert model.d == 4 and model.hidden_dim == 4
    assert np.all(np.abs(emb) <= 0.05)
    assert not np.allclose(emb, 0.0)


def test_init_warns_when_dim_not_smaller_than_vocab():
    with pytest.warns(UserWarning, match="not smaller"):
        init_model(small_vocab(6), 6, seed=0)
    with pytest.warns(UserWarning):
        init_model(small_vocab(6), 7, seed=0)


def test_init_rejects_bad_sizes():
    with pytest.raises(ValueError, match="embedding dimension"):
        init_model(small_vocab(5), 0)
    with pytest.raises(ValueError, match="hidden_dim"):
        init_model(small_vocab(5), 3, hidden_dim=0)
