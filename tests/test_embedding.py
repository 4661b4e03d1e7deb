import numpy as np
import pytest

from treedefect import EmbeddingMatrix, init_embeddings


def test_init_shape_and_range():
    emb = init_embeddings(4, 20, seed=7)
    assert emb.values.shape == (4, 20)
    assert emb.dim == 4 and emb.vocab_size == 20
    assert np.all(np.abs(emb.values) <= 0.05)
    assert not np.allclose(emb.values, 0.0)


def test_init_deterministic_in_seed():
    a = init_embeddings(3, 11, seed=42)
    b = init_embeddings(3, 11, seed=42)
    c = init_embeddings(3, 11, seed=43)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_init_warns_when_dim_not_smaller_than_vocab():
    with pytest.warns(UserWarning, match="not smaller"):
        init_embeddings(6, 6, seed=0)
    with pytest.warns(UserWarning):
        init_embeddings(7, 6, seed=0)


def test_init_rejects_bad_sizes():
    with pytest.raises(ValueError):
        init_embeddings(0, 5)
    with pytest.raises(ValueError):
        init_embeddings(3, 0)


def test_matrix_validation():
    with pytest.raises(ValueError, match="2-D"):
        EmbeddingMatrix(np.zeros(4))
    with pytest.raises(ValueError, match="finite"):
        EmbeddingMatrix(np.array([[0.0, np.nan]]))

