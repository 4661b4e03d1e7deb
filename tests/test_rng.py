import numpy as np
import pytest

from treedefect import derive_seed, stream
from treedefect.rng import seed_sequence


def test_same_labels_same_draws():
    a = stream(7, "split").random(8)
    b = stream(7, "split").random(8)
    assert np.array_equal(a, b)


def test_different_labels_differ():
    a = stream(7, "split").random(8)
    b = stream(7, "init").random(8)
    c = stream(8, "split").random(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_int_labels_supported():
    a = stream(3, "bootstrap", 0).random(4)
    b = stream(3, "bootstrap", 1).random(4)
    assert not np.array_equal(a, b)


def test_string_int_labels_do_not_alias():
    a = stream(3, "fold", 1).random(4)
    b = stream(3, "fold", "1").random(4)
    assert not np.array_equal(a, b)


def test_negative_seed_accepted():
    assert stream(-5, "x").random() == stream(-5, "x").random()


def test_bool_label_rejected():
    with pytest.raises(TypeError):
        stream(0, True)


def test_non_string_label_rejected():
    with pytest.raises(TypeError):
        stream(0, 1.5)


def test_derive_seed_deterministic():
    assert derive_seed(11, "cv", 3) == derive_seed(11, "cv", 3)
    assert derive_seed(11, "cv", 3) != derive_seed(11, "cv", 4)


def _list_form(seed, *labels):
    """The SeedSequence of a stream built from a list of Python integers, as
    numpy coerces it entry by entry."""
    entropy = [seed & (2**64 - 1)]
    for label in labels:
        if isinstance(label, int):
            entropy += [0xF1, label & (2**64 - 1)]
        else:
            entropy += [0xF2, *label.encode("utf-8")]
    return np.random.SeedSequence(entropy)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -5])
@pytest.mark.parametrize("labels", [("bootstrap",), ("é",), ("",), (0,), (7,), (2**40,),
                                    ("bootstrap", 2**40), ("é", 0, "", 7)])
def test_uint32_entropy_gives_the_pool_of_the_list_form(seed, labels):
    want = _list_form(seed, *labels)
    got = seed_sequence(seed, *labels)
    assert np.array_equal(got.pool, want.pool)
    assert np.array_equal(stream(seed, *labels).random(4),
                          np.random.default_rng(want).random(4))
