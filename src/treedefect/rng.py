"""Named deterministic random streams.

Every stochastic step (splitting, init, dropout, bootstrap, ...) draws from
its own generator derived from the master seed plus string/int labels, so
adding draws to one step never perturbs another and results are reproducible
across platforms. Python's salted hash() is never used for derivation; labels
are folded into a numpy SeedSequence as raw byte values.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _words(value: int) -> list[int]:
    """`value` in [0, 2**64) as SeedSequence reads an integer: little-endian
    32-bit words, at least one."""
    return [value & 0xFFFFFFFF, value >> 32] if value >> 32 else [value]


def seed_sequence(seed: int, *labels: str | int) -> np.random.SeedSequence:
    """SeedSequence for the stream named by `labels` under `seed`. Its entropy
    is one uint32 array holding the words numpy would make of the list [seed,
    then per label 0xF1 and the integer or 0xF2 and the UTF-8 bytes]: the same
    pool, without numpy's per-entry conversion."""
    entropy = _words(int(seed) & _MASK64)
    for label in labels:
        if isinstance(label, bool):  # bool is an int; reject to avoid aliasing
            raise TypeError("stream labels must be str or int, not bool")
        if isinstance(label, int):
            entropy.append(0xF1)
            entropy += _words(label & _MASK64)
        elif isinstance(label, str):
            entropy.append(0xF2)
            entropy += label.encode("utf-8")
        else:
            raise TypeError(f"stream labels must be str or int, got {type(label).__name__}")
    return np.random.SeedSequence(np.array(entropy, dtype=np.uint32))


def stream(seed: int, *labels: str | int) -> np.random.Generator:
    """Generator for the named stream; same (seed, labels) -> same draws."""
    return np.random.default_rng(seed_sequence(seed, *labels))


def derive_seed(seed: int, *labels: str | int) -> int:
    """A fresh integer seed for a named sub-computation."""
    return int(seed_sequence(seed, *labels).generate_state(1, np.uint64)[0])
