"""Token embedding matrix: one column per vocabulary token."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .rng import stream

INIT_SCALE = 0.05


@dataclass
class EmbeddingMatrix:
    """Columns are token vectors: values[:, i] embeds vocabulary index i."""

    values: np.ndarray  # shape (d, |V|)

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError(f"embedding matrix must be 2-D, got shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("embedding matrix entries must be finite")

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.values.shape[1]


def init_embeddings(d: int, vocab_size: int, seed: int = 0,
                    rng: np.random.Generator | None = None) -> EmbeddingMatrix:
    """Uniform random matrix in [-0.05, 0.05], deterministic in `seed`.

    Pass `rng` to draw from an already-derived stream instead (used when the
    embedding is initialized alongside other parameters).
    """
    if d < 1:
        raise ValueError(f"embedding dimension must be >= 1, got {d}")
    if vocab_size < 1:
        raise ValueError(f"vocabulary size must be >= 1, got {vocab_size}")
    if d >= vocab_size:
        warnings.warn(
            f"embedding dimension {d} is not smaller than the vocabulary size {vocab_size}",
            stacklevel=2,
        )
    if rng is None:
        rng = stream(seed, "init", "embeddings")
    values = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(d, vocab_size))
    return EmbeddingMatrix(values)

