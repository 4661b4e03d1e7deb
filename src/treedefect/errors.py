"""Exception hierarchy for user-facing errors.

Everything raised on bad *input* (malformed documents, unparsable source,
degenerate training data) derives from TreeDefectError so callers can catch
one type at the boundary; the CLI reports it with exit 2. Contract
violations inside the library (wrong argument types, out-of-range indices)
deliberately use builtin exceptions instead and are reported as internal
errors (exit 3). Non-finite numerics raise DivergenceError, so exit 2 too:
they follow from the options and data, such as too large a learning rate.
The trade-off is that a genuine numerical bug would then also exit 2.
"""

from __future__ import annotations


class TreeDefectError(Exception):
    """Base class for errors caused by user input or user data."""


class MiniSyntaxError(TreeDefectError):
    """Syntax error in mini-language source, with 1-based position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class DocumentError(TreeDefectError):
    """Malformed corpus document (schema violation, duplicate ids, ...)."""


class CorpusError(TreeDefectError):
    """Corpus unusable for the requested operation (empty cell, missing
    labels, no internal nodes, fold count larger than the record count)."""


class DepthLimitError(TreeDefectError):
    """AST deeper than corpus.MAX_TREE_DEPTH."""


class TrainingDataError(TreeDefectError):
    """Training data degenerate for the requested model (single class)."""


class DivergenceError(TreeDefectError, ArithmeticError):
    """Non-finite numbers in a forward pass or in pretraining. Still an
    ArithmeticError, so callers that catch that keep working."""
