"""Exception hierarchy for user-facing errors.

Everything raised on bad *input* (malformed documents, unparsable source,
degenerate training data) derives from TreeDefectError so callers can catch
one type at the boundary. Contract violations inside the library (wrong
argument types, out-of-range indices, non-finite numerics) deliberately use
builtin exceptions instead and are reported as internal errors by the CLI.
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
