"""AST corpus: tree types, label normalization, vocabulary, document I/O.

A corpus is a list of FileRecord entries, each tying a (project, version,
file_id) key and an optional defect label to one AST. Trees are immutable,
which is what keeps valid the height-ordered structure that
`treelstm.flatten` computes once per tree and keeps with it.
`preorder` (labels and child counts) is the one walk over a tree, and
`_from_preorder` the one builder. Both ways in, `normalize_labels` for parsed
sources and `corpus_from_document` for documents, build through it, so it is
the one depth gate: a tree may be at most MAX_TREE_DEPTH nodes deep, and every
corpus document the package writes can be read back. Nothing recurses, so
deeply nested inputs cannot overflow the interpreter stack.

On disk a corpus is a JSON document: one sorted table of the labels it uses
and, per file, its AST in preorder as label indices and child counts::

    {"format_version": 2,
     "labels": ["BlockStmt", "CompilationUnit", ...],
     "files": [{"file_id": ..., "project": ..., "version": ...,
                "label": 0 | 1 | null,
                "nodes": [1, 0, ...], "arity": [2, 0, ...]}, ...]}

Documents produced by the `ingest` pipeline store normalized labels (literal
values already collapsed); `read_corpus` itself keeps whatever labels the
document contains.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import jsonio
from .errors import DepthLimitError, DocumentError

UNK_TOKEN = "<unk>"

# Default vocabulary cap and least label count, of build_vocabulary and
# TrainConfig alike.
VOCAB_SIZE = 10000
MIN_COUNT = 2

# Deepest tree (in nodes, root to leaf) accepted from sources or documents:
# the depth every stage of the pipeline is held to. minilang.MAX_NESTING does
# not bound a parse (`x = 1 + 1 + ... ;` of 300 terms is 302 deep), so the
# builder behind normalize_labels and corpus_from_document enforces it.
MAX_TREE_DEPTH = 256

INT_LITERAL_LABEL = "IntegerLiteralExpr"
STRING_LITERAL_LABEL = "StringLiteralExpr"


@dataclass(frozen=True)
class AstTree:
    """One AST node; a leaf has an empty children tuple."""

    label: str
    children: tuple["AstTree", ...] = ()


@dataclass
class FileRecord:
    file_id: str
    project: str
    version: str
    label: int | None
    tree: AstTree

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.project, self.version, self.file_id)


def preorder(tree: AstTree) -> tuple[list[str], list[int]]:
    """Label and child count of every node of `tree` in preorder (parent
    before children, left to right): the one walk over an AstTree."""
    labels: list[str] = []
    arity: list[int] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        labels.append(node.label)
        arity.append(len(node.children))
        stack += node.children[::-1]
    return labels, arity


def _from_preorder(labels: list[str], nodes: list, arity: list, where: str) -> AstTree:
    """The AstTree whose nodes in preorder have labels `labels[nodes[j]]` and
    child counts `arity[j]`, built from the last node back: each node takes
    its children off the stack of subtrees built so far. A bad entry raises
    DocumentError and a tree deeper than MAX_TREE_DEPTH DepthLimitError; both
    name the node after `where` (a document entry) when it is given."""
    built: list[AstTree] = []
    depths: list[int] = []
    for j in range(len(nodes) - 1, -1, -1):
        label, k = nodes[j], arity[j]
        if type(label) is not int or not 0 <= label < len(labels):
            raise DocumentError(f"{where}.nodes[{j}]: label index must be an integer "
                                f"in [0, {len(labels)}), got {label!r}")
        if type(k) is not int or not 0 <= k <= len(built):
            raise DocumentError(f"{where}.arity[{j}]: child count must be an integer "
                                f"in [0, {len(built)}], got {k!r}")
        depth, children = 1, ()
        if k:
            depth += max(depths[-k:])
            if depth > MAX_TREE_DEPTH:
                at = f"{where}.nodes[{j}]: " if where else ""
                raise DepthLimitError(f"{at}tree is deeper than the limit of "
                                      f"{MAX_TREE_DEPTH} nodes")
            children = tuple(built[-k:][::-1])
            del built[-k:], depths[-k:]
        built.append(AstTree(labels[label], children))
        depths.append(depth)
    if len(built) != 1:
        raise DocumentError(f"{where}.arity[0]: nodes left over after the root's subtree")
    return built[0]


def normalize_label(label: str) -> str:
    """Collapse literal values: all-digit labels become IntegerLiteralExpr,
    double-quoted labels become StringLiteralExpr, anything else is kept."""
    if label.isascii() and label.isdigit():
        return INT_LITERAL_LABEL
    if len(label) >= 2 and label.startswith('"') and label.endswith('"'):
        return STRING_LITERAL_LABEL
    return label


def normalize_labels(tree: AstTree) -> AstTree:
    """Copy of `tree` with every label passed through normalize_label;
    DepthLimitError when `tree` is deeper than MAX_TREE_DEPTH."""
    labels, arity = preorder(tree)
    table: dict[str, int] = {}
    nodes = [table.setdefault(label, len(table)) for label in labels]
    return _from_preorder(list(map(normalize_label, table)), nodes, arity, "")


@dataclass
class Vocabulary:
    """Token table with the unknown sentinel pinned at index 0."""

    tokens: tuple[str, ...]
    token_to_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.tokens or self.tokens[0] != UNK_TOKEN:
            raise ValueError(f"vocabulary must start with {UNK_TOKEN!r}")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocabulary tokens must be unique")
        self.token_to_index = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)


def vocabulary_from_json(tokens: Any, where: str) -> Vocabulary:
    """The Vocabulary of a token list read from a JSON document: the one rule
    for vocabulary files and model documents. DocumentError names `where`
    (the document and its field) for anything else."""
    if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
        raise DocumentError(f"{where} must be a list of strings")
    try:
        return Vocabulary(tuple(tokens))
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def build_vocabulary(trees: list[AstTree], size: int = VOCAB_SIZE,
                     min_count: int = MIN_COUNT) -> Vocabulary:
    """Most popular labels across `trees`, capped at `size` entries total.

    The cap includes the unknown sentinel, so at most size-1 corpus tokens are
    kept. Labels seen fewer than `min_count` times are dropped. Ordering is by
    descending count, then lexicographic, so the table is deterministic.
    """
    if size < 1:
        raise ValueError(f"vocabulary size must be >= 1, got {size}")
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    counts: Counter[str] = Counter()
    for tree in trees:
        counts.update(preorder(tree)[0])
    counts.pop(UNK_TOKEN, None)  # sentinel is reserved, never a corpus token
    kept = [t for t, c in counts.items() if c >= min_count]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary((UNK_TOKEN, *kept[: size - 1]))


def encode(labels: Sequence[str], vocab: Vocabulary) -> np.ndarray:
    """Vocabulary index of each label (out of vocabulary: the unknown index)."""
    to_index = vocab.token_to_index
    return np.array([to_index.get(label, 0) for label in labels], dtype=np.intp)


def corpus_to_document(records: list[FileRecord]) -> dict:
    walks = [preorder(r.tree) for r in records]
    labels = sorted({label for names, _ in walks for label in names})
    index = {label: i for i, label in enumerate(labels)}
    return {"format_version": 2, "labels": labels, "files": [
        {"file_id": r.file_id, "project": r.project, "version": r.version, "label": r.label,
         "nodes": [index[label] for label in names], "arity": arity}
        for r, (names, arity) in zip(records, walks)]}


def corpus_from_document(doc: Any, source: str = "corpus") -> list[FileRecord]:
    try:
        jsonio.known_fields(doc, ("format_version", "labels", "files"), source, version=2)
    except DocumentError as exc:  # a version-1 corpus is also told how to upgrade
        if str(exc) != f"{source}: format_version must be 2, got 1":
            raise
        raise DocumentError(f"{exc}; re-run `ingest` on the sources to write version 2") from None
    labels = doc.get("labels")
    if (not isinstance(labels, list) or not all(isinstance(t, str) and t for t in labels)
            or any(a >= b for a, b in zip(labels, labels[1:]))):
        raise DocumentError(f"{source}: 'labels' must be sorted, distinct non-empty strings")
    files = doc.get("files")
    if not isinstance(files, list):
        raise DocumentError(f"{source}: 'files' must be a list")
    records: list[FileRecord] = []
    seen: set[tuple[str, str, str]] = set()
    for i, entry in enumerate(files):
        where = f"{source}: files[{i}]"
        jsonio.known_fields(entry, ("file_id", "project", "version", "label", "nodes",
                                    "arity"), where, "entry")
        for key in ("file_id", "project", "version"):
            value = entry.get(key)
            if not isinstance(value, str) or not value:
                raise DocumentError(f"{where}: {key!r} must be a non-empty string")
        label = entry.get("label")
        if label is not None and not (jsonio.is_int(label) and label in (0, 1)):
            raise DocumentError(f"{where}: 'label' must be 0, 1 or null, got {label!r}")
        nodes, arity = entry.get("nodes"), entry.get("arity")
        if not (isinstance(nodes, list) and isinstance(arity, list)
                and 0 < len(nodes) == len(arity)):
            raise DocumentError(f"{where}: 'nodes' and 'arity' must be non-empty lists "
                                f"of equal length")
        record = FileRecord(entry["file_id"], entry["project"], entry["version"], label,
                            _from_preorder(labels, nodes, arity, where))
        if record.key in seen:
            raise DocumentError(f"{where}: duplicate entry for {record.key}")
        seen.add(record.key)
        records.append(record)
    return records


def write_corpus(path: str | Path, records: list[FileRecord]) -> None:
    jsonio.write(path, corpus_to_document(records))


def read_corpus(path: str | Path) -> list[FileRecord]:
    return corpus_from_document(jsonio.read(path), str(path))


def cell(records: list[FileRecord], project: str, version: str) -> list[FileRecord]:
    """Records belonging to one (project, version) cell, in corpus order."""
    return [r for r in records if r.project == project and r.version == version]
