"""AST corpus: tree types, label normalization, vocabulary, document I/O.

A corpus is a list of FileRecord entries, each tying a (project, version,
file_id) key and an optional defect label to one AST. Trees are immutable;
every traversal here is iterative so deeply nested inputs cannot overflow the
interpreter stack. Trees entering the pipeline (parsed sources, corpus
documents) may be at most MAX_TREE_DEPTH nodes deep, so that every corpus
document the package writes can be read back.

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
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from . import jsonio
from .errors import DepthLimitError, DocumentError

UNK_TOKEN = "<unk>"

# Default vocabulary cap and least label count, of build_vocabulary and
# TrainConfig alike.
VOCAB_SIZE = 10000
MIN_COUNT = 2

# Deepest tree (in nodes, root to leaf) accepted from sources or documents:
# the depth every stage of the pipeline is held to. Sources within
# minilang.MAX_NESTING reach 127.
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


def iter_nodes(tree: AstTree) -> Iterator[AstTree]:
    """All nodes in preorder (parent before children, left to right)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def tree_depth(tree: AstTree) -> int:
    """Depth in nodes along the longest root-to-leaf path (single node: 1)."""
    best = 0
    stack = [(tree, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > best:
            best = depth
        for child in node.children:
            stack.append((child, depth + 1))
    return best


def normalize_label(label: str) -> str:
    """Collapse literal values: all-digit labels become IntegerLiteralExpr,
    double-quoted labels become StringLiteralExpr, anything else is kept."""
    if label.isascii() and label.isdigit():
        return INT_LITERAL_LABEL
    if len(label) >= 2 and label.startswith('"') and label.endswith('"'):
        return STRING_LITERAL_LABEL
    return label


def check_depth(tree: AstTree) -> AstTree:
    """`tree`, or DepthLimitError when it is deeper than MAX_TREE_DEPTH."""
    depth = tree_depth(tree)
    if depth > MAX_TREE_DEPTH:
        raise DepthLimitError(f"AST is {depth} nodes deep, deeper than the limit "
                              f"of {MAX_TREE_DEPTH}")
    return tree


def fold_tree(tree: AstTree, make_node: Callable[[AstTree, tuple], Any]) -> Any:
    """Post-order fold: `make_node(node, results of its children)` for every
    node, children left to right before their parent; returns the root's."""
    out: list[Any] = []
    work: list[tuple[Any, bool]] = [(tree, False)]
    while work:
        node, expanded = work.pop()
        if not expanded:
            work.append((node, True))
            for child in reversed(node.children):
                work.append((child, False))
        else:
            k = len(node.children)
            children = tuple(out[len(out) - k:]) if k else ()
            if k:
                del out[len(out) - k:]
            out.append(make_node(node, children))
    return out[0]


def normalize_labels(tree: AstTree) -> AstTree:
    """Copy of `tree` with every label passed through normalize_label."""
    return fold_tree(tree, lambda node, ch: AstTree(normalize_label(node.label), ch))


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
        for node in iter_nodes(tree):
            counts[node.label] += 1
    counts.pop(UNK_TOKEN, None)  # sentinel is reserved, never a corpus token
    kept = [t for t, c in counts.items() if c >= min_count]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary((UNK_TOKEN, *kept[: size - 1]))


def encode(labels: Sequence[str], vocab: Vocabulary) -> np.ndarray:
    """Vocabulary index of each label (out of vocabulary: the unknown index)."""
    to_index = vocab.token_to_index
    return np.array([to_index.get(label, 0) for label in labels], dtype=np.intp)


def corpus_to_document(records: list[FileRecord]) -> dict:
    preorders = [list(iter_nodes(r.tree)) for r in records]
    labels = sorted({node.label for nodes in preorders for node in nodes})
    index = {label: i for i, label in enumerate(labels)}
    return {"format_version": 2, "labels": labels, "files": [
        {"file_id": r.file_id, "project": r.project, "version": r.version, "label": r.label,
         "nodes": [index[node.label] for node in nodes],
         "arity": [len(node.children) for node in nodes]}
        for r, nodes in zip(records, preorders)]}


def _tree_from_preorder(labels: list, nodes: list, arity: list, where: str) -> AstTree:
    """The AstTree with preorder label indices `nodes` and child counts `arity`,
    validated as it is built from the last node back: each node takes its
    children off the stack of subtrees built so far. Errors name the entry."""
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
                raise DepthLimitError(f"{where}.nodes[{j}]: tree is deeper than the "
                                      f"limit of {MAX_TREE_DEPTH} nodes")
            children = tuple(built[-k:][::-1])
            del built[-k:], depths[-k:]
        built.append(AstTree(labels[label], children))
        depths.append(depth)
    if len(built) != 1:
        raise DocumentError(f"{where}.arity[0]: nodes left over after the root's subtree")
    return built[0]


def corpus_from_document(doc: Any, source: str = "corpus") -> list[FileRecord]:
    if not isinstance(doc, dict):
        raise DocumentError(f"{source}: document must be an object")
    version = doc.get("format_version")
    if version != 2:
        rerun = "; re-run `ingest` on the sources to write version 2" if version == 1 else ""
        raise DocumentError(f"{source}: format_version must be 2, got {version!r}{rerun}")
    unknown = set(doc) - {"format_version", "labels", "files"}
    if unknown:
        raise DocumentError(f"{source}: unknown field {sorted(unknown)[0]!r}")
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
        where = f"files[{i}]"
        if not isinstance(entry, dict):
            raise DocumentError(f"{where}: entry must be an object")
        unknown = set(entry) - {"file_id", "project", "version", "label", "nodes", "arity"}
        if unknown:
            raise DocumentError(f"{where}: unknown field {sorted(unknown)[0]!r}")
        for key in ("file_id", "project", "version"):
            value = entry.get(key)
            if not isinstance(value, str) or not value:
                raise DocumentError(f"{where}: {key!r} must be a non-empty string")
        label = entry.get("label")
        if label is not None and (isinstance(label, bool) or label not in (0, 1)):
            raise DocumentError(f"{where}: 'label' must be 0, 1 or null, got {label!r}")
        nodes, arity = entry.get("nodes"), entry.get("arity")
        if not (isinstance(nodes, list) and isinstance(arity, list)
                and 0 < len(nodes) == len(arity)):
            raise DocumentError(f"{where}: 'nodes' and 'arity' must be non-empty lists "
                                f"of equal length")
        record = FileRecord(entry["file_id"], entry["project"], entry["version"],
                            None if label is None else int(label),
                            _tree_from_preorder(labels, nodes, arity, where))
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
