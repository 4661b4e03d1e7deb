"""AST corpus: tree types, label normalization, vocabulary, document I/O.

A corpus is a list of FileRecord entries, each tying a (project, version,
file_id) key and an optional defect label to one AST. Trees are immutable,
which is what keeps valid the height-ordered structure that
`treelstm.flatten` computes once per tree and keeps with it.
`preorder` (labels and child counts) is the one walk over a tree, and
`_shape` the one pass that builds one: `minilang.parse_mini` hands it the
lists its parser appends, and `corpus_from_document` a document's lists
once it has checked them. Its root keeps the tree's shape (preorder labels
and child counts, each node's height and the child edges) and makes its
node objects only when `.children` is first read, so parsing, normalizing,
reading, counting, writing and flattening a tree make none.
`normalize_labels` relabels a shape and keeps its child counts, heights and
edges. `normalize_labels` and the document writer and reader are the depth
gates: a tree entering the pipeline may be at most MAX_TREE_DEPTH nodes
deep, and the writer rejects what the reader would, so every corpus
document the package writes can be read back. Nothing recurses, not even
==, hash or repr, so deeply nested inputs cannot overflow the interpreter
stack.

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
# not bound a parse (`x = 1 + 1 + ... ;` of 300 terms is 302 deep), so
# normalize_labels and the corpus document writer and reader enforce it.
MAX_TREE_DEPTH = 256

INT_LITERAL_LABEL = "IntegerLiteralExpr"
STRING_LITERAL_LABEL = "StringLiteralExpr"


@dataclass(frozen=True, slots=True, eq=False)
class AstTree:
    """One AST node; a leaf has an empty children tuple. A root made by
    `_shape` keeps the tree's shape in `_shape` and leaves the `children`
    slot unset, and `__getattr__` makes its nodes from the shape when
    `children` is first read. `flatten` keeps its height order in
    `_height_structure`. ==, hash and repr read `preorder`, so they make no
    nodes and do not recurse; repr gives the dataclass's text."""

    label: str
    children: tuple["AstTree", ...] = field(default_factory=tuple)
    _shape: tuple | None = field(default=None, init=False, repr=False)
    _height_structure: tuple | None = field(default=None, init=False, repr=False)

    def __getattr__(self, name: str):
        if name != "children" or self._shape is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        labels, arity = self._shape[0], self._shape[1]
        built: list[AstTree] = []
        for j in range(len(labels) - 1, 0, -1):
            k, children = arity[j], ()
            if k:
                children = tuple(built[-k:][::-1])
                del built[-k:]
            built.append(AstTree(labels[j], children))
        children = tuple(built[::-1])
        object.__setattr__(self, "children", children)
        return children

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return preorder(self) == preorder(other)

    def __hash__(self):
        labels, arity = preorder(self)
        return hash((tuple(labels), tuple(arity)))

    def __repr__(self):
        name = type(self).__qualname__
        parts: list[str] = []
        open_nodes: list[list] = []  # per unclosed node: children left, closing text
        for label, k in zip(*preorder(self)):
            parts.append(f"{name}(label={label!r}, children=(")
            if k:
                open_nodes.append([k, ",))" if k == 1 else "))"])
                continue
            parts.append("))")
            while open_nodes:
                open_nodes[-1][0] -= 1
                if open_nodes[-1][0]:
                    parts.append(", ")
                    break
                parts.append(open_nodes.pop()[1])
        return "".join(parts)


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
    before children, left to right): the one walk over an AstTree. A root
    made by `_shape` returns its kept lists, which must not be changed,
    without walking."""
    if tree._shape is not None:
        return tree._shape[0], tree._shape[1]
    labels: list[str] = []
    arity: list[int] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        labels.append(node.label)
        arity.append(len(node.children))
        stack += node.children[::-1]
    return labels, arity


def _shape(names: list[str], arity: list[int]) -> AstTree:
    """The root of the tree whose nodes in preorder have labels `names` and
    child counts `arity`, which must describe one tree: nothing is checked.
    One pass from the last node back, each node taking its children off the
    stack of subtrees seen so far, finds every node's height and the child
    edges (the children of each parent, all reversed); the root keeps them
    with the two lists, uncopied, as the tree's shape."""
    height = [0] * len(arity)
    edges: list[int] = []
    stack: list[int] = []    # subtree roots seen so far, leftmost on top
    heights: list[int] = []  # their heights
    for j in range(len(arity) - 1, -1, -1):
        k, h = arity[j], 0
        if k:
            h = height[j] = 1 + max(heights[-k:])
            edges += stack[-k:]
            del stack[-k:], heights[-k:]
        stack.append(j)
        heights.append(h)
    return _root(names, arity, height, edges)


def _root(names: list[str], arity: list[int], height: list[int], edges: list[int]) -> AstTree:
    """A root that keeps the tree's shape and has no node objects yet."""
    root = object.__new__(AstTree)
    object.__setattr__(root, "label", names[0])
    object.__setattr__(root, "_shape", (names, arity, height, edges))
    object.__setattr__(root, "_height_structure", None)
    return root


def tree_shape(tree: AstTree) -> tuple[list[str], list[int], list[int], list[int]]:
    """Preorder labels, child counts and heights of `tree`, and its child
    edges, as `_shape` finds them: a built root's kept lists, or those of its
    pass over a walk of `tree`."""
    if tree._shape is not None:
        return tree._shape
    return _shape(*preorder(tree))._shape


def normalize_label(label: str) -> str:
    """Collapse literal values: labels of str.isdigit characters only (what
    the lexer calls an integer, Unicode digits included) become
    IntegerLiteralExpr, double-quoted labels become StringLiteralExpr,
    anything else is kept."""
    if label.isdigit():
        return INT_LITERAL_LABEL
    if len(label) >= 2 and label.startswith('"') and label.endswith('"'):
        return STRING_LITERAL_LABEL
    return label


def normalize_labels(tree: AstTree) -> AstTree:
    """Copy of `tree` with every label passed through normalize_label, once
    per distinct label; DepthLimitError when `tree` is deeper than
    MAX_TREE_DEPTH. The copy shares the child counts, heights and edges of
    `tree`'s shape, which no tree changes."""
    labels, arity, height, edges = tree_shape(tree)
    if height[0] >= MAX_TREE_DEPTH:
        raise DepthLimitError(f"tree is deeper than the limit of {MAX_TREE_DEPTH} nodes")
    table = {label: normalize_label(label) for label in set(labels)}
    return _root(list(map(table.__getitem__, labels)), arity, height, edges)


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


def _check_key(entry: dict, where: str) -> None:
    """The reader's rule for a file's key fields and defect label."""
    for key in ("file_id", "project", "version"):
        value = entry.get(key)
        if not isinstance(value, str) or not value:
            raise DocumentError(f"{where}: {key!r} must be a non-empty string")
    label = entry.get("label")
    if label is not None and not (jsonio.is_int(label) and label in (0, 1)):
        raise DocumentError(f"{where}: 'label' must be 0, 1 or null, got {label!r}")


def _check_depth(height: list[int], where: str) -> None:
    """The reader's depth rule over a tree's preorder heights: a root at
    MAX_TREE_DEPTH or more raises DepthLimitError naming the node with the
    largest index at or above it, the first a pass from the back finds."""
    if height[0] >= MAX_TREE_DEPTH:
        j = next(j for j in range(len(height) - 1, -1, -1) if height[j] >= MAX_TREE_DEPTH)
        raise DepthLimitError(f"{where}.nodes[{j}]: tree is deeper than the limit of "
                              f"{MAX_TREE_DEPTH} nodes")


def corpus_to_document(records: list[FileRecord]) -> dict:
    """The corpus document of `records`. A record that `corpus_from_document`
    would reject raises the reader's DocumentError or DepthLimitError here,
    named by its key, so every document written reads back; the key and
    depth rules are the reader's own `_check_key` and `_check_depth`."""
    if not records:
        raise DocumentError("corpus: no records; a corpus holds at least one file")
    shapes = [tree_shape(r.tree) for r in records]
    table: set[str] = set()
    seen: set[tuple[str, str, str]] = set()
    for r, (names, _, height, _) in zip(records, shapes):
        where = f"record {r.key}"
        _check_key(vars(r), where)
        if r.key in seen:
            raise DocumentError(f"{where}: duplicate entry")
        seen.add(r.key)
        own = set(names)
        if not all(isinstance(t, str) and t for t in own):
            raise DocumentError(f"{where}: labels must be non-empty strings")
        _check_depth(height, where)
        table |= own
    labels = sorted(table)
    index = {label: i for i, label in enumerate(labels)}
    return {"format_version": 2, "labels": labels, "files": [
        {"file_id": r.file_id, "project": r.project, "version": r.version, "label": r.label,
         "nodes": [index[label] for label in names], "arity": list(arity)}
        for r, (names, arity, _, _) in zip(records, shapes)]}


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
    if not files:
        raise DocumentError(f"{source}: 'files' is empty; a corpus holds at least one file")
    records: list[FileRecord] = []
    seen: set[tuple[str, str, str]] = set()
    for i, entry in enumerate(files):
        where = f"{source}: files[{i}]"
        jsonio.known_fields(entry, ("file_id", "project", "version", "label", "nodes",
                                    "arity"), where, "entry")
        _check_key(entry, where)
        label = entry.get("label")
        nodes, arity = entry.get("nodes"), entry.get("arity")
        if not (isinstance(nodes, list) and isinstance(arity, list)
                and 0 < len(nodes) == len(arity)):
            raise DocumentError(f"{where}: 'nodes' and 'arity' must be non-empty lists "
                                f"of equal length")
        complete = 0  # subtrees that the nodes after node j make up
        for j in range(len(nodes) - 1, -1, -1):
            index, k = nodes[j], arity[j]
            if type(index) is not int or not 0 <= index < len(labels):
                raise DocumentError(f"{where}.nodes[{j}]: label index must be an integer "
                                    f"in [0, {len(labels)}), got {index!r}")
            if type(k) is not int or not 0 <= k <= complete:
                raise DocumentError(f"{where}.arity[{j}]: child count must be an integer "
                                    f"in [0, {complete}], got {k!r}")
            complete += 1 - k
        if complete != 1:
            raise DocumentError(f"{where}.arity[0]: nodes left over after the root's subtree")
        tree = _shape([labels[i] for i in nodes], list(arity))
        _check_depth(tree._shape[2], where)
        record = FileRecord(entry["file_id"], entry["project"], entry["version"], label, tree)
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
