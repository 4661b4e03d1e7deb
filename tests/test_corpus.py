import json
import os
import re
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from oracles import iter_nodes
from treedefect import (AstTree, FileRecord, FlatTree, UNK_TOKEN, Vocabulary,
                        build_vocabulary, encode, flatten, normalize_label, normalize_labels, pack,
                        parse_mini, preorder, read_corpus, write_corpus)
from treedefect import jsonio
from treedefect.cli import main
from treedefect.corpus import MAX_TREE_DEPTH, cell, corpus_from_document, corpus_to_document
from treedefect.errors import DepthLimitError, DocumentError

from conftest import has_nodes, lone, read_back, tree_from_parents, unchecked_document


def leaf(label):
    return AstTree(label)


SAMPLE = AstTree("CompilationUnit", (
    AstTree("VariableDeclaration", (leaf("int"), leaf("i"), leaf("0"))),
    AstTree("WhileStmt", (
        AstTree("<", (leaf("i"), leaf("10"))),
        AstTree("BlockStmt", (AstTree("AssignStmt", (leaf("i"), AstTree("+", (leaf("i"), leaf("1"))))),)),
    )),
))


def depth(tree):
    return flatten(tree, Vocabulary((UNK_TOKEN,))).depth


def test_node_count_and_depth():
    assert len(preorder(SAMPLE)[0]) == 15
    assert depth(SAMPLE) == 6
    assert preorder(leaf("x")) == (["x"], [0])
    assert depth(leaf("x")) == 1


def test_preorder_labels_and_arity():
    tree = AstTree("a", (AstTree("b", (leaf("c"), leaf("d"))), leaf("e")))
    assert preorder(tree) == (["a", "b", "c", "d", "e"], [2, 2, 0, 0, 0])
    nodes = list(iter_nodes(SAMPLE))
    assert preorder(SAMPLE) == ([n.label for n in nodes], [len(n.children) for n in nodes])


def test_normalize_label_rules():
    assert normalize_label("10") == "IntegerLiteralExpr"
    assert normalize_label("0") == "IntegerLiteralExpr"
    assert normalize_label('"hello"') == "StringLiteralExpr"
    assert normalize_label('""') == "StringLiteralExpr"
    assert normalize_label("WhileStmt") == "WhileStmt"
    assert normalize_label("x10") == "x10"
    assert normalize_label('"unterminated') == '"unterminated'


def test_normalize_labels_tree():
    tree = normalize_labels(SAMPLE)
    labels, arity = preorder(tree)
    assert labels.count("IntegerLiteralExpr") == 3
    assert "0" not in labels and "10" not in labels
    assert labels == [normalize_label(label) for label in preorder(SAMPLE)[0]]
    assert arity == preorder(SAMPLE)[1]
    # original untouched
    assert "0" in preorder(SAMPLE)[0]


def test_vocabulary_basics():
    vocab = Vocabulary((UNK_TOKEN, "a", "b"))
    assert len(vocab) == 3
    assert encode(["a", "missing", "b", UNK_TOKEN], vocab).tolist() == [1, 0, 2, 0]


def test_vocabulary_requires_unk_first():
    with pytest.raises(ValueError):
        Vocabulary(("a", UNK_TOKEN))
    with pytest.raises(ValueError):
        Vocabulary((UNK_TOKEN, "a", "a"))


def test_build_vocabulary_order_and_cap():
    # counts: x:4, y:3, z:3, w:1
    trees = [AstTree("x", (leaf("y"), leaf("z"))),
             AstTree("x", (leaf("y"), leaf("z"))),
             AstTree("x", (leaf("x"), leaf("y"), leaf("z"), leaf("w")))]
    vocab = build_vocabulary(trees, size=10, min_count=1)
    # descending count, lexicographic ties; unk first
    assert vocab.tokens == (UNK_TOKEN, "x", "y", "z", "w")
    capped = build_vocabulary(trees, size=3, min_count=1)
    assert capped.tokens == (UNK_TOKEN, "x", "y")  # cap includes the unknown
    filtered = build_vocabulary(trees, size=10, min_count=2)
    assert filtered.tokens == (UNK_TOKEN, "x", "y", "z")


def test_build_vocabulary_never_emits_unk_token():
    trees = [AstTree(UNK_TOKEN, (leaf(UNK_TOKEN),)), leaf("a"), leaf("a")]
    vocab = build_vocabulary(trees, min_count=1)
    assert vocab.tokens.count(UNK_TOKEN) == 1
    assert vocab.tokens[0] == UNK_TOKEN


def test_encode_decode_roundtrip_and_oov():
    vocab = build_vocabulary([SAMPLE], min_count=1)
    labels = preorder(SAMPLE)[0]
    encoded = encode(labels, vocab)
    assert encoded.dtype == np.intp and encoded.shape == (len(labels),)
    assert [vocab.tokens[i] for i in encoded] == labels
    oov = encode(["never-seen"], vocab)
    assert oov.tolist() == [0]


def test_encode_maps_unknown_labels_to_zero_and_nothing_to_an_empty_array():
    vocab = Vocabulary((UNK_TOKEN, "a", "b"))
    for labels in (["x", "", "A", "b ", "<UNK>"], ("a", "never-seen", "b", "a")):
        got = encode(labels, vocab)
        want = [vocab.tokens.index(t) if t in vocab.tokens else 0 for t in labels]
        assert got.dtype == np.intp and got.tolist() == want
    for empty in ([], ()):
        got = encode(empty, vocab)
        assert got.dtype == np.intp and got.shape == (0,)


def one_file(tree):
    return corpus_to_document([FileRecord("a.mini", "p", "1", None, tree)])


def test_tree_json_roundtrip():
    doc = one_file(SAMPLE)
    labels, arity = preorder(SAMPLE)
    assert doc["labels"] == sorted(set(labels))
    (entry,) = doc["files"]
    assert [doc["labels"][i] for i in entry["nodes"]] == labels
    assert entry["arity"] == arity
    assert corpus_from_document(jsonio.parse(jsonio.dumps(doc)))[0].tree == SAMPLE
    # a read-back tree and the documents written from it share no lists
    back = corpus_from_document(doc)[0].tree
    entry["arity"][0] = 9
    written = one_file(back)["files"][0]
    written["arity"][0] = 9
    assert preorder(back) == (labels, arity) and back == SAMPLE


def flat_document(nodes, arity, labels=None):
    return {"format_version": 2, "labels": ["a", "b"] if labels is None else labels,
            "files": [{"file_id": "a.mini", "project": "p", "version": "1", "label": None,
                       "nodes": nodes, "arity": arity}]}


def test_the_writer_rejects_what_the_reader_would(tmp_path):
    # every document write_corpus writes reads back: a record the reader
    # would reject raises the reader's error, named by the record's key, and
    # nothing is written
    deep = parse_mini("x = " + "1 + " * 300 + "1;")  # not through normalize_labels
    ok = FileRecord("a.mini", "p", "1", None, SAMPLE)
    key = r"^record \('p', '1', 'b.mini'\): "
    for records, error, message in (
            ([ok, FileRecord("b.mini", "p", "1", 0, deep)], DepthLimitError,
             r"^record \('p', '1', 'b.mini'\)\.nodes\[47\]: "
             f"tree is deeper than the limit of {MAX_TREE_DEPTH} nodes$"),
            ([ok, FileRecord("b.mini", "p", "1", 0, AstTree("", (leaf("x"),)))], DocumentError,
             key + "labels must be non-empty strings$"),
            ([ok, FileRecord("b.mini", "p", "1", 2, SAMPLE)], DocumentError,
             key + "'label' must be 0, 1 or null, got 2$"),
            ([ok, FileRecord("b.mini", "p", "1", True, SAMPLE)], DocumentError,
             key + "'label' must be 0, 1 or null, got True$"),
            ([ok, FileRecord("", "p", "1", None, SAMPLE)], DocumentError,
             r"^record \('p', '1', ''\): 'file_id' must be a non-empty string$"),
            ([ok, ok], DocumentError, r"^record \('p', '1', 'a.mini'\): duplicate entry$"),
            ([], DocumentError, "^corpus: no records; a corpus holds at least one file$")):
        path = tmp_path / "corpus.json"
        with pytest.raises(error, match=message):
            write_corpus(path, records)
        assert not path.exists()
    # the writer names the node that the reader names in the written entry
    with pytest.raises(DepthLimitError, match=r"^corpus: files\[0\]\.nodes\[47\]: "):
        corpus_from_document(unchecked_document(deep))
    write_corpus(path, [ok, FileRecord("b.mini", "p", "1", 0, normalize_labels(
        parse_mini("x = " + "1 + " * 250 + "1;")))])
    assert read_corpus(path)[0].tree == SAMPLE


def test_repr_is_the_dataclass_text():
    # AstTree's own repr, made by a loop, gives the text of a plain
    # dataclass's recursive repr, for hand-built trees and built roots alike
    @dataclass(frozen=True)
    class AstTree:
        label: str
        children: tuple = ()

    AstTree.__qualname__ = "AstTree"

    def plain(tree):
        return AstTree(tree.label, tuple(plain(c) for c in tree.children))

    trees = [SAMPLE, leaf("x"), leaf("it's"), read_back(SAMPLE),
             parse_mini('f(1, "a"); if (a) { b = !c; }')]
    trees += [tree_from_parents(shape) for shape in ([(1, 0)] * 5, [(2, j) for j in range(6)])]
    for tree in trees:
        assert repr(tree) == repr(plain(tree))


def test_flat_tree_error_paths():
    assert corpus_from_document(flat_document([0, 1, 1], [2, 0, 0]))[0].tree == AstTree(
        "a", (leaf("b"), leaf("b")))
    for nodes, arity, message in (
            ([0, 1, 2], [2, 0, 0], r"files\[0\]\.nodes\[2\]: label index"),
            ([0, -1], [1, 0], r"files\[0\]\.nodes\[1\]: label index"),
            ([0, True], [1, 0], r"files\[0\]\.nodes\[1\]: label index"),
            ([0.0, 1], [1, 0], r"files\[0\]\.nodes\[0\]: label index"),
            ([0, 1], [1, -1], r"files\[0\]\.arity\[1\]: child count"),
            ([0, 1], [1, 1], r"files\[0\]\.arity\[1\]: child count"),
            ([0, 1, 1], [3, 0, 0], r"files\[0\]\.arity\[0\]: child count"),
            ([0, 1], [True, 0], r"files\[0\]\.arity\[0\]: child count"),
            ([0, 1], [1.0, 0], r"files\[0\]\.arity\[0\]: child count"),
            ([0, 1], [0, 0], r"files\[0\]\.arity\[0\]: nodes left over"),
            ([0, 1, 1], [1, 0], r"files\[0\]: 'nodes' and 'arity'"),
            ([], [], r"files\[0\]: 'nodes' and 'arity'"),
            ({"0": 0}, [0], r"files\[0\]: 'nodes' and 'arity'")):
        with pytest.raises(DocumentError, match=message):
            corpus_from_document(flat_document(nodes, arity))
    for labels in (["b", "a"], ["a", "a"], ["a", ""], ["a", 1], "ab", 5):
        with pytest.raises(DocumentError, match="'labels' must be sorted"):
            corpus_from_document(flat_document([0], [0], labels))
    doc = flat_document([0], [0])
    doc["files"][0]["tree"] = {"label": "a", "children": []}
    with pytest.raises(DocumentError, match=r"files\[0\]: unknown field 'tree'"):
        corpus_from_document(doc)


def chain(levels):
    tree = leaf("x")
    for _ in range(levels - 1):
        tree = AstTree("y", (tree,))
    return tree


def test_deep_tree_operations_are_iterative():
    # walking, counting, flattening, ==, hash and repr have no depth limit;
    # normalize_labels, the document writer and the document reader hold
    # trees to MAX_TREE_DEPTH. Any of them recursing would raise
    # RecursionError instead. Each runs on a hand-built chain and on a
    # read-back chain as deep as the limit allows.
    chains = [chain(levels) for levels in (10001, MAX_TREE_DEPTH, MAX_TREE_DEPTH + 1)]
    twin = read_back(chains[1])
    for tree, levels in ((chains[0], 10001), (twin, MAX_TREE_DEPTH)):
        labels, arity = preorder(tree)
        assert labels == ["y"] * (levels - 1) + ["x"] and arity == [1] * (levels - 1) + [0]
        vocab = build_vocabulary([tree], min_count=1)
        assert vocab.tokens == (UNK_TOKEN, "y", "x")
        assert flatten(tree, vocab).depth == levels
        flat = lone(tree, vocab)
        assert flat.depth == levels
        # a chain's height order is its preorder reversed
        assert [vocab.tokens[i] for i in flat.indices] == labels[::-1]
        same = chain(levels)
        assert tree == same and hash(tree) == hash(same) and tree != chains[2]
        assert repr(tree) == ("AstTree(label='y', children=(" * (levels - 1)
                              + "AstTree(label='x', children=())" + ",))" * (levels - 1))
    assert not has_nodes(twin)
    source = "x = " + " + ".join(["1"] * 3000) + ";"
    parsed, want = parse_mini(source), oracles.token_parse_mini(source)
    assert parsed == want and hash(parsed) == hash(want) and repr(parsed) == repr(want)
    assert not has_nodes(parsed)
    assert preorder(normalize_labels(twin)) == preorder(twin)
    limit = f"tree is deeper than the limit of {MAX_TREE_DEPTH} nodes$"
    for tree in (chains[0], chains[2], AstTree("y", (twin,)), parsed):
        with pytest.raises(DepthLimitError, match=f"^{limit}"):
            normalize_labels(tree)
        with pytest.raises(DepthLimitError, match=rf"^record \('p', '1', 'a.mini'\)\.nodes\[\d+\]: {limit}"):
            one_file(tree)
    text = jsonio.dumps(unchecked_document(chains[0]))
    with pytest.raises(DepthLimitError, match=r"files\[0\]\.nodes\[.*deeper than the limit"):
        corpus_from_document(jsonio.parse(text))
    with pytest.raises(DepthLimitError, match=rf"^corpus: files\[0\]\.nodes\[0\]: {limit}"):
        read_back(chains[2])


def make_records():
    return [
        FileRecord("a.mini", "proj", "1.0", 1, normalize_labels(SAMPLE)),
        FileRecord("b.mini", "proj", "1.0", 0, leaf("CompilationUnit")),
        FileRecord("c.mini", "proj", "2.0", None, leaf("CompilationUnit")),
    ]


def test_corpus_document_roundtrip(tmp_path):
    records = make_records()
    path = tmp_path / "corpus.json"
    write_corpus(path, records)
    loaded = read_corpus(path)
    assert loaded == records
    # byte determinism
    first = path.read_bytes()
    write_corpus(path, loaded)
    assert path.read_bytes() == first


def test_corpus_document_validation():
    for version, message in ((3, "must be 2, got 3$"), (1, "got 1; re-run `ingest`"),
                             (2.0, "must be 2, got 2.0$"), (True, "must be 2, got True$"),
                             (1.0, "must be 2, got 1.0$")):
        doc = corpus_to_document(make_records())
        doc["format_version"] = version
        with pytest.raises(DocumentError, match=message):
            corpus_from_document(doc)
    doc = corpus_to_document(make_records())
    doc["files"][1]["label"] = 2
    with pytest.raises(DocumentError, match=r"files\[1\].*label"):
        corpus_from_document(doc)
    for label in (True, 1.0, 0.0, "1"):
        doc = corpus_to_document(make_records())
        doc["files"][0]["label"] = label
        with pytest.raises(DocumentError, match=r"files\[0\]: 'label' must be 0, 1 or null"):
            corpus_from_document(doc)
    doc = corpus_to_document(make_records())
    del doc["files"][2]["nodes"]
    with pytest.raises(DocumentError, match=r"files\[2\].*nodes"):
        corpus_from_document(doc)
    doc = corpus_to_document(make_records())
    doc["files"][0]["version"] = ""
    with pytest.raises(DocumentError, match="version"):
        corpus_from_document(doc)


def test_corpus_duplicate_keys_rejected():
    # the reader's own check, on a document the writer would not make
    doc = corpus_to_document(make_records())
    doc["files"].append(dict(doc["files"][0]))
    with pytest.raises(DocumentError, match=r"^corpus: files\[3\]: duplicate entry for "
                                            r"\('proj', '1.0', 'a.mini'\)$"):
        corpus_from_document(doc)
    records = make_records()
    records.append(FileRecord("a.mini", "proj", "1.0", 0, leaf("x")))
    with pytest.raises(DocumentError, match=r"^record \('proj', '1.0', 'a.mini'\): "
                                            r"duplicate entry$"):
        corpus_to_document(records)


def test_corpus_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DocumentError, match="invalid JSON"):
        read_corpus(path)
    with pytest.raises(DocumentError):
        read_corpus(tmp_path / "missing.json")


def test_label_null_roundtrip(tmp_path):
    records = make_records()
    path = tmp_path / "corpus.json"
    write_corpus(path, records)
    raw = json.loads(path.read_text(encoding="utf-8"))
    assert raw["files"][2]["label"] is None


def test_cell_selection():
    records = make_records()
    assert [r.file_id for r in cell(records, "proj", "1.0")] == ["a.mini", "b.mini"]
    assert cell(records, "proj", "9.9") == []


_LABELS = st.sampled_from(["a", "y", UNK_TOKEN, "IntegerLiteralExpr", '"s"', "é"]) | st.text(
    min_size=1, max_size=3)
# one (label, side leaves, position of the deeper node among them) per level
_LEVELS = st.lists(st.tuples(_LABELS, st.lists(_LABELS, max_size=2), st.integers(0, 2)),
                   min_size=1, max_size=MAX_TREE_DEPTH)


def spine_tree(levels):
    """Tree with one node per level on its deepest path, leaf level first.
    Drawn as flat levels because hypothesis reports examples by repr, which
    recurses once per level of a tree."""
    tree = AstTree(levels[0][0])
    for label, side, at in levels[1:]:
        kids = [AstTree(s) for s in side]
        kids.insert(min(at, len(kids)), tree)
        tree = AstTree(label, tuple(kids))
    return tree


@settings(max_examples=60, deadline=None)
@given(_LEVELS)
@example([("y", [], 0)] * MAX_TREE_DEPTH)
def test_trees_up_to_max_depth_roundtrip_through_json(levels):
    tree = spine_tree(levels)
    assert depth(tree) == len(levels)
    back = corpus_from_document(jsonio.parse(jsonio.dumps(one_file(tree))))[0].tree
    assert back == tree


_JUNK = (st.integers(-3, 40) | st.booleans() | st.floats(allow_nan=True) | st.none()
         | st.text(max_size=2) | st.lists(st.integers(0, 3), max_size=2))


def _set_value(doc, entry, key, data):
    seq = entry[key]
    seq[data.draw(st.integers(0, len(seq) - 1))] = data.draw(_JUNK)


def _cut_both(doc, entry, key, data):
    n = data.draw(st.integers(0, len(entry["nodes"])))
    entry["nodes"], entry["arity"] = entry["nodes"][:n], entry["arity"][:n]


def _cut_one(doc, entry, key, data):
    entry[key] = entry[key][:data.draw(st.integers(0, len(entry[key])))]


def _second_root(doc, entry, key, data):
    entry["nodes"], entry["arity"] = entry["nodes"] * 2, entry["arity"] * 2


def _replace_list(doc, entry, key, data):
    entry[key] = data.draw(_JUNK)


def _bad_labels(doc, entry, key, data):
    labels = doc["labels"]
    j = data.draw(st.integers(0, len(labels) - 1))
    how = data.draw(st.sampled_from(["drop", "junk", "repeat", "reverse", "table"]))
    if how == "drop":
        del labels[j]
    elif how == "junk":
        labels[j] = data.draw(_JUNK)
    elif how == "repeat":
        labels.insert(j, labels[j])
    elif how == "reverse":
        labels.reverse()
    else:
        doc["labels"] = data.draw(_JUNK)


_CORRUPTIONS = (_set_value, _cut_both, _cut_one, _second_root, _replace_list, _bad_labels)
_SMALL_LEVELS = st.lists(st.tuples(_LABELS, st.lists(_LABELS, max_size=2), st.integers(0, 2)),
                         min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(st.lists(_SMALL_LEVELS, min_size=1, max_size=3), st.data())
def test_corrupted_documents_raise_only_document_errors(trees, data):
    doc = corpus_to_document([FileRecord(f"f{i}.mini", "p", "1", None, spine_tree(levels))
                              for i, levels in enumerate(trees)])
    for _ in range(data.draw(st.integers(1, 3))):
        corrupt = data.draw(st.sampled_from(_CORRUPTIONS))
        if not isinstance(doc["labels"], list) or not doc["labels"]:
            break
        entry = doc["files"][data.draw(st.integers(0, len(doc["files"]) - 1))]
        key = data.draw(st.sampled_from(["nodes", "arity"]))
        if not all(isinstance(entry[k], list) and entry[k] for k in ("nodes", "arity")):
            break
        corrupt(doc, entry, key, data)
    try:
        records = corpus_from_document(doc)
    except (DocumentError, DepthLimitError):
        return
    # whatever is accepted is read exactly as the document states it
    assert all(isinstance(t, str) and t for t in doc["labels"])
    assert doc["labels"] == sorted(set(doc["labels"]))
    for entry, record in zip(doc["files"], records):
        preorder = list(iter_nodes(record.tree))
        assert [n.label for n in preorder] == [doc["labels"][i] for i in entry["nodes"]]
        assert [len(n.children) for n in preorder] == entry["arity"]


# labels for drawn trees: literals that normalize_label collapses, the
# sentinel, and plain names
_NAMES = ["a", "y", UNK_TOKEN, "IntegerLiteralExpr", '"s"', "é", "12", '"']
_TREE_SHAPES = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 3) | st.integers(0, 40)),
                        max_size=60)
_WIDE = [(j % 8, j) for j in range(13)]  # a root with 13 leaf children
_CHAIN = [(1, 0)] * (MAX_TREE_DEPTH - 1)  # as deep as the limit allows
_PAST = [(1, 0)] * (MAX_TREE_DEPTH + 40)  # deeper than the limit


def _drawn(shape):
    return tree_from_parents(shape, _NAMES.__getitem__)


def assert_same_nodes(got, want):
    """Equal trees, compared node by node in preorder through `.children`,
    which makes a built root's nodes (== reads its kept shape instead)."""
    assert ([(n.label, len(n.children)) for n in iter_nodes(got)]
            == [(n.label, len(n.children)) for n in iter_nodes(want)])


def assert_flattens_as_oracle(tree, labels, arity, vocab):
    got = lone(tree, vocab, "f.mini")
    order, *arrays = oracles.height_structure(labels, arity)
    want = FlatTree(encode(order, vocab), *arrays, ("f.mini",))
    for field in ("indices", "height", "edge_child", "edge_start", "tree", "roots"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_TREE_SHAPES, min_size=1, max_size=4))
@example([[], [], []])  # all-leaf trees
@example([_WIDE, [(2, 0)] * 5])
@example([_CHAIN, []])
def test_read_back_roots_defer_their_nodes_and_equal_the_eager_oracle(shapes):
    trees = [_drawn(shape) for shape in shapes]
    doc = jsonio.parse(jsonio.dumps(corpus_to_document(
        [FileRecord(f"f{i}.mini", "p", "1", None, t) for i, t in enumerate(trees)])))
    records = corpus_from_document(doc)
    vocab = Vocabulary((UNK_TOKEN, "a", "y", "é"))
    for i, (entry, record) in enumerate(zip(doc["files"], records)):
        root, labels = record.tree, [doc["labels"][j] for j in entry["nodes"]]
        want = oracles.eager_from_preorder(doc["labels"], entry["nodes"], entry["arity"],
                                           f"corpus: files[{i}]")
        assert preorder(root) == (labels, entry["arity"])
        assert_flattens_as_oracle(root, labels, entry["arity"], vocab)
        assert root.label == want.label and not has_nodes(root)
        assert_same_nodes(root, want)  # reads .children: the nodes are made now
        assert has_nodes(root) and preorder(root) == preorder(want)
        assert all(n._shape is None for n in list(iter_nodes(root))[1:])
        assert root == want and hash(root) == hash(want) and repr(root) == repr(want)
        assert root == trees[i] and record == FileRecord(f"f{i}.mini", "p", "1", None, want)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_TREE_SHAPES)
@example([])  # a lone leaf
@example(_WIDE)
@example(_CHAIN)
@example(_PAST)
def test_hand_built_trees_flatten_and_normalize_as_the_eager_oracle(shape):
    # a hand-built tree takes the shape pass, which has no depth limit, to
    # flatten; normalize_labels gates it as the eager builder did
    tree = _drawn(shape)
    nodes = list(iter_nodes(tree))
    labels, arity = [n.label for n in nodes], [len(n.children) for n in nodes]
    assert preorder(tree) == (labels, arity)
    assert_flattens_as_oracle(tree, labels, arity, Vocabulary((UNK_TOKEN, "a", "y", "é")))
    try:
        want = oracles.eager_normalize_labels(tree)
    except DepthLimitError as exc:
        assert len(shape) >= MAX_TREE_DEPTH
        with pytest.raises(DepthLimitError, match=f"^{re.escape(str(exc))}$"):
            normalize_labels(tree)
        return
    got = normalize_labels(tree)
    assert preorder(got) == (list(map(normalize_label, labels)), arity)
    assert not has_nodes(got)
    assert_same_nodes(got, want)
    assert_same_nodes(normalize_labels(got), want)  # a built root normalizes again


def assert_packs_as_oracle(trees, vocab):
    """`pack` of the trees' preorder records against the old pack of each
    tree's height-ordered FlatTree (`oracles.height_structure` over an
    independent walk), field by field and byte for byte."""
    got = pack([flatten(t, vocab, f"f{i}.mini") for i, t in enumerate(trees)])
    alone = []
    for i, tree in enumerate(trees):
        nodes = list(iter_nodes(tree))
        order, *arrays = oracles.height_structure([n.label for n in nodes],
                                                  [len(n.children) for n in nodes])
        indices = np.array([oracles.token_index(vocab, label) for label in order], dtype=np.intp)
        alone.append(FlatTree(indices, *arrays, (f"f{i}.mini",)))
    want = oracles.level_pack(alone)
    for field in ("indices", "height", "edge_child", "edge_start", "tree", "roots"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field
    assert got.names == want.names


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_TREE_SHAPES, st.booleans()), min_size=1, max_size=5))
@example([([], False), ([], True), ([], False)])  # single-node files, one read back
@example([(_WIDE, True), ([(2, 0)] * 5, False), (_WIDE, False)])  # a 13-child node
@example([(_CHAIN, True), ([], True), (_CHAIN, False)])
def test_pack_of_preorder_records_equals_pack_of_the_height_structure_oracle(files):
    # hand-built trees and roots read back from a document, each flattened
    # for the first time here, in one pack
    trees = [read_back(_drawn(shape)) if read else _drawn(shape) for shape, read in files]
    assert_packs_as_oracle(trees, Vocabulary((UNK_TOKEN, "a", "y", "é")))


def test_pack_of_a_10001_deep_chain_equals_pack_of_the_height_structure_oracle():
    vocab = Vocabulary((UNK_TOKEN, "x", "y"))
    assert_packs_as_oracle([chain(10001)], vocab)
    assert_packs_as_oracle([leaf("x"), chain(10001), read_back(chain(40)), chain(3)], vocab)


@st.composite
def deep_lists(draw):
    """Valid nodes and arity of a tree about MAX_TREE_DEPTH deep: a spine of
    drawn length whose nodes have a few leaves before and after the next
    spine node. Its only possible fault is its depth."""
    levels = draw(st.integers(MAX_TREE_DEPTH - 2, MAX_TREE_DEPTH + 40))
    sides = draw(st.dictionaries(st.integers(0, levels - 2),
                                 st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=6))
    before, after = [], []
    for level in range(levels):
        b, a = sides.get(level, (0, 0))
        before += [(level % 3, b + a + (level < levels - 1))] + [(2, 0)] * b
        after[:0] = [(1, 0)] * a  # after the whole spine subtree below this level
    nodes, arity = zip(*before, *after)
    return list(nodes), list(arity)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.tuples(st.lists(st.integers(-2, 5) | st.booleans(), min_size=1, max_size=12),
                 st.lists(st.integers(-1, 4) | st.just(1.0), min_size=1, max_size=12))
       | deep_lists())
def test_document_errors_match_the_eager_oracle(lists):
    # any list pair, valid or not, and deep valid trees: the checks, their
    # messages and the node the depth limit names are the eager builder's
    nodes, arity = lists
    arity = arity[:len(nodes)]
    nodes = nodes[:len(arity)]
    labels, where = ["a", "b", "c"], "corpus: files[0]"
    try:
        want = oracles.eager_from_preorder(labels, nodes, arity, where)
    except (DocumentError, DepthLimitError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            corpus_from_document(flat_document(nodes, arity, labels))
        return
    got = corpus_from_document(flat_document(nodes, arity, labels))[0].tree
    assert preorder(got) == ([labels[j] for j in nodes], arity)
    assert got == want


def test_entry_faults_come_before_the_depth_limit(tmp_path, capsys):
    # the reader checks every entry before it measures depth, so a deep
    # chain with a bad first label index names that index, where the eager
    # builder named the first node found too deep; the CLI still exits 2
    nodes, arity = [0] * 300, [1] * 299 + [0]
    with pytest.raises(DepthLimitError, match=r"^corpus: files\[0\]\.nodes\[43\]: tree is deep"):
        oracles.eager_from_preorder(["a"], nodes, arity, "corpus: files[0]")
    nodes[0] = -1
    with pytest.raises(DepthLimitError, match=r"files\[0\]\.nodes\[43\]: tree is deep"):
        oracles.eager_from_preorder(["a"], nodes, arity, "corpus: files[0]")
    with pytest.raises(DocumentError, match=r"^corpus: files\[0\]\.nodes\[0\]: label index "
                                            r"must be an integer in \[0, 1\), got -1$"):
        corpus_from_document(flat_document(nodes, arity, ["a"]))
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(flat_document(nodes, arity, ["a"])))
    assert main(["vocab", "--corpus", str(path), "--output", str(tmp_path / "v.json")]) == 2
    assert "files[0].nodes[0]: label index" in capsys.readouterr().err


def test_nodes_of_a_first_read_back_root_have_no_instance_dict():
    # a process whose first AstTree is a root that keeps its shape: every
    # node made from it later has slots only, no per-instance __dict__
    script = textwrap.dedent("""
        from treedefect import AstTree
        from treedefect.corpus import corpus_from_document
        doc = {"format_version": 2, "labels": ["a", "b", "c"], "files": [
            {"file_id": "f.mini", "project": "p", "version": "1", "label": None,
             "nodes": [0, 1, 2, 2, 1, 2], "arity": [2, 2, 0, 0, 1, 0]}]}
        root = corpus_from_document(doc)[0].tree
        nodes, stack = [], [root]
        while stack:
            nodes.append(stack.pop())
            stack.extend(nodes[-1].children)
        assert len(nodes) == 6 and all(type(n) is AstTree for n in nodes), nodes
        assert [n for n in nodes if hasattr(n, "__dict__")] == [], nodes
        assert [n for n in (AstTree("x"), AstTree("y", (root,))) if hasattr(n, "__dict__")] == []
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
