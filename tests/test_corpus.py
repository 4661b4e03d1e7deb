import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from treedefect import (AstTree, FileRecord, UNK_TOKEN, Vocabulary, build_vocabulary,
                        encode, flatten, iter_nodes, normalize_label,
                        normalize_labels, read_corpus, tree_depth, write_corpus)
from treedefect import jsonio
from treedefect.corpus import (MAX_TREE_DEPTH, cell, corpus_from_document,
                               corpus_to_document, tree_from_json, tree_to_json)
from treedefect.errors import DepthLimitError, DocumentError


def leaf(label):
    return AstTree(label)


SAMPLE = AstTree("CompilationUnit", (
    AstTree("VariableDeclaration", (leaf("int"), leaf("i"), leaf("0"))),
    AstTree("WhileStmt", (
        AstTree("<", (leaf("i"), leaf("10"))),
        AstTree("BlockStmt", (AstTree("AssignStmt", (leaf("i"), AstTree("+", (leaf("i"), leaf("1"))))),)),
    )),
))


def test_node_count_and_depth():
    assert sum(1 for _ in iter_nodes(SAMPLE)) == 15
    assert tree_depth(SAMPLE) == 6
    assert sum(1 for _ in iter_nodes(leaf("x"))) == 1
    assert tree_depth(leaf("x")) == 1


def test_iter_nodes_preorder():
    tree = AstTree("a", (AstTree("b", (leaf("c"), leaf("d"))), leaf("e")))
    assert [n.label for n in iter_nodes(tree)] == ["a", "b", "c", "d", "e"]


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
    labels = [n.label for n in iter_nodes(tree)]
    assert labels.count("IntegerLiteralExpr") == 3
    assert "0" not in labels and "10" not in labels
    # original untouched
    assert any(n.label == "0" for n in iter_nodes(SAMPLE))


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
    labels = [n.label for n in iter_nodes(SAMPLE)]
    encoded = encode(labels, vocab)
    assert encoded.dtype == np.intp and encoded.shape == (len(labels),)
    assert [vocab.tokens[i] for i in encoded] == labels
    oov = encode(["never-seen"], vocab)
    assert oov.tolist() == [0]


def test_tree_json_roundtrip():
    obj = tree_to_json(SAMPLE)
    assert tree_from_json(obj) == SAMPLE


def test_tree_from_json_error_paths():
    with pytest.raises(DocumentError, match=r"tree\.children\[1\]"):
        tree_from_json({"label": "a", "children": [
            {"label": "b", "children": []},
            {"label": "", "children": []},
        ]})
    with pytest.raises(DocumentError, match="children"):
        tree_from_json({"label": "a"})
    with pytest.raises(DocumentError, match="unknown field"):
        tree_from_json({"label": "a", "children": [], "extra": 1})


def test_deep_tree_operations_are_iterative():
    tree = leaf("x")
    for _ in range(10000):
        tree = AstTree("y", (tree,))
    assert sum(1 for _ in iter_nodes(tree)) == 10001
    assert tree_depth(tree) == 10001
    normalized = normalize_labels(tree)
    assert normalized.label == "y"
    vocab = build_vocabulary([tree], min_count=1)
    flat = flatten(tree, vocab)
    # a chain's height order is its preorder reversed
    assert [vocab.tokens[i] for i in flat.indices] == [n.label for n in iter_nodes(tree)][::-1]
    obj = tree_to_json(tree)
    # documents are written iteratively, but read back only up to MAX_TREE_DEPTH
    with pytest.raises(DepthLimitError, match="deeper than the limit"):
        tree_from_json(obj)


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
    doc = corpus_to_document(make_records())
    doc["format_version"] = 2
    with pytest.raises(DocumentError, match="format_version"):
        corpus_from_document(doc)
    doc = corpus_to_document(make_records())
    doc["files"][1]["label"] = 2
    with pytest.raises(DocumentError, match=r"files\[1\].*label"):
        corpus_from_document(doc)
    doc = corpus_to_document(make_records())
    doc["files"][0]["label"] = True
    with pytest.raises(DocumentError, match="label"):
        corpus_from_document(doc)
    doc = corpus_to_document(make_records())
    del doc["files"][2]["tree"]
    with pytest.raises(DocumentError, match=r"files\[2\].*tree"):
        corpus_from_document(doc)
    doc = corpus_to_document(make_records())
    doc["files"][0]["version"] = ""
    with pytest.raises(DocumentError, match="version"):
        corpus_from_document(doc)


def test_corpus_duplicate_keys_rejected():
    records = make_records()
    records.append(FileRecord("a.mini", "proj", "1.0", 0, leaf("x")))
    with pytest.raises(DocumentError, match="duplicate"):
        corpus_from_document(corpus_to_document(records))


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
    assert tree_depth(tree) == len(levels)
    back = tree_from_json(jsonio.parse(jsonio.dumps(tree_to_json(tree))))
    # dataclass == recurses once per level, so compare preorder shapes instead
    assert ([(n.label, len(n.children)) for n in iter_nodes(back)]
            == [(n.label, len(n.children)) for n in iter_nodes(tree)])
